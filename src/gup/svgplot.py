"""The exclusion chart as deterministic SVG.

The chart is alpha in [-1, 1] against beta0 on a log axis: a handful of
styled curves with a legend, and shading of the excluded side.  Only the
beta0 range and the curves vary; the title, axis labels and alpha ticks
are fixed.  Emitting the SVG directly keeps the output byte-stable across
runs and machines, which the CLI promises; nothing here depends on wall
time, locale or any plotting library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 18.0, 40.0, 48.0
_WIDTH, _HEIGHT = 760.0, 520.0
# the one chart drawn: alpha against beta0, with markup-free text
_TITLE = "Excluded deformation parameters (shaded side ruled out)"
_X_LABEL, _Y_LABEL = "beta0", "alpha"
_Y_RANGE = (-1.0, 1.0)
_Y_TICKS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Series:
    """One curve: points in data coordinates plus a line style.

    points is a sequence of (x, y) pairs or an (n, 2) array; style is
    "solid" or "dashed".
    """

    label: str
    points: Sequence[tuple[float, float]]
    style: str = "solid"

    def __post_init__(self) -> None:
        if self.style not in ("solid", "dashed"):
            raise ValueError(f"unknown line style {self.style!r}")
        if len(self.points) == 0:
            raise ValueError("a series needs at least one point")


# markup characters as entities, and what XML 1.0 forbids in text as the
# backslash escapes the stdout tables print
_XML_ESCAPES = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"} | {
    c: chr(c).encode("unicode_escape").decode()
    for c in (*range(0x20), 0xFFFE, 0xFFFF) if chr(c) not in "\t\n\r"
}


def line_chart(series: Sequence[Series], x_range: tuple[float, float]) -> str:
    """Render exclusion curves on a log x axis to a standalone SVG document string.

    The y axis, the title and the axis labels are fixed: alpha over
    _Y_RANGE against beta0, labelled at nine decades at most.  Each curve
    is a polyline through its points, a dot if it has one, and the region
    below it is shaded with a translucent wash of its color.
    """
    points = [[(float(x), float(y)) for x, y in s.points] for s in series]
    if any(x <= 0.0 for xy in points for x, _ in xy):
        raise ValueError("log x axis requires positive x values")

    width, height = _WIDTH, _HEIGHT
    y_lo, y_hi = _Y_RANGE
    tx_lo, tx_hi = math.log10(x_range[0]), math.log10(x_range[1])
    if tx_hi <= tx_lo:
        tx_hi = tx_lo + 1.0

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    # px takes log10 of the data value
    def px(log_value):
        return _MARGIN_L + (log_value - tx_lo) / (tx_hi - tx_lo) * plot_w

    def py(value):
        return _MARGIN_T + (y_hi - value) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">'
    )
    out.append(
        '<style>text{font-family:DejaVu Sans,Helvetica,sans-serif;'
        "font-size:12px;fill:#222}.title{font-size:15px}</style>"
    )
    out.append(f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>')
    out.append(
        "<clipPath id=\"plot\">"
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" '
        f'width="{plot_w:.2f}" height="{plot_h:.2f}"/></clipPath>'
    )

    # gridlines and ticks
    exponents = range(math.ceil(tx_lo), math.floor(tx_hi) + 1)
    step = math.ceil((tx_hi - tx_lo) / 8)
    x_ticks = [(10.0**e, f"1e{e:d}" if e else "1") for e in exponents if e % step == 0]
    for value, label in x_ticks:
        x = px(math.log10(value))
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 16:.2f}" '
            f'text-anchor="middle">{label}</text>'
        )
    for value in _Y_TICKS:
        y = py(value)
        out.append(
            f'<line x1="{_MARGIN_L:.2f}" y1="{y:.2f}" '
            f'x2="{_MARGIN_L + plot_w:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6:.2f}" y="{y + 4:.2f}" '
            f'text-anchor="end">{value:g}</text>'
        )

    # the frame, the title and the axis labels
    y_mid = _MARGIN_T + plot_h / 2
    out += [
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{width / 2:.2f}" y="22" text-anchor="middle" class="title">{_TITLE}</text>',
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{height - 12:.2f}" '
        f'text-anchor="middle">{_X_LABEL}</text>',
        f'<text x="16" y="{y_mid:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {y_mid:.2f})">{_Y_LABEL}</text>',
    ]

    # curves: a polyline through the given points, shaded down to the x axis
    bottom = _MARGIN_T + plot_h
    for index, (s, xy) in enumerate(zip(series, points)):
        color = _PALETTE[index % len(_PALETTE)]
        coords = [(px(math.log10(x)), py(y)) for x, y in xy]
        dash = ' stroke-dasharray="7 5"' if s.style == "dashed" else ""
        if len(coords) == 1:
            x, y = coords[0]
            out.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                'clip-path="url(#plot)"/>'
            )
        else:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            shade = f"{path} {coords[-1][0]:.2f},{bottom:.2f} {coords[0][0]:.2f},{bottom:.2f}"
            out.append(
                f'<polygon points="{shade}" fill="{color}" fill-opacity="0.07" '
                'stroke="none" clip-path="url(#plot)"/>'
            )
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"{dash} clip-path="url(#plot)"/>'
            )

    # legend, top-left inside the plot
    legend_x = _MARGIN_L + 12.0
    legend_y = _MARGIN_T + 14.0
    for index, s in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        y = legend_y + 18.0 * index
        dash = ' stroke-dasharray="7 5"' if s.style == "dashed" else ""
        out.append(
            f'<line x1="{legend_x:.2f}" y1="{y - 4:.2f}" x2="{legend_x + 26:.2f}" '
            f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        out.append(
            f'<text x="{legend_x + 32:.2f}" y="{y:.2f}">{s.label.translate(_XML_ESCAPES)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"

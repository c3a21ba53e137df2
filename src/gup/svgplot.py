"""Small deterministic SVG line charts.

Exclusion plots need a log x axis, a handful of styled curves with a
legend, and shading of the excluded side.  Emitting the SVG
directly keeps the output byte-stable across runs and machines, which
the CLI promises; nothing here depends on wall time, locale or any
plotting library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Series", "format_rows", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 18.0, 40.0, 48.0
_WIDTH, _HEIGHT = 760.0, 520.0


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


def format_rows(template: str, *columns: list) -> str:
    """template once per row, filled from the columns in one C-level % pass.

    Row i takes entry i of each column in turn, so the template holds one
    conversion per column; a literal % in it must be written %%.
    """
    values = [None] * (len(columns[0]) * len(columns))
    for offset, column in enumerate(columns):
        values[offset :: len(columns)] = column
    return template * len(columns[0]) % tuple(values)


# markup characters as entities, and what XML 1.0 forbids in text as the
# backslash escapes the stdout tables print
_XML_ESCAPES = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"} | {
    c: chr(c).encode("unicode_escape").decode()
    for c in (*range(0x20), 0xFFFE, 0xFFFF) if chr(c) not in "\t\n\r"
}


def _escape(text: str) -> str:
    return text.translate(_XML_ESCAPES)


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9)
    ticks = []
    k = first
    while k * step <= hi + 1e-9 * step:
        ticks.append(k * step)
        k += 1
    return ticks


def line_chart(
    series: Sequence[Series],
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render curves on a log x axis to a standalone SVG document string.

    The region below each curve is shaded with a translucent wash of
    its color.
    """
    if not series:
        raise ValueError("need at least one series")
    points = [np.asarray(s.points, dtype=float) for s in series]
    if any(np.any(xy[:, 0] <= 0.0) for xy in points):
        raise ValueError("log x axis requires positive x values")

    width, height = _WIDTH, _HEIGHT
    y_lo, y_hi = y_range
    tx_lo, tx_hi = math.log10(x_range[0]), math.log10(x_range[1])
    if tx_hi <= tx_lo:
        tx_hi = tx_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    # scalars and arrays alike; px takes log10 of the data value
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
    step = 2 if (tx_hi - tx_lo) > 8 else 1
    x_ticks = [(10.0**e, f"1e{e:d}" if e else "1") for e in exponents if e % step == 0]
    y_ticks = _linear_ticks(y_lo, y_hi)
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
    for value in y_ticks:
        y = py(value)
        out.append(
            f'<line x1="{_MARGIN_L:.2f}" y1="{y:.2f}" '
            f'x2="{_MARGIN_L + plot_w:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6:.2f}" y="{y + 4:.2f}" '
            f'text-anchor="end">{value + 0.0:g}</text>'  # + 0.0 prints -0.0 as 0
        )

    out.append(
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#444444" stroke-width="1"/>'
    )

    if title:
        out.append(
            f'<text x="{width / 2:.2f}" y="22" text-anchor="middle" '
            f'class="title">{_escape(title)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{height - 12:.2f}" '
            f'text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        y_mid = _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="16" y="{y_mid:.2f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {y_mid:.2f})">{_escape(y_label)}</text>'
        )

    # curves, a column at a time: each distinct x column is formatted once,
    # and the shading polygon reuses the polyline's coordinates
    bottom = f"{_MARGIN_T + plot_h:.2f}"
    x_columns: list[tuple[np.ndarray, list[str]]] = []
    for index, (s, xy) in enumerate(zip(series, points)):
        color = _PALETTE[index % len(_PALETTE)]
        x_text = next((text for xs, text in x_columns if np.array_equal(xs, xy[:, 0])), None)
        if x_text is None:
            log_x = np.fromiter(map(math.log10, xy[:, 0].tolist()), float, len(xy))
            x_text = format_rows("%.2f\n", px(log_x).tolist()).splitlines()
            x_columns.append((xy[:, 0], x_text))
        path = format_rows("%s,%.2f ", x_text, py(xy[:, 1]).tolist())[:-1]
        dash = ' stroke-dasharray="7 5"' if s.style == "dashed" else ""
        if len(xy) == 1:
            x, y = path.split(",")
            out.append(
                f'<circle cx="{x}" cy="{y}" r="3" fill="{color}" '
                'clip-path="url(#plot)"/>'
            )
        else:
            shade = f"{path} {x_text[-1]},{bottom} {x_text[0]},{bottom}"
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
            f'<text x="{legend_x + 32:.2f}" y="{y:.2f}">{_escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"

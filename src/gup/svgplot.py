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

__all__ = ["Series", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 18.0, 40.0, 48.0
_WIDTH, _HEIGHT = 760.0, 520.0


@dataclass(frozen=True)
class Series:
    """One curve: points in data coordinates plus a line style.

    style is "solid" or "dashed".
    """

    label: str
    points: Sequence[tuple[float, float]]
    style: str = "solid"

    def __post_init__(self) -> None:
        if self.style not in ("solid", "dashed"):
            raise ValueError(f"unknown line style {self.style!r}")
        if len(self.points) == 0:
            raise ValueError("a series needs at least one point")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


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


def _format_tick(value: float) -> str:
    if value == 0.0:
        return "0"
    return f"{value:g}"


def _decade_label(exponent: int) -> str:
    if exponent == 0:
        return "1"
    return f"1e{exponent:d}"


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
    if min(p[0] for s in series for p in s.points) <= 0.0:
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

    def px(value: float) -> float:
        return _MARGIN_L + (math.log10(value) - tx_lo) / (tx_hi - tx_lo) * plot_w

    def py(value: float) -> float:
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
    x_ticks = [(10.0**e, _decade_label(e)) for e in exponents if e % step == 0]
    y_ticks = _linear_ticks(y_lo, y_hi)
    for value, label in x_ticks:
        x = px(value)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 16:.2f}" '
            f'text-anchor="middle">{_escape(label)}</text>'
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
            f'text-anchor="end">{_escape(_format_tick(value))}</text>'
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

    # curves
    for index, s in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        coords = [(px(x), py(y)) for x, y in s.points]
        if len(coords) >= 2:
            shade = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            bottom = _MARGIN_T + plot_h
            shade += f" {coords[-1][0]:.2f},{bottom:.2f} {coords[0][0]:.2f},{bottom:.2f}"
            out.append(
                f'<polygon points="{shade}" fill="{color}" fill-opacity="0.07" '
                'stroke="none" clip-path="url(#plot)"/>'
            )
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        dash = ' stroke-dasharray="7 5"' if s.style == "dashed" else ""
        if len(coords) == 1:
            x, y = coords[0]
            out.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                'clip-path="url(#plot)"/>'
            )
        else:
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

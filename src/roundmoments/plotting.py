"""Minimal SVG output: polyline charts with no plotting dependency."""

from __future__ import annotations

import math
from typing import Sequence

_PALETTE = ("#1b6ca8", "#d1495b", "#66a182", "#edae49", "#8d5a97", "#2e4057", "#7a9e7e")
_WIDTH, _HEIGHT = 720, 420


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def polyline_chart(
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render one chart as an SVG string; the y axis is log10 of |y|."""
    width, height = _WIDTH, _HEIGHT
    margin = 60
    floor = 1e-300
    tx = lambda v: math.log10(max(abs(v), floor))
    ys_all = [tx(v) for _, ys in series for v in ys]
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = min(xs), max(xs)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width/2:.0f}" y="{height-8:.0f}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{height/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height/2:.0f})">{y_label} (log10)</text>',
        f'<rect x="{margin}" y="{margin/2:.0f}" width="{width-2*margin}" '
        f'height="{height-margin-margin/2:.0f}" fill="none" stroke="#999"/>',
    ]
    plot_x = (margin, width - margin)
    plot_y = (height - margin, margin / 2)  # inverted: SVG y grows downward
    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        px = _scale(xs, x_lo, x_hi, *plot_x)
        py = _scale([tx(v) for v in ys], y_lo, y_hi, *plot_y)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin / 2 + 16 + 16 * i:.0f}" fill="{color}" '
            f'text-anchor="start" font-size="10">{label}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{plot_x[0] + frac * (plot_x[1] - plot_x[0]):.0f}" y="{height - margin + 16:.0f}" '
            f'text-anchor="middle" font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{plot_y[0] + frac * (plot_y[1] - plot_y[0]):.0f}" '
            f'text-anchor="end" font-size="10">{yv:.4g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def stacked_charts(charts: Sequence[str]) -> str:
    """One SVG document holding default-size charts, each below the last."""
    total = _HEIGHT * len(charts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{total}" '
        f'viewBox="0 0 {_WIDTH} {total}">'
    ]
    for i, chart in enumerate(charts):
        parts.append(f'<g transform="translate(0 {_HEIGHT * i})">\n{chart}\n</g>')
    parts.append("</svg>")
    return "\n".join(parts)

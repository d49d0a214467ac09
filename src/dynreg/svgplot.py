"""Minimal self-contained SVG line plots for probe and sweep tables.

Best-effort output only: the CLI reports a failed plot as a warning on
stderr and keeps its exit status and CSV tables.  No timestamps, fixed
float formatting, deterministic bytes for identical inputs.
"""

from __future__ import annotations

import math

from .bochner import _atomic_write_text

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _transform(values, log: bool, lo_px: float, hi_px: float) -> list[float]:
    vals = [math.log10(v) for v in values] if log else list(values)
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin
    return [lo_px + (v - vmin) / span * (hi_px - lo_px) for v in vals]


def line_plot(
    path: str,
    x,
    y,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    logx: bool = False,
    logy: bool = False,
) -> None:
    """Write a single-series line plot; log axes drop non-positive points."""
    pairs = [(float(a), float(b)) for a, b in zip(x, y)]
    if logx:
        pairs = [p for p in pairs if p[0] > 0.0]
    if logy:
        pairs = [p for p in pairs if p[1] > 0.0]
    if not pairs:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    px = _transform(xs, logx, _ML, _W - _MR)
    py = _transform(ys, logy, _H - _MB, _MT)  # y axis points up
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    fmt = lambda v: f"{v:.4g}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle">'
        f"{xlabel}{' (log)' if logx else ''}</text>",
        f'<text x="16" y="{_H // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H // 2})">{ylabel}{" (log)" if logy else ""}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" text-anchor="middle">{fmt(min(xs))}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="middle">{fmt(max(xs))}</text>',
        f'<text x="{_ML - 6}" y="{_H - _MB + 4}" text-anchor="end">{fmt(min(ys))}</text>',
        f'<text x="{_ML - 6}" y="{_MT + 4}" text-anchor="end">{fmt(max(ys))}</text>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
    ]
    for a, b in zip(px, py):
        parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="#1f6fb2"/>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")

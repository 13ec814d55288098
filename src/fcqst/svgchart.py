"""Minimal SVG scatter/line charts for the CLI's --svg flag.

Data-first by design: charts are a convenience rendering of CSV the CLI has
already written, with axes, tick labels, points, and an optional fit
overlay.  Log scales are handled by plotting log10 of the data.
"""

from __future__ import annotations

import math

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _transform(values, log):
    return [math.log10(v) for v in values] if log else list(values)


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(round(v, 12))
        v += step
    return out


def render_chart(path: str, x, y, *, fit=None, xlabel: str = "x",
                 ylabel: str = "y", logx: bool = False, logy: bool = False,
                 title: str = "") -> None:
    """Write a scatter chart with an optional (xs, ys) fit line overlay.

    With no points at all it draws the bare axes around 0.
    """
    tx, ty = _transform(x, logx), _transform(y, logy)
    fx, fy = (_transform(fit[0], logx), _transform(fit[1], logy)) if fit else ([], [])
    all_x, all_y = tx + fx, ty + fy
    x0, x1 = min(all_x, default=0.0), max(all_x, default=0.0)
    y0, y1 = min(all_y, default=0.0), max(all_y, default=0.0)
    padx = 0.05 * ((x1 - x0) or 1.0)
    pady = 0.05 * ((y1 - y0) or 1.0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    def fmt(v, log):
        return f"{10 ** v:.3g}" if log else f"{v:.3g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for v in _ticks(x0, x1):
        parts.append(f'<line x1="{sx(v):.1f}" y1="{_H - _MB}" x2="{sx(v):.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(v):.1f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle">{fmt(v, logx)}</text>')
    for v in _ticks(y0, y1):
        parts.append(f'<line x1="{_ML - 5}" y1="{sy(v):.1f}" x2="{_ML}" '
                     f'y2="{sy(v):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{sy(v) + 4:.1f}" '
                     f'text-anchor="end">{fmt(v, logy)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>')
    if title:
        parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="14" '
                     f'text-anchor="middle">{title}</text>')
    if fit:
        pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in zip(fx, fy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" '
                     f'stroke-width="1.5"/>')
    for a, b in zip(tx, ty):
        parts.append(f'<circle cx="{sx(a):.1f}" cy="{sy(b):.1f}" r="3.5" '
                     f'fill="#1f77b4"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))

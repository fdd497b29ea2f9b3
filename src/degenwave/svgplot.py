"""Minimal deterministic SVG line plots.

Identical inputs must produce identical bytes, so everything is rendered by
hand with fixed number formatting; no plotting library is involved.  Only
what the reports need is supported: multiple labeled polylines, optional
log axes, and a text annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56


@dataclass
class Series:
    label: str
    x: list
    y: list
    dashed: bool = False


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1, 2, 2.5, 5, 10):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    decades = [10.0**e for e in range(lo_e, hi_e + 1)]
    inside = [t for t in decades if lo <= t <= hi]
    if len(inside) >= 2:
        return decades
    # sub-decade range: fall back to 1-2-5 mantissa ticks
    return [m * 10.0**e for e in range(lo_e, hi_e + 1) for m in (1.0, 2.0, 5.0)]


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:.6g}"


def render_line_plot(series: list, title: str, xlabel: str, ylabel: str,
                     logx: bool = False, logy: bool = False,
                     annotation: str = "") -> str:
    """Render labeled polylines into an SVG document string."""
    if not series or all(len(s.x) == 0 for s in series):
        raise ValueError("nothing to plot")
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(series))]

    def txf(vals, log):
        return [math.log10(v) for v in vals] if log else list(vals)

    xs = [v for s in series for v in txf(s.x, logx)]
    ys = [v for s in series for v in txf(s.y, logy)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        pad = 1.0 if y_lo == 0 else abs(y_lo) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + pw * (v - x_lo) / (x_hi - x_lo)

    def py(v):
        return MARGIN_T + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="16">{_esc(title)}</text>')

    # axes box
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
               'fill="none" stroke="black" stroke-width="1"/>')

    x_ticks = (_log_ticks(10**x_lo, 10**x_hi) if logx else _nice_ticks(x_lo, x_hi))
    for t in x_ticks:
        tv = math.log10(t) if logx else t
        if tv < x_lo - 1e-9 or tv > x_hi + 1e-9:
            continue
        xp = px(tv)
        out.append(f'<line x1="{_fmt(xp)}" y1="{MARGIN_T + ph}" x2="{_fmt(xp)}" '
                   f'y2="{MARGIN_T + ph + 5}" stroke="black"/>')
        out.append(f'<line x1="{_fmt(xp)}" y1="{MARGIN_T}" x2="{_fmt(xp)}" '
                   f'y2="{MARGIN_T + ph}" stroke="#dddddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_fmt(xp)}" y="{MARGIN_T + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{_tick_label(t)}</text>')
    y_ticks = (_log_ticks(10**y_lo, 10**y_hi) if logy else _nice_ticks(y_lo, y_hi))
    for t in y_ticks:
        tv = math.log10(t) if logy else t
        if tv < y_lo - 1e-9 or tv > y_hi + 1e-9:
            continue
        yp = py(tv)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(yp)}" x2="{MARGIN_L}" '
                   f'y2="{_fmt(yp)}" stroke="black"/>')
        out.append(f'<line x1="{MARGIN_L}" y1="{_fmt(yp)}" x2="{MARGIN_L + pw}" '
                   f'y2="{_fmt(yp)}" stroke="#dddddd" stroke-width="0.5"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(yp + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{_tick_label(t)}</text>')

    out.append(f'<text x="{MARGIN_L + pw // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + ph // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {MARGIN_T + ph // 2})">{_esc(ylabel)}</text>')

    for s, color in zip(series, colors):
        sx, sy = txf(s.x, logx), txf(s.y, logy)
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(sx, sy))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')

    # legend, top-right inside the box
    ly = MARGIN_T + 16
    for s, color in zip(series, colors):
        lx = MARGIN_L + pw - 150
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{_esc(s.label)}</text>')
        ly += 16

    if annotation:
        out.append(f'<text x="{MARGIN_L + 10}" y="{MARGIN_T + 16}" '
                   f'font-family="sans-serif" font-size="12">{_esc(annotation)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def downsample(x, y, max_points: int = 2000):
    """Thin dense traces so plot files stay small; keeps the endpoints."""
    n = len(x)
    if n <= max_points:
        return list(x), list(y)
    stride = (n - 1) // (max_points - 1) + 1
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return [x[i] for i in idx], [y[i] for i in idx]

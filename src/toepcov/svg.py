"""Minimal native SVG line charts for benchmark summaries.

CSV stays the source of truth; these plots are a convenience and carry no
styling dependencies.
"""

from __future__ import annotations

import math

_PALETTE = (
    "#1f6fb2", "#d1495b", "#44a25c", "#8b5fbf", "#e0913d",
    "#30a5a5", "#a0622d", "#5c6068", "#c54f9c", "#7a9a01",
)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 160, 30, 50


def _ticks_log(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def line_chart(series, path, title="", xlabel="", ylabel=""):
    """Write a line chart with a log y axis; ``series`` is a list of (label,
    xs, ys) triples.

    Non-finite and non-positive y values break the polyline rather than
    being interpolated.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y is not None and math.isfinite(y) and y > 0]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.5 or 0.1, y_hi * 2.0 or 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MT + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="18" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#444"/>',
    ]
    for yt in _ticks_log(y_lo, y_hi):
        if not (y_lo <= yt <= y_hi):
            continue
        yy = sy(yt)
        parts.append(f'<line x1="{_ML}" y1="{yy:.1f}" x2="{_ML + plot_w}" y2="{yy:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yy + 4:.1f}" text-anchor="end">1e{int(math.log10(yt))}</text>')
    seen = set()
    for xt in xs_all:
        if xt in seen:
            continue
        seen.add(xt)
        xx = sx(xt)
        parts.append(
            f'<text x="{xx:.1f}" y="{_MT + plot_h + 16}" text-anchor="middle">{xt:g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + plot_h / 2:.0f}" transform="rotate(-90 16 {_MT + plot_h / 2:.0f})" '
        f'text-anchor="middle">{ylabel}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        segment = []
        segments = []
        for x, y in zip(xs, ys):
            if y is None or not math.isfinite(y) or y <= 0:
                if segment:
                    segments.append(segment)
                segment = []
                continue
            segment.append((sx(x), sy(y)))
        if segment:
            segments.append(segment)
        for seg in segments:
            pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in seg)
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
            for x, y in seg:
                parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.2" fill="{color}"/>')
        ly = _MT + 14 + 16 * idx
        lx = _ML + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts) + "\n")

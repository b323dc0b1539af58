"""The records chart: a self-contained SVG line chart, byte-deterministic."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 30, 40, 60
# the records chart's text; it holds no markup, so it goes into the SVG as it is
TITLE = "Mean inter-class distance per iteration"
X_LABEL, Y_LABEL = "iteration", "mean distance"


def line_chart(xs, ys) -> str:
    """Single-series chart of the finite points; x is expected monotone (iteration index)."""
    finite = [(x, y) for x, y in zip(map(float, xs), map(float, ys))
              if math.isfinite(x) and math.isfinite(y)]
    xs, ys = [x for x, _ in finite], [y for _, y in finite]

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x_min, x_max = min(xs, default=0.0), max(xs, default=0.0)
    y_min, y_max = min(ys, default=0.0), max(ys, default=0.0)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - pad, y_max + pad

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{TITLE}</text>',
    ]

    # axes and ticks
    out.append(f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" x2="{MARGIN_LEFT + plot_w}" '
               f'y2="{MARGIN_TOP + plot_h}" stroke="#000000"/>')
    out.append(f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
               f'y2="{MARGIN_TOP + plot_h}" stroke="#000000"/>')
    for i in range(6):
        yv = y_min + (y_max - y_min) * i / 5
        y = py(yv)
        out.append(f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{MARGIN_LEFT + plot_w}" '
                   f'y2="{y:.2f}" stroke="#dddddd"/>')
        out.append(f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{yv:.4g}</text>')
    for x in xs:
        out.append(f'<text x="{px(x):.2f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{x:.4g}</text>')

    out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 16}" text-anchor="middle" '
               f'font-size="13" font-family="sans-serif">{X_LABEL}</text>')
    out.append(f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-size="13" font-family="sans-serif" '
               f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.1f})">{Y_LABEL}</text>')

    points = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in zip(xs, ys))
    out.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{px(x):.3f}" cy="{py(y):.3f}" r="3.5" fill="#1f77b4"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"

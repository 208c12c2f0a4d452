"""Report plots as hand-assembled SVG.

Two figures: the error curves over the stream (displacement errors on the
left axis, restore ratio on a secondary right axis, optional base error
reference lines) and an expert weight strip where each column is one
instance and darker green means a larger weight. No plotting library is
involved; the output is plain SVG markup, so the files stay small and
byte-stable for a given report.
"""

from __future__ import annotations

import math
from html import escape

from .runtime import BaseMetrics, StreamRecord

WIDTH, HEIGHT = 860, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 64, 36, 44
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

ADE_COLOR = "#1f77b4"
FDE_COLOR = "#17355e"
RR_COLOR = "#2ca02c"
BASE_COLOR = "#888888"
STRIP_DARK = (0, 100, 0)


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _axes(title: str) -> list[str]:
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    x1, y1 = MARGIN_LEFT + PLOT_W, MARGIN_TOP + PLOT_H
    return [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{MARGIN_TOP - 14}" text-anchor="middle" '
        f'font-size="14">{escape(title, quote=False)}</text>',
    ]


def _document(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _write(path: str, body: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_document(body))


def _x_position(i: int, n: int) -> float:
    if n <= 1:
        return MARGIN_LEFT + PLOT_W / 2
    return MARGIN_LEFT + PLOT_W * i / (n - 1)


def _polyline(points: list[tuple[float, float]], color: str, css: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline class="{css}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" points="{coords}"/>')


def _tick_labels(lo: float, hi: float, x: int, anchor: str) -> list[str]:
    out = []
    for frac in (0.0, 0.5, 1.0):
        value = lo + frac * (hi - lo)
        y = MARGIN_TOP + PLOT_H * (1.0 - frac)
        out.append(f'<text x="{x}" y="{y:.0f}" text-anchor="{anchor}" '
                   f'font-size="11">{_fmt(value)}</text>')
    return out


def plot_curves(records: list[StreamRecord], path: str,
                base: BaseMetrics | None = None) -> None:
    """Displacement errors and restore ratio over the online stream."""
    body = _axes("online stream: displacement error and restore ratio")
    finite = [r for r in records
              if math.isfinite(r.ade) and math.isfinite(r.fde)]
    if not finite:
        body.append(f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
                    f'font-size="13" fill="#666666">no data</text>')
        _write(path, body)
        return

    n = len(finite)
    err_values = [r.ade for r in finite] + [r.fde for r in finite]
    if base is not None:
        err_values += [base.ade, base.fde]
    err_hi = max(err_values) * 1.05 or 1.0
    rr_values = [r.rr for r in finite if r.rr is not None and math.isfinite(r.rr)]
    rr_lo = min([0.0] + rr_values) * 1.05
    rr_span = max([0.0] + rr_values) * 1.05 - rr_lo or 1.0

    def err_y(v: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - v / err_hi)

    def rr_y(v: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - (v - rr_lo) / rr_span)

    body.append(_polyline([(_x_position(i, n), err_y(r.ade)) for i, r in enumerate(finite)],
                          ADE_COLOR, "ade"))
    body.append(_polyline([(_x_position(i, n), err_y(r.fde)) for i, r in enumerate(finite)],
                          FDE_COLOR, "fde"))
    if rr_values:
        pts = [(_x_position(i, n), rr_y(r.rr)) for i, r in enumerate(finite)
               if r.rr is not None and math.isfinite(r.rr)]
        body.append(_polyline(pts, RR_COLOR, "rr"))
        x1 = MARGIN_LEFT + PLOT_W
        body.append(f'<line x1="{x1}" y1="{MARGIN_TOP}" x2="{x1}" '
                    f'y2="{MARGIN_TOP + PLOT_H}" stroke="black"/>')
        body += _tick_labels(rr_lo, rr_lo + rr_span, x1 + 8, "start")
    if base is not None:
        for value, css in ((base.ade, "base-ade"), (base.fde, "base-fde")):
            y = err_y(value)
            body.append(f'<line class="{css}" x1="{MARGIN_LEFT}" y1="{y:.2f}" '
                        f'x2="{MARGIN_LEFT + PLOT_W}" y2="{y:.2f}" '
                        f'stroke="{BASE_COLOR}" stroke-dasharray="6 4"/>')
    body += _tick_labels(0.0, err_hi, MARGIN_LEFT - 8, "end")

    legend = [("ade", ADE_COLOR), ("fde", FDE_COLOR)]
    if rr_values:
        legend.append(("rr", RR_COLOR))
    if base is not None:
        legend.append(("base", BASE_COLOR))
    for k, (label, color) in enumerate(legend):
        lx = MARGIN_LEFT + 10 + 70 * k
        ly = MARGIN_TOP + 12
        body.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                    f'stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{lx + 23}" y="{ly + 4}" font-size="11">{label}</text>')
    _write(path, body)


def plot_expert_strip(records: list[StreamRecord], path: str) -> None:
    """Expert weights per instance; darker green marks the heavier expert."""
    body = _axes("expert weights over the stream")
    rows = [r for r in records if r.expert is not None]
    flat = [v for r in rows for v in r.expert if math.isfinite(v)]
    if not flat:
        body.append(f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
                    f'font-size="13" fill="#666666">no expert data</text>')
        _write(path, body)
        return

    layers = len(rows[0].expert)
    lo, hi = min(flat), max(flat)
    span = hi - lo if hi > lo else 1.0
    cell_w = PLOT_W / len(rows)
    cell_h = PLOT_H / layers
    for i, rec in enumerate(rows):
        for l, value in enumerate(rec.expert):
            t = (value - lo) / span if math.isfinite(value) else 0.0
            rgb = tuple(round(255 + t * (dark - 255)) for dark in STRIP_DARK)
            x = MARGIN_LEFT + cell_w * i
            # Layer 1 sits at the bottom of the strip, matching the axis.
            y = MARGIN_TOP + PLOT_H - cell_h * (l + 1)
            body.append(f'<rect class="cell" x="{x:.2f}" y="{y:.2f}" '
                        f'width="{cell_w + 0.5:.2f}" height="{cell_h:.2f}" '
                        f'fill="rgb({rgb[0]},{rgb[1]},{rgb[2]})"/>')
    for l in range(layers):
        y = MARGIN_TOP + PLOT_H - cell_h * (l + 0.5)
        body.append(f'<text x="{MARGIN_LEFT - 8}" y="{y:.0f}" text-anchor="end" '
                    f'font-size="11">e_{l + 1}</text>')
    _write(path, body)

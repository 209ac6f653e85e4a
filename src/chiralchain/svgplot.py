"""Minimal standalone SVG emission for result tables.

CSV files are the interface of record; these plots are conveniences with no
external assets or plotting dependency.  Output is deterministic for a given
table.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 45

_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd")


class PlotKind(Enum):
    LINE = "line"
    PER_SITE = "per_site"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _axis_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return list(np.linspace(lo, hi, n))


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    step = max(1, (hi_e - lo_e) // 6)
    return [10.0**e for e in range(lo_e, hi_e + 1, step)]


class _Frame:
    """Maps data coordinates onto the fixed SVG canvas."""

    def __init__(self, xs, ys, log_x: bool, log_y: bool):
        self.log_x = log_x
        self.log_y = log_y
        if log_x:
            xs = [math.log10(x) for x in xs]
        x_lo, x_hi = min(xs), max(xs)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
        if log_y:
            ys = [math.log10(y) for y in ys]
        y_lo, y_hi = min(ys), max(ys)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad_x = 0.04 * (x_hi - x_lo)
        pad_y = 0.06 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def x(self, v: float) -> float:
        if self.log_x:
            v = math.log10(v)
        span = self.x_hi - self.x_lo
        return MARGIN_L + (v - self.x_lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        if self.log_y:
            v = math.log10(v)
        span = self.y_hi - self.y_lo
        return HEIGHT - MARGIN_B - (v - self.y_lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)


def _column(table, name: str) -> list[float]:
    i = table.header.index(name)
    return [float(row[i]) for row in table.rows]


def _text_column(table, name: str) -> list[str]:
    i = table.header.index(name)
    return [str(row[i]) for row in table.rows]


def emit_plot(
    table,
    kind: PlotKind,
    x_column: str,
    y_column: str,
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render column ``y_column`` against ``x_column`` as a standalone SVG document string."""
    if not table.rows:
        raise ValueError("cannot plot an empty table")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    if kind is PlotKind.PER_SITE and "kind" in table.header:
        kinds = _text_column(table, "kind")
    else:
        kinds = [""] * len(table.rows)
    groups = {}
    for k, x, y in zip(kinds, _column(table, x_column), _column(table, y_column)):
        # A value <= 0 has no place on a log axis; its point is left out.
        if (log_x and x <= 0) or (log_y and y <= 0):
            groups.setdefault(k, [])
        else:
            groups.setdefault(k, []).append((x, y))
    points = [p for pts in groups.values() for p in pts]
    if not points:
        raise ValueError("log-scale plot requires strictly positive values")

    frame = _Frame([p[0] for p in points], [p[1] for p in points], log_x, log_y)

    # Axes.
    ax_y = HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{ax_y}" x2="{WIDTH - MARGIN_R}" y2="{ax_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{ax_y}" stroke="black"/>'
    )
    if log_x:
        x_ticks = _log_ticks(10.0**frame.x_lo, 10.0**frame.x_hi)
    else:
        x_ticks = _axis_ticks(frame.x_lo, frame.x_hi)
    for tx in x_ticks:
        px = frame.x(tx)
        if px < MARGIN_L - 1 or px > WIDTH - MARGIN_R + 1:
            continue
        parts.append(f'<line x1="{px:.2f}" y1="{ax_y}" x2="{px:.2f}" y2="{ax_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{ax_y + 18}" font-size="11" text-anchor="middle">{_fmt(tx)}</text>'
        )
    if log_y:
        y_ticks = _log_ticks(10.0**frame.y_lo, 10.0**frame.y_hi)
    else:
        y_ticks = _axis_ticks(frame.y_lo, frame.y_hi)
    for ty in y_ticks:
        py = frame.y(ty)
        if py < MARGIN_T - 1 or py > ax_y + 1:
            continue
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">{x_column}{" (log)" if log_x else ""}</text>'
    )
    parts.append(
        f'<text x="14" y="{(MARGIN_T + ax_y) / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(MARGIN_T + ax_y) / 2:.0f})">{y_column}'
        f'{" (log)" if log_y else ""}</text>'
    )

    for gi, (label, pts) in enumerate(sorted(groups.items())):
        color = _COLORS[gi % len(_COLORS)]
        pts = sorted(pts)
        if kind is PlotKind.PER_SITE:
            # Bar-style marks per cell, anchored at zero (or the axis on log scale).
            base = ax_y if log_y else min(max(frame.y(0.0), MARGIN_T), ax_y)
            for x, y in pts:
                px, py = frame.x(x), frame.y(y)
                parts.append(
                    f'<rect x="{px - 2.4:.2f}" y="{min(py, base):.2f}" width="4.8" '
                    f'height="{abs(base - py):.2f}" fill="{color}" fill-opacity="0.75"/>'
                )
        else:
            coords = " ".join(f"{frame.x(x):.2f},{frame.y(y):.2f}" for x, y in pts)
            if len(pts) > 1:
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            for x, y in pts:
                parts.append(
                    f'<circle cx="{frame.x(x):.2f}" cy="{frame.y(y):.2f}" r="3" fill="{color}"/>'
                )
        if label:
            parts.append(
                f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * gi}" font-size="12" '
                f'text-anchor="end" fill="{color}">{label}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

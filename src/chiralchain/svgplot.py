"""Minimal standalone SVG emission for result tables.

CSV files are the interface of record; these plots are conveniences with no
external assets or plotting dependency.  A table with a ``kind`` column is
drawn as one bar series per kind, any other table as one line with markers.
Each axis is one ``_Axis``, linear or log.  Output is deterministic
for a given table.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 45

_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd")


class _Axis:
    """Maps one data coordinate onto the pixel span from ``start`` to ``stop``.

    The data range is widened by 1 on each side when it is a single value,
    then padded by ``pad`` times its width on each side; a log axis works on
    log10 of the values.
    """

    def __init__(self, values, log: bool, pad: float, start: float, stop: float):
        self.log, self.start, self.stop = log, start, stop
        if log:
            values = [math.log10(v) for v in values]
        lo, hi = min(values), max(values)
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad *= hi - lo
        self.lo, self.hi = lo - pad, hi + pad
        self.span, self.pixels = self.hi - self.lo, stop - start

    def __call__(self, v: float) -> float:
        if self.log:
            v = math.log10(v)
        return self.start + (v - self.lo) / self.span * self.pixels

    def ticks(self) -> list[tuple[float, float]]:
        """(value, pixel) of each tick that lands on the axis, within one pixel."""
        if self.log:
            lo_e, hi_e = math.floor(self.lo), math.ceil(self.hi)
            step = max(1, (hi_e - lo_e) // 6)
            # A padded floor can reach below the smallest subnormal: those ticks underflow to 0 and are left out.
            values = [v for e in range(lo_e, hi_e + 1, step) if (v := 10.0**e) > 0.0]
        else:
            values = list(np.linspace(self.lo, self.hi, 5))
        first, last = sorted((self.start, self.stop))
        return [(v, p) for v in values if first - 1 <= (p := self(v)) <= last + 1]


def _column(table, name: str, convert=float) -> list:
    i = table.header.index(name)
    return [convert(row[i]) for row in table.rows]


def emit_plot(table, x_column: str, y_column: str, log_x: bool = False, log_y: bool = False) -> str:
    """Render column ``y_column`` against ``x_column`` as a standalone SVG document string."""
    if not table.rows:
        raise ValueError("cannot plot an empty table")

    bars = "kind" in table.header
    kinds = _column(table, "kind", str) if bars else [""] * len(table.rows)
    groups = {}
    for k, x, y in zip(kinds, _column(table, x_column), _column(table, y_column)):
        pts = groups.setdefault(k, [])
        # A value <= 0 has no place on a log axis; its point is left out.
        if not ((log_x and x <= 0) or (log_y and y <= 0)):
            pts.append((x, y))
    points = [p for pts in groups.values() for p in pts]
    if not points:
        raise ValueError("log-scale plot requires strictly positive values")

    ax_y = HEIGHT - MARGIN_B
    x_axis = _Axis([p[0] for p in points], log_x, 0.04, MARGIN_L, WIDTH - MARGIN_R)
    y_axis = _Axis([p[1] for p in points], log_y, 0.06, ax_y, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{ax_y}" x2="{WIDTH - MARGIN_R}" y2="{ax_y}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{ax_y}" stroke="black"/>',
    ]
    for tx, px in x_axis.ticks():
        parts.append(f'<line x1="{px:.2f}" y1="{ax_y}" x2="{px:.2f}" y2="{ax_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{ax_y + 18}" font-size="11" text-anchor="middle">{tx:.6g}</text>'
        )
    for ty, py in y_axis.ticks():
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{ty:.6g}</text>'
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
        if bars:
            # Bars anchored at zero (or the axis on log scale).
            base = ax_y if log_y else min(max(y_axis(0.0), MARGIN_T), ax_y)
            for x, y in pts:
                px, py = x_axis(x), y_axis(y)
                parts.append(
                    f'<rect x="{px - 2.4:.2f}" y="{min(py, base):.2f}" width="4.8" '
                    f'height="{abs(base - py):.2f}" fill="{color}" fill-opacity="0.75"/>'
                )
        else:
            coords = " ".join(f"{x_axis(x):.2f},{y_axis(y):.2f}" for x, y in pts)
            if len(pts) > 1:
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            for x, y in pts:
                parts.append(
                    f'<circle cx="{x_axis(x):.2f}" cy="{y_axis(y):.2f}" r="3" fill="{color}"/>'
                )
        if label:
            parts.append(
                f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * gi}" font-size="12" '
                f'text-anchor="end" fill="{color}">{label}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

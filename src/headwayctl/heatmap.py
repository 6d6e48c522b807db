"""Density heat maps as standalone SVG files (no plotting dependency).

One row per link, one cell per sim step; cell color fades green -> red with
the link's density relative to its jam density.
"""

from __future__ import annotations

import numpy as np

_GREEN = (0, 170, 0)
_RED = (220, 0, 0)

_CELL_H = 26
_LEFT = 70
_TOP = 20
_BOTTOM = 42


def _cell_color(ratio: float) -> str:
    r = min(max(float(ratio), 0.0), 1.0)
    rgb = tuple(int(round(g + (x - g) * r)) for g, x in zip(_GREEN, _RED))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def heatmap_svg(density_ratio: np.ndarray, dt_s: float) -> str:
    """Render a (links x steps) grid of jam-relative densities to SVG text."""
    grid = np.asarray(density_ratio, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("density grid must be a non-empty 2-D array (links x steps)")
    n_links, n_steps = grid.shape

    cell_w = max(2, int(round(960 / n_steps)))
    width = _LEFT + cell_w * n_steps + 20
    height = _TOP + _CELL_H * n_links + _BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for li in range(n_links):
        y = _TOP + li * _CELL_H
        parts.append(
            f'<text x="{_LEFT - 6}" y="{y + _CELL_H * 0.7:.0f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">link {li}</text>'
        )
        for ti in range(n_steps):
            x = _LEFT + ti * cell_w
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{_CELL_H}" '
                f'fill="{_cell_color(grid[li, ti])}"/>'
            )
    # Time axis in minutes.
    total_min = n_steps * dt_s / 60.0
    n_ticks = min(10, n_steps)
    axis_y = _TOP + n_links * _CELL_H
    for k in range(n_ticks + 1):
        frac = k / n_ticks
        x = _LEFT + frac * cell_w * n_steps
        minutes = frac * total_min
        parts.append(
            f'<line x1="{x:.0f}" y1="{axis_y}" x2="{x:.0f}" y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.0f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{minutes:.0f}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + cell_w * n_steps / 2:.0f}" y="{axis_y + 34}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">time (min)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Dependency-free SVG rendering of resource layouts and population
densities. Output is deterministic: fixed-precision coordinates, no
timestamps, so repeated calls return identical documents.
"""
from __future__ import annotations

import numpy as np

from .fields import ResourceField, ScalarField

PANEL_W = 800
PANEL_H = 500
MARGIN = 60

# piecewise-linear heat colormap anchors (dark blue -> teal -> yellow)
_ANCHORS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_REDS = np.array([68, 59, 33, 94, 253])
_GREENS = np.array([1, 82, 145, 201, 231])
_BLUES = np.array([84, 139, 140, 98, 37])


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    r = int(round(np.interp(t, _ANCHORS, _REDS)))
    g = int(round(np.interp(t, _ANCHORS, _GREENS)))
    b = int(round(np.interp(t, _ANCHORS, _BLUES)))
    return f"#{r:02x}{g:02x}{b:02x}"


def _polyline(xs, ys) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))


def _frame(parts: list, x0: float, y0: float, w: float, h: float) -> None:
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" fill="none" stroke="#333" stroke-width="1"/>'
    )


def _ticks_1d(parts: list, x0, y0, w, h, ymax) -> None:
    for i in range(5):
        fx = i / 4.0
        px = x0 + fx * w
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0 + h)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y0 + h + 5)}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + h + 20)}" font-size="12" '
            f'text-anchor="middle" fill="#333">{fx:g}</text>'
        )
        py = y0 + h - fx * h
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(py)}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" font-size="12" '
            f'text-anchor="end" fill="#333">{fx * ymax:.2g}</text>'
        )


def _panel_1d(parts: list, m: ResourceField, theta: np.ndarray | None) -> None:
    x0, y0 = MARGIN, MARGIN // 2
    w, h = PANEL_W - 2 * MARGIN, PANEL_H - MARGIN - MARGIN // 2
    xs = m.grid.axis_coords(0)
    vals = [m.values]
    if theta is not None:
        vals.append(theta)
    ymax = max(m.kappa, max(float(np.max(v)) for v in vals)) * 1.05
    px = x0 + xs * w

    def py(v):
        return y0 + h - (v / ymax) * h

    # shaded resource layout: filled polygon down to the x-axis
    poly = _polyline(px, py(m.values))
    parts.append(
        f'<polygon points="{_fmt(x0)},{_fmt(y0 + h)} {poly} '
        f'{_fmt(x0 + w)},{_fmt(y0 + h)}" fill="#9ecae1" fill-opacity="0.55" '
        f'stroke="#3182bd" stroke-width="1"/>'
    )
    if theta is not None:
        parts.append(
            f'<polyline points="{_polyline(px, py(theta))}" '
            f'fill="none" stroke="#d62728" stroke-width="2"/>'
        )
    _frame(parts, x0, y0, w, h)
    _ticks_1d(parts, x0, y0, w, h, ymax)
    parts.append(
        f'<text x="{_fmt(x0 + w / 2)}" y="{_fmt(y0 + h + 40)}" font-size="13" '
        f'text-anchor="middle" fill="#333">resource (shaded) and density</text>'
    )


def _panel_heat(parts: list, values: np.ndarray, grid, offset_x: float,
                label: str, vmax: float) -> None:
    ny, nx = grid.counts[1], grid.counts[0]
    field = values.reshape(ny, nx)
    x0, y0 = offset_x + MARGIN, MARGIN // 2
    w, h = PANEL_W - 2 * MARGIN, PANEL_H - MARGIN - MARGIN // 2
    cw, ch = w / nx, h / ny
    lo = float(np.min(field))
    span = max(vmax - lo, 1e-300)
    for j in range(ny):
        cy = y0 + h - (j + 1) * ch
        for i in range(nx):
            t = (field[j, i] - lo) / span
            parts.append(
                f'<rect x="{_fmt(x0 + i * cw)}" y="{_fmt(cy)}" '
                f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" '
                f'fill="{_color(t)}"/>'
            )
    _frame(parts, x0, y0, w, h)
    parts.append(
        f'<text x="{_fmt(x0 + w / 2)}" y="{_fmt(y0 + h + 25)}" font-size="13" '
        f'text-anchor="middle" fill="#333">{label}</text>'
    )


def emit_plot(m: ResourceField, theta: ScalarField | None) -> str:
    """The SVG document of a figure for a resource layout and (optionally)
    its population density theta, a field on m's grid. 1D: one 800x500 overlay
    panel. 2D: two 800x500 heatmap panels side by side (layout left,
    density right; layout only if theta is None). Raises ValueError when
    theta lives on another grid.
    """
    if theta is not None:
        if theta.grid != m.grid:
            raise ValueError("density grid does not match the layout grid")
        theta = theta.values
    parts: list[str] = []
    if m.grid.dim == 1:
        width = PANEL_W
        _panel_1d(parts, m, theta)
    else:
        panels = 1 if theta is None else 2
        width = PANEL_W * panels
        _panel_heat(parts, m.values, m.grid, 0.0, "resource layout",
                    float(np.max(m.values)))
        if theta is not None:
            _panel_heat(parts, theta, m.grid, PANEL_W, "population density",
                        float(np.max(theta)))
    body = "\n".join(parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{PANEL_H}" viewBox="0 0 {width} {PANEL_H}">\n'
        f'<rect width="{width}" height="{PANEL_H}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )

"""Static SVG rendering of 2-D sets, cuts and query points.

Exact data is converted to floats only here, at the display boundary,
after the hull's extreme vertices are picked by exact signs.
The output is a pure function of the inputs (fixed canvas, fixed float
formatting), so identical calls produce byte-identical documents.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .certificates import Certificate
from .errors import DimensionMismatchError
from .scalars import Vector
from .sets import VPolyhedron

__all__ = ["render_svg"]

_CANVAS = 640.0


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _clip_line_to_box(a1, a2, beta, box):
    """The segment of the line a1*x + a2*y = beta inside a rectangle."""
    x0, y0, x1, y1 = box
    pts = []
    if abs(a2) > 1e-12:
        for x in (x0, x1):
            y = (beta - a1 * x) / a2
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    if abs(a1) > 1e-12:
        for y in (y0, y1):
            x = (beta - a2 * y) / a1
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    unique = []
    for p in pts:
        if not any(abs(p[0] - q[0]) < 1e-9 and abs(p[1] - q[1]) < 1e-9 for q in unique):
            unique.append(p)
    if len(unique) < 2:
        return None
    unique.sort()
    return unique[0], unique[-1]


def _turn(o: Vector, a: Vector, b: Vector) -> int:
    """The exact sign of the cross product (a - o) x (b - o): +1 for a left turn."""
    return ((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])).sign()


def _extreme_vertices(vertices: Sequence[Vector]) -> list[Vector]:
    """The extreme points of conv(vertices), each once, in input order.

    Andrew's monotone chain on exact coordinates: a point stays on a
    chain only where the chain turns strictly left, so interior, repeated
    and edge-interior points drop out.
    """
    pts = sorted(set(vertices), key=tuple)
    hull: set[Vector] = set()
    for chain in (pts, pts[::-1]):
        stack: list[Vector] = []
        for p in chain:
            while len(stack) >= 2 and _turn(stack[-2], stack[-1], p) <= 0:
                stack.pop()
            stack.append(p)
        hull.update(stack)
    return [v for v in dict.fromkeys(vertices) if v in hull]


def render_svg(
    X: VPolyhedron,
    cuts: Sequence[Certificate] = (),
    point: Vector | None = None,
) -> str:
    """An SVG document: filled vertex hull, ray arrows, cut lines, point marker.

    The hull is filled through its extreme vertices only, in angular order
    around their centroid, which is also where the ray arrows start.

    The viewport is the bounding box of all drawn geometry padded by 20%.
    """
    if X.dim != 2:
        raise DimensionMismatchError("SVG rendering is 2-D only")
    if point is not None and point.dim != 2:
        raise DimensionMismatchError("query point must be 2-D")

    verts = [(float(v[0]), float(v[1])) for v in _extreme_vertices(X.vertices)]
    cx = sum(p[0] for p in verts) / len(verts)
    cy = sum(p[1] for p in verts) / len(verts)

    anchors = list(verts)
    if point is not None:
        anchors.append((float(point[0]), float(point[1])))
    extent = max(
        max(p[0] for p in anchors) - min(p[0] for p in anchors),
        max(p[1] for p in anchors) - min(p[1] for p in anchors),
        1.0,
    )
    ray_len = 0.6 * extent
    ray_segments = []
    for r in X.rays:
        rx, ry = float(r[0]), float(r[1])
        norm = math.hypot(rx, ry)
        ray_segments.append((cx, cy, cx + ray_len * rx / norm, cy + ray_len * ry / norm))
        anchors.append(ray_segments[-1][2:])

    min_x = min(p[0] for p in anchors)
    max_x = max(p[0] for p in anchors)
    min_y = min(p[1] for p in anchors)
    max_y = max(p[1] for p in anchors)
    pad = 0.2 * max(max_x - min_x, max_y - min_y, 1.0)
    min_x, max_x = min_x - pad, max_x + pad
    min_y, max_y = min_y - pad, max_y + pad
    span = max(max_x - min_x, max_y - min_y)
    scale = _CANVAS / span
    width = (max_x - min_x) * scale
    height = (max_y - min_y) * scale

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (x - min_x) * scale, (max_y - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        "<defs>"
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#555555"/>'
        "</marker>"
        "</defs>",
    ]

    hull = sorted(
        verts,
        key=lambda p: (math.atan2(p[1] - cy, p[0] - cx), p[0], p[1]),
    )
    pts_attr = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(*p) for p in hull))
    parts.append(
        f'<polygon class="set" points="{pts_attr}" '
        'fill="#9ecae1" fill-opacity="0.8" stroke="#3182bd" stroke-width="2"/>'
    )

    for x0, y0, x1, y1 in ray_segments:
        p0 = to_px(x0, y0)
        p1 = to_px(x1, y1)
        parts.append(
            f'<line class="ray" x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
            f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}" '
            'stroke="#555555" stroke-width="2" marker-end="url(#arrow)"/>'
        )

    box = (min_x, min_y, max_x, max_y)
    for cut in cuts:
        a = cut.a.as_fractions()
        seg = _clip_line_to_box(float(a[0]), float(a[1]), float(cut.beta), box)
        if seg is None:
            continue
        p0 = to_px(*seg[0])
        p1 = to_px(*seg[1])
        parts.append(
            f'<line class="cut" x1="{_fmt(p0[0])}" y1="{_fmt(p0[1])}" '
            f'x2="{_fmt(p1[0])}" y2="{_fmt(p1[1])}" '
            'stroke="#d62728" stroke-width="2" stroke-dasharray="8 4"/>'
        )

    if point is not None:
        px, py = to_px(float(point[0]), float(point[1]))
        parts.append(
            f'<circle class="query" cx="{_fmt(px)}" cy="{_fmt(py)}" '
            f'r="{_fmt(0.012 * _CANVAS)}" fill="#2ca02c" stroke="#145214" stroke-width="1.5"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

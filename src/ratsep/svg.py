"""Static SVG rendering of 2-D sets, cuts and query points.

Exact data is converted to floats only here, at the display boundary,
after the hull's extreme vertices and the drawn cuts are picked by exact
signs.
The output is a pure function of the inputs (fixed canvas, fixed float
formatting), so identical calls produce byte-identical documents.
"""

from __future__ import annotations

import math
from typing import Sequence

from .certificates import Certificate
from .errors import DimensionMismatchError
from .scalars import Vector
from .sets import VPolyhedron

__all__ = ["render_svg"]

_CANVAS = 640.0


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _turn(o: Vector, a: Vector, b: Vector) -> int:
    """The exact sign of the cross product (a - o) x (b - o): +1 for a left turn."""
    return ((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])).sign()


def _extreme_vertices(vertices: Sequence[Vector]) -> list[Vector]:
    """The extreme points of conv(vertices), each once, counterclockwise.

    Andrew's monotone chain on exact coordinates: a point stays on a
    chain only where the chain turns strictly left, so interior, repeated
    and edge-interior points drop out.  The lower chain runs left to
    right and the upper one back, and each ends where the other starts.
    """
    pts = sorted(set(vertices), key=tuple)
    hull: list[Vector] = []
    for chain in (pts, pts[::-1]):
        stack: list[Vector] = []
        for p in chain:
            while len(stack) >= 2 and _turn(stack[-2], stack[-1], p) <= 0:
                stack.pop()
            stack.append(p)
        hull += stack[:-1]
    return hull or pts


def render_svg(
    X: VPolyhedron,
    cuts: Sequence[Certificate] = (),
    point: Vector | None = None,
) -> str:
    """An SVG document: filled vertex hull, ray arrows, cut lines, point marker.

    The hull is filled through its extreme vertices only, in the
    counterclockwise order of the exact hull; the ray arrows start at
    their centroid.

    The viewport is the bounding box of all drawn geometry padded by 20%.
    A cut draws iff its line meets the closed viewport: iff its cleared
    form (``Certificate.cleared``) at the four corners, read exactly as
    integers over a power of two, is not of one strict sign.  It draws as
    one segment through the foot of the perpendicular from the viewport's
    center, reaching at least a diagonal each way, which the SVG viewport
    clips.  Each coordinate of the segment is one correctly rounded
    quotient of integers, so every positive multiple of a cut draws the
    same bytes, and a cut of any height draws or is skipped.
    """
    if X.dim != 2:
        raise DimensionMismatchError("SVG rendering is 2-D only")
    if point is not None and point.dim != 2:
        raise DimensionMismatchError("query point must be 2-D")
    if any(cut.a.dim != 2 for cut in cuts):
        raise DimensionMismatchError("cuts must be 2-D")

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

    pts_attr = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(*p) for p in verts))
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

    # the viewport's corners as integers over one power of two e; over e,
    # DX and DY are its sides, and over E = 2e, (CX, CY) is its center and
    # W its half-perimeter, which no diagonal exceeds
    ratios = [v.as_integer_ratio() for v in (min_x, min_y, max_x, max_y)]
    e = max(den for _, den in ratios)
    X0, Y0, X1, Y1 = (num * (e // den) for num, den in ratios)
    E, CX, CY, DX, DY = 2 * e, X0 + X1, Y0 + Y1, X1 - X0, Y1 - Y0
    W = 2 * (DX + DY)
    for cut in cuts:
        ((A0, _), (A1, _)), (c, _) = cut.cleared
        # over E, A.x - c is A0*CX + A1*CY - c*E at the center and that
        # -+ |A0|*DX -+ |A1|*DY at the corners, so their signs are all +1
        # or all -1 iff this is the larger
        if abs(A0 * CX + A1 * CY - c * E) > abs(A0) * DX + abs(A1) * DY:
            continue
        # over E*N, with N = |A|^2, the point (A1*t + A0*v, A1*v - A0*t) of
        # the line is the foot of the perpendicular from the center at t = r,
        # and at t = r -+ W*(|A0| + |A1|) it is W/E or more away from it;
        # each quotient's value is the same for every positive multiple of
        # the cut
        N, reach = A0 * A0 + A1 * A1, W * (abs(A0) + abs(A1))
        r, v, den = CX * A1 - CY * A0, c * E, E * N
        ends = []
        for t in (r - reach, r + reach):
            ends += to_px((A1 * t + A0 * v) / den, (A1 * v - A0 * t) / den)
        x1, y1, x2, y2 = map(_fmt, ends)
        parts.append(
            f'<line class="cut" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
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

"""Iterated separation: rational outer approximation of a pointed set.

Feeding exterior probe points to the separation oracle and collecting
the resulting halfspaces yields a rational outer polyhedron.  The loop
skips probes already excluded, so every stored cut earned its place.

The excess measure shows the paper's theorem on a 2-D grid: the share
of grid points that every cut keeps but that lie outside the set, which
can only go down as cuts accumulate.  It is counted, not sampled: on
one grid line each cut and each facet of the set bounds the point index
by an exact floor or ceiling, so a line's excess is the length of one
index range minus the length of its intersection with another, and the
cost grows with the number of lines, not of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .certificates import Certificate
from .errors import DimensionMismatchError, NotPointedError
from .scalars import Surd, Vector
from .separation import separate
from .sets import VPolyhedron, is_pointed, membership

__all__ = ["GridSpec", "OuterApprox", "outer_approximate", "excess_measure"]


@dataclass(frozen=True)
class GridSpec:
    """A rational 2-D grid: corner points and step, iterated x-major."""

    mins: tuple[Fraction, Fraction]
    maxs: tuple[Fraction, Fraction]
    step: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(Fraction(v) for v in self.mins))
        object.__setattr__(self, "maxs", tuple(Fraction(v) for v in self.maxs))
        object.__setattr__(self, "step", Fraction(self.step))
        if len(self.mins) != 2 or len(self.maxs) != 2:
            raise ValueError("grids are 2-D")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.mins[0] > self.maxs[0] or self.mins[1] > self.maxs[1]:
            raise ValueError("grid corners are out of order")

    @property
    def shape(self) -> tuple[int, int]:
        """(columns, rows): how many grid values lie along x and along y."""
        return tuple((hi - lo) // self.step + 1 for lo, hi in zip(self.mins, self.maxs))

    def points(self) -> Iterator[Vector]:
        x = self.mins[0]
        while x <= self.maxs[0]:
            y = self.mins[1]
            while y <= self.maxs[1]:
                yield Vector([x, y])
                y += self.step
            x += self.step


@dataclass(frozen=True)
class OuterApprox:
    """An ordered list of cuts, each exactly containing the target set."""

    target: VPolyhedron
    cuts: tuple[Certificate, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        for cut in self.cuts:
            if not cut.contains(self.target):
                raise ValueError("cut does not contain the target")

    def excludes(self, p: Vector) -> bool:
        return any(cut.excludes(p) for cut in self.cuts)


def outer_approximate(
    X: VPolyhedron, probes: Iterable[Vector], budget: int
) -> OuterApprox:
    """Run the separation oracle over the probes, keeping up to budget cuts.

    Probes inside X or already excluded by a stored cut are consumed
    without a new cut; otherwise a cut is generated.  The loop stops
    before a probe that would need a cut beyond the budget, so every
    consumed exterior probe ends up excluded.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if not is_pointed(X):
        raise NotPointedError("outer approximation requires a pointed set")
    cuts: list[Certificate] = []
    for p in probes:
        if membership(X, p):
            continue
        if any(cut.excludes(p) for cut in cuts):
            continue
        if len(cuts) >= budget:
            break
        cert, _ = separate(X, p)
        cuts.append(cert)
    return OuterApprox(target=X, cuts=tuple(cuts))


def excess_measure(X: VPolyhedron, approx: OuterApprox, grid: GridSpec) -> Fraction:
    """Fraction of grid points inside every cut but outside X (2-D, exact).

    The grid is counted one line at a time, each line running along the
    longer axis, so the cost grows with the shorter side.  On a grid
    column through x the points are (x, y0 + j*h) for rows j, and a
    halfspace <a, p> <= b holds at such a point iff j*B <= R, with
    B = a_y*h and R = b - a_x*x - a_y*y0: j <= floor(R/B) when B > 0,
    j >= ceil(R/B) when B < 0, and every row or none when B = 0.  The
    rows inside every cut are therefore one range, and the rows inside X
    as well, X being its facets and its equations (each one a pair of
    opposite halfspaces).  A line adds the count of the first range minus
    the count of its intersection with the second.  Every bound is an
    exact floor or ceiling of a field element, so no point is tested on
    its own and nothing is rounded.  The count does not assume that the
    cuts contain X: ``approx.target`` may be a larger set.
    """
    if X.dim != 2 or approx.target.dim != 2:
        raise DimensionMismatchError("the excess measure is 2-D only")
    shape = grid.shape
    axes = (0, 1) if shape[0] <= shape[1] else (1, 0)
    lines, length = shape[axes[0]], shape[axes[1]]
    equations, facets, _ = X.facet_description
    opposite = [(-a, -b) for a, b in equations]
    in_x = _line_bounds([*facets, *equations, *opposite], grid, axes)
    in_cuts = _line_bounds([(cut.a, cut.beta) for cut in approx.cuts], grid, axes)
    excess = 0
    for i in range(lines):
        lo, hi = _narrow(in_cuts, i, 0, length - 1)
        if lo <= hi:
            in_lo, in_hi = _narrow(in_x, i, lo, hi)
            excess += hi - lo + 1 - max(0, in_hi - in_lo + 1)
    return Fraction(excess, lines * length)


def _line_bounds(halfspaces, grid: GridSpec, axes: tuple[int, int]) -> list[tuple]:
    """Each halfspace <a, p> <= b as (sign, u, v) on the grid point p whose
    coordinate axes[0] is mins + h*i (line i) and whose coordinate axes[1]
    is mins + h*j (point j of the line): with q = u - v*i, p satisfies it
    iff j <= floor(q) (sign 1), j >= ceil(q) (sign -1), or q >= 0 (sign 0)."""
    s, t = axes
    h = grid.step
    out = []
    for a, b in halfspaces:
        a_s, a_t, b = _rational_or_surd(a[s]), _rational_or_surd(a[t]), _rational_or_surd(b)
        B = a_t * h
        u = b - a_s * grid.mins[s] - a_t * grid.mins[t]
        v = a_s * h
        if B:
            u, v = u / B, v / B
        out.append(((B > 0) - (B < 0), _rational_or_surd(u), _rational_or_surd(v)))
    return out


def _rational_or_surd(x: Surd | Fraction) -> Surd | Fraction:
    """x as a Fraction when it is rational, so rational data (every cut,
    and X over Q) stays in plain Fraction arithmetic."""
    return x.r if isinstance(x, Surd) and not x.s else x


def _narrow(bounds, i: int, lo: int, hi: int) -> tuple[int, int]:
    """The points j in lo..hi of line i that satisfy every bound; the
    range is empty when lo > hi."""
    for sign, u, v in bounds:
        q = u - v * i
        if sign > 0:
            hi = min(hi, math.floor(q))
        elif sign < 0:
            lo = max(lo, math.ceil(q))
        elif q < 0:
            return lo, lo - 1
        if lo > hi:
            break
    return lo, hi

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
cost grows with the number of lines, not of points.  Each halfspace is
cleared of the grid's and its own denominators once, into integer pairs
of Z[sqrt(k)], so every bound is one integer floor division (and one
integer square root over Q(sqrt(k))) with no Surd built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .certificates import Certificate
from .errors import DimensionMismatchError, NotPointedError
from .scalars import (
    Vector,
    _fraction,
    _pair_floor,
    _pair_mul,
    _pair_reciprocal,
    _pair_sign,
    _positive,
    _surd_parts,
)
from .separation import separate
from .sets import VPolyhedron, is_pointed, membership

__all__ = ["GridSpec", "OuterApprox", "outer_approximate", "excess_measure"]


@dataclass(frozen=True)
class GridSpec:
    """A rational 2-D grid: corner points and step, iterated x-major.

    Every number is an int or a Fraction: a float or a string raises
    TypeError.
    """

    mins: tuple[Fraction, Fraction]
    maxs: tuple[Fraction, Fraction]
    step: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(map(_fraction, self.mins)))
        object.__setattr__(self, "maxs", tuple(map(_fraction, self.maxs)))
        object.__setattr__(self, "step", _positive(self.step, "step"))
        if len(self.mins) != 2 or len(self.maxs) != 2:
            raise ValueError("grids are 2-D")
        if self.mins[0] > self.maxs[0] or self.mins[1] > self.maxs[1]:
            raise ValueError("grid corners are out of order")

    @property
    def shape(self) -> tuple[int, int]:
        """(columns, rows): how many grid values lie along x and along y,
        floor((hi - lo) / step) + 1 by one integer floor division each."""
        sn, sd = self.step.numerator, self.step.denominator
        return tuple(
            (hi.numerator * lo.denominator - lo.numerator * hi.denominator) * sd
            // (hi.denominator * lo.denominator * sn)
            + 1
            for lo, hi in zip(self.mins, self.maxs)
        )

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

    Probes already excluded by a stored cut, or else inside X, are
    consumed without a new cut; otherwise a cut is generated.  The loop stops
    before a probe that would need a cut beyond the budget, so every
    consumed exterior probe ends up excluded.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if not is_pointed(X):
        raise NotPointedError("outer approximation requires a pointed set")
    cuts: list[Certificate] = []
    for p in probes:
        # every cut contains X, so a probe that a cut excludes lies outside
        # X: testing the cuts first skips its membership test
        if any(cut.excludes(p) for cut in cuts):
            continue
        if membership(X, p):
            continue
        if len(cuts) >= budget:
            break
        cert, _ = separate(X, p)
        cuts.append(cert)
    return OuterApprox(target=X, cuts=tuple(cuts))


def excess_measure(X: VPolyhedron, approx: OuterApprox, grid: GridSpec) -> Fraction:
    """Fraction of grid points inside every cut but outside X (2-D, exact).

    The grid is counted one line at a time, each line running along the
    longer axis, so the cost grows with the shorter side.  On line i
    every halfspace, once cleared of its denominators, reads B*j <= U - V*i
    in the point index j for integer pairs B, U, V of Z[sqrt(k)]
    (``_line_bounds``): j <= floor((U - V*i)/B) when B > 0,
    j >= ceil((U - V*i)/B) when B < 0, and every point or none when
    B = 0.  The points inside every cut are therefore one range, and the
    points inside X as well, X being its facets and its equations (each
    one a pair of opposite halfspaces).  A line adds the count of the
    first range minus the count of its intersection with the second.
    Every bound is an exact floor or ceiling on integers, so no point is
    tested on its own, no Surd is built and nothing is rounded.  The
    count does not assume that the cuts contain X: ``approx.target`` may
    be a larger set.
    """
    if X.dim != 2 or approx.target.dim != 2:
        raise DimensionMismatchError("the excess measure is 2-D only")
    shape = grid.shape
    axes = (0, 1) if shape[0] <= shape[1] else (1, 0)
    lines, length = shape[axes[0]], shape[axes[1]]
    k = X.field_k
    equations, facets, _ = X.facet_description
    opposite = [(-a, -b) for a, b in equations]
    in_x = _line_bounds([*facets, *equations, *opposite], grid, axes, k)
    in_cuts = _line_bounds([(cut.a, cut.beta) for cut in approx.cuts], grid, axes, k)
    excess = 0
    for i in range(lines):
        lo, hi = _narrow(in_cuts, i, 0, length - 1, k)
        if lo <= hi:
            in_lo, in_hi = _narrow(in_x, i, lo, hi, k)
            excess += hi - lo + 1 - max(0, in_hi - in_lo + 1)
    return Fraction(excess, lines * length)


def _line_bounds(halfspaces, grid: GridSpec, axes: tuple[int, int], k: int) -> list[tuple]:
    """Each halfspace <a, p> <= b of Q(sqrt(k)) in integers, on the grid
    point p whose coordinate axes[0] is mins + h*i (line i) and whose
    coordinate axes[1] is mins + h*j (point j of the line).

    With g the least common denominator of the grid's mins and step h,
    m that of a and db that of b, multiplying by g*m*db > 0 turns the
    halfspace into B*j <= U - V*i for pairs B, U, V of Z[sqrt(k)].  When
    B != 0, (U - V*i)/B = (U*w - V*w*i)/n for 1/B = w/n with an integer
    n > 0 (``_pair_reciprocal``).  The result is (sign of B, U*w, V*w, n)
    with the pairs flat, and with q = (U*w - V*w*i)/n, p satisfies the
    halfspace iff j <= floor(q) (sign 1), j >= ceil(q) (sign -1), or
    U - V*i >= 0 (sign 0, U and V as they are, n = 0).
    """
    s, t = axes
    h, mins = grid.step, grid.mins
    g = lcm(h.denominator, mins[0].denominator, mins[1].denominator)
    H = h.numerator * (g // h.denominator)
    Ms = mins[s].numerator * (g // mins[s].denominator)
    Mt = mins[t].numerator * (g // mins[t].denominator)
    out = []
    for a, b in halfspaces:
        (sa, sb), (ta, tb) = a.pairs[s], a.pairs[t]
        ba, bb, db, _ = _surd_parts(b)
        gm, dh = g * a.m, db * H
        u = (gm * ba - db * (sa * Ms + ta * Mt), gm * bb - db * (sb * Ms + tb * Mt))
        v = (dh * sa, dh * sb)
        c = (dh * ta, dh * tb)
        sign, n = _pair_sign(c, k), 0
        if sign:
            w, n = _pair_reciprocal(c, k)
            u, v = _pair_mul(u, w, k), _pair_mul(v, w, k)
        out.append((sign, *u, *v, n))
    return out


def _narrow(bounds, i: int, lo: int, hi: int, k: int) -> tuple[int, int]:
    """The points j in lo..hi of line i that satisfy every bound of
    ``_line_bounds``; the range is empty when lo > hi."""
    for sign, ua, ub, va, vb, n in bounds:
        qa, qb = ua - va * i, ub - vb * i
        if sign > 0:
            hi = min(hi, _pair_floor((qa, qb), n, k))
        elif sign < 0:
            lo = max(lo, -_pair_floor((-qa, -qb), n, k))
        elif _pair_sign((qa, qb), k) < 0:
            return lo, lo - 1
        if lo > hi:
            break
    return lo, hi

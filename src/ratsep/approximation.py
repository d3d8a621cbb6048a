"""Iterated separation: rational outer approximation of a pointed set.

Feeding exterior probe points to the separation oracle and collecting
the resulting halfspaces yields a rational outer polyhedron.  The loop
skips probes already excluded, so every stored cut earned its place.
It tests a probe against the stored cuts newest first.  Probes that
walk a grid in order lie near the probe that made the last cut, so that
cut is the likeliest to exclude the next one; each test is exact and
has no side effect, so the order changes how many tests run but not
which probes are skipped or which cuts are made.  Each test is one
integer dot product on the cut's cleared form (``Certificate``).

The excess measure shows the paper's theorem on a 2-D grid: the share
of grid points that every cut keeps but that lie outside the set, which
can only go down as cuts accumulate.  It is counted, not sampled: on
one grid line each cut and each facet of the set bounds the point index
by an exact floor or ceiling, so a line's excess is the length of one
index range minus the length of its intersection with another, and the
cost grows with the number of lines, not of points.  Everything is on
integers.  A grid is reduced to one integer form when it is made (the
least common denominator g of its step and corner, so that every grid
coordinate is an integer over g), which its shape, its points and the
bounds all read.  A halfspace is cleared of its denominators by the
code that makes it: a set's facets and equations are rows of coprime
integer pairs of Z[sqrt(k)] (``FacetDescription``), and a cut keeps its
integer form (``Certificate.cleared``).  The excess measure only divides
each one by its coefficient along the line, once per owner object and
axis order: a set keeps the forms of its facets and equations, and an
approximation those of its cuts, each form one flat tuple of integers.
Each line reads every form straight off it: a few integer products
bound the line's integer coordinate, and two integer floor divisions
bound its point index, with one integer square root before them only
when the bound has a sqrt(k) part.  No Surd is built.  Apart from its
lines a call does little: two stored dimensions read and compared, one
lookup of each owner's kept forms, and the closing ``Fraction``; so a
sweep of one-line grids, as ``perfbench``'s ``approx_sweep`` makes,
pays mostly for its lines.
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
)
from .separation import separate
from .sets import VPolyhedron, _check_fields, is_pointed, membership

__all__ = ["GridSpec", "OuterApprox", "outer_approximate", "excess_measure"]


@dataclass(frozen=True)
class GridSpec:
    """A rational 2-D grid: corner points and step, iterated x-major.

    Every number is an int or a Fraction: a float or a string raises
    TypeError.  The grid is reduced to integers once, when it is made:
    with g the least common denominator of the step h and the two
    coordinates of ``mins``, h = H/g and ``mins`` = corner/g for an
    integer H > 0 and an integer pair corner, so grid value i along an
    axis is (corner + H*i)/g.  ``shape`` is (columns, rows), the count
    floor((max - min)/h) + 1 along x and along y, which is
    (max.num*g - corner*max.den) // (H*max.den) + 1 on integers.
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
        h = self.step
        g = lcm(h.denominator, *(lo.denominator for lo in self.mins))
        H = h.numerator * (g // h.denominator)
        corner = tuple(lo.numerator * (g // lo.denominator) for lo in self.mins)
        shape = tuple(
            (hi.numerator * g - c * hi.denominator) // (H * hi.denominator) + 1
            for c, hi in zip(corner, self.maxs)
        )
        if min(shape) < 1:
            raise ValueError("grid corners are out of order")
        object.__setattr__(self, "_lattice", (g, H, corner))
        object.__setattr__(self, "shape", shape)

    def points(self) -> Iterator[Vector]:
        g, H, (cx, cy) = self._lattice
        cols, rows = self.shape
        for i in range(cols):
            x = (cx + H * i, 0)
            for j in range(rows):
                yield Vector._make(g, (x, (cy + H * j, 0)), 1)


@dataclass(frozen=True)
class OuterApprox:
    """An ordered list of cuts, each exactly containing the target set.

    Each cut is tested on its integer form (``Certificate.cleared``):
    against the target when the approximation is made, and against a
    point by ``excludes``, newest first, as ``outer_approximate`` does.
    Like a set with its facets, it keeps its cuts' line forms per axis
    order once the excess measure has built them from those integer
    forms (``_forms``).
    """

    target: VPolyhedron
    cuts: tuple[Certificate, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        if not all(cut.contains(self.target) for cut in self.cuts):
            raise ValueError("cut does not contain the target")

    def excludes(self, p: Vector) -> bool:
        return any(cut.excludes(p) for cut in reversed(self.cuts))


def outer_approximate(
    X: VPolyhedron, probes: Iterable[Vector], budget: int
) -> OuterApprox:
    """Run the separation oracle over the probes, keeping up to budget cuts.

    Probes already excluded by a stored cut, or else inside X, are
    consumed without a new cut; otherwise a cut is generated.  The stored
    cuts are tested newest first, since the last cut is the likeliest to
    exclude the next probe of an ordered sweep; every order skips the
    same probes, so the order saves tests and leaves the cuts as they
    are.  The loop stops before a probe that would need a cut beyond the
    budget, so every consumed exterior probe ends up excluded.  A budget
    that is not an int (a bool included) raises ``TypeError``, and one
    below 1 ``ValueError``; so does a probe whose irrational field is not
    X's, wherever it stands among the probes.
    """
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise TypeError(f"budget must be an int, got {type(budget).__name__}")
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if not is_pointed(X):
        raise NotPointedError("outer approximation requires a pointed set")
    cuts: list[Certificate] = []
    for p in probes:
        # every cut contains X, so a probe that a cut excludes lies outside
        # X: testing the cuts first skips its membership test, but not the
        # field check that membership makes
        _check_fields(X, p)
        if any(cut.excludes(p) for cut in reversed(cuts)):
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
    longer axis, so the cost grows with the shorter side.  On each line
    every halfspace, cleared of its denominators by its maker, bounds the
    point index j by q/B for an integer B > 0 and a pair q of Z[sqrt(k)],
    both a few integer products of its line form (``_line_forms``) and
    the line's coordinate (``_narrow``): j <= floor(q/B) when its
    coefficient along the line is positive, j >= ceil(q/B) when that is
    negative, and every point or none when it is 0.  The points inside
    every cut are therefore one range, and the points inside X as well,
    X being its facets and its equations (each one a pair of opposite
    halfspaces).  A line adds the count of the first range minus the
    count of its intersection with the second.
    Every bound is an exact floor or ceiling on integers, so no point is
    tested on its own, no Surd is built and nothing is rounded.  The
    count does not assume that the cuts contain X: ``approx.target`` may
    be a larger set.
    """
    if X.dim != 2 or approx.target.dim != 2:
        raise DimensionMismatchError("the excess measure is 2-D only")
    g, H, (cx, cy) = grid._lattice
    cols, rows = grid.shape
    if cols <= rows:
        axes, lines, length, Ms, Mt = (0, 1), cols, rows, cx, cy
    else:
        axes, lines, length, Ms, Mt = (1, 0), rows, cols, cy, cx
    k = X.field_k
    in_x, in_cuts = _forms(X, axes), _forms(approx, axes)
    last = length - 1
    excess = 0
    for x in range(Ms, Ms + H * lines, H):
        line = (g, x, Mt, H)
        lo, hi = _narrow(in_cuts, line, 0, last, k)
        if lo <= hi:
            in_lo, in_hi = _narrow(in_x, line, lo, hi, k)
            excess += hi - lo + 1 - max(0, in_hi - in_lo + 1)
    return Fraction(excess, lines * length)


def _forms(owner: VPolyhedron | OuterApprox, axes: tuple[int, int]) -> list[tuple]:
    """The line forms (``_line_forms``) of owner's halfspaces, built once
    per owner object and axis order and kept on the owner: a set's facets
    and equations, each equation as a pair of opposite halfspaces, or an
    approximation's cuts, each the integer form its ``Certificate`` keeps
    (``cleared``).  A facet or equation (a, b) is read as it is stored:
    its parts are integers (``FacetDescription``), so a.m = 1 and b has
    the denominator 1.

    The kept forms are read with one lookup, ``owner._line_forms[axes]``;
    only a miss, the owner's first call for that axis order, builds them
    and, on the owner's first call at all, the dict that keeps them."""
    try:
        return owner._line_forms[axes]
    except (AttributeError, KeyError):
        pass
    if isinstance(owner, OuterApprox):
        made = _line_forms([cut.cleared for cut in owner.cuts], axes, 1)
    else:
        equations, facets = owner.facet_description
        rows = [*facets, *equations, *((-a, -b) for a, b in equations)]
        made = _line_forms([(a.pairs, (b.a, b.b)) for a, b in rows], axes, owner.field_k)
    vars(owner).setdefault("_line_forms", {})[axes] = made
    return made


def _line_forms(halfspaces, axes: tuple[int, int], k: int) -> list[tuple]:
    """Each halfspace <A, p> <= c of Q(sqrt(k)), given by a row A of
    integer pairs and an integer pair c, in a form that no grid enters,
    for lines along coordinate axes[1] of p.

    The halfspace is divided by its coefficient A_t along the line and
    by nothing else, its maker having cleared it of denominators.  For
    1/A_t = w/n with an integer n > 0 (``_pair_reciprocal``), so that
    A_t*w = n, the form is the flat tuple (sign, ca, cb, sa, sb, n) of
    the sign of A_t, the pair c*w = (ca, cb), the pair A_s*w = (sa, sb)
    with A_s the pair of A at axes[0], and n; when A_t = 0 it is
    (0, *c, *A_s, 0), w being 1.  ``_narrow`` reads it on each grid line.
    """
    s, t = axes
    out = []
    for A, c in halfspaces:
        sign = _pair_sign(A[t], k)
        w, n = _pair_reciprocal(A[t], k) if sign else ((1, 0), 0)
        out.append((sign, *_pair_mul(c, w, k), *_pair_mul(A[s], w, k), n))
    return out


def _narrow(forms, line: tuple[int, int, int, int], lo: int, hi: int, k: int) -> tuple[int, int]:
    """The points j in lo..hi of one grid line that satisfy every line
    form of ``_line_forms``; the range is empty when lo > hi.

    The line is (g, x, Mt, H) in the grid's integer form (``GridSpec``):
    its coordinate axes[0] is x/g, and its point j has coordinate axes[1]
    y/g for the integer y = Mt + H*j.  A flat form (sign, ca, cb, sa, sb,
    n), with c*w = (ca, cb), A_s*w = (sa, sb) and A_t*w = n > 0, stands
    for the cleared halfspace A_s*p_s + A_t*p_t <= c, which times g
    reads A_s*x + A_t*y <= g*c.  Times w, whose sign is that of A_t, it
    bounds n*y by the pair q = g*(c*w) - (A_s*w)*x of
    Z[sqrt(k)]: y <= floor(q/n) (sign 1) or y >= ceil(q/n) (sign -1), so
    j <= floor((floor(q/n) - Mt)/H) or j >= ceil((ceil(q/n) - Mt)/H),
    which equal floor((q/n - Mt)/H) and ceil((q/n - Mt)/H) since Mt and
    H > 0 are integers.  With sign 0 (A_t = 0, w = 1 and n = 0) it holds
    on the whole line iff q >= 0.  A rational q is read with integer
    floor divisions inline; only a q with a sqrt(k) part takes
    ``_pair_floor`` or ``_pair_sign``.
    """
    g, x, Mt, H = line
    for sign, ca, cb, sa, sb, n in forms:
        q, r = g * ca - sa * x, g * cb - sb * x
        if sign > 0:
            j = ((_pair_floor((q, r), n, k) if r else q // n) - Mt) // H
            if j < hi:
                hi = j
        elif sign < 0:
            j = -((Mt + (_pair_floor((-q, -r), n, k) if r else -q // n)) // H)
            if j > lo:
                lo = j
        elif (_pair_sign((q, r), k) if r else q) < 0:
            return lo, lo - 1
        if lo > hi:
            break
    return lo, hi

"""Rational halfspace certificates and independent cross-checks.

A ``Certificate`` (a, beta) asserts that the halfspace <a, x> <= beta
contains a set while excluding a query point; ``verify_certificate``
decides that claim with finitely many exact comparisons.  A certificate
is cleared of its denominators once, when it is made, and that integer
form is the only one any test of the cut reads: with a = A/m for the
integer row A of ``a.pairs`` and beta = n/q in lowest terms, a point
x = X/x.m with integer pairs X of Z[sqrt(k)] is excluded, <a, x> > beta,
iff q*<A, X> > n*m*x.m, and a direction r = R/r.m points uphill iff
q*<A, R> > 0.  So ``excludes`` is one integer dot product and one sign,
``contains`` one per vertex and ray, and neither builds a Surd, for
points and sets of any field; the excess measure of ``approximation``
and the plot of ``svg`` read the same form.  The brute-force enumerator is a deliberately dumb
2-D oracle for catching pipeline bugs, and
``rational_parallel_direction`` decides whether a halfspace with
irrational normal sits inside any rational one at all -- it does not
when the normal has no positively-parallel rational vector, which is
why pointedness (and not mere closedness) is the right hypothesis for
rational outer descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatchError
from .scalars import Vector, _fraction, _pair_sign, choose_rational_between
from .sets import VPolyhedron, support_value

__all__ = [
    "Certificate",
    "verify_certificate",
    "brute_force_separator",
    "rational_parallel_direction",
]


@dataclass(frozen=True)
class Certificate:
    """A rational halfspace {x : <a, x> <= beta} with a != 0.

    Coordinates are Fractions in lowest terms (canonical), carried as a
    rational Vector so they dot exactly against field-valued points.
    beta is an int or a Fraction: a float or a string raises TypeError.

    ``cleared`` is the cut's one integer form (see the module docstring),
    worked out once at construction and neither compared nor shown: for
    a = A/a.m and beta = n/q it is the row q*A and the bound n*a.m as
    integer pairs (rational, so every sqrt(k) part is 0).
    """

    a: Vector
    beta: Fraction
    cleared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.a.is_rational:
            raise ValueError("certificate normal must be rational")
        if self.a.is_zero():
            raise ValueError("certificate normal must be nonzero")
        beta = _fraction(self.beta)
        object.__setattr__(self, "beta", beta)
        normal = tuple((beta.denominator * A, 0) for A, _ in self.a.pairs)
        object.__setattr__(self, "cleared", (normal, (beta.numerator * self.a.m, 0)))

    def contains(self, X: VPolyhedron) -> bool:
        """Whether X lies in the halfspace, one sign of ``cleared`` per
        vertex and ray."""
        rows = [(r.pairs, 0) for r in X.rays] + [(v.pairs, v.m) for v in X.vertices]
        return all(self._side(x, m, X.field_k) <= 0 for x, m in rows)

    def excludes(self, p: Vector) -> bool:
        """Whether p violates the cut strictly, <a, p> > beta, one sign of
        ``cleared``."""
        return self._side(p.pairs, p.m, p.field_k) > 0

    def _side(self, pairs, m: int, k: int) -> int:
        """The sign of q*<A, X> - n*a.m*m in Q(sqrt(k)) for integer pairs
        X: for a point X/m, whether the cut keeps it (<= 0) or not, and
        with m = 0, whether a direction X points uphill (> 0).  A row of
        another length raises ``DimensionMismatchError``."""
        normal, (offset, _) = self.cleared
        if len(pairs) != len(normal):
            raise DimensionMismatchError(f"dimension mismatch: {len(normal)} vs {len(pairs)}")
        a, b = -offset * m, 0
        for (c, _), (xa, xb) in zip(normal, pairs):
            a, b = a + c * xa, b + c * xb
        return _pair_sign((a, b), k)


def verify_certificate(X: VPolyhedron, y_tilde: Vector, cert: Certificate) -> bool:
    """Exact check: the cut contains X and the query point violates it strictly."""
    if X.dim != y_tilde.dim or X.dim != cert.a.dim:
        raise DimensionMismatchError("certificate, set and point must share a dimension")
    return cert.contains(X) and cert.excludes(y_tilde)


def _height_fractions(h: int) -> list[Fraction]:
    """Canonical fractions p/q with max(|p|, q) == h, descending."""
    vals = set()
    for p in range(-h, h + 1):
        if gcd(abs(p), h) == 1:
            vals.add(Fraction(p, h))
    for q in range(1, h):
        if gcd(h, q) == 1:
            vals.add(Fraction(h, q))
            vals.add(Fraction(-h, q))
    return sorted(vals, reverse=True)


def _direction_pairs(max_den: int):
    """All pairs of bounded canonical fractions, by height then descending.

    Height of p/q is max(|p|, q); a pair's height is the max of its
    coordinates' heights.  Pairs stream in ascending height classes; in
    each class, pairs whose first coordinate realizes the height come
    first.  Every bounded pair appears exactly once, so exhausting the
    stream is an exhaustive scan.
    """
    below: list[Fraction] = []
    for h in range(1, max_den + 1):
        exact = _height_fractions(h)
        upto = sorted(below + exact, reverse=True)
        for x in exact:
            for y in upto:
                yield x, y
        for x in below:
            for y in exact:
                yield x, y
        below = upto


def _direction_key(a1: Fraction, a2: Fraction) -> tuple[int, int]:
    u = a1.numerator * a2.denominator
    v = a2.numerator * a1.denominator
    g = gcd(abs(u), abs(v))
    return (u // g, v // g)


def brute_force_separator(
    X: VPolyhedron, y_tilde: Vector, max_den: int
) -> Certificate | None:
    """Enumerate bounded rational normals until one separates (2-D only).

    Scans every a in Q^2 with |numerators| and denominators at most
    max_den (order documented in ``_direction_pairs``), returning the
    first a with finite support value sigma_X(a) < <a, y_tilde>, paired
    with a strictly-between rational bound.  Positive rescalings of an
    already-tested direction are skipped, since separation is invariant
    under them.  Returns None when no bounded normal separates.  A
    max_den that is not an int (a bool included) raises ``TypeError``,
    and one below 1 ``ValueError``.
    """
    if X.dim != 2 or y_tilde.dim != 2:
        raise DimensionMismatchError("the brute-force oracle is 2-D only")
    if not isinstance(max_den, int) or isinstance(max_den, bool):
        raise TypeError(f"max_den must be an int, got {type(max_den).__name__}")
    if max_den < 1:
        raise ValueError("max_den must be a positive integer")
    seen: set[tuple[int, int]] = set()
    for a1, a2 in _direction_pairs(max_den):
        if a1 == 0 and a2 == 0:
            continue
        key = _direction_key(a1, a2)
        if key in seen:
            continue
        seen.add(key)
        a = Vector([a1, a2])
        sv = support_value(X, a)
        if not sv.is_finite:
            continue
        rhs = a.dot(y_tilde)
        if (rhs - sv.value).sign() > 0:
            return Certificate(a, choose_rational_between(sv.value, rhs))
    return None


def rational_parallel_direction(a: Vector) -> Vector | None:
    """A rational c = mu * a with mu > 0, or None when none exists.

    Normalizing by the first nonzero coordinate makes every entry a
    ratio a_j / a_i0, which is rational exactly when the coordinates
    are pairwise rationally dependent.  It is decided on the integer
    pairs, with no division in the field: for the first nonzero pair p,
    a pair (x, y) is a rational multiple of p iff x*p[1] == y*p[0], and
    the ratio is x/p[0], or y/p[1] when p[0] == 0.  The halfspace
    {<a, x> <= beta} is contained in some rational closed halfspace iff
    such a c exists, because halfspace containment forces positively
    parallel normals.
    """
    if a.is_zero():
        raise ValueError("direction must be nonzero")
    pa, pb = p = next(x for x in a.pairs if x != (0, 0))
    if any(x * pb != y * pa for x, y in a.pairs):
        return None
    c = Vector([Fraction(x, pa) if pa else Fraction(y, pb) for x, y in a.pairs])
    return -c if _pair_sign(p, a.field_k) < 0 else c

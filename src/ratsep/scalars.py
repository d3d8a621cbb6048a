"""Exact scalars for geometry over a fixed real quadratic field.

Every number the library computes with is either a rational
(``fractions.Fraction``) or a ``Surd`` ``r + s*sqrt(k)`` with square-free
``k``, so every ordering question is settled by an exact sign
determination and nothing is ever rounded; ``math.floor`` and
``math.ceil`` of a ``Surd`` are exact too, by integer square roots.
``k`` is checked once, where it enters: the public ``Surd``
constructor, ``Surd.root`` and the JSON parser, which also bounds it by
``serialization.MAX_FIELD_K``.
Arithmetic results inherit the already-checked ``k`` of their operands,
ints and Fractions enter as rationals without that check, and
``Surd._k_with`` is the one rule for combining two fields.  A ``Vector``
applies it once, when it is built, and carries the result as ``field_k``.
Square roots of field elements usually fall outside the field;
``sqrt_enclosure`` brackets them between rationals whenever a bound is
all that is needed, and ``rational_in_ball`` / ``choose_rational_between``
produce exact rational witnesses inside open regions, which is how
irrational data gets turned into rational certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
from typing import Iterable, Iterator, Union

from .errors import SeparationBugError

Rationalish = Union[int, Fraction]

_Q0 = Fraction(0)

__all__ = [
    "Surd",
    "QInterval",
    "Vector",
    "sqrt_convergents",
    "sqrt_enclosure",
    "point_in_ball",
    "rational_in_ball",
    "choose_rational_between",
]


def _fraction(x: Rationalish) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _is_square_free(k: int) -> bool:
    """True iff k > 0 has no square factor > 1, in O(k**(1/3)) divisions.

    Trial division strips every prime d with d**3 <= m off the cofactor m.
    Every prime factor of what is left exceeds its cube root, so the
    remainder is 1, p, p*q or p**2, and only p**2 is a perfect square.
    """
    if k <= 0:
        return False
    m = k
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
        d += 1
    root = isqrt(m)
    return m == 1 or root * root != m


@total_ordering
class Surd:
    """An element ``r + s*sqrt(k)`` of the real quadratic field Q(sqrt(k)).

    ``k`` must be a positive square-free integer; the constructor and
    ``root`` check it, and arithmetic results inherit the checked ``k``
    of their operands without checking it again.  ``s == 0`` (or
    ``k == 1``) means the value is plain rational and the triple is
    canonicalized to ``(r, 0, 1)``, so two Surds are equal iff their
    canonical triples agree.  Instances are immutable by convention and
    hashable; arithmetic accepts ints and Fractions.  Combining two
    values with different irrational parts (different ``k > 1``) raises
    ``ValueError`` -- one quadratic extension per computation.
    """

    __slots__ = ("r", "s", "k")

    def __init__(self, r: Rationalish = 0, s: Rationalish = 0, k: int = 1):
        r = _fraction(r)
        s = _fraction(s)
        if not isinstance(k, int):
            raise TypeError("k must be an int")
        if k != 1 and not _is_square_free(k):
            raise ValueError(f"k must be positive and square-free, got {k}")
        if s == 0 or k == 1:
            r, s, k = r + s, Fraction(0), 1
        self.r = r
        self.s = s
        self.k = k

    @classmethod
    def _make(cls, r: Fraction, s: Fraction, k: int) -> "Surd":
        """``r + s*sqrt(k)`` from Fractions and an already-checked ``k``,
        canonicalized as in ``__init__``: the constructor of arithmetic
        results."""
        x = object.__new__(cls)
        if not s:
            x.r, x.s, x.k = r, s, 1
        elif k == 1:
            x.r, x.s, x.k = r + s, Fraction(0), 1
        else:
            x.r, x.s, x.k = r, s, k
        return x

    @classmethod
    def root(cls, k: int) -> "Surd":
        """sqrt(k) as a field element."""
        return cls(0, 1, k)

    # -- classification ------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.s == 0

    def as_fraction(self) -> Fraction:
        if self.s != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.r

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Mixed-sign cases compare r**2 against s**2 * k, which decides
        |r| vs |s|*sqrt(k) without leaving the rationals.
        """
        rs = (self.r > 0) - (self.r < 0)
        ss = (self.s > 0) - (self.s < 0)
        if ss == 0:
            return rs
        if rs == 0:
            return ss
        if rs == ss:
            return rs
        d = self.r * self.r - self.s * self.s * self.k
        cmp = (d > 0) - (d < 0)
        if cmp == 0:
            return 0
        return rs if cmp > 0 else ss

    # -- coercion ------------------------------------------------------

    @classmethod
    def _coerce(cls, x) -> "Surd | None":
        """x as a Surd (ints and Fractions embed unchecked), or None."""
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Fraction)):
            return cls._make(_fraction(x), _Q0, 1)
        return None

    @classmethod
    def _of(cls, x) -> "Surd":
        """``_coerce`` for operands that must be numbers: ``TypeError`` otherwise."""
        s = cls._coerce(x)
        if s is None:
            raise TypeError(f"expected int, Fraction or Surd, got {type(x).__name__}")
        return s

    @staticmethod
    def _k_with(k1: int, k2: int) -> int:
        """The one field holding Q(sqrt(k1)) and Q(sqrt(k2))."""
        if k1 == k2 or k2 == 1:
            return k1
        if k1 == 1:
            return k2
        raise ValueError(f"cannot mix sqrt({k1}) and sqrt({k2}) exactly")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Surd._make(self.r + o.r, self.s + o.s, Surd._k_with(self.k, o.k))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Surd._make(self.r - o.r, self.s - o.s, Surd._k_with(self.k, o.k))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Surd._make(-self.r, -self.s, self.k)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = Surd._k_with(self.k, o.k)
        return Surd._make(self.r * o.r + self.s * o.s * k, self.r * o.s + self.s * o.r, k)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        if self.s == 0:
            if self.r == 0:
                raise ZeroDivisionError("inverse of zero")
            return Surd._make(1 / self.r, self.s, 1)
        # (r - s*sqrt(k)) / (r^2 - s^2 k); the denominator is nonzero
        # because sqrt(k) is irrational for square-free k > 1.
        den = self.r * self.r - self.s * self.s * self.k
        return Surd._make(self.r / den, -self.s / den, self.k)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.r == o.r and self.s == o.s and self.k == o.k

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        if self.s == 0:
            return hash(self.r)
        return hash((self.r, self.s, self.k))

    def __bool__(self):
        return self.r != 0 or self.s != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rounding ------------------------------------------------------

    def __floor__(self) -> int:
        """The largest integer <= self, from integer square roots alone.

        With self = (A + B*sqrt(k)) / D for integers A, B and D > 0,
        floor(self) = (A + floor(B*sqrt(k))) // D, and floor(B*sqrt(k)) is
        isqrt(B*B*k) when B >= 0 and -ceil(|B|*sqrt(k)) when B < 0.
        """
        if not self.s:
            return self.r.numerator // self.r.denominator
        d = lcm(self.r.denominator, self.s.denominator)
        a = self.r.numerator * (d // self.r.denominator)
        b = self.s.numerator * (d // self.s.denominator)
        sq = b * b * self.k
        root = isqrt(sq)
        if b < 0:
            root = -(root + (root * root != sq))
        return (a + root) // d

    def __ceil__(self) -> int:
        """The smallest integer >= self, exactly: -floor(-self)."""
        return -(-self).__floor__()

    # -- misc ----------------------------------------------------------

    def __float__(self):
        return float(self.r) + float(self.s) * math.sqrt(self.k)

    def __repr__(self):
        if self.s == 0:
            return f"Surd({self.r})"
        return f"Surd({self.r}, {self.s}, {self.k})"

    def __str__(self):
        if self.s == 0:
            return str(self.r)
        return f"{self.r}{'+' if self.s >= 0 else ''}{self.s}*sqrt({self.k})"


@dataclass(frozen=True)
class QInterval:
    """A rational interval [lo, hi] enclosing some real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _fraction(self.lo))
        object.__setattr__(self, "hi", _fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Surd | Rationalish) -> bool:
        v = Surd._coerce(value)
        return (v - self.lo).sign() >= 0 and (self.hi - v).sign() >= 0


class Vector:
    """A point or direction with Surd coordinates sharing one field.

    Rational coordinates embed in any Q(sqrt(k)); two coordinates with
    different irrational parts are rejected.  The shared field is worked
    out once, here, and kept as ``field_k`` (1 for a rational vector).
    """

    __slots__ = ("coords", "field_k")

    def __init__(self, coords: Iterable[Surd | Rationalish]):
        self.coords = tuple(map(Surd._of, coords))
        if not self.coords:
            raise ValueError("a vector needs at least one coordinate")
        k = 1
        for c in self.coords:
            if c.k != k:
                k = Surd._k_with(k, c.k)
        self.field_k = k

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([Fraction(0)] * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_rational(self) -> bool:
        return all(c.s == 0 for c in self.coords)

    def as_fractions(self) -> tuple[Fraction, ...]:
        return tuple(c.as_fraction() for c in self.coords)

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    # -- container protocol --------------------------------------------

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Vector({', '.join(str(c) for c in self.coords)})"

    # -- linear structure ----------------------------------------------

    def _check_dim(self, other: "Vector"):
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_dim(other)
        return Vector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_dim(other)
        return Vector([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Vector([-c for c in self.coords])

    def __mul__(self, scalar):
        s = Surd._coerce(scalar)
        if s is None:
            return NotImplemented
        return Vector([c * s for c in self.coords])

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> Surd:
        """Sum of a_i*b_i; the rational and sqrt(k) parts accumulate as
        Fractions and one Surd is built at the end.  Raises ``ValueError``
        when the two vectors use different irrational fields."""
        self._check_dim(other)
        k = Surd._k_with(self.field_k, other.field_k)
        r = s = Fraction(0)
        for a, b in zip(self.coords, other.coords):
            r += a.r * b.r
            if a.s:
                if b.s:
                    r += a.s * b.s * k
                s += a.s * b.r
            if b.s:
                s += a.r * b.s
        return Surd._make(r, s, k)

    def norm_sq(self) -> Surd:
        return self.dot(self)


# -- rational enclosures and witnesses ----------------------------------


def sqrt_convergents(k: int) -> Iterator[Fraction]:
    """Continued-fraction convergents of sqrt(k) for square-free k > 1.

    Successive convergents p/q satisfy |p/q - sqrt(k)| < 1/q**2 and
    alternate sides, so they reach any positive tolerance.
    """
    if k <= 1 or not _is_square_free(k):
        raise ValueError(f"need square-free k > 1, got {k}")
    a0 = isqrt(k)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    q_prev, q = 0, 1
    while True:
        yield Fraction(h, q)
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev


def sqrt_enclosure(x: Surd | Rationalish, tol: Rationalish) -> QInterval:
    """A rational interval [lo, hi] with lo**2 <= x <= hi**2, hi - lo <= tol.

    Perfect squares of rationals are returned exactly.  Otherwise the
    enclosure is the dyadic interval [n/2**j, (n + 1)/2**j] for the
    smallest j >= 0 with 2**-j <= tol, where
    n = floor(sqrt(x) * 2**j) = isqrt(floor(x * 4**j)) by the exact
    ``Surd.__floor__``.  Deterministic in (x, tol).
    """
    x = Surd._coerce(x)
    tol = _fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    sgn = x.sign()
    if sgn < 0:
        raise ValueError(f"cannot enclose the square root of the negative {x}")
    if sgn == 0:
        return QInterval(Fraction(0), Fraction(0))
    if x.is_rational:
        f = x.as_fraction()
        rn, rd = isqrt(f.numerator), isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            root = Fraction(rn, rd)
            return QInterval(root, root)
    # 2**j >= 1/tol iff 2**j >= ceil(1/tol), the integer -(-q // p)
    j = (-(-tol.denominator // tol.numerator) - 1).bit_length()
    n = isqrt(math.floor(x * 4**j))
    return QInterval(Fraction(n, 2**j), Fraction(n + 1, 2**j))


def point_in_ball(p: Vector, center: Vector, radius: Rationalish) -> bool:
    """Exact closed-ball membership via squared distance."""
    gap = p - center
    radius = _fraction(radius)
    return (gap.norm_sq() - radius * radius).sign() <= 0


def rational_in_ball(center: Vector, radius: Rationalish) -> Vector:
    """A rational point q with ||q - center|| <= radius, verified exactly.

    Each coordinate c is replaced by ``choose_rational_between(c - b,
    c + b)`` for the per-coordinate budget b = min(radius/(2n), radius**2):
    c itself when rational, else r + s*w for the first continued-fraction
    convergent w of sqrt(k) within b of c = r + s*sqrt(k).  The closing
    check ||q - center||**2 <= radius**2 is an exact Surd comparison.
    Deterministic in (center, radius).
    """
    radius = _fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if center.is_rational:
        return center
    n = center.dim
    budget = min(radius / (2 * n), radius * radius)
    q = Vector(choose_rational_between(c - budget, c + budget) for c in center.coords)
    if not point_in_ball(q, center, radius):
        raise SeparationBugError("per-coordinate budgets failed to cover the ball")
    return q


def choose_rational_between(lo: Surd | Rationalish, hi: Surd | Rationalish) -> Fraction:
    """A rational strictly between lo and hi, both checked exactly.

    The midpoint is returned when it is rational; otherwise the
    midpoint's sqrt(k) part is walked through continued-fraction
    convergents until the resulting rational falls strictly inside.
    Deterministic in (lo, hi).
    """
    lo = Surd._coerce(lo)
    hi = Surd._coerce(hi)
    if (hi - lo).sign() <= 0:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    mid = (lo + hi) * Fraction(1, 2)
    if mid.is_rational:
        return mid.as_fraction()
    for w in sqrt_convergents(mid.k):
        cand = mid.r + mid.s * w
        if (cand - lo).sign() > 0 and (hi - cand).sign() > 0:
            return cand
    raise AssertionError("unreachable: convergents converge to the midpoint")

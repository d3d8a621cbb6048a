"""Exact scalars for geometry over a fixed real quadratic field.

Every number the library computes with is either a rational
(``fractions.Fraction``) or a ``Surd``, an element ``(a + b*sqrt(k)) / d``
of Q(sqrt(k)) held as integers a, b, d and a square-free ``k``, so every
ordering question is settled by an exact sign determination on integers
and nothing is ever rounded; ``math.floor`` and ``math.ceil`` of a
``Surd`` are exact too, by one integer square root.  Every Surd is kept
in one canonical form (Cohen, "A Course in Computational Algebraic
Number Theory", 1993, section 5.1), so equality and hashing compare
integers.  ``k`` is checked where it enters, by ``_check_field``: the
public ``Surd`` constructor and ``Surd.root`` check it on every call, and
the JSON parser, which first bounds it by ``serialization.MAX_FIELD_K``,
checks each distinct k once per parsed document.
Arithmetic results inherit the already-checked ``k`` of their operands,
ints and Fractions enter as rationals without that check, and
``Surd._k_with`` is the one rule for combining two fields.  A ``Vector``
applies it once, when it is built, and carries the result as ``field_k``.
Square roots of field elements usually fall outside the field;
``sqrt_enclosure`` brackets them between rationals whenever a bound is
all that is needed, and ``rational_in_ball`` / ``choose_rational_between``
produce exact rational witnesses inside open regions, which is how
irrational data gets turned into rational certificates.

The exact kernels (the pivot of ``linalg``, and Wolfe's Gram systems
and the double description of ``sets``) compute with integer pairs
(a, b), meaning a + b*sqrt(k) in Z[sqrt(k)], and ``Vector`` stores them:
a row of ints, Fractions and Surds enters scaled by the lcm of their
denominators, with no Surd built, signs are read off integers, exact
divisions are checked, and a pair over a denominator is a Surd again.
``_surd_parts`` is the one reader of a single number into integers, and
the ``Vector`` constructor, built on it, the one reader of a row, which
reads a ``Vector`` through its coordinates like any other row.  A
``Vector`` keeps its coordinates as one such row over its least
denominator, so sums, scalings and dot products build no Surd per
coordinate, and a sign of <u, v> read off ``_pair_dot`` builds none at
all.
The pair helpers live here, beside ``Surd``, which reads its own sign
with ``_pair_sign`` and its floor with ``_pair_floor``.  One reader of a
positive rational argument, ``_positive``, is behind every "must be
positive" check of a tolerance, radius, bound or grid step; like every
reader of an exact rational, it takes an int or a Fraction and raises
``TypeError`` for a bool.

Two private kernels turn field elements into rationals, each written
once on integers and shared by every caller.  ``_sqrt_bounds``, the
enclosure kernel, brackets sqrt((a + b*sqrt(k))/d) by n/2**j and
(n + 1)/2**j, or returns it exactly when it is rational.
``_rational_between``, the rounding kernel, picks a rational strictly
between two field elements given as integers, by a continued-fraction
walk that ends by a proven bound.  Both return integers and build no
Surd and no Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Union

from .errors import DimensionMismatchError, SeparationBugError

Rationalish = Union[int, Fraction]

__all__ = [
    "Surd",
    "Vector",
    "sqrt_enclosure",
    "point_in_ball",
    "rational_in_ball",
    "choose_rational_between",
]


def _fraction(x: Rationalish) -> Fraction:
    """x as a Fraction; ``TypeError`` unless x is an int or a Fraction,
    and for a bool, which is an int that no caller means as a number."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _positive(x: Rationalish, what: str) -> Fraction:
    """x as a Fraction, checked to be positive: ``ValueError`` "<what> must
    be positive" otherwise.  A Fraction's denominator is positive, so the
    sign is its numerator's, read with no Fraction comparison."""
    x = _fraction(x)
    if x.numerator <= 0:
        raise ValueError(f"{what} must be positive")
    return x


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


def _check_field(k: int) -> None:
    """Raise ``ValueError`` unless the int k is 1 or positive and square-free."""
    if k != 1 and not _is_square_free(k):
        raise ValueError(f"k must be positive and square-free, got {k}")


@total_ordering
class Surd:
    """An element ``(a + b*sqrt(k)) / d`` of the real quadratic field Q(sqrt(k)).

    ``a``, ``b`` and ``d`` are integers and ``k`` is a positive
    square-free integer; the constructor and ``root`` check ``k``, and
    arithmetic results inherit the checked ``k`` of their operands without
    checking it again.  Every value is kept in one canonical form:
    ``d > 0``, ``gcd(a, b, d) == 1``, and ``b == 0`` (a rational value)
    implies ``k == 1``.  So two Surds are equal iff a, b, d and k agree,
    and a rational Surd hashes like its Fraction.  ``r`` and ``s`` are
    the rational and sqrt(k) parts as Fractions.  Instances are immutable
    by convention and hashable; arithmetic accepts ints and Fractions.
    Combining two values with different irrational parts (different
    ``k > 1``) raises ``ValueError`` -- one quadratic extension per
    computation.
    """

    __slots__ = ("a", "b", "d", "k")

    def __init__(self, r: Rationalish = 0, s: Rationalish = 0, k: int = 1):
        r = _fraction(r)
        s = _fraction(s)
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError(f"k must be an int, got {type(k).__name__}")
        _check_field(k)
        p, q = r.denominator, s.denominator
        self._set(r.numerator * q, s.numerator * p, p * q, k)

    def _set(self, a: int, b: int, d: int, k: int) -> "Surd":
        """Store ``(a + b*sqrt(k)) / d``, d != 0, in the canonical form."""
        if not b or k == 1:
            a, b, k = a + b, 0, 1
        g = gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d, self.k = a, b, d, k
        return self

    @classmethod
    def _make(cls, a: int, b: int, d: int, k: int) -> "Surd":
        """``(a + b*sqrt(k)) / d`` from integers and an already-checked
        ``k``: the constructor of arithmetic results and of the JSON
        parser, which checks each k once per document."""
        return object.__new__(cls)._set(a, b, d, k)

    @classmethod
    def root(cls, k: int) -> "Surd":
        """sqrt(k) as a field element."""
        return cls(0, 1, k)

    # -- classification ------------------------------------------------

    @property
    def r(self) -> Fraction:
        """The rational part."""
        return Fraction(self.a, self.d)

    @property
    def s(self) -> Fraction:
        """The coefficient of sqrt(k)."""
        return Fraction(self.b, self.d)

    @property
    def is_rational(self) -> bool:
        return not self.b

    def as_fraction(self) -> Fraction:
        if self.b:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.a, self.d)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}: that of a + b*sqrt(k), as d > 0."""
        return _pair_sign((self.a, self.b), self.k)

    # -- coercion ------------------------------------------------------

    @classmethod
    def _coerce(cls, x) -> "Surd | None":
        """x as a Surd (ints and Fractions embed unchecked), or None."""
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Fraction)):
            return cls._make(x.numerator, 0, x.denominator, 1)
        return None

    @staticmethod
    def _k_with(k1: int, k2: int) -> int:
        """The one field holding Q(sqrt(k1)) and Q(sqrt(k2))."""
        if k1 == k2 or k2 == 1:
            return k1
        if k1 == 1:
            return k2
        raise ValueError(f"cannot mix sqrt({k1}) and sqrt({k2}) exactly")

    # -- arithmetic ----------------------------------------------------

    def _signed_sum(self, other, sign: int):
        """self + sign*other over the product of the two denominators, for
        sign 1 or -1; ``NotImplemented`` when other is not a number."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = Surd._k_with(self.k, o.k)
        t = sign * self.d
        return Surd._make(self.a * o.d + o.a * t, self.b * o.d + o.b * t, self.d * o.d, k)

    def __add__(self, other):
        return self._signed_sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._signed_sum(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Surd._make(-self.a, -self.b, self.d, self.k)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = Surd._k_with(self.k, o.k)
        a, b = _pair_mul((self.a, self.b), (o.a, o.b), k)
        return Surd._make(a, b, self.d * o.d, k)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        """d / (a + b*sqrt(k)) = d*(a - b*sqrt(k)) / (a**2 - b**2*k), the
        conjugate over the norm from ``_pair_reciprocal``; the norm is
        nonzero because sqrt(k) is irrational for square-free k > 1."""
        if not (self.a or self.b):
            raise ZeroDivisionError("inverse of zero")
        (wa, wb), n = _pair_reciprocal((self.a, self.b), self.k)
        return Surd._make(self.d * wa, self.d * wb, n, self.k)

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
        return self.a == o.a and self.b == o.b and self.d == o.d and self.k == o.k

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        if not self.b:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d, self.k))

    def __bool__(self):
        return bool(self.a or self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rounding ------------------------------------------------------

    def __floor__(self) -> int:
        """The largest integer <= self, exactly (``_pair_floor``)."""
        return _pair_floor((self.a, self.b), self.d, self.k)

    def __ceil__(self) -> int:
        """The smallest integer >= self, exactly: -floor(-self)."""
        return -_pair_floor((-self.a, -self.b), self.d, self.k)

    # -- misc ----------------------------------------------------------

    def __float__(self):
        return self.a / self.d + self.b / self.d * math.sqrt(self.k)

    def __repr__(self):
        if not self.b:
            return f"Surd({self.r})"
        return f"Surd({self.r}, {self.s}, {self.k})"

    def __str__(self):
        if not self.b:
            return str(self.r)
        return f"{self.r}{'+' if self.b >= 0 else ''}{self.s}*sqrt({self.k})"


# -- integer pairs (a, b) = a + b*sqrt(k) in Z[sqrt(k)] ------------------


def _surd_parts(x) -> tuple[int, int, int, int]:
    """(a, b, d, k) with x = (a + b*sqrt(k)) / d and d > 0, for an int,
    Fraction or Surd x; ``TypeError`` for anything else, a bool included,
    as in ``_fraction``."""
    if isinstance(x, Surd):
        return x.a, x.b, x.d, x.k
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x.numerator, 0, x.denominator, 1
    raise TypeError(f"expected int, Fraction or Surd, got {type(x).__name__}")


def _pair_sign(x: tuple[int, int], k: int) -> int:
    """The exact sign of a + b*sqrt(k) in {-1, 0, +1}.

    When a and b have opposite signs, a*a against b*b*k decides |a| vs
    |b|*sqrt(k) without leaving the integers.
    """
    a, b = x
    sa = (a > 0) - (a < 0)
    if not b:
        return sa
    sb = 1 if b > 0 else -1
    if sa == 0 or sa == sb:
        return sb
    d = a * a - b * b * k
    return sa if d > 0 else sb if d < 0 else 0


def _pair_floor(x: tuple[int, int], d: int, k: int) -> int:
    """floor((a + b*sqrt(k)) / d) for d > 0, from one integer square root.

    It is (a + floor(b*sqrt(k))) // d.  For b != 0, b*sqrt(k) is
    irrational (k > 1 square-free), so its floor is isqrt(b*b*k) when
    b > 0 and -isqrt(b*b*k) - 1 when b < 0.
    """
    a, b = x
    if b:
        root = isqrt(b * b * k)
        a += root if b > 0 else -root - 1
    return a // d


def _pair_mul(x: tuple[int, int], y: tuple[int, int], k: int) -> tuple[int, int]:
    a, b = x
    c, d = y
    return a * c + b * d * k, a * d + b * c


def _pair_reciprocal(c: tuple[int, int], k: int) -> tuple[tuple[int, int], int]:
    """(w, n) with 1/c = w/n for a nonzero pair c and an integer n > 0: w
    is the conjugate of c and n its norm a*a - b*b*k, both negated when
    the norm is negative; over Q, w = (+-1, 0) and n = |c|."""
    a, b = c
    if b:
        n, w = a * a - b * b * k, (a, -b)
    else:
        n, w = a, (1, 0)
    return (w, n) if n > 0 else ((-w[0], -w[1]), -n)


def _pair_dot(u, v, k: int) -> tuple[int, int]:
    """The dot product of two vectors of pairs."""
    a = b = 0
    for (ua, ub), (va, vb) in zip(u, v):
        a += ua * va + ub * vb * k
        b += ua * vb + ub * va
    return a, b


def _pair_distance_sq(U, um: int, V, vm: int, k: int) -> tuple[int, int]:
    """||U/um - V/vm||**2 for vectors of pairs U, V and positive integers
    um, vm, as a pair over (um*vm)**2: <W, W> for W = vm*U - um*V, summed
    as W's pairs are made, with no vector of W built."""
    a = b = 0
    for (s, t), (u, w) in zip(U, V):
        wa, wb = vm * s - um * u, vm * t - um * w
        a += wa * wa + wb * wb * k
        b += 2 * wa * wb
    return a, b


def _pair_combination(x, u, y, v, k: int) -> list[tuple[int, int]]:
    """x*u - y*v for pairs x, y and vectors of pairs u, v."""
    xa, xb = x
    ya, yb = y
    return [
        (xa * ua - ya * va + (xb * ub - yb * vb) * k, xa * ub + xb * ua - ya * vb - yb * va)
        for (ua, ub), (va, vb) in zip(u, v)
    ]


def _pair_primitive(v, k: int):
    """The one vector on the ray of a nonzero vector of pairs v whose first
    nonzero coordinate is rational and whose parts are coprime integers:
    v times the conjugate of that coordinate, negated when the conjugate
    is negative, over the gcd of all its parts.  Two positive multiples
    of a vector with a rational first nonzero coordinate differ by a
    rational factor, so any positive multiple of v gives the same result."""
    a, b = next(x for x in v if x != (0, 0))
    s = _pair_sign((a, -b), k)
    v = [_pair_mul(x, (s * a, -s * b), k) for x in v] if b else v
    g = gcd(*(q for x in v for q in x))
    return v if g == 1 else [(a // g, b // g) for a, b in v]


class Vector:
    """A point or direction with coordinates in one field Q(sqrt(k)).

    A vector is stored as ``pairs`` over one denominator ``m``: the least
    positive integer m that puts every coordinate times m in Z[sqrt(k)],
    the lcm of the coordinates' ``d``, and the integer pairs (a, b) of
    those scaled coordinates, a + b*sqrt(k) each.  ``field_k`` is the one
    field of the coordinates, 1 exactly when every b is 0.  Rational
    coordinates embed in any Q(sqrt(k)); two coordinates with different
    irrational parts are rejected.  As m is least, the form is canonical
    (the gcd of m and every a and b is 1), so equality and hashing compare
    integers, and sums, differences, scalings and dot products run on
    the pairs with no Surd built per coordinate.  The pairs are all a
    vector stores: ``coords``, iteration and indexing build the
    coordinates as Surds from them on each read.
    """

    __slots__ = ("m", "pairs", "field_k")

    def __init__(self, coords: Iterable[Surd | Rationalish]):
        """The vector of ``coords``, ints, Fractions and Surds, each read by
        ``_surd_parts``, so any other entry raises ``TypeError``; two
        different irrational fields raise ``ValueError``."""
        parts = list(map(_surd_parts, coords))
        if not parts:
            raise ValueError("a vector needs at least one coordinate")
        k = m = 1
        for _, _, d, vk in parts:
            if vk != 1:
                k = Surd._k_with(k, vk)
            if d != 1:
                m = lcm(m, d)
        self.m, self.field_k = m, k
        self.pairs = tuple((a * (m // d), b * (m // d)) for a, b, d, _ in parts)

    @classmethod
    def _make(cls, m: int, pairs, k: int) -> "Vector":
        """The vector pairs/m, for m > 0 and an already-checked ``k``, in
        the canonical form: divided by the gcd of m and every part, and
        over Q when no sqrt(k) part is left."""
        if m != 1:
            g = m
            for a, b in pairs:
                g = gcd(g, a, b)
                if g == 1:
                    break
            if g != 1:
                m //= g
                pairs = [(a // g, b // g) for a, b in pairs]
        if k != 1 and not any(b for _, b in pairs):
            k = 1
        x = object.__new__(cls)
        x.m, x.pairs, x.field_k = m, tuple(pairs), k
        return x

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        """The zero vector of dimension dim >= 1, built as dim zero pairs
        over 1 (``_make``), with no Fraction read; ``TypeError`` unless dim
        is an int, and for a bool."""
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"dim must be an int, got {type(dim).__name__}")
        if dim < 1:
            raise ValueError("a vector needs at least one coordinate")
        return cls._make(1, [(0, 0)] * dim, 1)

    @property
    def coords(self) -> tuple[Surd, ...]:
        """The coordinates as Surds, built from the pairs."""
        m, k = self.m, self.field_k
        return tuple(Surd._make(a, b, m, k) for a, b in self.pairs)

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @property
    def is_rational(self) -> bool:
        return self.field_k == 1

    def as_fractions(self) -> tuple[Fraction, ...]:
        if self.field_k != 1:
            raise ValueError(f"{self!r} is irrational")
        return tuple(Fraction(a, self.m) for a, _ in self.pairs)

    def is_zero(self) -> bool:
        return not any(a or b for a, b in self.pairs)

    # -- container protocol --------------------------------------------

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.m == other.m and self.field_k == other.field_k and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.m, self.pairs, self.field_k))

    def __repr__(self):
        return f"Vector({', '.join(str(c) for c in self.coords)})"

    # -- linear structure ----------------------------------------------

    def _check_dim(self, other: "Vector"):
        if len(self.pairs) != len(other.pairs):
            raise DimensionMismatchError(
                f"dimension mismatch: {len(self.pairs)} vs {len(other.pairs)}"
            )

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self._combine(other, -1)

    def _combine(self, other: "Vector", sign: int) -> "Vector":
        """self + sign*other over the lcm of the two denominators."""
        self._check_dim(other)
        k = Surd._k_with(self.field_k, other.field_k)
        m, n = self.m, other.m
        l = m if m == n else lcm(m, n)
        s, t = l // m, sign * (l // n)
        return Vector._make(
            l, [(a * s + c * t, b * s + e * t) for (a, b), (c, e) in zip(self.pairs, other.pairs)], k
        )

    def __neg__(self):
        return Vector._make(self.m, [(-a, -b) for a, b in self.pairs], self.field_k)

    def __mul__(self, scalar):
        try:
            a, b, d, k = _surd_parts(scalar)
        except TypeError:
            return NotImplemented
        k = Surd._k_with(self.field_k, k)
        return Vector._make(self.m * d, [_pair_mul(p, (a, b), k) for p in self.pairs], k)

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> Surd:
        """Sum of a_i*b_i: the dot product of the two vectors' pairs over
        the product of their denominators, one Surd built at the end.
        Raises ``ValueError`` when the two vectors use different
        irrational fields."""
        self._check_dim(other)
        k = Surd._k_with(self.field_k, other.field_k)
        a, b = _pair_dot(self.pairs, other.pairs, k)
        return Surd._make(a, b, self.m * other.m, k)


# -- rational enclosures and witnesses ----------------------------------


def _convergents(k: int) -> Iterator[tuple[int, int]]:
    """The continued-fraction convergents h/q of sqrt(k) for an
    already-checked square-free k > 1, as coprime integers h and q > 0.
    Successive convergents satisfy |h/q - sqrt(k)| < 1/q**2 and alternate
    sides, so they reach any positive tolerance."""
    a0 = isqrt(k)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    q_prev, q = 0, 1
    while True:
        yield h, q
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev


def _dyadic_exponent(tol: Fraction) -> int:
    """The smallest j >= 0 with 2**-j <= tol, for tol > 0: 2**j >= 1/tol
    iff 2**j >= ceil(1/tol), the integer -(-q // p)."""
    return (-(-tol.denominator // tol.numerator) - 1).bit_length()


def _sqrt_bounds(a: int, b: int, d: int, k: int, j: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo/den <= sqrt(x) <= hi/den for x = (a + b*sqrt(k))/d,
    x >= 0 and d > 0: the enclosure kernel.

    When x is the square of a rational r/s, that is when b = 0 and a/d in
    lowest terms is r**2/s**2, it is (r, r, s), whatever form (a, d) the
    caller holds.  Otherwise it is the dyadic interval (n, n + 1, 2**j) for
    n = floor(sqrt(x) * 2**j) = isqrt(floor(x * 4**j)), the floor being
    ``_pair_floor`` of the pair (a*4**j, b*4**j) over d.  Integers only.
    """
    if not b:
        g = gcd(a, d)
        a, d = a // g, d // g
        rn, rd = isqrt(a), isqrt(d)
        if rn * rn == a and rd * rd == d:
            return rn, rn, rd
    n = isqrt(_pair_floor((a << 2 * j, b << 2 * j), d, k))
    return n, n + 1, 1 << j


def sqrt_enclosure(x: Surd | Rationalish, tol: Rationalish) -> tuple[Fraction, Fraction]:
    """Rationals (lo, hi) with lo**2 <= x <= hi**2 and hi - lo <= tol.

    Perfect squares of rationals are returned exactly, as (r, r).
    Otherwise the enclosure is the dyadic interval [n/2**j, (n + 1)/2**j]
    for the smallest j >= 0 with 2**-j <= tol, where
    n = floor(sqrt(x) * 2**j).  Both come from ``_sqrt_bounds``, the one
    enclosure kernel; this function only checks x and tol and finds j.
    Deterministic in (x, tol).
    """
    a, b, d, k = _surd_parts(x)
    tol = _positive(tol, "tol")
    if _pair_sign((a, b), k) < 0:
        raise ValueError(f"cannot enclose the square root of the negative {x}")
    lo, hi, den = _sqrt_bounds(a, b, d, k, _dyadic_exponent(tol))
    return Fraction(lo, den), Fraction(hi, den)


def point_in_ball(p: Vector, center: Vector, radius: Rationalish) -> bool:
    """Exact closed-ball membership via squared distance.  A ball of
    radius 0 is its center alone, and a negative radius, which would
    read as its absolute value in the square, raises ``ValueError``.

    For radius = r/s, ||p - center||**2 is the pair (a, b) over
    (p.m*center.m)**2 (``_pair_distance_sq``), so p lies in the ball iff
    the pair s**2*(a, b) - r**2*(p.m*center.m)**2 has sign <= 0: no
    difference Vector, Surd or Fraction square is built.  Points of two
    dimensions raise ``DimensionMismatchError``, two irrational fields
    ``ValueError``.
    """
    radius = _fraction(radius)
    r, s = radius.numerator, radius.denominator
    if r < 0:
        raise ValueError("radius must be nonnegative")
    p._check_dim(center)
    k = Surd._k_with(p.field_k, center.field_k)
    a, b = _pair_distance_sq(p.pairs, p.m, center.pairs, center.m, k)
    m = p.m * center.m
    return _pair_sign((s * s * a - r * r * m * m, s * s * b), k) <= 0


def rational_in_ball(center: Vector, radius: Rationalish) -> Vector:
    """A rational point q with ||q - center|| <= radius, verified exactly.

    A rational center is returned as it is.  Otherwise each coordinate
    x = (a + b*sqrt(k))/m = r + s*sqrt(k) is replaced by a rational
    strictly between x - p/q and x + p/q for the per-coordinate budget
    p/q = min(radius/(2n), radius**2), taken for radius = u/v by cross
    multiplication as u/(2n*v) when v <= 2n*u, else u**2/v**2: the
    rounding kernel ``_rational_between`` (the one behind
    ``choose_rational_between``) runs on the integer ends (a*q - p*m, b*q)
    and (a*q + p*m, b*q) over m*q, with no Surd built, and returns x
    itself when x is rational, else r + s*w for the first
    continued-fraction convergent w of sqrt(k) that lands inside.  The
    kernel reads only the values of the ends, so p/q need not be in
    lowest terms.  The point is one ``Vector._make`` of the kernel's
    (num, den) over the lcm of the dens.  The closing check
    ``point_in_ball`` is an exact sign.  Deterministic in (center, radius).
    """
    radius = _positive(radius, "radius")
    if center.is_rational:
        return center
    u, v = radius.numerator, radius.denominator
    n2 = 2 * len(center.pairs)
    p, q = (u, n2 * v) if v <= n2 * u else (u * u, v * v)
    m, k = center.m, center.field_k
    den, step = m * q, p * m
    coords = [
        _rational_between(a * q - step, b * q, den, a * q + step, b * q, den, k)
        for a, b in center.pairs
    ]
    lcd = lcm(*(d for _, d in coords))
    point = Vector._make(lcd, [(c * (lcd // d), 0) for c, d in coords], 1)
    if not point_in_ball(point, center, radius):
        raise SeparationBugError("per-coordinate budgets failed to cover the ball")
    return point


def choose_rational_between(lo: Surd | Rationalish, hi: Surd | Rationalish) -> Fraction:
    """A rational strictly between lo and hi, both checked exactly.

    The midpoint is returned when it is rational; otherwise the
    midpoint's sqrt(k) part is walked through continued-fraction
    convergents until the resulting rational falls strictly inside.
    Deterministic in (lo, hi).  This function reads the integers of lo
    and hi and hands them to ``_rational_between``, the one rounding
    kernel, and builds one Fraction from its integers.  Raises
    ``ValueError`` unless lo < hi.
    """
    la, lb, ld, lk = _surd_parts(lo)
    ha, hb, hd, hk = _surd_parts(hi)
    return Fraction(*_rational_between(la, lb, ld, ha, hb, hd, Surd._k_with(lk, hk)))


def _rational_between(
    la: int, lb: int, ld: int, ha: int, hb: int, hd: int, k: int
) -> tuple[int, int]:
    """The rational of ``choose_rational_between`` for lo = (la + lb*sqrt(k))/ld
    and hi = (ha + hb*sqrt(k))/hd with ld, hd > 0, as integers (num, den)
    with den > 0, not reduced: the rounding kernel.

    It first checks lo < hi, as the sign of (hi - lo)*ld*hd =
    Wa + Wb*sqrt(k), and raises ``ValueError`` otherwise, so no walk
    starts that could not end.  The midpoint is (A + B*sqrt(k))/E for
    A = la*hd + ha*ld, B = lb*hd + hb*ld and E = 2*ld*hd; it is returned
    when B = 0.  Else the candidate for a convergent h/q of sqrt(k) is (A*q + B*h)/(E*q),
    and each side is decided by one ``_pair_sign`` of cross-multiplied
    integers.  The result's value depends only on the values of lo and
    hi, and no Fraction is built: each caller builds at most one, from
    these integers or from what it computes with them.

    The walk is bounded.  Every convergent has |h/q - sqrt(k)| < 1/q**2,
    so the candidate is within |B|/(E*q**2) of the midpoint, strictly
    inside once q**2 * E * w >= |B| for the half-width
    w = (hi - lo)/2 = (Wa + Wb*sqrt(k))/E, that is once
    q**2 * (Wa + Wb*sqrt(k)) - |B| >= 0, one exact pair sign.  A
    candidate that misses past that point means a fault in the sign
    tests, and raises ``SeparationBugError`` instead of walking on.
    """
    Wa, Wb = ha * ld - la * hd, hb * ld - lb * hd
    if _pair_sign((Wa, Wb), k) <= 0:
        lo, hi = Surd._make(la, lb, ld, k), Surd._make(ha, hb, hd, k)
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    A, B, E = la * hd + ha * ld, lb * hd + hb * ld, 2 * ld * hd
    if not B:
        return A, E
    for h, q in _convergents(k):
        num, den = A * q + B * h, E * q
        if (
            _pair_sign((num * ld - la * den, -lb * den), k) > 0
            and _pair_sign((ha * den - num * hd, hb * den), k) > 0
        ):
            return num, den
        qq = q * q
        if _pair_sign((qq * Wa - abs(B), qq * Wb), k) >= 0:
            raise SeparationBugError(
                f"convergent {h}/{q} of sqrt({k}) is within the half-width of the midpoint"
                " but missed the interval"
            )
    raise AssertionError("unreachable: convergents converge to the midpoint")

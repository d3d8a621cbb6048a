import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, strategies as st

import ratsep.scalars
from ratsep import (
    Certificate,
    DimensionMismatchError,
    GridSpec,
    SeparationBugError,
    Surd,
    Vector,
    VPolyhedron,
    separate,
    support_value,
)
from ratsep.scalars import (
    MAX_FIELD_K,
    _convergents,
    _is_square_free,
    choose_rational_between,
    point_in_ball,
    rational_in_ball,
    sqrt_enclosure,
)
from helpers import (
    as_fraction,
    bisection_enclosure,
    forbid_floats,
    moved_by_hand,
    point_in_apex_hull,
    surd_choose_rational_between,
    surd_convergents,
    surd_rational_in_ball,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
field_ks = st.sampled_from([1, 2, 3, 5])


@st.composite
def surd_triples(draw):
    k = draw(field_ks)
    return tuple(Surd(draw(rationals), draw(rationals), k) for _ in range(3))


# -- Surd construction and sign ------------------------------------------


def test_sign_examples():
    assert Surd(0, 0, 2).sign() == 0
    assert Surd(-1, 1, 2).sign() == 1  # sqrt(2) > 1
    assert Surd(3, -2, 2).sign() == 1  # 3 > 2*sqrt(2)
    assert Surd(-3, 2, 2).sign() == -1
    assert Surd(F(1, 2)).sign() == 1


def test_canonicalization():
    assert Surd(1, 2, 1) == Surd(3)
    assert Surd(5, 0, 7).k == 1
    assert Surd(F(1, 2), F(0), 3) == F(1, 2)


@pytest.mark.parametrize("k", [0, -2, 4, 12, 18])
def test_square_free_validation(k):
    with pytest.raises(ValueError):
        Surd(1, 1, k)


@pytest.mark.parametrize("k", [0, -7, 4, 12])
def test_rational_value_still_needs_a_valid_k(k):
    with pytest.raises(ValueError):
        Surd(1, 0, k)


def test_the_constructor_bounds_k_before_its_square_free_test(monkeypatch):
    def fail(k):
        raise AssertionError(f"square-free test run on k={k}")

    monkeypatch.setattr(ratsep.scalars, "_is_square_free", fail)
    for k in (MAX_FIELD_K + 1, 10**40 + 1):
        for make in (Surd.root, lambda k: Surd(0, 1, k)):
            with pytest.raises(ValueError, match="at most") as caught:
                make(k)
            assert str(k) not in str(caught.value)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(ValueError):
        Surd(0, 1, 2) * Surd(0, 1, 5)


def test_rational_embeds_in_any_field():
    assert Surd(2) + Surd(0, 1, 2) == Surd(2, 1, 2)
    assert (Surd(0, 1, 3) * 2) == Surd(0, 2, 3)


def test_sign_is_exact_near_ties():
    # 99/70 is a hair above sqrt(2): (99/70)^2 = 9801/4900 > 2
    assert (Surd(F(99, 70)) - Surd.root(2)).sign() == 1
    assert (Surd(F(140, 99)) - Surd.root(2)).sign() == -1


@given(surd_triples())
def test_field_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(surd_triples())
def test_multiplicative_inverse(triple):
    a, _, _ = triple
    assume(a.sign() != 0)
    assert a * a.inverse() == 1
    assert (a / a) == 1


@given(surd_triples())
def test_sign_multiplicative(triple):
    a, b, _ = triple
    assert (a * b).sign() == a.sign() * b.sign()


@given(surd_triples())
def test_order_consistency(triple):
    a, b, _ = triple
    assert (a < b) == ((a - b).sign() < 0)
    assert (a == b) == ((a - b).sign() == 0)
    assert abs(a).sign() >= 0


def test_rational_hash_matches_fraction():
    assert hash(Surd(F(3, 4))) == hash(F(3, 4))
    assert Surd(F(3, 4)) == F(3, 4)


# -- the arithmetic kernel against the checked constructor ----------------

kernel_ks = st.sampled_from([1, 2, 3, 5, 1000003])


def assert_same_surd(x, expected):
    assert (x.r, x.s, x.k) == (expected.r, expected.s, expected.k)
    assert type(x.r) is F and type(x.s) is F
    assert all(type(n) is int for n in (x.a, x.b, x.d, x.k))
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1 and (x.b or x.k == 1)
    assert x == expected and hash(x) == hash(expected)
    if expected.s == 0:
        assert x.k == 1 and x == expected.r and hash(x) == hash(expected.r)


@given(kernel_ks, rationals, rationals, rationals, rationals)
def test_arithmetic_matches_checked_constructor(k, ar, as_, br, bs):
    a, b = Surd(ar, as_, k), Surd(br, bs, k)
    assert_same_surd(a + b, Surd(ar + br, as_ + bs, k))
    assert_same_surd(a - b, Surd(ar - br, as_ - bs, k))
    assert_same_surd(-a, Surd(-ar, -as_, k))
    assert_same_surd(a * b, Surd(ar * br + as_ * bs * k, ar * bs + as_ * br, k))
    n = ar * ar - as_ * as_ * k
    assume(n != 0)
    assert_same_surd(a.inverse(), Surd(ar / n, -as_ / n, k))
    assert_same_surd(b / a, Surd((br * ar - bs * as_ * k) / n, (bs * ar - br * as_) / n, k))


def reference_dot(u, v):
    total = Surd(0)
    for a, b in zip(u, v):
        total = total + a * b
    return total


@st.composite
def vector_pairs(draw):
    k = draw(kernel_ks)
    dim = draw(st.integers(1, 4))
    coord = st.builds(
        lambda r, s, irrational: Surd(r, s if irrational else 0, k),
        rationals,
        rationals,
        st.booleans(),
    )
    return tuple(Vector(draw(st.lists(coord, min_size=dim, max_size=dim))) for _ in range(2))


@given(vector_pairs())
def test_dot_matches_reference_loop(pair):
    u, v = pair
    assert_same_surd(u.dot(v), reference_dot(u, v))
    assert_same_surd(u.dot(u), reference_dot(u, u))


def test_dot_across_two_fields_raises():
    with pytest.raises(ValueError):
        Vector([Surd.root(2), 1]).dot(Vector([Surd.root(3), 1]))
    with pytest.raises(ValueError):
        Vector([Surd.root(2), 0]).dot(Vector([0, Surd.root(3)]))


def reference_is_square_free(k):
    if k <= 0:
        return False
    d = 2
    while d * d <= k:
        if k % (d * d) == 0:
            return False
        d += 1
    return True


def test_square_free_matches_trial_division_below_1e5():
    is_square_free = ratsep.scalars._is_square_free
    assert all(is_square_free(k) == reference_is_square_free(k) for k in range(-3, 10**5))


@pytest.mark.parametrize(
    "k, expected",
    [
        (999983, True),
        (1000003, True),
        (999983**2, False),
        (1000003**2, False),
        (999983 * 1000003, True),
        (999983 * 1000003**2, False),
        (1000003 * 999983**2, False),
        (7 * 999983 * 1000003, True),
    ],
)
def test_square_free_large_prime_products(k, expected):
    assert ratsep.scalars._is_square_free(k) is expected


def test_arithmetic_does_not_recheck_k(monkeypatch):
    k = 1000003
    a, b = Surd(F(1, 3), F(2, 5), k), Surd(F(-3, 7), F(1, 2), k)
    u, v = Vector([a, 1, b]), Vector([b, Surd.root(k), F(1, 2)])
    calls = []
    real = ratsep.scalars._is_square_free
    monkeypatch.setattr(ratsep.scalars, "_is_square_free", lambda n: calls.append(n) or real(n))
    x = (a + b) * (a - b) / a - b.inverse() + (-a) * 3
    y = u.dot(v) + v.dot(v) + (u + v).dot(u * a)
    z = choose_rational_between(a, a + F(1, 100))
    assert x.k == k and y.k == k and a < z < a + F(1, 100)
    assert calls == []


def mixed_operations(a, q):
    """a and q with a Surd on either side of + - * / == <."""
    return [a + q, q + a, a - q, q - a, a * q, q * a, a / q, q / a, a == q, q == a, a < q, q < a]


def rational_operand_results(surds, rationals):
    """Library calls that take int or Fraction operands next to Surds."""
    center = Vector([surds[0], F(1, 3)])
    triangle = VPolyhedron((Vector([0, 0]), Vector([surds[0] + 1, 0]), Vector([0, 1])))
    cut = Certificate(Vector([1, F(1, 2)]), F(3, 2))
    grid = GridSpec((F(-1), 0), (1, F(1, 2)), F(1, 2))
    return [
        [mixed_operations(a, q) for a in surds for q in rationals],
        sqrt_enclosure(surds[0] + 4, F(1, 64)),
        Vector([3, F(-1, 2), 0]),
        list(grid.points()),
        [(cut.contains(X), cut.excludes(p)) for X in (triangle, moved_by_hand(triangle, center))
         for p in (center, Vector([1, 1]))],
        point_in_ball(Vector([1, F(1, 2)]), center, F(7, 4)),
        rational_in_ball(center, F(1, 10)),
        choose_rational_between(surds[0], surds[0] + F(1, 100)),
        [point_in_apex_hull(p, Vector([0, 0]), center, F(1, 4)) for p in (center, Vector([0, 1]))],
        separate(triangle, Vector([1, 1])),
        separate(VPolyhedron((center,), (Vector([1, surds[0]]), Vector([0, 1]))), Vector([0, 0])),
    ]


def test_rational_operands_skip_the_checked_constructor(monkeypatch):
    surds = (Surd(F(1, 3), F(-2, 5), 2), Surd(F(-7, 4)), Surd(5))
    rationals = (3, -1, F(5, 6), F(-1, 2))
    before = rational_operand_results(surds, rationals)
    assert before[0] == [mixed_operations(a, Surd(q)) for a in surds for q in rationals]
    calls = []
    init = Surd.__init__
    monkeypatch.setattr(Surd, "__init__", lambda x, *args: calls.append(args) or init(x, *args))
    assert rational_operand_results(surds, rationals) == before
    assert calls == []


# -- floor and ceiling ----------------------------------------------------

big_rationals = st.one_of(
    rationals,
    st.integers(-(2**80), 2**80).map(F),
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(2**64, 2**80)),
)


@given(st.sampled_from([1, 2, 3, 1000003]), big_rationals, big_rationals)
@example(2, F(2**70 + 1, 3**45), F(-(2**65), 7))
@example(1000003, F(-(2**66)), F(2**65 + 3, 2**64 + 1))
@example(3, F(-5), F(0))
def test_floor_and_ceil_bracket_the_value(k, r, s):
    x = Surd(r, s, k)
    with forbid_floats():
        n, m = math.floor(x), math.ceil(x)
    assert type(n) is int and type(m) is int
    assert (x - n).sign() >= 0 and (x - (n + 1)).sign() < 0
    assert (m - x).sign() >= 0 and (m - 1 - x).sign() < 0
    assert (m == n) == (x.is_rational and x.r.denominator == 1)


# -- sqrt_enclosure --------------------------------------------------------


def test_sqrt_enclosure_perfect_square():
    assert sqrt_enclosure(Surd(4), F(1)) == (F(2), F(2))
    assert sqrt_enclosure(F(9, 16), F(1, 100)) == (F(3, 4), F(3, 4))


def test_enclosure_kernel_finds_squares_in_unreduced_forms():
    # a/d need not be in lowest terms: 2/8 = (1/2)**2 and 18/8 = (3/2)**2
    assert ratsep.scalars._sqrt_bounds(2, 0, 8, 1, 5) == (1, 1, 2)
    assert ratsep.scalars._sqrt_bounds(18, 0, 8, 2, 5) == (3, 3, 2)
    assert ratsep.scalars._sqrt_bounds(0, 0, 7, 1, 5) == (0, 0, 1)
    assert ratsep.scalars._sqrt_bounds(4, 0, 8, 1, 5) == (22, 23, 32)  # 1/2 is no square


def test_sqrt_enclosure_zero():
    assert sqrt_enclosure(Surd(0), F(1, 10)) == (F(0), F(0))


def test_sqrt_enclosure_negative_rejected():
    with pytest.raises(ValueError):
        sqrt_enclosure(Surd(-1), F(1, 10))


def test_sqrt_enclosure_of_two():
    # deterministic bisection output from bracket [1, 2]
    lo, hi = sqrt_enclosure(Surd(2), F(1, 10))
    assert (lo, hi) == (F(11, 8), F(23, 16))
    assert type(lo) is F and type(hi) is F
    assert lo ** 2 <= 2 <= hi ** 2
    assert hi - lo <= F(1, 10)


@given(surd_triples(), st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64))
def test_sqrt_enclosure_contract(triple, tol):
    x = triple[0] * triple[0]  # guaranteed nonnegative field element
    lo, hi = sqrt_enclosure(x, tol)
    assert lo >= 0
    assert (x - Surd(lo * lo)).sign() >= 0
    assert (Surd(hi * hi) - x).sign() >= 0
    assert hi - lo <= tol
    assert sqrt_enclosure(x, tol) == (lo, hi)  # deterministic


@st.composite
def nonnegative_field_elements(draw):
    """Nonnegative elements of Q(sqrt(k)): general ones, squares of field
    elements, rational perfect squares and zero."""
    k = draw(st.sampled_from([1, 2, 3, 1000003]))
    kind = draw(st.sampled_from(["general", "field square", "rational square", "zero"]))
    if kind == "zero":
        return Surd(0)
    if kind == "rational square":
        return Surd(draw(big_rationals) ** 2)
    x = Surd(draw(big_rationals), draw(big_rationals), k)
    return x * x if kind == "field square" else abs(x)


enclosure_tols = st.one_of(
    st.integers(0, 80).map(lambda j: F(1, 2**j)),
    st.fractions(min_value=F(1, 10**9), max_value=1, max_denominator=10**9),
    st.fractions(min_value=1, max_value=8, max_denominator=7),
)


@given(nonnegative_field_elements(), enclosure_tols)
@example(Surd(F(7, 2)), F(1))  # floor(x) + 1 is a perfect square
@example(Surd(4, F(-1, 1000), 2), F(3))  # the same, irrational, tol >= 1
@example(Surd(F(9, 16)), F(1, 3))
@example(Surd(F(2**79 + 1, 2**64 + 3), 1, 3), F(1, 2**40))
def test_sqrt_enclosure_matches_bisection(x, tol):
    with forbid_floats():
        lo, hi = sqrt_enclosure(x, tol)
        assert (lo, hi) == bisection_enclosure(x, tol)
    assert (x - lo * lo).sign() >= 0
    assert (hi * hi - x).sign() >= 0
    assert hi - lo <= tol


# the checked entry points of a positive rational, each with the name its
# message gives: a tolerance, a radius and a grid step
POSITIVE_ENTRIES = {
    "tol": lambda x: sqrt_enclosure(2, x),
    "radius": lambda x: rational_in_ball(Vector([Surd.root(2), 0]), x),
    "step": lambda x: GridSpec((0, 0), (1, 1), x),
}


@pytest.mark.parametrize(
    "bad", [0, -3, F(-1, 7)], ids=["zero", "negative int", "negative Fraction"]
)
@pytest.mark.parametrize("what", POSITIVE_ENTRIES)
def test_positive_checks_reject_zero_and_negatives_alike(what, bad):
    with pytest.raises(ValueError, match=f"^{what} must be positive$"):
        POSITIVE_ENTRIES[what](bad)
    assert POSITIVE_ENTRIES[what](F(1, 10**30)) is not None


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: GridSpec((0, 0), (1, 1), x),
        lambda x: Certificate(Vector([1, 0]), x),
        lambda x: sqrt_enclosure(2, x),
        lambda x: sqrt_enclosure(x, 1),
        lambda x: Vector([x, 0]),
        lambda x: choose_rational_between(x, 2),
        lambda x: Surd(0, 1, x),
        lambda x: Surd.root(x),
    ],
    ids=[
        "grid step", "certificate beta", "enclosure tol", "enclosure radicand",
        "vector coordinate", "rounding bound", "field k", "root",
    ],
)
def test_a_bool_is_not_a_rational(call, flag):
    # True is an int equal to 1, which none of these means as a number
    with pytest.raises(TypeError, match="got bool"):
        call(flag)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.lt],
    ids=["+", "-", "*", "/", "<"],
)
def test_surd_arithmetic_with_a_bool_raises(op, flag):
    # Surd reads an operand with _surd_parts, which takes no bool
    for x in (Surd(2), Surd(1, 1, 2)):
        with pytest.raises(TypeError, match="'bool'"):
            op(x, flag)
        with pytest.raises(TypeError, match="'bool'"):
            op(flag, x)
    assert (Surd(1) == True) is False and (Surd(0) == False) is False  # noqa: E712


# -- rational_in_ball ------------------------------------------------------


def test_point_in_ball_is_closed_and_exact():
    origin = Vector([0, 0])
    assert point_in_ball(Vector([F(3, 5), F(4, 5)]), origin, F(1))  # on the sphere
    assert not point_in_ball(Vector([F(3, 5), F(4, 5) + F(1, 10**9)]), origin, F(1))
    assert point_in_ball(Vector([Surd.root(2), 0]), origin, F(3, 2))
    assert not point_in_ball(Vector([Surd.root(2), 0]), origin, F(7, 5))


def test_point_in_ball_with_radius_zero_or_negative():
    # radius 0 keeps the center alone; a negative radius is no ball, even
    # around a point that lies within its absolute value
    origin = Vector([0, 0])
    assert point_in_ball(origin, origin, 0)
    assert not point_in_ball(Vector([F(1, 10**9), 0]), origin, 0)
    for radius in (F(-1, 2), -1):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            point_in_ball(origin, origin, radius)


def test_rational_in_ball_rational_center():
    center = Vector([F(0), F(0)])
    assert rational_in_ball(center, F(1, 100)) == center


def test_rational_in_ball_sqrt2():
    q = rational_in_ball(Vector([Surd.root(2), 0]), F(1, 10))
    assert q == Vector([F(17, 12), F(0)])
    q2 = rational_in_ball(Vector([F(1, 3), Surd.root(2)]), F(1, 100))
    assert q2 == Vector([F(1, 3), F(99, 70)])


def test_rational_in_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        rational_in_ball(Vector([F(0)]), F(0))


@given(
    st.lists(rationals, min_size=1, max_size=3),
    st.lists(rationals, min_size=1, max_size=3),
    st.sampled_from([2, 3, 5]),
    st.fractions(min_value=F(1, 50), max_value=2, max_denominator=50),
)
def test_rational_in_ball_contract(rs, ss, k, radius):
    assume(len(rs) == len(ss))
    center = Vector([Surd(r, s, k) for r, s in zip(rs, ss)])
    q = rational_in_ball(center, radius)
    assert q.is_rational
    gap = q - center
    assert (gap.dot(gap) - Surd(radius * radius)).sign() <= 0
    assert rational_in_ball(center, radius) == q  # deterministic


@st.composite
def ball_centers(draw):
    """Centers over Q, Q(sqrt2) or Q(sqrt(1000003)) in dims 1-3, with large
    or small coordinates, rational ones among them."""
    k = draw(st.sampled_from([1, 2, 1000003]))
    dim = draw(st.integers(1, 3))
    parts = st.one_of(big_rationals, rationals.map(lambda r: r / 10**12))
    return Vector(
        [Surd(draw(parts), draw(parts | st.just(F(0))) if k > 1 else 0, k) for _ in range(dim)]
    )


@given(
    ball_centers(),
    st.one_of(
        st.fractions(min_value=F(1, 50), max_value=2, max_denominator=50),
        st.integers(1, 30).map(lambda j: F(1, 10**j)),
    ),
)
@example(Vector([F(3, 5), Surd(F(1, 3), 1, 1000003)]), F(1, 10**12))
def test_rational_in_ball_matches_surd_arithmetic(center, radius):
    with forbid_floats():
        assert rational_in_ball(center, radius) == surd_rational_in_ball(center, radius)


# -- choose_rational_between ----------------------------------------------


def test_choose_between_rationals():
    assert choose_rational_between(Surd(0), Surd(1)) == F(1, 2)


def test_choose_between_surds():
    beta = choose_rational_between(Surd.root(2), Surd(F(3, 2)))
    assert beta == F(29, 20)


def test_choose_between_empty_raises():
    with pytest.raises(ValueError):
        choose_rational_between(Surd(1), Surd(1))
    with pytest.raises(ValueError):
        choose_rational_between(Surd(2), Surd(1))


@given(surd_triples())
def test_choose_between_contract(triple):
    a, b, _ = triple
    assume((b - a).sign() != 0)
    lo, hi = (a, b) if (b - a).sign() > 0 else (b, a)
    beta = choose_rational_between(lo, hi)
    assert (Surd(beta) - lo).sign() > 0
    assert (hi - Surd(beta)).sign() > 0


@st.composite
def narrow_intervals(draw):
    """(lo, hi) over Q, Q(sqrt2) or Q(sqrt(1000003)), rational or irrational
    at each end, as Surds, Fractions or ints, often less than 10**-12
    wide so that many convergents are walked, and sometimes empty."""
    k = draw(st.sampled_from([1, 2, 1000003]))
    s = draw(st.sampled_from([0, 1, -1]) | rationals) if k > 1 else 0
    lo = Surd(draw(rationals), s, k)
    width = F(1, draw(st.sampled_from([1, 7, 10**3, 10**12, 10**30])))
    gap = draw(st.sampled_from(["rational", "irrational", "zero", "negative"]))
    if gap == "zero":
        hi = lo
    elif gap == "negative":
        hi = lo - width
    elif gap == "irrational" and k > 1:
        hi = lo + width * abs(Surd(draw(rationals), draw(st.sampled_from([1, -1, F(1, 3)])), k))
    else:
        hi = lo + width

    def plain(x):
        if not x.is_rational:
            return x
        f = as_fraction(x)
        return draw(st.sampled_from([x, f, int(f)] if f.denominator == 1 else [x, f]))

    return plain(lo), plain(hi)


@given(narrow_intervals())
@example((Surd.root(2), Surd.root(2) + F(2, 10**40)))  # convergents up to q ~ 10**20
def test_choose_between_matches_surd_arithmetic(bounds):
    lo, hi = bounds
    with forbid_floats():
        try:
            want = surd_choose_rational_between(lo, hi)
        except ValueError:
            with pytest.raises(ValueError, match="need lo < hi"):
                choose_rational_between(lo, hi)
            return
        got = choose_rational_between(lo, hi)
    assert type(got) is F and got == want


def test_convergent_walk_ends_at_its_bound(monkeypatch):
    """With the convergents of sqrt(3) fed in while k = 2, no candidate
    fits near sqrt(2); past q**2 >= |B|/(E*w) the walk must raise.  The
    patched generator stops after 200 steps, so a broken bound fails
    instead of hanging."""
    real = ratsep.scalars._convergents

    def sqrt3_convergents(k):
        for step, hq in enumerate(real(3)):
            if step == 200:
                raise AssertionError("the convergent walk passed its bound")
            yield hq

    monkeypatch.setattr(ratsep.scalars, "_convergents", sqrt3_convergents)
    root2 = Surd.root(2)
    with pytest.raises(SeparationBugError, match="missed the interval"):
        choose_rational_between(root2 - F(1, 100), root2 + F(1, 100))
    with pytest.raises(SeparationBugError, match="missed the interval"):
        choose_rational_between(root2, root2 + F(1, 10**30))
    with pytest.raises(SeparationBugError, match="missed the interval"):
        rational_in_ball(Vector([root2, 0]), F(1, 10))


# -- convergents and vectors ----------------------------------------------


def test_sqrt_convergents_prefix():
    gen = _convergents(2)
    assert [next(gen) for _ in range(5)] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]


def test_the_surd_walk_gives_the_kernels_convergents():
    # the reference rounding takes its convergents from x <- 1/(x - floor(x))
    # on Surds, the kernel from the integer recurrence of sqrt(k)'s expansion
    largest = next(k for k in range(MAX_FIELD_K, 1, -1) if _is_square_free(k))
    for k in (2, 3, 1000003, largest):
        walk, kernel = surd_convergents(k), _convergents(k)
        assert [next(walk) for _ in range(8)] == [next(kernel) for _ in range(8)], k


def test_vector_basics():
    v = Vector([1, F(1, 2), Surd.root(2)])
    assert v.dim == 3
    assert v.field_k == 2
    assert not v.is_rational
    w = Vector([0, F(1, 2), 0])
    assert (v - w) == Vector([1, 0, Surd.root(2)])
    assert v.dot(w) == F(1, 4)
    assert Vector([1, 1]).dot(Vector([1, 1])) == 2


def test_vector_validation():
    with pytest.raises(ValueError):
        Vector([])
    with pytest.raises(ValueError):
        Vector([Surd.root(2), Surd.root(3)])
    with pytest.raises(ValueError):
        Vector([1, 2]) + Vector([1, 2, 3])


@pytest.mark.parametrize(
    "call",
    [
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u.dot(v),
        lambda u, v: point_in_ball(u, v, 1),
        lambda u, v: Certificate(u, 1).excludes(v),
    ],
    ids=["add", "sub", "dot", "point_in_ball", "excludes"],
)
def test_vector_dimension_mismatch_raises_the_library_error(call):
    with pytest.raises(DimensionMismatchError):
        call(Vector([1, 0]), Vector([1, 2, 3]))


def test_vector_scalar_multiplication():
    v = Vector([1, 2])
    assert F(1, 2) * v == Vector([F(1, 2), F(1)])
    assert v * Surd.root(2) == Vector([Surd(0, 1, 2), Surd(0, 2, 2)])
    assert v.__mul__(0.5) is NotImplemented and v.__mul__("2") is NotImplemented
    with pytest.raises(TypeError):
        v * 0.5


@pytest.mark.parametrize("dim", [True, 2.0, F(2)])
def test_zero_vector_dimension_must_be_an_int(dim):
    with pytest.raises(TypeError, match=f"dim must be an int, got {type(dim).__name__}"):
        Vector.zero(dim)
    assert Vector.zero(2) == Vector([0, 0])


def test_vector_rejects_floats_and_mixed_fields():
    with pytest.raises(TypeError):
        Vector([1, 0.5])
    with pytest.raises(TypeError):
        Vector([1.5])
    u, v = Vector([Surd.root(2), 1]), Vector([1, Surd.root(3)])
    for op in (lambda: u + v, lambda: u - v, lambda: u.dot(v), lambda: Surd.root(3) * u):
        with pytest.raises(ValueError):
            op()


# -- Vector against coordinate-wise Surd arithmetic ------------------------

vector_parts = st.one_of(
    rationals,
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(2**64, 2**80)),
)


@st.composite
def vector_operands(draw):
    """(u, v, s): two coordinate lists and a scalar in one field.  v is
    drawn freely, as zero, or with the sqrt(k) parts of u or of -u, so
    that u - v or u + v is rational."""
    k = draw(st.sampled_from([1, 2, 1000003]))
    dim = draw(st.integers(1, 6))

    def surd(s=None):
        if s is None:
            s = draw(vector_parts) if k != 1 and draw(st.booleans()) else 0
        return Surd(draw(vector_parts), s, k)

    u = [surd() for _ in range(dim)]
    kind = draw(st.sampled_from(["free", "zero", "cancel"]))
    if kind == "free":
        v = [surd() for _ in range(dim)]
    elif kind == "zero":
        v = [Surd(0)] * dim
    else:
        sign = draw(st.sampled_from([1, -1]))
        v = [surd(sign * c.s) for c in u]
    return u, v, surd()


def assert_vector_of(w, coords):
    """w is the vector of the Surds coords, in the canonical pair form:
    the least denominator m, the scaled pairs and the one field."""
    m = math.lcm(*(c.d for c in coords))
    assert w.m == m and math.gcd(m, *(q for p in w.pairs for q in p)) == 1
    assert w.pairs == tuple((c.a * (m // c.d), c.b * (m // c.d)) for c in coords)
    assert w.field_k == next((c.k for c in coords if c.b), 1)
    assert w.dim == len(w) == len(coords)
    for x, c in zip(w, coords):
        assert_same_surd(x, c)
    assert w.is_zero() == (not any(coords))
    assert w.is_rational == all(c.is_rational for c in coords)
    again = Vector(coords)
    assert w == again and hash(w) == hash(again)
    assert Vector(w) == w  # a Vector reads through its coordinates like any other row


@given(vector_operands())
@example(([Surd(1, 1, 2), Surd(3)], [Surd(0, 1, 2), Surd(1)], Surd(2)))
def test_vector_arithmetic_matches_coordinatewise_surds(operands):
    u, v, s = operands
    U, V = Vector(u), Vector(v)
    assert_vector_of(U, u)
    assert_vector_of(V, v)
    assert_vector_of(U + V, [a + b for a, b in zip(u, v)])
    assert_vector_of(U - V, [a - b for a, b in zip(u, v)])
    assert_vector_of(-U, [-a for a in u])
    assert_vector_of(s * U, [s * a for a in u])
    assert_vector_of(U * s.r, [a * s.r for a in u])
    assert_same_surd(U.dot(V), reference_dot(u, v))
    assert_same_surd(U.dot(U), reference_dot(u, u))
    assert (U == V) == (U.coords == V.coords)
    W = (U + V) - V
    assert W == U and hash(W) == hash(U) and W.coords == U.coords
    if U.field_k != 1:
        other = Vector([Surd.root(3)] * len(u))
        with pytest.raises(ValueError):
            U + other


def test_vector_arithmetic_builds_no_surd_per_coordinate(monkeypatch):
    sq2 = Surd.root(2)
    u = Vector([F(1, 3), sq2 * F(2, 5), 1 + sq2, F(-7, 4)])
    v = Vector([sq2, F(5, 6), F(1, 2) - sq2 * F(1, 9), 2])
    s = F(3, 7) - sq2
    X = VPolyhedron(
        (u, v, Vector([0, 0, 0, 0]), Vector([1, 0, 0, sq2]), Vector([0, 1, F(1, 2), 0])),
        (Vector([-1, 0, 0, 0]),),
    )
    calls = []
    make = Surd._make
    monkeypatch.setattr(Surd, "_make", classmethod(lambda cls, *args: calls.append(args) or make(*args)))
    for w in (u + v, u - v, -u, s * u, F(2, 3) * u):
        assert w.dim == 4
    assert calls == []
    u.dot(v)
    assert len(calls) == 1
    # the ray tests of a support value are signs of integer pairs: only a
    # finite value is built
    assert support_value(X, u).is_finite and len(calls) == 2
    assert not support_value(X, -u).is_finite and len(calls) == 2
    equations, facets = X.facet_description
    assert len(calls) == 2 + len(equations) + len(facets)

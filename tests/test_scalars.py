import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, strategies as st

import ratsep.scalars
from ratsep import (
    Certificate,
    GridSpec,
    Surd,
    Vector,
    VPolyhedron,
    separate,
)
from ratsep.scalars import (
    QInterval,
    choose_rational_between,
    point_in_ball,
    rational_in_ball,
    sqrt_convergents,
    sqrt_enclosure,
)
from helpers import bisection_enclosure, forbid_floats, point_in_apex_hull

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
    assert_same_surd(u.norm_sq(), reference_dot(u, u))


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
    y = u.dot(v) + v.norm_sq() + (u + v).dot(u * a)
    assert x.k == k and y.k == k
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
        [(cut.contains(X), cut.excludes(p)) for X in (triangle, triangle.translated(center))
         for p in (center, Vector([1, 1]))],
        point_in_ball(Vector([1, F(1, 2)]), center, F(7, 4)),
        rational_in_ball(center, F(1, 10)),
        choose_rational_between(surds[0], surds[0] + F(1, 100)),
        [QInterval(F(-1), F(1, 2)).contains(x) for x in (*surds, *rationals)],
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


# -- QInterval -------------------------------------------------------------


def test_qinterval_rejects_empty():
    with pytest.raises(ValueError):
        QInterval(F(1), F(0))


def test_qinterval_contains():
    box = QInterval(F(1), F(3, 2))
    assert box.contains(Surd.root(2))
    assert not box.contains(F(2))
    assert box.width == F(1, 2)


# -- sqrt_enclosure --------------------------------------------------------


def test_sqrt_enclosure_perfect_square():
    assert sqrt_enclosure(Surd(4), F(1)) == QInterval(F(2), F(2))
    assert sqrt_enclosure(F(9, 16), F(1, 100)) == QInterval(F(3, 4), F(3, 4))


def test_sqrt_enclosure_zero():
    assert sqrt_enclosure(Surd(0), F(1, 10)) == QInterval(F(0), F(0))


def test_sqrt_enclosure_negative_rejected():
    with pytest.raises(ValueError):
        sqrt_enclosure(Surd(-1), F(1, 10))


def test_sqrt_enclosure_of_two():
    # deterministic bisection output from bracket [1, 2]
    enc = sqrt_enclosure(Surd(2), F(1, 10))
    assert enc == QInterval(F(11, 8), F(23, 16))
    assert enc.lo ** 2 <= 2 <= enc.hi ** 2
    assert enc.width <= F(1, 10)


@given(surd_triples(), st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64))
def test_sqrt_enclosure_contract(triple, tol):
    x = triple[0] * triple[0]  # guaranteed nonnegative field element
    enc = sqrt_enclosure(x, tol)
    assert enc.lo >= 0
    assert (x - Surd(enc.lo * enc.lo)).sign() >= 0
    assert (Surd(enc.hi * enc.hi) - x).sign() >= 0
    assert enc.width <= tol
    assert sqrt_enclosure(x, tol) == enc  # deterministic


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
        enc = sqrt_enclosure(x, tol)
        assert enc == bisection_enclosure(x, tol)
    assert (x - enc.lo * enc.lo).sign() >= 0
    assert (enc.hi * enc.hi - x).sign() >= 0
    assert enc.hi - enc.lo <= tol


# -- rational_in_ball ------------------------------------------------------


def test_point_in_ball_is_closed_and_exact():
    origin = Vector([0, 0])
    assert point_in_ball(Vector([F(3, 5), F(4, 5)]), origin, F(1))  # on the sphere
    assert not point_in_ball(Vector([F(3, 5), F(4, 5) + F(1, 10**9)]), origin, F(1))
    assert point_in_ball(Vector([Surd.root(2), 0]), origin, F(3, 2))
    assert not point_in_ball(Vector([Surd.root(2), 0]), origin, F(7, 5))


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
    assert (gap.norm_sq() - Surd(radius * radius)).sign() <= 0
    assert rational_in_ball(center, radius) == q  # deterministic


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


# -- convergents and vectors ----------------------------------------------


def test_sqrt_convergents_prefix():
    gen = sqrt_convergents(2)
    assert [next(gen) for _ in range(5)] == [F(1), F(3, 2), F(7, 5), F(17, 12), F(41, 29)]


def test_sqrt_convergents_validation():
    with pytest.raises(ValueError):
        next(sqrt_convergents(4))


def test_vector_basics():
    v = Vector([1, F(1, 2), Surd.root(2)])
    assert v.dim == 3
    assert v.field_k == 2
    assert not v.is_rational
    w = Vector([0, F(1, 2), 0])
    assert (v - w) == Vector([1, 0, Surd.root(2)])
    assert v.dot(w) == F(1, 4)
    assert Vector([1, 1]).norm_sq() == 2


def test_vector_validation():
    with pytest.raises(ValueError):
        Vector([])
    with pytest.raises(ValueError):
        Vector([Surd.root(2), Surd.root(3)])
    with pytest.raises(ValueError):
        Vector([1, 2]) + Vector([1, 2, 3])


def test_vector_scalar_multiplication():
    v = Vector([1, 2])
    assert F(1, 2) * v == Vector([F(1, 2), F(1)])
    assert v * Surd.root(2) == Vector([Surd(0, 1, 2), Surd(0, 2, 2)])

"""The fraction-free Z[sqrt(k)] kernel against the Surd oracles.

``linalg.simplex_max`` and ``sets._double_description`` compute on integer
pairs; ``helpers.surd_simplex_max`` and ``helpers.surd_double_description``
are the same algorithms with a Surd in every entry and a field division in
every pivot.  ``simplex_max`` stores a dictionary without the slack columns
of the oracle's full tableau.  Positive row scaling changes no Bland choice
and no primitive ray, so the results must be equal, not merely equivalent.
"""

from fractions import Fraction as F
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratsep import NotPointedError, SeparationBugError, Surd, Vector, VPolyhedron, is_pointed
from ratsep import linalg, separation, sets
from ratsep.linalg import _pivot, _tableau, simplex_max
from ratsep.scalars import (
    _pair_combination,
    _pair_mul,
    _pair_primitive,
    _pair_quotients,
    _pair_sign,
    _pair_surd,
)
from ratsep.sets import _double_description
from helpers import (
    forbid_floats,
    fraction_sign,
    random_nonpointed_rays,
    random_pointed_rays,
    _surd_primitive,
    surd_double_description,
    surd_simplex_max,
)

BIG_K = 1000003
FIELD_KS = st.sampled_from([1, 2, BIG_K])
INTS = st.integers(-10**6, 10**6)


def field_elements(k: int):
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if k == 1:
        return rational.map(Surd)
    return st.tuples(rational, st.sampled_from([0, 0, 1, -1, F(1, 2)])).map(
        lambda rs: Surd(rs[0], rs[1], k)
    )


# -- integer pairs ---------------------------------------------------------


@given(FIELD_KS, INTS, INTS, st.integers(1, 10**3))
def test_pair_sign_matches_surd_sign(k, a, b, d):
    for x, y in ((a, b), (a, -a)):  # a - a*sqrt(1) is a zero with mixed signs
        expected = fraction_sign(F(x), F(y), k)
        assert _pair_sign((x, y), k) == expected
        assert Surd(F(x, d), F(y, d), k).sign() == expected


@given(FIELD_KS, INTS, INTS, INTS, INTS)
def test_pair_quotients_undo_a_product(k, a, b, c, d):
    if k == 1:
        b = d = 0
    if (c, d) == (0, 0):
        return
    x, y = (a, b), (c, d)
    assert _pair_quotients([_pair_mul(x, y, k)], y, k) == [x]
    assert _pair_surd(_pair_mul(x, y, k), k, y) == Surd(a, b, k)


SMALL = st.integers(-30, 30)


@given(FIELD_KS, st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=4), SMALL, SMALL)
def test_pair_primitive_is_one_vector_per_ray(k, v, c, d):
    # any positive multiple of v, rational or not, gives the same vector,
    # and it is the Surd oracle's: v over |first nonzero coordinate|, cleared
    if k == 1:
        v, d = [(a, 0) for a, _ in v], 0
    assume(any(x != (0, 0) for x in v) and _pair_sign((c, d), k) > 0)
    got = _pair_primitive(v, k)
    assert _pair_primitive([_pair_mul(x, (c, d), k) for x in v], k) == got
    with forbid_floats():
        assert Vector._make(1, got, k) == _surd_primitive(Vector._make(1, v, k))


@pytest.mark.parametrize("k", [1, 2])
def test_a_corrupted_quotient_fails_the_exactness_audit(k):
    root = Surd(0, 1, k) if k > 1 else Surd(0)
    # the second pivot divides by the first pivot entry: 2, or 2 + sqrt(2)
    T, k = _tableau([[2 + root, 1], [1, 3], [1, 1 + root]], [1, 2, 5])
    at = [(1, 0)] * len(T)
    D = _pivot(T, at, 0, 0, (1, 0), k)
    _pivot([row[:] for row in T], at[:], 1, 1, D, k)  # the true quotients divide
    a, b = T[1][2]
    T[1][2] = (a + 1, b)
    with pytest.raises(SeparationBugError, match="left a remainder"):
        _pivot(T, at, 1, 1, D, k)


# -- simplex_max -----------------------------------------------------------


def assert_same_lp(c, A, b):
    with forbid_floats():
        got = simplex_max(c, A_ub=A, b_ub=b)
        want = surd_simplex_max(c, A_ub=A, b_ub=b)
    assert (got.status, got.x) == (want.status, want.x)
    return got


@st.composite
def lps(draw):
    """Bounded and unbounded LPs with b_ub >= 0, many right-hand sides 0;
    entries are often 0 or +-1, so that ratio ties and optimal faces with
    more than one vertex, where the pivot rule decides x, are common."""
    k = draw(FIELD_KS)
    entry = st.one_of(st.sampled_from([Surd(0), Surd(1), Surd(-1)]), field_elements(k))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(Surd(0)), entry.map(abs)), min_size=m, max_size=m))
    return c, A, b


@settings(max_examples=150)
@given(lps())
def test_simplex_matches_the_surd_tableau(lp):
    assert_same_lp(*lp)


def test_ratio_ties_resolve_to_the_smallest_basic_index():
    # degenerate rows tie at ratio 0 and the optimal face is an edge, so
    # the tie-break decides which of its vertices is returned
    c = [0, F(1, 2), 0]
    A = [[0, 0, 0], [0, 1, -1], [1, 0, 1], [2, -2, 0], [0, 2, 0], [2, 1, -2]]
    b = [0, 0, 2, 0, 2, 0]
    res = assert_same_lp(c, A, b)
    assert res.x == (Surd(0), Surd(1), Surd(1))
    assert Vector(c).dot(Vector(res.x)) == F(1, 2)


@pytest.mark.parametrize("k", [1, 2, BIG_K])
def test_beale_cycling_lp_with_rows_scaled_in_the_field(k):
    # a positive field element per row changes no Bland choice
    c = [F(3, 4), -150, F(1, 50), -6]
    A = [[F(1, 4), -60, F(-1, 25), 9], [F(1, 2), -90, F(-1, 50), 3], [0, 0, 1, 0]]
    b = [0, 0, 1]
    scales = [Surd(3, 1, k), Surd(F(1, 7)), Surd(0, F(1, 2), k)] if k > 1 else [3, F(1, 7), 2]
    A = [[s * v for v in row] for s, row in zip(scales, A)]
    b = [s * v for s, v in zip(scales, b)]
    res = assert_same_lp(c, A, b)
    assert res.status == "optimal"
    assert Vector(c).dot(Vector(res.x)) == F(1, 20)
    assert res.x == (Surd(F(1, 25)), Surd(0), Surd(1), Surd(0))


def test_simplex_pivots_a_dictionary_without_slack_columns(monkeypatch):
    # Beale's LP: 3 constraints and 4 variables, so the full tableau would
    # hand _pivot rows of 4 + 3 + 1 entries
    c = [F(3, 4), -150, F(1, 50), -6]
    A = [[F(1, 4), -60, F(-1, 25), 9], [F(1, 2), -90, F(-1, 50), 3], [0, 0, 1, 0]]
    shapes = []

    def recorder(T, at, r, col, D, k):
        shapes.extend((len(T), len(row)) for row in T)
        return _pivot(T, at, r, col, D, k)

    monkeypatch.setattr(linalg, "_pivot", recorder)
    assert simplex_max(c, A_ub=A, b_ub=[0, 0, 1]).status == "optimal"
    assert shapes and set(shapes) == {(len(A) + 1, len(c) + 1)}


def margin_lp(rays, n):
    """The margin LP of ``sets.VPolyhedron._ray_margin``: maximize t
    subject to <p - q, r> + t <= 0 per ray and 0 <= p, q <= 1."""
    nvars = 2 * n + 1
    c = [0] * (2 * n) + [1]
    A = [[*r, *(-x for x in r), 1] for r in rays]
    A += [[int(i == j) for i in range(nvars)] for j in range(2 * n)]
    return c, A, [0] * len(rays) + [1] * (2 * n)


@st.composite
def barrier_lps(draw):
    """Margin LPs for 1-6 rays in dims 1-6 over k in {1, 2, 1000003}.  The
    ray rows have right-hand side 0, so every pivot through them is
    degenerate; zero coordinates, a positive multiple of a ray, a repeated
    ray or a ray and its negative (a line: the set is not pointed) make
    ratio ties and optimal faces with more than one vertex."""
    k = draw(FIELD_KS)
    n = draw(st.integers(1, 6))
    coord = st.one_of(st.just(Surd(0)), field_elements(k))
    rays = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6))
    shape = draw(st.sampled_from(["general", "parallel", "repeated", "line"]))
    r = rays[0]
    if shape == "parallel":
        scale = draw(field_elements(k).filter(lambda s: s.sign() > 0))
        rays.append([scale * x for x in r])
    elif shape == "repeated":
        rays.append(list(r))
    elif shape == "line":
        rays.append([-x for x in r])
    return margin_lp(draw(st.permutations(rays))[:6], n)


@settings(max_examples=100, deadline=None)
@given(barrier_lps())
def test_barrier_margin_lps_match_the_surd_tableau(lp):
    assert assert_same_lp(*lp).status == "optimal"


@settings(max_examples=40, deadline=None)
@given(FIELD_KS, st.integers(1, 4), st.integers(1, 4), st.booleans(), st.integers(0, 2**32))
def test_barrier_direction_is_unchanged_under_the_surd_tableau(k, dim, count, pointed, seed):
    rng = Random(seed)
    if pointed:
        rays = random_pointed_rays(rng, dim, count, k)
    else:
        rays = random_nonpointed_rays(rng, dim, count - 1)

    def barrier():
        # a new object each time: the margin LP is solved once per set object
        try:
            return separation.find_barrier_direction(VPolyhedron((Vector.zero(dim),), rays))
        except NotPointedError:
            return None

    calls = []

    def oracle(*args, **kwargs):
        calls.append(args)
        return surd_simplex_max(*args, **kwargs)

    got = barrier()
    with patch.object(sets, "simplex_max", oracle):
        want = barrier()
    assert got == want
    assert (got is None) == (not pointed)
    # the set has rays, so the barrier ran its LP through the patched
    # binding; otherwise the comparison above would set the code against itself
    assert rays and len(calls) == 1


def scaled(row, a, D, k):
    """The lazy row stored over the scale a, brought to the scale D."""
    return _pair_quotients([_pair_mul(x, D, k) for x in row], a, k)


def spy_on_pivots(monkeypatch) -> list:
    """Patch ``linalg._pivot`` to check each pivot against the eager one,
    which rewrites every row x as (p*x - f*y) / D, and to record the pivot
    row and column, each row and its scale before and after, and p."""
    log = []

    def spy(T, at, r, c, D, k):
        eager = [scaled(row, a, D, k) for row, a in zip(T, at)]
        before = [(row[:], a) for row, a in zip(T, at)]
        p = _pivot(T, at, r, c, D, k)
        y = eager[r]
        want = [
            row if i == r else _pair_quotients(_pair_combination(y[c], row, row[c], y, k), D, k)
            for i, row in enumerate(eager)
        ]
        assert p == y[c]
        assert [scaled(row, a, p, k) for row, a in zip(T, at)] == want
        log.append((r, c, before, [(row[:], a) for row, a in zip(T, at)], p))
        return p

    monkeypatch.setattr(linalg, "_pivot", spy)
    return log


@pytest.mark.parametrize("k", [1, 2, BIG_K])
def test_pivot_leaves_rows_with_zero_in_the_pivot_column_alone(monkeypatch, k):
    # the margin LP of three rays in dim 3: each box row holds a single 1,
    # so most rows have a 0 in the pivot column
    root = Surd(0, 1, k) if k > 1 else Surd(F(1, 3))
    rays = [[-1, root, F(-1, 2)], [-2, -1, 0], [F(-1, 3), 0, -root - 2]]
    log = spy_on_pivots(monkeypatch)
    assert assert_same_lp(*margin_lp(rays, 3)).status == "optimal"
    skipped = 0
    for r, c, before, after, p in log:
        assert after[r][1] == p
        for i, ((row, a), (new_row, new_a)) in enumerate(zip(before, after)):
            if i != r and row[c] == (0, 0):
                skipped += 1
                assert new_row == row and new_a == a
            elif i != r:
                assert new_a == p
    assert log and skipped > len(log)


@settings(max_examples=60, deadline=None)
@given(lp=barrier_lps())
def test_lazy_rows_are_the_eager_rows_over_their_scale(lp):
    # every pivot of a margin LP, checked against the eager pivot in the spy
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy_on_pivots(monkeypatch)
        assert assert_same_lp(*lp).status == "optimal"


# -- the double description ------------------------------------------------


@st.composite
def generator_sets(draw):
    """V-polyhedra in dims 1-4 over k in {1, 2, 1000003}: general ones,
    single points, sets containing a line, and lower-dimensional sets
    (every generator in the hyperplane x_0 = 1 or x_0 = 0 for rays)."""
    k = draw(FIELD_KS)
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["general", "point", "line", "flat"]))
    vec = st.lists(field_elements(k), min_size=dim, max_size=dim).map(Vector)
    ray = vec.filter(lambda r: not r.is_zero())
    vertices = draw(st.lists(vec, min_size=1, max_size=5))
    rays = draw(st.lists(ray, max_size=3))
    if shape == "point":
        vertices, rays = vertices[:1], []
    elif shape == "line":
        r = draw(ray)
        rays = [*rays, r, -r]
    elif shape == "flat" and dim > 1:
        vertices = [Vector([1, *v[1:]]) for v in vertices]
        rays = [Vector([0, *r[1:]]) for r in rays if not Vector([0, *r[1:]]).is_zero()]
    return VPolyhedron(tuple(vertices), tuple(rays))


@settings(max_examples=150)
@given(generator_sets())
def test_double_description_matches_the_surd_oracle(P):
    # the oracle's own pointedness, read off its polar cone, cross-checks
    # the margin LP's on the same sets, lines included
    with forbid_floats():
        description, pointed = surd_double_description(P)
        assert _double_description(P) == description
        assert is_pointed(P) == pointed
    # the excess measure reads each row as it is stored, its parts integers
    assert all(a.m == 1 and b.d == 1 for a, b in (*description.equations, *description.facets))

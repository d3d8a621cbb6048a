"""The fraction-free Z[sqrt(k)] kernel against the Surd oracles.

``linalg.simplex_max`` and ``sets._double_description`` compute on integer
pairs, or on plain ints when the margin LP's rays are rational;
``helpers.surd_simplex_max`` and ``helpers.surd_double_description`` are
the same algorithms with a Surd in every entry and a field division in
every pivot.  ``simplex_max`` solves only the margin LP, on a dictionary
without the slack columns and the box rows of the oracle's full tableau,
the box kept as bounds, and the oracle solves it in the general form
``helpers.margin_lp``.  Positive row scaling changes no Bland choice and
no primitive ray, and the bounds change no candidate of the ratio test,
so the results must be equal, not merely equivalent.  The oracle itself
stays general, and its verdicts on general LPs are checked by their
certificates.
"""

from fractions import Fraction as F
from itertools import combinations, product
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ratsep import NotPointedError, SeparationBugError, Surd, Vector, VPolyhedron, is_pointed
from ratsep import linalg, separation, sets
from ratsep.linalg import _pivot, simplex_max
from ratsep.scalars import _pair_combination, _pair_mul, _pair_primitive, _pair_sign
from ratsep.serialization import MAX_DIGITS, MAX_DIM, MAX_GENERATORS
from ratsep.sets import _double_description
from helpers import (
    certified_simplex_max,
    forbid_floats,
    fraction_sign,
    lp_certificate_holds,
    objective_negating_pivot,
    random_nonpointed_rays,
    random_pointed_rays,
    _surd_primitive,
    surd_double_description,
    surd_margin_lp,
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


@given(st.sampled_from([1, 2, 3, BIG_K]), INTS, INTS, INTS, INTS)
@example(2, 7, -3, 1, 1)  # D = 1 + sqrt(2), of norm -1
@example(2, 7, -3, 1, 2)  # D = 1 + 2*sqrt(2), of norm -7
@example(2, 7, -3, 3, 2)  # D = 3 + 2*sqrt(2), of norm 1, a unit divisor
@example(3, 7, 0, 5, 0)  # a rational D over Q(sqrt(3))
def test_a_pivot_divides_out_a_product(k, a, b, c, d):
    # pivoting [[1, 0], [0, x*y]] on (0, 0) from D = y leaves the row [0, x]
    if k == 1:
        b = d = 0
    if (c, d) == (0, 0):
        return
    x, y = (a, b), (c, d)
    T = [[(1, 0), (0, 0)], [(0, 0), _pair_mul(x, y, k)]]
    assert _pivot(T, 0, 0, y, k) == (1, 0)
    assert T == [[(1, 0), (0, 0)], [(0, 0), x]]
    if k == 1:  # rows of plain ints
        T = [[1, 0], [0, a * c]]
        assert _pivot(T, 0, 0, c, k) == 1
        assert T == [[1, 0], [0, a]]


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
    r = int(k > 1)
    # the rows [2 + r*sqrt(2), 1 | 1], [1, 3 | 2], [1, 1 + r*sqrt(2) | 5]
    # and [2 + r*sqrt(2), 1 | 3] as pairs.  The second pivot divides by the
    # first pivot entry, 2 or 2 + sqrt(2), which does not divide the
    # second, 5 or 5 + 3*sqrt(2), so the last row, with 0 in the second
    # pivot's column, is rewritten and audited too
    T = [
        [(2, r), (1, 0), (1, 0)],
        [(1, 0), (3, 0), (2, 0)],
        [(1, 0), (1, r), (5, 0)],
        [(2, r), (1, 0), (3, 0)],
    ]
    D = _pivot(T, 0, 0, (1, 0), k)
    assert T[3][1] == (0, 0)
    _pivot([row[:] for row in T], 1, 1, D, k)  # the true quotients divide
    for i in (1, 3):
        U = [row[:] for row in T]
        a, b = U[i][2]
        U[i][2] = (a + 1, b)
        with pytest.raises(SeparationBugError, match="left a remainder"):
            _pivot(U, 1, 1, D, k)


def test_a_corrupted_integer_quotient_fails_the_exactness_audit():
    # rows of plain ints pivot the same way: the second pivot divides by 2,
    # also the last row, 0 in the pivot column, which becomes 5*x/2
    T = [[2, 1, 1], [1, 3, 2], [1, 1, 5], [2, 1, 3]]
    D = _pivot(T, 0, 0, 1, 1)
    assert D == 2 and T == [[2, 1, 1], [0, 5, 3], [0, 1, 9], [0, 0, 4]]
    _pivot([row[:] for row in T], 1, 1, D, 1)  # the true quotients divide
    for i in (1, 3):
        U = [row[:] for row in T]
        U[i][2] += 1
        with pytest.raises(SeparationBugError, match="left a remainder"):
            _pivot(U, 1, 1, D, 1)


# -- the reference simplex on general LPs ---------------------------------


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
def test_the_surd_tableau_proves_its_verdicts(lp):
    c, A, b = lp
    res = certified_simplex_max(c, A, b)
    # the check is not vacuous: the other verdict fails it, and so does a
    # point whose objective differs from the optimum's
    other = "unbounded" if res.status == "optimal" else "optimal"
    assert not lp_certificate_holds(c, A, b, res._replace(status=other))
    j = next((j for j, cj in enumerate(c) if cj.sign() != 0), None)
    if res.status == "optimal" and j is not None:
        off = res._replace(x=tuple(v + (i == j) for i, v in enumerate(res.x)))
        assert not lp_certificate_holds(c, A, b, off)


def test_ratio_ties_resolve_to_the_smallest_basic_index():
    # degenerate rows tie at ratio 0 and the optimal face is an edge, so
    # the tie-break decides which of its vertices is returned
    c = [0, F(1, 2), 0]
    A = [[0, 0, 0], [0, 1, -1], [1, 0, 1], [2, -2, 0], [0, 2, 0], [2, 1, -2]]
    b = [0, 0, 2, 0, 2, 0]
    res = certified_simplex_max(c, A, b)
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
    res = certified_simplex_max(c, A, b)
    assert res.status == "optimal"
    assert Vector(c).dot(Vector(res.x)) == F(1, 20)
    assert res.x == (Surd(F(1, 25)), Surd(0), Surd(1), Surd(0))


# -- simplex_max, the margin LP ----------------------------------------------


def assert_same_margin(rays):
    """simplex_max on the rays against the reference simplex on the margin
    LP in the general form; returns (d*, t*)."""
    rays = [Vector(r) for r in rays]
    with forbid_floats():
        got = simplex_max(rays)
        want = surd_margin_lp(rays)
    assert got == want
    return got


def test_simplex_pivots_a_dictionary_without_slack_columns(monkeypatch):
    # R rays in dim n: the dictionary holds the R ray rows and the objective,
    # each with 2n + 1 nonbasic columns and the right-hand side, and keeps
    # the box as bounds; the full tableau, with its 2n box rows, would hand
    # _pivot R + 2n + 1 rows of 2n + 1 + R + 2n + 1 entries
    shapes = []

    def recorder(T, r, col, D, k):
        shapes.extend((len(T), len(row), type(D)) for row in T)
        return _pivot(T, r, col, D, k)

    monkeypatch.setattr(linalg, "_pivot", recorder)
    root = Surd.root(2)
    for rays, kind in (([[1, -2], [3, 1], [-1, -1]], int), ([[1, -root], [3, 1], [-1, -1]], tuple)):
        shapes.clear()
        assert_same_margin(rays)
        assert shapes and set(shapes) == {(3 + 1, 2 * 2 + 2, kind)}


def small_ray_sets():
    """Every set of up to 4 rays from {-1, 0, 1}^2 \\ {0} and of up to 2
    rays from {-1, 0, 1}^3 \\ {0}, pointed or not."""
    for dim, most in ((2, 4), (3, 2)):
        rays = [r for r in product((-1, 0, 1), repeat=dim) if any(r)]
        for size in range(1, most + 1):
            yield from combinations(rays, size)


def test_every_small_margin_lp_matches_the_surd_tableau():
    # zero coordinates, opposite rays and ratio ties at every bound, swept
    # exhaustively rather than sampled
    margins = [assert_same_margin(rays)[1] for rays in small_ray_sets()]
    assert len(margins) == 8 + 28 + 56 + 70 + 26 + 325
    assert {t.sign() for t in margins} == {0, 1}


def nonzero_coordinates(rng, n, k):
    """n nonzero elements of Q(sqrt(k)), of both signs."""
    out = []
    while len(out) < n:
        x = Surd(F(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-2, 2) if k > 1 else 0, k)
        if x.sign():
            out.append(x)
    return out


@pytest.mark.parametrize("k", [1, 2, BIG_K])
@pytest.mark.parametrize("n", [1, 2, 4, MAX_DIM])
def test_one_ray_takes_one_pivot_and_a_bound_flip_per_coordinate(monkeypatch, n, k):
    # t enters through the ray row at ratio 0; then each of p_j and q_j that
    # has a positive reduced cost leaves through its own box row at ratio 1,
    # a bound flip, which the textbook tableau takes as a pivot
    calls = []

    def counting(T, r, c, D, k):
        calls.append((r, c))
        return _pivot(T, r, c, D, k)

    monkeypatch.setattr(linalg, "_pivot", counting)
    ray = nonzero_coordinates(Random(n * k), n, k)
    d, t = assert_same_margin([ray])
    assert calls == [(0, 2 * n)]
    assert d == Vector([-x.sign() for x in ray]) and t == sum((abs(x) for x in ray), Surd(0))


@pytest.mark.parametrize("k", [1, 2, BIG_K])
def test_the_simplex_stops_at_its_bound_on_steps(monkeypatch, k):
    # one ray in dim n takes n + 2 steps: the pivot, a bound flip per
    # coordinate and the step that finds no entering column; the bound is
    # the textbook tableau's count of bases, C(R + 4n + 1, R + 2n), and
    # one step fewer than the path needs is a fault, not an optimum
    n, calls = 3, []
    ray = Vector(nonzero_coordinates(Random(k), n, k))
    monkeypatch.setattr(linalg, "comb", lambda a, b: calls.append((a, b)) or n + 2)
    assert simplex_max([ray]) == surd_margin_lp([ray])
    monkeypatch.setattr(linalg, "comb", lambda a, b: calls.append((a, b)) or n + 1)
    with pytest.raises(SeparationBugError, match=f"exceeded its bound of {n + 1} simplex steps"):
        simplex_max([ray])
    assert calls == [(1 + 4 * n + 1, 1 + 2 * n)] * 2


@pytest.mark.parametrize("k", [1, 2, BIG_K])
def test_a_cycling_simplex_stops_at_its_first_repeated_basis(monkeypatch, k):
    # the faulty walk's third pivot brings back the slack basis it started
    # from, so the simplex raises there, not after its bound of
    # C(R + 4n + 1, R + 2n) steps (3432 for one ray in dim 3); the ray's
    # integer coordinates keep every division of the faulty walk exact, so
    # only the cycle can raise
    calls = []
    ray = Vector([1 + Surd.root(k), 2, 3])
    monkeypatch.setattr(linalg, "_pivot", objective_negating_pivot(calls))
    with pytest.raises(SeparationBugError, match="the margin LP revisited a basis at step 3$"):
        simplex_max([ray])
    assert len(calls) == 3


@pytest.mark.parametrize("k", [1, 2, BIG_K])
def test_a_zero_coordinate_gets_the_reference_direction(k):
    # a coordinate that is 0 in every ray never has a positive reduced cost,
    # so d*_j stays 0, as in the reference; a zero in one ray only is read
    # off the other rays
    rng = Random(k)
    for n in (2, 3, MAX_DIM):
        ray = nonzero_coordinates(rng, n, k)
        for zeros in ({0}, {n - 1}, set(range(0, n, 2))):
            r = [Surd(0) if j in zeros else x for j, x in enumerate(ray)]
            d, _ = assert_same_margin([r])
            assert all(d[j] == 0 for j in zeros)
            d, _ = assert_same_margin([r, nonzero_coordinates(rng, n, k)])


SHAPES = ("general", "parallel", "repeated", "line")


@st.composite
def barrier_lps(draw, shape=None):
    """Ray lists for margin LPs with 1-6 rays in dims 1-6 over k in {1, 2,
    1000003}.  The ray rows have right-hand side 0, so every pivot through
    them is degenerate; zero coordinates, a positive multiple of a ray, a
    repeated ray or a ray and its negative (a line: the set is not
    pointed) make ratio ties and optimal faces with more than one vertex.
    Rays whose parts are all rational take the integer path.  ``shape``
    fixes the shape; by default it is drawn."""
    k = draw(FIELD_KS)
    n = draw(st.integers(1, 6))
    coord = st.one_of(st.just(Surd(0)), field_elements(k))
    rays = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6))
    shape = shape or draw(st.sampled_from(SHAPES))
    r = rays[0]
    if shape == "parallel":
        scale = draw(field_elements(k).filter(lambda s: s.sign() > 0))
        rays.append([scale * x for x in r])
    elif shape == "repeated":
        rays.append(list(r))
    elif shape == "line":
        rays.append([-x for x in r])
    return draw(st.permutations(rays))[:6]


@settings(max_examples=100, deadline=None)
@given(barrier_lps())
def test_barrier_margin_lps_match_the_surd_tableau(rays):
    assert_same_margin(rays)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_barrier_lp_shape_matches_the_surd_tableau(shape, data):
    # each shape's ties and bound flips, whatever the draw above favours
    assert_same_margin(data.draw(barrier_lps(shape)))


def limit_part():
    """A rational with a numerator and a denominator of up to MAX_DIGITS digits."""
    top = 10**MAX_DIGITS - 1
    return st.builds(F, st.integers(-top, top), st.integers(1, top))


@st.composite
def limit_rays(draw, k):
    """7 to MAX_GENERATORS - 1 rays in dim MAX_DIM over Q(sqrt(k)), with
    parts of up to MAX_DIGITS digits; "pointed" flips every ray into the
    open halfspace <g, r> < 0 of a drawn g, "general" keeps them as drawn
    (a cone of 7 or more general rays in dim 6 often holds a line)."""
    coord = st.builds(lambda r, s: Surd(r, s, k), limit_part(), limit_part() if k > 1 else st.just(0))
    ray = st.lists(coord, min_size=MAX_DIM, max_size=MAX_DIM).map(Vector)
    rays = draw(st.lists(ray.filter(lambda r: not r.is_zero()), min_size=7, max_size=MAX_GENERATORS - 1))
    if draw(st.booleans()):
        g = Vector([draw(limit_part()) for _ in range(MAX_DIM)])
        rays = [-r if g.dot(r).sign() > 0 else r for r in rays]
    return rays


@pytest.mark.parametrize("k", [1, 2, BIG_K])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_margin_lps_at_the_parse_limits_match_the_surd_tableau(k, data):
    assert_same_margin(data.draw(limit_rays(k)))


def test_rational_rays_in_a_sqrt2_set_take_the_integer_path(monkeypatch):
    # the LP's field is the rays' own: rational rays of a set whose
    # vertices have sqrt(2) parts build no pair, so every pivot is on ints
    def int_pivot(T, r, c, D, k):
        assert type(D) is int, "a pair row was pivoted"
        return _pivot(T, r, c, D, k)

    rng = Random(3)
    for dim in (2, 4, MAX_DIM):
        root = Surd.root(2)
        rays = random_pointed_rays(rng, dim, MAX_GENERATORS - 1)
        X = VPolyhedron((Vector([root] * dim), Vector.zero(dim)), rays)
        assert X.field_k == 2 and all(r.field_k == 1 for r in rays)
        want = surd_margin_lp(rays)
        with monkeypatch.context() as m:
            m.setattr(linalg, "_pivot", int_pivot)
            assert X._ray_margin == want
            assert is_pointed(X)


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

    def oracle(rays):
        calls.append(rays)
        return surd_margin_lp(rays)

    got = barrier()
    with patch.object(sets, "simplex_max", oracle):
        want = barrier()
    assert got == want
    assert (got is None) == (not pointed)
    # the set has rays, so the barrier ran its LP through the patched
    # binding; otherwise the comparison above would set the code against itself
    assert rays and len(calls) == 1


def as_pairs(x):
    """A row of plain ints, or an int, as integer pairs; pairs as they are."""
    if isinstance(x, list):
        return [as_pairs(v) for v in x]
    return (x, 0) if type(x) is int else x


def surd_quotients(xs, d, k):
    """x / d for each pair x, by division in the field; each quotient must
    lie in Z[sqrt(k)], so that its canonical denominator is 1."""
    out = []
    for a, b in xs:
        q = Surd(a, b, k) / Surd(*d, k)
        assert q.d == 1, f"{d} does not divide {(a, b)} in Z[sqrt({k})]"
        out.append((q.a, q.b))
    return out


def spy_on_pivots(monkeypatch) -> list:
    """Patch ``linalg._pivot`` to check each pivot against the eager one,
    which rewrites every row x but the pivot row y as (p*x - f*y) / D,
    computed here by field division, and to record whether the rows were
    plain ints.  Rows of ints are checked as the pairs (x, 0) with k = 1."""
    log = []

    def spy(T, r, c, D, k):
        ints = type(D) is int
        if ints:
            assert k == 1 and all(type(x) is int for row in T for x in row)
        rows, D_ = as_pairs(T), as_pairs(D)
        y = rows[r]
        want = [
            row if i == r else surd_quotients(_pair_combination(y[c], row, row[c], y, k), D_, k)
            for i, row in enumerate(rows)
        ]
        p = _pivot(T, r, c, D, k)
        assert as_pairs(p) == y[c] and type(p) is type(D)
        assert as_pairs(T) == want
        log.append(ints)
        return p

    monkeypatch.setattr(linalg, "_pivot", spy)
    return log


@settings(max_examples=60, deadline=None)
@given(rays=barrier_lps())
def test_every_pivot_is_the_eager_pivot(rays):
    # every pivot of a margin LP, checked against the eager pivot in the spy
    with pytest.MonkeyPatch.context() as monkeypatch:
        log = spy_on_pivots(monkeypatch)
        assert_same_margin(rays)
    assert all(ints == all(Vector(r).field_k == 1 for r in rays) for ints in log)


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

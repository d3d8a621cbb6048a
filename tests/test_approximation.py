import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, example, given, strategies as st

from ratsep import (
    Certificate,
    GridSpec,
    NotPointedError,
    Surd,
    Vector,
    VPolyhedron,
    excess_measure,
    membership,
    outer_approximate,
    support_value,
)
from ratsep import approximation
from ratsep.approximation import OuterApprox, _line_forms, _narrow
from ratsep.scalars import choose_rational_between
from helpers import (
    exterior_point,
    forbid_floats,
    grid_points,
    pointwise_excess,
    rand_coord,
    rand_fraction,
    rand_rational_vector,
    rand_vector,
    random_pointed_polyhedron,
)

UNIT_SQUARE = VPolyhedron(
    (Vector([0, 0]), Vector([1, 0]), Vector([1, 1]), Vector([0, 1]))
)
GRID = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2))


@pytest.mark.parametrize(
    "mins, maxs, step",
    [((0.1, 0), (1, 1), 1), ((0, 0), ("1/3", 1), 1), ((0, 0), (1, 1), 0.5)],
)
def test_grid_spec_rejects_inexact_numbers(mins, maxs, step):
    with pytest.raises(TypeError, match="expected int or Fraction"):
        GridSpec(mins, maxs, step)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((F(0), F(0)), (F(1), F(1)), F(0))
    with pytest.raises(ValueError):
        GridSpec((F(2), F(0)), (F(1), F(1)), F(1, 2))
    assert len(list(GRID.points())) == 49
    assert GRID.shape == (7, 7)
    off_lattice = (
        GridSpec((F(-1), F(1, 3)), (F(9, 7), F(2)), F(1, 2)),
        GridSpec((F(0), F(0)), (F(0), F(5, 2)), F(1)),
        GridSpec((F(-3, 4), F(1)), (F(2, 3), F(1)), F(2, 5)),
    )
    assert [g.shape for g in off_lattice] == [(5, 4), (1, 3), (4, 1)]
    for grid in (GRID, *off_lattice):
        cols, rows = grid.shape
        assert len(list(grid.points())) == cols * rows


# (one column, one row) of each kind of off-lattice grid
GRID_KINDS = {
    "general": (False, False),
    "one row": (False, True),
    "one column": (True, False),
    "point": (True, True),
}


def off_lattice_grid(rng: Random, kind: str) -> GridSpec:
    """A grid whose corner denominators (3, 7, 9, 11) do not divide the
    step's (1, 2, 4, 5) and whose max corner is usually off the lattice;
    a side spans less than one step on a one-row or one-column grid, and
    nothing on a one-point grid (mins == maxs)."""
    step = F(rng.randint(1, 9), rng.choice([1, 2, 4, 5]))
    mins = [F(rng.randint(-40, 40), rng.choice([3, 7, 9, 11])) for _ in range(2)]
    spans = [
        0 if kind == "point"
        else step * F(rng.randint(0, 18), 19) if flat
        else step * (rng.randint(1, 8) + F(rng.randint(0, 18), 19))
        for flat in GRID_KINDS[kind]
    ]
    return GridSpec(tuple(mins), tuple(lo + d for lo, d in zip(mins, spans)), step)


@pytest.mark.parametrize("seed, kind", enumerate(GRID_KINDS))
def test_grid_points_and_shape_match_fraction_stepping(seed, kind):
    """The points and shape read off the grid's integer form equal the
    oracle that steps Fractions from the min corner."""
    rng = Random(611 + seed)
    for _ in range(50):
        grid = off_lattice_grid(rng, kind)
        expected = list(grid_points(grid))
        assert list(grid.points()) == expected
        columns, rows = len({p[0] for p in expected}), len({p[1] for p in expected})
        assert grid.shape == (columns, rows)
        assert (columns == 1, rows == 1) == GRID_KINDS[kind]


def test_outer_approx_validates_cuts():
    with pytest.raises(ValueError):
        OuterApprox(UNIT_SQUARE, (Certificate(Vector([1, 0]), F(1, 2)),))
    ray_set = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]),))
    with pytest.raises(ValueError):
        OuterApprox(ray_set, (Certificate(Vector([1, 0]), F(5)),))


def test_interior_probe_produces_no_cut():
    approx = outer_approximate(UNIT_SQUARE, [Vector([F(1, 2), F(1, 2)])], 4)
    assert approx.cuts == ()


def test_single_exterior_probe():
    probe = Vector([2, 0])
    approx = outer_approximate(UNIT_SQUARE, [probe], 1)
    assert len(approx.cuts) == 1
    assert approx.excludes(probe)
    cut = approx.cuts[0]
    for v in UNIT_SQUARE.vertices:
        assert (cut.a.dot(v) - Surd(cut.beta)).sign() <= 0


def test_compass_probes_on_a_point():
    X = VPolyhedron((Vector([0, 0]),))
    probes = [
        Vector([1, 0]), Vector([1, 1]), Vector([0, 1]), Vector([-1, 1]),
        Vector([-1, 0]), Vector([-1, -1]), Vector([0, -1]), Vector([1, -1]),
    ]
    approx = outer_approximate(X, probes, 8)
    assert len(approx.cuts) <= 8
    for p in probes:
        assert approx.excludes(p)


def test_budget_stops_cut_generation():
    probes = [Vector([2, 0]), Vector([-2, 0]), Vector([0, -2])]
    approx = outer_approximate(UNIT_SQUARE, probes, 1)
    assert len(approx.cuts) == 1


TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([1, 0]), Vector([0, 1])))
TRIANGLE_PROBES = [Vector([2, 0]), Vector([0, 2]), Vector([-1, -1]), Vector([1, 1]), Vector([-1, 3])]


@pytest.mark.parametrize(
    "budget, error",
    [(2.5, TypeError), (F(5, 2), TypeError), (True, TypeError), (1.0, TypeError), (0, ValueError)],
)
def test_budget_must_be_a_positive_int(budget, error):
    with pytest.raises(error):
        outer_approximate(TRIANGLE, TRIANGLE_PROBES, budget)
    assert len(outer_approximate(TRIANGLE, TRIANGLE_PROBES, 2).cuts) == 2


def test_outer_approximate_rejects_non_pointed():
    line = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    with pytest.raises(NotPointedError):
        outer_approximate(line, [Vector([0, 2])], 1)


@pytest.mark.parametrize("reverse", [False, True])
def test_outer_approximate_rejects_a_probe_from_another_field(reverse):
    # the cut made for (3, 3) also excludes (3 + sqrt 3, 3), so the second
    # probe is rejected by its field, not only when membership tests it
    X = VPolyhedron((Vector([0, 0]), Vector([Surd.root(2), 0]), Vector([0, 1])))
    probes = [Vector([3, 3]), Vector([3 + Surd.root(3), 3])]
    assert outer_approximate(X, probes[:1], 8).excludes(probes[1])
    with pytest.raises(ValueError, match=r"cannot mix sqrt\(3\) and sqrt\(2\)"):
        outer_approximate(X, probes[::-1] if reverse else probes, 8)


def test_excess_zero_cuts_unit_square():
    approx = OuterApprox(UNIT_SQUARE, ())
    assert excess_measure(UNIT_SQUARE, approx, GRID) == F(40, 49)


def test_excess_zero_when_cuts_box_the_square():
    cuts = (
        Certificate(Vector([1, 0]), F(1)),
        Certificate(Vector([-1, 0]), F(0)),
        Certificate(Vector([0, 1]), F(1)),
        Certificate(Vector([0, -1]), F(0)),
    )
    approx = OuterApprox(UNIT_SQUARE, cuts)
    assert excess_measure(UNIT_SQUARE, approx, GRID) == 0


def test_excess_dimension_check():
    X3 = VPolyhedron((Vector([0, 0, 0]),))
    from ratsep import DimensionMismatchError

    with pytest.raises(DimensionMismatchError, match="2-D only"):
        excess_measure(X3, OuterApprox(X3, ()), GRID)
    # a 3-D set with a 2-D target
    with pytest.raises(DimensionMismatchError, match="2-D only"):
        excess_measure(X3, OuterApprox(UNIT_SQUARE, ()), GRID)
    # a 2-D set whose line forms are already kept, against a 3-D target: the
    # check runs on every call, before any kept form is read
    X = VPolyhedron(UNIT_SQUARE.vertices)
    assert excess_measure(X, OuterApprox(X, ()), GRID) == F(40, 49)
    assert vars(X)["_line_forms"]
    with pytest.raises(DimensionMismatchError, match="2-D only"):
        excess_measure(X, OuterApprox(X3, ()), GRID)


def random_set(rng: Random, k: int, shape: str) -> VPolyhedron:
    """A polytope, a set with rays, a point, or a horizontal or vertical
    segment, over Q(sqrt(k))."""
    if shape == "polytope":
        return random_pointed_polyhedron(rng, 2, k, rng.randint(1, 4), 0)
    if shape == "rays":
        return random_pointed_polyhedron(rng, 2, k, rng.randint(1, 3), rng.randint(1, 2))
    v = rand_vector(rng, 2, k)
    if shape == "point":
        return VPolyhedron((v,))
    d = rand_coord(rng, k)
    while not d:
        d = rand_coord(rng, k)
    step = Vector([d, 0]) if shape == "horizontal" else Vector([0, d])
    return VPolyhedron((v, v + step))


def random_cut(rng: Random, target: VPolyhedron) -> Certificate | None:
    """A cut containing target, often tight on it, sometimes with a_y = 0
    or a_x = 0 (a bound that holds on all of a grid line or on none)."""
    a = rand_rational_vector(rng, 2)
    if rng.random() < 0.3:
        a = Vector([a[0], 0]) if rng.random() < 0.5 else Vector([0, a[1]])
    if a.is_zero():
        return None
    sv = support_value(target, a)
    if not sv.is_finite:
        return None
    beta = sv.value.r if sv.value.is_rational else choose_rational_between(sv.value, sv.value + 1)
    if rng.random() < 0.5:
        beta += abs(rand_fraction(rng, 1))
    return Certificate(a, beta)


def random_grid(rng: Random, X: VPolyhedron, unrelated: bool = False) -> GridSpec:
    """A small grid whose lattice often runs through a rational vertex of X
    and whose max corner is usually off the lattice.  With ``unrelated``,
    the step and the two corner coordinates have pairwise unrelated
    denominators (step 2/7, mins 1/3 and -5/6, say)."""
    if unrelated:
        step = rng.choice([F(2, 7), F(3, 5), F(5, 11)])
        mins = [rand_fraction(rng, 2, dens=(3, 13)), rand_fraction(rng, 2, dens=(6, 17))]
        maxs = [lo + step * rng.randint(0, 12) + F(rng.randint(0, 3), 19) for lo in mins]
        return GridSpec(tuple(mins), tuple(maxs), step)
    step = rng.choice([F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(1)])
    v = X.vertices[0]
    mins = [
        c.r - step * rng.randint(0, 6) if c.is_rational and rng.random() < 0.7
        else rand_fraction(rng, 2)
        for c in v
    ]
    maxs = [lo + step * rng.randint(0, 12) + step * F(rng.randint(0, 3), 4) for lo in mins]
    return GridSpec(tuple(mins), tuple(maxs), step)


@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 1000003]),
    st.sampled_from(["polytope", "rays", "point", "horizontal", "vertical"]),
    st.booleans(),
    st.booleans(),
)
def test_excess_matches_pointwise_oracle(seed, k, shape, wider_target, unrelated):
    rng = Random(seed)
    X = random_set(rng, k, shape)
    target = X
    if wider_target:
        target = VPolyhedron((*X.vertices, exterior_point(rng, X)), X.rays)
    cuts = [cut for cut in (random_cut(rng, target) for _ in range(rng.randint(0, 4))) if cut]
    approx = OuterApprox(target, tuple(cuts))
    grid = random_grid(rng, X, unrelated)
    with forbid_floats():
        excess = excess_measure(X, approx, grid)
    assert excess == pointwise_excess(X, approx, grid)


line_parts = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(2**64, 2**70)),
)
BEYOND = 10**120


def surd_quotient_bound(a_s, a_t, b, mins, step, axes, i) -> tuple:
    """The bound of <a, p> <= b on line i, with Surds: floor(q) or ceil(q)
    for q = (b - a_s*(mins_s + h*i) - a_t*mins_t) / (a_t*h), by the sign
    of a_t."""
    s, t = axes
    q = (b - a_s * (mins[s] + step * i) - a_t * mins[t]) / (a_t * step)
    if a_t.sign() > 0:
        return -BEYOND, math.floor(q)
    return math.ceil(q), BEYOND


def narrowed(forms, mins, step, axes, i, k) -> tuple:
    """The range of line i that the one line form keeps, on a one-point
    grid at mins."""
    g, H, corner = GridSpec(tuple(mins), tuple(mins), step)._lattice
    s, t = axes
    return _narrow(forms, (g, corner[s] + H * i, corner[t], H), -BEYOND, BEYOND, k)


line_grids = (
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=2, max_size=2),
    st.sampled_from([F(1), F(2, 7), F(5, 3), F(1, 2**65)]),
    st.sampled_from([(0, 1), (1, 0)]),
    st.integers(-40, 40),
)


@given(st.sampled_from([1, 2, 1000003]), st.lists(line_parts, min_size=6, max_size=6), *line_grids)
@example(2, [F(1), F(3), F(-1, 3), F(0), F(1), F(1)], [F(1, 3), F(-5, 6)], F(2, 7), (0, 1), 3)
@example(2, [F(0), F(1), F(1), F(-1), F(5, 2), F(-1, 4)], [F(0), F(0)], F(1), (1, 0), -7)
@example(1000003, [F(2), F(-1), F(0), F(-1), F(-3), F(1)], [F(1, 3), F(1, 5)], F(5, 3), (0, 1), 11)
@example(1, [F(2), F(0), F(-3, 2), F(0), F(7, 4), F(0)], [F(-1, 2), F(1, 3)], F(2, 7), (1, 0), 5)
# rational quotients -777/25 (a floor) and -461/120 (a ceiling), read
# inline in two floor divisions that a rounding toward zero would each
# move: the line's integer coordinate is bounded by -762/5 and 379/20,
# and the point index by -156/5 and -23/6
@example(2, [F(-3), F(0), F(1), F(0), F(1, 5), F(0)], [F(1), F(-2)], F(5, 3), (1, 0), -9)
@example(1000003, [F(3, 4), F(0), F(-5), F(0), F(-7, 3), F(0)], [F(7, 3), F(2)], F(2, 7), (0, 1), 2)
def test_line_bound_is_the_floor_or_ceil_of_the_surd_quotient(k, parts, mins, step, axes, i):
    """On line i the bound of <a, p> <= b, from the line form of its
    integer row, is the floor or ceiling of the Surd quotient: divisors
    are negative and irrational here too.  The row is <a, p> <= b times
    a.m*b.d > 0, a row of integer pairs as a set's facets are."""
    a_s, a_t, b = (Surd(r, s, k) for r, s in zip(parts[::2], parts[1::2]))
    assume(a_t)
    a = [None, None]
    a[axes[0]], a[axes[1]] = a_s, a_t
    a = Vector(a)
    row = ([(x * b.d, y * b.d) for x, y in a.pairs], (b.a * a.m, b.b * a.m))
    with forbid_floats():
        got = narrowed(_line_forms([row], axes, k), mins, step, axes, i, k)
        expected = surd_quotient_bound(a_s, a_t, b, mins, step, axes, i)
    assert got == expected


@given(st.sampled_from([1, 2, 1000003]), st.lists(line_parts, min_size=3, max_size=3), *line_grids)
@example(2, [F(1), F(-1, 3), F(1)], [F(1, 3), F(-5, 6)], F(2, 7), (0, 1), 3)
@example(1000003, [F(2), F(-1), F(-3)], [F(1, 3), F(1, 5)], F(5, 3), (0, 1), 11)
@example(1, [F(2), F(-3, 2), F(7, 4)], [F(-1, 2), F(1, 3)], F(2, 7), (1, 0), 5)
# the rational examples above as cuts: quotients -777/25 (a floor) and
# -461/120 (a ceiling)
@example(2, [F(-3), F(1), F(1, 5)], [F(1), F(-2)], F(5, 3), (1, 0), -9)
@example(1000003, [F(3, 4), F(-5), F(-7, 3)], [F(7, 3), F(2)], F(2, 7), (0, 1), 2)
def test_cut_line_bound_is_the_floor_or_ceil_of_the_quotient(k, parts, mins, step, axes, i):
    """The same oracle for a rational cut <a, p> <= beta, whose line form
    is built from its integer form ``cleared`` with k = 1; the set's
    field k only enters the floor."""
    a_s, a_t, beta = parts
    assume(a_t)
    a = [None, None]
    a[axes[0]], a[axes[1]] = a_s, a_t
    cut = Certificate(Vector(a), beta)
    with forbid_floats():
        got = narrowed(_line_forms([cut.cleared], axes, 1), mins, step, axes, i, k)
        expected = surd_quotient_bound(Surd(a_s), Surd(a_t), Surd(beta), mins, step, axes, i)
    assert got == expected


@pytest.mark.parametrize("maxs", [(F(1), F(49999)), (F(49999), F(1))])
def test_excess_counts_lines_along_the_shorter_side(monkeypatch, maxs):
    grid = GridSpec((F(0), F(0)), maxs, F(1))
    assert sorted(grid.shape) == [2, 50000]
    calls = []
    narrow = approximation._narrow
    monkeypatch.setattr(approximation, "_narrow", lambda *args: calls.append(args) or narrow(*args))
    approx = OuterApprox(UNIT_SQUARE, (Certificate(Vector([1, 1]), F(2)),))
    # inside the cut x + y <= 2: 5 grid points, 4 of them in the square
    assert excess_measure(UNIT_SQUARE, approx, grid) == F(1, 100000)
    # on this grid g = H = 1 and the corner is 0, so a line's x is its index
    assert {x for _, (_, x, _, _), *_ in calls} == {0, 1} and len(calls) <= 2 * 2


@pytest.mark.parametrize("transpose", [False, True])
def test_excess_walks_the_shorter_side_and_matches_the_oracle(monkeypatch, transpose):
    # 300 x 2 and 2 x 300: two lines of 300 points whichever axis is long
    X = VPolyhedron((Vector([0, 0]), Vector([Surd.root(2), 0]), Vector([0, 1])))
    approx = outer_approximate(X, GRID.points(), 3)
    mins, maxs = (F(-1, 2), F(1, 4)), (F(-1, 2) + F(299, 150), F(1, 4) + F(1, 150))
    if transpose:
        mins, maxs = mins[::-1], maxs[::-1]
    grid = GridSpec(mins, maxs, F(1, 150))
    assert sorted(grid.shape) == [2, 300]
    calls = []
    narrow = approximation._narrow
    monkeypatch.setattr(approximation, "_narrow", lambda *args: calls.append(args) or narrow(*args))
    excess = excess_measure(X, approx, grid)
    g, H, corner = grid._lattice
    s = 0 if grid.shape[0] == 2 else 1
    assert {(x - corner[s]) // H for _, (_, x, _, _), *_ in calls} == {0, 1} and len(calls) <= 2 * 2
    assert excess == pointwise_excess(X, approx, grid) > 0


def test_excess_monotone_in_cuts():
    probes = [Vector([2, 0]), Vector([0, 2]), Vector([-1, -1]), Vector([2, 2])]
    approx = outer_approximate(UNIT_SQUARE, probes, 4)
    previous = excess_measure(UNIT_SQUARE, OuterApprox(UNIT_SQUARE, ()), GRID)
    for j in range(1, len(approx.cuts) + 1):
        current = excess_measure(
            UNIT_SQUARE, OuterApprox(UNIT_SQUARE, approx.cuts[:j]), GRID
        )
        assert current <= previous
        previous = current


def test_run_soundness_and_progress():
    rng = Random(71)
    for _ in range(5):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, rng.randint(0, 2))
        probes = [exterior_point(rng, P, F(s)) for s in (1, 2, 3)]
        approx = outer_approximate(P, probes, len(probes))
        for cut in approx.cuts:
            for v in P.vertices:
                assert (cut.a.dot(v) - Surd(cut.beta)).sign() <= 0
            for r in P.rays:
                assert cut.a.dot(r).sign() <= 0
        for p in probes:
            assert membership(P, p) or approx.excludes(p)


def test_outer_approximate_tests_the_newest_cut_first(monkeypatch):
    """On the README triangle's 1/2-grid probes, every probe tested while
    cuts exist is tested first against the newest cut, by the loop and by
    ``OuterApprox.excludes``, and the cuts are those of a loop that tests
    the oldest cut first."""
    X = VPolyhedron((Vector([0, 0]), Vector([Surd.root(2), 0]), Vector([0, 1])))
    probes = list(GRID.points())
    reference = []
    for p in probes:
        if not any(cut.excludes(p) for cut in reference) and not membership(X, p):
            reference.append(approximation.separate(X, p)[0])
    made, calls = [], []
    excludes, separating = Certificate.excludes, approximation.separate

    def recording_excludes(cut, p):
        calls.append((p, cut, len(made)))
        return excludes(cut, p)

    def recording_separate(X, p):
        cert, trace = separating(X, p)
        made.append((p, cert))
        return cert, trace

    monkeypatch.setattr(Certificate, "excludes", recording_excludes)
    monkeypatch.setattr(approximation, "separate", recording_separate)
    approx = outer_approximate(VPolyhedron(X.vertices), probes, budget=50)
    assert approx.cuts == tuple(reference) and len(reference) > 2
    firsts = {}
    for p, cut, count in calls:
        firsts.setdefault(p, (cut, count))
    assert list(firsts) == probes[probes.index(made[0][0]) + 1:]
    assert all(cut is made[count - 1][1] for cut, count in firsts.values())
    calls.clear()
    assert approx.excludes(probes[0]) and calls[0][1] is approx.cuts[-1]


def test_excess_builds_the_set_forms_once_per_set_and_axis_order(monkeypatch):
    """Repeated calls on one set, over grids along rows and along columns,
    over each column of a grid and over every cut prefix, equal the
    pointwise oracle, while line forms are built once per set object and
    axis order and once per approximation object and axis order: a set's
    build has its field k = 2 and its 3 facets, and the build of the
    prefix of j cuts has k = 1 and j cuts."""
    built = []
    line_forms = approximation._line_forms

    def counting(halfspaces, axes, k):
        built.append((k, len(halfspaces), axes))
        return line_forms(halfspaces, axes, k)

    monkeypatch.setattr(approximation, "_line_forms", counting)
    X = VPolyhedron((Vector([0, 0]), Vector([Surd.root(2), 0]), Vector([0, 1])))
    approx = outer_approximate(X, GRID.points(), 6)
    assert len(approx.cuts) == 6
    prefixes = [OuterApprox(X, approx.cuts[:j]) for j in range(len(approx.cuts) + 1)]
    rows = GridSpec((F(-1), F(-1)), (F(2), F(0)), F(1, 3))  # 10 x 4: lines along x
    columns = GridSpec((F(-1), F(-1)), (F(0), F(2)), F(1, 3))  # 4 x 10: lines along y
    one_column = [GridSpec((F(x, 2), F(-1)), (F(x, 2), F(2)), F(1, 2)) for x in range(-2, 5)]
    for _ in range(2):
        for grid in (rows, columns, GRID, *one_column):
            for prefix in prefixes:
                assert excess_measure(X, prefix, grid) == pointwise_excess(X, prefix, grid)
    both = [(1, 0), (0, 1)]
    expected = [(2, 3, axes) for axes in both]
    expected += [(1, j, axes) for j in range(len(prefixes)) for axes in both]
    assert sorted(built) == sorted(expected)
    same = VPolyhedron(X.vertices)
    excess_measure(same, OuterApprox(same, approx.cuts), rows)
    assert sorted(built) == sorted([*expected, (2, 3, (1, 0)), (1, 6, (1, 0))])

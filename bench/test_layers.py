"""Per-layer timings of the set operations, the pipeline stages and the
approximation loop.

    pytest bench/test_layers.py --benchmark-json=BENCH_layers.json

pytest-benchmark times each case; the tier-1 suite (``tests/``) does not
collect this file.  The sets are the README triangle
conv{(0,0), (sqrt2,0), (0,1)}, a 2-D and a 3-D set with rays over
Q(sqrt 2), and a triangle over Q(sqrt 1000003).  A set object keeps its
last projection, its margin LP, its facet description and its
excess-measure line forms, and an approximation keeps its cuts' line
forms, so the cases that measure one call on a new set build a fresh,
equal set in each round's set-up, outside the timed call, as a parsed
instance is.  The layers below the set operations are timed on fixed
operands: ``Surd`` arithmetic over the benchmark's big field
Q(sqrt 1000003), and exact Gram solves of the projection, on the 3-D
set with rays and at the parse limits, each timed as one
``sets._face_point`` call, which builds the Gram system from the
generators' pairs, solves it and makes the nearest point and its
weights.

The five stages of ``separate`` (project, barrier, bound, wedge,
witness) are timed one at a time on the inputs that one ``separate`` run
gave them, as that run's trace records them, for the README triangle's
probe (3/2, 3/2), for the 3-D set with rays and for a triangle over
Q(sqrt 1000003) with no rays.  The bound stage reads the set and the
projection z, as ``separate`` passes them, and never builds the moved
set X - z.  Each round's set-up builds a fresh set and runs ``is_pointed``
on it, as validation does before every stage: the margin LP is timed
by its own case, and the projection is timed by the project stage, not
read back from the memo that validation's ``membership`` call would
leave.

The excess measure reads each halfspace's line form on every grid
line.  It is timed on one grid column, the unit of the benchmark's
sweep, with the line forms kept from an untimed first call, and on a
grid of close to ``MAX_GRID_POINTS`` points in one call that builds
them, as the CLI's ``approximate`` runs it.  The approximation loop is
timed over the README instance's probes and over the 200 probes of the
benchmark's unshifted triangle sweep, and the test of one probe against
one stored cut, ``Certificate.excludes``, on a rational probe and on
one with sqrt(2) parts.  The test of one cut
against a set, ``Certificate.contains``, is timed on the triangle and
on the 3-D set with rays, and the making of every ``OuterApprox``
prefix of the sweep's cuts, each with its cuts' line forms, as the
sweep makes them.  ``render_svg`` is timed on the triangle with the
sweep's cuts and its first probe.

A shared machine's speed drifts, and the same code can read up to ~1.7x
apart between runs; within one run the machine can flip between two
speeds.  So each case times a fixed Fraction loop, the speed probe,
right after every round (``timed``), and stores in ``extra_info`` the
median probe time ``probe_us`` and the median over the rounds of each
round's time over its own probe, ``median_per_probe``, which a flip
between the rounds moves less than it moves either median alone.
Compare two runs by ``median_per_probe``, or scale a run's medians to a
reference probe time P by multiplying them by P / ``probe_us``; raw
medians of two runs compare only when their ``probe_us`` agree.
"""

import gc
import statistics
from fractions import Fraction as F
from random import Random
from time import perf_counter

import pytest

from ratsep import Certificate, GridSpec, Surd, Vector, VPolyhedron, is_pointed, membership
from ratsep import project, render_svg, separate, support_value
from ratsep.approximation import OuterApprox, _forms, excess_measure, outer_approximate
from ratsep.scalars import choose_rational_between, rational_in_ball
from ratsep.separation import (
    bound_support_on_ball,
    compute_wedge_parameters,
    find_barrier_direction,
    wedge_interior_ball,
)
from ratsep.serialization import MAX_DIGITS, MAX_GRID_POINTS
from ratsep.sets import _face_point

SQ2 = Surd.root(2)
TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))
RAYS_3D = VPolyhedron(
    (Vector([0, 0, 0]), Vector([2, SQ2, 0]), Vector([0, 1, 3]), Vector([1, 1, 1])),
    (Vector([1, 0, 1]), Vector([0, 1, 2])),
)
RAYS_2D = VPolyhedron((Vector([0, 0]), Vector([SQ2, 1])), (Vector([1, 0]), Vector([1, 2])))
BIG_K = 1000003
BIGK_TRIANGLE = VPolyhedron(
    (
        Vector([Surd(1, F(1, 2), BIG_K), 2]),
        Vector([-1, Surd(0, -1, BIG_K)]),
        Vector([Surd(F(3, 2), F(-1, 2), BIG_K), F(1, 3)]),
    )
)
# the probes of the README's instance file
README_PROBES = [
    Vector([F(3, 2), F(3, 2)]),
    Vector([F(-1, 2), F(1, 2)]),
    Vector([F(1, 2), F(-1, 2)]),
    Vector([2, 0]),
    Vector([0, 2]),
]
# rounds per case; a case of a few microseconds times 10 or 100 calls
# per round, so that each round stays well above the timer's resolution
ROUNDS = 200


def fresh(P: VPolyhedron) -> VPolyhedron:
    return VPolyhedron(P.vertices, P.rays)


def speed_probe_s() -> float:
    """Seconds taken by a fixed loop of Fraction sums with growing
    denominators, with the garbage collector off: the loop of
    ``perfbench``'s speed probe."""
    gc.disable()
    try:
        t0 = perf_counter()
        total = F(0)
        for i in range(1, 600):
            total += F(1, i % 97 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def timed(benchmark, run, args=(), setup=None, iterations=1):
    """``benchmark.pedantic`` of run over ``ROUNDS`` rounds with one speed
    probe right after each round, and in ``extra_info`` the median probe
    and the median ratio of a round's time to its probe."""
    probes = []
    result = benchmark.pedantic(
        run,
        args,
        setup=setup,
        teardown=lambda *_: probes.append(speed_probe_s()),
        rounds=ROUNDS,
        iterations=iterations,
    )
    if benchmark.stats is not None:
        ratios = [t / probe for t, probe in zip(benchmark.stats.stats.data, probes)]
        benchmark.extra_info["probe_us"] = float(f"{statistics.median(probes) * 1e6:.6g}")
        benchmark.extra_info["median_per_probe"] = float(f"{statistics.median(ratios):.6g}")
    return result


# (set, exterior point), each nearest point inside an edge, so that the
# projection makes a Gram solve
POINTS = {
    "triangle_edge": (TRIANGLE, Vector([1, 1])),
    "rays_3d": (RAYS_3D, Vector([-1, 2, -3])),
}


@pytest.mark.parametrize("case", POINTS)
def test_membership_then_project(benchmark, case):
    """``membership`` then ``project`` on one point of a new set, as
    ``separate`` validates and then projects."""
    P, y = POINTS[case]

    def both(X):
        return membership(X, y), project(X, y)

    inside, z = timed(benchmark, both, setup=lambda: ((fresh(P),), {}))
    assert not inside and z != y


# (set, exterior point) of the stage cases: the README instance's first
# probe, the 3-D set's point of ``POINTS`` and a point off a triangle
# over the benchmark's big field with no rays, as in its separate_bigk
# workload; each nearest point lies inside an edge
STAGE_POINTS = {
    "triangle": (TRIANGLE, README_PROBES[0]),
    "rays_3d": POINTS["rays_3d"],
    "bigk": (BIGK_TRIANGLE, Vector([0, 600])),
}


def validated(P: VPolyhedron) -> VPolyhedron:
    X = fresh(P)
    assert is_pointed(X)
    return X


def wedge(y_bar, M, d, eps):
    """The wedge stage: its parameters, then the ball inside the wedge."""
    _, d_bar, eps_bar, delta_hat = compute_wedge_parameters(y_bar, M, d, eps)
    return wedge_interior_ball(y_bar, d_bar, eps_bar, delta_hat)


def witness(X, y, center, radius):
    """The witness stage: a rational normal in the wedge's ball, its
    support value on X and a rational offset below <a, y>."""
    a = rational_in_ball(center, radius)
    return a, choose_rational_between(support_value(X, a).value, a.dot(y))


@pytest.mark.parametrize("case", STAGE_POINTS)
@pytest.mark.parametrize("stage", ["project", "barrier", "bound", "wedge", "witness"])
def test_pipeline_stage(benchmark, stage, case):
    """One stage of ``separate`` on the inputs a ``separate`` run gave it,
    on a fresh set whose pointedness is already decided."""
    P, y = STAGE_POINTS[case]
    cert, tr = separate(fresh(P), y)
    run, inputs, expected = {
        "project": (project, lambda X: (X, y), tr.z_tilde),
        "barrier": (find_barrier_direction, lambda X: (X,), (tr.d, tr.eps)),
        "bound": (bound_support_on_ball, lambda X: (X, tr.z_tilde, tr.d, tr.eps), tr.M),
        "wedge": (
            wedge,
            lambda X: (tr.y_bar, tr.M, tr.d, tr.eps),
            (tr.lam, tr.ball_center, tr.ball_radius),
        ),
        "witness": (
            witness, lambda X: (X, y, tr.ball_center, tr.ball_radius), (cert.a, cert.beta)
        ),
    }[stage]
    result = timed(benchmark, run, setup=lambda: (inputs(validated(P)), {}))
    assert result == expected


@pytest.fixture(scope="module")
def exterior_probes():
    """The exterior points of the triangle on the coarse 1/5 grid of
    [-1, 2]^2, x-major: the probes of the outer-approximation experiment
    (scripts/); the first 200 are the probes of the benchmark's unshifted
    triangle sweep."""
    coarse = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 5))
    return [p for p in coarse.points() if not membership(TRIANGLE, p)]


@pytest.fixture(scope="module")
def experiment_cuts(exterior_probes):
    """The cuts of the outer-approximation experiment (scripts/), 11 of them."""
    return outer_approximate(fresh(TRIANGLE), exterior_probes, budget=200).cuts


@pytest.mark.parametrize("count", [0, 5, 10])
def test_excess_measure_on_a_grid_column(benchmark, experiment_cuts, count):
    """One x = 1/2 column of the experiment's 1/20 grid, the unit of the
    benchmark's excess sweep, with the first ``count`` cuts, on one set
    and one approximation, which keep their line forms from an untimed
    first call, as the sweep passes one cut prefix to every column."""
    X = fresh(TRIANGLE)
    approx = OuterApprox(X, experiment_cuts[:count])
    column = GridSpec((F(1, 2), F(-1)), (F(1, 2), F(2)), F(1, 20))
    excess_measure(X, approx, column)
    excess = timed(benchmark, excess_measure, (X, approx, column), iterations=10)
    assert 0 <= excess <= 1


def test_excess_measure_on_the_largest_grid(benchmark, experiment_cuts):
    """The experiment's 11 cuts on a 316 x 316 grid of [-1, 2]^2, close
    to ``MAX_GRID_POINTS``, in one call on a fresh set and an
    approximation of fresh cuts, as the CLI's ``approximate`` makes
    them: the call builds every line form it reads."""
    grid = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 105))
    assert grid.shape == (316, 316) and 316 * 316 <= MAX_GRID_POINTS

    def setup():
        X = fresh(TRIANGLE)
        cuts = [Certificate(cut.a, cut.beta) for cut in experiment_cuts]
        return (X, OuterApprox(X, cuts), grid), {}

    assert timed(benchmark, excess_measure, setup=setup) == F(1445, 49928)


def test_outer_approximate_readme_probes(benchmark):
    """``outer_approximate`` over the README instance's probes, budget 8,
    on a new set."""
    approx = timed(
        benchmark, outer_approximate, setup=lambda: ((fresh(TRIANGLE), README_PROBES, 8), {})
    )
    assert all(approx.excludes(p) for p in README_PROBES)


def test_outer_approximate_sweep_probes(benchmark, exterior_probes):
    """``outer_approximate`` over the 200 probes of the benchmark's
    unshifted triangle sweep, budget 200, on a new set: most probes are
    skipped by a stored cut, so the case times the cut tests as well as
    the separations."""
    probes = exterior_probes[:200]
    approx = timed(
        benchmark, outer_approximate, setup=lambda: ((fresh(TRIANGLE), probes, 200), {})
    )
    assert all(approx.excludes(p) for p in probes)


# a rational probe and one with sqrt(2) parts, both on the far side of
# the experiment's last cut
CUT_PROBES = {"rational": Vector([2, 2]), "sqrt2": Vector([2 + SQ2, 1 + SQ2])}


@pytest.mark.parametrize("probe", CUT_PROBES)
def test_certificate_excludes(benchmark, experiment_cuts, probe):
    """``Certificate.excludes``, the test of a probe against one stored
    cut, for the experiment's last cut."""
    cut, p = experiment_cuts[-1], CUT_PROBES[probe]
    assert timed(benchmark, cut.excludes, (p,), iterations=100)


# a cut through the origin that holds the 3-D set with rays
RAYS_3D_CUT = Certificate(Vector([-1, F(-1, 3), F(-1, 2)]), 0)


@pytest.mark.parametrize("case", ["triangle", "rays_3d"])
def test_certificate_contains(benchmark, experiment_cuts, case):
    """``Certificate.contains``, the test of a cut against a set that an
    ``OuterApprox`` makes for each of its cuts: the experiment's last cut
    on the triangle, and a cut through the origin on the 3-D set with
    rays."""
    X, cut = {"triangle": (TRIANGLE, experiment_cuts[-1]), "rays_3d": (RAYS_3D, RAYS_3D_CUT)}[case]
    assert timed(benchmark, cut.contains, (X,), iterations=100)


def test_outer_approx_prefixes(benchmark, exterior_probes):
    """Every ``OuterApprox`` prefix of the cuts of the benchmark's
    unshifted triangle sweep, each with its cuts' line forms for grid
    columns, as the sweep makes them before a prefix's first column."""
    X = fresh(TRIANGLE)
    cuts = outer_approximate(X, exterior_probes[:200], budget=200).cuts

    def prefixes():
        return [_forms(OuterApprox(X, cuts[:j]), (0, 1)) for j in range(len(cuts) + 1)]

    forms = timed(benchmark, prefixes)
    assert [len(f) for f in forms] == list(range(len(cuts) + 1))


def test_render_svg(benchmark, exterior_probes):
    """``render_svg`` of the triangle with the cuts of the benchmark's
    unshifted triangle sweep, every one of which meets the viewport, and
    the sweep's first probe."""
    cuts = outer_approximate(fresh(TRIANGLE), exterior_probes[:200], budget=200).cuts
    doc = timed(benchmark, render_svg, (TRIANGLE, cuts, exterior_probes[0]), iterations=10)
    assert doc.count('class="cut"') == len(cuts) == 11


def test_facet_description_with_rays(benchmark):
    """The double description of a new 2-D set with rays."""
    description = timed(
        benchmark, lambda X: X.facet_description, setup=lambda: ((fresh(RAYS_2D),), {})
    )
    assert len(description.facets) == 2


# the 3-D set's rays are rational, so its margin LP runs on plain ints;
# the same set with one ray's z-coordinate sqrt(2) runs it on pairs
MARGIN_LP_SETS = {
    "rational": RAYS_3D,
    "sqrt2": VPolyhedron(RAYS_3D.vertices, (Vector([1, 0, SQ2]), RAYS_3D.rays[1])),
}


@pytest.mark.parametrize("case", MARGIN_LP_SETS)
def test_is_pointed_margin_lp(benchmark, case):
    """``is_pointed`` on a new 3-D set with rays: one margin LP, the
    simplex's layer, on ints for rational rays and on pairs otherwise."""
    P = MARGIN_LP_SETS[case]
    assert (P.rays[0].field_k == 1) == (case == "rational")
    pointed = timed(benchmark, is_pointed, setup=lambda: ((fresh(P),), {}))
    assert pointed


def test_support_value(benchmark):
    """``support_value`` on the 3-D set with rays, for a direction in the
    polar of its ray cone, so that every vertex is compared."""
    a = Vector([-1, F(-1, 3), SQ2 - 2])
    sv = timed(benchmark, support_value, (RAYS_3D, a), iterations=10)
    assert sv.is_finite


def limit_vector(rng: Random, dim: int) -> Vector:
    """A vector over Q(sqrt 999999999998), the largest field the parser
    accepts, whose every r and s part has a ``MAX_DIGITS``-digit numerator
    and denominator."""

    def part():
        lo, hi = 10 ** (MAX_DIGITS - 1), 10**MAX_DIGITS - 1
        return F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))

    return Vector([Surd(part(), part(), 999999999998) for _ in range(dim)])


_LIMITS = Random(6)
# (vertices, rays, y, calls per round): two vertices and both rays of the
# 3-D set, and 7 vertices in dimension 6 at the parse limits, whose 6 x 6
# Gram system is the largest a corral of a parsed set makes
GRAM_SYSTEMS = {
    "rays_3d": (RAYS_3D.vertices[1:3], RAYS_3D.rays, Vector([-1, 2, -3]), 10),
    "limits_6d": ([limit_vector(_LIMITS, 6) for _ in range(7)], (), limit_vector(_LIMITS, 6), 1),
}


@pytest.mark.parametrize("case", GRAM_SYSTEMS)
def test_gram_solve(benchmark, case):
    """One exact Gram solve of the projection, ``sets._face_point``, from
    the generators' pairs to the nearest point z of their affine hull and
    its weights, integer pairs over one denominator, checked by z = sum of
    the weights times the generators, the vertex weights summing to 1,
    and y - z orthogonal to the hull."""
    vertices, rays, y, iterations = GRAM_SYSTEMS[case]
    z, pairs, den = timed(benchmark, _face_point, (y, vertices, rays), iterations=iterations)
    gens = [*vertices, *rays]
    k = max(g.field_k for g in gens)  # each case has one irrational field
    weights = [Surd._make(a, b, den, k) for a, b in pairs]
    assert sum((w * g for w, g in zip(weights[1:], gens[1:])), weights[0] * gens[0]) == z
    assert sum(weights[1 : len(vertices)], weights[0]) == 1
    assert all((y - z).dot(u) == 0 for u in [v - vertices[0] for v in vertices[1:]] + list(rays))


SURD_A = Surd(F(-31, 7), F(5, 11), BIG_K)
SURD_B = Surd(F(17, 3), F(-2, 13), BIG_K)


@pytest.mark.parametrize("op", ["mul", "div", "sign"])
def test_surd_arithmetic(benchmark, op):
    """``Surd`` mul, div and sign on two fixed operands over Q(sqrt 1000003)."""
    a, b = SURD_A, SURD_B
    run = {"mul": lambda: a * b, "div": lambda: a / b, "sign": a.sign}[op]
    result = timed(benchmark, run, iterations=100)
    assert result == {"mul": a * b, "div": a / b, "sign": 1}[op]

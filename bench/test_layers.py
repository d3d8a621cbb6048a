"""Per-layer timings of the set operations and the approximation loop.

    pytest bench/test_layers.py --benchmark-json=BENCH_layers.json

pytest-benchmark times each case; the tier-1 suite (``tests/``) does not
collect this file.  The sets are the README triangle
conv{(0,0), (sqrt2,0), (0,1)} and a 3-D set with rays over Q(sqrt 2).
A set object keeps its last projection and its excess-measure line forms,
so the cases that measure one call on a new set build a fresh, equal set
in each round's set-up, outside the timed call, as a parsed instance is.
"""

from fractions import Fraction as F

import pytest

from ratsep import GridSpec, Surd, Vector, VPolyhedron, membership, project
from ratsep.approximation import OuterApprox, excess_measure, outer_approximate

SQ2 = Surd.root(2)
TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))
RAYS_3D = VPolyhedron(
    (Vector([0, 0, 0]), Vector([2, SQ2, 0]), Vector([0, 1, 3]), Vector([1, 1, 1])),
    (Vector([1, 0, 1]), Vector([0, 1, 2])),
)
# the probes of the README's instance file
README_PROBES = [
    Vector([F(3, 2), F(3, 2)]),
    Vector([F(-1, 2), F(1, 2)]),
    Vector([F(1, 2), F(-1, 2)]),
    Vector([2, 0]),
    Vector([0, 2]),
]
ROUNDS = 200


def fresh(P: VPolyhedron) -> VPolyhedron:
    return VPolyhedron(P.vertices, P.rays)


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

    inside, z = benchmark.pedantic(
        both, setup=lambda: ((fresh(P),), {}), rounds=ROUNDS, iterations=1
    )
    assert not inside and z != y


@pytest.fixture(scope="module")
def experiment_cuts():
    """The cuts of the outer-approximation experiment (scripts/), 11 of them."""
    coarse = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 5))
    probes = [p for p in coarse.points() if not membership(TRIANGLE, p)]
    return outer_approximate(fresh(TRIANGLE), probes, budget=200).cuts


@pytest.mark.parametrize("count", [0, 5, 10])
def test_excess_measure_on_a_grid_column(benchmark, experiment_cuts, count):
    """One x = 1/2 column of the experiment's 1/20 grid, the unit of the
    benchmark's excess sweep, with the first ``count`` cuts, on one set."""
    X = fresh(TRIANGLE)
    approx = OuterApprox(X, experiment_cuts[:count])
    column = GridSpec((F(1, 2), F(-1)), (F(1, 2), F(2)), F(1, 20))
    excess = benchmark(excess_measure, X, approx, column)
    assert 0 <= excess <= 1


def test_outer_approximate_readme_probes(benchmark):
    """``outer_approximate`` over the README instance's probes, budget 8,
    on a new set."""
    approx = benchmark.pedantic(
        outer_approximate,
        setup=lambda: ((fresh(TRIANGLE), README_PROBES, 8), {}),
        rounds=ROUNDS,
        iterations=1,
    )
    assert all(approx.excludes(p) for p in README_PROBES)

from fractions import Fraction as F
from functools import reduce
from random import Random

import pytest

from ratsep import DimensionMismatchError, SeparationBugError, Surd, Vector
from ratsep.linalg import simplex_max, solve_linear_system
from ratsep.scalars import _pair_mul, _pair_reciprocal
from helpers import certified_simplex_max


def solve(rows, rhs) -> list[Surd]:
    """``solve_linear_system`` on the rows [*row, b] as integer pairs, each
    read as a ``Vector``, which scales it by a positive integer and so
    keeps the solution, and its solution X / D as Surds."""
    T = [Vector([*row, b]) for row, b in zip(rows, rhs)]
    k = reduce(Surd._k_with, (t.field_k for t in T), 1)
    X, D = solve_linear_system([list(t.pairs) for t in T], k)
    w, n = _pair_reciprocal(D, k)
    return [Surd._make(*_pair_mul(x, w, k), n, k) for x in X]


def test_solve_2x2():
    assert solve([[2, 1], [1, -1]], [5, 1]) == [Surd(2), Surd(1)]


@pytest.mark.parametrize("rhs", [[3, 6], [3, 7]], ids=["consistent", "inconsistent"])
def test_solve_raises_on_a_zero_leading_minor(rhs):
    # a Gram system of independent span vectors has none, so one is a fault
    with pytest.raises(SeparationBugError, match="leading minor of order 2 is 0"):
        solve([[1, 1], [2, 2]], rhs)


def test_solve_empty_system():
    assert solve_linear_system([], 1) == ([], (1, 0))


def test_solve_surd_entries():
    r2 = Surd.root(2)
    assert solve([[r2, 0], [0, 1]], [Surd(2), r2]) == [r2, r2]


R2 = Surd.root(2)


@pytest.mark.parametrize(
    "rows, rhs",
    [
        ([[2, 0, 0], [1, 3, 0], [0, 1, 4]], [1, 2, 3]),
        ([[R2, 0], [1, 1 + R2]], [1, R2]),
    ],
    ids=["rational", "sqrt2"],
)
def test_solve_rewrites_rows_with_zero_in_a_later_pivot_column(rows, rhs):
    # each system has a pivot row with 0 in a later pivot column; its
    # unknown is its right-hand side over the last pivot entry only if
    # that pivot rewrites the row too
    x = solve(rows, rhs)
    assert [sum((a * xi for a, xi in zip(row, x)), Surd(0)) for row in rows] == rhs


def test_margin_lp_rejects_rays_in_two_irrational_fields():
    # no one field holds both rays; the LP must not answer in the larger k
    with pytest.raises(ValueError, match=r"cannot mix sqrt\(2\) and sqrt\(3\)"):
        simplex_max([Vector([R2, 1]), Vector([-1, Surd.root(3)])])


def test_margin_lp_rejects_rays_of_two_dimensions():
    with pytest.raises(DimensionMismatchError):
        simplex_max([Vector([1, 0]), Vector([1, 0, 0])])


def test_margin_lp_rejects_an_empty_ray_list():
    with pytest.raises(ValueError, match="at least one ray"):
        simplex_max([])


# The program's simplex solves only the margin LP (test_fraction_free);
# the general LPs below check the reference simplex it is compared with,
# and each verdict's certificate.


def objective(c, res) -> Surd:
    """c.x at the simplex's returned point."""
    return Vector(c).dot(Vector(res.x))


def test_simplex_box_optimum():
    res = certified_simplex_max([1, 1], A_ub=[[1, 0], [0, 1]], b_ub=[1, 1])
    assert res.status == "optimal"
    assert objective([1, 1], res) == 2
    assert res.x == (Surd(1), Surd(1))


def test_simplex_unbounded():
    res = certified_simplex_max([1], A_ub=[[-1]], b_ub=[0])
    assert res.status == "unbounded"
    assert certified_simplex_max([1]).status == "unbounded"


def test_simplex_no_constraints_bounded():
    res = certified_simplex_max([-1, 0])
    assert res.status == "optimal"
    assert objective([-1, 0], res) == 0


def test_simplex_degenerate_at_origin():
    res = certified_simplex_max([1], A_ub=[[1], [1]], b_ub=[0, 0])
    assert res.status == "optimal"
    assert objective([1], res) == 0


def test_simplex_beale_cycling_instance():
    # the classic cycling example; Bland's rule must terminate at 1/20
    c = [F(3, 4), -150, F(1, 50), -6]
    A = [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    res = certified_simplex_max(c, A_ub=A, b_ub=b)
    assert res.status == "optimal"
    assert objective(c, res) == F(1, 20)
    assert res.x == (Surd(F(1, 25)), Surd(0), Surd(1), Surd(0))


def test_simplex_rejects_negative_right_hand_side():
    # the slack basis must be feasible at the start: b_ub >= 0
    with pytest.raises(ValueError):
        certified_simplex_max([1], A_ub=[[1], [-1]], b_ub=[1, F(-1, 2)])
    with pytest.raises(ValueError):
        certified_simplex_max([0], A_ub=[[1]], b_ub=[Surd(1) - Surd.root(2)])
    with pytest.raises(ValueError, match="b_ub >= 0"):  # read once, checked all the same
        certified_simplex_max([1], A_ub=iter([[1]]), b_ub=iter([-1]))


def test_simplex_surd_data():
    # max t  s.t.  sqrt(2) * x + t <= 0 is bounded by x >= 0 at t = 0
    r2 = Surd.root(2)
    res = certified_simplex_max([0, 1], A_ub=[[r2, 1]], b_ub=[0])
    assert res.status == "optimal"
    assert objective([0, 1], res) == 0


def test_solution_satisfies_constraints_exactly():
    rng = Random(7)
    for _ in range(25):
        A = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)]
        x0 = [F(rng.randint(0, 3)) for _ in range(3)]
        b = [abs(sum(a * v for a, v in zip(row, x0))) for row in A]
        res = certified_simplex_max([1, 1, 1], A_ub=A, b_ub=b)
        if res.status != "optimal":
            assert res.status == "unbounded"
            continue
        for row, bb in zip(A, b):
            lhs = Surd(0)
            for a, xv in zip(row, res.x):
                lhs = lhs + Surd(a) * xv
            assert (lhs - Surd(bb)).sign() <= 0

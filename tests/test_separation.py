from fractions import Fraction as F
from random import Random

import pytest

from ratsep import (
    DimensionMismatchError,
    NotPointedError,
    PointInSetError,
    Surd,
    Vector,
    VPolyhedron,
    membership,
    separate,
    support_value,
    verify_certificate,
)
from ratsep.scalars import point_in_ball
from ratsep.separation import (
    bound_support_on_ball,
    compute_wedge_parameters,
    find_barrier_direction,
    norm_upper,
    wedge_interior_ball,
)
from helpers import (
    exterior_point,
    point_in_apex_hull,
    rand_rational_vector,
    random_pointed_polyhedron,
    rational_points_in_ball,
    unit_directions,
    unit_directions_2d,
)

SQ2 = Surd.root(2)
TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([1, 0]), Vector([0, 1])))
UNIT_SQUARE = VPolyhedron(
    (Vector([0, 0]), Vector([1, 0]), Vector([1, 1]), Vector([0, 1]))
)


# -- find_barrier_direction -------------------------------------------------


def test_barrier_direction_compact_case():
    d, eps = find_barrier_direction(VPolyhedron((Vector([3, 4, 5]),)))
    assert d == Vector.zero(3)
    assert eps == 1


def test_barrier_direction_quadrant():
    P = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([0, 1])))
    d, eps = find_barrier_direction(P)
    assert d == Vector([-1, -1])
    assert eps == F(1, 2)
    for r in P.rays:
        assert (d.dot(r) + Surd(eps * norm_upper(r))).sign() <= 0


def test_barrier_direction_not_pointed():
    P = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    with pytest.raises(NotPointedError):
        find_barrier_direction(P)


def test_barrier_direction_surd_rays():
    P = VPolyhedron((Vector([0, 0]),), (Vector([SQ2, 1]), Vector([1, SQ2])))
    d, eps = find_barrier_direction(P)
    assert d.is_rational
    assert eps > 0
    for r in P.rays:
        assert (d.dot(r) + Surd(eps * norm_upper(r))).sign() <= 0


def test_barrier_direction_random_cones():
    rng = Random(41)
    for _ in range(20):
        dim = rng.choice([2, 3, 4])
        P = random_pointed_polyhedron(rng, dim, rng.choice([1, 2]), 1, rng.randint(1, 4))
        d, eps = find_barrier_direction(P)
        assert d.is_rational and eps > 0
        for r in P.rays:
            assert (d.dot(r) + Surd(eps * norm_upper(r))).sign() <= 0


# -- bound_support_on_ball --------------------------------------------------


def test_support_bound_clamps_singleton():
    C = VPolyhedron((Vector([0, 0]),))
    assert bound_support_on_ball(C, Vector.zero(2), F(1)) == 1


def test_support_bound_clamps_small_triangle():
    C = VPolyhedron(
        (Vector([F(-1, 2), F(-1, 2)]), Vector([F(1, 2), F(-1, 2)]), Vector([F(-1, 2), F(1, 2)]))
    )
    assert bound_support_on_ball(C, Vector.zero(2), F(1)) == 1


def test_support_bound_segment():
    C = VPolyhedron((Vector([0, 0]), Vector([2, 0])))
    assert bound_support_on_ball(C, Vector([1, 0]), F(1, 2)) == 3


def test_support_bound_rejects_uncovered_ray():
    C = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]),))
    with pytest.raises(ValueError):
        bound_support_on_ball(C, Vector([1, 0]), F(1, 2))


def test_support_bound_decides_the_ball_exactly():
    # (707/500)*sqrt(2) < 2 = -<d, r>, so the ball d + eps*B lies in the
    # barrier cone, although eps times a 1/32-wide upper bound of sqrt(2)
    # exceeds 2; at 708/500 the ball pokes out of the cone
    C = VPolyhedron((Vector([0, 0]),), (Vector([1, 1]),))
    d = Vector([-1, -1])
    assert bound_support_on_ball(C, d, F(707, 500)) == 1
    for eps in (F(708, 500), 0, F(-1, 2)):
        with pytest.raises(ValueError):
            bound_support_on_ball(C, d, eps)


def test_support_bound_dominates_ball_supports():
    rng = Random(43)
    for _ in range(10):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, rng.randint(0, 2))
        d, eps = find_barrier_direction(P)
        M = bound_support_on_ball(P, d, eps)
        assert M >= 1
        for u in unit_directions_2d():
            sv = support_value(P, d + eps * u)
            assert sv.is_finite
            assert (Surd(M) - sv.value).sign() >= 0


# -- compute_wedge_parameters ----------------------------------------------


def test_wedge_parameters_rational_norm_half():
    alpha, d_bar, eps_bar, delta_hat = compute_wedge_parameters(
        Vector([F(1, 2), F(1, 2)]), F(1), Vector.zero(2), F(1)
    )
    assert alpha == F(1, 6)
    assert d_bar == Vector.zero(2)
    assert eps_bar == F(1, 6)
    assert delta_hat > 0
    # delta_hat <= ||y_bar|| / 3, i.e. 9 * delta_hat^2 <= 1/2
    assert 9 * delta_hat * delta_hat <= F(1, 2)


def test_wedge_parameters_unit_norm():
    alpha, d_bar, eps_bar, delta_hat = compute_wedge_parameters(
        Vector([0, 1]), F(1), Vector.zero(2), F(1)
    )
    assert (alpha, eps_bar, delta_hat) == (F(1, 3), F(1, 3), F(1, 3))
    assert d_bar == Vector.zero(2)


def test_wedge_parameters_zero_residual_rejected():
    with pytest.raises(ValueError):
        compute_wedge_parameters(Vector.zero(2), F(1), Vector.zero(2), F(1))


def test_wedge_parameters_surd_norm():
    y_bar = Vector([1, SQ2])  # ||y_bar||^2 = 3
    alpha, _, _, delta_hat = compute_wedge_parameters(y_bar, F(2), Vector.zero(2), F(1))
    nsq = y_bar.norm_sq()
    assert 0 < 3 * F(2) * alpha <= nsq.as_fraction()
    assert 0 < delta_hat
    assert (nsq - Surd(9 * delta_hat * delta_hat)).sign() >= 0


# -- wedge_interior_ball ----------------------------------------------------


def test_wedge_ball_examples():
    center, radius = wedge_interior_ball(Vector([0, 0]), Vector([1, 0]), F(1), F(1))
    assert center == Vector([F(1, 2), 0])
    assert radius == F(1, 4)
    center, radius = wedge_interior_ball(Vector([0, 0]), Vector([0, 0]), F(1, 6), F(2, 9))
    assert center == Vector([0, 0])
    assert radius == F(1, 12)


def test_wedge_ball_rejects_degenerate():
    with pytest.raises(ValueError):
        wedge_interior_ball(Vector([0, 0]), Vector([1, 0]), F(1), F(0))
    with pytest.raises(ValueError):
        wedge_interior_ball(Vector([0, 0]), Vector([1, 0]), F(0), F(1))


def test_wedge_ball_containments():
    rng = Random(47)
    for _ in range(25):
        dim = rng.choice([2, 3])
        x0 = rand_rational_vector(rng, dim)
        if rng.random() < 0.4:
            x0 = x0 + Surd(0, F(1, 2), 2) * Vector([1] * dim)
        d_bar = rand_rational_vector(rng, dim)
        eps_bar = F(rng.randint(1, 8), rng.randint(1, 8))
        delta_hat = F(rng.randint(1, 8), rng.randint(1, 8))
        center, radius = wedge_interior_ball(x0, d_bar, eps_bar, delta_hat)
        assert 0 < 2 * radius <= eps_bar
        for u in unit_directions(dim):
            p = center + (2 * radius) * u
            assert point_in_ball(p, x0, delta_hat)
            assert point_in_apex_hull(p, x0, d_bar, eps_bar)


def test_point_in_apex_hull_basics():
    apex = Vector([0, 0])
    center = Vector([2, 0])
    assert point_in_apex_hull(apex, apex, center, F(1))
    assert point_in_apex_hull(Vector([2, 1]), apex, center, F(1))  # in the ball
    assert point_in_apex_hull(Vector([1, F(1, 2)]), apex, center, F(1))  # mid-wedge
    assert not point_in_apex_hull(Vector([0, 1]), apex, center, F(1))
    assert not point_in_apex_hull(Vector([-1, 0]), apex, center, F(1))


# -- separate ---------------------------------------------------------------


def test_separate_triangle():
    y = Vector([1, 1])
    cert, trace = separate(TRIANGLE, y)
    assert verify_certificate(TRIANGLE, y, cert)
    assert trace.z_tilde == Vector([F(1, 2), F(1, 2)])
    for v in TRIANGLE.vertices:
        assert (cert.a.dot(v) - Surd(cert.beta)).sign() <= 0
    assert (cert.a.dot(y) - Surd(cert.beta)).sign() > 0


def test_separate_singleton():
    X = VPolyhedron((Vector([0, 0]),))
    y = Vector([1, 0])
    cert, trace = separate(X, y)
    a1 = cert.a[0].as_fraction()
    assert a1 > 0
    assert 0 < cert.beta < a1
    assert trace.y_bar == y


def test_separate_rejects_interior_point():
    with pytest.raises(PointInSetError):
        separate(UNIT_SQUARE, Vector([F(1, 2), F(1, 2)]))


def test_separate_rejects_non_pointed():
    line = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    with pytest.raises(NotPointedError):
        separate(line, Vector([0, 1]))


def test_separate_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        separate(TRIANGLE, Vector([1, 1, 1]))


def test_trace_consistency():
    rng = Random(53)
    for _ in range(6):
        P = random_pointed_polyhedron(rng, rng.choice([2, 3]), rng.choice([1, 2]), 3, rng.randint(0, 2))
        y = exterior_point(rng, P, F(rng.randint(1, 3)))
        cert, trace = separate(P, y)
        assert verify_certificate(P, y, cert)
        assert trace.d_bar == trace.alpha * trace.d
        assert trace.eps_bar == trace.alpha * trace.eps
        assert 0 < trace.lam <= 1
        assert trace.M >= 1
        nsq = trace.y_bar.norm_sq()
        assert (nsq - Surd(9 * trace.delta_hat ** 2)).sign() >= 0
        sX = support_value(P, trace.a).value
        assert (Surd(trace.beta) - sX).sign() > 0
        assert (trace.a.dot(y) - Surd(trace.beta)).sign() > 0


def test_trace_inequality_chains():
    # the two exact bounds that force the strict separation inequality
    rng = Random(59)
    for _ in range(4):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, rng.randint(0, 2))
        y = exterior_point(rng, P)
        _, trace = separate(P, y)
        C = P.translated(-trace.z_tilde)
        y_bar = trace.y_bar
        nsq = y_bar.norm_sq()
        assert support_value(C, y_bar).value.sign() == 0
        for a in rational_points_in_ball(rng, trace.ball_center, trace.ball_radius, 12):
            sv = support_value(C, a)
            assert sv.is_finite
            # upper chain: support stays below a third of ||y_bar||^2
            assert (nsq * F(1, 3) - sv.value).sign() >= 0
            # lower chain: <a, y_bar> >= ||y_bar||^2 - delta_hat * hi(||y_bar||)
            bound = nsq - Surd(trace.delta_hat * norm_upper(y_bar))
            assert (a.dot(y_bar) - bound).sign() >= 0
            # and the strict conclusion
            assert (a.dot(y_bar) - sv.value).sign() > 0


def test_trace_ball_samples_inside_wedge():
    _, trace = separate(TRIANGLE, Vector([2, 2]))
    for u in unit_directions_2d():
        p = trace.ball_center + (2 * trace.ball_radius) * u
        assert point_in_ball(p, trace.y_bar, trace.delta_hat)
        assert point_in_apex_hull(p, trace.y_bar, trace.d_bar, trace.eps_bar)


def test_certificate_scaling_invariance():
    from ratsep import Certificate

    y = Vector([1, 1])
    cert, _ = separate(TRIANGLE, y)
    for t in (F(1, 3), F(2), F(7, 5)):
        scaled = Certificate(t * cert.a, t * cert.beta)
        assert verify_certificate(TRIANGLE, y, scaled)


def test_separate_deterministic():
    y = Vector([2, SQ2])
    c1, t1 = separate(TRIANGLE, y)
    c2, t2 = separate(TRIANGLE, y)
    assert c1 == c2
    assert t1 == t2


def test_separate_unbounded_set():
    P = VPolyhedron((Vector([0, 0]), Vector([1, 0])), (Vector([1, 1]), Vector([0, 1])))
    y = Vector([-1, 2])
    assert not membership(P, y)
    cert, _ = separate(P, y)
    assert verify_certificate(P, y, cert)
    for r in P.rays:
        assert cert.a.dot(r).sign() <= 0

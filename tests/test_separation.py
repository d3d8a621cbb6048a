from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

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
from ratsep.scalars import choose_rational_between, point_in_ball, rational_in_ball
from ratsep.serialization import MAX_DIM, MAX_GENERATORS
from ratsep.separation import (
    _norm_bound,
    bound_support_on_ball,
    compute_wedge_parameters,
    find_barrier_direction,
    wedge_interior_ball,
)
from helpers import (
    exterior_point,
    face_walk_project,
    forbid_floats,
    lp_membership,
    moved_by_hand,
    point_in_apex_hull,
    pushed_off_faces,
    rand_rational_vector,
    rand_vector,
    random_pointed_polyhedron,
    random_point_inside,
    rational_points_in_ball,
    surd_bound_support_on_ball,
    surd_compute_wedge_parameters,
    surd_norm_upper,
    surd_wedge_interior_ball,
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
        assert (d.dot(r) + Surd(eps * surd_norm_upper(r))).sign() <= 0


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
        assert (d.dot(r) + Surd(eps * surd_norm_upper(r))).sign() <= 0


def test_barrier_direction_random_cones():
    rng = Random(41)
    for _ in range(20):
        dim = rng.choice([2, 3, 4])
        P = random_pointed_polyhedron(rng, dim, rng.choice([1, 2]), 1, rng.randint(1, 4))
        d, eps = find_barrier_direction(P)
        assert d.is_rational and eps > 0
        for r in P.rays:
            assert (d.dot(r) + Surd(eps * surd_norm_upper(r))).sign() <= 0


# the 3-D set with rays of the layer bench, and the same set with one ray
# over Q(sqrt 2)
RAYS_3D = VPolyhedron(
    (Vector([0, 0, 0]), Vector([2, SQ2, 0]), Vector([0, 1, 3]), Vector([1, 1, 1])),
    (Vector([1, 0, 1]), Vector([0, 1, 2])),
)
BARRIER_SETS = {
    "rays_3d": RAYS_3D,
    "rays_3d_sqrt2": VPolyhedron(RAYS_3D.vertices, (Vector([1, 0, SQ2]), RAYS_3D.rays[1])),
    "sqrt2_rays": VPolyhedron((Vector([0, 0]),), (Vector([SQ2, 1]), Vector([1, SQ2]))),
}


def fraction_barrier_direction(P):
    """``find_barrier_direction`` written with Fractions: t_lo is t* itself
    when rational, else a rational between t*/2 and t*, eps is
    t_lo/(2 max surd_norm_upper(r)), and every ray is audited by an exact sign."""
    d_star, t_star = P._ray_margin
    if t_star.is_rational:
        t_lo = t_star.as_fraction()
    else:
        t_lo = choose_rational_between(t_star / 2, t_star)
    eps = t_lo / (2 * max(surd_norm_upper(r) for r in P.rays))
    d = rational_in_ball(d_star, eps)
    assert all((d.dot(r) + eps * surd_norm_upper(r)).sign() <= 0 for r in P.rays)
    return d, eps


@pytest.mark.parametrize("case", BARRIER_SETS)
def test_barrier_direction_matches_the_fraction_formula(case):
    P = BARRIER_SETS[case]
    assert find_barrier_direction(VPolyhedron(P.vertices, P.rays)) == fraction_barrier_direction(P)


@pytest.mark.parametrize("s", [1, F(1, 3)])
def test_barrier_audit_is_exact(monkeypatch, s):
    # on the quadrant with rays s*e1 and s*e2, eps = (s/2)/s = 1/2 and
    # the audit reads <d, r> + s/2 <= 0, so a direction (-1/2, -1) puts
    # the ball's boundary on the cone and passes it, and one a hair to
    # the right fails it; s = 1/3 gives the rays a denominator
    from ratsep import SeparationBugError, separation

    quadrant = VPolyhedron((Vector([0, 0]),), (Vector([s, 0]), Vector([0, s])))
    edge = Vector([F(-1, 2), -1])
    monkeypatch.setattr(separation, "rational_in_ball", lambda center, radius: edge)
    assert find_barrier_direction(quadrant) == (edge, F(1, 2))
    hair = Vector([F(-1, 2) + F(1, 10**30), -1])
    monkeypatch.setattr(separation, "rational_in_ball", lambda center, radius: hair)
    with pytest.raises(SeparationBugError, match="failed its exact audit"):
        find_barrier_direction(quadrant)


@pytest.mark.parametrize("case", ["sqrt2_rays", "rays_3d_sqrt2"])
def test_barrier_audit_rejects_a_direction_off_the_cone(monkeypatch, case):
    # a rounding fault that leaves the cone must end in the audit, also
    # inside separate, where it is a program fault and not a ValueError
    from ratsep import SeparationBugError, separation

    P = BARRIER_SETS[case]
    off = Vector([1] * P.dim)
    monkeypatch.setattr(separation, "rational_in_ball", lambda center, radius: off)
    with pytest.raises(SeparationBugError, match="failed its exact audit"):
        find_barrier_direction(P)
    with pytest.raises(SeparationBugError, match="failed its exact audit"):
        separate(P, Vector([-1] * P.dim))


# -- bound_support_on_ball --------------------------------------------------


def test_support_bound_clamps_singleton():
    # C = X - z is the origin alone
    X, z = VPolyhedron((Vector([3, F(-1, 2)]),)), Vector([3, F(-1, 2)])
    assert bound_support_on_ball(X, z, Vector.zero(2), F(1)) == 1


def test_support_bound_clamps_small_triangle():
    # C = X - z is the triangle with vertices (+-1/2, -1/2) and (-1/2, 1/2)
    X = VPolyhedron(
        (Vector([F(1, 2), F(1, 2)]), Vector([F(3, 2), F(1, 2)]), Vector([F(1, 2), F(3, 2)]))
    )
    assert bound_support_on_ball(X, Vector([1, 1]), Vector.zero(2), F(1)) == 1


def test_support_bound_segment():
    # C = X - z is the segment from (0, 0) to (2, 0)
    X = VPolyhedron((Vector([1, 2]), Vector([3, 2])))
    assert bound_support_on_ball(X, Vector([1, 2]), Vector([1, 0]), F(1, 2)) == 3


def test_support_bound_rejects_uncovered_ray():
    X = VPolyhedron((Vector([5, 5]),), (Vector([1, 0]),))
    with pytest.raises(ValueError):
        bound_support_on_ball(X, Vector([5, 5]), Vector([1, 0]), F(1, 2))


def test_support_bound_decides_the_ball_exactly():
    # (707/500)*sqrt(2) < 2 = -<d, r>, so the ball d + eps*B lies in the
    # barrier cone, although eps times a 1/32-wide upper bound of sqrt(2)
    # exceeds 2; at 708/500 the ball pokes out of the cone
    X, z = VPolyhedron((Vector([SQ2, 1]),), (Vector([1, 1]),)), Vector([SQ2, 1])
    d = Vector([-1, -1])
    assert bound_support_on_ball(X, z, d, F(707, 500)) == 1
    for eps in (F(708, 500), 0, F(-1, 2)):
        with pytest.raises(ValueError):
            bound_support_on_ball(X, z, d, eps)


def test_support_bound_dominates_ball_supports():
    rng = Random(43)
    for _ in range(10):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, rng.randint(0, 2))
        z = rand_rational_vector(rng, 2)
        C = moved_by_hand(P, -z)
        d, eps = find_barrier_direction(P)
        M = bound_support_on_ball(P, z, d, eps)
        assert M >= 1
        for u in unit_directions_2d():
            sv = support_value(C, d + eps * u)
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
    nsq = y_bar.dot(y_bar)
    assert 0 < 3 * F(2) * alpha <= nsq.as_fraction()
    assert 0 < delta_hat
    assert (nsq - Surd(9 * delta_hat * delta_hat)).sign() >= 0


# -- wedge_interior_ball ----------------------------------------------------


def test_wedge_ball_examples():
    lam, center, radius = wedge_interior_ball(Vector([0, 0]), Vector([1, 0]), F(1), F(1))
    assert lam == F(1, 2)
    assert center == Vector([F(1, 2), 0])
    assert radius == F(1, 4)
    lam, center, radius = wedge_interior_ball(Vector([0, 0]), Vector([0, 0]), F(1, 6), F(2, 9))
    assert lam == 1
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
        lam, center, radius = wedge_interior_ball(x0, d_bar, eps_bar, delta_hat)
        assert 0 < 2 * radius == lam * eps_bar <= eps_bar
        for u in unit_directions(dim):
            p = center + (2 * radius) * u
            assert point_in_ball(p, x0, delta_hat)
            assert point_in_apex_hull(p, x0, d_bar, eps_bar)


# the message of scalars._fraction, so that a call failing for another reason fails the test
INEXACT = "expected int or Fraction"


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_pipeline_steps_reject_inexact_scalars(bad):
    y_bar, d = Vector([1, 1]), Vector([0, 0])
    with pytest.raises(TypeError, match=INEXACT):
        bound_support_on_ball(TRIANGLE, d, d, bad)
    with pytest.raises(TypeError, match=INEXACT):
        compute_wedge_parameters(y_bar, bad, d, F(1))
    with pytest.raises(TypeError, match=INEXACT):
        compute_wedge_parameters(y_bar, F(1), d, bad)
    with pytest.raises(TypeError, match=INEXACT):
        wedge_interior_ball(y_bar, d, bad, F(1))
    with pytest.raises(TypeError, match=INEXACT):
        wedge_interior_ball(y_bar, d, F(1), bad)


def test_wedge_steps_reject_mismatched_dimensions():
    y_bar, d = Vector([1, 1]), Vector([0, 0, 1])
    with pytest.raises(DimensionMismatchError):
        compute_wedge_parameters(y_bar, F(1), d, F(1))
    with pytest.raises(DimensionMismatchError):
        wedge_interior_ball(y_bar, d, F(1), F(1))


@pytest.mark.parametrize("eps", [0, F(-1), F(-1, 3)])
def test_wedge_parameters_reject_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        compute_wedge_parameters(Vector([1, 1]), F(1), Vector([0, 0]), eps)


def test_point_in_apex_hull_basics():
    apex = Vector([0, 0])
    center = Vector([2, 0])
    assert point_in_apex_hull(apex, apex, center, F(1))
    assert point_in_apex_hull(Vector([2, 1]), apex, center, F(1))  # in the ball
    assert point_in_apex_hull(Vector([1, F(1, 2)]), apex, center, F(1))  # mid-wedge
    assert not point_in_apex_hull(Vector([0, 1]), apex, center, F(1))
    assert not point_in_apex_hull(Vector([-1, 0]), apex, center, F(1))


# -- the integer stages against their Surd references ----------------------

coords = st.fractions(min_value=-4, max_value=4, max_denominator=12)
positives = st.one_of(
    st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64),
    st.integers(1, 30).map(lambda j: F(1, 10**j)),
)
# integer vectors with an integer norm, listed as (*coordinates, norm): scaled
# by a rational, their pair form over m has <pairs, pairs> sharing factors
# with m**2, and the norm is a rational that the kernel must return exactly
PYTHAGOREAN = {
    2: [(3, 4, 5), (5, 12, 13)],
    3: [(2, 2, 1, 3), (2, 3, 6, 7)],
    4: [(1, 1, 1, 1, 2), (2, 4, 5, 6, 9)],
}


def rational_norm_vector(draw, dim):
    """(v, s): a rational vector v with the rational norm s > 0."""
    *xs, n = draw(st.sampled_from(PYTHAGOREAN[dim]))
    s = draw(positives)
    return Vector([F(x, n) * s for x in xs]), s


@st.composite
def field_vectors(draw, dim, k, nonzero=False):
    """Vectors over Q(sqrt(k)): general, with a rational norm, or tiny
    (a norm squared down to 10**-24, many enclosure steps)."""
    kind = draw(st.sampled_from(["general", "rational norm", "tiny"]))
    if kind == "rational norm":
        return rational_norm_vector(draw, dim)[0]
    v = Vector([Surd(draw(coords), draw(coords) if k > 1 else 0, k) for _ in range(dim)])
    if kind == "tiny":
        v = F(1, 10 ** draw(st.integers(3, 12))) * v
    if nonzero and v.is_zero():
        v = Vector([1] + [0] * (dim - 1))
    return v


dims_and_fields = st.tuples(st.integers(2, 4), st.sampled_from([1, 2, 1000003]))


def matches_reference(new, reference, *args):
    """new(*args) == reference(*args) exactly, or both raise the same
    ValueError type; returns whether they raised.  No float is taken."""
    with forbid_floats():
        try:
            want = reference(*args)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                new(*args)
            return True
        assert new(*args) == want
    return False


@given(dims_and_fields.flatmap(lambda dk: field_vectors(*dk)))
@example(Vector([F(3, 5), F(4, 5)]))
@example(Vector([F(3, 10), F(2, 5)]))
@example(Vector([Surd(0, F(1, 10**12), 1000003), 0]))
def test_norm_bound_matches_surd_reference(v):
    matches_reference(lambda v: F(*_norm_bound(v)), surd_norm_upper, v)


@st.composite
def support_bound_inputs(draw):
    """(X, z, d, eps, kind) for the bound on C = X - z.  "random" draws
    everything.  The other kinds have one ray r = u*w for a rational w of
    norm s and a positive u in Q(sqrt(k)): with d = -c*w, eps = c*s puts
    the ball's boundary exactly on the barrier cone ("boundary"), a hair
    more ("past") or a d orthogonal to r ("orthogonal") put it outside."""
    dim, k = draw(dims_and_fields)
    vertices = draw(st.lists(field_vectors(dim, k), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["random", "boundary", "past", "orthogonal"]))
    if kind == "random":
        rays = draw(st.lists(field_vectors(dim, k, nonzero=True), max_size=2))
        d, eps = draw(field_vectors(dim, k)), draw(positives)
    else:
        w, s = rational_norm_vector(draw, dim)
        u = Surd(draw(positives), draw(coords) if k > 1 else 0, k)
        if u.sign() <= 0:
            u = -u + 1
        rays = [u * w]
        c = draw(positives)
        d, eps = -c * w, c * s
        if kind == "past":
            eps += F(1, 10**40)
        elif kind == "orthogonal":
            d = Vector([-w[1], w[0]] + [0] * (dim - 2))
    z = draw(field_vectors(dim, k))
    return VPolyhedron(tuple(vertices), tuple(rays)), z, d, eps, kind


@given(support_bound_inputs())
@example(
    (
        VPolyhedron((Vector([Surd(1, F(1, 2), 1000003), F(-3, 4)]), Vector([0, F(5, 3)]))),
        Vector.zero(2),
        Vector.zero(2),
        F(1),
        "random",
    )
)
def test_support_bound_matches_surd_reference(inputs):
    X, z, d, eps, kind = inputs
    raised = matches_reference(bound_support_on_ball, surd_bound_support_on_ball, X, z, d, eps)
    if kind != "random":
        assert raised == (kind != "boundary")


@st.composite
def moved_bound_inputs(draw):
    """(X, z, d, eps): X over Q(sqrt(k)) in dimension 1-4 with 1-3
    vertices and 0-3 rays, each ray's first coordinate positive, so that
    X is pointed; z inside X (the mean of the vertices plus the rays) or
    drawn anywhere; (d, eps) X's barrier ball or drawn at random."""
    dim, k = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 1000003]))

    def vector():
        return Vector([Surd(draw(coords), draw(coords) if k > 1 else 0, k) for _ in range(dim)])

    vertices = [vector() for _ in range(draw(st.integers(1, 3)))]
    rays = []
    for _ in range(draw(st.integers(0, 3))):
        u = Surd(draw(positives), draw(coords) if k > 1 else 0, k)
        rays.append(Vector([u if u.sign() > 0 else 1 - u, *vector().coords[1:]]))
    X = VPolyhedron(tuple(vertices), tuple(rays))
    if draw(st.booleans()):
        z = F(1, len(vertices)) * sum(vertices[1:], vertices[0]) + sum(rays, Vector.zero(dim))
    else:
        z = vector()
    d, eps = find_barrier_direction(X) if draw(st.booleans()) else (vector(), draw(positives))
    return X, z, d, eps


def bound_on_the_moved_set(X, z, d, eps):
    """The bound on C = X - z, with C built and an offset of zero."""
    return bound_support_on_ball(moved_by_hand(X, -z), Vector.zero(X.dim), d, eps)


@given(moved_bound_inputs())
def test_support_bound_reads_the_moved_set_from_x_and_z(inputs):
    X, z, d, eps = inputs
    matches_reference(bound_support_on_ball, bound_on_the_moved_set, X, z, d, eps)
    matches_reference(bound_support_on_ball, surd_bound_support_on_ball, X, z, d, eps)
    with pytest.raises(DimensionMismatchError):
        bound_support_on_ball(X, Vector([*z.coords, 0]), d, eps)
    if X.field_k != 1:
        with pytest.raises(ValueError, match="cannot mix"):
            bound_support_on_ball(X, Vector([Surd.root(3)] * X.dim), d, eps)


@st.composite
def wedge_parameter_inputs(draw):
    dim, k = draw(dims_and_fields)
    y_bar = draw(field_vectors(dim, k, nonzero=True))
    return y_bar, draw(positives), draw(field_vectors(dim, k)), draw(positives)


@given(wedge_parameter_inputs())
@example((Vector([F(1, 10**30), 0]), F(1), Vector([0, 0]), F(1)))
@example((Vector([Surd(0, F(1, 10**20), 2), F(1, 10**20)]), F(3), Vector([1, 1]), F(1, 7)))
@example((Vector([F(3, 10), F(2, 5)]), F(1), Vector([0, 0]), F(1)))
def test_wedge_parameters_match_surd_reference(inputs):
    matches_reference(compute_wedge_parameters, surd_compute_wedge_parameters, *inputs)


@st.composite
def wedge_ball_inputs(draw):
    dim, k = draw(dims_and_fields)
    x0, d_bar = draw(field_vectors(dim, k)), draw(field_vectors(dim, k))
    return x0, d_bar, draw(positives), draw(positives)


@given(wedge_ball_inputs())
@example((Vector([0, 0]), Vector([F(3, 5), F(4, 5)]), F(1, 3), F(1, 2)))
def test_wedge_ball_matches_surd_reference(inputs):
    matches_reference(wedge_interior_ball, surd_wedge_interior_ball, *inputs)


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
        assert 2 * trace.ball_radius == trace.lam * trace.eps_bar
        ball = wedge_interior_ball(trace.y_bar, trace.d_bar, trace.eps_bar, trace.delta_hat)
        assert ball == (trace.lam, trace.ball_center, trace.ball_radius)
        assert trace.M >= 1
        nsq = trace.y_bar.dot(trace.y_bar)
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
        C = moved_by_hand(P, -trace.z_tilde)
        y_bar = trace.y_bar
        nsq = y_bar.dot(y_bar)
        assert support_value(C, y_bar).value.sign() == 0
        for a in rational_points_in_ball(rng, trace.ball_center, trace.ball_radius, 12):
            sv = support_value(C, a)
            assert sv.is_finite
            # upper chain: support stays below a third of ||y_bar||^2
            assert (nsq * F(1, 3) - sv.value).sign() >= 0
            # lower chain: <a, y_bar> >= ||y_bar||^2 - delta_hat * hi(||y_bar||)
            bound = nsq - Surd(trace.delta_hat * surd_norm_upper(y_bar))
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


# -- separate against independent oracles in every admitted dimension -------


@st.composite
def shaped_sets_and_points(draw):
    """A pointed set of a drawn shape, dimension 1..MAX_DIM and field, and
    points: one at random, one inside, one pushed out past a vertex and,
    when the set has faces, one pushed off a facet or an edge."""
    dim = draw(st.sampled_from(range(1, MAX_DIM + 1)))
    k = draw(st.sampled_from([1, 2, 1000003]))
    shape = draw(st.sampled_from(["point", "polytope", "cone", "polyhedron"]))
    rays = draw(st.integers(1, 3)) if shape in ("cone", "polyhedron") else 0
    many = range(2, MAX_GENERATORS - rays + 1)
    vertices = 1 if shape in ("point", "cone") else draw(st.sampled_from(many))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    P = random_pointed_polyhedron(rng, dim, k, vertices, rays)
    points = [rand_vector(rng, dim, k), random_point_inside(rng, P), exterior_point(rng, P)]
    faces = pushed_off_faces(P, edges=draw(st.booleans()))
    if faces:
        points.append(draw(st.sampled_from(faces))[1])
    return P, points


@settings(max_examples=60)
@given(shaped_sets_and_points())
@example((VPolyhedron((Vector([1]),)), [Vector([0]), Vector([2])]))
@example((VPolyhedron((Vector([1]), Vector([3]))), [Vector([0]), Vector([2]), Vector([4])]))
@example((VPolyhedron((Vector([1]),), (Vector([2]),)), [Vector([0]), Vector([5])]))
@example((VPolyhedron((Vector([SQ2]),), (Vector([-1]),)), [Vector([0]), Vector([2])]))
def test_separate_agrees_with_the_oracles_in_every_admitted_dimension(case):
    """``separate`` against ``lp_membership``, ``face_walk_project`` and
    ``verify_certificate`` in dims 1..MAX_DIM, over Q, Q(sqrt 2) and
    Q(sqrt 1000003), with up to MAX_GENERATORS generators and 0-3 rays.
    The examples are stratified by shape: a point, a polytope, a cone
    and a polyhedron with rays.  The explicit ones are the 1-D point,
    segment and half-lines with y on either side.  Budget: about 3 s of
    tier-1 wall time."""
    P, points = case
    for y in points:
        if lp_membership(P, y):
            with pytest.raises(PointInSetError):
                separate(P, y)
            continue
        cert, trace = separate(P, y)
        assert verify_certificate(P, y, cert)
        assert trace.z_tilde == face_walk_project(P, y)


def test_value_error_after_validation_carries_the_fields_so_far(monkeypatch):
    from ratsep import SeparationBugError, separation

    def rejecting(X, z, d, eps):
        raise ValueError("ball d + eps*B is not inside the barrier cone")

    monkeypatch.setattr(separation, "bound_support_on_ball", rejecting)
    P = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([0, 1])))
    with pytest.raises(SeparationBugError, match="raised ValueError: ball d") as info:
        separate(P, Vector([-1, -2]))
    assert list(info.value.context) == ["z_tilde", "y_bar", "d", "eps"]
    assert info.value.context["z_tilde"] == Vector([0, 0])
    assert isinstance(info.value.__cause__, ValueError)

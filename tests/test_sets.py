from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ratsep import (
    DimensionMismatchError,
    NotPointedError,
    Surd,
    Vector,
    VPolyhedron,
    find_barrier_direction,
    is_pointed,
    membership,
    polar_cone_contains,
    project,
    support_value,
)
from helpers import (
    rand_rational_vector,
    random_nonpointed_rays,
    random_pointed_polyhedron,
    random_pointed_rays,
    random_point_inside,
    exterior_point,
)

SQ2 = Surd.root(2)

UNIT_SQUARE = VPolyhedron(
    (Vector([0, 0]), Vector([1, 0]), Vector([1, 1]), Vector([0, 1]))
)
TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([1, 0]), Vector([0, 1])))
SQ2_TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))


def test_vpolyhedron_validation():
    with pytest.raises(ValueError):
        VPolyhedron(())
    with pytest.raises(ValueError):
        VPolyhedron((Vector([0, 0]),), (Vector([0, 0]),))
    with pytest.raises(DimensionMismatchError):
        VPolyhedron((Vector([0, 0]), Vector([0, 0, 0])))
    with pytest.raises(ValueError):
        VPolyhedron((Vector([SQ2, 0]), Vector([Surd.root(3), 0])))


def test_support_value_examples():
    assert support_value(UNIT_SQUARE, Vector([1, 1])).value == 2
    ray_set = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]),))
    assert not support_value(ray_set, Vector([1, 0])).is_finite
    assert support_value(SQ2_TRIANGLE, Vector([1, 0])).value == SQ2


def test_support_value_dimension_check():
    with pytest.raises(DimensionMismatchError):
        support_value(UNIT_SQUARE, Vector([1, 1, 1]))


def test_is_pointed_examples():
    assert is_pointed(VPolyhedron((Vector([0, 0]),)))
    assert is_pointed(VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([0, 1]))))
    assert not is_pointed(
        VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    )


def test_is_pointed_agrees_with_margin_lp():
    # Gordan alternative: feasibility test and margin LP must agree
    rng = Random(11)
    for _ in range(30):
        dim = rng.choice([2, 3])
        if rng.random() < 0.5:
            rays = random_pointed_rays(rng, dim, rng.randint(1, 3))
        else:
            rays = random_nonpointed_rays(rng, dim)
        P = VPolyhedron((Vector.zero(dim),), rays)
        pointed = is_pointed(P)
        try:
            find_barrier_direction(P)
            margin_positive = True
        except NotPointedError:
            margin_positive = False
        assert pointed == margin_positive


def test_polar_cone_contains():
    assert polar_cone_contains((), Vector([5, -7]))
    assert polar_cone_contains((Vector([1, 0]), Vector([0, 1])), Vector([-1, -1]))
    assert not polar_cone_contains((Vector([1, 0]),), Vector([1, 0]))


def test_membership_examples():
    assert membership(UNIT_SQUARE, Vector([F(1, 2), F(1, 2)]))
    assert not membership(UNIT_SQUARE, Vector([2, 0]))
    on_ray = VPolyhedron((Vector([0, 0]),), (Vector([1, 1]),))
    assert membership(on_ray, Vector([3, 3]))
    assert not membership(on_ray, Vector([3, 2]))


def test_membership_generators():
    rng = Random(5)
    for _ in range(10):
        P = random_pointed_polyhedron(rng, rng.choice([2, 3]), rng.choice([1, 2]), 3, 2)
        for v in P.vertices:
            assert membership(P, v)
        for r in P.rays:
            for t in (F(1, 2), F(3)):
                assert membership(P, P.vertices[0] + t * r)
        for _ in range(5):
            assert membership(P, random_point_inside(rng, P))


def test_membership_boundary_exactness():
    # (1, t) sits on the square's edge for t in [0, 1], off it otherwise
    assert membership(UNIT_SQUARE, Vector([1, F(1, 3)]))
    assert not membership(UNIT_SQUARE, Vector([F(10**9 + 1, 10**9), F(1, 3)]))


def test_project_onto_facet():
    assert project(UNIT_SQUARE, Vector([2, F(1, 2)])) == Vector([1, F(1, 2)])


def test_project_is_identity_inside():
    y = Vector([F(1, 3), F(2, 3)])
    assert project(UNIT_SQUARE, y) == y


def test_project_triangle_corner():
    # nearest point of the hypotenuse, certified by the variational
    # inequality at all three vertices
    y = Vector([1, 1])
    z = project(TRIANGLE, y)
    assert z == Vector([F(1, 2), F(1, 2)])
    g = y - z
    for v in TRIANGLE.vertices:
        assert g.dot(v - z).sign() <= 0


def test_project_requires_pointed():
    line = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    with pytest.raises(NotPointedError):
        project(line, Vector([0, 1]))


def test_project_onto_ray_set():
    P = VPolyhedron((Vector([1, 0]),), (Vector([1, 1]),))
    z = project(P, Vector([0, 3]))
    g = Vector([0, 3]) - z
    assert membership(P, z)
    for v in P.vertices:
        assert g.dot(v - z).sign() <= 0
    for r in P.rays:
        assert g.dot(r).sign() <= 0


def test_project_surd_data():
    z = project(SQ2_TRIANGLE, Vector([2, 2]))
    assert membership(SQ2_TRIANGLE, z)
    g = Vector([2, 2]) - z
    for v in SQ2_TRIANGLE.vertices:
        assert g.dot(v - z).sign() <= 0


def test_projection_beats_random_points():
    rng = Random(23)
    for _ in range(8):
        P = random_pointed_polyhedron(rng, rng.choice([2, 3]), rng.choice([1, 2]), 4, 1)
        y = exterior_point(rng, P, F(2))
        z = project(P, y)
        base = (y - z).norm_sq()
        for _ in range(20):
            x = random_point_inside(rng, P)
            assert ((y - x).norm_sq() - base).sign() >= 0


@given(
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=2, max_size=2),
)
def test_support_positive_homogeneity(t, coords):
    a = Vector(coords)
    sv = support_value(TRIANGLE, a)
    scaled = support_value(TRIANGLE, t * a)
    assert scaled.value == sv.value * Surd(t)


@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=2, max_size=2),
)
def test_support_sublinear(c1, c2):
    a, b = Vector(c1), Vector(c2)
    sab = support_value(UNIT_SQUARE, a + b).value
    assert (support_value(UNIT_SQUARE, a).value + support_value(UNIT_SQUARE, b).value - sab).sign() >= 0


def test_support_translation_identity():
    rng = Random(31)
    P = random_pointed_polyhedron(rng, 2, 2, 3, 1)
    y = exterior_point(rng, P)
    z = project(P, y)
    C = P.translated(-z)
    for _ in range(20):
        a = rand_rational_vector(rng, 2)
        sX = support_value(P, a)
        sC = support_value(C, a)
        assert sX.is_finite == sC.is_finite
        if sX.is_finite:
            assert sX.value == sC.value + a.dot(z)


def test_support_zero_at_residual_after_centering():
    rng = Random(37)
    for _ in range(6):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, 1)
        y = exterior_point(rng, P)
        z = project(P, y)
        C = P.translated(-z)
        y_bar = y - z
        assert support_value(C, y_bar).value.sign() == 0
        for _ in range(10):
            a = rand_rational_vector(rng, 2)
            sv = support_value(C, a)
            if sv.is_finite:
                assert sv.value.sign() >= 0

from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ratsep import (
    DimensionMismatchError,
    GridSpec,
    NotPointedError,
    SeparationBugError,
    Surd,
    Vector,
    VPolyhedron,
    excess_measure,
    is_pointed,
    membership,
    outer_approximate,
    project,
    separate,
    support_value,
)
from ratsep import approximation, linalg, sets
from ratsep.approximation import OuterApprox
from ratsep.scalars import _pair_sign
from ratsep.separation import find_barrier_direction
from helpers import (
    face_walk_project,
    facet_membership,
    lp_is_pointed,
    lp_membership,
    moved_by_hand,
    rand_rational_vector,
    random_nonpointed_rays,
    random_pointed_polyhedron,
    random_pointed_rays,
    random_point_inside,
    exterior_point,
    pointwise_excess,
    pushed_off_faces,
    surd_double_description,
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


def test_vpolyhedron_stores_its_dimension():
    # dim is the vertices' dimension, stored once at construction: not a
    # constructor argument, and no part of ==, hash or repr
    ray_set = VPolyhedron((Vector([0, 0, 1]),), (Vector([1, 0, 0]),))
    for P, dim in ((TRIANGLE, 2), (ray_set, 3), (VPolyhedron((Vector([SQ2]),)), 1)):
        assert P.dim == P.vertices[0].dim == dim and vars(P)["dim"] == dim
    with pytest.raises(TypeError):
        VPolyhedron(TRIANGLE.vertices, dim=2)
    with pytest.raises(TypeError):
        VPolyhedron(TRIANGLE.vertices, (), 2)
    same = VPolyhedron(TRIANGLE.vertices)
    assert same == TRIANGLE and hash(same) == hash(TRIANGLE)
    assert repr(TRIANGLE) == f"VPolyhedron(vertices={TRIANGLE.vertices!r}, rays=())"


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


def test_support_value_is_finite_iff_no_ray_points_uphill():
    origin = (Vector([0, 0]),)
    assert support_value(VPolyhedron(origin), Vector([5, -7])).is_finite
    quadrant = VPolyhedron(origin, (Vector([1, 0]), Vector([0, 1])))
    assert support_value(quadrant, Vector([-1, -1])).is_finite
    assert not support_value(VPolyhedron(origin, (Vector([1, 0]),)), Vector([1, 0])).is_finite


@pytest.mark.parametrize("sign", [1, -1])
def test_support_value_rejects_another_irrational_field_whichever_way_it_points(sign):
    # the ray (1, 0) points uphill from (sqrt 3, 0) and downhill from (-sqrt 3, 0)
    P = VPolyhedron((Vector([SQ2, 0]),), (Vector([1, 0]),))
    with pytest.raises(ValueError, match=r"cannot mix sqrt\(3\) and sqrt\(2\)"):
        support_value(P, Vector([sign * Surd.root(3), 0]))


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
        base = (y - z).dot(y - z)
        for _ in range(20):
            x = random_point_inside(rng, P)
            assert ((y - x).dot(y - x) - base).sign() >= 0


@settings(max_examples=100)
@given(
    dim=st.integers(2, 5),
    k=st.sampled_from([1, 2, 1000003]),
    extra=st.integers(0, 2),
    n_rays=st.integers(0, 2),
    where=st.sampled_from(["vertex", "facet", "edge"]),
    seed=st.integers(0, 10**6),
)
def test_project_matches_the_face_walk_oracle(dim, k, extra, n_rays, where, seed):
    """Off a vertex, the centroid of a facet or the midpoint of an edge,
    project agrees with the membership-checked walk of helpers; off a
    facet or an edge the answer is also known: the centroid or midpoint."""
    rng = Random(seed)
    P = random_pointed_polyhedron(rng, dim, k, dim + extra, n_rays)
    if where == "vertex":
        y = exterior_point(rng, P, F(1, 2))
        assert project(P, y) == face_walk_project(P, y)
        return
    faces = pushed_off_faces(P, edges=where == "edge")
    assume(faces)
    c, y = faces[rng.randrange(len(faces))]
    assert project(P, y) == face_walk_project(P, y) == c


def cyclic_polytope(dim: int, count: int, k: int) -> VPolyhedron:
    """conv{(c*t, t^2, ..., t^dim) : t = 0..count-1} with c = sqrt(k)."""
    c = Surd.root(k) if k > 1 else 1
    return VPolyhedron(
        tuple(Vector([c * t] + [t**i for i in range(2, dim + 1)]) for t in range(count))
    )


@pytest.mark.parametrize("dim, count, k", [(4, 8, 1), (4, 8, 2), (5, 10, 1), (5, 10, 2)])
def test_project_just_outside_a_facet_of_a_cyclic_polytope(dim, count, k):
    P = cyclic_polytope(dim, count, k)
    for c, y in pushed_off_faces(P, edges=False)[:2]:
        assert project(P, y) == face_walk_project(P, y) == c


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
    C = moved_by_hand(P, -z)
    for _ in range(20):
        a = rand_rational_vector(rng, 2)
        sX = support_value(P, a)
        sC = support_value(C, a)
        assert sX.is_finite == sC.is_finite
        if sX.is_finite:
            assert sX.value == sC.value + a.dot(z)


def test_translated_works_out_the_field_of_the_moved_vertices():
    # the sqrt(2) parts cancel, so the set translated through the checked
    # constructor is rational
    P = VPolyhedron((Vector([SQ2, 0]), Vector([1 + SQ2, 1])))
    moved = moved_by_hand(P, Vector([-SQ2, 0]))
    assert moved.field_k == 1 and moved == VPolyhedron((Vector([0, 0]), Vector([1, 1])))


def test_support_zero_at_residual_after_centering():
    rng = Random(37)
    for _ in range(6):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, 1)
        y = exterior_point(rng, P)
        z = project(P, y)
        C = moved_by_hand(P, -z)
        y_bar = y - z
        assert support_value(C, y_bar).value.sign() == 0
        for _ in range(10):
            a = rand_rational_vector(rng, 2)
            sv = support_value(C, a)
            if sv.is_finite:
                assert sv.value.sign() >= 0


def test_facet_description_examples():
    def counts(P):
        equations, facets = P.facet_description
        return len(equations), len(facets)

    assert counts(UNIT_SQUARE) == (0, 4)
    # an interior and a repeated vertex add no facet
    extra = (Vector([F(1, 2), F(1, 3)]), Vector([1, 1]))
    assert counts(VPolyhedron((*UNIT_SQUARE.vertices, *extra))) == (0, 4)
    assert counts(SQ2_TRIANGLE) == (0, 3)
    assert counts(VPolyhedron((Vector([1, 2, 3]),))) == (3, 0)
    assert counts(VPolyhedron((Vector([0, 0, 0]), Vector([1, 2, 3]), Vector([2, 4, 6])))) == (2, 2)
    wedge = (Vector([1, 0]), Vector([1, 1]), Vector([2, 1]))
    assert counts(VPolyhedron((Vector([0, 0]),), wedge)) == (0, 2)
    assert counts(VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))) == (1, 0)
    cube = tuple(Vector([(i >> j) & 1 for j in range(3)]) for i in range(8))
    assert counts(VPolyhedron(cube)) == (0, 6)
    cross = tuple(s * Vector([int(i == j) for j in range(4)]) for i in range(4) for s in (1, -1))
    assert counts(VPolyhedron(cross)) == (0, 16)
    # repeated vertices make non-adjacent rays share enough zeros to pass
    # the count test of the double description; the adjacency test drops them
    repeats = [[-2, -1, 2], [0, -1, 0], [-1, 1, 2], [-2, -2, 1], [0, -1, 0],
               [2, 2, 1], [-1, 1, 2], [0, -1, 0], [0, -1, -2], [-2, 2, -2]]
    assert counts(VPolyhedron(tuple(Vector(v) for v in repeats))) == (0, 9)
    # the cyclic polytope C(8, 4) has 8/6 * C(6, 2) = 20 facets
    assert counts(VPolyhedron(tuple(Vector([t, t**2, t**3, t**4]) for t in range(8)))) == (0, 20)


def test_membership_rejects_a_point_from_another_field():
    # every facet is rational (x >= 0, y >= 0, x + y <= 2); sqrt(2) enters
    # only through a generator on an edge
    P = VPolyhedron((Vector([0, 0]), Vector([2, 0]), Vector([0, 2]), Vector([SQ2, 0])))
    assert all(a.is_rational and b.is_rational for a, b in P.facet_description.facets)
    with pytest.raises(ValueError, match=r"cannot mix sqrt\(3\) and sqrt\(2\)"):
        membership(P, Vector([Surd.root(3), -1]))
    assert membership(P, Vector([SQ2, 0])) and not membership(P, Vector([2, 2]))


COORD_PARTS = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([0, 0, 1, -1, F(1, 2)]),
)


def reference_field_k(coords) -> int | None:
    """The one k > 1 among the coordinates, 1 if there is none, None if two."""
    ks = {c.k for c in coords} - {1}
    return None if len(ks) > 1 else next(iter(ks), 1)


FIELD_COORDS = st.tuples(st.sampled_from([1, 2, 3]), COORD_PARTS)


@given(st.lists(st.lists(FIELD_COORDS, min_size=3, max_size=3), min_size=1, max_size=4))
def test_field_k_matches_a_reference_scan(rows):
    vectors = []
    for row in rows:
        coords = [Surd(r, s, k) for k, (r, s) in row]
        k = reference_field_k(coords)
        if k is None:
            with pytest.raises(ValueError):
                Vector(coords)
        else:
            vectors.append(Vector(coords))
            assert vectors[-1].field_k == k
    if not vectors:
        return
    rays = tuple(v for v in vectors[1:] if not v.is_zero())
    k = reference_field_k([c for v in (vectors[0], *rays) for c in v])
    if k is None:
        with pytest.raises(ValueError, match="generators mix different quadratic fields"):
            VPolyhedron(vectors[:1], rays)
    else:
        assert VPolyhedron(vectors[:1], rays).field_k == k


def vectors(dim: int, k: int):
    return st.lists(COORD_PARTS, min_size=dim, max_size=dim).map(
        lambda parts: Vector([Surd(r, s, k) for r, s in parts])
    )


def antiparallel(u: Vector, v: Vector) -> bool:
    """Whether v = -t*u for some t > 0: equality in Cauchy-Schwarz with <u, v> < 0."""
    d = u.dot(v)
    return d.sign() < 0 and (d * d - u.dot(u) * v.dot(v)).sign() == 0


@st.composite
def generator_sets(draw):
    """V-polyhedra in dims 2-4 over k in {1, 2} with 1-6 vertices and 0-4
    rays, degenerate ones included: repeated or interior vertices, parallel
    or duplicate rays, collinear points in 3-D, a single point, and sets
    containing a line: through a pair of opposite rays, or through three or
    four rays that sum to zero with no opposite pair among them."""
    shape = draw(
        st.sampled_from(
            ["general", "repeated", "interior", "parallel", "collinear", "point", "line",
             "balanced"]
        )
    )
    dim = 3 if shape == "collinear" else draw(st.integers(2, 4))
    k = draw(st.sampled_from([1, 2]))
    vec = vectors(dim, k)
    ray = vec.filter(lambda r: not r.is_zero())
    vertices = draw(st.lists(vec, min_size=1, max_size=6))
    rays = draw(st.lists(ray, max_size=4))
    if shape == "repeated":
        vertices = (vertices[:3] * 2)[: max(2, len(vertices))]
    elif shape == "interior":
        vertices = vertices[:4]
        vertices.append(F(1, len(vertices)) * sum(vertices[1:], vertices[0]))
        vertices.append(F(1, 2) * (vertices[0] + vertices[-2]))
    elif shape == "parallel":
        r = draw(ray)
        rays = [r, r, F(2) * r, F(1, 2) * r][: draw(st.integers(2, 4))]
    elif shape == "collinear":
        p, d = draw(vec), draw(ray)
        ts = draw(st.lists(st.fractions(-2, 2, max_denominator=2), min_size=1, max_size=5))
        vertices = [p + t * d for t in ts]
        rays = draw(st.sampled_from([[], [d], [-d], [d, -d]]))
    elif shape == "point":
        vertices, rays = vertices[:1], []
    elif shape == "line":
        seed = draw(st.integers(0, 10**6))
        rays = list(random_nonpointed_rays(Random(seed), dim, draw(st.integers(0, 2))))
    elif shape == "balanced":
        rays = draw(st.lists(ray, min_size=2, max_size=3))
        rays.append(-sum(rays[1:], rays[0]))
        assume(not rays[-1].is_zero())
        assume(not any(antiparallel(u, v) for u, v in combinations(rays, 2)))
    return VPolyhedron(tuple(vertices), tuple(rays)), draw(st.lists(vec, max_size=3))


def query_points(P: VPolyhedron, extra) -> list[Vector]:
    """Vertices, v +- t*r, midpoints of vertex pairs, points pushed past
    the support value of rational directions, and the given extras."""
    points = list(P.vertices)
    for v in P.vertices[:2]:
        for r in P.rays:
            points += [v + F(3) * r, v - F(1, 2) * r]
    points += [F(1, 2) * (a + b) for a, b in combinations(P.vertices[:4], 2)]
    for u in (Vector(row) for row in ((1,) + (0,) * (P.dim - 1), (-1, 2) + (1,) * (P.dim - 2))):
        sv = support_value(P, u)
        if sv.is_finite:
            best = next(v for v in P.vertices if u.dot(v) == sv.value)
            points += [best + F(1, 100) * u, best]
    return points + list(extra)


@settings(max_examples=50)
@given(generator_sets())
def test_membership_and_pointedness_match_the_lp_oracles(case):
    P, extra = case
    assert is_pointed(P) == lp_is_pointed(P)
    for x in query_points(P, extra):
        assert membership(P, x) == lp_membership(P, x) == facet_membership(P, x), x


def test_is_pointed_decides_lines_without_elimination(monkeypatch):
    # a line through three or four rays that sum to zero, with no opposite pair
    cases = [
        (VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([1, 1]))), True),
        (VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0]))), False),
        (VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([0, 1]), Vector([-1, -1]))), False),
        (VPolyhedron((Vector([SQ2, 0, 1]),), (Vector([1, 2, 0]), Vector([-2, -1, 0]))), True),
        (
            VPolyhedron(
                (Vector([0, 0, 0]),),
                (Vector([1, 0, 0]), Vector([0, SQ2, 1]), Vector([0, 0, -1]), Vector([-1, -SQ2, 0])),
            ),
            False,
        ),
    ]
    assert [lp_is_pointed(P) for P, _ in cases] == [pointed for _, pointed in cases]

    def no_solve(*args):
        raise AssertionError("is_pointed solved a linear system")

    monkeypatch.setattr(sets, "solve_linear_system", no_solve)
    assert [is_pointed(P) for P, _ in cases] == [pointed for _, pointed in cases]


def counting_description(monkeypatch) -> list:
    calls = []
    describe = sets._double_description

    def counting(P):
        calls.append(P)
        return describe(P)

    monkeypatch.setattr(sets, "_double_description", counting)
    return calls


def test_separate_describes_the_set_once(monkeypatch):
    # separate calls is_pointed twice on X, counting the call project
    # makes inside it, and membership and project once each, and none of
    # them builds X's own description: pointedness reads the margin LP of
    # the rays, and membership and project one projection
    calls = counting_description(monkeypatch)
    X = VPolyhedron((Vector([0, 0]), Vector([SQ2, 1])), (Vector([1, 0]), Vector([1, 2])))
    separate(X, Vector([-1, 1]))
    assert calls == []


def counting_polar(monkeypatch) -> list:
    calls = []
    polar = sets._polar_cone

    def counting(gens, n, k):
        calls.append(gens)
        return polar(gens, n, k)

    monkeypatch.setattr(sets, "_polar_cone", counting)
    return calls


def test_separate_on_a_polytope_runs_no_double_description(monkeypatch):
    rng = Random(41)
    cases = []
    for dim in (2, 3, 4):
        P = random_pointed_polyhedron(rng, dim, 2, dim + 2, 0)
        cases += [(P.vertices, y) for _, y in pushed_off_faces(P, edges=dim == 3)[:2]]
        cases.append((P.vertices, exterior_point(rng, P)))
    cases = [(vertices, (), y) for vertices, y in cases]
    for dim in (2, 3, 4):
        P = random_pointed_polyhedron(rng, dim, 2, dim + 2, dim - 1)
        cases += [(P.vertices, P.rays, y) for _, y in pushed_off_faces(P, edges=False)[:2]]
        cases.append((P.vertices, P.rays, exterior_point(rng, P)))
    calls = counting_description(monkeypatch)
    polar = counting_polar(monkeypatch)
    for vertices, rays, y in cases:
        X = VPolyhedron(vertices, rays)  # a new object, whose description is not built yet
        separate(X, y)
    assert calls == [] and polar == []


def counting_lps(monkeypatch) -> list:
    calls = []
    solve = sets.simplex_max

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sets, "simplex_max", counting)
    return calls


def test_pointedness_solves_one_margin_lp_per_set(monkeypatch):
    lps, polar = counting_lps(monkeypatch), counting_polar(monkeypatch)
    X = VPolyhedron((Vector([0, 0]), Vector([SQ2, 1])), (Vector([1, 0]), Vector([1, 2])))
    separate(X, Vector([-1, 1]))
    separate(X, Vector([-2, 1]))
    assert len(lps) == 1
    assert is_pointed(VPolyhedron(X.vertices, X.rays))
    assert len(lps) == 2 and polar == []
    # every cut of an outer approximation separates from the one set object
    probes = list(GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2)).points())
    approx = outer_approximate(VPolyhedron(X.vertices, X.rays), probes, budget=6)
    assert len(approx.cuts) > 1 and len(lps) == 3 and polar == []


def test_facet_description_of_a_set_with_rays_solves_no_lp(monkeypatch):
    # pointedness is is_pointed's alone, so the double description and the
    # excess measure that reads it run with the simplex out of reach
    vertices, rays = (Vector([0, 0]), Vector([SQ2, 1])), (Vector([1, 0]), Vector([1, 2]))
    probes = list(GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2)).points())
    cuts = outer_approximate(VPolyhedron(vertices, rays), probes, budget=4).cuts

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(sets, "simplex_max", no_lp)
    rays_3d = VPolyhedron(
        (Vector([0, 0, 0]), Vector([2, SQ2, 0]), Vector([0, 1, 3]), Vector([1, 1, 1])),
        (Vector([1, 0, 1]), Vector([0, 1, 2])),
    )
    for P in (VPolyhedron(vertices, rays), rays_3d):
        assert P.facet_description == surd_double_description(P)[0]
    X = VPolyhedron(vertices, rays)
    approx = OuterApprox(X, cuts)
    grid = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 4))
    assert excess_measure(X, approx, grid) == pointwise_excess(X, approx, grid) > 0


def test_margin_lp_fault_is_a_bug(monkeypatch):
    # the margin LP is feasible (d = 0, t = 0) and bounded, so a simplex
    # that finds no leaving row, or a division that leaves a remainder, is
    # a program fault, not a verdict on the set
    X = VPolyhedron((Vector([0, 0]),), (Vector([3, 1]), Vector([2, 5])))
    fault = SeparationBugError("the margin LP found no leaving row, but the box bounds it")

    def no_leaving_row(rays):
        raise fault

    monkeypatch.setattr(sets, "simplex_max", no_leaving_row)
    with pytest.raises(SeparationBugError, match=f"the margin LP raised SeparationBugError: {fault}"):
        is_pointed(X)
    monkeypatch.undo()
    pivot = linalg._pivot

    def corrupting(T, r, c, D, k):
        # the first pivot stores one entry off by one, so the next division fails
        p = pivot(T, r, c, D, k)
        T[r][-1] += 1
        return p

    monkeypatch.setattr(linalg, "_pivot", corrupting)
    with pytest.raises(SeparationBugError, match="the margin LP raised SeparationBugError: .* left a remainder"):
        is_pointed(VPolyhedron(X.vertices, X.rays))


def test_outer_approximate_tests_membership_only_past_the_cuts(monkeypatch):
    cuts, tested = [], []
    member, separating = approximation.membership, approximation.separate

    def recording_membership(X, p):
        tested.append((p, len(cuts)))
        return member(X, p)

    def recording_separate(X, p):
        cert, trace = separating(X, p)
        cuts.append(cert)
        return cert, trace

    monkeypatch.setattr(approximation, "membership", recording_membership)
    monkeypatch.setattr(approximation, "separate", recording_separate)
    X = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))
    probes = list(GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2)).points())
    approx = outer_approximate(X, probes, budget=6)
    assert list(approx.cuts) == cuts and len(cuts) == 6
    # a probe is tested only when no cut made before it excludes it ...
    assert all(not any(cut.excludes(p) for cut in cuts[:n]) for p, n in tested)
    # ... and the probes passed over before the last test are excluded
    seen = {p for p, _ in tested}
    last = max(probes.index(p) for p in seen)
    skipped = [p for p in probes[:last] if p not in seen]
    assert skipped and all(approx.excludes(p) for p in skipped)


@pytest.mark.parametrize(
    "P, y, z",
    [
        # conv{(3, 2), (0, 1), (-3, -3)}: (0, 1) enters, then (-3, -3), and
        # the affine minimizer of all three gives (0, 1) a negative weight
        (
            VPolyhedron((Vector([3, 2]), Vector([0, 1]), Vector([-3, -3]))),
            Vector([1, -2]),
            Vector([F(-9, 61), F(-38, 61)]),
        ),
        # with a ray, the nearest vertex (2, 1) leaves the corral
        (
            VPolyhedron(
                (Vector([0, -1]), Vector([2, 1]), Vector([1, 2]), Vector([-3, 0])),
                (Vector([2, -1]),),
            ),
            Vector([4, 4]),
            Vector([F(13, 5), F(6, 5)]),
        ),
    ],
)
def test_a_generator_leaves_the_corral(monkeypatch, P, y, z):
    negative = []
    face_point = sets._face_point

    def recording(y, vs, rs):
        w, weights, den = face_point(y, vs, rs)
        negative.extend(a for a in weights if _pair_sign(a, P.field_k) < 0)
        return w, weights, den

    monkeypatch.setattr(sets, "_face_point", recording)
    assert project(P, y) == face_walk_project(P, y) == z
    assert negative  # so a minor cycle stepped by theta < 1


def test_the_face_point_takes_the_field_of_v0_and_y():
    # the span (1, 0) and y - v0 = (1/2, 1) are rational, v0 and y are not:
    # z lies in Q(sqrt 2) all the same, halfway between the two vertices
    v0, v1 = Vector([SQ2, 0]), Vector([SQ2 + 1, 0])
    z, weights, den = sets._face_point(Vector([SQ2 + F(1, 2), 1]), [v0, v1], [])
    assert z == Vector([SQ2 + F(1, 2), 0]) and z.field_k == 2
    assert (weights, den) == ([(1, 0), (1, 0)], 2)


def stuck_minor_cycles(monkeypatch) -> list:
    """Break the minor cycles so that the entering generator leaves at
    once and the corral stays as it was; returns the list of their calls."""
    calls = []
    minor = sets._minor_cycles

    def stuck(y, P, weights, den):
        calls.append(weights)
        return minor(y, P, {i: w for i, w in weights.items() if w != (0, 0)}, den)

    monkeypatch.setattr(sets, "_minor_cycles", stuck)
    return calls


@pytest.mark.parametrize(
    "P, y, cycles",
    [
        # subsets of 3 vertices with 1 to 3 members
        (TRIANGLE, Vector([1, 1]), 7),
        # one vertex and one ray in the plane: {v} and {v, r}
        (VPolyhedron((Vector([1, 0]),), (Vector([1, 1]),)), Vector([0, 3]), 2),
    ],
)
def test_the_major_cycles_are_bounded(monkeypatch, P, y, cycles):
    entered = stuck_minor_cycles(monkeypatch)
    message = f"the projection exceeded its bound of {cycles} major cycles"
    for decide in (project, membership):
        entered.clear()
        with pytest.raises(SeparationBugError, match=message):
            # a new equal set: P itself keeps the last point an earlier
            # test projected, and may answer y from it
            decide(VPolyhedron(P.vertices, P.rays), y)
        assert len(entered) == cycles


def counting_projections(monkeypatch) -> list:
    """The runs of Wolfe's loop in ``sets._nearest``, each of which starts
    at the vertex nearest its query (``_nearest_vertex``)."""
    runs = []
    start = sets._nearest_vertex

    def counting(P, y):
        runs.append(y)
        return start(P, y)

    monkeypatch.setattr(sets, "_nearest_vertex", counting)
    return runs


def test_separate_projects_once(monkeypatch):
    rng = Random(43)
    cases = []
    for dim, rays in ((2, 0), (2, 1), (3, 0), (3, 2), (4, 1)):
        P = random_pointed_polyhedron(rng, dim, rng.choice([1, 2]), dim + 1, rays)
        cases += [(P, y) for _, y in pushed_off_faces(P, edges=False)[:2]]
        cases.append((P, exterior_point(rng, P)))
    runs = counting_projections(monkeypatch)
    for P, y in cases:
        runs.clear()
        separate(VPolyhedron(P.vertices, P.rays), y)
        assert runs == [y]


def test_outer_approximate_projects_once_per_probe_it_tests(monkeypatch):
    X = VPolyhedron((Vector([0, 0]), Vector([SQ2, 1])), (Vector([1, 0]), Vector([1, 2])))
    probes = list(GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2)).points())
    cuts = outer_approximate(VPolyhedron(X.vertices, X.rays), probes, budget=50).cuts
    # the probes that no cut made before them excludes, each tested once
    tested, made = [], 0
    for p in probes:
        if not any(cut.excludes(p) for cut in cuts[:made]):
            tested.append(p)
            made += not membership(X, p)
    assert made == len(cuts) > 1
    runs = counting_projections(monkeypatch)
    assert outer_approximate(VPolyhedron(X.vertices, X.rays), probes, budget=50).cuts == cuts
    assert runs == tested


def test_the_set_keeps_its_last_projection(monkeypatch):
    runs = counting_projections(monkeypatch)
    X = VPolyhedron(TRIANGLE.vertices)
    y = Vector([1, 1])
    z = project(X, y)
    # an equal but distinct query reads the kept point
    assert not membership(X, Vector([F(2, 2), F(3, 3)]))
    assert project(X, Vector([1, 1])) == z and runs == [y]
    # another point, then y again, since only the last query is kept
    assert project(X, Vector([2, 1])) == Vector([1, 0])
    assert project(X, y) == z and len(runs) == 3
    # an equal set is another object, with nothing kept yet
    assert project(VPolyhedron(TRIANGLE.vertices), y) == z and len(runs) == 4


def test_the_kept_projection_skips_no_check():
    line = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    y = Vector([0, 1])
    assert not membership(line, y)
    with pytest.raises(NotPointedError):
        project(line, y)


def test_a_failed_projection_keeps_nothing(monkeypatch):
    entered = stuck_minor_cycles(monkeypatch)
    X = VPolyhedron(TRIANGLE.vertices)
    for _ in range(2):
        with pytest.raises(SeparationBugError, match="exceeded its bound of 7 major cycles"):
            project(X, Vector([1, 1]))
    assert len(entered) == 2 * 7


def test_outer_approximation_run_describes_the_set_once(monkeypatch):
    calls = counting_description(monkeypatch)
    X = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))
    grid = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2))
    approx = outer_approximate(X, grid.points(), budget=6)
    excess_measure(X, approx, grid)
    assert len(approx.cuts) == 6
    assert calls == [X]

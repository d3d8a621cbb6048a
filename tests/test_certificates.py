import dataclasses
from fractions import Fraction as F
from math import isqrt
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from ratsep import (
    Certificate,
    DimensionMismatchError,
    Surd,
    Vector,
    VPolyhedron,
    brute_force_separator,
    rational_parallel_direction,
    separate,
    verify_certificate,
)
from ratsep.certificates import _direction_pairs
from ratsep.serialization import certificate_to_json, parse_certificate
from helpers import as_fraction, exterior_point, forbid_floats, random_pointed_polyhedron

SQ2 = Surd.root(2)
TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([1, 0]), Vector([0, 1])))
UNIT_SQUARE = VPolyhedron(
    (Vector([0, 0]), Vector([1, 0]), Vector([1, 1]), Vector([0, 1]))
)


def test_certificate_validation():
    with pytest.raises(ValueError):
        Certificate(Vector([0, 0]), F(1))
    with pytest.raises(ValueError):
        Certificate(Vector([SQ2, 0]), F(1))
    cert = Certificate(Vector([1, 2]), F(3, 2))
    assert cert.a.as_fractions() == (F(1), F(2))


@pytest.mark.parametrize("beta", [0.1, "1/3"])
def test_certificate_rejects_an_inexact_beta(beta):
    # a float would be stored as its binary expansion, e.g. 0.1 as .../2**55
    with pytest.raises(TypeError, match="expected int or Fraction"):
        Certificate(Vector([1, 0]), beta)


def test_verify_examples():
    y = Vector([1, 1])
    assert verify_certificate(TRIANGLE, y, Certificate(Vector([1, 1]), F(3, 2)))
    # <a, y> must beat beta strictly
    assert not verify_certificate(TRIANGLE, y, Certificate(Vector([1, 1]), F(2)))
    ray_set = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]),))
    assert not verify_certificate(ray_set, Vector([0, 1]), Certificate(Vector([1, 0]), F(5)))


def test_verify_dimension_check():
    with pytest.raises(DimensionMismatchError):
        verify_certificate(TRIANGLE, Vector([1, 1, 1]), Certificate(Vector([1, 1]), F(1)))


small = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def onto_hyperplane(a, x, level):
    """x moved along its first coordinate i with a_i != 0 onto the
    hyperplane <a, x> = level."""
    i = next(i for i, c in enumerate(a) if c)
    rest = sum((c * y for j, (c, y) in enumerate(zip(a, x)) if j != i), Surd(0))
    return [*x[:i], (level - rest) / a[i], *x[i + 1:]]


@st.composite
def cut_cases(draw):
    """A polyhedron over Q(sqrt k), k in {2, 1000003}, with 0-3 rays, a
    cut and a point.  Some vertices are moved onto the cut's hyperplane
    <a, x> = beta and some rays onto <a, r> = 0, and a ray along a, with
    <a, r> > 0, may be added."""
    k = draw(st.sampled_from([2, 1000003]))
    dim = draw(st.integers(2, 3))
    coords = st.lists(st.builds(Surd, small, small, st.just(k)), min_size=dim, max_size=dim)
    vertices = draw(st.lists(coords, min_size=1, max_size=4))
    rays = draw(st.lists(coords, max_size=2))
    a = draw(st.lists(small, min_size=dim, max_size=dim).filter(any))
    beta = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
    count = len(vertices) + len(rays)
    on_plane = iter(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    vertices = [onto_hyperplane(a, v, beta) if next(on_plane) else v for v in vertices]
    rays = [onto_hyperplane(a, r, 0) if next(on_plane) else r for r in rays]
    rays += [a] if draw(st.booleans()) else []
    rays = [r for r in map(Vector, rays) if not r.is_zero()]
    X = VPolyhedron(tuple(map(Vector, vertices)), tuple(rays))
    return X, Certificate(Vector(a), beta), Vector(draw(coords))


ROOT = Surd.root(1000003)
ON_EDGE = VPolyhedron((Vector([ROOT / 1000, 1 - ROOT / 1000]), Vector([0, 1]), Vector([0, 0])))
LEVEL = VPolyhedron(ON_EDGE.vertices, (Vector([1, -1]),))
UPHILL = VPolyhedron(ON_EDGE.vertices, (Vector([-1, 0]), Vector([1, 0])))


@given(cut_cases())
@example((ON_EDGE, Certificate(Vector([1, 1]), 1), Vector([1, ROOT])))
@example((LEVEL, Certificate(Vector([1, 1]), 1), Vector([0, 0])))
@example((UPHILL, Certificate(Vector([1, 1]), 1), Vector([0, 0])))
def test_contains_and_excludes_match_explicit_loops(case):
    X, cert, p = case
    beta = Surd(cert.beta)
    reference = all((cert.a.dot(v) - beta).sign() <= 0 for v in X.vertices) and all(
        cert.a.dot(r).sign() <= 0 for r in X.rays
    )
    assert cert.contains(X) == reference
    assert cert.excludes(p) == ((cert.a.dot(p) - beta).sign() > 0)


def test_contains_builds_no_surd(monkeypatch):
    """``contains`` reads the cut's cleared form alone: with every Surd
    construction raising, it still decides sets over Q(sqrt 1000003)
    and a 3-D set with rays over Q(sqrt 2)."""
    cut = Certificate(Vector([1, 1]), 1)
    rays_3d = VPolyhedron(
        (Vector([0, 0, 0]), Vector([2, SQ2, 0]), Vector([0, 1, 3])),
        (Vector([1, 0, 1]), Vector([0, 1, 2])),
    )
    cuts_3d = [Certificate(Vector([-1, F(-1, 3), F(-1, 2)]), F(0)), Certificate(Vector([0, 0, 1]), 9)]

    def no_surd(*args):
        raise AssertionError("a Surd was built")

    monkeypatch.setattr(Surd, "_set", no_surd)
    assert [cut.contains(X) for X in (ON_EDGE, LEVEL, UPHILL)] == [True, True, False]
    assert [c.contains(rays_3d) for c in cuts_3d] == [True, False]


@st.composite
def field_cut_cases(draw):
    """A cut in 1-4 dimensions with a negative, zero or positive beta, a
    point over Q(sqrt k) for k in {1, 2, 1000003}, and that point moved
    along one coordinate onto the cut's hyperplane <a, x> = beta."""
    k = draw(st.sampled_from([1, 2, 1000003]))
    dim = draw(st.integers(1, 4))
    a = draw(st.lists(small, min_size=dim, max_size=dim).filter(any))
    beta = draw(st.sampled_from([F(0), F(-7, 3)]) | st.fractions(-6, 6, max_denominator=9))
    point = [Surd(draw(small), draw(small), k) for _ in range(dim)]
    on_plane = onto_hyperplane(a, point, beta)
    return Certificate(Vector(a), beta), Vector(point), Vector(on_plane)


@given(field_cut_cases())
def test_excludes_on_the_cleared_form_matches_the_surd_sign(case):
    cert, p, on_plane = case
    with forbid_floats():
        assert cert.excludes(p) == ((cert.a.dot(p) - Surd(cert.beta)).sign() > 0)
        assert (cert.a.dot(on_plane) - Surd(cert.beta)).sign() == 0
        assert not cert.excludes(on_plane)
        shifted = Certificate(cert.a, cert.beta - 1)
        assert shifted.excludes(on_plane)
        # a parsed certificate and a replaced one are cleared afresh
        for other in (
            parse_certificate(certificate_to_json(cert)),
            dataclasses.replace(cert),
            dataclasses.replace(shifted, beta=cert.beta),
        ):
            assert other == cert and hash(other) == hash(cert)
            assert other.cleared == cert.cleared
            assert [other.excludes(x) for x in (p, on_plane)] == [cert.excludes(p), False]


def test_the_cleared_form_is_not_compared_hashed_or_shown():
    cert = Certificate(Vector([F(1, 2), F(-2, 3)]), F(5, 4))
    # for a = (3, -4)/6 and beta = 5/4: (4*(3, -4), 5*6) as integer pairs
    assert cert.cleared == (((12, 0), (-16, 0)), (30, 0))
    assert repr(cert) == f"Certificate(a={cert.a!r}, beta={cert.beta!r})"
    other = Certificate(cert.a, cert.beta)
    object.__setattr__(other, "cleared", (((0, 0), (0, 0)), (0, 0)))
    assert other == cert and hash(other) == hash(cert)


def test_brute_force_triangle():
    cert = brute_force_separator(TRIANGLE, Vector([1, 1]), 2)
    assert cert == Certificate(Vector([1, 1]), F(3, 2))
    assert verify_certificate(TRIANGLE, Vector([1, 1]), cert)


def test_brute_force_interior_none():
    assert brute_force_separator(UNIT_SQUARE, Vector([F(1, 2), F(1, 2)]), 3) is None


def test_brute_force_with_ray():
    X = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]),))
    cert = brute_force_separator(X, Vector([0, 1]), 1)
    assert cert == Certificate(Vector([0, 1]), F(1, 2))


@pytest.mark.parametrize("max_den", [True, 2.0, F(2)])
def test_brute_force_max_den_must_be_an_int(max_den):
    with pytest.raises(TypeError, match=f"max_den must be an int, got {type(max_den).__name__}"):
        brute_force_separator(TRIANGLE, Vector([1, 1]), max_den)
    with pytest.raises(ValueError, match="max_den must be a positive integer"):
        brute_force_separator(TRIANGLE, Vector([1, 1]), 0)


def test_brute_force_dim_check():
    X = VPolyhedron((Vector([0, 0, 0]),))
    with pytest.raises(DimensionMismatchError):
        brute_force_separator(X, Vector([1, 1, 1]), 2)


def test_direction_pairs_cover_grid_once():
    pairs = list(_direction_pairs(3))
    assert len(pairs) == len(set(pairs))
    fractions = {F(p, q) for q in range(1, 4) for p in range(-3, 4)}
    expected = {(x, y) for x in fractions for y in fractions}
    assert set(pairs) == expected
    # the first height class is descending lexicographic
    assert pairs[:4] == [(F(1), F(1)), (F(1), F(0)), (F(1), F(-1)), (F(0), F(1))]


def test_brute_force_agrees_with_pipeline():
    rng = Random(61)
    for _ in range(10):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, rng.randint(0, 2))
        y = exterior_point(rng, P, F(rng.randint(1, 2)))
        oracle = brute_force_separator(P, y, 8)
        cert, _ = separate(P, y)
        assert verify_certificate(P, y, cert)
        if oracle is not None:
            assert verify_certificate(P, y, oracle)


def test_rational_parallel_examples():
    assert rational_parallel_direction(Vector([1, SQ2])) is None
    assert rational_parallel_direction(Vector([1, 2])) == Vector([1, 2])
    assert rational_parallel_direction(Vector([SQ2, SQ2])) == Vector([1, 1])


def test_rational_parallel_orientation():
    # normalization must preserve the direction, not just the line
    assert rational_parallel_direction(Vector([-2, -4])) == Vector([-1, -2])
    assert rational_parallel_direction(Vector([-SQ2, SQ2])) == Vector([-1, 1])


def test_rational_parallel_zero_rejected():
    with pytest.raises(ValueError):
        rational_parallel_direction(Vector([0, 0]))


def test_rational_parallel_output_is_positively_parallel():
    rng = Random(67)
    for _ in range(20):
        coords = [Surd(F(rng.randint(-3, 3)), F(rng.randint(-2, 2)), 2) for _ in range(3)]
        a = Vector(coords)
        if a.is_zero():
            continue
        c = rational_parallel_direction(a)
        if c is None:
            continue
        # cross products vanish: c is parallel to a
        for i in range(3):
            for j in range(3):
                assert c[i] * a[j] == c[j] * a[i]
        # and with matching orientation
        i0 = next(i for i in range(3) if a[i].sign() != 0)
        assert c[i0].sign() == a[i0].sign()


def surd_parallel_direction(a: Vector) -> Vector | None:
    """The Surd-division form of ``rational_parallel_direction``: every
    coordinate over the first nonzero one, oriented by its sign."""
    pivot = next(c for c in a if c.sign() != 0)
    ratios = [c / pivot for c in a]
    if not all(r.is_rational for r in ratios):
        return None
    c = Vector([as_fraction(r) for r in ratios])
    return -c if pivot.sign() < 0 else c


def test_rational_parallel_direction_divides_no_surd(monkeypatch):
    # the decision reads the integer pairs, so it needs no inverse in the
    # field; it gives the answers of dividing by the first nonzero coordinate
    rng = Random(20)
    vectors = [Vector([1, SQ2]), Vector([-SQ2, SQ2]), Vector([0, -2, 4]), Vector([0, SQ2, 3])]
    for k in (1, 2, 3, 1000003):
        root = Surd.root(k) if k != 1 else Surd(1)
        for _ in range(60):
            # rational multiples of one base, some shifted by 1 or sqrt(k)
            # so that not every vector has a rational parallel
            base = Surd(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2), 3), k)
            coords = [
                base * rng.choice([0, 1, F(-2, 3), 5]) + rng.choice([0, 0, 0, 1, root])
                for _ in range(rng.randint(1, 4))
            ]
            if not Vector(coords).is_zero():
                vectors.append(Vector(coords))
    expected = [surd_parallel_direction(a) for a in vectors]
    assert any(e is None for e in expected) and sum(e is not None for e in expected) > 100

    def no_inverse(self):
        raise AssertionError("rational_parallel_direction divided by a Surd")

    monkeypatch.setattr(Surd, "inverse", no_inverse)
    assert [rational_parallel_direction(a) for a in vectors] == expected


def test_no_small_rational_is_parallel_to_one_sqrt2():
    # c = mu * (1, sqrt2) with mu > 0 forces c2/c1 = sqrt2; for fractions
    # with numerators and denominators up to 50 that ratio is (p2 q1)/(p1 q2),
    # so it suffices that m**2 != 2 * n**2 for every m, n up to 2500.
    for n in range(1, 2501):
        m_sq = 2 * n * n
        root = isqrt(m_sq)
        assert root * root != m_sq


def test_halfspace_containment_characterization():
    # {<a, x> <= 0} is inside {<c, x> <= 0} iff c is positively parallel
    # to a; checked on 64 exact boundary samples of each halfplane edge.
    def boundary_samples(a: Vector) -> list[Vector]:
        perp = Vector([-a[1], a[0]])
        out = []
        for i in range(1, 33):
            t = F(i, 7)
            out.append(t * perp)
            out.append(-t * perp)
        return out

    cases = [
        (Vector([1, SQ2]), Vector([1, 1]), False),
        (Vector([1, SQ2]), Vector([2, 3]), False),
        (Vector([SQ2, SQ2]), Vector([1, 1]), True),
        (Vector([2, 4]), Vector([1, 2]), True),
        (Vector([2, 4]), Vector([-1, -2]), False),
    ]
    for a, c, parallel in cases:
        found = rational_parallel_direction(a)
        claims_parallel = found is not None and all(
            c[i] * found[j] == c[j] * found[i] for i in range(2) for j in range(2)
        ) and (found[0] * c[0] + found[1] * c[1]).sign() > 0
        assert claims_parallel == parallel
        # sample containment of the boundary (plus one interior witness)
        contained = all(c.dot(x).sign() <= 0 for x in boundary_samples(a))
        contained = contained and c.dot(-a).sign() <= 0
        assert contained == parallel

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Everything here is exact: zero-tolerance comparisons throughout,
with runtime ceilings asserted where the criterion states one.
"""

import time
from fractions import Fraction as F
from math import isqrt
from random import Random

import pytest

from ratsep import (
    NotPointedError,
    Surd,
    Vector,
    VPolyhedron,
    brute_force_separator,
    excess_measure,
    membership,
    outer_approximate,
    rational_parallel_direction,
    render_svg,
    separate,
    support_value,
    verify_certificate,
)
from ratsep import serialization as ser
from ratsep.approximation import GridSpec, OuterApprox
from ratsep.scalars import point_in_ball
from ratsep.separation import (
    find_barrier_direction,
    norm_upper,
    wedge_interior_ball,
)
from helpers import (
    exterior_point,
    point_in_apex_hull,
    rand_rational_vector,
    random_nonpointed_rays,
    random_pointed_polyhedron,
    random_pointed_rays,
    random_point_inside,
    rational_points_in_ball,
    unit_directions,
)

SQ2 = Surd.root(2)


def _report(criterion: int, detail: str):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def make_instances(count: int) -> list[tuple[VPolyhedron, Vector]]:
    """Deterministic batch: dims 2-4, rational and sqrt(2) data, 0-4 rays
    forming pointed cones, exterior points at varied distances."""
    rng = Random(20240817)
    scales = (F(1, 4), F(1), F(5))
    out = []
    for i in range(count):
        dim = (2, 3, 4)[i % 3]
        k = (1, 2)[i % 2]
        n_rays = i % 5
        n_vertices = 1 + (i // 2) % 5
        P = random_pointed_polyhedron(rng, dim, k, n_vertices, n_rays)
        y = exterior_point(rng, P, scales[(i // 3) % 3], irrational=(i % 7 == 3))
        out.append((P, y))
    return out


@pytest.fixture(scope="module")
def batch():
    instances = make_instances(200)
    start = time.monotonic()
    results = [separate(P, y) for P, y in instances]
    elapsed = time.monotonic() - start
    return instances, results, elapsed


def test_criterion_1_end_to_end_soundness(batch):
    instances, results, elapsed = batch
    verified = 0
    for (P, y), (cert, _) in zip(instances, results):
        assert verify_certificate(P, y, cert)
        verified += 1
    assert verified == 200
    assert elapsed < 60, f"200 separations took {elapsed:.1f}s (limit 60s)"
    _report(1, f"200/200 certificates verified in {elapsed:.1f}s")


def test_criterion_2_residual_support_is_zero(batch):
    instances, results, _ = batch
    rng = Random(101)
    checked = 0
    for (P, _), (_, trace) in zip(instances, results):
        C = P.translated(-trace.z_tilde)
        assert support_value(C, trace.y_bar).value.sign() == 0
        for _ in range(50):
            a = rand_rational_vector(rng, P.dim)
            sv = support_value(C, a)
            if sv.is_finite:
                assert sv.value.sign() >= 0
        checked += 1
    _report(2, f"sigma_C(y_bar) = 0 exactly in all {checked} traces, "
               "50 random directions each nonnegative")


def test_criterion_3_strict_inequality_on_ball_samples(batch):
    instances, results, _ = batch
    rng = Random(103)
    samples = 0
    for (P, _), (_, trace) in zip(instances, results):
        C = P.translated(-trace.z_tilde)
        pts = rational_points_in_ball(rng, trace.ball_center, trace.ball_radius, 50)
        for a in pts:
            sv = support_value(C, a)
            assert sv.is_finite
            assert (a.dot(trace.y_bar) - sv.value).sign() > 0
            samples += 1
    _report(3, f"{samples} in-ball rational samples all strictly separated")


def test_criterion_4_barrier_direction():
    rng = Random(107)
    for i in range(100):
        dim = (2, 3, 4)[i % 3]
        rays = random_pointed_rays(rng, dim, 1 + i % 4, k=(1, 2)[i % 2])
        P = VPolyhedron((Vector.zero(dim),), rays)
        d, eps = find_barrier_direction(P)
        assert d.is_rational and eps > 0
        for r in rays:
            assert (d.dot(r) + Surd(eps * norm_upper(r))).sign() <= 0
    rejected = 0
    for i in range(20):
        dim = (2, 3, 4)[i % 3]
        rays = random_nonpointed_rays(rng, dim, extra=i % 3)
        P = VPolyhedron((Vector.zero(dim),), rays)
        with pytest.raises(NotPointedError):
            find_barrier_direction(P)
        rejected += 1
    _report(4, f"100 pointed cones certified, {rejected} non-pointed rejected")


def test_criterion_5_wedge_ball_containment():
    rng = Random(109)
    checks = 0
    for i in range(100):
        dim = (2, 3)[i % 2]
        x0 = rand_rational_vector(rng, dim)
        if i % 4 == 1:
            x0 = x0 + Surd(0, F(1, 2), 2) * Vector([1] * dim)
        d_bar = rand_rational_vector(rng, dim)
        eps_bar = F(rng.randint(1, 9), rng.randint(1, 9))
        delta_hat = F(rng.randint(1, 9), rng.randint(1, 9))
        center, radius = wedge_interior_ball(x0, d_bar, eps_bar, delta_hat)
        for u in unit_directions(dim):
            p = center + (2 * radius) * u
            assert point_in_ball(p, x0, delta_hat)
            assert point_in_apex_hull(p, x0, d_bar, eps_bar)
            checks += 1
    _report(5, f"{checks} boundary samples inside both wedge sets")


def test_criterion_6_projection_oracle(batch):
    instances, results, _ = batch
    rng = Random(113)
    compared = 0
    for (P, y), (_, trace) in zip(instances[:100], results[:100]):
        z = trace.z_tilde
        g = y - z
        for v in P.vertices:
            assert g.dot(v - z).sign() <= 0
        for r in P.rays:
            assert g.dot(r).sign() <= 0
        base = g.norm_sq()
        for _ in range(100):
            x = random_point_inside(rng, P)
            assert ((y - x).norm_sq() - base).sign() >= 0
            compared += 1
    _report(6, f"variational inequality exact on 100 instances, "
               f"{compared} interior points no closer")


def test_criterion_7_counterexample_direction():
    assert rational_parallel_direction(Vector([1, SQ2])) is None
    # cross-check: c = mu*(1, sqrt2), mu > 0 forces c2/c1 = sqrt2, and for
    # fractions with numerators/denominators <= 50 that ratio is a quotient
    # of integers m/n with m, n <= 2500 -- never sqrt2 since m^2 != 2 n^2.
    for n in range(1, 2501):
        m_sq = 2 * n * n
        r = isqrt(m_sq)
        assert r * r != m_sq
    assert rational_parallel_direction(Vector([SQ2, SQ2])) == Vector([1, 1])
    _report(7, "(1, sqrt2) has no rational parallel (exhaustive check to "
               "denominator 50); (sqrt2, sqrt2) -> (1, 1)")


def test_criterion_8_brute_force_agreement():
    rng = Random(127)
    found = 0
    for i in range(50):
        P = random_pointed_polyhedron(rng, 2, (1, 2)[i % 2], 1 + i % 4, i % 3)
        y = exterior_point(rng, P, (F(1, 2), F(1), F(3))[i % 3])
        oracle_cert = brute_force_separator(P, y, 32)
        cert, _ = separate(P, y)
        assert verify_certificate(P, y, cert)
        if oracle_cert is not None:
            assert verify_certificate(P, y, oracle_cert)
            found += 1
    _report(8, f"{found}/50 oracle certificates, zero validity disagreements")


SQ2_TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))
FINE_GRID = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 20))


def outer_probes() -> list[Vector]:
    coarse = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 5))
    outside = [p for p in coarse.points() if not membership(SQ2_TRIANGLE, p)]
    assert len(outside) >= 200
    return outside[:200]


@pytest.fixture(scope="module")
def outer_run():
    probes = outer_probes()
    start = time.monotonic()
    approx = outer_approximate(SQ2_TRIANGLE, probes, budget=200)
    build_elapsed = time.monotonic() - start
    return probes, approx, build_elapsed


def test_criterion_9_outer_approximation(outer_run):
    probes, approx, build_elapsed = outer_run
    start = time.monotonic()
    for p in probes:
        assert approx.excludes(p)
    zero_cut = excess_measure(SQ2_TRIANGLE, OuterApprox(SQ2_TRIANGLE, ()), FINE_GRID)
    previous = zero_cut
    for j in range(1, len(approx.cuts) + 1):
        current = excess_measure(
            SQ2_TRIANGLE, OuterApprox(SQ2_TRIANGLE, approx.cuts[:j]), FINE_GRID
        )
        assert current <= previous
        previous = current
    final = previous
    assert final <= zero_cut * F(1, 5)
    elapsed = build_elapsed + (time.monotonic() - start)
    assert elapsed < 120, f"outer approximation took {elapsed:.1f}s (limit 120s)"
    _report(9, f"{len(approx.cuts)} cuts exclude all 200 probes; excess "
               f"{zero_cut} -> {final} (<= 20%), nonincreasing, {elapsed:.1f}s")


def test_criterion_10_determinism(batch, outer_run):
    instances, results, _ = batch
    probes, approx, _ = outer_run
    # rerun a full separation pass and compare serialized traces bytewise
    first_pass = [ser.dumps(ser.trace_to_json(t)) for _, t in results]
    second_pass = []
    for P, y in instances:
        _, trace = separate(P, y)
        second_pass.append(ser.dumps(ser.trace_to_json(trace)))
    assert first_pass == second_pass
    # rerun the outer approximation and compare its JSON and SVG output
    approx2 = outer_approximate(SQ2_TRIANGLE, probes, budget=200)
    js1 = ser.dumps(ser.approx_to_json(approx))
    js2 = ser.dumps(ser.approx_to_json(approx2))
    assert js1 == js2
    svg1 = render_svg(SQ2_TRIANGLE, approx.cuts, probes[0])
    svg2 = render_svg(SQ2_TRIANGLE, approx2.cuts, probes[0])
    assert svg1.encode() == svg2.encode()
    _report(10, "200 traces, outer-approximation JSON and SVG byte-identical "
                "across reruns")

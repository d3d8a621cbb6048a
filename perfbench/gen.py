"""Seeded input generation for the benchmark workloads.

Every instance is built from an explicit ``random.Random`` and written as
ratsep instance JSON, so the measuring process only parses it.  No
generator here calls ``ratsep.membership``: exterior points are certified
by their support values alone, so building inputs neither depends on nor
warms the membership cache.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from ratsep import Surd, Vector, VPolyhedron, support_value
from ratsep import serialization as ser
from ratsep.approximation import GridSpec

BIG_K = 1000003
SCALES = (Fraction(1, 4), Fraction(1), Fraction(5))

# conv{(0,0), (sqrt2,0), (0,1)} with the probe grid of the
# outer-approximation acceptance run; its 1/20 sweep grid is coarsened to
# 1/10 so that one sweep fits in a pass.
TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([Surd.root(2), 0]), Vector([0, 1])))
# Facet normals with their support values: <u, p> > sigma(u) for some
# facet decides p outside the triangle exactly.
TRIANGLE_FACETS = tuple(
    (u, support_value(TRIANGLE, u).value)
    for u in (Vector([0, -1]), Vector([-1, 0]), Vector([1, Surd.root(2)]))
)
PROBE_STEP = Fraction(1, 5)
SWEEP_STEP = Fraction(1, 10)
GRID_MIN = Fraction(-1)
GRID_MAX = Fraction(2)
PROBE_COUNT = 200
BUDGET = 200


def rand_fraction(rng: Random, span: int = 3, dens=(1, 2, 3, 4)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_coord(rng: Random, k: int) -> Surd:
    if k == 1 or rng.random() < 0.5:
        return Surd(rand_fraction(rng))
    return Surd(rand_fraction(rng), Fraction(rng.choice([-1, 1]), rng.choice([1, 2])), k)


def rand_vector(rng: Random, dim: int, k: int) -> Vector:
    return Vector([rand_coord(rng, k) for _ in range(dim)])


def rand_rational_vector(rng: Random, dim: int) -> Vector:
    while True:
        v = Vector([rand_fraction(rng) for _ in range(dim)])
        if not v.is_zero():
            return v


def pointed_rays(rng: Random, dim: int, count: int, k: int) -> tuple[Vector, ...]:
    """Rays strictly inside the open halfspace <g, x> < 0: a pointed cone."""
    g = rand_rational_vector(rng, dim)
    rays: list[Vector] = []
    while len(rays) < count:
        r = rand_vector(rng, dim, k)
        if g.dot(r).sign() < 0:
            rays.append(r)
    return tuple(rays)


def exterior_point(rng: Random, P: VPolyhedron, scale: Fraction, irrational: bool) -> Vector:
    """A point certified outside P by its support value alone.

    For a rational u with finite support value, y = v* + t*u with v* a
    support-maximizing vertex and t > 0 gives
    <u, y> = sigma_P(u) + t*||u||^2 > sigma_P(u).  The irrational push
    factor lives in P's own field (sqrt(2) for rational sets).
    """
    while True:
        u = rand_rational_vector(rng, P.dim)
        if any(u.dot(r).sign() > 0 for r in P.rays):
            continue
        sigma = support_value(P, u).value
        best = next(v for v in P.vertices if (u.dot(v) - sigma).sign() == 0)
        k = P.field_k if P.field_k != 1 else 2
        factor = Surd(scale, scale / 2, k) if irrational else Surd(scale)
        y = best + factor * u
        if (u.dot(y) - sigma).sign() <= 0:
            raise AssertionError("support-value push failed to leave the set")
        return y


def _instance(P: VPolyhedron, y: Vector) -> dict:
    return ser.instance_to_json(ser.Instance(polyhedron=P, point=y))


def _blocks(rng: Random, shapes: list[tuple], count: int, make) -> list[dict]:
    """Instances in blocks that each hold every shape once, in seeded
    order, so every whole number of blocks has the same shape mix; the
    point at position pos % 7 == 3 of each block is irrational."""
    out = []
    while len(out) < count:
        rng.shuffle(shapes)
        for pos, shape in enumerate(shapes):
            out.append(make(rng, pos, *shape))
    return out[:count]


def separate_rays(seed: int, count: int) -> list[dict]:
    """Pointed polyhedra with 1-4 rays, dims 2-4, k in {1, 2}, 1-5 vertices,
    exterior points at scales 1/4, 1 and 5; blocks of 60 shapes, half of
    each block over Q and half over Q(sqrt(2))."""

    def make(rng, pos, dim, n_rays, n_vertices):
        k = 1 + pos % 2
        vertices = tuple(rand_vector(rng, dim, k) for _ in range(n_vertices))
        P = VPolyhedron(vertices, pointed_rays(rng, dim, n_rays, k))
        return _instance(P, exterior_point(rng, P, SCALES[pos % 3], pos % 7 == 3))

    shapes = [(d, r, v) for d in (2, 3, 4) for r in (1, 2, 3, 4) for v in (1, 2, 3, 4, 5)]
    return _blocks(Random(seed), shapes, count, make)


def separate_bigk(seed: int, count: int) -> list[dict]:
    """Polytopes (no rays) over Q(sqrt(1000003)), dims 2-4, 1-5 vertices,
    exterior points at scales 1/4, 1 and 5; blocks of 45 shapes."""

    def make(rng, pos, dim, n_vertices, scale):
        vertices = tuple(rand_vector(rng, dim, BIG_K) for _ in range(n_vertices))
        P = VPolyhedron(vertices)
        return _instance(P, exterior_point(rng, P, scale, pos % 7 == 3))

    shapes = [(d, v, s) for d in (2, 3, 4) for v in (1, 2, 3, 4, 5) for s in SCALES]
    return _blocks(Random(seed), shapes, count, make)


def _outside_triangle(p: Vector) -> bool:
    return any((u.dot(p) - sigma).sign() > 0 for u, sigma in TRIANGLE_FACETS)


def sweep_instance(offset: tuple[Fraction, Fraction]) -> dict:
    """The triangle, its first 200 exterior coarse-grid probes and the fine
    sweep grid, all translated by offset.

    Exterior probes are picked with the triangle's three facet normals and
    support values, which decides membership exactly for this set.
    """
    ox, oy = offset
    coarse = GridSpec((GRID_MIN + ox, GRID_MIN + oy), (GRID_MAX + ox, GRID_MAX + oy), PROBE_STEP)
    probes = [p for p in coarse.points() if _outside_triangle(p)][:PROBE_COUNT]
    if len(probes) < PROBE_COUNT:
        raise AssertionError("coarse grid has too few exterior probes")
    fine = GridSpec((GRID_MIN + ox, GRID_MIN + oy), (GRID_MAX + ox, GRID_MAX + oy), SWEEP_STEP)
    inst = ser.Instance(
        polyhedron=TRIANGLE,
        probes=tuple(probes),
        options=ser.InstanceOptions(budget=BUDGET, grid=fine),
    )
    return ser.instance_to_json(inst)


def approx_sweep(seed: int, count: int) -> list[dict]:
    """Sweep 0 is the unshifted reference; each later sweep shifts every
    grid by its own seeded offset (u/110, v/110), 0 < u, v < 11, so no two
    sweeps of a run share a query point."""
    offsets = [(Fraction(u, 110), Fraction(v, 110)) for u in range(1, 11) for v in range(1, 11)]
    Random(seed).shuffle(offsets)
    if count > len(offsets) + 1:
        raise ValueError(f"at most {len(offsets) + 1} distinct sweeps")
    origin = (Fraction(0), Fraction(0))
    return [sweep_instance(o) for o in [origin, *offsets[: count - 1]]]


GENERATORS = {
    "separate_rays": separate_rays,
    "separate_bigk": separate_bigk,
    "approx_sweep": approx_sweep,
}
# A timed run stops only at a block boundary, so its shape mix is fixed.
BLOCK = {"separate_rays": 60, "separate_bigk": 45, "approx_sweep": 1}

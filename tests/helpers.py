"""Seeded random generators for sets, rays and provably exterior points.

Everything draws from an explicit ``random.Random`` so callers control
determinism; exactness of the constructions is asserted on the spot.
"""

from contextlib import ExitStack, contextmanager
from fractions import Fraction
from itertools import combinations
from math import isqrt
from random import Random
from unittest.mock import patch

from ratsep import GridSpec, Surd, Vector, VPolyhedron, membership, support_value
from ratsep.approximation import OuterApprox
from ratsep.linalg import _eliminate, solve_linear_system
from ratsep.scalars import QInterval, point_in_ball, rational_in_ball
from ratsep.separation import norm_upper


def rank(rows) -> int:
    """The exact rank of a matrix given as a list of rows (0 for no rows)."""
    return len(_eliminate([list(map(Surd._of, row)) for row in rows], len(rows[0]) if rows else 0))


def _in_cone(columns, target) -> bool:
    """Whether target is a nonnegative combination of columns, by
    Caratheodory: if it is, some linearly independent set of columns
    witnesses it, and so does any basis of their span that contains
    that set, with the same unique solution.  Solving every subset of
    rank(columns) columns exactly therefore decides it."""
    for subset in combinations(columns, rank(columns)):
        rows = [[col[i] for col in subset] for i in range(len(target))]
        try:
            coeffs = solve_linear_system(rows, target)
        except ValueError:
            continue
        if all(c.sign() >= 0 for c in coeffs):
            return True
    return False


def lp_membership(P: VPolyhedron, x: Vector) -> bool:
    """Reference membership: is (x, 1) in cone{(v_i, 1), (r_j, 0)}, that is,
    x = sum lam_i v_i + sum mu_j r_j with sum lam_i = 1 and lam, mu >= 0."""
    columns = [[*v, 1] for v in P.vertices] + [[*r, 0] for r in P.rays]
    return _in_cone(columns, [*x, 1])


def point_in_apex_hull(p: Vector, apex: Vector, center: Vector, radius: Fraction) -> bool:
    """Exact membership of p in conv({apex} u ball(center, radius)).

    p belongs iff some lam in [0, 1] has
    ||p - (1-lam) apex - lam center||^2 <= lam^2 radius^2, a quadratic
    q(lam) = A lam^2 + B lam + C decided by endpoint signs and, when
    q is strictly convex, by the discriminant and vertex location.
    """
    radius = Fraction(radius)
    w = p - apex
    g = center - apex
    A = g.norm_sq() - radius * radius
    B = -2 * w.dot(g)
    C = w.norm_sq()
    if C.sign() <= 0:
        return True  # p == apex
    if (A + B + C).sign() <= 0:
        return True  # lam = 1: inside the ball itself
    if A.sign() > 0:
        # vertex of the parabola at lam* = -B / (2A)
        if (-B).sign() < 0 or (-B - 2 * A).sign() > 0:
            return False  # lam* outside [0, 1]; endpoints already failed
        return (B * B - 4 * A * C).sign() >= 0
    # A <= 0: q is concave or affine, minimized at an endpoint
    return False


def pointwise_excess(X: VPolyhedron, approx: OuterApprox, grid: GridSpec) -> Fraction:
    """Reference excess measure: each grid point is tested against every
    cut and, when no cut excludes it, against X by exact membership."""
    total = 0
    excess = 0
    for p in grid.points():
        total += 1
        if approx.excludes(p):
            continue
        if not membership(X, p):
            excess += 1
    return Fraction(excess, total)


@contextmanager
def forbid_floats():
    """Make converting a Surd or a Fraction to float raise AssertionError."""
    no_float = AssertionError("float conversion")
    with ExitStack() as stack:
        for cls in (Surd, Fraction):
            stack.enter_context(patch.object(cls, "__float__", side_effect=no_float))
        yield


def lp_is_pointed(P: VPolyhedron) -> bool:
    """Reference pointedness by Gordan's alternative: cone(rays) contains a
    line iff sum eta_j r_j = 0 with sum eta_j = 1 and eta >= 0, that is,
    iff (0, ..., 0, 1) is in cone{(r_j, 1)}."""
    return not _in_cone([[*r, 1] for r in P.rays], [0] * P.dim + [1])


def bisection_enclosure(x, tol: Fraction) -> QInterval:
    """Reference ``sqrt_enclosure``: perfect squares exactly, otherwise a
    doubling search and an integer bisection for floor(sqrt(x)), then
    rational bisection of [floor, floor + 1] down to width <= tol."""
    x = Surd._of(x)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    sgn = x.sign()
    if sgn < 0:
        raise ValueError(f"cannot enclose the square root of the negative {x}")
    if sgn == 0:
        return QInterval(Fraction(0), Fraction(0))
    if x.is_rational:
        f = x.as_fraction()
        rn, rd = isqrt(f.numerator), isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            root = Fraction(rn, rd)
            return QInterval(root, root)
    top = 1
    while (x - top * top).sign() > 0:
        top *= 2
    lo_i, hi_i = 0, top
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if (x - mid * mid).sign() >= 0:
            lo_i = mid
        else:
            hi_i = mid
    lo, hi = Fraction(lo_i), Fraction(lo_i + 1)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        d = (x - mid * mid).sign()
        if d == 0:
            return QInterval(mid, mid)
        if d > 0:
            lo = mid
        else:
            hi = mid
    return QInterval(lo, hi)


def rand_fraction(rng: Random, span: int = 3, dens=(1, 2, 3, 4)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_coord(rng: Random, k: int) -> Surd:
    if k == 1 or rng.random() < 0.5:
        return Surd(rand_fraction(rng))
    return Surd(rand_fraction(rng), Fraction(rng.choice([-1, 1]), rng.choice([1, 2])), k)


def rand_vector(rng: Random, dim: int, k: int = 1) -> Vector:
    return Vector([rand_coord(rng, k) for _ in range(dim)])


def rand_rational_vector(rng: Random, dim: int, span: int = 3) -> Vector:
    return Vector([rand_fraction(rng, span) for _ in range(dim)])


def random_pointed_rays(rng: Random, dim: int, count: int, k: int = 1) -> tuple[Vector, ...]:
    """Rays drawn strictly inside one open halfspace: a pointed cone."""
    while True:
        g = rand_rational_vector(rng, dim)
        if not g.is_zero():
            break
    rays: list[Vector] = []
    while len(rays) < count:
        r = rand_vector(rng, dim, k)
        if not r.is_zero() and g.dot(r).sign() < 0:
            rays.append(r)
    return tuple(rays)


def random_nonpointed_rays(rng: Random, dim: int, extra: int = 1) -> tuple[Vector, ...]:
    """A ray set containing r and -r, hence a line."""
    while True:
        r = rand_rational_vector(rng, dim)
        if not r.is_zero():
            break
    rays = [r, -r]
    while len(rays) < 2 + extra:
        w = rand_rational_vector(rng, dim)
        if not w.is_zero():
            rays.append(w)
    return tuple(rays)


def random_pointed_polyhedron(
    rng: Random, dim: int, k: int, n_vertices: int, n_rays: int
) -> VPolyhedron:
    vertices = tuple(rand_vector(rng, dim, k) for _ in range(n_vertices))
    rays = random_pointed_rays(rng, dim, n_rays, k) if n_rays else ()
    return VPolyhedron(vertices, rays)


def exterior_point(
    rng: Random, P: VPolyhedron, scale: Fraction = Fraction(1), irrational: bool = False
) -> Vector:
    """A point provably outside P.

    Push past the support-maximizing vertex along a direction u with
    finite support value: <u, y> = sigma_P(u) + t * ||u||^2 > sigma_P(u)
    for any t > 0, so y cannot belong to P.  The exact membership test
    double-checks.
    """
    while True:
        u = rand_rational_vector(rng, P.dim)
        if u.is_zero():
            continue
        if any(u.dot(r).sign() > 0 for r in P.rays):
            continue
        sv = support_value(P, u)
        assert sv.is_finite
        best = P.vertices[0]
        for v in P.vertices[1:]:
            if (u.dot(v) - u.dot(best)).sign() > 0:
                best = v
        factor = Surd(scale, scale / 2, 2) if irrational else Surd(scale)
        y = best + factor * u
        assert not membership(P, y)
        return y


def random_point_inside(rng: Random, P: VPolyhedron, ray_span: int = 2) -> Vector:
    """A random convex combination of vertices plus a nonnegative ray mix."""
    weights = [Fraction(rng.randint(0, 4)) for _ in P.vertices]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = Fraction(1)
    total = sum(weights)
    x = Vector.zero(P.dim)
    for w, v in zip(weights, P.vertices):
        x = x + (w / total) * v
    for r in P.rays:
        t = Fraction(rng.randint(0, ray_span), rng.choice([1, 2]))
        if t:
            x = x + t * r
    return x


def unit_directions_2d() -> list[Vector]:
    """16 exactly-unit rational directions from the Pythagorean circle map."""
    ts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
          Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)]
    dirs: list[Vector] = []
    for t in ts:
        den = 1 + t * t
        u = Vector([(1 - t * t) / den, 2 * t / den])
        assert u.norm_sq() == 1
        dirs.append(u)
        dirs.append(-u)
    return dirs


def unit_directions(dim: int) -> list[Vector]:
    """16 exactly-unit rational directions spread over coordinate planes."""
    base = unit_directions_2d()
    if dim == 2:
        return base
    planes = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    dirs = []
    for idx, u in enumerate(base):
        i, j = planes[idx % len(planes)]
        coords = [Fraction(0)] * dim
        coords[i], coords[j] = u[0].as_fraction(), u[1].as_fraction()
        dirs.append(Vector(coords))
    return dirs


def rational_points_in_ball(
    rng: Random, center: Vector, radius: Fraction, count: int
) -> list[Vector]:
    """Random rational points, each verified exactly inside the closed ball."""
    out: list[Vector] = []
    while len(out) < count:
        w = rand_rational_vector(rng, center.dim, span=2)
        if w.is_zero():
            continue
        offset = (radius / 2 / norm_upper(w)) * w
        p = rational_in_ball(center + offset, radius / 4)
        assert point_in_ball(p, center, radius)
        out.append(p)
    return out

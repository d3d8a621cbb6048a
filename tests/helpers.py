"""Seeded random generators for sets, rays and provably exterior points.

Everything draws from an explicit ``random.Random`` so callers control
determinism; exactness of the constructions is asserted on the spot.
"""

from contextlib import ExitStack, contextmanager
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, isqrt, lcm
from random import Random
from typing import Iterator, NamedTuple
from unittest.mock import patch

from ratsep import (
    DimensionMismatchError,
    GridSpec,
    Surd,
    Vector,
    VPolyhedron,
    membership,
    support_value,
)
from ratsep.approximation import OuterApprox
from ratsep.linalg import _pivot
from ratsep.sets import FacetDescription
from ratsep.scalars import rational_in_ball
from ratsep.separation import _UPPER_SLACK, NORM_ENCLOSURE_TOL


def fraction_sign(r: Fraction, s: Fraction, k: int) -> int:
    """Reference sign of r + s*sqrt(k) for rationals r and s: the signs of
    the two parts, and r**2 against s**2 * k when they differ."""
    rs = (r > 0) - (r < 0)
    ss = (s > 0) - (s < 0)
    if ss == 0:
        return rs
    if rs == 0 or rs == ss:
        return ss
    d = r * r - s * s * k
    cmp = (d > 0) - (d < 0)
    if cmp == 0:
        return 0
    return rs if cmp > 0 else ss


def _surd_pivot(rows, r, c) -> None:
    """Gauss-Jordan pivot over the field: scale row r so its entry in
    column c is 1, then clear column c from every other row, in place."""
    piv = rows[r][c]
    prow = rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f.sign() != 0:
                rows[i] = [a - f * b for a, b in zip(row, prow)]


def _surd_eliminate(rows, ncols) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of Surd rows over the field, in place,
    over their first ncols columns: each column's pivot is the first
    nonzero entry below the pivots found so far, swapped up and cleared
    by ``_surd_pivot``.  Returns the (row, column) of each pivot."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c].sign() != 0), None)
        if p is not None:
            rows[r], rows[p] = rows[p], rows[r]
            _surd_pivot(rows, r, c)
            pivots.append((r, c))
    return pivots


def rank(rows) -> int:
    """The exact rank of a matrix given as a list of rows (0 for no rows)."""
    n = len(rows[0]) if rows else 0
    return len(_surd_eliminate([list(map(Surd._coerce, row)) for row in rows], n))


def surd_solve(rows, rhs) -> list[Surd]:
    """One exact solution of rows * x = rhs over the field, any shape and
    rank, with every free variable 0; ``ValueError`` when the system is
    inconsistent."""
    n = len(rows[0]) if rows else 0
    T = [list(map(Surd._coerce, [*row, b])) for row, b in zip(rows, rhs, strict=True)]
    pivots = _surd_eliminate(T, n)
    if any(row[n].sign() != 0 for row in T[len(pivots):]):
        raise ValueError("inconsistent linear system")
    x = [Surd(0)] * n
    for r, c in pivots:
        x[c] = T[r][n]
    return x


class LPResult(NamedTuple):
    """The reference simplex's verdict, "optimal" or "unbounded", with an
    optimal point x for "optimal" and a certificate of the verdict, read
    off the final tableau: for "optimal" an optimal dual point y, for
    "unbounded" a ray d along which c.x grows (``lp_certificate_holds``)."""

    status: str
    x: tuple[Surd, ...] = ()
    certificate: tuple[Surd, ...] = ()


def surd_simplex_max(c, A_ub=(), b_ub=()) -> LPResult:
    """Reference simplex for max c.x subject to A_ub x <= b_ub and x >= 0,
    where b_ub >= 0: the textbook one-phase tableau simplex with Bland's
    rule, every entry a Surd and every pivot a field division.  A negative
    b_ub entry raises ValueError.  The objective row is [c, 0, 0] - y^T [A,
    I, b] throughout, so its slack columns hold -y."""
    A_ub, b_ub = list(A_ub), list(b_ub)
    n = len(c)
    m = len(A_ub)
    zero, one = Surd(0), Surd(1)
    T = []
    for i, (arow, b) in enumerate(zip(A_ub, b_ub, strict=True)):
        b = Surd._coerce(b)
        if b.sign() < 0:
            raise ValueError(f"simplex_max needs b_ub >= 0, got {b}")
        slacks = [one if j == i else zero for j in range(m)]
        T.append([Surd._coerce(v) for v in arow] + slacks + [b])
    T.append([Surd._coerce(v) for v in c] + [zero] * (m + 1))
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if T[-1][j].sign() > 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            tie = T[i][enter]
            if tie.sign() > 0:
                ratio = T[i][-1] / tie
                if leave is None:
                    leave, best = i, ratio
                else:
                    cmp = (ratio - best).sign()
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                        leave, best = i, ratio
        if leave is None:
            # raise the entering variable by 1; basic variable i moves by -T[i][enter]
            ray = [one if j == enter else zero for j in range(n)]
            for i, b in enumerate(basis):
                if b < n:
                    ray[b] = -T[i][enter]
            return LPResult("unbounded", (), tuple(ray))
        _surd_pivot(T, leave, enter)
        basis[leave] = enter
    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i][-1]
    return LPResult("optimal", tuple(x), tuple(-v for v in T[-1][n:n + m]))


def lp_certificate_holds(c, A_ub, b_ub, res: LPResult) -> bool:
    """Whether ``res`` proves its verdict on max c.x, A_ub x <= b_ub, x >= 0
    with b_ub >= 0, in exact arithmetic.  "optimal": x is feasible, the
    dual point y has y >= 0 and A^T y >= c, and c.x = b.y, so by weak
    duality no feasible point does better.  "unbounded": x = 0 is
    feasible, and the ray d has d >= 0, A d <= 0 and c.d > 0."""
    def dot(u, v):
        return sum((Surd._coerce(a) * b for a, b in zip(u, v)), Surd(0))

    columns = list(zip(*A_ub)) or [()] * len(c)
    if res.status == "unbounded":
        d = res.certificate
        return (
            len(d) == len(c)
            and all(v.sign() >= 0 for v in d)
            and all(dot(row, d).sign() <= 0 for row in A_ub)
            and dot(c, d).sign() > 0
        )
    x, y = res.x, res.certificate
    return (
        res.status == "optimal"
        and (len(x), len(y)) == (len(c), len(A_ub))
        and all(v.sign() >= 0 for v in (*x, *y))
        and all((dot(row, x) - b).sign() <= 0 for row, b in zip(A_ub, b_ub))
        and all((dot(col, y) - cj).sign() >= 0 for col, cj in zip(columns, c))
        and dot(c, x) == dot(b_ub, y)
    )


def certified_simplex_max(c, A_ub=(), b_ub=()) -> LPResult:
    """``surd_simplex_max`` with no float conversion, its verdict checked
    by ``lp_certificate_holds``."""
    A_ub, b_ub = list(A_ub), list(b_ub)
    with forbid_floats():
        res = surd_simplex_max(c, A_ub, b_ub)
        assert lp_certificate_holds(c, A_ub, b_ub, res)
    return res


def margin_lp(rays, n):
    """The margin LP of ``linalg.simplex_max`` in the general form: maximize
    t subject to <p - q, r> + t <= 0 per ray and 0 <= p, q <= 1."""
    nvars = 2 * n + 1
    c = [0] * (2 * n) + [1]
    A = [[*r, *(-x for x in r), 1] for r in rays]
    A += [[int(i == j) for i in range(nvars)] for j in range(2 * n)]
    return c, A, [0] * len(rays) + [1] * (2 * n)


def surd_margin_lp(rays) -> tuple[Vector, Surd]:
    """Reference ``linalg.simplex_max``: (d*, t*) of the reference simplex
    on ``margin_lp``, with d* = p* - q*."""
    n = len(rays[0])
    res = surd_simplex_max(*margin_lp(rays, n))
    assert res.status == "optimal"
    return Vector([res.x[j] - res.x[n + j] for j in range(n)]), res.x[2 * n]


def objective_negating_pivot(calls: list):
    """``linalg._pivot`` with a fault, recording each (row, column) in
    calls: after the pivot it negates the objective row, so variables
    that left the basis re-enter it and the margin LP's walk cycles."""

    def pivot(T, r, c, D, k):
        calls.append((r, c))
        p = _pivot(T, r, c, D, k)
        T[-1] = [-x if type(x) is int else (-x[0], -x[1]) for x in T[-1]]
        return p

    return pivot


def _surd_primitive(v: Vector) -> Vector:
    """The canonical vector of ``sets._polar_cone`` on v's ray, by field
    division: v over the absolute value of its first nonzero coordinate,
    which makes that coordinate +-1, then times the positive rational
    that makes the rational and sqrt(k) parts coprime integers."""
    v = v * abs(next(c for c in v if c.sign() != 0)).inverse()
    parts = [q for c in v for q in (c.r, c.s) if q]
    return Fraction(lcm(*(q.denominator for q in parts)), gcd(*(q.numerator for q in parts))) * v


def surd_double_description(P: VPolyhedron) -> tuple[FacetDescription, bool]:
    """Reference ``sets._double_description``: the same double-description
    method with Surd vectors, dividing by the pivot product where the
    kernel multiplies by its norm and conjugate.  Returns the description
    and whether P contains no line, read off the same run: the
    homogenized cone is pointed iff its polar is full-dimensional, which a
    generator orthogonal to the lineality space keeps iff some polar ray
    has a negative product with it."""
    n = P.dim
    gens = [Vector([*v, 1]) for v in P.vertices] + [Vector([*r, 0]) for r in P.rays]
    basis = [Vector([int(i == j) for j in range(n + 1)]) for i in range(n + 1)]
    rays: list[Vector] = []
    pointed = True
    zeros: list[int] = []
    for i, g in enumerate(gens):
        bit = 1 << i
        products = [l.dot(g) for l in basis]
        p = next((j for j, s in enumerate(products) if s.sign() != 0), None)
        if p is not None:
            lp, cp = basis[p], products[p]

            def onto_hyperplane(u: Vector, s: Surd) -> Vector:
                return _surd_primitive(u - (s / cp) * lp) if s.sign() != 0 else u

            basis = [
                onto_hyperplane(l, s) for j, (l, s) in enumerate(zip(basis, products)) if j != p
            ]
            rays = [onto_hyperplane(r, r.dot(g)) for r in rays]
            zeros = [z | bit for z in zeros]
            rays.append(-lp if cp.sign() > 0 else lp)
            zeros.append(bit - 1)
            continue
        products = [r.dot(g) for r in rays]
        signs = [s.sign() for s in products]
        pointed = pointed and -1 in signs
        new_rays = [r for r, s in zip(rays, signs) if s <= 0]
        new_zeros = [z | bit if s == 0 else z for z, s in zip(zeros, signs) if s <= 0]
        need = n - 1 - len(basis)
        for a in (j for j, s in enumerate(signs) if s > 0):
            for b in (j for j, s in enumerate(signs) if s < 0):
                common = zeros[a] & zeros[b]
                if common.bit_count() < need or any(
                    zeros[c] & common == common for c in range(len(rays)) if c != a and c != b
                ):
                    continue
                new_rays.append(_surd_primitive(products[a] * rays[b] - products[b] * rays[a]))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    on_vertices = (1 << len(P.vertices)) - 1

    def halfspace(f: Vector) -> tuple[Vector, Surd]:
        return Vector(f.coords[:-1]), -f.coords[-1]

    description = FacetDescription(
        tuple(halfspace(l) for l in basis),
        tuple(halfspace(f) for f, z in zip(rays, zeros) if z & on_vertices),
    )
    return description, pointed


def _in_cone(columns, target) -> bool:
    """Whether target is a nonnegative combination of columns, by one LP.
    With each row i of the system flipped so that its target entry t_i is
    nonnegative, max sum_i <A_i, x> subject to A x <= t and x >= 0 is at
    most sum_i t_i, with equality iff A x = t for some x >= 0.  The
    reference simplex solves it from the slack basis, and
    ``certified_simplex_max`` checks its optimality certificate."""
    A, t = [], []
    for i, b in enumerate(target):
        s = -1 if Surd._coerce(b).sign() < 0 else 1
        A.append([s * col[i] for col in columns])
        t.append(s * b)
    c = [sum(col, Surd(0)) for col in zip(*A)]
    res = certified_simplex_max(c, A, t)
    return (sum(t, Surd(0)) - sum((a * x for a, x in zip(c, res.x)), Surd(0))).sign() == 0


def lp_membership(P: VPolyhedron, x: Vector) -> bool:
    """Reference membership: is (x, 1) in cone{(v_i, 1), (r_j, 0)}, that is,
    x = sum lam_i v_i + sum mu_j r_j with sum lam_i = 1 and lam, mu >= 0."""
    columns = [[*v, 1] for v in P.vertices] + [[*r, 0] for r in P.rays]
    return _in_cone(columns, [*x, 1])


def _affine_projection(y: Vector, vs: list[Vector], rs: list[Vector]) -> Vector:
    """Project y onto the affine hull of conv(vs) + cone(rs), exactly."""
    v0 = vs[0]
    span = [v - v0 for v in vs[1:]] + list(rs)
    if not span:
        return v0
    gram = [[u.dot(w) for w in span] for u in span]
    rhs = [u.dot(y - v0) for u in span]
    z = v0
    for w, u in zip(surd_solve(gram, rhs), span):
        z = z + w * u
    return z


def facet_membership(P: VPolyhedron, x: Vector) -> bool:
    """Reference membership: <a, x> = b on every equation and <a, x> <= b
    on every facet (a, b) of P's facet description, each an exact sign."""
    equations, facets = P.facet_description
    return all((a.dot(x) - b).sign() == 0 for a, b in equations) and all(
        (a.dot(x) - b).sign() <= 0 for a, b in facets
    )


def face_walk_project(P: VPolyhedron, y: Vector) -> Vector:
    """Reference ``project``: a walk over generator subsets of at most
    dim(P) generators, at least one of them a vertex, accepting the first
    affine-hull projection z that lies in P by the facet test and
    satisfies <y - z, v - z> <= 0 at every vertex and <y - z, r> <= 0 at
    every ray.  Those two conditions certify z as the projection."""
    if facet_membership(P, y):
        return y
    nv = len(P.vertices)
    gens = [*P.vertices, *P.rays]
    for size in range(1, min(P.dim, len(gens)) + 1):
        for combo in combinations(range(len(gens)), size):
            if combo[0] >= nv:
                continue
            z = _affine_projection(
                y, [gens[i] for i in combo if i < nv], [gens[i] for i in combo if i >= nv]
            )
            g = y - z
            if not all(g.dot(v - z).sign() <= 0 for v in P.vertices):
                continue
            if not all(g.dot(r).sign() <= 0 for r in P.rays):
                continue
            if facet_membership(P, z):
                return z
    raise AssertionError("no face yielded the projection")


def pushed_off_faces(P: VPolyhedron, edges: bool) -> list[tuple[Vector, Vector]]:
    """(c, y) pairs, one per facet of P or, with ``edges``, one per edge.

    c is the centroid of the vertices on a facet, or the midpoint of an
    edge: two vertices whose common facets hold no ray and no vertex off
    the line through them.  y is c plus 1/1000 of the sum n of the normals
    of the facets through c.  Each of them lies in the normal cone of P at
    c, so c is the projection of y, and y lies outside P since n != 0.
    """
    facets = P.facet_description.facets

    def holds(x, a, b):
        return (a.dot(x) - b).sign() == 0

    faces = []
    if edges:
        for u, v in combinations(dict.fromkeys(P.vertices), 2):
            active = [(a, b) for a, b in facets if holds(u, a, b) and holds(v, a, b)]
            on = [w for w in P.vertices if all(holds(w, a, b) for a, b in active)]
            if active and rank([list(w - u) for w in on]) == 1 and not any(
                all(a.dot(r).sign() == 0 for a, _ in active) for r in P.rays
            ):
                faces.append((Fraction(1, 2) * (u + v), [a for a, _ in active]))
    else:
        for a, b in facets:
            on = [v for v in P.vertices if holds(v, a, b)]
            faces.append((Fraction(1, len(on)) * sum(on[1:], on[0]), [a]))
    out = []
    for c, normals in faces:
        n = sum(normals[1:], normals[0])
        if not n.is_zero():
            out.append((c, c + Fraction(1, 1000) * n))
    return out


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
    A = g.dot(g) - radius * radius
    B = -2 * w.dot(g)
    C = w.dot(w)
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


def grid_points(grid: GridSpec) -> Iterator[Vector]:
    """Reference grid points, x-major, by stepping Fractions from the min
    corner while they stay within the max corner: independent of the
    grid's integer form."""
    x = grid.mins[0]
    while x <= grid.maxs[0]:
        y = grid.mins[1]
        while y <= grid.maxs[1]:
            yield Vector([x, y])
            y += grid.step
        x += grid.step


def pointwise_excess(X: VPolyhedron, approx: OuterApprox, grid: GridSpec) -> Fraction:
    """Reference excess measure: each grid point (``grid_points``) is
    tested against every cut and, when no cut excludes it, against X by
    exact membership."""
    total = 0
    excess = 0
    for p in grid_points(grid):
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


def bisection_enclosure(x, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Reference ``sqrt_enclosure``: perfect squares exactly, otherwise a
    doubling search and an integer bisection for floor(sqrt(x)), then
    rational bisection of [floor, floor + 1] down to width <= tol."""
    x = Surd._coerce(x)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    sgn = x.sign()
    if sgn < 0:
        raise ValueError(f"cannot enclose the square root of the negative {x}")
    if sgn == 0:
        return Fraction(0), Fraction(0)
    if x.is_rational:
        f = x.as_fraction()
        rn, rd = isqrt(f.numerator), isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            root = Fraction(rn, rd)
            return root, root
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
            return mid, mid
        if d > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def surd_convergents(k: int) -> Iterator[tuple[int, int]]:
    """The continued-fraction convergents h/q of sqrt(k), for a
    square-free k > 1, from the Surd walk x <- 1/(x - floor(x)) started at
    sqrt(k): each partial quotient is floor(x), read exactly."""
    x = Surd.root(k)
    h_prev, h, q_prev, q = 0, 1, 1, 0
    while True:
        a = floor(x)
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
        yield h, q
        x = 1 / (x - a)


def surd_in_ball(p: Vector, center: Vector, radius) -> bool:
    """Closed-ball membership read off the sign of the Surd
    (p - c).(p - c) - radius**2, summed coordinate by coordinate."""
    gaps = [a - b for a, b in zip(p, center, strict=True)]
    return (sum((g * g for g in gaps), Surd(0)) - radius * radius).sign() <= 0


def surd_choose_rational_between(lo, hi) -> Fraction:
    """Reference ``choose_rational_between`` in Surd arithmetic: the
    midpoint when it is rational, else r + s*w for the first convergent w
    of sqrt(k), from ``surd_convergents``, that puts it strictly between
    lo and hi."""
    lo, hi = Surd._coerce(lo), Surd._coerce(hi)
    if (hi - lo).sign() <= 0:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    mid = (lo + hi) * Fraction(1, 2)
    if mid.is_rational:
        return mid.as_fraction()
    r, s = mid.r, mid.s
    for h, q in surd_convergents(mid.k):
        cand = r + s * Fraction(h, q)
        if (cand - lo).sign() > 0 and (hi - cand).sign() > 0:
            return cand
    raise AssertionError("unreachable: convergents converge to the midpoint")


def _surd_rational_in(x: Surd, lo, hi) -> Fraction:
    return x.as_fraction() if x.is_rational else surd_choose_rational_between(lo, hi)


def surd_norm_upper(v: Vector) -> Fraction:
    """Reference norm bound of ``separation._norm_bound``: the upper end
    of the bisection enclosure of the Surd ||v||**2."""
    return bisection_enclosure(v.dot(v), NORM_ENCLOSURE_TOL)[1]


def surd_rational_in_ball(center: Vector, radius: Fraction) -> Vector:
    """Reference ``rational_in_ball`` in Surd arithmetic: each coordinate
    rounded into (c - b, c + b) for b = min(radius/(2n), radius**2)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if center.is_rational:
        return center
    budget = min(radius / (2 * center.dim), radius * radius)
    q = Vector(surd_choose_rational_between(c - budget, c + budget) for c in center.coords)
    assert surd_in_ball(q, center, radius)
    return q


def moved_by_hand(P: VPolyhedron, offset: Vector) -> VPolyhedron:
    """P moved by offset, built through the checked constructor."""
    return VPolyhedron(tuple(v + offset for v in P.vertices), P.rays)


def surd_bound_support_on_ball(X: VPolyhedron, z: Vector, d: Vector, eps: Fraction) -> Fraction:
    """Reference ``bound_support_on_ball`` in Surd arithmetic on the moved
    set C = X - z, built by ``moved_by_hand``: the ray
    precondition as <d, r> <= 0 and eps**2 ||r||**2 <= <d, r>**2, then the
    largest rounded-up vertex term of C, at least 1."""
    if X.dim != d.dim or X.dim != z.dim:
        raise DimensionMismatchError("direction or offset dimension does not match the set")
    if eps <= 0:
        raise ValueError("eps must be positive")
    C = moved_by_hand(X, -z)
    for r in C.rays:
        t = d.dot(r)
        if t.sign() > 0 or (eps * eps * r.dot(r) - t * t).sign() > 0:
            raise ValueError("ball d + eps*B is not inside the barrier cone")
    best = Fraction(1)
    for v in C.vertices:
        x = d.dot(v)
        best = max(best, _surd_rational_in(x, x, x + _UPPER_SLACK) + eps * surd_norm_upper(v))
    return best


def surd_compute_wedge_parameters(y_bar: Vector, M: Fraction, d: Vector, eps: Fraction):
    """Reference ``compute_wedge_parameters`` in Surd arithmetic, with the
    bisection enclosure at tol = 1/4, 1/8, ... until its lower end is
    positive."""
    if y_bar.dim != d.dim:
        raise DimensionMismatchError("barrier direction dimension does not match the residual")
    if y_bar.is_zero() or M <= 0 or eps <= 0:
        raise ValueError("zero residual or nonpositive M or eps")
    nsq = y_bar.dot(y_bar)
    alpha = _surd_rational_in(nsq, nsq * Fraction(3, 4), nsq) / (3 * M)
    tol = Fraction(1, 4)
    while (lo := bisection_enclosure(nsq, tol)[0]) <= 0:
        tol /= 2
    return alpha, alpha * d, alpha * eps, lo / 3


def surd_wedge_interior_ball(x0: Vector, d_bar: Vector, eps_bar: Fraction, delta_hat: Fraction):
    """Reference ``wedge_interior_ball`` in Surd arithmetic: lam, the
    center (1 - lam) x0 + lam d_bar and the radius lam eps_bar / 2."""
    if x0.dim != d_bar.dim:
        raise DimensionMismatchError("wedge base dimension does not match the residual")
    if eps_bar <= 0 or delta_hat <= 0:
        raise ValueError("eps_bar and delta_hat must be positive")
    lam = min(delta_hat / (surd_norm_upper(d_bar - x0) + eps_bar), Fraction(1))
    return lam, (1 - lam) * x0 + lam * d_bar, lam * eps_bar / 2


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
        assert u.dot(u) == 1
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
        offset = (radius / 2 / surd_norm_upper(w)) * w
        p = rational_in_ball(center + offset, radius / 4)
        assert surd_in_ball(p, center, radius)
        out.append(p)
    return out

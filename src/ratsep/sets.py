"""Pointed closed convex sets described by generators.

A ``VPolyhedron`` is conv(vertices) + cone(rays) with coordinates in one
quadratic field.  No part of the program moves a set, so a moved set is
built through the constructor from its moved vertices.  The metric
projection is Wolfe's minimum-norm point algorithm, run exactly on the
generators with rays as generators whose weights have no upper bound
(``_nearest``), and membership reads it off: x lies in P iff x is its
own nearest point.  The set object keeps its last query and nearest
point, so ``membership`` then ``project`` on one point, as ``separate``
and ``outer_approximate`` make them, run the algorithm once.
Pointedness is decided by the barrier step's exact margin LP on the rays
alone, once per set.  A support value is +inf when a ray points uphill,
else a maximum over the vertices; both are read off integer pairs.  None
of these builds P's facet description.

That description, the equations of P's affine hull and one inequality
per facet (Minkowski-Weyl), is computed by the double-description
method on first use of ``facet_description``.  The method runs on
integer pairs of Z[sqrt(k)], read straight off the generators'
``Vector``s, and each resulting normal is a ``Vector`` of those pairs
again; only the right-hand sides become Surds.  Answers come
from sign determinations, never from tolerances.  That exactness is what
lets the separation pipeline assert strict inequalities instead of
hoping for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import comb, gcd
from typing import NamedTuple

from .errors import DimensionMismatchError, NotPointedError, SeparationBugError
from .linalg import simplex_max, solve_linear_system
from .scalars import (
    Surd,
    Vector,
    _pair_combination,
    _pair_dot,
    _pair_mul,
    _pair_primitive,
    _pair_reciprocal,
    _pair_sign,
)

__all__ = [
    "VPolyhedron",
    "FacetDescription",
    "SupportValue",
    "support_value",
    "is_pointed",
    "membership",
    "project",
]

@dataclass(frozen=True)
class SupportValue:
    """sup of a linear functional over a set: a Surd, or +infinity (None)."""

    value: Surd | None = None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __repr__(self):
        return "SupportValue(+inf)" if self.value is None else f"SupportValue({self.value})"


@dataclass(frozen=True)
class VPolyhedron:
    """conv(vertices) + cone(rays), at least one vertex, rays nonzero.

    ``dim``, the one dimension of all generators, and ``field_k``, the one
    field Q(sqrt(k)) of all of them (1 when they are rational), are worked
    out once at construction and stored as fields that are neither
    constructor arguments nor part of ``==``, ``hash`` or ``repr``, so
    every dimension check reads one attribute.
    """

    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...] = ()
    dim: int = field(init=False, repr=False, compare=False)
    field_k: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "rays", tuple(self.rays))
        if not self.vertices:
            raise ValueError("a V-polyhedron needs at least one vertex")
        dim = self.vertices[0].dim
        for g in (*self.vertices, *self.rays):
            if g.dim != dim:
                raise DimensionMismatchError("generators of mixed dimension")
        for r in self.rays:
            if r.is_zero():
                raise ValueError("rays must be nonzero")
        try:
            k = reduce(Surd._k_with, (g.field_k for g in (*self.vertices, *self.rays)), 1)
        except ValueError:
            raise ValueError("generators mix different quadratic fields") from None
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "field_k", k)

    @cached_property
    def facet_description(self) -> "FacetDescription":
        """The set's equations and facets, computed once per object by the
        double description alone."""
        return _double_description(self)

    @cached_property
    def _ray_margin(self) -> tuple[Vector, Surd]:
        """(d*, t*) maximizing t with <d, r> + t <= 0 per ray and
        ||d||_inf <= 1, once per object, from ``simplex_max``; the set
        must have rays.  The LP is feasible and bounded, so a
        ``ValueError`` or ``SeparationBugError`` from the simplex is a
        ``SeparationBugError`` of the margin LP."""
        try:
            return simplex_max(self.rays)
        except (ValueError, SeparationBugError) as exc:
            raise SeparationBugError(f"the margin LP raised {type(exc).__name__}: {exc}") from exc


class FacetDescription(NamedTuple):
    """{x : <a, x> = b for (a, b) in equations, <a, x> <= b for (a, b) in facets}.

    The equations cut out the affine hull and the facets are irredundant.
    Each pair (a, b) is the one positive multiple of itself whose first
    nonzero entry of a is rational and whose entries' rational and
    sqrt(k) parts, those of b included, are coprime integers.  Whether the
    set contains a line is ``is_pointed``'s answer, not part of the
    description.
    """

    equations: tuple[tuple[Vector, Surd], ...]
    facets: tuple[tuple[Vector, Surd], ...]


def _halfspace(f, k: int) -> tuple[Vector, Surd]:
    """(a, b) such that <f, (x, 1)> = <a, x> - b, for a primitive row f of
    integer pairs: a is f's leading pairs over the denominator 1."""
    a, b = f[-1]
    return Vector._make(1, f[:-1], k), Surd._make(-a, -b, 1, k)


def _double_description(P: VPolyhedron) -> FacetDescription:
    """P's equations and facets by the double-description method.

    x lies in P iff (x, 1) lies in the cone K spanned by the homogenized
    generators (v, 1) and (r, 0).  By the bipolar theorem (x, 1) is in K
    iff <l, (x, 1)> = 0 for every basis vector l of the polar cone's
    lineality space and <f, (x, 1)> <= 0 for every extreme ray f of it
    (``_polar_cone``), which are the equations and facets of P.

    Each generator is its ``Vector``'s pairs, that is the generator scaled
    by its denominator m, a positive integer, which moves no sign.
    """
    k = P.field_k
    gens = [[*v.pairs, (v.m, 0)] for v in P.vertices]
    gens += [[*r.pairs, (0, 0)] for r in P.rays]
    basis, rays, zeros = _polar_cone(gens, P.dim + 1, k)
    # A facet of K with no vertex on it is K's face at t = 0, whose
    # inequality every x in the affine hull satisfies.
    on_vertices = (1 << len(P.vertices)) - 1
    return FacetDescription(
        tuple(_halfspace(l, k) for l in basis),
        tuple(_halfspace(f, k) for f, z in zip(rays, zeros) if z & on_vertices),
    )


def _polar_cone(gens, n: int, k: int) -> tuple[list, list, list[int]]:
    """The polar cone {f : <f, g> <= 0 for every g in gens} of the cone
    spanned by gens, vectors of n integer pairs of Z[sqrt(k)], by the
    double-description method (Motzkin, Raiffa, Thompson & Thrall 1953;
    Fukuda & Prodon, "Double description method revisited", 1996).

    The polar is kept as lin(basis) + cone(rays) and cut down one
    generator at a time from the whole space (basis e_0..e_(n-1), no
    rays).  The result is (basis, rays, zeros): bit i of zeros[j] is set
    iff <rays[j], gens[i]> = 0.

    Every vector is a list of integer pairs (see ``scalars``).  A
    projected basis vector or ray is taken |N(c)| times, for the norm N(c)
    of the pivot product c, so that no division is needed, and every new
    vector is made canonical (``_pair_primitive``): the one vector on its
    ray whose first nonzero coordinate is rational and whose parts are
    coprime integers, whatever path built it.  Dividing by the gcd alone
    would keep common factors of Z[sqrt(k)], and each step would multiply
    in a pivot's norm, so the heights would grow with every generator.
    """
    basis = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    rays: list[list[tuple[int, int]]] = []
    zeros: list[int] = []
    for i, g in enumerate(gens):
        bit = 1 << i
        products = [_pair_dot(l, g, k) for l in basis]
        p = next((j for j, s in enumerate(products) if s != (0, 0)), None)
        if p is not None:
            # g leaves the lineality space: basis[p] turns into the ray on the
            # side <., g> < 0, and the rest is projected onto <., g> = 0 as
            # u - (s/c)*basis[p] for c = products[p], here times the
            # integer norm > 0 of 1/c = w/norm: norm*u - s*w*basis[p]
            lp = basis[p]
            w, norm = _pair_reciprocal(products[p], k)
            scale = (norm, 0)

            def onto_hyperplane(u, s):
                if s == (0, 0):
                    return u
                return _pair_primitive(_pair_combination(scale, u, _pair_mul(s, w, k), lp, k), k)

            basis = [
                onto_hyperplane(l, s) for j, (l, s) in enumerate(zip(basis, products)) if j != p
            ]
            rays = [onto_hyperplane(r, _pair_dot(r, g, k)) for r in rays]
            zeros = [z | bit for z in zeros]
            rays.append([(-a, -b) for a, b in lp] if _pair_sign(products[p], k) > 0 else lp)
            zeros.append(bit - 1)
            continue
        products = [_pair_dot(r, g, k) for r in rays]
        signs = [_pair_sign(s, k) for s in products]
        new_rays = [r for r, s in zip(rays, signs) if s <= 0]
        new_zeros = [z | bit if s == 0 else z for z, s in zip(zeros, signs) if s <= 0]
        # Two extreme rays are adjacent iff no third one is zero wherever both
        # are, that is iff the rays zero on every generator where both are
        # zero are the two alone.  zero_on[j] is the bitmask of the rays zero
        # on generator j, so those rays are the AND of zero_on[j] over the
        # common zero bits j, which stops as soon as only the two are left.
        # Adjacent rays also share at least n - 2 - len(basis) zeros, as many
        # as independent constraints cut out a 2-face of the polar; that
        # cheap count runs first.
        zero_on = [sum(1 << c for c, z in enumerate(zeros) if z >> j & 1) for j in range(i)]
        everyone = (1 << len(rays)) - 1
        need = n - 2 - len(basis)
        below = [(j, zeros[j]) for j, s in enumerate(signs) if s < 0]
        for a in (j for j, s in enumerate(signs) if s > 0):
            za = zeros[a]
            for b, zb in below:
                common = za & zb
                if common.bit_count() < need:
                    continue
                pair, both, bits = (1 << a) | (1 << b), everyone, common
                while bits and both != pair:
                    low = bits & -bits
                    both &= zero_on[low.bit_length() - 1]
                    bits ^= low
                if both != pair:
                    continue
                combined = _pair_combination(products[a], rays[b], products[b], rays[a], k)
                new_rays.append(_pair_primitive(combined, k))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return basis, rays, zeros


def _check_dims(P: VPolyhedron, x: Vector):
    if P.dim != x.dim:
        raise DimensionMismatchError(f"set has dim {P.dim}, vector has dim {x.dim}")


def support_value(P: VPolyhedron, a: Vector) -> SupportValue:
    """sup <a, x> over P: +inf when a ray points uphill, else the vertex max.

    A ray r points uphill when <a, r> > 0, read as the sign of the dot
    product of the two vectors' pairs, whose denominators are positive,
    with no Surd built.  Ties between equal-support vertices resolve to
    the lowest index.  Raises ``ValueError`` when a and P use different
    irrational fields, whichever way a points.
    """
    _check_dims(P, a)
    k = Surd._k_with(a.field_k, P.field_k)
    A = a.pairs
    if any(_pair_sign(_pair_dot(A, r.pairs, k), k) > 0 for r in P.rays):
        return SupportValue(None)
    _, c, m = _highest_vertex(P, A, k)
    return SupportValue(Surd._make(*c, a.m * m, k))


def _highest_vertex(P: VPolyhedron, A, k: int) -> tuple[int, tuple[int, int], int]:
    """(i, c, m) for the vertex v_i = V_i/m of P that maximizes <A, v>, the
    lowest index on ties, and c = <A, V_i>, so <A, v_i> = c/m.

    A is a vector of integer pairs of Z[sqrt(k)], a direction scaled by
    any positive integer, which picks the same vertex.  Candidates
    compare by cross multiplication with the positive denominators, and
    no Surd is built.
    """
    vertices = P.vertices
    top, best, m = 0, _pair_dot(A, vertices[0].pairs, k), vertices[0].m
    for i in range(1, len(vertices)):
        v = vertices[i]
        c = _pair_dot(A, v.pairs, k)
        if _pair_sign((c[0] * m - best[0] * v.m, c[1] * m - best[1] * v.m), k) > 0:
            top, best, m = i, c, v.m
    return top, best, m


def _nearest_vertex(P: VPolyhedron, y: Vector) -> int:
    """The index of the vertex of P nearest y, the lowest on ties.

    It minimizes ||v||**2 - 2<v, y>, which for v = p/m and y = q/n is
    (n<p, p> - 2m<p, q>) / (n*m**2): pairs over the denominators m**2,
    compared by cross multiplication, with no Surd built.
    """
    k = Surd._k_with(y.field_k, P.field_k)
    q, n = y.pairs, y.m
    top = best = den = None
    for i, v in enumerate(P.vertices):
        p, m = v.pairs, v.m
        a, b = _pair_dot(p, p, k)
        c, e = _pair_dot(p, q, k)
        x, d = (n * a - 2 * m * c, n * b - 2 * m * e), m * m
        if top is None or _pair_sign((x[0] * den - best[0] * d, x[1] * den - best[1] * d), k) < 0:
            top, best, den = i, x, d
    return top


def is_pointed(P: VPolyhedron) -> bool:
    """Whether P contains no line, i.e. cone(rays) contains none.

    A set without rays is bounded.  Otherwise the margin LP on the rays
    alone, ``linalg.simplex_max(rays)``, decides it, once per set object:
    by Gordan's theorem cone(rays) is pointed iff some d has <d, r> < 0
    for every ray, that is iff the optimum t* > 0.  The LP runs in the
    rays' own field, on plain ints when every ray is rational, and P's
    vertices and facets take no part.
    """
    return not P.rays or P._ray_margin[1].sign() > 0


def _check_fields(P: VPolyhedron, x: Vector):
    Surd._k_with(x.field_k, P.field_k)  # raises on two different irrational fields


def membership(P: VPolyhedron, x: Vector) -> bool:
    """Exact decision of x in conv(vertices) + cone(rays).

    x is in P iff it is its own nearest point of P (``_nearest``), a
    comparison of exact vectors; no facet description is built.
    Raises ``ValueError`` when x and P use different irrational fields.
    """
    _check_dims(P, x)
    _check_fields(P, x)
    return _nearest(P, x) == x


def project(P: VPolyhedron, y: Vector) -> Vector:
    """The unique nearest point of P to y, with coordinates in the field.

    P must be pointed (``NotPointedError`` otherwise).  The point is found
    by ``_nearest``, Wolfe's minimum-norm point algorithm run exactly; a
    point of P is its own nearest point.  Raises ``ValueError`` when y and
    P use different irrational fields.
    """
    _check_dims(P, y)
    if not is_pointed(P):
        raise NotPointedError("projection requires a pointed set")
    _check_fields(P, y)
    return _nearest(P, y)


def _nearest(P: VPolyhedron, y: Vector) -> Vector:
    """The nearest point z of P to y, by Wolfe's minimum-norm point
    algorithm run exactly (P. Wolfe, "Finding the nearest point in a
    polytope", Math. Programming 11, 1976), with rays as generators whose
    weights have no upper bound.

    z is kept as a weighted sum over a corral: generators with positive
    weights, the vertex weights summing to 1, at least one vertex, and
    affinely independent, so a corral has at most dim + 1 members.  It
    starts at the vertex nearest y, the lowest index on ties.  The
    weights are integer pairs over one positive integer
    (``_minor_cycles``).

    Major cycle.  With g = y - z, z is the projection iff the variational
    inequality <g, x - z> <= 0 holds on P, that is iff <g, r> <= 0 for
    every ray and <g, v> <= <g, z> for every vertex.  Otherwise the first
    ray with <g, r> > 0 enters the corral, or, if there is none, the
    vertex that maximizes <g, v>.  Minor cycles (``_minor_cycles``) then
    make z the nearest point of the new corral's affine hull.  For
    y = Y/y.m and z = Z/z.m, g is read as the pairs G = z.m*Y - y.m*Z,
    g times y.m*z.m > 0, which moves no sign: the ray test is the sign
    of <G, R>, and the stop test that of <G, Z>*m - c*z.m for the
    highest vertex's <G, V> = c over its m (``_highest_vertex``), so no
    Vector or Surd is built for g.

    Each major cycle strictly lowers ||y - z||, and z is determined by
    the corral, so no corral repeats.  More major cycles than there are
    generator subsets with at most dim + 1 members and at least one
    vertex mean a fault in the exact arithmetic, and raise
    ``SeparationBugError``.

    P keeps the last (y, z) it answered, stored only once the loop has
    returned, so a repeated query on the same object costs one vector
    comparison.  The callers check dimensions, fields and pointedness
    before this, so the kept pair is never read for an input they
    reject.
    """
    last = vars(P).get("_last_nearest")
    if last is not None and last[0] == y:
        return last[1]
    vertices, rays = P.vertices, P.rays
    nv, nr = len(vertices), len(rays)
    k = Surd._k_with(y.field_k, P.field_k)
    Y, ym = y.pairs, y.m
    start = _nearest_vertex(P, y)
    z, weights, den = vertices[start], {start: (1, 0)}, 1
    cycles = sum(comb(nv + nr, s) - comb(nr, s) for s in range(1, P.dim + 2))
    for _ in range(cycles):
        Z, zm = z.pairs, z.m
        G = [(a * zm - c * ym, b * zm - e * ym) for (a, b), (c, e) in zip(Y, Z)]
        ups = (j for j, r in enumerate(rays, nv) if _pair_sign(_pair_dot(G, r.pairs, k), k) > 0)
        enter = next(ups, None)
        if enter is None:
            enter, (ca, cb), m = _highest_vertex(P, G, k)
            ga, gb = _pair_dot(G, Z, k)
            if _pair_sign((ga * m - ca * zm, gb * m - cb * zm), k) >= 0:
                vars(P)["_last_nearest"] = (y, z)
                return z
        weights[enter] = (0, 0)
        z, weights, den = _minor_cycles(y, P, weights, den)
    raise SeparationBugError(f"the projection exceeded its bound of {cycles} major cycles")


def _minor_cycles(y: Vector, P: VPolyhedron, weights: dict, den: int) -> tuple[Vector, dict, int]:
    """Wolfe's minor cycles: (w, weights, den) for the nearest point w to y
    of the corral's affine hull and its weights, all positive, once the
    generators that would get a weight <= 0 have left the corral.

    ``weights`` maps generator indices (P's vertices, then its rays) to
    the weights lambda of the current point, integer pairs of Z[sqrt(k)]
    over the one positive integer den, and so do the returned ones.  Let
    alpha be the affine minimizer's weights, pairs over the positive
    integer A (``_face_point``).  If none is negative, the minimizer is
    the point, with the weights alpha over A.  Otherwise the point steps
    toward it, lambda becoming lambda + theta*(alpha - lambda) for theta
    = min lambda_i / (lambda_i - alpha_i) over the negative alpha_i,
    which keeps every weight nonnegative and puts at least one at 0, and
    the generators at 0 leave.

    For lambda_i = l_i/den and alpha_i = a_i/A that quotient is
    A*l_i/q_i for q_i = A*l_i - den*a_i, which is positive where
    alpha_i < 0, so the quotients compare as l_i/q_i by cross
    multiplication.  For the least, at j, the new weights
    (lambda_j*alpha_i - lambda_i*alpha_j)/(lambda_j - alpha_j) are
    (l_j*a_i - l_i*a_j)/q_j, read with 1/q_j = w/n (``_pair_reciprocal``)
    as the pairs (l_j*a_i - l_i*a_j)*w over n, all divided by their one
    gcd.  No Surd is built.
    """
    vertices = P.vertices
    nv, gens = len(vertices), (*vertices, *P.rays)
    k = Surd._k_with(y.field_k, P.field_k)
    while True:
        order = sorted(weights)
        w, alpha, A = _face_point(
            y, [gens[i] for i in order if i < nv], [gens[i] for i in order if i >= nv]
        )
        signs = [_pair_sign(a, k) for a in alpha]
        step = None
        for i, a, s in zip(order, alpha, signs):
            if s < 0:
                li = weights[i]
                q = (A * li[0] - den * a[0], A * li[1] - den * a[1])
                if step is not None:
                    (xa, xb), (ya, yb) = _pair_mul(li, step[2], k), _pair_mul(step[0], q, k)
                    if _pair_sign((xa - ya, xb - yb), k) >= 0:
                        continue
                step = li, a, q
        if step is None:
            return w, {i: a for i, a, s in zip(order, alpha, signs) if s > 0}, A
        lj, aj, q = step
        wq, n = _pair_reciprocal(q, k)
        lams = {}
        for i, a in zip(order, alpha):
            (xa, xb), (ya, yb) = _pair_mul(lj, a, k), _pair_mul(weights[i], aj, k)
            x = (xa - ya, xb - yb)
            if _pair_sign(x, k) > 0:
                lams[i] = _pair_mul(x, wq, k)
        g = gcd(n, *(c for lam in lams.values() for c in lam))
        weights = {i: (a // g, b // g) for i, (a, b) in lams.items()}
        den = n // g


def _face_point(y: Vector, vs: list[Vector], rs: list[Vector]) -> tuple[Vector, list, int]:
    """The nearest point z to y of the affine hull of conv(vs) + cone(rs),
    exactly, and its weights, as (z, weights, den): one weight per
    vertex, summing to 1, then one per ray, each an integer pair of
    Z[sqrt(k)] over the one positive integer den, z = sum of the weights
    times the generators.

    The hull is vs[0] + span(vs[1:] - vs[0], rs), and the span's weights
    x solve the normal equations (the Gram system) exactly; vs[0] gets 1
    minus the other vertices' weights.  Weights may be negative, when z
    lies outside conv(vs) + cone(rs).

    The system is built from the vectors' integer pairs, with no Surd:
    for span vectors u_i = U_i/m_i and y - vs[0] = T/m_t, row i times
    m_i*m_t reads sum_j <U_i, U_j> * (m_t*x_j/m_j) = <U_i, T>.
    ``solve_linear_system`` returns those unknowns as X_j / D, so
    x_j = X_j*m_j / (m_t*D), and with 1/D = w/n (``_pair_reciprocal``)
    x_j is the pair X_j*w*m_j over m_t*n, and
    z = (m_t*n*V0 + v0.m * sum_j X_j*w*U_j) / (v0.m*m_t*n), where the m_j
    cancel.  The weights and den = m_t*n are divided by their one gcd,
    which at the parse limits removes about a third of their bits and so
    shortens each step of the minor cycles.  The field of z takes in y
    and every generator, since a rational y - vs[0] and span can still
    sit on an irrational vs[0].

    The span vectors are linearly independent, so the Gram system is
    positive definite, with every leading principal minor positive, as
    ``solve_linear_system`` needs.  A corral is affinely independent:
    with g = y - z orthogonal to the current corral's flat, an entering
    ray has <g, r> > 0 and an entering vertex <g, v - z> > 0, so neither
    lies in that flat, and a generator that leaves keeps the rest
    independent.
    """
    v0 = vs[0]
    span = [v - v0 for v in vs[1:]] + list(rs)
    if not span:
        return v0, [(1, 0)], 1
    k = reduce(Surd._k_with, (g.field_k for g in (y, *vs, *rs)), 1)
    t = y - v0
    rows = [[*(_pair_dot(u.pairs, s.pairs, k) for s in span), _pair_dot(u.pairs, t.pairs, k)]
            for u in span]
    X, D = solve_linear_system(rows, k)
    w, n = _pair_reciprocal(D, k)
    den = t.m * n
    W = [_pair_mul(x, w, k) for x in X]
    xs = [(a * u.m, b * u.m) for (a, b), u in zip(W, span)]
    z = [(den * a, den * b) for a, b in v0.pairs]
    for (a, b), u in zip(W, span):
        z = _pair_combination((1, 0), z, (-v0.m * a, -v0.m * b), u.pairs, k)
    vertex = xs[: len(vs) - 1]
    weights = [(den - sum(a for a, _ in vertex), -sum(b for _, b in vertex)), *xs]
    g = gcd(den, *(c for x in weights for c in x))
    return Vector._make(v0.m * den, z, k), [(a // g, b // g) for a, b in weights], den // g

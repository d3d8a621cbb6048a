"""Pointed closed convex sets described by generators.

A ``VPolyhedron`` is conv(vertices) + cone(rays) with coordinates in one
quadratic field.  On first use each set computes its facet description
by the exact double-description method: the equations of its affine
hull, one inequality per facet (Minkowski-Weyl), and whether the set
contains a line.  The method runs on integer pairs of Z[sqrt(k)], read
straight off the generators' ``Vector``s, and each resulting normal is a
``Vector`` of those pairs again; only the right-hand sides become Surds.
Membership is a sign test on that description and pointedness a field
of it; support values and the metric projection are exact too.
Answers come from sign determinations, never from tolerances.  That
exactness is what lets the separation pipeline assert strict
inequalities instead of hoping for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from typing import NamedTuple

from .errors import DimensionMismatchError, NotPointedError, SeparationBugError
from .linalg import solve_linear_system
from .scalars import (
    Surd,
    Vector,
    _pair_combination,
    _pair_dot,
    _pair_mul,
    _pair_primitive,
    _pair_reciprocal,
    _pair_sign,
    _pair_surd,
)

__all__ = [
    "VPolyhedron",
    "FacetDescription",
    "SupportValue",
    "support_value",
    "is_pointed",
    "polar_cone_contains",
    "membership",
    "project",
]

_ZERO = Surd(0)


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

    ``field_k`` is the one field Q(sqrt(k)) of all generators (1 when they
    are rational), worked out once at construction.
    """

    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...] = ()
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
        object.__setattr__(self, "field_k", k)

    @property
    def dim(self) -> int:
        return self.vertices[0].dim

    def translated(self, offset: Vector) -> "VPolyhedron":
        return VPolyhedron(tuple(v + offset for v in self.vertices), self.rays)

    @cached_property
    def facet_description(self) -> "FacetDescription":
        """The set's equations, facets and pointedness, computed once per object."""
        return _double_description(self)


class FacetDescription(NamedTuple):
    """{x : <a, x> = b for (a, b) in equations, <a, x> <= b for (a, b) in facets}.

    The equations cut out the affine hull and the facets are irredundant.
    Each pair (a, b) is scaled so that the rational and sqrt(k) parts of
    its entries are coprime integers.  ``pointed`` tells whether the set
    contains no line.
    """

    equations: tuple[tuple[Vector, Surd], ...]
    facets: tuple[tuple[Vector, Surd], ...]
    pointed: bool


def _halfspace(f, k: int) -> tuple[Vector, Surd]:
    """(a, b) such that <f, (x, 1)> = <a, x> - b, for a primitive row f of
    integer pairs: a is f's leading pairs over the denominator 1."""
    a, b = f[-1]
    return Vector._make(1, f[:-1], k), _pair_surd((-a, -b), k)


def _double_description(P: VPolyhedron) -> FacetDescription:
    """P's equations, facets and pointedness by the double-description method.

    x lies in P iff (x, 1) lies in the cone K spanned by the homogenized
    generators (v, 1) and (r, 0).  The polar cone {f : <f, g> <= 0 for
    every generator g} is kept as lin(basis) + cone(rays) and cut down one
    generator at a time from the whole space (basis e_0..e_n, no rays).
    By the bipolar theorem (x, 1) is in K iff <l, (x, 1)> = 0 for every
    basis vector l and <f, (x, 1)> <= 0 for every extreme ray f, which are
    the equations and facets of P.  Motzkin, Raiffa, Thompson & Thrall
    1953; Fukuda & Prodon, "Double description method revisited", 1996.

    P contains no line iff K is pointed, iff the polar is full-dimensional.
    The polar stays full-dimensional when g takes a basis vector; when g
    is orthogonal to the basis, it stays so iff some ray has <f, g> < 0.

    Every vector is a list of integer pairs of Z[sqrt(k)] (see
    ``scalars``).  Each generator is its ``Vector``'s pairs, that is the
    generator scaled by its denominator m, a positive integer, which
    moves no sign.  A projected basis vector or ray is taken |N(c)| times,
    for the norm N(c) of the pivot product c, so that no division is
    needed, and every new vector is divided by the gcd of its parts: it is
    the one vector on its ray whose parts are coprime integers, as over
    the field.
    """
    n = P.dim
    k = P.field_k
    gens = [[*v.pairs, (v.m, 0)] for v in P.vertices]
    gens += [[*r.pairs, (0, 0)] for r in P.rays]
    basis = [[(int(i == j), 0) for j in range(n + 1)] for i in range(n + 1)]
    rays: list[list[tuple[int, int]]] = []
    pointed = True
    zeros: list[int] = []  # bit i of zeros[j] is set iff <rays[j], gens[i]> = 0
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
                return _pair_primitive(_pair_combination(scale, u, _pair_mul(s, w, k), lp, k))

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
        pointed = pointed and -1 in signs
        new_rays = [r for r, s in zip(rays, signs) if s <= 0]
        new_zeros = [z | bit if s == 0 else z for z, s in zip(zeros, signs) if s <= 0]
        # Two extreme rays are adjacent iff no third one is zero wherever both
        # are.  Adjacent rays also share at least n - 1 - len(basis) zeros,
        # as many as independent constraints cut out a 2-face of the polar;
        # that cheap count runs first.
        need = n - 1 - len(basis)
        for a in (j for j, s in enumerate(signs) if s > 0):
            for b in (j for j, s in enumerate(signs) if s < 0):
                common = zeros[a] & zeros[b]
                if common.bit_count() < need or any(
                    zeros[c] & common == common for c in range(len(rays)) if c != a and c != b
                ):
                    continue
                combined = _pair_combination(products[a], rays[b], products[b], rays[a], k)
                new_rays.append(_pair_primitive(combined))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    # A facet of K with no vertex on it is K's face at t = 0, whose
    # inequality every x in the affine hull satisfies.
    on_vertices = (1 << len(P.vertices)) - 1
    return FacetDescription(
        tuple(_halfspace(l, k) for l in basis),
        tuple(_halfspace(f, k) for f, z in zip(rays, zeros) if z & on_vertices),
        pointed,
    )


def _check_dims(P: VPolyhedron, x: Vector):
    if P.dim != x.dim:
        raise DimensionMismatchError(f"set has dim {P.dim}, vector has dim {x.dim}")


def support_value(P: VPolyhedron, a: Vector) -> SupportValue:
    """sup <a, x> over P: +inf when a ray points uphill, else the vertex max.

    Ties between equal-support vertices resolve to the lowest index.
    """
    _check_dims(P, a)
    if not polar_cone_contains(P.rays, a):
        return SupportValue(None)
    # <a, v> is the pair dot over a.m * v.m; candidates compare by cross
    # multiplication with the positive denominators, and one Surd is built.
    k = Surd._k_with(a.field_k, P.field_k)
    best, m = _pair_dot(a.pairs, P.vertices[0].pairs, k), P.vertices[0].m
    for v in P.vertices[1:]:
        c = _pair_dot(a.pairs, v.pairs, k)
        if _pair_sign((c[0] * m - best[0] * v.m, c[1] * m - best[1] * v.m), k) > 0:
            best, m = c, v.m
    return SupportValue(Surd._make(*best, a.m * m, k))


def polar_cone_contains(rays, y: Vector) -> bool:
    """Whether <y, r> <= 0 for every ray, i.e. y lies in the polar of cone(rays)."""
    return all(y.dot_sign(r) <= 0 for r in rays)


def is_pointed(P: VPolyhedron) -> bool:
    """Whether P contains no line, i.e. cone(rays) contains none.

    A set without rays is bounded.  Otherwise the double description
    decided it: P contains no line iff its homogenized cone is pointed,
    iff the polar of that cone is full-dimensional, which it stays until
    a cut finds no polar ray on its negative side.
    """
    return not P.rays or P.facet_description.pointed


def membership(P: VPolyhedron, x: Vector) -> bool:
    """Exact decision of x in conv(vertices) + cone(rays).

    x is in P iff <a, x> = b on every equation and <a, x> <= b on every
    facet (a, b) of P's facet description, each decided by an exact sign
    on integers (``Vector.dot_sign``).
    Raises ``ValueError`` when x and P use different irrational fields.
    """
    _check_dims(P, x)
    Surd._k_with(x.field_k, P.field_k)  # raises on two different irrational fields
    equations, facets, _ = P.facet_description
    return all(a.dot_sign(x, b) == 0 for a, b in equations) and all(
        a.dot_sign(x, b) <= 0 for a, b in facets
    )


def _face_point(y: Vector, vs: list[Vector], rs: list[Vector]) -> Vector | None:
    """Project y onto the affine hull of conv(vs) + cone(rs), exactly, or
    None when the solved weights leave conv(vs) + cone(rs): a negative
    weight on a ray, on a vertex of vs[1:] or, as 1 minus the others, on
    vs[0].  A returned point therefore lies in P."""
    v0 = vs[0]
    span = [v - v0 for v in vs[1:]] + list(rs)
    if not span:
        return v0
    gram = [[u.dot(w) for w in span] for u in span]
    target = y - v0
    rhs = [u.dot(target) for u in span]
    weights = solve_linear_system(gram, rhs)
    if any(w.sign() < 0 for w in weights) or (sum(weights[: len(vs) - 1], _ZERO) - 1).sign() > 0:
        return None
    z = v0
    for w, u in zip(weights, span):
        if w.sign() != 0:
            z = z + w * u
    return z


def project(P: VPolyhedron, y: Vector) -> Vector:
    """The unique nearest point of P to y, with coordinates in the field.

    Candidate faces are generator subsets (at least one vertex).  For
    each, y is projected onto the face's affine hull by solving the
    normal equations exactly, and the candidate is kept only when its
    weights are nonnegative, so that z lies in P.  Such a z is the
    projection iff the variational inequality <y - z, x - z> <= 0 holds
    on P, that is iff the support value of y - z is finite and at most
    <y - z, z>.  When y is outside P, its projection sits on a proper
    face, and by Caratheodory it has nonnegative weights on some
    affinely independent subset of at most dim(P) of the face's
    generators, so subsets are capped at that size.
    """
    _check_dims(P, y)
    if not is_pointed(P):
        raise NotPointedError("projection requires a pointed set")
    if membership(P, y):
        return y
    nv = len(P.vertices)
    gens = nv + len(P.rays)
    cap = min(P.dim, gens)
    for size in range(1, cap + 1):
        for combo in combinations(range(gens), size):
            if combo[0] >= nv:
                continue  # ascending combos: first index < nv iff a vertex is present
            vs = [P.vertices[i] for i in combo if i < nv]
            rs = [P.rays[i - nv] for i in combo if i >= nv]
            z = _face_point(y, vs, rs)
            if z is None:
                continue
            g = y - z
            sigma = support_value(P, g)
            if sigma.is_finite and g.dot_sign(z, sigma.value) >= 0:
                return z
    raise SeparationBugError("no face yielded the projection; generator data invalid?")

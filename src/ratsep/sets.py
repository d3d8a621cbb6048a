"""Pointed closed convex sets described by generators.

A ``VPolyhedron`` is conv(vertices) + cone(rays) with coordinates in one
quadratic field.  On first use each set computes its facet description
by the exact double-description method: the equations of its affine
hull, one inequality per facet (Minkowski-Weyl), and whether the set
contains a line.  Membership is a sign test on that description and
pointedness a field of it; support values and the metric projection
are exact too.  Answers come from sign determinations, never from
tolerances.  That exactness is what lets the separation pipeline
assert strict inequalities instead of hoping for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from .errors import DimensionMismatchError, NotPointedError, SeparationBugError
from .linalg import solve_linear_system
from .scalars import Surd, Vector

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


def _primitive(v: Vector) -> Vector:
    """v times the positive rational that makes the rational and sqrt(k)
    parts of its coordinates coprime integers."""
    parts = [q for c in v for q in (c.r, c.s) if q]
    return Fraction(lcm(*(q.denominator for q in parts)), gcd(*(q.numerator for q in parts))) * v


def _halfspace(f: Vector) -> tuple[Vector, Surd]:
    """(a, b) such that <f, (x, 1)> = <a, x> - b."""
    return Vector(f.coords[:-1]), -f.coords[-1]


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
    """
    n = P.dim
    gens = [Vector([*v, 1]) for v in P.vertices] + [Vector([*r, 0]) for r in P.rays]
    basis = [Vector([int(i == j) for j in range(n + 1)]) for i in range(n + 1)]
    rays: list[Vector] = []
    pointed = True
    zeros: list[int] = []  # bit i of zeros[j] is set iff <rays[j], gens[i]> = 0
    for i, g in enumerate(gens):
        bit = 1 << i
        products = [l.dot(g) for l in basis]
        p = next((j for j, s in enumerate(products) if s.sign() != 0), None)
        if p is not None:
            # g leaves the lineality space: basis[p] turns into the ray on the
            # side <., g> < 0, and the rest is projected onto <., g> = 0
            lp, cp = basis[p], products[p]

            def onto_hyperplane(u: Vector, s: Surd) -> Vector:
                return _primitive(u - (s / cp) * lp) if s.sign() != 0 else u

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
                new_rays.append(_primitive(products[a] * rays[b] - products[b] * rays[a]))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    # A facet of K with no vertex on it is K's face at t = 0, whose
    # inequality every x in the affine hull satisfies.
    on_vertices = (1 << len(P.vertices)) - 1
    return FacetDescription(
        tuple(_halfspace(l) for l in basis),
        tuple(_halfspace(f) for f, z in zip(rays, zeros) if z & on_vertices),
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
    best = a.dot(P.vertices[0])
    for v in P.vertices[1:]:
        cand = a.dot(v)
        if (cand - best).sign() > 0:
            best = cand
    return SupportValue(best)


def polar_cone_contains(rays, y: Vector) -> bool:
    """Whether <y, r> <= 0 for every ray, i.e. y lies in the polar of cone(rays)."""
    return all(y.dot(r).sign() <= 0 for r in rays)


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
    facet (a, b) of P's facet description, each decided by an exact sign.
    Raises ``ValueError`` when x and P use different irrational fields.
    """
    _check_dims(P, x)
    Surd._k_with(x.field_k, P.field_k)  # raises on two different irrational fields
    equations, facets, _ = P.facet_description
    return all((a.dot(x) - b).sign() == 0 for a, b in equations) and all(
        (a.dot(x) - b).sign() <= 0 for a, b in facets
    )


def _affine_projection(y: Vector, vs: list[Vector], rs: list[Vector]) -> Vector:
    """Project y onto the affine hull of conv(vs) + cone(rs), exactly."""
    v0 = vs[0]
    span = [v - v0 for v in vs[1:]] + list(rs)
    if not span:
        return v0
    gram = [[u.dot(w) for w in span] for u in span]
    target = y - v0
    rhs = [u.dot(target) for u in span]
    weights = solve_linear_system(gram, rhs)
    z = v0
    for w, u in zip(weights, span):
        if w.sign() != 0:
            z = z + w * u
    return z


def project(P: VPolyhedron, y: Vector) -> Vector:
    """The unique nearest point of P to y, with coordinates in the field.

    Candidate faces are generator subsets (at least one vertex).  For
    each, y is projected onto the face's affine hull by solving the
    normal equations exactly; a candidate is accepted when it lies in P
    and satisfies the variational inequality <y - z, v - z> <= 0 at all
    vertices and <y - z, r> <= 0 at all rays, which certifies global
    optimality.  When y is outside P, its projection sits on a proper
    face, whose affine hull is spanned by at most dim(P) generators, so
    subsets are capped at that size.
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
            z = _affine_projection(y, vs, rs)
            g = y - z
            if not all(g.dot(v - z).sign() <= 0 for v in P.vertices):
                continue
            if not all(g.dot(r).sign() <= 0 for r in P.rays):
                continue
            if membership(P, z):
                return z
    raise SeparationBugError("no face yielded the projection; generator data invalid?")

"""Pointed closed convex sets described by generators.

A ``VPolyhedron`` is conv(vertices) + cone(rays) with coordinates in one
quadratic field.  Membership, pointedness, support values and the
metric projection are all exact: answers come from sign determinations
and exact LP feasibility, never from tolerances.  That exactness is
what lets the separation pipeline assert strict inequalities instead of
hoping for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DimensionMismatchError, NotPointedError, SeparationBugError
from .linalg import simplex_max, solve_linear_system
from .scalars import Surd, Vector

__all__ = [
    "VPolyhedron",
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
    """conv(vertices) + cone(rays), at least one vertex, rays nonzero."""

    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...] = ()

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
        k = 1
        for g in (*self.vertices, *self.rays):
            gk = g.field_k
            if gk != 1:
                if k == 1:
                    k = gk
                elif gk != k:
                    raise ValueError("generators mix different quadratic fields")

    @property
    def dim(self) -> int:
        return self.vertices[0].dim

    @property
    def field_k(self) -> int:
        for g in (*self.vertices, *self.rays):
            if g.field_k != 1:
                return g.field_k
        return 1

    def translated(self, offset: Vector) -> "VPolyhedron":
        return VPolyhedron(tuple(v + offset for v in self.vertices), self.rays)


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
    """Whether cone(rays) contains no line.

    By the theorem of the alternative, the cone contains a line exactly
    when some nonzero nonnegative combination of the rays vanishes, so
    we test feasibility of {sum eta_j r_j = 0, sum eta_j = 1, eta >= 0}.
    """
    rays = P.rays
    if not rays:
        return True
    n = P.dim
    A_eq = [[r[c] for r in rays] for c in range(n)]
    A_eq.append([Fraction(1)] * len(rays))
    b_eq = [Fraction(0)] * n + [Fraction(1)]
    res = simplex_max([Fraction(0)] * len(rays), A_eq=A_eq, b_eq=b_eq)
    return res.status == "infeasible"


@lru_cache(maxsize=65536)
def _membership_cached(P: VPolyhedron, x: Vector) -> bool:
    nv, nr = len(P.vertices), len(P.rays)
    n = P.dim
    A_eq = []
    b_eq = []
    for c in range(n):
        A_eq.append([v[c] for v in P.vertices] + [r[c] for r in P.rays])
        b_eq.append(x[c])
    A_eq.append([Fraction(1)] * nv + [Fraction(0)] * nr)
    b_eq.append(Fraction(1))
    res = simplex_max([Fraction(0)] * (nv + nr), A_eq=A_eq, b_eq=b_eq)
    return res.status == "optimal"


def membership(P: VPolyhedron, x: Vector) -> bool:
    """Exact decision of x in conv(vertices) + cone(rays)."""
    _check_dims(P, x)
    return _membership_cached(P, x)


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

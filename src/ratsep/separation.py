"""Constructive rational separation for pointed generator-described sets.

Given a pointed set X and an exterior point, the pipeline

  1. projects the point onto X and re-centers, leaving a nonzero
     residual y_bar with support value exactly zero,
  2. finds a rational direction d and radius eps whose ball sits inside
     the barrier cone (the directions with finite support value), which
     exists precisely because the set is pointed,
  3. bounds the support value on that ball by a rational M and rescales
     the ball by alpha = (1/3)||y_bar||^2 / M, so support values on the
     rescaled ball stay below a third of ||y_bar||^2,
  4. inscribes a ball in the wedge conv({y_bar} u (d_bar + eps_bar B))
     clipped to y_bar + delta_hat B, where every point a satisfies
     <a, y_bar> >= (2/3)||y_bar||^2, and
  5. picks a rational point a there; the two bounds force the strict
     exact inequality sigma_X(a) < <a, y_tilde>, and any rational beta
     strictly between the two sides completes the certificate.

Irrational norms never enter the arithmetic: they are replaced by
rational enclosures chosen on the safe side, which only shrinks the
wedge and preserves every inequality.  Each step's guarantee is
re-verified with exact sign checks, so a returned certificate is
correct by construction and by audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certificates import Certificate
from .errors import (
    DimensionMismatchError,
    NotPointedError,
    PointInSetError,
    SeparationBugError,
)
from .linalg import simplex_max
from .scalars import (
    Surd,
    Vector,
    choose_rational_between,
    rational_in_ball,
    sqrt_enclosure,
)
from .sets import VPolyhedron, is_pointed, membership, project, support_value

__all__ = [
    "SeparationTrace",
    "norm_upper",
    "find_barrier_direction",
    "bound_support_on_ball",
    "compute_wedge_parameters",
    "wedge_interior_ball",
    "separate",
]

# Shared enclosure tolerance for ||.|| upper bounds.  One constant for
# the whole pipeline so producer guarantees and consumer checks agree.
NORM_ENCLOSURE_TOL = Fraction(1, 32)

# Slack used when replacing an irrational value by a rational strictly above.
_UPPER_SLACK = Fraction(1, 16)


def norm_upper(v: Vector) -> Fraction:
    """Rational upper bound on ||v|| at the pipeline's fixed tolerance."""
    return sqrt_enclosure(v.norm_sq(), NORM_ENCLOSURE_TOL).hi


def _rational_at_least(x: Surd) -> Fraction:
    """x itself when rational, else a rational strictly above within slack."""
    if x.is_rational:
        return x.as_fraction()
    return choose_rational_between(x, x + _UPPER_SLACK)


@dataclass(frozen=True)
class SeparationTrace:
    """Every intermediate quantity of one separation run, all exact.

    z_tilde      projection of the query point onto X
    y_bar        query point minus projection (nonzero residual)
    d, eps       rational ball d + eps*B inside the barrier cone of C = X - z_tilde
    M            rational upper bound for the support of C on that ball, >= 1
    alpha        rescaling (q/3)/M for a rational lower bound q of ||y_bar||^2
    d_bar        alpha * d
    eps_bar      alpha * eps
    delta_hat    rational lower bound of ||y_bar||/3, > 0
    lam          wedge mixing weight in (0, 1]
    ball_center  center of the ball inscribed in the wedge
    ball_radius  half the inscribed ball's safe radius (rational witness room)
    a, beta      the resulting certificate data
    """

    z_tilde: Vector
    y_bar: Vector
    d: Vector
    eps: Fraction
    M: Fraction
    alpha: Fraction
    d_bar: Vector
    eps_bar: Fraction
    delta_hat: Fraction
    lam: Fraction
    ball_center: Vector
    ball_radius: Fraction
    a: Vector
    beta: Fraction


def find_barrier_direction(P: VPolyhedron) -> tuple[Vector, Fraction]:
    """A rational d and eps > 0 with <d, r> + eps * norm_upper(r) <= 0 per ray.

    That is a (deliberately stronger, enclosure-friendly) witness that
    the ball d + eps*B lies in the barrier cone of P.  With no rays the
    barrier cone is all of space and (0, 1) is returned.  Otherwise an
    exact LP maximizes the margin t of <d, r_i> <= -t over the box
    ||d||_inf <= 1; a positive optimum exists iff the ray cone is
    pointed.  The LP optimum may be irrational, so it is snapped to a
    rational point close enough that a budgeted share of the margin
    absorbs both the snap and eps; the final inequalities are then
    re-checked exactly.
    """
    n = P.dim
    if not P.rays:
        return Vector.zero(n), Fraction(1)
    rays = P.rays
    # variables: p (n), q (n), t; d = p - q
    nvars = 2 * n + 1
    c = [Fraction(0)] * (2 * n) + [Fraction(1)]
    A_ub: list[list] = []
    b_ub: list = []
    for r in rays:
        A_ub.append([r[j] for j in range(n)] + [-r[j] for j in range(n)] + [Fraction(1)])
        b_ub.append(Fraction(0))
    for j in range(2 * n):
        row = [Fraction(0)] * nvars
        row[j] = Fraction(1)
        A_ub.append(row)
        b_ub.append(Fraction(1))
    res = simplex_max(c, A_ub=A_ub, b_ub=b_ub)
    if res.status != "optimal":
        raise SeparationBugError(f"margin LP ended {res.status}; it is feasible and bounded")
    t_star = res.x[2 * n]
    if t_star.sign() <= 0:
        raise NotPointedError("ray cone admits no strictly separating direction")
    d_star = Vector([res.x[j] - res.x[n + j] for j in range(n)])
    t_lo = (
        t_star.as_fraction()
        if t_star.is_rational
        else choose_rational_between(t_star * Fraction(1, 2), t_star)
    )
    ray_bounds = [norm_upper(r) for r in rays]
    share = t_lo / (2 * max(ray_bounds))
    d = rational_in_ball(d_star, share)
    eps = share
    if not all((d.dot(r) + eps * hi).sign() <= 0 for r, hi in zip(rays, ray_bounds)):
        raise SeparationBugError("barrier ball certificate failed its exact audit")
    return d, eps


def bound_support_on_ball(C: VPolyhedron, d: Vector, eps: Fraction) -> Fraction:
    """A rational M >= sup of C's support value over the ball d + eps*B, M >= 1.

    sup_{u in B} sigma_C(d + eps u) <= sup_{x in C} (<d, x> + eps||x||),
    and the right side is attained at a vertex because the ball sits in
    the barrier cone, making the recession slope of the integrand
    nonpositive along every ray.  That precondition, <d, r> + eps||r|| <= 0
    for every ray r, is decided exactly as <d, r> <= 0 and
    eps^2 ||r||^2 <= <d, r>^2; a violation, or eps <= 0, rejects the input
    with ``ValueError``.  Vertex terms are rounded up to rationals and
    clamped below by 1, which only enlarges the bound.
    """
    if C.dim != d.dim:
        raise DimensionMismatchError("direction dimension does not match the set")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    for r in C.rays:
        t = d.dot(r)
        if t.sign() > 0 or (eps * eps * r.norm_sq() - t * t).sign() > 0:
            raise ValueError("ball d + eps*B is not inside the barrier cone")
    best = Fraction(1)
    for v in C.vertices:
        term = _rational_at_least(d.dot(v)) + eps * norm_upper(v)
        if term > best:
            best = term
    return best


def compute_wedge_parameters(
    y_bar: Vector, M: Fraction, d: Vector, eps: Fraction
) -> tuple[Fraction, Vector, Fraction, Fraction]:
    """Rescale the barrier ball and fix the wedge radius, all rational.

    alpha = (q/3)/M for a positive rational lower bound q of
    ||y_bar||^2 (equal to it when rational); delta_hat is a positive
    rational lower bound of ||y_bar||/3.  Using lower bounds only
    shrinks the wedge, which preserves every containment the pipeline
    relies on while keeping all downstream arithmetic rational.
    """
    if y_bar.is_zero():
        raise ValueError("residual is zero: the query point lies in the set")
    M = Fraction(M)
    if M <= 0:
        raise ValueError("support bound M must be positive")
    nsq = y_bar.norm_sq()
    q = (
        nsq.as_fraction()
        if nsq.is_rational
        else choose_rational_between(nsq * Fraction(3, 4), nsq)
    )
    alpha = q / (3 * M)
    d_bar = alpha * d
    eps_bar = alpha * Fraction(eps)
    tol = Fraction(1, 4)
    while True:
        enc = sqrt_enclosure(nsq, tol)
        if enc.lo > 0:
            break
        tol /= 2
    delta_hat = enc.lo / 3
    return alpha, d_bar, eps_bar, delta_hat


def wedge_interior_ball(
    x0: Vector, d_bar: Vector, eps_bar: Fraction, delta_hat: Fraction
) -> tuple[Vector, Fraction]:
    """A ball inside conv({x0} u (d_bar + eps_bar*B)) and x0 + delta_hat*B.

    With lam = min(delta_hat / (norm_upper(d_bar - x0) + eps_bar), 1),
    the mixed ball (1-lam) x0 + lam (d_bar + eps_bar B) lies in both
    sets; its center and half its radius are returned, so that even the
    doubled ball stays inside -- the slack that lets a nearby rational
    point be taken later without leaving the wedge.
    """
    eps_bar = Fraction(eps_bar)
    delta_hat = Fraction(delta_hat)
    if eps_bar <= 0:
        raise ValueError("eps_bar must be positive")
    if delta_hat <= 0:
        raise ValueError("delta_hat must be positive")
    reach = norm_upper(d_bar - x0)
    lam = min(delta_hat / (reach + eps_bar), Fraction(1))
    center = (Fraction(1) - lam) * x0 + lam * d_bar
    radius = lam * eps_bar / 2
    return center, radius


def separate(X: VPolyhedron, y_tilde: Vector) -> tuple[Certificate, SeparationTrace]:
    """A rational halfspace separating X from the exterior point y_tilde.

    Returns (certificate, trace); the certificate always passes
    ``verify_certificate`` and the trace records every intermediate
    quantity exactly.  Raises NotPointedError / PointInSetError for the
    two rejected inputs, and SeparationBugError if an internal exact
    inequality fails, which would be a bug rather than a data issue.
    """
    if X.dim != y_tilde.dim:
        raise DimensionMismatchError("point dimension does not match the set")
    if not is_pointed(X):
        raise NotPointedError("separation requires a pointed set")
    if membership(X, y_tilde):
        raise PointInSetError("point inside set")

    z_tilde = project(X, y_tilde)
    C = X.translated(-z_tilde)
    y_bar = y_tilde - z_tilde

    d, eps = find_barrier_direction(C)
    M = bound_support_on_ball(C, d, eps)
    alpha, d_bar, eps_bar, delta_hat = compute_wedge_parameters(y_bar, M, d, eps)
    center, radius = wedge_interior_ball(y_bar, d_bar, eps_bar, delta_hat)
    lam = 2 * radius / eps_bar
    a = rational_in_ball(center, radius)

    fields = dict(
        z_tilde=z_tilde,
        y_bar=y_bar,
        d=d,
        eps=eps,
        M=M,
        alpha=alpha,
        d_bar=d_bar,
        eps_bar=eps_bar,
        delta_hat=delta_hat,
        lam=lam,
        ball_center=center,
        ball_radius=radius,
        a=a,
    )
    if a.is_zero():
        raise SeparationBugError("wedge produced the zero normal", fields)
    sX = support_value(X, a)
    if not sX.is_finite:
        raise SeparationBugError("wedge normal has infinite support value", fields)
    rhs = a.dot(y_tilde)
    if (rhs - sX.value).sign() <= 0:
        raise SeparationBugError("strict separation inequality failed", fields)
    beta = choose_rational_between(sX.value, rhs)
    return Certificate(a, beta), SeparationTrace(**fields, beta=beta)

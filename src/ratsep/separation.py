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

Every step runs on the integer pairs that ``Vector`` stores.  The
projection of step 1 is Wolfe's minimum-norm point algorithm
(``sets._nearest``), whose cycles read y - z and the corral's weights
as pairs.  Every norm bound comes from the enclosure kernel
``scalars._sqrt_bounds`` and every rounding from the rounding kernel
``scalars._rational_between``, both as integers, so each rule is
written once.  Steps 3 and 4 build no Surd, and one Fraction or Vector
per value they return; both read a squared distance, ||v - z_tilde||^2
and ||d_bar - y_bar||^2, from one pair helper,
``scalars._pair_distance_sq``, with no difference Vector.  The
re-centered set C = X - z_tilde of step 3 is never built: the bound
reads <d, v - z_tilde> and ||v - z_tilde|| off the integers of X's
vertices and of z_tilde, and skips <d, v - z_tilde> when d = 0, as it
is for every set without rays.  Step 2 rounds the optimum of the margin
LP that ``sets`` solved for pointedness, so ``separate`` solves no LP of
its own; it picks the largest ray norm bound and audits its ball on
integers too, with one Fraction, eps.  Step 5 builds the rational point
as one Vector of the rounding kernel's integers (``rational_in_ball``),
takes <a, y_tilde> once as a pair, decides sigma_X(a) < <a, y_tilde> by
one cross-multiplied sign, and builds one Surd of each side for
``choose_rational_between``.
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
from .scalars import (
    Surd,
    Vector,
    _dyadic_exponent,
    _pair_distance_sq,
    _pair_dot,
    _pair_mul,
    _pair_sign,
    _positive,
    _rational_between,
    _sqrt_bounds,
    choose_rational_between,
    rational_in_ball,
)
from .sets import VPolyhedron, is_pointed, membership, project, support_value

__all__ = [
    "SeparationTrace",
    "find_barrier_direction",
    "bound_support_on_ball",
    "compute_wedge_parameters",
    "wedge_interior_ball",
    "separate",
]

# Shared enclosure tolerance for ||.|| upper bounds.  One constant for
# the whole pipeline so producer guarantees and consumer checks agree.
NORM_ENCLOSURE_TOL = Fraction(1, 32)
_NORM_J = _dyadic_exponent(NORM_ENCLOSURE_TOL)

# Slack used when replacing an irrational value by a rational strictly above.
_UPPER_SLACK = Fraction(1, 16)


def _norm_bound(v: Vector) -> tuple[int, int]:
    """A rational upper bound hi/den on ||v|| at the pipeline's fixed
    tolerance, as integers (hi, den), den > 0.

    It is the upper end of ``scalars._sqrt_bounds``, the enclosure kernel
    of ``sqrt_enclosure``, on the pair <v.pairs, v.pairs> over v.m**2:
    ||v|| itself when it is rational, else the dyadic bound at
    ``NORM_ENCLOSURE_TOL``.  No Surd, interval or Fraction is built.
    """
    k = v.field_k
    a, b = _pair_dot(v.pairs, v.pairs, k)
    _, hi, den = _sqrt_bounds(a, b, v.m * v.m, k, _NORM_J)
    return hi, den


def _rational_in(x: tuple[int, int], d: int, lo: tuple, hi: tuple, k: int) -> tuple[int, int]:
    """x/d itself when rational, else a rational strictly between lo and hi,
    as integers (num, den) with den > 0.

    x is a pair (a, b) over d > 0, and lo < hi are (a, b, d) triples, all
    in Q(sqrt(k)); the rational comes from ``scalars._rational_between``,
    the rounding kernel of ``choose_rational_between``.
    """
    if not x[1]:
        return x[0], d
    return _rational_between(*lo, *hi, k)


@dataclass(frozen=True)
class SeparationTrace:
    """Every intermediate quantity of one separation run, all exact.

    z_tilde      projection of the query point onto X
    y_bar        query point minus projection (nonzero residual)
    d, eps       rational ball d + eps*B inside the barrier cone of X and C = X - z_tilde
    M            rational upper bound for the support of C on that ball, >= 1,
                 read from X and z_tilde (C itself is never built)
    alpha        rescaling (q/3)/M for a rational lower bound q of ||y_bar||^2
    d_bar        alpha * d
    eps_bar      alpha * eps
    delta_hat    rational lower bound of ||y_bar||/3, > 0
    lam          wedge mixing weight in (0, 1], as ``wedge_interior_ball`` returns it
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
    """A rational d and eps > 0 with <d, r> + eps * b/c <= 0 per ray, for
    b/c = ``_norm_bound(r)``, a rational upper bound on ||r||.

    That is a (deliberately stronger, enclosure-friendly) witness that
    the ball d + eps*B lies in the barrier cone of P.  With no rays the
    barrier cone is all of space and (0, 1) is returned.  Otherwise it
    reads P's margin LP (``is_pointed``'s, solved once per set object):
    the largest t with <d, r_i> <= -t over the box ||d||_inf <= 1,
    positive iff the ray cone is pointed.  The LP optimum
    may be irrational, so it is snapped to a rational point close enough
    that a budgeted share of the margin absorbs both the snap and eps;
    the final inequalities are then re-checked exactly.

    It runs on integers.  The margin's rational lower bound t_lo = tn/td
    comes from the rounding kernel and each ray's norm bound b/c from
    ``_norm_bound``; the largest b/c is picked by cross multiplication,
    and eps = t_lo/(2 b/c) is the one Fraction tn*c over 2*td*b.  For
    eps = p/q and a ray's bound b/c, the audit's <d, r> + eps*b/c <= 0,
    times q*c*d.m*r.m > 0, is the sign of the pair
    q*c*<d.pairs, r.pairs> + p*b*d.m*r.m; d is rational, so P's field
    reads it.  A ray outside the ball's cone raises ``SeparationBugError``.
    """
    rays = P.rays
    if not rays:
        return Vector.zero(P.dim), Fraction(1)
    d_star, t_star = P._ray_margin
    if t_star.sign() <= 0:
        raise NotPointedError("ray cone admits no strictly separating direction")
    t = (t_star.a, t_star.b)
    tn, td = _rational_in(t, t_star.d, (*t, 2 * t_star.d), (*t, t_star.d), t_star.k)
    bounds = [_norm_bound(r) for r in rays]
    b, c = bounds[0]
    for hi, h in bounds:
        if hi * c > b * h:
            b, c = hi, h
    eps = Fraction(tn * c, 2 * td * b)
    d = rational_in_ball(d_star, eps)
    p, q = eps.numerator, eps.denominator
    for r, (hi, h) in zip(rays, bounds):
        ta, tb = _pair_dot(d.pairs, r.pairs, P.field_k)
        if _pair_sign((q * h * ta + p * hi * d.m * r.m, q * h * tb), P.field_k) > 0:
            raise SeparationBugError("barrier ball certificate failed its exact audit")
    return d, eps


def bound_support_on_ball(X: VPolyhedron, z: Vector, d: Vector, eps: Fraction) -> Fraction:
    """A rational M >= sup of the support value of C = X - z over the ball
    d + eps*B, M >= 1, read from X and z without building C.

    sup_{u in B} sigma_C(d + eps u) <= sup_{x in C} (<d, x> + eps||x||),
    and the right side is attained at a vertex v - z of C because the
    ball sits in the barrier cone, making the recession slope of the
    integrand nonpositive along every ray (C's rays are X's).  That
    precondition, <d, r> + eps||r|| <= 0 for every ray r, is decided
    exactly as <d, r> <= 0 and eps^2 ||r||^2 <= <d, r>^2; a violation,
    or eps <= 0, rejects the input with ``ValueError``, as do X, z and d
    in two different irrational fields.  Vertex terms are rounded up to
    rationals and clamped below by 1, which only enlarges the bound.
    Raises ``DimensionMismatchError`` when z or d differs from X in
    dimension.

    Everything runs on the vectors' integer pairs.  For eps = p/q, the
    pair t = <d.pairs, r.pairs> and N = <r.pairs, r.pairs>, the two tests
    are the sign of t, that of <d, r>, and the sign of p^2 d.m^2 N - q^2 t^2,
    which is eps^2 ||r||^2 - <d, r>^2 times q^2 d.m^2 r.m^2 > 0.  For a
    vertex v = V/v.m, z = Z/z.m and d = D/d.m, <d, v - z> is the pair
    z.m<D, V> - v.m<D, Z> over d.m*v.m*z.m, with <D, Z> taken once, and
    ||v - z||^2 is <W, W> over (v.m*z.m)^2 for W = z.m*V - v.m*Z
    (``_pair_distance_sq``).  Both go unreduced to the rounding and
    enclosure kernels, which read only their values: <d, v - z> is
    rounded up to xn/xd, and eps times the norm bound hi/h is added, kept
    as the integers (xn*q*h + p*hi*xd) over xd*q*h.  A zero d, which
    ``find_barrier_direction`` returns for every set without rays, has
    <d, v - z> = 0 = 0/1, so <D, Z>, <D, V> and their rounding are
    skipped.  Terms compare by cross multiplication, and the one Fraction
    built is the returned bound.
    """
    if not X.dim == d.dim == z.dim:
        raise DimensionMismatchError("direction or offset dimension does not match the set")
    eps = _positive(eps, "eps")
    k = Surd._k_with(Surd._k_with(d.field_k, X.field_k), z.field_k)
    p, q = eps.numerator, eps.denominator
    D, Z, dm, zm = d.pairs, z.pairs, d.m, z.m
    scale = p * p * dm * dm
    for r in X.rays:
        t = _pair_dot(D, r.pairs, k)
        na, nb = _pair_dot(r.pairs, r.pairs, k)
        ta, tb = _pair_mul(t, t, k)
        gap = (scale * na - q * q * ta, scale * nb - q * q * tb)
        if _pair_sign(t, k) > 0 or _pair_sign(gap, k) > 0:
            raise ValueError("ball d + eps*B is not inside the barrier cone")
    sp, sq = _UPPER_SLACK.numerator, _UPPER_SLACK.denominator
    flat = d.is_zero()
    if not flat:
        za, zb = _pair_dot(D, Z, k)
    top, den = 1, 1
    for v in X.vertices:
        V, vm = v.pairs, v.m
        xn, xd = 0, 1
        if not flat:
            va, vb = _pair_dot(D, V, k)
            a, b = x = (zm * va - vm * za, zm * vb - vm * zb)
            m = dm * vm * zm
            xn, xd = _rational_in(x, m, (a, b, m), (a * sq + sp * m, b * sq, m * sq), k)
        na, nb = _pair_distance_sq(V, vm, Z, zm, k)
        _, hi, h = _sqrt_bounds(na, nb, (vm * zm) ** 2, k, _NORM_J)
        tn, td = xn * q * h + p * hi * xd, xd * q * h
        if tn * den > top * td:
            top, den = tn, td
    return Fraction(top, den)


def compute_wedge_parameters(
    y_bar: Vector, M: Fraction, d: Vector, eps: Fraction
) -> tuple[Fraction, Vector, Fraction, Fraction]:
    """Rescale the barrier ball and fix the wedge radius, all rational.

    alpha = (q/3)/M for a positive rational lower bound q of
    ||y_bar||^2 (equal to it when rational); delta_hat is a positive
    rational lower bound of ||y_bar||/3.  Using lower bounds only
    shrinks the wedge, which preserves every containment the pipeline
    relies on while keeping all downstream arithmetic rational.

    ||y_bar||^2 is the one pair N = <y_bar.pairs, y_bar.pairs> over
    y_bar.m^2.  q comes from the rounding kernel on [3N/4, N] as
    integers, and delta_hat from the enclosure kernel at j = 2, 3, ...
    until its lower end is positive, which is the enclosure at
    tol = 1/4, 1/8, ...  alpha, eps_bar and delta_hat are each one
    Fraction built from integers, and d_bar is d's pairs times alpha's
    numerator over d.m times its denominator (``Vector._make``); written
    as ``alpha * d`` and ``alpha * eps`` they cost ~3% more of a call
    over Q(sqrt 1000003).
    Raises ``DimensionMismatchError`` when y_bar and d differ in
    dimension, and ``ValueError`` for a zero y_bar, M <= 0 or eps <= 0.
    """
    if y_bar.dim != d.dim:
        raise DimensionMismatchError("barrier direction dimension does not match the residual")
    if y_bar.is_zero():
        raise ValueError("residual is zero: the query point lies in the set")
    M = _positive(M, "support bound M")
    eps = _positive(eps, "eps")
    k, m2 = y_bar.field_k, y_bar.m * y_bar.m
    na, nb = n = _pair_dot(y_bar.pairs, y_bar.pairs, k)
    qn, qd = _rational_in(n, m2, (3 * na, 3 * nb, 4 * m2), (na, nb, m2), k)
    alpha = Fraction(qn * M.denominator, 3 * qd * M.numerator)
    P, Q = alpha.numerator, alpha.denominator
    d_bar = Vector._make(Q * d.m, [(P * a, P * b) for a, b in d.pairs], d.field_k)
    eps_bar = Fraction(P * eps.numerator, Q * eps.denominator)
    j = 2
    while True:
        lo, _, den = _sqrt_bounds(na, nb, m2, k, j)
        if lo > 0:
            break
        j += 1
    delta_hat = Fraction(lo, 3 * den)
    return alpha, d_bar, eps_bar, delta_hat


def wedge_interior_ball(
    x0: Vector, d_bar: Vector, eps_bar: Fraction, delta_hat: Fraction
) -> tuple[Fraction, Vector, Fraction]:
    """A ball inside conv({x0} u (d_bar + eps_bar*B)) and x0 + delta_hat*B.

    With lam = min(delta_hat / (hi/h + eps_bar), 1), for a rational upper
    bound hi/h on ||d_bar - x0||, the mixed ball
    (1-lam) x0 + lam (d_bar + eps_bar B) lies in both sets.  Returns
    (lam, center, radius), the radius half the mixed ball's,
    lam * eps_bar / 2 exactly, so that even the doubled ball stays
    inside -- the slack that lets a nearby rational point be taken later
    without leaving the wedge; ``separate``'s trace records this lam.
    The norm bound hi/h is the one ``_norm_bound`` gives, the enclosure
    kernel's on ||d_bar - x0||^2, which ``_pair_distance_sq`` reads off
    the two vectors' pairs over (d_bar.m x0.m)^2 with no difference
    Vector built, so lam is one Fraction of integers,
    delta_hat * h * eps_bar.den over
    (hi * eps_bar.den + eps_bar.num * h) * delta_hat.den, and 1 when
    that numerator is not below the denominator.  For lam =
    P/Q the center is one integer combination of the pairs,
    ((Q - P) d_bar.m x0.pairs + P x0.m d_bar.pairs) over Q x0.m d_bar.m,
    and the radius one Fraction, P eps_bar.num over 2 Q eps_bar.den.
    Raises ``DimensionMismatchError`` when x0 and d_bar differ in
    dimension.
    """
    if x0.dim != d_bar.dim:
        raise DimensionMismatchError("wedge base dimension does not match the residual")
    eps_bar = _positive(eps_bar, "eps_bar")
    delta_hat = _positive(delta_hat, "delta_hat")
    k = Surd._k_with(x0.field_k, d_bar.field_k)
    na, nb = _pair_distance_sq(d_bar.pairs, d_bar.m, x0.pairs, x0.m, k)
    _, hi, h = _sqrt_bounds(na, nb, (d_bar.m * x0.m) ** 2, k, _NORM_J)
    en, ed = eps_bar.numerator, eps_bar.denominator
    num, den = delta_hat.numerator * h * ed, (hi * ed + en * h) * delta_hat.denominator
    lam = Fraction(num, den) if num < den else Fraction(1)
    P, Q = lam.numerator, lam.denominator
    s, t = (Q - P) * d_bar.m, P * x0.m
    center = Vector._make(
        Q * x0.m * d_bar.m,
        [(s * a + t * c, s * b + t * e) for (a, b), (c, e) in zip(x0.pairs, d_bar.pairs)],
        k,
    )
    radius = Fraction(P * en, 2 * Q * ed)
    return lam, center, radius


def separate(X: VPolyhedron, y_tilde: Vector) -> tuple[Certificate, SeparationTrace]:
    """A rational halfspace separating X from the exterior point y_tilde.

    Returns (certificate, trace); the certificate always passes
    ``verify_certificate`` and the trace records every intermediate
    quantity exactly.  Raises NotPointedError / PointInSetError for the
    two rejected inputs, and SeparationBugError if an internal exact
    inequality fails, which would be a bug rather than a data issue.
    Once the input has passed validation, a ``ValueError`` from any later
    step (a ``NotPointedError`` from the barrier step included) is such a
    bug too, and is raised again as SeparationBugError with the fields
    computed so far.  The trace's lam, center and radius are
    ``wedge_interior_ball``'s.
    """
    if X.dim != y_tilde.dim:
        raise DimensionMismatchError("point dimension does not match the set")
    if not is_pointed(X):
        raise NotPointedError("separation requires a pointed set")
    if membership(X, y_tilde):
        raise PointInSetError("point inside set")

    fields: dict = {}
    try:
        fields["z_tilde"] = z_tilde = project(X, y_tilde)
        fields["y_bar"] = y_bar = y_tilde - z_tilde

        d, eps = find_barrier_direction(X)
        fields.update(d=d, eps=eps)
        fields["M"] = M = bound_support_on_ball(X, z_tilde, d, eps)
        alpha, d_bar, eps_bar, delta_hat = compute_wedge_parameters(y_bar, M, d, eps)
        fields.update(alpha=alpha, d_bar=d_bar, eps_bar=eps_bar, delta_hat=delta_hat)
        lam, center, radius = wedge_interior_ball(y_bar, d_bar, eps_bar, delta_hat)
        fields.update(lam=lam, ball_center=center, ball_radius=radius)
        fields["a"] = a = rational_in_ball(center, radius)

        if a.is_zero():
            raise SeparationBugError("wedge produced the zero normal", fields)
        sX = support_value(X, a)
        if not sX.is_finite:
            raise SeparationBugError("wedge normal has infinite support value", fields)
        s = sX.value
        k = Surd._k_with(y_tilde.field_k, s.k)  # a is rational
        ta, tb = _pair_dot(a.pairs, y_tilde.pairs, k)
        m = a.m * y_tilde.m
        if _pair_sign((ta * s.d - s.a * m, tb * s.d - s.b * m), k) <= 0:
            raise SeparationBugError("strict separation inequality failed", fields)
        beta = choose_rational_between(s, Surd._make(ta, tb, m, k))
    except ValueError as exc:
        raise SeparationBugError(
            f"a step after validation raised {type(exc).__name__}: {exc}", fields
        ) from exc
    return Certificate(a, beta), SeparationTrace(**fields, beta=beta)

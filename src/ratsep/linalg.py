"""Exact dense linear algebra and the margin LP over Q(sqrt(k)).

One fraction-free pivot, ``_pivot``, is the only row-reduction step
(Edmonds 1967; Bareiss, Math. Comp. 1968), for rows of integer pairs
of Z[sqrt(k)] and rows of ints alike.  Its callers build their rows
straight from the generators' ``Vector`` pairs, so no Surd is built on
the way in.  The eager pivot on entry p replaces every other row x by
(p*x - f*y) / D, where y is the pivot row, f the entry of x in the pivot
column and D the previous pivot entry; the pivot row stays and p becomes
the new D.  The entries are minors of the input, so each division is
exact in Z[sqrt(k)].

The rows are eager: after each pivot every row is held over the new D,
so its true values are the stored ones over D.  A row with 0 in the
pivot column is rewritten too, as p*x / D; rows each held over a scale
of their own could skip it, but the margin LP keeps its box as bounds,
so such rows are rare (55 of the 8473 rows met by the 2784 pivots of the
720 margin LPs of ``perfbench`` ``separate_rays`` seeds 5-7) and a
second scale per row would buy nothing.  Every division is checked: a
remainder raises ``SeparationBugError``.  Rows over Q may be plain ints
instead of pairs: the pivot combines them as ints and divides them by
``_int_quotients``, with the same checks.

The one kind of linear system the program solves is the Gram system of
a corral of Wolfe's minimum-norm point algorithm in ``sets``, whose span
vectors are linearly independent, so the system is positive definite
and every leading principal minor is positive; ``sets._face_point``
scales its columns so that its rows are pairs with no common
denominator.  ``solve_linear_system`` therefore pivots down the
diagonal, one ``_pivot`` per unknown, with no row search, rank or
consistency handling: a zero pivot, which that algebra rules out,
raises ``SeparationBugError``.  It returns the solution as pairs over
the last pivot entry, and the caller makes each weight once.

The one LP the program solves is the margin LP of ``sets``, the
pointedness test and the barrier step's direction, and
``simplex_max`` solves it and nothing more general: a one-phase simplex
with Bland's rule, built on the same pivot, on a fraction-free
dictionary read straight off the rays' pairs, as in Avis & Fukuda's
reverse-search vertex enumeration (lrs; Discrete Comput. Geom. 8, 1992):
the tableau keeps the nonbasic columns and the right-hand side,
labelled with variable indices, and no slack columns, because the full
tableau holds a unit vector, times D, in every basic column.  Its rows
are plain ints when every ray is rational.  The box ||d||_inf <= 1 is
kept as bounds, not rows (Dantzig's upper-bounding technique,
Econometrica 23, 1955): a variable at its upper bound is held as its
complement, 1 minus it, under the label of the textbook tableau's box
slack, and complementing a row or a column negates it and shifts its
right-hand side, with no division.  The leaving candidates are those of
the textbook tableau with its box rows, ratio for ratio and label for
label, so Bland's rule (Math. Oper. Res. 2, 1977) read on those labels
takes the same path; where the textbook pivot would leave through the
entering variable's own box row, the column is complemented instead, a
bound flip, with no pivot.  Every pivot entry of the simplex is
positive, so D is, and every sign is a true sign, read off integers;
scaling a row by a positive integer changes no sign and no ratio, so
every Bland choice, and with it the pivot sequence and the optimum, is
that of the textbook tableau over the field
(``tests/helpers.surd_margin_lp``).  Problem sizes here are desk scale
(a few dozen variables).
"""

from __future__ import annotations

from math import comb

from .errors import DimensionMismatchError, SeparationBugError
from .scalars import (
    Surd,
    Vector,
    _pair_combination,
    _pair_mul,
    _pair_quotients,
    _pair_reciprocal,
    _pair_sign,
)

__all__ = ["simplex_max", "solve_linear_system"]


def _int_quotients(xs: list[int], d: int) -> list[int]:
    """The quotients x / d for ints x that d divides; a remainder, which
    the pivot's algebra rules out, raises ``SeparationBugError``."""
    if d == 1:
        return xs
    out = []
    for x in xs:
        q, rem = divmod(x, d)
        if rem:
            raise SeparationBugError(f"division by {d} in Z left a remainder")
        out.append(q)
    return out


def _pivot(T, r, c, D, k):
    """Fraction-free pivot of the rows ``T`` on entry (r, c), in place,
    from the current pivot entry ``D``; returns the new one, p.  The rows
    hold integer pairs of Z[sqrt(k)], or plain ints when D is an int.
    Every row x other than r becomes (p*x - f*y) / D, where y is row r
    and f the entry of x in column c, as the module docstring states:
    afterwards every row is held over p.  Pair rows combine by
    ``_pair_combination`` and divide by ``_pair_quotients``, int rows
    divide by ``_int_quotients``; both check every division."""
    prow = T[r]
    p = prow[c]
    ints = type(D) is int
    for i, row in enumerate(T):
        if i != r:
            f = row[c]
            if ints:
                T[i] = _int_quotients([p * x - f * y for x, y in zip(row, prow)], D)
            else:
                T[i] = _pair_quotients(_pair_combination(p, row, f, prow, k), D, k)
    return p


def solve_linear_system(T, k: int) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """(X, D) with x = X / D the one solution of the square system whose
    rows [*row, b] of integer pairs of Z[sqrt(k)] are ``T``, when its
    leading principal minors are all nonzero, as every positive definite
    Gram system's are.

    One ``_pivot`` per diagonal entry, in place and with no row search,
    leaves every row held over the last pivot entry D with D in its own
    diagonal column, so X_i is row i's right-hand side.  A zero pivot, a
    zero leading minor, raises ``SeparationBugError``.
    """
    D = (1, 0)
    for i in range(len(T)):
        if T[i][i] == (0, 0):
            raise SeparationBugError(f"the linear system's leading minor of order {i + 1} is 0")
        D = _pivot(T, i, i, D, k)
    return [row[-1] for row in T], D


def simplex_max(rays) -> tuple[Vector, Surd]:
    """The margin LP of nonzero ``rays`` (``Vector``s of one dimension n):
    (d*, t*) maximizing t subject to <d, r> + t <= 0 per ray and
    ||d||_inf <= 1, with d = p - q and 0 <= p, q <= 1.

    The rays' field is combined by ``Surd._k_with``, the one field rule,
    so rays in two different irrational fields raise ``ValueError``, as
    does an empty list; rays of two dimensions raise
    ``DimensionMismatchError``.

    The dictionary is built straight from each ray's pairs over r.m, in
    the rays' own field: one row [r, -r, m | 0] per ray and the objective
    row [0, ..., 0, 1 | 0], plain ints when every ray is rational and
    integer pairs otherwise.  The box 0 <= p, q <= 1 is kept as bounds
    (Dantzig's upper-bounding technique, Econometrica 23, 1955), not as
    rows.  Labels are those of the textbook tableau with 2n box rows:
    variable j < 2n + 1 is (p, q, t)_j, variable 2n + 1 + i the slack of
    ray row i, and u_j = 1 - x_j, at 2n + 1 + R + j for j < 2n, the
    slack of box row j; x_j and u_j are partners, and t and the ray
    slacks have none.  A column labelled u_j holds x_j at its upper
    bound, a row whose basic variable is u_j holds 1 - x_j.  Swapping a
    label for its partner, complementing, needs no division: a column is
    negated and subtracted from every row's right-hand side, and a row
    is negated, its right-hand side a becoming D - a.  The slack basis
    is feasible from the start (every right-hand side is 0), so one
    phase suffices.

    The dictionary is fraction-free (Avis & Fukuda, Discrete Comput.
    Geom. 8, 1992): one column per nonbasic variable plus the right-hand
    side; ``basis`` and ``nonbasic`` label the rows and columns.  Every
    row is held over D (see the module docstring), and a basic
    variable's column in the full tableau is D times a unit vector, so
    it is not stored.  Bland's rule: the entering column is the nonbasic
    label of smallest index with positive reduced cost.  The leaving
    candidates are the textbook tableau's: each row with a positive
    entry, at its ratio and labelled with its basic variable; each row
    with a negative entry whose basic variable has a partner, at
    (D - a)/(-entry) and labelled with the partner, which sits in a box
    row of the textbook tableau; and the entering column's own partner
    at ratio 1, which sits in its box row with entry 1.  The least ratio
    wins, ties going to the smallest label.  If the column's own partner
    wins, the column is complemented, a bound flip: no pivot, and D does
    not change, as the textbook pivot on an entry 1 leaves it.  If a
    row's partner wins, the row is complemented first.  Complementing
    negates a column of the constraint matrix and shifts the right-hand
    side by an integer column, so every entry is still a minor and every
    division of ``_pivot`` still exact.  Then a pivot on (r, c) is
    ``_pivot`` on the dictionary, objective included, after which column
    c becomes the leaving variable's column of the full tableau: the
    previous D in row r and -f in every other row, where f was that
    row's entry of column c.  Both dictionaries hold the same basis, so
    each row and the objective are the same function of the nonbasic
    variables, and every candidate has the same ratio and label: the
    pivots, bound flips counted as pivots, and the optimum are those of
    the textbook tableau (``tests/helpers.surd_margin_lp``).  Bland's
    rule never repeats a basis, so it takes no more steps, bound flips
    counted, than that tableau's R + 2n rows over R + 4n + 1 variables
    have bases, C(R + 4n + 1, R + 2n); a step past that bound, like a
    missing leaving candidate where the box bounds the LP, is a fault
    and raises ``SeparationBugError``.  So is a repeated basis.  The
    nonbasic labels, which also say which variables sit at their upper
    bound, name the textbook tableau's basis: it is the labels they
    leave out, the basic labels of the dictionary among them.  Each step
    records them as one bitmask, so a fault that makes the walk cycle
    raises at its first repeated basis rather than after the bound,
    which is 2,310,789,600 steps at the parse limits (n = 6 and
    R = 11).  Every pivot entry is positive
    over the previous one, so D stays positive: signs of stored entries
    are true signs, and two ratios, each taken within its own row and so
    free of D, compare by cross-multiplication.  The solution holds each
    x_j over D: T_i for a basic x_j, D - T_i for a basic u_j, D for a
    nonbasic u_j and 0 for any other.
    """
    if not rays:
        raise ValueError("the margin LP needs at least one ray")
    n, k = rays[0].dim, 1
    for r in rays:
        if r.dim != n:
            raise DimensionMismatchError("the margin LP's rays differ in dimension")
        k = Surd._k_with(k, r.field_k)
    nv, m = 2 * n + 1, len(rays)
    box = nv + m  # the label of u_0: x_j and u_j = box + j are partners for j < 2n
    ints = k == 1
    if ints:
        zero, one, neg, sub = 0, 1, int.__neg__, int.__sub__
        T = [[*(a for a, _ in r.pairs), *(-a for a, _ in r.pairs), r.m, 0] for r in rays]
    else:
        zero, one = (0, 0), (1, 0)
        neg, sub = (lambda x: (-x[0], -x[1])), (lambda x, y: (x[0] - y[0], x[1] - y[1]))
        T = [[*r.pairs, *((-a, -b) for a, b in r.pairs), (r.m, 0), zero] for r in rays]
    T.append([zero] * (2 * n) + [one, zero])
    D = one
    basis, nonbasic = list(range(nv, box)), list(range(nv))

    def partner(v):
        return v + box if v < 2 * n else v - box if v >= box else None  # none for t and slacks

    steps = comb(m + 4 * n + 1, m + 2 * n)  # the textbook tableau's bases, each visited once at most
    # bit v is set iff variable v is nonbasic, one int per basis visited
    labels, visited = (1 << nv) - 1, set()
    for step in range(steps):
        if labels in visited:
            raise SeparationBugError(f"the margin LP revisited a basis at step {step}")
        visited.add(labels)
        # the sign of a rational entry is read inline, that of an irrational one by _pair_sign
        enter = None
        for j, x in enumerate(T[-1][:nv]):
            if enter is None or nonbasic[j] < nonbasic[enter]:
                if (x if ints else x[0] if not x[1] else _pair_sign(x, k)) > 0:
                    enter = j
        if enter is None:
            break
        # candidates (a, t, label, row) at ratio a/t; the column's own partner is row -1
        own = partner(nonbasic[enter])
        leave = None if own is None else (one, one, own, -1)
        for i in range(m):
            t, b = T[i][enter], basis[i]
            s = t if ints else t[0] if not t[1] else _pair_sign(t, k)
            if s > 0:
                a = T[i][-1]
            elif s < 0 and (b := partner(b)) is not None:
                a, t = sub(D, T[i][-1]), neg(t)
            else:
                continue
            if leave is not None:
                la, lt, lb, _ = leave
                if ints:
                    cmp = a * lt - la * t
                else:
                    cmp = _pair_sign(sub(_pair_mul(a, lt, k), _pair_mul(la, t, k)), k)
                if cmp > 0 or (cmp == 0 and b > lb):
                    continue
            leave = (a, t, b, i)
        if leave is None:
            raise SeparationBugError("the margin LP found no leaving row, but the box bounds it")
        _, _, label, r = leave
        if r < 0:  # a bound flip: the column's variable is complemented
            for row in T:
                row[-1], row[enter] = sub(row[-1], row[enter]), neg(row[enter])
            labels ^= 1 << nonbasic[enter] | 1 << label
            nonbasic[enter] = label
            continue
        if label != basis[r]:  # the row's basic variable leaves at its upper bound
            T[r] = [*map(neg, T[r][:-1]), sub(D, T[r][-1])]
            basis[r] = label
        column = [neg(row[enter]) for row in T]  # the leaving variable's column after the pivot
        column[r] = D
        D = _pivot(T, r, enter, D, k)
        for row, f in zip(T, column):
            row[enter] = f
        labels ^= 1 << nonbasic[enter] | 1 << basis[r]
        basis[r], nonbasic[enter] = nonbasic[enter], basis[r]
    else:
        raise SeparationBugError(f"the margin LP exceeded its bound of {steps} simplex steps")
    # each x_j over D, then d = p - q and t over the one denominator of 1/D
    x = [D if box + j in nonbasic else zero for j in range(nv)]
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = T[i][-1]
        elif b >= box:
            x[b - box] = sub(D, T[i][-1])
    if ints:
        x, D = [(a, 0) for a in x], (D, 0)
    w, den = _pair_reciprocal(D, k)
    x = [_pair_mul(v, w, k) for v in x]
    d = [(pa - qa, pb - qb) for (pa, pb), (qa, qb) in zip(x[:n], x[n:2 * n])]
    return Vector._make(den, d, k), Surd._make(*x[2 * n], den, k)

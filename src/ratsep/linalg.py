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
720 margin LPs of ``perfbench`` ``separate_rays`` seeds 5-7, re-counted
for the one-pass pivot) and a second scale per row would buy nothing.

Each row is rewritten in one pass, the division folded into it.  Over
an irrational D = c + e*sqrt(k), dividing by D is multiplying by its
conjugate conj(D) = c - e*sqrt(k) and dividing by its norm, the integer
N = c*c - e*e*k, which is nonzero and may be negative.  So conj(D) is
folded into p once per pivot and into f once per row, and every entry
of the new row is (p'*x - f'*y) / N, for p' = p*conj(D) and f' =
f*conj(D): two integer divisions per entry, both parts of the pair.
Over a rational D = (c, 0), N is c, and rows over Q may be plain ints,
combined as ints and divided by the int D.  Every division is checked,
by a unit divisor too: a remainder, which the algebra rules out, raises
``SeparationBugError``.

The one kind of linear system the program solves is the Gram system of
a corral of Wolfe's minimum-norm point algorithm in ``sets``, whose span
vectors are linearly independent, so the system is positive definite
and every leading principal minor is positive; ``sets._face_point``
scales its columns so that its rows are pairs with no common
denominator.  ``solve_linear_system`` therefore pivots down the
diagonal, one ``_pivot`` per unknown, with no row search, rank or
consistency handling, and returns the solution as pairs over the last
pivot entry, so the caller makes each weight once.

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
from .scalars import Surd, Vector, _pair_mul, _pair_reciprocal, _pair_sign

__all__ = ["simplex_max", "solve_linear_system"]


def _pivot(T, r, c, D, k):
    """Fraction-free pivot of the rows ``T`` on entry (r, c), in place,
    from the current pivot entry ``D``; returns the new one, p, over which
    every row is then held.  The rows hold integer pairs of Z[sqrt(k)], or
    plain ints when D is an int.  The update and its one-pass division are
    the module docstring's; a remainder raises ``SeparationBugError``."""
    prow = T[r]
    p = prow[c]
    if type(D) is int:
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                new = []
                for x, y in zip(row, prow):
                    q, rem = divmod(p * x - f * y, D)
                    if rem:
                        raise SeparationBugError(f"division by {D} in Z left a remainder")
                    new.append(q)
                T[i] = new
        return p
    (dc, de), (pa, pb) = D, p
    N = dc
    # without the skips over Q, a 6 x 6 Gram solve of 7-digit ints took 1.12-1.17x (A/A 0.97-1.01)
    if de:  # conj(D) = dc - de*sqrt(k) folded into p, and below into each f
        dek = de * k
        N = dc * dc - de * dek
        pa, pb = pa * dc - pb * dek, pb * dc - pa * de
    pbk = pb * k
    for i, row in enumerate(T):
        if i != r:
            fa, fb = row[c]
            if de:
                fa, fb = fa * dc - fb * dek, fb * dc - fa * de
            fbk = fb * k
            new = []
            for (xa, xb), (ya, yb) in zip(row, prow):
                qa, ra = divmod(pa * xa + pbk * xb - fa * ya - fbk * yb, N)
                qb, rb = divmod(pa * xb + pb * xa - fa * yb - fb * ya, N)
                if ra or rb:
                    raise SeparationBugError(f"division by {D} in Z[sqrt({k})] left a remainder")
                new.append((qa, qb))
            T[i] = new
    return p


def solve_linear_system(T, k: int) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """(X, D) with x = X / D the one solution of the square system whose
    rows [*row, b] of integer pairs of Z[sqrt(k)] are ``T``, solved in
    place down the diagonal when its leading principal minors are all
    nonzero; a zero one raises ``SeparationBugError``.  Every row ends over
    D with D in its own diagonal column, so X_i is row i's right-hand side.
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

    The dictionary of the module docstring has one row [r, -r, m | 0] per
    ray, from its pairs over r.m, and the objective row
    [0, ..., 0, 1 | 0]; ``basis`` and ``nonbasic`` label its rows and
    columns.  Variable j < 2n + 1 is (p, q, t)_j, variable 2n + 1 + i the
    slack of ray row i, and u_j = 1 - x_j, at 2n + 1 + R + j for j < 2n,
    the slack of box row j; x_j and u_j are partners, and t and the ray
    slacks have none, which a list indexed by label, built once, holds
    for the whole walk.  Complementing a column negates it and subtracts
    it from every row's right-hand side; complementing a row negates it,
    its right-hand side a becoming D - a.  Either shifts the right-hand
    side by an integer column, so every entry is still a minor and every
    division of ``_pivot`` exact.  The slack basis is feasible from the
    start (every right-hand side is 0), so one phase suffices.

    The entering column is the nonbasic label of smallest index with
    positive reduced cost.  The leaving candidates are each row with a
    positive entry, at its ratio and labelled with its basic variable;
    each row with a negative entry whose basic variable has a partner,
    at (D - a)/(-entry) and labelled with the partner; and the entering
    column's own partner at ratio 1.  The least ratio wins, ties going
    to the smallest label, and two ratios compare by cross-multiplication.
    If the column's own partner wins, the column is complemented, with no
    pivot and D unchanged, as the textbook pivot on its entry 1 leaves it.
    If a row's partner wins, the row is
    complemented first.  A pivot on (r, c) is ``_pivot`` on the
    dictionary, objective included, after which column c becomes the
    leaving variable's column of the full tableau: the previous D in row
    r and -f in every other row, where f was that row's entry of column c.

    Bland's rule never repeats a basis, so it takes no more steps, bound
    flips counted, than the textbook tableau's R + 2n rows over
    R + 4n + 1 variables have bases, C(R + 4n + 1, R + 2n); a step past
    that bound, a missing leaving candidate where the box bounds the LP,
    or a repeated basis raises ``SeparationBugError``.  The nonbasic
    labels name the textbook tableau's basis, the labels they leave out,
    and each step records them as one bitmask, so a walk that cycles
    raises at its first repeated basis rather than after the bound, which
    is 2,310,789,600 steps at the parse limits (n = 6 and R = 11).  The
    solution holds each x_j over D: T_i for a basic x_j, D - T_i for a
    basic u_j, D for a nonbasic u_j and 0 for any other.
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
    partner = [*range(box, box + 2 * n), *[None] * (1 + m), *range(2 * n)]  # none for t and slacks
    # without the int rows, ab_separate.py read separate_rays margin LP 1.107-1.127 (A/A 0.991-1.005)
    ints = k == 1
    if ints:
        zero, one = 0, 1
        T = [[*(a for a, _ in r.pairs), *(-a for a, _ in r.pairs), r.m, 0] for r in rays]
    else:
        zero, one = (0, 0), (1, 0)
        T = [[*r.pairs, *((-a, -b) for a, b in r.pairs), (r.m, 0), zero] for r in rays]
    T.append([zero] * (2 * n) + [one, zero])
    D = one
    basis, nonbasic = list(range(nv, box)), list(range(nv))
    steps = comb(m + 4 * n + 1, m + 2 * n)  # the textbook tableau's bases, each visited once at most
    # bit v is set iff variable v is nonbasic, one int per basis visited
    labels, visited = (1 << nv) - 1, set()
    for step in range(steps):
        if labels in visited:
            raise SeparationBugError(f"the margin LP revisited a basis at step {step}")
        visited.add(labels)
        # Bland's entering column, the smallest label v with a positive reduced cost (box + 2n
        # exceeds every label); the sign of a rational entry is read inline, that of an
        # irrational one by _pair_sign
        objective, enter, v = T[m], None, box + 2 * n
        for j, u in enumerate(nonbasic):
            if u < v:
                x = objective[j]
                if (x if ints else x[0] if not x[1] else _pair_sign(x, k)) > 0:
                    enter, v = j, u
        if enter is None:
            break
        # the leaving candidate: ratio num/den, its label and its row, -1 for the column's own partner
        num, den, label, r = one, one, partner[v], -1
        for i in range(m):
            row = T[i]
            t = row[enter]
            s = t if ints else t[0] if not t[1] else _pair_sign(t, k)
            if s > 0:
                a, b = row[-1], basis[i]
            elif s < 0 and (b := partner[basis[i]]) is not None:
                a = row[-1]
                a, t = (D - a, -t) if ints else ((D[0] - a[0], D[1] - a[1]), (-t[0], -t[1]))
            else:
                continue
            if label is not None:
                if ints:
                    cmp = a * den - num * t
                else:
                    (x0, x1), (y0, y1) = _pair_mul(a, den, k), _pair_mul(num, t, k)
                    cmp = _pair_sign((x0 - y0, x1 - y1), k)
                if cmp > 0 or (cmp == 0 and b > label):
                    continue
            num, den, label, r = a, t, b, i
        if label is None:
            raise SeparationBugError("the margin LP found no leaving row, but the box bounds it")
        if r < 0:  # a bound flip: the column's variable is complemented
            for row in T:
                x, a = row[enter], row[-1]
                row[enter], row[-1] = (-x, a - x) if ints else ((-x[0], -x[1]), (a[0] - x[0], a[1] - x[1]))
            labels ^= 1 << v | 1 << label
            nonbasic[enter] = label
            continue
        if label != basis[r]:  # the row's basic variable leaves at its upper bound
            a = T[r][-1]
            row = T[r] = [-x for x in T[r]] if ints else [(-x, -y) for x, y in T[r]]
            row[-1] = D - a if ints else (D[0] - a[0], D[1] - a[1])
            basis[r] = label
        # after the pivot, column enter holds the leaving variable's: -f per row, the old D in row r
        column, prev = [row[enter] for row in T], D
        D = _pivot(T, r, enter, D, k)
        for row, f in zip(T, column):
            row[enter] = -f if ints else (-f[0], -f[1])
        T[r][enter] = prev
        labels ^= 1 << v | 1 << basis[r]
        basis[r], nonbasic[enter] = v, basis[r]
    else:
        raise SeparationBugError(f"the margin LP exceeded its bound of {steps} simplex steps")
    # each x_j over D, then d = p - q and t over the one denominator of 1/D
    x = [D if labels >> box + j & 1 else zero for j in range(nv)]
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = T[i][-1]
        elif b >= box:
            a = T[i][-1]
            x[b - box] = D - a if ints else (D[0] - a[0], D[1] - a[1])
    if ints:
        x, D = [(a, 0) for a in x], (D, 0)
    w, den = _pair_reciprocal(D, k)
    x = [_pair_mul(v, w, k) for v in x]
    d = [(pa - qa, pb - qb) for (pa, pb), (qa, qb) in zip(x[:n], x[n:2 * n])]
    return Vector._make(den, d, k), Surd._make(*x[2 * n], den, k)

"""Exact dense linear algebra and linear programming over Q(sqrt(k)).

One fraction-free pivot, ``_pivot``, is the only row-reduction step
(Edmonds 1967; Bareiss, Math. Comp. 1968).  Each row of ints, Fractions
or Surds is scaled once by the lcm of its entries' denominators, so that
every entry lies in Z[sqrt(k)], and is kept there as an integer pair (see
``scalars``); no Surd is built on the way in, and the results are pairs
over a denominator, which is what a ``Surd`` stores.  A pivot on entry p
replaces every other row x by (p*x - f*y) / D, where y is the pivot row,
f the entry of x in the pivot column and D the previous pivot entry; the
pivot row stays and p becomes the new D.  The entries are minors of the
scaled input, so each division is exact in Z[sqrt(k)], and it is
checked: a remainder raises ``SeparationBugError``.  The true tableau is
the stored one over D, and every sign is read off integers.

Elimination built on the pivot solves the small linear systems of the
projection step.  A one-phase simplex with Bland's rule, built on the
same pivot, solves the margin problem of the barrier step on a
fraction-free dictionary, as in Avis & Fukuda's reverse-search vertex
enumeration (lrs; Discrete Comput. Geom. 8, 1992): the tableau keeps the
nonbasic columns and the right-hand side, labelled with variable indices,
and no slack columns, because the full tableau holds D times a unit
vector in every basic column.  Scaling a row by a positive integer
changes no sign and no ratio, so every Bland choice, and with it the
pivot sequence and the optimum, is that of the textbook tableau over the
field.  "Optimal" and "unbounded" are decisions, not estimates.  Problem
sizes here are desk scale (a dozen variables).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Surd, _pair_mul, _pair_quotients, _pair_row, _pair_sign, _pair_surd

__all__ = ["LPResult", "simplex_max", "solve_linear_system"]

_ZERO = Surd._of(0)
_PAIR_ONE = (1, 0)


def _tableau(rows) -> tuple[list[list[tuple[int, int]]], int]:
    """Rows of numbers as rows of integer pairs, each row scaled by a
    positive integer, and the k of the one field of their entries."""
    T = []
    k = 1
    for row in rows:
        _, pairs, row_k = _pair_row(row)
        T.append(pairs)
        k = Surd._k_with(k, row_k)
    return T, k


def _pivot(T, r, c, D, k) -> tuple[int, int]:
    """Fraction-free pivot of the pair rows ``T`` on entry (r, c), in place,
    from the previous pivot entry ``D``; returns the new one, T[r][c]."""
    prow = T[r]
    pa, pb = prow[c]
    for i, row in enumerate(T):
        if i == r:
            continue
        fa, fb = row[c]
        combined = [
            (pa * xa + (pb * xb - fb * yb) * k - fa * ya, pa * xb + pb * xa - fa * yb - fb * ya)
            for (xa, xb), (ya, yb) in zip(row, prow)
        ]
        T[i] = _pair_quotients(combined, D, k)
    return pa, pb


def _eliminate(T, k, ncols) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination of the pair rows ``T`` in
    place over their first ``ncols`` columns; returns the (row, column) of
    each pivot and the last pivot entry D.  Every pivot entry then equals
    D, so the true rows are the stored ones over D."""
    m = len(T)
    pivots = []
    D = _PAIR_ONE
    for col in range(ncols):
        prow = len(pivots)
        if prow == m:
            break
        pr = next((i for i in range(prow, m) if T[i][col] != (0, 0)), None)
        if pr is None:
            continue
        T[prow], T[pr] = T[pr], T[prow]
        D = _pivot(T, prow, col, D, k)
        pivots.append((prow, col))
    return pivots, D


def solve_linear_system(rows, rhs) -> list[Surd]:
    """One exact solution of a consistent linear system (free variables 0).

    Raises ValueError if the system is inconsistent.  Singular but
    consistent systems (e.g. normal equations of a rank-deficient
    design) are fine: non-pivot variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    T, k = _tableau([*row, b] for row, b in zip(rows, rhs))
    pivots, D = _eliminate(T, k, n)
    for i in range(len(pivots), m):
        if T[i][n] != (0, 0):
            raise ValueError("inconsistent linear system")
    x = [_ZERO] * n
    for row, col in pivots:
        x[col] = _pair_surd(T[row][n], k, D)
    return x


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded"
    x: tuple[Surd, ...] = ()
    value: Surd = _ZERO


def simplex_max(c, A_ub=(), b_ub=()) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub and x >= 0, where b_ub >= 0.

    All entries may be int, Fraction or Surd; the returned solution has
    Surd entries.  With b_ub >= 0 the slack basis is feasible from the
    start, so one phase suffices; a negative b_ub entry raises
    ValueError.  Variable j < n is x_j and variable n + i the slack of
    constraint i.  The tableau is a fraction-free dictionary (Avis &
    Fukuda, Discrete Comput. Geom. 8, 1992): one row per constraint and
    one for the objective, each scaled by a positive integer, and one
    column per nonbasic variable plus the right-hand side; ``basis`` and
    ``nonbasic`` label the rows and columns with variables.  A basic
    variable's column in the full tableau is D times a unit vector, so it
    is not stored.  A pivot on (r, c) is ``_pivot`` on the dictionary,
    objective included, and then column c becomes the leaving variable's
    column of the full tableau: the previous D in row r and -f in every
    other row, where f is that row's entry of column c before the pivot.
    So every stored entry is the full tableau's.  Bland's rule: the
    entering column is the nonbasic variable of smallest index with
    positive reduced cost, the leaving row the minimum ratio with the
    smallest basic index, which guarantees termination.  Every pivot
    entry is positive over the previous one, so D stays positive: signs
    of stored entries are true signs, and the ratios T_i/t_i and T_l/t_l
    of two candidate rows compare as T_i*t_l and T_l*t_i.
    """
    n = len(c)
    rows = []
    for arow, b in zip(A_ub, b_ub, strict=True):
        if len(arow) != n:
            raise ValueError("A_ub row length does not match objective")
        rows.append([*arow, b])
    T, k = _tableau(rows)
    for row, b in zip(T, b_ub):
        if _pair_sign(row[-1], k) < 0:
            raise ValueError(f"simplex_max needs b_ub >= 0, got {b}")
    scale, cost, cost_k = _pair_row(c)
    k = Surd._k_with(k, cost_k)
    T.append([*cost, (0, 0)])
    m = len(rows)
    basis = list(range(n, n + m))
    nonbasic = list(range(n))
    D = _PAIR_ONE
    while True:
        positive = (j for j in range(n) if _pair_sign(T[-1][j], k) > 0)
        enter = min(positive, key=nonbasic.__getitem__, default=None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            t = T[i][enter]
            if _pair_sign(t, k) > 0:
                if leave is None:
                    leave = i
                    continue
                best = T[leave]
                cross = _pair_mul(T[i][-1], best[enter], k)
                other = _pair_mul(best[-1], t, k)
                cmp = _pair_sign((cross[0] - other[0], cross[1] - other[1]), k)
                if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return LPResult("unbounded")
        column = [row[enter] for row in T]
        previous, D = D, _pivot(T, leave, enter, D, k)
        for row, (a, b) in zip(T, column):
            row[enter] = (-a, -b)
        T[leave][enter] = previous
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = _pair_surd(T[i][-1], k, D)
    a, b = T[-1][-1]
    return LPResult("optimal", tuple(x), _pair_surd((-a, -b), k, (D[0] * scale, D[1] * scale)))

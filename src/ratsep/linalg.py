"""Exact dense linear algebra and linear programming over Q(sqrt(k)).

One fraction-free pivot, ``_pivot``, is the only row-reduction step
(Edmonds 1967; Bareiss, Math. Comp. 1968).  One intake, ``_tableau``,
reads each row [*row, b] of ints, Fractions or Surds, for the solver and
the simplex alike, and scales it once by the lcm of its entries'
denominators, so that every entry lies in Z[sqrt(k)], and keeps it there
as an integer pair (see ``scalars``); no Surd is built on the way in, a
``Vector`` row enters as the pairs it already stores, and the results
are pairs over a denominator, which is what a ``Surd`` stores.  The
eager pivot on entry p replaces every other row x by (p*x - f*y) / D,
where y is the pivot row, f the entry of x in the pivot column and D the
previous pivot entry; the pivot row stays and p becomes the new D.  The entries are
minors of the scaled input, so each division is exact in Z[sqrt(k)].

The rows are lazy: row i is the eager row scaled by at[i]/D, where
at[i] is the pivot entry current when the row was last written, so its
true values are the stored ones over at[i].  A row with 0 in the pivot
column is not touched, because its true values do not change.  Any
other row x, stored over a = at[i], becomes (p*x - f*y) / a, with y the
pivot row first brought up to D as y*D/at[r]: that is the eager pivot
of the eager row x*D/a, so it is the row the eager pivot holds, and the
division is exact.  Every division is checked: a remainder raises
``SeparationBugError``.  Every scale is positive, so every sign is a
true sign, read off integers.

Elimination built on the pivot solves the small linear systems of the
projection step.  A one-phase simplex with Bland's rule, built on the
same pivot, solves the margin LP of ``sets``, the pointedness test, on a
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
from math import lcm

from .scalars import (
    Surd,
    _pair_mul,
    _pair_quotients,
    _pair_row,
    _pair_sign,
    _pair_surd,
    _surd_parts,
)

__all__ = ["LPResult", "simplex_max", "solve_linear_system"]

_ZERO = Surd(0)
_PAIR_ONE = (1, 0)


def _tableau(rows, rhs) -> tuple[list[list[tuple[int, int]]], int]:
    """Each row [*row, b] of ``rows`` and ``rhs`` as integer pairs, scaled
    by the lcm of its entries' denominators, and the k of the one field of
    all entries.  A ``Vector`` row enters as the pairs it stores, with no
    Surd built."""
    T = []
    k = 1
    for row, b in zip(rows, rhs, strict=True):
        m, pairs, row_k = _pair_row(row)
        ba, bb, db, bk = _surd_parts(b)
        l = lcm(m, db)
        s, t = l // m, l // db
        if s != 1:
            pairs = [(a * s, c * s) for a, c in pairs]
        pairs.append((ba * t, bb * t))
        T.append(pairs)
        k = Surd._k_with(Surd._k_with(k, row_k), bk)
    return T, k


def _pivot(T, at, r, c, D, k) -> tuple[int, int]:
    """Fraction-free pivot of the pair rows ``T`` on entry (r, c), in
    place, from the current pivot entry ``D``; returns the new one, p.
    The rows and their scales ``at`` are lazy, as the module docstring
    states: afterwards every row the pivot wrote, the pivot row included,
    is held over p."""
    prow = T[r]
    if at[r] != D:
        prow = T[r] = _pair_quotients([_pair_mul(y, D, k) for y in prow], at[r], k)
    p = pa, pb = prow[c]
    for i, row in enumerate(T):
        fa, fb = row[c]
        if i == r or not (fa or fb):
            continue
        combined = [
            (pa * xa + (pb * xb - fb * yb) * k - fa * ya, pa * xb + pb * xa - fa * yb - fb * ya)
            for (xa, xb), (ya, yb) in zip(row, prow)
        ]
        T[i] = _pair_quotients(combined, at[i], k)
        at[i] = p
    at[r] = p
    return p


def _eliminate(T, k, ncols) -> list[tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination of the pair rows ``T`` in
    place over their first ``ncols`` columns; returns the (row, column) of
    each pivot.  Each pivot row holds its true values times its own pivot
    entry, and every other row is a multiple of its true values."""
    m = len(T)
    at = [_PAIR_ONE] * m
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
        at[prow], at[pr] = at[pr], at[prow]
        D = _pivot(T, at, prow, col, D, k)
        pivots.append((prow, col))
    return pivots


def solve_linear_system(rows, rhs) -> list[Surd]:
    """One exact solution of a consistent linear system (free variables 0).

    Raises ValueError if the system is inconsistent.  Singular but
    consistent systems (e.g. normal equations of a rank-deficient
    design) are fine: non-pivot variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    T, k = _tableau(rows, rhs)
    pivots = _eliminate(T, k, n)
    for i in range(len(pivots), m):
        if T[i][n] != (0, 0):
            raise ValueError("inconsistent linear system")
    x = [_ZERO] * n
    for row, col in pivots:
        x[col] = _pair_surd(T[row][n], k, T[row][col])
    return x


@dataclass(frozen=True)
class LPResult:
    """The simplex's verdict, "optimal" or "unbounded", and for "optimal"
    an optimal point x; the optimum is c.x at that point."""

    status: str
    x: tuple[Surd, ...] = ()


def simplex_max(c, A_ub=(), b_ub=()) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub and x >= 0, where b_ub >= 0.

    All entries may be int, Fraction or Surd, and a row of A_ub may be a
    ``Vector``, whose pairs are read as they are; the returned solution
    has Surd entries.  With b_ub >= 0 the slack basis is feasible from the
    start, so one phase suffices; a negative b_ub entry raises
    ValueError.  Variable j < n is x_j and variable n + i the slack of
    constraint i.  The tableau is a fraction-free dictionary (Avis &
    Fukuda, Discrete Comput. Geom. 8, 1992): one row per constraint and
    one for the objective [*c, 0], each scaled by a positive integer, and
    one column per nonbasic variable plus the right-hand side; ``basis``
    and ``nonbasic`` label the rows and columns with variables.  A basic
    variable's column in the full tableau is D times a unit vector, so it
    is not stored.  The rows are lazy (see the module docstring).  A
    pivot on (r, c) is ``_pivot`` on the dictionary, objective included,
    and then column c becomes the leaving variable's column of the full
    tableau: the previous D in row r, 0 in every row the pivot left
    alone, and -f*D/a in every row it rewrote, where f was that row's
    entry of column c over a = at[i].  Bland's rule: the entering column
    is the nonbasic variable of smallest index with positive reduced
    cost, the leaving row the minimum ratio with the smallest basic
    index, which guarantees termination.  Every pivot entry is positive
    over the previous one, so D and every at[i] stay positive: signs of
    stored entries are true signs, and the ratios T_i/t_i and T_l/t_l of
    two candidate rows, each taken within its own row and so free of its
    scale, compare as T_i*t_l and T_l*t_i.  The solution reads T_i over
    at[i]; the optimum is c.x there.
    """
    n = len(c)
    b_ub = list(b_ub)
    T, k = _tableau([*A_ub, c], [*b_ub, 0])
    m = len(T) - 1
    if any(len(row) != n + 1 for row in T):
        raise ValueError("A_ub row length does not match objective")
    for row, b in zip(T, b_ub):
        if _pair_sign(row[-1], k) < 0:
            raise ValueError(f"simplex_max needs b_ub >= 0, got {b}")
    at = [_PAIR_ONE] * (m + 1)
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
        column = [(row[enter], a) for row, a in zip(T, at)]
        previous, D = D, _pivot(T, at, leave, enter, D, k)
        for row, ((fa, fb), a) in zip(T, column):
            if fa or fb:
                f = (-fa, -fb)
                row[enter] = f if a == previous else _pair_quotients([_pair_mul(f, previous, k)], a, k)[0]
        T[leave][enter] = previous
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = _pair_surd(T[i][-1], k, at[i])
    return LPResult("optimal", tuple(x))

"""Exact dense linear algebra and linear programming over Q(sqrt(k)).

One Gauss-Jordan pivot, ``_pivot``, is the only row-reduction step.
Elimination built on it solves the small linear systems of the
projection step; a one-phase tableau simplex with Bland's rule, built
on the same pivot, solves the margin problem of the barrier step.
Every pivot is exact field arithmetic, so "optimal" and "unbounded" are
decisions, not estimates.  Problem sizes here are desk scale (a dozen
variables), which the textbook tableau handles comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Surd

__all__ = ["LPResult", "simplex_max", "solve_linear_system"]

_ZERO = Surd._of(0)
_ONE = Surd._of(1)


def _pivot(rows, r, c) -> None:
    """Scale row ``r`` so its entry in column ``c`` is 1, then clear
    column ``c`` from every other row, in place."""
    piv = rows[r][c]
    prow = rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f.sign() != 0:
                rows[i] = [a - f * b for a, b in zip(row, prow)]


def _eliminate(aug, ncols) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of ``aug`` in place over its first
    ``ncols`` columns; returns the (row, column) of each pivot."""
    m = len(aug)
    pivots = []
    for col in range(ncols):
        prow = len(pivots)
        if prow == m:
            break
        pr = next((i for i in range(prow, m) if aug[i][col].sign() != 0), None)
        if pr is None:
            continue
        aug[prow], aug[pr] = aug[pr], aug[prow]
        _pivot(aug, prow, col)
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
    aug = [[Surd._of(v) for v in row] + [Surd._of(b)] for row, b in zip(rows, rhs)]
    pivots = _eliminate(aug, n)
    for i in range(len(pivots), m):
        if aug[i][n].sign() != 0:
            raise ValueError("inconsistent linear system")
    x = [_ZERO] * n
    for row, col in pivots:
        x[col] = aug[row][n]
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
    ValueError.  The objective is the tableau's last row and is reduced
    by the same ``_pivot`` as the constraints.  Bland's rule: the
    entering column is the smallest index with positive reduced cost,
    the leaving row the minimum ratio with the smallest basic index,
    which guarantees termination.
    """
    n = len(c)
    m = len(A_ub)
    T: list[list[Surd]] = []
    for i, (arow, b) in enumerate(zip(A_ub, b_ub, strict=True)):
        if len(arow) != n:
            raise ValueError("A_ub row length does not match objective")
        b = Surd._of(b)
        if b.sign() < 0:
            raise ValueError(f"simplex_max needs b_ub >= 0, got {b}")
        T.append([Surd._of(v) for v in arow] + [_ONE if j == i else _ZERO for j in range(m)] + [b])
    T.append([Surd._of(v) for v in c] + [_ZERO] * (m + 1))
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if T[-1][j].sign() > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            tie = T[i][enter]
            if tie.sign() > 0:
                ratio = T[i][-1] / tie
                if leave is None:
                    leave, best = i, ratio
                else:
                    cmp = (ratio - best).sign()
                    if cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                        leave, best = i, ratio
        if leave is None:
            return LPResult("unbounded")
        _pivot(T, leave, enter)
        basis[leave] = enter
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i][-1]
    return LPResult("optimal", tuple(x), -T[-1][-1])

"""Exact dense linear algebra and linear programming over Q(sqrt(k)).

Gauss-Jordan elimination for the small linear systems of the projection
step and for the rank test of pointedness, and a two-phase tableau
simplex with Bland's rule for the margin problem of the barrier step.
Every pivot is exact field arithmetic, so "feasible", "optimal" and
"unbounded" are decisions, not estimates.
Problem sizes here are desk scale (a dozen variables), which the
textbook tableau handles comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import Surd

__all__ = ["LPResult", "rank", "simplex_max", "solve_linear_system"]

_ZERO = Surd._of(0)
_ONE = Surd._of(1)


def _eliminate(aug, ncols) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of ``aug`` in place over its first
    ``ncols`` columns; returns the (row, column) of each pivot."""
    m = len(aug)
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow == m:
            break
        pr = next((i for i in range(prow, m) if aug[i][col].sign() != 0), None)
        if pr is None:
            continue
        aug[prow], aug[pr] = aug[pr], aug[prow]
        piv = aug[prow][col]
        aug[prow] = [v / piv for v in aug[prow]]
        for i in range(m):
            if i != prow and aug[i][col].sign() != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[prow])]
        pivots.append((prow, col))
        prow += 1
    return pivots


def rank(rows) -> int:
    """The exact rank of a matrix given as a list of rows (0 for no rows)."""
    return len(_eliminate([list(map(Surd._of, row)) for row in rows], len(rows[0]) if rows else 0))


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
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Surd, ...] = ()
    value: Surd = _ZERO


def _pivot(T, basis, obj, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    prow = T[row]
    for i in range(len(T)):
        if i != row:
            f = T[i][col]
            if f.sign() != 0:
                T[i] = [a - f * b for a, b in zip(T[i], prow)]
    f = obj[col]
    if f.sign() != 0:
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[row] = col


def _optimize(T, basis, cvec):
    """Pivot to optimality for max(cvec . x) with Bland's rule.

    The objective row of reduced costs is maintained alongside the
    tableau; entering variable is the smallest index with positive
    reduced cost, leaving is the minimum-ratio row with smallest basic
    index, which guarantees termination.
    """
    m = len(T)
    ncols = len(T[0]) - 1
    obj = [cvec[j] for j in range(ncols)] + [_ZERO]
    for i, bi in enumerate(basis):
        cb = cvec[bi]
        if cb.sign() != 0:
            obj = [o - cb * t for o, t in zip(obj, T[i])]
    while True:
        enter = next((j for j in range(ncols) if obj[j].sign() > 0), None)
        if enter is None:
            return "optimal", obj
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
            return "unbounded", obj
        _pivot(T, basis, obj, leave, enter)


def simplex_max(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    All entries may be int, Fraction or Surd; the returned solution has
    Surd entries.  Two-phase: artificial variables are minimized first,
    then driven out (redundant rows are dropped), then the real
    objective is optimized.
    """
    cc = [Surd._of(v) for v in c]
    n = len(cc)
    m_ub = len(A_ub)
    rows: list[list[Surd]] = []
    rhs: list[Surd] = []
    for i, (arow, b) in enumerate(zip(A_ub, b_ub)):
        if len(arow) != n:
            raise ValueError("A_ub row length does not match objective")
        rows.append([Surd._of(v) for v in arow] + [_ONE if j == i else _ZERO for j in range(m_ub)])
        rhs.append(Surd._of(b))
    for arow, b in zip(A_eq, b_eq):
        if len(arow) != n:
            raise ValueError("A_eq row length does not match objective")
        rows.append([Surd._of(v) for v in arow] + [_ZERO] * m_ub)
        rhs.append(Surd._of(b))
    m = len(rows)
    if m == 0:
        if any(v.sign() > 0 for v in cc):
            return LPResult("unbounded")
        return LPResult("optimal", tuple(_ZERO for _ in range(n)), _ZERO)
    for i in range(m):
        if rhs[i].sign() < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    width = n + m_ub
    basis: list[int] = []
    art_rows: list[int] = []
    for i in range(m):
        if i < m_ub and rows[i][n + i] == 1:
            basis.append(n + i)
        else:
            basis.append(-1)
            art_rows.append(i)
    n_art = len(art_rows)
    T = []
    for i in range(m):
        T.append(rows[i] + [_ZERO] * n_art + [rhs[i]])
    for idx, i in enumerate(art_rows):
        T[i][width + idx] = _ONE
        basis[i] = width + idx

    if n_art:
        cvec1 = [_ZERO] * width + [-_ONE] * n_art
        status, obj = _optimize(T, basis, cvec1)
        # phase 1 is bounded above by zero, so it always terminates optimal
        value = -obj[-1]
        if value.sign() < 0:
            return LPResult("infeasible")
        keep = []
        for i in range(len(T)):
            if basis[i] >= width:
                piv = next((j for j in range(width) if T[i][j].sign() != 0), None)
                if piv is None:
                    continue  # redundant row
                _pivot(T, basis, obj, i, piv)
            keep.append(i)
        T = [T[i][:width] + [T[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
        if not T:
            # every row was redundant: only the nonnegativity cone remains
            if any(v.sign() > 0 for v in cc):
                return LPResult("unbounded")
            return LPResult("optimal", tuple(_ZERO for _ in range(n)), _ZERO)

    cvec2 = cc + [_ZERO] * m_ub
    status, _ = _optimize(T, basis, cvec2)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i][-1]
    value = _ZERO
    for cj, xj in zip(cc, x):
        if cj.sign() != 0:
            value = value + cj * xj
    return LPResult("optimal", tuple(x), value)

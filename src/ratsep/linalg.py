"""Exact dense linear algebra and the margin LP over Q(sqrt(k)).

One fraction-free pivot, ``_pivot``, is the only row-reduction step
(Edmonds 1967; Bareiss, Math. Comp. 1968).  The solver's intake,
``_tableau``, reads each row [*row, b] of ints, Fractions or Surds and
scales it once by the lcm of its entries'
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
true sign, read off integers.  Rows over Q may be plain ints instead of
pairs, and the pivot runs on them the same way, with the same checks.

Elimination built on the pivot solves the small linear systems of the
projection step.  The one LP the program solves is the margin LP of
``sets``, the pointedness test and the barrier step's direction, and
``simplex_max`` solves it and nothing more general: a one-phase simplex
with Bland's rule, built on the same pivot, on a fraction-free
dictionary read straight off the rays' pairs, as in Avis & Fukuda's
reverse-search vertex enumeration (lrs; Discrete Comput. Geom. 8, 1992):
the tableau keeps the nonbasic columns and the right-hand side,
labelled with variable indices, and no slack columns, because the full
tableau holds D times a unit vector in every basic column.  Its rows are
plain ints when every ray is rational.  Scaling a row by a positive
integer changes no sign and no ratio, so every Bland choice, and with it
the pivot sequence and the optimum, is that of the textbook tableau over
the field (``tests/helpers.surd_simplex_max``).  Problem sizes here are
desk scale (a few dozen variables).
"""

from __future__ import annotations

from math import lcm

from .errors import SeparationBugError
from .scalars import (
    Surd,
    Vector,
    _pair_mul,
    _pair_quotients,
    _pair_reciprocal,
    _pair_row,
    _pair_sign,
    _pair_surd,
    _surd_parts,
)

__all__ = ["simplex_max", "solve_linear_system"]

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


def _pivot(T, at, r, c, D, k):
    """Fraction-free pivot of the rows ``T`` on entry (r, c), in place,
    from the current pivot entry ``D``; returns the new one, p.  The rows
    hold integer pairs of Z[sqrt(k)], or plain ints when D is an int.
    The rows and their scales ``at`` are lazy, as the module docstring
    states: afterwards every row the pivot wrote, the pivot row included,
    is held over p."""
    if type(D) is int:
        return _int_pivot(T, at, r, c, D)
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


def _int_pivot(T, at, r, c, D) -> int:
    """``_pivot`` on rows of ints."""
    prow = T[r]
    if at[r] != D:
        prow = T[r] = _int_quotients([y * D for y in prow], at[r])
    p = prow[c]
    for i, row in enumerate(T):
        f = row[c]
        if f and i != r:
            T[i] = _int_quotients([p * x - f * y for x, y in zip(row, prow)], at[i])
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


def simplex_max(rays) -> tuple[Vector, Surd]:
    """The margin LP of nonzero ``rays`` (``Vector``s of one dimension n):
    (d*, t*) maximizing t subject to <d, r> + t <= 0 per ray and
    ||d||_inf <= 1, with d = p - q and 0 <= p, q <= 1.

    The dictionary is built straight from each ray's pairs over r.m, in
    the rays' own field: one row [r, -r, m | 0] per ray, 2n box rows
    [e_j | 1] and the objective row [0, ..., 0, 1 | 0].  Its entries are
    plain ints when every ray is rational and integer pairs otherwise.
    Variable j < 2n + 1 is (p, q, t)_j and variable 2n + 1 + i the slack
    of row i.  The slack basis is feasible from the start (every
    right-hand side is 0 or 1), so one phase suffices, and the box bounds
    the LP, so finding no leaving row raises ``SeparationBugError``.  The
    dictionary is fraction-free (Avis & Fukuda, Discrete Comput. Geom. 8,
    1992): one column per nonbasic variable plus the right-hand side;
    ``basis`` and ``nonbasic`` label the rows and columns with variables.
    A basic variable's column in the full tableau is D times a unit
    vector, so it is not stored.  The rows are lazy (see the module
    docstring).  A pivot on (r, c) is ``_pivot`` on the dictionary,
    objective included, and then column c becomes the leaving variable's
    column of the full tableau: the previous D in row r, 0 in every row
    the pivot left alone, and -f*D/a in every row it rewrote, where f was
    that row's entry of column c over a = at[i].  Bland's rule: the
    entering column is the nonbasic variable of smallest index with
    positive reduced cost, the leaving row the minimum ratio with the
    smallest basic index, which guarantees termination.  Every pivot
    entry is positive over the previous one, so D and every at[i] stay
    positive: signs of stored entries are true signs, and the ratios
    T_i/t_i and T_l/t_l of two candidate rows, each taken within its own
    row and so free of its scale, compare as T_i*t_l and T_l*t_i.  The
    solution reads T_i over at[i], and d* is built over one common
    denominator.
    """
    n = rays[0].dim
    nv = 2 * n + 1
    k = max(r.field_k for r in rays)  # the rays' one field: 1 or their common k
    ints = k == 1
    zero, one = (0, 1) if ints else ((0, 0), (1, 0))
    if ints:
        T = [[*(a for a, _ in r.pairs), *(-a for a, _ in r.pairs), r.m, 0] for r in rays]
    else:
        T = [[*r.pairs, *((-a, -b) for a, b in r.pairs), (r.m, 0), zero] for r in rays]
    T += [[*(one if i == j else zero for i in range(nv)), one] for j in range(2 * n)]
    T.append([zero] * (2 * n) + [one, zero])
    m = len(T) - 1
    at, D = [one] * (m + 1), one
    basis, nonbasic = list(range(nv, nv + m)), list(range(nv))
    while True:
        # the sign of a rational entry is read inline, that of an irrational one by _pair_sign
        enter = None
        for j, x in enumerate(T[-1][:nv]):
            if enter is None or nonbasic[j] < nonbasic[enter]:
                if (x if ints else x[0] if not x[1] else _pair_sign(x, k)) > 0:
                    enter = j
        if enter is None:
            break
        leave = None
        for i in range(m):
            t = T[i][enter]
            if (t if ints else t[0] if not t[1] else _pair_sign(t, k)) <= 0:
                continue
            if leave is not None:
                best = T[leave]
                if ints:
                    cmp = T[i][-1] * best[enter] - best[-1] * t
                else:
                    x, y = _pair_mul(T[i][-1], best[enter], k), _pair_mul(best[-1], t, k)
                    cmp = _pair_sign((x[0] - y[0], x[1] - y[1]), k)
                if cmp > 0 or (cmp == 0 and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise SeparationBugError("the margin LP found no leaving row, but the box bounds it")
        column = [(row[enter], a) for row, a in zip(T, at)]
        previous, D = D, _pivot(T, at, leave, enter, D, k)
        for row, (f, a) in zip(T, column):
            if f != zero:
                if ints:
                    row[enter] = -f if a == previous else _int_quotients([-f * previous], a)[0]
                else:
                    f = (-f[0], -f[1])
                    row[enter] = f if a == previous else _pair_quotients([_pair_mul(f, previous, k)], a, k)[0]
        T[leave][enter] = previous
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    # x_b = T_i / at[i] for basic b, as a pair over a positive integer; d = p - q over their lcm
    x = [((0, 0), 1)] * nv
    for i, b in enumerate(basis):
        if b < nv:
            w, den = _pair_reciprocal((at[i], 0) if ints else at[i], k)
            x[b] = (_pair_mul((T[i][-1], 0) if ints else T[i][-1], w, k), den)
    (ta, tb), dt = x[2 * n]
    M = lcm(*(den for _, den in x[:2 * n]))
    x = [(a * (M // den), b * (M // den)) for (a, b), den in x[:2 * n]]
    d = [(pa - qa, pb - qb) for (pa, pb), (qa, qb) in zip(x[:n], x[n:])]
    return Vector._make(M, d, k), Surd._make(ta, tb, dt, k)

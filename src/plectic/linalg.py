"""Exact linear algebra through one sparse Gauss-Jordan kernel.

Entries may be Fractions, GaussianRationals or RationalExprs.  A matrix of
constant RationalExprs is lowered to their values, eliminated over sparse
rows {col: value} and lifted back; a symbolic right-hand side gets the same
row operations.  Pivots are chosen as in dense textbook elimination, so the
row operations, and the printed form of symbolic results, are the same.
"""
from __future__ import annotations

from functools import reduce
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .scalar import RationalExpr


def _zero_like(x):
    return x - x


def _one_like(x):
    return x / x


def _sparse(matrix: Sequence[Sequence]) -> List[dict]:
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _lower(matrix: Sequence[Sequence]):
    """Sparse rows of ``matrix`` and the lift back to its ring: lowered values
    when every nonzero entry is a constant RationalExpr, else entries and None."""
    rows = _sparse(matrix)
    entries = [v for row in rows for v in row.values()]
    if not entries or not all(type(v) is RationalExpr and v.is_constant for v in entries):
        return rows, None
    dim = entries[0].dim
    return ([{j: v.constant_value() for j, v in row.items()} for row in rows],
            lambda v: RationalExpr.const(dim, v))


def _subtract(row: dict, f, pivot_items) -> None:
    """row -= f * (pivot row), dropping the entries that cancel."""
    for j, w in pivot_items:
        v = row[j] - w * f if j in row else -(w * f)
        if v:
            row[j] = v
        else:
            del row[j]


def _reduce(rows: List[dict], rhs: Optional[List[dict]], ncols: int,
            below_only: bool = False):
    """Gauss-Jordan elimination of sparse rows in place: the one elimination loop.

    Pivot entries leave their rows, which are scaled by their inverses.
    Returns the pivot columns, the pivot entries and the number of row swaps.
    """
    nrows = len(rows)
    pivots: List[int] = []
    scales = []
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if c in rows[i]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            if rhs is not None:
                rhs[r], rhs[p] = rhs[p], rhs[r]
            swaps += 1
        pv = rows[r].pop(c)
        inv = _one_like(pv) / pv
        rows[r] = {j: v * inv for j, v in rows[r].items()}
        prow = list(rows[r].items())
        if rhs is not None:
            rhs[r] = {j: v * inv for j, v in rhs[r].items()}
            prhs = list(rhs[r].items())
        for i in range(r + 1 if below_only else 0, nrows):
            if i != r and c in rows[i]:
                f = rows[i].pop(c)
                _subtract(rows[i], f, prow)
                if rhs is not None:
                    _subtract(rhs[i], f, prhs)
        pivots.append(c)
        scales.append(pv)
        if r + 1 == nrows:
            break
    return pivots, scales, swaps


def eliminate(matrix: Sequence[Sequence], rhs: Optional[Sequence[Sequence]] = None):
    """Row-reduce ``matrix`` (and optional rhs rows) to reduced echelon form.

    Returns (rows, rhs rows, pivot columns), rows as sparse dicts in the
    caller's ring.  Row r holds the r-th reduced row without its leading 1
    at pivots[r]; the rows past len(pivots) are empty.
    """
    a, lift = _lower(matrix)
    b, b_lift = None, None
    if rhs is not None:
        b, b_lift = _lower(rhs) if lift else (_sparse(rhs), None)
    pivots, _, _ = _reduce(a, b, len(matrix[0]) if matrix else 0)
    if lift:
        a = [{j: lift(v) for j, v in row.items()} for row in a]
    if b_lift:
        b = [{j: b_lift(v) for j, v in row.items()} for row in b]
    return a, b, pivots


def rank(matrix: Sequence[Sequence]) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(eliminate(matrix)[2])


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Tuple[Optional[list], list]:
    """Solve A x = b.

    Returns (solution, free_columns); solution is None when inconsistent.
    Free columns are set to zero in the particular solution.
    """
    if not matrix:
        raise ValueError("solve needs at least one equation row")
    _, b, pivots = eliminate(matrix, [[v] for v in rhs])
    if any(b[len(pivots):]):  # a zero row with a nonzero rhs
        return None, []
    sol = [_zero_like(rhs[0])] * len(matrix[0])
    for r, c in enumerate(pivots):
        sol[c] = b[r].get(0, sol[c])
    return sol, [c for c in range(len(sol)) if c not in pivots]


def _first_one(matrix: Sequence[Sequence]):
    """x / x for the first nonzero entry x, or None for a zero matrix."""
    return next((_one_like(v) for row in matrix for v in row if v), None)


def nullspace(matrix: Sequence[Sequence]) -> List[list]:
    """Basis of the kernel of A (columns are the unknowns)."""
    if not matrix or not matrix[0]:
        return []
    a, _, pivots = eliminate(matrix)
    cols = len(matrix[0])
    zero = _zero_like(matrix[0][0])
    one = _first_one(matrix)
    if one is None:
        one = zero + 1  # all-zero matrix over a numeric field
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            if fc in a[r]:
                vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis


def det(matrix: Sequence[Sequence]):
    """Determinant; closed-form for n <= 3, the elimination kernel above."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return matrix[0][0]
    if n == 2:
        a, b = matrix[0]
        c, d = matrix[1]
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rows, lift = _lower(matrix)
    pivots, scales, swaps = _reduce(rows, None, n, below_only=True)
    if len(pivots) < n:
        return _zero_like(matrix[0][0])
    result = -reduce(mul, scales) if swaps % 2 else reduce(mul, scales)
    return lift(result) if lift else result


def mat_inverse(matrix: Sequence[Sequence]) -> Optional[List[list]]:
    """Exact inverse, or None when singular."""
    n = len(matrix)
    zero = _zero_like(matrix[0][0])
    one = _first_one(matrix)
    if one is None:
        return None
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    _, b, pivots = eliminate(matrix, ident)
    if len(pivots) != n:
        return None
    return [[row.get(j, zero) for j in range(n)] for row in b]

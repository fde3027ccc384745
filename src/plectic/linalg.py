"""Small dense linear algebra over an exact field.

Entries may be Fractions, GaussianRationals or RationalExprs; anything with
field arithmetic and truthiness works.  Pivoting picks the first row with a
nonzero entry, which is all these desk-sized exact systems need.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def _zero_like(x):
    return x - x


def _one_like(x):
    return x / x


def eliminate(matrix: Sequence[Sequence], rhs: Optional[Sequence[Sequence]] = None):
    """Row-reduce a copy of ``matrix`` (and optional rhs columns).

    Returns (reduced matrix, reduced rhs, pivot columns list).
    """
    a = [list(row) for row in matrix]
    b = [list(row) for row in rhs] if rhs is not None else None
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for rr in range(r, rows):
            if a[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        if b is not None:
            b[r], b[pivot_row] = b[pivot_row], b[r]
        inv = _one_like(a[r][c]) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        if b is not None:
            b[r] = [v * inv for v in b[r]]
        for rr in range(rows):
            if rr != r and a[rr][c]:
                f = a[rr][c]
                a[rr] = [v - f * w for v, w in zip(a[rr], a[r])]
                if b is not None:
                    b[rr] = [v - f * w for v, w in zip(b[rr], b[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, b, pivots


def rank(matrix: Sequence[Sequence]) -> int:
    if not matrix or not matrix[0]:
        return 0
    _, _, pivots = eliminate(matrix)
    return len(pivots)


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Tuple[Optional[list], list]:
    """Solve A x = b.

    Returns (solution, free_columns); solution is None when inconsistent.
    Free columns are set to zero in the particular solution.
    """
    rows = len(matrix)
    if rows == 0:
        raise ValueError("solve needs at least one equation row")
    cols = len(matrix[0])
    a, b, pivots = eliminate(matrix, [[v] for v in rhs])
    zero = _zero_like(b[0][0]) if rows else None
    # inconsistency: zero row with nonzero rhs
    for r in range(len(pivots), rows):
        if b[r][0]:
            return None, []
    free = [c for c in range(cols) if c not in pivots]
    sol = [zero] * cols
    for r, c in enumerate(pivots):
        acc = b[r][0]
        for fc in free:
            if a[r][fc]:
                acc = acc - a[r][fc] * sol[fc]
        sol[c] = acc
    return sol, free


def nullspace(matrix: Sequence[Sequence]) -> List[list]:
    """Basis of the kernel of A (columns are the unknowns)."""
    rows = len(matrix)
    if rows == 0 or not matrix[0]:
        return []
    a, _, pivots = eliminate(matrix)
    cols = len(matrix[0])
    zero = _zero_like(matrix[0][0])
    one = None
    for row in matrix:
        for v in row:
            if v:
                one = _one_like(v)
                break
        if one is not None:
            break
    if one is None:
        one = zero + 1  # all-zero matrix over a numeric field
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis


def det(matrix: Sequence[Sequence]):
    """Determinant; closed-form for n <= 3, Gaussian elimination above."""
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
    a = [list(row) for row in matrix]
    zero = _zero_like(a[0][0])
    result = None
    sign_flip = False
    for c in range(n):
        pivot_row = None
        for rr in range(c, n):
            if a[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            return zero
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            sign_flip = not sign_flip
        p = a[c][c]
        result = p if result is None else result * p
        inv = _one_like(p) / p
        for rr in range(c + 1, n):
            if a[rr][c]:
                f = a[rr][c] * inv
                a[rr] = [v - f * w for v, w in zip(a[rr], a[c])]
    return -result if sign_flip else result


def mat_inverse(matrix: Sequence[Sequence]) -> Optional[List[list]]:
    """Exact inverse, or None when singular."""
    n = len(matrix)
    zero = _zero_like(matrix[0][0])
    one = None
    for row in matrix:
        for v in row:
            if v:
                one = _one_like(v)
                break
        if one is not None:
            break
    if one is None:
        return None
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    a, b, pivots = eliminate(matrix, ident)
    if len(pivots) != n:
        return None
    return b

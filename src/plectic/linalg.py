"""Exact linear algebra through one sparse Gauss-Jordan kernel.

Entries may be ints, Fractions, GaussianRationals or RationalExprs.  A plain
int is lifted to Fraction on the way in, so no division leaves the exact
rings.  A triangular matrix's ``det`` is the product of its diagonal.  A
matrix of constant RationalExprs is lowered to their values, eliminated over
sparse rows {col: value} and lifted back.  Pivots are chosen as in dense
textbook elimination, so the row operations, and the printed form of
symbolic results, are the same.

``Factored(matrix)`` reduces a matrix once and records its row operations;
``_replay`` applies them to a right-hand side, in the order they were made,
so ``solve(factored, b)`` for many b eliminates the matrix only once.  A
symbolic right-hand side of a lowered matrix gets the lowered factors.

Rows may also come sparse, as dicts {col: entry} with the column count
``ncols``, which a dict row cannot supply; a column no row names is free.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .scalar import RationalExpr


def _field(x):
    """``x``, or its Fraction when it is a plain int (whose ``/`` is float)."""
    return Fraction(x) if type(x) is int else x


def _zero_like(x):
    return _field(x) - x


def _sparse(matrix: Sequence) -> List[dict]:
    return [{j: _field(v) for j, v in (row.items() if type(row) is dict else enumerate(row)) if v}
            for row in matrix]


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


def _reduce(rows: List[dict], ncols: int, below_only: bool = False):
    """Gauss-Jordan elimination of sparse rows in place: the one elimination loop.

    Pivot entries leave their rows, which are scaled by their inverses.
    Returns the pivot columns and the row operations, for the r-th pivot
    (row swapped with row r, pivot entry, its inverse, [(row, factor), ...]).
    """
    nrows = len(rows)
    pivots: List[int] = []
    ops = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if c in rows[i]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r].pop(c)
        inv = 1 / pv
        rows[r] = {j: v * inv for j, v in rows[r].items()}
        prow = list(rows[r].items())
        factors = []
        for i in range(r + 1 if below_only else 0, nrows):
            if i != r and c in rows[i]:
                f = rows[i].pop(c)
                _subtract(rows[i], f, prow)
                factors.append((i, f))
        pivots.append(c)
        ops.append((p, pv, inv, factors))
        if r + 1 == nrows:
            break
    return pivots, ops


class Factored(tuple):
    """A matrix (the tuple of its rows) with one reduction of it kept.

    ``reduced`` holds its reduced rows as ``eliminate`` returns them, but in
    the lowered ring; ``lift`` maps back to the matrix's ring (None when
    nothing was lowered).  ``pivots`` and ``free`` are the pivot and free
    columns and ``ops`` the row operations of ``_reduce``.
    """

    def __new__(cls, matrix: Sequence, ncols: Optional[int] = None):
        self = super().__new__(cls, matrix)
        self.ncols = (len(matrix[0]) if matrix else 0) if ncols is None else ncols
        self.reduced, self.lift = _lower(matrix)
        self.pivots, self.ops = _reduce(self.reduced, self.ncols)
        self.free = [c for c in range(self.ncols) if c not in self.pivots]
        return self

    def _replay(self, rhs: Sequence[Sequence]) -> List[dict]:
        """Sparse rows of ``rhs`` after this reduction's row operations."""
        b, lift = _lower(rhs) if self.lift else (_sparse(rhs), None)
        for r, (p, _pv, inv, factors) in enumerate(self.ops):
            b[r], b[p] = b[p], b[r]
            b[r] = {j: v * inv for j, v in b[r].items()}
            prow = list(b[r].items())
            for i, f in factors:
                _subtract(b[i], f, prow)
        return [{j: lift(v) for j, v in row.items()} for row in b] if lift else b


def eliminate(matrix: Sequence, rhs: Optional[Sequence] = None, ncols: Optional[int] = None):
    """Row-reduce ``matrix`` (and optional rhs rows) to reduced echelon form.

    Returns (rows, rhs rows, pivot columns), rows as sparse dicts in the
    caller's ring.  Row r holds the r-th reduced row without its leading 1
    at pivots[r]; the rows past len(pivots) are empty.
    """
    f = Factored(matrix, ncols)
    a = f.reduced
    if f.lift:
        a = [{j: f.lift(v) for j, v in row.items()} for row in a]
    return a, None if rhs is None else f._replay(rhs), f.pivots


def rank(matrix: Sequence[Sequence]) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(eliminate(matrix)[2])


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Tuple[Optional[list], list]:
    """Solve A x = b; a ``Factored`` A is not reduced again.

    Returns (solution, free_columns); solution is None when inconsistent.
    Free columns are set to zero in the particular solution.  Its zero is
    the first zero entry of ``rhs`` (a caller solving many times passes one
    zero it built once), else ``rhs[0] - rhs[0]``.
    """
    if not matrix:
        raise ValueError("solve needs at least one equation row")
    f = matrix if isinstance(matrix, Factored) else Factored(matrix)
    b = f._replay([[v] for v in rhs])
    if any(b[len(f.pivots):]):  # a zero row with a nonzero rhs
        return None, []
    zero = next((_field(v) for v in rhs if not v), None)
    sol = [_zero_like(rhs[0]) if zero is None else zero] * f.ncols
    for r, c in enumerate(f.pivots):
        sol[c] = b[r].get(0, sol[c])
    return sol, list(f.free)


def nullspace(matrix: Sequence, ncols: Optional[int] = None) -> List[list]:
    """Basis of the kernel of A (columns are the unknowns).

    Rows are sequences, or dicts {col: entry} over ``ncols`` columns (their
    zero entries are dropped); a column that no row names is free.
    """
    if ncols is None:
        if not matrix or not matrix[0]:
            return []
        ncols, zero = len(matrix[0]), _zero_like(matrix[0][0])
    else:
        zero = _zero_like(next((v for row in matrix for v in row.values()), 0))
    a, _, pivots = eliminate(matrix, ncols=ncols)
    one = zero + 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            if fc in a[r]:
                vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis


def det(matrix: Sequence[Sequence]):
    """Determinant: the product of the diagonal of a triangular matrix (every
    shear Jacobian of the mover), else closed forms for n <= 3 or elimination."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if not any(matrix[i][j] for i in range(n) for j in range(i)) or \
            not any(matrix[i][j] for j in range(n) for i in range(j)):
        return reduce(mul, (matrix[i][i] for i in range(n)))
    if n == 2:
        a, b = matrix[0]
        c, d = matrix[1]
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rows, lift = _lower(matrix)
    pivots, ops = _reduce(rows, n, below_only=True)
    if len(pivots) < n:
        return _zero_like(matrix[0][0])
    result = reduce(mul, (pv for _p, pv, _inv, _factors in ops))
    if sum(p != r for r, (p, *_rest) in enumerate(ops)) % 2:
        result = -result
    return lift(result) if lift else result


def mat_inverse(matrix: Sequence[Sequence]) -> Optional[List[list]]:
    """Exact inverse, or None when singular."""
    n = len(matrix)
    zero = _zero_like(matrix[0][0])
    one = zero + 1
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    _, b, pivots = eliminate(matrix, ident)
    if len(pivots) != n:
        return None
    return [[row.get(j, zero) for j in range(n)] for row in b]

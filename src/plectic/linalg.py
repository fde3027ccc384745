"""Exact linear algebra through one sparse Gauss-Jordan kernel.

Entries may be ints, Fractions, GaussianRationals or RationalExprs.  A plain
int is lifted to Fraction on the way in, so no division leaves the exact
rings.  A triangular matrix's ``det`` is the product of its diagonal.  Each
constant RationalExpr entry is lowered to its value, eliminated over sparse
rows {col: value} beside the symbolic entries and lifted back.  A column
index finds each pivot's rows.  Pivots are chosen as in dense textbook
elimination, so the row operations, and the printed form of symbolic
results, are the same.

``Factored(matrix)`` reduces a matrix once and records its row operations;
``_replay`` applies them to a right-hand side, in the order they were made,
so ``solve(factored, b)`` for many b eliminates the matrix only once.

Rows may also come sparse, as dicts {col: entry} with the column count
``ncols``, which a dict row cannot supply; a column no row names is free,
and a row that does not fit the column count is a ValueError.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .scalar import RationalExpr, _constant_coeff


def _field(x):
    """``x``, or its Fraction when it is a plain int (whose ``/`` is float)."""
    return Fraction(x) if type(x) is int else x


def _zero_like(x):
    return _field(x) - x


def _sparse(matrix: Sequence) -> List[dict]:
    return [{j: _field(v) for j, v in (row.items() if type(row) is dict else enumerate(row)) if v}
            for row in matrix]


def _lower(matrix: Sequence[Sequence]):
    """Sparse rows of ``matrix`` with each constant RationalExpr entry lowered
    to its value, and the lift back to its ring, which re-wraps only lowered
    values (None when no entry is a RationalExpr)."""
    rows, dim = _sparse(matrix), None
    for row in rows:
        for j, v in row.items():
            if type(v) is RationalExpr:
                dim, c = v.dim, _constant_coeff(v)
                if c is not None:
                    row[j] = c
    return rows, None if dim is None else (
        lambda v: v if type(v) is RationalExpr else RationalExpr.const(dim, v))


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

    ``index`` maps each column to the rows that name it: the first at or
    below row r is the pivot row, the others are cleared in increasing order.
    Pivot entries leave their rows, which are scaled by their inverses.
    Returns the pivot columns and the row operations, for the r-th pivot
    (row swapped with row r, pivot entry, its inverse, [(row, factor), ...]).
    """
    index = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            index[j].add(i)
    if index and not 0 <= min(index) <= max(index) < ncols:
        raise ValueError(f"a column outside 0..{ncols - 1}")
    nrows = len(rows)
    pivots: List[int] = []
    ops = []
    for c in range(ncols):
        r = len(pivots)
        order = sorted(index.pop(c, ()))
        k = bisect_left(order, r)
        if k == len(order):
            continue
        p = order.pop(k)
        pv = rows[p].pop(c)
        for j in rows[p].keys() ^ rows[r].keys():  # rows p and r swap
            index[j] ^= {p, r}
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / pv
        rows[r] = {j: v * inv for j, v in rows[r].items()}
        prow = list(rows[r].items())
        factors = []
        for i in order[k:] if below_only else order:
            f = rows[i].pop(c)
            _subtract(rows[i], f, prow)
            for j, _w in prow:  # fill-in and cancellations
                (index[j].add if j in rows[i] else index[j].discard)(i)
            factors.append((i, f))
        pivots.append(c)
        ops.append((p, pv, inv, factors))
        if r + 1 == nrows:
            break
    return pivots, ops


class Factored(tuple):
    """A matrix (the tuple of its rows) with one reduction of it kept.

    ``reduced`` holds its reduced rows as ``eliminate`` returns them, but
    with constant entries lowered; ``lift`` maps back to the matrix's ring
    (None when no entry is a RationalExpr).  ``pivots`` and ``free`` are the
    pivot and free columns and ``ops`` the row operations of ``_reduce``.
    """

    def __new__(cls, matrix: Sequence, ncols: Optional[int] = None):
        self = super().__new__(cls, matrix)
        self.ncols = (len(matrix[0]) if matrix else 0) if ncols is None else ncols
        if any(ncols is None if type(row) is dict else len(row) != self.ncols for row in matrix):
            raise ValueError(f"rows must have {self.ncols} entries, or be dicts with ncols")
        self.reduced, self.lift = _lower(matrix)
        self.pivots, self.ops = _reduce(self.reduced, self.ncols)
        self.free = [c for c in range(self.ncols) if c not in self.pivots]
        return self

    def _replay(self, rhs: Sequence[Sequence]) -> List[dict]:
        """Sparse rows of ``rhs`` after this reduction's row operations."""
        b = _sparse(rhs)
        for r, (p, _pv, inv, factors) in enumerate(self.ops):
            b[r], b[p] = b[p], b[r]
            b[r] = {j: v * inv for j, v in b[r].items()}
            prow = list(b[r].items())
            for i, f in factors:
                _subtract(b[i], f, prow)
        return b


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


def rank(matrix: Sequence, ncols: Optional[int] = None) -> int:
    """Rank of A; dict rows need ``ncols``, as for ``nullspace``."""
    return len(eliminate(matrix, ncols=ncols)[2])


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Tuple[Optional[list], list]:
    """Solve A x = b; a ``Factored`` A is not reduced again.

    Returns (solution, free_columns); solution is None when inconsistent.
    Free columns are set to zero in the particular solution.  Its zero is
    the first zero entry of ``rhs`` (a caller solving many times passes one
    zero it built once), else ``rhs[0] - rhs[0]``.  When A has a
    RationalExpr entry, every solution entry is a RationalExpr.
    """
    if not matrix:
        raise ValueError("solve needs at least one equation row")
    f = matrix if isinstance(matrix, Factored) else Factored(matrix)
    if len(rhs) != len(f):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(f)} equation rows")
    b = f._replay([[v] for v in rhs])
    if any(b[len(f.pivots):]):  # a zero row with a nonzero rhs
        return None, []
    zero = next((_field(v) for v in rhs if not v), None)
    sol = [_zero_like(rhs[0]) if zero is None else zero] * f.ncols
    for r, c in enumerate(f.pivots):
        sol[c] = b[r].get(0, sol[c])
    if f.lift:
        sol = [f.lift(v) for v in sol]
    return sol, list(f.free)


def nullspace(matrix: Sequence, ncols: Optional[int] = None) -> List[list]:
    """Basis of the kernel of A (columns are the unknowns).

    Rows are sequences, or dicts {col: entry} over ``ncols`` columns (their
    zero entries are dropped); a column that no row names is free.
    """
    a, _, pivots = eliminate(matrix, ncols=ncols)
    if ncols is None:  # dense rows, as eliminate checked
        ncols = len(matrix[0]) if matrix else 0
    if len(pivots) == ncols:  # no free column
        return []
    zero = _zero_like(next((v for row in matrix
                            for v in (row.values() if type(row) is dict else row)), 0))
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
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("a non-empty square matrix is needed")
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
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("a non-empty square matrix is needed")
    zero = _zero_like(matrix[0][0])
    one = zero + 1
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    _, b, pivots = eliminate(matrix, ident)
    if len(pivots) != n:
        return None
    return [[row.get(j, zero) for j in range(n)] for row in b]

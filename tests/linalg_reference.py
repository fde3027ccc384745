"""The scanning elimination kernel that plectic.linalg replaced by an indexed one.

Kept as the reference for the differential tests.  ``reference_lower``
lowers a matrix all or nothing: to the values of its entries when every
nonzero entry is a constant RationalExpr, else not at all.
``reference_reduce`` looks for each pivot column by scanning rows r..n and
then tests every row for the column.  ``reference_replay`` lowers a
right-hand side whenever the matrix was lowered and it can be.
"""
from fractions import Fraction

from plectic.scalar import RationalExpr


def _field(x):
    return Fraction(x) if type(x) is int else x


def reference_sparse(matrix):
    return [{j: _field(v) for j, v in (row.items() if type(row) is dict else enumerate(row)) if v}
            for row in matrix]


def reference_lower(matrix):
    """Sparse rows of ``matrix`` and the lift back to its ring: lowered values
    when every nonzero entry is a constant RationalExpr, else entries and None."""
    rows = reference_sparse(matrix)
    entries = [v for row in rows for v in row.values()]
    if not entries or not all(type(v) is RationalExpr and v.is_constant for v in entries):
        return rows, None
    dim = entries[0].dim
    return ([{j: v.constant_value() for j, v in row.items()} for row in rows],
            lambda v: RationalExpr.const(dim, v))


def _subtract(row, f, pivot_items):
    for j, w in pivot_items:
        v = row[j] - w * f if j in row else -(w * f)
        if v:
            row[j] = v
        else:
            del row[j]


def reference_reduce(rows, ncols, below_only=False):
    """Gauss-Jordan elimination of sparse rows in place, by scanning.

    Returns the pivot columns and the row operations, for the r-th pivot
    (row swapped with row r, pivot entry, its inverse, [(row, factor), ...]).
    """
    nrows = len(rows)
    pivots = []
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


def reference_replay(ops, matrix_lowered, rhs):
    """Sparse rows of ``rhs`` after the row operations ``ops``; a rhs of a
    lowered matrix is lowered too, when all of it is constant, and lifted back."""
    b, lift = reference_lower(rhs) if matrix_lowered else (reference_sparse(rhs), None)
    for r, (p, _pv, inv, factors) in enumerate(ops):
        b[r], b[p] = b[p], b[r]
        b[r] = {j: v * inv for j, v in b[r].items()}
        prow = list(b[r].items())
        for i, f in factors:
            _subtract(b[i], f, prow)
    return [{j: lift(v) for j, v in row.items()} for row in b] if lift else b


def reference_solve(matrix, rhs):
    """``linalg.solve`` through the scanning kernel: (solution, free columns),
    the solution None when the system is inconsistent."""
    ncols = len(matrix[0])
    rows, lift = reference_lower(matrix)
    pivots, ops = reference_reduce(rows, ncols)
    b = reference_replay(ops, lift is not None, [[v] for v in rhs])
    if any(b[len(pivots):]):
        return None, []
    zero = next((_field(v) for v in rhs if not v), None)
    sol = [_field(rhs[0]) - rhs[0] if zero is None else zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = b[r].get(0, sol[c])
    return sol, [c for c in range(ncols) if c not in pivots]

"""The dense compatibility system that plectic.classify.extract_acs replaced
by sparse rows.

Kept as the reference for the differential tests.  Every equation
i_{A u} i_v w = i_u i_{A v} w, for u = e_i, v = e_j (i <= j) and each basis
(m-2)-form t, is written out as a full row of d*d entries (column k*d + i is
A[k][i]) with ``RationalExpr`` zeros, from the double contractions computed
afresh for every pair; rows with no nonzero entry are dropped.
"""
from plectic.exterior import coordinate_vector, interior
from plectic.scalar import RationalExpr


def reference_rows(w):
    """The dense rows of the compatibility system, in sorted (i, j, t) order."""
    chart = w.chart
    d = chart.dim
    zero = RationalExpr.const(d, 0)
    basis = [coordinate_vector(chart, i) for i in range(1, d + 1)]
    contr = [[interior(basis[k], interior(basis[j], w)) for k in range(d)]
             for j in range(d)]  # contr[j][k] = i_{e_{k+1}} i_{e_{j+1}} w
    tuples = sorted({t for row in contr for f in row for t in f.coeffs})
    rows = []
    for i in range(d):
        for j in range(i, d):
            for t in tuples:
                row = [zero] * (d * d)
                for k in range(d):
                    # + A[k][i] * coeff of i_{e_k} i_{e_j} w
                    c1 = contr[j][k].coeffs.get(t)
                    if c1 is not None:
                        row[k * d + i] = row[k * d + i] + c1
                    # - A[k][j] * coeff of i_{e_i} i_{e_k} w
                    c2 = contr[k][i].coeffs.get(t)
                    if c2 is not None:
                        row[k * d + j] = row[k * d + j] - c2
                if any(row):
                    rows.append(row)
    return rows

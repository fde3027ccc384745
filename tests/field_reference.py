"""The dense vector-field layer that plectic.exterior.vf_bracket,
plectic.classify.EndField.apply and plectic.classify.nijenhuis replaced by
sums over the components present.

Kept as the reference for the differential tests.  Every component of a
bracket or of J.X starts from the constant zero and runs over all d
indices; the Nijenhuis tensor brackets with a coordinate field through a
partial of each component, [e_j, X] = d_j X.
"""
from plectic.errors import DegreeError, NotAlmostComplex
from plectic.exterior import MultiVec
from plectic.scalar import RationalExpr


def reference_bracket(X, Y):
    """[X, Y]^k = sum over i of X^i d_i Y^k - Y^i d_i X^k, densely."""
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError("bracket needs two vector fields")
    dim = X.chart.dim
    out = {}
    for k in range(1, dim + 1):
        acc = RationalExpr.const(dim, 0)
        yk = Y.coeffs.get((k,))
        xk = X.coeffs.get((k,))
        for i in range(1, dim + 1):
            xi = X.coeffs.get((i,))
            yi = Y.coeffs.get((i,))
            if xi is not None and yk is not None:
                acc = acc + xi * yk.partial(i)
            if yi is not None and xk is not None:
                acc = acc - yi * xk.partial(i)
        if acc:
            out[(k,)] = acc
    return MultiVec(X.chart, 1, out)


def reference_apply(J, X):
    """(J.X)^k = sum over i of J[k][i] X^i, densely."""
    d = J.chart.dim
    out = {}
    for k in range(1, d + 1):
        acc = RationalExpr.const(d, 0)
        for i in range(1, d + 1):
            xi = X.coeffs.get((i,))
            if xi is not None:
                acc = acc + J.matrix[k - 1][i - 1] * xi
        if acc:
            out[(k,)] = acc
    return MultiVec(J.chart, 1, out)


def reference_nijenhuis(J):
    """{(i, j): N(e_i, e_j)} over the pairs i < j where it is nonzero."""
    chart = J.chart
    d = chart.dim
    minus_id = J.identity(chart).scale(RationalExpr.const(d, -1))
    if not J.square() == minus_id:
        raise NotAlmostComplex("J^2 != -I")
    cols = [J.column_field(i) for i in range(1, d + 1)]

    def partial_field(X, j):
        out = {}
        for k, c in X.coeffs.items():
            p = c.partial(j)
            if p:
                out[k] = p
        return MultiVec._raw(chart, 1, out)

    values = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            term = reference_bracket(cols[i - 1], cols[j - 1])
            term = term - reference_apply(J, -partial_field(cols[i - 1], j))
            term = term - reference_apply(J, partial_field(cols[j - 1], i))
            if term:
                values[(i, j)] = term
    return values

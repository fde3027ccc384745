"""The projector split that plectic.classify._split replaced by J's
derivation action.

Kept as the reference for the differential tests.  Each summand of a
product-type 3-form w is w(P., P., P.) for the projector P = (1 + J/s)/2 or
(1 - J/s)/2, one ``full_contract`` of w with three columns of P per index
triple.  The derivation action of J is written out from its definition,
(J.w)(v1, .., vk) = sum_m w(v1, .., J v_m, .., vk), with one
``full_contract`` per index tuple and slot.  Neither uses the wedge form
sum_i (row i of J) ^ i_{e_i} w that the library builds.
"""
from fractions import Fraction as Q
from itertools import combinations

from plectic.classify import _tie_break
from plectic.exterior import DiffForm, coordinate_vector, full_contract
from plectic.scalar import RationalExpr
from util import multivec


def reference_split(w, J, s):
    """The two parts w(P., P., P.), P = (1 +- J/s)/2, ordered by ``_tie_break``."""
    chart = w.chart
    d = chart.dim
    one = RationalExpr.const(d, 1)
    half = RationalExpr.const(d, Q(1, 2))
    A = [[v * (one / s) for v in row] for row in J.matrix]
    parts = []
    for sign in (1, -1):
        P = [[((one if k == i else 0) + A[k][i] * sign) * half for i in range(d)]
             for k in range(d)]
        cols = [multivec(chart, 1, {(k + 1,): P[k][i] for k in range(d) if P[k][i]})
                for i in range(d)]
        coeffs = {}
        for idx in combinations(range(1, d + 1), 3):
            val = full_contract(w, [cols[i - 1] for i in idx])
            if val:
                coeffs[idx] = val
        parts.append(DiffForm(chart, 3, coeffs))
    p1, p2 = parts
    assert p1 + p2 == w
    return _tie_break(p1, p2)


def reference_derivation_action(J, w):
    """(J.w)(e_I) = sum over the slots m of w(e_I with J e_{I_m} in slot m)."""
    chart = w.chart
    d = chart.dim
    Jcols = [multivec(chart, 1, {(k + 1,): J.matrix[k][i] for k in range(d)
                                 if J.matrix[k][i]})
             for i in range(d)]
    coeffs = {}
    for idx in combinations(range(1, d + 1), w.degree):
        total = RationalExpr.const(d, 0)
        for m in range(w.degree):
            vectors = [coordinate_vector(chart, i) for i in idx]
            vectors[m] = Jcols[idx[m] - 1]
            total = total + full_contract(w, vectors)
        if total:
            coeffs[idx] = total
    return DiffForm(chart, w.degree, coeffs)

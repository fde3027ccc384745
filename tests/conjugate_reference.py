"""The constant-form path of ``conjugates`` as plectic had it before one reader
took over its conversions.

Kept as the reference for the differential tests:

* ``reference_minor_sums`` expands every minor along its first row, one
  minor at a time, over ``reference_laplace_plan`` (for each increasing
  column tuple K, the triples column k of K, position of the minor on K
  without k, whether the term is subtracted), testing each row entry once
  per minor;
* ``reference_constant_linear_pullback`` reads every coefficient with
  ``constant_value``, clears the form and the matrix by the lcm of their
  denominators and always divides by the scale with ``Fraction(v, scale)``;
* ``reference_classify6`` splits the form into its constant and varying
  coefficients, checks the varying ones for closedness, evaluates them at
  the point, reads every value with ``_as_fraction`` and clears them all.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm

from plectic.classify import (
    COMPLEX,
    DEGENERATE,
    PRODUCT,
    TANGENT,
    TypeReport,
    _rank_at_least_two,
    _trace_sq,
    _volume_times_j,
)
from plectic.errors import NotClosed, ShapeError
from plectic.exterior import DiffForm, ext_d
from plectic.scalar import RationalExpr, ScalarExpr, _as_fraction, _constant_coeff


@lru_cache(maxsize=None)
def reference_laplace_plan(dim, deg):
    position = {K: n for n, K in enumerate(combinations(range(dim), deg - 1))}
    return tuple(tuple((k, position[K[:j] + K[j + 1:]], j % 2 == 1) for j, k in enumerate(K))
                 for K in combinations(range(dim), deg))


def reference_minor_sums(coeffs, M, dim, deg, zero):
    plans = [reference_laplace_plan(dim, n) for n in range(2, deg + 1)]
    sums = [zero] * comb(dim, deg)
    for I, cv in coeffs.items():
        minors = M[I[-1] - 1]
        for i, plan in zip(reversed(I[:-1]), plans):
            row = M[i - 1]
            expanded = []
            for terms in plan:
                acc = zero
                for k, sub, subtract in terms:
                    a = row[k]
                    if a:
                        b = minors[sub]
                        if b:
                            acc = acc - a * b if subtract else acc + a * b
                expanded.append(acc)
            minors = expanded
        for n, m in enumerate(minors):
            if m:
                sums[n] += cv * m
    return {K: v for K, v in zip(combinations(range(1, dim + 1), deg), sums) if v}


def reference_cleared(values):
    E = lcm(*(v.denominator for v in values.values()))
    return E, {idx: v.numerator * (E // v.denominator) if type(v) is Fraction else v * E
               for idx, v in values.items()}


def reference_constant_linear_pullback(a, matrix):
    dim, deg = a.chart.dim, a.degree
    if not deg:
        return a
    D = lcm(*(v.denominator for row in matrix for v in row))
    m = [[v.numerator * (D // v.denominator) for v in row] for row in matrix]
    E, vals = reference_cleared({I: c.constant_value() for I, c in a.coeffs.items()})
    scale = E * D ** deg
    origin = (0,) * dim
    one = ScalarExpr._raw(dim, {origin: Fraction(1)})
    return DiffForm._raw(a.chart, deg, {
        K: RationalExpr._raw(ScalarExpr._raw(dim, {
            origin: Fraction(v, scale) if type(v) is int else v / scale}), one)
        for K, v in reference_minor_sums(vals, m, dim, deg, 0).items()})


def _require_closed_3form_dim6(w):
    if w.chart.dim != 6 or w.degree != 3:
        raise ShapeError("classification needs a 3-form on a 6-dimensional chart")
    for x in (v for c in w.coeffs.values() for p in (c.num, c.den) for v in p.terms.values()):
        _as_fraction(x)
    if ext_d(w):
        raise NotClosed("the form is not closed")


def reference_classify6(w, point):
    constants = {idx: v for idx, c in w.coeffs.items()
                 if (v := _constant_coeff(c)) is not None}
    varying = {idx: c for idx, c in w.coeffs.items() if idx not in constants}
    _require_closed_3form_dim6(DiffForm._raw(w.chart, w.degree, varying))
    pt = w.chart.check_point(point)
    values = {idx: _as_fraction(v) for idx, v in constants.items()}
    values.update((idx, _as_fraction(c.eval(pt))) for idx, c in varying.items())
    _, values = reference_cleared(values)
    gj = _volume_times_j(values, 0)
    tv = _trace_sq(gj, 0)
    if tv > 0:
        linear_type, sign = PRODUCT, "+"
    elif tv < 0:
        linear_type, sign = COMPLEX, "-"
    else:
        linear_type, sign = (TANGENT if _rank_at_least_two(gj) else DEGENERATE), "0"
    return TypeReport(linear_type, sign, points=[list(point)])

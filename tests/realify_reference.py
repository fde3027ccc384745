"""A repeated-multiplication realification of Gaussian polynomials.

Kept as the reference for the differential tests of plectic.mover.realify_step:
it multiplies out (x_{2j-1} + i x_{2j})^e one factor at a time over Q(i) and
hands the result to the validating ScalarExpr constructor, so it is slow but
obviously right.
"""
from fractions import Fraction as Q

from plectic.errors import NonPolynomial
from plectic.scalar import GaussianRational as GR
from plectic.scalar import ScalarExpr


def reference_realify(expr):
    """(Re, Im) of a Gaussian polynomial in z_1..z_n, over R^{2n}."""
    dim2 = 2 * expr.dim
    re_terms: dict = {}
    im_terms: dict = {}
    for exps, c in expr.terms.items():
        c = GR.ensure(c)
        partial = {tuple([Q(0)] * dim2): c}
        for j, e in enumerate(exps):
            if e.denominator != 1 or e < 0:
                raise NonPolynomial("realification needs polynomial exponents")
            for _ in range(e.numerator):
                nxt: dict = {}
                for key, cv in partial.items():
                    kx = list(key)
                    kx[2 * j] += 1
                    nxt[tuple(kx)] = nxt.get(tuple(kx), GR(0)) + cv
                    ky = list(key)
                    ky[2 * j + 1] += 1
                    nxt[tuple(ky)] = nxt.get(tuple(ky), GR(0)) + cv * GR(0, 1)
                partial = nxt
        for key, cv in partial.items():
            if cv.re:
                re_terms[key] = re_terms.get(key, Q(0)) + cv.re
            if cv.im:
                im_terms[key] = im_terms.get(key, Q(0)) + cv.im
    return ScalarExpr(dim2, re_terms), ScalarExpr(dim2, im_terms)

"""Shared generators for the property tests."""
from fractions import Fraction as Q
from itertools import combinations

from plectic import linalg
from plectic.exterior import (
    DiffForm,
    MultiVec,
    SmoothMap,
    coordinate_vector,
    ext_d,
    interior,
    lie_derivative,
    poincare_homotopy,
    sort_index_tuple,
)
from plectic.scalar import RationalExpr, ScalarExpr


def det_minor_sums(coeffs, M, dim, deg, zero):
    """Reference for ``exterior._minor_sums``: each minor is ``linalg.det``
    of its own (I, K) submatrix."""
    out = {}
    for K in combinations(range(1, dim + 1), deg):
        acc = zero
        for I, cv in coeffs.items():
            acc += cv * linalg.det([[M[i - 1][k - 1] for k in K] for i in I])
        if acc:
            out[K] = acc
    return out


def ext_d_all_variables(a):
    """Reference for ``exterior.ext_d``: every coefficient is differentiated
    in every variable outside its index, whether it occurs there or not."""
    out = {}
    for idx, c in a.coeffs.items():
        for i in range(1, a.chart.dim + 1):
            if i in idx:
                continue
            key, sign = sort_index_tuple((i,) + idx)
            dc = c.partial(i) if sign > 0 else -c.partial(i)
            out[key] = out[key] + dc if key in out else dc
    return DiffForm(a.chart, a.degree + 1, out)


def pullback_all_variables(fmap, a):
    """Reference for ``exterior.pullback``: every component is differentiated
    in every source variable, and every coefficient, constant or not, is
    substituted into."""
    src = fmap.source
    comps = list(fmap.components)
    dcomp = [DiffForm(src, 1, {(s,): c.partial(s) for s in range(1, src.dim + 1)})
             for c in comps]
    out = DiffForm(src, a.degree, {})
    for idx, c in a.coeffs.items():
        block = DiffForm(src, 0, {(): c.substitute(comps)})
        for j in idx:
            block = block.wedge(dcomp[j - 1])
        out = out + block
    return out


def rand_fraction(rng, lo=-4, hi=4):
    num = rng.randint(lo, hi)
    den = rng.choice([1, 1, 1, 2, 3])
    return Q(num, den)


def rand_poly(rng, dim, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(dim)] += 1
        c = rand_fraction(rng)
        if c:
            terms[tuple(Q(e) for e in exps)] = terms.get(tuple(Q(e) for e in exps), Q(0)) + c
    return RationalExpr(ScalarExpr(dim, {k: v for k, v in terms.items() if v}))


def rand_rational_gl(rng, n):
    """A seeded invertible n x n matrix of Fractions with denominators 2 to 7."""
    while True:
        M = [[Q(rng.randint(-6, 6), rng.randint(2, 7)) for _ in range(n)] for _ in range(n)]
        if linalg.det(M):
            return M


def linear_map(ch, M):
    """The SmoothMap x -> M x of the chart ch to itself."""
    d = ch.dim
    return SmoothMap(ch, ch, tuple(
        sum((RationalExpr.variable(d, j + 1) * RationalExpr.const(d, M[i][j]) for j in range(d)),
            RationalExpr.const(d, 0))
        for i in range(d)))


def rand_form(rng, chart, degree, max_terms=3):
    tuples = list(combinations(range(1, chart.dim + 1), degree))
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.choice(tuples)] = rand_poly(rng, chart.dim)
    return DiffForm(chart, degree, coeffs)


def rand_vector_field(rng, chart, max_terms=2):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[(rng.randint(1, chart.dim),)] = rand_poly(rng, chart.dim)
    return MultiVec(chart, 1, coeffs)


def linear_symmetry_fields(w):
    """Basis of linear vector fields X = A x with L_X w = 0 (w constant)."""
    chart = w.chart
    d = chart.dim
    elementary = {}
    tuples = set()
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            X = MultiVec(chart, 1, {(i,): RationalExpr.variable(d, j)})
            L = lie_derivative(X, w)
            elementary[(i, j)] = L
            tuples.update(L.coeffs)
    rows = sorted(tuples)
    zero = RationalExpr.const(d, 0)
    matrix = []
    cols = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    for t in rows:
        matrix.append([elementary[c].coeffs.get(t, zero) for c in cols])
    if not matrix:
        basis = [[Q(1) if k == n else Q(0) for n in range(d * d)]
                 for k in range(d * d)]
    else:
        basis = linalg.nullspace(matrix)
    fields = []
    for vec in basis:
        coeffs = {}
        for idx, (i, j) in enumerate(cols):
            v = vec[idx]
            if isinstance(v, RationalExpr):
                if not v.is_constant:
                    continue
                v = v.constant_value()
            if v:
                cur = coeffs.get((i,), RationalExpr.const(d, 0))
                coeffs[(i,)] = cur + RationalExpr.variable(d, j) * RationalExpr.const(d, v)
        if coeffs:
            fields.append(MultiVec(chart, 1, coeffs))
    return fields


class HamiltonianSampler:
    """Random Hamiltonian (n-1)-forms for a constant-coefficient n+1 form.

    Potentials come from symmetry fields (translations and linear fields
    preserving w) via the radial homotopy, plus arbitrary exact forms.
    """

    def __init__(self, w):
        self.w = w
        self.chart = w.chart
        self.n = w.degree - 1
        self.translations = [coordinate_vector(self.chart, i)
                             for i in range(1, self.chart.dim + 1)]
        self.linear = linear_symmetry_fields(w)

    def sample(self, rng):
        fields = []
        for X in self.translations:
            if rng.random() < 0.5:
                fields.append((X, rand_fraction(rng)))
        if self.linear:
            X = rng.choice(self.linear)
            fields.append((X, rand_fraction(rng)))
        alpha = DiffForm(self.chart, self.n - 1, {})
        for X, c in fields:
            if not c:
                continue
            closed = interior(X, self.w)
            alpha = alpha + poincare_homotopy(closed).scale(-c)
        if self.n - 2 >= 0:
            beta = rand_form(rng, self.chart, self.n - 2) if self.n >= 2 else None
            if beta is not None:
                alpha = alpha + ext_d(beta)
        if alpha.is_zero:
            alpha = poincare_homotopy(interior(self.translations[0], self.w)).scale(-1)
        return alpha

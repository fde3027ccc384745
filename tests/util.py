"""Shared generators for the property tests, and the fixtures that only tests
build: named Lie algebras, sample actions, chart helpers and the free-field
section."""
from fractions import Fraction
from itertools import combinations
from typing import List, NamedTuple, Sequence, Tuple

from plectic import linalg
from plectic.exterior import (
    _coerce_coeff,
    Chart,
    DiffForm,
    MultiVec,
    SmoothMap,
    chart,
    coordinate_vector,
    ext_d,
    interior,
    lie_derivative,
    poincare_homotopy,
    sort_index_tuple,
)
from plectic.hdw import MultiphaseModel
from plectic.liesym import CEOperators, KillingReport, LieAction, LieAlgebraData, killing_form
from plectic.scalar import RationalExpr, ScalarExpr

Q = Fraction


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


# ---------------------------------------------------------------------------
# Fixtures that only tests build: named Lie algebras, sample actions, chart
# helpers and the free-field section.
# ---------------------------------------------------------------------------


def multivec(chart: Chart, degree: int, coeffs=None) -> MultiVec:
    return MultiVec(chart, degree, coeffs or {})


def function_form(chart: Chart, expr) -> DiffForm:
    """Degree-0 form from an expression (string, scalar or rational)."""
    return DiffForm(chart, 0, {(): _coerce_coeff(expr, chart.dim)})


def basis_one_form(chart: Chart, index: int) -> DiffForm:
    return DiffForm(chart, 1, {(index,): 1})


def projection(product: Chart, factor: Chart, offset: int) -> SmoothMap:
    """Projection from a product chart onto a factor starting at offset."""
    comps = tuple(
        RationalExpr.variable(product.dim, offset + i)
        for i in range(1, factor.dim + 1)
    )
    return SmoothMap(product, factor, comps)


def product_chart(a: Chart, b: Chart) -> Chart:
    pos = frozenset(a.positive) | frozenset(i + a.dim for i in b.positive)
    return Chart(a.dim + b.dim, pos, a.star_shaped and b.star_shaped)


def so3() -> LieAlgebraData:
    """[e_i, e_j] = epsilon_ijk e_k."""
    d = 3
    c = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    for (i, j, k), s in eps.items():
        c[i][j][k] = Q(s)
    return LieAlgebraData(3, c)


def sl2() -> LieAlgebraData:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    d = 3
    c = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    c[0][1][1] = Q(2)
    c[1][0][1] = Q(-2)
    c[0][2][2] = Q(-2)
    c[2][0][2] = Q(2)
    c[1][2][0] = Q(1)
    c[2][1][0] = Q(-1)
    return LieAlgebraData(3, c)


def abelian(dim: int) -> LieAlgebraData:
    z = tuple(tuple(tuple(Q(0) for _ in range(dim)) for _ in range(dim))
              for _ in range(dim))
    return LieAlgebraData(dim, z)


def translation_action(g: LieAlgebraData, chart_: Chart,
                       indices: Sequence[int]) -> LieAction:
    gens = tuple(coordinate_vector(chart_, i) for i in indices)
    return LieAction(g, gens)


def left_invariant_surrogate(g: LieAlgebraData) -> LieAction:
    """Constant coordinate frame on R^d standing in for the left-invariant
    frame of a group; bracket relations are carried by the algebra."""
    ch = chart(g.dim)
    gens = tuple(coordinate_vector(ch, i) for i in range(1, g.dim + 1))
    return LieAction(g, gens, surrogate=True)


def free_field_section(model: MultiphaseModel,
                       slopes: Sequence[Sequence]) -> Tuple[RationalExpr, SmoothMap]:
    """Free-field Hamiltonian sum (p^mu_a)^2 / 2 with an exact linear solution.

    slopes[a-1][mu-1] = c gives q^a = sum_mu c x^mu and p^mu_a = -c.
    """
    n, N = model.n, model.fiber
    pdim = model.restricted_chart.dim
    ham = RationalExpr.const(pdim, 0)
    for a in range(1, N + 1):
        for mu in range(1, n + 1):
            p = RationalExpr.variable(pdim, model.p_index(mu, a))
            ham = ham + p * p * RationalExpr.const(pdim, Q(1, 2))
    x = [RationalExpr.variable(n, mu) for mu in range(1, n + 1)]
    q = [sum((x[mu] * RationalExpr.const(n, slopes[a][mu]) for mu in range(n)),
             RationalExpr.const(n, 0)) for a in range(N)]
    p = [[RationalExpr.const(n, -Fraction(slopes[a][mu])) for mu in range(n)]
         for a in range(N)]
    return ham, model.section(q, p)


# ---------------------------------------------------------------------------
# invariant observable algebra of a group carried at the algebra level
# ---------------------------------------------------------------------------


class InvariantObservables(NamedTuple):
    """l_2 and l_3 of the left-invariant observable algebra, via Killing."""

    algebra: LieAlgebraData
    killing: KillingReport

    def dual_form(self, x: Sequence) -> Tuple[Fraction, ...]:
        """alpha_x = K(x, .) as a coefficient vector."""
        d = self.algebra.dim
        return tuple(
            self.killing.value(x, [Q(1) if t == j else Q(0) for t in range(d)])
            for j in range(d)
        )

    def hamiltonian_check(self, x: Sequence) -> bool:
        """d_CE(alpha_x) = -i_x omega_e in Lambda^2 g*."""
        d = self.algebra.dim
        alpha = {(j + 1,): v for j, v in enumerate(self.dual_form(x)) if v}
        dalpha = CEOperators(self.algebra).co_differential(alpha, 1)
        for (a, b) in combinations(range(1, d + 1), 2):
            br = self.algebra.basis_bracket(a, b)
            rhs = -self.killing.value(x, br)
            if dalpha.get((a, b), Q(0)) != rhs:
                return False
        return True

    def l2(self, x: Sequence, y: Sequence) -> List[Fraction]:
        """Under the Killing identification, l_2(alpha_x, alpha_y) = alpha_[x,y]."""
        return self.algebra.bracket(x, y)

    def l3(self, x: Sequence, y: Sequence, z: Sequence) -> Fraction:
        return -self.killing.value(x, self.algebra.bracket(y, z))


def invariant_observables(g: LieAlgebraData) -> InvariantObservables:
    return InvariantObservables(g, killing_form(g))

"""Seeded input generators for the benchmark workloads.

The generators live here, not in the test helpers, so that editing a test
cannot change a workload.  Each takes a ``random.Random`` built from the
benchmark's ``--seed``; the same seed gives the same inputs.  They run before
the timed region, so their own calls into plectic are never measured.
"""
from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations
from math import prod

from plectic import exterior, linalg
from plectic.scalar import GaussianRational, RationalExpr, ScalarExpr, parse_expression


def rand_fraction(rng, lo=-4, hi=4):
    return Q(rng.randint(lo, hi), rng.choice([1, 1, 1, 2, 3]))


def rand_nonzero_fraction(rng):
    while True:
        c = rand_fraction(rng)
        if c:
            return c


def rand_poly(rng, dim, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(dim)] += 1
        key = tuple(Q(e) for e in exps)
        c = rand_fraction(rng)
        if c:
            terms[key] = terms.get(key, Q(0)) + c
    return RationalExpr(ScalarExpr(dim, {k: v for k, v in terms.items() if v}))


def rand_form(rng, chart, degree, max_terms=3):
    tuples = list(combinations(range(1, chart.dim + 1), degree))
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.choice(tuples)] = rand_poly(rng, chart.dim)
    return exterior.DiffForm(chart, degree, coeffs)


def linear_symmetry_fields(w):
    """Basis of linear vector fields X = A x with L_X w = 0 (w constant)."""
    chart = w.chart
    d = chart.dim
    elementary = {}
    tuples = set()
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            X = exterior.MultiVec(chart, 1, {(i,): RationalExpr.variable(d, j)})
            L = exterior.lie_derivative(X, w)
            elementary[(i, j)] = L
            tuples.update(L.coeffs)
    zero = RationalExpr.const(d, 0)
    cols = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    matrix = [[elementary[c].coeffs.get(t, zero) for c in cols] for t in sorted(tuples)]
    if matrix:
        basis = linalg.nullspace(matrix)
    else:
        basis = [[Q(1) if k == n else Q(0) for n in range(d * d)] for k in range(d * d)]
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
            fields.append(exterior.MultiVec(chart, 1, coeffs))
    return fields


def pass_scale(p):
    """The factor by which pass p scales its forms.

    Distinct for every pass, so that no pass repeats an earlier pass's form,
    and never 1, whose Fraction fast paths would make one pass cheaper than
    the others.
    """
    return p + 2


def disguise(w, rng, scale, fixed=()):
    """scale * S^* w for a seeded sign flip S of the coordinates outside ``fixed``.

    ``fixed`` must hold every coordinate the coefficients depend on, so that
    the pull-back only changes signs.  A diffeomorphism times a constant
    keeps the linear type, flatness and non-degeneracy, and the cost of every
    operation (the same terms, with entries +-scale).  Returns (form, signs).
    """
    d = w.chart.dim
    signs = [1 if i in fixed else rng.choice((1, -1)) for i in range(1, d + 1)]
    coeffs = {}
    for idx, c in w.coeffs.items():
        if not (c.num.used_vars() | c.den.used_vars()) <= set(fixed):
            raise ValueError(f"coefficient {c} depends on a flipped coordinate")
        coeffs[idx] = c * RationalExpr.const(d, scale * prod(signs[i - 1] for i in idx))
    return exterior.DiffForm(w.chart, w.degree, coeffs), signs


class HamiltonianSampler:
    """Random Hamiltonian (n-1)-forms for a constant-coefficient n+1 form.

    Potentials come from symmetry fields (translations and linear fields
    preserving w) via the radial homotopy, plus arbitrary exact forms, so
    every sample has a Hamiltonian vector field.  ``linear`` passes in the
    linear symmetry fields of w, or of any constant multiple of w (the same
    fields), so that they are solved for once.
    """

    def __init__(self, w, linear=None):
        self.w = w
        self.chart = w.chart
        self.n = w.degree - 1
        self.translations = [exterior.coordinate_vector(self.chart, i)
                             for i in range(1, self.chart.dim + 1)]
        self.linear = linear_symmetry_fields(w) if linear is None else linear

    def sample(self, rng):
        fields = [(X, rand_fraction(rng)) for X in self.translations if rng.random() < 0.5]
        if self.linear:
            fields.append((rng.choice(self.linear), rand_fraction(rng)))
        alpha = exterior.DiffForm(self.chart, self.n - 1, {})
        for X, c in fields:
            if c:
                closed = exterior.interior(X, self.w)
                alpha = alpha + exterior.poincare_homotopy(closed).scale(-c)
        if self.n >= 2:
            alpha = alpha + exterior.ext_d(rand_form(rng, self.chart, self.n - 2))
        if alpha.is_zero:
            first = exterior.interior(self.translations[0], self.w)
            alpha = exterior.poincare_homotopy(first).scale(-1)
        return alpha


def locally_conserved_one_form(rng):
    """A 1-form on R^3 whose Lie derivative along -e2 is closed."""
    coeffs = {}
    for i in (1, 2, 3):
        base = parse_expression(f"{rng.randint(-3, 3)} + {rng.randint(-2, 2)}*x1*x3", 3)
        slope = RationalExpr.const(3, rng.randint(-3, 3))
        coeffs[(i,)] = base + slope * RationalExpr.variable(3, 2)
    return exterior.DiffForm(exterior.chart(3), 1, coeffs)


def invertible_int_matrix(rng, n=6, lo=-2, hi=2):
    """Integer matrix with entries in [lo, hi] and nonzero determinant."""
    while True:
        m = [[Q(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if linalg.det(m):
            return m


def translation_hamiltonian(rng, w, directions):
    """A Hamiltonian 1-form for w whose field is a known translation.

    For each given coordinate direction j, i_{e_j} w is closed (w does not
    depend on x_j), so H = -sum c_j h(i_{e_j} w) with seeded c_j has
    d H = -sum c_j i_{e_j} w and Hamiltonian field sum c_j e_j.
    Returns (H, {j: c_j}).
    """
    field = {j: rand_nonzero_fraction(rng) for j in directions}
    H = exterior.DiffForm(w.chart, w.degree - 2, {})
    for j, c in field.items():
        closed = exterior.interior(exterior.coordinate_vector(w.chart, j), w)
        H = H + exterior.poincare_homotopy(closed).scale(-c)
    return H, field


def single_term_one_form(rng, chart):
    """c * x_a^p dx_b with a != b: d H is one basis 2-form c p x_a^(p-1) dx_a^dx_b."""
    a, b = rng.sample(range(1, chart.dim + 1), 2)
    p = rng.randint(1, 2)
    c = rng.randint(1, 4) * rng.choice([-1, 1])
    coeff = parse_expression(f"{c}*x{a}^{p}", chart.dim)
    return exterior.DiffForm(chart, 1, {(b,): coeff})


def rand_gaussian(rng):
    return GaussianRational(Q(rng.randint(-4, 4), rng.choice([1, 2])),
                            Q(rng.randint(-4, 4), rng.choice([1, 2])))


def rand_points(rng, k, n):
    pts = []
    while len(pts) < k:
        p = tuple(rand_gaussian(rng) for _ in range(n))
        if p not in pts:
            pts.append(p)
    return pts

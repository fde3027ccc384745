"""Hamilton-DeDonder-Weyl solving and canonical multiphase structures.

``ham_vector_field`` solves i_X w = -dH for the unique vector field X (the
``fin1thm`` sign option solves i_X w = (-1)^n dH instead, n = deg w - 1).
The contraction map v -> i_v w of the last few forms w is factored once and
kept, keyed on w by value, so the fields of many Hamiltonians on one form
cost one elimination.
``multiphase_forms`` builds the canonical theta and omega = -d(theta) on the
coordinates (x^1..x^n, q^1..q^N, p^mu_a, p).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    ChartMismatch,
    DegreeError,
    DegenerateForm,
    NotHamiltonian,
    PlecticError,
    ShapeError,
)
from .exterior import (
    _minor_sums,
    _vector_fields,
    Chart,
    DiffForm,
    MultiVec,
    SmoothMap,
    chart,
    contraction_matrix,
    coordinate_vector,
    ext_d,
    interior,
    pushforward_at,
)
from .scalar import RationalExpr

Q = Fraction

SIGN_HDW = "hdw"
SIGN_FIN1 = "fin1thm"


def _rhs_sign(w: DiffForm, sign_convention: str) -> int:
    """The sign s of the right-hand side s dH: -1, or (-1)^n under ``fin1thm``."""
    if sign_convention == SIGN_HDW:
        return -1
    if sign_convention == SIGN_FIN1:
        return -1 if (w.degree - 1) % 2 else 1
    raise ShapeError(f"unknown sign convention {sign_convention!r}")


def plectic_order(w: DiffForm, subject: str) -> int:
    """The n of an (n+1)-form w; every n-plectic construction needs n >= 1."""
    if w.degree < 2:
        raise DegreeError(f"{subject} needs a form of degree >= 2, not {w.degree}")
    return w.degree - 1


@lru_cache(maxsize=8)
def _factored_contraction(w: DiffForm, sign: int):
    """(row tuples, their set, Factored matrix) of v -> sign i_v w: solving
    it for dH solves i_v w = sign dH, so dH is never negated."""
    rows, matrix = contraction_matrix(w if sign > 0 else -w)
    return rows, frozenset(rows), linalg.Factored(matrix)


def ham_vector_field(w: DiffForm, H: DiffForm,
                     sign_convention: str = SIGN_HDW) -> MultiVec:
    """Unique vector field X with i_X w = -dH (w non-degenerate)."""
    if H.chart != w.chart:
        raise ChartMismatch("Hamiltonian form lives on a different chart")
    n = plectic_order(w, "a Hamiltonian vector field")
    if H.degree != n - 1:
        raise DegreeError(
            f"Hamiltonian form must have degree {n - 1}, got {H.degree}"
        )
    chart_ = w.chart
    dim = chart_.dim
    sign = _rhs_sign(w, sign_convention)
    rhs = ext_d(H).coeffs
    rows, row_set, factored = _factored_contraction(w, sign)
    sol, free = None, []
    if row_set.issuperset(rhs):  # else dH has a term no i_v w has
        if not rows:
            raise DegenerateForm("the zero form is degenerate")
        zero = RationalExpr.const(dim, 0)
        sol, free = linalg.solve(factored, [rhs.get(t, zero) for t in rows])
    if sol is None:
        raise NotHamiltonian(
            "the requested form admits no Hamiltonian vector field: "
            "-dH is outside the image of the contraction map"
        )
    if free:
        raise DegenerateForm(
            "contraction map has a kernel; the form is degenerate"
        )
    return _vector_fields(chart_, [sol])[0]


def hdw_residual(w: DiffForm, X: MultiVec, H: DiffForm,
                 sign_convention: str = SIGN_HDW) -> DiffForm:
    """i_X w minus the right-hand side s dH, s from ``_rhs_sign`` (zero on a
    solution)."""
    if X.chart != w.chart or H.chart != w.chart:
        raise ChartMismatch("operands live on different charts")
    n = plectic_order(w, "an HDW residual")
    if X.degree + H.degree != n:
        raise DegreeError(
            f"degrees inconsistent: deg X + deg H = {X.degree + H.degree} != {n}"
        )
    contraction, dH = interior(X, w), ext_d(H)
    return contraction - dH if _rhs_sign(w, sign_convention) > 0 else contraction + dH


# ---------------------------------------------------------------------------
# multiphase models
# ---------------------------------------------------------------------------


class MultiphaseModel(NamedTuple):
    """Canonical forms on the chart (x^mu, q^a, p^mu_a, p)."""

    n: int
    fiber: int
    chart: Chart
    restricted_chart: Chart     # without the final p coordinate
    labels: Tuple[str, ...]
    theta: DiffForm
    omega: DiffForm

    def q_index(self, a: int) -> int:
        return self.n + a

    def p_index(self, mu: int, a: int) -> int:
        return self.n + self.fiber + (a - 1) * self.n + mu

    @property
    def p_total_index(self) -> int:
        return self.chart.dim

    def section(self, q: Sequence, p: Sequence[Sequence]) -> SmoothMap:
        """The section x -> (x, q(x), p(x)) of the base into the restricted
        chart: q[a-1] is q^a and p[a-1][mu-1] is p^mu_a, in x1..xn."""
        base = [RationalExpr.variable(self.n, mu) for mu in range(1, self.n + 1)]
        comps = base + list(q) + [e for row in p for e in row]
        return SmoothMap(chart(self.n), self.restricted_chart, tuple(comps))


def multiphase_dim(n: int, fiber: int) -> int:
    """Dimension of the multiphase chart (x^mu, q^a, p^mu_a, p) for (n, N)."""
    return n + fiber + n * fiber + 1


def multiphase_forms(n: int, fiber: int) -> MultiphaseModel:
    """Canonical theta and omega on the multiphase chart for (n, N)."""
    if n < 1 or fiber < 1:
        raise ShapeError("need n >= 1 and N >= 1")
    dim = multiphase_dim(n, fiber)
    labels = (
        [f"x{mu}" for mu in range(1, n + 1)]
        + [f"q{a}" for a in range(1, fiber + 1)]
        + [f"p{mu}_{a}" for a in range(1, fiber + 1) for mu in range(1, n + 1)]
        + ["p"]
    )
    ch = chart(dim)
    model = MultiphaseModel(n, fiber, ch, chart(dim - 1), tuple(labels), None, None)
    vol_x = DiffForm(ch, n, {tuple(range(1, n + 1)): 1})
    theta = vol_x.scale(RationalExpr.variable(dim, model.p_total_index))
    for a in range(1, fiber + 1):
        dq = DiffForm(ch, 1, {(model.q_index(a),): 1})
        for mu in range(1, n + 1):
            hat = interior(coordinate_vector(ch, mu), vol_x)
            p_mu_a = RationalExpr.variable(dim, model.p_index(mu, a))
            theta = theta + dq.wedge(hat).scale(p_mu_a)
    return model._replace(theta=theta, omega=-ext_d(theta))


def hamilton_volterra_residual(model: MultiphaseModel, hamiltonian: RationalExpr,
                               section: SmoothMap) -> List[RationalExpr]:
    """Residuals of the Hamilton-Volterra equations for a section.

    ``hamiltonian`` lives on the restricted chart (x, q, p^mu_a); the section
    maps the base chart into the restricted chart with identity base
    components.  Output order: one residual per fiber index a
    (dH/dq^a o S - sum_mu d(p^mu_a o S)/dx^mu), then one per (a, mu) pair
    (dH/dp^mu_a o S + d(q^a o S)/dx^mu), a-major.
    """
    n, N = model.n, model.fiber
    pdim = model.restricted_chart.dim
    if hamiltonian.dim != pdim:
        raise ShapeError("Hamiltonian must live on the restricted chart")
    if section.source.dim != n:
        raise ShapeError("section must be defined on the n-dimensional base")
    if section.target.dim != pdim:
        raise ShapeError("section must map into the restricted chart")
    for mu in range(1, n + 1):
        if not (section.components[mu - 1] == RationalExpr.variable(n, mu)):
            raise ShapeError("section base components must be the identity")
    comps = list(section.components)
    residuals: List[RationalExpr] = []
    for a in range(1, N + 1):
        dq = hamiltonian.partial(model.q_index(a)).substitute(comps)
        acc = dq
        for mu in range(1, n + 1):
            p_comp = comps[model.p_index(mu, a) - 1]
            acc = acc - p_comp.partial(mu)
        residuals.append(acc)
    for a in range(1, N + 1):
        q_comp = comps[model.q_index(a) - 1]
        for mu in range(1, n + 1):
            dp = hamiltonian.partial(model.p_index(mu, a)).substitute(comps)
            residuals.append(dp + q_comp.partial(mu))
    return residuals


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


def _curve_operands(psi: SmoothMap, gamma: MultiVec, X: MultiVec) -> None:
    """The operand rules of both curve checks."""
    if gamma.chart != psi.source:
        raise ChartMismatch("gamma must live on the map's source chart")
    if X.chart != psi.target:
        raise ChartMismatch("X must live on the map's target chart")
    if gamma.degree != X.degree:
        raise DegreeError("gamma and X must have equal degrees")


def ham_curve_check(psi: SmoothMap, gamma: MultiVec, X: MultiVec,
                    points: Sequence[Sequence]) -> List[bool]:
    """Pointwise Hamiltonian-curve test: (psi_*)(gamma) = X o psi at samples."""
    _curve_operands(psi, gamma, X)
    out = []
    for p in points:
        pushed = pushforward_at(psi, gamma, p)
        target = X.eval_at(psi.apply(p))
        out.append(pushed == target)
    return out


def ham_curve_check_symbolic(psi: SmoothMap, gamma: MultiVec,
                             X: MultiVec) -> Optional[bool]:
    """Best-effort symbolic curve check; None when composition leaves the ring."""
    _curve_operands(psi, gamma, X)
    zero = RationalExpr.const(psi.source.dim, 0)
    try:
        jac_t = list(zip(*psi.jacobian()))
        pushed = _minor_sums(gamma.coeffs, jac_t, psi.target.dim, gamma.degree, zero)
        comps = list(psi.components)
        return all(pushed.get(K, zero)
                   == (X.coeffs[K].substitute(comps) if K in X.coeffs else zero)
                   for K in sorted(set(pushed) | set(X.coeffs)))
    except PlecticError:
        return None

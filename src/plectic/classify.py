"""Non-degeneracy, dimension-6 classification of closed 3-forms, and
type-specific flatness obstructions.

The classification runs through the endomorphism field J defined by
``(i_v w) ^ w = i_{J(v)} Vol``.  At a point, two numbers read off g*J (g the
volume coefficient) decide the linear type in dimension six: the sign of
trace(J^2) gives product (+) or complex (-) type, and at trace zero the form
is tangent when g*J has rank >= 2 and degenerate when its rank is <= 1 (see
``classify6``).  Flatness is then decided per type: closedness of the
decomposable summands (product type), the Nijenhuis tensor of the normalized
J (complex type), or involutivity of ker J (tangent type).

J (times the volume coefficient) and the contraction map v -> i_v w are each
built by one function from the form's coefficient dict, in whatever ring the
coefficients live in: Python int after clearing denominators at a point,
``RationalExpr`` for symbolic work.  trace(J^2) is summed by one function
over J's rows in the same way, so the pointwise trichotomy stays in Python
int from the coefficients to the verdict; a pointwise split evaluates the
form before it builds J.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    ChartMismatch,
    DegreeError,
    DependentFrame,
    IrrationalScale,
    NotAlmostComplex,
    NotClosed,
    PlecticError,
    ShapeError,
    SingularVolume,
    WrongType,
)
from .exterior import (
    _accumulate,
    _cleared,
    _constant_form,
    _contraction_columns,
    _vector_fields,
    Chart,
    DiffForm,
    MultiVec,
    contraction_matrix,
    coordinate_vector,
    ext_d,
    full_contract,
    interior,
    sort_index_tuple,
    vf_bracket,
)
from .record import Record
from .scalar import RationalExpr, _as_fraction, _constant_coeff

Q = Fraction

PRODUCT = "ProductType"
COMPLEX = "ComplexType"
TANGENT = "TangentType"
DEGENERATE = "Degenerate"
NONCONSTANT = "NonConstant"

FLAT = "Flat"
NONFLAT = "NonFlat"
UNDETERMINED = "Undetermined"


# ---------------------------------------------------------------------------
# sign determination
# ---------------------------------------------------------------------------

_SAMPLE_POOL_POS = [Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3), Q(4)]
_SAMPLE_POOL_ANY = [Q(-3), Q(-2), Q(-1), Q(-1, 2), Q(1, 2), Q(1), Q(2), Q(3)]
_SIGN_SAMPLES = 48  # points drawn when no certificate decides the sign


class SignReport(NamedTuple):
    sign: str               # '+', '-', '0', 'mixed'
    certified: bool
    witnesses: tuple = ()   # up to two (point, value) pairs


def _monomial_sign(expr: RationalExpr, chart: Chart) -> Optional[str]:
    """Sign when the expression is a monomial positive on the chart's orthant."""
    if not (expr.num.is_monomial() and expr.den.is_monomial()):
        return None
    folded = expr.as_scalar()
    ((exps, c),) = folded.terms.items()
    for i, e in enumerate(exps, start=1):
        if e and i not in chart.positive:
            return None
    return "+" if _as_fraction(c) > 0 else "-"


def sign_on_chart(expr: RationalExpr, chart: Chart) -> SignReport:
    """Decide the sign of an expression on the chart.

    Certified for zero, constants, and monomials supported on positive
    variables; otherwise sampled on a deterministic rational grid (two exact
    witnesses of a sign change).  A non-real value raises ShapeError.
    """
    if expr.is_zero:
        return SignReport("0", True)
    mono = _monomial_sign(expr, chart)
    if mono is not None:
        return SignReport(mono, True)
    rng = random.Random(0x5E_ED)
    pos_w = None
    neg_w = None
    for _ in range(_SIGN_SAMPLES):
        point = [
            rng.choice(_SAMPLE_POOL_POS if i in chart.positive else _SAMPLE_POOL_ANY)
            for i in range(1, chart.dim + 1)
        ]
        try:
            v = expr.eval(point)
        except PlecticError:
            continue
        v = _as_fraction(v)
        if v > 0 and pos_w is None:
            pos_w = (tuple(point), v)
        elif v < 0 and neg_w is None:
            neg_w = (tuple(point), v)
        if pos_w and neg_w:
            return SignReport("mixed", True, (pos_w, neg_w))
    if pos_w:
        return SignReport("+", False, (pos_w,))
    if neg_w:
        return SignReport("-", False, (neg_w,))
    return SignReport("0", False)


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------


class NondegeneracyReport(NamedTuple):
    nondegenerate: bool
    kernel: tuple  # basis of the kernel of v -> i_v w, as MultiVecs

    def __bool__(self):
        return self.nondegenerate


def nondegenerate(w: DiffForm, point: Optional[Sequence] = None) -> NondegeneracyReport:
    """Is v -> i_v w injective (exactly, at a point or over the fraction field)?"""
    if w.degree < 2:
        raise DegreeError("non-degeneracy test needs a form of degree >= 2")
    chart = w.chart
    if point is not None:  # evaluate first; a non-real value raises ShapeError
        w = DiffForm(chart, w.degree, {idx: _as_fraction(c.constant_value())
                                       for idx, c in w.eval_at(point).coeffs.items()})
    _rows, matrix = contraction_matrix(w)
    if not matrix:
        kernel_vecs = [coordinate_vector(chart, v) for v in range(1, chart.dim + 1)]
        return NondegeneracyReport(False, tuple(kernel_vecs))
    kernel_vecs = _vector_fields(chart, linalg.nullspace(matrix))
    return NondegeneracyReport(not kernel_vecs, kernel_vecs)


# ---------------------------------------------------------------------------
# the endomorphism field J
# ---------------------------------------------------------------------------


class EndField(Record):
    """An endomorphism field: a dim x dim matrix of expressions, each entry
    coerced to a RationalExpr on the chart."""

    __slots__ = ("chart", "matrix")

    def __init__(self, chart: Chart, rows):
        d = chart.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ShapeError("endomorphism matrix must be square of chart dimension")
        super().__init__(chart, tuple(tuple(RationalExpr._coerce(v, d) for v in row)
                                      for row in rows))

    @classmethod
    def identity(cls, chart: Chart) -> "EndField":
        d = chart.dim
        return cls(chart, [[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def column_field(self, col: int) -> MultiVec:
        return _vector_fields(self.chart, [[row[col - 1] for row in self.matrix]])[0]

    def apply(self, X: MultiVec) -> MultiVec:
        if X.degree != 1:
            raise DegreeError("EndField acts on vector fields")
        out: Dict[Tuple[int], RationalExpr] = {}
        for (i,), xi in sorted(X.coeffs.items()):  # each row sums in increasing i
            for k, row in enumerate(self.matrix, start=1):
                if row[i - 1]:
                    _accumulate(out, (k,), row[i - 1] * xi)
        return MultiVec(self.chart, 1, dict(sorted(out.items())))

    def square(self) -> "EndField":
        # summing only the nonzero products prints the same as the dense sum:
        # adding a zero leaves a RationalExpr's numerator and denominator as
        # they are
        zero = RationalExpr.const(self.chart.dim, 0)
        cols = list(zip(*self.matrix))
        rows = []
        for row in self.matrix:
            out = []
            for col in cols:
                terms = [a * b for a, b in zip(row, col) if a and b]
                out.append(reduce(add, terms) if terms else zero)
            rows.append(tuple(out))
        return EndField(self.chart, tuple(rows))

    def trace(self) -> RationalExpr:
        zero = RationalExpr.const(self.chart.dim, 0)
        return sum((row[i] for i, row in enumerate(self.matrix)), zero)

    def scale(self, c) -> "EndField":
        rows = tuple(tuple(v * c for v in row) for row in self.matrix)
        return EndField(self.chart, rows)

    def __sub__(self, other: "EndField") -> "EndField":
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.matrix, other.matrix)
        )
        return EndField(self.chart, rows)

    def __neg__(self) -> "EndField":
        return self.scale(RationalExpr.const(self.chart.dim, -1))

    def is_multiple_of_identity(self) -> Optional[RationalExpr]:
        """The scalar s with self = s*I, or None."""
        d = self.chart.dim
        s = self.matrix[0][0]
        for i in range(d):
            for j in range(d):
                if i == j:
                    if not (self.matrix[i][j] == s):
                        return None
                elif self.matrix[i][j]:
                    return None
        return s


def standard_volume(chart: Chart) -> DiffForm:
    return DiffForm(chart, chart.dim, {tuple(range(1, chart.dim + 1)): 1})


def _j_plan():
    """``_J_PLAN``: for a pair P, R its sorted complement and s the sign sorting
    P + R, i_{e_v} dx^(P+v) = (-1)^p dx^P (v at place p) and dx^P ^ dx^(R - R[j])
    = (-1)^j s i_{e_R[j]} Vol: c_(P+v) c_(R-R[j]) goes to (R[j] - 1, v - 1)."""
    plan = {}
    for pair in combinations(range(1, 7), 2):
        rest = tuple(k for k in range(1, 7) if k not in pair)
        s = sort_index_tuple(pair + rest)[1]
        wedges = list(zip(combinations(rest, 3), reversed(rest), (-s, s, -s, s)))
        for v in rest:
            p = (v > pair[0]) + (v > pair[1])
            a = pair[:p] + (v,) + pair[p:]
            for b, m, sign in wedges:
                if m == v or a < b:
                    plan.setdefault((a, b) if a < b else (b, a), []).append(
                        (m - 1, v - 1, -sign if p % 2 else sign))
    partners = {}
    for (a, b), cells in plan.items():
        partners.setdefault(a, []).append((b, cells, len(cells) == 1))
    return [(a, sorted(partners[a])) for a in sorted(partners)]


_J_PLAN = _j_plan()


def _volume_times_j(coeffs: Dict[Tuple[int, int, int], object], zero) -> List[list]:
    """Rows of g*J for the 3-form on R^6 with coefficients ``coeffs``, in the
    ring they live in (``zero`` is its zero), g the volume coefficient.  ``_J_PLAN``
    lists, sorted, each a < b whose c_a * c_b enters g*J with its cells (row, column,
    sign): three diagonal ones from each order if a, b are disjoint, else one that
    both orders fill alike (``twice``).  Each product is formed once, in an order
    the form's term order does not change."""
    gj = [[zero] * 6 for _ in range(6)]
    for a, partners in _J_PLAN:
        if ca := coeffs.get(a):
            for b, cells, twice in partners:
                if cb := coeffs.get(b):
                    p = ca * cb * 2 if twice else ca * cb
                    for row, col, sign in cells:
                        gj[row][col] = gj[row][col] + p if sign > 0 else gj[row][col] - p
    return gj


def _trace_sq(rows: Sequence[Sequence], zero):
    """trace(J^2) for the rows of J in any ring (``zero`` is its zero): the
    sum of J[i][k] * J[k][i] over the pairs with both entries nonzero, summed
    row by row like the diagonal of the full square, so it prints the same."""
    total = zero
    for i, row in enumerate(rows):
        acc = zero
        for k, a in enumerate(row):
            if a:
                b = rows[k][i]
                if b:
                    acc += a * b
        total += acc
    return total


def hitchin_endomorphism(w: DiffForm, vol: DiffForm) -> EndField:
    """The unique J with (i_v w) ^ w = i_{J(v)} vol; g*J is divided by g unless g is 1."""
    chart = w.chart
    if chart.dim != 6 or w.degree != 3:
        raise ShapeError("endomorphism extraction needs a 3-form in dimension 6")
    if vol.chart != chart:
        raise ChartMismatch("volume form lives on a different chart")
    if vol.degree != 6 or len(vol.coeffs) != 1:
        raise SingularVolume("volume must be a nonzero top-degree form")
    (g,) = vol.coeffs.values()  # at (1, ..., 6), and nonzero: a form drops zeros
    gj = _volume_times_j(w.coeffs, RationalExpr.const(6, 0))
    if _constant_coeff(g) != 1:
        gj = [[v / g if v else v for v in row] for row in gj]
    J = object.__new__(EndField)  # its entries are RationalExprs on the chart already
    Record.__init__(J, chart, tuple(map(tuple, gj)))
    return J


# ---------------------------------------------------------------------------
# classification and flatness
# ---------------------------------------------------------------------------


class TypeReport(NamedTuple):
    linear_type: str
    trace_sign: str
    flat: str = UNDETERMINED
    witness: object = None
    witness_kind: Optional[str] = None
    points: Sequence = ()
    notes: Sequence = ()


def _require_closed_3form_dim6(w: DiffForm):
    if w.chart.dim != 6 or w.degree != 3:
        raise ShapeError("classification needs a 3-form on a 6-dimensional chart")
    for x in (v for c in w.coeffs.values() for p in (c.num, c.den) for v in p.terms.values()):
        _as_fraction(x)  # a non-real coefficient raises ShapeError
    if w.coeffs and ext_d(w):  # d of the zero form is zero
        raise NotClosed("the form is not closed")


def _rank_at_least_two(rows: Sequence[Sequence[int]]) -> bool:
    """Whether two rows of an int matrix are linearly independent.  With r
    the first nonzero row and r[k] its first nonzero entry, a row s is a
    multiple of r exactly when r[k] * s[j] == s[k] * r[j] for every j."""
    for r in rows:
        for k, a in enumerate(r):
            if a:
                return any(a * s[j] != s[k] * r[j] for s in rows for j in range(len(r)))
    return False


def classify6(w: DiffForm, point: Sequence) -> TypeReport:
    """Linear type of a closed 3-form on a 6-chart at a point.

    A real all-constant form is read in one walk (``_constant_form``) and is
    closed; otherwise each constant coefficient is read once, and only the
    others are checked for closedness and evaluated.  The values are cleared
    of denominators by their lcm D, so J (for the standard volume) is built in
    Python int, scaled by D^2, and trace(J^2) comes out scaled by D^4 > 0.
    The sign of trace(J^2) separates product (+) and complex (-) type.  At
    trace zero, w is tangent exactly when J has rank >= 2: if w is degenerate,
    some v != 0 has i_v w = 0, so w is pulled back from the 5-dimensional
    V/<v>, every (i_u w) ^ w lies in the line of 5-forms of that quotient, and
    J has rank <= 1; a non-degenerate w with trace zero is GL(6)-conjugate to
    ``catalog.tangent6``, whose J has rank 3.
    """
    if (read := _constant_form(w.coeffs)) and all(type(v) is int for v in read[1].values()):
        _require_closed_3form_dim6(DiffForm._raw(w.chart, w.degree, {}))
        w.chart.check_point(point)
    else:
        constants = {idx: v for idx, c in w.coeffs.items()
                     if (v := _constant_coeff(c)) is not None}
        varying = {idx: c for idx, c in w.coeffs.items() if idx not in constants}
        _require_closed_3form_dim6(DiffForm._raw(w.chart, w.degree, varying))
        pt = w.chart.check_point(point)
        values = {idx: _as_fraction(v) for idx, v in constants.items()}
        values.update((idx, _as_fraction(c.eval(pt))) for idx, c in varying.items())
        read = _cleared(values)
    gj = _volume_times_j(read[1], 0)
    tv = _trace_sq(gj, 0)  # trace(J^2) times D^4 > 0: the sign is exact
    if tv > 0:
        linear_type, sign = PRODUCT, "+"
    elif tv < 0:
        linear_type, sign = COMPLEX, "-"
    else:
        linear_type, sign = (TANGENT if _rank_at_least_two(gj) else DEGENERATE), "0"
    return TypeReport(linear_type, sign, points=[list(point)])


def _sqrt_rational_expr(expr: RationalExpr) -> RationalExpr:
    """Exact square root of a monomial quotient, or IrrationalScale."""
    try:
        return RationalExpr(expr.num.monomial_root(2), expr.den.monomial_root(2))
    except PlecticError as exc:
        raise IrrationalScale(f"no exact square root of {expr}: {exc}") from None


def _derivation_action(J: EndField, w: DiffForm) -> DiffForm:
    """u = J.w, J acting as a derivation: (J.w)(v1, .., vk) is
    sum_m w(.., J v_m, ..), that is sum_i (row i of J) ^ i_{e_i} w.  For
    w = alpha + beta of product type on R^6, with s = sqrt(trace(J^2)/6), the
    summands are eigenforms of A = J/s: A.alpha = 3 alpha, A.beta = -3 beta
    (Hitchin, arXiv:math/0010054), so u = 3s (alpha - beta)."""
    chart = w.chart
    u = DiffForm._raw(chart, w.degree, {})
    for row, col in zip(J.matrix, _contraction_columns(w.coeffs, chart.dim)):
        theta = DiffForm._raw(chart, 1, {(k,): c for k, c in enumerate(row, start=1) if c})
        u = u + theta.wedge(DiffForm._raw(chart, w.degree - 1, col))
    return u


def _split(w: DiffForm, J: EndField, t: RationalExpr) -> Tuple[DiffForm, DiffForm]:
    """The summands (w +- J.w/(3s))/2 of w, s = sqrt(t/6) for t = trace(J^2),
    which sum to w by construction, checked to be decomposable and ordered.
    Raises IrrationalScale when s leaves the ring."""
    s = _sqrt_rational_expr(t / RationalExpr.const(6, 6))
    v = _derivation_action(J, w).scale(RationalExpr.const(6, 1) / (s * 3))
    p1, p2 = (w + v).scale(Q(1, 2)), (w - v).scale(Q(1, 2))
    if not (_is_decomposable(p1) and _is_decomposable(p2)):
        raise WrongType("split parts are not decomposable; form is not product type")
    return _tie_break(p1, p2)


def _is_decomposable(part: DiffForm) -> bool:
    """Decomposability over the fraction field, not at each point: a nonzero
    k-form is decomposable exactly when v -> i_v part has rank k.  That rank
    test certifies every degree; part ^ part != 0 rejects sooner in even
    degree and vanishes identically in odd degree."""
    if part.is_zero or (part.degree % 2 == 0 and part.wedge(part)):
        return False
    _rows, matrix = contraction_matrix(part)
    return linalg.rank(matrix) == part.degree


def _tie_break(a: DiffForm, b: DiffForm) -> Tuple[DiffForm, DiffForm]:
    """Deterministic labeling: at the first index tuple (lex order) where the
    parts differ, the part whose difference has positive leading numerator
    coefficient comes first."""
    keys = sorted(set(a.coeffs) | set(b.coeffs))
    zero = RationalExpr.const(a.chart.dim, 0)
    for key in keys:
        ca = a.coeffs.get(key, zero)
        cb = b.coeffs.get(key, zero)
        diff = ca - cb
        if diff:
            return (a, b) if _as_fraction(diff.num.leading_coeff()) > 0 else (b, a)
    return a, b


def split_product(w: DiffForm, point: Optional[Sequence] = None):
    """Split a product-type form into its two decomposable summands.

    Symbolic when ``point`` is None; otherwise the same steps split the form
    evaluated at the point after the closedness check.  Raises
    :class:`IrrationalScale` when sqrt(trace(J^2)/6) leaves the ring.
    """
    _require_closed_3form_dim6(w)
    if point is not None:
        w = w.eval_at(point)
    J = hitchin_endomorphism(w, standard_volume(w.chart))
    t = _trace_sq(J.matrix, RationalExpr.const(6, 0))
    sign = sign_on_chart(t, w.chart)
    if sign.sign != "+":
        raise WrongType(f"trace sign is {sign.sign}, not positive")
    return _split(w, J, t)


# ---------------------------------------------------------------------------
# almost-complex structures
# ---------------------------------------------------------------------------


def extract_acs(w: DiffForm) -> EndField:
    """Almost-complex structure of a complex-volume-type m-form on a 2m chart.

    Solves the linear system i_{A u} i_v w = i_u i_{A v} w over the fraction
    field; the solution space must be two-dimensional (span of identity and
    J); returns the traceless element scaled to J^2 = -I with the sign fixed
    by the chart's standard orientation.
    """
    chart = w.chart
    d = chart.dim
    if d % 2 or w.degree * 2 != d:
        raise ShapeError("need an m-form on a 2m-dimensional chart")
    m = w.degree
    if m < 2:
        raise ShapeError("need m >= 2")
    zero = RationalExpr.const(d, 0)
    # C[j][k] = i_{e_{k+1}} i_{e_{j+1}} w, by coefficient; C[j][k] = -C[k][j]
    C = [_contraction_columns(col, d) for col in _contraction_columns(w.coeffs, d)]
    rows = []
    for i in range(d):
        for j in range(i, d):
            # equation t: sum_k A[k][i] C[j][k]_t - A[k][j] C[k][i]_t, with
            # -C[k][i] = C[i][k]; column k*d + i is A[k][i], sparse rows by t
            eqs = {}
            for k in range(d):
                for t, c in C[j][k].items():
                    eqs.setdefault(t, {})[k * d + i] = c
                for t, c in C[i][k].items():
                    row = eqs.setdefault(t, {})
                    row[k * d + j] = row[k * d + j] + c if k * d + j in row else c
            rows += (eqs[t] for t in sorted(eqs) if any(eqs[t].values()))
    null = linalg.nullspace(rows, d * d)
    if len(null) != 2:
        raise WrongType(
            f"compatibility system has solution dimension {len(null)}, expected 2"
        )

    def to_end(vec) -> EndField:
        return EndField(chart, tuple(
            tuple(vec[k * d + j] for j in range(d)) for k in range(d)
        ))

    B1, B2 = (to_end(v) for v in null)
    t1, t2 = B1.trace(), B2.trace()
    T = B1.scale(t2) - B2.scale(t1)
    if all(not v for row in T.matrix for v in row):
        raise WrongType("no traceless solution: form is not of complex-volume type")
    s = T.square().is_multiple_of_identity()
    if s is None:
        raise WrongType("traceless solution does not square to a multiple of I")
    neg_s = -s
    sgn = sign_on_chart(neg_s, chart)
    if sgn.sign != "+":
        raise WrongType("traceless solution squares to +I; not complex-volume type")
    sigma = _sqrt_rational_expr(neg_s)
    one = RationalExpr.const(d, 1)
    J = T.scale(one / sigma)
    # orientation: the frame (e1, J e1, e2', J e2', ...) must be positive.
    # It is the pivot columns of [e1, J e1, .., ed, J ed]: the span of the
    # columns before e_i is J-invariant, so e_i and J e_i are pivots together.
    cols = [[v for i in range(d) for v in (one if k == i else zero, J.matrix[k][i])]
            for k in range(d)]
    pivots = linalg.eliminate(cols)[2]
    det = linalg.det([[row[p] for p in pivots] for row in cols])
    det_sign = sign_on_chart(det, chart)
    if det_sign.sign == "-":
        J = -J
    if J.square().is_multiple_of_identity() != -1:
        raise WrongType("normalized solution does not satisfy J^2 = -I")
    return J


def nijenhuis(J: EndField):
    """Nijenhuis tensor of an almost-complex structure on coordinate pairs."""
    chart = J.chart
    d = chart.dim
    if J.square().is_multiple_of_identity() != -1:
        raise NotAlmostComplex("J^2 != -I")
    values: Dict[Tuple[int, int], MultiVec] = {}
    e = [coordinate_vector(chart, i) for i in range(1, d + 1)]
    cols = [J.column_field(i) for i in range(1, d + 1)]
    for i, j in combinations(range(d), 2):
        # N(e_i, e_j) = [Je_i, Je_j] - J[Je_i, e_j] - J[e_i, Je_j]
        term = (vf_bracket(cols[i], cols[j]) - J.apply(vf_bracket(cols[i], e[j]))
                - J.apply(vf_bracket(e[i], cols[j])))
        if term:
            values[(i + 1, j + 1)] = term
    return NijenhuisReport(chart, values)


class NijenhuisReport(NamedTuple):
    chart: Chart
    values: dict

    @property
    def integrable(self) -> bool:
        return not self.values

    def __bool__(self):
        return self.integrable


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------


class InvolutivityReport(NamedTuple):
    involutive: bool
    witness_pair: Optional[Tuple[int, int]] = None
    witness_bracket: Optional[MultiVec] = None

    def __bool__(self):
        return self.involutive


def _frame_chart(frame: Sequence[MultiVec]) -> Chart:
    """The one chart of a nonempty frame of vector fields."""
    if not frame:
        raise DependentFrame("empty frame")
    chart = frame[0].chart
    if any(X.degree != 1 or X.chart != chart for X in frame):
        raise ShapeError("frame must consist of vector fields on one chart")
    return chart


def involutive(frame: Sequence[MultiVec]) -> InvolutivityReport:
    """Frobenius test: do all pairwise brackets stay in the frame's span?"""
    d = _frame_chart(frame).dim
    zero = RationalExpr.const(d, 0)
    cols = linalg.Factored([[X.coeffs.get((k,), zero) for X in frame]
                            for k in range(1, d + 1)])
    if len(cols.pivots) != len(frame):
        raise DependentFrame("frame is linearly dependent over the fraction field")
    for a in range(len(frame)):
        for b in range(a + 1, len(frame)):
            br = vf_bracket(frame[a], frame[b])
            rhs = [br.coeffs.get((k,), zero) for k in range(1, d + 1)]
            sol, _free = linalg.solve(cols, rhs)
            if sol is None:
                return InvolutivityReport(False, (a + 1, b + 1), br)
    return InvolutivityReport(True)


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------


def flatness_report(w: DiffForm) -> TypeReport:
    """Full trichotomy with the per-type flatness obstruction.

    Every verdict comes from the exact split or normalization; when the
    needed square root leaves the ring, the report is ``Undetermined`` and a
    note names the irrational scale.  ``Flat`` needs a certified trace sign,
    as samples can miss a zero of the trace; else the report is ``Undetermined``.
    """
    _require_closed_3form_dim6(w)
    chart = w.chart
    J = hitchin_endomorphism(w, standard_volume(chart))
    t = _trace_sq(J.matrix, RationalExpr.const(6, 0))
    sig = sign_on_chart(t, chart)
    notes = [] if sig.certified else ["trace sign decided by rational sampling"]
    flat, flat_notes = ((FLAT, notes) if sig.certified else
                        (UNDETERMINED, notes + ["Flat needs a certified trace sign"]))

    if sig.sign == "mixed":
        pts = [list(map(str, wpt)) for wpt, _v in sig.witnesses]
        return TypeReport(NONCONSTANT, "mixed", UNDETERMINED,
                          points=pts, notes=notes)

    if sig.sign == "+":
        try:
            w1, w2 = _split(w, J, t)
        except IrrationalScale as exc:
            return TypeReport(PRODUCT, "+", UNDETERMINED,
                              notes=notes + [f"exact split unavailable: {exc}"])
        d1, d2 = ext_d(w1), ext_d(w2)
        if d1.is_zero and d2.is_zero:
            return TypeReport(PRODUCT, "+", flat, notes=flat_notes)
        witness = d1 if not d1.is_zero else d2
        return TypeReport(PRODUCT, "+", NONFLAT, witness=witness,
                          witness_kind="exterior-derivative", notes=notes)

    if sig.sign == "-":
        scale = RationalExpr.const(6, -6) / t
        try:
            sigma = _sqrt_rational_expr(scale)
        except IrrationalScale as exc:
            return TypeReport(COMPLEX, "-", UNDETERMINED,
                              notes=notes + [f"exact normalization unavailable: {exc}"])
        Jt = J.scale(sigma)
        rep = nijenhuis(Jt)
        if rep.integrable:
            return TypeReport(COMPLEX, "-", flat, notes=flat_notes)
        (pair, val) = sorted(rep.values.items())[0]
        return TypeReport(COMPLEX, "-", NONFLAT, witness=val,
                          witness_kind=f"nijenhuis{pair}", notes=notes)

    # trace sign zero
    nd = nondegenerate(w)
    if not nd:
        return TypeReport(DEGENERATE, "0", UNDETERMINED,
                          notes=notes + ["form is degenerate"])
    frame = _vector_fields(chart, linalg.nullspace(J.matrix))
    if not frame:
        return TypeReport(TANGENT, "0", UNDETERMINED,
                          notes=notes + ["kernel of J is trivial"])
    rep = involutive(frame)
    if rep:
        return TypeReport(TANGENT, "0", flat, notes=flat_notes)
    return TypeReport(TANGENT, "0", NONFLAT, witness=rep.witness_bracket,
                      witness_kind=f"bracket{rep.witness_pair}", notes=notes)


# ---------------------------------------------------------------------------
# standard subspaces
# ---------------------------------------------------------------------------


class StandardSubspaceReport(NamedTuple):
    ok: bool
    pairwise_isotropic: bool
    rank: int
    frame_size: int
    quotient_power_dim: int
    failing_pair: Optional[Tuple[int, int]] = None

    def __bool__(self):
        return self.ok


def verify_standard_subspace(w: DiffForm, frame: Sequence[MultiVec]) -> StandardSubspaceReport:
    """Check that the frame spans a standard subspace for the form.

    Requires i_{u^v} w = 0 for all frame pairs and that w -> w(w_vec, .)
    induces an isomorphism onto Lambda^n of the quotient's dual.
    """
    chart = _frame_chart(frame)
    if w.degree < 1:
        raise DegreeError("a standard subspace needs a form of degree >= 1")
    d = chart.dim
    n = w.degree - 1
    zero = RationalExpr.const(d, 0)
    one = RationalExpr.const(d, 1)
    # pivot columns of [frame | I]: the frame's, then unit vectors completing it
    pivots = linalg.eliminate([
        [X.coeffs.get((k,), zero) for X in frame]
        + [one if j == k else zero for j in range(1, d + 1)]
        for k in range(1, d + 1)])[2]
    r = len(frame)
    if pivots[:r] != list(range(r)):
        raise DependentFrame("frame is linearly dependent over the fraction field")
    for a in range(r):
        for b in range(a + 1, r):
            if interior(frame[b], interior(frame[a], w)):
                return StandardSubspaceReport(
                    False, False, 0, r, 0, failing_pair=(a + 1, b + 1)
                )
    complement = [coordinate_vector(chart, c - r + 1) for c in pivots[r:]]
    quotient_dim = len(complement)
    power = list(combinations(range(quotient_dim), n))
    matrix = []
    for combo in power:
        row = []
        for X in frame:
            val = full_contract(w, [X] + [complement[c] for c in combo])
            row.append(val)
        matrix.append(row)
    rk = linalg.rank(matrix)
    ok = rk == r and len(power) == r
    return StandardSubspaceReport(ok, True, rk, r, len(power))

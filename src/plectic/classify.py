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
    _cleared,
    _contraction_columns,
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
from .scalar import GaussianRational, RationalExpr

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
    sign: str               # '+', '-', '0', 'mixed', '?'
    certified: bool
    witnesses: tuple = ()   # up to two (point, value) pairs


def _monomial_sign(expr: RationalExpr, chart: Chart) -> Optional[str]:
    """Sign when the expression is a monomial positive on the chart's orthant."""
    if expr.is_zero:
        return "0"
    if not (expr.num.is_monomial() and expr.den.is_monomial()):
        return None
    folded = expr.as_scalar()
    ((exps, c),) = folded.terms.items()
    for i, e in enumerate(exps, start=1):
        if e and i not in chart.positive:
            return None
    return "+" if c > 0 else "-"


def sign_on_chart(expr: RationalExpr, chart: Chart) -> SignReport:
    """Decide the sign of an expression on the chart.

    Certified for the zero expression, constants, and monomials supported on
    positivity-flagged variables; otherwise sampled on a deterministic
    rational grid (two exact witnesses are returned for sign changes).
    """
    if expr.is_zero:
        return SignReport("0", True)
    if expr.is_constant:
        v = expr.constant_value()
        return SignReport("+" if v > 0 else "-", True)
    mono = _monomial_sign(expr, chart)
    if mono is not None:
        return SignReport(mono, True)
    rng = random.Random(0x5E_ED)
    pos_w = None
    neg_w = None
    seen_nonzero = False
    for _ in range(_SIGN_SAMPLES):
        point = [
            rng.choice(_SAMPLE_POOL_POS if i in chart.positive else _SAMPLE_POOL_ANY)
            for i in range(1, chart.dim + 1)
        ]
        try:
            v = expr.eval(point)
        except PlecticError:
            continue
        if v > 0 and pos_w is None:
            pos_w = (tuple(point), v)
        elif v < 0 and neg_w is None:
            neg_w = (tuple(point), v)
        if v:
            seen_nonzero = True
        if pos_w and neg_w:
            return SignReport("mixed", True, (pos_w, neg_w))
    if pos_w and not neg_w:
        return SignReport("+", False, (pos_w,))
    if neg_w and not pos_w:
        return SignReport("-", False, (neg_w,))
    if not seen_nonzero:
        return SignReport("0", False)
    return SignReport("?", False)


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------


class NondegeneracyReport(NamedTuple):
    nondegenerate: bool
    kernel: tuple  # basis of the kernel of v -> i_v w, as MultiVecs

    def __bool__(self):
        return self.nondegenerate


def _split_constants(w: DiffForm) -> Tuple[Dict[tuple, object], DiffForm]:
    """(the values of w's constant coefficients, the form of its other
    terms); each constant coefficient is read once."""
    constants = {idx: c.constant_value() for idx, c in w.coeffs.items() if c.is_constant}
    varying = {idx: c for idx, c in w.coeffs.items() if idx not in constants}
    return constants, DiffForm._raw(w.chart, w.degree, varying)


def _values_at(constants: Dict[tuple, object], varying: DiffForm,
               point: Sequence) -> Dict[tuple, Fraction]:
    """w's coefficients at the point, from the parts ``_split_constants``
    returns: the constant ones as read, the others evaluated."""
    pt = varying.chart.check_point(point)
    values = {idx: _rational(v) for idx, v in constants.items()}
    values.update((idx, _rational(c.eval(pt))) for idx, c in varying.coeffs.items())
    return values


def _rational(v) -> Fraction:
    """v as a Fraction; a Gaussian value must be real."""
    if type(v) is Fraction:
        return v
    if isinstance(v, GaussianRational):
        if not v.is_real:
            raise ShapeError(f"not an exact rational: {v!r}")
        return v.re
    return Q(v)


def nondegenerate(w: DiffForm, point: Optional[Sequence] = None) -> NondegeneracyReport:
    """Is v -> i_v w injective (exactly, at a point or over the fraction field)?"""
    if w.degree < 2:
        raise DegreeError("non-degeneracy test needs a form of degree >= 2")
    chart = w.chart
    if point is not None:  # in int, scaled by the lcm of the denominators
        _D, values = _cleared(_values_at(*_split_constants(w), point))
        cols = _contraction_columns(values, chart.dim)
        matrix = [[c.get(t, 0) for c in cols] for t in sorted(set().union(*cols))]
    else:
        _rows, matrix = contraction_matrix(w)
    if not matrix:
        kernel_vecs = [coordinate_vector(chart, v) for v in range(1, chart.dim + 1)]
        return NondegeneracyReport(False, tuple(kernel_vecs))
    kernel_vecs = _vector_fields(chart, linalg.nullspace(matrix))
    return NondegeneracyReport(not kernel_vecs, kernel_vecs)


def _vector_fields(chart: Chart, vectors) -> tuple:
    """Each coefficient vector as the vector field on the chart."""
    return tuple(MultiVec(chart, 1, {(k + 1,): v[k] for k in range(chart.dim) if v[k]})
                 for v in vectors)


# ---------------------------------------------------------------------------
# the endomorphism field J
# ---------------------------------------------------------------------------


class EndField(Record):
    """An endomorphism field: a dim x dim matrix of expressions."""

    __slots__ = ("chart", "matrix")

    def __init__(self, chart: Chart, matrix: tuple):
        d = chart.dim
        if len(matrix) != d or any(len(r) != d for r in matrix):
            raise ShapeError("endomorphism matrix must be square of chart dimension")
        super().__init__(chart, matrix)

    @classmethod
    def from_rows(cls, chart: Chart, rows) -> "EndField":
        return cls(chart, tuple(tuple(RationalExpr._coerce(v, chart.dim) for v in row)
                                for row in rows))

    @classmethod
    def identity(cls, chart: Chart) -> "EndField":
        d = chart.dim
        return cls.from_rows(
            chart, [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        )

    def column_field(self, col: int) -> MultiVec:
        coeffs = {
            (k,): self.matrix[k - 1][col - 1]
            for k in range(1, self.chart.dim + 1)
            if self.matrix[k - 1][col - 1]
        }
        return MultiVec(self.chart, 1, coeffs)

    def apply(self, X: MultiVec) -> MultiVec:
        if X.degree != 1:
            raise DegreeError("EndField acts on vector fields")
        d = self.chart.dim
        out = {}
        for k in range(1, d + 1):
            acc = RationalExpr.const(d, 0)
            for i in range(1, d + 1):
                xi = X.coeffs.get((i,))
                if xi is not None:
                    acc = acc + self.matrix[k - 1][i - 1] * xi
            if acc:
                out[(k,)] = acc
        return MultiVec(self.chart, 1, out)

    def compose(self, other: "EndField") -> "EndField":
        if other.chart != self.chart:
            raise ChartMismatch("composing endomorphisms on different charts")
        # summing only the nonzero products prints the same as the dense sum:
        # adding a zero leaves a RationalExpr's numerator and denominator as
        # they are
        zero = RationalExpr.const(self.chart.dim, 0)
        cols = list(zip(*other.matrix))
        rows = []
        for row in self.matrix:
            out = []
            for col in cols:
                terms = [a * b for a, b in zip(row, col) if a and b]
                out.append(reduce(add, terms) if terms else zero)
            rows.append(tuple(out))
        return EndField(self.chart, tuple(rows))

    def square(self) -> "EndField":
        return self.compose(self)

    def trace(self) -> RationalExpr:
        d = self.chart.dim
        acc = RationalExpr.const(d, 0)
        for i in range(d):
            acc = acc + self.matrix[i][i]
        return acc

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

    def __eq__(self, other):
        if not isinstance(other, EndField):
            return NotImplemented
        if self.chart != other.chart:
            return False
        return all(
            a == b for ra, rb in zip(self.matrix, other.matrix) for a, b in zip(ra, rb)
        )

    __hash__ = Record.__hash__

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


# (a, b) -> [(ijk, m - 1, sign)] over the triples disjoint from (a, b):
# dx^ab ^ dx^ijk is sign * (-1)^(m-1) times the 5-form missing index m, the
# sign row m of J carries (i_{e_m} Vol is (-1)^(m-1) times that 5-form)
_WEDGE_COLUMNS = {
    pair: [(idx, m - 1, sign if m % 2 else -sign)
           for idx in combinations(range(1, 7), 3)
           for merged, sign in [sort_index_tuple(pair + idx)] if merged
           for m in [21 - sum(merged)]]
    for pair in combinations(range(1, 7), 2)
}


def _volume_times_j(coeffs: Dict[Tuple[int, int, int], object], zero) -> List[list]:
    """Rows of g*J for the 3-form on R^6 with coefficients ``coeffs``, in the
    ring they live in (``zero`` is its zero), g the volume coefficient:
    column i is (i_{e_i} w) ^ w read through ``_WEDGE_COLUMNS``."""
    gj = [[zero] * 6 for _ in range(6)]
    for i, two in enumerate(_contraction_columns(coeffs, 6)):
        for pair, ca in two.items():
            for idx, row, sign in _WEDGE_COLUMNS[pair]:
                cb = coeffs.get(idx)
                if cb:
                    if sign > 0:
                        gj[row][i] += ca * cb
                    else:
                        gj[row][i] -= ca * cb
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
    """The unique J with (i_v w) ^ w = i_{J(v)} vol."""
    chart = w.chart
    if chart.dim != 6 or w.degree != 3:
        raise ShapeError("endomorphism extraction needs a 3-form in dimension 6")
    if vol.chart != chart:
        raise ChartMismatch("volume form lives on a different chart")
    if vol.degree != 6 or len(vol.coeffs) != 1:
        raise SingularVolume("volume must be a nonzero top-degree form")
    g = vol.coeffs.get(tuple(range(1, 7)))
    if g is None or not g:
        raise SingularVolume("volume coefficient vanishes identically")
    gj = _volume_times_j(w.coeffs, RationalExpr.const(6, 0))
    return EndField(chart, tuple(tuple(v / g if v else v for v in row) for row in gj))


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
    if ext_d(w):
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


def _classify_at(w: DiffForm, point: Sequence) -> Tuple[TypeReport, Fraction]:
    """``classify6``'s report together with the exact trace(J(p)^2) for the
    standard volume."""
    constants, varying = _split_constants(w)
    _require_closed_3form_dim6(varying)  # d of a constant is zero
    D, values = _cleared(_values_at(constants, varying, point))
    gj = _volume_times_j(values, 0)
    tv = _trace_sq(gj, 0)  # trace(J^2) times D^4 > 0: the sign is exact
    if tv > 0:
        linear_type, sign = PRODUCT, "+"
    elif tv < 0:
        linear_type, sign = COMPLEX, "-"
    else:
        linear_type, sign = (TANGENT if _rank_at_least_two(gj) else DEGENERATE), "0"
    return TypeReport(linear_type, sign, points=[list(point)]), Fraction(tv, D ** 4)


def classify6(w: DiffForm, point: Sequence) -> TypeReport:
    """Linear type of a closed 3-form on a 6-chart at a point.

    The coefficients are read once and cleared of denominators by their lcm
    D, so J (for the standard volume) is built in Python int, scaled by D^2,
    and trace(J^2) comes out scaled by D^4 > 0.  The sign of trace(J^2)
    separates product (+) and complex (-) type.  At trace zero, w is tangent
    exactly when J has rank >= 2: if w is degenerate, some v != 0 has
    i_v w = 0, so w is pulled back from the 5-dimensional V/<v>, every
    (i_u w) ^ w lies in the line of 5-forms of that quotient, and J has
    rank <= 1; a non-degenerate w with trace zero is GL(6)-conjugate to
    ``catalog.tangent6``, whose J has rank 3.
    """
    return _classify_at(w, point)[0]


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
    for i, row in enumerate(J.matrix, start=1):
        theta = DiffForm._raw(chart, 1, {(k,): c for k, c in enumerate(row, start=1) if c})
        u = u + theta.wedge(interior(coordinate_vector(chart, i), w))
    return u


def _split(w: DiffForm, J: EndField, s: RationalExpr) -> Tuple[DiffForm, DiffForm]:
    """The summands (w +- J.w/(3s))/2 of w, which sum to w by construction,
    checked to be decomposable and ordered."""
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
            lead = diff.num.leading_coeff()
            positive = lead > 0 if not hasattr(lead, "re") else lead.re > 0
            return (a, b) if positive else (b, a)
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
    lam = _trace_sq(J.matrix, RationalExpr.const(6, 0)) / RationalExpr.const(6, 6)
    sign = sign_on_chart(lam, w.chart)
    if sign.sign != "+":
        raise WrongType(f"trace sign is {sign.sign}, not positive")
    return _split(w, J, _sqrt_rational_expr(lam))


def verify_product_decomposition(w: DiffForm, parts: Sequence[DiffForm]) -> bool:
    """Verify a user-supplied k-part decomposition into decomposable summands.

    The k > 2 search is out of scope; this checks the candidate: the parts
    sum to w, and each is decomposable of w's degree (``_is_decomposable``).
    """
    if not parts:
        return False
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    if total != w:
        return False
    return all(p.degree == w.degree and _is_decomposable(p) for p in parts)


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
    null = linalg.nullspace(rows)
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
    if not J.square() == EndField.identity(chart).scale(RationalExpr.const(d, -1)):
        raise WrongType("normalized solution does not satisfy J^2 = -I")
    return J


def nijenhuis(J: EndField):
    """Nijenhuis tensor of an almost-complex structure on coordinate pairs."""
    chart = J.chart
    d = chart.dim
    minus_id = EndField.identity(chart).scale(RationalExpr.const(d, -1))
    if not J.square() == minus_id:
        raise NotAlmostComplex("J^2 != -I")
    values: Dict[Tuple[int, int], MultiVec] = {}
    cols = [J.column_field(i) for i in range(1, d + 1)]

    def partial_field(X: MultiVec, j: int) -> MultiVec:
        """[e_j, X] = d_j X = -[X, e_j]; and [e_i, e_j] = 0."""
        out = {}
        for k, c in X.coeffs.items():
            p = c.partial(j)
            if p:
                out[k] = p
        return MultiVec._raw(chart, 1, out)

    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            term = vf_bracket(cols[i - 1], cols[j - 1])
            term = term - J.apply(-partial_field(cols[i - 1], j))
            term = term - J.apply(partial_field(cols[j - 1], i))
            if term:
                values[(i, j)] = term
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


def involutive(frame: Sequence[MultiVec]) -> InvolutivityReport:
    """Frobenius test: do all pairwise brackets stay in the frame's span?"""
    if not frame:
        raise DependentFrame("empty frame")
    chart = frame[0].chart
    d = chart.dim
    zero = RationalExpr.const(d, 0)
    for X in frame:
        if X.degree != 1 or X.chart != chart:
            raise ShapeError("frame must consist of vector fields on one chart")
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
    note names the irrational scale.
    """
    _require_closed_3form_dim6(w)
    chart = w.chart
    J = hitchin_endomorphism(w, standard_volume(chart))
    t = _trace_sq(J.matrix, RationalExpr.const(6, 0))
    sig = sign_on_chart(t, chart)
    notes = [] if sig.certified else ["trace sign decided by rational sampling"]

    if sig.sign == "mixed":
        pts = [list(map(str, wpt)) for wpt, _v in sig.witnesses]
        return TypeReport(NONCONSTANT, "mixed", UNDETERMINED,
                          points=pts, notes=notes)
    if sig.sign == "?":
        return TypeReport(NONCONSTANT, "?", UNDETERMINED,
                          notes=notes + ["sign sampling inconclusive"])

    if sig.sign == "+":
        try:
            w1, w2 = _split(w, J, _sqrt_rational_expr(t / RationalExpr.const(6, 6)))
        except IrrationalScale as exc:
            return TypeReport(PRODUCT, "+", UNDETERMINED,
                              notes=notes + [f"exact split unavailable: {exc}"])
        d1, d2 = ext_d(w1), ext_d(w2)
        if d1.is_zero and d2.is_zero:
            return TypeReport(PRODUCT, "+", FLAT, notes=notes)
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
            return TypeReport(COMPLEX, "-", FLAT, notes=notes)
        (pair, val) = sorted(rep.values.items())[0]
        return TypeReport(COMPLEX, "-", NONFLAT, witness=val,
                          witness_kind=f"nijenhuis{pair}", notes=notes)

    # trace sign zero
    nd = nondegenerate(w)
    if not nd:
        return TypeReport(DEGENERATE, "0", UNDETERMINED,
                          notes=notes + ["form is degenerate"])
    frame = _vector_fields(chart, linalg.nullspace([list(row) for row in J.matrix]))
    if not frame:
        return TypeReport(TANGENT, "0", UNDETERMINED,
                          notes=notes + ["kernel of J is trivial"])
    rep = involutive(frame)
    if rep:
        return TypeReport(TANGENT, "0", FLAT, notes=notes)
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
    if not frame:
        raise DependentFrame("empty frame")
    chart = frame[0].chart
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
    rk = linalg.rank(matrix) if matrix else 0
    ok = rk == r and len(power) == r
    return StandardSubspaceReport(ok, True, rk, r, len(power))

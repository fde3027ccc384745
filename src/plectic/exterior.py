"""Sparse exterior calculus on a coordinate chart.

Conventions fixed here and relied on everywhere else:

* coefficients are :class:`RationalExpr` over the chart's variables and
  index tuples are strictly increasing (signs normalize at insertion);
* the interior product by a decomposable multivector inverts the order,
  ``i_{u^v} a = i_v (i_u a)``, so ``i_{e_I} = i_{e_im} o ... o i_{e_i1}``
  for an increasing tuple I;
* the Lie derivative along a vector field is the Cartan formula
  ``i_X d + d i_X`` by definition;
* the canonical pairing of a k-form with k vectors is
  ``a(v1,..,vk) = i_{vk} ... i_{v1} a``.
"""
from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ChartMismatch,
    DegreeError,
    DomainViolation,
    HomotopyPole,
    PlecticError,
    ShapeError,
    SingularVolume,
)
from .record import Record
from .scalar import (
    RationalExpr,
    ScalarExpr,
    _as_fraction,
    _constant_coeff,
    _one,
    parse_expression,
)

IndexTuple = Tuple[int, ...]


class Chart(Record):
    """A coordinate system on positional variables x1..x(dim).

    Variables indexed in ``positive`` are positive on the chart, which
    licenses fractional powers of them.  On a ``star_shaped`` chart a closed
    form is exact, so the radial homotopy may be used to decide exactness.
    """

    __slots__ = ("dim", "positive", "star_shaped")

    def __init__(self, dim: int, positive: Iterable[int] = (), star_shaped: bool = True):
        if dim < 1:
            raise ShapeError("chart dimension must be positive")
        positive = frozenset(positive)
        if not positive.issubset(range(1, dim + 1)):
            raise ShapeError("positive_vars outside 1..dim")
        super().__init__(dim, positive, star_shaped)

    def __eq__(self, other):  # runs in every exterior operation
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim == other.dim and self.positive == other.positive
                and self.star_shaped == other.star_shaped)

    __hash__ = Record.__hash__

    def check_point(self, point: Sequence) -> List[Fraction]:
        if len(point) != self.dim:
            raise ShapeError(f"point length {len(point)} != dim {self.dim}")
        pt = [_as_fraction(v) for v in point]
        for i in self.positive:
            if pt[i - 1] <= 0:
                raise DomainViolation(
                    f"coordinate x{i} must be positive, got {pt[i - 1]}"
                )
        return pt


def chart(dim: int, positive: Iterable[int] = (), star_shaped: bool = True) -> Chart:
    return Chart(dim, positive, star_shaped)


def _coerce_coeff(c, dim: int) -> RationalExpr:
    if isinstance(c, str):
        return parse_expression(c, dim)
    return RationalExpr._coerce(c, dim)


def sort_index_tuple(idx: Sequence[int]) -> Tuple[Optional[IndexTuple], int]:
    """Sort an index tuple; returns (sorted tuple, parity sign) or (None, 0)."""
    lst = list(idx)
    if len(set(lst)) != len(lst):
        return None, 0
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def _check_domain(chart: Chart, exprs: Iterable[RationalExpr]) -> None:
    """Fractional exponents are licensed only on variables flagged positive."""
    for c in exprs:
        bad = c.fractional_vars().difference(chart.positive)
        if bad:
            raise DomainViolation(
                f"fractional exponent on variable(s) {sorted(bad)} "
                "not flagged positive on the chart"
            )


class _Alternating:
    """Shared implementation of DiffForm and MultiVec."""

    __slots__ = ("chart", "degree", "coeffs", "_hash")

    def __init__(self, chart: Chart, degree: int,
                 coeffs: Mapping[IndexTuple, object] | None = None):
        if degree < 0:
            raise DegreeError("negative degree")
        if degree > chart.dim:
            # representable only as the zero tensor; cap silently
            coeffs = {}
            degree = chart.dim
        clean: Dict[IndexTuple, RationalExpr] = {}
        if coeffs:
            for idx, c in coeffs.items():
                idx = tuple(int(i) for i in idx)
                if len(idx) != degree:
                    raise DegreeError(
                        f"index tuple {idx} has length {len(idx)}, degree is {degree}"
                    )
                if any(not 1 <= i <= chart.dim for i in idx):
                    raise ShapeError(f"index out of range in {idx}")
                if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                    raise ShapeError(f"index tuple {idx} not strictly increasing")
                c = _coerce_coeff(c, chart.dim)
                if c:
                    _accumulate(clean, idx, c)
        _check_domain(chart, clean.values())
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, chart: Chart, degree: int, coeffs: Dict[IndexTuple, RationalExpr]):
        """Wrap coefficients that are already clean, unchecked: sorted index
        tuples of length ``degree``, nonzero ``RationalExpr`` values whose
        fractional variables are flagged positive on the chart.  Products,
        sums and partials of such values keep the last property."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(obj, "degree", degree)
        object.__setattr__(obj, "coeffs", coeffs)
        object.__setattr__(obj, "_hash", None)
        return obj

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    # -- basics ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if type(other) is not type(self):
            raise ShapeError(f"expected {type(self).__name__}")
        if other.chart != self.chart:
            raise ChartMismatch("operands live on different charts")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise DegreeError("adding forms of different degrees")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            _accumulate(out, idx, c)
        return self._raw(self.chart, self.degree, out)

    def __neg__(self):
        return self._raw(self.chart, self.degree,
                         {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce_coeff(c, self.chart.dim)
        if not c:
            return self._raw(self.chart, self.degree, {})
        _check_domain(self.chart, (c,))
        return self._raw(self.chart, self.degree,
                         {i: v * c for i, v in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    def __hash__(self):
        # computed once (hashing each coefficient by value is slow); zero
        # forms of every degree are equal, so they hash alike
        if self._hash is None:
            key = (self.degree, frozenset(self.coeffs.items())) if self.coeffs else ()
            object.__setattr__(self, "_hash", hash((type(self).__name__, self.chart, key)))
        return self._hash

    def wedge(self, other):
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.chart.dim:
            return self._raw(self.chart, self.chart.dim, {})
        out: Dict[IndexTuple, RationalExpr] = {}
        for ia, ca in self.coeffs.items():
            for ib, cb in other.coeffs.items():
                merged, sign = sort_index_tuple(ia + ib)
                if merged is None:
                    continue
                _accumulate(out, merged, _signed_product(ca, cb, sign))
        return self._raw(self.chart, deg, out)

    def eval_at(self, point: Sequence):
        """Constant-coefficient tensor of the same kind at a point."""
        pt = self.chart.check_point(point)
        return type(self)(
            self.chart, self.degree,
            {i: RationalExpr.const(self.chart.dim, c.eval(pt))
             for i, c in self.coeffs.items()},
        )

    def terms_str(self, basis_symbol: str) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            label = basis_symbol + "".join(f"[{i}]" for i in idx) if idx else "1"
            parts.append(f"({c}) {label}")
        return " + ".join(parts)


def _signed_product(a: RationalExpr, b: RationalExpr, sign: int) -> RationalExpr:
    """sign * a * b; a negative sign goes to the factor with fewer terms (a
    constant has one), so the product itself is never negated."""
    if sign > 0:
        return a * b
    return -a * b if len(a.num.terms) <= len(b.num.terms) else a * -b


def _accumulate(out: Dict[IndexTuple, RationalExpr], idx: IndexTuple,
                term: RationalExpr) -> None:
    """Add a nonzero term into ``out[idx]``, dropping a sum that cancels."""
    s = out.get(idx)
    if s is None:
        out[idx] = term
        return
    s = s + term
    if s:
        out[idx] = s
    else:
        del out[idx]


class DiffForm(_Alternating):
    """Covariant alternating tensor (degree may be zero)."""

    def __repr__(self):
        return f"DiffForm<{self.degree}>({self.terms_str('dx')})"


class MultiVec(_Alternating):
    """Contravariant alternating tensor of degree >= 1."""

    def __init__(self, chart, degree, coeffs=None):
        if degree < 1:
            raise DegreeError("multivector degree must be >= 1")
        super().__init__(chart, degree, coeffs)

    def __repr__(self):
        return f"MultiVec<{self.degree}>({self.terms_str('e')})"


def form(chart: Chart, degree: int, coeffs=None) -> DiffForm:
    return DiffForm(chart, degree, coeffs or {})


def multivec(chart: Chart, degree: int, coeffs=None) -> MultiVec:
    return MultiVec(chart, degree, coeffs or {})


def function_form(chart: Chart, expr) -> DiffForm:
    """Degree-0 form from an expression (string, scalar or rational)."""
    return DiffForm(chart, 0, {(): _coerce_coeff(expr, chart.dim)})


def coordinate_vector(chart: Chart, index: int) -> MultiVec:
    return MultiVec(chart, 1, {(index,): 1})


def _vector_fields(chart: Chart, vectors) -> tuple:
    """Each vector of RationalExprs on the chart (from ``linalg.solve``, ``nullspace``
    or an ``EndField``) as the vector field, unchecked; zero entries are dropped."""
    return tuple(MultiVec._raw(chart, 1, {(k + 1,): v[k] for k in range(chart.dim) if v[k]})
                 for v in vectors)


def basis_one_form(chart: Chart, index: int) -> DiffForm:
    return DiffForm(chart, 1, {(index,): 1})


def wedge(a, b):
    return a.wedge(b)


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative.

    Each term of a polynomial coefficient takes the power rule in each of its
    variables outside the index, the sign of dx_i ^ dx^idx folded in, and goes
    into one term dict per output index, wrapped once at the end.  A quotient
    takes ``RationalExpr.partial`` in the variables of its numerator and
    denominator outside its index: a partial in any other variable is zero."""
    chart_ = a.chart
    deg = a.degree + 1
    if deg > chart_.dim:
        return DiffForm._raw(chart_, chart_.dim, {})
    sums: Dict[IndexTuple, dict] = {}
    out: Dict[IndexTuple, RationalExpr] = {}
    for idx, c in a.coeffs.items():
        if not c.den_is_one:
            for i in sorted(c.used_vars().difference(idx)):
                key, sign = sort_index_tuple((i,) + idx)
                dc = c.partial(i, sign)
                if dc:
                    _accumulate(out, key, dc)
            continue
        slots: dict = {}  # variable position -> (term dict of d, sign)
        for exps, coeff in c.num.terms.items():
            for i, e in enumerate(exps):
                if not e or i + 1 in idx:
                    continue
                slot = slots.get(i)
                if slot is None:
                    key, sign = sort_index_tuple((i + 1,) + idx)
                    slot = slots[i] = (sums.setdefault(key, {}), sign)
                terms, sign = slot
                f = e if sign > 0 else -e
                t = coeff if f == 1 else -coeff if f == -1 else coeff * f
                k = exps[:i] + (e - 1,) + exps[i + 1:]
                if k in terms:
                    t = terms[k] + t
                    if not t:
                        del terms[k]
                        continue
                terms[k] = t
    one = _one(chart_.dim)
    for key, terms in sums.items():
        if terms:
            _accumulate(out, key, RationalExpr._raw(ScalarExpr._raw(chart_.dim, terms), one))
    return DiffForm._raw(chart_, deg, out)


def _contract_one(idx: IndexTuple, i: int) -> Tuple[Optional[IndexTuple], int]:
    """i_{e_i} dx^idx: remove index i with position sign."""
    if i not in idx:
        return None, 0
    pos = idx.index(i)
    return idx[:pos] + idx[pos + 1:], -1 if pos % 2 else 1


def interior(X: MultiVec, a: DiffForm) -> DiffForm:
    """Interior product with the inverted-order convention."""
    if X.chart != a.chart:
        raise ChartMismatch("multivector and form live on different charts")
    if X.degree > a.degree:
        raise DegreeError(
            f"contracting degree-{a.degree} form by degree-{X.degree} multivector"
        )
    out: Dict[IndexTuple, RationalExpr] = {}
    for vidx, vc in X.coeffs.items():
        for fidx, fc in a.coeffs.items():
            cur, sign = fidx, 1
            ok = True
            for i in vidx:  # i_{e_I} = i_{e_{i_m}} o ... o i_{e_{i_1}}
                cur, s = _contract_one(cur, i)
                if cur is None:
                    ok = False
                    break
                sign *= s
            if not ok:
                continue
            _accumulate(out, cur, _signed_product(vc, fc, sign))
    return DiffForm._raw(a.chart, a.degree - X.degree, out)


def _contraction_columns(coeffs: Mapping[IndexTuple, object], dim: int) -> List[dict]:
    """Columns of v -> i_v w, read off w's coefficient dict in whatever ring
    the coefficients live in: entry v - 1 maps each index tuple to its
    coefficient in i_{e_v} w, with the position sign of ``interior``.  Each
    (tuple, v) comes from one index tuple of w, so nothing is summed."""
    cols: List[dict] = [{} for _ in range(dim)]
    for idx, c in coeffs.items():
        for pos, i in enumerate(idx):
            cols[i - 1][idx[:pos] + idx[pos + 1:]] = -c if pos % 2 else c
    return cols


def contraction_matrix(w: DiffForm):
    """Matrix of the contraction map v -> i_v w in the coordinate basis.

    Column v holds i_{e_v} w; the rows are the sorted index tuples met in
    those contractions.  Returns (row tuples, matrix).
    """
    cols = _contraction_columns(w.coeffs, w.chart.dim)
    rows = sorted(set().union(*cols))
    zero = RationalExpr.const(w.chart.dim, 0)
    return rows, [[c.get(t, zero) for c in cols] for t in rows]


def lie_derivative(X: MultiVec, a: DiffForm) -> DiffForm:
    """Cartan formula i_X(da) + d(i_X a); X must be a vector field."""
    if X.degree != 1:
        raise DegreeError("Lie derivative along a multivector of degree > 1")
    if a.degree == 0:
        return interior(X, ext_d(a))
    return interior(X, ext_d(a)) + ext_d(interior(X, a))


def full_contract(a: DiffForm, vectors: Sequence[MultiVec]) -> RationalExpr:
    """a(v1,..,vk) as a function, via iterated interior products."""
    res: DiffForm = a
    for v in vectors:
        res = interior(v, res)
    if res.degree != 0:
        raise DegreeError("contraction did not reach degree zero")
    return res.coeffs.get((), RationalExpr.const(a.chart.dim, 0))


def vf_bracket(X: MultiVec, Y: MultiVec) -> MultiVec:
    """Lie bracket of two vector fields.

    Component k sums X^i d_i Y^k and then -Y^i d_i X^k in increasing i over
    the components present, each partial only in a variable its coefficient
    uses, so it prints as the dense sum does."""
    if X.degree != 1 or Y.degree != 1:
        raise DegreeError("bracket needs two vector fields")
    if X.chart != Y.chart:
        raise ChartMismatch("bracket of fields on different charts")
    sides = [(a.coeffs, [(k, c, c.used_vars()) for k, c in b.coeffs.items()], sign)
             for a, b, sign in ((X, Y, 1), (Y, X, -1))]
    out: Dict[IndexTuple, RationalExpr] = {}
    for (i,) in sorted(X.coeffs.keys() | Y.coeffs.keys()):
        for a, b, sign in sides:
            ai = a.get((i,))
            if ai is not None:
                for k, bk, used in b:
                    if i in used:
                        term = ai * bk.partial(i, sign)
                        if term:  # a partial of an uncancelled x/x is zero
                            _accumulate(out, k, term)
    return MultiVec._raw(X.chart, 1, dict(sorted(out.items())))


class SmoothMap(Record):
    """A map between charts given by one component expression per target var."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chart, target: Chart, components: Sequence):
        if len(components) != target.dim:
            raise ShapeError("component count differs from target dimension")
        comps = tuple(_coerce_coeff(c, source.dim) for c in components)
        for c in comps:
            if c.dim != source.dim:
                raise ShapeError("component over the wrong source chart")
        super().__init__(source, target, comps)

    @classmethod
    def identity(cls, c: Chart) -> "SmoothMap":
        return cls(c, c, tuple(RationalExpr.variable(c.dim, i)
                               for i in range(1, c.dim + 1)))

    def apply(self, point: Sequence) -> List[Fraction]:
        pt = self.source.check_point(point)
        image = [c.eval(pt) for c in self.components]
        self.target.check_point(image)
        return image

    def jacobian(self) -> List[List[RationalExpr]]:
        return [
            [self.components[t].partial(s) for s in range(1, self.source.dim + 1)]
            for t in range(self.target.dim)
        ]

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self o inner (inner applied first)."""
        if inner.target != self.source:
            raise ChartMismatch("composition charts do not match")
        comps = tuple(c.substitute(list(inner.components)) for c in self.components)
        return SmoothMap(inner.source, self.target, comps)

    def is_polynomial(self) -> bool:
        return all(c.is_polynomial() for c in self.components)


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


def _times(a, b, sign: int):
    """sign * a * b; an int factor (a unit partial) scales with no product by +-1."""
    if type(a) is int:
        a, b = b, a
    if type(b) is not int:
        return _signed_product(a, b, sign)
    b *= sign
    if type(a) is int or b not in (1, -1):
        return a * b
    return a if b == 1 else -a


def _wedge_one_form(block: dict, one_form: dict) -> dict:
    """block ^ one_form ({s: coefficient of dx_s}) over keys (indices, sign):
    dx_s moving past an odd number of indices flips the sign of the key, so
    no coefficient is negated here."""
    out: dict = {}
    for (idx, sign), ca in block.items():
        for s, cb in one_form.items():
            if s not in idx:
                pos = bisect(idx, s)
                key = idx[:pos] + (s,) + idx[pos:], -sign if (len(idx) - pos) % 2 else sign
                _accumulate(out, key, _times(ca, cb, 1))
    return out


def pullback(f: SmoothMap, a: DiffForm) -> DiffForm:
    """f^* a; commutes with d and wedge by construction.

    A component is differentiated only in the variables it uses, as in
    ``ext_d``; a partial that is the constant 1 is kept as the int 1, so a
    wedge with it (with dx_s of a component x_s) only moves indices.  A
    constant coefficient is the same constant on the source chart, so
    nothing is substituted into it.  Terms accumulate into one dict."""
    if a.chart != f.target:
        raise ChartMismatch("form does not live on the map's target chart")
    src, comps = f.source, f.components
    _check_domain(src, comps)
    # differentials of the components, as {s: coefficient of dx_s}
    dcomp = []
    for c in comps:
        partials = ((s, c.partial(s)) for s in sorted(c.used_vars()))
        dcomp.append({s: 1 if _constant_coeff(p) == 1 else p for s, p in partials if p})
    out: Dict[IndexTuple, RationalExpr] = {}
    for idx, c in a.coeffs.items():
        value = _constant_coeff(c)
        pulled = c.substitute(comps) if value is None else RationalExpr.const(src.dim, value)
        _check_domain(src, (pulled,))
        if not pulled:
            continue
        value = _constant_coeff(pulled)
        block = {((), 1): 1}
        for j in idx:
            block = _wedge_one_form(block, dcomp[j - 1])
        factor = 1 if value == 1 else -1 if value == -1 else pulled
        for (k, sign), v in block.items():
            v = _times(v, factor, sign)
            _accumulate(out, k, RationalExpr.const(src.dim, v) if type(v) is int else v)
    return DiffForm._raw(src, min(a.degree, src.dim), out)


@lru_cache(maxsize=None)
def _laplace_plan(dim: int, deg: int) -> Tuple[Tuple[Tuple[int, int, bool], ...], ...]:
    """How each deg x deg minor expands along its first row: for every
    increasing tuple K of deg columns in 0..dim-1 (``combinations`` order),
    the triples (column k of K, position of the minor on K without k among
    the (deg-1)-tuples, whether the term is subtracted)."""
    position = {K: n for n, K in enumerate(combinations(range(dim), deg - 1))}
    return tuple(tuple((k, position[K[:j] + K[j + 1:]], j % 2 == 1) for j, k in enumerate(K))
                 for K in combinations(range(dim), deg))


def _minor_sums(coeffs: Mapping[IndexTuple, object], M: Sequence[Sequence],
                dim: int, deg: int, zero) -> Dict[IndexTuple, object]:
    """{K: sum over I of c_I * det(M[I][K])} over the increasing K of length
    ``deg`` in 1..dim whose sum is nonzero, in the ring of ``coeffs`` and M
    (``zero`` is its zero); rows I, columns K.  These are the coefficients
    of the pullback of sum c_I dx^I along x -> M x, and, with M the
    transposed Jacobian, those of Lambda^deg of the Jacobian applied to
    sum c_I e_I.

    For each I the minors are built from its last row up: the entries of
    that row are its 1 x 1 minors, and the minors on the last n rows expand
    along their first row into those on the last n - 1 (``_laplace_plan``),
    skipping zero products."""
    plans = [_laplace_plan(dim, n) for n in range(2, deg + 1)]
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


def _cleared(values: Mapping[IndexTuple, object]) -> Tuple[int, Dict[IndexTuple, object]]:
    """(E, {idx: E * value}) with E the lcm of the values' denominators: a
    Fraction becomes a Python int, a GaussianRational a Gaussian integer."""
    E = lcm(*(v.denominator for v in values.values()))
    return E, {idx: v.numerator * (E // v.denominator) if type(v) is Fraction else v * E
               for idx, v in values.items()}


def constant_linear_pullback(a: DiffForm, matrix: Sequence[Sequence[Fraction]]) -> DiffForm:
    """Pullback of a constant-coefficient form along x -> M x (fast path).

    Both sides are cleared of denominators first: the form's coefficients by
    their lcm E, the matrix by the lcm D of its entries' denominators.  The
    minor sums of the integer form along D M then run in Python int (a
    Gaussian coefficient stays a Gaussian integer), and each is divided once
    by E * D^deg, as a degree-deg form picks up D^deg from the minors.
    """
    dim, deg = a.chart.dim, a.degree
    if not deg:
        return a
    D = lcm(*(v.denominator for row in matrix for v in row))  # an int's is 1
    m = [[v.numerator * (D // v.denominator) for v in row] for row in matrix]
    E, vals = _cleared({I: c.constant_value() for I, c in a.coeffs.items()})
    scale = E * D ** deg
    # Fraction(v, scale) and a Gaussian division reduce, so each value is
    # already a normal-form coefficient (nonzero, as _minor_sums drops zeros).
    origin = (0,) * dim
    one = ScalarExpr._raw(dim, {origin: Fraction(1)})
    return DiffForm._raw(a.chart, deg, {
        K: RationalExpr._raw(ScalarExpr._raw(dim, {
            origin: Fraction(v, scale) if type(v) is int else v / scale}), one)
        for K, v in _minor_sums(vals, m, dim, deg, 0).items()})


def pushforward_at(f: SmoothMap, X: MultiVec, point: Sequence) -> MultiVec:
    """Lambda^m of the Jacobian of f at a point, applied to X(point)."""
    if X.chart != f.source:
        raise ChartMismatch("multivector does not live on the map's source chart")
    pt = f.source.check_point(point)
    f.apply(pt)  # the image must lie in the target chart's domain
    jac_t = [[v.eval(pt) for v in col] for col in zip(*f.jacobian())]
    m = X.degree
    tgt = f.target
    if m > tgt.dim:
        raise DegreeError("pushforward degree exceeds target dimension")
    vals = {I: c.eval(pt) for I, c in X.coeffs.items()}
    out = _minor_sums(vals, jac_t, tgt.dim, m, Fraction(0))
    return MultiVec(tgt, m, {K: RationalExpr.const(tgt.dim, v) for K, v in out.items()})


def poincare_homotopy(a: DiffForm) -> DiffForm:
    """Radial homotopy operator h with d h + h d = id in degree >= 1.

    Term-wise: a monomial coefficient of total degree e on a degree-k form
    contributes 1/(k+e) times its radial contraction, exponents shifted.
    Raises :class:`HomotopyPole` when k+e = 0 or a coefficient is not a
    sum of monomials (non-monomial denominator).
    """
    k = a.degree
    if k < 1:
        raise DegreeError("homotopy operator needs degree >= 1")
    chart_ = a.chart
    dim = chart_.dim
    out: Dict[IndexTuple, ScalarExpr] = {}
    for idx, c in a.coeffs.items():
        try:
            scal = c.as_scalar()
        except PlecticError as exc:
            raise HomotopyPole(
                f"coefficient {c} is not a monomial sum: {exc}"
            ) from None
        for exps, q in scal.terms.items():
            e = sum(exps)
            if k + e == 0:
                raise HomotopyPole(
                    f"term with total degree {e} on a degree-{k} form"
                )
            w = q / (k + e)
            for pos, i in enumerate(idx):
                sign = -1 if pos % 2 else 1
                newexps = list(exps)
                newexps[i - 1] = newexps[i - 1] + 1
                _accumulate(out, idx[:pos] + idx[pos + 1:],
                            ScalarExpr.monomial(dim, w if sign > 0 else -w, newexps))
    return DiffForm(chart_, k - 1, {key: RationalExpr(s) for key, s in out.items()})


def contraction_solve(vol: DiffForm, beta: DiffForm, m: int) -> MultiVec:
    """Unique multivector xi of degree m with i_xi vol = beta.

    vol must be a top-degree form with a single nonzero coefficient.
    """
    chart_ = vol.chart
    dim = chart_.dim
    if vol.degree != dim or len(vol.coeffs) != 1:
        raise SingularVolume("volume form must be top-degree with one term")
    if beta.chart != chart_:
        raise ChartMismatch("target form lives on a different chart")
    if beta.degree != dim - m:
        raise DegreeError("target degree inconsistent with multivector degree")
    g = vol.coeffs[tuple(range(1, dim + 1))]
    out = {}
    for I in combinations(range(1, dim + 1), m):
        test = interior(MultiVec(chart_, m, {I: 1}), vol)
        ((comp, coeff),) = test.coeffs.items()
        target = beta.coeffs.get(comp)
        if target is None:
            continue
        out[I] = target / coeff
    xi = MultiVec(chart_, m, out)
    if interior(xi, vol) != beta:
        raise ShapeError("contraction solve failed to verify")  # pragma: no cover
    return xi

"""Finite-dimensional Lie algebras, multisymplectic actions, comoments and
conserved quantities.

Structure constants are rational: [e_i, e_j] = sum_k c[i][j][k] e_k.  The
homology operator delta on the exterior algebra is normalized so that
delta(x ^ y) = [x, y]:

    delta(x_1 ^ .. ^ x_k) = sum_{i<j} (-1)^(i+j+1) [x_i,x_j] ^ .. ,

and it is the one signed bracket sum here: ``LieAlgebraData.bracket`` is
[u, v] = delta(u ^ v).  The Chevalley-Eilenberg cochain differential is
d_CE phi = -phi o delta, so (d phi)(x, y) = -phi([x, y]) on 1-cochains.  On
Lambda^3 g, delta o delta is minus the Jacobiator, so the Jacobi check is
delta^2 = 0; the comoment relations subtract f_i o delta.

Group actions enter at the algebra level: a :class:`LieAction` is a list of
generator vector fields realizing the structure constants; the left-invariant
surrogate of a group acting on itself uses the constant coordinate frame and
declares the bracket relations instead of checking them on the chart.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    ChartMismatch,
    DegreeError,
    HomomorphismViolation,
    HomotopyPole,
    JacobiViolation,
    NotInvariantPotential,
    NotSymmetryAction,
    ShapeError,
)
from .exterior import (
    Chart,
    DiffForm,
    MultiVec,
    chart,
    ext_d,
    interior,
    lie_derivative,
    poincare_homotopy,
    sort_index_tuple,
    vf_bracket,
)
from .hdw import plectic_order
from .linfty import Observable, _rogers_bracket
from .record import Record
from .scalar import _as_fraction

Q = Fraction


class LieAlgebraData(Record):
    """Dimension plus rational structure constants, Jacobi-checked."""

    __slots__ = ("dim", "c")  # c[i][j] is the coefficient vector of [e_{i+1}, e_{j+1}]

    def __init__(self, dim: int, c: Sequence):
        d = dim
        c = tuple(
            tuple(tuple(_as_fraction(v) for v in vec) for vec in row) for row in c
        )
        if len(c) != d or any(len(row) != d for row in c) or any(
            len(vec) != d for row in c for vec in row
        ):
            raise ShapeError("structure constants must be a d x d x d array")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if c[i][j][k] != -c[j][i][k]:
                        raise ShapeError(
                            f"structure constants not antisymmetric at ({i+1},{j+1})"
                        )
        super().__init__(d, c)
        self._check_jacobi()

    def _check_jacobi(self):
        """delta(delta(e_i ^ e_j ^ e_k)) is minus the Jacobiator of the triple."""
        ce = CEOperators(self)
        for T in combinations(range(1, self.dim + 1), 3):
            if ce.boundary(ce.boundary({T: Q(1)}, 3), 2):
                i, j, k = T
                raise JacobiViolation(f"Jacobi identity fails on (e{i}, e{j}, e{k})")

    def bracket(self, u: Sequence, v: Sequence) -> List[Fraction]:
        """[u, v] = delta(u ^ v) for coefficient vectors u and v."""
        u = [_as_fraction(x) for x in u]
        v = [_as_fraction(x) for x in v]
        wedge = {(i + 1, j + 1): u[i] * v[j] - u[j] * v[i]
                 for i, j in combinations(range(self.dim), 2)}
        out = CEOperators(self).boundary(wedge, 2)
        return [out.get((k,), Q(0)) for k in range(1, self.dim + 1)]

    def basis_bracket(self, i: int, j: int) -> Tuple[Fraction, ...]:
        """[e_i, e_j] for 1-based basis indices."""
        return self.c[i - 1][j - 1]

    def ad(self, i: int) -> List[List[Fraction]]:
        """Matrix of ad_{e_i} (1-based) acting on coefficient columns."""
        d = self.dim
        return [[self.c[i - 1][j][k] for j in range(d)] for k in range(d)]


# ---------------------------------------------------------------------------
# Killing form and the canonical 3-form
# ---------------------------------------------------------------------------


class KillingReport(NamedTuple):
    matrix: tuple
    is_semisimple: bool

    def value(self, u: Sequence, v: Sequence) -> Fraction:
        d = len(self.matrix)
        acc = Q(0)
        for i in range(d):
            for j in range(d):
                if self.matrix[i][j]:
                    acc += _as_fraction(u[i]) * _as_fraction(v[j]) * self.matrix[i][j]
        return acc


def killing_form(g: LieAlgebraData) -> KillingReport:
    """K(x, y) = trace(ad_x ad_y); semisimple iff det K != 0."""
    d = g.dim
    ads = [g.ad(i) for i in range(1, d + 1)]
    K = [[Q(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            acc = Q(0)
            for a in range(d):
                for b in range(d):
                    acc += ads[i][a][b] * ads[j][b][a]
            K[i][j] = acc
    semisimple = bool(linalg.det(K)) if d else False
    return KillingReport(tuple(tuple(row) for row in K), semisimple)


def canonical_three_form(g: LieAlgebraData) -> DiffForm:
    """Constant 3-form w(x,y,z) = K(x,[y,z]) on the chart R^d."""
    d = g.dim
    ch = chart(d)
    K = killing_form(g)
    coeffs = {}
    for (i, j, k) in combinations(range(1, d + 1), 3):
        br = g.basis_bracket(j, k)
        ei = [Q(1) if t == i - 1 else Q(0) for t in range(d)]
        v = K.value(ei, br)
        if v:
            coeffs[(i, j, k)] = v
    return DiffForm(ch, min(3, d), coeffs if d >= 3 else {})


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg operators
# ---------------------------------------------------------------------------


Chain = Dict[Tuple[int, ...], Fraction]


def _insert_wedge(vec: Sequence[Fraction], rest: Tuple[int, ...], d: int):
    """(sum_k vec_k e_k) ^ e_rest, yielding (tuple, coeff) pairs."""
    for k in range(1, d + 1):
        cv = vec[k - 1]
        if not cv:
            continue
        merged, sign = sort_index_tuple((k,) + rest)
        if merged is not None:
            yield merged, cv * sign


class CEOperators:
    """Boundary/coboundary machinery for a fixed Lie algebra."""

    def __init__(self, g: LieAlgebraData):
        self.g = g

    def basis(self, k: int) -> List[Tuple[int, ...]]:
        return list(combinations(range(1, self.g.dim + 1), k))

    def boundary(self, chain: Chain, k: int) -> Chain:
        """delta_k: Lambda^k g -> Lambda^{k-1} g with delta(x^y) = [x,y]."""
        d = self.g.dim
        out: Chain = {}
        for T, coeff in chain.items():
            if len(T) != k:
                raise DegreeError("chain has mixed degrees")
            for a in range(k):
                for b in range(a + 1, k):
                    sign = 1 if (a + b) % 2 else -1  # (-1)^(a+b+1), 1-based
                    br = self.g.basis_bracket(T[a], T[b])
                    rest = tuple(T[t] for t in range(k) if t not in (a, b))
                    for merged, cv in _insert_wedge(br, rest, d):
                        v = out.get(merged, Q(0)) + coeff * cv * sign
                        if v:
                            out[merged] = v
                        elif merged in out:
                            del out[merged]
        return out

    def co_differential(self, cochain: Chain, k: int) -> Chain:
        """d_CE: C^k -> C^{k+1}, (d phi)(T) = -phi(delta T)."""
        out: Chain = {}
        for T in self.basis(k + 1):
            acc = sum((c * cochain.get(S, 0)
                       for S, c in self.boundary({T: Q(1)}, k + 1).items()), Q(0))
            if acc:
                out[T] = -acc
        return out

    def coboundary_test(self, cochain: Chain, k: int) -> Optional[Chain]:
        """A (k-1)-cochain b with d_CE b = cochain, or None."""
        rows = self.basis(k)
        cols = self.basis(k - 1)
        if not cols:
            return {} if not any(cochain.values()) else None
        if not rows:
            return {}
        matrix = []
        for T in rows:  # row T of d_CE is -delta(T)
            dT = self.boundary({T: Q(1)}, k)
            matrix.append([-dT.get(S, Q(0)) for S in cols])
        rhs = [cochain.get(T, Q(0)) for T in rows]
        sol, _free = linalg.solve(matrix, rhs)
        if sol is None:
            return None
        return {cols[i]: sol[i] for i in range(len(cols)) if sol[i]}


# ---------------------------------------------------------------------------
# actions, obstructions, comoments
# ---------------------------------------------------------------------------


class LieAction(Record):
    """Generators zeta(e_i) on a chart realizing the structure constants.

    ``surrogate=True`` declares the bracket relations instead of checking
    them as coordinate vector fields (left-invariant frames of a group
    carried at the algebra level).
    """

    __slots__ = ("algebra", "generators", "surrogate")

    def __init__(self, algebra: LieAlgebraData, generators: Sequence,
                 surrogate: bool = False):
        gens = tuple(generators)
        if len(gens) != algebra.dim:
            raise ShapeError("one generator per basis element required")
        ch = gens[0].chart
        for X in gens:
            if X.degree != 1:
                raise DegreeError("generators must be vector fields")
            if X.chart != ch:
                raise ChartMismatch("generators on different charts")
        if not surrogate:
            d = algebra.dim
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    lhs = vf_bracket(gens[i - 1], gens[j - 1])
                    rhs = MultiVec(ch, 1, {})
                    for k, coeff in enumerate(algebra.basis_bracket(i, j)):
                        if coeff:
                            rhs = rhs + gens[k].scale(coeff)
                    if lhs != rhs:
                        raise HomomorphismViolation(
                            f"[zeta(e{i}), zeta(e{j})] does not match the "
                            "structure constants"
                        )
        super().__init__(algebra, gens, surrogate)

    @property
    def chart(self) -> Chart:
        return self.generators[0].chart

    def preserves(self, w: DiffForm) -> bool:
        return all(lie_derivative(X, w).is_zero for X in self.generators)


class ObstructionReport(NamedTuple):
    """Componentwise certificate for one obstruction cochain g_i."""

    index: int
    cochain: dict                   # tuple -> DiffForm
    de_rham_exact: Optional[dict]   # tuple -> bool|None (for i <= n)
    ce_preimage: Optional[dict]     # for i = n+1 with constant values
    vanishes: Optional[bool]

    def __bool__(self):
        return bool(self.vanishes)


def _exact_if_closed(a: DiffForm) -> Optional[bool]:
    """Is the closed form a exact on its chart?  True for zero or when
    d(h a) == a, h the radial homotopy; False for a nonzero function or a
    failed check; None on a chart that is not star-shaped or at a pole."""
    if not a:
        return True
    if a.degree == 0:
        return False
    if not a.chart.star_shaped:
        return None
    try:
        return ext_d(poincare_homotopy(a)) == a
    except HomotopyPole:
        return None


def _contract_generators(act: LieAction, T: Sequence[int], a: DiffForm) -> DiffForm:
    """i_{z(e_tk)} .. i_{z(e_t1)} a for T = (t1, .., tk)."""
    for t in T:
        a = interior(act.generators[t - 1], a)
    return a


def obstruction_cochain(act: LieAction, w: DiffForm, index: int) -> ObstructionReport:
    """The iterated-contraction cochain (xi_1..xi_i) -> i_{z(xi_i)}..i_{z(xi_1)} w."""
    n = plectic_order(w, "an obstruction cochain")
    if not 1 <= index <= n + 1:
        raise DegreeError(f"obstruction index {index} outside 1..{n + 1}")
    if act.chart != w.chart:
        raise ChartMismatch("action and form on different charts")
    if not act.preserves(w):
        raise NotSymmetryAction("the action does not preserve the form")
    d = act.algebra.dim
    cochain = {T: _contract_generators(act, T, w)
               for T in combinations(range(1, d + 1), index)}
    if index <= n:
        exact = {T: False if ext_d(val) else _exact_if_closed(val)
                 for T, val in cochain.items()}
        flags = list(exact.values())
        vanishes: Optional[bool]
        if all(f is True for f in flags):
            vanishes = True
        elif any(f is False for f in flags):
            vanishes = False
        else:
            vanishes = None
        return ObstructionReport(index, cochain, exact, None, vanishes)
    # top index: values are functions; constants define a CE cochain
    consts: Chain = {}
    constant_ok = True
    for T, val in cochain.items():
        c = val.coeffs.get((), None)
        if c is None:
            continue
        if not c.is_constant:
            constant_ok = False
            break
        consts[T] = Q(c.constant_value())
    if not constant_ok:
        return ObstructionReport(index, cochain, None, None, None)
    pre = CEOperators(act.algebra).coboundary_test(consts, index)
    return ObstructionReport(index, cochain, None, pre, pre is not None)


class ComomentData(Record):
    """Skew maps f_i: Lambda^i g -> Omega^{n-i}(M), stored on sorted tuples."""

    __slots__ = ("algebra", "n", "maps")  # maps[i-1] is a dict tuple -> DiffForm

    def __hash__(self):  # the maps are dicts
        return hash((self.algebra, self.n, tuple(frozenset(m.items()) for m in self.maps)))

    def evaluate(self, i: int, indices: Sequence[int]) -> DiffForm:
        """Antisymmetric evaluation on (possibly unsorted) basis indices."""
        key, sign = sort_index_tuple(indices)
        if key is None:
            chart0 = next(iter(self.maps[0].values())).chart
            return DiffForm(chart0, self.n - i, {})
        val = self.maps[i - 1][key]
        return val if sign > 0 else -val


def comoment_from_potential(act: LieAction, eta: DiffForm, w: DiffForm,
                            potential_sign: int = 1) -> ComomentData:
    """Comoment f_k = (-1)^k (-1)^(k(k+1)/2) i_{z(xi_k)}..i_{z(xi_1)} eta
    from an invariant potential (d eta = w, or -w with potential_sign=-1)."""
    n = plectic_order(w, "a comoment")
    if eta.degree != n:
        raise DegreeError(f"potential must have degree {n}")
    target = w if potential_sign == 1 else -w
    if ext_d(eta) != target:
        raise NotInvariantPotential("d(eta) does not equal the requested form")
    for X in act.generators:
        if not lie_derivative(X, eta).is_zero:
            raise NotInvariantPotential("potential is not invariant under the action")
    d = act.algebra.dim
    maps = []
    for k in range(1, n + 1):
        sign = 1 if ((k + k * (k + 1) // 2) % 2 == 0) else -1
        comp = {}
        for T in combinations(range(1, d + 1), k):
            res = _contract_generators(act, T, eta)
            comp[T] = res if sign > 0 else -res
        maps.append(comp)
    return ComomentData(act.algebra, n, tuple(maps))


class ComomentReport(NamedTuple):
    lifting_residuals: dict      # basis index -> DiffForm (df1 + i_z w)
    relation_residuals: dict     # (i, tuple) -> DiffForm
    all_zero: bool
    kernel_note: str


def comoment_verify(act: LieAction, w: DiffForm, cm: ComomentData) -> ComomentReport:
    """Residuals of the lifting condition and the homotopy-morphism relations.

    Relation residual for i on a basis (i+1)-tuple T:
    -f_i(delta T) + l_1 f_{i+1}(T) + f_1^* l_{i+1}(T), with f_{n+1} = 0.
    Locally constant shifts of any f_{i+1} are invisible to l_1 f_{i+1}; the
    kernel note records this freedom.
    """
    n = plectic_order(w, "a comoment")
    if cm.n != n:
        raise DegreeError(f"comoment has {cm.n} components; the form needs {n}")
    d = act.algebra.dim
    lifting = {}
    for i in range(1, d + 1):
        f1 = cm.evaluate(1, [i])
        lifting[i] = ext_d(f1) + interior(act.generators[i - 1], w)
    ce = CEOperators(act.algebra)
    relations = {}
    for i in range(1, n + 1):
        for T in combinations(range(1, d + 1), i + 1):
            acc = DiffForm(w.chart, n - i, {})
            for S, c in ce.boundary({T: Q(1)}, i + 1).items():
                acc = acc - cm.evaluate(i, S).scale(c)
            if i + 1 <= n:
                acc = acc + ext_d(cm.evaluate(i + 1, list(T)))
            # f_1^* l_{i+1}(T): the bracket formula on the action's fields
            acc = acc + _rogers_bracket(w, [act.generators[t - 1] for t in T])
            relations[(i, T)] = acc
    all_zero = all(v.is_zero for v in lifting.values()) and all(
        v.is_zero for v in relations.values()
    )
    note = (
        "relations see f_{i+1} only through d for i < n; locally constant "
        "shifts of higher components are undetectable"
    )
    return ComomentReport(lifting, relations, all_zero, note)


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

STRICT = "Strict"
CONSERVED = "Conserved"
LOCALLY = "LocallyConserved"
NOT_CONSERVED = "None"
UNDET = "Undetermined"


def conserved_classify(w: DiffForm, H: Observable, alpha: DiffForm) -> str:
    """Classify L_{X_H} alpha: zero / exact / closed / none."""
    if H.ham_field is None:
        raise DegreeError("H must be a Hamiltonian top-degree observable")
    L = lie_derivative(H.ham_field, alpha)
    if L.is_zero:
        return STRICT
    if not ext_d(L).is_zero:
        return NOT_CONSERVED
    exact = _exact_if_closed(L)
    if exact is None:
        return UNDET if w.chart.star_shaped else LOCALLY
    return CONSERVED if exact else LOCALLY

"""Determinant-one polynomial automorphisms of C^n over Gaussian rationals.

Moves any k distinct points to any k distinct targets by the classical
three-step construction: a det-1 linear map separating first coordinates,
an interpolation shear flattening the middle block and staircasing the last
coordinate onto the markers (0,..,0,j), and a final shear clearing the first
coordinate.  Every step has unit Jacobian determinant, so the composition
does too (chain rule), and the realified maps preserve Re(dz^1 ^ .. ^ dz^n)
exactly.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import linalg
from .catalog import complex_volume_re
from .errors import (
    DuplicatePoints,
    NonPolynomial,
    ShapeError,
)
from .exterior import Chart, DiffForm, SmoothMap, chart, constant_linear_pullback, pullback
from .record import Record
from .scalar import GaussianRational, RationalExpr, ScalarExpr, _gaussian, _gaussian_parts

Q = Fraction
GR = GaussianRational

Point = Tuple[GaussianRational, ...]


def as_point(values: Sequence) -> Point:
    return tuple(GR.ensure(v) for v in values)


# ---------------------------------------------------------------------------
# univariate polynomials over Q(i)
# ---------------------------------------------------------------------------


class Poly(Record):
    """Univariate polynomial, ascending coefficients over Q(i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [GR.ensure(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        super().__init__(tuple(cs))

    @classmethod
    def interpolate(cls, xs: Sequence[GaussianRational],
                    ys: Sequence[GaussianRational]) -> "Poly":
        """Newton interpolation through (xs[t], ys[t]): divided differences,
        then Horner's rule into ascending coefficients."""
        if len(xs) != len(ys):
            raise ShapeError("interpolation needs matching point lists")
        if len(set(xs)) != len(xs):
            raise DuplicatePoints("interpolation nodes must be distinct")
        c = list(ys)
        for j in range(1, len(xs)):
            for t in range(len(xs) - 1, j - 1, -1):
                c[t] = (c[t] - c[t - 1]) / (xs[t] - xs[t - j])
        coeffs: List[GaussianRational] = []
        for t in reversed(range(len(xs))):  # c[t] + (X - xs[t]) * coeffs
            coeffs = [s - xs[t] * a for s, a in zip([GR(0)] + coeffs, coeffs + [GR(0)])]
            coeffs[0] = coeffs[0] + c[t]
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, x: GaussianRational) -> GaussianRational:
        """P(x) by homogenised Horner over Gaussian integers: for x = (p + q i)/r
        and L the lcm of the coefficient denominators, L r^m P(x) is a Gaussian
        integer, so the loop makes no fraction and one gcd reduces the result."""
        parts = [_gaussian_parts(c) for c in self.coeffs]
        p, q, r = _gaussian_parts(x)
        den = math.lcm(*(d for _a, _b, d in parts))
        re = im = 0
        scale = top = den  # scale is L r^(m-k) at the k-th coefficient
        for a, b, d in reversed(parts):
            s = scale // d
            re, im = re * p - im * q + a * s, re * q + im * p + b * s
            top, scale = scale, scale * r
        return _gaussian(re, im, top)

    def __bool__(self):
        return bool(self.coeffs)

    def as_expr(self, dim: int, var: int) -> ScalarExpr:
        terms = {}
        for p, c in enumerate(self.coeffs):
            if c:
                exps = [0] * dim
                exps[var - 1] = p
                terms[tuple(exps)] = c
        return ScalarExpr._raw(dim, terms)


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------


class LinearStep(Record):
    """x -> M x with det(M) = 1 exactly."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Sequence):
        m = tuple(tuple(GR.ensure(v) for v in row) for row in matrix)
        n = len(m)
        if any(len(row) != n for row in m):
            raise ShapeError("linear step matrix must be square")
        if linalg.det([list(r) for r in m]) != GR(1):
            raise ShapeError("linear step must have determinant one")
        super().__init__(m)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, p: Point) -> Point:
        return tuple(sum(map(operator.mul, row[1:], p[1:]), row[0] * p[0]) for row in self.matrix)

    def inverse(self) -> "LinearStep":
        inv = linalg.mat_inverse([list(r) for r in self.matrix])
        return LinearStep(inv)

    def components(self) -> List[ScalarExpr]:
        n = self.dim
        out = []
        for i in range(n):
            terms = {}
            for j in range(n):
                if self.matrix[i][j]:
                    exps = [0] * n
                    exps[j] = 1
                    terms[tuple(exps)] = self.matrix[i][j]
            out.append(ScalarExpr._raw(n, terms))
        return out


class ShearStep(Record):
    """Axis shear with polynomial offsets; unit triangular Jacobian.

    kind 'rest_by_first': (x, y, z) -> (x, y + s P(x), z + s Q(x)) with
    polys = (P_1 .. P_{n-2}, Q); kind 'first_by_last':
    (x, .., z) -> (x + s P(z), .., z) with polys = (P,).  s = -1 for the
    forward construction steps, +1 for their inverses.
    """

    __slots__ = ("kind", "dim", "polys", "sign")

    def __init__(self, kind: str, dim: int, polys: tuple, sign: int = -1):
        if kind not in ("rest_by_first", "first_by_last"):
            raise ShapeError(f"unknown shear kind {kind!r}")
        if sign not in (-1, 1):
            raise ShapeError("shear sign must be +1 or -1")
        expected = dim - 1 if kind == "rest_by_first" else 1
        if len(polys) != expected:
            raise ShapeError(
                f"{kind} shear in dimension {dim} needs {expected} polynomials"
            )
        super().__init__(kind, dim, polys, sign)

    def apply(self, p: Point) -> Point:
        move = operator.add if self.sign > 0 else operator.sub
        if self.kind == "rest_by_first":
            x = p[0]
            return (x,) + tuple(move(p[i + 1], poly(x)) for i, poly in enumerate(self.polys))
        return (move(p[0], self.polys[0](p[-1])),) + p[1:]

    def inverse(self) -> "ShearStep":
        return ShearStep(self.kind, self.dim, self.polys, -self.sign)

    def components(self) -> List[ScalarExpr]:
        n = self.dim
        comps = []
        sign = Q(self.sign)
        for i in range(n):
            base = ScalarExpr.variable(n, i + 1)
            if self.kind == "rest_by_first" and i >= 1:
                offs = self.polys[i - 1].as_expr(n, 1).scale(sign)
                base = base + offs
            elif self.kind == "first_by_last" and i == 0:
                offs = self.polys[0].as_expr(n, n).scale(sign)
                base = base + offs
            comps.append(base)
        return comps


class PolyAuto(Record):
    """Composition of elementary determinant-one steps (first step first)."""

    __slots__ = ("dim", "steps")

    def __init__(self, dim: int, steps: tuple):
        for s in steps:
            if getattr(s, "dim", None) != dim:
                raise ShapeError("step dimension mismatch")
        super().__init__(dim, steps)

    def apply(self, p: Sequence) -> Point:
        pt = as_point(p)
        if len(pt) != self.dim:
            raise ShapeError("point dimension mismatch")
        for s in self.steps:
            pt = s.apply(pt)
        return pt

    def inverse(self) -> "PolyAuto":
        return PolyAuto(self.dim, tuple(s.inverse() for s in reversed(self.steps)))

    def compose(self, first: "PolyAuto") -> "PolyAuto":
        """self o first (apply ``first``, then self)."""
        if first.dim != self.dim:
            raise ShapeError("composition dimension mismatch")
        return PolyAuto(self.dim, first.steps + self.steps)


# ---------------------------------------------------------------------------
# the constructive moves
# ---------------------------------------------------------------------------


def _spiral_covectors(n: int):
    """Integer covectors ordered by max-norm shells, deterministic."""
    for shell in itertools.count(1):
        for tup in itertools.product(range(-shell, shell + 1), repeat=n):
            if max(abs(t) for t in tup) != shell:
                continue
            yield tup


def separating_linear_map(points: Sequence[Point], n: int) -> LinearStep:
    """Det-1 linear map giving the points pairwise distinct first coordinates."""
    pts = [as_point(p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("points must be pairwise distinct")
    if n < 2:
        raise ShapeError("need ambient dimension at least 2")
    diffs = []
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            diffs.append(tuple(x - y for x, y in zip(pts[a], pts[b])))
    if not diffs:
        return LinearStep([[int(i == j) for j in range(n)] for i in range(n)])
    phi = None
    for cand in _spiral_covectors(n):
        vec = [GR(c) for c in cand]
        ok = True
        for dvec in diffs:
            val = GR(0)
            for cv, dv in zip(vec, dvec):
                val = val + cv * dv
            if not val:
                ok = False
                break
        if ok:
            phi = vec
            break
    # phi and the unit rows away from phi's last nonzero entry are a basis
    last = max(i for i, v in enumerate(phi) if v)
    rows = [phi] + [[GR(1) if j == i else GR(0) for j in range(n)]
                    for i in range(n) if i != last]
    d = linalg.det([list(r) for r in rows])
    inv = GR(1) / d
    rows[-1] = [v * inv for v in rows[-1]]
    return LinearStep(rows)


def _normalizing_auto(points: Sequence[Point], n: int) -> PolyAuto:
    """Auto of determinant one sending the points to the markers (0,..,0,j)."""
    pts = [as_point(p) for p in points]
    k = len(pts)
    T = separating_linear_map(pts, n)
    pts = [T.apply(p) for p in pts]
    xs = [p[0] for p in pts]
    markers = [GR(j) for j in range(1, k + 1)]
    polys = []
    for mid in range(1, n - 1):
        polys.append(Poly.interpolate(xs, [p[mid] for p in pts]))
    polys.append(Poly.interpolate(xs, [p[-1] - m for p, m in zip(pts, markers)]))
    shear2 = ShearStep("rest_by_first", n, tuple(polys), -1)
    pts = [shear2.apply(p) for p in pts]
    shear3 = ShearStep("first_by_last", n, (Poly.interpolate(markers, xs),), -1)
    pts = [shear3.apply(p) for p in pts]
    expected = [tuple([GR(0)] * (n - 1) + [m]) for m in markers]
    if pts != expected:
        raise ShapeError("normalization failed to reach the markers")  # pragma: no cover
    return PolyAuto(n, (T, shear2, shear3))


def move_points(src: Sequence[Sequence], dst: Sequence[Sequence],
                n: int) -> PolyAuto:
    """Det-1 polynomial automorphism of C^n mapping src_j to dst_j exactly."""
    if n < 2:
        raise ShapeError("need ambient dimension at least 2")
    src_pts = [as_point(p) for p in src]
    dst_pts = [as_point(p) for p in dst]
    if len(src_pts) != len(dst_pts):
        raise ShapeError("source and target lists differ in length")
    for pts in (src_pts, dst_pts):
        if len(set(pts)) != len(pts):
            raise DuplicatePoints("points must be pairwise distinct")
        for p in pts:
            if len(p) != n:
                raise ShapeError("point dimension mismatch")
    if not src_pts:  # the separating map of no points is the identity
        return PolyAuto(n, (separating_linear_map(src_pts, n),))
    fwd = _normalizing_auto(src_pts, n)
    back = _normalizing_auto(dst_pts, n).inverse()
    result = back.compose(fwd)
    for p, q in zip(src_pts, dst_pts):
        if result.apply(p) != q:
            raise ShapeError("move verification failed")  # pragma: no cover
    return result


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def _step_jacobian_det(step) -> ScalarExpr:
    """Symbolic Jacobian determinant of one elementary step: for a linear
    step the determinant of its own matrix, for a shear that of the
    partials of its polynomial components."""
    if isinstance(step, LinearStep):
        return ScalarExpr.const(step.dim, linalg.det([list(r) for r in step.matrix]))
    if not isinstance(step, ShearStep):
        raise ShapeError(f"unknown step {step!r}")
    comps = step.components()
    one = ScalarExpr.const(step.dim, 1)
    jac = [[RationalExpr._raw(c.partial(j), one) for j in range(1, step.dim + 1)] for c in comps]
    det = linalg.det(jac)
    if not det.den_is_one:
        raise ShapeError("step Jacobian determinant must be polynomial")
    return det.num


def jacobian_determinant(f) -> RationalExpr:
    """Symbolic Jacobian determinant.

    For a PolyAuto this is the product of the per-step symbolic determinants
    (the chain rule makes the composition's determinant the product of the
    steps', each one constant); for a polynomial SmoothMap the determinant of
    its Jacobian matrix.
    """
    if isinstance(f, PolyAuto):
        acc = ScalarExpr.const(f.dim, 1)
        for s in f.steps:
            acc = acc * _step_jacobian_det(s)
        return RationalExpr(acc)
    if isinstance(f, SmoothMap):
        if f.source.dim != f.target.dim:
            raise ShapeError("Jacobian determinant needs a square map")
        if not f.is_polynomial():
            raise NonPolynomial("Jacobian determinant needs polynomial components")
        jac = f.jacobian()
        return linalg.det(jac)
    raise ShapeError(f"unsupported input {type(f).__name__}")


# ---------------------------------------------------------------------------
# realification
# ---------------------------------------------------------------------------


def interleaved_chart(n: int) -> Chart:
    """Chart of R^{2n} with z_j = x_{2j-1} + i x_{2j}."""
    return chart(2 * n)


def _realify_into(re_terms: dict, im_terms: dict, coeffs: Sequence, var: int,
                  sign: int, dim2: int) -> None:
    """Add Re and Im of sign * sum_p coeffs[p] z^p, z = x_{2var+1} + i x_{2var+2}
    (var 0-based), into the term dicts, by one binomial expansion per
    coefficient: (x + i y)^p = sum_k C(p, k) x^(p-k) y^k i^k.  Each (p, k)
    has its own key, so a call adds to no key it wrote itself; for p = 1 it
    writes the real block [[a, -b], [b, a]]/d of a coefficient (a + b i)/d."""
    for p, c in enumerate(coeffs):
        if not c:
            continue
        a, b, d = _gaussian_parts(c)
        a, b = sign * a, sign * b
        for k in range(p + 1):
            exps = [0] * dim2
            exps[2 * var] = p - k
            exps[2 * var + 1] = k
            key = tuple(exps)
            m = math.comb(p, k)
            # (a + b*i) * i^k
            re, im = ((a, b), (-b, a), (-a, -b), (b, -a))[k % 4]
            if re:
                re_terms[key] = Q(re * m, d)
            if im:
                im_terms[key] = Q(im * m, d)


def realify_step(step, n: int) -> SmoothMap:
    """One elementary step as a real polynomial map on R^{2n}, built from the
    step's own matrix or polynomials.  The pieces of one complex component
    are in different variables, and at most one has a constant term, so no
    two of them write the same key."""
    if not isinstance(step, (LinearStep, ShearStep)):
        raise ShapeError(f"unknown step {step!r}")
    dim2 = 2 * n
    one = ScalarExpr.const(dim2, 1)
    out: List[RationalExpr] = []
    for i in range(n):
        re, im = {}, {}
        if isinstance(step, LinearStep):
            for j, m in enumerate(step.matrix[i]):
                _realify_into(re, im, (0, m), j, 1, dim2)
        else:
            _realify_into(re, im, (0, 1), i, 1, dim2)
            if step.kind == "rest_by_first" and i >= 1:
                _realify_into(re, im, step.polys[i - 1].coeffs, 0, step.sign, dim2)
            elif step.kind == "first_by_last" and i == 0:
                _realify_into(re, im, step.polys[0].coeffs, n - 1, step.sign, dim2)
        out.append(RationalExpr._raw(ScalarExpr._raw(dim2, re), one))
        out.append(RationalExpr._raw(ScalarExpr._raw(dim2, im), one))
    ch = interleaved_chart(n)
    return SmoothMap(ch, ch, tuple(out))


def _linear_matrix(f: SmoothMap):
    """M with f(x) = M x, when f maps a chart to itself and every component
    is a linear form with Fraction coefficients; otherwise None."""
    if f.source != f.target:
        return None
    dim = f.source.dim
    rows = []
    for c in f.components:
        if not c.den_is_one:
            return None
        row = [Q(0)] * dim
        for exps, v in c.num.terms.items():
            if type(v) is not Q or exps.count(1) != 1 or exps.count(0) != dim - 1:
                return None
            row[exps.index(1)] = v
        rows.append(row)
    return rows


class RealifiedAuto(Record):
    """Realified steps of a PolyAuto, applied first step first."""

    __slots__ = ("n", "steps")  # steps are SmoothMaps on R^{2n}

    @property
    def chart(self) -> Chart:
        return self.steps[0].source

    def apply(self, point: Sequence) -> List[Fraction]:
        pt = list(point)
        for s in self.steps:
            pt = s.apply(pt)
        return pt

    def pullback(self, a: DiffForm) -> DiffForm:
        """Pullback through the composition, telescoped step by step.  A
        linear step pulls a constant-coefficient form back through the
        integer minors of its matrix (``constant_linear_pullback``); every
        other case goes through the general ``pullback``."""
        out = a
        for s in reversed(self.steps):
            matrix = _linear_matrix(s)
            if matrix is not None and all(c.is_constant for c in out.coeffs.values()):
                out = constant_linear_pullback(out, matrix)
            else:
                out = pullback(s, out)
        return out


def realify_and_check(auto: PolyAuto) -> Tuple[RealifiedAuto, bool]:
    """Realify an automorphism and verify it preserves Re(dz^1 ^ .. ^ dz^n).

    The invariance check pulls the volume form back through the composition
    (step by step, which is the same pullback by functoriality) and compares
    with the original form exactly.
    """
    n = auto.dim
    steps = tuple(realify_step(s, n) for s in auto.steps)
    realified = RealifiedAuto(n, steps)
    vol = complex_volume_re(n)
    preserved = realified.pullback(vol) == vol
    return realified, preserved

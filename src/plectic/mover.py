"""Determinant-one polynomial automorphisms of C^n over Gaussian rationals.

Moves any k distinct points to any k distinct targets by the classical
three-step construction: a det-1 linear map separating first coordinates
(only when two of them coincide), an interpolation shear flattening the
middle block and staircasing the last coordinate onto the markers
(0,..,0,j), and a final shear clearing the first coordinate.  A move runs
the sources' construction, then the inverse of the targets';
``PolyAuto.compose`` fuses adjacent steps of one kind, so its two middle
shears are one and it has three steps (S_rest, S_first, S_rest), plus a
linear step L at each end whose points repeat a first coordinate.
Every step has unit Jacobian determinant, so the composition does too (chain
rule), and the realified maps preserve Re(dz^1 ^ .. ^ dz^n) exactly.
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
from .exterior import Chart, DiffForm, SmoothMap, chart, pullback
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
        if linalg.det(m) != GR(1):
            raise ShapeError("linear step must have determinant one")
        super().__init__(m)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, p: Point) -> Point:
        return tuple(sum(map(operator.mul, row[1:], p[1:]), row[0] * p[0]) for row in self.matrix)

    def inverse(self) -> "LinearStep":
        inv = linalg.mat_inverse(self.matrix)
        return LinearStep(inv)

    def pieces(self) -> List[list]:
        """Per component i, its pieces M[i][j] z_j as (j, (0, M[i][j]), 1)."""
        return [[(j, (0, m), 1) for j, m in enumerate(row) if m] for row in self.matrix]


# The component each polynomial of a shear moves and the variable it reads
# (both 0-based), by kind, in dimension n.
_SHEAR_SHAPES = {
    "rest_by_first": lambda n: [(i, 0) for i in range(1, n)],
    "first_by_last": lambda n: [(0, n - 1)],
}


class ShearStep(Record):
    """Axis shear with polynomial offsets; unit triangular Jacobian.

    kind 'rest_by_first': (x, y, z) -> (x, y + s P(x), z + s Q(x)) with
    polys = (P_1 .. P_{n-2}, Q); kind 'first_by_last':
    (x, .., z) -> (x + s P(z), .., z) with polys = (P,).  s = -1 for the
    forward construction steps, +1 for their inverses.
    """

    __slots__ = ("kind", "dim", "polys", "sign")

    def __init__(self, kind: str, dim: int, polys: tuple, sign: int = -1):
        if kind not in _SHEAR_SHAPES:
            raise ShapeError(f"unknown shear kind {kind!r}")
        if sign not in (-1, 1):
            raise ShapeError("shear sign must be +1 or -1")
        if dim < 2:
            raise ShapeError(f"a shear needs dimension >= 2, not {dim}")
        expected = len(_SHEAR_SHAPES[kind](dim))
        if len(polys) != expected:
            raise ShapeError(
                f"{kind} shear in dimension {dim} needs {expected} polynomials"
            )
        super().__init__(kind, dim, polys, sign)

    def _offsets(self):
        """((component, variable), polynomial) for each polynomial."""
        return zip(_SHEAR_SHAPES[self.kind](self.dim), self.polys)

    def apply(self, p: Point) -> Point:
        move = operator.add if self.sign > 0 else operator.sub
        out = list(p)
        for (i, var), poly in self._offsets():
            out[i] = move(p[i], poly(p[var]))
        return tuple(out)

    def inverse(self) -> "ShearStep":
        return ShearStep(self.kind, self.dim, self.polys, -self.sign)

    def pieces(self) -> List[list]:
        """Per component i, its pieces: z_i as (i, (0, 1), 1), and s P(z_var)
        as (var, P's coefficients, s) where a polynomial moves it."""
        out = [[(i, (0, 1), 1)] for i in range(self.dim)]
        for (i, var), poly in self._offsets():
            out[i].append((var, poly.coeffs, self.sign))
        return out


class PolyAuto(Record):
    """Composition of elementary determinant-one steps (first step first),
    each a LinearStep or a ShearStep of the automorphism's dimension."""

    __slots__ = ("dim", "steps")

    def __init__(self, dim: int, steps: tuple):
        for s in steps:
            if not isinstance(s, (LinearStep, ShearStep)):
                raise ShapeError(f"unknown step {s!r}")
            if s.dim != dim:
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
        """self o first (apply ``first``, then self).  The joined steps fold
        left to right, each fusing with the one before it when both are linear
        (M2 M1) or shears of one kind (each fixes the variable its polynomials
        read: sign +1, polynomials s1 P1 + s2 P2).  A fused identity is
        dropped, so the step before it may fuse with the next; when nothing is
        left the result is the identity linear step.  A move has at most five
        steps, three when no first coordinate repeats."""
        if first.dim != self.dim:
            raise ShapeError("composition dimension mismatch")
        stack: list = []
        for step in first.steps + self.steps:
            fused = _fuse(stack[-1], step) if stack else None
            if fused is None:
                stack.append(step)
            else:
                stack[-1:] = fused
        return PolyAuto(self.dim, tuple(stack) or (_identity(self.dim),))


def _identity(n: int) -> LinearStep:
    return LinearStep([[int(i == j) for j in range(n)] for i in range(n)])


def _fuse(a, b):
    """[``a`` then ``b`` as one step], [] for the identity, None for two kinds."""
    if isinstance(a, LinearStep) and isinstance(b, LinearStep):
        m = LinearStep(tuple(zip(*(b.apply(col) for col in zip(*a.matrix)))))
        return [] if m == _identity(a.dim) else [m]
    if isinstance(a, ShearStep) and isinstance(b, ShearStep) and a.kind == b.kind:
        polys = tuple(Poly([a.sign * u + b.sign * v for u, v in
                            itertools.zip_longest(p.coeffs, q.coeffs, fillvalue=GR(0))])
                      for p, q in zip(a.polys, b.polys))
        return [ShearStep(a.kind, a.dim, polys, 1)] if any(polys) else []
    return None


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
        return _identity(n)
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
    d = linalg.det(rows)
    inv = GR(1) / d
    rows[-1] = [v * inv for v in rows[-1]]
    return LinearStep(rows)


def _normalizing_auto(points: Sequence[Point], n: int) -> PolyAuto:
    """Auto of determinant one sending the points to the markers (0,..,0,j).
    The interpolation needs pairwise distinct first coordinates, so a
    separating linear step comes first only when two of them coincide."""
    pts = [as_point(p) for p in points]
    k = len(pts)
    steps: tuple = ()
    if len({p[0] for p in pts}) != k:
        T = separating_linear_map(pts, n)
        pts = [T.apply(p) for p in pts]
        steps = (T,)
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
    return PolyAuto(n, steps + (shear2, shear3))


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


def _step_jacobian_det(step) -> RationalExpr:
    """Jacobian determinant of one elementary step, from its pieces: entry
    (i, var) is s P'(z_var) for the piece (var, P, s) of component i, since
    the pieces of one component read different variables.  A constant entry
    stays a number, so a linear step's determinant is that of its matrix, and
    a shear's triangular one is the product of its diagonal."""
    n = step.dim
    one = ScalarExpr.const(n, 1)
    jac = [[0] * n for _ in range(n)]
    for i, comp in enumerate(step.pieces()):
        for var, coeffs, sign in comp:
            slope = [sign * p * c for p, c in enumerate(coeffs) if p]
            jac[i][var] = (RationalExpr._raw(Poly(slope).as_expr(n, var + 1), one)
                           if len(slope) > 1 else sum(slope))
    det = RationalExpr._coerce(linalg.det(jac), n)
    if not det.den_is_one:
        raise ShapeError("step Jacobian determinant must be polynomial")
    return det


def jacobian_determinant(f) -> RationalExpr:
    """Symbolic Jacobian determinant.

    For a PolyAuto this is the product of the per-step determinants (the
    chain rule makes the composition's determinant the product of the
    steps', each one constant); for a polynomial SmoothMap the determinant of
    its Jacobian matrix.
    """
    if isinstance(f, PolyAuto):
        acc = RationalExpr.const(f.dim, 1)
        for s in f.steps:
            acc = acc * _step_jacobian_det(s)
        return acc
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
    """One elementary step as a real polynomial map on R^{2n}: the Re and Im
    parts of each component, summed over the step's own pieces.  The pieces
    of one component read different variables, and at most one has a
    constant term, so no two of them write the same key."""
    dim2 = 2 * n
    one = ScalarExpr.const(dim2, 1)
    out: List[RationalExpr] = []
    for comp in step.pieces():
        re, im = {}, {}
        for var, coeffs, sign in comp:
            _realify_into(re, im, coeffs, var, sign, dim2)
        out.append(RationalExpr._raw(ScalarExpr._raw(dim2, re), one))
        out.append(RationalExpr._raw(ScalarExpr._raw(dim2, im), one))
    ch = interleaved_chart(n)
    return SmoothMap(ch, ch, tuple(out))


class RealifiedAuto(Record):
    """Realified steps of a PolyAuto, applied first step first."""

    __slots__ = ("n", "steps")  # steps are SmoothMaps on R^{2n}

    def apply(self, point: Sequence) -> List[Fraction]:
        pt = list(point)
        for s in self.steps:
            pt = s.apply(pt)
        return pt

    def pullback(self, a: DiffForm) -> DiffForm:
        """Pullback through the composition, telescoped step by step."""
        for s in reversed(self.steps):
            a = pullback(s, a)
        return a


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

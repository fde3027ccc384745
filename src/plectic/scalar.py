"""Exact scalar arithmetic underlying the whole workbench.

A :class:`ScalarExpr` is a finite sum of monomials ``c * x1^e1 * ... * xN^eN``
with rational coefficients and *rational* exponents (so ``x2^(1/2)`` and
``x2^(-3/2)`` are ordinary monomials).  The point-mover uses the same term
structure with Gaussian-rational coefficients; a :class:`GaussianRational` is
stored as three integers ``(a, b, d)``, standing for ``(a + b*i)/d`` with
``d > 0`` and ``gcd(a, b, d) == 1``.  A :class:`RationalExpr` is a quotient
``num/den`` whose denominator is kept monic under the graded-lexicographic
term order; equality of quotients is decided by comparing numerators over
equal denominators, else by cross-multiplication, and no gcd cancellation is
attempted beyond that normalization.

Normal form.  The public constructors bring their input into it; the
arithmetic builds results that are already in it and wraps them with the
unchecked ``ScalarExpr._raw`` / ``RationalExpr._raw``:

- every exponent entry is an ``int`` when integral and a ``Fraction``
  otherwise (a sum of two Fraction entries can be integral, so products
  convert it back);
- every coefficient is a nonzero ``Fraction`` or ``GaussianRational``
  (sums drop the terms that cancel);
- the denominator is monic, and a zero numerator has the constant 1 as its
  denominator.

Variables are positional (``x1 .. xN``); whether a variable may carry a
fractional exponent is a property of the owning chart and is validated where
charts are known (see :mod:`plectic.exterior`).
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    DomainViolation,
    IrrationalValue,
    ParseError,
    ShapeError,
)

Q = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, Rational):
        return Fraction(v)
    raise ShapeError(f"not an exact rational: {v!r}")


class GaussianRational:
    """Element of Q(i), stored as three integers.

    ``(a, b, d)`` stands for ``(a + b*i)/d`` with ``d > 0`` and
    ``gcd(a, b, d) == 1``, so each value has exactly one representation and
    every result costs one three-way gcd; ``+``, ``-`` and ``*`` read the
    operands' integers and reduce inline.  ``re`` and ``im`` are read-only
    :class:`Fraction` views.  A real value hashes like its Fraction (like its
    int when integral); any other value hashes its three integers.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _as_fraction(re), _as_fraction(im)
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_D(self, d)

    @classmethod
    def ensure(cls, v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        return cls(_as_fraction(v))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    @property
    def denominator(self) -> int:
        """The least d > 0 that makes d times the value a Gaussian integer."""
        return self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = _gaussian_raw(other.numerator, 0, other.denominator)
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        if d == f:
            a, b = a + c, b + e
        else:
            a, b, d = a * f + c * d, b * f + e * d, d * f
        g = gcd(a, b, d)
        return _gaussian_raw(a // g, b // g, d // g)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = _gaussian_raw(other.numerator, 0, other.denominator)
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        if d == f:
            a, b = a - c, b - e
        else:
            a, b, d = a * f - c * d, b * f - e * d, d * f
        g = gcd(a, b, d)
        return _gaussian_raw(a // g, b // g, d // g)

    def __rsub__(self, other):
        o = _gaussian_parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b, d = self._a, self._b, self._d
        return _gaussian(c * d - a * f, e * d - b * f, d * f)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = _gaussian_raw(other.numerator, 0, other.denominator)
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        a, b, d = a * c - b * e, a * e + b * c, d * f
        g = gcd(a, b, d)
        return _gaussian_raw(a // g, b // g, d // g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _gaussian_parts(other)
        if o is None:
            return NotImplemented
        return _gaussian_quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = _gaussian_parts(other)
        if o is None:
            return NotImplemented
        return _gaussian_quotient(*o, self._a, self._b, self._d)

    def __pow__(self, k):
        """Integer power; a negative power of zero raises DivisionByZero."""
        if type(k) is not int:
            return NotImplemented
        p = GaussianRational(1)
        for _ in range(abs(k)):
            p = p * self
        return p if k >= 0 else 1 / p

    def __neg__(self):
        return _gaussian_raw(-self._a, -self._b, self._d)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, Rational):
            return not self._b and self._a * other.denominator == other.numerator * self._d
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))  # as == demands

    def __bool__(self):
        return bool(self._a or self._b)

    def conjugate(self):
        return _gaussian_raw(self._a, -self._b, self._d)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imp = "i" if abs(im) == 1 else f"{abs(im)}i"
        sign = "-" if im < 0 else "+"
        if re == 0:
            return f"{'-' if im < 0 else ''}{imp}"
        return f"{re}{sign}{imp}"

    __repr__ = __str__


_SET_A = GaussianRational._a.__set__
_SET_B = GaussianRational._b.__set__
_SET_D = GaussianRational._d.__set__


def _gaussian_raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d, trusting d > 0 and gcd(a, b, d) == 1."""
    z = object.__new__(GaussianRational)
    _SET_A(z, a)
    _SET_B(z, b)
    _SET_D(z, d)
    return z


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _gaussian_raw(a, b, d)


def _gaussian_quotient(a, b, d, c, e, f) -> GaussianRational:
    """((a + b*i)/d) / ((c + e*i)/f)."""
    n = c * c + e * e
    if not n:
        raise DivisionByZero("division by zero Gaussian rational")
    return _gaussian((a * c + b * e) * f, (b * c - a * e) * f, d * n)


def _gaussian_parts(v):
    """(a, b, d) with v == (a + b*i)/d, or None for a value outside Q(i)."""
    if type(v) is GaussianRational:
        return v._a, v._b, v._d
    if isinstance(v, Rational):
        return v.numerator, 0, v.denominator
    return None


Coeff = Union[Fraction, GaussianRational]


def _coeff(v) -> Coeff:
    if isinstance(v, GaussianRational):
        return v
    return _as_fraction(v)


def _integer_root(n: int, q: int) -> Optional[int]:
    """Exact q-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n < 2 or q == 1:
        return n
    if q == 2:
        r = math.isqrt(n)
    else:
        # integer Newton iteration from above converges to floor(n^(1/q))
        r = 1 << -(-n.bit_length() // q)
        while True:
            s = ((q - 1) * r + n // r ** (q - 1)) // q
            if s >= r:
                break
            r = s
    return r if r**q == n else None


def fraction_root(fr: Fraction, q: int) -> Optional[Fraction]:
    """Exact q-th root of a nonnegative rational, or None."""
    if fr < 0:
        return None
    a = _integer_root(fr.numerator, q)
    b = _integer_root(fr.denominator, q)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def fraction_pow(base: Fraction, e: Fraction) -> Fraction:
    """Exact base**e; raises when the result leaves Q."""
    if e.denominator == 1:
        k = e.numerator
        if k >= 0:
            return base**k
        if base == 0:
            raise DivisionByZero("0 raised to a negative power")
        return ONE / base**(-k)
    if base < 0:
        raise DomainViolation(
            f"fractional power of negative value {base}"
        )
    if base == 0:
        if e > 0:
            return ZERO
        raise DivisionByZero("0 raised to a negative power")
    root = fraction_root(base, e.denominator)
    if root is None:
        raise IrrationalValue(f"{base}^(1/{e.denominator}) is irrational")
    return fraction_pow(root, Fraction(e.numerator))


def _norm_exp(e):
    """Exponent entry: plain int when integral (cheap hashing), else Fraction.

    hash(Fraction(k)) == hash(k), so mixed tuples stay consistent dict keys;
    ints implement the Rational protocol, so .numerator/.denominator work
    uniformly downstream.
    """
    if type(e) is int:
        return e
    if isinstance(e, Fraction):
        return e.numerator if e.denominator == 1 else e
    f = _as_fraction(e)
    return f.numerator if f.denominator == 1 else f


def grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _value_hash(num: Mapping, den: Mapping) -> int:
    """Hash of num/den that depends only on its value.

    Equal quotients have num den' == num' den, and leading (and trailing)
    grlex terms multiply, so their ratios are the same in every form of a
    value.  A constant hashes like its Fraction, as == demands.
    """
    if not num:
        return hash(ZERO)
    ends = []
    for pick in (max, min):
        kn, kd = pick(num, key=grlex_key), pick(den, key=grlex_key)
        ends.append((tuple(a - b for a, b in zip(kn, kd)), num[kn] / den[kd]))
    if ends[0] == ends[1] and not any(ends[0][0]):
        return hash(ends[0][1])
    return hash(tuple(ends))


class ScalarExpr:
    """Normalized sum of monomials over ``dim`` positional variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, Coeff] | None = None):
        if dim < 1:
            raise ShapeError("chart dimension must be positive")
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != dim:
                    raise ShapeError(
                        f"exponent vector {exps} has length {len(exps)}, expected {dim}"
                    )
                key = tuple(_norm_exp(e) for e in exps)
                c = _coeff(c)
                if key in clean:
                    c = clean[key] + c
                if c:
                    clean[key] = c
                elif key in clean:
                    del clean[key]
        _SET_DIM(self, dim)
        _SET_TERMS(self, clean)

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "ScalarExpr":
        """Wrap ``terms`` already in normal form (module docstring), unchecked."""
        obj = object.__new__(cls)
        _SET_DIM(obj, dim)
        _SET_TERMS(obj, terms)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("ScalarExpr is immutable")

    __delattr__ = __setattr__

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, dim: int, c) -> "ScalarExpr":
        if dim < 1:
            raise ShapeError("chart dimension must be positive")
        c = _coeff(c)
        return cls._raw(dim, {(0,) * dim: c} if c else {})

    @classmethod
    def variable(cls, dim: int, index: int, exponent=1) -> "ScalarExpr":
        """Monomial x_index^exponent (index is 1-based)."""
        if not 1 <= index <= dim:
            raise ShapeError(f"variable index {index} out of range 1..{dim}")
        exps = [ZERO] * dim
        exps[index - 1] = _as_fraction(exponent)
        return cls(dim, {tuple(exps): ONE})

    @classmethod
    def monomial(cls, dim: int, coeff, exps: Sequence) -> "ScalarExpr":
        return cls(dim, {tuple(_as_fraction(e) for e in exps): _coeff(coeff)})

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_constant(self) -> bool:
        # Keys are unique, so a constant has no term or one with an all-zero key.
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self) -> Coeff:
        if not self.is_constant:
            raise ShapeError("expression is not constant")
        return next(iter(self.terms.values()), ZERO)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def fractional_vars(self) -> set:
        """1-based indices of variables carrying a non-integer exponent."""
        out = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e.denominator != 1:
                    out.add(i + 1)
        return out

    def used_vars(self) -> set:
        out = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    out.add(i + 1)
        return out

    def is_polynomial(self) -> bool:
        return all(
            e.denominator == 1 and e >= 0 for exps in self.terms for e in exps
        )

    # -- term order ---------------------------------------------------

    def leading_key(self) -> tuple:
        if self.is_zero:
            raise ShapeError("zero expression has no leading term")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> Coeff:
        return self.terms[self.leading_key()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "ScalarExpr"):
        if self.dim != other.dim:
            raise ShapeError(
                f"mixing expressions over {self.dim} and {other.dim} variables"
            )

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            if k in terms:
                c = terms[k] + c
                if not c:
                    del terms[k]
                    continue
            terms[k] = c
        return ScalarExpr._raw(self.dim, terms)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr._raw(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self + (-other)

    def __mul__(self, other: "ScalarExpr") -> "ScalarExpr":
        self._check(other)
        out: dict = {}
        right = other.terms.items()
        for ka, ca in self.terms.items():
            # only two Fraction entries can sum to an integer
            add = _add_exponents if Fraction in map(type, ka) else operator.add
            for kb, cb in right:
                k = tuple(map(add, ka, kb))
                c = ca * cb
                if k in out:
                    c = out[k] + c
                    if not c:
                        del out[k]
                        continue
                out[k] = c
        return ScalarExpr._raw(self.dim, out)

    def scale(self, c) -> "ScalarExpr":
        """Term-wise product with a constant; an int needs no Fraction of its own."""
        if type(c) not in _SCALARS:
            c = _coeff(c)
        if not c:
            return ScalarExpr._raw(self.dim, {})
        return ScalarExpr._raw(self.dim, {k: v * c for k, v in self.terms.items()})

    def pow_int(self, k: int) -> "ScalarExpr":
        if k < 0:
            raise ShapeError("use RationalExpr for negative powers")
        result = ScalarExpr.const(self.dim, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monomial_root(self, q: int) -> "ScalarExpr":
        """Exact q-th root of a single-term expression."""
        if len(self.terms) != 1:
            raise IrrationalValue("root of a non-monomial expression")
        (exps, c), = self.terms.items()
        if isinstance(c, GaussianRational):
            raise IrrationalValue("root of a Gaussian coefficient")
        root = fraction_root(c, q)
        if root is None:
            raise IrrationalValue(f"{c}^(1/{q}) is irrational")
        return ScalarExpr(self.dim, {tuple(Fraction(e) / q for e in exps): root})

    # -- calculus -----------------------------------------------------

    def partial(self, index: int, sign: int = 1) -> "ScalarExpr":
        """d/dx_index (1-based), term-wise power rule; a sign of -1 goes into
        each exponent factor, so the negated partial costs no extra copy."""
        if not 1 <= index <= self.dim:
            raise ShapeError(f"variable index {index} out of range 1..{self.dim}")
        i = index - 1
        out: dict = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:  # distinct terms keep distinct exponents: nothing merges
                f = e if sign > 0 else -e
                out[exps[:i] + (e - 1,) + exps[i + 1:]] = (
                    c if f == 1 else -c if f == -1 else c * f)
        return ScalarExpr._raw(self.dim, out)

    def eval(self, point: Sequence):
        """Evaluate exactly at a rational (or Gaussian-rational) point.

        Every fractional power must stay rational; :class:`IrrationalValue`
        is raised otherwise.
        """
        if len(point) != self.dim:
            raise ShapeError(f"point of length {len(point)}, expected {self.dim}")
        pt = [v if isinstance(v, GaussianRational) else _as_fraction(v) for v in point]
        total = None
        for exps, c in self.terms.items():
            acc = c
            for v, e in zip(pt, exps):
                if not e:
                    continue
                if isinstance(v, GaussianRational):
                    if e.denominator != 1:
                        raise IrrationalValue(
                            "fractional power of a Gaussian rational"
                        )
                    acc = acc * v ** e.numerator
                else:
                    acc = acc * fraction_pow(v, e)
            total = acc if total is None else total + acc
        return ZERO if total is None else total

    def substitute(self, components: Sequence["RationalExpr"]) -> "RationalExpr":
        """Compose: replace x_j by components[j-1] (RationalExprs)."""
        if len(components) != self.dim:
            raise ShapeError("component count does not match variable count")
        if not components:
            raise ShapeError("empty substitution")
        tdim = components[0].dim
        total = RationalExpr.const(tdim, 0)
        for exps, c in self.terms.items():
            acc = RationalExpr.const(tdim, c)
            for comp, e in zip(components, exps):
                if not e:
                    continue
                acc = acc * comp.pow_fraction(e)
            total = total + acc
        return total

    # -- comparison / io ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ScalarExpr):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == ScalarExpr.const(self.dim, other)
        return NotImplemented

    def __hash__(self):
        return _value_hash(self.terms, {(0,) * self.dim: ONE})

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"ScalarExpr({self!s})"


_SET_DIM = ScalarExpr.dim.__set__
_SET_TERMS = ScalarExpr.terms.__set__


def _add_exponents(a, b):
    """Sum of two exponent entries in normal form (an integral sum is an int)."""
    s = a + b
    return s.numerator if type(s) is Fraction and s.denominator == 1 else s


def _one(dim: int) -> ScalarExpr:
    return ScalarExpr._raw(dim, {(0,) * dim: ONE})


def _format_exponent(e: Fraction) -> str:
    if e == 1:
        return ""
    if e.denominator == 1 and e >= 0:
        return f"^{e.numerator}"
    return f"^({e})"


def _format_coeff(c: Coeff) -> str:
    if isinstance(c, GaussianRational):
        if c.is_real:
            return str(c.re)
        return f"({c})"
    return str(c)


def format_scalar(expr: ScalarExpr) -> str:
    """Canonical printing: graded-lex descending, exponents as p/q."""
    if expr.is_zero:
        return "0"
    parts = []
    for exps, c in expr.sorted_terms():
        factors = [
            f"x{i}{_format_exponent(e)}" for i, e in enumerate(exps, start=1) if e
        ]
        if not factors:
            body = _format_coeff(c)
            negative = not isinstance(c, GaussianRational) and c < 0
            if negative:
                body = _format_coeff(-c)
        else:
            negative = not isinstance(c, GaussianRational) and c < 0
            mag = -c if negative else c
            if mag == 1 and not isinstance(mag, GaussianRational):
                body = "*".join(factors)
            else:
                body = "*".join([_format_coeff(mag)] + factors)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


class RationalExpr:
    """Quotient of two ScalarExprs with a monic, nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: ScalarExpr, den: ScalarExpr | None = None):
        if den is None:
            den = _one(num.dim)
        if num.dim != den.dim:
            raise ShapeError("numerator and denominator dimensions differ")
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            den = _one(num.dim)
        else:
            lc = den.leading_coeff()
            if lc != 1:
                inv = (
                    GaussianRational(1) / lc
                    if isinstance(lc, GaussianRational)
                    else ONE / lc
                )
                num = num.scale(inv)
                den = den.scale(inv)
        _SET_NUM(self, num)
        _SET_DEN(self, den)

    @classmethod
    def _raw(cls, num: ScalarExpr, den: ScalarExpr) -> "RationalExpr":
        """Wrap num/den already in normal form (module docstring), unchecked."""
        obj = object.__new__(cls)
        _SET_NUM(obj, num)
        _SET_DEN(obj, den)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("RationalExpr is immutable")

    __delattr__ = __setattr__

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, dim: int, c) -> "RationalExpr":
        return cls._raw(ScalarExpr.const(dim, c), _one(dim))

    @classmethod
    def variable(cls, dim: int, index: int, exponent=1) -> "RationalExpr":
        return cls(ScalarExpr.variable(dim, index, exponent))

    # -- predicates ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.num.dim

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    @property
    def den_is_one(self) -> bool:
        return self.den.is_constant  # a constant monic denominator is 1

    @property
    def is_constant(self) -> bool:
        return _constant_coeff(self) is not None

    def constant_value(self) -> Coeff:
        c = _constant_coeff(self)
        if c is None:
            raise ShapeError("expression is not constant")
        return c

    def fractional_vars(self) -> set:
        return self.num.fractional_vars() | self.den.fractional_vars()

    def used_vars(self) -> set:
        """1-based indices of the variables in the numerator or the denominator."""
        return self.num.used_vars() | self.den.used_vars()

    def is_polynomial(self) -> bool:
        return self.den_is_one and self.num.is_polynomial()

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "RationalExpr"):
        if self.dim != other.dim:
            raise ShapeError("mixing expressions over different charts")

    @staticmethod
    def _coerce(other, dim) -> "RationalExpr":
        if isinstance(other, RationalExpr):
            return other
        if isinstance(other, ScalarExpr):
            return RationalExpr(other)
        return RationalExpr.const(dim, other)

    def __add__(self, other):
        other = self._coerce(other, self.dim)
        self._check(other)
        if self.den.terms == other.den.terms:
            num = self.num + other.num
            return RationalExpr._raw(num, self.den if num.terms else _one(num.dim))
        return RationalExpr(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr._raw(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other, self.dim))

    def __rsub__(self, other):
        return self._coerce(other, self.dim) - self

    def __mul__(self, other):
        """Product.  A constant operand (an int, Fraction or GaussianRational,
        or a constant RationalExpr) scales the other side's numerator term by
        term and keeps its denominator, with no exponent arithmetic and no
        product of denominators; a zero factor gives the canonical zero.
        Otherwise numerators and denominators multiply (a product of monic
        denominators is monic: leading terms multiply)."""
        if type(other) is RationalExpr:
            self._check(other)
            c = _constant_coeff(other)
            if c is None:
                c = _constant_coeff(self)
                if c is None:
                    num = self.num * other.num
                    return RationalExpr._raw(num, self.den * other.den if num.terms
                                             else _one(num.dim))
                self = other  # the constant is self: scale other
        elif type(other) in _SCALARS:
            c = other
        else:
            return self * self._coerce(other, self.dim)
        num = self.num.scale(c)
        return RationalExpr._raw(num, self.den if num.terms else _one(num.dim))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient.  A constant divisor c scales the numerator by 1/c and
        keeps the denominator; a constant dividend c gives (c/lc) * den over
        num/lc, with lc the leading coefficient of the divisor's numerator,
        so its denominator is monic with no product and no validation.
        Otherwise RationalExpr(num * den', den * num')."""
        if type(other) in _SCALARS:
            c = other
        else:
            other = self._coerce(other, self.dim)
            self._check(other)
            c = _constant_coeff(other)
        if c is not None:
            if not c:
                raise DivisionByZero("division by zero expression")
            return RationalExpr._raw(self.num.scale(ONE / c), self.den)
        c = _constant_coeff(self)
        if c is None:
            return RationalExpr(self.num * other.den, self.den * other.num)
        if not c:
            return self
        lc = other.num.leading_coeff()
        return RationalExpr._raw(other.den.scale(c / lc), other.num.scale(ONE / lc))

    def __rtruediv__(self, other):
        return self._coerce(other, self.dim) / self

    def pow_int(self, k: int) -> "RationalExpr":
        if k >= 0:
            return RationalExpr(self.num.pow_int(k), self.den.pow_int(k))
        if self.is_zero:
            raise DivisionByZero("negative power of zero")
        return RationalExpr(self.den.pow_int(-k), self.num.pow_int(-k))

    def pow_fraction(self, e: Fraction) -> "RationalExpr":
        e = _as_fraction(e)
        monomial = self.num.is_monomial() and self.den.is_monomial()
        if e.denominator == 1 and (e >= 0 or not monomial):
            return self.pow_int(e.numerator)
        if not monomial:
            raise IrrationalValue(
                "fractional power of a non-monomial expression"
            )
        # keep rational exponents inside the term rather than the quotient
        ((exps, c),) = self.as_scalar().terms.items()
        if isinstance(c, GaussianRational):
            if e.denominator != 1:
                raise IrrationalValue("fractional power of a Gaussian coefficient")
            newc: Coeff = c ** e.numerator
        else:
            newc = fraction_pow(c, e)
        return RationalExpr(
            ScalarExpr(self.dim, {tuple(x * e for x in exps): newc})
        )

    # -- calculus -----------------------------------------------------

    def partial(self, index: int, sign: int = 1) -> "RationalExpr":
        """sign * d/dx_index, the sign folded into the power rule."""
        if self.den_is_one:
            return RationalExpr._raw(self.num.partial(index, sign), self.den)
        num, den = self.num, self.den
        dn = num.partial(index, sign) * den - num * den.partial(index, sign)
        return RationalExpr(dn, den * den)

    def eval(self, point: Sequence):
        """Evaluate exactly at a point, as :meth:`ScalarExpr.eval` does."""
        nv = self.num.eval(point)
        dv = self.den.eval(point)
        if not dv:
            raise DivisionByZero("denominator vanishes at evaluation point")
        return nv / dv

    def substitute(self, components: Sequence["RationalExpr"]) -> "RationalExpr":
        n = self.num.substitute(components)
        if self.den_is_one:
            return n
        d = self.den.substitute(components)
        if d.is_zero:
            raise DivisionByZero("denominator vanishes under substitution")
        return n / d

    def as_scalar(self) -> ScalarExpr:
        """Fold into a plain monomial sum; needs a monomial denominator."""
        if self.den_is_one:
            return self.num
        if not self.den.is_monomial():
            raise IrrationalValue("denominator is not a monomial")
        (dexps, dc), = self.den.terms.items()
        inv = ONE / dc if not isinstance(dc, GaussianRational) else GaussianRational(1) / dc
        return ScalarExpr(
            self.dim,
            {
                tuple(a - b for a, b in zip(exps, dexps)): c * inv
                for exps, c in self.num.terms.items()
            },
        )

    # -- comparison / io ----------------------------------------------

    def __eq__(self, other):
        # over one denominator the numerators decide: no zero divisors
        if other is self:
            return True
        if isinstance(other, (int, Fraction, ScalarExpr)):
            other = self._coerce(other, self.dim)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        return _value_hash(self.num.terms, self.den.terms)

    def __str__(self):
        return format_rational(self)

    def __repr__(self):
        return f"RationalExpr({self!s})"


_SET_NUM = RationalExpr.num.__set__
_SET_DEN = RationalExpr.den.__set__

# the constant operands that scale a RationalExpr without being coerced
_SCALARS = (int, Fraction, GaussianRational)


def _constant_coeff(r: RationalExpr) -> Optional[Coeff]:
    """The value of a constant ``r`` (whose monic denominator is then 1), else None."""
    n = r.num.terms
    if not n:
        return ZERO
    if len(n) == 1:
        (k, c), = n.items()
        if not any(k):
            d = r.den.terms
            if len(d) == 1 and not any(next(iter(d))):
                return c
    return None


def format_rational(expr: RationalExpr) -> str:
    if expr.den_is_one:
        return format_scalar(expr.num)
    return f"({format_scalar(expr.num)})/({format_scalar(expr.den)})"


# ---------------------------------------------------------------------------
# Expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ('-'|'+') factor | atom ['^' exponent]
#   atom   := integer | name | '(' expr ')'
#   exponent := integer | '(' ['-'] integer ['/' integer] ')'
#
# Rational literals are spelled with the division operator (e.g. 1/2), which
# evaluates identically.  The names are the chart's variables x1 .. xN.
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r} at offset {i}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}")
        return t


def parse_expression(text: str, dim: int) -> RationalExpr:
    """Parse the CLI expression grammar into a RationalExpr."""
    toks = _Tokens(text)
    names = {f"x{k}": k for k in range(1, dim + 1)}

    def parse_expr():
        node = parse_term()
        while toks.peek()[0] in ("+", "-"):
            op = toks.next()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while toks.peek()[0] in ("*", "/"):
            op = toks.next()[0]
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_exponent() -> Fraction:
        kind, val = toks.peek()
        if kind == "int":
            toks.next()
            return Fraction(int(val))
        if kind == "-":
            toks.next()
            return -parse_exponent()
        if kind == "(":
            toks.next()
            e = parse_exponent_body()
            toks.expect(")")
            return e
        raise ParseError(f"malformed exponent near {val!r}")

    def parse_exponent_body() -> Fraction:
        sign = 1
        while toks.peek()[0] in ("-", "+"):
            if toks.next()[0] == "-":
                sign = -sign
        p = int(toks.expect("int")[1])
        if toks.peek()[0] == "/":
            toks.next()
            q = int(toks.expect("int")[1])
            if q == 0:
                raise ParseError("zero denominator in exponent")
            return Fraction(sign * p, q)
        return Fraction(sign * p)

    def parse_factor():
        kind, val = toks.peek()
        if kind in ("-", "+"):
            toks.next()
            f = parse_factor()
            return -f if kind == "-" else f
        node = parse_atom()
        if toks.peek()[0] == "^":
            toks.next()
            e = parse_exponent()
            node = node.pow_fraction(e)
        return node

    def parse_atom():
        kind, val = toks.next()
        if kind == "int":
            return RationalExpr.const(dim, int(val))
        if kind == "name":
            if val in names:
                return RationalExpr.variable(dim, names[val])
            raise ParseError(f"unknown variable or unsupported function {val!r}")
        if kind == "(":
            node = parse_expr()
            toks.expect(")")
            return node
        raise ParseError(f"unexpected token {val!r}")

    result = parse_expr()
    if toks.peek()[0] is not None:
        raise ParseError(f"trailing input near {toks.peek()[1]!r}")
    return result


def parse_fraction(text: str) -> Fraction:
    """An integer or p/q.  Fraction's decimal, exponent and underscore forms
    are refused before it sees them: the cost of "1e<k>" grows faster than k."""
    if any(ch in text for ch in "._eE"):
        raise ParseError(f"bad rational literal {text!r}: write an integer or p/q")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the point format 'a/b+c/d i' (either part optional)."""
    s = text.strip()
    if not s:
        raise ParseError("empty Gaussian rational")
    body = s.replace(" ", "")
    # split into real and imaginary pieces at a top-level +/- (not leading)
    split = None
    for idx in range(1, len(body)):
        if body[idx] in "+-" and body[idx - 1] not in "+-/":
            split = idx
    if split is not None and "i" in body[split:]:
        re_part, im_part = body[:split], body[split:]
    elif "i" in body:
        re_part, im_part = "", body
    else:
        re_part, im_part = body, ""
    re_v = parse_fraction(re_part) if re_part else ZERO
    if im_part:
        im_body = im_part[:-1] if im_part.endswith("i") else None
        if im_body is None or "i" in im_body:
            raise ParseError(f"bad Gaussian rational {text!r}")
        if im_body in ("", "+"):
            im_v = ONE
        elif im_body == "-":
            im_v = -ONE
        else:
            im_v = parse_fraction(im_body)
    else:
        im_v = ZERO
    return GaussianRational(re_v, im_v)


def format_gaussian_point(g: GaussianRational) -> str:
    """Inverse of parse_gaussian, point format 'a/b+c/d i'."""
    if g.im == 0:
        return str(g.re)
    im_mag = abs(g.im)
    im_str = "i" if im_mag == 1 else f"{im_mag} i"
    if g.re == 0:
        return f"-{im_str}" if g.im < 0 else im_str
    return f"{g.re}{'-' if g.im < 0 else '+'}{im_str}"

"""The two-Fraction Q(i) class that plectic.scalar.GaussianRational replaced.

Kept as the reference for the differential tests: every value is a pair of
Fractions and every operation rebuilds both parts, so it is slow but
obviously right.
"""
from numbers import Rational

from plectic.errors import DivisionByZero
from plectic.scalar import _as_fraction


class ReferenceGaussian:
    """Element of Q(i): a complex number with rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    @classmethod
    def ensure(cls, v) -> "ReferenceGaussian":
        if isinstance(v, ReferenceGaussian):
            return v
        return cls(_as_fraction(v))

    def __setattr__(self, *a):
        raise AttributeError("ReferenceGaussian is immutable")

    def __add__(self, other):
        if not isinstance(other, (ReferenceGaussian, Rational)):
            return NotImplemented
        o = ReferenceGaussian.ensure(other)
        return ReferenceGaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (ReferenceGaussian, Rational)):
            return NotImplemented
        o = ReferenceGaussian.ensure(other)
        return ReferenceGaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        if not isinstance(other, (ReferenceGaussian, Rational)):
            return NotImplemented
        return ReferenceGaussian.ensure(other) - self

    def __mul__(self, other):
        if not isinstance(other, (ReferenceGaussian, Rational)):
            return NotImplemented
        o = ReferenceGaussian.ensure(other)
        return ReferenceGaussian(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (ReferenceGaussian, Rational)):
            return NotImplemented
        o = ReferenceGaussian.ensure(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise DivisionByZero("division by zero Gaussian rational")
        return ReferenceGaussian(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        if not isinstance(other, (ReferenceGaussian, Rational)):
            return NotImplemented
        return ReferenceGaussian.ensure(other) / self

    def __neg__(self):
        return ReferenceGaussian(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, ReferenceGaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return ReferenceGaussian(self.re, -self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imp = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return f"{'-' if self.im < 0 else ''}{imp}"
        return f"{self.re}{sign}{imp}"

    __repr__ = __str__

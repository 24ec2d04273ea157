"""Gaussian rationals: complex numbers a + b*i with exact rational a, b.

The dimension-3 chiral masses, the null eigenbasis of the Cartan
subalgebra with its root vectors, and the highest-weight vectors built
from them live over Q(i); everything else in the package stays over plain
``Fraction``.
``GaussianRational`` interoperates with ``Fraction`` and ``int`` through
the reflected arithmetic operators, so polynomial and matrix code can mix
the two coefficient types freely.

Invariant: the parts ``re`` and ``im`` are always of type ``Fraction``,
never ``int`` or a subclass, and callers such as the row normalisation
of :mod:`ahmass.linalg` read them directly.  The constructor coerces
only parts that are not already ``Fraction``, so results of ``Fraction``
arithmetic pass through it unchanged.  An ``int`` or ``Fraction``
operand costs two ``Fraction`` operations and is never turned into a
Gaussian first, and a product skips the cross terms when one factor is
real.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "GaussianRational"]

_RATIONAL = (int, Fraction)


class GaussianRational:
    """Exact element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def i() -> "GaussianRational":
        return GaussianRational(0, 1)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _RATIONAL):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, _RATIONAL):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not d:
                return GaussianRational(a * c, b * c)
            if not b:
                return GaussianRational(a * c, a * d)
            return GaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, _RATIONAL):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            c, d = other.re, other.im
            n = c * c + d * d
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            a, b = self.re, self.im
            return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)
        if isinstance(other, _RATIONAL):
            if not other:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            a, b = self.re, self.im
            n = a * a + b * b
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(other * a / n, -other * b / n)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


I = GaussianRational.i()


def conj(c: Scalar) -> Scalar:
    """Complex conjugate for any coefficient the package uses."""
    if isinstance(c, GaussianRational):
        return c.conjugate()
    return c


def real_part(c: Scalar) -> Fraction:
    if isinstance(c, GaussianRational):
        return c.re
    return Fraction(c)


def imag_part(c: Scalar) -> Fraction:
    if isinstance(c, GaussianRational):
        return c.im
    return Fraction(0)

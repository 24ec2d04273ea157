"""Gaussian rationals: complex numbers a + b*i with exact rational a, b.

The dimension-3 chiral masses, the null eigenbasis of the Cartan
subalgebra with its root vectors, and the highest-weight vectors built
from them live over Q(i); everything else in the package stays over plain
``Fraction``, and the reflected arithmetic operators let polynomial and
matrix code mix the two coefficient types freely.

Invariant: a ``GaussianRational`` is never real, and this module alone
decides whether a value is.  The constructor raises ``ValueError`` on a
zero imaginary part, and each operator computes the imaginary part of
its result first and returns the real part, a ``Fraction``, when that is
0.  So equal values have one type, and a Gaussian is never zero and
never equals a rational.  The parts ``re`` and ``im`` are always of type
``Fraction``: the constructor coerces only parts that are not, and
rejects an inexact one (:func:`_exact`), so results of ``Fraction``
arithmetic pass through it unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "GaussianRational"]

_RATIONAL = (int, Fraction)


def _exact(c):
    """``c`` as an exact coefficient: a ``Fraction`` (from an ``int``) or a ``GaussianRational``.

    Raises ``ValueError`` on anything else: a float, a ``bool``, a
    complex or a numpy scalar would carry a rounded or unintended value
    into an exact answer.
    """
    if isinstance(c, (Fraction, GaussianRational)):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise ValueError(f"inexact coefficient {c!r} of type {type(c).__name__}")


class GaussianRational:
    """Exact element of Q(i) with a nonzero imaginary part."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re if type(re) is Fraction else Fraction(_exact(re))
        self.im = im if type(im) is Fraction else Fraction(_exact(im))
        if not self.im:
            raise ValueError(f"imaginary part 0: the real value {self.re} is a Fraction, not a GaussianRational")

    @staticmethod
    def i() -> "GaussianRational":
        return GaussianRational(0, 1)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            im = self.im + other.im
            if not im:
                return self.re + other.re
            return GaussianRational(self.re + other.re, im)
        if isinstance(other, _RATIONAL):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            im = self.im - other.im
            if not im:
                return self.re - other.re
            return GaussianRational(self.re - other.re, im)
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
            im = a * d + b * c
            if not im:
                return a * c - b * d
            return GaussianRational(a * c - b * d, im)
        if isinstance(other, _RATIONAL):
            im = self.im * other
            if not im:
                return self.re * other
            return GaussianRational(self.re * other, im)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            n = c * c + d * d
            im = (b * c - a * d) / n
            if not im:
                return (a * c + b * d) / n
            return GaussianRational((a * c + b * d) / n, im)
        if isinstance(other, _RATIONAL):
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            a, b = self.re, self.im
            n = a * a + b * b
            im = -other * b / n
            if not im:
                return other * a / n
            return GaussianRational(other * a / n, im)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, an exact positive rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


I = GaussianRational.i()


def conj(c: Scalar) -> Scalar:
    """Complex conjugate for any coefficient the package uses."""
    if isinstance(c, GaussianRational):
        return c.conjugate()
    return c

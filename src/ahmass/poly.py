"""Exact multivariate polynomials and the quadric reduction.

``ExactPoly`` stores a sparse map from exponent tuples to nonzero
coefficients: a ``Fraction`` for a real value and a
:class:`~ahmass.gaussian.GaussianRational` only for a value that is not
real, so equal polynomials have equal terms of equal types.  Two variable
conventions are used throughout the package:

* ambient Minkowski polynomials in ``n + 1`` variables ``X^0 .. X^n``
  (index 0 is the timelike one), and
* Euclidean polynomials in ``n`` variables ``x^1 .. x^n`` restricted to
  the unit sphere.

The module supplies the wave operator, normalized sphere integration
(every value is relative to the sphere volume, hence rational) and one
quadric reduction, :func:`quadric_normal_form`.  It substitutes
``x_v^2 -> 1 +- sum_{i != v} x_i^2``; the unit sphere ``|x|^2 = 1`` and
the unit hyperboloid ``1 + X^mu X_mu = 0`` are its two instances.  The
sphere normal form is unique, because ``|x|^2 - 1`` generates the whole
real vanishing ideal of the sphere, so a polynomial vanishes on the
sphere exactly when its normal form is the zero polynomial.
All sphere integration runs through one moment kernel, the memoized
map a -> int p x^a of :func:`sphere_moments`.  The normalized moment of
x^b is an integer over n (n + 2) ... (n + |b| - 2), and these
denominators divide one another along each total degree of one parity,
so the kernel sums integer products, each degree brought over the
largest denominator, and divides once per moment; a rational aspect runs
it on its ``int`` numerators over their common denominator
(:attr:`ahmass.massaspect.SphereTensor._moments`).
:func:`sphere_integral` is the zero-exponent moment, and
:func:`sphere_pairing`, the one bilinear sphere integral, integrates the
product of two polynomials without forming it.

The term-map helpers (:func:`_add_shifted`, :func:`_add_flow` and their
kin) act on the ``terms`` dict of a polynomial in place: a product by
one coordinate, a first or second derivative and the derivation -(MX).d
of a matrix become exponent shifts.  They are the one set behind the
term-level actions of the package: the tensor slot action, the aspect
action of :mod:`ahmass.massaspect`, the linearized Riemann tensor, the
radial contraction, the Weyl constraint residuals and the linear
combinations of tensors of :mod:`ahmass.weyl`, and
:func:`ahmass.lorentz.algebra_act_on_poly`.
:func:`_cleared` and :func:`_over` carry rational term maps to integer
numerators over one common denominator and back, so that such a pass can
run on ints.

:class:`PolyTensor` is the one base of the package's polynomial tensors
(symmetric 2-tensors, Weyl-symmetric 4-tensors, exterior forms and mass
aspects).  It keeps the components in a ``comp`` map from canonical
stored keys to nonzero polynomials and supplies the signed lookup and
the linear operations; a subclass states only its fields and its layout
through the hooks ``nvars``, ``layout``, ``_key``, ``_slot`` and
``_reduce``.  ``layout`` is one cached table per layout and size, from
each stored key to its index tuple in layout order (:func:`sym2_layout`
for symmetric 2-tensors and aspects).  Construction rejects a key outside
it, and so(n,1) acts on every such tensor by the one slot action that
reads it, :func:`slot_action`, a scatter over the stored components
whose term-map core :func:`_slot_terms` the aspect action also runs.
Which stored component feeds which under a^s_i is a property of the
layout alone, so its target table (:func:`_slot_table`) is built once
per layout, and each action only reads it.

:func:`coordinates` is the one reader of the unit coordinates of a
polynomial, a tensor, a mapping or a sequence of polynomials, for joint
kernels and mass functionals alike; every linear system of the package
is posed on them (:mod:`ahmass.linalg`).
"""

from __future__ import annotations

from dataclasses import fields, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple

from .gaussian import GaussianRational, _exact, conj

Exponents = Tuple[int, ...]

_ZERO = Fraction(0)


def _is_zero(c) -> bool:
    return not c


class ExactPoly:
    """Sparse polynomial with exact rational or Gaussian-rational terms.

    Each coefficient given to a constructor and each scalar operand of
    ``+ - * /`` passes through :func:`ahmass.gaussian._exact`: an ``int``
    becomes a ``Fraction``, and a float or a ``bool`` raises ``ValueError``;
    each exponent vector given to a constructor passes through
    :func:`_check_exponents`.  The variable count must be an ``int``
    (not a ``bool``) and at least 0, else ``ValueError``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, object] | None = None):
        if type(nvars) is not int or nvars < 0:
            raise ValueError(f"variable count must be an int >= 0, got {nvars!r}")
        self.nvars = nvars
        self.terms: Dict[Exponents, object] = {}
        if terms:
            for e, c in terms.items():
                _check_exponents(e, nvars)
                c = _exact(c)
                if not _is_zero(c):
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "ExactPoly":
        return ExactPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "ExactPoly":
        return ExactPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, index: int) -> "ExactPoly":
        e = [0] * nvars
        e[index] = 1
        return ExactPoly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], c=Fraction(1)) -> "ExactPoly":
        return ExactPoly(nvars, {tuple(exponents): c})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "ExactPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, ExactPoly):
            other = ExactPoly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, _ZERO) + c
            if _is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
        out = ExactPoly(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ExactPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, ExactPoly):
            other = ExactPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ExactPoly):
            other = _exact(other)
            if _is_zero(other):
                return ExactPoly(self.nvars)
            out = ExactPoly(self.nvars)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        self._check(other)
        prod: Dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = prod.get(e, _ZERO) + c1 * c2
                if _is_zero(s):
                    prod.pop(e, None)
                else:
                    prod[e] = s
        out = ExactPoly(self.nvars)
        out.terms = prod
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _exact(scalar)
        out = ExactPoly(self.nvars)
        out.terms = {e: c / scalar for e, c in self.terms.items()}
        return out

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = ExactPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        # a bool is an int but not an exact coefficient: it compares unequal
        if isinstance(other, (int, Fraction, GaussianRational)) and not isinstance(other, bool):
            other = ExactPoly.constant(self.nvars, other)
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.nvars == other.nvars and (self - other).is_zero()

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ------------------------------------------------------

    def diff(self, index: int) -> "ExactPoly":
        terms: Dict[Exponents, object] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            key = tuple(e2)
            s = terms.get(key, _ZERO) + c * k
            if _is_zero(s):
                terms.pop(key, None)
            else:
                terms[key] = s
        out = ExactPoly(self.nvars)
        out.terms = terms
        return out

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def substitute(self, values: Sequence["ExactPoly"]) -> "ExactPoly":
        """Plug a polynomial in for every variable.

        ``values[i]`` replaces variable ``i``; all must share one variable
        count, which becomes the variable count of the result.
        """
        nv = values[0].nvars
        result = ExactPoly(nv)
        cache: Dict[Tuple[int, int], ExactPoly] = {}

        def power(i: int, k: int) -> ExactPoly:
            key = (i, k)
            if key not in cache:
                cache[key] = values[i] ** k
            return cache[key]

        for e, c in self.terms.items():
            term = ExactPoly.constant(nv, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def evaluate(self, point: Sequence) -> object:
        """Exact evaluation at a point of scalars (Fraction/Gaussian)."""
        total = _ZERO
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * point[i] ** k
            total = total + v
        return total

    # -- structure helpers ----------------------------------------------

    def conjugate(self) -> "ExactPoly":
        out = ExactPoly(self.nvars)
        out.terms = {e: conj(c) for e, c in self.terms.items()}
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"v{i}^{k}" if k > 1 else f"v{i}" for i, k in enumerate(e) if k
            )
            parts.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Minkowski-side operators
# ---------------------------------------------------------------------------


def wave_operator(p: ExactPoly) -> ExactPoly:
    """Apply -d0^2 + d1^2 + ... + dn^2 (ambient Minkowski variables)."""
    if p.nvars < 2:
        raise ValueError("variable-count mismatch: need at least 2 Minkowski variables")
    out = -p.diff(0).diff(0)
    for i in range(1, p.nvars):
        out = out + p.diff(i).diff(i)
    return out


def minkowski_norm_poly(nvars: int) -> ExactPoly:
    """The quadric X^mu X_mu = -(X^0)^2 + sum_i (X^i)^2."""
    terms: Dict[Exponents, object] = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 2
        terms[tuple(e)] = Fraction(-1) if i == 0 else Fraction(1)
    return ExactPoly(nvars, terms)


def euler_degree(p: ExactPoly) -> ExactPoly:
    """The Euler operator X^mu d_mu P (equals deg * P on homogeneous P)."""
    out = ExactPoly(p.nvars)
    for i in range(p.nvars):
        out = out + ExactPoly.variable(p.nvars, i) * p.diff(i)
    return out


@lru_cache(maxsize=256)
def _remainder_power(nvars: int, var: int, sign: int, k: int) -> tuple:
    """Terms of (1 + sign * sum_{i != var} x_i^2)^k as (exponents, int) pairs."""
    r = ExactPoly.constant(nvars, 1)
    for i in range(nvars):
        if i != var:
            r = r + ExactPoly.monomial(nvars, [2 if j == i else 0 for j in range(nvars)], sign)
    return tuple((e, int(c)) for e, c in (r ** k).terms.items())


def quadric_normal_form(p: ExactPoly, var: int = -1, sign: int = -1) -> ExactPoly:
    """Reduce modulo x_var^2 - 1 - sign * sum_{i != var} x_i^2.

    Every power x_var^(2q+b) becomes x_var^b (1 + sign * sum x_i^2)^q, so
    the result has degree at most 1 in x_var and is congruent to the input.
    The defaults (last variable, sign -1) reduce modulo |x|^2 - 1, the unit
    sphere.  The reduction is idempotent: a reduced input is returned as is.
    """
    nv = p.nvars
    if nv < 1:
        raise ValueError("need at least one variable")
    var %= nv
    if all(e[var] < 2 for e in p.terms):
        return p
    terms: Dict[Exponents, object] = {}
    for e, c in p.terms.items():
        k = e[var]
        if k < 2:
            old = terms.get(e)
            terms[e] = c if old is None else old + c
            continue
        base = e[:var] + (k & 1,) + e[var + 1:]
        for er, cr in _remainder_power(nv, var, sign, k >> 1):
            key = tuple(map(add, base, er))
            v = c if cr == 1 else -c if cr == -1 else c * cr
            old = terms.get(key)
            terms[key] = v if old is None else old + v
    out = ExactPoly(nv)
    out.terms = {e: c for e, c in terms.items() if not _is_zero(c)}
    return out


def hyperboloid_normal_form(p: ExactPoly) -> ExactPoly:
    """Reduce modulo 1 + X^mu X_mu by substituting (X^0)^2 -> 1 + |vec X|^2.

    The result has degree at most 1 in X^0 and is congruent to the input
    modulo the hyperboloid ideal.  The reduction is idempotent.
    """
    return quadric_normal_form(p, var=0, sign=1)


# ---------------------------------------------------------------------------
# Sphere integration (values relative to Vol(S^{n-1}))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _moment_numerator(b: Exponents) -> int:
    """prod (b_i - 1)!! of an all-even exponent tuple: the numerator of int x^b."""
    num = 1
    for a in b:
        for j in range(a - 1, 0, -2):
            num *= j
    return num


@lru_cache(maxsize=None)
def _moment_denominator(n: int, t: int) -> int:
    """n (n + 2) ... (n + t - 2): the denominator of int x^b over S^{n-1} for |b| = t."""
    den = 1
    for j in range(0, t, 2):
        den *= n + j
    return den


def _check_exponents(a, n: int) -> None:
    """Raise ``ValueError`` unless ``a`` holds n non-negative ``int`` exponents (no ``bool``)."""
    if len(a) != n:
        raise ValueError(f"exponent vector {a} has wrong length {len(a)}, expected {n}")
    for x in a:
        if type(x) is not int:
            raise ValueError(f"exponent {x!r} is not an int")
        if x < 0:
            raise ValueError("negative exponent")


def sphere_monomial_integral(exponents: Sequence[int]) -> Fraction:
    """Normalized integral of x^alpha over the unit sphere S^{n-1}.

    Zero unless every exponent is even; otherwise the classical closed
    form prod (a_i - 1)!! / (n (n+2) ... (n + |a| - 2)).  Raises
    ``ValueError`` on an empty, negative or non-``int`` exponent.
    """
    b = tuple(exponents)
    if not b:
        raise ValueError("need at least one variable")
    _check_exponents(b, len(b))
    if any(a & 1 for a in b):
        return Fraction(0)
    return Fraction(_moment_numerator(b), _moment_denominator(len(b), sum(b)))


_ODD = (1).__and__
_PARITIES: Dict[Exponents, Exponents] = {}


def _parity(e: Exponents) -> Exponents:
    """The exponents mod 2, as the one shared tuple of their parity class
    (aspects keep a kernel per component, each keyed by parity)."""
    p = tuple(map(_ODD, e))
    return _PARITIES.setdefault(p, p)


class _Moments:
    """a -> int (terms / den) x^a dmu / Vol of one term map, exact and memoized.

    The one moment kernel.  x^e x^a integrates to a nonzero value only
    when e and a agree mod 2 in every coordinate, and then to
    num(b) / den(n, |b|) at b = e + a, with integer num and den, where
    den(n, t) = n (n + 2) ... (n + t - 2) divides den(n, T) for t <= T of
    the same parity.  So the exponents of the terms are grouped once by
    parity, and a moment sums c num(b) over the group of its own parity,
    each degree |b| brought over the largest denominator den(n, T) of the
    group by its integer cofactor, and divides once, by den(n, T) times
    ``den``.  On ``int`` coefficients (numerators over the common
    denominator ``den``) the sum is an ``int`` and the moment is one
    ``Fraction``; ``Fraction`` or Gaussian coefficients (``den`` 1) take
    the same pass on their own values.  The term map is read, not copied,
    and the exponent a is checked on a memo miss only.
    """

    __slots__ = ("n", "terms", "den", "groups", "memo")

    def __init__(self, n: int, terms: Terms, den: int = 1):
        self.n, self.terms, self.den, self.memo = n, terms, den, {}
        groups: Dict[Exponents, list] = {}
        for e in terms:
            groups.setdefault(_parity(e), []).append(e)
        # kept for the life of an aspect, so stored compactly
        self.groups = {p: tuple(g) for p, g in groups.items()}

    def __call__(self, a: Exponents):
        val = self.memo.get(a)
        if val is None:
            val = self.memo[a] = self._sum(a)
        return val

    def _sum(self, a: Exponents):
        if self.n < 1:
            raise ValueError("need at least one variable")
        _check_exponents(a, self.n)
        group = self.groups.get(_parity(a))
        if group is None:
            return _ZERO
        n, terms, shift = self.n, self.terms, sum(a)
        top = _moment_denominator(n, max(map(sum, group)) + shift)
        s = 0
        for e in group:
            b = tuple(map(add, e, a))
            s = s + terms[e] * (_moment_numerator(b) * (top // _moment_denominator(n, sum(b))))
        top *= self.den
        return Fraction(s, top) if type(s) is int else s / top


def sphere_moments(p: ExactPoly) -> _Moments:
    """The map a -> int p x^a dmu / Vol of one polynomial, exact and memoized.

    The moment kernel run on the coefficients of p; an exponent of the
    wrong length, a negative entry or an entry that is not an ``int``
    raises ``ValueError``.
    """
    return _Moments(p.nvars, p.terms)


def sphere_integral(p: ExactPoly):
    """Normalized integral of p over the unit sphere: its zero-exponent moment."""
    return sphere_moments(p)((0,) * p.nvars)


def sphere_pairing(p: ExactPoly, q: ExactPoly):
    """int p q dmu / Vol, exact, without forming the product p q.

    Each term of the shorter factor meets the :func:`sphere_moments` of
    the longer one.  Equal to ``sphere_integral(p * q)``.
    """
    p._check(q)
    if len(p.terms) > len(q.terms):
        p, q = q, p
    moment = sphere_moments(q)
    total = _ZERO
    for e1, c1 in p.terms.items():
        inner = moment(e1)
        if inner:
            total = total + c1 * inner
    return total


def vanishes_on_sphere(p: ExactPoly) -> bool:
    """True iff the polynomial is identically zero on the unit sphere.

    ``|x|^2 - 1`` generates the whole real vanishing ideal of S^{n-1}, so
    the test is exact: the sphere normal form is the zero polynomial.
    Gaussian-rational input needs no split into real and imaginary parts,
    because the reduction acts on each coefficient linearly.
    """
    return quadric_normal_form(p).is_zero()


def sphere_restrict(p: ExactPoly) -> ExactPoly:
    """Evaluate a Minkowski polynomial at (1, x^1 .. x^n).

    The result is Euclidean, in one fewer variable: each term drops its
    X^0 exponent.
    """
    terms: Dict[Exponents, object] = {}
    for e, c in p.terms.items():
        key = e[1:]
        s = terms.get(key, _ZERO) + c
        if _is_zero(s):
            terms.pop(key, None)
        else:
            terms[key] = s
    out = ExactPoly(p.nvars - 1)
    out.terms = terms
    return out


# ---------------------------------------------------------------------------
# Monomial bases
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent tuples of the given total degree, lexicographic (cached); ``ValueError`` below one variable."""
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    if degree < 0:
        return ()
    out: list[Exponents] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], degree, nvars)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> Mapping[Exponents, int]:
    """Position of each monomial in :func:`monomials_of_degree` (cached, read-only)."""
    return MappingProxyType({e: i for i, e in enumerate(monomials_of_degree(nvars, degree))})


# ---------------------------------------------------------------------------
# Monomial coordinates
# ---------------------------------------------------------------------------


def to_coords(p: ExactPoly, degree: int) -> Dict[int, object]:
    """Sparse coordinates of a degree-``degree`` form on the monomial basis."""
    index = monomial_index(p.nvars, degree)
    return {index[e]: c for e, c in p.terms.items()}


# ---------------------------------------------------------------------------
# Term maps: products by one coordinate and derivations as exponent shifts
# ---------------------------------------------------------------------------

Terms = Dict[Exponents, object]


def _small(v):
    """An integral Fraction as an int, so products with it stay cheap."""
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


def _add(out: Terms, key, v, f=1) -> None:
    """out[key] += f v, with no product for f = +-1."""
    old = out.get(key)
    if f == 1:
        out[key] = v if old is None else old + v
    elif f == -1:
        out[key] = -v if old is None else old - v
    else:
        v = v * f
        out[key] = v if old is None else old + v


def _add_scaled(out: Terms, terms: Terms, c=1) -> None:
    """out += c terms, in place."""
    for e, v in terms.items():
        _add(out, e, v, c)


def _add_shifted(out: Terms, terms: Terms, b: int, c=1) -> None:
    """out += c x^b terms, in place: every exponent raised by one in slot b."""
    for e, v in terms.items():
        key = list(e)
        key[b] += 1
        _add(out, tuple(key), v, c)


def _add_derivative(out: Terms, terms: Terms, i: int, c) -> None:
    """out += c d_i terms, in place: every exponent lowered in slot i."""
    for e, v in terms.items():
        k = e[i]
        if k:
            key = list(e)
            key[i] = k - 1
            _add(out, tuple(key), v, c * k)


def _add_second_derivative(out: Terms, terms: Terms, i: int, j: int, c) -> None:
    """out += c d_i d_j terms, in place: every exponent lowered in slots i and j."""
    for e, v in terms.items():
        key = list(e)
        f = key[i]
        key[i] -= 1
        f *= key[j]
        key[j] -= 1
        if f:
            _add(out, tuple(key), v, c * f)


def _flow(m, nvars: int) -> list:
    """The shifts of the derivation -(MX).d of a square matrix M on ``nvars`` variables.

    One (s, nu, -M^s_nu) triple per nonzero entry, integral entries as
    ints: the term v X^e goes to -M^s_nu e_s v X^(e - 1_s + 1_nu)
    (:func:`_add_flow`).  Raises ``ValueError`` unless M has one row per
    variable.
    """
    if len(m) != nvars:
        raise ValueError("variable-count mismatch")
    return [(s, nu, -_small(c)) for s, row in enumerate(m) for nu, c in enumerate(row) if c]


def _add_flow(out: Terms, terms: Terms, flow) -> None:
    """out += -(MX).d terms, in place, with ``flow`` from :func:`_flow`."""
    for e, v in terms.items():
        for s, nu, f in flow:
            k = e[s]
            if k:
                key = list(e)
                key[s] = k - 1
                key[nu] += 1
                _add(out, tuple(key), v, f * k)


def _cleared(maps: Mapping) -> Tuple[Dict, int] | None:
    """Numerators and common denominator of some term maps, or None if any coefficient is not a Fraction.

    ``maps`` maps keys to term maps.  Returns the same keys mapped to the
    term maps of the ``int`` numerators c D, and D, the lcm of the
    denominators.  A linear map L of integer entries then runs on ints:
    L(terms) is ``_over(L(numerators), D)``, exactly.
    """
    dens = set()
    for terms in maps.values():
        for c in terms.values():
            if type(c) is not Fraction:
                return None
            dens.add(c.denominator)
    den = lcm(*dens)
    scale = {d: den // d for d in dens}
    return {
        key: {e: c.numerator * scale[c.denominator] for e, c in terms.items()} for key, terms in maps.items()
    }, den


def _over(terms: Terms, den: int) -> Terms:
    """A term map of numerators over the common denominator ``den``, every coefficient a Fraction."""
    return {e: Fraction(c, den) for e, c in terms.items()}


def _poly(n: int, terms: Terms) -> ExactPoly:
    """The polynomial of a term map, cancelled terms dropped."""
    out = ExactPoly(n)
    out.terms = {e: c for e, c in terms.items() if c}
    return out


# ---------------------------------------------------------------------------
# Polynomial tensors
# ---------------------------------------------------------------------------


def sorted_pair(key: Tuple[int, int]) -> Tuple[int, int]:
    """Stored key of a symmetric pair: its two entries in order."""
    a, b = key
    return key if a <= b else (b, a)


@lru_cache(maxsize=None)
def sym2_layout(n: int) -> Mapping[Tuple[int, int], Tuple[int, int]]:
    """Layout of a symmetric 2-tensor in n variables: each pair i <= j, its own index tuple, in order (cached, read-only)."""
    return MappingProxyType({(i, j): (i, j) for i in range(n) for j in range(i, n)})


class PolyTensor:
    """Base of dataclasses whose ``comp`` field maps stored keys to polynomials.

    A subclass is a ``@dataclass(eq=False)`` with its fields and a layout:

    * ``nvars`` -- the variable count of the components;
    * ``layout`` -- the cached table of the layout at the tensor's size,
      in layout order, from each stored key to its index tuple;
    * ``rank`` -- the length of every index tuple;
    * ``_key(key)`` -- the canonical stored key of a key (the key itself
      by default);
    * ``_slot(*indices)`` -- stored key and sign (+1 or -1) of an index
      tuple, or None where the layout forces a zero (by default the index
      tuple is a stored key, canonicalized by ``_key``, with sign +1);
    * ``_reduce(p)`` -- a normal form applied to each component (identity
      by default).

    Construction merges the components of equal canonical keys, reduces
    them and drops the zero ones, so ``==`` is structural: equal fields
    and equal stored terms.  A canonical key outside the layout, a
    component that is not an :class:`ExactPoly` or one of another variable
    count raises ``ValueError``, and so do
    ``+`` and ``-`` unless both tensors have one type and equal fields
    besides ``comp``.
    """

    def __post_init__(self):
        layout, merged = self.layout, {}
        for key, p in self.comp.items():
            key = self._key(key)
            if key not in layout:
                raise ValueError(f"{type(self).__name__} stores no key {key}")
            if not isinstance(p, ExactPoly):
                raise ValueError(f"component {key} is {p!r}, not an ExactPoly")
            if p.nvars != self.nvars:
                raise ValueError(f"component {key} has {p.nvars} variables, expected {self.nvars}")
            prev = merged.get(key)
            merged[key] = p if prev is None else prev + p
        self.comp = {key: r for key, p in merged.items() if not (r := self._reduce(p)).is_zero()}

    @staticmethod
    def _key(key):
        return key

    def _slot(self, *indices: int):
        return self._key(indices), 1

    @staticmethod
    def _reduce(p: ExactPoly) -> ExactPoly:
        return p

    def _fields(self) -> list:
        """The values of the fields besides ``comp``."""
        return [getattr(self, f.name) for f in fields(self) if f.name != "comp"]

    def get(self, *indices: int) -> ExactPoly:
        """The component at an index tuple, with the sign of the layout; zero where none is stored.

        A tuple the layout forces to zero (a repeated index of a form)
        reads zero; one of another length than ``rank`` or with an index
        outside ``range(nvars)`` raises ``ValueError``.
        """
        nv = self.nvars
        if len(indices) != self.rank:
            raise ValueError(f"{type(self).__name__} takes {self.rank} indices, got {indices}")
        for i in indices:
            if not 0 <= i < nv:
                raise ValueError(f"index {i} of {indices} is outside range({nv})")
        hit = self._slot(*indices)
        p = None if hit is None else self.comp.get(hit[0])
        if p is None:
            return ExactPoly.zero(self.nvars)
        return p if hit[1] > 0 else -p

    def map(self, fn):
        return replace(self, comp={key: fn(p) for key, p in self.comp.items()})

    def __add__(self, other):
        if type(other) is not type(self) or other._fields() != self._fields():
            raise ValueError("+ and - need two tensors of one type with equal fields besides comp")
        comp = dict(self.comp)
        for key, p in other.comp.items():
            prev = comp.get(key)
            comp[key] = p if prev is None else prev + p
        return replace(self, comp=comp)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return self.map(lambda p: p * c)

    __mul__ = scale

    def conjugate(self):
        return self.map(ExactPoly.conjugate)

    def is_zero(self) -> bool:
        return not self.comp

    def degree(self) -> int:
        """Largest component degree; -1 for the zero tensor."""
        return max((p.degree() for p in self.comp.values()), default=-1)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._fields() == other._fields()
            and self.comp.keys() == other.comp.keys()
            and all(p.terms == other.comp[key].terms for key, p in self.comp.items())
        )


_SLOT_TABLES: Dict[tuple, Dict[tuple, list]] = {}


def _slot_table(t: PolyTensor) -> Dict[tuple, list]:
    """Stored source key -> [(s, i, target key, sign)] over the layout of ``t``, built once per layout.

    One entry per stored target key with index tuple I, position r and
    new index s such that I[r -> s] is the source key with the sign of
    the layout (i = I_r is the index it replaces), in the order of the
    layout, then r, then s.  Keyed by the tensor type, ``nvars`` and the
    keys of the layout, so two layouts of equal length (Lambda^1 and
    Lambda^3 at nvars = 4) keep apart.
    """
    nv, layout = t.nvars, t.layout
    layout_key = (type(t), nv, tuple(layout))
    table = _SLOT_TABLES.get(layout_key)
    if table is None:
        table = _SLOT_TABLES[layout_key] = {}
        for key, idx in layout.items():
            for r, i in enumerate(idx):
                for s in range(nv):
                    hit = t._slot(*idx[:r], s, *idx[r + 1 :])
                    if hit is not None:
                        table.setdefault(hit[0], []).append((s, i, key, hit[1]))
    return table


def _slot_terms(mat, t: PolyTensor, terms: Mapping) -> Dict[tuple, Terms]:
    """The slot action of a matrix on term maps ``terms`` keyed by stored keys of ``t``.

    ``t`` gives the layout, whose target table :func:`_slot_table` is
    built once; ``terms`` holds its own term maps or their integer
    numerators.  Each term map adds -(aX).d of itself into its own key
    (:func:`_add_flow`) and itself, scaled by -a^s_i times the sign, into
    the target key of each entry of its table with a^s_i != 0.  Returns
    the sums, unordered and with cancelled terms left in place.
    """
    flow = _flow(mat, t.nvars)
    neg = [[-_small(c) for c in row] for row in mat]
    table = _slot_table(t)
    acc = {}
    for key, source in terms.items():
        _add_flow(acc.setdefault(key, {}), source, flow)
        for s, i, target, sign in table.get(key, ()):
            c = neg[s][i]
            if c:
                _add_scaled(acc.setdefault(target, {}), source, c * sign)
    return acc


def slot_action(mat, t: PolyTensor) -> PolyTensor:
    """(a.T)_I = -(aX).d T_I - sum_r a^s_{I_r} T_{I[r -> s]} for every covariant tensor.

    ``mat`` is an algebra element or its matrix; I[r -> s] is the index
    tuple I with its r-th index replaced by s.  One pass of
    :func:`_slot_terms` over the stored components; the result keeps the
    order of the layout.
    """
    acc = _slot_terms(mat.matrix if hasattr(mat, "matrix") else mat, t, {key: p.terms for key, p in t.comp.items()})
    return replace(t, comp={key: _poly(t.nvars, acc[key]) for key in t.layout if key in acc})


def coordinates(v):
    """((key, exponent), coefficient) of each nonzero unit coordinate of a polynomial object.

    The key is None for an :class:`ExactPoly`, the stored key for a
    :class:`PolyTensor`, the key for a mapping of keys to polynomials and
    the position for a sequence of polynomials.
    """
    if isinstance(v, ExactPoly):
        places = ((None, v),)
    elif isinstance(v, PolyTensor):
        places = v.comp.items()
    elif isinstance(v, Mapping):
        places = v.items()
    else:
        places = enumerate(v)
    return (((key, e), c) for key, p in places for e, c in p.terms.items() if c)

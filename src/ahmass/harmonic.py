"""Wave-harmonic polynomial spaces H_p and their invariant form.

``build_Hp`` constructs the space of homogeneous degree-``p`` solutions
of the wave equation on R^{n,1} as an exact kernel, the one route to H_p
in the package; :class:`Space` holds it, and W_p of :mod:`ahmass.weyl`
too.

The invariant quadratic form makes distinct monomials orthogonal with

    q(X^alpha) = (-1)^{alpha_0} * alpha! / |alpha|!

the weighting that extends the Minkowski form of degree one to symmetric
powers (so that the form is exactly infinitesimally invariant).  The
form is diagonal on unit coordinates, so it is given by the weight of one
unit (:func:`unit_pairing`).  Its signature on H_p is read off a sparse
integer Gram matrix that pairs only basis vectors sharing a unit
(:func:`form_signature`, which the signature on W_p shares).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from .linalg import Row, joint_kernel, signature_of_form
from .poly import ExactPoly, coordinates, euler_degree, minkowski_norm_poly, monomials_of_degree, wave_operator

F = Fraction


def _check_ints(**values):
    """``ValueError`` unless every value is an ``int``.

    A ``bool`` or float equal to an ``int`` is refused too; the cached
    builders check here first, as their cache would take it for that ``int``.
    """
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def _check_closed_form_args(n: int, p: int):
    """The closed forms of H_p and W_p hold for ``int`` n >= 2 and p >= 0; ``ValueError`` otherwise."""
    _check_ints(n=n, p=p)
    if n < 2 or p < 0:
        raise ValueError(f"closed forms need n >= 2 and p >= 0, got n={n}, p={p}")


def dim_Hp(n: int, p: int) -> int:
    """binom(p+n-2, p) (2p+n-1) / (n-1)."""
    _check_closed_form_args(n, p)
    return math.comb(p + n - 2, p) * (2 * p + n - 1) // (n - 1)


@dataclass
class Space:
    """The basis of H_p or of W_p for one (n, p)."""

    n: int
    p: int
    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_Hp(n: int, p: int) -> Space:
    """Exact basis of wave-harmonic homogeneous polynomials of degree p.

    The kernel of Box on the unit monomials of degree p, in the order of
    :func:`ahmass.poly.monomials_of_degree` (:func:`ahmass.linalg.joint_kernel`).
    ``ValueError`` unless n >= 2 and p >= 0 are ``int``s, the range of
    the closed forms.
    """
    _check_closed_form_args(n, p)
    nv = n + 1
    monos = monomials_of_degree(nv, p)
    units = [ExactPoly.monomial(nv, e) for e in monos]
    basis = [ExactPoly(nv, {monos[j]: c for j, c in row.items()}) for row in joint_kernel(units, [wave_operator])]
    space = Space(n, p, basis)
    if space.dim != dim_Hp(n, p):
        raise AssertionError(f"dim H_{p} mismatch for n={n}")
    return space


# ---------------------------------------------------------------------------
# invariant quadratic form
# ---------------------------------------------------------------------------


def monomial_weight(e: Tuple[int, ...]) -> Fraction:
    """q(X^alpha, X^alpha) = (-1)^{alpha_0} alpha!/|alpha|! for alpha = ``e``."""
    w = F(math.prod(math.factorial(k) for k in e), math.factorial(sum(e)))
    return -w if e[0] % 2 else w


def _poly_weight(unit) -> Fraction:
    """q on the unit coordinate (None, X^alpha) of a polynomial: :func:`monomial_weight` of alpha."""
    return monomial_weight(unit[1])


def unit_pairing(v1, v2, weight: Callable):
    """sum_u weight(u) c1_u c2_u over the unit coordinates u that two polynomial objects share.

    A unit coordinate is a key and an exponent, as :func:`ahmass.poly.coordinates`
    gives them; a form that is diagonal on unit coordinates is this pairing for
    the weight of one unit.
    """
    c2 = dict(coordinates(v2))
    total = F(0)
    for u, c1 in coordinates(v1):
        if u in c2:
            total = total + c1 * c2[u] * weight(u)
    return total


def invariant_form_q(p1: ExactPoly, p2: ExactPoly):
    """Bilinear invariant pairing of two homogeneous polynomials.

    Only same-degree pairs are meaningful.  Distinct monomials are
    orthogonal and each monomial has :func:`monomial_weight`: this is
    :func:`unit_pairing` with the weight :func:`form_signature` uses on H_p.
    """
    if not (p1.is_homogeneous() and p2.is_homogeneous()):
        raise ValueError("inputs must be homogeneous")
    if p1.is_zero() or p2.is_zero():
        return F(0)
    if p1.degree() != p2.degree() or p1.nvars != p2.nvars:
        raise ValueError("inputs not in the same homogeneous space")
    return unit_pairing(p1, p2, _poly_weight)


def integer_gram(basis: Sequence, weight: Callable) -> Tuple[List[Row], List[int], int]:
    """Sparse integer Gram rows of a form that is diagonal on unit coordinates.

    ``weight(u)`` is the rational value of the form on the unit coordinate
    u (:func:`ahmass.poly.coordinates`) of the rational ``basis``.  Basis
    vector i is scaled by ``scales[i]``, the lcm of its denominators, and
    the weights by ``factor``, the lcm of theirs, so that
    rows[i][j] = factor * scales[i] * scales[j] * q(b_i, b_j) is an ``int``.
    Only pairs of vectors that share a unit are visited; zero entries are
    left out of the rows.
    """
    groups: Dict[Hashable, List[Tuple[int, int]]] = {}
    scales = []
    for i, v in enumerate(basis):
        coords = list(coordinates(v))
        if any(type(c) not in (int, Fraction) for _, c in coords):
            raise ValueError("integer_gram needs rational coordinates")
        scale = math.lcm(*(c.denominator for _, c in coords))
        scales.append(scale)
        for u, c in coords:
            groups.setdefault(u, []).append((i, c.numerator * (scale // c.denominator)))
    weights = {u: weight(u) for u in groups}
    factor = math.lcm(*(w.denominator for w in weights.values()))
    rows: List[Row] = [{} for _ in basis]
    for u, members in groups.items():
        w = weights[u].numerator * (factor // weights[u].denominator)
        for i, ci in members:
            row, wc = rows[i], w * ci
            for j, cj in members:
                row[j] = row.get(j, 0) + wc * cj
    return [{j: x for j, x in row.items() if x} for row in rows], scales, factor


def form_signature(basis: Sequence, weight: Callable) -> Tuple[int, int]:
    """Signature (n+, n-) of a form that is diagonal on unit coordinates, on the span of ``basis``.

    ``weight(u)`` is the form on one unit coordinate u.  The Gram matrix
    is built on integers by :func:`integer_gram`: its scalings are a
    congruence by a positive diagonal matrix and a positive factor, which
    keep the signature.  Its sparse rows are diagonalized exactly by
    :func:`ahmass.linalg.signature_of_form`; raises when the form is
    degenerate on the span.
    """
    plus, minus, zero = signature_of_form(integer_gram(basis, weight)[0])
    if zero:
        raise AssertionError("invariant form is degenerate")
    return plus, minus


def signature_Hp(n: int, p: int) -> Tuple[int, int]:
    """Exact signature of q on H_p; must be nondegenerate."""
    return form_signature(build_Hp(n, p).basis, _poly_weight)


def signature_Hp_expected(n: int, p: int) -> Tuple[int, int]:
    _check_closed_form_args(n, p)
    return math.comb(p + n - 1, n - 1), math.comb(p + n - 2, n - 1)


def metric_multiplication_scaling(q_poly: ExactPoly, k: int) -> Fraction:
    """Scaling constant lam with q((X.X)^k P) = lam q(P) on the space of P.

    For a q-null input the constant is recovered by polarization against
    a q-nondegenerate element of the same harmonic space; positivity is
    asserted either way.
    """
    if not q_poly.is_homogeneous() or q_poly.is_zero():
        raise ValueError("need a nonzero homogeneous wave-harmonic input")
    if not wave_operator(q_poly).is_zero():
        raise ValueError("input is not wave-harmonic")
    if k == 0:
        return F(1)
    n = q_poly.nvars - 1
    r = q_poly.degree()
    norm = minkowski_norm_poly(q_poly.nvars)
    mk = norm**k * q_poly
    qq = invariant_form_q(q_poly, q_poly)
    if qq != 0:
        lam = invariant_form_q(mk, mk) / qq
    else:
        # polarize against a basis element that pairs nontrivially with q_poly
        space = build_Hp(n, r)
        probe = None
        for b in space.basis:
            if invariant_form_q(q_poly, b) != 0:
                probe = b
                break
        if probe is None:
            raise AssertionError("invariant form degenerate on H_r")
        lam = invariant_form_q(mk, norm**k * probe) / invariant_form_q(q_poly, probe)
    if lam <= 0:
        raise AssertionError("multiplication scaling must be positive")
    return lam


# ---------------------------------------------------------------------------
# exact eigenfunction check on the ball model
# ---------------------------------------------------------------------------


def check_restriction_eigenfunction(p_poly: ExactPoly) -> ExactPoly:
    """Residual of Delta_b u = p(p+n-1) u with the denominators cleared.

    u = P(1+|x|^2, 2x) / d^p, with d = 1 - |x|^2, is the degree-p
    polynomial P restricted to the hyperboloid and pulled back to the
    ball model, whose Laplacian is the conformal formula
    Delta_b u = rho^2 Delta u + (n-2) rho x . grad u with rho = d/2.
    With Q = P(1+|x|^2, 2x) the product rule gives the polynomial

        d^p (Delta_b u - p(p+n-1) u) = d/4 (d Delta Q + 2(2p+n-2)(x . grad Q - p Q)),

    which is returned; it is zero exactly when u is an eigenfunction.
    """
    if not p_poly.is_homogeneous():
        raise ValueError("input must be homogeneous")
    n = p_poly.nvars - 1
    p = max(p_poly.degree(), 0)
    x = [ExactPoly.variable(n, i) for i in range(n)]
    norm2 = sum((xi * xi for xi in x), ExactPoly.zero(n))
    q = p_poly.substitute([norm2 + 1] + [xi * 2 for xi in x])
    d = 1 - norm2
    lap = sum((q.diff(i).diff(i) for i in range(n)), ExactPoly.zero(n))
    return d * (d * lap + (euler_degree(q) - q * p) * (2 * (2 * p + n - 2))) / 4

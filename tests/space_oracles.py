"""Second routes to the spaces H_p and W_p, kept as oracles for the tests.

The division by the Minkowski quadric (:func:`harmonic_decompose`) is an
independent route to the wave-harmonic part of a polynomial, which
:func:`ahmass.harmonic.build_Hp` finds as an exact kernel.  The joint
kernel of Box, the eta-trace and the radial contraction on symmetric
2-tensors (:func:`transverse_solution_space`) is the potential-side route
to the representation that :func:`ahmass.weyl.build_Wp` builds on the
curvature side.
"""

from fractions import Fraction
from typing import List, Tuple

from ahmass.linalg import joint_kernel
from ahmass.poly import ExactPoly, minkowski_norm_poly, monomials_of_degree, sym2_layout, wave_operator
from ahmass.weyl import PolySym2, _combinations


def _expansion(p: ExactPoly, d: int, norm: ExactPoly) -> List[ExactPoly]:
    """Components h_k with P = sum_k (X.X)^k h_k, each h_k wave-harmonic.

    Downward-degree recursion: the wave operator sends (X.X)^k h to
    2k(n-1+2m+2k) (X.X)^{k-1} h for harmonic h of degree m, so the
    expansion of box(P) determines all h_k with k >= 1.
    """
    if p.is_zero():
        return []
    if d <= 1:
        return [p]
    n_plus_1 = p.nvars
    r = wave_operator(p)
    parts = _expansion(r, d - 2, norm)
    higher: List[ExactPoly] = []
    for k_minus_1, comp in enumerate(parts):
        k = k_minus_1 + 1
        m = d - 2 * k
        c = Fraction(2 * k * (n_plus_1 - 2 + 2 * m + 2 * k))
        higher.append(comp / c)
    h0 = p
    acc = ExactPoly.constant(p.nvars, 1)
    for h in higher:
        acc = acc * norm
        h0 = h0 - acc * h
    return [h0] + higher


def harmonic_decompose(p: ExactPoly) -> Tuple[ExactPoly, ExactPoly]:
    """Split P = H + (X.X) Q with H wave-harmonic, exactly."""
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if p.is_zero():
        return p, p
    d = p.degree()
    norm = minkowski_norm_poly(p.nvars)
    parts = _expansion(p, d, norm)
    h = parts[0]
    q = ExactPoly.zero(p.nvars)
    acc = ExactPoly.constant(p.nvars, 1)
    for comp in parts[1:]:
        q = q + acc * comp
        acc = acc * norm
    return h, q


def transverse_solution_space(n: int, degree: int) -> List[PolySym2]:
    """Wave-harmonic, eta-trace-free tensors with h_{mu nu} X^mu = 0.

    These solve the linearized Einstein equations (they are automatically
    divergence free) and realize the same representation as W_{degree-2}:
    the joint kernel of Box, the eta-trace and the radial contraction on
    the unit tensors X^e in one slot, monomial major.
    """
    nv = n + 1
    monos = monomials_of_degree(nv, degree)
    units = [PolySym2(nv, {s: ExactPoly.monomial(nv, e)}) for e in monos for s in sym2_layout(nv)]
    maps = [PolySym2.box, PolySym2.eta_trace, PolySym2.radial_contraction]
    return _combinations(PolySym2(nv, {}), units, joint_kernel(units, maps))

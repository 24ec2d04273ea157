"""The classified linear masses and their equivariance checks.

Three families, each pairing a transverse mass aspect of the matching
decay order with a finite-dimensional representation:

* conformal masses (order k = n - 1 + n1):
      Phi_c(m)(P) = int P(1, x) tr m dmu,   P wave harmonic of degree n1;
* Weyl masses (order k = n + 1 + n1, n >= 4):
      Phi_w(m)(W) = int < m, W(e+, ., e+, .) > dmu,  W in W_{n1};
* chiral Weyl masses (n = 3): the second slot is twisted by Id -+ i J,
  where J is the boundary complex structure cut out of the Hodge star
  on bivectors by  *(e+ ^ X) = e+ ^ J(X).

All exact values are relative to Vol(S^{n-1}); each mass is canonical
only up to one overall constant.  The orientation of the volume form is
fixed so that J(d_2) = +d_3 at the south pole (-1, 0, ..., 0); the
opposite choice swaps the two chiral families.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .gaussian import GaussianRational
from .lorentz import (
    LorentzElement,
    act_on_poly,
    algebra_act_on_poly,
    mat_scale,
    mat_transpose,
)
from .massaspect import SphereTensor, generator_action, group_action_numeric
from .poly import ExactPoly, operator_rows, sphere_integral, sphere_restrict
from .quadrature import sphere_nodes
from .weyl import PolyTensor4, algebra_action_tensor4, index_pairs, tensor4_slots

F = Fraction
_I = GaussianRational.i()


def conformal_weight(n: int, n1: int) -> int:
    return n - 1 + n1


def weyl_weight(n: int, n1: int) -> int:
    return n + 1 + n1


# ---------------------------------------------------------------------------
# conformal family
# ---------------------------------------------------------------------------


def conformal_mass(m: SphereTensor, p: ExactPoly, check_weight: bool = True):
    """int P(1, x) tr^sigma(m) dmu / Vol, exact."""
    n = m.n
    if p.nvars != n + 1:
        raise ValueError("dual argument must be an ambient polynomial")
    if not p.is_homogeneous():
        raise ValueError("dual argument must be homogeneous")
    n1 = max(p.degree(), 0)
    if check_weight and m.k != conformal_weight(n, n1):
        raise ValueError(
            f"decay order {m.k} does not match the conformal weight {conformal_weight(n, n1)}"
        )
    return sphere_integral(sphere_restrict(p) * m.trace_sigma())


def wang_mass_vector(m: SphereTensor) -> Tuple:
    """The n1 = 1 dual vector (energy-momentum): component mu pairs m with X^mu."""
    n = m.n
    if m.k != n:
        raise ValueError("the energy-momentum vector needs decay order k = n")
    return tuple(conformal_mass(m, ExactPoly.variable(n + 1, mu), check_weight=False) for mu in range(n + 1))


# ---------------------------------------------------------------------------
# Weyl family
# ---------------------------------------------------------------------------


def _weyl_slot_tensor(w: PolyTensor4, i: int, j: int) -> ExactPoly:
    """W(e+, d_i, e+, d_j)(1, x) as a Euclidean polynomial (i, j spatial)."""
    nv = w.nv
    s = ExactPoly.zero(nv)
    for mu in range(nv):
        xm = ExactPoly.variable(nv, mu)
        for al in range(nv):
            val = w.get4(mu, i + 1, al, j + 1)
            if not val.is_zero():
                s = s + val * xm * ExactPoly.variable(nv, al)
    return sphere_restrict(s)


def weyl_mass(m: SphereTensor, w: PolyTensor4, check_weight: bool = True, check_constraints: bool = False):
    """int < m, W(e+, ., e+, .) > dmu / Vol, exact (n >= 4 real case)."""
    n = m.n
    if w.nv != n + 1:
        raise ValueError("tensor/aspect dimension mismatch")
    n1 = max(w.degree(), 0)
    if check_weight and m.k != weyl_weight(n, n1):
        raise ValueError(
            f"decay order {m.k} does not match the Weyl weight {weyl_weight(n, n1)}"
        )
    if check_constraints and not w.satisfies_weyl_constraints():
        raise ValueError("dual argument fails the Weyl constraints")
    total = F(0)
    for i in range(n):
        for j in range(n):
            mij = m.get(i, j)
            if mij.is_zero():
                continue
            total = total + sphere_integral(mij * _weyl_slot_tensor(w, i, j))
    return total


# ---------------------------------------------------------------------------
# Hodge star, J, and the chiral family (n = 3)
# ---------------------------------------------------------------------------

# Levi-Civita orientation on R^{3,1}: eps_{0123} = ORIENTATION; the sign
# is pinned by J(d_2) = +d_3 at the south pole, see test suite.
ORIENTATION = 1


def _eps4():
    eps = {}
    from itertools import permutations

    base = (0, 1, 2, 3)
    for perm in permutations(base):
        sign = 1
        lst = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if lst[a] > lst[b]:
                    sign = -sign
        eps[perm] = sign * ORIENTATION
    return eps


_EPS4 = _eps4()


def hodge_star_bivector(b: Dict[Tuple[int, int], object]) -> Dict[Tuple[int, int], object]:
    """(*B)^{mu nu} = 1/2 eps_{st ab} eta^{s mu} eta^{t nu} B^{ab}.

    ``b`` maps ordered pairs (mu < nu) to components (scalars or
    polynomials); the result uses the same convention.
    """
    def eta_sign(mu):
        return -1 if mu == 0 else 1

    out: Dict[Tuple[int, int], object] = {}
    for (al, be), val in b.items():
        for mu in range(4):
            for nu in range(mu + 1, 4):
                e = _EPS4.get((mu, nu, al, be))
                if e:
                    coef = e * eta_sign(mu) * eta_sign(nu)
                    cur = out.get((mu, nu))
                    term = val * coef
                    out[(mu, nu)] = term if cur is None else cur + term
    return out


def _eplus_wedge(nv: int, i: int) -> Dict[Tuple[int, int], ExactPoly]:
    """Bivector e+ ^ d_i with position polynomials for e+ (i spatial)."""
    out = {}
    slot = i + 1
    for mu in range(nv):
        if mu == slot:
            continue
        a, b = (mu, slot) if mu < slot else (slot, mu)
        sign = 1 if mu < slot else -1
        x = ExactPoly.variable(nv, mu)
        cur = out.get((a, b))
        out[(a, b)] = x * sign if cur is None else cur + x * sign
    return out


def _pair_with_w(w: PolyTensor4, b1, b2) -> ExactPoly:
    """1/4 W_{mu nu al be} B1^{mu nu} B2^{al be} over all index pairs.

    Normalized so that the pairing of e+ ^ d_i with e+ ^ d_j reproduces
    W(e+, d_i, e+, d_j).
    """
    s = ExactPoly.zero(w.nv)
    for (mu, nu), v1 in b1.items():
        for (al, be), v2 in b2.items():
            val = w.get4(mu, nu, al, be)
            if not val.is_zero():
                s = s + val * v1 * v2
    return s


def weyl_mass_chiral(m: SphereTensor, w: PolyTensor4, sign: int, check_weight: bool = True):
    """Chiral mass (n = 3): the second slot twisted by (Id -+ i J).

    ``sign`` +1 computes Phi_{w,+} (Id - iJ), -1 the conjugate family.
    Returns a Gaussian rational, relative to Vol(S^2).
    """
    n = m.n
    if n != 3:
        raise ValueError("chiral masses exist only for n = 3")
    if w.nv != 4:
        raise ValueError("tensor/aspect dimension mismatch")
    n1 = max(w.degree(), 0)
    if check_weight and m.k != weyl_weight(n, n1):
        raise ValueError(
            f"decay order {m.k} does not match the Weyl weight {weyl_weight(n, n1)}"
        )
    total = GaussianRational(0)
    for i in range(n):
        bi = _eplus_wedge(4, i)
        star_bi = hodge_star_bivector(bi)
        for j in range(n):
            mij = m.get(i, j)
            if mij.is_zero():
                continue
            plain = _pair_with_w(w, bi, _eplus_wedge(4, j))
            twist = _pair_with_w(w, star_bi, _eplus_wedge(4, j))
            integrand = sphere_restrict(plain) - sign * _I * sphere_restrict(twist)
            val = sphere_integral(mij * integrand)
            total = total + val
    return total


# ---------------------------------------------------------------------------
# equivariance checks
# ---------------------------------------------------------------------------


def _act_on_dual(family: str, gen, v):
    if family == "conformal":
        return algebra_act_on_poly(gen, v)
    return algebra_action_tensor4(gen.matrix, v)


def _mass(family: str, m: SphereTensor, v):
    if family == "conformal":
        return conformal_mass(m, v, check_weight=False)
    if family == "weyl":
        return weyl_mass(m, v, check_weight=False)
    if family == "weyl_plus":
        return weyl_mass_chiral(m, v, +1, check_weight=False)
    if family == "weyl_minus":
        return weyl_mass_chiral(m, v, -1, check_weight=False)
    raise ValueError(f"unknown family {family!r}")


def check_equivariance_infinitesimal(
    family: str,
    m: SphereTensor,
    gen_name: str,
    gen,
    dual_basis: Sequence,
) -> object:
    """Exact residual of Phi(a.m)(v) + Phi(m)(a.v) over the dual basis.

    Returns the maximal |residual|^2 (squared modulus as a Fraction) so
    Gaussian-rational families report exactly as well.  Zero iff the
    weight m.k matches the family.
    """
    am = generator_action(gen_name, m)
    worst = F(0)
    for v in dual_basis:
        r = _mass(family, am, v) + _mass(family, m, _act_on_dual(family, gen, v))
        mag = r.norm2() if isinstance(r, GaussianRational) else r * r
        if mag > worst:
            worst = mag
    return worst


def check_equivariance_finite(
    m: SphereTensor,
    a: LorentzElement,
    n1: int,
    order: int = 64,
    family: str = "conformal",
    dual_basis: Sequence | None = None,
) -> float:
    """Max |Phi(A.m)(A.v) - Phi(m)(v)| over the dual basis, numerically.

    A.m is sampled with the weighted pushforward at product-quadrature
    nodes; A.v is exact.
    """
    n = m.n
    if family == "conformal":
        k = conformal_weight(n, n1)
        if dual_basis is None:
            from .harmonic import build_Hp

            dual_basis = build_Hp(n, n1).basis
    elif family == "weyl":
        k = weyl_weight(n, n1)
        if dual_basis is None:
            from .weyl import build_Wp

            dual_basis = build_Wp(n, n1).basis
    else:
        raise ValueError("finite checks cover the conformal and weyl families")
    if m.k != k:
        raise ValueError(f"decay order {m.k} does not match weight {k}")
    nodes, weights = sphere_nodes(n, order)
    sampled = group_action_numeric(a, m, k, nodes)
    worst = 0.0
    if family == "conformal":
        traces = np.einsum("qii->q", sampled) - np.einsum(
            "qi,qij,qj->q", nodes, sampled, nodes
        )
        for v in dual_basis:
            av = act_on_poly(a, v)
            pv = np.array(
                [float(sphere_restrict(av).evaluate_float(x)) for x in nodes]
            )
            lhs = float(np.dot(weights, pv * traces))
            rhs = float(conformal_mass(m, v, check_weight=False))
            worst = max(worst, abs(lhs - rhs))
        return worst
    # weyl family: transform the 4-tensor exactly, pair numerically
    for v in dual_basis:
        av = finite_action_tensor4(a, v)
        vals = np.zeros(len(nodes))
        for i in range(n):
            for j in range(n):
                poly = _weyl_slot_tensor(av, i, j)
                if poly.is_zero():
                    continue
                col = np.array([float(poly.evaluate_float(x)) for x in nodes])
                vals += col * sampled[:, i, j]
        lhs = float(np.dot(weights, vals))
        rhs = float(weyl_mass(m, v, check_weight=False))
        worst = max(worst, abs(lhs - rhs))
    return worst


def finite_action_tensor4(a: LorentzElement, w: PolyTensor4) -> PolyTensor4:
    """(A.W)_{mu nu al be} = W_{m n a b}(A^{-1}X) (A^{-1})^m_mu ... exact."""
    inv = a.inverse()
    nv = w.nv
    pairs = index_pairs(nv)
    comp = {}
    for ai, bi in tensor4_slots(nv):
        (mu, nu), (al, be) = pairs[ai], pairs[bi]
        s = ExactPoly.zero(nv)
        for m_ in range(nv):
            c1 = inv.matrix[m_][mu]
            if not c1:
                continue
            for n_ in range(nv):
                c2 = inv.matrix[n_][nu]
                if not c2:
                    continue
                for a_ in range(nv):
                    c3 = inv.matrix[a_][al]
                    if not c3:
                        continue
                    for b_ in range(nv):
                        c4 = inv.matrix[b_][be]
                        if not c4:
                            continue
                        base = w.get4(m_, n_, a_, b_)
                        if not base.is_zero():
                            s = s + act_on_poly(a, base) * (c1 * c2 * c3 * c4)
        if not s.is_zero():
            comp[(ai, bi)] = s
    return PolyTensor4(nv, comp)


# ---------------------------------------------------------------------------
# intertwining densities
# ---------------------------------------------------------------------------


def symmetric_power_action(mat, nv: int, power: int) -> List[Dict[int, object]]:
    """Matrix of the derivation action of ``mat`` on Sym^power(R^{nv}).

    a . xi^e = sum_{mu nu} a^mu_nu xi_mu d_{xi_nu} xi^e, which is the
    polynomial action -(bX).d of b = -a^T.
    """
    m = mat.matrix if hasattr(mat, "matrix") else mat
    b = mat_scale(mat_transpose(m), -1)
    return operator_rows(lambda p: algebra_act_on_poly(b, p), nv, power, power)


def density_null_power(n: int, n1: int, k: int) -> List[SphereTensor]:
    """Components of Phi = e+^{(x) n1} (x) sigma against Sym^{n1} monomials."""
    import math

    from .massaspect import round_metric_tensor
    from .poly import monomials_of_degree

    sigma = round_metric_tensor(n, k)
    monos = monomials_of_degree(n + 1, n1)
    out = []
    for e in monos:
        coef = math.factorial(n1)
        for a in e:
            coef //= math.factorial(a)
        scalar = ExactPoly.constant(n, coef)
        for mu in range(1, n + 1):
            if e[mu]:
                scalar = scalar * ExactPoly.variable(n, mu - 1) ** e[mu]
        out.append(sigma.map(lambda p, s=scalar: p * s))
    return out


def intertwining_density_residual(
    components: Sequence[SphereTensor],
    rep_rows_for,
    k: int,
) -> Tuple[Fraction, Fraction]:
    """Exact residual pair (boost, rotation) of the density identities.

    For every boost a_i:      nabla_{frak a_i} Phi + (k+1-n) x^i Phi
                              - Phi^mu (a_i . v_mu)  = 0,
    for every rotation r_ij:  nabla_{frak r_ij} Phi + Phi(r_ij ., .)
                              + Phi(., r_ij .) - Phi^mu (r_ij . v_mu) = 0.

    ``rep_rows_for(name)`` supplies the matrix of the generator on the
    target representation (sparse rows).  The residual is the total mean
    square over the sphere; both entries vanish exactly for a density of
    the matching weight.
    """
    from .lorentz import all_generators
    from .massaspect import (
        boost_field,
        rotation_endomorphism_action,
        rotation_field,
        sphere_covariant_derivative,
    )

    if not components:
        raise ValueError("empty density")
    n = components[0].n
    for c in components:
        for p in c.comp.values():
            if not isinstance(p, ExactPoly):
                raise ValueError("density components must be polynomial")
    dim = len(components)
    boost_total = F(0)
    rot_total = F(0)
    for name, gen in all_generators(n):
        rows = rep_rows_for(name)
        for nu in range(dim):
            coeffs = rows[nu] if nu < len(rows) else {}
            if name.startswith("a_"):
                i = int(name[2:])
                resid = sphere_covariant_derivative(components[nu], boost_field(n, i))
                resid = resid + components[nu].map(
                    lambda p: p * ExactPoly.variable(n, i - 1) * (k + 1 - n)
                )
            else:
                i, j = int(name[2]), int(name[3])
                resid = sphere_covariant_derivative(components[nu], rotation_field(n, i, j))
                resid = resid + rotation_endomorphism_action(n, i, j, components[nu])
            for mu, c in coeffs.items():
                resid = resid + components[mu].scale(-c)
            for p in resid.comp.values():
                sq = p * p.conjugate()
                val = sphere_integral(sq)
                mag = val.re if isinstance(val, GaussianRational) else val
                if name.startswith("a_"):
                    boost_total += mag
                else:
                    rot_total += mag
    return boost_total, rot_total

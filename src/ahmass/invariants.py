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

Every family is "pair m with the density of v": the dual element v
becomes a symmetric tensor K_v on the sphere (its dual density:
P(1, x) sigma for the conformal family, W(e+, ., e+, .) with the twist
for the Weyl families), and the mass is the integral

    Phi(m)(v) = sum_{i<=j} (2 - delta_ij) int m_ij (K_v)_ij dmu / Vol.

K_v is linear in v, so Phi(m) is evaluated as a linear functional on
the stored coordinates of V (:class:`MassFunctional`).  The density of
each unit coordinate (a monomial X^e of P, or X^e in one stored slot of
W) is built once per process; the aspect meets the unit densities
through the moments int m_ij x^a of its components, and Phi(m)(v) is
the dot product of the coefficients of v with the unit values.  The
aspect keeps both: its moments, summed in integers over its numerators
with one ``Fraction`` per moment, and its unit values per family, so
every functional of one aspect, in any number of checks, computes each
of them once.  No density of v and no product with m is formed.

All exact values are relative to Vol(S^{n-1}); each mass is canonical
only up to one overall constant.  The orientation of the volume form is
fixed so that J(d_2) = +d_3 at the south pole (-1, 0, ..., 0); the
opposite choice swaps the two chiral families.

Everything here is exact but :func:`check_equivariance_finite`, the one
float check of the finite group action; it imports numpy when it runs,
so importing this module does not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Dict, List, Sequence, Tuple

from .gaussian import GaussianRational, I
from .harmonic import build_Hp
from .linalg import _image_rows
from .lorentz import (
    AlgebraElement,
    LorentzElement,
    act_on_poly,
    algebra_act_on_poly,
    all_generators,
    mat_scale,
    mat_transpose,
    named_generators,
)
from .massaspect import (
    SphereTensor,
    algebra_action_aspect,
    group_action_numeric,
    round_metric_tensor,
    sample_tensor,
)
from .poly import (
    ExactPoly,
    coordinates,
    monomials_of_degree,
    sphere_pairing,
    sphere_restrict,
    sym2_layout,
)
from .quadrature import sphere_nodes
from .weyl import PolyTensor4, algebra_action_tensor4, build_Wp, index_pairs

F = Fraction


def conformal_weight(n: int, n1: int) -> int:
    return n - 1 + n1


def weyl_weight(n: int, n1: int) -> int:
    return n + 1 + n1


# ---------------------------------------------------------------------------
# the mass as a linear functional on the coordinates of V
# ---------------------------------------------------------------------------

_WEYL_SIGN = {"weyl": 0, "weyl_plus": 1, "weyl_minus": -1}
_FAMILIES = ("conformal", *_WEYL_SIGN)


@lru_cache(maxsize=None)
def _unit_density(family: str, nv: int, key, exponent) -> tuple:
    """Triples ((i, j), a, (2 - delta_ij) c) of the density of one unit coordinate.

    The unit is X^e (conformal family, ``key`` None) or X^e in the stored
    slot ``key`` of a :class:`PolyTensor4` (Weyl families); its density,
    a sum of terms c x^a per entry (i, j), depends on neither the aspect
    nor the decay order.
    """
    unit = ExactPoly.monomial(nv, exponent)
    if family == "conformal":
        density = conformal_density(unit, 0)
    else:
        density = weyl_density(PolyTensor4(nv, {key: unit}), 0, _WEYL_SIGN[family])
    return tuple(
        ((i, j), a, c if i == j else 2 * c) for (i, j), p in density.comp.items() for a, c in p.terms.items()
    )


class MassFunctional:
    """Phi(m) of one aspect m as a linear functional on the coordinates of V.

    The value at a unit coordinate is sum w int m_ij x^a over the triples
    ((i, j), a, w) of its density.  The moments of m and the unit values
    are computed on first use and kept on m (:attr:`SphereTensor._moments`,
    :attr:`SphereTensor._mass_values`), so every functional of m, for
    any number of dual vectors and checks, computes each once.  Zero unit
    values and moments are skipped, and a value is a ``GaussianRational``
    only where it is not real, so a zero value is the Fraction 0, as for
    the pairing with the whole density.  An unknown family raises
    ``ValueError`` before anything is kept on m; no other argument is
    checked here: the masses and the equivariance checks do.
    """

    def __init__(self, family: str, m: SphereTensor):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self._moments = m._moments
        self._units = m._mass_values.setdefault(family, {})

    def __call__(self, v):
        total = F(0)
        units = self._units
        for unit, c in coordinates(v):
            val = units.get(unit)
            if val is None:
                val = units[unit] = self._unit_value(v.nvars, unit)
            if val:
                total = total + c * val
        return total

    def _unit_value(self, nv: int, unit: tuple):
        val = F(0)
        for ij, a, w in _unit_density(self.family, nv, *unit):
            moment = self._moments.get(ij)
            if moment is not None and (mom := moment(a)):
                val = val + w * mom
        return val


def _check_dual(family: str, m: SphereTensor, v) -> int:
    """n = 3 for the chiral families, and type, dimension and homogeneity
    checks shared by the masses; returns the degree of v."""
    if _WEYL_SIGN.get(family) and m.n != 3:
        raise ValueError("chiral masses exist only for n = 3")
    weyl = family != "conformal"
    kind = PolyTensor4 if weyl else ExactPoly
    if not isinstance(v, kind):
        raise ValueError(f"the {family} family needs {kind.__name__} dual vectors, not {type(v).__name__}")
    if v.nvars != m.n + 1:
        what = "tensor/aspect dimension mismatch" if weyl else "dual argument must be an ambient polynomial"
        raise ValueError(f"{what}: {v.nvars} variables, expected n + 1 = {m.n + 1}")
    degrees = {sum(e) for (_, e), _ in coordinates(v)}
    if len(degrees) > 1:
        raise ValueError("dual argument must be homogeneous")
    return max(degrees, default=0)


def _mass(family: str, m: SphereTensor, v):
    """Phi(m)(v) after the checks of :func:`_check_dual` and of the decay order of m."""
    degree = _check_dual(family, m, v)
    weight, label = (conformal_weight, "conformal") if family == "conformal" else (weyl_weight, "Weyl")
    expected = weight(m.n, degree)
    if m.k != expected:
        raise ValueError(f"decay order {m.k} does not match the {label} weight {expected}")
    return MassFunctional(family, m)(v)


# ---------------------------------------------------------------------------
# conformal family
# ---------------------------------------------------------------------------


def conformal_density(p: ExactPoly, k: int) -> SphereTensor:
    """K_P = P(1, x) sigma, of decay order k; m pairs with it to int P(1, x) tr m."""
    restricted = sphere_restrict(p)
    return round_metric_tensor(p.nvars - 1, k).map(lambda s: s * restricted)


def conformal_mass(m: SphereTensor, p: ExactPoly):
    """int P(1, x) tr^sigma(m) dmu / Vol, exact."""
    return _mass("conformal", m, p)


def wang_mass_vector(m: SphereTensor) -> Tuple:
    """The n1 = 1 dual vector (energy-momentum): component mu pairs m with X^mu."""
    n = m.n
    if m.k != n:
        raise ValueError("the energy-momentum vector needs decay order k = n")
    mass = MassFunctional("conformal", m)
    return tuple(mass(ExactPoly.variable(n + 1, mu)) for mu in range(n + 1))


# ---------------------------------------------------------------------------
# Hodge star and J (n = 3), and the Weyl and chiral families
# ---------------------------------------------------------------------------

# Levi-Civita orientation on R^{3,1}: eps_{0123} = ORIENTATION; the sign
# is pinned by J(d_2) = +d_3 at the south pole, see
# tests/test_invariants.py::test_chiral_orientation_at_the_south_pole.
ORIENTATION = 1
_EPS4 = {
    perm: ORIENTATION * (-1) ** sum(a > b for a, b in combinations(perm, 2)) for perm in permutations(range(4))
}


def hodge_star_bivector(b: Dict[Tuple[int, int], object]) -> Dict[Tuple[int, int], object]:
    """(*B)^{mu nu} = 1/2 eps_{st ab} eta^{s mu} eta^{t nu} B^{ab}.

    ``b`` maps ordered pairs (mu < nu) to components (scalars or
    polynomials); the result uses the same convention.
    """
    out: Dict[Tuple[int, int], object] = {}
    for (al, be), val in b.items():
        for mu, nu in combinations(range(4), 2):
            e = _EPS4.get((mu, nu, al, be))
            if e:
                coef = -e if mu == 0 else e  # eta^{mu mu} eta^{nu nu}, nu > 0
                cur = out.get((mu, nu))
                term = val * coef
                out[(mu, nu)] = term if cur is None else cur + term
    return out


def _eplus_wedge(nv: int, i: int) -> Dict[Tuple[int, int], ExactPoly]:
    """Bivector e+ ^ d_i with position polynomials for e+ (i spatial)."""
    slot = i + 1
    return {
        (min(mu, slot), max(mu, slot)): ExactPoly.variable(nv, mu) * (1 if mu < slot else -1)
        for mu in range(nv)
        if mu != slot
    }


@lru_cache(maxsize=None)
def _eplus_frame(nv: int) -> tuple:
    """The bivectors e+ ^ d_i (:func:`_eplus_wedge`) for every spatial i, and
    their Hodge stars when nv = 4; built once per ``nv``."""
    wedges = tuple(_eplus_wedge(nv, i) for i in range(nv - 1))
    return wedges, tuple(map(hodge_star_bivector, wedges)) if nv == 4 else ()


def _pair_with_w(w: PolyTensor4, b1, b2) -> ExactPoly:
    """1/4 W_{mu nu al be} B1^{mu nu} B2^{al be} over all index pairs.

    Normalized so that the pairing of e+ ^ d_i with e+ ^ d_j is
    W(e+, d_i, e+, d_j).  A sum over the stored slots (A, B) of W:
    W_AB (B1[P_A] B2[P_B] + [A != B] B1[P_B] B2[P_A]), with P_A the A-th
    index pair and a missing bivector component skipped.
    """
    pairs = index_pairs(w.nv)
    s = ExactPoly.zero(w.nv)
    for (a, b), val in w.comp.items():
        for x, y in ((a, b),) if a == b else ((a, b), (b, a)):
            v1, v2 = b1.get(pairs[x]), b2.get(pairs[y])
            if v1 is not None and v2 is not None:
                s = s + val * v1 * v2
    return s


def weyl_density(w: PolyTensor4, k: int, sign: int = 0) -> SphereTensor:
    """K_W = W(e+, ., e+, .)(1, x), of decay order k; chiral for sign = +-1.

    Entry (i, j) pairs e+ ^ d_i with e+ ^ d_j.  The pair symmetry of W
    makes it symmetric; the chiral density (n = 3) subtracts
    sign i times the symmetric part of W(*(e+ ^ d_i), e+ ^ d_j).  A sign
    other than 0 and +-1, or a nonzero sign for n != 3, raises
    ``ValueError``.
    """
    n = w.nv - 1
    if sign not in (-1, 0, 1):
        raise ValueError(f"density sign must be 0, +1 or -1, got {sign}")
    if sign and n != 3:
        raise ValueError("chiral masses exist only for n = 3")
    wedges, stars = _eplus_frame(w.nv)
    comp = {}
    for i, j in sym2_layout(n):
        entry = sphere_restrict(_pair_with_w(w, wedges[i], wedges[j]))
        if sign:
            twist = _pair_with_w(w, stars[i], wedges[j]) + _pair_with_w(w, stars[j], wedges[i])
            entry = entry - sign * I * sphere_restrict(twist) / 2
        comp[(i, j)] = entry
    return SphereTensor(n, k, comp)


def weyl_mass(m: SphereTensor, w: PolyTensor4):
    """int < m, W(e+, ., e+, .) > dmu / Vol, exact (n >= 4 real case)."""
    return _mass("weyl", m, w)


def weyl_mass_chiral(m: SphereTensor, w: PolyTensor4, sign: int):
    """Chiral mass (n = 3): the second slot twisted by (Id -+ i J).

    ``sign`` +1 computes Phi_{w,+} (Id - iJ), -1 the conjugate family.
    Returns a Gaussian rational, relative to Vol(S^2).
    """
    if sign not in (1, -1):
        raise ValueError(f"chiral sign must be +1 or -1, got {sign}")
    return _mass("weyl_plus" if sign > 0 else "weyl_minus", m, w)


# ---------------------------------------------------------------------------
# equivariance checks
# ---------------------------------------------------------------------------


def _act_on_dual(family: str, gen, v):
    if family == "conformal":
        return algebra_act_on_poly(gen, v)
    return algebra_action_tensor4(gen.matrix, v)


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
    weight m.k matches the family.  ``gen`` acts on both sides, and
    ``gen_name`` must be its label in ``lorentz.all_generators(m.n)``.
    The functionals Phi(m) and Phi(a.m) are built once and evaluate every
    v and a.v; m keeps its moments and unit values, so checks with other
    generators on the same m compute none of them again.  An unknown
    family, a chiral family for n != 3, a mismatched label, an empty dual
    basis, or a dual vector of the wrong kind, variable count or
    homogeneity raises ``ValueError``.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not dual_basis:
        raise ValueError("empty dual basis")
    for v in dual_basis:
        _check_dual(family, m, v)
    if not isinstance(gen, AlgebraElement):
        gen = AlgebraElement(gen)
    named = named_generators(m.n).get(gen_name)
    if named is None or named.matrix != gen.matrix:
        raise ValueError(f"{gen_name!r} does not label the given generator of so({m.n},1)")
    mass, moved_mass = MassFunctional(family, m), MassFunctional(family, algebra_action_aspect(gen, m))
    worst = F(0)
    for v in dual_basis:
        r = moved_mass(v) + mass(_act_on_dual(family, gen, v))
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
) -> float:
    """Max |Phi(A.m)(A.v) - Phi(m)(v)| over the dual basis, numerically.

    A.m is sampled with the weighted pushforward at product-quadrature
    nodes and paired with the sampled density of A.v, which is exact.  A
    family other than conformal and weyl, a decay order off the weight,
    or a Lorentz element that is not of size n + 1 raises ``ValueError``.
    """
    n = m.n
    if a.dim != n + 1:
        raise ValueError(f"Lorentz element of size {a.dim} for an aspect with n + 1 = {n + 1}")
    if family == "conformal":
        k, act, density, build = conformal_weight(n, n1), act_on_poly, conformal_density, build_Hp
    elif family == "weyl":
        k, act, density, build = weyl_weight(n, n1), finite_action_tensor4, weyl_density, build_Wp
    else:
        raise ValueError("finite checks cover the conformal and weyl families")
    if m.k != k:
        raise ValueError(f"decay order {m.k} does not match weight {k}")
    import numpy as np

    nodes, weights = sphere_nodes(n, order)
    sampled = group_action_numeric(a, m, k, nodes)
    mass = MassFunctional(family, m)
    worst = 0.0
    for v in build(n, n1).basis:
        lhs = np.einsum("q,qij,qij->", weights, sample_tensor(density(act(a, v), k), nodes), sampled)
        worst = max(worst, abs(float(lhs) - float(mass(v))))
    return worst


def finite_action_tensor4(a: LorentzElement, w: PolyTensor4) -> PolyTensor4:
    """(A.W)_{mu nu al be} = W_{m n a b}(A^{-1}X) (A^{-1})^m_mu ... exact."""
    inv = a.inverse().matrix
    nv = w.nv
    moved = w.map(lambda p: act_on_poly(a, p))
    column = [[(r, inv[r][c]) for r in range(nv) if inv[r][c]] for c in range(nv)]
    comp = {}
    for key, idx in w.layout.items():
        s = ExactPoly.zero(nv)
        for (m_, c1), (n_, c2), (a_, c3), (b_, c4) in product(*(column[t] for t in idx)):
            base = moved.get(m_, n_, a_, b_)
            if not base.is_zero():
                s = s + base * (c1 * c2 * c3 * c4)
        comp[key] = s
    return PolyTensor4(nv, comp)


# ---------------------------------------------------------------------------
# intertwining densities
# ---------------------------------------------------------------------------


def symmetric_power_action(mat, nv: int, power: int) -> List[Dict[int, object]]:
    """Matrix of the derivation action of ``mat`` on Sym^power(R^{nv}).

    a . xi^e = sum_{mu nu} a^mu_nu xi_mu d_{xi_nu} xi^e, which is the
    polynomial action -(bX).d of b = -a^T.  The image rows of the unit
    monomials (:func:`ahmass.linalg._image_rows`), one per monomial of
    :func:`ahmass.poly.monomials_of_degree`, with column j for monomial j.
    """
    m = mat.matrix if hasattr(mat, "matrix") else mat
    b = mat_scale(mat_transpose(m), -1)
    monos = monomials_of_degree(nv, power)
    rows = _image_rows([ExactPoly.monomial(nv, e) for e in monos], [lambda p: algebra_act_on_poly(b, p)])
    return [rows.get((0, (None, e)), {}) for e in monos]


def density_null_power(n: int, n1: int, k: int) -> List[SphereTensor]:
    """Components of Phi = e+^{(x) n1} (x) sigma against Sym^{n1} monomials.

    Component e is the conformal density of the multinomial-weighted X^e.
    """
    return [
        conformal_density(ExactPoly.monomial(n + 1, e, factorial(n1) // prod(map(factorial, e))), k)
        for e in monomials_of_degree(n + 1, n1)
    ]


def intertwining_density_residual(
    components: Sequence[SphereTensor],
    rep_rows_for,
    k: int,
) -> Tuple[Fraction, Fraction]:
    """Exact residual pair (boost, rotation) of the density identities.

    Every generator a must act on the density components through the
    weighted action at the dual order n - 1 - k,
        -a ._{n-1-k} Phi_nu - sum_mu c_mu nu Phi_mu = 0,
    where c = ``rep_rows_for(name)`` is the matrix of a on the target
    representation (sparse rows, row nu).  This is the adjoint of the
    action on aspects of order k under the pairing of an aspect with a
    density that :class:`MassFunctional` evaluates.  The residual is the
    total mean square over the sphere, summed separately over the boosts
    and the rotations; both entries vanish exactly for a density of the
    matching weight.  The components must be transverse, and
    ``rep_rows_for`` must give one row per component.  Each component
    clears its denominators and decides its transversality once
    (:meth:`SphereTensor.is_transverse`), for the check here and every
    generator's action alike.
    """
    if not components:
        raise ValueError("empty density")
    n = components[0].n
    for c in components:
        for p in c.comp.values():
            if not isinstance(p, ExactPoly):
                raise ValueError("density components must be polynomial")
        if not c.is_transverse():
            raise ValueError("density component is not transverse")
    totals = [F(0), F(0)]
    for name, gen in all_generators(n):
        rows = rep_rows_for(name)
        if len(rows) != len(components):
            raise ValueError(f"{len(rows)} representation rows for {len(components)} components")
        is_rotation = not any(gen.matrix[0])  # boosts mix time and space
        for component, row in zip(components, rows):
            resid = algebra_action_aspect(gen, component, n - 1 - k).scale(F(-1))
            for mu, c in row.items():
                resid = resid + components[mu].scale(-c)
            for p in resid.comp.values():
                val = sphere_pairing(p, p.conjugate())
                totals[is_rotation] += val
    return totals[0], totals[1]

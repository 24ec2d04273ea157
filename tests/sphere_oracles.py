"""Reference routines and input strategies for the on-sphere tests.

The square-and-integrate zero test is kept here only as an oracle for
the normal-form test of :func:`ahmass.poly.vanishes_on_sphere`; the
per-term moment sum (:func:`sphere_moments_oracle`, one ``Fraction``
product per term) is the oracle of the moment kernel of
:func:`ahmass.poly.sphere_moments`, run on a polynomial's own
coefficients or on the integer numerators an aspect keeps; the
product-then-integrate pairing is the oracle of
:func:`ahmass.poly.sphere_pairing` and of :func:`pair`; :func:`pair` of
an aspect with the whole density of each dual vector is the oracle of
the masses, which :class:`ahmass.invariants.MassFunctional` evaluates on
cached unit densities, and :func:`equivariance_oracle` that of
:func:`ahmass.invariants.check_equivariance_infinitesimal`; the
unreduced tangential projection is the oracle of
:func:`ahmass.massaspect._project_slots`, and the composition of the
sphere calculus (covariant derivative, projected spatial term, conformal
factor by general products) that of the term-level
:func:`ahmass.massaspect.algebra_action_aspect`; that action run on the
``Fraction`` terms of a rational aspect (:func:`uncleared_action`) is the
oracle of its run on their integer numerators, and the flat Lie
derivative of the metric perturbation f^(k-2) m along the Killing field
of the ball model (:func:`lie_derivative_action_oracle`) is an
independent derivation of its decay weight; the composition of the
tensor slot action from derivatives and polynomial products
(:func:`slot_action_oracle`) is that of the term-level
:func:`ahmass.poly.slot_action`, and the other gathers through the
signed lookup ``get`` over every index tuple are the oracles of the
scatters over stored components: :func:`linearized_riemann_oracle`,
:func:`radial_contraction_oracle` and :func:`weyl_density_oracle` (whose
bivector pairing reads W at every pair of index pairs; the masses of
:func:`mass_oracle` pair with it); the highest-weight solve posed in X
coordinates (:func:`hw_vectors_sym2_oracle`) is the oracle of the
null-frame :func:`ahmass.weyl.hw_vectors_sym2`.

:func:`random_mass_aspect` and :func:`rational_sphere_point` make the
seeded aspects and the exact sphere points the tests run on.
"""

from dataclasses import replace
from fractions import Fraction
from operator import add
from unittest import mock

from hypothesis import strategies as st

from ahmass.gaussian import GaussianRational, I
from ahmass.invariants import _eplus_wedge, conformal_density, hodge_star_bivector
from ahmass.linalg import joint_kernel
from ahmass import massaspect
from ahmass.lorentz import AlgebraElement, algebra_act_on_poly, linear_forms, null_coordinates, raising_operators
from ahmass.massaspect import (
    SphereTensor,
    _boundary_field,
    _project_slots,
    algebra_action_aspect,
    sphere_covariant_derivative,
    transversalize,
)
from ahmass.poly import (
    ExactPoly,
    monomials_of_degree,
    sphere_integral,
    sphere_monomial_integral,
    sphere_pairing,
    sphere_restrict,
    sym2_layout,
)
from ahmass.weyl import (
    PolySym2,
    PolyTensor4,
    _combinations,
    _cov,
    _outer_sym,
    algebra_action_sym2,
    algebra_action_tensor4,
    tensor4_layout,
)


def square_and_integrate_vanishes(p: ExactPoly) -> bool:
    """True iff p is zero on the sphere, by the mean square of its real
    and imaginary parts: a continuous function with zero mean square
    vanishes."""
    re = ExactPoly(p.nvars, {e: c.re if isinstance(c, GaussianRational) else c for e, c in p.terms.items()})
    im = ExactPoly(p.nvars, {e: c.im for e, c in p.terms.items() if isinstance(c, GaussianRational)})
    for q in (re, im):
        if q.terms and sphere_integral(q * q) != 0:
            return False
    return True


def sphere_moments_oracle(p: ExactPoly):
    """a -> int p x^a dmu / Vol, one ``Fraction`` product per term of p, each
    monomial integral by its closed form."""

    def moment(a):
        total = Fraction(0)
        for e, c in p.terms.items():
            w = sphere_monomial_integral(tuple(map(add, e, a)))
            if w:
                total = total + c * w
        return total

    return moment


def sphere_ideal(n: int) -> ExactPoly:
    """|x|^2 - 1 in n variables."""
    return sum((ExactPoly.variable(n, i) ** 2 for i in range(n)), ExactPoly.zero(n)) - 1


def rational_sphere_point(t) -> tuple:
    """Inverse stereographic image of t in Q^{n-1}: an exact point of S^{n-1}."""
    s = sum(ti * ti for ti in t)
    return tuple(2 * ti / (s + 1) for ti in t) + ((s - 1) / (s + 1),)


def random_mass_aspect(n: int, k: int, rng, degree: int = 2, gaussian: bool = False) -> SphereTensor:
    """Random rational symmetric tensor of degree <= ``degree``, transversalized to order k.

    About 3 in 10 monomials of each component get a coefficient; with
    ``gaussian`` each coefficient also gets an integral imaginary part.
    """
    comp = {}
    for ij in sym2_layout(n):
        p = ExactPoly.zero(n)
        for d in range(degree + 1):
            for e in monomials_of_degree(n, d):
                if rng.random() < 0.3:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if gaussian:
                        c = c + rng.randint(-2, 2) * I
                    if c:
                        p = p + ExactPoly.monomial(n, e, c)
        comp[ij] = p
    return transversalize(SphereTensor(n, k, comp), k)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def coefficients(gaussian: bool):
    if gaussian:
        return st.builds(lambda re, im: re + im * I, rationals, rationals)
    return rationals


@st.composite
def polys(draw, n: int, gaussian: bool, max_degree: int = 4, max_terms: int = 6) -> ExactPoly:
    monos = [e for d in range(max_degree + 1) for e in monomials_of_degree(n, d)]
    terms = draw(st.dictionaries(st.sampled_from(monos), coefficients(gaussian), max_size=max_terms))
    return ExactPoly(n, terms)


@st.composite
def sphere_polys(draw, count: int = 2):
    """(n, [p_1 .. p_count]) with n in 1..4, all rational or all Gaussian."""
    n = draw(st.integers(min_value=1, max_value=4))
    gaussian = draw(st.booleans())
    return n, [draw(polys(n, gaussian)) for _ in range(count)]


def points_on_sphere(n: int):
    """Exact rational points of S^{n-1}."""
    if n == 1:
        return st.sampled_from([(Fraction(1),), (Fraction(-1),)])
    return st.lists(rationals, min_size=n - 1, max_size=n - 1).map(rational_sphere_point)


def pair(m: SphereTensor, density: SphereTensor):
    """sum_{i<=j} (2 - delta_ij) int m_ij K_ij dmu / Vol, exact.

    The full contraction of two symmetric tensors, integrated component
    by component with :func:`ahmass.poly.sphere_pairing`.
    """
    total = Fraction(0)
    for (i, j), mij in m.comp.items():
        kij = density.comp.get((i, j))
        if kij is not None:
            val = sphere_pairing(mij, kij)
            total = total + (val if i == j else 2 * val)
    return total


def weyl_density_oracle(w, k: int, sign: int = 0) -> SphereTensor:
    """K_W = W(e+, ., e+, .)(1, x) of decay order k, chiral for sign = +-1 (n = 3).

    Each bivector pairing 1/4 W_{mu nu al be} B1^{mu nu} B2^{al be} reads
    W through the signed lookup ``w.get`` at every pair of index pairs.
    """

    def pairing(b1, b2):
        s = ExactPoly.zero(w.nv)
        for (mu, nu), v1 in b1.items():
            for (al, be), v2 in b2.items():
                val = w.get(mu, nu, al, be)
                if not val.is_zero():
                    s = s + val * v1 * v2
        return s

    n = w.nv - 1
    wedges = [_eplus_wedge(w.nv, i) for i in range(n)]
    stars = [hodge_star_bivector(b) for b in wedges] if sign else []
    comp = {}
    for i in range(n):
        for j in range(i, n):
            entry = sphere_restrict(pairing(wedges[i], wedges[j]))
            if sign:
                twist = pairing(stars[i], wedges[j]) + pairing(stars[j], wedges[i])
                entry = entry - sign * I * sphere_restrict(twist) / 2
            comp[(i, j)] = entry
    return SphereTensor(n, k, comp)


DENSITY = {
    "conformal": conformal_density,
    "weyl": weyl_density_oracle,
    "weyl_plus": lambda w, k: weyl_density_oracle(w, k, +1),
    "weyl_minus": lambda w, k: weyl_density_oracle(w, k, -1),
}


def mass_oracle(family: str, m: SphereTensor, v):
    """Phi(m)(v) as the pairing of m with the whole density of v."""
    return pair(m, DENSITY[family](v, m.k))


def act_on_dual(family: str, a, v):
    """a.v for an algebra element or matrix a, on H_p or on W_p."""
    mat = a.matrix if isinstance(a, AlgebraElement) else a
    return algebra_act_on_poly(mat, v) if family == "conformal" else algebra_action_tensor4(mat, v)


def equivariance_oracle(family: str, m: SphereTensor, gen, dual_basis) -> Fraction:
    """Max |Phi(a.m)(v) + Phi(m)(a.v)|^2, one density per vector and image."""
    am = algebra_action_aspect(gen, m)
    worst = Fraction(0)
    for v in dual_basis:
        r = mass_oracle(family, am, v) + mass_oracle(family, m, act_on_dual(family, gen, v))
        worst = max(worst, r.norm2() if isinstance(r, GaussianRational) else r * r)
    return worst


def pair_oracle(m, density):
    """sum_{i<=j} (2 - delta_ij) int m_ij K_ij, each product formed in full."""
    total = Fraction(0)
    for (i, j), mij in m.comp.items():
        kij = density.comp.get((i, j))
        if kij is not None:
            val = sphere_moments_oracle(mij * kij)((0,) * m.n)
            total = total + (val if i == j else 2 * val)
    return total


def project_slots_oracle(n: int, t: dict) -> dict:
    """t_ij - x_i r_j - x_j r_i + x_i x_j s with r_i = t_ib x^b, s = r_a x^a, unreduced."""

    def x(i):
        return ExactPoly.variable(n, i)

    def entry(i, j):
        return t.get((min(i, j), max(i, j)), ExactPoly.zero(n))

    rad = [sum((entry(i, b) * x(b) for b in range(n)), ExactPoly.zero(n)) for i in range(n)]
    scalar = sum((rad[a] * x(a) for a in range(n)), ExactPoly.zero(n))
    return {
        (i, j): entry(i, j) - x(i) * rad[j] - x(j) * rad[i] + x(i) * x(j) * scalar
        for i in range(n)
        for j in range(i, n)
    }


def weighted_action_oracle(a, m, k: int):
    """-nabla_V m - Pi (A^T m + m A) Pi - k phi m, composed from the calculus.

    The tangent field V and conformal factor phi of ``a`` (an algebra
    element or its matrix M), :func:`sphere_covariant_derivative` along V,
    the spatial block A = (M^c_d) projected with :func:`_project_slots`,
    and k phi m by general polynomial products.
    """
    mat = (a if isinstance(a, AlgebraElement) else AlgebraElement(a)).matrix
    n = m.n
    field, phi = _boundary_field(mat)
    out = sphere_covariant_derivative(m, field)
    # (A^T m + m A)_cd = A^e_c m_ed + A^e_d m_ec, kept on c <= d
    spatial = [(e, c, mat[e + 1][c + 1]) for e in range(n) for c in range(n) if mat[e + 1][c + 1]]
    raw = {}
    for e, c, v in spatial:
        for d in range(n):
            key = (min(c, d), max(c, d))
            raw[key] = raw.get(key, ExactPoly.zero(n)) + m.get(e, d) * (v * 2 if c == d else v)
    out = out + SphereTensor(n, m.k, _project_slots(n, raw))
    return out.scale(Fraction(-1)) - m.map(lambda p: p * phi * k)


def uncleared_action(a, m, k: int):
    """:func:`ahmass.massaspect.algebra_action_aspect` run directly on the coefficients of m.

    The same action with the integer clearing switched off
    (:func:`ahmass.poly._cleared` answers None), so a rational aspect is
    acted on in ``Fraction`` arithmetic throughout.  It acts on a fresh
    copy of m, which clears afresh and leaves nothing kept on m.
    """
    with mock.patch.object(massaspect, "_cleared", return_value=None):
        return massaspect.algebra_action_aspect(a, replace(m), k)


def ball_killing_field(mat):
    """(xi, phi) of a matrix M of so(n,1) on the ball model, as polynomials in x^1 .. x^n.

    xi^c = M^c_0 (1 + |x|^2) / 2 + M^c_d x^d - x^c M^0_d x^d and
    phi = -M^0_d x^d; xi is a Killing field of b = f^-2 delta with
    f = (1 - |x|^2) / 2, because xi(f) = phi f and L_xi delta = 2 phi delta.
    """
    n = len(mat) - 1
    x = [ExactPoly.variable(n, c) for c in range(n)]
    half = (sum((xc * xc for xc in x), ExactPoly.zero(n)) + 1) / 2
    phi = -sum((x[d] * mat[0][d + 1] for d in range(n)), ExactPoly.zero(n))
    xi = [
        half * mat[c + 1][0] + sum((x[d] * mat[c + 1][d + 1] for d in range(n)), ExactPoly.zero(n)) + x[c] * phi
        for c in range(n)
    ]
    return xi, phi


def lie_derivative_action_oracle(a, m, k: int):
    """-Pi [(k - 2) phi m + L_xi m] Pi: the weighted action from the metric b + f^(k-2) m.

    With xi and phi from :func:`ball_killing_field`, L_xi b = 0 and
    L_xi (f^(k-2) m) = f^(k-2) [(k - 2) phi m + L_xi m], where
    (L_xi m)_ij = xi^c d_c m_ij + m_cj d_i xi^c + m_ic d_j xi^c is the flat
    Lie derivative of the components.  Projected with
    :func:`project_slots_oracle` and reduced on the sphere, with the decay
    order of m.
    """
    mat = (a if isinstance(a, AlgebraElement) else AlgebraElement(a)).matrix
    n = m.n
    xi, phi = ball_killing_field(mat)
    lie = {}
    for i, j in sym2_layout(n):
        entry = m.get(i, j) * phi * (k - 2)
        for c in range(n):
            entry = entry + xi[c] * m.get(i, j).diff(c) + m.get(c, j) * xi[c].diff(i) + m.get(i, c) * xi[c].diff(j)
        lie[(i, j)] = entry
    return SphereTensor(n, m.k, project_slots_oracle(n, lie)).scale(Fraction(-1))


def slot_action_oracle(mat, t):
    """(a.T)_I = -(aX).d T_I - sum_r a^s_{I_r} T_{I[r -> s]}, by polynomial operations.

    The linear forms (aX)^s times the derivatives of each component, and
    the slot terms read through the signed lookup ``t.get``, for every
    stored key of the layout of t with its index tuple I.
    """
    m = mat.matrix if hasattr(mat, "matrix") else mat
    nv = t.nvars
    ax = [(s, f) for s, f in enumerate(linear_forms(m)) if f]
    comp = {}
    for key, idx in t.layout.items():
        base = t.get(*idx)
        p = ExactPoly.zero(nv)
        for s, f in ax:
            p = p - f * base.diff(s)
        for r, i in enumerate(idx):
            for s in range(nv):
                if m[s][i]:
                    p = p - m[s][i] * t.get(*idx[:r], s, *idx[r + 1 :])
        comp[key] = p
    return replace(t, comp=comp)


def linearized_riemann_oracle(h: PolySym2) -> PolyTensor4:
    """R(h)_{mu nu al be} = -1/2 (dd h antisymmetrized in the two pairs), one
    stored slot at a time from the four components ``h.get`` it reads."""
    nv = h.nv
    comp = {}
    for key, (mu, nu, al, be) in tensor4_layout(nv).items():
        p = (
            h.get(nu, be).diff(mu).diff(al)
            + h.get(mu, al).diff(nu).diff(be)
            - h.get(nu, al).diff(mu).diff(be)
            - h.get(mu, be).diff(nu).diff(al)
        )
        if not p.is_zero():
            comp[key] = p / (-2)
    return PolyTensor4(nv, comp)


def radial_contraction_oracle(h: PolySym2) -> list:
    """(h X)_nu = sum_mu h_{mu nu} X^mu, by polynomial products over every index."""
    out = []
    for nu in range(h.nv):
        s = ExactPoly.zero(h.nv)
        for mu in range(h.nv):
            s = s + h.get(mu, nu) * ExactPoly.variable(h.nv, mu)
        out.append(s)
    return out


def weight_basis_oracle(n: int, degree: int, weight) -> list:
    """The tensors Z^e sym(dZ^a (x) dZ^b) of eps-weight ``weight``, built in X coordinates.

    Z^e runs over the degree-d monomials in the null coordinates and
    (a, b) over their pairs a <= b, monomial major.
    """
    nv = n + 1
    forms, weights = zip(*null_coordinates(n).values())
    covs = [_cov(z) for z in forms]
    out = []
    for e in monomials_of_degree(nv, degree):
        for a, b in sym2_layout(nv):
            factors = list(e)
            factors[a] += 1
            factors[b] += 1
            if all(sum(k * w[j] for k, w in zip(factors, weights)) == lam for j, lam in enumerate(weight)):
                z_e = ExactPoly.monomial(nv, e).substitute(forms)
                out.append(_outer_sym(nv, z_e, covs[a], covs[b]))
    return out


def hw_vectors_sym2_oracle(n: int, degree: int, weight) -> list:
    """Highest-weight solutions by the joint kernel posed in X coordinates over Q(i).

    The weight basis in X, the eta-trace and Box of :class:`PolySym2` and
    the complex root vectors of :func:`ahmass.lorentz.raising_operators`.
    """
    basis = weight_basis_oracle(n, degree, weight)
    maps = [PolySym2.eta_trace, PolySym2.box]
    maps += [lambda h, m=m: algebra_action_sym2(m, h) for _, m in raising_operators(n)]
    return _combinations(PolySym2(n + 1, {}), basis, joint_kernel(basis, maps))

"""Reference routines and input strategies for the on-sphere tests.

The square-and-integrate zero test is kept here only as an oracle for
the normal-form test of :func:`ahmass.poly.vanishes_on_sphere`; the
product-then-integrate pairing is the oracle of
:func:`ahmass.poly.sphere_pairing` and :func:`ahmass.invariants.pair`,
the unreduced tangential projection that of
:func:`ahmass.massaspect._project_slots`, and the composition of the
sphere calculus (covariant derivative, projected spatial term, conformal
factor by general products) that of the term-level
:func:`ahmass.massaspect._weighted_action`.
"""

from fractions import Fraction

from hypothesis import strategies as st

from ahmass.gaussian import GaussianRational
from ahmass.lorentz import AlgebraElement
from ahmass.massaspect import SphereTensor, _boundary_field, _project_slots, sphere_covariant_derivative
from ahmass.poly import ExactPoly, monomials_of_degree, sphere_integral


def square_and_integrate_vanishes(p: ExactPoly) -> bool:
    """True iff p is zero on the sphere, by the mean square of its real
    and imaginary parts: a continuous function with zero mean square
    vanishes."""
    re, im = p.real(), p.imag()
    for q in (re, im):
        if q.terms and sphere_integral(q * q) != 0:
            return False
    return True


def sphere_ideal(n: int) -> ExactPoly:
    """|x|^2 - 1 in n variables."""
    return sum((ExactPoly.variable(n, i) ** 2 for i in range(n)), ExactPoly.zero(n)) - 1


def rational_sphere_point(t) -> tuple:
    """Inverse stereographic image of t in Q^{n-1}: an exact point of S^{n-1}."""
    s = sum(ti * ti for ti in t)
    return tuple(2 * ti / (s + 1) for ti in t) + ((s - 1) / (s + 1),)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def coefficients(gaussian: bool):
    if gaussian:
        return st.builds(GaussianRational, rationals, rationals)
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


def pair_oracle(m, density):
    """sum_{i<=j} (2 - delta_ij) int m_ij K_ij, each product formed in full."""
    total = Fraction(0)
    for (i, j), mij in m.comp.items():
        kij = density.comp.get((i, j))
        if kij is not None:
            val = sphere_integral(mij * kij)
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

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmass.gaussian import GaussianRational, I
from ahmass.linalg import matvec
from ahmass.lorentz import (
    algebra_act_on_poly,
    all_generators,
    cartan_generators,
    raising_operators,
)
from ahmass import poly
from ahmass.massaspect import SphereTensor
from ahmass.poly import (
    ExactPoly,
    _cleared,
    _over,
    coordinates,
    euler_degree,
    hyperboloid_normal_form,
    minkowski_norm_poly,
    monomial_index,
    monomials_of_degree,
    quadric_normal_form,
    sphere_integral,
    sphere_moments,
    sphere_monomial_integral,
    sphere_pairing,
    sphere_restrict,
    to_coords,
    vanishes_on_sphere,
    wave_operator,
)
from ahmass.weyl import PolyForm, PolySym2, PolyTensor4
from space_oracles import from_coords, operator_rows
from sphere_oracles import (
    coefficients,
    points_on_sphere,
    polys,
    sphere_ideal,
    sphere_moments_oracle,
    sphere_polys,
    square_and_integrate_vanishes,
)


def X(nv, i):
    return ExactPoly.variable(nv, i)


# ---------------------------------------------------------------------------
# wave operator
# ---------------------------------------------------------------------------


def test_wave_operator_mixed_term():
    p = X(4, 0) * X(4, 1)
    assert wave_operator(p).is_zero()


def test_wave_operator_time_square():
    p = X(4, 0) ** 2
    assert wave_operator(p) == ExactPoly.constant(4, -2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_wave_operator_norm(n):
    p = minkowski_norm_poly(n + 1)
    assert wave_operator(p) == ExactPoly.constant(n + 1, 2 * (n + 1))


def test_exact_poly_rejects_bad_exponents_and_powers():
    with pytest.raises(ValueError, match="wrong length"):
        ExactPoly(3, {(1, 0): Fraction(1)})
    # such exponents were once stored
    with pytest.raises(ValueError, match="negative exponent"):
        ExactPoly(2, {(-1, 0): 1})
    for bad in ((1.0, 0), (True, 0)):
        with pytest.raises(ValueError, match="not an int"):
            ExactPoly(2, {bad: 1})
    with pytest.raises(ValueError, match="negative power"):
        X(3, 0) ** -1


@pytest.mark.parametrize("nvars", [-2, -1, True, 3.0, Fraction(3), "3", None])
def test_exact_poly_needs_an_int_variable_count(nvars):
    with pytest.raises(ValueError, match="variable count"):
        ExactPoly(nvars)
    # zero variables stay allowed: the constants of no variable
    assert ExactPoly.constant(0, 2).terms == {(): Fraction(2)}


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExactPoly(2, {(1, 0): 0.5}),
        lambda: ExactPoly.constant(2, 0.1),
        lambda: ExactPoly.constant(2, True),
        lambda: ExactPoly.monomial(2, (1, 1), 0.5),
        lambda: X(2, 0) / 0.5,
        lambda: X(2, 0) + 0.5,
        lambda: X(2, 0) - 0.5,
        lambda: X(2, 0) * 0.5,
        lambda: 0.5 * X(2, 0),
    ],
    ids=["init", "constant", "constant-bool", "monomial", "div", "add", "sub", "mul", "rmul"],
)
def test_exact_poly_rejects_inexact_coefficients(make):
    # a float or a bool raises instead of entering the terms as a float or as 1
    with pytest.raises(ValueError, match="inexact"):
        make()


def test_equality_with_an_inexact_scalar_is_false():
    # a bool or a float compares unequal and does not raise; exact scalars
    # compare as constants
    one = ExactPoly.constant(2, 1)
    for other in (True, False, 0.5):
        assert not one == other and one != other
    assert one == 1 and one == Fraction(1)


def test_wave_operator_needs_two_vars():
    with pytest.raises(ValueError):
        wave_operator(ExactPoly.variable(1, 0))


# ---------------------------------------------------------------------------
# operator rows on monomial coordinates, against the element-wise maps
# ---------------------------------------------------------------------------


@st.composite
def minkowski_forms(draw):
    """(n, degree, P): P homogeneous in the n + 1 Minkowski variables, n = 3, 4."""
    n = draw(st.sampled_from([3, 4]))
    d = draw(st.integers(min_value=0, max_value=3))
    monos = monomials_of_degree(n + 1, d)
    coeffs = coefficients(draw(st.booleans()))
    terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, max_size=6))
    return n, d, ExactPoly(n + 1, terms)


def algebra_matrices(n):
    """Every so(n,1) generator, Cartan generator and raising operator."""
    mats = [g.matrix for _, g in all_generators(n)] + cartan_generators(n)
    return mats + [m for _, m in raising_operators(n)]


@given(minkowski_forms())
@settings(max_examples=40, deadline=None)
def test_operator_rows_of_wave_operator(case):
    n, d, h = case
    assert from_coords(to_coords(h, d), n + 1, d) == h
    rows = operator_rows(wave_operator, n + 1, d, d - 2)
    assert matvec(rows, to_coords(h, d)) == to_coords(wave_operator(h), d - 2)


@given(minkowski_forms())
@settings(max_examples=20, deadline=None)
def test_operator_rows_of_algebra_action(case):
    n, d, h = case
    for m in algebra_matrices(n):
        rows = operator_rows(lambda p: algebra_act_on_poly(m, p), n + 1, d, d)
        assert matvec(rows, to_coords(h, d)) == to_coords(algebra_act_on_poly(m, h), d)


def test_operator_rows_rejects_wrong_target_degree():
    with pytest.raises(ValueError):
        operator_rows(wave_operator, 4, 3, 2)


# ---------------------------------------------------------------------------
# sphere integrals; oracle = divergence-theorem recursion
# ---------------------------------------------------------------------------


def sphere_integral_oracle(exponents):
    """int x^a / Vol via the recursion I(a) = (a_i-1)/(n+|a|-2) I(a-2e_i)."""
    n = len(exponents)
    if any(a % 2 for a in exponents):
        return Fraction(0)
    total = sum(exponents)
    if total == 0:
        return Fraction(1)
    i = next(j for j, a in enumerate(exponents) if a > 0)
    down = list(exponents)
    down[i] -= 2
    return Fraction(exponents[i] - 1, n + total - 2) * sphere_integral_oracle(down)


@pytest.mark.parametrize(
    "alpha,value",
    [
        ((0, 0, 0), Fraction(1)),
        ((2, 0, 0), Fraction(1, 3)),
        ((4, 0, 0), Fraction(1, 5)),
        ((2, 2, 0), Fraction(1, 15)),
        ((1, 0, 0), Fraction(0)),
    ],
)
def test_sphere_monomial_known_values(alpha, value):
    assert sphere_monomial_integral(alpha) == value


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=5)
)
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_recursion(alpha):
    assert sphere_monomial_integral(alpha) == sphere_integral_oracle(alpha)


def test_sphere_integral_drops_odd_part():
    p = ExactPoly.constant(3, 1) + X(3, 0)
    assert sphere_integral(p) == 1


def test_sphere_integral_norm_is_one():
    p = sum((X(3, i) ** 2 for i in range(3)), ExactPoly.zero(3))
    assert sphere_integral(p) == 1


def test_sphere_monomial_integral_rejects_negative_exponents():
    for _ in range(2):  # a raise is never memoized
        with pytest.raises(ValueError, match="negative exponent"):
            sphere_monomial_integral([2, -2])


def test_sphere_monomial_integral_rejects_bad_exponents():
    for bad in ((1.5,), (True, True), (2, 0.0), ()):
        with pytest.raises(ValueError):
            sphere_monomial_integral(bad)


# ---------------------------------------------------------------------------
# the moment kernel; oracle = one Fraction product per term
# ---------------------------------------------------------------------------


def typed(x):
    return type(x), x


@given(sphere_polys(), st.data())
@settings(max_examples=80, deadline=None)
def test_moment_kernel_is_the_per_term_sum(case, data):
    # values and coefficient types, on a polynomial's own coefficients, on
    # the integer numerators a rational aspect keeps, and through the
    # integral and the pairing
    n, (p, q) = case
    zero = (0,) * n
    exponents = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))
    oracle, moment = sphere_moments_oracle(p), sphere_moments(p)
    for a in exponents:
        assert typed(moment(a)) == typed(oracle(a))
    aspect = SphereTensor(n, 1, {(0, 0): p, (0, n - 1): q})
    for ij, kept in aspect._moments.items():
        for a in exponents:
            assert typed(kept(a)) == typed(sphere_moments_oracle(aspect.comp[ij])(a))
    assert typed(sphere_integral(p)) == typed(oracle(zero))
    assert typed(sphere_pairing(p, q)) == typed(sphere_moments_oracle(p * q)(zero))


def test_moment_kernel_brings_every_degree_over_one_denominator():
    # one parity class holding degrees 0, 2 and 4 on integer numerators,
    # and a Gaussian twin
    x, y = X(2, 0), X(2, 1)
    p = ExactPoly.constant(2, Fraction(1, 3)) + x * x * Fraction(2, 5) - x * x * y * y * Fraction(7, 4) + y**4
    terms, den = _cleared({None: p.terms})
    assert den == 60 and {type(c) for c in terms[None].values()} == {int}
    kernel = poly._Moments(2, terms[None], den)
    assert len(kernel.groups[(0, 0)]) == len(p.terms) == 4
    for a in ((0, 0), (2, 0), (1, 1), (0, 4)):
        assert typed(kernel(a)) == typed(sphere_moments(p)(a)) == typed(sphere_moments_oracle(p)(a))
    gaussian = p + x * y * I
    for a in ((0, 0), (1, 1), (3, 1)):
        assert typed(sphere_moments(gaussian)(a)) == typed(sphere_moments_oracle(gaussian)(a))
    assert isinstance(sphere_moments(gaussian)((1, 1)), GaussianRational)
    assert sphere_moments(p)((1, 0)) == 0 and type(sphere_moments(p)((1, 0))) is Fraction


@pytest.mark.parametrize("bad", [(1, 0), (1, 0, 0, 0), (-1, 0, 0), (0, 1.0, 0), (True, 0, 0), (0, None, 0)])
def test_sphere_moments_reject_bad_exponents(bad):
    with pytest.raises(ValueError):
        sphere_moments(X(3, 0))(bad)


def test_sphere_moments_check_an_exponent_on_a_memo_miss_only(monkeypatch):
    # the polynomial is built first: its constructor checks its own exponents
    p = X(3, 0) * X(3, 0) + 1
    checks = []
    check = poly._check_exponents
    monkeypatch.setattr(poly, "_check_exponents", lambda a, n: checks.append(a) or check(a, n))
    moment = sphere_moments(p)
    assert moment((0, 0, 0)) == moment((0, 0, 0)) == Fraction(4, 3)
    assert moment((1, 0, 0)) == 0
    assert checks == [(0, 0, 0), (1, 0, 0)]


# ---------------------------------------------------------------------------
# the fused pairing; oracle = sphere_integral of the full product
# ---------------------------------------------------------------------------


@st.composite
def poly_pairs(draw):
    """(p, q) in 2..5 variables, each rational or Gaussian on its own."""
    n = draw(st.integers(min_value=2, max_value=5))
    return tuple(draw(polys(n, draw(st.booleans()), max_degree=4, max_terms=8)) for _ in range(2))


@given(poly_pairs())
@settings(max_examples=60, deadline=None)
def test_sphere_pairing_is_the_integral_of_the_product(pq):
    p, q = pq
    assert sphere_pairing(p, q) == sphere_integral(p * q)
    assert sphere_pairing(p, q) == sphere_pairing(q, p)


def test_sphere_pairing_values():
    x, y, z = (X(3, i) for i in range(3))
    assert sphere_pairing(x, x) == Fraction(1, 3)
    assert sphere_pairing(x, y) == 0
    assert sphere_pairing(x * y + 1, x * y + z * z) == Fraction(1, 15) + Fraction(1, 3)
    i = GaussianRational.i()
    assert sphere_pairing(x * i, x * i) == -Fraction(1, 3)
    assert sphere_pairing(ExactPoly.zero(3), x) == 0 and sphere_pairing(x, ExactPoly.zero(3)) == 0


def test_sphere_pairing_rejects_a_variable_count_mismatch():
    with pytest.raises(ValueError, match="variable-count mismatch"):
        sphere_pairing(X(3, 0), X(4, 0))


def test_vanishes_on_sphere():
    norm_minus_1 = sum((X(3, i) ** 2 for i in range(3)), ExactPoly.zero(3)) - 1
    assert vanishes_on_sphere(norm_minus_1)
    assert not vanishes_on_sphere(X(3, 0))
    assert vanishes_on_sphere(norm_minus_1 * X(3, 0) * X(3, 1))


def test_vanishes_on_sphere_gaussian():
    i = GaussianRational.i()
    p = (X(3, 0) + X(3, 1) * i) * 0
    assert vanishes_on_sphere(p)
    assert not vanishes_on_sphere(X(3, 0) * i)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_ideal_members_vanish(d0, d1):
    norm_minus_1 = sum((X(3, i) ** 2 for i in range(3)), ExactPoly.zero(3)) - 1
    q = X(3, 0) ** d0 * X(3, 1) ** d1
    assert vanishes_on_sphere(norm_minus_1 * q)


# ---------------------------------------------------------------------------
# sphere normal form, n = 1..4, rational and Gaussian coefficients
# ---------------------------------------------------------------------------


@given(sphere_polys(count=1))
@settings(max_examples=60, deadline=None)
def test_sphere_normal_form_is_idempotent_and_reduced(case):
    n, (p,) = case
    nf = quadric_normal_form(p)
    assert all(e[-1] <= 1 for e in nf.terms)
    assert quadric_normal_form(nf) is nf


@given(sphere_polys())
@settings(max_examples=60, deadline=None)
def test_sphere_normal_form_kills_the_ideal(case):
    n, (p, q) = case
    assert quadric_normal_form(sphere_ideal(n) * q).is_zero()
    assert quadric_normal_form(p + sphere_ideal(n) * q) == quadric_normal_form(p)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sphere_normal_form_agrees_on_the_sphere(data):
    n, (p,) = data.draw(sphere_polys(count=1))
    x = data.draw(points_on_sphere(n))
    assert quadric_normal_form(p).evaluate(x) == p.evaluate(x)


@given(sphere_polys(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_zero_test_agrees_with_square_and_integrate(case, in_ideal):
    n, (p, q) = case
    r = sphere_ideal(n) * q
    if not in_ideal:
        r = r + p
    assert vanishes_on_sphere(r) == square_and_integrate_vanishes(r)


def test_monomials_need_a_variable():
    # zero variables once recursed without end
    for nvars in (0, -1):
        with pytest.raises(ValueError, match="at least one variable"):
            monomials_of_degree(nvars, 2)


def test_tensors_reject_components_that_are_not_polynomials():
    # an int component once raised AttributeError
    with pytest.raises(ValueError, match="not an ExactPoly"):
        PolyTensor4(4, {(0, 0): 1})


def test_normal_form_needs_a_variable():
    p = ExactPoly.constant(0, 1)
    with pytest.raises(ValueError):
        quadric_normal_form(p)
    with pytest.raises(ValueError):
        vanishes_on_sphere(p)


# ---------------------------------------------------------------------------
# hyperboloid normal form
# ---------------------------------------------------------------------------


def test_normal_form_norm_is_minus_one():
    p = minkowski_norm_poly(4)
    assert hyperboloid_normal_form(p) == ExactPoly.constant(4, -1)


def test_normal_form_time_square():
    nv = 4
    expect = ExactPoly.constant(nv, 1)
    for i in range(1, nv):
        expect = expect + X(nv, i) ** 2
    assert hyperboloid_normal_form(X(nv, 0) ** 2) == expect


def random_poly(nv, deg, rng, gaussian=False):
    p = ExactPoly.zero(nv)
    for mono in monomials_of_degree(nv, deg):
        if rng.random() < 0.4:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if gaussian:
                c = c + rng.randint(-3, 3) * I
            p = p + ExactPoly.monomial(nv, mono, c)
    return p


def test_normal_form_idempotent_and_kills_ideal():
    rng = random.Random(0)
    ideal_gen = minkowski_norm_poly(4) + 1
    for _ in range(10):
        p = random_poly(4, 3, rng)
        nf = hyperboloid_normal_form(p)
        assert hyperboloid_normal_form(nf) == nf
        assert max((e[0] for e in nf.terms), default=0) <= 1
        assert hyperboloid_normal_form(p * ideal_gen).is_zero()


# ---------------------------------------------------------------------------
# misc polynomial mechanics
# ---------------------------------------------------------------------------


def test_substitute_and_restrict():
    nv = 4
    p = X(nv, 0) ** 2 - X(nv, 1) * X(nv, 2)
    r = sphere_restrict(p)
    assert r.nvars == 3
    assert r == ExactPoly.constant(3, 1) - X(3, 0) * X(3, 1)


@given(sphere_polys(count=1))
@settings(max_examples=60, deadline=None)
def test_sphere_restrict_matches_substitution(case):
    n, (p,) = case
    values = [ExactPoly.constant(n - 1, 1)] + [X(n - 1, i) for i in range(n - 1)]
    assert sphere_restrict(p) == p.substitute(values)


def test_euler_degree_operator():
    p = X(4, 0) ** 2 * X(4, 3)
    assert euler_degree(p) == 3 * p


def test_gaussian_coefficients_arithmetic():
    i = GaussianRational.i()
    p = X(4, 2) + X(4, 3) * i
    q = p * p.conjugate()
    assert q == X(4, 2) ** 2 + X(4, 3) ** 2


def test_evaluate_exact():
    p = X(3, 0) ** 2 + 2 * X(3, 1)
    val = p.evaluate([Fraction(1, 2), Fraction(3), Fraction(0)])
    assert val == Fraction(1, 4) + 6


def test_monomial_enumeration_is_cached_and_read_only():
    monos = monomials_of_degree(4, 3)
    assert isinstance(monos, tuple) and monos is monomials_of_degree(4, 3)
    index = monomial_index(4, 3)
    assert index is monomial_index(4, 3)
    assert [index[e] for e in monos] == list(range(len(monos))) == sorted(index.values())
    with pytest.raises(TypeError):
        index[(3, 0, 0, 0)] = 5
    assert monomials_of_degree(4, -1) == ()


# ---------------------------------------------------------------------------
# polynomial tensors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sym2", "tensor4", "sphere", "form"])
def test_cancelling_components_are_not_stored(kind):
    x = X(4, 1)
    pair = {(0, 1): x, (1, 0): -x}
    form = PolyForm(4, 2, {(0, 1): x})
    t, zero = {
        "sym2": (PolySym2(4, pair), PolySym2(4, {})),
        "tensor4": (PolyTensor4(4, pair), PolyTensor4(4, {})),
        "sphere": (SphereTensor(4, 2, pair), SphereTensor(4, 2, {})),
        "form": (form - form, PolyForm(4, 2, {})),
    }[kind]
    assert t.comp == {} and t.is_zero() and t.degree() == -1 and t == zero


def test_signed_lookup_follows_the_layout():
    nv = 4
    x, y = X(nv, 0), X(nv, 2)
    h = PolySym2(nv, {(1, 0): x})
    assert h.get(0, 1) == h.get(1, 0) == x and h.comp.keys() == {(0, 1)}
    # pairs (0, 1), (0, 2), (0, 3), ...: stored keys (0, 1) and (2, 2) are
    # W_{0102} and W_{0303}
    w = PolyTensor4(nv, {(1, 0): x, (2, 2): y})
    assert w.get(0, 1, 0, 2) == w.get(0, 2, 0, 1) == w.get(2, 0, 1, 0) == x
    assert w.get(1, 0, 0, 2) == w.get(0, 1, 2, 0) == -x
    assert w.get(3, 0, 0, 3) == -y
    assert w.get(0, 0, 1, 2).is_zero() and w.get(1, 2, 3, 3).is_zero()
    f = PolyForm(nv, 2, {(1, 2): x})
    assert f.get(2, 1) == -f.get(1, 2) == -x
    assert f.get(1, 1).is_zero()
    g = PolyForm(nv, 3, {(0, 1, 3): y})
    assert g.get(3, 0, 1) == g.get(0, 1, 3) == y and g.get(1, 0, 3) == -y
    assert g.get(0, 3, 3).is_zero()
    for bad in [(2, 1), (1, 1), (1,), (0, 1, 2)]:
        with pytest.raises(ValueError):
            PolyForm(nv, 2, {bad: x})


LAYOUTS = {
    # a constructor, a key outside the layout and a component of the right variable count
    "sym2": (lambda comp: PolySym2(4, comp), (0, 7), X(4, 0)),
    "tensor4": (lambda comp: PolyTensor4(4, comp), (0, 99), X(4, 0)),
    "sphere": (lambda comp: SphereTensor(3, 2, comp), (0, 5), X(3, 0)),
    "form": (lambda comp: PolyForm(4, 2, comp), (0, 9), X(4, 0)),
}


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_lookup_rejects_index_tuples_outside_the_layout(kind):
    # such a tuple used to read zero (a 2-form at (0, 1, 2) or (1,), a
    # symmetric 2-tensor at (0, 7)) or raise TypeError (a 4-tensor at (0, 1, 2))
    make, _, x = LAYOUTS[kind]
    t = make({(0, 1): x})
    nv, inside = t.nvars, t.layout[(0, 1)]
    assert len(inside) == t.rank and t.get(*inside) == x
    for bad in [inside[:-1], inside + (2,), inside[:-1] + (nv,), inside[:-1] + (7,), (-1,) + inside[1:]]:
        with pytest.raises(ValueError, match="indices|outside"):
            t.get(*bad)
    # a repeated index is a zero the layout forces on a form, not an error
    if kind == "form":
        assert t.get(1, 1).is_zero()


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
def test_construction_rejects_keys_outside_the_layout_and_foreign_components(kind):
    # such a key used to be stored, and the slot action then dropped it
    # without a word; a component of another variable count was stored too
    make, bad, x = LAYOUTS[kind]
    with pytest.raises(ValueError, match="stores no key"):
        make({bad: x})
    with pytest.raises(ValueError, match="variables"):
        make({(0, 1): X(x.nvars + 1, 0)})
    t = make({(0, 1): x})
    assert t.comp == {(0, 1): x} and (0, 1) in t.layout and bad not in t.layout
    # the signed lookup reads each index tuple of the layout back at its own key
    assert all(t._slot(*idx) == (key, 1) for key, idx in t.layout.items())
    # one table per layout and size, shared and read-only
    assert t.layout is make({}).layout
    with pytest.raises(TypeError):
        t.layout[bad] = bad


def test_sum_and_difference_need_one_type_and_equal_fields():
    x = X(4, 1)
    mismatched = [
        (PolySym2(4, {(0, 1): x}), PolyTensor4(4, {(0, 1): x})),
        (SphereTensor(3, 2, {(0, 1): X(3, 1)}), SphereTensor(3, 3, {(0, 1): X(3, 1)})),
        (PolySym2(4, {(0, 1): x}), PolySym2(5, {})),
        (PolyForm(4, 2, {(0, 1): x}), PolyForm(4, 3, {})),
    ]
    for a, b in mismatched:
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="one type"):
                left + right
            with pytest.raises(ValueError, match="one type"):
                left - right


# ---------------------------------------------------------------------------
# unit coordinates
# ---------------------------------------------------------------------------


def test_coordinates_read_every_polynomial_object():
    nv, i = 4, GaussianRational(0, 1)
    p = X(nv, 0) ** 2 + X(nv, 1) * X(nv, 2) * Fraction(3, 2)
    stale = ExactPoly(nv)
    stale.terms = {(1, 0, 0, 0): Fraction(0), (0, 0, 0, 1): i}  # a cancelled term left in place

    def units(key, q):
        return {(key, e): c for e, c in q.terms.items()}

    objects = {
        "poly": (p, units(None, p)),
        "stale": (stale, {(None, (0, 0, 0, 1)): i}),
        # (1, 0) is stored at (0, 1) and merged there
        "sym2": (
            PolySym2(nv, {(0, 1): p, (1, 0): X(nv, 3), (2, 2): p * i}),
            {**units((0, 1), p + X(nv, 3)), **units((2, 2), p * i)},
        ),
        "tensor4": (PolyTensor4(nv, {(0, 5): p}), units((0, 5), p)),
        "sphere": (SphereTensor(3, 2, {(1, 0): X(3, 2) * 2}), {((0, 1), (0, 0, 1)): 2}),
        "list": ([p, ExactPoly.zero(nv), stale], {**units(0, p), (2, (0, 0, 0, 1)): i}),
    }
    for name, (obj, expected) in objects.items():
        pairs = list(coordinates(obj))
        assert dict(pairs) == expected, name
        assert len(pairs) == len(expected), name  # distinct keys
        assert all(c for _, c in pairs), name


def test_cleared_term_maps_are_integer_numerators_over_the_lcm():
    maps = {"a": {(1, 0): Fraction(1, 6), (0, 2): Fraction(-3, 4)}, "b": {(0, 0): Fraction(5)}, "c": {}}
    numerators, den = _cleared(maps)
    assert den == 12
    assert numerators == {"a": {(1, 0): 2, (0, 2): -9}, "b": {(0, 0): 60}, "c": {}}
    assert all(type(c) is int for terms in numerators.values() for c in terms.values())
    back = {key: _over(terms, den) for key, terms in numerators.items()}
    assert back == maps and all(type(c) is Fraction for terms in back.values() for c in terms.values())
    assert _cleared({}) == ({}, 1)
    # a real result of Gaussian arithmetic is a Fraction and takes the integer path
    cancelled = (Fraction(1, 2) + I) - I
    assert _cleared({"a": {(0, 0): Fraction(1, 3)}, "b": {(1, 0): cancelled}}) == ({"a": {(0, 0): 2}, "b": {(1, 0): 3}}, 6)
    # a Gaussian or a plain int coefficient leaves the maps uncleared
    assert _cleared({"a": {(0, 0): Fraction(1, 2)}, "b": {(1, 0): Fraction(1, 2) + I}}) is None
    assert _cleared({"a": {(0, 0): 3}}) is None

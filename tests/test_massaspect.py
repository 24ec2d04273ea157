import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmass import massaspect
from ahmass.gaussian import GaussianRational
from ahmass.lorentz import (
    all_generators,
    boost_from_parameter,
    bracket,
    identity_element,
    named_generators,
    raising_operators,
)
from ahmass.massaspect import (
    SphereTensor,
    TangentField,
    _project_slots,
    algebra_action_aspect,
    boost_action,
    boost_field,
    group_action_numeric,
    rotation_action,
    round_metric_tensor,
    sample_tensor,
    sphere_covariant_derivative,
    transversalize,
)
from ahmass.poly import ExactPoly, quadric_normal_form, sphere_integral, vanishes_on_sphere
from sphere_oracles import (
    ball_killing_field,
    lie_derivative_action_oracle,
    polys,
    project_slots_oracle,
    random_mass_aspect,
    sphere_ideal,
    square_and_integrate_vanishes,
    uncleared_action,
    weighted_action_oracle,
)

F = Fraction


def X(n, i):
    return ExactPoly.variable(n, i)


def test_transversalize_round_delta():
    n, k = 3, 4
    delta = SphereTensor(n, k, {(i, i): ExactPoly.constant(n, 1) for i in range(n)})
    mt = transversalize(delta, k)
    target = round_metric_tensor(n, k).scale(F(k + 1, k))
    assert mt.equal_on_sphere(target)
    assert mt.is_transverse()


def test_transversalize_fixes_transverse():
    rng = random.Random(0)
    m = random_mass_aspect(3, 4, rng)
    assert m.is_transverse()
    again = transversalize(m, 4)
    assert again.equal_on_sphere(m)


def test_transversalize_dx1_dx1():
    # m = dx^1 (x) dx^1: m~_ij = d_i1 d_j1 - x_1(d_j1 x_i + d_i1 x_j)
    #                            + (x_1^2/k)((k-1) x_i x_j + d_ij)
    n, k = 3, 3
    m = SphereTensor(n, k, {(0, 0): ExactPoly.constant(n, 1)})
    mt = transversalize(m, k)
    x = [X(n, a) for a in range(n)]
    for i in range(n):
        for j in range(i, n):
            expect = ExactPoly.zero(n)
            if i == 0 and j == 0:
                expect = expect + 1
            if j == 0:
                expect = expect - x[0] * x[i]
            if i == 0:
                expect = expect - x[0] * x[j]
            corr = x[0] * x[0] * (x[i] * x[j] * (k - 1) + (1 if i == j else 0)) / k
            expect = expect + corr
            assert vanishes_on_sphere(mt.get(i, j) - expect)
    assert mt.is_transverse()


def test_transversalize_linear_and_idempotent():
    rng = random.Random(3)
    n, k = 3, 5
    raw1 = SphereTensor(n, k, {(0, 1): X(n, 2), (1, 1): X(n, 0) ** 2})
    raw2 = SphereTensor(n, k, {(0, 0): X(n, 1), (2, 2): ExactPoly.constant(n, 2)})
    t1, t2 = transversalize(raw1, k), transversalize(raw2, k)
    s = SphereTensor(n, k, dict(raw1.comp))
    s = s + raw2
    assert transversalize(s, k).equal_on_sphere(t1 + t2)
    assert transversalize(transversalize(raw1, k), k).equal_on_sphere(t1)


def test_transversalize_rejects_k0():
    with pytest.raises(ValueError):
        transversalize(SphereTensor(3, 0, {}), 0)


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------


def test_round_metric_is_parallel():
    n = 3
    sigma = round_metric_tensor(n, 2)
    for i in range(1, n + 1):
        d = sphere_covariant_derivative(sigma, boost_field(n, i))
        assert d.is_zero()


def test_scalar_derivative_along_boost_field():
    n = 3
    f = X(n, 1)  # x^2 in 1-based labels
    d = sphere_covariant_derivative(f, boost_field(n, 1))
    # frak a_1 (x^j) = (1+|x|^2)/2 d_1j - x^1 x^j -> d_1j - x^1 x^j on sphere
    expect = -X(n, 0) * X(n, 1)
    assert vanishes_on_sphere(d - expect)
    d11 = sphere_covariant_derivative(X(n, 0), boost_field(n, 1))
    assert vanishes_on_sphere(d11 - (1 - X(n, 0) ** 2))


def test_covariant_derivative_needs_a_known_type():
    with pytest.raises(TypeError, match="cannot differentiate"):
        sphere_covariant_derivative([X(3, 0)], boost_field(3, 1))


def test_action_needs_a_transverse_aspect():
    m = SphereTensor(3, 4, {(0, 0): ExactPoly.constant(3, 1)})  # radial part x^0
    with pytest.raises(ValueError, match="not transverse"):
        algebra_action_aspect(all_generators(3)[0][1], m)


def test_not_tangent_rejected():
    n = 3
    with pytest.raises(ValueError):
        TangentField(n, [ExactPoly.constant(n, 1), ExactPoly.zero(n), ExactPoly.zero(n)])


def test_radial_contraction_rejects_an_index_outside_the_aspect():
    # x^j m_ij at i = 7 of an n = 3 aspect once read 0
    m = SphereTensor(3, 2, {(0, 1): X(3, 2)})
    assert m.radial_contraction(1) == X(3, 0) * X(3, 2)
    for i in (3, 7, -1):
        with pytest.raises(ValueError, match="outside range"):
            m.radial_contraction(i)


# ---------------------------------------------------------------------------
# weighted actions
# ---------------------------------------------------------------------------


def test_boost_action_on_round_metric():
    n, k = 3, 4
    sigma = round_metric_tensor(n, k)
    out = boost_action(2, sigma)
    expect = sigma.map(lambda p: p * X(n, 1) * k)
    assert out.equal_on_sphere(SphereTensor(n, k, expect.comp))


def test_actions_preserve_transversality_and_linearity():
    rng = random.Random(9)
    n, k = 3, 4
    m = random_mass_aspect(n, k, rng)
    for name, _ in all_generators(n):
        out = algebra_action_aspect(named_generators(n)[name], m)
        assert out.is_transverse()
    m2 = random_mass_aspect(n, k, rng)
    c = F(3, 7)
    lhs = boost_action(1, m.scale(c) + m2)
    rhs = boost_action(1, m).scale(c) + boost_action(1, m2)
    assert lhs.equal_on_sphere(rhs)


def test_trace_compatibility_infinitesimal():
    # tr(a_i . m) = -frak a_i(tr m) + k x^i tr m on the sphere
    rng = random.Random(11)
    n, k = 3, 5
    m = random_mass_aspect(n, k, rng)
    for i in (1, 2, 3):
        lhs = boost_action(i, m).trace_sigma()
        tr = m.trace_sigma()
        rhs = -boost_field(n, i).derive(tr) + k * X(n, i - 1) * tr
        assert vanishes_on_sphere(lhs - rhs)


def test_rotation_invariant_round_metric():
    n = 3
    sigma = round_metric_tensor(n, 3)
    assert rotation_action(1, 2, sigma).is_zero()


def test_bracket_relation_rotation_vs_boosts():
    rng = random.Random(4)
    n, k = 3, 4
    m = random_mass_aspect(n, k, rng, degree=1)
    for (i, j) in [(1, 2), (2, 3)]:
        lhs = rotation_action(i, j, m)
        ab = boost_action(i, boost_action(j, m))
        ba = boost_action(j, boost_action(i, m))
        rhs = (ab - ba).scale(F(-1))
        assert lhs.equal_on_sphere(rhs)
        assert not lhs.equal_on_sphere(rhs.scale(F(-1)))


def test_rotation_regression_value():
    # r_23 on the transversalized dx^2 (x) dx^2: pin each component's
    # mean square on the sphere (computed once with this module, frozen)
    n, k = 3, 4
    m = transversalize(SphereTensor(n, k, {(1, 1): ExactPoly.constant(n, 1)}), k)
    out = rotation_action(2, 3, m)
    values = {
        (i, j): sphere_integral(out.get(i, j) * out.get(i, j))
        for i in range(n)
        for j in range(i, n)
    }
    assert values == ROTATION_REGRESSION


ROTATION_REGRESSION = {
    (0, 0): F(4, 105),
    (0, 1): F(19, 420),
    (0, 2): F(19, 420),
    (1, 1): F(2, 35),
    (1, 2): F(1, 4),
    (2, 2): F(2, 35),
}


def test_conformal_anomaly_weight():
    # at k = n-1 the total trace integral is annihilated by every boost
    rng = random.Random(21)
    n = 3
    k = n - 1
    m = random_mass_aspect(n, k, rng)
    for i in (1, 2, 3):
        out = boost_action(i, m)
        assert sphere_integral(out.trace_sigma()) == 0
    # negative control at the wrong weight
    m_bad = random_mass_aspect(n, n, rng)
    vals = [sphere_integral(boost_action(i, m_bad).trace_sigma()) for i in (1, 2, 3)]
    assert any(v != 0 for v in vals)


@pytest.mark.parametrize(
    "n,pairs",
    [
        (3, None),
        (4, [("a_1", "a_3"), ("a_2", "r_14"), ("r_12", "r_23")]),
    ],
)
def test_action_of_a_bracket_is_the_commutator(n, pairs):
    # (bracket(A, B)) . m = A . (B . m) - B . (A . m), every pair at n = 3
    gens = dict(all_generators(n))
    names = list(gens)
    pairs = pairs or [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    m = random_mass_aspect(n, 4, random.Random(13), degree=0)
    once = {name: algebra_action_aspect(gens[name], m) for pair in pairs for name in pair}
    for a, b in pairs:
        A, B = gens[a].matrix, gens[b].matrix
        lhs = algebra_action_aspect(bracket(A, B), m)
        commutator = algebra_action_aspect(A, once[b]) - algebra_action_aspect(B, once[a])
        assert lhs.equal_on_sphere(commutator), (a, b)


def test_raising_operator_acts_as_its_translation_combination():
    # e1-e2 = -(s_2 - i s_3)/2 with s_A = a_A + r_1A
    n, k = 3, 4
    m = random_mass_aspect(n, k, random.Random(17), degree=0, gaussian=True)

    def s(A):
        return boost_action(A, m) + rotation_action(1, A, m)

    out = algebra_action_aspect(dict(raising_operators(n))["e1-e2"], m)
    assert out.equal_on_sphere((s(2) - s(3).scale(GaussianRational.i())).scale(F(-1, 2)))
    assert out.is_transverse()
    assert not out.is_zero()


@pytest.mark.parametrize(
    "n,degree,gaussian",
    [(3, 2, False), (3, 2, True), (4, 1, False), (4, 0, True)],
    ids=["3-real", "3-gaussian", "4-real", "4-gaussian"],
)
def test_weighted_action_is_the_calculus_composition(n, degree, gaussian):
    # every generator and one Gaussian raising operator, structurally equal;
    # the orders cycle through k = -3 (a dual order n - 1 - k, as in
    # intertwining_density_residual), 0, 2 and 5
    m = random_mass_aspect(n, 4, random.Random(10 * n + gaussian), degree=degree, gaussian=gaussian)
    elements = [g for _, g in all_generators(n)] + [raising_operators(n)[0][1]]
    for a, k in zip(elements, itertools.cycle((-3, 0, 2, 5))):
        assert algebra_action_aspect(a, m, k) == weighted_action_oracle(a, m, k), k


@pytest.mark.parametrize("n", [3, 4])
def test_ball_killing_field_preserves_the_ball_metric(n):
    # with f = (1 - |x|^2) / 2, xi(f) = phi f and
    # f^3 (L_xi b)_ij = f (d_i xi^j + d_j xi^i) - 2 xi(f) delta_ij vanish as polynomials
    f = sphere_ideal(n) / (-2)
    for label, g in all_generators(n):
        xi, phi = ball_killing_field(g.matrix)
        xi_f = sum((xi[c] * f.diff(c) for c in range(n)), ExactPoly.zero(n))
        assert xi_f == phi * f, label
        for i, j in itertools.product(range(n), repeat=2):
            assert f * (xi[j].diff(i) + xi[i].diff(j)) == (2 * xi_f if i == j else 0), (label, i, j)


@pytest.mark.parametrize("n,k,degree", [(3, 3, 2), (3, 5, 1), (4, 2, 1)])
def test_weighted_action_is_the_lie_derivative_of_the_metric(n, k, degree):
    # an independent derivation of the decay weight: every generator
    # agrees at the order k of the aspect, and no boost at k + 1
    m = random_mass_aspect(n, k, random.Random(20 * n + k), degree=degree)
    for label, g in all_generators(n):
        got = algebra_action_aspect(g, m, k)
        assert got == lie_derivative_action_oracle(g, m, k), label
        if label.startswith("a_"):
            assert got != lie_derivative_action_oracle(g, m, k + 1), label


def typed_terms(t: SphereTensor) -> dict:
    """Every stored coefficient with its type, keyed by component and exponent."""
    return {(ij, e): (type(c), c) for ij, p in t.comp.items() for e, c in p.terms.items()}


def common_denominator(t: SphereTensor) -> int:
    return math.lcm(*(c.denominator for p in t.comp.values() for c in p.terms.values()))


@pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (4, 3)])
def test_cleared_action_equals_the_kernel_on_fraction_terms(n, seed):
    # the integer numerators over their common denominator give the same
    # tensor, term by term and in coefficient type, for every generator at
    # the aspect's own order and at 0
    m = random_mass_aspect(n, n + 1, random.Random(seed))
    assert common_denominator(m) > 1
    for _, g in all_generators(n):
        for k in (m.k, 0):
            out = typed_terms(algebra_action_aspect(g, m, k))
            assert out == typed_terms(uncleared_action(g, m, k)), k
            assert {tp for tp, _ in out.values()} == {Fraction}


def test_action_commutes_with_a_rational_scalar_of_large_denominator():
    n = 3
    m = random_mass_aspect(n, 4, random.Random(5))
    c = F(-7 * 2**64 + 1, 3 * 2**61 - 1)
    for _, g in all_generators(n):
        assert algebra_action_aspect(g, m.scale(c)) == algebra_action_aspect(g, m).scale(c)


def test_gaussian_aspects_and_roots_are_acted_on_uncleared(monkeypatch):
    # neither a Gaussian aspect nor a Gaussian root matrix reaches the
    # division by the common denominator; both keep their results
    def no_division(terms, den):
        raise AssertionError("divided an uncleared action")

    n = 3
    real = random_mass_aspect(n, 4, random.Random(6))
    gaussian = random_mass_aspect(n, 4, random.Random(7), gaussian=True)
    expect = [weighted_action_oracle(g, gaussian, 4) for _, g in all_generators(n)]
    expect += [weighted_action_oracle(mat, real, 4) for _, mat in raising_operators(n)]
    monkeypatch.setattr(massaspect, "_over", no_division)
    got = [algebra_action_aspect(g, gaussian) for _, g in all_generators(n)]
    got += [algebra_action_aspect(mat, real) for _, mat in raising_operators(n)]
    assert got == expect


def test_transversality_verdict_is_unchanged_by_a_rational_scale():
    n, k = 3, 4
    transverse = random_mass_aspect(n, k, random.Random(8))
    raw = SphereTensor(n, k, {(0, 1): X(n, 2) * F(1, 3), (1, 1): ExactPoly.constant(n, F(2, 5))})
    for m, verdict in ((transverse, True), (raw, False)):
        assert m.is_transverse() is verdict
        assert m.scale(F(7, 3)).is_transverse() is verdict


@pytest.mark.parametrize(
    "act,match",
    [
        (lambda m: rotation_action(1, 5, m), "distinct indices in 1..3"),
        (lambda m: rotation_action(2, 2, m), "distinct indices"),
        (lambda m: algebra_action_aspect(all_generators(4)[0][1], m), "dimension mismatch"),
    ],
    ids=["index-out-of-range", "equal-indices", "wrong-dimension"],
)
def test_bad_generator_input_raises_value_error(act, match):
    m = random_mass_aspect(3, 4, random.Random(1), degree=0)
    with pytest.raises(ValueError, match=match):
        act(m)


# ---------------------------------------------------------------------------
# components in sphere normal form, n = 2..4, rational and Gaussian
# ---------------------------------------------------------------------------


def is_reduced(t: SphereTensor) -> bool:
    return all(quadric_normal_form(p) is p for p in t.comp.values())


@st.composite
def raw_tensors(draw, count):
    """(n, [comp_1 .. comp_count]): raw upper-triangle component dicts."""
    n = draw(st.integers(min_value=2, max_value=4))
    gaussian = draw(st.booleans())
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    return n, [
        {ij: draw(polys(n, gaussian, max_degree=3, max_terms=3)) for ij in keys}
        for _ in range(count)
    ]


@given(raw_tensors(count=3))
@settings(max_examples=25, deadline=None)
def test_components_stored_in_normal_form(case):
    n, (raw, shift, other) = case
    m = SphereTensor(n, 4, raw)
    assert is_reduced(m)
    shifted = SphereTensor(n, 4, {ij: p + sphere_ideal(n) * shift[ij] for ij, p in raw.items()})
    assert m.equal_on_sphere(shifted)
    expect = all(square_and_integrate_vanishes(raw[ij] - other[ij]) for ij in raw)
    assert m.equal_on_sphere(SphereTensor(n, 4, other)) == expect
    # == also compares the decay order; equal_on_sphere ignores it
    assert m != SphereTensor(n, 5, raw) and m.equal_on_sphere(SphereTensor(n, 5, raw))
    assert (m - shifted).is_zero()


@given(st.integers(min_value=2, max_value=4), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=8, deadline=None)
def test_actions_return_reduced_components(n, gaussian, rng):
    m = random_mass_aspect(n, 4, rng, degree=1, gaussian=gaussian)
    assert is_reduced(boost_action(1, m))
    assert is_reduced(rotation_action(1, 2, m))


@st.composite
def symmetric_arrays(draw):
    """(n, {(i, j): t_ij}) with i <= j, n = 3 or 4; an empty entry is a zero."""
    n = draw(st.sampled_from([3, 4]))
    gaussian = draw(st.booleans())
    entry = polys(n, gaussian, max_degree=3, max_terms=3)
    return n, {(i, j): draw(entry) for i in range(n) for j in range(i, n)}


@given(symmetric_arrays())
@settings(max_examples=12, deadline=None)
def test_projection_with_reduced_intermediates_is_the_projection(case):
    n, t = case
    assert SphereTensor(n, 4, _project_slots(n, t)) == SphereTensor(n, 4, project_slots_oracle(n, t))


# ---------------------------------------------------------------------------
# numeric group action
# ---------------------------------------------------------------------------


def fibonacci_nodes(count):
    pts = []
    golden = (1 + 5**0.5) / 2
    for i in range(count):
        z = 1 - (2 * i + 1) / count
        phi = 2 * np.pi * i / golden
        r = np.sqrt(max(0.0, 1 - z * z))
        pts.append([r * np.cos(phi), r * np.sin(phi), z])
    return np.array(pts)


def test_group_action_identity_samples_m():
    rng = random.Random(2)
    m = random_mass_aspect(3, 4, rng)
    nodes = fibonacci_nodes(12)
    sampled = group_action_numeric(identity_element(3), m, 4, nodes)
    direct = sample_tensor(m, nodes)
    assert np.max(np.abs(sampled - direct)) < 1e-12


def test_sampling_is_the_per_term_sum():
    # the power table and the monomial matrix against one float product per
    # term and node, summed in term order: equal up to the rounding of a few
    # products and of the summation order
    rng = random.Random(3)
    m = random_mass_aspect(3, 4, rng)
    nodes = fibonacci_nodes(9)
    sampled = sample_tensor(m, nodes)
    for q, x in enumerate(nodes):
        for i, j in itertools.product(range(3), repeat=2):
            terms = m.get(i, j).terms.items()
            want = sum(float(c) * math.prod(x[v] ** e[v] for v in range(3)) for e, c in terms)
            scale = sum(abs(float(c)) for _, c in terms)
            assert abs(sampled[q, i, j] - want) <= 1e-14 * max(scale, 1)


def test_group_action_transversality_at_nodes():
    rng = random.Random(5)
    m = random_mass_aspect(3, 5, rng)
    nodes = fibonacci_nodes(10)
    a = boost_from_parameter(3, 1, F(1, 3))
    sampled = group_action_numeric(a, m, 5, nodes)
    for q, x in enumerate(nodes):
        assert np.linalg.norm(sampled[q] @ x) < 1e-12


def test_group_action_derivative_matches_boost_action():
    # Richardson differencing of the finite action reproduces a_i . m
    rng = random.Random(7)
    n, k = 3, 4
    m = random_mass_aspect(n, k, rng, degree=1)
    nodes = fibonacci_nodes(8)
    exact = sample_tensor(boost_action(1, m), nodes)

    def sampled(t):
        a = boost_from_parameter(n, 1, t)
        return group_action_numeric(a, m, k, nodes)

    def rapidity(t):
        return float(np.log(float((1 + t) / (1 - t))))

    def diff(t):
        return (sampled(t) - sampled(-t)) / (2 * rapidity(t))

    t = F(1, 64)
    d1, d2, d3 = diff(t), diff(t / 2), diff(t / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    rich = (16 * r2 - r1) / 15
    assert np.max(np.abs(rich - exact)) < 1e-8


def test_numeric_sampling_rejects_imaginary_parts():
    rng = random.Random(2)
    m = random_mass_aspect(3, 4, rng, gaussian=True)
    assert any(isinstance(c, GaussianRational) and c.im for p in m.comp.values() for c in p.terms.values())
    nodes = fibonacci_nodes(4)
    with pytest.raises(ValueError):
        sample_tensor(m, nodes)
    with pytest.raises(ValueError):
        group_action_numeric(identity_element(3), m, 4, nodes)


@pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (4, 3)])
def test_public_action_clears_the_aspect_once(n, seed, monkeypatch):
    # the transversality test and the actions of every generator share one
    # clearing, and each result equals the kernel on Fraction terms in value
    # and type
    m = random_mass_aspect(n, n + 1, random.Random(seed))
    expect = [typed_terms(uncleared_action(g, m, m.k)) for _, g in all_generators(n)]
    calls = []
    clear = massaspect._cleared
    monkeypatch.setattr(massaspect, "_cleared", lambda maps: calls.append(1) or clear(maps))
    for (_, g), want in zip(all_generators(n), expect):
        assert typed_terms(algebra_action_aspect(g, m)) == want
    assert len(calls) == 1


def test_public_action_still_rejects_a_non_transverse_aspect():
    # the kept verdict refuses as well: a repeat call raises as the first did
    raw = SphereTensor(3, 4, {(0, 1): ExactPoly.variable(3, 2) * F(1, 3)})
    for _ in range(2):
        with pytest.raises(ValueError, match="not transverse"):
            algebra_action_aspect(all_generators(3)[0][1], raw)


def test_kept_numerators_and_verdict_are_not_compared_or_copied():
    # a tensor that has cleared and tested itself equals a fresh equal
    # tensor; scale, + and replace build tensors that decide afresh
    n = 3
    m = random_mass_aspect(n, 4, random.Random(9))
    raw = SphereTensor(n, 4, {(0, 1): X(n, 2) * F(1, 3)})
    assert m.is_transverse() and not raw.is_transverse()
    zero = (0,) * n
    moments = {ij: moment(zero) for ij, moment in m._moments.items()}
    m._mass_values.setdefault("conformal", {})[(None, (0,) * (n + 1))] = F(1)
    kept = {"_numerators", "_transverse", "_moments", "_mass_values"}
    fresh = replace(m)
    assert kept <= vars(m).keys()
    assert not kept & vars(fresh).keys()
    assert m == fresh and fresh == m
    assert fresh._mass_values == {} and {ij: moment(zero) for ij, moment in fresh._moments.items()} == moments
    assert not (m + raw).is_transverse()
    assert raw.scale(F(0)).is_transverse()
    scaled = m.scale(F(5, 11))
    assert scaled._numerators == massaspect._cleared(scaled._term_maps()) != m._numerators
    assert not {"_moments", "_mass_values"} & vars(scaled).keys()
    assert {ij: moment(zero) for ij, moment in scaled._moments.items()} == {ij: v * F(5, 11) for ij, v in moments.items()}
    assert not {"_moments", "_mass_values"} & vars(m + raw).keys()


def typed_poly(p: ExactPoly) -> dict:
    return {e: (type(c), c) for e, c in p.terms.items()}


@pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (4, 3)])
def test_cleared_trace_equals_the_fraction_trace(n, seed, monkeypatch):
    # the trace of the integer numerators over their common denominator,
    # term by term and in coefficient type, on transverse and raw aspects
    rng = random.Random(seed)
    m = random_mass_aspect(n, n + 1, rng)
    raw = SphereTensor(n, n + 1, {(0, 0): ExactPoly.constant(n, F(2, 3)), (0, 1): ExactPoly.variable(n, 1) * F(-5, 4)})
    aspects = [m, m.scale(F(7, 9)), raw]
    got = [typed_poly(t.trace_sigma()) for t in aspects]
    assert {tp for g in got for tp, _ in g.values()} == {Fraction}
    # fresh copies clear afresh: the aspects above keep their numerators
    monkeypatch.setattr(massaspect, "_cleared", lambda maps: None)
    assert got == [typed_poly(replace(t).trace_sigma()) for t in aspects]


def test_gaussian_trace_is_taken_uncleared(monkeypatch):
    m = random_mass_aspect(3, 4, random.Random(7), gaussian=True)
    expect = typed_poly(m.trace_sigma())

    def no_division(terms, den):
        raise AssertionError("divided an uncleared trace")

    monkeypatch.setattr(massaspect, "_over", no_division)
    assert typed_poly(m.trace_sigma()) == expect
    assert GaussianRational in {tp for tp, _ in expect.values()}

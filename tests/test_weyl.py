import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ahmass import poly, weyl
from ahmass.gaussian import GaussianRational, I
from ahmass.harmonic import build_Hp, dim_Hp, signature_Hp
from ahmass.linalg import joint_kernel
from ahmass.lorentz import (
    algebra_act_on_poly,
    all_generators,
    bracket,
    cartan_generators,
    cartan_rank,
    highest_weight_vectors,
    null_coordinates,
    null_raising_operators,
    raising_operators,
)
from ahmass.massaspect import SphereTensor
from ahmass.poly import ExactPoly, minkowski_norm_poly, monomials_of_degree, slot_action, sym2_layout, wave_operator
from ahmass.weyl import (
    PolyForm,
    PolySym2,
    PolyTensor4,
    _combinations,
    _cov,
    _null_box,
    _null_eta_trace,
    _one_transverse,
    _outer_sym,
    _units_in_x,
    _weight_units,
    algebra_action_sym2,
    algebra_action_tensor4,
    build_Wp,
    catalog_chiral_printed,
    catalog_gauge1,
    catalog_gauge2,
    catalog_weyl_type,
    chiral_hw_vector,
    de_donder_fix,
    dim_Wp,
    eta_tensor,
    hw_vectors_sym2,
    hw_vectors_weyl,
    linearized_einstein,
    linearized_riemann,
    proportionality,
    signature_Wp,
    signature_Wp_expected,
    sym_gauge,
    tensor4_layout,
    weyl_to_potential,
    weyl_type_hw_vector,
)
from space_oracles import build_Wp_rows, transverse_solution_space, weyl_residuals_oracle
from sphere_oracles import (
    hw_vectors_sym2_oracle,
    linearized_riemann_oracle,
    radial_contraction_oracle,
    slot_action_oracle,
    weight_basis_oracle,
)

F = Fraction


def X(nv, i):
    return ExactPoly.variable(nv, i)


def random_gauge(nv, deg, rng):
    xi = []
    for _ in range(nv):
        p = ExactPoly.zero(nv)
        for e in monomials_of_degree(nv, deg):
            if rng.random() < 0.35:
                p = p + ExactPoly.monomial(nv, e, F(rng.randint(-3, 3)))
        xi.append(p)
    return sym_gauge(xi)


# ---------------------------------------------------------------------------
# linearized operators
# ---------------------------------------------------------------------------


def test_einstein_kills_pure_gauge():
    rng = random.Random(0)
    for deg in (2, 3, 4):
        h = random_gauge(4, deg, rng)
        assert linearized_einstein(h).is_zero()


def test_einstein_eta_norm_regression():
    nv = 4
    h = eta_tensor(nv).map(lambda p: p * minkowski_norm_poly(nv))
    g = linearized_einstein(h)
    expect = {
        (0, 0): ExactPoly.constant(nv, -12),
        (1, 1): ExactPoly.constant(nv, 12),
        (2, 2): ExactPoly.constant(nv, 12),
        (3, 3): ExactPoly.constant(nv, 12),
    }
    assert g == PolySym2(nv, expect)


def test_einstein_vanishes_in_wave_gauge():
    # trace-free, divergence-free, wave-harmonic tensors solve the equations
    for h in transverse_solution_space(3, 2):
        assert linearized_einstein(h).is_zero()


def test_riemann_kills_gauge_and_constants():
    rng = random.Random(1)
    h = random_gauge(4, 3, rng)
    assert linearized_riemann(h).is_zero()
    const = PolySym2(4, {(0, 1): ExactPoly.constant(4, 5)})
    assert linearized_riemann(const).is_zero()


def test_riemann_highest_weight_component():
    # the curvature of the weight-((p+2), 2) potential has the pinned
    # component value (p+2)(p+3)(Z^{-1})^p on (e_{-1}, e_{-2}, e_{-1}, e_{-2})
    n, p = 4, 1
    h = catalog_weyl_type(n, p)
    w = linearized_riemann(h)
    nv = n + 1
    # e_{-1} = (d0 + d1)/2, e_{-2} = (d2 - i d3)/2
    i = GaussianRational.i()
    em1 = [F(1, 2), F(1, 2), F(0), F(0), F(0)]
    em2 = [F(0), F(0), F(1, 2), GaussianRational(0, F(-1, 2)), F(0)]
    comp = ExactPoly.zero(nv)
    for mu in range(nv):
        for nu in range(nv):
            for al in range(nv):
                for be in range(nv):
                    c = em1[mu] * em2[nu] * em1[al] * em2[be]
                    if c:
                        comp = comp + w.get(mu, nu, al, be) * c
    z1 = X(nv, 0) + X(nv, 1)
    # R(h) carries -1/2 (p+2)(p+3); the associated W = -2 R(h) carries
    # exactly (p+2)(p+3), the usual quoted constant
    assert comp == z1**p * F(-(p + 2) * (p + 3), 2)


# ---------------------------------------------------------------------------
# de Donder gauge fixing
# ---------------------------------------------------------------------------


def test_de_donder_fix_identity_on_gauge_fixed():
    for h in transverse_solution_space(3, 2):
        out, xi = de_donder_fix(h)
        assert all(p.is_zero() for p in xi)
        assert out == h


def test_de_donder_fix_pure_gauge():
    rng = random.Random(3)
    h = random_gauge(4, 3, rng)
    out, xi = de_donder_fix(h)
    assert out.eta_trace().is_zero()
    assert all(d.is_zero() for d in out.divergence())
    assert out.box().is_zero()
    assert linearized_riemann(out).is_zero()  # still pure gauge


def test_de_donder_fix_rejects_inhomogeneous_input():
    # a pure gauge solves the equations; mixed degrees once raised a bare KeyError
    h = sym_gauge([X(4, 1) ** 2, X(4, 0) ** 3, ExactPoly.zero(4), X(4, 2) * X(4, 3)])
    assert linearized_einstein(h).is_zero()
    with pytest.raises(ValueError, match="h must be homogeneous"):
        de_donder_fix(h)


@pytest.mark.parametrize("n", [3, 4])
def test_de_donder_fix_mixed_input(n):
    # pure gauge plus a transverse solution: the fix removes the gauge
    # part only, so the curvature is unchanged
    rng = random.Random(n)
    trans = transverse_solution_space(n, 2)
    h = random_gauge(n + 1, 3, rng)
    for t in trans[:3]:
        h = h + t.scale(F(rng.randint(1, 3)))
    out, xi = de_donder_fix(h)
    assert any(not p.is_zero() for p in xi)
    assert out == h + sym_gauge(xi)
    assert out.eta_trace().is_zero()
    assert all(d.is_zero() for d in out.divergence())
    assert out.box().is_zero()
    assert linearized_riemann(out) == linearized_riemann(h)
    assert not linearized_riemann(out).is_zero()


def test_de_donder_trace_pattern():
    # the explicit trace-removal field: xi = -(X0-X1)^{p+3}(dX0+dX1)/(2(p+3))
    # is wave harmonic with d.xi = (X0 - X1)^{p+2}
    nv, p = 4, 1
    c = F(-1, 2 * (p + 3))
    base = (X(nv, 0) - X(nv, 1)) ** (p + 3)
    xi = [base * c, base * c, ExactPoly.zero(nv), ExactPoly.zero(nv)]
    assert all(wave_operator(q).is_zero() for q in xi)
    div = -xi[0].diff(0) + xi[1].diff(1)
    assert div == (X(nv, 0) - X(nv, 1)) ** (p + 2)


def test_de_donder_rejects_non_solutions():
    nv = 4
    bad = PolySym2(nv, {(0, 0): X(nv, 1) ** 2})
    with pytest.raises(ValueError):
        de_donder_fix(bad)


# ---------------------------------------------------------------------------
# W_p spaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,p,dim", [(3, 0, 10), (4, 0, 35), (3, 1, 24)])
def test_wp_dimensions(n, p, dim):
    assert dim_Wp(n, p) == dim
    assert build_Wp(n, p).dim == dim


@pytest.mark.parametrize("n,p", [(3, 0), (3, 1), (4, 0), (3, 2)])
def test_wp_basis_satisfies_constraints(n, p):
    # the gathered residuals vanish on every basis tensor, and no
    # combination of the basis tensors vanishes
    sp = build_Wp(n, p)
    for w in sp.basis:
        assert w.satisfies_weyl_constraints() and weyl_residuals_oracle(w) == {}
    assert joint_kernel(sp.basis, [lambda w: w]) == []


@pytest.mark.parametrize("n,p", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1)])
def test_build_wp_is_the_rows_route(n, p):
    """The kernel of the residuals on unit tensors is the echelon basis of the
    Kronecker-assembled rows: equal tensors in equal order, with equal
    coefficient types, keys and terms in equal order."""
    assert [typed_in_order(w) for w in build_Wp(n, p).basis] == [typed_in_order(w) for w in build_Wp_rows(n, p).basis]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_residuals_equal_the_gather_oracle(n, gaussian):
    """The scatter residuals of dense, half-filled and single-slot tensors
    equal the three gathered families, key by key, coefficient types
    included."""
    rng = random.Random(900 * n + gaussian)
    nv = n + 1
    slots = list(tensor4_layout(nv))
    tensors = [random_tensor(PolyTensor4, slots, nv, 2, rng, gaussian, sparse) for sparse in (False, True)]
    tensors += [PolyTensor4(nv, random_comp([slot], nv, 2, rng, gaussian)) for slot in slots]
    tensors.append(PolyTensor4(nv, {}))
    for w in tensors:
        got = w.residuals()
        want = weyl_residuals_oracle(w)
        assert got.keys() == want.keys()
        assert all(typed_terms(r) == typed_terms(want[key]) for key, r in got.items())
        assert w.satisfies_weyl_constraints() == (not want)
    assert not tensors[0].satisfies_weyl_constraints()


def test_wp_closed_under_algebra_action():
    # the image is a combination of the basis: a kernel row of basis + [img]
    # has a nonzero last entry
    sp = build_Wp(3, 1)
    for name, g in all_generators(3)[:4]:
        img = algebra_action_tensor4(g.matrix, sp.basis[0])
        assert any(row.get(sp.dim) for row in joint_kernel(sp.basis + [img], [lambda w: w]))


@pytest.mark.parametrize(
    "n,p",
    [(3, 0), (3, 1), (4, 0)],
)
def test_wp_signatures_small(n, p):
    assert signature_Wp(n, p) == signature_Wp_expected(n, p)


@pytest.mark.parametrize("p", [0, 1])
def test_wp_at_n2_is_empty_with_signature_zero(p):
    # the Weyl tensor vanishes in three dimensions
    assert build_Wp(2, p).dim == dim_Wp(2, p) == 0
    assert signature_Wp(2, p) == signature_Wp_expected(2, p) == (0, 0)


def test_signature_diff_p0_formula():
    for n in (3, 4, 5):
        plus, minus = signature_Wp_expected(n, 0)
        assert plus - minus == (n + 2) * (n - 1) * (n - 2) * (n - 3) // 12


@pytest.mark.parametrize("closed_form", [dim_Wp, signature_Wp_expected])
@pytest.mark.parametrize("n,p", [(1, 0), (3, -1)])
def test_closed_forms_reject_bad_input(closed_form, n, p):
    with pytest.raises(ValueError):
        closed_form(n, p)


@pytest.mark.parametrize("closed_form", [dim_Wp, signature_Wp_expected])
def test_closed_forms_raise_when_not_integral(closed_form, monkeypatch):
    # with every binomial replaced by 1 both closed forms are fractions at n = 4
    monkeypatch.setattr(math, "comb", lambda a, b: 1)
    with pytest.raises(ArithmeticError):
        closed_form(4, 0)


# ---------------------------------------------------------------------------
# Weyl -> potential
# ---------------------------------------------------------------------------


def test_potential_of_zero():
    w = PolyTensor4(4, {})
    assert weyl_to_potential(w).is_zero()


def test_potential_round_trip_de_donder():
    # W = -2 R(h) for a wave-gauge solution h; the pipeline's potential
    # has the same curvature as h
    for h in transverse_solution_space(3, 2)[:2]:
        w = linearized_riemann(h).scale(F(-2))
        h2 = weyl_to_potential(w)
        assert linearized_riemann(h2) == linearized_riemann(h)


def test_potential_random_w0():
    rng = random.Random(11)
    sp = build_Wp(4, 0)
    for _ in range(3):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(sp.dim)]
        w = PolyTensor4(5, {})
        for c, b in zip(coeffs, sp.basis):
            if c:
                w = w + b.scale(c)
        h = weyl_to_potential(w)
        assert linearized_riemann(h) == w.scale(F(-1, 2))


def test_potential_of_inhomogeneous_w():
    # W_0 + W_1 at n = 3: the potential has parts of degrees 2 and 3
    rng = random.Random(5)
    w = PolyTensor4(4, {})
    for p in (0, 1):
        for b in build_Wp(3, p).basis:
            w = w + b.scale(F(rng.randint(-2, 2)))
    assert {sum(e) for q in w.comp.values() for e in q.terms} == {0, 1}
    h = weyl_to_potential(w)
    assert linearized_riemann(h) == w.scale(F(-1, 2))
    assert {sum(e) for q in h.comp.values() for e in q.terms} == {2, 3}


def test_potential_rejects_bad_input():
    nv = 4
    bad = PolyTensor4(nv, {(0, 0): ExactPoly.constant(nv, 1)})
    with pytest.raises(ValueError):
        weyl_to_potential(bad)


# ---------------------------------------------------------------------------
# highest-weight reports
# ---------------------------------------------------------------------------


def test_hw_reports_n4():
    reps = hw_vectors_weyl(4, 0)
    by_label = {r.label: r for r in reps}
    g1 = by_label["(4)w1"]
    assert g1.catalog_match == "exact"
    assert g1.in_riemann_kernel and g1.de_donder
    assert any("Lie-derivative identity holds" in f for f in g1.flags)
    wt = by_label["0w1+2w2"]
    assert wt.catalog_match.startswith("proportional") or wt.catalog_match == "exact"
    assert wt.transverse and wt.de_donder and not wt.in_riemann_kernel


def test_hw_reports_n3_flags_catalog_mismatch():
    reps = hw_vectors_weyl(3, 0)
    chiral = [r for r in reps if "4)w2" in r.label or "(4)w1+0w2" in r.label]
    assert len(chiral) == 2
    for r in chiral:
        assert r.catalog_match == "mismatch"
        assert any("authoritative" in f for f in r.flags)
        assert any("replaced by Z^{-1}" in f for f in r.flags)


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_chiral_hw_vector_rejects_a_bad_sign_before_the_solve(monkeypatch, sign):
    solves = counted(monkeypatch, "_hw_solve")
    with pytest.raises(ValueError, match="chiral sign"):
        chiral_hw_vector(0, sign)
    assert solves == []


def test_chiral_hw_vectors_are_conjugate_and_transverse():
    k_plus = chiral_hw_vector(1, +1)
    k_minus = chiral_hw_vector(1, -1)
    assert all(r.is_zero() for r in k_plus.radial_contraction())
    assert k_plus.eta_trace().is_zero()
    assert k_plus.box().is_zero()
    assert linearized_einstein(k_plus).is_zero()
    # the two families are exchanged by conjugation (up to scale)
    assert proportionality(k_minus, k_plus.conjugate()) is not None


@pytest.mark.parametrize(
    "n,lam2,target",
    [
        pytest.param(3, 2, lambda: chiral_hw_vector(0, 1), id="1"),
        pytest.param(3, -2, lambda: chiral_hw_vector(0, -1), id="-1"),
        pytest.param(4, 2, lambda: weyl_type_hw_vector(4, 0), id="weyl-type-4"),
    ],
)
def test_chiral_hw_vector_matches_weight_space_route(n, lam2, target):
    # second route: the raising kernel inside the (2, lam2) weight space of
    # the transverse solutions, with the element-wise Sym^2 action
    basis = transverse_solution_space(n, 2)
    rows = highest_weight_vectors(basis, algebra_action_sym2, n, [F(2), F(lam2)])
    (h,) = _combinations(PolySym2(n + 1, {}), basis, rows)
    assert proportionality(h, target()) is not None


@pytest.mark.parametrize(
    "n,weight,dim",
    [(3, (2, 2), 1), (3, (2, -2), 1), (4, (2, 2), 1), (4, (2, 1), 0)],
    ids=["3-(2,2)", "3-(2,-2)", "4-(2,2)", "4-(2,1)"],
)
def test_hw_vectors_of_w0_under_the_tensor4_action(n, weight, dim):
    # W_0 carries highest weight (2, 2), and (2, -2) too at n = 3; the
    # weight (2, 1) at n = 4 lies in W_0 but below (2, 2)
    hws = highest_weight_vectors(build_Wp(n, 0).basis, algebra_action_tensor4, n, [F(x) for x in weight])
    assert len(hws) == dim


@pytest.mark.parametrize("n,p", [(4, 1), (5, 1), (6, 2)])
def test_weyl_type_hw_matches_catalog_pattern(n, p):
    # one-dimensional (weyl_type_hw_vector raises otherwise) and carrying curvature
    h = weyl_type_hw_vector(n, p)
    assert proportionality(h, catalog_weyl_type(n, p)) is not None
    assert not linearized_riemann(h).is_zero()


@pytest.mark.parametrize("n,p", [(5, 0), (3, 2)])
def test_hw_reports_beyond_n4(n, p):
    reps = hw_vectors_weyl(n, p)
    assert len(reps) == (4 if n == 3 else 3)
    assert all(r.dim == 1 for r in reps)
    gauge, curved = reps[:2], reps[2:]
    for r in gauge:
        assert r.in_riemann_kernel and r.catalog_match != "mismatch"
        assert any("Lie-derivative identity holds" in f for f in r.flags)
    for r, conj in zip(curved, (False, True)):
        assert r.transverse and not r.in_riemann_kernel
        assert proportionality(r.vector, catalog_weyl_type(n, p, conj=conj)) is not None
        if n == 3:
            assert r.catalog_match == "mismatch"
            assert any("replaced by Z^{-1}" in f for f in r.flags)
        else:
            assert r.catalog_match != "mismatch"


def test_transverse_condition_excludes_the_gauge_vector():
    # the only weight-(4, 0) vector is (Z^{-1})^2 dZ^{-1} (x) dZ^{-1}, and
    # its radial contraction (Z^{-1})^3 dZ^{-1} is nonzero, so the
    # transversality check behind chiral_hw_vector and weyl_type_hw_vector
    # rejects it
    vecs = hw_vectors_sym2(3, 2, (F(4), F(0)))
    assert len(vecs) == 1
    assert any(not r.is_zero() for r in vecs[0].radial_contraction())
    with pytest.raises(AssertionError, match="not transverse"):
        _one_transverse(vecs, "gauge")


@pytest.mark.parametrize("weight", [(F(2),), (F(2), F(2), F(0))])
def test_hw_vectors_sym2_rejects_weight_of_wrong_length(weight):
    with pytest.raises(ValueError):
        hw_vectors_sym2(4, 2, weight)


def test_hw_vectors_sym2_rejects_inexact_weights():
    # a float weight was once solved for, and cached under its float key
    for _ in range(2):
        with pytest.raises(ValueError, match="inexact"):
            hw_vectors_sym2(3, 2, (2.0, 0.0))
    assert hw_vectors_sym2(3, 2, (2, 0)) == hw_vectors_sym2(3, 2, (F(2), F(0)))


def test_hw_vectors_sym2_rejects_negative_degree():
    # a negative degree is a caller error, not an empty weight space
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        hw_vectors_sym2(3, -1, (F(1), F(0)))


def test_transverse_space_dimension_matches_wp():
    # the transverse trace-free wave solutions of degree d realize the
    # same representation as W_{d-2}
    assert len(transverse_solution_space(3, 2)) == dim_Wp(3, 0)
    assert len(transverse_solution_space(3, 3)) == dim_Wp(3, 1)
    assert len(transverse_solution_space(4, 2)) == dim_Wp(4, 0)


# ---------------------------------------------------------------------------
# the weight basis and the element-wise Sym^2 action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_weight_basis_is_a_basis_of_weight_vectors(n, degree):
    # the null-frame units, expanded into X coordinates: each tensor is an
    # eigenvector of every H_j with its weight, and the weight spaces
    # together have as many vectors as there are coordinates; each of the
    # degree + 2 factors moves the weight by one unit vector or 0
    nv, hs, null = n + 1, cartan_generators(n), null_coordinates(n)
    reach = range(-(degree + 2), degree + 3)
    total = 0
    for weight in itertools.product(reach, repeat=cartan_rank(n)):
        if sum(map(abs, weight)) > degree + 2:
            continue
        basis = _units_in_x(null, _weight_units(null, degree, weight))
        total += len(basis)
        for h in basis:
            for hmat, lam in zip(hs, weight):
                assert algebra_action_sym2(hmat, h) == h.scale(F(lam))
    assert total == len(monomials_of_degree(nv, degree)) * len(sym2_layout(nv))


def test_real_coefficients_of_highest_weight_vectors_and_catalogs_are_fractions():
    tensors = [r.vector for n, p in ((3, 0), (3, 1), (4, 0)) for r in hw_vectors_weyl(n, p) if r.vector is not None]
    for n, p in ((3, 0), (4, 1)):
        tensors += [catalog_gauge1(n, p), catalog_gauge2(n, p), catalog_chiral_printed(n, p)]
        tensors += [catalog_weyl_type(n, p, conj) for conj in (False, True)]
    coefs = [c for h in tensors for q in h.comp.values() for c in q.terms.values()]
    assert all(type(c) is Fraction or type(c) is GaussianRational and c.im for c in coefs)


def random_comp(slots, nv, degree, rng, gaussian):
    comp = {}
    for slot in slots:
        terms = {}
        for e in rng.sample(monomials_of_degree(nv, degree), 2):
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            terms[e] = c + rng.randint(-2, 2) * I if gaussian else c
        comp[slot] = ExactPoly(nv, terms)
    return comp


def random_sym2(nv, degree, rng, gaussian):
    return PolySym2(nv, random_comp(sym2_layout(nv), nv, degree, rng, gaussian))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_slot_actions_are_the_derivative_composition(n, gaussian):
    """Both tensor actions equal the oracle built from derivatives and
    polynomial products, for every generator and every Gaussian raising
    operator."""
    rng = random.Random(300 * n + gaussian)
    nv = n + 1
    h = random_sym2(nv, 2, rng, gaussian)
    w = PolyTensor4(nv, random_comp(tensor4_layout(nv), nv, 2, rng, gaussian))
    mats = [g.matrix for _, g in all_generators(n)] + [m for _, m in raising_operators(n)]
    for m in mats:
        assert algebra_action_sym2(m, h) == slot_action_oracle(m, h)
        assert algebra_action_tensor4(m, w) == slot_action_oracle(m, w)


def random_tensor(cls, slots, nv, degree, rng, gaussian, sparse):
    """A tensor with random components in every slot, or in a random half of them."""
    if sparse:
        slots = rng.sample(list(slots), len(slots) // 2)
    return cls(nv, random_comp(slots, nv, degree, rng, gaussian))


def typed_terms(p):
    return {e: (type(c), c) for e, c in p.terms.items()}


def typed_in_order(t):
    """The stored keys of a tensor in order, each with its terms and their coefficient types."""
    return [(key, typed_terms(p)) for key, p in t.comp.items()]


def layouts(nv):
    """(tensor class, stored keys, action) of the symmetric 2-tensor and Weyl 4-tensor layouts."""
    return [
        (PolySym2, list(sym2_layout(nv)), algebra_action_sym2),
        (PolyTensor4, list(tensor4_layout(nv)), algebra_action_tensor4),
    ]


def action_matrices(n):
    return [g.matrix for _, g in all_generators(n)] + [m for _, m in raising_operators(n)]


def assert_slot_action_is_the_oracle(m, t, action):
    """Equal to the gather oracle term by term, coefficient types included, with keys in layout order."""
    got = action(m, t)
    assert typed_in_order(got) == typed_in_order(slot_action_oracle(m, t))
    assert list(got.comp) == [key for key in t.layout if key in got.comp]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("sparse", [False, True])
def test_scatters_equal_their_gather_oracles(n, gaussian, sparse):
    """The slot actions, the linearized Riemann tensor and the radial
    contraction of dense and half-filled tensors equal their gathers,
    coefficient types and key order included."""
    rng = random.Random(700 * n + 10 * gaussian + sparse)
    nv = n + 1
    h = random_tensor(PolySym2, sym2_layout(nv), nv, 3, rng, gaussian, sparse)
    riemann = linearized_riemann(h)
    assert not riemann.is_zero()
    assert typed_in_order(riemann) == typed_in_order(linearized_riemann_oracle(h))
    assert [typed_terms(p) for p in h.radial_contraction()] == [typed_terms(p) for p in radial_contraction_oracle(h)]
    w = random_tensor(PolyTensor4, tensor4_layout(nv), nv, 2, rng, gaussian, sparse)
    for m in action_matrices(n):
        for (_, _, action), t in zip(layouts(nv), (h, w)):
            assert_slot_action_is_the_oracle(m, t, action)


@pytest.mark.parametrize("n", [3, 4])
def test_slot_action_reads_only_stored_components(n):
    """The zero tensor and a random half of the slots under every generator
    and raising operator, and each single stored slot under every
    generator, in both layouts."""
    rng = random.Random(800 + n)
    nv = n + 1
    generators = [g.matrix for _, g in all_generators(n)]
    for cls, slots, action in layouts(nv):
        for t in (cls(nv, {}), random_tensor(cls, slots, nv, 1, rng, True, True)):
            for m in action_matrices(n):
                assert_slot_action_is_the_oracle(m, t, action)
        for slot in slots:
            t = cls(nv, random_comp([slot], nv, 1, rng, rng.random() < 0.5))
            for m in generators:
                assert_slot_action_is_the_oracle(m, t, action)


@pytest.mark.parametrize("n", [3, 4])
def test_slot_action_on_two_forms(n):
    """The Lambda^2 layout: the antisymmetric signs of I[r -> s], dense, sparse and one slot at a time."""
    rng = random.Random(900 + n)
    nv = n + 1
    slots = list(itertools.combinations(range(nv), 2))

    def form(keys, gaussian):
        return PolyForm(nv, 2, random_comp(keys, nv, 2, rng, gaussian))

    forms = [form(slots, False), form(slots, True), form(rng.sample(slots, len(slots) // 2), True)]
    forms += [form([slot], False) for slot in slots]
    for t in forms:
        for m in action_matrices(n):
            assert_slot_action_is_the_oracle(m, t, slot_action)


def test_slot_tables_keep_layouts_of_equal_length_apart(monkeypatch):
    """Lambda^1 and Lambda^3 at nv = 4 store 4 keys each, and a symmetric
    2-tensor and an aspect of one n share sym2_layout: in either order from
    an empty table cache, every action equals the gather oracle, and each
    layout builds its table once."""
    rng = random.Random(950)
    nv = 4
    one, three = (PolyForm(nv, k, random_comp(itertools.combinations(range(nv), k), nv, 2, rng, True)) for k in (1, 3))
    h = PolySym2(3, random_comp(sym2_layout(3), 3, 2, rng, False))
    m = SphereTensor(3, 2, random_comp(sym2_layout(3), 3, 2, rng, False))
    assert len(one.layout) == len(three.layout) == 4 and h.layout is m.layout
    for pair, n in (((one, three), 3), ((three, one), 3), ((h, m), 2), ((m, h), 2)):
        monkeypatch.setattr(poly, "_SLOT_TABLES", {})
        for _ in range(2):
            for t in pair:
                for mat in action_matrices(n):
                    assert_slot_action_is_the_oracle(mat, t, slot_action)
        assert len(poly._SLOT_TABLES) == 2


@pytest.mark.parametrize("n,p", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_slot_action_on_every_wp_basis_vector_is_the_oracle(n, p):
    _, _, action = layouts(n + 1)[1]
    gens = dict(all_generators(n))
    mats = [gens["a_1"].matrix, gens["r_12"].matrix, raising_operators(n)[0][1]]
    for w in build_Wp(n, p).basis:
        for m in mats:
            assert_slot_action_is_the_oracle(m, w, action)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_algebra_action_sym2_is_a_lie_homomorphism_commuting_with_box_and_trace(n, gaussian):
    rng = random.Random(100 * n + gaussian)
    nv = n + 1
    h = random_sym2(nv, 2, rng, gaussian)
    gens = [g.matrix for _, g in all_generators(n)]
    acted = [algebra_action_sym2(m, h) for m in gens]
    for m, mh in zip(gens, acted):
        assert algebra_action_sym2(m, h.box()) == mh.box()
        assert mh.eta_trace() == algebra_act_on_poly(m, h.eta_trace())
    for (a, ah), (b, bh) in itertools.combinations(zip(gens, acted), 2):
        lhs = algebra_action_sym2(bracket(a, b), h)
        assert lhs == algebra_action_sym2(a, bh) - algebra_action_sym2(b, ah)


# the highest-weight solves of hw_vectors_weyl (3, 0), (3, 1) and (4, 0),
# chiral_hw_vector and weyl_type_hw_vector (4, 0) and (4, 1), each once,
# then a rank-3 weight, a weight where only the trace condition removes
# a solution and a weight space with no highest-weight vector
HW_SOLVES = [
    (3, 2, (4, 0)), (3, 2, (3, 1)), (3, 2, (2, 2)), (3, 2, (2, -2)),
    (3, 3, (5, 0)), (3, 3, (4, 1)), (3, 3, (3, 2)), (3, 3, (3, -2)),
    (4, 2, (4, 0)), (4, 2, (3, 1)), (4, 2, (2, 2)), (4, 3, (3, 2)),
    (5, 2, (2, 2, 0)), (3, 2, (2, 0)), (4, 2, (2, 1)),
]


@pytest.mark.parametrize("n,degree,weight", HW_SOLVES, ids=[f"{n}-{d}-{w}" for n, d, w in HW_SOLVES])
def test_hw_vectors_sym2_equals_the_x_coordinate_solve(n, degree, weight):
    weight = tuple(F(x) for x in weight)
    got = hw_vectors_sym2(n, degree, weight)
    assert len(got) == (0 if weight == (2, 1) else 1)
    want = hw_vectors_sym2_oracle(n, degree, weight)
    assert got == want
    # and each coefficient of the same type: a Fraction exactly where the value is real
    assert typed(got) == typed(want)


@pytest.mark.parametrize("n,degree,weight", [(3, 2, (2, 2)), (3, 3, (3, -2)), (4, 2, (3, 1)), (5, 2, (2, 2, 0))])
def test_weight_basis_oracle_is_the_null_frame_units_in_x(n, degree, weight):
    weight = tuple(F(x) for x in weight)
    null = null_coordinates(n)
    want = weight_basis_oracle(n, degree, weight)
    assert want
    assert _units_in_x(null, _weight_units(null, degree, weight)) == want


def typed(hs):
    return [{k: typed_terms(p) for k, p in h.comp.items()} for h in hs]


def to_x(h):
    """A tensor stored in the null frame, h_ab(Z) dZ^a dZ^b summed over all (a, b), in X coordinates."""
    nv = h.nv
    forms = [z for z, _ in null_coordinates(nv - 1).values()]
    covs = [_cov(z) for z in forms]
    out = PolySym2(nv, {})
    for (a, b), p in h.comp.items():
        out = out + _outer_sym(nv, p.substitute(forms) * (1 if a == b else 2), covs[a], covs[b])
    return out


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_null_frame_maps_commute_with_the_frame_change(n, gaussian):
    rng = random.Random(500 * n + gaussian)
    nv = n + 1
    forms = [z for z, _ in null_coordinates(n).values()]
    h = random_sym2(nv, 2, rng, gaussian)
    hx = to_x(h)
    assert hx.eta_trace() == _null_eta_trace(h).substitute(forms)
    assert hx.box() == to_x(_null_box(h))
    for (label, m), (same, mx) in zip(null_raising_operators(n), raising_operators(n)):
        assert label == same
        assert algebra_action_sym2(mx, hx) == to_x(algebra_action_sym2(m, h))


# ---------------------------------------------------------------------------
# one build of each W_p and each highest-weight solve per process
# ---------------------------------------------------------------------------


def counted(monkeypatch, name: str) -> list:
    """Replace the cached builder ``weyl.<name>`` by an empty cache over its
    ``__wrapped__`` function, recording the arguments of every real build."""
    calls = []
    build = getattr(weyl, name).__wrapped__

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(weyl, name, lru_cache(maxsize=None)(counting))
    return calls


def test_build_wp_returns_new_containers_over_shared_tensors():
    first, second = build_Wp(3, 1), build_Wp(3, 1)
    assert first == second
    assert first is not second and first.basis is not second.basis
    assert all(a is b for a, b in zip(first.basis, second.basis))
    first.basis.pop()
    first.basis.reverse()
    assert build_Wp(3, 1) == second and build_Wp(3, 1).dim == dim_Wp(3, 1)
    assert list(weyl._Wp_basis.__wrapped__(3, 1)) == second.basis


def test_hw_vectors_sym2_returns_new_lists_over_shared_tensors():
    weight = [Fraction(3), Fraction(2)]
    first, second = hw_vectors_sym2(3, 3, weight), hw_vectors_sym2(3, 3, tuple(weight))
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert hw_vectors_sym2(3, 3, weight) == second
    assert list(weyl._hw_solve.__wrapped__(3, 3, tuple(weight))) == second


def test_cached_builders_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="p >= 0"):
            build_Wp(3, -1)
        with pytest.raises(ValueError, match="entries"):
            hw_vectors_sym2(3, 2, [Fraction(2)])


@pytest.mark.parametrize("bad", [1.0, True, F(1)])
@pytest.mark.parametrize("bad_first", [True, False])
def test_degrees_are_ints_checked_before_any_cache(monkeypatch, bad, bad_first):
    """A degree equal to 1 but not an int raises ValueError, before and after
    the builders cache the degree-1 answer, starting from fresh caches."""
    for name in ("_Wp_basis", "_hw_solve"):
        monkeypatch.setattr(weyl, name, lru_cache(maxsize=None)(getattr(weyl, name).__wrapped__))
    calls = [build_Wp, signature_Wp, dim_Wp, build_Hp, signature_Hp, dim_Hp, lambda n, p: hw_vectors_sym2(n, p, [F(3), F(2)])]
    for call in calls:
        for p in (bad, 1) if bad_first else (1, bad):
            if p is bad:
                with pytest.raises(ValueError, match="must be an int"):
                    call(3, p)
            else:
                call(3, p)


def test_highest_weight_pass_builds_each_space_and_solve_once(monkeypatch):
    # the cases of one highest-weight pass: 8 W_p calls for 4 spaces and
    # 17 highest-weight solves for 12 distinct arguments
    builds, solves = counted(monkeypatch, "_Wp_basis"), counted(monkeypatch, "_hw_solve")
    for n, p in ((3, 0), (3, 1), (4, 0), (4, 1)):
        assert build_Wp(n, p).dim == dim_Wp(n, p)
        signature_Wp(n, p)
    for n, p in ((3, 0), (3, 1), (4, 0)):
        hw_vectors_weyl(n, p)
    for p in (0, 1):
        chiral_hw_vector(p, 1), chiral_hw_vector(p, -1)
        weyl_type_hw_vector(4, p)
    assert builds == [(3, 0), (3, 1), (4, 0), (4, 1)]
    assert len(solves) == len(set(solves)) == 12

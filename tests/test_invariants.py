import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from ahmass import invariants, massaspect, poly
from ahmass.gaussian import GaussianRational, I
from ahmass.harmonic import build_Hp
from ahmass.invariants import (
    MassFunctional,
    _eplus_wedge,
    _unit_density,
    check_equivariance_finite,
    check_equivariance_infinitesimal,
    conformal_density,
    conformal_mass,
    conformal_weight,
    density_null_power,
    hodge_star_bivector,
    intertwining_density_residual,
    symmetric_power_action,
    wang_mass_vector,
    weyl_mass,
    weyl_density,
    weyl_mass_chiral,
    weyl_weight,
)
from ahmass.lorentz import (
    algebra_act_on_poly,
    all_generators,
    boost_from_parameter,
    bracket,
    named_generators,
    raising_operators,
)
from ahmass.massaspect import SphereTensor, _project_slots, algebra_action_aspect
from ahmass.poly import ExactPoly, coordinates, monomials_of_degree, sphere_integral, sphere_pairing, sphere_restrict
from ahmass.weyl import PolyTensor4, algebra_action_tensor4, build_Wp, tensor4_layout
from space_oracles import operator_rows
from sphere_oracles import (
    act_on_dual,
    equivariance_oracle,
    mass_oracle,
    pair,
    pair_oracle,
    random_mass_aspect,
    weyl_density_oracle,
)

F = Fraction


# ---------------------------------------------------------------------------
# intertwining densities: exact zero at the conformal weight, nonzero off it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n1,off_boost", [(0, F(9, 5)), (1, F(18, 5)), (2, F(1208, 105))])
def test_intertwining_density_residual(n1, off_boost):
    n = 3
    k = n - 1 + n1
    gens = dict(all_generators(n))

    def rows(name):
        return symmetric_power_action(gens[name], n + 1, n1)

    assert intertwining_density_residual(density_null_power(n, n1, k), rows, k) == (0, 0)
    off = intertwining_density_residual(density_null_power(n, n1, k + 1), rows, k + 1)
    assert off == (off_boost, 0)


def _residual_clearing_per_generator(components, rows_for, k):
    """The residual pair with each component's denominators cleared by every action anew,
    each action taking a fresh copy of its component."""
    n = components[0].n
    totals = [F(0), F(0)]
    for name, gen in all_generators(n):
        is_rotation = not any(gen.matrix[0])
        for component, row in zip(components, rows_for(name)):
            resid = algebra_action_aspect(gen, replace(component), n - 1 - k).scale(F(-1))
            for mu, c in row.items():
                resid = resid + components[mu].scale(-c)
            for p in resid.comp.values():
                val = sphere_pairing(p, p.conjugate())
                totals[is_rotation] += val
    return totals[0], totals[1]


@pytest.mark.parametrize("n1", [0, 1, 2])
def test_density_residual_on_cleared_components_matches_clearing_per_generator(n1, monkeypatch):
    # each component is cleared once, for its transversality test and the
    # actions of all generators
    n = 3
    gens = dict(all_generators(n))

    def rows(name):
        return symmetric_power_action(gens[name], n + 1, n1)

    for k in (n - 1 + n1, n + n1):
        components = density_null_power(n, n1, k)
        expected = _residual_clearing_per_generator(components, rows, k)
        clears = []
        original = massaspect._cleared
        monkeypatch.setattr(massaspect, "_cleared", lambda maps: clears.append(1) or original(maps))
        got = intertwining_density_residual(components, rows, k)
        monkeypatch.undo()
        assert got == expected and [type(v) for v in got] == [type(v) for v in expected]
        assert len(clears) == len(components)


@pytest.mark.parametrize("n", [3, 4])
def test_adjoint_of_the_action_is_minus_the_action_at_the_dual_order(n):
    # pair(a ._k m, K) + pair(m, a ._{n-1-k} K) = 0 for transverse m and K;
    # at the order n - k a boost a_i leaves pair(m, x^i K), nonzero here
    k = n + 1
    rng = random.Random(3)
    m = random_mass_aspect(n, k, rng, degree=0)
    K = random_mass_aspect(n, 1, rng, degree=1)
    for name, gen in all_generators(n):
        am = pair(algebra_action_aspect(gen, m), K)
        assert am + pair(m, algebra_action_aspect(gen, K, n - 1 - k)) == 0, name
        if name.startswith("a_"):
            assert am + pair(m, algebra_action_aspect(gen, K, n - k)) != 0, name


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------


def _product(a, b):
    out = []
    for arow in a:
        row = {}
        for j, x in arow.items():
            for k, y in b[j].items():
                row[k] = row.get(k, 0) + x * y
        out.append(row)
    return out


def _commutator(a, b):
    ab, ba = _product(a, b), _product(b, a)
    out = []
    for r1, r2 in zip(ab, ba):
        row = dict(r1)
        for k, y in r2.items():
            row[k] = row.get(k, 0) - y
        out.append({k: v for k, v in row.items() if v})
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_symmetric_power_action_is_the_rows_route(n):
    # the image rows of the unit monomials, read in monomial order, are the
    # matrix of the derivation -(bX).d, b = -a^T, on monomial coordinates
    for _, g in all_generators(n):
        b = [[-g.matrix[j][i] for j in range(n + 1)] for i in range(n + 1)]
        for power in range(3):
            want = operator_rows(lambda p: algebra_act_on_poly(b, p), n + 1, power, power)
            assert symmetric_power_action(g, n + 1, power) == want


@pytest.mark.parametrize("power", [0, 1, 2, 3])
def test_symmetric_power_action_is_a_lie_homomorphism(power):
    n = 3
    gens = [g.matrix for _, g in all_generators(n)]
    nonzero = 0
    for a, b in product(gens, repeat=2):
        lhs = symmetric_power_action(bracket(a, b), n + 1, power)
        ra = symmetric_power_action(a, n + 1, power)
        rb = symmetric_power_action(b, n + 1, power)
        assert lhs == _commutator(ra, rb)
        nonzero += any(lhs)
    assert nonzero > 0 if power else nonzero == 0


# ---------------------------------------------------------------------------
# the standard mass: the n1 = 1 conformal dual vector
# ---------------------------------------------------------------------------


def _wang_residual(m, name, gen, k=None):
    """wang(a.m)[mu] + Phi(m)(a.X^mu); component 0 pairs with X^0."""
    nv = m.n + 1
    am = wang_mass_vector(algebra_action_aspect(named_generators(m.n)[name], m, k))
    mass = MassFunctional("conformal", m)
    return tuple(am[mu] + mass(algebra_act_on_poly(gen, ExactPoly.variable(nv, mu))) for mu in range(nv))


def test_wang_mass_vector_equivariant_at_k_equals_n():
    n = 3
    m = random_mass_aspect(n, n, random.Random(31))
    assert any(wang_mass_vector(m))
    for name, gen in all_generators(n):
        assert _wang_residual(m, name, gen) == (0,) * (n + 1), name


def test_wang_mass_vector_off_weight_residual_is_first_moment():
    # one weight off, a_1 . m gains x^1 m, so the residual is the moment
    # int x^1 X^mu tr m of the aspect, and it must not vanish
    n = 3
    m = random_mass_aspect(n, n, random.Random(31))
    gens = dict(all_generators(n))
    tr = m.trace_sigma()
    moment = tuple(
        sphere_integral(ExactPoly.variable(n, 0) * sphere_restrict(ExactPoly.variable(n + 1, mu)) * tr)
        for mu in range(n + 1)
    )
    assert any(moment)
    assert _wang_residual(m, "a_1", gens["a_1"], k=n + 1) == moment


def test_wang_mass_vector_needs_k_equals_n():
    n = 3
    for k in (n - 1, n + 1):
        with pytest.raises(ValueError):
            wang_mass_vector(random_mass_aspect(n, k, random.Random(1)))


# ---------------------------------------------------------------------------
# the mass families: exact equivariance at the weight, nonzero off it
# ---------------------------------------------------------------------------

MASSES = {
    "conformal": conformal_mass,
    "weyl": weyl_mass,
    "weyl_plus": lambda m, w: weyl_mass_chiral(m, w, +1),
    "weyl_minus": lambda m, w: weyl_mass_chiral(m, w, -1),
}


def _weight(family, n, n1):
    return conformal_weight(n, n1) if family == "conformal" else weyl_weight(n, n1)


def _dual_basis(family, n, n1):
    return build_Hp(n, n1).basis if family == "conformal" else build_Wp(n, n1).basis


@pytest.mark.parametrize(
    "family,n,n1,names",
    [
        ("conformal", 3, 0, None),
        ("conformal", 3, 1, None),
        ("weyl", 4, 0, ("a_1", "r_12")),
        ("weyl_plus", 3, 0, ("a_1", "r_12")),
        ("weyl_minus", 3, 0, ("a_1", "r_12")),
    ],
)
def test_mass_is_equivariant_at_its_weight(family, n, n1, names):
    gens = dict(all_generators(n))
    m = random_mass_aspect(n, _weight(family, n, n1), random.Random(7))
    dual = _dual_basis(family, n, n1)
    assert any(MASSES[family](m, v) for v in dual)
    for name in names or gens:
        assert check_equivariance_infinitesimal(family, m, name, gens[name], dual) == 0, name


@pytest.mark.parametrize(
    "family,n,n1",
    [("conformal", 3, 1), ("weyl", 4, 0), ("weyl_plus", 3, 0), ("weyl_minus", 3, 0)],
)
def test_mass_residual_is_nonzero_one_weight_off(family, n, n1):
    gens = dict(all_generators(n))
    m = random_mass_aspect(n, _weight(family, n, n1) + 1, random.Random(7))
    residual = check_equivariance_infinitesimal(family, m, "a_1", gens["a_1"], _dual_basis(family, n, n1))
    assert residual != 0


def _transverse_part(t):
    return SphereTensor(t.n, t.k, _project_slots(t.n, t.comp))


DENSITIES = {
    "conformal": (conformal_density, algebra_act_on_poly),
    "weyl": (weyl_density, lambda g, w: algebra_action_tensor4(g.matrix, w)),
    "weyl_plus": (lambda w, k: weyl_density(w, k, +1), lambda g, w: algebra_action_tensor4(g.matrix, w)),
    "weyl_minus": (lambda w, k: weyl_density(w, k, -1), lambda g, w: algebra_action_tensor4(g.matrix, w)),
}


@pytest.mark.parametrize(
    "family,n,n1",
    [("conformal", 3, 1), ("weyl", 4, 0), ("weyl_plus", 3, 0), ("weyl_minus", 3, 0)],
)
def test_density_of_a_moved_element_is_the_moved_density(family, n, n1):
    # Pi K_{a.v} Pi = a ._{n-1-k} (Pi K_v Pi) at the family's weight k,
    # the density form of equivariance; one order off the boost fails
    density, act = DENSITIES[family]
    k = _weight(family, n, n1)
    gens = dict(all_generators(n))
    for v in _dual_basis(family, n, n1)[:2]:
        k_v = _transverse_part(density(v, k))
        assert not k_v.is_zero()
        for name in ("a_1", "r_12"):
            moved = _transverse_part(density(act(gens[name], v), k))
            assert moved.equal_on_sphere(algebra_action_aspect(gens[name], k_v, n - 1 - k)), name
        moved = _transverse_part(density(act(gens["a_1"], v), k))
        assert not moved.equal_on_sphere(algebra_action_aspect(gens["a_1"], k_v, n - 2 - k))


@pytest.mark.parametrize(
    "family,n,n1",
    [("conformal", 3, 1), ("weyl", 4, 0), ("weyl_plus", 3, 0), ("weyl_minus", 3, 0)],
)
def test_pair_is_the_integral_of_the_contraction(family, n, n1):
    density, _ = DENSITIES[family]
    k = _weight(family, n, n1)
    m = random_mass_aspect(n, k, random.Random(3))
    values = [pair(m, density(v, k)) for v in _dual_basis(family, n, n1)]
    assert any(values)
    assert values == [pair_oracle(m, density(v, k)) for v in _dual_basis(family, n, n1)]


@pytest.mark.parametrize(
    "family,n,n1",
    [
        ("conformal", 3, 0),
        ("conformal", 3, 1),
        ("conformal", 4, 0),
        ("conformal", 4, 1),
        ("weyl", 4, 0),
        ("weyl", 4, 1),
        ("weyl_plus", 3, 0),
        ("weyl_plus", 3, 1),
        ("weyl_minus", 3, 0),
        ("weyl_minus", 3, 1),
    ],
)
def test_masses_are_the_pairing_with_the_whole_density(family, n, n1):
    # the functional on cached unit densities against one density per vector,
    # on real basis vectors and on their Gaussian images under a raising operator
    degree = 2 if family == "conformal" else 1
    m = random_mass_aspect(n, _weight(family, n, n1), random.Random(11), degree=degree)
    basis = _dual_basis(family, n, n1)
    raising = raising_operators(n)[0][1]
    z = GaussianRational(2, -1)
    gaussian = [basis[0] * z if family == "conformal" else basis[0].scale(z)]
    gaussian += [w for v in basis if not (w := act_on_dual(family, raising, v)).is_zero()][:2]
    assert len(gaussian) == (1 if (family, n1) == ("conformal", 0) else 3)
    assert all(any(isinstance(c, GaussianRational) for _, c in coordinates(w)) for w in gaussian)
    duals = basis[:3] + gaussian
    values = [MASSES[family](m, v) for v in duals]
    oracle = [mass_oracle(family, m, v) for v in duals]
    assert values == oracle
    assert [type(x) for x in values] == [type(x) for x in oracle]
    assert any(values[-len(gaussian) :])


@pytest.mark.parametrize(
    "family,n,n1",
    [
        pytest.param("conformal", 3, 0, id="conformal-0"),
        pytest.param("conformal", 3, 1, id="conformal-1"),
        pytest.param("weyl", 3, 0, id="weyl-0"),
        pytest.param("weyl", 4, 0, id="weyl-4-0"),
        pytest.param("weyl_plus", 3, 0, id="weyl_plus-0"),
        pytest.param("weyl_minus", 3, 0, id="weyl_minus-0"),
    ],
)
def test_infinitesimal_check_is_the_per_vector_oracle(family, n, n1):
    # one weight off, so the boosts leave nonzero residuals to compare; the
    # checks of all generators share the values the aspect keeps
    m = random_mass_aspect(n, _weight(family, n, n1) + 1, random.Random(5), degree=1)
    dual = _dual_basis(family, n, n1)
    residuals = []
    for name, gen in all_generators(n):
        residual = check_equivariance_infinitesimal(family, m, name, gen, dual)
        assert residual == equivariance_oracle(family, m, gen, dual), name
        residuals.append(residual)
    assert any(residuals)
    assert family in m._mass_values


def test_six_checks_compute_each_moment_and_unit_value_of_the_aspect_once(monkeypatch):
    # the checks of both chiral families over all six generators of so(3,1)
    # on one aspect: each of its moments is summed once for both families,
    # and each of its unit values once per family
    n = 3
    m = random_mass_aspect(n, weyl_weight(n, 0), random.Random(3))
    dual = build_Wp(n, 0).basis
    sums, values = [], []
    moment_sum, unit_value = poly._Moments._sum, MassFunctional._unit_value
    monkeypatch.setattr(poly._Moments, "_sum", lambda self, a: sums.append((self, a)) or moment_sum(self, a))
    monkeypatch.setattr(
        MassFunctional, "_unit_value", lambda self, nv, unit: values.append((self._units, unit)) or unit_value(self, nv, unit)
    )
    for family in ("weyl_plus", "weyl_minus"):
        for name, gen in all_generators(n):
            assert check_equivariance_infinitesimal(family, m, name, gen, dual) == 0, (family, name)
    kept = list(m._moments.values())
    counted = Counter((kept.index(kernel), a) for kernel, a in sums if any(kernel is k for k in kept))
    assert counted and set(counted.values()) == {1}
    assert sorted(counted) == sorted((i, a) for i, kernel in enumerate(kept) for a in kernel.memo)
    for family in ("weyl_plus", "weyl_minus"):
        units = m._mass_values[family]
        counted = Counter(unit for kept_units, unit in values if kept_units is units)
        assert counted and set(counted.values()) == {1} and counted.keys() == units.keys()


def test_mass_functional_rejects_an_unknown_family_before_keeping_anything():
    m = random_mass_aspect(3, 3, random.Random(1))
    before = dict(vars(m))
    with pytest.raises(ValueError, match="unknown family 'foo'"):
        MassFunctional("foo", m)
    assert vars(m) == before


def test_infinitesimal_check_builds_each_unit_density_once(monkeypatch):
    # every density is a unit density, built once per (family, nv, slot,
    # monomial): W_0 at nv = 4 has 21 unit coordinates, and a second pass
    # over the same generators builds none
    n = 3
    gens = all_generators(n)
    m = random_mass_aspect(n, weyl_weight(n, 0), random.Random(7))
    dual = build_Wp(n, 0).basis
    builds = []
    build = invariants.weyl_density
    monkeypatch.setattr(invariants, "weyl_density", lambda *args: builds.append(args) or build(*args))
    _unit_density.cache_clear()
    for name, gen in gens:
        assert check_equivariance_infinitesimal("weyl_plus", m, name, gen, dual) == 0, name
    assert 0 < len(builds) <= 21
    builds.clear()
    for name, gen in gens:
        check_equivariance_infinitesimal("weyl_plus", m, name, gen, dual)
    assert builds == []


def test_density_residual_checks_each_component_once(monkeypatch):
    n, n1 = 3, 1
    k = conformal_weight(n, n1)
    gens = dict(all_generators(n))
    components = density_null_power(n, n1, k)
    calls = []
    vanishes = massaspect.vanishes_on_sphere
    monkeypatch.setattr(massaspect, "vanishes_on_sphere", lambda p: calls.append(p) or vanishes(p))

    def rows(name):
        return symmetric_power_action(gens[name], n + 1, n1)

    # one zero test per radial contraction of each component, for the check
    # and the actions of all six generators together
    assert intertwining_density_residual(components, rows, k) == (0, 0)
    assert len(calls) == n * len(components)


def test_equivariance_over_all_generators_tests_the_aspect_once(monkeypatch):
    # six actions on one n = 3 aspect make one zero test per radial
    # contraction of it, 3 in all, not 3 per generator
    n = 3
    m = random_mass_aspect(n, conformal_weight(n, 0), random.Random(4))
    dual = build_Hp(n, 0).basis
    calls = []
    vanishes = massaspect.vanishes_on_sphere
    monkeypatch.setattr(massaspect, "vanishes_on_sphere", lambda p: calls.append(p) or vanishes(p))
    for name, gen in all_generators(n):
        assert check_equivariance_infinitesimal("conformal", m, name, gen, dual) == 0
    assert len(calls) == n


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_density_residual_needs_one_row_per_component(extra):
    n, n1 = 3, 1
    k = conformal_weight(n, n1)
    gens = dict(all_generators(n))

    def rows(name):
        full = symmetric_power_action(gens[name], n + 1, n1)
        return full[:extra] if extra < 0 else full + [{}] * extra

    with pytest.raises(ValueError, match="representation rows"):
        intertwining_density_residual(density_null_power(n, n1, k), rows, k)


def typed_density(k):
    """The entries of a density in order, each with its terms and their coefficient types."""
    return [(ij, {e: (type(c), c) for e, c in p.terms.items()}) for ij, p in k.comp.items()]


def density_signs(n):
    return (0, 1, -1) if n == 3 else (0,)


@pytest.mark.parametrize("n,p", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_weyl_density_is_the_gather_density_on_every_wp_basis_vector(n, p):
    k = weyl_weight(n, p)
    for w in build_Wp(n, p).basis:
        for sign in density_signs(n):
            assert typed_density(weyl_density(w, k, sign)) == typed_density(weyl_density_oracle(w, k, sign))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("sparse", [False, True])
def test_weyl_density_is_the_gather_density_on_random_tensors(n, gaussian, sparse):
    # random Weyl-symmetric-layout tensors, not in W_p: every stored slot or
    # a random half of them, and then each slot alone
    rng = random.Random(40 * n + 2 * gaussian + sparse)
    nv = n + 1
    slots = list(tensor4_layout(nv))
    monos = monomials_of_degree(nv, 1)

    def tensor(keys):
        comp = {}
        for key in keys:
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            comp[key] = ExactPoly(nv, {e: c + rng.randint(-2, 2) * I if gaussian else c for e in rng.sample(monos, 2)})
        return PolyTensor4(nv, comp)

    tensors = [tensor(rng.sample(slots, len(slots) // 2) if sparse else slots)]
    tensors += [tensor([slot]) for slot in (slots if sparse else ())]
    for w in tensors:
        for sign in density_signs(n):
            assert typed_density(weyl_density(w, 7, sign)) == typed_density(weyl_density_oracle(w, 7, sign))


def test_chiral_density_and_equivariance_check_need_n_3():
    # a chiral density at n = 4 was once built with the four-index epsilon
    # on a five-dimensional space, and the n = 4 chiral check reported 0
    w4 = build_Wp(4, 0).basis
    for sign in (1, -1):
        with pytest.raises(ValueError, match="only for n = 3"):
            weyl_density(w4[0], 5, sign)
    w3 = build_Wp(3, 0).basis[0]
    for sign in (2, -2):
        with pytest.raises(ValueError, match="density sign must be 0, [+]1 or -1, got"):
            weyl_density(w3, 4, sign)
    m4 = random_mass_aspect(4, weyl_weight(4, 0), random.Random(1))
    gens = dict(all_generators(4))
    for family in ("weyl_plus", "weyl_minus"):
        with pytest.raises(ValueError, match="only for n = 3"):
            check_equivariance_infinitesimal(family, m4, "a_1", gens["a_1"], w4)
    assert check_equivariance_infinitesimal("weyl", m4, "a_1", gens["a_1"], w4) == 0


def test_density_residual_needs_transverse_components():
    n, k = 4, weyl_weight(4, 0)
    raw = weyl_density(build_Wp(n, 0).basis[0], k)
    assert not raw.is_transverse()
    with pytest.raises(ValueError, match="not transverse"):
        intertwining_density_residual([raw], lambda name: [{}], k)


def test_density_residual_needs_polynomial_components():
    with pytest.raises(ValueError, match="empty density"):
        intertwining_density_residual([], lambda name: [{}], 4)
    constant = SphereTensor(3, 4, {})
    constant.comp[(0, 0)] = F(1)  # a bare constant where an ExactPoly belongs
    with pytest.raises(ValueError, match="must be polynomial"):
        intertwining_density_residual([constant], lambda name: [{}], 4)


def test_conformal_n1_0_off_weight_residual_is_the_first_moment():
    # one weight off, the residual of a_i is (k - n + 1)^2 (int x^i tr m)^2
    n = 3
    k = conformal_weight(n, 0) + 1
    gens = dict(all_generators(n))
    m = random_mass_aspect(n, k, random.Random(7))
    tr = m.trace_sigma()
    dual = build_Hp(n, 0).basis
    moments = [sphere_integral(ExactPoly.variable(n, i - 1) * tr) for i in range(1, n + 1)]
    assert any(moments)
    for i, moment in enumerate(moments, start=1):
        name = f"a_{i}"
        assert check_equivariance_infinitesimal("conformal", m, name, gens[name], dual) == moment * moment


def test_chiral_pair_sums_to_the_real_family():
    n = 3
    m = random_mass_aspect(n, weyl_weight(n, 0), random.Random(7))
    twisted = 0
    for w in build_Wp(n, 0).basis:
        real = MassFunctional("weyl", m)(w)
        plus, minus = weyl_mass_chiral(m, w, +1), weyl_mass_chiral(m, w, -1)
        assert plus + minus == 2 * real
        twisted += plus != real
    assert twisted


@pytest.mark.parametrize("n,n1", [(3, 0), (3, 1), (3, 2), (4, 1)])
def test_conformal_mass_is_the_defining_integral(n, n1):
    m = random_mass_aspect(n, conformal_weight(n, n1), random.Random(7))
    tr = m.trace_sigma()
    values = [conformal_mass(m, p) for p in build_Hp(n, n1).basis]
    assert values == [sphere_integral(sphere_restrict(p) * tr) for p in build_Hp(n, n1).basis]
    assert any(values)


def _contract(w, b1, b2):
    """1/4 W_{mu nu al be} B1^{mu nu} B2^{al be}, summed over every index."""

    def full(b):
        out = {}
        for (mu, nu), v in b.items():
            out[(mu, nu)], out[(nu, mu)] = v, -v
        return out

    total = ExactPoly.zero(w.nv)
    for (mu, nu), v1 in full(b1).items():
        for (al, be), v2 in full(b2).items():
            total = total + w.get(mu, nu, al, be) * v1 * v2
    return total * F(1, 4)


def _defining_weyl_integral(m, w, sign):
    """sum_ij int m_ij [W(e+, d_i, e+, d_j) - sign i W(*(e+ ^ d_i), e+ ^ d_j)](1, x)."""
    nv = w.nv
    position = [ExactPoly.variable(nv, mu) for mu in range(nv)]
    total = 0
    for i, j in product(range(m.n), repeat=2):
        slot = ExactPoly.zero(nv)
        for mu, al in product(range(nv), repeat=2):
            slot = slot + w.get(mu, i + 1, al, j + 1) * position[mu] * position[al]
        if sign:
            slot = slot - sign * GaussianRational.i() * _contract(
                w, hodge_star_bivector(_eplus_wedge(nv, i)), _eplus_wedge(nv, j)
            )
        total = total + sphere_integral(m.get(i, j) * sphere_restrict(slot))
    return total


def _random_tensor4(nv, degree, rng):
    """A PolyTensor4 with random entries on every slot; no Weyl constraint holds."""
    terms = [(e, F(rng.randint(-3, 3), rng.randint(1, 2))) for e in monomials_of_degree(nv, degree)]
    return PolyTensor4(nv, {slot: ExactPoly(nv, dict(rng.sample(terms, min(2, len(terms))))) for slot in tensor4_layout(nv)})


@pytest.mark.parametrize("n,n1,signs", [(3, 0, (0, 1, -1)), (3, 1, (0, 1, -1)), (4, 0, (0,))])
def test_weyl_masses_are_the_defining_integral(n, n1, signs):
    rng = random.Random(7)
    m = random_mass_aspect(n, weyl_weight(n, n1), rng)
    duals = build_Wp(n, n1).basis + [_random_tensor4(n + 1, n1, rng)]
    for sign in signs:
        values = [weyl_mass_chiral(m, w, sign) if sign else weyl_mass(m, w) for w in duals]
        assert values == [_defining_weyl_integral(m, w, sign) for w in duals]
        assert any(values)


def test_mass_argument_errors():
    m3 = random_mass_aspect(3, 3, random.Random(1))
    x0 = ExactPoly.variable(4, 0)
    with pytest.raises(ValueError, match="ambient polynomial"):
        conformal_mass(m3, ExactPoly.variable(3, 0))
    with pytest.raises(ValueError, match="homogeneous"):
        conformal_mass(m3, x0 + 1)
    with pytest.raises(ValueError, match="does not match the conformal weight 2"):
        conformal_mass(m3, ExactPoly.constant(4, 1))
    w3 = build_Wp(3, 0).basis[0]
    with pytest.raises(ValueError, match="does not match the Weyl weight 4"):
        weyl_mass(m3, w3)
    with pytest.raises(ValueError, match="does not match the Weyl weight 4"):
        weyl_mass_chiral(m3, w3, +1)
    m4 = random_mass_aspect(4, 5, random.Random(1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        weyl_mass(m4, w3)
    with pytest.raises(ValueError, match="only for n = 3"):
        weyl_mass_chiral(m4, w3, +1)
    m_chiral = random_mass_aspect(3, 4, random.Random(1))
    for sign in (0, 2):
        with pytest.raises(ValueError, match="chiral sign must be"):
            weyl_mass_chiral(m_chiral, w3, sign)
    # an inhomogeneous W once met a misleading weight error, or none at all
    mixed4 = build_Wp(4, 0).basis[0] + build_Wp(4, 1).basis[0]
    with pytest.raises(ValueError, match="homogeneous"):
        weyl_mass(m4, mixed4)
    with pytest.raises(ValueError, match="homogeneous"):
        weyl_mass_chiral(m_chiral, w3 + build_Wp(3, 1).basis[0], -1)
    with pytest.raises(ValueError, match="weyl family needs PolyTensor4"):
        weyl_mass(m4, ExactPoly.variable(5, 0))
    with pytest.raises(ValueError, match="conformal family needs ExactPoly"):
        conformal_mass(m3, w3)


def test_infinitesimal_check_argument_errors():
    # the label must name the element that acts: acting on m by "a_2" and on
    # the dual basis by a_1 once returned the silent residual 8281/2025
    n = 3
    gens = dict(all_generators(n))
    m = random_mass_aspect(n, conformal_weight(n, 1), random.Random(7))
    dual = build_Hp(n, 1).basis
    assert check_equivariance_infinitesimal("conformal", m, "a_1", gens["a_1"], dual) == 0
    assert check_equivariance_infinitesimal("conformal", m, "a_1", gens["a_1"].matrix, dual) == 0
    for name in ("a_2", "r_12", "b_1"):
        with pytest.raises(ValueError, match="does not label the given generator"):
            check_equivariance_infinitesimal("conformal", m, name, gens["a_1"], dual)
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        check_equivariance_infinitesimal("bogus", m, "a_1", gens["a_1"], [])
    with pytest.raises(ValueError, match="empty dual basis"):
        check_equivariance_infinitesimal("conformal", m, "a_1", gens["a_1"], [])
    # a dual basis of the wrong kind once raised a bare AttributeError
    w3 = build_Wp(n, 0).basis
    with pytest.raises(ValueError, match="conformal family needs ExactPoly dual vectors, not PolyTensor4"):
        check_equivariance_infinitesimal("conformal", m, "a_1", gens["a_1"], w3)
    for family in ("weyl", "weyl_plus", "weyl_minus"):
        with pytest.raises(ValueError, match=f"{family} family needs PolyTensor4 dual vectors, not ExactPoly"):
            check_equivariance_infinitesimal(family, m, "a_1", gens["a_1"], dual)
    with pytest.raises(ValueError, match="ambient polynomial: 3 variables, expected n [+] 1 = 4"):
        check_equivariance_infinitesimal("conformal", m, "a_1", gens["a_1"], [ExactPoly.variable(3, 0)])
    with pytest.raises(ValueError, match="dimension mismatch: 5 variables, expected n [+] 1 = 4"):
        check_equivariance_infinitesimal("weyl", m, "a_1", gens["a_1"], build_Wp(4, 0).basis)
    with pytest.raises(ValueError, match="homogeneous"):
        check_equivariance_infinitesimal("weyl", m, "a_1", gens["a_1"], [w3[0] + build_Wp(n, 1).basis[0]])


# ---------------------------------------------------------------------------
# the chiral orientation: J(d_2) = +d_3 at the south pole
# ---------------------------------------------------------------------------


def _at(bivector, point):
    return {ij: v for ij, p in bivector.items() if (v := p.evaluate(point))}


def test_chiral_orientation_at_the_south_pole():
    pole = (F(1), F(-1), F(0), F(0))
    e2, e3 = _eplus_wedge(4, 1), _eplus_wedge(4, 2)
    assert _at(hodge_star_bivector(e2), pole) == _at(e3, pole)
    assert _at(hodge_star_bivector(e3), pole) == {ij: -v for ij, v in _at(e2, pole).items()}
    assert _at(e2, pole)


# ---------------------------------------------------------------------------
# finite group action, checked by quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,n1", [("conformal", 1), ("weyl", 0), ("weyl", 1)])
def test_finite_equivariance_by_quadrature(family, n1):
    n = 3
    m = random_mass_aspect(n, _weight(family, n, n1), random.Random(7))
    a = boost_from_parameter(n, 1, F(1, 3))
    assert check_equivariance_finite(m, a, n1, order=24, family=family) < 1e-9


def test_finite_equivariance_argument_errors():
    n = 3
    a = boost_from_parameter(n, 1, F(1, 3))
    m = random_mass_aspect(n, weyl_weight(n, 0), random.Random(7))
    with pytest.raises(ValueError, match="conformal and weyl"):
        check_equivariance_finite(m, a, 0, order=8, family="weyl_plus")
    with pytest.raises(ValueError, match="does not match weight"):
        check_equivariance_finite(m, a, 1, order=8, family="weyl")
    # an element of SO(4,1) once met a numpy matmul error
    with pytest.raises(ValueError, match="Lorentz element of size 5 for an aspect with n [+] 1 = 4"):
        check_equivariance_finite(m, boost_from_parameter(4, 1, F(1, 3)), 0, order=8, family="weyl")

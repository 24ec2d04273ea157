import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ahmass.gaussian import GaussianRational
from ahmass.harmonic import build_Hp
from ahmass.linalg import joint_kernel
from ahmass.poly import ExactPoly, minkowski_norm_poly
from ahmass.lorentz import (
    AlgebraElement,
    LorentzElement,
    algebra_act_on_poly,
    all_generators,
    act_on_poly,
    ball_action,
    ball_to_hyperboloid,
    boost_from_parameter,
    boost_generator,
    bracket,
    cartan_basis,
    cartan_generators,
    cartan_keys,
    cartan_rank,
    highest_weight_vectors,
    identity_element,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_sub,
    named_generators,
    null_coordinates,
    null_raising_operators,
    rational_boost,
    rational_rotation,
    raising_operators,
    root_of_operator,
    rotation_generator,
    sphere_action,
    u_of_A,
)
from ahmass.weyl import algebra_action_tensor4, build_Wp
from sphere_oracles import rational_sphere_point

F = Fraction
ONE = ExactPoly.constant(4, 1)


def test_rational_boost_identity():
    assert rational_boost(3, 1, F(1), F(0)) == identity_element(3)
    # ints are exact and become Fractions
    assert rational_boost(3, 1, 1, 0) == identity_element(3)


def test_rational_boost_matrix():
    b = rational_boost(3, 1, F(5, 4), F(3, 4))
    assert b.matrix[0][0] == F(5, 4)
    assert b.matrix[0][1] == F(3, 4)
    assert b.matrix[1][0] == F(3, 4)
    assert b.matrix[1][1] == F(5, 4)
    assert b.matrix[2][2] == 1


def test_boost_times_inverse():
    b = rational_boost(3, 1, F(5, 4), F(3, 4))
    binv = rational_boost(3, 1, F(5, 4), F(-3, 4))
    assert b * binv == identity_element(3)
    assert b.inverse() == binv


def test_inverse_is_built_once_per_element(monkeypatch):
    # each act_on_poly used to build and check a new inverse element
    a = boost_from_parameter(3, 1, F(1, 3))
    built = []
    init = LorentzElement.__init__
    monkeypatch.setattr(LorentzElement, "__init__", lambda self, m: built.append(1) or init(self, m))
    p = ExactPoly.variable(4, 1) * ExactPoly.variable(4, 2) + ONE
    moved = [act_on_poly(a, p) for _ in range(5)]
    assert len(built) == 1 and all(q == moved[0] for q in moved)
    assert a.inverse() is a.inverse() and a.inverse().inverse() is a and len(built) == 1
    assert a * a.inverse() == identity_element(3)
    assert act_on_poly(a.inverse(), moved[0]) == p


def test_invalid_boost_parameters():
    with pytest.raises(ValueError):
        rational_boost(3, 1, F(2), F(1))


@pytest.mark.parametrize("t", [F(1), F(-1), F(2), F(-3, 2)], ids=["1", "-1", "2", "-3/2"])
def test_boost_parameter_must_lie_strictly_between_minus_one_and_one(t):
    # t = +-1 is the pole of (1 + t^2)/(1 - t^2); |t| > 1 gives c < 0
    with pytest.raises(ValueError, match=re.escape(f"t = {t} must satisfy -1 < t < 1")):
        boost_from_parameter(3, 1, t)


def sign_flipped(matrix, row, col):
    """The matrix with the entry (row, col) negated."""
    return [[-v if (r, c) == (row, col) else v for c, v in enumerate(line)] for r, line in enumerate(matrix)]


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: LorentzElement(mat_scale(identity_element(3).matrix, F(2))), "does not preserve eta"),
        (lambda: LorentzElement(mat_scale(identity_element(3).matrix, F(-1))), "not orthochronous"),
        (lambda: rational_boost(3, 4, F(5, 4), F(3, 4)), "direction out of range"),
        (lambda: rational_rotation(3, 1, 2, F(1), F(1)), re.escape("c^2 + s^2 = 1")),
        (lambda: rational_rotation(3, 2, 2, F(3, 5), F(4, 5)), "plane out of range"),
        (lambda: AlgebraElement(identity_element(3).matrix), "not an infinitesimal isometry"),
        (lambda: AlgebraElement(sign_flipped(boost_generator(3, 2).matrix, 0, 2)), "not an infinitesimal isometry"),
        (lambda: AlgebraElement(sign_flipped(rotation_generator(4, 1, 3).matrix, 1, 3)), "not an infinitesimal isometry"),
        (lambda: AlgebraElement(sign_flipped(raising_operators(4)[0][1], 0, 3)), "not an infinitesimal isometry"),
        (lambda: ball_to_hyperboloid((F(1), F(0), F(0))), "not in the open unit ball"),
        (lambda: sphere_action(identity_element(3), (F(1), F(1), F(0))), "not on the unit sphere"),
        (lambda: u_of_A(identity_element(3), (F(1, 2), F(0), F(0))), "not on the unit sphere"),
        (lambda: highest_weight_vectors([ONE], algebra_act_on_poly, 3, [F(1), F(0)]), "weight space empty"),
        (lambda: AlgebraElement([[0, 1, 0], [1, 0, 0]]), "not a nonempty square"),
        (lambda: AlgebraElement([]), "not a nonempty square"),
        (lambda: AlgebraElement([[]]), "not a nonempty square"),
        (lambda: AlgebraElement([[0, 1, 0], [1, 0], [0, 0, 0]]), "not a nonempty square"),
        (lambda: LorentzElement([[1, 0, 0], [0, 1]]), "not a nonempty square"),
        (lambda: LorentzElement([]), "not a nonempty square"),
    ],
    ids=[
        "element-not-isometry",
        "element-not-orthochronous",
        "boost-direction",
        "rotation-parameters",
        "rotation-plane",
        "algebra-not-isometry",
        "algebra-boost-entry-sign",
        "algebra-rotation-entry-sign",
        "algebra-raising-entry-sign",
        "ball-point-outside",
        "sphere-action-off-sphere",
        "u-off-sphere",
        "hw-empty-weight-space",
        "algebra-not-square",
        "algebra-empty",
        "algebra-empty-row",
        "algebra-ragged",
        "element-ragged",
        "element-empty",
    ],
)
def test_bad_input_raises_value_error(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_ball_action_identity():
    x = (F(1, 3), F(1, 5), F(0))
    assert ball_action(identity_element(3), x) == x


def test_ball_action_boost_at_origin():
    b = rational_boost(3, 1, F(5, 4), F(3, 4))
    assert ball_action(b, (F(0), F(0), F(0))) == (F(1, 3), F(0), F(0))


def test_ball_action_rotation_is_linear_rotation():
    r = rational_rotation(3, 1, 2, F(3, 5), F(4, 5))
    x = (F(1, 4), F(1, 3), F(-1, 5))
    got = ball_action(r, x)
    expect = (
        F(3, 5) * x[0] - F(4, 5) * x[1],
        F(4, 5) * x[0] + F(3, 5) * x[1],
        x[2],
    )
    assert got == expect


def test_group_law_on_ball():
    rng = random.Random(5)
    for _ in range(5):
        a = boost_from_parameter(3, rng.randint(1, 3), F(rng.randint(1, 5), 17))
        b = rational_rotation(3, 1, 3, F(3, 5), F(4, 5))
        x = (F(1, 7), F(-2, 9), F(1, 2))
        assert ball_action(a * b, x) == ball_action(a, ball_action(b, x))


def test_u_identity_and_boost():
    e1 = (F(1), F(0), F(0))
    assert u_of_A(identity_element(3), e1) == 1
    b = rational_boost(3, 1, F(5, 4), F(3, 4))
    assert u_of_A(b, e1) == 2  # 1/(c - s) with c=5/4, s=3/4


def test_u_cocycle_identity():
    # A^{-1} (1, x) = (1/u[A]) (1, Abar^{-1} x) at rational sphere points
    rng = random.Random(1)
    for _ in range(5):
        a = boost_from_parameter(3, rng.randint(1, 3), F(rng.randint(1, 4), 9))
        xhat = rational_sphere_point([F(rng.randint(-3, 3), 5), F(rng.randint(-3, 3), 7)])
        u = u_of_A(a, xhat)
        lhs = a.inverse().apply((F(1),) + tuple(xhat))
        rhs = (1 / u,) + tuple(v / u for v in sphere_action(a.inverse(), xhat))
        assert lhs == rhs


def test_u_composition_rule():
    # cocycle: u[AB](x) = u[A](x) * u[B](Abar^{-1} x)
    a = boost_from_parameter(3, 1, F(1, 3))
    b = boost_from_parameter(3, 2, F(1, 5))
    xhat = rational_sphere_point([F(1, 2), F(1, 4)])
    ainvx = sphere_action(a.inverse(), xhat)
    assert u_of_A(a * b, xhat) == u_of_A(a, xhat) * u_of_A(b, ainvx)


# ---------------------------------------------------------------------------
# algebra actions on polynomials
# ---------------------------------------------------------------------------


def X(nv, i):
    return ExactPoly.variable(nv, i)


def test_boost_generator_on_x0():
    a1 = boost_generator(3, 1)
    assert algebra_act_on_poly(a1, X(4, 0)) == -X(4, 1)


def test_any_generator_kills_norm():
    p = minkowski_norm_poly(4)
    for _, g in all_generators(3):
        assert algebra_act_on_poly(g, p).is_zero()


@pytest.mark.parametrize(
    "make",
    [
        lambda: boost_generator(3, 0),
        lambda: boost_generator(3, 4),
        lambda: rotation_generator(3, 1, 4),
        lambda: rotation_generator(3, 0, 2),
        lambda: rotation_generator(3, 2, 2),
    ],
    ids=["boost-0", "boost-4", "rotation-14", "rotation-02", "rotation-22"],
)
def test_generator_indices_are_checked(make):
    with pytest.raises(ValueError):
        make()


def test_rotation_generator_convention():
    # with a . P = d/ds P o A^{-s}: r_23 . X^2 = +X^3 and r_23 . X^3 = -X^2
    r23 = rotation_generator(3, 2, 3)
    assert algebra_act_on_poly(r23, X(4, 2)) == X(4, 3)
    assert algebra_act_on_poly(r23, X(4, 3)) == -X(4, 2)


def test_rotation_equals_minus_bracket_of_boosts():
    n = 4
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ai = boost_generator(n, i).matrix
            aj = boost_generator(n, j).matrix
            rij = rotation_generator(n, i, j).matrix
            assert mat_sub(rij, mat_scale(bracket(ai, aj), F(-1))) == tuple(
                tuple(F(0) for _ in range(n + 1)) for _ in range(n + 1)
            )


def test_algebra_action_is_derivation_and_respects_bracket():
    rng = random.Random(2)
    n = 3
    gens = [g for _, g in all_generators(n)]
    p = X(4, 0) * X(4, 2) + 3 * X(4, 1) ** 2
    q = X(4, 3) ** 2 - X(4, 0)
    for g in gens:
        assert algebra_act_on_poly(g, p * q) == (
            algebra_act_on_poly(g, p) * q + p * algebra_act_on_poly(g, q)
        )
    for _ in range(6):
        ga, gb = rng.choice(gens), rng.choice(gens)
        lhs = algebra_act_on_poly(bracket(ga.matrix, gb.matrix), p)
        rhs = algebra_act_on_poly(ga, algebra_act_on_poly(gb, p)) - algebra_act_on_poly(
            gb, algebra_act_on_poly(ga, p)
        )
        assert lhs == rhs


def test_group_vs_algebra_consistency():
    # finite conjugation check: act_on_poly is a right action on functions
    a = boost_from_parameter(3, 1, F(1, 4))
    b = rational_rotation(3, 2, 3, F(3, 5), F(4, 5))
    p = X(4, 0) ** 2 + X(4, 2) * X(4, 3)
    assert act_on_poly(a * b, p) == act_on_poly(a, act_on_poly(b, p))


# ---------------------------------------------------------------------------
# roots and highest weight vectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_raising_operators_are_root_vectors(n):
    rankl = cartan_rank(n)
    hs = cartan_generators(n)
    for name, x in raising_operators(n):
        root = root_of_operator(name, rankl)
        for h, lam in zip(hs, root):
            got = bracket(h, x)
            want = mat_scale(x, lam)
            assert got == want, (name, lam)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_e1_roots_span_the_south_pole_translations(n):
    # N of the stabiliser P = MAN of the south pole is spanned by the e1...
    # root vectors, fixed multiples of s_A = a_A + r_1A = a_A - r_A1
    i = GaussianRational.i()

    def s(A):
        return mat_sub(boost_generator(n, A).matrix, rotation_generator(n, A, 1).matrix)

    want = {}
    for k in range(2, cartan_rank(n) + 1):
        even, odd = s(2 * k - 2), s(2 * k - 1)
        want[f"e1-e{k}"] = mat_scale(mat_sub(even, mat_scale(odd, i)), F(-1, 2))
        want[f"e1+e{k}"] = mat_scale(mat_sub(even, mat_scale(odd, -i)), F(-1))
    if n % 2 == 0:
        want["e1"] = mat_scale(s(n), F(-1))
    roots = raising_operators(n)
    assert {name: x for name, x in roots if root_of_operator(name, cartan_rank(n))[0] == 1} == want
    for x in cartan_generators(n) + [x for _, x in roots]:
        AlgebraElement(x)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_null_root_matrices_are_the_raising_operators_in_the_null_frame(n):
    # E has the eigenbasis as columns and E^{-1} the dual covectors eta e_{-k} as rows
    e = cartan_basis(n)
    keys = cartan_keys(n)
    E = tuple(tuple(e[k][mu] for k in keys) for mu in range(n + 1))
    E_inv = tuple(tuple(-c if mu == 0 else c for mu, c in enumerate(e[-k])) for k in keys)
    assert mat_mul(E_inv, E) == mat_identity(n + 1)
    null, x = null_raising_operators(n), raising_operators(n)
    assert [label for label, _ in null] == [label for label, _ in x]
    for (_, m), (_, mx) in zip(null, x):
        assert mat_mul(mat_mul(E_inv, mx), E) == m
        assert all(type(c) is int for row in m for c in row)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generators_are_built_once_and_match_a_fresh_build(n):
    fresh = [(f"a_{i}", boost_generator.__wrapped__(n, i)) for i in range(1, n + 1)]
    fresh += [
        (f"r_{i}{j}", rotation_generator.__wrapped__(n, i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    first, second = all_generators(n), all_generators(n)
    assert [(name, g.matrix) for name, g in first] == [(name, g.matrix) for name, g in fresh]
    assert first == second and first is not second
    assert all(g is named_generators(n)[name] for name, g in second)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_boost_and_rotation_generators_are_built_once(n):
    for i in range(1, n + 1):
        a = boost_generator(n, i)
        assert boost_generator(n, i) is a
        assert a.matrix == boost_generator.__wrapped__(n, i).matrix
        for j in range(1, n + 1):
            if j != i:
                r = rotation_generator(n, i, j)
                assert rotation_generator(n, i, j) is r
                assert r.matrix == rotation_generator.__wrapped__(n, i, j).matrix
    # a bad argument is never cached: it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            boost_generator(n, n + 1)
        with pytest.raises(ValueError):
            rotation_generator(n, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_null_coordinates_are_built_once_and_read_only(n):
    null = null_coordinates(n)
    assert null_coordinates(n) is null
    assert dict(null) == dict(null_coordinates.__wrapped__(n))
    with pytest.raises(TypeError):
        null[0] = null[-1]


@pytest.mark.parametrize("n,p", [(3, 1), (3, 2), (4, 2)])
def test_hw_vector_of_harmonic_space(n, p):
    # degree-p wave-harmonic space has highest weight vector (X^0+X^1)^p
    space = build_Hp(n, p)
    weight = [F(0)] * cartan_rank(n)
    weight[0] = F(p)
    hws = highest_weight_vectors(space.basis, algebra_act_on_poly, n, weight)
    assert len(hws) == 1
    poly = sum(space.basis[j] * c for j, c in hws[0].items())
    target = (X(n + 1, 0) + X(n + 1, 1)) ** p
    # compare at one monomial shared by both, whatever the term order
    e = next(iter(target.terms))
    assert poly and poly * target.terms[e] == target * poly.terms.get(e, 0)


def test_hw_trivial_rep():
    hws = highest_weight_vectors([ONE], algebra_act_on_poly, 3, [F(0), F(0)])
    assert hws == [{0: 1}]


def test_hw_vectors_act_once_per_cartan_image():
    # on W_0 at n = 4: two Cartan images and four raising images per basis
    # tensor, each computed once, and the rows of the one joint kernel of
    # all six maps
    basis, weight = build_Wp(4, 0).basis, [F(2), F(2)]
    calls = []

    def act(mat, v):
        calls.append(mat)
        return algebra_action_tensor4(mat, v)

    rows = highest_weight_vectors(basis, act, 4, weight)
    assert len(calls) == 210
    shifts = zip(cartan_generators(4), weight)
    maps = [lambda v, h=h, lam=lam: algebra_action_tensor4(h, v) - v * lam for h, lam in shifts]
    maps += [lambda v, r=r: algebra_action_tensor4(r, v) for _, r in raising_operators(4)]
    assert rows == joint_kernel(basis, maps)


@pytest.mark.parametrize("weight", [[F(0)], [F(0), F(0), F(0)]])
def test_hw_rejects_weight_of_wrong_length(weight):
    with pytest.raises(ValueError):
        highest_weight_vectors([ONE], algebra_act_on_poly, 3, weight)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_null_coordinates_are_weight_vectors(n):
    null = null_coordinates(n)
    assert list(null) == cartan_keys(n)
    for z, weight in null.values():
        for h, w in zip(cartan_generators(n), weight):
            assert algebra_act_on_poly(h, z) == z * w
    nv, i = n + 1, GaussianRational.i()
    assert null[-1] == (X(nv, 0) + X(nv, 1), (1,) + (0,) * (cartan_rank(n) - 1))
    assert null[-2][0] == X(nv, 2) + X(nv, 3) * i


@pytest.mark.parametrize("n", [3, 4])
def test_real_coefficients_of_the_null_frame_are_fractions(n):
    coefs = [c for e in cartan_basis(n).values() for c in e]
    coefs += [c for _, m in raising_operators(n) for row in m for c in row]
    coefs += [c for z, _ in null_coordinates(n).values() for c in z.terms.values()]
    assert all(type(c) is Fraction or type(c) is GaussianRational and c.im for c in coefs)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: LorentzElement([[True, 0], [0, 1]]), "inexact"),
        (lambda: LorentzElement([[1.0, 0], [0, 1]]), "inexact"),
        (lambda: LorentzElement([[1, 0], [0, GaussianRational(1, 1)]]), "not real"),
        # 0.3 would have become the binary value 5404319552844595 / 2^54
        (lambda: boost_from_parameter(3, 1, 0.3), "inexact"),
        (lambda: boost_from_parameter(3, 1, GaussianRational(0, F(1, 3))), "not real"),
        (lambda: rational_boost(3, 1, 1.25, F(3, 4)), "inexact"),
        (lambda: rational_rotation(3, 1, 2, F(3, 5), np.float64(0.8)), "inexact"),
        (lambda: rational_rotation(3, 1, 2, True, False), "inexact"),
        (lambda: ball_action(identity_element(3), (0.5, F(0), F(0))), "inexact"),
        (lambda: sphere_action(identity_element(3), (True, F(0), F(0))), "inexact"),
        (lambda: u_of_A(identity_element(3), (F(1), GaussianRational(0, 1), F(0))), "not real"),
        (lambda: u_of_A(identity_element(3), (1.0, F(0), F(0))), "inexact"),
    ],
    ids=[
        "element-bool", "element-float", "element-gaussian", "parameter-float", "parameter-gaussian",
        "boost-float", "rotation-numpy", "rotation-bool", "ball-float", "sphere-bool", "u-gaussian", "u-float",
    ],
)
def test_finite_constructors_take_exact_real_input_only(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("bad", [0.5, True, np.float64(1.0)], ids=["float", "bool", "numpy"])
def test_algebra_matrices_reject_inexact_entries(bad):
    # an inexact entry raises instead of entering the exact action as a
    # rounded Fraction
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[1][0] = m[0][1] = bad
    with pytest.raises(ValueError, match="inexact"):
        AlgebraElement(m)
    with pytest.raises(ValueError, match="inexact"):
        algebra_act_on_poly(m, ExactPoly.variable(4, 0))

import random
from fractions import Fraction

import pytest

from ahmass.harmonic import (
    build_Hp,
    check_restriction_eigenfunction,
    dim_Hp,
    invariant_form_q,
    metric_multiplication_scaling,
    signature_Hp,
    signature_Hp_expected,
)
from ahmass.lorentz import (
    algebra_act_on_poly,
    all_generators,
    act_on_poly,
    boost_from_parameter,
    rational_rotation,
)
from ahmass.linalg import SpanSolver
from ahmass.poly import ExactPoly, minkowski_norm_poly, monomials_of_degree, to_coords, wave_operator
from space_oracles import build_Hp_rows, harmonic_decompose

F = Fraction


def X(nv, i):
    return ExactPoly.variable(nv, i)


@pytest.mark.parametrize(
    "n,p,dim",
    [(3, 0, 1), (3, 1, 4), (3, 2, 9), (4, 2, 14)],
)
def test_dimensions_match_formula(n, p, dim):
    assert dim_Hp(n, p) == dim
    assert build_Hp(n, p).dim == dim


def test_basis_is_wave_harmonic():
    space = build_Hp(3, 3)
    for b in space.basis:
        assert wave_operator(b).is_zero()


def test_harmonic_decompose_fixed_point():
    space = build_Hp(3, 2)
    for b in space.basis:
        h, q = harmonic_decompose(b)
        assert h == b
        assert q.is_zero()


def test_harmonic_decompose_norm():
    norm = minkowski_norm_poly(4)
    h, q = harmonic_decompose(norm)
    assert h.is_zero()
    assert q == ExactPoly.constant(4, 1)


def test_harmonic_decompose_time_square():
    # (X^0)^2 = H + (X.X) Q with H = (X^0)^2 + (X.X)/4, Q = -1/4 for n=3
    p = X(4, 0) ** 2
    h, q = harmonic_decompose(p)
    assert q == ExactPoly.constant(4, F(-1, 4))
    assert h == p + minkowski_norm_poly(4) / 4
    assert wave_operator(h).is_zero()


def random_homogeneous(nv, d, rng):
    p = ExactPoly.zero(nv)
    for e in monomials_of_degree(nv, d):
        if rng.random() < 0.5:
            p = p + ExactPoly.monomial(nv, e, F(rng.randint(-5, 5), rng.randint(1, 3)))
    return p


def test_harmonic_decompose_reconstructs_and_cross_checks_nullspace():
    rng = random.Random(4)
    norm = minkowski_norm_poly(4)
    for d in (2, 3, 4):
        space = build_Hp(3, d)
        solver = SpanSolver([to_coords(b, d) for b in space.basis])
        for _ in range(4):
            p = random_homogeneous(4, d, rng)
            h, q = harmonic_decompose(p)
            assert p == h + norm * q
            assert wave_operator(h).is_zero()
            # the harmonic part lies in the nullspace-built space
            if not h.is_zero():
                assert solver.contains(to_coords(h, d))


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: build_Hp(2, 1), "need n >= 3"),
        (lambda: invariant_form_q(X(4, 0) + X(4, 1) ** 2, X(4, 0)), "must be homogeneous"),
        (lambda: invariant_form_q(X(4, 0), X(4, 1) ** 2), "not in the same homogeneous space"),
        (lambda: metric_multiplication_scaling(ExactPoly.zero(4), 1), "nonzero homogeneous"),
        (lambda: metric_multiplication_scaling(X(4, 0) ** 2, 1), "not wave-harmonic"),
        (lambda: dim_Hp(1, 1), "n=1, p=1"),
        (lambda: dim_Hp(0, 2), "n=0, p=2"),
        (lambda: signature_Hp_expected(3, -1), "n=3, p=-1"),
        (lambda: signature_Hp_expected(1, 1), "n=1, p=1"),
    ],
    ids=[
        "small-n",
        "form-inhomogeneous",
        "form-degrees",
        "scaling-zero",
        "scaling-not-harmonic",
        "dim-n1",
        "dim-n0",
        "signature-negative-p",
        "signature-n1",
    ],
)
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_decompose_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        harmonic_decompose(X(4, 0) + X(4, 0) ** 2)


# ---------------------------------------------------------------------------
# invariant form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,p,expected",
    [(3, 0, (1, 0)), (3, 1, (3, 1)), (3, 2, (6, 3))],
)
def test_signatures_small(n, p, expected):
    assert signature_Hp_expected(n, p) == expected
    assert signature_Hp(n, p) == expected


def test_signature_components_sum_to_dim():
    for (n, p) in [(3, 3), (4, 2)]:
        plus, minus = signature_Hp(n, p)
        assert plus + minus == dim_Hp(n, p)


def test_form_infinitesimally_invariant():
    n = 3
    space = build_Hp(n, 2)
    gens = [g for _, g in all_generators(n)]
    for g in gens:
        for b1 in space.basis:
            for b2 in space.basis:
                lhs = invariant_form_q(algebra_act_on_poly(g, b1), b2)
                rhs = invariant_form_q(b1, algebra_act_on_poly(g, b2))
                assert lhs + rhs == 0


def test_action_preserves_Hp():
    n = 3
    space = build_Hp(n, 2)
    a = boost_from_parameter(n, 1, F(1, 3))
    r = rational_rotation(n, 2, 3, F(3, 5), F(4, 5))
    for b in space.basis:
        for g in (a, r, a * r):
            assert wave_operator(act_on_poly(g, b)).is_zero()


def test_metric_multiplication_scaling():
    one = ExactPoly.constant(4, 1)
    assert metric_multiplication_scaling(one, 0) == 1
    lam = metric_multiplication_scaling(one, 1)
    norm = minkowski_norm_poly(4)
    assert lam == invariant_form_q(norm, norm)
    assert lam > 0
    # null highest-weight direction goes through the polarization branch
    null_dir = X(4, 0) + X(4, 1)
    assert invariant_form_q(null_dir, null_dir) == 0
    lam2 = metric_multiplication_scaling(null_dir, 1)
    assert lam2 > 0
    # the constant depends only on (k, degree): cross-check on X^2
    probe = X(4, 2)
    assert lam2 == invariant_form_q(norm * probe, norm * probe) / invariant_form_q(
        probe, probe
    )


# ---------------------------------------------------------------------------
# exact eigenfunction check
# ---------------------------------------------------------------------------


def test_restriction_eigenfunction_constant():
    assert check_restriction_eigenfunction(ExactPoly.constant(4, 1)) == 0


def test_restriction_eigenfunction_linear():
    assert check_restriction_eigenfunction(X(4, 0)) == 0


def test_restriction_eigenfunction_quadratic():
    space = build_Hp(3, 2)
    assert check_restriction_eigenfunction(space.basis[0]) == 0


def test_restriction_of_quadric_is_not_an_eigenfunction():
    # X.X restricts to the constant -1, not an eigenfunction at p = 2:
    # u = -1 gives d^2 (0 - 2(n+1) u) = 2(n+1) d^2, here n = 3
    q = minkowski_norm_poly(4)
    d = 1 - sum((X(3, i) ** 2 for i in range(3)), ExactPoly.zero(3))
    assert check_restriction_eigenfunction(q) == d * d * 8


def test_restriction_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        check_restriction_eigenfunction(X(4, 0) + 1)


def test_build_hp_is_the_rows_route():
    # the kernel of Box on the unit monomials is the echelon basis of its
    # matrix on monomial coordinates, coefficient types and term order included
    for n in (3, 4, 5):
        for p in range(5):
            got, want = build_Hp(n, p).basis, build_Hp_rows(n, p).basis
            assert [list(b.terms.items()) for b in got] == [list(b.terms.items()) for b in want]
            assert all(type(c) is Fraction for b in got for c in b.terms.values())

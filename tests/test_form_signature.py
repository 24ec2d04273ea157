"""The sparse integer Gram of the invariant forms against the pairwise oracle."""

import random
from fractions import Fraction

import pytest

from ahmass.gaussian import GaussianRational
from ahmass.harmonic import (
    _poly_weight,
    build_Hp,
    form_signature,
    integer_gram,
    invariant_form_q,
    signature_Hp,
    signature_Hp_expected,
    unit_pairing,
)
from ahmass.linalg import dense_to_rows, signature_of_form
from ahmass.lorentz import all_generators
from ahmass.poly import ExactPoly, coordinates
from ahmass.weyl import _tensor4_weight, algebra_action_tensor4, build_Wp, signature_Wp, signature_Wp_expected
from form_oracles import fraction_signature, pairwise_gram, tensor4_q

SPACES = [("W", 3, 0), ("W", 3, 1), ("W", 4, 0), ("W", 4, 1)] + [("H", n, p) for n in (3, 4) for p in (0, 1, 2)]


def space(kind, n, p):
    """(basis, unit weight, pairwise oracle form) of H_p or W_p."""
    if kind == "W":
        return build_Wp(n, p).basis, _tensor4_weight, tensor4_q
    return build_Hp(n, p).basis, _poly_weight, invariant_form_q


def mixed(basis):
    """b_i (-1)^(i+1) (i+1)/(i+2) + b_(i+1)/3: another basis of the span, its coordinates over several denominators."""

    def times(v, f):
        return v * f if isinstance(v, ExactPoly) else v.scale(f)

    out = [times(v, Fraction((-1) ** (i + 1) * (i + 1), i + 2)) for i, v in enumerate(basis)]
    return [w + times(b, Fraction(1, 3)) for w, b in zip(out, basis[1:])] + out[len(basis) - 1 :]


@pytest.mark.parametrize("scaled", [False, True], ids=["basis", "mixed"])
@pytest.mark.parametrize("kind,n,p", SPACES)
def test_integer_gram_is_the_scaled_pairwise_gram(kind, n, p, scaled):
    basis, weight, form = space(kind, n, p)
    if scaled:
        basis = mixed(basis)
    rows, scales, factor = integer_gram(basis, weight)
    oracle = pairwise_gram(basis, form)
    d = len(basis)
    assert type(factor) is int and factor > 0
    assert all(type(s) is int and s > 0 for s in scales) and len(scales) == d
    for v, s in zip(basis, scales):
        assert all((c * s).denominator == 1 for _, c in coordinates(v))
    assert all(type(x) is int and x for row in rows for x in row.values())
    dense = [[rows[i].get(j, 0) for j in range(d)] for i in range(d)]
    assert dense == [[factor * scales[i] * scales[j] * oracle[i][j] for j in range(d)] for i in range(d)]
    plus, minus, zero = fraction_signature(oracle)
    assert zero == 0 and form_signature(basis, weight) == (plus, minus)
    assert signature_of_form(dense_to_rows(oracle)) == (plus, minus, 0)


@pytest.mark.parametrize("n,p", [(3, 2), (5, 0)])
def test_signatures_match_closed_forms(n, p):
    assert signature_Wp(n, p) == signature_Wp_expected(n, p)
    assert signature_Hp(n, p) == signature_Hp_expected(n, p)


@pytest.mark.parametrize("n,p", [(3, 1), (4, 0)])
def test_unit_pairing_is_the_pairwise_form_on_moved_tensors(n, p):
    # the pairing of the invariance check, on basis tensors and their images
    rng = random.Random(5)
    basis, gens = build_Wp(n, p).basis, all_generators(n)
    for _ in range(6):
        g = rng.choice(gens)[1].matrix
        w1, w2 = rng.choice(basis), algebra_action_tensor4(g, rng.choice(basis))
        for a, b in ((w1, w2), (w2, w1), (w2, w2)):
            assert unit_pairing(a, b, _tensor4_weight) == tensor4_q(a, b)


@pytest.mark.parametrize("kind,n,p", [("H", 3, 1), ("W", 3, 0)])
def test_form_signature_rejects_a_repeated_vector(kind, n, p):
    basis, weight, _ = space(kind, n, p)
    with pytest.raises(AssertionError, match="invariant form is degenerate"):
        form_signature(list(basis) + [basis[-1]], weight)


def test_integer_gram_needs_rational_coordinates():
    gaussian = ExactPoly(4)
    gaussian.terms = {(1, 0, 0, 0): GaussianRational(Fraction(1), Fraction(1))}
    with pytest.raises(ValueError, match="rational coordinates"):
        integer_gram([gaussian], _poly_weight)


def _random_symmetric(rng, d):
    """A sparse symmetric rational matrix: random entries, a zero diagonal, or a low-rank sum of squares."""
    G = [[Fraction(0)] * d for _ in range(d)]
    shape = rng.choice(["entries", "zero-diagonal", "low-rank"])
    if shape == "low-rank":
        for _ in range(rng.randint(0, d - 1)):
            v = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in rng.sample(range(d), rng.randint(1, d))}
            s = rng.choice([-1, 1])
            for i, a in v.items():
                for j, b in v.items():
                    G[i][j] += s * a * b
        return G
    density = rng.choice([0.15, 0.4, 0.9])
    for i in range(d):
        for j in range(i, d):
            if (i < j or shape == "entries") and rng.random() < density:
                G[i][j] = G[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return G


def test_signature_kernel_matches_the_fraction_congruence():
    rng = random.Random(20)
    for _ in range(150):
        G = _random_symmetric(rng, rng.randint(1, 14))
        assert signature_of_form(dense_to_rows(G)) == fraction_signature(G)

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmass.gaussian import GaussianRational, I

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=9)
# a zero real part often; the imaginary part of a Gaussian is never zero
gaussians = st.builds(GaussianRational, st.one_of(st.just(Fraction(0)), fractions), fractions.filter(bool))
OPERANDS = {"int": st.integers(min_value=-20, max_value=20), "fraction": fractions, "gaussian": gaussians}
operands = st.one_of(*OPERANDS.values())


def parts(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def componentwise(op, x, y):
    """(re, im) of op(x, y) by the textbook formulas on Fraction parts."""
    (a, b), (c, d) = parts(x), parts(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def has_fraction_parts(g) -> bool:
    return type(g) is GaussianRational and type(g.re) is Fraction and type(g.im) is Fraction


@pytest.mark.parametrize("gaussian_first", [True, False])
@pytest.mark.parametrize("kind", OPERANDS)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv], ids=lambda op: op.__name__)
def test_operators_are_the_componentwise_formulas(op, kind, gaussian_first):
    @settings(max_examples=20)
    @given(gaussians, OPERANDS[kind])
    def check(g, x):
        left, right = (g, x) if gaussian_first else (x, g)
        if op is operator.truediv and not right:
            with pytest.raises(ZeroDivisionError):
                op(left, right)
            return
        out = op(left, right)
        re, im = componentwise(op, left, right)
        if im:
            assert has_fraction_parts(out) and (out.re, out.im) == (re, im)
        else:
            assert type(out) is Fraction and out == re

    check()


@given(gaussians, fractions)
def test_results_with_a_zero_imaginary_part_are_fractions(g, x):
    a, b = g.re, g.im
    cases = [
        (g + GaussianRational(x, -b), a + x),
        (g - GaussianRational(x, b), a - x),
        (g * g.conjugate(), g.norm2()),
        (g.conjugate() * g, g.norm2()),
        (g / (g * 3), Fraction(1, 3)),
        (g * 0, 0),
        (Fraction(0) * g, 0),
        (0 / g, 0),
        ((x + I) - I, x),
    ]
    for out, want in cases:
        assert type(out) is Fraction and out == want


@given(gaussians, operands)
def test_equality_compares_both_parts_in_either_order(g, x):
    expected = parts(g) == parts(x)
    assert (g == x) is expected and (x == g) is expected
    assert (g != x) is not expected


@given(gaussians)
def test_unary_operations_keep_fraction_parts(g):
    for out, expected in ((-g, (-g.re, -g.im)), (g.conjugate(), (g.re, -g.im))):
        assert has_fraction_parts(out) and (out.re, out.im) == expected


@given(st.one_of(st.integers(min_value=-20, max_value=20), fractions))
def test_real_gaussians_hash_like_their_real_part(x):
    # a real result of Gaussian arithmetic is its real part, hash included
    assert hash(GaussianRational(x, 1) - GaussianRational(0, 1)) == hash(x)
    assert len({(x + I) - I, x}) == 1
    assert hash(GaussianRational(x, 1)) == hash(GaussianRational(Fraction(x), Fraction(1)))


def test_constructor_coerces_every_rational_to_fraction():
    class Half(Fraction):
        pass

    for re, im in ((1, 2), (Half(1, 2), Half(3)), (Fraction(1, 3), -4)):
        g = GaussianRational(re, im)
        assert has_fraction_parts(g) and (g.re, g.im) == (Fraction(re), Fraction(im))
    half, three = Fraction(1, 2), Fraction(-3)
    g = GaussianRational(half, three)
    assert g.re is half and g.im is three


@pytest.mark.parametrize(
    "re,im",
    [(0, 0), (Fraction(3), Fraction(0)), (0.1, 1), (1, 0.5), (1j, 1), (1, 2 + 0j), (True, 1), (1, True)],
    ids=["zero-int", "zero-fraction", "float-re", "float-im", "complex-re", "complex-im", "bool-re", "bool-im"],
)
def test_constructor_rejects_a_zero_imaginary_part_and_inexact_parts(re, im):
    with pytest.raises(ValueError):
        GaussianRational(re, im)


def test_other_operands_are_not_implemented():
    g = GaussianRational(1, 2)
    for other in (1.5, "1", None):
        with pytest.raises(TypeError):
            g + other
        with pytest.raises(TypeError):
            other * g
    assert g != 1.0 + 2.0j

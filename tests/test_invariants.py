import random
from fractions import Fraction
from itertools import product

import pytest

from ahmass.invariants import (
    conformal_mass,
    density_null_power,
    intertwining_density_residual,
    symmetric_power_action,
    wang_mass_vector,
)
from ahmass.lorentz import algebra_act_on_poly, all_generators, bracket
from ahmass.massaspect import generator_action, random_mass_aspect
from ahmass.poly import ExactPoly, sphere_integral, sphere_restrict

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
    am = wang_mass_vector(generator_action(name, m, k))
    return tuple(
        am[mu] + conformal_mass(m, algebra_act_on_poly(gen, ExactPoly.variable(nv, mu)), check_weight=False)
        for mu in range(nv)
    )


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

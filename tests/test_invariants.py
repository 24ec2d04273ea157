from fractions import Fraction
from itertools import product

import pytest

from ahmass.invariants import (
    density_null_power,
    intertwining_density_residual,
    symmetric_power_action,
)
from ahmass.lorentz import all_generators, bracket

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

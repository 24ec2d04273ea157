import numpy as np
import pytest

from ahmass.poly import monomials_of_degree, sphere_monomial_integral
from ahmass.quadrature import sphere_nodes


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_nodes_integrate_low_degree_monomials_exactly(n):
    order = 6
    nodes, weights = sphere_nodes(n, order)
    assert nodes.shape == (len(weights), n)
    assert np.allclose(np.einsum("qi,qi->q", nodes, nodes), 1.0, atol=1e-14)
    assert abs(weights.sum() - 1.0) < 1e-14
    for degree in range(order):
        for e in monomials_of_degree(n, degree):
            quad = float(np.dot(weights, np.prod(nodes ** np.array(e), axis=1)))
            assert abs(quad - float(sphere_monomial_integral(e))) < 1e-12, e


def test_sphere_nodes_need_a_sphere():
    for n in (0, 1):
        with pytest.raises(ValueError):
            sphere_nodes(n, 4)

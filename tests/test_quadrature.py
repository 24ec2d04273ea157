import numpy as np
import pytest

from ahmass.poly import monomials_of_degree, sphere_monomial_integral
from ahmass.quadrature import sphere_nodes


@pytest.mark.parametrize(
    "n, order, degrees",
    [pytest.param(n, 6, range(6), id=str(n)) for n in (2, 3, 4, 5, 6)]
    + [pytest.param(n, 24, degrees, id=f"{n}-order24") for n, degrees in ((2, range(24)), (3, range(24)), (4, (22,)))],
)
def test_sphere_nodes_integrate_low_degree_monomials_exactly(n, order, degrees):
    """Every monomial of degree below the order integrates exactly (on S^3
    at order 24, only the highest even degree, to keep the test fast)."""
    nodes, weights = sphere_nodes(n, order)
    assert nodes.shape == (len(weights), n)
    assert np.allclose(np.einsum("qi,qi->q", nodes, nodes), 1.0, atol=1e-14)
    assert abs(weights.sum() - 1.0) < 1e-14
    powers = nodes[np.newaxis] ** np.arange(max(degrees) + 1)[:, np.newaxis, np.newaxis]
    for degree in degrees:
        monos = monomials_of_degree(n, degree)
        quad = [np.dot(weights, np.prod([powers[k, :, i] for i, k in enumerate(e)], axis=0)) for e in monos]
        exact = [float(sphere_monomial_integral(e)) for e in monos]
        np.testing.assert_allclose(quad, exact, rtol=0, atol=1e-12, err_msg=f"degree {degree}")


def test_sphere_nodes_need_a_sphere():
    for n in (0, 1):
        with pytest.raises(ValueError):
            sphere_nodes(n, 4)


@pytest.mark.parametrize("order", [0, -1, 2.5, True])
def test_sphere_nodes_need_a_positive_int_order(order):
    # order 0 once raised ZeroDivisionError and -1 numpy's negative dimensions
    with pytest.raises(ValueError, match="quadrature order must be a positive int"):
        sphere_nodes(3, order)

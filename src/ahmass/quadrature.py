"""Product quadrature on unit spheres.

For S^2 a tensor-product Gauss-Legendre (polar) x trapezoid (azimuthal)
rule; for higher spheres the recursive product with Gauss-Jacobi nodes
for the sin^{n-2} polar weight.  Weights are normalized to sum to one so
quadrature values are directly comparable with the exact normalized
sphere integrals of :mod:`ahmass.poly`.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi


def sphere_nodes(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (Q, n) and normalized weights (Q,) on S^{n-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        phi = 2 * np.pi * (np.arange(2 * order) + 0.5) / (2 * order)
        nodes = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(2 * order, 1.0 / (2 * order))
        return nodes, w
    a = (n - 3) / 2.0
    if a == 0.0:
        t, wt = leggauss(order)
    else:
        t, wt = roots_jacobi(order, a, a)
    sub_nodes, sub_w = sphere_nodes(n - 1, order)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    nodes = []
    weights = []
    for ti, si, wi in zip(t, s, wt):
        block = np.concatenate([si * sub_nodes, np.full((len(sub_nodes), 1), ti)], axis=1)
        nodes.append(block)
        weights.append(wi * sub_w)
    nodes = np.concatenate(nodes, axis=0)
    weights = np.concatenate(weights)
    weights /= weights.sum()
    return nodes, weights

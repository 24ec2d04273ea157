"""Product quadrature on unit spheres.

For S^1 the trapezoid rule in the angle; for higher spheres the recursive
product of S^{n-2} with Gauss-Gegenbauer nodes for the (1 - t^2)^a polar
weight, a = (n - 3) / 2 (Gauss-Legendre at a = 0).  The Gauss nodes come
from the Golub-Welsch algorithm: they are the eigenvalues of the
symmetric Jacobi matrix of the monic orthogonal polynomials, whose
off-diagonal is sqrt(beta_k) with
beta_k = k (k + 2a) / ((2k + 2a + 1)(2k + 2a - 1)), and each weight is
the squared first component of its unit eigenvector.  Weights are
normalized to sum to one so quadrature values are directly comparable
with the exact normalized sphere integrals of :mod:`ahmass.poly`.

numpy is imported by the two functions here when they run, not with the
module, so importing the package leaves it out of a pass that runs no
quadrature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def _gegenbauer_gauss(order: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and unnormalized weights of (1 - t^2)^a on [-1, 1]."""
    import numpy as np

    k = np.arange(1, order, dtype=float)
    beta = k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1))
    off = np.sqrt(beta)
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return t, v[0] ** 2


def sphere_nodes(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (Q, n) and normalized weights (Q,) on S^{n-1}.

    Raises ``ValueError`` for n < 2 or an order that is not a positive ``int``.
    """
    import numpy as np

    if n < 2:
        raise ValueError("need n >= 2")
    if type(order) is not int or order < 1:
        raise ValueError(f"quadrature order must be a positive int, got {order!r}")
    if n == 2:
        phi = 2 * np.pi * (np.arange(2 * order) + 0.5) / (2 * order)
        nodes = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(2 * order, 1.0 / (2 * order))
        return nodes, w
    t, wt = _gegenbauer_gauss(order, (n - 3) / 2.0)
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

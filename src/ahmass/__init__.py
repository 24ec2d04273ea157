"""Exact invariants of asymptotically hyperbolic metrics.

Library layout:

* :mod:`ahmass.poly`, :mod:`ahmass.linalg` -- exact polynomials, the
  polynomial tensor base and sparse rational linear algebra.
* :mod:`ahmass.lorentz` -- Lorentz group/algebra elements, ball-model
  action, boundary conformal factor, highest-weight machinery.
* :mod:`ahmass.harmonic` -- wave-harmonic polynomial spaces, invariant
  form and signatures.
* :mod:`ahmass.weyl` -- linearized gravity on Minkowski space and the
  polynomial Weyl-tensor spaces.
* :mod:`ahmass.massaspect` -- mass-aspect tensors on the sphere at
  infinity and the weighted group/algebra actions.
* :mod:`ahmass.invariants` -- the classified linear masses (conformal,
  Weyl, chiral) and their equivariance checks.
* :mod:`ahmass.quadrature` -- product quadrature on spheres for the
  numeric checks of the finite group action.
"""

__version__ = "0.1.0"

from .gaussian import GaussianRational
from .poly import ExactPoly

__all__ = ["GaussianRational", "ExactPoly", "__version__"]

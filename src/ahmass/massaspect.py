"""Mass-aspect tensors on the sphere at infinity.

A mass aspect is a symmetric 2-tensor on S^{n-1} stored through ambient
polynomial components m_ij(x^1..x^n); the transverse representative
(zero contraction with the position vector, as an on-sphere identity) is
the canonical one.  All equalities between such tensors are equalities
of the on-sphere classes.  :class:`SphereTensor` is the symmetric-pair
layout of :class:`ahmass.poly.PolyTensor` reduced to sphere normal form:
every component is stored in the normal form of
:func:`ahmass.poly.quadric_normal_form`, which is unique on each class, so
on-sphere equality is plain structural equality of the stored components,
and chained actions keep the degrees of the on-sphere classes.

The sphere covariant calculus is extrinsic: ambient flat derivative
followed by tangential projection (Gauss formula).  Every element M of
so(n,1), real or complexified, acts by one weighted Lie derivative along
the conformal Killing field V it induces on the sphere,
``a ._k m = -nabla_V m - Pi (A^T m + m A) Pi - k phi m``
(:func:`algebra_action_aspect`), and the decay order k of the aspect
enters only through the conformal factor phi of V.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .gaussian import GaussianRational
from .lorentz import (
    AlgebraElement,
    LorentzElement,
    all_generators,
    boost_generator,
    rotation_generator,
)
from .poly import ExactPoly, PolyTensor, quadric_normal_form, sorted_pair, vanishes_on_sphere

F = Fraction


def _zero(n: int) -> ExactPoly:
    return ExactPoly.zero(n)


def _x(n: int, i: int) -> ExactPoly:
    return ExactPoly.variable(n, i)


@dataclass(eq=False)
class SphereTensor(PolyTensor):
    """Symmetric 2-tensor with polynomial ambient components.

    ``comp[(i, j)]`` with i <= j holds the polynomial component, reduced
    to its sphere normal form; ``k`` is the decay order carried by the
    aspect (0 admitted only for raw data).
    """

    n: int
    k: int
    comp: Dict[Tuple[int, int], ExactPoly]

    nvars = property(lambda self: self.n)
    _key = staticmethod(sorted_pair)
    _reduce = staticmethod(quadric_normal_form)

    def radial_contraction(self, i: int) -> ExactPoly:
        """sum_j m_ij x^j."""
        out = _zero(self.n)
        for j in range(self.n):
            out = out + self.get(i, j) * _x(self.n, j)
        return out

    def is_transverse(self) -> bool:
        return all(
            vanishes_on_sphere(self.radial_contraction(i)) for i in range(self.n)
        )

    def trace_sigma(self) -> ExactPoly:
        """Round-metric trace: sum_i m_ii - sum_ij x^i x^j m_ij on the sphere."""
        out = _zero(self.n)
        for i in range(self.n):
            out = out + self.get(i, i)
        for i in range(self.n):
            out = out - _x(self.n, i) * self.radial_contraction(i)
        return out

    def equal_on_sphere(self, other: "SphereTensor") -> bool:
        """Equality of the on-sphere classes, whatever the two decay orders."""
        return self.comp.keys() == other.comp.keys() and all(
            p.terms == other.comp[ij].terms for ij, p in self.comp.items()
        )

    def is_real(self) -> bool:
        """True when no coefficient has a nonzero imaginary part (exact)."""
        return not any(
            isinstance(c, GaussianRational) and c.im
            for p in self.comp.values()
            for c in p.terms.values()
        )


def round_metric_tensor(n: int, k: int) -> SphereTensor:
    """Transverse representative of the round metric: delta - x (x) x."""
    comp = {}
    for i in range(n):
        for j in range(i, n):
            p = -_x(n, i) * _x(n, j)
            if i == j:
                p = p + 1
            comp[(i, j)] = p
    return SphereTensor(n, k, comp)


def transversalize(m: SphereTensor, k: int | None = None) -> SphereTensor:
    """Leading-order adjustment making the aspect transverse.

    m~_ij = m_ij - m_aj x^a x_i - m_ia x^a x_j
            + (m_ab x^a x^b / k) ((k-1) x_i x_j + delta_ij)

    Linear in m, fixes transverse inputs as on-sphere classes.
    """
    if k is None:
        k = m.k
    if k == 0:
        raise ValueError("decay order k must be positive")
    n = m.n
    radial = [m.radial_contraction(i) for i in range(n)]
    double = _zero(n)
    for a in range(n):
        double = double + radial[a] * _x(n, a)
    comp = {}
    for i in range(n):
        for j in range(i, n):
            p = m.get(i, j) - radial[j] * _x(n, i) - radial[i] * _x(n, j)
            corr = _x(n, i) * _x(n, j) * (k - 1)
            if i == j:
                corr = corr + 1
            p = p + double * corr / k
            comp[(i, j)] = p
    return SphereTensor(n, k, comp)


# ---------------------------------------------------------------------------
# tangent fields and extrinsic covariant calculus
# ---------------------------------------------------------------------------


@dataclass
class TangentField:
    """Polynomial vector field on R^n tangent to the unit sphere."""

    n: int
    comp: List[ExactPoly]

    def __post_init__(self):
        radial = _zero(self.n)
        for a in range(self.n):
            radial = radial + self.comp[a] * _x(self.n, a)
        if not vanishes_on_sphere(radial):
            raise ValueError("field is not tangent to the sphere")

    def derive(self, f: ExactPoly) -> ExactPoly:
        out = _zero(self.n)
        for a in range(self.n):
            out = out + self.comp[a] * f.diff(a)
        return out


def _linear(row, n: int) -> ExactPoly:
    """sum_d row[d] x^d over the spatial entries row[1..n] of a matrix row."""
    return sum((_x(n, d) * row[d + 1] for d in range(n) if row[d + 1]), _zero(n))


def _boundary_field(mat) -> Tuple[TangentField, ExactPoly]:
    """The field V and conformal factor phi that M induces on the sphere.

    V^c = M^c_0 + M^c_d x^d - x^c M^0_d x^d is the projective image of the
    linear field M X at X = (1, x), and phi = -M^0_d x^d.
    """
    n = len(mat) - 1
    phi = -_linear(mat[0], n)
    return TangentField(n, [_linear(mat[c + 1], n) + _x(n, c) * phi + mat[c + 1][0] for c in range(n)]), phi


def boost_field(n: int, i: int) -> TangentField:
    """frak a_i = d_i - x^i x^a d_a, the boundary field of a_i (1-based direction).

    On the sphere it equals the conformal Killing field
    (1+|x|^2)/2 d_i - x^i x^a d_a.
    """
    return _boundary_field(boost_generator(n, i).matrix)[0]


def _project_slots(n: int, t: Dict[Tuple[int, int], ExactPoly]) -> Dict[Tuple[int, int], ExactPoly]:
    """Sandwich a symmetric 2-index array with Pi = Id - x (x) x.

    Takes and returns the i <= j entries; with the radial vector
    r_i = t_ib x^b and s = r_a x^a the entries are
    t_ij - x_i r_j - x_j r_i + x_i x_j s.  r and s are taken to sphere
    normal form before they are multiplied out; the normal form is a ring
    map modulo |x|^2 - 1, so the entries change only within their
    on-sphere classes, which :class:`SphereTensor` stores reduced anyway.
    """

    def entry(i, j):
        return t.get((i, j) if i <= j else (j, i), _zero(n))

    rad = [
        quadric_normal_form(sum((entry(i, b) * _x(n, b) for b in range(n)), _zero(n)))
        for i in range(n)
    ]
    scalar = quadric_normal_form(sum((rad[a] * _x(n, a) for a in range(n)), _zero(n)))
    out = {}
    for i in range(n):
        for j in range(i, n):
            p = (
                entry(i, j)
                - _x(n, i) * rad[j]
                - _x(n, j) * rad[i]
                + _x(n, i) * _x(n, j) * scalar
            )
            if not p.is_zero():
                out[(i, j)] = p
    return out


def sphere_covariant_derivative(t, X: TangentField):
    """nabla^sigma_X of a scalar, tangent field, or symmetric 2-tensor.

    Extrinsic evaluation: ambient directional derivative followed by
    tangential projection on every remaining slot; exact as an on-sphere
    polynomial identity (the answer only depends on the on-sphere class
    of a transverse input).
    """
    n = X.n
    if isinstance(t, ExactPoly):
        return X.derive(t)
    if isinstance(t, TangentField):
        der = [X.derive(c) for c in t.comp]
        radial = sum((der[a] * _x(n, a) for a in range(n)), _zero(n))
        return TangentField(
            n, [der[a] - _x(n, a) * radial for a in range(n)]
        )
    if isinstance(t, SphereTensor):
        # derivative and projection both preserve the symmetry
        der = {ij: X.derive(p) for ij, p in t.comp.items()}
        return SphereTensor(t.n, t.k, _project_slots(n, der))
    raise TypeError(f"cannot differentiate {type(t)!r}")


def gradient_field(n: int, f: ExactPoly) -> TangentField:
    """Tangential gradient of a scalar."""
    der = [f.diff(a) for a in range(n)]
    radial = sum((der[a] * _x(n, a) for a in range(n)), _zero(n))
    return TangentField(n, [der[a] - _x(n, a) * radial for a in range(n)])


# ---------------------------------------------------------------------------
# algebra actions carrying the decay weight
# ---------------------------------------------------------------------------


def algebra_action_aspect(a, m: SphereTensor, k: int | None = None) -> SphereTensor:
    """a ._k m = -nabla^sigma_V m - Pi (A^T m + m A) Pi - k phi m  (m must be transverse).

    ``a`` is an algebra element or its matrix M, real or Gaussian; V and
    phi are its boundary field and conformal factor (:func:`_boundary_field`)
    and A = (M^c_d) its spatial block.  A boost a_i acts by
    -nabla m + k x^i m, a rotation r_ij (phi = 0) by
    -nabla m - m(r_ij ., .) - m(., r_ij .).
    """
    if not m.is_transverse():
        raise ValueError("mass aspect is not transverse")
    return _weighted_action(a, m, m.k if k is None else k)


def _weighted_action(a, m: SphereTensor, k: int) -> SphereTensor:
    """:func:`algebra_action_aspect` for an aspect already known to be transverse."""
    mat = (a if isinstance(a, AlgebraElement) else AlgebraElement(a)).matrix
    n = m.n
    if len(mat) != n + 1:
        raise ValueError("algebra element and aspect dimension mismatch")
    field, phi = _boundary_field(mat)
    out = sphere_covariant_derivative(m, field)
    spatial = [(e, c, mat[e + 1][c + 1]) for e in range(n) for c in range(n) if mat[e + 1][c + 1]]
    if spatial:
        # (A^T m + m A)_cd = A^e_c m_ed + A^e_d m_ec, kept on c <= d
        raw: Dict[Tuple[int, int], ExactPoly] = {}
        for e, c, v in spatial:
            for d in range(n):
                key = (min(c, d), max(c, d))
                raw[key] = raw.get(key, _zero(n)) + m.get(e, d) * (v * 2 if c == d else v)
        out = out + SphereTensor(n, m.k, _project_slots(n, raw))
    return out.scale(F(-1)) - m.map(lambda p: p * phi * k)


def boost_action(i: int, m: SphereTensor) -> SphereTensor:
    """a_i . m = -nabla^sigma_{frak a_i} m + k x^i m at k = m.k (m must be transverse)."""
    return algebra_action_aspect(boost_generator(m.n, i), m)


def rotation_action(i: int, j: int, m: SphereTensor) -> SphereTensor:
    """r_ij . m = -nabla^sigma_{frak r_ij} m - m(r_ij ., .) - m(., r_ij .)."""
    return algebra_action_aspect(rotation_generator(m.n, i, j), m)


def generator_action(name: str, m: SphereTensor, k: int | None = None) -> SphereTensor:
    """The action of the generator labelled ``name`` by ``lorentz.all_generators``."""
    gens = dict(all_generators(m.n))
    if name not in gens:
        raise ValueError(f"unknown generator {name!r}")
    return algebra_action_aspect(gens[name], m, k)


# ---------------------------------------------------------------------------
# numeric finite group action
# ---------------------------------------------------------------------------


def _boundary_map_and_jacobian(a_inv_matrix: np.ndarray, x: np.ndarray):
    """Projective extension of the boundary action and its Jacobian.

    G(x) = spatial(A^{-1} (1,x)) / time(A^{-1} (1,x)); on the sphere this
    is the boundary value of the ball action.  ``x`` holds Q points
    (Q, n); returns G (Q, n), the Jacobians (Q, n, n) and time(A^{-1} (1,x)) (Q,).
    """
    w = np.concatenate([np.ones((len(x), 1)), x], axis=1) @ a_inv_matrix.T
    w0 = w[:, :1]
    y = w[:, 1:] / w0
    dw = a_inv_matrix[:, 1:]  # derivative of (1, x) in x is (0, Id)
    jac = (dw[None, 1:, :] - y[:, :, None] * dw[None, None, 0, :]) / w0[:, :, None]
    return y, jac, w0[:, 0]


def _require_real(m: SphereTensor):
    if not m.is_real():
        raise ValueError("mass aspect has a nonzero imaginary part")


def group_action_numeric(
    a: LorentzElement, m: SphereTensor, k: int, nodes: np.ndarray
) -> np.ndarray:
    """Sampled values of u[A]^{k-2} (Abar_* m) at sphere nodes.

    Returns an array of shape (len(nodes), n, n) holding the transverse
    ambient representative (tangentially projected) at each node.  The
    aspect must be real.
    """
    n = m.n
    ainv = np.array([[float(v) for v in row] for row in a.inverse().matrix])
    y, jac, w0 = _boundary_map_and_jacobian(ainv, nodes)
    pushed = np.einsum("qai,qab,qbj->qij", jac, sample_tensor(m, y), jac)
    proj = np.eye(n) - nodes[:, :, None] * nodes[:, None, :]
    return w0[:, None, None] ** (2 - k) * (proj @ pushed @ proj)  # u[A] = 1 / w0


def sample_tensor(m: SphereTensor, nodes: np.ndarray) -> np.ndarray:
    """Values of a real aspect at points (Q, n), shape (Q, n, n); one pass per term."""
    _require_real(m)
    out = np.zeros((len(nodes), m.n, m.n))
    for (i, j), p in m.comp.items():
        for e, c in p.terms.items():
            out[:, i, j] += complex(c).real * np.prod(nodes ** np.array(e), axis=1)
        out[:, j, i] = out[:, i, j]
    return out


# ---------------------------------------------------------------------------
# random transverse test data
# ---------------------------------------------------------------------------


def random_mass_aspect(n: int, k: int, rng, degree: int = 2, gaussian: bool = False) -> SphereTensor:
    """Random rational symmetric tensor, transversalized to order k."""
    from .poly import monomials_of_degree

    comp = {}
    for i in range(n):
        for j in range(i, n):
            p = _zero(n)
            for d in range(degree + 1):
                for e in monomials_of_degree(n, d):
                    if rng.random() < 0.3:
                        c = F(rng.randint(-4, 4), rng.randint(1, 3))
                        if gaussian:
                            c = GaussianRational(c, F(rng.randint(-2, 2)))
                        if c:
                            p = p + ExactPoly.monomial(n, e, c)
            comp[(i, j)] = p
    return transversalize(SphereTensor(n, k, comp), k)

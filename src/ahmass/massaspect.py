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

:class:`SphereTensor` has the Sym^2 layout of the tensor base
(:func:`ahmass.poly.sym2_layout`), so -(Ax).d m - (A^T m + m A), for the
spatial block A, is the one slot action of that base: its term-map core
(:func:`ahmass.poly._slot_terms`) runs on the stored terms of m, and the
translation and conformal parts of V.dm are exponent shifts by the same
term map helpers of :mod:`ahmass.poly`.  So the action is one term-level
pass over the components of m, projected once by Pi = Id - x (x) x
(:func:`_project_terms`, the one projection, also behind
:func:`sphere_covariant_derivative` and :func:`transversalize`), and each
component is reduced once.  A rational aspect moved by a real element
runs this pass on the integer numerators of its coefficients over their
common denominator, which each output term is divided by once.  Each
tensor clears its denominators and decides its transversality once, on
first use, and keeps both, so acting on one aspect with every generator
tests it once.  The radial contraction and the round trace are the same
shifts.  V needs no tangency test there: it is tangent because
:class:`~ahmass.lorentz.AlgebraElement` validates the isometry condition
of M.

The finite group action is also sampled numerically, for the one float
check of :mod:`ahmass.invariants`: :func:`group_action_numeric` and
:func:`sample_tensor` import numpy when they run, so importing this
module does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Tuple

from .gaussian import GaussianRational
from .lorentz import (
    AlgebraElement,
    LorentzElement,
    boost_generator,
    rotation_generator,
)
from .poly import (
    ExactPoly,
    PolyTensor,
    Terms,
    _Moments,
    _add,
    _add_scaled,
    _add_shifted,
    _cleared,
    _over,
    _poly,
    _slot_terms,
    _small,
    quadric_normal_form,
    sorted_pair,
    sym2_layout,
    vanishes_on_sphere,
)

if TYPE_CHECKING:  # numpy is imported only by the numeric functions that use it
    import numpy as np

# ---------------------------------------------------------------------------
# term maps on the sphere: shifts, radial contraction, projection
# ---------------------------------------------------------------------------

_EMPTY: Terms = {}


def _shifted(terms: Terms, b: int) -> Terms:
    """x^b terms as a new term map."""
    out: Terms = {}
    _add_shifted(out, terms, b)
    return out


def _radial(rows) -> Terms:
    """sum_b x^b rows[b], one term map per b."""
    out: Terms = {}
    for b, terms in enumerate(rows):
        _add_shifted(out, terms, b)
    return out


def _radial_row(n: int, t: Dict[Tuple[int, int], Terms], i: int) -> Terms:
    """sum_b x^b t_ib for a symmetric array of term maps stored on keys i <= j."""
    return _radial([t.get(sorted_pair((i, b)), _EMPTY) for b in range(n)])


def _reduced(n: int, terms: Terms) -> Terms:
    return quadric_normal_form(_poly(n, terms)).terms


def _project_terms(n: int, t: Dict[Tuple[int, int], Terms]) -> Tuple[Dict[Tuple[int, int], Terms], Terms]:
    """Sandwich a symmetric array of term maps (keys i <= j) with Pi = Id - x (x) x.

    With the radial vector r_i = t_ib x^b and s = r_a x^a the entries are
    t_ij - x_i r_j - x_j r_i + x_i x_j s, returned unreduced for every
    i <= j together with s.  r and s are taken to sphere normal form
    before they are shifted out; the normal form is a ring map modulo
    |x|^2 - 1, so the entries change only within their on-sphere classes.
    """
    rad = [_reduced(n, _radial_row(n, t, i)) for i in range(n)]
    scalar = _reduced(n, _radial(rad))
    xs = [_shifted(scalar, i) for i in range(n)]
    out = {}
    for i, j in sym2_layout(n):
        acc = out[(i, j)] = dict(t.get((i, j), _EMPTY))
        _add_shifted(acc, rad[j], i, -1)
        _add_shifted(acc, rad[i], j, -1)
        _add_shifted(acc, xs[i], j)
    return out, scalar


@dataclass(eq=False)
class SphereTensor(PolyTensor):
    """Symmetric 2-tensor with polynomial ambient components.

    ``comp[(i, j)]`` with i <= j holds the polynomial component, reduced
    to its sphere normal form; ``k`` is the decay order carried by the
    aspect (0 admitted only for raw data).  An instance is not mutated
    after construction, so what is derived from its components is
    computed on first use and kept: the integer numerators
    (:attr:`_numerators`), the transversality verdict
    (:meth:`is_transverse`), the memoized moments of each component
    (:attr:`_moments`) and, per mass family, the value of the mass at
    each unit coordinate met so far (:attr:`_mass_values`).  The kept
    values are not fields, so ``==``, ``replace``, ``map``, ``scale`` and
    ``+`` neither compare nor copy them.
    """

    n: int
    k: int
    comp: Dict[Tuple[int, int], ExactPoly]

    nvars = property(lambda self: self.n)
    layout = property(lambda self: sym2_layout(self.n))
    rank = 2
    _key = staticmethod(sorted_pair)
    _reduce = staticmethod(quadric_normal_form)

    def _term_maps(self) -> Dict[Tuple[int, int], Terms]:
        return {ij: p.terms for ij, p in self.comp.items()}

    @cached_property
    def _numerators(self) -> Tuple[Dict[Tuple[int, int], Terms], int | None]:
        """The term maps of the ``int`` numerators and their common denominator
        (:func:`ahmass.poly._cleared`) for a rational tensor, else the term
        maps themselves and None."""
        terms = self._term_maps()
        cleared = _cleared(terms)
        return (terms, None) if cleared is None else cleared

    @cached_property
    def _moments(self) -> Dict[Tuple[int, int], _Moments]:
        """Per stored component, the memoized map a -> int m_ij x^a dmu / Vol
        (the kernel of :func:`ahmass.poly.sphere_moments`), run on the
        integer numerators over their common denominator when the tensor
        is rational (:attr:`_numerators`)."""
        terms, den = self._numerators
        return {ij: _Moments(self.n, t, den or 1) for ij, t in terms.items()}

    @cached_property
    def _mass_values(self) -> Dict[str, Dict[tuple, object]]:
        """Per mass family, unit coordinate -> value of the mass of this aspect
        there; filled by :class:`ahmass.invariants.MassFunctional`."""
        return {}

    @cached_property
    def _transverse(self) -> bool:
        # a zero test does not change when its input is multiplied by a nonzero integer
        terms = self._numerators[0]
        return all(vanishes_on_sphere(_poly(self.n, _radial_row(self.n, terms, i))) for i in range(self.n))

    def radial_contraction(self, i: int) -> ExactPoly:
        """sum_j m_ij x^j; ``ValueError`` unless i is in ``range(n)``."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} is outside range({self.n})")
        return _poly(self.n, _radial_row(self.n, self._term_maps(), i))

    def is_transverse(self) -> bool:
        """True when every radial contraction m_ij x^j vanishes on the sphere.

        Decided once per tensor, on its integer numerators
        (:attr:`_numerators`) when it is rational; later calls read the
        kept answer.
        """
        return self._transverse

    def trace_sigma(self) -> ExactPoly:
        """Round-metric trace: sum_i m_ii - sum_ij x^i x^j m_ij on the sphere.

        A rational tensor is traced on its integer numerators
        (:attr:`_numerators`) and each output term divided by their common
        denominator once: the trace is linear with integer multipliers.
        """
        (terms, den), out = self._numerators, {}
        for i in range(self.n):
            _add_scaled(out, terms.get((i, i), _EMPTY))
        for i in range(self.n):
            _add_shifted(out, _radial_row(self.n, terms, i), i, -1)
        return _poly(self.n, out if den is None else _over(out, den))

    def equal_on_sphere(self, other: "SphereTensor") -> bool:
        """Equality of the on-sphere classes, whatever the two decay orders."""
        return self.comp.keys() == other.comp.keys() and all(
            p.terms == other.comp[ij].terms for ij, p in self.comp.items()
        )

    def is_real(self) -> bool:
        """True when no coefficient is a ``GaussianRational``, which is never real."""
        return not any(isinstance(c, GaussianRational) for p in self.comp.values() for c in p.terms.values())


def round_metric_tensor(n: int, k: int) -> SphereTensor:
    """Transverse representative of the round metric: delta - x (x) x."""
    comp = {}
    for i, j in sym2_layout(n):
        p = -ExactPoly.variable(n, i) * ExactPoly.variable(n, j)
        comp[(i, j)] = p + 1 if i == j else p
    return SphereTensor(n, k, comp)


def transversalize(m: SphereTensor, k: int | None = None) -> SphereTensor:
    """Leading-order adjustment making the aspect transverse.

    m~_ij = m_ij - m_aj x^a x_i - m_ia x^a x_j
            + (m_ab x^a x^b / k) ((k-1) x_i x_j + delta_ij),

    that is Pi m Pi + (s / k) (delta - x (x) x) with s = m_ab x^a x^b.
    Linear in m, fixes transverse inputs as on-sphere classes.
    """
    if k is None:
        k = m.k
    if k == 0:
        raise ValueError("decay order k must be positive")
    n = m.n
    comp, scalar = _project_terms(n, m._term_maps())
    scalar = {e: c / k for e, c in scalar.items()}
    xs = [_shifted(scalar, i) for i in range(n)]
    for (i, j), acc in comp.items():
        _add_shifted(acc, xs[i], j, -1)
        if i == j:
            _add_scaled(acc, scalar)
    return SphereTensor(n, k, {ij: _poly(n, acc) for ij, acc in comp.items()})


# ---------------------------------------------------------------------------
# tangent fields and extrinsic covariant calculus
# ---------------------------------------------------------------------------


@dataclass
class TangentField:
    """Polynomial vector field on R^n tangent to the unit sphere."""

    n: int
    comp: List[ExactPoly]

    def __post_init__(self):
        if not vanishes_on_sphere(_poly(self.n, _radial([c.terms for c in self.comp]))):
            raise ValueError("field is not tangent to the sphere")

    def derive(self, f: ExactPoly) -> ExactPoly:
        out = ExactPoly.zero(self.n)
        for a in range(self.n):
            out = out + self.comp[a] * f.diff(a)
        return out


def _linear(row, n: int) -> ExactPoly:
    """sum_d row[d] x^d over the spatial entries row[1..n] of a matrix row."""
    return sum((ExactPoly.variable(n, d) * row[d + 1] for d in range(n) if row[d + 1]), ExactPoly.zero(n))


def _boundary_field(mat) -> Tuple[TangentField, ExactPoly]:
    """The field V and conformal factor phi that M induces on the sphere.

    V^c = M^c_0 + M^c_d x^d - x^c M^0_d x^d is the projective image of the
    linear field M X at X = (1, x), and phi = -M^0_d x^d.
    """
    n = len(mat) - 1
    phi = -_linear(mat[0], n)
    field = [_linear(mat[c + 1], n) + ExactPoly.variable(n, c) * phi + mat[c + 1][0] for c in range(n)]
    return TangentField(n, field), phi


def boost_field(n: int, i: int) -> TangentField:
    """frak a_i = d_i - x^i x^a d_a, the boundary field of a_i (1-based direction).

    On the sphere it equals the conformal Killing field
    (1+|x|^2)/2 d_i - x^i x^a d_a.
    """
    return _boundary_field(boost_generator(n, i).matrix)[0]


def _project_slots(n: int, t: Dict[Tuple[int, int], ExactPoly]) -> Dict[Tuple[int, int], ExactPoly]:
    """Sandwich a symmetric 2-index array with Pi = Id - x (x) x.

    Takes and returns the i <= j entries, zero entries dropped; the
    entries are those of :func:`_project_terms`, congruent to
    t_ij - x_i r_j - x_j r_i + x_i x_j s modulo |x|^2 - 1, which is all
    that :class:`SphereTensor` keeps of them.
    """
    out = _project_terms(n, {ij: p.terms for ij, p in t.items()})[0]
    return {ij: p for ij, acc in out.items() if (p := _poly(n, acc))}


def sphere_covariant_derivative(t, X: TangentField):
    """nabla^sigma_X of a scalar or a symmetric 2-tensor.

    Extrinsic evaluation: ambient directional derivative followed by
    tangential projection on every remaining slot; exact as an on-sphere
    polynomial identity (the answer only depends on the on-sphere class
    of a transverse input).
    """
    n = X.n
    if isinstance(t, ExactPoly):
        return X.derive(t)
    if isinstance(t, SphereTensor):
        # derivative and projection both preserve the symmetry
        der = {ij: X.derive(p) for ij, p in t.comp.items()}
        return SphereTensor(t.n, t.k, _project_slots(n, der))
    raise TypeError(f"cannot differentiate {type(t)!r}")


# ---------------------------------------------------------------------------
# algebra actions carrying the decay weight
# ---------------------------------------------------------------------------


def algebra_action_aspect(a, m: SphereTensor, k: int | None = None) -> SphereTensor:
    """a ._k m = -nabla^sigma_V m - Pi (A^T m + m A) Pi - k phi m  (m must be transverse).

    ``a`` is an algebra element or its matrix M, real or Gaussian; V and
    phi are its boundary field and conformal factor (:func:`_boundary_field`)
    and A = (M^c_d) its spatial block; ``k`` defaults to m.k.  A boost a_i
    acts by -nabla m + k x^i m, a rotation r_ij (phi = 0) by
    -nabla m - m(r_ij ., .) - m(., r_ij .).  A non-transverse m raises
    ``ValueError``; the test is made once per tensor
    (:meth:`SphereTensor.is_transverse`).

    One term-level pass over the stored terms of m.  With
    V^c = M^c_0 + M^c_d x^d + x^c phi and phi = -M^0_d x^d, the derivative
    V.d of a term v x^e is M^c_0 e_c v x^(e - 1_c)
    + M^c_d e_c v x^(e - 1_c + 1_d) + |e| v x^e phi (the x^c phi parts sum
    to the Euler operator).  The middle part and A^T m + m A together are
    the slot action of A on the Sym^2 layout, so the raw tensor
    -(V.dm + A^T m + m A) starts as the term-map core of that action
    (:func:`ahmass.poly._slot_terms`); the translation and conformal
    shifts are added per slot c <= d with the sign folded into the
    integer multipliers, the whole is projected once by
    :func:`_project_terms`, and k phi m is added by shifts.
    When m is rational and M real, the pass runs on the integer
    numerators N of m over their common denominator D
    (:attr:`SphereTensor._numerators`, cleared once per tensor), and each
    output component is reduced on the integers and divided by D once:
    the action is linear, so a.(N / D) = (a.N) / D exactly.  A Gaussian
    aspect or matrix takes the same pass on its own coefficients.
    V is tangent to the sphere because ``AlgebraElement`` checks that M is
    an infinitesimal isometry, so no tangency test is made here.
    """
    if not m.is_transverse():
        raise ValueError("mass aspect is not transverse")
    k = m.k if k is None else k
    mat = (a if isinstance(a, AlgebraElement) else AlgebraElement(a)).matrix
    n = m.n
    if len(mat) != n + 1:
        raise ValueError("algebra element and aspect dimension mismatch")
    if not all(type(v) is Fraction for row in mat for v in row):
        terms, den = m._term_maps(), None
    else:
        terms, den = m._numerators
    trans = [(c, -_small(mat[c + 1][0])) for c in range(n) if mat[c + 1][0]]
    conf = [(d, _small(mat[0][d + 1])) for d in range(n) if mat[0][d + 1]]
    raw = _slot_terms([row[1:] for row in mat[1:]], m, terms)
    for ij, t in terms.items():
        acc = raw[ij]
        for e, v in t.items():
            for c, f in trans:
                if e[c]:
                    key = list(e)
                    key[c] -= 1
                    _add(acc, tuple(key), v, f * e[c])
            deg = sum(e)
            if deg:
                for d, f in conf:
                    key = list(e)
                    key[d] += 1
                    _add(acc, tuple(key), v, f * deg)
    comp = _project_terms(n, raw)[0]
    if k:
        # -k phi m = k M^0_d x^d m
        for ij, t in terms.items():
            for d, f in conf:
                _add_shifted(comp[ij], t, d, f * k)
    if den is not None:
        # reduced on the integers, so the construction finds nothing left to reduce
        comp = {ij: _over(_reduced(n, acc), den) for ij, acc in comp.items()}
    return SphereTensor(n, m.k, {ij: _poly(n, acc) for ij, acc in comp.items()})


def boost_action(i: int, m: SphereTensor) -> SphereTensor:
    """a_i . m = -nabla^sigma_{frak a_i} m + k x^i m at k = m.k (m must be transverse)."""
    return algebra_action_aspect(boost_generator(m.n, i), m)


def rotation_action(i: int, j: int, m: SphereTensor) -> SphereTensor:
    """r_ij . m = -nabla^sigma_{frak r_ij} m - m(r_ij ., .) - m(., r_ij .)."""
    return algebra_action_aspect(rotation_generator(m.n, i, j), m)


# ---------------------------------------------------------------------------
# numeric finite group action
# ---------------------------------------------------------------------------


def _boundary_map_and_jacobian(a_inv_matrix: np.ndarray, x: np.ndarray):
    """Projective extension of the boundary action and its Jacobian.

    G(x) = spatial(A^{-1} (1,x)) / time(A^{-1} (1,x)); on the sphere this
    is the boundary value of the ball action.  ``x`` holds Q points
    (Q, n); returns G (Q, n), the Jacobians (Q, n, n) and time(A^{-1} (1,x)) (Q,).
    """
    import numpy as np

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
    import numpy as np

    n = m.n
    ainv = np.array([[float(v) for v in row] for row in a.inverse().matrix])
    y, jac, w0 = _boundary_map_and_jacobian(ainv, nodes)
    pushed = np.einsum("qai,qab,qbj->qij", jac, sample_tensor(m, y), jac)
    proj = np.eye(n) - nodes[:, :, None] * nodes[:, None, :]
    return w0[:, None, None] ** (2 - k) * (proj @ pushed @ proj)  # u[A] = 1 / w0


def sample_tensor(m: SphereTensor, nodes: np.ndarray) -> np.ndarray:
    """Values of a real aspect at points (Q, n), shape (Q, n, n).

    One table of the powers of every coordinate at the points, by
    cumulative products up to the largest exponent of m; the monomial
    matrix (T, Q) of a component with T terms is the product of its
    gathered power rows, and the component is its coefficient vector
    times that matrix.
    """
    import numpy as np

    _require_real(m)
    out = np.zeros((len(nodes), m.n, m.n))
    exps = {ij: np.array(list(p.terms)) for ij, p in m.comp.items()}
    top = max((int(e.max()) for e in exps.values()), default=0)
    powers = np.ones((top + 1, m.n, len(nodes)))  # powers[d, v] = x_v^d at the points
    for d in range(1, top + 1):
        powers[d] = powers[d - 1] * nodes.T
    for (i, j), p in m.comp.items():
        e = exps[(i, j)]
        mono = powers[e[:, 0], 0]
        for v in range(1, m.n):
            mono = mono * powers[e[:, v], v]
        out[:, i, j] = out[:, j, i] = np.array([float(c) for c in p.terms.values()]) @ mono
    return out

"""Exact Lorentz group elements, ball-model actions and weight machinery.

Conventions (fixed once, used everywhere downstream):

* ``eta = diag(-1, 1, ..., 1)`` with the timelike variable ``X^0`` first.
* Finite boosts are parametrized by exact rational points ``(c, s)`` on
  the unit hyperbola ``c^2 - s^2 = 1``; rotations by rational points on
  the circle.  All finite-action tests therefore stay in exact
  arithmetic.
* Group action on polynomials: ``A . P = P o A^{-1}``.  The algebra
  action is its derivative, ``a . P = -(a X)^mu d_mu P``.  Under this
  convention the rotation generator ``r_23`` sends ``X^2`` to ``+X^3``
  (and ``X^3`` to ``-X^2``).
* The boundary conformal factor of an isometry is
  ``u[A](x) = 1 / X^0(A^{-1}(1, x))``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .gaussian import I, _exact
from .linalg import Row, joint_kernel
from .poly import ExactPoly, _add_flow, _flow, _poly

Matrix = Tuple[Tuple[object, ...], ...]


# ---------------------------------------------------------------------------
# small dense matrix helpers (exact entries)
# ---------------------------------------------------------------------------


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a: Matrix, v: Sequence) -> Tuple:
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0)) for i in range(len(a)))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(len(a[0]))) for i in range(len(a))
    )


def mat_scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(c * a[i][j] for j in range(len(a[0]))) for i in range(len(a)))


def eta_matrix(dim: int) -> Matrix:
    return tuple(
        tuple(
            (Fraction(-1) if i == 0 else Fraction(1)) if i == j else Fraction(0)
            for j in range(dim)
        )
        for i in range(dim)
    )


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _real(v) -> Fraction:
    """``v`` as an exact real number through :func:`ahmass.gaussian._exact`.

    The group is real, so a Gaussian rational raises ``ValueError``, as a
    float or a ``bool`` does.
    """
    v = _exact(v)
    if not isinstance(v, Fraction):
        raise ValueError(f"{v} is not real")
    return v


def _square(matrix: Matrix) -> Matrix:
    """The matrix itself when it is nonempty, square and not ragged; else ``ValueError``."""
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix is not a nonempty square matrix")
    return matrix


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


class LorentzElement:
    """Exact orthochronous Lorentz matrix with its ball-model action.

    Every entry passes through :func:`_real`: an ``int`` becomes a
    ``Fraction``, and a float, a ``bool`` or a Gaussian rational raises
    ``ValueError``; so do the inputs of the constructors and actions below.
    The matrix is not mutated after construction, so the inverse is built
    and checked once, on first use, and kept.
    """

    def __init__(self, matrix: Sequence[Sequence]):
        self.matrix: Matrix = _square(tuple(tuple(_real(v) for v in row) for row in matrix))
        self.dim = len(self.matrix)
        eta = eta_matrix(self.dim)
        if mat_mul(mat_mul(mat_transpose(self.matrix), eta), self.matrix) != eta:
            raise ValueError("matrix does not preserve eta")
        if self.matrix[0][0] <= 0:
            raise ValueError("matrix is not orthochronous")
        self._inverse = None

    @property
    def n(self) -> int:
        return self.dim - 1

    def inverse(self) -> "LorentzElement":
        """A^{-1} = eta A^T eta, built once per element; its own inverse is this element.

        Entry (i, j) is A_ji, negated where exactly one of i, j is the time index.
        """
        if self._inverse is None:
            a, dim = self.matrix, self.dim
            self._inverse = LorentzElement(
                [[a[j][i] if (i == 0) == (j == 0) else -a[j][i] for j in range(dim)] for i in range(dim)]
            )
            self._inverse._inverse = self
        return self._inverse

    def __mul__(self, other: "LorentzElement") -> "LorentzElement":
        return LorentzElement(mat_mul(self.matrix, other.matrix))

    def __eq__(self, other):
        return isinstance(other, LorentzElement) and self.matrix == other.matrix

    def apply(self, v: Sequence) -> Tuple:
        return mat_vec(self.matrix, v)

    def __repr__(self):
        return f"LorentzElement(n={self.n})"


def identity_element(n: int) -> LorentzElement:
    return LorentzElement(mat_identity(n + 1))


def rational_boost(n: int, direction: int, c: Fraction, s: Fraction) -> LorentzElement:
    """Boost in the X^direction axis with cosh -> c, sinh -> s."""
    c, s = _real(c), _real(s)
    if c * c - s * s != 1 or c <= 0:
        raise ValueError("(c, s) must satisfy c^2 - s^2 = 1, c > 0")
    if not 1 <= direction <= n:
        raise ValueError("boost direction out of range")
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n + 1)] for i in range(n + 1)]
    m[0][0] = c
    m[0][direction] = s
    m[direction][0] = s
    m[direction][direction] = c
    return LorentzElement(m)


def rational_rotation(n: int, i: int, j: int, c: Fraction, s: Fraction) -> LorentzElement:
    """Rotation in the X^i X^j plane with cos -> c, sin -> s."""
    c, s = _real(c), _real(s)
    if c * c + s * s != 1:
        raise ValueError("(c, s) must satisfy c^2 + s^2 = 1")
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError("rotation plane out of range")
    m = [[Fraction(1) if a == b else Fraction(0) for b in range(n + 1)] for a in range(n + 1)]
    m[i][i] = c
    m[i][j] = -s
    m[j][i] = s
    m[j][j] = c
    return LorentzElement(m)


def boost_from_parameter(n: int, direction: int, t: Fraction) -> LorentzElement:
    """Rational hyperbola point (c, s) = ((1+t^2)/(1-t^2), 2t/(1-t^2)), for -1 < t < 1."""
    t = _real(t)
    if not -1 < t < 1:
        raise ValueError(f"boost parameter t = {t} must satisfy -1 < t < 1")
    c = (1 + t * t) / (1 - t * t)
    s = 2 * t / (1 - t * t)
    return rational_boost(n, direction, c, s)


# ---------------------------------------------------------------------------
# ball model
# ---------------------------------------------------------------------------


def stereo_to_ball(y: Sequence) -> Tuple:
    """Projection from the hyperboloid to the unit ball, (X^0, X) -> X/(1+X^0)."""
    d = 1 + y[0]
    return tuple(v / d for v in y[1:])


def ball_to_hyperboloid(x: Sequence) -> Tuple:
    norm2 = sum((v * v for v in x), Fraction(0))
    d = 1 - norm2
    if d <= 0:
        raise ValueError("point not in the open unit ball")
    return ((1 + norm2) / d,) + tuple(2 * v / d for v in x)


def ball_action(a: LorentzElement, x: Sequence) -> Tuple:
    """Exact action of the isometry on a rational point of the ball."""
    y = ball_to_hyperboloid([_real(v) for v in x])
    out = stereo_to_ball(a.apply(y))
    if sum(v * v for v in out) >= 1:
        raise AssertionError("ball action left the unit ball; corrupt matrix")
    return out


def sphere_action(a: LorentzElement, xhat: Sequence) -> Tuple:
    """Boundary extension of the ball action at a point of S^{n-1}."""
    xhat = [_real(v) for v in xhat]
    if sum(v * v for v in xhat) != 1:
        raise ValueError("point not on the unit sphere")
    y = (Fraction(1),) + tuple(xhat)  # null ray through (1, x)
    w = a.apply(y)
    return tuple(v / w[0] for v in w[1:])


def u_of_A(a: LorentzElement, xhat: Sequence) -> Fraction:
    """Boundary conformal factor u[A](x) = 1 / X^0(A^{-1}(1, x))."""
    xhat = [_real(v) for v in xhat]
    if sum(v * v for v in xhat) != 1:
        raise ValueError("point not on the unit sphere")
    w = a.inverse().apply((Fraction(1),) + tuple(xhat))
    return 1 / w[0]


# ---------------------------------------------------------------------------
# algebra elements and actions on polynomials
# ---------------------------------------------------------------------------


class AlgebraElement:
    """Infinitesimal isometry: (eta a)^T = -(eta a)."""

    def __init__(self, matrix: Sequence[Sequence]):
        self.matrix: Matrix = _square(tuple(tuple(_exact(v) for v in row) for row in matrix))
        self.dim = len(self.matrix)
        m = self.matrix
        # eta_b M[b][a] = -eta_a M[a][b]: antisymmetric within time and space, symmetric across
        if any(m[b][a] != (m[a][b] if (a == 0) != (b == 0) else -m[a][b]) for a in range(self.dim) for b in range(a + 1)):
            raise ValueError("matrix is not an infinitesimal isometry")

    @property
    def n(self) -> int:
        return self.dim - 1

    def __repr__(self):
        return f"AlgebraElement(n={self.n})"


@lru_cache(maxsize=None)
def boost_generator(n: int, i: int) -> AlgebraElement:
    """a_i = dX^0 d_i + dX^i d_0 (1 <= i <= n), built once per (n, i)."""
    if not 1 <= i <= n:
        raise ValueError(f"boost direction {i} is not in 1..{n}")
    m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    m[i][0] = Fraction(1)
    m[0][i] = Fraction(1)
    return AlgebraElement(m)


@lru_cache(maxsize=None)
def rotation_generator(n: int, i: int, j: int) -> AlgebraElement:
    """r_ij = dX^i d_j - dX^j d_i (1 <= i, j <= n, i != j), built once per (n, i, j)."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"rotation plane ({i}, {j}) needs two distinct indices in 1..{n}")
    m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    m[j][i] = Fraction(1)
    m[i][j] = Fraction(-1)
    return AlgebraElement(m)


def all_generators(n: int) -> List[Tuple[str, AlgebraElement]]:
    """(label, element) of the boosts a_i and rotations r_ij, a fresh list over shared elements."""
    return list(named_generators(n).items())


@lru_cache(maxsize=None)
def named_generators(n: int) -> Mapping[str, AlgebraElement]:
    """The generators of :func:`all_generators` as a read-only map from label to element, built once per n."""
    gens = {f"a_{i}": boost_generator(n, i) for i in range(1, n + 1)}
    gens.update(
        (f"r_{i}{j}", rotation_generator(n, i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return MappingProxyType(gens)


def linear_forms(m) -> List[ExactPoly]:
    """The linear forms (MX)^mu = M^mu_nu X^nu, one per row of a square matrix."""
    nv = len(m)
    units = [tuple(int(i == nu) for i in range(nv)) for nu in range(nv)]
    return [ExactPoly(nv, {units[nu]: c for nu, c in enumerate(row) if c}) for row in m]


def act_on_poly(a: LorentzElement, p: ExactPoly) -> ExactPoly:
    """Group action P -> P o A^{-1} by exact substitution."""
    return p.substitute(linear_forms(a.inverse().matrix))


def algebra_act_on_poly(a, p: ExactPoly) -> ExactPoly:
    """Algebra action a . P = -(a X)^mu d_mu P (matrices may be complex).

    One pass of exponent shifts over the terms of P
    (:func:`ahmass.poly._add_flow`), the slot-free case of the tensor
    slot action :func:`ahmass.poly.slot_action`.
    """
    m = a.matrix if isinstance(a, AlgebraElement) else [[_exact(c) for c in row] for row in a]
    out = {}
    _add_flow(out, p.terms, _flow(m, p.nvars))
    return _poly(p.nvars, out)


# ---------------------------------------------------------------------------
# Cartan subalgebra, roots and highest-weight machinery
# ---------------------------------------------------------------------------


def cartan_rank(n: int) -> int:
    return (n + 1) // 2


def cartan_keys(n: int) -> List[int]:
    """Index order of the eigenbasis: +1, -1, +2, -2, ..., (0 for odd)."""
    l = cartan_rank(n)
    keys: List[int] = []
    for k in range(1, l + 1):
        keys += [k, -k]
    if (n + 1) % 2 == 1:
        keys.append(0)
    return keys


def cartan_basis(n: int) -> Dict[int, Tuple]:
    """The eta-null eigenbasis e_{+-k} (and e_0 for odd ambient dimension).

    eta(e_i, e_j) = delta_{i,-j};  e_{+1} = -d_0 + d_1, e_{-1} = (d_0+d_1)/2,
    e_{+k} = d_{2k-2} + i d_{2k-1}, e_{-k} = (d_{2k-2} - i d_{2k-1})/2.
    """
    dim = n + 1
    l = cartan_rank(n)

    def unit(idx, coef):
        v = [Fraction(0)] * dim
        v[idx] = coef
        return v

    basis: Dict[int, Tuple] = {}
    e = unit(0, Fraction(-1))
    e[1] = Fraction(1)
    basis[1] = tuple(e)
    e = unit(0, Fraction(1, 2))
    e[1] = Fraction(1, 2)
    basis[-1] = tuple(e)
    for k in range(2, l + 1):
        a, b = 2 * k - 2, 2 * k - 1
        e = unit(a, Fraction(1))
        e[b] = I
        basis[k] = tuple(e)
        e = unit(a, Fraction(1, 2))
        e[b] = -I / 2
        basis[-k] = tuple(e)
    if dim % 2 == 1:
        basis[0] = tuple(unit(dim - 1, Fraction(1)))
    return basis


def _eigen_generator(e: Dict[int, Tuple], p: int, q: int) -> Matrix:
    """E_pq - E_{-q,-p} in standard coordinates, for keys p, q of the eigenbasis ``e``.

    E_pq is the matrix unit sending e_q to e_p.  Since eta(e_i, e_j) =
    delta_{i,-j}, it is the outer product e_p (eta e_{-q})^T, and
    subtracting E_{-q,-p} makes the difference an infinitesimal isometry.
    """
    u, v = e[p], _dual_covector(e, q)
    x, y = e[-q], _dual_covector(e, -p)
    return tuple(tuple(u[mu] * v[nu] - x[mu] * y[nu] for nu in range(len(u))) for mu in range(len(u)))


def _dual_covector(e: Dict[int, Tuple], k: int) -> Tuple:
    """eta e_{-k}, the covector that reads the e_k coordinate: (eta e_{-k}) . e_j = delta_{kj}."""
    return tuple(-c if mu == 0 else c for mu, c in enumerate(e[-k]))


def cartan_generators(n: int) -> List[Matrix]:
    """H_k = E_kk - E_{-k,-k} (:func:`_eigen_generator`), with eps_j(H_k) = delta_{jk}."""
    e = cartan_basis(n)
    return [_eigen_generator(e, k, k) for k in range(1, cartan_rank(n) + 1)]


@lru_cache(maxsize=None)
def null_coordinates(n: int) -> Mapping[int, Tuple[ExactPoly, Tuple[int, ...]]]:
    """The linear forms Z^k dual to :func:`cartan_basis`, with their eps-weights.

    Z^k(e_j) = delta_{kj}, keyed in :func:`cartan_keys` order: the
    coefficients of Z^k are the covector eta e_{-k}.  Under
    a . P = -(a X)^mu d_mu P, Z^k and dZ^k have weight -eps_k (with
    eps_{-k} = -eps_k and eps_0 = 0): Z^{-1} = X^0 + X^1 has weight +eps_1
    and Z^{-2} = X^2 + i X^3 has +eps_2.  The map is read-only and built
    once per n.
    """
    e = cartan_basis(n)
    out = {}
    for k in cartan_keys(n):
        terms = (c * ExactPoly.variable(n + 1, mu) for mu, c in enumerate(_dual_covector(e, k)))
        sign = -1 if k > 0 else 1
        weight = tuple(sign if j == abs(k) else 0 for j in range(1, cartan_rank(n) + 1))
        out[k] = (sum(terms, ExactPoly.zero(n + 1)), weight)
    return MappingProxyType(out)


def positive_roots(n: int) -> List[Tuple[str, int, int]]:
    """(label, p, q) of every positive root of so(n,1) complexified.

    The root vector is E_pq - E_{-q,-p} (:func:`_eigen_generator`), with
    eigenbasis keys, for 1 <= a < b <= rank,

        X_{eps_a - eps_b} : (p, q) = (a, b)
        X_{eps_a + eps_b} : (p, q) = (a, -b)
        X_{eps_a}         : (p, q) = (a, 0)     (odd ambient dimension)
    """
    l = cartan_rank(n)
    roots: List[Tuple[str, int, int]] = []
    for a in range(1, l + 1):
        for b in range(a + 1, l + 1):
            roots += [(f"e{a}-e{b}", a, b), (f"e{a}+e{b}", a, -b)]
        if (n + 1) % 2:
            roots.append((f"e{a}", a, 0))
    return roots


def raising_operators(n: int) -> List[Tuple[str, Matrix]]:
    """The root vectors of :func:`positive_roots` in the X coordinates, over Q(i).

    The roots involving eps_1 span the translations at the south pole,
    s_A = a_A + r_{1A}:

        X_{eps1 - epsk} = -(s_{2k-2} - i s_{2k-1}) / 2
        X_{eps1 + epsk} = -(s_{2k-2} + i s_{2k-1})
        X_{eps1}        = -s_n

    The +-/-- assignment is forced by this module's eps conventions and
    verified by the ad-eigenvalue tests; any rescaling of a root vector
    leaves every kernel computed from these operators unchanged.
    :func:`null_raising_operators` gives the same vectors in the null frame.
    """
    e = cartan_basis(n)
    return [(label, _eigen_generator(e, p, q)) for label, p, q in positive_roots(n)]


def null_raising_operators(n: int) -> List[Tuple[str, Matrix]]:
    """The root vectors of :func:`positive_roots` in the null frame Z of :func:`null_coordinates`.

    There E_pq is the matrix unit at the :func:`cartan_keys` positions of
    (p, q), so E_pq - E_{-q,-p} is an integer matrix with one +1 and one
    -1: the same operator as the :func:`raising_operators` entry M, written
    as E^{-1} M E for E the columns of :func:`cartan_basis`.
    """
    pos = {k: i for i, k in enumerate(cartan_keys(n))}
    ops = []
    for label, p, q in positive_roots(n):
        m = [[0] * (n + 1) for _ in range(n + 1)]
        m[pos[p]][pos[q]] = 1
        m[pos[-q]][pos[-p]] = -1
        ops.append((label, tuple(map(tuple, m))))
    return ops


def root_of_operator(name: str, rank: int) -> List[Fraction]:
    """Root in eps-coordinates from the operator's label."""
    out = [Fraction(0)] * rank
    body = name
    if "-" in body[1:]:
        a, b = body.split("-")
        out[int(a[1:]) - 1] = Fraction(1)
        out[int(b[1:]) - 1] = Fraction(-1)
    elif "+" in body:
        a, b = body.split("+")
        out[int(a[1:]) - 1] = Fraction(1)
        out[int(b[1:]) - 1] = Fraction(1)
    else:
        out[int(body[1:]) - 1] = Fraction(1)
    return out


def highest_weight_vectors(basis: Sequence, act, n: int, weight: Sequence[Fraction]) -> List[Row]:
    """Joint kernel of H_k - lambda_k and all raising operators on a span.

    ``basis`` lists independent polynomial objects spanning an invariant
    subspace, and ``act(mat, v)`` applies an algebra matrix to one of
    them: :func:`algebra_act_on_poly`, or ``algebra_action_sym2`` and
    ``algebra_action_tensor4`` of :mod:`ahmass.weyl`.  Returns the rows of
    one :func:`ahmass.linalg.joint_kernel`, coefficients against
    ``basis``.  Raises ``ValueError`` if ``weight`` does not have one
    entry per Cartan generator or the requested weight space is empty.
    """
    if len(weight) != cartan_rank(n):
        raise ValueError(f"weight needs {cartan_rank(n)} entries for n={n}, got {len(weight)}")
    # both kernels are posed on basis positions, so each Cartan image is computed once
    shifted = [[act(h, v) - v * lam for h, lam in zip(cartan_generators(n), weight)] for v in basis]
    maps = [lambda j, k=k: shifted[j][k] for k in range(len(weight))]
    positions = range(len(basis))
    if not joint_kernel(positions, maps):
        raise ValueError("weight space empty")
    maps += [lambda j, r=r: act(r, basis[j]) for _, r in raising_operators(n)]
    return joint_kernel(positions, maps)

"""Linearized gravity on Minkowski space and polynomial Weyl tensors.

The chain implemented here:

* ``linearized_einstein`` / ``linearized_riemann`` -- the standard
  second-order operators on symmetric 2-tensors ``h`` with polynomial
  components;
* ``de_donder_fix`` -- gauge transformation to the trace-free,
  divergence-free (hence wave) gauge by one exact linear solve;
* ``build_Wp`` -- the space W_p of degree-p polynomial-coefficient
  4-tensors with Weyl symmetries, eta-trace-free and satisfying both
  Bianchi identities, as the exact kernel of the constraint residuals
  (:meth:`PolyTensor4.residuals`), solved once per (n, p) and process;
* ``weyl_to_potential`` -- a potential h with R(h) = -W/2 of a Weyl
  tensor, by one exact linear solve;
* the invariant quadratic form on W_p, diagonal on unit coordinates
  (one slot and one monomial) with a weight per unit, and its signature
  from a sparse integer Gram matrix that pairs only basis tensors sharing
  a unit;
* algebraic construction of highest-weight vectors in the relevant
  tensor spaces, with comparison reports against cataloged closed forms.

Every tensor this module returns is stored over the ambient Minkowski
variables X^0..X^n; only the highest-weight solve works in another frame
(below).

Every linear system here takes the one route of :mod:`ahmass.linalg`:
it is posed on unit tensors, one monomial in one stored slot, by the
maps that act on them.  W_p is one :func:`ahmass.linalg.joint_kernel`
of the constraint residuals on the unit 4-tensors of degree p, monomial
major and slot minor (:func:`build_Wp`).  The constraints are stated
once, in one table per size from each stored key to the constraints
that read it (:func:`_weyl_constraints`): the eta-trace, the first
Bianchi identity and the second, differential one.  The highest-weight
system on symmetric 2-tensors is one joint kernel of the maps a solution
must send to zero (:func:`hw_vectors_sym2`).  The potential of a Weyl
tensor is one :func:`ahmass.linalg.joint_solve` of R on the unit
symmetric 2-tensors (:func:`weyl_to_potential`), and the de Donder gauge
one of Box and the divergence on the unit covector fields X^e dX^nu,
component major, stored as 1-forms (:func:`de_donder_fix`).  Each
answer is a linear combination of the units, summed term by term
(:func:`_combinations`).

Each tensor class states its layout once, as a cached table from
stored keys to index tuples (:func:`ahmass.poly.sym2_layout`,
:func:`tensor4_layout`, :func:`form_layout`).  so(n,1) acts on all of
them by the one slot action of the base,
:func:`ahmass.poly.slot_action`; :func:`algebra_action_sym2` and
:func:`algebra_action_tensor4` are its calls on the two layouts.
:func:`linearized_riemann`, :meth:`PolySym2.radial_contraction` and
:meth:`PolyTensor4.residuals` scatter the same way over the stored
components, as second derivatives, products by one coordinate and
signed first derivatives.

The slot action is written without reference to a coordinate system,
and :func:`hw_vectors_sym2` uses that: it poses its system in the null
frame Z of :func:`ahmass.lorentz.null_coordinates`.  Its unknowns are the
weight vectors Z^e sym(dZ^a (x) dZ^b) of the requested weight
(:func:`_weight_units`), so the Cartan conditions hold by construction
and only the others enter the kernel.  In Z each unknown is one term,
the eta-trace and Box (:func:`_null_eta_trace`, :func:`_null_box`) have
integer coefficients and each root vector is a +-1 integer matrix
(:func:`ahmass.lorentz.null_raising_operators`), so the whole solve runs
over Q; only the units in the answer are expanded into X coordinates,
where they may carry Gaussian-rational coefficients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .gaussian import _exact
from .harmonic import Space, _check_closed_form_args, _check_ints, form_signature, monomial_weight, unit_pairing
from .linalg import Row, joint_kernel, joint_solve
from .lorentz import all_generators, cartan_basis, cartan_keys, cartan_rank, null_coordinates, null_raising_operators
from .poly import (
    ExactPoly,
    PolyTensor,
    _add_derivative,
    _add_scaled,
    _add_second_derivative,
    _add_shifted,
    _poly,
    monomials_of_degree,
    slot_action,
    sorted_pair,
    sym2_layout,
    wave_operator,
)

F = Fraction


def _eta_sign(mu: int) -> int:
    return -1 if mu == 0 else 1


# ---------------------------------------------------------------------------
# symmetric 2-tensors
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PolySym2(PolyTensor):
    """Symmetric 2-tensor h_{mu nu} with polynomial components, stored at mu <= nu."""

    nv: int  # ambient dimension n+1
    comp: Dict[Tuple[int, int], ExactPoly]

    nvars = property(lambda self: self.nv)
    layout = property(lambda self: sym2_layout(self.nv))
    rank = 2
    _key = staticmethod(sorted_pair)

    def eta_trace(self) -> ExactPoly:
        out = ExactPoly.zero(self.nv)
        for mu in range(self.nv):
            out = out + _eta_sign(mu) * self.get(mu, mu)
        return out

    def divergence(self) -> List[ExactPoly]:
        """(div h)_nu = d^mu h_{mu nu}."""
        out = []
        for nu in range(self.nv):
            s = ExactPoly.zero(self.nv)
            for mu in range(self.nv):
                s = s + _eta_sign(mu) * self.get(mu, nu).diff(mu)
            out.append(s)
        return out

    def box(self) -> "PolySym2":
        return self.map(wave_operator)

    def radial_contraction(self) -> List[ExactPoly]:
        """(h X)_nu = h_{mu nu} X^mu: each stored h_{mu nu} shifted by X^mu into
        entry nu and, off the diagonal, by X^nu into entry mu."""
        out = [{} for _ in range(self.nv)]
        for (mu, nu), p in self.comp.items():
            _add_shifted(out[nu], p.terms, mu)
            if mu != nu:
                _add_shifted(out[mu], p.terms, nu)
        return [_poly(self.nv, terms) for terms in out]


def eta_tensor(nv: int) -> PolySym2:
    return PolySym2(
        nv,
        {(mu, mu): ExactPoly.constant(nv, _eta_sign(mu)) for mu in range(nv)},
    )


def sym_gauge(xi: Sequence[ExactPoly]) -> PolySym2:
    """Pure gauge perturbation d_mu xi_nu + d_nu xi_mu (xi covariant)."""
    nv = xi[0].nvars
    return PolySym2(nv, {(mu, nu): xi[nu].diff(mu) + xi[mu].diff(nu) for mu, nu in sym2_layout(nv)})


def lie_eta(xi_vec: Sequence[ExactPoly]) -> PolySym2:
    """Lie derivative of eta along a vector field given contravariantly."""
    nv = xi_vec[0].nvars
    xi_cov = [_eta_sign(mu) * xi_vec[mu] for mu in range(nv)]
    return sym_gauge(xi_cov)


def linearized_einstein(h: PolySym2) -> PolySym2:
    """-Box h + sym d(div h) - Hess tr - eta (divdiv - Box tr)."""
    nv = h.nv
    tr = h.eta_trace()
    div = h.divergence()
    divdiv = ExactPoly.zero(nv)
    for nu in range(nv):
        divdiv = divdiv + _eta_sign(nu) * div[nu].diff(nu)
    box_tr = wave_operator(tr)
    comp = {}
    for mu, nu in sym2_layout(nv):
        p = -wave_operator(h.get(mu, nu))
        p = p + div[nu].diff(mu) + div[mu].diff(nu)
        p = p - tr.diff(mu).diff(nu)
        if mu == nu:
            p = p - _eta_sign(mu) * divdiv + _eta_sign(mu) * box_tr
        comp[(mu, nu)] = p
    return PolySym2(nv, comp)


# ---------------------------------------------------------------------------
# 4-tensors with Weyl symmetries
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def index_pairs(nv: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((mu, nu) for mu in range(nv) for nu in range(mu + 1, nv))


@lru_cache(maxsize=None)
def tensor4_layout(nv: int) -> Mapping[Tuple[int, int], Tuple[int, ...]]:
    """Layout of a Weyl-symmetric 4-tensor (cached, read-only), in order.

    Each stored key (a, b), a <= b indexing :func:`index_pairs`, maps to
    its index tuple pairs[a] + pairs[b]; as for Sym^2, the coordinates of
    a degree-d tensor are monomial index major, slot minor.
    """
    pairs = index_pairs(nv)
    return MappingProxyType({(a, b): pairs[a] + pairs[b] for a in range(len(pairs)) for b in range(a, len(pairs))})


@lru_cache(maxsize=None)
def tensor4_slot_sign(nv: int, mu: int, nu: int, al: int, be: int) -> Tuple[Tuple[int, int], int] | None:
    """Stored slot (a, b) and sign of W_{mu nu al be}; None where the
    antisymmetry of a pair makes the component zero."""
    if mu == nu or al == be:
        return None
    sign = 1
    if mu > nu:
        mu, nu, sign = nu, mu, -sign
    if al > be:
        al, be, sign = be, al, -sign
    pairs = index_pairs(nv)
    a, b = pairs.index((mu, nu)), pairs.index((al, be))
    return sorted_pair((a, b)), sign


@dataclass(eq=False)
class PolyTensor4(PolyTensor):
    """Covariant 4-tensor, antisymmetric in each pair, pair-swap symmetric.

    Stored on independent coordinates: ``comp[(a, b)]`` with pair indices
    a <= b referring to ``index_pairs(nv)``; :func:`tensor4_slot_sign`
    maps an index tuple to its stored key and sign.
    """

    nv: int
    comp: Dict[Tuple[int, int], ExactPoly]

    nvars = property(lambda self: self.nv)
    layout = property(lambda self: tensor4_layout(self.nv))
    rank = 4
    _key = staticmethod(sorted_pair)

    def _slot(self, mu: int, nu: int, al: int, be: int):
        return tensor4_slot_sign(self.nv, mu, nu, al, be)

    def residuals(self) -> Dict[tuple, ExactPoly]:
        """{constraint key: residual} of the Weyl constraints, nonzero residuals only.

        A scatter: each stored component adds itself, or its first
        derivative along X^d, with the sign :func:`_weyl_constraints`
        lists for it into each constraint that reads it.  Empty exactly
        when W satisfies every constraint.
        """
        acc = {}
        for key, p in self.comp.items():
            for constraint, sign, d in _weyl_constraints(self.nv).get(key, ()):
                terms = acc.setdefault(constraint, {})
                if d is None:
                    _add_scaled(terms, p.terms, sign)
                else:
                    _add_derivative(terms, p.terms, d, sign)
        return {constraint: r for constraint, terms in acc.items() if (r := _poly(self.nv, terms))}

    def satisfies_weyl_constraints(self) -> bool:
        """Eta-trace free and both Bianchi identities: no residual (:meth:`residuals`)."""
        return not self.residuals()


def _cyclic(a: int, b: int, c: int) -> Tuple[Tuple[int, int, int], ...]:
    return (a, b, c), (b, c, a), (c, a, b)


@lru_cache(maxsize=None)
def _weyl_constraints(nv: int) -> Dict[Tuple[int, int], Tuple[tuple, ...]]:
    """Stored key (a, b) -> ((constraint key, sign, derivative index or None), ...), built once per size.

    The three families of constraints on a Weyl-symmetric W, each a
    signed sum of components W_{mu nu al be}, read through
    :func:`tensor4_slot_sign`:

    * ("trace", nu, be), nu <= be: sum_mu eta_mu W_{mu nu mu be};
    * ("bianchi1", t, be): W_{x y z be} summed over the cyclic orders
      (x, y, z) of each triple t, x < y < z;
    * ("bianchi2", t, (al, be)): d_x W_{y z al be} summed over the
      cyclic orders of t, for each index pair al < be.

    Terms of one constraint on one stored key are merged, and those
    that cancel are left out.
    """
    merged: Dict[Tuple[int, int], dict] = {}

    def add(constraint, d, sign, idx):
        hit = tensor4_slot_sign(nv, *idx)
        if hit is not None:
            entry = merged.setdefault(hit[0], {})
            entry[constraint, d] = entry.get((constraint, d), 0) + sign * hit[1]

    for nu, be in sym2_layout(nv):
        for mu in range(nv):
            add(("trace", nu, be), None, _eta_sign(mu), (mu, nu, mu, be))
    for t in combinations(range(nv), 3):
        for be in range(nv):
            for x, y, z in _cyclic(*t):
                add(("bianchi1", t, be), None, 1, (x, y, z, be))
        for pair in index_pairs(nv):
            for d, x, y in _cyclic(*t):
                add(("bianchi2", t, pair), d, 1, (x, y, *pair))
    return {key: tuple((c, sign, d) for (c, d), sign in entry.items() if sign) for key, entry in merged.items()}


@lru_cache(maxsize=None)
def _riemann_targets(nv: int) -> dict:
    """Stored key of h -> the (slot, i, j, sign) of its terms sign d_i d_j h in :func:`linearized_riemann`."""
    out = {}
    for slot, (mu, nu, al, be) in tensor4_layout(nv).items():
        terms = ((nu, be), mu, al, 1), ((mu, al), nu, be, 1), ((nu, al), mu, be, -1), ((mu, be), nu, al, -1)
        for key, i, j, sign in terms:
            out.setdefault(sorted_pair(key), []).append((slot, i, j, sign))
    return {key: tuple(terms) for key, terms in out.items()}


def linearized_riemann(h: PolySym2) -> PolyTensor4:
    """R(h)_{mu nu al be} = -1/2 (d_mu d_al h_{nu be} + d_nu d_be h_{mu al}
    - d_mu d_be h_{nu al} - d_nu d_al h_{mu be}).

    A scatter: each stored component of h adds its second derivatives, as
    exponent shifts, into the slots :func:`_riemann_targets` lists for it,
    and each slot is divided by -2 once.
    """
    acc = {}
    for key, p in h.comp.items():
        for slot, i, j, sign in _riemann_targets(h.nv)[key]:
            _add_second_derivative(acc.setdefault(slot, {}), p.terms, i, j, sign)
    half = F(-2)
    return PolyTensor4(h.nv, {slot: _poly(h.nv, {e: c / half for e, c in acc[slot].items()}) for slot in sorted(acc)})


# ---------------------------------------------------------------------------
# de Donder gauge
# ---------------------------------------------------------------------------


def de_donder_fix(h: PolySym2) -> Tuple[PolySym2, List[ExactPoly]]:
    """Gauge-fix a solution of the linearized Einstein equations.

    Returns (h_tilde, xi) with h_tilde = h + d xi + (d xi)^T trace free,
    divergence free and componentwise wave harmonic.  One exact solve
    (:func:`ahmass.linalg.joint_solve`) for the covector field xi of degree
    deg h + 1: Box xi_nu = -(div h)_nu + d_nu(tr h)/2 and d.xi = -tr(h)/2,
    over the unit fields X^e dX^nu, component major.  Free coefficients
    are pinned to zero, so the output is deterministic and xi = 0 whenever
    h is already in the gauge.  h must be homogeneous: every component of
    one degree, else ``ValueError``.
    """
    nv = h.nv
    deg = h.degree()
    if any(not p.is_homogeneous() or p.degree() != deg for p in h.comp.values()):
        raise ValueError("h must be homogeneous")
    if not linearized_einstein(h).is_zero():
        raise ValueError("input does not solve the linearized Einstein equations")
    if deg < 0:
        return h, [ExactPoly.zero(nv)] * nv
    tr, div = h.eta_trace(), h.divergence()
    monos = monomials_of_degree(nv, deg + 1)
    units = [PolyForm(nv, 1, {(nu,): ExactPoly.monomial(nv, e)}) for nu in range(nv) for e in monos]
    maps = [
        lambda f: f.map(wave_operator),
        lambda f: sum((_eta_sign(nu) * p.diff(nu) for (nu,), p in f.comp.items()), ExactPoly.zero(nv)),
    ]
    targets = [PolyForm(nv, 1, {(nu,): tr.diff(nu) / 2 - div[nu] for nu in range(nv)}), tr / -2]
    (field,) = _combinations(PolyForm(nv, 1, {}), units, [joint_solve(units, maps, targets)])
    xi = [field.get(nu) for nu in range(nv)]
    out = h + sym_gauge(xi)
    if not out.eta_trace().is_zero():
        raise AssertionError("gauge fixing failed to remove the trace")
    if any(not d.is_zero() for d in out.divergence()):
        raise AssertionError("gauge fixing failed to remove the divergence")
    if not out.box().is_zero():
        raise AssertionError("gauge-fixed tensor is not wave harmonic")
    return out, xi


# ---------------------------------------------------------------------------
# the spaces W_p
# ---------------------------------------------------------------------------


def dim_Wp(n: int, p: int) -> int:
    _check_closed_form_args(n, p)
    num = (n + 1) * math.comb(p + n, p + 3) * (p + 1) * (p + n + 2) * (2 * p + n + 3)
    den = 2 * (n - 1) * (p + n)
    if num % den:
        raise ArithmeticError(f"dim W_p closed form is not an integer at n={n}, p={p}")
    return num // den


def build_Wp(n: int, p: int) -> Space:
    """Exact basis of W_p as the kernel of its linear constraints.

    Index symmetries are enforced by the storage (:func:`tensor4_slot_sign`);
    the eta-trace and both Bianchi identities are the residuals of
    :meth:`PolyTensor4.residuals`, whose joint kernel on the unit tensors
    X^e in one stored slot, monomial major and slot minor, is the basis.

    The basis is built once per (n, p) (:func:`_Wp_basis`); every call
    returns a new :class:`ahmass.harmonic.Space` with a new ``basis``
    list over the same tensors, which are shared and must not be
    mutated.  Bad arguments, ``bool`` and float ones included, raise
    ``ValueError`` on every call, before the cache is read.
    """
    _check_closed_form_args(n, p)
    return Space(n, p, list(_Wp_basis(n, p)))


@lru_cache(maxsize=None)
def _Wp_basis(n: int, p: int) -> Tuple[PolyTensor4, ...]:
    """The basis of :func:`build_Wp`, solved once per (n, p)."""
    nv = n + 1
    monos, slots = monomials_of_degree(nv, p), tensor4_layout(nv)
    units = [PolyTensor4(nv, {key: ExactPoly.monomial(nv, e)}) for e in monos for key in slots]
    basis = _combinations(PolyTensor4(nv, {}), units, joint_kernel(units, [PolyTensor4.residuals]))
    if len(basis) != dim_Wp(n, p):
        raise AssertionError(f"dim W_{p} mismatch for n={n}: {len(basis)}")
    return tuple(basis)


# ---------------------------------------------------------------------------
# exterior forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def form_layout(nv: int, k: int) -> Mapping[Tuple[int, ...], Tuple[int, ...]]:
    """Layout of a k-form: each increasing index tuple, its own stored key, in order (cached, read-only)."""
    return MappingProxyType({idx: idx for idx in combinations(range(nv), k)})


@dataclass(eq=False)
class PolyForm(PolyTensor):
    """Exterior k-form with polynomial coefficients, stored on increasing index tuples."""

    nv: int
    k: int
    comp: Dict[Tuple[int, ...], ExactPoly]

    nvars = property(lambda self: self.nv)
    layout = property(lambda self: form_layout(self.nv, self.k))
    rank = property(lambda self: self.k)

    def _slot(self, *indices: int):
        """Sorted indices and the sign of the sorting permutation; None on a repeat."""
        if len(set(indices)) < len(indices):
            return None
        inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1 :])
        return tuple(sorted(indices)), -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# Weyl tensor -> potential
# ---------------------------------------------------------------------------


def weyl_to_potential(w: PolyTensor4) -> PolySym2:
    """Exact potential h with R(h) = -W/2 for W satisfying all constraints.

    ``ValueError`` unless W is eta-trace free and satisfies both Bianchi
    identities.  R lowers the degree by two, so the unknowns are the unit
    tensors X^e in one slot, of degree d + 2 for each degree d of W, and
    h is one exact solve (:func:`ahmass.linalg.joint_solve`) with its free
    coefficients pinned to zero.
    """
    if not w.satisfies_weyl_constraints():
        raise ValueError("input violates the Weyl constraints")
    nv = w.nv
    degrees = sorted({sum(e) for p in w.comp.values() for e in p.terms})
    monos = [e for d in degrees for e in monomials_of_degree(nv, d + 2)]
    units = [PolySym2(nv, {key: ExactPoly.monomial(nv, e)}) for e in monos for key in sym2_layout(nv)]
    return _combinations(PolySym2(nv, {}), units, [joint_solve(units, [linearized_riemann], [w.scale(F(-1, 2))])])[0]


# ---------------------------------------------------------------------------
# invariant form and signature on W_p
# ---------------------------------------------------------------------------


def _tensor4_weight(unit) -> Fraction:
    """The invariant form on the unit coordinate ((a, b), X^e) of a 4-tensor.

    The full eta-contraction of two 4-tensors visits the stored slot
    (a, b) = (mu nu, al be) through 4 index tuples, 8 off the diagonal
    a != b, each with the eta signs of mu, nu, al, be; the coefficients
    pair by :func:`ahmass.harmonic.monomial_weight`.
    """
    (a, b), e = unit
    mu, nu, al, be = tensor4_layout(len(e))[(a, b)]
    sgn = _eta_sign(mu) * _eta_sign(nu) * _eta_sign(al) * _eta_sign(be)
    return sgn * 4 * (2 if a != b else 1) * monomial_weight(e)


def signature_Wp(n: int, p: int) -> Tuple[int, int]:
    """Signature of the invariant form on W_p, normalized so n+ >= n-.

    The form is diagonal on unit coordinates, with the weight
    :func:`_tensor4_weight` of each (slot, monomial), so its Gram matrix
    on the basis of :func:`build_Wp` is built on integers and pairs only
    tensors that share a unit (:func:`ahmass.harmonic.form_signature`).
    The form is canonical only up to a global sign; the convention here
    reports the larger count first (for n = 3 the two counts coincide).
    Infinitesimal invariance of the form is asserted on sampled basis
    pairs, through the same weights, before diagonalizing; an empty W_p
    (n = 2) has signature (0, 0).
    """
    space = build_Wp(n, p)
    if space.basis:
        _assert_form_invariance(space)
    plus, minus = form_signature(space.basis, _tensor4_weight)
    return max(plus, minus), min(plus, minus)


def _assert_form_invariance(space: Space):
    rng = random.Random(814)
    gens = all_generators(space.n)
    for _ in range(4):
        _, g = rng.choice(gens)
        w1 = rng.choice(space.basis)
        w2 = rng.choice(space.basis)
        lhs = unit_pairing(algebra_action_tensor4(g.matrix, w1), w2, _tensor4_weight)
        rhs = unit_pairing(w1, algebra_action_tensor4(g.matrix, w2), _tensor4_weight)
        if lhs + rhs != 0:
            raise AssertionError("constructed form is not infinitesimally invariant")


def signature_Wp_expected(n: int, p: int) -> Tuple[int, int]:
    _check_closed_form_args(n, p)
    common = F((p + 1) * (p + n + 2), (n - 1) * (p + n)) * math.comb(p + n, p + 3)
    plus = F(n * n + (n + 1) * p + 3, 2) * common
    minus = F(n * p + 4 * n + p, 2) * common
    if plus.denominator != 1 or minus.denominator != 1:
        raise ArithmeticError(f"W_p signature closed form is not integral at n={n}, p={p}")
    return int(plus), int(minus)


# ---------------------------------------------------------------------------
# algebra actions on tensors
# ---------------------------------------------------------------------------


def algebra_action_sym2(mat, h: PolySym2) -> PolySym2:
    """(a.h)_{mu nu} = -(aX) d h_{mu nu} - a^s_mu h_{s nu} - a^s_nu h_{mu s}."""
    return slot_action(mat, h)


def algebra_action_tensor4(mat, w: PolyTensor4) -> PolyTensor4:
    """The slot action on the four indices of W_{mu nu al be}."""
    return slot_action(mat, w)


# ---------------------------------------------------------------------------
# highest-weight vectors in the potential spaces
# ---------------------------------------------------------------------------


def _combinations(zero: PolyTensor, basis: Sequence[PolyTensor], rows: List[Row]) -> list:
    """The tensors sum_j c_j basis[j], one per coefficient row c, of the type and fields of the empty ``zero``.

    Term-level: c times the terms of each basis tensor are added into one
    term map per stored key, and each sum becomes a polynomial once.
    """
    out = []
    for row in rows:
        acc = {}
        for j, c in row.items():
            for key, p in basis[j].comp.items():
                _add_scaled(acc.setdefault(key, {}), p.terms, c)
        out.append(replace(zero, comp={key: _poly(zero.nvars, terms) for key, terms in acc.items()}))
    return out


def _weight_units(null: Mapping, degree: int, weight: Sequence) -> List[Tuple[Tuple[int, ...], int, int]]:
    """(e, a, b) of the tensors Z^e sym(dZ^a (x) dZ^b) of eps-weight ``weight``.

    Z^e runs over the degree-d monomials in the null coordinates ``null``
    of :func:`ahmass.lorentz.null_coordinates` and (a, b) over their
    pairs a <= b, monomial major.  Each such tensor is a weight vector
    whose weight is the sum of the weights of its factors, and together
    they form a basis of the degree-d symmetric 2-tensors.
    """
    nv = len(null)
    weights = [w for _, w in null.values()]
    out = []
    for e in monomials_of_degree(nv, degree):
        for a, b in sym2_layout(nv):
            factors = list(e)
            factors[a] += 1
            factors[b] += 1
            if all(sum(k * w[j] for k, w in zip(factors, weights)) == lam for j, lam in enumerate(weight)):
                out.append((e, a, b))
    return out


def _units_in_x(null: Mapping, units) -> List[PolySym2]:
    """The tensors Z^e sym(dZ^a (x) dZ^b) of :func:`_weight_units` triples, in X coordinates."""
    nv = len(null)
    forms = [z for z, _ in null.values()]
    covs = [_cov(z) for z in forms]
    return [_outer_sym(nv, ExactPoly.monomial(nv, e).substitute(forms), covs[a], covs[b]) for e, a, b in units]


@lru_cache(maxsize=None)
def _null_partners(nv: int) -> Tuple[Tuple[int, int], ...]:
    """(i, j) with eta(e_i, e_j) = 1 in the null frame: the positions of the keys k and -k."""
    keys = cartan_keys(nv - 1)
    return tuple((i, keys.index(-k)) for i, k in enumerate(keys))


def _null_eta_trace(h: PolySym2) -> ExactPoly:
    """eta^{ij} h_ij = sum_k h_{k,-k} for a tensor stored in the null frame."""
    return sum((h.get(i, j) for i, j in _null_partners(h.nv)), ExactPoly.zero(h.nv))


def _null_box(h: PolySym2) -> PolySym2:
    """sum_k d_k d_{-k} of every component of a tensor stored in the null frame."""
    pairs = _null_partners(h.nv)
    return h.map(lambda p: sum((p.diff(i).diff(j) for i, j in pairs), ExactPoly.zero(h.nv)))


def hw_vectors_sym2(
    n: int,
    degree: int,
    weight: Sequence[Fraction],
) -> List[PolySym2]:
    """Highest-weight vectors in the solution space, in X coordinates.

    The unknowns are the coefficients on the tensors Z^e sym(dZ^a (x) dZ^b)
    of weight ``weight`` (:func:`_weight_units`), so the Cartan eigenvalue
    conditions hold by construction.  The system is posed in the null
    frame Z, where each of them is one term (coefficient 1 on a diagonal
    slot, 1/2 off it), eta^{ij} is a permutation and every root vector an
    integer matrix (:func:`ahmass.lorentz.null_raising_operators`): one
    joint kernel over Q of the eta-trace, Box and every raising operator
    (:func:`algebra_action_sym2`).  Only the units that occur in the kernel
    are expanded into X coordinates (:func:`_units_in_x`) and combined with
    the rational kernel rows; a coefficient of the answer is a Gaussian
    rational only where its value is not real.  Raises
    ``ValueError`` if ``degree`` is negative, ``weight`` does not have
    one entry per Cartan generator or has an inexact entry (a float), on
    every call.

    The solve runs once per (n, degree, weight) with the weight entries
    made exact (:func:`ahmass.gaussian._exact`, :func:`_hw_solve`); every
    call returns a new list over the same tensors, which are shared and
    must not be mutated.  ``n`` and ``degree`` must be ``int``s (not
    ``bool``s), checked before the cache is read, else ``ValueError``.
    """
    _check_ints(n=n, degree=degree)
    return list(_hw_solve(n, degree, tuple(map(_exact, weight))))


@lru_cache(maxsize=None)
def _hw_solve(n: int, degree: int, weight: Tuple[Fraction, ...]) -> Tuple[PolySym2, ...]:
    """The tensors of :func:`hw_vectors_sym2`, solved once per argument."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if len(weight) != cartan_rank(n):
        raise ValueError(f"weight needs {cartan_rank(n)} entries for n={n}, got {len(weight)}")
    nv, null = n + 1, null_coordinates(n)
    units = _weight_units(null, degree, weight)
    tensors = [PolySym2(nv, {(a, b): ExactPoly.monomial(nv, e, F(1) if a == b else F(1, 2))}) for e, a, b in units]
    maps = [_null_eta_trace, _null_box]
    maps += [lambda h, m=m: algebra_action_sym2(m, h) for _, m in null_raising_operators(n)]
    rows = joint_kernel(tensors, maps)
    used = sorted({j for row in rows for j in row})
    at = {j: i for i, j in enumerate(used)}
    # each row renumbered onto the used units, which alone are expanded
    rows = [{at[j]: c for j, c in row.items()} for row in rows]
    return tuple(_combinations(PolySym2(nv, {}), _units_in_x(null, [units[j] for j in used]), rows))


def _zminus(nv: int, which: int, conj: bool = False) -> ExactPoly:
    """Null coordinate Z^{-1} = X^0 + X^1 or Z^{-2} = X^2 + i X^3, or its conjugate."""
    z = null_coordinates(nv - 1)[-which][0]
    return z.conjugate() if conj else z


def _cov(z: ExactPoly) -> List[object]:
    """Covector components of dZ for a linear form Z."""
    return [z.terms.get(tuple(int(mu == nu) for nu in range(z.nvars)), F(0)) for mu in range(z.nvars)]


def _outer_sym(nv: int, f: ExactPoly, u, v) -> PolySym2:
    """f * sym(u (x) v) = f * (u (x) v + v (x) u) / 2 for covector component lists."""
    comp = {}
    for mu, nu in sym2_layout(nv):
        c = (u[mu] * v[nu] + u[nu] * v[mu]) / 2
        if c:
            comp[(mu, nu)] = f * c
    return PolySym2(nv, comp)


def catalog_gauge1(n: int, p: int) -> PolySym2:
    """(Z^{-1})^{p+2} dZ^{-1} (x) dZ^{-1}."""
    nv = n + 1
    z1 = _zminus(nv, 1)
    return _outer_sym(nv, z1 ** (p + 2), _cov(z1), _cov(z1))


def catalog_gauge2(n: int, p: int) -> PolySym2:
    """(Z^{-1})^{p+1} Z^{-2} dZ^{-1}(x)dZ^{-1}
       - (Z^{-1})^{p+2} (dZ^{-1} (x) dZ^{-2} + dZ^{-2} (x) dZ^{-1}) / 2."""
    nv = n + 1
    z1, z2 = _zminus(nv, 1), _zminus(nv, 2)
    u, v = _cov(z1), _cov(z2)
    return _outer_sym(nv, z1 ** (p + 1) * z2, u, u) - _outer_sym(nv, z1 ** (p + 2), u, v)


def catalog_weyl_type(n: int, p: int, conj: bool = False) -> PolySym2:
    """(Z^{-1} dZ^{-2} - Z^{-2} dZ^{-1})^{(x)2} (Z^{-1})^p, expanded."""
    nv = n + 1
    z1, z2 = _zminus(nv, 1), _zminus(nv, 2, conj)
    u, v = _cov(z1), _cov(z2)
    t1 = _outer_sym(nv, z1 ** (p + 2), v, v)
    t2 = _outer_sym(nv, 2 * z1 ** (p + 1) * z2, u, v)
    t3 = _outer_sym(nv, z1**p * z2 * z2, u, u)
    return t1 - t2 + t3


def catalog_chiral_printed(n: int, p: int, conj: bool = False) -> PolySym2:
    """The bracket-squared closed form as printed in the catalog:
    (Z^{-1})^p [ Z^{-2} dZ^{-1} - Z^{-2} dZ^{-2} ]^{(x)2}  (the second
    coefficient repeats Z^{-2} where the pattern of the general family
    suggests Z^{-1}; kept verbatim so the comparison can flag it)."""
    nv = n + 1
    u = _cov(_zminus(nv, 1))
    v = _cov(_zminus(nv, 2))  # the printed form uses dZ^{-2} unconjugated in both
    z1 = _zminus(nv, 1)
    z2 = _zminus(nv, 2, conj)
    w = [z2 * (a - b) for a, b in zip(u, v)]  # Z^{-2} (dZ^{-1} - dZ^{-2})
    return _outer_sym(nv, z1**p, w, w)


def gauge_field_1(n: int, p: int) -> List[ExactPoly]:
    """xi = (Z^{-1})^{p+3} e_{+1} / (2(p+3)), contravariant components."""
    f = _zminus(n + 1, 1) ** (p + 3) / (2 * (p + 3))
    return [f * c for c in cartan_basis(n)[1]]


def gauge_field_2(n: int, p: int) -> List[ExactPoly]:
    """xi = ((Z^{-1})^{p+2} Z^{-2} e_{+1} - (Z^{-1})^{p+3} e_{+2}) / (2(p+2))."""
    z1, z2 = _zminus(n + 1, 1), _zminus(n + 1, 2)
    f = z1 ** (p + 2) * z2 / (2 * (p + 2))
    g = z1 ** (p + 3) / (2 * (p + 2))
    e = cartan_basis(n)
    return [f * a - g * b for a, b in zip(e[1], e[2])]


def proportionality(a: PolySym2, b: PolySym2):
    """Scalar c with a = c b, or None."""
    if b.is_zero():
        return None
    key = next(iter(b.comp))
    pb = b.comp[key]
    pa = a.comp.get(key)
    if pa is None:
        return None
    e = next(iter(pb.terms))
    ca = pa.terms.get(e)
    if ca is None:
        return None
    c = ca / pb.terms[e]
    return c if (a - b.scale(c)).is_zero() else None


@dataclass
class HWReport:
    label: str
    weight: Tuple
    dim: int
    vector: PolySym2 | None
    de_donder: bool
    transverse: bool
    in_riemann_kernel: bool
    catalog_match: str
    flags: List[str] = field(default_factory=list)


def hw_vectors_weyl(n: int, p: int) -> List[HWReport]:
    """Construct highest-weight vectors and compare with cataloged forms.

    Works inside the wave-harmonic trace-free degree-(p+2) potentials.
    For every report the constructed vector is authoritative; closed-form
    mismatches are flagged, never silently repaired.
    """
    l = cartan_rank(n)
    degree = p + 2

    def wt(*vals):
        out = [F(0)] * l
        for i, v in enumerate(vals):
            out[i] = F(v)
        return tuple(out)

    jobs = [
        (f"({p+4})w1", wt(p + 4), catalog_gauge1(n, p), True),
        (f"({p+2})w1+w2", wt(p + 3, 1), catalog_gauge2(n, p), True),
        (
            f"{p}w1+2w2" if n > 3 else f"{p}w1+({p+4})w2",
            wt(p + 2, 2),
            catalog_weyl_type(n, p) if n > 3 else catalog_chiral_printed(n, p),
            False,
        ),
    ]
    if n == 3:
        jobs.append(
            (
                f"({p+4})w1+{p}w2",
                wt(p + 2, -2),
                catalog_chiral_printed(n, p, conj=True),
                False,
            )
        )

    reports: List[HWReport] = []
    for label, weight, catalog, expect_gauge in jobs:
        vecs = hw_vectors_sym2(n, degree, weight)
        flags: List[str] = []
        if len(vecs) != 1:
            flags.append(f"expected a one-dimensional space, got {len(vecs)}")
        vec = vecs[0] if vecs else None
        de_donder = transverse = in_ker = False
        match = "missing"
        if vec is not None:
            de_donder = all(d.is_zero() for d in vec.divergence())
            transverse = all(r.is_zero() for r in vec.radial_contraction())
            in_ker = linearized_riemann(vec).is_zero()
            c = proportionality(vec, catalog)
            if c is None:
                match = "mismatch"
                flags.append(
                    "constructed vector is not proportional to the cataloged "
                    "closed form; the constructed vector is authoritative"
                )
            elif c == 1:
                match = "exact"
            else:
                match = f"proportional ({c})"
            if expect_gauge and not in_ker:
                flags.append("expected pure-gauge vector has nonzero curvature")
            if not expect_gauge and in_ker:
                flags.append("expected curvature-carrying vector is pure gauge")
        reports.append(
            HWReport(label, weight, len(vecs), vec, de_donder, transverse, in_ker, match, flags)
        )

    # Lie-derivative identities for the two pure-gauge families
    r1 = reports[0]
    if r1.vector is not None:
        lie1 = lie_eta(gauge_field_1(n, p))
        c = proportionality(lie1, catalog_gauge1(n, p))
        if c == 1:
            r1.flags.append(
                "Lie-derivative identity holds exactly with the vector field "
                f"of coefficient degree {p+3} (the ({p+4})w1-labeled one); "
                f"the alternative ({p+2})w1 pairing fails already by degree"
            )
        else:
            r1.flags.append("Lie-derivative identity FAILED for the cataloged field")
    r2 = reports[1]
    if r2.vector is not None and n >= 3:
        lie2 = lie_eta(gauge_field_2(n, p))
        c = proportionality(lie2, r2.vector)
        if c is not None:
            r2.flags.append(f"Lie-derivative identity holds (factor {c})")
        else:
            r2.flags.append("Lie-derivative identity FAILED for the cataloged field")
    # corrected chiral candidate for n = 3
    if n == 3:
        for rep, conj in ((reports[2], False), (reports[3], True)):
            if rep.vector is None:
                continue
            alt = catalog_weyl_type(n, p, conj=conj)
            c = proportionality(rep.vector, alt)
            if c is not None:
                rep.flags.append(
                    "the bracket-squared pattern with the repeated factor "
                    "replaced by Z^{-1} matches the constructed vector "
                    f"(factor {c})"
                )
    return reports


def _one_transverse(vecs: List[PolySym2], label: str) -> PolySym2:
    """The vector of a one-dimensional space; AssertionError unless it is transverse."""
    if len(vecs) != 1:
        raise AssertionError(f"{label} space has dim {len(vecs)}")
    if not all(r.is_zero() for r in vecs[0].radial_contraction()):
        raise AssertionError(f"{label} vector is not transverse")
    return vecs[0]


def chiral_hw_vector(p: int, sign: int) -> PolySym2:
    """n = 3 chiral highest-weight solution of degree p+2, transverse.

    ``sign`` +1 selects weight (p+2, +2), -1 the conjugate family; any
    other sign raises ``ValueError``.
    """
    if sign not in (1, -1):
        raise ValueError(f"chiral sign must be +1 or -1, got {sign}")
    return _one_transverse(hw_vectors_sym2(3, p + 2, (F(p + 2), F(2 * sign))), "chiral highest-weight")


def weyl_type_hw_vector(n: int, p: int) -> PolySym2:
    """Transverse trace-free wave solution of degree p+2, highest weight."""
    weight = (F(p + 2), F(2)) + (F(0),) * (cartan_rank(n) - 2)
    return _one_transverse(hw_vectors_sym2(n, p + 2, weight), "highest-weight")

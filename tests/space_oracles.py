"""Second routes to the spaces H_p and W_p, kept as oracles for the tests.

The division by the Minkowski quadric (:func:`harmonic_decompose`) is an
independent route to the wave-harmonic part of a polynomial, which
:func:`ahmass.harmonic.build_Hp` finds as an exact kernel.  The joint
kernel of Box, the eta-trace and the radial contraction on symmetric
2-tensors (:func:`transverse_solution_space`) is the potential-side route
to the representation that :func:`ahmass.weyl.build_Wp` builds on the
curvature side.

The rows route is the oracle of the image route that the package poses
every kernel on.  :func:`operator_rows` is the sparse matrix of a map
between homogeneous forms on monomial coordinates, and :func:`kron_rows`
forms sum_k A_k (x) B_k with a slot factor.  On them H_p is the kernel of
the matrix of Box (:func:`build_Hp_rows`), and W_p that of the rows
I (x) T, I (x) B_1 and sum_s d_s (x) C_s on the coordinates monomial
index major, slot minor (:func:`build_Wp_rows`).  The three residual
families gathered through the signed lookup ``get`` over every index
tuple (:func:`weyl_residuals_oracle`) are the oracle of the scatter
:meth:`ahmass.weyl.PolyTensor4.residuals`.
"""

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from ahmass.harmonic import Space
from ahmass.linalg import joint_kernel, nullspace
from ahmass.poly import (
    ExactPoly,
    minkowski_norm_poly,
    monomial_index,
    monomials_of_degree,
    sym2_layout,
    wave_operator,
)
from ahmass.weyl import (
    PolySym2,
    PolyTensor4,
    _combinations,
    _cyclic,
    _eta_sign,
    index_pairs,
    tensor4_layout,
    tensor4_slot_sign,
)

Row = Dict[int, object]


def _expansion(p: ExactPoly, d: int, norm: ExactPoly) -> List[ExactPoly]:
    """Components h_k with P = sum_k (X.X)^k h_k, each h_k wave-harmonic.

    Downward-degree recursion: the wave operator sends (X.X)^k h to
    2k(n-1+2m+2k) (X.X)^{k-1} h for harmonic h of degree m, so the
    expansion of box(P) determines all h_k with k >= 1.
    """
    if p.is_zero():
        return []
    if d <= 1:
        return [p]
    n_plus_1 = p.nvars
    r = wave_operator(p)
    parts = _expansion(r, d - 2, norm)
    higher: List[ExactPoly] = []
    for k_minus_1, comp in enumerate(parts):
        k = k_minus_1 + 1
        m = d - 2 * k
        c = Fraction(2 * k * (n_plus_1 - 2 + 2 * m + 2 * k))
        higher.append(comp / c)
    h0 = p
    acc = ExactPoly.constant(p.nvars, 1)
    for h in higher:
        acc = acc * norm
        h0 = h0 - acc * h
    return [h0] + higher


def harmonic_decompose(p: ExactPoly) -> Tuple[ExactPoly, ExactPoly]:
    """Split P = H + (X.X) Q with H wave-harmonic, exactly."""
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if p.is_zero():
        return p, p
    d = p.degree()
    norm = minkowski_norm_poly(p.nvars)
    parts = _expansion(p, d, norm)
    h = parts[0]
    q = ExactPoly.zero(p.nvars)
    acc = ExactPoly.constant(p.nvars, 1)
    for comp in parts[1:]:
        q = q + acc * comp
        acc = acc * norm
    return h, q


def transverse_solution_space(n: int, degree: int) -> List[PolySym2]:
    """Wave-harmonic, eta-trace-free tensors with h_{mu nu} X^mu = 0.

    These solve the linearized Einstein equations (they are automatically
    divergence free) and realize the same representation as W_{degree-2}:
    the joint kernel of Box, the eta-trace and the radial contraction on
    the unit tensors X^e in one slot, monomial major.
    """
    nv = n + 1
    monos = monomials_of_degree(nv, degree)
    units = [PolySym2(nv, {s: ExactPoly.monomial(nv, e)}) for e in monos for s in sym2_layout(nv)]
    maps = [PolySym2.box, PolySym2.eta_trace, PolySym2.radial_contraction]
    return _combinations(PolySym2(nv, {}), units, joint_kernel(units, maps))


# ---------------------------------------------------------------------------
# the rows route
# ---------------------------------------------------------------------------


def from_coords(row: Row, nvars: int, degree: int) -> ExactPoly:
    """The form with the given sparse coordinates on the degree-``degree`` monomials."""
    monos = monomials_of_degree(nvars, degree)
    return ExactPoly(nvars, {monos[i]: c for i, c in row.items()})


def operator_rows(op, nvars: int, degree: int, target_degree: int) -> List[Row]:
    """Sparse matrix of a linear map between spaces of homogeneous forms.

    Row ``t`` holds the coefficient of target monomial ``t`` in the images
    of the source monomials, keyed by source monomial index; a negative
    target degree gives no rows, and an image term of another degree
    raises ``ValueError``.
    """
    target = monomial_index(nvars, target_degree)
    rows: List[Row] = [dict() for _ in target]
    for j, e in enumerate(monomials_of_degree(nvars, degree)):
        for e2, c in op(ExactPoly.monomial(nvars, e)).terms.items():
            t = target.get(e2)
            if t is None:
                raise ValueError(f"image term {e2} is not of degree {target_degree}")
            rows[t][j] = c
    return rows


def kron_rows(terms: Sequence[Tuple[Sequence[Row], Sequence[Row]]], b_cols: int) -> List[Row]:
    """Sparse rows of sum_k A_k (x) B_k.

    Entry A[i][j] B[r][s] lands in row ``i * len(B) + r`` and column
    ``j * b_cols + s``; entries that cancel are dropped, and terms of
    different shapes raise ``ValueError``.
    """
    na, nb = len(terms[0][0]), len(terms[0][1])
    if any(len(a) != na or len(b) != nb for a, b in terms):
        raise ValueError("Kronecker terms of different shapes")
    out: List[Row] = [dict() for _ in range(na * nb)]
    for a, b in terms:
        for i, arow in enumerate(a):
            for r, brow in enumerate(b):
                row = out[i * nb + r]
                for j, x in arow.items():
                    for s, y in brow.items():
                        c = j * b_cols + s
                        row[c] = row.get(c, 0) + x * y
    return [{c: v for c, v in row.items() if v} for row in out]


def build_Hp_rows(n: int, p: int) -> Space:
    """H_p as the nullspace of the matrix of Box on the degree-p monomial coordinates."""
    nv = n + 1
    kernel = nullspace(operator_rows(wave_operator, nv, p, p - 2), len(monomials_of_degree(nv, p)))
    return Space(n, p, [from_coords(v, nv, p) for v in kernel])


def build_Wp_rows(n: int, p: int) -> Space:
    """W_p as the nullspace of its Kronecker-assembled constraint rows.

    On the degree-p coordinates, monomial major and slot minor, the
    eta-trace and first Bianchi rows are I (x) T and I (x) B_1 for slot
    matrices T and B_1, and the second Bianchi rows are sum_s d_s (x) C_s,
    where C_s picks the terms of the cyclic sum differentiated along X^s.
    """
    nv = n + 1
    slots = list(tensor4_layout(nv))
    sidx = {key: i for i, key in enumerate(slots)}

    def slot_row(terms) -> Row:
        """Sum of c W_{mu nu al be} over ``terms`` as a row on the slots."""
        row: Row = {}
        for c, idx in terms:
            hit = tensor4_slot_sign(nv, *idx)
            if hit is not None:
                j = sidx[hit[0]]
                row[j] = row.get(j, 0) + c * hit[1]
        return {j: v for j, v in row.items() if v}

    triples = list(combinations(range(nv), 3))
    trace = [slot_row([(_eta_sign(mu), (mu, nu, mu, be)) for mu in range(nv)]) for nu, be in sym2_layout(nv)]
    bianchi1 = [slot_row([(1, (x, y, z, be)) for x, y, z in _cyclic(*t)]) for t in triples for be in range(nv)]
    nmonos = len(monomials_of_degree(nv, p))
    rows = kron_rows([([{m: 1} for m in range(nmonos)], trace + bianchi1)], len(slots))
    bianchi2 = []
    for s in range(nv):
        d_s = operator_rows(lambda f, s=s: f.diff(s), nv, p, p - 1)
        c_s = [
            slot_row([(1, (x, y, al, be)) for d, x, y in _cyclic(*t) if d == s])
            for t in triples
            for al, be in index_pairs(nv)
        ]
        bianchi2.append((d_s, c_s))
    rows += kron_rows(bianchi2, len(slots))
    basis = []
    for v in nullspace(rows, nmonos * len(slots)):
        parts: Dict[tuple, Row] = {}
        for flat, c in v.items():
            m, s = divmod(flat, len(slots))
            parts.setdefault(slots[s], {})[m] = c
        basis.append(PolyTensor4(nv, {key: from_coords(part, nv, p) for key, part in parts.items()}))
    return Space(n, p, basis)


def weyl_residuals_oracle(w: PolyTensor4) -> dict:
    """The nonzero residuals of the three constraint families, each gathered through ``get``,
    keyed as :meth:`ahmass.weyl.PolyTensor4.residuals` keys them."""
    nv = w.nv
    gathered = []
    for nu, be in sym2_layout(nv):
        r = ExactPoly.zero(nv)
        for mu in range(nv):
            r = r + _eta_sign(mu) * w.get(mu, nu, mu, be)
        gathered.append((("trace", nu, be), r))
    triples = list(combinations(range(nv), 3))
    for mu, nu, al in triples:
        for be in range(nv):
            r = w.get(mu, nu, al, be) + w.get(nu, al, mu, be) + w.get(al, mu, nu, be)
            gathered.append((("bianchi1", (mu, nu, al), be), r))
    for si, mu, nu in triples:
        for al, be in index_pairs(nv):
            r = w.get(mu, nu, al, be).diff(si) + w.get(nu, si, al, be).diff(mu) + w.get(si, mu, al, be).diff(nu)
            gathered.append((("bianchi2", (si, mu, nu), (al, be)), r))
    return {key: r for key, r in gathered if r}

"""Reference routines for the tests of the invariant-form signatures.

The signature of the invariant form on H_p and W_p is computed in
:mod:`ahmass.harmonic` from a sparse integer Gram matrix that pairs only
basis vectors sharing a unit coordinate.  The oracles here are the
pairwise route: the form evaluated on every pair of basis vectors
(:func:`invariant_form_q` on H_p, :func:`tensor4_q` on W_p), a dense
Gram matrix, and the congruence diagonalization with ``Fraction``
updates on full symmetric rows (:func:`fraction_signature`).
"""

from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from ahmass.harmonic import monomial_weight
from ahmass.weyl import PolyTensor4, _eta_sign, index_pairs


def tensor4_q(w1: PolyTensor4, w2: PolyTensor4) -> Fraction:
    """Full eta-contraction on the slots, weighted monomial form on the
    coefficients; diagonal on stored coordinates."""
    total = Fraction(0)
    pairs = index_pairs(w1.nv)
    for (a, b), p1 in w1.comp.items():
        p2 = w2.comp.get((a, b))
        if p2 is None:
            continue
        mu, nu = pairs[a]
        al, be = pairs[b]
        sgn = _eta_sign(mu) * _eta_sign(nu) * _eta_sign(al) * _eta_sign(be)
        mult = 4 * (2 if a != b else 1)
        for e, c1 in p1.terms.items():
            c2 = p2.terms.get(e)
            if c2:
                total = total + c1 * c2 * monomial_weight(e) * sgn * mult
    return total


def pairwise_gram(basis: Sequence, form: Callable) -> List[List[Fraction]]:
    """Dense Gram matrix of ``form`` on every pair of basis vectors."""
    d = len(basis)
    gram = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            gram[i][j] = gram[j][i] = form(basis[i], basis[j])
    return gram


def fraction_signature(gram: Sequence[Sequence]) -> Tuple[int, int, int]:
    """(n+, n-, n0) of a dense symmetric rational matrix by congruence in ``Fraction`` arithmetic.

    A diagonal pivot d (sparsest row, then lowest index) is removed by
    G <- G - r r^T / d; when every diagonal entry is zero, e_i -> e_i + e_j
    makes G[i][i] = 2 G[i][j] nonzero.
    """
    G = {i: {j: Fraction(v) for j, v in enumerate(row) if v} for i, row in enumerate(gram)}
    G = {i: r for i, r in G.items() if r}

    def add(r, f, row):
        for c, v in row.items():
            nv = r.get(c, 0) + f * v
            if nv:
                r[c] = nv
            else:
                r.pop(c, None)

    n_plus = n_minus = 0
    while G:
        diag = [i for i, r in G.items() if i in r]
        if not diag:
            i = next(iter(G))
            rowj = G[next(iter(G[i]))]
            add(G[i], 1, rowj)
            for k, v in rowj.items():
                add(G[k], v, {i: 1})
            continue
        piv = min(diag, key=lambda i: (len(G[i]), i))
        prow = G.pop(piv)
        d = prow[piv]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for k, vk in prow.items():
            if k != piv:
                add(G[k], -vk / d, prow)
                if not G[k]:
                    del G[k]
    return n_plus, n_minus, len(gram) - n_plus - n_minus

"""Sparse exact linear algebra over Q and Q(i).

Matrices are lists of sparse rows (dict column -> coefficient).  Every
coefficient must be exact: an ``int``, a ``Fraction`` or a
``GaussianRational``; anything else, a float above all, raises
``ValueError`` (:func:`_exact`).

The elimination runs on integer rows.  Each input row is scaled once to
integer content with gcd 1 (:func:`_normalize_row`): its rational
entries become ``int`` and its Gaussian entries Gaussian rationals with
integral parts.  A pivot p clears its column from a row r by the
fraction-free update of Bareiss elimination,
r <- s r - r_c u prow with s = |p|, u = sgn p for a real pivot and
s = N(p), u = conj(p) for a Gaussian one (:func:`_eliminate`), followed
by division by the row's content.  Since u = s / p this is a positive
multiple of the rational update r - (r_c / p) prow, so every row is the
same primitive integer row that rational elimination with the same
normalisation would hold, computed with ``int`` operations only on
rational systems.  An entry is a Gaussian rational exactly when its
value is not real: where the imaginary parts of an update cancel,
Gaussian arithmetic returns an integral ``Fraction``, which the update
reads through its ``numerator`` as it reads an ``int``.  The finished
rows are handed out with ``Fraction`` in place of ``int``.

One fully reduced row-echelon form, :class:`Echelon`, serves every
solve: each of its pivot rows is nonzero only on its own pivot column
and on free columns, so the nullspace basis, the minimum-support
solution (free variables pinned to zero) and the coordinates against a
fixed spanning set are all read off its rows without further
elimination.  The Sylvester signature of a symmetric form takes the
same sparse rows and runs the same integer update with symmetric
pivots (:func:`signature_of_form`): a positive row scaling keeps the
sign of every later pivot, so its rows may be held at gcd 1 too.

Every linear system on polynomial objects takes one route: it is posed
on a basis of polynomial objects, as a rule the unit ones (one monomial,
in one stored slot of a tensor), by the maps that act on them.
:func:`_image_rows` reads the coordinates of the images
(:func:`ahmass.poly.coordinates`) into one row per coordinate, and
:func:`joint_kernel` (H_p, W_p and the highest-weight solutions) and
:func:`joint_solve` (the Weyl potential and the de Donder gauge) solve
them.  With the unit basis in the order of the monomial coordinates, the
kernel is the echelon basis of the operator on those coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, List, Sequence, Tuple

from .gaussian import GaussianRational, _exact
from .poly import coordinates

Row = Dict[int, object]


def _normalize_row(row: Row) -> Row:
    """The row scaled by a positive rational to integer content with gcd 1.

    Rational entries become ``int``, Gaussian entries Gaussian rationals
    with integral parts; zero entries are dropped, and a zero row gives
    ``{}``.
    """
    row = {k: c for k, c in ((k, _exact(c)) for k, c in row.items()) if c}
    parts = []
    for c in row.values():
        if isinstance(c, GaussianRational):
            parts += (c.re, c.im)
        else:
            parts.append(c)
    scale = lcm(*(q.denominator for q in parts))
    g = gcd(*(q.numerator * (scale // q.denominator) for q in parts))
    if not g:
        return {}

    def integral(q: Fraction) -> int:
        return q.numerator * (scale // q.denominator) // g

    return {
        k: GaussianRational(integral(c.re), integral(c.im)) if isinstance(c, GaussianRational) else integral(c)
        for k, c in row.items()
    }


def _add_multiple(r: Row, f, row: Row):
    """``r += f * row`` in place, dropping the entries that cancel."""
    for c, v in row.items():
        nv = r.get(c, 0) + f * v
        if nv:
            r[c] = nv
        else:
            r.pop(c, None)


def _eliminate(r: Row, col: int, prow: Row) -> Row:
    """Integer row ``r`` with column ``col`` cleared by the integer pivot row ``prow``.

    r <- s r - r_col u prow with s = |p|, u = sgn p for a real pivot
    p = prow[col] and s = N(p), u = conj(p) for a Gaussian one, then the
    row divided by its content.  u = s / p, so this is s (r - (r_col / p) prow).
    """
    p = prow[col]
    if type(p) is GaussianRational:
        s, u = p.norm2().numerator, p.conjugate()
    else:
        p = p.numerator
        s, u = (p, 1) if p > 0 else (-p, -1)
    f = -r[col] * u
    if s != 1:
        r = {c: s * v for c, v in r.items()}
    _add_multiple(r, f, prow)
    g = 0
    for v in r.values():
        g = gcd(g, v.re.numerator, v.im.numerator) if type(v) is GaussianRational else gcd(g, v.numerator)
        if g == 1:
            return r
    return {c: GaussianRational(v.re / g, v.im / g) if type(v) is GaussianRational else v // g for c, v in r.items()}


class Echelon:
    """Fully reduced row-echelon form of a sparse matrix.

    The forward pass picks pivot columns left to right (deterministic);
    among the rows available for a pivot the sparsest is used to limit
    fill-in.  The backward pass then clears every pivot column from the
    earlier pivot rows, so each row of ``pivots`` is nonzero only on its
    own pivot column and on free columns.  Both passes run on integer
    rows (:func:`_eliminate`); ``pivots`` holds each row at integer
    content with gcd 1, its rational entries as ``Fraction``, so that its
    readers divide exactly.  An entry on a column outside
    ``range(ncols)`` raises ``ValueError``.
    """

    def __init__(self, rows: Sequence[Row], ncols: int):
        self.ncols = ncols
        pivots: List[Tuple[int, Row]] = []  # (pivot column, reduced row)
        work = [_normalize_row(r) for r in rows if r]
        # column -> list of active row ids
        by_col: Dict[int, set] = {}
        for idx, r in enumerate(work):
            for c in r:
                by_col.setdefault(c, set()).add(idx)
        if by_col and not (0 <= min(by_col) and max(by_col) < ncols):
            raise ValueError(f"entry on a column outside range({ncols})")
        active = set(range(len(work)))

        for col in range(ncols):
            holders = [
                i for i in by_col.get(col, ()) if i in active and col in work[i]
            ]
            if not holders:
                continue
            piv = min(holders, key=lambda i: (len(work[i]), i))
            prow = work[piv]
            active.discard(piv)
            for i in holders:
                if i == piv or i not in active:
                    continue
                # entries for columns that cancel go stale; ``holders`` skips them
                for c in prow:
                    by_col.setdefault(c, set()).add(i)
                work[i] = _eliminate(work[i], col, prow)
            pivots.append((col, prow))
        # rows never touched by a pivot are identically zero by now
        self.pivot_cols = [c for c, _ in pivots]

        # Backward pass, last pivot first: the later rows are reduced
        # already, so eliminating with one of them clears its pivot
        # column and adds entries on free columns only.
        where = {c: k for k, c in enumerate(self.pivot_cols)}
        for k in range(len(pivots) - 1, -1, -1):
            col, r = pivots[k]
            for h in [c for c in r if c != col and c in where]:
                r = _eliminate(r, h, pivots[where[h]][1])
            pivots[k] = (col, r)
        self.pivots = [
            (col, {c: Fraction(v) if type(v) is int else v for c, v in r.items()}) for col, r in pivots
        ]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> List[int]:
        pc = set(self.pivot_cols)
        return [c for c in range(self.ncols) if c not in pc]


def nullspace(rows: Sequence[Row], ncols: int) -> List[Row]:
    """Exact basis of the right kernel, one vector per free column.

    Vector ``j`` is 1 on the ``j``-th free column and 0 on every other
    free column, which it lists first; its pivot entries are read off
    the reduced rows of :class:`Echelon` by one exact division each.
    The basis is therefore the unique one in echelon position, whatever
    the route of the elimination, and its vectors are independent.  Its
    entries are ``Fraction`` on a rational system (never a float, even
    when every input is an ``int``), and ``GaussianRational`` only where
    the value is not real.
    """
    ech = Echelon(rows, ncols)
    basis = {f: {f: Fraction(1)} for f in ech.free_columns()}
    for col, prow in reversed(ech.pivots):
        pval = prow[col]
        for c, v in prow.items():
            if c != col:
                basis[c][col] = -v / pval
    return list(basis.values())


def _image_rows(basis: Sequence, maps: Sequence) -> Dict[Hashable, Row]:
    """One row per coordinate of the images f_k(basis[j]), keyed (k, coordinate of
    :func:`ahmass.poly.coordinates`) in the order first met, with column j for basis[j]."""
    rows: Dict[Hashable, Row] = {}
    for j, b in enumerate(basis):
        for k, f in enumerate(maps):
            for coord, v in coordinates(f(b)):
                rows.setdefault((k, coord), {})[j] = v
    return rows


def joint_kernel(basis: Sequence, maps: Sequence) -> List[Row]:
    """Exact basis of the coefficient rows c with sum_j c_j f(basis[j]) = 0 for every map f.

    The equations are :func:`_image_rows`; the result is the echelon basis
    of :func:`nullspace`, with no maps one unit row per basis element.
    """
    return nullspace(list(_image_rows(basis, maps).values()), len(basis))


def joint_solve(basis: Sequence, maps: Sequence, targets: Sequence) -> Row:
    """The coefficients c with sum_j c_j f_k(basis[j]) = targets[k] for every map f_k, zero on free columns.

    The rows are :func:`_image_rows`, then the coordinates found only in a
    target; :func:`solve_min_support` solves them (``ValueError`` when no
    combination meets the targets).
    """
    rows = _image_rows(basis, maps)
    rhs = {(k, coord): v for k, target in enumerate(targets) for coord, v in coordinates(target)}
    rows.update({key: {} for key in rhs if key not in rows})
    return solve_min_support(list(rows.values()), len(basis), [rhs.get(key, 0) for key in rows])


def rank(rows: Sequence[Row], ncols: int) -> int:
    return Echelon(rows, ncols).rank


def matvec(rows: Sequence[Row], vec: Row) -> Row:
    out: Row = {}
    for i, r in enumerate(rows):
        s = 0
        for c, coef in r.items():
            val = vec.get(c)
            if val is not None:
                s = s + coef * val
        if s:
            out[i] = s
    return out


def solve_min_support(rows: Sequence[Row], ncols: int, rhs: Sequence) -> Row:
    """Solve ``A x = b`` exactly, pinning all free variables to zero.

    Raises ``ValueError`` when the system is inconsistent or ``rhs`` does
    not hold one entry per row.  The echelon form of ``[A | b]`` fixes
    which variables are free; each pivot variable is read off its reduced
    row.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        b = rhs[i]
        if b:
            row[ncols] = b
        aug.append(row)
    ech = Echelon(aug, ncols + 1)
    if ech.pivot_cols and ech.pivot_cols[-1] == ncols:
        raise ValueError("inconsistent linear system")
    return {col: prow[ncols] / prow[col] for col, prow in reversed(ech.pivots) if ncols in prow}


class SpanSolver:
    """Coordinates of vectors in the span of a fixed list of independent vectors.

    The spanning vectors are echelonized once, input ``j`` with a 1
    appended on tag column ``j``, so the tag part of each reduced row
    records which combination of the inputs it is.  A query is read off
    the pivot rows at its pivot entries.  Used for membership tests and
    for expressing the image of an operator back in a chosen basis.
    """

    def __init__(self, vectors: Sequence[Row]):
        tag = 1 + max((c for v in vectors for c in v), default=-1)
        tagged = [{**v, tag + j: Fraction(1)} for j, v in enumerate(vectors)]
        ech = Echelon(tagged, tag + len(vectors))
        if ech.rank and ech.pivot_cols[-1] >= tag:
            raise ValueError("spanning set is linearly dependent")
        # pivot column -> (vector part, combination of the inputs)
        self.rows: Dict[int, Tuple[Row, Row]] = {
            col: (
                {c: v for c, v in prow.items() if c < tag},
                {c - tag: v for c, v in prow.items() if c >= tag},
            )
            for col, prow in ech.pivots
        }

    def _project(self, vec: Row) -> Tuple[Row, Row]:
        """(``vec`` minus its projection on the span, coordinates of the projection)."""
        residue: Row = dict(vec)
        coords: Row = {}
        for col, val in vec.items():
            if col in self.rows:
                part, combo = self.rows[col]
                f = val / part[col]
                _add_multiple(residue, -f, part)
                _add_multiple(coords, f, combo)
        return residue, coords

    def coordinates(self, vec: Row) -> Row:
        """Express ``vec`` in the spanning set; raises if not in the span."""
        residue, coords = self._project(vec)
        if residue:
            raise ValueError("vector not in span")
        return coords

    def contains(self, vec: Row) -> bool:
        return not self._project(vec)[0]


def signature_of_form(rows: Sequence[Row]) -> Tuple[int, int, int]:
    """Sylvester signature (n+, n-, n0) of a symmetric rational matrix given by its sparse rows.

    ``rows[i]`` maps column j to the entry (i, j), as the rows of
    :class:`Echelon` do; absent entries are zero.  Every stored entry is
    checked: it must be exact (:func:`_exact`) and real, and a nonzero
    entry must have an equal mirror entry (j, i); ``ValueError``
    otherwise.

    Exact symmetric elimination on integer rows.  Scaling a row by a
    positive number commutes with the elimination and keeps the sign of
    every diagonal pivot, so each row is held at integer content with gcd
    1 (:func:`_normalize_row`) and updated by :func:`_eliminate`.  A
    diagonal pivot d (sparsest row, then lowest index) counts to n+ or
    n- by its sign and clears its column from the rows it touches: the
    Schur complement G - r r^T / d, row by row.  When every diagonal
    entry is zero, an entry G[i][j] and its mirror pivot a block
    [[0, b], [b, 0]], which counts once to each of n+ and n-; row i
    clears column j and row j column i from the rows they touch.  Rows
    that empty out span the radical.
    """
    size = len(rows)
    G: Dict[int, Row] = {}
    for i, row in enumerate(rows):
        for j, entry in row.items():
            v = _exact(entry)
            if isinstance(v, GaussianRational):
                raise ValueError("signature_of_form needs a real symmetric matrix")
            if v:
                if not 0 <= j < size or rows[j].get(i) != entry:
                    raise ValueError("non-symmetric input")
                G.setdefault(i, {})[j] = v
    G = {i: _normalize_row(r) for i, r in G.items()}

    def clear(col: int, prow: Row, holders):
        """Clear column ``col`` by ``prow`` from the rows ``holders``, the support of row ``col``."""
        for k in holders:
            if k in G:
                G[k] = _eliminate(G[k], col, prow)
                if not G[k]:
                    del G[k]

    n_plus = n_minus = 0
    while G:
        diag = [i for i, r in G.items() if i in r]
        if diag:
            piv = min(diag, key=lambda i: (len(G[i]), i))
            prow = G.pop(piv)
            if prow[piv] > 0:
                n_plus += 1
            else:
                n_minus += 1
            clear(piv, prow, prow)
        else:
            i = next(iter(G))
            j = next(iter(G[i]))
            rowi, rowj = G.pop(i), G.pop(j)
            n_plus += 1
            n_minus += 1
            clear(j, rowi, rowj)  # row i is zero on column i
            clear(i, rowj, rowi)  # and row j on column j
    return n_plus, n_minus, size - n_plus - n_minus


def dense_to_rows(mat: Sequence[Sequence]) -> List[Row]:
    return [{j: v for j, v in enumerate(r) if v} for r in mat]

"""Reference routines for the tests of :mod:`ahmass.linalg`.

:class:`FractionEchelon` is the elimination with ``Fraction`` updates:
each row is cleared as r - (r_c / p) prow in rational (or Q(i))
arithmetic and then rescaled to integer content with gcd 1.  It is the
oracle of the integer-row :class:`ahmass.linalg.Echelon`, whose
fraction-free update must give the same pivot columns and the same
pivot rows, in value and coefficient type; :func:`on_oracle` runs the
readers of an echelon form (``nullspace``, ``solve_min_support``,
``SpanSolver``) on it.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple
from unittest import mock

from ahmass import linalg
from ahmass.gaussian import GaussianRational

Row = Dict[int, object]


def _exact(c):
    return c if isinstance(c, (GaussianRational, Fraction)) else Fraction(c)


def _normalize_row(row: Row) -> Row:
    """Scale a row to integer content with gcd 1 (sign left alone), entries kept as Fraction."""
    if not row:
        return row
    row = {k: _exact(c) for k, c in row.items()}
    dens = []
    for c in row.values():
        if isinstance(c, GaussianRational):
            dens += [c.re.denominator, c.im.denominator]
        else:
            dens.append(c.denominator)
    scale = 1
    for d in dens:
        scale = scale * d // gcd(scale, d)
    nums = []
    for c in row.values():
        if isinstance(c, GaussianRational):
            nums += [int(c.re * scale), int(c.im * scale)]
        else:
            nums.append(int(c * scale))
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    if g == 0:
        return {}
    factor = Fraction(scale, g)
    if factor == 1:
        return row
    return {k: c * factor for k, c in row.items()}


def _add_multiple(r: Row, f, row: Row):
    for c, v in row.items():
        nv = r.get(c, 0) + f * v
        if nv:
            r[c] = nv
        else:
            r.pop(c, None)


class FractionEchelon:
    """Fully reduced row-echelon form by ``Fraction`` updates, with the pivot order of ``Echelon``."""

    def __init__(self, rows: Sequence[Row], ncols: int):
        self.ncols = ncols
        self.pivots: List[Tuple[int, Row]] = []
        work = [_normalize_row(dict(r)) for r in rows if r]
        by_col: Dict[int, set] = {}
        for idx, r in enumerate(work):
            for c in r:
                by_col.setdefault(c, set()).add(idx)
        active = set(range(len(work)))
        for col in range(ncols):
            holders = [i for i in by_col.get(col, ()) if i in active and col in work[i]]
            if not holders:
                continue
            piv = min(holders, key=lambda i: (len(work[i]), i))
            prow = work[piv]
            pval = prow[col]
            active.discard(piv)
            for i in holders:
                if i == piv or i not in active:
                    continue
                r = work[i]
                _add_multiple(r, -r[col] / pval, prow)
                for c in prow:
                    by_col.setdefault(c, set()).add(i)
                work[i] = _normalize_row(r)
            self.pivots.append((col, prow))
        self.pivot_cols = [c for c, _ in self.pivots]
        where = {c: k for k, c in enumerate(self.pivot_cols)}
        for k in range(len(self.pivots) - 1, -1, -1):
            col, r = self.pivots[k]
            hits = [c for c in r if c != col and c in where]
            for h in hits:
                prow = self.pivots[where[h]][1]
                _add_multiple(r, -r[h] / prow[h], prow)
            if hits:
                self.pivots[k] = (col, _normalize_row(r))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> List[int]:
        pc = set(self.pivot_cols)
        return [c for c in range(self.ncols) if c not in pc]


@contextmanager
def on_oracle():
    """Run every reader of :class:`ahmass.linalg.Echelon` on :class:`FractionEchelon` instead."""
    with mock.patch.object(linalg, "Echelon", FractionEchelon):
        yield

"""Exact dense linear algebra on graded pieces.

All routines work over an exact field (rationals or F_p), use plain
Gaussian elimination with first-nonzero pivoting, and return canonical
reduced row echelon data so every downstream basis choice is
deterministic.  Matrices are lists of row lists.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass


@dataclass
class RowReduction:
    rank: int
    pivots: tuple
    rref: list
    kernel: list


def row_reduce(matrix, ncols=None, field=None):
    """Canonical RREF of `matrix`; returns rank, pivot columns, kernel basis.

    The kernel basis is read off the reduced form (one vector per free
    column, in ascending column order) so it is exact and canonical:
    rank + len(kernel) == ncols.
    """
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    one = field.one()
    zero = field.zero()
    rref = [list(row) for row in matrix]
    nrows = len(rref)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rref[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rref[r], rref[pr] = rref[pr], rref[r]
        prow = rref[r]
        pv = prow[c]
        if pv != one:
            inv = one / pv
            for k in range(c, ncols):
                if prow[k]:
                    prow[k] = prow[k] * inv
        for i in range(nrows):
            if i == r:
                continue
            row = rref[i]
            m = row[c]
            if not m:
                continue
            for k in range(c, ncols):
                b = prow[k]
                if b:
                    row[k] = row[k] - m * b
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    kernel = []
    pivot_set = set(pivots)
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for i, p in enumerate(pivots):
            if p < f and rref[i][f]:
                v[p] = -rref[i][f]
        kernel.append(v)
    return RowReduction(len(pivots), tuple(pivots), rref[: len(pivots)], kernel)


class Echelon:
    """Incremental row echelon accumulator (unit pivots, forward-reduced).

    Supports membership tests and span growth; used for submodule spans,
    cokernel dimensions and complement extraction.
    """

    __slots__ = ("ncols", "field", "rows", "pivot_of_row")

    def __init__(self, ncols, field):
        self.ncols = ncols
        self.field = field
        self.rows = []
        self.pivot_of_row = []

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, vec):
        """Reduce `vec` against the stored rows; returns a fresh vector."""
        v = list(vec)
        n = self.ncols
        for row, p in zip(self.rows, self.pivot_of_row):
            m = v[p]
            if not m:
                continue
            for k in range(p, n):
                b = row[k]
                if b:
                    v[k] = v[k] - m * b
        return v

    def contains(self, vec):
        return not any(self.residue(vec))

    def add(self, vec):
        """Insert `vec`'s residue; returns True when the rank grows."""
        v = self.residue(vec)
        p = None
        for k in range(self.ncols):
            if v[k]:
                p = k
                break
        if p is None:
            return False
        pv = v[p]
        one = self.field.one()
        if pv != one:
            inv = one / pv
            for k in range(p, self.ncols):
                if v[k]:
                    v[k] = v[k] * inv
        # keep rows ordered by pivot column
        where = bisect(self.pivot_of_row, p)
        self.rows.insert(where, v)
        self.pivot_of_row.insert(where, p)
        return True


def complement_basis(span, space, ncols, field):
    """Vectors from `space` extending a basis of span(span) to span(space).

    Deterministic first-fit in the given order of `space`.  Raises
    ValueError when some `span` vector is not contained in span(space).
    """
    check = Echelon(ncols, field)
    for v in space:
        check.add(v)
    ech = Echelon(ncols, field)
    for v in span:
        if not check.contains(v):
            raise ValueError("span vector lies outside the span of `space`")
        ech.add(v)
    out = []
    for v in space:
        if ech.add(v):
            out.append(v)
    return out


def solve(rows, ncols, rhs, field):
    """One exact solution of (rows) * x = rhs, or None when inconsistent.

    Free variables are set to zero; the solution is canonical.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red = row_reduce(aug, ncols + 1, field)
    zero = field.zero()
    x = [zero] * ncols
    for i, p in enumerate(red.pivots):
        if p == ncols:
            return None
        x[p] = red.rref[i][ncols]
    return x

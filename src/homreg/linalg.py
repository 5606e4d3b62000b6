"""Exact dense linear algebra on graded pieces.

All routines work over an exact field (rationals or F_p) and return
canonical data, so every downstream basis choice is deterministic.
Matrices are lists of row lists.  There is one elimination loop,
`Echelon.residue`/`Echelon.add`: rows with unit pivots, kept in pivot
order.  `row_reduce` back-substitutes its rows to the unique reduced row
echelon form, `complement_basis` is first-fit insertion into one
`Echelon`, and `solve` reads the reduced augmented matrix.
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

    The rows go into one `Echelon`, whose rows are then back-substituted
    against the rows below them; the reduced row echelon form is unique,
    so the result does not depend on the row order.  The kernel basis is
    read off the reduced form (one vector per free column, in ascending
    column order) so it is exact and canonical: rank + len(kernel) == ncols.
    """
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    ech = Echelon(ncols, field)
    for row in matrix:
        ech.add(row)
    rref, pivots = ech.rows, ech.pivot_of_row
    for i in range(len(rref) - 2, -1, -1):
        rref[i] = ech.residue(rref[i], i + 1)
    one = field.one()
    zero = field.zero()
    kernel = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = [zero] * ncols
        v[f] = one
        for i, p in enumerate(pivots):
            if rref[i][f]:
                v[p] = -rref[i][f]
        kernel.append(v)
    return RowReduction(len(pivots), tuple(pivots), rref, kernel)


class Echelon:
    """Incremental row echelon accumulator (unit pivots, forward-reduced).

    Supports membership tests and span growth; the one elimination loop
    behind row reduction, ranks, submodule spans, cokernel dimensions and
    complement extraction.
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

    def residue(self, vec, start=0):
        """Reduce `vec` against the stored rows from index `start` on.

        Returns a fresh vector.  The rows are visited in pivot order, so
        the residue is zero in every pivot column of the rows visited.
        """
        v = list(vec)
        n = self.ncols
        for row, p in zip(self.rows[start:], self.pivot_of_row[start:]):
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

    Deterministic first-fit in the given order of `space`, which must be
    linearly independent (callers pass kernel bases or unit vectors).
    Raises ValueError when span + space does not have rank len(space):
    some `span` vector lies outside span(space), or `space` is dependent.
    """
    ech = Echelon(ncols, field)
    for v in span:
        ech.add(v)
    out = [v for v in space if ech.add(v)]
    if ech.rank != len(space):
        raise ValueError("span + space has rank %d, not len(space) = %d" % (ech.rank, len(space)))
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

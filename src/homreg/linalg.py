"""Exact sparse linear algebra on graded pieces.

All routines work over an exact field (rationals or F_p) and return
canonical data, so every downstream basis choice is deterministic.
A coordinate vector is a dict {column: coefficient}; absent columns are
zero, and inputs may also hold explicit zeros.  A matrix is a list of
such rows.  The coefficients are the field's scalars (see `corealg`):
plain ints in [0, p) over F_p, where the field's `modulus` is p; over Q
(`modulus` 0) ints where integral and `Fraction`s otherwise, so integral
values cost no gcd.  Results are in the same representation.

There is one elimination loop for both fields, `Echelon.residue`/
`Echelon.add`: rows with unit pivots and no stored zeros, keyed by pivot
column.  `reduced_form` back-substitutes them to the unique reduced row
echelon form of some leading columns (all of them in `row_reduce`),
`complement_basis` is first-fit insertion into one `Echelon`, and `solve`
reads the reduced augmented matrix.

`row_reduce`, `RowReduction`, `complement_basis` and `solve` stay only
because `perfbench/layertrace.py` wraps them and `tests/oracles.py` uses
them as references; the one library caller, `constructions._solve_witness`
through `solve`, can solve on an `Echelon` instead.  ROADMAP items 5 and
12 delete them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .corealg import Record, integral


class RowReduction(Record, frozen=False):
    rank: int
    pivots: tuple
    rref: list
    kernel: list


def row_reduce(matrix, ncols, field):
    """Canonical RREF of `matrix`; returns rank, pivot columns, kernel basis.

    The rows go into one `Echelon`, reduced by `reduced_form`; the reduced
    row echelon form is unique, so the result does not depend on the row
    order, and so is the kernel basis read off it: rank + len(kernel) == ncols.
    """
    pivots, rref, kernel = reduced_form(Echelon(field, matrix), ncols)
    return RowReduction(len(pivots), tuple(pivots), rref, list(kernel.values()))


def reduced_form(ech, ncols):
    """Pivots, reduced rows and kernel of the columns below `ncols` of `ech`'s rows.

    The rows pivoted there, cut to those columns, are an echelon form of
    them; each is back-substituted against the rows below it.  The kernel
    is {free column: vector} in ascending order, one vector per free
    column: 1 there, else nonzero only in pivot columns left of it.
    """
    rows = ech.rows
    pivots = sorted(p for p in rows if p < ncols)
    for p in reversed(pivots):
        rows[p] = ech.residue({k: c for k, c in rows[p].items() if k < ncols}, p)
    rref = [rows[p] for p in pivots]
    modulus = ech.modulus
    kernel = {f: {f: 1} for f in range(ncols) if f not in rows}
    # a reduced row is nonzero only in its pivot and in free columns
    for row, p in zip(rref, pivots):
        for f, c in row.items():
            if f != p:
                kernel[f][p] = modulus - c if modulus else -c
    return pivots, rref, kernel


class Echelon:
    """Incremental row echelon accumulator (unit pivots, forward-reduced).

    Supports membership tests and span growth; the one elimination loop
    behind row reduction, ranks, submodule spans, cokernel dimensions and
    complement extraction.
    """

    __slots__ = ("modulus", "rows")

    def __init__(self, field, vectors=()):
        self.modulus = field.modulus
        self.rows = {}  # pivot column -> row, whose least key is the pivot
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, vec, above=-1):
        """Reduce `vec` against the stored rows whose pivot exceeds `above`.

        Returns a fresh vector without zero values.  Rows are applied in
        increasing pivot order, each only where its pivot column is
        nonzero, so the residue is zero in every pivot column above `above`.
        Over F_p the values grow as plain ints: a multiplier is reduced
        mod p when its pivot is popped, and the residue once on return.
        """
        rows = self.rows
        modulus = self.modulus
        v = {k: c for k, c in vec.items() if c}
        todo = [k for k in v if k > above and k in rows]
        heapify(todo)
        while todo:
            p = heappop(todo)
            m = v.get(p)
            if m is None:
                continue
            if modulus:
                m %= modulus
                if not m:
                    del v[p]
                    continue
            for k, b in rows[p].items():
                c = v.get(k)
                if c is None:
                    v[k] = -m * b
                    if k in rows:
                        heappush(todo, k)
                else:
                    c = c - m * b
                    if c:
                        v[k] = c
                    else:
                        del v[k]
        return reduced(v, modulus)

    def add(self, vec):
        """Insert `vec`'s residue; returns True when the rank grows."""
        v = self.residue(vec)
        if not v:
            return False
        p = min(v)
        pv = v[p]
        modulus = self.modulus
        if pv != 1:
            if modulus:
                inv = pow(pv, -1, modulus)
                v = {k: c * inv % modulus for k, c in v.items()}
            elif pv == -1:
                v = {k: -c for k, c in v.items()}
            else:  # not c / pv, which is a float for two ints
                v = {k: integral(Fraction(c, pv)) for k, c in v.items()}
        self.rows[p] = v
        return True


def reduced(vec, modulus):
    """`vec` with its values reduced mod p and zeros dropped over F_p; as is over Q."""
    if modulus:
        return {k: r for k, c in vec.items() if (r := c % modulus)}
    return vec


def complement_basis(span, space, field):
    """Vectors from `space` extending a basis of span(span) to span(space).

    Deterministic first-fit in the given order of `space`, which must be
    linearly independent (callers pass kernel bases or unit vectors).
    Raises ValueError when span + space does not have rank len(space):
    some `span` vector lies outside span(space), or `space` is dependent.
    """
    ech = Echelon(field, span)
    out = [v for v in space if ech.add(v)]
    if ech.rank != len(space):
        raise ValueError("span + space has rank %d, not len(space) = %d" % (ech.rank, len(space)))
    return out


def solve(rows, ncols, rhs, field):
    """One exact solution x of (rows) * x = rhs, or None when inconsistent.

    `rhs` maps row index to value.  Free variables are set to zero; the
    solution is canonical.
    """
    aug = [dict(row) for row in rows]
    for t, b in rhs.items():
        aug[t][ncols] = b
    red = row_reduce(aug, ncols + 1, field)
    x = {}
    for row, p in zip(red.rref, red.pivots):
        if p == ncols:
            return None
        if ncols in row:
            x[p] = row[ncols]
    return x

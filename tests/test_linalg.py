import random
from fractions import Fraction

import pytest

from homreg.corealg import parse_field
from homreg.linalg import Echelon, complement_basis, row_reduce, solve
from oracles import reference_row_reduce, reference_solve, scalar

QQ = parse_field("Q")
F101 = parse_field("F101")


def sparse(row):
    """The dict vector of a dense list: its nonzero entries by column."""
    return {k: x for k, x in enumerate(row) if x}


def dense(vec, n, field):
    """The dense list of a dict vector, for the independent checks below."""
    out = [scalar(field, 0)] * n
    for k, x in vec.items():
        out[k] = x
    return out


def q(rows):
    return [sparse([Fraction(x) for x in row]) for row in rows]


def test_identity_full_rank():
    red = row_reduce(q([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3, QQ)
    assert red.rank == 3
    assert red.kernel == []
    assert red.pivots == (0, 1, 2)


def test_zero_matrix():
    red = row_reduce(q([[0, 0, 0, 0], [0, 0, 0, 0]]), 4, QQ)
    assert red.rank == 0
    assert len(red.kernel) == 4


def test_proportional_rows():
    red = row_reduce(q([[1, 2], [2, 4]]), 2, QQ)
    assert red.rank == 1
    (v,) = red.kernel
    assert v == {0: Fraction(-2), 1: Fraction(1)}


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(101) for _ in range(m)] for _ in range(n)]
        red = row_reduce([sparse(row) for row in rows], m, F101)
        assert red.rank + len(red.kernel) == m
        for v in red.kernel:
            for row in rows:
                assert sum(a * b for a, b in zip(row, dense(v, m, F101))) % 101 == 0
        # rank equals the rank of the transpose
        cols = [sparse([rows[i][j] for i in range(n)]) for j in range(m)]
        assert row_reduce(cols, n, F101).rank == red.rank


def test_rref_is_canonical():
    rows = q([[2, 4, 6], [1, 2, 5]])
    red = row_reduce(rows, 3, QQ)
    assert red.rref == [{0: Fraction(1), 1: Fraction(2)}, {2: 1}] or red.rref == q(
        [[1, 2, 0], [0, 0, 1]]
    )


def test_complement_basis_examples():
    e1 = {0: Fraction(1)}
    e2 = {1: Fraction(1)}
    assert complement_basis([], [e1, e2], QQ) == [e1, e2]
    assert complement_basis([e1], [e1, e2], QQ) == [e2]
    assert complement_basis([e1, e2], [e1, e2], QQ) == []
    with pytest.raises(ValueError):
        complement_basis([e1], [e2], QQ)
    # `space` must be linearly independent
    with pytest.raises(ValueError):
        complement_basis([], [e1, e2, {0: Fraction(1), 1: Fraction(1)}], QQ)


def test_complement_is_first_fit_deterministic():
    v1 = q([[1, 1, 0]])[0]
    space = q([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    out = complement_basis([v1], space, QQ)
    # first-fit keeps e1 (independent of the span) and e3, never e2
    assert out == [space[0], space[2]]


def test_solve():
    rows = q([[1, 2], [0, 1]])
    x = solve(rows, 2, {0: Fraction(5), 1: Fraction(2)}, QQ)
    assert x == {0: Fraction(1), 1: Fraction(2)}
    assert solve(q([[1, 1], [1, 1]]), 2, {0: Fraction(0), 1: Fraction(1)}, QQ) is None


def test_echelon_membership():
    ech = Echelon(QQ)
    assert ech.add(q([[1, 2, 0]])[0])
    assert not ech.add(q([[2, 4, 0]])[0])
    assert ech.add(q([[0, 0, 5]])[0])
    assert ech.rank == 2
    assert not ech.residue(q([[3, 6, 5]])[0])
    assert ech.residue(q([[0, 1, 0]])[0])


def test_echelon_explicit_zeros_and_cancellation():
    z, one = Fraction(0), Fraction(1)
    ech = Echelon(QQ)
    # explicit zeros are not entries: the pivot is the least nonzero key
    assert ech.add({0: z, 3: Fraction(2), 1: z, 2: Fraction(4)})
    assert ech.rows == {2: {2: one, 3: Fraction(1, 2)}}
    # a vector that cancels to zero adds nothing and leaves no zero value
    cancel = {5: z, 2: Fraction(-2), 3: Fraction(-1)}
    assert ech.residue(cancel) == {}
    assert not ech.add(cancel)
    assert ech.rank == 1
    assert ech.add({4: z, 3: Fraction(3), 0: z})
    assert sorted(ech.rows) == [2, 3]
    assert ech.residue({2: one, 0: z}) == {}


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_echelon_residue_has_no_zero_values(field):
    rng = random.Random("zeros-%s" % field)
    for _ in range(30):
        n = rng.randrange(1, 8)
        ech = Echelon(field)
        for _ in range(rng.randrange(1, 10)):
            vec = {k: scalar(field, rng.randrange(-2, 3)) for k in rng.sample(range(n), rng.randrange(n + 1))}
            res = ech.residue(vec)
            assert all(res.values())
            rank = ech.rank
            assert ech.add(vec) == bool(res)
            if res:
                p = min(res)
                assert ech.rank == rank + 1
                assert min(ech.rows[p]) == p and ech.rows[p][p] == 1
        assert all(all(row.values()) for row in ech.rows.values())


def _rank(rows, field):
    """Rank by plain Gaussian elimination, independent of homreg.linalg."""
    p = field.modulus
    rows = [[x % p if p else Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if p:
                f = rows[i][c] * pow(rows[rank][c], -1, p)
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
            else:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("shape", ["tall", "wide", "zero", "repeated"])
def test_rref_properties_random(field, shape):
    rng = random.Random("%s-%s" % (field, shape))
    for _ in range(30):
        m = rng.randrange(1, 7)
        n = {"tall": m + rng.randrange(1, 5), "wide": rng.randrange(1, m + 1)}.get(shape, rng.randrange(1, 7))
        rows = [[scalar(field, rng.randrange(-3, 4)) for _ in range(m)] for _ in range(n)]
        if shape == "zero":
            rows[rng.randrange(n)] = [scalar(field, 0)] * m
        elif shape == "repeated":
            rows.append(list(rng.choice(rows)))
            rows.insert(0, [scalar(field, x * 2) for x in rng.choice(rows)])
        red = row_reduce([sparse(row) for row in rows], m, field)
        assert red.rank == len(red.rref) == len(red.pivots)
        assert list(red.pivots) == sorted(set(red.pivots))
        for i, p in enumerate(red.pivots):
            assert red.rref[i][p] == 1
            assert min(red.rref[i]) == p
            assert all(p not in red.rref[k] for k in range(red.rank) if k != i)
        # same row space: neither side adds rank to the other
        rref = [dense(row, m, field) for row in red.rref]
        assert _rank(rows, field) == _rank(rows + rref, field) == red.rank
        assert red.rank + len(red.kernel) == m
        for v in red.kernel:
            for row in rows:
                assert scalar(field, sum(a * b for a, b in zip(row, dense(v, m, field)))) == 0


def _random_value(rng, p, zero=False):
    """A random scalar of coordinate vectors: an int in [0, p) over F_p; over
    Q (p = 0) a small int or a non-integral Fraction.  Nonzero unless `zero`."""
    if p:
        return rng.randrange(0 if zero else 1, p)
    if rng.random() < 0.5:
        return rng.choice([-1, 1, 1, 2, -3, 4, 0] if zero else [-1, 1, 1, 2, -3, 4])
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 3, 7]), rng.choice([2, 3, 4, 6]))


def _random_int_rows(rng, p, shape):
    """Random sparse rows, as plain ints over F_p (ints mixed with non-integral
    Fractions over Q, p = 0), and their column count.

    "repeated" inserts copies of rows; "cancel" appends a combination of
    rows, with its explicit zeros kept, which reduces to zero against them.
    """
    m = rng.randrange(1, 9)
    n = {"tall": m + rng.randrange(1, 6), "wide": rng.randrange(1, m + 1)}.get(shape, rng.randrange(1, 9))
    rows = []
    for _ in range(n):
        density = rng.random()
        rows.append({k: _random_value(rng, p) for k in range(m) if rng.random() < density})
    if shape == "repeated":
        for _ in range(rng.randrange(1, 4)):
            rows.insert(rng.randrange(len(rows) + 1), dict(rng.choice(rows)))
    elif shape == "cancel":
        combo = {}
        for row in rng.sample(rows, rng.randrange(1, len(rows) + 1)):
            f = _random_value(rng, p)
            for k, x in row.items():
                combo[k] = _mod(combo.get(k, 0) + f * x, p)
        rows.insert(rng.randrange(len(rows) + 1), combo)
    return rows, m


def _mod(x, p):
    return x % p if p else x


def _first_fit(span, space, m, field):
    """complement_basis by reference ranks, or None when it must raise."""
    def rank(vs):
        return reference_row_reduce(vs, m, field)[0]

    if rank(span + space) != len(space):
        return None
    out = []
    for v in space:
        if rank(span + out + [v]) > rank(span + out):
            out.append(v)
    return out


@pytest.mark.parametrize("p", [2, 5, 101, pytest.param(0, id="Q")])
@pytest.mark.parametrize("shape", ["tall", "wide", "repeated", "cancel"])
def test_int_path_matches_reference_elimination(p, shape):
    # F2 matters: -1 = 1 there, so nearly every elimination step cancels.
    # Over Q (p = 0) the rows mix ints with non-integral Fractions, and no
    # value may come back as a float (as c / pv would make of two ints)
    field = parse_field("F%d" % p) if p else QQ
    rng = random.Random("int-path-%d-%s" % (p, shape))

    def reduced_ints(vec):
        if not p:
            return all(x and type(x) in (int, Fraction) for x in vec.values())
        return all(type(x) is int and 0 < x < p for x in vec.values())

    for _ in range(40):
        rows, m = _random_int_rows(rng, p, shape)
        red = row_reduce(rows, m, field)
        assert (red.rank, red.pivots, red.rref, red.kernel) == reference_row_reduce(rows, m, field)
        assert all(reduced_ints(v) for v in red.rref + red.kernel)
        # a consistent right-hand side (rows times some x) and a random one
        x = {k: _random_value(rng, p, zero=True) for k in range(m)}
        consistent = {t: _mod(sum(c * x[k] for k, c in row.items()), p) for t, row in enumerate(rows)}
        for rhs in (consistent, {t: _random_value(rng, p, zero=True) for t in range(len(rows))}):
            sol = solve(rows, m, rhs, field)
            assert sol == reference_solve(rows, m, rhs, field)
            assert sol is None or reduced_ints(sol)
        assert solve(rows, m, consistent, field) is not None
        # complements: of the row space among unit vectors, of combinations
        # of kernel vectors inside the kernel, and of the rows among themselves
        units = [{k: 1} for k in range(m)]
        combos = []
        for _ in range(rng.randrange(3)):
            combo = {}
            for v in red.kernel:
                f = _random_value(rng, p, zero=True)
                for k, c in v.items():
                    combo[k] = _mod(combo.get(k, 0) + f * c, p)
            combos.append(combo)
        for span, space in ((rows, units), (combos, red.kernel), ([], rows)):
            want = _first_fit(span, space, m, field)
            if want is None:
                with pytest.raises(ValueError):
                    complement_basis(span, space, field)
            else:
                assert complement_basis(span, space, field) == want


def test_echelon_multipliers_stay_below_p():
    # rows e_i + 100 e_(i+1): unreduced, the multiplier at pivot i + 1 would be
    # 1 - 100 * (multiplier at i), growing past p; each is reduced when popped
    seen = []

    class Entry(int):
        def __rmul__(self, m):
            seen.append(m)
            return m * int(self)

    n = 6
    ech = Echelon(F101)
    ech.rows = {i: {i: Entry(1), i + 1: Entry(100)} for i in range(n)}
    assert ech.residue({i: 1 for i in range(n + 1)}) == {n: n + 1}
    assert len(seen) == 2 * n and all(0 < abs(m) < 101 for m in seen)

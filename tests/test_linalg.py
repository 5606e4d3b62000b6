import random
from fractions import Fraction

import pytest

from homreg.corealg import parse_field
from homreg.linalg import Echelon, complement_basis, row_reduce, solve

QQ = parse_field("Q")
F101 = parse_field("F101")


def sparse(row):
    """The dict vector of a dense list: its nonzero entries by column."""
    return {k: x for k, x in enumerate(row) if x}


def dense(vec, n, field):
    """The dense list of a dict vector, for the independent checks below."""
    out = [field.zero()] * n
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
        rows = [[F101.from_int(rng.randrange(101)) for _ in range(m)] for _ in range(n)]
        red = row_reduce([sparse(row) for row in rows], m, F101)
        assert red.rank + len(red.kernel) == m
        for v in red.kernel:
            for row in rows:
                acc = F101.zero()
                for a, b in zip(row, dense(v, m, F101)):
                    acc = acc + a * b
                assert not acc
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
            vec = {k: field.from_int(rng.randrange(-2, 3)) for k in rng.sample(range(n), rng.randrange(n + 1))}
            res = ech.residue(vec)
            assert all(res.values())
            rank = ech.rank
            assert ech.add(vec) == bool(res)
            if res:
                p = min(res)
                assert ech.rank == rank + 1
                assert min(ech.rows[p]) == p and ech.rows[p][p] == field.one()
        assert all(all(row.values()) for row in ech.rows.values())


def _rank(rows, field):
    """Rank by plain Gaussian elimination, independent of homreg.linalg."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("shape", ["tall", "wide", "zero", "repeated"])
def test_rref_properties_random(field, shape):
    rng = random.Random("%s-%s" % (field, shape))
    zero, one = field.zero(), field.one()
    for _ in range(30):
        m = rng.randrange(1, 7)
        n = {"tall": m + rng.randrange(1, 5), "wide": rng.randrange(1, m + 1)}.get(shape, rng.randrange(1, 7))
        rows = [[field.from_int(rng.randrange(-3, 4)) for _ in range(m)] for _ in range(n)]
        if shape == "zero":
            rows[rng.randrange(n)] = [zero] * m
        elif shape == "repeated":
            rows.append(list(rng.choice(rows)))
            rows.insert(0, [x * field.from_int(2) for x in rng.choice(rows)])
        red = row_reduce([sparse(row) for row in rows], m, field)
        assert red.rank == len(red.rref) == len(red.pivots)
        assert list(red.pivots) == sorted(set(red.pivots))
        for i, p in enumerate(red.pivots):
            assert red.rref[i][p] == one
            assert min(red.rref[i]) == p
            assert all(p not in red.rref[k] for k in range(red.rank) if k != i)
        # same row space: neither side adds rank to the other
        rref = [dense(row, m, field) for row in red.rref]
        assert _rank(rows, field) == _rank(rows + rref, field) == red.rank
        assert red.rank + len(red.kernel) == m
        for v in red.kernel:
            for row in rows:
                assert not sum((a * b for a, b in zip(row, dense(v, m, field))), zero)

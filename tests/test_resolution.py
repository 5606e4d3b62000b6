import inspect
import os
import random

import pytest

from homreg.corealg import (
    NEG_INF,
    CertificationError,
    Poly,
    PresentationError,
    make_module_presentation,
    opposite_presentation,
    parse_field,
    parse_presentation,
)
from homreg.cli import GOLDEN_SOURCES
from homreg.constructions import quotient_by_normal_element
from homreg.gbasis import groebner
from homreg import linalg, resolution
from homreg.regularity import AlgebraArtifacts, tor_regularity
from homreg.series import hilbert_rational, hilbert_truncated
from homreg.resolution import (
    FreeLayer,
    MappedAlgebraView,
    PresentedModuleView,
    _alternating_sum,
    _chain_bound,
    _images,
    _syzygy_step,
    betti_table,
    ext_into_algebra,
    minimal_resolution,
    module_via_map,
    multiplication_images,
    trivial_module,
)

from oracles import (
    ext_reference,
    map_entries,
    multiplication_columns,
    one,
    random_algebra_source,
    random_fdim_module,
    random_monomial_source,
    scalar,
    semisimple_module,
    shift_module,
    two_pass_syzygy_step,
    unbounded_resolution,
    word_poly,
)


def setup_algebra(src, d_gb=12):
    pres = parse_presentation(src)
    G = groebner(pres, d_gb)
    h = hilbert_rational(G) if G.complete else None
    return pres, G, h


PLANE = "field Q; gens x:1 y:1; rels x*y - y*x"
POLY4 = (
    "field Q; gens x:1 y:1 z:1 w:1; "
    "rels x*y - y*x, x*z - z*x, x*w - w*x, y*z - z*y, y*w - w*y, z*w - w*z"
)
T34 = "field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x"
SKLYANIN = (
    "field Q; gens x:1 y:1 z:1; "
    "rels 2*x*y - 3*y*x + z^2, 2*y*z - 3*z*y + x^2, 2*z*x - 3*x*z + y^2"
)
HYP = "field Q; gens x:1 t:2; rels x*t - t*x, t^2 - x^4"


def resolve_k(src, i_max=8, d_max=12):
    pres, G, h = setup_algebra(src)
    R = minimal_resolution(G, trivial_module(pres), i_max, d_max, algebra_hilbert=h)
    return pres, G, h, R


def test_trivial_module_shape():
    pres = parse_presentation(PLANE)
    k = trivial_module(pres)
    assert k.gen_degs == (0,)
    assert len(k.rows) == 2
    assert k.row_degrees == (1, 1)


def test_koszul_complex_of_plane():
    _, _, _, R = resolve_k(PLANE)
    B = betti_table(R)
    assert dict(B.entries) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert R.terminated and R.termination_step == 2
    assert [B.t(i) for i in range(3)] == [0, 1, 2]


def test_t34_betti_numbers():
    # degrees are the published table; the ranks at (2,3) and (3,4) are
    # forced by the Euler identity against h = 1/((1-t)^2(1-t^2)),
    # which the terminated resolution certifies exactly
    _, G, h, R = resolve_k(T34)
    B = betti_table(R)
    assert dict(B.entries) == {(0, 0): 1, (1, 1): 2, (2, 3): 2, (3, 4): 1}
    assert [B.t(i) for i in range(4)] == [0, 1, 3, 4]
    assert R.terminated and R.termination_step == 3 and R.certificate == "euler-exact"
    # Euler: (1 - 2t + 2t^3 - t^4) * h == 1 exactly
    alt = _alternating_sum(B.entries)
    assert alt == [1, -2, 0, 2, -1]
    from homreg.series import _pmul, _ptrim

    assert _ptrim(_pmul(alt, list(h.numerator))) == _ptrim(list(h.denominator))


def test_kx_mod_xd_tor_degrees():
    # t_n = 0; (n/2)d for even n; 1 + floor(n/2)d for odd n
    for d in (2, 3):
        pres, G, h = setup_algebra("field Q; gens x:1; rels x^%d" % d)
        R = minimal_resolution(G, trivial_module(pres), 6, 10, algebra_hilbert=h)
        B = betti_table(R)
        expected = [0 if n == 0 else (n // 2) * d + (n % 2) for n in range(7)]
        got = [B.t(n) for n in range(7)]
        want = []
        for n in range(7):
            if n == 0:
                want.append(0)
            elif n % 2 == 0:
                want.append((n // 2) * d)
            else:
                want.append(1 + (n // 2) * d)
        # entries above d_max = 10 are not computed; compare inside the window
        for n in range(7):
            if want[n] <= 10:
                assert got[n] == want[n], (d, n)
        assert not R.terminated


def test_minimality_no_scalar_entries():
    for src in (PLANE, T34):
        _, G, _, R = resolve_k(src)
        for i in range(len(R.maps)):
            for row in map_entries(R, G, i):
                for p in row:
                    if p:
                        assert p.degree >= 1
                        assert all(w for w in p.terms)


def test_maps_compose_to_zero():
    pres, G, _, R = resolve_k(T34)
    for i in range(len(R.maps) - 1):
        outer, inner = map_entries(R, G, i), map_entries(R, G, i + 1)
        nt = len(R.shifts[i])
        for s in range(len(R.shifts[i + 2])):
            for r in range(nt):
                acc = None
                for m in range(len(R.shifts[i + 1])):
                    p, q = outer[r][m], inner[m][s]
                    if p and q:
                        # left-module convention: the later map's entry
                        # multiplies from the left
                        acc = q * p if acc is None else acc + q * p
                if acc is not None and not acc.is_zero():
                    assert G.normal_form(acc).is_zero()


def test_rank_nullity_exactness_bookkeeping():
    # in every computed degree j: the next map's image has the dimension of
    # the kernel, rank(d_{i+1})_j == dim ker(d_i)_j, with d_0: F_0 -> k the
    # augmentation, and the kernel of the last map is zero (T34 terminates);
    # both read off matrices of direct normal forms
    from homreg.linalg import row_reduce

    pres, G, h, R = resolve_k(T34)
    assert R.terminated and R.termination_step == len(R.maps)
    layers = [FreeLayer(G, s) for s in R.shifts]
    rank, nullity = {}, {}
    for j in range(R.d_max + 1):
        nullity[(0, j)] = layers[0].dim(j) - (j == 0)
    for i in range(len(R.maps)):
        entries = map_entries(R, G, i)
        src, tgt = layers[i + 1], layers[i]
        for j in range(R.d_max + 1):
            idx = tgt.index(j)
            cols = []
            for s, w in src.basis(j):
                vec = {}
                for r in range(len(R.shifts[i])):
                    p = entries[r][s]
                    if not p:
                        continue
                    q = G.normal_form(word_poly(pres, w) * p)
                    for u, c in q.terms.items():
                        vec[idx[(r, u)]] = vec.get(idx[(r, u)], 0) + c
                cols.append(vec)
            rows = [{} for _ in range(tgt.dim(j))]
            for c, col in enumerate(cols):
                for t, x in col.items():
                    rows[t][c] = x
            red = row_reduce(rows, len(cols), pres.field)
            rank[(i + 1, j)] = red.rank
            nullity[(i + 1, j)] = len(red.kernel)
    for i in range(len(R.maps) + 1):
        for j in range(R.d_max + 1):
            assert rank.get((i + 1, j), 0) == nullity[(i, j)], (i, j)
    assert sum(nullity[(len(R.maps), j)] for j in range(R.d_max + 1)) == 0


def test_resolution_of_k_keeps_kernel_vectors_sparse():
    # step 0 of the resolution of k has kernel all of A_j in each degree j;
    # written out densely that is a dim A_j identity matrix per degree
    import tracemalloc

    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y^12")
    G = groebner(pres, 13)
    tracemalloc.start()
    try:
        R = minimal_resolution(G, trivial_module(pres), 8, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict(betti_table(R).entries) == {(0, 0): 1, (1, 1): 2}
    assert peak < 10 * 2**20


def test_termination_check_counts_normal_words_without_listing_them():
    # "euler-exact" reads the algebra only through its rational series, which
    # counts paths of the word automaton; over the free algebra on x, y, z
    # listing the words through d_max + 1 alone costs 3^(d_max + 1) cached words
    pres = parse_presentation("field Q; gens x:1 y:1 z:1")
    G = groebner(pres, 6)
    R = minimal_resolution(G, trivial_module(pres), 2, 6, algebra_hilbert=hilbert_rational(G))
    assert R.certificate == "euler-exact" and R.shifts == ((0,), (1, 1, 1))
    assert max(G._normal_words) <= 6


def test_degree_growth_beta_zero_below_diagonal():
    for src in (PLANE, T34, "field Q; gens x:1; rels x^3"):
        _, _, _, R = resolve_k(src, i_max=6, d_max=10)
        B = betti_table(R)
        assert all(j >= i for (i, j) in B.entries)


def test_left_right_symmetry():
    for src in (PLANE, T34):
        pres, G, h, R = resolve_k(src)
        B = betti_table(R)
        op = opposite_presentation(pres)
        Gop = groebner(op, 12)
        hop = hilbert_rational(Gop) if Gop.complete else None
        Rop = minimal_resolution(Gop, trivial_module(op), 8, 12, algebra_hilbert=hop)
        assert dict(betti_table(Rop).entries) == dict(B.entries)


def test_shift_module_moves_betti():
    pres, G, h = setup_algebra(T34)
    k = trivial_module(pres)
    k1 = shift_module(k, 1)
    R = minimal_resolution(G, k1, 4, 8, algebra_hilbert=h)
    B = betti_table(R)
    R0 = minimal_resolution(G, k, 4, 8, algebra_hilbert=h)
    B0 = betti_table(R0)
    assert dict(B.entries) == {(i, j - 1): r for (i, j), r in B0.entries.items()}
    assert shift_module(shift_module(k, 2), -2) == k
    assert shift_module(k, 0) == k


def test_strictly_increasing_t_on_as_regular():
    for src in (PLANE, T34, "field Q; gens x:1", "field Q; gens u:2"):
        _, _, _, R = resolve_k(src)
        B = betti_table(R)
        ts = [B.t(i) for i in range(R.termination_step + 1)]
        assert all(a < b for a, b in zip(ts, ts[1:]))


def test_t_of_a_step_with_no_generators_is_neg_inf():
    # the resolution of k over a free algebra stops after the generators
    _, _, _, R = resolve_k("field Q; gens x:1 y:1")
    B = betti_table(R)
    assert (R.terminated, R.termination_step) == (True, 1)
    assert (B.t(0), B.t(1)) == (0, 1)
    assert B.t(2) is NEG_INF and B.t(5) is NEG_INF


def test_ext_refuses_a_resolution_too_short_to_dualize():
    # at i_max 0 only F_0 is built, and k[x]'s resolution has not ended
    _, G, _, R = resolve_k("field Q; gens x:1", i_max=0)
    assert (R.steps_computed, R.terminated) == (0, False)
    with pytest.raises(PresentationError, match="^resolution too short to dualize$"):
        ext_into_algebra(R, G)


def test_ext_tables():
    _, G, _, R = resolve_k(T34)
    E = ext_into_algebra(R, G)
    assert dict(E.entries) == {(3, -4): 1}  # type (3, 4)

    _, Gp, _, Rp = resolve_k(PLANE)
    Ep = ext_into_algebra(Rp, Gp)
    assert dict(Ep.entries) == {(2, -2): 1}  # type (2, 2)

    pres, G3, h3 = setup_algebra("field Q; gens x:1; rels x^3")
    R3 = minimal_resolution(G3, trivial_module(pres), 6, 10, algebra_hilbert=h3)
    E3 = ext_into_algebra(R3, G3)
    # Hom(k, A) is the socle in degree 2; nothing else in the certified range
    assert E3.entries.get((0, 2)) == 1
    assert all(i == 0 for (i, _) in E3.entries)


def test_first_map_shortcut_needs_f0_equal_to_a_and_a_letter_that_starts_no_leading_word(golden):
    # x starts the leading word x^3, and d^0 kills the socle x^2 of k[x]/(x^3)
    pres, G, h = setup_algebra("field Q; gens x:1; rels x^3")
    R = minimal_resolution(G, trivial_module(pres), 6, 10, algebra_hilbert=h)
    E = ext_into_algebra(R, G)
    assert dict(E.entries) == ext_reference(R, G, E.windows)
    assert E.entries[(0, 2)] == 1
    assert resolution._free_letter(R, G) is None
    # every letter of stanley_violator starts a leading word
    art = golden["stanley_violator"]
    assert resolution._free_letter(art.resolution_k(), art.gb()) is None
    # F_0 = A (+) A(-2) for k (+) k(-2), though y starts no leading word of T
    pres, G, h = setup_algebra(T34)
    R = minimal_resolution(G, semisimple_module(pres, (2, 0)), 8, 12, algebra_hilbert=h)
    assert resolution._free_letter(R, G) is None
    _, G, _, R = resolve_k(T34)
    assert resolution._free_letter(R, G) == (0, b"\x01")  # the syzygy y


def test_last_map_shortcut_needs_the_top_syzygy_to_generate_the_augmentation_ideal():
    # k<x, y>/(yx) terminates at 2 with one top syzygy y*e_x, whose right ideal yA misses x
    src = "field Q; gens x:1 y:1; rels y*x"
    pres, G, h, R = resolve_k(src)
    assert R.terminated and R.shifts == ((0,), (1, 1), (2,))
    E = ext_into_algebra(R, G)
    assert dict(E.entries) == ext_reference(R, G, E.windows)
    assert resolution._augmentation_top(R, G) is None
    # it is Koszul, so the verdict comes from its Koszul dual, not from Ext
    verdict = AlgebraArtifacts(pres).as_regular_verdict()
    assert verdict.text() == "no (the pairing A^!_1 × A^!_1 → A^!_2 of the Koszul dual is degenerate)"
    # the free algebra on x, y, z ends in three top generators
    _, G, _, R = resolve_k("field Q; gens x:1 y:1 z:1", d_max=6)
    assert R.terminated and R.shifts == ((0,), (1, 1, 1))
    assert resolution._augmentation_top(R, G) is None
    # on the AS regular plane, T and k[x, y, z, w] it fires, and Ext^d = k(l)
    for src, top in ((PLANE, (2, -2)), (T34, (3, -4)), (POLY4, (4, -4))):
        _, G, _, R = resolve_k(src, d_max=6)
        assert resolution._augmentation_top(R, G) == -top[1]
        assert dict(ext_into_algebra(R, G).entries) == {top: 1}


def test_betti_numbers_are_order_independent():
    # any grading-compatible multiplicative order gives the same Betti table
    src = T34 + "; order y x"
    pres = parse_presentation(src)
    G = groebner(pres, 12)
    h = hilbert_rational(G)
    R = minimal_resolution(G, trivial_module(pres), 8, 12, algebra_hilbert=h)
    _, _, _, R0 = resolve_k(T34)
    assert dict(betti_table(R).entries) == dict(betti_table(R0).entries)
    assert hilbert_truncated(G, 10).coefficients == (1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36)


def test_betti_numbers_characteristic_independent_here():
    # the golden examples have characteristic-independent Betti numbers
    pres101 = parse_presentation(T34, field=parse_field("F101"))
    G = groebner(pres101, 12)
    R = minimal_resolution(G, trivial_module(pres101), 8, 12)
    _, _, _, R0 = resolve_k(T34)
    assert dict(betti_table(R).entries) == dict(betti_table(R0).entries)


def record_shortcuts(monkeypatch):
    """Count where Ext's three shortcuts fire and where they decline.

    Returns {"a": [fired, declined], "b": ..., "c": ...}.  (b) declines
    only where it applies, on a terminated R with one top generator; (c)
    declines when `linalg.rank_and_pivots` falls back to an `Echelon`.
    """
    from homreg import linalg, resolution

    seen = {"a": [0, 0], "b": [0, 0], "c": [0, 0]}
    free_letter = resolution._free_letter
    onto = resolution._augmentation_top
    rank_and_pivots = linalg.rank_and_pivots
    built = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, field, vectors=()):
            built.append(self)
            super().__init__(field, vectors)

    def first(R, G):
        out = free_letter(R, G)
        seen["a"][out is None] += 1
        return out

    def last(R, G):
        out = onto(R, G)
        if R.terminated and len(R.shifts[-1]) == 1:
            seen["b"][out is None] += 1
        return out

    def middle(vectors, field):
        n = len(built)
        out = rank_and_pivots(vectors, field)
        seen["c"][len(built) > n] += 1
        return out

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    monkeypatch.setattr(linalg, "rank_and_pivots", middle)
    monkeypatch.setattr(resolution, "_free_letter", first)
    monkeypatch.setattr(resolution, "_augmentation_top", last)
    return seen


def test_ext_matches_direct_normal_forms_on_golden(golden, monkeypatch):
    # A3 and stanley_violator have resolutions of k that do not terminate
    assert not golden["A3"].resolution_k().terminated
    assert not golden["stanley_violator"].resolution_k().terminated
    seen = record_shortcuts(monkeypatch)
    for label, art in golden.items():
        R, G = art.resolution_k(), art.gb()
        E = ext_into_algebra(R, G)
        assert dict(E.entries) == ext_reference(R, G, E.windows), label
    # every golden algebra with a terminated resolution of one top generator
    # is AS regular, so (b) declines only on the random algebras below
    assert all(seen["a"]) and seen["b"][0] and all(seen["c"])


def test_ext_matches_direct_normal_forms_over_f101():
    pres = parse_presentation(T34, field=parse_field("F101"))
    G = groebner(pres, 12)
    R = minimal_resolution(G, trivial_module(pres), 8, 12, algebra_hilbert=hilbert_rational(G))
    E = ext_into_algebra(R, G)
    assert dict(E.entries) == ext_reference(R, G, E.windows) == {(3, -4): 1}


@pytest.mark.parametrize("src", [T34, SKLYANIN], ids=["T", "sklyanin"])
@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("right", [False, True])
def test_layer_action_is_multiplication_by_a_generator(src, field, right):
    # the Sklyanin-type basis at d_gb 6 is incomplete; all degrees stay inside it
    pres = parse_presentation(src, field=parse_field(field))
    G = groebner(pres, 6)
    layer = FreeLayer(G, (0, -1, 2), right=right)
    rng = random.Random(20261018)
    for j in range(-1, 5):
        for g, dg in enumerate(pres.gen_degs):
            v = {
                k: scalar(pres.field, rng.choice([-3, -2, -1, 1, 2, 3]))
                for k in range(layer.dim(j))
                if rng.random() < 0.5
            }
            polys = layer.polys(j, v)
            x = word_poly(pres, bytes((g,)))
            products = [p * x if right else x * p for p in polys]
            want = layer.coords([G.normal_form(q) for q in products], j + dg)
            got = layer.act_vec(g, j, v)
            assert {k: c for k, c in got.items() if c} == want, (j, g)


@pytest.mark.parametrize("src", [T34, SKLYANIN], ids=["T", "sklyanin"])
@pytest.mark.parametrize("right", [False, True])
def test_images_are_products_with_words(src, right):
    # the image of (r, w) is w * e_r's image on a left layer, e_r's image * w on a right one
    pres, G, _ = setup_algebra(src, d_gb=7)
    source = FreeLayer(G, (0, 1), right=right)
    target = FreeLayer(G, (-1, 0, 1), right=right)
    rng = random.Random(20261018)
    gens = []
    for a in source.shifts:
        v = {k: scalar(pres.field, rng.choice([-2, -1, 1, 2])) for k in range(target.dim(a))}
        gens.append(target.polys(a, v))
    gen_vecs = [target.coords(p, a) for p, a in zip(gens, source.shifts)]
    for j, cols in _images(target, source, gen_vecs, 0, 6):
        for (r, w), col in zip(source.basis(j), cols):
            x = word_poly(pres, w)
            products = [q * x if right else x * q for q in gens[r]]
            want = target.coords([G.normal_form(q) for q in products], j)
            assert {k: c for k, c in col.items() if c} == want, (j, r, w)


@pytest.mark.parametrize(
    "src, polys",
    [(T34, ("x^2*y", "y")), (SKLYANIN, ("x^2*y", "z")), (HYP, ("t", "x^3 + x*t"))],
    ids=["T", "sklyanin", "hyp"],
)
@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("left", [True, False])
def test_multiplication_images_match_direct_normal_forms(src, polys, field, left):
    # two slots of different degrees; x^2*y is not normal on T or the Sklyanin-type
    # algebra, whose basis at d_gb 6 is incomplete (all degrees stay inside it)
    pres = parse_presentation(src, field=parse_field(field))
    G = groebner(pres, 6)
    fs = [pres.parse_poly(p) for p in polys]
    layer, images = multiplication_images(G, fs, 6, left)
    seen = 0
    for j, cols in images:
        for r, f in enumerate(fs):
            got = [
                {k: c for k, c in col.items() if c}
                for (s, _), col in zip(layer.basis(j), cols)
                if s == r
            ]
            assert got == multiplication_columns(G, f, j - f.degree, left), (j, r)
            seen += len(got)
    assert seen == sum(G.dim(j - f.degree) for f in fs for j in range(7))


def test_module_with_a_degree_gap():
    # x*e0 = 0 kills degree 1 and 2, but z (degree 3) still acts: M = k[z]
    pres, G, h = setup_algebra("field Q; gens x:1 z:3; rels x*z - z*x")
    M = make_module_presentation(pres, "left", (0,), [(pres.gen_poly(0),)])
    view = PresentedModuleView(G, M, 10)
    assert [view.dim(j) for j in range(11)] == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
    R = minimal_resolution(G, M, 8, 10, algebra_hilbert=h)
    assert dict(betti_table(R).entries) == {(0, 0): 1, (1, 1): 1}


def test_module_via_map_quotient():
    presT, GT, hT = setup_algebra(T34)
    presB, GB, hB = setup_algebra("field Q; gens x:1 y:1; rels x^2, x*y^2 - y^2*x")
    images = [presB.gen_poly(0), presB.gen_poly(1)]
    m = module_via_map(GT, images, GB, 10)
    assert m.gen_degs == (0,)  # cyclic: B = T/(x^2)
    assert len(m.rows) == 1 and m.row_degrees == (2,)
    R = minimal_resolution(GT, m, 6, 10, algebra_hilbert=hT)
    # T(-2) -> T -> B is the whole resolution, but B is infinite dimensional:
    # its own series certifies nothing, so the window shows it unterminated
    assert R.shifts == ((0,), (2,))
    assert not R.terminated


def test_module_via_map_free_extension():
    presU, GU, hU = setup_algebra("field Q; gens u:2")
    presX, GX, hX = setup_algebra("field Q; gens x:1")
    m = module_via_map(GU, [presX.parse_poly("x^2")], GX, 10)
    assert m.gen_degs == (0, 1)  # k[x] = k[u] + k[u]x
    assert m.rows == ()
    R = minimal_resolution(GU, m, 4, 10, algebra_hilbert=hU)
    assert R.shifts == ((0, 1),)  # free, but k[x] is infinite dimensional
    assert not R.terminated


def test_module_via_map_infinite_generation():
    presX, GX, hX = setup_algebra("field Q; gens x:1")
    presP, GP, hP = setup_algebra(PLANE)
    m = module_via_map(GX, [presP.parse_poly("x")], GP, 8)
    # k[x,y] over k[x] needs a new generator in every degree
    assert list(m.gen_degs) == list(range(9))


def test_module_via_map_refuses_a_change_of_base_field():
    presU, GU, _ = setup_algebra("field Q; gens u:1")
    presX, GX, _ = setup_algebra("field F7; gens x:1; rels x^3")
    with pytest.raises(PresentationError, match="must keep the base field"):
        module_via_map(GU, [presX.parse_poly("x")], GX, 6)
    with pytest.raises(PresentationError, match="must keep the base field"):
        MappedAlgebraView(GU, [presX.parse_poly("x")], GX, 6)


def test_mapped_algebra_view_needs_one_image_per_generator():
    presP, GP, _ = setup_algebra(PLANE)
    presX, GX, _ = setup_algebra("field Q; gens x:1")
    for images in ([presX.parse_poly("x")], [presX.parse_poly("x")] * 3):
        with pytest.raises(PresentationError, match="need one image per source generator"):
            MappedAlgebraView(GP, images, GX, 6)
        with pytest.raises(PresentationError, match="need one image per source generator"):
            module_via_map(GP, images, GX, 6)


def mapped_pairs(field, seed):
    """(T, images, A) artifacts at window (6, 10, 10): the golden quotients, k[x]/(x^3)
    over k[u], k[x] over k[u] with u of degree 2, and seeded maps u -> c*x^a and
    quotients of the plane by random forms."""
    rng = random.Random(seed)

    def art(src, label):
        return AlgebraArtifacts(parse_presentation(src.replace("field Q", "field " + field), label), 6, 10, 10)

    def coeff():
        return rng.randrange(1, 101) * rng.choice((1, -1))

    def form(words):
        return " ".join("%+d*%s" % (coeff(), w) for w in words).lstrip("+")

    out = []
    omegas = [("T", "x^2"), ("T", "x*y - y*x"), ("plane", "x"), ("k[x]", "x^2")]
    omegas += [("plane", form(rng.choice([["x", "y"], ["x^2", "x*y", "y^2"]]))) for _ in range(2)]
    for parent, omega in omegas:
        T = art(GOLDEN_SOURCES[parent], parent)
        A, _ = quotient_by_normal_element(T, omega)
        out.append((T, [A.presentation.gen_poly(i) for i in range(A.presentation.n_gens)], A))
    maps = [(1, 1, 3), (2, 1, None)]
    maps += [(rng.randrange(1, 4), coeff(), rng.choice([None, 2, 3, 5, 7])) for _ in range(4)]
    for a, c, n in maps:
        T = art("field Q; gens u:%d" % a, "k[u]")
        A = art("field Q; gens x:1" + ("; rels x^%d" % n if n else ""), "A")
        out.append((T, [A.presentation.parse_poly("%d*x^%d" % (c, a))], A))
    return out


@pytest.mark.parametrize("field, seed", [("Q", 2501), ("F101", 2502)])
def test_mapped_view_resolves_as_its_presentation(field, seed):
    # resolving A as a T-module directly must agree with resolving module_via_map's
    # presentation: same shifts and the same termination
    def outcome(R):
        return R.shifts, R.terminated, R.termination_step, R.certificate

    evidence = 0
    for T, images, A in mapped_pairs(field, seed):
        G_T, G_A = T.gb(), A.gb()
        direct, trip = (
            minimal_resolution(G_T, m, 6, 10, algebra_hilbert=T.hilbert_or_none())
            for m in (MappedAlgebraView(G_T, images, G_A, 10), module_via_map(G_T, images, G_A, 10))
        )
        assert outcome(direct) == outcome(trip), (T.label, A.presentation.to_text())
        evidence += direct.certificate == "euler-exact"
    # the view's own zero-band series certifies the finite-dimensional cases
    assert evidence >= 1


def test_mapped_view_zero_band_is_as_wide_as_the_generators_of_A():
    # A = k<x, z>/(x^2, xz, zx, z^2) with z of degree 5 is 1, x and z, but
    # over k[u] by u -> x only 1 and x are in the window through degree 4:
    # the band of zeros at degrees 2..4 is narrower than z, so it proves
    # nothing about A, and A's series is not 1 + t
    presU, GU, hU = setup_algebra("field Q; gens u:1")
    presA = parse_presentation("field Q; gens x:1 z:5; rels x^2, x*z, z*x, z^2")
    GA = groebner(presA, 10)
    view = MappedAlgebraView(GU, [presA.parse_poly("x")], GA, 4)
    assert view.top == 1 and view.hilbert is None
    R = minimal_resolution(GU, view, 4, 4, algebra_hilbert=hU)
    assert R.certificate != "euler-exact"


def test_a_finite_dimensional_algebra_certifies_nothing_above_the_window():
    # the same A over k[u]/(u^2): at d_max 4 the window shows only 1 and x, a
    # free module, but z in degree 5 has u*z = 0, so the resolution never ends
    presU, GU, hU = setup_algebra("field Q; gens u:1; rels u^2")
    presA = parse_presentation("field Q; gens x:1 z:5; rels x^2, x*z, z*x, z^2")
    GA = groebner(presA, 12)
    R = minimal_resolution(GU, MappedAlgebraView(GU, [presA.parse_poly("x")], GA, 4), 4, 4, algebra_hilbert=hU)
    assert R.shifts == ((0,),) and not R.terminated and R.certificate is None
    R = minimal_resolution(GU, MappedAlgebraView(GU, [presA.parse_poly("x")], GA, 12), 4, 12, algebra_hilbert=hU)
    assert R.shifts == ((0, 5), (6,), (7,), (8,), (9,)) and not R.terminated


def test_trivial_module_builds_every_sum_of_shifted_copies_of_k():
    presT = parse_presentation(T34)
    assert trivial_module(presT) == trivial_module(presT, (0,)) == semisimple_module(presT, (0,))
    assert trivial_module(presT, (2, 0)) == semisimple_module(presT, (2, 0))


def test_semisimple_module_resolution():
    presT, GT, hT = setup_algebra(T34)
    M = trivial_module(presT, (2, 0))
    R = minimal_resolution(GT, M, 8, 12, algebra_hilbert=hT)
    B = betti_table(R)
    assert R.terminated and R.termination_step == 3
    # Tor of a direct sum is the direct sum: the k table plus its shift by 2
    assert dict(B.entries) == {
        (0, 0): 1, (0, 2): 1,
        (1, 1): 2, (1, 3): 2,
        (2, 3): 2, (2, 5): 2,
        (3, 4): 1, (3, 6): 1,
    }
    assert max(j - i for (i, j) in B.entries) == 3


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_ext_transposes_differentials_with_mixed_slot_degrees(field):
    # F_0 = A (+) A(-2) and F_1 has slots of degrees (1, 1, 3, 3), so each
    # entry of a differential lands in Hom(F_{i+1}, A) at its own slot degree
    pres = parse_presentation(T34, field=parse_field(field))
    G = groebner(pres, 12)
    M = semisimple_module(pres, (2, 0))
    R = minimal_resolution(G, M, 8, 12, algebra_hilbert=hilbert_rational(G))
    assert R.shifts[:2] == ((0, 2), (1, 1, 3, 3))
    E = ext_into_algebra(R, G)
    assert dict(E.entries) == ext_reference(R, G, E.windows)
    # Ext^3(k (+) k(-2), A) = Ext^3(k, A) (+) Ext^3(k, A)(2), type (3, 4)
    assert dict(E.entries) == {(3, -4): 1, (3, -6): 1}


def test_zero_module_rejected():
    pres, G, _ = setup_algebra(PLANE)
    from homreg.corealg import make_module_presentation

    m = make_module_presentation(pres, "left", (0,), [(one(pres),)])
    with pytest.raises(PresentationError, match="zero module"):
        minimal_resolution(G, m, 2, 4)


def test_generator_above_the_window_is_not_the_zero_module():
    # k[x] on one generator of degree 20 is nonzero, but d_max 12 sees none of it
    pres, G, _ = setup_algebra("field Q; gens x:1")
    m = make_module_presentation(pres, "left", (20,), [])
    assert PresentedModuleView(G, m, 12).hilbert is None
    with pytest.raises(CertificationError, match="d_max = 12"):
        minimal_resolution(G, m, 2, 12)
    # inside the window the zero band certifies the finite series
    m = make_module_presentation(pres, "left", (5,), [(pres.parse_poly("x^2"),)])
    assert PresentedModuleView(G, m, 12).hilbert.numerator == (0, 0, 0, 0, 0, 1, 1)


def test_right_module_requires_conversion():
    pres, G, _ = setup_algebra(PLANE)
    from homreg.corealg import make_module_presentation

    m = make_module_presentation(pres, "right", (0,), [(pres.gen_poly(0),)])
    with pytest.raises(PresentationError, match="left modules"):
        minimal_resolution(G, m, 2, 4)


def test_euler_identity_through_window_when_not_terminated():
    pres, G, h = setup_algebra("field Q; gens x:1; rels x^2")
    R = minimal_resolution(G, trivial_module(pres), 8, 12, algebra_hilbert=h)
    B = betti_table(R)
    assert not R.terminated
    alt = _alternating_sum(B.entries)
    hs = hilbert_truncated(G, 12).coefficients
    bound = min(R.shifts[-1])  # identity holds below the last step's lowest shift
    for k in range(bound + 1):
        acc = sum(alt[i] * hs[k - i] for i in range(min(k, len(alt) - 1) + 1))
        assert acc == (1 if k == 0 else 0)


def test_degrees_forced_to_zero_build_no_echelon():
    # k is generated in degree 0 and zero in degree 1, so zero above
    for src in (POLY4, T34):
        pres, G, _ = setup_algebra(src, d_gb=8)
        view = PresentedModuleView(G, trivial_module(pres), 8)
        assert max(view._echelon) <= 1
        assert [view.dim(j) for j in range(9)] == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    # random finite-dimensional modules keep their dimensions
    pres, G, _ = setup_algebra(T34, d_gb=8)
    rng = random.Random(20260811)
    views = [PresentedModuleView(G, random_fdim_module(pres, G, rng), 8) for _ in range(3)]
    dims = [[view.dim(j) for j in range(9)] for view in views]
    assert dims == [
        [2, 4, 8, 0, 0, 0, 0, 0, 0],
        [1, 3, 6, 0, 0, 0, 0, 0, 0],
        [1, 3, 4, 0, 0, 0, 0, 0, 0],
    ]


def test_unit_coefficients_keep_q_vectors_plain_ints(monkeypatch):
    # k[x,y,z] has only coefficients +-1, so over Q its resolution and Ext
    # never meet a non-integral value: every stored value is a plain int,
    # and the elimination runs without Fraction arithmetic
    from homreg import linalg, resolution

    echelons = []

    class RecordingEchelon(linalg.Echelon):
        def __init__(self, field, vectors=()):
            echelons.append(self)
            super().__init__(field, vectors)

    monkeypatch.setattr(linalg, "Echelon", RecordingEchelon)
    src = "field Q; gens x:1 y:1 z:1; rels x*y - y*x, x*z - z*x, y*z - z*y"
    pres, G, h, R = resolve_k(src, i_max=4, d_max=5)
    assert dict(betti_table(R).entries) == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    n_resolution = len(echelons)
    # Ext reads its ranks off the columns `_images` yields, mostly without
    # elimination, so those columns are checked as well as its echelons
    columns = []
    images = resolution._images

    def recording(*args):
        for j, cols in images(*args):
            columns.extend(c for c in cols if c is not None)
            yield j, cols

    monkeypatch.setattr(resolution, "_images", recording)
    ext = ext_into_algebra(R, G)
    assert ext.entries == {(3, -3): 1}
    assert n_resolution and len(echelons) > n_resolution and columns
    values = [c for syzygies in R.maps for _, vec in syzygies for c in vec.values()]
    values += [c for ech in echelons for row in ech.rows.values() for c in row.values()]
    values += [c for col in columns for c in col.values()]
    assert values and all(type(c) is int for c in values)


def _steps_against_two_pass(G, mpres, i_max, d_max):
    """Resolve `mpres` with `_syzygy_step` and check each step against the two-pass oracle.

    Generators and per-degree kernels must be equal exactly, and each
    kernel vector must be 1 at its free column, its greatest key.  Returns
    the differentials as `Resolution.maps` holds them, or None for the zero
    module.
    """
    target = PresentedModuleView(G, mpres, d_max)
    K = target.units(d_max)
    if not any(K.values()):
        return None
    maps = []
    for _ in range(i_max + 1):
        if not any(K.values()):
            break
        layer, gens, kernel = _syzygy_step(G, target, K, d_max, d_max)
        want_gens, want_kernel = two_pass_syzygy_step(
            G, target, {j: list(kj.values()) for j, kj in K.items()}, d_max
        )
        assert gens == want_gens
        assert {j: list(kj.values()) for j, kj in kernel.items() if kj} == {
            j: kj for j, kj in want_kernel.items() if kj
        }
        assert all(max(v) == f and v[f] == 1 for kj in kernel.values() for f, v in kj.items())
        maps.append(tuple(gens))
        target, K = layer, kernel
    return tuple(maps[1:])


def test_one_elimination_step_matches_two_passes_on_golden(golden):
    for label, art in golden.items():
        maps = _steps_against_two_pass(art.gb(), trivial_module(art.presentation), art.i_max, art.d_max)
        assert art.resolution_k().maps == maps, label


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_one_elimination_step_matches_two_passes_on_random_modules(field):
    rng = random.Random(20261018)
    for src in (T34, PLANE):
        pres = parse_presentation(src, field=parse_field(field))
        G = groebner(pres, 12)
        done = 0
        while done < 5:
            m = random_fdim_module(pres, G, rng)
            maps = _steps_against_two_pass(G, m, 8, 12)
            if maps is not None:
                assert minimal_resolution(G, m, 8, 12).maps == maps
                done += 1


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_step_rejects_kernel_vectors_changed_off_their_free_columns(field):
    # add 1 to one entry of one kernel vector at a column that is not free,
    # in a degree with no new generators: there the images span the kernel,
    # so some image involves that vector, and its check must fail
    pres = parse_presentation(
        "field Q; gens x:1 y:1 z:1; rels x*y - y*x, x*z - z*x, y*z - z*y", field=parse_field(field)
    )
    modulus = pres.field.modulus
    G = groebner(pres, 6)
    d_max = 4
    target = PresentedModuleView(G, trivial_module(pres), d_max)
    K = target.units(d_max)
    changed = 0
    for step in range(4):
        layer, gens, kernel = _syzygy_step(G, target, K, d_max, d_max)
        new_degrees = {j for j, _ in gens}
        for j, kj in K.items():
            if step == 0 or not kj or j in new_degrees:
                continue
            for f, v in kj.items():
                for p in set(range(target.dim(j))).difference(kj):
                    c = v.get(p, 0) + 1
                    bad = dict(v)
                    bad[p] = c % modulus if modulus else c
                    with pytest.raises(ValueError, match="lies outside the submodule"):
                        _syzygy_step(G, target, {**K, j: {**kj, f: bad}}, d_max, d_max)
                    changed += 1
        target, K = layer, kernel
    assert changed == 350  # every such change in steps 1-3 through degree 4


class _RankZeroEchelon(linalg.Echelon):
    """An `Echelon` whose rank reads 0, so no degree of `_syzygy_step` looks
    injective and each takes its kernel from `reduced_form`."""

    rank = 0


def _resolve_with_and_without_the_shortcut(G, module, i_max, d_max, h, monkeypatch):
    """([R, R with `reduced_form` in every step], [reduced_form calls of each]).

    `module()` builds the module afresh for each resolution."""
    out, calls = [], []
    reduced_form = linalg.reduced_form

    def counted(ech, ncols):
        calls[-1] += 1
        return reduced_form(ech, ncols)

    with monkeypatch.context() as m:
        m.setattr(linalg, "reduced_form", counted)
        for forced in (False, True):
            if forced:
                m.setattr(linalg, "Echelon", _RankZeroEchelon)
            calls.append(0)
            out.append(minimal_resolution(G, module(), i_max, d_max, h))
    return out, calls


def _quotient_views(golden):
    """The harness's quotient modules B = A/(Omega) over A, as (A, view factory) pairs."""
    for child, parent in (("B", "T"), ("Tcomm", "T"), ("k[y]", "plane")):
        A, B = golden[parent], golden[child]
        images = [B.presentation.gen_poly(g) for g in range(B.presentation.n_gens)]
        yield A, lambda A=A, B=B, images=images: MappedAlgebraView(A.gb(), images, B.gb(), A.d_max)


def test_injective_steps_give_the_resolution_with_every_reduced_form(golden, monkeypatch):
    # an injective degree has an empty kernel, so skipping its reduced form
    # changes nothing: k over each golden algebra and the three quotient modules
    cases = [
        (art.gb(), lambda art=art: trivial_module(art.presentation), art.i_max, art.d_max, art.hilbert_or_none())
        for art in golden.values()
    ]
    cases += [(A.gb(), view, A.i_max, A.d_max, A.hilbert_or_none()) for A, view in _quotient_views(golden)]
    skipped = 0
    for case in cases:
        (R, forced), (calls, forced_calls) = _resolve_with_and_without_the_shortcut(*case, monkeypatch)
        assert _outcome(R) == _outcome(forced) and R == forced
        assert calls <= forced_calls
        skipped += forced_calls - calls
    assert skipped >= 80


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_injective_steps_give_the_resolution_with_every_reduced_form_on_random_modules(field, monkeypatch):
    rng = random.Random({"Q": 4211, "F101": 4212}[field])
    skipped = 0
    for src in (T34, PLANE):
        pres = parse_presentation(src, field=parse_field(field))
        G = groebner(pres, 12)
        h = hilbert_rational(G)
        for _ in range(4):
            m = random_fdim_module(pres, G, rng)
            if not any(m.rows):
                continue
            (R, forced), (calls, forced_calls) = _resolve_with_and_without_the_shortcut(
                G, lambda: m, 8, 12, h, monkeypatch
            )
            assert _outcome(R) == _outcome(forced) and R == forced
            skipped += forced_calls - calls
    assert skipped > 0


def test_an_injective_step_takes_no_reduced_form(golden, monkeypatch):
    # B = T/(x^2) over T: step 1 covers x^2*T by T(-2), injective as x^2 is regular
    T, view = next(_quotient_views(golden))
    steps, calls = [], []
    step, reduced_form = resolution._syzygy_step, linalg.reduced_form

    def counted_step(*args):
        steps.append(len(steps))
        return step(*args)

    def counted(ech, ncols):
        calls.append(steps[-1])
        return reduced_form(ech, ncols)

    monkeypatch.setattr(resolution, "_syzygy_step", counted_step)
    monkeypatch.setattr(linalg, "reduced_form", counted)
    R = minimal_resolution(T.gb(), view(), 1, T.d_max)
    assert R.shifts == ((0,), (2,)) and steps == [0, 1]
    assert 0 in calls and 1 not in calls


def _outcome(R):
    return R.shifts, R.maps, R.terminated, R.termination_step, R.certificate


@pytest.mark.parametrize("field, seed", [("Q", 2701), ("F101", 2702)])
def test_chain_bounded_steps_match_steps_run_through_d_max(field, seed):
    # over a complete basis step i of a finite-dimensional module stops at
    # Anick's bound; shifts, maps and termination must be those of every
    # step run through d_max, on k, k(-a) (+) k and random modules and shifts
    rng = random.Random(seed)
    i_max, d_max = 5, 7
    done = bounded = 0
    while done < 10:
        pres = parse_presentation(random_algebra_source(rng, field))
        G = groebner(pres, 8)
        if not G.complete:
            continue
        h = hilbert_rational(G)
        m = random_fdim_module(pres, G, rng)
        modules = [
            trivial_module(pres),
            semisimple_module(pres, (rng.randint(1, 2), 0)),
            m,
            shift_module(m, rng.choice((-1, 1))),
        ]
        for m in modules:
            want = unbounded_resolution(G, m, i_max, d_max, h)
            assert _outcome(minimal_resolution(G, m, i_max, d_max, algebra_hilbert=h)) == want, (
                pres.to_text(), m,
            )
            top = PresentedModuleView(G, m, d_max).hilbert.degree
            bounded += any(_chain_bound(G, i) + top < d_max for i in range(len(want[0])))
        done += 1
    assert bounded >= 20  # most resolutions stop some step below d_max


def test_step_reaches_its_own_generators_when_the_next_chain_bound_is_lower():
    # k<x, z>/(x^2) with z of degree 3: t_1(k) = 3 (z) exceeds the next
    # bound D = 2, so step 1 must run through degree 3, not stop at 2
    pres, G, h = setup_algebra("field Q; gens x:1 z:3; rels x^2")
    assert (_chain_bound(G, 1), _chain_bound(G, 2)) == (3, 2)
    R = minimal_resolution(G, trivial_module(pres), 4, 8, algebra_hilbert=h)
    assert R.shifts[1] == (1, 3)
    assert _outcome(R) == unbounded_resolution(G, trivial_module(pres), 4, 8, h)
    # k(-2) (+) k over T34 has top degree 2, which lifts every step's bound by 2
    presT, GT, hT = setup_algebra(T34)
    M = semisimple_module(presT, (2, 0))
    R = minimal_resolution(GT, M, 8, 12, algebra_hilbert=hT)
    assert _outcome(R) == unbounded_resolution(GT, M, 8, 12, hT)
    assert R.shifts[3] == (4, 6)


def test_a_module_series_comes_only_from_the_module_itself():
    # M = T/(u^5) (+) T(-5) over T = k[u] has the series of T: its degree-5
    # generator and relation cancel there, so at d_max 4 the window's ((0,),)
    # satisfies the Euler identity with H_M, though Torreg(M) = 5.  Only the
    # module's own series may certify, and M, infinite dimensional, has none
    params = inspect.signature(minimal_resolution).parameters
    assert list(params) == ["G", "module", "i_max", "d_max", "algebra_hilbert", "label"]
    presT, GT, hT = setup_algebra("field Q; gens u:1")
    M = make_module_presentation(presT, "left", (0, 5), [(presT.parse_poly("u^5"), None)])
    R = minimal_resolution(GT, M, 4, 4, algebra_hilbert=hT)
    assert not R.terminated and not tor_regularity(betti_table(R)).is_exact
    R = minimal_resolution(GT, M, 4, 8, algebra_hilbert=hT)
    assert R.shifts == ((0, 5), (5,))  # Torreg(M) = 5


def test_ext_evaluates_only_the_columns_outside_the_previous_image(monkeypatch):
    # rank d^i_j is the rank of d^i on the unit vectors outside a coordinate
    # set onto which im d^{i-1}_j projects isomorphically.  On k[x, y, z, w]
    # at (8, 6, 6), with a_n = dim A_n = C(n + 3, 3), d^0 and d^3 are read off
    # the algebra ((a) and (b) of `ext_into_algebra`), and (b)'s membership
    # test evaluates only m_r * 1 for its 4 entries m_r.  Koszul
    # exactness leaves 4a_{j+1} - a_j columns of d^1 for j = -1..4 (434) and
    # 6a_{j+2} - 4a_{j+1} + a_j of d^2 for j = -2..3 (511): 949 in all
    from homreg import resolution

    pres, G, h = setup_algebra(POLY4, d_gb=6)
    R = minimal_resolution(G, trivial_module(pres), 8, 6, algebra_hilbert=h)
    evaluated = []
    images = resolution._images

    def counting(*args):
        for j, cols in images(*args):
            yield j, cols
            evaluated.extend(c for c in cols if c is not None)

    monkeypatch.setattr(resolution, "_images", counting)
    E = ext_into_algebra(R, G)
    assert dict(E.entries) == {(4, -4): 1}
    assert len(evaluated) == 949


@pytest.mark.parametrize("field, seed", [("Q", 7), ("F101", 8)])
def test_ext_matches_direct_normal_forms_on_random_algebras(monkeypatch, field, seed):
    # Ext skips the columns in the pivots of the previous map's image and
    # evaluates one only when a higher degree reads it as a prefix; both
    # must leave the table that direct normal forms give
    from homreg import resolution

    yielded = []
    images = resolution._images

    def recording(*args):
        for j, cols in images(*args):
            yielded.append((cols, [k for k, c in enumerate(cols) if c is None]))
            yield j, cols

    monkeypatch.setattr(resolution, "_images", recording)
    seen = record_shortcuts(monkeypatch)
    rng = random.Random(seed)
    several = prefix_read = 0
    for _ in range(40):
        pres = parse_presentation(random_algebra_source(rng, field))
        G = groebner(pres, 7)
        h = hilbert_rational(G) if G.complete else None
        R = minimal_resolution(G, trivial_module(pres), 5, 7, algebra_hilbert=h)
        yielded.clear()
        E = ext_into_algebra(R, G)
        assert dict(E.entries) == ext_reference(R, G, E.windows), pres.to_text()
        several += len({i for i, _ in E.entries}) >= 2
        prefix_read += any(cols[k] is not None for cols, skipped in yielded for k in skipped)
    # Ext at two or more homological degrees leaves some U columns in ker d^i
    assert several >= 20 and prefix_read >= 5
    # each shortcut fires and declines here, and (c) falls back to an Echelon
    assert all(seen["a"]) and all(seen["b"]) and all(seen["c"])


FINITE_DIMENSIONAL = (
    "field %s; gens u:1; rels u^2",
    "field %s; gens u:1; rels u^3",
    "field %s; gens u:2; rels u^2",
    "field %s; gens x:1 y:1; rels x*y - y*x, x^2, y^2",
    "field %s; gens x:1 y:1; rels x*y - y*x, x^2, y^3",
    "field %s; gens x:1 y:1; rels x*y - y*x, x^2 - y^2, x*y",
)


@pytest.mark.parametrize("field, seed", [("Q", 3701), ("F101", 3702)])
def test_a_terminated_resolution_stays_terminated_in_a_wider_window(field, seed):
    # presented modules over k[u]/(u^n) and finite-dimensional quotients of the
    # plane, with generators drawn below and above d_max: a resolution that is
    # terminated at d_max must be terminated with the same shifts at d_max + 12
    rng = random.Random(seed)
    i_max, d_max = 4, 6
    terminated = above = 0
    for src in FINITE_DIMENSIONAL:
        pres, G, h = setup_algebra(src % field)
        for _ in range(12):
            choices = (0, 1, 2, d_max - 1, d_max + rng.randint(1, 4))
            degrees = sorted(rng.choice(choices) for _ in range(rng.randint(1, 3)))
            rows = []
            for _ in range(rng.choice((0, 0, 1, 2))):
                rdeg = rng.choice(degrees) + rng.randint(1, 2)
                row = [
                    Poly.make({w: c for w in G.normal_words(rdeg - a) if (c := rng.randrange(-2, 3))},
                              pres.gen_degs, pres.field.modulus) if rdeg >= a else None
                    for a in degrees
                ]
                if any(row):
                    rows.append(row)
            m = make_module_presentation(pres, "left", degrees, rows)
            try:
                narrow = minimal_resolution(G, m, i_max, d_max, algebra_hilbert=h)
            except (CertificationError, PresentationError):  # zero in the window, or zero
                continue
            if narrow.terminated:
                wide = minimal_resolution(G, m, i_max, d_max + 12, algebra_hilbert=h)
                assert wide.terminated and wide.shifts == narrow.shifts, (src % field, m)
                terminated += 1
            above += max(degrees) > d_max
    assert terminated >= 10 and above >= 10


@pytest.mark.parametrize(
    "src, rows, width",
    [("field Q; gens x:1", ["x^2"], 1), ("field Q; gens x:1 t:2; rels x*t - t*x", ["x^2", "t"], 2)],
    ids=["width-1", "width-2"],
)
def test_presented_view_closes_exactly_when_top_plus_width_reaches_d_max(src, rows, width):
    # A/(x^2, t) is k + kx: its top nonzero degree 1 lies above its generator at 0
    pres, G, _ = setup_algebra(src)
    M = make_module_presentation(pres, "left", (0,), [(pres.parse_poly(r),) for r in rows])
    assert PresentedModuleView(G, M, 1 + width).hilbert.numerator == (1, 1)
    assert PresentedModuleView(G, M, width).hilbert is None


@pytest.mark.parametrize(
    "src, width",
    [("field Q; gens x:1; rels x^2", 1), ("field Q; gens x:1 t:2; rels x^2, t", 2)],
    ids=["width-1", "width-2"],
)
def test_mapped_view_closes_exactly_when_top_plus_width_reaches_d_max(src, width):
    # A = k + kx over k[u] by u -> x; a generator t of degree 2, killed, widens A
    presU, GU, _ = setup_algebra("field Q; gens u:1")
    presA = parse_presentation(src)
    GA = groebner(presA, 8)
    closed = MappedAlgebraView(GU, [presA.parse_poly("x")], GA, 1 + width)
    assert closed.top == 1 and closed.hilbert.numerator == (1, 1)
    assert MappedAlgebraView(GU, [presA.parse_poly("x")], GA, width).hilbert is None


def test_a_module_below_degree_0_closes_on_its_own_pieces():
    # k[x]/(x^2) shifted to degrees -3 and -2: the band that closes it lies in
    # degrees >= 0, so the nonzero piece at -2 is never skipped
    pres, G, h = setup_algebra("field Q; gens x:1")
    M = make_module_presentation(pres, "left", (-3,), [(pres.parse_poly("x^2"),)])
    h_M = PresentedModuleView(G, M, 6).hilbert
    assert (h_M.numerator, h_M.degree) == ((1, 1), -2)
    R = minimal_resolution(G, M, 4, 6, algebra_hilbert=h)
    assert R.shifts == ((-3,), (-1,)) and R.certificate == "euler-exact"


def test_every_zero_band_is_decided_by_vanishes_above(monkeypatch):
    from homreg import constructions

    pres, G, _ = setup_algebra("field Q; gens x:1")
    M = make_module_presentation(pres, "left", (0,), [(pres.parse_poly("x^2"),)])
    presA = parse_presentation("field Q; gens x:1; rels x^2")
    GA = groebner(presA, 8)
    arts = [AlgebraArtifacts(parse_presentation(s), 4, 4, 4) for s in ("field Q; gens u:2", "field Q; gens x:1")]

    def decisions():
        return (
            PresentedModuleView(G, M, 4).hilbert is not None,
            MappedAlgebraView(G, [presA.parse_poly("x")], GA, 4).hilbert is not None,
            constructions.finite_map_check(arts[0], ["x^2"], arts[1]).finite,
        )

    assert decisions() == (True, True, True)
    # with the rule answering no, none of the three closes on its own
    for module in (resolution, constructions):
        monkeypatch.setattr(module, "vanishes_above", lambda dim, j, width: False)
    assert decisions() == (False, False, False)


# ---------------------------------------------------------------------------
# the resolution of k over a monomial basis, read off Anick's chains


PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "presentations")


def _refuse(*args, **kwargs):
    raise AssertionError("the engine ran")


def _resolve_k_both_ways(art, monkeypatch):
    """(chains, engine): `art.resolution_k()` with the engine refused, and the engine's resolution of k."""
    with monkeypatch.context() as m:
        m.setattr(resolution, "minimal_resolution", _refuse)
        chains = art.resolution_k()
    G, h = art.gb(), art.hilbert_or_none()
    engine = minimal_resolution(G, trivial_module(art.presentation), art.i_max, art.d_max, h, art.label)
    return chains, engine


def _assert_chains_are_the_engine(art, monkeypatch):
    chains, engine = _resolve_k_both_ways(art, monkeypatch)
    assert (chains.shifts, chains.maps) == (engine.shifts, engine.maps), art.label
    assert (chains.certificate, chains.steps_computed) == (engine.certificate, engine.steps_computed), art.label
    assert chains == engine
    if engine.steps_computed:  # a resolution of one step has no dual to read
        G = art.gb()
        assert ext_into_algebra(chains, G) == ext_into_algebra(engine, G), art.label


def _monomial_arts():
    arts = []
    for name in ("kx_mod_x2", "kx_mod_x3", "stanley_violator", "kx", "ku2"):
        with open(os.path.join(PRESENTATIONS, name + ".alg")) as fh:
            arts.append(AlgebraArtifacts(parse_presentation(fh.read(), label=name), 8, 12, 12))
    kx = AlgebraArtifacts(parse_presentation(GOLDEN_SOURCES["k[x]"], label="k[x]"), 8, 12, 12)
    arts.append(quotient_by_normal_element(kx, "x^2", label="A2")[0])
    arts.append(AlgebraArtifacts(parse_presentation(GOLDEN_SOURCES["A3"], label="A3"), 8, 12, 12))
    arts.append(AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y^12", label="xy12"), 6, 14, 14))
    src = "field Q; gens x:1 y:1; rels x*y^5, y*x^5"
    arts.append(AlgebraArtifacts(parse_presentation(src, label="xy5,yx5"), 8, 16, 16))
    return arts


def test_resolution_of_k_over_a_monomial_basis_is_the_engines(monkeypatch):
    # the chains give the engine's shifts, maps, certificate and Ext table, and
    # the engine does not run; x^2, x^3 and stanley_violator never terminate,
    # x*y^12 ends at (0), (1, 1), (13) and x*y^5, y*x^5 climbs by 5 per step
    arts = _monomial_arts()
    for art in arts:
        _assert_chains_are_the_engine(art, monkeypatch)
    shifts = {art.label: art.resolution_k().shifts for art in arts}
    assert shifts["kx_mod_x3"] == ((0,), (1,), (3,), (4,), (6,), (7,), (9,), (10,), (12,))
    assert shifts["stanley_violator"][3] == (3,) * 8
    assert shifts["xy12"] == ((0,), (1, 1), (13,))
    assert shifts["xy5,yx5"][:4] == ((0,), (1, 1), (6, 6), (11, 11))
    terminated = {art.label for art in arts if art.resolution_k().terminated}
    assert terminated == {"kx", "ku2", "xy12"}


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_resolution_of_k_over_random_monomial_bases_is_the_engines(field, monkeypatch):
    # an incomplete basis takes the engine, and gives its own resolution
    rng = random.Random({"Q": 4101, "F101": 4102}[field])
    taken = {True: 0, False: 0}
    for _ in range(30):
        art = AlgebraArtifacts(parse_presentation(random_monomial_source(rng, field)), 6, 10, 12)
        monomial = resolution.monomial_basis(art.gb())
        taken[monomial] += 1
        if monomial:
            _assert_chains_are_the_engine(art, monkeypatch)
        else:
            assert not art.gb().complete
            with monkeypatch.context() as m:
                m.setattr(resolution, "anick_resolution", _refuse)
                art.resolution_k()
    assert taken[True] >= 20 and taken[False] >= 1


def test_x_y12_resolution_of_k_is_the_engines_at_the_wide_window(monkeypatch):
    art = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y^12"), 8, 20, 20)
    chains, engine = _resolve_k_both_ways(art, monkeypatch)
    assert chains == engine and chains.certificate == "euler-exact"


def test_a_letter_leading_word_or_an_incomplete_basis_takes_the_engine(monkeypatch):
    # k[y] = plane/(x) has the leading word x, and x*y*x*y*x overlaps itself above d_gb 6
    monkeypatch.setattr(resolution, "anick_resolution", _refuse)
    for src, window in (
        ("field Q; gens x:1 y:1; rels x*y - y*x, x", (8, 12, 12)),
        ("field Q; gens x:1 y:1; rels x*y*x*y*x", (4, 6, 6)),
    ):
        art = AlgebraArtifacts(parse_presentation(src), *window)
        G = art.gb()
        assert all(len(g.terms) == 1 for g in G.elements) and not resolution.monomial_basis(G)
        assert art.resolution_k().steps_computed >= 1


def _chain_counts(G, n_max, d_max):
    """{(n + 1, j): number of level-n chains of degree j}."""
    counts = {}
    for n, level in enumerate(resolution.anick_chains(G, n_max, d_max)[0]):
        for j, _, _ in level:
            counts[(n + 1, j)] = counts.get((n + 1, j), 0) + 1
    return counts


def test_betti_numbers_of_k_are_at_most_the_chain_counts(golden):
    # Anick's resolution is a free resolution of k over any complete basis, so
    # the engine's beta_{i,j}(k) <= #(i-1)-chains of degree j, with equality
    # on a monomial basis; the counts do not come from the engine
    arts = list(golden.values())
    for field, seed in (("Q", 41), ("F101", 42)):
        rng = random.Random(seed)
        arts += [AlgebraArtifacts(parse_presentation(random_algebra_source(rng, field)), 5, 8, 8) for _ in range(15)]
    checked = monomial = strict = 0
    for art in arts:
        G = art.gb()
        if not G.complete or any(len(u) < 2 for u in G.automaton.leads):
            continue
        R = minimal_resolution(G, trivial_module(art.presentation), art.i_max, art.d_max)
        table = betti_table(R).entries
        assert table.pop((0, 0)) == 1
        counts = _chain_counts(G, art.i_max - 1, art.d_max)
        assert all(b <= counts.get(key, 0) for key, b in table.items()), art.presentation.to_text()
        if resolution.monomial_basis(G):
            assert table == {key: c for key, c in counts.items() if key[0] <= R.steps_computed}
            monomial += 1
        strict += any(b < counts[key] for key, b in table.items())
        checked += 1
    assert checked >= 25 and monomial >= 5 and strict >= 1
    # the plane has chains x, y, yx and beta = (1, 2, 1): equality past monomial bases
    assert _chain_counts(golden["plane"].gb(), 3, 12) == {(1, 1): 2, (2, 2): 1}


def _kx_mod_x3(i_max, d_max):
    return AlgebraArtifacts(parse_presentation(GOLDEN_SOURCES["A3"], label="A3"), i_max, d_max, d_max)


def test_the_last_chain_level_asks_for_the_certificate_as_the_engine_does(monkeypatch):
    # level i_max only decides whether the certificate is sought.  k[x]/(x^3) has
    # its level-8 chain x^13 at d_max + 1 at (8, 12) and at d_max at (8, 13)
    calls = []
    certify = resolution._certify_termination

    def spy(*args):
        calls.append(tuple(args[2]))  # the shifts, a list in the engine
        return certify(*args)

    monkeypatch.setattr(resolution, "_certify_termination", spy)
    arts = [_kx_mod_x3(8, 12), _kx_mod_x3(8, 13)]
    arts += [AlgebraArtifacts(parse_presentation(GOLDEN_SOURCES["stanley_violator"]), i, 12, 12) for i in range(1, 9)]
    sought = []
    for art in arts:
        G, h = art.gb(), art.hilbert_or_none()
        chains = resolution.anick_resolution(G, art.i_max, art.d_max, h, art.label)
        by_chains = calls[:]
        del calls[:]
        engine = minimal_resolution(G, trivial_module(art.presentation), art.i_max, art.d_max, h, art.label)
        assert chains == engine and chains.certificate == engine.certificate
        assert by_chains == calls
        sought.append(len(calls))
        del calls[:]
    assert sought == [1] + [0] * 9


def test_only_the_chain_levels_below_i_max_are_sorted(golden, monkeypatch):
    # stanley_violator's level n is the 2^(n + 1) words of length n + 1: at (8, 12)
    # levels 0..7, 510 chains, are built and level 8's 512 only probed
    G = golden["stanley_violator"].gb()
    levels, more = resolution.anick_chains(G, 8, 12)
    assert sum(map(len, levels)) == 1022 and more  # level 9's 1024 words of length 10 only probed
    sorted_items = []

    def spy(items, **kwargs):
        out = sorted(items, **kwargs)
        sorted_items.extend(out)
        return out

    monkeypatch.setattr(resolution, "sorted", spy, raising=False)
    R = resolution.anick_resolution(G, 8, 12)
    assert len(sorted_items) == sum(map(len, R.shifts[1:])) == 510
    assert all(type(t) is bytes for _, _, t in sorted_items)

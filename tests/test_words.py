"""Guards for the term types: every word is `bytes`, one byte per letter,
and every scalar is a field scalar.

A word that slipped in as a tuple would be a second dict key for the same
monomial and silently split a term, so these tests check the type at
every place words are made, and that bytes order is the order the tuples
of generator indices had.  At the same places they check the scalars:
over F_p an int in [0, p), over Q an int, or a `Fraction` that is not
integral; never a float.
"""

import glob
import os
import random
from fractions import Fraction

import pytest

from homreg.constructions import quotient_by_normal_element, tensor_presentation
from homreg.corealg import (
    QQ,
    PresentationError,
    make_presentation,
    opposite_module,
    opposite_presentation,
    parse_field,
    parse_module,
    parse_presentation,
)
from homreg.gbasis import groebner
from homreg.regularity import AlgebraArtifacts
from homreg.resolution import FreeLayer, trivial_module

from oracles import free_words, one, word_poly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESENTATIONS = os.path.join(ROOT, "presentations")
SAMPLES = sorted(os.path.splitext(os.path.basename(p))[0] for p in glob.glob(os.path.join(PRESENTATIONS, "*.alg")))


def read_presentation(path, label, field=None):
    with open(path) as fh:
        return parse_presentation(fh.read(), label=label, field=field)


def assert_scalar(c, p, where):
    """`c` is a scalar of the field of characteristic p."""
    if p:
        assert type(c) is int and 0 < c < p, (where, c)
    else:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (where, c)


def assert_terms(polys, where, p):
    """Every word is bytes and every scalar one of the field of characteristic p."""
    words = [w for q in polys for w in q.terms]
    assert words, where
    assert all(type(w) is bytes for w in words), (where, [w for w in words if type(w) is not bytes][:3])
    for q in polys:
        for c in q.terms.values():
            assert_scalar(c, p, where)
        assert not q or q.modulus == p, (where, q)


# an inline sample with a non-integral coefficient, which F5 wraps with -1
FRAC = "field Q; gens x:1 y:1; rels x*y - 2/3*y*x"
CASES = [(name, field) for field in (None, "F5", "F101") for name in SAMPLES + ["frac"]]
# the element each quotient divides by: normal in every sample
OMEGA = {"ku2": "u", "t34": "x^2", "t34_yx": "x^2"}


@pytest.mark.parametrize(
    "name, field", CASES, ids=["%s-%s" % (n, f) if f else n for n, f in CASES]
)
def test_every_word_is_bytes(name, field):
    field = field and parse_field(field)
    if name == "frac":
        pres = parse_presentation(FRAC, label=name, field=field)
    else:
        pres = read_presentation(os.path.join(PRESENTATIONS, name + ".alg"), name, field)
    p = pres.field.modulus

    def check(polys, where):
        assert_terms(polys, where, p)

    gens = [pres.gen_poly(g) for g in range(pres.n_gens)]
    check(gens + [one(pres)], "gen_poly/one")
    rels = list(pres.relations)
    if rels:
        check(rels, "parse")
        r = rels[0]
        arithmetic = [r * r, r + r, r - r.scale(3), -r, r.scale(-1).monic(), r.reversed_words()]
        arithmetic += [g * r for g in gens] + [r * g for g in gens]
        arithmetic.append(pres.parse_poly(pres.format_poly(r)))
        check([q for q in arithmetic if q], "arithmetic")
        check(opposite_presentation(pres).relations, "opposite_presentation")
    check(tensor_presentation(pres, pres).relations, "tensor_presentation")
    words4 = [word_poly(pres, w) for w in free_words(pres.gen_degs, 4)]
    check(words4, "word_poly")

    G = groebner(pres, 8)
    if G.elements:
        check(G.elements, "completion")
    assert all(type(u) is bytes for u in G._leads + list(G.automaton.states))
    sums = [a.scale(2) - b.scale(3) for a, b in zip(words4, words4[1:])]
    check([q for q in map(G.normal_form, gens + words4 + sums) if q], "normal_form")
    for j in range(7):
        assert all(type(w) is bytes for w in G.normal_words(j)), j
        for w in free_words(pres.gen_degs, j):
            nf = G.nf_word(w)
            assert all(type(u) is bytes for u, _ in nf), w
            for _, c in nf:
                assert_scalar(c, p, "nf_word")
    for layer in (FreeLayer(G, (0, 1)), FreeLayer(G, (0, 2), right=True)):
        for j in range(6):
            assert all(type(w) is bytes for _, w in layer.basis(j)), j
            vec = {k: (-1) ** k * (k + 1) % p if p else QQ.scalar((-1) ** k, k + 1) for k in range(layer.dim(j))}
            if vec:
                check([q for q in layer.polys(j, vec) if q], "FreeLayer.polys")
                assert layer.coords(layer.polys(j, vec), j) == {k: c for k, c in vec.items() if c}
    check([q for row in trivial_module(pres).rows for q in row], "trivial_module")

    art = AlgebraArtifacts(pres, i_max=3, d_max=5, d_gb=8)
    _, cert = quotient_by_normal_element(art, OMEGA.get(name, "x"))
    witnesses = [q for q in cert.left_witnesses if q]
    if name in ("kx_mod_x2", "stanley_violator"):
        assert not witnesses  # x times a generator is 0 there
    else:
        check(witnesses, "quotient witnesses")


@pytest.mark.parametrize("algebra, module", [("t34", "t34_frac"), ("qplane2", "qplane2_right")])
def test_module_rows_have_bytes_words(algebra, module):
    pres = read_presentation(os.path.join(PRESENTATIONS, algebra + ".alg"), algebra)
    with open(os.path.join(PRESENTATIONS, module + ".mod")) as fh:
        mpres = parse_module(fh.read(), pres)
    for m in (mpres, opposite_module(mpres)):
        assert_terms([p for row in m.rows for p in row if p], module, 0)


def tuple_key(gen_degs, word):
    """AlgebraPresentation.word_key as it was on tuple words."""
    return (sum(gen_degs[g] for g in word), tuple(-g for g in word))


def test_bytes_order_is_the_tuple_order():
    rng = random.Random(1818)
    shapes = [(1, 1), (1, 2, 1), (1, 3, 2, 1, 2), tuple(rng.randrange(1, 4) for _ in range(256))]
    for gen_degs in shapes:
        n = len(gen_degs)
        key = make_presentation(QQ, [("g%d" % g, d) for g, d in enumerate(gen_degs)], []).word_key
        words = [tuple(rng.randrange(n) for _ in range(rng.randrange(0, 9))) for _ in range(400)]
        # proper prefixes, repeats and the extreme letters, on purpose
        words += [w[:k] for w in words[:60] for k in range(len(w))] + words[:20]
        words += [(0,), (n - 1,), (0, n - 1), (n - 1, 0), (n - 1, n - 1, 0)]
        rng.shuffle(words)
        as_bytes = [bytes(w) for w in words]
        assert [tuple(w) for w in sorted(as_bytes)] == sorted(words), gen_degs
        assert [tuple(w) for w in sorted(as_bytes, key=key)] == sorted(
            words, key=lambda w: tuple_key(gen_degs, w)
        ), gen_degs
        assert tuple(min(as_bytes)) == min(words)
        for u, v in zip(words, words[1:]):
            bu, bv = bytes(u), bytes(v)
            assert (bu < bv, bu == bv) == (u < v, u == v)
            ku, kv = key(bu), key(bv)
            tu, tv = tuple_key(gen_degs, u), tuple_key(gen_degs, v)
            assert (ku < kv, ku == kv) == (tu < tv, tu == tv), (u, v)


def test_at_most_256_generators():
    gens = [("g%d" % i, 1) for i in range(256)]
    pres = make_presentation(QQ, gens, [])
    assert pres.gen_poly(255).lead_word() == b"\xff"
    with pytest.raises(PresentationError, match="257 generators.*at most 256"):
        make_presentation(QQ, gens + [("h", 1)], [])
    with pytest.raises(PresentationError, match="257 generators"):
        parse_presentation("field Q; gens " + " ".join("g%d:1" % i for i in range(257)))


def test_tensor_product_above_256_generators_is_rejected():
    A = parse_presentation("field Q; gens a:1")
    B = make_presentation(QQ, [("b%d" % i, 1) for i in range(255)], [])
    B = make_presentation(QQ, list(zip(B.gen_names, B.gen_degs)), [B.parse_poly("b254^2")])
    AB = tensor_presentation(A, B)
    assert AB.n_gens == 256
    assert bytes((255, 255)) in AB.relations[0].terms  # B's b254 is letter 255
    assert bytes((0, 255)) in AB.relations[-1].terms
    A2 = parse_presentation("field Q; gens a:1 c:1")
    with pytest.raises(PresentationError, match="257 generators"):
        tensor_presentation(A2, B)

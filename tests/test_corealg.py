import glob
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from homreg.corealg import (
    NEG_INF,
    Poly,
    PresentationError,
    make_module_presentation,
    opposite_presentation,
    parse_field,
    parse_module,
    parse_presentation,
)
from homreg.gbasis import groebner
from oracles import src_env, word_poly


def test_parse_commutative_plane():
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x")
    assert pres.gen_names == ("x", "y")
    assert pres.gen_degs == (1, 1)
    assert len(pres.relations) == 1
    assert pres.relations[0].degree == 2


def test_parse_type_34_algebra():
    pres = parse_presentation(
        "field Q; gens x:1 y:1; rels x*x*y - y*x*x, x*y*y - y*y*x"
    )
    assert len(pres.relations) == 2
    assert {r.degree for r in pres.relations} == {3}
    # caret powers parse to the same polynomials
    pres2 = parse_presentation("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    assert set(pres.relations) == set(pres2.relations)


def test_parse_unknown_symbol():
    with pytest.raises(PresentationError, match="unknown symbol 'y'"):
        parse_presentation("field Q; gens x:1; rels x*y")


@pytest.mark.parametrize(
    "order, message",
    [
        ("order x q", "unknown symbol 'q'"),
        ("order x x", "order must be a permutation of all generators"),
        ("order x", "order must be a permutation of all generators"),
        ("order", "order must be a permutation of all generators"),
    ],
    ids=["unknown-name", "repeated-name", "missing-generator", "bare-order"],
)
def test_parse_rejects_bad_order(order, message):
    with pytest.raises(PresentationError, match=message):
        parse_presentation("field Q; gens x:1 y:1; %s; rels x*y - 2*y*x" % order)


def test_parse_rejects_degree_zero_generator():
    with pytest.raises(PresentationError, match="degree"):
        parse_presentation("field Q; gens x:0; rels x*x")


def test_parse_rejects_inhomogeneous_relation():
    with pytest.raises(PresentationError, match="term degrees"):
        parse_presentation("field Q; gens x:1 y:2; rels x*x - y*y")


def test_parse_unsupported_field():
    with pytest.raises(PresentationError, match="unsupported field"):
        parse_presentation("field R; gens x:1")
    with pytest.raises(PresentationError, match="not prime"):
        parse_field("F6")


def test_rational_coefficients_and_comments():
    pres = parse_presentation(
        """
        field Q   # base field
        gens x:1 y:1
        rels 2*x*y - 1/2*y*x
        """
    )
    (rel,) = pres.relations
    # normalized monic under the order: leading word xy has coefficient 1
    lead = rel.lead_word()
    assert rel.terms[lead] == 1


def test_poly_multiply_examples():
    pres = parse_presentation("field Q; gens x:1 y:1")
    xy = pres.parse_poly("x*y")
    y = pres.parse_poly("y")
    prod = xy * y
    assert prod == pres.parse_poly("x*y*y")
    assert prod.degree == 3

    p = pres.parse_poly("x - y")
    q = pres.parse_poly("x + y")
    assert p * q == pres.parse_poly("x*x + x*y - y*x - y*y")

    assert (p * Poly.zero()).is_zero()
    assert Poly.zero().degree == NEG_INF


def test_homogeneity_enforced_by_constructors():
    pres = parse_presentation("field Q; gens x:1 y:2")
    with pytest.raises(PresentationError):
        Poly.make({b"\x00": 1, b"\x01": 1}, pres.gen_degs, pres.field.modulus)
    # addition of different degrees is rejected
    with pytest.raises(PresentationError):
        pres.parse_poly("x") + pres.parse_poly("y")


def test_monomial_order_properties():
    rng = random.Random(7)
    gen_degs = (1, 1, 2)
    key = parse_presentation("field Q; gens x:1 y:1 z:2").word_key

    def random_word():
        return bytes(rng.randrange(3) for _ in range(rng.randrange(0, 5)))

    for _ in range(300):
        u, v, w = random_word(), random_word(), random_word()
        ku, kv, kw = key(u), key(v), key(w)
        # totality + antisymmetry
        assert (ku < kv) + (kv < ku) + (ku == kv) == 1
        # transitivity on the sampled triple
        if ku < kv and kv < kw:
            assert ku < kw
        # degree compatibility
        if sum(gen_degs[g] for g in u) < sum(gen_degs[g] for g in v):
            assert ku < kv
        # multiplicativity
        if ku < kv:
            assert key(w + u) < key(w + v)
            assert key(u + w) < key(v + w)


def test_map_images_is_the_one_check_of_a_map():
    T = parse_presentation("field Q; gens u:1 v:2", label="T")
    A = parse_presentation("field Q; gens x:1", label="A")
    GA = groebner(A, 4)
    assert T.map_images(GA, ["x", A.parse_poly("x^2")]) == (A.parse_poly("x"), A.parse_poly("x^2"))
    for images, message in (
        (["x"], "need one image per source generator"),
        (["x", "x^2", "x^3"], "need one image per source generator"),
        (["0", "x^2"], "image of u must be homogeneous of degree 1"),
        (["x", "x"], "image of v must be homogeneous of degree 2"),
    ):
        with pytest.raises(PresentationError, match=message):
            T.map_images(GA, images)
    A7 = parse_presentation("field F7; gens x:1", label="A7")
    with pytest.raises(PresentationError, match="T is over Q but A7 is over F7; a map must keep the base field"):
        T.map_images(groebner(A7, 4), ["x", "x^2"])
    # the relations must map to zero: in E = k<x, y>/(x^2, y^2), xy - yx is not zero
    P = parse_presentation("field Q; gens u:1 v:1; rels u*v - v*u", label="P")
    E = parse_presentation("field Q; gens x:1 y:1; rels x^2, y^2", label="E")
    GE = groebner(E, 6)
    with pytest.raises(PresentationError, match=r"the relation u\*v - v\*u of P does not map to zero in E"):
        P.map_images(GE, ["x", "y"])
    assert P.map_images(GE, ["x", "2*x"]) == (E.parse_poly("x"), E.parse_poly("2*x"))


def test_order_precedence_controls_leading_word():
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x; order y x")
    (rel,) = pres.relations
    assert pres.format_word(rel.lead_word()) == "y*x"  # yx leads when y > x


def test_opposite_presentation():
    plane = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x")
    op = opposite_presentation(plane)
    # the commutative plane is self-opposite up to sign
    assert op.relations[0] == -plane.relations[0] or op.relations[0] == plane.relations[0]

    t34 = parse_presentation("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    op = opposite_presentation(t34)
    assert op.relations[0] == t34.parse_poly("y*x^2 - x^2*y")
    assert op.relations[1] == t34.parse_poly("y^2*x - x*y^2")
    # involution, term for term
    back = opposite_presentation(op)
    assert back.relations == t34.relations
    assert back.label == t34.label


def test_presentation_text_round_trip():
    for order in ("", "; order y x"):
        src = "field Q; gens x:1 y:1%s; rels x^2*y - y*x^2, x*y^2 - y^2*x" % order
        pres = parse_presentation(src, label="t")
        text = pres.to_text()
        again = parse_presentation(text, label="t")
        # the serializer orders relations canonically, so compare as sets
        assert set(again.relations) == set(pres.relations)
        assert again.gen_names == pres.gen_names
        assert again.to_text() == text


def test_prime_field_arithmetic():
    pres = parse_presentation("field F5; gens x:1 y:1")
    x, xy = pres.parse_poly("x"), pres.parse_poly("x*y")
    assert (x + pres.parse_poly("4*x")).is_zero()
    assert pres.parse_poly("x + 4*x").is_zero()
    assert pres.parse_poly("3*x").monic() == x
    assert pres.parse_poly("2*x") * pres.parse_poly("3*y") == xy
    assert (-x).terms == {b"\x00": 4}
    assert x.scale(7).terms == {b"\x00": 2} and x.scale(10).is_zero()
    assert pres.parse_poly("2/3*x").terms == {b"\x00": 4}  # 2 * 3^-1 = 2 * 2
    assert pres.format_poly(pres.parse_poly("x*y - 2*y*x")) == "x*y + 3*y*x"


def test_rational_scalars_are_ints_where_integral():
    pres = parse_presentation("field Q; gens x:1 y:1")
    half = pres.parse_poly("1/2*x")
    assert half.terms == {b"\x00": Fraction(1, 2)}
    for p in (half + half, half.scale(2), half.scale(Fraction(4)).monic(), pres.parse_poly("4/2*x")):
        assert [type(c) for c in p.terms.values()] == [int], p
    monic = pres.parse_poly("2*x - 3*y").monic()
    assert monic.terms == {b"\x00": 1, b"\x01": Fraction(-3, 2)}
    assert type(monic.terms[b"\x00"]) is int
    assert pres.format_poly(monic) == "x - 3/2*y"


# (10^9 + 7)(10^9 + 9): no factor below 10^9, so trial division takes 10^9 steps
COMPOSITE = (10**9 + 7) * (10**9 + 9)
# the least strong pseudoprime to all the prime bases 2..37 (Sorenson and Webster)
PSEUDOPRIME_37 = 399165290221 * 798330580441


def test_parse_field_decides_large_moduli_at_once():
    # run in a subprocess with a timeout, so that a slow primality test
    # fails here instead of hanging the suite
    names = ["F1000000000000000003", "F%d" % (2**61 - 1), "F%d" % COMPOSITE, "F6", "F4", "F1", "F0", "F2",
             "F101", "F%d" % PSEUDOPRIME_37, "F3317044064679887385961813", "F3317044064679887385961981"]
    code = (
        "import json\n"
        "from homreg.corealg import PresentationError, parse_field\n"
        "out = {}\n"
        "for name in %r:\n"
        "    try:\n"
        "        out[name] = parse_field(name).modulus\n"
        "    except PresentationError as exc:\n"
        "        out[name] = str(exc)\n"
        "print(json.dumps(out))\n" % names
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["F1000000000000000003"] == 10**18 + 3
    assert out["F%d" % (2**61 - 1)] == 2**61 - 1
    assert out["F2"] == 2 and out["F101"] == 101
    for n in (COMPOSITE, 6, 4, 1, 0, PSEUDOPRIME_37):
        assert out["F%d" % n] == "unsupported field F%d: %d is not prime" % (n, n)
    # the largest prime below the bound where Miller-Rabin on bases 2..41 is proven exact
    assert out["F3317044064679887385961813"] == 3317044064679887385961813
    assert "primality is proven only below" in out["F3317044064679887385961981"]


def test_miller_rabin_agrees_with_trial_division():
    from homreg.corealg import _PRIME_BOUND, _is_prime

    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the bases 2, 3, 5 and 7: composites that fewer witnesses miss
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not _is_prime(n), n
    assert _is_prime(2**61 - 1) and not _is_prime(COMPOSITE)
    # bases 2..37 all miss this composite, so base 41 is needed below the bound
    assert PSEUDOPRIME_37 == 318665857834031151167461 and not _is_prime(PSEUDOPRIME_37)
    # the bound is the least composite that all thirteen witnesses miss (43 does not),
    # which is why no modulus from there on is accepted
    assert _PRIME_BOUND == 1287836182261 * 2575672364521
    assert _is_prime(_PRIME_BOUND) and pow(43, _PRIME_BOUND - 1, _PRIME_BOUND) != 1
    largest = 3317044064679887385961813
    assert _is_prime(largest) and not any(_is_prime(n) for n in range(largest + 1, _PRIME_BOUND))


def test_parse_presentation_in_another_field():
    src = "field F7; gens x:1 y:1; rels x*y - 2/3*y*x"
    for name, coeff in (("Q", Fraction(-2, 3)), ("F5", 1), ("F7", 4)):
        pres = parse_presentation(src, field=parse_field(name))
        assert pres.field == parse_field(name)
        assert pres.relations[0].terms[b"\x01\x00"] == coeff
    # the directive is still required and checked
    with pytest.raises(PresentationError, match="missing 'field' directive"):
        parse_presentation("gens x:1", field=parse_field("Q"))
    with pytest.raises(PresentationError, match="unsupported field F4"):
        parse_presentation("field F4; gens x:1", field=parse_field("Q"))
    with pytest.raises(PresentationError, match="is undefined in F3"):
        parse_presentation(src, field=parse_field("F3"))


def test_parse_module_rows():
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x")
    m = parse_module("side left; gens 0 1; rels x*e0 - e1, y^2*e1", pres)
    assert m.side == "left"
    assert m.gen_degs == (0, 1)
    assert m.row_degrees == (1, 3)
    with pytest.raises(PresentationError, match="inhomogeneous"):
        parse_module("gens 0 1; rels x*e0 - y*e1", pres)
    with pytest.raises(PresentationError, match="out of range"):
        parse_module("gens 0; rels x*e3", pres)


def test_module_rows_must_have_one_entry_per_generator():
    # the parser always builds full rows, so only an API caller can get this wrong
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x")
    with pytest.raises(PresentationError, match="^relation row length does not match generator count$"):
        make_module_presentation(pres, "left", (0, 1), [(pres.gen_poly(0),)])


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_ALGEBRAS = sorted(
    glob.glob(os.path.join(ROOT, "presentations", "*.alg"))
    + glob.glob(os.path.join(ROOT, "tests", "inputs", "*.alg"))
    + glob.glob(os.path.join(ROOT, "perfbench", "inputs", "*.alg"))
)


@pytest.mark.parametrize(
    "rels",
    ["x*y - y*x*", "2*", "x^2*, y", "x*y - y*x,", "x, , y", ", x", ","],
    ids=["dangling-star", "coefficient-star", "star-before-comma", "trailing-comma",
         "empty-item", "leading-comma", "bare-comma"],
)
def test_parse_refuses_dangling_star_and_empty_items(rels):
    with pytest.raises(PresentationError):
        parse_presentation("field Q; gens x:1 y:1; rels %s" % rels)


@pytest.mark.parametrize("text", ["x^2*", "2*", "x*y - y*", "x, y", ""])
def test_parse_poly_reads_one_whole_polynomial(text):
    pres = parse_presentation("field Q; gens x:1 y:1")
    with pytest.raises(PresentationError):
        pres.parse_poly(text)


@pytest.mark.parametrize(
    "module",
    ["gens 0; rels x*e0,, y*e0", "gens 0; rels x*e0,", "gens 0; rels , x*e0", "gens 0; rels ,",
     "gens 0; rels x*e0 - y*", "gens 0; rels 2*", "gens 0; rels x*y", "gens; rels x"],
    ids=["empty-item", "trailing-comma", "leading-comma", "bare-comma", "dangling-star",
         "coefficient-star", "no-basis-symbol", "no-generators"],
)
def test_parse_module_refuses_malformed_rows(module):
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x")
    with pytest.raises(PresentationError):
        parse_module("side left; " + module, pres)


def test_parse_module_term_forms():
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x")
    one, x, zero = word_poly(pres, b""), pres.gen_poly(0), Poly.zero()
    for rels, row in (
        ("e0", (one, zero)),
        ("-e0", (-one, zero)),
        ("2*e0", (one.scale(2), zero)),
        ("1/2*x*e0", (x.scale(Fraction(1, 2)), zero)),
        ("x*e0 + 2*x*e0 - x*e1", (x.scale(3), -x)),  # terms on one slot and word add up
        ("x*e0 - x*e0 + e1", (zero, one)),
    ):
        assert parse_module("gens 0 0; rels %s" % rels, pres).rows == (row,), rels
    assert parse_module("gens 0; rels", pres).rows == ()
    assert parse_presentation("field Q; gens x:1; rels").relations == ()


def test_module_row_reads_each_relation_term_by_term():
    from homreg.cli import GOLDEN_SOURCES

    sources = list(GOLDEN_SOURCES.values()) + [open(path).read() for path in SHIPPED_ALGEBRAS]
    for src in sources:
        pres = parse_presentation(src)
        for r in pres.relations:
            row = " ".join(
                "%s %s*%se0" % ("-" if c < 0 else "+", abs(c), "".join(pres.gen_names[g] + "*" for g in w))
                for w, c in r.terms.items()
            )
            assert parse_module("gens 0; rels %s" % row, pres).rows == ((r,),), row


@pytest.mark.parametrize("path", SHIPPED_ALGEBRAS, ids=os.path.basename)
def test_shipped_presentations_reparse_from_their_text(path):
    with open(path) as fh:
        pres = parse_presentation(fh.read(), label="a")
    again = parse_presentation(pres.to_text(), label="a")
    # to_text orders the relations canonically, so they compare as a set
    assert set(again.relations) == set(pres.relations) and len(again.relations) == len(pres.relations)
    for field in ("field", "gen_names", "gen_degs", "label"):
        assert getattr(again, field) == getattr(pres, field)

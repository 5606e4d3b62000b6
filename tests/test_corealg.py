import random
from fractions import Fraction

import pytest

from homreg.corealg import (
    MonomialOrder,
    NEG_INF,
    Poly,
    PresentationError,
    convert_field,
    opposite_presentation,
    parse_field,
    parse_module,
    parse_presentation,
)


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
        Poly.make({b"\x00": pres.field.one(), b"\x01": pres.field.one()}, pres.gen_degs)
    # addition of different degrees is rejected
    with pytest.raises(PresentationError):
        pres.parse_poly("x") + pres.parse_poly("y")


def test_monomial_order_properties():
    rng = random.Random(7)
    gen_degs = (1, 1, 2)
    order = MonomialOrder(gen_degs)

    def random_word():
        return bytes(rng.randrange(3) for _ in range(rng.randrange(0, 5)))

    for _ in range(300):
        u, v, w = random_word(), random_word(), random_word()
        ku, kv, kw = order.key(u), order.key(v), order.key(w)
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
            assert order.key(w + u) < order.key(w + v)
            assert order.key(u + w) < order.key(v + w)


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
    F5 = parse_field("F5")
    a = F5.from_int(3)
    b = F5.from_int(4)
    assert a + b == 2
    assert a * b == 2
    assert a - b == 4
    assert (a / b).v == (3 * pow(4, -1, 5)) % 5
    assert -a == 2
    assert not F5.zero()
    assert F5.one()


def test_convert_field():
    pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - 2*y*x")
    pres5 = convert_field(pres, parse_field("F5"))
    (rel,) = pres5.relations
    coeffs = sorted(c.v for c in rel.terms.values())
    assert coeffs == [1, 3]  # -2 = 3 mod 5
    # a residue mod 5 is no rational number and no residue mod 7
    for target in ("Q", "F7"):
        with pytest.raises(PresentationError, match="cannot map coefficients from F5 to %s" % target):
            convert_field(pres5, parse_field(target))
    assert convert_field(pres5, parse_field("F5")) is pres5


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

from fractions import Fraction

import pytest

from homreg.corealg import CertificationError, parse_presentation
from homreg.gbasis import buchberger_truncated
from homreg.series import (
    RationalSeries,
    hilbert_rational,
    hilbert_truncated,
    make_rational,
    series_product,
    stanley_check,
)

from oracles import eval_rational, expand_quotient, expand_series


def gb_of(src, d_gb=12):
    return buchberger_truncated(parse_presentation(src), d_gb)


def test_truncated_coefficients():
    G = gb_of("field Q; gens x:1 y:1; rels x*y - y*x")
    assert hilbert_truncated(G, 5).coefficients == (1, 2, 3, 4, 5, 6)

    GT = gb_of("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    assert hilbert_truncated(GT, 4).coefficients == (1, 2, 4, 6, 9)

    GA3 = gb_of("field Q; gens x:1; rels x^3")
    assert hilbert_truncated(GA3, 5).coefficients == (1, 1, 1, 0, 0, 0)


def test_rational_form_finite_dimensional():
    for d in (2, 3, 4, 5):
        G = gb_of("field Q; gens x:1; rels x^%d" % d)
        h = hilbert_rational(G)
        # (1 - t^d)/(1 - t) reduces to the polynomial 1 + t + ... + t^(d-1)
        assert h.is_polynomial()
        assert h.numerator == tuple([1] * d)
        assert h.degree == d - 1


def test_rational_form_t34():
    G = gb_of("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    h = hilbert_rational(G)
    assert h.numerator == (1,)
    assert sorted(h.denom_exponents) == [1, 1, 2]
    assert h.degree == -4
    # expansion reproduces the truncated coefficients on the whole range
    assert tuple(expand_series(h.numerator, h.denominator, 12)) == hilbert_truncated(G, 12).coefficients
    # and matches an independent convolution expansion
    assert expand_series(h.numerator, h.denominator, 10) == expand_quotient([1], [1, 1, 2], 10)


def test_rational_form_b_quotient():
    G = gb_of("field Q; gens x:1 y:1; rels x^2, x*y^2 - y^2*x")
    h = hilbert_rational(G)
    assert h.numerator == (1,)
    assert sorted(h.denom_exponents) == [1, 1]
    assert h.degree == -2


def test_rational_refused_for_incomplete_basis():
    G = gb_of("field Q; gens x:1; rels x^3", d_gb=3)
    assert not G.complete
    with pytest.raises(CertificationError, match="complete"):
        hilbert_rational(G)
    # truncated series still offered inside the window
    assert hilbert_truncated(G, 3).coefficients == (1, 1, 1, 0)


def test_series_product():
    one_plus_t = make_rational([1, 1], [1])  # the polynomial 1 + t
    prod = series_product(one_plus_t, one_plus_t)
    assert prod.numerator == (1, 2, 1)
    assert prod.degree == 2

    GT = gb_of("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    hT = hilbert_rational(GT)
    unit = make_rational([1], [1])
    assert series_product(hT, unit) == hT

    h2 = make_rational([1], [1, -2, 1])  # 1 / (1 - t)^2
    assert series_product(hT, h2).degree == hT.degree + h2.degree


def test_stanley_truncated_polynomial_rings():
    # h(1/t) = t^(1-d) h(t) for k[x]/(x^d): the shift is negative
    for d in (2, 3, 4, 5):
        G = gb_of("field Q; gens x:1; rels x^%d" % d)
        v = stanley_check(hilbert_rational(G))
        assert v.satisfied and v.sign == 1 and v.shift == -(d - 1)


def test_stanley_t34():
    G = gb_of("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    v = stanley_check(hilbert_rational(G))
    assert v.satisfied and v.sign == -1 and v.shift == 4


def test_stanley_violated():
    G = gb_of("field Q; gens x:1 y:1; rels x*y - y*x, x^2, x*y, y^2")
    h = hilbert_rational(G)
    assert h.numerator == (1, 2)
    assert not stanley_check(h).satisfied


def test_stanley_matches_sample_point_substitution():
    # independent oracle: evaluate h(1/t0) and sign * t0^l * h(t0) exactly
    sources = [
        "field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x",
        "field Q; gens x:1; rels x^4",
        "field Q; gens x:1 y:1; rels x*y - y*x",
        "field Q; gens u:2",
    ]
    for src in sources:
        h = hilbert_rational(gb_of(src))
        v = stanley_check(h)
        assert v.satisfied
        for t0 in (Fraction(2), Fraction(3), Fraction(5, 2)):
            lhs = eval_rational(h, 1 / t0)
            rhs = v.sign * t0**v.shift * eval_rational(h, t0)
            assert lhs == rhs
        # involution: applying the substitution twice returns h
        assert v.sign * v.sign == 1


def test_degree_is_a_invariant_after_cancellation():
    # (1 - t^2) / (1 - t)^2 cancels to (1 + t)/(1 - t): degree 0
    h = RationalSeries((1, 1), (1, -1), (1,), 0)
    built = make_rational([1, 0, -1], [1, -2, 1])
    assert built == h


def test_free_algebra_series():
    G = gb_of("field Q; gens x:1 y:1")
    h = hilbert_rational(G)
    assert h.numerator == (1,)
    assert h.denominator == (1, -2)
    assert h.denom_exponents is None  # 1 - 2t is not a product of (1 - t^e)
    assert expand_series(h.numerator, h.denominator, 4) == [1, 2, 4, 8, 16]


@pytest.mark.parametrize(
    "src",
    [
        "field Q; gens x:1 t:2; rels x*t - t*x, t^2 - x^4",
        "field Q; gens x:1 y:1",
        "field Q; gens x:1 y:2",
        # a polynomial of degree bound - 1: the linear complexity is the bound
        "field Q; gens x:1; rels x^5",
    ],
    ids=["hypersurface", "free", "free-1-2", "x5"],
)
def test_rational_expansion_matches_truncated(src):
    G = gb_of(src)
    assert G.complete
    # hilbert_rational fits 2 * (bound + 1) + 1 coefficients
    bound = len(G.automaton.states) * G.presentation.max_gen_degree()
    upto = 3 * (2 * (bound + 1) + 1)
    h = hilbert_rational(G)
    assert expand_series(h.numerator, h.denominator, upto) == list(hilbert_truncated(G, upto).coefficients)

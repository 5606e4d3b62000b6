import glob
import os
import random
from fractions import Fraction

import pytest

from homreg.cli import main
from homreg.corealg import CertificationError, parse_presentation
from homreg.gbasis import WordAutomaton, groebner
from homreg.series import (
    RationalSeries,
    _berlekamp_massey,
    _factor_denominator,
    hilbert_rational,
    hilbert_truncated,
    normal_quotient_mismatch,
    series_product,
    stanley_check,
)

from oracles import (
    eval_rational,
    expand_quotient,
    expand_series,
    hilbert_rational_reference,
    one_minus_t_product,
    random_algebra_source,
    series_product_reference,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gb_of(src, d_gb=12):
    return groebner(parse_presentation(src), d_gb)


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


def test_normal_quotient_mismatch_is_the_first_degree_omega_is_not_regular():
    h = {src: hilbert_rational(gb_of("field Q; gens x:1 y:1; rels " + src))
         for src in ("x^2*y - y*x^2, x*y^2 - y^2*x", "x^2, x*y^2 - y^2*x")}
    assert normal_quotient_mismatch(*h.values(), 2) is None  # B = T/(x^2)
    kx, A2, A3 = (hilbert_rational(gb_of("field Q; gens x:1" + r)) for r in ("", "; rels x^2", "; rels x^3"))
    assert normal_quotient_mismatch(kx, A2, 2) is None
    # 1 + t against (1 - t^3)/(1 - t) = 1 + t + t^2; x^2 kills x in k[x]/(x^3): 1 + t against 1 + t - t^3 - t^4
    assert (normal_quotient_mismatch(kx, A2, 3), normal_quotient_mismatch(A3, A2, 2)) == (2, 3)


def test_series_product():
    one_plus_t = RationalSeries((1, 1), (1,), (), 1)  # the polynomial 1 + t
    prod = series_product(one_plus_t, one_plus_t)
    assert prod.numerator == (1, 2, 1)
    assert prod.degree == 2

    GT = gb_of("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x")
    hT = hilbert_rational(GT)
    unit = RationalSeries((1,), (1,), (), 0)
    assert series_product(hT, unit) == hT

    h2 = RationalSeries((1,), (1, -2, 1), (1, 1), -2)  # 1 / (1 - t)^2
    assert series_product(hT, h2).degree == hT.degree + h2.degree

    # (1 + t) * 1/((1 - t)^2 (1 - t^2)) cancels to 1/(1 - t)^3
    h3 = RationalSeries((1,), tuple(one_minus_t_product((1, 1, 2))), (1, 1, 2), -4)
    assert series_product(one_plus_t, h3) == RationalSeries((1,), (1, -3, 3, -1), (1, 1, 1), -3)


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
    # (1 - t^2) * 1/(1 - t)^2 cancels to (1 + t)/(1 - t): degree 0
    h = RationalSeries((1, 1), (1, -1), (1,), 0)
    one_minus_t2 = RationalSeries((1, 0, -1), (1,), (), 2)
    built = series_product(one_minus_t2, RationalSeries((1,), (1, -2, 1), (1, 1), -2))
    assert built == h
    # and a product that cancels to a polynomial: (1 - t^2) * 1/(1 - t) = 1 + t
    assert series_product(one_minus_t2, RationalSeries((1,), (1, -1), (1,), -1)) == RationalSeries(
        (1, 1), (1,), (), 1
    )


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


def oracle_bases(which, golden):
    """The complete bases of one input set of the integer-series oracle test."""
    if which == "golden":
        bases = [art.gb() for art in golden.values()]
    elif which == "presentations":
        bases = []
        for path in sorted(glob.glob(os.path.join(ROOT, "presentations", "*.alg"))):
            with open(path) as fh:
                bases.append(groebner(parse_presentation(fh.read()), 7))
        assert len(bases) == 10
    else:
        field, seeds = {"random-Q": ("Q", (1, 7, 11)), "random-F101": ("F101", (2, 8, 12))}[which]
        bases = []
        for seed in seeds:
            rng = random.Random(seed)
            bases += [groebner(parse_presentation(random_algebra_source(rng, field)), 7) for _ in range(60)]
    return [G for G in bases if G.complete]


@pytest.mark.parametrize("which", ["golden", "presentations", "random-Q", "random-F101"])
def test_the_integer_series_is_the_fraction_route(which, golden):
    bases = oracle_bases(which, golden)
    assert len(bases) >= 8
    unfactored = 0
    series = []
    for G in bases:
        h = hilbert_rational(G)
        ref = hilbert_rational_reference(G)
        for field in ("numerator", "denominator", "denom_exponents", "degree"):
            assert getattr(h, field) == getattr(ref, field), (field, G.presentation.to_text())
        unfactored += h.denom_exponents is None
        # past the 2 * (bound + 1) + 1 coefficients Berlekamp-Massey saw
        upto = 3 * (len(G.automaton.states) * max(G.presentation.max_gen_degree(), 1) + 1)
        assert expand_series(h.numerator, h.denominator, upto) == G.automaton.dims(upto)
        series.append(h)
    if which.startswith("random"):
        assert unfactored >= 10
    # series_product against the gcd over Q, on every pair of distinct series
    series = list(dict.fromkeys(series))
    cancelled = 0
    for i, h1 in enumerate(series):
        for h2 in series[i:]:
            prod = series_product(h1, h2)
            assert prod == series_product_reference(h1, h2), (h1, h2)
            cancelled += len(prod.denominator) < len(h1.denominator) + len(h2.denominator) - 1
    if which.startswith("random"):
        assert cancelled >= 50


def test_berlekamp_massey_over_z():
    fibonacci = [1, 1]
    while len(fibonacci) < 12:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert _berlekamp_massey(fibonacci) == [1, -1, -1]
    assert _berlekamp_massey([2**n for n in range(10)]) == [1, -2]
    # 1/((1 - t)^2 (1 - t^3)) gives back its expanded denominator
    assert _berlekamp_massey(expand_quotient([1], [1, 1, 3], 15)) == [1, -2, 1, -1, 2, -1]
    # t^2 + t^3/(1 - t) = t^2/(1 - t): complexity 3, connection polynomial of degree 1
    assert _berlekamp_massey([0, 0, 1, 1, 1, 1, 1, 1]) == [1, -1]
    # (1 + 2t^2)/(1 - 2t - 2t^2): updates with content 4, 4 and 12, and C[0] = -1 before the last division
    assert _berlekamp_massey(expand_series([1, 0, 2], [1, -2, -2], 11)) == [1, -2, -2]
    # 4 * (1/2)^n: the connection polynomial 1 - t/2 is not integral
    with pytest.raises(ArithmeticError, match="internal error"):
        _berlekamp_massey([4, 2, 1])


def test_one_minus_t_power_factoring():
    for exponents in ((1,), (2,), (1, 1, 2), (2, 1, 1), (3, 1, 2), (2, 3, 1, 1), (4, 2), (5, 1, 5)):
        assert _factor_denominator(one_minus_t_product(exponents)) == tuple(sorted(exponents))
    assert _factor_denominator([1, -1, -1]) is None
    assert _factor_denominator([1, -2]) is None
    assert _factor_denominator([1, 0, -1]) == (2,)
    assert _factor_denominator([1]) == ()


def test_a_harness_run_recounts_paths_only_for_a_higher_degree(monkeypatch, capsys):
    # regression guard: hilbert_truncated, hilbert_rational and dim all read
    # the basis's kept path counts, so an automaton's counts are recounted
    # only for a higher degree; reading them apart took 34
    uptos = {}
    dims = WordAutomaton.dims

    def logging_dims(self, upto, rows=None):
        uptos.setdefault(id(self), []).append(upto)
        return dims(self, upto, rows)

    monkeypatch.setattr(WordAutomaton, "dims", logging_dims)
    assert main(["harness", "--format", "jsonl"]) == 0
    with open(os.path.join(ROOT, "perfbench", "expected", "golden_harness.jsonl")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert all(seq == sorted(set(seq)) for seq in uptos.values()), uptos
    assert sum(map(len, uptos.values())) <= 21

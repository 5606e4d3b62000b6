import random

import pytest

from homreg import regularity, resolution
from homreg.corealg import CertificationError, parse_field, parse_presentation
from homreg.regularity import (
    BoundedValue,
    HarnessCase,
    as_regularity,
    AlgebraArtifacts,
    concavity_certificate,
    hilbert_criterion,
    inequality_harness,
    invariant_ring_obstruction,
    koszul_verdict,
    ta_tc_pairs,
    tor_regularity,
)
from homreg.constructions import concavity_witness
from homreg.resolution import BettiTable, ext_into_algebra

from oracles import ext_reference, random_algebra_source


def test_bounded_value_arithmetic():
    e = BoundedValue.exact(3)
    a = BoundedValue.at_least(2)
    u = BoundedValue.unknown()
    assert e.add(e).kind == "exact" and e.add(e).value == 6
    assert e.add(a).kind == "at_least" and e.add(a).value == 5
    assert a.add(a).value == 4
    assert e.add(u).kind == "unknown"
    assert e.add(BoundedValue.exact(-1)).value == 2
    assert str(a) == ">=2"


def test_artifacts_refuse_a_cache_directory():
    # bases are computed in the process; `cache_dir=None` is still accepted
    pres = parse_presentation("field Q; gens x:1; rels x^2")
    assert AlgebraArtifacts(pres, cache_dir=None).gb().complete
    with pytest.raises(TypeError, match="cache_dir must be None"):
        AlgebraArtifacts(pres, cache_dir="cache")
    with pytest.raises(TypeError):
        AlgebraArtifacts(pres, 8, 12, 12, "cache")


def test_tor_regularity_values(golden):
    assert golden["T"].resolve_torreg() == BoundedValue.exact(
        1, golden["T"].resolve_torreg().note
    )
    assert golden["plane"].resolve_torreg().value == 0
    a3 = golden["A3"].resolve_torreg()
    assert a3.kind == "at_least" and a3.value >= 2  # true value is infinite


def test_tor_regularity_table_level(golden):
    bv = tor_regularity(golden["T"].betti_k())
    assert bv.is_exact and bv.value == 1
    bv3 = tor_regularity(golden["A3"].betti_k())
    assert bv3.kind == "at_least"


def test_koszul_verdicts(golden):
    # the table alone, with no Torreg(k) to decide it
    u = BoundedValue.unknown()
    assert koszul_verdict(golden["plane"].betti_k(), u).status == "yes"
    assert koszul_verdict(golden["T"].betti_k(), u).status == "no"
    assert koszul_verdict(golden["T"].betti_k(), u).witness == (2, 3)
    assert koszul_verdict(golden["B"].betti_k(), u).status == "no"
    # an exact Torreg(k) decides it; an off-diagonal witness is still named
    plane, T = golden["plane"], golden["T"]
    assert koszul_verdict(plane.betti_k(), plane.resolve_torreg()).caveat == "Torreg(k) = 0 certified"
    assert koszul_verdict(T.betti_k(), T.resolve_torreg()).witness == (2, 3)
    linear = plane.betti_k()
    assert koszul_verdict(linear, BoundedValue.exact(1)).caveat == "Torreg(k) > 0 certified"
    # A(2) is linear through the window; the report upgrades it to certified
    # yes through the quotient upper bound
    assert golden["A2"].report().koszul.status == "yes"


def test_cm_regularity_cases(golden):
    def cmreg(art):
        bv, case = art.resolve_cmreg()
        return case, bv.kind, bv.value

    # finite-dimensional: CMreg = top degree
    for d in (2, 3):
        art = AlgebraArtifacts(
            parse_presentation("field Q; gens x:1; rels x^%d" % d, label="A%d" % d)
        )
        assert cmreg(art) == ("finite_dimensional", "exact", d - 1)
    # AS regular of type (3, 4): d - l
    assert cmreg(golden["T"]) == ("as_regular", "exact", -1)
    # normal quotient B = T/(x^2): CMreg(T) + deg(x^2) - 1
    assert cmreg(golden["B"]) == ("normal_quotient", "exact", 0)
    # tensor product: the sum over the factors, CMreg(A2) + CMreg(T) = 1 - 1
    assert cmreg(golden["A2xT"]) == ("tensor_additive", "exact", 0)
    # asserted CM degree s = 2 on B built afresh: s + deg h = 2 - 2
    fresh = AlgebraArtifacts(golden["B"].presentation, i_max=4, d_max=6, d_gb=6)
    fresh.cm_degree_hint = 2
    assert cmreg(fresh) == ("cm_asserted", "exact", 0)


def test_as_regularity_sum():
    assert as_regularity(BoundedValue.exact(1), BoundedValue.exact(-1)).value == 0
    assert as_regularity(BoundedValue.at_least(1), BoundedValue.exact(0)).kind == "at_least"
    assert as_regularity(BoundedValue.exact(1), BoundedValue.unknown()).kind == "unknown"


def test_as_regular_verdicts(golden):
    v = golden["plane"].as_regular_verdict()
    assert (v.status, v.dim, v.index) == ("yes", 2, 2)
    v = golden["T"].as_regular_verdict()
    assert (v.status, v.dim, v.index) == ("yes", 3, 4)
    assert golden["B"].as_regular_verdict().status == "no"
    assert golden["A2"].as_regular_verdict().status == "no"
    assert golden["k[u2]"].as_regular_verdict().status == "yes"
    assert golden["k[u2]"].as_regular_verdict().index == 2


def test_reports_golden_values(golden):
    repT = golden["T"].report()
    assert (repT.torreg_k.value, repT.cmreg.value, repT.asreg.value) == (1, -1, 0)
    assert repT.gldim.value == 3 and repT.as_index.value == 4
    ta, tc = ta_tc_pairs(repT)
    assert (str(ta[0]), str(ta[1])) == ("1", "0")
    assert (str(tc[0]), str(tc[1])) == ("1", "-1")

    repB = golden["B"].report()
    assert (repB.torreg_k.value, repB.cmreg.value, repB.asreg.value) == (1, 0, 1)
    assert repB.torreg_k.is_exact and repB.cmreg.is_exact
    assert repB.as_regular.status == "no"

    repC = golden["Tcomm"].report()
    assert repC.torreg_k.is_exact and repC.torreg_k.value == 0
    assert repC.as_regular.status == "yes"

    repA2 = golden["A2"].report()
    ta, _ = ta_tc_pairs(repA2)
    assert (str(ta[0]), str(ta[1])) == ("0", "1")


def test_hilbert_criterion(golden):
    r = hilbert_criterion(golden["plane"], 2)
    assert r.verdict == "yes" and r.h_degree == -2

    r = hilbert_criterion(golden["A3"], 0)
    assert r.verdict == "no" and r.h_degree == 2

    # B satisfies the numerical test with s = 2, but no witness qualifies:
    # the only available finite map comes from a non-Koszul algebra, and
    # the report must surface that the hypotheses fail
    wT = concavity_witness(
        golden["T"],
        [golden["B"].presentation.parse_poly("x"), golden["B"].presentation.parse_poly("y")],
        golden["B"],
    )
    r = hilbert_criterion(golden["B"], 2, witnesses=[wT])
    assert r.verdict == "yes"
    assert any("does NOT satisfy" in n for n in r.witness_notes)
    assert any("conditional" in n for n in r.witness_notes)
    assert any("user assertion" in a for a in r.assertions)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_free_algebra_is_refuted_by_its_top_step_without_ext(n):
    art = AlgebraArtifacts(parse_presentation("field Q; gens " + " ".join("%s:1" % g for g in "xyzw"[:n])))
    assert art.as_regular_verdict().text() == "no (β_{1,1} = %d at the top step d = 1)" % n
    assert art._ext_k is None


def test_an_asymmetric_table_with_a_one_dimensional_top_is_refuted_without_ext():
    # x*y^12 ends in one generator, beta_{2,13} = 1, so only the entry comparison sees it
    art = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y^12"), 8, 14, 14)
    table = art.betti_k()
    assert table.terminated and table.entries == {(0, 0): 1, (1, 1): 2, (2, 13): 1}
    assert art.as_regular_verdict().text() == "no (β_{1,1} = 2 but β_{1,12} = 0)"
    assert art._ext_k is None


def test_a_top_step_with_two_generators_names_both():
    src = "field Q; gens x:1 y:1 z:2; rels -3*x*z-2*x*y*x-1*y*x*y, 1*x*y"
    art = AlgebraArtifacts(parse_presentation(src), 5, 7, 7)
    table = art.betti_k()
    assert table.terminated and table.entries == {(0, 0): 1, (1, 1): 2, (1, 2): 1, (2, 2): 1, (2, 3): 1}
    verdict = art.as_regular_verdict().text()
    assert verdict == "no (β_{2,2} = 1, β_{2,3} = 1: 2 generators at the top step d = 2)"
    assert art._ext_k is None


def ext_verdict(art):
    """"yes" when Ext^i(k, A) on its windows is one k at the top step d and zero elsewhere, else "no"."""
    R = art.resolution_k()
    E = ext_into_algebra(R, art.gb())
    top = [r for (i, _), r in E.entries.items() if i == R.termination_step]
    return "yes" if top == [1] and len(E.entries) == 1 else "no"


def test_betti_symmetry_agrees_with_the_ext_verdict(golden):
    # a refutation by the table must be a "no" of Ext, and every "yes" of
    # Ext must pass the table, so the verdict is Ext's wherever k terminates;
    # so is the Koszul dual's, wherever it decides
    arts = [("golden", art) for art in golden.values() if art.known_betti_k is None]
    for field, seed in (("Q", 7), ("F101", 8)):
        rng = random.Random(seed)
        for _ in range(40):
            pres = parse_presentation(random_algebra_source(rng, field))
            arts.append(("random", AlgebraArtifacts(pres, 5, 7, 7)))
    refuted = agreed = 0
    decided = {("golden", "yes"): 0, ("random", "yes"): 0, ("random", "no"): 0}
    for origin, art in arts:
        R = art.resolution_k()
        if R.terminated:
            verdict = art.as_regular_verdict()
            assert verdict.status == ext_verdict(art), art.presentation.to_text()
            refuted += verdict.reason.startswith("β")
            agreed += verdict.status == "yes"
            if not verdict.reason.startswith("β"):
                dual = regularity._koszul_dual_verdict(art, R.termination_step)
                if dual is not None:
                    assert dual == verdict, art.presentation.to_text()
                    decided[origin, dual.status] += 1
    assert refuted >= 10 and agreed >= 5
    assert decided[("golden", "yes")] >= 3 and decided[("random", "yes")] >= 1
    assert decided[("random", "no")] >= 3


KOSZUL_AS_REGULAR = {
    "k[x]": ("field Q; gens x:1", 1),
    "plane": ("field Q; gens x:1 y:1; rels x*y - y*x", 2),
    "q-plane": ("field Q; gens x:1 y:1; rels x*y - 2*y*x", 2),
    "k[x,y,z]": ("field Q; gens x:1 y:1 z:1; rels x*y - y*x, x*z - z*x, y*z - z*y", 3),
    "k[x,y,z,w]": (
        "field Q; gens x:1 y:1 z:1 w:1; "
        "rels x*y - y*x, x*z - z*x, x*w - w*x, y*z - z*y, y*w - w*y, z*w - w*z",
        4,
    ),
}


def refuse_ext(monkeypatch):
    def no_ext(R, G):
        raise AssertionError("Ext(k, A) was computed")

    monkeypatch.setattr(resolution, "ext_into_algebra", no_ext)


@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("name", sorted(KOSZUL_AS_REGULAR))
def test_the_koszul_dual_decides_koszul_as_regular_algebras_without_ext(monkeypatch, name, field):
    # A^! is Frobenius: an exterior algebra, or a q-exterior one for the q-plane
    refuse_ext(monkeypatch)
    src, d = KOSZUL_AS_REGULAR[name]
    art = AlgebraArtifacts(parse_presentation(src, field=parse_field(field)), 8, 6, 6)
    report = art.report()
    assert report.as_regular.text() == "yes, type (%d, %d)" % (d, d)
    assert report.as_index.value == d and report.cmreg.value == 0


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_the_koszul_dual_refutes_a_koszul_algebra_with_a_symmetric_table(monkeypatch, field):
    # k<x, y>/(yx) has the table 1, 2, 1 but A^! = k<X, Y>/(X^2, XY, Y^2), where X*A^!_1 = 0
    pres = parse_presentation("field Q; gens x:1 y:1; rels y*x", field=parse_field(field))
    art = AlgebraArtifacts(pres)
    assert art.betti_k().entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert ext_verdict(AlgebraArtifacts(pres)) == "no"
    refuse_ext(monkeypatch)
    reason = "the pairing A^!_1 × A^!_1 → A^!_2 of the Koszul dual is degenerate"
    assert art.as_regular_verdict().text() == "no (%s)" % reason


@pytest.mark.parametrize(
    "src, text",
    [
        # a generator of degree 2
        pytest.param("field Q; gens u:2", "yes, type (1, 2)", id="k[u2]"),
        # cubic relations
        pytest.param("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x", "yes, type (3, 4)", id="T34"),
        # a relation of degree 1
        pytest.param("field Q; gens x:1 y:1; rels x*y - y*x, x", "yes, type (1, 1)", id="k[y]"),
        # k does not terminate
        pytest.param("field Q; gens x:1; rels x^2", "no (numerical AS regularity >= 1 > 0)", id="k[x]/(x^2)"),
    ],
)
def test_the_koszul_dual_declines_and_the_verdict_stays(monkeypatch, src, text):
    seen = []
    dual_verdict = regularity._koszul_dual_verdict

    def spy(art, d):
        seen.append(dual_verdict(art, d))
        return seen[-1]

    monkeypatch.setattr(regularity, "_koszul_dual_verdict", spy)
    art = AlgebraArtifacts(parse_presentation(src))
    assert art.as_regular_verdict().text() == text
    assert seen == ([None] if art.resolution_k().terminated else [])
    assert (art._ext_k is None) == (not seen)


def test_a_koszul_dual_off_the_betti_diagonal_raises():
    # an AS-symmetric linear table 1, 4, 5, 4, 1 for k[x, y, z, w], whose dual is the
    # exterior algebra (1, 4, 6, 4, 1): an internal error, never a verdict
    src, _ = KOSZUL_AS_REGULAR["k[x,y,z,w]"]
    art = AlgebraArtifacts(parse_presentation(src), 8, 6, 6)
    table = art.betti_k()
    assert table.entries[(2, 2)] == 6
    art._betti_k = BettiTable({**table.entries, (2, 2): 5}, *table._values()[1:])
    with pytest.raises(CertificationError, match="Koszul dual"):
        art.as_regular_verdict()


OFF_TOP = "no (Ext^1(k, A) is nonzero away from the top step %d)"


@pytest.mark.parametrize(
    "src, text",
    [
        pytest.param("field Q; gens x:1 y:2; rels y*x", OFF_TOP % 2, id="yx"),
        pytest.param("field Q; gens x:1 y:2; rels x*y", OFF_TOP % 2, id="xy"),
        pytest.param("field Q; gens x:2 y:2; rels y*x", OFF_TOP % 2, id="yx-22"),
        # the Koszul dual needs generators of degree 1, so Ext decides
        pytest.param("field Q; gens x:1 y:2; rels x*y - y*x", "yes, type (2, 3)", id="xy-yx"),
    ],
)
def test_the_ext_route_decides_a_symmetric_table(src, text):
    art = AlgebraArtifacts(parse_presentation(src))
    assert art.as_regular_verdict().text() == text
    assert art._ext_k is not None
    E = art.ext_k()
    assert E.entries == ext_reference(art.resolution_k(), art.gb(), E.windows)


# every algebra that reaches the Ext route among the first 150 draws of
# random_algebra_source(random.Random(seed), "Q") for seeds 1, 2 and 7, at
# (6, 10, 10), with its verdict; the search itself takes minutes
SEARCHED_EXT_ROUTE = {
    "field Q; gens x:1 y:2; rels -1*x*x-1*y": "yes, type (1, 1)",
    "field Q; gens x:1 y:1 z:2; rels -3*z+3*x*y, -3*z, 3*y*z+3*x*y*y+2*x*z": OFF_TOP % 2,
    "field Q; gens x:1 y:2; rels 3*y+3*x*x": "yes, type (1, 1)",
    "field Q; gens x:1 y:2; rels 2*y, -3*x*y, 3*y*y": "yes, type (1, 1)",
    "field Q; gens x:1 y:1 z:2; rels -3*z, 2*y*x, -1*x*x*y*x-1*y*x*x*x": OFF_TOP % 2,
    "field Q; gens x:1 y:1 z:2; rels 1*x*y*y*x, 1*x*y, -1*y*y+3*z-2*x*y": OFF_TOP % 2,
    "field Q; gens x:1 y:2; rels 3*y+1*x*x": "yes, type (1, 1)",
    "field Q; gens x:1 y:2; rels -1*x*y": OFF_TOP % 2,
    "field Q; gens x:1 y:2; rels -1*x*x+2*y": "yes, type (1, 1)",
    "field Q; gens x:1 y:2; rels 2*x*x-3*y": "yes, type (1, 1)",
    "field Q; gens x:1 y:1; rels 1*y*y*y*x+1*y*y*x*x, 3*y*y*x*x": OFF_TOP % 3,
    "field Q; gens x:1 y:2; rels 1*y*x": OFF_TOP % 2,
    "field Q; gens x:1 y:2; rels -3*y, -2*x*y": "yes, type (1, 1)",
}


def test_the_top_ext_is_k_in_degree_minus_l_once_the_lower_ext_vanishes():
    # a terminated AS-symmetric table has H_A * P = 1 and P(1/t) = (-1)^d t^-l P(t),
    # so Hom(P, A) has Euler characteristic (-1)^d in degree -l and 0 elsewhere:
    # with every lower Ext zero on its window, Ext^d is k(l) there, and the
    # verdict reads l off the table
    clean = 0
    for src, text in SEARCHED_EXT_ROUTE.items():
        art = AlgebraArtifacts(parse_presentation(src), 6, 10, 10)
        assert art.as_regular_verdict().text() == text, src
        assert art._ext_k is not None, src
        d = art.resolution_k().termination_step
        l = art.betti_k().t(d)
        E = art.ext_k()
        if all(i == d for i, _ in E.entries):
            assert E.entries == {(d, -l): 1} and text == "yes, type (%d, %d)" % (d, l), src
            clean += 1
    assert clean == 7


def test_a_hilbert_numerator_other_than_1_refutes_finite_global_dimension(golden):
    # a finite resolution P of k with finitely generated terms gives H_A * P = 1,
    # and hilbert_rational's N / D is reduced, so N = 1 wherever k terminates,
    # and N != 1 refutes AS regularity in every degree
    arts = [art for art in golden.values() if art.known_betti_k is None]
    for field, seed in (("Q", 7), ("F101", 8)):
        rng = random.Random(seed)
        arts += [AlgebraArtifacts(parse_presentation(random_algebra_source(rng, field)), 5, 7, 7) for _ in range(40)]
    terminated = refuted = incomplete = 0
    for art in arts:
        verdict = art.as_regular_verdict()
        if not art.gb().complete:
            incomplete += 1
            continue
        numerator = art.hilbert().numerator
        if art.resolution_k().terminated:
            assert numerator == (1,), art.presentation.to_text()
            terminated += 1
        elif numerator != (1,):
            assert verdict.status == "no", art.presentation.to_text()
            refuted += verdict.reason.startswith("the Hilbert series numerator")
    assert terminated >= 20 and refuted >= 5 and incomplete >= 1
    assert golden["hyp"].as_regular_verdict().reason == "the Hilbert series numerator 1 + t^2 is not 1, so gldim = ∞"
    # B = T/(x^2) has infinite global dimension but N = 1: its numerical reason stays
    assert golden["B"].hilbert().numerator == (1,)
    assert golden["B"].as_regular_verdict().text() == "no (numerical AS regularity >= 1 > 0)"


def test_ta_tc_validation(golden):
    rep = golden["T"].report()
    ta, tc = ta_tc_pairs(rep)
    assert ta[0].value == 1 and ta[1].value == 0
    assert tc[0].value == 1 and tc[1].value == -1


def test_concavity_self_witness(golden):
    bound = concavity_certificate(golden["T"], [])
    assert bound.exact and bound.upper.value == 1
    assert bound.c_minus.value == 0  # AS regular: normalized concavity 0

    bound = concavity_certificate(golden["plane"], [])
    assert bound.exact and bound.upper.value == 0


def test_concavity_gap_one_dichotomy(golden):
    wT = concavity_witness(
        golden["T"],
        [golden["B"].presentation.parse_poly("x"), golden["B"].presentation.parse_poly("y")],
        golden["B"],
    )
    bound = concavity_certificate(golden["B"], [wT])
    assert bound.exact and bound.upper.value == 1
    assert bound.c_minus.is_exact and bound.c_minus.value == 1


def test_concavity_zero_upper_is_exact(golden):
    w = concavity_witness(golden["k[x]"], ["x"], golden["hyp"])
    bound = concavity_certificate(golden["hyp"], [w])
    assert bound.exact and bound.upper.value == 0


def test_concavity_without_witness_is_open(golden):
    bound = concavity_certificate(golden["A3"], [])
    assert not bound.exact
    assert bound.upper.kind == "unknown"


def test_obstruction_hypersurface(golden):
    w = concavity_witness(golden["k[x]"], ["x"], golden["hyp"])
    bound = concavity_certificate(golden["hyp"], [w])
    verdict = invariant_ring_obstruction(golden["hyp"], bound)
    assert verdict.status == "obstructed"
    assert verdict.beta1 == 2
    assert "c = 0 < 1" in verdict.inequality


def test_obstruction_no_conclusion_on_plane(golden):
    bound = concavity_certificate(golden["plane"], [])
    verdict = invariant_ring_obstruction(golden["plane"], bound)
    assert verdict.status == "no conclusion"  # c = 0 >= beta_1 - 1 = 0


def test_obstruction_family_m1_n2():
    # two degree-1 variables, one degree-2 variable, t^2 = (xy)^2
    src = (
        "field Q; gens x:1 y:1 t:2; "
        "rels x*y - y*x, x*t - t*x, y*t - t*y, t^2 - x^2*y^2"
    )
    art = AlgebraArtifacts(parse_presentation(src, label="inv-family"))
    witness_pres = parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x", label="kxy")
    wart = AlgebraArtifacts(witness_pres)
    w = concavity_witness(wart, ["x", "y"], art)
    assert w.finite_ok and w.as_regular_ok
    bound = concavity_certificate(art, [w])
    assert bound.exact and bound.upper.value == 0
    verdict = invariant_ring_obstruction(art, bound)
    assert verdict.status == "obstructed"


def test_obstruction_beta2_branch(golden):
    # synthetic use of the relation-degree test with a user-supplied range
    w = concavity_witness(golden["k[x]"], ["x"], golden["hyp"])
    bound = concavity_certificate(golden["hyp"], [w])
    verdict = invariant_ring_obstruction(golden["hyp"], bound, cmreg_T_range=range(-1, 1))
    assert verdict.status == "obstructed"  # beta_1 branch already fires


@pytest.mark.parametrize(
    "cm_range, status",
    [(range(-1, 2), "obstructed"), (range(-1, 3), "no conclusion")],
)
def test_obstruction_relation_degree_test(golden, cm_range, status):
    # k[x]/(x^3) under k[x], x -> x: c = 0 exactly and c >= beta_1 - 1 = 0,
    # so only the relation-degree test (beta_2 = 3) can decide; its bound
    # min(3/2 - m, (2 - m)/2, 1) is 1, 1, 1/2 at m = -1, 0, 1 and -1/2 at m = 2
    w = concavity_witness(golden["k[x]"], ["x"], golden["A3"])
    bound = concavity_certificate(golden["A3"], [w])
    assert bound.exact and bound.upper.value == 0
    verdict = invariant_ring_obstruction(golden["A3"], bound, cmreg_T_range=cm_range)
    assert (verdict.beta1, verdict.beta2) == (1, 3)
    assert verdict.status == status
    if status == "obstructed":
        assert "relation-degree bound for every CMreg(T) in [-1, 0, 1]" in verdict.inequality
    else:
        assert verdict.notes == ("relation-degree test inconclusive on the supplied CMreg(T) range",)


def test_harness_semantics():
    e, least, unknown = BoundedValue.exact, BoundedValue.at_least, BoundedValue.unknown
    results = inequality_harness(
        [
            HarnessCase("ok", e(1).at_most(e(2))),
            HarnessCase("violated", e(3).at_most(e(2))),
            HarnessCase("lower-bound-violation", least(5).at_most(e(2))),
            # >=1 <= 2 holds for the bound but proves nothing about the true value
            HarnessCase("lower-bound-unproven", least(1).at_most(e(2))),
            HarnessCase("insufficient", unknown().at_most(e(2))),
            HarnessCase("rhs-not-exact", e(1).equals(least(1))),
            # an exact value at most a lower bound is at most the true value
            HarnessCase("below-a-lower-bound", e(0).at_most(least(1))),
            HarnessCase("lower-bound-above", least(3).equals(1)),
            HarnessCase("exact-below-a-lower-bound", e(1).equals(least(2))),
            HarnessCase("fact", True),
            HarnessCase("false-fact", False),
            # a fact the window leaves undecided is neither a pass nor a failure
            HarnessCase("undecided-fact", None, "premise"),
        ]
    )
    statuses = {r.name: r.status for r in results}
    assert statuses == {
        "ok": "pass",
        "violated": "fail",
        "lower-bound-violation": "fail",
        "lower-bound-unproven": "skip",
        "insufficient": "skip",
        "rhs-not-exact": "skip",
        "below-a-lower-bound": "pass",
        "lower-bound-above": "fail",
        "exact-below-a-lower-bound": "fail",
        "fact": "pass",
        "false-fact": "fail",
        "undecided-fact": "skip",
    }
    skips = {r.name: r.detail for r in results if r.status == "skip"}
    assert all(d.startswith("undecided in the window") for d in skips.values())
    assert skips["undecided-fact"] == "undecided in the window | premise"
    assert skips["insufficient"] == "undecided in the window"


# true values each qualifier allows in the oracle: exact v is v, >=v is v..v+SPAN,
# unknown is all of -SPAN..SPAN; SPAN exceeds the spread of the tested values
SPAN = 8
QUALIFIED = [BoundedValue.unknown()] + [
    make(v) for v in range(-2, 3) for make in (BoundedValue.exact, BoundedValue.at_least)
]


def _allowed(bv):
    if bv.is_exact:
        return [bv.value]
    if bv.kind == "at_least":
        return range(bv.value, bv.value + SPAN + 1)
    return range(-SPAN, SPAN + 1)


@pytest.mark.parametrize("relation", ["at_most", "equals"])
def test_bounded_value_comparisons_agree_with_every_allowed_true_value(relation):
    holds = {"at_most": lambda x, y: x <= y, "equals": lambda x, y: x == y}[relation]
    for lhs in QUALIFIED:
        for rhs in QUALIFIED:
            answer = getattr(lhs, relation)(rhs)
            possible = {holds(x, y) for x in _allowed(lhs) for y in _allowed(rhs)}
            if answer is None:
                assert possible == {True, False}, (lhs, relation, rhs)
            else:
                assert possible == {answer}, (lhs, relation, rhs)
            if relation == "equals" and rhs.is_exact:
                assert lhs.equals(rhs.value) is answer  # an int is an exact value


def test_weighted_polynomial_ring_type_2_3():
    # k[x, u] with deg u = 2: AS regular of type (2, 3), so CMreg = -1,
    # Torreg(k) = 1, ASreg = 0, Stanley sign (+1) with shift 3
    from homreg.series import stanley_check

    art = AlgebraArtifacts(
        parse_presentation("field Q; gens x:1 u:2; rels x*u - u*x", label="k[x,u2]")
    )
    rep = art.report()
    assert rep.as_regular.status == "yes"
    assert (rep.as_regular.dim, rep.as_regular.index) == (2, 3)
    assert rep.torreg_k.value == 1 and rep.cmreg.value == -1 and rep.asreg.value == 0
    assert [art.betti_k().t(i) for i in range(3)] == [0, 2, 3]
    v = stanley_check(art.hilbert_or_none())
    assert v.satisfied and v.sign == 1 and v.shift == 3
    # identity witness: concavity exactly 1, normalized concavity 0
    bound = concavity_certificate(art, [])
    assert bound.exact and bound.upper.value == 1 and bound.c_minus.value == 0


def test_torreg_shift_covariance(golden):
    # Torreg(k(1)) = Torreg(k) - 1
    from homreg.resolution import betti_table, minimal_resolution, trivial_module
    from oracles import shift_module

    T = golden["T"]
    k1 = shift_module(trivial_module(T.presentation), 1)
    R = minimal_resolution(T.gb(), k1, 6, 10, algebra_hilbert=T.hilbert_or_none())
    shifted = tor_regularity(betti_table(R))
    assert shifted.is_exact and shifted.value == T.resolve_torreg().value - 1


def test_as_regular_verdict_resolves_one_side_only(golden):
    # the right-hand Gorenstein condition follows by duality
    art = AlgebraArtifacts(golden["T"].presentation)
    v = art.as_regular_verdict()
    assert (v.status, v.dim, v.index) == ("yes", 3, 4)
    assert art._opposite is None


@pytest.mark.parametrize(
    "rels, window",
    [("x*y^12", (8, 12, 13)), ("x^2*y - y*x^2, x*y^2 - y^2*x", (1, 2, 3)), ("x*y*x, y*y*x*x*x", (4, 7, 7))],
    ids=["x*y^12", "t34", "anick_chains"],
)
def test_uncertified_termination_stays_a_lower_bound(rels, window):
    # x*y^12 and t34 have their first syzygy just above d_max (degrees 13 and 3),
    # so an empty kernel through d_max proves nothing; x*y*x, y*y*x*x*x has the
    # endless Anick chains (x*y)^n*x, and at (4, 7, 7) the Betti numbers just
    # above d_max in two consecutive steps cancel in the Euler sum
    rep = AlgebraArtifacts(parse_presentation("field Q\ngens x:1 y:1\nrels " + rels), *window).report()
    assert rep.gldim.kind == rep.torreg_k.kind == "at_least"
    assert rep.koszul.caveat != "Torreg(k) = 0 certified"


def _oracle_algebras():
    """Seeded algebras on x, y: two monomial (1-3 relations of degree 2-6) to one binomial."""
    rng = random.Random(2)

    def word(d):
        return "*".join(rng.choice("xy") for _ in range(d))

    # the case that once certified a false gldim through the Euler identity comes first
    out = ["x*y*x, y*y*x*x*x"]
    for n in range(60):
        if n % 3 < 2:
            rels = [word(rng.randint(2, 6)) for _ in range(rng.randint(1, 3))]
        else:
            rels = []
            for _ in range(rng.randint(1, 2)):
                d = rng.randint(2, 4)
                u, v = word(d), word(d)
                while v == u:
                    v = word(d)
                rels.append("%d*%s - %d*%s" % (rng.randint(1, 3), u, rng.randint(1, 3), v))
        out.append(", ".join(rels))
    return out


def test_window_monotonicity():
    # a value certified exact in a small window must survive a larger one,
    # and a lower bound must not exceed the exact value found there
    def invariants(rels, window):
        art = AlgebraArtifacts(parse_presentation("field Q\ngens x:1 y:1\nrels " + rels), *window)
        R = art.resolution_k()
        gldim = ("exact", R.termination_step) if R.terminated else ("at_least", R.steps_computed)
        torreg = tor_regularity(art.betti_k())
        return {"gldim": gldim, "torreg_k": (torreg.kind, torreg.value)}

    bad = []
    for rels in _oracle_algebras():
        small, large = invariants(rels, (4, 7, 7)), invariants(rels, (7, 12, 12))
        for name, (kind, value) in small.items():
            if kind == "exact" and large[name] != (kind, value) or (
                kind == "at_least" and large[name][0] == "exact" and value > large[name][1]
            ):
                bad.append((rels, name, small[name], large[name]))
    assert not bad


def test_an_exact_cmreg_below_minus_torreg_k_is_an_internal_inconsistency(monkeypatch):
    # exact ASreg = 1 + (-5) < 0 too, and the Torreg(k) + CMreg >= 0 check reports it
    art = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x"))
    torreg = art.resolve_torreg()
    assert (torreg.kind, torreg.value) == ("exact", 1)
    monkeypatch.setattr(art, "resolve_cmreg", lambda: (BoundedValue.exact(-5), "forced"))
    with pytest.raises(CertificationError, match="CMreg < -Torreg\\(k\\)"):
        regularity.build_report(art)


def test_bounded_value_equality_is_three_valued():
    e, a, u = BoundedValue.exact(0), BoundedValue.at_least(1), BoundedValue.unknown()
    assert (e.equals(0), e.equals(1), a.equals(0), a.equals(1), a.equals(2), u.equals(0)) == (
        True, False, False, None, None, None
    )
    assert BoundedValue.exact(3).negated() == BoundedValue.exact(-3)
    assert a.negated().kind == u.negated().kind == "unknown"


def test_a_koszul_no_decides_that_torreg_k_is_not_zero(golden):
    # "no" is an off-diagonal beta_{i,j}, j > i, so Torreg(k) >= 1, or an exact Torreg(k) > 0
    seen = set()
    for label, art in golden.items():
        report = art.report()
        seen.add(report.koszul.status)
        if report.koszul.status == "no":
            assert report.torreg_k.equals(0) is False, label
        if report.torreg_k.equals(0):
            assert report.koszul.status == "yes", label
    assert seen == {"yes", "no"}


def test_concavity_bound_value_is_the_bound_only_when_exact(golden):
    exact = concavity_certificate(golden["T"], [])
    assert exact.value == exact.upper == BoundedValue.exact(1, exact.upper.note)
    assert concavity_certificate(golden["A3"], []).value.kind == "unknown"


def test_obstruction_says_when_the_relation_degree_test_needs_step_2(golden):
    # k[x]/(x^3) is obstructed at i_max 8 (test_obstruction_relation_degree_test),
    # but at i_max 1 beta_2 is not computed, which is not beta_2 = 0
    art = AlgebraArtifacts(parse_presentation("field Q; gens x:1; rels x^3", label="A3"), 1, 12, 12)
    bound = concavity_certificate(art, [concavity_witness(golden["k[x]"], ["x"], art)])
    assert bound.exact and bound.upper.value == 0
    verdict = invariant_ring_obstruction(art, bound, cmreg_T_range=range(-1, 2))
    assert verdict.status == "no conclusion"
    assert verdict.notes == (
        "relation-degree test not run: step 2 of the resolution of k is undecided in the window (i<=1, j<=12)",
    )
    # k[x] terminates at step 1, so its empty step 2 is known and needs no note
    kx = golden["k[x]"]
    verdict = invariant_ring_obstruction(kx, concavity_certificate(kx, []), cmreg_T_range=range(-1, 2))
    assert verdict.status == "no conclusion" and verdict.notes == ()

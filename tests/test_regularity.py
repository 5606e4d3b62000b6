import random

import pytest

from homreg.corealg import parse_presentation
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


def test_bounded_value_arithmetic():
    e = BoundedValue.exact(3)
    a = BoundedValue.at_least(2)
    u = BoundedValue.unknown()
    assert e.add(e).kind == "exact" and e.add(e).value == 6
    assert e.add(a).kind == "at_least" and e.add(a).value == 5
    assert a.add(a).value == 4
    assert e.add(u).kind == "unknown"
    assert e.add_int(-1).value == 2
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
    results = inequality_harness(
        [
            HarnessCase("ok", "leq", BoundedValue.exact(1), BoundedValue.exact(2)),
            HarnessCase("violated", "leq", BoundedValue.exact(3), BoundedValue.exact(2)),
            HarnessCase("lower-bound-violation", "leq", BoundedValue.at_least(5), BoundedValue.exact(2)),
            # >=1 <= 2 holds for the bound but proves nothing about the true value
            HarnessCase("lower-bound-unproven", "leq", BoundedValue.at_least(1), BoundedValue.exact(2)),
            HarnessCase("insufficient", "leq", BoundedValue.unknown(), BoundedValue.exact(2)),
            HarnessCase("rhs-not-exact", "eq", BoundedValue.exact(1), BoundedValue.at_least(1)),
            HarnessCase("fact", "true", True),
            HarnessCase("false-fact", "true", False),
            # a fact the window leaves undecided is neither a pass nor a failure
            HarnessCase("undecided-fact", "true", None, detail="premise"),
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
        "fact": "pass",
        "false-fact": "fail",
        "undecided-fact": "skip",
    }
    skips = {r.name: r.detail for r in results if r.status == "skip"}
    assert all(d for d in skips.values())  # skipped always carries a reason
    assert skips["undecided-fact"] == "undecided in the window | premise"


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

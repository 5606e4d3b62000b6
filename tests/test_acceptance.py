"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Everything is exact-match golden data plus property checks; the only
tolerances anywhere are the truncation windows themselves, which default
to (i_max, d_max, D_gb) = (8, 12, 12).
"""

import random
from fractions import Fraction

from homreg.corealg import parse_presentation
from homreg.gbasis import groebner
from homreg.regularity import (
    AlgebraArtifacts,
    concavity_certificate,
    inequality_harness,
    invariant_ring_obstruction,
    ta_tc_pairs,
    tor_regularity,
)
from homreg.cli import build_golden_cases
from homreg.constructions import (
    concavity_witness,
    tensor_product,
)
from homreg.resolution import (
    PresentedModuleView,
    _alternating_sum,
    betti_table,
    minimal_resolution,
    module_via_map,
    trivial_module,
)
from homreg.series import first_difference, hilbert_rational, hilbert_truncated, stanley_check, _pmul, _ptrim

from oracles import brute_algebra_dim, eval_rational, random_fdim_module


def check(name, ok):
    print("%s  %s" % ("PASS" if ok else "FAIL", name), flush=True)
    assert ok, name


# -- criterion 1: truncated polynomial rings and their tensor powers ---------


def test_criterion_1_truncated_polynomial_rings(golden):
    for d in (2, 3):
        art = AlgebraArtifacts(
            parse_presentation("field Q; gens x:1; rels x^%d" % d, label="A(%d)" % d),
            i_max=6, d_max=10, d_gb=12,
        )
        table = art.betti_k()
        for n in range(7):
            want = 0 if n == 0 else (n // 2) * d + (1 if n % 2 else 0)
            if want <= 10:
                assert table.t(n) == want, (d, n, table.t(n), want)
    standalone = AlgebraArtifacts(parse_presentation("field Q; gens x:1; rels x^2", label="A(2)"))
    rep2 = standalone.report()
    assert rep2.koszul.status == "yes"  # linear through the window
    assert rep2.cmreg.is_exact and rep2.cmreg.value == 1
    # exact ASreg values need the certified Torreg(k) = 0, which the tool
    # obtains by presenting A(2) as a quotient of k[x] by the normal
    # regular element x^2 (Torreg cannot grow under such quotients)
    a2 = golden["A2"]
    prev = a2
    asregs = [a2.report().asreg]
    for m in (2, 3):
        prev = tensor_product(prev, a2)
        asregs.append(prev.report().asreg)
    for m, bv in zip((1, 2, 3), asregs):
        assert bv.is_exact and bv.value == m, (m, bv)
    check("criterion 1: deg Tor over k[x]/(x^d), Koszul/CMreg of A(2), ASreg(A(2)^m) = m", True)


# -- criterion 2: the type-(3,4) algebra -------------------------------------


def test_criterion_2_type_34(golden):
    T = golden["T"]
    table = T.betti_k()
    assert [table.t(i) for i in range(4)] == [0, 1, 3, 4]
    res = T.resolution_k()
    assert res.terminated and res.termination_step == 3
    rep = T.report()
    assert rep.torreg_k.is_exact and rep.torreg_k.value == 1
    assert rep.cmreg.is_exact and rep.cmreg.value == -1
    assert rep.cm_evidence == "as_regular" and rep.cmreg.note == "CMreg = d - l for AS type (3, 4)"
    assert rep.asreg.is_exact and rep.asreg.value == 0
    assert rep.as_regular.status == "yes"
    assert (rep.as_regular.dim, rep.as_regular.index) == (3, 4)
    check("criterion 2: t_i = (0,1,3,4), Torreg 1, CMreg -1, ASreg 0, AS regular (3,4)", True)


# -- criterion 3: the quotient B = T/(x^2) and T/(xy - yx) --------------------


def test_criterion_3_quotients(golden):
    repB = golden["B"].report()
    assert repB.torreg_k.is_exact and repB.torreg_k.value == 1
    assert repB.cmreg.is_exact and repB.cmreg.value == 0
    assert repB.asreg.is_exact and repB.asreg.value == 1
    assert repB.as_regular.status == "no"
    wT = concavity_witness(
        golden["T"],
        [golden["B"].presentation.parse_poly("x"), golden["B"].presentation.parse_poly("y")],
        golden["B"],
    )
    bound = concavity_certificate(golden["B"], [wT])
    assert bound.exact and bound.upper.value == 1
    assert bound.c_minus.is_exact and bound.c_minus.value == 1
    repC = golden["Tcomm"].report()
    assert repC.torreg_k.is_exact and repC.torreg_k.value == 0
    check("criterion 3: B has (Torreg, CMreg, ASreg) = (1, 0, 1), not AS regular, c = c_- = 1;"
          " T/(xy-yx) has Torreg 0", True)


# -- criterion 4: quotient equality CMreg(B) - CMreg(T) = a - 1 = Torreg(_T B)


def test_criterion_4_quotient_equalities(golden):
    for child, parent, a in (("B", "T", 2), ("k[y]", "plane", 1)):
        artA, artB = golden[parent], golden[child]
        repA, repB = artA.report(), artB.report()
        assert repB.cmreg.value - repA.cmreg.value == a - 1, (child, parent)
        images = [artB.presentation.gen_poly(i) for i in range(artB.presentation.n_gens)]
        # H_B = (1 - t^a) H_A: Omega is regular, so 0 -> A(-a) -> A -> B -> 0 is
        # the resolution, and the window table must be its table
        one_minus_ta = [1] + [0] * (a - 1) + [-1]
        assert first_difference([1], artB.hilbert(), one_minus_ta, artA.hilbert()) is None, (child, parent)
        m = module_via_map(artA.gb(), images, artB.gb(), artA.d_max)
        R = minimal_resolution(artA.gb(), m, artA.i_max, artA.d_max, algebra_hilbert=artA.hilbert_or_none())
        assert betti_table(R).entries == {(0, 0): 1, (1, a): 1}, (child, parent)
    check("criterion 4: CMreg(T/(Omega)) - CMreg(T) = deg(Omega) - 1 = Torreg of the quotient module,"
          " for deg(Omega) in {1, 2}", True)


# -- criterion 5: Stanley's functional equation --------------------------------


def test_criterion_5_stanley(golden):
    # h(1/t) = t^(1-d) h(t) for the truncated polynomial ring: the shift in
    # the functional equation is 1-d (negative), the unique solution; it is
    # verified below against exact substitution at rational sample points
    for d in (2, 3, 4, 5):
        G = groebner(
            parse_presentation("field Q; gens x:1; rels x^%d" % d), 12
        )
        h = hilbert_rational(G)
        v = stanley_check(h)
        assert v.satisfied and v.sign == 1 and v.shift == -(d - 1), (d, v)
        for t0 in (Fraction(2), Fraction(7, 3)):
            assert eval_rational(h, 1 / t0) == v.sign * t0**v.shift * eval_rational(h, t0)
    vT = stanley_check(golden["T"].hilbert_or_none())
    assert vT.satisfied and (vT.sign, vT.shift) == (-1, 4)
    assert not stanley_check(golden["stanley_violator"].hilbert_or_none()).satisfied
    # on AS regular cases: sign = (-1)^d and the shift is the AS index
    for label in ("T", "plane", "k[x]", "k[u2]"):
        rep = golden[label].report()
        v = stanley_check(golden[label].hilbert_or_none())
        assert v.satisfied
        assert v.sign == (-1) ** rep.as_regular.dim, label
        assert v.shift == rep.as_regular.index, label
    check("criterion 5: Stanley verdicts (sign, shift) incl. AS-index match on AS regular cases", True)


# -- criterion 6: tensor additivity and the Kunneth table ----------------------


def test_criterion_6_tensor_additivity(golden):
    for a, b in (("A2", "T"), ("A2", "A2")):
        prod = tensor_product(golden[a], golden[b])
        rp, ra, rb = prod.report(), golden[a].report(), golden[b].report()
        for inv in ("torreg_k", "cmreg", "asreg"):
            got = getattr(rp, inv)
            want = getattr(ra, inv).add(getattr(rb, inv))
            assert got.is_exact and want.is_exact and got.value == want.value, (a, b, inv)
        direct = minimal_resolution(
            prod.gb(), trivial_module(prod.presentation), prod.i_max, prod.d_max,
            algebra_hilbert=prod.hilbert_or_none(),
        )
        assert dict(betti_table(direct).entries) == dict(prod.known_betti_k.entries), (a, b)
    check("criterion 6: Torreg/CMreg/ASreg additive on A(2)xT and A(2)xA(2);"
          " direct Betti table equals the Kunneth convolution", True)


# -- criterion 7: tc pairs of the mixed tensor powers --------------------------


def test_criterion_7_tc_pairs(golden):
    T, E = golden["T"], golden["A2"]
    builds = {
        (1, 1): tensor_product(T, E),
        (1, 2): tensor_product(tensor_product(T, E), E),
        (2, 1): tensor_product(tensor_product(T, T), E),
    }
    for (t, a), art in builds.items():
        _, (tor, cm) = ta_tc_pairs(art.report())
        assert tor.is_exact and tor.value == t, (t, a)
        assert cm.is_exact and cm.value == a - t, (t, a)
    check("criterion 7: tc(T^t x E^a) = (t, a - t) for (t, a) in {(1,1), (1,2), (2,1)}", True)


# -- criterion 8: the invariant-subring obstruction ----------------------------


def test_criterion_8_obstruction(golden):
    hyp = golden["hyp"]
    w = concavity_witness(golden["k[x]"], ["x"], hyp)
    bound = concavity_certificate(hyp, [w])
    assert bound.exact and bound.upper.value == 0
    assert hyp.betti_k().t(1) == 2
    verdict = invariant_ring_obstruction(hyp, bound)
    assert verdict.status == "obstructed"
    assert "c = 0 < 1" in verdict.inequality
    check("criterion 8: k[x,t]/(t^2 - x^4) obstructed: c = 0 < 1 = beta_1 - 1", True)


# -- criterion 9: property suites ----------------------------------------------


def _euler_ok(art):
    res = art.resolution_k()
    alt = _alternating_sum(betti_table(res).entries)
    h = art.hilbert_or_none()
    if res.terminated:
        return _ptrim(_pmul(alt, list(h.numerator))) == _ptrim(list(h.denominator))
    hs = hilbert_truncated(art.gb(), art.d_max).coefficients
    bound = min(res.shifts[-1])
    for k in range(bound + 1):
        acc = sum(alt[i] * hs[k - i] for i in range(min(k, len(alt) - 1) + 1))
        if acc != (1 if k == 0 else 0):
            return False
    return True


def test_criterion_9a_euler_identity(golden):
    for label, art in sorted(golden.items()):
        assert _euler_ok(art), label
    check("criterion 9a: Euler identity h * sum (-1)^i beta_{i,j} t^j = 1 on every golden algebra", True)


def test_criterion_9b_left_right_symmetry(golden):
    for label, art in sorted(golden.items()):
        left = dict(betti_table(art.resolution_k()).entries)
        right = dict(art.opposite().betti_k().entries)
        assert left == right, label
    check("criterion 9b: t_i(k) agrees over A and A^op on every golden algebra", True)


def test_as_regular_duality(golden):
    # what a second resolution over A^op would show on every AS regular case
    seen = 0
    for label, art in sorted(golden.items()):
        v = art.as_regular_verdict()
        if v.status != "yes":
            continue
        d, ell = v.dim, v.index
        res_op = art.opposite().resolution_k()
        assert res_op.terminated and res_op.termination_step == d, label
        assert art.opposite().ext_k().entries == {(d, -ell): 1}, label
        left = art.betti_k().entries
        assert all(left.get((d - i, ell - j), 0) == r for (i, j), r in left.items()), label
        seen += 1
    assert seen >= 4
    check("duality: the right resolution and Ext mirror the left on every AS regular golden algebra", True)


def test_criterion_9c_random_finite_dimensional_modules(golden):
    rng = random.Random(20260811)
    for label in ("T", "plane"):
        art = golden[label]
        torreg_k = art.report().torreg_k
        assert torreg_k.is_exact
        for trial in range(20):
            m = random_fdim_module(art.presentation, art.gb(), rng)
            view = PresentedModuleView(art.gb(), m, art.d_max)
            hM = view.hilbert
            assert hM is not None, (label, trial)
            if hM.numerator == (0,):
                continue
            deg_m = hM.degree
            R = minimal_resolution(art.gb(), m, art.i_max, art.d_max, algebra_hilbert=art.hilbert_or_none())
            t = tor_regularity(betti_table(R))
            assert t.value <= deg_m + torreg_k.value, (label, trial, t, deg_m)
    check("criterion 9c: Torreg(M) <= deg(M) + Torreg(k) on 20 random finite-dimensional modules"
          " over T and over the plane", True)


def test_criterion_9d_asreg_nonnegative(golden):
    for label, art in sorted(golden.items()):
        rep = art.report()
        if rep.asreg.is_exact:
            assert rep.asreg.value >= 0, label
    check("criterion 9d: ASreg >= 0 on every exact report", True)


def test_criterion_9e_strictly_increasing_t(golden):
    for label in ("T", "plane", "k[x]", "k[u2]", "Tcomm", "k[y]"):
        rep = golden[label].report()
        if rep.as_regular.status != "yes":
            continue
        table = golden[label].betti_k()
        ts = [table.t(i) for i in range(table.termination_step + 1)]
        assert all(a < b for a, b in zip(ts, ts[1:])), label
    check("criterion 9e: t_0 < t_1 < ... < t_g on every AS regular golden case", True)


def test_criterion_9f_normal_form_and_dimension_oracle():
    rng = random.Random(101)
    from homreg.corealg import Poly, make_presentation
    from oracles import free_words

    done = 0
    trial = 0
    while done < 10:
        trial += 1
        n_gens = rng.choice([2, 3])
        field = parse_presentation("field F101; gens a:1").field
        gens = [("g%d" % i, 1) for i in range(n_gens)]
        degs = tuple(1 for _ in range(n_gens))
        rels = []
        for _ in range(rng.choice([1, 2])):
            deg = rng.choice([2, 3])
            terms = {}
            for w in free_words(degs, deg):
                if rng.random() < 0.35:
                    terms[w] = rng.randrange(1, 101)
            if terms:
                rels.append(Poly.make(terms, degs, field.modulus))
        if not rels:
            continue
        pres = make_presentation(field, gens, rels, label="rand%d" % trial)
        G = groebner(pres, 6, element_limit=400)
        for j in range(6):
            assert G.dim(j) == brute_algebra_dim(pres, j), (trial, j)
        all_words = free_words(degs, 4)
        for _ in range(4):
            terms = {w: rng.randrange(1, 101) for w in rng.sample(all_words, 4)}
            p = Poly.make(terms, degs, field.modulus)
            q = Poly.make({w: rng.randrange(1, 101) for w in rng.sample(all_words, 4)}, degs, field.modulus)
            a = rng.randrange(1, 101)
            assert G.normal_form(p.scale(a) + q) == G.normal_form(p).scale(a) + G.normal_form(q)
            assert G.normal_form(G.normal_form(p)) == G.normal_form(p)
        done += 1
    check("criterion 9f: normal-form linearity/idempotence and the degree<=5 dimension oracle"
          " on 10 random presentations over F_101", True)


# -- criterion 10: the golden statement checks find no counterexample -----------


def test_criterion_10_statement_checks():
    results = inequality_harness(build_golden_cases())
    failures = [r for r in results if r.status == "fail"]
    assert not failures, failures
    # the three headline statements must actually have been exercised
    names = " | ".join(r.name for r in results if r.status == "pass")
    assert "asreg" in names and "c_minus(B)" in names and "c(T) == -CMreg(T)" in names
    skipped = [r for r in results if r.status == "skip"]
    for r in skipped:
        assert r.detail  # skipped-with-reason, never silently passed
    check("criterion 10: zero counterexamples to the regularity/concavity statements"
          " on all certified golden cases (%d checks)" % len(results), True)

import glob
import os
import random
from fractions import Fraction

import pytest

from homreg.corealg import (
    CertificationError,
    Poly,
    QQ,
    PresentationError,
    make_presentation,
    parse_field,
    parse_presentation,
)
from homreg import gbasis
from homreg.gbasis import (
    GroebnerBasis,
    WordAutomaton,
    _to_ints,
    groebner,
)
from homreg.series import hilbert_rational, hilbert_truncated

from oracles import (
    brute_algebra_dim,
    free_normal_form,
    free_words,
    ideal_slice_echelon,
    random_algebra_source,
    suffix_scan_automaton,
    word_poly,
)


PRESENTATIONS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "presentations")
SAMPLES = sorted(os.path.splitext(os.path.basename(p))[0] for p in glob.glob(os.path.join(PRESENTATIONS, "*.alg")))


def plane():
    return parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x", label="plane")


def t34():
    return parse_presentation(
        "field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x", label="T"
    )


def test_plane_basis_complete():
    G = groebner(plane(), 8)
    assert G.complete
    assert len(G.elements) == 1
    assert G.elements[0] == plane().parse_poly("x*y - y*x")


def test_t34_basis_complete_with_zero_overlap():
    # oracle: the single overlap word x^2y^2 must reduce to zero by degree 6
    pres = t34()
    G = groebner(pres, 8)
    assert G.complete
    assert set(G.elements) == {
        pres.parse_poly("x^2*y - y*x^2"),
        pres.parse_poly("x*y^2 - y^2*x"),
    }
    g1 = pres.parse_poly("x^2*y - y*x^2")
    g2 = pres.parse_poly("x*y^2 - y^2*x")
    s_poly = g1 * pres.parse_poly("y") - pres.parse_poly("x") * g2
    assert G.normal_form(s_poly).is_zero()


def test_monomial_ideal_basis():
    pres = parse_presentation("field Q; gens x:1; rels x^3", label="A3")
    G = groebner(pres, 6)
    assert G.complete
    assert [g.degree for g in G.elements] == [3]


def test_truncation_below_relation_degree_rejected():
    with pytest.raises(PresentationError, match="below the maximal relation degree"):
        groebner(t34(), 2)


def test_incomplete_flag_when_overlaps_exceed_window():
    # x^3 self-overlaps live in degrees 4 and 5; d_gb = 3 cannot certify them
    pres = parse_presentation("field Q; gens x:1; rels x^3")
    G = groebner(pres, 3)
    assert not G.complete
    with pytest.raises(CertificationError):
        G.normal_words(4)
    with pytest.raises(CertificationError):
        G.normal_form(pres.parse_poly("x^4"))


def test_normal_form_examples():
    G = groebner(plane(), 8)
    p = plane().parse_poly("x*y")
    assert G.normal_form(p) == plane().parse_poly("y*x")
    assert G.normal_form(plane().parse_poly("y*x")) == plane().parse_poly("y*x")

    GT = groebner(t34(), 8)
    assert GT.normal_form(t34().parse_poly("x^2*y")) == t34().parse_poly("y*x^2")


def sklyanin_type():
    return parse_presentation(
        "field Q; gens x:1 y:1 z:1; "
        "rels 2*x*y - 3*y*x + z^2, 2*y*z - 3*z*y + x^2, 2*z*x - 3*x*z + y^2",
        label="sklyanin",
    )


def test_normal_form_linear_and_idempotent():
    # non-integer coefficients and scalars: reduction clears their
    # denominators and, on the Sklyanin-type basis (lead coefficient 2 in
    # integer form), rescales, so the result is out / (S * den)
    rng = random.Random(3)
    for pres in (t34(), sklyanin_type()):
        G = groebner(pres, 8)
        all4 = free_words(pres.gen_degs, 4)
        echelon = ideal_slice_echelon(pres, 4)

        def rand_scalar(nums, dens):
            return pres.field.scalar(rng.choice(nums), rng.choice(dens))

        def rand_poly():
            terms = {w: rand_scalar(range(-9, 10), range(1, 7)) for w in rng.sample(all4, 5)}
            return Poly.make(terms, pres.gen_degs, pres.field.modulus)

        for _ in range(20):
            p, q = rand_poly(), rand_poly()
            a = rand_scalar(range(1, 9), range(2, 7))
            b = rand_scalar(range(-8, 0), range(2, 7))
            lhs = G.normal_form(p.scale(a) + q.scale(b))
            rhs = G.normal_form(p).scale(a) + G.normal_form(q).scale(b)
            assert lhs == rhs
            nf = G.normal_form(p)
            assert G.normal_form(nf) == nf
            assert nf.terms == free_normal_form(echelon, p.terms, pres.field.modulus)


def test_normal_words_examples():
    G = groebner(plane(), 8)
    assert len(G.normal_words(2)) == 3  # dim k[x,y]_2

    presB = parse_presentation("field Q; gens x:1 y:1; rels x^2, x*y^2 - y^2*x", label="B")
    GB = groebner(presB, 8)
    assert len(GB.normal_words(3)) == 4  # dim B_3 = 4, h_B = 1/(1-t)^2

    presA3 = parse_presentation("field Q; gens x:1; rels x^3")
    GA3 = groebner(presA3, 8)
    assert GA3.normal_words(3) == ()


def test_determinism():
    pres = t34()
    G1 = groebner(pres, 10)
    G2 = groebner(pres, 10)
    assert G1.elements == G2.elements
    assert G1.complete == G2.complete


def leftmost_lead(word, leads):
    """(pos, i) of the leftmost-starting factor of `word` equal to leads[i]."""
    for pos in range(len(word)):
        for i, u in enumerate(leads):
            if word[pos : pos + len(u)] == u:
                return pos, i
    return None


def test_dimension_consistency_against_brute_force():
    cases = [
        plane(),
        t34(),
        parse_presentation("field Q; gens x:1 y:1; rels x^2, x*y^2 - y^2*x"),
        parse_presentation("field Q; gens x:1 t:2; rels x*t - t*x, t^2 - x^4"),
        # Sklyanin-type: the basis at d_gb 6 is incomplete
        parse_presentation(
            "field Q; gens x:1 y:1 z:1; "
            "rels 2*x*y - 3*y*x + z^2, 2*y*z - 3*z*y + x^2, 2*z*x - 3*x*z + y^2"
        ),
        # the same under the order z > x > y, which renumbers the generators
        parse_presentation(
            "field Q; gens x:1 y:1 z:1; order z x y; "
            "rels 2*x*y - 3*y*x + z^2, 2*y*z - 3*z*y + x^2, 2*z*x - 3*x*z + y^2"
        ),
    ]
    complete = []
    for pres in cases:
        G = groebner(pres, 6)
        complete.append(G.complete)
        for j in range(6):
            assert G.dim(j) == brute_algebra_dim(pres, j), (pres.label, j)
        # the automaton against a naive scan over every free word
        leads = [g.lead_word() for g in G.elements]
        coefficients = hilbert_truncated(G, 6).coefficients
        for j in range(7):
            words = free_words(pres.gen_degs, j)
            for w in words:
                assert G.automaton.find(w) == leftmost_lead(w, leads), (pres.label, w)
            normal = sorted((w for w in words if leftmost_lead(w, leads) is None), key=pres.word_key)
            assert G.normal_words(j) == tuple(normal), (pres.label, j)
            assert coefficients[j] == G.dim(j), (pres.label, j)
    assert complete[-2:] == [False, False]  # the Sklyanin-type cases, last in the loop


def test_random_presentations_over_f101():
    rng = random.Random(2024)
    from oracles import free_words

    for trial in range(10):
        n_gens = rng.choice([2, 3])
        gens = " ".join("g%d:1" % i for i in range(n_gens))
        pres = parse_presentation("field F101; gens %s" % gens, label="rand%d" % trial)
        rels = []
        for _ in range(rng.choice([1, 2])):
            deg = rng.choice([2, 3])
            terms = {}
            for w in free_words(pres.gen_degs, deg):
                c = rng.randrange(101) if rng.random() < 0.4 else 0
                if c:
                    terms[w] = c
            if terms:
                rels.append(Poly.make(terms, pres.gen_degs, pres.field.modulus))
        if not rels:
            continue
        from homreg.corealg import make_presentation

        pres = make_presentation(
            pres.field, [("g%d" % i, 1) for i in range(n_gens)], rels, label=pres.label
        )
        G = groebner(pres, 6, element_limit=300)
        for j in range(6):
            if not G.complete and j > G.d_gb:
                break
            assert G.dim(j) == brute_algebra_dim(pres, j), (trial, j)
        # normal form properties at degree <= 5
        all3 = free_words(pres.gen_degs, 3)
        for _ in range(5):
            terms = {w: rng.randrange(1, 101) for w in rng.sample(all3, 3)}
            p = Poly.make(terms, pres.gen_degs, pres.field.modulus)
            nf = G.normal_form(p)
            assert G.normal_form(nf) == nf


def random_rational_presentation(rng, label):
    """2 or 3 generators, 1 or 2 relations of degree 2 or 3, with signed
    coefficients of which at least one per relation is not an integer."""
    n_gens = rng.choice([2, 3])
    gens = [("g%d" % i, 1) for i in range(n_gens)]
    rels = []
    for _ in range(rng.choice([1, 2])):
        words = free_words([1] * n_gens, rng.choice([2, 3]))
        terms = {}
        for w in rng.sample(words, rng.randrange(2, min(6, len(words)) + 1)):
            terms[w] = QQ.scalar(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 7))
        w = rng.choice(list(terms))
        terms[w] = QQ.scalar(rng.choice([-1, 1]) * rng.choice([1, 5, 7]), rng.choice([2, 3, 4]))
        rels.append(Poly.make(terms, [1] * n_gens, QQ.modulus))
    return make_presentation(QQ, gens, rels, label=label)


def test_random_rational_completions_against_free_algebra_oracle():
    rng = random.Random(808)
    for trial in range(6):
        pres = random_rational_presentation(rng, "randQ%d" % trial)
        G = groebner(pres, 6, element_limit=300)
        leads = [g.lead_word() for g in G.elements]
        echelons = {}
        for g in G.elements:
            lead = g.lead_word()
            assert g.terms[lead] == 1, (pres.label, lead)
            for w in g.terms:
                if w != lead:
                    assert leftmost_lead(w, leads) is None, (pres.label, w)
            if g.degree not in echelons:
                echelons[g.degree] = ideal_slice_echelon(pres, g.degree)
            nf = free_normal_form(echelons[g.degree], {lead: 1}, 0)
            expected = {w: -c for w, c in nf.items()}
            expected[lead] = Fraction(1)
            assert g.terms == expected, (pres.label, lead)
        for j in range(6):
            assert G.dim(j) == brute_algebra_dim(pres, j), (pres.label, j)


def test_sklyanin_type_completion_at_d_gb_10():
    # Fraction-free reduction scales pending rows by lead coefficients 2 and
    # 3 over and over; the basis must still be the reduced one
    G = groebner(sklyanin_type(), 10)
    assert len(G.elements) == 33
    assert not G.complete
    for j in range(11):
        assert G.dim(j) == (j + 2) * (j + 1) // 2, j


def random_weighted_presentation(rng, field, gens, label):
    """1 to 3 random relations of weighted degree 2 to 4 over `field`."""
    degs = [d for _, d in gens]
    rels = []
    for _ in range(rng.choice([1, 2, 3])):
        words = free_words(degs, rng.choice([2, 3, 4]))
        terms = {}
        for w in rng.sample(words, rng.randrange(1, min(5, len(words)) + 1)):
            if field.modulus:
                c = rng.randrange(1, field.modulus)
            else:
                c = field.scalar(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 5))
            terms[w] = c
        rels.append(Poly.make(terms, degs, field.modulus))
    return make_presentation(field, gens, rels, label=label)


def assert_reduced_basis(pres, G, d_gb, label):
    """G is the reduced basis of `pres` through d_gb, element by element
    against the free-algebra oracle, and its dimensions are the brute ones."""
    p = pres.field.modulus
    leads = [g.lead_word() for g in G.elements]
    echelons = {}
    for g in G.elements:
        lead = g.lead_word()
        for w in g.terms:
            if w != lead:
                assert leftmost_lead(w, leads) is None, (label, w)  # tail-reduced
        if g.degree not in echelons:
            echelons[g.degree] = ideal_slice_echelon(pres, g.degree)
        nf = free_normal_form(echelons[g.degree], {lead: 1}, p)
        expected = {w: -c % p if p else -c for w, c in nf.items()}
        expected[lead] = 1
        assert g.terms == expected, (label, lead)
    for j in range(d_gb + 1):
        assert G.dim(j) == brute_algebra_dim(pres, j), (label, j)


@pytest.mark.parametrize("field_name", ["Q", "F101", "F7"])
def test_completion_skipping_overlaps_by_chain_criterion_is_the_reduced_basis(field_name):
    # the completion skips every overlap whose word w has a leading word in
    # w[1:-1]; the basis must still be the reduced one, element by element
    field = parse_field(field_name)
    rng = random.Random(1515 + len(field_name))
    shapes = [
        ([("x", 1), ("y", 1)], 8),
        ([("x", 1), ("t", 2)], 8),
        ([("x", 1), ("y", 1), ("t", 2)], 7),
        ([("x", 1), ("y", 1), ("z", 1)], 6),
    ]
    for trial in range(8):
        gens, d_gb = shapes[trial % len(shapes)]
        label = "%s-%d" % (field_name, trial)
        pres = random_weighted_presentation(rng, field, gens, label)
        assert_reduced_basis(pres, groebner(pres, d_gb, element_limit=300), d_gb, label)


def test_chain_criterion_skips_sklyanin_type_overlaps(monkeypatch):
    # regression guard: at d_gb 9 the chain criterion leaves 118 reductions
    # (S-polynomials, relations and tail reductions); reducing every overlap takes 155
    calls = []
    reduce_terms = GroebnerBasis._reduce_terms

    def counting(self, *args):
        calls.append(args)
        return reduce_terms(self, *args)

    monkeypatch.setattr(GroebnerBasis, "_reduce_terms", counting)
    G = groebner(sklyanin_type(), 9)  # the presentation of perfbench's sklyanin_gb
    assert len(G.elements) == 26
    assert len(calls) == 118


def test_sklyanin_type_completion_builds_the_basis_once(monkeypatch):
    # regression guard: completion grows the GroebnerBasis it returns, on
    # integer forms only.  Every Poly is made after the last reduction (the
    # tail reduction), one per element; only the relations are turned into
    # integers, and each element gets its integer form twice, when it is
    # found and when its tail is reduced, never again from its Poly
    pres = sklyanin_type()
    built, polys, reductions, to_ints, integer_forms = [], [], [], [], []
    init, poly_init, reduce_terms = GroebnerBasis.__init__, Poly.__init__, GroebnerBasis._reduce_terms
    to_ints_of, integer_form_of = gbasis._to_ints, gbasis._integer_form

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_poly_init(self, *args):
        polys.append(args)
        poly_init(self, *args)

    def counting_reduce(self, *args):
        reductions.append(len(polys))  # Polys made before this reduction
        return reduce_terms(self, *args)

    def logging_to_ints(terms):
        to_ints.append(terms)
        return to_ints_of(terms)

    def counting_integer_form(*args):
        integer_forms.append(args)
        return integer_form_of(*args)

    monkeypatch.setattr(GroebnerBasis, "__init__", counting_init)
    monkeypatch.setattr(Poly, "__init__", counting_poly_init)
    monkeypatch.setattr(GroebnerBasis, "_reduce_terms", counting_reduce)
    monkeypatch.setattr(gbasis, "_to_ints", logging_to_ints)
    monkeypatch.setattr(gbasis, "_integer_form", counting_integer_form)
    G = groebner(pres, 9)
    assert len(built) == 1
    assert reductions == [0] * 118
    assert len(polys) == len(G.elements) == 26
    assert sorted(map(id, to_ints)) == sorted(id(r.terms) for r in pres.relations)
    assert len(integer_forms) == 2 * len(G.elements)


def test_sklyanin_type_completion_builds_one_automaton_per_degree(monkeypatch):
    # regression guard: completion rebuilds the automaton once per degree that
    # found elements, with the empty one at the start and the final sorted
    # one in place of the last rebuild, and reads each word's reducer row
    # once per degree; rebuilding per element and searching per reduction
    # took 28 builds and 5,903 finds, and building the GroebnerBasis apart
    # from the completion took one more
    builds, finds = [], []
    init, find = WordAutomaton.__init__, WordAutomaton.find

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    def counting_find(self, word):
        finds.append(word)
        return find(self, word)

    monkeypatch.setattr(WordAutomaton, "__init__", counting_init)
    monkeypatch.setattr(WordAutomaton, "find", counting_find)
    G = groebner(sklyanin_type(), 9)
    assert len(G.elements) == 26
    assert len(builds) <= len({g.degree for g in G.elements}) + 1 == 9
    assert len(finds) <= 2800


def test_a_word_popped_as_normal_that_becomes_a_leading_word_in_the_same_degree(monkeypatch):
    # the stale-row case of the per-degree reducer rows: a degree-d word that
    # one reduction pops as normal (row ()) and that a later reduction of the
    # same degree makes a leading word; its row must become its element's
    # form.  The seed was found by a search over random_weighted_presentation.
    pres = random_weighted_presentation(random.Random(5), parse_field("Q"), [("x", 1), ("t", 2)], "stale")
    log = []  # (rows of the reduction's degree, its normal words after it, new lead or None)
    reduce_terms = GroebnerBasis._reduce_terms

    def logging(self, pending, den, rows=None):
        out, scale = reduce_terms(self, pending, den, rows)
        if rows is not None:
            log.append((rows, {w for w, row in rows.items() if row == ()}, min(out) if out else None))
        return out, scale

    monkeypatch.setattr(GroebnerBasis, "_reduce_terms", logging)
    G = groebner(pres, 8)
    stale = [
        lead
        for j, (rows, _, lead) in enumerate(log)
        if lead is not None and any(r is rows and lead in normal for r, normal, _ in log[:j])
    ]
    assert stale
    assert_reduced_basis(pres, G, 8, "stale")


def random_lead_set(rng, gen_degs):
    """1 to 8 random inter-reduced words (none a factor of another) of
    weighted degree 1 to 7 over the generators."""
    leads = []
    for _ in range(rng.randrange(1, 9)):
        target = rng.randrange(1, 8)
        word = []
        while sum(gen_degs[a] for a in word) < target:
            word.append(rng.randrange(len(gen_degs)))
        u = bytes(word)

        def factor(a, b):
            return any(b[k : k + len(a)] == a for k in range(len(b) - len(a) + 1))

        if not any(factor(u, v) or factor(v, u) for v in leads):
            leads.append(u)
    return leads


def test_automaton_table_matches_suffix_scan_on_random_lead_sets():
    rng = random.Random(1717)
    shapes = [(1, 1), (1, 1, 1), (1, 2), (1, 1, 2), (2, 3, 1, 1)]
    for trial in range(1000):
        gen_degs = shapes[trial % len(shapes)]
        leads = tuple(random_lead_set(rng, gen_degs))
        A = WordAutomaton(leads, gen_degs)
        assert (A.states, A.delta) == suffix_scan_automaton(leads, len(gen_degs)), leads


@pytest.mark.parametrize("name", SAMPLES)
def test_automaton_table_matches_suffix_scan_on_sample_bases(name):
    pres = parse_presentation(open(os.path.join(PRESENTATIONS, name + ".alg")).read(), label=name)
    G = groebner(pres, 8)
    A = G.automaton
    assert (A.states, A.delta) == suffix_scan_automaton(A.leads, len(pres.gen_degs))


@pytest.mark.parametrize("field_name", ["Q", "F101"])
def test_lazy_rescaling_reduction_is_the_fraction_normal_form(field_name):
    # random elements of degree 2..5 reduced on random completions whose
    # integer forms have lead coefficients other than 1 (over Q): values
    # written before a rescaling must be brought to the running scale
    field = parse_field(field_name)
    p = field.modulus
    rng = random.Random(2323 + p)
    shapes = [[("x", 1), ("y", 1)], [("x", 1), ("t", 2)], [("x", 1), ("y", 1), ("z", 1)]]
    lead_coeffs, rescaled = set(), 0
    for trial in range(12):
        gens = shapes[trial % len(shapes)]
        pres = random_weighted_presentation(rng, field, gens, "%s-%d" % (field_name, trial))
        G = groebner(pres, 6, element_limit=300)
        lead_coeffs.update(form[0] for form in G._forms)
        for j in range(2, 6):
            if not G.complete and j > G.d_gb:
                break
            echelon = ideal_slice_echelon(pres, j)
            words = free_words(pres.gen_degs, j)
            for _ in range(4):
                terms = {}
                for w in rng.sample(words, min(len(words), rng.randrange(1, 7))):
                    if p:
                        terms[w] = rng.randrange(1, p)
                    else:
                        terms[w] = field.scalar(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 6))
                ints, den = _to_ints(terms)
                out, scale = G._reduce_terms(ints, den)
                assert type(scale) is int and all(type(c) is int for c in out.values())
                rescaled += scale != den
                if p:
                    inv = pow(scale, -1, p)
                    got = {w: c * inv % p for w, c in out.items()}
                else:
                    got = {w: Fraction(c, scale) for w, c in out.items()}
                assert got == free_normal_form(echelon, terms, p), (pres.label, terms)
    if p:
        assert lead_coeffs == {1}
    else:
        assert len(lead_coeffs - {1}) >= 5 and rescaled >= 20


def test_nf_word_returns_a_normal_word_without_reducing_it(monkeypatch):
    # a normal word is its own normal form and takes no reduction; other
    # words keep the reduced normal form, and the degree check comes first
    calls = []
    reduce_terms = GroebnerBasis._reduce_terms

    def counting(self, *args):
        calls.append(args)
        return reduce_terms(self, *args)

    monkeypatch.setattr(GroebnerBasis, "_reduce_terms", counting)
    pres = sklyanin_type()
    G = groebner(pres, 6)
    assert not G.complete
    normal = 0
    for w in free_words(pres.gen_degs, 4):
        before = len(calls)
        nf = G.nf_word(w)
        if G.automaton.find(w) is None:
            assert nf == ((w, 1),) and len(calls) == before
            normal += 1
        else:
            assert len(calls) == before + 1
        assert dict(nf) == G.normal_form(word_poly(pres, w)).terms
    assert 0 < normal < 3 ** 4
    # a normal word above d_gb is refused, though it needs no reduction
    words = (w + a for w in G.normal_words(6) for a in (b"\x00", b"\x01", b"\x02"))
    above = next(u for u in words if G.automaton.find(u) is None)
    with pytest.raises(CertificationError, match="exceeds the certified range"):
        G.nf_word(above)


def test_dim_counts_paths_and_lists_no_words(golden):
    # dim_k A_j is read off the automaton, equal to the number of normal words
    # on the golden and seeded random bases, and lists no words itself
    bases = [art.gb() for art in golden.values()]
    for field, seed in (("Q", 7), ("F101", 8)):
        rng = random.Random(seed)
        bases += [groebner(parse_presentation(random_algebra_source(rng, field)), 7) for _ in range(20)]
    for G in bases:
        for j in range(-1, min(G.d_gb, 8) + 1):
            assert G.dim(j) == len(G.normal_words(j)), (G.presentation.to_text(), j)
    free = groebner(parse_presentation("field Q; gens x:1 y:1 z:1"), 12)
    assert free.dim(12) == 531441 == 3 ** 12
    assert 12 not in free._normal_words
    G = groebner(sklyanin_type(), 6)
    assert not G.complete and G.dim(-1) == 0
    with pytest.raises(CertificationError, match="normal words at degree 7 exceeds the certified range"):
        G.dim(7)


def test_dims_extend_the_kept_path_counts():
    # `homreg hilbert presentations/hypersurface_t2.alg` counts dims through 12
    # for the truncated series, then through 18 for the rational form; the
    # second count keeps the per-state rows of degrees 0-12 and adds 13-18
    with open(os.path.join(PRESENTATIONS, "hypersurface_t2.alg")) as fh:
        G = groebner(parse_presentation(fh.read()), 12)
    hilbert_truncated(G, 12)
    assert len(G._rows) == 13
    kept, snapshot = list(G._rows), [list(row) for row in G._rows]
    hilbert_rational(G)
    assert len(G._rows) == 19
    assert all(a is b for a, b in zip(G._rows, kept)) and G._rows[:13] == snapshot
    assert G.dims(18) == G.automaton.dims(18) == [len(G.normal_words(j)) for j in range(19)]

import random

import pytest

from homreg import constructions
from homreg.cli import GOLDEN_SOURCES
from homreg.corealg import CertificationError, Poly, PresentationError, parse_field, parse_presentation
from homreg.regularity import AlgebraArtifacts
from homreg.constructions import (
    concavity_witness,
    convolve_betti,
    finite_map_check,
    quotient_by_normal_element,
    tensor_presentation,
    tensor_product,
)
from homreg.resolution import MappedAlgebraView, betti_table, minimal_resolution, trivial_module
from homreg.series import series_product

from oracles import cokernel_dims


def test_tensor_presentation_a2_squared(golden):
    pres = tensor_presentation(golden["A2"].presentation, golden["A2"].presentation)
    assert pres.gen_names == ("x", "x2")
    rels = {pres.format_poly(r) for r in pres.relations}
    assert rels == {"x^2", "x2^2", "x*x2 - x2*x"}
    art = tensor_product(golden["A2"], golden["A2"])
    h = art.hilbert_or_none()
    assert h.numerator == (1, 2, 1)  # (1 + t)^2
    assert h.degree == 2


def test_tensor_field_mismatch(golden):
    other = AlgebraArtifacts(parse_presentation("field F5; gens z:1"))
    with pytest.raises(PresentationError, match="share the base field"):
        tensor_product(golden["A2"], other)


def test_unit_factor(golden):
    # tensoring with k[x]/(x) = k is the identity on series
    unit = AlgebraArtifacts(parse_presentation("field Q; gens e:1; rels e", label="unit"))
    art = tensor_product(golden["T"], unit)
    assert art.hilbert_or_none() == golden["T"].hilbert_or_none()


def test_derived_algebras_keep_the_element_limit():
    # the product takes the smaller factor budget, as it does for its window
    plane = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x"), element_limit=7)
    kx = AlgebraArtifacts(parse_presentation("field Q; gens z:1"), element_limit=5)
    assert tensor_product(plane, kx).element_limit == tensor_product(kx, plane).element_limit == 5
    quotient, _ = quotient_by_normal_element(plane, "x")
    assert quotient.element_limit == 7


def test_series_multiplicativity(golden):
    hA = golden["A2"].hilbert_or_none()
    hT = golden["T"].hilbert_or_none()
    prod = series_product(hA, hT)
    art = tensor_product(golden["A2"], golden["T"])
    assert art.hilbert_or_none() == prod
    # and against the direct Groebner computation on the product presentation
    from homreg.series import hilbert_rational

    assert hilbert_rational(art.gb()) == prod


def test_kunneth_convolution_matches_direct(golden):
    for a, b in (("A2", "T"), ("A2", "A2")):
        art = tensor_product(golden[a], golden[b])
        direct = minimal_resolution(
            art.gb(),
            trivial_module(art.presentation),
            art.i_max,
            art.d_max,
            algebra_hilbert=art.hilbert_or_none(),
        )
        assert dict(betti_table(direct).entries) == dict(art.known_betti_k.entries)


def test_convolve_betti_window(golden):
    tA = golden["A2"].betti_k()
    tT = golden["T"].betti_k()
    conv = convolve_betti(tA, tT, 8, 12)
    # beta_{n,n} = 3 for n >= 1, beta_{n,n+1} = 3 for n >= 3
    assert conv.betti(1, 1) == 3
    assert conv.betti(2, 3) == 2
    assert conv.betti(4, 5) == 3
    assert not conv.terminated


def test_convolve_betti_keeps_every_entry_of_a_terminated_product():
    # k[x] (x) k[y] at d_max 1 terminates at step 2, with beta_{2,2} above d_max
    kx, ky = (AlgebraArtifacts(parse_presentation("field Q; gens %s:1" % v, label=v), 4, 1, 4) for v in "xy")
    conv = convolve_betti(kx.betti_k(), ky.betti_k(), 4, 1)
    assert conv.terminated and conv.termination_step == 2
    assert conv.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert conv.t(2) == 2


def test_quotient_certificates(golden):
    T = golden["T"]
    B, cert = quotient_by_normal_element(T, "x^2")
    assert None not in cert.left_witnesses and cert.regular_ok
    assert cert.degree == 2
    # x^2 commutes with everything in T: witnesses are x and y themselves
    names = [T.presentation.format_poly(w) for w in cert.left_witnesses]
    assert names == ["x", "y"]

    # the anticommuting degree-2 element: witnesses pick up signs
    C, cert2 = quotient_by_normal_element(T, "x*y - y*x")
    assert None not in cert2.left_witnesses and cert2.regular_ok
    names2 = [T.presentation.format_poly(w) for w in cert2.left_witnesses]
    assert names2 == ["-x", "-y"]


def test_quotient_normality_failure(golden):
    # x alone is not normal in T: yx is not in xT at degree 2
    with pytest.raises(PresentationError, match="normality fails"):
        quotient_by_normal_element(golden["T"], "x")


def test_quotient_normality_failure_on_the_right_side_only():
    # in k<x, y>/(x*y), g*y = y*q_g holds for both generators (x*y = 0), but y*x is no p*y
    art = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y", label="A"), 4, 6, 6)
    with pytest.raises(PresentationError, match="normality fails for generator x"):
        quotient_by_normal_element(art, "y")


def test_quotient_rejects_zero_candidate(golden):
    with pytest.raises(PresentationError, match="reduces to zero"):
        quotient_by_normal_element(golden["plane"], "x*y - y*x")


def test_quotient_evidence_propagation(golden):
    repB = golden["B"].report()
    assert repB.cm_evidence == "normal_quotient"
    assert repB.cmreg.value == 0
    # degree-1 quotient of the plane: k[y], CMreg = 0 + (1-1)... parent 0 -> 0
    repY = golden["k[y]"].report()
    assert repY.cmreg.value == 0 and repY.cm_evidence in ("normal_quotient", "as_regular")
    # Torreg upper bound propagated for deg <= 2
    assert golden["B"].torreg_upper is not None
    assert golden["B"].torreg_upper[0] == 1


def test_finite_map_surjection(golden):
    B = golden["B"]
    cert = finite_map_check(golden["T"], ["x", "y"], B)
    assert cert.verdict == "finite"
    assert cert.left_cokernel[0] == 1
    assert all(d == 0 for d in cert.left_cokernel[1:])
    assert cert.left_cokernel == cert.right_cokernel


def test_finite_map_rank_two_extension(golden):
    cert = finite_map_check(golden["k[u2]"], ["x^2"], golden["k[x]"])
    assert cert.verdict == "finite"
    assert list(cert.left_cokernel[:4]) == [1, 1, 0, 0]


def test_finite_map_polynomial_extension_not_finite(golden):
    cert = finite_map_check(golden["k[x]"], ["x"], golden["plane"])
    assert cert.verdict == "not_finite_up_to_bound"
    # cokernel dimensions grow linearly: k[x,y]/(x) = k[y]
    assert list(cert.left_cokernel[:5]) == [1, 1, 1, 1, 1]


def test_finite_map_degree_mismatch(golden):
    with pytest.raises(PresentationError, match="degree"):
        finite_map_check(golden["k[u2]"], ["x"], golden["k[x]"])


def test_finite_map_refuses_a_change_of_base_field():
    ku = AlgebraArtifacts(parse_presentation("field Q; gens u:1", label="k[u]"), 4, 6, 6)
    kx = AlgebraArtifacts(parse_presentation("field F7; gens x:1", label="k[x]"), 4, 6, 6)
    for check in (finite_map_check, concavity_witness):
        with pytest.raises(PresentationError, match=r"k\[u\] is over Q but k\[x\] is over F7; a map must keep"):
            check(ku, ["x"], kx)


def test_a_map_must_send_the_relations_to_zero():
    # x -> x, y -> y is no map k[x, y] -> E = k<x, y>/(x^2, y^2), as xy - yx is not
    # zero in E; its cokernels are k alone, so without the check it passed as finite
    plane = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x", label="plane"), 4, 6, 6)
    E = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x^2, y^2", label="E"), 4, 6, 6)
    message = r"the relation x\*y - y\*x of plane does not map to zero in E"
    for check in (finite_map_check, concavity_witness):
        with pytest.raises(PresentationError, match=message):
            check(plane, ["x", "y"], E)
    with pytest.raises(PresentationError, match=message):
        MappedAlgebraView(plane.gb(), ["x", "y"], E.gb(), 6)
    # x, y -> x is a map, and not finite: E / xE is spanned by the words y, yx, yxy, ...
    assert finite_map_check(plane, ["x", "x"], E).verdict == "not_finite_up_to_bound"


def test_quotient_chain_rees_propagation(golden):
    # B is AS Gorenstein of type (2, 2) by the quotient bookkeeping
    assert golden["B"].as_gorenstein_hint[0] == (2, 2)
    # a further quotient still carries normal-quotient evidence
    B2, cert = quotient_by_normal_element(golden["B"], "x*y + y*x")
    assert None not in cert.left_witnesses
    rep = B2.report()
    assert rep.cm_evidence == "normal_quotient"
    assert rep.cmreg.value == 1  # 0 + (2 - 1)


def test_tensor_assertion_notes(golden):
    art = tensor_product(golden["A2"], golden["T"])
    assert any("noetherianity of the tensor product" in a for a in art.assertions)


def test_quotient_gorenstein_type_matches_direct_ext(golden):
    # the bookkeeping says B = T/(x^2) is AS Gorenstein of type (2, 2);
    # the directly computed Ext table is concentrated exactly there
    from homreg.resolution import ext_into_algebra

    B = golden["B"]
    assert B.as_gorenstein_hint[0] == (2, 2)
    E = ext_into_algebra(B.resolution_k(), B.gb())
    assert dict(E.entries) == {(2, -2): 1}


def test_quotient_evidence_agrees_with_direct_verdict(golden):
    # Tcomm = T/(xy - yx) is the commutative plane: the normal-quotient
    # evidence (CMreg(T) + 1 = 0) must agree with the AS-type evidence
    # (d - l = 2 - 2 = 0) computed from its own terminated resolution
    art = golden["Tcomm"]
    rep = art.report()
    assert rep.cm_evidence == "normal_quotient"
    assert rep.cmreg.value == 0
    v = art.as_regular_verdict()
    assert v.status == "yes" and (v.dim - v.index) == 0


@pytest.mark.parametrize("window", [(6, 6, 12), (6, 8, 12)])
def test_late_zero_divisor_is_not_regular(window):
    # x is normal in B = plane/(x*y^6) but kills y^6, so it fails to be
    # regular only in degree 7; B/(x) = k[y] has CMreg 0 at every window
    plane = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x", label="plane"), *window)
    B, _ = quotient_by_normal_element(plane, "x*y^6")
    C, cert = quotient_by_normal_element(B, "x")
    assert (cert.regular_ok, cert.checked_to) == (False, 6)
    assert C.cmreg_known is None and C.torreg_upper is None
    cm, case = C.resolve_cmreg()
    assert (cm.kind, cm.value, case) == ("exact", 0, "as_regular")


def test_quotient_with_an_incomplete_basis_stores_no_value_that_rests_on_regularity():
    # at d_gb 2 the quotient's basis is incomplete, so regularity is seen
    # only through d_max and B keeps neither CMreg nor a Torreg upper bound
    plane = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x", label="plane"), 6, 6, 2)
    B, cert = quotient_by_normal_element(plane, "x^2 + y^2")
    assert plane.gb().complete and not B.gb().complete
    assert (cert.regular_ok, cert.checked_to) == (True, 6)
    assert B.cmreg_known is None and B.torreg_upper is None and B.as_gorenstein_hint is None


def test_quotient_window_check_finds_a_zero_divisor_without_series():
    # at d_gb 2 the basis of k[x, y]/(x*y) is incomplete, so there is no
    # series identity to decide regularity; x*y = 0 shows x a zero divisor
    # in degree 2, through the dimensions alone
    zd = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y - y*x, x*y", label="zd"), 4, 2, 2)
    B, cert = quotient_by_normal_element(zd, "x")
    assert not zd.gb().complete
    assert (cert.regular_ok, cert.checked_to) == (False, 1)
    assert B.cmreg_known is None and B.torreg_upper is None


def test_quotient_inherits_the_torreg_upper_bound_of_its_parent():
    # T (x) T has Torreg 2 from its step-4 shift 6, beyond i_max 3, so its
    # quotient by x^2 sees Torreg >= 1 only and keeps 2 as an upper bound;
    # a second degree-2 quotient inherits that bound
    T = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x", label="T"), 3, 8, 8)
    TT = tensor_product(T, T)
    assert str(TT.resolve_torreg()) == "2"
    B, _ = quotient_by_normal_element(TT, "x^2")
    assert str(B.resolve_torreg()) == ">=1"
    C, cert = quotient_by_normal_element(B, "x2^2")
    assert cert.regular_ok
    assert C.torreg_upper == (
        2, "inherited upper bound: Torreg does not grow under quotients by degree<=2 normal regular elements"
    )


def test_a_witness_cmreg_goes_through_resolve_cmreg(golden):
    # k[x] is AS regular of type (1, 1): CMreg 0 = s + deg h needs s = 1
    kx = AlgebraArtifacts(parse_presentation("field Q; gens x:1", label="k[x]"))
    kx.cm_degree_hint = 5
    with pytest.raises(CertificationError, match="asserted Cohen-Macaulay degree 5 contradicts"):
        concavity_witness(kx, ["x"], golden["hyp"])
    kx.cm_degree_hint = 1
    w = concavity_witness(kx, ["x"], golden["hyp"])
    assert (w.neg_cmreg, w.as_regular_ok, w.finite_ok, w.koszul_ok) == (0, True, True, True)


def test_torreg_upper_bound_is_the_exact_value_else_the_stored_bound(golden):
    assert golden["T"].torreg_upper_bound() == (1, None)
    T = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x"), 2, 8, 8)
    assert str(T.resolve_torreg()) == ">=1" and T.torreg_upper_bound() is None
    T.torreg_upper = (5, "a stored bound")
    assert T.torreg_upper_bound() == (5, "a stored bound")


# ---------------------------------------------------------------------------
# finite-map cokernels against the full-window reference


def _assert_cokernels_are_the_reference(artT, images, artA):
    """`finite_map_check` against `oracles.cokernel_dims` through d_max, with the
    verdict read off the reference by the zero-band rule; returns the certificate."""
    cert = finite_map_check(artT, images, artA)
    G, d_max = artA.gb(), artA.d_max
    polys = artT.presentation.map_images(G, images)
    left, right = (cokernel_dims(G, polys, d_max, side) for side in (True, False))
    assert (cert.left_cokernel, cert.right_cokernel) == (left, right), (artT.label, artA.label, cert.images_text)
    band = range(max(d_max - artA.presentation.max_gen_degree() + 1, 0), d_max + 1)
    if not any(left[j] or right[j] for j in band):
        assert cert.verdict == "finite"
    else:
        assert cert.verdict == ("not_finite_up_to_bound" if left[d_max] or right[d_max] else "inconclusive")
    return cert


HARNESS_MAPS = (("k[u2]", ["x^2"], "k[x]"), ("k[x]", ["x"], "hyp"), ("k[u2]", ["x^2"], "hyp"), ("T", ["x", "y"], "B"))


def test_finite_map_cokernels_are_the_full_window_reference(golden):
    # the harness's four maps are finite; k[x] -> plane never closes.  k[x] -> hyp
    # has the cokernel k[t]/(t^2), deg t = 2: a band of width 1 would close at 1
    for source, images, target in HARNESS_MAPS:
        assert _assert_cokernels_are_the_reference(golden[source], images, golden[target]).finite
    cert = _assert_cokernels_are_the_reference(golden["k[x]"], ["x"], golden["hyp"])
    assert cert.left_cokernel == cert.right_cokernel == (1, 0, 1) + (0,) * 10
    cert = _assert_cokernels_are_the_reference(golden["k[x]"], ["x"], golden["plane"])
    assert cert.verdict == "not_finite_up_to_bound" and cert.left_cokernel == (1,) * 13


def test_cokernel_products_stop_at_the_band(golden, monkeypatch):
    # each side evaluates its products only up to its first zero band, not to d_max 12
    reached = []
    images_of = constructions.multiplication_images

    def recorded(products):
        reached.append(None)
        for j, cols in products:
            reached[-1] = j
            yield j, cols

    def spy(G, polys, j_hi, left=True):
        source, products = images_of(G, polys, j_hi, left)
        return source, recorded(products)

    monkeypatch.setattr(constructions, "multiplication_images", spy)
    for source, images, target in HARNESS_MAPS:
        finite_map_check(golden[source], images, golden[target])
    assert reached == [2, 2, 4, 4, 5, 5, 1, 1]


def test_narrow_windows_match_the_full_window_reference():
    # k[x, z]/(z^2), deg z = 2, over k[x]: "finite" needs d_max >= 4
    kx = AlgebraArtifacts(parse_presentation("field Q; gens x:1", label="k[x]"), 4, 8, 8)
    verdicts = []
    for d_max in range(9):
        src = "field Q; gens x:1 z:2; rels x*z - z*x, z^2"
        A = AlgebraArtifacts(parse_presentation(src, label="kxz"), 4, d_max, 8)
        verdicts.append(_assert_cokernels_are_the_reference(kx, ["x"], A).verdict)
    assert verdicts == ["not_finite_up_to_bound", "inconclusive", "not_finite_up_to_bound", "inconclusive"] + [
        "finite"
    ] * 5


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_random_finite_maps_match_the_full_window_reference(field):
    # a free source: any images of its generator degrees are a map, and the
    # cokernels depend on the images alone
    rng = random.Random({"Q": 4201, "F101": 4202}[field])
    verdicts = set()
    for label, src in GOLDEN_SOURCES.items():
        pres = parse_presentation(src, label=label, field=parse_field(field))
        for _ in range(6):
            A = AlgebraArtifacts(pres, 2, rng.randint(0, 9), 12)
            G = A.gb()
            degrees = [e for e in (1, 2, 3) if G.normal_words(e)]
            images = []
            for _ in range(rng.randint(1, 2)):
                e = rng.choice(degrees)
                terms = {}
                while not any(terms.values()):
                    terms = {w: rng.randint(-2, 2) for w in G.normal_words(e)}
                images.append(Poly.make(terms, pres.gen_degs, pres.field.modulus))
            gens = " ".join("u%d:%d" % (r, f.degree) for r, f in enumerate(images))
            T = AlgebraArtifacts(parse_presentation("field %s; gens %s" % (field, gens), label="free"), 2, 12, 12)
            verdicts.add(_assert_cokernels_are_the_reference(T, images, A).verdict)
    assert {"finite", "not_finite_up_to_bound"} <= verdicts


def test_an_incomplete_basis_raises_before_the_band_can_stop_the_cokernels():
    # k<x, y> -> k<x, y>/(xyxyx) is onto, so both cokernels close at degree 1;
    # every dim A_j through d_max is still read, and at d_gb 6 degree 7 is uncertified
    F = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1"), 4, 8, 6)
    A = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y*x*y*x"), 4, 8, 6)
    assert not A.gb().complete
    message = r"normal words at degree 7 exceeds the certified range \(basis complete only up to 6\)"
    with pytest.raises(CertificationError, match=message):
        finite_map_check(F, ["x", "y"], A)
    A = AlgebraArtifacts(parse_presentation("field Q; gens x:1 y:1; rels x*y*x*y*x"), 4, 6, 6)
    assert finite_map_check(F, ["x", "y"], A).left_cokernel == (1,) + (0,) * 6

"""Algebra-level constructions: tensor products, normal quotients, finite maps.

Tensor products are built by presentation (disjoint generators plus
cross-commutators) but their invariants travel the additive shortcuts:
Hilbert series multiply, Betti tables of k convolve, Torreg and CMreg
add.  Direct Groebner/resolution computation on the product
presentation stays available for cross-checking on small windows.
"""

from __future__ import annotations

from itertools import zip_longest

from .corealg import (
    PresentationError,
    Poly,
    Record,
    check_generator_count,
    make_presentation,
)
from . import linalg
from .regularity import (
    AlgebraArtifacts,
    BoundedValue,
    ConcavityWitness,
)
from .resolution import BettiTable, FreeLayer, multiplication_images
from .series import _pmul, series_product


# ---------------------------------------------------------------------------
# tensor products


def _renamed(names, taken):
    out = []
    for n in names:
        candidate = n
        k = 2
        while candidate in taken or candidate in out:
            candidate = "%s%d" % (n, k)
            k += 1
        out.append(candidate)
    return out


def tensor_presentation(A, B, label=""):
    """Presentation of A (x) B: both relation sets plus cross-commutators."""
    if A.field != B.field:
        raise PresentationError("tensor factors must share the base field")
    check_generator_count(A.n_gens + B.n_gens)  # before B's letters are shifted
    b_names = _renamed(B.gen_names, set(A.gen_names))
    gens = list(zip(A.gen_names, A.gen_degs)) + list(zip(b_names, B.gen_degs))
    nA = A.n_gens
    field = A.field
    degs = tuple(d for _, d in gens)
    rels = list(A.relations)
    for r in B.relations:
        rels.append(Poly({bytes(g + nA for g in w): c for w, c in r.terms.items()}, r.degree, r.modulus))
    for i in range(nA):
        for jj in range(B.n_gens):
            j = nA + jj
            rels.append(Poly.make({bytes((i, j)): 1, bytes((j, i)): -1}, degs, field.modulus))
    return make_presentation(
        field, gens, rels, label=label or "%s(x)%s" % (A.label or "A", B.label or "B")
    )


def convolve_betti(tA, tB, i_max, d_max):
    """Kunneth convolution of two Betti tables of k on the common window.

    A terminated product keeps every entry, above d_max too: each is exact,
    and t_i reads the top one.
    """
    total = (tA.termination_step if tA.terminated else tA.steps_computed) + (
        tB.termination_step if tB.terminated else tB.steps_computed
    )
    terminated = tA.terminated and tB.terminated and total <= i_max
    entries = {}
    for (p, j1), r1 in tA.entries.items():
        for (q, j2), r2 in tB.entries.items():
            i, j = p + q, j1 + j2
            if terminated or (i <= i_max and j <= d_max):
                entries[(i, j)] = entries.get((i, j), 0) + r1 * r2
    steps = min(total, i_max)
    return BettiTable(
        entries=entries,
        steps_computed=steps,
        i_max=i_max,
        d_max=d_max,
        terminated=terminated,
        termination_step=steps if terminated else None,
    )


def tensor_product(artA, artB, label=""):
    """Artifacts of A (x) B with additive evidence attached.

    Torreg and CMreg add over the factors; the Betti table of k is the
    convolution of the factor tables (recorded as such in provenance); the
    Hilbert series is the exact product when both factors have one.
    """
    pres = tensor_presentation(artA.presentation, artB.presentation, label=label)
    art = AlgebraArtifacts(
        pres,
        i_max=min(artA.i_max, artB.i_max),
        d_max=min(artA.d_max, artB.d_max),
        d_gb=min(artA.d_gb, artB.d_gb),
        element_limit=min(artA.element_limit, artB.element_limit),
    )
    hA, hB = artA.hilbert_or_none(), artB.hilbert_or_none()
    if hA is not None and hB is not None:
        art.known_hilbert = series_product(hA, hB)
    art.known_betti_k = convolve_betti(artA.betti_k(), artB.betti_k(), art.i_max, art.d_max)
    art.betti_provenance = "kunneth convolution of %s and %s" % (artA.label, artB.label)
    tA = artA.resolve_torreg()
    tB = artB.resolve_torreg()
    if tA.is_exact and tB.is_exact:
        art.torreg_known = BoundedValue.exact(
            tA.value + tB.value, "Torreg additive over tensor factors"
        )
    def upper_bound(factor_art, factor_torreg):
        if factor_torreg.is_exact:
            return (factor_torreg.value, "exact factor value")
        return factor_art.torreg_upper

    upA = upper_bound(artA, tA)
    upB = upper_bound(artB, tB)
    if upA is not None and upB is not None:
        art.torreg_upper = (upA[0] + upB[0], "sum of factor upper bounds")
    cmA, caseA = artA.resolve_cmreg()
    cmB, caseB = artB.resolve_cmreg()
    if caseA is not None and caseB is not None:
        art.cmreg_known = cmA.add(cmB, "CMreg additive over tensor factors"), "tensor_additive"
    art.assertions = list(
        dict.fromkeys(
            list(artA.assertions)
            + list(artB.assertions)
            + ["noetherianity of the tensor product: assumed, not verified"]
        )
    )
    return art


# ---------------------------------------------------------------------------
# quotients by normal regular elements


class NormalElementCertificate(Record):
    element_text: str
    degree: int
    left_witnesses: tuple  # per generator g: q_g with g*Omega = Omega*q_g mod I
    regular_ok: bool
    checked_to: int


def _solve_witness(layer, cols, rhs, j):
    """Solve Omega*q = rhs in degree j for q, or None when there is none.

    `layer` and `cols` (columns by degree) come from
    `multiplication_images(G, [Omega], ...)` on the left side, and `rhs`
    is in A's normal-word coordinates.
    """
    G = layer.G
    rows = [{} for _ in range(G.dim(j))]
    for c, col in enumerate(cols[j]):
        for t, a in col.items():
            rows[t][c] = a
    sol = linalg.solve(rows, len(cols[j]), rhs, G.presentation.field)
    return None if sol is None else layer.polys(j, sol)[0]


def _first_mismatch(hB, hA, a):
    """The lowest degree where H_B and (1 - t^a) H_A differ, or None when they are equal.

    Both denominators have constant term 1, so it is the lowest nonzero
    degree of the cross-multiplied difference of numerators.
    """
    lhs = _pmul(list(hB.numerator), list(hA.denominator))
    rhs = _pmul(_pmul([1] + [0] * (a - 1) + [-1], list(hA.numerator)), list(hB.denominator))
    return next((j for j, (x, y) in enumerate(zip_longest(lhs, rhs, fillvalue=0)) if x != y), None)


def quotient_by_normal_element(artA, omega_text, label=""):
    """B = A/(Omega) with a normality/regularity certificate.

    Normality witnesses q_g, g*Omega = Omega*q_g, are solved degreewise by
    exact linear algebra; Omega*g in A*Omega is a membership test.
    Omega is then regular (a non-zerodivisor) iff dim (Omega*A)_j =
    dim A_{j-a} in every degree, that is iff H_B = (1 - t^a) H_A.  With
    exact series for A and B (complete bases) that identity decides it,
    and `checked_to` is the degree before the first mismatch, else d_max.
    Without them the dimensions are compared through d_max only, and B
    gets no value that rests on regularity.  When regularity is decided
    and A has an exact CMreg from the as_regular or normal_quotient case,
    B stores CMreg(B) = CMreg(A) + deg(Omega) - 1 as normal_quotient, and
    for deg(Omega) <= 2 a certified Torreg(k) upper bound propagates.
    """
    A = artA.presentation
    G = artA.gb()
    omega = A.parse_poly(omega_text)
    if omega.is_zero() or omega.degree < 1:
        raise PresentationError("the quotient element must be homogeneous of degree >= 1")
    d_max = artA.d_max
    nf_omega = G.normal_form(omega)
    if nf_omega.is_zero():
        raise PresentationError("element reduces to zero modulo the ideal; not a regular candidate")
    omega = nf_omega.monic()
    a = omega.degree

    # g*Omega = Omega*q_g, solved for the witness q_g; Omega*g in A*Omega, by membership
    j_hi = a + A.max_gen_degree()
    layer, left_cols = multiplication_images(G, [omega], j_hi)
    left_cols = dict(left_cols)
    _, right_cols = multiplication_images(G, [omega], j_hi, False)
    right_span = {j: linalg.Echelon(A.field, cols) for j, cols in right_cols}
    coords = FreeLayer(G, (0,)).coords
    left_w = []
    for g in range(A.n_gens):
        gp, j = A.gen_poly(g), a + A.gen_degs[g]
        q = _solve_witness(layer, left_cols, coords([G.normal_form(gp * omega)], j), j)
        if q is None or right_span[j].residue(coords([G.normal_form(omega * gp)], j)):
            raise PresentationError(
                "normality fails for generator %s: no witness polynomial exists" % A.gen_names[g]
            )
        left_w.append(q)

    rels = list(A.relations) + [omega]
    presB = make_presentation(
        A.field,
        list(zip(A.gen_names, A.gen_degs)),
        rels,
        label=label or (A.label + "/(%s)" % omega_text),
    )
    artB = AlgebraArtifacts(presB, artA.i_max, artA.d_max, artA.d_gb, element_limit=artA.element_limit)
    artB.assertions = list(artA.assertions)

    hA, hB = artA.hilbert_or_none(), artB.hilbert_or_none()
    decided = hA is not None and hB is not None
    if decided:
        mismatch = _first_mismatch(hB, hA, a)
        regular_ok = mismatch is None
        checked_to = d_max if regular_ok else mismatch - 1
    else:
        # dim (Omega A)_j == dim A_{j-a} through the bound only
        regular_ok = True
        checked_to = d_max
        for j, cols in multiplication_images(G, [omega], d_max)[1]:
            if linalg.Echelon(A.field, cols).rank != len(cols):
                regular_ok = False
                checked_to = j - 1
                break

    cert = NormalElementCertificate(
        element_text=omega_text,
        degree=a,
        left_witnesses=tuple(left_w),
        regular_ok=regular_ok,
        checked_to=checked_to,
    )
    if regular_ok and decided:
        cmA, caseA = artA.resolve_cmreg()
        if cmA.is_exact and caseA in ("as_regular", "normal_quotient"):
            note = "CMreg = parent CMreg + (deg Omega - 1), deg Omega = %d" % a
            artB.cmreg_known = cmA.add_int(a - 1, note), "normal_quotient"
            if caseA == "as_regular":
                v = artA.as_regular_verdict()
                artB.as_gorenstein_hint = (
                    (v.dim - 1, v.index - a),
                    "quotient of an AS regular algebra by a normal regular element",
                )
        if a <= 2:
            tA = artA.resolve_torreg()
            upper = None
            if tA.is_exact:
                upper = (tA.value, "Torreg does not grow under quotients by degree<=2 normal regular elements")
            elif artA.torreg_upper is not None:
                upper = (
                    artA.torreg_upper[0],
                    "inherited upper bound: " + artA.torreg_upper[1],
                )
            if upper is not None:
                artB.torreg_upper = upper
    return artB, cert


# ---------------------------------------------------------------------------
# finite maps


class FiniteMapCertificate(Record):
    images_text: tuple
    left_cokernel: tuple  # dims of A / f(T_{>=1}) A per degree
    right_cokernel: tuple  # dims of A / A f(T_{>=1}) per degree
    verdict: str  # "finite" | "not_finite_up_to_bound" | "inconclusive"

    @property
    def finite(self):
        return self.verdict == "finite"


def _cokernel_dims(G_A, images, d_max, side_left):
    field = G_A.presentation.field
    _, products = multiplication_images(G_A, images, d_max, side_left)
    ranks = {j: linalg.Echelon(field, cols).rank for j, cols in products}
    return tuple(G_A.dim(j) - ranks.get(j, 0) for j in range(d_max + 1))


def finite_map_check(artT, images, artA):
    """Certify finiteness of a graded map T -> A by cokernel dimensions.

    `AlgebraPresentation.map_images` checks the images.  Both module sides
    are checked.  The verdict is `finite` only when the cokernels vanish on
    a trailing window at least as wide as the largest generator degree of
    A, so no module generator can hide above the bound; a nonzero cokernel
    at the top of the window is reported as `not_finite_up_to_bound`,
    anything else as `inconclusive`.
    """
    A = artA.presentation
    images = artT.presentation.map_images(A, images)
    G_A = artA.gb()
    d_max = artA.d_max
    left = _cokernel_dims(G_A, images, d_max, side_left=True)
    right = _cokernel_dims(G_A, images, d_max, side_left=False)
    width = A.max_gen_degree()
    nonzero = [j for j in range(d_max + 1) if left[j] or right[j]]
    top = max(nonzero) if nonzero else 0
    if top + width <= d_max:
        verdict = "finite"
    elif left[d_max] or right[d_max]:
        verdict = "not_finite_up_to_bound"
    else:
        verdict = "inconclusive"
    return FiniteMapCertificate(
        images_text=tuple(A.format_poly(p) for p in images),
        left_cokernel=left,
        right_cokernel=right,
        verdict=verdict,
    )


def concavity_witness(artT, images, artA):
    """Package a candidate finite map from an AS regular algebra as a witness."""
    cert = finite_map_check(artT, images, artA)
    verdict = artT.as_regular_verdict()
    torregT = artT.resolve_torreg()
    koszul_ok = torregT.is_exact and torregT.value == 0
    neg_cm = (verdict.index - verdict.dim) if verdict.status == "yes" else 0
    return ConcavityWitness(
        label=artT.label,
        neg_cmreg=neg_cm,
        as_regular_ok=verdict.status == "yes",
        finite_ok=cert.finite,
        koszul_ok=koszul_ok,
    )

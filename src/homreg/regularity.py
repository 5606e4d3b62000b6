"""Numerical regularity invariants, verdicts and reports.

Every reported number carries a qualifier: Exact values come with a
termination or rational-form certificate, AtLeast values are witnessed by
nonzero entries inside the truncation window, and Unknown absorbs
everything else.  Hypotheses the tool cannot decide (noetherianity,
dualizing-complex conditions, Cohen-Macaulayness) are carried as explicit
assertion strings and surface in every report that uses them.
"""

from __future__ import annotations

from .corealg import (
    LETTERS,
    AlgebraPresentation,
    CertificationError,
    NEG_INF,
    Poly,
    Record,
    opposite_presentation,
)
from .linalg import Echelon, reduced_form
from . import gbasis as gb_mod
from . import resolution as res_mod
from . import series as series_mod

DEFAULT_I_MAX = 8
DEFAULT_D_MAX = 12
DEFAULT_D_GB = 12

DUALIZING_ASSERTION = "dualizing-complex hypotheses: user assertion (not machine-checkable)"
NOETHERIAN_ASSERTION = "noetherian: user assertion"


# ---------------------------------------------------------------------------
# bounded values


class BoundedValue(Record):
    """An integer invariant with a truncation-aware qualifier."""

    kind: str  # "exact" | "at_least" | "unknown"
    value: object
    note: str = ""

    @staticmethod
    def exact(v, note=""):
        return BoundedValue("exact", v, note)

    @staticmethod
    def at_least(v, note=""):
        return BoundedValue("at_least", v, note)

    @staticmethod
    def unknown(note=""):
        return BoundedValue("unknown", None, note)

    @property
    def is_exact(self):
        return self.kind == "exact"

    def add(self, other, note=""):
        """Sum with qualifier propagation; Unknown absorbs, AtLeast persists."""
        if self.kind == "unknown" or other.kind == "unknown":
            return BoundedValue.unknown(note)
        kind = "exact" if self.kind == other.kind == "exact" else "at_least"
        return BoundedValue(kind, self.value + other.value, note)

    def equals(self, other):
        """Whether the value is `other`, an int or a BoundedValue: `at_most` both
        ways, so True only on equal exact values, False once one way is False."""
        if not isinstance(other, BoundedValue):
            other = BoundedValue.exact(other)
        both = (self.at_most(other), other.at_most(self))
        return False if False in both else None if None in both else True

    def at_most(self, other):
        """Whether the value is at most `other`'s: True when an exact value is at
        most the other's exact value or lower bound, False when a value or lower
        bound exceeds the other's exact value, else None."""
        if "unknown" in (self.kind, other.kind):
            return None
        if self.is_exact and self.value <= other.value:
            return True
        return False if other.is_exact and self.value > other.value else None

    def negated(self):
        """The negative of an exact value; a lower bound bounds nothing from below."""
        return BoundedValue.exact(-self.value) if self.is_exact else BoundedValue.unknown()

    def __str__(self):
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at_least":
            return ">=%s" % self.value
        return "unknown"

    def record(self):
        return {"kind": self.kind, "value": self.value, "note": self.note}


class KoszulVerdict(Record):
    status: str  # "yes" | "no" | "unknown"
    caveat: str = ""
    witness: object = None

    def text(self):
        if self.status == "yes":
            return "yes" + (" (%s)" % self.caveat if self.caveat else "")
        if self.status == "no":
            return "no (beta_%d,%d != 0)" % self.witness if self.witness else "no"
        return "unknown to bound"


class ASRegularVerdict(Record):
    status: str  # "yes" | "no" | "unknown"
    dim: object = None
    index: object = None
    reason: str = ""

    def text(self):
        if self.status == "yes":
            return "yes, type (%d, %d)" % (self.dim, self.index)
        if self.status == "no":
            return "no (%s)" % self.reason
        return "unknown to bound"


# ---------------------------------------------------------------------------
# artifacts: everything computed about one algebra presentation


class AlgebraArtifacts:
    """Lazy bundle of the computable artifacts of one presentation.

    Construction operations (tensor products, quotients) may pre-populate
    evidence slots: a known Hilbert series, a known Betti table with its
    provenance, an evidence-based Torreg value or upper bound, and a CMreg
    value with the name of its case.  Reports consume these with full
    provenance.

    Groebner bases are computed in this process, never read from disk:
    `cache_dir` is accepted only as None, for callers that still pass it.
    """

    def __init__(self, presentation, i_max=DEFAULT_I_MAX, d_max=DEFAULT_D_MAX,
                 d_gb=DEFAULT_D_GB, *, element_limit=gb_mod.DEFAULT_ELEMENT_LIMIT, cache_dir=None):
        if cache_dir is not None:
            raise TypeError("AlgebraArtifacts keeps no Groebner-basis cache: cache_dir must be None")
        self.presentation = presentation
        self.i_max = i_max
        self.d_max = d_max
        self.d_gb = d_gb
        self.element_limit = element_limit
        self.label = presentation.label or "algebra"
        # evidence slots, populated by constructions
        self.known_hilbert = None
        self.known_betti_k = None
        self.betti_provenance = "direct"
        self.torreg_known = None
        self.torreg_upper = None  # (value, note)
        self.cmreg_known = None  # (value, case)
        self.cm_degree_hint = None  # asserted Cohen-Macaulay degree s
        self.as_gorenstein_hint = None  # ((d, l), note)
        self.assertions = []
        # caches
        self._gb = None
        self._hilbert = None
        self._res_k = None
        self._betti_k = None
        self._ext_k = None
        self._opposite = None
        self._verdict = None

    # -- base artifacts -----------------------------------------------------

    def gb(self):
        if self._gb is None:
            self._gb = gb_mod.groebner(self.presentation, self.d_gb, self.element_limit)
        return self._gb

    def hilbert_or_none(self):
        """Exact rational Hilbert series, or None when not certified."""
        if self.known_hilbert is not None:
            return self.known_hilbert
        if self._hilbert is None:
            G = self.gb()
            self._hilbert = series_mod.hilbert_rational(G) if G.complete else False
        return self._hilbert or None

    def hilbert(self):
        h = self.hilbert_or_none()
        if h is None:
            raise CertificationError(
                "no exact rational Hilbert series for %s (incomplete Groebner basis)" % self.label
            )
        return h

    def resolution_k(self):
        if self._res_k is None:
            G, h = self.gb(), self.hilbert_or_none()
            if res_mod.monomial_basis(G):  # no elimination: the chains are the resolution
                self._res_k = res_mod.anick_resolution(G, self.i_max, self.d_max, h, self.label)
            else:
                k = res_mod.trivial_module(self.presentation)
                self._res_k = res_mod.minimal_resolution(G, k, self.i_max, self.d_max, h, self.label)
        return self._res_k

    def betti_k(self):
        """A construction's known table of k (a tensor product's Kunneth
        table), else the table of the resolution of k."""
        if self.known_betti_k is not None:
            return self.known_betti_k
        if self._betti_k is None:
            self._betti_k = res_mod.betti_table(self.resolution_k())
        return self._betti_k

    def ext_k(self):
        if self._ext_k is None:
            self._ext_k = res_mod.ext_into_algebra(self.resolution_k(), self.gb())
        return self._ext_k

    def opposite(self):
        if self._opposite is None:
            self._opposite = AlgebraArtifacts(
                opposite_presentation(self.presentation),
                self.i_max,
                self.d_max,
                self.d_gb,
                element_limit=self.element_limit,
            )
        return self._opposite

    # -- resolved invariants --------------------------------------------------

    def resolve_torreg(self):
        """Torreg(k) merging the window lower bound with any certified upper bound."""
        if self.torreg_known is not None:
            return self.torreg_known
        bv = tor_regularity(self.betti_k())
        if bv.kind == "at_least" and self.torreg_upper is not None:
            u, unote = self.torreg_upper
            if bv.value > u:
                raise CertificationError(
                    "internal inconsistency: witnessed Torreg %d exceeds certified upper bound %d (%s)"
                    % (bv.value, u, unote)
                )
            if bv.value == u:
                return BoundedValue.exact(u, "window lower bound meets upper bound: " + unote)
            return BoundedValue.at_least(bv.value, "%s; upper bound %d (%s)" % (bv.note, u, unote))
        return bv

    def torreg_upper_bound(self):
        """A certified upper bound on Torreg(k) as (value, note): the exact value
        with note None, else the stored `torreg_upper`, else None."""
        torreg = self.resolve_torreg()
        return (torreg.value, None) if torreg.is_exact else self.torreg_upper

    def resolve_cmreg(self, allow_as_regular=True):
        """(CMreg, case) by the first special case that applies; case None
        with an unknown value when none does.

        A construction's stored value (normal_quotient: parent + deg Omega
        - 1; tensor_additive: sum over the factors) comes first, then
        as_regular (d - l for AS type (d, l)), finite_dimensional (the top
        degree) and cm_asserted (s + deg h for an asserted CM degree s).
        An asserted s that the as_regular or finite_dimensional value
        contradicts, s + deg h != CMreg, is a CertificationError.
        """
        if self.cmreg_known is not None:
            return self.cmreg_known
        v = self.as_regular_verdict() if allow_as_regular else None
        h = self.hilbert_or_none()
        s = self.cm_degree_hint
        if v is not None and v.status == "yes":
            note = "CMreg = d - l for AS type (%d, %d)" % (v.dim, v.index)
            cm, case = BoundedValue.exact(v.dim - v.index, note), "as_regular"
        elif h is not None and h.is_polynomial():
            note = "CMreg = top degree (finite-dimensional)"
            cm, case = BoundedValue.exact(h.degree, note), "finite_dimensional"
        elif s is not None and h is not None:
            note = "CMreg = s + deg h with s = %d (user-asserted Cohen-Macaulay degree)" % s
            return BoundedValue.exact(s + h.degree, note), "cm_asserted"
        else:
            return BoundedValue.unknown("no applicable CM-regularity evidence case"), None
        if s is not None and h is not None and s + h.degree != cm.value:
            raise CertificationError(
                "asserted Cohen-Macaulay degree %d contradicts CMreg = %d [%s] of %s: "
                "s + deg h = CMreg with deg h = %d needs s = %d"
                % (s, cm.value, case, self.label, h.degree, cm.value - h.degree)
            )
        return cm, case

    def as_regular_verdict(self):
        if self._verdict is None:
            self._verdict = as_regular_verdict(self)
        return self._verdict

    def report(self):
        return build_report(self)


# ---------------------------------------------------------------------------
# core invariant operations


def tor_regularity(table):
    """sup (j - i) over certified Betti entries; Exact only on termination."""
    if not table.entries:
        return BoundedValue.unknown("empty Betti table")
    v = max(j - i for (i, j) in table.entries)
    if table.terminated:
        return BoundedValue.exact(
            v, "resolution terminated at step %s" % table.termination_step
        )
    return BoundedValue.at_least(v, "window (i<=%d, j<=%d)" % (table.i_max, table.d_max))


def koszul_verdict(table, torreg):
    """Linearity of the resolution of k, with an explicit window caveat;
    an exact Torreg(k) of 0 is Koszul, a positive one is not."""
    if torreg.is_exact and torreg.value == 0:
        return KoszulVerdict("yes", caveat="Torreg(k) = 0 certified")
    off = sorted((i, j) for (i, j) in table.entries if j != i)
    if off:
        return KoszulVerdict("no", witness=off[0])
    if torreg.is_exact and torreg.value > 0:
        return KoszulVerdict("no", caveat="Torreg(k) > 0 certified")
    if table.terminated:
        return KoszulVerdict("yes")
    if table.steps_computed >= 1:
        return KoszulVerdict(
            "yes", caveat="linear through window (i<=%d, j<=%d)" % (table.i_max, table.d_max)
        )
    return KoszulVerdict("unknown")


def as_regularity(torreg_k, cmreg):
    """Numerical AS regularity Torreg(k) + CMreg with qualifier propagation."""
    return torreg_k.add(cmreg, "Torreg(k) + CMreg")


def as_regular_verdict(art):
    """Certificate-backed AS-regularity verdict.

    Yes: the resolution P of k terminates at step d, its table is AS
    symmetric with top shift l, and Ext^i(k, A) is zero on its window for
    every i < d: type (d, l).  Termination is "euler-exact", so H_A P(t) = 1
    for P(t) = sum (-1)^i beta_{i,j} t^j; with P(1/t) = (-1)^d t^-l P(t),
    Hom(P, A) has Euler characteristic (-1)^d delta_{j,-l} in degree j, so
    Ext^d(k, A) is k in degree -l on its window and is not read.  The right
    side needs no second resolution (T. Levasseur, Glasgow Math. J. 34, 1992):
      * P* = Hom_A(P, A), read backwards, is a minimal free resolution of
        k_A(l), because its entries are transposes of entries in A_{>=1};
      * so the right resolution also terminates at d, Betti table mirrored;
      * by P** = P, Ext^i(k_A, A) = H_{d-i}(P): k at i = d, 0 elsewhere.
    The "yes" is exactly as strong as the left termination certificate.
    Tor(k, k) is the same from either side, so the table is its mirror:
    one generator at step d, in degree l, and beta_{i,j} = beta_{d-i,l-j}.
    No: a terminated table breaks that (no Ext is read), a lower Ext is
    nonzero in its window, ASreg >= 1, or the basis is complete and the
    reduced numerator N of H_A is not 1: a finite resolution of k has
    finitely generated terms (Anick's chains), so N P = D, and gcd(N, D) = 1
    forces N = 1.  Else: unknown.
    A certified Koszul algebra is decided by its Koszul dual instead of
    Ext (`_koszul_dual_verdict`), in all degrees either way.
    """
    if art.known_betti_k is None:
        res = art.resolution_k()
        if res.terminated:
            d = res.termination_step
            if asymmetry := _betti_asymmetry(art.betti_k().entries, d):
                return ASRegularVerdict("no", reason=asymmetry)
            if (dual := _koszul_dual_verdict(art, d)) is not None:
                return dual
            off = sorted(i for (i, _) in art.ext_k().entries if i != d)
            if off:
                return ASRegularVerdict(
                    "no", reason="Ext^%d(k, A) is nonzero away from the top step %d" % (off[0], d)
                )
            return ASRegularVerdict("yes", dim=d, index=art.betti_k().t(d))
    # numerical route: ASreg >= 1 certified excludes AS regularity
    torreg = art.resolve_torreg()
    cmreg, _ = art.resolve_cmreg(allow_as_regular=False)
    if cmreg.is_exact and torreg.kind in ("exact", "at_least"):
        low = torreg.value + cmreg.value
        if low >= 1:
            return ASRegularVerdict("no", reason="numerical AS regularity >= %d > 0" % low)
    if art.known_betti_k is None and art.gb().complete:
        if (numerator := art.hilbert().numerator) != (1,):
            reason = "the Hilbert series numerator %s is not 1, so gldim = ∞"
            return ASRegularVerdict("no", reason=reason % series_mod.format_poly(numerator))
    return ASRegularVerdict("unknown", reason="window too small")


def _koszul_dual_verdict(art, d):
    """The verdict for a Koszul A from its dual A^! = T(V*)/(R^perp), else None.

    A Koszul algebra is AS regular iff A^! is Frobenius (S. P. Smith, CMS
    Conf. Proc. 19, 1996; D.-M. Lu, J. H. Palmieri, Q.-S. Wu and J. J.
    Zhang, J. Pure Appl. Algebra 213, 2009), so both answers hold in all
    degrees.  It applies to a terminated AS-symmetric table of degree-1
    generators on j = i with beta_{1,1} = n: then I_1 = 0, A is Koszul,
    and R = I_2 is spanned by the degree-2 basis elements.  R^perp is for
    <xi_a xi_b, x_c x_d> = delta_ac delta_bd; the other convention gives
    the opposite of A^!, Frobenius exactly when A^! is.  By Koszul duality
    dim A^!_i = beta_{i,i} (else CertificationError), so A^!_d is one word,
    and A^! is Frobenius iff every A^!_i x A^!_{d-i} -> A^!_d is nondegenerate.
    """
    pres, entries = art.presentation, art.betti_k().entries
    n, field = pres.n_gens, pres.field
    if set(pres.gen_degs) - {1} or any(i != j for i, j in entries) or entries.get((1, 1), 0) != n:
        return None
    rows = [{w[0] * n + w[1]: c for w, c in g.terms.items()} for g in art.gb().elements if g.degree == 2]
    perp = reduced_form(Echelon(field, rows), n * n)[2].values()
    words = [LETTERS[a] + LETTERS[b] for a in range(n) for b in range(n)]
    rels = tuple(Poly({words[k]: c for k, c in v.items()}, 2, field.modulus) for v in perp)
    dual = AlgebraPresentation(field, pres.gen_names, pres.gen_degs, rels)
    D = gb_mod.groebner(dual, max(d, 2), art.element_limit)
    if [D.dim(i) for i in range(d + 1)] != [entries.get((i, i), 0) for i in range(d + 1)]:
        raise CertificationError("the Koszul dual of %s is not of the dimensions beta_{i,i}" % art.label)
    (top,) = D.normal_words(d)
    for i in range(d + 1):
        right = D.normal_words(d - i)
        pairing = [{k: c for k, v in enumerate(right) for w, c in D.nf_word(u + v) if w == top}
                   for u in D.normal_words(i)]
        if Echelon(field, pairing).rank < len(pairing):
            reason = "the pairing A^!_%d × A^!_%d → A^!_%d of the Koszul dual is degenerate"
            return ASRegularVerdict("no", reason=reason % (i, d - i, d))
    return ASRegularVerdict("yes", dim=d, index=d)


def _betti_asymmetry(entries, d):
    """What breaks the AS symmetry of a table ending at step d, as text (all top entries if many), or None."""
    top = sorted((j, r) for (i, j), r in entries.items() if i == d)
    if len(top) > 1:
        named = ", ".join("β_{%d,%d} = %d" % (d, j, r) for j, r in top)
        return "%s: %d generators at the top step d = %d" % (named, sum(r for _, r in top), d)
    [(l, r)] = top
    if r != 1:
        return "β_{%d,%d} = %d at the top step d = %d" % (d, l, r, d)
    for (i, j), r in sorted(entries.items()):
        mirror = entries.get((d - i, l - j), 0)
        if r != mirror:
            return "β_{%d,%d} = %d but β_{%d,%d} = %d" % (i, j, r, d - i, l - j, mirror)
    return None


# ---------------------------------------------------------------------------
# Hilbert-series criterion


class HilbertCriterionResult(Record):
    verdict: str  # "yes" | "no"
    h_degree: int
    s: int
    assertions: tuple
    witness_notes: tuple


def hilbert_criterion(art, s, witnesses=()):
    """AS regularity via deg h_A = -s, under explicitly recorded hypotheses.

    `witnesses` may supply candidate finite maps from Koszul AS regular
    algebras; each is annotated with whether its certificates actually
    support the criterion's hypotheses.
    """
    h = art.hilbert_or_none()
    if h is None:
        raise CertificationError("Hilbert-series criterion needs an exact rational form")
    assertions = [
        "Cohen-Macaulay of degree s = %d: user assertion" % s,
        NOETHERIAN_ASSERTION,
        "existence of a finite map from a Koszul AS regular algebra: hypothesis",
    ]
    notes = []
    qualified = 0
    for w in witnesses:
        ok = w.as_regular_ok and w.finite_ok and w.koszul_ok
        notes.append(
            "%s: AS regular %s, finite %s, Koszul %s -> %s"
            % (
                w.label,
                "yes" if w.as_regular_ok else "no/unknown",
                "yes" if w.finite_ok else "no/unknown",
                "yes" if w.koszul_ok else "no/unknown",
                "qualifies" if ok else "does NOT satisfy the hypotheses",
            )
        )
        qualified += ok
    if witnesses and not qualified:
        notes.append("no supplied witness satisfies the hypotheses; the verdict is conditional")
    verdict = "yes" if h.degree == -s else "no"
    return HilbertCriterionResult(verdict, h.degree, s, tuple(assertions), tuple(notes))


# ---------------------------------------------------------------------------
# concavity


class ConcavityWitness(Record):
    """A certified finite map from an AS regular algebra.

    `neg_cmreg` is -CMreg(T) = Torreg of T's trivial module; the flags
    record the certificates gathered by the constructions layer.
    """

    label: str
    neg_cmreg: int
    as_regular_ok: bool
    finite_ok: bool
    koszul_ok: bool = False


class ConcavityBound(Record):
    upper: BoundedValue
    exact: bool
    c_minus: BoundedValue
    witnesses: tuple
    notes: tuple

    @property
    def value(self):
        """The concavity itself: the bound when it is exact, else unknown."""
        return self.upper if self.exact else BoundedValue.unknown()

    def text(self):
        c = self.upper if self.exact or self.upper.kind == "unknown" else "<= %s" % self.upper
        return "c = %s, c_minus = %s" % (c, self.c_minus)


def concavity_certificate(art, witnesses=()):
    """Upper bound on the concavity, with exactness certificates.

    Exactness routes: the algebra is itself AS regular (identity witness);
    the bound is 0 (concavity is nonnegative by definition); or the gap to
    the normalized lower bound is closed by the regularity dichotomy
    (normalized concavity 0 forces AS regularity, so a certified
    non-AS-regular algebra with bound gap 1 sits at the top).
    """
    usable = [w for w in witnesses if w.as_regular_ok and w.finite_ok]
    notes = []
    cmreg, _ = art.resolve_cmreg()
    verdict = art.as_regular_verdict()
    if verdict.status == "yes":
        own = -(verdict.dim - verdict.index)
        usable.append(ConcavityWitness(art.label + " (identity)", own, True, True))
        notes.append("algebra is AS regular: c = -CMreg exactly (identity witness)")
    if not usable:
        return ConcavityBound(
            BoundedValue.unknown("no certified witness"), False,
            BoundedValue.at_least(0, "normalized concavity is nonnegative"),
            (), ("no witness passed both certificates",),
        )
    upper = min(w.neg_cmreg for w in usable)
    exact = False
    if verdict.status == "yes":
        exact = True
    elif upper == 0:
        exact = True
        notes.append("bound 0 is exact: concavity is nonnegative by definition")
    elif cmreg.is_exact:
        lower = -cmreg.value
        if upper == lower:
            exact = True
            notes.append("upper bound meets the normalized lower bound -CMreg")
        elif upper == lower + 1 and verdict.status == "no":
            exact = True
            notes.append(
                "gap-one dichotomy: normalized concavity 0 would force AS regularity, "
                "which is excluded (%s)" % verdict.reason
            )
    if exact and cmreg.is_exact:
        c_minus = BoundedValue.exact(upper + cmreg.value, "c + CMreg")
    elif cmreg.is_exact:
        c_minus = BoundedValue.at_least(0, "normalized concavity is nonnegative")
    else:
        c_minus = BoundedValue.unknown("CMreg not exact")
    witness_names = ", ".join(w.label for w in usable)
    upper_bv = BoundedValue.exact(upper, "min over certified witnesses: %s" % witness_names)
    return ConcavityBound(upper_bv, exact, c_minus, tuple(usable), tuple(notes))


# ---------------------------------------------------------------------------
# invariant-subring obstruction


class ObstructionVerdict(Record):
    status: str  # "obstructed" | "no conclusion"
    inequality: str
    beta1: object
    beta2: object
    notes: tuple = ()

    def text(self):
        return "%s: %s" % (self.status, self.inequality)


def invariant_ring_obstruction(art, cbound, cmreg_T_range=None):
    """Generator/relation-degree lower bounds on the concavity of invariant rings.

    When the certified concavity falls below beta_1 - 1, the algebra cannot
    be an invariant subring of a semisimple Hopf action on an AS regular
    algebra.  The relation-degree test runs against a user-supplied range
    of candidate CMreg(T) values.
    """
    table = art.betti_k()
    beta1 = table.t(1)
    beta2 = table.t(2)
    if not cbound.exact:
        return ObstructionVerdict(
            "no conclusion", "concavity bound is not exact", beta1, beta2
        )
    c = cbound.upper.value
    if beta1 is not NEG_INF and c < beta1 - 1:
        return ObstructionVerdict(
            "obstructed",
            "c = %d < %d = beta_1 - 1" % (c, beta1 - 1),
            beta1,
            beta2,
            ("not an invariant subring of a semisimple Hopf action on an AS regular algebra",),
        )
    notes = []
    if cmreg_T_range is not None and beta2 is not NEG_INF:
        violated_all = True
        for cm_T in cmreg_T_range:
            # c >= min(beta2/2 - cm_T, (beta2 - cm_T - 1)/2, beta2 - 2), doubled
            if 2 * c >= min(beta2 - 2 * cm_T, beta2 - cm_T - 1, 2 * beta2 - 4):
                violated_all = False
        if violated_all:
            return ObstructionVerdict(
                "obstructed",
                "c = %d violates the relation-degree bound for every CMreg(T) in %s"
                % (c, list(cmreg_T_range)),
                beta1,
                beta2,
            )
        notes.append("relation-degree test inconclusive on the supplied CMreg(T) range")
    elif cmreg_T_range is not None and not table.terminated and table.steps_computed < 2:
        # beta_2 reads NEG_INF both for an empty step 2 and for one never computed
        notes.append(
            "relation-degree test not run: step 2 of the resolution of k is undecided "
            "in the window (i<=%d, j<=%d)" % (table.i_max, table.d_max)
        )
    return ObstructionVerdict(
        "no conclusion", "c = %d >= beta_1 - 1 = %d" % (c, (beta1 - 1) if beta1 is not NEG_INF else 0),
        beta1, beta2, tuple(notes),
    )


# ---------------------------------------------------------------------------
# pairs and report assembly


def ta_tc_pairs(report):
    """((Torreg k, ASreg), (Torreg k, CMreg)); validates CMreg >= -Torreg."""
    ta = (report.torreg_k, report.asreg)
    tc = (report.torreg_k, report.cmreg)
    if report.torreg_k.is_exact and report.cmreg.is_exact:
        if report.cmreg.value < -report.torreg_k.value:
            raise CertificationError(
                "internal inconsistency: CMreg < -Torreg(k) on exact values"
            )
    return ta, tc


class RegularityReport(Record):
    label: str
    window: tuple  # (i_max, d_max, d_gb)
    torreg_k: BoundedValue
    cmreg: BoundedValue
    cm_evidence: object  # the name of the CMreg case, or None
    asreg: BoundedValue
    koszul: KoszulVerdict
    as_regular: ASRegularVerdict
    gldim: BoundedValue
    as_index: BoundedValue
    stanley: object
    betti_provenance: str
    annotations: tuple
    assertions: tuple

    def records(self):
        out = []

        def rec(name, kind, value, evidence):
            out.append(
                {
                    "invariant": name,
                    "kind": kind,
                    "value": value,
                    "window": list(self.window),
                    "evidence": evidence,
                    "assertions": list(self.assertions),
                }
            )

        rec("torreg_k", self.torreg_k.kind, self.torreg_k.value, self.torreg_k.note)
        rec("cmreg", self.cmreg.kind, self.cmreg.value, self.cm_evidence or "none")
        for name in ("asreg", "gldim", "as_index"):
            bv = getattr(self, name)
            rec(name, bv.kind, bv.value, bv.note)
        rec("koszul", "verdict", self.koszul.status, self.koszul.caveat)
        v = self.as_regular
        rec("as_regular", "verdict", v.status,
            v.reason or ("type (%s, %s)" % (v.dim, v.index) if v.status == "yes" else ""))
        if self.stanley is not None:
            rec("stanley", "verdict", self.stanley.text(),
                "functional equation on the exact rational form")
        return out

    def to_text(self):
        lines = ["regularity report: %s" % self.label]
        lines.append("  window: i_max=%d d_max=%d d_gb=%d" % self.window)
        lines.append("  Torreg(k) : %s" % self.torreg_k)
        lines.append("  CMreg     : %s  [%s]" % (self.cmreg, self.cm_evidence or "no evidence"))
        lines.append("  ASreg     : %s" % self.asreg)
        lines.append("  Koszul    : %s" % self.koszul.text())
        lines.append("  AS regular: %s" % self.as_regular.text())
        lines.append("  gldim     : %s" % self.gldim)
        lines.append("  AS index  : %s" % self.as_index)
        lines.append("  ta pair   : (%s, %s)" % (self.torreg_k, self.asreg))
        lines.append("  tc pair   : (%s, %s)" % (self.torreg_k, self.cmreg))
        if self.stanley is not None:
            lines.append("  Stanley   : %s" % self.stanley.text())
        lines.append(
            "  note      : Ext-regularity equals Tor-regularity for finitely generated modules"
        )
        lines.append("  betti via : %s" % self.betti_provenance)
        for a in self.annotations:
            lines.append("  annotation: %s" % a)
        for a in self.assertions:
            lines.append("  assertion : %s" % a)
        return "\n".join(lines)


def _growth_annotation(table):
    """Note when t_i - i is nondecreasing and increasing across the window."""
    ts = []
    for i in range(table.steps_computed + 1):
        t = table.t(i)
        if t is NEG_INF:
            return None
        ts.append(t - i)
    if len(ts) < 3 or table.terminated:
        return None
    nondecreasing = all(a <= b for a, b in zip(ts, ts[1:]))
    increasing = ts[-1] > ts[0]
    if nondecreasing and increasing:
        return (
            "growth: t_i - i is nondecreasing and increases across the window "
            "(consistent with an infinite value; never promoted)"
        )
    return None


def build_report(art):
    torreg = art.resolve_torreg()
    cmreg, cm_evidence = art.resolve_cmreg()
    asreg = as_regularity(torreg, cmreg)
    table = art.betti_k()
    koszul = koszul_verdict(table, torreg)
    verdict = art.as_regular_verdict()
    if art.known_betti_k is not None:
        note = art.betti_provenance
    elif table.terminated:
        note = "resolution of k terminated (%s)" % art.resolution_k().certificate
    else:
        note = "window i<=%d" % art.i_max
    if table.terminated:
        gldim = BoundedValue.exact(table.termination_step, note)
    else:
        gldim = BoundedValue.at_least(table.steps_computed, note)
    as_index = (
        BoundedValue.exact(verdict.index, "from the Ext table")
        if verdict.status == "yes"
        else BoundedValue.unknown("not certified AS regular")
    )
    h = art.hilbert_or_none()
    stanley = series_mod.stanley_check(h) if h is not None else None
    annotations = []
    growth = _growth_annotation(table) if not torreg.is_exact else None
    if growth:
        annotations.append(growth)
    if h is not None and h.denom_exponents is not None and not h.is_polynomial():
        annotations.append(
            "series pole order %d at t=1 (finite growth annotation only)"
            % sum(1 for _ in h.denom_exponents)
        )
    if art.as_gorenstein_hint is not None:
        (d, l), why = art.as_gorenstein_hint
        annotations.append("AS-Gorenstein of type (%d, %d): %s" % (d, l, why))
    assertions = list(art.assertions)
    if art.cm_degree_hint is not None:  # not inherited: a derived algebra has its own degree
        assertions.append("Cohen-Macaulay of degree %d: asserted on the command line" % art.cm_degree_hint)
    assertions = list(dict.fromkeys(assertions + [NOETHERIAN_ASSERTION, DUALIZING_ASSERTION]))
    report = RegularityReport(
        label=art.label,
        window=(art.i_max, art.d_max, art.d_gb),
        torreg_k=torreg,
        cmreg=cmreg,
        cm_evidence=cm_evidence,
        asreg=asreg,
        koszul=koszul,
        as_regular=verdict,
        gldim=gldim,
        as_index=as_index,
        stanley=stanley,
        betti_provenance=art.betti_provenance,
        annotations=tuple(annotations),
        assertions=tuple(assertions),
    )
    ta_tc_pairs(report)  # validates the tc constraint
    return report


# ---------------------------------------------------------------------------
# inequality harness


class HarnessCase(Record):
    """One check as a three-valued fact: `holds` is True, False or None (undecided)."""

    name: str
    holds: object
    detail: str = ""


class HarnessResult(Record):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


def inequality_harness(cases):
    """Map each case's fact to pass (True), fail (False) or skip (None).

    A case holds when the certified data proves it, fails when the data
    certifies a violation, and is skipped when the window cannot settle it;
    a skip's detail starts with "undecided in the window".  Certified
    failures falsify the implementation, not the statements being checked.
    """
    results = []
    for case in cases:
        if case.holds is None:
            detail = "undecided in the window%s" % ((" | " + case.detail) if case.detail else "")
            results.append(HarnessResult(case.name, "skip", detail))
        else:
            results.append(HarnessResult(case.name, "pass" if case.holds else "fail", case.detail))
    return results

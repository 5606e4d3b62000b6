"""Degree-truncated reduced two-sided Groebner bases in the free algebra.

Completion is overlap-based (diamond lemma style) and processed strictly
by increasing degree; since the ideal is homogeneous, an obstruction at
degree d can only produce new elements of degree d, so the set of basis
elements below the current degree is final when that degree is reached.
A basis is Complete when every overlap word among the final elements has
degree <= D_gb and every S-polynomial reduced to zero or was skipped by
the chain criterion: all overlaps of elements of maximal degree m live in
degrees < 2m, so nothing can appear later.  Otherwise the basis is
certified only up to D_gb.

Chain criterion (G. Bergman, Adv. Math. 29, 1978, resolvability relative
to the order; T. Mora, Theoret. Comput. Sci. 134, 1994): the overlap of
g_i, g_j on w = u_i c = a u_j is skipped unreduced if w[1:-1] contains a
leading word u_k, checked when it is popped (u_k is of lower degree, so
final by then).  Leads are inter-reduced, so that u_k overlaps u_i in a
proper factor of w or is disjoint from it, and likewise for u_j; then
s_ij = (g_i c - x g_k y) + (x g_k y - a g_j) is a sum of shifted S-polys
of lower degree or of disjoint pairs, all in the ideal part below w.

Work is shared within a degree, as in F4's symbolic preprocessing
(J.-C. Faugere, J. Pure Appl. Algebra 139, 1999).  Every generator has
degree >= 1 and obstructions are popped in nondecreasing degree, so while
degree d is completed a leading word of degree d is a factor of a
degree-d word only if it is that word, and the chain criterion's w[1:-1]
has degree <= d - 2.  The automaton therefore holds only the leading
words below d, which are final, and is rebuilt when a higher degree is
reached.  Each degree-d word that a reduction pops gets its reducer row
(the reducing element's tail placed at the word's position, or
"normal") once per degree, and the other reductions of that degree reuse
it.  A row stays valid through the degree: the first factor of a word
among the final lower-degree leading words cannot change, and a new
degree-d leading word u was normal when it was found, so the only row it
makes stale is u's own.  Adding u replaces that row by u's form, which
is also how a word equal to a leading word of the current degree finds
its element without the automaton.

Completion runs on integer forms only, and `groebner` returns the basis
it grew, so no form is ever recomputed from a polynomial.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .corealg import (
    LETTERS,
    CertificationError,
    Poly,
    PresentationError,
    ResourceLimitError,
)

DEFAULT_ELEMENT_LIMIT = 2000  # Groebner completion budget: basis elements before ResourceLimitError


class WordAutomaton:
    """Aho-Corasick automaton over the inter-reduced leading words of a basis.

    States are the proper prefixes of `leads` in (len, word) order; state 0
    is the empty word.  `delta[s][a]` is the state of the longest suffix of
    states[s] + LETTERS[a] that is a state, or ~i when that word ends in
    leads[i].  Reading a word from state 0 therefore stays on the longest
    suffix read so far that is a state, and the first negative entry marks
    the leading-word factor that ends leftmost.  The paths from state 0
    that avoid negative entries spell exactly the normal words.

    The table is built breadth first (A. Aho and M. Corasick, CACM 18,
    1975), with O(1) dict lookups per entry: states[s] + LETTERS[a] is a
    state, a leading word, or else moves where the failure state of s (its
    longest proper suffix that is a state) moves on a.  Since no leading
    word is a factor of another, no state ends in a leading word, so the
    failure state of the state w + LETTERS[a] is delta[failure state of
    w][a] >= 0.
    """

    def __init__(self, leads, gen_degs):
        self.leads = leads
        self.gen_degs = gen_degs
        prefixes = {b""} | {u[:k] for u in leads for k in range(1, len(u))}
        self.states = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
        index = {w: i for i, w in enumerate(self.states)}
        ends = {u: ~i for i, u in enumerate(leads)}
        fail = [0] * len(self.states)
        delta = []
        for s, w in enumerate(self.states):
            back = delta[fail[s]] if s else (0,) * len(gen_degs)
            row = []
            for a, f in enumerate(back):
                v = w + LETTERS[a]
                t = index.get(v)
                if t is None:
                    t = ends.get(v, f)
                else:
                    fail[t] = f
                row.append(t)
            delta.append(tuple(row))
        self.delta = tuple(delta)

    def find(self, word):
        """(pos, i) of the first factor of `word` equal to leads[i], or None.

        "First" is by end position.  Leading words of a reduced basis are
        inter-reduced (none is a factor of another), so this is also the
        factor that starts leftmost.
        """
        delta = self.delta
        s = 0
        for end, a in enumerate(word, 1):
            s = delta[s][a]
            if s < 0:
                return end - len(self.leads[~s]), ~s
        return None

    def dims(self, upto, rows=None):
        """Weighted path counts from state 0: dim A_d for d = 0..upto.

        `rows[d][s]` counts the degree-d paths that end in state s.  Rows
        kept from an earlier call are extended in place, so only the degrees
        above them are counted."""
        degs = self.gen_degs
        rows = [] if rows is None else rows
        for d in range(len(rows), upto + 1):
            row = [0] * len(self.states)
            row[0] = int(d == 0)  # the empty path
            for s0, targets in enumerate(self.delta):
                for a, s1 in enumerate(targets):
                    if s1 >= 0 and degs[a] <= d:
                        c = rows[d - degs[a]][s0]
                        if c:
                            row[s1] += c
            rows.append(row)
        return [sum(row) for row in rows[: upto + 1]]


class GroebnerBasis:
    """A reduced (possibly degree-truncated) two-sided Groebner basis.

    Reduction runs on plain integers.  Each element g has an integer form
    (L, words, coeffs): g times a nonzero scalar, split into its lead
    coefficient L and its other terms (parallel tuples, which take less
    memory than pairs).  Over Q the scalar clears the denominators and
    removes the content (so L > 0); over F_p the coefficients are
    representatives mod p and g is monic, so L = 1.  `_leads[i]` is the
    leading word of `_forms[i]`.  `groebner` appends the elements in the
    order they are found, then `_finish` sorts them and sets `elements`.
    """

    def __init__(self, presentation, d_gb):
        self.presentation = presentation
        self.modulus = presentation.field.modulus
        self.d_gb = d_gb
        self.complete = False
        self.elements = ()
        self._leads, self._forms = [], []
        self.automaton = WordAutomaton((), presentation.gen_degs)
        self._normal_words, self._nf_words, self._dims, self._rows = {}, {}, (), []

    def check_degree(self, d, what="computation"):
        if not self.complete and d > self.d_gb:
            raise CertificationError(
                "%s at degree %d exceeds the certified range (basis complete only up to %d)"
                % (what, d, self.d_gb)
            )

    def _finish(self, complete):
        """Sort the elements by leading word and build the automaton over them
        in that order, so `find`'s index names `elements[i]`; tail-reduce each
        form in place (a normal form is unique, so the reducers' tails do not
        matter) and read `elements` off the reduced forms."""
        pres, p = self.presentation, self.modulus
        pairs = sorted(zip(self._leads, self._forms), key=lambda pair: pres.word_key(pair[0]))
        self._leads = [u for u, _ in pairs]
        self._forms = forms = [form for _, form in pairs]
        self.automaton = WordAutomaton(tuple(self._leads), pres.gen_degs)
        for i, (lead, (lead_coeff, words, coeffs)) in enumerate(pairs):
            out, scale = self._reduce_terms(dict(zip(words, coeffs)), lead_coeff)
            forms[i] = _integer_form({lead: scale, **out}, lead, p)
        self.elements = tuple(
            Poly({**self._quotient(dict(zip(words, coeffs)), c), u: 1}, pres.word_degree(u), p)
            for u, (c, words, coeffs) in zip(self._leads, forms)
        )
        self.complete = complete

    # -- reduction ---------------------------------------------------------

    def _reduce_terms(self, pending, den, rows=None):
        """Reduce the integers `pending` (word -> int, all of one degree) to
        normal words, for the input pending / den (see `_to_ints`).

        Returns (out, scale): integers on normal words whose quotient
        out / scale is the normal form.  `pending` is consumed.  The loop
        keeps the invariant pending + out = S * den * (the input minus a
        combination of basis elements), where S is the running scale.  To
        cancel a coefficient c on a leading word with form (L, words,
        coeffs), it sets q = gcd(c, L), multiplies S by L // q, and
        subtracts c // q times the form's tail at the word's position.
        Every step subtracts an element of the ideal, and the normal form is
        unique, so out / (S * den) is the remainder exact rational
        arithmetic would give.  Over F_p, L = 1 and coefficients are reduced
        mod p as they leave `pending`.

        Rescaling is lazy: each value is kept as [v, t], t the running
        scale at its last write, and is brought to the current scale by the
        exact quotient only when it is popped or updated; emitted terms are
        scaled once, on return.  So the result is the one that multiplying
        every entry at each rescaling would give.

        The next term is the greatest pending word, the least byte string: a
        heap holds each word once, and a word cancelled to 0 stays in
        `pending` until it is popped.  Reduction only adds smaller words, so
        a popped word never returns.

        Completion passes `rows`, the reducer rows of the current degree
        (see `groebner`): word -> () if the word is normal, else (L, the
        tail words placed at the word's position, coeffs).  A popped word
        is looked up there first and its row filled on a miss, so each word
        meets the automaton and the bytes concatenation once per degree.
        The other callers get a fresh dict per call.
        """
        p = self.modulus
        forms = self._forms
        leads = self._leads
        find = self.automaton.find
        heap = list(pending)
        heapq.heapify(heap)
        for w, c in pending.items():
            pending[w] = [c, den]
        out = {}
        scale = den
        rows = {} if rows is None else rows
        while heap:
            w = heapq.heappop(heap)
            c, t = pending.pop(w)
            if t != scale:
                c *= scale // t
            if p:
                c %= p
            if not c:
                continue
            row = rows.get(w)
            if row is None:
                hit = find(w)
                if hit is None:
                    row = ()
                else:
                    pos, i = hit
                    lead_coeff, words, coeffs = forms[i]
                    left, right = w[:pos], w[pos + len(leads[i]) :]
                    row = lead_coeff, tuple([left + u + right for u in words]), coeffs
                rows[w] = row
            if not row:
                out[w] = [c, scale]
                continue
            lead_coeff, words, coeffs = row
            if lead_coeff != 1:
                q = gcd(c, lead_coeff)
                c //= q
                scale *= lead_coeff // q
            for w2, a in zip(words, coeffs):
                entry = pending.get(w2)
                if entry is None:
                    pending[w2] = [-c * a, scale]
                    heapq.heappush(heap, w2)
                else:
                    if entry[1] != scale:
                        entry[0] *= scale // entry[1]
                        entry[1] = scale
                    entry[0] -= c * a
        return {w: c if t == scale else c * (scale // t) for w, (c, t) in out.items()}, scale

    def _quotient(self, out, scale):
        """The field scalars out / scale, for integers `out` from `_reduce_terms`."""
        scalar = self.presentation.field.scalar
        return out if scale == 1 else {w: scalar(c, scale) for w, c in out.items()}

    def normal_form(self, p):
        """The unique reduced representative of `p` modulo the ideal."""
        if p.is_zero():
            return p
        self.check_degree(p.degree, "normal form")
        find = self.automaton.find
        if all(find(w) is None for w in p.terms):
            return p  # already normal (about half the calls in a resolution)
        out, scale = self._reduce_terms(*_to_ints(p.terms))
        return Poly(self._quotient(out, scale), p.degree, self.modulus) if out else Poly.zero()

    def nf_word(self, word):
        """Memoized normal form of a single word (hot path for resolutions).

        Returned as (word, scalar) pairs; a normal word is its own normal form.
        """
        nf = self._nf_words.get(word)
        if nf is None:
            self.check_degree(self.presentation.word_degree(word), "normal form")
            if self.automaton.find(word) is None:
                nf = ((word, 1),)
            else:
                nf = tuple(self._quotient(*self._reduce_terms({word: 1}, 1)).items())
            self._nf_words[word] = nf
        return nf

    # -- normal words ------------------------------------------------------

    def normal_words(self, j):
        """All degree-j words avoiding leading words, ascending in the order.

        That is descending as bytes, the order the walk emits: the stack
        pops the highest letter first, and letters have positive degree,
        so no word of degree j is a proper prefix of another."""
        if j < 0:
            return ()
        self.check_degree(j, "normal words")
        cached = self._normal_words.get(j)
        if cached is not None:
            return cached
        degs = self.presentation.gen_degs
        delta = self.automaton.delta
        out = []
        stack = [(b"", j, 0)]
        while stack:
            word, rem, s = stack.pop()
            if rem == 0:
                out.append(word)
                continue
            for g, t in enumerate(delta[s]):
                if t >= 0 and degs[g] <= rem:
                    stack.append((word + LETTERS[g], rem - degs[g], t))
        out = tuple(out)
        self._normal_words[j] = out
        return out

    def dims(self, upto):
        """[dim_k A_j for j <= upto], path counts of the automaton; the counts are
        kept, through d_gb at least, and a higher degree extends them."""
        self.check_degree(upto, "normal words")
        if upto >= len(self._dims):
            self._dims = self.automaton.dims(max(upto, self.d_gb), self._rows)
        return self._dims[: upto + 1]

    def dim(self, j):
        """dim_k A_j; every kept count is certified (see `dims`)."""
        if j < 0:
            return 0
        return self._dims[j] if j < len(self._dims) else self.dims(j)[j]


def _to_ints(terms):
    """(ints, den) with ints[w] = den * terms[w] integers: den clears the
    denominators over Q; over F_p, den = 1 and ints are the scalars."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in terms.items()}, den


def _integer_form(ints, lead, p):
    """(L, words, coeffs) of the integer vector `ints` with leading word `lead`:
    divided by its content and sign over Q, made monic over F_p."""
    if p:
        inv = pow(ints[lead], -1, p)
        ints = {w: c * inv % p for w, c in ints.items()}
    else:
        g = gcd(*ints.values())
        g = g if ints[lead] > 0 else -g
        ints = {w: c // g for w, c in ints.items()}
    tail = [w for w in ints if w != lead]
    return ints[lead], tuple(tail), tuple(ints[w] for w in tail)


# ---------------------------------------------------------------------------
# completion


def _overlap_words(u, v):
    """Proper overlaps: suffix of u of length j equals prefix of v.

    Yields (overlap word, left cofactor of v's copy).  Inclusion overlaps
    cannot occur between inter-reduced leading words.
    """
    top = min(len(u), len(v))
    for j in range(1, top):
        if u[len(u) - j :] == v[:j]:
            yield u + v[j:], u[: len(u) - j]


def _s_polynomial(f, h, left, right):
    """Integer S-polynomial of the overlap of forms f and h on one word w =
    u_f right = left u_h: L_h (tail_f right) - L_f (left tail_h), which is
    L_f L_h times the difference of the two monic elements on w (their
    leading terms cancel).  Returned as word -> int with den 1."""
    lf, words_f, coeffs_f = f
    lh, words_h, coeffs_h = h
    pending = {u + right: lh * a for u, a in zip(words_f, coeffs_f)}
    for u, a in zip(words_h, coeffs_h):
        w = left + u
        pending[w] = pending.get(w, 0) - lf * a
    return pending


def groebner(presentation, d_gb, element_limit=DEFAULT_ELEMENT_LIMIT):
    """Reduced Groebner basis certified through internal degree `d_gb`.

    Deterministic for a fixed presentation and order: obstructions are
    processed in increasing degree, tie-broken by overlap-word order.  The
    heap holds relations and overlaps (i, k, left, right) of the i-th and
    k-th elements found, with u_i*right and left*u_k one word w; an
    overlap's S-polynomial is built from the integer forms when it is
    popped, unless the chain criterion (module docstring) skips it.  The
    elements found are kept only as leading words and integer forms, in the
    `GroebnerBasis` that is returned; they become polynomials once, after
    the final tail reduction (`GroebnerBasis._finish`).  The automaton is
    rebuilt once per degree that found elements, and the reducer rows are
    kept for one degree at a time, so they hold at most one degree's
    reducible words (module docstring).
    Raises ResourceLimitError if the element budget is exhausted.
    """
    key = presentation.word_key
    p = presentation.field.modulus
    relations = [r for r in presentation.relations if not r.is_zero()]
    if relations:
        max_rel = max(r.degree for r in relations)
        if d_gb < max_rel:
            raise PresentationError(
                "truncation degree %d is below the maximal relation degree %d" % (d_gb, max_rel)
            )

    heap = []
    seq = 0
    for r in relations:
        heapq.heappush(heap, (r.degree, key(r.lead_word()), seq, r))
        seq += 1

    basis = GroebnerBasis(presentation, d_gb)
    leads, forms = basis._leads, basis._forms
    # cleared when an overlap above d_gb is dropped: every ordered pair of
    # elements, self-pairs included, passes through push_overlaps once
    complete = True
    current, rows = 0, {}  # the degree being completed and its reducer rows

    def push_overlaps(i, k):
        nonlocal seq, complete
        u = leads[i]
        for w, left in _overlap_words(u, leads[k]):
            wdeg = presentation.word_degree(w)
            if wdeg > d_gb:
                complete = False
                continue
            heapq.heappush(heap, (wdeg, key(w), seq, (i, k, left, w[len(u) :])))
            seq += 1

    while heap:
        d, _, _, item = heapq.heappop(heap)
        if d > current:
            current, rows = d, {}
            if len(basis.automaton.leads) < len(leads):  # elements found since the last build
                basis.automaton = WordAutomaton(tuple(leads), presentation.gen_degs)
        if isinstance(item, tuple):  # an overlap, not a relation
            i, k, left, right = item
            if basis.automaton.find((left + leads[k])[1:-1]) is not None:
                continue  # chain criterion
            out, _ = basis._reduce_terms(_s_polynomial(forms[i], forms[k], left, right), 1, rows)
        else:
            out, _ = basis._reduce_terms(*_to_ints(item.terms), rows)
        if not out:
            continue
        if len(leads) >= element_limit:
            raise ResourceLimitError(
                "Groebner completion exceeded %d elements at degree %d" % (element_limit, d)
            )
        lead = min(out)
        # lead was normal until now: its row, possibly cached as (), is its form
        rows[lead] = form = _integer_form(out, lead, p)
        leads.append(lead)
        forms.append(form)
        n = len(leads) - 1
        for k in range(n + 1):
            push_overlaps(n, k)
            if k != n:
                push_overlaps(k, n)

    basis._finish(complete)
    return basis


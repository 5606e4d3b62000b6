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

    def dims(self, upto):
        """Weighted path counts from state 0: dim A_d for d = 0..upto."""
        degs = self.gen_degs
        counts = [[0] * len(self.states) for _ in range(upto + 1)]
        counts[0][0] = 1
        for d in range(1, upto + 1):
            row = counts[d]
            for s0, targets in enumerate(self.delta):
                for a, s1 in enumerate(targets):
                    if s1 >= 0 and degs[a] <= d:
                        c = counts[d - degs[a]][s0]
                        if c:
                            row[s1] += c
        return [sum(row) for row in counts]


class _IntegerBasis:
    """Basis elements as integer forms, with their automaton; reduction.

    Each element g has an integer form (L, words, coeffs): g times a nonzero
    scalar, split into its lead coefficient L and its other terms (parallel
    tuples, which take less memory than pairs).  Over Q the scalar clears
    the denominators and removes the content (so L > 0); over F_p the
    coefficients are representatives mod p and g is monic, so L = 1.
    `_leads[i]` is the leading word of `_forms[i]`.  Completion grows one
    such basis with `add`, in the order the elements are found.
    """

    def __init__(self, gen_degs, field, leads=(), forms=()):
        self.gen_degs = gen_degs
        self.field = field
        self.modulus = field.modulus
        self._leads = list(leads)
        self._forms = list(forms)
        self.automaton = WordAutomaton(tuple(self._leads), gen_degs)

    def add(self, lead, form):
        """Append an element; only the automaton is rebuilt."""
        self._leads.append(lead)
        self._forms.append(form)
        self.automaton = WordAutomaton(tuple(self._leads), self.gen_degs)

    def _reduce_terms(self, pending, den):
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
        while heap:
            w = heapq.heappop(heap)
            c, t = pending.pop(w)
            if t != scale:
                c *= scale // t
            if p:
                c %= p
            if not c:
                continue
            hit = find(w)
            if hit is None:
                out[w] = [c, scale]
                continue
            pos, i = hit
            lead_coeff, words, coeffs = forms[i]
            if lead_coeff != 1:
                q = gcd(c, lead_coeff)
                c //= q
                scale *= lead_coeff // q
            left, right = w[:pos], w[pos + len(leads[i]) :]
            for u, a in zip(words, coeffs):
                w2 = left + u + right
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
        scalar = self.field.scalar
        return out if scale == 1 else {w: scalar(c, scale) for w, c in out.items()}


class GroebnerBasis(_IntegerBasis):
    """A reduced (possibly degree-truncated) two-sided Groebner basis.

    Reduction runs on plain integers (`_IntegerBasis`): each element gets
    its integer form once, when the basis is built.  Completion builds the
    basis once, from its final tail-reduced elements.
    """

    def __init__(self, presentation, elements, d_gb, complete):
        self.presentation = presentation
        key = presentation.word_key
        self.elements = tuple(sorted(elements, key=lambda g: key(g.lead_word())))
        self.d_gb = d_gb
        self.complete = complete
        p = presentation.field.modulus
        leads = [g.lead_word() for g in self.elements]
        forms = [_integer_form(_to_ints(g.terms)[0], u, p) for g, u in zip(self.elements, leads)]
        super().__init__(presentation.gen_degs, presentation.field, leads, forms)
        self._normal_words = {}
        self._nf_words = {}

    def check_degree(self, d, what="computation"):
        if not self.complete and d > self.d_gb:
            raise CertificationError(
                "%s at degree %d exceeds the certified range (basis complete only up to %d)"
                % (what, d, self.d_gb)
            )

    # -- reduction ---------------------------------------------------------

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
        """All degree-j words avoiding leading words, ascending in the order."""
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
        out.sort(reverse=True)
        out = tuple(out)
        self._normal_words[j] = out
        return out

    def dim(self, j):
        """dim_k A_j, from the normal-word count."""
        return len(self.normal_words(j))


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


def buchberger_truncated(presentation, d_gb, element_limit=2000):
    """Reduced Groebner basis certified through internal degree `d_gb`.

    Deterministic for a fixed presentation and order: obstructions are
    processed in increasing degree, tie-broken by overlap-word order.  The
    heap holds relations and overlaps (i, k, left, right) of the i-th and
    k-th elements found, with u_i*right and left*u_k one word w; an
    overlap's S-polynomial is built from the integer forms when it is
    popped, unless the chain criterion (module docstring) skips it.  The
    elements found are kept only as leading words and integer forms, in one
    growing `_IntegerBasis`; they become polynomials in the final tail
    reduction, and the sorted `GroebnerBasis` is built once, at the end.
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

    basis = _IntegerBasis(presentation.gen_degs, presentation.field)
    leads, forms = basis._leads, basis._forms
    # cleared when an overlap above d_gb is dropped: every ordered pair of
    # elements, self-pairs included, passes through push_overlaps once
    complete = True

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
        if isinstance(item, tuple):  # an overlap, not a relation
            i, k, left, right = item
            if basis.automaton.find((left + leads[k])[1:-1]) is not None:
                continue  # chain criterion
            out, _ = basis._reduce_terms(_s_polynomial(forms[i], forms[k], left, right), 1)
        else:
            out, _ = basis._reduce_terms(*_to_ints(item.terms))
        if not out:
            continue
        if len(leads) >= element_limit:
            raise ResourceLimitError(
                "Groebner completion exceeded %d elements at degree %d" % (element_limit, d)
            )
        lead = min(out)
        basis.add(lead, _integer_form(out, lead, p))
        n = len(leads) - 1
        for k in range(n + 1):
            push_overlaps(n, k)
            if k != n:
                push_overlaps(k, n)

    # tail-reduce for canonical output; the leading words, and with them
    # the overlaps that decided `complete`, are already final
    reduced = []
    for lead, (lead_coeff, words, coeffs) in zip(leads, forms):
        terms = basis._quotient(*basis._reduce_terms(dict(zip(words, coeffs)), lead_coeff))
        terms[lead] = 1
        reduced.append(Poly(terms, presentation.word_degree(lead), p))
    return GroebnerBasis(presentation, reduced, d_gb, complete)


def groebner(presentation, d_gb, element_limit=2000):
    """The one entry point to completion (perfbench/layertrace.py wraps it by name)."""
    return buchberger_truncated(presentation, d_gb, element_limit=element_limit)

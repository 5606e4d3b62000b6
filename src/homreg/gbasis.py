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

import hashlib
import heapq
import os
import tempfile
from fractions import Fraction
from math import gcd, lcm

from .corealg import (
    CertificationError,
    FpElement,
    Poly,
    PresentationError,
    ResourceLimitError,
)
from .linalg import integral

GB_FORMAT_VERSION = 2


class WordAutomaton:
    """Aho-Corasick automaton over the leading words of a basis.

    States are the proper prefixes of `leads` in (len, word) order; state 0
    is the empty word.  `delta[s][a]` is the state of the longest suffix of
    states[s] + (a,) that is a state, or ~i when that word ends in
    leads[i].  Reading a word from state 0 therefore stays on the longest
    suffix read so far that is a state, and the first negative entry marks
    the leading-word factor that ends leftmost.  The paths from state 0
    that avoid negative entries spell exactly the normal words.
    """

    def __init__(self, leads, gen_degs):
        self.leads = leads
        self.gen_degs = gen_degs
        prefixes = {()} | {u[:k] for u in leads for k in range(1, len(u))}
        self.states = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
        index = {w: i for i, w in enumerate(self.states)}
        ends = {u: i for i, u in enumerate(leads)}
        delta = []
        for s in self.states:
            row = []
            for a in range(len(gen_degs)):
                w = s + (a,)
                suffixes = [w[k:] for k in range(len(w) + 1)]  # longest first
                dead = [ends[v] for v in suffixes if v in ends]
                row.append(~dead[0] if dead else next(index[v] for v in suffixes if v in index))
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


class GroebnerBasis:
    """A reduced (possibly degree-truncated) two-sided Groebner basis.

    Reduction runs on plain integers.  Each element g gets an integer form
    (L, words, coeffs) once, when the basis is built: g times a nonzero
    scalar, split into its lead coefficient L and its other terms (parallel
    tuples, which take less memory than pairs).  Over Q the scalar
    clears the denominators and removes the content (so L > 0); over F_p
    the coefficients are representatives mod p and g is monic, so L = 1.
    `forms` maps lead words to forms already made, so a completion that
    rebuilds the basis after each new element makes each form only once.
    """

    def __init__(self, presentation, elements, d_gb, complete, forms=None):
        self.presentation = presentation
        key = presentation.order.key
        self.elements = tuple(sorted(elements, key=lambda g: key(g.lead_word())))
        self.d_gb = d_gb
        self.complete = complete
        self._leads = tuple(g.lead_word() for g in self.elements)
        self.automaton = WordAutomaton(self._leads, presentation.gen_degs)
        field = presentation.field
        self.modulus = field.modulus
        forms = forms or {}
        self._forms = tuple(
            forms.get(u) or _integer_form(_to_ints(g.terms, self.modulus)[0], u, self.modulus)
            for g, u in zip(self.elements, self._leads)
        )
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
        out, scale = self._reduce_terms(*_to_ints(p.terms, self.modulus))
        return self._to_poly(out, scale, p.degree)

    def _reduce_terms(self, pending, den):
        """Reduce the integers `pending` (word -> int, all of one degree) to
        normal words, for the input pending / den (see `_to_ints`).

        Returns (out, scale): integers on normal words whose quotient
        out / scale is the normal form.  `pending` is consumed.  The loop
        keeps the invariant pending + out = S * den * (the input minus a
        combination of basis elements), where S is the running scale.  To
        cancel a coefficient c on a leading word with form (L, words,
        coeffs), it sets q = gcd(c, L), multiplies pending, out and S by
        L // q, and subtracts c // q times the form's tail at the word's
        position.  Every step subtracts an element of the ideal,
        and the normal form is unique, so out / (S * den) is the remainder
        exact rational arithmetic would give.  Over F_p, L = 1 and
        coefficients are reduced mod p as they leave `pending`.

        The next term is the greatest pending word, the least tuple: a heap
        holds each word once, and a word cancelled to 0 stays in `pending`
        until it is popped.  Reduction only adds smaller words, so a popped
        word never returns.
        """
        p = self.modulus
        forms = self._forms
        leads = self._leads
        find = self.automaton.find
        heap = list(pending)
        heapq.heapify(heap)
        out = {}
        scale = den
        while heap:
            w = heapq.heappop(heap)
            c = pending.pop(w)
            if p:
                c %= p
            if not c:
                continue
            hit = find(w)
            if hit is None:
                out[w] = c
                continue
            pos, i = hit
            lead_coeff, words, coeffs = forms[i]
            if lead_coeff != 1:
                q = gcd(c, lead_coeff)
                m = lead_coeff // q
                c //= q
                if m != 1:
                    for u in pending:
                        pending[u] *= m
                    for u in out:
                        out[u] *= m
                    scale *= m
            left, right = w[:pos], w[pos + len(leads[i]) :]
            for u, a in zip(words, coeffs):
                w2 = left + u + right
                s = pending.get(w2)
                if s is None:
                    pending[w2] = -c * a
                    heapq.heappush(heap, w2)
                else:
                    pending[w2] = s - c * a
        return out, scale

    def _to_poly(self, out, scale, degree):
        """The polynomial out / scale, for integers `out` from `_reduce_terms`."""
        if not out:
            return Poly.zero()
        p = self.modulus
        if p:
            inv = pow(scale, -1, p)
            return Poly({w: FpElement(p, c * inv) for w, c in out.items()}, degree)
        return Poly({w: Fraction(c, scale) for w, c in out.items()}, degree)

    def nf_word(self, word):
        """Memoized normal form of a single word (hot path for resolutions).

        Returned as (word, scalar) pairs, the scalars those of coordinate
        vectors: ints in [0, p) over F_p; over Q ints, or Fractions if not integral.
        """
        nf = self._nf_words.get(word)
        if nf is None:
            self.check_degree(self.presentation.word_degree(word), "normal form")
            out, scale = self._reduce_terms({word: 1}, 1)
            p = self.modulus
            if p:
                inv = pow(scale, -1, p)
                nf = tuple((w, c * inv % p) for w, c in out.items())
            else:
                nf = tuple((w, c if scale == 1 else integral(Fraction(c, scale))) for w, c in out.items())
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
        stack = [((), j, 0)]
        while stack:
            word, rem, s = stack.pop()
            if rem == 0:
                out.append(word)
                continue
            for g, t in enumerate(delta[s]):
                if t >= 0 and degs[g] <= rem:
                    stack.append((word + (g,), rem - degs[g], t))
        out.sort(reverse=True)
        out = tuple(out)
        self._normal_words[j] = out
        return out

    def dim(self, j):
        """dim_k A_j, from the normal-word count."""
        return len(self.normal_words(j))


def _to_ints(terms, p):
    """(ints, den) with ints[w] = den * terms[w] integers: den clears the
    denominators over Q (p = 0); over F_p, den = 1 and ints are the
    representatives in [0, p)."""
    if p:
        return {w: c.v for w, c in terms.items()}, 1
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


def buchberger_truncated(presentation, d_gb, element_limit=2000):
    """Reduced Groebner basis certified through internal degree `d_gb`.

    Deterministic for a fixed presentation and order: obstructions are
    processed in increasing degree, tie-broken by overlap-word order.  The
    heap holds relations and overlaps (g, h, left, right) with g*right and
    left*h on one word w; an overlap's S-polynomial is built when it is
    popped, unless the chain criterion (module docstring) skips it.
    Raises ResourceLimitError if the element budget is exhausted.
    """
    order = presentation.order
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
        heapq.heappush(heap, (r.degree, order.key(r.lead_word()), seq, r))
        seq += 1

    basis = GroebnerBasis(presentation, [], d_gb, True)
    # cleared when an overlap above d_gb is dropped: every ordered pair of
    # elements, self-pairs included, passes through push_overlaps once
    complete = True

    def push_overlaps(g, h):
        nonlocal seq, complete
        u = g.lead_word()
        v = h.lead_word()
        for w, left in _overlap_words(u, v):
            wdeg = presentation.word_degree(w)
            if wdeg > d_gb:
                complete = False
                continue
            # S-poly, built when popped: g * (tail of w after u)  -  left * h
            heapq.heappush(heap, (wdeg, order.key(w), seq, (g, h, left, w[len(u) :])))
            seq += 1

    elements = []
    forms = {}
    while heap:
        d, _, _, p = heapq.heappop(heap)
        if isinstance(p, tuple):  # an overlap, not a relation
            g, h, left, right = p
            if basis.automaton.find((left + h.lead_word())[1:-1]) is not None:
                continue  # chain criterion
            p = g.rmul_word(right, d - g.degree) - h.lmul_word(left, d - h.degree)
        out, _ = basis._reduce_terms(*_to_ints(p.terms, basis.modulus))
        if not out:
            continue
        lead = min(out)
        r = basis._to_poly(out, out[lead], p.degree)  # monic
        elements.append(r)
        if len(elements) > element_limit:
            raise ResourceLimitError(
                "Groebner completion exceeded %d elements at degree %d" % (element_limit, d)
            )
        forms[lead] = _integer_form(out, lead, basis.modulus)
        basis = GroebnerBasis(presentation, elements, d_gb, True, forms)
        for g in elements:
            push_overlaps(r, g)
            if g is not r:
                push_overlaps(g, r)

    # tail-reduce for canonical output; the leading words, and with them
    # the overlaps that decided `complete`, are already final
    reduced = []
    for g in elements:
        lead = g.lead_word()
        tail = {w: c for w, c in g.terms.items() if w != lead}
        out, scale = basis._reduce_terms(*_to_ints(tail, basis.modulus))
        terms = dict(basis._to_poly(out, scale, g.degree).terms)
        terms[lead] = presentation.field.one()
        reduced.append(Poly(terms, g.degree))
    return GroebnerBasis(presentation, reduced, d_gb, complete)


# ---------------------------------------------------------------------------
# content-addressed cache

CACHE_ENV_VAR = "HOMREG_CACHE_DIR"


def basis_fingerprint(presentation, d_gb):
    text = presentation.to_text() + "d_gb %d\nversion %d\n" % (d_gb, GB_FORMAT_VERSION)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _body_digest(complete_line, poly_lines):
    """sha256 of the `complete` line and the `poly` lines of a cache file."""
    return hashlib.sha256("\n".join([complete_line] + poly_lines).encode("utf-8")).hexdigest()


def _serialize_basis(G):
    complete = "complete %d" % (1 if G.complete else 0)
    polys = []
    for g in G.elements:
        parts = []
        for w in sorted(g.terms):
            c = g.terms[w]
            parts.append("%s@%s" % (c, ".".join(str(i) for i in w)))
        polys.append("poly " + " ".join(parts))
    lines = [
        "homreg-gb %d" % GB_FORMAT_VERSION,
        "fingerprint %s" % basis_fingerprint(G.presentation, G.d_gb),
        complete,
        "elements %d %s" % (len(polys), _body_digest(complete, polys)),
    ]
    return "\n".join(lines + polys) + "\n"


def _deserialize_basis(text, presentation, d_gb):
    """The basis stored in `text`, or None when it is stale, malformed or altered."""
    lines = text.splitlines()
    header = (
        "homreg-gb %d" % GB_FORMAT_VERSION,
        "fingerprint %s" % basis_fingerprint(presentation, d_gb),
    )
    if tuple(lines[:2]) != header:
        return None
    field = presentation.field
    try:
        complete = {"complete 1": True, "complete 0": False}[lines[2]]
        key, count, digest = lines[3].split()
        if key != "elements" or len(lines) != 4 + int(count):
            return None
        if digest != _body_digest(lines[2], lines[4:]):
            return None
        elements = []
        for line in lines[4:]:
            head, _, body = line.partition(" ")
            if head != "poly":
                return None
            terms = {}
            for part in body.split():
                cs, _, ws = part.partition("@")
                word = tuple(int(i) for i in ws.split(".")) if ws else ()
                terms[word] = field.from_int(int(cs)) if field.modulus else Fraction(cs)
            elements.append(Poly.make(terms, presentation.gen_degs))
        return GroebnerBasis(presentation, elements, d_gb, complete)
    except (KeyError, ValueError, IndexError, ZeroDivisionError):
        return None


def save_basis(G, directory):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, basis_fingerprint(G.presentation, G.d_gb) + ".gb")
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_serialize_basis(G))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_basis(presentation, d_gb, directory):
    path = os.path.join(directory, basis_fingerprint(presentation, d_gb) + ".gb")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return _deserialize_basis(fh.read(), presentation, d_gb)


def groebner(presentation, d_gb, cache_dir=None, element_limit=2000):
    """Cached entry point: load the basis if present, else compute and store."""
    if cache_dir:
        G = load_basis(presentation, d_gb, cache_dir)
        if G is not None:
            return G
    G = buchberger_truncated(presentation, d_gb, element_limit=element_limit)
    if cache_dir:
        save_basis(G, cache_dir)
    return G

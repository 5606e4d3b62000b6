"""Degree-truncated reduced two-sided Groebner bases in the free algebra.

Completion is overlap-based (diamond lemma style) and processed strictly
by increasing degree; since the ideal is homogeneous, an obstruction at
degree d can only produce new elements of degree d, so the set of basis
elements below the current degree is final when that degree is reached.
A basis is Complete when every overlap word among the final elements has
degree <= D_gb and every S-polynomial reduced to zero: all overlaps of
elements of maximal degree m live in degrees < 2m, so nothing can appear
later.  Otherwise the basis is certified only up to D_gb.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from .corealg import (
    CertificationError,
    Poly,
    PresentationError,
    ResourceLimitError,
)

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
    """A reduced (possibly degree-truncated) two-sided Groebner basis."""

    def __init__(self, presentation, elements, d_gb, complete):
        self.presentation = presentation
        key = presentation.order.key
        self.elements = tuple(sorted(elements, key=lambda g: key(g.lead_word())))
        self.d_gb = d_gb
        self.complete = complete
        self._leads = tuple(g.lead_word() for g in self.elements)
        self.automaton = WordAutomaton(self._leads, presentation.gen_degs)
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
        return self._reduce_terms(dict(p.terms), p.degree)

    def _reduce_terms(self, pending, degree):
        elements = self.elements
        leads = self._leads
        find = self.automaton.find
        out = {}
        while pending:
            w = min(pending)  # the greatest word: all share one degree
            c = pending.pop(w)
            if not c:
                continue
            hit = find(w)
            if hit is None:
                out[w] = c
                continue
            pos, i = hit
            g = elements[i]
            lead = leads[i]
            left, right = w[:pos], w[pos + len(lead) :]
            for u, a in g.terms.items():
                if u == lead:
                    continue
                w2 = left + u + right
                s = pending.get(w2)
                s = -c * a if s is None else s - c * a
                if s:
                    pending[w2] = s
                elif w2 in pending:
                    del pending[w2]
        if not out:
            return Poly.zero()
        return Poly(out, degree)

    def nf_word(self, word):
        """Memoized normal form of a single word (hot path for resolutions)."""
        p = self._nf_words.get(word)
        if p is None:
            p = self.normal_form(self.presentation.word_poly(word))
            self._nf_words[word] = p
        return p

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

    def word_index(self, j):
        """Map word -> position in the degree-j normal basis."""
        return {w: i for i, w in enumerate(self.normal_words(j))}

    def multiplication_columns(self, f, j, left=True):
        """Matrix of w |-> f*w (left) or w |-> w*f on A_j, one column per word.

        Columns run over the degree-j normal words; each holds the normal
        form's coordinates in the degree-(j + deg f) normal basis.
        """
        words = self.normal_words(j)
        index = self.word_index(j + f.degree)
        cols = []
        for w in words:
            q = self.normal_form(f.rmul_word(w, j) if left else f.lmul_word(w, j))
            col = {}
            q.add_into(col, index)
            cols.append(col)
        return cols


@dataclass(frozen=True)
class NormalWordBasis:
    degree: int
    words: tuple


def normal_form(G, p):
    return G.normal_form(p)


def normal_words(G, j):
    return NormalWordBasis(j, G.normal_words(j))


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
    processed in increasing degree, tie-broken by overlap-word order.
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
    # cleared when an overlap is skipped: every ordered pair of elements,
    # self-pairs included, passes through push_overlaps once
    complete = True

    def push_overlaps(g, h):
        nonlocal seq, complete
        u = g.lead_word()
        v = h.lead_word()
        udeg = g.degree
        for w, left in _overlap_words(u, v):
            wdeg = presentation.word_degree(w)
            if wdeg > d_gb:
                complete = False
                continue
            # S-poly: g * (tail of w after u)  -  left * h
            right = w[len(u) :]
            s = g.rmul_word(right, wdeg - udeg) - h.lmul_word(left, wdeg - h.degree)
            heapq.heappush(heap, (wdeg, order.key(w), seq, s))
            seq += 1

    elements = []
    while heap:
        d, _, _, p = heapq.heappop(heap)
        r = basis._reduce_terms(dict(p.terms), p.degree) if elements else p
        if r.is_zero():
            continue
        r = r.monic()
        elements.append(r)
        if len(elements) > element_limit:
            raise ResourceLimitError(
                "Groebner completion exceeded %d elements at degree %d" % (element_limit, d)
            )
        basis = GroebnerBasis(presentation, elements, d_gb, True)
        for g in elements:
            push_overlaps(r, g)
            if g is not r:
                push_overlaps(g, r)

    # tail-reduce for canonical output; the leading words, and with them
    # the overlaps that decided `complete`, are already final
    reduced = []
    for g in elements:
        lead = g.lead_word()
        tail_terms = {w: c for w, c in g.terms.items() if w != lead}
        if tail_terms:
            tail_terms = dict(basis._reduce_terms(tail_terms, g.degree).terms)
        tail_terms[lead] = presentation.field.one()
        reduced.append(Poly(tail_terms, g.degree))
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
                terms[word] = Fraction(cs) if field.name == "Q" else field.from_int(int(cs))
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

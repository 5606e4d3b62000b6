"""Core objects: fields and their scalars, words, homogeneous polynomials, presentations.

A field is Q or F_p (`Field`).  Its scalars are plain values, the same in
polynomials and in the coordinate vectors of `linalg`: over F_p ints in
[0, p); over Q ints where integral and `Fraction`s otherwise, never floats.
`Field.scalar` is the one map from rationals to them.

Words are byte strings of generator indices.  A polynomial is a finite map
from words to nonzero scalars of one field and is kept homogeneous at all
times; the zero polynomial has degree NEG_INF, matching the convention
deg(0) = -infinity.  All values are immutable after construction and safe
to share.
"""

from __future__ import annotations

import re
from fractions import Fraction

NEG_INF = float("-inf")


class PresentationError(ValueError):
    """Malformed or inconsistent presentation input."""


class CertificationError(RuntimeError):
    """A value was requested outside its certified degree range."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured budget."""


class _RecordType(type):
    """Makes a record's annotated fields its `__slots__`; a value in the class body is a default."""

    def __new__(mcs, name, bases, ns, frozen=True):
        fields = tuple(ns.get("__annotations__", ()))
        ns.update(__slots__=fields, _defaults={f: ns.pop(f) for f in fields if f in ns})
        if not frozen:  # assignable and unhashable
            ns.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__, __hash__=None)
        return super().__new__(mcs, name, bases, ns)


class Record(metaclass=_RecordType):
    """A frozen value record: fields by position or keyword, equal to one of its class with
    equal fields.  Its methods are written out, not generated at import, which cost most of start-up."""

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or kwargs.keys() & set(fields[: len(args)]) or values.keys() != set(fields):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(fields)))
        for f in fields:
            object.__setattr__(self, f, values[f])

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % fv for fv in zip(self.__slots__, self._values()))
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is frozen: field %r cannot change" % (type(self).__name__, name))

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# scalar fields


def integral(q):
    """The rational `q` as a plain int when it is an integer, else as is."""
    return q.numerator if q.denominator == 1 else q


# Miller-Rabin on the first thirteen prime bases is exact below _PRIME_BOUND,
# the least strong pseudoprime to all of them (J. Sorenson and J. Webster,
# Math. Comp. 86, 2017); no larger modulus is accepted, as its primality is
# unproven.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin test, for 0 <= n < _PRIME_BOUND."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


class Field:
    """Q (modulus 0) or the prime field F_p (modulus p)."""

    __slots__ = ("modulus", "name")

    def __init__(self, modulus=0):
        self.modulus = modulus  # the characteristic
        self.name = "F%d" % modulus if modulus else "Q"

    def scalar(self, num, den=1):
        """The rational num/den as a scalar of this field; PresentationError if den is 0 in it."""
        p = self.modulus
        if den % p == 0 if p else not den:
            raise PresentationError("coefficient %d/%d is undefined in %s" % (num, den, self.name))
        if p:
            return num * pow(den, -1, p) % p
        return num if den == 1 else integral(Fraction(num, den))

    def __eq__(self, other):
        return isinstance(other, Field) and other.modulus == self.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return self.name


QQ = Field()


def parse_field(name):
    """Resolve a field descriptor token: `Q` or `F<p>` with p prime."""
    name = name.strip()
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        p = int(m.group(1))
        if p >= _PRIME_BOUND:
            raise PresentationError(
                "unsupported field F%d: primality is proven only below %d" % (p, _PRIME_BOUND)
            )
        if not _is_prime(p):
            raise PresentationError("unsupported field F%d: %d is not prime" % (p, p))
        return Field(p)
    raise PresentationError("unsupported field %r (expected Q or F<p>)" % name)


# ---------------------------------------------------------------------------
# words

# A word is a `bytes` object, one byte per letter holding its generator index,
# so a presentation has at most MAX_GENERATORS generators; b"" is the
# identity.  bytes compare like the tuples of their indices (memcmp, a
# proper prefix first), hash once and slice and concatenate in C.

MAX_GENERATORS = 256
LETTERS = tuple(bytes([g]) for g in range(MAX_GENERATORS))  # the one-letter words
_COMPLEMENT = bytes(range(MAX_GENERATORS - 1, -1, -1))  # byte g -> 255 - g


def word_degree(word, gen_degs):
    return sum(gen_degs[g] for g in word)


# ---------------------------------------------------------------------------
# homogeneous noncommutative polynomials


class Poly:
    """A homogeneous noncommutative polynomial (word -> nonzero scalar).

    `modulus` is its field's: the terms hold that field's scalars, and
    arithmetic reduces mod p when it is nonzero.
    """

    __slots__ = ("terms", "degree", "modulus")

    def __init__(self, terms, degree, modulus):
        # Internal constructor; use Poly.make or presentation helpers, which
        # validate homogeneity, reduce the scalars and drop zeros.
        self.terms = terms
        self.degree = degree
        self.modulus = modulus

    @staticmethod
    def zero():
        return Poly({}, NEG_INF, 0)

    @staticmethod
    def _of(terms, degree, p):
        """The polynomial of `terms` (all of one degree), its scalars reduced and zeros dropped."""
        clean = {w: r for w, c in terms.items() if (r := c % p if p else integral(c))}
        return Poly(clean, degree, p) if clean else Poly.zero()

    @staticmethod
    def make(terms, gen_degs, modulus):
        clean = Poly._of(terms, NEG_INF, modulus).terms
        degs = {word_degree(w, gen_degs) for w in clean}
        if len(degs) > 1:
            raise PresentationError(
                "inhomogeneous polynomial: term degrees %s" % sorted(degs)
            )
        return Poly(clean, degs.pop(), modulus) if clean else Poly.zero()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and other.terms == self.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.degree != other.degree:
            raise PresentationError(
                "cannot add polynomials of degrees %s and %s" % (self.degree, other.degree)
            )
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return Poly._of(terms, self.degree, self.modulus)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly.zero()
        terms = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u + v
                terms[w] = terms.get(w, 0) + a * b
        return Poly._of(terms, self.degree + other.degree, self.modulus)

    def scale(self, c):
        return Poly._of({w: c * a for w, a in self.terms.items()}, self.degree, self.modulus)

    def lead_word(self):
        """The greatest word: the least byte string, as all terms share one degree."""
        return min(self.terms)

    def monic(self):
        c = self.terms[self.lead_word()]
        if c == 1:
            return self
        p = self.modulus
        return self.scale(pow(c, -1, p) if p else 1 / Fraction(c))

    def reversed_words(self):
        """The polynomial with every word reversed (opposite algebra image)."""
        if not self.terms:
            return self
        return Poly({w[::-1]: c for w, c in self.terms.items()}, self.degree, self.modulus)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for w in sorted(self.terms):
            bits.append("%s:%s" % ("".join("g%d" % g for g in w) or "1", self.terms[w]))
        return "Poly(%s)" % ", ".join(bits)


# ---------------------------------------------------------------------------
# presentations


class AlgebraPresentation(Record):
    """A finite presentation of a connected graded algebra.

    Generators carry positive integer degrees; relations are homogeneous
    nonzero polynomials in the free algebra on the generators.
    """

    field: object
    gen_names: tuple
    gen_degs: tuple
    relations: tuple
    label: str = ""

    @property
    def n_gens(self):
        return len(self.gen_names)

    def gen_index(self, name):
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise PresentationError("unknown symbol %r" % name) from None

    def gen_poly(self, i):
        return Poly({LETTERS[i]: 1}, self.gen_degs[i], self.field.modulus)

    def word_degree(self, word):
        return word_degree(word, self.gen_degs)

    def word_key(self, word):
        """The sort key of `word` in the monomial order: weighted degree, then lexicographic.

        Generators are numbered by precedence, highest first, so among words
        of one weighted degree the greater word is the lexicographically
        smaller byte string, and plain bytes comparison decides.  The key is
        ascending in the order, for the sorts that mix degrees.  The order is
        total, degree-compatible and multiplicative (two words of equal
        degree are never proper prefixes of each other, so complementing
        every byte, g -> 255 - g, reverses their comparison exactly).
        """
        degs = self.gen_degs
        return (sum(degs[g] for g in word), word.translate(_COMPLEMENT))

    def map_images(self, target, images):
        """The images of this algebra's generators under a graded map to `target`, as Polys.

        The one check of a map: string images are parsed in `target`, and
        PresentationError is raised unless both algebras share the base
        field and there is one image per generator, nonzero and of the
        generator's degree.
        """
        if self.field != target.field:
            raise PresentationError(
                "%s is over %s but %s is over %s; a map must keep the base field"
                % (self.label, self.field, target.label, target.field)
            )
        images = tuple(target.parse_poly(p) if isinstance(p, str) else p for p in images)
        if len(images) != self.n_gens:
            raise PresentationError("need one image per source generator")
        for name, d, p in zip(self.gen_names, self.gen_degs, images):
            if p.is_zero() or p.degree != d:
                raise PresentationError("image of %s must be homogeneous of degree %d" % (name, d))
        return images

    def parse_poly(self, text):
        polys = _parse_list(text, self)
        if len(polys) != 1:
            raise PresentationError("expected one polynomial, found %d in %r" % (len(polys), text))
        return polys[0]

    def max_gen_degree(self):
        return max(self.gen_degs) if self.gen_degs else 0

    def format_word(self, word):
        if not word:
            return "1"
        runs = []
        for g in word:
            if runs and runs[-1][0] == g:
                runs[-1][1] += 1
            else:
                runs.append([g, 1])
        return "*".join(
            self.gen_names[g] + ("^%d" % e if e > 1 else "") for g, e in runs
        )

    def format_poly(self, p):
        if not p.terms:
            return "0"
        out = []
        for w in sorted(p.terms):
            c = p.terms[w]
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            ws = self.format_word(w)
            if cs == "1" and w:
                body = ws
            elif w:
                body = "%s*%s" % (cs, ws)
            else:
                body = cs
            if not out:
                out.append("-" + body if neg else body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def to_text(self):
        """Canonical presentation-grammar serialization (stable for hashing)."""
        lines = ["field %s" % self.field.name]
        lines.append(
            "gens " + " ".join("%s:%d" % (n, d) for n, d in zip(self.gen_names, self.gen_degs))
        )
        lines.append("order " + " ".join(self.gen_names))
        if self.relations:
            rels = sorted(self.relations, key=lambda r: self.word_key(r.lead_word()))
            lines.append("rels " + ", ".join(self.format_poly(r) for r in rels))
        return "\n".join(lines) + "\n"


def make_presentation(field, gens, relations, label=""):
    """Validate and assemble an AlgebraPresentation.

    `gens` is a list of (name, degree) pairs, highest precedence first, and
    `relations` a list of Poly; the relations are made monic.
    """
    check_generator_count(len(gens))
    names = tuple(n for n, _ in gens)
    degs = tuple(d for _, d in gens)
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator names")
    for n, d in gens:
        if not _is_name(n):
            raise PresentationError("bad generator name %r" % n)
        if not isinstance(d, int) or d < 1:
            raise PresentationError(
                "generator %s has degree %r; connected graded input needs degree >= 1" % (n, d)
            )
    rels = []
    for r in relations:
        if r.is_zero():
            raise PresentationError("zero relation")
        if r.degree < 1:
            raise PresentationError("relation of degree %s is a nonzero scalar" % r.degree)
        rels.append(r.monic())
    return AlgebraPresentation(field, names, degs, tuple(rels), label)


def check_generator_count(n):
    """Raise PresentationError unless n generators fit the one-byte letters."""
    if n > MAX_GENERATORS:
        raise PresentationError(
            "%d generators; words hold one byte per letter, so at most %d are supported"
            % (n, MAX_GENERATORS)
        )


def opposite_presentation(pres):
    """The opposite presentation: every relation word reversed, verbatim terms.

    Applying twice returns the original presentation term-for-term, so no
    monic renormalization is performed here.
    """
    label = pres.label[:-3] if pres.label.endswith("^op") else pres.label + "^op"
    return AlgebraPresentation(
        pres.field,
        pres.gen_names,
        pres.gen_degs,
        tuple(r.reversed_words() for r in pres.relations),
        label,
    )


# ---------------------------------------------------------------------------
# module presentations


class ModulePresentation(Record):
    """A presented graded module over an algebra presentation.

    `gen_degs` are the internal degrees a_r of the free cover generators;
    each relation row is a homogeneous element of the free module, stored
    as a tuple of Poly (entry r has degree row_degree - a_r, or is zero).
    """

    algebra: AlgebraPresentation
    side: str
    gen_degs: tuple
    rows: tuple
    row_degrees: tuple


def make_module_presentation(algebra, side, gen_degs, rows):
    if side not in ("left", "right"):
        raise PresentationError("module side must be 'left' or 'right'")
    gen_degs = tuple(int(d) for d in gen_degs)
    clean_rows = []
    row_degrees = []
    for row in rows:
        row = tuple(row)
        if len(row) != len(gen_degs):
            raise PresentationError("relation row length does not match generator count")
        degs = {gen_degs[r] + p.degree for r, p in enumerate(row) if p and not p.is_zero()}
        if not degs:
            raise PresentationError("zero relation row")
        if len(degs) != 1:
            raise PresentationError("inhomogeneous relation row: degrees %s" % sorted(degs))
        clean_rows.append(tuple(p if p else Poly.zero() for p in row))
        row_degrees.append(degs.pop())
    return ModulePresentation(algebra, side, gen_degs, tuple(clean_rows), tuple(row_degrees))


def opposite_module(mpres):
    """View a right module as a left module over the opposite algebra."""
    op = opposite_presentation(mpres.algebra)
    side = "left" if mpres.side == "right" else "right"
    rows = tuple(tuple(p.reversed_words() for p in row) for row in mpres.rows)
    return ModulePresentation(op, side, mpres.gen_degs, rows, mpres.row_degrees)


# ---------------------------------------------------------------------------
# parsing


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"(%s|\d+|[\^*+/,:-])|(\S)" % _NAME_RE.pattern)
_BASIS_RE = re.compile(r"e(\d+)")


def _is_name(t):
    return t is not None and _NAME_RE.fullmatch(t) is not None


class _TokenStream:
    def __init__(self, text):
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            if m.group(2):
                raise PresentationError("unexpected character %r" % m.group(2))
            self.tokens.append(m.group(1))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def accept(self, tok):
        """Consume the next token if it is `tok`; whether it was."""
        found = self.peek() == tok
        self.pos += found
        return found


def _found(t):
    return "end of input" if t is None else repr(t)


def _natural(ts, what):
    t = ts.next()
    if t is None or not t.isdigit():
        raise PresentationError("expected an integer %s, found %s" % (what, _found(t)))
    return int(t)


def _parse_sum(ts, pres, n_slots=0):
    """A signed sum of terms: one Poly, or in a module row (n_slots > 0) one Poly per slot.

    A term is a coefficient c or c/d, factors name^k, or both, joined by
    '*'; in a module row it ends in a basis symbol e<k> with k < n_slots,
    which is tested before the generator names.  Terms on the same slot
    and word add up.
    """
    field = pres.field
    sums = [{} for _ in range(n_slots or 1)]
    sign = 1
    while True:
        t = ts.peek()
        if t in ("+", "-"):
            ts.next()
            sign = -1 if t == "-" else 1
        coeff, letters, slot = 1, [], None
        more = True  # whether a factor must follow
        if (ts.peek() or "").isdigit():
            coeff = field.scalar(int(ts.next()), _natural(ts, "denominator") if ts.accept("/") else 1)
            more = ts.accept("*")
        while more:
            t = ts.next()
            basis = n_slots and t and _BASIS_RE.fullmatch(t)
            if basis:
                slot = int(basis.group(1))
                break
            if not _is_name(t):
                raise PresentationError("expected a factor, found %s" % _found(t))
            letters += [pres.gen_index(t)] * (_natural(ts, "exponent after '^'") if ts.accept("^") else 1)
            more = ts.accept("*")
        if n_slots:
            if slot is None:
                raise PresentationError("module term must end in a basis symbol e<k>")
            if slot >= n_slots:
                raise PresentationError("basis symbol e%d out of range" % slot)
        terms = sums[slot or 0]
        word = bytes(letters)
        terms[word] = terms.get(word, 0) + sign * coeff
        if ts.peek() not in ("+", "-"):
            break
    polys = [Poly.make(terms, pres.gen_degs, field.modulus) for terms in sums]
    return polys if n_slots else polys[0]


def _parse_list(text, pres, n_slots=0):
    """The comma-separated items of a `rels` statement, none of them empty:
    polynomials, or module rows of n_slots entries when n_slots > 0."""
    ts = _TokenStream(text)
    items = []
    if ts.peek() is None:
        return items
    while True:
        items.append(_parse_sum(ts, pres, n_slots))
        t = ts.next()
        if t is None:
            return items
        if t != ",":
            raise PresentationError("expected ',' between items, found %r" % t)


def _split_statements(text):
    out = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                out.append(stmt)
    return out


def parse_presentation(text, label="", field=None):
    """Parse the presentation grammar.

    Grammar (UTF-8 text, statements split on ';' or newlines, '#' comments):
        field Q|F<p>               (a `field` argument replaces it: coefficients are read as written)
        gens <name>:<deg> ...
        order <name list>          (optional; highest precedence first)
        rels <poly>, <poly>, ...   (optional; '*' concatenation, '^' powers)

    Generators are numbered in precedence order, which is declaration order
    unless an `order` directive is given.
    """
    declared = None
    gens = []
    rel_sources = []
    order_names = None
    for stmt in _split_statements(text):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if head == "field":
            declared = parse_field(rest)
        elif head == "gens":
            for item in rest.split():
                name, _, deg = item.partition(":")
                if not deg:
                    raise PresentationError("generator %r needs a degree, e.g. x:1" % item)
                try:
                    d = int(deg)
                except ValueError:
                    raise PresentationError("bad degree %r for generator %r" % (deg, name)) from None
                gens.append((name, d))
        elif head == "rels":
            rel_sources.append(rest)
        elif head == "order":
            order_names = rest.split()
        else:
            raise PresentationError("unknown directive %r" % head)
    if declared is None:
        raise PresentationError("missing 'field' directive")
    field = declared if field is None else field
    if not gens:
        raise PresentationError("missing 'gens' directive")
    # a provisional presentation provides name resolution for relation parsing
    proto = make_presentation(field, gens, [], label=label)
    if order_names is not None:
        precedence = [proto.gen_index(n) for n in order_names]
        if sorted(precedence) != list(range(len(gens))):
            raise PresentationError("order must be a permutation of all generators")
        gens = [gens[g] for g in precedence]
        proto = make_presentation(field, gens, [], label=label)
    relations = [p for source in rel_sources for p in _parse_list(source, proto)]
    return make_presentation(field, gens, relations, label=label)


def parse_module(text, algebra):
    """Parse the module-file grammar over a given algebra.

    Statements:
        side left|right
        gens <deg> <deg> ...       (internal degrees of the free generators)
        rels <row>, <row>, ...     (sums of terms that each end in a basis symbol e<k>)
    """
    side = "left"
    gen_degs = None
    row_sources = []
    for stmt in _split_statements(text):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if head == "side":
            side = rest
        elif head == "gens":
            try:
                gen_degs = [int(t) for t in rest.split()]
            except ValueError:
                raise PresentationError("module generator degrees must be integers") from None
        elif head == "rels":
            row_sources.append(rest)
        else:
            raise PresentationError("unknown module directive %r" % head)
    if gen_degs is None:
        raise PresentationError("missing module 'gens' directive")
    rows = [row for source in row_sources for row in _parse_list(source, algebra, len(gen_degs))]
    if rows and not gen_degs:
        raise PresentationError("a module without generators has no relation rows")
    return make_module_presentation(algebra, side, gen_degs, rows)

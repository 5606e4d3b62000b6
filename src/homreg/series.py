"""Hilbert series: truncated coefficients, exact rational forms, Stanley test.

Rational forms are computed only from complete Groebner bases, via the
basis's normal-word automaton (`GroebnerBasis.automaton`).  Its path
counts satisfy a linear recurrence whose order is bounded by the number
of states times the largest generator degree; Berlekamp-Massey on twice
that many exact coefficients gives the denominator, and the numerator is
the coefficient series multiplied back in, verified to be a polynomial
before anything is returned.
"""

from __future__ import annotations

from fractions import Fraction

from .corealg import CertificationError, Record

# -- small exact polynomial kit (coefficient lists, ascending) --------------


def _ptrim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _pdeg(c):
    return len(c) - 1


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    a = _ptrim([Fraction(x) for x in a])
    b = _ptrim([Fraction(x) for x in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return [], []
    db = _pdeg(b)
    lead = b[-1]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        f = r[-1] / lead
        q[k] = f
        for i in range(len(b)):
            r[i + k] -= f * b[i]
        r.pop()  # the leading coefficient cancels exactly
        r = _ptrim(r)
    return _ptrim(q), _ptrim(r)


def _pgcd(a, b):
    a, b = _ptrim([Fraction(x) for x in a]), _ptrim([Fraction(x) for x in b])
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _to_int_poly(c):
    out = []
    for x in c:
        f = Fraction(x)
        if f.denominator != 1:
            raise ArithmeticError("expected integer polynomial, found %s" % f)
        out.append(int(f))
    return tuple(out)


# -- series types -------------------------------------------------------------


class TruncatedSeries(Record):
    coefficients: tuple
    truncation: int

    def text(self):
        return "[" + ", ".join(str(c) for c in self.coefficients) + ", ...]"


class RationalSeries(Record):
    """An exact rational Hilbert series numerator / prod (1 - t^e_i).

    `denominator` is the expanded denominator polynomial (constant term 1);
    `denom_exponents` is the multiset {e_i} when such a factorization
    exists, else None.  `degree` is the t-degree as a rational function,
    i.e. the a-invariant when this is h_A.
    """

    numerator: tuple
    denominator: tuple
    denom_exponents: tuple
    degree: int

    def is_polynomial(self):
        return self.denominator == (1,)

    def text(self):
        num = _format_poly(self.numerator)
        if self.is_polynomial():
            return num
        if self.denom_exponents is not None:
            den = "".join("(1-t^%d)" % e if e != 1 else "(1-t)" for e in self.denom_exponents)
        else:
            den = "(" + _format_poly(self.denominator) + ")"
        return "(%s) / %s" % (num, den)

    def record(self):
        return {
            "numerator": list(self.numerator),
            "denominator": list(self.denominator),
            "denominator_exponents": list(self.denom_exponents) if self.denom_exponents is not None else None,
            "degree": self.degree,
        }


def _format_poly(coeffs):
    bits = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            bits.append(str(c))
        else:
            mono = "t" if i == 1 else "t^%d" % i
            if c == 1:
                bits.append("+ " + mono if bits else mono)
            elif c == -1:
                bits.append("- " + mono if bits else "-" + mono)
            else:
                s = str(c)
                if s.startswith("-"):
                    bits.append(("- %s*" % s[1:]) + mono if bits else s + "*" + mono)
                else:
                    bits.append(("+ %s*" % s) + mono if bits else s + "*" + mono)
    return " ".join(bits) if bits else "0"


def _one_minus_t_power(e):
    c = [Fraction(0)] * (e + 1)
    c[0] = Fraction(1)
    c[e] = Fraction(-1)
    return c


def _factor_denominator(den):
    """Express `den` as prod (1 - t^e_i), smallest exponents first, or None."""
    den = _ptrim([Fraction(x) for x in den])
    if den == [Fraction(1)]:
        return ()
    deg = _pdeg(den)
    for e in range(1, deg + 1):
        q, r = _pdivmod(den, _one_minus_t_power(e))
        if not r:
            rest = _factor_denominator(q)
            if rest is not None:
                return tuple(sorted((e,) + rest))
    return None


def make_rational(numerator, denominator):
    """Normalize an exact rational series: cancel, scale, factor, grade."""
    num = _ptrim([Fraction(x) for x in numerator])
    den = _ptrim([Fraction(x) for x in denominator])
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return RationalSeries((0,), (1,), (), float("-inf"))
    g = _pgcd(num, den)
    if _pdeg(g) >= 1:
        num, _ = _pdivmod(num, g)
        den, _ = _pdivmod(den, g)
    # scale so the denominator has constant term 1
    c0 = den[0]
    if not c0:
        raise ArithmeticError("denominator vanishes at t = 0")
    num = [x / c0 for x in num]
    den = [x / c0 for x in den]
    n = _to_int_poly(num)
    d = _to_int_poly(den)
    exps = _factor_denominator(d)
    return RationalSeries(n, d, exps, _pdeg(list(n)) - _pdeg(list(d)))


# -- the three series operations ---------------------------------------------


def hilbert_truncated(G, upto):
    """Coefficients dim A_j for j <= upto, from normal-word counts."""
    G.check_degree(upto, "Hilbert coefficients")
    return TruncatedSeries(tuple(G.automaton.dims(upto)), upto)


def hilbert_rational(G):
    """Exact rational Hilbert series from a complete Groebner basis."""
    if not G.complete:
        raise CertificationError(
            "rational Hilbert series requires a complete Groebner basis "
            "(basis certified only up to degree %d); use hilbert_truncated instead" % G.d_gb
        )
    # h = N / det(I - M(t)) with deg det <= bound and deg N < bound, so the
    # sequence's linear complexity is at most bound and 2 * bound + 1
    # coefficients fix the denominator
    bound = len(G.automaton.states) * max(G.presentation.max_gen_degree(), 1)
    dims = [Fraction(c) for c in G.automaton.dims(2 * (bound + 1))]
    den = _berlekamp_massey(dims)
    prod = _pmul(dims, den)
    num = _ptrim(prod[: bound + 1])
    if any(prod[bound + 1 : len(dims)]):
        raise ArithmeticError("internal error: numerator not polynomial")
    return make_rational(num, den)


def _berlekamp_massey(seq):
    """Shortest connection polynomial of `seq` (Massey 1969), over Q.

    Returns C with C[0] = 1 and sum_i C[i] * seq[n - i] = 0 for every n
    from the linear complexity L (at least deg C) up to len(seq) - 1; C is
    unique when len(seq) >= 2 * L.
    """
    c, b = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n in range(len(seq)):
        d = sum(c[i] * seq[n - i] for i in range(min(len(c), n + 1)))
        if not d:
            shift += 1
            continue
        prev = list(c)
        c = c + [Fraction(0)] * (len(b) + shift - len(c))
        for i, x in enumerate(b):
            c[i + shift] -= d / last * x
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, prev, d, 1
        else:
            shift += 1
    return _ptrim(c)


def series_product(h1, h2):
    """h_{A (x) B} = h_A * h_B for exact rational series."""
    num = _pmul([Fraction(c) for c in h1.numerator], [Fraction(c) for c in h2.numerator])
    den = _pmul([Fraction(c) for c in h1.denominator], [Fraction(c) for c in h2.denominator])
    return make_rational(num, den)


# -- Stanley's functional equation --------------------------------------------


class StanleyVerdict(Record):
    satisfied: bool
    sign: int = None
    shift: int = None

    def text(self):
        if not self.satisfied:
            return "violated"
        return "satisfied(%+d, l=%d)" % (self.sign, self.shift)


def stanley_check(h):
    """Decide h(1/t) = sign * t^l * h(t) as rational functions.

    Substituting 1/t gives h(1/t) = t^(deg D - deg N) * rev(N)/rev(D); the
    equation holds iff rev(N)*D equals sign * t^m * N*rev(D) for a monomial
    shift, which is settled by exact polynomial comparison.  The (sign, l)
    pair is unique when it exists.
    """
    num = [Fraction(c) for c in h.numerator]
    den = [Fraction(c) for c in h.denominator]
    if not _ptrim(num):
        return StanleyVerdict(False)
    rev_n = list(reversed(num))
    rev_d = list(reversed(den))
    lhs = _ptrim(_pmul(rev_n, den))
    rhs = _ptrim(_pmul(num, rev_d))
    val_l = next(i for i, c in enumerate(lhs) if c)
    val_r = next(i for i, c in enumerate(rhs) if c)
    m = val_l - val_r
    if _pdeg(lhs) - _pdeg(rhs) != m:
        return StanleyVerdict(False)
    ratio = lhs[val_l] / rhs[val_r]
    if ratio == 1:
        sign = 1
    elif ratio == -1:
        sign = -1
    else:
        return StanleyVerdict(False)
    shifted = [Fraction(0)] * m + [sign * c for c in rhs]
    if _ptrim(shifted) != lhs:
        return StanleyVerdict(False)
    # h(1/t) = t^(degD - degN) revN/revD = sign t^(m + degD - degN) h(t)
    ell = m + (_pdeg(den) - _pdeg(num))
    return StanleyVerdict(True, sign, ell)

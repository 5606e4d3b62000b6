"""Hilbert series: truncated coefficients, exact rational forms, Stanley test.

Rational forms are computed only from complete Groebner bases, via the
basis's normal-word automaton (`GroebnerBasis.automaton`).  Its path
counts satisfy a linear recurrence whose order is bounded by the number
of states times the largest generator degree; fraction-free
Berlekamp-Massey over Z on twice that many coefficients gives the
reduced denominator (integral, by Fatou), and the numerator is the
coefficient series multiplied back in, verified over Z to be a
polynomial before anything is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd

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
    out = [0] * (len(a) + len(b) - 1)
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


def _factor_denominator(den):
    """Express the integer polynomial `den` as prod (1 - t^e_i), smallest exponents first, or None.

    den = (1 - t^e) * q gives q_k = den_k + q_(k-e); the division is exact
    iff the q_k so computed vanish in the top e degrees.
    """
    den = _ptrim(den)
    if den == [1]:
        return ()
    top = _pdeg(den)
    for e in range(1, top + 1):
        q = []
        for k, c in enumerate(den):
            q.append(c + q[k - e] if k >= e else c)
        if not any(q[top - e + 1 :]):
            rest = _factor_denominator(q[: top - e + 1])
            if rest is not None:
                return tuple(sorted((e,) + rest))
    return None


def make_rational(numerator, denominator):
    """Normalize an exact rational series: cancel, scale, factor, grade.

    The cancelling gcd runs over Q: the factors of `series_product` can
    share one, as (1 + t) * 1/((1 - t)^2 (1 - t^2)) = 1/(1 - t)^3 does.
    """
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
    if any(x.denominator != 1 for x in num + den):
        raise ArithmeticError("expected integer polynomials, found (%s) / (%s)" % (num, den))
    n, d = tuple(int(x) for x in num), tuple(int(x) for x in den)
    return RationalSeries(n, d, _factor_denominator(d), len(n) - len(d))


# -- the three series operations ---------------------------------------------


def hilbert_truncated(G, upto):
    """Coefficients dim A_j for j <= upto, from normal-word counts."""
    G.check_degree(upto, "Hilbert coefficients")
    return TruncatedSeries(tuple(G.automaton.dims(upto)), upto)


def hilbert_rational(G):
    """Exact rational Hilbert series from a complete Groebner basis.

    h = N / det(I - M(t)) with deg det <= bound and deg N < bound, so the
    linear complexity L is at most bound and 2 * (bound + 1) coefficients
    make Berlekamp-Massey's C unique.  For h = N/D reduced, every valid C
    is D * Q with deg(N * Q) < L = max(deg D, deg N + 1), so Q = 1, C = D
    and nothing is left to cancel.  The numerator is checked over Z.
    """
    if not G.complete:
        raise CertificationError(
            "rational Hilbert series requires a complete Groebner basis "
            "(basis certified only up to degree %d); use hilbert_truncated instead" % G.d_gb
        )
    bound = len(G.automaton.states) * max(G.presentation.max_gen_degree(), 1)
    dims = G.automaton.dims(2 * (bound + 1))
    den = _berlekamp_massey(dims)
    prod = _pmul(dims, den)
    num = _ptrim(prod[: bound + 1])
    if any(prod[bound + 1 : len(dims)]):
        raise ArithmeticError("internal error: numerator not polynomial")
    return RationalSeries(tuple(num), tuple(den), _factor_denominator(den), _pdeg(num) - _pdeg(den))


def _berlekamp_massey(seq):
    """Shortest connection polynomial of the integer sequence `seq` (Massey 1969), over Z.

    Returns C with C[0] = 1 and sum_i C[i] * seq[n - i] = 0 for every n
    from the linear complexity L (at least deg C) up to len(seq) - 1; C is
    unique when len(seq) >= 2 * L.  The update c - (d / last) t^shift b is
    scaled by `last`, then c is divided by its content; `last` stays the
    discrepancy of `b` as stored.  The final division by C[0] is exact for
    a rational integer series (Fatou 1906: its reduced C is in Z[t]).
    """
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for n in range(len(seq)):
        d = sum(c[i] * seq[n - i] for i in range(min(len(c), n + 1)))
        if not d:
            shift += 1
            continue
        prev = c
        c = [last * x for x in c] + [0] * (len(b) + shift - len(c))
        for i, x in enumerate(b):
            c[i + shift] -= d * x
        content = gcd(*c)
        c = [x // content for x in c]
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, prev, d, 1
        else:
            shift += 1
    c = _ptrim(c)
    if any(x % c[0] for x in c):
        raise ArithmeticError("internal error: connection polynomial not integral")
    return [x // c[0] for x in c]


def first_difference(p, h, q, g):
    """The lowest degree where the power series p*h and q*g differ, or None when they agree.

    p, q are coefficient lists and h, g rational series.  Both denominators
    have constant term 1, so this is the lowest nonzero degree of the
    cross-multiplied difference p*N_h*D_g - q*N_g*D_h.
    """
    lhs = _pmul(_pmul(p, list(h.numerator)), list(g.denominator))
    rhs = _pmul(_pmul(q, list(g.numerator)), list(h.denominator))
    return next((j for j, (x, y) in enumerate(zip_longest(lhs, rhs, fillvalue=0)) if x != y), None)


def series_product(h1, h2):
    """h_{A (x) B} = h_A * h_B for exact rational series."""
    return make_rational(_pmul(h1.numerator, h2.numerator), _pmul(h1.denominator, h2.denominator))


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
    num, den = list(h.numerator), list(h.denominator)
    if not _ptrim(num):
        return StanleyVerdict(False)
    lhs = _pmul(num[::-1], den)
    rhs = _pmul(num, den[::-1])
    val_l = next(i for i, c in enumerate(lhs) if c)
    val_r = next(i for i, c in enumerate(rhs) if c)
    m = val_l - val_r
    # the lowest terms fix the sign; any other ratio fails the comparison
    sign = 1 if lhs[val_l] == rhs[val_r] else -1
    if [0] * m + [sign * c for c in rhs] != lhs:
        return StanleyVerdict(False)
    # h(1/t) = t^(degD - degN) revN/revD = sign t^(m + degD - degN) h(t)
    ell = m + (_pdeg(den) - _pdeg(num))
    return StanleyVerdict(True, sign, ell)

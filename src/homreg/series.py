"""Hilbert series: truncated coefficients, exact rational forms, Stanley test.

Rational forms are computed only from complete Groebner bases, via the
path counts of the basis's normal-word automaton (`GroebnerBasis.dims`).
They satisfy a linear recurrence whose order is bounded by the number of
states times the largest generator degree.  `_rational_series` reads the
reduced form off twice that many integer coefficients, for h_A and for
`series_product` alike: fraction-free Berlekamp-Massey over Z gives the
reduced denominator (integral, by Fatou), and the numerator is the
coefficient series multiplied back in, verified over Z to be a
polynomial before anything is returned.  Nothing is cancelled by a gcd.
"""

from __future__ import annotations

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
        num = format_poly(self.numerator)
        if self.is_polynomial():
            return num
        if self.denom_exponents is not None:
            den = "".join("(1-t^%d)" % e if e != 1 else "(1-t)" for e in self.denom_exponents)
        else:
            den = "(" + format_poly(self.denominator) + ")"
        return "(%s) / %s" % (num, den)

    def record(self):
        return {
            "numerator": list(self.numerator),
            "denominator": list(self.denominator),
            "denominator_exponents": list(self.denom_exponents) if self.denom_exponents is not None else None,
            "degree": self.degree,
        }


def format_poly(coeffs):
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


# -- the three series operations ---------------------------------------------


def hilbert_truncated(G, upto):
    """Coefficients dim A_j for j <= upto, from normal-word counts."""
    G.check_degree(upto, "Hilbert coefficients")
    return TruncatedSeries(tuple(G.dims(upto)), upto)


def hilbert_rational(G):
    """Exact rational Hilbert series from a complete Groebner basis:
    h = N / det(I - M(t)) with deg det <= bound and deg N < bound."""
    if not G.complete:
        raise CertificationError(
            "rational Hilbert series requires a complete Groebner basis "
            "(basis certified only up to degree %d); use hilbert_truncated instead" % G.d_gb
        )
    bound = len(G.automaton.states) * max(G.presentation.max_gen_degree(), 1)
    return _rational_series(G.dims(2 * (bound + 1)), bound)


def _rational_series(seq, bound):
    """The reduced series N/D whose coefficients begin with the integers
    `seq`, when its linear complexity L = max(deg D, deg N + 1) is at most
    `bound` and len(seq) >= 2 * bound: then Berlekamp-Massey's C is unique,
    and as every valid C is D * Q with deg(N * Q) < L, Q = 1 and C = D, with
    nothing left to cancel.  The numerator is checked over Z."""
    den = _berlekamp_massey(seq)
    prod = _pmul(seq, den)
    num = _ptrim(prod[: bound + 1])
    if any(prod[bound + 1 : len(seq)]):
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
    """h_{A (x) B} = h_A * h_B for exact rational series.

    N = N_1 N_2 and D = D_1 D_2 can share a factor, as (1 + t) and
    (1 - t^2) do, but N/D (D(0) = 1, so it expands over Z) has linear
    complexity at most b = max(deg D, deg N + 1), which bounds the reduced form.
    """
    num = _pmul(h1.numerator, h2.numerator)
    den = _pmul(h1.denominator, h2.denominator)
    top = _pdeg(den)
    bound = max(top, _pdeg(num) + 1)
    seq = []
    for k in range(2 * (bound + 1) + 1):
        c = num[k] if k < len(num) else 0
        seq.append(c - sum(den[i] * seq[k - i] for i in range(1, min(k, top) + 1)))
    return _rational_series(seq, bound)


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

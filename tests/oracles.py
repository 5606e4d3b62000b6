"""Independent brute-force oracles used to freeze expected test values.

Nothing here goes through the Groebner/normal-form machinery: ideal slice
dimensions are computed as ranks of explicit spanning sets over the full
free-word basis, and series are expanded by naive convolution, so these
can certify the production code paths.  The exceptions are
`ext_reference` and `multiplication_columns`, which check the word
recursion behind Ext and the multiplication maps against one direct
normal form per (map entry x word), `cokernel_dims`, which reads the
cokernels of a finite map through the whole window from those columns,
`two_pass_syzygy_step`, which
checks the resolution's one-elimination step against a separate span
and kernel computation, and `unbounded_resolution`, which runs that
step through d_max at every homological degree.  `hilbert_rational_reference`
is the Fraction route to a rational Hilbert series: Berlekamp-Massey over
Q, `make_rational`'s gcd over Q and trial long division by each (1 - t^e);
`series_product_reference` multiplies two series by the same gcd over Q.
`reference_row_reduce` and
`reference_solve` are dense Gauss-Jordan elimination, for checking
homreg.linalg.

The eliminations here use no homreg scalar code: over F_p they compute on
ints with an explicit `% p` after every step and `pow(x, -1, p)` for
inverses, over Q on `Fraction`s.  `p` is the field's modulus, 0 for Q.

`src_env` is the environment for a test's subprocess that imports this
checkout's homreg.
"""

import os
from fractions import Fraction

from homreg.corealg import ModulePresentation, Poly, make_module_presentation
from homreg.linalg import complement_basis, row_reduce
from homreg.resolution import (
    FreeLayer,
    PresentedModuleView,
    _certify_termination,
    _images,
    _syzygy_step,
)
from homreg.series import RationalSeries, _factor_denominator, _pdeg, _ptrim


def src_env():
    """The environment for a subprocess that imports this checkout's homreg."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def word_poly(pres, word):
    """The monomial `word` as a polynomial over `pres`."""
    return Poly({bytes(word): 1}, pres.word_degree(word), pres.field.modulus)


def one(pres):
    """The unit 1 as a polynomial over `pres`."""
    return word_poly(pres, b"")


def free_words(gen_degs, degree):
    """All words over the generators with the given total weighted degree."""
    out = []

    def extend(word, rem):
        if rem == 0:
            out.append(bytes(word))
            return
        for g, dg in enumerate(gen_degs):
            if dg <= rem:
                word.append(g)
                extend(word, rem - dg)
                word.pop()

    extend([], degree)
    return out


def ideal_slice_spanning_set(pres, j):
    """The products u * r * v of degree j, over all relations r and free words u, v.

    Each is a dict word -> scalar; together they span the degree-j slice
    of the two-sided ideal.
    """
    for r in pres.relations:
        rem = j - r.degree
        if rem < 0:
            continue
        for du in range(rem + 1):
            for u in free_words(pres.gen_degs, du):
                for v in free_words(pres.gen_degs, rem - du):
                    yield {u + w + v: c for w, c in r.terms.items()}


def _reduce(x, p):
    """x mod p over F_p; x itself over Q (p = 0)."""
    return x % p if p else x


def _inverse(x, p):
    """1 / x: `pow(x, -1, p)` over F_p, a Fraction over Q (p = 0)."""
    return pow(x, -1, p) if p else 1 / Fraction(x)


def ideal_slice_dim(pres, j):
    """dim of the degree-j slice of the two-sided ideal, by brute force.

    The rank of the spanning set is an exact row reduction over the full
    degree-j free-word basis.
    """
    basis = {w: i for i, w in enumerate(free_words(pres.gen_degs, j))}
    p = pres.field.modulus
    rows = []
    for terms in ideal_slice_spanning_set(pres, j):
        vec = [0] * len(basis)
        for w, c in terms.items():
            vec[basis[w]] += c
        rows.append(vec)
    # plain forward elimination, kept separate from homreg.linalg
    rank = 0
    pivots = {}
    for row in rows:
        row = [_reduce(x, p) for x in row]
        for q in sorted(pivots):
            f = row[q]
            if f:
                prow = pivots[q]
                for k in range(q, len(row)):
                    if prow[k]:
                        row[k] = _reduce(row[k] - f * prow[k], p)
        lead = next((k for k, x in enumerate(row) if x), None)
        if lead is not None:
            inv = _inverse(row[lead], p)
            pivots[lead] = [_reduce(x * inv, p) for x in row]
            rank += 1
    return rank


def scalar(field, n):
    """The integer n as a coordinate-vector scalar: n mod p over F_p, the int n over Q."""
    return n % field.modulus if field.modulus else n


def reference_row_reduce(rows, ncols, field):
    """(rank, pivots, rref, kernel) of dict rows, by dense Gauss-Jordan elimination.

    The loop runs on residues in [0, p) over F_p and on `Fraction`s over Q,
    separately from homreg.linalg.  The rref rows and kernel vectors (one
    per free column, ascending) come back as dicts without zeros.
    """
    m = field.modulus
    dense = [[0] * ncols for _ in rows]
    for d, row in zip(dense, rows):
        for k, x in row.items():
            d[k] = x % m if m else Fraction(x)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = _inverse(dense[r][c], m)
        dense[r] = [_reduce(x * inv, m) for x in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][c]:
                f = dense[i][c]
                dense[i] = [_reduce(a - f * b, m) for a, b in zip(dense[i], dense[r])]
        pivots.append(c)
    rref = [{k: x for k, x in enumerate(row) if x} for row in dense[: len(pivots)]]
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            v = {f: 1}
            for row, p in zip(dense, pivots):
                if row[f]:
                    v[p] = _reduce(-row[f], m)
            kernel.append(v)
    return len(pivots), tuple(pivots), rref, kernel


def reference_solve(rows, ncols, rhs, field):
    """The solution of (rows) * x = rhs with free variables zero, or None.

    Read off `reference_row_reduce` of the augmented matrix; `rhs` maps
    row index to value.
    """
    aug = [dict(row) for row in rows]
    for t, b in rhs.items():
        aug[t][ncols] = b
    _, pivots, rref, _ = reference_row_reduce(aug, ncols + 1, field)
    if ncols in pivots:
        return None
    return {p: row[ncols] for row, p in zip(rref, pivots) if ncols in row}


def _clear_pivots(terms, echelon, p):
    """`terms` minus multiples of echelon rows, until no pivot word is left."""
    row = {w: r for w, c in terms.items() if (r := _reduce(c, p))}
    while True:
        hits = [w for w in row if w in echelon]
        if not hits:
            return row
        w = min(hits)
        f = row[w]
        for u, a in echelon[w].items():
            s = _reduce(row.get(u, 0) - f * a, p)
            if s:
                row[u] = s
            else:
                row.pop(u, None)


def ideal_slice_echelon(pres, j):
    """Echelon rows spanning the degree-j slice of the ideal, keyed by pivot word.

    Each row is a dict word -> scalar whose greatest word (the least index
    tuple) is its pivot, with coefficient 1; no row holds another row's
    pivot word.  So the pivots are the leading words of the slice, and the
    other words of degree j are the normal words.
    """
    p = pres.field.modulus
    echelon = {}
    for terms in ideal_slice_spanning_set(pres, j):
        row = _clear_pivots(terms, echelon, p)
        if not row:
            continue
        lead = min(row)
        inv = _inverse(row[lead], p)
        row = {w: _reduce(c * inv, p) for w, c in row.items()}
        for other in echelon.values():
            f = other.get(lead)
            if f:
                for u, a in row.items():
                    s = _reduce(other.get(u, 0) - f * a, p)
                    if s:
                        other[u] = s
                    else:
                        other.pop(u, None)
        echelon[lead] = row
    return echelon


def free_normal_form(echelon, terms, p):
    """The normal form of `terms` (word -> scalar, one degree), by linear algebra.

    `echelon` is `ideal_slice_echelon` of that degree.  The result differs
    from `terms` by an element of the ideal and holds normal words only, so
    it is the unique normal form, computed without any Groebner basis.
    """
    return _clear_pivots(terms, echelon, p)


def _rank(vectors, p):
    """Rank of dict vectors with comparable keys, by plain forward elimination."""
    echelon = {}
    for terms in vectors:
        row = _clear_pivots(terms, echelon, p)
        if row:
            lead = min(row)
            inv = _inverse(row[lead], p)
            echelon[lead] = {k: _reduce(c * inv, p) for k, c in row.items()}
    return len(echelon)


def map_entries(R, G, i):
    """entries[r][s]: the Poly entry of the differential F_{i+1} -> F_i of R.

    Column s is syzygy s of `R.maps[i]` read slot by slot on F_i, so entry
    (r, s) has degree b_s - a_r (the zero polynomial allowed).
    """
    layer = FreeLayer(G, R.shifts[i])
    return tuple(zip(*(layer.polys(b, vec) for b, vec in R.maps[i])))


def ext_reference(R, G, windows):
    """Ext^i(k, A)_j ranks on `windows` ({i: (j_lo, j_hi)}) of a resolution R.

    C^i_j = Hom(F_i, A)_j has basis (r, w), w normal of degree j + b_r, and
    the dual differential sends it to the vector whose s-entry is the normal
    form of m_rs * w: one normal form per (map entry x word), no recursion.
    """
    pres = G.presentation

    def basis(i, j):
        return [(r, w) for r, b in enumerate(R.shifts[i]) for w in G.normal_words(j + b)]

    def rank(i, j):
        if not 0 <= i < len(R.maps):
            return 0
        entries = map_entries(R, G, i)
        vectors = []
        for r, w in basis(i, j):
            vec = {}
            for s, p in enumerate(entries[r]):
                for u, c in G.normal_form(p * word_poly(pres, w)).terms.items():
                    vec[(s, u)] = c
            vectors.append(vec)
        return _rank(vectors, pres.field.modulus)

    entries = {}
    for i, (lo, hi) in windows.items():
        for j in range(lo, hi + 1):
            ext = len(basis(i, j)) - rank(i, j) - rank(i - 1, j)
            if ext:
                entries[(i, j)] = ext
    return entries


def multiplication_columns(G, f, j, left=True):
    """Matrix of w |-> f*w (left) or w |-> w*f on A_j, one column per normal word.

    Each column holds the coordinates of the direct normal form of the
    product in the degree-(j + deg f) normal basis.
    """
    index = {w: i for i, w in enumerate(G.normal_words(j + f.degree))}
    cols = []
    for w in G.normal_words(j):
        x = word_poly(G.presentation, w)
        q = G.normal_form(f * x if left else x * f)
        cols.append({index[u]: c for u, c in q.terms.items()})
    return cols


def cokernel_dims(G, images, d_max, left=True):
    """dim of A/f(T_+)A (left) or A/A f(T_+) in every degree 0..d_max, with no stop.

    Degree j is dim A_j minus the rank of the products f*w (left) or w*f,
    each image f times each normal word w of degree j - deg f, each taken
    by one direct normal form (`multiplication_columns`).
    """
    out = []
    for j in range(d_max + 1):
        cols = [c for f in images if f.degree <= j for c in multiplication_columns(G, f, j - f.degree, left)]
        out.append(len(G.normal_words(j)) - _rank(cols, G.presentation.field.modulus))
    return tuple(out)


def two_pass_syzygy_step(G, target, K, d_max):
    """Minimal generators of the submodule K of `target` and the kernel of their cover.

    Two eliminations per degree j.  The products g*kappa of each algebra
    generator g with the K vectors of degree j - deg g span (A_+K)_j, and
    first-fit `complement_basis` picks the K_j vectors outside that span as
    new generators.  Then the cover's images of layer.basis(j) are
    row-reduced by `row_reduce` over all of target_j for the canonical
    kernel.  `K[j]` is a list of vectors; returns the generators as
    (degree, vector) pairs and the kernel as {degree: list of vectors}.
    """
    pres = G.presentation
    gens = []
    for j, kj in K.items():
        span = []
        for g in range(pres.n_gens):
            j0 = j - pres.gen_degs[g]
            span.extend(target.act_vec(g, j0, kappa) for kappa in K.get(j0, ()))
        gens.extend((j, v) for v in complement_basis(span, kj, pres.field))
    layer = FreeLayer(G, [j for j, _ in gens])
    kernel = {}
    for j, cols in _images(target, layer, [v for _, v in gens], min(layer.shifts, default=0), d_max):
        rows = [{} for _ in range(target.dim(j))]
        for c, col in enumerate(cols):
            for t, a in col.items():
                rows[t][c] = a
        kernel[j] = row_reduce(rows, len(cols), pres.field).kernel
    return gens, kernel


def suffix_scan_automaton(leads, n_letters):
    """(states, delta) of the leading-word automaton, read off its definition.

    The states are the proper prefixes of `leads` in (len, word) order;
    delta[s][a] is ~i when states[s] + bytes((a,)) ends in leads[i], else the
    index of its longest suffix that is a state, found by scanning every
    suffix (no failure links), for checking `gbasis.WordAutomaton`.
    """
    prefixes = {b""} | {u[:k] for u in leads for k in range(1, len(u))}
    states = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
    index = {w: i for i, w in enumerate(states)}
    ends = {u: i for i, u in enumerate(leads)}
    delta = []
    for s in states:
        row = []
        for a in range(n_letters):
            w = s + bytes((a,))
            suffixes = [w[k:] for k in range(len(w) + 1)]  # longest first
            dead = [ends[v] for v in suffixes if v in ends]
            row.append(~dead[0] if dead else next(index[v] for v in suffixes if v in index))
        delta.append(tuple(row))
    return states, tuple(delta)


def brute_algebra_dim(pres, j):
    """dim A_j = (# free words of degree j) - (ideal slice dimension)."""
    return len(free_words(pres.gen_degs, j)) - ideal_slice_dim(pres, j)


def one_minus_t_product(exponents):
    """prod (1 - t^e) over `exponents`, expanded by direct convolution."""
    den = [1]
    for e in exponents:
        new = [0] * (len(den) + e)
        for i, c in enumerate(den):
            new[i] += c
            new[i + e] -= c
        den = new
    return den


def expand_quotient(numerator, denom_exponents, upto):
    """Coefficients of numerator / prod(1 - t^e), by direct convolution."""
    return expand_series(numerator, one_minus_t_product(denom_exponents), upto)


def expand_series(numerator, denominator, upto):
    """Coefficients of numerator / denominator (constant term 1) through degree upto."""
    out = []
    for k in range(upto + 1):
        acc = Fraction(numerator[k] if k < len(numerator) else 0)
        for i in range(1, min(k, len(denominator) - 1) + 1):
            acc -= denominator[i] * out[k - i]
        assert acc.denominator == 1
        out.append(int(acc))
    return out


def berlekamp_massey_over_q(seq):
    """Shortest connection polynomial of `seq` over Q (Massey 1969), C[0] = 1, trailing zeros trimmed."""
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
    while not c[-1]:
        c.pop()
    return c


def one_minus_t_exponents(den):
    """`den` as prod (1 - t^e_i), exponents ascending, by trial long division from the top; else None."""
    den = [Fraction(c) for c in den]
    while den and not den[-1]:
        den.pop()
    if den == [1]:
        return ()
    top = len(den) - 1
    for e in range(1, top + 1):
        r, q = list(den), [Fraction(0)] * (top - e + 1)
        for k in range(top, e - 1, -1):
            q[k - e] = -r[k]  # (1 - t^e) leads with -t^e
            r[k - e] += r[k]
            r[k] = 0
        if not any(r):
            rest = one_minus_t_exponents(q)
            if rest is not None:
                return tuple(sorted((e,) + rest))
    return None


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


def hilbert_rational_reference(G):
    """The rational Hilbert series of a complete basis G by the Fraction route:
    Berlekamp-Massey over Q on the same 2 * (bound + 1) + 1 coefficients as
    `hilbert_rational`, the numerator by convolution, cancelled and scaled by
    `make_rational`'s gcd over Q, exponents by `one_minus_t_exponents`."""
    bound = len(G.automaton.states) * max(G.presentation.max_gen_degree(), 1)
    dims = [Fraction(c) for c in G.automaton.dims(2 * (bound + 1))]
    den = berlekamp_massey_over_q(dims)
    prod = [sum(dims[i] * den[k - i] for i in range(k + 1) if k - i < len(den)) for k in range(len(dims))]
    assert not any(prod[bound + 1 :])
    h = make_rational(prod[: bound + 1], den)
    return RationalSeries(h.numerator, h.denominator, one_minus_t_exponents(h.denominator), h.degree)


def series_product_reference(h1, h2):
    """h1 * h2 by the Fraction route: the product's numerator and denominator
    cancelled by `make_rational`'s gcd over Q, exponents by `one_minus_t_exponents`."""
    num = _pmul_reference(h1.numerator, h2.numerator)
    h = make_rational(num, _pmul_reference(h1.denominator, h2.denominator))
    return RationalSeries(h.numerator, h.denominator, one_minus_t_exponents(h.denominator), h.degree)


def _pmul_reference(a, b):
    """The product of two coefficient lists, by direct convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eval_rational(rs, t0):
    """Evaluate a RationalSeries exactly at a rational point."""
    num = sum(Fraction(c) * t0**i for i, c in enumerate(rs.numerator))
    den = sum(Fraction(c) * t0**i for i, c in enumerate(rs.denominator))
    return num / den


def shift_module(mpres, ell):
    """M(ell): generator and relation degrees all drop by ell."""
    return ModulePresentation(
        mpres.algebra,
        mpres.side,
        tuple(d - ell for d in mpres.gen_degs),
        mpres.rows,
        tuple(d - ell for d in mpres.row_degrees),
    )


def semisimple_module(pres, degrees):
    """k(-d_1) (+) ... (+) k(-d_r): every algebra generator acts as zero."""
    rows = []
    for r in range(len(degrees)):
        for g in range(pres.n_gens):
            row = [pres.gen_poly(g) if s == r else None for s in range(len(degrees))]
            rows.append(row)
    return make_module_presentation(pres, "left", degrees, rows)


def random_fdim_module(pres, G, rng, n_gens=2, cutoff=3):
    """A random module presentation that is provably finite dimensional.

    Random generators in degrees 0..1 and a few random relation rows, then
    a killing band wide enough that all pieces above the cutoff vanish.
    """
    degrees = [0] + [rng.choice([0, 1]) for _ in range(n_gens - 1)]
    field = pres.field
    rows = []
    for _ in range(rng.randrange(0, 3)):
        rdeg = rng.choice([1, 2])
        row = []
        for a in degrees:
            e = rdeg - a
            words = list(G.normal_words(e)) if e >= 0 else []
            terms = {}
            for w in words:
                c = rng.randrange(-2, 3)
                if c:
                    terms[w] = c
            row.append(Poly.make(terms, pres.gen_degs, field.modulus))
        if any(p for p in row):
            rows.append(row)
    width = pres.max_gen_degree()
    for j in range(cutoff, cutoff + width + 1):
        for r, a in enumerate(degrees):
            if j - a < 0:
                continue
            for w in G.normal_words(j - a):
                row = [
                    word_poly(pres, w) if s == r else None for s in range(len(degrees))
                ]
                rows.append(row)
    return make_module_presentation(pres, "left", degrees, rows)


def unbounded_resolution(G, mpres, i_max, d_max, algebra_hilbert=None):
    """`minimal_resolution` of a presented module with every step run through d_max.

    No step stops at a chain bound.  Returns (shifts, maps, terminated,
    termination_step, certificate) as the `Resolution` fields would hold
    them, the certificate read as `minimal_resolution` reads it.
    """
    view = PresentedModuleView(G, mpres, d_max)
    layer, _, K = _syzygy_step(G, view, view.units(d_max), d_max, d_max)
    shifts, maps = [layer.shifts], []
    for i in range(1, i_max + 2):
        if not any(K.values()):
            cert = _certify_termination(G, view, shifts, d_max, algebra_hilbert)
            return tuple(shifts), tuple(maps), cert is not None, i - 1 if cert else None, cert
        if i == i_max + 1:
            break
        layer_i, gens, K = _syzygy_step(G, layer, K, d_max, d_max)
        maps.append(tuple(gens))
        shifts.append(layer_i.shifts)
        layer = layer_i
    return tuple(shifts), tuple(maps), False, None, None


def random_algebra_source(rng, field):
    """A presentation text: 2-3 generators, one of degree 2 in a fifth of the
    draws, and 1-3 relations of degree 2-4 with 1-3 terms each."""
    n = rng.randint(2, 3)
    degs = [1] * n
    if rng.random() < 0.2:
        degs[-1] = 2
    names = "xyz"[:n]
    rels = []
    for _ in range(rng.randint(1, 3)):
        words = free_words(degs, rng.randint(2, 4))
        terms = rng.sample(words, min(len(words), rng.randint(1, 3)))
        rels.append("".join(
            "%+d*%s" % (rng.choice((1, -1)) * rng.randint(1, 3), "*".join(names[g] for g in w))
            for w in terms
        ).lstrip("+"))
    gens = " ".join("%s:%d" % (a, d) for a, d in zip(names, degs))
    return "field %s; gens %s; rels %s" % (field, gens, ", ".join(rels))


def random_monomial_source(rng, field):
    """A presentation text: 2-3 generators of degree 1-2 and 1-4 relations,
    each one word of length 2-5."""
    n = rng.randint(2, 3)
    names = "xyz"[:n]
    gens = " ".join("%s:%d" % (a, rng.randint(1, 2)) for a in names)
    rels = ("*".join(rng.choice(names) for _ in range(rng.randint(2, 5))) for _ in range(rng.randint(1, 4)))
    return "field %s; gens %s; rels %s" % (field, gens, ", ".join(rels))

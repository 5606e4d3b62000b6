"""Seeded finite-dimensional modules over F101 and their brute-force oracles.

Nothing here imports homreg.  A module is written as module-file text and
homreg only ever sees that text (through `parse_module`).  Its Hilbert
function is computed here by exact elimination over the free algebra, and
the algebra's Hilbert series and Torreg(k) are the textbook values for the
two AS regular algebras used, so every expected value is independent of the
code under test.
"""

import itertools
import random

P = 101

# relations as {word: coefficient}; words are strings over the generator letters
ALGEBRAS = {
    # AS regular of dimension 3 with two cubic relations: h = 1/((1-t)^2 (1-t^2)),
    # minimal resolution of k: A <- A(-1)^2 <- A(-3)^2 <- A(-4), so Torreg(k) = 1
    "T": {
        "gens": "xy",
        "rels": [{"xxy": 1, "yxx": -1}, {"xyy": 1, "yyx": -1}],
        "denominator": (1, 1, 2),
        "torreg_k": 1,
    },
    # the commutative plane k[x,y]: h = 1/(1-t)^2, Koszul, so Torreg(k) = 0
    "plane": {
        "gens": "xy",
        "rels": [{"xy": 1, "yx": -1}],
        "denominator": (1, 1),
        "torreg_k": 0,
    },
}

# every module: generators in degrees 0 and 1, two relation rows of degrees 1
# and 2 with random nonzero coefficients on every word of positive degree (no
# scalar entries, so the presentation is minimal; no zero coefficients, so
# every seed gives a module of the same shape and much the same cost), and
# every free word of degree CUTOFF - a_r killed in each slot, so M_j = 0 for
# j >= CUTOFF and M is finite dimensional
GEN_DEGS = (0, 1)
ROW_DEGS = (1, 2)
CUTOFF = 3


def presentation_text(label):
    alg = ALGEBRAS[label]
    gens = " ".join("%s:1" % g for g in alg["gens"])
    rels = []
    for rel in alg["rels"]:
        text = ""
        for w, c in rel.items():
            sign = "-" if c < 0 else "+"
            coef = "" if abs(c) == 1 else "%d*" % abs(c)
            text += " %s %s%s" % (sign, coef, "*".join(w))
        rels.append(text.strip().lstrip("+ "))
    return "field F%d; gens %s; rels %s" % (P, gens, ", ".join(rels))


def words(gens, degree):
    return ["".join(w) for w in itertools.product(gens, repeat=degree)]


def random_module(label, rng):
    """One module as (text, rows); rows are lists of {word: coeff} per slot."""
    gens = ALGEBRAS[label]["gens"]
    rows = []
    for rdeg in ROW_DEGS:
        rows.append([
            {w: rng.randrange(1, P) for w in words(gens, rdeg - a)} if rdeg > a else {} for a in GEN_DEGS
        ])
    kill = []
    for r, a in enumerate(GEN_DEGS):
        for w in words(gens, CUTOFF - a):
            row = [{} for _ in GEN_DEGS]
            row[r] = {w: 1}
            kill.append(row)
    text_rows = []
    for row in rows + kill:
        terms = []
        for r, entry in enumerate(row):
            for w, c in entry.items():
                terms.append("%d*%se%d" % (c, "".join(ch + "*" for ch in w), r))
        text_rows.append(" + ".join(terms))
    text = "side left\ngens %s\nrels %s\n" % (" ".join(map(str, GEN_DEGS)), ", ".join(text_rows))
    return text, rows


def modules(seed, count):
    """`count` modules per algebra, alternating T and plane, fixed by `seed`."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        for label in ("T", "plane"):
            text, rows = random_module(label, rng)
            out.append({"algebra": label, "index": k, "text": text, "rows": rows})
    return out


# ---------------------------------------------------------------------------
# oracles


def _rank_mod_p(vectors):
    pivots = {}
    for v in vectors:
        v = dict(v)
        while v:
            lead = min(v)
            if lead not in pivots:
                inv = pow(v[lead], P - 2, P)
                pivots[lead] = {k: c * inv % P for k, c in v.items()}
                break
            m = v[lead]
            for k, c in pivots[lead].items():
                x = (v.get(k, 0) - m * c) % P
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
    return len(pivots)


def module_hilbert(label, rows):
    """dim M_j for j < CUTOFF (and 0 above) by elimination in the free algebra.

    M_j = F_j / N_j with F the free module over the free algebra on the
    generators, and N spanned by (two-sided ideal of the relations) * e_r
    and by u * row for every word u.
    """
    alg = ALGEBRAS[label]
    gens = alg["gens"]
    dims = []
    for j in range(CUTOFF):
        span = []
        for r, a in enumerate(GEN_DEGS):
            e = j - a
            for rel in alg["rels"]:
                rd = len(next(iter(rel)))
                for du in range(e - rd + 1):
                    for u in words(gens, du):
                        for v in words(gens, e - rd - du):
                            span.append({(r, u + w + v): c % P for w, c in rel.items()})
        for row, rdeg in zip(rows, ROW_DEGS):
            if j < rdeg:
                continue
            for u in words(gens, j - rdeg):
                vec = {}
                for r, entry in enumerate(row):
                    for w, c in entry.items():
                        key = (r, u + w)
                        vec[key] = (vec.get(key, 0) + c) % P
                span.append({k: c for k, c in vec.items() if c})
        free = sum(len(words(gens, j - a)) for a in GEN_DEGS if j >= a)
        dims.append(free - _rank_mod_p([v for v in span if v]))
    return dims


def series_coefficients(denominator, upto):
    """Coefficients of 1 / prod(1 - t^e) through t^upto."""
    out = [1] + [0] * upto
    for e in denominator:
        for k in range(e, upto + 1):
            out[k] += out[k - e]
    return out


def check_resolution(label, rows, betti, terminated, d_max):
    """Problems found in one module's Betti table (an empty list means correct).

    `betti` maps (i, j) to beta_{i,j}.  Checks termination, the Euler
    identity sum_i (-1)^i beta_i(t) h_A(t) = h_M(t) through t^d_max, and
    Torreg(M) <= deg M + Torreg(k).
    """
    alg = ALGEBRAS[label]
    problems = []
    if not terminated:
        problems.append("resolution did not terminate")
    h_m = module_hilbert(label, rows) + [0] * (d_max + 1 - CUTOFF)
    h_a = series_coefficients(alg["denominator"], d_max)
    euler = [0] * (d_max + 1)
    for (i, j), b in betti.items():
        for k in range(j, d_max + 1):
            euler[k] += (-1) ** i * b * h_a[k - j]
    if euler != h_m:
        problems.append("Euler identity fails: %s != %s" % (euler, h_m))
    deg_m = max(j for j, d in enumerate(h_m) if d)
    torreg = max(j - i for (i, j) in betti)
    if torreg > deg_m + alg["torreg_k"]:
        problems.append("Torreg(M) = %d > deg M + Torreg(k) = %d" % (torreg, deg_m + alg["torreg_k"]))
    return problems

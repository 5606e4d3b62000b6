"""Minimal graded free resolutions by degreewise syzygy computation.

The engine works one internal degree at a time.  In each step
(`_syzygy_step`) the images of the generators found below degree j are
evaluated once on the normal-word basis; they span the part of the
kernel K_j that lower degrees generate, and they are the next map's
matrix.  One exact elimination of them against K_j gives both the
minimal new generators, first fit among the K_j basis vectors outside
that span, and the canonical kernel of the next map.  Everything below
the truncation bound (i_max, d_max) is exact; nothing above it is ever
guessed.

One evaluator, `_images`, computes every graded map on normal-word bases:
the resolution's differentials, the relation span of a presented module,
the dual differential of Ext(k, A) and the multiplication maps
w -> f*w, w*f of the constructions (`multiplication_images`).  The image
of a basis element (r, w) is one generator acting on the image of
(r, w minus that letter), so the only normal forms taken are of single
words (memoized by the Groebner basis) and of the inputs as given.

A module enters as a view that gives its graded pieces and generator
actions: `PresentedModuleView` for a presented module, `MappedAlgebraView`
for an algebra A along generator images of a map T -> A, which
`AlgebraPresentation.map_images` checks.
`minimal_resolution` resolves either, so A is resolved over T without
first being written out as a presentation.

Over a complete basis, Anick's chains (`_chain_bound`) also limit the
degrees each step computes.  When a view's own zero-band series is a
polynomial of top degree tau (k and every finite-dimensional module seen
to vanish), every generator of step i lies at or below B_i = (chain
bound of step i) + tau.  So step i finds generators only through B_i and
computes its kernel only through max(B_i, B_{i+1}), never past d_max.
Above B_i it does not read K_{i-1}, which the step before did not
compute there: the kernel is the null space of the images in the
target's own coordinates.  The check that the images lie in K_{i-1} is
moot there, as they are A-multiples of images already checked at or
below B_i.  A caller's `module_hilbert` never sets the bound, and
without a complete basis or such a series every step runs to d_max.

Coordinate vectors hold the same scalars as polynomials (see `corealg`);
`FreeLayer.coords` and `FreeLayer.polys` read one as the other on a
layer's normal-word basis.

Termination (a zero kernel, hence finite projective dimension) is only
declared with one of two certificates:

  * "socle-window"  - the algebra is finite dimensional with top degree D
    and the window clears max-shift + D, so a nonzero kernel would show a
    socle element inside the window;
  * "euler-exact"   - the alternating sum of shift polynomials times the
    exact rational Hilbert series of the algebra equals the module's.  For
    a finite-dimensional M the basis must be complete and, with w the
    widest generator and D the top leading-word degree, Anick's chains
    (Trans. AMS 296, 1986) must put every computed step inside the window:
    t_1(M) <= w + top(M), t_i(M) <= D + (i-2)(D-1) + top(M) for i >= 2.
    Then the truncated complex is the true one and the identity forces the
    last kernel to be zero.  For an infinite-dimensional M, whose series
    only a caller passes, this is unproven: homology above d_max may cancel.
"""

from __future__ import annotations


from . import linalg
from .corealg import (
    LETTERS,
    NEG_INF,
    CertificationError,
    ModulePresentation,
    Poly,
    PresentationError,
    Record,
    make_module_presentation,
)
from .series import RationalSeries, _pmul, _ptrim


# ---------------------------------------------------------------------------
# graded module views


class FreeLayer:
    """Graded pieces of a free module (+)_r A(-a_r) over normal words.

    A left layer is acted on from the left; a right layer, such as a dual
    module Hom(F, A), from the right.  The side is fixed at construction.
    """

    def __init__(self, G, shifts, right=False):
        self.G = G
        self.shifts = tuple(shifts)
        self.right = right
        self.modulus = G.presentation.field.modulus
        self._basis = {}
        self._index = {}

    def min_degree(self):
        return min(self.shifts) if self.shifts else 0

    def basis(self, j):
        b = self._basis.get(j)
        if b is None:
            b = []
            for r, a in enumerate(self.shifts):
                if j - a >= 0:
                    for w in self.G.normal_words(j - a):
                        b.append((r, w))
            b = tuple(b)
            self._basis[j] = b
            self._index[j] = {x: i for i, x in enumerate(b)}
        return b

    def index(self, j):
        self.basis(j)
        return self._index[j]

    def dim(self, j):
        return len(self.basis(j))

    def coords(self, polys, j):
        """Coordinates of sum_r polys[r] e_r, for normal polys of total degree j."""
        index = self.index(j)
        return {index[(r, u)]: c for r, p in enumerate(polys) for u, c in p.terms.items()}

    def polys(self, j, vec):
        """The element with degree-j coordinates `vec`, as one Poly per slot."""
        basis = self.basis(j)
        terms = [{} for _ in self.shifts]
        for idx, c in sorted(vec.items()):  # Poly.make drops zero values
            r, u = basis[idx]
            terms[r][u] = c
        return tuple(Poly.make(t, self.G.presentation.gen_degs, self.modulus) for t in terms)

    def add_slot(self, a):
        """Append a generator of degree a once basis(a) is cached; (r, b"") goes last there."""
        self._index[a][(len(self.shifts), b"")] = len(self._basis[a])
        self._basis[a] += ((len(self.shifts), b""),)
        self.shifts += (a,)

    def act_vec(self, g, j, vec):
        """Generator g times a degree-j coordinate vector, on the layer's side."""
        dg = self.G.presentation.gen_degs[g]
        target = self._index.get(j + dg) or self.index(j + dg)  # one dict read when cached
        src = self._basis.get(j) or self.basis(j)
        nf_word = self.G.nf_word
        letter = LETTERS[g]
        right = self.right
        out = {}
        for idx, c in vec.items():
            if not c:
                continue
            r, u = src[idx]
            for u2, c2 in nf_word(u + letter if right else letter + u):
                k = target[(r, u2)]
                out[k] = out[k] + c * c2 if k in out else c * c2
        return linalg.reduced(out, self.modulus)


class _ModuleView:
    """A graded left module given degreewise by generator action matrices.

    Subclasses supply `dim(j)`, `min_degree`, an `_act_cols` dict
    {(g, j): columns}, either filled in advance or on demand by
    `_build_act_columns(g, j)`, and two attributes for `minimal_resolution`:
    `top`, a degree that no known generator lies above, and `hilbert`, the
    exact Hilbert series when a zero band certifies it, else None.
    """

    def act_columns(self, g, j):
        """Images of the degree-j basis under generator g, as columns."""
        key = (g, j)
        cols = self._act_cols.get(key)
        if cols is None:
            cols = self._act_cols[key] = self._build_act_columns(g, j)
        return cols

    def units(self, d_max):
        """The whole module as `_syzygy_step`'s K: the unit vectors of each degree."""
        return {j: {b: {b: 1} for b in range(self.dim(j))} for j in range(self.min_degree, d_max + 1)}

    def act_vec(self, g, j, vec):
        if not vec:
            return {}
        cols = self.act_columns(g, j)
        out = {}
        for b, c in vec.items():
            if not c:
                continue
            for t, a in cols[b].items():
                out[t] = out[t] + c * a if t in out else c * a
        return linalg.reduced(out, self.G.presentation.field.modulus)

    def _final_series(self, j):
        """The Hilbert series once every piece above j vanishes; coefficients from min(0, lowest)."""
        nonzero = [i for i in range(self.min_degree, j) if self.dim(i)]
        if not nonzero:
            return RationalSeries((0,), (1,), (), NEG_INF)
        coeffs = tuple(self.dim(i) for i in range(min(nonzero[0], 0), nonzero[-1] + 1))
        return RationalSeries(coeffs, (1,), (), nonzero[-1])


class PresentedModuleView(_ModuleView):
    """Graded pieces of a presented module F/N in canonical coordinates.

    Coordinates at each degree are the non-pivot columns of the reduced
    relation span N_j inside the ambient free piece F_j, so every basis
    choice downstream is deterministic.
    """

    def __init__(self, G, mpres, d_max):
        if mpres.side != "left":
            raise PresentationError(
                "the resolution engine takes left modules; convert with opposite_module"
            )
        self.G = G
        self.ambient = FreeLayer(G, mpres.gen_degs)
        self.min_degree = min(mpres.gen_degs) if mpres.gen_degs else 0
        self.top = max(mpres.gen_degs, default=0)
        self._echelon = {}
        self._free_cols = {}  # j -> {free ambient column: coordinate}
        self._act_cols = {}
        # the exact polynomial Hilbert series once a zero band of width
        # max(algebra generator degree) above both the top nonzero degree and
        # the top module generator degree forces all higher pieces to vanish
        self.hilbert = None
        # N is the image of the free module on the relation rows, so only the
        # rows themselves need normal forms; rows above d_max are never read
        rows = [
            self.ambient.coords([G.normal_form(p) for p in row], rdeg) if rdeg <= d_max else None
            for row, rdeg in zip(mpres.rows, mpres.row_degrees)
        ]
        spans = _images(self.ambient, FreeLayer(G, mpres.row_degrees), rows, self.min_degree, d_max)
        degs = G.presentation.gen_degs
        band = 0
        for j, span in spans:
            # above the generator degrees M_j = sum_g x_g M_{j - deg x_g}, so zero if those are
            if j <= self.top or any(self.dim(j - dg) for dg in degs):
                ech = self._echelon[j] = linalg.Echelon(G.presentation.field, span)
                free = (c for c in range(self.ambient.dim(j)) if c not in ech.rows)
                self._free_cols[j] = {c: i for i, c in enumerate(free)}
            if j > self.top:
                # a zero band as wide as the widest generator forces M = 0 above it
                band = 0 if self.dim(j) else band + 1
                if band >= G.presentation.max_gen_degree():
                    self.hilbert = self._final_series(j)
                    break

    def dim(self, j):
        return len(self._free_cols.get(j, ()))

    def _project(self, j, ambient_vec):
        # the residue is zero in the pivot columns, so its keys are free columns
        coord = self._free_cols.get(j)
        if not coord:
            return {}
        return {coord[c]: x for c, x in self._echelon[j].residue(ambient_vec).items()}

    def _build_act_columns(self, g, j):
        dg = self.G.presentation.gen_degs[g]
        return [
            self._project(j + dg, self.ambient.act_vec(g, j, {c: 1}))
            for c in self._free_cols.get(j, ())
        ]


class MappedAlgebraView(_ModuleView):
    """An algebra A as a graded left T-module through generator images, up to d_max.

    `AlgebraPresentation.map_images` checks the images.  Coordinates at each
    degree are A's normal words.  `top` is A's top nonzero degree through d_max.
    """

    def __init__(self, G_T, images, G_A, d_max):
        T, A = G_T.presentation, G_A.presentation
        images = T.map_images(A, images)
        self.G = G_T
        self.G_A = G_A
        self.d_max = d_max
        self.min_degree = 0
        degs = T.gen_degs
        # generator g acts on A_j by w -> images[g] * w, one column per normal word
        self._act_cols = {(g, j): [] for g, dg in enumerate(degs) for j in range(d_max - dg + 1)}
        layer, products = multiplication_images(G_A, images, d_max)
        for j, cols in products:
            for (g, _), col in zip(layer.basis(j), cols):
                self._act_cols[(g, j - degs[g])].append(col)
        # A is 0 above `top` once it is 0 in degrees top+1..top+w, w the
        # degree of A's widest generator: every longer word has a prefix
        # there.  The band is also at least as wide as T's widest generator,
        # the band PresentedModuleView needs for A presented over T.
        self.top = max((j for j in range(d_max + 1) if self.dim(j)), default=0)
        closed = self.top + max(T.max_gen_degree(), A.max_gen_degree()) <= d_max
        self.hilbert = self._final_series(self.top + 1) if closed else None

    def dim(self, j):
        if j < 0 or j > self.d_max:
            return 0
        return self.G_A.dim(j)


# ---------------------------------------------------------------------------
# resolution data


class Resolution(Record, frozen=False):
    """A truncated minimal free resolution ... F_1 -> F_0 of a left module.

    `maps[i]` is the differential F_{i+1} -> F_i as the image of each
    generator of F_{i+1}: one (degree, vector) pair per slot of
    `shifts[i + 1]`, the vector sparse on FreeLayer(G, shifts[i]).basis(degree).
    """

    label: str
    shifts: tuple  # shifts[i]: generator degrees of F_i in slot order, nondecreasing
    maps: tuple  # maps[i]: F_{i+1} -> F_i, i = 0..len-1
    i_max: int
    d_max: int
    terminated: bool
    termination_step: object
    certificate: object

    @property
    def steps_computed(self):
        return len(self.shifts) - 1


class BettiTable(Record, frozen=False):
    """Ranks beta_{i,j} of a minimal resolution, truncated to (i_max, d_max)."""

    entries: dict
    steps_computed: int
    i_max: int
    d_max: int
    terminated: bool
    termination_step: object

    def betti(self, i, j):
        return self.entries.get((i, j), 0)

    def t(self, i):
        """t_i = deg Tor_i, i.e. the top shift at step i (NEG_INF when zero)."""
        js = [j for (ii, j) in self.entries if ii == i]
        if js:
            return max(js)
        return NEG_INF

    def records(self):
        recs = []
        for (i, j), rank in sorted(self.entries.items()):
            recs.append({"i": i, "j": j, "rank": rank, "certified": True})
        return recs

    def to_grid_text(self):
        if not self.entries:
            return "(zero table)"
        imax = max(i for (i, _) in self.entries)
        jmax = max(j for (_, j) in self.entries)
        jmin = min(min(j for (_, j) in self.entries), 0)
        lines = ["i\\j " + " ".join("%4d" % j for j in range(jmin, jmax + 1))]
        for i in range(imax + 1):
            row = ["%4d" % self.betti(i, j) if self.betti(i, j) else "   ." for j in range(jmin, jmax + 1)]
            lines.append("%3d " % i + " ".join(row))
        return "\n".join(lines)


class ExtTable(Record, frozen=False):
    """Ranks of Ext^i(k, A) per internal degree on a certified window.

    `windows[i]` is the certified internal-degree interval (j_lo, j_hi)
    for homological degree i; entries outside it were not computed.
    """

    entries: dict
    windows: dict


# ---------------------------------------------------------------------------
# engine internals


def _syzygy_step(G, target, K, d_max, gen_top=None):
    """Minimal generators of the graded submodule K of `target`, and their cover's kernel.

    `K[j]` is a basis {free column: vector} of K_j in reduced form, each
    vector 1 at its free column and 0 at the others.  In degree j the
    images of the generators found below j, which span (A_+K)_j, are the
    cover's columns; each must equal the sum of its free-column entries
    times their K vectors (else ValueError).  Those entries, augmented by
    the identity, are eliminated once: the identity pivots are the
    first-fit new generators, and the images' reduced form gives the
    kernel, which no new generator enters.  Returns the cover's
    FreeLayer, its generators as (degree, vector) pairs and its kernel
    through d_max.

    K is read only through `gen_top` (default d_max), above which the
    caller knows no generator lies.  There the kernel is the null space
    of the images in `target`'s own coordinates, in the same reduced
    form, so it is the same kernel.
    """
    field = G.presentation.field
    modulus = field.modulus
    if gen_top is None:
        gen_top = d_max
    layer = FreeLayer(G, ())
    gens = []
    kernel = {}
    j_lo = min((j for j, kj in K.items() if kj), default=d_max + 1)
    # a slot is added after its degree is yielded, so `_images` reads no
    # generator vector; its column is appended to that degree's columns
    for j, cols in _images(target, layer, (), j_lo, d_max):
        if j > gen_top:
            rows = {}
            for c, col in enumerate(cols):
                for t, a in col.items():
                    rows.setdefault(t, {})[c] = a
            ech = linalg.Echelon(field, (rows[t] for t in sorted(rows, reverse=True)))
            kernel[j] = linalg.reduced_form(ech, len(cols))[2]
            continue
        kj = K.get(j, {})
        free = {f: t for t, f in enumerate(kj)}
        m = len(cols)
        rows = [{m + t: 1} for t in range(len(kj))]
        for c, col in enumerate(cols):
            rest = dict(col)
            for f, a in col.items():
                t = free.get(f)
                if t is not None and a:
                    rows[t][c] = a
                    for k, b in kj[f].items():
                        rest[k] = rest.get(k, 0) - a * b
            if any(x % modulus if modulus else x for x in rest.values()):
                raise ValueError("degree-%d image of the cover lies outside the submodule" % j)
        # last free column first: on the random modules of the acceptance
        # tests this order needs 0.27 M multiply-adds, ascending order 2.44 M
        ech = linalg.Echelon(field, reversed(rows))
        basis = list(kj.values())
        for p in sorted(p for p in ech.rows if p >= m):
            gens.append((j, basis[p - m]))
            cols.append(basis[p - m])
            layer.add_slot(j)
        kernel[j] = linalg.reduced_form(ech, m)[2]
    return layer, gens, kernel


def _images(target, layer, gen_vecs, j_lo, j_hi, skip=None):
    """Images of layer.basis(j) for j = j_lo..j_hi under the map e_r -> gen_vecs[r].

    Yields (j, columns), one coordinate vector on `target` per basis
    element.  The image of (r, w) is one generator acting on the image of
    (r, w minus that letter): the first letter on a left layer, the last on
    a right one.  Degree j reads no degree below j - (max generator degree),
    so older degrees are dropped.

    Ext passes as `skip[j]` the pivots P of an echelon of im d^{i-1}_j, and
    those columns are None.  Its rows, with distinct least keys in P, and
    the unit vectors outside P are a basis, and d^i kills im d^{i-1}; so
    the other columns have the rank of d^i_j.  A skipped column is
    evaluated only when a higher degree reads it as a prefix.
    """
    degs = layer.G.presentation.gen_degs
    width = layer.G.presentation.max_gen_degree()
    ev = {}  # degree -> (layer.index, columns)

    def image(j, r, w):
        if not w:
            return gen_vecs[r]
        g, rest = (w[-1], w[:-1]) if layer.right else (w[0], w[1:])
        j0 = j - degs[g]
        entry = ev.get(j0)
        if entry is None:  # dropped: only a skipped column's prefix reads this far down
            return target.act_vec(g, j0, image(j0, r, rest))
        index, prev = entry
        k = index[(r, rest)]
        if prev[k] is None:
            prev[k] = image(j0, r, rest)
        return target.act_vec(g, j0, prev[k])

    for j in range(j_lo, j_hi + 1):
        skipped = skip.get(j, ()) if skip else ()
        cols = [None if k in skipped else image(j, r, w) for k, (r, w) in enumerate(layer.basis(j))]
        ev[j] = layer.index(j), cols
        ev.pop(j - width, None)
        yield j, cols


def multiplication_images(G, polys, j_hi, left=True):
    """The map (+)_r A(-deg f_r) -> A, e_r -> f_r, for polys f_r, through degree j_hi.

    Returns the source layer and the `_images` generator: the column of
    (r, w) is f_r*w (left=True) or w*f_r, in the normal-word coordinates of
    A.  f*w grows by right multiplications, so it runs on right layers.
    """
    target = FreeLayer(G, (0,), right=left)
    source = FreeLayer(G, [f.degree for f in polys], right=left)
    gen_vecs = [target.coords([G.normal_form(f)], f.degree) for f in polys]
    return source, _images(target, source, gen_vecs, source.min_degree(), j_hi)


def _algebra_socle_degree(G, probe):
    """Top degree of a certified finite-dimensional algebra, else None."""
    limit = probe if G.complete else min(probe, G.d_gb)
    top = max(j for j, n in enumerate(G.automaton.dims(limit)) if n)
    return top if top + G.presentation.max_gen_degree() <= limit else None


def _betti_entries(shifts):
    """{(i, j): beta_{i,j}} from the generator degrees shifts[i] of each F_i."""
    entries = {}
    for i, step in enumerate(shifts):
        for b in step:
            entries[(i, b)] = entries.get((i, b), 0) + 1
    return entries


def _alternating_sum(entries):
    """Sum (-1)^i beta_{i,j} t^j over {(i, j): beta_{i,j}}, coefficients from degree min(0, lowest j)."""
    degrees = [0] + [j for _, j in entries]
    lo = min(degrees)
    out = [0] * (max(degrees) - lo + 1)
    for (i, j), rank in entries.items():
        out[j - lo] += rank if i % 2 == 0 else -rank
    return out


def _chain_bound(G, i):
    """Anick's bound on t_i(k) over a complete basis G: the top degree of its (i-1)-chains.

    With w the widest generator degree and D the top leading-word degree,
    t_0(k) = 0, t_1(k) <= w and t_i(k) <= D + (i - 2)(D - 1) for i >= 2,
    since each chain after the first overlaps the one before it.  A
    finite-dimensional M of top degree tau has t_i(M) <= this + tau.
    """
    if i == 0:
        return 0
    if i == 1:
        return G.presentation.max_gen_degree()
    lead = max((g.degree for g in G.elements), default=0)
    return lead + (i - 2) * (lead - 1)


def _certify_termination(G, shifts_all, d_max, algebra_hilbert, module_hilbert):
    width = G.presentation.max_gen_degree()
    top = _algebra_socle_degree(G, d_max + width)
    if top is not None and max(shifts_all[-1]) + top <= d_max:
        return "socle-window"
    if algebra_hilbert is None or module_hilbert is None:
        return None
    if module_hilbert.is_polynomial():
        # every computed step must be complete: Anick's bounds on t_i(k), plus top(M)
        anick = max(_chain_bound(G, i) for i in range(len(shifts_all)))
        if not G.complete or anick + module_hilbert.degree > d_max:
            return None
    # both sides start at min(0, lowest degree of M), the lowest shift of F_0
    balt = _alternating_sum(_betti_entries(shifts_all))
    lhs = _pmul(_pmul(balt, list(algebra_hilbert.numerator)), list(module_hilbert.denominator))
    rhs = _pmul(list(module_hilbert.numerator), list(algebra_hilbert.denominator))
    return "euler-exact" if _ptrim(lhs) == _ptrim(rhs) else None


# ---------------------------------------------------------------------------
# public operations


def trivial_module(A):
    """The trivial module k = A/A_{>=1}: one generator, killed by every generator."""
    rows = [(A.gen_poly(g),) for g in range(A.n_gens)]
    return make_module_presentation(A, "left", (0,), rows)


def minimal_resolution(
    G, module, i_max, d_max, algebra_hilbert=None, module_hilbert=None, label=""
):
    """Minimal free resolution of a left module, truncated to (i_max, d_max).

    `module` is a presented left module or a module view over G built
    through d_max, such as `MappedAlgebraView`.  Without `module_hilbert`
    the view's zero-band series, if any, is the termination evidence.

    When G is complete and that view series is a polynomial of top degree
    tau, step i stops at min(d_max, max(B_i, B_{i+1})), B_i =
    `_chain_bound(G, i)` + tau (see the module docstring).  The result is
    the same: K_i's lowest nonzero degree is a generator degree of step
    i + 1, so K_i vanishes through B_{i+1} only when it vanishes.
    """
    view = PresentedModuleView(G, module, d_max) if isinstance(module, ModulePresentation) else module
    if module_hilbert is None:
        module_hilbert = view.hilbert
    h = view.hilbert
    bounded = G.complete and h is not None and h.is_polynomial() and h.degree != NEG_INF

    def gen_top(i):
        """A degree that no generator of step i lies above."""
        return min(d_max, _chain_bound(G, i) + h.degree) if bounded else d_max

    def step(i, target, K):
        # through step i's own generators and K_i through those of step i + 1:
        # the bounds need not grow, as w may exceed D
        return _syzygy_step(G, target, K, max(gen_top(i), gen_top(i + 1)), gen_top(i))

    layer, _, K = step(0, view, view.units(gen_top(0)))
    if not layer.shifts:
        if view.top > d_max:
            raise CertificationError(
                "the module vanishes through d_max = %d but has a generator above it" % d_max
            )
        raise PresentationError("cannot resolve the zero module")
    shifts_all = [layer.shifts]
    maps = []

    terminated = False
    termination_step = None
    certificate = None
    for i in range(1, i_max + 2):
        # at the lowest degree where K is nonzero every kernel vector is a
        # new generator, so a step has generators exactly when K is nonzero
        if not any(K.values()):
            certificate = _certify_termination(G, shifts_all, d_max, algebra_hilbert, module_hilbert)
            if certificate is not None:
                terminated = True
                termination_step = i - 1
            break
        if i == i_max + 1:
            break
        new_layer, new_vecs, K = step(i, layer, K)
        # syzygy generators have no scalar entries over a minimal cover
        for j, v in new_vecs:
            basis = layer.basis(j)
            assert all(
                basis[idx][1] for idx, c in v.items() if c
            ), "minimality violated: scalar entry in a syzygy generator"
        maps.append(tuple(new_vecs))
        shifts_all.append(new_layer.shifts)
        layer = new_layer

    return Resolution(
        label=label,
        shifts=tuple(shifts_all),
        maps=tuple(maps),
        i_max=i_max,
        d_max=d_max,
        terminated=terminated,
        termination_step=termination_step,
        certificate=certificate,
    )


def betti_table(R):
    """beta_{i,j} read off the computed resolution shifts."""
    return BettiTable(
        entries=_betti_entries(R.shifts),
        steps_computed=R.steps_computed,
        i_max=R.i_max,
        d_max=R.d_max,
        terminated=R.terminated,
        termination_step=R.termination_step,
    )


def ext_into_algebra(R, G):
    """Cohomology ranks of Hom(F_*, A): Ext^i(k, A)_j on a certified window.

    Dualizing turns each A(-b) into A(b) with the right-module structure.
    The dual differential sends xi to (sum_r m_{rs} xi_r)_s, so it is right
    multiplication of the map entries by words, evaluated degreewise by the
    same word recursion as the resolution's kernels; ranks are exact.  The
    entries m_{rs} are read by transposing the stored syzygy vectors.

    d^i is evaluated only off the pivots P of an echelon of im d^{i-1}_j:
    rank d^i_j is the rank of d^i on the unit vectors U outside P.  Proof:
    the echelon's rows have distinct least keys in P, so with U they are a
    basis, C^i_j = im d^{i-1}_j (+) span(U); and d^i d^{i-1} = 0, as each
    syzygy lies in the kernel of the map before it.  The pivots of the
    echelon of d^i(U) are the P of d^{i+1}.
    """
    field = G.presentation.field
    i_top = R.steps_computed if R.terminated else R.steps_computed - 1
    if i_top < 0:
        raise PresentationError("resolution too short to dualize")

    def max_shift(i):
        return max(R.shifts[i], default=0)

    windows = {}
    for i in range(i_top + 1):
        # the ranks at degree j touch normal words up to degree j + top
        top = max(max_shift(k) for k in range(max(0, i - 1), min(R.steps_computed, i + 1) + 1))
        windows[i] = (-max_shift(i), R.d_max - top)

    # C^i_j = Hom(F_i, A)_j has basis (r, w) with w normal of degree j + b_r
    cobases = [FreeLayer(G, [-b for b in shifts], right=True) for shifts in R.shifts]

    ranks = {}  # (i, j) -> rank of d^i: C^i_j -> C^{i+1}_j
    pivots = {}  # j -> the pivots P of im d^{i-1}_j in C^i_j
    for i, syzygies in enumerate(R.maps):
        src, tgt = cobases[i], cobases[i + 1]
        # d^i(r, b"") holds the entries m_{rs}: the term c*w at slot (r, w) of
        # syzygy s is the term c*w of m_{rs}, at (s, w) in C^{i+1} of degree -a_r
        layer = FreeLayer(G, R.shifts[i])
        gen_vecs = [{} for _ in src.shifts]
        for s, (b, vec) in enumerate(syzygies):
            basis = layer.basis(b)
            for idx, c in vec.items():
                r, w = basis[idx]
                gen_vecs[r][tgt.index(src.shifts[r])[(s, w)]] = c
        # Ext^i and Ext^{i+1} read d^i only on their windows
        top = max(windows[k][1] for k in (i, i + 1) if k in windows)
        image_pivots = {}
        for j, cols in _images(tgt, src, gen_vecs, src.min_degree(), top, pivots):
            ech = linalg.Echelon(field, (c for c in cols if c is not None))
            ranks[(i, j)] = ech.rank
            image_pivots[j] = ech.rows.keys()
        pivots = image_pivots

    entries = {}
    for i in range(0, i_top + 1):
        lo, hi = windows[i]
        for j in range(lo, hi + 1):
            ext = cobases[i].dim(j) - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
            if ext:
                entries[(i, j)] = ext
    return ExtTable(entries=entries, windows=windows)


def module_via_map(G_T, images, G_A, d_max):
    """A as a graded left T-module along generator images, presented up to d_max.

    The presentation is steps 0 and 1 of the resolution of
    `MappedAlgebraView`: a minimal homogeneous generating set, shifts[0],
    and the minimal first syzygies of its cover as relation rows.
    `minimal_resolution` takes that view directly, so this only shows the
    module as a presentation.  For the right side convert both algebras
    and the images to the opposite presentation first.
    """
    R = minimal_resolution(G_T, MappedAlgebraView(G_T, images, G_A, d_max), 1, d_max)
    layer = FreeLayer(G_T, R.shifts[0])
    rows = [layer.polys(j, v) for j, v in R.maps[0]] if R.maps else ()
    return make_module_presentation(G_T.presentation, "left", layer.shifts, rows)

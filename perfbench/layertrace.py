"""Layer tracing from outside the program: wrap homreg's public functions.

`install` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent, run id) in memory.  A module
function is replaced under every name that binds it in any `homreg.*`
module, so names imported with `from .x import y` are caught too; a method
is replaced on its class.  Counts are taken from arguments and return
values after the span closes; that bookkeeping is itself recorded as a
child span so it is charged to no layer.

Nothing under src/ is changed.  What stays unattributed is time spent
outside every traced call (glue in the report, the CLI's JSON output, the
workload's own loop) and the bookkeeping; `unbound_references` lists any
reference to a traced function that patching could not reach.
"""

import gzip
import inspect
import sys
import time
import weakref
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"
PROBE = "trace.probe"  # the worker's speed probe, run from a signal handler
OPPOSITE = "regularity.opposite"

now = time.perf_counter


def _args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _observe_groebner(counts, bind, args, kwargs, result):
    counts["gbasis.groebner.elements"] += len(result.elements)


def _observe_normal_form(counts, bind, args, kwargs, result):
    counts["gbasis.normal_form.zero"] += result.is_zero()


def _observe_row_reduce(counts, bind, args, kwargs, result):
    a = bind(args, kwargs)
    rows = getattr(a["matrix"], "entries", a["matrix"])
    ncols = a["ncols"]
    if ncols is None:
        ncols = getattr(a["matrix"], "ncols", None)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
    counts["linalg.row_reduce.cells"] += len(rows) * ncols
    counts["linalg.row_reduce.nnz"] += sum(1 for row in rows for x in row if x)
    counts["linalg.row_reduce.rank"] += result.rank
    counts["linalg.row_reduce.min_dim"] += min(len(rows), ncols)


def _observe_complement_basis(counts, bind, args, kwargs, result):
    counts["linalg.complement_basis.offered"] += len(bind(args, kwargs)["space"])
    counts["linalg.complement_basis.returned"] += len(result)


def _observe_resolution(counts, bind, args, kwargs, result):
    counts["resolution.steps"] += result.steps_computed
    counts["resolution.betti_total"] += sum(len(step) for step in result.shifts)


# (span name, homreg module, attribute path, observer) for every traced entry point
TARGETS = [
    ("corealg.parse", "corealg", "parse_presentation", None),
    ("corealg.parse", "corealg", "parse_module", None),
    ("corealg.opposite", "corealg", "opposite_presentation", None),
    ("corealg.opposite", "corealg", "opposite_module", None),
    ("gbasis.groebner", "gbasis", "groebner", _observe_groebner),
    ("gbasis.normal_form", "gbasis", "GroebnerBasis.normal_form", _observe_normal_form),
    ("gbasis.normal_words", "gbasis", "GroebnerBasis.normal_words", None),
    ("series.hilbert_rational", "series", "hilbert_rational", None),
    ("series.hilbert_truncated", "series", "hilbert_truncated", None),
    ("linalg.row_reduce", "linalg", "row_reduce", _observe_row_reduce),
    ("linalg.complement_basis", "linalg", "complement_basis", _observe_complement_basis),
    ("linalg.echelon_add", "linalg", "Echelon.add", None),
    ("linalg.solve", "linalg", "solve", None),
    ("resolution.minimal_resolution", "resolution", "minimal_resolution", _observe_resolution),
    ("resolution.module_view", "resolution", "PresentedModuleView.__init__", None),
    ("resolution.ext", "resolution", "ext_into_algebra", None),
    ("resolution.module_via_map", "resolution", "module_via_map", None),
    ("regularity.report", "regularity", "build_report", None),
    ("constructions.quotient", "constructions", "quotient_by_normal_element", None),
    ("constructions.tensor", "constructions", "tensor_product", None),
    ("constructions.finite_map", "constructions", "finite_map_check", None),
]
SPAN_NAMES = sorted({t[0] for t in TARGETS})


# AlgebraArtifacts methods whose work, on an opposite-side instance, is
# charged to the opposite region (GB, series, resolution and Ext)
OPPOSITE_METHODS = ("opposite", "gb", "hilbert_or_none", "resolution_k", "betti_k", "ext_k")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.regions = []  # (name, start, end, run id): opposite-side intervals
        self.stack = []
        self.counts = defaultdict(int)
        self.in_opposite = False
        self.opposite_side = weakref.WeakSet()

    def record_probe(self, start, end):
        self.spans.append((PROBE, start, end, self.stack[-1] if self.stack else -1, self.run_id))

    def wrap(self, name, fn, observe):
        spans, stack, counts, run_id = self.spans, self.stack, self.counts, self.run_id
        bind = _args(fn) if observe else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if observe is not None:
                b0 = now()
                observe(counts, bind, args, kwargs, result)
                spans.append((BOOKKEEPING, b0, now(), parent, run_id))
            return result

        return traced

    def wrap_opposite(self, method_name, fn):
        tracer = self

        def traced(art, *args, **kwargs):
            if tracer.in_opposite or (method_name != "opposite" and art not in tracer.opposite_side):
                result = fn(art, *args, **kwargs)
            else:
                tracer.in_opposite = True
                start = now()
                try:
                    result = fn(art, *args, **kwargs)
                finally:
                    tracer.in_opposite = False
                    tracer.regions.append((OPPOSITE, start, now(), tracer.run_id))
            if method_name == "opposite":
                tracer.opposite_side.add(result)
            return result

        return traced


def install(tracer):
    """Wrap every target; return the references that could not be reached."""
    import homreg

    modules = [m for n, m in sorted(sys.modules.items()) if n == "homreg" or n.startswith("homreg.")]
    originals = []
    for name, module_name, path, observe in TARGETS:
        owner = getattr(homreg, module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        fn = getattr(owner, attr)
        originals.append(fn)
        wrapped = tracer.wrap(name, fn, observe)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    arts = homreg.regularity.AlgebraArtifacts
    for method in OPPOSITE_METHODS:
        setattr(arts, method, tracer.wrap_opposite(method, getattr(arts, method)))
    return unbound_references(modules, originals)


def unbound_references(modules, originals):
    """Names in homreg modules that still bind an unwrapped target."""
    ids = {id(fn) for fn in originals}
    out = []
    for module in modules:
        for key, value in vars(module).items():
            if id(value) in ids:
                out.append("%s.%s" % (module.__name__, key))
            elif isinstance(value, type):
                for k, v in vars(value).items():
                    if id(v) in ids:
                        out.append("%s.%s.%s" % (module.__name__, value.__name__, k))
    return out


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced pass of length `wall` seconds."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for k, (name, start, end, parent, _) in enumerate(tracer.spans):
        if name in (BOOKKEEPING, PROBE):
            continue
        calls[name] += 1
        self_s[name] += end - start - child[k]
    c = tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["gbasis.groebner.elements"] = c["gbasis.groebner.elements"]
    out["gbasis.normal_form.zero_ratio"] = _ratio(c["gbasis.normal_form.zero"], calls["gbasis.normal_form"])
    out["linalg.row_reduce.cells"] = c["linalg.row_reduce.cells"]
    out["linalg.row_reduce.nnz"] = c["linalg.row_reduce.nnz"]
    out["linalg.row_reduce.rank_ratio"] = _ratio(c["linalg.row_reduce.rank"], c["linalg.row_reduce.min_dim"])
    out["linalg.complement_basis.yield"] = _ratio(
        c["linalg.complement_basis.returned"], c["linalg.complement_basis.offered"]
    )
    out["resolution.steps"] = c["resolution.steps"]
    out["resolution.betti_total"] = c["resolution.betti_total"]
    out["regularity.opposite.total_s"] = sum(end - start for _, start, end, _ in tracer.regions)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(self_s.values())
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def write_spans(tracer, path):
    """All spans and regions of the pass as gzipped tab-separated lines."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("kind\tname\tstart\tend\tparent\trun\n")
        for k, (name, start, end, parent, run_id) in enumerate(tracer.spans):
            fh.write("span%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % (k, name, start, end, parent, run_id))
        for name, start, end, run_id in tracer.regions:
            fh.write("region\t%s\t%.9f\t%.9f\t-1\t%s\n" % (name, start, end, run_id))

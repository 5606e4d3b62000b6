"""Command-line front end: file IO, reports, cache management, harness.

Machine-readable output is line-delimited JSON with a versioned schema;
identical inputs produce byte-identical records.  Exit codes: 0 success,
1 input error, 2 certification failure, 3 resource limit, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .corealg import (
    CertificationError,
    PresentationError,
    ResourceLimitError,
    make_module_presentation,
    parse_field,
    parse_module,
    parse_presentation,
)
from . import constructions as cons_mod
from . import gbasis as gb_mod
from . import regularity as reg_mod
from . import resolution as res_mod
from . import series as series_mod
from .regularity import BoundedValue, HarnessCase, inequality_harness

SCHEMA = "homreg/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATION = 2
EXIT_RESOURCES = 3
EXIT_INTERNAL = 4

# (exception types, error class, text prefix, exit code); anything else is internal
_FAILURES = (
    ((PresentationError, FileNotFoundError), "input", "input error", EXIT_INPUT),
    (CertificationError, "certification", "certification error", EXIT_CERTIFICATION),
    (ResourceLimitError, "resources", "resource limit", EXIT_RESOURCES),
)


class Emitter:
    def __init__(self, fmt, out=None):
        self.fmt = fmt
        self.out = out or sys.stdout

    def record(self, rtype, payload, text=None):
        if self.fmt == "jsonl":
            rec = {"schema": SCHEMA, "type": rtype}
            rec.update(payload)
            self.out.write(json.dumps(rec, sort_keys=True) + "\n")
        else:
            self.out.write((text if text is not None else "%s: %s" % (rtype, payload)) + "\n")

    def text_block(self, text):
        if self.fmt != "jsonl":
            self.out.write(text + "\n")


def _load_presentation(path, args):
    with open(path) as fh:
        text = fh.read()
    label = os.path.splitext(os.path.basename(path))[0]
    field = parse_field(args.field) if args.field else None
    return parse_presentation(text, label=label, field=field)


def _cache_dir(args):
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get(gb_mod.CACHE_ENV_VAR)
    if env:
        return env
    return os.path.expanduser("~/.cache/homreg")


def _artifacts(path, args):
    pres = _load_presentation(path, args)
    art = reg_mod.AlgebraArtifacts(
        pres,
        i_max=args.imax,
        d_max=args.dmax,
        d_gb=args.dgb,
        cache_dir=_cache_dir(args),
        element_limit=args.element_limit,
    )
    if args.assert_noetherian:
        art.assertions.append("noetherian: asserted on the command line")
    if args.assert_balanced:
        art.assertions.append("balanced dualizing complex: asserted on the command line")
    if args.assert_cm is not None:
        art.cm_degree_hint = args.assert_cm
    return art


def _map_overrides(map_args, sources):
    """The --map items as {name: polynomial}; each name is a generator of some
    source, given once."""
    overrides = {}
    for item in map_args or ():
        name, _, expr = item.partition("=")
        if not expr:
            raise PresentationError("--map expects name=polynomial, got %r" % item)
        name = name.strip()
        if name in overrides:
            raise PresentationError("--map names %s twice" % name)
        overrides[name] = expr.strip()
    unknown = sorted(set(overrides).difference(*(s.gen_names for s in sources)))
    if unknown:
        raise PresentationError(
            "--map names %s, not a generator of %s"
            % (", ".join(unknown), " or ".join(s.label for s in sources) or "any source algebra")
        )
    return overrides


def _images_for(source_pres, target_pres, overrides, role):
    """Generator images: name-matched identity by default, --map overrides.

    `role` ("source" or "witness") names the source algebra in errors.
    """
    if source_pres.field != target_pres.field:
        raise PresentationError(
            "%s %s is over %s but %s is over %s; a map must keep the base field"
            % (role, source_pres.label, source_pres.field, target_pres.label, target_pres.field)
        )
    for n in source_pres.gen_names:
        if n not in overrides and n not in target_pres.gen_names:
            raise PresentationError(
                "generator %s of %s %s has no --map entry, so it was mapped to itself, "
                "but %s has no generator %s"
                % (n, role, source_pres.label, target_pres.label, n)
            )
    return [target_pres.parse_poly(overrides.get(n, n)) for n in source_pres.gen_names]


def _emit_report(emit, report):
    """A regularity report: one JSONL record per invariant, or the text block."""
    if emit.fmt == "jsonl":
        for rec in report.records():
            emit.record("regularity", rec)
    emit.text_block(report.to_text())


# ---------------------------------------------------------------------------
# subcommands


def cmd_gb(args, emit):
    art = _artifacts(args.file, args)
    G = art.gb()
    elements = [art.presentation.format_poly(g) for g in G.elements]
    emit.record(
        "groebner",
        {
            "label": art.label,
            "complete": G.complete,
            "d_gb": G.d_gb,
            "elements": elements,
        },
        text="Groebner basis of %s (%s):\n  %s"
        % (
            art.label,
            "complete" if G.complete else "complete up to degree %d" % G.d_gb,
            "\n  ".join(elements),
        ),
    )
    return EXIT_OK


def cmd_hilbert(args, emit):
    art = _artifacts(args.file, args)
    ts = art.hilbert_truncated(args.truncate)
    emit.record(
        "hilbert_truncated",
        {"label": art.label, "coefficients": list(ts.coefficients), "truncation": ts.truncation},
        text="h_%s = %s" % (art.label, ts.text()),
    )
    h = art.hilbert_or_none()
    if h is not None:
        payload = {"label": art.label}
        payload.update(h.record())
        emit.record("hilbert_rational", payload, text="rational form: %s   (degree %d)" % (h.text(), h.degree))
    else:
        emit.record(
            "hilbert_rational_unavailable",
            {"label": art.label, "reason": "Groebner basis incomplete"},
            text="rational form refused: Groebner basis incomplete (truncated series above)",
        )
    return EXIT_OK


def cmd_resolve(args, emit):
    art = _artifacts(args.file, args)
    if args.module:
        with open(args.module) as fh:
            mpres = parse_module(fh.read(), art.presentation)
        if mpres.side == "right":
            from .corealg import opposite_module

            mpres = opposite_module(mpres)
            G = art.opposite().gb()
        else:
            G = art.gb()
        R = res_mod.minimal_resolution(
            G, mpres, art.i_max, art.d_max, algebra_hilbert=art.hilbert_or_none(), label=art.label
        )
        table = res_mod.betti_table(R)
    else:
        table = art.betti_k()
        R = art.resolution_k()
    emit.record(
        "betti",
        {
            "label": art.label,
            "entries": table.records(),
            "terminated": table.terminated,
            "termination_step": table.termination_step,
            "certificate": R.certificate,
            "window": [table.i_max, table.d_max],
        },
        text="Betti table of %s (terminated: %s%s)\n%s"
        % (
            art.label,
            table.terminated,
            ", certificate: %s" % R.certificate if R.certificate else "",
            table.to_grid_text(),
        ),
    )
    return EXIT_OK


def cmd_regularity(args, emit):
    art = _artifacts(args.file, args)
    _emit_report(emit, art.report())
    return EXIT_OK


def cmd_koszul(args, emit):
    art = _artifacts(args.file, args)
    report = art.report()
    emit.record(
        "koszul",
        {"label": art.label, "verdict": report.koszul.status, "caveat": report.koszul.caveat},
        text="Koszul verdict for %s: %s" % (art.label, report.koszul.text()),
    )
    return EXIT_OK


def cmd_stanley(args, emit):
    art = _artifacts(args.file, args)
    v = series_mod.stanley_check(art.hilbert())
    emit.record(
        "stanley",
        {"label": art.label, "satisfied": v.satisfied, "sign": v.sign, "shift": v.shift},
        text="Stanley functional equation for %s: %s" % (art.label, v.text()),
    )
    return EXIT_OK


def cmd_tensor(args, emit):
    artA = _artifacts(args.file_a, args)
    artB = _artifacts(args.file_b, args)
    art = cons_mod.tensor_product(artA, artB)
    emit.record(
        "presentation",
        {"label": art.label, "text": art.presentation.to_text()},
        text=art.presentation.to_text().rstrip(),
    )
    _emit_report(emit, art.report())
    return EXIT_OK


def cmd_quotient(args, emit):
    art = _artifacts(args.file, args)
    artB, cert = cons_mod.quotient_by_normal_element(art, args.omega)
    emit.record(
        "normal_element_certificate",
        {
            "label": artB.label,
            "element": cert.element_text,
            "degree": cert.degree,
            "normal": True,
            "regular": cert.regular_ok,
            "regular_up_to": cert.checked_to,
            "witnesses": [
                art.presentation.format_poly(w) for w in cert.left_witnesses
            ],
        },
        text="normal element %s (degree %d): normal yes, %s"
        % (
            cert.element_text,
            cert.degree,
            "regular up to degree %d" % cert.checked_to
            if cert.regular_ok
            else "regularity fails at degree %d" % (cert.checked_to + 1),
        ),
    )
    emit.record(
        "presentation",
        {"label": artB.label, "text": artB.presentation.to_text()},
        text=artB.presentation.to_text().rstrip(),
    )
    _emit_report(emit, artB.report())
    return EXIT_OK


def cmd_finitemap(args, emit):
    artT = _artifacts(args.file_t, args)
    artA = _artifacts(args.file_a, args)
    overrides = _map_overrides(args.map, [artT.presentation])
    images = _images_for(artT.presentation, artA.presentation, overrides, "source")
    cert = cons_mod.finite_map_check(artT, images, artA)
    emit.record(
        "finite_map",
        {
            "source": artT.label,
            "target": artA.label,
            "images": list(cert.images_text),
            "verdict": cert.verdict,
            "left_cokernel": list(cert.left_cokernel),
            "right_cokernel": list(cert.right_cokernel),
        },
        text="finite map %s -> %s: %s (left cokernel %s)"
        % (artT.label, artA.label, cert.verdict, list(cert.left_cokernel)),
    )
    return EXIT_OK


def _witnesses(args, artA):
    arts = [_artifacts(wpath, args) for wpath in args.witness or ()]
    overrides = _map_overrides(args.map, [artT.presentation for artT in arts])
    return [
        cons_mod.concavity_witness(
            artT, _images_for(artT.presentation, artA.presentation, overrides, "witness"), artA
        )
        for artT in arts
    ]


def cmd_concavity(args, emit):
    art = _artifacts(args.file, args)
    witnesses = _witnesses(args, art)
    bound = reg_mod.concavity_certificate(art, witnesses)
    emit.record(
        "concavity",
        {
            "label": art.label,
            "upper": bound.upper.record(),
            "exact": bound.exact,
            "c_minus": bound.c_minus.record(),
            "witnesses": [w.label for w in bound.witnesses],
            "notes": list(bound.notes),
        },
        text="concavity of %s: %s" % (art.label, bound.text()),
    )
    return EXIT_OK


def cmd_obstruct(args, emit):
    art = _artifacts(args.file, args)
    witnesses = _witnesses(args, art)
    bound = reg_mod.concavity_certificate(art, witnesses)
    verdict = reg_mod.invariant_ring_obstruction(art, bound)
    emit.record(
        "obstruction",
        {
            "label": art.label,
            "status": verdict.status,
            "inequality": verdict.inequality,
            "beta1": verdict.beta1,
            "beta2": verdict.beta2,
        },
        text="invariant-subring obstruction for %s: %s" % (art.label, verdict.text()),
    )
    return EXIT_OK


def cmd_harness(args, emit):
    cases = build_golden_cases(args.imax, args.dmax, args.dgb, _cache_dir(args))
    results = inequality_harness(cases)
    failures = 0
    for r in results:
        failures += r.status == "fail"
        emit.record(
            "harness",
            {"name": r.name, "status": r.status, "detail": r.detail},
            text="[%s] %s  %s" % (r.status.upper(), r.name, r.detail),
        )
    emit.record(
        "harness_summary",
        {
            "total": len(results),
            "passed": sum(r.status == "pass" for r in results),
            "failed": failures,
            "skipped": sum(r.status == "skip" for r in results),
        },
        text="harness: %d checks, %d failed" % (len(results), failures),
    )
    return EXIT_OK if failures == 0 else EXIT_CERTIFICATION


# ---------------------------------------------------------------------------
# golden suite shared by `harness` and the acceptance tests

GOLDEN_SOURCES = {
    "k[x]": "field Q; gens x:1",
    "k[u2]": "field Q; gens u:2",
    "plane": "field Q; gens x:1 y:1; rels x*y - y*x",
    "T": "field Q; gens x:1 y:1; rels x^2*y - y*x^2, x*y^2 - y^2*x",
    "A3": "field Q; gens x:1; rels x^3",
    "hyp": "field Q; gens x:1 t:2; rels x*t - t*x, t^2 - x^4",
    "stanley_violator": "field Q; gens x:1 y:1; rels x*y - y*x, x^2, x*y, y^2",
}


def golden_artifacts(i_max=8, d_max=12, d_gb=12, cache_dir=None):
    """The golden algebras plus derived quotients and tensor products."""
    arts = {}
    for label, src in GOLDEN_SOURCES.items():
        arts[label] = reg_mod.AlgebraArtifacts(
            parse_presentation(src, label=label), i_max, d_max, d_gb, cache_dir
        )
    for label, parent, omega in (
        ("A2", "k[x]", "x^2"), ("B", "T", "x^2"), ("Tcomm", "T", "x*y - y*x"), ("k[y]", "plane", "x")
    ):
        arts[label], _ = cons_mod.quotient_by_normal_element(arts[parent], omega, label=label)
    arts["A2xT"] = cons_mod.tensor_product(arts["A2"], arts["T"], label="A2xT")
    arts["A2xA2"] = cons_mod.tensor_product(arts["A2"], arts["A2"], label="A2xA2")
    return arts


def _quotient_module_torreg(artA, artB):
    """Torreg of B as a module over A along the quotient map."""
    images = [artB.presentation.gen_poly(i) for i in range(artB.presentation.n_gens)]
    mpres = res_mod.module_via_map(artA.gb(), images, artB.gb(), artA.d_max)
    R = res_mod.minimal_resolution(
        artA.gb(),
        mpres,
        artA.i_max,
        artA.d_max,
        algebra_hilbert=artA.hilbert_or_none(),
        module_hilbert=artB.hilbert_or_none(),
        label="%s as %s-module" % (artB.label, artA.label),
    )
    return reg_mod.tor_regularity(res_mod.betti_table(R))


def _semisimple_module(pres, degrees):
    """Direct sum of shifted trivial modules: k(-d_1) (+) ... (+) k(-d_r)."""
    rows = []
    for r in range(len(degrees)):
        for g in range(pres.n_gens):
            row = [pres.gen_poly(g) if s == r else None for s in range(len(degrees))]
            rows.append(row)
    return make_module_presentation(pres, "left", degrees, rows)


def build_golden_cases(i_max=8, d_max=12, d_gb=12, cache_dir=None):
    """The golden inequality/equality checks run by `homreg harness`."""
    arts = golden_artifacts(i_max, d_max, d_gb, cache_dir)
    reports = {k: a.report() for k, a in arts.items()}
    cases = []

    # Torreg(M) <= CMreg(M) + Torreg(k) on a finite-dimensional module over T
    T = arts["T"]
    M = _semisimple_module(T.presentation, (2, 0))
    RM = res_mod.minimal_resolution(
        T.gb(), M, i_max, d_max, algebra_hilbert=T.hilbert_or_none(), label="k(-2)+k over T"
    )
    tM = reg_mod.tor_regularity(res_mod.betti_table(RM))
    degM = 2  # top degree of the module, = CMreg for finite-dimensional modules
    cases.append(
        HarnessCase(
            "torreg<=cmreg+torreg_k on k(-2)+k over T",
            "leq",
            tM,
            reports["T"].torreg_k.add_int(degM),
            "finite-dimensional module case: CMreg(M) = deg(M) = 2",
        )
    )

    # quotient equality: CMreg(B) - CMreg(A) = deg(Omega) - 1 = Torreg(_A B)
    for child, parent, a in (("B", "T", 2), ("Tcomm", "T", 2), ("k[y]", "plane", 1)):
        t_mod = _quotient_module_torreg(arts[parent], arts[child])
        lhs = reports[child].cmreg.add(
            BoundedValue.exact(-reports[parent].cmreg.value)
            if reports[parent].cmreg.is_exact
            else BoundedValue.unknown()
        )
        cases.append(
            HarnessCase(
                "cmreg(%s) - cmreg(%s) == deg(Omega) - 1" % (child, parent),
                "eq",
                lhs,
                a - 1,
            )
        )
        cases.append(
            HarnessCase(
                "torreg(%s as %s-module) == deg(Omega) - 1" % (child, parent),
                "eq",
                t_mod,
                a - 1,
            )
        )

    # tensor additivity of Torreg, CMreg, ASreg
    for prod, f1, f2 in (("A2xT", "A2", "T"), ("A2xA2", "A2", "A2")):
        for inv in ("torreg_k", "cmreg", "asreg"):
            cases.append(
                HarnessCase(
                    "%s additive on %s" % (inv, prod),
                    "eq",
                    getattr(reports[prod], inv),
                    getattr(reports[f1], inv).add(getattr(reports[f2], inv)),
                )
            )

    # Torreg does not grow under quotients by normal regular elements of degree <= 2
    for child, parent in (("B", "T"), ("Tcomm", "T"), ("k[y]", "plane"), ("A2", "k[x]")):
        cases.append(
            HarnessCase(
                "torreg_k(%s) <= torreg_k(%s) (normal quotient, deg <= 2)" % (child, parent),
                "leq",
                reports[child].torreg_k,
                reports[parent].torreg_k,
            )
        )

    # t_i <= Torreg + i on certified tables
    for label in ("T", "plane", "B", "A2xT"):
        table = arts[label].betti_k()
        tr = reports[label].torreg_k
        if not tr.is_exact:
            continue
        ok = all(j - i <= tr.value for (i, j) in table.entries)
        cases.append(
            HarnessCase("t_i <= Torreg + i on %s" % label, "true", ok, detail="window table")
        )

    # Koszul descent along non-surjective finite maps with Torreg(T-side k) = 1
    ku, kx = arts["k[u2]"], arts["k[x]"]
    cert = cons_mod.finite_map_check(ku, [kx.presentation.parse_poly("x^2")], kx)
    cases.append(
        HarnessCase(
            "non-surjective finite map from Torreg-1 source forces Koszul target",
            "true",
            cert.finite
            and reports["k[u2]"].torreg_k.is_exact
            and reports["k[u2]"].torreg_k.value == 1
            and cert.left_cokernel[1] > 0  # degree-1 cokernel: not surjective
            and reports["k[x]"].koszul.status == "yes",
            detail="k[u2] -> k[x], u |-> x^2",
        )
    )

    # finite map with linear finite-pd module: AS regularity transfers
    cases.append(
        HarnessCase(
            "AS regularity transfers along plane -> k[y]",
            "true",
            reports["plane"].as_regular.status == "yes"
            and reports["k[y]"].as_regular.status == "yes",
            detail="quotient by a degree-1 normal regular element",
        )
    )

    # concavity monotonicity along composition of finite maps
    w_direct = cons_mod.concavity_witness(kx, ["x"], arts["hyp"])
    w_composed = cons_mod.concavity_witness(ku, ["x^2"], arts["hyp"])
    cases.append(
        HarnessCase(
            "composing finite maps never lowers the witness -CMreg",
            "leq",
            w_direct.neg_cmreg,
            w_composed.neg_cmreg,
            "k[u2] -> k[x] -> hyp",
        )
    )

    # c(S) = -CMreg(S) for AS regular S; Koszul iff c = 0
    for label in ("T", "plane", "k[x]", "k[u2]"):
        bound = reg_mod.concavity_certificate(arts[label], [])
        cases.append(
            HarnessCase(
                "c(%s) == -CMreg(%s)" % (label, label),
                "eq",
                bound.upper if bound.exact else BoundedValue.unknown(),
                BoundedValue.exact(-reports[label].cmreg.value)
                if reports[label].cmreg.is_exact
                else BoundedValue.unknown(),
            )
        )
        cases.append(
            HarnessCase(
                "Koszul iff c = 0 on %s" % label,
                "true",
                (reports[label].koszul.status == "yes") == (bound.exact and bound.upper.value == 0),
            )
        )

    # normalized concavity: nonnegative, zero exactly on AS regular algebras
    wT = cons_mod.concavity_witness(
        arts["T"],
        [arts["B"].presentation.parse_poly("x"), arts["B"].presentation.parse_poly("y")],
        arts["B"],
    )
    boundB = reg_mod.concavity_certificate(arts["B"], [wT])
    cases.append(HarnessCase("c_minus(B) >= 0", "leq", 0, boundB.c_minus))
    cases.append(
        HarnessCase(
            "c_minus(B) = 0 iff B AS regular",
            "true",
            (boundB.c_minus.is_exact and boundB.c_minus.value == 0)
            == (reports["B"].as_regular.status == "yes"),
        )
    )
    cases.append(HarnessCase("c(B) == 1", "eq", boundB.upper if boundB.exact else BoundedValue.unknown(), 1))

    # ASreg >= 0 on every exact report; ASreg = 0 iff AS regular on decided cases
    for label, rep in sorted(reports.items()):
        if rep.asreg.is_exact:
            cases.append(HarnessCase("asreg(%s) >= 0" % label, "leq", 0, rep.asreg))
            if rep.as_regular.status in ("yes", "no"):
                cases.append(
                    HarnessCase(
                        "asreg(%s) = 0 iff AS regular" % label,
                        "true",
                        (rep.asreg.value == 0) == (rep.as_regular.status == "yes"),
                    )
                )
    return cases


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so `main` reports it as an input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise PresentationError("%s: %s" % (self.prog, message))


def natural(text):
    """An argparse type: a non-negative integer (a degree, index or count)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


def make_parser():
    # `harness` builds its own algebras: it takes only the window, format and cache options
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--imax", type=natural, default=reg_mod.DEFAULT_I_MAX)
    window.add_argument("--dmax", type=natural, default=reg_mod.DEFAULT_D_MAX)
    window.add_argument("--dgb", type=natural, default=reg_mod.DEFAULT_D_GB)
    window.add_argument("--format", choices=("text", "jsonl"), default="text")
    window.add_argument("--no-cache", action="store_true")
    window.add_argument("--cache-dir")
    common = argparse.ArgumentParser(add_help=False, parents=[window])
    common.add_argument("--field", help="override the base field (Q or F<p>)")
    common.add_argument("--assert-cm", type=int, default=None, metavar="S")
    common.add_argument("--assert-noetherian", action="store_true")
    common.add_argument("--assert-balanced", action="store_true")
    common.add_argument(
        "--element-limit", type=natural, default=2000,
        help="Groebner completion budget (element count)",
    )

    parser = _Parser(
        prog="homreg",
        description="Regularity workbench for finitely presented connected graded algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", parents=[common], help="Groebner basis")
    p.add_argument("file")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert series")
    p.add_argument("file")
    p.add_argument("--truncate", type=natural, default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("resolve", parents=[common], help="Betti table")
    p.add_argument("file")
    p.add_argument("--module", help="module file (.mod) over the algebra")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("regularity", parents=[common], help="full regularity report")
    p.add_argument("file")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("koszul", parents=[common], help="Koszul verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("stanley", parents=[common], help="Stanley functional equation")
    p.add_argument("file")
    p.set_defaults(func=cmd_stanley)

    p = sub.add_parser("tensor", parents=[common], help="tensor product report")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("quotient", parents=[common], help="quotient by a normal regular element")
    p.add_argument("file")
    p.add_argument("--omega", required=True, help="homogeneous element, e.g. 'x^2'")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("finitemap", parents=[common], help="finite-map certificate")
    p.add_argument("file_t")
    p.add_argument("file_a")
    p.add_argument("--map", action="append", help="generator image name=poly (repeatable)")
    p.set_defaults(func=cmd_finitemap)

    p = sub.add_parser("concavity", parents=[common], help="concavity certificate")
    p.add_argument("file")
    p.add_argument("--witness", action="append", help="witness presentation file (repeatable)")
    p.add_argument("--map", action="append", help="generator image name=poly (repeatable)")
    p.set_defaults(func=cmd_concavity)

    p = sub.add_parser("obstruct", parents=[common], help="invariant-subring obstruction")
    p.add_argument("file")
    p.add_argument("--witness", action="append")
    p.add_argument("--map", action="append")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("harness", parents=[window], help="golden inequality suite")
    p.set_defaults(func=cmd_harness)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # the format a usage error is reported in, before argv is parsed
    jsonl = ("--format", "jsonl") in zip(argv, argv[1:]) or "--format=jsonl" in argv
    emit = Emitter("jsonl" if jsonl else "text")
    try:
        args = make_parser().parse_args(argv)
        emit.fmt = args.format
        code = args.func(args, emit)
        emit.out.flush()  # here, not at exit, so a closed stdout is reported
        return code
    except Exception as exc:
        return _report_failure(emit, exc)


def _report_failure(emit, exc):
    """Emit the `error` record for `exc` and return its exit code."""
    for types, cls, prefix, code in _FAILURES:
        if isinstance(exc, types):
            message = str(exc)
            break
    else:
        cls, prefix, code = "internal", "internal error", EXIT_INTERNAL
        import traceback  # here, as only an internal error needs it: it loads tokenize
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        message = "%s: %s (at %s:%d in %s)" % (
            type(exc).__name__, exc, os.path.basename(frame.filename), frame.lineno, frame.name
        )
    payload = {"class": cls, "message": message}
    text = "%s: %s" % (prefix, message)
    try:
        emit.record("error", payload, text=text)
        emit.out.flush()
    except (OSError, ValueError):
        # the output stream itself failed (say, a closed pipe): report on
        # stderr, and point stdout's descriptor at the null device so the
        # interpreter's flush at exit cannot fail a second time
        Emitter(emit.fmt, sys.stderr).record("error", payload, text=text)
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())

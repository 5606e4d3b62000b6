"""The four workloads: inputs from a seed, one pass, and its output checks.

Why each workload exists is recorded in BENCHMARK.json and README.md.

A pass returns its output records as JSONL lines.  `check` returns one
list of problems per item (an empty list means the item is correct); the
expected values come from theory or from brute force in `modgen`, except
the byte-for-byte comparisons with the JSONL that revision 9827f3c printed,
which are regression checks.  homreg is imported only inside `setup`, so
this file loads without it.
"""

import contextlib
import io
import json
import os
from math import comb

import modgen

HERE = os.path.dirname(os.path.abspath(__file__))

POLY4 = (
    "field Q; gens x:1 y:1 z:1 w:1; "
    "rels x*y - y*x, x*z - z*x, x*w - w*x, y*z - z*y, y*w - w*y, z*w - w*z"
)
POLY4_WINDOW = (8, 6, 6)  # i_max, d_max, d_gb
SKLYANIN_DGB = 9
SKLYANIN_ELEMENTS = 26  # at d_gb 9, as revision 9827f3c computed
FD_COUNT = 1  # modules per algebra and pass
FD_WINDOW = (8, 12, 12)


def _read(*parts):
    with open(os.path.join(HERE, *parts), "rb") as fh:
        return fh.read()


def _cli(homreg_cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = homreg_cli.main(argv)
    if code != 0:
        raise RuntimeError("homreg %s exited with %d" % (argv[0], code))
    return out.getvalue().splitlines()


def _record(rtype, payload):
    rec = {"schema": "homreg/1", "type": rtype}
    rec.update(payload)
    return json.dumps(rec, sort_keys=True)


def _betti_payload(label, table):
    return {
        "label": label,
        "entries": table.records(),
        "terminated": table.terminated,
        "termination_step": table.termination_step,
    }


def _diff(lines, expected):
    got = ("\n".join(lines) + "\n").encode()
    if got == expected:
        return []
    return ["JSONL differs from the recorded output (%d bytes, expected %d)" % (len(got), len(expected))]


# ---------------------------------------------------------------------------
# poly4_regularity: full report of commutative k[x,y,z,w]


def poly4_setup(seed):
    import homreg

    return {"homreg": homreg}


def poly4_run(inp):
    h = inp["homreg"]
    i_max, d_max, d_gb = POLY4_WINDOW
    art = h.regularity.AlgebraArtifacts(
        h.corealg.parse_presentation(POLY4, label="poly4"), i_max, d_max, d_gb, cache_dir=None
    )
    lines = [_record("regularity", rec) for rec in art.report().records()]
    lines.append(_record("betti", _betti_payload(art.label, art.betti_k())))
    return lines


def poly4_check(inp, lines):
    recs = [json.loads(line) for line in lines]
    inv = {r["invariant"]: r for r in recs if r["type"] == "regularity"}
    betti = [r for r in recs if r["type"] == "betti"]
    problems = []
    expect = {
        "torreg_k": ("exact", 0),
        "gldim": ("exact", 4),
        "as_index": ("exact", 4),
        "koszul": ("verdict", "yes"),
        "as_regular": ("verdict", "yes"),
    }
    for name, (kind, value) in expect.items():
        r = inv.get(name)
        if r is None or (r["kind"], r["value"]) != (kind, value):
            problems.append("%s: expected %s %s, got %s" % (name, kind, value, r))
    if inv.get("as_regular", {}).get("evidence") != "type (4, 4)":
        problems.append("AS regular type is not (4, 4)")
    # the Koszul complex of k[x,y,z,w]: beta_{i,j} = C(4,i) at j = i, zero elsewhere
    want = [{"i": i, "j": i, "rank": comb(4, i), "certified": True} for i in range(5)]
    if len(betti) != 1 or betti[0]["entries"] != want:
        problems.append("Betti table is not the Koszul complex: %s" % (betti[0]["entries"] if betti else None))
    elif (betti[0]["terminated"], betti[0]["termination_step"]) != (True, 4):
        problems.append("resolution of k did not terminate at step 4")
    return [problems]


# ---------------------------------------------------------------------------
# sklyanin_gb: `homreg gb` on a Sklyanin-type algebra


def sklyanin_setup(seed):
    import homreg.cli

    return {"cli": homreg.cli, "path": os.path.join(HERE, "inputs", "sklyanin.alg"),
            "expected": _read("expected", "sklyanin_gb.jsonl")}


def sklyanin_run(inp):
    argv = ["gb", inp["path"], "--dgb", str(SKLYANIN_DGB), "--no-cache", "--format", "jsonl"]
    return _cli(inp["cli"], argv)


def _lead_word(poly_text):
    """Letters of the first (leading, monic) term of a printed polynomial."""
    first = poly_text.replace(" - ", " + ").split(" + ")[0].lstrip("-")
    letters = ""
    for factor in first.split("*"):
        name, _, power = factor.partition("^")
        if not name[0].isdigit():
            letters += name * int(power or 1)
    return letters


def normal_word_counts(lead_words, gens, upto):
    """Number of words of each length avoiding every lead word as a factor."""
    counts = [1]
    layer = [""]
    for _ in range(upto):
        layer = [w + g for w in layer for g in gens if not any((w + g).endswith(u) for u in lead_words)]
        counts.append(len(layer))
    return counts


def sklyanin_check(inp, lines):
    problems = _diff(lines, inp["expected"])
    rec = json.loads(lines[0]) if len(lines) == 1 else {}
    elements = rec.get("elements", [])
    if (rec.get("complete"), rec.get("d_gb"), len(elements)) != (False, SKLYANIN_DGB, SKLYANIN_ELEMENTS):
        problems.append("expected %d elements of an incomplete basis at d_gb %d" % (SKLYANIN_ELEMENTS, SKLYANIN_DGB))
    # the algebra has the Hilbert series of a polynomial ring in three variables
    counts = normal_word_counts([_lead_word(e) for e in elements], "xyz", SKLYANIN_DGB)
    want = [comb(j + 2, 2) for j in range(SKLYANIN_DGB + 1)]
    if counts != want:
        problems.append("normal-word counts %s, expected %s" % (counts, want))
    return [problems]


# ---------------------------------------------------------------------------
# golden_harness: `homreg harness` at the default window


def golden_setup(seed):
    import homreg.cli

    return {"cli": homreg.cli, "expected": _read("expected", "golden_harness.jsonl")}


def golden_run(inp):
    return _cli(inp["cli"], ["harness", "--no-cache", "--format", "jsonl"])


def golden_check(inp, lines):
    problems = _diff(lines, inp["expected"])
    summary = json.loads(lines[-1]) if lines else {}
    if (summary.get("type"), summary.get("total"), summary.get("failed")) != ("harness_summary", 55, 0):
        problems.append("expected 55 checks with 0 failures, got %s" % summary)
    return [problems]


# ---------------------------------------------------------------------------
# fdmodules_f101: random finite-dimensional modules over T and the plane


def fdmodules_setup(seed):
    import homreg

    return {"homreg": homreg, "modules": modgen.modules(seed, FD_COUNT)}


def fdmodules_run(inp):
    h = inp["homreg"]
    i_max, d_max, d_gb = FD_WINDOW
    arts = {}
    for label in modgen.ALGEBRAS:
        pres = h.corealg.parse_presentation(modgen.presentation_text(label), label=label)
        arts[label] = h.regularity.AlgebraArtifacts(pres, i_max, d_max, d_gb, cache_dir=None)
    lines = []
    for m in inp["modules"]:
        art = arts[m["algebra"]]
        module = h.corealg.parse_module(m["text"], art.presentation)
        R = h.resolution.minimal_resolution(
            art.gb(), module, i_max, d_max, algebra_hilbert=art.hilbert_or_none(), label=art.label
        )
        lines.append(_record("betti", _betti_payload(art.label, h.resolution.betti_table(R))))
    return lines


def fdmodules_check(inp, lines):
    out = []
    for k, m in enumerate(inp["modules"]):
        if k >= len(lines):
            out.append(["no output"])
            continue
        rec = json.loads(lines[k])
        betti = {(e["i"], e["j"]): e["rank"] for e in rec["entries"]}
        out.append(modgen.check_resolution(m["algebra"], m["rows"], betti, rec["terminated"], FD_WINDOW[1]))
    return out


class Workload:
    def __init__(self, name, items, setup, run, check):
        self.name, self.items = name, items  # items: checked outputs per pass
        self.setup, self.run, self.check = setup, run, check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poly4_regularity", 1, poly4_setup, poly4_run, poly4_check),
        Workload("sklyanin_gb", 1, sklyanin_setup, sklyanin_run, sklyanin_check),
        Workload("golden_harness", 1, golden_setup, golden_run, golden_check),
        Workload("fdmodules_f101", 2 * FD_COUNT, fdmodules_setup, fdmodules_run, fdmodules_check),
    )
}

import glob
import io
import json
import os
import subprocess
import sys

import pytest

from homreg import cli
from homreg.cli import main
from oracles import src_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLES = sorted(
    os.path.splitext(os.path.basename(p))[0] for p in glob.glob(os.path.join(ROOT, "presentations", "*.alg"))
)

T34_SRC = "field Q\ngens x:1 y:1\nrels x^2*y - y*x^2, x*y^2 - y^2*x\n"
PLANE_SRC = "field Q\ngens x:1 y:1\nrels x*y - y*x\n"
KX_SRC = "field Q\ngens x:1\n"
A3_SRC = "field Q\ngens x:1\nrels x^3\n"
HYP_SRC = "field Q\ngens x:1 t:2\nrels x*t - t*x, t^2 - x^4\n"
F7_PLANE_SRC = "field F7\ngens x:1 y:1\nrels x*y - y*x\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, src in (
        ("t34", T34_SRC),
        ("plane", PLANE_SRC),
        ("kx", KX_SRC),
        ("a3", A3_SRC),
        ("hyp", HYP_SRC),
    ):
        p = tmp_path / (name + ".alg")
        p.write_text(src)
        paths[name] = str(p)
    return paths


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def sample(name):
    return os.path.join(ROOT, "presentations", name + ".alg")


def test_regularity_records(files, capsys):
    code, out = run(
        ["regularity", files["t34"], "--format", "jsonl", "--no-cache"], capsys
    )
    assert code == 0
    recs = {r["invariant"]: r for r in jsonl(out) if r["type"] == "regularity"}
    assert recs["torreg_k"]["value"] == 1 and recs["torreg_k"]["kind"] == "exact"
    assert recs["cmreg"]["value"] == -1
    assert recs["asreg"]["value"] == 0
    assert recs["as_regular"]["value"] == "yes"
    assert recs["gldim"]["value"] == 3
    for r in recs.values():
        assert r["schema"] == "homreg/1"
        assert "kind" in r and "window" in r  # qualifiers are never dropped


def test_determinism(files, capsys):
    args = ["regularity", files["t34"], "--format", "jsonl", "--no-cache"]
    _, out1 = run(args, capsys)
    _, out2 = run(args, capsys)
    assert out1 == out2


def test_missing_file_exit_code(files, capsys):
    code, out = run(["gb", files["t34"] + ".nope", "--no-cache"], capsys)
    assert code == 1
    assert "input error" in out


def test_bad_truncation_exit_code(files, capsys):
    code, out = run(["gb", files["t34"], "--dgb", "2", "--no-cache"], capsys)
    assert code == 1


def test_certification_exit_code(files, capsys):
    # d_gb = 3 leaves the basis of k[x]/(x^3) uncertified: no rational form
    code, out = run(["stanley", files["a3"], "--dgb", "3", "--no-cache"], capsys)
    assert code == 2
    assert "certification" in out


def test_resource_limit_exit_code(files, capsys):
    code, out = run(
        ["gb", files["t34"], "--element-limit", "1", "--no-cache"], capsys
    )
    assert code == 3
    assert "resource limit" in out


def test_stanley_command(files, capsys):
    code, out = run(["stanley", files["a3"], "--format", "jsonl", "--no-cache"], capsys)
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["satisfied"] and rec["sign"] == 1 and rec["shift"] == -2


def test_gb_and_hilbert_commands(files, capsys):
    code, out = run(["gb", files["plane"], "--format", "jsonl", "--no-cache"], capsys)
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["complete"] and rec["elements"] == ["x*y - y*x"]

    code, out = run(["hilbert", files["t34"], "--format", "jsonl", "--no-cache"], capsys)
    recs = jsonl(out)
    assert recs[0]["coefficients"][:5] == [1, 2, 4, 6, 9]
    assert recs[1]["degree"] == -4


def test_resolve_with_module_file(files, tmp_path, capsys):
    mod = tmp_path / "shifted.mod"
    mod.write_text("side left\ngens 0 2\nrels x*e0, y*e0, x*e1, y*e1\n")
    code, out = run(
        ["resolve", files["t34"], "--module", str(mod), "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 0
    (rec,) = jsonl(out)
    ranks = {(e["i"], e["j"]): e["rank"] for e in rec["entries"]}
    assert ranks[(0, 0)] == 1 and ranks[(0, 2)] == 1
    assert ranks[(3, 4)] == 1 and ranks[(3, 6)] == 1
    assert rec["terminated"]


def test_resolve_right_module(files, tmp_path, capsys):
    # the trivial module as a right module routes through the opposite algebra
    mod = tmp_path / "rk.mod"
    mod.write_text("side right\ngens 0\nrels x*e0, y*e0\n")
    code, out = run(
        ["resolve", files["t34"], "--module", str(mod), "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 0
    (rec,) = jsonl(out)
    ranks = {(e["i"], e["j"]): e["rank"] for e in rec["entries"]}
    assert ranks == {(0, 0): 1, (1, 1): 2, (2, 3): 2, (3, 4): 1}


def test_resolve_text_grid(files, capsys):
    code, out = run(["resolve", files["t34"], "--no-cache"], capsys)
    assert code == 0
    assert "terminated: True" in out
    assert "i\\j" in out  # the text grid header


def test_quotient_command(files, capsys):
    code, out = run(
        ["quotient", files["t34"], "--omega", "x^2", "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 0
    recs = jsonl(out)
    cert = next(r for r in recs if r["type"] == "normal_element_certificate")
    assert cert["normal"] and cert["degree"] == 2
    pres = next(r for r in recs if r["type"] == "presentation")
    assert "x^2" in pres["text"]
    regs = {r["invariant"]: r for r in recs if r["type"] == "regularity"}
    assert regs["asreg"]["value"] == 1


def test_tensor_command(files, capsys):
    code, out = run(
        ["tensor", files["plane"], files["kx"], "--format", "jsonl", "--no-cache"], capsys
    )
    assert code == 0
    recs = jsonl(out)
    regs = {r["invariant"]: r for r in recs if r["type"] == "regularity"}
    assert regs["torreg_k"]["value"] == 0
    assert regs["cmreg"]["value"] == 0


def test_finitemap_command(files, capsys):
    code, out = run(
        ["finitemap", files["kx"], files["hyp"], "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["verdict"] == "finite"
    assert rec["left_cokernel"][:4] == [1, 0, 1, 0]


def test_obstruct_command(files, capsys):
    code, out = run(
        [
            "obstruct", files["hyp"], "--witness", files["kx"],
            "--format", "jsonl", "--no-cache",
        ],
        capsys,
    )
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["status"] == "obstructed"
    assert "c = 0 < 1" in rec["inequality"]


def test_concavity_command(files, capsys):
    code, out = run(
        [
            "concavity", files["hyp"], "--witness", files["kx"],
            "--format", "jsonl", "--no-cache",
        ],
        capsys,
    )
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["exact"] and rec["upper"]["value"] == 0


def test_concavity_text_without_witness(files, capsys):
    code, out = run(["concavity", files["a3"], "--no-cache"], capsys)
    assert code == 0
    assert out.strip() == "concavity of a3: c = unknown, c_minus = >=0"
    _, out = run(["concavity", files["a3"], "--no-cache", "--format", "jsonl"], capsys)
    (rec,) = jsonl(out)
    assert rec["upper"]["kind"] == "unknown" and rec["upper"]["value"] is None


def test_cache_directory(files, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["gb", files["t34"], "--cache-dir", cache, "--format", "jsonl"]
    _, out1 = run(args, capsys)
    assert any(name.endswith(".gb") for name in os.listdir(cache))
    _, out2 = run(args, capsys)  # second run hits the cache
    assert out1 == out2


def test_cache_directory_from_environment(files, tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache"
    monkeypatch.setenv("HOMREG_CACHE_DIR", str(cache))
    code, _ = run(["gb", files["t34"], "--format", "jsonl"], capsys)
    assert code == 0
    assert any(name.endswith(".gb") for name in os.listdir(cache))


def test_undecodable_cache_file_is_a_miss(tmp_path, capsys):
    # a cache file that is not valid UTF-8 used to end in exit 4
    # ("internal error: UnicodeDecodeError"); it is recomputed and overwritten
    cache = str(tmp_path / "cache")
    args = ["gb", sample("t34"), "--dgb", "6", "--cache-dir", cache, "--format", "jsonl"]
    code, out1 = run(args, capsys)
    assert code == 0
    (path,) = glob.glob(os.path.join(cache, "*.gb"))
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe homreg-gb \x80\n")
    code, out2 = run(args, capsys)
    assert code == 0
    assert out2 == out1
    with open(path, "rb") as fh:
        assert fh.read().startswith(b"homreg-gb ")


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_hilbert_on_incomplete_basis_refuses_rational_form(files, capsys, fmt):
    code, out = run(
        ["hilbert", files["a3"], "--dgb", "3", "--dmax", "3", "--no-cache", "--format", fmt],
        capsys,
    )
    assert code == 0
    if fmt == "jsonl":
        trunc, refused = jsonl(out)
        assert trunc["type"] == "hilbert_truncated" and trunc["coefficients"] == [1, 1, 1, 0]
        assert refused["type"] == "hilbert_rational_unavailable"
        assert refused["reason"] == "Groebner basis incomplete"
    else:
        assert "rational form refused: Groebner basis incomplete" in out


def test_field_override(files, capsys):
    code, out = run(
        ["gb", files["t34"], "--field", "F101", "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["complete"]


@pytest.mark.parametrize(
    "field, element",
    [("F5", "x*y + 4*y*x"), ("Q", "x*y - y*x"), ("F7", "x*y + 6*y*x"), ("F101", "x*y + 100*y*x")],
)
def test_field_override_reads_prime_field_coefficients_as_written(tmp_path, capsys, field, element):
    # -1 in a F7 file is -1 in the override field, not the residue 6
    path = tmp_path / "f7plane.alg"
    path.write_text(F7_PLANE_SRC)
    code, out = run(["gb", str(path), "--field", field, "--no-cache", "--format", "jsonl"], capsys)
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["elements"] == [element]


@pytest.mark.parametrize(
    "argv, role",
    [
        (["concavity", "{f7}", "--witness", "{kx}"], "witness"),
        (["obstruct", "{f7}", "--witness", "{kx}"], "witness"),
        (["finitemap", "{kx}", "{f7}"], "source"),
    ],
    ids=["concavity", "obstruct", "finitemap"],
)
def test_map_between_base_fields_is_input_error(files, tmp_path, capsys, argv, role):
    f7 = tmp_path / "f7plane.alg"
    f7.write_text(F7_PLANE_SRC)
    argv = [a.format(f7=f7, kx=files["kx"]) for a in argv]
    code, out = run(argv + ["--no-cache", "--format", "jsonl"], capsys)
    assert code == cli.EXIT_INPUT == 1
    (rec,) = jsonl(out)
    assert rec["type"] == "error" and rec["class"] == "input"
    assert rec["message"] == (
        "%s kx is over Q but f7plane is over F7; a map must keep the base field" % role
    )


def test_assertions_echoed(files, capsys):
    code, out = run(
        [
            "regularity", files["plane"], "--assert-cm", "2", "--assert-noetherian",
            "--format", "jsonl", "--no-cache",
        ],
        capsys,
    )
    recs = jsonl(out)
    notes = recs[0]["assertions"]
    assert any("asserted on the command line" in a for a in notes)


def test_assert_balanced_is_echoed_in_every_record(files, capsys):
    code, out = run(
        ["regularity", files["plane"], "--assert-balanced", "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 0
    recs = jsonl(out)
    assert recs and all(
        "balanced dualizing complex: asserted on the command line" in r["assertions"] for r in recs
    )


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize(
    "command, extra, name",
    [
        ("finitemap", ["hyp", "--map", "y=t"], "y"),
        ("concavity", ["--witness", "kx", "--map", "q=t"], "q"),
        ("obstruct", ["--witness", "kx", "--map", "x=x", "--map", "q=t"], "q"),
    ],
)
def test_map_name_of_no_source_generator_is_input_error(files, capsys, command, extra, name, fmt):
    # finitemap maps from its first file, concavity and obstruct from each witness
    first = files["kx"] if command == "finitemap" else files["hyp"]
    argv = [command, first] + [files.get(a, a) for a in extra]
    code, out = run(argv + ["--no-cache", "--format", fmt], capsys)
    assert code == cli.EXIT_INPUT == 1
    if fmt == "jsonl":
        (rec,) = jsonl(out)
        assert rec["type"] == "error" and rec["class"] == "input"
        message = rec["message"]
    else:
        assert out.startswith("input error: ")
        message = out
    assert "--map names %s," % name in message


def _input_error_message(out, fmt):
    if fmt == "jsonl":
        (rec,) = jsonl(out)
        assert rec["type"] == "error" and rec["class"] == "input"
        return rec["message"]
    assert out.startswith("input error: ")
    return out


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_map_name_given_twice_is_input_error(capsys, fmt):
    # either order used to keep the last image and drop the first without a word
    for maps in (["u=x", "u=x^2"], ["u=x^2", "u=x"]):
        argv = ["finitemap", sample("ku2"), sample("kx")]
        argv += [a for m in maps for a in ("--map", m)] + ["--no-cache", "--format", fmt]
        code, out = run(argv, capsys)
        assert code == cli.EXIT_INPUT == 1
        assert "--map names u twice" in _input_error_message(out, fmt)


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize(
    "argv, role",
    [
        (["concavity", sample("ku2"), "--witness", sample("kx")], "witness"),
        (["obstruct", sample("ku2"), "--witness", sample("kx")], "witness"),
        (["finitemap", sample("kx"), sample("ku2")], "source"),
    ],
    ids=["concavity", "obstruct", "finitemap"],
)
def test_unmapped_generator_missing_from_target_is_named(capsys, argv, role, fmt):
    # x of kx has no --map entry, so it maps to x, which ku2 does not have
    code, out = run(argv + ["--no-cache", "--format", fmt], capsys)
    assert code == cli.EXIT_INPUT == 1
    message = _input_error_message(out, fmt)
    assert (
        "generator x of %s kx has no --map entry, so it was mapped to itself, "
        "but ku2 has no generator x" % role
    ) in message


def test_map_name_of_one_witness_applies_to_that_witness(capsys):
    # u is a generator of ku2 only; kx keeps its name-matched image x -> x
    argv = ["concavity", sample("hypersurface_t2"), "--witness", sample("kx")]
    argv += ["--witness", sample("ku2"), "--map", "u=t", "--no-cache", "--format", "jsonl"]
    code, out = run(argv, capsys)
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["witnesses"] == ["kx", "ku2"]


@pytest.mark.parametrize("row", ["x^ * e0", "x^a*e0", "x*e0, y^"])
def test_module_row_bad_exponent_is_input_error(files, tmp_path, capsys, row):
    mod = tmp_path / "bad.mod"
    mod.write_text("side left\ngens 0\nrels %s\n" % row)
    code, out = run(
        ["resolve", files["plane"], "--module", str(mod), "--format", "jsonl", "--no-cache"],
        capsys,
    )
    assert code == 1
    (rec,) = jsonl(out)
    assert rec["type"] == "error" and rec["class"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "{dangling}"],
        ["quotient", sample("t34"), "--omega", "x^2*"],
        ["finitemap", sample("ku2"), sample("kx"), "--map", "u=x^2*"],
        ["resolve", sample("comm_plane"), "--module", "{empty_item}"],
        ["resolve", sample("comm_plane"), "--module", "{trailing_comma}"],
    ],
    ids=["rels-dangling-star", "omega-dangling-star", "map-dangling-star", "module-empty-item", "module-trailing-comma"],
)
def test_one_term_grammar_refuses_dangling_star_and_empty_items(tmp_path, capsys, argv):
    # a '*' must be followed by a factor or a basis symbol, and no list item may be empty
    files = {
        "dangling": ("a.alg", "field Q\ngens x:1 y:1\nrels x*y - y*x*\n"),
        "empty_item": ("m.mod", "side left\ngens 0\nrels x*e0,, y*e0\n"),
        "trailing_comma": ("m.mod", "side left\ngens 0\nrels x*e0,\n"),
    }
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = tmp_path / key / name
        paths[key].parent.mkdir()
        paths[key].write_text(text)
    argv = [a.format(**paths) for a in argv]
    code, out = run(argv + ["--no-cache", "--format", "jsonl"], capsys)
    assert code == cli.EXIT_INPUT == 1
    (rec,) = jsonl(out)
    assert rec["type"] == "error" and rec["class"] == "input"


def test_quotient_keeps_the_element_limit(capsys):
    # the quotient (rels x*y - y*x, x^2) needs more than one basis element
    argv = ["quotient", sample("comm_plane"), "--omega", "x^2", "--element-limit", "1"]
    code, out = run(argv + ["--no-cache", "--format", "jsonl"], capsys)
    assert code == cli.EXIT_RESOURCES == 3
    rec = jsonl(out)[-1]  # after the certificate and the presentation of the quotient
    assert rec["type"] == "error" and rec["class"] == "resources"


@pytest.mark.parametrize(
    "name, s, needed",
    [("t34", 0, 3), ("kx_mod_x2", 5, 0)],
    ids=["as-regular-type-3-4", "finite-dimensional"],
)
def test_contradicted_cm_degree_is_certification_error(capsys, name, s, needed):
    # CMreg = s + deg h: AS type (3, 4) has CMreg -1 and deg h -4, and a
    # finite-dimensional algebra has CMreg = deg h
    argv = ["regularity", sample(name), "--assert-cm", str(s)]
    code, out = run(argv + ["--no-cache", "--format", "jsonl"], capsys)
    assert code == cli.EXIT_CERTIFICATION == 2
    (rec,) = jsonl(out)
    assert rec["type"] == "error" and rec["class"] == "certification"
    assert "asserted Cohen-Macaulay degree %d contradicts" % s in rec["message"]
    assert rec["message"].endswith("needs s = %d" % needed)


def test_quotient_does_not_inherit_the_cm_degree(capsys):
    # s = 3 holds for t34 of AS type (3, 4), not for t34/(x^2) of type (2, 2)
    argv = ["quotient", sample("t34"), "--omega", "x^2", "--assert-cm", "3"]
    code, out = run(argv + ["--no-cache", "--format", "jsonl"], capsys)
    assert code == 0
    regs = [r for r in jsonl(out) if r["type"] == "regularity"]
    assert regs and not any("Cohen-Macaulay" in a for r in regs for a in r["assertions"])


@pytest.mark.parametrize(
    "alg, row, extra",
    [
        ("field Q; gens x:1 y:1; rels x*y - 1/0*y*x", None, []),
        ("field F5; gens x:1 y:1; rels x*y - 1/5*y*x", None, []),
        ("field Q; gens x:1 y:1; rels x*y - 1/7*y*x", None, ["--field", "F7"]),
        ("field Q; gens x:1 y:1; rels x*y - y*x", "1/0*x*e0", []),
        ("field F5; gens x:1 y:1; rels x*y - y*x", "1/10*x*e0", []),
    ],
    ids=["q-zero-den", "f5-den-5", "field-f7-den-7", "module-q-zero-den", "module-f5-den-10"],
)
def test_undefined_coefficient_is_input_error(tmp_path, capsys, alg, row, extra):
    path = tmp_path / "a.alg"
    path.write_text(alg + "\n")
    argv = ["gb", str(path)]
    if row is not None:
        mod = tmp_path / "m.mod"
        mod.write_text("side left\ngens 0\nrels %s\n" % row)
        argv = ["resolve", str(path), "--module", str(mod)]
    code, out = run(argv + extra + ["--format", "jsonl", "--no-cache"], capsys)
    assert code == cli.EXIT_INPUT == 1
    (rec,) = jsonl(out)
    assert rec["type"] == "error" and rec["class"] == "input"
    assert "is undefined in" in rec["message"]


def test_quotient_reports_as_gorenstein_hint(capsys):
    # t34 is AS regular of type (3, 4); x^2 is normal and regular of degree 2
    path = os.path.join(ROOT, "presentations", "t34.alg")
    code, out = run(["quotient", path, "--omega", "x^2", "--no-cache"], capsys)
    assert code == 0
    line = (
        "  annotation: AS-Gorenstein of type (2, 2): "
        "quotient of an AS regular algebra by a normal regular element"
    )
    assert line in out.splitlines()


def test_quotient_by_zero_divisor_reports_failed_regularity(tmp_path, capsys):
    # x*y = 0 makes x a zero divisor in degree 2, though it is normal
    alg = tmp_path / "zd.alg"
    alg.write_text("field Q; gens x:1 y:1; rels x*y - y*x, x*y\n")
    code, out = run(
        ["quotient", str(alg), "--omega", "x", "--format", "jsonl", "--no-cache"], capsys
    )
    assert code == 0
    cert = next(r for r in jsonl(out) if r["type"] == "normal_element_certificate")
    assert cert["normal"] and cert["regular"] is False
    assert cert["regular_up_to"] == 1
    code, out = run(["quotient", str(alg), "--omega", "x", "--no-cache"], capsys)
    assert "regularity fails at degree 2" in out
    assert "regular up to degree" not in out


def test_quotient_failure_paths(capsys):
    # x is not normal in the Sklyanin-type algebra: an input error, found
    # before the regularity check reads any degree above d_gb
    sklyanin = os.path.join(ROOT, "perfbench", "inputs", "sklyanin.alg")
    argv = ["quotient", sklyanin, "--omega", "x", "--dgb", "4", "--dmax", "8", "--no-cache", "--format", "jsonl"]
    code, out = run(argv, capsys)
    assert code == cli.EXIT_INPUT == 1
    (rec,) = jsonl(out)
    assert rec["type"] == "error" and rec["class"] == "input"
    assert rec["message"].startswith("normality fails for generator ")
    # x is normal in k[x]/(x^2) but kills itself: regular through degree 1 only
    argv = ["quotient", sample("kx_mod_x2"), "--omega", "x", "--no-cache", "--format", "jsonl"]
    code, out = run(argv, capsys)
    assert code == 0
    cert = next(r for r in jsonl(out) if r["type"] == "normal_element_certificate")
    assert (cert["normal"], cert["regular"], cert["regular_up_to"]) == (True, False, 1)


PIN_COMMANDS = {c: [c] for c in ("regularity", "hilbert", "gb", "resolve", "koszul", "stanley")}
PIN_COMMANDS["regularity_f101"] = ["regularity", "--field", "F101"]
PIN_COMMANDS["resolve_f101"] = ["resolve", "--field", "F101"]


@pytest.mark.parametrize("command", list(PIN_COMMANDS))
@pytest.mark.parametrize("name", SAMPLES)
def test_sample_output_is_pinned(capsys, name, command):
    # tests/expected/<name>.<command>.jsonl is the output of
    # `homreg <args> presentations/<name>.alg --no-cache --format jsonl`, with
    # <args> = PIN_COMMANDS[command] inserted after the subcommand;
    # rewrite it that way only when a change alters the output on purpose
    path = os.path.join(ROOT, "presentations", name + ".alg")
    cmd, *opts = PIN_COMMANDS[command]
    code, out = run([cmd, path, *opts, "--no-cache", "--format", "jsonl"], capsys)
    assert code == 0
    with open(os.path.join(ROOT, "tests", "expected", "%s.%s.jsonl" % (name, command))) as fh:
        assert out == fh.read()


CONSTRUCTION_PINS = {
    "t34.quotient_x2": ["quotient", sample("t34"), "--omega", "x^2"],
    "t34.quotient_commutator": ["quotient", sample("t34"), "--omega", "x*y - y*x"],
    "ku2-kx.finitemap": ["finitemap", sample("ku2"), sample("kx"), "--map", "u=x^2"],
    "hypersurface_t2-kx.concavity": [
        "concavity", sample("hypersurface_t2"), "--witness", sample("kx"),
    ],
    "hypersurface_t2-kx.obstruct": [
        "obstruct", sample("hypersurface_t2"), "--witness", sample("kx"),
    ],
    "t34-kx.tensor": ["tensor", sample("t34"), sample("kx")],
    # non-unit coefficients: the witness 1/2*y, and eliminations whose pivots
    # are not +-1 (2, 1/2, -3/2, ...)
    "qplane2.quotient_x": ["quotient", sample("qplane2"), "--omega", "x"],
    "sklyanin.regularity_4_6_6": [
        "regularity", os.path.join(ROOT, "perfbench", "inputs", "sklyanin.alg"),
        "--imax", "4", "--dmax", "6", "--dgb", "6",
    ],
    # completions in which the chain criterion skips overlaps
    "sklyanin.gb_11": ["gb", os.path.join(ROOT, "perfbench", "inputs", "sklyanin.alg"), "--dgb", "11"],
    "sklyanin.gb_10_f101": [
        "gb", os.path.join(ROOT, "perfbench", "inputs", "sklyanin.alg"), "--dgb", "10", "--field", "F101",
    ],
    # a Q completion whose cost is coefficient height (coefficients of
    # hundreds of digits at d_gb 6); kept out of presentations/, whose
    # every file is pinned at the default window
    "qheight.gb_6": ["gb", os.path.join(ROOT, "tests", "inputs", "qheight.alg"), "--dgb", "6"],
    # module resolutions: non-integral Q values, the same module over F101,
    # and a right module resolved over the opposite algebra
    "t34-t34_frac.resolve_module": [
        "resolve", sample("t34"), "--module", os.path.join(ROOT, "presentations", "t34_frac.mod"),
    ],
    "t34-t34_frac.resolve_module_f101": [
        "resolve", sample("t34"), "--module", os.path.join(ROOT, "presentations", "t34_frac.mod"),
        "--field", "F101",
    ],
    "qplane2-qplane2_right.resolve_module": [
        "resolve", sample("qplane2"), "--module", os.path.join(ROOT, "presentations", "qplane2_right.mod"),
    ],
    # k(2): a finite-dimensional module below degree 0, certified by the Euler identity
    "comm_plane-comm_plane_k2.resolve_module": [
        "resolve", sample("comm_plane"), "--module", os.path.join(ROOT, "presentations", "comm_plane_k2.mod"),
    ],
    # an asserted Cohen-Macaulay degree: CMreg = s + deg h, which also drives
    # the numerical "no" route of the AS-regularity verdict
    "hypersurface_t2.regularity_assert_cm": [
        "regularity", sample("hypersurface_t2"), "--assert-cm", "1",
    ],
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_PINS))
def test_construction_output_is_pinned(capsys, name):
    # tests/expected/<name>.jsonl is the output of the command with
    # `--no-cache --format jsonl`; rewrite it only when a change alters it on purpose
    code, out = run(CONSTRUCTION_PINS[name] + ["--no-cache", "--format", "jsonl"], capsys)
    assert code == 0
    with open(os.path.join(ROOT, "tests", "expected", name + ".jsonl")) as fh:
        assert out == fh.read()


def test_harness_output_is_the_benchmark_golden(capsys):
    code, out = run(["harness", "--no-cache", "--format", "jsonl"], capsys)
    assert code == 0
    with open(os.path.join(ROOT, "perfbench", "expected", "golden_harness.jsonl")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_generator_above_window_is_certification_error(files, tmp_path, capsys, fmt):
    # a module generated in degree 20 is not zero, only invisible at d_max 12
    mod = tmp_path / "g20.mod"
    mod.write_text("gens 20\n")
    code, out = run(
        ["resolve", files["kx"], "--module", str(mod), "--no-cache", "--format", fmt], capsys
    )
    assert code == cli.EXIT_CERTIFICATION == 2
    message = "the module vanishes through d_max = 12 but has a generator above it"
    if fmt == "jsonl":
        (rec,) = jsonl(out)
        assert rec["type"] == "error" and rec["class"] == "certification"
        assert rec["message"] == message
    else:
        assert out.strip() == "certification error: " + message


class BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fault", ["command-raises-indexerror", "stdout-broken-pipe"])
def test_unexpected_error_is_internal(files, capsys, monkeypatch, fault):
    if fault == "command-raises-indexerror":
        def cmd_gb(args, emit):
            raise IndexError("tuple index out of range")

        monkeypatch.setattr(cli, "cmd_gb", cmd_gb)
    else:
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = main(["gb", files["t34"], "--format", "jsonl", "--no-cache"])
    assert code == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    # a failed stdout sends the record to stderr
    (rec,) = jsonl(captured.err if fault == "stdout-broken-pipe" else captured.out)
    assert rec["type"] == "error" and rec["class"] == "internal"
    assert rec["message"].startswith(("IndexError", "BrokenPipeError"))


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("bad", [["--bogus"], ["--dgb", "x"]], ids=["unknown-option", "bad-int"])
def test_usage_error_is_input_error(files, capsys, bad, fmt):
    code = main(["gb", files["t34"], "--no-cache", "--format", fmt] + bad)
    assert code == cli.EXIT_INPUT == 1
    captured = capsys.readouterr()
    assert "usage: homreg" in captured.err
    if fmt == "jsonl":
        (rec,) = jsonl(captured.out)
        assert rec["type"] == "error" and rec["class"] == "input"
    else:
        assert captured.out.startswith("input error: homreg")


@pytest.mark.parametrize(
    "extra",
    [
        ["--field", "F4", "--assert-cm", "99", "--element-limit", "1"],
        ["--field", "F7"],
        ["--element-limit", "1"],
        ["--assert-cm", "0"],
        ["--assert-noetherian"],
        ["--assert-balanced"],
    ],
    ids=["all", "field", "element-limit", "assert-cm", "assert-noetherian", "assert-balanced"],
)
def test_harness_refuses_the_options_it_ignores(capsys, extra):
    # the golden suite builds its own algebras: no file to take a field, a limit or an assertion
    code = main(["harness", "--no-cache", "--format", "jsonl"] + extra)
    assert code == cli.EXIT_INPUT == 1
    captured = capsys.readouterr()
    assert "usage: homreg" in captured.err
    (rec,) = jsonl(captured.out)
    assert rec["type"] == "error" and rec["class"] == "input"
    assert "unrecognized arguments: " + " ".join(extra) in rec["message"]


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("flag", ["--imax", "--dmax", "--dgb", "--truncate", "--element-limit"])
def test_negative_window_flag_is_input_error(files, capsys, flag, fmt):
    # `--dmax -1` used to reach WordAutomaton.dims and exit 4 with an IndexError
    code = main(["hilbert", files["kx"], "--no-cache", "--format", fmt, flag, "-1"])
    assert code == cli.EXIT_INPUT == 1
    captured = capsys.readouterr()
    assert "usage: homreg hilbert" in captured.err
    message = "argument %s: must be >= 0, got -1" % flag
    if fmt == "jsonl":
        (rec,) = jsonl(captured.out)
        assert rec["type"] == "error" and rec["class"] == "input"
        assert message in rec["message"]
    else:
        assert captured.out.startswith("input error: homreg hilbert: " + message)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gb", "--help"])
    assert info.value.code == 0
    assert "usage: homreg gb" in capsys.readouterr().out


def test_closed_stdout_is_internal_when_buffered(files):
    # without PYTHONUNBUFFERED the child's stdout is block-buffered, so the
    # write fails only when the buffer is flushed
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "homreg.cli", "gb", files["t34"], "--no-cache", "--format", "jsonl"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_INTERNAL == 4
    (rec,) = jsonl(proc.stderr.decode())
    assert rec["class"] == "internal" and rec["message"].startswith("BrokenPipeError")


@pytest.mark.parametrize("command, sizes", [("gb", [257]), ("tensor", [1, 256])])
def test_more_than_256_generators_is_input_error(tmp_path, capsys, command, sizes):
    # a word holds one byte per letter; the small window keeps a run that
    # misses the check short
    files = []
    for k, n in enumerate(sizes):
        alg = tmp_path / ("f%d.alg" % k)
        alg.write_text("field Q\ngens %s\n" % " ".join("g%d:1" % i for i in range(n)))
        files.append(str(alg))
    window = ["--imax", "1", "--dmax", "1", "--dgb", "2"]
    code = main([command, *files, *window, "--no-cache", "--format", "jsonl"])
    assert code == cli.EXIT_INPUT == 1
    (rec,) = jsonl(capsys.readouterr().out)
    assert rec["type"] == "error" and rec["class"] == "input"
    assert "257 generators" in rec["message"] and "at most 256" in rec["message"]


def test_no_cache_run_does_not_import_the_cache_machinery(tmp_path):
    # hashlib loads OpenSSL; -S keeps site hooks from importing either first
    script = "\n".join([
        "import contextlib, io, sys",
        "import homreg, homreg.cli",
        "def loaded():",
        "    return sorted(m for m in ('hashlib', 'tempfile') if m in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = homreg.cli.main(['gb', sys.argv[1], '--no-cache'])",
        "print(code, loaded())",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = homreg.cli.main(['gb', sys.argv[1], '--cache-dir', sys.argv[2]])",
        "print(code, loaded())",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, sample("t34"), str(tmp_path / "cache")],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the cached run is the control: it does import both
    assert proc.stdout.splitlines() == ["0 []", "0 ['hashlib', 'tempfile']"]


def test_commands_do_not_import_dataclasses_or_inspect():
    # the records are slotted classes; dataclasses would load inspect and ast;
    # traceback is imported only to report an internal error
    script = "\n".join([
        "import contextlib, io, sys",
        "import homreg, homreg.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [homreg.cli.main([c, sys.argv[1], '--no-cache']) for c in ('gb', 'regularity')]",
        "print(codes, sorted(m for m in ('dataclasses', 'inspect', 'ast', 'traceback') if m in sys.modules))",
    ])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, sample("t34")],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0] []"]


def test_python_dash_m_homreg_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "homreg", "gb", sample("t34"), "--no-cache", "--format", "jsonl"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "expected", "t34.gb.jsonl")) as fh:
        assert proc.stdout == fh.read()

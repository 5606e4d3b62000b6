"""No homreg module imports a private name (one starting with `_`) from
another, the integer-only modules import no `Fraction`, and the legacy
elimination API has no caller in src/ beyond the one each keeps."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "homreg")


def private_imports(path):
    """(line, module, name) of each `from <homreg module> import _name` in the file at `path`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "homreg")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_from_another():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) >= 9
    found = {os.path.basename(p): private_imports(p) for p in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_relative_and_absolute_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .series import _pmul, first_difference\nfrom homreg.gbasis import _to_ints\n"
                    "from . import linalg\nfrom __future__ import annotations\n")
    assert private_imports(str(path)) == [(1, "series", "_pmul"), (2, "homreg.gbasis", "_to_ints")]


# the modules whose arithmetic runs on plain integers only
INTEGER_ONLY = ("gbasis.py", "regularity.py", "series.py")


def fraction_imports(path):
    """(line, module, name) of each import of the `fractions` module, or of a
    name `Fraction` from any module, in the file at `path`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hits += [
                (node.lineno, module, alias.name)
                for alias in node.names
                if (node.level == 0 and module.split(".")[0] == "fractions") or alias.name == "Fraction"
            ]
    return hits


def test_the_integer_only_modules_import_no_fraction():
    found = {name: fraction_imports(os.path.join(SRC, name)) for name in INTEGER_ONLY}
    assert found == {name: [] for name in INTEGER_ONLY}


def test_the_fraction_check_sees_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import fractions\nfrom fractions import gcd as g\nfrom .corealg import Fraction, Poly\n"
                    "import os, fractions.x\nfrom . import linalg\nfrom math import gcd\n")
    assert fraction_imports(str(path)) == [
        (1, "fractions", None),
        (2, "fractions", "gcd"),
        (3, "corealg", "Fraction"),
        (4, "fractions.x", None),
    ]


# the legacy elimination API and `module_via_map` stay for perfbench's layer
# tracer only: each name may be called from these callers in src/ and no other
LEGACY_CALLERS = {
    "row_reduce": {"linalg.solve"},
    "solve": {"constructions._solve_witness"},
    "RowReduction": {"linalg.row_reduce"},
    "complement_basis": set(),
    "module_via_map": set(),
}


def calls_by_caller(path, names):
    """{name: {caller}} for each call of a name in `names` in the file at
    `path`, as a bare name or as an attribute; the caller is the module
    name and the enclosing class and function names, dot-joined."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.setdefault(name, set()).add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (os.path.splitext(os.path.basename(path))[0],))
    return found


def test_the_legacy_elimination_api_keeps_its_one_caller_each():
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        for name, callers in calls_by_caller(path, LEGACY_CALLERS).items():
            found.setdefault(name, set()).update(callers)
    assert {name: found.get(name, set()) for name in LEGACY_CALLERS} == LEGACY_CALLERS


def test_the_caller_check_sees_attribute_and_bare_calls(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import linalg\nfrom .linalg import row_reduce\n\n"
                    "def f(m):\n    return linalg.row_reduce(m, 1, None)\n\n"
                    "class C:\n    def g(self, m):\n        return row_reduce(m, 1, None)\n\n"
                    "row_reduce\nmodule_via_map(1)\n")
    assert calls_by_caller(str(path), {"row_reduce", "module_via_map"}) == {
        "row_reduce": {"m.f", "m.C.g"},
        "module_via_map": {"m"},
    }

"""No homreg module imports a private name (one starting with `_`) from
another, and the integer-only modules import no `Fraction`."""

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

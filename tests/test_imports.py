"""No homreg module imports a private name (one starting with `_`) from another."""

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

"""The names perfbench/layertrace.py wraps must exist in homreg.

`install` patches homreg globally, so it is not called here; the test
only resolves every wrapped path, so a rename fails here instead of
breaking a traced benchmark run.
"""

import importlib
import os

import homreg

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layertrace = importlib.import_module("layertrace")
    for _, module_name, path, _ in layertrace.TARGETS:
        owner = getattr(homreg, module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module_name, path)
    for method in layertrace.OPPOSITE_METHODS:
        assert callable(getattr(homreg.regularity.AlgebraArtifacts, method)), method

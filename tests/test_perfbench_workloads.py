"""Each perfbench workload runs one pass in this process and checks it.

A workload calls homreg through the API (`AlgebraArtifacts(...,
cache_dir=None)`, `betti_table`, `BettiTable.records`, `terminated`,
`termination_step`, `report().records()`) and through the CLI, so a change
that breaks it fails here instead of in a benchmark run.  perfbench is
only read: no bytecode is written there.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("name", ["poly4_regularity", "sklyanin_gb", "golden_harness", "fdmodules_f101"])
def test_one_pass_of_each_workload_reports_no_problems(monkeypatch, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workload = importlib.import_module("workloads").WORKLOADS[name]
    inp = workload.setup(1)
    problems = workload.check(inp, workload.run(inp))
    assert problems == [[]] * workload.items

"""homreg benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/homreg).  Every
pass is a new `worker.py` process, run one at a time, with the Groebner
cache off: `HOMREG_CACHE_DIR` is unset, HOME points at an empty directory
under .bench_build/perfbench, and the run fails its check if anything
appears under that HOME's .cache/homreg.

--trace 0 repeats untraced passes for S seconds and reports the medians of
wall_s, setup_s and peak_rss_mb.  --trace 1 alternates untraced and traced
passes for S seconds and reports the per-layer metrics of the traced pass
with the median wall time, plus the tracing overhead.  The last stdout line
is the JSON result; the lines before it say the same for a reader, and the
full record goes to .bench_build/perfbench/result-<workload>-<seed>-<trace>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)

SETUP_RUNS = 5  # set-up-only processes per run, besides every pass's own set-up
DEADLINE = 170.0  # seconds; the whole run must end well within 180
OUT = os.path.join(".bench_build", "perfbench")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "elements": "count", "cells": "count",
               "nnz": "count", "steps": "count", "betti_total": "count", "zero_ratio": "ratio",
               "rank_ratio": "ratio", "yield": "ratio", "overhead_s": "s", "unattributed_s": "s",
               "wall_s": "s"}


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_revision():
    """The commit checked out, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the files of src/homreg: identifies the code even without git."""
    h = hashlib.sha256()
    base = os.path.join("src", "homreg")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = clock()
        self.home = os.path.abspath(os.path.join(OUT, "home"))
        shutil.rmtree(self.home, ignore_errors=True)
        os.makedirs(self.home)
        self.env = {k: v for k, v in os.environ.items() if k != "HOMREG_CACHE_DIR"}
        self.env.update(HOME=self.home, PYTHONHASHSEED="0")
        self.crashes = []

    def elapsed(self):
        return clock() - self.started

    def spawn(self, mode):
        """Run one worker to completion; its JSON report, or None if it failed."""
        spans = os.path.join(OUT, "spans-%s.tsv.gz" % self.workload)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload, str(self.seed)]
        try:
            t = clock()
            proc = subprocess.run(cmd + [repr(t), mode, spans], env=self.env, capture_output=True,
                                  text=True, timeout=max(5.0, DEADLINE - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.crashes.append("%s worker timed out" % mode)
            return None
        if proc.returncode != 0:
            self.crashes.append("%s worker exited %d: %s" % (mode, proc.returncode, proc.stderr[-2000:]))
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cache_written(self):
        return os.path.exists(os.path.join(self.home, ".cache", "homreg"))


def median_pass(passes):
    """The pass whose wall time is the (lower) median."""
    ranked = sorted(passes, key=lambda p: p["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "homreg", "__init__.py")):
        sys.exit("run.py: no src/homreg here; run it from the root of a homreg checkout")
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    env_before = {"loadavg": loadavg(), "nproc": os.cpu_count(), "python": platform.python_version(),
                  "git_revision": git_revision(), "src_sha256": source_digest()}

    runner = Runner(args.workload, args.seed)
    if runner.spawn("setup") is None:  # warm-up: compiles bytecode, not timed
        sys.exit("run.py: homreg could not be set up:\n" + "\n".join(runner.crashes))
    setups = [r["setup_s"] for r in (runner.spawn("setup") for _ in range(SETUP_RUNS)) if r]

    passes, traced = [], []
    attempted = failed = 0
    problems = []
    modes = ["pass", "traced"] if args.trace else ["pass"]
    n = 0
    while n < len(modes) or runner.elapsed() < args.seconds:
        mode = modes[n % len(modes)]
        n += 1
        r = runner.spawn(mode)
        attempted += wl.items
        if r is None:
            failed += wl.items
            continue
        setups.append(r["setup_s"])
        failed += r["failed"]
        problems += r["problems"]
        (traced if mode == "traced" else passes).append(r)
        if runner.elapsed() > DEADLINE - 2 * max(p["wall_raw_s"] for p in passes + traced):
            break

    notes = list(runner.crashes)
    if runner.cache_written():
        notes.append("the Groebner cache was written under HOME/.cache/homreg")
    if not passes or (args.trace and not traced):
        sys.exit("run.py: no pass completed:\n" + "\n".join(notes))

    if args.trace:
        pick = median_pass(traced)
        values = dict(pick["layers"])
        values["trace.overhead_s"] = pick["wall_s"] - statistics.median(p["wall_s"] for p in passes)
        counts = [{k: v for k, v in p["layers"].items() if not k.endswith(("_s", "_ratio", ".yield"))}
                  for p in traced]
        if any(c != counts[0] for c in counts):
            notes.append("layer counts differ between traced passes")
        if pick["unbound"]:
            notes.append("untraced references: %s" % pick["unbound"])
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[1]]} for k, v in sorted(values.items())}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    correct = failed == 0 and not notes
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted, "problems": problems[:5], "notes": notes,
        "samples": {"wall_s": [p["wall_s"] for p in passes], "setup_s": setups,
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                    "wall_raw_s": [p["wall_raw_s"] for p in passes],
                    "traced_wall_raw_s": [p["wall_raw_s"] for p in traced]},
        "env_before": env_before, "loadavg_after": loadavg(), "metrics": metrics,
    }
    path = os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    s = record["samples"]
    print("workload %s  seed %d  rev %s  src %s  python %s  nproc %s  loadavg %s -> %s" % (
        args.workload, args.seed, env_before["git_revision"], env_before["src_sha256"][:12],
        env_before["python"], env_before["nproc"], env_before["loadavg"], record["loadavg_after"]))
    print("passes %d untraced (raw wall median %.4f s), %d traced; set-ups %d; fail_rate %.4f ratio (%d/%d)%s" % (
        len(s["wall_s"]), statistics.median(s["wall_raw_s"]), len(s["traced_wall_raw_s"]), len(setups),
        record["fail_rate"], failed, attempted,
        "" if correct else "  INCORRECT: %s" % (notes + problems)[:3]))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

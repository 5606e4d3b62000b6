"""One measured process: set up a workload, optionally run one pass, report.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED MODE [SPANS_PATH]

Run from the root of a checkout.  SPAWNED is the CLOCK_MONOTONIC time at
which the parent started this process; MODE is `setup` (stop after set-up),
`pass` (one untraced pass) or `traced` (one pass with layer tracing, spans
written to SPANS_PATH).  Prints one JSON object on stdout.

Times are reported twice: as measured (`*_raw_s`) and in reference seconds
(`setup_s`, `wall_s`).  On a shared machine the speed of a CPU can change
by 1.7x within a fraction of a second while this process keeps running
(its CPU time moves with its wall time), so a speed probe runs every
PROBE_INTERVAL_S from a SIGALRM handler: a fixed mix of Fraction, F_p-style
and dict arithmetic and a scan of matrix-like rows.  A reference time is the raw time minus the time spent in the probes,
scaled by PROBE_REF_S / (mean probe duration over the interval).  In a
traced pass each probe is recorded as a child span of the span it
interrupted, so no layer is charged for it.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0005  # a reference second is a second of a machine that runs the probe in 0.5 ms


class _Mod:
    """An F_p scalar as a slotted Python object, like homreg's."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 101

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


# matrix-like rows of 2,400 scalars, which the probe scans so that it feels
# cache pressure as homreg's elimination does
_ROWS = [[Fraction(i % 7, j % 5 + 1) if (i + j) % 3 else 0 for i in range(300)] for j in range(8)]


class SpeedProbe:
    def __init__(self):
        self.durations = []
        self.on_probe = None  # called with (start, end) of each probe
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        acc = Fraction(0)
        m = _Mod(1)
        table = {}
        for i in range(1, 70):
            acc += Fraction(i % 97, i % 89 + 1)
            m = m * _Mod(i) + _Mod(3)
            key = (i % 31, i % 7)
            table[key] = table.get(key, 0) + i
        sum(1 for x in _ROWS[len(self.durations) % len(_ROWS)] if x)
        end = time.perf_counter()
        self.durations.append(end - start)
        if self.on_probe is not None:
            self.on_probe(start, end)

    def mark(self):
        return len(self.durations)

    def reference(self, raw, since):
        """`raw` seconds, measured since probe number `since`, in reference seconds."""
        probes = self.durations[since:]
        if not probes:
            return raw
        return (raw - sum(probes)) * PROBE_REF_S * len(probes) / sum(probes)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # drops a signal still pending


def main(argv):
    workload, seed, spawned, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    probe = SpeedProbe()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import homreg

    if not os.path.abspath(homreg.__file__).startswith(src + os.sep):
        raise SystemExit("homreg imported from %s, not from %s" % (homreg.__file__, src))
    import workloads

    wl = workloads.WORKLOADS[workload]
    inp = wl.setup(seed)
    setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    out = {"setup_raw_s": setup_raw, "setup_s": probe.reference(setup_raw, 0)}
    if mode == "setup":
        probe.stop()
        return out

    tracer = None
    if mode == "traced":
        import layertrace

        tracer = layertrace.Tracer("%s-%d-%d" % (workload, seed, os.getpid()))
        out["unbound"] = layertrace.install(tracer)
        probe.on_probe = tracer.record_probe
    since = probe.mark()
    start = time.perf_counter()
    try:
        lines = wl.run(inp)
    except Exception:
        lines = None
        error = traceback.format_exc(limit=3)
    out["wall_raw_s"] = time.perf_counter() - start
    probe.stop()
    out["wall_s"] = probe.reference(out["wall_raw_s"], since)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if lines is None:
        problems = [["raised: " + error]] * wl.items
    else:
        try:
            problems = wl.check(inp, lines)
        except Exception:
            problems = [["check raised: " + traceback.format_exc(limit=3)]] * wl.items
    out["items"] = len(problems)
    out["failed"] = sum(1 for p in problems if p)
    out["problems"] = [p for p in problems if p][:3]
    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(tracer, out["wall_raw_s"])
        layertrace.write_spans(tracer, argv[5])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))

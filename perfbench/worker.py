"""One fresh interpreter: set up a workload, run its passes, report.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Prints ``ready <import seconds>`` once the first pass can start, then
runs passes until another would end after SECONDS (at least one) and
prints one JSON line with its results. run.py starts several workers
one after another and times their set-up from outside.

With TRACE 1 every pass runs with the span recorder installed, and the
layer metrics that the workload's own passes never reach are then taken
from one traced pass of the other workloads at their small probe sizes.
"""

import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

_start = time.perf_counter()
import pqgeo.cli  # noqa: E402  (timed: the import every CLI command pays)
IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from metrics import PER_LAYER, median  # noqa: E402
from spans import LIBRARY_WRAPS, Tracer, span_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE = "probe"


def metadata(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "threads": threads,
        "seed": seed,
    }


def run_passes(workload, inputs, seconds, tracer):
    """Passes until another would end after SECONDS; at least one."""
    walls, commands, checks = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_pass(len(walls))
            tracer.install(LIBRARY_WRAPS)
        t0 = time.perf_counter()
        try:
            outputs, units = workload.run(inputs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(time.perf_counter() - t0)
        commands.append(units)
        checks.extend(workload.check(inputs, outputs))
        if time.perf_counter() - start + median(walls) > seconds:
            return walls, commands, checks, workload.summary(outputs)


def run_probes(name, seed, tracer):
    """One traced pass of every other workload at its probe size."""
    tracer.start_pass(PROBE)
    for other in WORKLOADS.values():
        if other.name == name:
            continue
        inputs = other.setup(seed, probe=True)
        tracer.install(LIBRARY_WRAPS)
        try:
            other.run(inputs, tracer)
        finally:
            tracer.uninstall()
            other.teardown(inputs)


def layer_metrics(tracer, passes):
    """Every per-layer metric measured inside the worker: the median over
    its passes, or the probe's value where they never reach the layer."""
    table = span_table(tracer.spans)

    def per_pass(source, pass_id):
        kind = source[0]
        if kind == "span":
            row = table[pass_id].get(source[1])
            return None if row is None else row[1]
        if kind == "count":
            return tracer.counts[pass_id].get(source[1])
        if kind == "ratio":
            num = tracer.counts[pass_id].get(source[1])
            den = tracer.counts[pass_id].get(source[2])
            return None if num is None or not den else num / den
        values = tracer.samples[pass_id].get(source[1])
        return median(values) if values else None

    metrics, origin = {}, {}
    for name, unit, source, _, _ in PER_LAYER:
        if source[0] in ("import", "overhead"):
            continue
        values = [v for v in (per_pass(source, i) for i in range(passes))
                  if v is not None]
        if values:
            value = statistics.median_low(values) if source[0] == "count" \
                else median(values)
            origin[name] = "passes"
        else:
            value = per_pass(source, PROBE)
            origin[name] = "probe"
        if value is None:
            raise RuntimeError("layer metric %s was never measured" % name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, origin, table


def self_times(table, passes):
    """Median per traced pass of calls, inclusive and self seconds."""
    out = {}
    for n in sorted({n for i in range(passes) for n in table[i]}):
        rows = [table[i][n] for i in range(passes) if n in table[i]]
        out[n] = {"calls": median([r[0] for r in rows]),
                  "inclusive_s": median([r[1] for r in rows]),
                  "self_s": median([r[2] for r in rows])}
    return out


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), \
        argv[3] == "1"
    workload = WORKLOADS[name]
    inputs = workload.setup(seed)
    print("ready %.9f" % IMPORT_S, flush=True)
    tracer = Tracer() if trace else None
    try:
        walls, commands, checks, summary = run_passes(
            workload, inputs, seconds, tracer)
    finally:
        workload.teardown(inputs)
    who = resource.RUSAGE_CHILDREN if name == "cli-batch" else \
        resource.RUSAGE_SELF
    result = {
        "metadata": metadata(seed),
        "pass_walls": walls,
        "commands": commands,
        "checks": checks,
        "outputs": summary,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if trace:
        run_probes(name, seed, tracer)
        metrics, origin, table = layer_metrics(tracer, len(walls))
        result.update(metrics=metrics, origin=origin,
                      self_times=self_times(table, len(walls)))
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench",
                               "spans-%s.json" % name), "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": tracer.spans}, handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

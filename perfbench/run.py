"""pqgeo benchmark: one workload, one seed, one run.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; pqgeo is imported from ``src``
and is not installed. Load is one sequential client in a closed loop:
each pass starts when the previous one has finished. BLAS threads are
capped at the number of usable cores.

A run is three workers, one after another, each a fresh interpreter
that imports pqgeo, builds the workload's inputs from the seed, and runs
passes for its share of the SECONDS that earlier workers left (at least
one pass), checking every output. ``setup_s`` is the median time from
starting a worker until it reports ready; the timings pool the passes
of all workers. With ``--trace 1`` the middle worker runs with the span
recorder installed and gives the per-layer metrics; the other two give
the untraced baseline for the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (output checks) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A full record, with run metadata, every sample and the
span self times, goes to ``.perfbench/``. ``--workload all`` runs every
workload untraced and prints a table of every end-to-end metric.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES, median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 3
TRACED_WORKER = 1
TIME_LIMIT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def child_env():
    """Environment with BLAS threads capped at the usable core count."""
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cores
        env[var] = str(max(1, min(current, cores)))
    return env


def git_commit():
    """Commit of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


def start_worker(args, seconds, traced, deadline):
    """Start a worker and time it until it reports ready.

    Returns (process, seconds to ready, import seconds).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), repr(seconds), "1" if traced else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if not line.startswith("ready "):
            raise RunError("worker failed during set-up")
        if time.perf_counter() > deadline:
            raise RunError("set-up exceeded the time limit")
    except BaseException:
        kill(proc)
        raise
    return proc, ready, float(line.split()[1])


def kill(proc):
    """Stop a worker and any CLI command it started, and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish(proc, deadline):
    """Wait for a worker and return its last output line, parsed."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline -
                                              time.perf_counter()))
    except subprocess.TimeoutExpired:
        kill(proc)
        raise RunError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise RunError("worker exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def run_one(args):
    """One benchmark run; returns the result line and the full record."""
    deadline = time.perf_counter() + TIME_LIMIT
    workers = []
    left = args.seconds
    for index in range(WORKERS):
        traced = bool(args.trace) and index == TRACED_WORKER
        proc, ready, import_s = start_worker(args, left / (WORKERS - index),
                                             traced, deadline)
        record = finish(proc, deadline)
        left -= sum(record["pass_walls"])
        record.update(traced=traced, setup_s=ready, import_s=import_s)
        workers.append(record)
    plain = [w for w in workers if not w["traced"]]
    walls = [t for w in plain for t in w["pass_walls"]]
    if args.trace:
        traced = workers[TRACED_WORKER]
        metrics = traced.pop("metrics")
        metrics["cli.import_s"] = {
            "value": median([w["import_s"] for w in workers]), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": median(traced["pass_walls"]) - median(walls),
            "unit": "s"}
        order = [name for name, *_ in PER_LAYER]
    else:
        passes = [[t for _, t in units] for w in plain
                  for units in w["commands"]]
        latencies = [t for units in passes for t in units]
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median([w["setup_s"] for w in workers]),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers),
                            "unit": "MB"},
            "cmd_p50_s": {"value": median([median(p) for p in passes]),
                          "unit": "s"},
        }
        order = [name for name, _, _ in END_TO_END]
    checks = [c for w in workers for c in w.pop("checks")]
    failed = [name for name, ok in checks if not ok]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: metrics[name] for name in order},
    }
    metadata = workers[0]["metadata"]
    metadata["git_commit"] = git_commit()
    for w in workers:
        w.pop("metadata")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metadata": metadata, "result": result,
              "failed_checks": sorted(set(failed)),
              "failed_frac": len(failed) / len(checks), "workers": workers}
    if not args.trace:
        record["command_latency"] = {"samples": len(latencies),
                                     "tail": tail(latencies)}
    return result, record


def save(record, args):
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)


def run_all(args):
    """Every workload, untraced, printed as one table of e2e metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        args.workload, args.trace = name, 0
        result, record = run_one(args)
        save(record, args)
        rows.append((name, result, record))
    print("%-18s" % "workload" + "".join(
        "%18s" % ("%s [%s]" % (n, u)) for n, u, _ in END_TO_END) +
        "%14s%14s" % ("failed_frac", "cmd samples"))
    for name, result, record in rows:
        print("%-18s" % name + "".join(
            "%18.6g" % result["metrics"][n]["value"] for n, _, _ in END_TO_END)
            + "%14.6g%14d" % (record["failed_frac"],
                              record["command_latency"]["samples"]))
    for name, result, _ in rows:
        print(json.dumps(dict(result, workload=name)))
    return 0 if all(r["correct"] for _, r, _ in rows) else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "pqgeo")):
        print("error: no pqgeo sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        result, record = run_one(args)
    except RunError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    save(record, args)
    print("%s: failed_frac %.6g (%d of %d checks), %d passes"
          % (args.workload, record["failed_frac"], result["failed"],
             result["attempted"],
             sum(len(w["pass_walls"]) for w in record["workers"])))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

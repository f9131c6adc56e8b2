"""Golden-output guard: record or compare pqgeo's outputs by key.

Run from the repository root::

    python3 tests/golden/golden.py --write   # record tests/golden/GOLDEN.json
    python3 tests/golden/golden.py --check   # print every key that differs

The record covers the ten cli-batch commands of ``perfbench/workloads.py``
at seeds 0, 1 and 5, ``anosov-diagnose --L 8`` on the criterion-12
Schottky pair, the spectral pipeline (word ball, gap series, limit set,
cone, negativity) of both criterion-12 groups at L = 3, 5, 6 and 7, and
the Schottky pair in three conjugated bases at L = 3 and 5, with the
``GeometryError`` message where one is raised, the crown-search cases of
``perfbench/workloads.py`` at seeds 0, 1 and 5, and ``detect_crowns``
with j = 2 and 3 on the Schottky limit sets at L = 3 and 4 (44 and 132
points). Artifacts are kept as sha256 (``manifest.json`` is left out, it
holds the wall time), floats as ``float.hex``.

Some of these values depend on the BLAS kernel that runs, so the record
names it; ``--check`` reports a kernel that differs from the recorded
one. ``tests/test_golden.py`` pins only the values that held on every
kernel tried.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from pqgeo import anosov, cli, crowns, forms, groups, model  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "GOLDEN.json")
CLI_SEEDS = (0, 1, 5)
SPECTRAL_RADII = (3, 5, 6, 7)
CONJUGATED_RADII = (3, 5)
CROWN_SEEDS = (0, 1, 5)
CROWN_RADII = (3, 4)


def schottky_generators():
    """The criterion-12 Fuchsian Schottky pair in O(2,1) inside O(2,2)."""
    g1 = forms.boost(4, 0, 2, 1.5)
    T = forms.boost(4, 1, 2, 2.5)
    return [g1, T @ g1 @ np.linalg.inv(T)]


def split_generators():
    """The criterion-12 split pair in O(2,3)."""
    return [forms.boost(5, 0, 2, 2.0) @ forms.rotation(5, 3, 4, 1.0),
            forms.boost(5, 1, 3, 0.3)]


def conjugators():
    """Isometries h of the (2,2) form; h g h^-1 is the same group."""
    return {
        "boost03": forms.boost(4, 0, 3, 4.0),
        "boost13": forms.boost(4, 1, 3, 2.0),
        "rotboost": forms.rotation(4, 0, 1, 0.7) @ forms.boost(4, 1, 2, 1.0),
    }


def blas_kernel():
    """The OpenBLAS core type in use, read from numpy's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            func = getattr(lib, name, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_char_p
                return func().decode()
    return None


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def spectral_values(space, gens, L):
    """Key values of the spectral pipeline on one group at radius L."""
    out = {}
    try:
        ball = groups.word_ball(gens, L)
        out["ball"] = len(ball)
        series = anosov.gap_series(ball, 2)
        out["gaps"] = [[c, float(m).hex(), float(md).hex()] for c, m, md in
                       zip(series.counts, series.mins, series.medians)]
        rays = anosov.limit_cone_sample(ball, 2)
        out["rays"] = int(rays.shape[0])
        out["rays_sha"] = _sha(rays.tobytes())
        points = anosov.sample_limit_set(space, ball, 1.0)
        rows = model.lift_rows(points).reshape(-1, space.dim)
        out["points"] = len(points)
        out["points_sha"] = _sha(rows.tobytes())
        report = anosov.negativity_test(space, points)
        out["status"] = report.status
        out["margin"] = float(report.margin).hex()
        out["witness"] = [int(v) for v in report.witness]
    except forms.GeometryError as err:
        out["error"] = str(err)
    return out


def cli_values(argv):
    """Exit code, stdout and artifact hashes of one in-process command."""
    out = {}
    work = tempfile.mkdtemp(prefix="pqgeo-golden-")
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            out["exit"] = cli.main(argv + ["--out", work])
        out["stdout"] = stdout.getvalue()
        for name in sorted(os.listdir(work)):
            if name != "manifest.json":
                with open(os.path.join(work, name), "rb") as handle:
                    out[name] = _sha(handle.read())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def crown_values(space, points, j):
    """Found index sets and completeness of one crown scan."""
    scan = crowns.detect_crowns(space, points, j)
    return {"found": [sorted(int(i) for i in c.indices) for c in scan],
            "complete": scan.complete}


def _workloads():
    """The benchmark's workload definitions, loaded from perfbench."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench",
                                            "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flatten(prefix, values, into):
    for key, value in values.items():
        into["%s/%s" % (prefix, key)] = value


def collect():
    """Every recorded key and its value."""
    values = {}
    workloads = _workloads()
    batch = workloads.CliBatch()
    for seed in CLI_SEEDS:
        inputs = batch.setup(seed)
        try:
            for argv in inputs["commands"]:
                # Input paths carry the process id; keep only the command.
                _flatten("cli/seed%d/%s" % (seed, argv[0]), cli_values(argv),
                         values)
        finally:
            shutil.rmtree(inputs["base"], ignore_errors=True)
    work = tempfile.mkdtemp(prefix="pqgeo-golden-")
    try:
        gens = os.path.join(work, "gens.json")
        with open(gens, "w") as handle:
            json.dump([g.tolist() for g in schottky_generators()], handle)
        _flatten("cli/anosov-diagnose-L8", cli_values(
            ["anosov-diagnose", "--gens", gens, "--p", "2", "--q", "1",
             "--L", "8"]), values)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cases = [("a", forms.standard_space(2, 2), schottky_generators()),
             ("b", forms.standard_space(2, 3), split_generators())]
    for label, space, gens in cases:
        for L in SPECTRAL_RADII:
            _flatten("spectral/%s/L%d" % (label, L),
                     spectral_values(space, gens, L), values)
    space = forms.standard_space(2, 2)
    for label, h in conjugators().items():
        h_inv = np.linalg.inv(h)
        gens = [h @ g @ h_inv for g in schottky_generators()]
        for L in CONJUGATED_RADII:
            _flatten("conjugated/%s/L%d" % (label, L),
                     spectral_values(space, gens, L), values)
    search = workloads.CrownSearch()
    for seed in CROWN_SEEDS:
        for label, case_space, rows, j, _ in search.setup(seed)["cases"]:
            _flatten("crowns/seed%d/%s" % (seed, label),
                     crown_values(case_space, rows, j), values)
    for L in CROWN_RADII:
        points = anosov.sample_limit_set(
            space, groups.word_ball(schottky_generators(), L), 1.0)
        for j in (2, 3):
            _flatten("crowns/schottky/L%d/j%d" % (L, j),
                     crown_values(space, points, j), values)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="record the current outputs")
    mode.add_argument("--check", action="store_true",
                      help="compare the current outputs with the record")
    parser.add_argument("--golden", default=GOLDEN,
                        help="record file (default: tests/golden/GOLDEN.json)")
    args = parser.parse_args(argv)
    kernel = {"corename": blas_kernel(),
              "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")}
    values = collect()
    if args.write:
        with open(args.golden, "w") as handle:
            json.dump({"blas": kernel, "values": values}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print("wrote %d keys to %s" % (len(values), args.golden))
        return 0
    with open(args.golden) as handle:
        record = json.load(handle)
    if record["blas"] != kernel:
        print("note: recorded under BLAS %s, running under %s"
              % (record["blas"], kernel))
    want = record["values"]
    # A round trip through JSON gives the recorded types (lists, not tuples).
    have = json.loads(json.dumps(values))
    differ = sorted(k for k in set(want) | set(have)
                    if want.get(k) != have.get(k))
    for key in differ:
        print("%s: recorded %r, now %r" % (key, want.get(key, "<absent>"),
                                           have.get(key, "<absent>")))
    print("%d of %d keys differ" % (len(differ), len(set(want) | set(have))))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

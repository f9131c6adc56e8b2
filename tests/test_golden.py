"""The kernel-independent part of tests/golden/GOLDEN.json.

The golden record holds artifact hashes and float bits that move with the
BLAS kernel (under ``OPENBLAS_CORETYPE=Haswell`` or ``Sandybridge`` the
margins and the last bits of the points change). Ball sizes, limit-point
and cone-ray counts and negativity statuses held on every kernel tried,
so only they are pinned here; the full record is compared by
``python3 tests/golden/golden.py --check``.

Run as a script, this file prints the pinned counts as JSON, which the
kernel tests read from a fresh interpreter per OpenBLAS kernel.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pqgeo.anosov import limit_cone_sample, sample_limit_set
from pqgeo.forms import standard_space
from pqgeo.groups import word_ball

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
STABLE_KEYS = ("ball", "points", "status")


def _golden_module():
    spec = importlib.util.spec_from_file_location(
        "golden", os.path.join(GOLDEN_DIR, "golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _golden_module()
with open(os.path.join(GOLDEN_DIR, "GOLDEN.json")) as _handle:
    RECORD = json.load(_handle)["values"]


@pytest.mark.parametrize("label,space,gens,points", [
    ("a", standard_space(2, 2), GOLDEN.schottky_generators, (44, 434, 1202)),
    ("b", standard_space(2, 3), GOLDEN.split_generators, (2, 4, 44))])
def test_spectral_counts_and_statuses_match_golden(label, space, gens,
                                                   points):
    for L, count in zip((3, 5, 6), points):
        values = GOLDEN.spectral_values(space, gens(), L)
        assert values["points"] == count
        for key in STABLE_KEYS:
            assert values[key] == RECORD["spectral/%s/L%d/%s" % (label, L,
                                                                 key)]


# (ball, limit points, cone rays) per group and radius: the same under the
# SkylakeX, Haswell and Sandybridge OpenBLAS kernels.
COUNTS = {
    "a/L3": [53, 44, 1], "a/L5": [485, 434, 1], "a/L6": [1457, 1202, 1],
    "a/L7": [4373, 2752, 1],
    "b/L3": [53, 2, 1], "b/L5": [485, 4, 2], "b/L6": [1457, 44, 3],
    "b/L7": [4373, 128, 7],
    "boost13/L5": [485, 422, 1], "rotboost/L5": [485, 422, 1],
}


def spectral_counts():
    """The counts of every case in COUNTS, computed afresh."""
    space = standard_space(2, 2)
    cases = {"a": (space, GOLDEN.schottky_generators()),
             "b": (standard_space(2, 3), GOLDEN.split_generators())}
    for label, h in GOLDEN.conjugators().items():
        cases[label] = (space, [h @ g @ np.linalg.inv(h)
                                for g in GOLDEN.schottky_generators()])
    counts = {}
    for key in COUNTS:
        label, L = key.split("/L")
        case_space, gens = cases[label]
        ball = word_ball(gens, int(L))
        counts[key] = [len(ball), len(sample_limit_set(case_space, ball, 1.0)),
                       len(limit_cone_sample(ball, 2))]
    return counts


def test_spectral_counts_are_pinned():
    assert spectral_counts() == COUNTS


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_spectral_counts_hold_on_other_blas_kernels(kernel):
    """The pinned counts, from a fresh interpreter on another kernel."""
    src = os.path.join(GOLDEN_DIR, os.pardir, os.pardir, "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    if report["kernel"] != kernel:
        pytest.skip("OpenBLAS kernel %s is not available here" % kernel)
    assert report["counts"] == COUNTS


if __name__ == "__main__":
    print(json.dumps({"kernel": GOLDEN.blas_kernel(),
                      "counts": spectral_counts()}))

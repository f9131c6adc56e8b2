"""The kernel-independent part of tests/golden/GOLDEN.json.

The golden record holds artifact hashes and float bits that move with the
BLAS kernel (under ``OPENBLAS_CORETYPE=Haswell`` or ``Sandybridge`` the
Schottky cone at L=6 has 13 or 15 rays, not 9, and the margins change).
Ball sizes, limit-point counts and negativity statuses at L <= 6 held on
every kernel tried, so only they are pinned here; the full record is
compared by ``python3 tests/golden/golden.py --check``.
"""

import importlib.util
import json
import os

import pytest

from pqgeo.forms import standard_space

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

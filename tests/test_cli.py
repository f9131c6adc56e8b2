"""End-to-end tests of the command line interface.

Every invocation goes through ``pqgeo.cli.main`` in process, with
artifacts routed to per-test temporary directories.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pqgeo
from pqgeo.cli import main
from pqgeo.forms import boost


def _write(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


def _schottky_gens():
    g1 = boost(4, 0, 2, 1.5)
    T = boost(4, 1, 2, 2.5)
    g2 = T @ g1 @ np.linalg.inv(T)
    return [g1.tolist(), g2.tolist()]


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _read_manifest(out):
    with open(os.path.join(out, "manifest.json")) as handle:
        return json.load(handle)


def test_classify_pair_and_manifest(tmp_path):
    x = _write(tmp_path / "x.json", [0.0, 0.0, 1.0, 0.0])
    y = _write(tmp_path / "y.json",
               [math.sinh(1.0), 0.0, math.cosh(1.0), 0.0])
    out = str(tmp_path / "run")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(["classify-pair", "--p", "2", "--q", "1",
                     "--x", x, "--y", y, "--out", out])
    assert code == 0
    assert not [w for w in caught if w.category is ResourceWarning]
    with open(os.path.join(out, "classify-pair.json")) as handle:
        payload = json.load(handle)
    assert payload["class"] == "spacelike"
    manifest = _read_manifest(out)
    assert manifest["config"]["command"] == "classify-pair"
    assert manifest["versions"]["pqgeo"]
    assert manifest["wall_time_seconds"] >= 0.0
    listed = {entry["path"]: entry for entry in manifest["outputs"]}
    assert set(listed) == {"classify-pair.json"}
    blob = _read_bytes(os.path.join(out, "classify-pair.json"))
    assert listed["classify-pair.json"]["bytes"] == len(blob)
    assert listed["classify-pair.json"]["sha256"] == \
        hashlib.sha256(blob).hexdigest()


def test_classify_pair_geometry_error_is_exit_1(tmp_path):
    x = _write(tmp_path / "x.json", [0.0, 0.0, 1.0, 0.0])
    y = _write(tmp_path / "y.json", [1.0, 0.0, 0.0, 0.0])
    code = main(["classify-pair", "--p", "2", "--q", "1",
                 "--x", x, "--y", y, "--out", str(tmp_path / "run")])
    assert code == 1


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, Z]")
    x = _write(tmp_path / "x.json", [0.0, 0.0, 1.0, 0.0])
    code = main(["classify-pair", "--p", "2", "--q", "1",
                 "--x", str(bad), "--y", x,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_file_is_exit_2(tmp_path):
    x = _write(tmp_path / "x.json", [0.0, 0.0, 1.0, 0.0])
    code = main(["classify-pair", "--p", "2", "--q", "1",
                 "--x", str(tmp_path / "absent.json"), "--y", x,
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_usage_error_is_exit_2():
    assert main([]) == 2
    assert main(["not-a-command"]) == 2


def test_hilbert_dist_unit_square(tmp_path):
    gram = _write(tmp_path / "gram.json", np.eye(3).tolist())
    domain = _write(tmp_path / "domain.json",
                    [[-1, 1, 0], [-1, -1, 0], [-1, 0, 1], [-1, 0, -1]])
    y = _write(tmp_path / "y.json", [1.0, 0.0, 0.0])
    z = _write(tmp_path / "z.json", [1.0, 0.25, 0.0])
    out = str(tmp_path / "run")
    code = main(["hilbert-dist", "--gram", gram, "--domain", domain,
                 "--y", y, "--z", z, "--out", out])
    assert code == 0
    with open(os.path.join(out, "hilbert-dist.json")) as handle:
        payload = json.load(handle)
    assert payload["distance"] == pytest.approx(0.5 * math.log(5.0 / 3.0),
                                                abs=1e-12)


def test_omega_test_statuses(tmp_path):
    gram = _write(tmp_path / "gram.json", np.eye(3).tolist())
    domain = _write(tmp_path / "domain.json",
                    [[-1, 1, 0], [-1, -1, 0], [-1, 0, 1], [-1, 0, -1]])
    inside = _write(tmp_path / "in.json", [1.0, 0.2, -0.3])
    outside = _write(tmp_path / "outj.json", [1.0, 2.0, 0.0])
    out1 = str(tmp_path / "run1")
    assert main(["omega-test", "--gram", gram, "--domain", domain,
                 "--x", inside, "--out", out1]) == 0
    with open(os.path.join(out1, "omega-test.json")) as handle:
        assert json.load(handle)["status"] == "interior"
    out2 = str(tmp_path / "run2")
    assert main(["omega-test", "--gram", gram, "--domain", domain,
                 "--x", outside, "--out", out2]) == 0
    with open(os.path.join(out2, "omega-test.json")) as handle:
        assert json.load(handle)["status"] == "outside"


def test_coxeter_scan_artifacts(tmp_path):
    diagram = {
        "N": 7,
        "m": [[1, 3, 2, 2, 3, 11, 2],
              [3, 1, 3, 2, 2, 2, 2],
              [2, 3, 1, 3, 2, 2, 10],
              [2, 2, 3, 1, "inf", 2, 2],
              [3, 2, 2, "inf", 1, 2, 2],
              [11, 2, 2, 2, 2, 1, 2],
              [2, 2, 10, 2, 2, 2, 1]],
    }
    path = _write(tmp_path / "diagram.json", diagram)
    out = str(tmp_path / "run")
    code = main(["coxeter-scan", "--diagram", path, "--t-min", "0",
                 "--t-max", "2", "--steps", "40", "--out", out])
    assert code == 0
    with open(os.path.join(out, "coxeter-scan.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "pos", "neg", "null", "det",
                       "max-relation-residual"]
    assert len(rows) == 41
    first = rows[1]
    assert [first[1], first[2], first[3]] == ["5", "2", "0"]
    with open(os.path.join(out, "det-roots.json")) as handle:
        roots = json.load(handle)["roots"]
    assert roots[0] == pytest.approx(1.2360679774997891, abs=1e-10)
    assert roots[1] == pytest.approx(1.6821037985079952, abs=1e-10)


def test_coxeter_scan_non_finite_grid_is_exit_1(tmp_path, capsys):
    path = _write(tmp_path / "diagram.json", {
        "N": 2, "m": [[1, "inf"], ["inf", 1]]})
    with warnings.catch_warnings():
        # np.linspace warns as it spreads a NaN end over the grid.
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["coxeter-scan", "--diagram", path, "--t-max", "nan",
                     "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == ["error: Gram matrix has non-finite entries"]


def test_coxeter_scan_bad_diagram_is_exit_2(tmp_path):
    path = _write(tmp_path / "diagram.json", {"N": 2, "m": [[1, 3], [4, 1]]})
    code = main(["coxeter-scan", "--diagram", path,
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_gt_polygon_norm_column(tmp_path):
    out = str(tmp_path / "run")
    code = main(["gt-polygon", "--k", "3", "--n", "2", "--out", out])
    assert code == 0
    with open(os.path.join(out, "gt-polygon.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["index", "x0", "x1", "x2", "norm", "edge_pairing"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(row[5])) < 1e-14
    with open(os.path.join(out, "gt-polygon.json")) as handle:
        assert json.load(handle)["alpha"] == pytest.approx(2.0, abs=1e-12)


def test_graph_check_maximal_crown(tmp_path):
    out = str(tmp_path / "run")
    code = main(["graph-check", "--family", "maximal-crown", "--p", "2",
                 "--q", "1", "--pairs", "400", "--samples", "32",
                 "--out", out])
    assert code == 0
    with open(os.path.join(out, "graph-report.json")) as handle:
        report = json.load(handle)
    assert report["family"] == "maximal-crown"
    assert report["violations"] == 0
    assert report["strict"] is True
    with open(os.path.join(out, "graph-samples.csv")) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 33


def test_graph_check_crown_orbit_needs_tau(tmp_path):
    code = main(["graph-check", "--family", "crown-orbit",
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_crown_scan_empty_input_is_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["crown-scan", "--input", str(empty), "--p", "2", "--q", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_crown_scan_non_finite_row_is_exit_2(tmp_path, capsys, bad):
    """A NaN or infinite row once gave "found 0 1-crowns" and exit 0."""
    path = tmp_path / "points.csv"
    path.write_text("x0,x1,x2,x3\n1,0,1,0\n0,%s,0,1\n" % bad)
    code = main(["crown-scan", "--input", str(path), "--p", "2", "--q", "1",
                 "--j", "1", "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == \
        ["error: %s: line 3: non-finite field" % path]


def test_omega_test_non_finite_domain_is_exit_2(tmp_path, capsys):
    """A NaN in a domain lift once read as "boundary" with exit 0."""
    gram = _write(tmp_path / "gram.json", np.eye(3).tolist())
    domain = tmp_path / "domain.json"
    domain.write_text("[[-1, 1, 0], [-1, NaN, 0], [-1, 0, 1]]")
    x = _write(tmp_path / "x.json", [1.0, 0.2, -0.3])
    code = main(["omega-test", "--gram", gram, "--domain", str(domain),
                 "--x", x, "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == \
        ["error: %s: entries must be finite" % domain]


def test_crown_scan_finds_planted(tmp_path):
    root = 1.0 / math.sqrt(2.0)
    rows = [[root, 0.0, root, 0.0],
            [0.0, root, 0.0, root],
            [-root, 0.0, root, 0.0],
            [0.0, -root, 0.0, root]]
    path = tmp_path / "points.csv"
    with open(path, "w") as handle:
        handle.write("x0,x1,x2,x3\n")
        for row in rows:
            handle.write(",".join("%.17g" % v for v in row) + "\n")
    out = str(tmp_path / "run")
    code = main(["crown-scan", "--input", str(path), "--p", "2", "--q", "1",
                 "--j", "2", "--out", out])
    assert code == 0
    with open(os.path.join(out, "crowns.json")) as handle:
        payload = json.load(handle)
    assert payload["count"] == 1
    assert payload["complete"] is True
    assert sorted(payload["crowns"][0]["indices"]) == [0, 1, 2, 3]


def test_bend_toy_residuals(tmp_path):
    out = str(tmp_path / "run")
    code = main(["bend", "--toy", "--s", "0.1", "--out", out])
    assert code == 0
    with open(os.path.join(out, "bend.json")) as handle:
        payload = json.load(handle)
    residuals = payload["residuals"]
    assert residuals["form"] < 1e-12
    assert residuals["edge"] < 1e-12
    assert residuals["hnn"] < 1e-12


def test_bend_non_finite_exponential_is_exit_1(tmp_path, capsys):
    """--s nan once wrote NaN factors, residuals near 0, and exit 0."""
    for k, s in enumerate(("nan", "1e300")):
        code = main(["bend", "--toy", "--s", s,
                     "--out", str(tmp_path / ("run%d" % k))])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: matrix exponential")


# Run pqgeo with every import of scipy refused; argv[1:] goes to cli.main.
_NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is refused: " + name)
        return None

sys.meta_path.insert(0, RefuseScipy())
import pqgeo.cli
code = pqgeo.cli.main(sys.argv[1:])
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
sys.exit(code)
"""


def test_pqgeo_runs_without_scipy(tmp_path):
    """numpy is the only dependency: bend runs with scipy unimportable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pqgeo.__file__)))
    argv = ["bend", "--toy", "--s", "0.1"]
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY] + argv +
        ["--out", str(tmp_path / "child")],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert main(argv + ["--out", str(tmp_path / "here")]) == 0
    assert _read_bytes(tmp_path / "child" / "bend.json") == \
        _read_bytes(tmp_path / "here" / "bend.json")


def test_anosov_diagnose_artifacts(tmp_path):
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    out = str(tmp_path / "run")
    code = main(["anosov-diagnose", "--gens", gens, "--p", "2", "--q", "1",
                 "--L", "3", "--out", out])
    assert code == 0
    for name in ("gaps.csv", "limit-set.csv", "cone-rays.csv",
                 "limit-set.svg", "diagnose.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "diagnose.json")) as handle:
        payload = json.load(handle)
    assert payload["ball_size"] == 53
    assert payload["limit_points"] >= 2
    assert payload["negativity"]["status"] == "negative"


def test_anosov_diagnose_dimension_mismatch(tmp_path):
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    code = main(["anosov-diagnose", "--gens", gens, "--p", "1", "--q", "1",
                 "--L", "2", "--out", str(tmp_path / "run")])
    assert code == 2


def test_anosov_diagnose_chart_validation(tmp_path):
    """A bad --chart exits 2 before any artifact is written."""
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    for k, chart in enumerate(("0,9", "0", "a,b")):
        out = tmp_path / ("run%d" % k)
        code = main(["anosov-diagnose", "--gens", gens, "--p", "2", "--q",
                     "1", "--L", "2", "--chart", chart, "--out", str(out)])
        assert code == 2
        assert os.listdir(out) == []


def test_anosov_diagnose_failure_writes_no_artifact(tmp_path, capsys):
    """A generator off the form exits 1 and leaves --out empty."""
    gens = _write(tmp_path / "gens.json",
                  [np.diag([2.0, 1.0, 1.0, 1.0]).tolist()])
    out = tmp_path / "run"
    code = main(["anosov-diagnose", "--gens", gens, "--p", "2", "--q", "1",
                 "--L", "3", "--out", str(out)])
    assert code == 1
    assert "does not preserve the form" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_invalid_radius_and_rank_are_exit_1(tmp_path):
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    code = main(["anosov-diagnose", "--gens", gens, "--p", "2", "--q", "1",
                 "--L", "-2", "--out", str(tmp_path / "a")])
    assert code == 1
    code = main(["limit-cone", "--gens", gens, "--p", "2", "--q", "1",
                 "--L", "0", "--r", "0", "--out", str(tmp_path / "b")])
    assert code == 1
    for flag in ("--pairs", "--samples"):
        for count in ("0", "-3"):
            code = main(["graph-check", "--family", "maximal", "--p", "2",
                         "--q", "1", flag, count,
                         "--out", str(tmp_path / "c")])
            assert code == 1
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("1,0,1,0\n0,1,0,1\n-1,0,1,0\n0,-1,0,1\n")
    for cap in ("0", "-1"):
        code = main(["crown-scan", "--input", str(csv_path), "--p", "2",
                     "--q", "1", "--max-results", cap,
                     "--out", str(tmp_path / "d")])
        assert code == 1


def test_non_finite_or_negative_tolerance_is_exit_2(tmp_path, capsys,
                                                   monkeypatch):
    """A NaN --tol once read every pairing as zero: non-positive-only."""
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    argv = ["anosov-diagnose", "--gens", gens, "--p", "2", "--q", "1",
            "--L", "3", "--out", str(tmp_path / "run")]
    for value in ("nan", "inf", "-1e-9"):
        assert main(argv + ["--tol=" + value]) == 2
        assert "--tol must be finite and non-negative" in \
            capsys.readouterr().err
        monkeypatch.setenv("PQGEO_TOL", value)
        assert main(argv) == 2
        assert "PQGEO_TOL must be finite and non-negative" in \
            capsys.readouterr().err
        monkeypatch.delenv("PQGEO_TOL")
    assert main(argv + ["--tol", "0"]) == 0
    assert "negativity negative" in capsys.readouterr().out


def test_non_finite_gap_threshold_is_exit_1(tmp_path, capsys):
    """--gap-threshold nan or inf once gave 0 limit points and exit 0."""
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    for value in ("nan", "inf", "0"):
        code = main(["anosov-diagnose", "--gens", gens, "--p", "2", "--q",
                     "1", "--L", "3", "--gap-threshold", value,
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.strip() == \
            "error: gap threshold must be positive and finite"


def test_limit_cone_artifact(tmp_path):
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    out = str(tmp_path / "run")
    code = main(["limit-cone", "--gens", gens, "--p", "2", "--q", "1",
                 "--L", "3", "--out", out])
    assert code == 0
    with open(os.path.join(out, "cone-rays.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["lambda1", "lambda2"]
    assert len(rows) == 2


def test_determinism_identical_runs(tmp_path):
    gens = _write(tmp_path / "gens.json", _schottky_gens())
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        code = main(["anosov-diagnose", "--gens", gens, "--p", "2",
                     "--q", "1", "--L", "3", "--seed", "11", "--out", out])
        assert code == 0
    for name in ("gaps.csv", "limit-set.csv", "cone-rays.csv",
                 "limit-set.svg"):
        blobs = [_read_bytes(os.path.join(out, name)) for out in outs]
        assert blobs[0] == blobs[1]
    hashes = []
    for out in outs:
        manifest = _read_manifest(out)
        hashes.append(sorted((e["path"], e["sha256"])
                             for e in manifest["outputs"]))
    assert hashes[0] == hashes[1]


def test_tol_env_fallback(tmp_path, monkeypatch):
    x = _write(tmp_path / "x.json", [0.0, 0.0, 1.0, 0.0])
    monkeypatch.setenv("PQGEO_TOL", "not-a-number")
    code = main(["classify-pair", "--p", "2", "--q", "1",
                 "--x", x, "--y", x, "--out", str(tmp_path / "run")])
    assert code == 2
    monkeypatch.setenv("PQGEO_TOL", "1e-8")
    code = main(["classify-pair", "--p", "2", "--q", "1",
                 "--x", x, "--y", x, "--out", str(tmp_path / "run")])
    assert code == 0

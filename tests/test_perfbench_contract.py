"""The names and calls the benchmark relies on must exist in pqgeo.

``perfbench/spans.py`` patches module attributes by name and replaces
``pqgeo.crowns.QuadraticSpace`` with a census subclass, and
``perfbench/workloads.py`` calls the library and the CLI with fixed
names, keywords and return shapes. A refactor that renames or drops one
of those breaks only the benchmark run, so the tracer's install and
uninstall round trip and one checked pass of each workload run here.
"""

import importlib.util
import os

import numpy as np

from pqgeo import anosov, crowns, forms, groups

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    spans = _perfbench_module("spans")
    for wraps in (spans.LIBRARY_WRAPS, spans.CLI_WRAPS):
        owners = [(spans._resolve(path), attr) for path, attr, _, _ in wraps]
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr in owners]
        tracer = spans.Tracer()
        tracer.install(wraps)
        try:
            for owner, attr, original in originals:
                wrapped = owner.__dict__[attr]
                assert wrapped is not original
                assert wrapped.__wrapped__ is original
            assert crowns.QuadraticSpace is not forms.QuadraticSpace
            assert issubclass(crowns.QuadraticSpace, forms.QuadraticSpace)
        finally:
            tracer.uninstall()
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is original
        assert crowns.QuadraticSpace is forms.QuadraticSpace


def test_tracer_records_crown_census():
    spans = _perfbench_module("spans")
    tracer = spans.Tracer()
    tracer.install(spans.LIBRARY_WRAPS)
    try:
        tracer.start_pass(0)
        basis = crowns.AdaptedBasis.standard(2)
        scan = crowns.detect_crowns(basis.space, basis.vectors, 2)
    finally:
        tracer.uninstall()
    assert len(scan) == 1
    names = {span[0] for span in tracer.spans}
    assert {"crowns.detect", "forms.census"} <= names
    counts = tracer.counts[0]
    assert counts["crowns.found"] == 1
    assert counts["crowns.census_calls"] >= 1


def test_tracer_counts_word_ball_and_limit_set():
    """The ball counters read entry.word, ball.alphabet and ball.L."""
    spans = _perfbench_module("spans")
    tracer = spans.Tracer()
    tracer.install(spans.LIBRARY_WRAPS)
    try:
        tracer.start_pass(0)
        g1 = forms.boost(4, 0, 2, 1.5)
        T = forms.boost(4, 1, 2, 2.5)
        ball = groups.word_ball([g1, T @ g1 @ np.linalg.inv(T)], 3)
        anosov.sample_limit_set(forms.standard_space(2, 2), ball, 1.0)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"groups.word_ball", "anosov.limit_set"} <= names
    counts = tracer.counts[0]
    assert counts["groups.ball_elements"] == 53
    assert counts["groups.products_tried"] == 52
    assert counts["groups.products_kept"] == 52
    assert counts["anosov.limit_points"] == 44


def test_workload_passes_meet_their_checks():
    """One pass per workload: full size where it is quick, else the probe.

    Seed 0 leaves out geometry-kernels' seed-5 pin, which holds only at
    full size.
    """
    workloads = _perfbench_module("workloads").WORKLOADS
    for name, probe in (("schottky-spectral", False), ("crown-search", False),
                        ("geometry-kernels", True), ("cli-batch", True)):
        workload = workloads[name]
        inputs = workload.setup(0, probe=probe)
        try:
            outputs, commands = workload.run(inputs)
            checks = workload.check(inputs, outputs)
        finally:
            workload.teardown(inputs)
        failed = [label for label, ok in checks if not ok]
        assert commands and checks and not failed, (name, failed)


def test_geometry_kernels_full_pass_at_criterion_seed():
    """Full-size geometry-kernels pass at seed 5, where 6812/3188 is pinned.

    The probe pass above classifies 200 pairs and scans a 50-value grid,
    so only this pass runs the sizes the benchmark runs.
    """
    workload = _perfbench_module("workloads").WORKLOADS["geometry-kernels"]
    inputs = workload.setup(5)
    outputs, commands = workload.run(inputs)
    checks = dict(workload.check(inputs, outputs))
    assert checks.pop("criterion8_split_6812_3188")
    assert commands and all(checks.values()), checks
    assert outputs["classes"]["spacelike"] == 6812
    assert outputs["classes"]["timelike"] == 3188

"""The names the benchmark's span recorder wraps must exist in pqgeo.

``perfbench/spans.py`` patches module attributes by name and replaces
``pqgeo.crowns.QuadraticSpace`` with a census subclass. A refactor that
renames or drops one of those names breaks only the traced benchmark
run, so the install and uninstall round trip is checked here.
"""

import importlib.util
import os

import numpy as np

from pqgeo import anosov, crowns, forms, groups

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    spans = _spans_module()
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
    spans = _spans_module()
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
    spans = _spans_module()
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

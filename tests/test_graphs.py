"""Tests for spacelike graphs over the conformal boundary."""

import math

import numpy as np
import pytest

from pqgeo.forms import GeometryError, standard_space
from pqgeo.graphs import (LipschitzGraph, constant_graph, equatorial_graph,
                          folded_boundary_graph, graph_points,
                          isotropic_boundary_graph, kernel_sphere,
                          lipschitz_check, maximal_graph, split_spacetime,
                          timelike_distance)
from pqgeo.model import TimelikeFrame


def test_constant_graph_is_strict():
    report = lipschitz_check(constant_graph(2, 1), pairs=500, rng=0)
    assert report.strict
    assert report.violations == 0
    assert report.max_ratio == pytest.approx(0.0, abs=1e-12)


def test_maximal_graph_is_strict_but_close():
    report = lipschitz_check(maximal_graph(2, 1), pairs=2000, rng=0)
    assert report.strict
    assert report.violations == 0
    assert 0.9 < report.max_ratio < 1.0


def test_equatorial_graph_is_weakly_spacelike_only():
    report = lipschitz_check(equatorial_graph(2, 2), pairs=1000, rng=0)
    assert not report.strict
    assert report.violations == 0
    assert report.max_ratio == pytest.approx(1.0, abs=1e-9)


def test_equatorial_graph_needs_room():
    with pytest.raises(GeometryError):
        equatorial_graph(2, 1)


def test_isotropic_boundary_graph_kernel():
    graph = isotropic_boundary_graph(2, 2)
    report = lipschitz_check(graph, pairs=1000, rng=0)
    assert not report.strict
    assert report.violations == 0
    k, members = kernel_sphere(graph, count=400, rng=0)
    assert k == 2
    assert len(members) > 0


def test_folded_boundary_graph_has_no_kernel():
    graph = folded_boundary_graph(2, 2)
    k, members = kernel_sphere(graph, count=400, rng=0)
    assert k == 0
    assert len(members) == 0


def test_graph_points_lie_on_quadric():
    graph = maximal_graph(2, 1)
    pts = graph_points(graph, count=64, rng=1)
    space = graph.frame.space
    values = space.eval(np.array([p.vec for p in pts]))
    assert np.max(np.abs(values + 1.0)) < 1e-9


def test_lipschitz_check_deterministic():
    a = lipschitz_check(maximal_graph(2, 1), pairs=500, rng=7)
    b = lipschitz_check(maximal_graph(2, 1), pairs=500, rng=7)
    assert a.max_ratio == b.max_ratio
    assert a.violations == b.violations


def test_custom_graph_violations_detected():
    """A 2-Lipschitz map must produce ratio violations."""
    frame = TimelikeFrame.standard(2, 1)

    def func(U):
        y = U[:, 1:]
        angle = 2.0 * np.arctan2(y[:, 1], y[:, 0])
        out = np.stack((np.cos(angle), np.sin(angle)), axis=1)
        return out

    graph = LipschitzGraph(frame, func=func)
    report = lipschitz_check(graph, pairs=1000, rng=0)
    assert report.violations > 0
    assert not report.strict


def test_split_spacetime_combines_factors():
    space = standard_space(2, 2)
    g1 = maximal_graph(1, 0)
    basis1 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    g2 = maximal_graph(1, 0)
    basis2 = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    product = split_spacetime(space, [(g1, basis1), (g2, basis2)],
                              count=128, rng=0)
    pts = np.array([p.vec for p in product.points()])
    assert np.max(np.abs(space.eval(pts) + 1.0)) < 1e-9
    report = lipschitz_check(product, pairs=400, rng=0)
    assert report.violations == 0


def test_split_spacetime_rejects_bad_basis():
    space = standard_space(2, 2)
    g1 = maximal_graph(1, 0)
    skew = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(GeometryError):
        split_spacetime(space, [(g1, skew)], count=16, rng=0)


def test_timelike_distance_constant_graph():
    graph = constant_graph(2, 1)
    rng = np.random.default_rng(3)
    lifts = []
    for _ in range(16):
        s = rng.normal(size=2)
        s /= np.linalg.norm(s)
        lifts.append(np.concatenate((s, [0.0, 1.0])))
    d = timelike_distance(graph, np.array(lifts), bases=8, directions=8,
                          rng=0)
    assert d == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_timelike_distance_needs_negative_view():
    graph = constant_graph(2, 1)
    bad = np.array([[1.0, 0.0, 0.0, -1.0]])
    with pytest.raises(GeometryError):
        timelike_distance(graph, bad, bases=4, directions=4, rng=0)

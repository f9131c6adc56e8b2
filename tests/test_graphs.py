"""Tests for spacelike graphs over the conformal boundary."""

import math

import numpy as np
import pytest

from pqgeo.crowns import crown_orbit_graph
from pqgeo.forms import GeometryError, standard_space
from pqgeo.graphs import (SPHERE, LipschitzGraph, constant_graph,
                          equatorial_graph, folded_boundary_graph,
                          graph_points, isotropic_boundary_graph,
                          kernel_sphere, lipschitz_check, maximal_graph,
                          split_spacetime, timelike_distance)
from pqgeo.model import TimelikeFrame, sphere_distance


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


def _arc(u, v):
    """One pair's arc: from the chord where |u.v| > 0.99, else arccos."""
    dot = float(u @ v)
    if dot > 0.99:
        return 2.0 * float(np.arcsin(math.sqrt((u - v) @ (u - v)) / 2.0))
    if dot < -0.99:
        return math.pi - 2.0 * float(
            np.arcsin(math.sqrt((u + v) @ (u + v)) / 2.0))
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))


def _lipschitz_by_loop(graph, pairs, seed):
    """lipschitz_check's report fields from a loop over pairs."""
    gen = np.random.default_rng(seed)
    if graph.samples is not None:
        U, V = graph.samples
        idx = [(i, j) for i in range(len(U))
               for j in range(i + 1, len(U))][:pairs]
        U1, V1 = U[[i for i, _ in idx]], V[[i for i, _ in idx]]
        U2, V2 = U[[j for _, j in idx]], V[[j for _, j in idx]]
    else:
        U1 = graph.sample_domain(pairs, gen)
        U2 = graph.sample_domain(pairs, gen)
        V1, V2 = graph.evaluate(U1), graph.evaluate(U2)
    max_ratio, violations, used = 0.0, 0, 0
    for u1, u2, v1, v2 in zip(U1, U2, V1, V2):
        if graph.domain == SPHERE:
            u1, u2 = u1[1:], u2[1:]
        d_dom = _arc(u1, u2)
        if d_dom <= 1e-9:
            continue
        ratio = _arc(v1, v2) / d_dom
        used += 1
        max_ratio = max(max_ratio, ratio)
        violations += ratio > 1.0 + 1e-9
    kernel_dim = None
    if graph.domain == SPHERE:
        U = graph.sample_domain(512, gen)
        V = graph.evaluate(U)
        lookup = {tuple(np.round(row, 12)): i for i, row in enumerate(U)}
        members = []
        for u, v in zip(U, V):
            j = lookup.get(tuple(np.round(-u, 12)))
            if j is not None and _arc(V[j], -v) <= 1e-8:
                members.append(u)
        kernel_dim = (int(np.linalg.matrix_rank(np.array(members), tol=1e-6))
                      if members else 0)
    return max_ratio, violations, used, kernel_dim


def _crown_table():
    """Sample table of a crown orbit graph, five rows stored twice."""
    graph = crown_orbit_graph(np.array([0.6, 0.8]))
    U = graph.sample_domain(40, 0)
    V = graph.evaluate(U)
    return LipschitzGraph(graph.frame,
                          samples=(np.vstack((U, U[:5])),
                                   np.vstack((V, V[:5]))))


@pytest.mark.parametrize("pairs", [300, 2000])
@pytest.mark.parametrize("graph", [
    maximal_graph(2, 1), folded_boundary_graph(2, 2),
    isotropic_boundary_graph(2, 2), crown_orbit_graph(np.array([0.6, 0.8])),
    _crown_table(), equatorial_graph(2, 2)],
    ids=["hemisphere", "folded", "isotropic", "crown", "table", "equator"])
def test_lipschitz_check_matches_loop_bit_for_bit(graph, pairs):
    report = lipschitz_check(graph, pairs=pairs, rng=3)
    max_ratio, violations, used, kernel_dim = _lipschitz_by_loop(
        graph, pairs, 3)
    assert report.max_ratio.hex() == max_ratio.hex()
    assert report.violations == violations
    assert report.pairs_used == used
    assert report.kernel_dim == kernel_dim


def test_non_finite_images_are_refused():
    """A NaN image row once passed as strict: no NaN ratio is a violation."""
    base = maximal_graph(2, 1)

    def func(U):
        V = base.func(U)
        V[::7] = np.nan
        return V

    graph = LipschitzGraph(base.frame, func=func)
    with pytest.raises(GeometryError, match="non-finite"):
        graph.evaluate(graph.sample_domain(20, 0))
    with pytest.raises(GeometryError, match="non-finite"):
        lipschitz_check(graph, pairs=200, rng=0)
    U = base.sample_domain(20, 0)
    V = base.evaluate(U)
    V[7] = np.nan
    table = LipschitzGraph(base.frame, samples=(U, V))
    with pytest.raises(GeometryError, match="non-unit"):
        lipschitz_check(table, pairs=200, rng=0)


def test_sphere_distance_refuses_non_finite_dots():
    with pytest.raises(GeometryError):
        sphere_distance(np.array([np.nan, 0.0]), np.array([1.0, 0.0]))
    rows = np.array([[1.0, 0.0], [np.inf, 0.0]])
    with pytest.raises(GeometryError):
        sphere_distance(rows, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert sphere_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) \
        == pytest.approx(math.pi / 2.0)


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


def _product_of_two_planes(count, seed):
    """The product that the geometry-kernels benchmark builds per seed."""
    space = standard_space(2, 2)
    factors = [
        (maximal_graph(1, 0),
         np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])),
        (maximal_graph(1, 0),
         np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))]
    return space, split_spacetime(space, factors, count=count, rng=seed)


def test_split_spacetime_near_the_equator():
    """Seed 33 draws samples near the equator, where the lift is long.

    The rounding in b(v, v) grows like |v|^2, so an absolute quadric band
    refused these sums of two unit interior lifts.
    """
    space, product = _product_of_two_planes(256, 33)
    lifts = np.array([p.vec for p in product.points()])
    assert lifts.shape == (256, 4)
    big = np.max(np.einsum("ij,ij->i", lifts, lifts))
    assert np.max(np.abs(space.eval(lifts) + 1.0)) <= 1e-15 * big


def test_folded_boundary_seed_98_has_no_violation():
    """Seed 98: two pairs read violations from arccos noise at a dot ~ 1."""
    report = lipschitz_check(folded_boundary_graph(2, 2), pairs=2000,
                             rng=98)
    assert report.violations == 0
    assert report.max_ratio <= 1.0 + 1e-12


def test_sphere_distance_of_a_row_to_itself_is_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    assert np.all(sphere_distance(X, X) == 0.0)
    assert np.all(sphere_distance(X, -X) == math.pi)
    assert all(sphere_distance(x, x) == 0.0 for x in X[:50])
    # Near the poles the chord route agrees with arccos to its accuracy.
    Y = X + 1e-3 * rng.normal(size=X.shape)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    chord = np.linalg.norm(X - Y, axis=1)
    assert np.allclose(sphere_distance(X, Y), 2.0 * np.arcsin(chord / 2.0),
                       rtol=0.0, atol=1e-15)
    assert np.allclose(sphere_distance(X, Y),
                       np.arccos(np.einsum("ij,ij->i", X, Y)),
                       rtol=0.0, atol=1e-11)


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

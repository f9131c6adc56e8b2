"""Tests for crowns, adapted bases, and diagonal-flow orbits."""

import itertools
import math

import numpy as np
import pytest

from pqgeo.crowns import (AdaptedBasis, Crown, adapted_basis,
                          crown_orbit_graph, detect_crowns,
                          is_boundary_crown, maximality_test,
                          orbit_hilbert_distance, orbit_point,
                          quadrilateral_demo)
from pqgeo.anosov import sample_limit_set
from pqgeo.forms import GeometryError, boost, rotation, standard_space
from pqgeo.graphs import lipschitz_check
from pqgeo.groups import word_ball
from pqgeo.model import hilbert_distance


@pytest.fixture
def basis2():
    return AdaptedBasis.standard(2)


def test_standard_basis_is_adapted(basis2):
    target = np.zeros((4, 4))
    target[0, 2] = target[2, 0] = target[1, 3] = target[3, 1] = -1.0
    actual = basis2.vectors @ basis2.space.gram @ basis2.vectors.T
    assert np.max(np.abs(actual - target)) < 1e-12


def test_crown_accepts_standard_lifts(basis2):
    crown = Crown(basis2.space, basis2.vectors)
    assert crown.j == 2
    assert crown.pairing.shape == (4, 4)


def test_crown_rejects_odd_count(basis2):
    with pytest.raises(GeometryError):
        Crown(basis2.space, basis2.vectors[:3])


def test_crown_rejects_broken_matching():
    """Two orthogonal isotropic lifts have no transverse partner."""
    space = standard_space(2, 2)
    rows = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ]) / math.sqrt(2.0)
    with pytest.raises(GeometryError):
        Crown(space, rows)


def test_detect_crowns_planted(basis2):
    space = basis2.space
    theta = 0.3
    junk1 = np.array([math.cos(theta), math.sin(theta), 1.0, 0.0])
    junk1 /= math.sqrt(2.0)
    junk2 = np.array([math.cos(1.1), math.sin(1.1),
                      math.cos(0.4), math.sin(0.4)]) / math.sqrt(2.0)
    points = np.vstack((basis2.vectors, junk1, junk2))
    scan = detect_crowns(space, points, j=2)
    assert scan.complete
    assert len(scan) == 1
    crown = scan.crowns[0]
    assert tuple(sorted(crown.indices)) == (0, 1, 2, 3)
    for i in range(crown.j):
        assert abs(crown.pairing[i, crown.j + i]) > 0.5


def test_detect_crowns_schottky_limit_set_j3():
    """44 points on a circle are pairwise transverse: no crowns, full scan."""
    g1 = boost(4, 0, 2, 1.5)
    T = boost(4, 1, 2, 2.5)
    ball = word_ball([g1, T @ g1 @ np.linalg.inv(T)], 3)
    space = standard_space(2, 2)
    points = sample_limit_set(space, ball, 1.0)
    assert len(points) == 44
    scan = detect_crowns(space, points, 3)
    assert scan.complete
    assert len(scan) == 0


def test_detect_crowns_result_cap():
    """Four pairs in pairing position hold C(4, 2) = 6 two-crowns."""
    basis = AdaptedBasis.standard(4)
    full = detect_crowns(basis.space, basis.vectors, 2)
    assert full.complete
    assert [c.indices for c in full] == [
        (0, 1, 4, 5), (0, 2, 4, 6), (0, 3, 4, 7),
        (1, 2, 5, 6), (1, 3, 5, 7), (2, 3, 6, 7)]
    for cap, complete in ((6, True), (5, False)):
        scan = detect_crowns(basis.space, basis.vectors, 2, max_results=cap)
        assert scan.complete is complete
        assert [c.indices for c in scan] == [c.indices for c in full][:cap]
    with pytest.raises(GeometryError):
        detect_crowns(basis.space, basis.vectors, 0)
    for cap in (0, -1):
        with pytest.raises(GeometryError):
            detect_crowns(basis.space, basis.vectors, 2, max_results=cap)


def _random_isometry(rng, j):
    g = np.eye(2 * j)
    for _ in range(5 * j):
        a, b = rng.choice(j, size=2, replace=False)
        kind = rng.integers(3)
        if kind == 0:
            g = g @ rotation(2 * j, a, b, rng.uniform(0, 2 * math.pi))
        elif kind == 1:
            g = g @ rotation(2 * j, j + a, j + b, rng.uniform(0, 2 * math.pi))
        else:
            g = g @ boost(2 * j, a, j + b, rng.uniform(-1, 1))
    return g


def _subset_oracle(space, points, j):
    """Every 2j-subset whose graph is a perfect matching and census (j,j|0)."""
    pair = points @ space.gram @ points.T
    norms = np.linalg.norm(points, axis=1)
    scale = space.tol * max(space.spectral_radius, 1.0)
    found = []
    for subset in itertools.combinations(range(len(points)), 2 * j):
        idx = list(subset)
        sub = pair[np.ix_(idx, idx)]
        adj = np.abs(sub) > scale * np.outer(norms[idx], norms[idx])
        np.fill_diagonal(adj, False)
        if not np.all(adj.sum(axis=1) == 1):
            continue
        ev = np.linalg.eigvalsh((sub + sub.T) / 2)
        t = space.tol * max(np.abs(ev))
        if (np.sum(ev > t), np.sum(ev < -t)) == (j, j):
            found.append(subset)
    return found


def test_detect_crowns_j3_matches_subset_oracle():
    """Planted 3-crowns, rescaled repeats and a degenerate matching."""
    space = standard_space(3, 3)
    lifts = AdaptedBasis.standard(3).vectors
    e = np.eye(6)
    # Three mutually orthogonal pairs, two of them spanning degenerate
    # planes: an induced matching whose census is not (3, 3|0).
    degenerate = np.array([e[0], e[0] + e[1] + e[3], e[2] + e[5],
                           e[5] - e[2], e[4], e[4] + e[1] + e[3]])
    rng = np.random.default_rng(5)
    total = 0
    for trial in range(12):
        rows = [lifts @ _random_isometry(rng, 3).T
                for _ in range(int(rng.integers(0, 3)))]
        if rows:
            rows.append(rows[0][rng.choice(6, size=2)] * -2.0)
        if trial % 3 == 0:
            rows.append(degenerate)
        s = rng.normal(size=(3, 3))
        m = rng.normal(size=(3, 3))
        rows.append(np.hstack((s / np.linalg.norm(s, axis=1, keepdims=True),
                               m / np.linalg.norm(m, axis=1, keepdims=True))))
        points = np.vstack(rows)[:12]
        points = points[rng.permutation(len(points))]
        scan = detect_crowns(space, points, 3)
        want = _subset_oracle(space, points, 3)
        assert scan.complete
        assert [tuple(sorted(c.indices)) for c in scan] == want
        total += len(want)
    assert total > 12


def test_adapted_basis_repairs_scales_and_signs(basis2):
    lifts = basis2.vectors.copy()
    lifts[2] *= -3.0
    lifts[3] *= 0.25
    crown = Crown(basis2.space, lifts)
    rebuilt = adapted_basis(crown)
    target = np.zeros((4, 4))
    target[0, 2] = target[2, 0] = target[1, 3] = target[3, 1] = -1.0
    actual = rebuilt.vectors @ basis2.space.gram @ rebuilt.vectors.T
    assert np.max(np.abs(actual - target)) < 1e-12


def test_adapted_basis_rejects_bad_pairing(basis2):
    bad = basis2.vectors.copy()
    bad[0] *= 2.0
    with pytest.raises(GeometryError):
        AdaptedBasis(basis2.space, bad)


def test_orbit_weights_match_coefficients(basis2):
    coeffs = np.array([1.0, 2.0, 0.5, 0.3])
    point = orbit_point(basis2, coeffs)
    expect = -2.0 * coeffs[:2] * coeffs[2:]
    assert np.max(np.abs(point.weights - expect)) < 1e-12


def test_orbit_weights_flow_invariant(basis2):
    coeffs = np.array([1.0, 2.0, 0.5, 0.3])
    base = orbit_point(basis2, coeffs)
    moved = orbit_point(basis2, coeffs, a=np.array([0.7, -1.3]))
    assert np.max(np.abs(moved.weights - base.weights)) < 1e-12


def test_orbit_point_stays_timelike(basis2):
    coeffs = np.array([1.0, 2.0, 0.5, 0.3])
    point = orbit_point(basis2, coeffs, a=np.array([2.0, -1.0]),
                        normalize=True)
    assert basis2.space.eval(point.vector) == pytest.approx(-1.0, abs=1e-12)


def test_orbit_point_rejects_nonpositive_coeffs(basis2):
    with pytest.raises(GeometryError):
        orbit_point(basis2, np.array([1.0, -1.0, 1.0, 1.0]))


def test_orbit_distance_matches_cross_ratio(basis2):
    """Dual route: flow formula vs chord-based Hilbert metric."""
    coeffs = np.array([0.8, 1.1, 0.9, 1.4])
    domain = basis2.domain()
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, size=2)
        fast = orbit_hilbert_distance(basis2, coeffs, a)
        x = orbit_point(basis2, coeffs).vector
        z = orbit_point(basis2, coeffs, a=a).vector
        slow = hilbert_distance(domain, x, z)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_maximality_trichotomy(basis2):
    balanced = orbit_point(basis2, np.array([1.0, 2.0, 1.0, 0.5]))
    assert maximality_test(balanced)
    generic = orbit_point(basis2, np.array([1.0, 1.0, 1.0, 2.0]))
    assert not maximality_test(generic)


def test_quadrilateral_floor_equals_R(basis2):
    coeffs = np.ones(4)
    for R in (2.0, 5.0):
        report = quadrilateral_demo(basis2, coeffs, R)
        assert report.min_distance == pytest.approx(R, abs=1e-12)
        assert set(report.vertices) == {"a", "b", "c", "d"}


def test_quadrilateral_sides_match_chord_distance():
    """Side distances by the cross-ratio route, where chords are tame."""
    for j in (2, 3):
        basis = AdaptedBasis.standard(j)
        coeffs = np.ones(2 * j)
        domain = basis.domain()
        base = orbit_point(basis, coeffs).vector
        for R in (0.5, 1.0, 2.0):
            report = quadrilateral_demo(basis, coeffs, R)
            corners = {"a": (R, -R), "b": (-R, R), "c": (-R, -3 * R),
                       "d": (-3 * R, -R)}
            for key, (first, rest) in corners.items():
                flow = np.array([first] + [rest] * (j - 1))
                assert np.array_equal(report.vertices[key],
                                      orbit_point(basis, coeffs, flow).vector)
            sides = [("a", (-1.0, -1.0)), ("b", (-1.0, -1.0)),
                     ("c", (-1.0, 1.0))]
            chord = []
            for key, (dfirst, drest) in sides:
                first, rest = corners[key]
                for t in np.linspace(0.0, 2.0 * R, report.side_samples):
                    flow = np.array([first + t * dfirst]
                                    + [rest + t * drest] * (j - 1))
                    z = orbit_point(basis, coeffs, flow).vector
                    chord.append(hilbert_distance(domain, base, z))
            assert min(chord) == pytest.approx(report.min_distance, abs=1e-9)
            assert min(chord) >= R - 1e-9


def test_quadrilateral_validations(basis2):
    with pytest.raises(GeometryError):
        quadrilateral_demo(AdaptedBasis.standard(1), np.ones(2), 1.0)
    with pytest.raises(GeometryError):
        quadrilateral_demo(basis2, np.ones(4), -1.0)


def test_crown_orbit_graph_spacelike():
    graph = crown_orbit_graph(np.array([0.6, 0.8]))
    report = lipschitz_check(graph, pairs=500, rng=1)
    assert report.strict
    assert report.violations == 0


def test_crown_orbit_graph_needs_unit_tau():
    with pytest.raises(GeometryError):
        crown_orbit_graph(np.array([0.6, 0.7]))


def test_is_boundary_crown():
    space = standard_space(3, 3)
    rows = np.zeros((4, 6))
    rows[0, 0] = rows[0, 3] = 1.0
    rows[1, 1] = rows[1, 4] = 1.0
    rows[2, 0] = -1.0
    rows[2, 3] = 1.0
    rows[3, 1] = -1.0
    rows[3, 4] = 1.0
    rows /= math.sqrt(2.0)
    crown = Crown(space, rows)
    decoy = np.zeros(6)
    decoy[0] = decoy[5] = 1.0 / math.sqrt(2.0)
    witness = np.zeros(6)
    witness[2] = witness[5] = 1.0 / math.sqrt(2.0)
    assert is_boundary_crown(crown, np.array([decoy, witness])) == 1
    assert is_boundary_crown(crown, np.array([decoy])) is None
    other = witness.copy()
    other[5] = -other[5]
    first = is_boundary_crown(crown, np.array([decoy, other, witness]))
    assert first == 1 and type(first) is int

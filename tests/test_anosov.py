"""Tests for Jordan projections, proximality, and limit-set sampling."""

import math
import re

import numpy as np
import pytest

from pqgeo.anosov import (gap_series, jordan_projection, limit_cone_sample,
                          negativity_test, proximality_class,
                          sample_limit_set)
from pqgeo.forms import GeometryError, boost, rotation, standard_space
from pqgeo.groups import word_ball
from pqgeo.model import BoundaryPoint


def _schottky_gens():
    g1 = boost(4, 0, 2, 1.5)
    T = boost(4, 1, 2, 2.5)
    return [g1, T @ g1 @ np.linalg.inv(T)]


def _split_gens():
    """Criterion 12's O(2,3) pair; the rotation factor gives complex spectra."""
    return [boost(5, 0, 2, 2.0) @ rotation(5, 3, 4, 1.0),
            boost(5, 1, 3, 0.3)]


CRITERION_12 = [(standard_space(2, 2), _schottky_gens),
                (standard_space(2, 3), _split_gens)]


@pytest.fixture
def schottky_ball():
    return word_ball(_schottky_gens(), 3)


def test_jordan_projection_diagonal():
    g = np.diag(np.exp([2.0, 1.0, 0.0, -1.0, -2.0]))
    lam = jordan_projection(g, 2)
    assert np.allclose(lam, [2.0, 1.0], atol=1e-12)


def test_jordan_projection_identity():
    lam = jordan_projection(np.eye(4))
    assert lam.shape == (4,)
    assert np.max(np.abs(lam)) < 1e-12


def test_jordan_projection_mixed_block():
    theta = 0.7
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = math.cos(theta)
    g[0, 1], g[1, 0] = -math.sin(theta), math.sin(theta)
    g[2, 2], g[3, 3] = 3.0, 1.0 / 3.0
    lam = jordan_projection(g, 2)
    assert lam[0] == pytest.approx(math.log(3.0), abs=1e-12)
    assert lam[1] == pytest.approx(0.0, abs=1e-12)


def test_jordan_projection_errors():
    with pytest.raises(GeometryError):
        jordan_projection(np.zeros((3, 3)))
    with pytest.raises(GeometryError):
        jordan_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(GeometryError):
        jordan_projection(np.eye(3), 0)
    with pytest.raises(GeometryError):
        jordan_projection(np.eye(3), 4)
    with pytest.raises(GeometryError):
        jordan_projection(np.ones((2, 3)))


def test_proximality_positive_case():
    cls = proximality_class(np.diag([2.0, 1.0, 0.5]))
    assert cls.proximal
    assert cls.positively_proximal
    assert cls.semi_proximal
    assert not cls.undecided


def test_proximality_negative_leader():
    cls = proximality_class(np.diag([-2.0, 1.0, 0.5]))
    assert cls.proximal
    assert cls.semi_proximal
    assert not cls.positively_semi_proximal
    assert not cls.positively_proximal


def test_proximality_rotation_cluster():
    theta = 0.7
    g = np.eye(3)
    g[0, 0] = g[1, 1] = math.cos(theta)
    g[0, 1], g[1, 0] = -math.sin(theta), math.sin(theta)
    cls = proximality_class(g)
    assert not cls.proximal
    assert cls.semi_proximal
    assert cls.positively_semi_proximal


def test_proximality_ambiguity_band():
    cls = proximality_class(np.diag([1.0, 1.0 - 5e-6]))
    assert cls.undecided


def test_proximality_rejects_zero():
    with pytest.raises(GeometryError):
        proximality_class(np.zeros((2, 2)))


def test_gap_series_counts(schottky_ball):
    series = gap_series(schottky_ball, 2)
    assert series.lengths == [1, 2, 3]
    assert series.counts == [4, 8, 12]
    assert series.mins[0] == pytest.approx(1.5, abs=1e-9)
    assert series.mins[0] <= series.mins[1] <= series.mins[2]


def test_gap_series_needs_rank(schottky_ball):
    with pytest.raises(GeometryError):
        gap_series(schottky_ball, 1)
    with pytest.raises(GeometryError):
        gap_series(schottky_ball, 5)


@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_spectral_table_matches_jordan_projection(space, gens):
    ball = word_ball(gens(), 6)
    assert ball.stack.shape == (1457, space.dim, space.dim)
    for entry, matrix, moduli in zip(ball, ball.stack, ball.moduli):
        assert np.array_equal(matrix, entry.matrix)
        assert np.array_equal(np.log(moduli[:2]),
                              jordan_projection(entry.matrix, 2))


def _limit_set_by_element(space, ball, gap_threshold):
    """Per-element eig and a scan over all kept points: the reference."""
    kept = []
    for entry in ball:
        if not entry.word:
            continue
        lam = jordan_projection(entry.matrix, 2)
        if lam[0] - lam[1] < gap_threshold:
            continue
        eigenvalues, vectors = np.linalg.eig(entry.matrix)
        vec = vectors[:, int(np.argmax(np.abs(eigenvalues)))]
        vec = (vec / vec[int(np.argmax(np.abs(vec)))]).real
        vec = vec / np.linalg.norm(vec)
        old = np.array(kept).reshape(-1, space.dim)
        if np.any((np.linalg.norm(vec - old, axis=1) <= 1e-6)
                  | (np.linalg.norm(vec + old, axis=1) <= 1e-6)):
            continue
        kept.append(vec)
    return np.array([BoundaryPoint(space, vec).lift for vec in kept])


@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_sample_limit_set_matches_per_element_eig(space, gens):
    ball = word_ball(gens(), 6)
    if space.dim == 5:
        assert np.iscomplexobj(np.linalg.eigvals(ball.stack))
    lifts = sample_limit_set(space, ball, 1.0).rows
    assert np.array_equal(lifts, _limit_set_by_element(space, ball, 1.0))


def _limit_set_by_point(space, ball, gap_threshold):
    """The per-point loop over one stacked eig, with a BoundaryPoint each."""
    emitting = [i for i in range(1, len(ball))
                if np.subtract(*np.log(ball.moduli[i][:2])) >= gap_threshold]
    kept = np.empty((len(emitting), space.dim))
    points, source = [], []
    all_values, all_vectors = np.linalg.eig(ball.stack[emitting])
    for i, eigenvalues, vectors in zip(emitting, all_values, all_vectors):
        if not np.any(eigenvalues.imag):
            eigenvalues, vectors = eigenvalues.real, vectors.real
        vec = vectors[:, int(np.argmax(np.abs(eigenvalues)))]
        vec = (vec / vec[int(np.argmax(np.abs(vec)))]).real
        vec = vec / np.linalg.norm(vec)
        if abs(space.eval(vec)) > 1e-8:
            raise GeometryError(
                "limit point fails isotropy: |b| = %g" % abs(space.eval(vec)))
        old = kept[:len(points)]
        if (np.any(np.linalg.norm(old - vec, axis=1) <= 1e-6)
                or np.any(np.linalg.norm(old + vec, axis=1) <= 1e-6)):
            continue
        kept[len(points)] = vec
        points.append(BoundaryPoint(space, vec))
        source.append(i)
    return np.array([pt.lift for pt in points]), source


@pytest.mark.parametrize("L", [6, 7])
@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_limit_set_rows_match_per_point_loop(space, gens, L):
    """Rows and sources equal those of a BoundaryPoint per kept point."""
    ball = word_ball(gens(), L)
    try:
        lifts, source = _limit_set_by_point(space, ball, 1.0)
    except GeometryError as err:
        # Some BLAS kernels give an eigenvector off the quadric at L=7.
        with pytest.raises(GeometryError, match=re.escape(str(err))):
            sample_limit_set(space, ball, 1.0)
        return
    limit = sample_limit_set(space, ball, 1.0)
    assert np.array_equal(limit.rows, lifts)
    assert limit.source.tolist() == source
    assert len(limit) == len(source)


@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_limit_set_rows_are_attractors(space, gens):
    """rows[i] is the top eigenvector of ball element source[i]."""
    ball = word_ball(gens(), 6)
    limit = sample_limit_set(space, ball, 1.0)
    assert limit.rows.shape == (len(limit), space.dim)
    assert np.all(np.diff(limit.source) > 0) and limit.source[0] >= 1
    for row, i in zip(limit.rows, limit.source):
        matrix = ball.stack[i]
        top = ball.moduli[i][0]
        image = matrix @ row
        sign = np.sign(image @ row)
        assert np.linalg.norm(image - sign * top * row) <= 1e-9 * top
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-15)


def test_sample_limit_set_points(schottky_ball):
    space = standard_space(2, 2)
    points = sample_limit_set(space, schottky_ball, 1.0)
    assert len(points) > 0
    scale = max(space.spectral_radius, 1.0)
    lifts = []
    for pt in points:
        assert isinstance(pt, BoundaryPoint)
        assert abs(space.eval(pt.lift)) < 1e-8 * scale
        lifts.append(pt.lift)
    lifts = np.array(lifts)
    for i in range(len(lifts)):
        for j in range(i + 1, len(lifts)):
            gap = min(np.linalg.norm(lifts[i] - lifts[j]),
                      np.linalg.norm(lifts[i] + lifts[j]))
            assert gap > 1e-6


def test_sample_limit_set_threshold_validation(schottky_ball):
    space = standard_space(2, 2)
    for threshold in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(GeometryError):
            sample_limit_set(space, schottky_ball, threshold)


def test_sample_limit_set_form_precheck():
    space = standard_space(2, 2)
    ball = word_ball([np.diag([2.0, 1.0, 1.0, 1.0])], 1)
    with pytest.raises(GeometryError):
        sample_limit_set(space, ball, 1.0)


def test_negativity_negative_case():
    space = standard_space(2, 1)
    lifts = []
    for theta in (0.0, math.pi / 2.0, math.pi):
        lifts.append(np.array([math.cos(theta), math.sin(theta), 1.0]))
    report = negativity_test(space, np.array(lifts))
    assert report.status == "negative"
    assert report.margin == pytest.approx(0.5, abs=1e-12)
    # (0, 1) and (1, 2) pair equally; the first in row-major order wins.
    assert report.witness == (0, 1)


def test_negativity_non_positive_only():
    space = standard_space(2, 2)
    lifts = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ]) / math.sqrt(2.0)
    report = negativity_test(space, lifts)
    assert report.status == "non-positive-only"
    assert report.margin == pytest.approx(0.0, abs=1e-15)


def test_negativity_inconsistent():
    space = standard_space(2, 2)
    pts = []
    for k in range(3):
        s = np.array([math.cos(0.1 * k), math.sin(0.1 * k)])
        m = np.array([math.cos(2 * math.pi * k / 3),
                      math.sin(2 * math.pi * k / 3)])
        pts.append(np.concatenate((s, m)) / math.sqrt(2.0))
    report = negativity_test(space, np.array(pts))
    assert report.status == "inconsistent"
    assert report.witness == [2, 0, 1]
    assert all(type(v) is int for v in report.witness)


def test_negativity_needs_two_points():
    space = standard_space(2, 1)
    with pytest.raises(GeometryError):
        negativity_test(space, np.array([[1.0, 0.0, 1.0]]))


def test_limit_cone_single_ray(schottky_ball):
    rays = limit_cone_sample(schottky_ball, 2)
    assert rays.shape == (1, 2)
    assert np.allclose(rays[0], [1.0, 0.0], atol=1e-9)


def test_limit_cone_checks_rank_before_entries():
    ball = word_ball(_schottky_gens(), 0)
    assert limit_cone_sample(ball, 2).shape == (0, 2)
    for r in (0, 5):
        with pytest.raises(GeometryError):
            limit_cone_sample(ball, r)


def test_limit_cone_skips_elliptics():
    theta = 0.7
    g = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    ball = word_ball([g], 2)
    rays = limit_cone_sample(ball, 2)
    assert rays.shape == (0, 2)


@pytest.mark.parametrize("space,gens,count", [CRITERION_12[0] + (50,),
                                              CRITERION_12[1] + (7,)])
def test_limit_cone_matches_scan_over_all_rays(space, gens, count):
    """The indexed merge keeps the rays a scan over every kept ray keeps."""
    ball = word_ball(gens(), 7)
    kept = []
    for entry, moduli in zip(ball, ball.moduli):
        lam = np.log(moduli[:2])
        norm = float(np.linalg.norm(lam))
        if not entry.word or norm <= 1e-12:
            continue
        ray = lam / norm
        if all(math.acos(min(1.0, max(-1.0, float(ray @ old)))) > 1e-6
               for old in kept):
            kept.append(ray)
    rays = limit_cone_sample(ball, 2)
    assert len(rays) == count
    assert np.array_equal(rays, np.array(kept))

"""Tests for Jordan projections, proximality, and limit-set sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from pqgeo.anosov import (gap_series, jordan_projection, limit_cone_sample,
                          negativity_test, proximality_class,
                          sample_limit_set)
from pqgeo.forms import (PAIRING_BLOCK, GeometryError, boost, rotation,
                         standard_space)
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


def _free_reduce(word, inverse_letter):
    out = []
    for letter in word:
        if out and inverse_letter[out[-1]] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_class_table_conjugates_keys(space, gens):
    """Each word is h k h^-1 with h = words[conj[i]] and k = keys[cls[i]]."""
    ball = word_ball(gens(), 5)
    inverse = ball.inverse_letter
    assert ball.cls[0] == -1
    assert ball.jordan.shape == ball.attractor.shape == (len(ball.keys),
                                                          space.dim)
    for i, word in enumerate(ball.words[1:], 1):
        h, key = ball.words[ball.conj[i]], ball.keys[ball.cls[i]]
        assert word[:len(h)] == h
        assert key == min(key[s:] + key[:s] for s in range(len(key)))
        h_inv = tuple(inverse[letter] for letter in reversed(h))
        assert _free_reduce(h + key + h_inv, inverse) == word


def _referee_jordan(alphabet, key):
    """Log-moduli of a key product from a 50-digit mpmath eig."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        product = mpmath.eye(alphabet[0].shape[0])
        for letter in key:
            product = product * mpmath.matrix(alphabet[letter].tolist())
        values = mpmath.eig(product, left=False, right=False)
        return sorted((float(mpmath.log(abs(v))) for v in values),
                      reverse=True)


@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_class_table_matches_referee(space, gens):
    """Every class at L=5 against a high-precision eig of its key product.

    The referee takes the float letters as exact, so it checks the
    rounding of the exterior-power route, not the error in the input.
    """
    ball = word_ball(gens(), 5)
    for key, lam in zip(ball.keys, ball.jordan):
        assert np.max(np.abs(lam - _referee_jordan(ball.alphabet, key))) \
            <= 1e-10


def test_class_table_reads_small_gap():
    """Group b's L=7 key with a small second modulus, lambda_2 = 0.153..."""
    ball = word_ball(_split_gens(), 7)
    key = (0, 2, 2, 1, 2, 1, 2)
    lam = ball.jordan[ball.keys.index(key)]
    assert lam[1] == pytest.approx(0.15314653798515, abs=1e-9)
    assert lam[1] == pytest.approx(_referee_jordan(ball.alphabet, key)[1],
                                   abs=1e-9)
    assert np.all(np.diff(lam) <= 0.0)


@pytest.mark.parametrize("space,gens", CRITERION_12)
def test_limit_set_rows_are_attractors(space, gens):
    """rows[i] is the top eigenvector of ball element source[i]."""
    ball = word_ball(gens(), 6)
    limit = sample_limit_set(space, ball, 1.0)
    assert limit.rows.shape == (len(limit), space.dim)
    assert np.all(np.diff(limit.source) > 0) and limit.source[0] >= 1
    for row, i in zip(limit.rows, limit.source):
        top = math.exp(ball.jordan[ball.cls[i], 0])
        image = ball.stack[i] @ row
        sign = np.sign(image @ row)
        assert np.linalg.norm(image - sign * top * row) <= 1e-9 * top
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-15)


def _conjugated(h):
    return lambda: [h @ g @ np.linalg.inv(h) for g in _schottky_gens()]


@pytest.mark.parametrize("gens,isotropy", [
    (_schottky_gens, 1e-12),
    (_conjugated(boost(4, 1, 3, 2.0)), 1e-10),
    (_conjugated(rotation(4, 0, 1, 0.7) @ boost(4, 1, 2, 1.0)), 1e-10)],
    ids=["standard", "boost13", "rotboost"])
def test_schottky_group_has_one_ray_in_every_basis(gens, isotropy):
    """The Fuchsian Schottky group's cone is one ray, whatever the basis."""
    space = standard_space(2, 2)
    for L in (5, 6, 7, 8):
        ball = word_ball(gens(), L)
        assert limit_cone_sample(ball, 2).shape == (1, 2)
        if L == 7:
            rows = sample_limit_set(space, ball, 1.0).rows
            assert np.max(np.abs(space.eval(rows))) <= isotropy


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


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_negativity_needs_finite_nonzero_lifts(bad):
    space = standard_space(2, 2)
    lifts = np.array([[1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0, 1.0]])
    lifts[1] = bad
    with pytest.raises(GeometryError, match="finite nonzero lifts"):
        negativity_test(space, lifts)


def test_negativity_forms_no_n_by_n_array():
    """Group a at L=7: the peak stays within four row blocks of pairings."""
    space = standard_space(2, 2)
    points = sample_limit_set(space, word_ball(_schottky_gens(), 7), 1.0)
    n = len(points.rows)
    assert n == 2752
    tracemalloc.start()
    try:
        negativity_test(space, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * PAIRING_BLOCK * n * 8


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


@pytest.mark.parametrize("space,gens,count", [CRITERION_12[0] + (1,),
                                              CRITERION_12[1] + (7,)])
def test_limit_cone_matches_scan_over_all_rays(space, gens, count):
    """The indexed merge keeps the rays a chord scan over every class keeps."""
    ball = word_ball(gens(), 7)
    kept = []
    for lam in ball.jordan[:, :2]:
        norm = float(np.linalg.norm(lam))
        if norm <= 1e-12:
            continue
        ray = lam / norm
        if all(np.linalg.norm(ray - old) > 1e-6 for old in kept):
            kept.append(ray)
    rays = limit_cone_sample(ball, 2)
    assert len(rays) == count
    assert np.array_equal(rays, np.array(kept))

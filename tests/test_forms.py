"""Tests for the bilinear-form layer."""

import numpy as np
import pytest

from pqgeo import forms
from pqgeo.forms import (GeometryError, NearIndex, QuadraticSpace, Signature,
                         standard_space)


def test_signature_census_diagonal():
    space = QuadraticSpace(np.diag([3.0, 1.0, -2.0]))
    assert space.signature.as_tuple() == (2, 1, 0)
    assert not space.is_degenerate


def test_signature_census_degenerate():
    space = QuadraticSpace(np.diag([1.0, 0.0, -1.0, 0.0]))
    assert space.signature.as_tuple() == (1, 1, 2)
    assert space.is_degenerate
    assert space.signature.as_dict() == {"pos": 1, "neg": 1, "null": 2}


def test_signature_tolerance_is_relative():
    """Uniform scaling must not change the census."""
    gram = np.diag([1.0, 1e-15, -1.0])
    for factor in (1.0, 1e-12, 1e12):
        space = QuadraticSpace(factor * gram)
        assert space.signature.as_tuple() == (1, 1, 1)


def test_tolerance_must_be_finite_and_non_negative():
    for tol in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(GeometryError, match="tolerance"):
            QuadraticSpace(np.eye(2), tol=tol)
        with pytest.raises(GeometryError, match="tolerance"):
            standard_space(1, 1, tol=tol)
    assert QuadraticSpace(np.eye(2), tol=0.0).tol == 0.0


def test_signature_object_equality():
    assert Signature(2, 1, 0) == Signature(2, 1)
    assert Signature(2, 1, 0) == (2, 1, 0)
    assert tuple(Signature(3, 2, 1)) == (3, 2, 1)


def test_standard_space():
    space = standard_space(2, 3)
    assert space.dim == 5
    assert space.signature.as_tuple() == (2, 3, 0)
    assert np.array_equal(space.gram, np.diag([1, 1, -1, -1, -1.0]))


def test_eval_and_broadcast():
    space = standard_space(1, 2)
    v = np.array([2.0, 1.0, 1.0])
    assert space.eval(v) == pytest.approx(2.0)
    w = np.array([1.0, 0.0, 0.0])
    assert space.eval(v, w) == pytest.approx(2.0)
    batch = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    values = space.eval(batch)
    assert values.shape == (2,)
    assert values[0] == pytest.approx(1.0)
    assert values[1] == pytest.approx(-1.0)


def test_classify_vector_trichotomy():
    space = standard_space(2, 2)
    assert space.classify_vector([1.0, 0, 0, 0]) == "positive"
    assert space.classify_vector([0, 0, 1.0, 0]) == "negative"
    assert space.classify_vector([1.0, 0, 1.0, 0]) == "isotropic"
    with pytest.raises(GeometryError):
        space.classify_vector([0.0, 0.0, 0.0, 0.0])


def test_classify_vector_band_scales_with_vector():
    space = standard_space(1, 1)
    big = 1e8
    assert space.classify_vector([big, big]) == "isotropic"


def test_restrict():
    space = standard_space(2, 2)
    sub = space.restrict([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
    assert sub.signature.as_tuple() == (1, 1, 0)
    with pytest.raises(GeometryError):
        space.restrict([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])


def test_restrict_to_isotropic_line_is_degenerate():
    space = standard_space(1, 1)
    sub = space.restrict([[1.0, 1.0]])
    assert sub.signature.as_tuple() == (0, 0, 1)


def test_orthogonal_complement():
    space = standard_space(2, 2)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    comp = space.orthogonal_complement(v)
    assert comp.shape == (3, 4)
    assert np.max(np.abs(comp @ space.gram @ v)) < 1e-12


def test_orthogonal_complement_rejects_degenerate():
    space = QuadraticSpace(np.diag([1.0, 0.0]))
    with pytest.raises(GeometryError):
        space.orthogonal_complement([[1.0, 0.0]])


def test_isometry_residual():
    space = standard_space(1, 1)
    s = 0.7
    boost = np.array([[np.cosh(s), np.sinh(s)], [np.sinh(s), np.cosh(s)]])
    assert space.isometry_residual(boost) < 1e-15
    assert space.isometry_residual(2.0 * np.eye(2)) > 1.0


def test_gram_validation():
    with pytest.raises(GeometryError):
        QuadraticSpace(np.ones((2, 3)))
    with pytest.raises(GeometryError):
        QuadraticSpace([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(GeometryError):
        QuadraticSpace([[np.nan, 0.0], [0.0, 1.0]])


def test_eval_dimension_mismatch():
    space = standard_space(1, 1)
    with pytest.raises(GeometryError):
        space.eval([1.0, 2.0, 3.0])


def _band_rule(space, rows, others):
    """The elementwise sign band that QuadraticSpace.pairing replaced."""
    pair = rows @ space.gram @ others.T
    thresh = space.tol * max(space.spectral_radius, 1.0) * np.outer(
        np.linalg.norm(rows, axis=1), np.linalg.norm(others, axis=1))
    return pair, np.abs(pair) > thresh


def _near_band_rows(rng, count, dim):
    """Rows in {-1, 0, 1}, a third nudged by 1e-9: pairings at and near 0."""
    rows = rng.integers(-1, 2, size=(count, dim)).astype(float)
    rows[::3] += 1e-9 * rng.normal(size=rows[::3].shape)
    return rows


def test_pairing_matches_band_rule_on_diagonal_grams():
    rng = np.random.default_rng(0)
    for diag in ([1.0, 1.0, -1.0, -1.0], [3.0, 0.5, -2.0, -0.25],
                 [0.1, -0.2, 0.3, -0.05]):
        space = QuadraticSpace(np.diag(diag))
        # More rows than one band block holds.
        rows = _near_band_rows(rng, 300, 4)
        pair, nonzero = space.pairing(rows)
        want_pair, want = _band_rule(space, rows, rows)
        np.fill_diagonal(want, False)
        assert np.array_equal(pair, want_pair)
        assert np.array_equal(nonzero, want)
        off = nonzero[~np.eye(300, dtype=bool)]
        assert off.any() and not off.all()


def test_pairing_mask_symmetric_under_nondiagonal_gram():
    """Rounding makes rows @ gram @ rows.T asymmetric; the mask is not."""
    rng = np.random.default_rng(1)
    basis = rng.normal(size=(4, 4))
    gram = basis.T @ np.diag([1.0, 1.0, -1.0, -1.0]) @ basis
    rows = rng.normal(size=(30, 4))
    base = QuadraticSpace(gram)
    pair = rows @ base.gram @ rows.T
    norms = np.linalg.norm(rows, axis=1)
    scale = max(base.spectral_radius, 1.0) * np.outer(norms, norms)
    straddled = 0
    for i, j in np.argwhere(np.triu(pair != pair.T))[:40]:
        # A band at the smaller of the two entries of the pair.
        tol = min(abs(pair[i, j]), abs(pair[j, i])) / scale[i, j]
        space = QuadraticSpace(gram, tol=tol)
        _, elementwise = _band_rule(space, rows, rows)
        straddled += elementwise[i, j] != elementwise[j, i]
        _, nonzero = space.pairing(rows)
        assert np.array_equal(nonzero, nonzero.T)
        assert not nonzero.diagonal().any()
        assert nonzero[i, j] == (elementwise[i, j] or elementwise[j, i])
    assert straddled > 0


def test_pairing_with_others_matches_band_rule():
    rng = np.random.default_rng(2)
    signs = np.diag([1.0, 1.0, -1.0, -1.0])
    for basis in (np.eye(4), rng.normal(size=(4, 4))):
        # Moved by inv(basis), rows pair under basis.T @ signs @ basis as
        # they pair under signs: zero pairings stay within the band.
        space = QuadraticSpace(basis.T @ signs @ basis)
        move = np.linalg.inv(basis).T
        rows = _near_band_rows(rng, 12, 4) @ move
        others = _near_band_rows(rng, 5, 4) @ move
        pair, nonzero = space.pairing(rows, others)
        want_pair, want = _band_rule(space, rows, others)
        assert pair.shape == nonzero.shape == (12, 5)
        assert np.array_equal(pair, want_pair)
        assert np.array_equal(nonzero, want)
        assert nonzero.any() and not nonzero.all()


def _shell_rows(rng, centres, radius):
    """Rows at radius * (1 +- 1e-12) from the given rows."""
    step = rng.normal(size=centres.shape)
    step /= np.linalg.norm(step, axis=1)[:, None]
    factor = radius * (1.0 + 1e-12 * rng.choice([-1.0, 1.0], len(centres)))
    return centres + factor[:, None] * step


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_index_matches_brute_force_scan(monkeypatch, seed):
    """Same distances under < and <= as a scan, for +v and -v queries."""
    monkeypatch.setattr(forms, "NEAR_INDEX_SEED", seed)
    rng = np.random.default_rng(10 + seed)
    radius = 0.05
    base = rng.uniform(-1.0, 1.0, size=(150, 5))
    rows = np.concatenate((base, base[:20],
                           _shell_rows(rng, base[:60], radius)))
    rows = rows[rng.permutation(len(rows))]
    index = NearIndex(5, radius)
    scans = []

    def check(query, stored):
        found = index.distances(query)
        scan = np.linalg.norm(rows[:stored] - query, axis=1)
        for within in (lambda d: d < radius, lambda d: d <= radius):
            assert np.array_equal(np.sort(found[within(found)]),
                                  np.sort(scan[within(scan)]))
        scans.append(scan)

    for stored, row in enumerate(rows):
        check(row, stored)
        index.add(row)
    queries = np.concatenate((rows, _shell_rows(rng, rows, radius),
                              rng.uniform(-1.0, 1.0, size=(50, 5))))
    for query in queries:
        check(query, len(rows))
        check(-query, len(rows))
    scans = np.concatenate(scans)
    assert np.any(scans == 0.0)
    on_shell = np.abs(scans / radius - 1.0) < 1e-11
    assert np.any(on_shell & (scans < radius))
    assert np.any(on_shell & (scans > radius))


def test_near_index_rejects_non_finite_rows():
    index = NearIndex(3, 1e-6)
    with pytest.raises(GeometryError):
        index.add(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(GeometryError):
        index.distances(np.array([np.inf, 0.0, 0.0]))

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
    """The elementwise sign band that QuadraticSpace.pairing replaced.

    The product is formed in blocks of PAIRING_BLOCK rows, as the pairing
    forms it: BLAS rounds an entry by where it falls in the tiling.
    """
    row_gram = rows @ space.gram
    pair = np.vstack([row_gram[lo:lo + forms.PAIRING_BLOCK] @ others.T
                      for lo in range(0, len(rows), forms.PAIRING_BLOCK)])
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


def _within(radius, strict):
    if strict:
        return lambda stored, query: np.linalg.norm(stored - query,
                                                    axis=1) < radius
    return lambda stored, query: np.linalg.norm(stored - query,
                                                axis=1) <= radius


def _first_wins(rows, close, mirror=False):
    """Keep mask of a loop that scans every kept row, first kept winning."""
    kept = []
    keep = []
    for row in rows:
        stored = np.array(kept).reshape(-1, len(row))
        query = np.repeat(row[None], len(stored), axis=0)
        hit = close(stored, query).any() or (
            mirror and close(stored, -query).any())
        keep.append(not hit)
        if not hit:
            kept.append(row)
    return np.array(keep, dtype=bool)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_index_matches_brute_force_scan(monkeypatch, seed):
    """Same decisions under < and <= as a scan, for +v and -v queries.

    Grid rows one radius apart along an axis are exactly on the radius,
    so < and <= decide them differently; two calls check the rows kept by
    the first against the second.
    """
    monkeypatch.setattr(forms, "NEAR_INDEX_SEED", seed)
    rng = np.random.default_rng(10 + seed)
    radius = 1.0 / 16.0
    base = rng.integers(-1024, 1024, size=(150, 5)) / 1024.0
    axis_steps = np.eye(5)[rng.integers(0, 5, 40)] * rng.choice(
        [-radius, radius], (40, 1))
    rows = np.concatenate((base, base[:20], base[:40] + axis_steps,
                           _shell_rows(rng, base[:60], radius),
                           -base[60:80]))
    rows = rows[rng.permutation(len(rows))]
    queries = np.concatenate((rows[:50], -rows[50:80],
                              _shell_rows(rng, rows, radius),
                              rng.uniform(-1.0, 1.0, size=(50, 5))))
    gaps = np.linalg.norm(rows[:, None] - rows, axis=2)
    assert np.any(gaps == radius)
    on_shell = np.abs(gaps / radius - 1.0) < 1e-11
    assert np.any(on_shell & (gaps < radius))
    assert np.any(on_shell & (gaps > radius))
    wants = {(strict, mirror): _first_wins(np.concatenate((rows, queries)),
                                           _within(radius, strict), mirror)
             for strict in (True, False) for mirror in (False, True)}
    # The radius and the sign both decide some rows.
    assert np.any(wants[True, False] != wants[False, False])
    assert np.any(wants[True, False] != wants[True, True])
    for block in (7, 128):
        monkeypatch.setattr(forms, "NEAR_BLOCK", block)
        for (strict, mirror), want in wants.items():
            close = _within(radius, strict)
            index = NearIndex(5, radius)
            keep = np.concatenate((index.keep_first(rows, close, mirror),
                                   index.keep_first(queries, close, mirror)))
            assert np.array_equal(keep, want)
            assert index.count == np.count_nonzero(want)


def test_near_index_rejects_non_finite_rows():
    index = NearIndex(3, 1e-6)
    close = _within(1e-6, False)
    for bad in ([1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(GeometryError, match="finite rows"):
            index.keep_first(np.array([[0.0, 0.0, 1.0], bad]), close)
    assert index.count == 0


@pytest.mark.parametrize("first", [-2, -1])
def test_keep_first_chain_across_block_boundary(first):
    """a ~ b and b ~ c but not a ~ c: a and c are kept, wherever the block
    boundary falls between them."""
    radius = 1e-6
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1.0, 1.0, size=(forms.NEAR_BLOCK + 4, 4))
    at = forms.NEAR_BLOCK + first
    step = np.array([0.6 * radius, 0.0, 0.0, 0.0])
    rows[at + 1] = rows[at] + step
    rows[at + 2] = rows[at] + 2.0 * step
    close = _within(radius, True)
    keep = NearIndex(4, radius).keep_first(rows, close)
    assert keep[at] and not keep[at + 1] and keep[at + 2]
    assert np.array_equal(keep, _first_wins(rows, close))


def test_keep_first_cluster_of_near_identical_rows():
    """300 rows within rounding of one another keep only the first, and
    rows near them are decided as by a scan."""
    radius = 1e-8
    rng = np.random.default_rng(4)
    centre = rng.uniform(-1.0, 1.0, size=16)
    cluster = centre + rng.uniform(-1e-12, 1e-12, size=(300, 16))
    rows = np.concatenate((cluster, centre + _shell_rows(
        rng, np.zeros((40, 16)), radius), rng.uniform(-1.0, 1.0, (20, 16))))
    rows = rows[rng.permutation(len(rows))]
    close = _within(radius, True)
    keep = NearIndex(16, radius).keep_first(rows, close)
    assert np.array_equal(keep, _first_wins(rows, close))
    assert np.count_nonzero(keep[np.isin(rows[:, 0], cluster[:, 0])]) == 1


def test_keep_first_mirror_duplicate():
    """-v is a duplicate of v only with mirror, in the same call or later."""
    radius = 1e-6
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(10, 4))
    rows = np.concatenate((rows, -rows[3:4] + 1e-9, rows[7:8]))
    close = _within(radius, False)
    plain = NearIndex(4, radius).keep_first(rows, close)
    assert plain[:11].all() and not plain[11]
    mirrored = NearIndex(4, radius)
    keep = mirrored.keep_first(rows, close, mirror=True)
    assert keep[:10].all() and not keep[10:].any()
    assert np.array_equal(keep, _first_wins(rows, close, mirror=True))
    assert not mirrored.keep_first(-rows[:2], close, mirror=True).any()

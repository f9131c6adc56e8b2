"""Tests for the projective model, conformal splitting, and Hilbert metric."""

import math

import numpy as np
import pytest

from pqgeo.forms import (PAIRING_BLOCK, GeometryError, QuadraticSpace,
                         standard_space)
from pqgeo.model import (BoundaryPoint, HPoint, HalfspaceDomain,
                         SignConsistencyError, TimelikeFrame, _sign_walk,
                         _spread_signs, conformal_split, conformal_unsplit,
                         hilbert_distance, lift_nonpositive, pair_class,
                         pair_class_conformal)


@pytest.fixture
def frame21():
    return TimelikeFrame.standard(2, 1)


def test_hpoint_normalization():
    space = standard_space(2, 2)
    pt = HPoint(space, [0.0, 0.0, 2.0, 0.0], normalize=True)
    assert space.eval(pt.vec) == pytest.approx(-1.0)
    with pytest.raises(GeometryError):
        HPoint(space, [1.0, 0.0, 0.0, 0.0], normalize=True)
    with pytest.raises(GeometryError):
        HPoint(space, [0.0, 0.0, 2.0, 0.0])
    with pytest.raises(GeometryError):
        HPoint(space, [np.nan, 0.0, 1.0, 0.0], normalize=True)


def test_hpoint_band_grows_with_the_lift():
    """The quadric band grows with the rounding of b(v, v), about u |v|^2,
    and still refuses off-quadric lifts, long ones too."""
    space = standard_space(2, 2)
    a = 1e4
    on = np.array([a, 0.1 * a, math.sqrt(1.01 * a * a + 1.0), 0.0])
    # Rounding alone puts this lift 1.5e-8 off the quadric.
    assert abs(space.eval(on) + 1.0) > 1e-8
    HPoint(space, on)
    # 2v has b = -4; a band of 1e-8 |v|^2 would take it.
    long_off = 2.0 * on
    on = on / a * 100.0
    on[2] = math.sqrt(on[0] ** 2 + on[1] ** 2 + 1.0)
    for off in (np.array([100.0, 0.0, 100.0, 0.0]), 2.0 * on, long_off,
                np.array([0.0, 0.0, 1.0 + 1e-6, 0.0])):
        with pytest.raises(GeometryError, match="quadric"):
            HPoint(space, off)


def test_boundary_point_lift_and_flip():
    space = standard_space(1, 1)
    pt = BoundaryPoint(space, [2.0, 2.0])
    assert np.allclose(pt.vec, [math.sqrt(0.5), math.sqrt(0.5)])
    flipped = pt.flip()
    assert np.allclose(flipped.lift, -pt.lift)
    with pytest.raises(GeometryError):
        BoundaryPoint(space, [1.0, 0.0])
    with pytest.raises(GeometryError):
        BoundaryPoint(space, [0.0, 0.0])


def test_conformal_roundtrip_interior(frame21):
    space = frame21.space
    rng = np.random.default_rng(0)
    for _ in range(25):
        vec = rng.normal(size=4)
        vec[2:] *= 3.0
        if space.eval(vec) >= 0:
            continue
        pt = HPoint(space, vec, normalize=True)
        coords = conformal_split(frame21, pt)
        assert coords.u[0] > 0.0
        assert np.linalg.norm(coords.u) == pytest.approx(1.0)
        assert np.linalg.norm(coords.uprime) == pytest.approx(1.0)
        back = conformal_unsplit(frame21, coords)
        assert isinstance(back, HPoint)
        assert np.allclose(back.vec, pt.vec, atol=1e-12)


def test_conformal_boundary_lands_on_equator(frame21):
    pt = BoundaryPoint(frame21.space, [1.0, 0.0, 1.0, 0.0])
    coords = conformal_split(frame21, pt)
    assert coords.u[0] == 0.0
    back = conformal_unsplit(frame21, coords)
    assert isinstance(back, BoundaryPoint)
    assert np.allclose(np.abs(back.vec), np.abs(pt.vec))


def test_conformal_split_rejects_positive(frame21):
    with pytest.raises(GeometryError):
        conformal_split(frame21, np.array([1.0, 0.0, 0.0, 0.0]))


def test_pair_class_trichotomy():
    space = standard_space(2, 2)
    x = HPoint(space, [0.0, 0.0, 1.0, 0.0])
    spacelike = HPoint(space, [np.sinh(1.0), 0.0, np.cosh(1.0), 0.0])
    assert pair_class(x, spacelike) == "spacelike"
    timelike = HPoint(space, [0.0, 0.0, np.cos(0.5), np.sin(0.5)])
    assert pair_class(x, timelike) == "timelike"
    assert pair_class(x, x) == "coincident"
    assert pair_class(x, HPoint(space, [0.0, 0.0, -1.0, 0.0])) == "coincident"


def test_pair_class_lightlike_band():
    space = standard_space(1, 2)
    x = HPoint(space, [0.0, 1.0, 0.0])
    y = HPoint(space, [np.sinh(1e-14), np.cosh(1e-14), 0.0])
    # hyperbolic cosine of a tiny rapidity is 1 to machine precision
    assert pair_class(x, y) in ("lightlike", "coincident")


def test_pair_class_conformal_agrees(frame21):
    space = frame21.space
    rng = np.random.default_rng(42)
    for _ in range(300):
        raw = rng.normal(size=(2, 4))
        raw[:, 2:] *= 2.5
        if np.any(space.eval(raw) >= 0):
            continue
        x, y = raw
        if space.eval(x, y) > 0:
            y = -y
        px = HPoint(space, x, normalize=True)
        py = HPoint(space, y, normalize=True)
        assert pair_class(px, py) == pair_class_conformal(frame21, px, py)


def test_pair_class_conformal_rejects_positive_pairing(frame21):
    space = frame21.space
    x = HPoint(space, [0.0, 0.0, 1.0, 0.0])
    y = HPoint(space, [np.sinh(1.0), 0.0, -np.cosh(1.0), 0.0])
    with pytest.raises(GeometryError):
        pair_class_conformal(frame21, x, y)


def test_lift_nonpositive_fixes_signs():
    space = standard_space(2, 2)
    base = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
    ]) / math.sqrt(2.0)
    flipped = base.copy()
    flipped[1] = -flipped[1]
    lifts, signs, _ = lift_nonpositive(space, flipped)
    pair = lifts @ space.gram @ lifts.T
    off = pair[~np.eye(3, dtype=bool)]
    assert np.max(off) <= 1e-12
    assert signs[1] == -1 or np.allclose(lifts[1], base[1])


def test_lift_nonpositive_inconsistent_witness():
    """An all-positive pairing triangle admits no coherent sign choice.

    Flipping any lift changes the sign of two of the three pairings, so
    the product of the off-diagonal pairings is a sign invariant; when it
    is positive with all three pairings positive, no assignment works.
    """
    space = standard_space(2, 2)
    pts = []
    for k in range(3):
        s = np.array([math.cos(0.1 * k), math.sin(0.1 * k)])
        m = np.array([math.cos(2 * math.pi * k / 3),
                      math.sin(2 * math.pi * k / 3)])
        pts.append(np.concatenate((s, m)) / math.sqrt(2))
    pair = np.array(pts) @ space.gram @ np.array(pts).T
    assert np.all(pair[~np.eye(3, dtype=bool)] > 0.1)
    with pytest.raises(SignConsistencyError) as err:
        lift_nonpositive(space, np.array(pts))
    assert err.value.witness == [2, 0, 1]
    assert all(type(v) is int for v in err.value.witness)


def _walk_reference(space, rows):
    """Signs by the sign walk, and the margin read off the full pairing."""
    try:
        signs = _sign_walk(space, rows)
    except SignConsistencyError as err:
        return "clash", err.witness
    pair, _ = space.pairing(rows)
    pair = np.abs(pair)
    pair[np.tri(len(rows), dtype=bool)] = math.inf
    witness = divmod(int(np.argmin(pair)), len(rows))
    return signs, (float(pair[witness]), witness)


def _blocked(space, rows):
    try:
        _, signs, found = lift_nonpositive(space, rows)
    except SignConsistencyError as err:
        return "clash", err.witness
    return signs, found


def _random_null_rows(rng, p, q, n):
    """Null rows of R^{p,q+1}: negative sets share their timelike part.

    A tenth of the rows copy another row to within 1e-9, and every row
    has a random sign. Otherwise the timelike parts are random, and such
    sets clash.
    """
    negative = p >= 2 and rng.random() < 0.5
    space_part = rng.normal(size=(n, p))
    time_part = rng.normal(size=(1 if negative else n, q + 1))
    rows = np.hstack([
        space_part / np.linalg.norm(space_part, axis=1)[:, None],
        np.broadcast_to(time_part / np.linalg.norm(time_part, axis=1)[:, None],
                        (n, q + 1))])
    near = np.flatnonzero(rng.random(n) < 0.1)
    rows[near] = (rows[rng.integers(0, n, near.size)]
                  + 1e-9 * rng.normal(size=(near.size, p + q + 1)))
    return rows * rng.choice([-1.0, 1.0], size=n)[:, None]


def test_lift_nonpositive_matches_the_sign_walk():
    """Blocked check and sign walk agree bit for bit on 300 seeded sets."""
    outcomes = {"consistent": 0, "clash": 0, "multi-block": 0}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        tol = (None, 0.0, 1e-6)[int(rng.integers(3))]
        n = int(rng.integers(2, 701))
        space = standard_space(p, q + 1, tol=tol)
        rows = _random_null_rows(rng, p, q, n)
        want, got = _walk_reference(space, rows), _blocked(space, rows)
        if isinstance(want[0], str):
            assert got == want, seed
            outcomes["clash"] += 1
            continue
        assert np.array_equal(got[0], want[0]), seed
        (margin, witness), (want_margin, want_witness) = got[1], want[1]
        assert witness == want_witness, seed
        assert margin.hex() == want_margin.hex(), seed
        outcomes["consistent"] += 1
        outcomes["multi-block"] += n > PAIRING_BLOCK
    assert min(outcomes.values()) >= 20, outcomes


def test_lift_nonpositive_follows_a_pair_out_of_band_in_one_order():
    """A pair out of band in one order only still links its rows.

    Under a non-diagonal rounding of b(x, y) against b(y, x), a band
    between the two magnitudes makes such a pair. Signs spread from the
    root over the other order can then disagree with the walk, which
    reads both orders; the check finds it and the walk's signs are kept.
    """
    gram = np.diag([3.0, 1.0, -1.0, -3.0])
    rng = np.random.default_rng(1)
    for _ in range(2000):
        u = rng.normal(size=(3, 2))
        v = rng.normal(size=(3, 2))
        rows = np.hstack([u / np.linalg.norm(u, axis=1)[:, None],
                          v / np.linalg.norm(v, axis=1)[:, None]])
        rows /= np.sqrt([3.0, 1.0, 1.0, 3.0])
        pair, _ = QuadraticSpace(gram).pairing(rows)
        low, high = sorted((abs(pair[1, 2]), abs(pair[2, 1])))
        if low == high or low < 1e-3:
            continue
        norms = np.linalg.norm(rows, axis=1)
        # The band of the pair lies at its smaller magnitude.
        space = QuadraticSpace(gram, tol=low / (norms[1] * norms[2]) / 3.0)
        pair, nonzero = space.pairing(rows)
        band = space.tol * 3.0 * np.outer(norms, norms)
        one_order = (np.abs(pair) > band) != (np.abs(pair.T) > band)
        try:
            signs = _sign_walk(space, rows)
        except SignConsistencyError:
            continue
        if one_order[1, 2] and not np.array_equal(
                _spread_signs(space, rows), signs):
            break
    else:
        pytest.fail("no pair out of band in one order only was found")
    want, got = _walk_reference(space, rows), _blocked(space, rows)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


def test_halfspace_membership():
    space = standard_space(2, 2)
    domain = HalfspaceDomain(space, np.eye(4)[:2])
    inside = np.array([-0.5, -0.5, 1.0, 0.0])
    status, _ = domain.membership(inside)
    assert status == "interior"
    status, worst = domain.membership(np.array([1.0, -0.5, 1.0, 0.0]))
    assert status == "outside"
    assert worst == 0
    status, _ = domain.membership(np.array([0.0, -0.5, 1.0, 0.0]))
    assert status == "boundary"
    lam = np.array([[1.0, 0.0, 1.0, 0.0], [-1.0, 0.0, 1.0, 0.0]])
    domain = HalfspaceDomain(space, lam)
    status, _ = domain.membership(np.array([0.0, 0.0, 1.0, 0.0]))
    assert status == "interior"
    status, _ = domain.membership(np.array([2.0, 0.0, 1.0, 0.0]))
    assert status == "outside"


def test_hilbert_distance_unit_square():
    """Affine unit square: the classical interval cross-ratio value."""
    space = QuadraticSpace(np.eye(3))
    domain = HalfspaceDomain(space, [[-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0],
                                     [-1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]])
    d = hilbert_distance(domain, np.array([1.0, 0.0, 0.0]),
                         np.array([1.0, 0.25, 0.0]))
    assert d == pytest.approx(0.5 * math.log(5.0 / 3.0), abs=1e-12)


def test_hilbert_distance_symmetry_and_triangle():
    space = QuadraticSpace(np.eye(3))
    domain = HalfspaceDomain(space, [[-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0],
                                     [-1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]])
    y = np.array([1.0, 0.2, -0.1])
    z = np.array([1.0, -0.4, 0.55])
    w = np.array([1.0, 0.3, 0.3])
    dyz = hilbert_distance(domain, y, z)
    assert dyz == pytest.approx(hilbert_distance(domain, z, y), abs=1e-12)
    assert dyz <= hilbert_distance(domain, y, w) + \
        hilbert_distance(domain, w, z) + 1e-12
    assert hilbert_distance(domain, y, y) == 0.0


def test_hilbert_distance_requires_interior():
    space = QuadraticSpace(np.eye(3))
    domain = HalfspaceDomain(space, [[-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    with pytest.raises(GeometryError):
        hilbert_distance(domain, np.array([1.0, 1.5, 0.0]),
                         np.array([1.0, 0.0, 0.0]))


def test_frame_validation():
    space = standard_space(2, 2)
    with pytest.raises(GeometryError):
        TimelikeFrame(space, np.eye(4) * 2.0, 2)
    frame = TimelikeFrame(space, np.eye(4), 2)
    assert frame.q == 1
    vec = np.array([0.3, -0.2, 1.4, 0.5])
    assert np.allclose(frame.from_coords(frame.coords(vec)), vec)

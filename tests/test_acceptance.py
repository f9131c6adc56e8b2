"""Acceptance suite: one test per shipped quantitative guarantee.

Every test pins an end-to-end behavior of the package at an explicit
tolerance. Frozen constants (eigenvalue counts, sample splits, crown
totals) come from independent scouting runs recorded at development
time: brute-force subset oracles, closed forms, and dual-route
evaluations. A failure here means observable numeric drift, not a
style regression.
"""

import itertools
import math
import time

import numpy as np

from pqgeo.anosov import gap_series, negativity_test, sample_limit_set
from pqgeo.crowns import (AdaptedBasis, crown_orbit_graph, detect_crowns,
                          maximality_test, orbit_hilbert_distance,
                          orbit_point, quadrilateral_demo)
from pqgeo.forms import boost, rotation, standard_space
from pqgeo.graphs import (constant_graph, lipschitz_check, maximal_graph,
                          timelike_distance)
from pqgeo.groups import (ReflectionRep, bend_amalgam, bend_hnn, canonical_X,
                          cartan_matrix, det_roots, gt_polygon,
                          lie_closure_dim, orthogonal_lie_basis,
                          pentagon_with_arms, signature_scan, toy_bend_datum,
                          word_ball)
from pqgeo.model import (HPoint, TimelikeFrame, hilbert_distance, pair_class,
                         pair_class_conformal)


DIAGRAMS = [pentagon_with_arms(10, 11),
            pentagon_with_arms(8, 9, corner_order=4)]


def test_criterion_01_coxeter_determinant_roots_and_signature_scan():
    """Two positive det roots per diagram; censuses flip across them."""
    for diagram in DIAGRAMS:
        start = time.perf_counter()
        result = det_roots(diagram)
        t1, t2 = result.roots
        assert result.both_positive
        assert t1 < t2
        for root in (t1, t2):
            A = cartan_matrix(diagram, root)
            bound = 1e-9 * np.linalg.norm(A) ** 7
            assert abs(np.linalg.det(A)) <= bound
        grid = np.linspace(0.0, 5.0, 500)
        rows = signature_scan(diagram, grid)
        for row in rows:
            if min(abs(row.t - t1), abs(row.t - t2)) <= 1e-6:
                continue
            sig = row.signature.as_tuple()
            if t1 < row.t < t2:
                assert sig == (4, 3, 0), "t=%g gave %r" % (row.t, sig)
            else:
                assert sig == (5, 2, 0), "t=%g gave %r" % (row.t, sig)
        for root in (t1, t2):
            at_root = ReflectionRep(diagram, root).signature.as_tuple()
            assert at_root == (4, 2, 1)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_coxeter_relation_and_form_residuals():
    """Braid and involution relations hold along the deformation."""
    for diagram in DIAGRAMS:
        for t in np.linspace(0.0, 4.0, 10):
            rep = ReflectionRep(diagram, float(t))
            assert rep.relation_residual() <= 1e-8
            assert rep.form_residual() <= 1e-9


def test_criterion_03_polygon_identities_full_scan():
    """Unit norms and edge pairings across the whole (k, n) range."""
    worst_unit = 0.0
    worst_edge = 0.0
    for k in range(3, 13):
        for n in range(2, k):
            poly = gt_polygon(k, n)
            target = math.cos(math.pi / n)
            count = 2 * poly.k
            for idx in range(count):
                v = poly.vertices[idx]
                w = poly.vertices[(idx + 1) % count]
                worst_unit = max(worst_unit,
                                 abs(poly.space.eval(v) - 1.0))
                worst_edge = max(worst_edge,
                                 abs(poly.space.eval(v, w) - target))
    assert worst_unit <= 1e-12
    assert worst_edge <= 1e-12
    square = gt_polygon(3, 2)
    assert abs(square.alpha - 2.0) <= 1e-14
    assert abs(square.space.eval(square.vertices[0],
                                 square.vertices[1])) <= 1e-14


def test_criterion_04_orbit_distance_matches_cross_ratio():
    """Flow formula against the chord evaluation on 200 random cases."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(2, 4))
        basis = AdaptedBasis.standard(j)
        coeffs = rng.uniform(0.2, 3.0, size=2 * j)
        a = rng.uniform(-2.0, 2.0, size=j)
        fast = orbit_hilbert_distance(basis, coeffs, a)
        x = orbit_point(basis, coeffs).vector
        z = orbit_point(basis, coeffs, a=a).vector
        slow = hilbert_distance(basis.domain(), x, z)
        worst = max(worst, abs(fast - slow))
    assert worst <= 1e-10


def test_criterion_05_quadrilateral_escapes_uniform_neighborhoods():
    """Far sides of the size-R flow quadrilateral stay R away.

    The demo measures each side sample by the flow formula, max |a_i|.
    At R = 2 and 3 all 192 side samples are also measured by the
    cross-ratio, ``model.hilbert_distance``: it must be at least R and
    agree with the flow formula within 4 u e^(2 d) at flow distance d,
    the digits the chord loses to the e^d coefficient spread. The worst
    gaps are 7.7e-12 and 6.5e-10 (up to 1.5e-9 under the Sandybridge
    OpenBLAS kernel), at most 0.71 u e^(2 d). At R = 5 the side points
    fail the domain's membership test ("not interior") in floating point,
    so R = 5 and 10 stay on the flow formula only.
    """
    basis = AdaptedBasis.standard(2)
    coeffs = np.ones(4)
    domain = basis.domain()
    base = orbit_point(basis, coeffs).vector
    for R in (2.0, 3.0, 5.0, 10.0):
        report = quadrilateral_demo(basis, coeffs, R)
        assert report.min_distance >= R - 1e-6
        if R > 3.0:
            continue
        assert report.flows.shape == (192, 2)
        for a in report.flows:
            slow = hilbert_distance(domain, base,
                                    orbit_point(basis, coeffs, a).vector)
            fast = orbit_hilbert_distance(basis, coeffs, a)
            assert slow >= R
            assert abs(slow - fast) <= 4.0 * 2.0 ** -53 * math.exp(2.0 * fast)


def test_criterion_06_lie_closure_dimensions():
    """Bracket closure of the two seed families fills the larger algebra."""

    def embed(M, axes, d):
        out = np.zeros((d, d))
        for a, i in enumerate(axes):
            for b, j in enumerate(axes):
                out[i, j] = M[a, b]
        return out

    for p, q in ((2, 1), (2, 2), (3, 1), (3, 2)):
        d = p + q + 1
        start = time.perf_counter()
        seeds = [embed(M, list(range(p + q)), d)
                 for M in orthogonal_lie_basis(p, q)]
        X = canonical_X(p, q, q)
        small_axes = list(range(p)) + [p + q]
        for M in orthogonal_lie_basis(p, 1):
            Me = embed(M, small_axes, d)
            seeds.append(X @ Me - Me @ X)
        dim = lie_closure_dim(seeds)
        elapsed = time.perf_counter() - start
        assert dim == d * (d - 1) // 2
        assert elapsed < 1.0


def test_criterion_07_bending_soundness():
    """Bent generators keep the form and the gluing relations."""
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    h = datum.edge_groups[0][0]
    for s in (0.0, 0.1, 1.0):
        bent = bend_amalgam(datum, 1, X, s)
        letter = bend_hnn(datum, 0, X, s)
        for gens in bent:
            for g in gens:
                assert datum.space.isometry_residual(g) <= 1e-9
        assert datum.space.isometry_residual(letter) <= 1e-9
        assert np.max(np.abs(bent[0][1] - bent[1][1])) <= 1e-8
        moved = letter @ h @ np.linalg.inv(letter)
        assert np.max(np.abs(moved - h)) <= 1e-8
        if s == 0.0:
            for gens, base in zip(bent, datum.factors):
                for g, ref in zip(gens, base):
                    assert np.array_equal(g, ref)
            assert np.array_equal(letter, datum.stable_letters[0].matrix)


def test_criterion_08_conformal_and_algebraic_classifiers_agree():
    """10000 random same-sheet pairs, zero disagreements off the band."""
    frame = TimelikeFrame.standard(2, 1)
    space = frame.space
    rng = np.random.default_rng(5)
    disagree = 0
    in_band = 0
    counts = {"spacelike": 0, "timelike": 0, "lightlike": 0}
    for _ in range(10000):
        raw = rng.normal(size=(2, space.dim))
        pts = []
        for row in raw:
            while space.eval(row) >= 0:
                row[space.dim - 2:] *= 1.5
            pts.append(row)
        x, y = pts
        if space.eval(x, y) > 0:
            y = -y
        px = HPoint(space, x, normalize=True)
        py = HPoint(space, y, normalize=True)
        c1 = pair_class(px, py)
        c2 = pair_class_conformal(frame, px, py)
        value = abs(space.eval(px.vec, py.vec))
        if abs(value - 1.0) <= 1e-9:
            in_band += 1
            continue
        if c1 != c2:
            disagree += 1
        counts[c1] += 1
    assert disagree == 0
    assert in_band == 0
    assert counts["spacelike"] == 6812
    assert counts["timelike"] == 3188


def test_criterion_09_crown_detection_matches_bruteforce_oracle():
    """Subset-enumeration oracle agrees on 50 seeded sample sets."""
    space = standard_space(2, 2)
    crown_lifts = AdaptedBasis.standard(2).vectors

    def random_isometry(rng):
        g = np.eye(4)
        for _ in range(5):
            kind = rng.integers(3)
            if kind == 0:
                g = g @ rotation(4, 0, 1, rng.uniform(0, 6.28))
            elif kind == 1:
                g = g @ rotation(4, 2, 3, rng.uniform(0, 6.28))
            else:
                g = g @ boost(4, int(rng.integers(2)),
                               int(2 + rng.integers(2)),
                               rng.uniform(-1, 1))
        return g

    def oracle(points, j):
        points = np.asarray(points, float)
        pair = points @ space.gram @ points.T
        norms = np.linalg.norm(points, axis=1)
        thresh_scale = space.tol * max(space.spectral_radius, 1.0)
        found = []
        for subset in itertools.combinations(range(len(points)), 2 * j):
            idx = list(subset)
            sub = pair[np.ix_(idx, idx)]
            adj = np.abs(sub) > thresh_scale * np.outer(norms[idx],
                                                        norms[idx])
            np.fill_diagonal(adj, False)
            if not np.all(adj.sum(axis=1) == 1):
                continue
            ev = np.linalg.eigvalsh((sub + sub.T) / 2)
            t = space.tol * max(np.abs(ev))
            pos = int(np.sum(ev > t))
            neg = int(np.sum(ev < -t))
            if pos == j and neg == j:
                found.append(subset)
        return sorted(found)

    rng = np.random.default_rng(23)
    total = 0
    for trial in range(50):
        n_extra = int(rng.integers(2, 9))
        n_planted = int(rng.integers(0, 3))
        rows = []
        for _ in range(n_planted):
            g = random_isometry(rng)
            rows.extend(list(crown_lifts @ g.T))
        for _ in range(n_extra):
            s = rng.normal(size=2)
            s /= np.linalg.norm(s)
            m = rng.normal(size=2)
            m /= np.linalg.norm(m)
            rows.append(np.concatenate((s, m)) / np.sqrt(2))
        rows = np.array(rows)[:12]
        rows = rows[rng.permutation(len(rows))]
        crowns = detect_crowns(space, rows, 2)
        got = sorted(tuple(sorted(c.indices)) for c in crowns)
        want = oracle(rows, 2)
        assert got == want, "trial %d: %r != %r" % (trial, got, want)
        for c in crowns:
            for i in range(c.j):
                assert abs(c.pairing[i, c.j + i]) > 1e-12
        total += len(want)
    assert total == 62


def test_criterion_10_strict_graphs_and_balanced_orbit_maximality():
    """Strictness of the model graphs; maximality exactly at equal weights."""
    report = lipschitz_check(maximal_graph(2, 1), pairs=2000, rng=0)
    assert report.strict
    assert report.violations == 0
    taus = ([math.sqrt(0.5), math.sqrt(0.5)],
            [0.6, 0.8],
            [0.5, 0.5, math.sqrt(0.5)],
            [1.0 / math.sqrt(3.0)] * 3)
    for tau in taus:
        r = lipschitz_check(crown_orbit_graph(np.array(tau)), pairs=2000,
                            rng=1)
        assert r.strict, "tau %r not strict" % (tau,)
        assert r.violations == 0
    rng = np.random.default_rng(11)
    for trial in range(500):
        j = int(rng.integers(2, 4))
        basis = AdaptedBasis.standard(j)
        equal = trial % 2 == 0
        if equal:
            w = rng.uniform(0.3, 2.0)
            c_front = rng.uniform(0.3, 2.0, size=j)
            coeffs = np.concatenate((c_front, w / c_front))
        else:
            while True:
                coeffs = rng.uniform(0.2, 3.0, size=2 * j)
                prods = coeffs[:j] * coeffs[j:]
                if np.max(np.abs(prods - prods[0])) > 1e-3 * np.max(prods):
                    break
        a = rng.uniform(-1.5, 1.5, size=j)
        pt = orbit_point(basis, coeffs, a=a)
        assert maximality_test(pt) == equal


def test_criterion_11_timelike_distance_closed_form():
    """Totally geodesic copy sits at timelike distance pi/2."""
    for p, q in ((2, 1), (3, 2)):
        graph = constant_graph(p, q)
        rng = np.random.default_rng(3)
        lifts = []
        for _ in range(32):
            s = rng.normal(size=p)
            s /= np.linalg.norm(s)
            e = np.zeros(q + 1)
            e[-1] = 1.0
            lifts.append(np.concatenate((s, e)))
        d = timelike_distance(graph, np.array(lifts), bases=64,
                              directions=64, rng=0)
        assert abs(d - math.pi / 2.0) <= 1e-6


def test_criterion_12_spectral_diagnostics_sanity():
    """Gap growth, isotropy, and negativity for two generated groups."""
    space = standard_space(2, 2)
    g1 = boost(4, 0, 2, 1.5)
    T = boost(4, 1, 2, 2.5)
    g2 = T @ g1 @ np.linalg.inv(T)
    ball6 = word_ball([g1, g2], 6)
    series = gap_series(ball6, 2)
    for i in range(1, len(series.mins)):
        assert series.mins[i] >= series.mins[i - 1]
    for length, m in zip(series.lengths, series.mins):
        assert abs(m - 1.5 * length) <= 1e-6
    pts6 = sample_limit_set(space, ball6, 1.0)
    assert len(pts6) == 1202
    worst = max(abs(space.eval(p.lift)) for p in pts6)
    assert worst <= 1e-8
    ball3 = word_ball([g1, g2], 3)
    pts3 = sample_limit_set(space, ball3, 1.0)
    assert len(pts3) == 44
    report = negativity_test(space, pts3)
    assert report.status == "negative"
    assert 1e-8 < report.margin < 1e-7

    split_space = standard_space(2, 3)
    a = boost(5, 0, 2, 2.0) @ rotation(5, 3, 4, 1.0)
    b = boost(5, 1, 3, 0.3)
    margins = {}
    for L in (3, 6):
        ball = word_ball([a, b], L)
        pts = sample_limit_set(split_space, ball, 1.0)
        margins[L] = negativity_test(split_space, pts).margin
    assert margins[3] > 0.9
    assert margins[6] < margins[3]

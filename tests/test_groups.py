"""Tests for Coxeter representations, bending, polygons, and word balls."""

import math

import numpy as np
import pytest

from pqgeo.forms import GeometryError, boost, standard_space
from pqgeo.groups import (INFINITE, BendDatum, CoxeterDiagram, HnnLetter,
                          ReflectionRep, _expm, _least_rotations, bend_amalgam, bend_hnn,
                          bend_residuals, canonical_X,
                          cartan_matrix, det_roots, gt_polygon,
                          lie_closure_dim, orthogonal_lie_basis,
                          pentagon_with_arms, polygon_deform, signature_scan,
                          toy_bend_datum, word_ball)


def test_diagram_accepts_inf_strings():
    diagram = CoxeterDiagram([[1, "inf"], ["inf", 1]])
    assert diagram.order(0, 1) == INFINITE
    assert diagram.infinite_pairs() == [(0, 1)]
    assert diagram.finite_pairs() == []


def test_diagram_validation():
    with pytest.raises(GeometryError):
        CoxeterDiagram([[1, 3]])
    with pytest.raises(GeometryError):
        CoxeterDiagram([[2, 3], [3, 2]])
    with pytest.raises(GeometryError):
        CoxeterDiagram([[1, 3], [4, 1]])
    with pytest.raises(GeometryError):
        CoxeterDiagram([[1, 1], [1, 1]])


def test_diagram_dict_roundtrip():
    diagram = pentagon_with_arms(10, 11)
    data = diagram.to_dict()
    assert data["N"] == 7
    assert data["m"][3][4] == "inf"
    again = CoxeterDiagram.from_dict(data)
    assert again.orders == diagram.orders


def test_diagram_from_dict_validation():
    with pytest.raises(GeometryError):
        CoxeterDiagram.from_dict({"N": 2})
    with pytest.raises(GeometryError):
        CoxeterDiagram.from_dict({"N": 3, "m": [[1, 2], [2, 1]]})


def test_pentagon_with_arms_layout():
    diagram = pentagon_with_arms(10, 11, corner_order=3)
    assert diagram.n == 7
    assert diagram.infinite_pairs() == [(3, 4)]
    assert diagram.order(0, 5) == 11
    assert diagram.order(2, 6) == 10
    assert diagram.order(2, 3) == 3
    assert diagram.order(4, 0) == 3
    assert diagram.order(0, 1) == 3
    assert diagram.order(1, 5) == 2


def test_reflection_rep_relations():
    diagram = pentagon_with_arms(10, 11)
    for t in (0.0, 0.7, 1.5):
        rep = ReflectionRep(diagram, t)
        assert rep.form_residual() < 1e-12
        assert rep.relation_residual() < 1e-9
        eye = np.eye(7)
        for g in rep.generators:
            assert np.max(np.abs(g @ g - eye)) < 1e-12


def test_reflection_rep_rejects_negative_t():
    with pytest.raises(GeometryError):
        ReflectionRep(pentagon_with_arms(10, 11), -0.5)


def test_reflection_word():
    rep = ReflectionRep(pentagon_with_arms(10, 11), 0.0)
    manual = rep.generators[0] @ rep.generators[1] @ rep.generators[0]
    assert np.max(np.abs(rep.word([0, 1, 0]) - manual)) < 1e-12


def test_det_roots_frozen_values():
    result = det_roots(pentagon_with_arms(10, 11))
    assert result.roots[0] == pytest.approx(1.2360679774997891, abs=1e-12)
    assert result.roots[1] == pytest.approx(1.6821037985079952, abs=1e-12)
    assert result.coefficients[0] == pytest.approx(1.156374871717408,
                                                   abs=1e-12)
    assert result.both_positive
    assert max(result.residuals) < 1e-12

    other = det_roots(pentagon_with_arms(8, 9, corner_order=4))
    assert other.roots[0] == pytest.approx(2.8284271247461574, abs=1e-12)
    assert other.roots[1] == pytest.approx(3.433224902814873, abs=1e-12)


def test_det_roots_needs_one_free_edge():
    finite = CoxeterDiagram([[1, 3], [3, 1]])
    with pytest.raises(GeometryError):
        det_roots(finite)
    doubled = CoxeterDiagram([[1, "inf", 2], ["inf", 1, "inf"],
                              [2, "inf", 1]])
    with pytest.raises(GeometryError):
        det_roots(doubled)


def test_signature_transition_at_root():
    diagram = pentagon_with_arms(10, 11)
    root = det_roots(diagram).roots[0]
    base = ReflectionRep(diagram, 0.0).signature
    assert base.as_tuple() == (5, 2, 0)
    at_root = ReflectionRep(diagram, root).signature
    assert at_root.as_tuple() == (4, 2, 1)
    assert at_root.degenerate


def test_signature_scan_rows():
    diagram = pentagon_with_arms(10, 11)
    rows = signature_scan(diagram, [0.0, 0.5])
    assert len(rows) == 2
    assert rows[0].t == 0.0
    assert rows[0].det == pytest.approx(
        np.linalg.det(cartan_matrix(diagram, 0.0)))
    with pytest.raises(GeometryError):
        signature_scan(diagram, [-0.1])


def _scan_row_by_loop(diagram, t):
    """(det, signature, residual) at one t, one matrix at a time."""
    n = diagram.n
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            m = diagram.order(i, j)
            A[i, j] = (-2.0 - t if m == INFINITE
                       else -2.0 * math.cos(math.pi / m))
    gens = []
    for i in range(n):
        g = np.eye(n)
        g[i, :] -= A[i, :]
        gens.append(g)
    eye = np.eye(n)
    worst = 0.0
    for g in gens:
        worst = max(worst, np.linalg.norm(g @ g - eye))
    for i, j in diagram.finite_pairs():
        power = np.linalg.matrix_power(gens[i] @ gens[j], diagram.order(i, j))
        worst = max(worst, np.linalg.norm(power - eye))
    ev = np.linalg.eigvalsh((A + A.T) / 2.0)
    thresh = 1e-9 * float(np.max(np.abs(ev)))
    pos = int(np.sum(ev > thresh))
    neg = int(np.sum(ev < -thresh))
    return float(np.linalg.det(A)), (pos, neg, n - pos - neg), float(worst)


@pytest.mark.parametrize("steps", [500, 131])
@pytest.mark.parametrize("diagram", [
    pentagon_with_arms(10, 11), pentagon_with_arms(8, 9, corner_order=4),
    pentagon_with_arms(7, 13)], ids=["10-11", "8-9-4", "7-13"])
def test_signature_scan_matches_loop_bit_for_bit(diagram, steps):
    """The blocked scan gives the bits of a loop over t.

    131 steps leave a partial last block. The 7-13 diagram has dense
    relation residuals, on which a row-sum Frobenius norm would round
    differently from np.linalg.norm.
    """
    grid = np.linspace(0.0, 5.0, steps)
    rows = signature_scan(diagram, grid)
    assert len(rows) == steps
    for t, row in zip(grid, rows):
        det, signature, residual = _scan_row_by_loop(diagram, t)
        assert row.t.hex() == float(t).hex()
        assert row.det.hex() == det.hex()
        assert row.relation_residual.hex() == residual.hex()
        assert row.signature.as_tuple() == signature
    for t in grid[::50]:
        rep = ReflectionRep(diagram, t)
        det, signature, residual = _scan_row_by_loop(diagram, t)
        assert rep.relation_residual().hex() == residual.hex()
        assert rep.signature.as_tuple() == signature


@pytest.mark.parametrize("bad, message", [
    (math.nan, "non-finite"), (math.inf, "non-finite"),
    (-0.5, "nonnegative")])
def test_signature_scan_rejects_bad_grid_values(bad, message):
    grid = np.linspace(0.0, 5.0, 131)
    grid[100] = bad
    with pytest.raises(GeometryError, match=message):
        signature_scan(pentagon_with_arms(10, 11), grid)


def test_canonical_X():
    X = canonical_X(2, 1, 1)
    expect = np.zeros((4, 4))
    expect[0, 3] = expect[3, 0] = 1.0
    assert np.array_equal(X, expect)
    space = standard_space(2, 2)
    assert np.max(np.abs(X.T @ space.gram + space.gram @ X)) < 1e-15
    with pytest.raises(GeometryError):
        canonical_X(2, 2, 1)
    with pytest.raises(GeometryError):
        canonical_X(2, 0, 1)


def test_orthogonal_lie_basis():
    basis = orthogonal_lie_basis(2, 2)
    assert len(basis) == 6
    J = standard_space(2, 2).gram
    for M in basis:
        assert np.max(np.abs(M.T @ J + J @ M)) < 1e-15


def test_lie_closure_dim():
    assert lie_closure_dim([]) == 0
    assert lie_closure_dim(orthogonal_lie_basis(2, 1)) == 3
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert lie_closure_dim([rot]) == 1
    r01 = np.zeros((3, 3))
    r01[0, 1], r01[1, 0] = -1.0, 1.0
    r12 = np.zeros((3, 3))
    r12[1, 2], r12[2, 1] = -1.0, 1.0
    assert lie_closure_dim([r01, r12]) == 3
    with pytest.raises(GeometryError):
        lie_closure_dim([rot, r01])


def test_bend_datum_validates_isometries():
    space = standard_space(2, 2)
    with pytest.raises(GeometryError):
        BendDatum(space, factors=[[2.0 * np.eye(4)]], edge_groups=[],
                  factor_chains=[()])


def test_bend_amalgam_zero_is_identity():
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    bent = bend_amalgam(datum, 1, X, 0.0)
    for gens, orig in zip(bent, datum.factors):
        for g, h in zip(gens, orig):
            assert np.array_equal(g, h)


def test_bend_amalgam_base_factor_rejected():
    datum = toy_bend_datum()
    with pytest.raises(GeometryError):
        bend_amalgam(datum, 0, canonical_X(2, 1, 1), 0.2)


def test_bend_rejects_bad_directions():
    datum = toy_bend_datum()
    with pytest.raises(GeometryError):
        bend_amalgam(datum, 1, np.eye(4), 0.2)
    off_center = np.zeros((4, 4))
    off_center[0, 2] = off_center[2, 0] = 1.0
    with pytest.raises(GeometryError):
        bend_amalgam(datum, 1, off_center, 0.2)


def test_bend_preserves_form_and_edge():
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    s = 0.3
    bent = bend_amalgam(datum, 1, X, s)
    h = datum.edge_groups[0][0]
    for gens in bent:
        for g in gens:
            assert datum.space.isometry_residual(g) < 1e-12
    assert np.max(np.abs(bent[0][1] - h)) < 1e-12
    assert np.max(np.abs(bent[1][1] - h)) < 1e-12


def test_bend_hnn_commutes_with_edge():
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    letter = bend_hnn(datum, 0, X, 0.3)
    h = datum.edge_groups[0][0]
    assert datum.space.isometry_residual(letter) < 1e-12
    moved = letter @ h @ np.linalg.inv(letter)
    assert np.max(np.abs(moved - h)) < 1e-12


def test_bend_chain_composition():
    """A stored bend on an upstream edge composes into the conjugator."""
    toy = toy_bend_datum()
    a, h = toy.factors[0]
    b = toy.factors[1][0]
    c = np.eye(4)
    c[0, 0] = c[2, 2] = math.cosh(0.3)
    c[0, 2] = c[2, 0] = math.sinh(0.3)
    datum = BendDatum(
        toy.space,
        factors=[[a, h], [b, h], [c, h]],
        edge_groups=[[h], [h]],
        factor_chains=[(), (0,), (0, 1)],
        edge_positions=[[(0, 1), (1, 1)], [(1, 1), (2, 1)]],
    )
    X = canonical_X(2, 1, 1)
    staged = datum.with_edge_bend(0, X, 0.2)
    bent = bend_amalgam(staged, 2, X, 0.3)
    direct = bend_amalgam(datum, 2, X, 0.5)
    for g, ref in zip(bent[2], direct[2]):
        assert np.max(np.abs(g - ref)) < 1e-12


@pytest.mark.parametrize("s", [0.0, 0.1, 1.0])
def test_bend_residuals_toy(s):
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    bent = bend_amalgam(datum, 1, X, s)
    letters = [bend_hnn(datum, 0, X, s)]
    residuals = bend_residuals(datum, bent, letters)
    assert set(residuals) == {"form", "edge", "hnn"}
    assert residuals["form"] < 1e-12
    assert residuals["edge"] < 1e-12
    assert residuals["hnn"] < 1e-12
    if s == 0.0:
        assert residuals["edge"] == 0.0


def test_bend_residuals_see_a_perturbed_letter():
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    bent = bend_amalgam(datum, 1, X, 0.1)
    letter = bend_hnn(datum, 0, X, 0.1)
    letter[0, 1] += 1e-3
    residuals = bend_residuals(datum, bent, [letter])
    assert residuals["hnn"] > 1e-4
    assert residuals["edge"] < 1e-12


def test_bend_residuals_read_nan():
    """A NaN bent factor and a NaN letter are not hidden by the maxima."""
    datum = toy_bend_datum()
    X = canonical_X(2, 1, 1)
    bent = bend_amalgam(datum, 1, X, 0.1)
    bent[1] = [np.full((4, 4), np.nan) for _ in bent[1]]
    residuals = bend_residuals(datum, bent, [np.full((4, 4), np.nan)])
    assert all(math.isnan(value) for value in residuals.values())


def test_expm_closed_form_on_canonical_X():
    """X^3 = X, so exp(sX) = I + sinh(s) X + (cosh(s) - 1) X^2."""
    X = canonical_X(2, 1, 1)
    assert np.array_equal(X @ X @ X, X)
    for s in np.linspace(-3.0, 3.0, 601):
        expect = np.eye(4) + math.sinh(s) * X + (math.cosh(s) - 1.0) * X @ X
        error = np.max(np.abs(_expm(s * X) - expect))
        assert error <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
def test_expm_matches_scipy_on_lie_algebra(p, q):
    linalg = pytest.importorskip("scipy.linalg")
    space = standard_space(p, q)
    basis = np.array(orthogonal_lie_basis(p, q))
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = np.tensordot(rng.normal(size=len(basis)), basis, 1)
        M *= rng.uniform(0.0, 3.0)
        g, ref = _expm(M), linalg.expm(M)
        assert np.max(np.abs(g - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert space.isometry_residual(g) <= \
            1e-13 * np.linalg.norm(g) ** 2


def test_expm_refuses_non_finite():
    X = canonical_X(2, 1, 1)
    for M in (np.full((4, 4), np.nan), np.diag([np.inf, 1.0, 1.0, 1.0]),
              1e300 * X):
        with pytest.raises(GeometryError):
            _expm(M)


def test_gt_polygon_square_case():
    polygon = gt_polygon(3, 2)
    assert polygon.alpha == pytest.approx(2.0, abs=1e-12)
    assert polygon.vertices.shape == (6, 3)
    assert abs(polygon.edge_pairing) < 1e-14
    values = polygon.space.eval(polygon.vertices)
    assert np.max(np.abs(values - 1.0)) < 1e-12


def test_gt_polygon_validation():
    with pytest.raises(GeometryError):
        gt_polygon(2, 2)
    with pytest.raises(GeometryError):
        gt_polygon(3, 1)
    with pytest.raises(GeometryError):
        gt_polygon(3, 2, q=0)


def test_polygon_deform_family():
    polygon = gt_polygon(4, 3, q=2)
    v0, v1, v2 = polygon.vertices[0], polygon.vertices[1], polygon.vertices[2]
    e = np.array([0.0, 0.0, 0.0, 1.0])
    family = polygon.space.eval
    deform = polygon_deform(polygon.space, v0, v2, polygon.edge_pairing, e,
                            base=v1)
    assert np.max(np.abs(deform.at(0.0) - v1)) < 1e-9
    for s in (0.5, 1.3, 2.9):
        w = deform.at(s)
        assert family(w) == pytest.approx(1.0, abs=1e-9)
        assert family(w, v0) == pytest.approx(polygon.edge_pairing, abs=1e-9)
        assert family(w, v2) == pytest.approx(polygon.edge_pairing, abs=1e-9)


def test_polygon_deform_deficit():
    space = standard_space(2, 1)
    v0 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0])
    e = np.array([0.0, 0.0, 1.0])
    with pytest.raises(GeometryError):
        polygon_deform(space, v0, v2, 0.5, e)


def test_polygon_deform_direction_checks():
    space = standard_space(2, 2)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0, 0.0])
    good = np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(GeometryError):
        polygon_deform(space, v0, v2, 1.0, 2.0 * good)
    with pytest.raises(GeometryError):
        polygon_deform(space, v0, v2, 1.0, v0)
    deform = polygon_deform(space, v0, v2, 1.0, good)
    for s in (0.0, 0.9):
        w = deform.at(s)
        assert space.eval(w) == pytest.approx(1.0, abs=1e-9)


def test_word_ball_free_growth():
    g1 = boost(4, 0, 2, 1.5)
    T = boost(4, 1, 2, 2.5)
    g2 = T @ g1 @ np.linalg.inv(T)
    ball = word_ball([g1, g2], 3)
    assert len(ball) == 53
    assert len(ball.sphere(0)) == 1
    assert len(ball.sphere(1)) == 4
    assert len(ball.sphere(2)) == 12
    assert len(ball.sphere(3)) == 36


def _bfs_words(alphabet, inverse_letter, L, d):
    """Shortest non-backtracking words of a ball, by a scan over all kept."""
    def normalized(matrix):
        flat = matrix.ravel()
        return flat / flat[np.argmax(np.abs(flat))]

    words, kept = [()], [normalized(np.eye(d))]
    frontier = [((), np.eye(d))]
    for _ in range(L):
        grown = []
        for word, matrix in frontier:
            for letter in range(len(alphabet)):
                if word and inverse_letter[word[-1]] == letter:
                    continue
                product = matrix @ alphabet[letter]
                flat = normalized(product)
                if min(np.linalg.norm(flat - old) for old in kept) < 1e-8:
                    continue
                kept.append(flat)
                words.append(word + (letter,))
                grown.append((word + (letter,), product))
        frontier = grown
    return words


@pytest.mark.parametrize("L", [0, 3, 5])
def test_word_ball_tree_matches_bfs_oracle(L):
    """Words rebuilt from the parent pointers, and products bit for bit."""
    g1 = boost(4, 0, 2, 1.5)
    T = boost(4, 1, 2, 2.5)
    ball = word_ball([g1, T @ g1 @ np.linalg.inv(T)], L)
    words = ball.words
    assert words == _bfs_words(ball.alphabet, ball.inverse_letter, L, 4)
    assert ball.parent[0] == ball.letter[0] == -1
    assert len(ball) == len(ball.stack) == len(ball.parent) \
        == len(ball.letter)
    for i, word in enumerate(words):
        product = np.eye(4)
        for letter in word:
            product = product @ ball.alphabet[letter]
        assert np.array_equal(ball.stack[i], product)
        if i:
            assert words[ball.parent[i]] + (ball.letter[i],) == word
    pairs = list(ball)
    assert [pair.word for pair in pairs] == words
    assert all(np.array_equal(matrix, ball.stack[i])
               for i, (_, matrix) in enumerate(pairs))
    for length in range(L + 1):
        assert [words[i] for i in ball.sphere(length)] == \
            [w for w in words if len(w) == length]


def test_word_ball_dihedral_closes():
    r1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    phi = math.pi / 3.0
    r2 = np.array([[math.cos(2 * phi), math.sin(2 * phi)],
                   [math.sin(2 * phi), -math.cos(2 * phi)]])
    ball = word_ball([r1, r2], 10)
    assert len(ball) == 6


def test_word_ball_involution_letters():
    r1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    ball = word_ball([r1], 5)
    assert len(ball.alphabet) == 1
    assert ball.inverse_letter == [0]
    assert len(ball) == 2
    assert ball.word_label(()) == "1"
    assert ball.word_label((0,)) == "g0"


def test_word_ball_rejects_singular():
    with pytest.raises(GeometryError):
        word_ball([np.zeros((2, 2))], 2)


def test_word_ball_rejects_negative_radius():
    assert len(word_ball([boost(2, 0, 1, 1.0)], 0)) == 1
    with pytest.raises(GeometryError):
        word_ball([boost(2, 0, 1, 1.0)], -2)


def test_least_rotations_match_min_over_rotations():
    """The first least rotation wins, as min over the starts picks it.

    Periodic cores tie between starts; long cores over many letters
    would overflow an integer encoding of the rotations.
    """
    rng = np.random.default_rng(0)
    cores = [tuple(rng.integers(0, letters, size=length).tolist())
             for letters, length in zip(rng.integers(1, 5, size=300),
                                        rng.integers(1, 9, size=300))]
    cores += [(0, 1) * 4, (2, 0, 2, 0), (1, 1, 1), (3,)]
    cores += [tuple(rng.integers(0, 40, size=70).tolist()) * 2
              for _ in range(5)]
    starts = _least_rotations(cores)
    assert starts.tolist() == [
        min(range(len(core)), key=lambda s: core[s:] + core[:s])
        for core in cores]

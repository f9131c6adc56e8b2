"""Explicit discrete-group constructions in orthogonal groups O(p,q).

Four families of machinery live here:

* Coxeter reflection representations with a deformation parameter on the
  infinite-order edges, plus determinant-root and signature scans of the
  deformed Cartan matrix.
* Bending of amalgam factors and HNN stable letters by exponentials of
  centralizer directions, with a small O(2,2) toy datum.
* Right-angled polygon vertex configurations in R^{2,q} and their unit
  sphere of deformations off a fixed pair of neighbours.
* Word-ball enumeration with projective deduplication, feeding the
  spectral diagnostics module.
"""

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .forms import DEFAULT_TOLERANCE, GeometryError, NearIndex, \
    QuadraticSpace, Signature, boost, rotation, sign_census, standard_space

INFINITE = math.inf

LIE_RESIDUAL = 1e-10
DEDUP_FROBENIUS = 1e-8
SCAN_BLOCK = 32

# What iterating a WordBall yields for each element.
BallElement = namedtuple("BallElement", "word matrix")


def _as_order(value):
    if value in ("inf", "Infinity", INFINITE):
        return INFINITE
    number = float(value)
    if not number.is_integer() or number < 1:
        raise GeometryError("Coxeter orders must be integers >= 1 or inf")
    return int(number)


class CoxeterDiagram:
    """Symmetric order matrix of a Coxeter presentation.

    Diagonal entries are 1 (each generator is an involution); off-diagonal
    entries give the order of the pairwise product, with INFINITE for free
    pairs.
    """

    def __init__(self, orders):
        n = len(orders)
        for row in orders:
            if len(row) != n:
                raise GeometryError("order matrix must be square")
        table = [[_as_order(orders[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            if table[i][i] != 1:
                raise GeometryError("diagonal orders must equal 1")
            for j in range(n):
                if table[i][j] != table[j][i]:
                    raise GeometryError("order matrix must be symmetric")
                if i != j and table[i][j] != INFINITE and table[i][j] < 2:
                    raise GeometryError("off-diagonal orders must be >= 2")
        self.orders = table
        self.n = n

    def order(self, i, j):
        return self.orders[i][j]

    def infinite_pairs(self):
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.orders[i][j] == INFINITE]

    def finite_pairs(self):
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.orders[i][j] != INFINITE]

    @classmethod
    def from_dict(cls, data):
        if "m" not in data:
            raise GeometryError("diagram JSON needs an 'm' matrix")
        diagram = cls(data["m"])
        if "N" in data and int(data["N"]) != diagram.n:
            raise GeometryError("diagram N does not match matrix size")
        return diagram

    def to_dict(self):
        rows = [["inf" if v == INFINITE else int(v) for v in row]
                for row in self.orders]
        return {"N": self.n, "m": rows}


def pentagon_with_arms(k, ell, corner_order=3):
    """Seven-generator diagram: a pentagon with one free edge and two arms.

    The pentagon cycle is 0-1-2-3-4 with the edge (3,4) of infinite order
    and the two edges adjacent to it, (2,3) and (4,0), of order
    ``corner_order``. Arms attach node 5 to node 0 with order ``ell`` and
    node 6 to node 2 with order ``k``.
    """
    orders = [[2] * 7 for _ in range(7)]
    for i in range(7):
        orders[i][i] = 1
    edges = [(0, 1, 3), (1, 2, 3), (2, 3, corner_order), (3, 4, "inf"),
             (4, 0, corner_order), (0, 5, ell), (2, 6, k)]
    for i, j, m in edges:
        orders[i][j] = m
        orders[j][i] = m
    return CoxeterDiagram(orders)


def cartan_matrix(diagram, t):
    """Deformed Cartan matrix: -2cos(pi/m) entries, -2-t on free edges."""
    return _cartan_stack(diagram, np.array([t], dtype=float))[0]


def _cartan_stack(diagram, t):
    """Cartan matrices A_t for a vector of parameters, shape (N, n, n)."""
    n = diagram.n
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            m = diagram.order(i, j)
            if m != INFINITE:
                base[i, j] = -2.0 * math.cos(math.pi / m)
    A = np.repeat(base[None], len(t), axis=0)
    for i, j in diagram.infinite_pairs():
        A[:, i, j] = A[:, j, i] = -2.0 - t
    return A


def _reflections(A):
    """Generator stack (N, n, n, n) for a Cartan stack: g_i = I - e_i A_i."""
    N, n, _ = A.shape
    G = np.broadcast_to(np.eye(n), (N, n, n, n)).copy()
    rows = np.arange(n)
    G[:, rows, rows, :] -= A
    return G


def _frobenius(D):
    """Frobenius norms of a stack of matrices, over the last two axes."""
    flat = D.reshape(D.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def _relation_residuals(diagram, G):
    """Worst Coxeter relation residual for each generator set of a stack.

    The residual of a relation w = 1 is the Frobenius norm of w - I, over
    g_i^2 and (g_i g_j)^m for the finite orders m.
    """
    eye = np.eye(diagram.n)
    worst = np.max(_frobenius(G @ G - eye), axis=1)
    for i, j in diagram.finite_pairs():
        power = np.linalg.matrix_power(G[:, i] @ G[:, j], diagram.order(i, j))
        worst = np.maximum(worst, _frobenius(power - eye))
    return worst


class ReflectionRep:
    """Reflection representation of a Coxeter diagram at parameter t.

    The generator for node i is the rank-one update v -> v - (A_t v)_i e_i,
    a reflection preserving the bilinear form with Gram A_t.
    """

    def __init__(self, diagram, t):
        if t < 0:
            raise GeometryError("deformation parameter must be nonnegative")
        self.diagram = diagram
        self.t = float(t)
        self.cartan = cartan_matrix(diagram, t)
        self.space = QuadraticSpace(self.cartan)
        self.generators = list(_reflections(self.cartan[None])[0])

    @property
    def signature(self):
        return self.space.signature

    def form_residual(self):
        return max(self.space.isometry_residual(g) for g in self.generators)

    def relation_residual(self):
        stack = np.array(self.generators)[None]
        return float(_relation_residuals(self.diagram, stack)[0])

    def word(self, indices):
        out = np.eye(self.diagram.n)
        for i in indices:
            out = out @ self.generators[i]
        return out


class DetRoots:
    """Roots of the quadratic t -> det(A_t), with the fit coefficients."""

    def __init__(self, roots, coefficients, residuals):
        self.roots = tuple(float(r) for r in roots)
        self.coefficients = tuple(float(c) for c in coefficients)
        self.residuals = tuple(float(r) for r in residuals)
        self.both_positive = all(r > 0 for r in self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __repr__(self):
        return "DetRoots(roots={}, leading={:.6g})".format(
            self.roots, self.coefficients[0])


def det_roots(diagram):
    """Roots of det(A_t) for a diagram with exactly one free edge.

    det(A_t) is a quadratic in t in that case; it is recovered exactly by
    interpolation at t = 0, 1, 2 and solved with the numerically stable
    quadratic formula.
    """
    free = diagram.infinite_pairs()
    if len(free) != 1:
        raise GeometryError(
            "determinant-root scan needs exactly one infinite edge, got %d"
            % len(free))
    d0, d1, d2 = (np.linalg.det(cartan_matrix(diagram, t)) for t in (0, 1, 2))
    c2 = (d2 - 2.0 * d1 + d0) / 2.0
    c1 = d1 - d0 - c2
    c0 = d0
    if c2 == 0.0:
        raise GeometryError("determinant is not quadratic in t")
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        raise GeometryError("determinant has no real roots (discriminant %g)"
                            % disc)
    root = math.sqrt(disc)
    if c1 >= 0.0:
        q = -(c1 + root) / 2.0
    else:
        q = -(c1 - root) / 2.0
    if q == 0.0:
        roots = (0.0, 0.0)
    else:
        roots = tuple(sorted((q / c2, c0 / q)))
    residuals = tuple(
        abs(np.linalg.det(cartan_matrix(diagram, r))) for r in roots)
    return DetRoots(roots, (c2, c1, c0), residuals)


class SignatureRow:
    """One row of a signature scan: parameter, census, det, residual."""

    def __init__(self, t, signature, det, relation_residual):
        self.t = float(t)
        self.signature = signature
        self.det = float(det)
        self.relation_residual = float(relation_residual)

    def __repr__(self):
        return "SignatureRow(t={:.6g}, sig={!r})".format(self.t,
                                                         self.signature)


def signature_scan(diagram, t_values):
    """Signature of A_t along a parameter grid, with relation residuals.

    The grid runs in blocks of SCAN_BLOCK values, each as one stack of
    Cartan matrices, generators and relation products. A stacked det,
    eigvalsh, matmul and matrix_power give the same bits as one call per
    matrix, and so do sqrt(vecdot) and np.linalg.norm for a Frobenius
    norm (a norm along an axis would not), so every row equals that of
    ReflectionRep(diagram, t). The block bounds the memory held at once:
    on the geometry-kernels benchmark one stack over its 500-value grid
    raised the peak RSS by about a sixth, and blocks of 64 still by
    0.3-0.5 MB, where blocks of 32 cost 6 ms more per pass.
    """
    grid = np.atleast_1d(np.asarray(t_values, dtype=float))
    # ReflectionRep's and QuadraticSpace's checks, in grid order, before
    # any row is built.
    bad = grid < 0
    if diagram.infinite_pairs():
        bad |= ~np.isfinite(grid)
    if bad.any():
        if grid[np.argmax(bad)] < 0:
            raise GeometryError("scan grid must be nonnegative")
        raise GeometryError("Gram matrix has non-finite entries")
    rows = []
    for lo in range(0, len(grid), SCAN_BLOCK):
        t = grid[lo:lo + SCAN_BLOCK]
        A = _cartan_stack(diagram, t)
        det = np.linalg.det(A)
        pos, neg = sign_census(
            np.linalg.eigvalsh((A + A.transpose(0, 2, 1)) / 2.0),
            DEFAULT_TOLERANCE)
        residual = _relation_residuals(diagram, _reflections(A))
        rows.extend(
            SignatureRow(t[k], Signature(pos[k], neg[k],
                                         diagram.n - pos[k] - neg[k]),
                         det[k], residual[k])
            for k in range(len(t)))
    return rows


def canonical_X(p, qprime, q):
    """Symmetric elementary matrix pairing axis 0 with axis p+qprime.

    Lives in the Lie algebra of the form diag(1,..,1,-1,..,-1) with p plus
    signs and q+1 minus signs, and commutes with the block of the algebra
    supported on axes 1..p.
    """
    if not 1 <= qprime <= q:
        raise GeometryError("need 1 <= qprime <= q")
    d = p + q + 1
    X = np.zeros((d, d))
    X[0, p + qprime] = 1.0
    X[p + qprime, 0] = 1.0
    return X


def orthogonal_lie_basis(p, q):
    """Basis of the Lie algebra of O(p,q): rotations and boosts."""
    d = p + q
    signs = np.concatenate((np.ones(p), -np.ones(q)))
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            M = np.zeros((d, d))
            if signs[i] == signs[j]:
                M[i, j] = 1.0
                M[j, i] = -1.0
            else:
                M[i, j] = 1.0
                M[j, i] = 1.0
            basis.append(M)
    return basis


def lie_closure_dim(seeds):
    """Dimension of the Lie algebra generated by the seed matrices.

    Alternates bracket generation with SVD re-orthonormalization of the
    vectorized span until the rank stabilizes.
    """
    seeds = [np.asarray(s, dtype=float) for s in seeds]
    if not seeds:
        return 0
    d = seeds[0].shape[0]
    for s in seeds:
        if s.shape != (d, d):
            raise GeometryError("seed matrices must share a square shape")

    def orthonormal_rows(stack):
        if stack.shape[0] == 0:
            return stack
        _, svals, vt = np.linalg.svd(stack, full_matrices=False)
        rank = int(np.sum(svals > 1e-9 * max(svals[0], 1.0)))
        return vt[:rank]

    rows = orthonormal_rows(np.array([s.ravel() for s in seeds]))
    for _ in range(d * d + 1):
        mats = [r.reshape(d, d) for r in rows]
        brackets = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                brackets.append((mats[i] @ mats[j]
                                 - mats[j] @ mats[i]).ravel())
        stack = np.vstack([rows] + ([np.array(brackets)] if brackets else []))
        new_rows = orthonormal_rows(stack)
        if new_rows.shape[0] == rows.shape[0]:
            return int(rows.shape[0])
        rows = new_rows
    raise GeometryError("bracket closure failed to stabilize")


def _lie_algebra_residual(space, X):
    J = space.gram
    scale = max(1.0, np.linalg.norm(X) * np.linalg.norm(J))
    return np.max(np.abs(X.T @ J + J @ X)) / scale


def _centralizer_residual(X, mats):
    worst = 0.0
    for h in mats:
        scale = max(1.0, np.linalg.norm(X) * np.linalg.norm(h))
        worst = max(worst, np.max(np.abs(X @ h - h @ X)) / scale)
    return worst


class HnnLetter:
    """Stable letter of an HNN edge: matrix, edge index, bend chain."""

    def __init__(self, matrix, edge, chain=()):
        self.matrix = np.asarray(matrix, dtype=float)
        self.edge = int(edge)
        self.chain = tuple(chain)


class BendDatum:
    """Flattened graph-of-groups data for bending deformations.

    factors is a list of generator lists (vertex groups); edge_groups maps
    each edge index to its generator matrices; factor_chains gives, per
    factor, the edge path from the base factor (root first, incident edge
    last, empty for the base factor); edge_positions records where each
    edge generator appears inside the factor lists as (factor, position)
    pairs; edge_bends stores already-applied (X, s) bends keyed by edge.
    """

    def __init__(self, space, factors, edge_groups, factor_chains,
                 edge_positions=None, stable_letters=None, edge_bends=None):
        self.space = space
        self.factors = [[np.asarray(g, dtype=float) for g in gens]
                        for gens in factors]
        self.edge_groups = [[np.asarray(h, dtype=float) for h in gens]
                            for gens in edge_groups]
        self.factor_chains = tuple(tuple(c) for c in factor_chains)
        self.edge_positions = edge_positions or []
        self.stable_letters = list(stable_letters or [])
        self.edge_bends = dict(edge_bends or {})
        for gens in self.factors:
            for g in gens:
                residual = space.isometry_residual(g)
                if residual > 1e-9 * max(1.0, np.linalg.norm(g) ** 2):
                    raise GeometryError(
                        "factor generator breaks the form (residual %g)"
                        % residual)

    def with_edge_bend(self, edge, X, s):
        bends = dict(self.edge_bends)
        bends[edge] = (np.asarray(X, dtype=float), float(s))
        return BendDatum(self.space, self.factors, self.edge_groups,
                         self.factor_chains, self.edge_positions,
                         self.stable_letters, bends)


def _validate_bend_direction(datum, edge, X):
    res = _lie_algebra_residual(datum.space, X)
    if res > LIE_RESIDUAL:
        raise GeometryError(
            "bend direction is not in the Lie algebra (residual %g)" % res)
    res = _centralizer_residual(X, datum.edge_groups[edge])
    if res > LIE_RESIDUAL:
        raise GeometryError(
            "bend direction does not centralize the edge group (residual %g)"
            % res)


# Higham's bounds theta_m on the 1-norm under which the [m/m] Pade
# approximant of exp is accurate to double precision (N. J. Higham, "The
# scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3), and the approximant's
# coefficients b_j = (2m-j)! m! / ((2m)! j! (m-j)!).
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
              (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
              (13, 5.371920351148152e0))
_PADE_COEFFS = {
    m: [math.factorial(2 * m - j) * math.factorial(m)
        / (math.factorial(2 * m) * math.factorial(j) * math.factorial(m - j))
        for j in range(m + 1)]
    for m, _ in _PADE_THETA}


def _expm(M):
    """exp(M) by Pade scaling and squaring (Higham 2005).

    The degree m is the least of the theta table whose bound covers
    |M|_1. Past theta_13, M is halved s times and r_13 squared s times.
    With V the even and U the odd part of the numerator,
    r_m = (V - U)^-1 (V + U).
    """
    A = np.asarray(M, dtype=float)
    norm = float(np.linalg.norm(A, 1))
    if not math.isfinite(norm):
        raise GeometryError("matrix exponential needs finite entries")
    squarings = 0
    for m, theta in _PADE_THETA:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        A = A / 2.0 ** squarings
    b = _PADE_COEFFS[m]
    A2 = A @ A
    power = np.eye(A.shape[0])
    V, odd = b[0] * power, b[1] * power
    for k in range(1, m // 2 + 1):
        power = power @ A2
        V = V + b[2 * k] * power
        odd = odd + b[2 * k + 1] * power
    U = A @ odd
    out = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            out = out @ out
    if not np.isfinite(out).all():
        raise GeometryError("matrix exponential overflows")
    return out


def _chain_tail(datum, chain):
    factors = []
    for k in reversed(chain):
        bend = datum.edge_bends.get(k)
        if bend is not None:
            X_k, s_k = bend
            factors.append(_expm(s_k * X_k))
    return factors


def bend_amalgam(datum, factor_index, X, s):
    """Conjugate one amalgam factor by exponentials along its bend chain.

    The conjugator is exp(s X) times the stored bends of the chain edges
    above the factor, innermost last. Returns the full new factor list;
    s = 0 with no stored chain bends returns the input generators
    unchanged.
    """
    X = np.asarray(X, dtype=float)
    chain = datum.factor_chains[factor_index]
    if not chain:
        raise GeometryError("the base factor has no incident edge to bend")
    _validate_bend_direction(datum, chain[-1], X)
    pieces = []
    if s != 0.0:
        pieces.append(_expm(s * X))
    pieces.extend(_chain_tail(datum, chain[:-1]))
    new_factors = [[g.copy() for g in gens] for gens in datum.factors]
    if not pieces:
        return new_factors
    conj = pieces[0]
    for piece in pieces[1:]:
        conj = conj @ piece
    inv = np.linalg.inv(conj)
    new_factors[factor_index] = [conj @ g @ inv
                                 for g in datum.factors[factor_index]]
    return new_factors


def bend_hnn(datum, letter_index, X, s):
    """Multiply an HNN stable letter per the bend chain formula.

    New letter = (stored chain exponentials) @ letter @ exp(s X); the
    chain factors are the target-side bends, outermost first.
    """
    X = np.asarray(X, dtype=float)
    letter = datum.stable_letters[letter_index]
    _validate_bend_direction(datum, letter.edge, X)
    left = _chain_tail(datum, letter.chain)
    out = letter.matrix.copy()
    for piece in reversed(left):
        out = piece @ out
    if s != 0.0:
        out = out @ _expm(s * X)
    return out


def bend_residuals(datum, bent, letters):
    """Worst residuals of a bend, as a dict with keys form, edge and hnn.

    bent is the factor list of :func:`bend_amalgam`, letters the
    :func:`bend_hnn` images of the stable letters. form is the largest
    form residual over both; edge the largest entry by which the copies
    of an edge generator differ across factors; hnn the largest entry of
    letter @ source @ letter^-1 - target, with source and target the
    first and last bent copy of the letter's edge generator, or each
    unbent edge generator for an edge listed in fewer than two factors.
    A NaN matrix reads NaN.
    """
    space = datum.space
    form = [space.isometry_residual(g) for gens in bent for g in gens]
    form += [space.isometry_residual(g) for g in letters]
    edge = []
    for positions in datum.edge_positions:
        mats = [bent[f][pos] for f, pos in positions]
        edge += [np.max(np.abs(m - mats[0])) for m in mats[1:]]
    hnn = []
    for letter, bent_letter in zip(datum.stable_letters, letters):
        inv = np.linalg.inv(bent_letter)
        if letter.edge < len(datum.edge_positions) and \
                len(datum.edge_positions[letter.edge]) >= 2:
            f0, p0 = datum.edge_positions[letter.edge][0]
            f1, p1 = datum.edge_positions[letter.edge][-1]
            pairs = [(bent[f0][p0], bent[f1][p1])]
        else:
            pairs = [(h, h) for h in datum.edge_groups[letter.edge]]
        hnn += [np.max(np.abs(bent_letter @ source @ inv - target))
                for source, target in pairs]
    # np.max, unlike Python's max, lets a NaN residual through.
    return {"form": float(np.max(form, initial=0.0)),
            "edge": float(np.max(edge, initial=0.0)),
            "hnn": float(np.max(hnn, initial=0.0))}


def toy_bend_datum():
    """Small O(2,2) amalgam/HNN datum for exercising the bend operations.

    Two free factors share the cyclic edge group generated by a boost in
    the (1,2) plane; the bend direction canonical_X(2,1,1) pairs axes 0
    and 3 and so centralizes it. The HNN letter is a boost in that same
    (0,3) plane, hence commutes with the edge generator.
    """
    space = standard_space(2, 2)
    h = boost(4, 1, 2, 0.8)
    a = boost(4, 0, 2, 0.7)
    b = rotation(4, 0, 1, 0.6)
    gamma = boost(4, 0, 3, 0.4)
    return BendDatum(
        space,
        factors=[[a, h], [b, h]],
        edge_groups=[[h]],
        factor_chains=[(), (0,)],
        edge_positions=[[(0, 1), (1, 1)]],
        stable_letters=[HnnLetter(gamma, edge=0, chain=())],
    )


class Polygon2k:
    """2k vertex vectors in R^{2,q} with unit norms and equal edge pairings."""

    def __init__(self, space, vertices, k, n, alpha):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.shape[0] != 2 * k:
            raise GeometryError("polygon needs 2k vertices")
        target = math.cos(math.pi / n)
        for idx in range(2 * k):
            here = vertices[idx]
            after = vertices[(idx + 1) % (2 * k)]
            if abs(space.eval(here) - 1.0) > 1e-12:
                raise GeometryError("vertex %d is not unit" % idx)
            if abs(space.eval(here, after) - target) > 1e-12:
                raise GeometryError("edge pairing off target at %d" % idx)
            third = vertices[(idx + 2) % (2 * k)]
            rank = np.linalg.matrix_rank(np.vstack((here, after, third)),
                                         tol=1e-9)
            if rank != 3:
                raise GeometryError("consecutive vertices are collinear")
        self.space = space
        self.vertices = vertices
        self.k = int(k)
        self.n = int(n)
        self.alpha = float(alpha)
        self.edge_pairing = target


def gt_polygon(k, n, q=1):
    """Equilateral 2k-gon vertex configuration in R^{2,q}.

    Vertices circle at spacelike radius sqrt(alpha) and sit at timelike
    height sqrt(alpha-1), which forces unit norms and edge pairings
    cos(pi/n); alpha > 1 needs k > n.
    """
    k, n, q = int(k), int(n), int(q)
    if n < 2 or k <= n:
        raise GeometryError("need k > n >= 2")
    if q < 1:
        raise GeometryError("ambient timelike rank must be >= 1")
    alpha = (1.0 - math.cos(math.pi / n)) / (1.0 - math.cos(math.pi / k))
    space = standard_space(2, q)
    vertices = np.zeros((2 * k, 2 + q))
    for j in range(2 * k):
        angle = j * math.pi / k
        vertices[j, 0] = math.sqrt(alpha) * math.cos(angle)
        vertices[j, 1] = math.sqrt(alpha) * math.sin(angle)
        vertices[j, 2] = math.sqrt(alpha - 1.0)
    return Polygon2k(space, vertices, k, n, alpha)


class PolygonDeformation:
    """One-parameter family of middle vertices with fixed neighbours.

    at(s) walks the circle of radius sqrt(beta-1) around the in-plane
    solution, inside the negative-definite complement of the neighbour
    span.
    """

    def __init__(self, space, midpoint, radius, base_dir, new_dir):
        self.space = space
        self.midpoint = midpoint
        self.radius = float(radius)
        self.base_dir = base_dir
        self.new_dir = new_dir

    def at(self, s):
        if self.radius == 0.0:
            return self.midpoint.copy()
        mix = math.cos(s) * self.base_dir + math.sin(s) * self.new_dir
        return self.midpoint + self.radius * mix


def polygon_deform(space, v0, v2, alpha, e, base=None):
    """Family of unit vectors pairing to alpha with both of v0 and v2.

    The in-plane part is the unique solution of a 2x2 linear system; the
    family adds a radius-sqrt(beta-1) circle in the plane spanned by the
    direction toward ``base`` (when given) and the direction ``e``, both
    inside the negative-definite complement of span(v0, v2). Unsolvable
    when the in-plane solution has norm below 1.
    """
    v0 = np.asarray(v0, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    e = np.asarray(e, dtype=float)
    gram = np.array([[space.eval(v0), space.eval(v0, v2)],
                     [space.eval(v0, v2), space.eval(v2)]])
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(abs(eigs[1]), 1.0):
        raise GeometryError("form is not positive definite on span(v0, v2)")
    if abs(space.eval(e) + 1.0) > 1e-9:
        raise GeometryError("deformation direction must be a unit negative vector")
    if max(abs(space.eval(e, v0)), abs(space.eval(e, v2))) > 1e-9:
        raise GeometryError("deformation direction must be orthogonal to v0, v2")
    coeffs = np.linalg.solve(gram, np.array([alpha, alpha]))
    midpoint = coeffs[0] * v0 + coeffs[1] * v2
    beta = float(space.eval(midpoint))
    if beta < 1.0 - 1e-12:
        raise GeometryError(
            "no unit solution: in-plane norm %g falls short by %g"
            % (beta, 1.0 - beta))
    radius = math.sqrt(max(beta - 1.0, 0.0))
    if base is not None:
        base = np.asarray(base, dtype=float)
        if abs(space.eval(base) - 1.0) > 1e-8 or max(
                abs(space.eval(base, v0) - alpha),
                abs(space.eval(base, v2) - alpha)) > 1e-8:
            raise GeometryError("base point does not satisfy the pairings")
        offset = base - midpoint
        norm = math.sqrt(max(-space.eval(offset), 0.0))
        if radius > 1e-12 and abs(norm - radius) > 1e-6 * max(radius, 1.0):
            raise GeometryError("base point is not in the family")
        base_dir = offset / norm if norm > 0 else e
    else:
        base_dir = e
        complement = space.orthogonal_complement(np.vstack((v0, v2, e)))
        picked = None
        for row in complement:
            val = space.eval(row)
            if val < -1e-9:
                picked = row / math.sqrt(-val)
                break
        if picked is None:
            raise GeometryError("no second direction available for the family")
        e = picked
    raw = e + space.eval(e, base_dir) * base_dir
    norm2 = -space.eval(raw)
    if norm2 <= 1e-18:
        raise GeometryError("deformation direction is parallel to the base member")
    new_dir = raw / math.sqrt(norm2)
    return PolygonDeformation(space, midpoint, radius, base_dir, new_dir)


class WordBall:
    """Deduplicated ball of words in the generators and their inverses.

    Letters are alphabet indices; inverse_letter maps each letter to the
    index of its inverse (itself for involutions). The ball is a
    breadth-first tree, identity first: element i is ``stack[i]``, the
    product of element ``parent[i]`` with letter ``letter[i]`` (-1 for
    the identity), and ``words[i]`` is its word. Iteration yields
    ``(word, matrix)`` pairs.

    Spectral data is kept per conjugacy class of cyclic words. Element
    i > 0 is h k h^-1, where k is the least rotation of the cyclically
    reduced core of its word and h is a prefix of that word: ``cls[i]``
    indexes k in ``keys`` (-1 for the identity) and ``conj[i]`` is the
    element h. ``jordan[c]`` holds the log-moduli of class c in
    descending order, and ``attractor[c]`` the top eigenvector of its key
    product, which is meaningful where ``jordan[c, 0] > jordan[c, 1]``;
    element i then attracts to ``stack[conj[i]] @ attractor[cls[i]]``.
    """

    def __init__(self, alphabet, labels, inverse_letter, L, stack, parent,
                 letter):
        self.alphabet = alphabet
        self.labels = labels
        self.inverse_letter = inverse_letter
        self.L = int(L)
        self.stack = stack
        self.parent = parent
        self.letter = letter
        # chains[i]: the elements along the word of i, identity first.
        self.words, chains, trims, cores = [()], [(0,)], [], []
        for i, (up, last) in enumerate(zip(parent[1:].tolist(),
                                           letter[1:].tolist()), 1):
            word = self.words[up] + (last,)
            self.words.append(word)
            chains.append(chains[up] + (i,))
            t = 0
            while len(word) - 2 * t >= 2 and \
                    inverse_letter[word[-1 - t]] == word[t]:
                t += 1
            trims.append(t)
            cores.append(word[t:len(word) - t])
        index = {}
        self.cls = np.full(len(parent), -1)
        self.conj = np.zeros(len(parent), dtype=int)
        for i, (t, core, s) in enumerate(
                zip(trims, cores, _least_rotations(cores).tolist()), 1):
            self.cls[i] = index.setdefault(core[s:] + core[:s], len(index))
            self.conj[i] = chains[i][t + s]
        self.keys = list(index)
        self.jordan, self.attractor = _class_spectra(np.array(alphabet),
                                                     self.keys)

    def __len__(self):
        return len(self.parent)

    def __iter__(self):
        return (BallElement(word, matrix)
                for word, matrix in zip(self.words, self.stack))

    def sphere(self, length):
        """Indices of the elements whose word has the given length."""
        return np.array([i for i, word in enumerate(self.words)
                         if len(word) == length], dtype=int)

    def word_label(self, word):
        return ".".join(self.labels[letter] for letter in word) or "1"


def _least_rotations(cores):
    """Start of each core's lexicographically least rotation, first on ties.

    Cores of one length are filtered together, one letter position at a
    time: a rotation survives while its letters so far are the least.
    """
    lengths = np.array([len(core) for core in cores], dtype=int)
    starts = np.zeros(len(cores), dtype=int)
    for m in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == m)
        # rotations[r, s] is core r rotated to start at its letter s.
        rotations = np.array([cores[r] for r in rows])[
            :, (np.arange(m)[:, None] + np.arange(m)) % m]
        alive = np.ones((len(rows), m), dtype=bool)
        for column in rotations.transpose(2, 0, 1):
            least = np.where(alive, column, column.max() + 1).min(axis=1)
            alive &= column == least[:, None]
        starts[rows] = np.argmax(alive, axis=1)
    return starts


def _class_spectra(alphabet, keys):
    """Log-moduli and top eigenvectors of the key products, by key length.

    By Cauchy-Binet the j-th exterior power of a product is the product
    of the letters' j-th exterior powers (stacked determinants of j x j
    minors), and the log of its spectral radius is lambda_1 + ... +
    lambda_j. Each partial sum is thus the top modulus of a product of
    short factors, read to full relative precision, where eig of the
    product itself loses the small moduli to the large ones. Rows are
    made non-increasing, so that tied moduli do not read a negative gap.
    """
    d = alphabet.shape[1]
    powers = []
    for j in range(1, d + 1):
        sets = np.array(list(itertools.combinations(range(d), j)))
        powers.append(np.linalg.det(
            alphabet[:, sets[:, None, :, None], sets[None, :, None, :]]))
    lengths = np.array([len(key) for key in keys])
    jordan = np.empty((len(keys), d))
    attractor = np.empty((len(keys), d))
    for m in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == m)
        # word[k] is the k-th letter of every key of length m.
        word = np.array([keys[c] for c in rows]).T
        sums = np.stack([np.log(np.max(np.abs(np.linalg.eigvals(
            functools.reduce(np.matmul, power[word]))), axis=1))
            for power in powers], axis=1)
        jordan[rows] = np.minimum.accumulate(
            np.diff(sums, axis=1, prepend=0.0), axis=1)
        values, vectors = np.linalg.eig(
            functools.reduce(np.matmul, alphabet[word]))
        top = np.argmax(np.abs(values), axis=1)[:, None, None]
        attractor[rows] = np.take_along_axis(vectors, top, axis=2)[..., 0].real
    return jordan, attractor


def word_ball(generators, L):
    """Breadth-first ball of radius L with projective deduplication.

    Words avoid immediate backtracking; a product already seen (Frobenius
    distance below 1e-8 after dividing by the largest-magnitude entry) is
    dropped, so each element keeps its shortest representative. Each
    sphere's products are formed as one stack and filtered by one
    :meth:`~pqgeo.forms.NearIndex.keep_first` call, which gives the
    decisions of a scan over all kept elements. The returned ball carries
    its class table (see :class:`WordBall`).
    """
    if L < 0:
        raise GeometryError("word-ball radius L must be non-negative")
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise GeometryError("need at least one generator")
    d = gens[0].shape[0]
    alphabet = []
    labels = []
    inverse_letter = []

    def letter_of(matrix, label):
        for idx, existing in enumerate(alphabet):
            if np.max(np.abs(existing - matrix)) < 1e-12:
                return idx
        alphabet.append(matrix)
        labels.append(label)
        inverse_letter.append(None)
        return len(alphabet) - 1

    for i, g in enumerate(gens):
        if g.shape != (d, d):
            raise GeometryError("generators must share a square shape")
        if abs(np.linalg.det(g)) < 1e-12:
            raise GeometryError("generator %d is not invertible" % i)
        gi = letter_of(g, "g%d" % i)
        ii = letter_of(np.linalg.inv(g), "g%d^-1" % i)
        inverse_letter[gi] = ii
        inverse_letter[ii] = gi

    # follows[last, letter]: the letter may extend a word ending in last;
    # the last row, read for the identity's letter -1, allows every one.
    follows = np.ones((len(alphabet) + 1, len(alphabet)), dtype=bool)
    for last, inverse in enumerate(inverse_letter):
        follows[last, inverse] = False
    letter_matrices = np.array(alphabet)
    seen = NearIndex(d * d, DEDUP_FROBENIUS)
    stack, parent, letter = np.eye(d)[None], np.array([-1]), np.array([-1])
    seen.keep_first(stack.reshape(1, -1), _frobenius_close)
    first = 0
    for _ in range(L):
        # The last sphere's elements times their letters, in the order of
        # a loop over elements and then letters.
        up, step = np.nonzero(follows[letter[first:]])
        up += first
        products = stack[up] @ letter_matrices[step]
        flat = products.reshape(-1, d * d)
        pivots = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
        keep = seen.keep_first(flat / pivots[:, None], _frobenius_close)
        first = len(stack)
        stack = np.concatenate((stack, products[keep]))
        parent = np.concatenate((parent, up[keep]))
        letter = np.concatenate((letter, step[keep]))
    return WordBall(alphabet, labels, inverse_letter, L, stack, parent,
                    letter)


def _frobenius_close(stored, query):
    """Projectively normalized products closer than DEDUP_FROBENIUS."""
    return np.linalg.norm(stored - query, axis=1) < DEDUP_FROBENIUS

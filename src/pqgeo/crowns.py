"""Crowns: transverse pair configurations on the boundary at infinity.

A j-crown is a set of 2j boundary points in which each point is
transverse to exactly one partner and the lifts span a subspace of
signature (j, j|0). In an adapted basis the convex hull of a crown is a
projective simplex carrying a diagonal flow; distances and maximality
along flow orbits have closed forms that the rest of the toolkit checks
against cross-ratio computations.
"""

import numpy as np

from .forms import GeometryError, QuadraticSpace, standard_space
from .model import HalfspaceDomain, TimelikeFrame, lift_rows
from .graphs import LipschitzGraph

ADAPTED_RESIDUAL = 1e-10


class Crown:
    """2j boundary lifts ordered plus-block then minus-block.

    Row i pairs with row i+j; all other pairings vanish, and the Gram of
    the lifts has signature (j, j|0).
    """

    def __init__(self, space, lifts, indices=None):
        lifts = np.atleast_2d(np.asarray(lifts, dtype=float))
        if lifts.shape[0] % 2:
            raise GeometryError("a crown needs an even number of points")
        j = lifts.shape[0] // 2
        pair, adj = space.pairing(lifts)
        for i in range(2 * j):
            partner = (i + j) % (2 * j)
            expect = np.zeros(2 * j, dtype=bool)
            expect[partner] = True
            if not np.array_equal(adj[i], expect):
                raise GeometryError(
                    "transversality graph is not the required matching")
        census = QuadraticSpace(pair, tol=space.tol).signature
        if census.as_tuple() != (j, j, 0):
            raise GeometryError(
                "crown span has signature %r, expected (%d,%d|0)"
                % (census, j, j))
        self.space = space
        self.lifts = lifts
        self.j = j
        self.pairing = pair
        self.indices = None if indices is None else tuple(indices)

    def __repr__(self):
        return "Crown(j={}, indices={})".format(self.j, self.indices)


class CrownScan:
    """Result of a crown search: the crowns found plus a completeness flag."""

    def __init__(self, crowns, complete):
        self.crowns = list(crowns)
        self.complete = bool(complete)

    def __iter__(self):
        return iter(self.crowns)

    def __len__(self):
        return len(self.crowns)


def detect_crowns(space, points, j, max_results=None):
    """Find all j-crowns among boundary points.

    The candidates are the induced matchings of j edges in the
    transversality graph: a partial matching grows only by an edge whose
    endpoints are neither chosen nor adjacent to a chosen vertex. Each
    candidate then needs the census (j, j|0). Crowns come out in
    lexicographic order of their index sets. The scan reports
    ``complete=False`` only when ``max_results`` stops it with
    candidates left unchecked.
    """
    if j < 1:
        raise GeometryError("a crown needs j >= 1 pairs")
    if max_results is not None and max_results < 1:
        raise GeometryError("max_results must be at least 1")
    lifts = lift_rows(points)
    pair, adj = space.pairing(lifts)
    ends = np.argwhere(np.triu(adj))
    closed = adj | np.eye(len(adj), dtype=bool)
    matchings = []

    def grow(chosen, candidates):
        if len(chosen) == j:
            # Rows of ends[chosen] ascend in their smaller endpoint, so the
            # transpose lists the plus block, then each partner in turn.
            order = ends[chosen].T.ravel().tolist()
            matchings.append((sorted(order), order))
            return
        for k, edge in enumerate(candidates):
            near = closed[ends[edge, 0]] | closed[ends[edge, 1]]
            rest = candidates[k + 1:]
            grow(chosen + [edge],
                 rest[~(near[ends[rest, 0]] | near[ends[rest, 1]])])

    grow([], np.arange(len(ends)))
    matchings.sort()
    found = []
    for checked, (subset, order) in enumerate(matchings, 1):
        census = QuadraticSpace(
            pair[np.ix_(subset, subset)], tol=space.tol).signature
        if census.as_tuple() != (j, j, 0):
            continue
        found.append(Crown(space, lifts[order], indices=order))
        if max_results is not None and len(found) >= max_results:
            return CrownScan(found, checked == len(matchings))
    return CrownScan(found, True)


def is_boundary_crown(crown, candidates):
    """Index of a candidate lift whose dual hyperplane contains the crown.

    Returns None when no candidate is orthogonal to every crown point.
    """
    _, nonzero = crown.space.pairing(lift_rows(candidates), crown.lifts)
    hits = np.flatnonzero(~nonzero.any(axis=1))
    return int(hits[0]) if hits.size else None


class AdaptedBasis:
    """Basis (e'_1..e'_2j) with b(e'_i, e'_{j+i}) = -1 and zeros elsewhere."""

    def __init__(self, space, vectors):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[0] % 2:
            raise GeometryError("adapted basis needs 2j vectors")
        j = vectors.shape[0] // 2
        target = np.zeros((2 * j, 2 * j))
        for i in range(j):
            target[i, j + i] = target[j + i, i] = -1.0
        residual = np.max(np.abs(vectors @ space.gram @ vectors.T - target))
        if residual > ADAPTED_RESIDUAL:
            raise GeometryError(
                "pairing residual %g exceeds %g" % (residual,
                                                    ADAPTED_RESIDUAL))
        self.space = space
        self.vectors = vectors
        self.j = j

    @classmethod
    def standard(cls, j):
        """Adapted basis in diag(1,..,1,-1,..,-1) with j of each sign."""
        space = standard_space(j, j)
        vectors = np.zeros((2 * j, 2 * j))
        for i in range(j):
            vectors[i, i] = 1.0 / np.sqrt(2.0)
            vectors[i, j + i] = 1.0 / np.sqrt(2.0)
            vectors[j + i, i] = -1.0 / np.sqrt(2.0)
            vectors[j + i, j + i] = 1.0 / np.sqrt(2.0)
        return cls(space, vectors)

    def point(self, coeffs):
        return np.asarray(coeffs, dtype=float) @ self.vectors

    def domain(self):
        """Hull interior as a half-space domain: the basis rows themselves
        are the constraint lifts, because b against e'_m reads off the
        (negated) opposite coefficient."""
        return HalfspaceDomain(self.space, self.vectors)


def adapted_basis(crown):
    """Rescale crown lifts into an adapted basis.

    Signs are flipped first so every paired product is negative, then the
    minus-block lifts are scaled by the inverse pairing magnitude.
    """
    j = crown.j
    vectors = crown.lifts.copy()
    for i in range(j):
        beta = crown.space.eval(vectors[i], vectors[j + i])
        if beta > 0:
            vectors[j + i] = -vectors[j + i]
            beta = -beta
        vectors[j + i] = vectors[j + i] / (-beta)
    return AdaptedBasis(crown.space, vectors)


class OrbitPoint:
    """A point of the hull reached by the diagonal flow from base coefficients."""

    def __init__(self, basis, coeffs, flow, vector, weights):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.flow = np.asarray(flow, dtype=float)
        self.vector = vector
        self.weights = np.asarray(weights, dtype=float)

    def __repr__(self):
        return "OrbitPoint(flow={}, weights={})".format(
            np.array2string(self.flow, precision=4),
            np.array2string(self.weights, precision=4))


def orbit_point(basis, coeffs, a=None, normalize=False):
    """Apply the diagonal flow exp(a) to a hull point given by coefficients.

    Coefficients must be strictly positive (interior of the hull). The
    weight of pair i is b(u_i, u_i) for u_i the projection of the point
    to the span of e'_i and e'_{j+i}; weights are flow invariants.
    """
    j = basis.j
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (2 * j,):
        raise GeometryError("need 2j coefficients")
    if np.any(coeffs <= 0.0):
        raise GeometryError("hull coefficients must be positive")
    if a is None:
        a = np.zeros(j)
    a = np.asarray(a, dtype=float)
    if a.shape != (j,):
        raise GeometryError("flow parameter needs j entries")
    flowed = np.concatenate((coeffs[:j] * np.exp(a),
                             coeffs[j:] * np.exp(-a)))
    vector = basis.point(flowed)
    weights = np.zeros(j)
    for i in range(j):
        u = flowed[i] * basis.vectors[i] + flowed[j + i] * basis.vectors[j + i]
        weights[i] = basis.space.eval(u)
    if normalize:
        value = basis.space.eval(vector)
        vector = vector / np.sqrt(-value)
    return OrbitPoint(basis, coeffs, a, vector, weights)


def orbit_hilbert_distance(basis, coeffs, a):
    """Hilbert distance from a hull point to its image under exp(a).

    Closed form: the largest |a_i|. The cross-ratio evaluation through
    :func:`pqgeo.model.hilbert_distance` reproduces it; this function is
    the fast path.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (basis.j,):
        raise GeometryError("flow parameter needs j entries")
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs <= 0.0):
        raise GeometryError("hull coefficients must be positive")
    return float(np.max(np.abs(a)))


def maximality_test(point):
    """True when all pair weights agree (the orbit is the balanced one)."""
    w = point.weights
    scale = np.max(np.abs(w))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(w - w[0])) <= 1e-9 * scale)


class QuadrilateralReport:
    """Vertices and sampled distance floor for the flow quadrilateral.

    ``flows`` holds the flow parameter of every side sample, one per row.
    """

    def __init__(self, vertices, min_distance, R, side_samples, flows):
        self.vertices = vertices
        self.min_distance = float(min_distance)
        self.R = float(R)
        self.side_samples = int(side_samples)
        self.flows = flows

    def __repr__(self):
        return "QuadrilateralReport(R={}, min_distance={:.6g})".format(
            self.R, self.min_distance)


def quadrilateral_demo(basis, coeffs, R, side_samples=64):
    """Build the size-R flow quadrilateral and measure its far sides.

    The four vertices are flow images of the base point; the three sides
    not passing through the base point stay at Hilbert distance at least
    R from it, which is the sampled quantity returned. Every side point
    lies on the flow orbit of the base point, so its distance is the max
    absolute flow coordinate; that formula stays exact where the
    cross-ratio chord computation would drown in the e^(6R) coefficient
    spread of the far corners. At R = 5 the far side points already fail
    the domain's membership test in floating point, so only small R can
    be checked against :func:`pqgeo.model.hilbert_distance`.
    """
    j = basis.j
    if j < 2:
        raise GeometryError("quadrilateral needs j >= 2")
    if R <= 0:
        raise GeometryError("R must be positive")
    coeffs = np.asarray(coeffs, dtype=float)
    ones = np.ones(j - 1)

    def flow_vec(first, rest):
        return np.concatenate(([first], rest * ones))

    corners = {
        "a": flow_vec(R, -R),
        "b": flow_vec(-R, R),
        "c": flow_vec(-R, -3 * R),
        "d": flow_vec(-3 * R, -R),
    }
    sides = [
        (corners["a"], flow_vec(-1.0, -1.0)),
        (corners["b"], flow_vec(-1.0, -1.0)),
        (corners["c"], flow_vec(-1.0, 1.0)),
    ]
    ts = np.linspace(0.0, 2.0 * R, side_samples)
    flows = np.array([start + t * direction for start, direction in sides
                      for t in ts])
    best = min(orbit_hilbert_distance(basis, coeffs, a) for a in flows)
    vertices = {key: orbit_point(basis, coeffs, val).vector
                for key, val in corners.items()}
    return QuadrilateralReport(vertices, best, R, side_samples, flows)


def crown_orbit_graph(tau):
    """Spacelike graph tracing a diagonal-flow orbit.

    tau lists the j positive pair weights (up to the factor -2) of the
    orbit base point and must be a unit vector. The graph lives over the
    standard frame of signature (j, j); with the standard adapted basis
    its point set is exactly the flow orbit of sum(tau_i e_{j+i}).
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    j = tau.shape[0]
    if abs(tau @ tau - 1.0) > 1e-9:
        raise GeometryError("tau must be a unit vector")
    frame = TimelikeFrame.standard(j, j - 1)

    def func(U):
        return np.sqrt(tau[None, :] ** 2 * U[:, :1] ** 2 + U[:, 1:] ** 2)

    return LipschitzGraph(frame, func=func)

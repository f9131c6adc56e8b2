"""Weakly spacelike graphs seen through a conformal splitting.

A graph is a map from the closed hemisphere (interior plus equator) or
from the equator sphere alone into the image sphere of a timelike frame.
The 1-Lipschitz property of that map is exactly the no-timelike-pair
condition on the corresponding subset of the quadric, so the checks here
are all distance-ratio statistics over sampled pairs.
"""

import numpy as np

from .forms import GeometryError, QuadraticSpace
from .model import (BOUNDARY_ATOL, ConformalCoords, HPoint, TimelikeFrame,
                    conformal_split, conformal_unsplit, lift_rows,
                    sphere_distance)

HEMISPHERE = "hemisphere"
SPHERE = "sphere"

KERNEL_THRESHOLD = 1e-8
FD_STEP = 1e-5


def _rng(source):
    if isinstance(source, np.random.Generator):
        return source
    return np.random.default_rng(source)


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class GraphReport:
    """Distance-ratio statistics from a Lipschitz check."""

    def __init__(self, max_ratio, violations, pairs_used, kernel_dim=None):
        self.max_ratio = float(max_ratio)
        self.violations = int(violations)
        self.pairs_used = int(pairs_used)
        self.kernel_dim = kernel_dim

    @property
    def margin(self):
        return 1.0 - self.max_ratio

    @property
    def strict(self):
        return self.max_ratio < 1.0

    def __repr__(self):
        return ("GraphReport(max_ratio={:.6g}, violations={}, pairs={}, "
                "kernel_dim={})".format(self.max_ratio, self.violations,
                                        self.pairs_used, self.kernel_dim))


class LipschitzGraph:
    """Graph of a map into the image sphere of a timelike frame.

    Exactly one of ``func`` and ``samples`` must be given. ``func`` maps a
    stacked array of domain points (rows of length p+1, first coordinate
    the hemisphere height) to unit rows of length q+1. ``samples`` is a
    pair of such arrays for graphs known only through a sample table.
    """

    def __init__(self, frame, func=None, samples=None, domain=HEMISPHERE):
        if (func is None) == (samples is None):
            raise GeometryError("provide either func or samples, not both")
        if domain not in (HEMISPHERE, SPHERE):
            raise GeometryError("unknown domain kind %r" % (domain,))
        self.frame = frame
        self.func = func
        self.domain = domain
        if samples is not None:
            U, V = samples
            U = np.atleast_2d(np.asarray(U, dtype=float))
            V = np.atleast_2d(np.asarray(V, dtype=float))
            if U.shape[0] != V.shape[0]:
                raise GeometryError("sample table rows do not line up")
            if U.shape[1] != frame.p + 1 or V.shape[1] != frame.q + 1:
                raise GeometryError("sample table widths do not match frame")
            self.samples = (U, V)
        else:
            self.samples = None

    @property
    def p(self):
        return self.frame.p

    @property
    def q(self):
        return self.frame.q

    def sample_domain(self, count, rng=0):
        """Draw domain points; sphere domains come antipode-closed."""
        if count < 1:
            raise GeometryError("sample count must be at least 1")
        if self.samples is not None:
            return self.samples[0]
        gen = _rng(rng)
        if self.domain == HEMISPHERE:
            raw = gen.normal(size=(count, self.p + 1))
            u = _unit_rows(raw)
            u[:, 0] = np.abs(u[:, 0])
            return u
        half = (count + 1) // 2
        raw = _unit_rows(gen.normal(size=(half, self.p)))
        u = np.zeros((2 * half, self.p + 1))
        u[:half, 1:] = raw
        u[half:, 1:] = -raw
        return u

    def evaluate(self, U=None):
        """Image rows for the given domain rows (or the stored table)."""
        if self.samples is not None:
            if U is None or U is self.samples[0] or np.array_equal(
                    U, self.samples[0]):
                return self.samples[1]
            raise GeometryError(
                "sample-table graph evaluates only at its stored samples")
        if U is None:
            raise GeometryError("function graph needs domain points")
        V = np.atleast_2d(self.func(np.atleast_2d(U)))
        if not np.all(np.isfinite(V)):
            raise GeometryError("graph map returned non-finite rows")
        norms = np.linalg.norm(V, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise GeometryError("graph map left the unit sphere")
        return V / norms[:, None]

    def points(self, U=None):
        """Lift domain rows to quadric points via the conformal splitting."""
        if U is None:
            if self.samples is None:
                raise GeometryError("function graph needs domain points")
            U = self.samples[0]
        V = self.evaluate(U)
        out = []
        for u, v in zip(np.atleast_2d(U), V):
            out.append(conformal_unsplit(self.frame, ConformalCoords(u, v, 1.0)))
        return out


def constant_graph(p, q):
    """Graph of a constant map; its image set is totally geodesic."""
    frame = TimelikeFrame.standard(p, q)
    image = np.zeros(q + 1)
    image[-1] = 1.0

    def func(U):
        return np.tile(image, (U.shape[0], 1))

    return LipschitzGraph(frame, func=func)


def maximal_graph(p, q):
    """Strictly spacelike graph spreading the height equally over p slots."""
    if q + 1 < p:
        raise GeometryError("image sphere too small: need q + 1 >= p")
    frame = TimelikeFrame.standard(p, q)

    def func(U):
        V = np.zeros((U.shape[0], q + 1))
        V[:, :p] = np.sqrt(U[:, :1] ** 2 / p + U[:, 1:] ** 2)
        return V

    return LipschitzGraph(frame, func=func)


def equatorial_graph(p, q):
    """Isometric inclusion of the hemisphere; ratio exactly 1, never strict."""
    if q < p:
        raise GeometryError("isometric inclusion needs q >= p")
    frame = TimelikeFrame.standard(p, q)

    def func(U):
        V = np.zeros((U.shape[0], q + 1))
        V[:, :p + 1] = U
        return V

    return LipschitzGraph(frame, func=func)


def isotropic_boundary_graph(p, q):
    """Boundary graph of the identity; its lifts span an isotropic p-plane."""
    if q + 1 < p:
        raise GeometryError("image sphere too small: need q + 1 >= p")
    frame = TimelikeFrame.standard(p, q)

    def func(U):
        V = np.zeros((U.shape[0], q + 1))
        V[:, :p] = U[:, 1:]
        return V

    return LipschitzGraph(frame, func=func, domain=SPHERE)


def folded_boundary_graph(p, q):
    """Boundary graph of coordinatewise absolute value; empty kernel sphere."""
    if q + 1 < p:
        raise GeometryError("image sphere too small: need q + 1 >= p")
    frame = TimelikeFrame.standard(p, q)

    def func(U):
        V = np.zeros((U.shape[0], q + 1))
        V[:, :p] = np.abs(U[:, 1:])
        return V

    return LipschitzGraph(frame, func=func, domain=SPHERE)


def lipschitz_check(graph, pairs=2000, rng=0):
    """Estimate the Lipschitz ratio of a graph over sampled pairs.

    Returns a :class:`GraphReport`. ``max_ratio`` strictly below 1 over
    many pairs is the sampled form of "spacelike"; a ratio above 1 means
    a timelike pair was found and the graph is not weakly spacelike.
    """
    if pairs < 1:
        raise GeometryError("pair count must be at least 1")
    gen = _rng(rng)
    if graph.samples is not None:
        U, V = graph.samples
        left, right = np.triu_indices(len(U), k=1)
        left, right = left[:pairs], right[:pairs]
        U1, U2 = U[left], U[right]
        V1, V2 = V[left], V[right]
    else:
        U1 = graph.sample_domain(pairs, gen)
        U2 = graph.sample_domain(pairs, gen)
        V1 = graph.evaluate(U1)
        V2 = graph.evaluate(U2)
    if graph.domain == SPHERE:
        U1, U2 = U1[:, 1:], U2[:, 1:]
    d_dom = sphere_distance(U1, U2)
    # Pairs closer than 1e-9 in the domain carry no ratio.
    far = d_dom > 1e-9
    ratio = sphere_distance(V1[far], V2[far]) / d_dom[far]
    kernel_dim = None
    if graph.domain == SPHERE:
        kernel_dim, _ = kernel_sphere(graph, rng=gen)
    return GraphReport(np.max(ratio, initial=0.0),
                       np.count_nonzero(ratio > 1.0 + 1e-9), len(ratio),
                       kernel_dim)


def graph_points(graph, count=128, rng=0):
    """Sample quadric points lying on the graph."""
    U = graph.sample_domain(count, _rng(rng))
    return graph.points(U)


def kernel_sphere(graph, count=512, rng=0):
    """Locate the odd part of a boundary graph.

    The kernel consists of domain directions u with f(-u) = -f(u). For a
    1-Lipschitz boundary map it is a great subsphere; the estimate k is
    the linear rank of the kernel samples, so the sphere has dimension
    k - 1 (k = 0 means no kernel points were found).
    """
    if graph.domain != SPHERE:
        raise GeometryError("kernel sphere is defined for boundary graphs")
    U = graph.sample_domain(count, _rng(rng))
    lookup = {tuple(np.round(row, 12)): i for i, row in enumerate(U)}
    V = graph.evaluate(U)
    rows = []
    antipodes = []
    for i, row in enumerate(U):
        j = lookup.get(tuple(np.round(-row, 12)))
        if j is not None:
            rows.append(i)
            antipodes.append(j)
    odd = sphere_distance(V[antipodes], -V[rows]) <= KERNEL_THRESHOLD
    members = U[rows][odd]
    if not len(members):
        return 0, members
    k = int(np.linalg.matrix_rank(members, tol=1e-6))
    return k, members


def split_spacetime(space, factors, count=256, rng=0):
    """Combine factor graphs into a product graph in a bigger space.

    Parameters
    ----------
    space : QuadraticSpace
        Ambient form.
    factors : list of (LipschitzGraph, ndarray)
        Each basis has one row per factor coordinate and maps the factor
        space isometrically onto a b-orthogonal summand of the ambient
        space.
    count : int
        Number of product samples (one factor sample per row each).

    Returns
    -------
    LipschitzGraph
        Sample-table graph over the assembled frame; its points are the
        normalized sums of one interior lift per factor.
    """
    gen = _rng(rng)
    r = len(factors)
    if r < 1:
        raise GeometryError("need at least one factor")
    for gi, (graph, basis) in enumerate(factors):
        basis = np.asarray(basis, dtype=float)
        carried = basis @ space.gram @ basis.T
        if np.linalg.norm(carried - graph.frame.space.gram) > 1e-8:
            raise GeometryError("factor %d basis does not carry its form" % gi)
        for gj in range(gi):
            other = np.asarray(factors[gj][1], dtype=float)
            if np.linalg.norm(basis @ space.gram @ other.T) > 1e-8:
                raise GeometryError(
                    "factor bases %d and %d are not b-orthogonal" % (gi, gj))
    space_rows = []
    time_rows = []
    for graph, basis in factors:
        basis = np.asarray(basis, dtype=float)
        mapped = graph.frame.vectors @ basis
        space_rows.append(mapped[:graph.p])
        time_rows.append(mapped[graph.p:])
    frame = TimelikeFrame(space, np.vstack(space_rows + time_rows),
                          sum(g.p for g, _ in factors))
    lifts = np.zeros((count, space.dim))
    for graph, basis in factors:
        basis = np.asarray(basis, dtype=float)
        U = graph.sample_domain(count, gen)
        if len(U) < count:
            raise GeometryError("factor sample table too small")
        U = U[:count]
        interior = U[:, 0] > BOUNDARY_ATOL
        if not np.all(interior):
            # resample equator hits away; boundary rows cannot enter the sum
            for i in np.where(~interior)[0]:
                row = U[i]
                row[0] = max(row[0], 1e-6)
                U[i] = row / np.linalg.norm(row)
        V = graph.evaluate(U)
        coeffs = np.hstack((U[:, 1:], V)) / U[:, :1]
        lifts += (coeffs @ graph.frame.vectors) @ basis
    lifts /= np.sqrt(r)
    U_out = np.zeros((count, frame.p + 1))
    V_out = np.zeros((count, frame.q + 1))
    for i in range(count):
        c = conformal_split(frame, HPoint(space, lifts[i]))
        U_out[i] = c.u
        V_out[i] = c.uprime
    return LipschitzGraph(frame, samples=(U_out, V_out))


def _direction_set(dim, count, gen):
    """Quasi-uniform unit directions in R^dim."""
    if dim < 1:
        raise GeometryError("no normal directions available")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack((np.cos(angles), np.sin(angles)))
    if dim == 3:
        # Fibonacci spiral on the 2-sphere
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        theta = np.pi * (1.0 + np.sqrt(5.0)) * k
        return np.column_stack((np.cos(theta) * np.sin(phi),
                                np.sin(theta) * np.sin(phi), np.cos(phi)))
    return _unit_rows(gen.normal(size=(count, dim)))


def timelike_distance(graph, boundary_lifts, bases=64, directions=64, rng=0):
    """Sampled timelike distance from a spacelike graph to a boundary set.

    For sampled base points o on the graph and unit timelike normals w,
    the geodesic cos(t) o + sin(t) w is followed to its first crossing of
    each hyperplane dual to a boundary lift; the infimum of those
    parameter lengths estimates the distance.
    """
    if graph.func is None:
        raise GeometryError("timelike distance needs a differentiable graph")
    lam = lift_rows(boundary_lifts)
    gen = _rng(rng)
    space = graph.frame.space
    p, q = graph.p, graph.q
    best = np.inf
    found = 0
    while found < bases:
        u = graph.sample_domain(1, gen)[0]
        if u[0] < 0.2:
            continue
        found += 1
        y = u[1:]

        def chart(yy):
            h = 1.0 - yy @ yy
            uu = np.concatenate(([np.sqrt(h)], yy))
            vv = graph.evaluate(uu[None, :])[0]
            return graph.frame.from_coords(
                np.concatenate((uu[1:], vv)) / uu[0])

        x = chart(y)
        tangents = np.zeros((p, space.dim))
        for i in range(p):
            step = np.zeros(p)
            step[i] = FD_STEP
            tangents[i] = (chart(y + step) - chart(y - step)) / (2 * FD_STEP)
        rows = np.vstack((tangents, x[None, :])) @ space.gram
        _, s, vt = np.linalg.svd(rows)
        rank = int(np.sum(s > 1e-8 * s[0]))
        normals = vt[rank:]
        if normals.shape[0] != q:
            raise GeometryError("normal space has unexpected dimension")
        gram_n = normals @ space.gram @ normals.T
        ev = np.linalg.eigvalsh(gram_n)
        if np.max(ev) >= 0.0:
            raise GeometryError("normal space is not negative definite")
        L = np.linalg.cholesky(-gram_n)
        ortho = np.linalg.solve(L, normals)
        for d in _direction_set(q, directions, gen):
            w = d @ ortho
            beta0 = lam @ space.gram @ x
            beta1 = lam @ space.gram @ w
            if np.any(beta0 >= 0.0):
                raise GeometryError(
                    "base point does not see all boundary lifts negatively")
            t = np.arctan2(-beta0, beta1)
            best = min(best, float(np.min(t)))
    return best

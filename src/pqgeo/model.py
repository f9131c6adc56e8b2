"""Projective model of pseudo-Riemannian hyperbolic space.

Points live on the quadric b(v, v) = -1 (interior) or the null cone
(boundary) of a form of signature (p, q+1). A choice of timelike frame
splits every point into a pair (u, u') of sphere coordinates, which turns
pair classification into a comparison of two spherical distances. Convex
domains cut out by half-spaces carry the Hilbert metric.
"""

import math

import numpy as np

from .forms import (PAIRING_BLOCK, GeometryError, QuadraticSpace,
                    standard_space)

VALIDATION_THRESHOLD = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53
BOUNDARY_ATOL = 1e-12

SPACELIKE = "spacelike"
LIGHTLIKE = "lightlike"
TIMELIKE = "timelike"
COINCIDENT = "coincident"

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


class SignConsistencyError(GeometryError):
    """No global lift-sign assignment exists; ``witness`` is an index cycle."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = list(witness)


def sphere_distance(u, v):
    """Angular distance between unit vectors, or between matching rows.

    The one clamp-and-check rule of every sphere distance: a dot whose
    size exceeds 1 + 1e-9, or that is not finite, is refused as non-unit
    input. Where |dot| > 0.99 the arc comes from the chord, as
    2 asin(|u - v| / 2) or pi - 2 asin(|u + v| / 2), since arccos loses
    half the digits of a small angle (a row paired with itself could
    read 1.5e-8); elsewhere the clamped dot goes through np.arccos.
    Rows keep the bits of a loop over pairs: np.vecdot gives the dots of
    a 1-D ``@`` (einsum or a row sum would not), and numpy's arccos and
    arcsin give the same angle on an array as on one value (math.acos
    would not). A single pair is clamped in Python, as np.clip costs ten
    times more.
    """
    dot = np.vecdot(u, v)
    if isinstance(dot, np.ndarray):
        if not np.all(np.abs(dot) <= 1.0 + 1e-9):
            raise GeometryError("sphere_distance got non-unit input")
        arc = np.arccos(np.clip(dot, -1.0, 1.0))
        near = np.flatnonzero(np.abs(dot) > 0.99)
        if near.size:
            ahead = dot[near] > 0.0
            chord = u[near] - np.where(ahead, 1.0, -1.0)[:, None] * v[near]
            half = 2.0 * np.arcsin(np.sqrt(np.vecdot(chord, chord)) / 2.0)
            arc[near] = np.where(ahead, half, np.pi - half)
        return arc
    if not abs(dot) <= 1.0 + 1e-9:
        raise GeometryError("sphere_distance got non-unit input")
    if abs(dot) > 0.99:
        chord = u - v if dot > 0.0 else u + v
        half = 2.0 * float(np.arcsin(math.sqrt(chord @ chord) / 2.0))
        return half if dot > 0.0 else math.pi - half
    return float(np.arccos(min(max(dot, -1.0), 1.0)))


def _norm(v):
    """Euclidean length of a vector, by the dot np.linalg.norm takes."""
    return math.sqrt(v @ v)


class HPoint:
    """A point of the interior quadric, stored as a lift with b(v, v) = -1."""

    def __init__(self, space, vec, normalize=False):
        vec = np.array(vec, dtype=float)
        if not np.all(np.isfinite(vec)):
            raise GeometryError("lift has non-finite entries")
        value = space.eval(vec)
        if normalize:
            if not value < 0.0:
                raise GeometryError("vector is not negative; cannot normalize")
            vec = vec / np.sqrt(-value)
        else:
            # Rounding puts b(v, v) up to about 2 d u rho |v|^2 off, more
            # than the absolute band on a long lift.
            rounding = 2 * len(vec) * UNIT_ROUNDOFF * (vec @ vec)
            band = max(space.spectral_radius, 1.0) * (VALIDATION_THRESHOLD
                                                      + rounding)
            if abs(value + 1.0) > band:
                raise GeometryError(
                    "lift is not on the b = -1 quadric (b(v,v) = %g)" % value)
        self.space = space
        self.vec = vec

    def __repr__(self):
        return "HPoint({})".format(np.array2string(self.vec, precision=6))


class BoundaryPoint:
    """A point of the boundary at infinity with a chosen lift orientation."""

    def __init__(self, space, vec, orientation=1):
        vec = np.array(vec, dtype=float)
        if not np.isfinite(vec).all():
            raise GeometryError("lift has non-finite entries")
        norm = _norm(vec)
        if norm == 0.0:
            raise GeometryError("zero vector is not a boundary point")
        vec /= norm
        value = space.eval(vec)
        if abs(value) > VALIDATION_THRESHOLD * max(space.spectral_radius, 1.0):
            raise GeometryError(
                "lift is not isotropic (b(v,v) = %g after normalization)" % value)
        if orientation not in (1, -1):
            raise GeometryError("orientation flag must be +1 or -1")
        self.space = space
        self.vec = vec
        self.orientation = int(orientation)

    @property
    def lift(self):
        return self.orientation * self.vec

    def flip(self):
        return BoundaryPoint(self.space, self.vec, -self.orientation)

    def __repr__(self):
        return "BoundaryPoint({}, orientation={:+d})".format(
            np.array2string(self.vec, precision=6), self.orientation)


class LimitSet:
    """Unit lifts as rows; ``rows[i]`` came from ball element ``source[i]``.

    Iteration yields :class:`BoundaryPoint` objects, whose own
    normalization can move the last bit of a row: read ``rows`` instead.
    """

    def __init__(self, space, rows, source):
        self.space = space
        self.rows = rows
        self.source = source

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return (BoundaryPoint(self.space, row) for row in self.rows)


class TimelikeFrame:
    """Orthonormal frame with p spacelike vectors followed by q+1 timelike.

    The negative-definite span of the last q+1 vectors is the timelike
    subspace driving the conformal splitting.
    """

    def __init__(self, space, vectors, p):
        vectors = np.array(vectors, dtype=float)
        d = space.dim
        if vectors.shape != (d, d):
            raise GeometryError("frame needs %d vectors of length %d" % (d, d))
        if not 1 <= p <= d - 1:
            raise GeometryError("spacelike count p out of range")
        expected = np.diag([1.0] * p + [-1.0] * (d - p))
        defect = np.linalg.norm(vectors @ space.gram @ vectors.T - expected)
        if defect > VALIDATION_THRESHOLD * max(space.spectral_radius, 1.0) * d:
            raise GeometryError("frame vectors are not b-orthonormal")
        self.space = space
        self.vectors = vectors
        self.p = p

    @property
    def q(self):
        return self.space.dim - self.p - 1

    @classmethod
    def standard(cls, p, q):
        space = standard_space(p, q + 1)
        return cls(space, np.eye(p + q + 1), p)

    def coords(self, vec):
        return np.linalg.solve(self.vectors.T, np.asarray(vec, dtype=float))

    def from_coords(self, coeffs):
        return self.vectors.T @ np.asarray(coeffs, dtype=float)


class ConformalCoords:
    """Splitting data: u on the closed hemisphere, u' on a sphere, weight r."""

    def __init__(self, u, uprime, r):
        self.u = np.asarray(u, dtype=float)
        self.uprime = np.asarray(uprime, dtype=float)
        self.r = float(r)

    def __repr__(self):
        return "ConformalCoords(u={}, uprime={}, r={:.6g})".format(
            np.array2string(self.u, precision=6),
            np.array2string(self.uprime, precision=6), self.r)


def _resolve_lift(space, x):
    """Return (vector, interior_flag) for a point-like input."""
    if isinstance(x, HPoint):
        return x.vec, True
    if isinstance(x, BoundaryPoint):
        return x.lift, False
    vec = np.asarray(x, dtype=float)
    kind = space.classify_vector(vec)
    if kind == "positive":
        raise GeometryError("positive vector has no conformal image")
    if kind == "negative":
        return vec / np.sqrt(-space.eval(vec)), True
    return vec / np.linalg.norm(vec), False


def conformal_split(frame, x):
    """Split a point into hemisphere/sphere coordinates for the frame.

    Interior points land in the open hemisphere (u0 > 0); boundary points
    land exactly on the equator u0 = 0. The radial weight r is the
    Euclidean size of the timelike component of the supplied lift.
    """
    vec, interior = _resolve_lift(frame.space, x)
    c = frame.coords(vec)
    m = c[frame.p:]
    r = _norm(m)
    if r < 1e-300:
        raise GeometryError("point has no timelike component in this frame")
    head = 1.0 if interior else 0.0
    u = np.concatenate(([head], c[:frame.p])) / r
    uprime = m / r
    return ConformalCoords(u, uprime, r)


def conformal_unsplit(frame, coords):
    """Rebuild the point from conformal coordinates.

    u0 > 0 returns an HPoint on the b = -1 sheet with r = 1/u0;
    u0 = 0 returns a BoundaryPoint. Negative u0 is outside the model.
    """
    u = np.asarray(coords.u, dtype=float)
    uprime = np.asarray(coords.uprime, dtype=float)
    if u.shape != (frame.p + 1,) or uprime.shape != (frame.q + 1,):
        raise GeometryError("conformal coordinate lengths do not match frame")
    for name, vec in (("u", u), ("uprime", uprime)):
        if abs(np.linalg.norm(vec) - 1.0) > VALIDATION_THRESHOLD:
            raise GeometryError("%s is not a unit vector" % name)
    u0 = u[0]
    if u0 < -BOUNDARY_ATOL:
        raise GeometryError("u0 < 0 does not correspond to a model point")
    if u0 <= BOUNDARY_ATOL:
        vec = frame.from_coords(np.concatenate((u[1:], uprime)))
        return BoundaryPoint(frame.space, vec)
    r = 1.0 / u0
    vec = frame.from_coords(r * np.concatenate((u[1:], uprime)))
    return HPoint(frame.space, vec, normalize=True)


def _coincident(v1, v2):
    e1 = v1 / _norm(v1)
    e2 = v2 / _norm(v2)
    return min(_norm(e1 - e2), _norm(e1 + e2)) <= 1e-8


def pair_class(x, y):
    """Classify a pair of interior points by the size of |b| of their lifts.

    Spacelike means |b| > 1, lightlike |b| = 1 within tolerance, timelike
    |b| < 1. Projectively equal points are reported as coincident.
    """
    if x.space is not y.space and x.space.dim != y.space.dim:
        raise GeometryError("points live in different spaces")
    space = x.space
    if _coincident(x.vec, y.vec):
        return COINCIDENT
    value = space.eval(x.vec, y.vec)
    band = space.tol * max(space.spectral_radius, 1.0) * max(1.0, abs(value))
    if abs(value) > 1.0 + band:
        return SPACELIKE
    if abs(value) < 1.0 - band:
        return TIMELIKE
    return LIGHTLIKE


def pair_class_conformal(frame, x, y):
    """Classify a same-sheet pair by comparing the two conformal distances.

    The pair is spacelike exactly when the hemisphere distance between the
    u components exceeds the sphere distance between the u' components.
    Requires lifts pairing non-positively; a positive pairing means the
    lifts sit on opposite sheets and one of them should be flipped first.
    """
    value = frame.space.eval(x.vec, y.vec)
    pos_band = frame.space.tol * max(frame.space.spectral_radius, 1.0)
    if value > pos_band:
        raise GeometryError(
            "lifts pair positively (b = %g); flip one lift onto the "
            "other sheet first" % value)
    band = max(frame.space.tol, 1e-12)
    c1 = conformal_split(frame, x)
    c2 = conformal_split(frame, y)
    d_dom = sphere_distance(c1.u, c2.u)
    d_img = sphere_distance(c1.uprime, c2.uprime)
    if d_dom <= band and d_img <= band:
        return COINCIDENT
    diff = d_dom - d_img
    if diff > band:
        return SPACELIKE
    if diff < -band:
        return TIMELIKE
    return LIGHTLIKE


def lift_rows(points):
    """Lift vectors as rows, from a LimitSet, BoundaryPoints or rows."""
    if isinstance(points, LimitSet):
        return points.rows
    if len(points) and isinstance(points[0], BoundaryPoint):
        return np.array([pt.lift for pt in points], dtype=float)
    return np.atleast_2d(np.asarray(points, dtype=float))


def lift_nonpositive(space, points):
    """Choose lift signs making all pairings non-positive.

    Signs spread from a root row, the first unsigned one: a row takes
    its sign from the out-of-band pairings (the band of
    :meth:`~pqgeo.forms.QuadraticSpace.pairing`) of the rows signed at
    the level before. The signed pairings are then checked in blocks of
    ``PAIRING_BLOCK`` rows, so no n x n array is formed. Only when a
    pair is out of band in either order and pairs non-negatively in
    either order does the sign walk over the full pairing run, to find
    the witness.

    Parameters
    ----------
    space : QuadraticSpace
    points : array-like or list of BoundaryPoint
        Isotropic vectors, one per row.

    Returns
    -------
    (lifts, signs, (margin, witness))
        Signed lift rows, the chosen sign per input row, and the smallest
        pairing magnitude over pairs i < j with the first such pair in
        row-major order (``(inf, None)`` for a single row).

    Raises
    ------
    SignConsistencyError
        When no assignment exists. The witness attribute holds a cycle
        of indices whose pairing signs cannot all be made non-positive.
    """
    lifts = lift_rows(points)
    signs = _spread_signs(space, lifts)
    found = _signed_margin(space, lifts, signs)
    if found is None:
        signs = _sign_walk(space, lifts)
        found = _signed_margin(space, lifts, signs)
    return lifts * signs[:, None], signs, found


def _spread_signs(space, lifts):
    """Signs from root rows, level by level over out-of-band pairings."""
    signs = np.zeros(len(lifts), dtype=int)
    unsigned = np.arange(len(lifts))
    while unsigned.size:
        signs[unsigned[0]] = 1
        frontier, unsigned = unsigned[:1], unsigned[1:]
        while frontier.size and unsigned.size:
            for lo in range(0, frontier.size, PAIRING_BLOCK):
                rows = frontier[lo:lo + PAIRING_BLOCK]
                pair, nonzero = space.pairing(lifts[rows], lifts[unsigned])
                hit = np.flatnonzero(nonzero.any(axis=0)
                                     & (signs[unsigned] == 0))
                by = np.argmax(nonzero[:, hit], axis=0)
                signs[unsigned[hit]] = -signs[rows[by]] * np.sign(
                    pair[by, hit])
            fresh = signs[unsigned] != 0
            frontier, unsigned = unsigned[fresh], unsigned[~fresh]
    return signs


def _signed_margin(space, lifts, signs):
    """Smallest pairing magnitude over i < j and its pair, or None.

    None means a clash: a pair out of band in either order whose signed
    pairing is non-negative in either order. A signed pairing below
    ``cut`` is out of band and negative, so only the few entries above it
    need their band, and a pair is looked up in the other order among
    those. Their magnitudes are below those of all other entries, so the
    margin is the least of them when one lies above the diagonal.
    """
    n = len(lifts)
    signed = lifts * signs[:, None]
    signed_gram = signed @ space.gram
    norms = np.linalg.norm(lifts, axis=1)
    scale = space.tol * max(space.spectral_radius, 1.0)
    top = norms.max()
    cut = -(top * top * scale)
    keys, outs, positive = [], [], []
    # The least magnitude above cut, and below it, with its pair.
    near = far = (math.inf, None)
    for lo in range(0, n, PAIRING_BLOCK):
        block = signed_gram[lo:lo + PAIRING_BLOCK] @ signed.T
        flat = block.reshape(-1)
        flat[lo + np.arange(len(block)) * (n + 1)] = -math.inf
        at = np.flatnonzero(flat >= cut)
        value = flat[at]
        flat[at] = -math.inf
        i, j = divmod(lo * n + at, n)
        band = np.multiply(norms[i], norms[j]) * scale
        out = (value > band) | (value < -band)
        if np.any(out & (value >= 0)):
            return None
        keys.append(i * n + j)
        outs.append(out)
        positive.append(value >= 0)
        above = np.flatnonzero(j > i)
        if above.size:
            k = above[np.argmin(np.abs(value[above]))]
            if abs(value[k]) < near[0]:
                near = (float(abs(value[k])), (int(i[k]), int(j[k])))
        elif near[1] is None:
            # Only negative entries below cut are left above the diagonal.
            upper = block[:, lo:]
            upper[:, :len(block)][np.tri(len(block), dtype=bool)] = -math.inf
            row = int(np.argmax(upper.max(axis=1)))
            column = int(np.argmax(upper[row]))
            if -upper[row, column] < far[0]:
                far = (float(-upper[row, column]), (lo + row, lo + column))
    keys, outs = np.concatenate(keys), np.concatenate(outs)
    positive = np.concatenate(positive)
    if np.any(positive):
        # The other order of a positive pair: out of band when it is
        # not among the entries above cut.
        other = (keys[positive] % n) * n + keys[positive] // n
        at = np.minimum(np.searchsorted(keys, other), len(keys) - 1)
        if np.any((keys[at] != other) | outs[at]):
            return None
    return near if near[1] is not None else far


def _sign_walk(space, lifts):
    """Signs by a walk over the full pairing; raises on the first clash."""
    pair, nonzero = space.pairing(lifts)
    k = lifts.shape[0]
    signs = np.zeros(k, dtype=int)
    parent = np.full(k, -1)

    def chain(v):
        out = [v]
        while parent[out[-1]] >= 0:
            out.append(int(parent[out[-1]]))
        return out

    for root in range(k):
        if signs[root]:
            continue
        signs[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            near = np.flatnonzero(nonzero[i])
            needed = -signs[i] * np.sign(pair[i, near]).astype(int)
            have = signs[near]
            clash = np.flatnonzero((have != 0) & (have != needed))
            if clash.size:
                chain_i = chain(i)
                chain_j = chain(int(near[clash[0]]))
                common = set(chain_i) & set(chain_j)
                cut_i = next(n for n, v in enumerate(chain_i) if v in common)
                cut_j = next(n for n, v in enumerate(chain_j) if v in common)
                cycle = chain_i[:cut_i + 1] + chain_j[:cut_j][::-1]
                raise SignConsistencyError(
                    "no sign assignment can make all pairings "
                    "non-positive", cycle)
            fresh = near[have == 0]
            signs[fresh] = needed[have == 0]
            parent[fresh] = i
            stack.extend(fresh.tolist())
    return signs


class HalfspaceDomain:
    """Intersection of half-spaces b(v, c_i) < 0 for constraint lifts c_i."""

    def __init__(self, space, constraints):
        constraints = np.atleast_2d(np.asarray(constraints, dtype=float))
        if constraints.shape[1] != space.dim:
            raise GeometryError("constraint vectors have wrong length")
        self.space = space
        self.constraints = constraints

    def membership(self, v):
        """Locate v relative to the domain.

        Returns a (status, worst_index) pair, where the index points at
        the constraint closest to violation (or most violated).
        """
        v = np.asarray(v, dtype=float)
        values = self.constraints @ self.space.gram @ v
        rownorms = np.linalg.norm(self.constraints, axis=1)
        weight = rownorms * max(np.linalg.norm(v), 1e-300)
        scales = self.space.tol * max(self.space.spectral_radius, 1.0) * weight
        worst = int(np.argmax(values / weight))
        if np.all(values < -scales):
            return INTERIOR, worst
        if np.any(values > scales):
            return OUTSIDE, worst
        return BOUNDARY, worst


def hilbert_distance(domain, y, z):
    """Hilbert distance between interior points of a half-space domain.

    The chord through y and z is intersected with every constraint
    hyperplane; the nearest intersections behind y and beyond z bound the
    cross-ratio. Normalization: collinear parameter values (0, 1, t, inf)
    give cross-ratio t, and the distance is half its logarithm.
    """
    y = y.vec if isinstance(y, HPoint) else np.asarray(y, dtype=float)
    z = z.vec if isinstance(z, HPoint) else np.asarray(z, dtype=float)
    for name, point in (("y", y), ("z", z)):
        status, idx = domain.membership(point)
        if status != INTERIOR:
            raise GeometryError(
                "%s is not interior to the domain (constraint %d)" % (name, idx))
    if _coincident(y, z):
        return 0.0
    gram = domain.space.gram
    by = domain.constraints @ gram @ y
    bz = domain.constraints @ gram @ z
    denom = bz - by
    # Chord parameters of the crossings, skipping near-parallel constraints.
    live = ~(np.abs(denom) < 1e-300)
    t = -by[live] / denom[live]
    behind = t[t <= 0.0]
    ahead = t[t >= 1.0]
    if not behind.size or not ahead.size:
        raise GeometryError(
            "chord escapes the domain; Hilbert distance is unbounded "
            "in this direction")
    t_a = float(np.max(behind))
    t_b = float(np.min(ahead))
    cross = ((1.0 - t_a) * t_b) / ((-t_a) * (t_b - 1.0))
    return 0.5 * float(np.log(cross))

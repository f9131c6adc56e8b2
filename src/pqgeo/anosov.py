"""Spectral diagnostics for matrix subgroups of indefinite orthogonal groups.

Everything here consumes word balls from :mod:`pqgeo.groups` and reports
eigenvalue data: Jordan projections, proximality classes, growth of the
top eigenvalue gap along word spheres, sampled limit sets with a
negativity test, and limit-cone rays.
"""

import math

import numpy as np

from .forms import GeometryError, NearIndex
from .model import (LimitSet, SignConsistencyError, lift_nonpositive,
                    lift_rows)

CLUSTER_REL = 1e-7
AMBIGUITY_REL = 1e-5
POINT_MERGE_TOL = 1e-6
RAY_ANGLE_TOL = 1e-6
FORM_PRECHECK = 1e-6


def jordan_projection(g, r=None):
    """Sorted log-moduli of the top r eigenvalues.

    Long products of hyperbolic elements legitimately have huge
    modulus spread, so singularity is flagged only when a requested
    modulus vanishes outright, not on the condition number.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise GeometryError("need a square matrix")
    moduli = np.sort(np.abs(np.linalg.eigvals(g)))[::-1]
    return _log_table(moduli[None], _rank(len(moduli), r))[0]


def _rank(d, r):
    if r is None:
        return d
    if not 1 <= r <= d:
        raise GeometryError("rank r out of range")
    return r


def _log_table(moduli, r):
    """Logs of the top r entries of every row of descending moduli.

    math.log on each entry gives the bits of np.log on a row that is a
    reversed view, as in a word ball's spectral table; np.log over the
    whole table, or on a contiguous row, rounds some entries differently.
    """
    if not np.isfinite(moduli).all() or not np.all(moduli[:, r - 1] > 0.0):
        raise GeometryError("matrix is singular to working precision")
    return np.array([[math.log(m) for m in row]
                     for row in moduli[:, :r].tolist()]).reshape(-1, r)


class ProximalityClass:
    """Flags describing how the top eigenvalue modulus is attained."""

    def __init__(self, proximal, semi_proximal, positively_semi_proximal,
                 undecided):
        self.proximal = bool(proximal)
        self.semi_proximal = bool(semi_proximal)
        self.positively_semi_proximal = bool(positively_semi_proximal)
        self.positively_proximal = self.proximal and \
            self.positively_semi_proximal
        self.undecided = bool(undecided)

    def __repr__(self):
        flags = []
        for name in ("proximal", "semi_proximal", "positively_semi_proximal",
                     "positively_proximal", "undecided"):
            if getattr(self, name):
                flags.append(name)
        return "ProximalityClass({})".format(", ".join(flags) or "none")


def proximality_class(g):
    """Classify the top-modulus eigenvalue cluster of g.

    Proximal means the cluster is a single simple real eigenvalue.
    Eigenvalues within relative distance 1e-7 of the top modulus join the
    cluster; anything in the (1e-7, 1e-5) relative band marks the result
    undecided instead of silently picking a side.
    """
    g = np.asarray(g, dtype=float)
    eigenvalues = np.linalg.eigvals(g)
    moduli = np.abs(eigenvalues)
    top = float(np.max(moduli))
    if top <= 0.0:
        raise GeometryError("matrix is singular to working precision")
    in_cluster = moduli >= top * (1.0 - CLUSTER_REL)
    in_band = (~in_cluster) & (moduli > top * (1.0 - AMBIGUITY_REL))
    cluster = eigenvalues[in_cluster]
    real = cluster.imag == 0.0
    proximal = cluster.shape[0] == 1 and bool(real[0])
    semi = bool(np.any(real))
    positively_semi = bool(np.any(real & (cluster.real > 0.0)))
    return ProximalityClass(proximal, semi, positively_semi,
                            bool(np.any(in_band)))


class GapSeries:
    """Per-word-length statistics of the top eigenvalue gap."""

    def __init__(self, lengths, mins, medians, counts):
        self.lengths = list(lengths)
        self.mins = list(mins)
        self.medians = list(medians)
        self.counts = list(counts)

    def rows(self):
        return list(zip(self.lengths, self.mins, self.medians, self.counts))

    def __repr__(self):
        return "GapSeries(lengths=1..{}, mins={})".format(
            self.lengths[-1] if self.lengths else 0,
            ["%.3g" % m for m in self.mins])


def _cyclic_reduce(word, inverse_letter):
    while len(word) >= 2 and inverse_letter[word[-1]] == word[0]:
        word = word[1:-1]
    return word


def _canonical_rotation(word):
    return min(word[i:] + word[:i] for i in range(len(word)))


def gap_series(ball, r):
    """Gap statistics per sphere, over cyclic-reduction representatives.

    A word whose cyclic reduction is shorter is a conjugate of an element
    counted on an earlier sphere and is skipped; rotations of the same
    cyclic word are merged. The identity is excluded. Projections are
    read from the ball's spectral table.
    """
    if r < 2:
        raise GeometryError("gap statistics need r >= 2")
    r = _rank(ball.moduli.shape[1], r)
    seen = set()
    kept = []
    for i, word in enumerate(ball.words[1:], 1):
        reduced = _cyclic_reduce(word, ball.inverse_letter)
        if len(reduced) < len(word):
            continue
        key = _canonical_rotation(reduced)
        if key in seen:
            continue
        seen.add(key)
        kept.append((len(word), i))
    lam = _log_table(ball.moduli[[i for _, i in kept]], r)
    per_length = {length: [] for length in range(1, ball.L + 1)}
    for (length, _), gap in zip(kept, (lam[:, 0] - lam[:, 1]).tolist()):
        per_length[length].append(gap)
    spheres = list(per_length.values())
    return GapSeries(list(per_length),
                     [min(gaps) if gaps else math.nan for gaps in spheres],
                     [float(np.median(gaps)) if gaps else math.nan
                      for gaps in spheres],
                     [len(gaps) for gaps in spheres])


def _unit_rows(rows):
    """Rows over their Euclidean norms; np.vecdot keeps a per-row norm's bits."""
    return rows / np.sqrt(np.vecdot(rows, rows))[:, None]


def sample_limit_set(space, ball, gap_threshold):
    """Attracting fixed points of ball elements with a solid eigenvalue gap.

    Only elements whose top two log-moduli differ by at least the
    threshold emit a point, which makes the top eigenvalue simple and
    real; the resulting eigenvector is isotropic because the element
    preserves the form. Projectively duplicate points are merged, the
    first kept point winning. Returns a :class:`~pqgeo.model.LimitSet`.

    The gaps come from the ball's spectral table. One stacked
    ``np.linalg.eig`` serves every emitting element, and the eigenvectors
    are scaled and checked as one array, and one
    :meth:`~pqgeo.forms.NearIndex.keep_first` call merges them.
    """
    if not 0.0 < gap_threshold < math.inf:
        raise GeometryError("gap threshold must be positive and finite")
    stack = ball.stack
    residual = np.linalg.norm(
        stack.transpose(0, 2, 1) @ space.gram @ stack - space.gram,
        axis=(1, 2))
    bound = FORM_PRECHECK * np.maximum(
        1.0, np.linalg.norm(stack, axis=(1, 2)) ** 2)
    bad = np.flatnonzero(residual > bound)
    if bad.size:
        raise GeometryError(
            "ball element %s does not preserve the form (residual %g)"
            % (ball.word_label(ball.words[bad[0]]), residual[bad[0]]))
    lam = _log_table(ball.moduli[1:], _rank(ball.moduli.shape[1], 2))
    emitting = 1 + np.flatnonzero(lam[:, 0] - lam[:, 1] >= gap_threshold)
    values, vectors = np.linalg.eig(stack[emitting])
    top = np.argmax(np.abs(values), axis=1)[:, None, None]
    vecs = np.take_along_axis(vectors, top, axis=2)[:, :, 0]
    pivots = np.take_along_axis(
        vecs, np.argmax(np.abs(vecs), axis=1)[:, None], axis=1)
    rows = vecs / pivots
    if np.max(np.abs(rows.imag), initial=0.0) > 1e-8:
        raise GeometryError("top eigenvector is not real")
    # The stack is complex when any element has a complex spectrum; an
    # element with a real spectrum divides in real arithmetic, as its own
    # eig call would. The copy is contiguous: np.vecdot rounds differently
    # on the strided .real view.
    rows = rows.real.copy()
    real = ~np.any(values.imag, axis=1)
    rows[real] = vecs[real].real / pivots[real].real
    once = _unit_rows(rows)
    isotropy = np.abs(space.eval(once))
    bad = np.flatnonzero(isotropy > 1e-8 * max(space.spectral_radius, 1.0))
    if bad.size:
        raise GeometryError(
            "limit point fails isotropy: |b| = %g" % isotropy[bad[0]])
    keep = NearIndex(space.dim, POINT_MERGE_TOL).keep_first(
        once, _points_close, mirror=True)
    # The second normalization is the one a BoundaryPoint applies.
    return LimitSet(space, _unit_rows(once[keep]), emitting[keep])


def _points_close(stored, query):
    """Unit lifts within POINT_MERGE_TOL of each other."""
    return np.linalg.norm(stored - query, axis=1) <= POINT_MERGE_TOL


class NegativityReport:
    """Outcome of the pairwise-negativity test on boundary points."""

    def __init__(self, status, margin, witness):
        self.status = status
        self.margin = margin
        self.witness = witness

    def __repr__(self):
        return "NegativityReport({}, margin={})".format(self.status,
                                                        self.margin)


def negativity_test(space, points):
    """Check whether boundary points admit pairwise-negative lifts.

    Runs the coherent sign assignment; "negative" needs every pairing of
    unit lifts below the tolerance band, "non-positive-only" admits
    pairings at zero, "inconsistent" means no sign assignment works (the
    witness is the odd cycle found). The margin is the smallest pairing
    magnitude.
    """
    rows = lift_rows(points)
    if len(rows) < 2:
        raise GeometryError("negativity test needs at least two points")
    lifts = _unit_rows(rows)
    try:
        _, _, pairing = lift_nonpositive(space, lifts)
    except SignConsistencyError as err:
        return NegativityReport("inconsistent", 0.0, err.witness)
    # Sign flips are exact, so |pairing| is also that of the signed lifts.
    np.abs(pairing, out=pairing)
    n = pairing.shape[0]
    # Only pairs i < j; argmin keeps the first minimum in row-major order.
    pairing[np.tri(n, dtype=bool)] = math.inf
    witness = divmod(int(np.argmin(pairing)), n)
    margin = float(pairing[witness])
    band = space.tol * max(space.spectral_radius, 1.0)
    status = "negative" if margin > band else "non-positive-only"
    return NegativityReport(status, margin, witness)


def limit_cone_sample(ball, r):
    """Normalized Jordan projections of nontrivial ball elements.

    Elements whose projection vanishes (elliptics) are skipped; rays
    closer than 1e-6 radians are merged. Returns an array with one unit
    ray per row. Projections are read from the ball's spectral table,
    and r is checked against the dimension before any entry is read.

    Rays are filtered by a :class:`~pqgeo.forms.NearIndex` of radius
    1e-6: two unit rays at angle t are 2 sin(t/2) <= t apart, so every ray
    the angle test can merge with is among its candidates.
    """
    r = _rank(ball.moduli.shape[1], r)
    lam = _log_table(ball.moduli[1:], r)
    norms = np.sqrt(np.vecdot(lam, lam))
    moving = norms > 1e-12
    rays = lam[moving] / norms[moving, None]
    return rays[NearIndex(r, RAY_ANGLE_TOL).keep_first(rays, _rays_close)]


def _rays_close(stored, query):
    """Unit rays within RAY_ANGLE_TOL radians, angles taken per pair.

    math.acos on each clamped dot keeps the bits of a loop over pairs;
    np.arccos on the array is not known to.
    """
    return np.array([math.acos(min(1.0, max(-1.0, dot))) <= RAY_ANGLE_TOL
                     for dot in np.vecdot(query, stored).tolist()],
                    dtype=bool)

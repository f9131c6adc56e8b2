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
    """Sorted log-moduli of the top r eigenvalues, from eig of g.

    Long products of hyperbolic elements legitimately have huge
    modulus spread, so singularity is flagged only when a requested
    modulus vanishes outright, not on the condition number. A word
    ball's elements read theirs from its class table instead.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise GeometryError("need a square matrix")
    with np.errstate(divide="ignore"):
        lam = np.log(np.sort(np.abs(np.linalg.eigvals(g)))[::-1])
    return _top(lam[None], r)[0]


def _top(jordan, r):
    """The first r columns of a table of log-moduli (all of them for None)."""
    r = jordan.shape[1] if r is None else r
    if not 1 <= r <= jordan.shape[1]:
        raise GeometryError("rank r out of range")
    if not np.isfinite(jordan[:, :r]).all():
        raise GeometryError("matrix is singular to working precision")
    return jordan[:, :r]


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


def gap_series(ball, r):
    """Gap statistics per sphere, one entry per class of cyclic words.

    A class is counted on the sphere of its key's length if a cyclically
    reduced word of the ball meets it; a word whose cyclic reduction is
    shorter is a conjugate of an element counted on an earlier sphere.
    Projections are read from the ball's class table.
    """
    if r < 2:
        raise GeometryError("gap statistics need r >= 2")
    lam = _top(ball.jordan, r)
    gaps = lam[:, 0] - lam[:, 1]
    size = np.array([len(key) for key in ball.keys], dtype=int)
    depth = np.array([len(word) for word in ball.words[1:]], dtype=int)
    met = np.zeros(len(size), dtype=bool)
    met[ball.cls[1:][depth == size[ball.cls[1:]]]] = True
    spheres = [gaps[met & (size == length)] for length in range(1, ball.L + 1)]
    return GapSeries(range(1, ball.L + 1),
                     [float(np.min(g)) if g.size else math.nan
                      for g in spheres],
                     [float(np.median(g)) if g.size else math.nan
                      for g in spheres],
                     [g.size for g in spheres])


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

    Gaps and attractors come from the ball's class table: element i
    emits ``stack[conj[i]] @ attractor[cls[i]]``, its largest entry made
    positive and its norm 1, and one
    :meth:`~pqgeo.forms.NearIndex.keep_first` call merges the points.
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
    lam = _top(ball.jordan, 2)
    solid = lam[:, 0] - lam[:, 1] >= gap_threshold
    emitting = 1 + np.flatnonzero(solid[ball.cls[1:]])
    rows = (stack[ball.conj[emitting]]
            @ ball.attractor[ball.cls[emitting], :, None])[..., 0]
    pivots = np.take_along_axis(
        rows, np.argmax(np.abs(rows), axis=1)[:, None], axis=1)
    rows = _unit_rows(rows * np.sign(pivots))
    isotropy = np.abs(space.eval(rows))
    bad = np.flatnonzero(isotropy > 1e-8 * max(space.spectral_radius, 1.0))
    if bad.size:
        raise GeometryError(
            "limit point fails isotropy: |b| = %g" % isotropy[bad[0]])
    keep = NearIndex(space.dim, POINT_MERGE_TOL).keep_first(
        rows, _points_close, mirror=True)
    return LimitSet(space, rows[keep], emitting[keep])


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
    if not np.all(np.isfinite(rows)) or not np.all(np.any(rows, axis=1)):
        raise GeometryError("negativity test needs finite nonzero lifts")
    try:
        _, _, (margin, witness) = lift_nonpositive(space, _unit_rows(rows))
    except SignConsistencyError as err:
        return NegativityReport("inconsistent", 0.0, err.witness)
    band = space.tol * max(space.spectral_radius, 1.0)
    status = "negative" if margin > band else "non-positive-only"
    return NegativityReport(status, margin, witness)


def limit_cone_sample(ball, r):
    """Normalized Jordan projections, one per class of the ball.

    Classes whose projection vanishes (elliptics) are skipped. Rays with
    a chord of at most 1e-6, hence all rays within 1e-6 radians (2 sin(t/2)
    <= t), are merged by a :class:`~pqgeo.forms.NearIndex`. Returns one
    unit ray per row; r is checked before any entry is read.
    """
    lam = _top(ball.jordan, r)
    norms = np.sqrt(np.vecdot(lam, lam))
    moving = norms > 1e-12
    rays = lam[moving] / norms[moving, None]
    return rays[NearIndex(r, RAY_ANGLE_TOL).keep_first(rays, _rays_close)]


def _rays_close(stored, query):
    """Unit rays whose chord is within RAY_ANGLE_TOL."""
    return np.linalg.norm(stored - query, axis=1) <= RAY_ANGLE_TOL

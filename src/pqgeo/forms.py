"""Symmetric bilinear forms on finite-dimensional real vector spaces.

Everything downstream (models, graphs, crowns, group diagnostics) talks to a
form through the :class:`QuadraticSpace` wrapper defined here, so tolerance
conventions live in one place: comparisons are relative to the spectral
radius of the Gram matrix.
"""

import math
import random

import numpy as np

DEFAULT_TOLERANCE = 1e-9
PAIRING_BLOCK = 256
NEAR_BLOCK = 128
NEAR_INDEX_SEED = 0

POSITIVE = "positive"
NEGATIVE = "negative"
ISOTROPIC = "isotropic"


class GeometryError(Exception):
    """Raised when geometric preconditions fail or a computation degenerates."""
    pass


class Signature:
    """Eigenvalue sign census (pos, neg | null) of a symmetric form."""

    def __init__(self, pos, neg, null=0):
        self.pos = int(pos)
        self.neg = int(neg)
        self.null = int(null)

    @property
    def dim(self):
        return self.pos + self.neg + self.null

    @property
    def degenerate(self):
        return self.null > 0

    def as_tuple(self):
        return (self.pos, self.neg, self.null)

    def as_dict(self):
        return {"pos": self.pos, "neg": self.neg, "null": self.null}

    def __iter__(self):
        return iter(self.as_tuple())

    def __eq__(self, other):
        if isinstance(other, Signature):
            return self.as_tuple() == other.as_tuple()
        return self.as_tuple() == tuple(other)

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return "Signature({}, {}|{})".format(self.pos, self.neg, self.null)


def sign_census(ev, tol):
    """Counts (pos, neg) of eigenvalues beyond +-tol * radius.

    Eigenvalues run along the last axis, so a stack of spectra gives one
    count per row. The radius is the largest magnitude in the row, so
    uniform scaling of a form never changes its census.
    """
    thresh = tol * np.max(np.abs(ev), axis=-1, keepdims=True, initial=0.0)
    return (np.count_nonzero(ev > thresh, axis=-1),
            np.count_nonzero(ev < -thresh, axis=-1))


class QuadraticSpace:
    """A real vector space with a symmetric bilinear form.

    Parameters
    ----------
    gram : array-like
        Symmetric Gram matrix of the form. Degenerate matrices are
        accepted; the null count simply shows up in the signature.
    tol : float, optional
        Relative tolerance for sign decisions, measured against the
        spectral radius of the Gram matrix; finite and non-negative.
        Defaults to ``DEFAULT_TOLERANCE``.
    """

    def __init__(self, gram, tol=None):
        gram = np.array(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise GeometryError("Gram matrix must be square")
        if not np.all(np.isfinite(gram)):
            raise GeometryError("Gram matrix has non-finite entries")
        sym_defect = np.max(np.abs(gram - gram.T)) if gram.size else 0.0
        scale = np.max(np.abs(gram)) if gram.size else 0.0
        if sym_defect > 1e-12 * max(scale, 1.0):
            raise GeometryError("Gram matrix is not symmetric")
        self.gram = (gram + gram.T) / 2.0
        self.tol = DEFAULT_TOLERANCE if tol is None else float(tol)
        if not 0.0 <= self.tol < math.inf:
            raise GeometryError("tolerance must be finite and non-negative")
        self._eigenvalues = None
        self._spectral_radius = None
        self._signature = None

    @property
    def dim(self):
        return self.gram.shape[0]

    @property
    def eigenvalues(self):
        if self._eigenvalues is None:
            self._eigenvalues = np.linalg.eigvalsh(self.gram)
        return self._eigenvalues

    @property
    def spectral_radius(self):
        if self._spectral_radius is None:
            ev = self.eigenvalues
            self._spectral_radius = float(np.max(np.abs(ev))) if ev.size \
                else 0.0
        return self._spectral_radius

    @property
    def signature(self):
        """Signature of the form via eigendecomposition.

        An eigenvalue counts as null when its magnitude is at most
        ``tol`` times the spectral radius, so uniform scaling of the
        Gram matrix never changes the census.
        """
        if self._signature is None:
            pos, neg = sign_census(self.eigenvalues, self.tol)
            self._signature = Signature(pos, neg, self.dim - pos - neg)
        return self._signature

    @property
    def is_degenerate(self):
        return self.signature.degenerate

    def eval(self, v, w=None):
        """Evaluate the form, b(v, w). With one argument returns b(v, v).

        Inputs broadcast over leading axes; the last axis is the vector
        coordinate axis.
        """
        v = np.asarray(v, dtype=float)
        if w is None:
            w = v
        else:
            w = np.asarray(w, dtype=float)
        if v.shape[-1] != self.dim or w.shape[-1] != self.dim:
            raise GeometryError(
                "vector length does not match form dimension %d" % self.dim)
        out = np.einsum("...i,ij,...j->...", v, self.gram, w)
        if out.ndim == 0:
            return float(out)
        return out

    def pairing(self, rows, others=None):
        """Pairing matrix of two row sets and its out-of-band mask.

        Returns ``(pair, nonzero)`` with ``pair = rows @ gram @ others.T``,
        formed in blocks of ``PAIRING_BLOCK`` rows, and ``nonzero`` true
        where ``|pair|`` exceeds the band
        ``tol * max(spectral_radius, 1) * |row| * |other|``, the one band
        for every sign decision on boundary lifts. Without ``others`` the
        rows pair with themselves; the product is then symmetric only up
        to rounding, so an entry counts as nonzero when either order is
        out of band, and the diagonal is false.
        """
        rows = np.asarray(rows, dtype=float)
        same = others is None
        others = rows if same else np.asarray(others, dtype=float)
        row_gram = rows @ self.gram
        row_norms = np.linalg.norm(rows, axis=1)
        other_norms = np.linalg.norm(others, axis=1)
        scale = self.tol * max(self.spectral_radius, 1.0)
        pair = np.empty((len(rows), len(others)))
        nonzero = np.empty(pair.shape, dtype=bool)
        # Row blocks keep the band small. BLAS rounds an entry by where it
        # falls in the product's tiling, so the product is formed in the
        # same blocks as the signed check of model.lift_nonpositive.
        for lo in range(0, len(pair), PAIRING_BLOCK):
            block = pair[lo:lo + PAIRING_BLOCK]
            np.matmul(row_gram[lo:lo + PAIRING_BLOCK], others.T, out=block)
            band = np.outer(row_norms[lo:lo + PAIRING_BLOCK], other_norms)
            band *= scale
            nonzero[lo:lo + PAIRING_BLOCK] = (block > band) | (block < -band)
        if same:
            nonzero |= nonzero.T
            np.fill_diagonal(nonzero, False)
        return pair, nonzero

    def classify_vector(self, v):
        """Sign class of a nonzero vector: positive, negative, or isotropic.

        The isotropic band scales with ``tol * |v|^2 * spectral_radius``.
        """
        v = np.asarray(v, dtype=float)
        norm2 = float(v @ v)
        if norm2 == 0.0:
            raise GeometryError("cannot classify the zero vector")
        value = self.eval(v)
        band = self.tol * norm2 * self.spectral_radius
        if value > band:
            return POSITIVE
        if value < -band:
            return NEGATIVE
        return ISOTROPIC

    def restrict(self, basis):
        """Form restricted to the span of independent row vectors.

        Returns a new :class:`QuadraticSpace` of dimension ``len(basis)``.
        """
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        if basis.shape[1] != self.dim:
            raise GeometryError("basis vectors have wrong length")
        k = basis.shape[0]
        if np.linalg.matrix_rank(basis) < k:
            raise GeometryError("restriction basis is linearly dependent")
        return QuadraticSpace(basis @ self.gram @ basis.T, tol=self.tol)

    def orthogonal_complement(self, vectors):
        """Basis (rows) of the b-orthogonal complement of a span.

        Requires a non-degenerate form; with radical present the
        complement of a subspace is not a complement in the linear
        algebra sense and the call is refused.
        """
        if self.is_degenerate:
            raise GeometryError(
                "orthogonal complement needs a non-degenerate form")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[1] != self.dim:
            raise GeometryError("span vectors have wrong length")
        pairing = vectors @ self.gram
        u, s, vt = np.linalg.svd(pairing)
        if s.size:
            rank = int(np.sum(s > self.tol * s[0])) if s[0] > 0 else 0
        else:
            rank = 0
        return vt[rank:]

    def isometry_residual(self, g):
        """Frobenius residual of the form-preservation identity for g."""
        g = np.asarray(g, dtype=float)
        return float(np.linalg.norm(g.T @ self.gram @ g - self.gram))

    def __repr__(self):
        return "QuadraticSpace(dim={}, signature={!r})".format(
            self.dim, self.signature)


class NearIndex:
    """Kept rows under a fixed random unit projection, for duplicate filters.

    :meth:`keep_first` decides a whole array of rows at once: a row is
    kept unless the caller's predicate finds it close to a row kept
    before it, by this index or earlier in the same call. The predicate
    is tried only on rows whose projections lie within twice the radius
    of each other. The projection is 1-Lipschitz, so every row within
    ``radius`` is among them, and the decisions are those of a scan over
    all kept rows; the wide window leaves room for rounding in the
    projection.
    """

    def __init__(self, dim, radius):
        # The standard library generator: numpy.random would add its
        # import to every command that builds a word ball.
        gauss = random.Random(NEAR_INDEX_SEED).gauss
        direction = np.array([gauss(0.0, 1.0) for _ in range(dim)])
        self.direction = direction / np.linalg.norm(direction)
        self.width = 2.0 * radius
        self.rows = np.empty((64, dim))
        self.count = 0
        # Projections of the kept rows, ascending, and the row of each.
        self.keys = np.empty(0)
        self.slots = np.empty(0, dtype=np.intp)

    def keep_first(self, rows, close, mirror=False):
        """Keep mask of rows, the first of each group of close rows winning.

        ``close(stored, query)`` gets two arrays of paired rows, an
        earlier row first, and returns a boolean per pair. With
        ``mirror`` a row is also dropped when an earlier kept row is close
        to its negation, tried as ``close(stored, -query)``. Kept rows
        join the index, in order.
        """
        rows = np.asarray(rows, dtype=float)
        keys = rows @ self.direction
        if not np.isfinite(keys).all():
            raise GeometryError("near-neighbour index needs finite rows")
        signs = (1.0, -1.0) if mirror else (1.0,)
        keep = np.empty(len(rows), dtype=bool)
        for lo in range(0, len(rows), NEAR_BLOCK):
            block = rows[lo:lo + NEAR_BLOCK]
            block_keys = keys[lo:lo + NEAR_BLOCK]
            kept = self._resolve(block, block_keys, close, signs)
            self._store(block[kept], block_keys[kept])
            keep[lo:lo + NEAR_BLOCK] = kept
        return keep

    def _resolve(self, block, keys, close, signs):
        """Keep mask of one block against the kept rows and itself."""
        n = len(block)
        dropped = np.zeros(n, dtype=bool)
        # Each query's window of kept rows, as ranges of the sorted keys.
        for sign in signs:
            start = np.searchsorted(self.keys, sign * keys - self.width)
            stop = np.searchsorted(self.keys, sign * keys + self.width,
                                   "right")
            counts = stop - start
            query = np.repeat(np.arange(n), counts)
            ends = np.cumsum(counts)
            spot = np.arange(ends[-1]) + np.repeat(start - ends + counts,
                                                   counts)
            if query.size:
                hit = close(self.rows[self.slots[spot]],
                            block[query] if sign > 0 else -block[query])
                dropped[query[hit]] = True
        # Earlier rows of the block within the window, as (source, target)
        # edges with the sign the target is tried with.
        src, dst, neg = [], [], []
        for sign in signs:
            near = np.abs(keys[:, None] - sign * keys) <= self.width
            near &= ~dropped[:, None] & ~dropped
            e, i = np.nonzero(np.triu(near, 1))
            src.append(e)
            dst.append(i)
            neg.append(np.full(len(e), sign < 0))
        src, dst, neg = (np.concatenate(a) for a in (src, dst, neg))
        # First kept wins, in rounds: edges from kept rows to open rows are
        # tried, and a hit drops its target; then an open row whose earlier
        # neighbours are all decided is kept. The first open row always
        # has every earlier neighbour decided, so each round makes progress.
        kept = np.zeros(n, dtype=bool)
        open_ = ~dropped
        tried = np.zeros(len(src), dtype=bool)
        while open_.any():
            todo = np.flatnonzero(kept[src] & open_[dst] & ~tried)
            if todo.size:
                tried[todo] = True
                query = block[dst[todo]]
                query[neg[todo]] *= -1.0
                hit = close(block[src[todo]], query)
                open_[dst[todo[hit]]] = False
            waiting = np.zeros(n, dtype=bool)
            waiting[dst[open_[src]]] = True
            ready = open_ & ~waiting
            kept |= ready
            open_ &= ~ready
        return kept

    def _store(self, rows, keys):
        """Append kept rows, doubling the capacity when it runs out."""
        end = self.count + len(rows)
        if end > len(self.rows):
            grown = np.empty((max(end, 2 * len(self.rows)),
                              self.rows.shape[1]))
            grown[:self.count] = self.rows[:self.count]
            self.rows = grown
        self.rows[self.count:end] = rows
        order = np.argsort(keys, kind="stable")
        at = np.searchsorted(self.keys, keys[order])
        self.keys = np.insert(self.keys, at, keys[order])
        self.slots = np.insert(self.slots, at, self.count + order)
        self.count = end


def standard_space(p, q, tol=None):
    """Diagonal form diag(1,...,1,-1,...,-1) with p plus and q minus signs."""
    signs = [1.0] * p + [-1.0] * q
    return QuadraticSpace(np.diag(signs), tol=tol)


def boost(d, i, j, rapidity):
    """Boost of R^d in the (i, j) plane, for form signs that differ there."""
    M = np.eye(d)
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    M[i, i] = M[j, j] = c
    M[i, j] = M[j, i] = s
    return M


def rotation(d, i, j, angle):
    """Rotation of R^d in the (i, j) plane, for equal form signs there."""
    M = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    M[i, i] = M[j, j] = c
    M[i, j], M[j, i] = -s, s
    return M

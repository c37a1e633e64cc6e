"""Descriptor preprocessing: Hellinger normalization, PCA/whitening, k-means
pseudo-labeling and the ambiguity filter that drops descriptors sitting near
cluster borders.

Descriptors arrive as an ``(n, d)`` matrix, one row each; a lone
descriptor is a one-row matrix. Fitted models are immutable, and every
function is pure except ``fit_transform_pca_in_place``, which centers the
matrix it is handed in place so that the cluster stage holds no centered
copy of its largest matrix.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 300
# Rows per distance block in k-means: bounds the (rows, k) temporary.
NEAREST_CHUNK = 1024
# Rows per block of an (n, n) score matrix in retrieval and encoding_gram:
# bounds their (rows, n) temporaries.
RANK_BLOCK = 64


def as_matrix(x: np.ndarray, what: str, dim: int | None = None) -> np.ndarray:
    """``x`` as a float64 ``(n, d)`` matrix, with ``d == dim`` when given."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or (dim is not None and arr.shape[1] != dim):
        width = "d" if dim is None else dim
        raise ValidationError(f"{what} expects an (n, {width}) matrix, got shape {arr.shape}")
    return arr


def row_blocks(n: int, rows: int) -> list[slice]:
    """Consecutive slices over range(n), each `rows` long except the last,
    which also takes the remainder: no block is shorter than `rows` unless
    n is. A product over a few rows may take another BLAS kernel than the
    whole product (numpy takes a matrix-vector one for a single row) and
    round differently, so a short tail block would not give the whole
    product's rows bitwise."""
    edges = [0, *range(rows, n - rows + 1, rows), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def hellinger_normalize(d: np.ndarray) -> np.ndarray:
    """Elementwise square root followed by l1 normalization.

    Input entries must be non-negative (histogram-style descriptors). An
    all-zero descriptor maps to the zero vector. The input is left as it
    is; the result is one new array, divided in place inside the square
    roots' buffer.
    """
    batch = as_matrix(d, "hellinger_normalize")
    if not np.all(np.isfinite(batch)):
        raise ValidationError("descriptor contains non-finite entries")
    if np.any(batch < 0):
        raise ValidationError("hellinger_normalize requires non-negative entries")
    out = np.sqrt(batch)
    norms = out.sum(axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    out[norms[:, 0] == 0.0] = 0.0  # an all-zero row may hold -0.0
    return out


@dataclass(frozen=True)
class PcaModel:
    """Fitted projection: y = scale * (basis @ (x - mean)).

    ``basis`` rows are orthonormal principal directions. ``scale`` holds the
    reciprocal square roots of the component variances when ``whiten`` is on,
    all ones otherwise.
    """

    mean: np.ndarray   # (d_in,)
    basis: np.ndarray  # (d_out, d_in)
    scale: np.ndarray  # (d_out,)
    whiten: bool

    @property
    def d_in(self) -> int:
        return self.mean.shape[0]

    @property
    def d_out(self) -> int:
        return self.basis.shape[0]


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} input contains non-finite entries")


def _check_fit_input(x: np.ndarray, target_dim: int, what: str) -> None:
    n, d = x.shape
    _check_finite(x, what)
    if target_dim < 1 or target_dim > d:
        raise ValidationError(f"target_dim must be in [1, {d}], got {target_dim}")
    if n <= target_dim:
        raise ValidationError(f"need more than target_dim={target_dim} samples, got {n}")


def _fit_centered(
    centered: np.ndarray, mean: np.ndarray, target_dim: int, whiten: bool
) -> PcaModel:
    """The PCA of data whose column means ``mean`` are already subtracted
    in ``centered``, which is read and left as it is."""
    n, d = centered.shape
    if n >= d:
        # Ascending eigenvalues of the (d, d) scatter matrix: the squared
        # singular values of the centered data.
        power, vectors = np.linalg.eigh(centered.T @ centered)
        power, vt = power[::-1], vectors[:, ::-1].T
    else:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        power = s**2
    tol = max(n, d) * np.finfo(np.float64).eps * power[0]
    rank = int(np.sum(power > tol))
    if rank < target_dim:
        raise ValidationError(
            f"centered data has rank {rank}, below target_dim={target_dim}"
        )
    basis = vt[:target_dim].copy()
    # Deterministic sign: largest-magnitude entry of each component positive.
    for row in basis:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    variances = power[:target_dim] / (n - 1)
    scale = 1.0 / np.sqrt(variances) if whiten else np.ones(target_dim)
    return PcaModel(mean=mean, basis=basis, scale=scale, whiten=whiten)


def fit_pca(data: np.ndarray, target_dim: int, whiten: bool = False) -> PcaModel:
    """Fit the top ``target_dim`` principal components of mean-centered data.

    With at least as many samples as dimensions the components come from
    the eigendecomposition of the (d, d) scatter matrix ``centeredᵀ·centered``,
    so nothing of size n is held beyond the centered copy; with fewer (a
    page PCA) they come from the SVD of the centered data. A direction
    whose variance is at most ``max(n, d)·eps`` times the largest counts
    as absent. Raises if fewer than ``target_dim`` directions remain:
    whitening would divide by a zero variance and the projection would be
    meaningless.
    """
    x = as_matrix(data, "fit_pca")
    _check_fit_input(x, target_dim, "fit_pca")
    mean = x.mean(axis=0)
    return _fit_centered(x - mean, mean, target_dim, whiten)


def fit_transform_pca_in_place(
    x: np.ndarray, target_dim: int, whiten: bool = False
) -> tuple[PcaModel, np.ndarray]:
    """``fit_pca`` and ``pca_transform`` of the same rows without a centered
    copy: takes over the float64 (n, d) array ``x``, subtracts its column
    means in place (``x`` comes back centered), fits on it and returns the
    model with the (n, target_dim) projection. Bitwise the model and
    projection of the two calls on a C-ordered ``x``; it holds ``x`` beside
    the projection, one unit less than ``fit_pca``'s copy of ``x``.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 2):
        raise ValidationError(
            "fit_transform_pca_in_place expects a float64 (n, d) array, got "
            f"{getattr(x, 'dtype', type(x).__name__)} of shape {np.shape(x)}"
        )
    _check_fit_input(x, target_dim, "fit_transform_pca_in_place")
    mean = x.mean(axis=0)
    x -= mean
    model = _fit_centered(x, mean, target_dim, whiten)
    return model, _project_rows(model, x, centered=True)


def _project_rows(model: PcaModel, x: np.ndarray, centered: bool) -> np.ndarray:
    """``scale * (basis @ row)`` for every row of ``x``, after subtracting
    ``model.mean`` unless ``x`` is ``centered`` already, in ``row_blocks``
    of ``NEAREST_CHUNK`` rows into one (n, d_out) result."""
    out = np.empty((len(x), model.d_out))
    for rows in row_blocks(len(x), NEAREST_CHUNK):
        # Inline, so that no block outlives its product.
        np.matmul(x[rows] if centered else x[rows] - model.mean, model.basis.T, out=out[rows])
        out[rows] *= model.scale
    return out


def pca_transform(model: PcaModel, d: np.ndarray) -> np.ndarray:
    """``scale * (basis @ (x - mean))`` for every row, in ``row_blocks`` of
    ``NEAREST_CHUNK`` rows into one (n, d_out) result: no centered copy of
    the whole input is formed."""
    return _project_rows(model, as_matrix(d, "pca_transform", model.d_in), centered=False)


@dataclass(frozen=True)
class KmeansRun:
    """Deterministic facts of one k-means fit."""

    iterations: int     # Lloyd iterations run
    converged: bool     # the movement tolerance, not the iteration cap, stopped it
    empty_reseeds: int  # empty clusters re-seeded, summed over iterations


@dataclass(frozen=True)
class ClusterModel:
    centers: np.ndarray  # (k, d)
    inertia: float       # sum of squared distances at convergence
    run: KmeansRun | None = None  # None for a model read back from disk

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """``np.sum(x * x, axis=1)`` in ``row_blocks``: the same row-wise bits
    without an (n, d) temporary."""
    out = np.empty(len(x))
    for rows in row_blocks(len(x), NEAREST_CHUNK):
        np.sum(np.square(x[rows]), axis=1, out=out[rows])
    return out


def _distance_blocks(
    x: np.ndarray, xsq: np.ndarray, centers: np.ndarray, blocks: list
) -> Iterator[tuple[slice | np.ndarray, np.ndarray, np.ndarray]]:
    """The reference distance kernel: for each block of rows (a slice or an
    index array), yields ``(rows, sq, nearest)`` with the block's squared
    distances ``xsq - 2 x.c + csq`` to every center, clipped at zero, and
    each row's nearest center (ties to the lower index). ``xsq`` holds the
    squared row norms of ``x``; ``sq`` is a view of one buffer that the
    next block overwrites.

    The product is scaled by -2 after it is formed, not through
    ``-2 centers``: that is the same bits only while no product is
    subnormal. Clipping can move the argmin only of a row whose minimum is
    negative, so only such rows are clipped and searched again. A
    ``row_blocks`` slice gives the rows of the whole (n, k) product
    bitwise; a gathered block may round otherwise, by no more than the
    margin ``_LloydBounds`` allows for.
    """
    csq = np.sum(centers * centers, axis=1)
    buf = np.empty((max((len(xsq[rows]) for rows in blocks), default=0), len(centers)))
    for rows in blocks:
        part = x[rows]
        sq = np.matmul(part, centers.T, out=buf[: len(part)])
        sq *= -2.0
        sq += xsq[rows, None]
        sq += csq
        nearest = np.argmin(sq, axis=1)
        low = np.flatnonzero(sq[np.arange(len(sq)), nearest] < 0.0)
        if len(low):
            sq[low] = np.maximum(sq[low], 0.0)
            nearest[low] = np.argmin(sq[low], axis=1)
        yield rows, sq, nearest


def _two_nearest(sq: np.ndarray, nearest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distance to its nearest center and the smallest distance
    to any other (inf with one center); overwrites the nearest's column."""
    rows = np.arange(len(sq))
    first = sq[rows, nearest]
    sq[rows, nearest] = np.inf
    return first, sq[rows, np.argmin(sq, axis=1)]


def _nearest(
    x: np.ndarray, xsq: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center of every row (ties to the lower index) and its squared
    distance, computed in ``row_blocks`` of ``NEAREST_CHUNK`` rows."""
    assign = np.empty(len(x), dtype=np.intp)
    dmin = np.empty(len(x))
    for rows, sq, nearest in _distance_blocks(x, xsq, centers, row_blocks(len(x), NEAREST_CHUNK)):
        assign[rows] = nearest
        dmin[rows] = sq[np.arange(len(sq)), nearest]
    return assign, dmin


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    blocks = row_blocks(n, NEAREST_CHUNK)
    # One block-sized buffer holds each block's (x - c)^2 in turn.
    diff = np.empty((blocks[-1].stop - blocks[-1].start, x.shape[1]))

    def squared_distances_to(center: np.ndarray, out: np.ndarray) -> np.ndarray:
        for rows in blocks:
            part = np.subtract(x[rows], center, out=diff[: rows.stop - rows.start])
            np.square(part, out=part)
            np.sum(part, axis=1, out=out[rows])
        return out

    d2 = squared_distances_to(centers[0], np.empty(n))
    to_new = np.empty(n)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass at zero distance: pick a point equal to no
            # used center, as Python's float == compares (-0.0 == 0.0).
            fresh = np.ones(n, dtype=bool)
            for used in centers[:i]:
                fresh &= (x != used).any(axis=1)
            candidates = np.flatnonzero(fresh)
            draw = int(rng.integers(len(candidates) or n))
            idx = int(candidates[draw]) if len(candidates) else draw
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[i] = x[idx]
        np.minimum(d2, squared_distances_to(centers[i], to_new), out=d2)
    return centers


class _LloydBounds:
    """Exact pruned assignment for Lloyd iterations, after Hamerly (SDM
    2010): each row keeps an upper bound ``upper`` on the distance to its
    own center and a lower bound ``lower`` on the distance to every other
    one, so only the rows the bounds do not settle are scanned again.

    Labels stay bitwise those of ``_nearest``, whose computed squared
    distances lie within ``margin = c·eps·(‖x‖² + max‖center‖² + tiny)``
    of the exact ones: the block formula rounds by at most about
    ``2(d + 2)·eps`` times that sum, and ``c = 4(d + 2)`` doubles it;
    ``c·eps·tiny`` (``tiny`` the smallest normal float) covers products
    that underflow. The bounds are kept on exact distances, widened by a
    relative ``c·eps`` wherever they are rounded (center movements also
    by ``sqrt(c·eps·tiny)``, for squares that underflow), and a row is
    settled only when
    ``lower > 0`` and ``lower² - upper² > 2·margin``: then no other
    center's computed distance can reach its own center's. A scanned row
    is gathered into a block that may round otherwise than its
    ``row_blocks`` block, so its nearest center is taken only when the
    second-nearest lies more than ``4·margin`` beyond it; otherwise the
    row's whole ``row_blocks`` block is computed again as ``_nearest``
    computes it.
    """

    def __init__(self, x: np.ndarray, xsq: np.ndarray) -> None:
        self.x, self.xsq = x, xsq
        self.blocks = row_blocks(len(x), NEAREST_CHUNK)
        self.slack = 4 * (x.shape[1] + 2) * np.finfo(np.float64).eps
        self.floor = self.slack * np.finfo(np.float64).tiny
        self.assign = np.zeros(len(x), dtype=np.intp)
        self.upper = np.zeros(len(x))
        self.lower = np.zeros(len(x))  # settles nothing: the first pass scans every row

    def assign_to(self, centers: np.ndarray) -> np.ndarray:
        """Every row's nearest center, ties to the lower index; the array
        is overwritten by the next call."""
        margin = self.xsq + np.max(np.sum(centers * centers, axis=1))
        margin *= self.slack
        margin += self.floor
        # A NaN anywhere fails both tests, so such rows take the exact path.
        gap = self.lower * self.lower - self.upper * self.upper
        stale = np.flatnonzero(~((self.lower > 0.0) & (gap > 2.0 * margin)))
        gathered = [stale[i : i + NEAREST_CHUNK] for i in range(0, len(stale), NEAREST_CHUNK)]
        unsure = [stale[:0]]
        for rows, sq, nearest in _distance_blocks(self.x, self.xsq, centers, gathered):
            first, second = _two_nearest(sq, nearest)
            sure = second - first > 4.0 * margin[rows]
            self._reset(rows[sure], nearest[sure], first[sure], second[sure], margin)
            unsure.append(rows[~sure])
        # The last block also holds the remainder rows past its start.
        owner = np.minimum(np.concatenate(unsure) // NEAREST_CHUNK, len(self.blocks) - 1)
        redo = np.flatnonzero(np.bincount(owner, minlength=len(self.blocks)))
        whole = [self.blocks[b] for b in redo]
        for rows, sq, nearest in _distance_blocks(self.x, self.xsq, centers, whole):
            self._reset(rows, nearest, *_two_nearest(sq, nearest), margin)
        return self.assign

    def _reset(self, rows, nearest, first, second, margin) -> None:
        """Label ``rows`` and set their bounds from computed squared
        distances to the nearest and second-nearest center."""
        self.assign[rows] = nearest
        self.upper[rows] = np.sqrt(first + margin[rows]) * (1.0 + self.slack)
        self.lower[rows] = np.sqrt(np.maximum(second - margin[rows], 0.0)) * (1.0 - self.slack)

    def centers_moved(self, movement: np.ndarray) -> None:
        """Loosen the bounds by each center's ``movement`` (Euclidean)."""
        step = (movement + np.sqrt(self.floor)) * (1.0 + self.slack)
        top = int(np.argmax(step))
        runner_up = np.max(np.delete(step, top), initial=0.0)
        self.upper += step[self.assign]
        self.upper *= 1.0 + self.slack
        self.lower -= np.where(self.assign == top, runner_up, step[top])
        self.lower *= 1.0 - self.slack


def fit_kmeans(data: np.ndarray, n_clusters: int, seed: int) -> ClusterModel:
    """Lloyd iterations from k-means++ seeding.

    Stops when the largest per-center movement falls below ``KMEANS_TOL`` or
    after ``KMEANS_MAX_ITER`` iterations. Every cluster left empty by an
    assignment is re-seeded at the worst-served point. Deterministic for a
    given seed; the returned model's ``run`` counts what happened. Each
    assignment rescans only the rows that ``_LloydBounds`` does not settle,
    and labels every row as a full ``_nearest`` pass would.
    """
    x = as_matrix(data, "fit_kmeans")
    _check_finite(x, "fit_kmeans")
    if n_clusters < 1:
        raise ValidationError("n_clusters must be >= 1")
    if x.shape[0] < n_clusters:
        raise ValidationError(
            f"need at least n_clusters={n_clusters} points, got {x.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, n_clusters, rng)
    xsq = _squared_norms(x)
    bounds = _LloydBounds(x, xsq)
    # Per-dimension columns, so each center sum is one weighted bincount
    # adding member rows in index order, as a masked mean does.
    columns = x.T.copy()
    iterations = reseeds = 0
    converged = False
    while iterations < KMEANS_MAX_ITER and not converged:
        iterations += 1
        assign = bounds.assign_to(centers)
        counts = np.bincount(assign, minlength=n_clusters)
        sums = np.stack(
            [np.bincount(assign, weights=col, minlength=n_clusters) for col in columns], axis=1
        )
        empty = counts == 0
        new_centers = sums / np.maximum(counts, 1)[:, None]
        if empty.any():
            # Re-seed every empty cluster at the worst-served point.
            _, dmin = _nearest(x, xsq, centers)
            new_centers[empty] = x[np.argmax(dmin)]
            reseeds += int(empty.sum())
        movement = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))
        bounds.centers_moved(movement)
        centers = new_centers
        converged = float(movement.max()) < KMEANS_TOL
    _, dmin = _nearest(x, xsq, centers)
    return ClusterModel(
        centers=centers,
        inertia=float(dmin.sum()),
        run=KmeansRun(iterations=iterations, converged=converged, empty_reseeds=reseeds),
    )


@dataclass(frozen=True)
class PseudoLabeledSet:
    """Descriptor indices kept with their cluster label, plus the rejects."""

    items: np.ndarray  # (m, 2) int64 rows (descriptor index, cluster label)
    rejected: np.ndarray  # (r,) int64 descriptor indices

    @property
    def kept_indices(self) -> np.ndarray:
        return self.items[:, 0]

    @property
    def labels(self) -> np.ndarray:
        return self.items[:, 1]


def assign_and_filter(model: ClusterModel, data: np.ndarray, rho: float) -> PseudoLabeledSet:
    """Label each descriptor with its nearest center, dropping ambiguous ones.

    A descriptor is kept iff dist(nearest) / dist(second nearest) <= rho;
    a ratio of exactly rho is kept, and a descriptor sitting on a center
    (ratio 0) is always kept.
    """
    if not 0.0 < rho <= 1.0:
        raise ValidationError(f"rho must be in (0, 1], got {rho}")
    if model.n_clusters < 2:
        raise ValidationError("assign_and_filter needs a model with >= 2 centers")
    batch = as_matrix(data, "assign_and_filter", model.centers.shape[1])
    _check_finite(batch, "assign_and_filter")
    nearest = np.empty(len(batch), dtype=np.intp)
    d1 = np.empty(len(batch))
    d2 = np.empty(len(batch))
    # A (rows, k) block of distances at a time, never the whole (n, k) matrix.
    # argmin resolves distance ties toward the lower center index; the
    # second nearest is the minimum with the nearest masked out.
    blocks = row_blocks(len(batch), NEAREST_CHUNK)
    for rows, sq, first in _distance_blocks(batch, _squared_norms(batch), model.centers, blocks):
        nearest[rows] = first
        d1[rows], d2[rows] = _two_nearest(sq, first)
    np.sqrt(d1, out=d1)
    np.sqrt(d2, out=d2)
    rows = np.arange(len(batch))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d1 == 0.0, 0.0, d1 / np.where(d2 > 0.0, d2, np.inf))
    kept = ratio <= rho
    return PseudoLabeledSet(
        items=np.column_stack([rows[kept], nearest[kept]]).astype(np.int64),
        rejected=rows[~kept].astype(np.int64),
    )

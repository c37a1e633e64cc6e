"""Descriptor preprocessing: Hellinger normalization, PCA/whitening, k-means
pseudo-labeling and the ambiguity filter that drops descriptors sitting near
cluster borders.

Descriptors arrive as an ``(n, d)`` matrix, one row each; a lone
descriptor is a one-row matrix. All functions are pure; fitted models are
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 300
# Rows per distance block in k-means: bounds the (rows, k) temporary.
NEAREST_CHUNK = 1024


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
    n, d = x.shape
    if not np.all(np.isfinite(x)):
        raise ValidationError("fit_pca input contains non-finite entries")
    if target_dim < 1 or target_dim > d:
        raise ValidationError(f"target_dim must be in [1, {d}], got {target_dim}")
    if n <= target_dim:
        raise ValidationError(f"need more than target_dim={target_dim} samples, got {n}")

    mean = x.mean(axis=0)
    centered = x - mean
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


def pca_transform(model: PcaModel, d: np.ndarray) -> np.ndarray:
    """``scale * (basis @ (x - mean))`` for every row, in ``row_blocks`` of
    ``NEAREST_CHUNK`` rows into one (n, d_out) result: no centered copy of
    the whole input is formed."""
    batch = as_matrix(d, "pca_transform", model.d_in)
    out = np.empty((len(batch), model.d_out))
    for rows in row_blocks(len(batch), NEAREST_CHUNK):
        np.matmul(batch[rows] - model.mean, model.basis.T, out=out[rows])
        out[rows] *= model.scale
    return out


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


def _squared_distances(
    x: np.ndarray, xsq: np.ndarray, centers: np.ndarray, csq: np.ndarray
) -> np.ndarray:
    """(n, k) squared Euclidean distances ``xsq - 2 x.c + csq``, clipped at
    zero; ``xsq`` and ``csq`` are the squared row norms of x and centers."""
    sq = x @ centers.T
    sq *= -2.0
    sq += xsq[:, None]
    sq += csq
    return np.maximum(sq, 0.0, out=sq)


def _nearest(
    x: np.ndarray, xsq: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center of every row (ties to the lower index) and its squared
    distance, computed in ``row_blocks`` of ``NEAREST_CHUNK`` rows."""
    csq = np.sum(centers * centers, axis=1)
    assign = np.empty(len(x), dtype=np.intp)
    dmin = np.empty(len(x))
    for rows in row_blocks(len(x), NEAREST_CHUNK):
        sq = _squared_distances(x[rows], xsq[rows], centers, csq)
        np.argmin(sq, axis=1, out=assign[rows])
        dmin[rows] = sq[np.arange(len(sq)), assign[rows]]
    return assign, dmin


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    # One (n, d) buffer holds every (x - c)^2 in turn.
    diff = np.empty_like(x)

    def squared_distances_to(center: np.ndarray) -> np.ndarray:
        np.subtract(x, center, out=diff)
        np.square(diff, out=diff)
        return np.sum(diff, axis=1)

    d2 = squared_distances_to(centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass at zero distance: pick an unused point.
            used = {tuple(c) for c in centers[:i]}
            candidates = [j for j in range(n) if tuple(x[j]) not in used]
            idx = candidates[int(rng.integers(len(candidates)))] if candidates else int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[i] = x[idx]
        np.minimum(d2, squared_distances_to(centers[i]), out=d2)
    return centers


def fit_kmeans(data: np.ndarray, n_clusters: int, seed: int) -> ClusterModel:
    """Lloyd iterations from k-means++ seeding.

    Stops when the largest per-center movement falls below ``KMEANS_TOL`` or
    after ``KMEANS_MAX_ITER`` iterations. Every cluster left empty by an
    assignment is re-seeded at the worst-served point. Deterministic for a
    given seed; the returned model's ``run`` counts what happened.
    """
    x = as_matrix(data, "fit_kmeans")
    if n_clusters < 1:
        raise ValidationError("n_clusters must be >= 1")
    if x.shape[0] < n_clusters:
        raise ValidationError(
            f"need at least n_clusters={n_clusters} points, got {x.shape[0]}"
        )
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, n_clusters, rng)
    xsq = np.sum(x * x, axis=1)
    # Per-dimension columns, so each center sum is one weighted bincount
    # adding member rows in index order, as a masked mean does.
    columns = x.T.copy()
    iterations = reseeds = 0
    converged = False
    while iterations < KMEANS_MAX_ITER and not converged:
        iterations += 1
        assign, dmin = _nearest(x, xsq, centers)
        counts = np.bincount(assign, minlength=n_clusters)
        sums = np.stack(
            [np.bincount(assign, weights=col, minlength=n_clusters) for col in columns], axis=1
        )
        empty = counts == 0
        new_centers = sums / np.maximum(counts, 1)[:, None]
        if empty.any():
            # Re-seed every empty cluster at the worst-served point.
            new_centers[empty] = x[np.argmax(dmin)]
            reseeds += int(empty.sum())
        movement = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        converged = movement < KMEANS_TOL
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
    centers = model.centers
    csq = np.sum(centers * centers, axis=1)
    nearest = np.empty(len(batch), dtype=np.intp)
    d1 = np.empty(len(batch))
    d2 = np.empty(len(batch))
    # A (rows, k) block of distances at a time, never the whole (n, k) matrix.
    for block in row_blocks(len(batch), NEAREST_CHUNK):
        x = batch[block]
        sq = _squared_distances(x, np.sum(x * x, axis=1), centers, csq)
        # argmin resolves distance ties toward the lower center index;
        # masking the nearest center leaves the second nearest under the
        # same rule.
        rows = np.arange(len(x))
        first = np.argmin(sq, axis=1)
        nearest[block] = first
        d1[block] = np.sqrt(sq[rows, first])
        sq[rows, first] = np.inf
        d2[block] = np.sqrt(sq[rows, np.argmin(sq, axis=1)])
    rows = np.arange(len(batch))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d1 == 0.0, 0.0, d1 / np.where(d2 > 0.0, d2, np.inf))
    kept = ratio <= rho
    return PseudoLabeledSet(
        items=np.column_stack([rows[kept], nearest[kept]]).astype(np.int64),
        rejected=rows[~kept].astype(np.int64),
    )

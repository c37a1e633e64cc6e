"""Patch encoders: hard VLAD and NetRVLAD (NetVLAD without its normalizations).

A shallow affine/relu backbone maps input descriptors to the embedding
space the codebook lives in. Encodings are (n_clusters x dim) matrices of
soft-assigned residuals, flattened row-major over clusters downstream.
`pool_patches` sums a page's normalized encodings without forming them,
for a block of pages at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import RANK_BLOCK, _nearest, _squared_norms, as_matrix, row_blocks

ACTIVATIONS = ("relu", "identity")
MODES = ("netrvlad",)


@dataclass(frozen=True)
class Layer:
    """One affine layer with a named activation."""

    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValidationError("layer weight/bias shapes do not chain")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValidationError("layer parameters must be finite")


@dataclass(frozen=True)
class Backbone:
    """Stack of layers applied in order; dimensions must chain."""

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValidationError("backbone needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValidationError("consecutive layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


@dataclass(frozen=True)
class Codebook:
    """Cluster centers plus the affine soft-assignment parameters."""

    centers: np.ndarray  # (n_clusters, dim)
    weights: np.ndarray  # (n_clusters, dim)
    bias: np.ndarray  # (n_clusters,)
    mode: str = "netrvlad"  # saved in codebook files, so one of another mode is refused

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown codebook mode {self.mode!r}")
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValidationError("centers must be a nonempty 2-d array")
        if self.weights.shape != self.centers.shape:
            raise ValidationError("assignment weights must match centers shape")
        if self.bias.shape != (self.centers.shape[0],):
            raise ValidationError("assignment bias must have one entry per cluster")
        for name, arr in (("centers", self.centers), ("weights", self.weights), ("bias", self.bias)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"codebook {name} must be finite")

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def init_backbone(dims: tuple[int, ...] = (32, 64, 64), seed: int = 0) -> Backbone:
    """Random backbone with relu layers, weights uniform in +-1/sqrt(fan_in)."""
    if len(dims) < 2:
        raise ValidationError("backbone needs an input and an output dimension")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        half = 1.0 / np.sqrt(fan_in)
        layers.append(
            Layer(
                weight=rng.uniform(-half, half, size=(fan_out, fan_in)),
                bias=np.zeros(fan_out),
                activation="relu",
            )
        )
    return Backbone(layers=tuple(layers))


def backbone_forward(
    b: Backbone, d: np.ndarray, return_cache: bool = False
) -> np.ndarray | tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Apply the layer stack. With return_cache, also return per-layer
    (input, pre-activation) pairs for the backward pass."""
    h = as_matrix(d, "backbone_forward", b.input_dim)
    cache = []
    for layer in b.layers:
        pre = h @ layer.weight.T + layer.bias
        if return_cache:
            cache.append((h, pre))
        h = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return (h, cache) if return_cache else h


def soft_assign(cb: Codebook, x: np.ndarray) -> np.ndarray:
    """Softmax over per-cluster affine logits; rows sum to 1."""
    logits = as_matrix(x, "soft_assign", cb.dim) @ cb.weights.T + cb.bias
    # Max subtraction keeps exp() in range for large logits.
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def encode_patches(
    cb: Codebook, xs: np.ndarray, return_cache: bool = False
) -> np.ndarray | tuple[np.ndarray, dict[str, np.ndarray]]:
    """Encode a batch of embeddings to (n, n_clusters, dim) residual stacks.

    With return_cache, also return the intermediates the backward pass
    needs: x (the inputs), alpha (soft assignments) and resid (x minus
    each center)."""
    rows = as_matrix(xs, "encode_patches", cb.dim)
    alpha = soft_assign(cb, rows)
    resid = rows[:, None, :] - cb.centers[None, :, :]
    v = alpha[:, :, None] * resid
    if not return_cache:
        return v
    return v, {"x": rows, "alpha": alpha, "resid": resid}


# A (patch, cluster) pair's encoding row is taken as a weighted residual
# w_ik (x_i - c_k), with its squared norm from the expanded squared
# distance, unless the expansion has cancelled (the distance is at most
# CANCEL_RATIO of |x|^2 + |c|^2) or the row's squared norm is below
# TINY_SQNORM, where squaring its entries underflows; such pairs are formed
# from the difference, as encode_patches forms them.
CANCEL_RATIO = 0.1
TINY_SQNORM = 1e-280


def _weighted_residuals(
    cb: Codebook, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every encoding row of `rows` either as a weighted residual or
    formed from the difference.

    Returns (coef, sqnorm, i, k, v): coef (n, n_clusters) holds w_ik = a_ik
    and 0 for the pairs formed from the difference, which are (i[p], k[p])
    with row v[p]; sqnorm holds every row's squared norm.
    """
    alpha = soft_assign(cb, rows)
    scale = np.sum(rows**2, axis=1)[:, None] + np.sum(cb.centers**2, axis=1)[None, :]
    sq = np.maximum(scale - 2.0 * (rows @ cb.centers.T), 0.0)
    sqnorm = alpha**2 * sq  # squared norm of each row a_ik (x_i - c_k)
    fast = (sq > CANCEL_RATIO * scale) & (sqnorm >= TINY_SQNORM)
    coef = np.where(fast, alpha, 0.0)
    sqnorm = np.where(fast, sqnorm, 0.0)
    i, k = np.nonzero((alpha > 0.0) & ~fast)
    v = alpha[i, k, None] * (rows[i] - cb.centers[k])
    sqnorm[i, k] = np.sum(v**2, axis=1)
    return coef, sqnorm, i, k, v


def pool_patches(cb: Codebook, xs: np.ndarray, starts: Sequence[int] = (0,)) -> np.ndarray:
    """Each page's sum of l2-normalized flat patch encodings, one
    (n_clusters * dim,) row per page. Page p is the rows of `xs` from
    starts[p] up to the next start (the last page runs to the end), so a
    block of pages is pooled in one call; one page is the block (0,).

    Each row equals pool_page(flatten_encoding(encode_patches(cb, page)))
    up to rounding without forming the (n, n_clusters, dim) stack: the
    rows a_ik (x_i - c_k) are weighted residuals, so the sum over a page's
    patches is W^T X - colsum(W) c per cluster with W_ik = a_ik / |v_i|,
    one matmul per page. Pairs whose squared distance cancels or whose
    row's squared norm underflows are formed as encode_patches forms them
    and added apart. Apart from that per-page matmul every step is
    row-wise, so a page pools to the same bits in any block whose
    products over all its rows round each row as the page's own products
    do (with OpenBLAS 0.3.31, a product of at least about 100 rows).
    """
    rows = as_matrix(xs, "pool_patches", cb.dim)
    bounds = np.append(np.asarray(starts, dtype=np.intp), len(rows))
    if bounds[0] != 0 or np.any(bounds[1:] <= bounds[:-1]):
        raise ValidationError("pool_patches pages must start at row 0 and hold at least one patch")
    coef, sqnorm, i, k, v = _weighted_residuals(cb, rows)
    norms = np.sqrt(sqnorm.sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        first = int(zero[0]) - bounds[np.searchsorted(bounds, zero[0], side="right") - 1]
        raise ValidationError(f"patch {first} has an all-zero encoding")
    w = coef / norms[:, None]
    pooled = np.empty((len(bounds) - 1, cb.n_clusters, cb.dim))
    for page, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        pooled[page] = w[lo:hi].T @ rows[lo:hi] - w[lo:hi].sum(axis=0)[:, None] * cb.centers
    np.add.at(pooled, (np.searchsorted(bounds, i, side="right") - 1, k), v / norms[i, None])
    return pooled.reshape(len(pooled), -1)


def encoding_gram(b: Backbone, cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """Gram matrix (n, n) of encode_flat(b, cb, xs), up to rounding,
    without forming the (n, n_clusters, dim) stack.

    With weighted-residual rows w_ik (x_i - c_k), w_ik = a_ik, the Gram is
    (X X^T) o (W W^T) + Q W^T + W Q^T for Q = W o (|c|^2 / 2 - X C^T):
    n^2 (dim + 2 n_clusters) work instead of n^2 n_clusters dim. A row e
    formed from the difference (w_ik = 0) adds e . w_jk (x_j - c_k) to
    row and column i, and e . e' for each such row e' of the same cluster.
    """
    rows = as_matrix(backbone_forward(b, xs), "encoding_gram", cb.dim)
    w, _, i, k, e = _weighted_residuals(cb, rows)
    q = w * (0.5 * np.sum(cb.centers**2, axis=1) - rows @ cb.centers.T)
    gram = rows @ rows.T
    # The other terms in row_blocks of RANK_BLOCK rows, so beside the Gram
    # only (rows, n) blocks are held. Q W^T's transpose is read as a
    # column block of the same product. numpy forms a whole W W^T with a
    # symmetric BLAS kernel; from 2 * RANK_BLOCK rows up, its row blocks
    # equal it bitwise when n is a multiple of 8 and may differ in the
    # last digit otherwise (OpenBLAS 0.3.31).
    for block in row_blocks(len(rows), RANK_BLOCK):
        gram[block] *= w[block] @ w.T
        gram[block] += q[block] @ w.T
        gram[block] += (q @ w[block].T).T
    if len(i):
        cross = np.zeros_like(gram)
        np.add.at(cross, i, w[:, k].T * (e @ rows.T - np.sum(e * cb.centers[k], axis=1)[:, None]))
        gram += cross + cross.T
        np.add.at(gram, (i[:, None], i), np.where(k[:, None] == k, e @ e.T, 0.0))
    return gram


def encode_flat(b: Backbone, cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """Descriptors through backbone and codebook to flattened encodings."""
    return flatten_encoding(encode_patches(cb, backbone_forward(b, xs)))


def encode_vlad_hard(centers: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Classic VLAD: sum residuals to the nearest center, ties to lowest
    index, assigned by the k-means kernel as the cluster stage assigns."""
    centers = np.asarray(centers, dtype=np.float64)
    rows = as_matrix(xs, "encode_vlad_hard", centers.shape[1])
    if rows.shape[0] == 0:
        raise ValidationError("encode_vlad_hard needs at least one descriptor")
    nearest, _ = _nearest(rows, _squared_norms(rows), centers)
    v = np.zeros(centers.shape)
    # add.at adds the residuals in row order, one pass over the rows.
    np.add.at(v, nearest, rows - centers[nearest])
    return v


def flatten_encoding(v: np.ndarray) -> np.ndarray:
    """(n, n_clusters, dim) stack to (n, n_clusters * dim) rows, row-major
    over clusters; the fixed downstream contract."""
    if v.ndim != 3:
        raise ValidationError(f"expected an (n, n_clusters, dim) stack, got ndim {v.ndim}")
    return np.ascontiguousarray(v).reshape(v.shape[0], -1)


def init_codebook(n_clusters: int, dim: int, seed: int) -> Codebook:
    """A fresh codebook: centers and assignment weights drawn uniform in
    +-1/sqrt(dim), bias zero, so initial logits are scale-balanced."""
    if n_clusters < 1 or dim < 1:
        raise ValidationError("n_clusters and dim must be positive")
    rng = np.random.default_rng(seed)
    half = 1.0 / np.sqrt(dim)
    return Codebook(
        centers=rng.uniform(-half, half, size=(n_clusters, dim)),
        weights=rng.uniform(-half, half, size=(n_clusters, dim)),
        bias=np.zeros(n_clusters),
    )

"""Patch encoders: hard VLAD plus the NetVLAD and NetRVLAD soft variants.

A shallow affine/relu backbone maps input descriptors to the embedding
space the codebook lives in. Encodings are (n_clusters x dim) residual
matrices, flattened row-major over clusters for all downstream use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import fit_kmeans

ACTIVATIONS = ("relu", "identity")
MODES = ("netvlad", "netrvlad")


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
    mode: str = "netrvlad"

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


def _as_rows(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValidationError(f"{what} expects dimension {dim}, got shape {x.shape}")
    return rows, single


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
    rows, single = _as_rows(d, b.input_dim, "backbone_forward")
    cache = []
    h = rows
    for layer in b.layers:
        pre = h @ layer.weight.T + layer.bias
        if return_cache:
            cache.append((h, pre))
        h = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    out = h[0] if single else h
    return (out, cache) if return_cache else out


def soft_assign(cb: Codebook, x: np.ndarray) -> np.ndarray:
    """Softmax over per-cluster affine logits; rows sum to 1."""
    rows, single = _as_rows(x, cb.dim, "soft_assign")
    logits = rows @ cb.weights.T + cb.bias
    # Max subtraction keeps exp() in range for large logits.
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    alpha = e / e.sum(axis=1, keepdims=True)
    return alpha[0] if single else alpha


def _prenormalize(cb: Codebook, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """netvlad l2-normalizes each input row (and returns the norms);
    netrvlad uses the rows as they are."""
    if cb.mode != "netvlad":
        return rows, None
    znorm = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(znorm == 0.0):
        raise ValidationError("netvlad prenormalization rejects zero embeddings")
    return rows / znorm, znorm


def _intranormalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l2-normalize v along its last axis, and return the norms; zero
    rows stay zero rather than dividing by zero."""
    gnorm = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(gnorm > 0.0, v / np.where(gnorm > 0.0, gnorm, 1.0), v), gnorm


def encode_patches(
    cb: Codebook, xs: np.ndarray, return_cache: bool = False
) -> np.ndarray | tuple[np.ndarray, dict[str, np.ndarray | None]]:
    """Encode a batch of embeddings to (n, n_clusters, dim) residual stacks.

    With return_cache, also return the intermediates the backward pass
    needs: znorm (input norms), xhat (the inputs after prenormalization),
    alpha (soft assignments), resid (xhat minus each center) and gnorm
    (norms of the weighted residual rows before intranormalization);
    znorm and gnorm are None in netrvlad mode."""
    rows, _ = _as_rows(xs, cb.dim, "encode_patches")
    rows, znorm = _prenormalize(cb, rows)
    gnorm = None
    alpha = soft_assign(cb, rows)
    resid = rows[:, None, :] - cb.centers[None, :, :]
    v = alpha[:, :, None] * resid
    if cb.mode == "netvlad":
        v, gnorm = _intranormalize(v)
    if not return_cache:
        return v
    return v, {"znorm": znorm, "xhat": rows, "alpha": alpha, "resid": resid, "gnorm": gnorm}


# pool_patches takes a (patch, cluster) pair's encoding row from the
# expanded squared distance unless the expansion has cancelled (the
# distance is at most CANCEL_RATIO of |x|^2 + |c|^2) or the row's squared
# norm is below TINY_SQNORM, where squaring its entries underflows; such
# pairs are formed from the difference, as encode_patches forms them.
CANCEL_RATIO = 0.1
TINY_SQNORM = 1e-280


def pool_patches(cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """Sum of a page's l2-normalized flat patch encodings, (n_clusters * dim,).

    Equals pool_page(flatten_encoding(encode_patches(cb, xs))) up to
    rounding without forming the (n, n_clusters, dim) stack: the rows
    a_ik (x_i - c_k), or their intranormalized netvlad form, are weighted
    residuals, so the sum over patches is W^T X - colsum(W) c per cluster,
    one matmul. Pairs whose squared distance cancels or whose row's squared
    norm underflows are formed exactly as encode_patches forms them and
    added on their own.
    """
    rows, _ = _as_rows(xs, cb.dim, "pool_patches")
    if rows.shape[0] == 0:
        raise ValidationError("pool_patches needs at least one patch")
    rows, _ = _prenormalize(cb, rows)
    alpha = soft_assign(cb, rows)
    scale = np.sum(rows**2, axis=1)[:, None] + np.sum(cb.centers**2, axis=1)[None, :]
    sq = np.maximum(scale - 2.0 * (rows @ cb.centers.T), 0.0)
    sqnorm = alpha**2 * sq  # squared norm of each row a_ik (x_i - c_k)
    fast = (sq > CANCEL_RATIO * scale) & (sqnorm >= TINY_SQNORM)
    exact = (alpha > 0.0) & ~fast
    if cb.mode == "netvlad":
        # Intranormalized rows (x_i - c_k) / |x_i - c_k| have unit norm.
        coef = np.where(fast, 1.0 / np.sqrt(np.where(fast, sq, 1.0)), 0.0)
        sqnorm = fast.astype(np.float64)
    else:
        coef = np.where(fast, alpha, 0.0)
        sqnorm = np.where(fast, sqnorm, 0.0)
    i, k = np.nonzero(exact)
    v = alpha[i, k, None] * (rows[i] - cb.centers[k])
    if cb.mode == "netvlad":
        v, _ = _intranormalize(v)
    sqnorm[i, k] = np.sum(v**2, axis=1)
    norms = np.sqrt(sqnorm.sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ValidationError(f"patch {int(zero[0])} has an all-zero encoding")
    w = coef / norms[:, None]
    pooled = w.T @ rows - w.sum(axis=0)[:, None] * cb.centers
    np.add.at(pooled, k, v / norms[i, None])
    return pooled.reshape(-1)


def encode_flat(b: Backbone, cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """Descriptors through backbone and codebook to flattened encodings."""
    return flatten_encoding(encode_patches(cb, backbone_forward(b, xs)))


def encode_vlad_hard(centers: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Classic VLAD: sum residuals to the nearest center, ties to lowest index."""
    centers = np.asarray(centers, dtype=np.float64)
    rows, _ = _as_rows(xs, centers.shape[1], "encode_vlad_hard")
    if rows.shape[0] == 0:
        raise ValidationError("encode_vlad_hard needs at least one descriptor")
    sq = (
        np.sum(rows**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * rows @ centers.T
    )
    nearest = np.argmin(sq, axis=1)  # argmin returns the lowest index on ties
    v = np.zeros((centers.shape[0], centers.shape[1]))
    for k in range(centers.shape[0]):
        mask = nearest == k
        if np.any(mask):
            v[k] = np.sum(rows[mask] - centers[k], axis=0)
    return v


def flatten_encoding(v: np.ndarray) -> np.ndarray:
    """Row-major flattening over clusters; the fixed downstream contract."""
    if v.ndim == 2:
        return np.ascontiguousarray(v).reshape(-1)
    if v.ndim == 3:
        return np.ascontiguousarray(v).reshape(v.shape[0], -1)
    raise ValidationError(f"expected an encoding matrix or stack, got ndim {v.ndim}")


def init_codebook(
    mode: str,
    n_clusters: int,
    dim: int,
    seed: int,
    data_sample: np.ndarray | None = None,
    alpha_init: float | None = None,
) -> Codebook:
    """Build a fresh codebook.

    netrvlad: centers and assignment weights drawn uniform in +-1/sqrt(dim),
    bias zero, so initial logits are scale-balanced.

    netvlad: centers from k-means over data_sample; weights 2a*c_k and bias
    -a*|c_k|^2 with a chosen so the mean log-ratio of the two closest soft
    assignments over the sample equals log(alpha_init).
    """
    if mode not in MODES:
        raise ValidationError(f"unknown codebook mode {mode!r}")
    if n_clusters < 1 or dim < 1:
        raise ValidationError("n_clusters and dim must be positive")
    if mode == "netrvlad":
        rng = np.random.default_rng(seed)
        half = 1.0 / np.sqrt(dim)
        return Codebook(
            centers=rng.uniform(-half, half, size=(n_clusters, dim)),
            weights=rng.uniform(-half, half, size=(n_clusters, dim)),
            bias=np.zeros(n_clusters),
            mode="netrvlad",
        )
    if n_clusters < 2:
        raise ValidationError("netvlad initialization needs >= 2 clusters for the gap")
    if data_sample is None:
        raise ValidationError("netvlad initialization requires data_sample")
    if alpha_init is None or alpha_init <= 1.0:
        raise ValidationError("netvlad initialization requires alpha_init > 1")
    sample = np.asarray(data_sample, dtype=np.float64)
    centers = fit_kmeans(sample, n_clusters=n_clusters, seed=seed).centers
    sq = (
        np.sum(sample**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * sample @ centers.T
    )
    sq.sort(axis=1)
    gaps = sq[:, 1] - sq[:, 0]
    mean_gap = float(gaps.mean())
    if mean_gap <= 0.0:
        raise ValidationError("data_sample has no usable nearest/second-nearest gap")
    a = float(np.log(alpha_init)) / mean_gap
    return Codebook(
        centers=centers,
        weights=2.0 * a * centers,
        bias=-a * np.sum(centers**2, axis=1),
        mode="netvlad",
    )

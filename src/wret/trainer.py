"""Triplet training of the backbone + codebook stack.

Batch-hard mining over class-balanced batches, analytic gradients through
the encoder, Adam with a warmup + cosine learning-rate schedule, early
stopping on a pseudo-class retrieval score over a held-out pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoder import (
    MODES,
    Backbone,
    Codebook,
    backbone_forward,
    encode_flat,
    encode_patches,
    flatten_encoding,
    init_backbone,
    init_codebook,
)
from .errors import TrainingError, ValidationError
from .features import PseudoLabeledSet
from .retrieval import average_precisions, rank_rows
from .seeds import derive_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MININGS = ("hard", "semi")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    mining "hard" admits a mined candidate only when d_an < d_ap - m (loss
    above twice the margin); "semi" admits the complement, d_an > d_ap - m.
    max_steps caps the number of processed batches across all epochs.
    """

    margin: float = 0.1
    learning_rate: float = 1e-4
    batch_size: int = 128
    per_class: int = 8
    epochs_max: int = 30
    warmup_epochs: int = 5
    patience: int = 5
    validation_fraction: float = 0.1
    seed: int = 0
    mining: str = "hard"
    max_steps: int | None = None
    n_clusters: int = 16
    backbone_dims: tuple[int, ...] | None = None
    mode: str = "netrvlad"
    alpha_init: float = 100.0
    val_pool_cap: int = 1000

    def __post_init__(self) -> None:
        if self.margin <= 0:
            raise ValidationError("margin must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be finite and positive")
        if not 0 < self.validation_fraction < 1:
            raise ValidationError("validation_fraction must lie in (0, 1)")
        if self.per_class < 2:
            raise ValidationError("per_class must be >= 2 so positives exist")
        if self.batch_size < 2 * self.per_class:
            raise ValidationError("batch_size must cover at least two classes")
        if self.epochs_max < 1 or self.warmup_epochs < 0 or self.patience < 1:
            raise ValidationError("epoch counts out of range")
        if self.mining not in MININGS:
            raise ValidationError(f"unknown mining rule {self.mining!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("max_steps must be positive when set")
        if self.val_pool_cap < 1:
            raise ValidationError("val_pool_cap must be positive")
        if self.mode not in MODES:
            raise ValidationError(f"unknown encoder mode {self.mode!r}")
        dims = self.backbone_dims
        if dims is not None and (len(dims) < 2 or min(dims) < 1):
            raise ValidationError("backbone_dims needs >= 2 entries, each >= 1")


@dataclass(frozen=True)
class TripletBatch:
    """Mined triplets over one batch, with the inputs that produced them
    and the margin they were mined under."""

    inputs: np.ndarray  # (n, d_in)
    encodings: np.ndarray  # (n, flat_dim)
    labels: np.ndarray  # (n,)
    triplets: tuple[tuple[int, int, int], ...]
    margin: float

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.margin <= 0:
            raise ValidationError("margin must be positive")
        if self.inputs.shape[0] != n or self.encodings.shape[0] != n:
            raise ValidationError("batch arrays disagree on item count")
        for a, p, neg in self.triplets:
            if not (0 <= a < n and 0 <= p < n and 0 <= neg < n):
                raise ValidationError("triplet index out of range")
            if self.labels[p] != self.labels[a]:
                raise ValidationError("positive must share the anchor label")
            if self.labels[neg] == self.labels[a]:
                raise ValidationError("negative must differ from the anchor label")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch traces plus the stopping decision.

    losses[e] is the mean batch loss of epoch e (a batch that mined no
    triplets contributes 0) and triplets[e] the number of triplets its
    batches admitted; best_epoch indexes the snapshot returned.
    """

    losses: tuple[float, ...]
    triplets: tuple[int, ...]
    val_maps: tuple[float, ...]
    learning_rates: tuple[float, ...]
    stopped_epoch: int
    best_epoch: int
    best_val_map: float
    steps: int


@dataclass(frozen=True)
class Gradients:
    """Loss gradients for every trainable block, in parameter layout."""

    layer_weights: tuple[np.ndarray, ...]
    layer_biases: tuple[np.ndarray, ...]
    centers: np.ndarray
    weights: np.ndarray
    bias: np.ndarray

    def named_blocks(self) -> list[tuple[str, np.ndarray]]:
        blocks = []
        for i, (w, b) in enumerate(zip(self.layer_weights, self.layer_biases)):
            blocks.append((f"backbone.layer{i}.weight", w))
            blocks.append((f"backbone.layer{i}.bias", b))
        blocks.append(("codebook.centers", self.centers))
        blocks.append(("codebook.weights", self.weights))
        blocks.append(("codebook.bias", self.bias))
        return blocks


def _pairwise_distances(f: np.ndarray) -> np.ndarray:
    sq = np.sum(f**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (f @ f.T)
    return np.sqrt(np.clip(d2, 0.0, None))


def mine_hard_triplets(
    encodings: np.ndarray, labels: np.ndarray, m: float, mining: str = "hard"
) -> tuple[tuple[int, int, int], ...]:
    """Batch-hard candidates filtered by the admission rule.

    Per anchor: hardest positive (max distance, same label) and hardest
    negative (min distance, other label), ties to the lowest index. The
    candidate is emitted iff d_an < d_ap - m ("hard") or its complement
    d_an > d_ap - m ("semi"). Anchors ascend.
    """
    if mining not in MININGS:
        raise ValidationError(f"unknown mining rule {mining!r}")
    labels = np.asarray(labels)
    if len(labels) == 0:
        return ()
    dist = _pairwise_distances(np.asarray(encodings, dtype=np.float64))
    same = labels[:, None] == labels[None, :]
    pos = same.copy()
    np.fill_diagonal(pos, False)
    anchors = np.arange(len(labels))
    p = np.argmax(np.where(pos, dist, -np.inf), axis=1)
    neg = np.argmin(np.where(same, np.inf, dist), axis=1)
    d_ap = dist[anchors, p]
    d_an = dist[anchors, neg]
    admit = d_an < d_ap - m if mining == "hard" else d_an > d_ap - m
    # An anchor needs a positive besides itself and at least one negative.
    admit &= pos.any(axis=1) & ~same.all(axis=1)
    return tuple((int(a), int(p[a]), int(neg[a])) for a in np.flatnonzero(admit))


def _check_finite(grads: Gradients) -> None:
    for name, arr in grads.named_blocks():
        if not np.isfinite(arr).all():
            raise TrainingError(f"non-finite gradient in {name}")


def backward(
    batch: TripletBatch, backbone: Backbone, codebook: Codebook
) -> tuple[float, Gradients]:
    """Mean triplet loss and its exact gradients for every parameter block.

    Clamped triplets (loss 0, boundary included) contribute zero gradient;
    the same subgradient-0 convention applies at zero distances.
    """
    if not batch.triplets:
        raise ValidationError("backward requires a nonempty triplet list")
    z, layer_cache = backbone_forward(backbone, batch.inputs, return_cache=True)
    v, fwd = encode_patches(codebook, z, return_cache=True)
    flat = flatten_encoding(v)
    n, n_clusters = fwd["alpha"].shape
    count = len(batch.triplets)
    dflat = np.zeros_like(flat)
    total = 0.0
    for a, p, neg in batch.triplets:
        diff_ap = flat[a] - flat[p]
        diff_an = flat[a] - flat[neg]
        d_ap = float(np.linalg.norm(diff_ap))
        d_an = float(np.linalg.norm(diff_an))
        loss = d_ap - d_an + batch.margin
        if loss <= 0.0:
            continue
        total += loss
        u_ap = diff_ap / d_ap if d_ap > 0.0 else np.zeros_like(diff_ap)
        u_an = diff_an / d_an if d_an > 0.0 else np.zeros_like(diff_an)
        dflat[a] += (u_ap - u_an) / count
        dflat[p] -= u_ap / count
        dflat[neg] += u_an / count

    dv = dflat.reshape(n, n_clusters, -1)
    if codebook.mode == "netvlad":
        gnorm = fwd["gnorm"]
        dot = np.sum(dv * v, axis=2, keepdims=True)
        safe = np.where(gnorm > 0.0, gnorm, 1.0)
        dg = np.where(gnorm > 0.0, (dv - dot * v) / safe, 0.0)
    else:
        dg = dv
    alpha, resid = fwd["alpha"], fwd["resid"]
    dalpha = np.sum(dg * resid, axis=2)
    dcenters = -np.einsum("nk,nkd->kd", alpha, dg)
    dxhat = np.einsum("nk,nkd->nd", alpha, dg)
    # Softmax Jacobian applied row-wise.
    srow = np.sum(dalpha * alpha, axis=1, keepdims=True)
    dlogits = alpha * (dalpha - srow)
    dweights = dlogits.T @ fwd["xhat"]
    dbias = dlogits.sum(axis=0)
    dxhat = dxhat + dlogits @ codebook.weights
    if codebook.mode == "netvlad":
        xhat, znorm = fwd["xhat"], fwd["znorm"]
        dot = np.sum(dxhat * xhat, axis=1, keepdims=True)
        dh = (dxhat - dot * xhat) / znorm
    else:
        dh = dxhat
    layer_w_grads: list[np.ndarray] = []
    layer_b_grads: list[np.ndarray] = []
    for layer, (h_in, pre) in zip(reversed(backbone.layers), reversed(layer_cache)):
        da = dh * (pre > 0.0) if layer.activation == "relu" else dh
        layer_w_grads.append(da.T @ h_in)
        layer_b_grads.append(da.sum(axis=0))
        dh = da @ layer.weight
    grads = Gradients(
        layer_weights=tuple(reversed(layer_w_grads)),
        layer_biases=tuple(reversed(layer_b_grads)),
        centers=dcenters,
        weights=dweights,
        bias=dbias,
    )
    _check_finite(grads)
    return total / count, grads


def learning_rate(epoch: int, cfg: TrainConfig) -> float:
    """Closed-form schedule: linear ramp l_r/10 -> l_r over the warmup
    epochs, then cosine annealing toward 0 at epochs_max."""
    if not 0 <= epoch < cfg.epochs_max:
        raise ValidationError("epoch outside the configured range")
    base = cfg.learning_rate
    if epoch < cfg.warmup_epochs:
        return base / 10.0 + (base - base / 10.0) * epoch / cfg.warmup_epochs
    span = cfg.epochs_max - cfg.warmup_epochs
    return 0.5 * base * (1.0 + math.cos(math.pi * (epoch - cfg.warmup_epochs) / span))


def _copy_models(backbone: Backbone, codebook: Codebook) -> tuple[Backbone, Codebook]:
    """Models holding float64 copies of every parameter array."""
    layers = tuple(
        replace(
            layer,
            weight=np.array(layer.weight, dtype=np.float64),
            bias=np.array(layer.bias, dtype=np.float64),
        )
        for layer in backbone.layers
    )
    copied = replace(
        codebook,
        centers=np.array(codebook.centers, dtype=np.float64),
        weights=np.array(codebook.weights, dtype=np.float64),
        bias=np.array(codebook.bias, dtype=np.float64),
    )
    return Backbone(layers=layers), copied


class _Adam:
    """Adam updating the models' parameter arrays in place, fixed constants.

    The arrays are listed in Gradients.named_blocks() order."""

    def __init__(self, backbone: Backbone, codebook: Codebook):
        self.params = [a for layer in backbone.layers for a in (layer.weight, layer.bias)]
        self.params += [codebook.centers, codebook.weights, codebook.bias]
        self.m = [np.zeros_like(a) for a in self.params]
        self.v = [np.zeros_like(a) for a in self.params]
        self.t = 0

    def step(self, grads: Gradients, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for arr, (_, g), m, v in zip(self.params, grads.named_blocks(), self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g**2
            arr -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _stratified_split(
    labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split; each class sends floor(fraction * size) items to
    the validation side. Returns (train_idx, val_idx), both sorted."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        k = int(fraction * len(members))
        perm = rng.permutation(members)
        val_idx.extend(perm[:k].tolist())
        train_idx.extend(perm[k:].tolist())
    return np.array(sorted(train_idx), dtype=int), np.array(sorted(val_idx), dtype=int)


def _epoch_batches(
    class_items: dict[int, np.ndarray], cfg: TrainConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Class-balanced batches without replacement within the epoch.

    Each batch takes per_class items from batch_size/per_class distinct
    classes; a class retires once it cannot fill a full group."""
    per = cfg.per_class
    n_classes = cfg.batch_size // per
    queues = {c: list(rng.permutation(items)) for c, items in sorted(class_items.items())}
    batches: list[np.ndarray] = []
    while True:
        active = sorted(c for c, q in queues.items() if len(q) >= per)
        if len(active) < n_classes:
            return batches
        picked = rng.choice(len(active), size=n_classes, replace=False)
        batch: list[int] = []
        for ci in sorted(picked.tolist()):
            c = active[ci]
            batch.extend(int(i) for i in queues[c][:per])
            del queues[c][:per]
        batches.append(np.array(batch, dtype=int))


def _pool_retrieval_map(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out retrieval score over a pool: every item queries the
    rest, ranked by cosine with ties by index; relevance = same label.
    Items whose label is unique in the pool are skipped."""
    n = len(labels)
    if n < 2:
        return 0.0
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    unit = vectors / np.where(norms > 0.0, norms, 1.0)
    order = rank_rows(unit @ unit.T, np.arange(n))
    hits = labels[order] == labels[:, None]
    aps = average_precisions(hits)[hits.any(axis=1)]
    return float(np.mean(aps)) if len(aps) else 0.0


def train(
    labeled: PseudoLabeledSet,
    descriptors: np.ndarray,
    cfg: TrainConfig,
    backbone: Backbone | None = None,
    codebook: Codebook | None = None,
) -> tuple[Backbone, Codebook, TrainReport]:
    """Run the full training loop; returns the best-validation snapshot.

    descriptors holds the full preprocessed matrix; labeled selects the
    kept rows and their pseudo-classes. Fully deterministic per cfg.seed.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2:
        raise ValidationError("descriptors must be a 2-d matrix")
    data = descriptors[labeled.kept_indices]
    labels = labeled.labels
    if len(data) == 0:
        raise ValidationError("no labeled descriptors to train on")

    split_rng = np.random.default_rng(derive_seed(cfg.seed, "train/split"))
    train_idx, val_idx = _stratified_split(labels, cfg.validation_fraction, split_rng)
    if len(val_idx) > cfg.val_pool_cap:
        keep = split_rng.choice(len(val_idx), size=cfg.val_pool_cap, replace=False)
        val_idx = val_idx[np.sort(keep)]
    train_labels = labels[train_idx]
    class_items = {
        int(c): train_idx[train_labels == c]
        for c in np.unique(train_labels)
        if int((train_labels == c).sum()) >= cfg.per_class
    }
    needed = max(2, cfg.batch_size // cfg.per_class)
    if len(class_items) < needed:
        raise ValidationError(
            f"insufficient classes: {len(class_items)} with >= per_class members "
            f"after the validation split, but each batch needs {needed}"
        )

    if backbone is None:
        dims = cfg.backbone_dims or (descriptors.shape[1], 64, 64)
        if dims[0] != descriptors.shape[1]:
            raise ValidationError("backbone input dimension must match the descriptors")
        backbone = init_backbone(tuple(dims), seed=derive_seed(cfg.seed, "train/backbone"))
    if codebook is None:
        if cfg.mode == "netrvlad":
            codebook = init_codebook(
                "netrvlad", cfg.n_clusters, backbone.output_dim,
                seed=derive_seed(cfg.seed, "train/codebook"),
            )
        else:
            sample_rng = np.random.default_rng(derive_seed(cfg.seed, "train/codebook-sample"))
            size = min(len(train_idx), 2048)
            pick = np.sort(sample_rng.choice(len(train_idx), size=size, replace=False))
            sample = backbone_forward(backbone, data[train_idx[pick]])
            codebook = init_codebook(
                "netvlad", cfg.n_clusters, backbone.output_dim,
                seed=derive_seed(cfg.seed, "train/codebook"),
                data_sample=sample, alpha_init=cfg.alpha_init,
            )
    if codebook.dim != backbone.output_dim:
        raise ValidationError("codebook dimension must match the backbone output")

    # Adam trains copies in place; the untouched inputs are the snapshot
    # until an epoch scores.
    best_snapshot = (backbone, codebook)
    backbone, codebook = _copy_models(backbone, codebook)
    adam = _Adam(backbone, codebook)
    sample_rng = np.random.default_rng(derive_seed(cfg.seed, "train/sampler"))

    losses: list[float] = []
    triplet_counts: list[int] = []
    val_maps: list[float] = []
    lrs: list[float] = []
    best_map = -np.inf
    best_epoch = -1
    steps = 0
    out_of_steps = False
    stopped_epoch = 0

    for epoch in range(cfg.epochs_max):
        stopped_epoch = epoch
        lr = learning_rate(epoch, cfg)
        batch_losses: list[float] = []
        admitted = 0
        for batch_idx in _epoch_batches(class_items, cfg, sample_rng):
            if cfg.max_steps is not None and steps >= cfg.max_steps:
                out_of_steps = True
                break
            steps += 1
            x = data[batch_idx]
            lab = labels[batch_idx]
            flat = encode_flat(backbone, codebook, x)
            trips = mine_hard_triplets(flat, lab, cfg.margin, cfg.mining)
            admitted += len(trips)
            if not trips:
                # Nothing admitted: zero gradient, so skip the Adam step to
                # avoid momentum-only drift.
                batch_losses.append(0.0)
                continue
            batch = TripletBatch(
                inputs=x, encodings=flat, labels=lab, triplets=trips, margin=cfg.margin
            )
            loss, grads = backward(batch, backbone, codebook)
            adam.step(grads, lr)
            batch_losses.append(loss)
        epoch_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        if len(val_idx) >= 2:
            val_map = _pool_retrieval_map(
                encode_flat(backbone, codebook, data[val_idx]), labels[val_idx]
            )
        else:
            val_map = 0.0
        losses.append(epoch_loss)
        triplet_counts.append(admitted)
        val_maps.append(val_map)
        lrs.append(lr)
        if val_map > best_map:
            best_map = val_map
            best_epoch = epoch
            best_snapshot = _copy_models(backbone, codebook)
        if epoch - best_epoch >= cfg.patience or out_of_steps:
            break

    backbone_out, codebook_out = best_snapshot
    report = TrainReport(
        losses=tuple(losses),
        triplets=tuple(triplet_counts),
        val_maps=tuple(val_maps),
        learning_rates=tuple(lrs),
        stopped_epoch=stopped_epoch,
        best_epoch=best_epoch,
        best_val_map=float(best_map),
        steps=steps,
    )
    return backbone_out, codebook_out, report

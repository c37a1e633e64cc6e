"""Triplet training of the backbone + codebook stack.

Batch-hard mining over class-balanced batches, analytic gradients through
the encoder, Adam with a warmup + cosine learning-rate schedule, early
stopping on a pseudo-class retrieval score over a held-out pool. Mining
and the validation score need only inner products between encodings, so
they read the encodings' Gram matrix (encoder.encoding_gram); the flat
encodings are formed only for a batch that admits triplets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoder import (
    Backbone,
    Codebook,
    backbone_forward,
    encode_flat,
    encode_patches,
    encoding_gram,
    flatten_encoding,
    init_backbone,
    init_codebook,
)
from .errors import TrainingError, ValidationError
from .features import PseudoLabeledSet, as_matrix
from .retrieval import Ranking, evaluate
from .seeds import derive_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VAL_POOL_CAP = 1000  # validation items scored per epoch; a larger split is subsampled


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

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
    max_steps: int | None = None
    n_clusters: int = 16
    backbone_dims: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValidationError("margin must be finite and positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be finite and positive")
        if not 0 < self.validation_fraction < 1:
            raise ValidationError("validation_fraction must lie in (0, 1)")
        if self.per_class < 2:
            raise ValidationError("per_class must be >= 2 so positives exist")
        if self.batch_size < 2 * self.per_class:
            raise ValidationError("batch_size must cover at least two classes")
        if self.batch_size % self.per_class:
            raise ValidationError("batch_size must be a multiple of per_class")
        if self.epochs_max < 1 or self.warmup_epochs < 0 or self.patience < 1:
            raise ValidationError("epoch counts out of range")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("max_steps must be positive when set")
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
        t = np.asarray(self.triplets, dtype=np.intp).reshape(len(self.triplets), 3)
        # explicit, since numpy would wrap a negative index
        if np.any((t < 0) | (t >= n)):
            raise ValidationError("triplet index out of range")
        a, p, neg = t.T
        if np.any(self.labels[p] != self.labels[a]):
            raise ValidationError("positive must share the anchor label")
        if np.any(self.labels[neg] == self.labels[a]):
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


def _parameters(backbone: Backbone, codebook: Codebook) -> list[tuple[str, np.ndarray]]:
    """Every trainable array under its block name, in the one block order
    that Gradients, backward and Adam share."""
    blocks = []
    for i, layer in enumerate(backbone.layers):
        blocks.append((f"backbone.layer{i}.weight", layer.weight))
        blocks.append((f"backbone.layer{i}.bias", layer.bias))
    blocks.append(("codebook.centers", codebook.centers))
    blocks.append(("codebook.weights", codebook.weights))
    blocks.append(("codebook.bias", codebook.bias))
    return blocks


@dataclass(frozen=True)
class Gradients:
    """Loss gradients for every trainable block, named and ordered as
    _parameters lists the parameters."""

    blocks: tuple[tuple[str, np.ndarray], ...]

    def named_blocks(self) -> list[tuple[str, np.ndarray]]:
        return list(self.blocks)


def _pairwise_distances(gram: np.ndarray) -> np.ndarray:
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :]
    d2 -= 2.0 * gram
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2, out=d2)


def mine_hard_triplets(
    gram: np.ndarray, labels: np.ndarray, m: float
) -> tuple[tuple[int, int, int], ...]:
    """Batch-hard candidates filtered by the admission rule, from the
    Gram matrix of the batch's encodings.

    Per anchor: hardest positive (max distance, same label) and hardest
    negative (min distance, other label), ties to the lowest index. The
    candidate is emitted iff d_an < d_ap - m. Anchors ascend.

    The distances are read masked: -inf where the pair is not a
    positive, +inf where it shares the anchor's class. An anchor without
    a positive besides itself gets d_ap = -inf, one without a negative
    d_an = +inf, and neither passes the rule.
    """
    labels = np.asarray(labels)
    if len(labels) == 0:
        return ()
    dist = _pairwise_distances(np.asarray(gram, dtype=np.float64))
    same = labels[:, None] == labels[None, :]
    anchors = np.arange(len(labels))
    positives = np.where(same, dist, -np.inf)
    positives[anchors, anchors] = -np.inf
    p = np.argmax(positives, axis=1)
    d_ap = positives[anchors, p]
    np.putmask(dist, same, np.inf)
    neg = np.argmin(dist, axis=1)
    d_an = dist[anchors, neg]
    admit = d_an < d_ap - m
    return tuple((int(a), int(p[a]), int(neg[a])) for a in np.flatnonzero(admit))


def _check_finite(grads: Gradients) -> None:
    for name, arr in grads.named_blocks():
        if not np.isfinite(arr).all():
            raise TrainingError(f"non-finite gradient in {name}")


def backward(
    batch: TripletBatch, backbone: Backbone, codebook: Codebook
) -> tuple[float, Gradients]:
    """Mean triplet loss and its exact gradients for every parameter block.

    Each active triplet (loss > 0) weights its pairs: C[a, p] += 1 / (T d_ap)
    and C[a, n] -= 1 / (T d_an) over all T triplets, so the encodings'
    gradient is the Laplacian of W = C + C^T applied to them. Clamped
    triplets (loss 0, boundary included) contribute zero gradient; the
    same subgradient-0 convention applies at zero distances.
    """
    if not batch.triplets:
        raise ValidationError("backward requires a nonempty triplet list")
    z, layer_cache = backbone_forward(backbone, batch.inputs, return_cache=True)
    v, fwd = encode_patches(codebook, z, return_cache=True)
    flat = flatten_encoding(v)
    n, n_clusters = fwd["alpha"].shape
    count = len(batch.triplets)
    a, p, neg = np.asarray(batch.triplets, dtype=np.intp).T
    d_ap = np.linalg.norm(flat[a] - flat[p], axis=1)
    d_an = np.linalg.norm(flat[a] - flat[neg], axis=1)
    loss = d_ap - d_an + batch.margin
    active = loss > 0.0
    scale = np.where(active, 1.0 / count, 0.0)
    inv_ap = np.divide(scale, d_ap, out=np.zeros(count), where=d_ap > 0.0)
    inv_an = np.divide(scale, d_an, out=np.zeros(count), where=d_an > 0.0)
    pair_weights = np.zeros((n, n))
    np.add.at(pair_weights, (a, p), inv_ap)
    np.add.at(pair_weights, (a, neg), -inv_an)
    w = pair_weights + pair_weights.T
    dflat = w.sum(axis=1)[:, None] * flat - w @ flat

    dv = dflat.reshape(n, n_clusters, -1)
    alpha, resid = fwd["alpha"], fwd["resid"]
    dalpha = np.sum(dv * resid, axis=2)
    dcenters = -np.einsum("nk,nkd->kd", alpha, dv)
    # Softmax Jacobian applied row-wise.
    srow = np.sum(dalpha * alpha, axis=1, keepdims=True)
    dlogits = alpha * (dalpha - srow)
    dweights = dlogits.T @ fwd["x"]
    dbias = dlogits.sum(axis=0)
    dh = np.einsum("nk,nkd->nd", alpha, dv) + dlogits @ codebook.weights
    by_name = {"codebook.centers": dcenters, "codebook.weights": dweights, "codebook.bias": dbias}
    for i in reversed(range(len(backbone.layers))):
        layer, (h_in, pre) = backbone.layers[i], layer_cache[i]
        da = dh * (pre > 0.0) if layer.activation == "relu" else dh
        by_name[f"backbone.layer{i}.weight"] = da.T @ h_in
        by_name[f"backbone.layer{i}.bias"] = da.sum(axis=0)
        dh = da @ layer.weight
    grads = Gradients(tuple((name, by_name[name]) for name, _ in _parameters(backbone, codebook)))
    _check_finite(grads)
    return float(loss[active].sum()) / count, grads


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
    """Adam updating the models' parameter arrays in place, fixed constants."""

    def __init__(self, backbone: Backbone, codebook: Codebook):
        self.params = [arr for _, arr in _parameters(backbone, codebook)]
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
    _, counts = np.unique(labels, return_counts=True)
    by_class = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])
    perms = [rng.permutation(members) for members in by_class]
    to_val = np.concatenate([np.arange(len(p)) < int(fraction * len(p)) for p in perms])
    drawn = np.concatenate(perms)
    return np.sort(drawn[~to_val]), np.sort(drawn[to_val])


def _epoch_batches(
    class_items: dict[int, np.ndarray], cfg: TrainConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Class-balanced batches without replacement within the epoch.

    Each batch takes per_class items from batch_size/per_class distinct
    classes; a class retires once it cannot fill a full group."""
    per = cfg.per_class
    n_classes = cfg.batch_size // per
    perms = [rng.permutation(items) for _, items in sorted(class_items.items())]
    left = np.array([len(perm) for perm in perms])  # undrawn items: each permutation's tail
    batches: list[np.ndarray] = []
    while True:
        active = np.flatnonzero(left >= per)
        if len(active) < n_classes:
            return batches
        picked = active[np.sort(rng.choice(len(active), size=n_classes, replace=False))]
        batches.append(np.concatenate([perms[c][-left[c] :][:per] for c in picked]))
        left[picked] -= per


def _pool_retrieval_map(gram: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out retrieval mAP over a pool, from the Gram matrix of its
    encodings: `evaluate` on the cosine ranking with ties by index (an
    all-zero encoding scores 0 against everything); relevance = same
    label. Items whose label is unique in the pool are skipped. The Gram
    is turned into the similarities in place, so the caller's array is
    consumed."""
    n = len(labels)
    if n < 2:
        return 0.0
    norms = np.sqrt(np.clip(np.diag(gram), 0.0, None))
    safe = np.where(norms > 0.0, norms, 1.0)
    gram /= safe[:, None]
    gram /= safe
    np.fill_diagonal(gram, -np.inf)
    ids = tuple(map(str, range(n)))
    return evaluate(Ranking(ids, gram, np.arange(n)), dict(zip(ids, map(str, labels)))).map


def train(
    labeled: PseudoLabeledSet, descriptors: np.ndarray, cfg: TrainConfig
) -> tuple[Backbone, Codebook, TrainReport]:
    """Run the full training loop; returns the best-validation snapshot.

    descriptors holds the full preprocessed matrix; labeled selects the
    kept rows and their pseudo-classes. Fully deterministic per cfg.seed.
    """
    descriptors = as_matrix(descriptors, "train")
    # Batches index the descriptors through the kept rows: no copy of them.
    kept = labeled.kept_indices
    labels = labeled.labels
    if len(kept) == 0:
        raise ValidationError("no labeled descriptors to train on")

    split_rng = np.random.default_rng(derive_seed(cfg.seed, "train/split"))
    train_idx, val_idx = _stratified_split(labels, cfg.validation_fraction, split_rng)
    if len(val_idx) > VAL_POOL_CAP:
        keep = split_rng.choice(len(val_idx), size=VAL_POOL_CAP, replace=False)
        val_idx = val_idx[np.sort(keep)]
    train_labels = labels[train_idx]
    classes, counts = np.unique(train_labels, return_counts=True)
    class_items = {
        int(c): train_idx[train_labels == c] for c in classes[counts >= cfg.per_class]
    }
    needed = cfg.batch_size // cfg.per_class
    if len(class_items) < needed:
        raise ValidationError(
            f"insufficient classes: {len(class_items)} with >= per_class members "
            f"after the validation split, but each batch needs {needed}"
        )

    dims = cfg.backbone_dims or (descriptors.shape[1], 64, 64)
    if dims[0] != descriptors.shape[1]:
        raise ValidationError("backbone input dimension must match the descriptors")
    backbone = init_backbone(tuple(dims), seed=derive_seed(cfg.seed, "train/backbone"))
    codebook = init_codebook(
        cfg.n_clusters, backbone.output_dim, seed=derive_seed(cfg.seed, "train/codebook")
    )

    # Adam trains copies in place; the untouched initial models are the
    # snapshot until an epoch scores.
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
            x = descriptors[kept[batch_idx]]
            lab = labels[batch_idx]
            trips = mine_hard_triplets(encoding_gram(backbone, codebook, x), lab, cfg.margin)
            admitted += len(trips)
            if not trips:
                # Nothing admitted: zero gradient, so skip the Adam step to
                # avoid momentum-only drift.
                batch_losses.append(0.0)
                continue
            batch = TripletBatch(
                inputs=x, encodings=encode_flat(backbone, codebook, x), labels=lab,
                triplets=trips, margin=cfg.margin,
            )
            loss, grads = backward(batch, backbone, codebook)
            adam.step(grads, lr)
            batch_losses.append(loss)
        epoch_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        val_map = _pool_retrieval_map(
            encoding_gram(backbone, codebook, descriptors[kept[val_idx]]), labels[val_idx]
        )
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

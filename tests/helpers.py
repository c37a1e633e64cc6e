"""Shared test machinery: a traced-memory probe, an independent
triplet-loss objective, a central finite-difference harness for checking
analytic gradients, plain-loop oracles that the vectorized k-means,
assignment, training sampler, mining, ranking and retrieval scoring must
match bitwise and the pair-weight triplet gradient must match to rounding,
the whole-matrix formulas that the row-blocked PCA projection, Gram
and model writer must match byte for byte, and the copying PCA fit and
projection that the in-place one must match byte for byte."""

from __future__ import annotations

import struct
import tracemalloc
from collections.abc import Callable

import numpy as np

from wret import features
from wret.encoder import (
    Backbone,
    Codebook,
    Layer,
    _weighted_residuals,
    backbone_forward,
    encode_flat,
    encode_patches,
    flatten_encoding,
)
from wret.features import PcaModel
from wret.fileio import FORMAT_VERSION, MAGIC_MODEL, canonical_json
from wret.retrieval import Ranking, RetrievalReport
from wret.trainer import TrainConfig, TripletBatch

def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes allocated while fn runs, above what was allocated before.
    numpy reports its array buffers to tracemalloc; memory that BLAS or
    LAPACK allocate themselves is not seen."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


FD_STEP = 1e-5
# Relative error denominator floor; below this scale finite differences
# are dominated by roundoff, not by the gradient being checked.
REL_GUARD = 1e-6


def named_param_arrays(backbone: Backbone, codebook: Codebook) -> list[tuple[str, np.ndarray]]:
    blocks = []
    for i, layer in enumerate(backbone.layers):
        blocks.append((f"backbone.layer{i}.weight", layer.weight))
        blocks.append((f"backbone.layer{i}.bias", layer.bias))
    blocks.append(("codebook.centers", codebook.centers))
    blocks.append(("codebook.weights", codebook.weights))
    blocks.append(("codebook.bias", codebook.bias))
    return blocks


def rebuild_with(
    backbone: Backbone, codebook: Codebook, block: str, flat_index: int, delta: float
) -> tuple[Backbone, Codebook]:
    """Copy of the models with one parameter entry shifted by delta."""
    layer_params = [
        [layer.weight.copy(), layer.bias.copy(), layer.activation] for layer in backbone.layers
    ]
    cb_params = {
        "centers": codebook.centers.copy(),
        "weights": codebook.weights.copy(),
        "bias": codebook.bias.copy(),
    }
    if block.startswith("backbone.layer"):
        idx = int(block.split("layer")[1].split(".")[0])
        which = 0 if block.endswith("weight") else 1
        arr = layer_params[idx][which]
        arr.flat[flat_index] += delta
    else:
        arr = cb_params[block.split(".")[1]]
        arr.flat[flat_index] += delta
    layers = tuple(Layer(weight=w, bias=b, activation=a) for w, b, a in layer_params)
    return Backbone(layers=layers), Codebook(**cb_params)


def triplet_objective(
    backbone: Backbone,
    codebook: Codebook,
    inputs: np.ndarray,
    triplets: tuple[tuple[int, int, int], ...],
    margin: float,
) -> float:
    """Mean clamped triplet loss, written independently of the trainer."""
    flat = encode_flat(backbone, codebook, inputs)
    total = 0.0
    for a, p, n in triplets:
        d_ap = float(np.linalg.norm(flat[a] - flat[p]))
        d_an = float(np.linalg.norm(flat[a] - flat[n]))
        total += max(0.0, d_ap - d_an + margin)
    return total / len(triplets)


def well_conditioned(
    backbone: Backbone,
    codebook: Codebook,
    inputs: np.ndarray,
    triplets: tuple[tuple[int, int, int], ...],
    margin: float,
    gap: float = 1e-3,
) -> bool:
    """True when no forward quantity sits within `gap` of a kink, so the
    central difference with FD_STEP stays on one smooth branch."""
    _, cache = backbone_forward(backbone, inputs, return_cache=True)
    for layer, (_, pre) in zip(backbone.layers, cache):
        if layer.activation == "relu" and np.any(np.abs(pre) < gap):
            return False
    flat = encode_flat(backbone, codebook, inputs)
    for a, p, n in triplets:
        d_ap = float(np.linalg.norm(flat[a] - flat[p]))
        d_an = float(np.linalg.norm(flat[a] - flat[n]))
        if d_ap < gap or d_an < gap:
            return False
        if abs(d_ap - d_an + margin) < gap:
            return False
    return True


def random_gradcheck_config(
    seed: int,
) -> tuple[Backbone, Codebook, np.ndarray, tuple[tuple[int, int, int], ...], float] | None:
    """One random small model + triplet set, or None if it lands too close
    to a kink for finite differences."""
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(2, 5))
    d_out = int(rng.integers(2, 7))
    n_clusters = int(rng.integers(2, 5))
    layers = []
    dims = [d_in, d_out] if rng.random() < 0.5 else [d_in, int(rng.integers(3, 6)), d_out]
    for i, (fi, fo) in enumerate(zip(dims, dims[1:])):
        act = "relu" if i < len(dims) - 2 or rng.random() < 0.5 else "identity"
        layers.append(
            Layer(weight=rng.normal(size=(fo, fi)), bias=rng.normal(size=fo) * 0.5, activation=act)
        )
    backbone = Backbone(layers=tuple(layers))
    rng.random()  # unused; kept so each seed draws the same other parameters
    codebook = Codebook(
        centers=rng.normal(size=(n_clusters, d_out)),
        weights=rng.normal(size=(n_clusters, d_out)),
        bias=rng.normal(size=n_clusters) * 0.3,
    )
    n_items = 6
    inputs = rng.normal(size=(n_items, d_in))
    # Labels 0,0,0,1,1,1; a fixed valid triplet pattern over them.
    triplets = ((0, 1, 3), (1, 2, 4), (3, 4, 0), (4, 5, 2))
    margin = 0.5
    if not well_conditioned(backbone, codebook, inputs, triplets, margin):
        return None
    return backbone, codebook, inputs, triplets, margin


def max_relative_fd_error(
    backbone: Backbone,
    codebook: Codebook,
    inputs: np.ndarray,
    triplets: tuple[tuple[int, int, int], ...],
    margin: float,
    analytic_blocks: dict[str, np.ndarray],
    step: float = FD_STEP,
) -> float:
    """Largest relative disagreement between analytic gradients and central
    finite differences over every parameter entry."""
    worst = 0.0
    for name, param in named_param_arrays(backbone, codebook):
        analytic = analytic_blocks[name]
        for flat_index in range(param.size):
            bb_p, cb_p = rebuild_with(backbone, codebook, name, flat_index, +step)
            bb_m, cb_m = rebuild_with(backbone, codebook, name, flat_index, -step)
            f_p = triplet_objective(bb_p, cb_p, inputs, triplets, margin)
            f_m = triplet_objective(bb_m, cb_m, inputs, triplets, margin)
            fd = (f_p - f_m) / (2.0 * step)
            an = float(analytic.flat[flat_index])
            rel = abs(fd - an) / max(abs(fd), abs(an), REL_GUARD)
            worst = max(worst, rel)
    return worst


def squared_distances_oracle(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, clipped at zero."""
    sq = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def kmeans_oracle(
    data: np.ndarray, n_clusters: int, seed: int, inertias: list[float] | None = None
) -> tuple[np.ndarray, float, int, bool, int]:
    """Lloyd iterations on the full distance matrix with one masked mean per
    center. Returns centers, inertia, iterations, converged, empty reseeds;
    appends the inertia of every assignment pass (one per iteration, then
    the final one) to ``inertias`` when given."""
    x = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centers = features._kmeans_pp_init(x, n_clusters, rng)
    iterations = reseeds = 0
    converged = False
    for _ in range(features.KMEANS_MAX_ITER):
        iterations += 1
        sq = squared_distances_oracle(x, centers)
        assign = np.argmin(sq, axis=1)
        if inertias is not None:
            inertias.append(float(sq[np.arange(x.shape[0]), assign].sum()))
        new_centers = centers.copy()
        for k in range(n_clusters):
            members = assign == k
            if members.any():
                new_centers[k] = x[members].mean(axis=0)
            else:
                # Re-seed an empty cluster at the worst-served point.
                worst = int(np.argmax(sq[np.arange(x.shape[0]), assign]))
                new_centers[k] = x[worst]
                reseeds += 1
        movement = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if movement < features.KMEANS_TOL:
            converged = True
            break
    sq = squared_distances_oracle(x, centers)
    assign = np.argmin(sq, axis=1)
    inertia = float(sq[np.arange(x.shape[0]), assign].sum())
    if inertias is not None:
        inertias.append(inertia)
    return centers, inertia, iterations, converged, reseeds


def kmeans_pp_init_oracle(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """features._kmeans_pp_init with a new (x - c) ** 2 array per center."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            used = {tuple(c) for c in centers[:i]}
            candidates = [j for j in range(n) if tuple(x[j]) not in used]
            idx = candidates[int(rng.integers(len(candidates)))] if candidates else int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[i] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def assign_and_filter_oracle(
    centers: np.ndarray, data: np.ndarray, rho: float
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(kept (index, label) pairs, rejected indices) via a stable sort of
    each row's distances."""
    sq = squared_distances_oracle(data, centers)
    order = np.argsort(sq, axis=1, kind="stable")
    nearest = order[:, 0]
    second = order[:, 1]
    rows = np.arange(len(data))
    d1 = np.sqrt(sq[rows, nearest])
    d2 = np.sqrt(sq[rows, second])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d1 == 0.0, 0.0, d1 / np.where(d2 > 0.0, d2, np.inf))
    kept = ratio <= rho
    items = tuple((int(i), int(nearest[i])) for i in rows[kept])
    rejected = tuple(int(i) for i in rows[~kept])
    return items, rejected


def mine_oracle(
    gram: np.ndarray, labels: np.ndarray, m: float
) -> tuple[tuple[int, int, int], ...]:
    """Batch-hard candidates from the encodings' Gram matrix, one anchor
    at a time."""
    labels = np.asarray(labels)
    g = np.asarray(gram, dtype=np.float64)
    sq = np.diag(g)
    dist = np.sqrt(np.clip(sq[:, None] + sq[None, :] - 2.0 * g, 0.0, None))
    triplets = []
    for a in range(len(labels)):
        same = labels == labels[a]
        pos = same.copy()
        pos[a] = False
        if not pos.any() or same.all():
            continue
        p = int(np.argmax(np.where(pos, dist[a], -np.inf)))
        neg = int(np.argmin(np.where(~same, dist[a], np.inf)))
        d_ap = dist[a, p]
        d_an = dist[a, neg]
        if d_an < d_ap - m:
            triplets.append((a, p, neg))
    return tuple(triplets)


def stratified_split_oracle(
    labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """trainer._stratified_split over Python lists, one class at a time."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        k = int(fraction * len(members))
        perm = rng.permutation(members)
        val_idx.extend(perm[:k].tolist())
        train_idx.extend(perm[k:].tolist())
    return np.array(sorted(train_idx), dtype=int), np.array(sorted(val_idx), dtype=int)


def epoch_batches_oracle(
    class_items: dict[int, np.ndarray], cfg: TrainConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """trainer._epoch_batches with a Python list as each class's queue."""
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


def backward_oracle(
    batch: TripletBatch, backbone: Backbone, codebook: Codebook
) -> tuple[float, dict[str, np.ndarray]]:
    """trainer.backward with the encodings' gradient summed one triplet at
    a time; returns the mean loss and the gradient of every named block."""
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
    alpha, resid = fwd["alpha"], fwd["resid"]
    dalpha = np.sum(dv * resid, axis=2)
    grads = {"codebook.centers": -np.einsum("nk,nkd->kd", alpha, dv)}
    dh = np.einsum("nk,nkd->nd", alpha, dv)
    srow = np.sum(dalpha * alpha, axis=1, keepdims=True)
    dlogits = alpha * (dalpha - srow)
    grads["codebook.weights"] = dlogits.T @ fwd["x"]
    grads["codebook.bias"] = dlogits.sum(axis=0)
    dh = dh + dlogits @ codebook.weights
    for i in reversed(range(len(backbone.layers))):
        layer, (h_in, pre) = backbone.layers[i], layer_cache[i]
        da = dh * (pre > 0.0) if layer.activation == "relu" else dh
        grads[f"backbone.layer{i}.weight"] = da.T @ h_in
        grads[f"backbone.layer{i}.bias"] = da.sum(axis=0)
        dh = da @ layer.weight
    return total / count, grads


def rank_rows_oracle(
    scores: np.ndarray, tie_rank: np.ndarray, candidates: np.ndarray | None = None
) -> np.ndarray:
    """retrieval.rank_rows as one two-key lexsort of every row: descending
    score, ties by ascending tie_rank, the row's own column left out by
    default."""
    if candidates is None:
        n = len(scores)
        cols = np.arange(n - 1)
        candidates = cols + (cols >= np.arange(n)[:, None])
    order = np.lexsort(
        (tie_rank[candidates], -np.take_along_axis(scores, candidates, axis=1)), axis=1
    )
    return np.take_along_axis(candidates, order, axis=1)


def average_precisions_oracle(hits: np.ndarray) -> np.ndarray:
    """AP of every row of a boolean relevance matrix ranked left to right:
    the mean of hits_so_far/position over the relevant positions, summed
    in rank order. A row without hits scores 0.0."""
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    summed = np.cumsum(np.where(hits, precision, 0.0), axis=1)[:, -1]
    total = hits.sum(axis=1)
    return np.where(total > 0, summed / np.maximum(total, 1), 0.0)


def evaluate_oracle(
    ranking: Ranking, writers: dict[str, str], score_isolated_as_zero: bool = False
) -> RetrievalReport:
    """retrieval.evaluate over the full ranking's (n, n - 1) hits matrix."""
    ids = ranking.page_ids
    _, labels = np.unique([writers[p] for p in ids], return_inverse=True)
    hits = labels[rank_rows_oracle(ranking.sims, ranking.tie_rank)] == labels[:, None]
    ap = average_precisions_oracle(hits)
    isolated = ~hits.any(axis=1)
    first = np.where(isolated, 0, np.argmax(hits, axis=1) + 1)
    scored = np.flatnonzero(~isolated | score_isolated_as_zero)
    return RetrievalReport(
        map=float(np.mean(ap[scored])) if len(scored) else 0.0,
        top1=float(np.mean(hits[scored, 0])) if len(scored) else 0.0,
        per_query_ap={ids[q]: float(ap[q]) for q in scored},
        per_query_top1={ids[q]: bool(hits[q, 0]) for q in scored},
        first_relevant_rank={ids[q]: int(first[q]) for q in scored},
        isolated_queries=tuple(ids[q] for q in np.flatnonzero(isolated)),
        query_count=len(ids),
    )


def pool_retrieval_map_oracle(gram: np.ndarray, labels: np.ndarray) -> float:
    """trainer._pool_retrieval_map over the full ranking's hits matrix."""
    n = len(labels)
    if n < 2:
        return 0.0
    norms = np.sqrt(np.clip(np.diag(gram), 0.0, None))
    safe = np.where(norms > 0.0, norms, 1.0)
    order = rank_rows_oracle(gram / safe[:, None] / safe, np.arange(n))
    hits = labels[order] == labels[:, None]
    aps = average_precisions_oracle(hits)[hits.any(axis=1)]
    return float(np.mean(aps)) if len(aps) else 0.0


def pca_transform_oracle(model: PcaModel, d: np.ndarray) -> np.ndarray:
    """features.pca_transform on the whole matrix at once."""
    return (np.asarray(d, dtype=np.float64) - model.mean) @ model.basis.T * model.scale


def cluster_fit_project_oracle(
    normalized: np.ndarray, target_dim: int, whiten: bool = False
) -> tuple[PcaModel, np.ndarray]:
    """features.fit_transform_pca_in_place as the cluster stage ran it
    before: fit_pca on a centered copy, then pca_transform of the rows.
    Leaves its input as it is."""
    pca = features.fit_pca(normalized, target_dim, whiten=whiten)
    return pca, features.pca_transform(pca, normalized)


def encoding_gram_oracle(b: Backbone, cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """encoder.encoding_gram with every (n, n) term formed whole."""
    rows = backbone_forward(b, np.asarray(xs, dtype=np.float64))
    w, _, i, k, e = _weighted_residuals(cb, rows)
    q = w * (0.5 * np.sum(cb.centers**2, axis=1) - rows @ cb.centers.T)
    gram = rows @ rows.T
    gram *= w @ w.T
    qw = q @ w.T
    gram += qw
    gram += qw.T
    if len(i):
        cross = np.zeros_like(gram)
        np.add.at(cross, i, w[:, k].T * (e @ rows.T - np.sum(e * cb.centers[k], axis=1)[:, None]))
        gram += cross + cross.T
        np.add.at(gram, (i[:, None], i), np.where(k[:, None] == k, e @ e.T, 0.0))
    return gram


def model_file_oracle(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """The bytes of fileio.save_model's file, joined from `tobytes` copies."""
    entries = []
    out = bytearray()
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        dtype = "<f8" if arr.dtype == np.float64 else "<i8"
        entries.append({"dtype": dtype, "name": name, "shape": list(arr.shape)})
        out += arr.astype(dtype).tobytes(order="C")
    header = canonical_json({"arrays": entries, "kind": kind, "meta": meta}).encode("utf-8")
    return MAGIC_MODEL + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header + bytes(out)

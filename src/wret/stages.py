"""Pipeline stages over file artifacts.

Each stage declares its input artifacts, with the stage that produces
each, and its output file names once, in `_stage`: a missing input
names its producer, no output may overwrite an input, and the stage
body runs under an exclusive lock on its output directory. A stage that
fails removes the output directory if it created it and the directory
is still empty; a directory that existed before is always kept. Files a
stage wrote before failing stay behind until writes are atomic.

Every report embeds the stage's config hash and seed. Reports carry no
timestamps: re-running a stage with identical inputs and config
reproduces every output byte for byte.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

# encode_patches, aggregate_pages: the traced run wraps them here; test_perfbench_layers pins that.
from .aggregation import aggregate_pages, power_normalize, whiten_pages  # noqa: F401
from .encoder import backbone_forward, encode_patches, pool_patches  # noqa: F401
from .errors import ArtifactIOError, ValidationError
from .features import (
    PseudoLabeledSet,
    assign_and_filter,
    fit_kmeans,
    fit_pca,
    hellinger_normalize,
    pca_transform,
)
from .fileio import (
    config_hash,
    load_backbone,
    load_codebook,
    load_manifest,
    load_model,
    load_page_descriptors,
    load_pca,
    read_embeddings,
    save_backbone,
    save_codebook,
    save_cluster_model,
    save_model,
    save_pca,
    typed_entry,
    write_embeddings,
    write_json,
)
from .rerank import RerankConfig, rerank
from .retrieval import evaluate, rank_all, report_to_csv, report_to_json
from .seeds import derive_seed
from .synth import SynthSpec, synth_generate
from .trainer import TrainConfig, train

LOCK_NAME = ".wret.lock"


@dataclass(frozen=True)
class ClusterConfig:
    """Descriptor preprocessing and pseudo-labeling parameters."""

    n_clusters: int = 64
    target_dim: int = 32
    rho: float = 0.9
    cap: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ValidationError("n_clusters must be >= 2")
        if self.target_dim < 1:
            raise ValidationError("target_dim must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValidationError("rho must be in (0, 1]")
        if self.cap < 1:
            raise ValidationError("cap must be >= 1")


@dataclass(frozen=True)
class EncodeConfig:
    """Page-embedding parameters for the encode stage."""

    page_dim: int = 64
    power_alpha: float = 0.4
    cap: int = 2000
    seed: int = 0
    page_pca: str | None = None  # optional prefit page-level PCA model

    def __post_init__(self):
        if self.page_dim < 1:
            raise ValidationError("page_dim must be >= 1")
        if not 0.0 < self.power_alpha <= 1.0:
            raise ValidationError("power_alpha must be in (0, 1]")
        if self.cap < 1:
            raise ValidationError("cap must be >= 1")


@contextmanager
def output_lock(out_dir: Path):
    """Reject concurrent invocations targeting the same output directory.

    A directory this call creates is removed again on exit while it is
    still empty, so a stage that fails before writing leaves nothing.
    """
    created = not out_dir.is_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ArtifactIOError(
            f"another invocation holds {lock}; remove it if no run is active"
        ) from None
    try:
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)
        if created:
            with suppress(OSError):  # rmdir fails, keeping the directory, unless it is empty
                out_dir.rmdir()


@contextmanager
def _stage(out_dir: Path | str, inputs: list[tuple[Path | str, str]], outputs: list[str]):
    """Check a stage's inputs, then hold the lock on its output directory.

    `inputs` pairs each input path with the stage that produces it; the
    body gets the paths of the `outputs` file names inside `out_dir`.
    """
    out_dir = Path(out_dir)
    for path, producer in inputs:
        if not Path(path).exists():
            raise ArtifactIOError(
                f"missing artifact {path}; it is produced by the '{producer}' stage"
            )
    read = {Path(path).resolve() for path, _ in inputs}
    paths = [out_dir / name for name in outputs]
    for path in paths:
        if path.resolve() in read:
            raise ValidationError(f"stage would overwrite its input {path}")
    with output_lock(out_dir):
        yield paths


def _stage_hash(stage: str, cfg: dict) -> str:
    return config_hash({"stage": stage, **cfg})


# --------------------------------------------------------------------------
# Stages


def run_synth(spec: SynthSpec, out_dir: Path | str) -> Path:
    with _stage(out_dir, [], ["synth_report.json"]) as [report_path]:
        manifest_path = synth_generate(spec, out_dir)
        write_json(
            report_path,
            {
                "config_hash": _stage_hash("synth", asdict(spec)),
                "n_pages": len(load_manifest(manifest_path).pages),
                "n_writers": spec.n_writers,
                "seed": spec.seed,
            },
        )
    return manifest_path


def run_cluster(manifest_path: Path | str, out_dir: Path | str, cfg: ClusterConfig) -> dict:
    """Hellinger + PCA + k-means pseudo-labels; persists models and labels."""
    with _stage(
        out_dir,
        [(manifest_path, "synth")],
        ["pca.wrmd", "kmeans.wrmd", "labels.wrmd", "cluster_report.json"],
    ) as (pca_path, kmeans_path, labels_path, report_path):
        manifest = load_manifest(manifest_path)
        loaded = load_page_descriptors(manifest, cap=cfg.cap)
        raw = np.vstack([data for _, data in loaded]).astype(np.float64)
        page_index = np.concatenate(
            [np.full(len(data), i, dtype=np.int64) for i, (_, data) in enumerate(loaded)]
        )
        normalized = hellinger_normalize(raw)
        pca = fit_pca(normalized, cfg.target_dim, whiten=False)
        reduced = pca_transform(pca, normalized)
        kmeans = fit_kmeans(
            reduced, cfg.n_clusters, seed=derive_seed(cfg.seed, "cluster/kmeans")
        )
        labeled = assign_and_filter(kmeans, reduced, cfg.rho)
        cfg_hash = _stage_hash("cluster", asdict(cfg))
        save_pca(pca_path, pca)
        save_cluster_model(kmeans_path, kmeans, cfg.seed)
        save_model(
            labels_path,
            "labels",
            {
                "config_hash": cfg_hash,
                "dataset": manifest.dataset,
                "n_clusters": cfg.n_clusters,
                "rho": cfg.rho,
                "seed": cfg.seed,
            },
            {
                "descriptors": reduced,
                "kept": labeled.kept_indices,
                "labels": labeled.labels,
                "page_index": page_index,
                "rejected": np.array(labeled.rejected, dtype=np.int64),
            },
        )
        report = {
            "config_hash": cfg_hash,
            "converged": kmeans.run.converged,
            "empty_reseeds": kmeans.run.empty_reseeds,
            "inertia": float(kmeans.inertia),
            "iterations": kmeans.run.iterations,
            "n_descriptors": int(len(raw)),
            "n_kept": int(len(labeled.items)),
            "n_rejected": int(len(labeled.rejected)),
            "seed": cfg.seed,
        }
        write_json(report_path, report)
    return report


def load_labels(path: Path | str) -> tuple[PseudoLabeledSet, np.ndarray, dict]:
    """Read a labels artifact back into trainer inputs."""
    meta, arrays = load_model(path, "labels")
    kept, labels, rejected, descriptors = (
        typed_entry(path, arrays, name, np.ndarray)
        for name in ("kept", "labels", "rejected", "descriptors")
    )
    if not (
        descriptors.ndim == 2
        and kept.ndim == labels.ndim == rejected.ndim == 1
        and len(kept) == len(labels)
        and all(a.dtype.kind == "i" for a in (kept, labels, rejected))
        and all(np.all((a >= 0) & (a < len(descriptors))) for a in (kept, rejected))
    ):
        raise ArtifactIOError(f"{path} has label arrays that do not index its descriptors")
    labeled = PseudoLabeledSet(
        items=tuple(zip(kept.tolist(), labels.tolist())), rejected=tuple(rejected.tolist())
    )
    return labeled, descriptors, meta


def run_train(labels_path: Path | str, out_dir: Path | str, cfg: TrainConfig) -> dict:
    """Triplet-train the encoder on pseudo-labels; persists model snapshots."""
    with _stage(
        out_dir,
        [(labels_path, "cluster")],
        ["backbone.wrmd", "codebook.wrmd", "train_report.json"],
    ) as (backbone_path, codebook_path, report_path):
        labeled, descriptors, _ = load_labels(labels_path)
        backbone, codebook, result = train(labeled, descriptors, cfg)
        cfg_hash = _stage_hash("train", asdict(cfg))
        save_backbone(backbone_path, backbone, cfg.seed)
        save_codebook(codebook_path, codebook, cfg.seed)
        report = {
            "best_epoch": result.best_epoch,
            "best_val_map": result.best_val_map,
            "config_hash": cfg_hash,
            "learning_rates": list(result.learning_rates),
            "losses": list(result.losses),
            "seed": cfg.seed,
            "steps": result.steps,
            "stopped_epoch": result.stopped_epoch,
            "triplets": list(result.triplets),
            "val_maps": list(result.val_maps),
        }
        write_json(report_path, report)
    return report


def run_encode(
    manifest_path: Path | str,
    models_dir: Path | str,
    out_dir: Path | str,
    cfg: EncodeConfig,
) -> Path:
    """Encode every page to a unit-norm global descriptor dump."""
    pca_path, backbone_path, codebook_path = (
        Path(models_dir) / name for name in ("pca.wrmd", "backbone.wrmd", "codebook.wrmd")
    )
    inputs = [
        (manifest_path, "synth"),
        (pca_path, "cluster"),
        (backbone_path, "train"),
        (codebook_path, "train"),
    ]
    if cfg.page_pca is not None:
        inputs.append((cfg.page_pca, "encode"))
    with _stage(
        out_dir, inputs, ["embeddings.json", "embeddings.bin", "page_pca.wrmd"]
    ) as (embeddings_path, _, page_pca_path):
        prefit = None if cfg.page_pca is None else load_pca(cfg.page_pca)
        manifest = load_manifest(manifest_path)
        pca = load_pca(pca_path)
        backbone = load_backbone(backbone_path)
        codebook = load_codebook(codebook_path)
        pooled = []
        page_ids = []
        writer_ids = []
        for record, data in load_page_descriptors(manifest, cap=cfg.cap):
            if len(data) == 0:
                raise ValidationError(f"page {record.page_id} has no descriptors")
            reduced = pca_transform(pca, hellinger_normalize(data.astype(np.float64)))
            embedded = backbone_forward(backbone, reduced)
            pooled.append(power_normalize(pool_patches(codebook, embedded), cfg.power_alpha))
            page_ids.append(record.page_id)
            writer_ids.append(record.writer_id)
        pages, page_pca = whiten_pages(
            np.array(pooled), cfg.page_dim, page_ids=page_ids, writer_ids=writer_ids, pca=prefit
        )
        cfg_hash = _stage_hash("encode", asdict(cfg))
        write_embeddings(embeddings_path, pages, cfg_hash, cfg.seed)
        save_pca(page_pca_path, page_pca)
    return embeddings_path


def run_evaluate(
    embeddings_path: Path | str,
    out_dir: Path | str,
    score_isolated: bool = False,
    per_query: bool = False,
) -> dict:
    """Leave-one-out retrieval metrics over an embedding dump."""
    with _stage(
        out_dir,
        [(embeddings_path, "encode")],
        ["eval_report.json", "eval_per_query.csv"],
    ) as (report_path, csv_path):
        pages, sidecar = read_embeddings(embeddings_path)
        ranked = rank_all(pages)
        writers = {p.page_id: p.writer_id for p in pages}
        result = evaluate(ranked, writers, score_isolated_as_zero=score_isolated)
        report = report_to_json(result)
        report["config_hash"] = _stage_hash(
            "evaluate",
            {
                "embeddings_hash": sidecar.get("config_hash", ""),
                "score_isolated": score_isolated,
            },
        )
        report["seed"] = sidecar.get("seed", 0)
        write_json(report_path, report)
        if per_query:
            csv_path.write_text(report_to_csv(result), encoding="utf-8")
    return report


def run_rerank(
    embeddings_path: Path | str, out_dir: Path | str, cfg: RerankConfig
) -> dict:
    """Refine embeddings on the similarity graph; reports before/after metrics."""
    with _stage(
        out_dir,
        [(embeddings_path, "encode")],
        ["reranked.json", "reranked.bin", "rerank_report.json"],
    ) as (reranked_path, _, report_path):
        pages, sidecar = read_embeddings(embeddings_path)
        writers = {p.page_id: p.writer_id for p in pages}
        before = evaluate(rank_all(pages), writers)
        refined = rerank(pages, cfg)
        after = evaluate(rank_all(refined), writers)
        cfg_hash = _stage_hash(
            "rerank",
            {"embeddings_hash": sidecar.get("config_hash", ""), **asdict(cfg)},
        )
        seed = sidecar.get("seed", 0)
        write_embeddings(reranked_path, refined, cfg_hash, seed)
        report = {
            "after": {"map": after.map, "top1": after.top1},
            "before": {"map": before.map, "top1": before.top1},
            "config_hash": cfg_hash,
            "method": cfg.method,
            "params": asdict(cfg),
            "seed": seed,
        }
        write_json(report_path, report)
    return report


def run_sweep(
    embeddings_path: Path | str,
    out_dir: Path | str,
    gammas: list[float],
    layers_grid: list[int],
    ks: list[int],
    method: str = "sgr",
) -> Path:
    """Grid-search rerank parameters; one CSV row per grid point."""
    if not gammas or not layers_grid or not ks:
        raise ValidationError("sweep grid must not be empty")
    grid = [
        RerankConfig(method=method, k=k, layers=layers, gamma=gamma)
        for gamma in gammas
        for layers in layers_grid
        for k in ks
    ]
    with _stage(out_dir, [(embeddings_path, "encode")], ["sweep.csv"]) as [out_csv]:
        pages, _ = read_embeddings(embeddings_path)
        writers = {p.page_id: p.writer_id for p in pages}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["gamma", "layers", "k", "map", "top1"])
        for cfg in grid:
            result = evaluate(rank_all(rerank(pages, cfg)), writers)
            writer.writerow(
                [repr(float(cfg.gamma)), cfg.layers, cfg.k, repr(result.map), repr(result.top1)]
            )
        out_csv.write_text(buf.getvalue(), encoding="utf-8")
    return out_csv


def run_report(
    manifest_path: Path | str,
    out_dir: Path | str,
    seeds: list[int],
    cluster_cfg: ClusterConfig,
    train_cfg: TrainConfig,
    encode_cfg: EncodeConfig,
) -> dict:
    """Full pipeline per seed, then mean and spread of the metrics."""
    if not seeds:
        raise ValidationError("report needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValidationError("report seeds must be distinct")
    with _stage(out_dir, [(manifest_path, "synth")], ["report.json"]) as [report_path]:
        per_seed = []
        for seed in seeds:
            run_dir = report_path.parent / f"seed_{seed}"
            ccfg = replace(cluster_cfg, seed=seed)
            tcfg = replace(train_cfg, seed=seed)
            ecfg = replace(encode_cfg, seed=seed)
            run_cluster(manifest_path, run_dir, ccfg)
            run_train(run_dir / "labels.wrmd", run_dir, tcfg)
            emb = run_encode(manifest_path, run_dir, run_dir, ecfg)
            eval_report = run_evaluate(emb, run_dir)
            per_seed.append(
                {"map": eval_report["map"], "seed": seed, "top1": eval_report["top1"]}
            )
        maps = [r["map"] for r in per_seed]
        top1s = [r["top1"] for r in per_seed]
        cfg_hash = _stage_hash(
            "report",
            {
                "cluster": asdict(cluster_cfg),
                "encode": asdict(encode_cfg),
                "seeds": list(seeds),
                "train": asdict(train_cfg),
            },
        )
        report = {
            "config_hash": cfg_hash,
            "map_mean": float(np.mean(maps)),
            "map_spread": float(np.max(maps) - np.min(maps)),
            "per_seed": per_seed,
            "seeds": list(seeds),
            "top1_mean": float(np.mean(top1s)),
            "top1_spread": float(np.max(top1s) - np.min(top1s)),
        }
        write_json(report_path, report)
    return report

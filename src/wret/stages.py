"""Pipeline stages over file artifacts.

Each stage declares its input artifacts, with the stage that produces
each, and its output file names once, in `_stage`: a missing input
names its producer, no output may overwrite an input, and the stage
body runs under an exclusive `flock` on `.wret.lock` in its output
directory, which the OS releases if the process dies. A stage that
fails removes the output directory if it created it and the directory
is still empty; a directory that existed before is always kept. Every
file is written whole or not at all (`fileio.write_atomic`), but the
files a stage finished before it failed stay behind.

`encode` works on blocks of whole pages, and `sweep` on one (gamma, k)
chain of its grid at a time, continuing each chain's propagation from
one layer count to the next; both write what page-by-page and
point-by-point runs would write, byte for byte (see `_pool_pages` and
`run_sweep`).

Every report embeds the stage's config hash. The stages that draw
random numbers (synth, cluster, train, report) also record their seed;
encode, evaluate, rerank and sweep draw none and record none. Reports
carry no timestamps: re-running a stage with identical inputs and
config reproduces every output byte for byte.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import io
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

# encode_patches, aggregate_pages, fit_pca: the traced run wraps them here;
# test_perfbench_layers pins that.
from .aggregation import PageEmbedding, aggregate_pages, power_normalize, whiten_pages  # noqa: F401
from .encoder import (  # noqa: F401
    Backbone,
    Codebook,
    backbone_forward,
    encode_patches,
    pool_patches,
)
from .errors import ArtifactIOError, ValidationError
from .features import (
    NEAREST_CHUNK,
    PcaModel,
    PseudoLabeledSet,
    assign_and_filter,
    fit_kmeans,
    fit_pca,  # noqa: F401
    fit_transform_pca_in_place,
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
    read_bytes,
    read_embeddings,
    save_backbone,
    save_codebook,
    save_cluster_model,
    save_model,
    save_pca,
    typed_entry,
    write_atomic,
    write_embeddings,
    write_json,
)
from .rerank import RerankConfig, layer_outputs, rerank
from .retrieval import (
    RetrievalReport,
    evaluate,
    rank_all,
    rank_vectors,
    report_to_csv,
    report_to_json,
)
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
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ValidationError("n_clusters must be >= 2")
        if self.target_dim < 1:
            raise ValidationError("target_dim must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValidationError("rho must be in (0, 1]")


@dataclass(frozen=True)
class EncodeConfig:
    """Page-embedding parameters for the encode stage."""

    page_dim: int = 64
    page_pca: str | None = None  # optional prefit page-level PCA model

    def __post_init__(self):
        if self.page_dim < 1:
            raise ValidationError("page_dim must be >= 1")


@contextmanager
def output_lock(out_dir: Path):
    """Reject concurrent invocations targeting the same output directory.

    The guard is an exclusive `flock` on `.wret.lock`, which the OS drops
    however its holder exits, so a lock file that no process holds, such
    as one a killed run left, is taken over. The holder writes its pid
    into the file, which a rejected invocation names, and unlinks the
    file before it releases; a contender whose lock is then on an
    unlinked file is rejected too. A directory this call creates is
    removed again on exit while it is still empty, so a stage that fails
    before writing leaves nothing. POSIX only.
    """
    created = not out_dir.is_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    fd = os.open(lock, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            taken = os.path.samestat(os.fstat(fd), os.stat(lock))
        except (BlockingIOError, FileNotFoundError):  # held, or unlinked by its holder
            taken = False
        if not taken:
            pid = os.pread(fd, 32, 0).decode("ascii", "replace").strip() or "unknown"
            raise ArtifactIOError(f"another invocation (pid {pid}) holds {lock}")
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)  # before the release, or it may remove a contender's lock
            if created:
                with suppress(OSError):  # rmdir fails, keeping the directory, unless it is empty
                    out_dir.rmdir()
    finally:
        os.close(fd)


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
                "n_pages": sum(spec.page_counts()),
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
        # One (n, d) float64 matrix, filled page by page (the normalization
        # is row-wise), centered in place by the PCA fit and dropped once
        # the reduced matrix is formed.
        pages = [data for _, data in load_page_descriptors(manifest)]
        n_descriptors = sum(len(data) for data in pages)
        normalized = np.empty((n_descriptors, pages[0].shape[1]))
        start = 0
        for data in pages:
            normalized[start : start + len(data)] = hellinger_normalize(data)
            start += len(data)
        del pages
        pca, reduced = fit_transform_pca_in_place(normalized, cfg.target_dim, whiten=False)
        del normalized
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
            },
        )
        report = {
            **asdict(kmeans.run),
            "config_hash": cfg_hash,
            "inertia": float(kmeans.inertia),
            "n_descriptors": n_descriptors,
            "n_kept": len(labeled.items),
            "n_rejected": n_descriptors - len(labeled.items),
            "seed": cfg.seed,
        }
        write_json(report_path, report)
    return report


def load_labels(path: Path | str) -> tuple[PseudoLabeledSet, np.ndarray, dict]:
    """Read a labels artifact back into trainer inputs."""
    meta, arrays = load_model(path, "labels")
    kept, labels, descriptors = (
        typed_entry(path, arrays, name, np.ndarray) for name in ("kept", "labels", "descriptors")
    )
    if not (
        descriptors.ndim == 2
        and kept.ndim == labels.ndim == 1
        and len(kept) == len(labels)
        and kept.dtype.kind == labels.dtype.kind == "i"
        and np.all((kept >= 0) & (kept < len(descriptors)))
    ):
        raise ArtifactIOError(f"{path} has label arrays that do not index its descriptors")
    return PseudoLabeledSet(items=np.column_stack([kept, labels])), descriptors, meta


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
        # asdict keeps the report's tuples; JSON reads them back as lists.
        report = {
            **{k: list(v) if isinstance(v, tuple) else v for k, v in asdict(result).items()},
            "config_hash": cfg_hash,
            "seed": cfg.seed,
        }
        write_json(report_path, report)
    return report


def _page_blocks(lengths: list[int], rows: int) -> list[slice]:
    """Consecutive slices over the pages, each closed at the first page
    that brings it to `rows` descriptor rows; a shorter remainder joins
    the block before it. So, as with `features.row_blocks`, no block holds
    fewer than `rows` rows unless the whole collection does."""
    ends, held = [], 0
    for end, length in enumerate(lengths, 1):
        held += length
        if held >= rows:
            ends.append(end)
            held = 0
    if held:  # the remainder closes the last block, or is the only one
        ends[-1:] = [len(lengths)]
    return [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]


def _pool_pages(
    pages: list[np.ndarray], pca: PcaModel, backbone: Backbone, codebook: Codebook
) -> np.ndarray:
    """One power-normalized pooled encoding per page, (pages, n_clusters *
    dim), with Hellinger, PCA, backbone, pooling and power normalization
    each run once per block of whole pages of about NEAREST_CHUNK rows.
    Every step is row-wise or per page except the products over a block's
    rows (PCA, backbone, and pooling's assignment and distances), which
    give each row the bits of a page's own product from about 100 rows up
    (OpenBLAS 0.3.31; fewer rows may take another kernel). So the rows
    equal those of encoding page by page wherever each page has that
    many descriptors, and match to rounding otherwise."""
    pooled = np.empty((len(pages), codebook.n_clusters * codebook.dim))
    for block in _page_blocks([len(data) for data in pages], NEAREST_CHUNK):
        data = pages[block]
        reduced = pca_transform(pca, hellinger_normalize(np.concatenate(data)))
        starts = np.cumsum([0] + [len(page) for page in data[:-1]])
        pooled[block] = power_normalize(
            pool_patches(codebook, backbone_forward(backbone, reduced), starts)
        )
    return pooled


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
        hashed = asdict(cfg)
        prefit = None
        if cfg.page_pca is not None:
            raw = read_bytes(cfg.page_pca)
            prefit = load_pca(cfg.page_pca, raw)
            # The model's content, not its path: the same encode hashes alike
            # from any directory, and a replaced model hashes differently.
            # Hashing the bytes parsed here names the model that was used.
            hashed["page_pca"] = hashlib.sha256(raw).hexdigest()
        manifest = load_manifest(manifest_path)
        pca = load_pca(pca_path)
        backbone = load_backbone(backbone_path)
        codebook = load_codebook(codebook_path)
        loaded = load_page_descriptors(manifest)
        for record, data in loaded:
            if len(data) == 0:
                raise ValidationError(f"page {record.page_id} has no descriptors")
        pooled = _pool_pages([data for _, data in loaded], pca, backbone, codebook)
        page_ids = [record.page_id for record, _ in loaded]
        writer_ids = [record.writer_id for record, _ in loaded]
        pages, page_pca = whiten_pages(
            pooled, cfg.page_dim, page_ids=page_ids, writer_ids=writer_ids, pca=prefit
        )
        cfg_hash = _stage_hash("encode", hashed)
        write_embeddings(embeddings_path, pages, cfg_hash)
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
                "embeddings_hash": sidecar["config_hash"],
                "score_isolated": score_isolated,
            },
        )
        write_json(report_path, report)
        if per_query:
            write_atomic(csv_path, report_to_csv(result).encode("utf-8"))
        else:  # an earlier run's per-query file would not match this report
            csv_path.unlink(missing_ok=True)
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
            {"embeddings_hash": sidecar["config_hash"], **asdict(cfg)},
        )
        write_embeddings(reranked_path, refined, cfg_hash)
        report = {
            "after": {"map": after.map, "top1": after.top1},
            "before": {"map": before.map, "top1": before.top1},
            "config_hash": cfg_hash,
            "params": asdict(cfg),
            "per_query": _ap_changes(before.per_query_ap, after.per_query_ap),
        }
        write_json(report_path, report)
    return report


def _ap_changes(before: dict[str, float], after: dict[str, float]) -> dict:
    """How many scored queries' AP rose, fell or stayed exactly equal, and
    the largest fall (lowest page id on ties; None when none fell)."""
    deltas = {q: after[q] - before[q] for q in sorted(before)}
    worst = min(deltas, key=deltas.__getitem__, default=None)
    worsened = sum(d < 0.0 for d in deltas.values())
    return {
        "improved": sum(d > 0.0 for d in deltas.values()),
        "worsened": worsened,
        "unchanged": sum(d == 0.0 for d in deltas.values()),
        "largest_drop": {"query": worst, "delta": deltas[worst]} if worsened else None,
    }


def run_sweep(
    embeddings_path: Path | str,
    out_dir: Path | str,
    gammas: list[float],
    layers_grid: list[int],
    ks: list[int],
    method: str = "sgr",
) -> Path:
    """Grid-search rerank parameters; one CSV row per grid point, in grid
    order. The grid is walked one (gamma, k) chain at a time: the chain's
    graph is built once, and its layer counts are scored in ascending
    order, each continuing the propagation from the one before."""
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
        chains: dict[tuple[float, int], set[int]] = {}
        for cfg in grid:
            chains.setdefault((cfg.gamma, cfg.k), set()).add(cfg.layers)
        results = {}
        for (gamma, k), counts in chains.items():
            chain = RerankConfig(method=method, k=k, gamma=gamma)
            scored = _score_chain(pages, chain, sorted(counts))
            results.update({(gamma, k, layers): r for layers, r in scored.items()})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["gamma", "layers", "k", "map", "top1"])
        for cfg in grid:
            result = results[cfg.gamma, cfg.k, cfg.layers]
            writer.writerow(
                [repr(float(cfg.gamma)), cfg.layers, cfg.k, repr(result.map), repr(result.top1)]
            )
        write_atomic(out_csv, buf.getvalue().encode("utf-8"))
    return out_csv


def _score_chain(
    pages: list[PageEmbedding], cfg: RerankConfig, counts: list[int]
) -> dict[int, RetrievalReport]:
    """`evaluate` of cfg's refined rows at each of the ascending layer
    `counts`. The last count's rows are ranked in place; earlier ones on a
    copy, since the next layer reads them. So at most three (n, n) arrays
    are held: a layer and the next, or a layer, its copy and the copy's
    similarities."""
    ids = [p.page_id for p in pages]
    writers = {p.page_id: p.writer_id for p in pages}
    outputs = layer_outputs(pages, cfg)
    results = {}
    done = 0
    for layers in counts:
        for _ in range(layers - done):
            refined = next(outputs)
        done = layers
        in_place = layers == counts[-1]
        results[layers] = evaluate(
            rank_vectors(refined if in_place else refined.copy(), ids), writers
        )
    return results


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
            run_cluster(manifest_path, run_dir, replace(cluster_cfg, seed=seed))
            run_train(run_dir / "labels.wrmd", run_dir, replace(train_cfg, seed=seed))
            emb = run_encode(manifest_path, run_dir, run_dir, encode_cfg)
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

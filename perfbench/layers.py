"""Which wret functions the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Layer names are wret module names. Each function is wrapped where its
caller looks it up: the stages call features, encoder, aggregation,
fileio and retrieval functions through ``wret.stages``; training phases
run through ``wret.trainer``; rerank methods through ``wret.rerank``.
"""

from __future__ import annotations

import os
from importlib import import_module
from pathlib import Path

from tracer import Tracer

# import_module, because the package re-exports functions under some of
# its module names (wret.rerank is the function rerank.rerank)
aggregation = import_module("wret.aggregation")
rerank = import_module("wret.rerank")
stages = import_module("wret.stages")
trainer = import_module("wret.trainer")

STAGES = ("synth", "cluster", "train", "encode", "evaluate", "rerank", "sweep")


def _size(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _bytes_written(tracer, args, kwargs, result):
    tracer.counts["bytes_written"] += _size(args[0])


def _bytes_written_embeddings(tracer, args, kwargs, result):
    path = Path(args[0])
    tracer.counts["bytes_written"] += _size(path, path.with_suffix(".bin"))


def _bytes_read_path(tracer, args, kwargs, result):
    tracer.counts["bytes_read"] += _size(args[0])


def _bytes_read_embeddings(tracer, args, kwargs, result):
    path = Path(args[0])
    tracer.counts["bytes_read"] += _size(path, path.parent / result[1]["blob"])


def _bytes_read_pages(tracer, args, kwargs, result):
    manifest = args[0]
    tracer.counts["bytes_read"] += _size(*(manifest.descriptor_path(r) for r in manifest.pages))


def _kept(tracer, args, kwargs, result):
    tracer.counts["descriptors_filtered"] += len(args[1])
    tracer.counts["descriptors_kept"] += len(result.items)


def _steps(tracer, args, kwargs, result):
    tracer.counts["steps"] += result[2].steps


def _mined(tracer, args, kwargs, result):
    tracer.counts["anchors"] += len(args[1])
    tracer.counts["triplets"] += len(result)
    tracer.counts["empty_batches"] += not result


def _descriptors(tracer, args, kwargs, result):
    tracer.counts["descriptors_encoded"] += len(args[1])


def _pairs(tracer, args, kwargs, result):
    n = len(args[0])
    tracer.counts["rank_all_calls"] += 1
    tracer.counts["pairs"] += n * (n - 1)


def _sweep_points(tracer, args, kwargs, result):
    # the workloads pass the grid by keyword
    grid = (kwargs["gammas"], kwargs["layers_grid"], kwargs["ks"])
    tracer.counts["sweep_points"] += len(grid[0]) * len(grid[1]) * len(grid[2])


# (module, attribute, span name, counter)
WRAPS = [
    (stages, "synth_generate", "synth.generate", None),
    (stages, "hellinger_normalize", "features.hellinger", None),
    (stages, "fit_pca", "features.fit_pca", None),
    (aggregation, "fit_pca", "features.fit_pca", None),
    (stages, "pca_transform", "features.pca_transform", None),
    (aggregation, "pca_transform", "features.pca_transform", None),
    (stages, "fit_kmeans", "features.fit_kmeans", None),
    (stages, "assign_and_filter", "features.assign_and_filter", _kept),
    (stages, "train", "trainer.train", _steps),
    (trainer, "encode_flat", "trainer.encode_flat", None),
    (trainer, "mine_hard_triplets", "trainer.mine", _mined),
    (trainer, "backward", "trainer.backward", None),
    (stages, "backbone_forward", "encoder.backbone_forward", _descriptors),
    (stages, "encode_patches", "encoder.encode_patches", None),
    (stages, "aggregate_pages", "aggregation.aggregate_pages", None),
    (stages, "load_page_descriptors", "fileio.load_page_descriptors", _bytes_read_pages),
    (stages, "load_manifest", "fileio.read", _bytes_read_path),
    (stages, "load_model", "fileio.read", _bytes_read_path),
    (stages, "load_pca", "fileio.read", _bytes_read_path),
    (stages, "load_backbone", "fileio.read", _bytes_read_path),
    (stages, "load_codebook", "fileio.read", _bytes_read_path),
    (stages, "read_embeddings", "fileio.read", _bytes_read_embeddings),
    (stages, "write_json", "fileio.write", _bytes_written),
    (stages, "write_embeddings", "fileio.write", _bytes_written_embeddings),
    (stages, "save_model", "fileio.write", _bytes_written),
    (stages, "save_pca", "fileio.write", _bytes_written),
    (stages, "save_cluster_model", "fileio.write", _bytes_written),
    (stages, "save_backbone", "fileio.write", _bytes_written),
    (stages, "save_codebook", "fileio.write", _bytes_written),
    (stages, "rank_all", "retrieval.rank_all", _pairs),
    (stages, "evaluate", "retrieval.evaluate", None),
    (rerank, "build_similarity_graph", "rerank.build_graph", None),
    (rerank, "sgr", "rerank.sgr", None),
    (rerank, "krnn_qe", "rerank.krnn_qe", None),
    (rerank, "hard_graph_rerank", "rerank.hard_graph", None),
    (stages, "run_sweep", "stages.sweep", _sweep_points),
] + [
    (stages, f"run_{stage}", f"stages.{stage}", None)
    for stage in STAGES
    if stage != "sweep"
]


def install(tracer: Tracer) -> None:
    for module, attr, name, count in WRAPS:
        tracer.wrap(module, attr, name, count)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit), summed over every traced span."""
    t, c = tracer.total, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in ("hellinger", "fit_pca", "pca_transform", "fit_kmeans", "assign_and_filter"):
        out[f"features.{name}_s"] = (t(f"features.{name}"), "s")
    out["features.kept_ratio"] = (_ratio(c["descriptors_kept"], c["descriptors_filtered"]), "ratio")
    out["trainer.train_s"] = (t("trainer.train"), "s")
    # trainer.backward stays a span, so trainer.self_s excludes it, but is
    # no metric: on these workloads mining admits no triplet, so backward
    # never runs and its time would read 0 on every run.
    for name in ("encode_flat", "mine"):
        out[f"trainer.{name}_s"] = (t(f"trainer.{name}"), "s")
    out["trainer.self_s"] = (tracer.self_total("trainer.train"), "s")
    out["trainer.steps"] = (c["steps"], "count")
    out["trainer.step_ms"] = (1000.0 * _ratio(t("trainer.train"), c["steps"]), "ms")
    out["trainer.admit_ratio"] = (_ratio(c["triplets"], c["anchors"]), "ratio")
    out["trainer.empty_batches"] = (c["empty_batches"], "count")
    out["encoder.backbone_forward_s"] = (t("encoder.backbone_forward"), "s")
    out["encoder.encode_patches_s"] = (t("encoder.encode_patches"), "s")
    out["encoder.descriptors"] = (c["descriptors_encoded"], "count")
    out["aggregation.aggregate_pages_s"] = (t("aggregation.aggregate_pages"), "s")
    out["fileio.load_page_descriptors_s"] = (t("fileio.load_page_descriptors"), "s")
    out["fileio.read_s"] = (t("fileio.read"), "s")
    out["fileio.write_s"] = (t("fileio.write"), "s")
    out["fileio.bytes_read"] = (c["bytes_read"], "bytes")
    out["fileio.bytes_written"] = (c["bytes_written"], "bytes")
    out["retrieval.rank_all_s"] = (t("retrieval.rank_all"), "s")
    out["retrieval.evaluate_s"] = (t("retrieval.evaluate"), "s")
    out["retrieval.rank_all_calls"] = (c["rank_all_calls"], "count")
    out["retrieval.pairs"] = (c["pairs"], "count")
    for name in ("build_graph", "sgr", "krnn_qe", "hard_graph"):
        out[f"rerank.{name}_s"] = (t(f"rerank.{name}"), "s")
    out["rerank.sweep_points"] = (c["sweep_points"], "count")
    out["synth.generate_s"] = (t("synth.generate"), "s")
    for stage in STAGES:
        out[f"stages.{stage}_s"] = (t(f"stages.{stage}"), "s")
    out["stages.self_s"] = (tracer.self_total("stages."), "s")
    return out

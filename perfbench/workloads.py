"""The three benchmark workloads and their correctness checks.

Every stage is called as an attribute of ``wret.stages`` at call time, so
the traced run sees the wrapped versions.

Seeds. Every collection that is trained on keeps its acceptance-test
seed (test_6: 0; test_7: fit collection 31, held-out collection 30): early
stopping makes training length depend on the data, and the test_6/test_7
gates were set on that data. ``--seed s`` draws gallery_1k's 1000-page
gallery with seed 30 + s, so s = 0 is the test_7 held-out seed; the two
pipeline workloads do not depend on s.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import wret.stages as S
from wret import ClusterConfig, EncodeConfig, RerankConfig, SynthSpec, TrainConfig
from wret.fileio import read_embeddings

RERANK_METHODS = ("sgr", "krnn_qe", "hard_graph")
MATCH_TOL = 1e-12


class Ops:
    """Counts operations (stage calls and checks) and failed checks. A
    stage that raises ends the run: the child exits non-zero, and no
    result is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def stage(self, name: str, *args, **kwargs):
        self.attempted += 1
        return getattr(S, name)(*args, **kwargs)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok), detail))


def _spec(writers, pages, descriptors, strength, noise, seed) -> SynthSpec:
    return SynthSpec(
        n_writers=writers,
        pages_per_writer=pages,
        descriptors_per_page=descriptors,
        n_prototypes=16,
        writer_style_strength=strength,
        noise_sigma=noise,
        seed=seed,
    )


def _train_config(seed: int) -> TrainConfig:
    """The acceptance benchmarks' training schedule."""
    return TrainConfig(
        batch_size=128, per_class=8, epochs_max=30, warmup_epochs=5,
        patience=5, max_steps=2000, seed=seed,
    )


def loo_scores(embeddings_path: Path) -> tuple[float, float]:
    """Leave-one-out mAP and Top-1, computed with array operations apart
    from wret.retrieval: cosine ranking, ties by ascending page id,
    queries without a same-writer page skipped."""
    pages, _ = read_embeddings(embeddings_path)
    vectors = np.array([p.vector for p in pages], dtype=np.float64)
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    sims = unit @ unit.T
    n = len(pages)
    id_rank = np.argsort(np.argsort(np.array([p.page_id for p in pages]), kind="stable"))
    np.fill_diagonal(sims, -np.inf)  # the query itself sorts last, then is dropped
    order = np.lexsort((np.broadcast_to(id_rank, (n, n)), -sims), axis=-1)[:, :-1]
    writers = np.array([p.writer_id for p in pages])
    hits = writers[order] == writers[:, None]
    relevant = hits.sum(axis=1)
    scored = relevant > 0
    precision = np.cumsum(hits, axis=1) / np.arange(1, n)
    ap = (precision * hits).sum(axis=1)[scored] / relevant[scored]
    return float(ap.mean()), float(hits[scored, 0].mean())


def _retrieve(ops: Ops, embeddings: Path, out: Path, grid: dict) -> dict:
    """evaluate, the three rerank methods, then an sgr sweep over `grid`."""
    evaluation = ops.stage("run_evaluate", embeddings, out / "eval")
    reranks = {
        method: ops.stage(
            "run_rerank", embeddings, out / f"rerank_{method}",
            RerankConfig(method=method, k=2, layers=1, gamma=0.4),
        )
        for method in RERANK_METHODS
    }
    sweep_csv = ops.stage("run_sweep", embeddings, out / "sweep", **grid)
    with open(sweep_csv, newline="", encoding="utf-8") as f:
        sweep = {
            (float(row["gamma"]), int(row["layers"])): float(row["map"])
            for row in csv.DictReader(f)
        }
    return {
        "map": evaluation["map"],
        "top1": evaluation["top1"],
        "rerank_map": reranks["sgr"]["after"]["map"],
        "embeddings": embeddings,
        "reranks": reranks,
        "sweep": sweep,
    }


def check_retrieval(ops: Ops, result: dict, out: Path) -> None:
    """evaluate and every rerank's before/after numbers must match the
    independent leave-one-out oracle."""
    base = loo_scores(result["embeddings"])
    claims = [("evaluate", base, result)]
    for method, report in result["reranks"].items():
        claims.append((f"{method}_before", base, report["before"]))
        after = loo_scores(out / f"rerank_{method}" / "reranked.json")
        claims.append((f"{method}_after", after, report["after"]))
    for label, (want_map, want_top1), got in claims:
        diff = max(abs(want_map - got["map"]), abs(want_top1 - got["top1"]))
        ops.check(
            f"oracle_{label}",
            diff <= MATCH_TOL,
            f"independent mAP {want_map:.12f} Top-1 {want_top1:.12f}, "
            f"reported {got['map']:.12f} {got['top1']:.12f}",
        )


def _fit_models(ops: Ops, manifest: Path, out: Path, seed: int) -> tuple[Path, Path]:
    """cluster + train + encode on a fit collection; returns the run dir
    holding the models and the fit embeddings, whose page PCA sits beside
    them."""
    run = out / "fit_run"
    ops.stage("run_cluster", manifest, run, ClusterConfig(n_clusters=64, target_dim=32, seed=seed))
    ops.stage("run_train", run / "labels.wrmd", run, _train_config(seed))
    embeddings = ops.stage("run_encode", manifest, run, out / "fit_enc", EncodeConfig(page_dim=16))
    return run, embeddings


class PipelineClean:
    """test_6: cluster, train, encode, evaluate on a clean collection."""

    name = "pipeline_clean"
    grid = {"gammas": [0.4, 1.0], "layers_grid": [1, 2, 3], "ks": [1]}

    def setup(self, ops: Ops, root: Path, seed: int) -> dict:
        manifest = ops.stage("run_synth", _spec(20, 5, 200, 4.0, 1.0, 0), root / "data")
        return {"manifest": manifest}

    def timed(self, ops: Ops, env: dict, out: Path) -> dict:
        _, embeddings = _fit_models(ops, env["manifest"], out, 0)
        return _retrieve(ops, embeddings, out, self.grid)

    def check(self, ops: Ops, result: dict) -> None:
        ops.check("map_gate", result["map"] >= 0.90, f"mAP {result['map']:.4f} >= 0.90")
        ops.check("top1_gate", result["top1"] >= 0.95, f"Top-1 {result['top1']:.4f} >= 0.95")


class PipelineNoisy:
    """test_7: fit on a noisy collection, encode a held-out one with the
    fit's page PCA, evaluate, rerank and sweep."""

    name = "pipeline_noisy"
    grid = {"gammas": [0.4, 1.0], "layers_grid": [1, 2, 3], "ks": [1]}

    def setup(self, ops: Ops, root: Path, seed: int) -> dict:
        fit = ops.stage("run_synth", _spec(20, 5, 200, 7.5, 5.0, 31), root / "fit_data")
        held = ops.stage("run_synth", _spec(20, 5, 200, 7.5, 5.0, 30), root / "eval_data")
        return {"fit": fit, "held": held}

    def timed(self, ops: Ops, env: dict, out: Path) -> dict:
        run, fit_embeddings = _fit_models(ops, env["fit"], out, 31)
        embeddings = ops.stage(
            "run_encode", env["held"], run, out / "eval_enc",
            EncodeConfig(page_dim=16, page_pca=str(fit_embeddings.parent / "page_pca.wrmd")),
        )
        return _retrieve(ops, embeddings, out, self.grid)

    def check(self, ops: Ops, result: dict) -> None:
        sgr = result["reranks"]["sgr"]
        before, after = sgr["before"]["map"], sgr["after"]["map"]
        ops.check("rerank_gate", after >= before - 0.01, f"sgr mAP {after:.4f} >= {before:.4f} - 0.01")
        sweep = result["sweep"]
        for layers in self.grid["layers_grid"]:
            sharp, flat = sweep[(0.4, layers)], sweep[(1.0, layers)]
            ops.check(
                f"sweep_gate_layers{layers}", flat < sharp,
                f"gamma 1.0 mAP {flat:.4f} < gamma 0.4 mAP {sharp:.4f}",
            )


class Gallery1k:
    """1000 held-out pages encoded with models fit in set-up; evaluate,
    three reranks and a sweep at n = 1000."""

    name = "gallery_1k"
    grid = {"gammas": [0.4, 1.0], "layers_grid": [1, 3], "ks": [1]}

    def setup(self, ops: Ops, root: Path, seed: int) -> dict:
        fit = ops.stage("run_synth", _spec(20, 5, 200, 7.5, 5.0, 31), root / "fit_data")
        run, fit_embeddings = _fit_models(ops, fit, root, 31)
        gallery = ops.stage("run_synth", _spec(200, 5, 100, 7.5, 5.0, 30 + seed), root / "gallery")
        return {"run": run, "gallery": gallery, "page_pca": fit_embeddings.parent / "page_pca.wrmd"}

    def timed(self, ops: Ops, env: dict, out: Path) -> dict:
        embeddings = ops.stage(
            "run_encode", env["gallery"], env["run"], out / "enc",
            EncodeConfig(page_dim=16, page_pca=str(env["page_pca"])),
        )
        return _retrieve(ops, embeddings, out, self.grid)

    def check(self, ops: Ops, result: dict) -> None:
        """No gate beyond check_retrieval, which every workload runs."""


WORKLOADS = {w.name: w for w in (PipelineClean(), PipelineNoisy(), Gallery1k())}

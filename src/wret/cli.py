"""Command-line front end for the retrieval pipeline.

Every subcommand accepts --config pointing at a JSON object keyed by
config field names such as n_clusters (not flag names such as
--clusters), each value of its field's type; `report` nests one object
per stage under "cluster", "train" and "encode". Explicit flags win
over the config file, which wins over built-in defaults. Exit codes:
0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
import types
import typing
from dataclasses import asdict

from .errors import TrainingError, ValidationError
from .fileio import read_json
from .rerank import RerankConfig
from .stages import (
    ClusterConfig,
    EncodeConfig,
    run_cluster,
    run_encode,
    run_evaluate,
    run_rerank,
    run_report,
    run_sweep,
    run_synth,
    run_train,
)
from .synth import SynthSpec
from .trainer import TrainConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; map those to code 1 instead
    def error(self, message):
        raise ValidationError(message)


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return doc


_MISMATCH = object()


def _coerce(value, annotation):
    """value as a field annotated `annotation` holds it, or _MISMATCH.
    Lists fill tuple and list fields, ints fill float fields, and bools
    fill only bool fields."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        for arm in typing.get_args(annotation):
            got = _coerce(value, arm)
            if got is not _MISMATCH:
                return got
        return _MISMATCH
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            return _MISMATCH
        items = [_coerce(v, typing.get_args(annotation)[0]) for v in value]
        return _MISMATCH if _MISMATCH in items else origin(items)
    if annotation is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return _MISMATCH
    return value if type(value) is annotation else _MISMATCH


def _merge(fields: dict, defaults: dict, config: dict, cli: dict) -> dict:
    """defaults < config file < explicitly provided flags; every config
    value is checked against its annotation in `fields`."""
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out = dict(defaults)
    for key, value in config.items():
        out[key] = _coerce(value, fields[key])
        if out[key] is _MISMATCH:
            kind = fields[key]
            kind = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ValidationError(f"config key {key!r} must be {kind}, got {value!r}")
    out.update({k: v for k, v in cli.items() if v is not None})
    return out


def _config(cls, config: dict, cli: dict):
    """A config dataclass from its defaults, a config object and flags."""
    return cls(**_merge(typing.get_type_hints(cls), asdict(cls()), config, cli))


def build_parser() -> _Parser:
    parser = _Parser(prog="wret", description="writer-retrieval pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic collection")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--writers", type=int)
    p.add_argument("--pages", help="pages per writer: an int or a comma list")
    p.add_argument("--descriptors", type=int)
    p.add_argument("--prototypes", type=int)
    p.add_argument("--strength", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("cluster", help="preprocess descriptors and pseudo-label them")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--clusters", type=int)
    p.add_argument("--target-dim", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train the encoder on pseudo-labels")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--margin", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--epochs-max", type=int)
    p.add_argument("--warmup-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--mining", choices=["hard", "semi"])
    p.add_argument("--max-steps", type=int)
    p.add_argument("--clusters", type=int, help="codebook size")
    p.add_argument("--backbone-dims", help="comma list, e.g. 32,64,64")
    p.add_argument("--mode", choices=["netrvlad", "netvlad"])
    p.add_argument("--alpha-init", type=float)
    p.add_argument("--val-pool-cap", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("encode", help="compute global page embeddings")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True, help="directory with trained models")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--page-dim", type=int)
    p.add_argument("--power-alpha", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--page-pca", help="apply this prefit page-level PCA model")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("evaluate", help="leave-one-out retrieval metrics")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--score-isolated", action=argparse.BooleanOptionalAction)
    p.add_argument("--per-query", action=argparse.BooleanOptionalAction)

    p = sub.add_parser("rerank", help="graph reranking over an embedding dump")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--method", choices=["sgr", "krnn_qe", "hard_graph"])
    p.add_argument("--k", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--k1", type=int)
    p.add_argument("--weighting", choices=["similarity", "adjacency"])

    p = sub.add_parser("sweep", help="grid-search rerank parameters to CSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--gammas", help="comma list of gamma values")
    p.add_argument("--layers-grid", help="comma list of layer counts")
    p.add_argument("--ks", help="comma list of neighborhood sizes")
    p.add_argument("--method", choices=["sgr", "krnn_qe", "hard_graph"])

    p = sub.add_parser("report", help="multi-seed pipeline runs with mean and spread")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON with cluster/train/encode sections")
    p.add_argument("--seeds", help="comma list of root seeds")
    p.add_argument("--clusters", type=int, help="pseudo-label cluster count")
    p.add_argument("--epochs-max", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--page-dim", type=int)

    return parser


def _cmd_synth(args) -> int:
    defaults = {
        "n_writers": 20,
        "pages_per_writer": 5,
        "descriptors_per_page": 200,
        "n_prototypes": 16,
        "writer_style_strength": 4.0,
        "noise_sigma": 1.0,
        "seed": 0,
    }
    pages = args.pages
    if pages is not None:
        parsed = _ints(pages)
        pages = parsed[0] if len(parsed) == 1 else tuple(parsed)
    cli = {
        "n_writers": args.writers,
        "pages_per_writer": pages,
        "descriptors_per_page": args.descriptors,
        "n_prototypes": args.prototypes,
        "writer_style_strength": args.strength,
        "noise_sigma": args.noise,
        "seed": args.seed,
    }
    merged = _merge(typing.get_type_hints(SynthSpec), defaults, _load_config(args.config), cli)
    manifest = run_synth(SynthSpec(**merged), args.out)
    print(f"wrote {manifest}")
    return 0


def _cmd_cluster(args) -> int:
    cli = {
        "n_clusters": args.clusters,
        "target_dim": args.target_dim,
        "rho": args.rho,
        "cap": args.cap,
        "seed": args.seed,
    }
    cfg = _config(ClusterConfig, _load_config(args.config), cli)
    report = run_cluster(args.manifest, args.out, cfg)
    print(
        f"clustered {report['n_descriptors']} descriptors: "
        f"kept {report['n_kept']}, rejected {report['n_rejected']}"
    )
    return 0


def _cmd_train(args) -> int:
    dims = args.backbone_dims
    cli = {
        "margin": args.margin,
        "learning_rate": args.learning_rate,
        "batch_size": args.batch_size,
        "per_class": args.per_class,
        "epochs_max": args.epochs_max,
        "warmup_epochs": args.warmup_epochs,
        "patience": args.patience,
        "validation_fraction": args.validation_fraction,
        "mining": args.mining,
        "max_steps": args.max_steps,
        "n_clusters": args.clusters,
        "backbone_dims": tuple(_ints(dims)) if dims is not None else None,
        "mode": args.mode,
        "alpha_init": args.alpha_init,
        "val_pool_cap": args.val_pool_cap,
        "seed": args.seed,
    }
    report = run_train(args.labels, args.out, _config(TrainConfig, _load_config(args.config), cli))
    print(
        f"trained {report['steps']} steps, best validation mAP "
        f"{report['best_val_map']:.4f} at epoch {report['best_epoch']}"
    )
    return 0


def _cmd_encode(args) -> int:
    cli = {
        "page_dim": args.page_dim,
        "power_alpha": args.power_alpha,
        "cap": args.cap,
        "page_pca": args.page_pca,
        "seed": args.seed,
    }
    cfg = _config(EncodeConfig, _load_config(args.config), cli)
    path = run_encode(args.manifest, args.models, args.out, cfg)
    print(f"wrote {path}")
    return 0


def _cmd_evaluate(args) -> int:
    defaults = {"score_isolated": False, "per_query": False}
    cli = {"score_isolated": args.score_isolated, "per_query": args.per_query}
    fields = {"score_isolated": bool, "per_query": bool}
    merged = _merge(fields, defaults, _load_config(args.config), cli)
    report = run_evaluate(args.embeddings, args.out, **merged)
    print(f"mAP {report['map']:.4f}  Top-1 {report['top1']:.4f}")
    return 0


def _cmd_rerank(args) -> int:
    cli = {
        "method": args.method,
        "k": args.k,
        "layers": args.layers,
        "gamma": args.gamma,
        "k1": args.k1,
        "weighting": args.weighting,
    }
    cfg = _config(RerankConfig, _load_config(args.config), cli)
    report = run_rerank(args.embeddings, args.out, cfg)
    print(
        f"{report['method']}: mAP {report['before']['map']:.4f} -> "
        f"{report['after']['map']:.4f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    defaults = {
        "gammas": [0.4],
        "layers_grid": [1],
        "ks": [2],
        "method": "sgr",
    }
    cli = {
        "gammas": _floats(args.gammas) if args.gammas is not None else None,
        "layers_grid": _ints(args.layers_grid) if args.layers_grid is not None else None,
        "ks": _ints(args.ks) if args.ks is not None else None,
        "method": args.method,
    }
    fields = {"gammas": list[float], "layers_grid": list[int], "ks": list[int], "method": str}
    merged = _merge(fields, defaults, _load_config(args.config), cli)
    path = run_sweep(args.embeddings, args.out, **merged)
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    sections = {"cluster": ClusterConfig, "train": TrainConfig, "encode": EncodeConfig}
    cli = {
        "cluster": {"n_clusters": args.clusters},
        "train": {"epochs_max": args.epochs_max, "max_steps": args.max_steps},
        "encode": {"page_dim": args.page_dim},
    }
    merged = _merge(
        {"seeds": list[int], **{name: dict for name in sections}},
        {"seeds": [0], **{name: {} for name in sections}},
        _load_config(args.config),
        {"seeds": _ints(args.seeds) if args.seeds is not None else None},
    )
    report = run_report(
        args.manifest,
        args.out,
        seeds=merged["seeds"],
        **{f"{name}_cfg": _config(cls, merged[name], cli[name]) for name, cls in sections.items()},
    )
    print(
        f"mAP {report['map_mean']:.4f} +- {report['map_spread']:.4f}  "
        f"Top-1 {report['top1_mean']:.4f} +- {report['top1_spread']:.4f}"
    )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "cluster": _cmd_cluster,
    "train": _cmd_train,
    "encode": _cmd_encode,
    "evaluate": _cmd_evaluate,
    "rerank": _cmd_rerank,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def entrypoint(argv: list[str] | None = None) -> int:
    """Console-script wrapper mapping errors onto exit codes."""
    try:
        return main(argv)
    except (ValidationError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())

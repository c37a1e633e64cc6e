"""Command-line front end for the retrieval pipeline.

The flags of each subcommand are generated from the fields of its config
dataclass (`_COMMANDS`): --<field-name> with dashes for underscores, or
the short spelling `_FLAG_NAMES` gives (--clusters, --writers, --pages,
--descriptors, --prototypes, --strength, --noise). Tuple and list fields
take a comma list, --pages an int or a comma list, and a bool field x is
--x/--no-x; `report` adds the section flags `_SECTIONS` names.

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
from dataclasses import asdict, dataclass, field, fields

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


# fields whose flag keeps a shorter spelling than --<field-name>
_FLAG_NAMES = {
    "n_clusters": "clusters",
    "n_writers": "writers",
    "pages_per_writer": "pages",
    "descriptors_per_page": "descriptors",
    "n_prototypes": "prototypes",
    "writer_style_strength": "strength",
    "noise_sigma": "noise",
}


@dataclass(frozen=True)
class _Evaluate:
    """Options of run_evaluate."""

    score_isolated: bool = False
    per_query: bool = False


@dataclass(frozen=True)
class _Sweep:
    """The rerank grid run_sweep searches."""

    gammas: list[float] = field(default_factory=lambda: [0.4])
    layers_grid: list[int] = field(default_factory=lambda: [1])
    ks: list[int] = field(default_factory=lambda: [2])
    method: str = "sgr"


@dataclass(frozen=True)
class _Report:
    """report's root seeds and one config object per stage section."""

    seeds: list[int] = field(default_factory=lambda: [0])
    cluster: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    encode: dict = field(default_factory=dict)


# report's sections: the config each one builds and its fields that take flags
_SECTIONS = {
    "cluster": (ClusterConfig, ("n_clusters",)),
    "train": (TrainConfig, ("epochs_max", "max_steps")),
    "encode": (EncodeConfig, ("page_dim",)),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; map those to code 1 instead
    def error(self, message):
        raise ValidationError(message)


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


def _config(cls, config: dict, args: argparse.Namespace, prefix: str = ""):
    """A `cls` from its defaults < a config object < the flags given, which
    `args` holds under `prefix` + the field name; every config value is
    checked against its field's annotation."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    unknown = set(config) - set(names)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, value in config.items():
        out[key] = _coerce(value, hints[key])
        if out[key] is _MISMATCH:
            kind = hints[key]
            kind = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ValidationError(f"config key {key!r} must be {kind}, got {value!r}")
    flags = {name: getattr(args, prefix + name, None) for name in names}
    out.update({k: v for k, v in flags.items() if v is not None})
    return cls(**out)


def _flag_type(annotation):
    """argparse `type` for a field: its scalar type, or a comma-list
    parser when the field holds a tuple or list; one item alone fills the
    scalar arm of a union, so `--pages 5` is an int."""
    union = typing.get_origin(annotation) in (typing.Union, types.UnionType)
    arms = typing.get_args(annotation) if union else (annotation,)
    arms = [a for a in arms if a is not type(None)]
    seq = next((a for a in arms if typing.get_origin(a) in (tuple, list)), None)
    scalar = next((a for a in arms if a is not seq), None)
    if seq is None:
        return scalar
    item = typing.get_args(seq)[0]

    def parse(text: str):
        tokens = [tok for tok in text.split(",") if tok.strip() != ""]
        try:
            if scalar is not None and len(tokens) == 1:
                return scalar(tokens[0])
            return typing.get_origin(seq)(item(tok) for tok in tokens)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {item.__name__}, got {text!r}"
            ) from None

    return parse


def _add_flags(parser: argparse.ArgumentParser, cls, names=None, prefix: str = "") -> None:
    """One flag per field of `cls` (only those in `names`, when given),
    stored under `prefix` + the field name. A dict field is a report
    section: it adds the flags `_SECTIONS` names for it."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        if kind is dict:
            section_cls, section_names = _SECTIONS[f.name]
            _add_flags(parser, section_cls, section_names, f"{f.name}.")
            continue
        if names is not None and f.name not in names:
            continue
        name = _FLAG_NAMES.get(f.name, f.name)
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=prefix + f.name, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(
                flag, dest=prefix + f.name, metavar=name.upper(), type=_flag_type(kind),
                help=str(f.type),
            )


def _run_report(args: argparse.Namespace, cfg: _Report) -> dict:
    return run_report(
        args.manifest,
        args.out,
        seeds=cfg.seeds,
        **{
            f"{name}_cfg": _config(cls, getattr(cfg, name), args, f"{name}.")
            for name, (cls, _) in _SECTIONS.items()
        },
    )


class _Command(typing.NamedTuple):
    help: str
    paths: tuple[str, ...]  # required path flags
    config: type  # the dataclass whose fields are the flags
    run: typing.Callable  # (args, config) -> the dict `summary` is formatted with
    summary: str


_COMMANDS = {
    "synth": _Command(
        "generate a synthetic collection", ("out",), SynthSpec,
        lambda args, spec: {"path": run_synth(spec, args.out)}, "wrote {path}",
    ),
    "cluster": _Command(
        "preprocess descriptors and pseudo-label them", ("manifest", "out"), ClusterConfig,
        lambda args, cfg: run_cluster(args.manifest, args.out, cfg),
        "clustered {n_descriptors} descriptors: kept {n_kept}, rejected {n_rejected}",
    ),
    "train": _Command(
        "train the encoder on pseudo-labels", ("labels", "out"), TrainConfig,
        lambda args, cfg: run_train(args.labels, args.out, cfg),
        "trained {steps} steps, best validation mAP {best_val_map:.4f} at epoch {best_epoch}",
    ),
    "encode": _Command(
        "compute global page embeddings", ("manifest", "models", "out"), EncodeConfig,
        lambda args, cfg: {"path": run_encode(args.manifest, args.models, args.out, cfg)},
        "wrote {path}",
    ),
    "evaluate": _Command(
        "leave-one-out retrieval metrics", ("embeddings", "out"), _Evaluate,
        lambda args, cfg: run_evaluate(args.embeddings, args.out, **asdict(cfg)),
        "mAP {map:.4f}  Top-1 {top1:.4f}",
    ),
    "rerank": _Command(
        "graph reranking over an embedding dump", ("embeddings", "out"), RerankConfig,
        lambda args, cfg: run_rerank(args.embeddings, args.out, cfg),
        "{method}: mAP {before[map]:.4f} -> {after[map]:.4f}",
    ),
    "sweep": _Command(
        "grid-search rerank parameters to CSV", ("embeddings", "out"), _Sweep,
        lambda args, cfg: {"path": run_sweep(args.embeddings, args.out, **asdict(cfg))},
        "wrote {path}",
    ),
    "report": _Command(
        "multi-seed pipeline runs with mean and spread", ("manifest", "out"), _Report,
        _run_report,
        "mAP {map_mean:.4f} +- {map_spread:.4f}  Top-1 {top1_mean:.4f} +- {top1_spread:.4f}",
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="wret", description="writer-retrieval pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for path in command.paths:
            p.add_argument(f"--{path}", required=True)
        p.add_argument("--config", help="JSON object keyed by config field names")
        _add_flags(p, command.config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    cfg = _config(command.config, _load_config(args.config), args)
    print(command.summary.format_map(command.run(args, cfg)))
    return 0


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

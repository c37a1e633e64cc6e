"""The command-line surface and the path from each flag shape to the
config a stage receives."""

import argparse
import inspect
import json

import pytest

from wret import cli

# per subcommand: "store --x" takes a value, "bool --x/--no-x" is a switch
CLI_SURFACE = {
    "synth": [
        "store --config", "store --descriptors", "store --noise", "store --out required",
        "store --pages", "store --prototypes", "store --seed", "store --strength",
        "store --writers",
    ],
    "cluster": [
        "store --clusters", "store --config", "store --manifest required",
        "store --out required", "store --rho", "store --seed", "store --target-dim",
    ],
    "train": [
        "store --backbone-dims", "store --batch-size", "store --clusters", "store --config",
        "store --epochs-max", "store --labels required", "store --learning-rate",
        "store --margin", "store --max-steps", "store --out required", "store --patience",
        "store --per-class", "store --seed", "store --validation-fraction",
        "store --warmup-epochs",
    ],
    "encode": [
        "store --config", "store --manifest required", "store --models required",
        "store --out required", "store --page-dim", "store --page-pca",
    ],
    "evaluate": [
        "bool --per-query/--no-per-query", "bool --score-isolated/--no-score-isolated",
        "store --config", "store --embeddings required", "store --out required",
    ],
    "rerank": [
        "store --config", "store --embeddings required", "store --gamma", "store --k",
        "store --k1", "store --layers", "store --method", "store --out required",
    ],
    "sweep": [
        "store --config", "store --embeddings required", "store --gammas", "store --ks",
        "store --layers-grid", "store --method", "store --out required",
    ],
    "report": [
        "store --clusters", "store --config", "store --epochs-max",
        "store --manifest required", "store --max-steps", "store --out required",
        "store --page-dim", "store --seeds",
    ],
}


def _label(action) -> str:
    kind = {argparse._StoreAction: "store", argparse.BooleanOptionalAction: "bool"}[type(action)]
    return f"{kind} {'/'.join(action.option_strings)}" + (" required" if action.required else "")


def test_cli_surface_is_pinned():
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {
        name: sorted(_label(a) for a in parser._actions if not isinstance(a, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_SURFACE


class _Called(Exception):
    pass


@pytest.mark.parametrize(
    "argv,stage,reach,expected",
    [
        (["synth", "--out", "o", "--pages", "5"], "run_synth",
         lambda a: a["spec"].pages_per_writer, 5),
        (["synth", "--out", "o", "--writers", "3", "--pages", "2,3,4"], "run_synth",
         lambda a: a["spec"].pages_per_writer, (2, 3, 4)),
        (["train", "--labels", "l", "--out", "o", "--backbone-dims", "32,48,64"], "run_train",
         lambda a: a["cfg"].backbone_dims, (32, 48, 64)),
        (["sweep", "--embeddings", "e", "--out", "o", "--gammas", "0.4,1.0"], "run_sweep",
         lambda a: a["gammas"], [0.4, 1.0]),
        (["evaluate", "--embeddings", "e", "--out", "o", "--no-per-query"], "run_evaluate",
         lambda a: a["per_query"], False),
        (["encode", "--manifest", "m", "--models", "d", "--out", "o", "--page-pca", "p.wrmd"],
         "run_encode", lambda a: a["cfg"].page_pca, "p.wrmd"),
        (["report", "--manifest", "m", "--out", "o", "--clusters", "7", "--epochs-max", "3",
          "--max-steps", "9", "--page-dim", "12"], "run_report",
         lambda a: (a["cluster_cfg"].n_clusters, a["train_cfg"].n_clusters,
                    a["train_cfg"].epochs_max, a["train_cfg"].max_steps,
                    a["encode_cfg"].page_dim),
         (7, 16, 3, 9, 12)),
    ],
)
def test_flag_reaches_config(monkeypatch, argv, stage, reach, expected):
    real = getattr(cli, stage)
    seen = {}

    def fake(*args, **kwargs):
        seen.update(inspect.signature(real).bind(*args, **kwargs).arguments)
        raise _Called

    monkeypatch.setattr(cli, stage, fake)
    with pytest.raises(_Called):
        cli.main(argv)
    # repr tells 5 from 5.0, a tuple from a list and a str from a Path
    assert repr(reach(seen)) == repr(expected)


# config fields that are gone: the trainer has one admission rule and
# one encoder mode ("mining", "mode", "alpha_init"); the validation pool
# cap, the descriptor cap and the power-normalization exponent are
# constants (trainer.VAL_POOL_CAP, fileio.DESCRIPTOR_CAP,
# aggregation.POWER_ALPHA); encode draws no random numbers ("seed")
_REMOVED_KEYS = [
    ("train", "mining", "hard"),
    ("train", "mode", "netvlad"),
    ("train", "alpha_init", 100.0),
    ("train", "val_pool_cap", 1000),
    ("cluster", "cap", 2000),
    ("encode", "seed", 0),
    ("encode", "cap", 2000),
    ("encode", "power_alpha", 0.4),
]
_INPUTS = {
    "train": ["--labels", "labels.wrmd"],
    "cluster": ["--manifest", "manifest.json"],
    "encode": ["--manifest", "manifest.json", "--models", "models"],
    "report": ["--manifest", "manifest.json"],
}


@pytest.mark.parametrize("section,key,value", _REMOVED_KEYS)
@pytest.mark.parametrize("via_report", [False, True], ids=["stage", "report"])
def test_removed_train_key_is_unknown(tmp_path, capsys, via_report, section, key, value):
    command = "report" if via_report else section
    config = {section: {key: value}} if via_report else {key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, *_INPUTS[command], "--out", str(out), "--config", str(cfg_path)]
    assert cli.entrypoint(argv) == 1
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [
        ["train", "--mode", "netvlad"],
        ["train", "--alpha-init", "100"],
        ["train", "--val-pool-cap", "1000"],
        ["cluster", "--cap", "2000"],
        ["encode", "--cap", "2000"],
        ["encode", "--power-alpha", "0.4"],
        ["encode", "--seed", "0"],
    ],
)
def test_removed_train_flag_is_rejected(tmp_path, capsys, flag):
    command, *removed = flag
    out = tmp_path / "out"
    assert cli.entrypoint([command, *_INPUTS[command], "--out", str(out), *removed]) == 1
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,field",
    [
        (["train", "--labels", "labels.wrmd", "--margin", "nan"], "margin"),
        (["train", "--labels", "labels.wrmd", "--margin", "inf"], "margin"),
        (["synth", "--noise", "nan"], "noise_sigma"),
        (["synth", "--noise", "inf"], "noise_sigma"),
    ],
)
def test_non_finite_config_value_rejected_up_front(tmp_path, capsys, command, field):
    out = tmp_path / "out"
    assert cli.entrypoint([*command, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_batch_size_not_a_multiple_of_per_class_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["train", "--labels", "labels.wrmd", "--batch-size", "12", "--per-class", "5"]
    assert cli.entrypoint([*argv, "--out", str(out)]) == 1
    assert "batch_size must be a multiple of per_class" in capsys.readouterr().err
    assert not out.exists()

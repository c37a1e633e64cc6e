"""The command-line surface and the path from each flag shape to the
config a stage receives."""

import argparse
import inspect

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
        "store --cap", "store --clusters", "store --config", "store --manifest required",
        "store --out required", "store --rho", "store --seed", "store --target-dim",
    ],
    "train": [
        "store --alpha-init", "store --backbone-dims", "store --batch-size", "store --clusters",
        "store --config", "store --epochs-max", "store --labels required",
        "store --learning-rate", "store --margin", "store --max-steps", "store --mining",
        "store --mode", "store --out required", "store --patience", "store --per-class",
        "store --seed", "store --val-pool-cap", "store --validation-fraction",
        "store --warmup-epochs",
    ],
    "encode": [
        "store --cap", "store --config", "store --manifest required",
        "store --models required", "store --out required", "store --page-dim",
        "store --page-pca", "store --power-alpha", "store --seed",
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

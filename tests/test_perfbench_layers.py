"""The traced benchmark run wraps wret functions by (module, attribute)
name; a refactor that drops one of those names must fail here."""

import sys
from importlib import util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/ is imported read-only: no bytecode cache is written there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in layers.WRAPS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []

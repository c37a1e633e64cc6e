"""Every module-qualified name that README.md puts in backticks, such as
`retrieval.RANK_BLOCK` or `wret.retrieval.rank_rows`, resolves, so a change
that deletes or renames a documented symbol fails here."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import wret

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(wret.__path__)}
# An optional package prefix, a lower-case first part, then attributes;
# the first part must name a wret module, so `manifest.json` is skipped.
QUALIFIED = re.compile(r"`(?:wret\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)+)`")


def _documented_names() -> list[str]:
    found = {
        m.group(0).strip("`")
        for m in QUALIFIED.finditer(README.read_text(encoding="utf-8"))
        if m.group(1) in MODULES
    }
    return sorted(found)


def test_readme_names_some_symbols():
    assert _documented_names()


@pytest.mark.parametrize("name", _documented_names())
def test_documented_name_resolves(name):
    module, *attributes = name.removeprefix("wret.").split(".")
    obj = importlib.import_module(f"wret.{module}")
    for attribute in attributes:
        assert hasattr(obj, attribute), f"README names {name}, which does not resolve"
        obj = getattr(obj, attribute)

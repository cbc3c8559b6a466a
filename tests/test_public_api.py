import ast
import importlib
import sys
from pathlib import Path

import pytest

import lagas

SUBMODULES = ["cli", "core", "diagnostics", "integrate", "scheme", "verification"]


@pytest.mark.parametrize("module", ["lagas", *(f"lagas.{name}" for name in SUBMODULES)])
def test_every_exported_name_resolves(module):
    # a deleted name must not linger in an export list
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_top_level_exports_exactly_what_it_imports():
    tree = ast.parse(Path(lagas.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(lagas.__all__) == imported


def test_src_has_no_unused_imports():
    # a deletion must not leave its imports behind: every module-level import
    # is read somewhere in its module or re-exported through __all__
    unused = []
    for path in sorted(Path(lagas.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = set(importlib.import_module(f"lagas.{path.stem}").__all__)
        unused += [f"{path.name}: {name}" for name in sorted(bound - read - exported)]
    assert unused == []


def test_perfbench_trace_targets_exist(monkeypatch):
    # perfbench's tracer replaces these module attributes by name; a rename
    # would break traced benchmark runs while every other test still passes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    sys.modules.pop("tracer")
    missing = [
        (owner.__name__, attr)
        for owner, attr, _ in tracer.targets(lagas)
        if attr not in owner.__dict__
    ]
    assert missing == []

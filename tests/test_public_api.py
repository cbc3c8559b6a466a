import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import lagas
from lagas import SetupKind

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


def test_perfbench_trace_sees_every_step_and_stage(monkeypatch):
    # the tracer reads step's first six arguments and counts its spans and
    # rhs's; both tables must step through lagas.integrate.step and evaluate
    # every stage through lagas.integrate.rhs
    from lagas.integrate import SSPRK43, SSPRK104

    names = list(inspect.signature(lagas.integrate.step).parameters)[:6]
    assert names == ["state", "dt", "grid", "params", "setup", "ctrl"]
    calls = {"rhs": 0, SSPRK43: 0, SSPRK104: 0}
    step, rhs = lagas.integrate.step, lagas.integrate.rhs

    def count_step(*args, **kwargs):
        calls[kwargs["table"]] += 1
        return step(*args, **kwargs)

    def count_rhs(*args, **kwargs):
        calls["rhs"] += 1
        return rhs(*args, **kwargs)

    monkeypatch.setattr(lagas.integrate, "step", count_step)
    monkeypatch.setattr(lagas.integrate, "rhs", count_rhs)
    setup = SetupKind.HALFLINE_INSULATED
    grid = lagas.make_grid(setup, 10.0, 64)
    state = lagas.build_initial_data(lagas.InitialDataSpec(amplitude_v=0.5), setup, grid)
    params = lagas.GasParams(1.0, 1.0, 1.0, 1.5)
    lagas.advance(state, 0.1, 0.03, grid, params, setup, lagas.StepControl())
    assert calls[SSPRK43] > 0 and calls[SSPRK104] > 0
    assert calls["rhs"] == 4 * calls[SSPRK43] + 10 * calls[SSPRK104]


@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_problem_setup_is_another_name_for_setup_kind(kind):
    # perfbench builds its setups as lagas.ProblemSetup(kind)
    assert lagas.ProblemSetup(kind) is kind
    assert kind.has_wall == (kind is not SetupKind.CAUCHY)

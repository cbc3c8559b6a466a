import ast
import importlib
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lagas
import lagas.cli  # perfbench traces lagas.cli, which `import lagas` alone does not load
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


def test_a_failing_hypothesis_test_leaves_the_rest_of_the_run(tmp_path):
    # warnings are errors, but hypothesis explains a failing example through
    # libcst, which warns of a deprecated mypy_extensions name; unfiltered,
    # that warning stops pytest with INTERNALERROR before the next test runs
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @given(st.integers(0, 10))
        @settings(database=None, deadline=None, derandomize=True)
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


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
    # rhs's, reading args[1].n_cells of each rhs call; every step must go
    # through lagas.integrate.step and evaluate its ten stages through
    # lagas.integrate.rhs, and rhs must not re-check a stage step has checked
    names = list(inspect.signature(lagas.integrate.step).parameters)[:6]
    assert names == ["state", "dt", "grid", "params", "setup", "ctrl"]
    calls = {"rhs": 0, "step": 0, "require_positive": 0}
    step, rhs = lagas.integrate.step, lagas.integrate.rhs
    require_positive = lagas.scheme.require_positive

    def count_step(*args, **kwargs):
        calls["step"] += 1
        return step(*args, **kwargs)

    def count_rhs(*args, **kwargs):
        calls["rhs"] += 1
        assert isinstance(args[1], lagas.MassGrid)
        return rhs(*args, **kwargs)

    def count_require_positive(*args):
        calls["require_positive"] += 1
        return require_positive(*args)

    monkeypatch.setattr(lagas.integrate, "step", count_step)
    monkeypatch.setattr(lagas.integrate, "rhs", count_rhs)
    monkeypatch.setattr(lagas.scheme, "require_positive", count_require_positive)
    setup = SetupKind.HALFLINE_INSULATED
    grid = lagas.make_grid(setup, 10.0, 64)
    state = lagas.build_initial_data(lagas.InitialDataSpec(amplitude_v=0.5), setup, grid)
    params = lagas.GasParams(1.0, 1.0, 1.0, 1.5)
    lagas.advance(state, 0.1, 0.03, grid, params, setup, lagas.StepControl())
    assert calls["step"] > 0
    assert calls["rhs"] == 10 * calls["step"]
    assert calls["require_positive"] == 0


def test_perfbench_traced_runs_yield_their_layer_metrics(monkeypatch, tmp_path):
    # the tracer installed in-process over a forced advance and a cli.run, each
    # a workload span as perfbench's worker opens them: its layer figures must
    # compute, and restore must leave nothing wrapped for an untraced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracer")
    sys.modules.pop("tracer")
    setup = SetupKind.CAUCHY
    grid = lagas.make_grid(setup, 10.0, 16)
    params = lagas.GasParams(1.0, 1.0, 1.0, 1.5)
    solution = lagas.verification.default_pulse_solution(setup, 10.0)
    config = lagas.cli.parse_config(json.dumps(
        {"setup": "halfline_insulated", "L": 10.0, "n": 16, "t_end": 0.05, "cadence": 0.02,
         "out_dir": str(tmp_path / "out")}))
    tracer = tracing.Tracer("guard")
    tracing.install(tracer, lagas)
    try:
        index = tracer.open("workload")
        sources = lagas.verification.make_source_rates(solution, params, grid)
        state = lagas.verification.sample_state(solution, grid)
        lagas.integrate.advance(state, 0.05, 0.02, grid, params, setup, lagas.StepControl(),
                                sources=sources)
        tracer.close(index)
        index = tracer.open("workload")
        assert lagas.cli.run(config) == lagas.cli.EXIT_OK
        tracer.close(index)
        layers = tracing.layer_metrics(tracer.spans)
    finally:
        tracer.restore()
    tracing.assert_untraced(lagas)
    names = [span[0] for span in tracer.spans]
    assert names.count("workload") == 2 and layers["integrate.steps"] >= 2
    assert layers["scheme.rhs.calls"] == 10 * layers["integrate.steps"]
    assert names.count("scheme.boundary_power") == layers["scheme.rhs.calls"]
    # one sources call per step, each inside a step of the forced workload
    spans, forced = tracer.spans, names.index("workload")

    def inside(i, root):
        while i not in (-1, root):
            i = spans[i][3]
        return i == root

    steps = [i for i, span in enumerate(spans) if span[0] == "integrate.step" and inside(i, forced)]
    parents = [span[3] for span in spans if span[0] == "verification.sources"]
    assert steps and sorted(parents) == steps
    assert layers["verification.sources.calls"] == len(steps)


def test_perfbench_workloads_pass_their_checks_at_the_tiny_size(monkeypatch, tmp_path):
    # each benchmark workload, built as perfbench's worker builds it with --tiny,
    # runs its chunks and passes every check it gates a repetition on
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    for name in ("worker", "tracer"):
        sys.modules.pop(name)
    for name, workload in worker.WORKLOADS.items():
        built = workload(1, True, tmp_path / name)
        checks, _, _ = built.check([chunk() for chunk in built.chunks()])
        assert checks and all(checks.values()), (name, checks)


@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_problem_setup_is_another_name_for_setup_kind(kind):
    # perfbench builds its setups as lagas.ProblemSetup(kind)
    assert lagas.ProblemSetup(kind) is kind
    assert kind.has_wall == (kind is not SetupKind.CAUCHY)

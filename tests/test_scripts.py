"""Smoke test: each experiment script runs to an exit code at a tiny size."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["decay_audit.py", "--n", "32", "--t-end", "0.1"],
    ["mms_study.py", "--n-list", "16", "32", "64", "--t-end", "0.01"],
    ["seed_sweep.py", "--n", "32", "--t-end", "0.2", "--seeds", "2"],
], ids=lambda argv: argv[0])
def test_script_returns_an_exit_code(tmp_path, monkeypatch, argv):
    if argv[0] == "decay_audit.py":
        argv = argv + ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert isinstance(exit_info.value.code, int)



class _Stop(Exception):
    pass


@pytest.mark.parametrize("argv,module,solver,params_arg", [
    pytest.param(["mms_study.py", "--t-end", "0.01"], "lagas.verification",
                 "convergence_study", 2, id="mms_study.py"),
    pytest.param(["seed_sweep.py", "--n", "32"], "lagas.integrate", "advance", 4,
                 id="seed_sweep.py"),
])
def test_script_runs_the_default_gas_of_run_config(monkeypatch, argv, module, solver,
                                                   params_arg):
    # the default gas has one home, RunConfig.gas; a script that spells it
    # out would keep the old gas when that default changes
    from lagas import GasParams
    from lagas.cli import RunConfig

    gas = GasParams(mu=2.0, kappa=3.0, R=1.0, c_v=2.5)
    monkeypatch.setattr(RunConfig, "gas", gas)
    seen = []

    def stop(*args, **kwargs):
        seen.append(args[params_arg])
        raise _Stop

    monkeypatch.setattr(sys.modules[module], solver, stop)
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(_Stop):
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert seen == [gas]

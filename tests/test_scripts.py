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

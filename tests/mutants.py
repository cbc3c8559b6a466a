"""Mutation runner: do the tests other than the byte pins kill each listed mutant?

    python3 tests/mutants.py          # every mutant
    python3 tests/mutants.py 3 14     # mutants 3 and 14 only

Each mutant is one string replacement in one file of ``src/lagas``, applied to a
fresh copy of the repository (without ``.git`` and caches) in a temporary directory.
The copy then runs ``pytest -x tests/ --ignore=tests/test_golden.py``, so the golden
byte pins do not count, nor does the check that each original text occurs in its file,
which any mutant fails; a mutant is killed when pytest fails.  The unmutated copy
runs first and must pass.  A markdown kill table goes to stdout, and the exit code
is 1 if any mutant survives.  No mutation package is needed.  pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (what it breaks, file in src/lagas, original text, mutated text); the original
#: must occur exactly once in its file
MUTANTS = [
    ("stable_dt's SSP factor 6.0 -> 6.5", "integrate.py",
     "min(6.0 * dm * dm / two_d,", "min(6.5 * dm * dm / two_d,"),
    ("a DENSE_CUBICS coefficient 2/3 -> 2/3 + 1e-3", "integrate.py",
     "(11 / 15, -13 / 10, 2 / 3)", "(11 / 15, -13 / 10, 2 / 3 + 1e-3)"),
    ("the stage-10 mix weight 0.36 -> 0.35", "integrate.py",
     "np.array([0.4, 0.6, 0.04, 0.36])", "np.array([0.4, 0.6, 0.04, 0.35])"),
    ("the far-field ghost stress's viscous sign", "scheme.py",
     "return -params.R - params.mu * (u_out / dm)", "return -params.R + params.mu * (u_out / dm)"),
    ("the isothermal wall flux halved", "scheme.py",
     "else c * (th0 / v.item(0))", "else 0.5 * c * (th0 / v.item(0))"),
    ("the outer-deviation band 5 % -> 6 %", "diagnostics.py",
     "math.ceil(0.05 * self.n)", "math.ceil(0.06 * self.n)"),
    ("the sup_theta_excess level 1.5 -> 1.4", "diagnostics.py",
     "max(bounds[3] - 1.5, 0.0) ** 2", "max(bounds[3] - 1.4, 0.0) ** 2"),
    ("the entropy tolerance 1e-3 -> 1e-2", "diagnostics.py",
     "tolerance = e0 * 1e-3 + 1e-6", "tolerance = e0 * 1e-2 + 1e-6"),
    ("the tail jitter 0.01 -> 0.02", "diagnostics.py",
     "_TAIL_FRACTION, _TAIL_JITTER = 0.2, 0.01", "_TAIL_FRACTION, _TAIL_JITTER = 0.2, 0.02"),
    ("the t3 source term dropped", "verification.py",
     "t3 = params.kappa * fth_x * fv_x", "t3 = 0.0 * fth_x * fv_x"),
    ("cum_z4's trapezoid with z4_prev -> z4", "diagnostics.py",
     "0.5 * (z4 + z4_prev) * h", "0.5 * (z4 + z4) * h"),
    ("advance's landing slack 1e-12 -> 1e-9", "integrate.py",
     "eps = state.t, 1e-12 * max(", "eps = state.t, 1e-9 * max("),
    ("cli.run's snapshot-due slack 1e-9 -> 1e-3", "cli.py",
     "config.snapshot_every * (1.0 - 1e-9)", "config.snapshot_every * (1.0 - 1e-3)"),
    ("POSITIVITY_FLOOR 1e-10 -> 1e-9", "core.py",
     "POSITIVITY_FLOOR = 1e-10", "POSITIVITY_FLOOR = 1e-9"),
    ("the fast state test's > floor -> >= floor", "core.py",
     "None) > floor", "None) >= floor"),
    ("the fast state test's finite sum dropped", "core.py",
     "and math.isfinite(np.add.reduce(y, None)))", "and True)"),
    ("FluidState keeps the caller's arrays, apart from its packed buffer", "core.py",
     "vars(FluidState.from_packed(self.t, pack(v, theta, u))))\n",
     "vars(FluidState.from_packed(self.t, pack(v, theta, u))))\n"
     "        vars(self).update(v=v, theta=theta, u=u)\n"),
    ("FluidState.copy() shares its buffer", "core.py",
     "FluidState.from_packed(self.t, self.y.copy())", "FluidState.from_packed(self.t, self.y)"),
    ("the end-of-step full test dropped", "integrate.py",
     "if named or i == 10 else above_floor(", "if named else above_floor("),
    ("the replay keeps the fast pass's kept entries", "integrate.py",
     "del kept[mark:]", "del kept[len(kept):]"),
    ("stable_dt skips the acoustic pass exactly when its bound cannot", "integrate.py",
     "dm / bound < dt:", "dm / bound >= dt:"),
    ("the entry check's width comparison dropped", "core.py",
     "return y.shape[-1] == 3 * grid.n_cells + 1", "return True"),
    ("the Stage's floor view covers v only", "scheme.py",
     "self.vth, self.power = y, y[: 2 * n],", "self.vth, self.power = y, y[:n],"),
    ("make_source_rates packs its rows in the old tuple's order (dv, du, dtheta)",
     "verification.py", "pack(s_v, s_th / params.c_v, momentum(e))",
     "pack(s_v, momentum(e), s_th / params.c_v)"),
    ("step's forcing shape check dropped", "integrate.py",
     "if forcing is not None and getattr(forcing, \"shape\", None) !=",
     "if False and getattr(forcing, \"shape\", None) !="),
    ("the Stage's width check dropped", "scheme.py",
     "if not on_grid(y, self.grid):", "if False:"),
    ("step reuses the spare Stage on another grid with the same gas", "integrate.py",
     "stage is not None and stage.grid is grid and stage.params is params",
     "stage is not None and stage.params is params"),
    ("step reuses the spare Stage with another gas on the same grid", "integrate.py",
     "stage.grid is grid and stage.params is params:", "stage.grid is grid:"),
    ("the Stage's 0-d c_v operand is bound from R", "scheme.py",
     "(params.R, params.c_v, self.dm)", "(params.R, params.R, self.dm)"),
    ("step's h binds dt / 5.0", "integrate.py", "np.array(dt / 6.0)", "np.array(dt / 5.0)"),
]

#: a failing test's node id, up to pytest's " - " before the reason or the end of the line; a
#: parametrize id may hold a space
_FAILED = re.compile(r"^FAILED (.+?)(?: - |$)", re.MULTILINE)
#: a mutant whose test run takes longer than this is counted as killed
TIMEOUT_S = 900


def run_copy(work: Path, mutant: tuple[str, str, str, str] | None) -> tuple[int, str, float]:
    """(pytest exit code, first failing test, seconds) of a fresh copy with ``mutant``."""
    copy = work / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out", "runs"))
    if mutant is not None:
        what, name, old, new = mutant
        path = copy / "src" / "lagas" / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"mutant {what!r}: {old!r} occurs {text.count(old)} times in {name}")
        path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests/",
             "--ignore=tests/test_golden.py", "--deselect",
             "tests/test_public_api.py::test_every_mutant_original_occurs_once_in_its_file"],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # a hang counts as a kill
        return -1, "timeout", time.monotonic() - started
    failed = _FAILED.search(proc.stdout)
    return proc.returncode, failed.group(1) if failed else "", time.monotonic() - started


def main(argv: list[str]) -> int:
    chosen = [int(arg) for arg in argv] or range(1, len(MUTANTS) + 1)
    with tempfile.TemporaryDirectory(prefix="lagas-mutants-") as tmp:
        code, failed, _ = run_copy(Path(tmp), None)
        if code != 0:
            print(f"the unmutated copy fails ({failed or f'pytest exit {code}'})", file=sys.stderr)
            return 2
        print("| # | Mutant | File | Verdict | First failing test | s |")
        print("|---|---|---|---|---|---|")
        survived = 0
        for number in chosen:
            mutant = MUTANTS[number - 1]
            code, failed, seconds = run_copy(Path(tmp), mutant)
            survived += code == 0
            verdict = "survived" if code == 0 else "killed"
            print(f"| {number} | {mutant[0]} | {mutant[1]} | {verdict} | {failed or '-'} "
                  f"| {seconds:.1f} |", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

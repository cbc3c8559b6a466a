"""One repetition of one benchmark workload, in a fresh interpreter.

Launched by ``run.py``; prints one JSON object with the repetition's
timings, check verdicts and output digest.

On a shared host the speed of a core drifts by tens of percent over tens
of seconds (neighbours contend for caches and memory bandwidth), so the
gated timings are calibrated seconds: CPU seconds of the process scaled by
``CALIBRATION_NOMINAL_S`` over the time of a fixed calibration kernel run
right beside them.  The kernel slows down with the core, so the ratio stays
put while wall time does not; it is the benchmark's own code, so a change to
lagas moves only the numerator.

- ``setup_s``: CPU seconds from interpreter start to the end of set-up
  (imports, config, grid, initial data), calibrated by the kernel run right
  after it.
- ``solve_s``: CPU seconds from the first step to the result, calibrated
  chunk by chunk by the kernel runs before and after each chunk.
- ``wall_s`` and ``setup_wall_s``: the same stretches in raw wall seconds
  (set-up counted from the launcher's spawn), recorded but not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import lagas  # noqa: E402
import lagas.cli  # noqa: E402
import lagas.diagnostics  # noqa: E402
import lagas.integrate  # noqa: E402
import lagas.verification  # noqa: E402

import tracer as tracing  # noqa: E402

GAS = lagas.GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
#: |energy_balance_residual| observed at 1e-13..1e-11 on these workloads
ENERGY_RESIDUAL_BOUND = 1e-9
MMS_ORDER_MIN = 1.9
SOLVER_ERRORS = (lagas.IntegrationError, lagas.StiffnessError)
#: the calibration kernel: CALIBRATION_ROUNDS rounds of CALIBRATION_ITERS
#: iterations of small-array numpy arithmetic, 15-25 ms a round on a 2-core
#: Xeon VM; the median round is the figure
CALIBRATION_ROUNDS = 5
CALIBRATION_ITERS = 600
#: the round time that calibrated seconds are scaled to: a calibrated
#: second is a CPU second on a core where one round takes this long
CALIBRATION_NOMINAL_S = 0.020
_CAL_X = np.linspace(1.0, 2.0, 1024)
_CAL_Y = _CAL_X[::-1].copy()


def calibrate() -> float:
    """CPU seconds of one round of the calibration kernel (median round).

    Like the solver's hot loop, it is per-call numpy overhead plus
    arithmetic on 1024-element arrays, so it tracks the same drift in core
    speed.
    """
    rounds = []
    for _ in range(CALIBRATION_ROUNDS):
        started = time.process_time()
        x, y = _CAL_X.copy(), _CAL_Y
        for _ in range(CALIBRATION_ITERS):
            a = np.sqrt(x * y + 1.0)
            b = np.diff(a) / (x[1:] + y[:-1])
            c = np.concatenate(([0.0], b, [0.0]))
            x = x + 1e-6 * (c[1:] - c[:-1])
            float(np.max(np.abs(c))) + float(np.sum(a))
        rounds.append(time.process_time() - started)
    return sorted(rounds)[CALIBRATION_ROUNDS // 2]


def entropy_defect_ok(energies: list[float], cum_dissipation: list[float]) -> bool:
    """The CLI's entropy-budget verdict: E + cum_D - E0 within E0*1e-3 + 1e-6."""
    e0 = energies[0]
    defect = max(e + d - e0 for e, d in zip(energies, cum_dissipation))
    return defect <= e0 * 1e-3 + 1e-6


class LargeData:
    """Library ``advance`` of criterion-6 random data on the whole line."""

    # Shape seed 7 of criterion 6. The workload seed moves the centre and
    # scales the u and theta amplitudes; amplitude_v stays 0.9, because
    # min v sets the diffusive dt and hence the step count. Across random
    # shapes the step count to t = 1 varies 2-6x, which would swamp any
    # run-to-run comparison. Seed 2 is avoided because its entropy-budget
    # defect at cadence 0.1 sits at 99% of the tolerance.
    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        rng = np.random.default_rng(seed)
        n, self.t_end = (128, 0.05) if tiny else (1024, 1.0)
        self.setup = lagas.ProblemSetup(lagas.SetupKind.CAUCHY)
        self.grid = lagas.make_grid(self.setup, 25.0, n)
        spec = lagas.InitialDataSpec(
            family="random_smooth",
            amplitude_v=0.9,
            amplitude_u=float(rng.uniform(1.08, 1.2)),
            amplitude_theta=-float(rng.uniform(0.7, 0.75)),
            width=3.0,
            center=float(rng.uniform(-1.0, 1.0)),
            seed=7,
            modes=10,
        )
        self.state = lagas.verification.build_initial_data(spec, self.setup, self.grid)

    def chunks(self):
        return [lambda: lagas.integrate.advance(
            self.state, self.t_end, 0.1, self.grid, GAS, self.setup, lagas.StepControl()
        )]

    def check(self, results) -> tuple[dict[str, bool], str, dict]:
        final, records = results[0]
        residual = records[-1].energy_balance_residual
        checks = {
            "entropy_budget": entropy_defect_ok(
                [r.E for r in records], [r.cum_D for r in records]
            ),
            "energy_balance": abs(residual) <= ENERGY_RESIDUAL_BOUND,
        }
        digest = hashlib.sha256(
            np.float64(final.t).tobytes()
            + final.v.tobytes() + final.theta.tobytes() + final.u.tobytes()
        ).hexdigest()
        return checks, digest, {"energy_balance_residual": residual}


class DenseAudit:
    """``lagas.cli.run`` of the README full config at a fine audit cadence."""

    # README values except n, t_end and cadence. L = 20 with the bump at
    # L/2 keeps the outer-cell deviation near 3e-4 at t = 2, under the
    # 1e-3 truncation threshold. The workload seed jitters the amplitudes
    # and the centre; v stays >= 1, so the step count stays tick-capped.
    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        rng = np.random.default_rng(seed)
        half_length = 20.0
        raw = {
            "setup": "halfline_insulated",
            "L": half_length,
            "n": 64 if tiny else 256,
            "t_end": 0.02 if tiny else 2.0,
            "cadence": 0.002,
            "gas": {"mu": 1.0, "kappa": 1.0, "R": 1.0, "c_v": 1.5},
            "step": {"cfl_hyperbolic": 0.4, "cfl_parabolic": 0.4,
                     "dt_min": 1e-12, "dt_max": 1.0, "positivity_floor": 1e-10},
            "initial_data": {
                "family": "gaussian_bump",
                "amplitude_v": float(rng.uniform(1.8, 2.0)),
                "amplitude_u": float(rng.uniform(0.45, 0.5)),
                "amplitude_theta": -float(rng.uniform(0.75, 0.8)),
                "width": 1.0,
                "center": 0.5 * half_length + float(rng.uniform(-0.5, 0.5)),
            },
            "out_dir": str(out_dir),
            "excess_thresholds": [1.5, 2.0, 3.0],
            "truncation_threshold": 1e-3,
            "snapshot_every": 0.01 if tiny else 0.1,
            "mms": {"n_list": [64, 128, 256, 512], "t_end": 0.3, "threshold": 1.9},
        }
        self.out_dir = out_dir
        self.config = lagas.cli.config_from_dict(raw)
        # the same grid and initial-data build that run() starts with
        grid = lagas.cli.make_grid(self.config.setup, self.config.half_length,
                                   self.config.n_cells)
        lagas.cli.build_initial_data(self.config.initial, self.config.setup, grid)

    def chunks(self):
        return [lambda: lagas.cli.run(self.config)]

    def check(self, results) -> tuple[dict[str, bool], str, dict]:
        exit_code = results[0]
        audit = (self.out_dir / "audit.csv").read_bytes()
        lines = audit.decode().splitlines()
        header = lines[0].split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        column = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        residual = column["energy_balance_residual"][-1]
        checks = {
            "cli_exit_code": exit_code == lagas.cli.EXIT_OK,
            "summary_written": (self.out_dir / "summary.json").is_file(),
            "entropy_budget": entropy_defect_ok(column["E_eq2.12"], column["cum_D_eq2.12"]),
            "energy_balance": abs(residual) <= ENERGY_RESIDUAL_BOUND,
        }
        written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        detail = {"exit_code": exit_code, "energy_balance_residual": residual,
                  "bytes_written": written}
        return checks, hashlib.sha256(audit).hexdigest(), detail


class MmsThreeSetups:
    """``convergence_study`` on every setup, as criterion 2 and ``lagas mms``.

    Same resolutions and L as criterion 2, but to t = 0.05 instead of 0.3:
    about 2 s instead of 16 s on a 2-core Xeon VM, so a run holds a dozen
    repetitions rather than two, and the fitted orders still come out at
    2.00 (criterion 2's 1.9 floor is checked).
    """

    def __init__(self, seed: int, tiny: bool, out_dir: Path) -> None:
        self.n_list = (32, 64, 128) if tiny else (64, 128, 256, 512)
        self.t_end = 0.02 if tiny else 0.05
        self.cases = [
            (setup, lagas.verification.default_pulse_solution(setup, 10.0))
            for setup in (lagas.ProblemSetup(kind) for kind in lagas.SetupKind)
        ]

    def chunks(self):
        # one chunk per setup, so that the calibration kernel runs every
        # few seconds rather than once around the whole study
        return [
            lambda setup=setup, solution=solution: lagas.verification.convergence_study(
                solution, setup, GAS, self.n_list, self.t_end, 10.0,
                ctrl=lagas.StepControl(),
            )
            for setup, solution in self.cases
        ]

    def check(self, results) -> tuple[dict[str, bool], str, dict]:
        orders = [o for r in results for o in (r.orders or {}).values()]
        min_order = min(orders) if orders else float("nan")
        errors = repr([sorted(r.errors.items()) for r in results]).encode()
        checks = {"mms_order": len(orders) == 9 and min_order >= MMS_ORDER_MIN}
        return checks, hashlib.sha256(errors).hexdigest(), {"mms_min_order": min_order}


WORKLOADS = {
    "large_data_n1024": LargeData,
    "dense_audit_n256": DenseAudit,
    "mms_three_setups": MmsThreeSetups,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the launcher at spawn")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", type=Path,
                        help="trace this repetition and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace is not None:
        tracer = tracing.Tracer(run_id=args.trace.stem)
        tracing.install(tracer, lagas)
    else:
        tracing.assert_untraced(lagas)

    try:
        index = tracer.open("setup") if tracer else None
        workload = WORKLOADS[args.workload](args.seed, args.tiny, args.out_dir)
        if tracer:
            tracer.close(index)
        setup_cpu = time.process_time()
        setup_wall = time.monotonic() - args.spawned_at
        references = [calibrate()]
        out = {"setup_s": setup_cpu * CALIBRATION_NOMINAL_S / references[0],
               "setup_wall_s": setup_wall, "numpy": np.__version__}
        if not args.setup_only:
            # each chunk is a root span of its own, so the calibration
            # kernel between chunks stays out of the traced tree
            results, wall, solve_s, error = [], 0.0, 0.0, None
            for chunk in workload.chunks():
                index = tracer.open("workload") if tracer else None
                started, cpu_started = time.perf_counter(), time.process_time()
                try:
                    results.append(chunk())
                except SOLVER_ERRORS as exc:
                    error = f"{type(exc).__name__}: {exc}"
                cpu = time.process_time() - cpu_started
                wall += time.perf_counter() - started
                if tracer:
                    tracer.close(index)
                references.append(calibrate())
                solve_s += cpu * CALIBRATION_NOMINAL_S / (
                    0.5 * (references[-2] + references[-1]))
                if error is not None:
                    break
            out.update(wall_s=wall, solve_s=solve_s)
            if error is None:
                checks, digest, detail = workload.check(results)
            else:
                checks, digest, detail = {}, None, {}
            checks["no_solver_error"] = error is None
            out.update(checks=checks, digest=digest, detail=detail, error=error)
            if tracer:
                layers = tracing.layer_metrics(tracer.spans)
                # children nest inside their parents and the self times
                # of the workload trees add up to their root spans
                checks["self_times_sum_to_root"] = layers["trace.self_min_s"] >= 0.0 and (
                    math.isclose(layers["trace.self_sum_s"], layers["trace.root_s"],
                                 rel_tol=1e-9))
                out["layers"] = layers
                tracer.write(args.trace)
    finally:
        if tracer:
            tracer.restore()
            tracing.assert_untraced(lagas)
    out["calibration_s"] = references
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

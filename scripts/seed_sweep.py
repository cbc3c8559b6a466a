#!/usr/bin/env python3
"""Random-data sweep: does the space-time gradient budget always plateau?

Runs several seeds of rough (random Fourier) large initial data and reports
the growth of the cumulative (1 + theta + u^2) u_x^2 + theta_x^2 budget over
the last fifth of each run; a small value means the budget has saturated.
Each line also gives the truncation audit's largest outer-cell deviation.
"""

import argparse

from lagas.core import GasParams, ProblemSetup, SetupKind, make_grid
from lagas.diagnostics import summarize
from lagas.integrate import StepControl, advance
from lagas.verification import InitialDataSpec, build_initial_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 7, 11])
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--t-end", type=float, default=100.0)
    args = parser.parse_args()

    setup = ProblemSetup(SetupKind.CAUCHY)
    params = GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
    grid = make_grid(setup, 25.0, args.n)
    ctrl = StepControl()

    all_ok = True
    for seed in args.seeds:
        spec = InitialDataSpec(
            family="random_smooth",
            amplitude_v=0.9,
            amplitude_u=1.2,
            amplitude_theta=-0.75,
            width=3.0,
            center=0.0,
            seed=seed,
            modes=10,
        )
        state = build_initial_data(spec, setup, grid)
        _, records = advance(state, args.t_end, 0.1, grid, params, setup, ctrl)
        summary = summarize(records)
        growth = summary["df8_tail_growth"]
        ok = growth < 0.01
        all_ok = all_ok and ok
        print(
            f"seed {seed:4d}: E0={records[0].E:7.3f}  cum_df8={records[-1].cum_df8:8.3f}  "
            f"final-20% growth={growth:.4%}  outer dev={summary['max_outer_deviation']:.1e}  "
            f"{'ok' if ok else 'NOT plateaued'}"
        )
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

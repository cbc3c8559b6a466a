#!/usr/bin/env python3
"""Grid-refinement study against the manufactured pulse, all three setups."""

import argparse

from lagas.cli import MmsSettings, RunConfig
from lagas.core import SetupKind
from lagas.verification import convergence_study, default_pulse_solution


def main() -> int:
    defaults = MmsSettings()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-list", type=int, nargs="+", default=defaults.n_list)
    parser.add_argument("--t-end", type=float, default=defaults.t_end)
    parser.add_argument("--half-length", type=float, default=10.0)
    args = parser.parse_args()

    params = RunConfig.gas
    worst = 10.0
    for setup in SetupKind:
        solution = default_pulse_solution(setup, args.half_length)
        result = convergence_study(
            solution, setup, params, args.n_list, args.t_end, args.half_length
        )
        print(f"== {setup.value}")
        header = "  ".join(f"n={n:>5d}" for n in result.n_list)
        print(f"   {'field':>6s}  {header}  order")
        for field in ("v", "u", "theta"):
            errs = "  ".join(f"{e:7.1e}" for e in result.errors[field])
            order = result.orders[field] if result.orders else float("nan")
            worst = min(worst, order)
            print(f"   {field:>6s}  {errs}  {order:5.2f}")
    print(f"worst fitted order: {worst:.2f}")
    return 0 if worst >= defaults.threshold else 1


if __name__ == "__main__":
    raise SystemExit(main())

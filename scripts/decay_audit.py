#!/usr/bin/env python3
"""Large-data decay experiment: run the audit and print the verdicts.

Simulates a strong Gaussian disturbance (min theta0 = 0.2, max v0 = 3) on a
truncated whole-line domain, writes the full audit trail, and summarizes the
energy budget, the running field bounds, and the large-time decay.
"""

import argparse
from pathlib import Path

from lagas.cli import EXIT_INTEGRATION, RunConfig, run
from lagas.core import SetupKind
from lagas.verification import InitialDataSpec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/decay_audit", help="output directory")
    parser.add_argument("--n", type=int, default=1024, help="number of cells")
    parser.add_argument("--half-length", type=float, default=25.0)
    parser.add_argument("--t-end", type=float, default=100.0)
    parser.add_argument("--cadence", type=float, default=0.05)
    args = parser.parse_args()

    config = RunConfig(
        setup=SetupKind.CAUCHY,
        half_length=args.half_length,
        n_cells=args.n,
        t_end=args.t_end,
        cadence=args.cadence,
        initial=InitialDataSpec(
            family="gaussian_bump",
            amplitude_v=2.0,
            amplitude_u=0.5,
            amplitude_theta=-0.8,
            width=1.0,
            center=0.0,
        ),
        out_dir=Path(args.out),
        truncation_threshold=0.1,  # the far tail reaches the boundary late in the run
        snapshot_every=args.t_end / 4.0,
    )
    code = run(config)
    verdict = "failure.json" if code == EXIT_INTEGRATION else "summary.json"
    print((Path(args.out) / verdict).read_text(), end="")
    print(f"exit code: {code}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

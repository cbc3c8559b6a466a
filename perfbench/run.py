#!/usr/bin/env python3
"""The lagas benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload large_data_n1024 --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``), one at a time,
with BLAS/OpenMP pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over repetitions
(``solve_s`` and ``setup_s`` in calibrated seconds, see ``worker.py``; raw
``wall_s`` is printed and recorded but drifts with the host);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  Every repetition is checked (solver errors, CLI exit
code, entropy budget, energy balance, MMS order, output digest), and the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Per-run records, output digests and the spans of the last traced
repetition go to ``.perfbench_out/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
REP_TIMEOUT_S = 150.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: per-layer counts that must repeat exactly across traced repetitions
EXACT_COUNTS = ("core.validate_state.calls", "scheme.rhs.calls", "integrate.steps",
                "integrate.cell_steps", "diagnostics.records", "verification.sources.calls")


def source_digest() -> str:
    """sha256 over the lagas sources, standing in for a commit id."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "lagas"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(args, traced: bool, rep: int, setup_only: bool = False) -> dict:
    """Spawn one worker and wait for it; a crash or timeout is a failed rep."""
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out-dir", str(work)]
    if traced:
        cmd += ["--trace", str(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})
    # cached bytecode, kept inside the repository, so that set-up after the
    # first repetition is what a user with an installed package pays
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rep": rep, "traced": traced, "ok": False, "error": "timeout",
                "elapsed_s": time.monotonic() - started}
    elapsed = time.monotonic() - started
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        return {"rep": rep, "traced": traced, "ok": False,
                "error": f"worker exited {proc.returncode} without a result",
                "elapsed_s": elapsed}
    checks = out.get("checks", {})
    out.update(rep=rep, traced=traced, elapsed_s=elapsed, setup_only=setup_only,
               ok=proc.returncode == 0 and all(checks.values()))
    return out


def check_determinism(args, reps: list[dict], source: str) -> dict[str, bool]:
    """Digests must agree within the run and with earlier runs of these sources."""
    digests = {r["digest"] for r in reps if r.get("digest")}
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    # keyed by the workload definition too, so that editing a workload
    # starts a fresh record instead of failing against the old one
    worker = hashlib.sha256((HERE / "worker.py").read_bytes()).hexdigest()[:12]
    key = f"{args.workload}@{worker}" + ("@tiny" if args.tiny else "")
    known = store.setdefault(source, {}).setdefault(key, {})
    earlier = known.get(str(args.seed))
    within = len(digests) <= 1
    across = earlier is None or digests <= {earlier}
    if within and digests and earlier is None:
        known[str(args.seed)] = next(iter(digests))
        OUT.mkdir(parents=True, exist_ok=True)
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return {"digest_within_run": within, "digest_matches_earlier_runs": across}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the harness smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lagas" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no lagas sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"unknown workload {args.workload!r}; choose from {sorted(why)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    source = source_digest()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why[args.workload]}")
    run_rep(args, False, -1, setup_only=True)  # untimed: fills the bytecode cache
    deadline = time.monotonic() + args.seconds
    modes = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    while True:
        traced = modes[len(reps) % len(modes)]
        rep = run_rep(args, traced, len(reps))
        reps.append(rep)
        print(f"  rep {rep['rep']:2d} {'traced  ' if traced else 'untraced'} "
              f"solve {rep.get('solve_s', float('nan')):.4f} s "
              f"wall {rep.get('wall_s', float('nan')):.4f} s "
              f"setup {rep.get('setup_s', float('nan')):.4f} s "
              f"rss {rep.get('peak_rss_mb', float('nan')):.1f} MB "
              f"{'ok' if rep['ok'] else 'FAILED ' + str(rep.get('error') or rep.get('checks'))}")
        upcoming = [r for r in reps if r["traced"] == modes[len(reps) % len(modes)]]
        estimate = (upcoming or reps)[-1]["elapsed_s"]
        if len(reps) >= len(modes) and time.monotonic() + estimate > deadline:
            break
    untraced = [r for r in reps if not r["traced"] and "wall_s" in r]
    setups = [r["setup_s"] for r in untraced]
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            probe = run_rep(args, False, len(reps), setup_only=True)
            reps.append(probe)
            if "setup_s" not in probe:
                break
            setups.append(probe["setup_s"])

    workload_reps = [r for r in reps if not r.get("setup_only")]
    checks = check_determinism(args, workload_reps, source)
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]
    if args.trace:
        counts = {name: {r["layers"][name] for r in traced_reps} for name in EXACT_COUNTS}
        checks["counts_repeat"] = all(len(v) <= 1 for v in counts.values())
    failed = sum(not r["ok"] for r in reps)
    if not all(checks.values()):
        failed = max(failed, 1)
    if not untraced or (args.trace and not traced_reps):
        print("no repetition produced timings", file=sys.stderr)
        return 1

    solve = statistics.median(r["solve_s"] for r in untraced)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        values.update({name: traced_reps[0]["layers"][name] for name in EXACT_COUNTS})
        detail = traced_reps[0]["detail"]
        values["cli.bytes_written"] = detail.get("bytes_written", 0)
        values["verification.mms_min_order"] = detail.get("mms_min_order", 0.0)
        values["integrate.cell_steps_per_s"] = values["integrate.cell_steps"] / solve
        values["trace.overhead"] = statistics.median(
            r["solve_s"] for r in traced_reps) / solve - 1.0
        for name in units:
            print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    else:
        samples = {
            "solve_s": [r["solve_s"] for r in untraced],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_wall_s": [r["setup_wall_s"] for r in untraced],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        for name, v in samples.items():
            q1, med, q3 = quartiles(v)
            print(f"  {name:12s} median {med:.6g} {units.get(name, 's')}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  n {len(v)}")
    verdicts = {}
    for r in workload_reps:
        for name, ok in r.get("checks", {}).items():
            passed, total = verdicts.get(name, (0, 0))
            verdicts[name] = (passed + bool(ok), total + 1)
    for name, ok in checks.items():
        verdicts[name] = (int(ok), 1)
    print("  checks: " + ", ".join(f"{k} {p}/{t}" for k, (p, t) in sorted(verdicts.items())))
    print(f"  failed {failed} of {len(reps)} attempted")

    record = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in reps if "numpy" in r), None),
        "git_sha": git_sha(), "source_sha256": source,
        "digest": next((r["digest"] for r in workload_reps if r.get("digest")), None),
        "checks": checks, "values": values, "reps": reps,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"  env: nproc {record['nproc']}, {record['cpu_model']}, python {record['python']}, "
          f"numpy {record['numpy']}, git {record['git_sha']}, src {source[:12]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

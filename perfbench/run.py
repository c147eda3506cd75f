"""Run one nhswe benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the repository root; the solver is imported from `src/` next to
this directory.  With `--trace 0` an untraced window of S seconds gives the
end-to-end metrics; with `--trace 1` an untraced and a traced window of S/2
seconds each give the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload in
its own fresh process and prints them together.  Records go to
perfbench/out/ (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    })


def print_metrics(label: str, metrics: dict, note: str = "") -> None:
    for name, (value, unit) in metrics.items():
        print(f"{label:<32} {name:<58} {value:>14.6g} {unit} {note}".rstrip())


def run_one(args) -> int:
    import nhswe

    if Path(nhswe.__file__).resolve().parent != (SRC / "nhswe").resolve():
        print(f"error: nhswe imported from {nhswe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from tracer import Tracer, patch_targets
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    n = wl.n_nodes
    inputs = wl.inputs(args.seed)
    setup_s = harness.setup_seconds(wl, inputs)

    checks = harness.Checks()
    # a traced run splits its time between the untraced and the traced window
    window = args.seconds if args.trace == 0 else 0.5 * args.seconds
    batches, reference = harness.measure(wl, inputs, window, checks)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "n_nodes": n,
        "pair": wl.pair,
        "integrator": wl.integrator,
        "environment": harness.environment(),
        "computed_working_set": harness.computed_working_set(wl, inputs),
    }
    l2_bytes = record["environment"]["l2_bytes"]
    if l2_bytes:
        record["computed_working_set"]["over_l2"] = (
            record["computed_working_set"]["bytes"] / l2_bytes)
    l2 = [b.l2_depth_error for b in batches if b.l2_depth_error is not None]
    if l2:
        record["l2_depth_error"] = max(l2)
        record["l2_depth_error_max"] = harness.L2_DEPTH_ERROR_MAX

    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        metrics, info = harness.end_to_end_metrics(batches, n, setup_s)
        record["ungated"] = as_json(info)
    else:
        untraced_ns = harness.step_ns_per_node(batches, n, 10)
        tracer = Tracer()
        with tracer.installed(patch_targets()):
            traced, _ = harness.measure(wl, inputs, window, checks, tracer, reference)
        metrics = harness.layer_metrics(
            tracer, n,
            peak_temp=harness.peak_temp_bytes(wl, inputs),
            overhead_frac=harness.step_ns_per_node(traced, n, 10) / untraced_ns - 1.0,
        )
        record["spans"] = len(tracer.names)
        tracer.write(OUT / f"{wl.name}-spans.json.gz")

    record["attempted"] = checks.attempted
    record["failed"] = checks.failed
    record["failed_frac"] = checks.failed / checks.attempted
    record["failures"] = checks.failures
    record["metrics"] = as_json(metrics)
    (OUT / f"{wl.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"environment": record["environment"],
                      "computed_working_set": record["computed_working_set"]}))
    print_metrics(wl.name, metrics)
    if args.trace == 0:
        print_metrics(wl.name, info, note="(ungated)")
    if l2:
        print(f"{wl.name:<32} {'l2_depth_error':<58} {max(l2):>14.6g} "
              f"(threshold {harness.L2_DEPTH_ERROR_MAX:g})")
    print(f"{wl.name:<32} {'failed_frac':<58} {record['failed_frac']:>14.6g} "
          f"({checks.failed}/{checks.attempted} checks; {checks.failures or 'none failed'})")
    print(result_line(checks.failed == 0, checks.attempted, checks.failed, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process (so peak RSS is per workload)."""
    from workloads import WORKLOADS

    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[1:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            metrics[f"{name}.{metric}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # pin the BLAS/OpenMP pools before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "nhswe" / "__init__.py").is_file():
        print(f"error: no nhswe sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

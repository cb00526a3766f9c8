"""entrobound benchmark: one workload, closed loop, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  The runner generates the workload's inputs from the seed,
times ``import entrobound.cli`` in several fresh interpreters (set-up time),
then runs the ops in a fresh child interpreter of their own (child.py) so
that peak memory belongs to the workload.  It prints every metric by name
with its unit, the environment, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The full record of each run is also written to
``.bench_work/results/``.  Exit status is 1 when a run cannot be completed
and 2 when the checkout holds no package source; neither prints a result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# One import varies by a fifth between interpreters, and the host's speed
# drifts in phases of ~10 s: half the samples are taken before the ops and
# half after, so that their median spans the run.
SETUP_SAMPLES = 10
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import entrobound.cli; "
    "print(time.perf_counter() - t)"
)
# Every child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150

# Unit of every reported metric.
UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "rows_per_s": "rows/s",
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MiB",
    "cli.ingest.busy_s": "s",
    "cli.ingest.calls": "count",
    "cli.main.self_s": "s",
    "cli.pool.utilization": "ratio",
    "densities.sample.busy_s": "s",
    "densities.sample.calls": "count",
    "densities.sample.rows": "count",
    "histogram.build_histogram.busy_s": "s",
    "histogram.build_histogram.calls": "count",
    "histogram.build_histogram.bytes_in": "B_computed",
    "histogram.occupied_bins": "count",
    "histogram.plugin_entropy.busy_s": "s",
    "bounds.optimize_M.busy_s": "s",
    "bounds.optimize_M.calls": "count",
    "bounds.total_bound.calls": "count",
    "estimators.estimate_entropy_certified.self_s": "s",
    "estimators.estimate_entropy_certified.calls": "count",
    "estimators.estimate_mi_certified.self_s": "s",
    "estimators.demo.self_s": "s",
    "trace.overhead_frac": "ratio",
}
END_TO_END = ("setup_s", "op_p50_s", "rows_per_s", "trials_per_s", "peak_rss_mb")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)
# Layer whose share of the traced op wall a workload was chosen for.
CHOSEN_LAYER = {
    "estimate-csv": "cli.ingest.busy_s",
    "mi-estimate-f64le": "histogram.build_histogram.busy_s",
    "demos": "bounds.optimize_M.busy_s",
}


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


class NoSourceError(BenchError):
    """The checkout holds no package source to benchmark."""


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["ENTROBOUND_THREADS"] = str(threads)
    return env


def time_imports(env: dict, count: int) -> list[float]:
    """Import time of entrobound.cli in each of count fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import entrobound.cli failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples


def run_child(args, workdir: Path, env: dict) -> dict:
    result_path = workdir / "child-result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result_path), "--scale", str(args.scale)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload child did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload child exited with status {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail_percentile(walls: list[float]) -> dict | None:
    """Highest of p50/p90/p99/p99.9 with at least ten ops beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = {"p": p, "value_s": ordered[math.ceil(p / 100.0 * n) - 1]}
    return best


def end_to_end(workload, setup: list[float], child: dict) -> dict:
    walls = child["op_walls_s"]
    busy = sum(walls)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "rows_per_s": workload.rows_per_op * len(walls) / busy,
        "trials_per_s": workload.trials_per_op * len(walls) / busy,
        "peak_rss_mb": child["peak_rss_kib"] / 1024.0,
    }


def per_layer(workload, child: dict) -> tuple[dict, list[str]]:
    """Per-op means over the traced ops, and the layers that reported no calls."""
    ops = child["traced_ops"]
    mean = {key: sum(op.get(key, 0.0) for op in ops) / len(ops)
            for key in set().union(*ops)}
    pool_capacity = sum(op.get("cli.main.busy_s", 0.0) * op.get("cli.pool.threads", 0.0)
                        for op in ops)
    trial_busy = sum(op.get("cli.pool.trial.busy_s", 0.0) for op in ops)
    metrics = {name: mean.get(name, 0.0) for name in PER_LAYER}
    metrics["cli.pool.utilization"] = trial_busy / pool_capacity if pool_capacity else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(child["traced_op_walls_s"]) / statistics.median(child["op_walls_s"])
        - 1.0
    )
    silent = [layer for layer in workload.layers if mean.get(f"{layer}.calls", 0.0) == 0.0]
    return metrics, silent


def environment(args, threads: int, workload) -> dict:
    return {
        "nproc": threads,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entrobound_threads": threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "inputs": workload.inputs,
        "rows_per_op": workload.rows_per_op,
        "trials_per_op": workload.trials_per_op,
        "mode": "closed loop, 1 client",
    }


def run(args) -> dict:
    if not (SRC_DIR / "entrobound" / "cli.py").is_file():
        raise NoSourceError(f"no package source at {SRC_DIR / 'entrobound'}")
    threads = len(os.sched_getaffinity(0))
    env = _child_env(threads)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.scale)
        workload.generate()
        setup = []
        if not args.trace:
            time_imports(env, 1)  # also compiles the bytecode cache; not counted
            setup = time_imports(env, SETUP_SAMPLES // 2)
        child = run_child(args, workdir, env)
        if not args.trace:
            setup += time_imports(env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args, threads, workload),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_ops_frac": child["failed"] / child["attempted"],
        "failures": child["failures"],
        "digests": child["digests"],
        "op_count": len(child["op_walls_s"]),
        "op_walls_s": child["op_walls_s"],
        "tail_percentile": tail_percentile(child["op_walls_s"]),
    }
    correct = child["failed"] == 0
    if args.trace:
        record["metrics"], silent = per_layer(workload, child)
        record["silent_layers"] = silent
        record["traced_op_count"] = len(child["traced_op_walls_s"])
        correct = correct and not silent
        chosen = CHOSEN_LAYER.get(args.workload)
        if chosen:
            traced_wall = statistics.mean(child["traced_op_walls_s"])
            record["chosen_layer_share"] = {chosen: record["metrics"][chosen] / traced_wall}
    else:
        record["setup_samples_s"] = setup
        record["metrics"] = end_to_end(workload, setup, child)
    record["correct"] = correct
    return record


def report(record: dict) -> None:
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    tail = record["tail_percentile"]
    tail_text = f"p{tail['p']:g} = {tail['value_s']:.6f} s" if tail else "none with 10 ops beyond"
    traced = f", {record['traced_op_count']} traced" if "traced_op_count" in record else ""
    print(f"ops {record['op_count']} timed{traced} (closed loop, 1 client); "
          f"tail percentile: {tail_text}")
    for name, value in record["metrics"].items():
        print(f"metric {name} = {value:.6g} {UNITS[name]}")
    print(f"metric failed_ops_frac = {record['failed_ops_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    for name, share in record.get("chosen_layer_share", {}).items():
        print(f"attribution {name} = {share:.1%} of the traced op wall")
    for layer in record.get("silent_layers", []):
        print(f"FAILED: layer {layer} reported zero calls on a workload that uses it")
    for message in record["failures"]:
        print(f"FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", dest="scale", action="store_const",
                        const=workloads.SHORT_SCALE, default=1,
                        help=f"inputs {workloads.SHORT_SCALE}x smaller (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before it is checked (self-test)")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NoSourceError) else 1
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record)
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

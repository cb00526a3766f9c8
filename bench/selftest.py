"""Self-test of the benchmark runner, on every workload in short mode.

    python3 bench/selftest.py

Checks that
  * every metric BENCHMARK.json names is emitted, by name and with its unit,
    both in the printed report and in the final JSON line;
  * count metrics repeat exactly across two traced runs at one seed;
  * a deliberately corrupted output is counted in failed_ops_frac.
Exits 0 when all checks hold, 1 otherwise.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys

import run
import workloads

COUNT_METRICS = ("bounds.total_bound.calls", "histogram.occupied_bins")


def bench(workload: str, *flags: str) -> tuple[dict, dict]:
    """Run run.py in short mode; returns the final JSON and the printed metrics."""
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--short", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        match = re.fullmatch(r"metric (\S+) = (\S+) (\S+)(?: \(.*\))?", line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    return json.loads(lines[-1]), printed


def check_units(result: dict, printed: dict, declared: dict, where: str) -> list[str]:
    errors = []
    if set(result["metrics"]) != set(declared):
        errors.append(f"{where}: metrics {sorted(result['metrics'])} != declared {sorted(declared)}")
    for name, unit in declared.items():
        got = result["metrics"].get(name, {}).get("unit")
        if got != unit:
            errors.append(f"{where}: {name} has unit {got!r} in the JSON line, declared {unit!r}")
        if printed.get(name, (None, None))[1] != unit:
            errors.append(f"{where}: {name} not printed with unit {unit!r}")
    if "failed_ops_frac" not in printed:
        errors.append(f"{where}: failed_ops_frac not printed")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")

    for name in workloads.WORKLOADS:
        result, printed = bench(name, "--trace", "0")
        errors += check_units(result, printed, end_to_end, f"{name} --trace 0")
        if not result["correct"] or result["failed"]:
            errors.append(f"{name}: a clean run reported failures")

        traced = [bench(name, "--trace", "1") for _ in range(2)]
        errors += check_units(*traced[0], per_layer, f"{name} --trace 1")
        counts = [n for n in per_layer if n.endswith(".calls") or n in COUNT_METRICS]
        for metric in counts:
            a, b = (t[0]["metrics"][metric]["value"] for t in traced)
            if a != b:
                errors.append(f"{name}: {metric} differs across traced runs: {a} vs {b}")

        result, printed = bench(name, "--trace", "0", "--corrupt")
        frac = printed.get("failed_ops_frac", (0.0, ""))[0]
        if result["correct"] or result["failed"] != result["attempted"] or frac != 1.0:
            errors.append(f"{name}: corrupted outputs not counted as failures "
                          f"(failed {result['failed']} of {result['attempted']}, "
                          f"failed_ops_frac {frac})")
        print(f"{name}: checked", flush=True)

    for error in errors:
        print(f"FAILED: {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: input generation, CLI argv and output checks.

BENCHMARK.json gates mi-estimate-f64le and coverage, which between them
reach every layer (cli, densities, histogram, bounds, estimators).
estimate-csv (~90 % CSV ingest) and demos (~85 % bound search) run the same
way and are checked by the self-test, but are not gated: on a shared 2-vCPU
host their run-to-run spread exceeded the largest bound a benchmark may set.

Each workload is a closed loop of one client: an op is one or more CLI
commands run back to back through ``entrobound.cli.main``.  Inputs are
generated here from the workload seed, with numpy alone, before the timed
child starts, so generation never counts toward the program's time or memory
and a change to the package's samplers cannot change the ingested data.

The output checks restate the paper's invariants independently of the
package: the tent entropy and the validity threshold are recomputed here,
not imported.
"""
from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Output digests in digests.json were recorded at this seed, full scale.
DEFAULT_SEED = 0

# Inputs shrink by this factor in the self-test's short mode.
SHORT_SCALE = 10


def tent_entropy(K: int) -> float:
    """Exact entropy of the product tent density on [0,1]^K, in nats."""
    return K * (0.5 - math.log(2.0))


def tent_lipschitz(K: int) -> float:
    """l1 Lipschitz constant 2^(K+1) of the product tent density."""
    return float(2 ** (K + 1))


def min_valid_m(K: int, L: float) -> int:
    """Validity threshold ceil(1 / (alpha * eta(K, L))) of the bound."""
    e = math.e
    alpha = (math.sqrt(e * e + 4.0) - e) / (2.0 * e)
    eta = (2.0 * math.factorial(K + 1) / L) ** (1.0 / (K + 1)) / K
    return max(1, math.ceil(1.0 / (alpha * eta)))


def tent_points(seed: int, stream: int, n: int, K: int) -> np.ndarray:
    """n draws from the product tent on [0,1]^K by inverse CDF."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    u = np.random.Generator(np.random.Philox(ss)).random((n, K))
    return np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an op and the check of its output CSV."""

    name: str
    argv: list[str]
    check: Callable[[list[dict], str], list[str]]


@dataclass
class Workload:
    """Sizes and commands of one workload at one seed and scale."""

    commands: list[Command]
    rows_per_op: int
    trials_per_op: int
    inputs: dict = field(default_factory=dict)
    # Writes the input files; the runner calls it before the timed child.
    generate: Callable[[], None] = lambda: None
    # Layers every op of this workload calls; zero calls fails a traced run.
    layers: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages, empty when the
# output is correct.  ``rows`` is the parsed CSV, ``stdout`` the summary line.
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _floats(row: dict, *names: str) -> list[float]:
    return [float(row[n]) for n in names]


def _check_certificate(row: dict, truth: float) -> list[str]:
    est, total, quant, stat, emp = _floats(
        row, "estimate", "total_bound", "quant_bias", "stat_dev", "emp_bias"
    )
    errors = []
    if not all(math.isfinite(v) for v in (est, total, quant, stat, emp)):
        errors.append(f"non-finite value in {row}")
    if not _close(total, quant + stat + emp):
        errors.append(f"total_bound {total!r} != quant + stat + emp {quant + stat + emp!r}")
    if not abs(est - truth) <= total:
        errors.append(f"|estimate - truth| = {abs(est - truth)!r} exceeds bound {total!r}")
    return errors


def check_estimate(K: int, L: float, n: int) -> Callable:
    def check(rows: list[dict], stdout: str) -> list[str]:
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        row = rows[0]
        errors = _check_certificate(row, tent_entropy(K))
        if int(row["M"]) < min_valid_m(K, L):
            errors.append(f"M={row['M']} below validity threshold {min_valid_m(K, L)}")
        if int(row["N"]) != n:
            errors.append(f"N={row['N']}, expected {n}")
        return errors

    return check


def check_mi_estimate(k1: int, k2: int, L: float, n: int) -> Callable:
    def check(rows: list[dict], stdout: str) -> list[str]:
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        row = rows[0]
        # Independent tent coordinates: the true mutual information is 0.
        errors = _check_certificate(row, 0.0)
        for col, K in (("m_x", k1), ("m_y", k2), ("m_xy", k1 + k2)):
            if int(row[col]) < min_valid_m(K, L):
                errors.append(f"{col}={row[col]} below validity threshold {min_valid_m(K, L)}")
        if int(row["N"]) != n:
            errors.append(f"N={row['N']}, expected {n}")
        return errors

    return check


def check_coverage(K: int, L: float, trials: int, delta: float) -> Callable:
    truth = tent_entropy(K)

    def check(rows: list[dict], stdout: str) -> list[str]:
        trial_rows = [r for r in rows if r["row"] == "trial"]
        summary = [r for r in rows if r["row"] == "summary"]
        if len(trial_rows) != trials or len(summary) != 1:
            return [f"expected {trials} trial rows and 1 summary, got {len(rows)} rows"]
        errors = []
        covered = 0
        for r in trial_rows:
            est, row_truth, abs_err, bound = _floats(r, "estimate", "truth", "abs_err", "bound_total")
            if not _close(row_truth, truth):
                errors.append(f"trial {r['trial']}: truth {row_truth!r} != {truth!r}")
            if not _close(abs_err, abs(est - truth)):
                errors.append(f"trial {r['trial']}: abs_err {abs_err!r} != |estimate - truth|")
            if int(r["covered"]) != int(abs_err <= bound):
                errors.append(f"trial {r['trial']}: covered flag disagrees with abs_err <= bound")
            covered += int(r["covered"])
        coverage = float(summary[0]["coverage"])
        if not _close(coverage, covered / trials):
            errors.append(f"coverage {coverage!r} != {covered}/{trials}")
        if coverage < 1.0 - delta:
            errors.append(f"coverage {coverage!r} below 1 - delta = {1.0 - delta!r}")
        match = re.search(r"\bM=(\d+)", stdout)
        if match is None:
            errors.append(f"no M= in summary line {stdout!r}")
        elif int(match.group(1)) < min_valid_m(K, L):
            errors.append(f"M={match.group(1)} below validity threshold {min_valid_m(K, L)}")
        return errors

    return check


def check_demo(trials: int) -> Callable:
    def check(rows: list[dict], stdout: str) -> list[str]:
        if len(rows) != 1:
            return [f"expected 1 row, got {len(rows)}"]
        row = rows[0]
        errors = []
        if int(row["trials"]) != trials:
            errors.append(f"trials={row['trials']}, expected {trials}")
        for col in ("failure_fraction", "below_threshold_fraction"):
            if not 0.0 <= float(row[col]) <= 1.0:
                errors.append(f"{col}={row[col]} outside [0, 1]")
        if not math.isfinite(float(row["true_value"])):
            errors.append(f"true_value={row['true_value']} is not finite")
        return errors

    return check


def check_output(command: Command, code: int, out_path: Path, stdout: str) -> list[str]:
    """Every failure of one command: exit status, CSV parse, invariants."""
    if code != 0:
        return [f"{command.name}: exit status {code}: {stdout.strip()[-500:]}"]
    try:
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return [f"{command.name}: {msg}" for msg in command.check(rows, stdout)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command.name}: unparseable output: {exc!r}"]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _estimate_csv(seed: int, workdir: Path, scale: int) -> Workload:
    K, n, delta = 2, 250_000 // scale, 0.05
    L = tent_lipschitz(K)
    path = workdir / "tent2.csv"

    def generate() -> None:
        np.savetxt(path, tent_points(seed, 0, n, K), fmt="%.17g", delimiter=",",
                   header="x1,x2", comments="")

    argv = ["estimate", "--input", str(path), "--k", str(K), "--l", f"{L:g}",
            "--delta", str(delta), "--seed", str(seed)]
    return Workload(
        commands=[Command("estimate", argv, check_estimate(K, L, n))],
        rows_per_op=n,
        trials_per_op=1,
        inputs={"estimate": {"file": path.name, "format": "csv", "rows": n, "cols": K}},
        generate=generate,
        layers=("cli.ingest", "estimators.estimate_entropy_certified", "bounds.optimize_M",
                "bounds.total_bound", "histogram.build_histogram", "histogram.plugin_entropy"),
    )


def _mi_estimate_f64le(seed: int, workdir: Path, scale: int) -> Workload:
    k1, k2, n, delta = 1, 2, 1_000_000 // scale, 0.05
    L = tent_lipschitz(k1 + k2)
    path = workdir / "tent3.f64le"

    def generate() -> None:
        tent_points(seed, 1, n, k1 + k2).astype("<f8").tofile(path)

    argv = ["mi-estimate", "--input", str(path), "--format", "f64le", "--k1", str(k1),
            "--k2", str(k2), "--l", f"{L:g}", "--delta", str(delta), "--seed", str(seed)]
    return Workload(
        commands=[Command("mi-estimate", argv, check_mi_estimate(k1, k2, L, n))],
        rows_per_op=n,
        trials_per_op=1,
        inputs={"mi-estimate": {"file": path.name, "format": "f64le", "rows": n, "cols": k1 + k2}},
        generate=generate,
        layers=("cli.ingest", "estimators.estimate_mi_certified",
                "estimators.estimate_entropy_certified", "bounds.optimize_M",
                "bounds.total_bound", "histogram.build_histogram", "histogram.plugin_entropy"),
    )


def _demos(seed: int, workdir: Path, scale: int) -> Workload:
    n, c, delta = 100, 1.0, 0.1
    # The demos refuse fewer than 10 trials.
    plan = [(name, max(10, trials // scale))
            for name, trials in (("prop1-demo", 200), ("mi-demo", 50), ("kl-demo", 200))]
    commands = [
        Command(name, [name, "--trials", str(trials), "--n", str(n), "--c", f"{c:g}",
                       "--delta", str(delta), "--seed", str(seed)], check_demo(trials))
        for name, trials in plan
    ]
    # Sample rows the victims see per trial, pilot and attack phase together:
    # prop1 N, mi N (two columns), kl N p-rows plus N q-rows.
    rows_per_trial = {"prop1-demo": 2 * n, "mi-demo": 2 * n, "kl-demo": 4 * n}
    return Workload(
        commands=commands,
        rows_per_op=sum(rows_per_trial[name] * trials for name, trials in plan),
        trials_per_op=sum(trials for _, trials in plan),
        inputs={name: {"n": n, "trials": trials} for name, trials in plan},
        layers=("estimators.demo", "densities.sample", "bounds.optimize_M", "bounds.total_bound",
                "histogram.build_histogram", "histogram.plugin_entropy",
                "estimators.estimate_entropy_certified", "estimators.estimate_mi_certified"),
    )


def _coverage(seed: int, workdir: Path, scale: int) -> Workload:
    K, n, trials, delta = 2, 100_000 // scale, 40 // scale, 0.1
    L = tent_lipschitz(K)
    argv = ["coverage", "--density", "tent", "--k", str(K), "--l", f"{L:g}", "--n", str(n),
            "--delta", str(delta), "--trials", str(trials), "--seed", str(seed)]
    return Workload(
        commands=[Command("coverage", argv, check_coverage(K, L, trials, delta))],
        rows_per_op=n * trials,
        trials_per_op=trials,
        inputs={"coverage": {"density": "tent", "k": K, "n": n, "trials": trials}},
        layers=("cli.pool", "densities.sample", "estimators.estimate_entropy_certified",
                "bounds.optimize_M", "bounds.total_bound", "histogram.build_histogram",
                "histogram.plugin_entropy"),
    )


WORKLOADS = {
    "estimate-csv": _estimate_csv,
    "mi-estimate-f64le": _mi_estimate_f64le,
    "demos": _demos,
    "coverage": _coverage,
}


def build(name: str, seed: int, workdir: Path, scale: int = 1) -> Workload:
    """The workload at this seed, its input files placed under workdir."""
    return WORKLOADS[name](seed, workdir, scale)

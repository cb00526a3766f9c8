"""One workload's ops in a closed loop, in a fresh interpreter of its own.

One client calls ``entrobound.cli.main(argv)`` and starts the next op only
after the previous one returned, with stdout and stderr captured.  The first
op is an untimed warm-up.  Every op's outputs are checked after its timer
stops; an op fails on a nonzero exit, an exception, or a failed check.

In a traced run, untraced and traced ops alternate, so the difference
between their medians is the tracing overhead; per-layer numbers come from
the traced ops only.

Run by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --workdir DIR --result FILE [--scale K] [--corrupt]
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# Failure messages kept in the result, beyond which only the count grows.
MAX_MESSAGES = 20


class OpLoop:
    """Runs ops of one workload and accumulates their checks."""

    def __init__(self, workload, workdir: Path, main, expected_digests: dict | None,
                 corrupt: bool) -> None:
        self.workload = workload
        self.workdir = workdir
        self.main = main
        self.expected = expected_digests
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_digests: dict[str, str] | None = None

    def run(self, main=None) -> float:
        """One op; returns its wall time in seconds."""
        main = main or self.main
        outputs = [self.workdir / f"{cmd.name}.csv" for cmd in self.workload.commands]
        for path in outputs:
            path.unlink(missing_ok=True)
        results = []
        start = time.perf_counter()
        for cmd, path in zip(self.workload.commands, outputs):
            buf = io.StringIO()
            try:
                with redirect_stdout(buf), redirect_stderr(buf):
                    code = main(cmd.argv + ["--out", str(path)])
            except Exception:  # a crash of the program is a failed op, not a failed run
                code = f"exception\n{traceback.format_exc()}"
            results.append((cmd, path, code, buf.getvalue()))
        wall = time.perf_counter() - start
        self._check(results)
        return wall

    def _check(self, results) -> None:
        errors = []
        digests = {}
        for cmd, path, code, out in results:
            if self.corrupt and path.exists():
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                path.write_text("".join(lines[:-1]), encoding="utf-8")
            errors += workloads.check_output(cmd, code, path, out)
            if code == 0 and path.exists():
                digests[cmd.name] = workloads.digest(path)
        if not errors:
            if self.first_digests is None:
                self.first_digests = digests
            if digests != self.first_digests:
                errors.append("outputs differ from the first op's at the same seed")
            if self.expected is not None and digests != self.expected:
                errors.append(f"output digests {digests} differ from the recorded {self.expected}")
        self.attempted += 1
        if errors:
            self.failed += 1
            room = MAX_MESSAGES - len(self.messages)
            self.messages += [f"op {self.attempted}: {e}" for e in errors[:room]]


def _modules() -> dict:
    from entrobound import bounds, cli, densities, estimators, histogram

    return {"cli": cli, "densities": densities, "histogram": histogram,
            "bounds": bounds, "estimators": estimators}


def measure(workload, workdir: Path, seconds: float, trace: bool,
            expected_digests: dict | None = None, corrupt: bool = False) -> dict:
    modules = _modules()
    cli = modules["cli"]
    loop = OpLoop(workload, workdir, cli.main, expected_digests, corrupt)
    loop.run()  # warm-up
    walls, traced_walls, recorders = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        walls.append(loop.run())
        if trace:
            rec = spans.Recorder(modules)
            rec.install()
            try:
                traced_walls.append(loop.run(rec.timed("cli.main", cli.main)))
            finally:
                rec.uninstall()
            recorders.append(rec)
        # Stop when the next op would end nearer after the deadline than before.
        now = time.perf_counter()
        if now + (now - start) / len(walls) / 2 >= deadline:
            break
    result = {
        "op_walls_s": walls,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.messages,
        "digests": loop.first_digests,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["traced_op_walls_s"] = traced_walls
        result["traced_ops"] = [rec.totals() for rec in recorders]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--corrupt", action="store_true",
                        help="drop the last line of every output before checking it (self-test)")
    args = parser.parse_args(argv)

    import entrobound

    if not Path(entrobound.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"entrobound imported from {entrobound.__file__}, not from {SRC_DIR}",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.workdir, args.scale)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and args.scale == 1:
        recorded = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
        expected = recorded[args.workload]
    result = measure(workload, args.workdir, args.seconds, bool(args.trace), expected, args.corrupt)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the SHA-256 of every output CSV at the default seed in digests.json.

    python3 bench/record_digests.py

Run only when a change is meant to alter the outputs; the benchmark fails
every op at the default seed whose outputs differ from the recorded digests.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC_DIR))
os.environ["ENTROBOUND_THREADS"] = str(len(os.sched_getaffinity(0)))

import child  # noqa: E402  (imports entrobound from the checkout's src)


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        workdir = run.WORK_DIR / f"digests-{name}"
        workdir.mkdir(parents=True)
        try:
            workload = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            workload.generate()
            result = child.measure(workload, workdir, seconds=0.0, trace=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result["failed"]:
            print(f"{name}: outputs fail their checks: {result['failures']}", file=sys.stderr)
            return 1
        digests[name] = result["digests"]
    path = run.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

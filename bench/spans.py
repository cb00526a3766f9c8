"""Outside-in tracing for the traced run: spans around the package's layers.

``from module import name`` copies a binding, so a function is wrapped at
every module where its callers look it up, and the original binding is put
back afterwards.  Each timed call records a span (name, start, end, parent
span, thread id); spans stay in memory until the run ends.  The scalar bound
``total_bound`` is called ~10^5 times per op, so it is counted, not timed.

A layer's self time is its span's duration minus the durations of its child
spans, which by construction ran on the same thread.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


def _rows_in(args, kwargs, points) -> dict:
    return {"rows": len(points)}


def _histogram_sizes(args, kwargs, hist) -> dict:
    return {"bytes_in": 8 * hist.N * hist.K, "occupied_bins": len(hist.counts)}


# (span name, function name, modules whose binding callers look up, amounts
# measured from (args, kwargs, result)).
TIMED = (
    ("cli.ingest", "ingest", ("cli",), None),
    ("densities.sample", "sample", ("densities", "estimators", "cli"), _rows_in),
    ("histogram.build_histogram", "build_histogram", ("histogram",), _histogram_sizes),
    ("histogram.plugin_entropy", "plugin_entropy", ("histogram",), None),
    ("bounds.optimize_M", "optimize_M", ("bounds", "estimators", "cli"), None),
    ("estimators.estimate_entropy_certified", "estimate_entropy_certified",
     ("estimators", "cli"), None),
    ("estimators.estimate_mi_certified", "estimate_mi_certified", ("estimators", "cli"), None),
    ("estimators.demo", "prop1_demo", ("estimators", "cli"), None),
    ("estimators.demo", "mi_adversary_demo", ("estimators", "cli"), None),
    ("estimators.demo", "kl_demo", ("estimators", "cli"), None),
)
COUNTED = (("bounds.total_bound", "total_bound", ("bounds", "estimators", "cli")),)
# The worker pool: cli._map_ordered(fn, count, threads).
POOL = ("_map_ordered", ("cli",))


class Recorder:
    """In-memory span store; install() wraps the layers, uninstall() restores."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, extra)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, measure=None):
        """fn wrapped in a span; measure(args, kwargs, result) adds amounts."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, kwargs, result) if measure and result is not None else None
                self.spans.append((span_id, name, start, end, parent, threading.get_ident(), extra))

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self._count_lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pooled(self, fn):
        """The worker pool: a span for the map, one per trial, and the width."""
        timed_map = self.timed("cli.pool", fn, lambda a, kw, r: {"threads": a[2]})

        def wrapper(trial_fn, count, threads):
            return timed_map(self.timed("cli.pool.trial", trial_fn), count, threads)

        return wrapper

    def _patch(self, attr: str, sites, wrap) -> None:
        for site in sites:
            module = self.modules[site]
            original = getattr(module, attr, None)
            if original is not None:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(original))

    def install(self) -> None:
        for name, attr, sites, measure in TIMED:
            self._patch(attr, sites, lambda f, n=name, m=measure: self.timed(n, f, m))
        for name, attr, sites in COUNTED:
            self._patch(attr, sites, lambda f, n=name: self.counted(n, f))
        self._patch(*POOL, self.pooled)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, float]:
        """Per-layer sums: calls, busy_s, self_s and measured amounts."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _, extra in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[span_id]
            for key, value in (extra or {}).items():
                if key == "threads":
                    out["cli.pool.threads"] = max(out["cli.pool.threads"], value)
                elif key == "occupied_bins":
                    out["histogram.occupied_bins"] += value
                else:
                    out[f"{name}.{key}"] += value
        for name, count in self.counts.items():
            out[f"{name}.calls"] += count
        return dict(out)

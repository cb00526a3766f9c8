"""Command-line front end: bounds, estimates, coverage runs, demos, lemma checks.

Every command writes a deterministic CSV (17-significant-digit floats, comma
separated, LF line endings) plus a ``<out>.meta`` sidecar recording the
options the command accepts, library version, and wall-clock time; only the
sidecar carries timing, so repeated runs with the same config are
byte-identical.  Both files are renamed into place together, so a failed
write changes neither.  Only the commands that draw take ``--seed``:
``bound`` and ``optimize-m`` do not.  ``estimate`` and ``mi-estimate`` read
their sample from ``--input`` or draw ``--n`` rows from ``--density``, never
both, so ``--n`` next to ``--input`` is refused too.  ``verify-lemmas``
integrates to a tolerance that its ``--k`` sets (1e-6 at K = 1, else 1e-5).
A demo's ``--estimator`` must name a program.  Exit status is 0 on success,
2 when the requested parameters violate a precondition (e.g. a bin count
below the validity threshold), and 1 on I/O, data-format or out-of-memory
errors.  Errors print one machine-parsable line to standard error:
``error: <kind>: <detail>``.  Usage errors (an unknown command or option, a
missing command, a value of the wrong type or none) and numbers beyond float
range are exit 2 with one ``error: invalid:`` line.  Standard output that
cannot be written (a closed pipe, a full disk) is exit 1 with one
``error: io:`` line, and an interrupt (SIGINT) is exit 130 with the line
``error: interrupted``.

Configs can be stored as flat ``key = value`` files mirroring the flags
(``--config FILE`` or ``--config=FILE``); each line is read as the flag
``--key=value``, and explicit command-line flags override file values.  A
file may also name the command (``command = bound``); the command line may
then start with flags (``--config exp.cfg --n 2000``).
The ``coverage`` trials, and ``mi-estimate``'s three entropy terms on more
than 2^18 rows, run on the process's one worker pool of ENTROBOUND_THREADS
threads, else of the CPUs this process may run on (at most 32).  Histograms
are always built serially, so the pool never nests.  Output is the same
for any thread count.
``estimate --density`` and each ``coverage`` trial hand the estimator a
``LazySample``, which is drawn block by block as it is binned, so neither
holds an N-row sample; ``mi-estimate --density`` still draws its columns
whole.  An ``--input`` f64le file is mapped, not copied (see ``ingest``),
and ``estimate`` and ``mi-estimate`` scan it for non-finite values only
when the estimate fails: binning rejects NaN and infinities in every column,
so the error a non-finite value gives is the same.
A command imports only what it runs: ``verify-lemmas`` imports the
quadrature oracle when it starts, ``kl-demo`` through ``estimators.kl_demo``,
and ``shlex`` is imported only to split an ``--estimator``; so ``estimate``,
``mi-estimate`` and ``coverage`` load neither.
"""
from __future__ import annotations

import argparse
import math
import csv as _csv
import os
import stat
import sys
import time
from array import array
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import as_int, optimize_M
from .densities import LazySample, sample, tent_density, uniform_density
from .errors import EntroboundError, IngestError, OutOfSupportError, ValidityError
from .estimators import (
    ExternalEstimator,
    _default_threads,
    _map_ordered,
    _plan,
    estimate_entropy_certified,
    estimate_mi_certified,
    kl_demo,
    mi_adversary_demo,
    prop1_demo,
)
from .rng import generator, split

__all__ = ["run", "main", "ingest"]

_DENSITIES = {"tent": tent_density, "uniform": uniform_density}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# option -> (parser of its value, default, help text); used for flags, config
# files and the defaults of every command's record.  None means unset.
_OPTIONS = {
    "density": (str, None, "built-in density name (tent, uniform)"),
    "input": (str, None, "sample file to ingest instead of sampling a density"),
    "format": (str, "csv", "input format: csv or f64le"),
    "k": (int, 1, "dimension"),
    "k1": (int, 1, "dimension of x"),
    "k2": (int, 1, "dimension of y"),
    "l": (float, None, "Lipschitz constant (l1 norm)"),
    "m": (int, None, "bins per axis"),
    "n": (int, None, "sample count"),
    "delta": (float, None, "failure probability"),
    "c": (float, None, "target accuracy for demos"),
    "trials": (int, None, "number of seeded trials"),
    "seed": (int, 0, "master seed"),
    "out": (str, None, "output CSV path"),
    "m_list": (str, "8,16,32", "comma-separated bin counts"),
    "estimator": (str, None, "external estimator command"),
}


def _config_text(config: argparse.Namespace, names) -> str:
    values = ((name, getattr(config, name)) for name in names)
    return "".join(f"{name} = {_fmt(value)}\n" for name, value in values if value is not None)


def parse_config_text(text: str) -> dict:
    """The file's ``key = value`` pairs, each value the text as written.

    Values stay strings: ``_merge_config_file`` hands them to argparse, which
    types them exactly as it types the same option on the command line.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key != "command" and key not in _OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = raw.strip()
    return out


# ---------------------------------------------------------------------------
# Data ingestion and emission
# ---------------------------------------------------------------------------


def ingest(path, format: str = "csv", k: int | None = None, *,
           check_finite: bool = True) -> np.ndarray:
    """Load sample points from a CSV or little-endian float64 binary file.

    CSV: one point per line, comma-separated decimal fields; a header line is
    detected by a non-numeric first token.  Non-finite values are rejected
    as each line is parsed.  f64le: packed little-endian 8-byte floats,
    row-major, k per row (k required).  A regular f64le file of nonzero size
    is mapped copy-on-write, not copied: the array is writable and its writes
    stay in this process.  The file must not be truncated or rewritten while
    the array is in use: truncation raises SIGBUS on the next read of a lost
    page, and a rewrite can show later reads different data.  A pipe or
    device, which has no size until it has been read, and an empty file are
    read into memory.  The whole f64le array is then scanned for non-finite
    values, unless ``check_finite`` is false; a caller that skips the scan
    runs ``_reject_non_finite`` itself before it trusts the values.
    """
    path = Path(path)
    if k is not None:
        k = as_int("k", k)
    if format == "csv":
        flat = array("d")  # every row's doubles, one buffer: no per-row list is kept
        width = k
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if lineno == 1:
                    try:
                        float(parts[0])
                    except ValueError:
                        continue  # header line
                try:
                    values = [float(tok) for tok in parts]
                except ValueError as exc:
                    raise IngestError(f"{path}: line {lineno}: {exc}") from None
                if width is None:
                    width = len(values)
                if len(values) != width:
                    raise IngestError(
                        f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
                    )
                if not all(math.isfinite(v) for v in values):
                    raise IngestError(f"{path}: line {lineno}: non-finite value")
                flat.extend(values)
        if not flat:
            raise IngestError(f"{path}: no data rows")
        return np.frombuffer(flat, dtype=np.float64).reshape(-1, width)
    if format == "f64le":
        if k is None:
            raise ValueError("f64le ingestion requires the point dimension k")
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            # mmap refuses length 0, and a pipe or device has no size yet.
            mapped = stat.S_ISREG(info.st_mode) and info.st_size > 0
            raw = None if mapped else bytearray(fh.read())
            size = info.st_size if mapped else len(raw)
            if size % (8 * k) != 0:
                raise IngestError(
                    f"{path}: byte length {size} is not a multiple of 8*k={8 * k}"
                )
            if mapped:
                import mmap

                raw = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_COPY)
        arr = np.frombuffer(raw, dtype="<f8").reshape(-1, k)
        if check_finite:
            _reject_non_finite(arr, path)
        if arr.shape[0] == 0:
            raise IngestError(f"{path}: no data rows")
        return arr
    raise ValueError(f"unknown format {format!r} (expected csv or f64le)")


def _reject_non_finite(arr: np.ndarray, path) -> None:
    """Raise ingest's error naming the first row of arr with a NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        offset = int(np.argmax(~np.isfinite(arr).all(axis=1)))
        raise IngestError(f"{path}: non-finite value at row {offset}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])


def _write_meta(path, config: argparse.Namespace, wall_time: float) -> None:
    meta = _config_text(config, ("command",) + _COMMANDS[config.command][2])
    meta += f"version = {__version__}\nwall_time_s = {wall_time:.6f}\n"
    Path(path).write_text(meta, encoding="utf-8")


def _write_outputs(config: argparse.Namespace, columns, rows, started: float) -> None:
    """Write ``--out`` and its .meta sidecar, both or neither.

    Each goes to ``<path>.tmp`` first and is renamed into place only after
    both writes succeed; on any error the temporaries are removed.
    """
    paths = (config.out, config.out + ".meta")
    temps = tuple(path + ".tmp" for path in paths)
    try:
        _write_csv(temps[0], columns, rows)
        _write_meta(temps[1], config, time.monotonic() - started)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            if os.path.lexists(temp):
                os.remove(temp)
        raise


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _require(config: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"{config.command}: missing required option --{name}")


def _load_density(config: argparse.Namespace, option: str):
    """The --density model in the dimension that option (k, k1 or k2) gives."""
    if config.density is None:
        raise ValueError(f"{config.command}: requires --density")
    try:
        factory = _DENSITIES[config.density]
    except KeyError:
        raise ValueError(
            f"unknown density {config.density!r} (available: {sorted(_DENSITIES)})"
        ) from None
    try:
        return factory(getattr(config, option))
    except OverflowError as exc:
        raise ValueError(f"--{option}: {exc}") from None


def _entropy_samples(config: argparse.Namespace):
    """The --input array, or the --density draw as a ``LazySample``."""
    if config.input is not None:
        return ingest(config.input, config.format, k=config.k, check_finite=False)
    _require(config, "n")
    return LazySample(_load_density(config, "k"), config.n, config.seed)


def _certify(config: argparse.Namespace, estimate, pts, *args):
    """``estimate(pts, *args)``, running ingest's non-finite scan of an --input
    array only if the estimate raises.

    Binning checks every value it reads against the unit cube, a check that
    NaN and infinities fail, and every column is binned, so an estimate that
    returns had finite input.  When it raises, the scan runs, so a non-finite
    value still gives ingest's error, as when ingest scanned first.
    """
    try:
        return estimate(pts, *args)
    except Exception:
        if config.input is not None:
            _reject_non_finite(pts, Path(config.input))
        raise


def _cmd_bound(config: argparse.Namespace):
    _require(config, "l", "m", "n", "delta")
    _, bound = _plan(config.k, config.l, config.n, config.delta, config.m)
    row = {"k": config.k, "l": config.l, "m": config.m, "n": config.n, "delta": config.delta,
           **asdict(bound)}
    line = " ".join(f"{key}={_fmt(row[key])}" for key in ("total", "quant_bias", "stat_dev", "emp_bias"))
    return list(row), [row], line


def _cmd_optimize_m(config: argparse.Namespace):
    _require(config, "l", "n", "delta")
    M, bound = optimize_M(config.k, config.l, config.n, config.delta)
    row = {"k": config.k, "l": config.l, "n": config.n, "delta": config.delta, "M": M,
           **asdict(bound)}
    return list(row), [row], f"M={M} total={_fmt(bound.total)}"


def _certificate(report) -> dict:
    """The leading CSV columns of an estimate: its value and its bound terms."""
    return {
        "estimate": report.estimate,
        "total_bound": report.bound.total,
        "quant_bias": report.bound.quant_bias,
        "stat_dev": report.bound.stat_dev,
        "emp_bias": report.bound.emp_bias,
    }


def _cmd_estimate(config: argparse.Namespace):
    _require(config, "l", "delta")
    pts = _entropy_samples(config)
    report = _certify(config, estimate_entropy_certified, pts, config.l, config.delta, config.m)
    row = {**_certificate(report), "M": report.params.M, "N": report.params.N}
    line = f"estimate={_fmt(report.estimate)} total_bound={_fmt(report.bound.total)} M={report.params.M}"
    return list(row), [row], line


def _cmd_mi_estimate(config: argparse.Namespace):
    _require(config, "l", "delta")
    k1, k2 = config.k1, config.k2
    if config.input is not None:
        pts = ingest(config.input, config.format, k=k1 + k2, check_finite=False)
    else:
        _require(config, "n")
        pts = np.hstack([sample(_load_density(config, option), config.n, split(config.seed, i))
                         for i, option in enumerate(("k1", "k2"))])
    report = _certify(config, estimate_mi_certified, pts, k1, config.l, config.delta)
    m_x, m_y, m_xy = (part.params.M for part in report.components)
    row = {**_certificate(report), "m_x": m_x, "m_y": m_y, "m_xy": m_xy, "N": report.params.N}
    line = f"estimate={_fmt(report.estimate)} total_bound={_fmt(report.bound.total)}"
    return list(row), [row], line


def _cmd_coverage(config: argparse.Namespace):
    _require(config, "l", "n", "delta", "trials")
    model = _load_density(config, "k")
    truth = model.analytic_entropy
    params, bound = _plan(config.k, config.l, config.n, config.delta, config.m)

    def one_trial(t: int) -> dict:
        seed_t = split(config.seed, t)
        draw = LazySample(model, config.n, seed_t)
        report = estimate_entropy_certified(draw, config.l, config.delta, M=params.M)
        abs_err = abs(report.estimate - truth)
        return {
            "row": "trial",
            "trial": t,
            "seed": seed_t,
            "estimate": report.estimate,
            "truth": truth,
            "abs_err": abs_err,
            "bound_total": report.bound.total,
            "covered": int(abs_err <= report.bound.total),
        }

    rows = _map_ordered(one_trial, config.trials, _default_threads())
    coverage = sum(r["covered"] for r in rows) / config.trials
    cols = list(rows[0]) + ["coverage"]
    rows.append({"row": "summary", "coverage": coverage})
    line = f"coverage={_fmt(coverage)} trials={config.trials} M={params.M} bound_total={_fmt(bound.total)}"
    return cols, rows, line


def _external_estimator(config: argparse.Namespace):
    if config.estimator is None:
        return None
    import shlex

    try:
        return ExternalEstimator(shlex.split(config.estimator))
    except ValueError as exc:
        raise ValueError(f"--estimator {config.estimator!r}: {exc}") from None


def _cmd_demo(demo_fn, config: argparse.Namespace):
    _require(config, "c", "delta", "n", "trials")
    report = demo_fn(
        config.c,
        config.delta,
        config.n,
        config.trials,
        config.seed,
        estimator=_external_estimator(config),
    )
    row = {
        "trials": report.trials,
        "failure_fraction": report.failure_fraction,
        "below_threshold_fraction": report.below_threshold_fraction,
        "calibrated_b": report.calibrated_b,
        "true_value": report.true_value,
        "C": report.C,
        "delta": report.delta,
        "N": config.n,
        "seed": config.seed,
    }
    line = (
        f"failure_fraction={_fmt(report.failure_fraction)} "
        f"calibrated_b={_fmt(report.calibrated_b)} true_value={_fmt(report.true_value)}"
    )
    return list(row), [row], line


# Random (x, y) pairs of the x log x check.
_XLOGX_PAIRS = 10**6


def _cmd_verify_lemmas(config: argparse.Namespace):
    from .oracle import (
        _cell_midpoints,
        _grid_chunks,
        check_density_gap,
        check_entropy_continuity,
        check_sup_bound,
        check_xlogx_gap,
        exact_discrete_entropy,
        expected_plugin_entropy_enum,
        integrate_box,
        numeric_entropy,
        quantized_companion,
    )

    K = config.k
    tent = tent_density(K)
    L = tent.lipschitz_L
    # Quadrature of the K=2 entropy integrand converges too slowly for 1e-6
    # within the per-level point budget; one decade looser costs nothing
    # against bound margins that are two orders of magnitude wide.
    tol = 1e-6 if K == 1 else 1e-5
    m_values = _m_values(config.m_list)
    rows = []

    def add(check: str, m, lhs: float, rhs: float, holds: bool) -> None:
        rows.append(
            {"check": check, "k": K, "m": "" if m is None else m,
             "lhs": lhs, "rhs": rhs, "holds": bool(holds)}
        )

    sup = check_sup_bound(tent)
    add("sup_bound", None, sup.sup_p, sup.bound, sup.sup_p <= sup.bound * (1 + 1e-9))

    h_tent = numeric_entropy(tent, tol)
    for M in m_values:
        gap = check_density_gap(tent, M)
        gap_bound = L * K / (2.0 * M)
        add("density_gap", M, gap, gap_bound, gap <= gap_bound * (1 + 1e-9))

        # One quadrature of the companion's entropy serves both checks.
        companion = quantized_companion(tent, M)
        h_companion = numeric_entropy(companion, tol)
        cont = check_entropy_continuity(h_tent, h_companion, gap_bound, sup.bound)
        add("entropy_continuity", M, cont.lhs, cont.rhs, cont.lhs <= cont.rhs + 2 * tol)

        cells = _grid_chunks([_cell_midpoints(M)] * K)
        pmf = np.concatenate([companion.pdf(pts) for pts in cells]) / float(M**K)
        ident_lhs = exact_discrete_entropy(pmf)
        ident_rhs = h_companion.value + K * math.log(M)
        add("quantized_identity", M, ident_lhs, ident_rhs, abs(ident_lhs - ident_rhs) <= 4 * tol)

    rng = generator(split(config.seed, 99))
    x = rng.random(_XLOGX_PAIRS)
    shift = (rng.random(_XLOGX_PAIRS) * 2.0 - 1.0) * 0.1207
    y = np.maximum(x + shift, 0.0)
    lhs, rhs = check_xlogx_gap(x, y)
    worst = int(np.argmax(lhs - rhs))
    add("xlogx_gap", None, float(lhs[worst]), float(rhs[worst]),
        bool(np.all(lhs <= rhs + 1e-12)))

    # Lipschitz-difference integral over the first grid cell: with f vanishing
    # at the cell midpoint, integral |f| <= eps^(K+1) * L * K / 2.
    M0 = m_values[0]
    eps = 1.0 / M0
    cell = np.array([[0.0, eps]] * K)
    mid = np.full((1, K), eps / 2.0)
    p_mid = float(tent.pdf(mid)[0])
    f_int = integrate_box(lambda pts: np.abs(tent.pdf(pts) - p_mid), cell, tol).value
    f_bound = eps ** (K + 1) * L * K / 2.0
    add("f_difference_bound", M0, f_int, f_bound, f_int <= f_bound * (1 + 1e-9))

    pmf = np.array([0.5, 0.3, 0.2])
    expected = expected_plugin_entropy_enum(pmf, 5)
    bias = abs(exact_discrete_entropy(pmf) - expected)
    bias_bound = math.log(1.0 + 2.0 / 5.0)
    add("discrete_entropy_bias", None, bias, bias_bound, bias <= bias_bound)

    cols = ["check", "k", "m", "lhs", "rhs", "holds"]
    n_failed = sum(1 for r in rows if not r["holds"])
    return cols, rows, f"checks={len(rows)} failed={n_failed}"


def _m_values(m_list: str) -> list[int]:
    """The bin counts of ``--m-list``, at least one; blank tokens are skipped."""
    try:
        values = [int(tok) for tok in m_list.split(",") if tok.strip()]
        if values and min(values) >= 1:
            return values
    except ValueError:
        pass
    raise ValueError(f"m_list must be comma-separated integers >= 1, got {m_list!r}")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_DEMO_OPTIONS = ("c", "delta", "n", "trials", "seed", "estimator", "out")
# command -> (handler, help, options it accepts besides --config); the .meta
# sidecar records exactly these options.  A demo handler looks its demo up in
# this module's globals when it runs, so a wrapper rebound there (as the
# benchmark's tracer does) sees the call.
_COMMANDS = {
    "bound": (_cmd_bound, "evaluate the confidence bound",
              ("k", "l", "m", "n", "delta", "out")),
    "optimize-m": (_cmd_optimize_m, "bound-minimizing bin count",
                   ("k", "l", "n", "delta", "out")),
    "estimate": (_cmd_estimate, "certified entropy estimate",
                 ("density", "input", "format", "k", "l", "m", "n", "delta", "seed", "out")),
    "mi-estimate": (_cmd_mi_estimate, "certified mutual-information estimate",
                    ("density", "input", "format", "k1", "k2", "l", "n", "delta", "seed", "out")),
    "coverage": (_cmd_coverage, "empirical coverage experiment",
                 ("density", "k", "l", "m", "n", "delta", "trials", "seed", "out")),
    "prop1-demo": (lambda config: _cmd_demo(prop1_demo, config),
                   "adversarial demonstration: prop1-demo", _DEMO_OPTIONS),
    "mi-demo": (lambda config: _cmd_demo(mi_adversary_demo, config),
                "adversarial demonstration: mi-demo", _DEMO_OPTIONS),
    "kl-demo": (lambda config: _cmd_demo(kl_demo, config),
                "adversarial demonstration: kl-demo", _DEMO_OPTIONS),
    "verify-lemmas": (_cmd_verify_lemmas, "numerical checks of the supporting inequalities",
                      ("k", "m_list", "seed", "out")),
}


def _validate_config(config: argparse.Namespace) -> None:
    """Reject parameter values the modules would reject, before any work."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    if config.delta is not None and not (0.0 < config.delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {config.delta!r}")
    if config.l is not None and not (config.l > 0.0):
        raise ValueError(f"l must be positive, got {config.l!r}")
    if config.c is not None and not (config.c > 0.0):
        raise ValueError(f"c must be positive, got {config.c!r}")
    for name in ("k", "k1", "k2", "m", "n", "trials"):
        value = getattr(config, name)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
        if value is not None and value > sys.float_info.max:
            raise ValueError(f"--{name} exceeds the largest float64, {sys.float_info.max!r}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed!r}")
    if config.density is not None and config.input is not None:
        raise ValueError("--density and --input both name the sample: give one of them")
    if config.n is not None and config.input is not None:
        raise ValueError("--n sizes a --density draw; --input brings its own rows: give one of them")
    _m_values(config.m_list)
    _default_threads()  # a malformed ENTROBOUND_THREADS fails before any work
    if config.format not in ("csv", "f64le"):
        raise ValueError(f"format must be csv or f64le, got {config.format!r}")
    if config.out:
        for path in (config.out, config.out + ".meta"):
            _check_writable(path)


def _check_writable(path: str) -> None:
    """Raise now the OSError that writing path would raise after the run."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def run(config: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status.

    ``config`` is what ``build_parser(command).parse_args`` returns: the
    command and every option in ``_OPTIONS``, each at its default unless it
    was given.  The summary line is printed after ``--out`` and its sidecar
    are renamed into place, so when standard output fails both files stay.
    """
    started = time.monotonic()
    _validate_config(config)
    columns, rows, line = _COMMANDS[config.command][0](config)
    if config.out:
        _write_outputs(config, columns, rows, started)
    if line:
        print(line)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which main prints as one line."""

    def error(self, message):
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        config = super().parse_args(args, namespace)
        # Python 3.10-3.12 store [] for --opt=-- without calling the option's type.
        for name, (parse, _, _) in _OPTIONS.items():
            value = getattr(config, name, None)
            if value is not None and not isinstance(value, parse):
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return config


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every command, with the options of ``command`` only.

    Every subparser is registered with its help, so the program's help and
    its usage errors do not depend on ``command``; only the subparser that
    will parse the line gets ``--config`` and its options.
    """
    parser = _Parser(
        prog="entrobound",
        description="Histogram differential-entropy estimation with explicit confidence bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        if name != command:
            continue
        # Every option, accepted or not, gets its default: _validate_config
        # reads k1, k2 and format for every command.
        cmd.set_defaults(**{opt: default for opt, (_, default, _) in _OPTIONS.items()})
        cmd.add_argument("--config", type=str, default=None, help="key = value config file")
        for opt in options:
            parse, _, opt_help = _OPTIONS[opt]
            cmd.add_argument(f"--{opt.replace('_', '-')}", dest=opt, type=parse, help=opt_help)
    return parser


def _merge_config_file(argv: list[str]) -> list[str]:
    """Expand the single --config FILE or --config=FILE into flags before the explicit ones."""
    idx = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, eq, path = argv[idx].partition("=")
    rest = argv[:idx] + argv[idx + 1 :]
    if not eq and idx < len(rest):
        path = rest.pop(idx)
    if not path:
        raise ValueError("--config needs a file path")
    if any(arg.partition("=")[0] == "--config" for arg in rest):
        raise ValueError("--config given more than once")
    data = parse_config_text(Path(path).read_text(encoding="utf-8"))
    # The first remaining token is the command unless it is a flag.
    given = rest.pop(0) if rest and not rest[0].startswith("-") else None
    command = data.get("command") if given is None else given
    if command is None:
        raise ValueError("no command given on the command line or in the config file")
    if "command" in data and given is not None and data["command"] != given:
        raise ValueError(
            f"config file is for command {data['command']!r}, not {given!r}"
        )
    # One --key=value token per key, so that a value starting with "-" stays a value.
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in data.items() if key != "command"]
    return [command] + flags + rest


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _merge_config_file(argv)
        # The program's only option is --help, so argparse takes the first
        # token that is not a flag as the command: when that is a command
        # name, it is the first command name in argv.
        command = next((arg for arg in argv if arg in _COMMANDS), None)
        code = run(build_parser(command).parse_args(argv))
        sys.stdout.flush()  # a closed pipe or a full disk fails here, not at exit
        return code
    except ValidityError as exc:
        print(f"error: validity: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OutOfSupportError) as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return 2
    except (IngestError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        _silence_failed_stdout()
        return 1
    except EntroboundError as exc:
        print(f"error: failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: failed: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def _silence_failed_stdout() -> None:
    """Point stdout's descriptor at os.devnull if stdout cannot be flushed.

    A write that failed leaves its bytes buffered, and the interpreter's
    flush at exit would fail again and print a second error.  This is the
    recipe of the Python docs' note on SIGPIPE.
    """
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())

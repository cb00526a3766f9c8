"""Certified estimators and the adversarial harnesses that defeat them.

``estimate_entropy_certified`` wraps the histogram plug-in estimate with the
closed-form confidence bound: for any L-Lipschitz density on [0,1]^K, the
true entropy lies within ``bound.total`` of the estimate with probability at
least 1 - delta.  ``estimate_mi_certified`` applies the same machinery to the
decomposition I(x; y) = h(x) + h(y) - h(x, y), splitting the failure budget
delta/3 per term.  It takes one sample matrix whose first k1 columns are x
and whose other columns are y, so x, y and the joint are all views of it.
Every entropy estimate, the CLI's ``bound`` and ``coverage`` and the pinned
demo victim take their bin count M and their certificate from ``_plan``.

The three terms are independent, so on more than 2^18 rows they run on the
worker pool ``_map_ordered``, which also runs the CLI's ``coverage`` trials;
nothing else in entrobound runs in parallel, and each histogram is serial.
The terms are listed x, y, joint.  The pool starts the last item first, so
the joint (about half the work) does not wait for a marginal to finish: two
workers run it beside the two marginals back to back, three run all at once.
Results and errors come back in index order: when several terms fail, x's
error is raised first.

The pool is one per process.  The first pooled call builds it, at the
width ``_default_threads()`` gives, and later calls submit to it, so
repeated estimates run on warm workers that keep their binning workspaces
(see ``histogram``); a call at another width (``ENTROBOUND_THREADS``
changed) replaces it.  One lock guards building, replacing and submitting.
A call interrupted while it waits cancels only its own unstarted items and
waits for its running ones; it never shuts the shared pool down.  An item
that calls ``_map_ordered`` itself runs the inner items serially on its
worker, and a forked child drops the pool it inherits and makes its lock
anew.  Idle workers do not delay interpreter exit.

The demo harnesses construct the distributions on which a fixed estimator
must fail: a contamination mixture whose entropy sits far from anything the
samples reveal, a joint law whose mutual information hides in a rare
dependent branch, and a pair of step densities with a huge but invisible
relative entropy.  Each follows the same recipe: calibrate the estimator's
typical spread b on a benign pilot distribution, then place the truth more
than b + C away while keeping the contaminated samples indistinguishable
from the pilot.  That recipe lives once, in the private driver ``_run_demo``;
each public demo supplies only its pilot draw, its score and its planted
construction.  The harnesses accept any estimator as a callable mapping a
sample-row matrix to one float, including external processes (see
``ExternalEstimator``).

Only the code that needs them imports ``subprocess`` (an
``ExternalEstimator`` call) and the quadrature oracle (``kl_demo``), so a
certified estimate loads neither.  ``concurrent.futures`` is imported with
this module, though the pool is built on first use: both pooled commands
run the pool, and tests replace ``ThreadPoolExecutor`` here.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .bounds import BoundParams, ConfidenceBound, as_int, optimize_M, total_bound
from .densities import (
    ContaminationSpec,
    affine_rescale,
    low_entropy_alt,
    mi_adversary,
    kl_step_pair,
    prop1_mixture,
    sample,
    tent_density,
)
from .errors import EntroboundError, OutOfSupportError
from .histogram import (
    _MAX_BINS,
    _as_points,
    _bin_count,
    _bin_ranks,
    _count_entropy,
    _rows,
    estimate_differential_entropy,
)
from .rng import generator, split

__all__ = [
    "EstimateReport",
    "DemoReport",
    "EstimatorFailure",
    "ExternalEstimator",
    "PinnedEntropyEstimator",
    "estimate_entropy_certified",
    "estimate_mi_certified",
    "discrete_mi_plugin",
    "two_cell_kl_plugin",
    "prop1_demo",
    "mi_adversary_demo",
    "kl_demo",
]

_LN2 = math.log(2.0)

# Default pool size cap, when ENTROBOUND_THREADS is unset.
_MAX_DEFAULT_THREADS = 32

# The three MI terms run on the pool only on more than this many rows.
# Measured on tent rows (K = 3, k1 = 1; 2 threads against serial, 2-vCPU
# hosts, numpy 2.4) in-process, 10 alternating pairs of medians of 9 calls:
# the kept, warm pool wins 9 or 10 of 10 from 2^16 + 1 (1.9 against 2.4 ms)
# through 2^20 + 1 (23.6 against 35.2 ms).  But a process's first pooled
# call starts the workers and faults in their workspaces: as the only call
# of a fresh interpreter the pool loses at 2^16 + 1 (7.6 against 4.7 ms)
# and at 2^18 + 1 (16.5 against 13.4 ms).  A one-shot mi-estimate is that
# case, and no benchmark workload has 2^16 to 2^18 rows to weigh loops
# against one-shot runs, so the cut is 2^18.
_MI_POOL_ROWS = 2**18

# The process's worker pool as (width, executor), None until the first pooled
# call; _pool_lock guards it.  _worker marks the pool's threads.  See
# _map_ordered.
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()
_worker = threading.local()


def _default_threads() -> int:
    """Pool size: ENTROBOUND_THREADS if set, else the usable CPUs (at most 32)."""
    env = os.environ.get("ENTROBOUND_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"ENTROBOUND_THREADS must be an integer, got {env!r}") from None
        if threads < 1:
            raise ValueError(f"ENTROBOUND_THREADS must be >= 1, got {env!r}")
        return threads
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_MAX_DEFAULT_THREADS, cpus)


def _map_ordered(fn, count: int, threads: int) -> list:
    """Apply fn to 0..count-1 on the process's pool, collecting in index order.

    Runs serially, in index order, for one thread or one item, and on a pool
    worker: an item that calls ``_map_ordered`` runs the inner items itself,
    so there is one level of parallelism and the pool never waits on itself.
    Otherwise the items go to the one pool of the process, which has
    ``threads`` workers: built on the first such call, kept for later ones,
    and replaced when a call asks for another width.  ``_pool_lock`` guards
    building, replacing and submitting, so no item lands on a pool that has
    been shut down; a replaced pool is shut down without waiting and still
    runs what it was given.  The pool starts the last item first, so a caller
    lists its longest item last.  Results, and the first exception in index
    order, come back in index order.  Item 0, collected first, starts last,
    so an item's own exception surfaces only once every item has started.
    An exception raised while waiting, such as ``KeyboardInterrupt``, cancels
    this call's items that have not started and waits for its running ones;
    the pool itself stays up for the next call.
    """
    if threads <= 1 or count <= 1 or getattr(_worker, "active", False):
        return [fn(i) for i in range(count)]
    futures = []
    try:
        with _pool_lock:
            pool = _shared_pool(threads)
            for i in reversed(range(count)):
                futures.append(pool.submit(fn, i))
        return [future.result() for future in reversed(futures)]
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` workers; the caller holds ``_pool_lock``."""
    global _pool
    if _pool is None or _pool[0] != threads:
        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (threads, ThreadPoolExecutor(threads, initializer=_mark_worker))
    return _pool[1]


def _mark_worker() -> None:
    _worker.active = True


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool, whose workers the child
    does not have, and make a new lock, as a parent thread may hold the old."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class EstimatorFailure(EntroboundError):
    """An (external) estimator produced no usable estimate for a trial."""


@dataclass(frozen=True)
class EstimateReport:
    """An estimate with its certificate: value, bound and parameters.

    A mutual-information report also holds its x, y and joint entropy
    reports, in that order, as ``components``; an entropy report has none.
    ``params`` meets the validity threshold, as every ``BoundParams`` does.
    """

    estimate: float
    bound: ConfidenceBound
    params: BoundParams
    components: tuple["EstimateReport", ...] | None = None

    def __post_init__(self) -> None:
        if not (self.bound.total >= 0.0):
            raise AssertionError("report constructed with a negative bound")


@dataclass(frozen=True)
class DemoReport:
    """Outcome of an adversarial demonstration.

    ``failure_fraction`` counts trials whose estimate missed the truth by
    more than C; ``below_threshold_fraction`` counts the demo-specific pilot
    event (estimate within b of the pilot entropy, or at most the calibrated
    threshold for the mutual-information and relative-entropy demos).
    """

    trials: int
    failure_fraction: float
    C: float
    delta: float
    calibrated_b: float
    true_value: float
    below_threshold_fraction: float


def _plan(K: int, L: float, N: int, delta: float, M: int | None = None):
    """(BoundParams, ConfidenceBound) of one entropy estimate.

    M defaults to the bound-optimal count, refused above 2^53, which float64
    binning cannot resolve.  A given M below the validity threshold raises
    ``ValidityError``; one above 2^53 is left for binning to refuse.  Either
    way one ``BoundParams`` is built and its ``total_bound`` taken, so a plan
    decides the threshold at most twice: once in the search, once here.
    """
    if M is None:
        M = optimize_M(K, L, N, delta)[0]
        if M > _MAX_BINS:
            raise ValueError(f"L = {L!r} is too large for float64 binning with K = {K} and "
                             f"N = {N}: the bound-optimal M exceeds 2^53 = {_MAX_BINS}")
    params = BoundParams(K, L, M, N, delta)
    return params, total_bound(params)


def estimate_entropy_certified(
    samples, L: float, delta: float, M: int | None = None
) -> EstimateReport:
    """Histogram entropy estimate with its confidence bound.

    Samples must lie in [0,1]^K.  They are an (N, K) array or a row stream,
    such as a ``LazySample``, which is planned from its shape and binned as
    it is drawn.  When M is omitted it is chosen to minimize the bound; when
    given it must be at least the validity threshold.  The certificate:
    P(|estimate - h(p)| <= bound.total) >= 1 - delta for every L-Lipschitz
    density p on [0,1]^K.
    """
    rows = _rows(samples)
    params, bound = _plan(int(rows.shape[1]), L, int(rows.shape[0]), delta, M)
    estimate = estimate_differential_entropy(rows, params.M)
    return EstimateReport(estimate=estimate, bound=bound, params=params)


def estimate_mi_certified(samples, k1: int, L: float, delta: float) -> EstimateReport:
    """Mutual-information estimate h(x) + h(y) - h(x, y) with a summed bound.

    ``samples`` holds one (x, y) pair per row: x is ``samples[:, :k1]``, y is
    ``samples[:, k1:]`` and the joint is ``samples`` itself, so all three
    terms are views of one matrix, whatever its memory layout.  ``k1`` must
    lie in [1, K - 1] for K columns.  ``L`` is the Lipschitz constant of the
    joint density on the product cube; the marginals inherit it.  Each of
    the three entropy estimates carries failure budget delta/3 and its own
    optimized bin count, so the total bound fails with probability at most
    delta by the union bound.
    """
    joint = _as_points(samples)
    k1 = as_int("k1", k1)
    if k1 >= joint.shape[1]:
        raise ValueError(f"k1 must lie in [1, K - 1], got {k1!r} with K = {joint.shape[1]}")
    terms = (joint[:, :k1], joint[:, k1:], joint)  # the pool starts the joint first
    parts = tuple(_map_ordered(
        lambda i: estimate_entropy_certified(terms[i], L, delta / 3.0), len(terms),
        _default_threads() if joint.shape[0] > _MI_POOL_ROWS else 1,
    ))
    h_x, h_y, h_xy = (p.estimate for p in parts)
    quant = sum(p.bound.quant_bias for p in parts)
    stat = sum(p.bound.stat_dev for p in parts)
    emp = sum(p.bound.emp_bias for p in parts)
    return EstimateReport(
        estimate=h_x + h_y - h_xy,
        bound=ConfidenceBound(quant, stat, emp, quant + stat + emp),
        params=parts[2].params,
        components=parts,
    )


# ---------------------------------------------------------------------------
# Victim estimators: fixed functions of a sample-row matrix
# ---------------------------------------------------------------------------


class PinnedEntropyEstimator:
    """The entropy estimator frozen into a fixed function of N samples.

    Samples are taken on a fixed box, affinely mapped onto the unit cube,
    binned with a bin count chosen once (for the rescaled Lipschitz constant
    ``L * max(s) * prod(s)`` and fixed N), and the rescale entropy offset is
    added back.  Freezing the configuration is what makes the adversarial
    constructions meaningful: they defeat this one fixed map, as they would
    any other.
    """

    def __init__(self, K: int, L: float, delta: float, N: int, box=None) -> None:
        if box is None:
            box = [[-1.0, 1.0]] * K
        self.box = np.asarray(box, dtype=np.float64)
        frame = affine_rescale(np.empty((0, K)), self.box)
        self.L_effective = L * frame.lipschitz_scale
        self.entropy_offset = frame.entropy_offset
        self.M = _plan(K, self.L_effective, N, delta)[0].M

    def __call__(self, samples) -> float:
        rescaled = affine_rescale(_as_points(samples), self.box)
        return (
            estimate_differential_entropy(rescaled.samples, self.M)
            + self.entropy_offset
        )


def discrete_mi_plugin(x_samples, y_labels, M_bins: int) -> float:
    """Plug-in mutual information between binned x and an already-discrete y.

    Because the marginal and joint use the same x-binning, the K*log(M)
    corrections cancel and this reduces to H(x_bins) + H(y) - H(x_bins, y)
    on raw counts; x is binned as in ``build_histogram``, and the joint
    counts pair x's bin ranks with y's label indices.  It is exactly
    zero when y is constant and never exceeds log of the y-alphabet size.
    This is the natural victim for the discrete-alphabet adversary: until
    two samples collide in an x-bin, the dependence of y on x is invisible.
    """
    M_bins = _bin_count(M_bins)
    pts = _as_points(x_samples)
    x_rank, cx = _bin_ranks(pts, M_bins)
    y = np.asarray(y_labels).reshape(-1)
    if pts.shape[0] != y.shape[0]:
        raise ValueError(f"sample counts differ: {pts.shape[0]} vs {y.shape[0]}")
    n = y.shape[0]
    if n == 0:
        raise ValueError("no samples")
    _, y_inverse, cy = np.unique(y, return_inverse=True, return_counts=True)
    # One key per (x bin, label) pair, below n * len(cy): sorted like the pairs.
    _, cxy = np.unique(x_rank * cy.size + y_inverse, return_counts=True)
    return _count_entropy(cx, n) + _count_entropy(cy, n) - _count_entropy(cxy, n)


def two_cell_kl_plugin(p_samples, q_samples) -> float:
    """Plug-in relative entropy on the two cells [-1, 0) and [0, 1).

    Empirical masses replace the true ones in sum(p_i log(p_i / q_i)); a cell
    with p-mass but no q-mass yields +inf.  An empty sample or one with more
    than one column raises ``ValueError`` and a point outside [-1, 1), NaN
    included, raises ``OutOfSupportError``: no draw is dropped.  This is the
    concrete victim of the relative-entropy demonstration.
    """
    xp, xq = _as_points(p_samples), _as_points(q_samples)
    for label, points in (("p", xp), ("q", xq)):
        if points.shape[1] != 1:
            raise ValueError(f"{label} samples must have one column, got {points.shape[1]}")
    xp, xq = xp[:, 0], xq[:, 0]
    for label, x in (("p", xp), ("q", xq)):
        if x.size == 0:
            raise ValueError(f"no {label} samples")
        outside = ~((x >= -1.0) & (x < 1.0))
        if outside.any():
            bad = float(x[np.argmax(outside)])
            raise OutOfSupportError(f"{label} sample {bad!r} outside the cells [-1, 1)")
    d = 0.0
    for cell in ((-1.0, 0.0), (0.0, 1.0)):
        p_hat = float(np.mean((xp >= cell[0]) & (xp < cell[1])))
        q_hat = float(np.mean((xq >= cell[0]) & (xq < cell[1])))
        if p_hat == 0.0:
            continue
        if q_hat == 0.0:
            return math.inf
        d += p_hat * math.log(p_hat / q_hat)
    return d


@dataclass
class ExternalEstimator:
    """Run an external estimator process once per trial.

    The child receives one sample point per line on standard input, as
    comma-separated decimal fields, and must print a single decimal estimate
    on standard output.  A nonzero exit status means the estimator failed on
    that trial.  For the relative-entropy demo the first half of the rows are
    the p-samples and the second half the q-samples.
    """

    command: list[str]
    timeout: float = 300.0

    def __post_init__(self) -> None:
        if not self.command:
            raise ValueError("the command names no program")

    def __call__(self, samples) -> float:
        import subprocess

        rows = _as_points(samples)
        payload = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows) + "\n"
        try:
            proc = subprocess.run(
                self.command,
                input=payload,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise EstimatorFailure(f"external estimator failed to run: {exc}") from exc
        if proc.returncode != 0:
            raise EstimatorFailure(
                f"external estimator exited with status {proc.returncode}: "
                f"{proc.stderr.strip()[:200]}"
            )
        try:
            return float(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise EstimatorFailure(
                f"external estimator printed no parseable estimate: {proc.stdout!r}"
            ) from exc


# ---------------------------------------------------------------------------
# Demonstration harnesses
# ---------------------------------------------------------------------------


def _check_demo_args(C: float, delta: float, N: int, trials: int, gap) -> None:
    """Refuse bad arguments before any trial, including a C or delta for
    which the planted parameter ``gap(b)`` is not finite even at b = 0."""
    if not (C > 0.0):
        raise ValueError(f"C must be positive, got {C!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    N = as_int("N", N)
    as_int("trials", trials, minimum=10)
    # Each demo plants its branch at a rate of delta/(2N) or less.
    if not delta / (2.0 * N) > 0.0:
        raise ValueError(f"delta = {delta!r} is too small for N = {N}: "
                         "the planted rate delta/(2N) underflows to 0")
    if not math.isfinite(gap(0.0)):
        raise ValueError(f"C = {C!r} and delta = {delta!r} put the planted parameter "
                         f"a beyond float range for N = {N}")


def _run_demo(
    victim, score, pilot_draw, gap, plant, C: float, delta: float, trials: int
) -> DemoReport:
    """The recipe shared by the three demonstrations.

    Calibrate b as the (1 - delta/2) upper quantile of ``score(estimate)``
    over the pilot draws, take the planted parameter a = ``gap(b)`` (refused
    when it is not finite), let ``plant(b, a)`` return the planted truth and
    the attack draw for trial t, then count the attack trials whose estimate
    misses the truth by more than C and those whose score stays at most b.
    An ``EstimatorFailure`` or a NaN estimate in the attack phase counts as a
    miss and never as "below"; in the pilot phase either one raises
    ``EstimatorFailure``.
    """
    pilot = []
    for t in range(trials):
        est = victim(pilot_draw(t))
        if math.isnan(est):
            raise EstimatorFailure(f"estimator returned NaN on pilot trial {t}")
        pilot.append(score(est))
    b = float(np.quantile(np.asarray(pilot), 1.0 - delta / 2.0, method="higher"))
    a = gap(b)
    if not math.isfinite(a):
        raise ValueError(f"the calibrated b = {b!r} with C = {C!r} and delta = {delta!r} "
                         "puts the planted parameter a beyond float range")
    truth, attack_draw = plant(b, a)

    misses = 0
    below = 0
    for t in range(trials):
        rows = attack_draw(t)
        try:
            est = victim(rows)
        except EstimatorFailure:
            misses += 1
            continue
        misses += not abs(est - truth) <= C  # NaN compares false: a miss
        below += score(est) <= b
    return DemoReport(
        trials=trials,
        failure_fraction=misses / trials,
        C=C,
        delta=delta,
        calibrated_b=b,
        true_value=truth,
        below_threshold_fraction=below / trials,
    )


def prop1_demo(
    C: float,
    delta: float,
    N: int,
    trials: int,
    seed: int,
    K: int = 1,
    estimator=None,
) -> DemoReport:
    """Defeat a fixed entropy estimator with a contamination mixture.

    Pilot phase: run the estimator on the tent density and set b to the
    empirical (1 - delta/2) quantile of |estimate - h_base|.  Then, with
    contamination rate eps = delta / (2N) and entropy gap
    a > (b + C + log 2) / eps, mix in a compressed tent on the mirrored
    orthant.  Since all N samples avoid the contaminated branch with
    probability at least 1 - delta/2, the estimate stays near h_base while
    the true entropy sits more than C away: the reported failure fraction is
    expected to reach at least 1 - delta.
    """
    def gap(b: float) -> float:
        return (b + C + _LN2) / (delta / (2.0 * N)) + 1.0

    _check_demo_args(C, delta, N, trials, gap)
    base = tent_density(K)
    h_base = base.analytic_entropy
    victim = estimator
    if victim is None:
        victim = PinnedEntropyEstimator(K, base.lipschitz_L, delta, N)

    def plant(b: float, a: float):
        eps = delta / (2.0 * N)
        alt = low_entropy_alt(K, h_base - a)
        mixture = prop1_mixture(ContaminationSpec(base=base, alt=alt, epsilon=eps, a=a))
        return mixture.analytic_entropy, lambda t: sample(mixture, N, split(seed, 1, t))

    return _run_demo(
        victim,
        score=lambda est: abs(est - h_base),
        pilot_draw=lambda t: sample(base, N, split(seed, 0, t)),
        gap=gap, plant=plant, C=C, delta=delta, trials=trials,
    )


class _PinnedMiEstimator:
    """The MI demo's default victim: ``estimate_mi_certified`` at L = 1 on
    x in [0,1] and y in [-2,1] rescaled to [0,1].

    Each call re-optimizes its three bin counts for the rows it gets, so it
    is not frozen for a fixed N the way PinnedEntropyEstimator is.  It plans
    per call for as long as the bench's demos trace requires the
    ``estimate_mi_certified`` calls that it times.
    """

    assumed_L = 1.0

    def __init__(self, delta: float) -> None:
        self.delta = delta

    def __call__(self, rows) -> float:
        rescaled = affine_rescale(rows, [[0.0, 1.0], [-2.0, 1.0]]).samples
        return estimate_mi_certified(rescaled, 1, self.assumed_L, self.delta).estimate


def mi_adversary_demo(
    C: float, delta: float, N: int, trials: int, seed: int, estimator=None
) -> DemoReport:
    """Defeat a fixed mutual-information estimator with a rare dependent branch.

    Pilot phase: estimate MI on independent uniform pairs and set b to the
    (1 - delta/2) quantile.  Then, with eps = delta / (2N) and
    a > (b + C) / eps, switch y to the mirrored dependent branch with
    probability eps per sample.  With probability at least 1 - delta the
    estimate stays at or below b while the true mutual information is at
    least eps * a > b + C.
    """
    def gap(b: float) -> float:
        return (b + C) / (delta / (2.0 * N)) + 1.0

    _check_demo_args(C, delta, N, trials, gap)
    victim = estimator if estimator is not None else _PinnedMiEstimator(delta)

    def pilot_draw(t: int) -> np.ndarray:
        rng = generator(split(seed, 0, t))
        return np.column_stack([rng.random(N), rng.random(N)])

    def plant(b: float, a: float):
        adversary = mi_adversary(a, delta / (2.0 * N))
        return adversary.true_mi, lambda t: np.column_stack(adversary.sample(split(seed, 1, t), N))

    return _run_demo(victim, score=float, pilot_draw=pilot_draw, gap=gap, plant=plant,
                     C=C, delta=delta, trials=trials)


def _two_cell_kl_rows(rows) -> float:
    """``two_cell_kl_plugin`` on stacked rows: p-samples first, then q-samples."""
    rows = _as_points(rows)
    half = rows.shape[0] // 2
    return two_cell_kl_plugin(rows[:half], rows[half:])


def kl_demo(
    C: float, delta: float, N: int, trials: int, seed: int, estimator=None
) -> DemoReport:
    """Defeat a relative-entropy estimator with step densities.

    Pilot phase: run the estimator on two independent uniform samples on
    [-1, 0] and set c to the (1 - delta/2) quantile.  Then, with
    a = log(4N / delta) and k = c + C + 1/e, both step densities put all but
    an e^-a sliver of mass on [-1, 0): every sample is negative with
    probability at least 1 - delta/2, the estimate stays at or below c, and
    the true relative entropy D(a, k) >= c + C.
    """
    from .oracle import kl_true_divergence

    def gap(c: float) -> float:
        return math.log(4.0 * N / delta)

    _check_demo_args(C, delta, N, trials, gap)
    victim = estimator if estimator is not None else _two_cell_kl_rows

    def pilot_draw(t: int) -> np.ndarray:
        return generator(split(seed, 0, t)).random((2 * N, 1)) - 1.0

    def plant(c: float, a: float):
        k = c + C + math.exp(-1.0)
        if not (k > 0.0 and math.isfinite(k)):
            raise ValueError(f"the calibrated c = {c!r} with C = {C!r} gives the threshold "
                             f"k = c + C + 1/e = {k!r}, which is not a positive finite real")
        p_model, q_model = kl_step_pair(a, k)

        def attack_draw(t: int) -> np.ndarray:
            xp = sample(p_model, N, split(seed, 1, t, 0))
            xq = sample(q_model, N, split(seed, 1, t, 1))
            return np.vstack([xp, xq])

        return kl_true_divergence(a, k), attack_draw

    return _run_demo(victim, score=float, pilot_draw=pilot_draw, gap=gap, plant=plant,
                     C=C, delta=delta, trials=trials)

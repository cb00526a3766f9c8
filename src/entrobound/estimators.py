"""Certified estimators and the adversarial harnesses that defeat them.

``estimate_entropy_certified`` wraps the histogram plug-in estimate with the
closed-form confidence bound: for any L-Lipschitz density on [0,1]^K, the
true entropy lies within ``bound.total`` of the estimate with probability at
least 1 - delta.  ``estimate_mi_certified`` applies the same machinery to the
decomposition I(x; y) = h(x) + h(y) - h(x, y), splitting the failure budget
delta/3 per term.  It takes one sample matrix whose first k1 columns are x
and whose other columns are y, so x, y and the joint are all views of it.

The three terms are independent, so on more than 2^16 rows they run on the
worker pool ``_map_ordered``, which also runs the CLI's ``coverage`` trials;
nothing else in entrobound runs in parallel, and each histogram is serial.

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
"""
from __future__ import annotations

import math
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
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
from .errors import EntroboundError
from .histogram import (
    _BLOCK_ROWS,
    _as_points,
    _bin_count,
    _bin_indices,
    _check_unit_cube,
    _count_entropy,
    estimate_differential_entropy,
)
from .oracle import kl_true_divergence
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
    """Apply fn to 0..count-1 on a pool of threads, collecting in index order.

    Runs serially for one thread or one item.  The first exception in index
    order propagates.
    """
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(min(threads, count)) as pool:
        return list(pool.map(fn, range(count)))


class EstimatorFailure(EntroboundError):
    """An (external) estimator produced no usable estimate for a trial."""


@dataclass(frozen=True)
class EstimateReport:
    """An estimate with its certificate: value, bound, parameters, provenance."""

    estimate: float
    bound: ConfidenceBound
    params: BoundParams
    seed: int | None
    kind: str
    components: tuple["EstimateReport", ...] | None = None

    def __post_init__(self) -> None:
        if not self.params.valid_for_theorem:
            raise AssertionError("report constructed with invalid bound parameters")
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


def estimate_entropy_certified(
    samples, L: float, delta: float, M: int | None = None, seed: int | None = None
) -> EstimateReport:
    """Histogram entropy estimate with its confidence bound.

    Samples must lie in [0,1]^K.  When M is omitted it is chosen to minimize
    the bound; when given it must be at least the validity threshold.  The
    certificate: P(|estimate - h(p)| <= bound.total) >= 1 - delta for every
    L-Lipschitz density p on [0,1]^K.
    """
    pts = _as_points(samples)
    N, K = int(pts.shape[0]), int(pts.shape[1])
    if M is None:
        M, bound = optimize_M(K, L, N, delta)
        params = BoundParams(K, L, M, N, delta)
    else:
        params = BoundParams(K, L, M, N, delta)
        bound = total_bound(params)
    estimate = estimate_differential_entropy(pts, M)
    return EstimateReport(estimate=estimate, bound=bound, params=params, seed=seed, kind="entropy")


def estimate_mi_certified(
    samples, k1: int, L: float, delta: float, seed: int | None = None
) -> EstimateReport:
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
    terms = (joint[:, :k1], joint[:, k1:], joint)
    parts = tuple(_map_ordered(
        lambda i: estimate_entropy_certified(terms[i], L, delta / 3.0, seed=seed),
        len(terms),
        _default_threads() if joint.shape[0] > _BLOCK_ROWS else 1,
    ))
    h_x, h_y, h_xy = (p.estimate for p in parts)
    quant = sum(p.bound.quant_bias for p in parts)
    stat = sum(p.bound.stat_dev for p in parts)
    emp = sum(p.bound.emp_bias for p in parts)
    return EstimateReport(
        estimate=h_x + h_y - h_xy,
        bound=ConfidenceBound(quant, stat, emp, quant + stat + emp),
        params=parts[2].params,
        seed=seed,
        kind="mutual_information",
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
        self.K = K
        sides = self.box[:, 1] - self.box[:, 0]
        self.L_effective = float(L * np.max(sides) * np.prod(sides))
        self.entropy_offset = float(np.sum(np.log(sides)))
        self.M, self.bound = optimize_M(K, self.L_effective, N, delta)
        self.N = N

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
    on raw counts.  It is exactly zero when y is constant and never exceeds
    log of the y-alphabet size.  This is the natural victim for the
    discrete-alphabet adversary: until two samples collide in an x-bin, the
    dependence of y on x is invisible.
    """
    M_bins = _bin_count(M_bins)
    pts = _as_points(x_samples)
    _check_unit_cube(pts)
    xb = _bin_indices(pts, M_bins)
    y = np.asarray(y_labels).reshape(-1)
    if xb.shape[0] != y.shape[0]:
        raise ValueError(f"sample counts differ: {xb.shape[0]} vs {y.shape[0]}")
    n = y.shape[0]
    if n == 0:
        raise ValueError("no samples")
    _, cx = np.unique(xb, axis=0, return_counts=True)
    _, cy = np.unique(y, return_counts=True)
    _, cxy = np.unique(np.column_stack([xb, y]), axis=0, return_counts=True)
    return _count_entropy(cx, n) + _count_entropy(cy, n) - _count_entropy(cxy, n)


def two_cell_kl_plugin(p_samples, q_samples) -> float:
    """Plug-in relative entropy on the two cells [-1, 0) and [0, 1).

    Empirical masses replace the true ones in sum(p_i log(p_i / q_i)); a cell
    with p-mass but no q-mass yields +inf.  This is the concrete victim of
    the relative-entropy demonstration.
    """
    xp = _as_points(p_samples)[:, 0]
    xq = _as_points(q_samples)[:, 0]
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

    def __call__(self, samples) -> float:
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


def _check_demo_args(C: float, delta: float, N: int, trials: int) -> None:
    if not (C > 0.0):
        raise ValueError(f"C must be positive, got {C!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    as_int("N", N)
    as_int("trials", trials, minimum=10)


def _run_demo(victim, score, pilot_draw, plant, C: float, delta: float, trials: int) -> DemoReport:
    """The recipe shared by the three demonstrations.

    Calibrate b as the (1 - delta/2) upper quantile of ``score(estimate)``
    over the pilot draws, let ``plant(b)`` return the planted truth and the
    attack draw for trial t, then count the attack trials whose estimate
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
    truth, attack_draw = plant(b)

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
    _check_demo_args(C, delta, N, trials)
    base = tent_density(K)
    h_base = base.analytic_entropy
    victim = estimator
    if victim is None:
        victim = PinnedEntropyEstimator(K, base.lipschitz_L, delta, N)

    def plant(b: float):
        eps = delta / (2.0 * N)
        a = (b + C + _LN2) / eps + 1.0
        target_h = h_base - a
        if not math.isfinite(target_h):
            raise ValueError(
                f"required entropy gap a={a:g} exceeds the representable range of "
                "target entropies"
            )
        alt = low_entropy_alt(K, target_h)
        mixture = prop1_mixture(ContaminationSpec(base=base, alt=alt, epsilon=eps, a=a))
        return mixture.analytic_entropy, lambda t: sample(mixture, N, split(seed, 1, t))

    return _run_demo(
        victim,
        score=lambda est: abs(est - h_base),
        pilot_draw=lambda t: sample(base, N, split(seed, 0, t)),
        plant=plant, C=C, delta=delta, trials=trials,
    )


class _PinnedMiEstimator:
    """Certified MI estimator frozen for fixed N: x on [0,1], y on [-2,1]."""

    assumed_L = 1.0

    def __init__(self, delta: float) -> None:
        self.delta = delta

    def __call__(self, rows) -> float:
        rows = _as_points(rows)
        rescaled = np.column_stack([rows[:, 0], (rows[:, 1] + 2.0) / 3.0])
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
    _check_demo_args(C, delta, N, trials)
    victim = estimator if estimator is not None else _PinnedMiEstimator(delta)

    def pilot_draw(t: int) -> np.ndarray:
        rng = generator(split(seed, 0, t))
        return np.column_stack([rng.random(N), rng.random(N)])

    def plant(b: float):
        eps = delta / (2.0 * N)
        adversary = mi_adversary((b + C) / eps + 1.0, eps)
        return adversary.true_mi, lambda t: np.column_stack(adversary.sample(split(seed, 1, t), N))

    return _run_demo(
        victim, score=float, pilot_draw=pilot_draw, plant=plant, C=C, delta=delta, trials=trials
    )


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
    _check_demo_args(C, delta, N, trials)
    victim = estimator if estimator is not None else _two_cell_kl_rows

    def pilot_draw(t: int) -> np.ndarray:
        return generator(split(seed, 0, t)).random((2 * N, 1)) - 1.0

    def plant(c: float):
        a = math.log(4.0 * N / delta)
        k = c + C + math.exp(-1.0)
        p_model, q_model = kl_step_pair(a, k)

        def attack_draw(t: int) -> np.ndarray:
            xp = sample(p_model, N, split(seed, 1, t, 0))
            xq = sample(q_model, N, split(seed, 1, t, 1))
            return np.vstack([xp, xq])

        return kl_true_divergence(a, k), attack_draw

    return _run_demo(
        victim, score=float, pilot_draw=pilot_draw, plant=plant, C=C, delta=delta, trials=trials
    )

"""Independent ground truth: quadrature, exact discrete laws, and inequality checks.

Nothing in this module shares code with the estimator path.  Differential
entropies come from a midpoint rule under dyadic refinement, discrete
expectations from exhaustive multinomial enumeration, and the supporting
inequalities behind the confidence bound are each exposed as a check that
callers can assert.  Each check returns both sides, except check_density_gap,
which returns only the gap; its right side L*K/(2M) is left to the caller:

  * |p - q| <= L*K/(2M) between a Lipschitz density and its cell-averaged
    companion (check_density_gap),
  * p <= (L^K (K+1)!/2^K)^(1/(K+1)) for any L-Lipschitz density
    (check_sup_bound),
  * |x log x - y log y| <= -a log a for a = |x - y| small (check_xlogx_gap),
  * |h(p) - h(q)| <= eps * log(A/eps) for uniformly close densities
    (check_entropy_continuity).

One refinement loop (``_refine``) computes both the integrals and the
quantized companion's cell masses.  Its error estimate is the last
refinement difference; that can under-report features narrower than the
final grid, which is why tolerances are exposed rather than asserted a
priori.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds import alpha_const, as_int
from .densities import DensityModel, _points
from .errors import QuadratureError

__all__ = [
    "QuadratureResult",
    "integrate_box",
    "numeric_entropy",
    "quantized_companion",
    "check_density_gap",
    "SupBoundCheck",
    "check_sup_bound",
    "check_xlogx_gap",
    "ContinuityCheck",
    "check_entropy_continuity",
    "exact_discrete_entropy",
    "expected_plugin_entropy_enum",
    "kl_true_divergence",
]

# Hard ceiling on evaluation points per refinement level; this bounds both
# runtime and memory for any dimension.
_MAX_POINTS_PER_LEVEL = 2**24
# Only a grid of at least this many points may stop a refinement, so coarse
# grids that agree by chance (before any point hits a narrow feature) cannot.
_MIN_POINTS = 1024
_CHUNK = 2**20
# Agreement the quantized companion's cell masses refine to.
_COMPANION_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureResult:
    """Value and last-refinement difference of one integration."""

    value: float
    est_error: float


def _cell_midpoints(n: int) -> np.ndarray:
    """The midpoints of the n equal cells of [0, 1]."""
    return (np.arange(n) + 0.5) / n


def _grid_chunks(axes):
    """Points of the tensor grid over ``axes``, in row-major order, as (n, K)
    arrays of at most _CHUNK rows."""
    shape = tuple(len(ax) for ax in axes)
    total = math.prod(shape)
    for start in range(0, total, _CHUNK):
        coords = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
        yield np.column_stack([ax[c] for ax, c in zip(axes, coords)])


def _midpoint_level(
    integrand: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    widths: np.ndarray,
    m: int,
) -> float:
    """Midpoint rule with m cells per axis, evaluated in fixed-size chunks."""
    step = widths / m
    axes = [lo[k] + (np.arange(m) + 0.5) * step[k] for k in range(lo.shape[0])]
    acc = 0.0
    for pts in _grid_chunks(axes):
        acc += float(np.sum(integrand(pts)))
    return acc * float(np.prod(step))


def _refine(evaluate: Callable[[int], object], n: int, K: int, tol: float):
    """Evaluate at n, 2n, 4n, ... points per axis until two grids in a row
    agree within ``tol`` (in their largest absolute difference).

    Returns (value, difference); raises QuadratureError past
    _MAX_POINTS_PER_LEVEL points per grid.
    """
    prev = None
    while True:
        if n**K > _MAX_POINTS_PER_LEVEL:
            raise QuadratureError(
                f"integration did not reach tol={tol:g} within the "
                f"{_MAX_POINTS_PER_LEVEL} points-per-level budget (K={K})"
            )
        value = evaluate(n)
        if prev is not None:
            diff = float(np.max(np.abs(value - prev)))
            if diff < tol:
                return value, diff
        prev = value
        n *= 2


def integrate_box(
    integrand: Callable[[np.ndarray], np.ndarray],
    box,
    tol: float,
) -> QuadratureResult:
    """Integrate over an axis-aligned box by midpoint rule with dyadic refinement.

    Runs ``_refine`` over 2^level cells per axis, from the first level whose
    grid has at least _MIN_POINTS points, so features narrower than that
    floor can still be missed, which is what the reported ``est_error``
    cannot see.  Raises QuadratureError when the per-level point budget runs
    out before two grids agree.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    box = np.asarray(box, dtype=np.float64)
    lo, hi = box[:, 0], box[:, 1]
    widths = hi - lo
    if np.any(widths <= 0.0):
        raise ValueError(f"integration box has nonpositive side: {widths.tolist()}")
    K = lo.shape[0]
    first_level = max(1, math.ceil(math.log2(_MIN_POINTS) / K))
    value, est_error = _refine(
        lambda m: _midpoint_level(integrand, lo, widths, m), 2**first_level, K, tol
    )
    return QuadratureResult(value=value, est_error=est_error)


def _neg_xlogx(v: np.ndarray) -> np.ndarray:
    """-v log v elementwise, 0 at v = 0.

    This keeps numpy's vector log, whose last bit can depend on the CPU
    features numpy dispatches to (the estimators take libm's log instead).
    The quadratures sum millions of these terms and are checked against a
    tolerance, and the ``verify-lemmas`` CSVs at K = 1 and 2 come out the
    same with numpy's AVX-512 kernels on or off.
    """
    out = np.zeros_like(v)
    pos = v > 0.0
    out[pos] = -v[pos] * np.log(v[pos])
    return out


def numeric_entropy(model: DensityModel, tol: float = 1e-6) -> QuadratureResult:
    """Differential entropy -integral(p log p) over the model's support box."""
    return integrate_box(lambda pts: _neg_xlogx(model.pdf(pts)), model.support, tol)


# ---------------------------------------------------------------------------
# Quantized companion and the density-gap / sup checks
# ---------------------------------------------------------------------------


def _cell_masses(model: DensityModel, M: int) -> np.ndarray:
    """Masses of the M^K grid cells of [0,1]^K under the model, by quadrature:
    each is M^-K times the mean of the pdf at g^K midpoints inside the cell."""
    K = model.K

    def masses(per_axis: int) -> np.ndarray:
        g = per_axis // M
        centers = _cell_midpoints(per_axis)
        vals = np.concatenate([model.pdf(pts) for pts in _grid_chunks([centers] * K)])
        blocked = vals.reshape(sum(((M, g) for _ in range(K)), ()))
        return blocked.mean(axis=tuple(range(1, 2 * K, 2))) / float(M**K)

    g0 = max(1, math.ceil(math.ceil(_MIN_POINTS ** (1.0 / K)) / M))
    return _refine(masses, M * g0, K, _COMPANION_TOL)[0]


def quantized_companion(model: DensityModel, M: int) -> DensityModel:
    """Piecewise-constant density equal to M^K times each cell's mass.

    This is the law of a sample whose bin is drawn from the model and whose
    position is uniform within the bin; its discrete cell distribution has
    Shannon entropy equal to the companion's differential entropy plus
    K*log(M).
    """
    M = as_int("M", M)
    if np.any(model.support[:, 0] < 0.0) or np.any(model.support[:, 1] > 1.0):
        raise ValueError("quantized companion requires support inside [0,1]^K")
    K = model.K
    masses = _cell_masses(model, M)
    levels = masses * float(M**K)

    def pdf(x):
        pts = _points(x, K)
        out = np.zeros(pts.shape[0])
        inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
        if inside.any():
            idx = np.minimum((pts[inside] * M).astype(np.int64), M - 1)
            out[inside] = levels[tuple(idx.T)]
        return out

    flat = masses.ravel()
    pmf = flat / flat.sum()

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        cells = rng.choice(flat.shape[0], size=n, p=pmf)
        corners = np.column_stack(np.unravel_index(cells, (M,) * K)).astype(np.float64)
        return (corners + rng.random((n, K))) / M

    return DensityModel(
        K=K,
        support=np.array([[0.0, 1.0]] * K),
        pdf=pdf,
        sampler=sampler,
        name=f"{model.name or 'model'}-quantized-{M}",
    )


def _dimension_guard(K: int) -> int:
    if K > 3:
        raise ValueError(f"grid verification is limited to K <= 3, got K={K}")
    return 64 if K <= 2 else 8


def check_density_gap(model: DensityModel, M: int) -> float:
    """Grid maximum of |p - q| against the companion; bounded by L*K/(2M).

    Evaluates on an interior midpoint subgrid (64 points per cell per axis
    for K <= 2, 8 for K = 3) so every point lies strictly inside one cell.
    """
    if model.lipschitz_L is None:
        raise ValueError("density gap check needs a model with a Lipschitz constant")
    per_cell = _dimension_guard(model.K)
    companion = quantized_companion(model, M)
    axis = _cell_midpoints(M * per_cell)
    max_gap = 0.0
    for pts in _grid_chunks([axis] * model.K):
        gap = np.abs(model.pdf(pts) - companion.pdf(pts))
        max_gap = max(max_gap, float(gap.max()))
    return max_gap


class SupBoundCheck(NamedTuple):
    sup_p: float
    bound: float


def check_sup_bound(model: DensityModel) -> SupBoundCheck:
    """Grid supremum of the pdf next to the closed-form Lipschitz sup bound.

    The bound is (L^K (K+1)! / 2^K)^(1/(K+1)); the evaluation grid includes
    the support endpoints and midpoint, so a tent's apex is hit exactly.
    """
    if model.lipschitz_L is None:
        raise ValueError("sup bound check needs a model with a Lipschitz constant")
    K = model.K
    _dimension_guard(K)
    n = {1: 65537, 2: 2049, 3: 129}[K]
    axes = [np.linspace(model.support[k, 0], model.support[k, 1], n) for k in range(K)]
    sup_p = 0.0
    for pts in _grid_chunks(axes):
        sup_p = max(sup_p, float(model.pdf(pts).max()))
    L = model.lipschitz_L
    bound = (L**K * math.factorial(K + 1) / 2**K) ** (1.0 / (K + 1))
    return SupBoundCheck(sup_p=sup_p, bound=bound)


def check_xlogx_gap(x, y):
    """Both sides of |x log x - y log y| <= -a log a for a = |x - y|.

    Accepts scalars or arrays; requires x in [0, 1], y >= 0, and a <= alpha
    (the boundary a = alpha is included).  Returns (lhs, rhs) with the
    convention 0 log 0 = 0, rhs(0) = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in [0, 1]")
    if np.any(y < 0.0):
        raise ValueError("y must be nonnegative")
    a = np.abs(x - y)
    if np.any(a > alpha_const()):
        raise ValueError(f"|x - y| must not exceed alpha = {alpha_const():.6f}")
    lhs = np.abs(_neg_xlogx(np.atleast_1d(x)) - _neg_xlogx(np.atleast_1d(y)))
    rhs = _neg_xlogx(np.atleast_1d(a))
    if x.ndim == 0:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs


class ContinuityCheck(NamedTuple):
    lhs: float
    rhs: float
    alpha_ok: bool


def check_entropy_continuity(
    h_p: QuadratureResult, h_q: QuadratureResult, eps: float, A: float
) -> ContinuityCheck:
    """Entropy difference |h(p) - h(q)| next to the bound eps * log(A / eps).

    ``h_p`` and ``h_q`` are the two entropies, as ``numeric_entropy``
    returns them; this check runs no quadrature.  ``eps`` must uniformly
    bound |p - q| and ``A`` must bound p (the caller establishes both, e.g.
    via check_density_gap and check_sup_bound).  The bound's derivation
    additionally wants eps/A <= alpha; that condition is reported via
    ``alpha_ok`` rather than enforced, since the inequality is loose enough
    to hold some way below the threshold.  Assert lhs <= rhs + 2*tol for
    the tol both entropies were integrated to.
    """
    if not (eps > 0.0) or not (A > 0.0):
        raise ValueError(f"eps and A must be positive, got eps={eps!r}, A={A!r}")
    return ContinuityCheck(
        lhs=abs(h_p.value - h_q.value),
        rhs=eps * math.log(A / eps),
        alpha_ok=eps / A <= alpha_const(),
    )


# ---------------------------------------------------------------------------
# Exact discrete computations
# ---------------------------------------------------------------------------


def exact_discrete_entropy(pmf) -> float:
    """Shannon entropy -sum(p log p) of a probability vector, in nats."""
    p = np.asarray(pmf, dtype=np.float64).ravel()
    if np.any(p < 0.0):
        raise ValueError("pmf entries must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError(f"pmf sums to {float(p.sum())!r}, not 1")
    pos = p[p > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def _compositions(n: int, parts: int):
    """All count vectors of length ``parts`` summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def expected_plugin_entropy_enum(pmf, N: int) -> float:
    """Exact E[H(empirical)] for N i.i.d. draws, by multinomial enumeration.

    Guarded to alphabets of at most 5 letters and N <= 10 so the enumeration
    stays small.
    """
    p = np.asarray(pmf, dtype=np.float64).ravel()
    N = as_int("N", N)
    if p.shape[0] > 5 or N > 10:
        raise ValueError("enumeration limited to alphabet <= 5 and N <= 10")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("pmf must be nonnegative and sum to 1")
    expected = 0.0
    for counts in _compositions(N, p.shape[0]):
        prob = float(math.factorial(N))
        for c, pi in zip(counts, p):
            if c > 0 and pi == 0.0:
                prob = 0.0
                break
            prob *= pi**c / math.factorial(c)
        if prob == 0.0:
            continue
        h_hat = math.log(N) - sum(c * math.log(c) for c in counts if c > 0) / N
        expected += prob * h_hat
    return expected


# ---------------------------------------------------------------------------
# Step-pair relative entropy
# ---------------------------------------------------------------------------


def kl_true_divergence(a: float, k: float) -> float:
    """Closed-form relative entropy of the step pair, D(a, k) >= k - 1/e.

    D(a, k) = k + (1 - e^-a) * log((1 - e^-a) / (1 - e^-(a + k e^a))).
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"a must be a positive finite real, got {a!r}")
    if not (k >= 0.0) or not math.isfinite(k):
        raise ValueError(f"k must be a nonnegative finite real, got {k!r}")
    if k == 0.0:
        return 0.0
    neg_mass_p = -math.expm1(-a)
    neg_mass_q = -math.expm1(-a - k * math.exp(a))
    return k + neg_mass_p * (math.log(neg_mass_p) - math.log(neg_mass_q))

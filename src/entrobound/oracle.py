"""Independent ground truth: quadrature, exact discrete laws, and inequality checks.

Nothing in this module shares code with the estimator path.  Differential
entropies come from a midpoint rule under dyadic refinement, discrete
expectations from exhaustive multinomial enumeration, and the supporting
inequalities behind the confidence bound are each exposed as a check that
returns both sides so callers can assert them:

  * |p - q| <= L*K/(2M) between a Lipschitz density and its cell-averaged
    companion (check_density_gap),
  * p <= (L^K (K+1)!/2^K)^(1/(K+1)) for any L-Lipschitz density
    (check_sup_bound),
  * |x log x - y log y| <= -a log a for a = |x - y| small (check_xlogx_gap),
  * |h(p) - h(q)| <= eps * log(A/eps) for uniformly close densities
    (check_entropy_continuity).

Quadrature error estimates are the last refinement difference; they can
under-report features narrower than the final grid, which is why tolerances
are exposed rather than asserted a priori.
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
    "numeric_kl",
    "quantized_companion",
    "check_density_gap",
    "SupBoundCheck",
    "check_sup_bound",
    "check_xlogx_gap",
    "ContinuityCheck",
    "check_entropy_continuity",
    "exact_discrete_entropy",
    "expected_plugin_entropy_enum",
    "trapezoid_model",
    "trapezoid_entropy",
    "kl_true_divergence",
]

# Hard ceiling on evaluation points per refinement level; with the 24-level
# cap this bounds both runtime and memory for any dimension.
_MAX_POINTS_PER_LEVEL = 2**24
_CHUNK = 2**20
_MAX_LEVELS = 24


@dataclass(frozen=True)
class QuadratureResult:
    """Value, last-refinement difference, and grid size of one integration."""

    value: float
    est_error: float
    grid_cells: int


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


def integrate_box(
    integrand: Callable[[np.ndarray], np.ndarray],
    box,
    tol: float,
    max_levels: int = _MAX_LEVELS,
) -> QuadratureResult:
    """Integrate over an axis-aligned box by midpoint rule with dyadic refinement.

    Refines until two consecutive levels differ by less than ``tol``; raises
    QuadratureError when the level cap or the per-level point budget is
    exhausted first.  Convergence may only fire once the grid has at least
    1024 points, so coincidental agreement between very coarse levels (e.g. a
    narrow feature that no early midpoint has hit yet) cannot stop the
    refinement; features narrower than that floor can still be missed, which
    is what the reported ``est_error`` cannot see.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    box = np.asarray(box, dtype=np.float64)
    lo, hi = box[:, 0], box[:, 1]
    widths = hi - lo
    if np.any(widths <= 0.0):
        raise ValueError(f"integration box has nonpositive side: {widths.tolist()}")
    K = lo.shape[0]
    min_level = max(1, math.ceil(10.0 / K))
    prev = None
    for level in range(max_levels + 1):
        m = 2**level
        if m**K > _MAX_POINTS_PER_LEVEL:
            raise QuadratureError(
                f"integration did not reach tol={tol:g} within the "
                f"{_MAX_POINTS_PER_LEVEL} points-per-level budget (K={K})"
            )
        value = _midpoint_level(integrand, lo, widths, m)
        if level > min_level and abs(value - prev) < tol:
            return QuadratureResult(value=value, est_error=abs(value - prev), grid_cells=m**K)
        prev = value
    raise QuadratureError(f"integration did not converge in {max_levels} refinement levels")


def _neg_xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0.0
    out[pos] = -v[pos] * np.log(v[pos])
    return out


def numeric_entropy(model: DensityModel, tol: float = 1e-6) -> QuadratureResult:
    """Differential entropy -integral(p log p) over the model's support box."""
    return integrate_box(lambda pts: _neg_xlogx(model.pdf(pts)), model.support, tol)


def numeric_kl(p: DensityModel, q: DensityModel, tol: float = 1e-10) -> QuadratureResult:
    """Relative entropy integral(p log(p/q)) over the union of the supports."""
    box = np.column_stack(
        [
            np.minimum(p.support[:, 0], q.support[:, 0]),
            np.maximum(p.support[:, 1], q.support[:, 1]),
        ]
    )

    def integrand(pts):
        vp = p.pdf(pts)
        vq = q.pdf(pts)
        mask = vp > 0.0
        if np.any(mask & (vq <= 0.0)):
            raise ValueError("relative entropy undefined: p has mass where q vanishes")
        out = np.zeros_like(vp)
        out[mask] = vp[mask] * (np.log(vp[mask]) - np.log(vq[mask]))
        return out

    return integrate_box(integrand, box, tol)


# ---------------------------------------------------------------------------
# Quantized companion and the density-gap / sup checks
# ---------------------------------------------------------------------------


def _cell_masses(model: DensityModel, M: int, tol: float = 1e-10) -> np.ndarray:
    """Masses of the M^K grid cells of [0,1]^K under the model, by quadrature."""
    K = model.K
    masses = None
    # Resolve at least ~1024 grid points before trusting agreement, so
    # features narrower than a cell cannot fake convergence.
    per_axis_min = math.ceil(1024.0 ** (1.0 / K))
    g = max(1, math.ceil(per_axis_min / M))
    while True:
        per_axis = M * g
        if per_axis**K > _MAX_POINTS_PER_LEVEL:
            raise QuadratureError(
                f"cell-mass refinement exceeded the point budget at M={M}, K={K}"
            )
        centers = (np.arange(per_axis) + 0.5) / per_axis
        vals = np.concatenate([model.pdf(pts) for pts in _grid_chunks([centers] * K)])
        vals = vals.reshape((per_axis,) * K)
        # Average the g^K sub-points inside each of the M^K cells.
        blocked = vals.reshape(sum(((M, g) for _ in range(K)), ()))
        cell_means = blocked.mean(axis=tuple(range(1, 2 * K, 2)))
        new_masses = cell_means / float(M**K)
        if masses is not None and float(np.max(np.abs(new_masses - masses))) < tol:
            return new_masses
        masses = new_masses
        g *= 2


def quantized_companion(model: DensityModel, M: int, tol: float = 1e-10) -> DensityModel:
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
    masses = _cell_masses(model, M, tol)
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


def _interior_grid_axis(M: int, per_cell: int) -> np.ndarray:
    return (np.arange(M * per_cell) + 0.5) / (M * per_cell)


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
    axis = _interior_grid_axis(M, per_cell)
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
    quad_error: float
    alpha_ok: bool


def check_entropy_continuity(
    p: DensityModel, q: DensityModel, eps: float, A: float, tol: float = 1e-6
) -> ContinuityCheck:
    """Entropy difference |h(p) - h(q)| next to the bound eps * log(A / eps).

    ``eps`` must uniformly bound |p - q| and ``A`` must bound p (the caller
    establishes both, e.g. via check_density_gap and check_sup_bound).  The
    bound's derivation additionally wants eps/A <= alpha; that condition is
    reported via ``alpha_ok`` rather than enforced, since the inequality is
    loose enough to hold some way below the threshold.  Assert
    lhs <= rhs + quad_error (or + 2*tol).
    """
    if not (eps > 0.0) or not (A > 0.0):
        raise ValueError(f"eps and A must be positive, got eps={eps!r}, A={A!r}")
    hp = numeric_entropy(p, tol)
    hq = numeric_entropy(q, tol)
    return ContinuityCheck(
        lhs=abs(hp.value - hq.value),
        rhs=eps * math.log(A / eps),
        quad_error=hp.est_error + hq.est_error,
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
# Trapezoid entropy and the step-pair relative entropy
# ---------------------------------------------------------------------------


def trapezoid_model(c: float) -> DensityModel:
    """Density of u + w for u ~ U[0,1], w ~ U[0,c]: a trapezoid on [0, 1+c]."""
    if not (0.0 < c <= 1.0):
        raise ValueError(f"c must lie in (0, 1], got {c!r}")

    def pdf(x):
        pts = _points(x, 1)[:, 0]
        up = (pts >= 0.0) & (pts < c)
        flat = (pts >= c) & (pts < 1.0)
        down = (pts >= 1.0) & (pts <= 1.0 + c)
        out = np.zeros_like(pts)
        out[up] = pts[up] / c
        out[flat] = 1.0
        out[down] = (1.0 + c - pts[down]) / c
        return out

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return (rng.random(n) + c * rng.random(n)).reshape(-1, 1)

    return DensityModel(
        K=1,
        support=np.array([[0.0, 1.0 + c]]),
        pdf=pdf,
        sampler=sampler,
        analytic_entropy=None,
        name=f"trapezoid-{c:g}",
    )


def trapezoid_entropy(c: float, tol: float = 1e-9) -> float:
    """Entropy of the U[0,1] * U[0,c] convolution, by quadrature (exactly c/2)."""
    return numeric_entropy(trapezoid_model(c), tol).value


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

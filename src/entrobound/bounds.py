"""Closed-form confidence bound for histogram differential-entropy estimation.

For an L-Lipschitz density (l1 norm) supported on [0,1]^K, the plug-in
estimate computed from N samples binned on an M-step-per-axis grid deviates
from the true differential entropy by at most

    (L*K / 2M) * log(M * eta(K, L))            quantization bias
    + sqrt((2/N) * log(2/delta)) * log(N)      statistical deviation
    + log(1 + (M^K - 1) / N)                   empirical bias

with probability greater than 1 - delta, provided M >= 1/(alpha * eta(K, L)),
where

    eta(K, L) = (1/K) * (2 * (K+1)! / L)^(1/(K+1))
    alpha     = (sqrt(e^2 + 4) - e) / (2e)  ~ 0.120754 .

Making a ``BoundParams`` checks that condition, once, so ``total_bound``
takes it as met.  Each term's formula is one private function, shared by the
public term, ``total_bound`` and ``optimize_M``; the search forms eta, the
threshold and the statistical term once and evaluates only the two terms that
depend on M.

Everything here is in nats (natural log).  All functions are pure and safe to
call concurrently.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import ValidityError

__all__ = [
    "BoundParams",
    "ConfidenceBound",
    "alpha_const",
    "eta",
    "min_valid_M",
    "quantization_bias",
    "statistical_deviation",
    "empirical_bias",
    "total_bound",
    "optimize_M",
]

# Above this, (K+1)! no longer fits a float; switch to log-gamma.
_FACTORIAL_CUTOFF = 20
# Above this, M^K overflows a float; use the log-space form of the
# empirical-bias term.
_LOG_MK_CUTOFF = 700.0
# Relative distance from an integer within which min_valid_M settles the
# threshold's ceiling exactly: 2^9 times the float threshold's rounding unit.
_THRESHOLD_SLACK = 2.0**-44


def alpha_const() -> float:
    """Curvature constant (sqrt(e^2 + 4) - e) / (2e) of the bound's log terms."""
    e = math.e
    return (math.sqrt(e * e + 4.0) - e) / (2.0 * e)


def as_int(name: str, value, minimum: int = 1) -> int:
    """Coerce any integral type (incl. numpy integers) with a floor check."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _validate_K_L(K: int, L: float) -> int:
    K = as_int("dimension K", K)
    if not (L > 0.0) or math.isinf(L):
        raise ValueError(f"Lipschitz constant L must be positive and finite, got {L!r}")
    return K


def eta(K: int, L: float) -> float:
    """Scale factor (1/K) * (2 * (K+1)! / L)^(1/(K+1)).

    The factorial is evaluated exactly for K <= 20 and via ``lgamma`` above
    that, or when 2 * (K+1)! / L overflows a float (a subnormal L), so the
    result stays finite in high dimension and for tiny L.
    """
    K = _validate_K_L(K, L)
    if K <= _FACTORIAL_CUTOFF:
        ratio = 2.0 * math.factorial(K + 1) / L
        if ratio < math.inf:
            return ratio ** (1.0 / (K + 1)) / K
    log_val = (math.log(2.0) + math.lgamma(K + 2) - math.log(L)) / (K + 1)
    return math.exp(log_val) / K


def min_valid_M(K: int, L: float) -> int:
    """Smallest bin count per axis for which the confidence bound applies.

    That is the ceiling of the threshold 1/(alpha * eta(K, L)), at least 1.
    From 1/2 up, the float threshold is within ~70 ulps of the exact one
    (the most measured was 48, at K = 21), so its ceiling is exact unless it
    lies within ``_THRESHOLD_SLACK`` (relative) of an integer; there
    ``_exact_ceiling`` decides.
    """
    return _min_valid_M(K, L, eta(K, L))


def _min_valid_M(K: int, L: float, eta_KL: float) -> int:
    """``min_valid_M(K, L)`` given eta_KL = eta(K, L)."""
    threshold = 1.0 / (alpha_const() * eta_KL)
    if abs(threshold - round(threshold)) <= threshold * _THRESHOLD_SLACK:
        return max(1, _exact_ceiling(K, L))
    return max(1, math.ceil(threshold))


def _valid_eta(K: int, L: float, M: int) -> float:
    """eta(K, L), once M is known to meet the validity threshold.

    Raises ValidityError when M < min_valid_M(K, L).
    """
    eta_KL = eta(K, L)
    threshold = _min_valid_M(K, L, eta_KL)
    if M < threshold:
        raise ValidityError(
            f"M={M} is below the minimum bin count {threshold} for K={K}, L={L}; "
            "the confidence bound does not apply"
        )
    return eta_KL


def _exact_ceiling(K: int, L: float) -> int:
    """Ceiling of 1/(alpha * eta(K, L)) from a 60-digit ``decimal`` evaluation.

    (K+1)! is formed by K products at 60 digits, a few ms at K = 34000;
    above about that K the threshold lies in (22, 23) for every float L, so
    it is never near an integer.  A result within 1e-50 (relative) of an
    integer rounds up, so the answer is never below the exact ceiling.
    """
    import decimal

    K, L = operator.index(K), float(L)  # numpy scalars too
    with decimal.localcontext(decimal.Context(prec=60, Emax=decimal.MAX_EMAX)):
        D = decimal.Decimal
        e = D(1).exp()
        alpha = ((e * e + 4).sqrt() - e) / (2 * e)
        factorial = D(1)
        for i in range(2, K + 2):
            factorial *= i
        eta_exact = ((2 * factorial / D(L)).ln() / (K + 1)).exp() / K
        return math.ceil((1 + D("1e-50")) / (alpha * eta_exact))


@dataclass(frozen=True)
class BoundParams:
    """Parameters (K, L, M, N, delta) of one confidence-bound evaluation.

    K: dimension; L: Lipschitz constant w.r.t. the l1 norm; M: quantization
    steps per axis; N: sample count; delta: allowed failure probability.
    Construction checks each field, then raises ValidityError when M is
    below min_valid_M(K, L), so every instance meets the bound's condition.
    """

    K: int
    L: float
    M: int
    N: int
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _validate_K_L(self.K, self.L))
        object.__setattr__(self, "M", as_int("M", self.M))
        object.__setattr__(self, "N", as_int("N", self.N))
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        _valid_eta(self.K, self.L, self.M)


@dataclass(frozen=True)
class ConfidenceBound:
    """The three error terms of the bound and their exact sum, in nats."""

    quant_bias: float
    stat_dev: float
    emp_bias: float
    total: float


def quantization_bias(K: int, L: float, M: int) -> float:
    """Bias term (L*K / 2M) * log(M * eta(K, L)).

    Requires M >= min_valid_M(K, L), which guarantees M * eta >= 1/alpha > 1
    so the logarithm is positive; a smaller M raises ValidityError.  Where
    L * K overflows, the prefactor is formed as L / 2M first.
    """
    K = _validate_K_L(K, L)
    M = as_int("M", M)
    return _quantization_term(K, L, M, _valid_eta(K, L, M))


def _quantization_term(K: int, L: float, M: int, eta_KL: float) -> float:
    scale = L * K / (2.0 * M)
    if scale == math.inf:  # L * K overflows, the quotient does not
        scale = L / (2.0 * M) * K
    return scale * math.log(M * eta_KL)


def statistical_deviation(N: int, delta: float) -> float:
    """Deviation term sqrt((2/N) * log(2/delta)) * log(N).

    Holds with probability greater than 1 - delta for the plug-in entropy of
    N samples (bounded-differences concentration); zero at N = 1.  When
    2/delta overflows (a subnormal delta), log(2) - log(delta) is used.
    """
    N = as_int("N", N)
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    return _statistical_term(N, delta)


def _statistical_term(N: int, delta: float) -> float:
    ratio = 2.0 / delta
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(delta)
    return math.sqrt((2.0 / N) * log_ratio) * math.log(N)


def empirical_bias(K: int, M: int, N: int) -> float:
    """Bias term log(1 + (M^K - 1) / N), finite for any K, M.

    When K*log(M) exceeds the float range the algebraically equal form
    K*log(M) - log(N) + log1p((N-1) * M^-K) is used.
    """
    return _empirical_term(as_int("K", K), as_int("M", M), as_int("N", N))


def _empirical_term(K: int, M: int, N: int) -> float:
    if M == 1:
        return 0.0
    log_mk = K * math.log(M)
    if log_mk > _LOG_MK_CUTOFF:
        return log_mk - math.log(N) + math.log1p((N - 1) * math.exp(-log_mk))
    return math.log1p((M**K - 1) / N)


def total_bound(params: BoundParams) -> ConfidenceBound:
    """All three terms of the confidence bound, plus their sum.

    ``params`` met the validity threshold when it was constructed, so the
    terms are computed without checking it again.
    """
    K, L = params.K, params.L
    return _bound(K, L, params.M, params.N, params.delta, eta(K, L))


def _bound(K: int, L: float, M: int, N: int, delta: float, eta_KL: float) -> ConfidenceBound:
    """The three terms at a valid M, given eta_KL = eta(K, L), and their sum."""
    quant = _quantization_term(K, L, M, eta_KL)
    stat = _statistical_term(N, delta)
    emp = _empirical_term(K, M, N)
    return ConfidenceBound(quant, stat, emp, quant + stat + emp)


def optimize_M(K: int, L: float, N: int, delta: float) -> tuple[int, ConfidenceBound]:
    """Bin count minimizing the total bound for fixed (K, L, N, delta).

    Searches the integer range [min_valid_M, M_cap] where
    M_cap = max(min_valid_M, ceil((10*N)^(1/K))); beyond M_cap the empirical
    bias alone exceeds any gain from finer quantization.

    The search is a bisection, which relies on the total being unimodal in M
    over that range.  With q(M) = (L*K / 2M) log(M*eta) and
    e(M) = log(1 + (M^K - 1)/N) (the statistical term does not depend on M),
    the total's derivative is e'(M) * (1 - r(M)) with r = -q'/e' > 0, and

        d/dM log r(M) < (1/(log(M*eta) - 1) - 1) / M < 0

    because M*eta >= 1/alpha ~ 8.28 > e^2 on the valid range.  So r falls
    strictly, and the total strictly decreases and then strictly increases
    (either part may be empty).
    The bisection moves right when total(mid + 1) < total(mid) and left
    otherwise, so ties break toward smaller M (cheaper histograms).  It
    evaluates the total at most 2*ceil(log2(M_cap - min_valid_M + 1)) times,
    as q(M) + stat + e(M) with eta, the threshold and stat formed once per
    search: ``total_bound``'s float operations in its order.  The returned
    bound is ``total_bound``'s at the chosen M, formed from the same eta;
    that M is valid by construction, so the search decides the threshold
    once and builds no ``BoundParams``.
    """
    K = _validate_K_L(K, L)
    N = as_int("N", N, minimum=2)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")

    eta_KL = eta(K, L)
    lo = _min_valid_M(K, L, eta_KL)
    hi = max(lo, math.ceil((10.0 * N) ** (1.0 / K)))
    stat = _statistical_term(N, delta)

    def objective(M: int) -> float:
        return _quantization_term(K, L, M, eta_KL) + stat + _empirical_term(K, M, N)

    # Invariant: the smallest minimizer lies in [lo, hi].
    while lo < hi:
        mid = (lo + hi) // 2
        if objective(mid + 1) < objective(mid):
            lo = mid + 1
        else:
            hi = mid

    return lo, _bound(K, L, lo, N, delta, eta_KL)

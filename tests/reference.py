"""Reference code that only the tests read.

Slow or independent forms of what the package computes (the bin index of
one point; eta, the three bound terms and the validity threshold in
``decimal``), and helpers that no command needs: sample writers, the
trapezoid model, the relative entropy by quadrature and the collision
probabilities of the discrete MI adversary.
"""
import decimal
import math
from pathlib import Path

import numpy as np

from entrobound import histogram
from entrobound.bounds import as_int
from entrobound.cli import _fmt
from entrobound.densities import DensityModel, _points
from entrobound.oracle import QuadratureResult, integrate_box, numeric_entropy


def quantize_index(x, M: int) -> tuple[int, ...]:
    """Bin index of a single point: coordinate k maps to min(floor(M*x_k), M-1).

    Each coordinate is binned as a one-column row by ``histogram._bin_keys``.
    """
    M = histogram._bin_count(M)
    point = histogram._as_points(np.reshape(np.asarray(x, dtype=np.float64), (1, -1)))
    return tuple(int(i) for i in histogram._bin_keys(point.reshape(-1, 1), M))


def emit_f64le(path, samples) -> None:
    """Write samples as packed little-endian float64 rows (``cli.ingest`` round-trips)."""
    points = histogram._as_points(samples)
    Path(path).write_bytes(np.ascontiguousarray(points, dtype="<f8").tobytes())


def emit_csv(path, samples) -> None:
    """Write samples as CSV rows with round-trip-safe 17-digit floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in histogram._as_points(samples):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def numeric_kl(p: DensityModel, q: DensityModel, tol: float = 1e-10) -> QuadratureResult:
    """Relative entropy integral(p log(p/q)) over the union of the supports."""
    box = np.column_stack([
        np.minimum(p.support[:, 0], q.support[:, 0]),
        np.maximum(p.support[:, 1], q.support[:, 1]),
    ])

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

    return DensityModel(K=1, support=np.array([[0.0, 1.0 + c]]), pdf=pdf, sampler=sampler,
                        name=f"trapezoid-{c:g}")


def trapezoid_entropy(c: float, tol: float = 1e-9) -> float:
    """Entropy of the U[0,1] * U[0,c] convolution, by quadrature (exactly c/2)."""
    return numeric_entropy(trapezoid_model(c), tol).value


def collision_probability(M_bins: int, N: int) -> float:
    """Probability 1 - M!/(M^N (M-N)!) that N uniform draws from M bins collide."""
    M_bins = as_int("M_bins", M_bins)
    N = as_int("N", N)
    if N > M_bins:
        return 1.0
    i = np.arange(N, dtype=np.float64)
    return float(-math.expm1(np.sum(np.log1p(-i / M_bins))))


def collision_upper_bound(M_bins: int, N: int) -> float:
    """The bound 1 - ((M - N + 1) / M)^N on the collision probability."""
    if N > M_bins:
        return 1.0
    return -math.expm1(N * math.log((M_bins - N + 1) / M_bins))


# Digits of the decimal references: far beyond float64's 17.
_DIGITS = 60


def eta_exact(K: int, L: float) -> decimal.Decimal:
    """(1/K) * (2 * (K+1)! / L)^(1/(K+1)) at 60 digits, from the exact factorial."""
    with decimal.localcontext(decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX)):
        ratio = decimal.Decimal(2 * math.factorial(K + 1)) / decimal.Decimal(L)
        return (ratio.ln() / (K + 1)).exp() / K


def quantization_bias_exact(K: int, L: float, M: int) -> decimal.Decimal:
    """(L*K / 2M) * log(M * eta(K, L)) at 60 digits."""
    with decimal.localcontext(decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX)):
        return decimal.Decimal(L) * K / (2 * M) * (M * eta_exact(K, L)).ln()


def statistical_deviation_exact(N: int, delta: float) -> decimal.Decimal:
    """sqrt((2/N) * log(2/delta)) * log(N) at 60 digits."""
    with decimal.localcontext(decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX)):
        D = decimal.Decimal
        return (2 / D(N) * (2 / D(delta)).ln()).sqrt() * D(N).ln()


def empirical_bias_exact(K: int, M: int, N: int) -> decimal.Decimal:
    """log(1 + (M^K - 1) / N) at 60 digits, from the exact integer M^K."""
    with decimal.localcontext(decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX)):
        return (decimal.Decimal(N + M**K - 1) / N).ln()


def _alpha_exact() -> decimal.Decimal:
    e = decimal.Decimal(1).exp()
    return ((e * e + 4).sqrt() - e) / (2 * e)


def threshold_exact(K: int, L: float) -> decimal.Decimal:
    """The validity threshold 1/(alpha * eta(K, L)) at 60 digits."""
    with decimal.localcontext(decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX)):
        return 1 / (_alpha_exact() * eta_exact(K, L))


def lipschitz_at_threshold(K: int, n: int) -> float:
    """The float nearest the L whose exact validity threshold is n.

    Solves 1/(alpha * eta(K, L)) = n: L = 2 * (K+1)! * (alpha * n / K)^(K+1).
    """
    with decimal.localcontext(decimal.Context(prec=_DIGITS, Emax=decimal.MAX_EMAX)):
        return float(2 * math.factorial(K + 1) * (_alpha_exact() * n / K) ** (K + 1))

"""Evaluable, sampleable densities: smooth test models and adversarial mixtures.

Two families live here.  The first is Lipschitz test densities with known
entropy (products of one-dimensional tents), used to exercise the estimator
under its stated assumptions.  The second is the contamination constructions
that defeat any fixed estimator: a Bernoulli mixture that hides an arbitrarily
low-entropy component on the mirrored orthant, a joint sampler whose mutual
information is driven by a rare dependent component, a random-codebook pair
with one discrete coordinate, and a pair of step densities with arbitrarily
large relative entropy.

Models are immutable; samplers take an explicit seed (no global RNG state),
so parallel trials with split seeds are reproducible.  The tent samplers
draw in place: they turn the fresh array of uniform draws into the sample
itself, with no second (N, K) array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import as_int
from .errors import OutOfSupportError
from .rng import generator

__all__ = [
    "DensityModel",
    "ContaminationSpec",
    "RescaleResult",
    "tent_density",
    "uniform_density",
    "low_entropy_alt",
    "prop1_mixture",
    "binary_entropy",
    "disjoint_mixture_entropy",
    "ContinuousMiAdversary",
    "mi_adversary",
    "DiscreteMiAdversary",
    "discrete_mi_adversary",
    "collision_probability",
    "kl_step_pair",
    "sample",
    "affine_rescale",
]


@dataclass(frozen=True, eq=False)
class DensityModel:
    """A probability density with support box, pdf, and seeded sampler.

    ``pdf`` maps an (n, K) array of points to an (n,) array of density
    values (zero outside the support).  ``sampler`` maps a numpy Generator
    and a count to an (n, K) array of i.i.d. draws.  ``lipschitz_L`` is an
    l1-norm Lipschitz constant when one is known, ``analytic_entropy`` the
    exact differential entropy in nats when available, and ``cdf`` a
    marginal CDF for one-dimensional models.
    """

    K: int
    support: np.ndarray
    pdf: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    lipschitz_L: float | None = None
    analytic_entropy: float | None = None
    cdf: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""


def _points(x, K: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if K == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != K:
        raise ValueError(f"expected points of dimension {K}, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Tent densities
# ---------------------------------------------------------------------------


def _tent1_pdf(t: np.ndarray) -> np.ndarray:
    # 4t on [0, 1/2], 4(1-t) on [1/2, 1], zero elsewhere
    inside = (t >= 0.0) & (t <= 1.0)
    return np.where(inside, 4.0 * np.minimum(t, 1.0 - t), 0.0)


def _tent1_cdf(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return np.where(t <= 0.5, 2.0 * t * t, 1.0 - 2.0 * (1.0 - t) ** 2)


def _tent1_ppf(u: np.ndarray) -> np.ndarray:
    """Tent inverse CDF, written over ``u`` in place; returns ``u``.

    The reference form is ``where(u <= 1/2, sqrt(u/2), 1 - sqrt((1-u)/2))``,
    which evaluates both branches on every draw.  Here ``c = rint(u)`` is 0
    for u <= 1/2 (the tie at 1/2 rounds to even) and 1 above, and each step
    is the reference's own IEEE operation on the same operands, so on the
    domain [0, 1] the result is bit-identical:

    - ``|u - c|`` is u, or 1 - u exactly (Sterbenz: 1/2 <= u <= 1);
    - halving it equals dividing it by 2, as both are correctly rounded;
    - one square root s;
    - ``|c - s|`` is s, or 1 - s with s <= 1/2.

    The only difference is that -0.0 maps to +0.0; ``Generator.random``
    never returns -0.0.  One temporary, ``c``, is allocated.
    """
    c = np.rint(u)
    np.subtract(u, c, out=u)
    np.abs(u, out=u)
    np.multiply(u, 0.5, out=u)
    np.sqrt(u, out=u)
    np.subtract(c, u, out=u)
    np.abs(u, out=u)
    return u


def tent_density(K: int) -> DensityModel:
    """Product of one-dimensional tents on [0,1]^K.

    Per coordinate the pdf is 4t on [0, 1/2] and 4(1-t) on [1/2, 1]; the
    product is 2^(K+1)-Lipschitz w.r.t. the l1 norm and has exact entropy
    K * (1/2 - log 2).  Sampling is by per-coordinate inverse CDF, computed
    in place over the uniform draws.
    """
    K = as_int("dimension K", K)

    def pdf(x):
        pts = _points(x, K)
        return np.prod(_tent1_pdf(pts), axis=1)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return _tent1_ppf(rng.random((n, K)))

    return DensityModel(
        K=K,
        support=np.array([[0.0, 1.0]] * K),
        pdf=pdf,
        sampler=sampler,
        lipschitz_L=float(2 ** (K + 1)),
        analytic_entropy=K * (0.5 - math.log(2.0)),
        cdf=(lambda t: _tent1_cdf(np.asarray(t, dtype=np.float64))) if K == 1 else None,
        name="tent",
    )


def uniform_density(K: int) -> DensityModel:
    """Uniform (step) model on [0,1]^K with entropy exactly zero."""
    K = as_int("dimension K", K)

    def pdf(x):
        pts = _points(x, K)
        inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
        return np.where(inside, 1.0, 0.0)

    return DensityModel(
        K=K,
        support=np.array([[0.0, 1.0]] * K),
        pdf=pdf,
        sampler=lambda rng, n: rng.random((n, K)),
        lipschitz_L=None,
        analytic_entropy=0.0,
        cdf=(lambda t: np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)) if K == 1 else None,
        name="uniform",
    )


def _scaled_tent(K: int, s: float, entropy: float) -> DensityModel:
    """Tent compressed onto [0, s]^K; entropy supplied exactly by the caller."""
    if s <= 0.0 or K * math.log(s) < -700.0:
        # Either s underflowed outright or the peak s^-K exceeds the float
        # range: the model degenerates to a point mass at the origin.
        # Sampling emits the correctly rounded value 0.0 and the entropy
        # bookkeeping stays exact, but no density values or Lipschitz
        # constant exist.
        def pdf_degenerate(x):
            pts = _points(x, K)
            at_origin = np.all(pts == 0.0, axis=1)
            return np.where(at_origin, np.inf, 0.0)

        return DensityModel(
            K=K,
            support=np.array([[0.0, 0.0]] * K),
            pdf=pdf_degenerate,
            sampler=lambda rng, n: np.zeros((n, K)),
            lipschitz_L=None,
            analytic_entropy=entropy,
            name="scaled-tent-degenerate",
        )

    scale = s ** (-float(K))
    log_lipschitz = (K + 1) * (math.log(2.0) - math.log(s))
    lipschitz = math.exp(log_lipschitz) if log_lipschitz <= 700.0 else None

    def pdf(x):
        pts = _points(x, K)
        out = np.zeros(pts.shape[0])
        inside = np.all((pts >= 0.0) & (pts <= s), axis=1)
        if inside.any():
            u = pts[inside] / s
            out[inside] = np.prod(_tent1_pdf(u), axis=1) * scale
        return out

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        u = _tent1_ppf(rng.random((n, K)))
        u *= s
        return u

    return DensityModel(
        K=K,
        support=np.array([[0.0, s]] * K),
        pdf=pdf,
        sampler=sampler,
        lipschitz_L=lipschitz,
        analytic_entropy=entropy,
        cdf=(lambda t: _tent1_cdf(np.asarray(t, dtype=np.float64) / s)) if K == 1 else None,
        name=f"tent-scaled-{s:g}",
    )


def low_entropy_alt(K: int, target_h: float) -> DensityModel:
    """Tent compressed onto [0, s]^K so that its entropy equals ``target_h``.

    Solving K*(1/2 - log 2) + K*log(s) = target_h gives
    s = 2 * exp(target_h / K - 1/2).  Requires target_h <= K*(1/2 - log 2)
    (the uncompressed tent); arbitrarily negative targets are accepted as
    long as they are finite, with s underflowing to the degenerate
    point-mass limit once target_h / K falls below roughly -744.
    """
    K = as_int("dimension K", K)
    if not math.isfinite(target_h):
        raise ValueError(f"target entropy must be finite, got {target_h!r}")
    h_max = K * (0.5 - math.log(2.0))
    if target_h > h_max + 1e-12:
        raise ValueError(
            f"target entropy {target_h} exceeds the maximum {h_max} attainable "
            f"by a compressed tent in dimension {K}"
        )
    s = 2.0 * math.exp(min(0.0, target_h / K - 0.5))
    s = min(s, 1.0)
    return _scaled_tent(K, s, float(target_h))


# ---------------------------------------------------------------------------
# Contamination mixture
# ---------------------------------------------------------------------------


def binary_entropy(eps: float) -> float:
    """Entropy of a Bernoulli(eps) variable in nats, with H(0) = H(1) = 0."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log(eps) - (1.0 - eps) * math.log1p(-eps)


def disjoint_mixture_entropy(h_base: float, h_alt: float, eps: float) -> float:
    """Exact entropy of a two-piece mixture whose pieces have disjoint supports.

    h = H_b(eps) + (1 - eps) * h_base + eps * h_alt; exact because the mixing
    indicator is a deterministic function of the sample location.
    """
    return binary_entropy(eps) + (1.0 - eps) * h_base + eps * h_alt


@dataclass(frozen=True)
class ContaminationSpec:
    """Recipe x = q * x_base - (1 - q) * x_alt with q ~ Bernoulli(1 - epsilon).

    ``base`` and ``alt`` must live on the nonnegative orthant with known
    entropies; the alternative is reflected to the negative orthant so the
    two pieces are disjoint and the mixture entropy is exact.  ``a`` records
    the entropy gap |h_alt - h_base| the construction is meant to realize.
    """

    base: DensityModel
    alt: DensityModel
    epsilon: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")
        if self.base.K != self.alt.K:
            raise ValueError("base and alt must have the same dimension")
        for model, label in ((self.base, "base"), (self.alt, "alt")):
            if model.analytic_entropy is None:
                raise ValueError(f"{label} model needs a known entropy")
            if np.any(model.support[:, 0] < 0.0):
                raise ValueError(f"{label} model must live on the nonnegative orthant")
        gap = abs(self.alt.analytic_entropy - self.base.analytic_entropy)
        if gap < self.a * (1.0 - 1e-12):
            raise ValueError(
                f"entropy gap {gap} is smaller than the required gap a={self.a}"
            )


def prop1_mixture(spec: ContaminationSpec) -> DensityModel:
    """Mixture drawing from ``base`` w.p. 1 - epsilon, else from ``-alt``.

    The two pieces occupy opposite orthants, so the entropy
    H_b(eps) + (1 - eps) * h_base + eps * h_alt is exact.  When both pieces
    vanish on the coordinate hyperplanes (tents do), the mixture is
    Lipschitz with constant max((1-eps) * L_base, eps * L_alt).
    """
    base, alt, eps = spec.base, spec.alt, spec.epsilon
    K = base.K
    support = np.column_stack([-alt.support[:, 1], base.support[:, 1]])

    def pdf(x):
        pts = _points(x, K)
        out = np.zeros(pts.shape[0])
        pos = np.all(pts >= 0.0, axis=1)
        neg = np.all(pts <= 0.0, axis=1) & ~pos
        if pos.any():
            out[pos] = (1.0 - eps) * base.pdf(pts[pos])
        if neg.any():
            out[neg] = eps * alt.pdf(-pts[neg])
        return out

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        from_base = rng.random(n) < (1.0 - eps)
        n_base = int(from_base.sum())
        out = np.empty((n, K))
        out[from_base] = base.sampler(rng, n_base)
        out[~from_base] = -alt.sampler(rng, n - n_base)
        return out

    lipschitz = None
    if base.lipschitz_L is not None and alt.lipschitz_L is not None:
        candidate = max((1.0 - eps) * base.lipschitz_L, eps * alt.lipschitz_L)
        if math.isfinite(candidate):
            lipschitz = candidate

    cdf = None
    if K == 1 and base.cdf is not None and alt.cdf is not None:
        def cdf(t):
            t = np.asarray(t, dtype=np.float64)
            neg_part = eps * (1.0 - alt.cdf(-t))
            pos_part = eps + (1.0 - eps) * base.cdf(t)
            return np.where(t < 0.0, neg_part, pos_part)

    return DensityModel(
        K=K,
        support=support,
        pdf=pdf,
        sampler=sampler,
        lipschitz_L=lipschitz,
        analytic_entropy=disjoint_mixture_entropy(
            base.analytic_entropy, alt.analytic_entropy, eps
        ),
        cdf=cdf,
        name="contamination-mixture",
    )


# ---------------------------------------------------------------------------
# Mutual-information adversaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousMiAdversary:
    """Joint law of (x, y) with y = q*z - (1-q)*(x + w).

    x, z ~ U[0,1] and w ~ U[0, e^-a] independent, q ~ Bernoulli(1 - epsilon).
    With probability 1 - epsilon the pair is independent; the rare dependent
    branch carries mutual information a*epsilon + epsilon*h(x + w) exactly.
    """

    a: float
    epsilon: float
    noise_width: float
    true_mi: float

    def sample(self, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. pairs (x, y), deterministic given the seed."""
        rng = generator(seed)
        x = rng.random(n)
        z = rng.random(n)
        w = rng.random(n) * self.noise_width
        q = rng.random(n) < (1.0 - self.epsilon)
        y = np.where(q, z, -(x + w))
        return x, y


def mi_adversary(a: float, epsilon: float) -> ContinuousMiAdversary:
    """Adversarial joint sampler whose true mutual information is epsilon*(a + h_trap).

    h_trap is the entropy of x + w (a trapezoid obtained by convolving U[0,1]
    with U[0, e^-a]), exactly c/2 for c = e^-a; it vanishes with e^-a, so the
    mutual information is bounded below by a * epsilon.
    """
    if not (a >= 0.0) or not math.isfinite(a):
        raise ValueError(f"a must be a finite nonnegative real, got {a!r}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    c = math.exp(-a)
    return ContinuousMiAdversary(
        a=float(a), epsilon=float(epsilon), noise_width=c, true_mi=epsilon * (a + c / 2.0)
    )


@dataclass(frozen=True)
class DiscreteMiAdversary:
    """Pair (x, y) with x ~ U[0,1] and y the codebook letter of x's bin.

    y = v_z with z = 1 + floor(M*x) is a deterministic function of x, so the
    true mutual information equals the entropy of the codebook's letter
    frequencies (log K in the limit of a balanced codebook).  Estimators only
    see the dependence once two samples collide in a bin.
    """

    M_bins: int
    K_alphabet: int
    codebook: np.ndarray = field(repr=False)
    true_mi: float

    def sample(self, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. pairs (x, y); y takes values in {1, ..., K_alphabet}."""
        rng = generator(seed)
        x = rng.random(n)
        z = np.minimum(np.floor(self.M_bins * x).astype(np.int64), self.M_bins - 1)
        return x, self.codebook[z]

    def collision_probability(self, N: int) -> float:
        """Exact probability that two of N samples share a bin."""
        return collision_probability(self.M_bins, N)

    def collision_upper_bound(self, N: int) -> float:
        """The bound 1 - ((M - N + 1) / M)^N on the collision probability."""
        if N > self.M_bins:
            return 1.0
        return -math.expm1(N * math.log((self.M_bins - N + 1) / self.M_bins))


def collision_probability(M_bins: int, N: int) -> float:
    """Probability 1 - M!/(M^N (M-N)!) that N uniform bin draws collide."""
    M_bins = as_int("M_bins", M_bins)
    N = as_int("N", N)
    if N > M_bins:
        return 1.0
    i = np.arange(N, dtype=np.float64)
    return float(-math.expm1(np.sum(np.log1p(-i / M_bins))))


def discrete_mi_adversary(M_bins: int, K_alphabet: int, seed: int) -> DiscreteMiAdversary:
    """Random-codebook adversary: v ~ U({1..K}^M) drawn from the seed."""
    M_bins = as_int("M_bins", M_bins)
    K_alphabet = as_int("K_alphabet", K_alphabet, minimum=2)
    codebook = generator(seed).integers(1, K_alphabet + 1, size=M_bins)
    freqs = np.bincount(codebook, minlength=K_alphabet + 1)[1:] / M_bins
    from .oracle import exact_discrete_entropy

    true_mi = exact_discrete_entropy(freqs)
    return DiscreteMiAdversary(
        M_bins=M_bins, K_alphabet=K_alphabet, codebook=codebook, true_mi=true_mi
    )


# ---------------------------------------------------------------------------
# Relative-entropy step pair
# ---------------------------------------------------------------------------


def _step_density(pos_mass: float, name: str) -> DensityModel:
    """Two-level density on [-1, 1): mass ``pos_mass`` uniform on [0, 1)."""
    neg_mass = 1.0 - pos_mass

    def pdf(x):
        pts = _points(x, 1)[:, 0]
        out = np.zeros_like(pts)
        out[(pts >= -1.0) & (pts < 0.0)] = neg_mass
        out[(pts >= 0.0) & (pts < 1.0)] = pos_mass
        return out

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=np.float64), -1.0, 1.0)
        return np.where(t < 0.0, neg_mass * (t + 1.0), neg_mass + pos_mass * t)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        neg = u < neg_mass
        vals = np.where(neg, u / neg_mass - 1.0, (u - neg_mass) / max(pos_mass, 1e-300))
        return vals.reshape(-1, 1)

    entropy = 0.0
    for mass in (pos_mass, neg_mass):
        if mass > 0.0:
            entropy -= mass * math.log(mass)

    return DensityModel(
        K=1,
        support=np.array([[-1.0, 1.0]]),
        pdf=pdf,
        sampler=sampler,
        lipschitz_L=None,
        analytic_entropy=entropy,
        cdf=cdf,
        name=name,
    )


def kl_step_pair(a: float, k: float) -> tuple[DensityModel, DensityModel]:
    """Step densities p, q on [-1, 1) with relative entropy D(a, k) >= k - 1/e.

    p puts mass e^-a uniformly on [0, 1) and the rest on [-1, 0); q does the
    same with e^-(a + b) where b = k * e^a.  Both are exactly evaluable and
    sampleable.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"a must be a positive finite real, got {a!r}")
    if not (k > 0.0) or not math.isfinite(k):
        raise ValueError(f"k must be a positive finite real, got {k!r}")
    b = k * math.exp(a)
    p = _step_density(math.exp(-a), name=f"kl-step-p(a={a:g})")
    q = _step_density(math.exp(-a - b), name=f"kl-step-q(a={a:g},k={k:g})")
    return p, q


# ---------------------------------------------------------------------------
# Sampling and rescaling
# ---------------------------------------------------------------------------


def sample(model: DensityModel, N: int, seed: int) -> np.ndarray:
    """N i.i.d. draws from the model as an (N, K) array, deterministic in seed."""
    N = as_int("N", N)
    out = np.asarray(model.sampler(generator(seed), N), dtype=np.float64)
    if out.shape != (N, model.K):
        raise RuntimeError(
            f"sampler for {model.name!r} returned shape {out.shape}, "
            f"expected {(N, model.K)}"
        )
    return out


@dataclass(frozen=True, eq=False)
class RescaleResult:
    """Samples mapped into [0,1]^K plus the bookkeeping of the affine map.

    ``lipschitz_scale`` multiplies the original Lipschitz constant: the
    rescaled density is p_hat(u) = p(lo + s*u) * prod(s), so
    L_new = L * max(s) * prod(s).  ``entropy_offset`` is sum(log(s_k)): an
    estimate on the rescaled data plus this offset estimates the entropy of
    the original data.
    """

    samples: np.ndarray
    lipschitz_scale: float
    entropy_offset: float


def affine_rescale(samples, box) -> RescaleResult:
    """Map samples inside an axis-aligned box onto [0,1]^K.

    Coordinate k maps to (x_k - lo_k) / s_k with s_k the box side length.
    Samples outside the box are an error, not clamped.
    """
    box = np.asarray(box, dtype=np.float64)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"box must have shape (K, 2), got {box.shape}")
    sides = box[:, 1] - box[:, 0]
    if np.any(sides <= 0.0):
        raise ValueError(f"box sides must be positive, got {sides.tolist()}")
    pts = _points(samples, box.shape[0])
    if np.any(pts < box[:, 0]) or np.any(pts > box[:, 1]):
        raise OutOfSupportError("sample outside the rescale box")
    rescaled = (pts - box[:, 0]) / sides
    return RescaleResult(
        samples=rescaled,
        lipschitz_scale=float(np.max(sides) * np.prod(sides)),
        entropy_offset=float(np.sum(np.log(sides))),
    )

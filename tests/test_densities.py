"""Density models: exact entropies, Lipschitz constants, samplers, adversaries."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from entrobound import (
    ContaminationSpec,
    OutOfSupportError,
    affine_rescale,
    binary_entropy,
    discrete_mi_adversary,
    disjoint_mixture_entropy,
    estimate_entropy_certified,
    integrate_box,
    kl_step_pair,
    low_entropy_alt,
    mi_adversary,
    numeric_entropy,
    prop1_mixture,
    sample,
    tent_density,
    uniform_density,
)
from entrobound.densities import _PPF_SLICE, DiscreteMiAdversary, LazySample, _tent1_ppf
from entrobound.rng import generator, split
from reference import collision_probability, collision_upper_bound, trapezoid_entropy

TENT_H1 = 0.5 - math.log(2.0)  # -0.19314718055994531


# SHA-256 of sample(model, 10_000, 20261019).tobytes(), recorded before the
# tent samplers drew in place.
SAMPLE_DIGESTS = {
    "tent-1": "9f111e2e61eab68c14288e75a6a4a0ca8ebb70561161390d72738c9783f44c68",
    "tent-2": "3ef6009a662fc466a91cc8feab926593f8cdaefc3dcca15a91b9887e4d4bb825",
    "tent-3": "4e67359301cdffdecf7011ac26a5305783acda9d5d47174930b58d6959a50677",
    "low-entropy-alt-2": "528602fdaf4345ae7c56319fb0b0727c27a703411e65279cf4c07bdfb12ee023",
    "prop1-mixture-2": "ea9a3783f9c5fd4b4ee78c2c921c901025369e221130b97e156d190bfdd50ec9",
    "uniform-2": "7fca734349a806949f263ae728fddf0fb6deb063296bbf4d42eba95d40935293",
}


def _models_with_pdfs():
    tent1 = tent_density(1)
    alt = low_entropy_alt(1, -1.0)
    p_step, q_step = kl_step_pair(2.0, 1.0)
    return [
        tent1,
        tent_density(2),
        uniform_density(1),
        alt,
        prop1_mixture(ContaminationSpec(tent1, alt, 0.3, a=abs(-1.0 - TENT_H1))),
        p_step,
        q_step,
    ]


# CDFs of the one-dimensional models, for the KS test of their samplers.
def _ref_tent1_cdf(t):
    t = np.clip(t, 0.0, 1.0)
    return np.where(t <= 0.5, 2.0 * t * t, 1.0 - 2.0 * (1.0 - t) ** 2)


def _ref_cdf(kind, s):
    if kind == "uniform":
        return lambda t: np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    return lambda t: _ref_tent1_cdf(np.asarray(t, dtype=np.float64) / s)


def _ref_mixture_cdf(base_cdf, alt_cdf, eps):
    """CDF of the 1-D contamination mixture: base w.p. 1 - eps, else -alt."""
    def cdf(t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t < 0.0, eps * (1.0 - alt_cdf(-t)), eps + (1.0 - eps) * base_cdf(t))
    return cdf


def _ref_step_cdf(pos_mass):
    """CDF of the step density with mass pos_mass on [0, 1) and the rest on [-1, 0)."""
    neg_mass = 1.0 - pos_mass

    def cdf(t):
        t = np.clip(np.asarray(t, dtype=np.float64), -1.0, 1.0)
        return np.where(t < 0.0, neg_mass * (t + 1.0), neg_mass + pos_mass * t)
    return cdf


def _models_with_cdfs():
    """The one-dimensional models of _models_with_pdfs, each with its CDF."""
    tent1, _, uniform1, alt, mixture, p_step, q_step = _models_with_pdfs()
    alt_cdf = _ref_cdf("scaled", alt.support[0, 1])
    return [
        (tent1, _ref_cdf("tent", 1.0)),
        (uniform1, _ref_cdf("uniform", 1.0)),
        (alt, alt_cdf),
        (mixture, _ref_mixture_cdf(_ref_cdf("tent", 1.0), alt_cdf, 0.3)),
        (p_step, _ref_step_cdf(math.exp(-2.0))),
        (q_step, _ref_step_cdf(math.exp(-2.0 - math.exp(2.0)))),
    ]


class TestTentDensity:
    def test_entropy_closed_form(self):
        assert tent_density(1).analytic_entropy == pytest.approx(TENT_H1, abs=1e-15)
        assert tent_density(1).analytic_entropy == pytest.approx(-0.19315, abs=1e-5)
        assert tent_density(2).analytic_entropy == pytest.approx(2 * TENT_H1, abs=1e-15)

    def test_pdf_points(self):
        pdf = tent_density(1).pdf
        assert pdf(np.array([[0.5]]))[0] == 2.0
        assert pdf(np.array([[0.0]]))[0] == 0.0
        assert pdf(np.array([[1.0]]))[0] == 0.0
        assert pdf(np.array([[1.2]]))[0] == 0.0

    def test_lipschitz_constant(self):
        assert tent_density(1).lipschitz_L == 4.0
        assert tent_density(2).lipschitz_L == 8.0

    def test_lipschitz_constant_up_to_float_range(self):
        for K in (1, 52, 53, 1021, 1022):
            assert tent_density(K).lipschitz_L == float(2 ** (K + 1))

    @pytest.mark.parametrize("K", [1023, 1100, 10**400], ids=["1023", "1100", "400-digit"])
    def test_lipschitz_constant_beyond_float_range(self, K):
        """2^(K+1) is never built as an exact integer: a huge K fails at once."""
        with pytest.raises(OverflowError, match=r"^dimension K = \d+ is too large: L = 2\^\(K\+1\)"):
            tent_density(K)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tent_density(0)


class TestModelInvariants:
    @pytest.mark.parametrize("model", _models_with_pdfs(), ids=lambda m: m.name)
    def test_pdf_integrates_to_one(self, model):
        total = integrate_box(model.pdf, model.support, tol=1e-8).value
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "model",
        [m for m in _models_with_pdfs() if m.lipschitz_L is not None],
        ids=lambda m: m.name,
    )
    def test_lipschitz_grid_check(self, model):
        """|p(x) - p(y)| <= L * ||x - y||_1 over 1e5 random pairs."""
        rng = generator(42)
        lo, hi = model.support[:, 0], model.support[:, 1]
        x = lo + rng.random((10**5, model.K)) * (hi - lo)
        y = lo + rng.random((10**5, model.K)) * (hi - lo)
        num = np.abs(model.pdf(x) - model.pdf(y))
        den = np.abs(x - y).sum(axis=1)
        keep = den > 0
        assert np.all(num[keep] <= model.lipschitz_L * (1 + 1e-9) * den[keep])

    @pytest.mark.parametrize(
        "model, cdf",
        [pytest.param(m, cdf, id=m.name) for m, cdf in _models_with_cdfs()],
    )
    def test_sampler_ks(self, model, cdf):
        """KS statistic of 1e5 draws against the model's CDF, fixed seed."""
        draws = sample(model, 10**5, 31415)[:, 0]
        result = stats.kstest(draws, cdf)
        assert result.pvalue > 0.001


class TestSampling:
    def test_deterministic(self):
        tent = tent_density(2)
        assert np.array_equal(sample(tent, 100, 9), sample(tent, 100, 9))

    def test_distinct_seeds_differ(self):
        tent = tent_density(1)
        for s in range(10):
            a, b = sample(tent, 50, 2 * s), sample(tent, 50, 2 * s + 1)
            assert not np.array_equal(a, b)

    def test_tent_mean(self):
        draws = sample(tent_density(1), 10**6, 77)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_split_streams_differ(self):
        assert split(3, 0) != split(3, 1)
        assert split(3, 0) == split(3, 0)

    @pytest.mark.parametrize("name", SAMPLE_DIGESTS)
    def test_sample_bits_pinned(self, name):
        """SHA-256 of the sample bytes; a 1-ulp change inside a bin shows here."""
        tent2, alt2 = tent_density(2), low_entropy_alt(2, -3.0)
        models = {
            "tent-1": tent_density(1),
            "tent-2": tent2,
            "tent-3": tent_density(3),
            "low-entropy-alt-2": alt2,
            "prop1-mixture-2": prop1_mixture(ContaminationSpec(
                tent2, alt2, 0.3, a=abs(-3.0 - tent2.analytic_entropy))),
            "uniform-2": uniform_density(2),
        }
        draws = sample(models[name], 10_000, 20261019)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[name]

    @pytest.mark.parametrize("rows", [2**15, 1000, 7])
    @pytest.mark.parametrize("name", ["tent-1", "tent-2", "tent-3", "low-entropy-alt-2",
                                      "uniform-2"])
    def test_lazy_sample_blocks_are_the_sample(self, name, rows):
        """The blocks of one running generator, drawn into one buffer, hold
        the pinned sample's bits, and a block ends where the sample does."""
        models = {"tent-1": tent_density(1), "tent-2": tent_density(2),
                  "tent-3": tent_density(3), "low-entropy-alt-2": low_entropy_alt(2, -3.0),
                  "uniform-2": uniform_density(2)}
        lazy = LazySample(models[name], 10_000, 20261019)
        assert lazy.shape == (10_000, models[name].K)
        starts, blocks = zip(*((start, block.copy()) for start, block in lazy.blocks(rows)))
        assert list(starts) == list(range(0, 10_000, rows))
        draws = np.concatenate(blocks)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[name]

    def test_draws_into_a_buffer_only_with_a_fill(self):
        tent = tent_density(1)
        mixture = prop1_mixture(ContaminationSpec(tent, low_entropy_alt(1, -1.0), 0.3,
                                                  a=abs(-1.0 - TENT_H1)))
        with pytest.raises(ValueError, match="cannot draw 4 rows of 'contamination-mixture'"):
            sample(mixture, 4, 1, out=np.empty((4, 1)))
        with pytest.raises(ValueError, match=r"into an array of shape \(4, 2\)"):
            sample(tent, 4, 1, out=np.empty((4, 2)))
        with pytest.raises(ValueError, match="cannot be drawn block by block"):
            LazySample(mixture, 4, 1)
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            LazySample(tent, 0, 1)

    def test_tent_ppf_matches_reference(self):
        """The in-place kernel against the two-branch formula, bit for bit."""
        def reference(u):
            return np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))

        half, one = np.array([0.5, 1.0]).view(np.int64)
        edges = np.concatenate([
            np.arange(0, 3001),                     # 0 and the smallest subnormals
            np.arange(half - 3000, half + 3001),    # both sides of 1/2
            np.arange(one - 3000, one + 1),         # up to and including 1.0
            generator(7).integers(1, 2**52, size=10**5),  # subnormals
            np.arange(2**52 - 3000, 2**52 + 3001),  # largest subnormals, smallest normals
        ]).astype(np.int64).view(np.float64)
        rng = generator(20261019)
        for block in range(11):
            u = edges if block == 0 else rng.random(10**6)
            expected = reference(u)
            got = _tent1_ppf(u)
            assert got is u
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


    def test_tent_ppf_memory_is_one_slice(self):
        """The passes run slice by slice: the only array allocated is the
        slice-sized temporary, whatever the size of u (here 2 x 10^5)."""
        u = generator(8).random((10**5, 2))
        tracemalloc.start()
        try:
            _tent1_ppf(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _PPF_SLICE + 4096  # the temporary and a few slice views


class TestLowEntropyAlt:
    def test_target_at_maximum_is_plain_tent(self):
        model = low_entropy_alt(1, TENT_H1)
        assert model.support[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert model.analytic_entropy == pytest.approx(TENT_H1, abs=1e-15)

    def test_scale_solution(self):
        model = low_entropy_alt(1, -2.0)
        assert model.support[0, 1] == pytest.approx(2 * math.exp(-2.5), abs=1e-15)
        assert model.support[0, 1] == pytest.approx(0.16417, abs=1e-5)

    def test_entropy_matches_quadrature(self):
        for target in (-0.5, -2.0, -4.0):
            model = low_entropy_alt(1, target)
            quad = numeric_entropy(model, tol=1e-7)
            assert quad.value == pytest.approx(target, abs=1e-4)

    def test_lipschitz_scaling(self):
        model = low_entropy_alt(1, -2.0)
        s = model.support[0, 1]
        assert model.lipschitz_L == pytest.approx(4.0 / s**2, rel=1e-12)

    def test_target_above_maximum_rejected(self):
        with pytest.raises(ValueError):
            low_entropy_alt(1, 0.0)

    def test_degenerate_machine_precision_limit(self):
        """Far below the float range the model collapses to a point mass."""
        model = low_entropy_alt(1, -5000.0)
        assert model.analytic_entropy == -5000.0
        assert model.lipschitz_L is None
        assert np.all(sample(model, 20, 4) == 0.0)

    def test_infinite_target_rejected(self):
        with pytest.raises(ValueError):
            low_entropy_alt(1, -math.inf)


# The pdfs as tent_density, uniform_density and the compressed tent each
# wrote them before one builder made all three; references for TestIidCube.
def _ref_tent1_pdf(t):
    inside = (t >= 0.0) & (t <= 1.0)
    return np.where(inside, 4.0 * np.minimum(t, 1.0 - t), 0.0)


def _ref_tent_pdf(pts, s, K):
    return np.prod(_ref_tent1_pdf(pts), axis=1)


def _ref_uniform_pdf(pts, s, K):
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    return np.where(inside, 1.0, 0.0)


def _ref_scaled_tent_pdf(pts, s, K):
    out = np.zeros(pts.shape[0])
    inside = np.all((pts >= 0.0) & (pts <= s), axis=1)
    if inside.any():
        out[inside] = np.prod(_ref_tent1_pdf(pts[inside] / s), axis=1) * s ** (-float(K))
    return out


def _ref_attributes(kind, K, h):
    """(support side, lipschitz_L, analytic_entropy, name) as the parent set them."""
    if kind == "tent":
        return 1.0, float(2 ** (K + 1)), K * (0.5 - math.log(2.0)), "tent"
    if kind == "uniform":
        return 1.0, None, 0.0, "uniform"
    s = min(2.0 * math.exp(min(0.0, h / K - 0.5)), 1.0)
    L = math.exp((K + 1) * (math.log(2.0) - math.log(s)))
    return s, L, float(h), f"tent-scaled-{s:g}"


def _probe_points(K, s):
    """Random points in and around [0, s]^K, and every K-tuple of edge values."""
    edges = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
             math.inf, -math.inf, math.nan, s, np.nextafter(s, 0.0),
             np.nextafter(s, 2.0), 0.5 * s, -0.5 * s]
    grid = np.array(np.meshgrid(*[edges] * K, indexing="ij")).reshape(K, -1).T
    wide = (generator(K).random((5000, K)) * 2.0 - 0.5) * s
    return np.vstack([grid, wide])


_IID_CUBE_CASES = (
    [("tent", K, None) for K in (1, 2, 3)]
    + [("uniform", K, None) for K in (1, 2, 3)]
    + [("scaled", K, h) for K in (1, 2, 3) for h in (-1.0, -4.0)]
)


class TestIidCube:
    """The one product-on-a-cube builder against the parent's three models."""

    @pytest.mark.parametrize("kind,K,h", _IID_CUBE_CASES)
    def test_matches_parent_formulas(self, kind, K, h):
        model = {"tent": lambda: tent_density(K), "uniform": lambda: uniform_density(K),
                 "scaled": lambda: low_entropy_alt(K, h)}[kind]()
        s, L, entropy, name = _ref_attributes(kind, K, h)
        assert np.array_equal(model.support, np.array([[0.0, s]] * K))
        assert model.lipschitz_L == L
        assert model.analytic_entropy == entropy
        assert model.name == name

        pts = _probe_points(K, s)
        reference = {"tent": _ref_tent_pdf, "uniform": _ref_uniform_pdf,
                     "scaled": _ref_scaled_tent_pdf}[kind]
        got, expected = model.pdf(pts), reference(pts, s, K)
        if kind == "scaled":
            # Equal under ==, not bit for bit: outside the box the parent
            # wrote +0.0, while the builder's product can give -0.0 when a
            # coordinate is -0.0 (the 1-D tent of -0.0 is -0.0).
            assert np.array_equal(got, expected)
        else:
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestContaminationMixture:
    def test_entropy_formula_edge_cases(self):
        assert disjoint_mixture_entropy(TENT_H1, -5.0, 0.0) == pytest.approx(TENT_H1)
        assert disjoint_mixture_entropy(0.0, 0.0, 0.5) == pytest.approx(math.log(2.0))
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
        assert binary_entropy(0.1) == pytest.approx(0.3250829733914482, abs=1e-12)

    def test_spec_example_value(self):
        # eps = 5e-4, base tent, alt entropy -20 (50-digit evaluation)
        value = disjoint_mixture_entropy(TENT_H1, -20.0, 5e-4)
        assert value == pytest.approx(-0.19875028076073284, abs=1e-12)

    def test_mixture_entropy_matches_quadrature(self):
        tent = tent_density(1)
        alt = low_entropy_alt(1, -1.0)
        for eps in (0.1, 0.5, 0.9):
            mix = prop1_mixture(ContaminationSpec(tent, alt, eps, a=abs(-1.0 - TENT_H1)))
            quad = numeric_entropy(mix, tol=1e-7)
            assert mix.analytic_entropy == pytest.approx(quad.value, abs=1e-5)

    def test_sampler_orthant_fractions(self):
        tent = tent_density(1)
        alt = low_entropy_alt(1, -1.0)
        mix = prop1_mixture(ContaminationSpec(tent, alt, 0.25, a=0.5))
        draws = sample(mix, 10**5, 123)[:, 0]
        frac_neg = float(np.mean(draws < 0))
        assert abs(frac_neg - 0.25) < 0.01

    def test_epsilon_zero_is_base(self):
        tent = tent_density(1)
        mix = prop1_mixture(ContaminationSpec(tent, low_entropy_alt(1, -1.0), 0.0))
        assert mix.analytic_entropy == pytest.approx(TENT_H1)
        assert np.all(sample(mix, 100, 5) >= 0.0)

    def test_spec_validation(self):
        tent = tent_density(1)
        alt = low_entropy_alt(1, -1.0)
        with pytest.raises(ValueError):
            ContaminationSpec(tent, alt, 1.0)
        with pytest.raises(ValueError):
            ContaminationSpec(tent, alt, 0.5, a=10.0)  # gap only ~0.8
        with pytest.raises(ValueError):
            ContaminationSpec(tent, tent_density(2), 0.5)


class TestMiAdversary:
    def test_true_mi_decomposition(self):
        adv = mi_adversary(3.0, 0.1)
        c = math.exp(-3.0)
        assert adv.true_mi == pytest.approx(0.1 * (3.0 + c / 2.0), rel=1e-15, abs=0.0)
        assert adv.true_mi == pytest.approx(0.1 * (3.0 + trapezoid_entropy(c)), abs=1e-6)

    def test_closed_form_where_quadrature_underflows(self):
        # Quadrature of the trapezoid entropy returns 0.0 from a = 9 on.
        expected = 0.1 * (9.0 + math.exp(-9.0) / 2.0)
        assert mi_adversary(9.0, 0.1).true_mi == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_lower_bound_a_eps(self):
        for a, eps in ((0.5, 0.3), (10.0, 1e-3), (2000.0, 5e-4)):
            assert mi_adversary(a, eps).true_mi >= a * eps

    def test_a_ten_example(self):
        assert mi_adversary(10.0, 1e-3).true_mi >= 0.01

    def test_a_zero_degenerates(self):
        adv = mi_adversary(0.0, 0.2)
        assert adv.noise_width == 1.0
        assert adv.true_mi == pytest.approx(0.2 * 0.5, abs=1e-6)

    def test_small_epsilon_small_mi(self):
        assert mi_adversary(1.0, 1e-6).true_mi < 2e-6

    def test_sampler(self):
        adv = mi_adversary(2.0, 0.3)
        x1, y1 = adv.sample(5, 2000)
        x2, y2 = adv.sample(5, 2000)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        dependent = float(np.mean(y1 < 0))
        assert abs(dependent - 0.3) < 0.04
        # dependent branch is -(x + w) with w in [0, e^-2]
        mask = y1 < 0
        w = -y1[mask] - x1[mask]
        assert np.all((w >= 0) & (w <= math.exp(-2.0) * (1 + 1e-12)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mi_adversary(-1.0, 0.1)
        with pytest.raises(ValueError):
            mi_adversary(1.0, 0.0)


class TestDiscreteMiAdversary:
    def _find_codebook(self, M, K, predicate, tries=200):
        for seed in range(tries):
            adv = discrete_mi_adversary(M, K, seed)
            if predicate(adv.codebook):
                return adv
        raise AssertionError("no seed produced the wanted codebook")

    def test_constant_codebook_zero_mi(self):
        adv = self._find_codebook(2, 2, lambda v: v[0] == v[1])
        assert adv.true_mi == 0.0
        _, y = adv.sample(3, 500)
        assert np.all(y == adv.codebook[0])

    def test_balanced_binary_codebook(self):
        adv = self._find_codebook(2, 2, lambda v: sorted(v.tolist()) == [1, 2])
        assert adv.true_mi == pytest.approx(math.log(2.0), abs=1e-12)

    def test_y_is_codebook_letter_of_bin(self):
        adv = discrete_mi_adversary(16, 3, seed=11)
        x, y = adv.sample(21, 1000)
        z = np.minimum((x * 16).astype(int), 15)
        assert np.array_equal(y, adv.codebook[z])

    def test_collision_probability_frozen(self):
        assert collision_probability(10**6, 10**3) == pytest.approx(
            0.39326702855852065, abs=1e-12
        )
        assert collision_probability(10**9, 10**3) == pytest.approx(
            0.000499375436977031, abs=1e-12
        )

    def test_collision_bound_dominates_exact(self):
        adv = discrete_mi_adversary(10**6, 2, seed=0)
        for N in (10, 100, 1000):
            bound = collision_upper_bound(adv.M_bins, N)
            assert collision_probability(adv.M_bins, N) <= bound + 1e-12
        assert collision_probability(5, 6) == 1.0

    def test_alphabet_guard(self):
        with pytest.raises(ValueError):
            discrete_mi_adversary(4, 1, seed=0)


class TestKlStepPair:
    def test_masses_integrate_to_one(self):
        p, q = kl_step_pair(2.0, 1.0)
        for model in (p, q):
            grid = np.linspace(-0.999, 0.999, 4001).reshape(-1, 1)
            total = integrate_box(model.pdf, model.support, tol=1e-9).value
            assert total == pytest.approx(1.0, abs=1e-9)
            assert np.all(model.pdf(grid) >= 0.0)

    def test_positive_level_frozen(self):
        _, q = kl_step_pair(2.0, 1.0)
        level = q.pdf(np.array([[0.5]]))[0]
        assert level == pytest.approx(8.363436155539919e-05, rel=1e-12)

    def test_sampler_masses(self):
        p, _ = kl_step_pair(2.0, 1.0)
        draws = sample(p, 10**5, 55)[:, 0]
        assert abs(float(np.mean(draws >= 0)) - math.exp(-2.0)) < 0.005
        assert np.all((draws >= -1.0) & (draws < 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_step_pair(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_step_pair(1.0, 0.0)


class TestAffineRescale:
    def test_identity_box(self):
        pts = sample(tent_density(2), 50, 1)
        res = affine_rescale(pts, [[0.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(res.samples, pts)
        assert res.lipschitz_scale == 1.0
        assert res.entropy_offset == 0.0

    def test_stretch_by_two(self):
        res = affine_rescale([[0.0], [1.0], [2.0]], [[0.0, 2.0]])
        assert np.allclose(res.samples[:, 0], [0.0, 0.5, 1.0])
        assert res.lipschitz_scale == 4.0
        assert res.entropy_offset == pytest.approx(math.log(2.0), abs=1e-15)

    def test_outside_box_rejected(self):
        with pytest.raises(OutOfSupportError):
            affine_rescale([[2.5]], [[0.0, 2.0]])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            affine_rescale([[0.0]], [[0.0, 0.0]])

    @given(case=st.integers(1, 3).flatmap(lambda K: st.tuples(
        st.just(K),
        # s = 2 exp(h/K - 1/2) runs from 1e-6 up to 1 (the plain tent).
        st.floats(K * (math.log(5e-7) + 0.5), K * (0.5 - math.log(2.0))),
    )), seed=st.integers(0, 2**32 - 1))
    def test_low_entropy_alt_bookkeeping(self, case, seed):
        """Rescaling a compressed tent by its box recovers the plain tent's L and h."""
        K, h = case
        model = low_entropy_alt(K, h)
        res = affine_rescale(sample(model, 200, seed), model.support)
        assert model.lipschitz_L * res.lipschitz_scale == pytest.approx(
            2.0 ** (K + 1), rel=1e-12)
        assert model.analytic_entropy - res.entropy_offset == pytest.approx(
            K * (0.5 - math.log(2.0)), rel=1e-12)
        assert np.all((res.samples >= 0.0) & (res.samples <= 1.0))

    def test_rescale_then_estimate_matches_direct(self):
        """Stretched-tent estimate plus offset agrees with the direct one."""
        tent = tent_density(1)
        pts = sample(tent, 20000, 99)
        stretched = 2.0 * pts
        res = affine_rescale(stretched, [[0.0, 2.0]])
        direct = estimate_entropy_certified(pts, 4.0, 0.1)
        rescaled = estimate_entropy_certified(res.samples, 4.0 * res.lipschitz_scale, 0.1)
        est_original_units = rescaled.estimate + res.entropy_offset
        # truth differs by exactly log 2; both certificates must cover it
        tolerance = direct.bound.total + rescaled.bound.total
        assert abs(est_original_units - math.log(2.0) - direct.estimate) <= tolerance

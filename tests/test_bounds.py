"""Closed-form bound arithmetic against independently frozen values.

Reference values were computed with 50-digit mpmath evaluations of the same
closed forms, frozen here as literals.
"""
import dataclasses
import decimal
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entrobound import (
    BoundParams,
    ConfidenceBound,
    ValidityError,
    alpha_const,
    empirical_bias,
    eta,
    min_valid_M,
    optimize_M,
    quantization_bias,
    statistical_deviation,
    total_bound,
)
from entrobound import bounds
from reference import (
    empirical_bias_exact,
    lipschitz_at_threshold,
    quantization_bias_exact,
    statistical_deviation_exact,
    threshold_exact,
)

ALPHA_50DIG = 0.12075380243427643


class TestAlphaConst:
    def test_frozen_value(self):
        assert alpha_const() == pytest.approx(ALPHA_50DIG, abs=1e-15)
        assert alpha_const() == pytest.approx(0.12075, abs=1e-5)

    def test_defining_quadratic(self):
        """alpha is the positive root of (2e*a + e)^2 = e^2 + 4."""
        a = alpha_const()
        e = math.e
        assert (2 * e * a + e) ** 2 == pytest.approx(e * e + 4.0, abs=1e-12)

    def test_range(self):
        assert 0.0 < alpha_const() < math.exp(-1.0)

    def test_pure(self):
        assert alpha_const() == alpha_const()


class TestEta:
    def test_hand_values(self):
        assert eta(1, 4.0) == pytest.approx(1.0, abs=1e-15)
        assert eta(1, 1.0) == pytest.approx(2.0, abs=1e-15)
        assert eta(2, 1.0) == pytest.approx(1.1447142425533319, abs=1e-5)

    def test_log_gamma_branch_continuous(self):
        """Exact-factorial and lgamma paths agree where they meet."""
        for K in (19, 20):
            exact = eta(K, 3.0)
            via_lgamma = math.exp(
                (math.log(2.0) + math.lgamma(K + 2) - math.log(3.0)) / (K + 1)
            ) / K
            assert exact == pytest.approx(via_lgamma, rel=1e-12)

    def test_no_overflow_high_dimension(self):
        value = eta(500, 2.0)
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("L", [5e-324, 1e-308])
    def test_ratio_overflow_takes_the_log_form(self, L):
        """When 2 * (K+1)! / L overflows, eta and the bias it feeds stay finite."""
        for K in (1, 2, 20):
            log_form = math.exp((math.log(2.0) + math.lgamma(K + 2) - math.log(L)) / (K + 1)) / K
            assert eta(K, L) == log_form
            assert math.isfinite(quantization_bias(K, L, 100))
        assert eta(1, 5e-324) == pytest.approx(2.0 / math.sqrt(5e-324), rel=1e-12)

    def test_pure(self):
        assert eta(3, 2.5) == eta(3, 2.5)

    @pytest.mark.parametrize("K,L", [(0, 1.0), (-1, 1.0), (1, 0.0), (1, -2.0), (1, math.inf)])
    def test_domain_errors(self, K, L):
        with pytest.raises(ValueError):
            eta(K, L)


class TestMinValidM:
    def test_hand_values(self):
        assert min_valid_M(1, 4.0) == 9
        assert min_valid_M(1, 1.0) == 5
        assert min_valid_M(2, 1.0) == 8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            min_valid_M(1, -1.0)

    def test_knife_edge(self):
        """The exact threshold is 10.0000000000000000967; the float one is below 10."""
        L = 5.832592320934506
        assert math.ceil(1.0 / (alpha_const() * eta(1, L))) == 10
        assert 10 < threshold_exact(1, L) < decimal.Decimal("10.0000000000000001")
        assert min_valid_M(1, L) == 11 == min_valid_M(np.int64(1), np.float64(L))
        with pytest.raises(ValidityError, match="minimum bin count 11 "):
            total_bound(BoundParams(1, L, 10, 1000, 0.1))
        assert BoundParams(1, L, 11, 1000, 0.1).M == 11

    @staticmethod
    def _assert_exact_ceiling(K, L):
        """min_valid_M is the exact ceiling; from 1/2 up, the float threshold
        errs by a quarter of the window that sends it to decimal at most."""
        exact = threshold_exact(K, L)
        if math.ceil(exact) > 2**53:
            return
        if exact >= 0.5:
            threshold = 1.0 / (alpha_const() * eta(K, L))
            slack = decimal.Decimal(bounds._THRESHOLD_SLACK / 4)
            assert abs(decimal.Decimal(threshold) - exact) <= exact * slack
        assert min_valid_M(K, L) == max(1, math.ceil(exact))

    # K on both sides of the factorial cutoff (20 | 21), thresholds of every
    # bit length up to 2^53, and L a few ulps either side of the one whose
    # exact threshold is that integer.
    @given(K=st.one_of(st.sampled_from([1, 2, 3, 20, 21, 22]), st.integers(1, 200)),
           n=st.integers(0, 53).flatmap(lambda b: st.integers(2**b, 2**(b + 1))),
           ulps=st.integers(-64, 64))
    def test_exact_ceiling_at_integer_thresholds(self, K, n, ulps):
        L = lipschitz_at_threshold(K, n)
        assume(0.0 < L < math.inf)
        direction = math.inf if ulps > 0 else 0.0
        for _ in range(abs(ulps)):
            L = math.nextafter(L, direction)
        assume(0.0 < L < math.inf)
        self._assert_exact_ceiling(K, L)

    @given(K=st.one_of(st.sampled_from([1, 20, 21]), st.integers(1, 300)),
           L=st.floats(5e-324, 1.7976931348623157e308))
    def test_exact_ceiling_on_any_lipschitz_constant(self, K, L):
        self._assert_exact_ceiling(K, L)

    @given(K=st.integers(1, 20), L=st.floats(5e-324, 2.2250738585072014e-308))
    def test_subnormal_lipschitz_constant_valid_at_one_bin(self, K, L):
        """2 * (K+1)! / L overflows, so eta takes its log form; M = 1 is valid."""
        assert 2.0 * math.factorial(K + 1) / L == math.inf
        assert threshold_exact(K, L) < 1
        assert min_valid_M(K, L) == 1
        bound = total_bound(BoundParams(K, L, 1, 1000, 0.1))
        assert bound.emp_bias == 0.0 and math.isfinite(bound.total)


class TestQuantizationBias:
    def test_frozen_values(self):
        assert quantization_bias(1, 4.0, 16) == pytest.approx(0.34657359027997265, abs=1e-12)
        assert quantization_bias(1, 1.0, 5) == pytest.approx(0.2302585092994046, abs=1e-12)

    def test_below_threshold_is_validity_error(self):
        with pytest.raises(ValidityError):
            quantization_bias(1, 4.0, 8)

    def test_strictly_decreasing_in_M(self):
        values = [quantization_bias(1, 4.0, M) for M in range(9, 400)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > 0.0 for v in values)

    def test_vanishes_for_large_M(self):
        assert quantization_bias(1, 4.0, 10**9) < 1e-7


# Piecewise-linear densities on [0, 1] that vanish at both ends: Lipschitz,
# with exact entropy, exact Lipschitz constant and exact companion cell masses.
# Knots lie on a 1/256 grid, so no two are closer than that and L stays below
# about 10^4.
def _piecewise_linear(positions, heights):
    x = np.concatenate([[0.0], np.asarray(positions) / 256.0, [1.0]])
    f = np.concatenate([[0.0], np.asarray(heights, dtype=np.float64), [0.0]])
    return x, f / np.sum(np.diff(x) * (f[:-1] + f[1:]) / 2.0)


def _pl_entropy(x, f):
    """-integral of f log f, in closed form on each linear piece."""
    def g(v):  # v^2 log(v)/2 - v^2/4, an antiderivative of v log v; g(0) = 0
        return v * v * (math.log(v) / 2.0 - 0.25) if v > 0.0 else 0.0

    h = 0.0
    for w, a, b in zip(np.diff(x), f[:-1], f[1:]):
        h -= w * a * math.log(a) if a == b else w * (g(b) - g(a)) / (b - a)
    return h


def _pl_cell_masses(x, f, M):
    """Mass of each cell [i/M, (i+1)/M): exact trapezoids between all breakpoints."""
    pts = np.union1d(x, np.arange(M + 1) / M)
    fp = np.interp(pts, x, f)
    piece = np.diff(pts) * (fp[:-1] + fp[1:]) / 2.0
    cell = np.minimum(np.floor((pts[:-1] + pts[1:]) / 2.0 * M).astype(np.int64), M - 1)
    return np.bincount(cell, weights=piece, minlength=M)


def _companion_entropy(masses, M):
    """-sum m log(m M^K) over the K-dimensional array of cell masses."""
    m = masses[masses > 0.0]
    return float(-np.sum(m * np.log(float(M) ** masses.ndim * m)))


# One factor of a K = 2 product: knots on a 1/16 grid, so L stays below a few
# hundred and the companion at 8 * min_valid_M(2, L) has under 10^6 cells.
_COARSE_PIECEWISE_LINEAR = st.lists(st.integers(1, 15), min_size=1, max_size=4,
                                    unique=True).flatmap(
    lambda pos: st.tuples(
        st.just([16 * p for p in sorted(pos)]),
        st.lists(st.integers(1, 4), min_size=len(pos), max_size=len(pos)),
    ))


class TestBiasLemmaOnPiecewiseLinear:
    """|h(p) - h(q_M)| <= quantization_bias(1, L, M) beyond the tent family."""

    def test_references_exact_on_the_tent(self):
        x, f = _piecewise_linear([128], [3])
        assert np.array_equal(f, [0.0, 2.0, 0.0])
        assert _pl_entropy(x, f) == pytest.approx(0.5 - math.log(2.0), abs=1e-15)
        masses = _pl_cell_masses(x, f, 3)
        cdf = np.array([0.0, 2.0 / 9.0, 7.0 / 9.0, 1.0])  # 2t^2, 1 - 2(1-t)^2
        assert masses == pytest.approx(np.diff(cdf), abs=1e-15)

    @given(st.lists(st.integers(1, 255), min_size=1, max_size=11, unique=True).flatmap(
        lambda pos: st.tuples(
            st.just(sorted(pos)),
            st.lists(st.integers(1, 16), min_size=len(pos), max_size=len(pos)),
        )))
    def test_companion_entropy_within_bias(self, case):
        x, f = _piecewise_linear(*case)
        L = float(np.max(np.abs(np.diff(f) / np.diff(x))))
        h_p = _pl_entropy(x, f)
        M0 = min_valid_M(1, L)
        for M in (M0, 2 * M0, 8 * M0):
            masses = _pl_cell_masses(x, f, M)
            assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)
            h_q = _companion_entropy(masses, M)
            assert h_q >= h_p - 1e-12  # averaging over cells never lowers entropy
            assert abs(h_p - h_q) <= quantization_bias(1, L, M)

    @settings(max_examples=40)
    @given(_COARSE_PIECEWISE_LINEAR, _COARSE_PIECEWISE_LINEAR)
    def test_product_companion_entropy_within_bias(self, case1, case2):
        """K = 2: p(u, v) = f1(u) f2(v), with h = h1 + h2, the l1-Lipschitz
        constant max(L1 sup f2, L2 sup f1), and cell masses the outer product
        of the 1-D masses."""
        (x1, f1), (x2, f2) = _piecewise_linear(*case1), _piecewise_linear(*case2)
        L1, L2 = (float(np.max(np.abs(np.diff(f) / np.diff(x)))) for x, f in ((x1, f1), (x2, f2)))
        L = max(L1 * float(np.max(f2)), L2 * float(np.max(f1)))
        h_p = _pl_entropy(x1, f1) + _pl_entropy(x2, f2)
        M0 = min_valid_M(2, L)
        for M in (M0, 2 * M0, 8 * M0):
            masses = np.outer(_pl_cell_masses(x1, f1, M), _pl_cell_masses(x2, f2, M))
            assert math.fsum(masses.ravel()) == pytest.approx(1.0, abs=1e-12)
            h_q = _companion_entropy(masses, M)
            assert h_q >= h_p - 1e-12
            assert abs(h_p - h_q) <= quantization_bias(2, L, M)


class TestStatisticalDeviation:
    def test_frozen_value(self):
        assert statistical_deviation(10**4, 0.05) == pytest.approx(0.2501715443933575, abs=1e-12)

    def test_single_sample_is_zero(self):
        assert statistical_deviation(1, 0.5) == 0.0

    def test_monotone_in_N(self):
        assert statistical_deviation(10**6, 0.05) == pytest.approx(0.037525731659003625, abs=1e-12)
        values = [statistical_deviation(N, 0.05) for N in (8, 16, 100, 10**4, 10**6, 10**8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("N,delta", [(0, 0.5), (5, 0.0), (5, 1.5), (5, -0.1)])
    def test_domain_errors(self, N, delta):
        with pytest.raises(ValueError):
            statistical_deviation(N, delta)

    def test_constant_bounds_one_sample_move(self):
        """McDiarmid's per-sample difference c bounds every one-sample change.

        The term is c * sqrt(N * log(2/delta) / 2), so c is read back from it.
        Moving one sample from a bin of count a to one of count b (a + b <= N)
        changes the plug-in entropy by |f(a-1) - f(a) + f(b+1) - f(b)| / N with
        f(x) = x log x; every such pair is checked for N <= 400.  At N = 2 the
        change log 2 equals c, so any other constant fails there.
        """
        f = np.array([0.0] + [x * math.log(x) for x in range(1, 401)])
        for N in range(2, 401):
            c = statistical_deviation(N, 0.1) / math.sqrt(N * math.log(2 / 0.1) / 2)
            a = np.arange(1, N + 1)[:, None]
            b = np.arange(N)[None, :]
            change = np.abs(f[a - 1] - f[a] + f[b + 1] - f[b]) / N
            worst = change[a + b <= N].max()
            assert worst <= c * (1 + 1e-12), N
            if N == 2:
                assert worst >= c * (1 - 1e-12)


class TestEmpiricalBias:
    def test_frozen_values(self):
        assert empirical_bias(1, 100, 10**6) == pytest.approx(9.8995099823408987e-05, abs=1e-9)
        assert empirical_bias(4, 1000, 10**6) == pytest.approx(13.815511557962774, abs=1e-3)

    def test_single_bin_is_zero(self):
        for N in (1, 7, 10**6):
            assert empirical_bias(3, 1, N) == 0.0

    def test_two_bins_per_axis_exact(self):
        """M = 2 is the threshold at K = 1, L = 0.2; only M = 1 has no bias."""
        assert min_valid_M(1, 0.2) == 2
        assert empirical_bias(1, 2, 100) == math.log1p(0.01)
        assert empirical_bias(3, 2, 7) == math.log(2.0)

    def test_overflow_safe_matches_naive(self):
        """Below M^K = 1e15 the log1p form must match the naive formula."""
        cases = [(1, 10, 100), (2, 1000, 7), (3, 10**5, 10**6), (1, 10**15, 3), (5, 1000, 10)]
        for K, M, N in cases:
            assert M**K <= 10**15
            naive = math.log(1.0 + (M**K - 1) / N)
            assert empirical_bias(K, M, N) == pytest.approx(naive, rel=1e-12)

    def test_finite_beyond_float_range(self):
        """K*log(M) > 700 would overflow the naive M^K."""
        value = empirical_bias(1000, 1000, 10**6)
        expected = 1000 * math.log(1000) - math.log(10**6)
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_N(self):
        values = [empirical_bias(2, 50, N) for N in (1, 10, 100, 10**4, 10**6)]
        assert all(b < a for a, b in zip(values, values[1:]))


def _error(value: float, exact: decimal.Decimal) -> decimal.Decimal:
    return abs(decimal.Decimal(value) - exact)


def _ulp(exact: decimal.Decimal) -> decimal.Decimal:
    return decimal.Decimal(math.ulp(float(exact)))


_SUBNORMAL = st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True)


class TestUlpBudget:
    """Each bound term within its ulp budget of its 60-digit ``decimal`` value.

    The budget is 32 ulps, and 64 for ``quantization_bias``: eta raises
    2 (K+1)!/L to the float power fl(1/(K+1)), a relative error of
    |log(2 (K+1)!/L)| * |fl(1/(K+1)) - 1/(K+1)|.  At K = 2 and L near the
    float maximum, that alone is up to 56 ulps of the term at its threshold.
    """

    # K on both sides of the factorial cutoff (20 | 21), subnormal L (eta's
    # log form; for K <= 20 its threshold is below 1, so M = 1 is drawn), and
    # M at the threshold or above it.
    @given(K=st.one_of(st.sampled_from([1, 2, 20, 21]), st.integers(1, 200)),
           L=st.one_of(_SUBNORMAL, st.floats(2.2250738585072014e-308, 1.7976931348623157e308)),
           above=st.one_of(st.just(0), st.integers(0, 10), st.integers(0, 2**64)))
    def test_quantization_bias(self, K, L, above):
        M = min_valid_M(K, L) + above
        exact = quantization_bias_exact(K, L, M)
        error = _error(quantization_bias(K, L, M), exact)
        if L * K / (2.0 * M) < 2.2250738585072014e-308:
            # A subnormal prefactor keeps fewer bits, and the log multiplies
            # its rounding error.
            assert error <= decimal.Decimal(2.0**-1064), (K, L, M)
        else:
            assert error <= 64 * _ulp(exact), (K, L, M)

    @given(N=st.one_of(st.integers(1, 10), st.integers(1, 10**18)),
           delta=st.one_of(_SUBNORMAL, st.floats(2.2250738585072014e-308, 1.0)))
    def test_statistical_deviation(self, N, delta):
        exact = statistical_deviation_exact(N, delta)
        assert _error(statistical_deviation(N, delta), exact) <= 32 * _ulp(exact), (N, delta)

    # M = 1, any M up to 2^53, and M within a few steps of exp(700 / K), where
    # K * log(M) crosses _LOG_MK_CUTOFF.
    @given(case=st.integers(1, 300).flatmap(lambda K: st.tuples(st.just(K), st.one_of(
        st.just(1),
        st.integers(1, 2**53),
        st.integers(-3, 3).map(lambda d: max(1, int(math.exp(bounds._LOG_MK_CUTOFF / K)) + d)),
    ))), N=st.integers(1, 10**15))
    @example(case=(1, 1), N=5)
    @example(case=(1, 2), N=100)
    @example(case=(2, 3), N=7)
    def test_empirical_bias(self, case, N):
        K, M = case
        exact = empirical_bias_exact(K, M, N)
        assert _error(empirical_bias(K, M, N), exact) <= 32 * _ulp(exact), (K, M, N)


class TestBoundParams:
    def test_validity_flag(self):
        assert BoundParams(1, 4.0, 9, 100, 0.1).M == 9
        with pytest.raises(ValidityError):
            BoundParams(1, 4.0, 8, 100, 0.1)
        assert BoundParams(2, 1.0, 8, 100, 0.1).M == 8

    def test_below_threshold_refused_at_construction(self):
        """The knife edge: the float threshold is below 10, the exact one above."""
        with pytest.raises(ValidityError, match="minimum bin count 11 "):
            BoundParams(1, 5.832592320934506, 10, 1000, 0.1)
        with pytest.raises(ValidityError, match="minimum bin count 9 for K=1, L=4.0;"):
            BoundParams(np.int64(1), 4.0, np.int32(8), 100, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0, L=1.0, M=5, N=1, delta=0.5),
            dict(K=1, L=0.0, M=5, N=1, delta=0.5),
            dict(K=1, L=1.0, M=0, N=1, delta=0.5),
            dict(K=1, L=1.0, M=5, N=0, delta=0.5),
            dict(K=1, L=1.0, M=5, N=1, delta=0.0),
            dict(K=1, L=1.0, M=5, N=1, delta=1.0),
            dict(K=1, L=4.0, M=8, N=100, delta=1.5),  # fields are checked before M's threshold
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            BoundParams(**kwargs)


class TestTotalBound:
    def test_reference_point(self):
        """K=1, L=1, M=100, N=1e6, delta=0.05 against 50-digit evaluation."""
        bound = total_bound(BoundParams(1, 1.0, 100, 10**6, 0.05))
        assert bound.quant_bias == pytest.approx(0.026491586832740183, abs=1e-12)
        assert bound.stat_dev == pytest.approx(0.037525731659003625, abs=1e-12)
        assert bound.emp_bias == pytest.approx(9.8995099823408987e-05, abs=1e-12)
        assert bound.total == pytest.approx(0.06411631359156722, abs=1e-12)

    def test_total_is_exact_term_sum(self):
        bound = total_bound(BoundParams(3, 2.0, 40, 5000, 0.2))
        assert bound.total == bound.quant_bias + bound.stat_dev + bound.emp_bias

    def test_invalid_M_raises(self):
        with pytest.raises(ValidityError):
            total_bound(BoundParams(1, 4.0, 8, 10**3, 0.1))

    def test_terms_nonnegative_and_finite(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            K = int(rng.integers(1, 4))
            L = float(rng.uniform(0.2, 20.0))
            M = min_valid_M(K, L) + int(rng.integers(0, 500))
            N = int(rng.integers(1, 10**6))
            delta = float(rng.uniform(0.01, 0.99))
            b = total_bound(BoundParams(K, L, M, N, delta))
            for term in (b.quant_bias, b.stat_dev, b.emp_bias, b.total):
                assert math.isfinite(term) and term >= 0.0
            assert b.total == b.quant_bias + b.stat_dev + b.emp_bias


class TestIntegralTypeCoercion:
    def test_numpy_integers_accepted(self):
        params = BoundParams(np.int32(1), 1.0, np.int64(100), np.int64(10**6), 0.05)
        assert params.M == 100 and isinstance(params.M, int)
        assert total_bound(params).total == pytest.approx(0.06411631359156722, abs=1e-12)
        assert eta(np.int64(1), 4.0) == 1.0
        assert statistical_deviation(np.int64(1), 0.5) == 0.0

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            eta(1.0, 4.0)
        with pytest.raises(ValueError):
            empirical_bias(1, 10.5, 100)


# Candidate budget of the search below.
_MAX_CANDIDATES = 4096


def _reference_optimize_M(K, L, N, delta) -> tuple[int, ConfidenceBound]:
    """The search optimize_M ran before the bisection, verbatim: the exhaustive
    range when it has at most 4096 values, else a geometric grid and a +-1 descent."""
    lo = min_valid_M(K, L)
    hi = max(lo, math.ceil((10.0 * N) ** (1.0 / K)))

    def objective(M: int) -> float:
        return total_bound(BoundParams(K, L, M, N, delta)).total

    if hi - lo + 1 <= _MAX_CANDIDATES:
        candidates = range(lo, hi + 1)
    else:
        log_lo, log_hi = math.log(lo), math.log(hi)
        raw = (
            round(math.exp(log_lo + (log_hi - log_lo) * i / (_MAX_CANDIDATES - 1)))
            for i in range(_MAX_CANDIDATES)
        )
        candidates = sorted({min(hi, max(lo, m)) for m in raw})

    best_M = lo
    best_val = objective(lo)
    for M in candidates:
        val = objective(M)
        if val < best_val:
            best_M, best_val = M, val

    # Local descent; on ties move toward smaller M.
    while True:
        if best_M - 1 >= lo and objective(best_M - 1) <= best_val:
            best_M -= 1
            best_val = objective(best_M)
        elif best_M + 1 <= hi and objective(best_M + 1) < best_val:
            best_M += 1
            best_val = objective(best_M)
        else:
            break

    return best_M, total_bound(BoundParams(K, L, best_M, N, delta))


def _reference_bisection(K, L, N, delta) -> tuple[int, ConfidenceBound]:
    """optimize_M's bisection as it ran before its terms were formed once per
    search: a BoundParams and a total_bound for every M it evaluates."""
    lo, hi = _search_range(K, L, N)

    def objective(M: int) -> float:
        return total_bound(BoundParams(K, L, M, N, delta)).total

    while lo < hi:
        mid = (lo + hi) // 2
        if objective(mid + 1) < objective(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo, total_bound(BoundParams(K, L, lo, N, delta))


def _bits(result) -> tuple:
    """(M, every bound field as its exact float bits) of an optimize_M result."""
    M, bound = result
    return M, tuple(float.hex(v) for v in dataclasses.astuple(bound))


def _search_range(K, L, N) -> tuple[int, int]:
    lo = min_valid_M(K, L)
    return lo, max(lo, math.ceil((10.0 * N) ** (1.0 / K)))


_GRID = [
    (K, L, N, delta)
    for K in (1, 2, 3, 4)
    for L in (0.5, 1.0, 4.0, 16.0, 100.0)
    for N in [2] + [10**e for e in range(1, 8)]
    for delta in (0.01, 0.05 / 3, 0.1, 0.5)
]

# Where the benchmark workloads (at full and at self-test scale) and the README
# examples choose M.  Pinned demo victims use L * max(s) * prod(s) on [-1, 1]^K;
# mutual information spends delta / 3 on each of its three entropies.
_IN_USE = sorted({
    (2, 8.0, 250_000, 0.05), (2, 8.0, 25_000, 0.05),            # estimate-csv
    *((K, 16.0, N, 0.05 / 3.0) for K in (1, 2, 3) for N in (10**6, 10**5)),  # mi-estimate
    (2, 8.0, 100_000, 0.1), (2, 8.0, 10_000, 0.1),              # coverage
    (1, 16.0, 100, 0.1),                                        # prop1-demo
    (1, 1.0, 100, 0.1 / 3.0), (2, 1.0, 100, 0.1 / 3.0),         # mi-demo
    (1, 4.0, 100_000, 0.1),                # optimize_M, estimate, coverage examples
    (1, 8.0, 100_000, 0.1 / 3.0), (2, 8.0, 100_000, 0.1 / 3.0),  # mi-estimate example
})


@st.composite
def _search_case(draw):
    """(K, L, N, delta): L log-uniform over the positive floats, or a few ulps
    from an L whose exact validity threshold is an integer."""
    K = draw(st.sampled_from([1, 2, 3, 20, 21, 40]))
    if draw(st.booleans()):
        L = math.exp(draw(st.floats(math.log(5e-324), math.log(1.7976931348623157e308))))
    else:
        L = lipschitz_at_threshold(K, draw(st.integers(1, 2**20)))
        for _ in range(draw(st.integers(0, 4))):
            L = math.nextafter(L, draw(st.sampled_from([0.0, math.inf])))
    assume(0.0 < L < math.inf)
    return K, L, draw(st.integers(2, 10**12)), draw(st.floats(1e-12, 0.999))


class TestOptimizeM:
    def test_dominates_endpoints(self):
        K, L, N, delta = 1, 4.0, 10**6, 0.05
        M, bound = optimize_M(K, L, N, delta)
        lo = min_valid_M(K, L)
        hi = max(lo, math.ceil((10 * N) ** (1.0 / K)))
        at_lo = total_bound(BoundParams(K, L, lo, N, delta)).total
        at_hi = total_bound(BoundParams(K, L, hi, N, delta)).total
        assert bound.total <= at_lo
        assert bound.total <= at_hi
        assert lo <= M <= hi

    def test_respects_validity_constraint(self):
        M, _ = optimize_M(1, 4.0, 10**3, 0.1)
        assert M >= 9

    def test_doubling_N_never_increases_bound(self):
        for N in (10**3, 10**4, 10**5, 5 * 10**5):
            _, b1 = optimize_M(1, 4.0, N, 0.1)
            _, b2 = optimize_M(1, 4.0, 2 * N, 0.1)
            assert b2.total <= b1.total

    def test_returns_bound_consistent_with_M(self):
        M, bound = optimize_M(2, 2.0, 5000, 0.1)
        recomputed = total_bound(BoundParams(2, 2.0, M, 5000, 0.1))
        assert bound == recomputed

    def test_local_minimum(self):
        """Neither neighbor of the chosen M improves the bound."""
        K, L, N, delta = 1, 1.0, 10**5, 0.05
        M, bound = optimize_M(K, L, N, delta)
        for neighbor in (M - 1, M + 1):
            if neighbor >= min_valid_M(K, L):
                nb = total_bound(BoundParams(K, L, neighbor, N, delta)).total
                assert bound.total <= nb

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimize_M(1, 1.0, 1, 0.1)
        with pytest.raises(ValueError):
            optimize_M(1, 1.0, 100, 0.0)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_matches_reference_search_on_grid(self, K):
        for case in _GRID:
            if case[0] == K:
                assert _bits(optimize_M(*case)) == _bits(_reference_optimize_M(*case)), case

    @pytest.mark.parametrize("K, L, N, delta", _IN_USE)
    def test_matches_reference_search_where_used(self, K, L, N, delta):
        assert _bits(optimize_M(K, L, N, delta)) == _bits(_reference_optimize_M(K, L, N, delta))

    def test_first_argmin_on_small_ranges(self):
        checked = 0
        for K, L, N, delta in _GRID:
            lo, hi = _search_range(K, L, N)
            if hi - lo + 1 > _MAX_CANDIDATES:
                continue
            totals = [total_bound(BoundParams(K, L, M, N, delta)).total for M in range(lo, hi + 1)]
            assert optimize_M(K, L, N, delta)[0] == lo + totals.index(min(totals))
            checked += 1
        assert checked > 300

    def test_logarithmic_evaluation_count(self, monkeypatch):
        """Each evaluation of the total forms the empirical-bias term once, and
        so does the closing total_bound."""
        calls = 0
        term = bounds._empirical_term

        def counted(K, M, N):
            nonlocal calls
            calls += 1
            return term(K, M, N)

        monkeypatch.setattr(bounds, "_empirical_term", counted)
        for K, L, N, delta in _GRID + _IN_USE + [(1, 1.2e4, 11 * 10**11, 0.999)]:
            lo, hi = _search_range(K, L, N)
            calls = 0
            optimize_M(K, L, N, delta)
            assert 1 <= calls <= 2 * math.ceil(math.log2(hi - lo + 1)) + 1, (K, L, N, delta)

    def test_eta_evaluated_once_per_search(self, monkeypatch):
        """The search's own eta, then one each for the closing BoundParams and
        total_bound."""
        calls = 0

        def counted(K, L):
            nonlocal calls
            calls += 1
            return eta(K, L)

        monkeypatch.setattr(bounds, "eta", counted)
        optimize_M(2, 8.0, 10**5, 0.1)
        assert calls <= 3

    @settings(max_examples=36)
    @given(case=_search_case())
    @example(case=(1, 5e-324, 10**12, 0.1))
    @example(case=(2, 1.7976931348623157e308, 1000, 0.1))
    @example(case=(40, 1e-300, 10**12, 0.5))
    @example(case=(1, 1.2e4, 11 * 10**11, 0.999))
    def test_matches_reference_search_beyond_the_grid(self, case):
        """K on both sides of the factorial cutoff and where M^K leaves float
        range, L across the float range and on integer thresholds, N to 10^12.

        Where [lo, hi] has at most 4096 values the old search is exhaustive,
        so it gives the first argmin.  Beyond that its +-1 descent stops at
        float local minima (11 bins and 1 ulp off on the last example) and
        walks plateaus of millions of bins, so there the reference is the
        bisection on total_bound.  The knife-edge L send every BoundParams to
        _exact_ceiling, which is cached here for speed only.
        """
        lo, hi = _search_range(*case[:3])
        reference = _reference_optimize_M if hi - lo < _MAX_CANDIDATES else _reference_bisection
        with mock.patch.object(bounds, "_exact_ceiling", functools.cache(bounds._exact_ceiling)):
            expected = _bits(reference(*case))
        assert _bits(optimize_M(*case)) == expected, case

    def test_float_local_minimum_on_a_wide_range(self):
        """Far beyond the old grid's resolution, neither neighbour beats the result."""
        K, L, N, delta = 1, 1.2e4, 11 * 10**11, 0.999
        M, bound = optimize_M(K, L, N, delta)

        def total(m):
            return total_bound(BoundParams(K, L, m, N, delta)).total

        lo, hi = _search_range(K, L, N)
        assert lo < M < hi
        assert bound.total < total(M - 1)
        assert bound.total <= total(M + 1)


class TestVanishingBound:
    def test_bound_vanishes_with_growing_N(self):
        """With M(N) = ceil(N^(1/2K)) the bound at N=1e8 beats N=1e4 and 0.05."""

        def bound_at(N):
            M = math.ceil(math.sqrt(N))
            return total_bound(BoundParams(1, 1.0, M, N, 0.05)).total

        assert bound_at(10**8) < bound_at(10**4)
        assert bound_at(10**8) < 0.05


class TestDiscreteEntropyBounds:
    """Plug-in entropy of N draws from an M-letter alphabet: the bias is at most
    empirical_bias(1, M, N) and the deviation statistical_deviation(N, delta)."""

    def test_frozen_bias(self):
        bias = empirical_bias(1, 3, 5)
        assert bias == pytest.approx(math.log(1.4), abs=1e-12)
        assert bias == pytest.approx(0.33647, abs=1e-5)

    def test_single_letter_bias_zero(self):
        for N in (1, 10, 1000):
            assert empirical_bias(1, 1, N) == 0.0

    def test_deviation_at_delta_one(self):
        # sqrt((2/5) ln 2) * ln 5, frozen from a 50-digit evaluation
        dev = statistical_deviation(5, 1.0)
        assert dev == pytest.approx(0.8474555996437595, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            empirical_bias(1, 0, 5)
        with pytest.raises(ValueError):
            statistical_deviation(5, 1.5)

"""Certified estimators, their coverage, and the adversarial demos."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from entrobound import (
    DemoReport,
    EstimatorFailure,
    ExternalEstimator,
    OutOfSupportError,
    PinnedEntropyEstimator,
    ValidityError,
    estimate_entropy_certified,
    estimate_mi_certified,
    kl_demo,
    mi_adversary_demo,
    min_valid_M,
    prop1_demo,
    sample,
    tent_density,
    two_cell_kl_plugin,
)
from entrobound import estimators
from entrobound.rng import generator, split

TENT_H1 = 0.5 - math.log(2.0)


class TestEstimateEntropyCertified:
    def test_tent_run_is_covered(self):
        pts = sample(tent_density(1), 10**5, 7)
        report = estimate_entropy_certified(pts, 4.0, 0.1, seed=7)
        assert abs(report.estimate - TENT_H1) <= report.bound.total
        assert report.kind == "entropy"
        assert report.params.valid_for_theorem

    def test_single_sample_degenerate(self):
        M = min_valid_M(1, 4.0)
        report = estimate_entropy_certified(np.array([[0.4]]), 4.0, 0.1, M=M)
        assert report.estimate == pytest.approx(-math.log(M), abs=1e-12)
        assert report.bound.stat_dev == 0.0
        assert math.isfinite(report.bound.total)

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError):
            estimate_entropy_certified(np.array([[0.2], [1.5]]), 4.0, 0.1)

    def test_explicit_M_below_threshold(self):
        pts = sample(tent_density(1), 100, 1)
        with pytest.raises(ValidityError):
            estimate_entropy_certified(pts, 4.0, 0.1, M=8)

    def test_deterministic(self):
        pts = sample(tent_density(2), 5000, 3)
        a = estimate_entropy_certified(pts, 8.0, 0.05, seed=3)
        b = estimate_entropy_certified(pts, 8.0, 0.05, seed=3)
        assert a == b

    def test_coverage_over_100_trials(self):
        """Certified interval contains the truth in >= 1 - delta of trials."""
        tent = tent_density(1)
        delta = 0.1
        covered = 0
        for t in range(100):
            pts = sample(tent, 2000, split(1234, t))
            report = estimate_entropy_certified(pts, 4.0, delta)
            covered += abs(report.estimate - TENT_H1) <= report.bound.total
        assert covered / 100 >= 1.0 - delta


@pytest.fixture(scope="module")
def independent_tents():
    """One (x, y) pair per row: two independent 1-D tent samples side by side."""
    tent = tent_density(1)
    xs = sample(tent, 10**5, split(50, 0))
    ys = sample(tent, 10**5, split(50, 1))
    return np.hstack([xs, ys])


class TestEstimateMiCertified:
    def test_independent_pair_near_zero(self, independent_tents):
        # joint density of independent tents is the K=2 tent, L = 8
        report = estimate_mi_certified(independent_tents, 1, 8.0, 0.1)
        assert report.kind == "mutual_information"
        assert abs(report.estimate) <= report.bound.total

    def test_symmetry_under_swap(self, independent_tents):
        a = estimate_mi_certified(independent_tents, 1, 8.0, 0.1)
        b = estimate_mi_certified(independent_tents[:, ::-1], 1, 8.0, 0.1)
        assert a.estimate == b.estimate

    def test_decomposition_identities(self, independent_tents):
        report = estimate_mi_certified(independent_tents, 1, 8.0, 0.1)
        h_x, h_y, h_xy = (p.estimate for p in report.components)
        assert report.estimate == h_x + h_y - h_xy
        total_of_parts = sum(p.bound.total for p in report.components)
        assert report.bound.total == pytest.approx(total_of_parts, rel=1e-14)
        assert report.bound.total == (
            report.bound.quant_bias + report.bound.stat_dev + report.bound.emp_bias
        )

    def test_components_use_third_of_delta(self, independent_tents):
        report = estimate_mi_certified(independent_tents, 1, 8.0, 0.09)
        for part in report.components:
            assert part.params.delta == pytest.approx(0.03)

    @pytest.mark.parametrize("K, k1, message", [
        (2, 0, "k1 must be an integer >= 1, got 0"),
        (2, -1, "k1 must be an integer >= 1, got -1"),
        (2, 2.5, "k1 must be an integer >= 1, got 2.5"),
        (2, 2, "k1 must lie in [1, K - 1], got 2 with K = 2"),
        (3, 3, "k1 must lie in [1, K - 1], got 3 with K = 3"),
        (1, 1, "k1 must lie in [1, K - 1], got 1 with K = 1"),
    ], ids=["zero", "negative", "fraction", "K", "K-of-3", "one-column"])
    def test_k1_outside_range(self, K, k1, message):
        with pytest.raises(ValueError) as exc:
            estimate_mi_certified(np.full((5, K), 0.5), k1, 1.0, 0.1)
        assert str(exc.value) == message


def _report_bits(report):
    """Every field of a report, floats as float.hex, components included."""
    return tuple(v.hex() if isinstance(v, float) else v for v in _flatten(
        dataclasses.astuple(report)))


def _flatten(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def _layouts():
    pts = generator(60).random((3000, 3))
    return {
        "C": pts,
        "Fortran": np.asfortranarray(pts),
        "column-strided": generator(61).random((3000, 6))[:, ::2],
        "row-reversed": pts[::-1],
    }


class TestOneMatrix:
    @pytest.mark.parametrize("k1", [1, 2])
    @pytest.mark.parametrize("layout", list(_layouts()))
    def test_terms_are_views_for_any_layout(self, layout, k1, monkeypatch):
        """x, y and the joint are views of the input and give its copy's bits."""
        samples = _layouts()[layout]
        expected = _report_bits(estimate_mi_certified(np.ascontiguousarray(samples), k1,
                                                      16.0, 0.1))
        seen = []
        certified = estimators.estimate_entropy_certified

        def spy(pts, *args, **kwargs):
            seen.append(pts)
            return certified(pts, *args, **kwargs)

        monkeypatch.setattr(estimators, "estimate_entropy_certified", spy)
        report = estimate_mi_certified(samples, k1, 16.0, 0.1)
        assert _report_bits(report) == expected
        assert [term.shape[1] for term in seen] == [k1, 3 - k1, 3]
        assert all(np.shares_memory(term, samples) for term in seen)


_BLOCK_NS = [2**16 + 1, 3 * 2**16 + 5]


class TestThreadCountInvariance:
    """MI estimates on more than 2^16 rows run their three terms on a pool."""

    @pytest.mark.parametrize("N", _BLOCK_NS)
    @pytest.mark.parametrize("K, M", [(1, None), (2, None), (3, None), (1, 2**22), (2, 2**11),
                                      (3, 2**8)])
    def test_entropy_report(self, K, M, N, monkeypatch):
        pts = generator(70 + K).random((N, K))
        bits = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            report = estimate_entropy_certified(pts, 2.0 ** (K + 1), 0.1, M=M, seed=4)
            bits.add(_report_bits(report))
        assert len(bits) == 1

    @pytest.mark.parametrize("N", _BLOCK_NS)
    @pytest.mark.parametrize("k1, k2", [(1, 1), (1, 2), (2, 1)])
    def test_mi_report(self, k1, k2, N, monkeypatch):
        pts = generator(80 + k1).random((N, k1 + k2))
        bits = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            report = estimate_mi_certified(pts, k1, 2.0 ** (k1 + k2 + 1), 0.1)
            bits.add(_report_bits(report))
        assert len(bits) == 1


class TestTermPool:
    @pytest.mark.parametrize("N, threads, made", [
        (2**16 + 1, "1", []), (2**16 + 1, "2", [2]), (2**16 + 1, "3", [3]),
        (2**16 + 1, "8", [3]), (2**16, "3", []),
    ])
    def test_one_pool_of_at_most_three_above_one_block(self, N, threads, made, executors,
                                                       monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", threads)
        pts = generator(90).random((N, 2))
        estimate_mi_certified(pts, 1, 8.0, 0.1)
        assert executors == made

    def test_x_term_error_comes_first(self, monkeypatch):
        """The row is outside the cube in x and in the joint: x's error wins."""
        pts = generator(92).random((2**16 + 1, 3))
        pts[65536, 0] = 1.5
        messages = set()
        for threads in ("1", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            with pytest.raises(OutOfSupportError) as exc:
                estimate_mi_certified(pts, 1, 16.0, 0.1)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert "sample 65536 lies outside [0, 1]^K: [1.5]" in messages.pop()


class TestPinnedEntropyEstimator:
    def test_fixed_function(self):
        victim = PinnedEntropyEstimator(1, 4.0, 0.1, N=200)
        pts = sample(tent_density(1), 200, 8)
        assert victim(pts) == victim(pts)

    def test_reasonable_on_benign_data(self):
        victim = PinnedEntropyEstimator(1, 4.0, 0.1, N=5000)
        pts = sample(tent_density(1), 5000, 9)
        assert abs(victim(pts) - TENT_H1) < 0.5

    def test_accepts_negative_orthant(self):
        victim = PinnedEntropyEstimator(1, 4.0, 0.1, N=4)
        value = victim(np.array([[-0.5], [-0.25], [0.25], [0.5]]))
        assert math.isfinite(value)


class TestDiscreteMiPlugin:
    def test_constant_y_exactly_zero(self):
        from entrobound import discrete_mi_plugin

        # n = 6 is a size where log(n) - n*log(n)/n rounds away from 0.
        for n in (500, 6):
            x = sample(tent_density(1), n, 1)
            y = np.ones(n, dtype=int)
            assert discrete_mi_plugin(x, y, 16) == 0.0

    def test_deterministic_function_reaches_log2(self):
        from entrobound import discrete_mi_plugin

        rng = generator(2)
        x = rng.random(20000)
        y = (x >= 0.5).astype(int) + 1
        est = discrete_mi_plugin(x, y, 2)
        assert est == pytest.approx(math.log(2.0), abs=0.01)

    def test_constant_codebook_adversary_estimates_zero(self):
        from entrobound import discrete_mi_plugin
        from entrobound.densities import DiscreteMiAdversary

        adv = DiscreteMiAdversary(
            M_bins=8, K_alphabet=2, codebook=np.ones(8, dtype=int), true_mi=0.0
        )
        x, y = adv.sample(3, 2000)
        assert discrete_mi_plugin(x, y, 32) == 0.0

    @pytest.mark.parametrize("M_bins", [0, -3, 2.5])
    def test_invalid_bin_count_rejected(self, M_bins):
        from entrobound import discrete_mi_plugin

        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            discrete_mi_plugin([0.1, 0.6], [1, 2], M_bins)

    def test_collision_free_regime_hides_dependence(self):
        """Huge bin count: y is a function of x yet the estimate stays small."""
        from entrobound import discrete_mi_plugin
        from entrobound.densities import discrete_mi_adversary

        adv = discrete_mi_adversary(10**6, 2, seed=4)
        assert adv.true_mi > 0.5  # near log 2 for a balanced random codebook
        assert adv.collision_probability(1000) < 0.4
        x, y = adv.sample(9, 1000)
        est = discrete_mi_plugin(x, y, 32)
        assert est < 0.1


class TestTwoCellKlPlugin:
    def test_identical_empirical_masses(self):
        xs = np.array([[-0.5]] * 10)
        assert two_cell_kl_plugin(xs, xs.copy()) == 0.0

    def test_hand_value(self):
        xp = np.array([[-0.5]] * 2 + [[0.5]] * 2)  # p_hat = (1/2, 1/2)
        xq = np.array([[-0.5]] * 3 + [[0.5]] * 1)  # q_hat = (3/4, 1/4)
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert two_cell_kl_plugin(xp, xq) == pytest.approx(expected, abs=1e-12)

    def test_infinite_when_q_cell_empty(self):
        xp = np.array([[-0.5], [0.5]])
        xq = np.array([[-0.5], [-0.25]])
        assert two_cell_kl_plugin(xp, xq) == math.inf


class TestProp1Demo:
    def test_small_scale(self):
        report = prop1_demo(C=0.5, delta=0.2, N=50, trials=20, seed=101)
        assert report.trials == 20
        assert report.failure_fraction >= 0.8
        assert 0.0 <= report.below_threshold_fraction <= 1.0
        assert report.calibrated_b >= 0.0
        # the planted truth sits further than C + b from the pilot entropy
        assert abs(report.true_value - TENT_H1) > report.C + report.calibrated_b

    def test_deterministic(self):
        a = prop1_demo(C=0.5, delta=0.2, N=50, trials=20, seed=101)
        b = prop1_demo(C=0.5, delta=0.2, N=50, trials=20, seed=101)
        assert a == b

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            prop1_demo(C=0.0, delta=0.1, N=50, trials=20, seed=1)
        with pytest.raises(ValueError):
            prop1_demo(C=1.0, delta=0.1, N=50, trials=5, seed=1)


class TestMiAdversaryDemo:
    def test_small_scale(self):
        report = mi_adversary_demo(C=0.5, delta=0.2, N=50, trials=20, seed=77)
        assert report.below_threshold_fraction >= 0.8
        assert report.true_value > report.calibrated_b + report.C


class TestKlDemo:
    def test_small_scale(self):
        report = kl_demo(C=0.5, delta=0.2, N=50, trials=20, seed=55)
        assert report.below_threshold_fraction >= 0.8
        assert report.true_value >= report.calibrated_b + report.C
        # pilot estimator sees two identical all-negative uniforms
        assert report.calibrated_b == 0.0


class _OddAttackFailures:
    """Pinned entropy estimator that fails on every odd call after the pilot."""

    def __init__(self, pilot_calls: int):
        self.victim = PinnedEntropyEstimator(1, 4.0, 0.2, 40)
        self.pilot_calls = pilot_calls
        self.calls = 0

    def __call__(self, rows):
        self.calls += 1
        if self.calls > self.pilot_calls and self.calls % 2:
            raise EstimatorFailure("odd attack trial")
        return self.victim(rows)


# Exact reports at fixed seeds: the shared demo driver must reproduce every
# field bit for bit.
_GOLDEN_DEMOS = [
    pytest.param(
        prop1_demo, dict(C=0.5, delta=0.2, N=50, trials=20, seed=101),
        DemoReport(trials=20, failure_fraction=1.0, C=0.5, delta=0.2,
                   calibrated_b=0.2918670168954274, true_value=-1.6657341631531417,
                   below_threshold_fraction=0.9),
        id="prop1-K1",
    ),
    pytest.param(
        prop1_demo, dict(C=0.5, delta=0.2, N=60, trials=12, seed=3, K=2),
        DemoReport(trials=12, failure_fraction=1.0, C=0.5, delta=0.2,
                   calibrated_b=1.2491151753753424, true_value=-2.8178965572909553,
                   below_threshold_fraction=0.9166666666666666),
        id="prop1-K2",
    ),
    pytest.param(
        mi_adversary_demo, dict(C=0.5, delta=0.2, N=50, trials=20, seed=77),
        DemoReport(trials=20, failure_fraction=0.95, C=0.5, delta=0.2,
                   calibrated_b=0.3398907167129841, true_value=0.8418907167129841,
                   below_threshold_fraction=0.95),
        id="mi",
    ),
    pytest.param(
        kl_demo, dict(C=0.5, delta=0.2, N=50, trials=20, seed=55),
        DemoReport(trials=20, failure_fraction=1.0, C=0.5, delta=0.2,
                   calibrated_b=0.0, true_value=0.8668799413381924,
                   below_threshold_fraction=0.95),
        id="kl",
    ),
    # Half the attack trials fail: each failure is a miss and never "below".
    pytest.param(
        prop1_demo, dict(C=0.2, delta=0.2, N=40, trials=12, seed=5,
                         estimator=lambda: _OddAttackFailures(pilot_calls=12)),
        DemoReport(trials=12, failure_fraction=1.0, C=0.2, delta=0.2,
                   calibrated_b=0.3684778195297078, true_value=-1.4397966468892553,
                   below_threshold_fraction=0.5),
        id="prop1-failing-estimator",
    ),
]


@pytest.mark.parametrize("demo, kwargs, expected", _GOLDEN_DEMOS)
def test_demo_reports_golden(demo, kwargs, expected):
    if "estimator" in kwargs:
        kwargs = dict(kwargs, estimator=kwargs["estimator"]())
    assert demo(**kwargs) == expected


class _NanAfter:
    """Returns 0.0 for its first ``calls`` calls and NaN after them."""

    def __init__(self, calls: int):
        self.calls = calls

    def __call__(self, rows) -> float:
        self.calls -= 1
        return 0.0 if self.calls >= 0 else math.nan


class TestNanEstimates:
    def test_nan_attack_estimate_is_a_miss(self):
        report = kl_demo(C=0.5, delta=0.2, N=50, trials=20, seed=55, estimator=_NanAfter(20))
        assert report.failure_fraction == 1.0
        assert report.below_threshold_fraction == 0.0

    @pytest.mark.parametrize("demo", [prop1_demo, mi_adversary_demo, kl_demo])
    def test_nan_pilot_estimate_names_the_trial(self, demo):
        with pytest.raises(EstimatorFailure, match="NaN on pilot trial 3$"):
            demo(C=0.5, delta=0.2, N=20, trials=10, seed=5, estimator=_NanAfter(3))


class TestExternalEstimatorProtocol:
    def test_round_trip(self):
        est = ExternalEstimator(
            [sys.executable, "-c",
             "import sys; rows = sys.stdin.read().strip().splitlines(); print(len(rows) / 100)"]
        )
        value = est(np.full((25, 2), 0.5))
        assert value == pytest.approx(0.25)

    def test_nonzero_exit_is_failure(self):
        est = ExternalEstimator([sys.executable, "-c", "import sys; sys.exit(3)"])
        with pytest.raises(EstimatorFailure):
            est(np.zeros((2, 1)))

    def test_garbage_output_is_failure(self):
        est = ExternalEstimator([sys.executable, "-c", "print('nan-ish words')"])
        with pytest.raises(EstimatorFailure):
            est(np.zeros((2, 1)))

    def test_demo_with_external_estimator(self):
        """A constant external estimator pinned at the pilot entropy."""
        est = ExternalEstimator(
            [sys.executable, "-c", "import sys; sys.stdin.read(); print(-0.19314718)"]
        )
        report = prop1_demo(C=1.0, delta=0.2, N=20, trials=10, seed=5, estimator=est)
        # constant output: zero pilot spread, every adversarial trial misses
        assert report.calibrated_b == pytest.approx(abs(-0.19314718 - TENT_H1), abs=1e-9)
        assert report.failure_fraction == 1.0

    def test_demo_with_failing_estimator(self):
        est = ExternalEstimator([sys.executable, "-c", "print(0.0)"])
        broken = ExternalEstimator([sys.executable, "-c", "import sys; sys.exit(1)"])

        class FlipFlop:
            """Pilot phase works, adversarial phase always fails."""

            def __init__(self):
                self.calls = 0

            def __call__(self, rows):
                self.calls += 1
                if self.calls <= 10:
                    return est(rows)
                return broken(rows)

        report = prop1_demo(C=1.0, delta=0.2, N=20, trials=10, seed=5, estimator=FlipFlop())
        assert report.failure_fraction == 1.0

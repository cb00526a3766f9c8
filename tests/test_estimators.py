"""Certified estimators, their coverage, and the adversarial demos."""
import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

from entrobound import (
    BoundParams,
    DemoReport,
    EstimatorFailure,
    ExternalEstimator,
    OutOfSupportError,
    PinnedEntropyEstimator,
    ValidityError,
    affine_rescale,
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
from entrobound import bounds, discrete_mi_plugin, estimators
from entrobound.histogram import _bin_keys, _count_entropy
from entrobound.rng import generator, split
from reference import collision_probability

TENT_H1 = 0.5 - math.log(2.0)


class TestPlan:
    @pytest.mark.parametrize("K, L, N, delta", [(1, 4.0, 10**5, 0.1), (2, 8.0, 10**5, 0.1),
                                                 (1, 5.832592320934506, 1000, 0.1)])
    def test_threshold_decided_at_most_twice(self, K, L, N, delta, monkeypatch):
        """Once in the search and once in the plan's one BoundParams; the
        search's M and bound are the plan's, bit for bit."""
        M, bound = bounds.optimize_M(K, L, N, delta)
        calls = []
        decide = bounds._min_valid_M
        monkeypatch.setattr(bounds, "_min_valid_M", lambda *a: calls.append(a) or decide(*a))
        params, planned = estimators._plan(K, L, N, delta)
        assert len(calls) <= 2
        assert params == BoundParams(K, L, M, N, delta)
        assert planned == bound == bounds.total_bound(params)


class TestEstimateEntropyCertified:
    def test_tent_run_is_covered(self):
        pts = sample(tent_density(1), 10**5, 7)
        report = estimate_entropy_certified(pts, 4.0, 0.1)
        assert abs(report.estimate - TENT_H1) <= report.bound.total
        assert report.components is None
        assert report.params == BoundParams(1, 4.0, report.params.M, 10**5, 0.1)

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
        a = estimate_entropy_certified(pts, 8.0, 0.05)
        b = estimate_entropy_certified(pts, 8.0, 0.05)
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
        assert len(report.components) == 3
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
        """x, y and the joint, in any order, are views of the input and give its copy's bits."""
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
        assert sorted(term.shape[1] for term in seen) == sorted([3, k1, 3 - k1])
        assert all(np.shares_memory(term, samples) for term in seen)


@pytest.mark.parametrize("k1, k2", [(1, 2), (2, 1)])
def test_joint_term_starts_first(k1, k2, monkeypatch):
    """The pool is handed the joint, about half the work, before either marginal."""
    pts = generator(62).random((2**18 + 1, k1 + k2))
    submitted = []

    class RecordingExecutor(estimators.ThreadPoolExecutor):
        def submit(self, fn, i):
            submitted.append(i)
            return super().submit(fn, i)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", RecordingExecutor)
    for threads in ("2", "3"):
        submitted.clear()
        monkeypatch.setenv("ENTROBOUND_THREADS", threads)
        report = estimate_mi_certified(pts, k1, 2.0 ** (k1 + k2 + 1), 0.1)
        assert submitted == [2, 1, 0]
        assert [part.params.K for part in report.components] == [k1, k2, k1 + k2]


@pytest.fixture
def pool_cut_2_16(monkeypatch):
    """Lowers the MI term pool's cut from 2^18 to 2^16 rows, so smaller inputs reach it."""
    monkeypatch.setattr(estimators, "_MI_POOL_ROWS", 2**16)


_BLOCK_NS = [2**16 + 1, 3 * 2**16 + 5]


class TestThreadCountInvariance:
    """MI estimates above the pool cut run their three terms on a pool."""

    @pytest.mark.parametrize("N", _BLOCK_NS)
    @pytest.mark.parametrize("K, M", [(1, None), (2, None), (3, None), (1, 2**22), (2, 2**11),
                                      (3, 2**8)])
    def test_entropy_report(self, K, M, N, monkeypatch):
        pts = generator(70 + K).random((N, K))
        bits = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            report = estimate_entropy_certified(pts, 2.0 ** (K + 1), 0.1, M=M)
            bits.add(_report_bits(report))
        assert len(bits) == 1

    @pytest.mark.parametrize("N", _BLOCK_NS)
    @pytest.mark.parametrize("k1, k2", [(1, 1), (1, 2), (2, 1)])
    def test_mi_report(self, k1, k2, N, pool_cut_2_16, monkeypatch):
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
                                                       pool_cut_2_16, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", threads)
        pts = generator(90).random((N, 2))
        estimate_mi_certified(pts, 1, 8.0, 0.1)
        assert executors == made

    @pytest.mark.parametrize("N, made", [(2**18 + 1, [3]), (2**18, [])])
    def test_pool_above_2_18_rows(self, N, made, executors, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", "3")
        estimate_mi_certified(generator(91).random((N, 2)), 1, 8.0, 0.1)
        assert executors == made

    def test_x_term_error_comes_first(self, monkeypatch):
        """The row is outside the cube in x and in the joint: x's error wins."""
        pts = generator(92).random((2**18 + 1, 3))
        pts[65536, 0] = 1.5
        messages = set()
        for threads in ("1", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            with pytest.raises(OutOfSupportError) as exc:
                estimate_mi_certified(pts, 1, 16.0, 0.1)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert "sample 65536 lies outside [0, 1]^K: [1.5]" in messages.pop()

    @pytest.mark.parametrize("k1, bad_column, expected", [
        (1, 2, "sample 65536 lies outside [0, 1]^K: [0.25, 1.5]"),
        (2, 0, "sample 65536 lies outside [0, 1]^K: [1.5, 0.25]"),
    ], ids=["y-bad", "wider-x-bad"])
    def test_marginal_error_wins_over_joint(self, k1, bad_column, expected, monkeypatch):
        """The joint starts first, yet the bad marginal's error is raised at any thread count.

        Only y is bad at k1 = 1; x is bad, and wider than y, at k1 = 2.
        """
        pts = generator(92).random((2**18 + 1, 3))
        pts[65536] = 0.25
        pts[65536, bad_column] = 1.5
        messages = set()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            with pytest.raises(OutOfSupportError) as exc:
                estimate_mi_certified(pts, k1, 16.0, 0.1)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert expected in messages.pop()


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

    @pytest.mark.parametrize("box", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    def test_nonpositive_box_side_refused(self, box):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="box sides must be positive"):
                PinnedEntropyEstimator(len(box), 4.0, 0.1, N=100, box=box)

    def test_optimal_bin_count_above_2_53_refused_when_built(self):
        """The L that binning sees is the rescaled one: 4 * L on [-1, 1]."""
        with pytest.raises(ValueError, match=r"^L = 4e\+300 is too large for float64 binning"):
            PinnedEntropyEstimator(1, 1e300, 0.1, N=100)

    def test_takes_the_rescale_bookkeeping(self):
        box = [[0.0, 0.5], [-1.0, 2.0], [3.0, 10.0]]
        victim = PinnedEntropyEstimator(3, 2.0, 0.1, N=1000, box=box)
        frame = affine_rescale(np.empty((0, 3)), box)
        assert victim.L_effective == 2.0 * frame.lipschitz_scale
        assert victim.entropy_offset == frame.entropy_offset
        assert victim.entropy_offset == math.log(0.5) + math.log(3.0) + math.log(7.0)


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
        assert collision_probability(adv.M_bins, 1000) < 0.4
        x, y = adv.sample(9, 1000)
        est = discrete_mi_plugin(x, y, 32)
        assert est < 0.1


def _reference_discrete_mi(x, y, M):
    """The three-np.unique formula on whole-array bin index rows."""
    x = np.asarray(x, dtype=np.float64)
    xb = _bin_keys(x.reshape(-1, 1), M).reshape(x.shape)
    y = np.asarray(y).reshape(-1)
    n = y.shape[0]
    _, cx = np.unique(xb, axis=0, return_counts=True)
    _, cy = np.unique(y, return_counts=True)
    _, cxy = np.unique(np.column_stack([xb, y]), axis=0, return_counts=True)
    return _count_entropy(cx, n) + _count_entropy(cy, n) - _count_entropy(cxy, n)


_MI_LAYOUTS = {
    "C order": np.ascontiguousarray,
    "Fortran order": np.asfortranarray,
    "reversed rows": lambda x: x[::-1],
}
_MI_COMBOS = [(labels, layout) for labels in ("int", "float") for layout in _MI_LAYOUTS]
_MI_BIN_COUNTS = [1, 2, 7, 32, 1000, 2**21, 2**40]


# M^K <= 4N (dense bincount), above it (sorted keys) and K * log2(M) >= 62
# (index rows); N across the quantization block of 2^16 rows.
@pytest.mark.parametrize("N", [5, 2**16 - 1, 2**16 + 1])
@pytest.mark.parametrize("M", _MI_BIN_COUNTS)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_discrete_mi_plugin_matches_reference(K, M, N):
    rng = generator(5000 + 10 * K + N % 10)
    # Bin edges and few random values: bins repeat at every M.
    pool = np.concatenate([np.arange(8) / M, [1.0], rng.random(24)])
    x = rng.choice(np.clip(pool, 0.0, 1.0), size=(N, K))
    combos = _MI_COMBOS
    if N > 5:
        # One (labels, layout) pair per large case keeps the test quick; over
        # the seven M every pair comes up at each N and K.
        combos = [_MI_COMBOS[(_MI_BIN_COUNTS.index(M) + K + N) % len(_MI_COMBOS)]]
    for labels, layout in combos:
        if labels == "int":
            y = rng.integers(0, 3, size=N)
        else:
            y = rng.choice([-0.5, 0.25, 2.0], size=N)
        y = np.where(x[:, 0] > 0.5, y, y[0])  # y depends on x
        xl = _MI_LAYOUTS[layout](x)
        assert discrete_mi_plugin(xl, y, M).hex() == _reference_discrete_mi(xl, y, M).hex()


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

    @pytest.mark.parametrize("empty", ["p", "q"])
    def test_empty_sample_refused(self, empty):
        xs = np.array([[-0.5], [0.5]])
        none = np.empty((0, 1))
        args = (none, xs) if empty == "p" else (xs, none)
        with pytest.raises(ValueError, match=f"no {empty} samples"):
            two_cell_kl_plugin(*args)

    @pytest.mark.parametrize("wide", ["p", "q"])
    def test_second_column_refused(self, wide):
        """Only the first column would be read, so a wider sample is refused."""
        xs, two = np.array([[-0.5], [0.5]]), np.array([[-0.5, 5.0], [0.5, 7.0]])
        args = (two, xs) if wide == "p" else (xs, two)
        with pytest.raises(ValueError, match=f"^{wide} samples must have one column, got 2$"):
            two_cell_kl_plugin(*args)

    @pytest.mark.parametrize("bad", [1.0, -1.5, math.nan])
    def test_sample_outside_cells_refused(self, bad):
        """A point that no cell holds is named, not dropped from both masses."""
        with pytest.raises(OutOfSupportError, match=f"q sample {bad!r} outside"):
            two_cell_kl_plugin([0.5], [bad])
        with pytest.raises(OutOfSupportError, match=f"p sample {bad!r} outside"):
            two_cell_kl_plugin([bad, 0.5], [0.5])


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


@pytest.mark.parametrize("demo", [prop1_demo, mi_adversary_demo, kl_demo])
def test_delta_whose_planted_rate_underflows(demo):
    """Refused before any trial, where delta/(2N) rounds to 0."""
    with pytest.raises(ValueError, match="underflows to 0"):
        demo(C=1.0, delta=5e-324, N=100, trials=10, seed=1)


@pytest.mark.parametrize("demo, C, delta", [
    (prop1_demo, 1.0, 1e-308), (mi_adversary_demo, 1.0, 1e-308), (kl_demo, 1.0, 1e-308),
    (prop1_demo, 1e308, 0.1), (mi_adversary_demo, 1e308, 0.1),
], ids=["prop1-delta", "mi-delta", "kl-delta", "prop1-C", "mi-C"])
def test_planted_parameter_beyond_float_range(demo, C, delta):
    """Refused before the pilot, naming C and delta: no estimator is called."""
    def never(rows):
        raise AssertionError("the pilot ran")

    message = f"C = {C!r} and delta = {delta!r} put the planted parameter a beyond float range"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        demo(C=C, delta=delta, N=100, trials=10, seed=1, estimator=never)


@pytest.mark.parametrize("demo", [prop1_demo, mi_adversary_demo])
def test_calibrated_b_beyond_float_range(demo):
    """a is finite at b = 0 but not at the pilot's b, so the error names b."""
    message = "the calibrated b = 1e+308 with C = 1.0 and delta = 0.1 puts the planted"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        demo(C=1.0, delta=0.1, N=100, trials=10, seed=1, estimator=lambda rows: 1e308)


@pytest.mark.parametrize("C, estimate, k", [(1.0, math.inf, "inf"), (1e308, 1e308, "inf"),
                                          (1.0, -5.0, "-3.6321205588285577")],
                         ids=["c-inf", "C-and-c-huge", "c-negative"])
def test_kl_threshold_not_positive_finite_names_c(C, estimate, k):
    """k = c + C + 1/e beyond float range, or not positive, names the calibrated c and C."""
    message = (f"the calibrated c = {estimate!r} with C = {C!r} gives the threshold "
               f"k = c + C + 1/e = {k}, which is not a positive finite real")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        kl_demo(C=C, delta=0.1, N=100, trials=10, seed=1, estimator=lambda rows: estimate)


class TestExternalEstimatorProtocol:
    def test_round_trip(self):
        est = ExternalEstimator(
            [sys.executable, "-c",
             "import sys; rows = sys.stdin.read().strip().splitlines(); print(len(rows) / 100)"]
        )
        value = est(np.full((25, 2), 0.5))
        assert value == pytest.approx(0.25)

    def test_empty_command_refused(self):
        with pytest.raises(ValueError, match="names no program"):
            ExternalEstimator([])

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

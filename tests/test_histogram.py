"""Quantization, bin counting, and the plug-in estimate."""
import collections
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entrobound import (
    OutOfSupportError,
    build_histogram,
    discrete_mi_plugin,
    estimate_differential_entropy,
    exact_discrete_entropy,
    plugin_entropy,
)
from entrobound import estimate_entropy_certified, estimate_mi_certified, estimators, histogram
from entrobound.densities import LazySample, sample, tent_density, uniform_density
from entrobound.estimators import _default_threads, _map_ordered
from entrobound.histogram import _count_entropy
from entrobound.rng import generator
from reference import quantize_index


class TestQuantizeIndex:
    def test_origin(self):
        for M in (1, 2, 17):
            assert quantize_index([0.0, 0.0, 0.0], M) == (0, 0, 0)

    def test_boundary_clamps_into_top_bin(self):
        assert quantize_index([1.0], 4) == (3,)
        assert quantize_index([1.0, 0.0], 7) == (6, 0)

    def test_floor_arithmetic(self):
        assert quantize_index([0.30], 10) == (3,)
        assert quantize_index([0.299999], 10) == (2,)

    @pytest.mark.parametrize("x", [[1.5], [-0.1], [0.3, 2.0], [float("nan")]])
    def test_out_of_support(self, x):
        with pytest.raises(OutOfSupportError):
            quantize_index(x, 4)

    def test_idempotent_on_bin_corners(self):
        """The lower corner coords/M of any bin maps back to that bin."""
        rng = generator(5)
        for _ in range(200):
            M = int(rng.integers(1, 50))
            K = int(rng.integers(1, 4))
            idx = tuple(int(v) for v in rng.integers(0, M, size=K))
            corner = [i / M for i in idx]
            assert quantize_index(corner, M) == idx

    @pytest.mark.parametrize("M", [2**53 - 1, 2**53])
    def test_edges_at_largest_bin_counts(self, M):
        """Bins stay resolved up to M = 2^53: i/M maps to i, the float below it to i - 1."""
        rng = generator(13)
        picks = [1, 2, 3, M // 3, M // 2, M // 2 + 1, M - 2, M - 1]
        for i in picks + [int(v) for v in rng.integers(1, M, size=50)]:
            corner = i / M
            assert quantize_index([corner], M) == (i,)
            assert quantize_index([np.nextafter(corner, 0.0)], M) == (i - 1,)
        assert quantize_index([1.0], M) == (M - 1,)


@pytest.mark.parametrize("call", [
    lambda: build_histogram(np.zeros((5, 0)), 4),
    lambda: estimate_differential_entropy(np.zeros((5, 0)), 4),
    lambda: discrete_mi_plugin(np.zeros((5, 0)), np.zeros(5), 4),
    lambda: quantize_index([], 4),
], ids=["build_histogram", "estimate_differential_entropy", "discrete_mi_plugin",
        "quantize_index"])
def test_zero_columns_rejected(call):
    with pytest.raises(ValueError, match="^dimension K must be an integer >= 1, got 0$"):
        call()


def _bins(hist):
    """The (n_occ, K) occupied bin index rows, decoded from the keys."""
    if hist.keys.ndim == 2:
        return hist.keys
    return np.stack(np.unravel_index(hist.keys, (hist.M,) * hist.K), axis=1)


def _count_dict(hist):
    """The histogram as a bin-index tuple -> count dict, in row-major bin order."""
    return dict(zip(map(tuple, _bins(hist).tolist()), hist.counts.tolist()))


class TestBuildHistogram:
    def test_hand_binning(self):
        hist = build_histogram([[0.1], [0.1], [0.9]], 2)
        assert _count_dict(hist) == {(0,): 2, (1,): 1}
        assert hist.N == 3 and hist.K == 1 and hist.M == 2

    def test_identical_points_single_key(self):
        hist = build_histogram([[0.4, 0.6]] * 25, 8)
        assert _count_dict(hist) == {(3, 4): 25}

    def test_order_invariance(self):
        rng = generator(1)
        pts = rng.random((500, 2))
        shuffled = pts[rng.permutation(500)]
        assert _count_dict(build_histogram(pts, 13)) == _count_dict(build_histogram(shuffled, 13))

    def test_counts_sum_to_N(self):
        pts = generator(2).random((1000, 3))
        hist = build_histogram(pts, 5)
        assert int(hist.counts.sum()) == 1000
        assert len(hist.counts) <= min(1000, 5**3)

    def test_merge_property(self):
        """Histogram of concatenated samples is the key-wise sum."""
        rng = generator(3)
        a, b = rng.random((400, 2)), rng.random((300, 2))
        ha, hb = build_histogram(a, 9), build_histogram(b, 9)
        merged = _count_dict(ha)
        for key, count in _count_dict(hb).items():
            merged[key] = merged.get(key, 0) + count
        hab = build_histogram(np.vstack([a, b]), 9)
        assert _count_dict(hab) == merged

    def test_wide_grid_fallback_path(self):
        """M^K beyond the packing range still counts correctly."""
        M = 2**40
        pts = np.array([[0.1, 0.6], [0.1, 0.6], [0.9, 0.2]])
        hist = build_histogram(pts, M)
        assert hist.N == 3 and len(hist.counts) == 2
        assert sorted(hist.counts.tolist()) == [1, 2]

    def test_empty_error(self):
        with pytest.raises(ValueError):
            build_histogram(np.empty((0, 1)), 4)

    def test_out_of_support_propagates(self):
        with pytest.raises(OutOfSupportError):
            build_histogram([[0.2], [1.0001]], 4)

    def test_one_dimensional_input_convenience(self):
        hist = build_histogram([0.1, 0.1, 0.9], 2)
        assert _count_dict(hist) == {(0,): 2, (1,): 1}

    def test_out_of_support_names_row_in_later_block(self):
        pts = generator(11).random((2**16 + 10, 2))
        pts[2**16 + 5, 1] = 1.5
        with pytest.raises(OutOfSupportError, match=r"sample 65541 "):
            build_histogram(pts, 4)

    def test_arrays_read_only(self):
        hist = build_histogram(generator(10).random((50, 2)), 4)
        for arr in (hist.keys, hist.counts):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(FrozenInstanceError):
            hist.counts = np.ones(1, dtype=np.int64)

    def test_equality(self):
        pts = generator(12).random((200, 2))
        assert build_histogram(pts, 5) == build_histogram(pts[::-1], 5) != build_histogram(pts, 6)


def _hist_bits(hist):
    return (hist.K, hist.M, hist.N, hist.keys.tobytes(), hist.counts.tobytes(),
            plugin_entropy(hist).hex())


# (K, M): dense bincount (M^K <= 4N), sorted keys (M^K > 4N) and, for the last,
# index rows (K * log2(M) >= 62).
_POOL_CASES = [(1, 7644), (2, 329), (3, 64), (1, 2**22), (2, 2**11), (3, 2**8), (3, 2**21)]


class TestThreadCountInvariance:
    @pytest.mark.parametrize("N", [2**16 + 1, 3 * 2**16 + 5])
    @pytest.mark.parametrize("K, M", _POOL_CASES)
    def test_same_bits_for_any_thread_count(self, K, M, N, monkeypatch):
        points = generator(3000 + K).random((N, K))
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            results.append(_hist_bits(build_histogram(points, M)))
        assert results[0] == results[1] == results[2]

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        """The fill is serial: many threads and fast switching change no bit."""
        points = generator(3100).random((6 * 2**16 + 7, 2))
        monkeypatch.setenv("ENTROBOUND_THREADS", "1")
        serial = _hist_bits(build_histogram(points, 300))
        monkeypatch.setenv("ENTROBOUND_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert _hist_bits(build_histogram(points, 300)) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", ["1", "3", "8"])
    def test_build_histogram_starts_no_pool(self, threads, executors, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", threads)
        build_histogram(generator(5).random((4 * 2**16, 2)), 10)
        assert executors == []

    def test_two_bad_blocks_name_the_lower_row(self, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", "3")
        pts = generator(13).random((4 * 2**16, 2))
        pts[3 * 2**16 + 2, 0] = -0.5
        pts[2**16 + 5, 1] = 1.5
        with pytest.raises(OutOfSupportError, match=r"sample 65541 "):
            build_histogram(pts, 4)

    def test_first_error_in_index_order_propagates(self):
        def fail_on_odd(i):
            if i % 2:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError, match="1"):
            _map_ordered(fail_on_odd, 6, 3)

        last_failed = threading.Event()

        def fail_first_after_last(i):
            if i == 1:
                return i
            if i == 0:
                last_failed.wait(10)
            else:
                last_failed.set()
            raise KeyError(i)

        with pytest.raises(KeyError, match="0"):
            _map_ordered(fail_first_after_last, 3, 3)


class TestDefaultThreads:
    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", "48")
        assert _default_threads() == 48

    def test_usable_cpus_capped_at_32(self, monkeypatch):
        monkeypatch.delenv("ENTROBOUND_THREADS", raising=False)
        monkeypatch.setattr(estimators.os, "sched_getaffinity", lambda pid: set(range(3)),
                            raising=False)
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 64)
        assert _default_threads() == 3
        monkeypatch.setattr(estimators.os, "sched_getaffinity", lambda pid: set(range(64)))
        assert _default_threads() == 32

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("ENTROBOUND_THREADS", raising=False)
        monkeypatch.delattr(estimators.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 5)
        assert _default_threads() == 5
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: None)
        assert _default_threads() == 1

    @pytest.mark.parametrize("env, message", [
        ("two", "ENTROBOUND_THREADS must be an integer, got 'two'"),
        ("0", "ENTROBOUND_THREADS must be >= 1, got '0'"),
        ("-2", "ENTROBOUND_THREADS must be >= 1, got '-2'"),
    ])
    def test_bad_env_rejected(self, env, message, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", env)
        with pytest.raises(ValueError) as exc:
            _default_threads()
        assert str(exc.value) == message


def _edge_pool(M, rng):
    """Coordinates on bin edges i/M (x = 1 included), just below them, and random."""
    if M <= 64:
        i = np.arange(M + 1)
    else:
        i = np.unique(np.concatenate([[0, 1, M - 1, M], rng.integers(0, M + 1, size=60)]))
    edges = i / M
    below = np.nextafter(edges[edges > 0.0], 0.0)
    return np.concatenate([edges, below, rng.random(20)])


def _reference_counts(points, M):
    """Pure-Python tally of quantize_index over every point (repeated rows quantized once)."""
    counts = {}
    for row, repeats in collections.Counter(map(tuple, points.tolist())).items():
        key = quantize_index(row, M)
        counts[key] = counts.get(key, 0) + repeats
    return counts


def _kernel_indices(x, M):
    """The kernel's bin index of every coordinate of x, each binned as a one-column row."""
    return histogram._bin_keys(x.reshape(-1, 1), M).reshape(x.shape)


def _reference_bin_indices(points, M):
    """The quantization rule with its edge fix-ups in integer arithmetic."""
    idx = np.minimum(np.floor(points * M), M - 1).astype(np.int64)
    idx[(idx < M - 1) & ((idx + 1) / M <= points)] += 1
    idx[idx / M > points] -= 1
    return idx


def _assert_bin_count_rejected(points, M):
    """Above 2^53 float64 cannot resolve the bins: every binning entry point refuses M."""
    with pytest.raises(ValueError, match=r"at most 2\^53"):
        quantize_index(points[0], M)
    with pytest.raises(ValueError, match=r"at most 2\^53"):
        build_histogram(points, M)
    with pytest.raises(ValueError, match=r"at most 2\^53"):
        discrete_mi_plugin(points[:, :1], np.ones(len(points), dtype=int), M)


@pytest.mark.parametrize(
    "M", [1, 2, 3, 7, 10, 7644, 2**40, 2**53 - 1, 2**53, 2**53 + 4, 3 * 2**60, 2**62]
)
def test_bin_indices_match_integer_reference(M):
    rng = generator(2000 + M % 1000)
    points = rng.choice(_edge_pool(M, rng), size=(3000, 2))
    if M > 2**53:
        _assert_bin_count_rejected(points, M)
        return
    assert np.array_equal(_kernel_indices(points, M), _reference_bin_indices(points, M))


# (K, M, N): bin edges at K = 1..4 including M = 1; M^K at and just above 4N
# (dense and sorted counting); N = 2^16 - 1 .. 2^16 + 1 across the boundary of
# the second quantization block of 2^15 rows;
# K * log2(M) >= 62, where bins are counted as index rows; M above 2^53 is
# rejected.
_DIFFERENTIAL_CASES = (
    [(K, M, 300) for K in (1, 2, 3, 4) for M in (1, 2, 3, 7, 10)]
    + [(1, 7644, 300), (2, 100, 300)]
    + [(1, 1000, 250), (1, 1000, 249), (2, 31, 250), (2, 32, 250),
       (3, 10, 250), (3, 10, 249), (4, 6, 324), (4, 6, 323)]
    + [(2, 7, 2**16 - 1), (2, 7, 2**16), (2, 7, 2**16 + 1), (3, 100, 2**16 + 1)]
    + [(1, 2**62, 500), (2, 2**40, 500), (3, 2**21, 500), (4, 2**16, 500)]
)


@pytest.mark.parametrize("K, M, N", _DIFFERENTIAL_CASES)
def test_counts_match_pointwise_reference(K, M, N):
    rng = generator(1000 + 10 * K + N % 10)
    points = rng.choice(_edge_pool(M, rng), size=(N, K))
    if M > 2**53:
        _assert_bin_count_rejected(points, M)
        return
    hist = build_histogram(points, M)
    expected = _reference_counts(points, M)
    assert _count_dict(hist) == expected
    assert list(_count_dict(hist)) == sorted(expected)  # row-major bin order
    assert int(hist.counts.sum()) == N
    # the entropy of the reference counts in row-major order, bit for bit
    reference = _count_entropy(np.array([expected[b] for b in sorted(expected)], float), N)
    assert plugin_entropy(hist) == reference


# Every bin count float64 resolves, [1, 2^53], with each bit length equally
# likely: uniform draws would almost all lie above 2^50, where every element
# takes the edge fix-up.
_BIN_COUNTS = st.integers(0, 52).flatmap(lambda b: st.integers(2**b, 2**(b + 1)))


def _padded(x, rng, pad):
    """x followed by pad times as many random floats in [0, 1).

    Random floats almost never lie near a bin edge below M = 2^50, so with
    pad = 16 at most 1/17 of the elements are flagged, and the edge fix-up,
    which runs on the whole array, must leave the unflagged ones as they are;
    with pad = 0, x of edges and their neighbours is mostly flagged.
    """
    return np.concatenate([x, rng.random(pad * x.size)])


@pytest.mark.parametrize("pad", [0, 16])
@given(M=_BIN_COUNTS, seed=st.integers(0, 2**32 - 1))
def test_edges_map_to_their_bins(pad, M, seed):
    """i/M goes to bin i, the float below (i+1)/M to i, and 1.0 to the top bin."""
    rng = generator(seed)
    i = np.concatenate([[0, M - 1], rng.integers(0, M, size=64)])
    for x in (i / M, np.nextafter((i + 1) / M, -np.inf)):
        assert np.array_equal(_kernel_indices(_padded(x, rng, pad), M)[:i.size], i)
    assert _kernel_indices(_padded(np.array([1.0]), rng, pad), M)[0] == M - 1


@pytest.mark.parametrize("pad", [0, 16])
@given(M=_BIN_COUNTS,
       x=hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 1.0)))
def test_bin_indices_match_reference_on_any_floats(pad, M, x):
    x = _padded(x, generator(M), pad)
    assert np.array_equal(_kernel_indices(x, M), _reference_bin_indices(x, M))


@pytest.mark.parametrize("pad", [0, 16])
@given(M=_BIN_COUNTS, seed=st.integers(0, 2**32 - 1))
def test_bin_indices_match_reference_near_edges(pad, M, seed):
    """Edges i/M and their neighbours up to three floats away on either side."""
    rng = generator(seed)
    i = np.concatenate([[0, 1, M - 1, M], rng.integers(0, M + 1, size=64)])
    steps = rng.integers(-3, 4, size=i.size)
    x = i / M
    for s in range(3):
        x = np.where(steps > s, np.nextafter(x, 2.0), x)
        x = np.where(steps < -s, np.nextafter(x, -1.0), x)
    x = _padded(np.clip(x, 0.0, 1.0), rng, pad)
    assert np.array_equal(_kernel_indices(x, M), _reference_bin_indices(x, M))


def _assert_matches_references(points, M):
    """Same bins and counts as the contiguous copy and as the reference rule."""
    hist = build_histogram(points, M)
    copy = build_histogram(np.array(points, order="C"), M)
    bins, counts = np.unique(_reference_bin_indices(points, M), axis=0, return_counts=True)
    assert hist == copy
    assert np.array_equal(_bins(hist), bins) and np.array_equal(hist.counts, counts)


_LAYOUTS = {
    "y term": lambda p: p[:, 1:3],
    "every other column": lambda p: p[:, ::2],
    "fortran order": np.asfortranarray,
    "reversed rows": lambda p: p[::-1],
    "reversed rows and columns": lambda p: p[::-1, ::-1],
}


@pytest.mark.parametrize("N", [2**16 - 1, 2**16 + 1])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_layouts_match_contiguous_and_reference(layout, N):
    """Strided, Fortran-order and negative-stride inputs quantize like a copy."""
    rng = generator(4000 + N % 10)
    M = 329
    pool = np.concatenate([_edge_pool(M, rng), rng.random(400)])
    points = _LAYOUTS[layout](rng.choice(pool, size=(N, 4)))
    _assert_matches_references(points, M)


@pytest.fixture
def fixed(monkeypatch):
    """Sizes of the arrays handed to the edge fix-up, in call order."""
    sizes = []
    fix = histogram._fix_edges

    def spy(idx, x, M):
        sizes.append(idx.size)
        fix(idx, x, M)

    monkeypatch.setattr(histogram, "_fix_edges", spy)
    return sizes


def _block_sizes(N, K):
    """Sizes of the (K, B) blocks ``_bin_keys`` quantizes N rows in."""
    B = histogram._BLOCK_ROWS
    return [K * min(B, N - start) for start in range(0, N, B)]


class TestFlaggedColumns:
    """A block with a flagged coordinate goes through the fix-up whole, once."""

    def test_no_flags_skip_the_fix_up(self, fixed):
        points = generator(4100).random((2**16 + 1, 2))
        _assert_matches_references(points, 10)
        assert fixed == []

    def test_few_flags_fix_the_whole_column(self, fixed):
        points = generator(4101).random((2**16 + 1, 2))
        points[[5, 100], 0] = 0.3  # 0.3 * 10 rounds within an ulp of the edge 3
        points[2**16, 0] = 1.0
        build_histogram(points, 10)
        sizes = _block_sizes(2**16 + 1, 2)
        assert fixed == [sizes[0], sizes[-1]]  # the first block and the last
        _assert_matches_references(points, 10)

    @pytest.mark.parametrize("M", [7, 72])
    def test_many_flags_fix_the_whole_column(self, M, fixed):
        rng = generator(4102 + M)
        points = rng.choice(_edge_pool(M, rng), size=(2**16 - 1, 3))
        build_histogram(points, M)
        assert fixed == _block_sizes(2**16 - 1, 3)
        _assert_matches_references(points, M)

    def test_all_zeros_fix_the_whole_column(self, fixed):
        points = np.zeros((2**16 + 1, 2))
        hist = build_histogram(points, 72)
        assert fixed == _block_sizes(2**16 + 1, 2)
        assert _bins(hist).tolist() == [[0, 0]] and hist.counts.tolist() == [2**16 + 1]


@pytest.mark.parametrize("layout", ["contiguous", "reversed rows"])
def test_index_rows_path_matches_reference(layout):
    """K * log2(M) >= 62 counts index rows; each column is stored into its own key column."""
    rng = generator(4200)
    M = 2**21
    points = rng.choice(_edge_pool(M, rng), size=(2**16 + 1, 4))[:, 1:]
    if layout == "reversed rows":
        points = points[::-1]
    _assert_matches_references(points, M)


def _bin_counts_near_2_53(K):
    """7, and the bin counts with M^K just below 2^53 and just above it (at it, for K = 1)."""
    M = math.floor(2 ** (53 / K))
    while M**K > 2**53:
        M -= 1
    while (M + 1) ** K <= 2**53:
        M += 1
    return [7, M, M + 1] if K > 1 else [7, M - 1, M]


_B = histogram._BLOCK_ROWS


# N across one, two and four blocks; M^K on both sides of 2^53, the largest
# grid whose every key a float64 holds exactly.
@pytest.mark.parametrize("N", [_B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("K, M", [(K, M) for K in (1, 2, 3, 4) for M in _bin_counts_near_2_53(K)])
def test_bin_keys_match_raveled_reference(K, M, N):
    rng = generator(4400 + 10 * K + N % 7)
    wide = rng.random((N, 2 * K))
    # Edge coordinates in the first and the last rows: the other blocks
    # skip the fix-up below M = 2^50.
    wide[:50] = rng.choice(_edge_pool(M, rng), size=(50, 2 * K))
    wide[-5:] = rng.choice(_edge_pool(M, rng), size=(5, 2 * K))
    points = np.ascontiguousarray(wide[:, :K])
    layouts = {
        "C order": points,
        "Fortran order": np.asfortranarray(points),
        "column-strided": wide[:, ::2],
        "row-reversed": points[::-1],
    }
    for layout, pts in layouts.items():
        expected = np.ravel_multi_index(tuple(_reference_bin_indices(pts, M).T), (M,) * K)
        keys = histogram._bin_keys(pts, M)
        assert keys.dtype == np.int64 and np.array_equal(keys, expected), layout


def _cube_message(row, values):
    return (f"sample {row} lies outside [0, 1]^K: {values}; "
            "rescale the data first (affine_rescale)")


class TestOutOfCube:
    """Rows of 2^16 + 1 points: the bad rows sit in the third block of 2^15 rows."""

    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float(np.nextafter(1.0, 2.0)), "1.0000000000000002"),
        (-5e-324, "-5e-324"),
    ])
    def test_rejected_value_names_row_and_values(self, value, shown):
        points = generator(4300).random((2**16 + 1, 3))
        points[2**16] = [0.25, 0.5, value]
        with pytest.raises(OutOfSupportError) as exc:
            build_histogram(points, 4)
        assert str(exc.value) == _cube_message(65536, f"[0.25, 0.5, {shown}]")

    def test_first_bad_row_wins_over_earlier_column(self):
        """Column 0 is checked first, but the error names the earlier row r."""
        points = generator(4301).random((2**16 + 10, 3))
        points[2**16 + 2] = [0.25, 0.5, 1.5]
        points[2**16 + 7] = [-0.5, 0.5, 0.25]
        with pytest.raises(OutOfSupportError) as exc:
            build_histogram(points, 4)
        assert str(exc.value) == _cube_message(65538, "[0.25, 0.5, 1.5]")

    def test_negative_zero_and_one_accepted(self):
        points = generator(4302).random((2**16 + 1, 3))
        points[2**16] = [-0.0, 1.0, -0.0]
        points[3] = [1.0, -0.0, 1.0]
        _assert_matches_references(points, 4)
        counts = _count_dict(build_histogram(points, 4))
        assert counts[(0, 3, 0)] >= 1 and counts[(3, 0, 3)] >= 1


# The block kernel: bin counts with all edges exact, with edges far apart
# and close, M^2 packed and as index rows, and M = 2^50 and 2^53, where every
# coordinate takes the edge fix-up.
_KERNEL_BIN_COUNTS = [1, 3, 72, 113, 7644, 2**26 + 1, 2**50, 2**53]


def _kernel_points(M, K, rng):
    """(B + 100, K) random points holding -0.0, 5e-324, 1.0 and edges i/M with
    their neighbours one ulp either side (every edge for M <= 7644, else 4000
    and the outermost), scattered over every block; and a (B + 100, 2K) array
    whose even columns are those points."""
    if M <= 7644:
        i = np.arange(M + 1)
    else:
        i = np.unique(np.concatenate([[0, 1, M // 2, M - 1, M], rng.integers(0, M + 1, size=4000)]))
    edges = i / M
    pool = np.concatenate([
        [-0.0, 5e-324, 1.0], edges,
        np.nextafter(edges[edges > 0.0], 0.0), np.nextafter(edges[edges < 1.0], 2.0),
    ])
    points = rng.random((_B + 100, K))
    points.reshape(-1)[rng.choice(points.size, size=pool.size, replace=False)] = pool
    wide = rng.random((_B + 100, 2 * K))
    wide[:, ::2] = points
    return points, wide


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("M", _KERNEL_BIN_COUNTS)
def test_block_kernel_matches_integer_reference(M, K):
    """The kernel on one column, _bin_keys and the histogram in every memory layout.

    The histogram counts M^K <= B block by block; larger grids sort the flat
    keys, and M = 2^50 and 2^53 at K = 2 sort the index rows."""
    points, wide = _kernel_points(M, K, generator(4500 + K))
    layouts = {
        "C order": points,
        "Fortran order": np.asfortranarray(points),
        "column-strided": wide[:, ::2],
        "row-reversed": points[::-1],
    }
    for layout, pts in layouts.items():
        expected = _reference_bin_indices(pts, M)
        assert np.array_equal(_kernel_indices(pts, M), expected), layout
        if M**K < 2**62:
            expected = np.ravel_multi_index(tuple(expected.T), (M,) * K)
        keys = histogram._bin_keys(pts, M)
        assert keys.dtype == np.int64 and np.array_equal(keys, expected), layout
        hist = build_histogram(pts, M)
        ref_keys, ref_counts = np.unique(expected, axis=0 if expected.ndim == 2 else None,
                                         return_counts=True)
        assert np.array_equal(hist.keys, ref_keys), layout
        assert np.array_equal(hist.counts, ref_counts), layout


_BAD_VALUES = [
    (float(np.nextafter(1.0, 2.0)), "1.0000000000000002"),
    (-5e-324, "-5e-324"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
]


@pytest.mark.parametrize("value, shown", _BAD_VALUES, ids=[v[1] for v in _BAD_VALUES])
@pytest.mark.parametrize("M", [3, 7644, 2**53])
def test_out_of_cube_named_in_a_later_block(M, value, shown):
    """The scaled cube check rejects what the unscaled one did, with its message.

    The bad row sits in the third block; a later row is bad in an earlier
    column.  The histogram counts M = 3 block by block; 7644 and 2^53 go
    through _bin_keys.
    """
    points = generator(4510).random((2 * _B + 20, 2))
    points[2 * _B + 9] = [0.5, value]
    points[2 * _B + 15] = [value, 0.5]
    message = _cube_message(2 * _B + 9, f"[0.5, {shown}]")
    for call in (build_histogram, histogram._bin_keys):
        for layout in (points, np.asfortranarray(points)):
            with pytest.raises(OutOfSupportError) as exc:
                call(layout, M)
            assert str(exc.value) == message


@pytest.mark.parametrize("N", [_B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("K, M", [(1, _B), (3, 32), (1, _B + 1)])
def test_counting_paths_agree_at_the_block_size(K, M, N, monkeypatch):
    """One grid counted on both sides of the block-size cut: with blocks of
    M^K rows block by block, with blocks of M^K - 1 rows through the N keys
    of _bin_keys.  Either way the histogram is the same, and at the default
    block size M^K = B counts block by block and M^K = B + 1 by keys."""
    rng = generator(4520 + K + N % 7)
    points = rng.choice(_edge_pool(M, rng), size=(N, K))
    assert M**K <= 4 * N  # the keys are counted by bincount, not sorted
    bin_keys = histogram._bin_keys
    calls = []
    monkeypatch.setattr(histogram, "_bin_keys", lambda *a: calls.append(1) or bin_keys(*a))
    counted = {}
    for block_rows in (M**K, M**K - 1):  # one of them is B
        monkeypatch.setattr(histogram, "_BLOCK_ROWS", block_rows)
        calls.clear()
        counted[block_rows] = build_histogram(points, M)
        assert bool(calls) == (block_rows < M**K), block_rows
    dense, keyed = counted[M**K], counted[M**K - 1]
    assert dense == keyed
    bins, counts = np.unique(_reference_bin_indices(points, M), axis=0, return_counts=True)
    assert np.array_equal(_bins(dense), bins) and np.array_equal(dense.counts, counts)


def _stream_grids(K, N):
    """M with M^K at most B, just above B (and at most 4N), and just above 4N."""
    def root(x):  # the largest M with M^K <= x
        M = math.floor(x ** (1 / K))
        while (M + 1) ** K <= x:
            M += 1
        while M**K > x:
            M -= 1
        return M

    return [root(_B), root(_B) + 1, root(4 * N) + 1]


@pytest.mark.parametrize("density", [tent_density, uniform_density], ids=["tent", "uniform"])
@pytest.mark.parametrize("N", [_B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_stream_counts_match_the_drawn_array(K, N, density, monkeypatch):
    """A LazySample binned as it is drawn gives the histogram of the drawn
    array, key for key: on the small grid, on the in-place tally up to 4N
    bins, and on the N keys above 4N, the only grid that forms them."""
    model = density(K)
    seed = 4540 + 10 * K + N % 7
    drawn = sample(model, N, seed)
    bin_keys = histogram._bin_keys
    keyed = []
    monkeypatch.setattr(histogram, "_bin_keys",
                        lambda rows, M: keyed.append(isinstance(rows, np.ndarray)) or bin_keys(rows, M))
    small, large, above = _stream_grids(K, N)
    assert small**K <= _B < large**K <= 4 * N < above**K
    for M in (small, large, above):
        keyed.clear()
        streamed = build_histogram(LazySample(model, N, seed), M)
        assert keyed == ([False] if M == above else []), M
        assert streamed == build_histogram(drawn, M), M


def test_large_grid_stream_forms_no_second_tally(monkeypatch):
    """On a grid above B bins the stream adds each block's keys into its
    tally in place: no bincount, and no other array of M^K bins, even where
    M^K exceeds B many times over and N spans several blocks."""
    model = tent_density(2)
    N, M = 3 * _B + 5, 620  # 620^2 = 384400 bins, 11.7 blocks; <= 4N
    assert _B < M**2 <= 4 * N
    bincount = np.bincount
    monkeypatch.setattr(histogram.np, "bincount",
                        lambda *a, **kw: pytest.fail("bincount on the stream") or bincount(*a, **kw))
    build_histogram(LazySample(model, _B, 1), M)  # this thread's workspace
    peak, streamed = _traced_peak(build_histogram, LazySample(model, N, 4550), M)
    monkeypatch.setattr(histogram.np, "bincount", bincount)
    assert streamed == build_histogram(sample(model, N, 4550), M)
    # The 8 M^K-byte tally, its occupied keys and counts (16 N bytes at most)
    # and the 0.5 MiB draw buffer; a second tally would add 3 MiB.
    assert peak < 8 * M**2 + 16 * N + 2**20


@pytest.mark.parametrize("N", [2**18, 2**20])
def test_streamed_estimate_memory_does_not_grow_with_n(N):
    """The traced peak of a streamed tent estimate at K = 2 stays under 3.5 MiB
    at 2^18 and 2^20 rows: below the drawn sample's 16 N bytes (4 and 16 MiB).
    The draw buffer, the workspace and the bin tally are all it holds."""
    model = tent_density(2)
    estimate_entropy_certified(LazySample(model, _B, 1), 8.0, 0.1)  # this thread's workspace
    peak, report = _traced_peak(estimate_entropy_certified, LazySample(model, N, 4560), 8.0, 0.1)
    assert report.params.N == N
    assert report.estimate == estimate_entropy_certified(sample(model, N, 4560), 8.0, 0.1).estimate
    assert peak < 3.5 * 2**20


def _traced_peak(fn, *args):
    """The traced peak of fn(*args) in bytes, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class TestWorkspace:
    """Each thread bins in one workspace, made once and reused by every call."""

    def test_small_grid_memory_does_not_grow_with_n(self):
        points = generator(4530).random((10**6, 2))
        build_histogram(points[:_B], 113)  # this thread's workspace holds a whole block
        small, _ = _traced_peak(build_histogram, points[:10**5], 113)
        large, hist = _traced_peak(build_histogram, points, 113)
        assert hist.N == 10**6
        assert abs(large - small) <= 8 * 2 * _B
        assert large < 8 * 10**5  # a tenth of 10^6 int64 keys

    def test_second_call_reuses_the_workspace(self):
        points = generator(4531).random((3 * _B, 2))
        histogram._bin_keys(points, 72)
        scaled, index = histogram._workspace.scaled, histogram._workspace.index
        peak, keys = _traced_peak(histogram._bin_keys, points, 72)
        assert histogram._workspace.scaled is scaled and histogram._workspace.index is index
        assert peak - keys.nbytes < 8 * _B  # less than one row of either buffer

    def test_threads_keep_their_own(self):
        """Threads binning at once, each at its own K and M, match the serial keys."""
        rng = generator(4532)
        jobs = [(rng.random((2 * _B + 9, K)), M) for K, M in [(1, 7644), (2, 72), (3, 113), (2, 2**50)]]
        expected = [histogram._bin_keys(pts, M) for pts, M in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(jobs)) as pool:
                for _ in range(3):
                    got = list(pool.map(lambda job: histogram._bin_keys(*job), jobs, timeout=60))
                    assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        finally:
            sys.setswitchinterval(interval)


_GRID_BITS = st.integers(0, 40).flatmap(lambda b: st.integers(2**b, 2**(b + 1) - 1))


@given(data=st.data(), K=st.integers(1, 3), M=_GRID_BITS, N=st.integers(1, 40))
def test_histogram_properties(data, K, M, N):
    """Keys, bins and counts agree with each other and bound the plug-in entropy."""
    coords = st.one_of(st.floats(0.0, 1.0), st.integers(0, M).map(lambda i: i / M))
    points = data.draw(hnp.arrays(np.float64, (N, K), elements=coords))
    hist = build_histogram(points, M)
    bins = _bins(hist)
    assert bins.shape == (hist.counts.size, K) and not hist.keys.flags.writeable
    rows = [tuple(row) for row in bins.tolist()]
    assert rows == sorted(set(rows))  # unique, in row-major order
    if hist.keys.ndim == 1:  # packed: K * log2(M) < 62
        assert np.array_equal(hist.keys, np.ravel_multi_index(bins.T, (M,) * K))
    else:
        assert np.array_equal(hist.keys, bins)
    assert hist.counts.sum() == N
    assert 0.0 <= plugin_entropy(hist) <= math.log(min(N, M**K))


def test_estimates_never_decode_bins(monkeypatch):
    """Estimates read only the counts: no bins, no np.unravel_index."""
    def fail(*args, **kwargs):
        raise AssertionError("bins decoded")

    monkeypatch.setattr(np, "unravel_index", fail)
    points = generator(14).random((2**16 + 3, 3))
    for M in (4, 50, 2**21):  # dense, sorted and index-row counting
        hist = build_histogram(points, M)
        assert plugin_entropy(hist) >= 0.0
        estimate_differential_entropy(points, M)
    estimate_entropy_certified(points, 4.0, 0.1)
    estimate_mi_certified(points, 1, 4.0, 0.1)
    discrete_mi_plugin(points, points[:, 0] > 0.5, 2**21)
    with pytest.raises(AssertionError, match="bins decoded"):
        _bins(build_histogram(points, 4))


class TestPluginEntropy:
    def test_single_bin_zero(self):
        assert plugin_entropy(build_histogram([[0.5]] * 17, 4)) == 0.0

    def test_distinct_bins_log_N(self):
        pts = [[(i + 0.5) / 16] for i in range(16)]
        assert plugin_entropy(build_histogram(pts, 16)) == pytest.approx(math.log(16), abs=1e-12)

    def test_two_one_split(self):
        hist = build_histogram([[0.1], [0.1], [0.9]], 2)
        expected = math.log(3) - (2.0 / 3.0) * math.log(2)
        assert plugin_entropy(hist) == pytest.approx(expected, abs=1e-12)
        assert plugin_entropy(hist) == pytest.approx(0.63651, abs=1e-5)

    def test_range_invariant(self):
        rng = generator(4)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(1, 3))
            M = int(rng.integers(1, 20))
            hist = build_histogram(rng.random((n, k)), M)
            h = plugin_entropy(hist)
            assert 0.0 <= h <= math.log(min(n, M**k)) + 1e-12

    def test_matches_exact_discrete_entropy(self):
        hist = build_histogram(generator(6).random((500, 1)), 7)
        pmf = hist.counts / hist.N
        assert plugin_entropy(hist) == pytest.approx(exact_discrete_entropy(pmf), abs=1e-12)

    def test_count_logs_from_libm(self):
        """9170 is the smallest count whose log numpy's AVX-512 kernel rounds
        off libm's by an ulp; the entropy takes libm's on every CPU."""
        assert _count_entropy(np.array([9170, 830]), 10000).hex() == "0x1.24e69c1a2ce00p-2"
        counts = np.array([9170, 830, 9170, 1, 2])
        reference = math.log(19173) - math.fsum(c * math.log(c) for c in counts) / 19173
        assert _count_entropy(counts, 19173) == pytest.approx(reference, rel=1e-15)


class TestEstimateDifferentialEntropy:
    def test_single_sample(self):
        for M, K in ((5, 1), (9, 2)):
            pts = np.full((1, K), 0.3)
            assert estimate_differential_entropy(pts, M) == pytest.approx(
                -K * math.log(M), abs=1e-12
            )

    def test_single_bin_M1(self):
        pts = generator(7).random((100, 2))
        assert estimate_differential_entropy(pts, 1) == 0.0

    def test_hand_value(self):
        est = estimate_differential_entropy([[0.1], [0.1], [0.9]], 2)
        assert est == pytest.approx(0.6365141682948128 - math.log(2), abs=1e-12)
        assert est == pytest.approx(-0.05664, abs=1e-4)

    def test_range_and_identity(self):
        rng = generator(8)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            M = int(rng.integers(1, 30))
            pts = rng.random((n, 2))
            est = estimate_differential_entropy(pts, M)
            assert -2 * math.log(M) - 1e-12 <= est <= 1e-12
            # identity: estimate + K log M equals the plug-in Shannon entropy
            hist = build_histogram(pts, M)
            assert est + 2 * math.log(M) == pytest.approx(plugin_entropy(hist), abs=1e-12)

    def test_consistency_with_exact_discrete_law(self):
        """Samples on bin corners: plug-in tends to the exact pmf entropy."""
        pmf = np.array([0.5, 0.3, 0.2])
        corners = np.array([0.0, 0.25, 0.5])
        rng = generator(9)
        draws = rng.choice(corners, size=10**6, p=pmf).reshape(-1, 1)
        h = plugin_entropy(build_histogram(draws, 4))
        assert h == pytest.approx(exact_discrete_entropy(pmf), abs=0.01)

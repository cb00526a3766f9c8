"""Quantization, sparse bin counting, and the plug-in entropy estimate.

The pipeline: samples in [0,1]^K are quantized per coordinate to bin index
floor(M*x) (the top boundary x = 1 clamps into bin M-1), counted in a sparse
map over the M^K grid, and the differential entropy is estimated as the
Shannon entropy of the bin counts minus the correction K*log(M):

    h_hat = H(counts / N) - K * log(M) .

Storage is always sparse (at most N occupied bins), never a dense M^K array.
Histograms are immutable once built and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import as_int
from .errors import OutOfSupportError

__all__ = [
    "BinIndex",
    "SparseHistogram",
    "quantize_index",
    "build_histogram",
    "plugin_entropy",
    "estimate_differential_entropy",
]

# A bin index is a K-tuple of integers, each in [0, M-1].
BinIndex = tuple[int, ...]


@dataclass(frozen=True)
class SparseHistogram:
    """Bin-index -> count map over the M^K grid, with N total samples."""

    K: int
    M: int
    counts: dict[BinIndex, int]
    N: int


def _as_points(samples) -> np.ndarray:
    """Coerce input to an (N, K) float array; 1-D input is K=1."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"samples must be an (N, K) array, got shape {arr.shape}")
    return arr


def _check_unit_cube(arr: np.ndarray) -> None:
    # NaN fails both comparisons, so it is rejected here too.
    inside = (arr >= 0.0) & (arr <= 1.0)
    if not inside.all():
        bad = int(np.argmax(~inside.all(axis=1)))
        raise OutOfSupportError(
            f"sample {bad} lies outside [0, 1]^K: {arr[bad].tolist()}; "
            "rescale the data first (affine_rescale)"
        )


def quantize_index(x, M: int) -> BinIndex:
    """Bin index of a single point: coordinate k maps to min(floor(M*x_k), M-1).

    The clamp puts the measure-zero boundary x_k = 1 into the top bin so the
    bins cover the closed cube.  Bin edges are the correctly rounded values
    of i/M, so a bin's lower corner always maps back to that bin even when
    x*M itself rounds across the edge.
    """
    M = as_int("M", M)
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    _check_unit_cube(arr.reshape(1, -1))
    idx = _bin_indices(arr.reshape(1, -1), M)[0]
    return tuple(int(i) for i in idx)


def _bin_indices(points: np.ndarray, M: int) -> np.ndarray:
    idx = np.minimum(np.floor(points * M), M - 1).astype(np.int64)
    # floor(x*M) can land one bin off when the product rounds across an
    # edge; fix against the rounded edges i/M themselves.
    idx[(idx < M - 1) & ((idx + 1) / M <= points)] += 1
    idx[idx / M > points] -= 1
    return idx


def build_histogram(samples, M: int) -> SparseHistogram:
    """Sparse bin counts of the samples; independent of sample order."""
    M = as_int("M", M)
    points = _as_points(samples)
    n, k = points.shape
    if n == 0:
        raise ValueError("cannot build a histogram from zero samples")
    _check_unit_cube(points)
    idx = _bin_indices(points, M)
    if k == 1:
        uniq, cnt = np.unique(idx[:, 0], return_counts=True)
        counts = {(int(b),): int(c) for b, c in zip(uniq.tolist(), cnt.tolist())}
    elif math.log2(M) * k < 62:
        # Pack the K coordinates into one integer for a fast 1-D unique.
        flat = np.ravel_multi_index(idx.T, (M,) * k)
        uniq, cnt = np.unique(flat, return_counts=True)
        coords = np.unravel_index(uniq, (M,) * k)
        keys = zip(*(c.tolist() for c in coords))
        counts = {tuple(key): int(c) for key, c in zip(keys, cnt.tolist())}
    else:
        uniq, cnt = np.unique(idx, axis=0, return_counts=True)
        counts = {tuple(row): int(c) for row, c in zip(uniq.tolist(), cnt.tolist())}
    return SparseHistogram(K=k, M=M, counts=counts, N=n)


def _count_entropy(counts: np.ndarray, n: int) -> float:
    """Shannon entropy, in nats, of positive counts summing to n.

    Computed as log(n) - sum(c * log(c)) / n, which avoids forming tiny
    ratios; a single count gives exactly 0.
    """
    if counts.size == 1:
        return 0.0
    return float(math.log(n) - np.sum(counts * np.log(counts)) / n)


def plugin_entropy(hist: SparseHistogram) -> float:
    """Shannon entropy of the empirical bin distribution, in nats.

    Result lies in [0, log(min(N, M^K))], and is exactly 0 for a single
    occupied bin.
    """
    if hist.N < 1 or not hist.counts:
        raise ValueError("empty histogram")
    c = np.fromiter(hist.counts.values(), dtype=np.float64, count=len(hist.counts))
    return _count_entropy(c, hist.N)


def estimate_differential_entropy(samples, M: int) -> float:
    """Plug-in differential entropy h_hat = H(binned samples) - K*log(M).

    Always lies in [-K*log(M), 0].
    """
    hist = build_histogram(samples, M)
    return plugin_entropy(hist) - hist.K * math.log(M)

"""Quantization, bin counting, and the plug-in entropy estimate.

The pipeline: samples in [0,1]^K are quantized per coordinate to bin index
floor(M*x) (the top boundary x = 1 clamps into bin M-1), the occupied bins
are counted, and the differential entropy is estimated as the Shannon entropy
of the bin counts minus the correction K*log(M):

    h_hat = H(counts / N) - K * log(M) .

M is at most 2^53: beyond it float64 cannot tell neighbouring bin edges
apart, so binning rejects larger M.

This module is the only one that knows the bin rule and the key format.
Rows are quantized serially in blocks of ``_BLOCK_ROWS`` by one kernel,
``_quantize_block``, which writes into this thread's workspace: a
(K, ``_BLOCK_ROWS``) float64 buffer and an int64 buffer of the same shape,
16*K*``_BLOCK_ROWS`` bytes (less while the thread has only seen smaller
blocks), kept for the thread's life and released with it.  So a run of
many binning calls on one thread, as coverage's trials are, touches the
same pages each time.
The kernel scales each coordinate column into the float buffer, checks the
unit cube there and takes one certified floor of x*M into the int64
buffer, which is the bin index except within a few ulps of a bin edge;
only a block with a coordinate there goes through the exact edge fix-up
(see ``_quantize_block``).

``build_histogram`` takes an (N, K) array or a row stream: any object with
a ``shape`` of (N, K) and a ``blocks(rows)`` method that yields (start,
block) for consecutive (b, K) float64 blocks, b <= rows, each valid until
the next is drawn.  ``densities.LazySample`` is one; binning it draws the
sample as it goes, so the sample is never held whole.  Both feed one
block-counting loop, ``_dense_counts``, on a small grid
(M^K <= ``_BLOCK_ROWS``): each block's keys go into one dense tally, and no
N-row array is formed.  A stream on a grid of up to 4N bins takes that loop
too, adding each block's keys into the tally in place (``np.add.at``), so
besides the 8*M^K-byte tally it forms only the histogram's own arrays.  Other
grids go through ``_bin_keys``, which folds each block's K index rows into
row-major int64 keys while M^K < 2^62, and ``_tally``, which counts the
keys with a dense ``bincount`` only when M^K <= 4N, otherwise by sorting
them, so memory stays O(N); an array keeps this path up to 4N bins, where
its N keys already exist and one ``bincount`` over them is the cheaper
count.  ``_bin_ranks`` gives each row the rank of its bin among
the occupied ones, for ``estimators.discrete_mi_plugin``.  Only these read
the key layout.

A histogram is two arrays in row-major bin order: ``keys``, its occupied
bins (at most N), and ``counts``, their counts.  The plug-in estimate reads
only ``counts``.
Histograms are immutable once built and safe to share across threads;
parallelism lives a level up, on whole estimates (see ``estimators``).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import as_int
from .errors import OutOfSupportError

__all__ = [
    "SparseHistogram",
    "build_histogram",
    "plugin_entropy",
    "estimate_differential_entropy",
]

# Rows quantized per block: the kernel's passes over the two (K, B)
# workspace buffers stay in cache.  Re-measured with this kernel on a 2-vCPU
# host (best of 5, one thread / two threads binning at once): for the 1e6-row
# M = 7644 term of mi-estimate, 2^13 rows took 8.4 / 28 ms against
# 6.7 / 12 ms at 2^15, and 2^16 was no faster than 2^15 on any term.
_BLOCK_ROWS = 1 << 15

# Each thread's block workspace, see _block_buffers.
_workspace = threading.local()

# Largest bin count per axis.  Up to 2^53 the edges i/M round to distinct
# float64 values and idx + 1 and M - 1 are exact, so every bin is reachable
# and the edge fix-up in _fix_edges takes exact integer steps.  From 2^50 on
# _quantize_block flags every coordinate as near an edge.
_MAX_BINS = 2**53

@dataclass(frozen=True, eq=False)
class SparseHistogram:
    """Occupied bins of the M^K grid and their counts, over N samples.

    ``keys`` holds the occupied bins in row-major order: the (n_occ,) int64
    row-major flat keys, or, when M^K >= 2^62 would overflow them, the
    (n_occ, K) int64 bin index rows.  ``counts`` is the (n_occ,) int64 array
    of their counts, so ``counts[i]`` is the count of ``keys[i]``; both
    arrays are read-only, and the plug-in estimate reads only ``counts``.
    """

    K: int
    M: int
    N: int
    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.keys.flags.writeable = False
        self.counts.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseHistogram):
            return NotImplemented
        return (
            (self.K, self.M, self.N) == (other.K, other.M, other.N)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
        )


def _as_points(samples) -> np.ndarray:
    """Coerce input to an (N, K) float array with K >= 1; 1-D input is K=1."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"samples must be an (N, K) array, got shape {arr.shape}")
    as_int("dimension K", arr.shape[1])
    return arr


def _check_unit_cube(arr: np.ndarray, first: int = 0) -> None:
    """Reject rows outside [0, 1]^K; ``first`` is the index of arr's row 0."""
    # NaN fails both comparisons, so it is rejected here too.
    inside = (arr >= 0.0) & (arr <= 1.0)
    if not inside.all():
        bad = int(np.argmax(~inside.all(axis=1)))
        raise OutOfSupportError(
            f"sample {first + bad} lies outside [0, 1]^K: {arr[bad].tolist()}; "
            "rescale the data first (affine_rescale)"
        )


def _bin_count(M) -> int:
    """M as an int in [1, 2^53], the bin counts whose edges float64 resolves."""
    M = as_int("M", M)
    if M > _MAX_BINS:
        raise ValueError(
            f"M must be at most 2^53 = {_MAX_BINS}, where float64 stops resolving "
            f"the bin edges, got {M}"
        )
    return M


def _block_buffers(k: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's workspace as contiguous (k, b) float64 and int64 views.

    Remade only when a block has more elements than any before it on this
    thread, so every later block reuses the same memory, at most
    16*K*``_BLOCK_ROWS`` bytes.
    """
    if getattr(_workspace, "size", 0) < k * b:
        _workspace.size = k * b
        _workspace.scaled = np.empty(_workspace.size)
        _workspace.index = np.empty(_workspace.size, dtype=np.int64)
    return (_workspace.scaled[:k * b].reshape(k, b),
            _workspace.index[:k * b].reshape(k, b))


def _quantize_block(block: np.ndarray, start: int, M: int) -> np.ndarray:
    """The bin indices of a (b, K) block of rows, as a (K, b) view of the workspace.

    ``start`` is the index of the block's first row, for the error message.
    The view holds only until this thread's next call, so the caller copies
    or folds it first.  M must pass ``_bin_count``.

    The rule: coordinate x goes to the largest i in [0, M - 1] with
    fl(i/M) <= x, where fl(i/M) is the correctly rounded edge.  So the
    measure-zero boundary x = 1 falls into the top bin and the bins cover
    the closed cube, and a bin's lower corner always maps back to that bin
    even when x*M itself rounds across the edge.  A row outside [0, 1]^K
    raises ``OutOfSupportError`` naming the first one.

    Cube check.  The kernel checks f = fl(x*M), not x: for an integer
    1 <= M <= 2^53, x is in [0, 1] exactly when f is in [0, M].  If
    0 <= x <= 1 then 0 <= x*M <= M, and rounding is monotone and keeps 0
    and M.  If x < 0 then x*M <= x < 0, so f <= x < 0.  If x > 1 then
    x >= 1 + 2^-52 and x*M >= M + M*2^-52, which is at least the float
    after M, so f > M.  NaN fails both compares.

    Certified floor.  Let i = floor(f) and r = f - i, which is exact
    (Sterbenz), with u = 2^-53 and delta = 4uM.  Elements with
    delta <= r <= 1 - delta keep i; the others go through the exact edge
    fix-up of ``_fix_edges``.  Proof that an i with uM <= r <= 1 - uM is
    the rule's index, so that the clamp and both +-1 steps leave it
    unchanged.  First, i <= M - 1, as r > 0 and f <= M.  Low edge:
    fl(i/M) <= x.  Otherwise x < i/M (if fl(i/M) > i/M, x is at most the
    float below fl(i/M), which lies below i/M), so xM < i; i is a float,
    so f <= i and r = 0.  High edge, for j = i + 1 <= M - 1: x < fl(j/M).
    Otherwise, as f < j rules out fl(j/M) >= j/M, fl(j/M) = j/M - d with
    0 < d <= 2^e u, where 2^e < j/M < 2^(e+1) and e <= -1.  So
    j - Md <= xM < j.  Floats below j, with 2^g < j <= 2^(g+1), are
    s = 2^(g+1) u apart, and f < j needs Md >= s/2, so M 2^e >= 2^g; then
    j - f <= Md + s/2 <= (M 2^e + 2^g) u < 3s/2, as M 2^e < j.  A multiple
    of s, j - f is s.  And M > 2^(g+1): M >= 2^(g-e) >= 2^(g+1), with
    equality only when M is a power of two, where j/M is a float and d = 0.
    So 1 - r = s < uM.  The compares on r are exact (delta and 1 - delta
    are multiples of 2^-51), and delta >= uM, so its factor 4 is slack.
    For M >= 2^50, delta >= 1/2 flags every element.  Since i <= M <= 2^53,
    the floor is exact in int64 too.

    The fix-up runs on the whole block when any of its elements is flagged:
    it leaves unflagged elements as they are, and random data below
    M = 2^50 is almost never flagged at all.
    """
    b, k = block.shape
    f, idx = _block_buffers(k, b)
    for j in range(k):
        # The scale is the transposing copy: every later pass runs on the
        # contiguous rows of f, where numpy's inner loops are b elements long.
        np.multiply(block[:, j], M, out=f[j])
    if not (f.min() >= 0.0 and f.max() <= M):  # x in [0, 1]^K; NaN fails both
        _check_unit_cube(block, start)  # names the first bad row
    np.floor(f, out=idx, casting="unsafe")
    f -= idx
    delta = M * 2.0**-51
    if f.min() < delta or f.max() > 1.0 - delta:
        _fix_edges(idx, block.T, M)
    return idx


def _fix_edges(idx: np.ndarray, x: np.ndarray, M: int) -> None:
    """Turn idx = floor(fl(x*M)) into the bin rule's index, in place."""
    np.minimum(idx, M - 1, out=idx)
    # floor(x*M) can land one bin off when the product rounds across an
    # edge; fix against the rounded edges i/M themselves.  idx holds exact
    # integers (M <= 2^53), so idx + 1 and idx / M are the float edges'
    # own operations, and adding the 0/1 masks is an integer +1 / -1.
    idx += (idx < M - 1) & ((idx + 1) / M <= x)
    idx -= idx / M > x


def _fold_keys(idx: np.ndarray, M: int, out: np.ndarray) -> np.ndarray:
    """Horner-fold (K, b) index rows into row-major keys in out; exact below 2^62."""
    out[:] = idx[0]
    for row in idx[1:]:  # ((i_0 * M + i_1) * M + i_2) ...
        out *= M
        out += row
    return out


def _rows(samples):
    """A row stream as it is; anything else as ``_as_points`` makes it."""
    return samples if hasattr(samples, "blocks") else _as_points(samples)


def _blocks(rows):
    """(start, block) for consecutive blocks of at most ``_BLOCK_ROWS`` rows.

    ``rows`` is an (n, K) array, whose blocks are views of it, or a row
    stream, whose blocks each hold only until the next is drawn.
    """
    if isinstance(rows, np.ndarray):
        return ((start, rows[start:start + _BLOCK_ROWS])
                for start in range(0, rows.shape[0], _BLOCK_ROWS))
    return rows.blocks(_BLOCK_ROWS)


def _bin_keys(rows, M: int) -> np.ndarray:
    """Row-major flat bin key of every row; M must pass ``_bin_count``.

    ``rows`` is an (n, K) array or a row stream.  Rows are quantized in
    blocks of ``_BLOCK_ROWS`` by ``_quantize_block``, and each block's K
    index rows are folded straight into its slice of the int64 keys.  From
    M^K >= 2^62 on a flat key could overflow int64, and the result is the
    (n, K) bin index rows instead.  A row outside [0, 1]^K raises
    ``OutOfSupportError`` naming the first one.
    """
    n, k = rows.shape
    packed = M**k < 2**62
    keys = np.empty(n if packed else (n, k), dtype=np.int64)
    for start, block in _blocks(rows):
        idx = _quantize_block(block, start, M)
        key = keys[start:start + len(block)]
        if packed:
            _fold_keys(idx, M, out=key)
        else:
            key[:] = idx.T
    return keys


def _dense_counts(rows, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupied keys and counts of the rows (an array or a row stream) on one
    dense tally of all M^K bins.

    Each block's keys are folded in place in the workspace and counted at
    once: by one ``bincount`` on a grid of at most ``_BLOCK_ROWS`` bins, and
    above it by ``np.add.at`` straight into the tally, which costs about
    what one ``bincount`` over all N keys does per key but forms no second
    M^K-bin array.  So no N-row array is formed.  Same result as
    ``_tally(_bin_keys(rows, M), M, K)``.
    """
    size = M**rows.shape[1]
    tally = np.zeros(size, dtype=np.int64)
    for start, block in _blocks(rows):
        idx = _quantize_block(block, start, M)
        keys = _fold_keys(idx, M, out=idx[0])
        if size <= _BLOCK_ROWS:
            tally += np.bincount(keys, minlength=size)
        else:
            np.add.at(tally, keys, 1)
    occupied = np.flatnonzero(tally)
    return occupied, tally[occupied]


def _tally(keys: np.ndarray, M: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupied keys of ``_bin_keys`` in row-major order, and their counts.

    Flat keys are counted with a dense ``bincount`` only when the grid is
    small (M^K <= 4n), otherwise by sorting them, so memory stays O(n);
    index rows are sorted as rows.
    """
    if keys.ndim == 2:
        return np.unique(keys, axis=0, return_counts=True)
    if M**K <= 4 * keys.size:
        tally = np.bincount(keys, minlength=M**K)
        occupied = np.flatnonzero(tally)
        return occupied, tally[occupied]
    return np.unique(keys, return_counts=True)


def _bin_ranks(points: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among the occupied bins of (n, K) points, and their counts.

    Ranks and counts follow row-major bin order, as in ``_tally``; M must
    pass ``_bin_count``.
    """
    keys = _bin_keys(points, M)
    _, rank, counts = np.unique(keys, axis=0 if keys.ndim == 2 else None,
                                return_inverse=True, return_counts=True)
    return rank.reshape(-1), counts


def build_histogram(samples, M: int) -> SparseHistogram:
    """Bin counts of the samples in row-major bin order; independent of sample order.

    ``samples`` is an (N, K) array or a row stream (see the module notes).
    """
    M = _bin_count(M)
    rows = _rows(samples)
    n, k = rows.shape
    if n == 0:
        raise ValueError("cannot build a histogram from zero samples")
    if M**k <= _BLOCK_ROWS or (not isinstance(rows, np.ndarray) and M**k <= 4 * n):
        keys, counts = _dense_counts(rows, M)
    else:
        keys, counts = _tally(_bin_keys(rows, M), M, k)
    return SparseHistogram(K=k, M=M, N=n, keys=keys, counts=counts)


def _count_entropy(counts: np.ndarray, n: int) -> float:
    """Shannon entropy, in nats, of positive counts summing to n.

    Computed as log(n) - sum(c * log(c)) / n, which avoids forming tiny
    ratios; a single count gives exactly 0.  Each log(c) is libm's
    ``math.log``, looked up once per distinct count: numpy's vector log
    can differ from it by an ulp depending on the CPU features it
    dispatches to, and the result must not.
    """
    if counts.size == 1:
        return 0.0
    idx = counts.astype(np.int64, copy=False)
    distinct = np.flatnonzero(np.bincount(idx))
    lut = np.empty(distinct[-1] + 1)
    lut[distinct] = [math.log(c) for c in distinct.tolist()]
    return float(math.log(n) - np.sum(counts * lut[idx]) / n)


def plugin_entropy(hist: SparseHistogram) -> float:
    """Shannon entropy of the empirical bin distribution, in nats.

    Result lies in [0, log(min(N, M^K))], and is exactly 0 for a single
    occupied bin.
    """
    if hist.N < 1 or hist.counts.size == 0:
        raise ValueError("empty histogram")
    return _count_entropy(hist.counts, hist.N)


def estimate_differential_entropy(samples, M: int) -> float:
    """Plug-in differential entropy h_hat = H(binned samples) - K*log(M).

    Always lies in [-K*log(M), 0].
    """
    hist = build_histogram(samples, M)
    return plugin_entropy(hist) - hist.K * math.log(M)

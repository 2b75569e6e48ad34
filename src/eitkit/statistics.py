"""Second-order correlation and third-order cumulant estimation.

Third-order cumulants are the noise-suppression workhorse: every third
cumulant of a Gaussian process (white or colored) is zero, so for
``y = signal + independent zero-mean Gaussian noise`` the estimated
cumulant matrices converge to those of the signal alone as the sample
count grows.

Both statistics use biased ``1/T`` normalization. Estimation over samples
is associative: :class:`MomentAccumulator` lets chunks be accumulated
independently (possibly concurrently) and merged, with the merged result
matching a single pass over the concatenated data.

Both moments are GEMMs. Third moments take one GEMM per middle index j
over row blocks, which computes only the sorted entries ``i <= j <= k``
(``T M (M + 1) (M + 2) / 3`` flops, a sixth of the full tensor's
``2 T M^3``); each GEMM scales its narrower operand by ``z_j``, and the
block and its products share one reused array of at most
``_BLOCK_BYTES``, small enough to stay in cache. Centered second moments
are also summed per row block, so neither statistic copies its whole
input. Every entry is then read from its sorted index, gathered through
a flat index made once per shape, so both statistics are exactly
symmetric.

Ensemble file format (the shared text rules are in :mod:`eitkit.textio`):
CSV, one time sample per row, header ``y0..y{M-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    NumericalError,
    SampleSizeError,
    _check_finite,
    _frozen,
    _read_only,
)
from .mesh import _is_int
from .textio import data_lines, float_rows, format_row, read_lines, write_lines

# bytes of one block of rows: _third_moment_sum sums its GEMMs over blocks
# whose rows and products together take at most this size, so they stay in
# a core's L2 cache; centered correlation and generate_ensemble work in
# blocks of rows of this size
_BLOCK_BYTES = 1 << 20


def _block_rows(m: int) -> int:
    """Rows of an ``(rows, m)`` float block of at most ``_BLOCK_BYTES`` (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * m))


@dataclass(frozen=True, eq=False)
class MeasurementEnsemble:
    """T x M array of voltage samples: T time samples of an M-channel vector."""

    samples: np.ndarray

    def __post_init__(self):
        samples = _read_only(self.samples)
        if samples.ndim != 2:
            raise DimensionError(f"ensemble must be a T x M array, got shape {samples.shape}")
        if samples.shape[0] < 2:
            raise SampleSizeError(f"need at least 2 samples, got {samples.shape[0]}")
        if samples.shape[1] < 1:
            raise DimensionError("ensemble needs at least one channel")
        _check_finite("ensemble", samples)
        object.__setattr__(self, "samples", samples)

    @property
    def sample_count(self) -> int:
        return self.samples.shape[0]

    @property
    def channel_count(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """M x M symmetric second-moment matrix (volts squared), held read-only:
    a caller's array given is copied, never frozen (:func:`~eitkit.errors._read_only`)."""

    matrix: np.ndarray
    centered: bool

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(self.matrix))


@dataclass(frozen=True, eq=False)
class CumulantMatrixSet:
    """All M third-cumulant matrices as one symmetric M x M x M tensor.

    ``tensor[i, j, k] = cum(y_j, y_k, y_i)``; the tensor is symmetric in
    all three indices exactly, by construction, since the matrices are
    slices of one symmetric third-order tensor. It is held read-only: a
    caller's array given is copied, never frozen.
    """

    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tensor", _read_only(self.tensor))

    @property
    def channel_count(self) -> int:
        return self.tensor.shape[0]

    def matrix(self, i: int) -> np.ndarray:
        """The i-th cumulant matrix ``C_i[j, k] = cum(y_j, y_k, y_i)``, for
        i in 0..M-1; any other i raises DomainError."""
        if not (_is_int(i) and 0 <= i < self.channel_count):
            raise DomainError(f"cumulant index {i} outside 0..{self.channel_count - 1}")
        return self.tensor[i]

    def pooled(self) -> np.ndarray:
        """Sum ``sum_i C_i`` of the cumulant matrices; a symmetric aggregate
        usable wherever a single slice is. This is an extension beyond
        picking one index."""
        return self.tensor.sum(axis=0)


@lru_cache(maxsize=4)
def _sorted_flat_index(shape: tuple[int, ...]) -> np.ndarray:
    """Read-only flat index, into an array of the square 2-D or cubic 3-D
    ``shape``, of each entry's sorted index: ``lo`` and ``hi`` are the
    elementwise min and max of the index and, in 3-D,
    ``mid = i + j + k - lo - hi``.

    Made once per shape and kept for the last four shapes asked for. Each
    index holds 8 bytes per entry, as many as the float array it gathers
    from, so the cache holds at most ``4 * 8 * M**3`` bytes for the largest
    cube filled (1 MiB at M = 32)."""
    idx = np.indices(shape, sparse=True)
    lo = reduce(np.minimum, idx)
    hi = reduce(np.maximum, idx)
    ordered = (lo, hi) if len(shape) == 2 else (lo, sum(idx) - lo - hi, hi)
    flat = np.ravel_multi_index(ordered, shape)
    flat.flags.writeable = False
    return flat


def _fill_symmetric(a: np.ndarray) -> np.ndarray:
    """Copy of a square 2-D or cubic 3-D array in which every entry is read
    from its sorted index (``out[j, i] = a[i, j]`` for ``i <= j``), so the
    result is exactly symmetric whatever rounding produced ``a``.

    Only the entries of ``a`` whose index is sorted are read; the others may
    hold anything. The copy is one gather through the per-shape
    :func:`_sorted_flat_index`."""
    return a.ravel()[_sorted_flat_index(a.shape)]


def _finite_sum(total: np.ndarray, order: str) -> np.ndarray:
    """``total``, a finished moment sum of finite samples, if it is finite;
    one that overflowed raises :class:`NumericalError`."""
    if not np.isfinite(total).all():
        raise NumericalError(f"{order}-moment sums overflow: the samples are too large for float64")
    return total


def _second_moment_sum(samples: np.ndarray, center: bool = False) -> np.ndarray:
    """Sums ``z^T z`` of ``z = samples - mean`` as an exactly symmetric
    (M, M) matrix, ``mean`` the sample mean with ``center`` set and 0
    without. A raw sum is one GEMM; a centered one is summed one block of
    at most ``_BLOCK_BYTES`` of rows at a time into one reused array, so
    the memory used beyond the samples is one block whatever T is. Sums
    that overflow raise :class:`NumericalError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not center:
            return _finite_sum(_fill_symmetric(samples.T @ samples), "second")
        t, m = samples.shape
        mean = samples.mean(axis=0)
        rows = _block_rows(m)
        work = np.empty((min(rows, t), m))
        total = np.zeros((m, m))
        for start in range(0, t, rows):
            chunk = samples[start : start + rows]
            block = np.subtract(chunk, mean, out=work[: len(chunk)])
            total += block.T @ block
    return _finite_sum(_fill_symmetric(total), "second")


def _third_moment_sum(samples: np.ndarray, center: bool = False) -> np.ndarray:
    """Sums ``sum_t z_i z_j z_k`` of ``z = samples - mean`` as an exactly
    symmetric (M, M, M) tensor, ``mean`` the sample mean with ``center``
    set and 0 without; sums that overflow raise :class:`NumericalError`.

    Only the sorted entries ``i <= j <= k`` that :func:`_fill_symmetric`
    reads are computed, by one GEMM per middle index j over the block
    ``[:j+1, j, j:]``. Its narrower operand is scaled by ``z_j``: for
    ``j + 1 <= M - j`` the GEMM is ``(z[:, :j+1] * z_j)^T z[:, j:]``,
    otherwise ``z[:, :j+1]^T (z[:, j:] * z_j)``, so the elementwise
    products number about ``T M^2 / 4``, not ``T M (M + 1) / 2``. The GEMMs
    take ``2 T (j + 1) (M - j)`` flops, ``T M (M + 1) (M + 2) / 3`` in all,
    a sixth of the full tensor's ``2 T M^3``.

    The sums run over blocks of rows, each added into a zeroed ``out``: a
    GEMM over all T rows would stream its product from memory and run
    memory-bound. One Fortran-ordered ``(rows, M + ceil(M / 2))`` array is
    made per call and reused for every block: each block is centered into
    its first M columns, and each product written into the rest, so every
    GEMM operand is a column slice that BLAS reads as it is, and none is
    allocated per block or per j. That array, the only memory used beyond
    ``samples`` and the result, takes at most ``_BLOCK_BYTES`` whatever T
    is."""
    t, m = samples.shape
    half = (m + 1) // 2
    rows = _block_rows(m + half)
    out = np.zeros((m, m, m))
    work = np.empty((min(rows, t), m + half), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=0) if center else 0.0
        for start in range(0, t, rows):
            chunk = samples[start : start + rows]
            block = np.subtract(chunk, mean, out=work[: len(chunk), :m])
            products = work[: len(chunk), m:]
            for j in range(m):
                middle = block[:, j : j + 1]
                if j + 1 <= m - j:
                    scaled = np.multiply(block[:, : j + 1], middle, out=products[:, : j + 1])
                    out[: j + 1, j, j:] += scaled.T @ block[:, j:]
                else:
                    scaled = np.multiply(block[:, j:], middle, out=products[:, : m - j])
                    out[: j + 1, j, j:] += block[:, : j + 1].T @ scaled
    return _finite_sum(_fill_symmetric(out), "third")


def correlation(ensemble: MeasurementEnsemble, center: bool = False) -> CorrelationMatrix:
    """Sample correlation ``(1/T) sum_t y(t) y(t)^T``.

    With ``center`` set the sample mean is removed first (covariance),
    one block of rows at a time (see :func:`_second_moment_sum`). The
    default is the raw second moment (one GEMM), which is what
    deterministic noise-free ensembles feed into the subspace
    decomposition. Samples whose sums overflow raise :class:`NumericalError`.
    """
    z = ensemble.samples
    return CorrelationMatrix(matrix=_second_moment_sum(z, center) / z.shape[0], centered=bool(center))


def third_cumulants(ensemble: MeasurementEnsemble) -> CumulantMatrixSet:
    """Sample third-cumulant matrices ``C_i[j,k] = (1/T) sum_t ~y_j ~y_k ~y_i``.

    The sample mean is always removed first; for zero-mean data the third
    cumulant equals the third moment. Samples whose sums overflow raise
    :class:`NumericalError`.
    """
    if ensemble.sample_count < 3:
        raise SampleSizeError("third cumulants need at least 3 samples")
    samples = ensemble.samples
    return CumulantMatrixSet(tensor=_third_moment_sum(samples, center=True) / samples.shape[0])


class MomentAccumulator:
    """Mergeable raw-moment sums for chunked/concurrent estimation.

    Accumulates ``n``, ``sum y``, ``sum y y^T`` and ``sum y x y x y`` so that
    ``merge`` over chunks followed by a finalizer equals the one-shot
    estimate on the concatenated data within 1e-12. ``update`` adds a
    chunk's raw sums as they are, so an empty chunk changes nothing. An
    update or merge whose second or third moment sums overflow raises
    :class:`NumericalError`; merging anything but an accumulator with the
    same channel count raises :class:`DimensionError`.
    """

    def __init__(self, channel_count: int):
        if not _is_int(channel_count):
            raise DimensionError(f"channel count must be an integer, got {channel_count!r}")
        if channel_count < 1:
            raise DimensionError("need at least one channel")
        self.channel_count = channel_count
        self.n = 0
        self.s1 = np.zeros(channel_count)
        self.s2 = np.zeros((channel_count, channel_count))
        self.s3 = np.zeros((channel_count, channel_count, channel_count))

    def update(self, samples) -> "MomentAccumulator":
        z = np.asarray(samples, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.channel_count:
            raise DimensionError(
                f"expected (T, {self.channel_count}) samples, got shape {z.shape}"
            )
        if not np.all(np.isfinite(z)):
            raise DomainError("samples contain non-finite entries")
        # every sum is checked before any is kept, so an update that
        # overflows raises NumericalError and changes nothing
        with np.errstate(over="ignore"):
            s2 = _finite_sum(self.s2 + _second_moment_sum(z), "second")
            s3 = _finite_sum(self.s3 + _third_moment_sum(z), "third")
        self.n += z.shape[0]
        self.s1 += z.sum(axis=0)
        self.s2, self.s3 = s2, s3
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Combined accumulator; both inputs are left untouched."""
        if not isinstance(other, MomentAccumulator):
            raise DimensionError(f"can only merge another MomentAccumulator, got {type(other).__name__}")
        if other.channel_count != self.channel_count:
            raise DimensionError("cannot merge accumulators with different channel counts")
        out = MomentAccumulator(self.channel_count)
        out.n = self.n + other.n
        out.s1 = self.s1 + other.s1
        with np.errstate(over="ignore"):
            out.s2 = _finite_sum(self.s2 + other.s2, "second")
            out.s3 = _finite_sum(self.s3 + other.s3, "third")
        return out

    def correlation(self, center: bool = False) -> CorrelationMatrix:
        if self.n < 2:
            raise SampleSizeError("correlation needs at least 2 samples")
        raw2 = self.s2 / self.n
        if center:
            m = self.s1 / self.n
            raw2 = raw2 - np.outer(m, m)
        return CorrelationMatrix(matrix=raw2, centered=center)

    def third_cumulants(self) -> CumulantMatrixSet:
        if self.n < 3:
            raise SampleSizeError("third cumulants need at least 3 samples")
        m = self.s1 / self.n
        raw2 = self.s2 / self.n
        mi, mj, mk = m[:, None, None], m[None, :, None], m[None, None, :]
        # central third moment from raw moments, entry (i, j, k) =
        # raw3[i,j,k] - m_i raw2[j,k] - m_j raw2[i,k] - m_k raw2[i,j] + 2 m_i m_j m_k
        central = (
            self.s3 / self.n
            - mi * raw2[None, :, :]
            - mj * raw2[:, None, :]
            - mk * raw2[:, :, None]
            + 2.0 * mi * mj * mk
        )
        return CumulantMatrixSet(tensor=_fill_symmetric(central))


def save_ensemble(ensemble: MeasurementEnsemble, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write an ensemble as CSV with a ``y0..y{M-1}`` header row."""
    columns = ",".join(f"y{k}" for k in range(ensemble.channel_count))
    write_lines(path, [columns, *map(format_row, ensemble.samples)], header_lines)


def load_ensemble(path) -> MeasurementEnsemble:
    """Read an ensemble CSV written by :func:`save_ensemble`; the ensemble
    keeps the parsed array uncopied."""
    lines = data_lines(read_lines(path))
    if not lines:
        raise FormatError("ensemble file has no header row")
    line_no, text = lines[0]
    header = [f.strip() for f in text.split(",")]
    expected = [f"y{k}" for k in range(len(header))]
    if header != expected:
        raise FormatError(f"expected header {','.join(expected)}, got {text!r}", line_no=line_no)
    rows = lines[1:]
    width = rows[0][1].count(",") + 1 if rows else len(header)
    if width != len(header):
        raise FormatError(f"expected {len(header)} columns, got {width}", line_no=rows[0][0])
    samples = float_rows(rows)  # holds every later row to the first row's width
    if len(samples) < 2:
        raise SampleSizeError(f"ensemble file holds {len(samples)} samples, need at least 2")
    return MeasurementEnsemble(_frozen(samples))

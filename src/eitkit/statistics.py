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
over row blocks of at most ``_BLOCK_BYTES``, which computes only the
sorted entries ``i <= j <= k`` (``T M (M + 1) (M + 2) / 3`` flops, a sixth
of the full tensor's ``2 T M^3``) with every operand and temporary small
enough to stay in cache. Every entry is then read from its sorted index,
so both statistics are exactly symmetric.

Ensemble file format (the shared text rules are in :mod:`eitkit.textio`):
CSV, one time sample per row, header ``y0..y{M-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionError, DomainError, FormatError, SampleSizeError, _check_finite, _read_only
from .mesh import _is_int
from .textio import data_lines, float_rows, format_row, read_lines, write_lines

# bytes of one block of rows of z: _third_moment_sum sums its GEMMs over
# blocks of at most this size, so each block and each product temporary
# stays in a core's L2 cache
_BLOCK_BYTES = 1 << 20


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
    a writable array given is copied, never frozen (:func:`~eitkit.errors._read_only`)."""

    matrix: np.ndarray
    centered: bool

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(self.matrix))

    @property
    def channel_count(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class CumulantMatrixSet:
    """All M third-cumulant matrices as one symmetric M x M x M tensor.

    ``tensor[i, j, k] = cum(y_j, y_k, y_i)``; the tensor is symmetric in
    all three indices exactly, by construction, since the matrices are
    slices of one symmetric third-order tensor. It is held read-only: a
    writable array given is copied, never frozen.
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

    def pooled(self, weights=None) -> np.ndarray:
        """Weighted sum ``sum_i w_i C_i`` of the cumulant matrices (unit
        weights by default); a symmetric aggregate usable wherever a single
        slice is. This is an extension beyond picking one index."""
        if weights is None:
            return self.tensor.sum(axis=0)
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.channel_count,):
            raise DimensionError(
                f"need {self.channel_count} weights, got shape {w.shape}"
            )
        return np.tensordot(w, self.tensor, axes=(0, 0))


def _fill_symmetric(a: np.ndarray) -> np.ndarray:
    """Copy of a square 2-D or cubic 3-D array in which every entry is read
    from its sorted index (``out[j, i] = a[i, j]`` for ``i <= j``), so the
    result is exactly symmetric whatever rounding produced ``a``.

    Only the entries of ``a`` whose index is sorted are read; the others may
    hold anything. The sorted index is formed in closed form: ``lo`` and
    ``hi`` are the elementwise min and max of the index and, in 3-D,
    ``mid = i + j + k - lo - hi``."""
    idx = np.indices(a.shape, sparse=True)
    lo = reduce(np.minimum, idx)
    hi = reduce(np.maximum, idx)
    if a.ndim == 2:
        return a[lo, hi]
    return a[lo, sum(idx) - lo - hi, hi]


def _second_moment_sum(z: np.ndarray) -> np.ndarray:
    """Raw sum ``z^T z`` (one GEMM), exactly symmetric."""
    return _fill_symmetric(z.T @ z)


def _third_moment_sum(z: np.ndarray) -> np.ndarray:
    """Raw sums ``sum_t z_i z_j z_k`` as an exactly symmetric (M, M, M)
    tensor.

    Only the sorted entries ``i <= j <= k`` that :func:`_fill_symmetric`
    reads are computed, by one GEMM per middle index j:
    ``(z[:, :j+1] * z_j)^T z[:, j:]`` is the block ``[:j+1, j, j:]``. That
    is ``2 T (j + 1) (M - j)`` flops, ``T M (M + 1) (M + 2) / 3`` in all,
    a sixth of the full tensor's ``2 T M^3``. The sums run over blocks of
    at most ``_BLOCK_BYTES`` of rows, each added into a zeroed ``out``:
    a GEMM over all T rows would stream its product temporary (up to
    ``8 T M`` bytes) from memory and run memory-bound. A Fortran-ordered
    ``z`` makes every column slice of a block a view that BLAS reads as it
    is, so no GEMM operand is copied."""
    z = np.asfortranarray(z)
    t, m = z.shape
    rows = max(1, _BLOCK_BYTES // (8 * m))
    out = np.zeros((m, m, m))
    for start in range(0, t, rows):
        block = z[start : start + rows]
        for j in range(m):
            out[: j + 1, j, j:] += (block[:, : j + 1] * block[:, j : j + 1]).T @ block[:, j:]
    return _fill_symmetric(out)


def correlation(ensemble: MeasurementEnsemble, center: bool = False) -> CorrelationMatrix:
    """Sample correlation ``(1/T) sum_t y(t) y(t)^T``.

    With ``center`` set the sample mean is removed first (covariance).
    The default is the raw second moment, which is what deterministic
    noise-free ensembles feed into the subspace decomposition.
    """
    z = ensemble.samples
    if center:
        z = z - z.mean(axis=0)
    return CorrelationMatrix(matrix=_second_moment_sum(z) / z.shape[0], centered=center)


def third_cumulants(ensemble: MeasurementEnsemble) -> CumulantMatrixSet:
    """Sample third-cumulant matrices ``C_i[j,k] = (1/T) sum_t ~y_j ~y_k ~y_i``.

    The sample mean is always removed first; for zero-mean data the third
    cumulant equals the third moment.
    """
    if ensemble.sample_count < 3:
        raise SampleSizeError("third cumulants need at least 3 samples")
    z = np.subtract(ensemble.samples, ensemble.samples.mean(axis=0), order="F")
    return CumulantMatrixSet(tensor=_third_moment_sum(z) / z.shape[0])


class MomentAccumulator:
    """Mergeable raw-moment sums for chunked/concurrent estimation.

    Accumulates ``n``, ``sum y``, ``sum y y^T`` and ``sum y x y x y`` so that
    ``merge`` over chunks followed by a finalizer equals the one-shot
    estimate on the concatenated data within 1e-12. ``update`` adds a
    chunk's raw sums as they are, so an empty chunk changes nothing.
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
        self.n += z.shape[0]
        self.s1 += z.sum(axis=0)
        self.s2 += _second_moment_sum(z)
        self.s3 += _third_moment_sum(z)
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Combined accumulator; both inputs are left untouched."""
        if other.channel_count != self.channel_count:
            raise DimensionError("cannot merge accumulators with different channel counts")
        out = MomentAccumulator(self.channel_count)
        out.n = self.n + other.n
        out.s1 = self.s1 + other.s1
        out.s2 = self.s2 + other.s2
        out.s3 = self.s3 + other.s3
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
    """Read an ensemble CSV written by :func:`save_ensemble`."""
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
    return MeasurementEnsemble(samples)

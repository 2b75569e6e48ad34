"""Subspace-fitting inversion: truncated SVD, Kronecker projector, and
the full family of least-eigenvalue candidate solutions.

Given a symmetric M x M statistic matrix of rank d, the d dominant right
singular vectors R span the signal subspace. An M x d matrix A fits the
data iff its columns lie in span(R), i.e. iff vec(A) lies in the range of
``B = I_d (x) R`` under column-stacking vectorization (``vec(R C) =
(I (x) R) vec(C)``; column stacking is the convention used throughout
this package). R has orthonormal columns, so ``B^T B = I`` and the
projector onto the complement of range(B) is ``Q = I_d (x) (I_M - R R^T)``.
Its null space is spanned by the d**2 orthonormal columns of B, which
unvectorize to d**2 mutually orthogonal exact minimizers of the fit
residual. That the whole family fits equally well is precisely the
non-uniqueness of single-injection subspace inversion; picking one member
requires outside information.

Every one of those objects follows from R alone, so :class:`ProjectorQ`
keeps only R: the candidates are built straight from its columns, B is
never formed, and the dense (Md)**2 Q is derived only when a caller asks.

Both dense eigenproblems are no larger than the symmetry requires. A
symmetric ``Y = V diag(lambda) V^T`` has its SVD already: singular values
``|lambda|``, right vectors V and left vectors ``V sign(lambda)`` (Golub &
Van Loan, *Matrix Computations*, 8.6), so one ``eigh`` gives the truncated
SVD. The d smallest eigenvalues of ``I_M - R R^T`` are ``1 - eig(R^T R)``
and the other M - d are 1, so the candidate spectrum comes from the d x d
Gram matrix, not an M x M eigenproblem.

All operations here are pure; the candidate sign is fixed so outputs are
deterministic.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, FormatError, NumericalError, _check_finite, _frozen, _value
from .mesh import _is_int
from .statistics import CorrelationMatrix
from .textio import convert, float_rows, format_row, put_once, read_lines, write_lines

ORTHONORMALITY_TOL = 1e-8
GAP_FACTOR = 1e-10


@_value("U", "sigma", "R", "G")
class SubspaceDecomposition:
    """Rank-d truncated SVD of a symmetric matrix plus the orthonormal
    complement G of the right singular subspace.

    ``ill_conditioned`` is set when the singular-value gap at the
    truncation boundary is below ``1e-10 * sigma[0]``, i.e. when the split
    between signal and complement is numerically ambiguous.
    """

    U: np.ndarray
    sigma: np.ndarray
    R: np.ndarray
    G: np.ndarray
    ill_conditioned: bool


@_value("R")
class ProjectorQ:
    """Orthogonal projector onto the complement of range(B), held as the
    M x d orthonormal basis R it is built from. An R that is not 2-D raises
    :class:`DimensionError`.

    The dense ``Q = I_d (x) sym(I_M - R R^T)``, (M d) x (M d), is derived on
    first access and then cached, read-only; nothing in eitkit reads it. B
    is never formed: :func:`extract_candidates` works from R directly.
    """

    R: np.ndarray

    def __post_init__(self):
        if self.R.ndim != 2:
            raise DimensionError(f"R must be an M x d matrix, got shape {self.R.shape}")

    @property
    def channel_count(self) -> int:
        return self.R.shape[0]

    @property
    def rank(self) -> int:
        return self.R.shape[1]

    @cached_property
    def Q(self) -> np.ndarray:
        block = np.eye(self.channel_count) - self.R @ self.R.T
        return _frozen(np.kron(np.eye(self.rank), 0.5 * (block + block.T)))


@_value("eigenvalues")
class CandidateSet:
    """The d**2 unvectorized least-eigenvalue solutions.

    Each candidate is M x d with unit Frobenius norm; candidates are
    pairwise orthogonal under the trace inner product. ``null_count`` is a
    diagnostic: how many projector eigenvalues fall below 1e-8. It never
    changes the number of returned candidates, which is fixed at d**2.
    """

    candidates: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray
    channel_count: int
    rank: int
    null_count: int


def _as_symmetric_matrix(Y) -> np.ndarray:
    if isinstance(Y, CorrelationMatrix):
        Y = Y.matrix
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {Y.shape}")
    _check_finite("input matrix", Y)
    scale = float(np.max(np.abs(Y))) or 1.0
    if float(np.max(np.abs(Y - Y.T))) > 1e-8 * scale:
        raise DomainError("input matrix is not symmetric")
    return Y


def truncated_svd(Y, d: int) -> SubspaceDecomposition:
    """Rank-d truncated SVD of a symmetric statistic matrix, from one
    symmetric eigendecomposition ``Y = V diag(lambda) V^T``.

    The eigenpairs are ordered by descending ``|lambda|`` (a stable sort, so
    equal magnitudes keep ``eigh``'s ascending order): ``sigma`` is the
    leading d of ``|lambda|``, R the leading d eigenvectors, G the rest, and
    ``U = R sign(lambda)`` with +1 for ``lambda >= 0``. ``eigh`` reads only
    the lower triangle; the symmetry check holds it to the upper within
    1e-8 of the largest entry. Every field is a read-only view of one
    frozen array; U, R and G are Fortran-ordered.

    Parameters
    ----------
    Y : (M, M) array or CorrelationMatrix
        Symmetric, finite input.
    d : int
        Signal-subspace dimension, ``1 <= d < M``.
    """
    Y = _as_symmetric_matrix(Y)
    m = Y.shape[0]
    if not (_is_int(d) and 1 <= d):
        raise DimensionError(f"rank d must be a positive integer, got {d!r}")
    if d >= m:
        raise DimensionError(f"rank d must satisfy d < M, got d={d}, M={m}")

    w, V = np.linalg.eigh(Y)
    order = np.argsort(-np.abs(w), kind="stable")
    # one owner for every vector field: the eigenvectors as rows by descending
    # |lambda|, then the leading d again, negated where lambda < 0, for U
    rows = V.T[np.concatenate((order, order[:d]))]
    rows[m:][w[order[:d]] < 0] *= -1.0
    s = np.abs(w[order])
    _frozen(rows, s)
    gap = float(s[d - 1] - s[d])
    return SubspaceDecomposition(
        U=rows[m:].T,
        sigma=s[:d],
        R=rows[:d].T,
        G=rows[d:m].T,
        ill_conditioned=bool(gap < GAP_FACTOR * s[0]),
    )


def build_projector(R: np.ndarray, d: int) -> ProjectorQ:
    """Projector onto the complement of the vectorized subspace-consistent
    matrices, ``Q = I_d (x) (I_M - R R^T)`` with ``B = I_d (x) R``, held as
    R alone (see :class:`ProjectorQ`); neither Q nor B is formed here.

    ``R`` must be finite with orthonormal columns (within 1e-8), so
    ``B^T B = I`` and the spectrum of the exactly symmetric Q is
    {0 (x d**2), 1 (x Md - d**2)}.
    Nothing is solved, so no :class:`NumericalError` is raised.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2:
        raise DimensionError(f"R must be an M x d matrix, got shape {R.shape}")
    m, cols = R.shape
    if cols != d:
        raise DimensionError(f"R has {cols} columns but d={d}")
    if d < 1 or d > m:
        raise DimensionError(f"need 1 <= d <= M, got d={d}, M={m}")
    _check_finite("R", R)
    gram = R.T @ R
    if float(np.max(np.abs(gram - np.eye(d)))) > ORTHONORMALITY_TOL:
        raise DomainError("columns of R must be orthonormal within 1e-8")
    return ProjectorQ(R=R)


def extract_candidates(projector: ProjectorQ, M: int, d: int) -> CandidateSet:
    """All d**2 least-eigenvalue solutions of the projector: the normalized
    columns of B. Column ``k = b d + a`` is ``e_b (x) R[:, a]``; unvectorized
    column-major, it is the M x d matrix with ``R[:, a]`` in column b, so
    the candidates are built from R in one step, without forming B. Each
    sign makes the largest-magnitude entry positive, so results are
    deterministic. As ``Q = I_d (x) P`` with ``P = sym(I_M - R R^T)``,
    ``eigenvalues`` and ``null_count`` come from P's spectrum, each value
    taken d times. R R^T shares its nonzero eigenvalues with the d x d
    ``R^T R``, so P's d smallest are ``1 - eig(R^T R)``, ascending, and its
    other M - d are 1 and never null: P itself is not formed.

    Every column of candidate ``(b, a)`` but column b is ``0 * R[:, a]``, so
    the d candidates of one a are M x d windows, at offsets ``d - 1 - b``,
    of one M x (2d - 1) array whose middle column is ``R[:, a]``: the set
    holds ``8 M d (2d - 1)`` bytes, not the ``8 M d^3`` of a dense stack.
    """
    R = projector.R
    if R.shape != (M, d):
        m, r = R.shape
        raise DimensionError(
            f"projector was built for shape {(m * r, r * r)}, not (M d, d^2) = ({M * d}, {d * d})"
        )
    try:
        w = 1.0 - np.linalg.eigvalsh(R.T @ R)[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc

    columns = R / np.linalg.norm(R, axis=0)
    flip = columns[np.argmax(np.abs(columns), axis=0), np.arange(d)] < 0
    columns = np.where(flip, -columns, columns)
    # like B's entries, each zero is 0 * R[i, a] and keeps that entry's sign
    windows = _frozen(np.eye(1, 2 * d - 1, d - 1) * columns.T[:, :, None])
    return CandidateSet(
        candidates=tuple(windows[a, :, d - 1 - b : 2 * d - 1 - b] for b in range(d) for a in range(d)),
        eigenvalues=_frozen(np.repeat(w, d)),
        channel_count=M,
        rank=d,
        null_count=d * int(np.count_nonzero(w < 1e-8)),
    )


# a non-finite A or R makes inf * 0 or inf - inf: the NaN that results is
# named below, with no RuntimeWarning first, and a finite A whose squared
# norm overflows is refitted scaled; as a decorator, errstate costs half
# what a with-block does on each of the many calls per fit
@np.errstate(invalid="ignore", over="ignore")
def fitting_residual(A: np.ndarray, basis) -> float:
    """Distance of A from the signal subspace: ``min_C |A - R C|_F``.

    The minimizing coefficient is ``C* = R^T A``, so the residual equals
    ``|(I - R R^T) A|_F``; it is zero iff the columns of A lie in span(R).

    Parameters
    ----------
    A : (M, d) array
        Candidate matrix.
    basis : SubspaceDecomposition, or an (M, k) R with orthonormal columns
        The signal basis, of any column count k. An ensemble's or a raw
        statistic's is one call away: ``truncated_svd(correlation(ens), d)``.

    A residual that is not finite because A or a direct R holds a NaN or
    an infinity raises :class:`DomainError` naming that input. A finite A
    so large that its squared norm overflows is fitted again divided by its
    largest magnitude, so its residual is finite when the true one is.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"A must be an M x d matrix, got shape {A.shape}")
    m = A.shape[0]

    if isinstance(basis, SubspaceDecomposition):
        R = basis.R
    else:
        R = np.asarray(basis, dtype=float)
        if R.ndim != 2:
            raise DimensionError(f"basis R must be an M x k matrix, got shape {R.shape}")
        if float(np.max(np.abs(R.T @ R - np.eye(R.shape[1])), initial=0.0)) > ORTHONORMALITY_TOL:
            raise DomainError("direct basis R must have orthonormal columns")
    if R.shape[0] != m:
        raise DimensionError(f"basis has {R.shape[0]} rows, A has {m}")
    residual = float(np.linalg.norm(A - R @ (R.T @ A)))
    if not math.isfinite(residual):  # checked only here, so a finite fit costs no pass
        _check_finite("A", A)
        _check_finite("direct basis R", R)
        # finite inputs whose sum of squares overflowed: fit A / max|A|
        scale = float(np.max(np.abs(A)))
        unit = A / scale
        residual = scale * float(np.linalg.norm(unit - R @ (R.T @ unit)))
    return residual


def save_candidates(cset: CandidateSet, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write a candidate set as blank-line separated CSV blocks, one M x d
    matrix per block, with a header carrying M, d and the eigenvalues."""
    header = (*header_lines, f"M,{cset.channel_count}", f"d,{cset.rank}",
              "eigenvalues," + format_row(cset.eigenvalues))
    lines: list[str] = []
    for idx, mat in enumerate(cset.candidates):
        if idx:
            lines.append("")
        lines += map(format_row, mat)
    write_lines(path, lines, header)


def load_candidates(path) -> CandidateSet:
    """Read a candidate-set file written by :func:`save_candidates`."""
    header: dict[str, object] = {}
    blocks: list[list[tuple[int, str]]] = [[]]
    for line_no, text in read_lines(path):
        if text.startswith("#"):
            key, _, value = text[1:].strip().partition(",")
            if key in ("M", "d"):
                put_once(header, key, convert(value, int, line_no, key), line_no, "header key")
            elif key == "eigenvalues":
                put_once(header, key, float_rows([(line_no, value)])[0], line_no, "header key")
                eigen_line = line_no
        elif text:
            blocks[-1].append((line_no, text))
        elif blocks[-1]:
            blocks.append([])
    matrices = [float_rows(block) for block in blocks if block]
    if len(header) < 3:
        raise FormatError("candidate file is missing its M/d/eigenvalues header")
    m, d, eigenvalues = header["M"], header["d"], header["eigenvalues"]
    if eigenvalues.size != d * d:
        raise FormatError(f"expected {d * d} eigenvalues, found {eigenvalues.size}", line_no=eigen_line)
    if len(matrices) != d * d:
        raise FormatError(f"expected {d * d} candidate blocks, found {len(matrices)}")
    for arr in matrices:
        if arr.shape != (m, d):
            raise FormatError(f"candidate block has shape {arr.shape}, expected ({m}, {d})")
    *matrices, eigenvalues = _frozen(*matrices, eigenvalues)
    return CandidateSet(
        candidates=tuple(matrices),
        eigenvalues=eigenvalues,
        channel_count=m,
        rank=d,
        null_count=int(np.count_nonzero(eigenvalues < 1e-8)),
    )

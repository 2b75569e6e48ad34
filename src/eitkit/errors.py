"""Exception hierarchy shared across the toolkit.

Every error raised by eitkit derives from :class:`EitError`, so callers can
catch the whole family with one handler. Subclasses that carry structured
context (pivot index, numerical rank, ...) expose it as attributes.
"""

from __future__ import annotations

import weakref

import numpy as np


class EitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(EitError, ValueError):
    """A parameter value is outside its admissible domain."""


def _check_finite(what: str, values) -> None:
    """Raise :class:`DomainError` "<what> contains non-finite entries" if
    ``values`` holds a NaN or an infinity. Checked before any SVD or
    eigendecomposition, which LAPACK may never finish on an infinite entry."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} contains non-finite entries")


_FROZEN = weakref.WeakValueDictionary()  # id -> each live array _frozen froze


def _frozen(*arrays):
    """Make each array, one the program made itself, read-only in place
    together with the ndarray that owns its memory, record both in
    ``_FROZEN``, and return a read-only view of each (a tuple for several):
    a new view of an array that owns its memory, the array itself if it is
    a view. The owner, the one array whose writing could be switched back
    on, is never handed out, so no returned array can be made writable
    again. The one place eitkit freezes an array."""
    views = []
    for array in arrays:
        for part in (array, array.base):
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
                _FROZEN[id(part)] = part
        views.append(array.view() if array.base is None else array)
    return views[0] if len(views) == 1 else tuple(views)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array whose memory no writable array
    holds, the one rule by which every value type owns a given array: kept if
    its memory belongs to a still read-only ndarray (itself or the array it
    views) in ``_FROZEN``, else a read-only copy in its memory order. A
    caller's array, even a read-only one, is copied and never frozen. When
    the conversion to float already made a new array of its own (from a
    list, or an array of another dtype), that array is frozen, not copied
    again; one handed out by a caller's ``__array__`` is still copied."""
    array = np.asarray(values, dtype=float)
    if array.base is None and array is not values and (
        isinstance(values, np.ndarray) or not hasattr(values, "__array__")
    ):
        return _frozen(array)
    owner = array.base if isinstance(array.base, np.ndarray) else array
    if _FROZEN.get(id(owner)) is not owner or owner.flags.writeable:
        array = _frozen(array.copy(order="K"))
    return array


class DimensionError(EitError, ValueError):
    """Array shapes or object sizes are inconsistent."""


class GeometryError(EitError):
    """A geometric object is degenerate (e.g. a zero-area triangle)."""

    def __init__(self, message: str, vertices=None):
        super().__init__(message)
        self.vertices = vertices


class FormatError(EitError):
    """A text file does not parse; carries line/field context."""

    def __init__(self, message: str, line_no: int | None = None, field: str | None = None):
        ctx = ""
        if line_no is not None:
            ctx += f" (line {line_no})"
        if field is not None:
            ctx += f" [field: {field}]"
        super().__init__(message + ctx)
        self.line_no = line_no
        self.field = field


class MeshFormatError(FormatError):
    """A mesh file does not parse."""


class MeshValidationError(EitError):
    """A mesh violates its structural invariants; embeds the full report."""

    def __init__(self, report):
        super().__init__("mesh validation failed:\n" + str(report))
        self.report = report


class CompatibilityError(EitError):
    """A current pattern violates the discrete solvability condition
    (injected currents must sum to zero)."""


class SampleSizeError(EitError, ValueError):
    """Too few samples for the requested statistic."""


class NumericalError(EitError):
    """A numerical routine failed (factorization, eigensolver, ...)."""

    def __init__(self, message: str, pivot_index: int | None = None):
        if pivot_index is not None:
            message += f" (pivot index {pivot_index})"
        super().__init__(message)
        self.pivot_index = pivot_index


class RankDeficiencyError(EitError):
    """The voltage stack does not have full row rank; carries the
    numerical rank actually achieved."""

    def __init__(self, message: str, numerical_rank: int, required_rank: int):
        super().__init__(f"{message} (numerical rank {numerical_rank}, need {required_rank})")
        self.numerical_rank = numerical_rank
        self.required_rank = required_rank


class IdentifiabilityError(EitError):
    """The per-element conductivity is not identifiable from the given
    matrix; carries the rank gap of the assembly operator."""

    def __init__(self, message: str, rank_gap: int):
        super().__init__(f"{message} (rank gap {rank_gap})")
        self.rank_gap = rank_gap


class AssumptionViolationError(EitError):
    """Input data violates a model assumption required by an estimator."""


class UnknownElectrodeError(EitError, LookupError):
    """An electrode id is not present on the mesh."""

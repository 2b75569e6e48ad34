"""FEM forward problem: assemble the conductivity stiffness system and solve
for nodal potentials under injected boundary currents.

The discretization is the classical linear triangle: each element
contributes ``sigma_e * area * B^T B`` with ``B`` the constant gradient
matrix of the three barycentric shape functions, that is
``sigma_e / (4 area) (b b^T + c c^T)``. ``assemble`` sums these, in
element order, into a CSC sparse matrix ``S`` (about 7 nonzeros per row;
29 057 at n = 4225). ``S`` is exactly symmetric, has zero row sums, and is
positive semidefinite with a one-dimensional null space (the constant
potential) on a connected mesh; fixing one reference node to zero
potential makes it positive definite. The gauge zeroes that node's row and
column in a copy of the CSC data, in O(nnz).

:class:`ForwardFactorization` orders the grounded matrix so that its
nonzeros lie in a band of half-width b around the diagonal, and runs banded
Cholesky (LAPACK ``dpbtrf``/``dpbtrs``) in O(n b^2) time and O(n b) memory.
On a mesh's pattern the order is breadth-first from the first fifth of the
boundary loop, so the fronts sweep across the domain from one arc: b = 81
at n = 4225, where reverse Cuthill-McKee gives 129. Reverse Cuthill-McKee
is kept where the front order is not strictly shallower, and for every
matrix that is not on a mesh's pattern. A matrix that is not positive
definite raises :class:`NumericalError` whose ``pivot_index`` is the
1-based row, in the caller's node order, at which elimination broke down.

Only the conductivity changes from one solve to the next, so what depends
on the mesh alone is planned once per mesh, on first use, and cached on
the :class:`~eitkit.mesh.Mesh`: where each local entry lands in ``S``
(``_placement``), each element's ``4 area`` and ``b b^T + c c^T`` in that
order (``_geometry``, 1.2 MB at refine 5), and the band order and band
position of each lower-triangle entry (``_band``, 0.3 MB).
``assemble`` is then one product and one ``np.add.reduceat``, and a
factorization fills the band and calls ``dpbtrf``. A band ordering
depends only on the mesh, not on the conductivity, so a matrix uses its
mesh's band plan while it has the mesh's pattern, whichever arrays hold
it; any other (dense, built by hand, or one whose gauge inserted a
diagonal) is planned by reverse Cuthill-McKee from its own pattern, and
its potentials can differ from the mesh-planned ones in the last digits.

``assemble`` and ``solve_forward`` are pure functions; independent drive
patterns on the same (mesh, field) may be solved concurrently. Use
:class:`ForwardFactorization` to factor once and solve many loads.

Like the rest of eitkit, this module imports each scipy routine in the
function that calls it, so ``import eitkit`` loads no scipy module and
the first assembly or factorization loads what it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CompatibilityError,
    DimensionError,
    DomainError,
    MeshValidationError,
    NumericalError,
    UnknownElectrodeError,
    _frozen,
    _value,
)
from .mesh import Mesh, _band_plan, _triangle_geometry, validate

if TYPE_CHECKING:
    from collections.abc import Mapping

    from scipy.sparse import csc_array

ZERO_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-9


@_value("values")
class ConductivityField:
    """Per-element conductivity in S/m; every value finite and > 0. It
    knows no element ids, so an error names a value by its row position."""

    values: np.ndarray

    def __post_init__(self):
        values = self.values
        if values.ndim != 1:
            raise DimensionError(f"conductivity field must be 1-d, got shape {values.shape}")
        if values.size == 0:
            raise DimensionError("conductivity field is empty")
        if not np.all(np.isfinite(values)):
            raise DomainError("conductivity values must be finite")
        if not np.all(values > 0.0):
            bad = int(np.argmin(values))
            raise DomainError(
                f"conductivity must be positive everywhere (smallest value {values[bad]} at row position {bad})"
            )


def uniform_field(mesh: Mesh, value: float) -> ConductivityField:
    """Conductivity ``value`` S/m on every element of ``mesh``; a value that
    is not positive and finite raises DomainError naming the value."""
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise DomainError(f"uniform conductivity must be positive and finite, got {value!r}")
    return ConductivityField(np.full(mesh.n_elements, value))


@dataclass(frozen=True)
class CurrentPattern:
    """Signed injected currents keyed by electrode id, in amperes.

    Entries must sum to zero within ``1e-12`` (discrete solvability of the
    current-flux boundary condition) and at least two must be nonzero.
    ``currents`` is a read-only mapping, so no write can undo the check.
    """

    currents: Mapping[int, float]

    def __post_init__(self):
        fixed = {int(k): float(v) for k, v in self.currents.items()}
        object.__setattr__(self, "currents", MappingProxyType(fixed))
        fault = _current_fault(np.array(list(fixed.values()), dtype=float)[:, None])
        if fault is not None:
            raise fault[1]

    def __reduce__(self):  # a mappingproxy does not pickle
        return CurrentPattern, (dict(self.currents),)


def _current_fault(table: np.ndarray):
    """``(p, error)`` for the first column p of a (k, P) table of drive
    patterns, one pattern per column, whose currents fail a check, or None
    when every column passes. In one vectorized pass each column's currents
    must be finite, at least two nonzero, and sum to zero within
    ``ZERO_SUM_TOL``; ``error`` is that of the column's first failed check."""
    # Fortran order: each column is summed along contiguous memory, in the
    # order a 1-d sum() sums one pattern, so the totals match it bitwise
    table = np.asfortranarray(table)
    finite = np.isfinite(table).all(axis=0)
    nonzero = np.count_nonzero(table, axis=0)
    # inf - inf: such a column fails as not finite; a finite column whose
    # sum overflows fails the zero-sum check with an infinite total
    with np.errstate(invalid="ignore", over="ignore"):
        totals = table.sum(axis=0)
    failed = ~finite | (nonzero < 2) | (np.abs(totals) > ZERO_SUM_TOL)
    if not failed.any():
        return None
    p = int(np.argmax(failed))
    if not finite[p]:
        return p, DomainError("pattern currents must be finite")
    if nonzero[p] < 2:
        return p, DomainError("a drive pattern needs at least two nonzero currents")
    return p, CompatibilityError(
        f"injected currents must sum to zero within {ZERO_SUM_TOL:g}; got {float(totals[p]):g}"
    )


@cache
def _stiffness_matrix_class() -> type:
    """``_StiffnessMatrix``, a CSC array whose ``nbytes`` is its true
    storage size (the data, row-index and column-pointer arrays) and whose
    ``mesh`` is the mesh it was assembled on (kept through the gauge), or
    None. It subclasses scipy's ``csc_array``, so it is defined on first
    use, not when eitkit is imported."""
    from scipy.sparse import csc_array

    class _StiffnessMatrix(csc_array):
        mesh = None

        @property
        def nbytes(self) -> int:
            return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

        def __reduce__(self):  # the class has no importable name to pickle by
            return _stiffness_matrix, ((self.data, self.indices, self.indptr), self.shape, self.mesh)

    return _StiffnessMatrix


def _stiffness_matrix(arg, shape=None, mesh=None, copy=False):
    """A ``_StiffnessMatrix`` (see :func:`_stiffness_matrix_class`) made by
    ``csc_array(arg, shape=shape, copy=copy)``, on ``mesh``."""
    S = _stiffness_matrix_class()(arg, shape=shape, copy=copy)
    S.mesh = mesh
    return S


def _band_layout(S: csc_array, mesh: Mesh | None) -> tuple:
    """The band plan of a canonical CSC ``S`` (see :func:`_band_plan`):
    ``mesh._band`` while ``S`` has the pattern of the mesh's stiffness
    matrices, otherwise one planned from ``S``'s own pattern."""
    if mesh is not None:
        _, _, rows, indptr, _ = mesh._placement
        if np.array_equal(S.indptr, indptr) and np.array_equal(S.indices, rows):
            return mesh._band
    return _band_plan(S.indices, S.indptr)


@dataclass(eq=False)
class StiffnessSystem:
    """System matrix ``S`` (an n x n CSC sparse array) and load ``F``, shape
    (n,) or (n, k); ``ground_node`` is None before the gauge is fixed."""

    S: csc_array
    F: np.ndarray
    ground_node: int | None = None

    @property
    def grounded(self) -> bool:
        return self.ground_node is not None


@_value("phi")
class VoltageSolution:
    """Nodal potentials in volts, shape (n,), or (n, k) for k loads solved
    at once; the ground node is pinned to zero and every column satisfies
    ``|S phi - F|_inf <= 1e-9 (1 + |F|_inf)``. ``residual_inf`` is the
    largest column residual."""

    phi: np.ndarray
    ground_node: int
    residual_inf: float


def element_stiffness(vertex_coords, sigma_e: float, scale: float | None = None) -> np.ndarray:
    """Local 3x3 stiffness of a linear triangle with conductivity ``sigma_e``.

    Parameters
    ----------
    vertex_coords : array-like, shape (3, 2)
        Triangle vertices in meters; orientation does not matter.
    sigma_e : float
        Element conductivity, > 0.
    scale : float, optional
        Length used for the degeneracy test ``area > 1e-14 * scale**2``;
        defaults to the triangle's own bounding-box diagonal.

    Returns
    -------
    ndarray, shape (3, 3)
        Symmetric positive-semidefinite matrix with zero row sums,
        ``sigma_e / (4 area) (b b^T + c c^T)``. A triangle with
        ``area <= 1e-14 * scale**2`` raises :class:`GeometryError`.
    """
    pts = np.asarray(vertex_coords, dtype=float)
    if pts.shape != (3, 2):
        raise DimensionError(f"expected three 2-d vertices, got shape {pts.shape}")
    if not (np.isfinite(sigma_e) and sigma_e > 0.0):
        raise DomainError(f"sigma_e must be positive and finite, got {sigma_e!r}")
    if scale is None:
        span = pts.max(axis=0) - pts.min(axis=0)
        scale = math.hypot(span[0], span[1])
    four_area, outer = _triangle_geometry(pts[None], scale)
    return float(sigma_e) / four_area[0] * outer[0]


def assemble(mesh: Mesh, conductivity) -> StiffnessSystem:
    """Assemble the global stiffness matrix for a conductivity field.

    The result is pre-gauge: ``S`` is a CSC sparse array with the mesh
    graph's pattern (the diagonal plus one entry per edge direction), row
    sums are zero within 1e-12 and the load vector is initialized to zero.
    Each entry sums its element contributions in element order, so ``S``
    is exactly symmetric and the same on every run. The matrix is linear
    in the field, so scaling the field by ``c`` scales the matrix by
    exactly ``c``.
    """
    sigma = conductivity.values if isinstance(conductivity, ConductivityField) else None
    if sigma is None:
        sigma = ConductivityField(np.asarray(conductivity, dtype=float)).values
    if sigma.size != mesh.n_elements:
        raise DimensionError(
            f"field length {sigma.size} does not match element count {mesh.n_elements}"
        )
    report = validate(mesh)
    if not report.ok:
        raise MeshValidationError(report)

    four_area, outer, element = mesh._geometry
    _, first, rows, indptr, _ = mesh._placement
    data = np.add.reduceat((sigma / four_area)[element] * outer, first)
    S = _stiffness_matrix((data, rows, indptr), (mesh.n_nodes, mesh.n_nodes), mesh)
    return StiffnessSystem(S=S, F=np.zeros(mesh.n_nodes), ground_node=None)


def _element_design(mesh: Mesh) -> csc_array:
    """The assembly map as a (nnz(S), n_e) CSC design over the nonzeros of
    ``S`` in CSC order: column e holds element e's unit-conductivity local
    stiffness at its nine placement slots, so ``design @ sigma`` is the data
    of ``assemble(mesh, sigma).S`` up to rounding."""
    from scipy.sparse import csc_array

    four_area, outer, element = mesh._geometry
    order, _, rows, _, slot = mesh._placement
    local = np.empty_like(outer)
    local[order] = (1.0 / four_area)[element] * outer  # back in element order
    indptr = np.arange(0, slot.size + 1, 9, dtype=np.int32)
    return csc_array((local, slot.ravel(), indptr), shape=(rows.size, mesh.n_elements))


def _nodal_load(mesh: Mesh, patterns, blame=None) -> np.ndarray:
    """The checked (n, P) load table of P drive patterns, a new
    Fortran-order array with one column per pattern.

    A pattern is a :class:`CurrentPattern` (its currents were checked when
    it was made), whose column holds each electrode's current added at its
    node in mapping order, or a length-n nodal vector, copied as it is and
    checked by one :func:`_current_fault` call over the nodal columns.

    Every fault is recorded as (column, rank, error), rank 0 for a wrong
    length (:class:`DimensionError`), 1 for an electrode not on the mesh
    (:class:`UnknownElectrodeError`) and 2 for the currents. The smallest
    is raised: the first failing column, with the error it raises alone.
    With a ``blame`` function, ``blame(p, error)`` is raised instead,
    chained to the error.
    """
    n, count = mesh.n_nodes, len(patterns)
    table = np.zeros((n, count), order="F")
    faults, nodal, entries = [], [], []
    for p, pattern in enumerate(patterns):
        if isinstance(pattern, CurrentPattern):
            entries += [(p, eid, amp) for eid, amp in pattern.currents.items()]
            continue
        nodal.append(p)
        vector = np.asarray(pattern, dtype=float)
        if vector.shape == (n,):
            table[:, p] = vector
        else:
            error = DimensionError(f"nodal pattern must have length {n}, got shape {vector.shape}")
            faults.append((p, 0, error))

    if entries:
        cols, eids, amps = zip(*entries)
        emap, index = mesh.electrode_map, mesh.node_index
        rows = np.array([index[emap[eid]] if eid in emap else -1 for eid in eids])
        known = rows >= 0
        if not known.all():
            k = int(np.argmin(known))
            faults.append((cols[k], 1, UnknownElectrodeError(f"electrode {eids[k]} is not on the mesh")))
        np.add.at(table, (rows[known], np.array(cols)[known]), np.array(amps)[known])

    if nodal:  # a CurrentPattern was checked when it was made
        fault = _current_fault(table if len(nodal) == count else table[:, nodal])
        if fault is not None:
            faults.append((nodal[fault[0]], 2, fault[1]))
    if not faults:
        return table
    p, _, error = min(faults, key=lambda fault: fault[:2])
    if blame is None:
        raise error
    raise blame(p, error) from error


def ground_system(S, F: np.ndarray, ground_pos: int) -> tuple[csc_array, np.ndarray]:
    """Pin one node to zero potential by symmetric row/column elimination.

    Copies ``S``'s data in O(nnz), zeroes the ground node's column slice
    and the entries in its row, and sets its stored diagonal to 1 (scipy
    inserts the diagonal if ``S`` does not store it). The result shares
    ``S``'s index arrays, which it does not change, and its ``mesh``; ``S``
    itself is left as it was.
    Keeps the matrix symmetric and, on a connected mesh, positive definite.
    """
    Sg = _stiffness_matrix(S)  # a CSC input lends its index arrays
    indices, indptr = Sg.indices, Sg.indptr
    start, stop = indptr[ground_pos], indptr[ground_pos + 1]
    Sg.data = data = Sg.data.astype(np.result_type(Sg.data, 0.0))
    data[start:stop] = 0.0
    data[indices == ground_pos] = 0.0
    diagonal = start + np.flatnonzero(indices[start:stop] == ground_pos)
    if diagonal.size == 1:
        data[diagonal] = 1.0
    else:
        Sg = _stiffness_matrix(Sg, copy=True)  # the insertion must not reorder S's arrays
        Sg[ground_pos, ground_pos] = 1.0
    Sg.mesh = getattr(S, "mesh", None)
    Fg = F.copy()
    Fg[ground_pos] = 0.0
    return Sg, Fg


def apply_pattern(system: StiffnessSystem, mesh: Mesh, pattern, ground_node: int) -> StiffnessSystem:
    """Enter a drive pattern into the load vector and fix the gauge.

    ``pattern`` may be a :class:`CurrentPattern` or a plain electrode->current
    mapping; raw mappings are validated here, so a pattern whose currents do
    not cancel raises :class:`CompatibilityError` (the discrete solvability
    condition) before any algebra happens.
    """
    if not isinstance(pattern, CurrentPattern):
        pattern = CurrentPattern(dict(pattern))
    if ground_node not in mesh.node_index:
        raise DomainError(f"ground node {ground_node} is not a mesh node")
    if system.S.shape != (mesh.n_nodes, mesh.n_nodes):
        raise DimensionError(
            f"system size {system.S.shape} does not match mesh node count {mesh.n_nodes}"
        )

    F = _nodal_load(mesh, [pattern])[:, 0]
    Sg, Fg = ground_system(system.S, F, mesh.node_index[ground_node])
    return StiffnessSystem(S=Sg, F=Fg, ground_node=ground_node)


class ForwardFactorization:
    """Banded Cholesky factorization of a grounded system, reusable across loads.

    The rows and columns are permuted into a narrow band, and the
    permuted lower band is factored with LAPACK ``dpbtrf``. While ``S``
    has the pattern of the mesh it was assembled on, the order and the band
    layout come from the mesh's band plan (the front order from a boundary
    arc, 0.3 MB at refine 5, computed once per mesh), so a factorization
    only fills the band (82 x 4225, 2.8 MB at refine 5) and factors it;
    any other ``S`` is planned by reverse Cuthill-McKee from its own
    pattern. The factor is a
    read-only array computed once, so it is safe to share across
    concurrent solves. A dense ``S`` is accepted and converted to CSC.
    """

    def __init__(self, system: StiffnessSystem):
        if not system.grounded:
            raise DomainError("system must be grounded (positive definite) before factorization")
        from scipy.linalg import lapack
        from scipy.sparse import csc_array

        self.ground_node = system.ground_node
        # residual checks must not see later mutation of system.S
        S = csc_array(system.S, dtype=float, copy=True)
        S.sum_duplicates()  # the band is filled by assignment, one entry per position
        perm, slots, positions, depth = _band_layout(S, getattr(system.S, "mesh", None))
        band = np.zeros(depth * S.shape[0])
        band[positions] = S.data[slots]
        factor, info = lapack.dpbtrf(band.reshape((depth, -1), order="F"), lower=1, overwrite_ab=1)
        if info != 0:
            raise NumericalError(
                "Cholesky factorization failed: matrix is not positive definite",
                pivot_index=int(perm[info - 1]) + 1 if info > 0 else int(info),
            )
        self._S = S
        self._perm = perm
        self._factor = _frozen(factor)

    def solve(self, F: np.ndarray) -> VoltageSolution:
        """Potentials for one load of shape (n,) or for k loads at once,
        shape (n, k); ``phi`` has the shape of ``F``. Each column must meet
        its own residual bound, as if it were solved alone."""
        from scipy.linalg import lapack

        F = np.asarray(F, dtype=float)
        x, info = lapack.dpbtrs(self._factor, F[self._perm], lower=1)
        if info != 0:
            raise NumericalError("triangular solve failed", pivot_index=int(info))
        phi = np.empty_like(x)
        phi[self._perm] = x
        residual = np.max(np.abs(self._S @ phi - F), axis=0)
        bound = RESIDUAL_TOL * (1.0 + np.max(np.abs(F), axis=0))
        over = np.flatnonzero(residual > bound)
        if over.size:
            raise NumericalError(
                f"solve residual {residual.flat[over[0]]:g} exceeds bound {bound.flat[over[0]]:g}"
            )
        return VoltageSolution(
            phi=_frozen(phi), ground_node=self.ground_node, residual_inf=float(np.max(residual, initial=0.0))
        )


def solve_forward(system: StiffnessSystem) -> VoltageSolution:
    """Solve the grounded system by direct banded Cholesky factorization."""
    return ForwardFactorization(system).solve(system.F)


def measure(solution: VoltageSolution, mesh: Mesh, reference_electrode: int) -> np.ndarray:
    """Differential electrode voltages against one reference electrode.

    Returns the potential at each non-reference electrode minus the
    potential at the reference, ordered by electrode id. Adding a constant
    to all potentials leaves the measurement unchanged.
    """
    emap = mesh.electrode_map
    if reference_electrode not in emap:
        raise UnknownElectrodeError(f"reference electrode {reference_electrode} is not on the mesh")
    ref_phi = solution.phi[mesh.node_index[emap[reference_electrode]]]
    out = [
        solution.phi[mesh.node_index[emap[eid]]] - ref_phi
        for eid in sorted(emap)
        if eid != reference_electrode
    ]
    return np.array(out)

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

:class:`ForwardFactorization` orders the grounded matrix by reverse
Cuthill-McKee, which keeps its nonzeros in a band of half-width b around
the diagonal (b = 129 at n = 4225), and runs banded Cholesky (LAPACK
``dpbtrf``/``dpbtrs``) in O(n b^2) time and O(n b) memory. A matrix that is
not positive definite raises :class:`NumericalError` whose ``pivot_index``
is the 1-based row, in the caller's node order, at which elimination broke
down.

Only the conductivity changes from one solve to the next, so what depends
on the mesh alone is planned once per mesh, on first use, and cached on
the :class:`~eitkit.mesh.Mesh`: where each local entry lands in ``S``
(``_placement``), each element's ``4 area`` and ``b b^T + c c^T`` in that
order (``_geometry``, 1.2 MB at refine 5), and the reverse Cuthill-McKee
order and band position of each lower-triangle entry (``_band``, 0.3 MB).
``assemble`` is then one product and one ``np.add.reduceat``, and a
factorization fills the band and calls ``dpbtrf``. A band ordering
depends only on the sparsity pattern, so a matrix uses its mesh's band
plan while it has the mesh's pattern, whichever arrays hold it; any other
(dense, built by hand, or one whose gauge inserted a diagonal) is planned
from its own pattern by the same function. The results are the same to
the bit either way.

``assemble`` and ``solve_forward`` are pure functions; independent drive
patterns on the same (mesh, field) may be solved concurrently. Use
:class:`ForwardFactorization` to factor once and solve many loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csc_array

from .errors import (
    CompatibilityError,
    DimensionError,
    DomainError,
    MeshValidationError,
    NumericalError,
    UnknownElectrodeError,
)
from .mesh import Mesh, _band_plan, _triangle_geometry, validate

ZERO_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConductivityField:
    """Per-element conductivity in S/m; every value finite and > 0."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionError(f"conductivity field must be 1-d, got shape {values.shape}")
        if values.size == 0:
            raise DimensionError("conductivity field is empty")
        if not np.all(np.isfinite(values)):
            raise DomainError("conductivity values must be finite")
        if not np.all(values > 0.0):
            bad = int(np.argmin(values))
            raise DomainError(f"conductivity must be positive everywhere (element {bad}: {values[bad]})")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def uniform_field(mesh: Mesh, value: float) -> ConductivityField:
    return ConductivityField(np.full(mesh.n_elements, float(value)))


@dataclass(frozen=True)
class CurrentPattern:
    """Signed injected currents keyed by electrode id, in amperes.

    Entries must sum to zero within ``1e-12`` (discrete solvability of the
    current-flux boundary condition) and at least two must be nonzero.
    """

    currents: dict[int, float]

    def __post_init__(self):
        fixed = {int(k): float(v) for k, v in self.currents.items()}
        object.__setattr__(self, "currents", fixed)
        _check_currents(np.array(list(fixed.values()), dtype=float))


def _check_currents(vals: np.ndarray, blame=None) -> None:
    """Check the currents of one drive pattern, shape (k,), or of one
    pattern per column, shape (k, P), in one vectorized pass: each pattern's
    currents are finite, at least two are nonzero, and they sum to zero
    within ``ZERO_SUM_TOL``. The first failing column p raises the error of
    its first failed check; with a ``blame`` function, ``blame(p, error)``
    is raised instead, chained to the error."""
    # Fortran order: each column is summed along contiguous memory, in the
    # order vals.sum() sums one pattern, so the totals match it bitwise
    table = np.asfortranarray(vals[:, None] if vals.ndim == 1 else vals)
    finite = np.isfinite(table).all(axis=0)
    nonzero = np.count_nonzero(table, axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf: such a column fails as not finite
        totals = table.sum(axis=0)
    failed = ~finite | (nonzero < 2) | (np.abs(totals) > ZERO_SUM_TOL)
    if not failed.any():
        return
    p = int(np.argmax(failed))
    if not finite[p]:
        error = DomainError("pattern currents must be finite")
    elif nonzero[p] < 2:
        error = DomainError("a drive pattern needs at least two nonzero currents")
    else:
        error = CompatibilityError(
            f"injected currents must sum to zero within {ZERO_SUM_TOL:g}; got {float(totals[p]):g}"
        )
    if blame is None:
        raise error
    raise blame(p, error) from error


class _StiffnessMatrix(csc_array):
    """CSC array whose ``nbytes`` is its true storage size (the data,
    row-index and column-pointer arrays). ``mesh`` is the mesh it was
    assembled on (kept through the gauge), or None."""

    mesh = None

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


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

    @property
    def n(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True, eq=False)
class VoltageSolution:
    """Nodal potentials in volts, shape (n,), or (n, k) for k loads solved
    at once; the ground node is pinned to zero and every column satisfies
    ``|S phi - F|_inf <= 1e-9 (1 + |F|_inf)``. ``residual_inf`` is the
    largest column residual."""

    phi: np.ndarray
    ground_node: int
    residual_inf: float


def _local_stiffness(pts: np.ndarray, sigma, scale: float) -> np.ndarray:
    """Local stiffness ``sigma / (4 area) (b b^T + c c^T)`` of every triangle.

    ``pts`` holds the vertices, shape (n_e, 3, 2); ``sigma`` is a scalar or
    one value per element. Raises :class:`GeometryError` for the
    lowest-index element with ``area <= 1e-14 * scale**2``, carrying its
    vertices. Returns shape (n_e, 3, 3).
    """
    four_area, outer = _triangle_geometry(pts, scale)
    return (sigma / four_area)[:, None, None] * outer


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
        defaults to the triangle's own bounding-box diagonal. Assembly
        passes the mesh bounding-box diagonal for scale-invariant detection.

    Returns
    -------
    ndarray, shape (3, 3)
        Symmetric positive-semidefinite matrix with zero row sums.
    """
    pts = np.asarray(vertex_coords, dtype=float)
    if pts.shape != (3, 2):
        raise DimensionError(f"expected three 2-d vertices, got shape {pts.shape}")
    if not (np.isfinite(sigma_e) and sigma_e > 0.0):
        raise DomainError(f"sigma_e must be positive and finite, got {sigma_e!r}")
    if scale is None:
        span = pts.max(axis=0) - pts.min(axis=0)
        scale = math.hypot(span[0], span[1])
    return _local_stiffness(pts[None], float(sigma_e), scale)[0]


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
    S = _StiffnessMatrix((data, rows, indptr), shape=(mesh.n_nodes, mesh.n_nodes))
    S.mesh = mesh
    return StiffnessSystem(S=S, F=np.zeros(mesh.n_nodes), ground_node=None)


def _element_design(mesh: Mesh) -> csc_array:
    """The assembly map as a (nnz(S), n_e) CSC design over the nonzeros of
    ``S`` in CSC order: column e holds element e's unit-conductivity local
    stiffness at its nine placement slots, so ``design @ sigma`` is the data
    of ``assemble(mesh, sigma).S`` up to rounding."""
    four_area, outer, element = mesh._geometry
    order, _, rows, _, slot = mesh._placement
    local = np.empty_like(outer)
    local[order] = (1.0 / four_area)[element] * outer  # back in element order
    indptr = np.arange(0, slot.size + 1, 9, dtype=np.int32)
    return csc_array((local, slot.ravel(), indptr), shape=(rows.size, mesh.n_elements))


def _nodal_load(mesh: Mesh, patterns, currents=None, blame=None, table=None) -> np.ndarray:
    """The checked (n, P) load table of P drive patterns, a new
    Fortran-order array with one column per pattern.

    A pattern is a :class:`CurrentPattern` (its currents were checked when
    it was made) or a length-n nodal vector; ``currents``, one mapping or
    None per pattern, adds electrode currents to the nodal vectors. Column p
    holds the nodal entries, then each electrode's current added at its
    node in mapping order, as one pattern resolved alone would. The nodal
    columns are checked together by :func:`_check_currents`. A ``table``
    that already holds the nodal entries, an (n, P) Fortran-order array
    that is zero in the columns of the :class:`CurrentPattern` s, is filled
    in place and returned; the nodal entries of ``patterns`` are then not
    read (any value other than a :class:`CurrentPattern` marks one).

    The first failing column p raises the error that column raises alone:
    a wrong length is :class:`DimensionError`, then an electrode not on the
    mesh :class:`UnknownElectrodeError`, then the current checks. With a
    ``blame`` function, ``blame(p, error)`` is raised instead, chained to
    the error.
    """
    n, count = mesh.n_nodes, len(patterns)
    sources = [None] * count if currents is None else list(currents)
    filled = table is not None
    if not filled:
        table = np.zeros((n, count), order="F")
    faults = []  # (column, error): the first wrong length, the first unknown electrode
    nodal = []
    for p, pattern in enumerate(patterns):
        if isinstance(pattern, CurrentPattern):
            sources[p] = pattern.currents
            continue
        nodal.append(p)
        if filled:
            continue
        vector = np.asarray(pattern, dtype=float)
        if vector.shape == (n,):
            table[:, p] = vector
        elif not faults:
            faults.append((p, DimensionError(
                f"nodal pattern must have length {n}, got shape {vector.shape}")))

    entries = [(p, eid, amp) for p, source in enumerate(sources) if source for eid, amp in source.items()]
    if entries:
        cols, eids, amps = zip(*entries)
        emap, index = mesh.electrode_map, mesh.node_index
        rows = np.array([index[emap[eid]] if eid in emap else -1 for eid in eids])
        known = rows >= 0
        if not known.all():
            k = int(np.argmin(known))
            faults.append((cols[k], UnknownElectrodeError(f"electrode {eids[k]} is not on the mesh")))
        np.add.at(table, (rows[known], np.array(cols)[known]), np.array(amps)[known])

    # a column's length and electrodes are checked before its currents
    stop, error = min(faults, key=lambda fault: fault[0], default=(count, None))
    checked = [p for p in nodal if p < stop]
    if checked:
        _check_currents(
            table if len(checked) == count else table[:, checked],
            None if blame is None else lambda k, exc: blame(checked[k], exc),
        )
    if error is None:
        return table
    if blame is None:
        raise error
    raise blame(stop, error) from error


def ground_system(S, F: np.ndarray, ground_pos: int) -> tuple[csc_array, np.ndarray]:
    """Pin one node to zero potential by symmetric row/column elimination.

    Copies ``S``'s data in O(nnz), zeroes the ground node's column slice
    and the entries in its row, and sets its stored diagonal to 1 (scipy
    inserts the diagonal if ``S`` does not store it). The result shares
    ``S``'s index arrays, which it does not change, and its ``mesh``; ``S``
    itself is left as it was.
    Keeps the matrix symmetric and, on a connected mesh, positive definite.
    """
    Sg = _StiffnessMatrix(S)  # a CSC input lends its index arrays
    indices, indptr = Sg.indices, Sg.indptr
    start, stop = indptr[ground_pos], indptr[ground_pos + 1]
    Sg.data = data = Sg.data.astype(np.result_type(Sg.data, 0.0))
    data[start:stop] = 0.0
    data[indices == ground_pos] = 0.0
    diagonal = start + np.flatnonzero(indices[start:stop] == ground_pos)
    if diagonal.size == 1:
        data[diagonal] = 1.0
    else:
        Sg = _StiffnessMatrix(Sg, copy=True)  # the insertion must not reorder S's arrays
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

    The rows and columns are permuted by reverse Cuthill-McKee, and the
    permuted lower band is factored with LAPACK ``dpbtrf``. While ``S``
    has the pattern of the mesh it was assembled on, the order and the band
    layout come from the mesh's band plan (0.3 MB at refine 5, computed
    once per mesh), so a factorization only fills the band (4.4 MB at
    refine 5) and factors it; any other ``S`` is planned from its own
    pattern. The factor is a
    read-only array computed once, so it is safe to share across
    concurrent solves. A dense ``S`` is accepted and converted to CSC.
    """

    def __init__(self, system: StiffnessSystem):
        if not system.grounded:
            raise DomainError("system must be grounded (positive definite) before factorization")
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
        factor.setflags(write=False)
        self._S = S
        self._perm = perm
        self._factor = factor

    def solve(self, F: np.ndarray) -> VoltageSolution:
        """Potentials for one load of shape (n,) or for k loads at once,
        shape (n, k); ``phi`` has the shape of ``F``. Each column must meet
        its own residual bound, as if it were solved alone."""
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
            phi=phi, ground_node=self.ground_node, residual_inf=float(np.max(residual, initial=0.0))
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

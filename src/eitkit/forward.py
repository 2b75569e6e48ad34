"""FEM forward problem: assemble the conductivity stiffness system and solve
for nodal potentials under injected boundary currents.

The discretization is the classical linear triangle: each element
contributes ``sigma_e * area * B^T B`` with ``B`` the constant gradient
matrix of the three barycentric shape functions. One vectorized kernel
computes all ``(n_e, 3, 3)`` local matrices at once, and ``assemble``
scatters them into a CSC sparse matrix ``S`` (about 7 nonzeros per row;
29 057 at n = 4225). ``S`` is exactly symmetric, has zero row sums, and is
positive semidefinite with a one-dimensional null space (the constant
potential) on a connected mesh; fixing one reference node to zero
potential makes it positive definite. The gauge zeroes that node's row and
column in the CSC arrays directly, in O(nnz).

:class:`ForwardFactorization` orders the grounded matrix by reverse
Cuthill-McKee, which keeps its nonzeros in a band of half-width b around
the diagonal (b = 129 at n = 4225), and runs banded Cholesky (LAPACK
``dpbtrf``/``dpbtrs``) in O(n b^2) time and O(n b) memory. A matrix that is
not positive definite raises :class:`NumericalError` whose ``pivot_index``
is the 1-based row, in the caller's node order, at which elimination broke
down.

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
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import (
    CompatibilityError,
    DimensionError,
    DomainError,
    GeometryError,
    MeshValidationError,
    NumericalError,
    UnknownElectrodeError,
)
from .mesh import Mesh, validate

ZERO_SUM_TOL = 1e-12
DEGENERACY_FACTOR = 1e-14
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


def _check_currents(vals: np.ndarray) -> None:
    """A drive pattern's currents are finite, at least two are nonzero,
    and they sum to zero within ``ZERO_SUM_TOL``."""
    if not np.all(np.isfinite(vals)):
        raise DomainError("pattern currents must be finite")
    if np.count_nonzero(vals) < 2:
        raise DomainError("a drive pattern needs at least two nonzero currents")
    total = float(vals.sum())
    if abs(total) > ZERO_SUM_TOL:
        raise CompatibilityError(
            f"injected currents must sum to zero within {ZERO_SUM_TOL:g}; got {total:g}"
        )


class _StiffnessMatrix(csc_array):
    """CSC array whose ``nbytes`` is its true storage size (the data,
    row-index and column-pointer arrays)."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


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
    x, y = pts[..., 0], pts[..., 1]
    area = 0.5 * np.abs(
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    threshold = DEGENERACY_FACTOR * scale * scale
    bad = ~(area > threshold)
    if bad.any():
        e = int(np.argmax(bad))
        raise GeometryError(
            f"degenerate triangle (area {area[e]:g}, threshold {threshold:g})",
            vertices=[tuple(p) for p in pts[e]],
        )
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    outer = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    return (sigma / (4.0 * area))[:, None, None] * outer


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


def _placement(mesh: Mesh):
    """Where local entry (e, a, b), at row ``tri[e, a]`` and column
    ``tri[e, b]``, lands in the CSC ``S``: ``(order, first, rows, cols, slot)``.

    ``order`` stably sorts the flattened local entries by (column, row), so
    each nonzero sums its contributions in element order, from ``first``;
    ``rows`` and ``cols`` locate the nonzeros; ``slot`` (n_e, 3, 3) is the
    nonzero that each local entry lands on.
    """
    n = mesh.n_nodes
    tri = mesh.triangles
    key = (tri[:, None, :] * n + tri[:, :, None]).ravel()
    order = np.argsort(key, kind="stable")
    starts = np.diff(key[order], prepend=-1) != 0
    entries = key[order][starts]
    slot = np.empty_like(order)
    slot[order] = np.cumsum(starts) - 1
    return order, np.flatnonzero(starts), entries % n, entries // n, slot.reshape(tri.shape[0], 3, 3)


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

    n = mesh.n_nodes
    local = _local_stiffness(mesh.coords[mesh.triangles], sigma, mesh.bounding_box_diagonal)
    order, first, rows, cols, _ = _placement(mesh)
    data = np.add.reduceat(local.ravel()[order], first)
    # int32 indices, as scipy itself builds them for a matrix of this size
    indices = rows.astype(np.int32)
    indptr = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
    S = _StiffnessMatrix((data, indices, indptr), shape=(n, n))
    return StiffnessSystem(S=S, F=np.zeros(n), ground_node=None)


def _nodal_load(mesh: Mesh, pattern: CurrentPattern) -> np.ndarray:
    F = np.zeros(mesh.n_nodes)
    emap = mesh.electrode_map
    for eid, current in pattern.currents.items():
        if eid not in emap:
            raise UnknownElectrodeError(f"electrode {eid} is not on the mesh")
        F[mesh.node_index[emap[eid]]] += current
    return F


def ground_system(S, F: np.ndarray, ground_pos: int) -> tuple[csc_array, np.ndarray]:
    """Pin one node to zero potential by symmetric row/column elimination.

    Works on a copy of the CSC arrays in O(nnz): the row and column of the
    ground node are zeroed in place and its diagonal set to 1. Keeps the
    matrix symmetric and, on a connected mesh, positive definite.
    """
    Sg = _StiffnessMatrix(S, copy=True)
    Fg = F.copy()
    Sg.data[Sg.indices == ground_pos] = 0.0
    Sg.data[Sg.indptr[ground_pos]:Sg.indptr[ground_pos + 1]] = 0.0
    Sg[ground_pos, ground_pos] = 1.0
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

    F = _nodal_load(mesh, pattern)
    Sg, Fg = ground_system(system.S, F, mesh.node_index[ground_node])
    return StiffnessSystem(S=Sg, F=Fg, ground_node=ground_node)


class ForwardFactorization:
    """Banded Cholesky factorization of a grounded system, reusable across loads.

    The rows and columns are permuted by reverse Cuthill-McKee, and the
    permuted lower band is factored with LAPACK ``dpbtrf``. The factor is a
    read-only array computed once, so it is safe to share across
    concurrent solves. A dense ``S`` is accepted and converted to CSC.
    """

    def __init__(self, system: StiffnessSystem):
        if not system.grounded:
            raise DomainError("system must be grounded (positive definite) before factorization")
        self.ground_node = system.ground_node
        S = csc_array(system.S, dtype=float, copy=True)  # residual checks must not see later mutation
        S.sum_duplicates()  # the band is filled by assignment, one entry per position
        perm = reverse_cuthill_mckee(S, symmetric_mode=True)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        coo = S.tocoo()
        rows, cols = inverse[coo.row], inverse[coo.col]
        lower = rows >= cols
        offsets = rows[lower] - cols[lower]
        band = np.zeros((int(offsets.max(initial=0)) + 1, S.shape[0]), order="F")
        band[offsets, cols[lower]] = coo.data[lower]
        factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
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

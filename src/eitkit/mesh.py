"""Triangulated 2D domains with boundary and electrode annotations.

A :class:`Mesh` is its read-only id, coordinate and corner arrays,
immutable after construction and safe to share across concurrent tasks.
Arrays derived from it, among them the assembly, geometry and band plans
that :mod:`eitkit.forward` reads, are computed on first use and cached on
it. Construction checks each id, coordinate and element arity;
:func:`validate` reports every violation and never raises, and
:func:`load_mesh` refuses meshes whose report is non-empty.

Mesh file format (the shared text rules are in :mod:`eitkit.textio`)::

    [nodes]
    <id> <x> <y>          one node per line
    [elements]
    <id> <n1> <n2> <n3>   counter-clockwise node ids
    [boundary]
    <node id>             boundary loop, one id per line, in loop order
    [electrodes]
    <id> <node id>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, GeometryError, MeshFormatError, MeshValidationError, _frozen
from .textio import read_lines, records, sections, write_lines

DEGENERACY_FACTOR = 1e-14

# field names of one line in each section, in file order
_FIELDS = {
    "nodes": ("id", "x", "y"),
    "elements": ("id", "n1", "n2", "n3"),
    "boundary": ("node",),
    "electrodes": ("id", "node"),
}


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Element:
    id: int
    nodes: tuple[int, int, int]


@dataclass(frozen=True)
class Electrode:
    id: int
    node: int


@dataclass(frozen=True)
class MeshDefect:
    """One violated invariant: a machine-readable kind, the offending ids,
    and a human-readable detail string."""

    kind: str
    ids: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    defects: tuple[MeshDefect, ...]

    @property
    def ok(self) -> bool:
        return not self.defects

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(f"{d.kind} {list(d.ids)}: {d.detail}" for d in self.defects)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Mesh:
    """Triangulated domain: nodes, counter-clockwise triangles, an ordered
    boundary loop, and point electrodes pinned to boundary nodes. Made from
    records, it raises :class:`DimensionError` for an element without three
    corners and :class:`DomainError` for an id that is not an integer of at
    most 64 bits or a coordinate that is not a real number. The records are
    made from the arrays only when read; ``==`` compares them."""

    node_ids: np.ndarray  # (n,) int64
    coords: np.ndarray  # (n, 2) float
    element_ids: np.ndarray  # (n_e,) int64
    corners: np.ndarray  # (n_e, 3) int64, the corner node ids
    boundary_nodes: tuple[int, ...]
    electrodes: tuple[Electrode, ...]

    def __init__(self, nodes, elements, boundary_nodes, electrodes):
        nodes, elements = tuple(nodes), tuple(elements)  # each is read more than once
        for e in elements:
            if len(e.nodes) != 3:
                raise DimensionError(f"element {e.id} has {len(e.nodes)} corners, not 3")
        _made(self, [n.id for n in nodes], [(n.x, n.y) for n in nodes], [e.id for e in elements],
              [e.nodes for e in elements], tuple(boundary_nodes), tuple(electrodes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __repr__(self) -> str:
        return (f"Mesh(nodes={self.nodes!r}, elements={self.elements!r}, "
                f"boundary_nodes={self.boundary_nodes!r}, electrodes={self.electrodes!r})")

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(Node, self.node_ids.tolist(), *self.coords.T.tolist()))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(map(Element, self.element_ids.tolist(), map(tuple, self.corners.tolist())))

    @property
    def n_nodes(self) -> int:
        return self.node_ids.size

    @property
    def n_elements(self) -> int:
        return self.element_ids.size

    @cached_property
    def node_index(self) -> dict[int, int]:
        """Node id -> row position in :attr:`coords`."""
        return dict(zip(self.node_ids.tolist(), range(self.n_nodes)))

    @cached_property
    def triangles(self) -> np.ndarray:
        """Element connectivity, (n_elements, 3), as row positions into
        :attr:`coords`; an id given to two nodes names the last of them.

        Raises :class:`MeshValidationError` when an element names a node
        that is not on the mesh."""
        pos, corners = self._id_table[:2]
        t = pos[corners]
        if (t < 0).any():
            raise MeshValidationError(self.validation_report)
        return _frozen(t)

    @cached_property
    def _id_table(self) -> tuple[np.ndarray, ...]:
        """``(pos, corners, ids, first, nodes, loop, electrodes)``: one code per
        distinct id, node ids listed first. ``ids[code]`` is the id, ``first``
        its first place, ``pos`` the row of the last node with it (-1 if none);
        the rest are the codes of the (n_e, 3) corners, nodes, loop, electrodes."""
        others = _int64([*self.boundary_nodes, *(el.node for el in self.electrodes)])
        all_ids = np.concatenate((self.node_ids, self.corners.ravel(), others))
        uniq, first, code = np.unique(all_ids, return_index=True, return_inverse=True)
        sizes = np.cumsum([self.n_nodes, 3 * self.n_elements, len(self.boundary_nodes)])
        nodes, corners, loop, electrodes = np.split(code, sizes)
        pos = np.full(uniq.size, -1)
        np.maximum.at(pos, nodes, np.arange(nodes.size))
        return pos, corners.reshape(-1, 3), uniq, first, nodes, loop, electrodes

    @cached_property
    def _placement(self) -> tuple[np.ndarray, ...]:
        """The assembly plan: where local stiffness entry (e, a, b), at row
        ``triangles[e, a]`` and column ``triangles[e, b]``, lands in the CSC
        stiffness matrix, as read-only arrays ``(order, first, rows, indptr, slot)``.

        ``order`` stably sorts the flattened local entries by (column, row),
        so each nonzero sums its contributions in element order, from
        ``first``; ``rows`` (int32) and ``indptr`` (int32) are the CSC index
        arrays of the nonzeros; ``slot`` (n_e, 3, 3) is the nonzero that
        each local entry lands on."""
        n = self.n_nodes
        tri = self.triangles
        key = (tri[:, None, :] * n + tri[:, :, None]).ravel()
        order = np.argsort(key, kind="stable")
        starts = np.diff(key[order], prepend=-1) != 0
        entries = key[order][starts]
        slot = np.empty_like(order)
        slot[order] = np.cumsum(starts) - 1
        # int32 indices, as scipy itself builds them for a matrix of this size
        rows = (entries % n).astype(np.int32)
        indptr = np.searchsorted(entries // n, np.arange(n + 1)).astype(np.int32)
        return _frozen(order, np.flatnonzero(starts), rows, indptr, slot.reshape(tri.shape[0], 3, 3))

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, ...]:
        """The element geometry in assembly order, as read-only arrays
        ``(four_area, outer, element)``: ``4 area`` of each element, and
        every entry of each element's ``b b^T + c c^T`` (see
        :func:`_triangle_geometry`) in the order ``_placement`` sums them,
        with the element it belongs to. A sliver raises
        :class:`GeometryError`; a failed property is not cached, so every
        read raises again."""
        four_area, outer = _triangle_geometry(self.coords[self.triangles], self.bounding_box_diagonal)
        order = self._placement[0]
        return _frozen(four_area, outer.ravel()[order], order // 9)

    @cached_property
    def _band(self) -> tuple:
        """The band layout of the stiffness pattern of ``_placement``,
        :func:`_band_plan` of its index arrays with the first fifth of the
        boundary loop (the nearest whole number of its nodes) as the front
        the order starts from: on the disk, depth 24/43/82 at refine 3/4/5,
        against reverse Cuthill-McKee's 34/66/130."""
        pos, _, _, _, _, loop, _ = self._id_table
        _, _, rows, indptr, _ = self._placement
        return _band_plan(rows, indptr, pos[loop[:(loop.size + 2) // 5]])

    @cached_property
    def electrode_map(self) -> dict[int, int]:
        """Electrode id -> node id."""
        return {e.id: e.node for e in self.electrodes}

    @cached_property
    def bounding_box_diagonal(self) -> float:
        lo = self.coords.min(axis=0)
        hi = self.coords.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    @cached_property
    def validation_report(self) -> "ValidationReport":
        """Every violated invariant (see :func:`validate`), checked once."""
        return _check_invariants(self)


def _signed_areas(pts: np.ndarray) -> np.ndarray:
    """Signed area of each triangle in an (n_e, 3, 2) array of corners;
    positive when the corners run counter-clockwise."""
    return 0.5 * (
        (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
        - (pts[:, 2, 0] - pts[:, 0, 0]) * (pts[:, 1, 1] - pts[:, 0, 1])
    )


def _triangle_geometry(pts: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``(4 area, b b^T + c c^T)`` of every triangle, shapes (n_e,) and
    (n_e, 3, 3), where ``b`` and ``c`` are the y and x differences of the
    opposite edges: the local stiffness is ``sigma / (4 area)`` times the
    second. ``pts`` holds the vertices, shape (n_e, 3, 2). Raises
    :class:`GeometryError` for the lowest-index element with
    ``area <= 1e-14 * scale**2``, carrying its vertices.
    """
    x, y = pts[..., 0], pts[..., 1]
    area = np.abs(_signed_areas(pts))
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
    return 4.0 * area, b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]


def _band_plan(indices: np.ndarray, indptr: np.ndarray, front=None) -> tuple:
    """The banded-Cholesky layout of a symmetric CSC pattern, as
    ``(perm, slots, positions, depth)``.

    ``perm`` is the reverse Cuthill-McKee order of the pattern (explicit
    zeros count as entries), unless ``front`` names rows to start from: then
    it is the breadth-first order that visits those rows first, in the order
    given, and level by level the rows they reach, kept only when it visits
    every row and its band is strictly shallower than reverse Cuthill-McKee's.
    Permuted by ``perm``, the lower triangle fits in a Fortran-order
    ``(depth, n)`` LAPACK band: the CSC data at ``slots`` lands at the flat
    ``positions`` of that band."""
    from scipy.sparse import csc_array, csr_array
    from scipy.sparse.csgraph import breadth_first_order, reverse_cuthill_mckee

    n = indptr.size - 1
    pattern = csc_array((np.ones(indices.size), indices, indptr), shape=(n, n))
    plan = _band_of(reverse_cuthill_mckee(pattern, symmetric_mode=True), indices, indptr)
    if front is not None:
        # one extra row that links to the front; a symmetric pattern's CSC
        # arrays are its CSR rows
        graph = csr_array((np.ones(indices.size + len(front)), np.concatenate((indices, front)),
                           np.append(indptr, indptr[-1] + len(front))), shape=(n + 1, n + 1))
        order = breadth_first_order(graph, n, return_predecessors=False)[1:]
        if order.size == n:
            fronts = _band_of(order, indices, indptr)
            plan = fronts if fronts[3] < plan[3] else plan
    return (*_frozen(*plan[:3]), plan[3])


def _band_of(perm: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> tuple:
    """``(perm, slots, positions, depth)`` of the CSC pattern permuted by ``perm``."""
    n = perm.size
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(n)
    rows = inverse[indices]
    cols = inverse[np.repeat(np.arange(n), np.diff(indptr))]
    slots = np.flatnonzero(rows >= cols)
    offsets = rows[slots] - cols[slots]
    depth = int(offsets.max(initial=0)) + 1
    positions = offsets + cols[slots].astype(np.intp) * depth
    return perm, slots, positions, depth


def element_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of every element, in element order."""
    return _signed_areas(mesh.coords[mesh.triangles])


def total_area(mesh: Mesh) -> float:
    return float(element_areas(mesh).sum())


def _pair_key(a, b, size: int) -> np.ndarray:
    """One key per unordered pair of codes below ``size``."""
    return np.minimum(a, b) * size + np.maximum(a, b)


def _edge_table(tri: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge table of an (n_e, 3) array of corner codes below ``size``: sorted
    distinct side keys, the first side with each key, each side's key index.
    Side ``3 k + j`` runs from corner j of element k to corner j + 1."""
    return np.unique(_pair_key(tri, tri[:, [1, 2, 0]], size).ravel(),
                     return_index=True, return_inverse=True)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def build_disk_mesh(radius: float, refinement: int, n_electrodes: int = 8) -> Mesh:
    """Build a centered disk mesh by uniform subdivision of an 8-triangle fan.

    Refinement 0 is a center node plus a regular ring of 8 boundary nodes
    (9 nodes, 8 triangles). Each refinement level splits every triangle
    into 4; midpoints of boundary edges are projected back onto the circle,
    so the triangulated polygon is always inscribed in the disk.

    The numbering is fixed, which keeps ``mesh gen`` output byte-stable. Ids
    are positions. A level keeps the old nodes, numbers one new node per side
    by first appearance (elements in order, sides v0v1, v1v2, v2v0), splits
    (v0, v1, v2) into (v0, m01, m20), (v1, m12, m01), (v2, m20, m12) and
    (m01, m12, m20), and makes the boundary loop alternate old node and
    midpoint. Electrode j is on loop position ``j * 8 * 2**refinement //
    n_electrodes``.

    Parameters
    ----------
    radius : float
        Disk radius in meters, > 0.
    refinement : int
        Number of subdivision levels, >= 0.
    n_electrodes : int
        Equally spaced point electrodes on the boundary ring; must divide
        the boundary node count ``8 * 2**refinement``.

    Returns
    -------
    Mesh
        Node and element counts are deterministic functions of ``refinement``.

    Raises :class:`DomainError`, before refining, on a bad argument or a ``bool``.
    """
    if not (isinstance(radius, (int, float)) and not isinstance(radius, bool)
            and math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be a positive finite number, got {radius!r}")
    if not (_is_int(refinement) and refinement >= 0):
        raise DomainError(f"refinement must be a non-negative integer, got {refinement!r}")
    n_boundary = 8 * 2 ** int(refinement)
    if not (_is_int(n_electrodes) and 1 <= n_electrodes <= n_boundary):
        raise DomainError(f"n_electrodes must be an integer in [1, {n_boundary}], got {n_electrodes!r}")
    if n_boundary % n_electrodes != 0:
        raise DomainError(f"n_electrodes must divide the boundary node count {n_boundary}, got {n_electrodes}")
    radius, refinement, n_electrodes = float(radius), int(refinement), int(n_electrodes)

    ring = [2.0 * math.pi * k / 8 for k in range(8)]
    xy = np.array([(0.0, 0.0)] + [(radius * math.cos(t), radius * math.sin(t)) for t in ring])
    tri = np.array([(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)])
    boundary = np.arange(1, 9)

    for _ in range(refinement):
        n = len(xy)
        keys, first, side = _edge_table(tri, n)
        # side key -> new node, numbered by the side's first appearance
        number, firsts = n + np.argsort(np.argsort(first)), np.sort(first)
        mid = 0.5 * (xy[tri.ravel()[firsts]] + xy[tri[:, [1, 2, 0]].ravel()[firsts]])
        # rows of mid on the boundary; math.hypot, as np.hypot can differ in the last bit
        rim = number[np.searchsorted(keys, _pair_key(boundary, np.roll(boundary, -1), n))] - n
        r = np.array([math.hypot(x, y) for x, y in mid[rim].tolist()])
        mid[rim] = mid[rim] * radius / r[:, None]
        xy = np.concatenate((xy, mid))
        (v0, v1, v2), (m01, m12, m20) = tri.T, number[side].reshape(-1, 3).T
        tri = np.stack((v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20), axis=1).reshape(-1, 3)
        boundary = np.stack((boundary, n + rim), axis=1).ravel()

    electrodes = tuple(map(Electrode, range(n_electrodes), boundary[::n_boundary // n_electrodes].tolist()))
    return _made(Mesh.__new__(Mesh), np.arange(len(xy)), xy, np.arange(len(tri)), tri,
                 tuple(boundary.tolist()), electrodes)


def validate(mesh: Mesh) -> ValidationReport:
    """Check every structural invariant and report each violation.

    Nothing is raised: all problems are collected into the report so a
    broken mesh can be diagnosed in one pass. A mesh is immutable, so the
    check runs once per mesh and later calls return the same report.

    The report lists node defects in node order, then element defects in
    element order, then the boundary loop, then electrode defects in
    electrode order, then connectivity: ``not-edge-connected`` names each
    component by its first element in mesh order, ids sorted, and
    ``isolated-node`` lists the unused node ids, sorted. Where an id is
    given to two nodes, the last of them is the one elements refer to.
    """
    return mesh.validation_report


def _int64(ids) -> np.ndarray:
    array = np.asarray(ids)
    if array.size and array.dtype.kind != "i":
        raise DomainError("mesh ids must be integers that fit in a signed 64-bit integer")
    return array.astype(np.int64, copy=False)


def _made(mesh: Mesh, node_ids, coords, element_ids, corners, boundary, electrodes) -> Mesh:
    """``mesh`` with every id and coordinate checked and the arrays frozen:
    the one place a mesh is made, from records or from arrays."""
    coords = np.asarray(coords)
    if coords.size and coords.dtype.kind not in "iuf":
        raise DomainError("mesh coordinates must be real numbers")
    _int64([*boundary, *(v for el in electrodes for v in (el.id, el.node))])
    arrays = _frozen(_int64(node_ids), coords.astype(float, copy=False).reshape(-1, 2),
                     _int64(element_ids), _int64(corners).reshape(-1, 3))
    vars(mesh).update(zip([f.name for f in fields(Mesh)], (*arrays, boundary, electrodes)))
    return mesh


def _repeated(ids) -> np.ndarray:
    """True where an id already appeared earlier in ``ids``."""
    mask = np.ones(len(ids), dtype=bool)
    mask[np.unique(_int64(ids), return_index=True)[1]] = False
    return mask


def _check_invariants(mesh: Mesh) -> ValidationReport:
    loop, electrodes = mesh.boundary_nodes, mesh.electrodes
    n, n_e, n_el = mesh.n_nodes, mesh.n_elements, len(electrodes)
    pos, tri, uniq, seen, node_code, loop_code, el_code = mesh._id_table
    defects: list[MeshDefect] = []

    def flag(kind: str, ids, detail: str) -> None:
        defects.append(MeshDefect(kind, tuple(ids), detail))

    dup_node = seen[node_code] != np.arange(n)
    non_finite = ~np.isfinite(mesh.coords).all(axis=1)
    for k in np.flatnonzero(dup_node | non_finite):
        node = Node(int(mesh.node_ids[k]), *mesh.coords[k].tolist())
        if dup_node[k]:
            flag("duplicate-node-id", [node.id], "node id appears more than once")
        if non_finite[k]:
            flag("non-finite-coordinate", [node.id], f"({node.x}, {node.y})")

    tri_pos = pos[tri]
    unknown = (tri_pos < 0).any(axis=1)
    repeated = (tri == tri[:, [1, 2, 0]]).any(axis=1)
    sound = ~(unknown | repeated)
    area = np.zeros(n_e)
    with np.errstate(all="ignore"):
        area[sound] = _signed_areas(mesh.coords[tri_pos[sound]])
    flipped = sound & ~(area > 0.0)
    dup_elem = _repeated(mesh.element_ids)
    for k in np.flatnonzero(dup_elem | unknown | repeated | flipped):
        elem = Element(int(mesh.element_ids[k]), tuple(mesh.corners[k].tolist()))
        if dup_elem[k]:
            flag("duplicate-element-id", [elem.id], "element id appears more than once")
        if unknown[k]:
            missing = [v for v, p in zip(elem.nodes, tri_pos[k]) if p < 0]
            flag("unknown-node-reference", [elem.id, *missing],
                 f"element {elem.id} references unknown node(s) {missing}")
        elif repeated[k]:
            flag("repeated-element-node", [elem.id], f"nodes {elem.nodes}")
        elif flipped[k]:
            flag("non-positive-area", [elem.id], f"element {elem.id} has signed area "
                 f"{float(area[k]):g}; nodes must run counter-clockwise")

    keys, owner, edge = _edge_table(tri, uniq.size)
    keys = np.append(keys, np.iinfo(np.int64).max)  # a sentinel above every key
    on_sound = np.bincount(edge.reshape(n_e, 3)[sound].ravel(), minlength=keys.size) > 0
    unknown_loop = pos[loop_code] < 0
    if unknown_loop.any():
        flag("unknown-boundary-node", [v for v, bad in zip(loop, unknown_loop) if bad],
             "not present in [nodes]")
    elif len(loop) < 3:
        flag("degenerate-boundary-loop", loop, f"loop of length {len(loop)}")
    else:
        pair = _pair_key(loop_code, np.roll(loop_code, -1), uniq.size)
        at = np.searchsorted(keys, pair)
        for k in np.flatnonzero((keys[at] != pair) | ~on_sound[at]):
            a, b = loop[k], loop[(k + 1) % len(loop)]
            flag("broken-boundary-loop", [a, b],
                 f"consecutive boundary nodes {a}, {b} do not share an element edge")

    dup_el = _repeated([el.id for el in electrodes])
    el_unknown = pos[el_code] < 0
    on_loop = np.bincount(loop_code, minlength=uniq.size) > 0
    # first[code]: the first electrode, among those on a known node, on that node
    first = np.full(uniq.size, n_el)
    np.minimum.at(first, el_code[~el_unknown], np.flatnonzero(~el_unknown))
    shared = ~el_unknown & (first[el_code] != np.arange(n_el))
    for k in np.flatnonzero(dup_el | el_unknown | ~on_loop[el_code] | shared):
        el = electrodes[k]
        if dup_el[k]:
            flag("duplicate-electrode-id", [el.id], "electrode id appears more than once")
        if el_unknown[k]:
            flag("electrode-unknown-node", [el.id, el.node], "electrode node not in [nodes]")
            continue
        if not on_loop[el_code[k]]:
            flag("electrode-not-on-boundary", [el.id, el.node],
                 f"electrode {el.id} sits on interior node {el.node}")
        if shared[k]:
            other = electrodes[first[el_code[k]]].id
            flag("electrodes-share-node", [other, el.id, el.node],
                 f"electrodes {other} and {el.id} share node {el.node}")

    if not n_e:
        if n:
            flag("empty-mesh", [], "mesh has nodes but no elements")
        return ValidationReport(tuple(defects))
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    # elements sharing an edge key are adjacent: each side links its element
    # to the first element that has the same side
    links = (np.ones(3 * n_e), owner[edge] // 3, np.arange(0, 3 * n_e + 1, 3))
    count, label = connected_components(csr_array(links, shape=(n_e, n_e)), directed=False)
    if count > 1:
        firsts = np.unique(label, return_index=True)[1]
        flag("not-edge-connected", sorted(mesh.element_ids[firsts].tolist()),
             f"elements split into {count} edge-connected components")
    used = np.bincount(tri.ravel(), minlength=uniq.size) > 0
    isolated = uniq[(pos >= 0) & ~used]
    if isolated.size:
        flag("isolated-node", [int(v) for v in isolated], "node belongs to no element")
    return ValidationReport(tuple(defects))


def save_mesh(mesh: Mesh, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write a mesh file; ``save_mesh`` then :func:`load_mesh` reproduces the
    mesh exactly. Each record section is one ``format`` call over its columns."""
    nodes = [v for row in zip(mesh.node_ids.tolist(), *mesh.coords.T.tolist()) for v in row]
    elements = np.column_stack((mesh.element_ids, mesh.corners)).ravel().tolist()
    lines = ["[nodes]" + ("\n{} {:.17g} {:.17g}" * mesh.n_nodes).format(*nodes),
             "[elements]" + ("\n{} {} {} {}" * mesh.n_elements).format(*elements),
             "[boundary]", *map(str, mesh.boundary_nodes),
             "[electrodes]", *[f"{el.id} {el.node}" for el in mesh.electrodes]]
    write_lines(path, lines, header_lines)


def load_mesh(path) -> Mesh:
    """Parse and validate a mesh file.

    Raises
    ------
    MeshFormatError
        On any parse problem, with line and field context. A file missing
        one of the four section headers is treated as truncated.
    MeshValidationError
        When the parsed mesh violates an invariant; the full validation
        report is embedded in the error.
    """
    mesh = parse_mesh_file(path)
    report = validate(mesh)
    if not report.ok:
        raise MeshValidationError(report)
    return mesh


def parse_mesh_file(path) -> Mesh:
    """Parse a mesh file without checking invariants (use :func:`validate`
    to inspect a suspect mesh; :func:`load_mesh` does both).

    Each section is read in one columnar pass (:func:`eitkit.textio.records`):
    every line is split, the field counts are checked together, each field
    column is converted by one ``map`` and each id column is range-checked
    on its min and max; the columns become the mesh's arrays. A line is
    looked at on its own only when a pass fails, to name the first bad line
    of the first bad section, in the order nodes, elements, boundary,
    electrodes."""
    lines = read_lines(path, MeshFormatError)
    groups = sections(lines, _FIELDS, MeshFormatError)

    def read(name):
        fields = _FIELDS[name]
        kinds = (int, float, float) if name == "nodes" else (int,) * len(fields)
        return records(groups.get(name, ()), name, fields, kinds, MeshFormatError)

    node_ids, *xy = read("nodes")
    element_ids, *corners = read("elements")
    columns = node_ids, np.transpose(xy), element_ids, np.transpose(corners), tuple(read("boundary")[0])
    electrodes = tuple(map(Electrode, *read("electrodes")))
    missing = [f"[{name}]" for name in _FIELDS if name not in groups]
    if missing:
        raise MeshFormatError(
            f"file is truncated or incomplete: missing section(s) {', '.join(missing)}",
            line_no=len(lines),
        )
    return _made(Mesh.__new__(Mesh), *columns, electrodes)

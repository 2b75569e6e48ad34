"""Triangulated 2D domains with boundary and electrode annotations.

A :class:`Mesh` is immutable after construction and safe to share across
concurrent tasks. Construction never validates invariants beyond basic
types; :func:`validate` reports every violation, and :func:`load_mesh`
refuses meshes whose report is non-empty.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, MeshFormatError, MeshValidationError
from .textio import convert, read_lines, sections, write_lines

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


@dataclass(frozen=True)
class Mesh:
    """Triangulated domain: nodes, counter-clockwise triangles, an ordered
    boundary loop, and point electrodes pinned to boundary nodes."""

    nodes: tuple[Node, ...]
    elements: tuple[Element, ...]
    boundary_nodes: tuple[int, ...]
    electrodes: tuple[Electrode, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def node_index(self) -> dict[int, int]:
        """Node id -> row position in :attr:`coords`."""
        return {node.id: k for k, node in enumerate(self.nodes)}

    @cached_property
    def coords(self) -> np.ndarray:
        c = np.array([[node.x, node.y] for node in self.nodes], dtype=float)
        c.setflags(write=False)
        return c

    @cached_property
    def triangles(self) -> np.ndarray:
        """Element connectivity as row positions into :attr:`coords`."""
        idx = self.node_index
        t = np.array([[idx[n] for n in e.nodes] for e in self.elements], dtype=int)
        t.setflags(write=False)
        return t

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


def signed_area(p0, p1, p2) -> float:
    """Signed area of the triangle (p0, p1, p2); positive when the vertices
    run counter-clockwise."""
    return 0.5 * (
        (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
    )


def element_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of every element, in element order."""
    pts = mesh.coords[mesh.triangles]
    return 0.5 * (
        (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
        - (pts[:, 2, 0] - pts[:, 0, 0]) * (pts[:, 1, 1] - pts[:, 0, 1])
    )


def total_area(mesh: Mesh) -> float:
    return float(element_areas(mesh).sum())


def build_disk_mesh(radius: float, refinement: int, n_electrodes: int = 8) -> Mesh:
    """Build a centered disk mesh by uniform subdivision of an 8-triangle fan.

    Refinement 0 is a center node plus a regular ring of 8 boundary nodes
    (9 nodes, 8 triangles). Each refinement level splits every triangle
    into 4; midpoints of boundary edges are projected back onto the circle,
    so the triangulated polygon is always inscribed in the disk.

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
    """
    if not (isinstance(radius, (int, float)) and math.isfinite(radius) and radius > 0):
        raise DomainError(f"radius must be a positive finite number, got {radius!r}")
    if not (isinstance(refinement, int) and refinement >= 0):
        raise DomainError(f"refinement must be a non-negative integer, got {refinement!r}")

    radius = float(radius)
    coords: list[tuple[float, float]] = [(0.0, 0.0)]
    coords += [
        (radius * math.cos(2.0 * math.pi * k / 8), radius * math.sin(2.0 * math.pi * k / 8))
        for k in range(8)
    ]
    tris: list[tuple[int, int, int]] = [(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)]
    boundary: list[int] = list(range(1, 9))

    for _ in range(refinement):
        boundary_edges = {
            frozenset(pair) for pair in zip(boundary, boundary[1:] + boundary[:1])
        }
        midpoints: dict[frozenset, int] = {}

        def midpoint(a: int, b: int) -> int:
            key = frozenset((a, b))
            found = midpoints.get(key)
            if found is not None:
                return found
            x = 0.5 * (coords[a][0] + coords[b][0])
            y = 0.5 * (coords[a][1] + coords[b][1])
            if key in boundary_edges:
                r = math.hypot(x, y)
                x, y = x * radius / r, y * radius / r
            coords.append((x, y))
            midpoints[key] = len(coords) - 1
            return midpoints[key]

        refined: list[tuple[int, int, int]] = []
        for v0, v1, v2 in tris:
            m01, m12, m20 = midpoint(v0, v1), midpoint(v1, v2), midpoint(v2, v0)
            refined += [(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)]
        tris = refined

        new_boundary: list[int] = []
        for a, b in zip(boundary, boundary[1:] + boundary[:1]):
            new_boundary += [a, midpoints[frozenset((a, b))]]
        boundary = new_boundary

    n_boundary = len(boundary)
    if not (isinstance(n_electrodes, int) and 1 <= n_electrodes <= n_boundary):
        raise DomainError(
            f"n_electrodes must be an integer in [1, {n_boundary}], got {n_electrodes!r}"
        )
    if n_boundary % n_electrodes != 0:
        raise DomainError(
            f"n_electrodes must divide the boundary node count {n_boundary}, got {n_electrodes}"
        )
    stride = n_boundary // n_electrodes

    return Mesh(
        nodes=tuple(Node(i, x, y) for i, (x, y) in enumerate(coords)),
        elements=tuple(Element(i, t) for i, t in enumerate(tris)),
        boundary_nodes=tuple(boundary),
        electrodes=tuple(
            Electrode(j, boundary[j * stride]) for j in range(n_electrodes)
        ),
    )


def validate(mesh: Mesh) -> ValidationReport:
    """Check every structural invariant and report each violation.

    Nothing is raised: all problems are collected into the report so a
    broken mesh can be diagnosed in one pass. A mesh is immutable, so the
    check runs once per mesh and later calls return the same report.
    """
    return mesh.validation_report


def _check_invariants(mesh: Mesh) -> ValidationReport:
    defects: list[MeshDefect] = []

    seen_ids: dict[int, int] = {}
    for node in mesh.nodes:
        if node.id in seen_ids:
            defects.append(
                MeshDefect("duplicate-node-id", (node.id,), "node id appears more than once")
            )
        seen_ids[node.id] = 1
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            defects.append(
                MeshDefect("non-finite-coordinate", (node.id,), f"({node.x}, {node.y})")
            )

    known = {node.id for node in mesh.nodes}
    pos = {node.id: (node.x, node.y) for node in mesh.nodes}

    element_ids = set()
    edge_set: set[frozenset] = set()
    for elem in mesh.elements:
        if elem.id in element_ids:
            defects.append(
                MeshDefect("duplicate-element-id", (elem.id,), "element id appears more than once")
            )
        element_ids.add(elem.id)
        missing = [n for n in elem.nodes if n not in known]
        if missing:
            defects.append(
                MeshDefect(
                    "unknown-node-reference",
                    (elem.id, *missing),
                    f"element {elem.id} references unknown node(s) {missing}",
                )
            )
            continue
        if len(set(elem.nodes)) != 3:
            defects.append(
                MeshDefect("repeated-element-node", (elem.id,), f"nodes {elem.nodes}")
            )
            continue
        a, b, c = (pos[n] for n in elem.nodes)
        area = signed_area(a, b, c)
        if not area > 0.0:
            defects.append(
                MeshDefect(
                    "non-positive-area",
                    (elem.id,),
                    f"element {elem.id} has signed area {area:g}; nodes must run counter-clockwise",
                )
            )
        for u, v in ((elem.nodes[0], elem.nodes[1]),
                     (elem.nodes[1], elem.nodes[2]),
                     (elem.nodes[2], elem.nodes[0])):
            edge_set.add(frozenset((u, v)))

    loop = mesh.boundary_nodes
    unknown_boundary = [n for n in loop if n not in known]
    if unknown_boundary:
        defects.append(
            MeshDefect("unknown-boundary-node", tuple(unknown_boundary), "not present in [nodes]")
        )
    elif len(loop) < 3:
        defects.append(
            MeshDefect("degenerate-boundary-loop", tuple(loop), f"loop of length {len(loop)}")
        )
    else:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            if frozenset((a, b)) not in edge_set:
                defects.append(
                    MeshDefect(
                        "broken-boundary-loop",
                        (a, b),
                        f"consecutive boundary nodes {a}, {b} do not share an element edge",
                    )
                )

    boundary_set = set(loop)
    electrode_nodes: dict[int, int] = {}
    electrode_ids = set()
    for el in mesh.electrodes:
        if el.id in electrode_ids:
            defects.append(
                MeshDefect("duplicate-electrode-id", (el.id,), "electrode id appears more than once")
            )
        electrode_ids.add(el.id)
        if el.node not in known:
            defects.append(
                MeshDefect("electrode-unknown-node", (el.id, el.node), "electrode node not in [nodes]")
            )
            continue
        if el.node not in boundary_set:
            defects.append(
                MeshDefect(
                    "electrode-not-on-boundary",
                    (el.id, el.node),
                    f"electrode {el.id} sits on interior node {el.node}",
                )
            )
        if el.node in electrode_nodes:
            defects.append(
                MeshDefect(
                    "electrodes-share-node",
                    (electrode_nodes[el.node], el.id, el.node),
                    f"electrodes {electrode_nodes[el.node]} and {el.id} share node {el.node}",
                )
            )
        else:
            electrode_nodes[el.node] = el.id

    defects.extend(_connectivity_defects(mesh, known))

    return ValidationReport(tuple(defects))


def _connectivity_defects(mesh: Mesh, known: set[int]) -> list[MeshDefect]:
    """Edge-connectivity: all elements form one component under shared-edge
    adjacency, and every node belongs to some element."""
    defects: list[MeshDefect] = []
    if not mesh.elements:
        if mesh.nodes:
            defects.append(
                MeshDefect("empty-mesh", (), "mesh has nodes but no elements")
            )
        return defects

    used: set[int] = set()
    edge_owner: dict[frozenset, int] = {}
    parent = list(range(len(mesh.elements)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for k, elem in enumerate(mesh.elements):
        used.update(elem.nodes)
        for u, v in ((elem.nodes[0], elem.nodes[1]),
                     (elem.nodes[1], elem.nodes[2]),
                     (elem.nodes[2], elem.nodes[0])):
            key = frozenset((u, v))
            if key in edge_owner:
                union(k, edge_owner[key])
            edge_owner[key] = k

    roots = {find(k) for k in range(len(mesh.elements))}
    if len(roots) > 1:
        reps = sorted(mesh.elements[find(k)].id for k in roots)
        defects.append(
            MeshDefect(
                "not-edge-connected",
                tuple(reps),
                f"elements split into {len(roots)} edge-connected components",
            )
        )
    isolated = sorted(known - used)
    if isolated:
        defects.append(
            MeshDefect("isolated-node", tuple(isolated), "node belongs to no element")
        )
    return defects


def save_mesh(mesh: Mesh, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write a mesh file; ``save_mesh`` then :func:`load_mesh` reproduces the
    mesh exactly."""
    lines = ["[nodes]"]
    lines += [f"{n.id} {n.x:.17g} {n.y:.17g}" for n in mesh.nodes]
    lines.append("[elements]")
    lines += [f"{e.id} {e.nodes[0]} {e.nodes[1]} {e.nodes[2]}" for e in mesh.elements]
    lines.append("[boundary]")
    lines += [str(n) for n in mesh.boundary_nodes]
    lines.append("[electrodes]")
    lines += [f"{el.id} {el.node}" for el in mesh.electrodes]
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
    to inspect a suspect mesh; :func:`load_mesh` does both)."""
    lines = read_lines(path, MeshFormatError)
    groups = sections(lines, _FIELDS, MeshFormatError)

    def records(name):
        fields = _FIELDS[name]
        kinds = (int, float, float) if name == "nodes" else (int,) * len(fields)
        for line_no, text in groups.get(name, ()):
            parts = text.split()
            if len(parts) != len(fields):
                raise MeshFormatError(
                    f"{name} line needs '{' '.join(fields)}', got {len(parts)} fields",
                    line_no=line_no,
                )
            yield [convert(p, k, line_no, f, MeshFormatError) for p, k, f in zip(parts, kinds, fields)]

    nodes = tuple(Node(*r) for r in records("nodes"))
    elements = tuple(Element(r[0], tuple(r[1:])) for r in records("elements"))
    boundary = tuple(r[0] for r in records("boundary"))
    electrodes = tuple(Electrode(*r) for r in records("electrodes"))
    missing = [f"[{name}]" for name in _FIELDS if name not in groups]
    if missing:
        raise MeshFormatError(
            f"file is truncated or incomplete: missing section(s) {', '.join(missing)}",
            line_no=len(lines),
        )
    return Mesh(nodes, elements, boundary, electrodes)

import hashlib
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitkit import (
    DimensionError,
    DomainError,
    Electrode,
    Element,
    Mesh,
    MeshFormatError,
    MeshValidationError,
    Node,
    SweepConfig,
    TissueModel,
    assemble,
    build_disk_mesh,
    element_areas,
    load_mesh,
    make_phantom,
    save_mesh,
    save_sweep_config,
    total_area,
    uniform_field,
    validate,
)
from eitkit.cli import main
from eitkit.mesh import MeshDefect, ValidationReport, parse_mesh_file


def expected_counts(refinement: int) -> tuple[int, int, int]:
    """Node/element/boundary counts from the stated construction rule:
    start at 9/8/8, each level quadruples triangles, doubles the boundary,
    and adds one node per edge (edges = (3 t + b) / 2)."""
    nodes, tris, boundary = 9, 8, 8
    for _ in range(refinement):
        nodes += (3 * tris + boundary) // 2
        tris *= 4
        boundary *= 2
    return nodes, tris, boundary


@pytest.mark.parametrize("refinement", [0, 1, 2, 3])
def test_disk_mesh_counts(refinement):
    mesh = build_disk_mesh(1.0, refinement)
    nodes, tris, boundary = expected_counts(refinement)
    assert mesh.n_nodes == nodes
    assert mesh.n_elements == tris
    assert len(mesh.boundary_nodes) == boundary


def test_disk_mesh_reference_counts():
    mesh0 = build_disk_mesh(1.0, 0)
    assert (mesh0.n_nodes, mesh0.n_elements, len(mesh0.boundary_nodes)) == (9, 8, 8)
    mesh1 = build_disk_mesh(1.0, 1)
    assert (mesh1.n_nodes, mesh1.n_elements, len(mesh1.boundary_nodes)) == (25, 32, 16)


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
def test_disk_mesh_rejects_bad_radius(bad):
    with pytest.raises(DomainError):
        build_disk_mesh(bad, 0)


def test_disk_mesh_rejects_bad_refinement_and_electrodes():
    with pytest.raises(DomainError):
        build_disk_mesh(1.0, -1)
    with pytest.raises(DomainError):
        build_disk_mesh(1.0, 0, n_electrodes=3)  # does not divide 8
    with pytest.raises(DomainError):
        build_disk_mesh(1.0, 0, n_electrodes=0)


def test_disk_mesh_checks_electrodes_before_refining():
    # 3 does not divide 8 * 2**40; refining that far would exhaust memory
    with pytest.raises(DomainError, match="n_electrodes"):
        build_disk_mesh(1.0, 40, n_electrodes=3)


@pytest.mark.parametrize(
    "args",
    [(True, 0), (1.0, True), (1.0, False), (1.0, 1, True)],
    ids=["radius", "refine", "refine-0", "electrodes"],
)
def test_disk_mesh_rejects_bool_arguments(args):
    with pytest.raises(DomainError):
        build_disk_mesh(*args)


def test_disk_mesh_accepts_numpy_integers():
    mesh = build_disk_mesh(1.0, np.int64(1), n_electrodes=np.int32(4))
    assert mesh == build_disk_mesh(1.0, 1, 4)
    assert all(type(el.id) is int and type(el.node) is int for el in mesh.electrodes)


def test_empty_mesh_has_no_area():
    mesh = Mesh((Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0)), (), (0, 1, 2), ())
    assert mesh.triangles.shape == (0, 3)
    assert element_areas(mesh).shape == (0,)
    assert total_area(mesh) == 0.0


@pytest.mark.parametrize("refinement", [0, 1, 2])
def test_all_elements_counterclockwise(refinement):
    mesh = build_disk_mesh(2.5, refinement)
    assert np.all(element_areas(mesh) > 0)


@pytest.mark.parametrize("radius", [1.0, 0.03, 40.0])
def test_disk_area_matches_inscribed_polygon(radius):
    # triangulated region is the inscribed regular polygon on the boundary
    # ring, whose area has a closed form
    for refinement in range(4):
        mesh = build_disk_mesh(radius, refinement)
        n_b = len(mesh.boundary_nodes)
        polygon = 0.5 * n_b * radius**2 * math.sin(2 * math.pi / n_b)
        assert total_area(mesh) == pytest.approx(polygon, rel=1e-12)


def test_disk_area_monotone_below_circle():
    areas = [total_area(build_disk_mesh(1.0, k)) for k in range(4)]
    assert all(a2 >= a1 for a1, a2 in zip(areas, areas[1:]))
    assert all(a <= math.pi + 1e-12 for a in areas)
    assert math.pi - areas[-1] < 0.01


def test_electrodes_on_boundary_evenly_spaced(disk_r1):
    boundary = set(disk_r1.boundary_nodes)
    nodes = [e.node for e in disk_r1.electrodes]
    assert len(disk_r1.electrodes) == 8
    assert len(set(nodes)) == len(nodes)
    assert all(n in boundary for n in nodes)
    positions = [disk_r1.boundary_nodes.index(n) for n in nodes]
    assert positions == [2 * k for k in range(8)]


def test_validate_clean_mesh(disk_r1):
    report = validate(disk_r1)
    assert report.ok
    assert str(report) == "OK"


def test_validate_reports_clockwise_element(triangle_mesh):
    flipped = Mesh(
        nodes=triangle_mesh.nodes,
        elements=(Element(0, (1, 3, 2)),),
        boundary_nodes=triangle_mesh.boundary_nodes,
        electrodes=triangle_mesh.electrodes,
    )
    report = validate(flipped)
    kinds = {d.kind: d for d in report.defects}
    assert "non-positive-area" in kinds
    assert 0 in kinds["non-positive-area"].ids


def test_validate_reports_interior_electrode(disk_r1):
    # node 0 is the disk center
    bad = Mesh(
        nodes=disk_r1.nodes,
        elements=disk_r1.elements,
        boundary_nodes=disk_r1.boundary_nodes,
        electrodes=disk_r1.electrodes + (Electrode(99, 0),),
    )
    report = validate(bad)
    kinds = {d.kind: d for d in report.defects}
    assert "electrode-not-on-boundary" in kinds
    assert 99 in kinds["electrode-not-on-boundary"].ids


def test_validate_reports_unknown_node_and_duplicates():
    mesh = Mesh(
        nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(1, 0.0, 1.0)),
        elements=(Element(0, (0, 1, 7)),),
        boundary_nodes=(0, 1),
        electrodes=(),
    )
    kinds = {d.kind for d in validate(mesh).defects}
    assert "duplicate-node-id" in kinds
    assert "unknown-node-reference" in kinds


def test_validate_reports_disconnected_components():
    mesh = Mesh(
        nodes=(
            Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0),
            Node(3, 5.0, 5.0), Node(4, 6.0, 5.0), Node(5, 5.0, 6.0),
        ),
        elements=(Element(0, (0, 1, 2)), Element(1, (3, 4, 5))),
        boundary_nodes=(0, 1, 2),
        electrodes=(),
    )
    kinds = {d.kind for d in validate(mesh).defects}
    assert "not-edge-connected" in kinds


def test_validate_reports_broken_boundary_loop(triangle_mesh):
    # loop order (1, 3, 2) still pairs along edges of the one triangle, so
    # break it with a node that shares no edge with its neighbors
    mesh = Mesh(
        nodes=triangle_mesh.nodes + (Node(4, 2.0, 2.0),),
        elements=triangle_mesh.elements,
        boundary_nodes=(1, 2, 4),
        electrodes=(),
    )
    kinds = {d.kind for d in validate(mesh).defects}
    assert "broken-boundary-loop" in kinds
    assert "isolated-node" in kinds


def test_save_load_round_trip(tmp_path, disk_r1):
    path = tmp_path / "disk.mesh"
    save_mesh(disk_r1, path)
    assert load_mesh(path) == disk_r1


def test_load_save_round_trip_on_irregular_coordinates(tmp_path):
    # 17 significant digits must reproduce doubles exactly
    mesh = build_disk_mesh(math.pi / 3, 2)
    path = tmp_path / "m.mesh"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert again == mesh
    save_mesh(again, tmp_path / "m2.mesh")
    assert (tmp_path / "m.mesh").read_text() == (tmp_path / "m2.mesh").read_text()


def test_load_truncated_file_is_format_error(tmp_path, disk_r1):
    path = tmp_path / "disk.mesh"
    save_mesh(disk_r1, path)
    text = path.read_text()
    truncated = text[: text.index("[electrodes]")]
    path.write_text(truncated)
    with pytest.raises(MeshFormatError, match="electrodes"):
        load_mesh(path)


def test_load_reports_line_context(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("[nodes]\n0 0.0 0.0\n1 oops 0.0\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert err.value.line_no == 3
    assert err.value.field == "x"


def test_load_rejects_ids_beyond_64_bits(tmp_path, triangle_mesh):
    path = tmp_path / "big.mesh"
    save_mesh(triangle_mesh, path)
    path.write_text(path.read_text().replace("\n2 1 0\n", f"\n{2**63} 1 0\n"))
    with pytest.raises(MeshFormatError, match="64-bit") as err:
        load_mesh(path)
    assert (err.value.line_no, err.value.field) == (3, "id")


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 1.5])
@pytest.mark.parametrize("field", ["node", "element", "electrode"])
def test_validate_rejects_ids_beyond_64_bits(triangle_mesh, field, big):
    nodes, elements, electrodes = triangle_mesh.nodes, triangle_mesh.elements, triangle_mesh.electrodes
    if field == "node":
        nodes += (Node(big, 2.0, 2.0),)
    elif field == "element":
        elements += (Element(big, (1, 2, 3)),)
    else:
        electrodes += (Electrode(big, 1),)
    with pytest.raises(DomainError, match="64-bit"):
        Mesh(nodes, elements, triangle_mesh.boundary_nodes, electrodes)


@pytest.mark.parametrize(
    "corners, count",
    [((1, 2), 2), ((1, 2, 3, 1), 4), ((), 0)],
    ids=["two-corners", "four-corners", "no-corners"],
)
def test_mesh_rejects_an_element_without_three_corners(triangle_mesh, corners, count):
    elements = triangle_mesh.elements + (Element(7, corners),)
    with pytest.raises(DimensionError) as err:
        Mesh(triangle_mesh.nodes, elements, triangle_mesh.boundary_nodes, triangle_mesh.electrodes)
    assert str(err.value) == f"element 7 has {count} corners, not 3"


@pytest.mark.parametrize("x", ["a", None, 1j, "1.5"])
def test_mesh_rejects_a_coordinate_that_is_not_a_real_number(triangle_mesh, x):
    nodes = triangle_mesh.nodes + (Node(4, x, 0.0),)
    with pytest.raises(DomainError, match="^mesh coordinates must be real numbers$"):
        Mesh(nodes, triangle_mesh.elements, triangle_mesh.boundary_nodes, triangle_mesh.electrodes)


def test_load_unknown_node_reference_is_validation_error(tmp_path, triangle_mesh):
    path = tmp_path / "bad.mesh"
    save_mesh(triangle_mesh, path)
    path.write_text(path.read_text().replace("0 1 2 3", "0 1 2 9"))
    with pytest.raises(MeshValidationError) as err:
        load_mesh(path)
    assert any(d.kind == "unknown-node-reference" for d in err.value.report.defects)


def test_load_rejects_clockwise_elements(tmp_path, triangle_mesh):
    path = tmp_path / "cw.mesh"
    save_mesh(triangle_mesh, path)
    path.write_text(path.read_text().replace("0 1 2 3", "0 1 3 2"))
    with pytest.raises(MeshValidationError) as err:
        load_mesh(path)
    assert any(d.kind == "non-positive-area" for d in err.value.report.defects)


def test_comments_are_ignored_on_load(tmp_path, disk_r1):
    path = tmp_path / "disk.mesh"
    save_mesh(disk_r1, path, header_lines=("made for a test", "second line"))
    assert load_mesh(path) == disk_r1


# ------------------------------------------------------ reference reader ----
# The per-line reader that the columnar one replaced, kept as the oracle:
# the same meshes, and on a bad file the same error class, message, line
# and field.


def reference_parse_mesh_file(path) -> Mesh:
    from eitkit.mesh import _FIELDS
    from eitkit.textio import convert, read_lines, sections

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
            row = [convert(p, k, line_no, f, MeshFormatError) for p, k, f in zip(parts, kinds, fields)]
            for value, k, f in zip(row, kinds, fields):
                if k is int and not -(2**63) <= value < 2**63:
                    raise MeshFormatError(
                        f"id {value} does not fit in a signed 64-bit integer", line_no=line_no, field=f
                    )
            yield row

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


# tokens that break an int or float field, or sit on the edge of one
BAD_TOKENS = [
    "x1", "1.5", "1e3", "1e", "0x1f", "nan", "-inf", "", "1_0", "_1", "1__0", "1_0.5",
    "\u0663", str(2**63), str(-(2**63)), str(-(2**63) - 1), str(2**63 - 1), "9" * 30,
]


def outcome(read, path):
    """``("mesh", repr)`` of what ``read`` returns, or ``("error", class,
    message, line, field)`` of the MeshFormatError it raises."""
    try:
        return ("mesh", repr(read(path)))
    except MeshFormatError as exc:
        return ("error", type(exc), str(exc), exc.line_no, exc.field)


mesh_ids = st.integers(-(2**63), 2**63 - 1)
coordinates = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    nodes=st.lists(st.tuples(mesh_ids, coordinates, coordinates), max_size=6),
    elements=st.lists(st.tuples(mesh_ids, mesh_ids, mesh_ids, mesh_ids), max_size=6),
    boundary=st.lists(mesh_ids, max_size=6),
    electrodes=st.lists(st.tuples(mesh_ids, mesh_ids), max_size=6),
    data=st.data(),
)
def test_parse_mesh_file_matches_the_per_line_reader(nodes, elements, boundary, electrodes, data):
    mesh = Mesh(
        tuple(Node(*n) for n in nodes),
        tuple(Element(e[0], e[1:]) for e in elements),
        tuple(boundary),
        tuple(Electrode(*e) for e in electrodes),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mesh"
        save_mesh(mesh, path, header_lines=("header",))
        lines = path.read_text().splitlines()
        records = [k for k, line in enumerate(lines) if line and line[0] not in "#["]
        # none, one or two corrupted lines: a token replaced, or one dropped or added
        corrupted = data.draw(st.lists(st.sampled_from(records), max_size=2)) if records else []
        for k in corrupted:
            tokens = lines[k].split()
            change = data.draw(st.sampled_from(["replace", "drop", "add"] if tokens else ["add"]))
            if change == "replace":
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(BAD_TOKENS))
            elif change == "drop":
                tokens.pop(data.draw(st.integers(0, len(tokens) - 1)))
            else:
                tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(BAD_TOKENS[:3])))
            lines[k] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        want = outcome(reference_parse_mesh_file, path)
        got = outcome(parse_mesh_file, path)
    assert got == want
    if not corrupted:
        assert want == ("mesh", repr(mesh))


@pytest.mark.parametrize(
    "text, line_no, field",
    [
        ("[nodes]\n0 0 0\n1 x 0\n2 0 y\n", 3, "x"),
        ("[nodes]\n0 0 0\n1 0\n2 0 y\n", 3, None),
        ("[nodes]\n0 0 0\n1 0 1_0\n" + str(2**63) + " 0 0\n", 4, "id"),
        ("[elements]\n0 1 2 x\n[nodes]\n0 0 0 0\n", 4, None),
        ("[nodes]\n0 0 0\n[electrodes]\n1 " + str(-(2**63) - 1) + "\n[boundary]\n1.5\n", 6, "node"),
    ],
    ids=["first-bad-float", "count-before-later-float", "range-after-underscore-literal",
         "nodes-section-first", "boundary-before-electrodes"],
)
def test_parse_mesh_file_names_the_first_bad_line(tmp_path, text, line_no, field):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        parse_mesh_file(path)
    assert (err.value.line_no, err.value.field) == (line_no, field)
    assert outcome(parse_mesh_file, path) == outcome(reference_parse_mesh_file, path)


# --------------------------------------------------- reference builder ----
# The per-triangle refinement that the array pass replaced, kept as the
# oracle: the new builder must give the same ids, bits and order.


def reference_build_disk_mesh(radius: float, refinement: int, n_electrodes: int = 8) -> Mesh:
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


@st.composite
def disk_arguments(draw) -> tuple[float, int, int]:
    refinement = draw(st.integers(0, 5))
    # the electrode counts that divide the 8 * 2**refinement boundary nodes
    n_electrodes = 2 ** draw(st.integers(0, refinement + 3))
    return draw(st.floats(1e-3, 1e3)), refinement, n_electrodes


@settings(max_examples=40, deadline=None)
@given(disk_arguments(), st.sampled_from([int, np.int64]))
def test_disk_mesh_matches_reference_builder(args, integer):
    radius, refinement, n_electrodes = args
    mesh = build_disk_mesh(radius, integer(refinement), integer(n_electrodes))
    expected = reference_build_disk_mesh(radius, refinement, n_electrodes)
    assert [(n.id, n.x, n.y) for n in mesh.nodes] == [(n.id, n.x, n.y) for n in expected.nodes]
    assert mesh.elements == expected.elements
    assert mesh.boundary_nodes == expected.boundary_nodes
    assert mesh.electrodes == expected.electrodes
    ids = [n.id for n in mesh.nodes] + [v for e in mesh.elements for v in (e.id, *e.nodes)]
    ids += list(mesh.boundary_nodes) + [v for el in mesh.electrodes for v in (el.id, el.node)]
    assert {type(v) for v in ids} == {int}
    assert {type(v) for n in mesh.nodes for v in (n.x, n.y)} == {float}


@pytest.mark.parametrize(
    "refinement, digest",
    [
        (0, "f1ef675a98d71829ec5161908f27c22119a161eadcccd12c452b2872e950d926"),
        (1, "15405d9ecd525d6f228131e8669086b29fd92029ed5d4f3440105457aa218483"),
        (2, "193d2fbf93ff0297f49b74740ac311560481851c269368ca87f2cbc0a9efabbf"),
        (3, "3a281424d2f994d608fc218e219d569ab92d97a531aaddc0cb6fcf2596282928"),
        (4, "93a3b3720110e3a5cdc22f88a62b367e34c639037ab5fa12e2b1d0dde2515d1c"),
        (5, "80b62f1ab162700da70078f18e69ff274b409ca4193c9f571d0344d211fac787"),
    ],
)
def test_disk_mesh_file_is_byte_stable(tmp_path, refinement, digest):
    path = tmp_path / "disk.mesh"
    save_mesh(build_disk_mesh(1.0, refinement), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ------------------------------------------------ reference validation ----
# The per-element validation that the array pass replaced, kept as the
# oracle. One edit: ``not-edge-connected`` names each component by its first
# element in mesh order (the loop named whichever element the union-find
# left as the root).


def reference_signed_area(p0, p1, p2) -> float:
    return 0.5 * (
        (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
    )


def reference_validate(mesh: Mesh) -> ValidationReport:
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
        area = reference_signed_area(a, b, c)
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

    defects.extend(reference_connectivity_defects(mesh, known))

    return ValidationReport(tuple(defects))


def reference_connectivity_defects(mesh: Mesh, known: set[int]) -> list[MeshDefect]:
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

    first: dict[int, int] = {}
    for k in range(len(mesh.elements)):
        first.setdefault(find(k), k)
    if len(first) > 1:
        reps = sorted(mesh.elements[k].id for k in first.values())
        defects.append(
            MeshDefect(
                "not-edge-connected",
                tuple(reps),
                f"elements split into {len(first)} edge-connected components",
            )
        )
    isolated = sorted(known - used)
    if isolated:
        defects.append(
            MeshDefect("isolated-node", tuple(isolated), "node belongs to no element")
        )
    return defects


@st.composite
def corrupted_disks(draw) -> Mesh:
    """A refine 0-2 disk with a random handful of defects."""
    disk = build_disk_mesh(1.0, draw(st.integers(0, 2)))
    nodes = [[n.id, n.x, n.y] for n in disk.nodes]
    elements = [[e.id, list(e.nodes)] for e in disk.elements]
    loop = list(disk.boundary_nodes)
    electrodes = [[el.id, el.node] for el in disk.electrodes]
    unknown_ids = st.integers(10_000, 10_003)  # few, so elements can share them

    def pick(items):
        return draw(st.integers(0, len(items) - 1)) if items else None

    for op in draw(st.lists(st.sampled_from(range(14)), min_size=1, max_size=5)):
        k = pick(nodes) if op in (0, 1) else None
        e = pick(elements) if op in (2, 3, 4, 5, 6) else None
        b = pick(loop) if op == 7 else None
        el = pick(electrodes) if op in (9, 10) else None
        if op == 0 and k is not None:  # duplicate node id, or a second node with an old id
            if draw(st.booleans()):
                nodes[k][0] = nodes[pick(nodes)][0]
            else:
                nodes.append([nodes[k][0], draw(st.floats(-1, 1)), draw(st.floats(-1, 1))])
        elif op == 1 and k is not None:
            nodes[k][draw(st.sampled_from([1, 2]))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif op == 2 and e is not None:  # flipped element
            nodes_e = elements[e][1]
            nodes_e[0], nodes_e[1] = nodes_e[1], nodes_e[0]
        elif op == 3 and e is not None:
            elements[e][1][draw(st.integers(0, 2))] = draw(unknown_ids)
        elif op == 4 and e is not None:  # repeated element node
            i, j = draw(st.permutations([0, 1, 2]))[:2]
            elements[e][1][i] = elements[e][1][j]
        elif op == 5 and e is not None:
            elements[e][0] = elements[pick(elements)][0]
        elif op == 6 and e is not None:  # drop elements, which can split the mesh
            del elements[e:e + draw(st.integers(1, 8))]
        elif op == 7 and b is not None:  # edit the boundary loop
            loop[b] = draw(st.one_of(st.sampled_from([n[0] for n in nodes]), unknown_ids))
        elif op == 8:  # shorten the boundary loop
            del loop[draw(st.integers(0, len(loop))):]
        elif op == 9 and el is not None:  # interior, unknown or shared electrode node
            electrodes[el][1] = draw(
                st.one_of(
                    st.sampled_from([n[0] for n in nodes] or [0]),
                    st.sampled_from([v for _, v in electrodes]),
                    unknown_ids,
                )
            )
        elif op == 10 and el is not None:
            electrodes[el][0] = electrodes[pick(electrodes)][0]
        elif op == 11:  # isolated node
            nodes.insert(pick(nodes) or 0, [draw(st.integers(20_000, 20_003)), 2.0, 2.0])
        elif op == 12:  # shuffle element order
            draw(st.randoms(use_true_random=False)).shuffle(elements)
        elif op == 13:  # negative or large ids
            shift = draw(st.sampled_from([-(2**40), -50, 2**40]))
            nodes = [[i + shift, x, y] for i, x, y in nodes]
            elements = [[i - shift, [v + shift for v in tri]] for i, tri in elements]
            loop = [v + shift for v in loop]
            electrodes = [[i + shift, v + shift] for i, v in electrodes]
    return Mesh(
        nodes=tuple(Node(*n) for n in nodes),
        elements=tuple(Element(i, tuple(tri)) for i, tri in elements),
        boundary_nodes=tuple(loop),
        electrodes=tuple(Electrode(*el) for el in electrodes),
    )


@settings(max_examples=300, deadline=None)
@given(corrupted_disks())
def test_validate_matches_reference_on_corrupted_disks(mesh):
    assert validate(mesh) == reference_validate(mesh)
    assert str(validate(mesh)) == str(reference_validate(mesh))


def reference_triangles(mesh: Mesh) -> np.ndarray:
    """The per-vertex dict lookup that ``Mesh.triangles`` replaced, shaped
    (n_elements, 3) also when there are no elements."""
    idx = {node.id: k for k, node in enumerate(mesh.nodes)}
    try:
        return np.array([[idx[n] for n in e.nodes] for e in mesh.elements], dtype=int).reshape(-1, 3)
    except KeyError:
        raise MeshValidationError(validate(mesh)) from None


@settings(max_examples=300, deadline=None)
@given(corrupted_disks())
@example(Mesh((Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0)), (), (0, 1, 2), ()))
def test_triangles_match_reference_on_corrupted_disks(mesh):
    try:
        expected = reference_triangles(mesh)
    except MeshValidationError as reference_error:
        with pytest.raises(MeshValidationError) as err:
            mesh.triangles
        assert err.value.report == reference_error.report == validate(mesh)
    else:
        assert mesh.triangles.shape == expected.shape
        assert np.array_equal(mesh.triangles, expected)


@pytest.mark.parametrize(
    "mesh",
    [
        Mesh((), (), (), ()),
        Mesh((Node(0, 0.0, 0.0), Node(1, 1.0, 0.0)), (), (0, 1), (Electrode(0, 0),)),
        Mesh(
            (),
            tuple(Element(k, tri) for k, tri in enumerate([(0, 1, 2), (2, 3, 4), (1, 2, 3), (5, 6, 7)])),
            (0, 1, 2),
            (),
        ),
        Mesh(
            (Node(-7, 0.0, 0.0), Node(2**40, 1.0, 0.0), Node(-(2**40), 0.0, 1.0)),
            (Element(-3, (-7, 2**40, -(2**40))), Element(2**40, (-7, -(2**40), 2**40))),
            (-7, 2**40, -(2**40)),
            (Electrode(-1, -7), Electrode(2**40, 2**40), Electrode(-2, -7)),
        ),
    ],
    ids=["no-nodes-no-elements", "no-elements", "elements-without-nodes", "negative-and-2**40-ids"],
)
def test_validate_matches_reference_on_fixed_cases(mesh):
    assert validate(mesh) == reference_validate(mesh)
    assert str(validate(mesh)) == str(reference_validate(mesh))


def test_validate_names_components_by_their_first_element():
    disk = build_disk_mesh(1.0, 0)
    # fan triangles 0 and 2 meet only through triangle 1, listed after both;
    # triangle 5 is a component of its own
    fan = [(30, 0), (20, 2), (40, 1), (10, 5)]
    elements = tuple(Element(eid, disk.elements[k].nodes) for eid, k in fan)
    mesh = Mesh(disk.nodes, elements, disk.boundary_nodes, disk.electrodes)
    (defect,) = [d for d in validate(mesh).defects if d.kind == "not-edge-connected"]
    assert defect.ids == (10, 30)
    assert defect.detail == "elements split into 2 edge-connected components"


def test_unknown_element_node_is_validation_error_everywhere(tmp_path, triangle_mesh):
    path = tmp_path / "bad.mesh"
    save_mesh(triangle_mesh, path)
    path.write_text(path.read_text().replace("0 1 2 3", "0 1 2 7"))
    for call in (element_areas, total_area, lambda m: make_phantom(m, 1.0, [])):
        mesh = parse_mesh_file(path)
        with pytest.raises(MeshValidationError) as err:
            call(mesh)
        assert err.value.report == validate(mesh)
        assert any(d.kind == "unknown-node-reference" for d in err.value.report.defects)


# ----------------------------------------------------------- records ----
# The frozen dataclass Mesh was before it held arrays, kept as the oracle for
# ``==`` and ``repr``: a mesh made from records gives them back unchanged.


@dataclass(frozen=True)
class RecordMesh:
    nodes: tuple
    elements: tuple
    boundary_nodes: tuple
    electrodes: tuple


record_meshes = st.tuples(
    st.lists(st.builds(Node, mesh_ids, coordinates, coordinates), max_size=6).map(tuple),
    st.lists(st.builds(Element, mesh_ids, st.tuples(mesh_ids, mesh_ids, mesh_ids)), max_size=6).map(tuple),
    st.lists(mesh_ids, max_size=6).map(tuple),
    st.lists(st.builds(Electrode, mesh_ids, mesh_ids), max_size=6).map(tuple),
)


def zeros_flipped(records):
    """The same records with every zero coordinate's sign flipped."""
    nodes, *rest = records
    return (tuple(Node(n.id, *(-v if v == 0 else v for v in (n.x, n.y))) for n in nodes), *rest)


def one_changed(records, data):
    """The same records with one node, element, loop or electrode entry dropped."""
    parts = list(records)
    filled = [k for k, part in enumerate(parts) if part]
    if filled:
        k = data.draw(st.sampled_from(filled))
        drop = data.draw(st.integers(0, len(parts[k]) - 1))
        parts[k] = parts[k][:drop] + parts[k][drop + 1:]
    return tuple(parts)


def test_a_negative_zero_coordinate_is_kept_and_equals_zero():
    records = ((Node(0, -0.0, 0.0), Node(1, 1.0, -0.0)), (Element(0, (0, 1, 1)),), (0, 1), (Electrode(0, 1),))
    mesh = Mesh(*records)
    assert repr(mesh) == repr(RecordMesh(*records)).replace("RecordMesh(", "Mesh(", 1)
    assert "x=-0.0" in repr(mesh) and "y=-0.0" in repr(mesh)
    assert mesh == Mesh(*zeros_flipped(records))
    assert RecordMesh(*records) == RecordMesh(*zeros_flipped(records))


@settings(max_examples=300, deadline=None)
@given(record_meshes, st.data())
def test_records_come_back_unchanged_and_compare_as_the_dataclass_did(records, data):
    mesh = Mesh(*records)
    assert (mesh.nodes, mesh.elements, mesh.boundary_nodes, mesh.electrodes) == records
    assert repr(mesh) == repr(RecordMesh(*records)).replace("RecordMesh(", "Mesh(", 1)
    assert repr(Mesh(*map(iter, records))) == repr(mesh)  # any iterable of records
    change = data.draw(st.sampled_from(["same", "zeros-flipped", "one-changed", "other"]))
    if change == "same":
        other = records
    elif change == "zeros-flipped":  # -0.0 == 0.0, for the dataclass too
        other = zeros_flipped(records)
    elif change == "one-changed":
        other = one_changed(records, data)
    else:
        other = data.draw(record_meshes)
    assert (mesh == Mesh(*other)) == (RecordMesh(*records) == RecordMesh(*other))
    assert mesh != RecordMesh(*records)
    with pytest.raises(TypeError):
        hash(mesh)


def test_no_node_or_element_record_is_made_from_build_to_reconstruction(tmp_path, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} record was made")

    monkeypatch.setattr(Node, "__init__", refuse)
    monkeypatch.setattr(Element, "__init__", refuse)
    path = tmp_path / "disk.mesh"
    save_mesh(build_disk_mesh(1.0, 1), path)
    mesh = load_mesh(path)
    assert validate(mesh).ok
    assemble(mesh, uniform_field(mesh, 1.0))
    n = mesh.n_nodes
    patterns = [np.eye(n)[k] - np.eye(n)[(k + 7) % n] for k in range(n)]
    config = SweepConfig((1000.0,), patterns, ground="rotate")
    save_sweep_config(config, TissueModel.dispersionless(np.ones(mesh.n_elements)), tmp_path / "sweep.cfg",
                      mesh=mesh)
    argv = ["reconstruct", "multifreq", "--mesh", str(path), "--sweep", str(tmp_path / "sweep.cfg"),
            "--out-sigma", str(tmp_path / "sigma.csv"), "--out-image", str(tmp_path / "sigma.pgm")]
    assert main(argv) == 0, capsys.readouterr().err
    assert len((tmp_path / "sigma.csv").read_text().splitlines()) >= mesh.n_elements + 1

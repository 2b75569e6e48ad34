"""The shared text layer: one place opens files, every reader turns any
malformed input into an EitError, and every writer round-trips exactly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import eitkit
from eitkit import (
    CandidateSet,
    CurrentPattern,
    DomainError,
    EitError,
    Electrode,
    Element,
    FormatError,
    Inclusion,
    MeasurementEnsemble,
    Mesh,
    MeshFormatError,
    Node,
    StackedSystem,
    SweepConfig,
    TissueModel,
    build_disk_mesh,
    load_candidates,
    load_ensemble,
    load_mesh,
    load_phantom_spec,
    load_stacked_system,
    load_sweep_config,
    make_phantom,
    parse_mesh_file,
    save_candidates,
    save_ensemble,
    save_mesh,
    save_phantom_spec,
    save_stacked_system,
    save_sweep_config,
)
from eitkit.cli import _load_config, _load_pattern_file, _load_sigma_csv, main

SRC = Path(eitkit.__file__).parent
MESH = build_disk_mesh(1.0, 0)
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

READERS = {
    "mesh": load_mesh,
    "sweep": lambda p: load_sweep_config(p, MESH),
    "stack": lambda p: load_stacked_system(p, p),
    "phantom": lambda p: load_phantom_spec(p, MESH),
    "ensemble": load_ensemble,
    "candidates": load_candidates,
    "cli-config": _load_config,
    "cli-sigma": lambda p: _load_sigma_csv(p, MESH),
    "cli-pattern": lambda p: _load_pattern_file(p, MESH),
}


def test_only_textio_opens_files():
    opened = [
        f"{path.name}:{no}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "textio.py"
        for no, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\bopen\(", line)
    ]
    assert opened == []


def test_import_loads_only_linalg_and_sparse_from_scipy():
    # a fresh interpreter: tests in this process may have loaded more of scipy
    probe = (
        "import sys, eitkit, eitkit.cli\n"
        "print(' '.join(sorted(name for name, mod in sys.modules.items()\n"
        "    if name.count('.') == 1 and name.startswith('scipy.')\n"
        "    and not name.startswith('scipy._') and hasattr(mod, '__path__'))))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout.split() == ["scipy.linalg", "scipy.sparse"]


@pytest.mark.parametrize("name", sorted(READERS))
def test_non_utf8_file_is_format_error(tmp_path, name):
    path = tmp_path / "binary"
    path.write_bytes(b"[nodes]\n\xff\xfe\x00\x81 1 2\n")
    expected = MeshFormatError if name == "mesh" else FormatError
    with pytest.raises(expected, match="not UTF-8"):
        READERS[name](path)


def test_mesh_validate_on_binary_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.mesh"
    path.write_bytes(bytes(range(256)))
    assert main(["mesh", "validate", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, line_no",
    [
        ("mesh", "[nodes]\n0 0 0\n[elements]\n[NODES]\n", 4),
        ("sweep", "[frequencies]\n10\n# gap\n[frequencies]\n20\n", 4),
        ("phantom", "[phantom]\nbackground = 1\n[phantom]\n", 3),
        ("cli-config", "seed = 1\n[demo]\nd = 2\n[Demo]\nd = 3\n", 4),
        ("cli-config", "seed = 1\n[global]\nseed = 2\n", 2),
    ],
)
def test_repeated_section_is_format_error(tmp_path, name, text, line_no):
    path = tmp_path / "repeated"
    path.write_text(text)
    with pytest.raises(FormatError, match="repeated") as err:
        READERS[name](path)
    assert err.value.line_no == line_no


@pytest.mark.parametrize(
    "text, key, line_no",
    [
        ("[mesh gen]\nrefine = 1\nrefine = 2\n", "refine", 3),
        ("seed = 1\n# again\nseed = 2\n", "seed", 3),
        ("[global]\nout = a\n[forward]\nout = b\nOut = c\n", "out", 5),
        ("[reconstruct svd]\ncumulant-index = 1\ncumulant_index = 2\n", "cumulant_index", 3),
    ],
)
def test_repeated_config_key_is_format_error(tmp_path, text, key, line_no):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"{key!r} repeated") as err:
        _load_config(path)
    assert err.value.line_no == line_no


SWEEP_HEAD = "[frequencies]\n10\n[patterns]\n0: 1, 4: -1\n"  # lines 1-4
SWEEP_MODEL = "[model]\nsigma0 = 1\nsigma_inf = 1\ntau = 0\n"  # lines 5-8


@pytest.mark.parametrize(
    "tail, key, line_no",
    [
        ("[model]\nsigma0 = 1\nsigma_inf = 1\nsigma0 = 2\ntau = 0\n", "sigma0", 8),
        (SWEEP_MODEL + "tau = 1e-3\n", "tau", 9),
        (SWEEP_MODEL + "element 3: 1 1 0\nelement 03: 2 1 0\n", 3, 10),
        (SWEEP_MODEL + "[sweep]\npairing = cross\npairing = zip\n", "pairing", 11),
        (SWEEP_MODEL + "[sweep]\nground = rotate\n# then\nground = 0\n", "ground", 12),
    ],
)
def test_repeated_sweep_key_is_format_error(tmp_path, tail, key, line_no):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_HEAD + tail)
    with pytest.raises(FormatError, match=f"{key!r} repeated") as err:
        load_sweep_config(path, MESH)
    assert err.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("[phantom]\nbackground = 1\nbackground = 2\n", 3),
        ("[phantom]\nbackground = 1\ninclusion = 0 0 0.5 2\nbackground = 1\n", 4),
    ],
)
def test_repeated_phantom_background_is_format_error(tmp_path, text, line_no):
    path = tmp_path / "phantom.spec"
    path.write_text(text)
    with pytest.raises(FormatError, match="'background' repeated") as err:
        load_phantom_spec(path, MESH)
    assert err.value.line_no == line_no


def test_at_line_reraises_a_check_error_as_a_format_error_at_the_line():
    from eitkit.textio import _at_line

    def positive(value):
        if not value > 0:
            raise DomainError(f"value must be positive, got {value!r}")
        return value

    assert _at_line(3, positive, 2.5) == 2.5
    with pytest.raises(FormatError) as err:
        _at_line(3, positive, -1.0)
    assert err.value.line_no == 3
    assert type(err.value.__cause__) is DomainError
    assert str(err.value) == "value must be positive, got -1.0 (line 3)"
    with pytest.raises(TypeError):  # only an EitError is given the line
        _at_line(3, positive, "x")


# ------------------------------------------------------------ fuzzing ----

TOKENS = [
    "[nodes]", "[elements]", "[boundary]", "[electrodes]", "[frequencies]", "[patterns]",
    "[model]", "[sweep]", "[phantom]", "[global]", "[demo]", "[mesh gen]", "[forward]", "[",
    "]", "#", ",", ":", "=", " ", "\n", "\n", "\r\n", "\t", "0", "1", "2", "7", "-1", "1.5",
    "-2.5e-3", "1e308", "1e999", "nan", "inf", "-0", "node", "element", "electrode,voltage",
    "y0", "y1", "y2", "M", "d", "eigenvalues", "label", "sigma_spread", "sigma0", "sigma_inf",
    "tau", "pairing", "ground", "rotate", "cross", "zip", "background", "inclusion", "seed",
    "refine", "\xff", "é",
]
token_soup = st.lists(st.sampled_from(TOKENS), max_size=60).map(lambda t: "".join(t).encode())
raw_bytes = st.binary(max_size=200)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(token_soup, raw_bytes))
def test_fuzzed_input_raises_only_eit_errors(tmp_path, name, data):
    path = tmp_path / "fuzz"
    path.write_bytes(data)
    try:
        READERS[name](path)
    except EitError:
        pass


# -------------------------------------------------------- round trips ----

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-150, max_value=1e150)
ids = st.integers(-(2**40), 2**40)


@SETTINGS
@given(
    nodes=st.lists(st.tuples(ids, finite, finite), min_size=1, max_size=8),
    elements=st.lists(st.tuples(ids, ids, ids, ids), max_size=8),
    boundary=st.lists(ids, max_size=8),
    electrodes=st.lists(st.tuples(ids, ids), max_size=8),
)
def test_mesh_round_trip(tmp_path, nodes, elements, boundary, electrodes):
    mesh = Mesh(
        tuple(Node(*n) for n in nodes),
        tuple(Element(e[0], e[1:]) for e in elements),
        tuple(boundary),
        tuple(Electrode(*e) for e in electrodes),
    )
    path = tmp_path / "m.mesh"
    save_mesh(mesh, path, header_lines=("header",))
    assert parse_mesh_file(path) == mesh


def relabel_nodes(mesh, ids):
    """``mesh`` with node k renamed ``ids[k]`` everywhere."""
    new = dict(zip((node.id for node in mesh.nodes), ids))
    return Mesh(
        tuple(Node(new[node.id], node.x, node.y) for node in mesh.nodes),
        tuple(Element(e.id, tuple(new[v] for v in e.nodes)) for e in mesh.elements),
        tuple(new[v] for v in mesh.boundary_nodes),
        tuple(Electrode(e.id, new[e.node]) for e in mesh.electrodes),
    )


@st.composite
def sweep_setups(draw):
    n, n_e = MESH.n_nodes, MESH.n_elements
    mesh = MESH
    if draw(st.booleans()):  # node ids that are not the row indices 0..n-1
        mesh = relabel_nodes(MESH, draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n,
                                                 unique=True)))
    electrodes = sorted(MESH.electrode_map)
    patterns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            a, b = draw(st.permutations(electrodes))[:2]
            amp = draw(st.floats(min_value=1e-6, max_value=10.0))
            patterns.append(CurrentPattern({a: amp, b: -amp}))
        else:
            a, b = draw(st.permutations(range(n)))[:2]
            amp = draw(st.floats(min_value=1e-6, max_value=10.0))
            vec = np.zeros(n)
            vec[a], vec[b] = amp, -amp
            patterns.append(vec)
    pairing = draw(st.sampled_from(["cross", "zip"]))
    n_freq = len(patterns) if pairing == "zip" else draw(st.integers(1, 4))
    freqs = draw(st.lists(positive, min_size=n_freq, max_size=n_freq, unique=True))
    ground = draw(st.one_of(st.just("rotate"), st.sampled_from([node.id for node in mesh.nodes])))
    size = n_e if draw(st.booleans()) else 1  # per-element or uniform tissue
    params = [positive, positive, st.floats(0.0, 1e3)]  # sigma0, sigma_inf, tau
    tissue = TissueModel(*(
        np.resize(draw(st.lists(p, min_size=size, max_size=size)), n_e) for p in params
    ))
    return mesh, SweepConfig(tuple(freqs), tuple(patterns), pairing, ground), tissue


@SETTINGS
@given(setup=sweep_setups())
def test_sweep_config_round_trip(tmp_path, setup):
    mesh, config, tissue = setup
    path = tmp_path / "sweep.cfg"
    save_sweep_config(config, tissue, path, header_lines=("header",), mesh=mesh)
    again, again_tissue = load_sweep_config(path, mesh)
    assert (again.frequencies, again.pairing, again.ground) == (
        config.frequencies, config.pairing, config.ground)
    assert len(again.patterns) == len(config.patterns)
    for got, want in zip(again.patterns, config.patterns):
        if isinstance(want, CurrentPattern):
            assert got.currents == want.currents
        else:
            assert_array_equal(got, want)
    for name in ("sigma0", "sigma_inf", "tau"):
        assert_array_equal(getattr(again_tissue, name), getattr(tissue, name))


def test_sweep_config_without_mesh_names_nodes_by_row(tmp_path):
    config = SweepConfig((1000.0,), (np.array([1.0, -1.0, 0.0]),), "cross", 1)
    path = tmp_path / "sweep.cfg"
    save_sweep_config(config, TissueModel.dispersionless(np.ones(1)), path)
    assert "node 0: 1, node 1: -1" in path.read_text().splitlines()
    mesh = Mesh(
        (Node(1, 0.0, 0.0), Node(2, 1.0, 0.0), Node(3, 0.0, 1.0)),
        (Element(0, (1, 2, 3)),),
        (1, 2, 3),
        (Electrode(0, 1), Electrode(1, 2), Electrode(2, 3)),
    )
    with pytest.raises(FormatError, match="unknown node 0"):
        load_sweep_config(path, mesh)
    save_sweep_config(config, TissueModel.dispersionless(np.ones(1)), path, mesh=mesh)
    assert "node 1: 1, node 2: -1" in path.read_text().splitlines()
    again, _ = load_sweep_config(path, mesh)
    assert_array_equal(again.patterns[0], [1.0, -1.0, 0.0])


def per_entry_pattern_line(pattern, node_ids):
    """The nodal-pattern writer that ``save_sweep_config``'s one
    ``np.flatnonzero`` pass replaced: a Python walk over every entry."""
    entries = [(int(k), float(v)) for k, v in enumerate(np.asarray(pattern)) if v != 0.0]
    return ", ".join(f"node {k if node_ids is None else node_ids[k]}: {v:.17g}" for k, v in entries)


def written_pattern_line(tmp_path, vector, mesh=None):
    path = tmp_path / "sweep.cfg"
    config = SweepConfig((1000.0,), (vector,), "cross", 1)
    save_sweep_config(config, TissueModel.dispersionless(np.ones(1)), path, mesh=mesh)
    lines = path.read_text().splitlines()
    return lines[lines.index("[patterns]") + 1]


@pytest.mark.parametrize(
    "vector",
    [
        np.array([1.0, -0.0, -1.0]),
        np.array([np.nan, 0.0, -0.0]),
        np.array([2, 0, -2]),
        np.array([5e-324, -1e-300, 0.1]),
        np.zeros(3),
    ],
    ids=["negative-zero", "nan", "integer", "tiny", "all-zero"],
)
def test_nodal_pattern_line_matches_the_per_entry_writer(tmp_path, vector):
    mesh = Mesh(
        (Node(7, 0.0, 0.0), Node(2, 1.0, 0.0), Node(3, 0.0, 1.0)),
        (Element(0, (7, 2, 3)),),
        (7, 2, 3),
        (Electrode(0, 7), Electrode(1, 2), Electrode(2, 3)),
    )
    assert written_pattern_line(tmp_path, vector) == per_entry_pattern_line(vector, None)
    assert written_pattern_line(tmp_path, vector, mesh) == per_entry_pattern_line(vector, [7, 2, 3])


@SETTINGS
@given(
    values=st.lists(st.sampled_from([0.0, -0.0, np.nan, 1.0, -2.5, 1e-310, 1 / 3]), min_size=1, max_size=40),
    integer=st.booleans(),
)
def test_nodal_pattern_lines_match_the_per_entry_writer_on_random_vectors(tmp_path, values, integer):
    vector = np.array(values)
    if integer:
        vector = np.nan_to_num(vector).astype(np.int64)
    assert written_pattern_line(tmp_path, vector) == per_entry_pattern_line(vector, None)


@SETTINGS
@given(
    background=positive,
    inclusions=st.lists(st.tuples(finite, finite, positive, st.floats(1e-6, 1e6)), max_size=4),
)
def test_phantom_spec_round_trip(tmp_path, background, inclusions):
    phantom = make_phantom(MESH, background, [Inclusion((x, y), r, c) for x, y, r, c in inclusions])
    path = tmp_path / "phantom.cfg"
    save_phantom_spec(phantom, path, header_lines=("header",))
    again = load_phantom_spec(path, MESH)
    assert again.background == phantom.background
    assert again.inclusions == phantom.inclusions


@SETTINGS
@given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 5))
def test_stacked_system_round_trip(tmp_path, data, n, k):
    Phi = np.array(data.draw(st.lists(finite, min_size=n * k, max_size=n * k))).reshape(n, k)
    F = np.array(data.draw(st.lists(st.integers(-1000, 1000), min_size=n * k, max_size=n * k)),
                 dtype=float).reshape(n, k)
    F[-1] -= F.sum(axis=0)  # integer-valued columns cancel exactly
    labels = tuple(data.draw(st.tuples(positive, st.integers(0, 99), st.integers(0, 99)))
                   for _ in range(k))
    stacked = StackedSystem(Phi=Phi, F=F, labels=labels, sigma_spread=data.draw(positive))
    phi_path, f_path = tmp_path / "phi.csv", tmp_path / "f.csv"
    save_stacked_system(stacked, phi_path, f_path)
    again = load_stacked_system(phi_path, f_path)
    assert_array_equal(again.Phi, Phi)
    assert_array_equal(again.F, F)
    assert again.labels == labels
    assert again.sigma_spread == stacked.sigma_spread


@SETTINGS
@given(data=st.data(), t=st.integers(2, 8), m=st.integers(1, 5))
def test_ensemble_round_trip(tmp_path, data, t, m):
    samples = np.array(data.draw(st.lists(finite, min_size=t * m, max_size=t * m))).reshape(t, m)
    path = tmp_path / "ens.csv"
    save_ensemble(MeasurementEnsemble(samples), path, header_lines=("header",))
    assert_array_equal(load_ensemble(path).samples, samples)
    assert b"\r" not in path.read_bytes()


@SETTINGS
@given(data=st.data(), m=st.integers(1, 5), d=st.integers(1, 3))
def test_candidate_set_round_trip(tmp_path, data, m, d):
    mats = tuple(
        np.array(data.draw(st.lists(finite, min_size=m * d, max_size=m * d))).reshape(m, d)
        for _ in range(d * d)
    )
    eigenvalues = np.array(data.draw(st.lists(finite, min_size=d * d, max_size=d * d)))
    cset = CandidateSet(candidates=mats, eigenvalues=eigenvalues, channel_count=m, rank=d,
                        null_count=int(np.count_nonzero(eigenvalues < 1e-8)))
    path = tmp_path / "cands.csv"
    save_candidates(cset, path, header_lines=("header",))
    again = load_candidates(path)
    assert (again.channel_count, again.rank, again.null_count) == (m, d, cset.null_count)
    assert_array_equal(again.eigenvalues, eigenvalues)
    for got, want in zip(again.candidates, mats, strict=True):
        assert_array_equal(got, want)

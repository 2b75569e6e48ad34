"""Every value type stores a given array by one rule: an array whose memory
belongs to an ndarray that eitkit froze, and that is still read-only, is
kept, and any other becomes a read-only copy, even a caller's read-only one,
so no later write can reach a stored value and the caller's own array is
never frozen. Every array eitkit makes for a value is frozen where it is
made, with the array that owns its memory. A value made again by pickle,
copy.copy or copy.deepcopy goes through the same constructor, so its arrays
are read-only too."""

import copy
import pickle

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eitkit import (
    ConductivityField,
    CorrelationMatrix,
    CumulantMatrixSet,
    MeasurementEnsemble,
    Phantom,
    ProjectorQ,
    CandidateSet,
    CurrentPattern,
    Mesh,
    RecoveredField,
    StackedSystem,
    StackSolveResult,
    SubspaceDecomposition,
    SweepConfig,
    TissueModel,
    VoltageSolution,
    apply_pattern,
    assemble,
    build_disk_mesh,
    build_projector,
    extract_candidates,
    fitting_residual,
    load_candidates,
    load_mesh,
    load_sweep_config,
    recover_conductivity,
    save_candidates,
    save_mesh,
    simulate_sweep,
    solve_forward,
    stack_solve,
    truncated_svd,
    uniform_field,
)
from eitkit.errors import _read_only

MESH = build_disk_mesh(1.0, 0)
TISSUE = {"sigma0": np.full(3, 2.0), "sigma_inf": np.ones(3), "tau": np.full(3, 1e-4)}
LOADS = np.array([[1.0, 0.0], [-1.0, 2.0], [0.0, -2.0]])  # each column sums to zero


Y = np.diag([9.0, 4.0, 1.0, 0.0])
SVD = truncated_svd(Y, 2)


def tissue(name):
    return lambda values: TissueModel(**{**TISSUE, name: values})


def decomposition(name):
    return lambda values: SubspaceDecomposition(
        **{**{n: getattr(SVD, n) for n in ("U", "sigma", "R", "G")}, name: values}, ill_conditioned=False
    )


def arrays(value, name):
    """The arrays of ``value``'s field that ``name`` ("Type.field", then
    any note) names: the field's array, or each array in a tuple field."""
    field = getattr(value, name.split(" ")[0].split(".")[1])
    return [entry for entry in field if isinstance(entry, np.ndarray)] if isinstance(field, tuple) else [field]


# field -> (the array it is given, a call that makes a value holding it in that field)
FIELDS = {
    "ConductivityField.values": (np.array([1.0, 2.0, 3.0]), ConductivityField),
    **{f"TissueModel.{name}": (values, tissue(name)) for name, values in TISSUE.items()},
    "StackedSystem.Phi": (np.arange(6.0).reshape(3, 2), lambda values: StackedSystem(values, LOADS, ())),
    "StackedSystem.F": (LOADS, lambda values: StackedSystem(np.ones((3, 2)), values, ())),
    "MeasurementEnsemble.samples": (np.arange(6.0).reshape(3, 2), MeasurementEnsemble),
    "CorrelationMatrix.matrix": (np.eye(2), lambda values: CorrelationMatrix(values, centered=False)),
    "CumulantMatrixSet.tensor": (np.arange(8.0).reshape(2, 2, 2), CumulantMatrixSet),
    "Phantom.sigma": (np.ones(MESH.n_elements), lambda values: Phantom(MESH, values, 1.0, (), ())),
    # Fortran-ordered, as truncated_svd gives R: a copy keeps the input's memory order
    "ProjectorQ.R": (np.eye(3)[:, :2].copy(order="F"), ProjectorQ),
    "StackSolveResult.S_hat": (np.eye(2), lambda values: StackSolveResult(values, 0.0, np.ones(2))),
    "StackSolveResult.phi_singular_values": (np.ones(2), lambda values: StackSolveResult(np.eye(2), 0.0, values)),
    "RecoveredField.sigma": (np.ones(3), lambda values: RecoveredField(values, (), 0.0, 1.0, 1.0)),
    **{f"SubspaceDecomposition.{name}": (getattr(SVD, name), decomposition(name)) for name in ("U", "sigma", "R", "G")},
    "CandidateSet.eigenvalues": (np.zeros(4), lambda values: CandidateSet((), values, 4, 2, 4)),
    "VoltageSolution.phi": (np.arange(3.0), lambda values: VoltageSolution(values, 0, 0.0)),
    "SweepConfig.patterns": (np.array([1.0, -1.0, 0.0]), lambda values: SweepConfig((1e3,), (values,))),
}


@pytest.mark.parametrize("given", ["writable", "read-only view of writable memory", "owned read-only"])
@pytest.mark.parametrize("field", FIELDS)
def test_value_types_own_their_arrays_by_one_rule(field, given):
    template, make = FIELDS[field]
    memory = template.copy(order="K")  # the caller's memory
    if given == "writable":
        values = memory
    elif given == "read-only view of writable memory":
        values = memory[...]
        values.setflags(write=False)
    else:
        memory.setflags(write=False)
        values = memory
    (stored,) = arrays(make(values), field)
    assert not stored.flags.writeable
    assert stored.flags.f_contiguous == template.flags.f_contiguous
    assert not np.shares_memory(stored, memory)  # copied, whatever the flags
    if given == "owned read-only":
        memory.setflags(write=True)  # its owner switches writing back on
    assert memory.flags.writeable  # the caller's array is not frozen
    memory.fill(-1.0)  # a later write to the caller's array, or through its base
    assert_array_equal(stored, template)


def test_an_array_the_float_conversion_made_is_frozen_not_copied_again():
    import tracemalloc

    ints = np.arange(10**6)
    tracemalloc.start()
    try:
        stored = _read_only(ints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stored.nbytes, peak / stored.nbytes  # a second copy made it 2
    assert not stored.flags.writeable
    assert ints.flags.writeable
    assert_array_equal(stored, ints)


def test_an_array_a_caller_hands_out_through_its_array_method_is_copied():
    class Holder:  # hands out its own float array
        def __init__(self):
            self.values = np.ones(3)

        def __array__(self, dtype=None, copy=None):
            return self.values

    holder = Holder()
    stored = _read_only(holder)
    assert holder.values.flags.writeable  # never frozen
    assert not np.shares_memory(stored, holder.values)
    assert not stored.flags.writeable


LAPLACIAN = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
PHI = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 1.0, -1.0], [3.0, 1.0, 0.0, 2.0]])  # full row rank


def candidates():
    return extract_candidates(build_projector(truncated_svd(Y, 2).R, 2), 4, 2)


def loaded_candidates(tmp_path):
    save_candidates(candidates(), tmp_path / "candidates.csv")
    return load_candidates(tmp_path / "candidates.csv")


def solution():
    system = assemble(MESH, uniform_field(MESH, 1.0))
    return solve_forward(apply_pattern(system, MESH, {0: 1.0, 4: -1.0}, MESH.nodes[0].id))


def sweep():
    config = SweepConfig((1e3,), (CurrentPattern({0: 1.0, 4: -1.0}),), ground=MESH.nodes[0].id)
    return simulate_sweep(MESH, TissueModel.dispersionless(np.ones(MESH.n_elements)), config)


def loaded_sweep(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("[frequencies]\n1000\n[patterns]\n0: 1, 4: -1\nnode 0: 1, node 1: -1\nnode 2: 2, 0: -2\n"
                    "[model]\nsigma0 = 1\nsigma_inf = 1\ntau = 0\n")
    return load_sweep_config(path, MESH)[0]


def loaded_mesh(tmp_path):
    save_mesh(MESH, tmp_path / "disk.mesh")
    return load_mesh(tmp_path / "disk.mesh")


# a mesh made by the builder, by the parser, from records, and made again by
# pickle (at every protocol) and by deepcopy
MESHES = {
    "build_disk_mesh": lambda tmp: build_disk_mesh(1.0, 1),
    "load_mesh": loaded_mesh,
    "records": lambda tmp: Mesh(MESH.nodes, MESH.elements, MESH.boundary_nodes, MESH.electrodes),
    **{f"pickle protocol {protocol}": (lambda tmp, protocol=protocol: pickle.loads(pickle.dumps(MESH, protocol)))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
    "deepcopy": lambda tmp: copy.deepcopy(MESH),
}
# result arrays -> a call that makes the value holding them; the loads L Phi cancel column by column
RESULTS = {
    **{f"SubspaceDecomposition.{name}": lambda tmp: truncated_svd(Y, 2) for name in ("U", "sigma", "R", "G")},
    "StackSolveResult.S_hat": lambda tmp: stack_solve(StackedSystem(PHI, LAPLACIAN @ PHI, ())),
    "StackSolveResult.phi_singular_values": lambda tmp: stack_solve(StackedSystem(PHI, LAPLACIAN @ PHI, ())),
    "RecoveredField.sigma": lambda tmp: recover_conductivity(assemble(MESH, uniform_field(MESH, 2.0)).S.toarray(), MESH),
    "CandidateSet.eigenvalues (extract_candidates)": lambda tmp: candidates(),
    "CandidateSet.eigenvalues (load_candidates)": loaded_candidates,
    "VoltageSolution.phi": lambda tmp: solution(),
    "ProjectorQ.Q": lambda tmp: build_projector(np.eye(3)[:, :1], 1),
    "StackedSystem.Phi (simulate_sweep)": lambda tmp: sweep(),
    "StackedSystem.F (simulate_sweep)": lambda tmp: sweep(),
    "SweepConfig.patterns (load_sweep_config)": loaded_sweep,
    **{f"Mesh.{name} ({source})": make
       for name in ("node_ids", "coords", "element_ids", "corners")
       for source, make in MESHES.items()},
}


@pytest.mark.parametrize("result", RESULTS)
def test_result_arrays_are_read_only(tmp_path, result):
    found = arrays(RESULTS[result](tmp_path), result)
    assert found
    for array in found:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 5.0


# views of a frozen owner -> a call that makes the value holding them: every
# result array is handed out as a view, so setflags(write=True) on it raises
# (the owner stays reachable through .base: the rule stops accidental writes)
VIEWS = {
    **RESULTS,
    "CandidateSet.candidates": lambda tmp: candidates(),
    "CandidateSet.candidates (load_candidates)": loaded_candidates,
}


@pytest.mark.parametrize("views", VIEWS)
def test_result_arrays_cannot_be_made_writable_again(tmp_path, views):
    found = arrays(VIEWS[views](tmp_path), views)
    assert found
    for array in found:
        with pytest.raises(ValueError):
            array.setflags(write=True)


def copies(value):
    """``value`` made again by pickle at every protocol, by copy.copy and by copy.deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [*pickled, copy.copy(value), copy.deepcopy(value)]


# value -> a call that makes it: one holding each caller's array of FIELDS,
# and every result value but a mesh, whose round trips MESHES makes
ROUND_TRIPS = {
    **{f"{name} (caller's)": (lambda tmp, template=template, make=make: make(template.copy(order="K")))
       for name, (template, make) in FIELDS.items()},
    **{name: make for name, make in VIEWS.items() if not name.startswith("Mesh.")},
}


@pytest.mark.parametrize("value", ROUND_TRIPS)
def test_a_pickled_or_copied_value_keeps_its_arrays_read_only(tmp_path, value):
    original = ROUND_TRIPS[value](tmp_path)
    before = arrays(original, value)  # a cached array (ProjectorQ.Q) is made before the copies
    assert before
    for remade in copies(original):
        for want, got in zip(before, arrays(remade, value), strict=True):
            with pytest.raises(ValueError):
                got.setflags(write=True)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_a_shallow_copy_is_the_value_itself_and_freezes_no_callers_array():
    given = np.ones(3)
    held = CandidateSet((given,), np.zeros(1), 3, 1, 1)  # its candidates are the caller's arrays
    assert copy.copy(held) is held
    assert given.flags.writeable  # the caller's array is not frozen
    field = ConductivityField(given)
    assert not np.shares_memory(field.values, given)
    given[0] = -1.0
    assert_array_equal(field.values, np.ones(3))


def test_a_remade_decomposition_keeps_its_fortran_ordered_R_uncopied():
    for remade in copies(truncated_svd(Y, 3)):
        assert remade.R.flags.f_contiguous
        assert build_projector(remade.R, 3).R is remade.R


def test_a_current_pattern_cannot_be_changed_after_its_check():
    pattern = CurrentPattern({0: 1.0, 4: -1.0})
    with pytest.raises(TypeError):
        pattern.currents[0] = 7.0  # the load would sum to 6 A
    assert pattern.currents == {0: 1.0, 4: -1.0}
    for remade in copies(pattern):
        assert remade == pattern
        with pytest.raises(TypeError):
            remade.currents[0] = 7.0


def test_a_decomposition_cannot_be_changed_behind_its_diagnostics():
    dec = truncated_svd(Y, 3)
    A = dec.R.copy()
    with pytest.raises(ValueError):
        dec.R[0, 0] = 5.0
    assert fitting_residual(A, dec) == 0.0
    assert build_projector(dec.R, 3).R is dec.R  # a view of an array eitkit froze is kept


@pytest.mark.parametrize("source", [name for name in MESHES if name.startswith(("pickle", "deepcopy"))])
def test_a_pickled_or_deep_copied_mesh_equals_the_original(tmp_path, source):
    mesh = MESHES[source](tmp_path)
    assert mesh == MESH
    assert repr(mesh) == repr(MESH)
    assert_array_equal(mesh.triangles, MESH.triangles)  # its cached views are made again
    for name in ("node_ids", "coords", "element_ids", "corners"):
        assert not np.shares_memory(getattr(mesh, name), getattr(MESH, name))

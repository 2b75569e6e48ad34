"""Every value type stores a given array by one rule: an array whose memory
belongs to an ndarray that eitkit froze, and that is still read-only, is
kept, and any other becomes a read-only copy, even a caller's read-only one,
so no later write can reach a stored value and the caller's own array is
never frozen. Every array a result type holds is made by eitkit and frozen
where it is made, with the array that owns its memory."""

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
    CurrentPattern,
    Mesh,
    StackedSystem,
    SweepConfig,
    TissueModel,
    apply_pattern,
    assemble,
    build_disk_mesh,
    build_projector,
    extract_candidates,
    fitting_residual,
    load_candidates,
    load_mesh,
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


def tissue_field(name):
    return lambda values: getattr(TissueModel(**{**TISSUE, name: values}), name)


# field -> (the array it is given, a call that stores it and reads the stored array back)
FIELDS = {
    "ConductivityField.values": (np.array([1.0, 2.0, 3.0]), lambda values: ConductivityField(values).values),
    **{f"TissueModel.{name}": (values, tissue_field(name)) for name, values in TISSUE.items()},
    "StackedSystem.Phi": (np.arange(6.0).reshape(3, 2), lambda values: StackedSystem(values, LOADS, ()).Phi),
    "StackedSystem.F": (LOADS, lambda values: StackedSystem(np.ones((3, 2)), values, ()).F),
    "MeasurementEnsemble.samples": (np.arange(6.0).reshape(3, 2), lambda values: MeasurementEnsemble(values).samples),
    "CorrelationMatrix.matrix": (np.eye(2), lambda values: CorrelationMatrix(values, centered=False).matrix),
    "CumulantMatrixSet.tensor": (np.arange(8.0).reshape(2, 2, 2), lambda values: CumulantMatrixSet(values).tensor),
    "Phantom.sigma": (np.ones(MESH.n_elements), lambda values: Phantom(MESH, values, 1.0, (), ()).sigma),
    # Fortran-ordered, as truncated_svd gives R: a copy keeps the input's memory order
    "ProjectorQ.R": (np.eye(3)[:, :2].copy(order="F"), lambda values: ProjectorQ(R=values).R),
}


@pytest.mark.parametrize("given", ["writable", "read-only view of writable memory", "owned read-only"])
@pytest.mark.parametrize("field", FIELDS)
def test_value_types_own_their_arrays_by_one_rule(field, given):
    template, store = FIELDS[field]
    memory = template.copy(order="K")  # the caller's memory
    if given == "writable":
        values = memory
    elif given == "read-only view of writable memory":
        values = memory[...]
        values.setflags(write=False)
    else:
        memory.setflags(write=False)
        values = memory
    stored = store(values)
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


Y = np.diag([9.0, 4.0, 1.0, 0.0])
LAPLACIAN = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
PHI = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 1.0, -1.0], [3.0, 1.0, 0.0, 2.0]])  # full row rank


def candidates():
    return extract_candidates(build_projector(truncated_svd(Y, 2).R, 2), 4, 2)


def loaded_candidates(tmp_path):
    save_candidates(candidates(), tmp_path / "candidates.csv")
    return load_candidates(tmp_path / "candidates.csv")


def potentials():
    system = assemble(MESH, uniform_field(MESH, 1.0))
    return solve_forward(apply_pattern(system, MESH, {0: 1.0, 4: -1.0}, MESH.nodes[0].id)).phi


def sweep():
    config = SweepConfig((1e3,), (CurrentPattern({0: 1.0, 4: -1.0}),), ground=MESH.nodes[0].id)
    return simulate_sweep(MESH, TissueModel.dispersionless(np.ones(MESH.n_elements)), config)


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
DECOMPOSITION = {f"SubspaceDecomposition.{name}": (lambda tmp, name=name: getattr(truncated_svd(Y, 2), name))
                 for name in ("U", "sigma", "R", "G")}
# result array -> a call that makes it; the loads L Phi cancel column by column
RESULTS = {
    **DECOMPOSITION,
    "StackSolveResult.S_hat": lambda tmp: stack_solve(StackedSystem(PHI, LAPLACIAN @ PHI, ())).S_hat,
    "StackSolveResult.phi_singular_values":
        lambda tmp: stack_solve(StackedSystem(PHI, LAPLACIAN @ PHI, ())).phi_singular_values,
    "RecoveredField.sigma":
        lambda tmp: recover_conductivity(assemble(MESH, uniform_field(MESH, 2.0)).S.toarray(), MESH).sigma,
    "CandidateSet.eigenvalues (extract_candidates)": lambda tmp: candidates().eigenvalues,
    "CandidateSet.eigenvalues (load_candidates)": lambda tmp: loaded_candidates(tmp).eigenvalues,
    "VoltageSolution.phi": lambda tmp: potentials(),
    "ProjectorQ.Q": lambda tmp: build_projector(np.eye(3)[:, :1], 1).Q,
    "StackedSystem.Phi (simulate_sweep)": lambda tmp: sweep().Phi,
    "StackedSystem.F (simulate_sweep)": lambda tmp: sweep().F,
    **{f"Mesh.{name} ({source})": (lambda tmp, name=name, make=make: getattr(make(tmp), name))
       for name in ("node_ids", "coords", "element_ids", "corners")
       for source, make in MESHES.items()},
}


@pytest.mark.parametrize("result", RESULTS)
def test_result_arrays_are_read_only(tmp_path, result):
    array = RESULTS[result](tmp_path)
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 5.0


# views of a frozen owner -> a call that makes them: every result array is
# handed out as a view, so no caller holds the owner that could switch
# writing back on
VIEWS = {
    **{name: (lambda tmp, make=make: [make(tmp)]) for name, make in RESULTS.items()},
    "CandidateSet.candidates": lambda tmp: candidates().candidates,
    "CandidateSet.candidates (load_candidates)": lambda tmp: loaded_candidates(tmp).candidates,
}


@pytest.mark.parametrize("views", VIEWS)
def test_result_arrays_cannot_be_made_writable_again(tmp_path, views):
    for array in VIEWS[views](tmp_path):
        with pytest.raises(ValueError):
            array.setflags(write=True)


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

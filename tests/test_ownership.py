"""Every value type stores a given array by one rule: an array whose memory
belongs to an ndarray that eitkit froze, and that is still read-only, is
kept, and any other becomes a read-only copy, even a caller's read-only one,
so no later write can reach a stored value and the caller's own array is
never frozen. Every array a result type holds is made by eitkit and frozen
where it is made, with the array that owns its memory."""

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
    StackedSystem,
    TissueModel,
    apply_pattern,
    assemble,
    build_disk_mesh,
    build_projector,
    extract_candidates,
    fitting_residual,
    load_candidates,
    recover_conductivity,
    save_candidates,
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
}


@pytest.mark.parametrize("result", RESULTS)
def test_result_arrays_are_read_only(tmp_path, result):
    array = RESULTS[result](tmp_path)
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 5.0


# views of a frozen owner -> a call that makes them
VIEWS = {
    **{name: (lambda get=get: [get(None)]) for name, get in DECOMPOSITION.items()},
    "CandidateSet.candidates": lambda: candidates().candidates,
}


@pytest.mark.parametrize("views", VIEWS)
def test_result_arrays_cannot_be_made_writable_again(views):
    for array in VIEWS[views]():
        with pytest.raises(ValueError):
            array.setflags(write=True)


def test_a_decomposition_cannot_be_changed_behind_its_diagnostics():
    dec = truncated_svd(Y, 3)
    A = dec.R.copy()
    with pytest.raises(ValueError):
        dec.R[0, 0] = 5.0
    assert fitting_residual(A, dec) == 0.0
    assert build_projector(dec.R, 3).R is dec.R  # a view of an array eitkit froze is kept

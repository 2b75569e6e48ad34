"""Every value type stores a caller's array by one rule: an array that is
read-only and whose memory belongs to a read-only ndarray is kept, and any
other becomes a read-only copy, so no later write can reach a stored value
and the caller's own array is never frozen."""

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
    build_disk_mesh,
)

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
    if given == "owned read-only":
        assert stored is values
        return
    assert memory.flags.writeable  # the caller's array is not frozen
    memory.fill(-1.0)  # a later write to the caller's array, or through its base
    assert_array_equal(stored, template)

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
import scipy.sparse.csgraph
from scipy.sparse import csc_array
from scipy.sparse.csgraph import reverse_cuthill_mckee

import eitkit.mesh
from eitkit import (
    CompatibilityError,
    ConductivityField,
    CurrentPattern,
    DimensionError,
    DomainError,
    Electrode,
    Element,
    ForwardFactorization,
    GeometryError,
    Mesh,
    MeshValidationError,
    Node,
    NumericalError,
    StiffnessSystem,
    UnknownElectrodeError,
    apply_pattern,
    assemble,
    build_disk_mesh,
    element_stiffness,
    measure,
    solve_forward,
    uniform_field,
    validate,
)

RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# hand integration of the linear shape-function gradients on the unit right
# triangle: K = 1/2 * [[2,-1,-1],[-1,1,0],[-1,0,1]]
RIGHT_TRIANGLE_K = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def test_element_stiffness_right_triangle_oracle():
    K = element_stiffness(RIGHT_TRIANGLE, 1.0)
    assert_allclose(K, RIGHT_TRIANGLE_K, rtol=0, atol=1e-15)


def test_element_stiffness_linear_in_sigma():
    K1 = element_stiffness(RIGHT_TRIANGLE, 1.0)
    K2 = element_stiffness(RIGHT_TRIANGLE, 2.0)
    assert_array_equal(K2, 2.0 * K1)


def test_element_stiffness_collinear_vertices():
    with pytest.raises(GeometryError) as err:
        element_stiffness([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 1.0)
    assert err.value.vertices is not None


def test_element_stiffness_orientation_independent():
    K = element_stiffness(RIGHT_TRIANGLE[[0, 2, 1]], 1.0)
    assert_allclose(K, RIGHT_TRIANGLE_K[np.ix_([0, 2, 1], [0, 2, 1])], atol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_element_stiffness_invariants(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(3, 2))
    K = element_stiffness(pts, rng.uniform(0.1, 10))
    assert_allclose(K, K.T, atol=1e-14)
    assert_allclose(K.sum(axis=1), 0.0, atol=1e-13)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-12 * max(1.0, w.max())


def test_element_stiffness_rejects_bad_sigma():
    with pytest.raises(DomainError):
        element_stiffness(RIGHT_TRIANGLE, 0.0)
    with pytest.raises(DomainError):
        element_stiffness(RIGHT_TRIANGLE, float("nan"))


def test_conductivity_field_validation():
    # the field knows no element ids, so it names the smallest value's row
    with pytest.raises(DomainError, match=r"^conductivity must be positive everywhere "
                       r"\(smallest value -1\.0 at row position 1\)$"):
        ConductivityField(np.array([1.0, -1.0, 0.5]))
    with pytest.raises(DomainError):
        ConductivityField(np.array([1.0, float("inf")]))
    field = ConductivityField(np.array([1.0, 2.0]))
    assert not field.values.flags.writeable


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
def test_uniform_field_names_the_value_not_an_element(disk_r1, value):
    with pytest.raises(DomainError) as err:
        uniform_field(disk_r1, value)
    assert str(err.value) == f"uniform conductivity must be positive and finite, got {value!r}"
    assert "element" not in str(err.value)


def test_current_pattern_validation():
    with pytest.raises(DomainError):
        CurrentPattern({0: 1.0})  # single nonzero entry
    with pytest.raises(DomainError):
        CurrentPattern({0: 0.0, 1: 0.0})
    with pytest.raises(CompatibilityError):
        CurrentPattern({0: 1.0, 1: -1.0 + 1e-3})
    CurrentPattern({0: 1.0, 1: -1.0})  # fine


def test_assemble_single_element_equals_local(triangle_mesh):
    system = assemble(triangle_mesh, ConductivityField(np.array([1.0])))
    assert_allclose(system.S.toarray(), RIGHT_TRIANGLE_K, atol=1e-15)
    assert_array_equal(system.F, np.zeros(3))
    assert system.ground_node is None


def test_assemble_linear_in_field(disk_r1):
    S1 = assemble(disk_r1, uniform_field(disk_r1, 1.0)).S.toarray()
    S2 = assemble(disk_r1, uniform_field(disk_r1, 2.0)).S.toarray()
    assert_array_equal(S2, 2.0 * S1)


def test_assemble_row_sums_vanish(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    S = system.S.toarray()
    assert np.max(np.abs(S.sum(axis=1))) <= 1e-12
    assert_allclose(S, S.T, atol=1e-12)


def test_assemble_positive_semidefinite_with_one_null_direction(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    S = system.S.toarray()
    w = np.linalg.eigvalsh(S)
    assert w[0] > -1e-12
    assert w[1] > 1e-10  # second eigenvalue bounded away: single null direction
    assert_allclose(S @ np.ones(disk_r1.n_nodes), 0.0, atol=1e-12)


def test_assemble_rejects_wrong_field_length(disk_r1):
    with pytest.raises(DimensionError):
        assemble(disk_r1, ConductivityField(np.ones(disk_r1.n_elements + 1)))


def test_apply_pattern_load_and_grounding(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    grounded = apply_pattern(system, disk_r1, CurrentPattern({0: 1.0, 4: -1.0}), ground_node=0)
    assert grounded.ground_node == 0
    assert np.count_nonzero(grounded.F) == 2
    # original system untouched (pure function)
    assert system.ground_node is None
    assert np.count_nonzero(system.F) == 0
    w = np.linalg.eigvalsh(grounded.S.toarray())
    assert w.min() > 0


def copy_and_setitem_ground(S, F, ground_pos):
    """Reference gauge: copy the CSC arrays, zero the ground row and column
    in the copy and set the diagonal with scipy's ``__setitem__``."""
    Sg = csc_array(S, copy=True)
    Fg = F.copy()
    Sg.data[Sg.indices == ground_pos] = 0.0
    Sg.data[Sg.indptr[ground_pos]:Sg.indptr[ground_pos + 1]] = 0.0
    Sg[ground_pos, ground_pos] = 1.0
    Fg[ground_pos] = 0.0
    return Sg, Fg


def test_ground_system_matches_copy_and_setitem_at_every_node(disk_r1):
    from eitkit.forward import ground_system

    rng = np.random.default_rng(8)
    S = assemble(disk_r1, rng.uniform(0.5, 3.0, size=disk_r1.n_elements)).S
    F = rng.standard_normal(disk_r1.n_nodes)
    before = [a.copy() for a in (S.data, S.indices, S.indptr, F)]
    for g in range(disk_r1.n_nodes):
        Sg, Fg = ground_system(S, F, g)
        want, want_F = copy_and_setitem_ground(S, F, g)
        for got, expected in ((Sg.data, want.data), (Sg.indices, want.indices), (Sg.indptr, want.indptr), (Fg, want_F)):
            assert_array_equal(got, expected)
        assert not np.shares_memory(Sg.data, S.data)
        assert Sg.nbytes == S.nbytes
    for array, saved in zip((S.data, S.indices, S.indptr, F), before):
        assert_array_equal(array, saved)


def test_a_pickled_stiffness_matrix_keeps_its_class_mesh_and_size(disk_r1):
    import pickle

    system = apply_pattern(assemble(disk_r1, uniform_field(disk_r1, 2.0)), disk_r1, {0: 1.0, 4: -1.0}, 0)
    for S in (assemble(disk_r1, uniform_field(disk_r1, 2.0)).S, system.S):
        copy = pickle.loads(pickle.dumps(S))
        assert type(copy) is type(S)
        assert copy.nbytes == S.nbytes
        assert copy.mesh.n_nodes == disk_r1.n_nodes
        for got, expected in ((copy.data, S.data), (copy.indices, S.indices), (copy.indptr, S.indptr)):
            assert_array_equal(got, expected)
    grounded = pickle.loads(pickle.dumps(system))
    assert_array_equal(ForwardFactorization(grounded).solve(grounded.F).phi,
                       ForwardFactorization(system).solve(system.F).phi)


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_ground_system_inserts_a_diagonal_the_matrix_does_not_store():
    from eitkit.forward import ground_system

    S = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    Sg, _ = ground_system(S, np.zeros(3), 2)
    assert_array_equal(Sg.toarray(), [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_assembly_plan_is_built_once_per_mesh_and_read_only():
    mesh = build_disk_mesh(1.0, 1)
    first = assemble(mesh, uniform_field(mesh, 1.0)).S
    plan = mesh._placement
    second = assemble(mesh, uniform_field(mesh, 2.0)).S
    assert mesh._placement is plan
    for array in plan:
        assert not array.flags.writeable
    # every assembly of the mesh shares the plan's index arrays
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    assert_array_equal(second.data, 2.0 * first.data)


def test_apply_pattern_rejects_unbalanced_raw_mapping(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    with pytest.raises(CompatibilityError):
        apply_pattern(system, disk_r1, {0: 1.0, 4: -1.0 + 1e-3}, ground_node=0)


def test_apply_pattern_unknown_electrode_and_ground(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    with pytest.raises(UnknownElectrodeError):
        apply_pattern(system, disk_r1, CurrentPattern({0: 1.0, 77: -1.0}), ground_node=0)
    with pytest.raises(DomainError):
        apply_pattern(system, disk_r1, CurrentPattern({0: 1.0, 4: -1.0}), ground_node=999)


def test_solve_zero_load_gives_zero_potential(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    grounded = apply_pattern(system, disk_r1, CurrentPattern({0: 1.0, 4: -1.0}), ground_node=0)
    grounded.F[:] = 0.0
    solution = solve_forward(grounded)
    assert_array_equal(solution.phi, np.zeros(disk_r1.n_nodes))


def test_solve_single_triangle_hand_oracle(triangle_mesh):
    # reduced 2x2 system solved by hand before the build:
    # K_red = [[1/2, 0], [0, 1/2]], F_red = [1, 0]  ->  phi = (0, 2, 0)
    system = assemble(triangle_mesh, ConductivityField(np.array([1.0])))
    grounded = apply_pattern(
        system, triangle_mesh, CurrentPattern({1: 1.0, 0: -1.0}), ground_node=1
    )
    solution = solve_forward(grounded)
    assert_allclose(solution.phi, [0.0, 2.0, 0.0], rtol=0, atol=1e-12)
    assert solution.phi[triangle_mesh.node_index[1]] == 0.0


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_solve_scaling_inverse_in_sigma(disk_r1, c):
    pattern = CurrentPattern({1: 1.0, 5: -1.0})
    base = solve_forward(
        apply_pattern(assemble(disk_r1, uniform_field(disk_r1, 1.0)), disk_r1, pattern, 0)
    )
    scaled = solve_forward(
        apply_pattern(assemble(disk_r1, uniform_field(disk_r1, c)), disk_r1, pattern, 0)
    )
    mask = np.abs(base.phi) > 1e-12
    assert np.max(np.abs(scaled.phi[mask] - base.phi[mask] / c) / np.abs(base.phi[mask] / c)) <= 1e-10


def test_solve_residual_bound(disk_r1):
    system = apply_pattern(
        assemble(disk_r1, uniform_field(disk_r1, 3.7)),
        disk_r1,
        CurrentPattern({2: 2.0, 6: -2.0}),
        ground_node=0,
    )
    solution = solve_forward(system)
    bound = 1e-9 * (1.0 + np.max(np.abs(system.F)))
    assert solution.residual_inf <= bound


def test_solve_requires_grounding(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    with pytest.raises(DomainError):
        solve_forward(system)


def test_solve_non_positive_definite_reports_pivot():
    bad = StiffnessSystem(S=np.diag([1.0, -1.0, 1.0]), F=np.zeros(3), ground_node=0)
    with pytest.raises(NumericalError) as err:
        solve_forward(bad)
    assert err.value.pivot_index == 2


def test_factorization_reused_across_loads(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    grounded = apply_pattern(system, disk_r1, CurrentPattern({0: 1.0, 4: -1.0}), 0)
    factor = ForwardFactorization(grounded)
    for pattern in ({0: 1.0, 4: -1.0}, {1: 2.0, 6: -2.0}, {2: 1.0, 3: 1.0, 5: -2.0}):
        sys_k = apply_pattern(system, disk_r1, CurrentPattern(pattern), 0)
        assert_allclose(factor.solve(sys_k.F).phi, solve_forward(sys_k).phi, atol=1e-14)


def test_block_solve_equals_per_column_solves(disk_r1):
    system = assemble(disk_r1, uniform_field(disk_r1, 1.3))
    loads = [
        apply_pattern(system, disk_r1, CurrentPattern(p), 0)
        for p in ({0: 1.0, 4: -1.0}, {1: 2.0, 6: -2.0}, {2: 1.0, 3: 1.0, 5: -2.0})
    ]
    factor = ForwardFactorization(loads[0])
    block = factor.solve(np.column_stack([g.F for g in loads]))
    singles = [factor.solve(g.F) for g in loads]
    assert block.phi.shape == (disk_r1.n_nodes, 3)
    assert_array_equal(block.phi, np.column_stack([s.phi for s in singles]))
    assert block.residual_inf == max(s.residual_inf for s in singles)


def test_block_solve_checks_each_column_against_its_own_bound(disk_r1):
    # a large column whose potential vanishes at node j and a small one that
    # does not; perturbing S[j, j] leaves the large column's residual at
    # zero and lifts the small one's above its own bound, though not above
    # the large column's
    system = assemble(disk_r1, uniform_field(disk_r1, 1.0))
    grounded = apply_pattern(system, disk_r1, CurrentPattern({0: 1.0, 4: -1.0}), 0)
    factor = ForwardFactorization(grounded)
    rng = np.random.default_rng(5)
    j = 3
    phi = rng.standard_normal((disk_r1.n_nodes, 2))
    phi[0] = 0.0  # the ground node
    phi[:, 0] *= 1e6
    phi[j] = (0.0, 1.0)
    F = grounded.S @ phi
    factor.solve(F)
    factor._S = factor._S + csc_array(([1e-6], ([j], [j])), shape=factor._S.shape)
    assert factor.solve(F[:, 0]).residual_inf <= 1e-9 * (1.0 + np.abs(F[:, 0]).max())
    with pytest.raises(NumericalError, match="exceeds bound"):
        factor.solve(F[:, 1])
    with pytest.raises(NumericalError, match="exceeds bound"):
        factor.solve(F)


def test_measure_zero_and_gauge_invariance(disk_r1, triangle_mesh):
    from eitkit import VoltageSolution

    zero = VoltageSolution(phi=np.zeros(disk_r1.n_nodes), ground_node=0, residual_inf=0.0)
    assert_array_equal(measure(zero, disk_r1, 0), np.zeros(7))

    rng = np.random.default_rng(0)
    phi = rng.standard_normal(disk_r1.n_nodes)
    a = VoltageSolution(phi=phi, ground_node=0, residual_inf=0.0)
    b = VoltageSolution(phi=phi + 17.5, ground_node=0, residual_inf=0.0)
    assert_allclose(measure(a, disk_r1, 3), measure(b, disk_r1, 3), atol=1e-12)


def test_measure_five_electrodes_gives_four_voltages():
    mesh = build_disk_mesh(1.0, 1, n_electrodes=4)
    # 4 electrodes -> 3 differential channels; widen to 5 via a custom check
    from eitkit import Electrode, Mesh, VoltageSolution

    five = Mesh(
        nodes=mesh.nodes,
        elements=mesh.elements,
        boundary_nodes=mesh.boundary_nodes,
        electrodes=tuple(Electrode(k, mesh.boundary_nodes[3 * k]) for k in range(5)),
    )
    phi = np.arange(five.n_nodes, dtype=float)
    out = measure(VoltageSolution(phi=phi, ground_node=0, residual_inf=0.0), five, 0)
    assert out.shape == (4,)


def test_measure_unknown_reference(disk_r1):
    from eitkit import VoltageSolution

    sol = VoltageSolution(phi=np.zeros(disk_r1.n_nodes), ground_node=0, residual_inf=0.0)
    with pytest.raises(UnknownElectrodeError):
        measure(sol, disk_r1, 42)


def _transfer(mesh, field, drive, sense, ground=0):
    pattern = CurrentPattern({drive[0]: 1.0, drive[1]: -1.0})
    system = apply_pattern(assemble(mesh, field), mesh, pattern, ground)
    phi = solve_forward(system).phi
    emap = mesh.electrode_map
    return (
        phi[mesh.node_index[emap[sense[0]]]] - phi[mesh.node_index[emap[sense[1]]]]
    )


@pytest.mark.parametrize("seed", range(5))
def test_reciprocity(seed):
    rng = np.random.default_rng(seed)
    mesh = build_disk_mesh(1.0, int(rng.integers(1, 3)))
    field = ConductivityField(rng.uniform(0.5, 5.0, size=mesh.n_elements))
    a, b, c, d = rng.choice(8, size=4, replace=False)
    v1 = _transfer(mesh, field, (a, b), (c, d))
    v2 = _transfer(mesh, field, (c, d), (a, b))
    assert abs(v1 - v2) <= 1e-9 * max(abs(v1), abs(v2))


@pytest.mark.parametrize("mesh_name", ["triangle_mesh", "square_mesh"])
def test_brute_force_oracle_small_meshes(mesh_name, request):
    # independent dense-inverse oracle on meshes with <= 4 nodes
    mesh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(11)
    ids = sorted(mesh.electrode_map)
    for _ in range(6):
        field = ConductivityField(rng.uniform(0.2, 4.0, size=mesh.n_elements))
        drive = rng.choice(ids, size=2, replace=False)
        pattern = CurrentPattern({int(drive[0]): 1.0, int(drive[1]): -1.0})
        ground = mesh.nodes[int(rng.integers(mesh.n_nodes))].id
        system = apply_pattern(assemble(mesh, field), mesh, pattern, ground)
        phi = solve_forward(system).phi
        oracle = np.linalg.inv(system.S.toarray()) @ system.F
        assert np.max(np.abs(phi - oracle)) <= 1e-12


def loop_assemble(mesh, sigma):
    """Reference assembly: one element_stiffness call per element, added
    into a dense n x n matrix."""
    S = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for e, idx in enumerate(mesh.triangles):
        Ke = element_stiffness(mesh.coords[idx], sigma[e], scale=mesh.bounding_box_diagonal)
        S[np.ix_(idx, idx)] += Ke
    return S


def jittered_disk(refine, rng):
    """Disk mesh with every interior node moved by up to 5% of the
    refinement's edge length in each coordinate; boundary nodes stay."""
    mesh = build_disk_mesh(1.0, refine)
    boundary = set(mesh.boundary_nodes)
    amplitude = 0.05 * 0.5**refine
    nodes = tuple(
        node if node.id in boundary
        else Node(node.id, node.x + amplitude * rng.uniform(-1, 1), node.y + amplitude * rng.uniform(-1, 1))
        for node in mesh.nodes
    )
    return Mesh(nodes, mesh.elements, mesh.boundary_nodes, mesh.electrodes)


@settings(max_examples=30, deadline=None)
@given(refine=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_kernel_assembly_matches_element_loop(refine, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_disk(refine, rng)
    assert validate(mesh).ok
    sigma = rng.uniform(0.1, 10.0, mesh.n_elements)
    other = rng.uniform(0.1, 10.0, mesh.n_elements)
    S = assemble(mesh, sigma).S.toarray()
    oracle = loop_assemble(mesh, sigma)
    scale = np.abs(oracle).max()
    assert np.abs(S - oracle).max() <= 1e-13 * scale
    assert_array_equal(S, S.T)
    assert np.abs(S.sum(axis=1)).max() <= 1e-12
    combined = assemble(mesh, 0.3 * sigma + 1.7 * other).S.toarray()
    expected = 0.3 * S + 1.7 * assemble(mesh, other).S.toarray()
    assert np.abs(combined - expected).max() <= 1e-13 * np.abs(expected).max()

    # banded Cholesky against a dense solve of the same grounded matrix
    a, b = (int(v) for v in rng.choice(8, size=2, replace=False))
    ground = mesh.nodes[int(rng.integers(mesh.n_nodes))].id
    grounded = apply_pattern(assemble(mesh, sigma), mesh, CurrentPattern({a: 1.0, b: -1.0}), ground)
    phi = solve_forward(grounded).phi
    dense = np.linalg.solve(grounded.S.toarray(), grounded.F)
    assert np.abs(phi - dense).max() <= 1e-12 * np.abs(dense).max()

    # positive semidefinite with the constants as its only null direction
    w = np.linalg.eigvalsh(S)
    assert w[0] >= -1e-12 * w[-1]
    assert w[1] > 1e-10 * w[-1]
    # reciprocity: driving ab and sensing cd reads what driving cd and sensing ab does
    a, b, c, d = (int(v) for v in rng.choice(8, size=4, replace=False))
    v1 = _transfer(mesh, sigma, (a, b), (c, d), ground)
    v2 = _transfer(mesh, sigma, (c, d), (a, b), ground)
    assert abs(v1 - v2) <= 1e-9 * max(abs(v1), abs(v2))


def test_assemble_rejects_sliver_that_passes_validation():
    # slivers over the hypotenuse (element 1) and the left edge (element 2):
    # areas 5e-16 are positive but far below 1e-14 * diag**2 = 2e-14
    delta = 1e-15
    mesh = Mesh(
        nodes=(
            Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0),
            Node(3, 0.5, 0.5 + delta), Node(4, -delta, 0.5),
        ),
        elements=(Element(0, (0, 1, 2)), Element(1, (1, 3, 2)), Element(2, (2, 4, 0))),
        boundary_nodes=(0, 1, 3, 2, 4),
        electrodes=(Electrode(0, 0), Electrode(1, 1), Electrode(2, 2)),
    )
    assert validate(mesh).ok
    with pytest.raises(GeometryError) as oracle:
        loop_assemble(mesh, np.ones(3))
    for _ in range(2):  # a failed geometry plan is not cached: every call raises
        with pytest.raises(GeometryError) as err:
            assemble(mesh, np.ones(3))
        assert err.value.vertices == oracle.value.vertices == [(1.0, 0.0), (0.5, 0.5 + delta), (0.0, 1.0)]


def test_non_positive_definite_pivot_names_original_row():
    # weighted path graph in scrambled node order, diagonally dominant, with
    # one diagonal entry made negative
    rng = np.random.default_rng(5)
    n = 12
    order = rng.permutation(n)
    S = np.zeros((n, n))
    for u, v in zip(order[:-1], order[1:]):
        S[u, v] = S[v, u] = -1.0
    S += np.diag(3.0 + np.abs(S).sum(axis=1))
    bad = int(order[5])
    S[bad, bad] = -1.0
    perm = reverse_cuthill_mckee(csc_array(S), symmetric_mode=True)
    position = int(np.flatnonzero(perm == bad)[0])
    assert position not in (0, bad)
    with pytest.raises(NumericalError) as err:
        ForwardFactorization(StiffnessSystem(S=S, F=np.zeros(n), ground_node=0))
    assert err.value.pivot_index == bad + 1


def test_refine_5_sweep_residual_and_reciprocity():
    mesh = build_disk_mesh(1.0, 5, n_electrodes=16)
    assert mesh.n_nodes == 4225
    rng = np.random.default_rng(45)
    system = assemble(mesh, rng.uniform(0.5, 5.0, mesh.n_elements))
    assert system.S.nnz == 29057
    ids = sorted(mesh.electrode_map)
    rows = [mesh.node_index[mesh.electrode_map[e]] for e in ids]
    factor = None
    transfer = np.zeros((16, 16))
    for k in range(16):
        pattern = CurrentPattern({ids[k]: 1.0, ids[(k + 1) % 16]: -1.0})
        grounded = apply_pattern(system, mesh, pattern, ground_node=0)
        if factor is None:
            factor = ForwardFactorization(grounded)
        solution = factor.solve(grounded.F)
        assert solution.residual_inf <= 1e-9 * (1.0 + np.abs(grounded.F).max())
        phi = solution.phi[rows]
        transfer[k] = phi - np.roll(phi, -1)  # adjacent measurement pairs
    assert np.abs(transfer - transfer.T).max() <= 1e-9 * np.abs(transfer).max()


def test_assemble_validates_each_mesh_once(monkeypatch):
    calls = []
    check = eitkit.mesh._check_invariants

    def counting(mesh):
        calls.append(mesh)
        return check(mesh)

    monkeypatch.setattr(eitkit.mesh, "_check_invariants", counting)
    mesh = build_disk_mesh(1.0, 1)
    assemble(mesh, uniform_field(mesh, 1.0))
    assemble(mesh, uniform_field(mesh, 2.0))
    assert len(calls) == 1

    broken = Mesh(
        nodes=mesh.nodes,
        elements=(Element(0, tuple(reversed(mesh.elements[0].nodes))),) + mesh.elements[1:],
        boundary_nodes=mesh.boundary_nodes,
        electrodes=mesh.electrodes,
    )
    for _ in range(2):
        with pytest.raises(MeshValidationError):
            assemble(broken, uniform_field(broken, 1.0))
    assert len(calls) == 2


# ------------------------------------------------------ per-mesh plans ----


def oracle_local_stiffness(pts, sigma, scale):
    """The element kernel before the geometry was cached on the mesh."""
    x, y = pts[..., 0], pts[..., 1]
    area = 0.5 * np.abs(
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    threshold = 1e-14 * scale * scale
    bad = ~(area > threshold)
    if bad.any():
        e = int(np.argmax(bad))
        raise GeometryError("degenerate triangle", vertices=[tuple(p) for p in pts[e]])
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    outer = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    return (sigma / (4.0 * area))[:, None, None] * outer


def oracle_assemble(mesh, sigma):
    """``assemble`` before it read the cached geometry: every local matrix
    computed, then summed along the placement order."""
    n = mesh.n_nodes
    local = oracle_local_stiffness(mesh.coords[mesh.triangles], sigma, mesh.bounding_box_diagonal)
    order, first, rows, indptr, _ = mesh._placement
    data = np.add.reduceat(local.ravel()[order], first)
    return csc_array((data, rows, indptr), shape=(n, n))


def oracle_ground_system(S, F, ground_pos):
    """``ground_system`` with a keep mask and ``np.where``."""
    S = csc_array(S)
    start, stop = S.indptr[ground_pos], S.indptr[ground_pos + 1]
    keep = S.indices != ground_pos
    keep[start:stop] = False
    Sg = csc_array((np.where(keep, S.data, 0.0), S.indices, S.indptr), shape=S.shape)
    diagonal = start + np.flatnonzero(S.indices[start:stop] == ground_pos)
    if diagonal.size == 1:
        Sg.data[diagonal] = 1.0
    else:
        Sg = csc_array(Sg, copy=True)
        Sg[ground_pos, ground_pos] = 1.0
    Fg = F.copy()
    Fg[ground_pos] = 0.0
    return Sg, Fg


def oracle_depth(perm, S):
    """Band depth of ``S`` permuted by ``perm``: one more than its largest
    row-column distance."""
    inverse = np.argsort(perm)
    coo = csc_array(S).tocoo()
    return int(np.abs(inverse[coo.row] - inverse[coo.col]).max(initial=0)) + 1


def oracle_front_order(mesh):
    """Breadth-first node order from the first fifth of the boundary loop,
    by a queue over each node's neighbours in the element list: the loop
    nodes in loop order, then each node's unvisited neighbours in row order."""
    neighbours = [set() for _ in range(mesh.n_nodes)]
    for corners in mesh.triangles.tolist():
        for a in corners:
            neighbours[a].update(corners)
    loop = [mesh.node_index[v] for v in mesh.boundary_nodes]
    order, queue = [], deque(dict.fromkeys(loop[:round(len(loop) / 5)]))
    seen = set(queue)
    while queue:
        a = queue.popleft()
        order.append(a)
        fresh = sorted(neighbours[a] - seen)
        seen.update(fresh)
        queue.extend(fresh)
    return np.array(order, dtype=np.int32)


def oracle_order(S, mesh=None):
    """The band order: reverse Cuthill-McKee, or on a mesh's pattern the
    front order when it covers every node and is strictly shallower."""
    rcm = reverse_cuthill_mckee(csc_array(S), symmetric_mode=True)
    if mesh is None:
        return rcm
    front = oracle_front_order(mesh)
    return front if front.size == rcm.size and oracle_depth(front, S) < oracle_depth(rcm, S) else rcm


def oracle_factor(S, mesh=None):
    """``ForwardFactorization.__init__`` with the band order (see
    :func:`oracle_order`), the COO conversion and the band scatter run on
    every call: ``(perm, factor)``."""
    from scipy.linalg import lapack

    S = csc_array(S, dtype=float, copy=True)
    S.sum_duplicates()
    perm = oracle_order(S, mesh)
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
        pivot = int(perm[info - 1]) + 1 if info > 0 else int(info)
        raise NumericalError("not positive definite", pivot_index=pivot)
    return perm, factor


def oracle_solve(perm, factor, F):
    from scipy.linalg import lapack

    x, info = lapack.dpbtrs(factor, F[perm], lower=1)
    assert info == 0
    phi = np.empty_like(x)
    phi[perm] = x
    return phi


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(refine=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_planned_forward_layer_matches_the_unplanned_oracle_bitwise(refine, seed):
    from eitkit.forward import ground_system

    rng = np.random.default_rng(seed)
    mesh = build_disk_mesh(1.0, refine)
    sigma = rng.uniform(0.1, 10.0, mesh.n_elements)
    S = assemble(mesh, sigma).S
    want = oracle_assemble(mesh, sigma)
    assert_same_bits(S.data, want.data)
    for _ in range(2):  # a second ground reuses the plans of the first
        g = int(rng.integers(mesh.n_nodes))
        F = rng.standard_normal(mesh.n_nodes)
        F -= F.mean()
        Sg, Fg = ground_system(S, F, g)
        want_g, want_F = oracle_ground_system(want, F, g)
        assert_same_bits(Sg.data, want_g.data)
        assert_same_bits(Fg, want_F)
        factor = ForwardFactorization(StiffnessSystem(S=Sg, F=Fg, ground_node=mesh.nodes[g].id))
        perm, want_factor = oracle_factor(want_g, mesh)
        assert_same_bits(factor._perm, perm)
        assert_same_bits(factor._factor, want_factor)
        assert_same_bits(factor.solve(Fg).phi, oracle_solve(perm, want_factor, Fg))


def test_planned_factorization_reports_the_oracle_pivot():
    from eitkit.forward import ground_system

    mesh = build_disk_mesh(1.0, 2)
    S = assemble(mesh, np.random.default_rng(3).uniform(0.5, 2.0, mesh.n_elements)).S
    Sg, Fg = ground_system(S, np.zeros(mesh.n_nodes), 0)
    k = Sg.indptr[40] + int(np.flatnonzero(Sg.indices[Sg.indptr[40]:Sg.indptr[41]] == 40)[0])
    Sg.data[k] = -1.0  # node 40's diagonal; the index arrays stay the mesh's
    with pytest.raises(NumericalError) as want:
        oracle_factor(Sg, mesh)
    with pytest.raises(NumericalError) as err:
        ForwardFactorization(StiffnessSystem(S=Sg, F=Fg, ground_node=0))
    assert err.value.pivot_index == want.value.pivot_index


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call. eitkit
    imports each scipy routine in the function that calls it, so a
    ``scipy.sparse.csgraph`` routine is counted where it is defined."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_band_plan_is_computed_once_per_mesh(monkeypatch):
    calls = counting(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
    fronts = counting(monkeypatch, scipy.sparse.csgraph, "breadth_first_order")
    mesh = build_disk_mesh(1.0, 2)
    for value in (1.0, 2.5):
        system = assemble(mesh, uniform_field(mesh, value))
        for ground in (0, 7, 40):
            grounded = apply_pattern(system, mesh, CurrentPattern({0: 1.0, 4: -1.0}), ground)
            assert np.shares_memory(grounded.S.indices, mesh._placement[2])
            ForwardFactorization(grounded).solve(grounded.F)
    assert len(calls) == len(fronts) == 1
    # the plan follows the pattern, not the arrays that hold it
    grounded.S.indices = grounded.S.indices.copy()
    phi = ForwardFactorization(grounded).solve(grounded.F).phi
    assert len(calls) == len(fronts) == 1
    fresh = apply_pattern(system, mesh, CurrentPattern({0: 1.0, 4: -1.0}), 40)
    assert_array_equal(phi, ForwardFactorization(fresh).solve(fresh.F).phi)
    perm, slots, positions, depth = mesh._band
    assert mesh._band[0] is perm
    assert_same_bits(perm, oracle_order(system.S, mesh))
    assert_same_bits(perm, oracle_front_order(mesh))
    assert depth == oracle_depth(perm, system.S) == 15
    for array in (perm, slots, positions):
        assert not array.flags.writeable


@settings(max_examples=30, deadline=None)
@given(refine=st.integers(0, 5), data=st.data())
def test_band_plan_is_a_permutation_no_deeper_than_reverse_cuthill_mckee(refine, data):
    n_boundary = 8 * 2**refine
    n_electrodes = data.draw(st.sampled_from([k for k in (1, 2, 4, 8, 16, 32) if n_boundary % k == 0]))
    mesh = build_disk_mesh(1.0, refine, n_electrodes=n_electrodes)
    perm, _, _, depth = mesh._band
    assert_array_equal(np.sort(perm), np.arange(mesh.n_nodes))
    S = assemble(mesh, uniform_field(mesh, 1.0)).S
    assert depth == oracle_depth(perm, S) <= oracle_depth(reverse_cuthill_mckee(S, symmetric_mode=True), S)


# refine -> (front order depth, reverse Cuthill-McKee depth, planned depth)
DISK_DEPTHS = {0: (7, 6, 6), 3: (24, 34, 24), 4: (43, 66, 43), 5: (82, 130, 82)}


@pytest.mark.parametrize("refine", sorted(DISK_DEPTHS))
def test_disk_band_depths(refine):
    mesh = build_disk_mesh(1.0, refine)
    S = assemble(mesh, uniform_field(mesh, 1.0)).S
    front, rcm = oracle_front_order(mesh), reverse_cuthill_mckee(S, symmetric_mode=True)
    depths = (oracle_depth(front, S), oracle_depth(rcm, S), mesh._band[3])
    assert depths == DISK_DEPTHS[refine]
    assert_same_bits(mesh._band[0], front if depths[0] < depths[1] else rcm)


@settings(max_examples=25, deadline=None)
@given(refine=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_planned_solve_matches_a_dense_solve(refine, seed):
    """On random conductivity in [0.1, 10] and a random ground, the banded
    solve agrees with ``np.linalg.solve`` to 1e-11 of the largest potential
    (5e-14 was the worst seen over 200 seeds at refine 0-4)."""
    from eitkit.forward import ground_system

    rng = np.random.default_rng(seed)
    mesh = build_disk_mesh(1.0, refine)
    S = assemble(mesh, rng.uniform(0.1, 10.0, mesh.n_elements)).S
    g = int(rng.integers(mesh.n_nodes))
    F = rng.standard_normal(mesh.n_nodes)
    F -= F.mean()
    Sg, Fg = ground_system(S, F, g)
    phi = solve_forward(StiffnessSystem(S=Sg, F=Fg, ground_node=mesh.nodes[g].id)).phi
    want = np.linalg.solve(Sg.toarray(), Fg)
    assert np.abs(phi - want).max() <= 1e-11 * np.abs(want).max()


@settings(max_examples=20, deadline=None)
@given(refine=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_matrix_on_copies_of_the_mesh_pattern_uses_the_mesh_plan(refine, seed):
    from eitkit.forward import _stiffness_matrix, ground_system

    rng = np.random.default_rng(seed)
    mesh = build_disk_mesh(1.0, refine)
    S = assemble(mesh, rng.uniform(0.1, 10.0, mesh.n_elements)).S
    g = int(rng.integers(mesh.n_nodes))
    F = rng.standard_normal(mesh.n_nodes)
    F -= F.mean()
    Sg, Fg = ground_system(S, F, g)
    want = ForwardFactorization(StiffnessSystem(S=Sg, F=Fg, ground_node=mesh.nodes[g].id))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = counting(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
        copied = _stiffness_matrix((Sg.data, Sg.indices.copy(), Sg.indptr.copy()), Sg.shape, mesh)
        assert not np.shares_memory(copied.indices, mesh._placement[2])
        got = ForwardFactorization(StiffnessSystem(S=copied, F=Fg, ground_node=mesh.nodes[g].id))
        assert calls == []
    assert_same_bits(got._perm, want._perm)
    assert_same_bits(got._factor, want._factor)
    assert_same_bits(got.solve(Fg).phi, want.solve(Fg).phi)


def test_geometry_is_computed_once_per_mesh(monkeypatch):
    from eitkit.forward import _element_design

    calls = counting(monkeypatch, eitkit.mesh, "_triangle_geometry")
    mesh = build_disk_mesh(1.0, 2)
    first = assemble(mesh, uniform_field(mesh, 1.0)).S
    second = assemble(mesh, uniform_field(mesh, 2.0)).S
    design = _element_design(mesh)
    assert len(calls) == 1
    assert_array_equal(second.data, 2.0 * first.data)
    assert_allclose(design @ np.ones(mesh.n_elements), first.data, rtol=1e-14, atol=1e-14)
    for array in mesh._geometry:
        assert not array.flags.writeable


def test_meshes_are_built_and_loaded_without_plans(tmp_path):
    mesh = build_disk_mesh(1.0, 2)
    eitkit.mesh.save_mesh(mesh, tmp_path / "disk.mesh")
    for built in (mesh, eitkit.mesh.load_mesh(tmp_path / "disk.mesh")):
        assert not {"_placement", "_geometry", "_band"} & set(vars(built))


def grounded_disk(refine=2, ground=5):
    from eitkit.forward import ground_system

    mesh = build_disk_mesh(1.0, refine)
    rng = np.random.default_rng(refine)
    S = assemble(mesh, rng.uniform(0.5, 3.0, mesh.n_elements)).S
    F = rng.standard_normal(mesh.n_nodes)
    F -= F.mean()
    return ground_system(S, F, ground)


def test_dense_system_takes_its_own_plan(monkeypatch):
    Sg, Fg = grounded_disk()
    calls = counting(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
    fronts = counting(monkeypatch, scipy.sparse.csgraph, "breadth_first_order")
    dense = Sg.toarray()
    phi = ForwardFactorization(StiffnessSystem(S=dense, F=Fg, ground_node=5)).solve(Fg).phi
    want = np.linalg.solve(dense, Fg)
    assert len(calls) == 1 and fronts == []
    assert np.abs(phi - want).max() <= 1e-12 * np.abs(want).max()


def test_hand_built_csc_takes_its_own_plan(monkeypatch):
    Sg, Fg = grounded_disk()
    calls = counting(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
    fronts = counting(monkeypatch, scipy.sparse.csgraph, "breadth_first_order")
    # the same entries with each column's row indices reversed and split in two
    # duplicates: a read-write, non-canonical CSC that no mesh planned
    starts, ends = Sg.indptr[:-1], Sg.indptr[1:]
    order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(starts, ends)])
    indices = np.repeat(Sg.indices[order], 2)
    data = np.repeat(Sg.data[order], 2) / 2.0
    hand = csc_array((data, indices, 2 * Sg.indptr), shape=Sg.shape)
    assert not hand.has_canonical_format
    phi = ForwardFactorization(StiffnessSystem(S=hand, F=Fg, ground_node=5)).solve(Fg).phi
    want = np.linalg.solve(Sg.toarray(), Fg)
    assert len(calls) == 1 and fronts == []
    assert np.abs(phi - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
def test_gauge_that_inserts_a_diagonal_takes_its_own_plan(monkeypatch):
    from eitkit.forward import ground_system

    mesh = build_disk_mesh(1.0, 2)
    S = assemble(mesh, np.random.default_rng(9).uniform(0.5, 3.0, mesh.n_elements)).S
    # node 5's diagonal left out of the stored pattern
    keep = ~((S.indices == 5) & (np.repeat(np.arange(mesh.n_nodes), np.diff(S.indptr)) == 5))
    cols = np.repeat(np.arange(mesh.n_nodes), np.diff(S.indptr))[keep]
    holed = csc_array((S.data[keep], S.indices[keep], np.searchsorted(cols, np.arange(mesh.n_nodes + 1))),
                      shape=S.shape)
    F = np.random.default_rng(10).standard_normal(mesh.n_nodes)
    F -= F.mean()
    calls = counting(monkeypatch, scipy.sparse.csgraph, "reverse_cuthill_mckee")
    fronts = counting(monkeypatch, scipy.sparse.csgraph, "breadth_first_order")
    Sg, Fg = ground_system(holed, F, 5)
    assert Sg.nnz == S.nnz
    phi = ForwardFactorization(StiffnessSystem(S=Sg, F=Fg, ground_node=5)).solve(Fg).phi
    want = np.linalg.solve(Sg.toarray(), Fg)
    assert len(calls) == 1 and fronts == []
    assert np.abs(phi - want).max() <= 1e-12 * np.abs(want).max()


# ------------------------------------------------- input rejections ----


def wrong_size_system(mesh):
    small = build_disk_mesh(1.0, 0)
    apply_pattern(assemble(small, np.ones(small.n_elements)), mesh, {0: 1.0, 1: -1.0}, mesh.nodes[0].id)


# case -> (call, error class, message)
REJECTIONS = {
    "field-2d": (lambda mesh: ConductivityField(np.ones((2, 2))), DimensionError,
                 "conductivity field must be 1-d, got shape (2, 2)"),
    "field-empty": (lambda mesh: ConductivityField(np.array([])), DimensionError, "conductivity field is empty"),
    "triangle-shape": (lambda mesh: element_stiffness(np.zeros((2, 2)), 1.0), DimensionError,
                       "expected three 2-d vertices, got shape (2, 2)"),
    "system-size": (wrong_size_system, DimensionError, "system size (9, 9) does not match mesh node count 25"),
    # finite currents whose sum overflows: an infinite total, with no RuntimeWarning
    "pattern-sum-overflows": (lambda mesh: CurrentPattern({0: 1e308, 1: 1e308, 2: -1e308}), CompatibilityError,
                              "injected currents must sum to zero within 1e-12; got inf"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_forward_input_is_rejected_with_its_message(disk_r1, case):
    call, kind, message = REJECTIONS[case]
    with pytest.raises(kind) as err:
        call(disk_r1)
    assert type(err.value) is kind
    assert str(err.value) == message

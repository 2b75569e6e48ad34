import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import eitkit.multifreq
from eitkit import (
    CompatibilityError,
    CurrentPattern,
    DimensionError,
    DomainError,
    Electrode,
    Element,
    FormatError,
    IdentifiabilityError,
    Inclusion,
    Mesh,
    Node,
    RankDeficiencyError,
    StackedSystem,
    SweepConfig,
    TissueModel,
    assemble,
    build_disk_mesh,
    element_stiffness,
    load_stacked_system,
    load_sweep_config,
    make_phantom,
    recover_conductivity,
    save_stacked_system,
    save_sweep_config,
    simulate_sweep,
    stack_condition,
    stack_solve,
)


def nodal_patterns(n: int, count: int, offset: int = 7):
    pats = []
    for k in range(count):
        f = np.zeros(n)
        f[k % n] += 1.0
        f[(k + offset) % n] -= 1.0
        pats.append(f)
    return tuple(pats)


def full_rank_sweep(mesh, frequencies=(1000.0,)) -> SweepConfig:
    return SweepConfig(
        frequencies=frequencies,
        patterns=nodal_patterns(mesh.n_nodes, mesh.n_nodes),
        pairing="cross" if len(frequencies) == 1 else "zip",
        ground="rotate",
    )


def lstsq_stack_solve(Phi, F):
    """Reference symmetric least squares: the n(n+1)/2 upper-triangle
    unknowns as an explicit (n N) x n(n+1)/2 design solved by ``lstsq``."""
    n, N = Phi.shape
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    design = np.zeros((n * N, len(pairs)))
    for p, (a, b) in enumerate(pairs):
        design[a * N : (a + 1) * N, p] += Phi[b, :]
        if a != b:
            design[b * N : (b + 1) * N, p] += Phi[a, :]
    coeffs, *_ = np.linalg.lstsq(design, F.ravel(), rcond=None)
    S_hat = np.zeros((n, n))
    for p, (a, b) in enumerate(pairs):
        S_hat[a, b] = S_hat[b, a] = coeffs[p]
    return S_hat, float(np.linalg.norm(S_hat @ Phi - F))


def weighted_triangle_recover(matrices, mesh):
    """Reference inverse: the upper triangle of each sym(S_hat), off-diagonal
    entries weighted by sqrt(2), fitted over an explicit n(n+1)/2 x n_e
    design by one ``lstsq``. Returns the sigma columns, the Frobenius fit
    residuals and the design's singular values."""
    n = mesh.n_nodes
    iu = np.triu_indices(n)
    position = np.full((n, n), -1)
    position[iu] = np.arange(iu[0].size)
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    design = np.zeros((iu[0].size, mesh.n_elements))
    for e, tri in enumerate(mesh.triangles):
        local = element_stiffness(mesh.coords[tri], 1.0, mesh.bounding_box_diagonal)
        for a in range(3):
            for b in range(a, 3):
                row = position[min(tri[a], tri[b]), max(tri[a], tri[b])]
                design[row, e] = weights[row] * local[a, b]
    targets = np.stack([weights * (0.5 * (S + S.T))[iu] for S in matrices], axis=1)
    sigmas, _, _, sv = np.linalg.lstsq(design, targets, rcond=None)
    residuals = np.linalg.norm(design @ sigmas - targets, axis=0)
    return sigmas, residuals, sv


def test_tissue_model_dispersionless_is_frequency_independent():
    sigma = np.array([1.0, 2.0, 3.0])
    tissue = TissueModel.dispersionless(sigma)
    assert tissue.dispersion_strength == 0.0
    for f in (1.0, 1e3, 1e7):
        assert_array_equal(tissue.sigma_at(f), sigma)
    assert_array_equal(tissue.spread((1.0, 1e3, 1e7)), np.zeros(3))


def test_tissue_model_dispersion_law_hand_value():
    # sigma0=2, sigma_inf=1, tau = 1/(2 pi): at f=1 the relaxation term is
    # 1/(1+1), so sigma = 1.5
    tissue = TissueModel.uniform(1, 2.0, 1.0, 1.0 / (2.0 * np.pi))
    assert tissue.sigma_at(1.0)[0] == pytest.approx(1.5, rel=1e-12)
    assert tissue.sigma_at(0.0)[0] == pytest.approx(2.0)
    assert tissue.sigma_at(1e9)[0] == pytest.approx(1.0, abs=1e-9)


def test_tissue_model_validation():
    with pytest.raises(DomainError):
        TissueModel(np.array([0.0]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        TissueModel(np.array([1.0]), np.array([1.0]), np.array([-1.0]))
    with pytest.raises(DimensionError):
        TissueModel(np.ones(2), np.ones(3), np.ones(2))


def test_sweep_config_validation():
    p = nodal_patterns(9, 2)
    with pytest.raises(DomainError):
        SweepConfig((), p)
    with pytest.raises(DomainError):
        SweepConfig((1000.0,), ())
    with pytest.raises(DomainError):
        SweepConfig((1000.0, 1000.0), p)
    with pytest.raises(DomainError):
        SweepConfig((-5.0,), p)
    with pytest.raises(DomainError):
        SweepConfig((1.0, 2.0, 3.0), p, pairing="zip")
    with pytest.raises(DomainError):
        SweepConfig((1.0,), p, pairing="sideways")
    with pytest.raises(DomainError):
        SweepConfig((1.0,), p, ground="anywhere")


def test_sweep_injection_order_is_frequency_major():
    config = SweepConfig((1.0, 2.0), nodal_patterns(9, 3), pairing="cross")
    assert config.injections() == [(1.0, 0), (1.0, 1), (1.0, 2), (2.0, 0), (2.0, 1), (2.0, 2)]
    zipped = SweepConfig((1.0, 2.0, 3.0), nodal_patterns(9, 3), pairing="zip")
    assert zipped.injections() == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_simulate_sweep_zero_dispersion_frequency_cannot_matter():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    pattern = CurrentPattern({0: 1.0, 4: -1.0})
    config = SweepConfig((100.0, 1000.0, 10000.0), (pattern,), pairing="cross", ground=0)
    stacked = simulate_sweep(mesh, tissue, config)
    assert stacked.sigma_spread == 0.0
    for col in range(1, 3):
        assert np.max(np.abs(stacked.Phi[:, col] - stacked.Phi[:, 0])) <= 1e-12
    s = np.linalg.svd(stacked.Phi, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]  # rank-1 stack


def test_simulate_sweep_rank_equals_pattern_count():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.full(mesh.n_elements, 2.0))
    k = 5
    config = SweepConfig((1000.0,), nodal_patterns(mesh.n_nodes, k), ground=0)
    stacked = simulate_sweep(mesh, tissue, config)
    s = np.linalg.svd(stacked.Phi, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == k


def test_simulate_sweep_dispersion_separates_frequencies():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.uniform(mesh.n_elements, 2.0, 1.0, 1e-4)
    pattern = CurrentPattern({0: 1.0, 4: -1.0})
    config = SweepConfig((100.0, 5000.0), (pattern,), ground=0)
    stacked = simulate_sweep(mesh, tissue, config)
    rel = np.max(np.abs(stacked.Phi[:, 1] - stacked.Phi[:, 0])) / np.max(np.abs(stacked.Phi[:, 0]))
    assert rel > 1e-6
    assert stacked.sigma_spread > 0.1


def test_simulate_sweep_load_columns_cancel_and_labels_fixed():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    config = full_rank_sweep(mesh)
    stacked = simulate_sweep(mesh, tissue, config)
    assert np.max(np.abs(stacked.F.sum(axis=0))) <= 1e-12
    assert stacked.labels[0] == (1000.0, 0, 0)
    assert stacked.labels[3] == (1000.0, 3, 3)


def test_simulate_sweep_annotates_forward_errors():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    bad = np.zeros(mesh.n_nodes)
    bad[0] = 1.0
    bad[4] = -0.5  # does not cancel
    config = SweepConfig((250.0,), (bad,), ground=0)
    with pytest.raises(CompatibilityError, match=r"injection 0 \(frequency 250") as err:
        simulate_sweep(mesh, tissue, config)
    cause = err.value.__cause__
    assert type(cause) is CompatibilityError
    assert str(err.value) == f"injection 0 (frequency 250 Hz, pattern 0): {cause}"
    assert not str(cause).startswith("injection")


def test_simulate_sweep_names_the_failing_pattern_and_the_first_injection_of_a_frequency(
    monkeypatch,
):
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    good, bad = nodal_patterns(mesh.n_nodes, 2)
    bad = bad * np.array([1.0] * (mesh.n_nodes - 1) + [3.0])  # no longer cancels
    with pytest.raises(CompatibilityError, match=r"^injection 1 \(frequency 250 Hz, pattern 1\)"):
        simulate_sweep(mesh, tissue, SweepConfig((250.0, 500.0), (good, bad), ground=0))

    real = eitkit.multifreq.assemble
    calls = []

    def fail_second_assembly(mesh, sigma):
        calls.append(sigma)
        if len(calls) == 2:
            raise DomainError("assembly failed")
        return real(mesh, sigma)

    monkeypatch.setattr(eitkit.multifreq, "assemble", fail_second_assembly)
    with pytest.raises(DomainError, match=r"^injection 2 \(frequency 500 Hz, pattern 0\)"):
        simulate_sweep(mesh, tissue, SweepConfig((250.0, 500.0), (good, good), ground=0))


def test_stack_solve_identity_stack():
    n = 6
    rng = np.random.default_rng(0)
    F = rng.standard_normal((n, n))
    F = 0.5 * (F + F.T)
    F -= F.mean(axis=0, keepdims=True)  # zero column sums, stays symmetric? no
    # build a symmetric zero-column-sum matrix: graph Laplacian style
    W = np.abs(rng.standard_normal((n, n)))
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    L = np.diag(W.sum(axis=1)) - W
    stacked = StackedSystem(Phi=np.eye(n), F=L, labels=())
    result = stack_solve(stacked)
    assert_allclose(result.S_hat, L, atol=1e-12)
    assert result.residual <= 1e-12


def test_rotate_sweep_factors_once_per_frequency(monkeypatch):
    created = []

    class CountingFactorization(eitkit.multifreq.ForwardFactorization):
        def __init__(self, system):
            created.append(system)
            super().__init__(system)

    monkeypatch.setattr(eitkit.multifreq, "ForwardFactorization", CountingFactorization)
    mesh = build_disk_mesh(1.0, 1)
    n = mesh.n_nodes
    rng = np.random.default_rng(8)
    n_e = mesh.n_elements
    tissue = TissueModel(rng.uniform(1.0, 3.0, n_e), rng.uniform(0.2, 0.9, n_e), np.full(n_e, 1e-4))
    config = SweepConfig((1e3, 1e4), nodal_patterns(n, n), pairing="cross", ground="rotate")
    stacked = simulate_sweep(mesh, tissue, config)
    assert len(created) == 2

    # dense oracle: assemble, ground at the injection's own node, solve
    oracle = np.zeros_like(stacked.Phi)
    for col, (freq, p_idx, ground_id) in enumerate(stacked.labels):
        g = mesh.node_index[ground_id]
        S = assemble(mesh, tissue.sigma_at(freq)).S.toarray()
        S[g, :] = S[:, g] = 0.0
        S[g, g] = 1.0
        load = config.patterns[p_idx].copy()
        load[g] = 0.0
        oracle[:, col] = np.linalg.solve(S, load)
    assert [label[2] for label in stacked.labels] == [mesh.nodes[col % n].id for col in range(2 * n)]
    assert np.abs(stacked.Phi - oracle).max() <= 1e-12 * np.abs(oracle).max()


def simulate_sweep_per_injection(mesh, tissue, config):
    """The per-injection loop the block solve replaced: one factorization
    per frequency, grounded at its first injection, then one solve and one
    shift per injection."""
    from eitkit import ForwardFactorization, StiffnessSystem
    from eitkit.forward import ground_system

    n = mesh.n_nodes
    injections = config.injections()
    Phi, F, labels, factors = np.zeros((n, len(injections))), np.zeros((n, len(injections))), [], {}
    for col, (freq, p_idx) in enumerate(injections):
        g = col % n if config.ground == "rotate" else mesh.node_index[config.ground]
        load = np.asarray(config.patterns[p_idx], dtype=float)
        if freq not in factors:
            Sg, Fg = ground_system(assemble(mesh, tissue.sigma_at(freq)).S, load, g)
            factors[freq] = (g, ForwardFactorization(StiffnessSystem(S=Sg, F=Fg, ground_node=0)))
        factor_g, factor = factors[freq]
        load_g = load.copy()
        load_g[factor_g] = 0.0
        phi = factor.solve(load_g).phi
        Phi[:, col] = phi - phi[g]
        F[:, col] = load
        labels.append((freq, p_idx, mesh.nodes[g].id))
    return Phi, F, tuple(labels)


@pytest.mark.parametrize("pairing, ground", [("cross", "rotate"), ("cross", 5), ("zip", "rotate")])
def test_block_sweep_equals_per_injection_loop(pairing, ground):
    mesh = build_disk_mesh(1.0, 2)
    n, n_e = mesh.n_nodes, mesh.n_elements
    rng = np.random.default_rng(12)
    tissue = TissueModel(rng.uniform(1.0, 3.0, n_e), rng.uniform(0.2, 0.9, n_e), np.full(n_e, 1e-4))
    frequencies = (1e3, 1e4) if pairing == "cross" else tuple(1e3 * (1 + k) for k in range(n))
    config = SweepConfig(frequencies, nodal_patterns(n, n), pairing=pairing, ground=ground)
    stacked = simulate_sweep(mesh, tissue, config)
    Phi, F, labels = simulate_sweep_per_injection(mesh, tissue, config)
    assert_array_equal(stacked.Phi, Phi)
    assert_array_equal(stacked.F, F)
    assert stacked.labels == labels


def test_stack_solve_single_injection_is_rank_deficient():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    pattern = CurrentPattern({0: 1.0, 4: -1.0})
    config = SweepConfig((100.0, 1000.0, 10000.0), (pattern,), ground=0)
    stacked = simulate_sweep(mesh, tissue, config)
    with pytest.raises(RankDeficiencyError) as err:
        stack_solve(stacked)
    assert err.value.numerical_rank == 1
    assert err.value.required_rank == mesh.n_nodes


def test_stack_solve_recovers_true_matrix():
    mesh = build_disk_mesh(1.0, 1)
    rng = np.random.default_rng(1)
    sigma = rng.uniform(0.5, 3.0, size=mesh.n_elements)
    tissue = TissueModel.dispersionless(sigma)
    stacked = simulate_sweep(mesh, tissue, full_rank_sweep(mesh))
    result = stack_solve(stacked)
    S_true = assemble(mesh, sigma).S.toarray()
    assert np.linalg.norm(result.S_hat - S_true) <= 1e-8 * np.linalg.norm(S_true)


@pytest.mark.parametrize("refine", [0, 1])
@pytest.mark.parametrize("noise", [0.0, 1e-6, 1e-3])
def test_stack_solve_matches_lstsq_oracle(refine, noise):
    mesh = build_disk_mesh(1.0, refine)
    n = mesh.n_nodes
    rng = np.random.default_rng(20 + refine)
    tissue = TissueModel.dispersionless(rng.uniform(0.5, 3.0, size=mesh.n_elements))
    # 2n injections with distinct offsets: overdetermined, so noise leaves a residual
    patterns = nodal_patterns(n, n) + nodal_patterns(n, n, offset=3)
    config = SweepConfig((1000.0,), patterns, ground="rotate")
    stacked = simulate_sweep(mesh, tissue, config)
    Phi = stacked.Phi + noise * np.abs(stacked.Phi).max() * rng.standard_normal(stacked.Phi.shape)
    result = stack_solve(StackedSystem(Phi=Phi, F=stacked.F, labels=stacked.labels))
    S_oracle, residual_oracle = lstsq_stack_solve(Phi, stacked.F)
    assert np.linalg.norm(result.S_hat - S_oracle) <= 1e-10 * np.linalg.norm(S_oracle)
    assert result.residual <= residual_oracle * (1 + 1e-10) + 1e-12
    assert_array_equal(result.S_hat, result.S_hat.T)


def test_stack_solve_recovers_laplacian_at_refine_3():
    mesh = build_disk_mesh(1.0, 3)
    n = mesh.n_nodes
    assert n == 289
    rng = np.random.default_rng(289)
    adjacent = np.zeros((n, n), dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        adjacent[mesh.triangles[:, i], mesh.triangles[:, j]] = True
    W = np.triu(rng.uniform(0.5, 3.0, size=(n, n)) * (adjacent | adjacent.T), 1)
    W += W.T
    S = np.diag(W.sum(axis=1)) - W
    Phi = rng.standard_normal((n, n))
    F = S @ Phi
    F -= F.mean(axis=0)  # remove rounding drift from the zero column sums
    result = stack_solve(StackedSystem(Phi=Phi, F=F, labels=()))
    assert np.linalg.norm(result.S_hat - S) <= 1e-9 * np.linalg.norm(S)


def test_stack_condition_monotone_under_appending():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    n = mesh.n_nodes
    config = SweepConfig((1000.0,), nodal_patterns(n, n + 6), ground="rotate")
    stacked = simulate_sweep(mesh, tissue, config)
    previous = float("inf")
    for count in range(1, stacked.n_injections + 1):
        partial = StackedSystem(
            Phi=stacked.Phi[:, :count], F=stacked.F[:, :count], labels=stacked.labels[:count]
        )
        estimate = stack_condition(partial)
        assert estimate <= previous or (np.isinf(estimate) and np.isinf(previous))
        previous = estimate
    assert np.isfinite(previous)


def test_stack_solve_boundary_only_observation_reports_gap():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    stacked = simulate_sweep(mesh, tissue, full_rank_sweep(mesh))
    boundary_positions = [mesh.node_index[n] for n in mesh.boundary_nodes]
    with pytest.raises(IdentifiabilityError) as err:
        stack_solve(stacked, observed_nodes=boundary_positions)
    # one hidden node (the center): a 1x1 undetermined symmetric block
    assert err.value.rank_gap == 1
    # full observation through the same parameter degrades to the plain path
    full = stack_solve(stacked, observed_nodes=range(mesh.n_nodes))
    assert full.residual <= 1e-10


def test_recover_conductivity_exact_matrix(disk_r1):
    rng = np.random.default_rng(2)
    sigma = rng.uniform(0.5, 4.0, size=disk_r1.n_elements)
    S_true = assemble(disk_r1, sigma).S.toarray()
    recovered = recover_conductivity(S_true, disk_r1)
    assert np.max(np.abs(recovered.sigma - sigma) / sigma) <= 1e-9
    assert recovered.negative_elements == ()
    assert recovered.fit_residual <= 1e-9 * np.linalg.norm(S_true)


@pytest.mark.parametrize("refine", [0, 1, 2, 3])
def test_recover_conductivity_matches_weighted_triangle_oracle(refine):
    mesh = build_disk_mesh(1.0, refine)
    rng = np.random.default_rng(40 + refine)
    S = assemble(mesh, rng.uniform(0.5, 3.0, size=mesh.n_elements)).S.toarray()
    matrices = []
    for noise in (0.0, 1e-6, 1e-3):
        E = rng.standard_normal(S.shape)
        matrices.append(S + noise * np.abs(S).max() * 0.5 * (E + E.T))
    sigmas, residuals, sv = weighted_triangle_recover(matrices, mesh)
    for S_hat, sigma, residual in zip(matrices, sigmas.T, residuals):
        recovered = recover_conductivity(S_hat, mesh)
        assert np.max(np.abs(recovered.sigma - sigma)) <= 1e-12 * np.max(np.abs(sigma))
        assert abs(recovered.fit_residual - residual) <= 1e-10 * residual + 1e-12 * np.linalg.norm(S)
        assert recovered.sensitivity == pytest.approx(1.0 / sv[-1], rel=1e-10)
        assert recovered.operator_condition == pytest.approx(sv[0] / sv[-1], rel=1e-10)


@pytest.mark.parametrize("eps", [1e-8, 1e-4])
def test_recover_conductivity_perturbation_bounded_by_sensitivity(disk_r1, eps):
    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.5, 4.0, size=disk_r1.n_elements)
    S_true = assemble(disk_r1, sigma).S
    E = rng.standard_normal(S_true.shape)
    E = 0.5 * (E + E.T)
    E *= eps / np.linalg.norm(E)
    recovered = recover_conductivity(S_true + E, disk_r1)
    error = np.linalg.norm(recovered.sigma - sigma)
    assert error <= recovered.sensitivity * eps * (1 + 1e-8)


def test_recover_conductivity_localizes_inclusion(disk_r1):
    centroids = disk_r1.coords[disk_r1.triangles].mean(axis=1)
    target = 11
    phantom = make_phantom(disk_r1, 1.0, [Inclusion(tuple(centroids[target]), 0.05, 10.0)])
    assert phantom.sigma[target] == 10.0
    tissue = TissueModel.dispersionless(phantom.sigma)
    stacked = simulate_sweep(disk_r1, tissue, full_rank_sweep(disk_r1))
    result = stack_solve(stacked)
    recovered = recover_conductivity(result.S_hat, disk_r1, solve_residual=result.residual)
    assert int(np.argmax(recovered.sigma)) == target
    assert recovered.solve_residual == result.residual


def test_recover_conductivity_requires_symmetry(disk_r1):
    S = assemble(disk_r1, np.ones(disk_r1.n_elements)).S.toarray()
    S[0, 1] += 1.0
    with pytest.raises(DomainError):
        recover_conductivity(S, disk_r1)


def test_recover_conductivity_duplicate_elements_not_identifiable():
    # two elements over the same triangle: their stiffness columns coincide
    mesh = Mesh(
        nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0)),
        elements=(Element(0, (0, 1, 2)), Element(1, (0, 1, 2))),
        boundary_nodes=(0, 1, 2),
        electrodes=(Electrode(0, 0), Electrode(1, 1)),
    )
    S_true = assemble(mesh, np.array([1.0, 1.0])).S.toarray()
    with pytest.raises(IdentifiabilityError) as err:
        recover_conductivity(S_true, mesh)
    assert err.value.rank_gap == 1


def test_recover_conductivity_too_many_elements_guard(square_mesh):
    with pytest.raises(DimensionError):
        recover_conductivity(np.eye(3), square_mesh)
    # seven elements over one triangle: a 3 x 3 symmetric matrix has only 6 entries
    nodes = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0))
    mesh = Mesh(
        nodes=nodes,
        elements=tuple(Element(e, (0, 1, 2)) for e in range(7)),
        boundary_nodes=(0, 1, 2),
        electrodes=(Electrode(0, 0), Electrode(1, 1)),
    )
    with pytest.raises(IdentifiabilityError) as err:
        recover_conductivity(np.eye(3), mesh)
    assert err.value.rank_gap == 1


def test_end_to_end_identity_with_dispersion_diversity():
    # frequency x pattern diversity with dispersion still recovers the field
    # that generated a *single* frequency when the model is dispersion-free;
    # with dispersion the run reports the spread instead of matching exactly
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.uniform(mesh.n_elements, 2.0, 1.0, 1e-4)
    n = mesh.n_nodes
    config = SweepConfig(
        frequencies=(100.0, 3000.0, 20000.0),
        patterns=nodal_patterns(n, n),
        pairing="cross",
        ground="rotate",
    )
    stacked = simulate_sweep(mesh, tissue, config)
    assert stacked.sigma_spread > 0.1
    result = stack_solve(stacked)
    recovered = recover_conductivity(result.S_hat, mesh, solve_residual=result.residual)
    table = np.stack([tissue.sigma_at(f) for f in config.frequencies])
    assert np.all(recovered.sigma >= table.min(axis=0) - 0.05)
    assert np.all(recovered.sigma <= table.max(axis=0) + 0.05)


def test_stacked_system_csv_round_trip(tmp_path):
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.uniform(mesh.n_elements, 2.0, 1.0, 1e-4)
    config = SweepConfig((100.0, 4000.0), nodal_patterns(mesh.n_nodes, 3), ground="rotate")
    stacked = simulate_sweep(mesh, tissue, config)
    phi_path, f_path = tmp_path / "phi.csv", tmp_path / "f.csv"
    save_stacked_system(stacked, phi_path, f_path)
    again = load_stacked_system(phi_path, f_path)
    assert_array_equal(again.Phi, stacked.Phi)
    assert_array_equal(again.F, stacked.F)
    assert again.labels == stacked.labels
    assert again.sigma_spread == stacked.sigma_spread


@pytest.mark.parametrize(
    "comment", ["label,1000", "label,1000,0,x", "sigma_spread,abc", "sigma_spread,1,2"]
)
def test_load_stacked_system_malformed_comment_is_format_error(tmp_path, comment):
    phi_path, f_path = tmp_path / "phi.csv", tmp_path / "f.csv"
    phi_path.write_text(f"# sigma_spread,0\n# {comment}\n1,0\n0,1\n")
    f_path.write_text("1,-1\n-1,1\n")
    with pytest.raises(FormatError) as err:
        load_stacked_system(phi_path, f_path)
    assert err.value.line_no == 2


def test_sweep_config_file_round_trip(tmp_path):
    mesh = build_disk_mesh(1.0, 0)
    n = mesh.n_nodes
    patterns = (CurrentPattern({0: 1.0, 4: -1.0}),) + nodal_patterns(n, 2)
    config = SweepConfig((100.0, 2500.0), patterns, pairing="cross", ground="rotate")
    tissue = TissueModel.uniform(mesh.n_elements, 2.0, 1.0, 1e-4)
    path = tmp_path / "sweep.cfg"
    save_sweep_config(config, tissue, path, header_lines=("case",))
    loaded_config, loaded_tissue = load_sweep_config(path, mesh)
    assert loaded_config.frequencies == config.frequencies
    assert loaded_config.pairing == "cross"
    assert loaded_config.ground == "rotate"
    assert isinstance(loaded_config.patterns[0], CurrentPattern)
    assert loaded_config.patterns[0].currents == {0: 1.0, 4: -1.0}
    assert_array_equal(loaded_config.patterns[1], patterns[1])
    assert_array_equal(loaded_tissue.sigma0, tissue.sigma0)
    assert_array_equal(loaded_tissue.tau, tissue.tau)


def test_sweep_config_file_per_element_overrides(tmp_path):
    mesh = build_disk_mesh(1.0, 0)
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "[frequencies]\n1000\n"
        "[patterns]\n0: 1.0, 4: -1.0\n"
        "[model]\nsigma0 = 1.0\nsigma_inf = 1.0\ntau = 0\n"
        "element 3: 5.0 4.0 1e-5\n"
        "[sweep]\npairing = cross\nground = 2\n"
    )
    config, tissue = load_sweep_config(path, mesh)
    assert config.ground == 2
    assert tissue.sigma0[3] == 5.0
    assert tissue.sigma_inf[3] == 4.0
    assert tissue.tau[3] == 1e-5
    assert tissue.sigma0[0] == 1.0


def test_sweep_config_element_overrides_name_element_ids(tmp_path):
    disk = build_disk_mesh(1.0, 0)
    mesh = Mesh(
        disk.nodes,
        tuple(Element(10 + k, e.nodes) for k, e in enumerate(disk.elements)),
        disk.boundary_nodes,
        disk.electrodes,
    )
    path = tmp_path / "sweep.cfg"
    head = "[frequencies]\n1000\n[patterns]\n0: 1.0, 4: -1.0\n[model]\nsigma0 = 1.0\nsigma_inf = 1.0\ntau = 0\n"
    path.write_text(head + "element 12: 5 5 0\n")
    _, tissue = load_sweep_config(path, mesh)
    assert_array_equal(tissue.sigma0, [1, 1, 5, 1, 1, 1, 1, 1])
    path.write_text(head + "element 2: 5 5 0\n")
    with pytest.raises(FormatError, match="element override 2 is not a mesh element") as err:
        load_sweep_config(path, mesh)
    assert err.value.line_no == 9

    rng = np.random.default_rng(3)
    tissue = TissueModel(*rng.uniform(0.5, 3.0, (3, mesh.n_elements)))
    config = SweepConfig((1000.0,), (CurrentPattern({0: 1.0, 4: -1.0}),))
    save_sweep_config(config, tissue, path, mesh=mesh)
    assert "element 17: " in path.read_text()
    _, again = load_sweep_config(path, mesh)
    for name in ("sigma0", "sigma_inf", "tau"):
        assert_array_equal(getattr(again, name), getattr(tissue, name))
    save_sweep_config(config, tissue, path)  # without a mesh: row indices
    assert "element 0: " in path.read_text() and "element 10: " not in path.read_text()
    with pytest.raises(DimensionError, match="covers 8 elements, mesh has 32"):
        save_sweep_config(config, tissue, path, mesh=build_disk_mesh(1.0, 1))


MODEL = "sigma0 = 1.0\nsigma_inf = 1.0\ntau = 0\n"


@pytest.mark.parametrize(
    "sweep, model, line_no",
    [
        ("pairng = zip\n", MODEL, 6),
        ("pairing zip\n", MODEL, 6),
        ("pairing = cross\nground = 1.5\n", MODEL, 7),
        ("", MODEL + "element 999: 1 1 0\n", 10),
        ("pairing = cross\n", "sigma0 = 1.0\ntau = 0\n", 7),
    ],
    ids=["unknown-key", "no-equals", "bad-ground", "element-out-of-range", "missing-model-key"],
)
def test_sweep_section_typos_are_format_errors(tmp_path, sweep, model, line_no):
    mesh = build_disk_mesh(1.0, 0)
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "[frequencies]\n1000\n[patterns]\n0: 1.0, 4: -1.0\n[sweep]\n" + sweep + "[model]\n" + model
    )
    with pytest.raises(FormatError) as err:
        load_sweep_config(path, mesh)
    assert err.value.line_no == line_no

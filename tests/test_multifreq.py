import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import sparse
from scipy.sparse import coo_array
from scipy.sparse.linalg import LinearOperator, eigsh, splu

import eitkit.multifreq
from eitkit import (
    CompatibilityError,
    CurrentPattern,
    DimensionError,
    DomainError,
    EitError,
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
    assert np.max(np.abs(tissue.sigma0 - tissue.sigma_inf)) == 0.0
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


@pytest.mark.parametrize("pairing, ground", [("cross", "rotate"), ("zip", 5)])
def test_sweep_in_small_column_blocks_equals_per_injection_loop(monkeypatch, pairing, ground):
    mesh = build_disk_mesh(1.0, 2)
    n, n_e = mesh.n_nodes, mesh.n_elements
    rng = np.random.default_rng(13)
    tissue = TissueModel(rng.uniform(1.0, 3.0, n_e), rng.uniform(0.2, 0.9, n_e), np.full(n_e, 1e-4))
    frequencies = (1e3, 1e4) if pairing == "cross" else (1e3, 2e3, 3e3)
    patterns = nodal_patterns(n, n if pairing == "cross" else 3)
    config = SweepConfig(frequencies, patterns, pairing=pairing, ground=ground)
    want = simulate_sweep_per_injection(mesh, tissue, config)
    monkeypatch.setattr(eitkit.errors, "_BLOCK_BYTES", 8 * n * 7)  # seven columns a block
    stacked = simulate_sweep(mesh, tissue, config)
    assert_array_equal(stacked.Phi, want[0])
    assert_array_equal(stacked.F, want[1])
    assert stacked.labels == want[2]


def test_sweep_of_81_loads_is_one_block(monkeypatch):
    solved = []
    real = eitkit.multifreq.ForwardFactorization.solve

    def counting(self, F):
        solved.append(F.shape)
        return real(self, F)

    monkeypatch.setattr(eitkit.multifreq.ForwardFactorization, "solve", counting)
    mesh = build_disk_mesh(1.0, 2)
    simulate_sweep(mesh, TissueModel.dispersionless(np.ones(mesh.n_elements)), full_rank_sweep(mesh))
    assert solved == [(81, 81)]


def test_sweep_peak_memory_at_refine_4():
    import tracemalloc

    mesh = build_disk_mesh(1.0, 4)
    n = mesh.n_nodes
    tissue = TissueModel.dispersionless(np.random.default_rng(4).uniform(0.5, 3.0, mesh.n_elements))
    config = full_rank_sweep(mesh)
    tracemalloc.start()
    try:
        stacked = simulate_sweep(mesh, tissue, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * n * n  # one (n, n) array: 9.5 MB
    assert stacked.Phi.nbytes == stacked.F.nbytes == block
    # the result holds two blocks; the one-block solve peaked at 76.7 MB,
    # about eight, and the column blocks keep it under three
    assert peak <= 3 * block, peak / block


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), extra=st.integers(0, 6), rank=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_smallest_stack_singular_value_never_falls_under_appending(n, extra, rank, seed):
    """Appending a column never lowers sigma_min(Phi) (Cauchy interlacing
    for Phi Phi^T + phi phi^T), to 1e-10 relative to the largest singular
    value, once the stack has full row rank; a prefix without it (by an
    independent rank count at 1e-8) raises RankDeficiencyError with a rank
    below n. Potentials of rank ``rank`` (capped at n) make wide prefixes
    rank-deficient too."""
    rng = np.random.default_rng(seed)
    rank = min(rank, n)
    Phi = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n + extra))
    Phi[:, rank:] += rng.standard_normal((n, n + extra - rank)) * (rng.random(n + extra - rank) < 0.5)
    F = rng.standard_normal((n, n + extra))
    F -= F.mean(axis=0)
    previous = None
    for count in range(1, n + extra + 1):
        partial = StackedSystem(Phi=Phi[:, :count], F=F[:, :count], labels=())
        full = np.linalg.matrix_rank(partial.Phi, rtol=1e-8) == n
        try:
            s = stack_solve(partial).phi_singular_values
        except RankDeficiencyError as err:
            assert not full and err.numerical_rank < n
            continue
        assert full
        if previous is not None:
            assert s[-1] >= previous - 1e-10 * s[0]
        previous = s[-1]


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
    recovered = recover_conductivity(result.S_hat, disk_r1)
    assert int(np.argmax(recovered.sigma)) == target


def test_recover_conductivity_requires_symmetry(disk_r1):
    S = assemble(disk_r1, np.ones(disk_r1.n_elements)).S.toarray()
    S[0, 1] += 1.0
    with pytest.raises(DomainError):
        recover_conductivity(S, disk_r1)


@settings(max_examples=40, deadline=None)
@given(refine=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, 5, None]))
def test_fit_residual_counts_every_entry_in_column_blocks(refine, seed, width):
    from eitkit.forward import _element_design

    mesh = build_disk_mesh(1.0, refine)
    n = mesh.n_nodes
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((n, n))
    S_hat = 0.5 * (E + E.T) + 1e-9 * rng.standard_normal((n, n))  # random, symmetric within 1e-6
    with pytest.MonkeyPatch.context() as patch:
        if width is not None:  # blocks of `width` columns; None keeps one block
            patch.setattr(eitkit.errors, "_BLOCK_BYTES", 8 * n * width)
        recovered = recover_conductivity(S_hat, mesh)
        asymmetric = S_hat.copy()
        asymmetric[n - 1, 0] += 1e-5 * np.linalg.norm(S_hat)  # in the last block
        with pytest.raises(DomainError, match="symmetric"):
            recover_conductivity(asymmetric, mesh)
    # the residual as the whole sym(S_hat) minus the fit on the pattern
    _, _, rows, indptr, _ = mesh._placement
    cols = np.repeat(np.arange(n), np.diff(indptr))
    residual = 0.5 * (S_hat + S_hat.T)
    residual[rows, cols] -= _element_design(mesh) @ recovered.sigma
    want = np.linalg.norm(residual)
    assert abs(recovered.fit_residual - want) <= 1e-12 * want


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


def dense_svd_recover(S_hat, mesh):
    """Reference inverse: the dense-SVD ``recover_conductivity`` that the
    sparse corrected semi-normal equations replaced. Returns ``(sigma,
    fit_residual, sensitivity, operator_condition)``; a design whose
    ``s_min < 1e-10 s_max`` raises :class:`IdentifiabilityError`."""
    from eitkit.mesh import _triangle_geometry

    S_hat = np.asarray(S_hat, dtype=float)
    four_area, outer = _triangle_geometry(mesh.coords[mesh.triangles], mesh.bounding_box_diagonal)
    local = (1.0 / four_area)[:, None, None] * outer
    _, _, rows, indptr, slot = mesh._placement
    cols = np.repeat(np.arange(mesh.n_nodes), np.diff(indptr))
    design = np.zeros((rows.size, mesh.n_elements))
    design[slot, np.arange(mesh.n_elements)[:, None, None]] = local
    U, s, Vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s >= 1e-10 * s[0]))
    if rank < mesh.n_elements:
        raise IdentifiabilityError("rank deficient", rank_gap=mesh.n_elements - rank)
    residual = 0.5 * (S_hat + S_hat.T)
    sigma = Vt.T @ ((U.T @ residual[rows, cols]) / s)
    residual[rows, cols] -= design @ sigma
    return sigma, float(np.linalg.norm(residual)), float(1.0 / s[-1]), float(s[0] / s[-1])


@settings(max_examples=60, deadline=None)
@given(
    refine=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-6, 1e-3]),
)
def test_recover_conductivity_matches_the_dense_svd_oracle(refine, seed, noise):
    mesh = build_disk_mesh(1.0, refine)
    rng = np.random.default_rng(seed)
    S = assemble(mesh, rng.uniform(0.5, 3.0, size=mesh.n_elements)).S.toarray()
    E = rng.standard_normal(S.shape)
    S_hat = S + noise * np.abs(S).max() * 0.5 * (E + E.T)
    sigma, residual, sensitivity, condition = dense_svd_recover(S_hat, mesh)
    recovered = recover_conductivity(S_hat, mesh)
    assert np.max(np.abs(recovered.sigma - sigma)) <= 1e-12 * np.max(np.abs(sigma))
    assert abs(recovered.fit_residual - residual) <= 1e-10 * residual + 1e-12 * np.linalg.norm(S)
    assert recovered.sensitivity == pytest.approx(sensitivity, rel=1e-10)
    assert recovered.operator_condition == pytest.approx(condition, rel=1e-10)


def test_recover_conductivity_single_element(triangle_mesh):
    S = assemble(triangle_mesh, np.array([2.5])).S.toarray()
    sigma, _, sensitivity, condition = dense_svd_recover(S, triangle_mesh)
    recovered = recover_conductivity(S, triangle_mesh)
    assert recovered.sigma[0] == pytest.approx(2.5, rel=1e-14)
    assert recovered.sensitivity == pytest.approx(sensitivity, rel=1e-14)
    assert recovered.operator_condition == pytest.approx(condition, rel=1e-14)


def test_recover_conductivity_at_refine_4():
    mesh = build_disk_mesh(1.0, 4)
    sigma = np.random.default_rng(44).uniform(0.5, 3.0, size=mesh.n_elements)
    recovered = recover_conductivity(assemble(mesh, sigma).S.toarray(), mesh)
    assert np.max(np.abs(recovered.sigma - sigma) / sigma) <= 1e-12
    # the Gram matrix from each element's full n x n stiffness, keyed by node pair
    n, n_e = mesh.n_nodes, mesh.n_elements
    keys, values = [], []
    for tri in mesh.triangles:
        values.append(element_stiffness(mesh.coords[tri], 1.0, mesh.bounding_box_diagonal).ravel())
        keys.append((tri[:, None] * n + tri[None, :]).ravel())
    design = coo_array(
        (np.concatenate(values), (np.concatenate(keys), np.repeat(np.arange(n_e), 9))), shape=(n * n, n_e)
    )
    eigenvalues = np.linalg.eigvalsh((design.T @ design).toarray())
    assert recovered.operator_condition == pytest.approx(np.sqrt(eigenvalues[-1] / eigenvalues[0]), rel=1e-10)
    assert recovered.sensitivity == pytest.approx(1.0 / np.sqrt(eigenvalues[0]), rel=1e-10)


def test_recover_conductivity_rejects_an_ill_conditioned_design():
    # a sliver of height h beside two plain triangles: cond(design) is about 1/h
    h = 1e-8
    mesh = Mesh(
        nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.5, h), Node(3, 0.5, 1.0)),
        elements=(Element(0, (0, 1, 2)), Element(1, (0, 2, 3)), Element(2, (2, 1, 3))),
        boundary_nodes=(0, 1, 3),
        electrodes=(Electrode(0, 0), Electrode(1, 1)),
    )
    S = assemble(mesh, np.ones(3)).S.toarray()
    # the dense-SVD rule (s_min < 1e-10 s_max) accepted this design
    _, _, _, condition = dense_svd_recover(S, mesh)
    assert 1e6 < condition < 1e10
    with pytest.raises(IdentifiabilityError) as err:
        recover_conductivity(S, mesh)
    # the sliver's column is about 1/h longer than both others: two singular
    # values sit below 1e-6 of the largest
    assert err.value.rank_gap == 2


def strip_mesh(k: int, h: float) -> Mesh:
    """A 1 x h strip of k squares, each cut into two triangles."""
    nodes = [Node(i, float(i), 0.0) for i in range(k + 1)]
    nodes += [Node(k + 1 + i, float(i), h) for i in range(k + 1)]
    elements = []
    for i in range(k):
        elements += [Element(2 * i, (i, i + 1, k + 2 + i)), Element(2 * i + 1, (i, k + 2 + i, k + 1 + i))]
    loop = tuple(range(k + 1)) + tuple(range(2 * k + 1, k, -1))
    return Mesh(tuple(nodes), tuple(elements), loop, (Electrode(0, 0), Electrode(1, k)))


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_recover_conductivity_corrections_hold_accuracy_on_flat_triangles(noise):
    # flat triangles make cond(design) about 1.7e4 in a way no column scaling
    # removes: plain normal equations lose about cond^2 * eps = 1e-8
    mesh = strip_mesh(3, 1e-2)
    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.5, 3.0, size=mesh.n_elements)
    S = assemble(mesh, sigma).S.toarray()
    E = rng.standard_normal(S.shape)
    S_hat = S + noise * np.abs(S).max() * 0.5 * (E + E.T)
    oracle, _, _, condition = dense_svd_recover(S_hat, mesh)
    assert 1e4 < condition < 1e5
    recovered = recover_conductivity(S_hat, mesh)
    assert np.max(np.abs(recovered.sigma - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    if noise == 0.0:
        assert np.max(np.abs(recovered.sigma - sigma)) <= 1e-11 * np.max(sigma)


def test_element_design_columns_are_the_unit_local_stiffness(disk_r1):
    from eitkit.forward import _element_design

    design = _element_design(disk_r1)
    _, _, rows, indptr, _ = disk_r1._placement
    cols = np.repeat(np.arange(disk_r1.n_nodes), np.diff(indptr))
    assert design.shape == (rows.size, disk_r1.n_elements)
    assert_array_equal(np.diff(design.indptr), 9)
    for e, tri in enumerate(disk_r1.triangles):
        column = design[:, [e]].toarray().ravel()
        local = np.zeros((disk_r1.n_nodes, disk_r1.n_nodes))
        local[np.ix_(tri, tri)] = element_stiffness(disk_r1.coords[tri], 1.0, disk_r1.bounding_box_diagonal)
        assert_allclose(column, local[rows, cols], rtol=1e-15, atol=0)
    sigma = np.random.default_rng(5).uniform(0.5, 3.0, size=disk_r1.n_elements)
    assert_allclose(design @ sigma, assemble(disk_r1, sigma).S.data, rtol=1e-13, atol=1e-13)


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


# ------------------------------------------- the sparse least-squares core ----


@st.composite
def sparse_designs(draw, min_columns=1):
    """``(design, rng)``: a random sparse design of full column rank, an
    m x k ``scipy.sparse.random`` matrix (m <= 60, k <= m) stacked on a
    scaled k x k identity, in CSC form."""
    m = draw(st.integers(min_columns, 60))
    k = draw(st.integers(min_columns, m))
    density = draw(st.floats(0.05, 1.0))
    scale = draw(st.floats(1e-2, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = sparse.random(m, k, density=density, rng=rng)
    return sparse.vstack([top, scale * sparse.identity(k)]).tocsc(), rng


@settings(max_examples=80, deadline=None)
@given(case=sparse_designs(), noise=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_sparse_lstsq_matches_dense_lstsq_on_random_designs(case, noise):
    from eitkit.multifreq import _sparse_lstsq

    design, rng = case
    dense = design.toarray()
    target = dense @ rng.uniform(-1.0, 1.0, dense.shape[1]) + noise * rng.standard_normal(dense.shape[0])
    x, lam_min, lam_max = _sparse_lstsq(design, target)
    want, _, _, s = np.linalg.lstsq(dense, target, rcond=None)
    cond = s[0] / s[-1]
    residual = np.linalg.norm(target - dense @ want)
    # the least-squares perturbation bound eps cond (|x| + cond |r| / s_max), with a
    # factor 100 of room: 3000 draws of this family reached at most 25
    bound = np.finfo(float).eps * cond * (np.linalg.norm(want) + cond * residual / s[0])
    assert np.linalg.norm(x - want) <= 100 * bound
    assert lam_min == pytest.approx(s[-1] ** 2, rel=1e-10)
    assert lam_max == pytest.approx(s[0] ** 2, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(case=sparse_designs(min_columns=2), column=st.integers(0, 59))
def test_sparse_lstsq_rejects_a_repeated_or_an_ill_scaled_column(case, column):
    from eitkit.multifreq import _sparse_lstsq

    design, rng = case
    k = design.shape[1]
    column %= k
    target = rng.standard_normal(design.shape[0])
    with pytest.raises(IdentifiabilityError) as err:
        _sparse_lstsq(sparse.hstack([design, design[:, [column]]]).tocsc(), target)
    assert err.value.rank_gap == 1
    norms = np.linalg.norm(design.toarray(), axis=0)
    factors = np.ones(k)
    factors[column] = 1e7 * norms.max() / norms[column]
    scaled = design @ sparse.diags_array(factors)
    s = np.linalg.svd(scaled.toarray(), compute_uv=False)
    assert s[0] / s[-1] > 1e6
    with pytest.raises(IdentifiabilityError) as err:
        _sparse_lstsq(scaled, target)
    assert err.value.rank_gap >= 1


@settings(max_examples=60, deadline=None)
@given(
    case=sparse_designs(),
    wide=st.booleans(),
    planted=st.lists(st.tuples(st.integers(0, 119), st.integers(-3, 3)), max_size=4),  # (column, power of two)
)
def test_sparse_lstsq_rank_gap_equals_the_dense_svd_gap(case, wide, planted):
    from eitkit.multifreq import GRAM_TOL, _sparse_lstsq

    design, rng = case
    if wide:  # full row rank and more columns than rows
        design = design.T.tocsc()
    elif not planted:
        planted = [(0, 0)]
    # each planted column is a power-of-two multiple of a column, so it is exactly dependent
    copies = [2.0**power * design[:, [column % design.shape[1]]] for column, power in planted]
    design = sparse.hstack([design, *copies]).tocsc()
    s = np.linalg.svd(design.toarray(), compute_uv=False)
    gap = design.shape[1] - int(np.count_nonzero(s * s > GRAM_TOL * s[0] ** 2))
    with pytest.raises(IdentifiabilityError) as err:
        _sparse_lstsq(design, rng.standard_normal(design.shape[0]))
    assert err.value.rank_gap == gap
    assert gap == (design.shape[1] - design.shape[0] if wide else len(planted))


@st.composite
def designs_across_the_dense_limit(draw):
    """``(design, rng)``: a tall random sparse design with ``DENSE_EIG_COLUMNS
    +- 64`` columns, nine nonzeros per column on average over twice as many
    rows, stacked on ``scale`` times the identity, with one column scaled to
    norm ``10**u * scale``. The smallest singular value is at least, and
    about, ``scale``, so cond(A) is about ``10**u``; half the draws put ``u``
    within 0.5 of 6, the ``GRAM_TOL`` boundary ``cond(A) = 1e6``."""
    from eitkit.multifreq import DENSE_EIG_COLUMNS

    k = draw(st.integers(DENSE_EIG_COLUMNS - 64, DENSE_EIG_COLUMNS + 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.05, 1.0))
    top = sparse.random(2 * k, k, density=9 / (2 * k), rng=rng)
    design = sparse.vstack([top, scale * sparse.identity(k)]).tocsc()
    u = draw(st.one_of(st.floats(5.5, 6.5), st.floats(0.0, 5.0)))
    column = draw(st.integers(0, k - 1))
    factors = np.ones(k)
    factors[column] = 10**u * scale / sparse.linalg.norm(design[:, [column]])
    return (design @ sparse.diags_array(factors)).tocsc(), rng


@settings(max_examples=30, deadline=None)
@given(case=designs_across_the_dense_limit())
def test_the_dense_and_arpack_gram_figures_agree_within_a_weyl_bound(case):
    from eitkit.multifreq import DENSE_EIG_COLUMNS, GRAM_TOL, _sparse_lstsq

    design, rng = case
    k = design.shape[1]
    target = rng.standard_normal(design.shape[0])

    def figures(limit):  # (lam_min, lam_max), or None for a rejection
        with pytest.MonkeyPatch.context() as patch:
            if limit is not None:
                patch.setattr(eitkit.multifreq, "DENSE_EIG_COLUMNS", limit)
            try:
                return _sparse_lstsq(design, target)[1:]
            except IdentifiabilityError:
                return None

    arpack, dense = figures(0), figures(k)
    assert figures(None) == (dense if k <= DENSE_EIG_COLUMNS else arpack)  # the size rule picks one
    s = np.linalg.svd(design.toarray(), compute_uv=False)
    # each route's eigenvalues are those of a Gram matrix perturbed by at most
    # n eps lam_max, so by Weyl's theorem they differ by no more than that;
    # 400 draws of this family reached 0.05 of it
    bound = k * np.finfo(float).eps * s[0] ** 2
    if arpack is not None and dense is not None:
        assert abs(dense[0] - arpack[0]) <= bound
        assert abs(dense[1] - arpack[1]) <= bound
    if abs(s[-1] ** 2 - GRAM_TOL * s[0] ** 2) > 2 * bound:  # away from the boundary, one decision
        rejected = s[-1] ** 2 < GRAM_TOL * s[0] ** 2
        assert (arpack is None) == (dense is None) == rejected


@pytest.mark.parametrize("defect", ["repeated column", "ill-scaled column", "wide"])
def test_sparse_lstsq_rank_gap_above_the_dense_limit(defect):
    from eitkit.multifreq import DENSE_EIG_COLUMNS, GRAM_TOL, _sparse_lstsq

    rng = np.random.default_rng(7)
    k = DENSE_EIG_COLUMNS + 8
    design = sparse.vstack([sparse.random(2 * k, k, density=4 / k, rng=rng), sparse.identity(k)]).tocsc()
    if defect == "repeated column":
        design = sparse.hstack([design, design[:, [5]]]).tocsc()
    elif defect == "ill-scaled column":
        factors = np.ones(k)
        factors[5] = 1e-7
        design = (design @ sparse.diags_array(factors)).tocsc()
    else:  # 3k columns over k rows
        design = design.T.tocsc()
    assert design.shape[1] > DENSE_EIG_COLUMNS
    s = np.linalg.svd(design.toarray(), compute_uv=False)
    gap = design.shape[1] - int(np.count_nonzero(s * s > GRAM_TOL * s[0] ** 2))
    with pytest.raises(IdentifiabilityError) as err:
        _sparse_lstsq(design, rng.standard_normal(design.shape[0]))
    assert err.value.rank_gap == gap
    assert gap == (2 * k if defect == "wide" else 1)


def two_pass_recover(S_hat, mesh):
    """Oracle: ``recover_conductivity`` as it was before the single pass and
    the least-squares core, as ``(sigma, fit_residual, sensitivity,
    operator_condition)``. The symmetry check and the off-pattern squares
    each read ``S_hat`` in column blocks of ``eitkit.errors._BLOCK_BYTES``,
    and the pattern entries are gathered by fancy indexing. The figures
    follow the core's size rule: one dense ``eigvalsh`` of the Gram matrix
    for at most ``DENSE_EIG_COLUMNS`` elements, ARPACK above."""
    from eitkit.forward import _element_design

    def column_blocks(S_hat):
        n = S_hat.shape[0]
        width = max(1, eitkit.errors._BLOCK_BYTES // (8 * n))
        for start in range(0, n, width):
            yield start, S_hat[:, start:start + width], S_hat[start:start + width, :].T

    def largest_eigenvalue(operator, v0):
        return float(eigsh(operator, k=1, which="LM", v0=v0, return_eigenvectors=False)[0])

    S_hat = np.asarray(S_hat, dtype=float)
    n = mesh.n_nodes
    if S_hat.shape != (n, n):
        raise DimensionError(f"S_hat has shape {S_hat.shape}, mesh implies ({n}, {n})")
    scale = float(np.linalg.norm(S_hat)) or 1.0
    asymmetry = sum(float(np.vdot(d, d)) for d in (a - b for _, a, b in column_blocks(S_hat)))
    if np.sqrt(asymmetry) > 1e-6 * scale:
        raise DomainError("S_hat must be symmetric within 1e-6 relative")
    independent_entries = n * (n + 1) // 2
    if mesh.n_elements > independent_entries:
        raise IdentifiabilityError(
            f"{mesh.n_elements} elements exceed the {independent_entries} independent matrix entries",
            rank_gap=mesh.n_elements - independent_entries,
        )
    design = _element_design(mesh)
    gram = (design.T @ design).tocsc()
    try:
        lu = splu(gram)
    except RuntimeError:
        lu = None
    if mesh.n_elements <= eitkit.multifreq.DENSE_EIG_COLUMNS:  # the core's size rule for its figures
        w = np.linalg.eigvalsh(gram.toarray())
        lam_min, lam_max = w[0], w[-1]
    elif lu is not None:
        v0 = np.random.default_rng(0).standard_normal(mesh.n_elements)
        lam_max = largest_eigenvalue(gram, v0)
        lam_min = 1.0 / largest_eigenvalue(LinearOperator(gram.shape, matvec=lu.solve, dtype=float), v0)
    if lu is None or not lam_min > 1e-12 * lam_max:
        s = np.linalg.svd(design.toarray(), compute_uv=False)
        rank = int(np.count_nonzero(s * s > 1e-12 * s[0] ** 2))
        raise IdentifiabilityError(
            "assembly operator is rank deficient; conductivity is not identifiable",
            rank_gap=max(mesh.n_elements - rank, 1),
        )
    _, _, rows, indptr, _ = mesh._placement
    cols = np.repeat(np.arange(n), np.diff(indptr))
    target = 0.5 * (S_hat[rows, cols] + S_hat[cols, rows])
    sigma = lu.solve(design.T @ target)
    for _ in range(2):
        sigma += lu.solve(design.T @ (target - design @ sigma))
    misfit = target - design @ sigma
    off_pattern = 0.0
    for start, a, b in column_blocks(S_hat):
        sym = 0.5 * (a + b)
        on = slice(indptr[start], indptr[start + sym.shape[1]])
        sym[rows[on], cols[on] - start] = 0.0
        off_pattern += float(np.vdot(sym, sym))
    return sigma, float(np.sqrt(off_pattern + misfit @ misfit)), float(1.0 / np.sqrt(lam_min)), float(
        np.sqrt(lam_max / lam_min)
    )


def recovery_outcome(recover, S_hat, mesh):
    """``recover(S_hat, mesh)``, or the class, message and rank gap of the
    :class:`EitError` it raises."""
    try:
        return recover(S_hat, mesh)
    except EitError as exc:
        return type(exc), str(exc), getattr(exc, "rank_gap", None)


@settings(max_examples=60, deadline=None)
@given(
    refine=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-8, 1e-4]),
    skew=st.sampled_from([0.0, 1e-9]),
    width=st.sampled_from([1, 7, None]),
)
def test_single_pass_recovery_equals_the_two_pass_oracle_bitwise(refine, seed, noise, skew, width):
    mesh = build_disk_mesh(1.0, refine)
    n = mesh.n_nodes
    rng = np.random.default_rng(seed)
    S = assemble(mesh, rng.uniform(0.5, 3.0, size=mesh.n_elements)).S.toarray()
    E = rng.standard_normal(S.shape)
    # symmetric noise, plus an asymmetric part well inside the 1e-6 symmetry rule
    S_hat = S + np.abs(S).max() * (noise * 0.5 * (E + E.T) + skew * rng.standard_normal(S.shape))
    asymmetric = S_hat.copy()
    asymmetric[n - 1, 0] += 1e-5 * np.linalg.norm(S_hat)  # in the last block
    with pytest.MonkeyPatch.context() as patch:
        if width is not None:  # blocks of `width` columns; None keeps the default
            patch.setattr(eitkit.errors, "_BLOCK_BYTES", 8 * n * width)
        recovered = recover_conductivity(S_hat, mesh)
        sigma, fit_residual, sensitivity, condition = two_pass_recover(S_hat, mesh)
        assert_array_equal(recovered.sigma, sigma)
        assert recovered.fit_residual == fit_residual
        assert recovered.sensitivity == sensitivity
        assert recovered.operator_condition == condition
        want = recovery_outcome(two_pass_recover, asymmetric, mesh)
        assert want[0] is DomainError
        assert recovery_outcome(recover_conductivity, asymmetric, mesh) == want


def test_recovery_errors_equal_the_two_pass_oracle(square_mesh):
    triangle = (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.0, 1.0))
    boundary, electrodes = (0, 1, 2), (Electrode(0, 0), Electrode(1, 1))
    crowded = Mesh(triangle, tuple(Element(e, (0, 1, 2)) for e in range(7)), boundary, electrodes)
    duplicate = Mesh(triangle, (Element(0, (0, 1, 2)), Element(1, (0, 1, 2))), boundary, electrodes)
    sliver = Mesh(
        (Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 0.5, 1e-8), Node(3, 0.5, 1.0)),
        (Element(0, (0, 1, 2)), Element(1, (0, 2, 3)), Element(2, (2, 1, 3))),
        (0, 1, 3),
        electrodes,
    )
    asymmetric = np.eye(3)
    asymmetric[0, 1] = 1.0
    cases = [
        (np.eye(3), square_mesh, DimensionError),
        (asymmetric, crowded, DomainError),  # the symmetry check comes before the entry count
        (np.eye(3), crowded, IdentifiabilityError),
        (assemble(duplicate, np.ones(2)).S.toarray(), duplicate, IdentifiabilityError),
        (assemble(sliver, np.ones(3)).S.toarray(), sliver, IdentifiabilityError),
    ]
    for S_hat, mesh, error in cases:
        want = recovery_outcome(two_pass_recover, S_hat, mesh)
        assert want[0] is error
        assert recovery_outcome(recover_conductivity, S_hat, mesh) == want


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
    recovered = recover_conductivity(result.S_hat, mesh)
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


def test_simulated_labels_survive_save_and_load_on_a_mesh_whose_ids_are_not_rows(tmp_path):
    disk = build_disk_mesh(1.0, 0)
    mesh = Mesh(
        tuple(Node(n.id + 100, n.x, n.y) for n in disk.nodes),
        tuple(Element(e.id, tuple(v + 100 for v in e.nodes)) for e in disk.elements),
        tuple(v + 100 for v in disk.boundary_nodes),
        tuple(Electrode(el.id, el.node + 100) for el in disk.electrodes),
    )
    config = SweepConfig((100.0, 4000.0), nodal_patterns(mesh.n_nodes, 3), ground="rotate")
    stacked = simulate_sweep(mesh, TissueModel.uniform(mesh.n_elements, 2.0, 1.0, 1e-4), config)
    assert [label[2] for label in stacked.labels] == [100 + col % mesh.n_nodes for col in range(6)]
    assert {tuple(map(type, label)) for label in stacked.labels} == {(float, int, int)}
    phi_path, f_path = tmp_path / "phi.csv", tmp_path / "f.csv"
    save_stacked_system(stacked, phi_path, f_path)
    assert load_stacked_system(phi_path, f_path).labels == stacked.labels


@pytest.mark.parametrize(
    "comment",
    ["label,1000", "label,1000,0,x", "sigma_spread,abc", "sigma_spread,1,2", "sigma_spread,0.5"],
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
    "bad, message",
    [
        ("element 3: 1 x 0", "bad element override"),
        ("element 3 1 1 0", "bad element override"),
        ("element 3: 1 1", "bad element override"),
        ("element 3: 1 1 0 0", "bad element override"),
        ("element 0: 1 1 0", "element override 0 repeated"),
        ("sigma0 = 2", "model key 'sigma0' repeated"),
    ],
    ids=["bad-float", "no-colon", "three-fields", "five-fields", "repeated-id", "repeated-key"],
)
def test_bad_model_line_among_overrides_is_named_by_its_line(tmp_path, bad, message):
    mesh = build_disk_mesh(1.0, 1)
    overrides = [f"element {e}: 2 1 1e-4" for e in range(mesh.n_elements)]
    path = tmp_path / "sweep.cfg"
    head = "[frequencies]\n1000\n[patterns]\n0: 1.0, 4: -1.0\n[model]\n" + MODEL
    path.write_text(head + "\n".join(overrides) + "\n")
    _, tissue = load_sweep_config(path, mesh)
    assert_array_equal(tissue.sigma0, 2.0)
    overrides[10] = bad
    overrides[20] = "element 5: 1 1"  # a later bad line must not win
    path.write_text(head + "\n".join(overrides) + "\nunknown = 1\n")
    with pytest.raises(FormatError, match=message) as err:
        load_sweep_config(path, mesh)
    assert err.value.line_no == 9 + 10


@pytest.mark.parametrize(
    "sweep, model, line_no",
    [
        ("pairng = zip\n", MODEL, 6),
        ("pairing zip\n", MODEL, 6),
        ("pairing = cross\nground = 1.5\n", MODEL, 7),
        ("pairing = cross\nground = 99\n", MODEL, 7),
        ("", MODEL + "element 999: 1 1 0\n", 10),
        ("pairing = cross\n", "sigma0 = 1.0\ntau = 0\n", 7),
    ],
    ids=["unknown-key", "no-equals", "bad-ground", "unknown-ground", "element-out-of-range",
         "missing-model-key"],
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


@pytest.mark.parametrize(
    "frequencies, sweep, line_no, message",
    [
        ("1000\n2000\n1000\n", "", 4, "frequencies must be distinct"),
        ("1000\n-5\n", "", 3, "frequencies must be positive and finite"),
        ("0\n", "", 2, "frequencies must be positive and finite"),
        ("nan\n", "", 2, "frequencies must be positive and finite"),
        ("1000\ninf\n", "", 3, "frequencies must be positive and finite"),
        ("1000\n", "ground = 2\npairing = foo\n", 7, "pairing must be 'cross' or 'zip', got 'foo'"),
    ],
    ids=["repeated-frequency", "negative-frequency", "zero-frequency", "nan-frequency",
         "inf-frequency", "bad-pairing"],
)
def test_sweep_value_errors_are_format_errors_at_their_line(tmp_path, frequencies, sweep, line_no, message):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "[frequencies]\n" + frequencies + "[patterns]\n0: 1.0, 4: -1.0\n[sweep]\n" + sweep + "[model]\n" + MODEL
    )
    with pytest.raises(FormatError) as err:
        load_sweep_config(path, build_disk_mesh(1.0, 0))
    assert err.value.line_no == line_no
    assert type(err.value.__cause__) is DomainError
    assert str(err.value.__cause__) == message
    assert str(err.value) == f"{message} (line {line_no})"


@pytest.mark.parametrize(
    "key, value, override, message",
    [
        ("sigma0", "-1", False, "sigma0 must be positive and finite everywhere"),
        ("sigma_inf", "inf", False, "sigma_inf must be positive and finite everywhere"),
        ("tau", "nan", False, "tau must be non-negative and finite everywhere"),
        ("tau", "-1e-4", False, "tau must be non-negative and finite everywhere"),
        ("sigma_inf", "-1", True, "sigma_inf must be positive and finite everywhere"),
    ],
    ids=["negative-sigma0", "infinite-sigma_inf", "nan-tau", "negative-tau", "override"],
)
def test_model_value_errors_are_format_errors_at_their_line(tmp_path, key, value, override, message):
    mesh = build_disk_mesh(1.0, 0)
    values = {"sigma0": "1.0", "sigma_inf": "1.0", "tau": "0"}
    model = [f"{k} = {v}" for k, v in values.items()]
    values[key] = value
    if override:
        model.append("element 3: " + " ".join(values.values()))
    else:
        model[list(values).index(key)] = f"{key} = {value}"
    line_no = 9 if override else 6 + list(values).index(key)
    path = tmp_path / "sweep.cfg"
    path.write_text("[frequencies]\n1000\n[patterns]\n0: 1.0, 4: -1.0\n[model]\n" + "\n".join(model) + "\n")
    with pytest.raises(FormatError) as err:
        load_sweep_config(path, mesh)
    assert err.value.line_no == line_no
    assert type(err.value.__cause__) is DomainError
    assert str(err.value.__cause__) == message
    assert str(err.value) == f"{message} (line {line_no})"
    # the loader and the model reject a value by one rule, with one message
    with pytest.raises(DomainError) as err:
        TissueModel.uniform(mesh.n_elements, **{k: float(v) for k, v in values.items()})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "model, line_no, message",
    [
        ("element 3: 1 1 -1\nelement 4: 1 -1 0\n", 9, "tau must be non-negative"),
        ("element 3: 1 1 0\nelement 4: 1 -1 nan\n", 10, "sigma_inf must be positive"),
        ("element 3: 1 -1 0\nelement 4: 1 x 0\n", 10, "bad element override"),
        ("element 4: 1 1 0\nelement 4: 1 1 nan\n", 10, "element override 4 repeated"),
    ],
    ids=["first-bad-line", "first-bad-value-of-a-line", "text-before-values", "repeat-before-value"],
)
def test_model_lines_are_read_then_their_values_checked(tmp_path, model, line_no, message):
    mesh = build_disk_mesh(1.0, 1)
    path = tmp_path / "sweep.cfg"
    path.write_text("[frequencies]\n1000\n[patterns]\n0: 1.0, 4: -1.0\n[model]\n" + MODEL + model)
    with pytest.raises(FormatError, match=message) as err:
        load_sweep_config(path, mesh)
    assert err.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("[frequencies]\n1000\n2000\n[patterns]\n0: 1.0, 4: -1.0\n[sweep]\nground = 0\npairing = zip\n",
         8, "zip pairing needs equal counts, got 2 frequencies and 1 patterns"),
        ("[frequencies]\n1000\n[sweep]\npairing = cross\n", None, "[patterns] section is missing or empty"),
        ("[patterns]\n0: 1.0, 4: -1.0\n", None, "[frequencies] section is missing or empty"),
        ("[frequencies]\n1000\n[patterns]\n# none yet\n", 3, "[patterns] section is missing or empty"),
        ("[frequencies]\n[patterns]\n0: 1.0, 4: -1.0\n", 1, "[frequencies] section is missing or empty"),
    ],
    ids=["zip-unequal-counts", "no-patterns-section", "no-frequencies-section", "empty-patterns",
         "empty-frequencies"],
)
def test_sweep_plan_errors_are_format_errors(tmp_path, text, line_no, message):
    path = tmp_path / "sweep.cfg"
    path.write_text(text + "[model]\n" + MODEL)
    with pytest.raises(FormatError) as err:
        load_sweep_config(path, build_disk_mesh(1.0, 0))
    assert err.value.line_no == line_no
    if line_no is None:
        assert str(err.value) == message
    else:
        assert str(err.value) == f"{message} (line {line_no})"
    if message.startswith("zip"):
        assert type(err.value.__cause__) is DomainError
        assert str(err.value.__cause__) == message


# ------------------------------------------------ pattern resolution ----


def oracle_parse_pattern_line(line, mesh, line_no):
    """The pattern-line parser before patterns were checked at read time:
    node entries in line order, then each electrode's total; unknown
    electrodes of electrode-only lines and the currents of nodal lines
    were left to :func:`oracle_resolve`."""
    from eitkit.multifreq import _pattern_entry

    electrode_entries = {}
    nodal = np.zeros(mesh.n_nodes)
    has_nodal = False
    for chunk in line.split(","):
        if not chunk.strip():
            continue
        is_node, target, amp = _pattern_entry(chunk, line_no)
        if is_node:
            has_nodal = True
            if target not in mesh.node_index:
                raise FormatError(f"unknown node {target}", line_no=line_no)
            nodal[mesh.node_index[target]] += amp
        else:
            electrode_entries[target] = electrode_entries.get(target, 0.0) + amp
    if has_nodal:
        for eid, amp in electrode_entries.items():
            if eid not in mesh.electrode_map:
                raise FormatError(f"unknown electrode {eid}", line_no=line_no)
            nodal[mesh.node_index[mesh.electrode_map[eid]]] += amp
        return nodal
    if not electrode_entries:
        raise FormatError("empty pattern line", line_no=line_no)
    return CurrentPattern(electrode_entries)


def oracle_resolve(mesh, pattern):
    """The per-injection resolver ``simulate_sweep`` called before it
    resolved each pattern once."""
    from eitkit import UnknownElectrodeError
    from eitkit.forward import _current_fault

    if isinstance(pattern, CurrentPattern):
        F = np.zeros(mesh.n_nodes)
        for eid, current in pattern.currents.items():
            if eid not in mesh.electrode_map:
                raise UnknownElectrodeError(f"electrode {eid} is not on the mesh")
            F[mesh.node_index[mesh.electrode_map[eid]]] += current
        return F
    f = np.asarray(pattern, dtype=float)
    if f.shape != (mesh.n_nodes,):
        raise DimensionError(f"nodal pattern must have length {mesh.n_nodes}, got shape {f.shape}")
    fault = _current_fault(f[:, None])
    if fault is not None:
        raise fault[1]
    return f


AMPS = st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, -2.5, 0.1, 0.2, -0.3, 1e-13] * 3
                       + [0.0, float("nan"), float("inf")])


@st.composite
def pattern_line(draw, mesh):
    """A pattern line on ``mesh`` of electrode entries, node entries or
    both, with repeated targets, ids off the mesh, zero and non-finite
    currents, and often a last entry that makes them cancel."""
    # electrodes 0-3 sit on nodes of the node pool, so node and electrode entries share targets
    electrodes = st.sampled_from(sorted(mesh.electrode_map)[:4] * 6 + [99])
    shared = [mesh.electrode_map[e] for e in sorted(mesh.electrode_map)[:4]]
    nodes = st.sampled_from((shared + [mesh.nodes[0].id]) * 6 + [-7])
    kinds = draw(st.sampled_from([(False,), (True,), (False, True)]))
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        is_node = draw(st.sampled_from(kinds))
        entries.append((is_node, draw(nodes if is_node else electrodes), draw(AMPS)))
    if entries and draw(st.booleans()):
        is_node, target, _ = draw(st.sampled_from(entries))
        entries.append((is_node, target, -sum(amp for _, _, amp in entries)))
    line = ", ".join(f"{'node ' if is_node else ''}{target}: {amp!r}" for is_node, target, amp in entries)
    return line or ","


@st.composite
def pattern_lines(draw):
    """A refine 0-1 disk and one :func:`pattern_line` on it."""
    mesh = build_disk_mesh(1.0, draw(st.integers(0, 1)))
    return mesh, draw(pattern_line(mesh))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
@settings(max_examples=400, deadline=None)
@given(case=pattern_lines())
def test_pattern_line_matches_the_oracle_or_is_a_line_numbered_error(case):
    from eitkit.multifreq import _parse_patterns

    mesh, line = case
    try:
        want = oracle_parse_pattern_line(line, mesh, 7)
        oracle_resolve(mesh, want)
    except eitkit.EitError:
        with pytest.raises(FormatError) as err:
            _parse_patterns([(7, line)], mesh)
        assert err.value.line_no == 7
        return
    [got] = _parse_patterns([(7, line)], mesh)
    assert_same_pattern(got, want)


def assert_same_pattern(got, want):
    if isinstance(want, CurrentPattern):
        assert isinstance(got, CurrentPattern)
        assert list(got.currents.items()) == list(want.currents.items())
    else:
        assert got.tobytes() == want.tobytes()


@st.composite
def pattern_files(draw):
    """A refine 0-1 disk and 1-6 :func:`pattern_line` lines on it."""
    mesh = build_disk_mesh(1.0, draw(st.integers(0, 1)))
    return mesh, draw(st.lists(pattern_line(mesh), min_size=1, max_size=6))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
@settings(max_examples=200, deadline=None)
@given(case=pattern_files())
def test_loader_names_the_first_line_the_oracle_rejects(tmp_path_factory, case):
    mesh, lines = case
    path = tmp_path_factory.mktemp("sweep") / "sweep.cfg"
    path.write_text("[frequencies]\n1000\n[patterns]\n" + "\n".join(lines) + "\n[model]\n" + MODEL)
    want = []
    for line_no, line in enumerate(lines, start=4):
        try:
            want.append(oracle_parse_pattern_line(line, mesh, line_no))
            oracle_resolve(mesh, want[-1])
        except eitkit.EitError:
            with pytest.raises(FormatError) as err:
                load_sweep_config(path, mesh)
            assert err.value.line_no == line_no
            return
    config, _ = load_sweep_config(path, mesh)
    assert len(config.patterns) == len(want)
    for got, pattern in zip(config.patterns, want):
        assert_same_pattern(got, pattern)


@pytest.mark.parametrize(
    "line, cause",
    [
        ("0: 1.0, 99: -1.0", "UnknownElectrodeError"),
        ("node 0: 1.0, 99: -1.0", "UnknownElectrodeError"),
        ("node 0: 1.0, node 99: -1.0", None),
        ("0: 1.0, 4: 0.0", "DomainError"),
        ("node 3: 0.0, node 4: 0.0", "DomainError"),
        ("0: nan, 4: 1.0", "DomainError"),
        ("node 0: inf, 4: -1.0", "DomainError"),
        ("0: 1.0, 4: -0.5", "CompatibilityError"),
        ("node 0: 1.0, node 4: -0.5", "CompatibilityError"),
        (" , ,", "DomainError"),
    ],
    ids=["unknown-electrode", "mixed-unknown-electrode", "unknown-node", "one-nonzero",
         "nodal-all-zero", "nan", "mixed-inf", "not-cancelling", "nodal-not-cancelling", "empty"],
)
def test_malformed_pattern_line_is_a_format_error_with_its_line(tmp_path, line, cause):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"[frequencies]\n1000\n[patterns]\n0: 1.0, 4: -1.0\n{line}\n[model]\n{MODEL}")
    with pytest.raises(FormatError) as err:
        load_sweep_config(path, build_disk_mesh(1.0, 0))
    assert err.value.line_no == 5
    if cause is not None:
        assert type(err.value.__cause__).__name__ == cause
        assert str(err.value) == f"{err.value.__cause__} (line 5)"


def test_simulate_sweep_resolves_each_pattern_once(monkeypatch):
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.uniform(mesh.n_elements, 2.0, 1.0, 1e-4)
    patterns = [CurrentPattern({k: 1.0, (k + 4) % 8: -1.0}) for k in range(4)]
    real = eitkit.multifreq._nodal_load
    resolved = []

    def counting(mesh, patterns, *rest, **options):
        resolved.append(list(patterns))
        return real(mesh, patterns, *rest, **options)

    monkeypatch.setattr(eitkit.multifreq, "_nodal_load", counting)
    stacked = simulate_sweep(mesh, tissue, SweepConfig((1e2, 1e3, 1e4), patterns, ground="rotate"))
    assert stacked.n_injections == 12
    assert resolved == [patterns]


# ------------------------------------------------------- load table ----


def per_pattern_nodal_load(mesh, pattern):
    """The one-pattern resolver the batched table replaced: a nodal
    vector with its current checks, or each electrode's current at its
    node in mapping order."""
    from eitkit import UnknownElectrodeError

    nodal = not isinstance(pattern, CurrentPattern)
    F = np.array(pattern, dtype=float) if nodal else np.zeros(mesh.n_nodes)
    if F.shape != (mesh.n_nodes,):
        raise DimensionError(f"nodal pattern must have length {mesh.n_nodes}, got shape {F.shape}")
    for eid, current in ({} if nodal else pattern.currents).items():
        if eid not in mesh.electrode_map:
            raise UnknownElectrodeError(f"electrode {eid} is not on the mesh")
        F[mesh.node_index[mesh.electrode_map[eid]]] += current
    if nodal:
        if not np.isfinite(F).all():
            raise DomainError("pattern currents must be finite")
        if np.count_nonzero(F) < 2:
            raise DomainError("a drive pattern needs at least two nonzero currents")
        total = float(F.sum())
        if abs(total) > 1e-12:
            raise CompatibilityError(f"injected currents must sum to zero within 1e-12; got {total:g}")
    return F


class Blamed(Exception):
    def __init__(self, column, error):
        super().__init__(column, error)
        self.column, self.error = column, error


def load_outcome(resolve):
    """The load table ``resolve()`` returns, or ``(column, class, message)``
    of the first failing pattern."""
    try:
        return resolve()
    except Blamed as exc:
        assert exc.__cause__ is exc.error
        return exc.column, type(exc.error), str(exc.error)


@st.composite
def pattern_batches(draw):
    """A refine-1 disk and 1-12 patterns: electrode patterns and nodal
    vectors, some with an electrode off the mesh, a wrong length, a lone
    or non-finite current, or no cancelling."""
    mesh = build_disk_mesh(1.0, 1)
    n = mesh.n_nodes
    electrodes = st.sampled_from(sorted(mesh.electrode_map) * 4 + [99])
    amps = st.sampled_from([1.0, 0.5, 0.25, 2.0, 1e-13, 0.0, float("nan")])
    patterns = []
    for _ in range(draw(st.integers(1, 12))):
        a, b = draw(electrodes), draw(electrodes)
        amp = draw(amps)
        mapping = {a: amp, b: -draw(st.sampled_from([amp, 1.0]))} if a != b else {a: amp}
        kind = draw(st.sampled_from(["electrodes", "nodal", "short"]))
        if kind == "electrodes":
            try:
                patterns.append(CurrentPattern(mapping))
            except eitkit.EitError:
                patterns.append(CurrentPattern({0: 1.0, 1: -1.0}))
            continue
        f = np.zeros(n if kind != "short" else n - 1)
        i, j = draw(st.integers(0, f.size - 1)), draw(st.integers(0, f.size - 1))
        f[i] += draw(amps)
        f[j] -= draw(st.sampled_from([f[i], 1.0]))
        patterns.append(f)
    return mesh, patterns


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(case=pattern_batches())
def test_load_table_equals_the_per_pattern_resolver(case):
    from eitkit.forward import _nodal_load

    mesh, patterns = case

    def one_at_a_time():
        columns = []
        for p, pattern in enumerate(patterns):
            try:
                columns.append(per_pattern_nodal_load(mesh, pattern))
            except eitkit.EitError as exc:
                raise Blamed(p, exc) from exc
        return np.stack(columns, axis=1)

    want = load_outcome(one_at_a_time)
    got = load_outcome(lambda: _nodal_load(mesh, patterns, blame=Blamed))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.flags.f_contiguous
        assert_array_equal(got, want)


GOOD_LINES = [f"node {k}: 1, node {(k + 7) % 81}: -1" for k in range(81)]


@pytest.mark.parametrize(
    "bad, cause",
    [
        ("node 3: 1, node 9: -0.5", "CompatibilityError"),
        ("node 3: 1", "DomainError"),
        ("node 3: 1, node 999: -1", None),
        ("node 3: 1, 99: -1", "UnknownElectrodeError"),
        ("99: 1, 0: -1", "UnknownElectrodeError"),
        ("node 3: nan, node 9: -1", "DomainError"),
        ("node 3: 1, node 9: x", None),
    ],
    ids=["not-cancelling", "one-entry", "unknown-node", "unknown-electrode",
         "electrode-line-unknown-electrode", "nan", "bad-amps"],
)
def test_one_bad_pattern_line_among_81_is_named_by_its_line(tmp_path, bad, cause):
    mesh = build_disk_mesh(1.0, 2)
    lines = list(GOOD_LINES)
    lines[40] = bad
    path = tmp_path / "sweep.cfg"
    for later in ("node 5: 2", "node 5: x", "node 5 1"):  # a later bad line must not win
        lines[60] = later
        path.write_text("[frequencies]\n1000\n[patterns]\n" + "\n".join(lines) + "\n[model]\n" + MODEL)
        with pytest.raises(FormatError) as err:
            load_sweep_config(path, mesh)
        assert err.value.line_no == 4 + 40
        if cause is None:
            assert err.value.__cause__ is None
        else:
            assert type(err.value.__cause__).__name__ == cause
            assert str(err.value) == f"{err.value.__cause__} (line 44)"


def test_loaded_patterns_keep_their_types_and_values(tmp_path):
    mesh = build_disk_mesh(1.0, 2)
    path = tmp_path / "sweep.cfg"
    lines = [
        "0: 1, 4: -0.5, 4: -0.5",
        "node 0: 1, node 0: 0.25, 2: -1.25",
        "node 0: 0.5, node 0: 1, node 5: -0.5, node 5: -1",
    ] + GOOD_LINES[:3]
    path.write_text("[frequencies]\n1000\n[patterns]\n" + "\n".join(lines) + "\n[model]\n" + MODEL)
    config, _ = load_sweep_config(path, mesh)
    table = config.patterns[1].base  # read into one table, not line by line
    assert table is not None and all(pattern.base is table for pattern in config.patterns[1:])
    assert config.patterns[0] == CurrentPattern({0: 1.0, 4: -1.0})
    want = np.zeros(mesh.n_nodes)
    want[mesh.node_index[0]] += 1.0
    want[mesh.node_index[0]] += 0.25
    want[mesh.node_index[mesh.electrode_map[2]]] += -1.25
    assert config.patterns[1].tobytes() == want.tobytes()
    for line, pattern in zip(lines, config.patterns):
        [alone] = eitkit.multifreq._parse_patterns([(1, line)], mesh)
        assert type(pattern) is type(alone)  # a CurrentPattern line stays a CurrentPattern
        if isinstance(alone, CurrentPattern):
            assert pattern == alone
        else:
            assert pattern.tobytes() == alone.tobytes()


def test_reconstruct_multifreq_resolves_in_one_call_per_stage(tmp_path, monkeypatch, capsys):
    from eitkit.cli import main

    mesh = build_disk_mesh(1.0, 2)
    mesh_path, sweep_path = tmp_path / "disk.mesh", tmp_path / "sweep.cfg"
    eitkit.save_mesh(mesh, mesh_path)
    tissue = TissueModel.dispersionless(np.random.default_rng(1).uniform(0.5, 3.0, mesh.n_elements))
    save_sweep_config(full_rank_sweep(mesh), tissue, sweep_path)
    real = eitkit.multifreq._nodal_load
    calls = []

    def counting(mesh, patterns, *rest, **options):
        calls.append(len(patterns))
        return real(mesh, patterns, *rest, **options)

    monkeypatch.setattr(eitkit.multifreq, "_nodal_load", counting)
    code = main(["reconstruct", "multifreq", "--mesh", str(mesh_path), "--sweep", str(sweep_path),
                 "--out-sigma", str(tmp_path / "s.csv"), "--out-image", str(tmp_path / "s.pgm")])
    assert code == 0, capsys.readouterr().err
    assert calls == [81]  # simulate_sweep; the loader checks its own table


def test_simulate_sweep_pattern_error_comes_before_any_assembly_error(monkeypatch):
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    good = nodal_patterns(mesh.n_nodes, 2)
    bad = good[0] * 2.0
    bad[0] = 5.0  # no longer cancels

    def failing_assembly(mesh, sigma):
        raise DomainError("assembly failed")

    monkeypatch.setattr(eitkit.multifreq, "assemble", failing_assembly)
    config = SweepConfig((250.0, 500.0, 750.0), (*good, bad), pairing="zip", ground=0)
    with pytest.raises(CompatibilityError, match=r"^injection 2 \(frequency 750 Hz, pattern 2\)"):
        simulate_sweep(mesh, tissue, config)


def test_sweep_ground_follows_the_integer_rule():
    mesh = build_disk_mesh(1.0, 0)
    tissue = TissueModel.dispersionless(np.ones(mesh.n_elements))
    pattern = CurrentPattern({0: 1.0, 4: -1.0})
    for ground in (True, np.array([1, 2]), 1.0):
        with pytest.raises(DomainError, match="ground must be"):
            SweepConfig((1.0,), (pattern,), ground=ground)
    stacked = simulate_sweep(mesh, tissue, SweepConfig((1.0,), (pattern,), ground=np.int64(2)))
    assert stacked.labels == ((1.0, 0, 2),)
    with pytest.raises(DomainError, match="ground node 99 is not a mesh node"):
        simulate_sweep(mesh, tissue, SweepConfig((1.0,), (pattern,), ground=np.int64(99)))


# ------------------------------------------------- input rejections ----


def test_stacked_system_owns_read_only_copies():
    Phi, F = np.eye(3), np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    labels = [(1.0, k, k) for k in range(3)]
    stacked = StackedSystem(Phi=Phi, F=F, labels=labels)
    Phi[0, 0], F[0, 0] = np.inf, 5.0  # a later write to the caller's arrays
    labels.append((2.0, 0, 0))  # and a later append to the caller's label list
    assert stacked.labels == ((1.0, 0, 0), (1.0, 1, 1), (1.0, 2, 2))
    assert_array_equal(stacked.Phi, np.eye(3))
    assert stacked.F[0, 0] == 1.0
    for values in (stacked.Phi, stacked.F):
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
    assert StackedSystem(Phi=stacked.Phi, F=stacked.F, labels=()).Phi is stacked.Phi  # read-only: kept


def read_file(text, reader, *args):
    """A call that writes ``text`` to a file and reads it with ``reader``."""
    def call(tmp):
        path = tmp / "input.txt"
        path.write_text(text)
        return reader(path, *args)
    return call


def read_stack(text):
    """A call that reads ``text`` as both the potential and the load file of a stack."""
    return read_file(text, lambda path: load_stacked_system(path, path))


def stack_with_labels(tmp):
    phi, f = tmp / "phi.csv", tmp / "f.csv"
    phi.write_text("# label,1000,0,0\n1,0\n0,1\n")
    f.write_text("1,1\n-1,-1\n")
    load_stacked_system(phi, f)


def tissue_for_another_mesh(tmp):
    mesh = build_disk_mesh(1.0, 0)
    config = SweepConfig((1000.0,), nodal_patterns(mesh.n_nodes, 1))
    simulate_sweep(mesh, TissueModel.dispersionless(np.ones(3)), config)


# case -> (call, error class, message, line)
REJECTIONS = {
    "stack-shapes": (lambda tmp: StackedSystem(np.eye(2), np.zeros((2, 3)), ()), DimensionError,
                     "Phi (2, 2) and F (2, 3) must have equal shapes", None),
    "stack-1d": (lambda tmp: StackedSystem(np.ones(3), np.zeros(3), ()), DimensionError,
                 "Phi must be an n x N matrix with n, N >= 1, got shape (3,)", None),
    "stack-3d": (lambda tmp: StackedSystem(np.ones((2, 2, 2)), np.zeros((2, 2, 2)), ()), DimensionError,
                 "Phi must be an n x N matrix with n, N >= 1, got shape (2, 2, 2)", None),
    "stack-empty": (lambda tmp: StackedSystem(np.ones((0, 0)), np.zeros((0, 0)), ()), DimensionError,
                    "Phi must be an n x N matrix with n, N >= 1, got shape (0, 0)", None),
    "stack-no-injections": (lambda tmp: StackedSystem(np.ones((3, 0)), np.zeros((3, 0)), ()), DimensionError,
                            "Phi must be an n x N matrix with n, N >= 1, got shape (3, 0)", None),
    "stack-loads-cancel": (lambda tmp: StackedSystem(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), ()),
                           CompatibilityError, "a load column sums to 1; columns must cancel", None),
    # finite loads whose column sum overflows: an infinite sum, with no RuntimeWarning
    "stack-load-sum-overflows": (read_file("1e308\n1e308\n", lambda path: load_stacked_system(path, path)),
                                 CompatibilityError, "a load column sums to inf; columns must cancel", None),
    "tissue-size": (tissue_for_another_mesh, DimensionError, "tissue model covers 3 elements, mesh has 8", None),
    "stack-label-count": (lambda tmp: StackedSystem(np.eye(2), np.zeros((2, 2)), ((1.0, 0, 0),)), DimensionError,
                          "1 labels for 2 injections", None),
    "stack-label-fields": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), ((1.0, 0),)), DimensionError,
                           "label (1.0, 0) is not a (frequency, pattern, ground) triple", None),
    # a label save_stacked_system would write and its loader reject, or fail to write
    "stack-label-pattern": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), ((1.0, 0.5, 0),)), DomainError,
                            "label (1.0, 0.5, 0) needs a finite real frequency, integer pattern and ground", None),
    "stack-label-frequency": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), (("a", 0, 0),)), DomainError,
                              "label ('a', 0, 0) needs a finite real frequency, integer pattern and ground", None),
    "stack-label-nan-frequency": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), ((float("nan"), 0, 0),)),
                                  DomainError,
                                  "label (nan, 0, 0) needs a finite real frequency, integer pattern and ground", None),
    "stack-spread-nan": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), (), sigma_spread=float("nan")),
                         DomainError, "sigma_spread must be a finite real number, at least 0, got nan", None),
    "stack-spread-negative": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), (), sigma_spread=-3.0),
                              DomainError, "sigma_spread must be a finite real number, at least 0, got -3.0", None),
    "stack-spread-not-real": (lambda tmp: StackedSystem(np.eye(1), np.zeros((1, 1)), (), sigma_spread="x"),
                              DomainError, "sigma_spread must be a finite real number, at least 0, got 'x'", None),
    # a lone spread, or a label, that the type would reject is an error at its comment's line
    "stack-file-spread-nan": (read_stack("1,-1\n# sigma_spread,nan\n-1,1\n"), FormatError,
                              "sigma_spread must be a finite real number, at least 0, got nan (line 2)", 2),
    "stack-file-spread-inf": (read_stack("# sigma_spread,inf\n1,-1\n-1,1\n"), FormatError,
                              "sigma_spread must be a finite real number, at least 0, got inf (line 1)", 1),
    "stack-file-spread-negative": (read_stack("# sigma_spread,-1\n1,-1\n-1,1\n"), FormatError,
                                   "sigma_spread must be a finite real number, at least 0, got -1.0 (line 1)", 1),
    "stack-file-label-inf": (read_stack("# label,1000,0,0\n# label,inf,1,0\n1,-1\n-1,1\n"), FormatError,
                             "label (inf, 1, 0) needs a finite real frequency, integer pattern and ground (line 2)", 2),
    "spread-no-frequency": (lambda tmp: TissueModel.dispersionless(np.ones(2)).spread([]), DomainError,
                            "spread needs at least one frequency", None),
    "spread-nan-frequency": (lambda tmp: TissueModel.dispersionless(np.ones(2)).spread([float("nan")]),
                             DomainError, "frequencies must be positive and finite", None),
    "spread-negative-frequency": (lambda tmp: TissueModel.dispersionless(np.ones(2)).spread([-5.0, 1e3]),
                                  DomainError, "frequencies must be positive and finite", None),
    "label-count": (stack_with_labels, FormatError, "1 labels for 2 injections", None),
    "model-key": (read_file("[frequencies]\n1000\n[patterns]\n0: 1, 4: -1\n[model]\n" + MODEL + "sigma1 = 1\n",
                            load_sweep_config, build_disk_mesh(1.0, 0)),
                  FormatError, "unknown model key 'sigma1' (line 9)", 9),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_multifreq_input_is_rejected_with_its_message(tmp_path, case):
    call, kind, message, line_no = REJECTIONS[case]
    with pytest.raises(kind) as err:
        call(tmp_path)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "line_no", None) == line_no


@pytest.mark.parametrize("value", ["nan", "1e999"])
@pytest.mark.parametrize("bad_file", ["phi", "f"])
def test_non_finite_stack_value_is_a_format_error_at_its_line(tmp_path, bad_file, value):
    paths = {"phi": tmp_path / "phi.csv", "f": tmp_path / "f.csv"}
    paths["phi"].write_text("# sigma_spread,0\n1,0\n0,1\n")
    paths["f"].write_text("1,0\n-1,0\n")
    text = paths[bad_file].read_text().splitlines()
    text[-1] = f"0,{value}"
    paths[bad_file].write_text("\n".join(text) + "\n")
    with pytest.raises(FormatError) as err:
        load_stacked_system(paths["phi"], paths["f"])
    line_no = len(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"non-finite value {float(value)!r} (line {line_no})"

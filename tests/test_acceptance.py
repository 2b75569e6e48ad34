"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
for passing tests)."""

import time

import numpy as np
import pytest

from eitkit import (
    ConductivityField,
    CurrentPattern,
    Inclusion,
    NoiseSpec,
    RankDeficiencyError,
    SourceSpec,
    SweepConfig,
    TissueModel,
    apply_pattern,
    assemble,
    build_disk_mesh,
    build_projector,
    correlation,
    extract_candidates,
    fitting_residual,
    generate_ensemble,
    generate_noise_ensemble,
    make_demo_fixture,
    make_phantom,
    recover_conductivity,
    simulate_sweep,
    solve_forward,
    stack_solve,
    third_cumulants,
    truncated_svd,
    uniform_field,
)
from conftest import random_orthonormal


def test_demo_reproduction_single_entry_candidates():
    """Criterion 1: 4-channel/3-source run yields a 12x9 factor and nine
    4x3 single-unit-entry candidates, entries within 1e-8, in under 1 s."""
    start = time.perf_counter()
    _, generator = make_demo_fixture()
    ensemble = generator()
    decomposition = truncated_svd(correlation(ensemble).matrix, 3)
    projector = build_projector(decomposition.R, 3)
    cset = extract_candidates(projector, 4, 3)
    elapsed = time.perf_counter() - start

    assert (projector.channel_count * projector.rank, projector.rank ** 2) == (12, 9)
    assert len(cset.candidates) == 9
    worst_unit = 0.0
    worst_off = 0.0
    for mat in cset.candidates:
        assert mat.shape == (4, 3)
        flat = np.abs(mat).ravel()
        peak = int(np.argmax(flat))
        worst_unit = max(worst_unit, abs(flat[peak] - 1.0))
        worst_off = max(worst_off, float(np.max(np.delete(flat, peak))))
    assert worst_unit <= 1e-8
    assert worst_off <= 1e-10
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE demo-reproduction: PASS "
        f"(factor 12x9, 9 candidates, unit-entry error {worst_unit:.2e}, "
        f"off-entry max {worst_off:.2e}, {elapsed * 1e3:.0f} ms)"
    )


def test_all_candidates_are_exact_minimizers():
    """Criterion 2: every one of the d**2 candidates fits the subspace with
    residual <= 1e-8 -- the single-injection solution set has d**2 members."""
    _, generator = make_demo_fixture()
    decomposition = truncated_svd(correlation(generator()).matrix, 3)
    cset = extract_candidates(build_projector(decomposition.R, 3), 4, 3)
    residuals = [fitting_residual(mat, decomposition) for mat in cset.candidates]
    assert len(residuals) == 9
    assert max(residuals) <= 1e-8
    print(
        f"\nACCEPTANCE non-uniqueness: PASS "
        f"(9 exact minimizers, max residual {max(residuals):.2e})"
    )


def test_multifreq_uniqueness_and_single_injection_failure():
    """Criterion 3: 25-node disk, dispersion-free model, 25 independent
    injections recover the phantom within 1e-6 per element in under 10 s;
    a single injection fails with the rank-deficiency error."""
    start = time.perf_counter()
    mesh = build_disk_mesh(1.0, 1)
    assert mesh.n_nodes == 25 and mesh.n_elements == 32

    centroids = mesh.coords[mesh.triangles].mean(axis=1)
    phantom = make_phantom(mesh, 1.0, [Inclusion(tuple(centroids[11]), 0.05, 10.0)])
    tissue = TissueModel.dispersionless(phantom.sigma)

    n = mesh.n_nodes
    patterns = []
    for k in range(n):
        f = np.zeros(n)
        f[k % n] += 1.0
        f[(k + 7) % n] -= 1.0
        patterns.append(f)
    config = SweepConfig((1000.0,), tuple(patterns), pairing="cross", ground="rotate")

    stacked = simulate_sweep(mesh, tissue, config)
    result = stack_solve(stacked)
    recovered = recover_conductivity(result.S_hat, mesh)
    rel = float(np.max(np.abs(recovered.sigma - phantom.sigma) / phantom.sigma))
    assert rel <= 1e-6

    single = SweepConfig((1000.0,), (patterns[0],), pairing="cross", ground=0)
    with pytest.raises(RankDeficiencyError) as err:
        stack_solve(simulate_sweep(mesh, tissue, single))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE multifreq-uniqueness: PASS "
        f"(max relative sigma error {rel:.2e} over 32 elements, "
        f"single injection rank {err.value.numerical_rank}/25, {elapsed:.2f} s)"
    )


def test_forward_solver_physics_suite():
    """Criterion 4: reciprocity <= 1e-9 relative on 20 random cases,
    pre-gauge row sums <= 1e-12, sigma-scaling inverse linearity <= 1e-10,
    brute-force oracle equivalence <= 1e-12 on <= 4-node meshes."""
    rng = np.random.default_rng(2024)

    worst_reciprocity = 0.0
    for _ in range(20):
        mesh = build_disk_mesh(1.0, int(rng.integers(1, 3)))
        field = ConductivityField(rng.uniform(0.5, 5.0, size=mesh.n_elements))
        a, b, c, d = (int(v) for v in rng.choice(8, size=4, replace=False))
        system = assemble(mesh, field)

        def transfer(drive, sense):
            grounded = apply_pattern(
                system, mesh, CurrentPattern({drive[0]: 1.0, drive[1]: -1.0}), 0
            )
            phi = solve_forward(grounded).phi
            emap = mesh.electrode_map
            return phi[mesh.node_index[emap[sense[0]]]] - phi[mesh.node_index[emap[sense[1]]]]

        v1 = transfer((a, b), (c, d))
        v2 = transfer((c, d), (a, b))
        worst_reciprocity = max(worst_reciprocity, abs(v1 - v2) / max(abs(v1), abs(v2)))
    assert worst_reciprocity <= 1e-9

    mesh = build_disk_mesh(1.0, 1)
    system = assemble(mesh, uniform_field(mesh, 1.0))
    row_sums = float(np.max(np.abs(system.S.toarray().sum(axis=1))))
    assert row_sums <= 1e-12

    pattern = CurrentPattern({1: 1.0, 5: -1.0})
    base = solve_forward(apply_pattern(system, mesh, pattern, 0)).phi
    worst_scaling = 0.0
    for c in (0.5, 2.0, 10.0):
        scaled = solve_forward(
            apply_pattern(assemble(mesh, uniform_field(mesh, c)), mesh, pattern, 0)
        ).phi
        mask = np.abs(base) > 1e-12
        worst_scaling = max(
            worst_scaling,
            float(np.max(np.abs(scaled[mask] - base[mask] / c) / np.abs(base[mask] / c))),
        )
    assert worst_scaling <= 1e-10

    from eitkit import Electrode, Element, Mesh, Node

    small_meshes = [
        Mesh(
            nodes=(Node(1, 0.0, 0.0), Node(2, 1.0, 0.0), Node(3, 0.0, 1.0)),
            elements=(Element(0, (1, 2, 3)),),
            boundary_nodes=(1, 2, 3),
            electrodes=(Electrode(0, 1), Electrode(1, 2), Electrode(2, 3)),
        ),
        Mesh(
            nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 1.0, 1.0), Node(3, 0.0, 1.0)),
            elements=(Element(0, (0, 1, 2)), Element(1, (0, 2, 3))),
            boundary_nodes=(0, 1, 2, 3),
            electrodes=(Electrode(0, 0), Electrode(1, 1), Electrode(2, 2), Electrode(3, 3)),
        ),
    ]
    worst_oracle = 0.0
    for small in small_meshes:
        for _ in range(5):
            field = ConductivityField(rng.uniform(0.2, 4.0, size=small.n_elements))
            ids = sorted(small.electrode_map)
            drive = rng.choice(ids, size=2, replace=False)
            grounded = apply_pattern(
                assemble(small, field),
                small,
                CurrentPattern({int(drive[0]): 1.0, int(drive[1]): -1.0}),
                small.nodes[int(rng.integers(small.n_nodes))].id,
            )
            phi = solve_forward(grounded).phi
            oracle = np.linalg.inv(grounded.S.toarray()) @ grounded.F
            worst_oracle = max(worst_oracle, float(np.max(np.abs(phi - oracle))))
    assert worst_oracle <= 1e-12

    print(
        f"\nACCEPTANCE forward-physics: PASS "
        f"(reciprocity {worst_reciprocity:.2e}, row sums {row_sums:.2e}, "
        f"scaling {worst_scaling:.2e}, oracle gap {worst_oracle:.2e})"
    )


def test_gaussian_suppression_and_skewed_oracle():
    """Criterion 5: third cumulants of pure Gaussian ensembles (white and
    colored) vanish within 5-sigma bounds at T = 1e5; a skewed rank-1
    ensemble matches the closed-form cumulant oracle within 5-sigma."""
    T = 100_000

    white = generate_noise_ensemble(4, NoiseSpec("white", 0.9), T=T, seed=101)
    tensor = third_cumulants(white).tensor
    centered = white.samples - white.samples.mean(axis=0)
    bound_white = 5.0 * np.sqrt(float(np.max(np.mean(centered**6, axis=0))) / T)
    white_max = float(np.max(np.abs(tensor)))
    assert white_max <= bound_white

    a_coeff = 0.6
    colored = generate_noise_ensemble(4, NoiseSpec("colored", 0.9, (a_coeff,)), T=T, seed=102)
    tensor = third_cumulants(colored).tensor
    centered = colored.samples - colored.samples.mean(axis=0)
    inflation = (1 + a_coeff) / (1 - a_coeff)  # sample correlation shrinks effective T
    bound_colored = 5.0 * np.sqrt(inflation * float(np.max(np.mean(centered**6, axis=0))) / T)
    colored_max = float(np.max(np.abs(tensor)))
    assert colored_max <= bound_colored

    mixing = np.array([[1.0], [-0.8], [0.5], [1.2]])
    skewed = generate_ensemble(
        mixing, SourceSpec(1, "skewed", variance=1.0, third_moment=2.0),
        NoiseSpec("white", 0.0), T=T, seed=103,
    )
    tensor = third_cumulants(skewed).tensor
    a = mixing[:, 0]
    x = skewed.samples @ a / float(a @ a)  # exact source series (noise-free rank-1)
    mu3 = float(np.mean((x - x.mean()) ** 3))
    oracle = mu3 * np.einsum("i,j,k->ijk", a, a, a)
    centered = skewed.samples - skewed.samples.mean(axis=0)
    bound_skew = 5.0 * np.sqrt(float(np.max(np.mean(centered**6, axis=0))) / T)
    # the sample-mu3 oracle removes estimator noise along a x a x a; the
    # population-oracle comparison stays a statistical 5-sigma check
    population = 2.0 * np.einsum("i,j,k->ijk", a, a, a)
    skew_sample_gap = float(np.max(np.abs(tensor - oracle)))
    skew_population_gap = float(np.max(np.abs(tensor - population)))
    assert skew_sample_gap <= 1e-10  # rank-1 data: exact closed form
    assert skew_population_gap <= bound_skew

    print(
        f"\nACCEPTANCE gaussian-suppression: PASS "
        f"(white {white_max:.2e} <= {bound_white:.2e}, "
        f"colored {colored_max:.2e} <= {bound_colored:.2e}, "
        f"skewed oracle gap {skew_sample_gap:.2e}, population gap "
        f"{skew_population_gap:.2e} <= {bound_skew:.2e})"
    )


def test_projector_spectrum_family():
    """Criterion 6: for random orthonormal R with M in {4,6,8}, d in
    {1,2,3}: eigenvalues in {0,1} within 1e-9 with multiplicities
    (d**2, Md - d**2) and idempotency |Q^2 - Q| <= 1e-9."""
    rng = np.random.default_rng(2025)
    worst_eig = 0.0
    worst_idem = 0.0
    cases = 0
    for m in (4, 6, 8):
        for d in (1, 2, 3):
            proj = build_projector(random_orthonormal(m, d, rng), d)
            w = np.sort(np.linalg.eigvalsh(proj.Q))
            null_dim, unit_dim = d * d, m * d - d * d
            worst_eig = max(
                worst_eig,
                float(np.max(np.abs(w[:null_dim]))),
                float(np.max(np.abs(w[null_dim:] - 1.0))),
            )
            assert np.all(np.abs(w[:null_dim]) <= 1e-9)
            assert np.all(np.abs(w[null_dim:] - 1.0) <= 1e-9)
            assert w.size == null_dim + unit_dim
            worst_idem = max(worst_idem, float(np.linalg.norm(proj.Q @ proj.Q - proj.Q)))
            cases += 1
    assert worst_idem <= 1e-9
    print(
        f"\nACCEPTANCE projector-spectrum: PASS "
        f"({cases} (M, d) cases, eigenvalue error {worst_eig:.2e}, "
        f"idempotency {worst_idem:.2e})"
    )

"""Each benchmark check accepts a correct result, including one in another
basis, and rejects a corrupted one."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import eitkit

import checks
import run
import spans
import workloads


def small_forward_sweep():
    mesh = eitkit.build_disk_mesh(1.0, 2, 8)
    sigma = np.random.default_rng(0).uniform(0.5, 3.0, mesh.n_elements)
    electrodes = sorted(mesh.electrode_map)
    currents = np.zeros((8, 8))
    patterns = []
    for k in range(8):
        currents[k, k], currents[k, (k + 1) % 8] = 1.0, -1.0
        patterns.append(eitkit.CurrentPattern({electrodes[k]: 1.0, electrodes[(k + 1) % 8]: -1.0}))
    inputs = SimpleNamespace(
        mesh=mesh, fields=[sigma], patterns=patterns, currents=currents, reference_pos=0
    )
    return inputs, workloads._forward_run(inputs, workloads.make_calls())


def test_reciprocity_accepts_forward_solution():
    inputs, sweeps = small_forward_sweep()
    assert workloads._forward_check(inputs, sweeps)["reciprocity_rel"] < 1e-12


def test_reciprocity_rejects_swapped_voltages():
    inputs, sweeps = small_forward_sweep()
    between_patterns = sweeps[0].copy()
    between_patterns[[0, 3]] = between_patterns[[3, 0]]
    between_electrodes = sweeps[0].copy()
    between_electrodes[:, [1, 4]] = between_electrodes[:, [4, 1]]
    for corrupted in (between_patterns, between_electrodes):
        with pytest.raises(checks.CheckError):
            workloads._forward_check(inputs, [corrupted])


def test_reciprocity_rejects_one_voltage_off_by_a_millionth():
    inputs, sweeps = small_forward_sweep()
    nudged = sweeps[0].copy()
    nudged[0, 4] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="reciprocity broken"):
        workloads._forward_check(inputs, [nudged])


def test_reciprocity_rejects_all_zero_voltages():
    inputs, sweeps = small_forward_sweep()
    with pytest.raises(checks.CheckError, match="transfer energy"):
        workloads._forward_check(inputs, [np.zeros_like(sweeps[0])])


def write_sigma(path, ids, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# header\nelement,sigma\n")
        fh.writelines(f"{e},{v:.17g}\n" for e, v in zip(ids, values))


def test_conductivity_check_accepts_exact_and_rejects_perturbed(tmp_path):
    sigma = np.random.default_rng(1).uniform(0.5, 3.0, 32)
    ids = list(range(32))
    inputs = SimpleNamespace(element_ids=ids, sigma=sigma, paths={"sigma": tmp_path / "s.csv"})
    write_sigma(inputs.paths["sigma"], ids, sigma)
    assert workloads._multifreq_check(inputs, (0, ""))["sigma_rel_err"] == 0.0

    perturbed = sigma.copy()
    perturbed[5] *= 1.0 + 1e-4
    write_sigma(inputs.paths["sigma"], ids, perturbed)
    with pytest.raises(checks.CheckError, match="recovered sigma"):
        workloads._multifreq_check(inputs, (0, ""))


def test_conductivity_check_rejects_failed_run_and_missing_elements(tmp_path):
    sigma = np.ones(4)
    inputs = SimpleNamespace(element_ids=[0, 1, 2, 3], sigma=sigma, paths={"sigma": tmp_path / "s.csv"})
    with pytest.raises(checks.CheckError, match="exit code 2"):
        workloads._multifreq_check(inputs, (2, "eitkit: error"))
    write_sigma(inputs.paths["sigma"], [0, 1, 2], sigma[:3])
    with pytest.raises(checks.CheckError, match="missing"):
        workloads._multifreq_check(inputs, (0, ""))


def small_subspace_fit(m=6, d=2):
    rng = np.random.default_rng(2)
    ensemble = eitkit.generate_ensemble(
        rng.normal(size=(m, d)), eitkit.SourceSpec(d, "symmetric-binary"),
        eitkit.NoiseSpec("white", 0.05), 400, 3,
    )
    statistic = eitkit.correlation(ensemble).matrix
    return workloads._subspace_fit(statistic, m, d, workloads.make_calls())


def test_candidate_check_accepts_any_orthonormal_basis_of_the_null_space():
    fit = small_subspace_fit()
    d = fit.R.shape[1]
    assert checks.candidates(fit.statistic, fit.R, fit.candidates, d)["candidate_residual_max"] < 1e-12

    rng = np.random.default_rng(4)
    rotate_r, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rotate_c, _ = np.linalg.qr(rng.normal(size=(d * d, d * d)))
    flat = np.stack([a.ravel() for a in fit.candidates])
    mixed = [row.reshape(fit.candidates[0].shape) for row in rotate_c @ flat]
    checks.candidates(fit.statistic, fit.R @ rotate_r, mixed, d)


def test_candidate_check_rejects_candidate_outside_span():
    fit = small_subspace_fit()
    m, d = fit.R.shape
    # unit norm and orthogonal to every subspace-consistent matrix, so only
    # the span test can catch it
    complement = np.linalg.svd(np.eye(m) - fit.R @ fit.R.T)[0][:, 0]
    outside = np.outer(complement, np.eye(d)[0])
    corrupted = list(fit.candidates[:-1]) + [outside]
    with pytest.raises(checks.CheckError, match="leaves span"):
        checks.candidates(fit.statistic, fit.R, corrupted, d)


def test_candidate_check_rejects_wrong_count_and_wrong_subspace():
    fit = small_subspace_fit()
    m, d = fit.R.shape
    with pytest.raises(checks.CheckError, match="candidates, expected"):
        checks.candidates(fit.statistic, fit.R, fit.candidates[:-1], d)
    wrong_r = np.linalg.svd(fit.statistic)[2][d:2 * d].T
    with pytest.raises(checks.CheckError, match="dominant subspace"):
        checks.candidates(fit.statistic, wrong_r, fit.candidates, d)


def test_cumulant_check_rejects_asymmetry_and_disagreement():
    rng = np.random.default_rng(5)
    z = rng.gamma(2.0, size=(300, 5))
    one_shot = eitkit.third_cumulants(eitkit.MeasurementEnsemble(z)).tensor
    merged = eitkit.MomentAccumulator(5).update(z[:100]).merge(
        eitkit.MomentAccumulator(5).update(z[100:])
    ).third_cumulants().tensor
    checks.cumulants_agree(one_shot, merged)

    asymmetric = merged.copy()
    asymmetric[0, 1, 2] = np.nextafter(asymmetric[0, 1, 2], np.inf)
    with pytest.raises(checks.CheckError, match="symmetric"):
        checks.cumulants_agree(one_shot, asymmetric)
    with pytest.raises(checks.CheckError, match="differ"):
        checks.cumulants_agree(one_shot, merged * (1.0 + 1e-9))


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("op") as root:
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
    root.attrs["ok"] = True
    (summary,) = tracer.roots("op")
    outer, inner = tracer.spans[1], tracer.spans[2]
    assert summary.self_time["outer"] == pytest.approx(outer.duration - inner.duration)
    assert summary.self_time["inner"] == inner.duration
    assert summary.count == {"op": 1, "outer": 1, "inner": 1}


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb"}
    printed = [(name, unit, better) for name, unit, better, _, _ in spans.PER_LAYER] + [spans.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == printed

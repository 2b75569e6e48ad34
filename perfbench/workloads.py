"""The benchmark's four workloads.

Each workload has a ``setup`` that builds every input from the seed, a
``run`` that is one timed operation, and a ``check`` that raises
:class:`checks.CheckError` on a wrong result and returns health figures.
All calls into eitkit go through a :class:`types.SimpleNamespace` from
:func:`make_calls`, so a traced run can put a span around each of them.
Sizes are fixed; the seed drives every random draw.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import eitkit
import eitkit.cli
import eitkit.forward
import eitkit.mesh

import checks

FORWARD_REFINE = 5  # n = 4225 nodes, 8192 elements
FORWARD_ELECTRODES = 16
FORWARD_FREQUENCIES = (1e3, 1e4)
FORWARD_GROUND = 0  # the disk's center node
FORWARD_REFERENCE = 0  # electrode the voltages are measured against

MULTIFREQ_REFINE = 2  # n = 81 nodes: the stack design is (81*81) x 3321
MULTIFREQ_OFFSET = 7  # pattern k drives node k against node k + 7
MULTIFREQ_FREQUENCY = 1e3

CUMULANT_SHAPE = (32, 8, 20_000)  # channels M, sources d, samples T
CUMULANT_CHUNKS = 8
SUBSPACE_SHAPE = (128, 16, 2_000)


def third_moment_flops(t: int, m: int) -> float:
    """Computed flop count of one third-moment estimate over t samples of
    m channels: T * M (M + 1) (M + 2) / 3."""
    return float(t * m * (m + 1) * (m + 2) / 3)


def _factor(system):
    return eitkit.ForwardFactorization(system)


def _solve(factorization, load):
    return factorization.solve(load)


def _accumulator_update(accumulator, samples):
    return accumulator.update(samples)


def _accumulator_merge(left, right):
    return left.merge(right)


def _accumulator_finalize(accumulator):
    return accumulator.third_cumulants()


# name used by the workloads -> (span name, callable, note on the result)
CALLS = {
    "build_disk_mesh": ("mesh.build_disk_mesh", eitkit.build_disk_mesh, None),
    "save_mesh": ("mesh.save_mesh", eitkit.save_mesh, None),
    "make_phantom": ("phantom.make_phantom", eitkit.make_phantom, None),
    "generate_ensemble": ("phantom.generate_ensemble", eitkit.generate_ensemble, None),
    "save_sweep_config": ("multifreq.save_sweep_config", eitkit.save_sweep_config, None),
    "assemble": ("forward.assemble", eitkit.assemble, lambda r, *a, **k: {"bytes": r.S.nbytes}),
    "apply_pattern": ("forward.apply_pattern", eitkit.apply_pattern, None),
    "factor": ("forward.factor", _factor, None),
    "solve": ("forward.solve", _solve, lambda r, *a, **k: {"residual_inf": r.residual_inf}),
    "measure": ("forward.measure", eitkit.measure, None),
    "correlation": ("statistics.correlation", eitkit.correlation, None),
    "third_cumulants": (
        "statistics.third_cumulants",
        eitkit.third_cumulants,
        lambda r, ensemble, **k: {"flops": third_moment_flops(*ensemble.samples.shape)},
    ),
    "accumulator_update": (
        "statistics.accumulator_update",
        _accumulator_update,
        lambda r, acc, samples, **k: {"flops": third_moment_flops(*np.shape(samples))},
    ),
    "accumulator_merge": ("statistics.accumulator_merge", _accumulator_merge, None),
    "accumulator_finalize": ("statistics.accumulator_finalize", _accumulator_finalize, None),
    "truncated_svd": ("subspace.truncated_svd", eitkit.truncated_svd, None),
    "build_projector": ("subspace.build_projector", eitkit.build_projector, lambda r, *a, **k: {"bytes": r.Q.nbytes}),
    "extract_candidates": (
        "subspace.extract_candidates",
        eitkit.extract_candidates,
        lambda r, *a, **k: {"null_count": r.null_count},
    ),
    "fitting_residual": ("subspace.fitting_residual", eitkit.fitting_residual, lambda r, *a, **k: {"value": r}),
    "cli_main": ("cli.main", eitkit.cli.main, None),
}

# Module-level names eitkit calls from inside the calls above, wrapped
# only while a traced operation runs: what ``eitkit.cli`` calls for
# ``reconstruct multifreq``, and the mesh validation that ``assemble`` and
# ``load_mesh`` run.
INTERNAL = [
    (eitkit.cli, "load_mesh", "mesh.load_mesh", None),
    (eitkit.cli, "load_sweep_config", "multifreq.load_sweep_config", None),
    (eitkit.cli, "simulate_sweep", "multifreq.simulate_sweep", lambda r, *a, **k: {"injections": r.n_injections}),
    (eitkit.cli, "stack_solve", "multifreq.stack_solve", lambda r, *a, **k: {"residual": r.residual}),
    (
        eitkit.cli,
        "recover_conductivity",
        "multifreq.recover_conductivity",
        lambda r, *a, **k: {"fit_residual": r.fit_residual, "sensitivity": r.sensitivity},
    ),
    (eitkit.cli, "render_element_field", "cli.render_element_field", None),
    (eitkit.mesh, "validate", "mesh.validate", None),
    (eitkit.forward, "validate", "mesh.validate", None),
]


def make_calls(tracer=None) -> SimpleNamespace:
    """The eitkit entry points the workloads use, each inside a span when
    a tracer is given."""
    if tracer is None:
        return SimpleNamespace(**{key: fn for key, (_, fn, _) in CALLS.items()})
    return SimpleNamespace(
        **{key: tracer.wrap(name, fn, note) for key, (name, fn, note) in CALLS.items()}
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir, calls) -> inputs
    run: Callable  # (inputs, calls) -> result, the timed operation
    check: Callable  # (inputs, result) -> health dict


# ------------------------------------------------------- forward_sweep ----


def _forward_setup(seed: int, workdir: Path, calls) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    mesh = calls.build_disk_mesh(1.0, FORWARD_REFINE, FORWARD_ELECTRODES)
    angle, offset = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 0.45)
    inclusion = eitkit.Inclusion(
        (offset * np.cos(angle), offset * np.sin(angle)),
        radius=rng.uniform(0.15, 0.35),
        contrast=rng.uniform(2.0, 5.0),
    )
    phantom = calls.make_phantom(mesh, 1.0, [inclusion])
    tissue = eitkit.TissueModel(phantom.sigma, phantom.sigma / 2.0, np.full(mesh.n_elements, 1e-4))
    electrodes = sorted(mesh.electrode_map)
    currents = np.zeros((len(electrodes), len(electrodes)))
    patterns = []
    for k in range(len(electrodes)):
        sink = (k + 1) % len(electrodes)
        currents[k, k], currents[k, sink] = 1.0, -1.0
        patterns.append(eitkit.CurrentPattern({electrodes[k]: 1.0, electrodes[sink]: -1.0}))
    return SimpleNamespace(
        mesh=mesh,
        fields=[tissue.sigma_at(f) for f in FORWARD_FREQUENCIES],
        patterns=patterns,
        currents=currents,
        reference_pos=electrodes.index(FORWARD_REFERENCE),
    )


def _forward_run(inputs, calls) -> list[np.ndarray]:
    """Per frequency: assemble and factor once, then solve every pattern."""
    mesh = inputs.mesh
    sweeps = []
    for sigma in inputs.fields:
        system = calls.assemble(mesh, sigma)
        factorization = None
        voltages = []
        for pattern in inputs.patterns:
            grounded = calls.apply_pattern(system, mesh, pattern, FORWARD_GROUND)
            if factorization is None:
                factorization = calls.factor(grounded)
            solution = calls.solve(factorization, grounded.F)
            voltages.append(calls.measure(solution, mesh, FORWARD_REFERENCE))
        sweeps.append(np.array(voltages))
    return sweeps


def _forward_check(inputs, sweeps) -> dict:
    if len(sweeps) != len(inputs.fields):
        raise checks.CheckError(f"{len(sweeps)} frequency sweeps, expected {len(inputs.fields)}")
    worst = 0.0
    for voltages in sweeps:
        # measure() leaves out the reference electrode, whose voltage is 0
        full = np.insert(voltages, inputs.reference_pos, 0.0, axis=1)
        worst = max(worst, checks.reciprocity(inputs.currents, full)["reciprocity_rel"])
    return {"reciprocity_rel": worst}


# ----------------------------------------------------- multifreq_recon ----


def _multifreq_setup(seed: int, workdir: Path, calls) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    mesh = calls.build_disk_mesh(1.0, MULTIFREQ_REFINE)
    sigma = rng.uniform(0.5, 3.0, mesh.n_elements)
    n = mesh.n_nodes
    patterns = []
    for k in range(n):
        f = np.zeros(n)
        f[k] += 1.0
        f[(k + MULTIFREQ_OFFSET) % n] -= 1.0
        patterns.append(f)
    config = eitkit.SweepConfig((MULTIFREQ_FREQUENCY,), tuple(patterns), pairing="cross", ground="rotate")
    paths = {key: workdir / f"{key}.txt" for key in ("mesh", "sweep", "sigma", "image")}
    calls.save_mesh(mesh, paths["mesh"])
    calls.save_sweep_config(config, eitkit.TissueModel.dispersionless(sigma), paths["sweep"])
    argv = [
        "reconstruct", "multifreq",
        "--mesh", str(paths["mesh"]),
        "--sweep", str(paths["sweep"]),
        "--out-sigma", str(paths["sigma"]),
        "--out-image", str(paths["image"]),
    ]
    return SimpleNamespace(
        element_ids=[e.id for e in mesh.elements], sigma=sigma, argv=argv, paths=paths
    )


def _multifreq_run(inputs, calls):
    """``eitkit reconstruct multifreq`` in-process, output captured."""
    for key in ("sigma", "image"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(inputs.paths[key])
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = calls.cli_main(inputs.argv)
    return code, captured.getvalue()


def _multifreq_check(inputs, result) -> dict:
    code, output = result
    if code != 0:
        raise checks.CheckError(f"exit code {code}: {output.strip()[-300:]}")
    estimate = checks.read_sigma_csv(inputs.paths["sigma"], inputs.element_ids)
    return checks.conductivity(estimate, inputs.sigma)


# --------------------------------------- cumulant_subspace, subspace_wide ----


def _ensemble_setup(shape, source, noise, seed: int, calls):
    m, d, t = shape
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(m, d))
    ensemble = calls.generate_ensemble(
        mixing, eitkit.SourceSpec(d, source), noise, t, int(rng.integers(2**31))
    )
    return SimpleNamespace(ensemble=ensemble, m=m, d=d)


def _subspace_fit(statistic, m: int, d: int, calls) -> SimpleNamespace:
    decomposition = calls.truncated_svd(statistic, d)
    projector = calls.build_projector(decomposition.R, d)
    candidates = calls.extract_candidates(projector, m, d)
    residuals = [calls.fitting_residual(a, decomposition) for a in candidates.candidates]
    return SimpleNamespace(
        statistic=statistic, R=decomposition.R, candidates=candidates.candidates, residuals=residuals
    )


def _cumulant_setup(seed: int, workdir: Path, calls) -> SimpleNamespace:
    inputs = _ensemble_setup(
        CUMULANT_SHAPE, "skewed", eitkit.NoiseSpec("colored", 0.3, (0.6,)), seed, calls
    )
    inputs.chunks = np.array_split(inputs.ensemble.samples, CUMULANT_CHUNKS)
    return inputs


def _cumulant_run(inputs, calls) -> SimpleNamespace:
    """One-shot cumulants, the same from merged chunk accumulators, then
    the subspace fit of the pooled cumulant matrix."""
    one_shot = calls.third_cumulants(inputs.ensemble)
    merged = None
    for chunk in inputs.chunks:
        part = calls.accumulator_update(eitkit.MomentAccumulator(inputs.m), chunk)
        merged = part if merged is None else calls.accumulator_merge(merged, part)
    accumulated = calls.accumulator_finalize(merged)
    fit = _subspace_fit(accumulated.pooled(), inputs.m, inputs.d, calls)
    fit.one_shot, fit.accumulated = one_shot.tensor, accumulated.tensor
    return fit


def _cumulant_check(inputs, fit) -> dict:
    health = checks.cumulants_agree(fit.one_shot, fit.accumulated)
    health.update(checks.candidates(fit.statistic, fit.R, fit.candidates, inputs.d))
    return health


def _wide_setup(seed: int, workdir: Path, calls) -> SimpleNamespace:
    return _ensemble_setup(
        SUBSPACE_SHAPE, "symmetric-binary", eitkit.NoiseSpec("white", 0.05), seed, calls
    )


def _wide_run(inputs, calls) -> SimpleNamespace:
    statistic = calls.correlation(inputs.ensemble).matrix
    return _subspace_fit(statistic, inputs.m, inputs.d, calls)


def _wide_check(inputs, fit) -> dict:
    return checks.candidates(fit.statistic, fit.R, fit.candidates, inputs.d)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("forward_sweep", _forward_setup, _forward_run, _forward_check),
        Workload("multifreq_recon", _multifreq_setup, _multifreq_run, _multifreq_check),
        Workload("cumulant_subspace", _cumulant_setup, _cumulant_run, _cumulant_check),
        Workload("subspace_wide", _wide_setup, _wide_run, _wide_check),
    )
}

"""Correctness checks on the results of benchmark operations.

Every check is stated on a property of the answer, never on which basis or
algorithm produced it: a different orthonormal basis of the same null
space, or a different factorization of the same system, passes. A check
raises :class:`CheckError` when the result is wrong and otherwise returns
the health figures it measured along the way.
"""

from __future__ import annotations

import itertools

import numpy as np

RECIPROCITY_RTOL = 1e-8
SIGMA_RTOL = 1e-6
CUMULANT_RTOL = 1e-12
SUBSPACE_TOL = 1e-8


class CheckError(Exception):
    """An operation returned a result that fails its correctness check."""


def reciprocity(currents: np.ndarray, voltages: np.ndarray) -> dict:
    """Check ``I_i . V_j == I_j . V_i`` over all pairs of drive patterns.

    ``currents`` and ``voltages`` are (patterns, electrodes) arrays in one
    electrode order; voltages may be taken against any reference electrode,
    because the currents of a pattern sum to zero. The transfer energy
    ``I_i . V_i`` must be positive, so an all-zero answer cannot pass.
    """
    transfer = np.asarray(currents) @ np.asarray(voltages).T
    if not np.all(np.isfinite(transfer)):
        raise CheckError("voltages are not finite")
    scale = float(np.max(np.abs(transfer)))
    if not np.all(np.diag(transfer) > 0.0):
        raise CheckError("a drive pattern has non-positive transfer energy I_i . V_i")
    asymmetry = float(np.max(np.abs(transfer - transfer.T)))
    if asymmetry > RECIPROCITY_RTOL * scale:
        raise CheckError(
            f"reciprocity broken: max |I_i.V_j - I_j.V_i| = {asymmetry:.3e} "
            f"exceeds {RECIPROCITY_RTOL:g} x {scale:.3e}"
        )
    return {"reciprocity_rel": asymmetry / scale}


def read_sigma_csv(path, element_ids) -> np.ndarray:
    """Per-element values of an ``element,sigma`` CSV, in ``element_ids`` order."""
    values: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "element,sigma":
                continue
            elem, value = line.split(",")
            if int(elem) in values:
                raise CheckError(f"element {elem} appears twice in {path}")
            values[int(elem)] = float(value)
    missing = [e for e in element_ids if e not in values]
    if missing or len(values) != len(element_ids):
        raise CheckError(f"{path} covers {len(values)} elements, missing {missing[:8]}")
    return np.array([values[e] for e in element_ids])


def conductivity(estimate: np.ndarray, truth: np.ndarray) -> dict:
    """Check ``max |sigma_hat - sigma| / max sigma <= 1e-6``."""
    err = float(np.max(np.abs(estimate - truth)) / np.max(truth))
    if not err <= SIGMA_RTOL:
        raise CheckError(f"recovered sigma off by {err:.3e} relative (bound {SIGMA_RTOL:g})")
    return {"sigma_rel_err": err}


def exactly_symmetric(tensor: np.ndarray) -> None:
    """Check that a third-order tensor equals each of its index permutations."""
    for perm in itertools.permutations(range(3)):
        if not np.array_equal(tensor, tensor.transpose(perm)):
            raise CheckError(f"cumulant tensor is not exactly symmetric under {perm}")


def cumulants_agree(one_shot: np.ndarray, merged: np.ndarray) -> dict:
    """Check chunked-and-merged estimation against one pass over all samples."""
    exactly_symmetric(one_shot)
    exactly_symmetric(merged)
    scale = float(np.max(np.abs(one_shot)))
    diff = float(np.max(np.abs(merged - one_shot)))
    if not diff <= CUMULANT_RTOL * scale:
        raise CheckError(
            f"merged cumulants differ from one-shot by {diff:.3e} (bound {CUMULANT_RTOL:g} x {scale:.3e})"
        )
    return {"cumulant_rel_diff": diff / scale}


def candidates(statistic: np.ndarray, R: np.ndarray, mats, d: int) -> dict:
    """Check a candidate set against the statistic it was fitted to.

    ``R`` must be an orthonormal basis of the dominant rank-d singular
    subspace of ``statistic`` (compared as projectors, so any basis
    passes); there must be exactly d**2 candidates, orthonormal under the
    trace inner product, each with columns in span(R).
    """
    statistic = np.asarray(statistic, dtype=float)
    R = np.asarray(R, dtype=float)
    m = statistic.shape[0]
    if R.shape != (m, d):
        raise CheckError(f"basis R has shape {R.shape}, expected ({m}, {d})")
    if float(np.max(np.abs(R.T @ R - np.eye(d)))) > SUBSPACE_TOL:
        raise CheckError("basis R is not orthonormal")
    _, _, vt = np.linalg.svd(statistic)
    reference = vt[:d].T
    gap = float(np.max(np.abs(R @ R.T - reference @ reference.T)))
    if gap > SUBSPACE_TOL:
        raise CheckError(f"span(R) is not the dominant subspace (projector gap {gap:.3e})")

    if len(mats) != d * d:
        raise CheckError(f"{len(mats)} candidates, expected d^2 = {d * d}")
    shapes = {np.shape(a) for a in mats}
    if shapes != {(m, d)}:
        raise CheckError(f"candidate shapes {sorted(shapes)}, expected ({m}, {d})")
    flat = np.stack([np.asarray(a, dtype=float).ravel() for a in mats])
    gram_err = float(np.max(np.abs(flat @ flat.T - np.eye(d * d))))
    if gram_err > SUBSPACE_TOL:
        raise CheckError(f"candidates not orthonormal under the trace inner product ({gram_err:.3e})")
    worst = max(float(np.linalg.norm(a - R @ (R.T @ a))) for a in mats)
    if worst > SUBSPACE_TOL:
        raise CheckError(f"a candidate leaves span(R): residual {worst:.3e} (bound {SUBSPACE_TOL:g})")
    return {"candidate_residual_max": worst}

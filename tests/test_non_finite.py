"""A NaN or an infinite entry is a DomainError at every entry point that
leads to an SVD: ``StackedSystem`` (and so ``stack_solve``),
``truncated_svd``, ``build_projector`` and
``recover_conductivity``. ``load_stacked_system`` reports it earlier, as a
FormatError at the line that holds it.

LAPACK's SVD may never return on an infinite entry, so the infinite
cases run in a child interpreter with a timeout: a regression fails the
test instead of hanging the suite. The NaN cases run in-process.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eitkit import (
    StackedSystem,
    assemble,
    build_disk_mesh,
    build_projector,
    load_stacked_system,
    recover_conductivity,
    stack_solve,
    truncated_svd,
)
from eitkit.textio import format_row

CHILD_TIMEOUT_S = 60


def dense(m: int, bad: float) -> np.ndarray:
    """A seeded random symmetric m x m matrix with ``bad`` at [0, 0]: with
    an infinity there, LAPACK's SVD did not return within 30 s on 3 x 3
    to 10 x 10 draws (numpy 2.4.6, OpenBLAS)."""
    Y = np.random.default_rng(0).standard_normal((m, m))
    Y += Y.T
    Y[0, 0] = bad
    return Y


def stacked_phi(bad):
    stack_solve(StackedSystem(dense(4, bad), np.zeros((4, 4)), ()))


def stacked_load(bad):
    F = np.zeros((4, 4))
    F[0, 1] = bad  # its column sum is not finite either, so no zero-sum check can catch it
    stack_solve(StackedSystem(dense(4, 1.0), F, ()))


def loaded_stack(bad):
    with tempfile.TemporaryDirectory() as tmp:
        phi_path, f_path = Path(tmp, "phi.csv"), Path(tmp, "f.csv")
        phi_path.write_text("".join(f"{format_row(row)}\n" for row in dense(3, bad)))
        f_path.write_text("1,0,0\n-1,0,0\n0,0,0\n")
        stack_solve(load_stacked_system(phi_path, f_path))


def statistic_svd(bad):
    truncated_svd(dense(10, bad), 3)


def projector(bad):
    build_projector(np.full((4, 2), bad), 2)


def recovery(bad):
    mesh = build_disk_mesh(1.0, 0)
    S_hat = assemble(mesh, np.ones(mesh.n_elements)).S.toarray()
    S_hat[:] = bad
    recover_conductivity(S_hat, mesh)


def domain_error(what: str) -> str:
    return f"DomainError: {what} contains non-finite entries"


# case -> (call, its outcome, with {bad} for the bad value)
CASES = {
    "StackedSystem-Phi": (stacked_phi, domain_error("Phi")),
    "StackedSystem-F": (stacked_load, domain_error("F")),
    "load_stacked_system": (loaded_stack, "FormatError: non-finite value {bad!r} (line 1)"),
    "truncated_svd": (statistic_svd, domain_error("input matrix")),
    "build_projector": (projector, domain_error("R")),
    "recover_conductivity": (recovery, domain_error("S_hat")),
}


def outcome(call, bad: float) -> str:
    """``"<class>: <message>"`` of the error ``call(bad)`` raises, or "returned"."""
    try:
        call(bad)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "returned"


def report(bad: float) -> None:
    """Print one JSON line ``[case, outcome]`` per case as it finishes."""
    for name, (call, _) in CASES.items():
        print(json.dumps([name, outcome(call, bad)]), flush=True)


@pytest.fixture(scope="module")
def infinite_outcomes() -> tuple[dict, str]:
    """Each case's outcome with an infinite entry, from one child
    interpreter, and the child's standard error; cases the child did not
    finish within the timeout are missing."""
    here = Path(__file__).resolve().parent
    code = f"import sys; sys.path.insert(0, {str(here)!r}); import test_non_finite as t; t.report(float('inf'))"
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        out, err = done.stdout, done.stderr
    except subprocess.TimeoutExpired as exc:  # its output so far may be undecoded
        out, err = (b if isinstance(b, str) else (b or b"").decode() for b in (exc.stdout, exc.stderr))
    return dict(json.loads(line) for line in out.splitlines()), err


@pytest.mark.parametrize("case", CASES)
def test_nan_entry_is_a_domain_error(case):
    call, want = CASES[case]
    assert outcome(call, np.nan) == want.format(bad=np.nan)


@pytest.mark.parametrize("case", CASES)
def test_infinite_entry_is_a_domain_error_without_hanging(infinite_outcomes, case):
    outcomes, err = infinite_outcomes
    assert case in outcomes, f"{case} did not finish within {CHILD_TIMEOUT_S} s\n{err}"
    assert outcomes[case] == CASES[case][1].format(bad=float("inf"))

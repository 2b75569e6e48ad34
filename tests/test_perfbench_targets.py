"""Every eitkit name the benchmark calls or wraps in a traced run must
resolve, so a rename fails here instead of inside a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, *_ in workloads.INTERNAL],
    ids=[f"{module.__name__}.{attr}" for module, attr, *_ in workloads.INTERNAL],
)
def test_internal_patch_target_resolves(module, attr):
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("key", sorted(workloads.CALLS))
def test_call_resolves_by_name(key):
    _, fn, _ = workloads.CALLS[key]
    assert getattr(importlib.import_module(fn.__module__), fn.__name__) is fn

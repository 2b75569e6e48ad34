"""Benchmark driver for eitkit.

Usage, from the repository root::

    python3 perfbench/run.py --workload forward_sweep --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, then runs operations one after
another (a closed loop with one client) until ``--seconds`` have passed,
timing each and checking each result. A short first operation is an
untimed warm-up. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
operations alternate between untraced and traced, and the metrics are the
per-layer ones from the traced operations. The line before it carries
run information (seed, thread cap, library versions, sample counts).

eitkit is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Kept here, not taken from workloads.py, because arguments are parsed
# before numpy is imported: the BLAS thread cap must be set first.
WORKLOAD_NAMES = ("forward_sweep", "multifreq_recon", "cumulant_subspace", "subspace_wide")
SETUP_REPEATS = 3
# One BLAS thread, well under the CPU count: on a shared host a second
# thread waits on whichever CPU a neighbour holds, which makes times jump.
BLAS_THREADS = 1
# The first operation is an untimed warm-up when it is shorter than this
# share of --seconds; a longer one amortizes its own cold start and is timed.
WARMUP_SHARE = 0.1

# Time to import eitkit in a fresh interpreter: the import share of set-up.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import eitkit, eitkit.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _fresh_import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _tail(samples: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": ordered[n - 11]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "eitkit" / "__init__.py").is_file():
        print(f"perfbench: no eitkit sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy

    import eitkit

    if not Path(eitkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: eitkit was imported from {eitkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    plain = workloads.make_calls(None)
    traced = workloads.make_calls(tracer) if tracer else None

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            imports = _fresh_import_seconds()
            with tracer.span("setup") if tracer else contextlib.nullcontext() as root:
                t0 = perf_counter()
                inputs = workload.setup(args.seed, workdir, traced or plain)
                setup_s.append(imports + perf_counter() - t0)
            if root is not None:
                root.attrs["ok"] = True

        durations = {False: [], True: []}
        failed = 0
        attempted = 0

        def operation(is_traced: bool) -> float:
            """One checked operation; returns its wall time. An operation
            that raises or fails its check counts as failed."""
            nonlocal attempted, failed
            attempted += 1
            calls = traced if is_traced else plain
            root = None
            try:
                with contextlib.ExitStack() as stack:
                    if is_traced:
                        root = stack.enter_context(tracer.span("op"))
                        stack.enter_context(tracer.patched(workloads.INTERNAL))
                    t0 = perf_counter()
                    try:
                        result = workload.run(inputs, calls)
                    finally:
                        elapsed = perf_counter() - t0
                health = workload.check(inputs, result)
            except Exception:  # an operation that raises counts as failed; keep measuring
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                if root is not None:
                    root.attrs.update(health, ok=True)
            return elapsed

        start = perf_counter()
        first = operation(False)
        warmup_s = first if first < WARMUP_SHARE * args.seconds else None
        if warmup_s is None:
            durations[False].append(first)
        else:
            start = perf_counter()
        while (
            perf_counter() - start < args.seconds
            or not durations[False]
            or (tracer is not None and not durations[True])
        ):
            is_traced = tracer is not None and len(durations[False]) > len(durations[True])
            durations[is_traced].append(operation(is_traced))

        op_s = statistics.median(durations[False])
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "warmup_s": warmup_s,
            "op_s_samples": len(durations[False]),
            "op_s_all": durations[False],
            "op_s_tail": _tail(durations[False]),
            "setup_s_samples": setup_s,
        }
        if tracer is None:
            metrics = {
                "op_s": {"value": op_s, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        else:
            traced_op_s = statistics.median(durations[True])
            info["traced_op_s"] = traced_op_s
            metrics = spans.per_layer_metrics(tracer, traced_op_s - op_s)
            trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
            tracer.dump(trace_path, info)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around calls into eitkit, and the per-layer metrics
derived from them.

Every span records its name, start, end and the span open when it began.
A layer's self time is its span's duration minus the durations of its
direct children. Spans are kept in memory and written out once, when the
benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(name, self._open[-1] if self._open else None, perf_counter())
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` inside a span; ``note(result, *args, **kwargs)`` returns
        attributes kept on the span, such as the bytes a result holds."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec.attrs.update(note(result, *args, **kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap module-level names, given as ``(module, attribute, span
        name, note)``, for the duration of the block."""
        saved = []
        try:
            for module, attr, name, note in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def roots(self, name: str) -> list["Summary"]:
        """One summary per completed top-level span called ``name`` whose
        ``ok`` attribute is set, covering it and every span below it."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec.parent is not None:
                child_time[rec.parent] += rec.duration
        groups: list[Summary] = []
        for idx, rec in enumerate(self.spans):
            if rec.parent is None:
                groups.append(Summary(rec))
            groups[-1].add(rec, rec.duration - child_time[idx])
        return [g for g in groups if g.root.name == name and g.root.attrs.get("ok")]

    def dump(self, path, extra: dict) -> None:
        base = self.spans[0].start if self.spans else 0.0
        records = [
            {
                "name": s.name,
                "parent": s.parent,
                "start_s": s.start - base,
                "end_s": s.end - base,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": records}, fh)


class Summary:
    """Self time, inclusive time, call count and attributes per span name
    under one top-level span."""

    def __init__(self, root: Span):
        self.root = root
        self.self_time: dict[str, float] = {}
        self.total: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.attrs: dict[str, list[dict]] = {}

    def add(self, rec: Span, self_time: float) -> None:
        self.self_time[rec.name] = self.self_time.get(rec.name, 0.0) + self_time
        self.total[rec.name] = self.total.get(rec.name, 0.0) + rec.duration
        self.count[rec.name] = self.count.get(rec.name, 0) + 1
        self.attrs.setdefault(rec.name, []).append(rec.attrs)

    def peak(self, name: str, key: str) -> float:
        return max((float(a[key]) for a in self.attrs.get(name, ()) if key in a), default=0.0)

    def sum(self, name: str, key: str) -> float:
        return sum((float(a[key]) for a in self.attrs.get(name, ()) if key in a), 0.0)


def _self(name):
    return lambda s: s.self_time.get(name, 0.0)


def _calls(name):
    return lambda s: float(s.count.get(name, 0))


def _peak(name, key):
    return lambda s: s.peak(name, key)


def _gflops(s: Summary) -> float:
    busy = s.self_time.get("statistics.third_cumulants", 0.0) + s.self_time.get(
        "statistics.accumulator_update", 0.0
    )
    flops = s.sum("statistics.third_cumulants", "flops") + s.sum("statistics.accumulator_update", "flops")
    return flops / busy / 1e9 if busy > 0.0 else 0.0


# (metric, unit, better, top-level span it is measured under, value per
# top-level span). A layer a workload never calls reads 0.
PER_LAYER = [
    ("mesh.build_disk_mesh_s", "s", "lower", "setup", _self("mesh.build_disk_mesh")),
    ("mesh.validate_s", "s", "lower", "op", _self("mesh.validate")),
    ("mesh.load_mesh_s", "s", "lower", "op", _self("mesh.load_mesh")),
    ("forward.assemble_s", "s", "lower", "op", _self("forward.assemble")),
    ("forward.apply_pattern_s", "s", "lower", "op", _self("forward.apply_pattern")),
    ("forward.factor_s", "s", "lower", "op", _self("forward.factor")),
    ("forward.solve_s", "s", "lower", "op", _self("forward.solve")),
    ("forward.measure_s", "s", "lower", "op", _self("forward.measure")),
    ("forward.assemblies", "count", "lower", "op", _calls("forward.assemble")),
    ("forward.factorizations", "count", "lower", "op", _calls("forward.factor")),
    ("forward.solves", "count", "lower", "op", _calls("forward.solve")),
    ("forward.stiffness_bytes", "bytes", "lower", "op", _peak("forward.assemble", "bytes")),
    ("forward.residual_inf_max", "A", "lower", "op", _peak("forward.solve", "residual_inf")),
    ("multifreq.load_sweep_config_s", "s", "lower", "op", _self("multifreq.load_sweep_config")),
    ("multifreq.simulate_sweep_s", "s", "lower", "op", _self("multifreq.simulate_sweep")),
    ("multifreq.stack_solve_s", "s", "lower", "op", _self("multifreq.stack_solve")),
    ("multifreq.recover_conductivity_s", "s", "lower", "op", _self("multifreq.recover_conductivity")),
    ("multifreq.injections", "count", "lower", "op", _peak("multifreq.simulate_sweep", "injections")),
    ("multifreq.stack_residual", "A", "lower", "op", _peak("multifreq.stack_solve", "residual")),
    ("multifreq.fit_residual", "S", "lower", "op", _peak("multifreq.recover_conductivity", "fit_residual")),
    ("multifreq.sensitivity", "1/m", "lower", "op", _peak("multifreq.recover_conductivity", "sensitivity")),
    ("multifreq.sigma_rel_err", "ratio", "lower", "op", _peak("op", "sigma_rel_err")),
    ("cli.main_s", "s", "lower", "op", lambda s: s.total.get("cli.main", 0.0)),
    ("cli.render_element_field_s", "s", "lower", "op", _self("cli.render_element_field")),
    ("cli.self_s", "s", "lower", "op", _self("cli.main")),
    ("statistics.correlation_s", "s", "lower", "op", _self("statistics.correlation")),
    ("statistics.third_cumulants_s", "s", "lower", "op", _self("statistics.third_cumulants")),
    ("statistics.accumulator_update_s", "s", "lower", "op", _self("statistics.accumulator_update")),
    ("statistics.accumulator_merge_s", "s", "lower", "op", _self("statistics.accumulator_merge")),
    ("statistics.accumulator_finalize_s", "s", "lower", "op", _self("statistics.accumulator_finalize")),
    ("statistics.third_moment_flops", "FLOP", "lower", "op",
     lambda s: s.sum("statistics.third_cumulants", "flops") + s.sum("statistics.accumulator_update", "flops")),
    ("statistics.third_moment_gflops_per_s", "GFLOP/s", "higher", "op", _gflops),
    ("subspace.truncated_svd_s", "s", "lower", "op", _self("subspace.truncated_svd")),
    ("subspace.build_projector_s", "s", "lower", "op", _self("subspace.build_projector")),
    ("subspace.extract_candidates_s", "s", "lower", "op", _self("subspace.extract_candidates")),
    ("subspace.fitting_residual_s", "s", "lower", "op", _self("subspace.fitting_residual")),
    ("subspace.projector_bytes", "bytes", "lower", "op", _peak("subspace.build_projector", "bytes")),
    ("subspace.null_count", "count", "higher", "op", _peak("subspace.extract_candidates", "null_count")),
    ("subspace.max_fit_residual", "ratio", "lower", "op", _peak("subspace.fitting_residual", "value")),
    ("phantom.make_phantom_s", "s", "lower", "setup", _self("phantom.make_phantom")),
    ("phantom.generate_ensemble_s", "s", "lower", "setup", _self("phantom.generate_ensemble")),
]
OVERHEAD = ("trace.overhead_s", "s", "lower")


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Median over top-level spans of every per-layer metric, plus the
    tracing overhead (traced minus untraced median operation time)."""
    groups = {"setup": tracer.roots("setup"), "op": tracer.roots("op")}
    out = {}
    for name, unit, _, phase, value in PER_LAYER:
        samples = [value(g) for g in groups[phase]]
        out[name] = {"value": statistics.median(samples) if samples else 0.0, "unit": unit}
    out[OVERHEAD[0]] = {"value": overhead_s, "unit": OVERHEAD[1]}
    return out

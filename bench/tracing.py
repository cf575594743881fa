"""In-memory span tracer for the specnash benchmark.

Spans are recorded by wrappers that the benchmark installs at the import
sites in the calling modules: ``specnash.equilibrium.waterfill`` is the
name the equilibrium solver looks up for every waterfill call, so wrapping
that attribute times exactly those calls.  Nothing under ``src/`` changes.

Each span keeps its name, start and end (``perf_counter_ns``) and the
index of the span that was open when it started.  Spans stay in memory
until :meth:`Tracer.save` writes them out at the end of a run.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span name -> import sites (module, attribute) whose calls it covers.
SITES = {
    "experiments.driver": [
        ("specnash.experiments", "run_uniqueness_mc"),
        ("specnash.experiments", "run_psd"),
        ("specnash.experiments", "run_rate_region"),
        ("specnash.experiments", "run_verify_theorem1"),
    ],
    "channel.ratio_scenario": [("specnash.experiments", "ratio_scenario")],
    "channel.build_game": [
        ("specnash.experiments", "build_game"),
        ("specnash.matrix_oracle", "build_game"),
    ],
    "waterfilling.waterfill": [
        ("specnash.equilibrium", "waterfill"),
        ("specnash.pareto", "waterfill"),
        ("specnash.matrix_oracle", "waterfill"),
    ],
    "equilibrium.best_response": [("specnash.equilibrium", "best_response")],
    "equilibrium.solve": [("specnash.experiments", "solve"), ("specnash.pareto", "solve")],
    "equilibrium.classify_profile": [
        ("specnash.equilibrium", "classify_profile"),
        ("specnash.experiments", "classify_profile"),
    ],
    "uniqueness.check_conditions": [("specnash.experiments", "check_conditions")],
    "uniqueness.usable_sets": [("specnash.uniqueness", "usable_sets")],
    "uniqueness.coupling_stack": [("specnash.uniqueness", "coupling_stack")],
    "uniqueness.spectral_radius": [("specnash.uniqueness", "spectral_radius")],
    "uniqueness.perron_weights": [("specnash.uniqueness", "perron_weights")],
    "pareto.solve_scalarized": [("specnash.experiments", "solve_scalarized")],
    "pareto.project_profile": [("specnash.pareto", "project_profile")],
    "pareto.rate_array": [("specnash.experiments", "rate_array"), ("specnash.pareto", "rate_array")],
    "pareto.rate_gradient": [("specnash.pareto", "rate_gradient")],
    "matrix_oracle.verify_diagonal_optimality": [
        ("specnash.experiments", "verify_diagonal_optimality")
    ],
    "matrix_oracle.circulant_links": [("specnash.matrix_oracle", "circulant_links")],
    "matrix_oracle.random_feasible_precoder": [
        ("specnash.matrix_oracle", "random_feasible_precoder")
    ],
    "matrix_oracle.mutual_information": [("specnash.matrix_oracle", "mutual_information")],
    "matrix_oracle.gap_rate": [("specnash.matrix_oracle", "gap_rate")],
}


def _count_verdicts(counters, report):
    for verdict in report.conditions.values():
        if verdict.error is not None:
            counters["uniqueness.verdicts.error"] += 1
        elif verdict.satisfied is None:
            counters["uniqueness.verdicts.boundary"] += 1


def _count_sweeps(counters, result):
    counters["equilibrium.solve.iterations"] += result.iterations
    counters["equilibrium.solve.converged"] += bool(result.converged)


# Span name -> hook reading counts off the returned value.
RESULT_HOOKS = {
    "uniqueness.check_conditions": _count_verdicts,
    "equilibrium.solve": _count_sweeps,
}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.  The
# suffix says how a span-backed metric is computed (see layer_metrics).
PER_LAYER = [
    ("uniqueness.spectral_radius.calls", "count"),
    ("uniqueness.spectral_radius.us_p50", "us"),
    ("uniqueness.spectral_radius.ms", "ms"),
    ("uniqueness.usable_sets.ms", "ms"),
    ("uniqueness.coupling_stack.ms", "ms"),
    ("uniqueness.perron_weights.ms", "ms"),
    ("uniqueness.check_conditions.calls", "count"),
    ("uniqueness.check_conditions.ms_p50", "ms"),
    ("uniqueness.check_conditions.self_ms", "ms"),
    ("uniqueness.verdicts.boundary", "count"),
    ("uniqueness.verdicts.error", "count"),
    ("waterfilling.waterfill.calls", "count"),
    ("waterfilling.waterfill.us_p50", "us"),
    ("waterfilling.waterfill.ms", "ms"),
    ("equilibrium.best_response.calls", "count"),
    ("equilibrium.best_response.us_p50", "us"),
    ("equilibrium.solve.calls", "count"),
    ("equilibrium.solve.ms_p50", "ms"),
    ("equilibrium.solve.iterations", "count"),
    ("equilibrium.solve.converged_frac", "frac"),
    ("equilibrium.classify_profile.ms", "ms"),
    ("pareto.project_profile.calls", "count"),
    ("pareto.project_profile.us_p50", "us"),
    ("pareto.project_profile.ms", "ms"),
    ("pareto.rate_array.calls", "count"),
    ("pareto.rate_array.ms", "ms"),
    ("pareto.rate_gradient.calls", "count"),
    ("pareto.rate_gradient.ms", "ms"),
    ("pareto.solve_scalarized.ms", "ms"),
    ("matrix_oracle.verify_diagonal_optimality.ms_p50", "ms"),
    ("matrix_oracle.circulant_links.ms", "ms"),
    ("matrix_oracle.random_feasible_precoder.ms", "ms"),
    ("matrix_oracle.mutual_information.calls", "count"),
    ("matrix_oracle.mutual_information.ms", "ms"),
    ("matrix_oracle.gap_rate.calls", "count"),
    ("matrix_oracle.gap_rate.ms", "ms"),
    ("channel.ratio_scenario.ms", "ms"),
    ("channel.build_game.calls", "count"),
    ("channel.build_game.ms", "ms"),
    ("experiments.driver.self_ms", "ms"),
    ("experiments.bytes_written", "bytes"),
    ("experiments.par2_speedup", "x"),
    ("trace.items", "count"),
    ("trace.overhead_frac", "frac"),
]


class Tracer:
    """Records spans while ``active``; wrappers pass calls straight through otherwise."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.code: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counters: defaultdict = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self._patched: list = []

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so each call while active records one span."""
        code = self._ids.setdefault(name, len(self._ids))
        if code == len(self.names):
            self.names.append(name)
        codes, start, end, parent, stack = self.code, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(codes)
            codes.append(code)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(self.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install a wrapper at every import site in SITES; restore them on exit."""
        for name, sites in SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, original, RESULT_HOOKS.get(name)))
                self._patched.append((module, attr, original))
        try:
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    def arrays(self):
        """Spans as arrays: (code, start_ns, end_ns, parent)."""
        return (
            np.asarray(self.code, dtype=np.int32),
            np.asarray(self.start, dtype=np.int64),
            np.asarray(self.end, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
        )

    def save(self, path) -> None:
        code, start, end, parent = self.arrays()
        origin = int(start.min()) if start.size else 0
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            code=code,
            start_ns=start - origin,
            end_ns=end - origin,
            parent=parent,
        )


def self_times(start, end, parent, spans) -> np.ndarray:
    """Self time of each span in ``spans``: duration minus the union of its
    children's intervals, clipped to the span itself."""
    spans = np.asarray(spans, dtype=np.int64)
    children = defaultdict(list)
    for child in np.nonzero(np.isin(parent, spans))[0]:
        children[int(parent[child])].append(int(child))
    out = np.empty(spans.size, dtype=np.float64)
    for n, idx in enumerate(spans):
        lo, hi = int(start[idx]), int(end[idx])
        covered = 0
        run_lo = run_hi = None
        for s, e in sorted((max(int(start[c]), lo), min(int(end[c]), hi)) for c in children[int(idx)]):
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[n] = hi - lo - covered
    return out


def layer_metrics(tracer: Tracer, extras: dict) -> dict:
    """Every PER_LAYER metric as name -> (value, unit, samples).

    Span-backed metrics are named ``<span>.<stat>``: ``calls`` counts spans,
    ``ms`` sums their durations, ``us_p50`` / ``ms_p50`` take the median
    duration and ``self_ms`` sums self times.  A layer that never ran reads
    0.  The rest come from result-hook counters or from ``extras``.
    """
    code, start, end, parent = tracer.arrays()
    dur = (end - start).astype(np.float64)
    by_name = {name: np.nonzero(code == c)[0] for c, name in enumerate(tracer.names)}
    empty = np.zeros(0, dtype=np.int64)
    solves = by_name.get("equilibrium.solve", empty).size
    special = {
        "uniqueness.verdicts.boundary": tracer.counters["uniqueness.verdicts.boundary"],
        "uniqueness.verdicts.error": tracer.counters["uniqueness.verdicts.error"],
        "equilibrium.solve.iterations": tracer.counters["equilibrium.solve.iterations"],
        "equilibrium.solve.converged_frac": (
            tracer.counters["equilibrium.solve.converged"] / solves if solves else 0.0
        ),
    }
    out = {}
    for metric, unit in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        idx = by_name.get(span, empty)
        if metric in special:
            value, n = special[metric], idx.size
        elif metric in extras:
            value, n = extras[metric]
        elif stat == "calls":
            value, n = idx.size, idx.size
        elif stat == "ms":
            value, n = dur[idx].sum() / 1e6, idx.size
        elif stat == "us_p50":
            value, n = (float(np.median(dur[idx])) / 1e3 if idx.size else 0.0), idx.size
        elif stat == "ms_p50":
            value, n = (float(np.median(dur[idx])) / 1e6 if idx.size else 0.0), idx.size
        elif stat == "self_ms":
            value = self_times(start, end, parent, idx).sum() / 1e6 if idx.size else 0.0
            n = idx.size
        else:
            raise KeyError(f"no rule computes per-layer metric {metric!r}")
        out[metric] = (float(value), unit, int(n))
    return out

"""Span tracing and counters for the benchmark, installed from outside the package.

Every function that one platoonsim module imports from another layer is
replaced, in the importing module's namespace, by a wrapper that records a
span (name, start, end, parent). Spans stay in memory until the run ends.
A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers add up to the time of the root
``cli.main`` spans.

The wrappers also collect counts where the work happens: integrator counts
from each ``SolveResult``'s ``SolveStats``, certified grid points, envelope
evaluations (``build_envelope`` returns an envelope whose ``V_lo``, ``V_hi``
and ``h_hi`` record a span per call), CSV rows read, and the paths of the
CSVs written, whose rows and bytes are counted after the pass, untimed.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("cli", "scenario_io", "core", "integrator", "safety", "perturbation",
          "sweep", "trajectory_io")

# fmt formats every CSV cell; a span per cell would swamp what it measures.
_UNWRAPPED = {"fmt"}

ENVELOPE_EVAL = "safety.envelope_eval"

# Per-pass counts that must repeat exactly between passes of the same code.
COUNT_NAMES = (
    "scenario_io.parse_calls", "core.validate_calls",
    "integrator.simulate_calls", "integrator.steps", "integrator.switch_refinements",
    "integrator.switch_events", "integrator.stopped_runs",
    "safety.cert_points", "safety.envelope_evals", "sweep.runs",
    "trajectory_io.rows_written", "trajectory_io.bytes_written", "trajectory_io.rows_read",
)


def call_sites(package: str = "platoonsim") -> list[tuple[object, str, object, str]]:
    """(module, attribute, function, span name) for each cross-layer import.

    ``cli.main`` is the root span of every command. ``core.validate_scenario``
    is also patched where it is defined, because ``perturbed_simulate``
    imports it at call time.
    """
    mods = {name: m for name, m in sys.modules.items()
            if name.startswith(package + ".") and m is not None}
    cli, core = mods[package + ".cli"], mods[package + ".core"]
    sites = [(cli, "main", cli.main, "cli.main"),
             (core, "validate_scenario", core.validate_scenario, "core.validate_scenario")]
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or attr in _UNWRAPPED:
                continue
            home = obj.__module__ or ""
            layer = home.rpartition(".")[2]
            if home != mod.__name__ and home.startswith(package + ".") and layer in LAYERS:
                sites.append((mod, attr, obj, f"{layer}.{obj.__name__}"))
    return sites


class Patches:
    """Module attributes replaced by wrappers, restorable in one call."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, mod, attr: str, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


class StepCounter:
    """Counts simulate calls and accepted steps, with no clock reads.

    Installed for every pass, so traced and untraced passes differ only
    by the spans.
    """

    def __init__(self):
        self.runs = 0
        self.steps = 0

    def install(self, patches: Patches) -> None:
        for mod, attr, fn, name in call_sites():
            if name == "integrator.simulate":
                patches.set(mod, attr, self._wrap(fn))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.runs += 1
            self.steps += result.stats.steps
            return result
        return counted


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.written: list[str] = []
        self.cert_calls: list[tuple[int, list]] = []  # (grid points, span) per certify call

    def install(self, patches: Patches) -> None:
        for mod, attr, fn, name in call_sites():
            patches.set(mod, attr, self.wrap(name, fn, _ON_RESULT.get(name)))

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._open, self.clock_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                result = on_result(self, args, kwargs, result, span)
            return result
        return traced

    def count_written(self) -> None:
        """Rows (lines after the header) and bytes of every CSV written."""
        for path in self.written:
            with open(path, "rb") as fh:
                data = fh.read()
            self.counts["trajectory_io.rows_written"] += max(data.count(b"\n") - 1, 0)
            self.counts["trajectory_io.bytes_written"] += len(data)
        self.written.clear()

    def retime(self, convert) -> None:
        """Replace every span's start and end (ns) by convert(them)."""
        for span in self.spans:
            span[1], span[2] = convert(span[1]), convert(span[2])

    def metrics(self) -> dict[str, float]:
        """Per-layer times (s) and counts of this pass."""
        n = len(self.spans)
        child_ns = [0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layer_self = Counter()
        self_ns = Counter()
        incl_ns = Counter()
        calls = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child_ns[i]
            layer_self[name.partition(".")[0]] += own
            self_ns[name] += own
            incl_ns[name] += end - start
            calls[name] += 1
        c = self.counts
        s = 1e-9
        write_ns = sum(v for k, v in self_ns.items() if k.startswith("trajectory_io.write_"))
        read_ns = self_ns["trajectory_io.read_trajectory_csv"]
        rows = c["trajectory_io.rows_written"] + c["trajectory_io.rows_read"]
        out = {f"{layer}.self_s": layer_self[layer] * s for layer in LAYERS}
        out.update({
            "scenario_io.parse_s": self_ns["scenario_io.parse_config"] * s,
            "scenario_io.parse_calls": calls["scenario_io.parse_config"],
            "core.validate_s": self_ns["core.validate_scenario"] * s,
            "core.validate_calls": calls["core.validate_scenario"],
            "integrator.simulate_s": self_ns["integrator.simulate"] * s,
            "integrator.simulate_calls": calls["integrator.simulate"],
            "integrator.steps": c["integrator.steps"],
            "integrator.switch_refinements": c["integrator.switch_refinements"],
            "integrator.switch_events": c["integrator.switch_events"],
            "integrator.stopped_runs": c["integrator.stopped_runs"],
            "integrator.us_per_step": _per(self_ns["integrator.simulate"], c["integrator.steps"]),
            "safety.build_envelope_s": incl_ns["safety.build_envelope"] * s,
            "safety.certify_s": incl_ns["safety.certify_trajectory"] * s,
            "safety.cert_points": c["safety.cert_points"],
            "safety.envelope_evals": calls[ENVELOPE_EVAL],
            "safety.envelope_eval_s": incl_ns[ENVELOPE_EVAL] * s,
            "safety.us_per_cert_point": _per(incl_ns["safety.certify_trajectory"],
                                             c["safety.cert_points"]),
            "perturbation.pair_signals_s": incl_ns["perturbation.pair_signals"] * s,
            "sweep.runs": c["sweep.runs"],
            "sweep.write_csv_s": incl_ns["sweep.write_sweep_csv"] * s,
            "trajectory_io.write_s": write_ns * s,
            "trajectory_io.rows_written": c["trajectory_io.rows_written"],
            "trajectory_io.bytes_written": c["trajectory_io.bytes_written"],
            "trajectory_io.read_s": read_ns * s,
            "trajectory_io.rows_read": c["trajectory_io.rows_read"],
            "trajectory_io.us_per_row": _per(write_ns + read_ns, rows),
        })
        return out


def _per(ns: int, count: int) -> float:
    """Microseconds per item; 0 when the pass did no such work."""
    return ns / 1e3 / count if count else 0.0


def _on_simulate(tracer, args, kwargs, result, span):
    c = tracer.counts
    c["integrator.steps"] += result.stats.steps
    c["integrator.switch_refinements"] += result.stats.switch_refinements
    c["integrator.switch_events"] += len(result.stats.switch_events)
    c["integrator.stopped_runs"] += result.status.value != "completed"
    return result


def _on_build_envelope(tracer, args, kwargs, env, span):
    return dataclasses.replace(
        env,
        V_lo=tracer.wrap(ENVELOPE_EVAL, env.V_lo),
        V_hi=tracer.wrap(ENVELOPE_EVAL, env.V_hi),
        h_hi=tracer.wrap(ENVELOPE_EVAL, env.h_hi))


def _on_certify(tracer, args, kwargs, report, span):
    tracer.counts["safety.cert_points"] += report.grid_size
    tracer.cert_calls.append((report.grid_size, span))
    return report


def _on_write(tracer, args, kwargs, result, span):
    path = kwargs.get("path") or next(a for a in reversed(args) if isinstance(a, (str, os.PathLike)))
    tracer.written.append(os.fspath(path))
    return result


def _on_read(tracer, args, kwargs, traj, span):
    tracer.counts["trajectory_io.rows_read"] += traj.n_points
    return traj


def _on_run_sweep(tracer, args, kwargs, summaries, span):
    tracer.counts["sweep.runs"] += len(summaries)
    return summaries


_ON_RESULT = {
    "integrator.simulate": _on_simulate,
    "safety.build_envelope": _on_build_envelope,
    "safety.certify_trajectory": _on_certify,
    "trajectory_io.write_trajectory_csv": _on_write,
    "trajectory_io.write_envelope_csv": _on_write,
    "trajectory_io.write_cert_report_csv": _on_write,
    "trajectory_io.write_convergence_csv": _on_write,
    "trajectory_io.read_trajectory_csv": _on_read,
    "sweep.run_sweep": _on_run_sweep,
}

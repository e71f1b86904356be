"""platoonsim benchmark: the CLI driven in-process, in a closed loop.

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process calls ``platoonsim.cli.main`` for one command at a
time (sweeps with ``--workers 1``), repeating the workload's pass of
commands until the next pass would end after ``--seconds``.

Host speed. On shared hosts the speed of the CPU switches between a fast
and a slow state (up to 2x apart) every few seconds, which no median within
one run can remove. A SIGALRM handler therefore times a fixed pure-Python
calibration kernel every SAMPLE_PERIOD_S throughout the run, pausing the
program meanwhile; the pauses are left out of every measured time
(HostClock). After the run, every timestamp is mapped to reference time: a
stretch of time between two samples counts REF_KERNEL_S / (their mean
kernel time) reference seconds per second. So each command is corrected by
the host's speed while it ran, and times read as seconds on a host where
the kernel takes REF_KERNEL_S. Raw times are printed beside them.

Set-up (``setup_s``) drops the package from ``sys.modules``, imports it
again, loads the presets the workload uses and writes its config files.
It is timed SETUP_REPEATS times before the first command and once more
after every pass, so that its median, like wall_s, spans the whole run.
The repeats after a pass put the modules the passes use back in place.
numpy is imported once beforehand, since it cannot be re-imported safely.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced passes and reports per-layer self times and counts
(see tracing.py) of the traced pass with the median wall time;
``trace.overhead_s`` is its wall time minus the untraced median. Spans are
written to ``.bench_out/`` at the end.

Every pass deletes the previous outputs, runs its commands and then, untimed,
checks exit codes and outputs and hashes every output file; the hashes must
match the first pass's. Counts must repeat exactly between passes. Human
readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Calibration kernel time on the reference host (2-core Xeon, Python 3.11).
REF_KERNEL_S = 0.004
SAMPLE_PERIOD_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
    "steps_per_s": "1/s", "sim_runs_per_s": "1/s", "peak_rss_mb": "MB",
}


def _kernel() -> str:
    # Float arithmetic over short lists, the style of the integrator's hot loop.
    y = [0.1 * i for i in range(16)]
    for _ in range(1000):
        k = [math.exp(-a) * 0.5 - 0.1 * a for a in y]
        y = [a + 0.01 * b for a, b in zip(y, k)]
    return ",".join(map(repr, y))


class HostClock:
    """perf_counter without the time spent sampling the host's speed.

    Between start() and stop(), a SIGALRM handler times the calibration
    kernel every SAMPLE_PERIOD_S; now() leaves those pauses out. Both
    start() and stop() take a sample too, so every timestamp of the run
    lies between two samples.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (now() when taken, kernel s)
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def now_ns(self) -> int:
        return int(self.now() * 1e9)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        at = t0 - self._paused
        _kernel()
        self.samples.append((at, time.perf_counter() - t0))
        self._paused += time.perf_counter() - t0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def kernel_times(self) -> list[float]:
        """Kernel times, each the median of itself and its two neighbours,
        so that one interrupted sample does not count."""
        k = [s for _, s in self.samples]
        return [statistics.median(k[max(i - 1, 0):i + 2]) for i in range(len(k))]

    def reference(self):
        """Map from now() values to reference seconds (see module docstring)."""
        ts = [t for t, _ in self.samples]
        k = self.kernel_times()
        rates = [2 * REF_KERNEL_S / (a + b) for a, b in zip(k, k[1:])]
        cum = [0.0]
        for i, r in enumerate(rates):
            cum.append(cum[-1] + (ts[i + 1] - ts[i]) * r)

        def to_ref(t: float) -> float:
            i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(rates) - 1)
            return cum[i] + (t - ts[i]) * rates[i]
        return to_ref


def _program_modules() -> list[str]:
    return [m for m in sys.modules if m == "platoonsim" or m.startswith("platoonsim.")]


def _import_program() -> SimpleNamespace:
    for name in _program_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("platoonsim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported platoonsim from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, **{m: sys.modules[f"platoonsim.{m}"]
                                       for m in ("scenario_io", "presets")})


def set_up(name: str, seed: int, cfg_dir: Path, clock: HostClock):
    """Import, preset loading and config generation, timed.

    Returns the program, the workload and the (start, end) of the set-up.
    """
    t0 = clock.now()
    program = _import_program()
    wl = workloads.build(name, seed, program, cfg_dir)
    return program, wl, (t0, clock.now())


def set_up_again(wl, cfg_dir: Path, clock: HostClock) -> tuple[float, float]:
    """Time one more set-up, then restore the modules in use."""
    in_use = {m: sys.modules[m] for m in _program_modules()}
    try:
        return set_up(wl.name, wl.seed, cfg_dir, clock)[2]
    finally:
        for m in _program_modules():
            del sys.modules[m]
        sys.modules.update(in_use)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Pass:
    """One pass over the workload's commands, then its untimed checks.

    Each command's (start, end) is kept in raw clock time; retime() sets
    the latencies and wall (their sum) in reference seconds.
    """

    def __init__(self, program, wl, out: Path, clock: HostClock, steps: tracing.StepCounter,
                 tracer=None):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        steps.runs = steps.steps = 0
        sink = io.StringIO()
        self.intervals, results = [], []
        for cmd in wl.commands:
            sink.seek(0)
            sink.truncate()
            argv = cmd.argv(out)
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = clock.now()
                try:
                    code = program.cli.main(argv)
                except Exception:  # a crash is a failed command; keep measuring
                    code = traceback.format_exc()
                t1 = clock.now()
            self.intervals.append((t0, t1))
            results.append((code, sink.getvalue()))
        self.raw_wall = sum(t1 - t0 for t0, t1 in self.intervals)
        self.counts_untraced = (steps.runs, steps.steps)

        self.problems: list[list[str]] = []
        for cmd, (code, text) in zip(wl.commands, results):
            problems = [] if code == 0 else [f"exit {code!r}: {text.strip()[-500:]}"]
            if not problems:
                for check in cmd.checks:
                    try:
                        problems += check(out / cmd.label)
                    except (OSError, KeyError, ValueError) as e:
                        problems.append(f"unreadable output: {e!r}")
            self.problems.append(problems)
        self.digests = {label: _digest(out / label)
                        for label in dict.fromkeys(c.label for c in wl.commands)}
        self.tracer = tracer
        if tracer is not None:
            tracer.count_written()
            self.counts = {k: tracer.metrics()[k] for k in tracing.COUNT_NAMES}

    def retime(self, to_ref) -> None:
        self.latencies = [to_ref(t1) - to_ref(t0) for t0, t1 in self.intervals]
        self.wall = sum(self.latencies)
        if self.tracer is not None:
            self.tracer.retime(lambda ns: round(to_ref(ns * 1e-9) * 1e9))


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is reported instead.
    """
    s = sorted(samples)
    if len(s) < 21:
        return s[-1], f"max of {len(s)} samples"
    return s[-11], f"p{100 * (len(s) - 10) / len(s):.1f} of {len(s)} samples"


def run_passes(program, wl, work: Path, clock: HostClock, seconds: float,
               traced: bool, setups: list[tuple[float, float]]) -> list[Pass]:
    """Passes until the next one would end after `seconds`. Traced runs
    alternate traced and untraced passes, starting traced, and make at
    least one of each. A set-up is timed and added to setups after each pass."""
    out = work / "out"
    steps = tracing.StepCounter()
    patches = tracing.Patches()
    steps.install(patches)
    passes: list[Pass] = []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            if traced and len(passes) % 2 == 0:
                tracer = tracing.Tracer(clock.now_ns)
                inner = tracing.Patches()
                tracer.install(inner)
                try:
                    passes.append(Pass(program, wl, out, clock, steps, tracer))
                finally:
                    inner.restore()
            else:
                passes.append(Pass(program, wl, out, clock, steps))
            setups.append(set_up_again(wl, work / "cfg", clock))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds and (not traced or len(passes) >= 2):
                return passes
    finally:
        patches.restore()


def check_passes(wl, passes: list[Pass]) -> tuple[int, list[str]]:
    """Failed commands (exit code, output check, or outputs that differ
    from pass 1), and the notes explaining every failure, including counts
    that do not repeat exactly."""
    failed, notes = 0, []
    ref = passes[0]
    for i, p in enumerate(passes, start=1):
        for cmd, problems in zip(wl.commands, p.problems):
            if p.digests[cmd.label] != ref.digests[cmd.label]:
                problems = [*problems, "outputs differ from pass 1"]
            if problems:
                failed += 1
                notes.append(f"pass {i} {' '.join(cmd.args)}: {'; '.join(problems)}")
        if p.counts_untraced != ref.counts_untraced:
            notes.append(f"pass {i}: simulate runs/steps {p.counts_untraced} "
                         f"!= {ref.counts_untraced} in pass 1")
    traced = [p for p in passes if p.tracer is not None]
    for i, p in enumerate(traced[1:], start=2):
        diff = {k: (v, traced[0].counts[k]) for k, v in p.counts.items() if v != traced[0].counts[k]}
        if diff:
            notes.append(f"traced pass {i}: counts differ from traced pass 1: {diff}")
    return failed, notes


def write_spans(path: Path, passes: list[Pass]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,span,name,start_ns,end_ns,parent\n")
        for i, p in enumerate(passes, start=1):
            for j, (name, start, end, parent) in enumerate(p.tracer.spans):
                fh.write(f"{i},{j},{name},{start},{end},{parent}\n")


def layer_report(wl, passes: list[Pass], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass with the median (low) wall time,
    so that its self times add up to its wall time."""
    traced = [p for p in passes if p.tracer is not None]
    rep = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    metrics = rep.tracer.metrics()
    metrics["trace.wall_s"] = rep.wall
    metrics["trace.overhead_s"] = rep.wall - untraced_wall
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(f"traced passes {len(traced)}, untraced {len(passes) - len(traced)}; layer self "
          f"times sum to {self_sum:.4f} s, traced wall_s {metrics['trace.wall_s']:.4f} s")
    for points, span in rep.tracer.cert_calls:
        print(f"  certify_trajectory: {points} grid points, "
              f"{(span[2] - span[1]) / 1e3 / points:.1f} us/point")
    print("counts " + " ".join(f"{k}={rep.counts[k]}" for k in tracing.COUNT_NAMES))
    write_spans(OUT / f"spans-{wl.name}-seed{wl.seed}.csv", traced)
    return metrics


def end_to_end_report(wl, passes: list[Pass], setup: float, wall: float) -> dict[str, float]:
    latencies = [x for p in passes for x in p.latencies]
    cmd_tail, tail_note = tail(latencies)
    runs, steps = passes[0].counts_untraced
    print(f"per pass: {runs} simulate runs, {steps} integrator steps; cmd_tail_s is the "
          f"{tail_note}")
    for i, cmd in enumerate(wl.commands):
        xs = [p.latencies[i] for p in passes]
        print(f"  {statistics.median(xs):9.4f} s median of {len(xs)}  {cmd.args[0]} {cmd.label}")
    return {
        "setup_s": setup,
        "wall_s": wall,
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": cmd_tail,
        "steps_per_s": steps / wall,
        "sim_runs_per_s": runs / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "trajectory_io.bytes_written":
        return "bytes"
    if name in tracing.COUNT_NAMES:
        return "count"
    return "us" if ".us_per_" in name else "s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="platoonsim benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "platoonsim" / "__init__.py").is_file():
        print(f"bench: no platoonsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (see module docstring)

    work = OUT / f"{args.workload}-{os.getpid()}"
    clock = HostClock()
    clock.start()
    try:
        setups = [set_up(args.workload, args.seed, work / "cfg", clock)[2]
                  for _ in range(SETUP_REPEATS - 1)]
        program, wl, last = set_up(args.workload, args.seed, work / "cfg", clock)
        setups.append(last)
        passes = run_passes(program, wl, work, clock, args.seconds, bool(args.trace), setups)
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes) * len(wl.commands)
    failed, notes = check_passes(wl, passes)
    print(f"workload {wl.name}  seed {wl.seed}  trace {args.trace}  {wl.inputs}")
    print(f"passes {len(passes)}  commands/pass {len(wl.commands)}  "
          f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} commands)")
    for note in notes:
        print(f"  FAIL {note}")
    print("outputs sha256 "
          + hashlib.sha256("".join(passes[0].digests.values()).encode()).hexdigest())

    to_ref = clock.reference()
    for p in passes:
        p.retime(to_ref)
    untraced = [p for p in passes if p.tracer is None]
    wall = statistics.median(p.wall for p in untraced)
    setup = statistics.median(to_ref(t1) - to_ref(t0) for t0, t1 in setups)
    k = sorted(clock.kernel_times())
    print(f"host: kernel {k[len(k) // 10] * 1e3:.3f} / {statistics.median(k) * 1e3:.3f} / "
          f"{k[-1 - len(k) // 10] * 1e3:.3f} ms (p10/p50/p90 of {len(k)} samples); "
          f"raw wall_s {statistics.median(p.raw_wall for p in untraced):.4f} s, "
          f"raw setup_s {statistics.median(t1 - t0 for t0, t1 in setups):.4f} s "
          f"(median of {len(setups)})")
    if args.trace:
        metrics = layer_report(wl, passes, wall)
    else:
        metrics = end_to_end_report(wl, passes, setup, wall)
    for k, v in metrics.items():
        print(f"{k:32s} {v:14.6g} {_unit(k)}")
    print(json.dumps({"correct": not notes, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

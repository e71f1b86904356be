"""Command-line front end.

Subcommands: simulate | compare | envelope | perturb | sweep. Every
command takes exactly one of --config PATH or --preset NAME plus an
--out directory, writes CSVs with documented headers and a manifest.json
naming every output, and exits with a code from the table below. Output is
deterministic: rerunning the same inputs rewrites byte-identical files.

exit 0  success
exit 2  collision detected
exit 3  invalid config, scenario diagnostics, inadmissible perturbation, or
        an envelope --check-only trajectory.csv that does not match the scenario
exit 4  speed-box guard tripped (integrator misconfiguration signal)
exit 5  certification failure
exit 6  perturbation distances not decreasing
exit 7  sweep invariant violation (collision or box exit in a sweep run)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .core import CaccParams, ModelKind, Scenario, ScenarioError, _require_valid
from .integrator import SolveResult, SolveStatus, run_record, simulate, trajectory_mismatches
from .perturbation import convergence_study
from .presets import PRESET_NAMES, load_preset
from .safety import build_envelope, certify_trajectory
from .scenario_io import (
    ConfigError,
    ParsedConfig,
    load_config,
    profile_segments_dict,
    scenario_to_manifest,
)
from .sweep import run_sweep, sweep_table
from .trajectory_io import (
    cert_table,
    convergence_table,
    envelope_table,
    fmt,
    read_trajectory_csv,
    trajectory_table,
    write_tables,
)

DETERMINISM_NOTE = ("fixed-step integration, envelopes evaluated in closed form, "
                    "no randomness, no wall clock; identical inputs reproduce "
                    "outputs byte for byte")

_STATUS_EXIT = {
    SolveStatus.COMPLETED: 0,
    SolveStatus.COLLISION_DETECTED: 2,
    SolveStatus.GUARD_TRIPPED: 4,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonsim",
        description="Platoon simulation and safety certification for a min-type car-following law.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", metavar="PATH", help="scenario config file")
        src.add_argument("--preset", metavar="NAME", choices=PRESET_NAMES,
                         help=f"built-in scenario: {', '.join(PRESET_NAMES)}")
        p.add_argument("--out", metavar="DIR", required=True, help="output directory")
        p.add_argument("--dt", type=float, metavar="F", help="override stepper dt")
        return p

    common(sub.add_parser("simulate", help="integrate one scenario to CSV"))
    common(sub.add_parser("compare", help="run the same initial data under all three models"))
    p = common(sub.add_parser("envelope", help="simulate, build safety envelopes, certify"))
    p.add_argument("--check-only", action="store_true",
                   help="re-certify the trajectory.csv already in --out; write nothing")
    p = common(sub.add_parser("perturb", help="leader-perturbation convergence study"))
    p.add_argument("--strict-eps", choices=("true", "false"),
                   help="override the config's admissibility mode")
    p = common(sub.add_parser("sweep", help="run a scenario grid"))
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="parallel worker processes, at most one per grid point; "
                        "1 runs in-process (default 1)")
    return parser


def _load(args) -> ParsedConfig:
    """The command's config with --dt applied, its scenario validated.

    Every command calls this before it creates --out, so an invalid scenario
    writes nothing, and the runs that follow skip validation.
    """
    parsed = load_preset(args.preset) if args.preset is not None else load_config(args.config)
    if args.dt is not None:
        if not args.dt > 0.0:
            raise ConfigError(f"--dt must be positive, got {args.dt!r}")
        parsed = replace(parsed, scenario=replace(
            parsed.scenario, stepper=replace(parsed.scenario.stepper, dt=args.dt)))
    _require_valid(parsed.scenario)
    return parsed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, s: Scenario, tables: list,
                    extra: dict | None = None) -> None:
    """manifest.json, whose outputs are itself and the files of the
    (path, header, columns) tables the command wrote."""
    data = {
        "command": command,
        "tool_version": __version__,
        "determinism": DETERMINISM_NOTE,
        "scenario": scenario_to_manifest(s),
        "outputs": sorted(["manifest.json", *(path.name for path, _, _ in tables)]),
    }
    if extra:
        data.update(extra)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_result(res: SolveResult) -> None:
    if res.status is SolveStatus.COLLISION_DETECTED:
        t, follower = res.trajectory.collision
        print(f"collision: headway ahead of follower {follower} closed at t={fmt(t)}")
    elif res.status is SolveStatus.GUARD_TRIPPED:
        follower, velocity = res.stats.guard_violation
        print(f"guard tripped: follower {follower} velocity {fmt(velocity)} left the box",
              file=sys.stderr)


def cmd_simulate(args) -> int:
    s = _load(args).scenario
    out = _out_dir(args)
    res = simulate(s, validate=False)
    tables = [trajectory_table(res.trajectory, out / "trajectory.csv")]
    write_tables(tables)
    _write_manifest(out, "simulate", s, tables,
                    {"status": res.status.value, **run_record(s, res).counters})
    _report_result(res)
    print(f"simulate: {res.status.value}, {res.trajectory.n_points} grid points "
          f"-> {out / 'trajectory.csv'}")
    return _STATUS_EXIT[res.status]


def cmd_compare(args) -> int:
    s = _load(args).scenario
    out = _out_dir(args)
    # The variants differ from the validated scenario only in law and params,
    # and CaccParams' default constants pass validation, so none is re-validated.
    base = s.base_params
    cacc_params = s.params if isinstance(s.params, CaccParams) else CaccParams(base)
    variants = (
        ("proposed", replace(s, model_kind=ModelKind.PROPOSED, params=base)),
        ("cacc", replace(s, model_kind=ModelKind.CACC, params=cacc_params)),
        ("ovfl", replace(s, model_kind=ModelKind.OVFL, params=base)),
    )
    tables, records = [], []
    for name, variant in variants:
        res = simulate(variant, validate=False)
        records.append(rec := run_record(variant, res))
        tables.append(trajectory_table(res.trajectory, out / f"{name}.csv"))
        if rec.collision_time is not None:
            print(f"{name}: collision at t={fmt(rec.collision_time)}")
        else:
            print(f"{name}: {rec.status.value}, min headway {fmt(rec.min_headways[0])}")
    summary = [[name for name, _ in variants], [r.status.value for r in records],
               np.array([r.min_headways[0] for r in records]),
               [fmt(r.collision_time) if r.collision_time is not None else "-" for r in records],
               np.array([r.terminal_v for r in records]),
               np.array([r.settle_time for r in records]),
               [fmt(r.band_time) if r.band_time is not None else "-" for r in records]]
    tables.append((out / "summary.csv",
                   ["model", "status", "min_headway", "collision_time",
                    "terminal_velocity", "settle_time", "time_to_control_band"], summary))
    write_tables(tables)
    _write_manifest(out, "compare", s, tables)
    return _STATUS_EXIT[records[0].status]  # the min-type law's run


def _print_report(report) -> int:
    """Print each check's verdict; the exit code is 0 if all passed, else 5."""
    for name, margin, _, ok in report.rows():
        print(f"{name}: {'pass' if ok else 'FAIL'} (worst margin {fmt(margin)})")
    return 0 if report.passed else 5


def cmd_envelope(args) -> int:
    s = _load(args).scenario
    if s.model_kind is not ModelKind.PROPOSED:
        print("envelope: certificates apply to the min-type law only", file=sys.stderr)
        return 3
    if args.check_only:
        traj_path = Path(args.out) / "trajectory.csv"
        if not traj_path.exists():
            print(f"envelope --check-only: no trajectory at {traj_path}", file=sys.stderr)
            return 3
        traj = read_trajectory_csv(traj_path)
        mismatches = trajectory_mismatches(s, traj)
        for reason in mismatches:
            print(f"envelope --check-only: {traj_path} is not a run of this scenario: {reason}",
                  file=sys.stderr)
        if mismatches:
            return 3
        return _print_report(certify_trajectory(traj, build_envelope(s, traj)))
    out = _out_dir(args)
    res = simulate(s, validate=False)
    tables = [trajectory_table(res.trajectory, out / "trajectory.csv")]
    # trajectory.csv is written whatever stops the certification.
    try:
        if res.status is SolveStatus.COMPLETED:
            env = build_envelope(s, res.trajectory)
            report = certify_trajectory(res.trajectory, env)
            tables += [envelope_table(res.trajectory, env, out / "envelope.csv"),
                       cert_table(report, out / "certification.csv")]
    finally:
        write_tables(tables)
    if res.status is not SolveStatus.COMPLETED:
        _write_manifest(out, "envelope", s, tables, {"status": res.status.value})
        _report_result(res)
        return _STATUS_EXIT[res.status]
    _write_manifest(out, "envelope", s, tables,
                    {"status": res.status.value,
                     "certified_min_headway": env.underline_h,
                     "headway_integral": env.H,
                     "certification_passed": report.passed})
    return _print_report(report)


def cmd_perturb(args) -> int:
    parsed = _load(args)
    s = parsed.scenario
    if parsed.perturbation is None:
        print("perturb: config has no [perturbation] section", file=sys.stderr)
        return 3
    if s.model_kind is not ModelKind.PROPOSED:
        print("perturb: the study targets the min-type law", file=sys.stderr)
        return 3
    pert = parsed.perturbation
    strict = pert.strict if args.strict_eps is None else args.strict_eps == "true"
    g = pert.resolved_g(s.horizon)
    table = convergence_study(s, g, pert.eps, strict=strict)
    base, last = table.runs[0], table.runs[-1]
    if base.status is not SolveStatus.COMPLETED:
        _report_result(base)
        return _STATUS_EXIT[base.status]
    out = _out_dir(args)
    eps_values = sorted({float(e) for e in pert.eps}, reverse=True)
    tables = [convergence_table(table, out / "convergence.csv")]
    for eps, res in zip(eps_values, table.runs[1:]):
        tables.append(trajectory_table(res.trajectory, out / f"trajectory_eps_{fmt(eps)}.csv"))
    write_tables(tables)
    _write_manifest(out, "perturb", s, tables,
                    {"eps": eps_values, "eps_admissible_max": table.admissible_scale,
                     "strict": strict, "g": profile_segments_dict(g)})
    if last.status is not SolveStatus.COMPLETED:
        _report_result(last)
        return _STATUS_EXIT[last.status]
    for row in table.rows:
        print(f"eps={fmt(row.eps)}: sup distance {fmt(row.sup_distance)}")
    tail = [r.sup_distance for r in table.rows[-3:]]
    if len(tail) == 3 and not (tail[0] > tail[1] > tail[2]):
        print("perturb: distances of the three smallest scales are not strictly decreasing",
              file=sys.stderr)
        return 6
    return 0


def cmd_sweep(args) -> int:
    parsed = _load(args)
    s = parsed.scenario
    if parsed.sweep is None:
        print("sweep: config has no [sweep] section", file=sys.stderr)
        return 3
    cfg = parsed.sweep
    if args.workers < 1:
        print("sweep: --workers must be at least 1", file=sys.stderr)
        return 3
    summaries = run_sweep(s, cfg, workers=args.workers)
    out = _out_dir(args)
    tables = [sweep_table(summaries, sorted(cfg.param_grids), out / "runs.csv")]
    write_tables(tables)
    _write_manifest(out, "sweep", s, tables,
                    {"grid": {"n": list(cfg.n), "headways": list(cfg.headways),
                              "velocities": list(cfg.velocities),
                              **{k: list(v) for k, v in cfg.param_grids.items()}},
                     "runs": len(summaries)})
    completed = sum(1 for r in summaries if r.record.status is SolveStatus.COMPLETED)
    print(f"sweep: {completed}/{len(summaries)} runs completed -> {out / 'runs.csv'}")
    if s.model_kind is ModelKind.PROPOSED:
        bad = [r for r in summaries
               if r.record.status is not SolveStatus.COMPLETED or not r.record.min_headway > 0.0]
        if bad:
            print(f"sweep: {len(bad)} run(s) violated the collision-free/velocity-box "
                  f"invariants (first: index {bad[0].index}, status {bad[0].record.status.value})",
                  file=sys.stderr)
            return 7
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "envelope": cmd_envelope,
    "perturb": cmd_perturb,
    "sweep": cmd_sweep,
}


# One parser per process, built on the first call to main().
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except ScenarioError as e:
        for d in e.diagnostics:
            print(f"invalid scenario: {d.field}: {d.message}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

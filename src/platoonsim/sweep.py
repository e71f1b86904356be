"""Batch experiment runner: cartesian scenario grids with per-run checks.

Each grid point rebuilds the platoon from scratch: n vehicles at equal
initial headways, the leader keeping the base scenario's profile, every
follower starting at the grid velocity, controls broadcast from the base
scenario's first follower. Parameter-grid keys override the base gains
(inside CaccParams for a CACC scenario, which keeps its own constants).

Runs are independent, so the sweep can fan out over processes; results are
collected in grid order regardless of completion order, keeping the
aggregate CSV deterministic for any worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .core import CaccParams, ModelKind, PlatoonState, Scenario, VehicleState, _require_valid
from .integrator import RunRecord, SolveStatus, run_record, simulate
from .safety import build_envelope
from .scenario_io import SweepConfig
from .trajectory_io import fmt

__all__ = ["RunSummary", "expand_sweep", "run_sweep", "sweep_table"]


@dataclass(frozen=True)
class RunSummary:
    """A grid point, its run's record, and the run's least margin above any
    follower's certified headway floor (None but for a completed min-type run)."""

    index: int
    n: int
    headway0: float
    v0: float
    overrides: tuple[tuple[str, float], ...]
    record: RunRecord
    bound_margin: float | None


def _grid_scenario(base: Scenario, n: int, h0: float, v0: float,
                   overrides: tuple[tuple[str, float], ...]) -> Scenario:
    params = base.params
    if overrides:
        gains = replace(base.base_params, **dict(overrides))
        params = replace(params, base=gains) if isinstance(params, CaccParams) else gains
    vehicles = [VehicleState(h0 * (n - 1 - i), v0) for i in range(n)]
    vehicles[0] = VehicleState(vehicles[0].x, base.leader.v0)
    controls = tuple(base.controls[0] for _ in range(n - 1))
    return replace(base, params=params, initial=PlatoonState(tuple(vehicles)),
                   controls=controls)


def _jobs(base: Scenario, cfg: SweepConfig) -> list[tuple]:
    """(index, scenario, (n, headway0, v0), gain overrides) of every grid
    point, in deterministic grid order."""
    grid_keys = sorted(cfg.param_grids)
    jobs = []
    for axes in itertools.product(cfg.n, cfg.headways, cfg.velocities):
        for combo in itertools.product(*(cfg.param_grids[k] for k in grid_keys)):
            overrides = tuple(zip(grid_keys, combo))
            jobs.append((len(jobs), _grid_scenario(base, *axes, overrides), axes, overrides))
    return jobs


def expand_sweep(base: Scenario, cfg: SweepConfig) -> list[Scenario]:
    """All grid scenarios, in deterministic grid order."""
    return [s for _, s, _, _ in _jobs(base, cfg)]


def run_one(job: tuple) -> RunSummary:
    """The summary of one of _jobs' grid points, whose scenario run_sweep
    has validated."""
    index, s, (n, h0, v0), overrides = job
    res = simulate(s, validate=False)
    rec = run_record(s, res)
    # The certified floor is a theorem about the min-type law only.
    bound_margin = None
    if rec.status is SolveStatus.COMPLETED and s.model_kind is ModelKind.PROPOSED:
        bound_margin = min(h - build_envelope(s, res.trajectory, i).underline_h
                           for i, h in enumerate(rec.min_headways, 1))
    return RunSummary(index, n, h0, v0, overrides, rec, bound_margin)


def run_sweep(base: Scenario, cfg: SweepConfig, workers: int = 1) -> list[RunSummary]:
    """One summary per grid point, in grid order. Every grid scenario is
    validated, in grid order, before the first run, so a sweep with an
    invalid grid point raises its ScenarioError and runs nothing.

    The pool starts min(workers, runs) processes, all of them at its first
    submit; when that is 1 the runs go in-process."""
    jobs = _jobs(base, cfg)
    for _, s, _, _ in jobs:
        _require_valid(s)
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [run_one(job) for job in jobs]
    # Imported here: concurrent.futures pulls in multiprocessing, which every
    # other command would pay for at import.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_one, jobs, chunksize=4))
    return sorted(results, key=lambda r: r.index)


def sweep_table(summaries: list[RunSummary], grid_keys: list[str], path):
    """runs.csv's (path, header, columns) for write_tables: one row per
    summary, '-' for a bound margin or collision time the run has not."""
    def nums(name, dtype=float):
        return np.array(list(map(attrgetter(name), summaries)), dtype=dtype)

    def optional(name):
        return [fmt(x) if (x := attrgetter(name)(r)) is not None else "-" for r in summaries]

    gains = [np.array([dict(r.overrides)[k] for r in summaries], dtype=float) for k in grid_keys]
    header = ["index", "n", "headway0", "v0", *grid_keys, "status",
              "min_headway", "v_min", "v_max", "bound_margin",
              "collision_time", "steps"]
    cols = [nums("index", int), nums("n", int), nums("headway0"), nums("v0"), *gains,
            [r.record.status.value for r in summaries], nums("record.min_headway"),
            nums("record.v_min"), nums("record.v_max"), optional("bound_margin"),
            optional("record.collision_time"), nums("record.stats.steps", int)]
    return path, header, cols

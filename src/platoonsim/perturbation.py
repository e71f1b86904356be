"""Perturbed leader dynamics and empirical stability-in-perturbation checks.

The leader's acceleration is replaced by a_l(t) + eps * g(t) for a shape
function g and scale eps. Admissibility keeps the perturbed leader under
the speed cap: eps must not exceed
(v_bar - v_l0 - ||a_l||_L1) / ||g||_L1. Both norms come from
PiecewiseProfile.l1_norm, an upper bound within rounding of the true
norm, so the computed scale errs on the admissible side. Strict mode
enforces the cap; the override exists because over-scale runs are still
well-defined dynamics (the follower's speed box holds regardless), just
without the cap guarantee on the leader.

Convergence of the perturbed pair signals (headway, velocity difference)
to the unperturbed ones as eps -> 0 is measured on the shared regular
grid in the sup norm of the pointwise Euclidean pair distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import LeaderProfile, Scenario, ScenarioError, Trajectory, validate_scenario
from .integrator import SolveResult, SolveStatus, simulate
from .profiles import PiecewiseProfile

__all__ = [
    "PerturbationSpec",
    "ConvergenceRow",
    "ConvergenceTable",
    "max_perturbation_scale",
    "perturbed_scenario",
    "perturbed_simulate",
    "pair_signals",
    "convergence_study",
]


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation shape g (acceleration units) and nonnegative finite scale."""

    g: PiecewiseProfile
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be nonnegative and finite, got {self.eps!r}")


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    sup_distance: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of (eps, sup pair distance), sorted by eps descending.

    runs holds the runs behind the rows: the unperturbed base run, then
    one run per row. A study that stopped at a run that did not complete
    has that run last, with no row of its own.
    """

    rows: tuple[ConvergenceRow, ...]
    runs: tuple[SolveResult, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        eps = [r.eps for r in self.rows]
        if eps != sorted(eps, reverse=True):
            raise ValueError("rows must be sorted by eps descending")

    def distances(self) -> list[float]:
        return [r.sup_distance for r in self.rows]


def max_perturbation_scale(g: PiecewiseProfile, leader: LeaderProfile,
                           v_bar: float, T: float) -> float:
    """Largest admissible scale (v_bar - v_l0 - ||a_l||_1) / ||g||_1 on [0, T].

    Zero for a leader already saturating the cap. A negative numerator
    means the unperturbed leader can break the cap on its own, which no
    scale fixes, so that is an error rather than a clamp.
    """
    g_norm = g.l1_norm(0.0, T)
    if g_norm <= 0.0:
        raise ValueError("perturbation shape has zero L1 norm on [0, T]")
    headroom = v_bar - leader.v0 - leader.accel.l1_norm(0.0, T)
    if headroom < 0.0:
        raise ValueError(
            f"leader profile alone can exceed the speed cap (headroom {headroom!r})")
    return headroom / g_norm


def perturbed_scenario(s: Scenario, spec: PerturbationSpec) -> Scenario:
    """The scenario with leader acceleration a_l + eps * g. eps = 0 returns s itself."""
    if spec.eps == 0.0:
        return s
    accel = s.leader.accel + spec.g.scaled(spec.eps)
    return replace(s, leader=LeaderProfile(accel, s.leader.v0))


def perturbed_simulate(s: Scenario, spec: PerturbationSpec, *,
                       strict: bool = True) -> SolveResult:
    """Simulate with the perturbed leader.

    Validates s unperturbed, then runs it with the perturbed leader. eps = 0
    runs the plain scenario, bit-identical to simulate(s). In strict mode
    eps must not exceed max_perturbation_scale. Non-strict over-scale runs
    skip only the leader speed-cap validation.
    """
    _validate(s)
    _check_admissible(s, spec.g, [spec.eps], strict)
    return simulate(perturbed_scenario(s, spec), validate=False)


def _validate(s: Scenario) -> None:
    diags = validate_scenario(s)
    if diags:
        raise ScenarioError(diags)


def _check_admissible(s: Scenario, g: PiecewiseProfile, eps_values, strict: bool) -> None:
    """In strict mode, raise ValueError for the first scale above max_perturbation_scale."""
    if strict and any(eps > 0.0 for eps in eps_values):
        eps0 = max_perturbation_scale(g, s.leader, s.base_params.v_bar, s.horizon)
        for eps in eps_values:
            if eps > eps0:
                raise ValueError(
                    f"eps={eps!r} exceeds the admissible scale {eps0!r}; "
                    "pass strict=False to run anyway")


def pair_signals(traj: Trajectory, follower: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, headway, velocity difference) for one leader/follower pair."""
    if not 1 <= follower < traj.n_vehicles:
        raise IndexError(f"follower {follower} out of range for {traj.n_vehicles} vehicles")
    xi = traj.positions[:, follower - 1] - traj.positions[:, follower]
    zeta = traj.velocities[:, follower - 1] - traj.velocities[:, follower]
    return traj.times, xi, zeta


def convergence_study(s: Scenario, g: PiecewiseProfile, eps_list,
                      *, strict: bool = True, follower: int = 1) -> ConvergenceTable:
    """Sup pair distance to the unperturbed run for each scale in eps_list.

    All runs share the scenario's step sequence, so signals are compared at
    matched grid times with no interpolation. eps = 0 reuses the base run.
    The study stops at the first run that does not complete (collision,
    guard), whether the base run or a perturbed one: that run ends
    table.runs and gets no row, so every row compares two full grids.
    Every scale is checked (finite, nonnegative and, in strict mode,
    admissible) and s validated before the base run, so a refused study runs nothing.
    """
    eps_values = sorted({float(e) for e in eps_list}, reverse=True)
    if not eps_values:
        raise ValueError("eps_list must be non-empty")
    specs = [PerturbationSpec(g, eps) for eps in eps_values]
    _validate(s)
    _check_admissible(s, g, eps_values, strict)
    base = simulate(s, validate=False)
    runs, rows = [base], []
    if base.status is SolveStatus.COMPLETED:
        _, xi_base, zeta_base = pair_signals(base.trajectory, follower)
        for spec in specs:
            res = base if spec.eps == 0.0 else simulate(perturbed_scenario(s, spec), validate=False)
            runs.append(res)
            if res.status is not SolveStatus.COMPLETED:
                break
            _, xi, zeta = pair_signals(res.trajectory, follower)
            d = np.hypot(xi - xi_base, zeta - zeta_base)
            rows.append(ConvergenceRow(spec.eps, float(d.max())))
    return ConvergenceTable(tuple(rows), tuple(runs))

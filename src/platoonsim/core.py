"""Core value types for platoon scenarios, plus validation helpers.

Every type here is an immutable value object. State-space membership
(positive headways, velocities inside the speed box) is checked by
validate_scenario on the initial condition, not by constructors: baseline
model trajectories are allowed to leave the box, and that exit is exactly
what some experiments measure.

Vehicle order is front to back: index 0 is the leader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .profiles import PiecewiseProfile

__all__ = [
    "ModelKind",
    "ModelParams",
    "CaccParams",
    "VehicleState",
    "PlatoonState",
    "LeaderProfile",
    "StepperConfig",
    "Scenario",
    "Trajectory",
    "Diagnostic",
    "ScenarioError",
    "validate_scenario",
    "leader_velocity",
    "headway",
]


class ModelKind(str, Enum):
    PROPOSED = "proposed"
    CACC = "cacc"
    OVFL = "ovfl"


@dataclass(frozen=True)
class ModelParams:
    """Gains and box constants shared by the scenario machinery.

    k_v, k_d: gap-term gains. k: control-term relaxation gain.
    tau_s: headway time constant. v_bar: hard speed cap.
    u_min, u_max: admissible desired-velocity range, 0 < u_min < u_max < v_bar.
    """

    k_v: float
    k_d: float
    k: float
    tau_s: float
    v_bar: float
    u_min: float
    u_max: float


@dataclass(frozen=True)
class CaccParams:
    """CACC baseline parameters: the shared base plus its own constants."""

    base: ModelParams
    k_a: float = 1.0
    d: float = 1.0
    d_l: float = 1.0


@dataclass(frozen=True)
class VehicleState:
    x: float
    v: float


@dataclass(frozen=True)
class PlatoonState:
    """Snapshot of all vehicles at time t, front to back."""

    vehicles: tuple[VehicleState, ...]
    t: float = 0.0

    @property
    def n(self) -> int:
        return len(self.vehicles)


@dataclass(frozen=True)
class LeaderProfile:
    """Leader acceleration profile a_l(t) plus initial speed."""

    accel: PiecewiseProfile
    v0: float


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step integrator knobs.

    switch_tol is the bisection bracket width for branch switches and
    collision times; None means the scenario default of 1e-9 times the
    horizon. guard_tol is the float-noise band for the speed-box guard.
    """

    dt: float = 1e-2
    switch_tol: float | None = None
    guard_tol: float = 1e-9


@dataclass(frozen=True)
class Scenario:
    """A complete, runnable experiment description."""

    params: ModelParams | CaccParams
    model_kind: ModelKind
    initial: PlatoonState
    leader: LeaderProfile
    controls: tuple[PiecewiseProfile, ...]
    horizon: float
    stepper: StepperConfig = field(default_factory=StepperConfig)

    @property
    def base_params(self) -> ModelParams:
        return self.params.base if isinstance(self.params, CaccParams) else self.params

    @property
    def switch_tol(self) -> float:
        st = self.stepper.switch_tol
        return 1e-9 * self.horizon if st is None else st


@dataclass(frozen=True)
class Trajectory:
    """Array-backed solution record.

    times: (M,) strictly increasing grid starting at 0, ending at the horizon
        or at the detected collision time.
    positions, velocities: (M, N) per grid point, vehicles front to back.
    branches: (M, N-1) int8 flags per follower (models.BranchFlag codes;
        the single-branch baseline records the car-following code).
    collision: (time, follower index) or None.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    branches: np.ndarray
    collision: tuple[float, int] | None = None

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[1]

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    def state(self, i: int) -> PlatoonState:
        vehicles = tuple(
            VehicleState(float(self.positions[i, j]), float(self.velocities[i, j]))
            for j in range(self.n_vehicles)
        )
        return PlatoonState(vehicles, t=float(self.times[i]))

    def headways(self) -> np.ndarray:
        """(M, N-1) array of x_{n-1} - x_n."""
        return self.positions[:, :-1] - self.positions[:, 1:]

    def pair(self, follower: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(headway, predecessor velocity, velocity) of follower 1..N-1, per grid point."""
        if not 1 <= follower < self.n_vehicles:
            raise IndexError(f"follower {follower} out of range for {self.n_vehicles} vehicles")
        return (self.positions[:, follower - 1] - self.positions[:, follower],
                self.velocities[:, follower - 1], self.velocities[:, follower])


@dataclass(frozen=True)
class Diagnostic:
    """One validation failure: the offending field and what it violates."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


class ScenarioError(ValueError):
    """Raised when an operation is handed a scenario that fails validation."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics) or "invalid scenario")


def _check_params(p: ModelParams | CaccParams, out: list[Diagnostic]) -> None:
    base = p.base if isinstance(p, CaccParams) else p
    for name in ("k_v", "k_d", "k", "tau_s"):
        if not (getattr(base, name) > 0.0) or not math.isfinite(getattr(base, name)):
            out.append(Diagnostic(f"params.{name}", "must be a positive finite number"))
    for name in ("v_bar", "u_min", "u_max"):
        if not math.isfinite(getattr(base, name)):
            out.append(Diagnostic(f"params.{name}", "must be finite"))
    if not (0.0 < base.u_min < base.u_max < base.v_bar):
        out.append(Diagnostic("params.u_min", "need 0 < u_min < u_max < v_bar"))
    if isinstance(p, CaccParams):
        if not (p.d > 0.0):
            out.append(Diagnostic("params.d", "must be positive"))
        if not (p.d_l > 0.0):
            out.append(Diagnostic("params.d_l", "must be positive"))


def _range_error(found, witness: str, claim: str) -> str | None:
    """Text for a PiecewiseProfile.range_exit result: witness formatted with
    the value v and time t found outside, or "cannot decide whether" claim."""
    if found is None:
        return None
    p, q, v = found
    return witness.format(v=v, t=p) if v is not None else (
        f"cannot decide whether {claim} on [{p!r}, {q!r}]")


def validate_scenario(s: Scenario) -> list[Diagnostic]:
    """Collect every constraint violation; an empty list means runnable.

    The leader speed cap and the control ranges are checked with the
    interval enclosures of PiecewiseProfile.range_exit, not by sampling:
    leader speed is the exact integral of its acceleration, and a reported
    t is a point where the value really lies outside the range.
    """
    out: list[Diagnostic] = []
    _check_params(s.params, out)
    if s.model_kind is ModelKind.CACC and not isinstance(s.params, CaccParams):
        out.append(Diagnostic("params", "the CACC law needs CaccParams (k_a, d, d_l)"))

    n = s.initial.n
    if n < 2:
        out.append(Diagnostic("initial", f"platoon needs at least 2 vehicles, got {n}"))
    base = s.base_params

    for i, veh in enumerate(s.initial.vehicles):
        if not (math.isfinite(veh.x) and math.isfinite(veh.v)):
            out.append(Diagnostic(f"initial.vehicles[{i}]", "position and velocity must be finite"))
    if all(math.isfinite(v.x) and math.isfinite(v.v) for v in s.initial.vehicles):
        for i in range(1, n):
            h = s.initial.vehicles[i - 1].x - s.initial.vehicles[i].x
            if not (h > 0.0):
                out.append(Diagnostic(f"initial.headway[{i}]", f"must be positive, got {h!r}"))
        if math.isfinite(base.v_bar):
            for i, veh in enumerate(s.initial.vehicles):
                if not (0.0 <= veh.v <= base.v_bar):
                    out.append(Diagnostic(
                        f"initial.vehicles[{i}].v",
                        f"velocity {veh.v!r} outside [0, v_bar={base.v_bar!r}]"))

    if not (s.horizon > 0.0 and math.isfinite(s.horizon)):
        out.append(Diagnostic("horizon", "must be a positive finite number"))
        return out

    cfg = s.stepper
    if not (cfg.dt > 0.0 and math.isfinite(cfg.dt)):
        out.append(Diagnostic("stepper.dt", "must be a positive finite number"))
    st = s.switch_tol
    if not (0.0 < st <= cfg.dt):
        out.append(Diagnostic("stepper.switch_tol", f"need 0 < switch_tol <= dt, got {st!r}"))
    if not (cfg.guard_tol >= 0.0):
        out.append(Diagnostic("stepper.guard_tol", "must be non-negative"))

    T = s.horizon
    if s.leader.accel.start > 0.0 or s.leader.accel.end < T:
        out.append(Diagnostic(
            "leader.segments",
            f"profile covers [{s.leader.accel.start!r}, {s.leader.accel.end!r}], needs [0, {T!r}]"))
    if s.initial.vehicles and s.leader.v0 != s.initial.vehicles[0].v:
        out.append(Diagnostic(
            "leader.v0", f"{s.leader.v0!r} disagrees with initial leader velocity"))

    if math.isfinite(base.v_bar) and not out:
        v_l = partial(leader_velocity, s.leader)
        for lo, hi, witness, claim in (
                (-math.inf, base.v_bar, f"exceeds v_bar={base.v_bar!r}", f"at most v_bar={base.v_bar!r}"),
                (0.0, math.inf, "negative", "nonnegative")):
            err = _range_error(s.leader.accel.range_exit(0.0, T, lo, hi, v_l),
                               "leader velocity {v!r} " + witness + " at t={t!r}",
                               f"leader velocity stays {claim}")
            if err is not None:
                out.append(Diagnostic("leader", err))

    if len(s.controls) != max(n - 1, 0):
        out.append(Diagnostic(
            "controls", f"need one control per follower ({n - 1}), got {len(s.controls)}"))
    else:
        # Sweeps give every follower one profile object: check each object once.
        range_errors: dict[int, str | None] = {}
        for i, u in enumerate(s.controls, start=1):
            if u.start > 0.0 or u.end < T:
                out.append(Diagnostic(
                    f"controls.u_{i}",
                    f"profile covers [{u.start!r}, {u.end!r}], needs [0, {T!r}]"))
                continue
            if id(u) not in range_errors:
                range_errors[id(u)] = _range_error(
                    u.range_exit(0.0, T, base.u_min, base.u_max),
                    "value {v!r} outside [u_min, u_max] at t={t!r}",
                    "the value stays inside [u_min, u_max]")
            if range_errors[id(u)] is not None:
                out.append(Diagnostic(f"controls.u_{i}", range_errors[id(u)]))

    return out


def _require_valid(s: Scenario) -> None:
    """Raise ScenarioError with validate_scenario's diagnostics, if any."""
    diags = validate_scenario(s)
    if diags:
        raise ScenarioError(diags)


def leader_velocity(leader: LeaderProfile, t: float) -> float:
    """Leader speed at time t, from the exact integral of its acceleration.

    t must lie inside the profile's span (0 maps to exactly v0).
    """
    if t < leader.accel.start or t > leader.accel.end:
        raise ValueError(
            f"t={t!r} outside the leader profile span "
            f"[{leader.accel.start!r}, {leader.accel.end!r}]")
    return leader.v0 + leader.accel.integrate(leader.accel.start, t)


def headway(state: PlatoonState, n: int) -> float:
    """Gap x_{n-1} - x_n ahead of vehicle n (n >= 1)."""
    if n < 1 or n >= state.n:
        raise IndexError(f"follower index {n} out of range for {state.n} vehicles")
    return state.vehicles[n - 1].x - state.vehicles[n].x

"""Fixed-step RK4 platoon integrator with event refinement.

The stepper takes classical 4-stage Runge-Kutta steps of at most dt. Inside
a step two kinds of events are resolved by bisecting the one-step map on the
step size:

* branch switches: if any follower's min-law operand ordering changes sign
  between the step's start and end, the switching time is bracketed to
  switch_tol and integration restarts from just past the located switch
  point, then continues to the step's end. The output grid therefore stays
  the regular dt grid; located switch times are reported in the solve stats.
* collisions: if any headway reaches zero (or a singular law becomes
  unevaluable inside the trial step), the crossing time is bracketed to
  switch_tol and the run stops at the last feasible point.

Follower velocities of the min-type law provably stay inside [0, v_bar], so
exits are clamped when they are float noise (within guard_tol) and flagged
as GuardTripped when they are larger, which signals a misconfigured stepper
rather than real dynamics. Baseline models get no velocity guard: leaving
the box (CACC can brake through zero speed) is an observable result there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    CaccParams,
    ModelKind,
    OvflParams,
    PlatoonState,
    Scenario,
    ScenarioError,
    StepperConfig,
    Trajectory,
    VehicleState,
    validate_scenario,
)
from .models import TANH2, TIE_TOLERANCE, BranchFlag

__all__ = [
    "SolveStatus",
    "SwitchEvent",
    "SolveStats",
    "SolveResult",
    "GuardTrippedError",
    "CollisionError",
    "StepperConfig",
    "rhs",
    "step",
    "simulate",
    "reference_solve",
    "time_grid",
    "trajectory_mismatches",
]

# Cap on event refinements inside one regular step; past this the trial is
# accepted as-is (defensive, not expected to bind).
_MAX_EVENTS_PER_STEP = 64


class SolveStatus(Enum):
    COMPLETED = "completed"
    COLLISION_DETECTED = "collision_detected"
    GUARD_TRIPPED = "guard_tripped"


@dataclass(frozen=True)
class SwitchEvent:
    """A located branch switch: bracket midpoint time and the follower."""

    time: float
    follower: int
    from_flag: BranchFlag
    to_flag: BranchFlag


@dataclass(frozen=True)
class SolveStats:
    steps: int
    switch_refinements: int
    switch_events: tuple[SwitchEvent, ...] = ()
    guard_violation: tuple[int, float] | None = None


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    status: SolveStatus
    stats: SolveStats


class GuardTrippedError(RuntimeError):
    def __init__(self, follower: int, velocity: float, t: float):
        self.follower = follower
        self.velocity = velocity
        self.t = t
        super().__init__(f"follower {follower} velocity {velocity!r} left the box at t={t!r}")


class CollisionError(RuntimeError):
    def __init__(self, t: float, follower: int):
        self.t = t
        self.follower = follower
        super().__init__(f"headway ahead of follower {follower} closed at t={t!r}")


class _Singular(Exception):
    """Internal: a singular law was asked for a non-positive headway."""


def _sgn(x: float) -> int:
    if x > TIE_TOLERANCE:
        return 1
    if x < -TIE_TOLERANCE:
        return -1
    return 0


def _branch_code(x: float) -> int:
    if x > TIE_TOLERANCE:
        return int(BranchFlag.CONTROL)
    if x < -TIE_TOLERANCE:
        return int(BranchFlag.GAP)
    return int(BranchFlag.TIE)


class _Engine:
    """Hot-path evaluation of the platoon right-hand side.

    State layout is a flat list [x_0, v_0, x_1, v_1, ...]. Each deriv call
    stashes the per-follower branch gap (min-law operand difference), the
    minimum headway, and its follower index, so event checks at accepted
    points cost nothing extra.
    """

    def __init__(self, s: Scenario):
        self.n = s.initial.n
        self.size = 2 * self.n
        self.kind = s.model_kind
        base = s.base_params
        self.v_bar = base.v_bar
        self.phi: list[float] = [0.0] * (self.n - 1)
        self.minh = math.inf
        self.minh_idx = 1
        self._al_profile = s.leader.accel
        self._al_const = s.leader.accel.is_constant()
        self._u_profiles = s.controls
        self._u_consts = [u.is_constant() for u in s.controls]
        if s.model_kind is ModelKind.PROPOSED:
            self.deriv = self._make_proposed(base)
        elif s.model_kind is ModelKind.CACC:
            if not isinstance(s.params, CaccParams):
                raise ScenarioError([])
            self.deriv = self._make_cacc(s.params)
        else:
            self.deriv = self._make_ovfl(OvflParams(base.k_v, base.k_d))

    def _leader_accel(self, t: float) -> float:
        c = self._al_const
        return c if c is not None else self._al_profile.value(t)

    def _make_proposed(self, p):
        kv, kd, kk, ts = p.k_v, p.k_d, p.k, p.tau_s
        n, size = self.n, self.size
        u_consts, u_profiles = self._u_consts, self._u_profiles
        phi = self.phi

        def deriv(t, y):
            out = [0.0] * size
            out[0] = y[1]
            out[1] = self._leader_accel(t)
            minh = math.inf
            mi = 1
            j = 2
            for i in range(1, n):
                x = y[j]
                v = y[j + 1]
                h = y[j - 2] - x
                if h <= 0.0:
                    raise _Singular(i)
                if h < minh:
                    minh = h
                    mi = i
                gap_term = kv * (y[j - 1] - v) / (h * h) + kd * (h - ts * v)
                u = u_consts[i - 1]
                if u is None:
                    u = u_profiles[i - 1].value(t)
                control_term = kk * (u - v)
                phi[i - 1] = gap_term - control_term
                out[j] = v
                out[j + 1] = gap_term if gap_term < control_term else control_term
                j += 2
            self.minh = minh
            self.minh_idx = mi
            return out

        return deriv

    def _make_cacc(self, c: CaccParams):
        base = c.base
        kv, kd, kk, ts = base.k_v, base.k_d, base.k, base.tau_s
        ka = c.k_a
        gdd = 1.0 / c.d - 1.0 / c.d_l
        n, size = self.n, self.size
        u_consts, u_profiles = self._u_consts, self._u_profiles
        phi = self.phi

        def deriv(t, y):
            out = [0.0] * size
            out[0] = y[1]
            a_prev = self._leader_accel(t)
            out[1] = a_prev
            minh = math.inf
            mi = 1
            j = 2
            for i in range(1, n):
                x = y[j]
                v = y[j + 1]
                h = y[j - 2] - x
                if h < minh:
                    minh = h
                    mi = i
                gam = ts * v
                q = gdd * v * v
                if q > gam:
                    gam = q
                if gam < 2.0:
                    gam = 2.0
                spacing_term = ka * a_prev + kv * (y[j - 1] - v) + kd * (h - gam)
                u = u_consts[i - 1]
                if u is None:
                    u = u_profiles[i - 1].value(t)
                control_term = kk * (u - v)
                phi[i - 1] = spacing_term - control_term
                a = spacing_term if spacing_term < control_term else control_term
                out[j] = v
                out[j + 1] = a
                a_prev = a
                j += 2
            self.minh = minh
            self.minh_idx = mi
            return out

        return deriv

    def _make_ovfl(self, p: OvflParams):
        kv, kd = p.k_v, p.k_d
        n, size = self.n, self.size
        tanh = math.tanh

        def deriv(t, y):
            out = [0.0] * size
            out[0] = y[1]
            out[1] = self._leader_accel(t)
            minh = math.inf
            mi = 1
            j = 2
            for i in range(1, n):
                x = y[j]
                v = y[j + 1]
                h = y[j - 2] - x
                if h <= 0.0:
                    raise _Singular(i)
                if h < minh:
                    minh = h
                    mi = i
                out[j] = v
                out[j + 1] = kv * (y[j - 1] - v) / (h * h) + kd * (tanh(h - 2.0) + TANH2 - v)
                j += 2
            self.minh = minh
            self.minh_idx = mi
            return out

        return deriv

    def rk4(self, t, y, h, k1):
        deriv = self.deriv
        half = 0.5 * h
        y2 = [yi + half * ki for yi, ki in zip(y, k1)]
        k2 = deriv(t + half, y2)
        y3 = [yi + half * ki for yi, ki in zip(y, k2)]
        k3 = deriv(t + half, y3)
        y4 = [yi + h * ki for yi, ki in zip(y, k3)]
        k4 = deriv(t + h, y4)
        return [yi + h * (a + 2.0 * (b + c) + d) / 6.0
                for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


class _RunState:
    """Mutable bookkeeping for one simulate call."""

    __slots__ = ("switch_refinements", "events")

    def __init__(self):
        self.switch_refinements = 0
        self.events: list[SwitchEvent] = []


def _headways_of(y: list[float], n: int) -> list[float]:
    return [y[2 * i - 2] - y[2 * i] for i in range(1, n)]


class _Collision(Exception):
    """Internal control flow: carries the truncated final node."""

    def __init__(self, t, y, follower):
        self.t = t
        self.y = y
        self.follower = follower


class _Guard(Exception):
    def __init__(self, t, y, follower, velocity):
        self.t = t
        self.y = y
        self.follower = follower
        self.velocity = velocity


def _advance(eng: _Engine, run: _RunState, switch_tol: float, guard: bool,
             guard_tol: float, t: float, y: list[float], f, phi: list[float],
             target: float):
    """March from the accepted node (t, y) to target, resolving events.

    Returns (t, y, f, phi) at target. Raises _Collision or _Guard with the
    final node when the run must stop early.
    """
    signs = [_sgn(p) for p in phi]
    for _ in range(_MAX_EVENTS_PER_STEP):
        h = target - t
        try:
            y_trial = eng.rk4(t, y, h, f)
            f_trial = eng.deriv(target, y_trial)
            crossed = eng.minh <= 0.0
        except _Singular:
            crossed = True
            y_trial = None
            f_trial = None
        if crossed:
            raise _bisect_collision(eng, switch_tol, t, y, f, target)
        signs_trial = [_sgn(p) for p in eng.phi]
        flipped = [i for i, (a, b) in enumerate(zip(signs, signs_trial)) if a * b == -1]
        if not flipped:
            return target, y_trial, f_trial, list(eng.phi)

        # Bracket the earliest sign change of the one-step map.
        lo, hi = t, target
        while hi - lo > switch_tol:
            mid = 0.5 * (lo + hi)
            try:
                y_mid = eng.rk4(t, y, mid - t, f)
                eng.deriv(mid, y_mid)
                changed = eng.minh <= 0.0 or any(
                    s * _sgn(p) == -1 for s, p in zip(signs, eng.phi))
            except _Singular:
                changed = True
            if changed:
                hi = mid
            else:
                lo = mid
        run.switch_refinements += 1
        try:
            y_hi = eng.rk4(t, y, hi - t, f)
            f_hi = eng.deriv(hi, y_hi)
            if eng.minh <= 0.0:
                raise _Singular(eng.minh_idx)
        except _Singular:
            raise _bisect_collision(eng, switch_tol, t, y, f, hi)
        mid_time = 0.5 * (lo + hi)
        for i, (a, b) in enumerate(zip(signs, (_sgn(p) for p in eng.phi))):
            if a * b == -1:
                run.events.append(SwitchEvent(
                    mid_time, i + 1,
                    BranchFlag(_branch_code(math.copysign(1.0, a))) if a else BranchFlag.TIE,
                    BranchFlag(_branch_code(math.copysign(1.0, b))) if b else BranchFlag.TIE))
        t, y, f = hi, y_hi, f_hi
        phi = list(eng.phi)
        if guard:
            y, f, phi = _apply_guard(eng, guard_tol, t, y, f, phi)
        signs = [_sgn(p) for p in phi]
    return target, y_trial, f_trial, list(eng.phi)


def _bisect_collision(eng: _Engine, switch_tol: float, t: float, y: list[float],
                      f, hi0: float) -> _Collision:
    """Locate the first infeasible/zero-headway time in (t, hi0]."""
    lo, hi = t, hi0
    while hi - lo > switch_tol:
        mid = 0.5 * (lo + hi)
        try:
            y_mid = eng.rk4(t, y, mid - t, f)
            eng.deriv(mid, y_mid)
            crossed = eng.minh <= 0.0
        except _Singular:
            crossed = True
        if crossed:
            hi = mid
        else:
            lo = mid
    if lo == t:
        hws = _headways_of(y, eng.n)
        follower = 1 + hws.index(min(hws))
        return _Collision(t, y, follower)
    y_lo = eng.rk4(t, y, lo - t, f)
    hws = _headways_of(y_lo, eng.n)
    follower = 1 + hws.index(min(hws))
    return _Collision(lo, y_lo, follower)


def _apply_guard(eng: _Engine, guard_tol: float, t: float, y: list[float], f, phi):
    """Clamp float-noise speed-box exits; raise _Guard on anything larger."""
    v_bar = eng.v_bar
    clamped = False
    for i in range(1, eng.n):
        j = 2 * i + 1
        v = y[j]
        if v < 0.0:
            if v >= -guard_tol:
                y[j] = 0.0
                clamped = True
            else:
                raise _Guard(t, y, i, v)
        elif v > v_bar:
            if v <= v_bar + guard_tol:
                y[j] = v_bar
                clamped = True
            else:
                raise _Guard(t, y, i, v)
    if clamped:
        f = eng.deriv(t, y)
        phi = list(eng.phi)
    return y, f, phi


def rhs(s: Scenario, t: float, state: PlatoonState) -> list[float]:
    """Full platoon derivative (velocity, acceleration per vehicle) at (t, state)."""
    eng = _Engine(s)
    y = [c for veh in state.vehicles for c in (veh.x, veh.v)]
    try:
        return eng.deriv(t, y)
    except _Singular as e:
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None


def step(cfg: StepperConfig, s: Scenario, t: float, state: PlatoonState
         ) -> tuple[float, PlatoonState]:
    """One accepted step of size at most cfg.dt, with event handling.

    Branch switches inside the step are located to switch_tol and the
    integration restarts from the switch point before finishing the step.
    Raises GuardTrippedError when a min-law follower velocity leaves
    [0, v_bar] by more than guard_tol, CollisionError when a headway closes.
    """
    switch_tol = cfg.switch_tol if cfg.switch_tol is not None else 1e-9 * s.horizon
    eng = _Engine(s)
    run = _RunState()
    y = [c for veh in state.vehicles for c in (veh.x, veh.v)]
    target = min(t + cfg.dt, s.horizon)
    if target <= t:
        raise ValueError(f"t={t!r} already at or past the horizon {s.horizon!r}")
    guard = s.model_kind is ModelKind.PROPOSED
    try:
        f = eng.deriv(t, y)
        phi = list(eng.phi)
        t_new, y_new, f_new, phi_new = _advance(
            eng, run, switch_tol, guard, cfg.guard_tol, t, y, f, phi, target)
        if guard:
            y_new, f_new, phi_new = _apply_guard(eng, cfg.guard_tol, t_new, y_new, f_new, phi_new)
    except _Singular as e:
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None
    except _Collision as c:
        raise CollisionError(c.t, c.follower) from None
    except _Guard as g:
        raise GuardTrippedError(g.follower, g.velocity, g.t) from None
    vehicles = tuple(VehicleState(y_new[2 * i], y_new[2 * i + 1]) for i in range(eng.n))
    return t_new, PlatoonState(vehicles, t=t_new)


def time_grid(s: Scenario) -> list[float]:
    """simulate's output times for a run that reaches the horizon: i * dt,
    then the horizon itself as the last point."""
    n_steps = max(1, math.ceil(s.horizon / s.stepper.dt - 1e-9))
    return [i * s.stepper.dt for i in range(n_steps)] + [s.horizon]


def trajectory_mismatches(s: Scenario, traj: Trajectory) -> list[str]:
    """Reasons why traj cannot be a completed simulate run of s; empty if none.

    Checks the vehicle count, the first row against the initial state, the
    last time against the horizon and the row count against the dt grid.
    """
    n = s.initial.n
    if traj.n_vehicles != n:
        return [f"{traj.n_vehicles} vehicles, the scenario has {n}"]
    out = []
    if (traj.positions[0].tolist() != [veh.x for veh in s.initial.vehicles]
            or traj.velocities[0].tolist() != [veh.v for veh in s.initial.vehicles]):
        out.append("the first row is not the scenario's initial state")
    if float(traj.times[-1]) != s.horizon:
        out.append(f"the last time {float(traj.times[-1])!r} is not the horizon {s.horizon!r}")
    expected = len(time_grid(s))
    if traj.n_points != expected:
        out.append(f"{traj.n_points} rows, the dt grid has {expected}")
    return out


def simulate(s: Scenario, *, validate: bool = True) -> SolveResult:
    """Integrate the scenario over [0, horizon] on the regular dt grid.

    The returned trajectory's grid is the accepted regular steps (plus the
    located stopping point when a collision or guard trip truncates the run).
    validate=False skips scenario validation; the perturbation experiments
    use it to run deliberately over-cap leader profiles.
    """
    if validate:
        diags = validate_scenario(s)
        if diags:
            raise ScenarioError(diags)

    cfg = s.stepper
    switch_tol = s.switch_tol
    guard = s.model_kind is ModelKind.PROPOSED
    eng = _Engine(s)
    run = _RunState()
    n = eng.n
    grid = time_grid(s)
    n_steps = len(grid) - 1

    times = np.empty(n_steps + 1)
    positions = np.empty((n_steps + 1, n))
    velocities = np.empty((n_steps + 1, n))
    branches = np.zeros((n_steps + 1, n - 1), dtype=np.int8)

    y = [c for veh in s.initial.vehicles for c in (veh.x, veh.v)]
    t = 0.0
    f = eng.deriv(t, y)
    phi = list(eng.phi)

    def record(idx, t_rec, y_rec, phi_rec):
        times[idx] = t_rec
        positions[idx] = y_rec[0::2]
        velocities[idx] = y_rec[1::2]
        if eng.kind is not ModelKind.OVFL:
            branches[idx] = [_branch_code(p) for p in phi_rec]

    record(0, t, y, phi)
    status = SolveStatus.COMPLETED
    collision = None
    guard_violation = None
    rows = 1
    steps_taken = 0
    try:
        for i in range(1, n_steps + 1):
            target = grid[i]
            t, y, f, phi = _advance(
                eng, run, switch_tol, guard, cfg.guard_tol, t, y, f, phi, target)
            if guard:
                y, f, phi = _apply_guard(eng, cfg.guard_tol, t, y, f, phi)
            record(rows, t, y, phi)
            rows += 1
            steps_taken += 1
    except _Collision as c:
        status = SolveStatus.COLLISION_DETECTED
        collision = (c.t, c.follower)
        if c.t > t:
            phi_c = list(eng.phi) if eng.kind is not ModelKind.OVFL else phi
            try:
                eng.deriv(c.t, c.y)
                phi_c = list(eng.phi)
            except _Singular:
                pass
            record(rows, c.t, c.y, phi_c)
            rows += 1
    except _Guard as g:
        status = SolveStatus.GUARD_TRIPPED
        guard_violation = (g.follower, g.velocity)
        if g.t > t:
            record(rows, g.t, g.y, list(eng.phi))
            rows += 1
    except _Singular as e:
        # Initial state itself is infeasible; validation should have caught it.
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None

    traj = Trajectory(
        times=times[:rows].copy(),
        positions=positions[:rows].copy(),
        velocities=velocities[:rows].copy(),
        branches=branches[:rows].copy(),
        collision=collision,
    )
    stats = SolveStats(
        steps=steps_taken,
        switch_refinements=run.switch_refinements,
        switch_events=tuple(run.events),
        guard_violation=guard_violation,
    )
    return SolveResult(traj, status, stats)


def reference_solve(s: Scenario, dt_fine: float) -> SolveResult:
    """The same algorithm on a finer step, for convergence and oracle checks.

    With dt_fine equal to the scenario's own dt this reproduces simulate
    bit for bit.
    """
    if not (dt_fine > 0.0):
        raise ValueError("dt_fine must be positive")
    st = min(s.switch_tol, dt_fine)
    fine = replace(s, stepper=replace(s.stepper, dt=dt_fine, switch_tol=st))
    return simulate(fine)

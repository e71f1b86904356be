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

import ast
import linecache
import math
import re
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    CaccParams,
    ModelKind,
    PlatoonState,
    Scenario,
    ScenarioError,
    StepperConfig,
    Trajectory,
    validate_scenario,
)
from .models import TANH2, TIE_TOLERANCE, BranchFlag

__all__ = [
    "SolveStatus",
    "SwitchEvent",
    "SolveStats",
    "SolveResult",
    "StepperConfig",
    "rhs",
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
    # Steps where _MAX_EVENTS_PER_STEP bound and the last trial was accepted as-is.
    event_cap_hits: int = 0


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    status: SolveStatus
    stats: SolveStats


class _Singular(Exception):
    """Internal: a singular law was asked for a non-positive headway."""


def _signs(phi: list[float]) -> list[int]:
    """Branch sign per follower: 1 control, -1 gap, 0 tie (within TIE_TOLERANCE)."""
    return [(p > TIE_TOLERANCE) - (p < -TIE_TOLERANCE) for p in phi]


def _flipped(signs: list[int], other: list[int]) -> bool:
    """Whether some follower went from control to gap or back (a tie flips nothing)."""
    return -1 in [a * b for a, b in zip(signs, other)]


_FLAG_OF_SIGN = {1: BranchFlag.CONTROL, -1: BranchFlag.GAP}


# Per-follower law bodies: the engine's single definition of each law. A body
# reads the follower's stage state (x, v), its predecessor's (xp, vp), its
# control u and, under CACC, the predecessor's acceleration ap. It sets the
# headway hh and the acceleration a, and a min-type body also sets the two
# operands of the min, g (gap or spacing term) and c (control term). The float
# operations are those of models.accel_*, in the same order.
_LAWS = {
    ModelKind.PROPOSED: """\
hh = xp - x
if hh <= 0.0: raise _Singular(i)
g = kv * (vp - v) / (hh * hh) + kd * (hh - ts * v)
c = kk * (u - v)
a = g if g < c else c
""",
    ModelKind.CACC: """\
hh = xp - x
gam = ts * v
q = gdd * v * v
if q > gam:
    gam = q
if gam < 2.0:
    gam = 2.0
g = ka * ap + kv * (vp - v) + kd * (hh - gam)
c = kk * (u - v)
a = g if g < c else c
""",
    ModelKind.OVFL: """\
hh = xp - x
if hh <= 0.0: raise _Singular(i)
a = kv * (vp - v) / (hh * hh) + kd * (tanh(hh - 2.0) + TANH2 - v)
""",
}


def _uses(body: str, name: str) -> bool:
    return re.search(rf"\b{name}\b", body) is not None


def _platoon_pass(body: str, state, store, track: bool, sfx: str = ""):
    """Source lines (head, loop body) of one pass over the platoon.

    state(idx) is the expression of state component idx at this stage and
    store(idx, value) the line that keeps derivative component idx. track adds
    deriv's minimum-headway and branch-gap bookkeeping. sfx renames every
    local of the pass, so that two passes can share one follower loop.
    """
    chained = _uses(body, "ap")
    head = [f"xp = {state('0')}", f"vp = {state('1')}", store("0", "vp"), store("1", "a_l")]
    head += ["ap = a_l"] * chained
    loop = [f"x = {state('j')}", f"v = {state('j + 1')}"]
    loop += ["u = us[i - 1]"] * _uses(body, "u") + body.splitlines()
    if track:
        loop += ["if hh < minh:", "    minh = hh", "    mi = i"]
        loop += ["phi[i - 1] = g - c"] * _uses(body, "g")
    loop += [store("j", "v"), store("j + 1", "a"), "xp = x", "vp = v"]
    loop += ["ap = a"] * chained
    if sfx:
        names = {"x", "v", "xp", "vp", "ap", "u", "us", "a_l"} | {
            node.id for node in ast.walk(ast.parse(body))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        pattern = re.compile(rf"\b({'|'.join(names)})\b")
        head, loop = ([pattern.sub(rf"\1{sfx}", line) for line in lines] for lines in (head, loop))
    return head, loop


def _loop(*passes: tuple[list[str], list[str]]) -> list[str]:
    """The passes' heads, then one follower loop running their bodies in turn."""
    lines = [line for head, _ in passes for line in head] + ["j = 2", "for i in range(1, n):"]
    return lines + ["    " + line for _, loop in passes for line in loop] + ["    j += 2"]


def _kernel_source(body: str) -> str:
    """deriv(t, y) and the fused RK4 step(t, y, h, k1, t_end) of one law body.

    step forms each stage state in the follower loop that evaluates the law,
    and its last stage folds in the RK4 combine, so a step makes no stage
    lists beyond k2 and k3. The stages write neither phi nor minh. The
    stage-4 loop also evaluates the law, renamed, at each end state as soon
    as the follower's is formed, so step is RK4 followed by deriv(t_end, ·)
    and returns (y_end, f_end).
    """
    def stage(k, s):
        return lambda idx: f"y[{idx}] + {s} * {k}[{idx}]"

    def into(k):
        return lambda idx, value: f"{k}[{idx}] = {value}"

    def combine(idx, value):
        return (f"out[{idx}] = y[{idx}] + h * (k1[{idx}] + 2.0 * (k2[{idx}] + k3[{idx}])"
                f" + {value}) / 6.0")

    def at(k):
        return lambda idx: f"{k}[{idx}]"

    track = ["minh = inf", "mi = 1"]
    report = ["eng.minh = minh", "eng.minh_idx = mi"]
    deriv = ["out = [0.0] * size", "a_l, us = forcing(t)", *track,
             *_loop(_platoon_pass(body, at("y"), into("out"), True)), *report, "return out"]
    step = ["half = 0.5 * h", "a_l, us = forcing(t + half)",
            "k2 = [0.0] * size", *_loop(_platoon_pass(body, stage("k1", "half"), into("k2"), False)),
            "k3 = [0.0] * size", *_loop(_platoon_pass(body, stage("k2", "half"), into("k3"), False)),
            "a_l, us = forcing(t + h)", "a_l_e, us_e = forcing(t_end)",
            "out = [0.0] * size", "f = [0.0] * size", *track,
            *_loop(_platoon_pass(body, stage("k3", "h"), combine, False),
                   _platoon_pass(body, at("out"), into("f"), True, "_e")),
            *report, "return out, f"]
    return "".join(f"def {sig}:\n" + "".join(f"    {line}\n" for line in lines)
                   for sig, lines in (("deriv(t, y)", deriv), ("step(t, y, h, k1, t_end)", step)))


# Compiled kernels by law, built on first use so that importing the package
# compiles nothing. The code does not depend on n or on the gains, which each
# engine binds as names of the namespace it runs the code in.
_KERNELS: dict[ModelKind, tuple] = {}


def _kernel(kind: ModelKind):
    """The law's compiled kernel code. Its source is put back into linecache
    on every call, so tracebacks, pdb and profilers show kernel lines even
    after linecache.clearcache()."""
    if kind not in _KERNELS:
        filename = f"<platoonsim kernels: {kind.value}>"
        src = _kernel_source(_LAWS[kind])
        _KERNELS[kind] = (compile(src, filename, "exec"),
                          (len(src), None, src.splitlines(True), filename))
    code, entry = _KERNELS[kind]
    linecache.cache[entry[3]] = entry
    return code


class _Engine:
    """Hot-path evaluation of the platoon right-hand side.

    State layout is a flat list [x_0, v_0, x_1, v_1, ...]. deriv and step
    are the law's generated kernel functions. Each deriv or step call
    stashes the per-follower branch gap (min-law operand difference), the
    minimum headway, and its follower index at the point it returns, so event
    checks at accepted points cost nothing extra.
    """

    def __init__(self, s: Scenario):
        self.n = s.initial.n
        self.size = 2 * self.n
        body = _LAWS[s.model_kind]
        self.branches = _uses(body, "g")
        base = s.base_params
        self.v_bar = base.v_bar
        self.phi: list[float] = [0.0] * (self.n - 1)
        self.minh = math.inf
        self.minh_idx = 1
        a_fixed = s.leader.accel.is_constant()
        controls = s.controls if _uses(body, "u") else ()
        u_fixed = [u.is_constant() for u in controls]
        if a_fixed is not None and None not in u_fixed:
            fixed = (a_fixed, u_fixed)
            self.forcing = lambda t: fixed
        else:
            self.forcing = _forcing_memo(s.leader.accel, a_fixed, controls, u_fixed)
        ns = {"kv": base.k_v, "kd": base.k_d, "kk": base.k, "ts": base.tau_s,
              "n": self.n, "size": self.size, "forcing": self.forcing, "phi": self.phi,
              "eng": self, "inf": math.inf, "tanh": math.tanh, "TANH2": TANH2,
              "_Singular": _Singular}
        if s.model_kind is ModelKind.CACC:
            if not isinstance(s.params, CaccParams):
                raise ScenarioError([])
            ns.update(ka=s.params.k_a, gdd=1.0 / s.params.d - 1.0 / s.params.d_l)
        exec(_kernel(s.model_kind), ns)
        self.deriv = ns["deriv"]
        self.step = ns["step"]


def _forcing_memo(accel, a_fixed, controls, u_fixed):
    """forcing(t): leader acceleration and follower controls at t, for
    time-varying profiles (a_fixed and u_fixed hold the constant ones' values).

    A one-entry memo on t: RK4's k2 and k3 share t + h/2, and k4 and the
    accepted point usually share the step's end, so each follower's profile
    is evaluated once per distinct stage time.
    """
    a_value = accel.value
    u_values = [u.value for u in controls] if None in u_fixed else None
    memo_t = memo = None

    def forcing(t: float) -> tuple[float, list[float]]:
        nonlocal memo_t, memo
        if t != memo_t:
            us = u_fixed if u_values is None else [
                c if c is not None else value(t) for c, value in zip(u_fixed, u_values)]
            memo_t, memo = t, (a_fixed if a_fixed is not None else a_value(t), us)
        return memo

    return forcing


class _RunState:
    """Settings and counters of one simulate call (guard_tol None: no guard)."""

    __slots__ = ("switch_tol", "guard_tol", "switch_refinements", "events", "event_cap_hits")

    def __init__(self, switch_tol: float, guard_tol: float | None):
        self.switch_tol = switch_tol
        self.guard_tol = guard_tol
        self.switch_refinements = 0
        self.events: list[SwitchEvent] = []
        self.event_cap_hits = 0


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


def _advance(eng: _Engine, run: _RunState, t: float, y: list[float], f,
             signs: list[int], target: float):
    """March from the accepted node (t, y), whose branch signs are signs, to target.

    Returns (y, f, phi, signs) at target, after the speed-box guard. Raises
    _Collision or _Guard with the final node when the run must stop early.
    """
    for _ in range(_MAX_EVENTS_PER_STEP):
        try:
            y_trial, f_trial = eng.step(t, y, target - t, f, target)
            crossed = eng.minh <= 0.0
        except _Singular:
            crossed = True
        if crossed:
            raise _collision(eng, run.switch_tol, t, y, f, target)
        if eng.branches:
            phi_trial = eng.phi[:]
            signs_trial = _signs(phi_trial)
        else:
            phi_trial, signs_trial = eng.phi, signs
        if signs_trial == signs or not _flipped(signs, signs_trial):
            return _apply_guard(eng, run.guard_tol, target, y_trial, f_trial, phi_trial, signs_trial)

        lo, hi = _bisect(eng, run.switch_tol, t, y, f, target, signs)
        run.switch_refinements += 1
        try:
            y_hi, f_hi = eng.step(t, y, hi - t, f, hi)
            if eng.minh <= 0.0:
                raise _Singular(eng.minh_idx)
        except _Singular:
            raise _collision(eng, run.switch_tol, t, y, f, hi)
        phi_hi = eng.phi[:]
        signs_hi = _signs(phi_hi)
        mid_time = 0.5 * (lo + hi)
        for i, (a, b) in enumerate(zip(signs, signs_hi)):
            if a * b == -1:
                run.events.append(SwitchEvent(mid_time, i + 1, _FLAG_OF_SIGN[a], _FLAG_OF_SIGN[b]))
        t = hi
        y, f, _, signs = _apply_guard(eng, run.guard_tol, hi, y_hi, f_hi, phi_hi, signs_hi)
    # The event cap was hit: accept the last trial as is.
    run.event_cap_hits += 1
    return _apply_guard(eng, run.guard_tol, target, y_trial, f_trial, phi_trial, signs_trial)


def _bisect(eng: _Engine, switch_tol: float, t: float, y: list[float], f, hi: float,
            signs: list[int] | None) -> tuple[float, float]:
    """Bracket, to switch_tol, the earliest event of the one-step map from (t, y)
    in (t, hi]: a headway closing (or a singular law failing) and, unless signs
    is None, a branch flip against signs. Returns the bracket (lo, hi)."""
    lo = t
    while hi - lo > switch_tol:
        mid = 0.5 * (lo + hi)
        try:
            eng.step(t, y, mid - t, f, mid)
            hit = eng.minh <= 0.0 or (signs is not None and _flipped(signs, _signs(eng.phi)))
        except _Singular:
            hit = True
        if hit:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _collision(eng: _Engine, switch_tol: float, t: float, y: list[float],
               f, hi: float) -> _Collision:
    """Locate the first infeasible/zero-headway time in (t, hi], leaving
    eng.phi at the located point.

    The bisection moves lo only to an end point where step returned with a
    positive headway, and step is deterministic, so neither call here raises.
    """
    lo, _ = _bisect(eng, switch_tol, t, y, f, hi, None)
    if lo > t:
        y, _ = eng.step(t, y, lo - t, f, lo)
    else:
        eng.deriv(t, y)
    hws = _headways_of(y, eng.n)
    return _Collision(lo, y, 1 + hws.index(min(hws)))


def _apply_guard(eng: _Engine, guard_tol: float | None, t: float, y: list[float], f,
                 phi: list[float], signs: list[int]):
    """Clamp float-noise speed-box exits and return (y, f, phi, signs); raise _Guard
    on anything larger."""
    v_bar = eng.v_bar
    vs = y[3::2]
    if guard_tol is None or not vs or (min(vs) >= 0.0 and max(vs) <= v_bar):
        return y, f, phi, signs
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
        phi = eng.phi[:]
        signs = _signs(phi)
    return y, f, phi, signs


def rhs(s: Scenario, t: float, state: PlatoonState) -> list[float]:
    """Full platoon derivative (velocity, acceleration per vehicle) at (t, state)."""
    eng = _Engine(s)
    y = [c for veh in state.vehicles for c in (veh.x, veh.v)]
    try:
        return eng.deriv(t, y)
    except _Singular as e:
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None


def time_grid(s: Scenario) -> list[float]:
    """simulate's output times for a run that reaches the horizon: i * dt,
    then the horizon itself as the last point."""
    n_steps = max(1, math.ceil(s.horizon / s.stepper.dt - 1e-9))
    return [i * s.stepper.dt for i in range(n_steps)] + [s.horizon]


def trajectory_mismatches(s: Scenario, traj: Trajectory) -> list[str]:
    """Reasons why traj cannot be a completed simulate run of s; empty if none.

    Checks the vehicle count, the first row against the initial state, the
    last time against the horizon, the row count against the dt grid and,
    when those two agree, every time against the dt grid exactly.
    """
    n = s.initial.n
    if traj.n_vehicles != n:
        return [f"{traj.n_vehicles} vehicles, the scenario has {n}"]
    out = []
    if (traj.positions[0].tolist() != [veh.x for veh in s.initial.vehicles]
            or traj.velocities[0].tolist() != [veh.v for veh in s.initial.vehicles]):
        out.append("the first row is not the scenario's initial state")
    last_ok = float(traj.times[-1]) == s.horizon
    if not last_ok:
        out.append(f"the last time {float(traj.times[-1])!r} is not the horizon {s.horizon!r}")
    expected = time_grid(s)
    if traj.n_points != len(expected):
        out.append(f"{traj.n_points} rows, the dt grid has {len(expected)}")
    elif last_ok and traj.times.tolist() != expected:
        j = next(j for j, (a, b) in enumerate(zip(traj.times.tolist(), expected)) if a != b)
        out.append(f"the time {float(traj.times[j])!r} at grid point {j} is not "
                   f"the dt grid's {expected[j]!r}")
    return out


def simulate(s: Scenario, *, validate: bool = True) -> SolveResult:
    """Integrate the scenario over [0, horizon] on the regular dt grid.

    The returned trajectory's grid is the accepted regular steps (plus the
    located stopping point when a collision or guard trip truncates the run).
    validate=False skips scenario validation: for a scenario the caller has
    already validated (each CLI command, compare's law variants, the
    perturbation study) and for a deliberately over-cap perturbed leader.
    """
    if validate:
        diags = validate_scenario(s)
        if diags:
            raise ScenarioError(diags)

    eng = _Engine(s)
    run = _RunState(s.switch_tol, s.stepper.guard_tol if s.model_kind is ModelKind.PROPOSED else None)
    n = eng.n
    grid = time_grid(s)
    n_steps = len(grid) - 1

    times = np.empty(n_steps + 1)
    Y = np.empty((n_steps + 1, 2 * n))
    P = np.empty((n_steps + 1, n - 1))

    y = [c for veh in s.initial.vehicles for c in (veh.x, veh.v)]
    t = 0.0
    f = eng.deriv(t, y)
    signs = _signs(eng.phi)
    times[0], Y[0], P[0] = t, y, eng.phi
    status = SolveStatus.COMPLETED
    collision = None
    guard_violation = None
    rows = 1
    steps_taken = 0
    try:
        for i in range(1, n_steps + 1):
            target = grid[i]
            y, f, phi, signs = _advance(eng, run, t, y, f, signs, target)
            t = target
            times[rows] = t
            Y[rows] = y
            P[rows] = phi
            rows += 1
            steps_taken += 1
    except _Collision as c:
        status = SolveStatus.COLLISION_DETECTED
        collision = (c.t, c.follower)
        if c.t > t:
            times[rows], Y[rows], P[rows] = c.t, c.y, eng.phi
            rows += 1
    except _Guard as g:
        status = SolveStatus.GUARD_TRIPPED
        guard_violation = (g.follower, g.velocity)
        if g.t > t:
            times[rows], Y[rows], P[rows] = g.t, g.y, eng.phi
            rows += 1
    except _Singular as e:
        # Initial state itself is infeasible; validation should have caught it.
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None

    if not eng.branches:
        branches = np.zeros((rows, n - 1), dtype=np.int8)
    else:
        P = P[:rows]
        branches = np.where(P > TIE_TOLERANCE, BranchFlag.CONTROL, np.where(
            P < -TIE_TOLERANCE, BranchFlag.GAP, BranchFlag.TIE)).astype(np.int8)
    traj = Trajectory(
        times=times[:rows].copy(),
        positions=Y[:rows, 0::2],
        velocities=Y[:rows, 1::2],
        branches=branches,
        collision=collision,
    )
    stats = SolveStats(
        steps=steps_taken,
        switch_refinements=run.switch_refinements,
        switch_events=tuple(run.events),
        guard_violation=guard_violation,
        event_cap_hits=run.event_cap_hits,
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

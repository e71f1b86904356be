"""Fixed-step RK4 platoon integrator with event refinement.

The stepper takes classical 4-stage Runge-Kutta steps of at most dt. Inside
a step two kinds of events are resolved by bisecting the one-step map on the
step size:

* branch switches: if any follower's min-law operand ordering changes sign
  between the step's start and end, the switching time is bracketed to
  switch_tol and integration restarts from just past the located switch
  point, then continues to the step's end. The output grid therefore stays
  the regular dt grid; located switch times are reported in the solve stats.
* collisions: a trial step that closes a headway raises _Singular; the
  crossing time is bracketed to switch_tol and the run stops at the last
  feasible point.

Follower velocities of the min-type law provably stay inside [0, v_bar], so
exits are clamped when they are float noise (within guard_tol) and flagged
as GuardTripped when they are larger, which signals a misconfigured stepper
rather than real dynamics. Baseline models get no velocity guard: leaving
the box (CACC can brake through zero speed) is an observable result there.

Most steps meet no event. simulate lets the generated kernel march take
them, a block of at most _BLOCK_ROWS grid steps per call: march runs the
fused RK4 step in a loop and checks each step's end in the same pass over
the platoon (one comparison per follower for a possible branch sign change,
a closed headway, and an exit from the speed box under the min-type law).
At the first step it cannot accept on its own, march hands back the last
accepted node, and _advance takes that step again on the event path above,
so every event is still located in one place. simulate copies each block's
accepted rows into the output array at once, and its branch signs once per
stretch of steps that keep them.
"""

from __future__ import annotations

import linecache
import math
import re
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (CaccParams, ModelKind, PlatoonState, Scenario, ScenarioError, StepperConfig,
                   Trajectory, validate_scenario)
from .models import (_FLAG_OF_SIGN, _LAWS, TANH2, TIE_TOLERANCE, BranchFlag, _Singular, _signs,
                     _uses)

__all__ = ["SolveStatus", "SwitchEvent", "SolveStats", "SolveResult", "StepperConfig", "rhs",
           "simulate", "reference_solve", "time_grid", "trajectory_mismatches"]

# Cap on event refinements inside one regular step; past this the trial is
# accepted as-is (defensive, not expected to bind).
_MAX_EVENTS_PER_STEP = 64
# Grid steps simulate hands march at a time; their rows are copied into the
# output arrays together.
_BLOCK_ROWS = 128


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
    # Law evaluations over the platoon: a step counts 4, a deriv 1.
    rhs_evals: int = 0
    # Steps tried by the bisections that locate branch switches and collisions.
    switch_bisection_evals: int = 0
    collision_bisection_evals: int = 0
    # Follower velocities clamped onto the edge of the speed box.
    guard_clamps: int = 0


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    status: SolveStatus
    stats: SolveStats


def _flipped(signs: list[int], other: list[int]) -> bool:
    """Whether some follower went from control to gap or back (a tie flips nothing)."""
    return -1 in [a * b for a, b in zip(signs, other)]


# Branch code of sign + 1, for recorded sign rows.
_CODE_OF_SIGN = np.array(_FLAG_OF_SIGN, dtype=np.int8)


def _platoon_pass(body: str, state, store, checks: list[str], sfx: str = "", at: str = ""):
    """Source lines (head, loop body) of one pass over the platoon.

    state(c) is the expression of the stage state's position (c = "x") or
    velocity (c = "v"), and store(c, idx, s, d) the lines that keep that
    component's state s and derivative d, idx being its index in the flat
    state. checks are lines run on each follower after the law (the branch
    gap, _closed, _march_checks). sfx renames what the pass carries from one
    follower to the next (xp, vp, ap) and at renames its forcing (a_l, us),
    so that several passes can share one follower loop; the law's own
    temporaries keep their names.
    """
    chained = _uses(body, "ap")
    head = [f"xp = {state('x')}", f"vp = {state('v')}",
            *store("x", "0", "xp", "vp"), *store("v", "1", "vp", "a_l")]
    head += ["ap = a_l"] * chained
    loop = [f"x = {state('x')}", f"v = {state('v')}"]
    loop += ["u = us[i - 1]"] * _uses(body, "u") + body.splitlines() + checks
    loop += [*store("x", "j", "x", "v"), *store("v", "j + 1", "v", "a"), "xp = x", "vp = v"]
    loop += ["ap = a"] * chained
    carried, forced = re.compile(r"\b(xp|vp|ap)\b"), re.compile(r"\b(a_l|us)\b")
    return tuple([forced.sub(rf"\1{at}", carried.sub(rf"\1{sfx}", line)) for line in lines]
                 for lines in (head, loop))


def _loads(*lists: str) -> tuple[list[str], list[str]]:
    """A pass that loads each list's position and velocity entries into
    locals named after it (y gives yx and yv)."""
    return ([f"{k}x = {k}[0]" for k in lists] + [f"{k}v = {k}[1]" for k in lists],
            [f"{k}x = {k}[j]" for k in lists] + [f"{k}v = {k}[j + 1]" for k in lists])


def _loop(*passes: tuple[list[str], list[str]]) -> list[str]:
    """The passes' heads, then one follower loop running their bodies in turn."""
    lines = [line for head, _ in passes for line in head] + ["j = 2", "for i in range(1, n):"]
    return lines + ["    " + line for _, loop in passes for line in loop] + ["    j += 2"]


def _closed(body: str) -> list[str]:
    """The closed-headway rule of a step's end, for a law whose body does not
    raise _Singular(i) by itself (CACC)."""
    return ["if hh <= 0.0: raise _Singular(i)"] * (not _uses(body, "_Singular"))


def _march_checks(body: str, box: bool) -> list[str]:
    """march's end-state checks. A follower whose branch sign may have changed
    (sg * phi not above TIE_TOLERANCE) sets fl. A closed headway raises
    _Singular, and a velocity outside [0, v_bar], when the law has a speed
    box, returns the last accepted node."""
    lines = []
    if _uses(body, "g"):
        lines += ["phi[i - 1] = p = g - c", "if not sg[i - 1] * p > TIE_TOLERANCE: fl = True"]
    lines += _closed(body)
    if box:
        lines += ["if v < 0.0 or v > v_bar: return k, t, y, k1, sg"]
    return lines


def _kernel_source(body: str, box: bool) -> list[str]:
    """The sources of deriv(t, y), the fused RK4 step(t, y, h, k1, t_end) and
    march(t, y, k1, sg, grid, k, stop, ys, ss) of one law body.

    step makes one pass over the platoon: a follower's stage state depends
    only on its own earlier stages and its predecessor's state at the same
    stage, so each follower in turn gets its stages 2, 3 and 4, the RK4
    combine and the law at its end state. Each stage carries the
    predecessor's state in locals of its own (xp_2, vp_2, ...) and keeps its
    derivative in locals (k2x, k2v, ...), so step builds no list but its
    results y_end and deriv(t_end, y_end), with the float operations of a
    textbook RK4 and deriv in their order. Only the end state writes phi and
    runs _closed. step's _Singular(i) names the first follower, in loop
    order, whose headway is closed (at any stage under a singular law, at the
    end under any); only deriv's (and rhs's) i is reported. deriv never runs
    _closed, so rhs stays defined at any gap under CACC.

    march takes the regular steps k, ..., stop - 1 of grid from the accepted
    node (t, y) with derivative k1 and branch signs sg, each with step's
    lines, so y_end and f_end are step's bit for bit; the end pass runs
    _march_checks, and a step that raises _Singular is not accepted. A
    flagged step rebuilds the signs with _signs. It extends ys by each
    accepted y_end and appends (k, signs) to ss for each accepted step k
    whose signs differ from its predecessor's.
    It returns (k, t, y, k1, sg): k is stop, or the first step that raised
    _Singular, left the speed box or flipped a branch, and (t, y, k1, sg)
    the last accepted node.
    """
    def stage(k, s):
        return lambda c: f"y{c} + {s} * {k}{c}"

    def keep(k):
        return lambda c, idx, s, d: [f"{k}{c} = {d}"]

    def combine(c):
        return f"y{c} + h * (k1{c} + 2.0 * (k2{c} + k3{c}) + k4{c}) / 6.0"

    def derivative(c, idx, s, d):
        return [f"out[{idx}] = {d}"]

    def end(c, idx, s, d):
        return [f"out[{idx}] = {s}", f"f[{idx}] = {d}"]

    def rk4(checks):
        return ["half = 0.5 * h", "a_l_2, us_2 = forcing(t + half)", "t_4 = t + h",
                "a_l_4, us_4 = forcing(t_4)",
                "a_l_e, us_e = (a_l_4, us_4) if t_end == t_4 else forcing(t_end)",
                "out = [0.0] * size", "f = [0.0] * size",
                *_loop(_loads("y", "k1"),
                       _platoon_pass(body, stage("k1", "half"), keep("k2"), [], "_2", "_2"),
                       _platoon_pass(body, stage("k2", "half"), keep("k3"), [], "_3", "_2"),
                       _platoon_pass(body, stage("k3", "h"), keep("k4"), [], "_4", "_4"),
                       _platoon_pass(body, combine, end, checks, "_e", "_e"))]

    branches = _uses(body, "g")
    gaps = ["phi[i - 1] = g - c"] * branches
    deriv = ["out = [0.0] * size", "a_l, us = forcing(t)",
             *_loop(_loads("y"), _platoon_pass(body, lambda c: f"y{c}", derivative, gaps)),
             "return out"]
    step = [*rk4(gaps + _closed(body)), "return out, f"]
    march = ["for k in range(k, stop):", "    t_end = grid[k]", "    h = t_end - t",
             *["    fl = False"] * branches, "    try:",
             *[f"        {line}" for line in rk4(_march_checks(body, box))],
             "    except _Singular:", "        return k, t, y, k1, sg",
             *["    if fl:", "        new = _signs(phi)", "        if new != sg:",
               "            if _flipped(sg, new):", "                return k, t, y, k1, sg",
               "            sg = new", "            ss.append((k, sg))"] * branches,
             "    ys += out", "    t, y, k1 = t_end, out, f",
             "return stop, t, y, k1, sg"]
    return [f"def {sig}:\n" + "".join(f"    {line}\n" for line in lines)
            for sig, lines in (("deriv(t, y)", deriv), ("step(t, y, h, k1, t_end)", step),
                               ("march(t, y, k1, sg, grid, k, stop, ys, ss)", march))]


# Compiled kernels by law, built on first use so that importing the package
# compiles nothing. The code does not depend on n or on the gains, which each
# engine binds as names of the namespace it runs the code in.
_KERNELS: dict[ModelKind, tuple] = {}


def _kernel(kind: ModelKind) -> list:
    """The law's compiled kernel code, one code object per function. The
    joined source is put back into linecache on every call, so tracebacks,
    pdb and profilers show kernel lines even after linecache.clearcache().
    Each function is compiled on its own, at its lines of the joined source,
    so compiling takes the memory of the largest function, not of all three."""
    if kind not in _KERNELS:
        filename = f"<platoonsim kernels: {kind.value}>"
        funcs = _kernel_source(_LAWS[kind], kind is ModelKind.PROPOSED)
        codes, above = [], 0
        for func in funcs:
            codes.append(compile("\n" * above + func, filename, "exec"))
            above += func.count("\n")
        src = "".join(funcs)
        _KERNELS[kind] = (codes, (len(src), None, src.splitlines(True), filename))
    codes, entry = _KERNELS[kind]
    linecache.cache[entry[3]] = entry
    return codes


class _Engine:
    """Hot-path evaluation of the platoon right-hand side.

    State layout is a flat list [x_0, v_0, x_1, v_1, ...]. deriv, step and
    march are the law's generated kernel functions. Each deriv or step call
    that returns leaves the per-follower branch gaps (min-law operand
    differences) of its end point in phi, so event checks at accepted points
    cost nothing extra; march leaves those of its last step. A step raises
    _Singular where a headway closes, the one collision signal.
    """

    def __init__(self, s: Scenario):
        self.n = s.initial.n
        self.size = 2 * self.n
        body = _LAWS[s.model_kind]
        self.branches = _uses(body, "g")
        base = s.base_params
        self.v_bar = base.v_bar
        self.phi: list[float] = [0.0] * (self.n - 1)
        a_fixed = s.leader.accel.is_constant()
        controls = s.controls if _uses(body, "u") else ()
        u_fixed = [u.is_constant() for u in controls]
        if a_fixed is not None and None not in u_fixed:
            fixed = (a_fixed, u_fixed)
            self.forcing = lambda t: fixed
        else:
            self.forcing = _forcing(s.leader.accel, a_fixed, controls, u_fixed)
        ns = {"kv": base.k_v, "kd": base.k_d, "kk": base.k, "ts": base.tau_s,
              "n": self.n, "size": self.size, "forcing": self.forcing, "phi": self.phi,
              "tanh": math.tanh, "TANH2": TANH2, "v_bar": self.v_bar,
              "TIE_TOLERANCE": TIE_TOLERANCE, "_signs": _signs, "_flipped": _flipped,
              "_Singular": _Singular}
        if s.model_kind is ModelKind.CACC:
            if not isinstance(s.params, CaccParams):
                raise ScenarioError(validate_scenario(s))
            ns.update(ka=s.params.k_a, gdd=1.0 / s.params.d - 1.0 / s.params.d_l)
        for code in _kernel(s.model_kind):
            exec(code, ns)
        self.deriv = ns["deriv"]
        self.step = ns["step"]
        self.march = ns["march"]


def _forcing(accel, a_fixed, controls, u_fixed):
    """forcing(t): leader acceleration and follower controls at t, for
    time-varying profiles (a_fixed and u_fixed hold the constant ones' values).
    step calls it once per distinct stage time."""
    a_value = accel.value
    u_values = [u.value for u in controls] if None in u_fixed else None

    def forcing(t: float) -> tuple[float, list[float]]:
        us = u_fixed if u_values is None else [
            c if c is not None else value(t) for c, value in zip(u_fixed, u_values)]
        return a_fixed if a_fixed is not None else a_value(t), us

    return forcing


class _RunState:
    """Settings and counters of one simulate call (guard_tol None: no guard).

    The counters change only on event paths. rhs_evals counts the law
    evaluations made outside march; simulate adds march's own.
    """

    __slots__ = ("switch_tol", "guard_tol", "events", "switch_refinements", "event_cap_hits",
                 "switch_bisection_evals", "collision_bisection_evals", "guard_clamps",
                 "rhs_evals")

    def __init__(self, switch_tol: float, guard_tol: float | None):
        self.switch_tol, self.guard_tol = switch_tol, guard_tol
        self.events: list[SwitchEvent] = []
        self.switch_refinements = self.event_cap_hits = self.guard_clamps = self.rhs_evals = 0
        self.switch_bisection_evals = self.collision_bisection_evals = 0


class _Stop(Exception):
    """Internal control flow: the run stops at the node (t, y) with status
    and the collision or guard violation simulate reports."""

    def __init__(self, t, y, status, collision=None, guard_violation=None):
        self.t, self.y, self.status = t, y, status
        self.collision, self.guard_violation = collision, guard_violation


def _advance(eng: _Engine, run: _RunState, t: float, y: list[float], f,
             signs: list[int], target: float):
    """March from the accepted node (t, y), whose branch signs are signs, to target.

    Returns (y, f, signs) at target, after the speed-box guard. A step that
    raises _Singular is a collision; a collision or a guard trip raises
    _Stop with the final node. A switch refinement counts once its restart
    step reaches the switch without a collision.
    """
    for _ in range(_MAX_EVENTS_PER_STEP):
        run.rhs_evals += 4
        try:
            y_trial, f_trial = eng.step(t, y, target - t, f, target)
        except _Singular:
            raise _collision(eng, run, t, y, f, target)
        signs_trial = _signs(eng.phi)
        if not _flipped(signs, signs_trial):
            return _apply_guard(eng, run, target, y_trial, f_trial, signs_trial)

        lo, hi = _bisect(eng, run, t, y, f, target, signs)
        run.rhs_evals += 4
        try:
            y_hi, f_hi = eng.step(t, y, hi - t, f, hi)
        except _Singular:
            raise _collision(eng, run, t, y, f, hi)
        run.switch_refinements += 1
        signs_hi = _signs(eng.phi)
        mid_time = 0.5 * (lo + hi)
        for i, (a, b) in enumerate(zip(signs, signs_hi)):
            if a * b == -1:
                run.events.append(SwitchEvent(mid_time, i + 1, _FLAG_OF_SIGN[a + 1],
                                              _FLAG_OF_SIGN[b + 1]))
        t = hi
        y, f, signs = _apply_guard(eng, run, hi, y_hi, f_hi, signs_hi)
    # The event cap was hit: accept the last trial as is.
    run.event_cap_hits += 1
    return _apply_guard(eng, run, target, y_trial, f_trial, signs_trial)


def _bisect(eng: _Engine, run: _RunState, t: float, y: list[float], f, hi: float,
            signs: list[int] | None) -> tuple[float, float]:
    """Bracket, to switch_tol, the earliest event of the one-step map from (t, y)
    in (t, hi]: a step raising _Singular and, unless signs is None, a branch
    flip against signs. Returns the bracket (lo, hi)."""
    lo, calls = t, 0
    while hi - lo > run.switch_tol:
        calls += 1
        mid = 0.5 * (lo + hi)
        try:
            eng.step(t, y, mid - t, f, mid)
            hit = signs is not None and _flipped(signs, _signs(eng.phi))
        except _Singular:
            hit = True
        if hit:
            hi = mid
        else:
            lo = mid
    if signs is None:
        run.collision_bisection_evals += calls
    else:
        run.switch_bisection_evals += calls
    run.rhs_evals += 4 * calls
    return lo, hi


def _collision(eng: _Engine, run: _RunState, t: float, y: list[float],
               f, hi: float) -> _Stop:
    """The collision stop at the first time in (t, hi] where step raises
    _Singular, leaving eng.phi at the located point.

    The bisection moves lo only to an end point where step returned, and
    step is deterministic, so neither call here raises.
    """
    lo, _ = _bisect(eng, run, t, y, f, hi, None)
    if lo > t:
        y, _ = eng.step(t, y, lo - t, f, lo)
    else:
        eng.deriv(t, y)
    run.rhs_evals += 4 if lo > t else 1
    hws = [y[2 * i - 2] - y[2 * i] for i in range(1, eng.n)]
    return _Stop(lo, y, SolveStatus.COLLISION_DETECTED, collision=(lo, 1 + hws.index(min(hws))))


def _apply_guard(eng: _Engine, run: _RunState, t: float, y: list[float], f,
                 signs: list[int]):
    """Clamp float-noise speed-box exits and return (y, f, signs); raise a
    guard-trip _Stop on anything larger."""
    guard_tol, v_bar = run.guard_tol, eng.v_bar
    if guard_tol is None:  # a law with no speed box
        return y, f, signs
    clamped = 0
    for i in range(1, eng.n):
        v = y[2 * i + 1]
        if v < 0.0 or v > v_bar:
            if v < -guard_tol or v > v_bar + guard_tol:
                raise _Stop(t, y, SolveStatus.GUARD_TRIPPED, guard_violation=(i, v))
            y[2 * i + 1] = 0.0 if v < 0.0 else v_bar
            clamped += 1
    if clamped:
        run.guard_clamps += clamped
        run.rhs_evals += 1
        f = eng.deriv(t, y)
        signs = _signs(eng.phi)
    return y, f, signs


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

    size = eng.size
    Y = np.empty((n_steps + 1, size))
    flat = Y.reshape(-1)  # a view, Y being C-contiguous
    S = np.empty((n_steps + 1, n - 1), dtype=np.int8)
    y = [c for veh in s.initial.vehicles for c in (veh.x, veh.v)]
    t = 0.0
    status = SolveStatus.COMPLETED
    collision = guard_violation = None
    stopped_at: list[float] = []
    # Rows 0 .. k - 1 hold the accepted grid points; k is the next step.
    k = 1
    marched = 0  # steps march took, the trials it handed back included
    try:
        f = eng.deriv(t, y)
        signs = _signs(eng.phi)
        Y[0], S[0] = y, signs
        while k <= n_steps:
            end = min(k + _BLOCK_ROWS, n_steps + 1)
            ys, ss = [], []
            S[k:end] = signs
            j, t, y, f, signs = eng.march(t, y, f, signs, grid, k, end, ys, ss)
            flat[k * size:j * size] = ys
            for i, sg in ss:
                S[i:j] = sg
            marched += j - k
            k = j
            if k < end:
                marched += 1
                y, f, signs = _advance(eng, run, t, y, f, signs, grid[k])
                t = grid[k]
                Y[k], S[k] = y, signs
                k += 1
    except _Stop as stop:
        status, collision, guard_violation = stop.status, stop.collision, stop.guard_violation
        if stop.t > t:
            Y[k], S[k] = stop.y, _signs(eng.phi)
            stopped_at = [stop.t]
    except _Singular as e:
        # Initial state itself is infeasible; validation should have caught it.
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None

    times = np.array(grid[:k] + stopped_at)
    rows = len(times)
    if eng.branches:
        codes = _CODE_OF_SIGN[S[:rows] + 1]
    else:
        codes = np.zeros((rows, n - 1), dtype=np.int8)
    traj = Trajectory(times=times, positions=Y[:rows, 0::2], velocities=Y[:rows, 1::2],
                      branches=codes, collision=collision)
    stats = SolveStats(
        steps=k - 1,
        switch_refinements=run.switch_refinements,
        switch_events=tuple(run.events),
        guard_violation=guard_violation,
        event_cap_hits=run.event_cap_hits,
        rhs_evals=1 + run.rhs_evals + 4 * marched,
        switch_bisection_evals=run.switch_bisection_evals,
        collision_bisection_evals=run.collision_bisection_evals,
        guard_clamps=run.guard_clamps,
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

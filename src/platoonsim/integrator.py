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
them, in blocks of at most _BLOCK_ROWS grid steps: march runs the fused
RK4 step in a loop and checks each step's end in the same pass over the
platoon (one comparison per follower for a possible branch sign change,
a closed headway, and an exit from the speed box under the min-type law).
At the first step it cannot accept on its own, march hands back the last
accepted node, and _advance takes that step again on the event path above,
so every event is still located in one place; march then resumes at the
block's next step. Every kernel reads the leader acceleration and the
controls through one evaluator, _forcing: simulate tabulates them at the
stage times of each chunk of _FORCING_ROWS grid steps at once, in numpy,
and march reads its steps' rows of that table; step builds its one row the
same way, and deriv reads them at its one time.
simulate copies the accepted rows of each march call into the output array
at once, and its branch signs once per stretch of steps that keep them.
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

__all__ = ["SolveStatus", "SwitchEvent", "SolveStats", "SolveResult", "RunRecord", "StepperConfig",
           "rhs", "run_record", "simulate", "reference_solve", "time_grid", "trajectory_mismatches"]

# Cap on event refinements inside one regular step; past this the trial is
# accepted as-is (defensive, not expected to bind).
_MAX_EVENTS_PER_STEP = 64
# Grid steps of one march block: the rows of each march call are copied into
# the output arrays together.
_BLOCK_ROWS = 128
# Grid steps whose forcing simulate tabulates at once, in one rows call: the
# table of a time-varying run never holds more rows. No march block crosses
# the end of a chunk.
_FORCING_ROWS = 1024


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


@dataclass(frozen=True)
class RunRecord:
    """One run as the outputs read it (run_record); None for a time the run
    has not. Follower 1 settles where its speed stays within 0.01 of its
    last value, and reaches the band where it first is within 0.01 of u."""

    status: SolveStatus
    collision_time: float | None
    stats: SolveStats
    min_headways: tuple[float, ...]  # each follower's
    v_min: float  # over every follower
    v_max: float
    terminal_v: float  # follower 1's
    settle_time: float
    band_time: float | None

    @property
    def min_headway(self) -> float:
        return min(self.min_headways)

    @property
    def counters(self) -> dict[str, int]:
        """Every counter of SolveStats: its int fields."""
        return {k: v for k, v in vars(self.stats).items() if isinstance(v, int)}


def run_record(s: Scenario, res: SolveResult) -> RunRecord:
    """The record of res, a run of s, in numpy over its recorded arrays."""
    traj, u = res.trajectory, s.controls[0]
    times, vs = traj.times, traj.velocities[:, 1:]
    v, c = vs[:, 0], u.is_constant()
    band = np.flatnonzero(abs(v - (u.values(times) if c is None else c)) < 0.01)
    out = np.flatnonzero(abs(v - v[-1]) > 0.01)
    settle = times[min(out[-1] + 1, len(times) - 1)] if len(out) else times[0]
    return RunRecord(res.status, traj.collision[0] if traj.collision else None, res.stats,
                     tuple(traj.headways().min(axis=0).tolist()), float(vs.min()),
                     float(vs.max()), float(v[-1]), float(settle),
                     float(times[band[0]]) if len(band) else None)


def _flipped(signs: list[int], other: list[int]) -> bool:
    """Whether some follower went from control to gap or back (a tie flips nothing)."""
    return -1 in [a * b for a, b in zip(signs, other)]


# Branch code of sign + 1, for recorded sign rows.
_CODE_OF_SIGN = np.array(_FLAG_OF_SIGN, dtype=np.int8)


def _platoon_pass(body: str, s: str, state, at: str, store, checks: list[str]):
    """Source lines (head, loop body) of one pass over the platoon at stage s.

    The pass names the stage's state after s: x{s}, v{s} and a{s} hold the
    leader's position, velocity and acceleration, then each follower's in
    turn. A follower's law reads its predecessor's there (the body's xp, vp
    and ap) before it sets its own a{s} (the body's a, set last), and the
    pass sets its x{s} and v{s} after the law; so the next follower reads
    this one's, and a later stage of the same follower reads its own.
    state(c, idx) is the expression of the stage position (c = "x") or
    velocity (c = "v"), idx being its index in the flat state; the law reads
    its forcing at a_l{at} and us{at}; store(idx, s, d) gives the lines that
    keep a component's state s and derivative d. checks are lines run on
    each follower after the law (the branch gap, _closed, _march_checks).
    The law's own temporaries keep their names, so that several passes can
    share one follower loop.
    """
    x, v, a = f"x{s}", f"v{s}", f"a{s}"
    names = {"xp": x, "vp": v, "ap": a, "a": a}
    law = [re.sub(r"\b(xp|vp|ap|a)\b", lambda m: names[m[1]], line) for line in body.splitlines()]
    head = [f"{x} = {state('x', '0')}", f"{v} = {state('v', '1')}", f"{a} = a_l{at}",
            *store("0", x, v), *store("1", v, a)]
    loop = [f"x = {state('x', 'j')}", f"v = {state('v', 'j + 1')}"]
    loop += [f"u = us{at}[i - 1]"] * _uses(body, "u") + law + checks
    loop += [*store("j", "x", "v"), *store("j + 1", "v", a), f"{x} = x", f"{v} = v"]
    return head, loop


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
    """march's end-state checks. A follower whose branch sign has changed sets
    fl: its sign sg is kept when sg * phi is above TIE_TOLERANCE (sg = 1 or
    -1, one comparison) or when sg is 0 and phi is within TIE_TOLERANCE. A
    closed headway raises _Singular, and a velocity outside [0, v_bar], when
    the law has a speed box, returns the last accepted node."""
    lines = []
    if _uses(body, "g"):
        lines += ["phi[i - 1] = p = g - c",
                  "if not (sg[i - 1] * p > TIE_TOLERANCE"
                  " or sg[i - 1] == 0 and -TIE_TOLERANCE <= p <= TIE_TOLERANCE): fl = True"]
    lines += _closed(body)
    if box:
        lines += ["if v < 0.0 or v > v_bar: return k, t, y, k1, sg"]
    return lines


# Names of each kernel namespace that march binds as locals on entry, where it
# uses them: the gains, the engine's constants and the helpers.
_MARCH_LOCALS = ("kv", "kd", "kk", "ts", "ka", "gdd", "n", "size", "phi", "tanh", "TANH2",
                 "v_bar", "TIE_TOLERANCE", "_signs", "_flipped", "_Singular")


def _kernel_source(body: str, box: bool) -> list[str]:
    """The sources of deriv(t, y), the fused RK4 step(t, y, k1, t_end) and
    march(t, y, k1, sg, grid, k, stop, ys, ss, table, k0) of one law body.

    step makes one pass over the platoon: a follower's stage state depends
    only on its own earlier stages and its predecessor's state at the same
    stage, so each follower in turn gets its stages 2, 3 and 4, the RK4
    combine and the law at its end state. Each stage's state is named after
    it (x2, v2, a2, ..., xe, ve, ae; see _platoon_pass), and a stage's
    derivative is the velocity and acceleration of its state, so step builds
    no list but its results y_end and deriv(t_end, y_end), with the float
    operations of a textbook RK4 and deriv in their order. Only the end
    state writes phi and runs _closed. step's _Singular(i) names the first
    follower, in loop order, whose headway is closed (at any stage under a
    singular law, at the end under any); only deriv's (and rhs's) i is
    reported. deriv never runs _closed, so rhs stays defined at any gap
    under CACC. deriv reads its forcing from at((t,)) and step from the row
    rows(t, (t_end,))[0], its h being t_end - t (see _forcing).

    march takes the regular steps k, ..., stop - 1 of grid from the accepted
    node (t, y) with derivative k1 and branch signs sg, each with step's
    lines, so y_end and f_end are step's bit for bit; it reads step k's
    forcing from row k - k0 of table, the rows of the chunk from step k0,
    and binds the names of _MARCH_LOCALS it uses as locals on entry. The
    end pass runs _march_checks, and a step that raises _Singular is not
    accepted. A flagged step rebuilds the signs with _signs. It extends ys
    by each accepted y_end and appends (k, signs) to ss for each accepted
    step k whose signs differ from its predecessor's.
    It returns (k, t, y, k1, sg): k is stop, or the first step that raised
    _Singular, left the speed box or flipped a branch, and (t, y, k1, sg)
    the last accepted node.
    """
    def slope(s, c):
        """Component c of stage s's derivative: k1's loaded entry, or the
        velocity or acceleration of a later stage's state."""
        return f"k1{c}" if s == 1 else f"{'v' if c == 'x' else 'a'}{s}"

    def stage(s, w):
        return lambda c, idx: f"y{c} + {w} * {slope(s, c)}"

    def combine(c, idx):
        k1, k2, k3, k4 = (slope(s, c) for s in (1, 2, 3, 4))
        return f"y{c} + h * ({k1} + 2.0 * ({k2} + {k3}) + {k4}) / 6.0"

    def in_locals(idx, s, d):
        return []

    def derivative(idx, s, d):
        return [f"out[{idx}] = {d}"]

    def end(idx, s, d):
        return [f"out[{idx}] = {s}", f"f[{idx}] = {d}"]

    def rk4(row, checks):
        return ["h = t_end - t", "half = 0.5 * h",
                f"a_l_2, us_2, a_l_4, us_4, a_l_e, us_e = {row}",
                "out = [0.0] * size", "f = [0.0] * size",
                *_loop(_loads("y", "k1"),
                       _platoon_pass(body, "2", stage(1, "half"), "_2", in_locals, []),
                       _platoon_pass(body, "3", stage(2, "half"), "_2", in_locals, []),
                       _platoon_pass(body, "4", stage(3, "h"), "_4", in_locals, []),
                       _platoon_pass(body, "e", combine, "_e", end, checks))]

    branches = _uses(body, "g")
    gaps = ["phi[i - 1] = g - c"] * branches
    deriv = ["out = [0.0] * size", "(a_l,), (us,) = at((t,))",
             *_loop(_platoon_pass(body, "d", lambda c, idx: f"y[{idx}]", "", derivative, gaps)),
             "return out"]
    step = [*rk4("rows(t, (t_end,))[0]", gaps + _closed(body)), "return out, f"]
    march = ["for k in range(k, stop):", "    t_end = grid[k]",
             *["    fl = False"] * branches, "    try:",
             *[f"        {line}" for line in rk4("table[k - k0]", _march_checks(body, box))],
             "    except _Singular:", "        return k, t, y, k1, sg",
             *["    if fl:", "        new = _signs(phi)", "        if new != sg:",
               "            if _flipped(sg, new):", "                return k, t, y, k1, sg",
               "            sg = new", "            ss.append((k, sg))"] * branches,
             "    ys += out", "    t, y, k1 = t_end, out, f",
             "return stop, t, y, k1, sg"]
    bound = [f"{name}={name}" for name in _MARCH_LOCALS if _uses("\n".join(march), name)]
    return [f"def {sig}:\n" + "".join(f"    {line}\n" for line in lines)
            for sig, lines in (("deriv(t, y)", deriv), ("step(t, y, k1, t_end)", step),
                               (f"march(t, y, k1, sg, grid, k, stop, ys, ss, table, k0, *, "
                                f"{', '.join(bound)})", march))]


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

    rows(t, ends) is _forcing's, the forcing rows of the steps from t to
    each time of ends; simulate passes a chunk's rows to march as its table.
    """

    def __init__(self, s: Scenario):
        self.n = s.initial.n
        self.size = 2 * self.n
        body = _LAWS[s.model_kind]
        self.branches = _uses(body, "g")
        base = s.base_params
        self.v_bar = base.v_bar
        self.phi: list[float] = [0.0] * (self.n - 1)
        at, self.rows = _forcing(s.leader.accel, s.controls if _uses(body, "u") else ())
        ns = {"kv": base.k_v, "kd": base.k_d, "kk": base.k, "ts": base.tau_s,
              "n": self.n, "size": self.size, "at": at, "rows": self.rows, "phi": self.phi,
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


def _forcing(accel, controls):
    """(at, rows), the one evaluator of the leader acceleration accel and the
    follower controls; a law without controls gets none.

    at(ts) is ([a_l], [us]) at the times ts: each distinct varying profile
    object goes through its values once per call (a sweep's followers share
    one control object), and a constant profile is its constant.
    rows(t, ends) has one row (a_l_2, us_2, a_l_4, us_4, a_l_e, us_e) per
    step from t to each time of ends in turn: the forcing at the step's
    t + h/2, t + h and t_end, with h = t_end - t as step computes it and
    t_end evaluated only where it is not t + h. rows applies that rule to
    all of ends at once, as array arithmetic on the grid, and makes one at
    call for the chunk: its times are every step's t + h/2, then every
    t + h, then the t_end that differ. All-constant forcing gives one
    shared row and computes no times.
    """
    a_fixed = accel.is_constant()
    u_fixed = [u.is_constant() for u in controls]
    u_varying = None in u_fixed
    fixed = a_fixed is not None and not u_varying
    row = (a_fixed, u_fixed) * 3
    varying = {id(p): p for p, c in zip((accel, *controls), (a_fixed, *u_fixed)) if c is None}

    def at(ts) -> tuple[list[float], list]:
        vals = {key: p.values(ts) for key, p in varying.items()}
        a = [a_fixed] * len(ts) if a_fixed is not None else vals[id(accel)]
        if not u_varying:
            return a, [u_fixed] * len(ts)
        return a, list(zip(*[vals[id(u)] if c is None else [c] * len(ts)
                             for u, c in zip(controls, u_fixed)]))

    def rows(t: float, ends) -> list[tuple]:
        if fixed:
            return [row] * len(ends)
        ends = np.asarray(ends, dtype=float)
        m = len(ends)
        starts = np.empty(m)
        starts[0], starts[1:] = t, ends[:-1]
        h = ends - starts
        t_4 = starts + h
        late = np.flatnonzero(ends != t_4).tolist()
        a, us = at(np.concatenate((starts + 0.5 * h, t_4, ends[late])))
        a_e, us_e = a[m:2 * m], us[m:2 * m]
        for r, k in enumerate(late, 2 * m):
            a_e[k], us_e[k] = a[r], us[r]
        return list(zip(a[:m], us[:m], a[m:2 * m], us[m:2 * m], a_e, us_e))

    return at, rows


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
            y_trial, f_trial = eng.step(t, y, f, target)
        except _Singular:
            raise _collision(eng, run, t, y, f, target)
        signs_trial = _signs(eng.phi)
        if not _flipped(signs, signs_trial):
            return _apply_guard(eng, run, target, y_trial, f_trial, signs_trial)

        lo, hi = _bisect(eng, run, t, y, f, target, signs)
        run.rhs_evals += 4
        try:
            y_hi, f_hi = eng.step(t, y, f, hi)
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
            eng.step(t, y, f, mid)
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
        y, _ = eng.step(t, y, f, lo)
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


def _grid(s: Scenario) -> np.ndarray:
    """time_grid as an array. i * dt is the same float whether i is an int
    or a float, i being exact in binary64 below 2^53."""
    n_steps = max(1, math.ceil(s.horizon / s.stepper.dt - 1e-9))
    grid = np.arange(n_steps + 1, dtype=float)
    grid *= s.stepper.dt
    grid[n_steps] = s.horizon
    return grid


def time_grid(s: Scenario) -> list[float]:
    """simulate's output times for a run that reaches the horizon: i * dt,
    then the horizon itself as the last point."""
    return _grid(s).tolist()


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
    times = _grid(s)
    grid = times.tolist()
    n_steps = len(grid) - 1

    size = eng.size
    Y = np.empty((n_steps + 1, size))
    flat = Y.reshape(-1)  # a view, Y being C-contiguous
    S = np.empty((n_steps + 1, n - 1), dtype=np.int8)
    y = [c for veh in s.initial.vehicles for c in (veh.x, veh.v)]
    t = 0.0
    status = SolveStatus.COMPLETED
    collision = guard_violation = None
    # Rows 0 .. k - 1 hold the accepted grid points; k is the next step.
    k = 1
    marched = 0  # steps march took, the trials it handed back included
    stopped = 0  # 1 when row k holds the located stopping point
    try:
        f = eng.deriv(t, y)
        signs = _signs(eng.phi)
        Y[0], S[0] = y, signs
        end = chunk = k  # the ends of the current block and forcing chunk: none yet
        while k <= n_steps:
            if k == chunk:
                k0, chunk = k, min(k + _FORCING_ROWS, n_steps + 1)
                table = eng.rows(grid[k0 - 1], times[k0:chunk])
            if k == end:
                end = min(k + _BLOCK_ROWS, chunk)
            ys, ss = [], []
            S[k:end] = signs
            j, t, y, f, signs = eng.march(t, y, f, signs, grid, k, end, ys, ss, table, k0)
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
            Y[k], S[k], times[k] = stop.y, _signs(eng.phi), stop.t
            stopped = 1
    except _Singular as e:
        # Initial state itself is infeasible; validation should have caught it.
        raise ValueError(f"headway ahead of follower {e.args[0]} is not positive") from None

    rows = k + stopped
    times = times[:rows]
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

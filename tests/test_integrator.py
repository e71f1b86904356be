"""Time stepping: RK4 accuracy, branch-switch refinement, collision and
guard handling.

Golden numbers in this file were produced by the fine-step reference solver
(reference_solve) at build time and are frozen so the tests stay fast.
"""

import math
import os
import subprocess
import sys
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim import (
    PRESET_NAMES,
    BranchFlag,
    CaccParams,
    ModelKind,
    PlatoonState,
    SolveStatus,
    StepperConfig,
    VehicleState,
    load_preset,
    parse_config,
    reference_solve,
    rhs,
    simulate,
)
from platoonsim import integrator
from platoonsim.core import LeaderProfile
from platoonsim.integrator import time_grid, trajectory_mismatches
from platoonsim.profiles import PiecewiseProfile, Segment
from platoonsim.scenario_io import parse_profile

import textbook_laws


def test_rhs_leader_components(fig1_left_scenario):
    st = PlatoonState((VehicleState(5.0, 1.0), VehicleState(0.0, 0.0)))
    out = rhs(fig1_left_scenario, 0.0, st)
    assert out[0] == 1.0   # dx_l/dt is just v_l
    assert out[1] == 0.0   # constant-speed leader


def test_rhs_initial_state(fig1_left_scenario):
    st = PlatoonState((VehicleState(5.0, 1.0), VehicleState(0.0, 0.0)))
    assert rhs(fig1_left_scenario, 0.0, st) == pytest.approx([1.0, 0.0, 0.0, 0.57])


def test_rhs_equilibrium_platoon(reference_params):
    s = load_preset("equilibrium").scenario
    out = rhs(s, 0.0, s.initial)
    accels = out[1::2]
    assert max(abs(a) for a in accels) < 1e-12


def test_step_advances_leader_exactly(fig1_left_result):
    traj = fig1_left_result.trajectory
    assert traj.times[1] == pytest.approx(0.01)
    # zero-accel leader moves linearly; RK4 reproduces that without error
    assert traj.positions[1, 0] == 5.0 + 1.0 * 0.01
    assert traj.velocities[1, 0] == 1.0


class TestFig1Left:
    """Reference scenario: wide gap, stopped follower, constant-speed leader."""

    def test_completes_with_full_grid(self, fig1_left_result):
        assert fig1_left_result.status is SolveStatus.COMPLETED
        assert fig1_left_result.trajectory.n_points == 10_001
        assert fig1_left_result.trajectory.times[-1] == pytest.approx(100.0)

    def test_single_branch_switch(self, fig1_left_result):
        events = fig1_left_result.stats.switch_events
        assert len(events) == 1
        ev = events[0]
        assert ev.follower == 1
        assert ev.from_flag is BranchFlag.CONTROL
        assert ev.to_flag is BranchFlag.GAP
        assert ev.time == pytest.approx(8.65065, abs=1e-3)

    def test_switch_time_matches_fine_oracle(self, fig1_left_scenario, fig1_left_result):
        ref = reference_solve(fig1_left_scenario, 1e-3)
        t_coarse = fig1_left_result.stats.switch_events[0].time
        t_fine = ref.stats.switch_events[0].time
        assert abs(t_coarse - t_fine) <= fig1_left_scenario.switch_tol

    def test_terminal_state_matches_fine_reference(self, fig1_left_result):
        # frozen from reference_solve(scenario, dt_fine=1e-4)
        ref_x = (105.00000000031048, 103.60000000022343)
        ref_v = (1.0, 1.0000000000234341)
        tr = fig1_left_result.trajectory
        diff = max(
            max(abs(a - b) for a, b in zip(tr.positions[-1], ref_x)),
            max(abs(a - b) for a, b in zip(tr.velocities[-1], ref_v)),
        )
        assert diff <= 1e-6

    def test_follower_settles_at_leader_speed(self, fig1_left_result):
        tr = fig1_left_result.trajectory
        assert tr.velocities[-1][1] == pytest.approx(1.0, abs=1e-3)
        assert tr.positions[-1][0] - tr.positions[-1][1] == pytest.approx(1.4, abs=1e-3)

    def test_min_headway_golden(self, fig1_left_result):
        h = fig1_left_result.trajectory.headways()[:, 0]
        assert float(h.min()) == pytest.approx(1.1499006241302148, rel=1e-9)

    def test_branch_codes_recorded(self, fig1_left_result):
        br = fig1_left_result.trajectory.branches[:, 0]
        assert br[0] == int(BranchFlag.CONTROL)
        assert br[-1] == int(BranchFlag.GAP)
        # exactly one transition on the grid
        assert int(np.sum(br[1:] != br[:-1])) == 1

    def test_output_grid_is_regular(self, fig1_left_result):
        t = np.asarray(fig1_left_result.trajectory.times)
        assert np.allclose(np.diff(t), 0.01, atol=1e-12)


def test_time_grid_is_the_output_grid(fig4_scenario, fig4_result):
    traj = fig4_result.trajectory
    assert traj.times.tolist() == time_grid(fig4_scenario)
    assert trajectory_mismatches(fig4_scenario, traj) == []


def test_truncated_run_is_not_a_completed_run():
    s = load_preset("fig1_right_cacc").scenario
    reasons = trajectory_mismatches(s, simulate(s).trajectory)
    assert len(reasons) == 2  # the last time and the row count


class TestCollision:
    def test_cacc_rear_end(self):
        res = simulate(load_preset("fig1_right_cacc").scenario)
        assert res.status is SolveStatus.COLLISION_DETECTED
        t_col, follower = res.trajectory.collision
        assert follower == 1
        assert t_col == pytest.approx(0.2639, abs=1e-3)
        assert res.trajectory.times[-1] == t_col
        # last recorded state is still feasible
        assert res.trajectory.headways()[-1, 0] > 0.0

    def test_proposed_same_data_completes(self):
        res = simulate(load_preset("fig1_right").scenario)
        assert res.status is SolveStatus.COMPLETED
        assert float(res.trajectory.headways().min()) > 0.0


def test_guard_trips_on_destabilizing_step(reference_params):
    """A grossly oversized step makes the control relaxation unstable and
    drives the follower velocity far outside [0, v_bar]."""
    cfg = """\
[params]
model_kind = proposed
k_v = 1.0
k_d = 0.2
k = 0.3
tau_s = 1.4
v_bar = 2.0
u_min = 0.1
u_max = 1.95
T = 100.0

[initial]
positions = 1000, 0
velocities = 1, 0

[leader]
v0 = 1.0
profile = 0 100 const 0.0

[controls]
u = 0 100 const 1.9

[stepper]
dt = 13.0
"""
    res = simulate(parse_config(cfg).scenario)
    assert res.status is SolveStatus.GUARD_TRIPPED
    follower, velocity = res.stats.guard_violation
    assert follower == 1
    assert velocity < -1.0


def test_simulate_rejects_invalid_scenario(fig1_left_scenario):
    from platoonsim import ScenarioError
    bad = replace(fig1_left_scenario,
                  initial=PlatoonState((VehicleState(0.0, 1.0), VehicleState(0.0, 0.0))))
    with pytest.raises(ScenarioError):
        simulate(bad)
    # Unvalidated, a singular law refuses the initial state itself.
    with pytest.raises(ValueError, match="headway ahead of follower 1 is not positive"):
        simulate(bad, validate=False)


class TestReferenceSolve:
    def test_same_step_is_bit_identical(self, fig4_scenario, fig4_result):
        ref = reference_solve(fig4_scenario, fig4_scenario.stepper.dt)
        tr, rr = fig4_result.trajectory, ref.trajectory
        assert np.array_equal(tr.times, rr.times)
        assert np.array_equal(tr.positions, rr.positions)
        assert np.array_equal(tr.velocities, rr.velocities)
        assert np.array_equal(tr.branches, rr.branches)

    def test_fourth_order_on_switch_free_scenario(self):
        """One Richardson ratio against a 10x finer reference; the full
        three-ratio study runs in the acceptance suite."""
        s = load_preset("order_check").scenario
        ref = reference_solve(s, 1e-4)
        assert ref.stats.switch_refinements == 0
        rx = np.asarray(ref.trajectory.positions)
        rv = np.asarray(ref.trajectory.velocities)
        errs = {}
        for dt in (0.1, 0.05):
            r = simulate(replace(s, stepper=StepperConfig(dt=dt)))
            idx = np.round(np.asarray(r.trajectory.times) / 1e-4).astype(int)
            errs[dt] = max(
                np.abs(np.asarray(r.trajectory.positions) - rx[idx]).max(),
                np.abs(np.asarray(r.trajectory.velocities) - rv[idx]).max(),
            )
        assert 12.0 <= errs[0.1] / errs[0.05] <= 20.0

    def test_fourth_order_through_a_branch_switch(self, fig1_left_scenario):
        """fig1_left cut to T = 20 switches once, at t ~ 8.65. Restarting from
        the located switch keeps the order: each halving of dt divides the
        error by ~16 (16.6, 16.2, 16.0 and 16.1 against dt = 1e-3)."""
        s = replace(fig1_left_scenario, horizon=20.0)
        ref = reference_solve(s, 1e-3)
        assert len(ref.stats.switch_events) == 1
        rx, rv = ref.trajectory.positions, ref.trajectory.velocities
        errs = []
        for dt in (0.4, 0.2, 0.1, 0.05, 0.025):
            r = simulate(replace(s, stepper=StepperConfig(dt=dt)))
            assert r.stats.switch_refinements == 1
            idx = np.round(r.trajectory.times / 1e-3).astype(int)
            errs.append(max(np.abs(r.trajectory.positions - rx[idx]).max(),
                            np.abs(r.trajectory.velocities - rv[idx]).max()))
        assert all(12.0 <= a / b <= 20.0 for a, b in zip(errs, errs[1:]))


def test_ovfl_branches_are_all_gap_codes():
    res = simulate(load_preset("order_check").scenario)
    assert res.status is SolveStatus.COMPLETED
    assert np.all(res.trajectory.branches == int(BranchFlag.GAP))


def test_three_vehicle_platoon_runs():
    res = simulate(load_preset("equilibrium").scenario)
    tr = res.trajectory
    assert tr.n_vehicles == 3
    assert res.status is SolveStatus.COMPLETED
    drift = np.abs(np.asarray(tr.velocities) - 1.9).max()
    assert drift < 1e-10


def _law_accel(s, x_l, x, v_l, v, a_l, u):
    """(acceleration, flag or None) of one follower from the textbook laws."""
    if s.model_kind is ModelKind.PROPOSED:
        return textbook_laws.accel_proposed(s.params, x_l, x, v_l, v, u)
    if s.model_kind is ModelKind.CACC:
        return textbook_laws.accel_cacc(s.params, x_l, x, v_l, v, a_l, u)
    return textbook_laws.accel_ovfl(s.params, x_l, x, v_l, v), None


@st.composite
def _platoons(draw, min_headway=0.05, max_n=8):
    n = draw(st.integers(2, max_n))
    headways = draw(st.lists(st.floats(min_headway, 20.0), min_size=n - 1, max_size=n - 1))
    velocities = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    xs = [sum(headways)]
    for h in headways:
        xs.append(xs[-1] - h)
    return xs, velocities, draw(st.floats(0.0, 100.0))


def _varying_scenario(preset, xs, vs):
    """preset's scenario with the platoon (xs, vs), a time-varying leader and a
    different time-varying control per follower."""
    base = load_preset(preset).scenario
    return replace(
        base,
        initial=PlatoonState(tuple(VehicleState(x, v) for x, v in zip(xs, vs))),
        leader=LeaderProfile(parse_profile("0 100 sin 0.0 0.2 0.3 0.5"), base.leader.v0),
        controls=tuple(parse_profile(f"0 100 sin 1.0 {0.1 * i} 0.2 0.0") for i in range(1, len(xs))))


@pytest.mark.parametrize("preset", ["fig1_left", "fig1_left_cacc", "fig1_left_ovfl"])
@given(platoon=_platoons())
@settings(max_examples=60, deadline=None)
def test_rhs_matches_the_scalar_laws(preset, platoon):
    """rhs agrees bit for bit with the textbook laws for every follower, with a
    time-varying leader and a different time-varying control per follower;
    a CACC follower's a_l is its predecessor's acceleration."""
    xs, vs, t = platoon
    s = _varying_scenario(preset, xs, vs)
    assert rhs(s, t, s.initial) == _textbook_rhs(s, xs, vs, t)


def _textbook_rhs(s, xs, vs, t):
    a_prev = s.leader.accel.value(t)
    expected = [vs[0], a_prev]
    for i in range(1, len(xs)):
        a_prev, _ = _law_accel(s, xs[i - 1], xs[i], vs[i - 1], vs[i], a_prev,
                               s.controls[i - 1].value(t))
        expected += [vs[i], a_prev]
    return expected


@pytest.mark.parametrize("h", [0.0, -0.5])
def test_cacc_rhs_is_defined_at_a_closed_gap(h):
    """CACC is defined at any gap: rhs at a zero or negative headway raises
    nothing and equals the textbook law bit for bit. Only a step's end (step
    and march) applies the closed-headway rule, never deriv."""
    xs, vs, t = [h, 0.0, -3.0], [1.0, 1.5, 0.5], 1.3
    s = _varying_scenario("fig1_left_cacc", xs, vs)
    assert rhs(s, t, s.initial) == _textbook_rhs(s, xs, vs, t)


def _textbook_flags(s, traj):
    return [int(_law_accel(s, *traj.positions[r, :2].tolist(), *traj.velocities[r, :2].tolist(),
                           s.leader.accel.value(t), s.controls[0].value(t))[1])
            for r, t in enumerate(traj.times.tolist())]


@pytest.mark.parametrize("preset", ["fig1_left", "fig3b_005", "fig1_left_cacc"])
def test_recorded_branch_codes_match_the_scalar_laws(preset):
    s = load_preset(preset).scenario
    traj = simulate(s).trajectory
    assert traj.branches[:, 0].tolist() == _textbook_flags(s, traj)


def test_event_cap_hits_are_counted(fig1_left_scenario, fig1_left_result, monkeypatch):
    assert fig1_left_result.stats.event_cap_hits == 0
    monkeypatch.setattr(integrator, "_MAX_EVENTS_PER_STEP", 1)
    res = simulate(fig1_left_scenario)
    assert res.status is SolveStatus.COMPLETED
    assert res.stats.event_cap_hits == 1
    # The capped step keeps the accepted trial's own branch state.
    assert res.trajectory.branches[:, 0].tolist() == _textbook_flags(
        fig1_left_scenario, res.trajectory)


def _evaluated_times(monkeypatch) -> list[float]:
    """The times at which profiles are evaluated from now on, one entry per
    time, through values (the integrator's one evaluator) or value."""
    times = []
    value, values = PiecewiseProfile.value, PiecewiseProfile.values
    monkeypatch.setattr(PiecewiseProfile, "value", lambda p, t: times.append(t) or value(p, t))
    monkeypatch.setattr(PiecewiseProfile, "values",
                        lambda p, ts: times.extend(ts) or values(p, ts))
    return times


def test_time_varying_leader_is_evaluated_once_per_stage_time(monkeypatch):
    """k2 and k3 share t + h/2 and k4 shares the step's end with the accepted
    point, so a switch-free run evaluates the profile twice per step, once
    more at the start."""
    times = _evaluated_times(monkeypatch)
    res = simulate(load_preset("order_check").scenario, validate=False)
    assert res.stats.switch_refinements == 0
    assert len(times) == 2 * res.stats.steps + 1


@pytest.mark.parametrize("v, clamped", [(-5e-10, 0.0), (2.0 + 5e-10, 2.0), (1.0, 1.0)])
def test_guard_clamps_float_noise_at_either_edge_of_the_box(fig1_left_scenario, v, clamped):
    eng = integrator._Engine(fig1_left_scenario)
    y = [5.0, 1.0, 0.0, v]
    f = eng.deriv(0.0, y)
    run = integrator._RunState(1e-7, 1e-9)
    y, f, signs = integrator._apply_guard(eng, run, 0.0, y, f, [7])
    assert y[3] == clamped
    assert f == eng.deriv(0.0, [5.0, 1.0, 0.0, clamped])
    # the signs are recomputed after a clamp and passed through otherwise
    assert signs == ([1] if v != clamped else [7])
    assert v == clamped or signs == integrator._signs(eng.phi)
    assert run.guard_clamps == run.rhs_evals == (v != clamped)


@pytest.mark.parametrize("v", [-2e-9, 2.0 + 2e-9])
def test_guard_trips_just_outside_the_noise_band(fig1_left_scenario, v):
    eng = integrator._Engine(fig1_left_scenario)
    y = [5.0, 1.0, 0.0, v]
    with pytest.raises(integrator._Stop) as stop:
        integrator._apply_guard(eng, integrator._RunState(1e-7, 1e-9), 0.0, y,
                                eng.deriv(0.0, y), [1])
    assert stop.value.status is SolveStatus.GUARD_TRIPPED


@pytest.mark.parametrize("kind", list(ModelKind))
def test_simulate_evaluates_profiles_only_through_values(kind, monkeypatch):
    """Every kernel reads its forcing through one evaluator: a run under a
    time-varying leader and controls, with located switches under the
    min-type laws, evaluates profiles only through PiecewiseProfile.values,
    its first deriv and its event path included."""
    s = _varying_platoon(kind)
    value_calls = []
    monkeypatch.setattr(PiecewiseProfile, "value", lambda p, t: value_calls.append(t))
    res = simulate(s, validate=False)
    assert (res.stats.switch_refinements > 0) == (kind is not ModelKind.OVFL)
    assert value_calls == []


def test_ovfl_engine_evaluates_only_the_leader_profile(monkeypatch):
    """OVFL reads no controls, so time-varying controls are never sampled."""
    times = _evaluated_times(monkeypatch)
    s = load_preset("order_check").scenario
    s = replace(s, controls=(parse_profile("0 10 sin 1.0 0.1 0.2 0.0"),))
    res = simulate(s, validate=False)
    assert res.stats.switch_refinements == 0
    assert len(times) == 2 * res.stats.steps + 1


def _textbook_rk4(deriv, t, y, h, k1):
    """Classical RK4 built from deriv, with one list per stage state."""
    half = 0.5 * h
    k2 = deriv(t + half, [yi + half * ki for yi, ki in zip(y, k1)])
    k3 = deriv(t + half, [yi + half * ki for yi, ki in zip(y, k2)])
    k4 = deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    return [yi + h * (a + 2.0 * (b + c) + d) / 6.0 for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _step_outcome(eng, step, *args):
    """The bits of (y_end, f_end) and of the branch gaps that a step leaves,
    or "singular" if it raised _Singular."""
    try:
        y_end, f_end = step(*args)
    except integrator._Singular:
        return "singular"
    return [v.hex() for v in y_end + f_end + eng.phi]


def _textbook_step(eng):
    """A textbook RK4 step of size t_end - t and deriv at its end, raising
    _Singular for the first follower whose end headway is not positive
    (under any law)."""
    def step(t, y, k1, t_end):
        y_end = _textbook_rk4(eng.deriv, t, y, t_end - t, k1)
        for i in range(1, eng.n):
            if y_end[2 * i - 2] - y_end[2 * i] <= 0.0:
                raise integrator._Singular(i)
        return y_end, eng.deriv(t_end, y_end)
    return step


@pytest.mark.parametrize("preset", ["fig1_left", "fig1_left_cacc", "fig1_left_ovfl"])
@given(platoon=_platoons(min_headway=1e-4, max_n=33), h_frac=st.floats(1e-9, 1.0),
       end_ulps=st.sampled_from([0, 1, -1]))
@settings(max_examples=100, deadline=None)
def test_fused_rk4_matches_a_textbook_rk4(preset, platoon, h_frac, end_ulps):
    """The generated step equals a textbook RK4 of size t_end - t followed
    by deriv(t_end, ·) bit for bit, branch gaps included, with a time-varying
    leader and controls, also when t_end is an ulp off a grid time (a
    bisection's midpoint), and raises _Singular exactly when either of the
    two does. Platoons of up to 33 vehicles check the stage states that the
    one-pass step carries down a long chain of followers."""
    xs, vs, t = platoon
    s = _varying_scenario(preset, xs, vs)
    eng = integrator._Engine(s)
    y = [c for xv in zip(xs, vs) for c in xv]
    k1 = eng.deriv(t, y)
    t_end = t + h_frac * s.stepper.dt
    if end_ulps:
        t_end = math.nextafter(t_end, end_ulps * math.inf)
    args = (t, y, k1, t_end)
    expected = _step_outcome(eng, _textbook_step(eng), *args)
    assert _step_outcome(eng, eng.step, *args) == expected


@pytest.mark.parametrize("preset", ["fig1_left", "fig1_left_cacc", "fig1_left_ovfl"])
def test_fused_rk4_evaluates_the_end_time_where_it_is_not_t_plus_h(preset, monkeypatch):
    """For t_end <= 2t, h = t_end - t is exact (Sterbenz) and t + h is t_end,
    so random draws almost never reach a step whose t + h is not t_end. Here
    t + h is t_end's next float, and the leader's acceleration steps from 0
    to 0.25 there, so k4 and the end derivative read different forcing:
    step evaluates each varying profile at three stage times, t + h/2,
    t + h and t_end, once each, and equals a textbook RK4 bit for bit."""
    t, t_end = 0.0009786397624772232, 0.005072429838290596
    h = t_end - t
    assert t + h == 0.0050724298382905965 != t_end
    xs, vs = [4.0, 2.0, 0.0], [1.0, 1.2, 0.8]
    s = _varying_scenario(preset, xs, vs)
    accel = PiecewiseProfile((Segment(0.0, t + h), Segment(t + h, 100.0, const=0.25)))
    s = replace(s, leader=LeaderProfile(accel, s.leader.v0))
    eng = integrator._Engine(s)
    y = [c for xv in zip(xs, vs) for c in xv]
    k1 = eng.deriv(t, y)
    expected = _step_outcome(eng, _textbook_step(eng), t, y, k1, t_end)
    times = _evaluated_times(monkeypatch)
    assert _step_outcome(eng, eng.step, t, y, k1, t_end) == expected != "singular"
    profiles = 1 if s.model_kind is ModelKind.OVFL else len(xs)
    assert times == [t + 0.5 * h, t + h, t_end] * profiles


@pytest.mark.parametrize("preset, d, v_l, v, h_frac, stage", [
    ("fig1_left", 1e-4, 0.0, 0.5, 0.05, 2),
    ("fig1_left", 1e-4, 0.0, 0.5, 0.025, 4),
    ("fig1_left_ovfl", 1e-3, 0.0, 1.0, 0.2, 2),
    ("fig1_left_ovfl", 1e-3, 1.0, 0.0, 0.05, 3),
    ("fig1_left_ovfl", 1e-3, 0.0, 1.0, 0.05, 4),
])
def test_fused_rk4_raises_in_the_stage_a_textbook_rk4_raises(preset, d, v_l, v, h_frac, stage):
    """A pair d apart whose given RK4 stage state has crossed: the generated
    step raises _Singular like the textbook stage, and the traceback shows the
    law template's line from the registered kernel source."""
    s = replace(load_preset(preset).scenario,
                initial=PlatoonState((VehicleState(d, v_l), VehicleState(0.0, v))))
    eng = integrator._Engine(s)
    y = [d, v_l, 0.0, v]
    k1 = eng.deriv(0.0, y)
    h = h_frac * s.stepper.dt
    stages = []
    with pytest.raises(integrator._Singular) as ref:
        _textbook_rk4(lambda t, y: stages.append(t) or eng.deriv(t, y), 0.0, y, h, k1)
    assert len(stages) + 1 == stage
    with pytest.raises(integrator._Singular) as got:
        eng.step(0.0, y, k1, h)
    assert got.value.args == ref.value.args == (1,)
    shown = "".join(traceback.format_exception(got.value))
    assert f'File "<platoonsim kernels: {s.model_kind.value}>"' in shown
    assert "if hh <= 0.0: raise _Singular(i)" in shown


def test_step_raises_in_loop_order_and_simulate_stops_where_a_textbook_rk4_does(monkeypatch):
    """n = 3: follower 2's stage-2 state has crossed, follower 1's crosses
    only at stage 3. A textbook RK4 raises at stage 2, for follower 2; the
    one-pass step reaches follower 1's stage 3 first and raises for follower 1.
    simulate needs only that a step raised, so it locates the same collision
    with either step."""
    h = 0.05
    base = load_preset("fig1_left_ovfl").scenario
    y = [1e-3, 1.0, 0.0, 0.0, -0.01, 1.0]
    s = replace(base, initial=PlatoonState(tuple(map(VehicleState, y[0::2], y[1::2]))),
                controls=base.controls * 2, stepper=replace(base.stepper, dt=h))
    eng = integrator._Engine(s)
    k1 = eng.deriv(0.0, y)
    stages = []
    with pytest.raises(integrator._Singular) as ref:
        _textbook_rk4(lambda t, y: stages.append(t) or eng.deriv(t, y), 0.0, y, h, k1)
    with pytest.raises(integrator._Singular) as got:
        eng.step(0.0, y, k1, h)
    assert (len(stages) + 1, ref.value.args, got.value.args) == (2, (2,), (1,))

    one_pass = simulate(s, validate=False)
    init = integrator._Engine.__init__

    def textbook_init(eng, scenario):
        init(eng, scenario)
        eng.step = _textbook_step(eng)

    monkeypatch.setattr(integrator._Engine, "__init__", textbook_init)
    textbook = simulate(s, validate=False)
    assert one_pass.status is textbook.status is SolveStatus.COLLISION_DETECTED
    assert one_pass.trajectory.collision == textbook.trajectory.collision
    for name in ("times", "positions", "velocities"):
        assert getattr(one_pass.trajectory, name).tobytes() == getattr(textbook.trajectory, name).tobytes()
    assert one_pass.stats == textbook.stats


@pytest.mark.parametrize("preset", ["fig1_left", "fig1_left_cacc", "fig1_left_ovfl"])
def test_one_kernel_code_object_per_law_at_any_platoon_size(preset):
    base = load_preset(preset).scenario
    engines = [integrator._Engine(replace(
        base,
        initial=PlatoonState(tuple(VehicleState(2.0 * (n - 1 - i), 1.0) for i in range(n))),
        controls=base.controls[:1] * (n - 1))) for n in (2, 64, 512)]
    for name in ("deriv", "step", "march"):
        code = getattr(engines[0], name).__code__
        assert all(getattr(e, name).__code__ is code for e in engines)


def test_importing_the_package_compiles_no_law():
    """The kernels and the public scalar laws are compiled on first use: a
    fresh interpreter that imports the package has compiled neither."""
    src = os.path.dirname(os.path.dirname(integrator.__file__))
    code = ("import platoonsim\nfrom platoonsim import integrator, models\n"
            "print(len(integrator._KERNELS), len(models._SCALAR_LAWS))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0"]


def _counted_simulate(monkeypatch, s):
    """simulate(s) and the engine calls it really made: steps (step calls and
    the steps march took, a trial it handed back included), deriv calls, the
    steps tried by switch and by collision bisections, and clamped velocities."""
    calls = {"step": 0, "deriv": 0, "switch": 0, "collision": 0, "clamps": 0}
    init, bisect, apply_guard = integrator._Engine.__init__, integrator._bisect, integrator._apply_guard

    def counting_init(eng, scenario):
        init(eng, scenario)
        for name in ("step", "deriv"):
            def counted(*args, fn=getattr(eng, name), name=name):
                calls[name] += 1
                return fn(*args)
            setattr(eng, name, counted)

        def counted_march(t, y, f, signs, grid, k, end, *rest, fn=eng.march):
            out = fn(t, y, f, signs, grid, k, end, *rest)
            calls["step"] += out[0] - k + (out[0] < end)
            return out
        eng.march = counted_march

    def counting_bisect(eng, run, t, y, f, hi, signs):
        before = calls["step"]
        try:
            return bisect(eng, run, t, y, f, hi, signs)
        finally:
            calls["collision" if signs is None else "switch"] += calls["step"] - before

    def counting_guard(eng, run, t, y, *rest):
        before = y[3::2]
        out = apply_guard(eng, run, t, y, *rest)
        calls["clamps"] += sum(a != b for a, b in zip(before, out[0][3::2]))
        return out

    monkeypatch.setattr(integrator._Engine, "__init__", counting_init)
    monkeypatch.setattr(integrator, "_bisect", counting_bisect)
    monkeypatch.setattr(integrator, "_apply_guard", counting_guard)
    return simulate(s, validate=False), calls


def _pair(preset, leader, follower, dt, **stepper):
    base = load_preset(preset).scenario
    return replace(base, initial=PlatoonState((VehicleState(*leader), VehicleState(*follower))),
                   horizon=40.0, stepper=replace(base.stepper, dt=dt, **stepper))


# Runs that reach each counted path: (scenario, event cap, status, the counter it must move).
_COUNTED_RUNS = {
    "one switch": (lambda: load_preset("fig1_left").scenario, 64, "completed", "switch_bisection_evals"),
    "event cap": (lambda: load_preset("fig1_left").scenario, 1, "completed", "event_cap_hits"),
    "guard clamps": (lambda: _pair("fig1_left", (1000.0, 1.0), (0.0, 0.0), 9.3, guard_tol=0.05),
                     64, "completed", "guard_clamps"),
    "collision at a trial": (lambda: load_preset("fig1_right_cacc").scenario, 64,
                             "collision_detected", "collision_bisection_evals"),
    "collision at a restart": (lambda: _pair("fig1_left_cacc", (0.0, 0.4), (-0.2, 2.0), 8.0), 64,
                               "collision_detected", "collision_bisection_evals"),
    "guard trip at a trial": (lambda: _pair("fig1_left", (0.0, 0.05), (-7.0, 1.0), 1.2), 64,
                              "guard_tripped", "switch_bisection_evals"),
    "guard trip at a restart": (lambda: _pair("fig1_left", (0.0, 0.05), (-7.2, 1.1), 1.15), 64,
                                "guard_tripped", "switch_bisection_evals"),
}


@pytest.mark.parametrize("case", sorted(_COUNTED_RUNS))
def test_solve_counters_match_the_engine_calls(case, monkeypatch):
    """rhs_evals counts a step as 4 law evaluations and a deriv as 1, and the
    bisection and clamp counters count what really ran, on runs that stop at
    a trial step or at a switch restart as well as on completed ones."""
    scenario, cap, status, moved = _COUNTED_RUNS[case]
    monkeypatch.setattr(integrator, "_MAX_EVENTS_PER_STEP", cap)
    res, calls = _counted_simulate(monkeypatch, scenario())
    stats = res.stats
    assert res.status.value == status
    assert getattr(stats, moved) > 0
    assert stats.rhs_evals == 4 * calls["step"] + calls["deriv"]
    assert stats.switch_bisection_evals == calls["switch"]
    assert stats.collision_bisection_evals == calls["collision"]
    assert stats.guard_clamps == calls["clamps"]
    # A refinement counts once its restart step has located the switch.
    assert stats.switch_refinements == len({e.time for e in stats.switch_events})
    if case == "collision at a restart":
        assert stats.switch_bisection_evals > 0
        assert stats.switch_refinements == 0


def test_a_switch_free_run_evaluates_the_law_four_times_a_step_and_once_more():
    stats = simulate(load_preset("order_check").scenario).stats
    assert stats.switch_refinements == stats.guard_clamps == 0
    assert stats.rhs_evals == 4 * stats.steps + 1


def _hand_back_every_step(monkeypatch):
    """Make every engine's march hand its first step back, so that simulate
    takes each step through _advance, the event path."""
    init = integrator._Engine.__init__

    def init_without_march(eng, scenario):
        init(eng, scenario)
        eng.march = lambda t, y, f, signs, grid, k, *rest: (k, t, y, f, signs)

    monkeypatch.setattr(integrator._Engine, "__init__", init_without_march)


def _law_variants(s):
    base = s.base_params
    cacc = s.params if isinstance(s.params, CaccParams) else CaccParams(base)
    return [replace(s, model_kind=ModelKind.PROPOSED, params=base),
            replace(s, model_kind=ModelKind.CACC, params=cacc),
            replace(s, model_kind=ModelKind.OVFL, params=base)]


def _run_bits(s):
    """Everything a run returns, as bytes where it is an array; rhs_evals
    left out, as a handed-back trial is evaluated twice."""
    res = simulate(s, validate=False)
    traj = res.trajectory
    return ([getattr(traj, k).tobytes() for k in ("times", "positions", "velocities", "branches")],
            traj.collision, res.status, replace(res.stats, rhs_evals=0))


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_march_matches_the_event_path_step_by_step(preset, monkeypatch):
    """march's steps, sign checks and block recording give the same run, bit
    for bit, as taking every step through _advance, under all three laws."""
    runs = _law_variants(load_preset(preset).scenario)
    marched = [_run_bits(s) for s in runs]
    _hand_back_every_step(monkeypatch)
    assert [_run_bits(s) for s in runs] == marched


# The counted runs, and two runs through a tie with their first branch codes:
# phi starts at 5.6e-17 and reaches the gap branch in the first step, or
# starts at 3e-4 and is 5.6e-17 after the first step, -3e-4 after the second.
_EVENT_RUNS = {**{case: (*run[:2], None) for case, run in _COUNTED_RUNS.items()},
               "leaving a tie": (lambda: _pair("fig1_left", (2.75, 1.0), (0.0, 1.0), 0.01),
                                 64, [BranchFlag.TIE, BranchFlag.GAP]),
               "through a tie": (lambda: _pair("fig1_left", (2.7515243830598037, 1.0), (0.0, 1.0), 0.01),
                                 64, [BranchFlag.CONTROL, BranchFlag.TIE, BranchFlag.GAP])}


@pytest.mark.parametrize("case", sorted(_EVENT_RUNS))
def test_march_matches_the_event_path_on_each_event_kind(case, monkeypatch):
    """The same on the runs that clamp, trip the guard, hit the event cap,
    collide at a trial and at a switch restart, and enter or leave a tie."""
    scenario, cap, codes = _EVENT_RUNS[case]
    monkeypatch.setattr(integrator, "_MAX_EVENTS_PER_STEP", cap)
    if codes:
        assert simulate(scenario()).trajectory.branches[:len(codes), 0].tolist() == codes
    marched = _run_bits(scenario())
    _hand_back_every_step(monkeypatch)
    assert _run_bits(scenario()) == marched


@pytest.mark.parametrize("preset, event_step", [
    ("fig1_left", integrator._BLOCK_ROWS), ("fig1_left", integrator._BLOCK_ROWS + 1),
    ("fig1_right_cacc", integrator._BLOCK_ROWS), ("fig1_right_cacc", integrator._BLOCK_ROWS + 1)])
def test_an_event_on_a_block_boundary(preset, event_step, monkeypatch):
    """A switch (fig1_left) or a collision (fig1_right_cacc) in the last step
    of march's first block or the first step of its second: the run is the
    event path's bit for bit."""
    def event_time(s):
        res = simulate(s)
        return res.stats.switch_events[0].time if res.stats.switch_events else res.trajectory.collision[0]

    s = load_preset(preset).scenario
    t_event = event_time(s)
    dt = t_event / (event_step - 0.5)
    s = replace(s, horizon=2.0 * t_event, stepper=replace(s.stepper, dt=dt))
    assert math.ceil(event_time(s) / dt) == event_step
    marched = _run_bits(s)
    _hand_back_every_step(monkeypatch)
    assert _run_bits(s) == marched


def test_a_tie_held_through_a_run_rebuilds_no_signs(monkeypatch):
    """equilibrium's followers sit on a tie (branch sign 0) for the whole
    run. march rebuilds the signs only where one may have changed, so _signs
    runs once, for the initial node, however many steps the run takes."""
    calls = []
    signs = integrator._signs
    monkeypatch.setattr(integrator, "_signs", lambda phi: calls.append(phi) or signs(phi))
    s = load_preset("equilibrium").scenario
    for horizon in (0.1 * s.horizon, s.horizon):
        calls.clear()
        res = simulate(replace(s, horizon=horizon), validate=False)
        assert (res.trajectory.branches == BranchFlag.TIE).all()
        assert len(calls) == 1


def _varying_platoon(kind, **changes):
    """A platoon of four under a sine leader and sine controls, followers 2
    and 3 sharing one control object as a sweep's broadcast controls do. Over
    its 400 steps (four march blocks) both min-type laws switch branches."""
    base = load_preset("fig1_left").scenario
    shared = parse_profile("0 100 sin 1.0 0.5 2.0 0.2")
    s = replace(base, horizon=4.0,
                initial=PlatoonState((VehicleState(6.0, 1.0), VehicleState(4.0, 1.6),
                                      VehicleState(2.0, 1.2), VehicleState(0.0, 1.5))),
                leader=LeaderProfile(parse_profile("0 100 sin 0.0 0.5 2.0 0.5"), 1.0),
                controls=(parse_profile("0 100 sin 1.0 0.5 1.5 0.0"), shared, shared))
    s = next(v for v in _law_variants(s) if v.model_kind is kind)
    return replace(s, **changes)


@pytest.mark.parametrize("kind, evaluations", [(ModelKind.PROPOSED, 6), (ModelKind.CACC, 6),
                                               (ModelKind.OVFL, 2)])
def test_a_step_evaluates_each_profile_object_once_per_stage_time(kind, evaluations,
                                                                  monkeypatch):
    """One step reads the forcing at t + h/2 and t + h. Under the leader and
    three controls of which two are one object, that is 3 profiles at 2
    times, not 4 at 2; OVFL reads only the leader."""
    s = _varying_platoon(kind)
    eng = integrator._Engine(s)
    y = [c for veh in s.initial.vehicles for c in (veh.x, veh.v)]
    f = eng.deriv(0.0, y)
    pairs = []
    values = PiecewiseProfile.values
    monkeypatch.setattr(PiecewiseProfile, "values",
                        lambda p, ts: pairs.extend((id(p), t) for t in ts) or values(p, ts))
    eng.step(0.0, y, f, 0.01)
    assert len(pairs) == evaluations == len(set(pairs))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_march_matches_the_event_path_under_time_varying_forcing(kind, monkeypatch):
    """march reads its forcing from the block's table, the event path's step
    builds its own row at its own times: the two give the same run, bit for
    bit, over several blocks of a time-varying leader and controls."""
    s = _varying_platoon(kind)
    marched = _run_bits(s)
    stats = marched[3]
    assert stats.steps >= 3 * integrator._BLOCK_ROWS
    assert (stats.switch_refinements > 0) == (kind is not ModelKind.OVFL)
    _hand_back_every_step(monkeypatch)
    assert _run_bits(s) == marched


@pytest.mark.parametrize("kind", [ModelKind.PROPOSED, ModelKind.CACC])
@pytest.mark.parametrize("event_step", [integrator._BLOCK_ROWS, integrator._BLOCK_ROWS + 1,
                                        integrator._FORCING_ROWS, integrator._FORCING_ROWS + 1])
def test_a_switch_on_a_block_boundary_under_time_varying_forcing(kind, event_step, monkeypatch):
    """The first switch in the last step of march's first block or the first
    step of its second, or in the last step of the first forcing chunk or
    the first step of the second, under time-varying forcing: after the
    handed-back step march resumes at the block's next row, and the run is
    the event path's bit for bit."""
    t_event = simulate(_varying_platoon(kind), validate=False).stats.switch_events[0].time
    dt = t_event / (event_step - 0.5)
    s = _varying_platoon(kind, horizon=3.0 * t_event,
                         stepper=replace(load_preset("fig1_left").scenario.stepper, dt=dt))
    marched = _run_bits(s)
    assert math.ceil(marched[3].switch_events[0].time / dt) == event_step
    _hand_back_every_step(monkeypatch)
    assert _run_bits(s) == marched


def _row_bits(row) -> bytes:
    """A forcing row's floats, leader and controls of each stage, as bytes."""
    a_2, us_2, a_4, us_4, a_e, us_e = row
    return np.array([a_2, *us_2, a_4, *us_4, a_e, *us_e], dtype=float).tobytes()


def _assert_rows_match_one_step_rows(rows, t, ends, table) -> int:
    """Each row of table = rows(t, ends) is rows(t, (t_end,))[0] of its step,
    bit for bit; returns the number of steps whose t + h is not t_end."""
    assert len(table) == len(ends)
    late = 0
    for t_end, row in zip(ends, table):
        late += t + (t_end - t) != t_end
        assert _row_bits(row) == _row_bits(rows(t, (t_end,))[0])
        t = t_end
    return late


@pytest.mark.parametrize("kind", list(ModelKind))
def test_chunked_forcing_tables_match_the_event_paths_rows(kind, monkeypatch):
    """Each row of every forcing table simulate builds for march is the row
    that step builds for itself, rows(t, (t_end,))[0], bit for bit, over
    four chunks (dt = 0.037) of a time-varying leader and controls that end
    inside the run, so their end clamps are read. No table holds more than
    _FORCING_ROWS steps. On the dt grid t + h is t_end (Sterbenz: t_end <=
    2t past the first step); see the next test for the steps where not."""
    tables = []
    init = integrator._Engine.__init__

    def init_recording(eng, scenario):
        init(eng, scenario)
        rows = eng.rows
        eng.rows = lambda t, ends: (tables.append((rows, t, list(ends), rows(t, ends)))
                                    or tables[-1][3])

    monkeypatch.setattr(integrator._Engine, "__init__", init_recording)
    s = _varying_platoon(kind, horizon=120.0,
                         stepper=replace(load_preset("fig1_left").scenario.stepper, dt=0.037))
    res = simulate(s, validate=False)
    assert res.stats.steps > 3 * integrator._FORCING_ROWS
    assert len(tables) == 4
    for rows, t, ends, table in tables:
        assert len(ends) <= integrator._FORCING_ROWS
        assert _assert_rows_match_one_step_rows(rows, t, ends, table) == 0


def test_a_chunk_reads_the_forcing_at_t_end_where_t_plus_h_is_not_t_end():
    """A chunk of steps that grow 2.5-fold, from 1e-300 to past the
    profiles' end, so that t_end > 2t and t + h is often not t_end. The
    leader steps between 0 and 1 between t + h and t_end of each such step,
    so its end row differs from its t + h row exactly there; a control is a
    sine. Every row is the one-step row, bit for bit."""
    jitter = np.random.default_rng(19).uniform(1.0, 1.1, 760)
    ends = (1e-300 * 2.5 ** np.arange(760) * jitter).tolist()
    t, cuts = 0.0, []
    for t_end in ends:
        if t + (t_end - t) != t_end:
            cuts.append(max(t + (t_end - t), t_end))
        t = t_end
    bounds = [0.0, *cuts, 100.0]
    accel = PiecewiseProfile(tuple(Segment(a, b, const=float(i % 2))
                                   for i, (a, b) in enumerate(zip(bounds, bounds[1:]))))
    _, rows = integrator._forcing(accel, (parse_profile("0 100 sin 1.0 0.5 1.5 0.0"),))
    assert ends[-1] > 100.0
    table = rows(0.0, ends)
    late = _assert_rows_match_one_step_rows(rows, 0.0, ends, table)
    assert late == len(cuts) > 0
    assert sum(a_4 != a_e for _, _, a_4, _, a_e, _ in table) == late

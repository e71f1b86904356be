"""Domain types, scenario validation, and the small state helpers."""

from dataclasses import replace

import pytest

from platoonsim import (
    CaccParams,
    LeaderProfile,
    ModelKind,
    ModelParams,
    PlatoonState,
    Scenario,
    StepperConfig,
    VehicleState,
    constant_profile,
    headway,
    leader_velocity,
    validate_scenario,
)
from platoonsim import integrator
from platoonsim.profiles import PiecewiseProfile, Segment


def two_car_scenario(params, *, x=(5.0, 0.0), v=(1.0, 0.0), horizon=100.0,
                     leader_accel=None, u_value=1.9, model=ModelKind.PROPOSED):
    accel = leader_accel or constant_profile(0.0, 0.0, horizon)
    return Scenario(
        params=params,
        model_kind=model,
        initial=PlatoonState(tuple(VehicleState(a, b) for a, b in zip(x, v))),
        leader=LeaderProfile(accel, v[0]),
        controls=(constant_profile(u_value, 0.0, horizon),),
        horizon=horizon,
    )


class TestValidateScenario:
    def test_reference_setup_is_clean(self, reference_params):
        s = two_car_scenario(reference_params)
        assert validate_scenario(s) == []

    def test_zero_initial_headway_flagged(self, reference_params):
        s = two_car_scenario(reference_params, x=(5.0, 5.0))
        diags = validate_scenario(s)
        assert len(diags) == 1
        assert "headway" in diags[0].field

    def test_leader_speed_cap_crossing_detected(self, reference_params):
        # v_l(t) = 1 + 0.1 t crosses v_bar = 2 at t = 10
        s = two_car_scenario(reference_params,
                             leader_accel=constant_profile(0.1, 0.0, 100.0))
        diags = validate_scenario(s)
        assert any(d.field == "leader" and "exceeds" in d.message for d in diags)
        # plain floats, not numpy reprs such as np.float64(2.0001...)
        assert [d.message for d in diags] == [
            "leader velocity 2.0001000100010002 exceeds v_bar=2.0 at t=10.001000100010002"]

    def test_backward_leader_detected(self, reference_params):
        s = two_car_scenario(reference_params,
                             leader_accel=constant_profile(-0.1, 0.0, 100.0))
        diags = validate_scenario(s)
        assert any("negative" in d.message for d in diags)
        assert [d.message for d in diags] == [
            "leader velocity -0.00010001000100023916 negative at t=10.001000100010002"]

    def test_bad_gains_flagged(self, reference_params):
        s = two_car_scenario(replace(reference_params, k_v=-1.0))
        assert any("k_v" in d.field for d in validate_scenario(s))

    def test_control_range_ordering_flagged(self, reference_params):
        s = two_car_scenario(replace(reference_params, u_min=1.96))
        assert any("u_min" in d.field or "u_" in d.field for d in validate_scenario(s))

    def test_control_out_of_range_on_grid(self, reference_params):
        s = two_car_scenario(reference_params, u_value=0.05)  # below u_min = 0.1
        diags = validate_scenario(s)
        assert any(d.field.startswith("controls") for d in diags)
        assert [(d.field, d.message) for d in diags] == [
            ("controls.u_1", "value 0.05 outside [u_min, u_max] at t=0.0")]

    def test_broadcast_out_of_range_control_reports_every_follower(
            self, reference_params, monkeypatch):
        """A sweep shares one control object among all followers: it is sampled
        once and still reported once per follower, like distinct copies."""
        calls = []
        values = PiecewiseProfile.values
        monkeypatch.setattr(PiecewiseProfile, "values", lambda p, ts: calls.append(p) or values(p, ts))
        s = replace(two_car_scenario(reference_params),
                    initial=PlatoonState(tuple(VehicleState(15.0 - 5.0 * i, 1.0) for i in range(4))))
        shared = constant_profile(0.05, 0.0, 100.0)  # below u_min = 0.1
        diags = validate_scenario(replace(s, controls=(shared,) * 3))
        assert len(calls) == 1
        copies = tuple(constant_profile(0.05, 0.0, 100.0) for _ in range(3))
        assert diags == validate_scenario(replace(s, controls=copies))
        assert [d.field for d in diags] == ["controls.u_1", "controls.u_2", "controls.u_3"]
        assert len({d.message for d in diags}) == 1 and "outside [u_min, u_max]" in diags[0].message

    def test_single_vehicle_rejected(self, reference_params):
        s = two_car_scenario(reference_params)
        s = replace(s, initial=PlatoonState((VehicleState(0.0, 1.0),)), controls=())
        assert any("at least 2" in d.message for d in validate_scenario(s))

    def test_velocity_outside_box_flagged(self, reference_params):
        s = two_car_scenario(reference_params, v=(1.0, 2.5))
        diags = validate_scenario(s)
        assert any("v_bar" in d.message for d in diags)

    def test_short_control_span_flagged(self, reference_params):
        s = two_car_scenario(reference_params)
        s = replace(s, controls=(constant_profile(1.9, 0.0, 50.0),))
        assert any("covers" in d.message for d in validate_scenario(s))

    def test_leader_v0_mismatch_flagged(self, reference_params):
        s = two_car_scenario(reference_params)
        s = replace(s, leader=LeaderProfile(s.leader.accel, 1.5))
        assert any(d.field == "leader.v0" for d in validate_scenario(s))

    def test_idempotent(self, reference_params):
        s = two_car_scenario(reference_params, x=(5.0, 5.0))
        first = validate_scenario(s)
        second = validate_scenario(s)
        assert first == second


class TestLeaderVelocity:
    def test_zero_accel(self):
        lead = LeaderProfile(constant_profile(0.0, 0.0, 100.0), 1.0)
        assert leader_velocity(lead, 0.0) == 1.0
        assert leader_velocity(lead, 57.3) == 1.0

    def test_constant_accel_closed_form(self):
        lead = LeaderProfile(constant_profile(0.05, 0.0, 100.0), 1.0)
        assert leader_velocity(lead, 10.0) == pytest.approx(1.5, abs=1e-15)

    def test_symmetric_ramp_cancels(self):
        prof = PiecewiseProfile((Segment(0, 5, const=0.1), Segment(5, 10, const=-0.1)))
        lead = LeaderProfile(prof, 1.0)
        assert leader_velocity(lead, 10.0) == pytest.approx(1.0, abs=1e-15)

    def test_initial_value_exact(self):
        lead = LeaderProfile(constant_profile(0.3, 0.0, 10.0), 1.23)
        assert leader_velocity(lead, 0.0) == 1.23

    def test_out_of_span_raises(self):
        lead = LeaderProfile(constant_profile(0.0, 0.0, 10.0), 1.0)
        with pytest.raises(ValueError):
            leader_velocity(lead, 10.5)
        with pytest.raises(ValueError):
            leader_velocity(lead, -0.1)


class TestHeadway:
    def test_front_pair(self):
        st = PlatoonState((VehicleState(5.0, 1.0), VehicleState(0.0, 0.0)))
        assert headway(st, 1) == 5.0

    def test_coincident_positions_return_zero(self):
        st = PlatoonState((VehicleState(3.0, 1.0), VehicleState(3.0, 1.0)))
        assert headway(st, 0 + 1) == 0.0

    def test_three_vehicles(self):
        st = PlatoonState((VehicleState(10.0, 1.0), VehicleState(5.0, 1.0),
                           VehicleState(1.0, 1.0)))
        assert headway(st, 2) == 4.0

    def test_bad_index(self):
        st = PlatoonState((VehicleState(5.0, 1.0), VehicleState(0.0, 0.0)))
        with pytest.raises(IndexError):
            headway(st, 0)
        with pytest.raises(IndexError):
            headway(st, 2)


def test_switch_tol_defaults_to_scaled_horizon(reference_params, monkeypatch):
    s = two_car_scenario(reference_params, horizon=100.0)
    assert s.switch_tol == pytest.approx(1e-7)
    tight = replace(s, stepper=StepperConfig(dt=1e-2, switch_tol=1e-5))
    assert tight.switch_tol == 1e-5
    # integrator.step takes its bisection bracket from the same property,
    # applied to the stepper config it is given
    used = []
    run_state = integrator._RunState
    monkeypatch.setattr(integrator, "_RunState",
                        lambda st, guard_tol: used.append(st) or run_state(st, guard_tol))
    integrator.step(StepperConfig(dt=1e-2), tight, 0.0, s.initial)
    integrator.step(tight.stepper, s, 0.0, s.initial)
    assert used == [s.switch_tol, 1e-5]


def test_base_params_unwraps_cacc(reference_params):
    cp = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
    s = two_car_scenario(cp, model=ModelKind.CACC)
    assert s.base_params is reference_params


def test_trajectory_helpers(fig1_left_result):
    tr = fig1_left_result.trajectory
    assert tr.n_vehicles == 2
    assert tr.n_points == len(tr.times)
    st = tr.state(0)
    assert st.vehicles[0].x == 5.0 and st.vehicles[1].v == 0.0
    hw = tr.headways()
    assert hw.shape == (tr.n_points, 1)
    assert hw[0, 0] == 5.0

"""Domain types, scenario validation, and the small state helpers."""

import math
from dataclasses import replace

import pytest

from platoonsim import (
    CaccParams,
    LeaderProfile,
    ModelKind,
    ModelParams,
    PlatoonState,
    Scenario,
    ScenarioError,
    StepperConfig,
    VehicleState,
    constant_profile,
    headway,
    leader_velocity,
    validate_scenario,
)
from platoonsim import integrator, profiles
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


def _witness(message: str, head: str, middle: str) -> tuple[float, float]:
    """(value, t) from a diagnostic of the form head + value + middle + t."""
    assert message.startswith(head) and middle in message
    value, t = message[len(head):].split(middle)
    return float(value), float(t)


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
            "leader velocity 2.000000000003638 exceeds v_bar=2.0 at t=10.00000000003638"]

    def test_backward_leader_detected(self, reference_params):
        s = two_car_scenario(reference_params,
                             leader_accel=constant_profile(-0.1, 0.0, 100.0))
        diags = validate_scenario(s)
        assert any("negative" in d.message for d in diags)
        assert [d.message for d in diags] == [
            "leader velocity -3.637978807091713e-12 negative at t=10.00000000003638"]

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
        """A sweep shares one control object among all followers: it is enclosed
        once and still reported once per follower, like distinct copies."""
        calls = []
        range_exit = PiecewiseProfile.range_exit
        monkeypatch.setattr(PiecewiseProfile, "range_exit",
                            lambda p, *args: calls.append(p) or range_exit(p, *args))
        s = replace(two_car_scenario(reference_params),
                    initial=PlatoonState(tuple(VehicleState(15.0 - 5.0 * i, 1.0) for i in range(4))))
        shared = constant_profile(0.05, 0.0, 100.0)  # below u_min = 0.1
        diags = validate_scenario(replace(s, controls=(shared,) * 3))
        assert sum(p is shared for p in calls) == 1
        copies = tuple(constant_profile(0.05, 0.0, 100.0) for _ in range(3))
        assert diags == validate_scenario(replace(s, controls=copies))
        assert [d.field for d in diags] == ["controls.u_1", "controls.u_2", "controls.u_3"]
        assert len({d.message for d in diags}) == 1 and "outside [u_min, u_max]" in diags[0].message

    def test_aliased_control_excursion_refused(self, fig1_left_scenario):
        """A sine whose period is the old 10 000-point grid spacing peaks at 2.5
        between every pair of samples; the enclosure finds a point above u_max."""
        omega = 2.0 * math.pi / (100.0 / 9999)
        u = PiecewiseProfile((Segment(0.0, 100.0, const=1.0, sines=((1.5, omega, 0.0),)),))
        diags = validate_scenario(replace(fig1_left_scenario, controls=(u,)))
        assert [d.field for d in diags] == ["controls.u_1"]
        value, t = _witness(diags[0].message, "value ", " outside [u_min, u_max] at t=")
        assert value == u.segments[0].value(t) > 1.95

    def test_aliased_leader_excursion_refused(self, fig1_left_scenario):
        """v_l = 1 + 0.75 (1 - cos(omega t)) is 1 on the old grid and peaks at 2.5."""
        omega = 2.0 * math.pi / (100.0 / 9999)
        accel = PiecewiseProfile((Segment(0.0, 100.0, sines=((0.75 * omega, omega, 0.0),)),))
        s = replace(fig1_left_scenario, leader=LeaderProfile(accel, 1.0))
        diags = validate_scenario(s)
        assert [d.field for d in diags] == ["leader"]
        value, t = _witness(diags[0].message, "leader velocity ", " exceeds v_bar=2.0 at t=")
        assert value == leader_velocity(s.leader, t) > 2.0

    def test_tangent_control_decided_within_depth_cap(self, fig1_left_scenario, monkeypatch):
        """1.45 + 0.5 sin(t) touches u_max = 1.95 sixteen times on [0, 100]; the
        second-order radius settles each touch in O(depth) pieces."""
        calls = []
        value = Segment.value
        monkeypatch.setattr(Segment, "value", lambda seg, t: calls.append(t) or value(seg, t))
        u = PiecewiseProfile((Segment(0.0, 100.0, const=1.45, sines=((0.5, 1.0, 0.0),)),))
        assert validate_scenario(replace(fig1_left_scenario, controls=(u,))) == []
        assert len(calls) < 16 * 2 * profiles._ENCLOSURE_DEPTH

    def test_undecidable_touch_reported(self, fig1_left_scenario):
        """At omega = 1e6 the enclosure of a touch is still wider than rounding at
        the depth cap, and no evaluated point lies outside: cannot decide."""
        u = PiecewiseProfile((Segment(0.0, 100.0, const=1.45, sines=((0.5, 1e6, 0.0),)),))
        diags = validate_scenario(replace(fig1_left_scenario, controls=(u,)))
        assert [d.field for d in diags] == ["controls.u_1"]
        head = "cannot decide whether the value stays inside [u_min, u_max] on ["
        assert diags[0].message.startswith(head) and diags[0].message.endswith("]")
        p, q = map(float, diags[0].message[len(head):-1].split(", "))
        assert q - p <= 100.0 / 2 ** profiles._ENCLOSURE_DEPTH and abs(p - math.pi / 2e6) < 1e-9

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

    def test_cacc_with_plain_model_params_flagged(self, fig1_left_scenario):
        """A CACC scenario without its own constants gets a params diagnostic
        naming them, and every entry point that builds an engine reports it,
        validated or not."""
        s = replace(fig1_left_scenario, model_kind=ModelKind.CACC)
        diags = validate_scenario(s)
        assert [d.field for d in diags] == ["params"]
        assert all(name in diags[0].message for name in ("CaccParams", "k_a", "d", "d_l"))
        for call in (lambda: integrator.simulate(s), lambda: integrator.simulate(s, validate=False),
                     lambda: integrator.rhs(s, 0.0, s.initial)):
            with pytest.raises(ScenarioError) as err:
                call()
            assert err.value.diagnostics == diags

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
    # simulate takes its bisection bracket from the same property
    used = []
    run_state = integrator._RunState
    monkeypatch.setattr(integrator, "_RunState",
                        lambda st, guard_tol: used.append(st) or run_state(st, guard_tol))
    integrator.simulate(s)
    integrator.simulate(tight)
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

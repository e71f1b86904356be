"""Leader-perturbation machinery and the empirical convergence study."""

import math

import numpy as np
import pytest

from platoonsim import (
    ConvergenceRow,
    ConvergenceTable,
    LeaderProfile,
    ModelKind,
    PerturbationSpec,
    PlatoonState,
    Scenario,
    SolveStatus,
    StepperConfig,
    VehicleState,
    constant_profile,
    convergence_study,
    load_preset,
    max_perturbation_scale,
    pair_signals,
    parse_config,
    perturbed_scenario,
    perturbed_simulate,
    simulate,
)
from platoonsim import perturbation


def make_scenario(params, *, leader_v0=1.0, horizon=10.0):
    zero = constant_profile(0.0, 0.0, horizon)
    return Scenario(
        params=params,
        model_kind=ModelKind.PROPOSED,
        initial=PlatoonState((VehicleState(5.0, leader_v0), VehicleState(0.0, 0.0))),
        leader=LeaderProfile(zero, leader_v0),
        controls=(constant_profile(1.9, 0.0, horizon),),
        horizon=horizon,
        stepper=StepperConfig(dt=0.01),
    )


@pytest.fixture(scope="module")
def fig5_parsed():
    return load_preset("fig5")


@pytest.fixture(scope="module")
def fig5_g(fig5_parsed):
    return fig5_parsed.perturbation.resolved_g(fig5_parsed.scenario.horizon)


class TestAdmissibleScale:
    def test_unit_norm_shape(self, reference_params):
        leader = LeaderProfile(constant_profile(0.0, 0.0, 10.0), 1.0)
        g = constant_profile(0.1, 0.0, 10.0)  # L1 norm = 1
        assert max_perturbation_scale(g, leader, 2.0, 10.0) == pytest.approx(1.0)

    def test_constant_shape_long_horizon(self, reference_params):
        leader = LeaderProfile(constant_profile(0.0, 0.0, 60.0), 1.0)
        g = constant_profile(0.05, 0.0, 60.0)  # L1 norm = 3
        got = max_perturbation_scale(g, leader, 2.0, 60.0)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_saturated_leader_gets_zero(self):
        leader = LeaderProfile(constant_profile(0.0, 0.0, 10.0), 2.0)
        g = constant_profile(0.1, 0.0, 10.0)
        assert max_perturbation_scale(g, leader, 2.0, 10.0) == 0.0

    def test_zero_norm_shape_rejected(self):
        leader = LeaderProfile(constant_profile(0.0, 0.0, 10.0), 1.0)
        g = constant_profile(0.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="zero L1 norm"):
            max_perturbation_scale(g, leader, 2.0, 10.0)

    def test_overcommitted_leader_rejected(self):
        leader = LeaderProfile(constant_profile(0.5, 0.0, 1.0), 1.9)
        g = constant_profile(0.1, 0.0, 1.0)
        with pytest.raises(ValueError, match="headroom"):
            max_perturbation_scale(g, leader, 2.0, 1.0)

    def test_fig5_preset_scale(self, fig5_parsed, fig5_g):
        s = fig5_parsed.scenario
        assert fig5_g.l1_norm(0.0, s.horizon) == pytest.approx(1.0, rel=1e-12)
        eps0 = max_perturbation_scale(fig5_g, s.leader, s.base_params.v_bar, s.horizon)
        assert eps0 == pytest.approx(0.6, rel=1e-12)


class TestPerturbedScenario:
    def test_negative_eps_rejected(self, fig5_g):
        with pytest.raises(ValueError):
            PerturbationSpec(fig5_g, -0.1)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_eps_rejected(self, fig5_g, eps):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            PerturbationSpec(fig5_g, eps)

    def test_zero_eps_returns_same_object(self, reference_params, fig5_g):
        s = make_scenario(reference_params)
        assert perturbed_scenario(s, PerturbationSpec(fig5_g, 0.0)) is s

    def test_leader_shifted_not_followers(self, reference_params):
        s = make_scenario(reference_params)
        g = constant_profile(0.005, 0.0, 10.0)
        p = perturbed_scenario(s, PerturbationSpec(g, 1.0))
        assert p.leader.accel.value(3.0) == pytest.approx(0.005)
        assert p.initial == s.initial
        assert p.controls is s.controls


class TestPerturbedSimulate:
    def test_zero_eps_bit_identical(self, reference_params, fig5_g):
        s = make_scenario(reference_params)
        a = simulate(s)
        b = perturbed_simulate(s, PerturbationSpec(fig5_g, 0.0))
        assert np.array_equal(a.trajectory.times, b.trajectory.times)
        assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
        assert np.array_equal(a.trajectory.velocities, b.trajectory.velocities)

    def test_constant_shape_moves_leader_terminal_velocity(self, reference_params):
        s = make_scenario(reference_params, leader_v0=0.1)
        g = constant_profile(0.005, 0.0, 10.0)
        res = perturbed_simulate(s, PerturbationSpec(g, 1.0))
        # leader integrates exactly: 0.1 + 10 * 0.005
        assert res.trajectory.velocities[-1, 0] == pytest.approx(0.15, abs=1e-12)

    def test_strict_mode_rejects_overscale(self, fig5_parsed, fig5_g):
        with pytest.raises(ValueError, match="admissible scale"):
            perturbed_simulate(fig5_parsed.scenario, PerturbationSpec(fig5_g, 1.0),
                               strict=True)

    def test_admissible_scale_respects_speed_cap(self, fig5_parsed, fig5_g):
        s = fig5_parsed.scenario
        res = perturbed_simulate(s, PerturbationSpec(fig5_g, 0.5), strict=True)
        v_bar = s.base_params.v_bar
        assert res.trajectory.velocities[:, 0].max() <= v_bar + 1e-9
        assert res.trajectory.velocities[:, 1].max() <= v_bar + 1e-9


class TestPairSignals:
    def test_initial_pair_state(self, fig5_parsed):
        res = simulate(fig5_parsed.scenario)
        t, xi, zeta = pair_signals(res.trajectory)
        assert t[0] == 0.0
        assert xi[0] == pytest.approx(2.05, abs=1e-15)
        assert zeta[0] == pytest.approx(0.1, abs=1e-15)

    def test_follower_out_of_range(self, fig5_parsed):
        res = simulate(fig5_parsed.scenario)
        with pytest.raises(IndexError):
            pair_signals(res.trajectory, follower=0)
        with pytest.raises(IndexError):
            pair_signals(res.trajectory, follower=2)


class TestConvergenceStudy:
    def test_zero_only(self, reference_params, fig5_g):
        s = make_scenario(reference_params)
        table = convergence_study(s, fig5_g, [0.0])
        assert table.rows == (ConvergenceRow(0.0, 0.0),)
        base, zero = table.runs
        assert zero is base  # eps = 0 reuses the base run

    def test_dedupes_and_sorts_descending(self, reference_params):
        s = make_scenario(reference_params)
        g = constant_profile(0.01, 0.0, 10.0)
        table = convergence_study(s, g, [0.1, 0.5, 0.1])
        assert [r.eps for r in table.rows] == [0.5, 0.1]

    def test_empty_list_rejected(self, reference_params, fig5_g):
        with pytest.raises(ValueError):
            convergence_study(make_scenario(reference_params), fig5_g, [])

    def test_inadmissible_scale_refused_before_any_run(self, fig5_parsed, fig5_g, monkeypatch):
        calls = []
        monkeypatch.setattr(perturbation, "simulate", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="exceeds the admissible scale"):
            convergence_study(fig5_parsed.scenario, fig5_g, [0.1, 1.0], strict=True)
        assert calls == []

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_scale_refused_before_any_run(self, fig5_parsed, fig5_g, monkeypatch, eps):
        calls = []
        monkeypatch.setattr(perturbation, "simulate", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="nonnegative and finite"):
            convergence_study(fig5_parsed.scenario, fig5_g, [eps, 0.1, 0.05], strict=False)
        assert calls == []

    def test_table_rejects_misordered_rows(self):
        with pytest.raises(ValueError):
            ConvergenceTable((ConvergenceRow(0.1, 1.0), ConvergenceRow(0.5, 2.0)))

    def test_fig5_study(self, fig5_parsed, fig5_g):
        s = fig5_parsed.scenario
        table = convergence_study(s, fig5_g, fig5_parsed.perturbation.eps,
                                  strict=fig5_parsed.perturbation.strict)
        d = table.distances()
        assert [r.eps for r in table.rows] == [1.0, 0.5, 0.1, 0.05, 0.01]
        assert len(table.runs) == 6  # base, then one run per row
        assert all(r.status is SolveStatus.COMPLETED for r in table.runs)
        # frozen from this implementation at dt = 0.01, g normalized by the
        # sign-split L1 norm
        want = [0.29143972071485075, 0.14359311335002262, 0.028354365325508092,
                0.014153633085110421, 0.0028269341435921067]
        assert d == pytest.approx(want, rel=1e-9)
        assert all(b < a for a, b in zip(d, d[1:]))
        # the small-eps response is linear: d/eps is nearly flat at the bottom
        assert (d[4] / 0.01) / (d[3] / 0.05) == pytest.approx(1.0, abs=0.05)

    def test_stops_at_the_first_run_that_does_not_complete(self, fig5_guard_trip_text):
        cfg = parse_config(fig5_guard_trip_text)
        s, pert = cfg.scenario, cfg.perturbation
        table = convergence_study(s, pert.resolved_g(s.horizon), pert.eps, strict=pert.strict)
        assert table.rows == ()
        base, stopped = table.runs
        assert base.status is SolveStatus.COMPLETED
        assert stopped.status is SolveStatus.GUARD_TRIPPED
        assert stopped.trajectory.n_points < base.trajectory.n_points

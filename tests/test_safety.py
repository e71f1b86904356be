"""Safety certificates: headway/velocity envelopes and trajectory checks.

Closed-form oracle values are computed from the bound formulas directly
(see the function docstrings in platoonsim.safety); where a published
rounding disagreed with the formula, the formula wins and the full-precision
value is frozen here.
"""

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np
import pytest

from platoonsim import (
    ModelParams,
    Trajectory,
    apriori_headway_lower_bound,
    build_envelope,
    build_envelope_apriori,
    certify_trajectory,
    constant_profile,
    envelope_decay_rate,
    estimate_lipschitz,
    gronwall_bound,
    headway_lower_bound,
    headway_upper_envelope,
    load_preset,
    simulate,
    trajectory_headway_integral,
    velocity_lower_envelope,
)
from platoonsim.profiles import PiecewiseProfile, Segment, profile_from_table
from platoonsim.safety import CHECK_NAMES, _assemble


# The quadrature reference for the closed-form velocity upper envelope: the
# defining integrals by adaptive Simpson. The differential tests below hold
# build_envelope's V_hi to it.

QUAD_REL_TOL = 1e-9


def _adaptive_simpson(f, a: float, b: float, rel_tol: float) -> float:
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _asr(f, a, m, b, fa, fm, fb, whole, rel_tol, 50)


def _asr(f, a, m, b, fa, fm, fb, whole, rel_tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    refined = left + right
    delta = refined - whole
    if depth <= 0 or abs(delta) <= 15.0 * rel_tol * max(abs(refined), 1e-30):
        return refined + delta / 15.0
    return (_asr(f, a, lm, m, fa, flm, fm, left, rel_tol, depth - 1)
            + _asr(f, m, rm, b, fm, frm, fb, right, rel_tol, depth - 1))


def _integrate_smooth(f, a: float, b: float, breakpoints: Sequence[float] = ()) -> float:
    """Adaptive Simpson over [a, b], split at interior breakpoints (law kinks)."""
    cuts = sorted({a, b, *(c for c in breakpoints if a < c < b)})
    return sum(_adaptive_simpson(f, lo, hi, QUAD_REL_TOL)
               for lo, hi in zip(cuts, cuts[1:]))


def velocity_upper_envelope(p: ModelParams, v0: float, u: PiecewiseProfile,
                            h_hi: Callable[[float], float], underline_h: float,
                            v_bar: float, t: float) -> float:
    """Velocity upper envelope: min of the control-relaxation branch and the
    spacing-relaxation branch, at one time t for an arbitrary h_hi callable.

    Control branch: k * int_0^t e^{k(s-t)} u(s) ds + v0 e^{-kt}, which for a
    constant control closes to u + (v0 - u) e^{-kt}. Spacing branch:
    int_0^t e^{k_d tau_s (s-t)} (k_d h_hi(s) + k_v v_bar / underline_h^2) ds
    + v0 e^{-k_d tau_s t}. Integrals use adaptive Simpson at 1e-9 relative,
    restarted from 0 for every t. This is the reference that the closed-form
    V_hi of build_envelope is tested against; certification never calls it.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return v0
    k = p.k
    uc = u.is_constant()
    if uc is not None:
        branch1 = uc + (v0 - uc) * math.exp(-k * t)
    else:
        decay = math.exp(-k * t)
        kernel = lambda s: math.exp(k * (s - t)) * u.value(s)
        cuts = [seg.t0 for seg in u.segments]
        branch1 = k * _integrate_smooth(kernel, 0.0, t, cuts) + v0 * decay
    b = p.k_d * p.tau_s
    drive = p.k_v * v_bar / (underline_h * underline_h)
    kd = p.k_d
    kernel2 = lambda s: math.exp(b * (s - t)) * (kd * h_hi(s) + drive)
    branch2 = _integrate_smooth(kernel2, 0.0, t) + v0 * math.exp(-b * t)
    return min(branch1, branch2)


def constant_headway_trajectory(h, T, n_points=11):
    t = np.linspace(0.0, T, n_points)
    x_l = 10.0 + 0.0 * t
    x_f = x_l - h
    pos = np.stack([x_l, x_f], axis=1)
    vel = np.zeros_like(pos)
    br = np.zeros((n_points, 1), dtype=np.int8)
    return Trajectory(times=t, positions=pos, velocities=vel, branches=br)


class TestHeadwayIntegral:
    def test_constant_headway_rectangle(self):
        tr = constant_headway_trajectory(2.66, 10.0)
        assert trajectory_headway_integral(tr) == pytest.approx(26.6, rel=1e-14)

    def test_linear_headway_trapezoid_exact(self):
        # h(t) = 1 + t: leader at 1 + t, follower pinned at the origin
        t = np.linspace(0.0, 2.0, 21)
        pos = np.stack([1.0 + t, np.zeros_like(t)], axis=1)
        tr = Trajectory(times=t, positions=pos, velocities=np.zeros_like(pos),
                        branches=np.zeros((21, 1), dtype=np.int8))
        assert trajectory_headway_integral(tr) == pytest.approx(4.0, rel=1e-14)

    def test_golden_value_from_reference_run(self, fig1_left_scenario):
        from platoonsim import reference_solve
        ref = reference_solve(fig1_left_scenario, 1e-3)
        H = trajectory_headway_integral(ref.trajectory)
        assert H == pytest.approx(173.21861401368386, rel=1e-9)

    def test_collision_trajectory_rejected(self):
        res = simulate(load_preset("fig1_right_cacc").scenario)
        with pytest.raises(ValueError):
            trajectory_headway_integral(res.trajectory)


class TestHeadwayLowerBound:
    def test_degenerate_inputs_return_h0(self, reference_params):
        assert headway_lower_bound(reference_params, 2.0, 0.0, 0.0) == pytest.approx(2.0)

    def test_direct_evaluation(self, reference_params):
        # k_v/(v0 + H k_d + k_v/h0) = 1/(0 + 20 + 0.2)
        got = headway_lower_bound(reference_params, 5.0, 0.0, 100.0)
        assert got == pytest.approx(1.0 / 20.2, rel=1e-14)
        assert got == pytest.approx(0.049505, abs=1e-6)

    def test_monotone_decreasing_in_H(self, reference_params):
        bounds = [headway_lower_bound(reference_params, 2.0, 0.5, H) for H in (0, 1, 5, 50)]
        assert all(b > a for a, b in zip(bounds[1:], bounds))

    def test_never_exceeds_initial_headway(self, reference_params):
        for h0 in (0.1, 1.0, 5.0):
            for v0 in (0.0, 1.0):
                for H in (0.0, 10.0):
                    assert headway_lower_bound(reference_params, h0, v0, H) <= h0 + 1e-15


class TestVelocityLowerEnvelope:
    def test_initial_value(self, reference_params):
        assert velocity_lower_envelope(reference_params, 0.5, 1.0, 0.0) == 0.5

    def test_zero_start_stays_zero(self, reference_params):
        for t in (0.0, 1.0, 50.0):
            assert velocity_lower_envelope(reference_params, 0.0, 1.0, t) == 0.0

    def test_direct_evaluation(self, reference_params):
        # rate = max{1/1 + 0.28, 0.3} = 1.28, so value is 0.5 exp(-1.28)
        got = velocity_lower_envelope(reference_params, 0.5, 1.0, 1.0)
        assert got == pytest.approx(0.5 * math.exp(-1.28), rel=1e-14)
        assert got == pytest.approx(0.1390186502265971, rel=1e-12)

    def test_nonincreasing(self, reference_params):
        vals = [velocity_lower_envelope(reference_params, 0.5, 1.0, t)
                for t in np.linspace(0, 10, 40)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestHeadwayUpperEnvelope:
    def test_initial_value(self, reference_params):
        assert headway_upper_envelope(reference_params, 2.0, 0.5, 2.0, 1.0, 0.0) == 2.0

    def test_zero_v0_linear_growth(self, reference_params):
        got = headway_upper_envelope(reference_params, 2.0, 0.0, 2.0, 1.0, 3.0)
        assert got == pytest.approx(2.0 + 2.0 * 3.0, rel=1e-14)

    def test_direct_evaluation(self, reference_params):
        # h0 + v_bar t + v0 (e^{-rt} - 1)/r with r = 1.28
        got = headway_upper_envelope(reference_params, 1.0, 0.5, 2.0, 1.0, 1.0)
        want = 1.0 + 2.0 + 0.5 * (math.exp(-1.28) - 1.0) / 1.28
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(2.717983320489529, rel=1e-12)

    def test_growth_capped_by_vbar(self, reference_params):
        for t in np.linspace(0.0, 20.0, 30):
            got = headway_upper_envelope(reference_params, 1.0, 0.5, 2.0, 1.0, float(t))
            assert got <= 1.0 + 2.0 * t + 1e-12


class TestVelocityUpperEnvelope:
    def test_initial_value(self, reference_params):
        u = constant_profile(1.9, 0.0, 10.0)
        got = velocity_upper_envelope(reference_params, 0.5, u, lambda t: 2.0 + 2 * t, 1.0, 2.0, 0.0)
        assert got == 0.5

    def test_relaxes_to_constant_control(self, reference_params):
        # at k t = 40 the first branch has converged to u
        u = constant_profile(1.9, 0.0, 200.0)
        t = 40.0 / reference_params.k
        got = velocity_upper_envelope(reference_params, 0.5, u, lambda s: 100.0 + 2 * s,
                                      10.0, 2.0, t)
        assert got == pytest.approx(1.9, abs=1e-12)

    def test_first_branch_closed_form(self, reference_params):
        u = constant_profile(1.9, 0.0, 10.0)
        got = velocity_upper_envelope(reference_params, 0.5, u, lambda t: 2.0 + 2 * t,
                                      0.5, 2.0, 1.0)
        want = 1.9 * (1.0 - math.exp(-0.3)) + 0.5 * math.exp(-0.3)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.8628544910455949, rel=1e-12)

    def test_quadrature_matches_closed_form_for_constant_u(self, reference_params):
        """Feed the constant control through the piecewise quadrature path by
        splitting it into two segments; the result must agree with the
        single-segment closed form."""
        from platoonsim.profiles import PiecewiseProfile, Segment
        u_split = PiecewiseProfile((Segment(0, 0.4, const=1.9), Segment(0.4, 10, const=1.9)))
        u_whole = constant_profile(1.9, 0.0, 10.0)
        h_hi = lambda t: 2.0 + 2.0 * t
        a = velocity_upper_envelope(reference_params, 0.5, u_split, h_hi, 0.5, 2.0, 1.0)
        b = velocity_upper_envelope(reference_params, 0.5, u_whole, h_hi, 0.5, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_monotone_between_v0_and_u(self, reference_params):
        u = constant_profile(1.9, 0.0, 50.0)
        prev = 0.5
        for t in np.linspace(0.1, 50.0, 60):
            got = velocity_upper_envelope(reference_params, 0.5, u, lambda s: 50.0 + 2 * s,
                                          5.0, 2.0, float(t))
            assert prev - 1e-12 <= got <= 1.9 + 1e-12
            prev = got


def reference_V_hi(p, v0, u, env, ts):
    """The quadrature envelope, one adaptive integral per time."""
    return np.array([velocity_upper_envelope(p, v0, u, env.h_hi, env.underline_h, p.v_bar,
                                             float(t)) for t in ts])


def max_rel_diff(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


# Controls covering every segment term: ramps, sines, tables, several
# segments, and spans that start after 0 or before it (value() holds the
# end values outside the span).
CONTROLS = {
    "ramp": PiecewiseProfile((Segment(0.0, 100.0, const=0.2, slope=0.015),)),
    "sin": PiecewiseProfile((Segment(0.0, 100.0, const=1.0, sines=((0.5, 0.7, 0.3),)),)),
    "table": profile_from_table([(0, 0.5), (10, 1.5), (25, 0.3), (70, 1.9), (100, 1.0)]),
    "multi": PiecewiseProfile((
        Segment(0.0, 30.0, const=1.0, sines=((0.5, 0.7, 0.3), (0.1, 3.0, 1.0))),
        Segment(30.0, 60.0, const=0.5, slope=0.01),
        Segment(60.0, 100.0, const=1.5))),
    "late_start": PiecewiseProfile((
        Segment(20.0, 50.0, const=0.4, slope=0.02, sines=((0.2, 1.0, 0.5),)),
        Segment(50.0, 80.0, const=1.2))),
    "early_start": PiecewiseProfile((
        Segment(-20.0, 50.0, const=0.4, slope=0.02, sines=((0.2, 1.0, 0.5),)),
        Segment(50.0, 80.0, const=1.2))),
}

# A control far above any spacing branch, so that V_hi is the spacing branch.
SPACING_ONLY = constant_profile(1e6, 0.0, 1.0)

GRID = np.linspace(0.0, 100.0, 101)


class TestClosedFormEnvelope:
    """build_envelope's V_hi is closed form; velocity_upper_envelope's
    quadrature is the reference it must match to 1e-9 relative."""

    @pytest.mark.parametrize("preset", ["fig4", "fig1_left"])
    def test_matches_quadrature_on_preset_grid(self, preset):
        s = load_preset(preset).scenario
        traj = simulate(s).trajectory
        env = build_envelope(s, traj)
        ts = traj.times[::10] if traj.n_points < 2000 else traj.times[::100]
        v0 = s.initial.vehicles[1].v
        assert max_rel_diff(env.V_hi(ts), reference_V_hi(s.base_params, v0, s.controls[0],
                                                         env, ts)) <= 1e-9
        spacing = _assemble(s.base_params, s.initial.vehicles[0].x - s.initial.vehicles[1].x,
                            v0, env.underline_h, env.H, SPACING_ONLY)
        assert max_rel_diff(spacing.V_hi(ts), reference_V_hi(s.base_params, v0, SPACING_ONLY,
                                                             spacing, ts)) <= 1e-9

    @pytest.mark.parametrize("control", sorted(CONTROLS))
    def test_matches_quadrature_for_control(self, reference_params, control):
        u = CONTROLS[control]
        env = _assemble(reference_params, 5.0, 0.5, 0.8, 0.0, u)
        assert max_rel_diff(env.V_hi(GRID), reference_V_hi(reference_params, 0.5, u, env,
                                                           GRID)) <= 1e-9

    @pytest.mark.parametrize("u", [CONTROLS["sin"], SPACING_ONLY], ids=["control", "spacing"])
    def test_tiny_spacing_rate(self, reference_params, u):
        p = replace(reference_params, tau_s=1e-10 / reference_params.k_d)
        env = _assemble(p, 5.0, 0.5, 0.8, 0.0, u)
        assert max_rel_diff(env.V_hi(GRID), reference_V_hi(p, 0.5, u, env, GRID)) <= 1e-9

    @pytest.mark.parametrize("u", [CONTROLS["multi"], SPACING_ONLY], ids=["control", "spacing"])
    def test_rate_times_horizon_beyond_exp_range(self, reference_params, u):
        p = replace(reference_params, k=20.0, k_d=10.0)
        ts = GRID[::4]  # the steep kernels make the reference slow
        assert p.k * ts[-1] > 709.0 and p.k_d * p.tau_s * ts[-1] > 709.0
        env = _assemble(p, 5.0, 0.5, 0.8, 0.0, u)
        got = env.V_hi(ts)
        assert np.isfinite(got).all()
        assert max_rel_diff(got, reference_V_hi(p, 0.5, u, env, ts)) <= 1e-9

    @pytest.mark.parametrize("control", ["table", "multi", "late_start"])
    def test_array_call_equals_pointwise(self, reference_params, control):
        env = _assemble(reference_params, 5.0, 0.5, 0.8, 0.0, CONTROLS[control])
        ts = np.sort(np.random.default_rng(7).uniform(0.0, 120.0, 2000))
        for f in (env.V_lo, env.h_hi, env.V_hi):
            values = f(ts)
            assert values.shape == ts.shape
            assert np.array_equal(values, [f(float(t)) for t in ts])
            assert np.array_equal(f(ts.reshape(40, 50)), values.reshape(40, 50))
            assert isinstance(f(1.5), float)

    def test_negative_time_rejected(self, fig4_scenario, fig4_result):
        env = build_envelope(fig4_scenario, fig4_result.trajectory)
        for f in (env.V_lo, env.h_hi, env.V_hi):
            with pytest.raises(ValueError):
                f(-1e-3)
            with pytest.raises(ValueError):
                f(np.array([0.0, 1.0, -2.0]))


class TestBuildAndCertify:
    def test_fig4_envelope_anchors(self, fig4_scenario, fig4_result):
        env = build_envelope(fig4_scenario, fig4_result.trajectory)
        assert env.V_lo(0.0) == pytest.approx(0.5)
        assert env.h_hi(0.0) == pytest.approx(1.0)
        assert env.V_hi(0.0) == pytest.approx(0.5)
        assert 0.0 < env.underline_h <= 1.0

    def test_fig4_envelope_ordering_on_grid(self, fig4_scenario, fig4_result):
        env = build_envelope(fig4_scenario, fig4_result.trajectory)
        for t in np.asarray(fig4_result.trajectory.times)[::50]:
            assert env.V_lo(float(t)) <= env.V_hi(float(t)) + 1e-12

    def test_fig4_certifies_clean(self, fig4_scenario, fig4_result):
        env = build_envelope(fig4_scenario, fig4_result.trajectory)
        report = certify_trajectory(fig4_result.trajectory, env, tol=1e-6)
        assert report.passed
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert all(c.worst_margin >= -1e-6 for c in report.checks)

    def test_hand_tampered_velocity_fails(self, fig4_scenario, fig4_result):
        env = build_envelope(fig4_scenario, fig4_result.trajectory)
        tr = fig4_result.trajectory
        vel = np.array(tr.velocities, copy=True)
        vel[len(vel) // 2, 1] = 5.0  # far above any upper envelope
        bad = Trajectory(times=tr.times, positions=tr.positions, velocities=vel,
                         branches=tr.branches)
        report = certify_trajectory(bad, env, tol=1e-6)
        assert not report.passed
        worst = report.check("velocity_envelope")
        assert worst.worst_margin < 0.0
        assert not report.check("velocity_box").passed

    def test_equilibrium_sandwich(self):
        s = load_preset("equilibrium").scenario
        res = simulate(s)
        env = build_envelope(s, res.trajectory)
        report = certify_trajectory(res.trajectory, env, tol=1e-6)
        assert report.passed
        for t in (0.0, 10.0, 100.0):
            assert env.V_lo(t) <= 1.9 <= env.V_hi(t) + 1e-12

    def test_zero_v0_lower_envelope_is_zero(self, fig1_left_scenario, fig1_left_result):
        env = build_envelope(fig1_left_scenario, fig1_left_result.trajectory)
        for t in (0.0, 5.0, 50.0):
            assert env.V_lo(t) == 0.0

    def test_cacc_scenario_rejected(self):
        s = load_preset("fig1_left_cacc").scenario
        res = simulate(s)
        with pytest.raises(ValueError):
            build_envelope(s, res.trajectory)


class TestAprioriBound:
    def test_fixed_point_is_conservative(self, fig4_scenario, fig4_result):
        """The a-priori head-way floor can only be looser (smaller) than the
        a-posteriori one, and its H can only be larger."""
        env_a = build_envelope_apriori(fig4_scenario)
        env_p = build_envelope(fig4_scenario, fig4_result.trajectory)
        assert 0.0 < env_a.underline_h <= env_p.underline_h
        assert env_a.H >= env_p.H

    def test_fig4_still_certifies(self, fig4_scenario, fig4_result):
        env_a = build_envelope_apriori(fig4_scenario)
        report = certify_trajectory(fig4_result.trajectory, env_a, tol=1e-6)
        assert report.passed

    def test_converges_to_positive_floor(self, reference_params):
        uh, H = apriori_headway_lower_bound(reference_params, 1.0, 0.5, 10.0)
        assert 0.0 < uh < 1.0
        assert H > 0.0


class TestLipschitz:
    def test_pure_control_system(self, reference_params):
        p = replace(reference_params, k_v=0.0, k_d=0.0)
        L = estimate_lipschitz(p, ((0.5, 5.0), (0.0, 2.0)))
        assert p.k <= L <= 1.5 * p.k

    def test_reference_box_is_finite_positive(self, reference_params):
        L = estimate_lipschitz(reference_params, ((0.5, 5.0), (0.0, 2.0)))
        assert math.isfinite(L) and L > 0.0

    def test_singularity_dominates_small_gaps(self, reference_params):
        wide = estimate_lipschitz(reference_params, ((0.5, 5.0), (0.0, 2.0)))
        tight = estimate_lipschitz(reference_params, ((0.25, 5.0), (0.0, 2.0)))
        assert tight > wide

    def test_empty_box_rejected(self, reference_params):
        with pytest.raises(ValueError):
            estimate_lipschitz(reference_params, ((2.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            estimate_lipschitz(reference_params, ((0.0, 1.0), (0.0, 2.0)))


class TestGronwall:
    def test_zero_initial_distance(self):
        assert gronwall_bound(5.0, 100.0, 0.0) == 0.0

    def test_zero_rate(self):
        assert gronwall_bound(0.0, 100.0, 0.1) == 0.1

    def test_direct_evaluation(self):
        got = gronwall_bound(1.0, 2.0, 0.1)
        assert got == pytest.approx(0.1 * math.e**2, rel=1e-14)
        assert got == pytest.approx(0.738906, abs=1e-6)

    def test_overflow_saturates(self):
        assert gronwall_bound(1000.0, 100.0, 1.0) == math.inf

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            gronwall_bound(-1.0, 1.0, 1.0)


def test_decay_rate_floor_is_control_gain(reference_params):
    # for huge certified headways the 1/h^2 term vanishes and k takes over
    assert envelope_decay_rate(reference_params, 1e6) == pytest.approx(reference_params.k)
    assert envelope_decay_rate(reference_params, 0.5) == pytest.approx(4.28, rel=1e-12)

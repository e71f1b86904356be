"""The three acceleration laws as pure functions.

Hand-computed values below follow directly from the formulas; gap term of
the min-type law is k_v (v_l - v)/h^2 + k_d (h - tau_s v), control term is
k (u - v).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim import (
    BranchFlag,
    CaccParams,
    TIE_TOLERANCE,
    accel_cacc,
    accel_ovfl,
    accel_proposed,
    gamma,
    optimal_velocity,
)


EQ_GAP = 1.4 * 1.9


class TestAccelProposed:
    def test_control_branch_at_wide_gap(self, reference_params):
        a, flag = accel_proposed(reference_params, 5.0, 0.0, 1.0, 0.0, 1.9)
        # gap term 1/25 + 0.2*5 = 1.04, control term 0.3*1.9 = 0.57
        assert a == pytest.approx(0.57, abs=1e-15)
        assert flag is BranchFlag.CONTROL

    def test_gap_branch_hard_braking(self, reference_params):
        a, flag = accel_proposed(reference_params, 0.1, 0.0, 1.0, 1.485, 1.9)
        # gap term (1-1.485)/0.01 + 0.2*(0.1 - 1.4*1.485) = -48.8958
        assert a == pytest.approx(-48.8958, abs=1e-9)
        assert flag is BranchFlag.GAP

    def test_equilibrium_is_a_tie(self, reference_params):
        a, flag = accel_proposed(reference_params, EQ_GAP, 0.0, 1.9, 1.9, 1.9)
        assert a == 0.0
        assert flag is BranchFlag.TIE

    def test_nonpositive_headway_rejected(self, reference_params):
        with pytest.raises(ValueError):
            accel_proposed(reference_params, 0.0, 0.0, 1.0, 1.0, 1.9)
        with pytest.raises(ValueError):
            accel_proposed(reference_params, 0.0, 0.5, 1.0, 1.0, 1.9)

    def test_min_identity(self, reference_params):
        p = reference_params
        for h, vl, v, u in [(5, 1, 0, 1.9), (0.5, 0.2, 1.8, 0.3), (2.66, 1.9, 1.9, 1.9)]:
            a, _ = accel_proposed(p, h, 0.0, vl, v, u)
            gap = p.k_v * (vl - v) / h**2 + p.k_d * (h - p.tau_s * v)
            ctrl = p.k * (u - v)
            assert a <= gap + 1e-15 and a <= ctrl + 1e-15
            assert a == pytest.approx(min(gap, ctrl), abs=1e-15)

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonincreasing_in_v(self, reference_params, v, bump):
        a_lo, _ = accel_proposed(reference_params, 3.0, 0.0, 1.0, v, 1.9)
        a_hi, _ = accel_proposed(reference_params, 3.0, 0.0, 1.0, v + bump, 1.9)
        assert a_hi <= a_lo + 1e-12

    def test_positive_at_standstill(self, reference_params):
        """A stopped follower with positive headway always accelerates."""
        for h in (0.05, 0.5, 5.0):
            a, _ = accel_proposed(reference_params, h, 0.0, 0.3, 0.0, 1.9)
            assert a > 0.0

    def test_continuous_across_switch_surface(self, reference_params):
        # sweep v through the branch crossover; values must chain continuously
        prev = None
        for i in range(2001):
            v = 0.4 + i * 1e-4
            a, _ = accel_proposed(reference_params, 2.0, 0.0, 1.0, v, 1.9)
            if prev is not None:
                assert abs(a - prev) < 1e-2
            prev = a


class TestGamma:
    def test_floor_of_two(self, reference_params):
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
        assert gamma(0.0, c) == 2.0

    def test_time_gap_dominates(self, reference_params):
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
        assert gamma(10.0, c) == pytest.approx(14.0)

    def test_quadratic_term_small(self, reference_params):
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=2.0)
        # candidates: 2, (1/1 - 1/2)*1 = 0.5, 1.4
        assert gamma(1.0, c) == 2.0

    def test_at_least_two_everywhere(self, reference_params):
        c = CaccParams(base=reference_params, k_a=1.0, d=2.0, d_l=1.0)
        for v in (0.0, 0.7, 1.9, 10.0):
            assert gamma(v, c) >= 2.0


class TestAccelCacc:
    def test_control_branch_example(self, reference_params):
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
        a, flag = accel_cacc(c, 5.0, 0.0, 1.0, 0.0, 0.0, 1.9)
        # car-following term 1 + 0.2*(5 - 2) = 1.6 loses to 0.57
        assert a == pytest.approx(0.57, abs=1e-15)
        assert flag is BranchFlag.CONTROL

    def test_equilibrium_tie(self, reference_params):
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
        u = 1.9
        a, flag = accel_cacc(c, gamma(u, c), 0.0, u, u, 0.0, u)
        assert a == 0.0
        assert flag is BranchFlag.TIE

    def test_decelerates_at_tiny_gap_and_speed(self, reference_params):
        """The spacing error can demand deceleration even when nearly stopped,
        which is how this baseline drives velocities negative."""
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
        a, flag = accel_cacc(c, 0.05, 0.0, 0.1, 0.1, 0.0, 1.9)
        assert a == pytest.approx(-0.39, abs=1e-12)
        assert flag is BranchFlag.GAP

    def test_no_headway_guard(self, reference_params):
        # defined even at zero/negative gap: collisions must be observable
        c = CaccParams(base=reference_params, k_a=1.0, d=1.0, d_l=1.0)
        a, _ = accel_cacc(c, 0.0, 0.0, 1.0, 1.0, 0.0, 1.9)
        assert math.isfinite(a)


class TestOptimalVelocity:
    def test_at_offset(self):
        assert optimal_velocity(2.0) == math.tanh(2.0)

    def test_saturates(self):
        assert optimal_velocity(40.0) == pytest.approx(1.0 + math.tanh(2.0), abs=1e-12)

    def test_value_at_five(self):
        assert optimal_velocity(5.0) == math.tanh(3.0) + math.tanh(2.0)
        assert optimal_velocity(5.0) == pytest.approx(1.9590823, abs=1e-6)

    def test_strictly_increasing(self):
        xs = [0.1 * i for i in range(60)]
        vals = [optimal_velocity(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAccelOvfl:
    def test_wide_gap_example(self, reference_params):
        a = accel_ovfl(reference_params, 5.0, 0.0, 1.0, 0.0)
        want = 1.0 / 25.0 + 0.2 * (math.tanh(3.0) + math.tanh(2.0))
        assert a == pytest.approx(want, rel=1e-14)
        assert a == pytest.approx(0.4318165, abs=1e-6)

    def test_equilibrium(self, reference_params):
        h_star = 2.5
        v_star = optimal_velocity(h_star)
        assert accel_ovfl(reference_params, h_star, 0.0, v_star, v_star) == pytest.approx(0.0, abs=1e-15)

    def test_relaxation_only(self, reference_params):
        a = accel_ovfl(reference_params, 2.0, 0.0, 1.0, 1.0)
        assert a == pytest.approx(0.2 * (math.tanh(2.0) - 1.0), rel=1e-14)
        assert a == pytest.approx(-0.0071945, abs=1e-6)

    def test_nonpositive_headway_rejected(self, reference_params):
        with pytest.raises(ValueError):
            accel_ovfl(reference_params, 1.0, 1.0, 1.0, 1.0)


def test_tie_tolerance_band(reference_params):
    """Flags switch to TIE only inside the absolute tolerance band."""
    p = reference_params
    # engineer gap term == control term + delta at h=2, v_l=1, v=1, u chosen
    h, vl, v = 2.0, 1.0, 1.0
    gap = p.k_v * (vl - v) / h**2 + p.k_d * (h - p.tau_s * v)
    u_tie = gap / p.k + v
    _, flag = accel_proposed(p, h, 0.0, vl, v, u_tie)
    assert flag is BranchFlag.TIE
    _, flag = accel_proposed(p, h, 0.0, vl, v, u_tie + 10 * TIE_TOLERANCE)
    assert flag is not BranchFlag.TIE

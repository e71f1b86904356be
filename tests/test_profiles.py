"""Piecewise profile primitives: evaluation, exact integrals, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonsim import PiecewiseProfile, Segment, constant_profile, profile_from_table
from platoonsim.profiles import exp_ramp_weight


def ramp(t0, t1, start, end):
    return PiecewiseProfile((Segment(t0, t1, const=start, slope=(end - start) / (t1 - t0)),))


class TestSegment:
    def test_constant_value(self):
        seg = Segment(0.0, 5.0, const=1.9)
        assert seg.value(0.0) == 1.9
        assert seg.value(3.2) == 1.9

    def test_ramp_value(self):
        seg = Segment(2.0, 4.0, const=1.0, slope=0.5)
        assert seg.value(2.0) == 1.0
        assert seg.value(4.0) == 2.0

    def test_sine_value(self):
        seg = Segment(0.0, 10.0, sines=((0.05, 0.5, 0.0),))
        assert seg.value(0.0) == 0.0
        assert seg.value(math.pi) == pytest.approx(0.05 * math.sin(0.5 * math.pi))

    def test_integral_constant_exact(self):
        seg = Segment(0.0, 10.0, const=0.3)
        assert seg.integral(1.0, 4.0) == pytest.approx(0.9, abs=1e-15)

    def test_integral_sine_closed_form(self):
        amp, om, ph = 0.4, 1.3, 0.2
        seg = Segment(0.0, 10.0, sines=((amp, om, ph),))
        want = amp * (math.cos(ph) - math.cos(om * 6.0 + ph)) / om
        assert seg.integral(0.0, 6.0) == pytest.approx(want, rel=1e-14)

    def test_rebased_preserves_values(self):
        seg = Segment(1.0, 9.0, const=0.2, slope=-0.03, sines=((0.1, 2.0, 0.7),))
        cut = seg.rebased(4.0, 6.0)
        for t in (4.0, 4.7, 5.9):
            assert cut.value(t) == pytest.approx(seg.value(t), rel=1e-14)


class TestPiecewiseProfile:
    def test_requires_contiguous_segments(self):
        with pytest.raises(ValueError):
            PiecewiseProfile((Segment(0, 1, const=1.0), Segment(2, 3, const=1.0)))

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            PiecewiseProfile((Segment(1.0, 1.0, const=0.0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseProfile(())

    def test_value_clamps_outside_span(self):
        p = ramp(0.0, 2.0, 1.0, 3.0)
        assert p.value(-5.0) == 1.0
        assert p.value(7.0) == 3.0

    def test_value_picks_correct_piece(self):
        p = PiecewiseProfile((Segment(0, 5, const=0.1), Segment(5, 10, const=-0.1)))
        assert p.value(4.999) == 0.1
        assert p.value(5.0) == -0.1

    def test_integrate_linear_exact(self):
        # integral of 1 + t over [0, 2] is 4
        p = ramp(0.0, 2.0, 1.0, 3.0)
        assert p.integrate(0.0, 2.0) == pytest.approx(4.0, abs=1e-15)

    def test_integrate_spans_pieces(self):
        p = PiecewiseProfile((Segment(0, 5, const=0.1), Segment(5, 10, const=-0.1)))
        assert p.integrate(0.0, 10.0) == pytest.approx(0.0, abs=1e-15)
        assert p.integrate(3.0, 7.0) == pytest.approx(0.2 - 0.2, abs=1e-15)

    def test_integrate_reversed_limits(self):
        p = constant_profile(0.3, 0.0, 10.0)
        assert p.integrate(8.0, 2.0) == pytest.approx(-1.8, rel=1e-14)

    def test_integrals_from_start_matches_scalar(self):
        p = PiecewiseProfile((
            Segment(0, 4, const=0.05, slope=0.01),
            Segment(4, 9, const=-0.02, sines=((0.1, 1.0, 0.3),)),
        ))
        ts = np.linspace(0.0, 9.0, 37)
        vec = p.integrals_from_start(ts)
        for t, got in zip(ts, vec):
            assert got == pytest.approx(p.integrate(0.0, t), abs=1e-13)

    def test_values_matches_scalar(self):
        p = PiecewiseProfile((
            Segment(0, 4, const=0.05, slope=0.01),
            Segment(4, 9, const=-0.02, sines=((0.1, 1.0, 0.3),)),
        ))
        ts = np.linspace(-1.0, 10.0, 53)
        vec = p.values(ts)
        for t, got in zip(ts, vec):
            assert got == p.value(t)

    def test_l1_norm_constant(self):
        assert constant_profile(-0.05, 0.0, 60.0).l1_norm() == pytest.approx(3.0, rel=1e-12)

    def test_l1_norm_sign_change(self):
        # |t - 1| on [0, 2] integrates to 1
        p = ramp(0.0, 2.0, -1.0, 1.0)
        assert p.l1_norm() == pytest.approx(1.0, rel=1e-6)

    def test_scaled(self):
        p = ramp(0.0, 2.0, 1.0, 3.0)
        q = p.scaled(0.5)
        assert q.value(2.0) == pytest.approx(1.5)
        assert q.integrate(0.0, 2.0) == pytest.approx(2.0)

    def test_add_on_intersection(self):
        a = constant_profile(1.0, 0.0, 10.0)
        b = ramp(2.0, 6.0, 0.0, 4.0)
        c = a + b
        assert c.start == 2.0 and c.end == 6.0
        assert c.value(4.0) == pytest.approx(3.0)
        assert c.integrate(2.0, 6.0) == pytest.approx(4.0 + 8.0, rel=1e-14)

    def test_add_disjoint_raises(self):
        a = constant_profile(1.0, 0.0, 1.0)
        b = constant_profile(1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            a + b

    def test_add_merges_breakpoints(self):
        a = PiecewiseProfile((Segment(0, 5, const=1.0), Segment(5, 10, const=2.0)))
        b = PiecewiseProfile((Segment(0, 3, const=10.0), Segment(3, 10, const=20.0)))
        c = a + b
        assert [s.t0 for s in c.segments] == [0, 3, 5]
        assert c.value(1.0) == 11.0
        assert c.value(4.0) == 21.0
        assert c.value(6.0) == 22.0

    def test_is_constant(self):
        assert constant_profile(1.9, 0.0, 100.0).is_constant() == 1.9
        assert ramp(0.0, 1.0, 0.0, 1.0).is_constant() is None


def test_constant_profile():
    p = constant_profile(0.7, 0.0, 5.0)
    assert p.value(2.5) == 0.7
    assert p.integrate(0.0, 5.0) == pytest.approx(3.5, abs=1e-15)


def test_profile_from_table_interpolates():
    p = profile_from_table([(0.0, 0.0), (1.0, 2.0), (3.0, 0.0)])
    assert p.value(0.5) == pytest.approx(1.0)
    assert p.value(2.0) == pytest.approx(1.0)
    assert p.integrate(0.0, 3.0) == pytest.approx(3.0, rel=1e-14)


def test_exp_ramp_weight_series_meets_direct_form():
    """Around the switch from the Taylor series to the direct form both agree."""
    below, at = exp_ramp_weight(np.array([np.nextafter(0.1, 0.0), 0.1]))
    direct = lambda x: (math.expm1(-x) + x) / (x * x)
    assert below == pytest.approx(direct(0.1), rel=1e-13)
    assert at == pytest.approx(direct(0.1), rel=1e-13)
    assert exp_ramp_weight(np.array([0.0]))[0] == 0.5
    assert exp_ramp_weight(np.array([1e-12]))[0] == pytest.approx(0.5 - 1e-12 / 6, rel=1e-15)


def test_profile_from_table_needs_two_points():
    with pytest.raises(ValueError):
        profile_from_table([(0.0, 1.0)])


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=6),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=50, deadline=None)
def test_integral_additivity(values, frac):
    """integrate(a, c) == integrate(a, b) + integrate(b, c) for any interior b."""
    knots = [(float(i), v) for i, v in enumerate(values)]
    p = profile_from_table(knots)
    a, c = p.start, p.end
    b = a + frac * (c - a)
    whole = p.integrate(a, c)
    split = p.integrate(a, b) + p.integrate(b, c)
    assert split == pytest.approx(whole, abs=1e-12)

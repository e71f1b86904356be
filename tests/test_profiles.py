"""Piecewise profile primitives: evaluation, exact integrals, norms."""

import math
import random as random_module

import numpy as np
import pytest
from bisect import bisect_right

from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonsim import (
    PiecewiseProfile,
    Segment,
    constant_profile,
    parse_profile,
    profile_from_table,
)
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

    @pytest.mark.parametrize("omega, phase, want", [
        # the difference of cosines cancels: it gave 5.000444502911705e-07
        (1e-6, 0.0, 2.0 * math.sin(5e-7) ** 2 / 1e-6),
        # sin(omega / 2) / omega loses its digits for subnormal omega
        (2.2250738585e-313, 1.0, math.sin(1.0)),
    ])
    def test_integral_sine_small_omega(self, omega, phase, want):
        seg = Segment(0.0, 1.0, sines=((1.0, omega, phase),))
        assert seg.integral(0.0, 1.0) == pytest.approx(want, rel=1e-15)

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

    def test_l1_norm_constant(self):
        assert constant_profile(-0.05, 0.0, 60.0).l1_norm() == pytest.approx(3.0, rel=1e-12)

    def test_l1_norm_sign_change(self):
        # |t - 1| on [0, 2] integrates to 1
        p = ramp(0.0, 2.0, -1.0, 1.0)
        assert p.l1_norm() == pytest.approx(1.0, rel=1e-6)

    def test_l1_norm_of_a_fast_sine(self):
        """Fixed-grid Simpson aliased this to 3.647; the sign-split norm matches
        the closed form, 2/omega per half period plus the last partial one."""
        omega = 257.36
        halves = math.floor(100.0 * omega / math.pi)
        exact = (2.0 * halves + 1.0 - math.cos(100.0 * omega - halves * math.pi)) / omega
        got = parse_profile("0 100 sin 0 1 257.36 0").l1_norm(0.0, 100.0)
        assert exact * (1.0 - 1e-12) <= got <= exact * (1.0 + 1e-12)
        assert got == pytest.approx(63.66, abs=0.01)

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


# Random const, ramp and sine segments on contiguous spans, for the
# enclosure routine's differential tests against dense evaluation.
_segment_shapes = st.tuples(
    st.sampled_from(["const", "ramp", "sine"]),
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


def _random_profile(shapes) -> PiecewiseProfile:
    segs, t0 = [], 0.0
    for kind, length, const, slope, amp, omega, phase in shapes:
        segs.append(Segment(t0, t0 + length, const=const,
                            slope=slope if kind == "ramp" else 0.0,
                            sines=((amp, omega, phase),) if kind == "sine" else ()))
        t0 += length
    return PiecewiseProfile(tuple(segs))


@given(st.lists(_segment_shapes, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
@example(shapes=[("sine", 1.0, 0.0, 0.0, 1.0, 1e-06, 0.0)])
@example(shapes=[("const", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 2
         + [("sine", 1.0, 0.0, 0.0, 1.0, 2.2250738585e-313, 1.0)])
def test_l1_norm_against_fine_integral_sums(shapes):
    """sum |integral| over a fine split is a lower bound of the L1 norm; it
    misses at most 2 w sup|f| <= 2 M1 w^2 per piece that holds a zero, and a
    segment has at most omega * length / pi + 3 zeros."""
    p = _random_profile(shapes)
    lower = slack = 0.0
    for seg in p.segments:
        n = 4000
        w = (seg.t1 - seg.t0) / n
        cuts = [seg.t0 + k * w for k in range(n)] + [seg.t1]
        lower += sum(abs(seg.integral(a, b)) for a, b in zip(cuts[:-1], cuts[1:]))
        zeros = max((om for _, om, _ in seg.sines), default=0.0) * (seg.t1 - seg.t0) / math.pi + 3
        slack += 2.0 * seg.derivative_bound(1) * w * w * zeros
    got = p.l1_norm()
    rounding = 1e-12 * (1.0 + lower)
    assert lower - rounding <= got <= lower + slack + rounding


def _value_oracle(p: PiecewiseProfile, t: float) -> float:
    """PiecewiseProfile.value by its definition: the end values outside the
    span, else the segment found by bisecting the segment starts."""
    first, last = p.segments[0], p.segments[-1]
    if t <= first.t0:
        return first.value(first.t0)
    if t >= last.t1:
        return last.value(last.t1)
    starts = [seg.t0 for seg in p.segments]
    return p.segments[max(bisect_right(starts, t) - 1, 0)].value(t)


@given(st.lists(_segment_shapes, min_size=1, max_size=4),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
@settings(max_examples=60, deadline=None)
def test_value_matches_its_definition_bit_for_bit(shapes, fracs):
    """The cached-table lookup at every segment start and its neighbouring
    floats, at interior points, and before the start and past the end."""
    p = _random_profile(shapes)
    cuts = [seg.t0 for seg in p.segments] + [p.end]
    ts = [u for t in cuts for u in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
    ts += [p.start - 1.0, p.end + 1.0] + [p.start + f * (p.end - p.start) for f in fracs]
    assert [p.value(t).hex() for t in ts] == [_value_oracle(p, t).hex() for t in ts]


# Segments of any slope with zero to two sines: (length, const, slope, sines).
_sine_segments = st.tuples(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                       st.floats(min_value=0.0, max_value=5.0),
                       st.floats(min_value=0.0, max_value=2.0 * math.pi)), max_size=2),
)


def _sine_profile(shapes, t0: float = 0.0) -> PiecewiseProfile:
    segs = []
    for length, const, slope, sines in shapes:
        segs.append(Segment(t0, t0 + length, const=const, slope=slope, sines=tuple(sines)))
        t0 += length
    return PiecewiseProfile(tuple(segs))


# Profiles that test_values_is_value_bit_for_bit checks beside its drawn
# ones. "signed zeros": a sine-free segment whose value at t = -0.0 is
# -0.0 + -0.0 * 1.0 = -0.0, beside a segment with a sine, so that a sine
# term padded in with a zero amplitude would turn it into 0.0. "table": a
# linear interpolation through 600 knots, so that values looks each time up
# among 599 segments.
_FIXED_PROFILES = {
    "signed zeros": PiecewiseProfile((Segment(-1.0, 1.0, const=-0.0, slope=-0.0),
                                      Segment(1.0, 2.0, sines=((1.0, 2.0, 0.5),)))),
    "table": profile_from_table([(0.1 * i + 0.01 * math.cos(i), math.sin(i)) for i in range(600)]),
}


@given(st.lists(_sine_segments, min_size=1, max_size=4),
       st.none() | st.tuples(st.lists(_sine_segments, min_size=1, max_size=3),
                             st.floats(min_value=0.0, max_value=1.0),
                             st.floats(min_value=-0.4, max_value=0.4)),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20), st.randoms(),
       st.none())
@example(shapes=[], perturbation=None, fracs=[0.3], random=random_module.Random(0),
         fixed="signed zeros")
@example(shapes=[], perturbation=None, fracs=[0.3], random=random_module.Random(0),
         fixed="table")
@settings(max_examples=80, deadline=None)
def test_values_is_value_bit_for_bit(shapes, perturbation, fracs, random, fixed):
    """The block evaluator equals value at every time: on multi-segment
    profiles with up to two sines per segment, on the sums a_l + eps g
    that perturbed_scenario builds (g's cuts shifted against a_l's) and on
    _FIXED_PROFILES, at each segment start and its neighbouring floats, at
    both signed zeros, at interior points, and before the start and past
    the end; in sorted, reversed and shuffled order, so that consecutive
    times meet segments in any order."""
    p = _FIXED_PROFILES[fixed] if fixed else _sine_profile(shapes)
    if perturbation is not None:
        g_shapes, eps, shift = perturbation
        p = p + _sine_profile(g_shapes, shift).scaled(eps)
    cuts = [seg.t0 for seg in p.segments] + [p.end]
    ts = [u for t in cuts for u in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
    ts += [-0.0, 0.0, p.start - 1.0, p.end + 1.0]
    ts += [p.start + f * (p.end - p.start) for f in fracs]
    shuffled = random.sample(ts, len(ts))
    for order in (sorted(ts), sorted(ts, reverse=True), shuffled):
        assert [v.hex() for v in p.values(order)] == [p.value(t).hex() for t in order]
    if fixed == "signed zeros":
        assert math.copysign(1.0, p.value(-0.0)) == -1.0


@given(st.lists(_segment_shapes, min_size=1, max_size=3),
       st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=0.0, max_value=0.6),
       st.booleans())
@example(shapes=[("sine", 1.0, 0.0, 0.0, 1.0, 1.0, 0.0)], cut_lo=0.0, cut_hi=0.5, integrated=False)
@example(shapes=[("sine", 3.0, 0.1, 0.0, 1.0, 0.1, 0.0)], cut_lo=0.0, cut_hi=2.2e-16, integrated=False)
@example(shapes=[("sine", 2.0, 0.5302551242502562, 0.0, 0.9999999999999999, 2.220446049250313e-16,
                  3.9979466922503994)], cut_lo=0.0, cut_hi=2.220446049250313e-16, integrated=True)
@settings(max_examples=80, deadline=None)
def test_range_exit_finds_every_sampled_violation(shapes, cut_lo, cut_hi, integrated):
    """Whenever dense evaluation finds a point outside [lo, hi], range_exit
    reports a point outside too; a reported point is always really outside.
    The range trims cut_lo and cut_hi of the sampled span off each end, so
    interior peaks often break it. integrated=True checks the running
    integral, as for leader speed. The examples: sin t from its zero at the
    start, which begins exactly on lo, so its end slope decides the first
    piece; a rising sine whose last value is one ulp above hi, which the end
    slopes must not decide; and a sine of omega = 2^-52, whose integral is
    noise in the difference-of-cosines form."""
    p = _random_profile(shapes)
    if integrated:
        f = lambda t: 0.5 + p.integrate(p.start, t)
        samples = [f(t) for t in np.linspace(p.start, p.end, 8001)]
    else:
        f = None
        samples = [seg.value(t) for seg in p.segments for t in np.linspace(seg.t0, seg.t1, 2001)]
    low, high = min(samples), max(samples)
    lo, hi = low + cut_lo * (high - low), high - cut_hi * (high - low)
    found = p.range_exit(p.start, p.end, lo, hi, f)
    if found is not None and found[2] is not None:
        t, t_again, v = found
        assert t == t_again and not lo <= v <= hi
    if any(not lo <= v <= hi for v in samples):
        assert found is not None and found[2] is not None

"""Piecewise time profiles with exact per-segment integrals.

Leader accelerations and per-follower desired-velocity signals are built
from contiguous segments of the form

    value(t) = const + slope*(t - t0) + sum_j amp_j * sin(omega_j*(t - t0) + phase_j)

on [t0, t1). Constants, ramps, sinusoids, and linearly interpolated tables
are all expressible this way, and every segment integrates in closed form,
so running integrals (and therefore speed-cap checks) carry no quadrature
error. Profiles are closed under pointwise addition and scalar multiplication,
which keeps perturbed leader profiles inside the same representation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Segment", "PiecewiseProfile", "constant_profile", "profile_from_table"]

# Taylor coefficients of (x - 1 + e^{-x}) / x^2 = sum_n (-x)^n / (n + 2)!,
# highest order first for Horner; ten terms leave < 1e-18 below x = 0.1.
_RAMP_SERIES = tuple((-1.0) ** n / math.factorial(n + 2) for n in range(9, -1, -1))


# Half of omega * width at or below which Segment.integral takes sin(x) / x
# as 1.
_NARROW_SINE = 1e-8

# Halvings of one segment after which an enclosure piece that is still
# undecided is given up.
_ENCLOSURE_DEPTH = 40


def exp_ramp_weight(x: np.ndarray) -> np.ndarray:
    """(x - 1 + e^{-x}) / x^2 elementwise for x >= 0, accurate as x -> 0.

    tau^2 * exp_ramp_weight(a * tau) is int_0^tau e^{a(s - tau)} s ds. The
    direct form loses every digit to cancellation for tiny x, so x < 0.1
    uses the Taylor series instead.
    """
    x = np.asarray(x, dtype=float)
    small = x < 0.1
    xs = np.where(small, x, 0.0)
    series = np.zeros_like(xs)
    for c in _RAMP_SERIES:
        series = series * xs + c
    xl = np.where(small, 1.0, x)
    return np.where(small, series, (np.expm1(-xl) + xl) / (xl * xl))


def _segment_value(const, slope, sines, dt, sin):
    """const + slope*dt + sum_j amp_j * sin(omega_j*dt + phase_j), term by
    term in that order: a segment's formula, written once. dt and the
    coefficients are floats for Segment.value (sin being math.sin) or arrays
    of one element per time for PiecewiseProfile.values."""
    v = const + slope * dt
    for amp, omega, phase in sines:
        v += amp * sin(omega * dt + phase)
    return v


def _sin_each(x: np.ndarray) -> np.ndarray:
    """math.sin of each element: np.sin's bits depend on the numpy build."""
    return np.fromiter(map(math.sin, x.tolist()), float, len(x))


@dataclass(frozen=True)
class Segment:
    """One piece of a profile, valid on [t0, t1).

    sines holds (amplitude, omega, phase) triples evaluated relative to t0.
    """

    t0: float
    t1: float
    const: float = 0.0
    slope: float = 0.0
    sines: tuple[tuple[float, float, float], ...] = ()

    def value(self, t: float) -> float:
        return _segment_value(self.const, self.slope, self.sines, t - self.t0, math.sin)

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b], which must lie inside [t0, t1].

        A sine term integrates to amp sin(omega (da + db) / 2 + phase) (db - da)
        sinc(x) with x = omega (db - da) / 2 and sinc(x) = sin(x) / x, taken
        as 1 for |x| <= _NARROW_SINE. Unlike the difference of cosines, this
        keeps its digits for small, even subnormal, omega.
        """
        da = a - self.t0
        db = b - self.t0
        total = self.const * (db - da) + 0.5 * self.slope * (db * db - da * da)
        for amp, omega, phase in self.sines:
            x = 0.5 * omega * (db - da)
            sinc = math.sin(x) / x if abs(x) > _NARROW_SINE else 1.0
            total += amp * math.sin(0.5 * omega * (da + db) + phase) * (db - da) * sinc
        return total

    def relaxed(self, rate: float, y0: float, tau):
        """y(t0 + tau) for y' = rate (value - y), y(t0) = y0, tau >= 0.

        Closed form term by term, using
        int e^{as} sin(ws + p) ds = e^{as} (a sin(ws + p) - w cos(ws + p)) / (a^2 + w^2);
        only the decaying factor e^{-rate tau} is ever formed.
        """
        tau = np.asarray(tau, dtype=float)
        x = rate * tau
        decay = np.exp(-x)
        y = y0 * decay - self.const * np.expm1(-x) + rate * self.slope * tau * tau * exp_ramp_weight(x)
        for amp, omega, phase in self.sines:
            arg = omega * tau + phase
            at_t0 = rate * math.sin(phase) - omega * math.cos(phase)
            y = y + (amp * rate / (rate * rate + omega * omega)) * (
                rate * np.sin(arg) - omega * np.cos(arg) - decay * at_t0)
        return y

    def enclosure(self, p: float, q: float, fp: float, fq: float) -> tuple[float, float]:
        """(low, high) around value on [p, q], given fp = value(p) and fq = value(q).

        The chord radius r = M2 (q - p)^2 / 8, tightened by the Taylor bounds
        fp + s value'(p) -+ M2 s^2 / 2 from each end, with the closed-form
        slope: they decide a piece that leaves a bound from an end exactly on it.
        """
        w = q - p
        r = self.derivative_bound(2) * w * w / 8.0
        low, high = min(fp, fq) - r, max(fp, fq) + r
        for f0, t, ws in ((fp, p, w), (fq, q, -w)):
            d = ws * (self.slope + sum(amp * omega * math.cos(omega * (t - self.t0) + phase)
                                       for amp, omega, phase in self.sines))
            low, high = max(low, f0 + min(0.0, d - 4.0 * r)), min(high, f0 + max(0.0, d + 4.0 * r))
        return low, high

    def derivative_bound(self, order: int) -> float:
        """Bound on |d^order value / dt^order| over the segment, order 1 or 2."""
        bound = abs(self.slope) if order == 1 else 0.0
        return bound + sum(abs(amp * omega ** order) for amp, omega, _ in self.sines)

    def rebased(self, t0: float, t1: float) -> "Segment":
        """Same function restricted to [t0, t1] with coefficients rebased to t0."""
        shift = t0 - self.t0
        return Segment(
            t0,
            t1,
            const=self.const + self.slope * shift,
            slope=self.slope,
            sines=tuple((amp, om, ph + om * shift) for amp, om, ph in self.sines),
        )

    def scaled(self, factor: float) -> "Segment":
        return Segment(
            self.t0,
            self.t1,
            const=factor * self.const,
            slope=factor * self.slope,
            sines=tuple((factor * amp, om, ph) for amp, om, ph in self.sines),
        )


@dataclass(frozen=True)
class PiecewiseProfile:
    """A contiguous chain of segments defining a function of time.

    Evaluation outside [start, end] clamps to the nearest endpoint; range
    enforcement is the caller's concern (scenario validation does it with
    range_exit's enclosures).
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("profile needs at least one segment")
        prev = None
        for seg in self.segments:
            if not (seg.t1 > seg.t0):
                raise ValueError(f"segment on [{seg.t0}, {seg.t1}] has non-positive length")
            if prev is not None and seg.t0 != prev.t1:
                raise ValueError(f"segments not contiguous at t={prev.t1} vs t={seg.t0}")
            prev = seg

    @property
    def start(self) -> float:
        return self.segments[0].t0

    @property
    def end(self) -> float:
        return self.segments[-1].t1

    @cached_property
    def _table(self) -> tuple:
        """(segment starts, segments, start, end, value at start, value at end)."""
        first, last = self.segments[0], self.segments[-1]
        return (tuple(seg.t0 for seg in self.segments), self.segments,
                first.t0, last.t1, first.value(first.t0), last.value(last.t1))

    @cached_property
    def _prefix(self) -> tuple[float, ...]:
        """Integral from self.start to each segment's t0."""
        acc = [0.0]
        for seg in self.segments:
            acc.append(acc[-1] + seg.integral(seg.t0, seg.t1))
        return tuple(acc)

    def _locate(self, t: float) -> int:
        return max(bisect_right(self._table[0], t) - 1, 0)

    def value(self, t: float) -> float:
        """The profile at t, clamped to the end values outside [start, end].

        One bisection in a cached table, then Segment.value. The cached
        tables hold only floats, segments and arrays, so the profile stays
        picklable for sweep workers. The integrator evaluates profiles
        through values instead.
        """
        starts, segments, start, end, at_start, at_end = self._table
        if t <= start:
            return at_start
        if t >= end:
            return at_end
        return segments[bisect_right(starts, t) - 1].value(t)

    @cached_property
    def _columns(self) -> tuple:
        """The segment starts as an array, then by segment index the
        coefficients of _segment_value: the const and slope columns and,
        for each sine slot j, the (amp, omega, phase) columns, which hold
        0.0 where a segment has j sines or fewer and are never read there.
        Last, each segment's sine count, or None when all counts are equal."""
        segs = self.segments
        slots = max(len(seg.sines) for seg in segs)
        sines = [[0.0] * (3 * slots) for _ in segs]
        for row, seg in zip(sines, segs):
            row[:3 * len(seg.sines)] = [c for sine in seg.sines for c in sine]
        sines = np.array(sines, dtype=float).reshape(len(segs), slots, 3).transpose(1, 2, 0)
        counts = np.array([len(seg.sines) for seg in segs])
        return (np.array([seg.t0 for seg in segs], dtype=float),
                np.array([seg.const for seg in segs], dtype=float),
                np.array([seg.slope for seg in segs], dtype=float),
                sines, None if (counts == slots).all() else counts)

    def values(self, ts) -> list[float]:
        """[self.value(t) for t in ts], bit for bit: the integrator's one
        evaluator, for a chunk of march's stage times, a step's or a time.

        Array operations throughout, but for math.sin (_sin_each): the end
        clamps, one np.searchsorted of the times inside the span, and
        _segment_value on the coefficients gathered by segment index, once
        for each sine count the times meet, so that no sine term is added
        where a segment has none (-0.0 + 0.0 is 0.0). A call costs
        O(len(ts) log(segments)), however many segments it does not meet.
        """
        ts = np.asarray(ts, dtype=float)
        starts, const, slope, sines, counts = self._columns
        _, _, start, end, at_start, at_end = self._table
        low, high = ts <= start, ts >= end
        inside = ~(low | high)
        out = np.empty(ts.shape)
        out[low] = at_start
        out[high] = at_end
        t = ts[inside]
        i = np.searchsorted(starts, t, side="right") - 1
        dt = t - starts[i]
        if counts is None:
            groups = [(len(sines), slice(None))]
        else:
            c = counts[i]
            groups = [(k, c == k) for k in range(len(sines) + 1)]
        v = np.empty(len(t))
        for k, sel in groups:
            j = i[sel]
            if len(j):
                v[sel] = _segment_value(const[j], slope[j], [col[:, j] for col in sines[:k]],
                                        dt[sel], _sin_each)
        out[inside] = v
        return out.tolist()

    def integrate(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (clamped to the profile's span)."""
        if b < a:
            return -self.integrate(b, a)
        a = min(max(a, self.start), self.end)
        b = min(max(b, self.start), self.end)
        ia = self._locate(a)
        ib = self._locate(b)
        if ia == ib:
            return self.segments[ia].integral(a, b)
        seg_a = self.segments[ia]
        total = seg_a.integral(a, seg_a.t1)
        total += self._prefix[ib] - self._prefix[ia + 1]
        total += self.segments[ib].integral(self.segments[ib].t0, b)
        return total

    def _pieces(self, a: float, b: float, decided, f=None):
        """Split [a, b] into pieces (seg, p, q, f(p), f(q), r, ok), left to right.

        f is the profile itself (None) or an antiderivative of it; on each
        segment |f''| <= m2, its derivative bound of order 2 or 1. Then f on
        [p, q] stays within r = m2 (q - p)^2 / 8 of its chord, so inside
        [min(f(p), f(q)) - r, max(f(p), f(q)) + r]. A piece is halved until
        ok = decided(seg, p, q, f(p), f(q), r) holds or it lies _ENCLOSURE_DEPTH
        halvings below its segment (or is too short to halve). The radius is second
        order, so a function that only touches a bound costs O(depth) pieces.
        """
        for seg in self.segments:
            p, end = max(a, seg.t0), min(b, seg.t1)
            if not p < end:
                continue
            g, m2 = (seg.value, seg.derivative_bound(2)) if f is None else (f, seg.derivative_bound(1))
            fp = g(p)
            pending = [(end, g(end), 0)]  # right ends still to cover, nearest last
            while pending:
                q, fq, depth = pending[-1]
                r = m2 * (q - p) ** 2 / 8.0
                ok = decided(seg, p, q, fp, fq, r)
                m = 0.5 * (p + q)
                if ok or depth == _ENCLOSURE_DEPTH or not p < m < q:
                    yield seg, p, q, fp, fq, r, ok
                    pending.pop()
                    p, fp = q, fq
                else:
                    pending[-1] = (q, fq, depth + 1)
                    pending.append((m, g(m), depth + 1))

    def range_exit(self, a: float, b: float, lo: float, hi: float, f=None):
        """Where the profile (or f, an antiderivative of it) leaves [lo, hi] on [a, b].

        None if it provably stays inside. Otherwise (t, t, f(t)) for the first
        evaluated point outside, or (p, q, None) for a piece [p, q] that is
        still undecided at the depth cap.
        """
        def decided(seg, p, q, fp, fq, r):
            if not lo <= fp <= hi or (lo <= min(fp, fq) - r and max(fp, fq) + r <= hi):
                return True
            # A piece whose right end is outside stays undecided, so that end
            # is reported. The chord radius never decides a piece with an end
            # exactly on a bound; the end slopes do, and so does a derivative
            # of one sign.
            if not lo <= fq <= hi:
                return False
            if f is None:
                low, high = seg.enclosure(p, q, fp, fq)
            else:
                d_low, d_high = seg.enclosure(p, q, seg.value(p), seg.value(q))
                if d_low < 0.0 < d_high:
                    return False
                low, high = min(fp, fq), max(fp, fq)
            return lo <= low and high <= hi

        for _, p, q, fp, fq, _, ok in self._pieces(a, b, decided, f):
            if not lo <= fp <= hi:
                return p, p, fp
            if not ok:
                return (q, q, fq) if not lo <= fq <= hi else (p, q, None)
        return None

    def l1_norm(self, a: float | None = None, b: float | None = None) -> float:
        """Integral of |value| over [a, b]: an upper bound, within rounding of it.

        The span is split into pieces on which the sign provably cannot
        change, and each adds |Segment.integral| exactly; a piece still
        undecided at the depth cap (one that holds a zero) adds its width
        times its sup |value| bound.
        """
        a = self.start if a is None else a
        b = self.end if b is None else b
        def sign_fixed(seg, p, q, fp, fq, r):
            return min(fp, fq) - r >= 0.0 or max(fp, fq) + r <= 0.0

        total = 0.0
        for seg, p, q, fp, fq, r, ok in self._pieces(a, b, sign_fixed):
            total += abs(seg.integral(p, q)) if ok else (q - p) * (max(abs(fp), abs(fq)) + r)
        return total

    def scaled(self, factor: float) -> "PiecewiseProfile":
        return PiecewiseProfile(tuple(seg.scaled(factor) for seg in self.segments))

    def __add__(self, other: "PiecewiseProfile") -> "PiecewiseProfile":
        """Pointwise sum on the intersection of the two spans."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi <= lo:
            raise ValueError("profiles do not overlap")
        cuts = sorted({lo, hi}
                      | {s.t0 for s in self.segments if lo < s.t0 < hi}
                      | {s.t0 for s in other.segments if lo < s.t0 < hi})
        merged = []
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            sa = self.segments[self._locate(t0)].rebased(t0, t1)
            sb = other.segments[other._locate(t0)].rebased(t0, t1)
            merged.append(Segment(t0, t1, const=sa.const + sb.const,
                                  slope=sa.slope + sb.slope,
                                  sines=sa.sines + sb.sines))
        return PiecewiseProfile(tuple(merged))

    def _pieces_from_zero(self) -> tuple[Segment, ...]:
        """Segments covering [0, inf) that agree with value() there.

        value() holds the end values outside [start, end], so constant
        pieces pad the span on both sides; a segment reaching below 0 is
        rebased to start at 0.
        """
        first, last = self.segments[0], self.segments[-1]
        pieces = []
        if self.start > 0.0:
            pieces.append(Segment(0.0, self.start, const=first.value(first.t0)))
        for seg in self.segments:
            if seg.t1 > 0.0:
                pieces.append(seg if seg.t0 >= 0.0 else seg.rebased(0.0, seg.t1))
        pieces.append(Segment(max(self.end, 0.0), math.inf, const=last.value(last.t1)))
        return tuple(pieces)

    def relaxation(self, rate: float, y0: float, ts: np.ndarray) -> np.ndarray:
        """y(t) at each t >= 0 for y' = rate (value(t) - y), y(0) = y0.

        That is y0 e^{-rate t} + rate int_0^t e^{rate (s - t)} value(s) ds,
        exact segment by segment: the value at each segment's start is
        carried forward with the decaying factor e^{-rate (t1 - t0)}, so
        rate * t beyond the float exponent range cannot overflow.
        """
        ts = np.asarray(ts, dtype=float)
        if (ts < 0.0).any():
            raise ValueError("t must be nonnegative")
        pieces = self._pieces_from_zero()
        which = np.searchsorted([seg.t0 for seg in pieces], ts, side="right") - 1
        out = np.empty_like(ts)
        y = y0
        for j, seg in enumerate(pieces):
            mask = which == j
            if mask.any():
                out[mask] = seg.relaxed(rate, y, ts[mask] - seg.t0)
            if j + 1 < len(pieces):
                y = float(seg.relaxed(rate, y, seg.t1 - seg.t0))
        return out

    def is_constant(self) -> float | None:
        """The profile's value if it is a single constant segment, else None."""
        if len(self.segments) == 1:
            seg = self.segments[0]
            if seg.slope == 0.0 and not seg.sines:
                return seg.const
        return None


def constant_profile(value: float, t0: float, t1: float) -> PiecewiseProfile:
    return PiecewiseProfile((Segment(t0, t1, const=value),))


def profile_from_table(points: list[tuple[float, float]]) -> PiecewiseProfile:
    """Linear interpolation through (t, value) knots as a chain of ramp segments."""
    if len(points) < 2:
        raise ValueError("table needs at least two knots")
    segs = []
    for (ta, va), (tb, vb) in zip(points[:-1], points[1:]):
        if tb <= ta:
            raise ValueError("table knots must have strictly increasing times")
        segs.append(Segment(ta, tb, const=va, slope=(vb - va) / (tb - ta)))
    return PiecewiseProfile(tuple(segs))

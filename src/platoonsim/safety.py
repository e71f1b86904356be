"""Safety certificates and trajectory envelopes for the min-type law.

The certified minimum headway needs the headway time-integral H, and the
only headway envelope that could bound H needs the certified minimum, so
the constants are resolved in two passes: H is measured a posteriori from
the simulated trajectory, then the minimum-headway bound and the velocity
and headway envelopes are assembled from it. An a priori fixed-point
variant (alternating envelope integral and headway bound, starting from the
initial headway) is provided as well for certification before simulating.

The envelopes of build_envelope and build_envelope_apriori are evaluated
in closed form and accept a float or a numpy array of times, so a whole
trajectory grid is certified in one vectorised pass. The package has no
quadrature: the tests hold the closed forms to an adaptive-quadrature
evaluation of the defining integrals.

Envelopes may be visibly loose relative to the trajectory: the constants
are used raw, with no calibration step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ModelKind, ModelParams, Scenario, Trajectory
from .profiles import PiecewiseProfile, exp_ramp_weight

__all__ = [
    "SafetyEnvelope",
    "CheckResult",
    "CertReport",
    "trajectory_headway_integral",
    "headway_lower_bound",
    "envelope_decay_rate",
    "velocity_lower_envelope",
    "headway_upper_envelope",
    "build_envelope",
    "apriori_headway_lower_bound",
    "build_envelope_apriori",
    "certify_trajectory",
    "estimate_lipschitz",
    "gronwall_bound",
]

CHECK_NAMES = ("headway_lower", "headway_upper", "velocity_envelope", "velocity_box")


@dataclass(frozen=True)
class SafetyEnvelope:
    """Certified bounds for one leader/follower pair.

    underline_h: certified minimum headway.
    H: headway time-integral constant used to produce it.
    V_lo, h_hi, V_hi: time envelopes (velocity lower, headway upper,
    velocity upper); each maps a float to a float and an array of times to
    an array of the same shape. v_bar carries the speed cap for the box check.
    """

    underline_h: float
    H: float
    V_lo: Callable[[float], float]
    h_hi: Callable[[float], float]
    V_hi: Callable[[float], float]
    v_bar: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    worst_time: float


@dataclass(frozen=True)
class CertReport:
    checks: tuple[CheckResult, ...]
    grid_size: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def rows(self) -> list[tuple[str, float, float, bool]]:
        return [(c.name, c.worst_margin, c.worst_time, c.passed) for c in self.checks]


def trajectory_headway_integral(traj: Trajectory, follower: int = 1) -> float:
    """Trapezoidal integral of one follower's headway over the trajectory.

    This a posteriori value instantiates the existential constant H in the
    minimum-headway bound. Collision trajectories are rejected: the integral
    would not certify anything.
    """
    if traj.collision is not None:
        raise ValueError("headway integral is undefined for a collision trajectory")
    if not 1 <= follower < traj.n_vehicles:
        raise IndexError(f"follower {follower} out of range for {traj.n_vehicles} vehicles")
    h = traj.positions[:, follower - 1] - traj.positions[:, follower]
    return float(np.trapezoid(h, traj.times))


def headway_lower_bound(p: ModelParams, h0: float, v0: float, H: float) -> float:
    """Certified minimum headway k_v / (v0 + H k_d + k_v/h0).

    Always in (0, h0]: at v0 = H = 0 it degenerates to h0 and it is strictly
    decreasing in both v0 and H.
    """
    if not h0 > 0.0:
        raise ValueError("h0 must be positive")
    if v0 < 0.0 or H < 0.0:
        raise ValueError("v0 and H must be nonnegative")
    return p.k_v / (v0 + H * p.k_d + p.k_v / h0)


def envelope_decay_rate(p: ModelParams, underline_h: float) -> float:
    """Exponential rate max{k_v/underline_h^2 + k_d tau_s, k} of the velocity envelopes."""
    if not underline_h > 0.0:
        raise ValueError("underline_h must be positive")
    return max(p.k_v / (underline_h * underline_h) + p.k_d * p.tau_s, p.k)


def _time_array(t) -> np.ndarray:
    ts = np.array(t, dtype=float, ndmin=1)
    if (ts < 0.0).any():
        raise ValueError("t must be nonnegative")
    return ts


def _shaped(t, values: np.ndarray):
    """A float for a scalar t, else the values in t's shape."""
    return float(values[0]) if np.ndim(t) == 0 else values.reshape(np.shape(t))


def velocity_lower_envelope(p: ModelParams, v0: float, underline_h: float, t):
    """v0 e^{-rt} at a float or an array of times t >= 0."""
    ts = _time_array(t)
    return _shaped(t, v0 * np.exp(-envelope_decay_rate(p, underline_h) * ts))


def headway_upper_envelope(p: ModelParams, h0: float, v0: float, v_bar: float,
                           underline_h: float, t):
    """h0 + v_bar t + v0 (e^{-rt} - 1)/r at a float or an array of times t >= 0."""
    ts = _time_array(t)
    r = envelope_decay_rate(p, underline_h)
    return _shaped(t, h0 + v_bar * ts + v0 * (np.exp(-r * ts) - 1.0) / r)


def _spacing_branch(p: ModelParams, h0: float, v0: float, v_bar: float,
                    underline_h: float, ts: np.ndarray) -> np.ndarray:
    """The spacing branch of the velocity upper envelope for its own h_hi, exactly.

    With b = k_d tau_s and r the decay rate, k_d h_hi(s) + drive is
    c + k_d v_bar s + (k_d v0 / r) e^{-rs}, c = k_d (h0 - v0/r) + drive, so
    the branch is c I0 + k_d v_bar I1 + (k_d v0 / r) I2 + v0 e^{-bt} with
    I0 = (1 - e^{-bt})/b, I1 = t/b - I0/b and I2 = (e^{-rt} - e^{-bt})/(b - r).
    Each is evaluated in a form that stays accurate as b t -> 0 and r -> b
    (r > b because k_v > 0; r - b is exact when r and b are close).
    """
    b = p.k_d * p.tau_s
    r = envelope_decay_rate(p, underline_h)
    drive = p.k_v * v_bar / (underline_h * underline_h)
    c = p.k_d * (h0 - v0 / r) + drive
    decay = np.exp(-b * ts)
    i0 = -np.expm1(-b * ts) / b
    i1 = ts * ts * exp_ramp_weight(b * ts)
    i2 = decay * -np.expm1(-(r - b) * ts) / (r - b)
    return c * i0 + p.k_d * v_bar * i1 + (p.k_d * v0 / r) * i2 + v0 * decay


def _assemble(p: ModelParams, h0: float, v0: float, underline_h: float, H: float,
              u: PiecewiseProfile) -> SafetyEnvelope:
    v_bar = p.v_bar

    def V_lo(t):
        return velocity_lower_envelope(p, v0, underline_h, t)

    def h_hi(t):
        return headway_upper_envelope(p, h0, v0, v_bar, underline_h, t)

    def V_hi(t):
        ts = _time_array(t)
        return _shaped(t, np.minimum(u.relaxation(p.k, v0, ts),
                                     _spacing_branch(p, h0, v0, v_bar, underline_h, ts)))

    return SafetyEnvelope(underline_h, H, V_lo, h_hi, V_hi, v_bar)


def _pair_initials(s: Scenario, follower: int) -> tuple[float, float]:
    lead = s.initial.vehicles[follower - 1]
    veh = s.initial.vehicles[follower]
    return lead.x - veh.x, veh.v


def build_envelope(s: Scenario, traj: Trajectory, follower: int = 1) -> SafetyEnvelope:
    """A posteriori envelope for one leader/follower pair of a simulated run.

    Pass 1 measures H from the trajectory, pass 2 turns it into the
    certified minimum headway, pass 3 assembles the three time envelopes.
    """
    if s.model_kind is not ModelKind.PROPOSED:
        raise ValueError("safety certificates apply to the min-type law only")
    p = s.base_params
    h0, v0 = _pair_initials(s, follower)
    H = trajectory_headway_integral(traj, follower)
    underline_h = headway_lower_bound(p, h0, v0, H)
    return _assemble(p, h0, v0, underline_h, H, s.controls[follower - 1])


def apriori_headway_lower_bound(p: ModelParams, h0: float, v0: float,
                                T: float, max_iter: int = 100,
                                rel_tol: float = 1e-8) -> tuple[float, float]:
    """Fixed point of (headway bound <- envelope integral <- headway bound).

    Starts from underline_h = h0, integrates the headway upper envelope in
    closed form to get H, recomputes the bound, and repeats. Returns the
    final (underline_h, H). No trajectory needed.
    """
    if not h0 > 0.0:
        raise ValueError("h0 must be positive")
    if v0 < 0.0:
        raise ValueError("v0 must be nonnegative")
    if not T > 0.0:
        raise ValueError("T must be positive")
    v_bar = p.v_bar
    underline_h = h0
    H = 0.0
    for _ in range(max_iter):
        r = envelope_decay_rate(p, underline_h)
        # int_0^T h_hi = h0 T + v_bar T^2/2 + v0 ((1 - e^{-rT})/r^2 - T/r)
        H = h0 * T + 0.5 * v_bar * T * T + v0 * (
            (1.0 - math.exp(-r * T)) / (r * r) - T / r)
        new = headway_lower_bound(p, h0, v0, H)
        if abs(new - underline_h) <= rel_tol * underline_h:
            underline_h = new
            break
        underline_h = new
    return underline_h, H


def build_envelope_apriori(s: Scenario, follower: int = 1) -> SafetyEnvelope:
    """Envelope certified before simulating, via the fixed-point H."""
    if s.model_kind is not ModelKind.PROPOSED:
        raise ValueError("safety certificates apply to the min-type law only")
    p = s.base_params
    h0, v0 = _pair_initials(s, follower)
    underline_h, H = apriori_headway_lower_bound(p, h0, v0, s.horizon)
    return _assemble(p, h0, v0, underline_h, H, s.controls[follower - 1])


def certify_trajectory(traj: Trajectory, env: SafetyEnvelope, tol: float = 1e-6,
                       follower: int = 1) -> CertReport:
    """Check a trajectory against an envelope at every grid point.

    Four checks: headway above the certified minimum, headway below its
    upper envelope, velocity inside [V_lo, V_hi], velocity inside
    [0, v_bar]. A check fails iff its worst signed margin drops below -tol.
    """
    if not 1 <= follower < traj.n_vehicles:
        raise IndexError(f"follower {follower} out of range for {traj.n_vehicles} vehicles")
    times = traj.times
    h = traj.positions[:, follower - 1] - traj.positions[:, follower]
    v = traj.velocities[:, follower]
    lo = env.V_lo(times)
    hi = env.V_hi(times)
    h_cap = env.h_hi(times)

    margins = (
        ("headway_lower", h - env.underline_h),
        ("headway_upper", h_cap - h),
        ("velocity_envelope", np.minimum(v - lo, hi - v)),
        ("velocity_box", np.minimum(v, env.v_bar - v)),
    )
    checks = []
    for name, m in margins:
        i = int(np.argmin(m))
        worst = float(m[i])
        checks.append(CheckResult(name, worst >= -tol, worst, float(times[i])))
    return CertReport(tuple(checks), len(times), tol)


def estimate_lipschitz(p: ModelParams,
                       box: tuple[tuple[float, float], tuple[float, float]]) -> float:
    """Supremum of the acceleration map's gradient norm over a box.

    box is ((h_min, h_max), (v_min, v_max)); the velocity range is used for
    both the leader's and the follower's speed. The min's a.e. gradient is
    one of its two branches': the control branch's norm is k, and for
    nonnegative gains the gap branch's Euclidean norm is largest at the
    corner h = h_min, v_l = v_min, v = v_max, where every partial derivative
    has its largest magnitude.
    """
    (h_min, h_max), (v_min, v_max) = box
    if not h_min > 0.0:
        raise ValueError("h range must stay positive (singular law)")
    if h_min > h_max or v_min > v_max:
        raise ValueError("empty box")
    h = h_min
    inv2 = 1.0 / (h * h)
    d_h = -2.0 * p.k_v * (v_min - v_max) * inv2 / h + p.k_d
    d_vl = p.k_v * inv2
    d_v = -p.k_v * inv2 - p.k_d * p.tau_s
    return max(math.sqrt(d_h * d_h + d_vl * d_vl + d_v * d_v), p.k)


def gronwall_bound(C_L: float, T: float, init_dist: float) -> float:
    """Divergence bound init_dist * exp(C_L * T); overflow saturates to inf."""
    if C_L < 0.0 or T < 0.0 or init_dist < 0.0:
        raise ValueError("C_L, T, init_dist must be nonnegative")
    if init_dist == 0.0:
        return 0.0
    try:
        return init_dist * math.exp(C_L * T)
    except OverflowError:
        return math.inf

"""Car-following acceleration laws.

Three laws share the leader/follower state convention (x_l, x, v_l, v):

* accel_proposed: min of a singular gap term k_v*(v_l-v)/(x_l-x)^2
  + k_d*(x_l-x - tau_s*v) and a relaxation term k*(u-v). The 1/h^2 factor
  blows up as the gap closes, which is what buys collision freedom.
* accel_cacc: min of a feed-forward spacing law k_a*a_l + k_v*(v_l-v)
  + k_d*(x_l-x - Gamma(v)) and the same relaxation term. No singular term,
  hence no collision guarantee; it stays defined at zero gap on purpose.
* accel_ovfl: optimal-velocity law with a forward-looking relative-speed
  term, k_v*(v_l-v)/(x_l-x)^2 + k_d*(V(x_l-x) - v).

The min is reported together with which operand won, because the branch
switch is an event the integrator must resolve in time.
"""

from __future__ import annotations

import math
from enum import IntEnum

from .core import CaccParams, ModelParams

__all__ = [
    "BranchFlag",
    "TIE_TOLERANCE",
    "accel_proposed",
    "accel_cacc",
    "gamma",
    "optimal_velocity",
    "accel_ovfl",
]

# Two branches closer than this count as a tie.
TIE_TOLERANCE = 1e-12

TANH2 = math.tanh(2.0)


class BranchFlag(IntEnum):
    GAP = 0
    CONTROL = 1
    TIE = 2

    @property
    def label(self) -> str:
        return {BranchFlag.GAP: "gap", BranchFlag.CONTROL: "control", BranchFlag.TIE: "tie"}[self]


def _flag(gap_term: float, control_term: float) -> BranchFlag:
    if abs(gap_term - control_term) <= TIE_TOLERANCE:
        return BranchFlag.TIE
    return BranchFlag.GAP if gap_term < control_term else BranchFlag.CONTROL


def accel_proposed(p: ModelParams, x_l: float, x: float, v_l: float, v: float,
                   u: float) -> tuple[float, BranchFlag]:
    """Min-type law acceleration and the active branch.

    Requires x_l > x; the gap term is singular at zero headway and is never
    evaluated past it.
    """
    h = x_l - x
    if h <= 0.0:
        raise ValueError(f"headway must be positive, got {h!r}")
    gap_term = p.k_v * (v_l - v) / (h * h) + p.k_d * (h - p.tau_s * v)
    control_term = p.k * (u - v)
    return min(gap_term, control_term), _flag(gap_term, control_term)


def gamma(v: float, c: CaccParams) -> float:
    """CACC desired spacing: max of a floor of 2, a braking-distance gap, and tau_s*v."""
    return max(2.0, (1.0 / c.d - 1.0 / c.d_l) * v * v, c.base.tau_s * v)


def accel_cacc(c: CaccParams, x_l: float, x: float, v_l: float, v: float,
               a_l: float, u: float) -> tuple[float, BranchFlag]:
    """CACC baseline acceleration and the active branch.

    Defined for any gap, including zero and negative: the spacing term is
    linear in x_l - x, so a crash shows up as the gap crossing zero rather
    than as a domain error.
    """
    spacing_term = c.k_a * a_l + c.base.k_v * (v_l - v) + c.base.k_d * (x_l - x - gamma(v, c))
    control_term = c.base.k * (u - v)
    return min(spacing_term, control_term), _flag(spacing_term, control_term)


def optimal_velocity(x: float) -> float:
    """OV function tanh(x - 2) + tanh(2): zero at zero gap, saturates near 1 + tanh(2)."""
    return math.tanh(x - 2.0) + TANH2


def accel_ovfl(p: ModelParams, x_l: float, x: float, v_l: float, v: float) -> float:
    """Forward-looking optimal-velocity baseline; uses p.k_v and p.k_d. Requires x_l > x."""
    h = x_l - x
    if h <= 0.0:
        raise ValueError(f"headway must be positive, got {h!r}")
    return p.k_v * (v_l - v) / (h * h) + p.k_d * (optimal_velocity(h) - v)

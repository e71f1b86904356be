"""Textbook forms of the three car-following laws, written by hand.

The package defines each law once, as the template in models._LAWS that
both the integrator's kernels and the public models.accel_* are expanded
from. These hand-written forms are the independent oracle the tests hold
the templates against; without them a test would compare the template with
itself. They take the same arguments as models.accel_* and use min() and
an explicit tie band, not the template's statements.
"""

from platoonsim import TIE_TOLERANCE, BranchFlag, gamma, optimal_velocity


def flag(gap_term, control_term):
    if abs(gap_term - control_term) <= TIE_TOLERANCE:
        return BranchFlag.TIE
    return BranchFlag.GAP if gap_term < control_term else BranchFlag.CONTROL


def accel_proposed(p, x_l, x, v_l, v, u):
    h = x_l - x
    if h <= 0.0:
        raise ValueError(f"headway must be positive, got {h!r}")
    gap_term = p.k_v * (v_l - v) / (h * h) + p.k_d * (h - p.tau_s * v)
    control_term = p.k * (u - v)
    return min(gap_term, control_term), flag(gap_term, control_term)


def accel_cacc(c, x_l, x, v_l, v, a_l, u):
    spacing_term = c.k_a * a_l + c.base.k_v * (v_l - v) + c.base.k_d * (x_l - x - gamma(v, c))
    control_term = c.base.k * (u - v)
    return min(spacing_term, control_term), flag(spacing_term, control_term)


def accel_ovfl(p, x_l, x, v_l, v):
    h = x_l - x
    if h <= 0.0:
        raise ValueError(f"headway must be positive, got {h!r}")
    return p.k_v * (v_l - v) / (h * h) + p.k_d * (optimal_velocity(h) - v)

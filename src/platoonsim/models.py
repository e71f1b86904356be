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

Each law is defined once, as a per-follower template in _LAWS. The
integrator expands the templates into its kernels (deriv, step, march) and
rhs; the public accel_* are the same templates compiled as one scalar
function per law, on first call, so the public forms and the engine agree
float for float. The min is reported together with which operand won,
because the branch switch is an event the integrator must resolve in time.
"""

from __future__ import annotations

import linecache
import math
import re
from collections.abc import Callable
from enum import IntEnum

from .core import CaccParams, ModelKind, ModelParams

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


# The flag of a branch sign s, at index s + 1.
_FLAG_OF_SIGN = (BranchFlag.GAP, BranchFlag.TIE, BranchFlag.CONTROL)


def _signs(phi) -> list[int]:
    """Branch sign of each branch gap g - c: 1 control, -1 gap, 0 tie (within
    TIE_TOLERANCE)."""
    return [(p > TIE_TOLERANCE) - (p < -TIE_TOLERANCE) for p in phi]


class _Singular(Exception):
    """Internal: a singular law was asked for a non-positive headway."""


# Per-follower law bodies: the single definition of each law. A body reads the
# follower's stage state (x, v), its predecessor's (xp, vp), its control u
# and, under CACC, the predecessor's acceleration ap, with the gains kv, kd,
# kk, ts and, under CACC, ka and gdd = 1/d - 1/d_l. It sets the headway hh
# and the acceleration a, and a min-type body also sets the two operands of
# the min, g (gap or spacing term) and c (control term). A singular body
# raises _Singular(i), i being the follower.
_LAWS = {
    ModelKind.PROPOSED: """\
hh = xp - x
if hh <= 0.0: raise _Singular(i)
g = kv * (vp - v) / (hh * hh) + kd * (hh - ts * v)
c = kk * (u - v)
a = g if g < c else c
""",
    ModelKind.CACC: """\
hh = xp - x
gam = ts * v
q = gdd * v * v
if q > gam:
    gam = q
if gam < 2.0:
    gam = 2.0
g = ka * ap + kv * (vp - v) + kd * (hh - gam)
c = kk * (u - v)
a = g if g < c else c
""",
    ModelKind.OVFL: """\
hh = xp - x
if hh <= 0.0: raise _Singular(i)
a = kv * (vp - v) / (hh * hh) + kd * (tanh(hh - 2.0) + TANH2 - v)
""",
}


def _uses(body: str, name: str) -> bool:
    return re.search(rf"\b{name}\b", body) is not None


# The scalar form of each law, compiled on first call so that importing the
# package compiles nothing.
_SCALAR_LAWS: dict[ModelKind, Callable] = {}


def _law(kind: ModelKind) -> Callable:
    """law(kv, kd, kk, ts, ka, gdd, xp, vp, ap, x, v, u): the template of kind
    as one function of a single follower (i = 1). It returns a and the branch
    gap g - c, or a alone for a law without a min."""
    if kind not in _SCALAR_LAWS:
        body = _LAWS[kind]
        ret = "a, g - c" if _uses(body, "g") else "a"
        src = ("def law(kv, kd, kk, ts, ka, gdd, xp, vp, ap, x, v, u):\n"
               + "".join(f"    {line}\n" for line in body.splitlines()) + f"    return {ret}\n")
        filename = f"<platoonsim law: {kind.value}>"
        linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
        ns = {"i": 1, "tanh": math.tanh, "TANH2": TANH2, "_Singular": _Singular}
        exec(compile(src, filename, "exec"), ns)
        _SCALAR_LAWS[kind] = ns["law"]
    return _SCALAR_LAWS[kind]


def _evaluate(kind: ModelKind, p: ModelParams, ka: float, gdd: float, x_l: float, x: float,
              v_l: float, v: float, a_l: float, u: float):
    """The law's result at one pair, a non-positive headway of a singular law
    raising ValueError."""
    try:
        return _law(kind)(p.k_v, p.k_d, p.k, p.tau_s, ka, gdd, x_l, v_l, a_l, x, v, u)
    except _Singular:
        raise ValueError(f"headway must be positive, got {x_l - x!r}") from None


def _with_flag(result: tuple[float, float]) -> tuple[float, BranchFlag]:
    a, gap = result
    return a, _FLAG_OF_SIGN[_signs((gap,))[0] + 1]


def accel_proposed(p: ModelParams, x_l: float, x: float, v_l: float, v: float,
                   u: float) -> tuple[float, BranchFlag]:
    """Min-type law acceleration and the active branch.

    Requires x_l > x; the gap term is singular at zero headway and is never
    evaluated past it.
    """
    return _with_flag(_evaluate(ModelKind.PROPOSED, p, 0.0, 0.0, x_l, x, v_l, v, 0.0, u))


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
    gdd = 1.0 / c.d - 1.0 / c.d_l
    return _with_flag(_evaluate(ModelKind.CACC, c.base, c.k_a, gdd, x_l, x, v_l, v, a_l, u))


def optimal_velocity(x: float) -> float:
    """OV function tanh(x - 2) + tanh(2): zero at zero gap, saturates near 1 + tanh(2)."""
    return math.tanh(x - 2.0) + TANH2


def accel_ovfl(p: ModelParams, x_l: float, x: float, v_l: float, v: float) -> float:
    """Forward-looking optimal-velocity baseline; uses p.k_v and p.k_d. Requires x_l > x."""
    return _evaluate(ModelKind.OVFL, p, 0.0, 0.0, x_l, x, v_l, v, 0.0, 0.0)

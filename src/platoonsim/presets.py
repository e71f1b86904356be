"""Named preset scenarios, stored in the same config format users write.

Every preset is rendered from one template, _preset, and shares one
parameter set (k_v=1, k_d=0.2, k=0.3, tau_s=1.4, u=1.9, speed cap 2,
dt=0.01). The fig1 family (leader cruising at 1 with zero acceleration,
T=100) differs in the initial pair state and the model.
The left start (5, 0, 1, 0) is a wide gap with a standing follower; the
right start (0.1, 0, 1, 1.485) is a near-collision tailgate. The remaining
presets cover the close-initial-conditions pairs, the envelope
certification run, the perturbation study, exact equilibria, a switch-free
start used for order measurements, and a sweep grid.

The perturbation preset's shape g is a project stand-in (rising ramp plus
a slow sine, with a downward step halfway), L1-normalized on [0, T]; the
original experiment's shape is not public, so only the convergence
behavior is comparable, not the distances themselves.
"""

from __future__ import annotations

import math
from functools import cache

from .scenario_io import ParsedConfig, parse_config

__all__ = ["PRESET_NAMES", "preset_text", "load_preset"]

# Equilibrium gap of the min-type law and the CACC baseline at u = 1.9
# (gap-branch zero: h = tau_s * u; CACC spacing zero: Gamma(1.9) with d = d_l
# gives max{2, 1.4 * 1.9}, the same number).
_EQ_GAP = 1.4 * 1.9
# Forward-looking baseline rests where the optimal velocity matches u.
_OVFL_EQ_GAP = 2.0 + math.atanh(1.9 - math.tanh(2.0))


def _preset(positions: str, velocities: str, model: str = "proposed", T: int = 100,
            v0: float = 1.0, profile: str = "const 0.0", extra: str = "") -> str:
    """A preset's config text: the fig1 parameter set, a constant control
    u = 1.9 and dt = 0.01 over [0, T], and the extra sections, if any."""
    return f"""\
[params]
model_kind = {model}
k_v = 1.0
k_d = 0.2
k = 0.3
tau_s = 1.4
v_bar = 2.0
u_min = 0.1
u_max = 1.95
T = {float(T)!r}

[initial]
positions = {positions}
velocities = {velocities}

[leader]
v0 = {v0!r}
profile = 0 {T} {profile}

[controls]
u = 0 {T} const 1.9

[stepper]
dt = 0.01
""" + extra


_FIG1_STARTS = {"left": ("5, 0", "1, 0"), "right": ("0.1, 0", "1, 1.485")}


def _fig3(which: str, delta: float) -> str:
    if which == "a":
        return _preset(f"5, {delta!r}", f"1, {delta!r}")
    return _preset(f"{5.0 + delta!r}, 0", f"{1.0 + delta!r}, 0", v0=1.0 + delta)


def _equilibrium(model: str, gap: float) -> str:
    return _preset(f"{2.0 * gap!r}, {gap!r}, 0", "1.9, 1.9, 1.9", model, v0=1.9)


# Perturbation shape before normalization: 0.05 sin(t/2) + 0.02 t/T, with a
# -0.02 step after T/2. Slope and phase continue across the step.
_FIG5_PERTURBATION = f"""
[perturbation]
g = 0 30 wave 0.0 {0.02 / 60.0!r} 0.05 0.5 0.0
    30 60 wave -0.01 {0.02 / 60.0!r} 0.05 0.5 15.0
eps = 1, 0.5, 0.1, 0.05, 0.01
strict = false
normalize = true
"""

_SWEEP = """
[sweep]
n = 2, 4, 8
headways = 0.1, 0.25, 0.5, 1, 2, 3, 5
velocities = 0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8
"""

_PRESETS: dict[str, str] = {
    **{f"fig1_{side}{suffix}": _preset(*start, model)
       for side, start in _FIG1_STARTS.items()
       for model, suffix in (("proposed", ""), ("cacc", "_cacc"), ("ovfl", "_ovfl"))},
    **{f"fig3{which}_{tag}": _fig3(which, delta)
       for which in "ab" for tag, delta in (("0", 0.0), ("005", 0.05), ("01", 0.1))},
    "fig4": _preset("1, 0", "0.1, 0.5", T=10, v0=0.1),
    "fig5": _preset("2.05, 0", "1.4, 1.3", T=60, v0=1.4, extra=_FIG5_PERTURBATION),
    "equilibrium": _equilibrium("proposed", _EQ_GAP),
    "equilibrium_cacc": _equilibrium("cacc", _EQ_GAP),
    "equilibrium_ovfl": _equilibrium("ovfl", _OVFL_EQ_GAP),
    # Convergence-order scenario: the forward-looking law has no branch
    # surface, so every run is switch-free by construction, and the sinusoidal
    # lead acceleration keeps the truncation error well above roundoff at fine
    # steps. Start is offset from the resting gap for the initial lead speed.
    "order_check": _preset("2.2, 0", "1.2, 1.0", "ovfl", T=10, v0=1.2,
                           profile="wave 0.0 0.0 0.45 3.0 0.0"),
    "sweep_demo": _preset("5, 0", "1, 0", extra=_SWEEP),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_text(name: str) -> str:
    """The preset's config file content."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None


@cache
def load_preset(name: str) -> ParsedConfig:
    """The preset's parse, one per name per process: it is frozen and shared,
    so derive a changed copy with dataclasses.replace."""
    return parse_config(preset_text(name))

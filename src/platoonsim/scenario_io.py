"""Scenario configuration files: flat INI with strict key checking.

Sections and keys:

[params]    model_kind, k_v, k_d, k, tau_s, v_bar, u_min, u_max, T
            (cacc only, optional: k_a, d, d_l, each 1.0 by default)
[initial]   positions, velocities  (comma lists, front vehicle first)
[leader]    v0, profile
[controls]  u  (every follower)  -- or u_1, u_2, ... per follower
[stepper]   dt, switch_tol  (optional: 0.01 and 1e-9 * T by default)
[perturbation]  g, eps, strict, normalize  (optional section; strict is
            true and normalize false by default)
[sweep]     n, headways, velocities, plus any [params] gain as a list
            (optional section)

The gain and CACC keys are the fields of ModelParams and CaccParams, in
field order, and an absent optional key keeps its dataclass default.

A profile value is one or more segment clauses separated by '|' or
newlines. Clauses:

    <t0> <t1> const <value>
    <t0> <t1> ramp <start> <end>
    <t0> <t1> sin <offset> <amplitude> <omega> <phase>
    <t0> <t1> wave <const> <slope> <amplitude> <omega> <phase>
    table <t>:<value> <t>:<value> ...

sin evaluates offset + amplitude*sin(omega*(t - t0) + phase); wave adds a
slope*(t - t0) ramp on top.

Unknown sections or keys are errors, as are malformed numbers and
non-finite numbers in a profile. Physical validity (positive gains,
headways, span coverage) is judged separately by validate_scenario, so a
file can parse cleanly and still be rejected with diagnostics.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .core import (
    CaccParams,
    LeaderProfile,
    ModelKind,
    ModelParams,
    PlatoonState,
    Scenario,
    StepperConfig,
    VehicleState,
)
from .profiles import PiecewiseProfile, Segment, profile_from_table

__all__ = [
    "ConfigError",
    "PerturbStudyConfig",
    "SweepConfig",
    "ParsedConfig",
    "parse_profile",
    "profile_to_text",
    "parse_config",
    "load_config",
    "scenario_to_manifest",
    "profile_segments_dict",
]

_GAIN_KEYS = tuple(f.name for f in fields(ModelParams))
_CACC_KEYS = tuple(f.name for f in fields(CaccParams))[1:]  # the fields after base
SWEEP_N_CAP = 64


class ConfigError(ValueError):
    """A scenario file that cannot be interpreted at all."""


@dataclass(frozen=True)
class PerturbStudyConfig:
    """Parsed [perturbation] section: shape, scales, admissibility mode."""

    g: PiecewiseProfile
    eps: tuple[float, ...]
    strict: bool = True
    normalize: bool = False

    def resolved_g(self, T: float) -> PiecewiseProfile:
        """The shape actually used: L1-normalized on [0, T] when requested.

        l1_norm is an upper bound, so the normalized shape's norm is at most
        1 up to rounding.
        """
        if not self.normalize:
            return self.g
        norm = self.g.l1_norm(0.0, T)
        if norm <= 0.0:
            raise ConfigError("cannot normalize a zero-norm perturbation shape")
        return self.g.scaled(1.0 / norm)


@dataclass(frozen=True)
class SweepConfig:
    """Parsed [sweep] section: grid axes over a base scenario."""

    n: tuple[int, ...]
    headways: tuple[float, ...]
    velocities: tuple[float, ...]
    param_grids: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def size(self) -> int:
        total = len(self.n) * len(self.headways) * len(self.velocities)
        for vals in self.param_grids.values():
            total *= len(vals)
        return total


@dataclass(frozen=True)
class ParsedConfig:
    scenario: Scenario
    perturbation: PerturbStudyConfig | None = None
    sweep: SweepConfig | None = None


def _number(section: str, key: str, text: str, parse=float):
    """text read by parse, float or int."""
    try:
        return parse(text)
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise ConfigError(f"[{section}] {key}: not {what}: {text!r}") from None


def _list(section: str, key: str, text: str, parse=float) -> tuple:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(_number(section, key, p, parse) for p in items)


def _floats(section: str, sec, keys) -> dict[str, float]:
    """Those of keys that sec holds, read in the order of keys."""
    return {key: _number(section, key, sec[key]) for key in keys if key in sec}


def _bool(section: str, key: str, text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {text!r}")


def _refuse_non_finite(where: str, clause: str, numbers) -> None:
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{where}: non-finite number in clause {clause!r}")


def parse_profile(text: str, where: str = "profile") -> PiecewiseProfile:
    """Parse the segment-clause grammar into a piecewise profile."""
    clauses = [c.strip() for part in text.splitlines() for c in part.split("|")]
    clauses = [c for c in clauses if c]
    if not clauses:
        raise ConfigError(f"{where}: no segments")
    segments: list[Segment] = []
    for clause in clauses:
        tokens = clause.split()
        if tokens[0] == "table":
            knots = []
            for tok in tokens[1:]:
                if ":" not in tok:
                    raise ConfigError(f"{where}: table knot {tok!r} is not t:value")
                ts, vs = tok.split(":", 1)
                knots.append((_number(where, "table", ts), _number(where, "table", vs)))
            _refuse_non_finite(where, clause, [x for knot in knots for x in knot])
            try:
                segments.extend(profile_from_table(knots).segments)
            except ValueError as e:
                raise ConfigError(f"{where}: {e}") from None
            continue
        if len(tokens) < 3:
            raise ConfigError(f"{where}: malformed clause {clause!r}")
        t0 = _number(where, "t0", tokens[0])
        t1 = _number(where, "t1", tokens[1])
        kind = tokens[2]
        args = [_number(where, kind, a) for a in tokens[3:]]
        _refuse_non_finite(where, clause, (t0, t1, *args))
        if kind == "const":
            if len(args) != 1:
                raise ConfigError(f"{where}: const needs 1 value, got {len(args)}")
            segments.append(Segment(t0, t1, const=args[0]))
        elif kind == "ramp":
            if len(args) != 2:
                raise ConfigError(f"{where}: ramp needs start and end, got {len(args)}")
            if t1 <= t0:
                raise ConfigError(f"{where}: ramp needs t1 > t0")
            segments.append(Segment(t0, t1, const=args[0], slope=(args[1] - args[0]) / (t1 - t0)))
        elif kind == "sin":
            if len(args) != 4:
                raise ConfigError(f"{where}: sin needs offset amp omega phase, got {len(args)}")
            segments.append(Segment(t0, t1, const=args[0], sines=((args[1], args[2], args[3]),)))
        elif kind == "wave":
            if len(args) != 5:
                raise ConfigError(
                    f"{where}: wave needs const slope amp omega phase, got {len(args)}")
            segments.append(Segment(t0, t1, const=args[0], slope=args[1],
                                    sines=((args[2], args[3], args[4]),)))
        else:
            raise ConfigError(f"{where}: unknown segment kind {kind!r}")
    try:
        return PiecewiseProfile(tuple(segments))
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def profile_to_text(p: PiecewiseProfile) -> str:
    """Render a profile back into the clause grammar (one clause per segment)."""
    clauses = []
    for seg in p.segments:
        if seg.sines:
            if len(seg.sines) != 1:
                raise ValueError("cannot render a segment with stacked sine terms")
            amp, om, ph = seg.sines[0]
            if seg.slope == 0.0:
                clauses.append(f"{seg.t0!r} {seg.t1!r} sin {seg.const!r} {amp!r} {om!r} {ph!r}")
            else:
                clauses.append(f"{seg.t0!r} {seg.t1!r} wave {seg.const!r} {seg.slope!r} "
                               f"{amp!r} {om!r} {ph!r}")
        elif seg.slope != 0.0:
            end = seg.const + seg.slope * (seg.t1 - seg.t0)
            clauses.append(f"{seg.t0!r} {seg.t1!r} ramp {seg.const!r} {end!r}")
        else:
            clauses.append(f"{seg.t0!r} {seg.t1!r} const {seg.const!r}")
    return " | ".join(clauses)


def _section(cp, name: str, required, optional=()):
    """cp's section name, after refusing its unknown keys, then its missing ones."""
    sec = cp[name]
    allowed = {*required, *optional}
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"[{name}] unknown key: {key}")
    for key in required:
        if key not in sec:
            raise ConfigError(f"[{name}] missing key: {key}")
    return sec


def parse_config(text: str) -> ParsedConfig:
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    known_sections = {"params", "initial", "leader", "controls", "stepper",
                      "perturbation", "sweep"}
    for sec in cp.sections():
        if sec not in known_sections:
            raise ConfigError(f"unknown section: [{sec}]")
    for required in ("params", "initial", "leader", "controls"):
        if not cp.has_section(required):
            raise ConfigError(f"missing section: [{required}]")

    # [params]
    kind_text = cp["params"].get("model_kind", "").strip().lower()
    try:
        kind = ModelKind(kind_text)
    except ValueError:
        raise ConfigError(f"[params] model_kind must be proposed|cacc|ovfl, got {kind_text!r}") from None
    cacc = kind is ModelKind.CACC
    psec = _section(cp, "params", ("model_kind", *_GAIN_KEYS, "T"), _CACC_KEYS if cacc else ())
    params = ModelParams(**_floats("params", psec, _GAIN_KEYS))
    horizon = _number("params", "T", psec["T"])
    if cacc:
        params = CaccParams(params, **_floats("params", psec, _CACC_KEYS))

    # [initial]
    isec = _section(cp, "initial", ("positions", "velocities"))
    xs = _list("initial", "positions", isec["positions"])
    vs = _list("initial", "velocities", isec["velocities"])
    if len(xs) != len(vs):
        raise ConfigError(
            f"[initial] {len(xs)} positions vs {len(vs)} velocities")
    initial = PlatoonState(tuple(VehicleState(x, v) for x, v in zip(xs, vs)))

    # [leader]
    lsec = _section(cp, "leader", ("v0", "profile"))
    leader = LeaderProfile(parse_profile(lsec["profile"], "[leader] profile"),
                           _number("leader", "v0", lsec["v0"]))

    # [controls]: u for every follower, or u_1, u_2, ... one each
    csec = cp["controls"]
    for key in csec:
        if key != "u" and not (key[:2] == "u_" and key[2:].isdigit() and int(key[2:]) >= 1):
            raise ConfigError(f"[controls] unknown key: {key}")
    n_followers = max(len(xs) - 1, 0)
    if "u" in csec:
        extra = [k for k in csec.keys() if k != "u"]
        if extra:
            raise ConfigError(f"[controls] u excludes per-follower keys: {extra}")
        shared = parse_profile(csec["u"], "[controls] u")
        controls = tuple(shared for _ in range(n_followers))
    else:
        controls = []
        for i in range(1, n_followers + 1):
            key = f"u_{i}"
            if key not in csec:
                raise ConfigError(f"[controls] missing key: {key}")
            controls.append(parse_profile(csec[key], f"[controls] {key}"))
        extra = set(csec.keys()) - {f"u_{i}" for i in range(1, n_followers + 1)}
        if extra:
            raise ConfigError(f"[controls] keys beyond follower count: {sorted(extra)}")
        controls = tuple(controls)

    # [stepper]: guard_tol is a StepperConfig field but no config key
    ssec = _section(cp, "stepper", (), ("dt", "switch_tol")) if cp.has_section("stepper") else {}
    stepper = StepperConfig(**_floats("stepper", ssec, ("dt", "switch_tol")))

    scenario = Scenario(params=params, model_kind=kind, initial=initial,
                        leader=leader, controls=controls, horizon=horizon,
                        stepper=stepper)

    perturbation = None
    if cp.has_section("perturbation"):
        qsec = _section(cp, "perturbation", ("g", "eps"), ("strict", "normalize"))
        perturbation = PerturbStudyConfig(
            g=parse_profile(qsec["g"], "[perturbation] g"),
            eps=_list("perturbation", "eps", qsec["eps"]),
            **{key: _bool("perturbation", key, qsec[key])
               for key in ("strict", "normalize") if key in qsec})
        for e in perturbation.eps:
            if not 0.0 <= e < math.inf:
                raise ConfigError(
                    f"[perturbation] eps values must be nonnegative and finite, got {e!r}")

    sweep = None
    if cp.has_section("sweep"):
        wsec = _section(cp, "sweep", ("n", "headways", "velocities"), _GAIN_KEYS)
        n_values = _list("sweep", "n", wsec["n"], int)
        for n in n_values:
            if not 2 <= n <= SWEEP_N_CAP:
                raise ConfigError(f"[sweep] n must be in [2, {SWEEP_N_CAP}], got {n}")
        # The gain grids are read before the axes: which error wins is pinned.
        grids = {key: _list("sweep", key, wsec[key]) for key in _GAIN_KEYS if key in wsec}
        sweep = SweepConfig(
            n=n_values,
            headways=_list("sweep", "headways", wsec["headways"]),
            velocities=_list("sweep", "velocities", wsec["velocities"]),
            param_grids=grids,
        )

    return ParsedConfig(scenario=scenario, perturbation=perturbation, sweep=sweep)


def load_config(path) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)


def profile_segments_dict(p: PiecewiseProfile) -> list[dict]:
    """Profile as JSON-ready segment records (used by run manifests)."""
    return [
        {"t0": seg.t0, "t1": seg.t1, "const": seg.const, "slope": seg.slope,
         "sines": [list(s) for s in seg.sines]}
        for seg in p.segments
    ]


def scenario_to_manifest(s: Scenario) -> dict:
    """Fully resolved scenario as plain JSON-ready data."""
    base = s.base_params
    out = {
        "model_kind": s.model_kind.value,
        "params": {key: getattr(base, key) for key in _GAIN_KEYS},
        "initial": {
            "positions": [veh.x for veh in s.initial.vehicles],
            "velocities": [veh.v for veh in s.initial.vehicles],
        },
        "leader": {"v0": s.leader.v0, "profile": profile_segments_dict(s.leader.accel)},
        "controls": [profile_segments_dict(u) for u in s.controls],
        "horizon": s.horizon,
        "stepper": {"dt": s.stepper.dt, "switch_tol": s.switch_tol,
                    "guard_tol": s.stepper.guard_tol},
    }
    if isinstance(s.params, CaccParams):
        out["cacc"] = {key: getattr(s.params, key) for key in _CACC_KEYS}
    return out

"""Scenario configuration files: flat INI with strict key checking.

Sections and keys:

[params]    model_kind, k_v, k_d, k, tau_s, v_bar, u_min, u_max, T
            (cacc only, optional: k_a, d, d_l)
[initial]   positions, velocities  (comma lists, front vehicle first)
[leader]    v0, profile
[controls]  u  (every follower)  -- or u_1, u_2, ... per follower
[stepper]   dt, switch_tol  (both optional)
[perturbation]  g, eps, strict, normalize  (optional section)
[sweep]     n, headways, velocities, plus any [params] gain as a list
            (optional section)

A profile value is one or more segment clauses separated by '|' or
newlines. Clauses:

    <t0> <t1> const <value>
    <t0> <t1> ramp <start> <end>
    <t0> <t1> sin <offset> <amplitude> <omega> <phase>
    <t0> <t1> wave <const> <slope> <amplitude> <omega> <phase>
    table <t>:<value> <t>:<value> ...

sin evaluates offset + amplitude*sin(omega*(t - t0) + phase); wave adds a
slope*(t - t0) ramp on top.

Unknown sections or keys are errors, as are malformed numbers. Physical
validity (positive gains, headways, span coverage) is judged separately by
validate_scenario, so a file can parse cleanly and still be rejected with
diagnostics.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

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

_PARAM_KEYS = ("model_kind", "k_v", "k_d", "k", "tau_s", "v_bar", "u_min", "u_max", "T")
_CACC_KEYS = ("k_a", "d", "d_l")
_SWEEP_GRID_KEYS = ("k_v", "k_d", "k", "tau_s", "v_bar", "u_min", "u_max")
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


def _float(section: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {text!r}") from None


def _float_list(section: str, key: str, text: str) -> tuple[float, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(_float(section, key, p) for p in items)


def _int_list(section: str, key: str, text: str) -> tuple[int, ...]:
    out = []
    for p in text.split(","):
        p = p.strip()
        if not p:
            continue
        try:
            out.append(int(p))
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer: {p!r}") from None
    if not out:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(out)


def _bool(section: str, key: str, text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: not a boolean: {text!r}")


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
                knots.append((_float(where, "table", ts), _float(where, "table", vs)))
            try:
                segments.extend(profile_from_table(knots).segments)
            except ValueError as e:
                raise ConfigError(f"{where}: {e}") from None
            continue
        if len(tokens) < 3:
            raise ConfigError(f"{where}: malformed clause {clause!r}")
        t0 = _float(where, "t0", tokens[0])
        t1 = _float(where, "t1", tokens[1])
        kind = tokens[2]
        args = [_float(where, kind, a) for a in tokens[3:]]
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


def _check_keys(section: str, present, allowed, pattern_prefix: str | None = None):
    for key in present:
        if key in allowed:
            continue
        if pattern_prefix is not None and key.startswith(pattern_prefix):
            suffix = key[len(pattern_prefix):]
            if suffix.isdigit() and int(suffix) >= 1:
                continue
        raise ConfigError(f"[{section}] unknown key: {key}")


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
    psec = cp["params"]
    kind_text = psec.get("model_kind", "").strip().lower()
    try:
        kind = ModelKind(kind_text)
    except ValueError:
        raise ConfigError(f"[params] model_kind must be proposed|cacc|ovfl, got {kind_text!r}") from None
    allowed = set(_PARAM_KEYS) | (set(_CACC_KEYS) if kind is ModelKind.CACC else set())
    _check_keys("params", psec.keys(), allowed)
    for key in ("model_kind", "k_v", "k_d", "k", "tau_s", "v_bar", "u_min", "u_max", "T"):
        if key not in psec:
            raise ConfigError(f"[params] missing key: {key}")
    base = ModelParams(
        k_v=_float("params", "k_v", psec["k_v"]),
        k_d=_float("params", "k_d", psec["k_d"]),
        k=_float("params", "k", psec["k"]),
        tau_s=_float("params", "tau_s", psec["tau_s"]),
        v_bar=_float("params", "v_bar", psec["v_bar"]),
        u_min=_float("params", "u_min", psec["u_min"]),
        u_max=_float("params", "u_max", psec["u_max"]),
    )
    horizon = _float("params", "T", psec["T"])
    if kind is ModelKind.CACC:
        params = CaccParams(
            base,
            k_a=_float("params", "k_a", psec.get("k_a", "1.0")),
            d=_float("params", "d", psec.get("d", "1.0")),
            d_l=_float("params", "d_l", psec.get("d_l", "1.0")),
        )
    else:
        params = base

    # [initial]
    isec = cp["initial"]
    _check_keys("initial", isec.keys(), {"positions", "velocities"})
    for key in ("positions", "velocities"):
        if key not in isec:
            raise ConfigError(f"[initial] missing key: {key}")
    xs = _float_list("initial", "positions", isec["positions"])
    vs = _float_list("initial", "velocities", isec["velocities"])
    if len(xs) != len(vs):
        raise ConfigError(
            f"[initial] {len(xs)} positions vs {len(vs)} velocities")
    initial = PlatoonState(tuple(VehicleState(x, v) for x, v in zip(xs, vs)))

    # [leader]
    lsec = cp["leader"]
    _check_keys("leader", lsec.keys(), {"v0", "profile"})
    for key in ("v0", "profile"):
        if key not in lsec:
            raise ConfigError(f"[leader] missing key: {key}")
    leader = LeaderProfile(parse_profile(lsec["profile"], "[leader] profile"),
                           _float("leader", "v0", lsec["v0"]))

    # [controls]
    csec = cp["controls"]
    _check_keys("controls", csec.keys(), {"u"}, pattern_prefix="u_")
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

    # [stepper]
    dt = 1e-2
    switch_tol = None
    if cp.has_section("stepper"):
        ssec = cp["stepper"]
        _check_keys("stepper", ssec.keys(), {"dt", "switch_tol"})
        if "dt" in ssec:
            dt = _float("stepper", "dt", ssec["dt"])
        if "switch_tol" in ssec:
            switch_tol = _float("stepper", "switch_tol", ssec["switch_tol"])
    stepper = StepperConfig(dt=dt, switch_tol=switch_tol)

    scenario = Scenario(params=params, model_kind=kind, initial=initial,
                        leader=leader, controls=controls, horizon=horizon,
                        stepper=stepper)

    perturbation = None
    if cp.has_section("perturbation"):
        qsec = cp["perturbation"]
        _check_keys("perturbation", qsec.keys(), {"g", "eps", "strict", "normalize"})
        for key in ("g", "eps"):
            if key not in qsec:
                raise ConfigError(f"[perturbation] missing key: {key}")
        perturbation = PerturbStudyConfig(
            g=parse_profile(qsec["g"], "[perturbation] g"),
            eps=_float_list("perturbation", "eps", qsec["eps"]),
            strict=_bool("perturbation", "strict", qsec.get("strict", "true")),
            normalize=_bool("perturbation", "normalize", qsec.get("normalize", "false")),
        )
        for e in perturbation.eps:
            if e < 0.0:
                raise ConfigError(f"[perturbation] eps values must be nonnegative, got {e!r}")

    sweep = None
    if cp.has_section("sweep"):
        wsec = cp["sweep"]
        _check_keys("sweep", wsec.keys(), {"n", "headways", "velocities", *_SWEEP_GRID_KEYS})
        for key in ("n", "headways", "velocities"):
            if key not in wsec:
                raise ConfigError(f"[sweep] missing key: {key}")
        n_values = _int_list("sweep", "n", wsec["n"])
        for n in n_values:
            if not 2 <= n <= SWEEP_N_CAP:
                raise ConfigError(f"[sweep] n must be in [2, {SWEEP_N_CAP}], got {n}")
        grids = {}
        for key in _SWEEP_GRID_KEYS:
            if key in wsec:
                grids[key] = _float_list("sweep", key, wsec[key])
        sweep = SweepConfig(
            n=n_values,
            headways=_float_list("sweep", "headways", wsec["headways"]),
            velocities=_float_list("sweep", "velocities", wsec["velocities"]),
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
        "params": {
            "k_v": base.k_v, "k_d": base.k_d, "k": base.k, "tau_s": base.tau_s,
            "v_bar": base.v_bar, "u_min": base.u_min, "u_max": base.u_max,
        },
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
        out["cacc"] = {"k_a": s.params.k_a, "d": s.params.d, "d_l": s.params.d_l}
    return out

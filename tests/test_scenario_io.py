"""Config parsing, the profile clause grammar, and run manifests."""

import hashlib
import math
import re
from pathlib import Path

import pytest

from platoonsim import (
    CaccParams,
    ConfigError,
    ModelKind,
    PRESET_NAMES,
    load_config,
    load_preset,
    parse_config,
    parse_profile,
    preset_text,
    profile_to_text,
    scenario_to_manifest,
    simulate,
    validate_scenario,
)
from platoonsim.profiles import PiecewiseProfile, Segment

BASE = """\
[params]
model_kind = proposed
k_v = 1.0
k_d = 0.2
k = 0.3
tau_s = 1.4
v_bar = 2.0
u_min = 0.1
u_max = 1.95
T = 100.0

[initial]
positions = 5, 0
velocities = 1, 0

[leader]
v0 = 1.0
profile = 0 100 const 0.0

[controls]
u = 0 100 const 1.9
"""


def swap(key_line, new_line, text=BASE):
    assert key_line in text
    return text.replace(key_line, new_line)


class TestParseProfile:
    def test_const_clause(self):
        p = parse_profile("0 10 const 1.5")
        assert p.value(3.0) == 1.5
        assert p.start == 0.0 and p.end == 10.0

    def test_ramp_clause(self):
        p = parse_profile("0 4 ramp 1 3")
        assert p.value(0.0) == pytest.approx(1.0)
        assert p.value(2.0) == pytest.approx(2.0)
        assert p.value(4.0) == pytest.approx(3.0)

    def test_sin_clause(self):
        p = parse_profile("2 12 sin 0.5 0.1 3.0 0.25")
        t = 5.0
        assert p.value(t) == pytest.approx(0.5 + 0.1 * math.sin(3.0 * (t - 2.0) + 0.25))

    def test_wave_clause(self):
        p = parse_profile("0 10 wave 0.2 0.05 0.1 2.0 1.0")
        t = 4.0
        want = 0.2 + 0.05 * t + 0.1 * math.sin(2.0 * t + 1.0)
        assert p.value(t) == pytest.approx(want)

    def test_table_clause(self):
        p = parse_profile("table 0:0 2:1 4:0")
        assert p.value(1.0) == pytest.approx(0.5)
        assert p.value(3.0) == pytest.approx(0.5)
        assert p.value(4.0) == pytest.approx(0.0)

    def test_multi_clause_pipe_and_newline(self):
        a = parse_profile("0 5 const 1 | 5 10 const 2")
        b = parse_profile("0 5 const 1\n5 10 const 2")
        for t in (0.0, 4.9, 5.0, 9.0):
            assert a.value(t) == b.value(t)

    @pytest.mark.parametrize("bad", [
        "",
        "0 10 const",           # missing value
        "0 10 const 1 2",       # too many values
        "0 10 ramp 1",          # ramp needs two
        "10 0 ramp 1 2",        # reversed span
        "0 10 sin 1 2 3",       # sin needs four
        "0 10 wave 1 2 3 4",    # wave needs five
        "0 10 spline 1 2",      # unknown kind
        "0 x const 1",          # bad number
        "table 0:0",            # single knot
        "table 0:0 1-2",        # malformed knot
        "0 5 const 1 | 6 10 const 2",  # gap between segments
    ])
    def test_malformed_clause(self, bad):
        with pytest.raises(ConfigError):
            parse_profile(bad)

    @pytest.mark.parametrize("text, clause", [
        ("0 inf const 0.0",) * 2,           # a time
        ("nan 10 const 0.0",) * 2,
        ("0 10 sin 0 0.01 inf 0",) * 2,     # an omega
        ("0 10 wave 0 0 0.01 nan 0",) * 2,
        ("0 10 ramp -inf 0",) * 2,          # a coefficient
        ("table 0:0 inf:1",) * 2,           # a table knot
        ("table 0:0 5:nan",) * 2,
        ("0 5 const 1 | 5 inf const 2", "5 inf const 2"),  # the clause, not the profile
    ])
    def test_non_finite_number_refused(self, text, clause):
        with pytest.raises(ConfigError) as err:
            parse_profile(text, "[leader] profile")
        assert str(err.value) == f"[leader] profile: non-finite number in clause {clause!r}"


class TestProfileToText:
    @pytest.mark.parametrize("text", [
        "0 10 const 1.5",
        "0 4 ramp 1 3",
        "2 12 sin 0.5 0.1 3.0 0.25",
        "0 10 wave 0.2 0.05 0.1 2.0 1.0",
        "0 5 const 1 | 5 10 ramp 1 0",
    ])
    def test_roundtrip(self, text):
        p = parse_profile(text)
        q = parse_profile(profile_to_text(p))
        for i in range(51):
            t = p.start + (p.end - p.start) * i / 50
            assert q.value(t) == pytest.approx(p.value(t), abs=1e-12)

    def test_stacked_sines_cannot_render(self):
        seg = Segment(0.0, 1.0, const=0.0, sines=((1.0, 1.0, 0.0), (0.5, 2.0, 0.0)))
        with pytest.raises(ValueError, match="stacked"):
            profile_to_text(PiecewiseProfile((seg,)))


class TestParseConfig:
    def test_base_parses_and_validates(self):
        cfg = parse_config(BASE)
        assert cfg.scenario.model_kind is ModelKind.PROPOSED
        assert cfg.scenario.horizon == 100.0
        assert cfg.perturbation is None and cfg.sweep is None
        assert validate_scenario(cfg.scenario) == []

    def test_param_values_land(self):
        s = parse_config(BASE).scenario
        assert (s.params.k_v, s.params.k_d, s.params.k) == (1.0, 0.2, 0.3)
        assert (s.params.tau_s, s.params.v_bar) == (1.4, 2.0)
        assert (s.params.u_min, s.params.u_max) == (0.1, 1.95)

    def test_default_stepper(self):
        s = parse_config(BASE).scenario
        assert s.stepper.dt == 1e-2
        assert s.stepper.switch_tol is None
        assert s.switch_tol == pytest.approx(1e-9 * 100.0)

    def test_explicit_stepper(self):
        cfg = parse_config(BASE + "\n[stepper]\ndt = 0.05\nswitch_tol = 1e-6\n")
        assert cfg.scenario.stepper.dt == 0.05
        assert cfg.scenario.switch_tol == 1e-6

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE + "\n[physics]\ng = 9.81\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BASE + "\n[stepper]\nstep = 0.1\n")

    def test_missing_section(self):
        text = BASE.replace("[controls]\nu = 0 100 const 1.9\n", "")
        with pytest.raises(ConfigError, match=r"missing section: \[controls\]"):
            parse_config(text)

    def test_missing_param_key(self):
        with pytest.raises(ConfigError, match="missing key: T"):
            parse_config(swap("T = 100.0\n", ""))

    def test_bad_model_kind(self):
        with pytest.raises(ConfigError, match="model_kind"):
            parse_config(swap("model_kind = proposed", "model_kind = idm"))

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(swap("k_v = 1.0", "k_v = fast"))

    def test_count_mismatch(self):
        with pytest.raises(ConfigError, match="positions vs"):
            parse_config(swap("velocities = 1, 0", "velocities = 1, 0, 0"))

    def test_garbage_text(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("this is not an ini file at all [")

    def test_cacc_keys_only_for_cacc(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(swap("k_v = 1.0", "k_v = 1.0\nk_a = 1.0"))

    def test_cacc_params_parsed(self):
        text = swap("model_kind = proposed",
                    "model_kind = cacc\nk_a = 1.0\nd = 1.0\nd_l = 2.0")
        s = parse_config(text).scenario
        assert isinstance(s.params, CaccParams)
        assert (s.params.k_a, s.params.d, s.params.d_l) == (1.0, 1.0, 2.0)
        assert s.base_params.k_v == 1.0

    def test_cacc_defaults(self):
        s = parse_config(swap("model_kind = proposed", "model_kind = cacc")).scenario
        assert (s.params.k_a, s.params.d, s.params.d_l) == (1.0, 1.0, 1.0)


class TestControls:
    def test_shared_u_broadcasts(self):
        text = swap("positions = 5, 0", "positions = 10, 5, 0")
        text = swap("velocities = 1, 0", "velocities = 1, 0, 0", text)
        s = parse_config(text).scenario
        assert len(s.controls) == 2
        assert s.controls[0] is s.controls[1]

    def test_per_follower_controls(self):
        text = swap("positions = 5, 0", "positions = 10, 5, 0")
        text = swap("velocities = 1, 0", "velocities = 1, 0, 0", text)
        text = swap("u = 0 100 const 1.9",
                    "u_1 = 0 100 const 1.9\nu_2 = 0 100 const 1.5", text)
        s = parse_config(text).scenario
        assert s.controls[0].value(1.0) == 1.9
        assert s.controls[1].value(1.0) == 1.5

    def test_mixed_u_forms_rejected(self):
        text = swap("u = 0 100 const 1.9",
                    "u = 0 100 const 1.9\nu_1 = 0 100 const 1.5")
        with pytest.raises(ConfigError, match="excludes"):
            parse_config(text)

    def test_missing_follower_key(self):
        text = swap("positions = 5, 0", "positions = 10, 5, 0")
        text = swap("velocities = 1, 0", "velocities = 1, 0, 0", text)
        text = swap("u = 0 100 const 1.9", "u_1 = 0 100 const 1.9", text)
        with pytest.raises(ConfigError, match="missing key: u_2"):
            parse_config(text)

    def test_excess_follower_key(self):
        text = swap("u = 0 100 const 1.9",
                    "u_1 = 0 100 const 1.9\nu_2 = 0 100 const 1.5")
        with pytest.raises(ConfigError, match="beyond follower count"):
            parse_config(text)


class TestPerturbationSection:
    SECTION = """
[perturbation]
g = 0 100 const 0.01
eps = 0.5, 0.1
strict = false
normalize = true
"""

    def test_parses(self):
        cfg = parse_config(BASE + self.SECTION)
        q = cfg.perturbation
        assert q.eps == (0.5, 0.1)
        assert q.strict is False and q.normalize is True
        assert q.g.value(50.0) == 0.01

    def test_resolved_g_normalizes(self):
        q = parse_config(BASE + self.SECTION).perturbation
        g = q.resolved_g(100.0)
        assert g.l1_norm(0.0, 100.0) == pytest.approx(1.0, rel=1e-12)

    def test_defaults(self):
        cfg = parse_config(BASE + "\n[perturbation]\ng = 0 100 const 0.01\neps = 0.1\n")
        assert cfg.perturbation.strict is True
        assert cfg.perturbation.normalize is False

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config(BASE + "\n[perturbation]\ng = 0 100 const 0.01\neps = -0.1\n")

    @pytest.mark.parametrize("eps", ["inf, 0.1", "0.1, nan", "-inf"])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ConfigError, match="nonnegative and finite"):
            parse_config(BASE + f"\n[perturbation]\ng = 0 100 const 0.01\neps = {eps}\n")

    def test_missing_g(self):
        with pytest.raises(ConfigError, match="missing key: g"):
            parse_config(BASE + "\n[perturbation]\neps = 0.1\n")


class TestSweepSection:
    SECTION = """
[sweep]
n = 2, 4
headways = 1, 2, 5
velocities = 0, 1
k_d = 0.1, 0.2
"""

    def test_parses(self):
        w = parse_config(BASE + self.SECTION).sweep
        assert w.n == (2, 4)
        assert w.headways == (1.0, 2.0, 5.0)
        assert w.velocities == (0.0, 1.0)
        assert w.param_grids == {"k_d": (0.1, 0.2)}
        assert w.size() == 2 * 3 * 2 * 2

    @pytest.mark.parametrize("n", ["1", "65", "0"])
    def test_n_bounds(self, n):
        with pytest.raises(ConfigError, match=r"n must be in \[2, 64\]"):
            parse_config(BASE + f"\n[sweep]\nn = {n}\nheadways = 1\nvelocities = 0\n")

    def test_unknown_grid_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BASE + "\n[sweep]\nn = 2\nheadways = 1\nvelocities = 0\ndt = 0.1\n")

    def test_missing_axis(self):
        with pytest.raises(ConfigError, match="missing key: velocities"):
            parse_config(BASE + "\n[sweep]\nn = 2\nheadways = 1\n")


PERTURB = "\n[perturbation]\ng = 0 100 const 0.01\neps = 0.1\n"
SWEEP = "\n[sweep]\nn = 2\nheadways = 1\nvelocities = 0\n"
CACC = swap("model_kind = proposed", "model_kind = cacc")
GAINS = ("k_v", "k_d", "k", "tau_s", "v_bar", "u_min", "u_max")


def without(text, *keys):
    """text with the line of each named key removed."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split(" = ")[0] not in keys)


# Each config error's exact text, and which one wins when a file has several.
CONFIG_ERRORS = {
    # each required key of each section, missing
    **{f"missing {key}": (without(BASE, key), f"[params] missing key: {key}")
       for key in (*GAINS, "T")},
    "missing model_kind": (without(BASE, "model_kind"),
                           "[params] model_kind must be proposed|cacc|ovfl, got ''"),
    **{f"missing {key}": (without(BASE, key), f"[initial] missing key: {key}")
       for key in ("positions", "velocities")},
    **{f"missing {key}": (without(BASE, key), f"[leader] missing key: {key}")
       for key in ("v0", "profile")},
    "missing u": (without(BASE, "u"), "[controls] missing key: u_1"),
    **{f"missing perturbation {key}": (BASE + without(PERTURB, key),
                                       f"[perturbation] missing key: {key}")
       for key in ("g", "eps")},
    **{f"missing sweep {key}": (BASE + without(SWEEP, key), f"[sweep] missing key: {key}")
       for key in ("n", "headways", "velocities")},
    # several missing: the first in the section's key order
    "missing T, k_d, u_max": (without(BASE, "T", "k_d", "u_max"), "[params] missing key: k_d"),
    "missing velocities, positions": (without(BASE, "velocities", "positions"),
                                      "[initial] missing key: positions"),
    "missing profile, v0": (without(BASE, "profile", "v0"), "[leader] missing key: v0"),
    "missing eps, g": (BASE + without(PERTURB, "eps", "g"), "[perturbation] missing key: g"),
    "missing velocities, n": (BASE + without(SWEEP, "velocities", "n"),
                              "[sweep] missing key: n"),
    "missing T and positions": (without(BASE, "T", "positions"), "[params] missing key: T"),
    # an unknown key wins over a missing one
    "unknown before missing params": (
        without(swap("T = 100.0", "T = 100.0\nmass = 1.0"), "k"), "[params] unknown key: mass"),
    "unknown before missing initial": (
        without(swap("velocities = 1, 0", "velocities = 1, 0\nheadings = 0, 0"), "positions"),
        "[initial] unknown key: headings"),
    "unknown before missing leader": (
        without(swap("v0 = 1.0", "v0 = 1.0\nx0 = 5"), "profile"), "[leader] unknown key: x0"),
    "unknown before missing perturbation": (
        BASE + without(PERTURB + "seed = 1\n", "g"), "[perturbation] unknown key: seed"),
    "unknown before missing sweep": (
        BASE + without(SWEEP + "dt = 0.1\n", "n"), "[sweep] unknown key: dt"),
    "guard_tol is no stepper key": (BASE + "\n[stepper]\nguard_tol = 1e-6\n",
                                    "[stepper] unknown key: guard_tol"),
    "model_kind before unknown": (swap("model_kind = proposed", "model_kind = idm\nmass = 1"),
                                  "[params] model_kind must be proposed|cacc|ovfl, got 'idm'"),
    # a CACC key under model_kind = proposed
    **{f"{key} under proposed": (swap("T = 100.0", f"T = 100.0\n{key} = 2.0"),
                                 f"[params] unknown key: {key}")
       for key in ("k_a", "d", "d_l")},
    # several bad values: the first in parse order
    "bad tau_s, k_d": (swap("k_d = 0.2", "k_d = bad", swap("tau_s = 1.4", "tau_s = x")),
                       "[params] k_d: not a number: 'bad'"),
    "bad k, T": (swap("k = 0.3", "k = x", swap("T = 100.0", "T = y")),
                 "[params] k: not a number: 'x'"),
    "bad T, k_a": (swap("T = 100.0", "T = oops\nk_a = bad", CACC),
                   "[params] T: not a number: 'oops'"),
    "bad d_l, k_a": (swap("T = 100.0", "T = 100.0\nd_l = x\nk_a = y", CACC),
                     "[params] k_a: not a number: 'y'"),
    "empty positions": (swap("positions = 5, 0", "positions = ,"),
                        "[initial] positions: empty list"),
    "bad velocities, positions": (
        swap("velocities = 1, 0", "velocities = a, 0", swap("positions = 5, 0", "positions = b")),
        "[initial] positions: not a number: 'b'"),
    "bad v0, profile": (swap("v0 = 1.0", "v0 = fast", swap("profile = 0 100 const 0.0",
                                                           "profile = 0 100 spline 1")),
                        "[leader] profile: unknown segment kind 'spline'"),
    "bad params and controls": (swap("u = 0 100 const 1.9", "u = x", swap("k_v = 1.0", "k_v = x")),
                                "[params] k_v: not a number: 'x'"),
    "bad dt, switch_tol": (BASE + "\n[stepper]\nswitch_tol = a\ndt = b\n",
                           "[stepper] dt: not a number: 'b'"),
    "bad stepper and perturbation": (BASE + "\n[stepper]\ndt = b\n" + swap("eps = 0.1", "eps = x",
                                                                          PERTURB),
                                     "[stepper] dt: not a number: 'b'"),
    "bad eps, g": (BASE + swap("eps = 0.1", "eps = x", swap("const 0.01", "const y", PERTURB)),
                   "[[perturbation] g] const: not a number: 'y'"),
    "bad normalize, strict": (BASE + PERTURB + "normalize = n\nstrict = maybe\n",
                              "[perturbation] strict: not a boolean: 'maybe'"),
    "negative eps, bad strict": (BASE + swap("eps = 0.1", "eps = -1", PERTURB) + "strict = maybe\n",
                                 "[perturbation] strict: not a boolean: 'maybe'"),
    "bad perturbation and sweep": (BASE + swap("eps = 0.1", "eps = x", PERTURB)
                                   + swap("n = 2", "n = x", SWEEP),
                                   "[perturbation] eps: not a number: 'x'"),
    "bad k_d grid, headways": (BASE + swap("headways = 1", "headways = oops", SWEEP) + "k_d = bad\n",
                               "[sweep] k_d: not a number: 'bad'"),
    "bad tau_s, k_v grids": (BASE + SWEEP + "tau_s = x\nk_v = y\n",
                             "[sweep] k_v: not a number: 'y'"),
    "bad n, k_d grid": (BASE + swap("n = 2", "n = two", SWEEP) + "k_d = bad\n",
                        "[sweep] n: not an integer: 'two'"),
    "n out of range, bad k_d grid": (BASE + swap("n = 2", "n = 1", SWEEP) + "k_d = bad\n",
                                     "[sweep] n must be in [2, 64], got 1"),
    "empty n": (BASE + swap("n = 2", "n = ,", SWEEP), "[sweep] n: empty list"),
    "bad velocities, headways": (BASE + swap("headways = 1", "headways = a",
                                             swap("velocities = 0", "velocities = b", SWEEP)),
                                 "[sweep] headways: not a number: 'a'"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_is_pinned(case):
    text, message = CONFIG_ERRORS[case]
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


class TestLoadConfig:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(BASE, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.scenario.horizon == 100.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")


class TestManifest:
    def test_plain_scenario(self):
        s = parse_config(BASE).scenario
        m = scenario_to_manifest(s)
        assert m["model_kind"] == "proposed"
        assert m["params"]["k_v"] == 1.0
        assert m["initial"]["positions"] == [5.0, 0.0]
        assert m["leader"]["v0"] == 1.0
        assert len(m["controls"]) == 1
        assert m["horizon"] == 100.0
        assert m["stepper"]["dt"] == 0.01
        assert "cacc" not in m

    def test_cacc_extras(self):
        text = swap("model_kind = proposed",
                    "model_kind = cacc\nk_a = 1.0\nd = 1.0\nd_l = 2.0")
        m = scenario_to_manifest(parse_config(text).scenario)
        assert m["cacc"] == {"k_a": 1.0, "d": 1.0, "d_l": 2.0}

    def test_json_serializable(self):
        import json
        s = parse_config(BASE).scenario
        json.dumps(scenario_to_manifest(s), sort_keys=True)


class TestPresets:
    def test_registry_is_sorted_and_nonempty(self):
        assert list(PRESET_NAMES) == sorted(PRESET_NAMES)
        assert len(PRESET_NAMES) >= 10

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_parses_and_validates(self, name):
        cfg = parse_config(preset_text(name))
        assert cfg == load_preset(name)
        assert validate_scenario(cfg.scenario) == []

    def test_a_shared_preset_runs_as_a_fresh_parse(self):
        """load_preset hands every caller one parse per name. A run on it,
        after an earlier run built its profiles' cached tables, equals a run
        on a fresh parse bit for bit."""
        shared = load_preset("order_check")
        assert load_preset("order_check") is shared
        simulate(shared.scenario)
        a = simulate(shared.scenario).trajectory
        b = simulate(parse_config(preset_text("order_check")).scenario).trajectory
        for name in ("times", "positions", "velocities", "branches"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_unknown_preset_lists_names(self):
        with pytest.raises(KeyError, match="fig1_left"):
            preset_text("no_such_preset")

    def test_fig5_has_perturbation(self):
        cfg = load_preset("fig5")
        assert cfg.perturbation is not None
        assert cfg.perturbation.eps == (1.0, 0.5, 0.1, 0.05, 0.01)

    def test_sweep_demo_has_sweep(self):
        cfg = load_preset("sweep_demo")
        assert cfg.sweep is not None
        assert cfg.sweep.size() >= 200

    # sha256 of each preset's text: the template must render every preset byte
    # for byte, since tests and users edit the texts by substring.
    TEXT_SHA256 = {
        "equilibrium": "d794c1113cecd44c30dfa5b5b9af73df6474c55a027e7c027ec66783268efa0f",
        "equilibrium_cacc": "e46c5e6911be9ed7b65a0dbb26c066efba5f3cd8b0710f039ed901a8114cadf9",
        "equilibrium_ovfl": "640a1061c2a36d34b154967d0fa5710837e475fcb7173cedb0478d57daf7f4bc",
        "fig1_left": "eb3d6e37eab5a9a3990b15801f9f2708c4232eaa722b0ecc81b1c3663f0d53e2",
        "fig1_left_cacc": "5305666dfc80611c0f339b04d144a53888887c0b977b855594b1370724322563",
        "fig1_left_ovfl": "4e09f048312ecb1149ba6c3323ba596ebc03dd4673317296091f82addfd197ef",
        "fig1_right": "9333bb8d7981609387e21a4b666a151317151c1af7a973114254de26993c00d3",
        "fig1_right_cacc": "6d33e63ea8f058c762599ad4cc4e345fa702fd7e6a5040ca31811c5d7920a6a7",
        "fig1_right_ovfl": "48537c6565890542fe0b8f9d1a588d587cc2cc0245615834a6d3732f4d1a6fc3",
        "fig3a_0": "f4a042c6ea9d398c77eaa870341ad0992026e901dc527bf98b9d32d056915954",
        "fig3a_005": "49b1b8f8ea566505be1d4dd5b0fd56a765b389382fe4431dd2cfd7ecb8e17761",
        "fig3a_01": "90c81e7c0ef84b71b769840016454331ae3e546c875f11eba42f72179291365d",
        "fig3b_0": "2c98cfb26ed88f1343c0cf4b5b6f1c81ef73ad3ac1c404055a54db2711c09dda",
        "fig3b_005": "de7621db5bba0201e8ca2a9e8f761829db05a5e8ea5ab790014e08b26ef6bae7",
        "fig3b_01": "440e71c01d542fa08f466ef342429cab2e3d390e60be11bd15d8462e2bf75c1f",
        "fig4": "e1f601b3962c7a1f26ce66f99e3004f172fbcd8363bd3b71c867252dd186a0fc",
        "fig5": "2535c8a15345cffee09aa82d99269ec10ddf13051611f9b2c0123d92b67b0bc1",
        "order_check": "7d1fb18e2092b04f9bb8294749c59437bc6e609b8da19c96433b8fbc1bdf1d35",
        "sweep_demo": "c8b88c94af7d418191f620c13331ff13e769f170da004c9457ec04e853d3ca89",
    }

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_text_is_pinned(self, name):
        assert hashlib.sha256(preset_text(name).encode()).hexdigest() == self.TEXT_SHA256[name]

    def test_every_preset_is_pinned(self):
        assert sorted(self.TEXT_SHA256) == list(PRESET_NAMES)


def _readme_blocks(lang: str) -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", readme, re.S | re.M)


def test_readme_ini_blocks_parse():
    blocks = _readme_blocks("ini")
    assert blocks
    for block in blocks:
        parse_config(block)


def test_readme_python_blocks_run():
    blocks = _readme_blocks("python")
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})

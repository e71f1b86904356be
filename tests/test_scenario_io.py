"""Config parsing, the profile clause grammar, and run manifests."""

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
        cfg = load_preset(name)
        assert validate_scenario(cfg.scenario) == []

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


def test_readme_ini_blocks_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        parse_config(block)

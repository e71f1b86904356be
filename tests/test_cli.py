"""End-to-end command-line behavior, driven in-process through main()."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from platoonsim import BranchFlag, PiecewiseProfile, convergence_study, load_preset, preset_text
from platoonsim import PerturbationSpec, ScenarioError, constant_profile, parse_config
from platoonsim import core
from platoonsim import perturbed_simulate, run_sweep, simulate, validate_scenario
from platoonsim.cli import main
from platoonsim.scenario_io import load_config
from platoonsim.trajectory_io import fmt

SWEEP_CFG = """\
[params]
model_kind = proposed
k_v = 1.0
k_d = 0.2
k = 0.3
tau_s = 1.4
v_bar = 2.0
u_min = 0.1
u_max = 1.95
T = 10.0

[initial]
positions = 5, 0
velocities = 1, 0

[leader]
v0 = 1.0
profile = 0 10 const 0.0

[controls]
u = 0 10 const 1.9

[sweep]
n = 2
headways = 1, 5
velocities = 0, 1
"""


# A step far too coarse for the gains: the min-type law's first follower
# leaves the speed box and trips the guard.
GUARD_CFG = """\
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
positions = 1000, 0
velocities = 1, 0

[leader]
v0 = 1.0
profile = 0 100 const 0.0

[controls]
u = 0 100 const 1.9

[stepper]
dt = 13.0
"""


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_preset_happy_path(self, tmp_path, capsys):
        code = run("simulate", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["status"] == "completed"
        assert sorted(manifest["outputs"]) == ["manifest.json", "trajectory.csv"]
        assert "completed" in capsys.readouterr().out

    def test_manifest_carries_every_solve_counter(self, tmp_path):
        assert run("simulate", "--preset", "fig1_left", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stats = simulate(load_preset("fig1_left").scenario).stats
        for key in ("steps", "switch_refinements", "event_cap_hits", "rhs_evals",
                    "switch_bisection_evals", "collision_bisection_evals", "guard_clamps"):
            assert manifest[key] == getattr(stats, key)
        assert manifest["switch_bisection_evals"] > 0

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SWEEP_CFG, encoding="utf-8")
        code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 0

    @pytest.mark.parametrize("profile", ["0 100 ramp 0.0 0.02", "0 100 sin 0.01 0.005 1.0 0.0"])
    def test_leader_from_rest_with_nonnegative_acceleration(self, tmp_path, profile):
        """The leader speed starts exactly on its lower bound 0 and never falls
        below it: validation decides the first piece by the acceleration's sign."""
        text = (preset_text("fig1_left").replace("velocities = 1, 0", "velocities = 0, 0")
                .replace("v0 = 1.0", "v0 = 0.0")
                .replace("profile = 0 100 const 0.0", f"profile = {profile}"))
        cfg = tmp_path / "rest.ini"
        cfg.write_text(text, encoding="utf-8")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    def test_dt_override_changes_grid(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--preset", "fig4", "--out", str(a)) == 0
        assert run("simulate", "--preset", "fig4", "--out", str(b), "--dt", "0.1") == 0
        rows_a = (a / "trajectory.csv").read_text().count("\n")
        rows_b = (b / "trajectory.csv").read_text().count("\n")
        assert rows_a == 1002 and rows_b == 102

    def test_collision_exit_code(self, tmp_path, capsys):
        code = run("simulate", "--preset", "fig1_right_cacc", "--out", str(tmp_path))
        assert code == 2
        out = capsys.readouterr().out
        assert "collision" in out and "follower 1" in out
        # the truncated trajectory is still written for inspection
        assert (tmp_path / "trajectory.csv").exists()

    def test_first_row_records_gap_branch(self, tmp_path):
        """fig4 starts on the gap term, which the README documents as code 0."""
        assert run("simulate", "--preset", "fig4", "--out", str(tmp_path)) == 0
        with open(tmp_path / "trajectory.csv", encoding="utf-8", newline="") as fh:
            row0 = next(csv.DictReader(fh))
        assert int(row0["branch_1"]) == BranchFlag.GAP

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--preset", "fig4", "--out", str(a)) == 0
        assert run("simulate", "--preset", "fig4", "--out", str(b)) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


class TestBadInput:
    def test_garbage_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("not an ini [", encoding="utf-8")
        code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run("simulate", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o"))
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    def test_scenario_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "coincide.ini"
        cfg.write_text(SWEEP_CFG.replace("positions = 5, 0", "positions = 5, 5"),
                       encoding="utf-8")
        code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "invalid scenario" in capsys.readouterr().err

    def test_non_finite_profile_number(self, tmp_path, capsys):
        """An infinite omega is a config error that names its clause, and
        no output directory is made."""
        cfg = tmp_path / "inf.ini"
        cfg.write_text(SWEEP_CFG.replace("profile = 0 10 const 0.0",
                                         "profile = 0 10 sin 0 0.01 inf 0"), encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == ("config error: [leader] profile: non-finite number "
                                           "in clause '0 10 sin 0 0.01 inf 0'\n")
        assert not out.exists()

    def test_unknown_preset_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--preset", "zig", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_nonpositive_dt(self, tmp_path, capsys):
        code = run("simulate", "--preset", "fig4", "--out", str(tmp_path), "--dt", "0")
        assert code == 3
        assert "--dt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare", "envelope", "perturb", "sweep"])
    def test_invalid_scenario_writes_nothing(self, tmp_path, capsys, command):
        cfg = tmp_path / "coincide.ini"
        cfg.write_text(SWEEP_CFG.replace("positions = 5, 0", "positions = 5, 5"),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run(command, "--config", str(cfg), "--out", str(out)) == 3
        assert "invalid scenario" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, field", [
        ("u = 0 100 sin 1.0 1.5 {omega!r} 0", "controls.u_1: value "),
        ("profile = 0 100 sin 0.0 {amp!r} {omega!r} 0", "leader: leader velocity "),
    ], ids=["control", "leader_speed"])
    def test_excursion_between_old_grid_points_refused(self, tmp_path, capsys, line, field):
        """fig1_left with a sine whose period is the spacing of the former
        10 000-point validation grid: the peak (2.5) is never sampled there."""
        omega = 2.0 * math.pi / (100.0 / 9999)
        text = preset_text("fig1_left")
        old = "u = 0 100 const 1.9" if line.startswith("u") else "profile = 0 100 const 0.0"
        cfg = tmp_path / "alias.ini"
        cfg.write_text(text.replace(old, line.format(omega=omega, amp=0.75 * omega)),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 3
        assert f"invalid scenario: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("platoonsim ")


class TestCompare:
    def test_three_models_one_summary(self, tmp_path, capsys):
        code = run("compare", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 0
        for name in ("proposed", "cacc", "ovfl"):
            assert (tmp_path / f"{name}.csv").exists()
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == ("model,status,min_headway,collision_time,"
                            "terminal_velocity,settle_time,time_to_control_band")
        assert len(lines) == 4
        assert lines[1].startswith("proposed,")

    def test_proposed_settles_fastest_on_reference_data(self, tmp_path):
        code = run("compare", "--preset", "fig1_left", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        settle = {r.split(",")[0]: float(r.split(",")[5]) for r in rows}
        assert settle["proposed"] < settle["cacc"]
        assert settle["proposed"] < settle["ovfl"]


    def test_control_band_follows_a_time_varying_control(self, tmp_path):
        """time_to_control_band compares each row's speed with the control at
        that row's time."""
        cfg = tmp_path / "varying.ini"
        cfg.write_text(preset_text("fig1_left").replace(
            "u = 0 100 const 1.9", "u = 0 100 sin 0.9 0.3 0.2 0.0"), encoding="utf-8")
        out = tmp_path / "o"
        assert run("compare", "--config", str(cfg), "--out", str(out)) == 0
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            got = {row["model"]: row["time_to_control_band"] for row in csv.DictReader(fh)}
        s = load_config(cfg).scenario
        u = s.controls[0]
        traj = simulate(s).trajectory
        t_band = next(t for t, v in zip(traj.times.tolist(), traj.velocities[:, 1].tolist())
                      if abs(v - u.value(t)) < 0.01)
        assert got["proposed"] == fmt(t_band)

    def test_summary_under_a_sine_control_is_the_per_time_values(self, tmp_path, monkeypatch):
        """compare reads a time-varying control at every row through one
        values call per law, and calls value at no time: summary.csv is
        byte for byte the one that evaluating the profiles one time at a
        time with value gives."""
        cfg = tmp_path / "varying.ini"
        cfg.write_text(preset_text("fig1_left").replace(
            "u = 0 100 const 1.9", "u = 0 100 sin 0.9 0.3 0.2 0.0"), encoding="utf-8")
        value = PiecewiseProfile.value
        monkeypatch.setattr(PiecewiseProfile, "value", lambda p, t: pytest.fail("value called"))
        assert run("compare", "--config", str(cfg), "--out", str(tmp_path / "values")) == 0
        monkeypatch.setattr(PiecewiseProfile, "value", value)
        monkeypatch.setattr(PiecewiseProfile, "values",
                            lambda p, ts: [p.value(float(t)) for t in ts])
        assert run("compare", "--config", str(cfg), "--out", str(tmp_path / "value")) == 0
        summary = (tmp_path / "values" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "value" / "summary.csv").read_bytes()
        bands = [row.split(b",")[-1] for row in summary.splitlines()[1:]]
        assert len(bands) == 3 and b"-" not in bands


class TestEnvelope:
    def test_certifies_reference_run(self, tmp_path, capsys):
        code = run("envelope", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 0
        for name in ("trajectory.csv", "envelope.csv", "certification.csv"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["certification_passed"] is True
        assert manifest["certified_min_headway"] > 0.0
        out = capsys.readouterr().out
        assert out.count("pass") == 4

    def test_check_only_reuses_trajectory(self, tmp_path):
        assert run("envelope", "--preset", "fig4", "--out", str(tmp_path)) == 0
        assert run("envelope", "--preset", "fig4", "--out", str(tmp_path),
                   "--check-only") == 0

    def test_check_only_flags_tampered_data(self, tmp_path, capsys):
        assert run("envelope", "--preset", "fig4", "--out", str(tmp_path)) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        cells = lines[500].split(",")
        cells[4] = "5.0"  # follower velocity, far outside any envelope
        lines[500] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("envelope", "--preset", "fig4", "--out", str(tmp_path), "--check-only")
        assert code == 5
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("other", [("--preset", "fig3a_01"),
                                       ("--preset", "fig4", "--dt", "0.02")],
                             ids=["other_preset", "other_dt"])
    def test_check_only_rejects_trajectory_of_another_scenario(self, tmp_path, capsys, other):
        assert run("envelope", "--preset", "fig4", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        code = run("envelope", *other, "--out", str(tmp_path), "--check-only")
        assert code == 3
        captured = capsys.readouterr()
        assert "is not a run of this scenario" in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("line, column, value, err", [
        (500, "v_0", "nan", "error: PATH: row 501 has a value that is not finite"),
        (500, "t", "50.0", "envelope --check-only: PATH is not a run of this scenario: "
                           "the time 50.0 at grid point 499 is not the dt grid's 4.99"),
        (500, "branch_1", "300", "error: PATH: row 501 has a branch code outside {0, 1, 2}"),
        (500, "h_1", "123.0", "error: PATH: row 501 has a headway h_i that is not x_{i-1} - x_i"),
        (0, "v_0", "w_0", "error: PATH: unexpected header "
                          "['t', 'x_0', 'w_0', 'x_1', 'v_1', 'h_1', 'branch_1']"),
        (500, "branch_1", None, "error: PATH: row 501 has 6 fields, expected 7"),
        (500, "v_1", "", "error: PATH: row 501 has a value that is not a number: ''"),
        (500, "v_1", "fast", "error: PATH: row 501 has a value that is not a number: 'fast'"),
    ], ids=["nan_velocity", "time_off_grid", "branch_code", "headway_column", "wrong_header",
            "short_row", "empty_cell", "non_number_cell"])
    def test_check_only_rejects_malformed_trajectory(self, tmp_path, capsys, line, column, value,
                                                     err):
        """One tampered line of fig4's own output (a cell replaced, or
        dropped where value is None): exit 3 with exactly the reason on
        stderr, nothing certified and no traceback."""
        assert run("envelope", "--preset", "fig4", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines()
        cells = lines[line].split(",")
        i = lines[0].split(",").index(column)
        cells[i:i + 1] = [] if value is None else [value]
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("envelope", "--preset", "fig4", "--out", str(tmp_path), "--check-only")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == err.replace("PATH", str(path)) + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize("keep, reason", [(0, "empty trajectory file"),
                                              (1, "no data rows")],
                             ids=["empty_file", "header_only"])
    def test_check_only_rejects_truncated_trajectory(self, tmp_path, capsys, keep, reason):
        assert run("envelope", "--preset", "fig4", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:keep]), encoding="utf-8")
        code = run("envelope", "--preset", "fig4", "--out", str(tmp_path), "--check-only")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {path}: {reason}\n"
        assert captured.out == ""

    def test_check_only_without_trajectory(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("envelope", "--preset", "fig4", "--out", str(out), "--check-only")
        assert code == 3
        assert "no trajectory" in capsys.readouterr().err
        assert not out.exists()

    def test_non_proposed_model_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("envelope", "--preset", "fig1_left_cacc", "--out", str(out))
        assert code == 3
        assert "min-type law only" in capsys.readouterr().err
        assert not out.exists()


def _perturb_configs():
    fig5 = preset_text("fig5")
    # a sine leader whose speed stays in [1, 1.6] under v_bar = 2 although
    # its L1 bound v0 + ||a_l||_1 is about 20
    l1_leader = fig5[:fig5.index("[initial]")].replace("T = 60.0", "T = 100.0") + (
        "[initial]\npositions = 5, 0\nvelocities = 1, 1\n\n"
        "[leader]\nv0 = 1.0\nprofile = 0 100 sin 0.0 0.3 1.0 0.0\n\n"
        "[controls]\nu = 0 100 const 1.0\n\n[stepper]\ndt = 0.01\n\n"
        "[perturbation]\ng = 0 100 const 0.001\neps = 0.1, 0.05, 0.025\nstrict = false\n")
    g_start, g_end = fig5.index("g = 0 30"), fig5.index("eps =")
    zero_g = (fig5[:g_start] + "g = 0 60 const 0.0\n"
              + fig5[g_end:].replace("normalize = true", "normalize = false"))
    return {"fig5": fig5, "l1_leader": l1_leader,
            "l1_leader_zero_eps": l1_leader.replace("eps = 0.1, 0.05, 0.025", "eps = 0"),
            "zero_g": zero_g}


PERTURB_CONFIGS = _perturb_configs()

L1_REFUSAL = ("error: no perturbation scale is admissible: the L1 bound v0 + ||a_l||_1 = "
              "20.158695661686277 exceeds v_bar = 2.0 (headroom -18.158695661686277)\n")


class TestPerturb:
    def test_reference_study(self, tmp_path, capsys):
        code = run("perturb", "--preset", "fig5", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()
        for eps in ("1.0", "0.5", "0.1", "0.05", "0.01"):
            assert (tmp_path / f"trajectory_eps_{eps}.csv").exists()
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "eps,sup_distance"
        assert len(lines) == 6
        d = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(b < a for a, b in zip(d, d[1:]))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["strict"] is False
        assert manifest["eps_admissible_max"] == pytest.approx(0.6)

    def test_strict_override_rejects_overscale(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("perturb", "--preset", "fig5", "--out", str(out), "--strict-eps", "true")
        assert code == 3
        assert "admissible scale" in capsys.readouterr().err
        assert not out.exists()

    def test_stopped_run_ends_the_study(self, tmp_path, capsys, fig5_guard_trip_text):
        cfg = tmp_path / "trip.ini"
        cfg.write_text(fig5_guard_trip_text, encoding="utf-8")
        out = tmp_path / "o"
        code = run("perturb", "--config", str(cfg), "--out", str(out))
        assert code == 4
        assert "guard tripped: follower 1" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "convergence.csv", "manifest.json", "trajectory_eps_1000.0.csv"]
        assert (out / "convergence.csv").read_text() == "eps,sup_distance\n"

    def test_zero_eps_writes_the_unperturbed_run(self, tmp_path, capsys):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(preset_text("fig5").replace("eps = 1, 0.5, 0.1, 0.05, 0.01", "eps = 0.5, 0"),
                       encoding="utf-8")
        assert run("perturb", "--config", str(cfg), "--out", str(tmp_path / "p")) == 0
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "s")) == 0
        lines = (tmp_path / "p" / "convergence.csv").read_text().splitlines()
        assert lines[-1] == "0.0,0.0"
        assert ((tmp_path / "p" / "trajectory_eps_0.0.csv").read_bytes()
                == (tmp_path / "s" / "trajectory.csv").read_bytes())

    @pytest.mark.parametrize("eps", ["inf, 0.1, 0.05, 0.01", "nan"])
    def test_non_finite_eps_refused_before_any_run(self, tmp_path, capsys, monkeypatch, eps):
        calls = []
        for mod in (sys.modules["platoonsim.cli"], sys.modules["platoonsim.perturbation"]):
            monkeypatch.setattr(mod, "simulate", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "eps.ini"
        cfg.write_text(preset_text("fig5").replace("eps = 1, 0.5, 0.1, 0.05, 0.01", f"eps = {eps}"),
                       encoding="utf-8")
        out = tmp_path / "o"
        code = run("perturb", "--config", str(cfg), "--out", str(out), "--strict-eps", "false")
        assert code == 3
        assert "nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_leader_beyond_the_l1_bound_runs_when_not_strict(self, tmp_path, capsys):
        """The admissible scale needs v0 + ||a_l||_1 <= v_bar, a sufficient
        bound only: this sine leader's speed stays in [1, 1.6] under
        v_bar = 2 although its L1 bound is about 20. A non-strict study runs
        it and reports no admissible scale; a strict one refuses it."""
        cfg = tmp_path / "l1.ini"
        cfg.write_text(PERTURB_CONFIGS["l1_leader"], encoding="utf-8")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "s")) == 0
        out = tmp_path / "o"
        assert run("perturb", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["strict"], manifest["eps_admissible_max"]) == (False, None)
        lines = (out / "convergence.csv").read_text().splitlines()
        assert [float(r.split(",")[1]) for r in lines[1:]] == pytest.approx([0.5, 0.25, 0.125],
                                                                           rel=1e-3)
        capsys.readouterr()
        strict_out = tmp_path / "strict"
        code = run("perturb", "--config", str(cfg), "--out", str(strict_out), "--strict-eps", "true")
        assert code == 3
        assert "the L1 bound v0 + ||a_l||_1 = " in capsys.readouterr().err
        assert not strict_out.exists()

    @pytest.mark.parametrize("config, strict, code, err", [
        ("fig5", "true", 3, "error: eps=1.0 exceeds the admissible scale 0.6000000000000001; "
                            "pass strict=False to run anyway\n"),
        ("l1_leader", "true", 3, L1_REFUSAL),
        ("l1_leader_zero_eps", "true", 3, L1_REFUSAL),
        ("l1_leader", "false", 0, ""),
        ("zero_g", "true", 3, "error: perturbation shape has zero L1 norm on [0, T]\n"),
        ("zero_g", "false", 3, "error: perturbation shape has zero L1 norm on [0, T]\n"),
    ])
    def test_admissibility_outcome_is_pinned(self, tmp_path, capsys, config, strict, code, err):
        """A refused study writes nothing; a non-strict study of a leader
        past the L1 bound runs and records no admissible scale."""
        (tmp_path / "p.ini").write_text(PERTURB_CONFIGS[config], encoding="utf-8")
        out = tmp_path / "o"
        assert run("perturb", "--config", str(tmp_path / "p.ini"), "--out", str(out),
                   "--strict-eps", strict) == code
        assert capsys.readouterr().err == err
        if code:
            assert not out.exists()
        else:
            assert json.loads((out / "manifest.json").read_text())["eps_admissible_max"] is None

    @pytest.mark.parametrize("eps, code", [("1, 0.5, 0.1, 0.05, 0.01", 3), ("0.5, 0.1, 0.05", 0)])
    def test_strict_study_takes_each_l1_norm_once(self, tmp_path, capsys, monkeypatch, eps, code):
        """A strict fig5 study, refused or run, takes three L1 norms: the
        shape's to normalize it, then the normalized shape's and the
        leader acceleration's for the admissible scale."""
        calls = []
        l1_norm = PiecewiseProfile.l1_norm
        monkeypatch.setattr(PiecewiseProfile, "l1_norm",
                            lambda self, *a: calls.append(a) or l1_norm(self, *a))
        cfg = tmp_path / "strict.ini"
        cfg.write_text(preset_text("fig5").replace("eps = 1, 0.5, 0.1, 0.05, 0.01", f"eps = {eps}")
                       .replace("strict = false", "strict = true"), encoding="utf-8")
        assert run("perturb", "--config", str(cfg), "--out", str(tmp_path / "o")) == code
        assert len(calls) == 3

    def test_config_without_perturbation_section(self, tmp_path, capsys):
        code = run("perturb", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 3
        assert "[perturbation]" in capsys.readouterr().err


_COMPARE_FILES = ["cacc.csv", "manifest.json", "ovfl.csv", "proposed.csv", "summary.csv"]


class TestOutputFiles:
    """Every exit code of a command comes with the same file set."""

    CONFIGS = {
        "guard": GUARD_CFG,
        # perturbations far below an ulp of the leader's speed: every
        # distance is 0, so the three smallest do not decrease
        "tiny_eps": preset_text("fig5").replace("eps = 1, 0.5, 0.1, 0.05, 0.01",
                                                "eps = 1e-300, 1e-301, 1e-302"),
    }

    @pytest.mark.parametrize("command, source, code, files", [
        ("envelope", "--preset fig4", 0,
         ["certification.csv", "envelope.csv", "manifest.json", "trajectory.csv"]),
        ("envelope", "--preset fig4 --dt 2", 2, ["manifest.json", "trajectory.csv"]),
        ("envelope", "guard", 4, ["manifest.json", "trajectory.csv"]),
        ("compare", "--preset fig1_right", 0, _COMPARE_FILES),
        ("compare", "--preset fig4 --dt 2", 2, _COMPARE_FILES),
        ("compare", "guard", 4, _COMPARE_FILES),
        ("perturb", "--preset fig5 --dt 8", 2, None),
        ("perturb", "tiny_eps", 6, ["convergence.csv", "manifest.json", "trajectory_eps_1e-300.csv",
                                    "trajectory_eps_1e-301.csv", "trajectory_eps_1e-302.csv"]),
    ])
    def test_file_set_of_each_exit_code(self, tmp_path, capsys, command, source, code, files):
        argv = source.split()
        if source in self.CONFIGS:
            (tmp_path / "c.ini").write_text(self.CONFIGS[source], encoding="utf-8")
            argv = ["--config", str(tmp_path / "c.ini")]
        out = tmp_path / "o"
        assert run(command, *argv, "--out", str(out)) == code
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == files
        if files is not None:
            assert json.loads((out / "manifest.json").read_text())["outputs"] == files

    def test_envelope_keeps_the_run_when_the_envelope_raises(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_envelope(*args, **kwargs):
            raise ValueError("no envelope")
        monkeypatch.setattr(sys.modules["platoonsim.cli"], "build_envelope", no_envelope)
        out = tmp_path / "o"
        assert run("envelope", "--preset", "fig4", "--out", str(out)) == 3
        assert "error: no envelope" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv"]
        assert run("simulate", "--preset", "fig4", "--out", str(tmp_path / "s")) == 0
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "s" / "trajectory.csv").read_bytes()


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SWEEP_CFG, encoding="utf-8")
        code = run("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0
        lines = (tmp_path / "o" / "runs.csv").read_text().splitlines()
        assert len(lines) == 5
        assert "4/4 runs completed" in capsys.readouterr().out

    def test_worker_fanout_matches_serial(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SWEEP_CFG, encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("sweep", "--config", str(cfg), "--out", str(a)) == 0
        assert run("sweep", "--config", str(cfg), "--out", str(b), "--workers", "2") == 0
        assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()

    def test_cacc_grid_with_gain_override(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        text = SWEEP_CFG.replace("model_kind = proposed", "model_kind = cacc")
        cfg.write_text(text + "k_d = 0.1, 0.2\n", encoding="utf-8")
        code = run("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0
        lines = (tmp_path / "o" / "runs.csv").read_text().splitlines()
        assert len(lines) == 1 + 8
        assert "8/8 runs completed" in capsys.readouterr().out

    def test_config_without_sweep_section(self, tmp_path, capsys):
        code = run("sweep", "--preset", "fig4", "--out", str(tmp_path))
        assert code == 3
        assert "[sweep]" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("headways = 0.1, 0.25, 0.5, 1, 2, 3, 5", "headways = 0, 1", "initial.headway[1]"),
        ("velocities = 0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8", "velocities = 0, 3",
         "initial.vehicles[1].v"),
        ("n = 2, 4, 8", "n = 2, 4, 8\nk_d = -0.2, 0.2", "params.k_d"),
    ])
    def test_bad_grid_point_refused_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                   old, new, field):
        """A grid point that fails validation exits 3 before the first run and
        before --out exists, wherever it sits in the grid."""
        calls = []
        monkeypatch.setattr(sys.modules["platoonsim.sweep"], "simulate",
                            lambda *a, **k: calls.append(a))
        cfg = tmp_path / "s.ini"
        text = preset_text("sweep_demo")
        assert old in text
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / "o"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == 3
        assert f"invalid scenario: {field}:" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_bad_worker_count(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        cfg.write_text(SWEEP_CFG, encoding="utf-8")
        code = run("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--workers", "0")
        assert code == 3


@pytest.fixture
def validate_calls(monkeypatch):
    """Scenarios passed to validate_scenario. Every module validates through
    core._require_valid, so core is the one module that binds it."""
    calls = []
    original = core.validate_scenario

    def counted(s):
        calls.append(s)
        return original(s)

    bound = [name for name, mod in list(sys.modules.items())
             if name.startswith("platoonsim.")
             and getattr(mod, "validate_scenario", None) is original]
    assert bound == ["platoonsim.core"]
    monkeypatch.setattr(core, "validate_scenario", counted)
    return calls


class TestValidationCounts:
    """Each command validates its scenario once; the perturbation study
    validates its input once more, as a public entry point."""

    @pytest.mark.parametrize("command, preset, count", [
        ("simulate", "fig1_left", 1),
        ("compare", "fig1_right", 1),
        ("envelope", "fig4", 1),
        ("perturb", "fig5", 2),
    ])
    def test_cli_command(self, tmp_path, validate_calls, command, preset, count):
        assert run(command, "--preset", preset, "--out", str(tmp_path)) == 0
        assert len(validate_calls) == count

    def test_sweep_validates_every_grid_point_before_any_run(self, tmp_path, validate_calls,
                                                            monkeypatch):
        """The base scenario once, then each of the 4 grid points in grid order,
        all before the first run."""
        events = []
        simulate = sys.modules["platoonsim.sweep"].simulate
        monkeypatch.setattr(sys.modules["platoonsim.sweep"], "simulate",
                            lambda s, **k: events.append(len(validate_calls)) or simulate(s, **k))
        cfg = tmp_path / "s.ini"
        cfg.write_text(SWEEP_CFG, encoding="utf-8")
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        grid = validate_calls[1:]
        assert [(s.initial.vehicles[0].x, s.initial.vehicles[1].v) for s in grid] == [
            (1.0, 0.0), (1.0, 1.0), (5.0, 0.0), (5.0, 1.0)]
        assert events == [1 + len(grid)] * len(grid) == [5] * 4

    def test_convergence_study(self, validate_calls):
        parsed = load_preset("fig5")
        pert = parsed.perturbation
        s = parsed.scenario
        table = convergence_study(s, pert.resolved_g(s.horizon), pert.eps, strict=pert.strict)
        assert len(table.runs) == 6
        assert validate_calls == [s]


# SWEEP_CFG with two diagnostics that every grid point shares.
TWO_DIAGNOSTICS_CFG = SWEEP_CFG.replace("k_v = 1.0", "k_v = -1.0").replace("u_max = 1.95",
                                                                          "u_max = 2.5")


class TestValidationGate:
    """Every entry point refuses an invalid scenario with the same diagnostics."""

    def test_library_entry_points(self):
        parsed = parse_config(TWO_DIAGNOSTICS_CFG)
        s = parsed.scenario
        g = constant_profile(0.1, 0.0, 10.0)
        diags = validate_scenario(s)
        assert [d.field for d in diags] == ["params.k_v", "params.u_min"]
        for call in (lambda: simulate(s),
                     lambda: perturbed_simulate(s, PerturbationSpec(g, 0.5)),
                     lambda: convergence_study(s, g, [0.5, 0.25]),
                     lambda: run_sweep(s, parsed.sweep)):
            with pytest.raises(ScenarioError) as err:
                call()
            assert err.value.diagnostics == diags

    @pytest.mark.parametrize("command", ["simulate", "compare", "envelope", "perturb", "sweep"])
    def test_cli_command(self, tmp_path, capsys, command):
        cfg = tmp_path / "invalid.ini"
        cfg.write_text(TWO_DIAGNOSTICS_CFG, encoding="utf-8")
        out = tmp_path / "o"
        assert run(command, "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr() == ("", "invalid scenario: params.k_v: must be a positive "
                                           "finite number\ninvalid scenario: params.u_min: "
                                           "need 0 < u_min < u_max < v_bar\n")
        assert not out.exists()


def test_importing_the_cli_leaves_process_pools_unloaded():
    """Only a sweep with more than one worker needs a process pool: a fresh
    interpreter that imports the CLI has loaded neither concurrent.futures
    nor multiprocessing."""
    src = os.path.dirname(os.path.dirname(core.__file__))
    code = ("import sys\nimport platoonsim.cli\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_calls_in_one_process_carry_no_state(tmp_path, capsys):
    """Calls of main() in a row in one process: each sees only its own
    arguments, whatever the call before it overrode, refused or exited on."""
    out = tmp_path / "envelope"
    assert run("envelope", "--preset", "fig4", "--out", str(out), "--check-only") == 3
    assert not out.exists()
    assert run("envelope", "--preset", "fig4", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "certification.csv", "envelope.csv", "manifest.json", "trajectory.csv"]

    run("simulate", "--preset", "fig4", "--dt", "2", "--out", str(tmp_path / "coarse"))
    assert run("simulate", "--preset", "fig4", "--out", str(tmp_path / "fine")) == 0
    manifest = json.loads((tmp_path / "fine" / "manifest.json").read_text())
    assert manifest["scenario"]["stepper"]["dt"] == 0.01

    run("perturb", "--preset", "fig5", "--strict-eps", "true", "--out", str(tmp_path / "strict"))
    assert run("perturb", "--preset", "fig5", "--out", str(tmp_path / "config_mode")) == 0
    manifest = json.loads((tmp_path / "config_mode" / "manifest.json").read_text())
    assert manifest["strict"] is False

    for argv in (["--version"], ["simulate", "--preset", "zig", "--out", str(tmp_path / "zig")]):
        with pytest.raises(SystemExit):
            run(*argv)
    assert run("simulate", "--preset", "fig4", "--out", str(tmp_path / "again")) == 0
    for name in ("trajectory.csv", "manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "fine" / name).read_bytes()
    capsys.readouterr()

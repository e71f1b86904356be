"""run_record, the one summary of a run that the commands' outputs read,
checked on every run that every command makes."""

import csv
import json
import math
from dataclasses import fields

import pytest

from platoonsim import SolveStats, SolveStatus, run_record
from platoonsim import cli, perturbation, sweep
from platoonsim.presets import preset_text
from platoonsim.trajectory_io import fmt


def _int_fields(stats):
    return {f.name: getattr(stats, f.name) for f in fields(SolveStats) if f.type == "int"}


def _oracle(s, traj):
    """Each follower's minimum headway, the followers' speed range, and
    follower 1's terminal speed, settle time and time to the control band,
    by plain loops over the rows."""
    mins = [math.inf] * (traj.n_vehicles - 1)
    for row in traj.headways().tolist():
        for i, h in enumerate(row):
            mins[i] = min(mins[i], h)
    speeds = [v for row in traj.velocities[:, 1:].tolist() for v in row]
    times, v = traj.times.tolist(), traj.velocities[:, 1].tolist()
    settle = times[0]
    for k in range(len(times)):
        if abs(v[k] - v[-1]) > 0.01:
            settle = times[min(k + 1, len(times) - 1)]
    band = next((t for t, x in zip(times, v) if abs(x - s.controls[0].value(t)) < 0.01), None)
    return tuple(mins), min(speeds), max(speeds), v[-1], settle, band


def _checked_record(s, res):
    rec = run_record(s, res)
    assert rec.status is res.status and rec.stats == res.stats
    assert rec.counters == _int_fields(res.stats)
    assert (rec.collision_time is None) == (res.status is not SolveStatus.COLLISION_DETECTED)
    assert (rec.min_headways, rec.v_min, rec.v_max, rec.terminal_v, rec.settle_time,
            rec.band_time) == _oracle(s, res.trajectory)
    assert rec.min_headway == min(rec.min_headways)
    return rec


def _grid_text(sweep_lines, model="proposed", u="u = 0 100 const 1.9"):
    text = preset_text("sweep_demo").replace("T = 100.0", "T = 10.0")
    text = text.replace("proposed", model).replace("u = 0 100 const 1.9", u)
    return text[:text.index("[sweep]")] + "[sweep]\n" + sweep_lines


CONFIGS = {
    "sine_control": preset_text("fig1_left").replace(
        "u = 0 100 const 1.9", "u = 0 100 sin 0.9 0.3 0.2 0.0"),
    "varying_grid": _grid_text("n = 2, 4\nheadways = 1, 5\nvelocities = 0.6\n",
                               u="u = 0 100 sin 1.0 0.5 0.5 0.0"),
    "cacc_grid": _grid_text("n = 2, 4\nheadways = 0.1, 2\nvelocities = 0, 1.8\n", model="cacc"),
}

# Each command line and the number of runs it makes.
CASES = {
    "simulate fig1_left_cacc": 1,
    "simulate fig1_right_cacc": 1,
    "compare equilibrium": 3,
    "compare fig1_right": 3,
    "compare sine_control": 3,
    "envelope fig4": 1,
    "perturb fig5": 6,
    "sweep varying_grid": 4,
    "sweep cacc_grid": 8,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_run_of_every_command_has_its_record(case, tmp_path, monkeypatch, capsys):
    """Every run of simulate, of each law of compare, of envelope, of each
    eps of perturb and of each sweep row: the record's counters are the
    SolveStats int fields, its headways and speeds those of plain loops,
    and the outputs that read a run's summary read the record."""
    runs, sweeps = [], []
    for mod in (cli, perturbation, sweep):
        def recorded(s, *, real=mod.simulate, **kw):
            runs.append((s, real(s, **kw)))
            return runs[-1][1]
        monkeypatch.setattr(mod, "simulate", recorded)
    monkeypatch.setattr(cli, "run_sweep", lambda *a, real=cli.run_sweep, **kw:
                        sweeps.append(real(*a, **kw)) or sweeps[-1])
    command, name = case.split()
    if name in CONFIGS:
        (tmp_path / "c.ini").write_text(CONFIGS[name], encoding="utf-8")
        source = ["--config", str(tmp_path / "c.ini")]
    else:
        source = ["--preset", name]
    out = tmp_path / "out"
    code = cli.main([command, *source, "--out", str(out)])
    assert len(runs) == CASES[case]
    records = [_checked_record(s, res) for s, res in runs]

    def table(file):
        with open(out / file, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    if command == "simulate":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert {k: manifest[k] for k in records[0].counters} == records[0].counters
        assert manifest["status"] == records[0].status.value
    elif command == "compare":
        assert code == cli._STATUS_EXIT[records[0].status]
        assert [(row["status"], row["min_headway"], row["collision_time"],
                 row["terminal_velocity"], row["settle_time"], row["time_to_control_band"])
                for row in table("summary.csv")] == [
            (r.status.value, fmt(r.min_headways[0]),
             "-" if r.collision_time is None else fmt(r.collision_time), fmt(r.terminal_v),
             fmt(r.settle_time), "-" if r.band_time is None else fmt(r.band_time))
            for r in records]
    elif command == "sweep":
        (summaries,) = sweeps
        assert [r.record for r in summaries] == records
        assert [(row["status"], row["min_headway"], row["v_min"], row["v_max"], row["steps"])
                for row in table("runs.csv")] == [
            (r.status.value, fmt(r.min_headway), fmt(r.v_min), fmt(r.v_max), str(r.stats.steps))
            for r in records]

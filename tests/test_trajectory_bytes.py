"""trajectory.csv bytes, and the CSVs of the multi-file commands, pinned to
digests taken from earlier releases.

Criterion 9 compares reruns of one version; these digests hold the bytes
fixed across versions of the integrator and the CSV writer. Every run here
but those marked time-varying has constant profiles and, but for the ovfl
points, uses only + - * / on floats (no exp, sin or tanh), so correctly
rounded binary64 arithmetic gives the same bytes everywhere. The ovfl
points also call math.tanh, and the time-varying runs call math.sin on
their leader and control profiles, so those digests hold on a platform
whose libm rounds tanh and sin as glibc does.

The block writers are also held byte-equal to the per-row writers they
replaced, kept here as an oracle, on runs and on synthetic tables.
"""

import csv
import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from platoonsim import (CaccParams, ModelKind, PlatoonState, Trajectory, VehicleState,
                        build_envelope, expand_sweep, load_preset, parse_config, simulate)
from platoonsim.cli import main
from platoonsim.core import LeaderProfile
from platoonsim.presets import preset_text
from platoonsim.scenario_io import parse_profile
from platoonsim.trajectory_io import (_ROWS_PER_CHUNK, envelope_table, fmt, trajectory_header,
                                      trajectory_table, write_tables)

DIGESTS = {
    "fig1_left": "4c18b76fcfaa0777964e50f7be9ed10a6ee1edca083935337306897ba7b6cb79",
    "fig1_left_cacc": "46b77ad01f871c17506b8917ee3321279d50198623675bfeb7954dc60161b605",
    # a CACC rear-end collision: the run stops at the located crossing
    "fig1_right_cacc": "d0b77cc9f907f7e3618cbdb2174f4a59c6e196201a437971bad82e24e8c3a897",
    # n = 3: the first pinned run with two branch columns
    "equilibrium": "46406bc6393f257b99f74aa71d2222130b6ffe0aac3f9072805beb4e09216190",
    "fig4": "72ea30f995d4d182be99cec15f1c100cd10c7b6c54f8702a58490d256ee85e75",
    # sweep_demo grid point 209: n=8, headway 5, velocity 1.8, seven switches
    "sweep_demo[209]": "892c597d2a96e5fb146d37b6cb27d91a4423a81c38791f2a0a0a8160f89257d0",
    # benchmark sweep_grid points with n=32: three switches, and the ovfl law
    "sweep_grid[proposed, 2.0, 0.0]": "33a43a8683c85978d7695c65618f569256b0d154c8b0eacaf665eb03a460cdda",
    "sweep_grid[ovfl, 0.25, 0.8]": "ecb7cf592465ed35c9b605c5a8948f0a03a2e1898f3ee879798fff268b882916",
    # time-varying: a wave leader under ovfl
    "order_check": "5448a4b58cea5b3cf87e7d78411e1300227b05eea25565d887018dbaab33727a",
    # time-varying: a sine leader and sine controls, two followers sharing one
    # control object; four (proposed) and six (cacc) located switches
    "varying[proposed]": "199402156241e116650ca4e6d63acdaffc51ef1f4c73296e84f1fe6c3e13d382",
    "varying[cacc]": "227f8a9bd28ca84103e7914bd27b823997c2895bc4010101c08193514fb4d362",
}


def _sweep_grid_point(model, h0, v0):
    """A point of the benchmark's sweep_grid: sweep_demo's scenario under
    model, at T = 10, with n = 32, initial headway h0 and follower speed v0."""
    text = preset_text("sweep_demo").replace("proposed", model).replace("T = 100.0", "T = 10.0")
    text = text[:text.index("[sweep]")] + f"[sweep]\nn = 32\nheadways = {h0}\nvelocities = {v0}\n"
    cfg = parse_config(text)
    return expand_sweep(cfg.scenario, cfg.sweep)[0]


def _varying(model):
    """fig1_left's parameters on a platoon of four under a sine leader and
    sine controls, followers 2 and 3 sharing one control object as a
    sweep's broadcast controls do; both min-type laws switch branches."""
    s = load_preset("fig1_left").scenario
    shared = parse_profile("0 100 sin 1.0 0.5 2.0 0.2")
    s = replace(s, horizon=4.0,
                initial=PlatoonState((VehicleState(6.0, 1.0), VehicleState(4.0, 1.6),
                                      VehicleState(2.0, 1.2), VehicleState(0.0, 1.5))),
                leader=LeaderProfile(parse_profile("0 100 sin 0.0 0.5 2.0 0.5"), 1.0),
                controls=(parse_profile("0 100 sin 1.0 0.5 1.5 0.0"), shared, shared))
    if model == "cacc":
        s = replace(s, model_kind=ModelKind.CACC, params=CaccParams(s.base_params))
    return s


def _scenario(name):
    if name.startswith("varying["):
        return _varying(name[len("varying["):-1])
    if name.startswith("sweep_grid["):
        return _sweep_grid_point(*name[len("sweep_grid["):-1].split(", "))
    if name.startswith("sweep_demo["):
        cfg = load_preset("sweep_demo")
        return expand_sweep(cfg.scenario, cfg.sweep)[int(name[len("sweep_demo["):-1])]
    return load_preset(name).scenario


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_trajectory_csv_bytes_are_pinned(name, tmp_path):
    path = tmp_path / "trajectory.csv"
    write_tables([trajectory_table(simulate(_scenario(name)).trajectory, path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


# Every CSV each command writes, by file name, and the command's exit code.
COMMAND_DIGESTS = {
    # cacc.csv stops at its collision after 28 rows, beside two 10 001-row tables
    "compare fig1_right": (0, {
        "cacc.csv": "d0b77cc9f907f7e3618cbdb2174f4a59c6e196201a437971bad82e24e8c3a897",
        "ovfl.csv": "9aa1d8bca201db66a7da23957c9a340dc45a421e48a77e7872c6badf4d17500f",
        "proposed.csv": "9dd5b3d943d6b3b691c205929bf58eaa9a90d75459c4973590282b422e094179",
        "summary.csv": "b6213d9d4943bfd48a09807bd7871db69631a5fc3376f30d1ade1fc1155eea81",
    }),
    "perturb fig5": (0, {
        "convergence.csv": "d8a7cb6b26361433c0a4802cc6e05acec26ae117cb03193240fb3d60fdebca2c",
        "trajectory_eps_0.01.csv": "042fbb71e6b0d08461bc65ed001d21b852bcf1d783541c8f5c7beaf87a8de7b4",
        "trajectory_eps_0.05.csv": "3efa724ed26a1f6292fa0649a7185fffe5d715b550e6bb74161e47ad61e081ba",
        "trajectory_eps_0.1.csv": "b8e443bc58a716e1f89f14195ee997c3db21f87b0dd75305552dd3f04239548a",
        "trajectory_eps_0.5.csv": "9236fce76026a3158f69bd7f89b16868a2aebb620bc0b3c63bee7b8f0d05d727",
        "trajectory_eps_1.0.csv": "455f90456a5a64e625bef103c39267292f320b3ffa8a3ea84fb8231126c39340",
    }),
    "envelope fig4": (0, {
        "certification.csv": "f963d4f2db09495f5d3c8009fb958a8d91413bd13460efb345296afb33f6137c",
        "envelope.csv": "1fdd0cb22ea330ad7cae2eeaa695b210b65c5263efaef0d80b7dd16f7c470396",
        "trajectory.csv": "72ea30f995d4d182be99cec15f1c100cd10c7b6c54f8702a58490d256ee85e75",
    }),
    # the eps = 1000 run trips the guard after 45 steps; convergence.csv
    # is its header alone
    "perturb fig5_guard_trip": (4, {
        "convergence.csv": "857bf95c6fce54121d0f40482e334ad396d8a1b957e5d1ddff91feb5f8cae926",
        "trajectory_eps_1000.0.csv": "c5ac2a0ec69ea767635bd21960bd5fb1e510009044cf26341287eb9afa412665",
    }),
    # summary.csv has '-' in collision_time and time_to_control_band
    "compare fig1_left": (0, {
        "cacc.csv": "46b77ad01f871c17506b8917ee3321279d50198623675bfeb7954dc60161b605",
        "ovfl.csv": "cc7c09bd6ed8fc99a2acd8f11956ac881d55c4a8e718fe6a2b54e80844d105d7",
        "proposed.csv": "4c18b76fcfaa0777964e50f7be9ed10a6ee1edca083935337306897ba7b6cb79",
        "summary.csv": "9a6bad0542118f96a947aa378a7d3457dc7f6cdca7690064619ff261c47e980c",
    }),
    # n = 3: summary.csv reports follower 1, where runs.csv would reduce
    # over both followers
    "compare equilibrium": (0, {
        "cacc.csv": "7dda33b4193c965951b5a5ad5f785c88af317b3f55ab8103a6a38449a7b8c911",
        "ovfl.csv": "395b761e6e4b6b300e7dd3eec96144bcc59aa9707639458bfbf495eff93d4836",
        "proposed.csv": "46406bc6393f257b99f74aa71d2222130b6ffe0aac3f9072805beb4e09216190",
        "summary.csv": "758ec7ec8ab08af1e124038fcf0b3d860354760a95affea2c46a7d66e09ecfdf",
    }),
    # fig1_left under the control 0 100 sin 0.9 0.3 0.2 0.0: each law's
    # time_to_control_band compares its speeds with the control's values
    "compare sine_control": (0, {
        "cacc.csv": "b0c663cf80d514bafc370d18c4fba70bbf0cda0d61a951d7bc2301d2b25edf59",
        "ovfl.csv": "cc7c09bd6ed8fc99a2acd8f11956ac881d55c4a8e718fe6a2b54e80844d105d7",
        "proposed.csv": "b0c663cf80d514bafc370d18c4fba70bbf0cda0d61a951d7bc2301d2b25edf59",
        "summary.csv": "d0d41878a9d90e128606e11b5a1fd04a744ab0e9ae970d874cdb895d7e54d121",
    }),
    # a gridded gain column
    "sweep k_d_grid": (0, {
        "runs.csv": "8b4cc218743b35963004dd26f0a06aae8fe3b61cf05800f5c9db1f140f3cc1cd",
    }),
    # n = 2 and 4 under the broadcast control 0 100 sin 1.0 0.5 0.5 0.0
    "sweep varying_grid": (0, {
        "runs.csv": "becfa142eed7508f8899be37ff0a9ede5afc1ff47c9862d4b9fe5ec9f93a9308",
    }),
    # four collisions, '-' margins and a negative v_min
    "sweep cacc_grid": (0, {
        "runs.csv": "b9839a3750d3f536a787a43358e27652244350584a9a33a965712b369a61ebd1",
    }),
}


def _k_d_grid_text():
    """sweep_demo at T = 10 over n = 2, two headways and a k_d grid."""
    text = preset_text("sweep_demo").replace("T = 100.0", "T = 10.0")
    return (text[:text.index("[sweep]")]
            + "[sweep]\nn = 2\nheadways = 1, 5\nvelocities = 1\nk_d = 0.1, 0.2\n")


def _cacc_grid_text():
    """sweep_demo under CACC at T = 10 over n = 2, 4, headways 0.1, 2,
    velocities 0, 1.8 and a k_d grid."""
    text = preset_text("sweep_demo").replace("proposed", "cacc").replace("T = 100.0", "T = 10.0")
    return (text[:text.index("[sweep]")] + "[sweep]\nn = 2, 4\nheadways = 0.1, 2\n"
            "velocities = 0, 1.8\nk_d = 0.1, 0.2\n")


def _varying_grid_text():
    """sweep_demo at T = 10 under a sine control over n = 2, 4, headways 1,
    5 and velocity 0.6: every follower reads one broadcast control object."""
    text = preset_text("sweep_demo").replace("T = 100.0", "T = 10.0").replace(
        "u = 0 100 const 1.9", "u = 0 100 sin 1.0 0.5 0.5 0.0")
    return text[:text.index("[sweep]")] + "[sweep]\nn = 2, 4\nheadways = 1, 5\nvelocities = 0.6\n"


def _source(name, tmp_path, fig5_guard_trip_text):
    """The CLI source arguments of a preset or of one of the configs above."""
    texts = {"fig5_guard_trip": fig5_guard_trip_text, "k_d_grid": _k_d_grid_text(),
             "cacc_grid": _cacc_grid_text(), "varying_grid": _varying_grid_text(),
             "sine_control": preset_text("fig1_left").replace(
                 "u = 0 100 const 1.9", "u = 0 100 sin 0.9 0.3 0.2 0.0")}
    if name not in texts:
        return ["--preset", name]
    (tmp_path / f"{name}.ini").write_text(texts[name], encoding="utf-8")
    return ["--config", str(tmp_path / f"{name}.ini")]


@pytest.mark.parametrize("case", sorted(COMMAND_DIGESTS))
def test_command_csv_bytes_are_pinned(case, tmp_path, capsys, fig5_guard_trip_text):
    command, name = case.split()
    out = tmp_path / "out"
    code, digests = COMMAND_DIGESTS[case]
    assert main([command, *_source(name, tmp_path, fig5_guard_trip_text), "--out", str(out)]) == code
    listing = sorted(p.name for p in out.iterdir())
    assert listing == sorted([*digests, "manifest.json"])
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"] == listing
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


# manifest.json of each command, whole: the resolved scenario (the cacc
# constants, the stepper defaults, the profile segments) and the run's record.
MANIFEST_DIGESTS = {
    "simulate fig1_left_cacc": (0, "e6857b746e93991540c72045fa2013400aa907ab7e975c2cde3723fe932cd0a8"),
    "perturb fig5": (0, "6c4151c5dcb3b6740c0339232671f3da6fbade962323eda736e6f493a6159a52"),
    "envelope fig4": (0, "90ecf9da221f6d8f158f0b4341b6a5832170d49c762163b2320a13c317820a3a"),
    "sweep k_d_grid": (0, "dd4a379ba782c972cf13ad568bca86263b977da1fde9764419efb86eb9aecc54"),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_DIGESTS))
def test_manifest_bytes_are_pinned(case, tmp_path, capsys, fig5_guard_trip_text):
    command, name = case.split()
    out = tmp_path / "out"
    code, digest = MANIFEST_DIGESTS[case]
    assert main([command, *_source(name, tmp_path, fig5_guard_trip_text), "--out", str(out)]) == code
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == digest


def _oracle_trajectory_csv(traj, path):
    """The per-row writer: one join of reprs and branch digits per row."""
    n = traj.n_vehicles
    values = np.empty((traj.n_points, 3 * n))
    values[:, 0] = traj.times
    values[:, 1:2 * n + 1:2] = traj.positions
    values[:, 2:2 * n + 1:2] = traj.velocities
    values[:, 2 * n + 1:] = traj.headways()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(trajectory_header(n)) + "\n")
        for xs, bs in zip(values.tolist(), traj.branches.tolist()):
            fh.write(",".join([*map(repr, xs), *map(str, bs)]) + "\n")


def _oracle_envelope_csv(traj, env, path, follower=1):
    """The csv.writer writer: one fmt call per cell."""
    t = traj.times
    cols = (t, traj.velocities[:, follower], env.V_lo(t), env.V_hi(t),
            traj.positions[:, follower - 1] - traj.positions[:, follower], env.h_hi(t))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "v", "V_lo", "V_hi", "h", "h_hi"])
        w.writerows([fmt(x) for x in row] for row in zip(*(c.tolist() for c in cols)))


_SPECIAL = [-0.0, 5e-324, 1e-05, 1e16, 1e22, float("inf"), float("nan")]


def _synthetic(rows):
    """Three vehicles, so seven float columns: random floats of mixed scale,
    each special cell in every column of the first seven rows, and random
    branch codes."""
    rng = np.random.default_rng(rows)
    cells = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-8, 9, (rows, 7))
    cells[:7] = [np.roll(_SPECIAL, k) for k in range(7)]
    traj = Trajectory(times=cells[:, 0], positions=cells[:, 1::2], velocities=cells[:, 2::2],
                      branches=rng.integers(0, 3, (rows, 2)).astype(np.int8))
    env = SimpleNamespace(V_lo=lambda t: cells[:, 3], V_hi=lambda t: cells[:, 5],
                          h_hi=lambda t: cells[:, 6])
    return traj, env


def _run(name):
    s = load_preset(name).scenario
    traj = simulate(s).trajectory
    return traj, build_envelope(s, traj)


_CASES = {
    "fig4": lambda: _run("fig4"),
    "equilibrium": lambda: _run("equilibrium"),
    "fig1_right_cacc": lambda: (simulate(load_preset("fig1_right_cacc").scenario).trajectory, None),
    **{f"synthetic[{rows}]": (lambda rows=rows: _synthetic(rows))
       for rows in (_ROWS_PER_CHUNK - 1, _ROWS_PER_CHUNK, _ROWS_PER_CHUNK + 1, 2 * _ROWS_PER_CHUNK + 1)},
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_block_writers_match_per_row_writers(case, tmp_path):
    traj, env = _CASES[case]()
    write_tables([trajectory_table(traj, tmp_path / "new.csv")])
    _oracle_trajectory_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    if env is not None:
        write_tables([envelope_table(traj, env, tmp_path / "new_env.csv")])
        _oracle_envelope_csv(traj, env, tmp_path / "old_env.csv")
        assert (tmp_path / "new_env.csv").read_bytes() == (tmp_path / "old_env.csv").read_bytes()


def _signed_zeros_flipped(a):
    """a with -0.0 and 0.0 swapped: equal to a as numbers, not as bytes."""
    return np.where(a == 0.0, np.copysign(0.0, -np.copysign(1.0, a)), a)


def _oracle_mixed_csv(words, ints, floats, path):
    """The csv.writer writer of a table of strings, ints and floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["word", "int", "float"])
        w.writerows([s, str(i), fmt(x)] for s, i, x in zip(words, ints.tolist(), floats.tolist()))


def test_one_pass_over_many_tables_matches_the_per_table_oracles(tmp_path):
    """Seven tables in one write_tables call, each byte-equal to its oracle.

    b shares a's time and leader columns in the first block, and its x_1
    holds a's x_1 with every signed zero flipped (a NaN-free column, so
    equal as numbers): a writer that keyed blocks by value would print
    one's -0.0 where the other holds 0.0. b's two followers share one
    velocity column, and each envelope table shares t and three more
    columns with its trajectory. c is one row shorter than a block, b one
    block long and a one row longer. The mixed table, as long as a, holds
    a string column of words and '-' cells, an int array, and a's x_1 with
    its signed zeros.
    """
    m = _ROWS_PER_CHUNK
    a, env_a = _synthetic(m + 1)
    zeros = np.round(np.random.default_rng(0).standard_normal(m + 1))
    positions = a.positions.copy()
    positions[:, 1] = zeros
    a = replace(a, positions=positions)
    positions = positions[:m].copy()
    positions[:, 1] = _signed_zeros_flipped(positions[:, 1])
    velocities = a.velocities[:m].copy()
    velocities[:, 2] = velocities[:, 1]
    b = Trajectory(times=a.times[:m], positions=positions, velocities=velocities,
                   branches=a.branches[:m])
    env_b = SimpleNamespace(V_lo=lambda t: positions[:, 1], V_hi=lambda t: positions[:, 2],
                            h_hi=lambda t: velocities[:, 2])
    c, env_c = _synthetic(m - 1)
    assert np.array_equal(b.positions[:, 1], a.positions[:m, 1])
    assert b.positions[:, 1].tobytes() != a.positions[:m, 1].tobytes()
    runs = {"a": (a, env_a), "b": (b, env_b), "c": (c, env_c)}
    order = ["traj_b", "traj_a", "env_c", "env_a", "traj_c", "env_b"]
    tables = [trajectory_table(runs[k[-1]][0], tmp_path / f"{k}.csv") if k.startswith("traj")
              else envelope_table(*runs[k[-1]], tmp_path / f"{k}.csv") for k in order]
    words = ["-" if k % 3 else f"w{k}" for k in range(m + 1)]
    ints = np.arange(m + 1) * 7 - 500
    tables.insert(3, (tmp_path / "mixed.csv", ["word", "int", "float"],
                      [words, ints, a.positions[:, 1]]))
    write_tables(tables)
    _oracle_mixed_csv(words, ints, a.positions[:, 1], tmp_path / "oracle.csv")
    assert (tmp_path / "mixed.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert b",-0.0\n" in (tmp_path / "mixed.csv").read_bytes()
    for k in order:
        traj, env = runs[k[-1]]
        if k.startswith("traj"):
            _oracle_trajectory_csv(traj, tmp_path / "oracle.csv")
        else:
            _oracle_envelope_csv(traj, env, tmp_path / "oracle.csv")
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes(), k


def test_constant_column_blocks_match_the_per_row_oracle(tmp_path):
    """Blocks that hold one value, bit for bit, take its repr once: columns
    of all 0.0, all -0.0 and all NaN, constant int8 branch codes, and
    columns constant but for the last row of a block (a float and a branch
    code) or of the run. Two columns hold one value as numbers but not as
    bytes: 0.0 with every seventh row -0.0 (the time column), and NaNs
    whose signs and payloads differ. The last block is one row long."""
    m = 2 * _ROWS_PER_CHUNK + 1
    nan = np.float64("nan")
    odd_nans = np.full(m, nan)
    odd_nans[1::3] = -nan
    odd_nans.view(np.uint64)[2::3] |= 1
    positions = np.stack([np.zeros(m), np.full(m, -0.0), np.full(m, nan)], axis=1)
    velocities = np.stack([np.full(m, 1.5), odd_nans, np.full(m, 0.1)], axis=1)
    velocities[_ROWS_PER_CHUNK - 1, 0] = 1.25
    velocities[-1, 2] = 0.2
    branches = np.stack([np.full(m, 2), np.full(m, 1)], axis=1).astype(np.int8)
    branches[_ROWS_PER_CHUNK - 1, 1] = 0
    times = np.zeros(m)
    times[::7] = -0.0
    traj = Trajectory(times=times, positions=positions, velocities=velocities,
                      branches=branches)
    write_tables([trajectory_table(traj, tmp_path / "new.csv")])
    _oracle_trajectory_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert b",-0.0," in (tmp_path / "new.csv").read_bytes()

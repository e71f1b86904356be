"""Grid expansion and the batch runner."""

import pytest

from platoonsim import (
    CaccParams,
    SweepConfig,
    expand_sweep,
    headway_lower_bound,
    load_preset,
    parse_config,
    run_sweep,
    simulate,
    trajectory_headway_integral,
    write_sweep_csv,
)

SMALL = """\
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
n = 2, 3
headways = 1, 5
velocities = 0, 1
"""


@pytest.fixture(scope="module")
def small_cfg():
    return parse_config(SMALL)


class TestExpand:
    def test_grid_order_and_size(self, small_cfg):
        scenarios = expand_sweep(small_cfg.scenario, small_cfg.sweep)
        assert len(scenarios) == 8 == small_cfg.sweep.size()
        # outer axis is n, then headway, then velocity
        sizes = [len(s.initial.vehicles) for s in scenarios]
        assert sizes == [2, 2, 2, 2, 3, 3, 3, 3]

    def test_geometry(self, small_cfg):
        scenarios = expand_sweep(small_cfg.scenario, small_cfg.sweep)
        s = scenarios[5]  # n=3, h0=1, v0=1
        xs = [veh.x for veh in s.initial.vehicles]
        assert xs == [2.0, 1.0, 0.0]
        vs = [veh.v for veh in s.initial.vehicles]
        assert vs == [1.0, 1.0, 1.0]  # leader keeps the base v0
        assert len(s.controls) == 2

    def test_leader_velocity_pinned_to_base(self, small_cfg):
        scenarios = expand_sweep(small_cfg.scenario, small_cfg.sweep)
        for s in scenarios:
            assert s.initial.vehicles[0].v == small_cfg.scenario.leader.v0

    def test_param_grid_overrides(self, small_cfg):
        cfg = SweepConfig(n=(2,), headways=(1.0,), velocities=(0.0,),
                          param_grids={"k_d": (0.1, 0.3)})
        scenarios = expand_sweep(small_cfg.scenario, cfg)
        assert [s.params.k_d for s in scenarios] == [0.1, 0.3]
        assert all(s.params.k_v == 1.0 for s in scenarios)

    def test_param_grid_overrides_keep_cacc_params(self):
        base = parse_config(SMALL.replace("model_kind = proposed", "model_kind = cacc\nk_a = 0.7"))
        cfg = SweepConfig(n=(2,), headways=(1.0,), velocities=(0.0,),
                          param_grids={"k_d": (0.1, 0.3)})
        scenarios = expand_sweep(base.scenario, cfg)
        assert all(isinstance(s.params, CaccParams) and s.params.k_a == 0.7 for s in scenarios)
        assert [s.params.base.k_d for s in scenarios] == [0.1, 0.3]


class TestRunSweep:
    def test_single_worker(self, small_cfg):
        rows = run_sweep(small_cfg.scenario, small_cfg.sweep, workers=1)
        assert [r.index for r in rows] == list(range(8))
        assert all(r.status == "completed" for r in rows)
        assert all(r.min_headway > 0.0 for r in rows)
        assert all(r.bound_margin is not None and r.bound_margin > -1e-6 for r in rows)

    def test_bound_margin_is_the_worst_follower_floor_margin(self, small_cfg):
        """Differential check against the floor computed directly from the
        trajectory, for every follower of the n = 3 runs."""
        rows = run_sweep(small_cfg.scenario, small_cfg.sweep, workers=1)
        scenarios = expand_sweep(small_cfg.scenario, small_cfg.sweep)
        checked = 0
        for r, s in zip(rows, scenarios):
            if r.n != 3:
                continue
            traj = simulate(s).trajectory
            h = traj.headways()
            margins = [
                float(h[:, i - 1].min()) - headway_lower_bound(
                    s.params, float(h[0, i - 1]), float(traj.velocities[0, i]),
                    trajectory_headway_integral(traj, i))
                for i in (1, 2)]
            assert r.bound_margin == min(margins)
            checked += 1
        assert checked == 4

    def test_worker_count_does_not_change_results(self, small_cfg):
        a = run_sweep(small_cfg.scenario, small_cfg.sweep, workers=1)
        b = run_sweep(small_cfg.scenario, small_cfg.sweep, workers=2)
        assert a == b

    def test_velocities_stay_in_box(self, small_cfg):
        rows = run_sweep(small_cfg.scenario, small_cfg.sweep, workers=1)
        v_bar = small_cfg.scenario.base_params.v_bar
        for r in rows:
            assert r.v_min >= -1e-9
            assert r.v_max <= v_bar + 1e-9

    def test_reference_grid_collision_free(self, small_cfg):
        # tightest published grid: tiny to generous gaps, slow to near-cap speeds
        cfg = SweepConfig(n=(2,), headways=(0.1, 0.5, 1.0, 5.0),
                          velocities=(0.0, 0.5, 1.485))
        rows = run_sweep(small_cfg.scenario, cfg, workers=1)
        assert len(rows) == 12
        assert all(r.status == "completed" for r in rows)
        assert all(r.collision_time is None for r in rows)


class TestCsv:
    def test_header_and_shape(self, small_cfg, tmp_path):
        rows = run_sweep(small_cfg.scenario, small_cfg.sweep, workers=1)
        path = tmp_path / "runs.csv"
        write_sweep_csv(rows, [], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("index,n,headway0,v0,status,min_headway,"
                            "v_min,v_max,bound_margin,collision_time,steps")
        assert len(lines) == 9
        assert lines[1].startswith("0,2,")

    def test_grid_key_columns(self, small_cfg, tmp_path):
        cfg = SweepConfig(n=(2,), headways=(1.0,), velocities=(0.0,),
                          param_grids={"k_d": (0.1, 0.3)})
        rows = run_sweep(small_cfg.scenario, cfg, workers=1)
        path = tmp_path / "runs.csv"
        write_sweep_csv(rows, ["k_d"], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",")[4] == "k_d"
        assert lines[1].split(",")[4] == "0.1"
        assert lines[2].split(",")[4] == "0.3"


def test_sweep_demo_preset_covers_requirement():
    cfg = load_preset("sweep_demo")
    assert cfg.sweep.size() >= 200
    assert set(cfg.sweep.n) == {2, 4, 8}


@pytest.mark.parametrize("law", ["proposed", "cacc", "ovfl"])
def test_bound_margin_only_for_the_min_type_law(law, tmp_path):
    """The certified headway floor is a property of the min-type law; the
    baselines get '-' in runs.csv rather than margins that read like
    certificate violations."""
    base = parse_config(SMALL.replace("model_kind = proposed", f"model_kind = {law}"))
    cfg = SweepConfig(n=(2, 3), headways=(1.0, 5.0), velocities=(0.0,))
    rows = run_sweep(base.scenario, cfg, workers=1)
    path = tmp_path / "runs.csv"
    write_sweep_csv(rows, [], path)
    margins = [line.split(",")[8] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(margins) == 4
    if law == "proposed":
        assert all(float(m) >= -1e-6 for m in margins)
    else:
        assert margins == ["-"] * 4

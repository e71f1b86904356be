"""Acceptance gate: one test per published completion criterion.

pytest -v prints one pass/fail line per criterion; each test also prints
the quantities it measured so a red run comes with its numbers attached.
The sweep (criteria 1 and 2) and the fine reference solution (criterion 6)
are shared module fixtures because they dominate the runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from platoonsim import (
    PRESET_NAMES,
    PlatoonState,
    SolveStatus,
    StepperConfig,
    VehicleState,
    build_envelope,
    certify_trajectory,
    estimate_lipschitz,
    gronwall_bound,
    load_preset,
    max_perturbation_scale,
    pair_signals,
    perturbed_simulate,
    PerturbationSpec,
    reference_solve,
    run_sweep,
    simulate,
)
from platoonsim.cli import main


@pytest.fixture(scope="module")
def demo_sweep():
    cfg = load_preset("sweep_demo")
    t0 = time.perf_counter()
    rows = run_sweep(cfg.scenario, cfg.sweep, workers=1)
    elapsed = time.perf_counter() - t0
    return cfg, rows, elapsed


@pytest.fixture(scope="module")
def order_reference():
    s = load_preset("order_check").scenario
    return s, reference_solve(s, 1e-5)


def test_criterion_1_sweep_collision_free_with_certified_floor(demo_sweep):
    cfg, rows, elapsed = demo_sweep
    assert len(rows) >= 200
    assert all(r.record.status.value == "completed" for r in rows)
    min_h = min(r.record.min_headway for r in rows)
    worst_margin = min(r.bound_margin for r in rows)
    print(f"runs={len(rows)} min_headway={min_h!r} "
          f"worst_bound_margin={worst_margin!r} elapsed={elapsed:.1f}s")
    assert min_h > 0.0
    assert worst_margin >= -1e-6
    assert elapsed <= 60.0


def test_criterion_2_sweep_velocity_box(demo_sweep):
    cfg, rows, _ = demo_sweep
    v_bar = cfg.scenario.base_params.v_bar
    v_min = min(r.record.v_min for r in rows)
    v_max = max(r.record.v_max for r in rows)
    print(f"follower velocities in [{v_min!r}, {v_max!r}], cap {v_bar}")
    assert v_min >= -1e-9
    assert v_max <= v_bar + 1e-9


def test_criterion_3_baseline_collides_where_min_law_does_not():
    cacc = simulate(load_preset("fig1_right_cacc").scenario)
    assert cacc.status is SolveStatus.COLLISION_DETECTED
    t_col, follower = cacc.trajectory.collision
    print(f"cacc collision at t={t_col!r} (follower {follower})")
    assert t_col < 100.0

    prop = simulate(load_preset("fig1_right").scenario)
    min_h = float(prop.trajectory.headways().min())
    print(f"min-type law min headway {min_h!r}")
    assert prop.status is SolveStatus.COMPLETED
    assert min_h > 0.0


def test_criterion_4_reference_run_certifies():
    s = load_preset("fig4").scenario
    res = simulate(s)
    assert res.status is SolveStatus.COMPLETED
    env = build_envelope(s, res.trajectory)
    report = certify_trajectory(res.trajectory, env, tol=1e-6)
    for name, margin, t, ok in report.rows():
        print(f"{name}: margin {margin!r} at t={t!r} -> {'pass' if ok else 'FAIL'}")
    assert len(report.checks) == 4
    assert report.passed


def test_criterion_5_perturbation_distances_shrink_linearly():
    cfg = load_preset("fig5")
    s = cfg.scenario
    g = cfg.perturbation.resolved_g(s.horizon)
    eps0 = max_perturbation_scale(g, s.leader, s.base_params.v_bar, s.horizon)
    base = simulate(s)
    _, xi0, zeta0 = pair_signals(base.trajectory)
    dist = {}
    for eps in cfg.perturbation.eps:
        res = perturbed_simulate(s, PerturbationSpec(g, eps),
                                 strict=cfg.perturbation.strict)
        _, xi, zeta = pair_signals(res.trajectory)
        dist[eps] = float(np.hypot(xi - xi0, zeta - zeta0).max())
        print(f"eps={eps}: sup distance {dist[eps]!r}")
    print(f"admissible max eps {eps0!r}")
    ordered = [dist[e] for e in sorted(dist, reverse=True)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))
    ratio = dist[0.01] / dist[0.1]
    print(f"distance(0.01)/distance(0.1) = {ratio!r}")
    assert 0.05 <= ratio <= 0.2


def test_criterion_6_integrator_is_fourth_order(order_reference):
    s, ref = order_reference
    assert ref.stats.switch_refinements == 0
    rx = np.asarray(ref.trajectory.positions)
    rv = np.asarray(ref.trajectory.velocities)
    errs = {}
    for dt in (0.1, 0.05, 0.025, 0.0125):
        r = simulate(replace(s, stepper=StepperConfig(dt=dt)))
        idx = np.round(np.asarray(r.trajectory.times) / 1e-5).astype(int)
        errs[dt] = max(
            np.abs(np.asarray(r.trajectory.positions) - rx[idx]).max(),
            np.abs(np.asarray(r.trajectory.velocities) - rv[idx]).max(),
        )
        print(f"dt={dt}: sup error {errs[dt]!r}")
    for dt in (0.1, 0.05, 0.025):
        ratio = errs[dt] / errs[dt / 2]
        print(f"error({dt})/error({dt / 2}) = {ratio:.2f}")
        assert 12.0 <= ratio <= 20.0


def test_criterion_7_initial_condition_sensitivity_under_growth_bound():
    s = load_preset("fig1_left").scenario
    base = simulate(s)
    tr = base.trajectory
    h = tr.headways()
    box = ((float(h.min()) * 0.95, float(h.max()) * 1.05),
           (0.0, s.base_params.v_bar))
    C_L = estimate_lipschitz(s.base_params, box)
    print(f"state box {box}, Lipschitz estimate {C_L!r}")
    _, xi0, zeta0 = pair_signals(tr)
    slopes = []
    for delta in (1e-4, 1e-3, 1e-2):
        follower = s.initial.vehicles[1]
        shifted = PlatoonState((s.initial.vehicles[0],
                                VehicleState(follower.x, follower.v + delta)))
        res = simulate(replace(s, initial=shifted))
        _, xi, zeta = pair_signals(res.trajectory)
        d = float(np.hypot(xi - xi0, zeta - zeta0).max())
        bound = gronwall_bound(C_L, s.horizon, delta)
        print(f"delta={delta}: sup distance {d!r}, growth bound {bound!r}")
        assert d <= bound
        slopes.append(d / delta)
    band = max(slopes) / min(slopes)
    print(f"distance/delta slopes {slopes}, spread factor {band!r}")
    assert band <= 2.0


def test_criterion_8_exact_equilibria_do_not_drift():
    for name in ("equilibrium", "equilibrium_cacc", "equilibrium_ovfl"):
        s = load_preset(name).scenario
        res = simulate(s)
        assert res.status is SolveStatus.COMPLETED
        tr = res.trajectory
        v_eq = s.initial.vehicles[0].v
        h_eq = s.initial.vehicles[0].x - s.initial.vehicles[1].x
        v_drift = float(np.abs(np.asarray(tr.velocities) - v_eq).max())
        h_drift = float(np.abs(tr.headways() - h_eq).max())
        rate = max(v_drift, h_drift) / s.horizon
        print(f"{name}: velocity drift {v_drift!r}, headway drift {h_drift!r}, "
              f"rate {rate!r}/unit time")
        assert rate <= 1e-10


def test_criterion_9_rerunning_presets_is_byte_identical(tmp_path):
    def argv(name, out):
        if name == "fig5":
            return ["perturb", "--preset", name, "--out", str(out)]
        if name == "sweep_demo":
            return ["sweep", "--preset", name, "--out", str(out), "--workers", "4"]
        return ["simulate", "--preset", name, "--out", str(out)]

    for name in PRESET_NAMES:
        a = tmp_path / name / "a"
        b = tmp_path / name / "b"
        code_a = main(argv(name, a))
        code_b = main(argv(name, b))
        assert code_a == code_b
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), \
                f"{name}: {fname} differs between reruns"
        print(f"{name}: {len(files_a)} files identical (exit {code_a})")

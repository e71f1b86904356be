"""The benchmark's workloads: CLI commands, the inputs a seed picks, output checks.

A seed picks each workload's inputs from fixed pools. The pools are chosen so
that every pick does the same amount of work, within a few percent, so the
run-to-run spread measures the program and not the pick.

sweep_grid
    Two ``sweep`` commands over one sub-grid: the min-type law, then the
    forward-looking (ovfl) law. The n axis is fixed at 2, 8 and 32; one
    headway per half and one velocity per third of ``sweep_demo``'s axes are
    drawn. The integrator and the sweep layer do nearly all the work.
envelope_certify
    ``envelope`` on fig4 (1001 grid points, T=10), then on a drawn fig1/fig3
    preset at dt=0.08 (1251 grid points, T=100), then ``envelope
    --check-only`` on the trajectory just written. Certification quadrature
    dominates; the trajectory CSV is written and read back.
cli_mix
    ``simulate`` on a drawn fig1_left or fig1_right, ``compare`` on
    fig1_right (all three laws, including the CACC collision bisection), then
    ``perturb`` on fig5. Single runs, 10k-row trajectory CSVs, the
    perturbation layer.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep_grid", "envelope_certify", "cli_mix")

SWEEP_N = (2, 8, 32)
SWEEP_HORIZON = 10.0
ENVELOPE_DT = "0.08"

# sweep_demo's scenario with a shorter horizon; the [sweep] axes are drawn.
_SWEEP_INI = """\
[params]
model_kind = {model}
k_v = 1.0
k_d = 0.2
k = 0.3
tau_s = 1.4
v_bar = 2.0
u_min = 0.1
u_max = 1.95
T = {T!r}

[initial]
positions = 5, 0
velocities = 1, 0

[leader]
v0 = 1.0
profile = 0 {T!r} const 0.0

[controls]
u = 0 {T!r} const 1.9

[stepper]
dt = 0.01

[sweep]
n = {n}
headways = {headways}
velocities = {velocities}
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation. Outputs go to ``<out>/<label>``; checks read them."""

    label: str
    args: tuple[str, ...]
    checks: tuple = ()

    def argv(self, out: Path) -> list[str]:
        return [*self.args, "--out", str(out / self.label)]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[Command, ...]
    inputs: str  # what the seed picked, for the report
    configs: dict[str, str] = field(default_factory=dict)  # file name -> INI text


def build(name: str, seed: int, program, cfg_dir: Path) -> Workload:
    """The workload for this seed, with its config files written to cfg_dir."""
    rng = random.Random(f"{name}:{seed}")
    wl = _BUILDERS[name](rng, seed, program, cfg_dir)
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.configs.items():
        (cfg_dir / fname).write_text(text, encoding="utf-8")
    return wl


def _strata(rng: random.Random, values, k: int) -> tuple[float, ...]:
    """One value from each of k consecutive slices of the sorted axis."""
    v = sorted(values)
    return tuple(rng.choice(v[i * len(v) // k:(i + 1) * len(v) // k]) for i in range(k))


def _sweep_grid(rng, seed, program, cfg_dir: Path) -> Workload:
    demo = program.scenario_io.parse_config(program.presets.preset_text("sweep_demo")).sweep
    headways = _strata(rng, demo.headways, 2)
    velocities = _strata(rng, demo.velocities, 3)
    joined = lambda xs: ", ".join(repr(float(x)) for x in xs)
    grid = dict(T=SWEEP_HORIZON, n=", ".join(map(str, SWEEP_N)),
                headways=joined(headways), velocities=joined(velocities))
    size = len(SWEEP_N) * len(headways) * len(velocities)
    configs = {f"sweep_{m}.ini": _SWEEP_INI.format(model=m, **grid) for m in ("proposed", "ovfl")}
    for text in configs.values():
        program.scenario_io.parse_config(text)
    sweep = lambda m, checks: Command(
        f"sweep_{m}", ("sweep", "--config", str(cfg_dir / f"sweep_{m}.ini"), "--workers", "1"),
        checks)
    return Workload(
        "sweep_grid", seed,
        (sweep("proposed", (_runs_rows(size), _runs_certified)), sweep("ovfl", (_runs_rows(size),))),
        f"n={grid['n']} headways={grid['headways']} velocities={grid['velocities']}",
        configs)


def _envelope_certify(rng, seed, program, cfg_dir: Path) -> Workload:
    pool = [p for p in program.presets.PRESET_NAMES
            if p.startswith(("fig1_", "fig3"))
            and program.presets.load_preset(p).scenario.model_kind.value == "proposed"]
    program.presets.load_preset("fig4")
    pick = rng.choice(pool)
    drawn = ("envelope", "--preset", pick, "--dt", ENVELOPE_DT)
    return Workload("envelope_certify", seed, (
        Command("fig4", ("envelope", "--preset", "fig4"), (_certified,)),
        Command(pick, drawn, (_certified,)),
        Command(pick, (*drawn, "--check-only")),
    ), f"preset={pick} dt={ENVELOPE_DT}")


def _cli_mix(rng, seed, program, cfg_dir: Path) -> Workload:
    pick = rng.choice(("fig1_left", "fig1_right"))
    for p in (pick, "fig1_right", "fig5"):
        program.presets.load_preset(p)
    return Workload("cli_mix", seed, (
        Command("simulate", ("simulate", "--preset", pick)),
        Command("compare", ("compare", "--preset", "fig1_right"), (_cacc_collides,)),
        Command("perturb", ("perturb", "--preset", "fig5"), (_converges,)),
    ), f"simulate={pick}")


_BUILDERS = {"sweep_grid": _sweep_grid, "envelope_certify": _envelope_certify,
             "cli_mix": _cli_mix}


# Output checks: each takes the command's output directory and returns the
# problems found (an empty list when the output is correct).

def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _runs_rows(expected: int):
    def check(out: Path) -> list[str]:
        n = len(_rows(out / "runs.csv"))
        return [] if n == expected else [f"runs.csv has {n} rows, expected {expected}"]
    return check


def _runs_certified(out: Path) -> list[str]:
    bad = [r["index"] for r in _rows(out / "runs.csv")
           if r["status"] != "completed" or not float(r["min_headway"]) > 0.0
           or r["bound_margin"] == "-" or not float(r["bound_margin"]) >= 0.0]
    return [f"runs.csv rows {bad} break completed / min_headway > 0 / bound_margin >= 0"] if bad else []


def _certified(out: Path) -> list[str]:
    failed = [r["check"] for r in _rows(out / "certification.csv") if r["passed"] != "true"]
    return [f"certification.csv checks failed: {failed}"] if failed else []


def _cacc_collides(out: Path) -> list[str]:
    status = {r["model"]: r["status"] for r in _rows(out / "summary.csv")}
    return [] if status.get("cacc") == "collision_detected" else [
        f"summary.csv: cacc status {status.get('cacc')!r}, expected collision_detected"]


def _converges(out: Path) -> list[str]:
    rows = _rows(out / "convergence.csv")
    d = [float(r["sup_distance"]) for r in sorted(rows, key=lambda r: float(r["eps"]))[:3]]
    ok = len(d) == 3 and d[0] < d[1] < d[2]
    return [] if ok else [f"convergence.csv: smallest-eps distances {d} do not strictly decrease"]

"""Run every CLI command on two source trees and report each difference.

    python tools/diff_cli_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository whose package is imported from
TREE/src. Every command runs on every preset: simulate, compare, envelope
followed by envelope --check-only on its output, perturb with the
config's mode and with each --strict-eps value, and sweep. Fixed extras
add --dt overrides that collide, a k_d-grid sweep, a CACC grid sweep
with collisions and '-' margins, a compare of fig1_left under a sine
control and a sweep under a sine broadcast control. The extras' config
files are built from CHANGE_TREE's preset texts.

Every step runs in a fresh process per tree, each case with its own
--out directory, deleted once compared; in stdout and stderr its path
reads <OUT> and the scratch directory's <TMP>. A case differs when an
exit code, stdout, stderr, the set of files in --out or any file's bytes
differ. Every differing case is printed; the exit code is 1 if there is
one, else 0. A refactor that keeps the outputs byte for byte reports no
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = (
    ("simulate",),
    ("compare",),
    ("envelope",),
    ("perturb",),
    ("perturb", "--strict-eps", "true"),
    ("perturb", "--strict-eps", "false"),
    ("sweep",),
)


def _python(tree: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def _preset_texts(tree: Path, cwd: Path) -> dict[str, str]:
    code = ("import json; from platoonsim.presets import PRESET_NAMES, preset_text; "
            "print(json.dumps({n: preset_text(n) for n in PRESET_NAMES}))")
    proc = _python(tree, ["-c", code], cwd)
    if proc.returncode:
        sys.exit(f"cannot list the presets of {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


# The control line of sweep_demo and fig1_left, and the sine control of two extras.
CONSTANT_CONTROL = "u = 0 100 const 1.9"
SINE_CONTROL = "u = 0 100 sin 0.9 0.3 0.2 0.0"


def _grid(text: str, sweep: str, model: str = "proposed") -> str:
    """sweep_demo's text at T = 10 under model, its [sweep] replaced."""
    text = text.replace("proposed", model).replace("T = 100.0", "T = 10.0")
    return text[:text.index("[sweep]")] + "[sweep]\n" + sweep


def _cases(presets: dict[str, str], cfg_dir: Path) -> dict[str, list[list[str]]]:
    """Each case's command lines, run in order on one --out directory."""
    cases = {}
    for name in sorted(presets):
        for command in COMMANDS:
            steps = [[command[0], "--preset", name, *command[1:]]]
            if command == ("envelope",):
                steps.append(["envelope", "--preset", name, "--check-only"])
            cases[" ".join(steps[0])] = steps
    for command, preset, dt in (("simulate", "fig4", "2"), ("compare", "fig4", "2"),
                                ("envelope", "fig4", "2"), ("perturb", "fig5", "8")):
        cases[f"{command} --preset {preset} --dt {dt}"] = [
            [command, "--preset", preset, "--dt", dt]]
    demo = presets["sweep_demo"]
    configs = {
        "k_d_grid": _grid(demo, "n = 2\nheadways = 1, 5\nvelocities = 1\nk_d = 0.1, 0.2\n"),
        "cacc_grid": _grid(demo, "n = 2, 4\nheadways = 0.1, 2\nvelocities = 0, 1.8\n"
                                 "k_d = 0.1, 0.2\n", model="cacc"),
        "varying_grid": _grid(demo, "n = 2, 4, 8\nheadways = 1, 5\nvelocities = 0.6\n").replace(
            CONSTANT_CONTROL, SINE_CONTROL),
        "sine_control": presets["fig1_left"].replace(CONSTANT_CONTROL, SINE_CONTROL),
    }
    for name, text in configs.items():
        path = cfg_dir / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        command = "compare" if name == "sine_control" else "sweep"
        cases[f"{command} --config {name}.ini"] = [[command, "--config", str(path)]]
    return cases


def _run_case(tree: Path, steps: list[list[str]], out: Path, tmp: Path):
    """Per step (code, stdout, stderr), then {file name: bytes} of --out."""
    results = []
    for argv in steps:
        proc = _python(tree, ["-m", "platoonsim.cli", *argv, "--out", str(out)], tmp)
        texts = [t.replace(str(out), "<OUT>").replace(str(tmp), "<TMP>")
                 for t in (proc.stdout, proc.stderr)]
        results.append((proc.returncode, *texts))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    shutil.rmtree(out.parent, ignore_errors=True)
    return results, files


def _differences(a, b) -> list[str]:
    (steps_a, files_a), (steps_b, files_b) = a, b
    diffs = []
    for i, (sa, sb) in enumerate(zip(steps_a, steps_b)):
        for what, va, vb in zip(("exit code", "stdout", "stderr"), sa, sb):
            if va != vb:
                diffs.append(f"step {i + 1} {what}: {va!r} != {vb!r}")
    if files_a is None or files_b is None:
        if files_a != files_b:
            diffs.append(f"--out {'missing' if files_a is None else 'present'} in the parent, "
                         f"{'missing' if files_b is None else 'present'} in the change")
        return diffs
    if sorted(files_a) != sorted(files_b):
        diffs.append(f"files: {sorted(files_a)} != {sorted(files_b)}")
    diffs += [f"{name}: bytes differ" for name in sorted(set(files_a) & set(files_b))
              if files_a[name] != files_b[name]]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    with tempfile.TemporaryDirectory(prefix="diff_cli_") as tmp_name:
        tmp = Path(tmp_name)
        cases = _cases(_preset_texts(trees[1], tmp), tmp)
        different, files = 0, 0
        with ThreadPoolExecutor(max_workers=2) as pool:
            for k, (label, steps) in enumerate(cases.items()):
                outs = [tmp / side / str(k) / "out" for side in ("parent", "change")]
                a, b = pool.map(lambda tree, out: _run_case(tree, steps, out, tmp), trees, outs)
                files += len(b[1] or ())
                diffs = _differences(a, b)
                if diffs:
                    different += 1
                    print(f"DIFF {label}")
                    for line in diffs:
                        print(f"    {line}")
    print(f"{len(cases)} cases, {files} files in the change's outputs, "
          f"{different} differing")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())

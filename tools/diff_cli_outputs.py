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
differ. Then every case runs a second time per tree, in one process that
calls platoonsim.cli.main case after case (last case first), as the
benchmark does; a case whose results there differ from its tree's run
with one process per step shows state carried from one call to the
next. Every differing case is printed; the exit code is 1 if there is
one, else 0. A refactor that keeps the outputs byte for byte reports no
difference.
"""

from __future__ import annotations

import argparse
import hashlib
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


def _texts(proc_out: str, out: Path, tmp: Path) -> str:
    return proc_out.replace(str(out), "<OUT>").replace(str(tmp), "<TMP>")


def _files(out: Path) -> dict[str, str] | None:
    """{file name: sha256} of --out, or None without it; --out is then deleted."""
    files = ({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
             if out.exists() else None)
    shutil.rmtree(out.parent, ignore_errors=True)
    return files


def _run_case(tree: Path, steps: list[list[str]], out: Path, tmp: Path):
    """Per step (code, stdout, stderr), each in a fresh process, then _files."""
    results = []
    for argv in steps:
        proc = _python(tree, ["-m", "platoonsim.cli", *argv, "--out", str(out)], tmp)
        results.append((proc.returncode, _texts(proc.stdout, out, tmp),
                        _texts(proc.stderr, out, tmp)))
    return results, _files(out)


# Reads [[steps, out], ...] as JSON on stdin and runs every step in this one
# process; prints per case one JSON line of its steps' [code, stdout, stderr].
# An exit code is the one the process would have exited with.
_IN_PROCESS = """\
import contextlib, io, json, sys, traceback
from platoonsim.cli import main
channel = sys.stdout
for steps, out in json.load(sys.stdin):
    results = []
    for argv in steps:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv, "--out", out])
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else int(e.code is not None)
            except Exception:
                code = 1
                traceback.print_exc()
        results.append([code, stdout.getvalue(), stderr.getvalue()])
    print(json.dumps(results), file=channel, flush=True)
"""


def _run_in_process(tree: Path, cases: list[list[list[str]]], outs: list[Path], tmp: Path):
    """Every case's _run_case results, all cases in one process, last case
    first: an override (--dt, --strict-eps) then runs before the cases of
    its preset that read the preset's own value."""
    proc = subprocess.run(
        [sys.executable, "-c", _IN_PROCESS], cwd=tmp, capture_output=True, text=True,
        input=json.dumps([[steps, str(out)] for steps, out in zip(cases[::-1], outs[::-1])]),
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != len(cases):
        sys.exit(f"the in-process run of {tree} stopped:\n{proc.stderr}")
    return [([(code, _texts(o, out, tmp), _texts(e, out, tmp)) for code, o, e in json.loads(line)],
             _files(out)) for line, out in zip(lines[::-1], outs)]


def _differences(a, b, sides=("the parent", "the change")) -> list[str]:
    (steps_a, files_a), (steps_b, files_b) = a, b
    diffs = []
    for i, (sa, sb) in enumerate(zip(steps_a, steps_b)):
        for what, va, vb in zip(("exit code", "stdout", "stderr"), sa, sb):
            if va != vb:
                diffs.append(f"step {i + 1} {what}: {va!r} != {vb!r}")
    if files_a is None or files_b is None:
        if files_a != files_b:
            diffs.append(f"--out {'missing' if files_a is None else 'present'} in {sides[0]}, "
                         f"{'missing' if files_b is None else 'present'} in {sides[1]}")
        return diffs
    if sorted(files_a) != sorted(files_b):
        diffs.append(f"files: {sorted(files_a)} != {sorted(files_b)}")
    diffs += [f"{name}: bytes differ" for name in sorted(set(files_a) & set(files_b))
              if files_a[name] != files_b[name]]
    return diffs


def _report(label: str, diffs: list[str]) -> int:
    """Print a differing case with its differences; 1 if it differs, else 0."""
    if diffs:
        print(f"DIFF {label}")
        for line in diffs:
            print(f"    {line}")
    return int(bool(diffs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    with tempfile.TemporaryDirectory(prefix="diff_cli_") as tmp_name:
        tmp = Path(tmp_name)
        cases = _cases(_preset_texts(trees[1], tmp), tmp)
        different, files, alone = 0, 0, ([], [])
        with ThreadPoolExecutor(max_workers=2) as pool:
            for k, (label, steps) in enumerate(cases.items()):
                outs = [tmp / side / str(k) / "out" for side in ("parent", "change")]
                a, b = pool.map(lambda tree, out: _run_case(tree, steps, out, tmp), trees, outs)
                alone[0].append(a)
                alone[1].append(b)
                files += len(b[1] or ())
                different += _report(label, _differences(a, b))
            together = pool.map(
                lambda tree, side: _run_in_process(
                    tree, list(cases.values()),
                    [tmp / side / str(k) / "out" for k in range(len(cases))], tmp),
                trees, ("parent_in_process", "change_in_process"))
            carried = sum(
                _report(f"in one process, {side}: {label}",
                        _differences(a, b, ("one process per step", "one process")))
                for side, runs_alone, runs in zip(("parent", "change"), alone, together)
                for label, a, b in zip(cases, runs_alone, runs))
    print(f"{len(cases)} cases, {files} files in the change's outputs, "
          f"{different} differing; in one process, {carried} differing from a process per step")
    return 1 if different or carried else 0


if __name__ == "__main__":
    sys.exit(main())

"""trajectory.csv bytes pinned to digests taken from an earlier release.

Criterion 9 compares reruns of one version; these digests hold the bytes
fixed across versions of the integrator and the CSV writer. Every run here
has constant profiles and uses only + - * / on floats (no exp, sin or tanh),
so correctly rounded binary64 arithmetic gives the same bytes everywhere.
"""

import hashlib

import pytest

from platoonsim import expand_sweep, load_preset, simulate
from platoonsim.trajectory_io import write_trajectory_csv

DIGESTS = {
    "fig1_left": "4c18b76fcfaa0777964e50f7be9ed10a6ee1edca083935337306897ba7b6cb79",
    "fig1_left_cacc": "46b77ad01f871c17506b8917ee3321279d50198623675bfeb7954dc60161b605",
    # a CACC rear-end collision: the run stops at the located crossing
    "fig1_right_cacc": "d0b77cc9f907f7e3618cbdb2174f4a59c6e196201a437971bad82e24e8c3a897",
    "fig4": "72ea30f995d4d182be99cec15f1c100cd10c7b6c54f8702a58490d256ee85e75",
    # sweep_demo grid point 209: n=8, headway 5, velocity 1.8, seven switches
    "sweep_demo[209]": "892c597d2a96e5fb146d37b6cb27d91a4423a81c38791f2a0a0a8160f89257d0",
}


def _scenario(name):
    if name.startswith("sweep_demo["):
        cfg = load_preset("sweep_demo")
        return expand_sweep(cfg.scenario, cfg.sweep)[int(name[len("sweep_demo["):-1])]
    return load_preset(name).scenario


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_trajectory_csv_bytes_are_pinned(name, tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(simulate(_scenario(name)).trajectory, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]

"""CSV export and import for trajectories, reports, and tables.

Every number is written as repr(float(x)), the shortest decimal that
round-trips binary64, so identical runs produce byte-identical files on
any platform. No timestamps, no locale formatting.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import Trajectory
from .perturbation import ConvergenceTable
from .safety import CertReport, SafetyEnvelope

__all__ = [
    "fmt",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_cert_report_csv",
    "write_convergence_csv",
    "write_envelope_csv",
]


# Rows converted to Python objects at a time by write_trajectory_csv.
_ROWS_PER_CHUNK = 1000


def fmt(x) -> str:
    return repr(float(x))


def trajectory_header(n: int) -> list[str]:
    cols = ["t"]
    for i in range(n):
        cols += [f"x_{i}", f"v_{i}"]
    cols += [f"h_{i}" for i in range(1, n)]
    cols += [f"branch_{i}" for i in range(1, n)]
    return cols


def write_trajectory_csv(traj: Trajectory, path) -> None:
    n = traj.n_vehicles
    values = np.empty((traj.n_points, 3 * n))
    values[:, 0] = traj.times
    values[:, 1:2 * n + 1:2] = traj.positions
    values[:, 2:2 * n + 1:2] = traj.velocities
    values[:, 2 * n + 1:] = traj.headways()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(trajectory_header(n)) + "\n")
        # tolist() yields Python floats, whose repr is fmt's, and no field needs
        # CSV quoting; chunks bound the memory of the converted rows.
        for r in range(0, traj.n_points, _ROWS_PER_CHUNK):
            chunk = zip(values[r:r + _ROWS_PER_CHUNK].tolist(),
                        traj.branches[r:r + _ROWS_PER_CHUNK].tolist())
            fh.write("".join(",".join([*map(repr, xs), *map(str, bs)]) + "\n" for xs, bs in chunk))


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from its CSV. Collision metadata is not stored
    in the file, so the result always carries collision=None.

    Raises ValueError unless every value is finite, every branch code is 0,
    1 or 2, and each h_i equals x_{i-1} - x_i bit for bit, as written.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trajectory file") from None
        rows = list(reader)
    n = sum(1 for c in header if c.startswith("x_"))
    expected = trajectory_header(n)
    if header != expected:
        raise ValueError(f"{path}: unexpected header {header!r}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for r, row in enumerate(rows):
        if len(row) != len(expected):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} fields, expected {len(expected)}")
    data = np.array(rows, dtype=float)
    positions, velocities = data[:, 1:2 * n + 1:2], data[:, 2:2 * n + 1:2]
    branches = data[:, 3 * n:]
    checks = (
        (np.isfinite(data), "a value that is not finite"),
        (np.isin(branches, (0, 1, 2)), "a branch code outside {0, 1, 2}"),
        (data[:, 2 * n + 1:3 * n] == positions[:, :-1] - positions[:, 1:],
         "a headway h_i that is not x_{i-1} - x_i"),
    )
    for ok, what in checks:
        if not ok.all():
            raise ValueError(f"{path}: row {int(np.argmin(ok.all(axis=1))) + 2} has {what}")
    return Trajectory(times=data[:, 0].copy(), positions=positions.copy(),
                      velocities=velocities.copy(), branches=branches.astype(np.int8),
                      collision=None)


def write_cert_report_csv(report: CertReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["check", "worst_margin", "worst_time", "passed"])
        for name, margin, t, ok in report.rows():
            w.writerow([name, fmt(margin), fmt(t), "true" if ok else "false"])


def write_convergence_csv(table: ConvergenceTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["eps", "sup_distance"])
        for row in table.rows:
            w.writerow([fmt(row.eps), fmt(row.sup_distance)])


def write_envelope_csv(traj: Trajectory, env: SafetyEnvelope, path,
                       follower: int = 1) -> None:
    """Plot-ready columns t, v, V_lo, V_hi, h, h_hi for one pair."""
    t = traj.times
    cols = (t, traj.velocities[:, follower], env.V_lo(t), env.V_hi(t),
            traj.positions[:, follower - 1] - traj.positions[:, follower], env.h_hi(t))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "v", "V_lo", "V_hi", "h", "h_hi"])
        w.writerows([fmt(x) for x in row] for row in zip(*(c.tolist() for c in cols)))

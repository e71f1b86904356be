"""CSV export and import for trajectories, reports, and tables.

Every number is written as repr(float(x)), the shortest decimal that
round-trips binary64, so identical runs produce byte-identical files on
any platform. No timestamps, no locale formatting. The numeric tables are
formatted a block of rows at a time by one %-format string, where %r of a
Python float is its repr and %d of a branch code 0.0, 1.0 or 2.0 its digit.
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


# Rows formatted at a time by _write_table.
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


def _write_table(path, header, values: np.ndarray, row: str) -> None:
    """Write the header line, then each row of values by the format row.

    tolist() yields Python floats, whose %r is fmt's (the repr of a numpy
    scalar is not), and no field needs CSV quoting; blocks bound the memory
    of the converted rows.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(0, len(values), _ROWS_PER_CHUNK):
            block = values[r:r + _ROWS_PER_CHUNK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    n = traj.n_vehicles
    values = np.empty((traj.n_points, 4 * n - 1))
    values[:, 0] = traj.times
    values[:, 1:2 * n + 1:2] = traj.positions
    values[:, 2:2 * n + 1:2] = traj.velocities
    values[:, 2 * n + 1:3 * n] = traj.headways()
    values[:, 3 * n:] = traj.branches
    _write_table(path, trajectory_header(n), values, ",".join(["%r"] * (3 * n) + ["%d"] * (n - 1)) + "\n")


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
    values = np.array([(row.eps, row.sup_distance) for row in table.rows], dtype=float)
    _write_table(path, ["eps", "sup_distance"], values, "%r,%r\n")


def write_envelope_csv(traj: Trajectory, env: SafetyEnvelope, path,
                       follower: int = 1) -> None:
    """Plot-ready columns t, v, V_lo, V_hi, h, h_hi for one pair."""
    t = traj.times
    cols = (t, traj.velocities[:, follower], env.V_lo(t), env.V_hi(t),
            traj.positions[:, follower - 1] - traj.positions[:, follower], env.h_hi(t))
    _write_table(path, ["t", "v", "V_lo", "V_hi", "h", "h_hi"], np.column_stack(cols), "%r,%r,%r,%r,%r,%r\n")

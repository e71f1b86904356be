"""CSV export and import for trajectories, reports, and tables.

Every number is written as repr(float(x)), the shortest decimal that
round-trips binary64, so identical runs produce byte-identical files on
any platform. No timestamps, no locale formatting. Every CSV the package
writes is a (path, header, columns) table passed to write_tables, the one
writer: the *_table functions here and sweep.sweep_table build them. It
walks all of a command's tables together a block of rows at a time and
formats each distinct numeric column block (same dtype, same bytes) once,
so a column that several tables of one command share, such as the time
grid, is formatted once per block for all of them, and a block that holds
one value (bit for bit) formats it once. A column of words or '-' cells
is a list of its strings, written as is.
"""

from __future__ import annotations

import csv
from contextlib import ExitStack

import numpy as np

from .core import Trajectory
from .perturbation import ConvergenceTable
from .safety import CertReport, SafetyEnvelope

__all__ = [
    "fmt",
    "write_tables",
    "trajectory_table",
    "envelope_table",
    "convergence_table",
    "cert_table",
    "read_trajectory_csv",
]


# Rows formatted at a time by write_tables.
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


def write_tables(tables) -> None:
    """Write each (path, header, columns) table: the header line, then one
    row per index of its equal-length columns, each a 1-D numpy array or a
    list of preformatted strings.

    The tables are walked together, _ROWS_PER_CHUNK rows at a time. A
    string column's block is written as is. An array's block is keyed by
    its dtype and bytes, not its values, so -0.0 and 0.0 never share a
    string. Its strings are made once per block, the repr of each Python
    float (fmt's, where the repr of a numpy scalar is not) or int (its
    str), and held only while a later column of the block has the same
    key. A block whose bytes are one value repeated, such as a constant
    leader speed or branch code, takes that value's repr once. No field
    needs CSV quoting.
    """
    with ExitStack() as stack:
        files = []
        for path, header, _ in tables:
            fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
            fh.write(",".join(header) + "\n")
            files.append(fh)
        lengths = [len(cols[0]) for _, _, cols in tables]
        for r in range(0, max(lengths, default=0), _ROWS_PER_CHUNK):
            live = [(fh, [col[r:r + _ROWS_PER_CHUNK] for col in cols])
                    for fh, m, (_, _, cols) in zip(files, lengths, tables) if r < m]
            keys = [(b.dtype.str, b.tobytes()) if isinstance(b, np.ndarray) else None
                    for _, blocks in live for b in blocks]
            last = {key: i for i, key in enumerate(keys)}
            held = {}
            i = 0
            for fh, blocks in live:
                strs = []
                for b in blocks:
                    key = keys[i]
                    s = b if key is None else held.pop(key, None)
                    if s is None:
                        if key[1] == key[1][:b.itemsize] * len(b):
                            s = [repr(b[:1].tolist()[0])] * len(b)
                        else:
                            s = list(map(repr, b.tolist()))
                    if key is not None and last[key] > i:
                        held[key] = s
                    strs.append(s)
                    i += 1
                fh.write("\n".join(map(",".join, zip(*strs))) + "\n")


def trajectory_table(traj: Trajectory, path):
    """trajectory.csv's (path, header, columns) for write_tables."""
    n = traj.n_vehicles
    h = traj.headways()
    cols = [traj.times]
    for i in range(n):
        cols += [traj.positions[:, i], traj.velocities[:, i]]
    cols += [h[:, i] for i in range(n - 1)]
    cols += [traj.branches[:, i] for i in range(n - 1)]
    return path, trajectory_header(n), cols


def envelope_table(traj: Trajectory, env: SafetyEnvelope, path, follower: int = 1):
    """envelope.csv's (path, header, columns): plot-ready t, v, V_lo, V_hi,
    h, h_hi for one pair."""
    h, _, v = traj.pair(follower)
    t = traj.times
    cols = [t, v, env.V_lo(t), env.V_hi(t), h, env.h_hi(t)]
    return path, ["t", "v", "V_lo", "V_hi", "h", "h_hi"], cols


def cert_table(report: CertReport, path):
    """certification.csv's (path, header, columns): one row per check."""
    names, margins, times, passed = zip(*report.rows())
    cols = [list(names), np.array(margins, dtype=float), np.array(times, dtype=float),
            ["true" if ok else "false" for ok in passed]]
    return path, ["check", "worst_margin", "worst_time", "passed"], cols


def convergence_table(table: ConvergenceTable, path):
    """convergence.csv's (path, header, columns): eps, sup_distance."""
    cols = [np.array([row.eps for row in table.rows], dtype=float),
            np.array([row.sup_distance for row in table.rows], dtype=float)]
    return path, ["eps", "sup_distance"], cols


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from its CSV. Collision metadata is not stored
    in the file, so the result always carries collision=None.

    Raises ValueError, naming the file and the row, unless every value is a
    finite number, every branch code is 0, 1 or 2, and each h_i equals
    x_{i-1} - x_i bit for bit, as written.
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
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        for r, row in enumerate(rows):
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{path}: row {r + 2} has a value that is not a number: "
                                     f"{cell!r}") from None
        raise
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

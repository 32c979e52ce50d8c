"""Text serialization: matrix blocks, problem files, trajectory CSV.

Three formats are shared by the command-line tools and the test suite:

* matrix text: first line "rows cols", then `rows` lines of
  whitespace-separated decimals with 17 significant digits, which
  round-trips IEEE doubles bit-exactly;
* problem JSON: an object with members "E", "A", "B" (arrays of row
  arrays) and optional "Q", "R", "Q0", "z", "t1";
* trajectory CSV: header "t,x1,...,xn,u1,...,um", one row per sample,
  17 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dae import DaeLti, Trajectory
from .lq import LqWeights

__all__ = [
    "Problem",
    "format_matrix",
    "parse_matrix",
    "save_matrix",
    "load_matrix",
    "load_problem",
    "format_trajectory",
    "parse_trajectory",
    "save_trajectory",
    "load_trajectory",
]


def _format_rows(M: np.ndarray, sep: str) -> list[str]:
    """The rows of the 2-D float array ``M`` as decimals with 17 significant
    digits joined by ``sep``: the strings of ``format(v, ".17g")``, made
    with one ``%`` template per row instead of one call per element."""
    template = sep.join(["%.17g"] * M.shape[1])
    return [template % tuple(row) for row in M.tolist()]


def format_matrix(M) -> str:
    """Render a 2-D array in the matrix text format."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    header = f"{M.shape[0]} {M.shape[1]}"
    return "\n".join([header] + _format_rows(M, " ")) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format back into an array."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"matrix header must be 'rows cols', got {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    # The rows of an r x 0 matrix are blank lines, dropped above.
    expected = rows if cols else 0
    if len(lines) - 1 != expected:
        raise ValueError(f"expected {expected} matrix rows, got {len(lines) - 1}")
    data = np.zeros((rows, cols))
    for i, ln in enumerate(lines[1:]):
        vals = ln.split()
        if len(vals) != cols:
            raise ValueError(f"row {i} has {len(vals)} entries, expected {cols}")
        data[i] = [float(v) for v in vals]
    return data


def save_matrix(path, M) -> None:
    Path(path).write_text(format_matrix(M))


def load_matrix(path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


@dataclass(frozen=True)
class Problem:
    """A parsed problem file: the system, optional weights, and optional
    initial value z and horizon t1."""

    dae: DaeLti
    weights: LqWeights | None
    z: np.ndarray | None
    t1: float | None


def _json_matrix(obj, name: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f'"{name}" must be an array of row arrays')
    return arr


def load_problem(path) -> Problem:
    """Read a problem JSON file.

    "E", "A", "B" are required; "Q", "R" (together), "Q0", "z" and "t1"
    are optional.  Shape validation is delegated to the model types.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("problem file must be a JSON object")
    for key in ("E", "A", "B"):
        if key not in doc:
            raise ValueError(f'problem file missing required member "{key}"')
    dae = DaeLti(
        _json_matrix(doc["E"], "E"),
        _json_matrix(doc["A"], "A"),
        _json_matrix(doc["B"], "B"),
    )
    weights = None
    if "Q" in doc or "R" in doc:
        if not ("Q" in doc and "R" in doc):
            raise ValueError('"Q" and "R" must be given together')
        Q = _json_matrix(doc["Q"], "Q")
        R = _json_matrix(doc["R"], "R")
        Q0 = (
            _json_matrix(doc["Q0"], "Q0")
            if "Q0" in doc
            else np.zeros((dae.c, dae.c))
        )
        weights = LqWeights(Q, R, Q0)
    z = None
    if "z" in doc:
        z = np.asarray(doc["z"], dtype=float).reshape(-1)
    t1 = float(doc["t1"]) if "t1" in doc else None
    return Problem(dae, weights, z, t1)


def format_trajectory(traj: Trajectory) -> str:
    """Render a trajectory as CSV with header t,x1,...,xn,u1,...,um."""
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    header = ",".join(
        ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"u{j}" for j in range(1, m + 1)]
    )
    rows = _format_rows(np.column_stack([traj.times, traj.x, traj.u]), ",")
    return "\n".join([header] + rows) + "\n"


def parse_trajectory(text: str) -> Trajectory:
    """Parse the trajectory CSV format back into a Trajectory."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("trajectory CSV needs a header and at least one row")
    cols = lines[0].split(",")
    if cols[0] != "t":
        raise ValueError('trajectory CSV header must start with "t"')
    n = sum(1 for c in cols if c.startswith("x"))
    m = sum(1 for c in cols if c.startswith("u"))
    if 1 + n + m != len(cols):
        raise ValueError(f"unrecognized trajectory header {lines[0]!r}")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if data.shape[1] != len(cols):
        raise ValueError("trajectory rows do not match the header width")
    return Trajectory(data[:, 0], data[:, 1 : 1 + n], data[:, 1 + n :])


def save_trajectory(path, traj: Trajectory) -> None:
    Path(path).write_text(format_trajectory(traj))


def load_trajectory(path) -> Trajectory:
    return parse_trajectory(Path(path).read_text())

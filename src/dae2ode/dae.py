"""Rectangular DAE-LTI systems d(Ex)/dt = A x + B u and their solution sets.

A :class:`DaeLti` is a triple of real matrices (E, A, B) with E, A of shape
c x n and B of shape c x m; no regularity or squareness is assumed.  The
solution concept is behavioral: locally integrable (x, u) such that Ex is
absolutely continuous and the equation holds almost everywhere.  This module
provides the data types, the augmented Wong sequence, the
impulse-controllability rank test, the stabilizability test of the
associated pair (A_l, B_l) and a numerical membership test for the behavior.
Membership in the consistency set is the realization's cached
``consistency_set``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subspaces import (
    Subspace,
    _norm2,
    _orthonormal,
    ensure_matrix,
    image,
    kernel,
    preimage,
    rank,
)

__all__ = [
    "DaeLti",
    "Trajectory",
    "wong_limit",
    "impulse_controllable",
    "pencil_stabilizability_test",
    "behavior_residual",
]


@dataclass(frozen=True)
class DaeLti:
    """The triple (E, A, B) defining d(Ex(t))/dt = A x(t) + B u(t)."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        E = ensure_matrix(self.E, "E")
        A = ensure_matrix(self.A, "A")
        B = ensure_matrix(self.B, "B")
        if E.shape != A.shape:
            raise ValueError(f"E and A must share shape, got {E.shape} vs {A.shape}")
        if B.shape[0] != E.shape[0]:
            raise ValueError(f"B must have {E.shape[0]} rows, got {B.shape[0]}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def c(self) -> int:
        return self.E.shape[0]

    @property
    def n(self) -> int:
        return self.E.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """Sampled candidate solution: time grid plus state and input samples."""

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).reshape(-1)
        x = ensure_matrix(self.x, "x samples")
        u = ensure_matrix(self.u, "u samples")
        if not np.isfinite(t).all():
            raise ValueError("time samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if x.shape[0] != t.shape[0] or u.shape[0] != t.shape[0]:
            raise ValueError("sample counts must match the grid length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return self.times.shape[0]


def wong_limit(dae: DaeLti, tol: float | None = None) -> Subspace:
    """Limit of the augmented Wong sequence V_0 = R^n, V_{i+1} = A^{-1}(E V_i + im B).

    The sequence is nested, so each step is taken inside the last iterate:
    on an orthonormal basis W of V_i, V_{i+1} = W (A W)^{-1}(E V_i + im B).
    A step that keeps the dimension keeps the subspace, which is then the
    limit; any other step lowers the dimension, so at most n + 1 steps run.
    Every rank decision, the sum E V_i + im B's included, is taken at
    ``tol``; the preimage under A W is decided against ||A||, as on the
    whole space, so an iterate inside ker A, where A W is only rounding
    noise, is kept.
    """
    im_B = image(dae.B, tol)
    norm_A = _norm2(dae.A)
    W = np.eye(dae.n)
    while True:
        EV = image(dae.E @ W, tol)
        target = image(np.concatenate([EV.basis, im_B.basis], axis=1), tol)
        step = preimage(dae.A @ W, target, tol, norm_A)
        if step.dim == W.shape[1]:
            return _orthonormal(W)
        W = W @ step.basis


def impulse_controllable(dae: DaeLti, tol: float | None = None) -> bool:
    """Rank test rank [E, A, B] == rank [E, A Z, B] with im Z = ker E.

    Z is the orthonormal kernel basis of E; when ker E = 0, Z has no columns
    and the test compares rank [E, A, B] with rank [E, B].
    """
    Z = kernel(dae.E, tol).basis
    full = rank(np.concatenate([dae.E, dae.A, dae.B], axis=1), tol)
    constrained = rank(np.concatenate([dae.E, dae.A @ Z, dae.B], axis=1), tol)
    return full == constrained


def pencil_stabilizability_test(dae: DaeLti, assoc) -> bool:
    """True iff the associated pair (A_l, B_l) is stabilizable: the
    realization's cached ``restriction`` keeps all n_hat states.

    ``dae`` is not consulted.  For a pencil view, stabilizability of
    (A_l, B_l) is equivalent to rank [lambda E - A, B] = nrank [s E - A, B]
    for every lambda with nonnegative real part, which the test suite checks
    independently.
    """
    return assoc.restriction.l == assoc.n_hat


def behavior_residual(dae: DaeLti, traj: Trajectory) -> float:
    """Max interior defect of the DAE along a sampled trajectory.

    Uses central differences of Ex on interior grid points (Ex is the only
    differentiable quantity the solution concept provides), normalized by
    1 + the largest sample magnitude.
    """
    if len(traj) < 3:
        raise ValueError("grid too short: need at least 3 samples")
    t, x, u = traj.times, traj.x, traj.u
    Ex = x @ dae.E.T
    dt = t[2:] - t[:-2]
    dEx = (Ex[2:] - Ex[:-2]) / dt[:, None]
    defect = dEx - x[1:-1] @ dae.A.T - u[1:-1] @ dae.B.T
    scale = 1.0 + max(
        np.max(np.abs(x)) if x.size else 0.0, np.max(np.abs(u)) if u.size else 0.0
    )
    return float(np.max(np.abs(defect)) / scale) if defect.size else 0.0

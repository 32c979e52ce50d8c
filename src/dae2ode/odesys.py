"""Ordinary LTI systems, exact simulation and geometric control subroutines.

The geometric algorithms here are the engine of the DAE-to-ODE construction:
the weakly unobservable subspace V (largest output-nulling controlled-invariant
subspace), a friend feedback F and the kernel matrix L, all three returned by
``weakly_unobservable`` from one orthogonal staircase deflation of the pencil
[[A - lambda I, B], [C, D]] run to its limit, F and L from the input block of
its last step (Van Dooren 1981, IEEE TAC 26; Emami-Naeini & Van Dooren 1982,
Automatica 18); and the stabilizability subspace (reachable plus stable
modal subspace) from the dual staircase on (A, B), the orthogonal
controllability staircase (Paige 1981, IEEE TAC 26), whose basis is
invariant by construction.  Each staircase ranks against the norm of the
system it deflates.  Each computation has one public entry, which is its
only implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import OrderedSchurFailed, ResidualTooLarge
from .subspaces import (
    EQUALITY_TOL,
    GRID_TOL,
    STABLE_EIG_TOL,
    Subspace,
    _finite,
    _norm2,
    _orthonormal,
    _rank_from_singular_values,
    _svd,
    default_rank_tol,
    ensure_matrix,
    full_space,
    zero_space,
)

__all__ = [
    "OdeLti",
    "simulate",
    "weakly_unobservable",
    "stabilizability_subspace",
]

@dataclass(frozen=True)
class OdeLti:
    """State-space system  v' = A v + B q,  y = C v + D q."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = ensure_matrix(self.A, "A")
        B = ensure_matrix(self.B, "B")
        C = ensure_matrix(self.C, "C")
        D = ensure_matrix(self.D, "D")
        r = A.shape[0]
        if A.shape != (r, r):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != r:
            raise ValueError(f"B must have {r} rows, got {B.shape[0]}")
        if C.shape[1] != r:
            raise ValueError(f"C must have {r} columns, got {C.shape[1]}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D must be {C.shape[0]} x {B.shape[1]}, got {D.shape}"
            )
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, M)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def _unsorted(re: float, im: float) -> None:
    """The ``dgees`` callback of an unordered Schur form; never called."""


def _schur(H: np.ndarray, select=None) -> tuple[np.ndarray, np.ndarray, int]:
    """(T, Z, sdim): the real Schur form H = Z T Z' of a finite nonempty
    square H by LAPACK ``dgees``, with the eigenvalues re + i im for which
    ``select(re, im)`` holds ordered first and sdim of them (0 unordered).

    It is ``scipy.linalg.schur(H, output="real", sort=select)`` without the
    wrapper's dispatch: the same workspace query, so the same blocked
    reduction and the same bits, the same finiteness check and the same
    failures, LinAlgError when the QR algorithm or the reordering fails.
    """
    gees = scipy.linalg.lapack.dgees
    lwork = int(gees(_unsorted, _finite(H), lwork=-1)[-2][0])
    T, sdim, _, _, Z, _, info = gees(
        select or _unsorted, H, lwork=lwork, sort_t=select is not None
    )
    n = H.shape[0]
    if info == n + 1:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == n + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z, sdim


def _check_uniform_grid(times: np.ndarray) -> float:
    steps = np.diff(times)
    if steps.size == 0:
        return 0.0
    h = float(steps[0])
    if h <= 0 or np.max(np.abs(steps - h)) > GRID_TOL * max(h, 1.0):
        raise ValueError("simulation requires a uniform, increasing time grid")
    return h


def simulate(
    sys: OdeLti,
    v0,
    inputs: np.ndarray | None,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the state exactly on a uniform grid; return (states, outputs).

    The input is held first-order, i.e. interpolated linearly between its
    samples, which the step then integrates exactly (Van Loan 1978): one
    exponential of [[A h, B h, 0], [0, 0, I], [0, 0, 0]] gives Phi = e^{Ah},
    Gamma0 and Gamma1, and

        v_{k+1} = Phi v_k + (Gamma0 - Gamma1) q_k + Gamma1 q_{k+1}.

    The recurrence is evaluated by doubling, one matrix product per power
    Phi^d with d = 1, 2, 4, ..., so there is no per-step loop.  ``inputs``
    holds one row per time sample, shape (T, s); any other shape raises
    ValueError.  It may be None for the zero input, in which case only A is
    discretized.  A non-finite initial state, input or time sample, or a
    grid with no samples, raises ValueError.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("simulation requires at least one time sample")
    if not np.isfinite(times).all():
        raise ValueError("simulation requires a finite time grid")
    h = _check_uniform_grid(times)
    T = times.shape[0]
    r, s = sys.n_states, sys.n_inputs
    v0 = np.zeros(r) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    if v0.shape[0] != r:
        raise ValueError(f"initial state must have length {r}")
    q = None
    if inputs is not None:
        q = np.atleast_2d(np.asarray(inputs, dtype=float))
        if q.shape != (T, s):
            raise ValueError(f"inputs must have shape ({T}, {s}), got {q.shape}")
    if not (np.isfinite(v0).all() and (q is None or np.isfinite(q).all())):
        raise ValueError("initial state and inputs must be finite")

    states = np.zeros((T, r))
    states[0] = v0
    if r and T > 1:
        if q is None:
            Phi = scipy.linalg.expm(sys.A * h)
        else:
            M = np.zeros((r + 2 * s, r + 2 * s))
            M[:r, :r] = sys.A * h
            M[:r, r : r + s] = sys.B * h
            M[r : r + s, r + s :] = np.eye(s)
            E = scipy.linalg.expm(M)
            Phi, Gamma0, Gamma1 = E[:r, :r], E[:r, r : r + s], E[:r, r + s :]
            states[1:] = q[:-1] @ (Gamma0 - Gamma1).T + q[1:] @ Gamma1.T
        # Row j starts as w_j (v0, then the forcing of step j - 1), and
        # v_k = sum_j Phi^(k-j) w_j.  After the pass with power Phi^d, row k
        # holds the terms with k - j < 2d; unforced, w_j = 0 for j > 0, so
        # each pass just fills the next d rows.
        d, power = 1, Phi
        while d < T:
            if q is None:
                states[d : 2 * d] = states[: min(d, T - d)] @ power.T
            else:
                states[d:] += states[:-d] @ power.T
            d *= 2
            if d < T:
                power = power @ power
    outputs = states @ sys.C.T
    if q is not None:
        outputs += q @ sys.D.T
    return states, outputs


def weakly_unobservable(
    sys: OdeLti, tol: float | None = None
) -> tuple[Subspace, np.ndarray, np.ndarray]:
    """(V, F, L): the largest subspace V with (A + B F)V in V and
    (C + D F)V = 0 for some F, such a friend F, and the kernel matrix L.

    One orthogonal staircase, run to its limit, gives all three.
    Q = [W | W_perp] starts from W = I.  Each step factors the input block
    M = [W_perp^T B; D], with left null space N, and takes the SVD of
    N^T R, R = [W_perp^T A W; C W], whose row space (the part of W that
    leaves W or reaches the output whatever the input) is rotated out of W.
    When that rank is zero, W spans V, and the same factored M gives F and
    L, so their rank decision is the one that stopped the staircase:
    F = F_V W^T with F_V the minimum-norm solution of M F_V = -R, so F = 0
    whenever the zero feedback is admissible, and L is the right null space
    of M, an orthonormal basis of ker D intersected with B^{-1} V (s x 0
    when that is zero).  Every rank is decided at ``tol`` against
    ||[A B; C D]||_2, so an input block of rounding alone has rank zero.

    Raises ResidualTooLarge when a column of M F_V + R exceeds
    ``EQUALITY_TOL`` (1 + the norm of R's column): the V found is then not
    output-nulling.
    """
    S = np.concatenate(
        [np.concatenate([sys.A, sys.B], axis=1), np.concatenate([sys.C, sys.D], axis=1)]
    )
    rule = (default_rank_tol(S) if tol is None else tol, _norm2(S))
    Q, d = np.eye(sys.n_states), sys.n_states
    while True:
        W, W_perp = Q[:, :d], Q[:, d:]
        M = np.concatenate([W_perp.T @ sys.B, sys.D])
        R = np.concatenate([W_perp.T @ (sys.A @ W), sys.C @ W])
        U, s, Vh = _svd(M)
        rho = _rank_from_singular_values(M, s, *rule)
        X = U[:, rho:].T @ R
        _, sx, Vhx = _svd(X)
        tau = _rank_from_singular_values(X, sx, *rule)
        if tau == 0:
            break
        Q[:, :d] = W @ np.concatenate([Vhx[tau:], Vhx[:tau]]).T
        d -= tau
    F_V = -Vh[:rho].T @ ((U[:, :rho].T @ R) / s[:rho, None])
    resid = np.linalg.norm(M @ F_V + R, axis=0)
    bad = np.flatnonzero(resid > EQUALITY_TOL * (1.0 + np.linalg.norm(R, axis=0)))
    if bad.size:
        raise ResidualTooLarge(f"no friend for basis vector {bad[0]}: residual {resid[bad[0]]:.3e}")
    return _orthonormal(W), F_V @ W.T, Vh[rho:].T


def stabilizability_subspace(A, B, tol: float | None = None) -> Subspace:
    """Reachable subspace of (A, B) plus the stable modal subspace of A.

    One orthogonal controllability staircase (Paige 1981; Van Dooren 1981)
    splits the state: Q = [Q_reached | Q_u] starts from Q = I, and each step
    takes the SVD of the block (B first, then Q_u^T A Q_new for the columns
    Q_new reached last), rotates Q_u by it and moves the block's rank out of
    Q_u, until that rank is zero.  So the Krylov matrix [B, AB, ...] never
    arises, and every rank is decided at ``tol`` against ||[A, B]||_2, as
    ``preimage`` decides its own.  The stable modes are taken from an
    ordered real Schur form Z of the unreached block Q_u^T A Q_u alone
    (``_schur``, LAPACK ``dgees``; OrderedSchurFailed, chained from its
    LinAlgError, when the QR algorithm or the reordering fails);
    eigenvalues with real part >= -STABLE_EIG_TOL (marginal included) count
    as unstable.  The basis [Q_reached | Q_u Z_stable] is then orthonormal,
    A-invariant and contains im B by construction.  A stabilizable pair
    returns the whole space on the identity basis, so its restriction is
    the system itself in its own coordinates.
    """
    A = ensure_matrix(A, "A")
    B = ensure_matrix(B, "B")
    r = A.shape[0]
    if A.shape != (r, r):
        raise ValueError("A must be square")
    if B.shape[0] != r:
        raise ValueError(f"B must have {r} rows")
    if r == 0:
        return zero_space(0)

    S = np.concatenate([A, B], axis=1)
    rule = (default_rank_tol(S) if tol is None else tol, _norm2(S))
    Q, d, block = np.eye(r), 0, B
    while d < r:
        U, s, _ = _svd(block)
        rho = _rank_from_singular_values(block, s, *rule)
        if rho == 0:
            break
        Q[:, d:] = Q[:, d:] @ U
        block = Q[:, d + rho :].T @ (A @ Q[:, d : d + rho])
        d += rho
    if d == r:
        return full_space(r)

    Q_u = Q[:, d:]
    try:
        _, Z, sdim = _schur(Q_u.T @ A @ Q_u, lambda re, im: re < -STABLE_EIG_TOL)
    except np.linalg.LinAlgError as exc:
        raise OrderedSchurFailed(
            f"stabilizability_subspace: no ordered Schur form of the unreached block: {exc}"
        ) from exc
    if d + sdim == r:
        return full_space(r)
    return _orthonormal(np.concatenate([Q[:, :d], Q_u @ Z[:, :sdim]], axis=1))

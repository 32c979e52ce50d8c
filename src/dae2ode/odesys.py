"""Ordinary LTI systems, exact simulation and geometric control subroutines.

The geometric algorithms here are the engine of the DAE-to-ODE construction:
the weakly unobservable subspace V (largest output-nulling controlled-invariant
subspace), a friend feedback F and the kernel matrix L, all three returned by
``weakly_unobservable`` from one orthogonal staircase deflation of the pencil
[[A - lambda I, B], [C, D]] run to its limit, F and L from the input block of
its last step (Van Dooren 1981, IEEE TAC 26; Emami-Naeini & Van Dooren 1982,
Automatica 18); the stabilizability subspace (reachable plus stable modal
subspace); and the restriction of a system to an invariant subspace.  Each
computation has one public entry, which is its only implementation;
``output_nulling_friend`` solves for the friend of any other given V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotInvariant, ResidualTooLarge
from .subspaces import (
    EQUALITY_TOL,
    GRID_TOL,
    STABLE_EIG_TOL,
    Subspace,
    _orthonormal,
    _projection_rule,
    _rank_from_singular_values,
    ensure_matrix,
    full_space,
    image,
    zero_space,
)

__all__ = [
    "OdeLti",
    "simulate",
    "weakly_unobservable",
    "output_nulling_friend",
    "stabilizability_subspace",
    "restrict_to_invariant",
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
    discretized.  A non-finite initial state or input, or a grid with no
    samples, raises ValueError.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise ValueError("simulation requires at least one time sample")
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


def _input_block(sys: OdeLti, W: np.ndarray, W_out: np.ndarray, rule):
    """M = [W_out^T B; D] and R = [W_out^T A W; C W] for the state basis W,
    with M's full SVD (U, s, Vh) and its rank decided by ``rule``."""
    M = np.vstack([W_out.T @ sys.B, sys.D])
    R = np.vstack([W_out.T @ (sys.A @ W), sys.C @ W])
    U, s, Vh = np.linalg.svd(M)
    return M, R, U, s, Vh, _rank_from_singular_values(M, s, *rule)


def _friend(W, M, R, U, s, Vh, rho) -> tuple[np.ndarray, np.ndarray]:
    """F and L from an ``_input_block`` at W; see ``output_nulling_friend``."""
    F_V = -Vh[:rho].T @ ((U[:, :rho].T @ R) / s[:rho, None])
    resid = np.linalg.norm(M @ F_V + R, axis=0)
    bad = np.flatnonzero(resid > EQUALITY_TOL * (1.0 + np.linalg.norm(R, axis=0)))
    if bad.size:
        raise ResidualTooLarge(f"no friend for basis vector {bad[0]}: residual {resid[bad[0]]:.3e}")
    return F_V @ W.T, Vh[rho:].T


def weakly_unobservable(
    sys: OdeLti, tol: float | None = None
) -> tuple[Subspace, np.ndarray, np.ndarray]:
    """(V, F, L): the largest subspace V with (A + B F)V in V and
    (C + D F)V = 0 for some F, such a friend F, and the kernel matrix L.

    One orthogonal staircase, run to its limit, gives all three.
    Q = [W | W_perp] starts from W = I.  Each step factors the input block
    M = [W_perp^T B; D], with left null space N, and takes the SVD of
    N^T [W_perp^T A W; C W], whose row space (the part of W that leaves W or
    reaches the output whatever the input) is rotated out of W.  When that
    rank is zero, W spans V, and the same factored M gives F and L as in
    ``output_nulling_friend``, so their rank decision is the one that
    stopped the staircase.  The ranks are decided at ``tol`` against
    ||[B; D]||_2 and ||[A; C]||_2, as ``preimage`` decides its own.

    Raises ResidualTooLarge, with the residual check of
    ``output_nulling_friend``, when the V found is not output-nulling
    within ``EQUALITY_TOL``.
    """
    rule_BD = _projection_rule(np.vstack([sys.B, sys.D]), tol)
    rule_AC = _projection_rule(np.vstack([sys.A, sys.C]), tol)
    Q, d = np.eye(sys.n_states), sys.n_states
    while True:
        W = Q[:, :d]
        block = _input_block(sys, W, Q[:, d:], rule_BD)
        _, R, U, _, _, rho = block
        X = U[:, rho:].T @ R
        _, s, Vh = np.linalg.svd(X)
        tau = _rank_from_singular_values(X, s, *rule_AC)
        if tau == 0:
            return (_orthonormal(W), *_friend(W, *block))
        Q[:, :d] = W @ np.vstack([Vh[tau:], Vh[:tau]]).T
        d -= tau


def output_nulling_friend(
    sys: OdeLti, V: Subspace, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Friend F and kernel matrix L of any given output-nulling subspace V.

    With the input block M = [W_perp^T B; D] at the basis W of V, of rank
    decided at ``tol`` as in ``weakly_unobservable``, F = F_V W^T, where
    F_V is the minimum-norm solution of M F_V = -[W_perp^T A W; C W] in one
    pseudo-inverse solve, so F = 0 whenever the zero feedback is admissible.
    L, the right null space of M, is an orthonormal basis of ker D
    intersected with B^{-1} V (s x 0 when that is zero).  I - W W^T stands
    in for W_perp^T; it keeps M's right singular vectors and minimum-norm
    solutions.  The solve and its residual check are those of the last step
    of ``weakly_unobservable``, which returns V's own F and L itself.

    Raises
    ------
    ResidualTooLarge
        If a column's residual exceeds ``EQUALITY_TOL`` (1 + its right-hand
        side's norm): V is then not output-nulling for this system.
    """
    W = V.basis
    rule = _projection_rule(np.vstack([sys.B, sys.D]), tol)
    return _friend(W, *_input_block(sys, W, np.eye(sys.n_states) - W @ W.T, rule))


def stabilizability_subspace(A, B, tol: float | None = None) -> Subspace:
    """Reachable subspace of (A, B) plus the stable modal subspace of A.

    The reachable subspace is grown orthogonally from R = im B by
    R <- im [R, A R] until its dimension stops growing (Paige 1981), so the
    Krylov matrix [B, AB, ..., A^{r-1} B] and its overflow never arise.  A
    reachable pair returns the whole space on the identity basis, so its
    restriction is the system itself in its own coordinates.  Otherwise the
    stable modal subspace is taken from an ordered real Schur form;
    eigenvalues with real part >= -STABLE_EIG_TOL (marginal included) count
    as unstable.  Every rank decision, the final sum's included, is taken at
    ``tol``.
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

    reachable = image(B, tol)
    while 0 < reachable.dim < r:
        grown = image(np.hstack([reachable.basis, A @ reachable.basis]), tol)
        if grown.dim == reachable.dim:
            break
        reachable = grown
    if reachable.dim == r:
        return full_space(r)

    _, Z, sdim = scipy.linalg.schur(
        A, output="real", sort=lambda re, im: re < -STABLE_EIG_TOL
    )
    stable = Subspace(Z[:, :sdim]) if sdim else zero_space(r)
    return image(np.hstack([reachable.basis, stable.basis]), tol)


def restrict_to_invariant(sys: OdeLti, V: Subspace) -> OdeLti:
    """Matrices of the maps restricted to an (A-invariant, im B containing) V.

    The returned system expresses the dynamics in V's orthonormal basis W:
    (W^T A W, W^T B, C W, D).

    Raises
    ------
    NotInvariant
        If A V is not contained in V or im B is not contained in V, within
        ``EQUALITY_TOL`` relative to 1 + the norm of A or B.
    """
    if V.ambient_dim != sys.n_states:
        raise ValueError("subspace does not live in the system's state space")
    W = V.basis
    P_out = np.eye(V.ambient_dim) - W @ W.T
    scale_A = 1.0 + np.linalg.norm(sys.A)
    scale_B = 1.0 + np.linalg.norm(sys.B)
    resid_A = np.linalg.norm(P_out @ sys.A @ W)
    resid_B = np.linalg.norm(P_out @ sys.B)
    if resid_A > EQUALITY_TOL * scale_A or resid_B > EQUALITY_TOL * scale_B:
        raise NotInvariant(
            f"subspace is not invariant: |proj A V| = {resid_A:.3e}, "
            f"|proj B| = {resid_B:.3e}"
        )
    return OdeLti(W.T @ sys.A @ W, W.T @ sys.B, sys.C @ W, sys.D)

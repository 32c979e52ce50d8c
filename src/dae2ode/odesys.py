"""Ordinary LTI systems, exact simulation and geometric control subroutines.

The geometric algorithms here are the engine of the DAE-to-ODE construction:
the weakly unobservable subspace (largest output-nulling controlled-invariant
subspace), a friend feedback together with the kernel matrix L, the
stabilizability subspace (reachable plus stable modal subspace), and the
restriction of a system to an invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dae import DaeLti, wong_limit
from .errors import NotInvariant, ResidualTooLarge
from .subspaces import (
    Subspace,
    ensure_matrix,
    image,
    intersect,
    kernel,
    preimage,
    subspace_sum,
    zero_space,
)

__all__ = [
    "OdeLti",
    "STABLE_EIG_TOL",
    "simulate",
    "weakly_unobservable",
    "output_nulling_friend",
    "stabilizability_subspace",
    "restrict_to_invariant",
]

# Eigenvalues with real part above -STABLE_EIG_TOL count as unstable, so
# marginal (zero real part) modes are never absorbed into the stable subspace.
STABLE_EIG_TOL = 1e-9


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
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(h, 1.0):
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
    may be None for the zero input, in which case only A is discretized.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    h = _check_uniform_grid(times)
    T = times.shape[0]
    r, s = sys.n_states, sys.n_inputs
    v0 = np.zeros(r) if v0 is None else np.asarray(v0, dtype=float).reshape(-1)
    if v0.shape[0] != r:
        raise ValueError(f"initial state must have length {r}")
    q = None
    if inputs is not None:
        q = np.atleast_2d(np.asarray(inputs, dtype=float))
        if q.shape == (s, T) and s != T:
            q = q.T
        if q.shape != (T, s):
            raise ValueError(f"inputs must have shape ({T}, {s}), got {q.shape}")

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


def weakly_unobservable(sys: OdeLti, tol: float | None = None) -> Subspace:
    """Largest subspace V with (A + B F)V in V and (C + D F)V = 0 for some F.

    This is the Wong limit of the stacked pencil d([I; 0] v)/dt = [A; C] v +
    [B; D] q: its recursion V_{i+1} = { x : (A x, C x) in (V_i x {0}) +
    im [B; D] } is the standard decreasing recursion for V.
    """
    r, p = sys.n_states, sys.n_outputs
    stacked = DaeLti(
        np.vstack([np.eye(r), np.zeros((p, r))]),
        np.vstack([sys.A, sys.C]),
        np.vstack([sys.B, sys.D]),
    )
    return wong_limit(stacked, tol)


def output_nulling_friend(
    sys: OdeLti, V: Subspace, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Friend F and kernel matrix L for an output-nulling subspace V.

    For each basis vector v_i of V the constraints ((I - P_V)(A v_i + B f_i)
    = 0 and C v_i + D f_i = 0, with P_V the orthogonal projector onto V) are
    solved for the minimum-norm f_i, so F = 0 whenever the zero feedback is
    admissible; F acts as the zero map on the orthogonal complement of V.
    L is an orthonormal basis of ker D intersected with the preimage of V
    under B; it has no columns (shape s x 0) when that space is zero.

    Raises
    ------
    ResidualTooLarge
        If some per-vector system has no solution within ``tol``, which
        signals that V is not output-nulling for this system.
    """
    r, s, p = sys.n_states, sys.n_inputs, sys.n_outputs
    F = np.zeros((s, r))
    if V.dim:
        P_perp = np.eye(r) - V.basis @ V.basis.T
        lhs = np.vstack([P_perp @ sys.B, sys.D])
        # When the projected constraint matrix sits at rounding level relative
        # to the unprojected maps (e.g. V is the full space and D = 0), lstsq
        # would amplify that noise into an O(1) solution; the minimum-norm
        # friend there is exactly zero.
        lhs_scale = max(np.linalg.norm(sys.B), np.linalg.norm(sys.D), 1.0)
        lhs_is_noise = np.linalg.norm(lhs) <= 100 * np.finfo(float).eps * lhs_scale
        PA = P_perp @ sys.A
        F_on_basis = np.zeros((s, V.dim))
        for i in range(V.dim):
            v_i = V.basis[:, i]
            rhs = -np.concatenate([PA @ v_i, sys.C @ v_i])
            if lhs_is_noise:
                sol = np.zeros(s)
            else:
                sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
            resid = lhs @ sol - rhs
            if np.linalg.norm(resid) > tol * (1.0 + np.linalg.norm(rhs)):
                raise ResidualTooLarge(
                    f"no friend for basis vector {i}: residual {np.linalg.norm(resid):.3e}"
                )
            F_on_basis[:, i] = sol
        F = F_on_basis @ V.basis.T

    return F, intersect(kernel(sys.D), preimage(sys.B, V)).basis


def stabilizability_subspace(A, B, tol: float | None = None) -> Subspace:
    """Reachable subspace of (A, B) plus the stable modal subspace of A.

    The reachable subspace is grown orthogonally from R = im B by
    R <- im [R, A R] until its dimension stops growing (Paige 1981), so the
    Krylov matrix [B, AB, ..., A^{r-1} B] and its overflow never arise.  The
    stable modal subspace is taken from an ordered real Schur form;
    eigenvalues with real part >= -STABLE_EIG_TOL (marginal included) count
    as unstable.
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

    stable: Subspace
    _, Z, sdim = scipy.linalg.schur(
        A, output="real", sort=lambda re, im: re < -STABLE_EIG_TOL
    )
    stable = Subspace(Z[:, :sdim]) if sdim else zero_space(r)
    return subspace_sum(reachable, stable)


def restrict_to_invariant(sys: OdeLti, V: Subspace, tol: float = 1e-8) -> OdeLti:
    """Matrices of the maps restricted to an (A-invariant, im B containing) V.

    The returned system expresses the dynamics in V's orthonormal basis W:
    (W^T A W, W^T B, C W, D).

    Raises
    ------
    NotInvariant
        If A V is not contained in V or im B is not contained in V within tol.
    """
    if V.ambient_dim != sys.n_states:
        raise ValueError("subspace does not live in the system's state space")
    W = V.basis
    P_out = np.eye(V.ambient_dim) - W @ W.T
    scale_A = 1.0 + np.linalg.norm(sys.A)
    scale_B = 1.0 + np.linalg.norm(sys.B)
    if V.dim:
        resid_A = np.linalg.norm(P_out @ sys.A @ W)
    else:
        resid_A = 0.0
    resid_B = np.linalg.norm(P_out @ sys.B)
    if resid_A > tol * scale_A or resid_B > tol * scale_B:
        raise NotInvariant(
            f"subspace is not invariant: |proj A V| = {resid_A:.3e}, "
            f"|proj B| = {resid_B:.3e}"
        )
    return OdeLti(W.T @ sys.A @ W, W.T @ sys.B, sys.C @ W, sys.D)

"""Finite- and infinite-horizon LQ optimal control through the associated system.

The DAE-LTI cost

    J_t(x, u) = int_0^t x'Qx + u'Ru ds + (Ex(t))' Q0 (Ex(t))

is minimized over the behavior by rewriting every solution as an output of
the associated ODE-LTI and solving a Riccati problem in the internal state:

* finite horizon: a differential Riccati equation stepped from
  P(0) = (EC_s)' Q0 (EC_s) with the exponential of its Hamiltonian matrix,
  used with the time-reversed gain, optimal cost M(z)' P(t1) M(z);
* infinite horizon: an algebraic Riccati equation on the restriction of the
  associated system to its stabilizability subspace, solved by the Schur
  method and polished by Kleinman-Newton steps, optimal cost
  (M_g z)' P (M_g z), solvable exactly for behaviorally stabilizable z.

Both solvers return the optimal trajectory together with the feedback forms
u* = K_f x* and the pointwise constraint description K1 x + K2 u = 0 whose
solutions are exactly the optimal pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from .associate import AssociatedOdeLti, StabilizableRestriction, stabilizable_restriction
from .dae import DaeLti, Trajectory, is_consistent
from .errors import (
    ConstraintViolated,
    InconsistentInitialState,
    NonFiniteP,
    NoStabilizingStart,
    NotStabilizable,
)
from .subspaces import ensure_matrix

__all__ = [
    "LqWeights",
    "FiniteHorizonSolution",
    "InfiniteHorizonSolution",
    "solve_dre",
    "finite_horizon",
    "solve_are",
    "is_behaviorally_stabilizable",
    "infinite_horizon",
    "trajectory_cost",
    "closed_loop_replay",
    "spectral_abscissa",
]


def _check_symmetric_min_eig(M: np.ndarray, name: str, min_eig: float) -> np.ndarray:
    M = ensure_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got {M.shape}")
    if M.size and np.max(np.abs(M - M.T)) > 1e-12 * (1.0 + np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")
    if M.size:
        smallest = float(np.linalg.eigvalsh(M)[0])
        if smallest <= min_eig:
            kind = "positive definite" if min_eig == 0.0 else "positive semidefinite"
            raise ValueError(f"{name} must be {kind}; smallest eigenvalue {smallest:.3e}")
    return M


@dataclass(frozen=True)
class LqWeights:
    """Cost weights: Q (n x n) > 0 on the state, R (m x m) > 0 on the input,
    Q0 (c x c) >= 0 on the terminal value Ex(t1)."""

    Q: np.ndarray
    R: np.ndarray
    Q0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _check_symmetric_min_eig(self.Q, "Q", 0.0))
        object.__setattr__(self, "R", _check_symmetric_min_eig(self.R, "R", 0.0))
        object.__setattr__(self, "Q0", _check_symmetric_min_eig(self.Q0, "Q0", -1e-12))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @property
    def S(self) -> np.ndarray:
        """Output weight diag(Q, R) of the associated system."""
        return scipy.linalg.block_diag(self.Q, self.R)


@dataclass(frozen=True)
class FiniteHorizonSolution:
    """Finite-horizon LQ result on a uniform grid over [0, t1].

    ``P_samples[j]`` and ``K_samples[j]`` belong to Riccati time tau = grid[j]
    (time left to the horizon); the trajectory and the feedback matrices
    ``K_f_samples[i]``, ``K1_samples[i]`` belong to real time s = grid[i].
    K2 is constant.  cost = M(z)' P(t1) M(z).
    """

    grid: np.ndarray
    P_samples: np.ndarray
    K_samples: np.ndarray
    traj: Trajectory
    K_f_samples: np.ndarray
    K1_samples: np.ndarray
    K2: np.ndarray
    cost: float
    v_samples: np.ndarray

    @property
    def P_terminal(self) -> np.ndarray:
        return self.P_samples[-1]


@dataclass(frozen=True)
class InfiniteHorizonSolution:
    """Infinite-horizon LQ result.

    P and K live on the stabilizability restriction (dimension l); the
    feedback forms act on the original signals: u* = K_f x* with K_f m x n,
    and K1 x + K2 u = 0 characterizes the optimal pair pointwise.  K_z maps
    the consistent initial value z directly to the input, u* = K_z (Ex*).
    """

    P: np.ndarray
    K: np.ndarray
    K_f: np.ndarray
    K_z: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    traj: Trajectory
    cost: float
    closed_loop_abscissa: float
    restriction: StabilizableRestriction
    v0: np.ndarray


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part of the eigenvalues; -inf for the 0 x 0 matrix."""
    if A.size == 0:
        return -np.inf
    return float(np.max(np.real(np.linalg.eigvals(A))))


def _gain_kernel(D, C, S):
    """W = D'SD (Cholesky-factored), plus the constant part D'SC of the gain."""
    W = D.T @ S @ D
    try:
        cho = scipy.linalg.cho_factor(W)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(
            "D'SD is not positive definite; the LQ gain is undefined "
            "(requires full column rank D and positive definite Q, R)"
        ) from exc
    return cho, D.T @ S @ C


def solve_dre(
    assoc: AssociatedOdeLti, w: LqWeights, t1: float, steps: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the differential Riccati equation of the associated system.

    Returns (P_samples, K_samples) on the uniform grid tau_j = j t1/steps,
    where tau counts time left to the horizon:

        dP/dtau = A_l'P + PA_l - K'(D_l'SD_l)K + C_l'SC_l,
        P(0) = (EC_s)'Q0(EC_s),
        K = (D_l'SD_l)^{-1}(B_l'P + D_l'SC_l), or K = 0 when D_l = 0.

    Each step of length h applies the exponential of the Hamiltonian

        Phi = expm(h [[-A_r, G], [Q_r, A_r']]),
        P <- (Phi_21 + Phi_22 P)(Phi_11 + Phi_12 P)^{-1},

    with A_r = A_l - B_l W^{-1}D_l'SC_l, G = B_l W^{-1}B_l',
    Q_r = C_l'SC_l - C_l'SD_l W^{-1}D_l'SC_l and W = D_l'SD_l.  The step is
    exact up to rounding; P is symmetrized after each one.  ``steps``
    defaults to max(2000, ceil(1000 t1)).
    """
    if t1 <= 0:
        raise ValueError("t1 must be positive")
    if steps is None:
        steps = max(2000, int(np.ceil(1000.0 * t1)))
    if steps < 100:
        raise ValueError("steps must be at least 100")

    A, B, C, D = assoc.A_l, assoc.B_l, assoc.C_l, assoc.D_l
    n_hat, k = assoc.n_hat, assoc.k
    S = w.S
    if S.shape[0] != C.shape[0]:
        raise ValueError(
            f"weights are for signal dimensions n={w.n}, m={w.m}, "
            f"but the system outputs {C.shape[0]} rows"
        )
    CSC = C.T @ S @ C
    P0 = assoc.EC_s.T @ w.Q0 @ assoc.EC_s

    zero_D = np.linalg.norm(D) == 0.0
    if zero_D:
        A_r, G, Q_r = A, np.zeros((n_hat, n_hat)), CSC
    else:
        cho, DSC = _gain_kernel(D, C, S)
        F = scipy.linalg.cho_solve(cho, np.hstack([DSC, B.T]))
        A_r = A - B @ F[:, :n_hat]
        G = B @ F[:, n_hat:]
        Q_r = CSC - DSC.T @ F[:, :n_hat]

    h = t1 / steps
    Phi = scipy.linalg.expm(h * np.block([[-A_r, G], [Q_r, A_r.T]]))
    Phi11, Phi12 = Phi[:n_hat, :n_hat], Phi[:n_hat, n_hat:]
    Phi21, Phi22 = Phi[n_hat:, :n_hat], Phi[n_hat:, n_hat:]
    P = P0
    P_samples = np.empty((steps + 1, n_hat, n_hat))
    P_samples[0] = P
    for j in range(steps):
        # P_new (Phi11 + Phi12 P) = Phi21 + Phi22 P, solved transposed.
        P = np.linalg.solve((Phi11 + Phi12 @ P).T, (Phi21 + Phi22 @ P).T).T
        P = 0.5 * (P + P.T)
        if not np.all(np.isfinite(P)):
            raise NonFiniteP(f"Riccati state lost finiteness at tau = {(j + 1) * h:.6g}")
        P_samples[j + 1] = P

    if zero_D:
        K_samples = np.zeros((steps + 1, k, n_hat))
    else:
        # One solve for every node: K_j = W^{-1}(B'P_j + D'SC).
        rhs = (B.T @ P_samples + DSC).transpose(1, 0, 2).reshape(k, -1)
        K_samples = scipy.linalg.cho_solve(cho, rhs).reshape(k, steps + 1, n_hat)
        K_samples = K_samples.transpose(1, 0, 2)
    return P_samples, K_samples


def finite_horizon(
    dae: DaeLti,
    assoc: AssociatedOdeLti,
    w: LqWeights,
    z,
    t1: float,
    steps: int | None = None,
) -> FiniteHorizonSolution:
    """Solve the finite-horizon LQ problem from the consistent value z = Ex(0).

    The optimal pair is (x*, u*)(s) = (C_l - D_l K(t1 - s)) v(s) with
    v' = (A_l - B_l K(t1 - s)) v, v(0) = M z; the cost is M(z)'P(t1)M(z).
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != dae.c:
        raise ValueError(f"z must have length {dae.c}")
    if not is_consistent(dae, assoc, z):
        raise InconsistentInitialState(
            "z is not in the consistency set image(E C_s); no solution starts there"
        )

    P_samples, K_samples = solve_dre(assoc, w, t1, steps)
    n_nodes = P_samples.shape[0]
    grid = np.linspace(0.0, t1, n_nodes)
    h = t1 / (n_nodes - 1)

    A, B, C, D = assoc.A_l, assoc.B_l, assoc.C_l, assoc.D_l
    v0 = assoc.M @ z
    v = v0.copy()
    v_samples = np.empty((n_nodes, assoc.n_hat))
    v_samples[0] = v
    # Closed loop v' = (A - B K(t1 - s)) v; the reversed gain lands exactly
    # on grid nodes, RK4 midpoint stages use the node average.
    for i in range(n_nodes - 1):
        K0 = K_samples[n_nodes - 1 - i]
        K1_ = K_samples[n_nodes - 2 - i]
        Km = 0.5 * (K0 + K1_)
        a0 = A @ v - B @ (K0 @ v)
        vm = v + 0.5 * h * a0
        a1 = A @ vm - B @ (Km @ vm)
        vm = v + 0.5 * h * a1
        a2 = A @ vm - B @ (Km @ vm)
        vend = v + h * a2
        a3 = A @ vend - B @ (K1_ @ vend)
        v = v + (h / 6.0) * (a0 + 2.0 * a1 + 2.0 * a2 + a3)
        v_samples[i + 1] = v

    ME = assoc.M @ dae.E
    n, m = assoc.n, assoc.m
    outputs = np.empty((n_nodes, n + m))
    K_f_samples = np.empty((n_nodes, m, n))
    K1_samples = np.empty((n_nodes, n + m, n))
    state_selector = np.vstack([np.eye(n), np.zeros((m, n))])
    for i in range(n_nodes):
        K_rev = K_samples[n_nodes - 1 - i]
        C_cl = C - D @ K_rev
        outputs[i] = C_cl @ v_samples[i]
        K_f_samples[i] = C_cl[n:] @ ME
        K1_samples[i] = C_cl @ ME - state_selector
    K2 = np.vstack([np.zeros((n, m)), -np.eye(m)])

    traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])
    cost = float(v0 @ P_samples[-1] @ v0)
    return FiniteHorizonSolution(
        grid, P_samples, K_samples, traj, K_f_samples, K1_samples, K2, cost, v_samples
    )


def solve_are(
    restr: StabilizableRestriction, w: LqWeights, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the algebraic Riccati equation of the restricted system.

        0 = P A_g + A_g'P - K'(D_g'SD_g)K + C_g'SC_g,
        K = (D_g'SD_g)^{-1}(B_g'P + D_g'SC_g),

    by the Schur method of ``scipy.linalg.solve_continuous_are`` with the
    cross term D_g'SC_g, followed by at most three Kleinman-Newton polish
    steps, each one Lyapunov solve on the closed loop A_g - B_g K.  The
    restricted associated system has no invariant zeros, so the Hamiltonian
    has no eigenvalues on the imaginary axis.
    When D_g = 0 (and hence B_g = 0 for an associated system) P is the
    observability Gramian from a single Lyapunov solve and K = 0.

    Returns (P, K) with P symmetric, relative ARE residual <= tol and
    A_g - B_g K stable; raises NoStabilizingStart otherwise.
    """
    A, B = restr.A_g, restr.B_g
    C, D = restr.C_g, restr.D_g
    S = w.S
    l, k = restr.l, B.shape[1]
    if S.shape[0] != C.shape[0]:
        raise ValueError(
            f"weights are for signal dimensions n={w.n}, m={w.m}, "
            f"but the system outputs {C.shape[0]} rows"
        )
    if l == 0:
        return np.zeros((0, 0)), np.zeros((k, 0))

    if np.linalg.norm(D) == 0.0:
        if np.linalg.norm(B) != 0.0:
            raise ValueError("zero-feedthrough branch requires B_g = 0 as well")
        P = scipy.linalg.solve_continuous_lyapunov(A.T, -(C.T @ S @ C))
        P = 0.5 * (P + P.T)
        K = np.zeros((k, l))
        _check_are_residual(restr, S, P, K, tol)
        return P, K

    cho, DSC = _gain_kernel(D, C, S)
    try:
        P = scipy.linalg.solve_continuous_are(A, B, C.T @ S @ C, D.T @ S @ D, s=DSC.T)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NoStabilizingStart(f"Schur ARE solver failed: {exc}") from exc
    P = 0.5 * (P + P.T)
    K = scipy.linalg.cho_solve(cho, B.T @ P + DSC)
    for _ in range(3):
        C_cl = C - D @ K
        P_new = scipy.linalg.solve_continuous_lyapunov((A - B @ K).T, -(C_cl.T @ S @ C_cl))
        P_new = 0.5 * (P_new + P_new.T)
        if not np.all(np.isfinite(P_new)):
            raise NoStabilizingStart("Kleinman-Newton polish diverged")
        converged = np.linalg.norm(P_new - P) <= 1e-13 * (1.0 + np.linalg.norm(P_new))
        P = P_new
        K = scipy.linalg.cho_solve(cho, B.T @ P + DSC)
        if converged:
            break

    _check_are_residual(restr, S, P, K, tol)
    return P, K


def _check_are_residual(restr, S, P, K, tol):
    A, B, C, D = restr.A_g, restr.B_g, restr.C_g, restr.D_g
    W = D.T @ S @ D
    resid = P @ A + A.T @ P - K.T @ W @ K + C.T @ S @ C
    rel = np.linalg.norm(resid) / (1.0 + np.linalg.norm(P))
    if rel > tol:
        raise NoStabilizingStart(f"ARE residual {rel:.3e} exceeds tolerance {tol:.1e}")
    abscissa = spectral_abscissa(A - B @ K)
    if P.size and abscissa >= 0.0:
        raise NoStabilizingStart(f"closed loop is not stable (abscissa {abscissa:.3e})")


def is_behaviorally_stabilizable(dae: DaeLti, assoc: AssociatedOdeLti, z) -> bool:
    """Whether some behavior trajectory has Ex(0) = z and x(t) -> 0.

    Requires z consistent; the criterion is membership of M(z) in the
    stabilizability subspace of (A_l, B_l).
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if not is_consistent(dae, assoc, z):
        raise InconsistentInitialState("z is not in the consistency set image(E C_s)")
    restr = stabilizable_restriction(assoc)
    return _stabilizable_value(restr, assoc.M @ z)


def _stabilizable_value(restr: StabilizableRestriction, v: np.ndarray) -> bool:
    """Membership of v in the stabilizability subspace, via its projector."""
    defect = v - restr.projector.T @ (restr.projector @ v)
    return bool(np.linalg.norm(defect) <= 1e-8 * max(1.0, np.linalg.norm(v)))


def _expm_samples(A_cl: np.ndarray, v0: np.ndarray, h: float, n_samples: int) -> np.ndarray:
    """Samples of v' = A_cl v from v0 at spacing h by exact exponential stepping."""
    v_samples = np.empty((n_samples, v0.shape[0]))
    if v0.shape[0] == 0:
        return v_samples
    stepper = scipy.linalg.expm(A_cl * h)
    v_samples[0] = v0
    for i in range(n_samples - 1):
        v_samples[i + 1] = stepper @ v_samples[i]
    return v_samples


def infinite_horizon(
    dae: DaeLti,
    assoc: AssociatedOdeLti,
    w: LqWeights,
    z,
    T_sim: float | None = None,
    steps: int | None = None,
) -> InfiniteHorizonSolution:
    """Solve the infinite-horizon LQ problem from the consistent value z = Ex(0).

    Restricts the associated system to its stabilizability subspace, solves
    the ARE there, and forms the optimal pair
    (x*, u*)(s) = (C_g - D_g K) e^{(A_g - B_g K)s} M_g z with cost
    (M_g z)' P (M_g z).  The trajectory field samples [0, T_sim] (default
    50/|closed-loop abscissa|, capped at 1e4) by exact matrix-exponential
    stepping.

    Raises NotStabilizable exactly when no behavior trajectory from z decays.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != dae.c:
        raise ValueError(f"z must have length {dae.c}")
    if not is_consistent(dae, assoc, z):
        raise InconsistentInitialState("z is not in the consistency set image(E C_s)")

    restr = stabilizable_restriction(assoc)
    v_full = assoc.M @ z
    if not _stabilizable_value(restr, v_full):
        raise NotStabilizable(
            "z is not behaviorally stabilizable: M(z) leaves the stabilizability subspace"
        )
    v0 = restr.projector @ v_full

    P, K = solve_are(restr, w)
    A_cl = restr.A_g - restr.B_g @ K
    C_cl = restr.C_g - restr.D_g @ K
    abscissa = spectral_abscissa(A_cl)

    if T_sim is None:
        T_sim = min(50.0 / abs(abscissa), 1e4) if np.isfinite(abscissa) else 1.0
    if steps is None:
        a_scale = np.linalg.norm(A_cl, 2) if A_cl.size else 0.0
        steps = int(max(2000, min(np.ceil(10.0 * T_sim * (1.0 + a_scale)), 200_000)))
    grid = np.linspace(0.0, T_sim, steps + 1)
    v_samples = _expm_samples(A_cl, v0, T_sim / steps, steps + 1)
    outputs = v_samples @ C_cl.T
    n, m = assoc.n, assoc.m
    traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])

    M_g = restr.M_g
    K_z = C_cl[n:] @ M_g
    K_f = K_z @ dae.E
    state_selector = np.vstack([np.eye(n), np.zeros((m, n))])
    K1 = C_cl @ M_g @ dae.E - state_selector
    K2 = np.vstack([np.zeros((n, m)), -np.eye(m)])
    cost = float(v0 @ P @ v0)
    return InfiniteHorizonSolution(
        P, K, K_f, K_z, K1, K2, traj, cost, abscissa, restr, v0
    )


def trajectory_cost(
    w: LqWeights, E: np.ndarray, traj: Trajectory, terminal: bool = False
) -> float:
    """Composite Simpson quadrature of x'Qx + u'Ru, plus (Ex(t1))'Q0(Ex(t1))
    when ``terminal`` is set."""
    if traj.times.shape[0] < 2:
        raise ValueError("trajectory must have at least two samples")
    integrand = np.einsum("ij,jk,ik->i", traj.x, w.Q, traj.x) + np.einsum(
        "ij,jk,ik->i", traj.u, w.R, traj.u
    )
    total = float(scipy.integrate.simpson(integrand, x=traj.times))
    if terminal:
        E = ensure_matrix(E, "E")
        z_end = E @ traj.x[-1]
        total += float(z_end @ w.Q0 @ z_end)
    return total


def closed_loop_replay(
    dae: DaeLti,
    assoc: AssociatedOdeLti,
    solution: FiniteHorizonSolution | InfiniteHorizonSolution,
    z,
    w: LqWeights | None = None,
    tol: float = 1e-6,
) -> Trajectory:
    """Re-simulate the closed loop of a prior solve and verify the constraint.

    The replayed pair must satisfy K1 x + K2 u = 0 (with the solve's own
    matrices) up to ``tol`` in the max norm at every grid node; since the
    optimal pair is the unique solution of that pointwise constraint, the
    check pins it grid-pointwise.
    Finite-horizon replays re-run the time-varying loop and therefore need
    the original weights ``w``.

    Raises ConstraintViolated when the check fails.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if isinstance(solution, InfiniteHorizonSolution):
        restr = solution.restriction
        A_cl = restr.A_g - restr.B_g @ solution.K
        C_cl = restr.C_g - restr.D_g @ solution.K
        grid = solution.traj.times
        v0 = restr.projector @ (assoc.M @ z)
        v_samples = _expm_samples(A_cl, v0, grid[1] - grid[0], grid.shape[0])
        outputs = v_samples @ C_cl.T
        n = assoc.n
        traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])
        defect = traj.x @ solution.K1.T + traj.u @ solution.K2.T
    else:
        if w is None:
            raise ValueError("finite-horizon replay requires the original weights w")
        sol2 = finite_horizon(
            dae, assoc, w, z, float(solution.grid[-1]), steps=solution.grid.shape[0] - 1
        )
        traj = sol2.traj
        defect = np.einsum(
            "ioj,ij->io", solution.K1_samples, traj.x
        ) + traj.u @ solution.K2.T
    worst = float(np.max(np.abs(defect))) if defect.size else 0.0
    if worst > tol:
        raise ConstraintViolated(
            f"replayed trajectory violates K1 x + K2 u = 0: max defect {worst:.3e}"
        )
    return traj

"""Finite- and infinite-horizon LQ optimal control through the associated system.

The DAE-LTI cost

    J_t(x, u) = int_0^t x'Qx + u'Ru ds + (Ex(t))' Q0 (Ex(t))

is minimized over the behavior by rewriting every solution as an output of
the associated ODE-LTI and solving a Riccati problem in the internal state:

* finite horizon: a differential Riccati equation from
  P(0) = (EC_s)' Q0 (EC_s), whose exact step, the exponential of its
  Hamiltonian matrix, is applied over the whole grid by structure-preserving
  doubling; the closed loop runs with the time-reversed gain, its back steps
  read off in closed form from the symplectic inverse of that one exponential
  and composed by a work-efficient scan, optimal cost M(z)' P(t1) M(z);
* infinite horizon: an algebraic Riccati equation on the restriction of the
  associated system to its stabilizability subspace, solved by the Schur
  method (Laub 1979) from the ordered real Schur form of the 2l x 2l
  Hamiltonian built on the DRE's reduced data and polished by
  Kleinman-Newton steps, optimal cost (M_g z)' P (M_g z), solvable exactly
  for behaviorally stabilizable z.

Each equation has one public solver, its only implementation, which the
horizon solver calls: ``solve_dre`` returns the samples together with the
exponential the closed loop steps back by, ``solve_are`` the solution
together with its closed-loop abscissa.  Both equations share one builder
of that data and one gain routine.  Both horizon solvers return the
optimal trajectory together with the feedback forms
u* = K_f x* and the pointwise constraint description K1 x + K2 u = 0 whose
solutions are exactly the optimal pair; ``closed_loop_replay`` checks a
returned trajectory against it without solving anything again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .associate import AssociatedOdeLti, StabilizableRestriction
from .dae import DaeLti, Trajectory
from .errors import (
    ConstraintViolated,
    InconsistentInitialState,
    NonFiniteP,
    NoStabilizingStart,
    NotStabilizable,
)
from .odesys import OdeLti, simulate
from .subspaces import (
    ARE_RESIDUAL_TOL,
    EQUALITY_TOL,
    POLISH_RESIDUAL_TOL,
    REPLAY_TOL,
    SEMIDEFINITE_TOL,
    SYMMETRY_TOL,
    ensure_matrix,
)

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
    if M.size and np.max(np.abs(M - M.T)) > SYMMETRY_TOL * (1.0 + np.max(np.abs(M))):
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
        Q0 = _check_symmetric_min_eig(self.Q0, "Q0", -SEMIDEFINITE_TOL)
        object.__setattr__(self, "Q0", Q0)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @cached_property
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


def _hamiltonian(sys: OdeLti, w: LqWeights):
    """Reduced Hamiltonian data of the LQ problem on (A, B, C, D) with output
    weight S = diag(Q, R): (cho, DSC, A_r, G, Q_r) with cho the Cholesky
    factor of W = D'SD, DSC = D'SC, A_r = A - B W^{-1}D'SC,
    G = B W^{-1}B' and Q_r = C'SC - C'SD W^{-1}D'SC.  With no input (k = 0)
    W is 0 x 0, A_r = A, G = 0 and Q_r = C'SC.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    S = w.S
    if S.shape[0] != C.shape[0]:
        raise ValueError(
            f"weights are for signal dimensions n={w.n}, m={w.m}, "
            f"but the system outputs {C.shape[0]} rows"
        )
    try:
        cho = scipy.linalg.cho_factor(D.T @ S @ D)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(
            "D'SD is not positive definite; the LQ gain is undefined "
            "(requires full column rank D and positive definite Q, R)"
        ) from exc
    DSC = D.T @ S @ C
    n = A.shape[0]
    F = scipy.linalg.cho_solve(cho, np.hstack([DSC, B.T]))
    return cho, DSC, A - B @ F[:, :n], B @ F[:, n:], C.T @ S @ C - DSC.T @ F[:, :n]


def _gain(cho, DSC, B: np.ndarray, P: np.ndarray) -> np.ndarray:
    """K = W^{-1}(B'P + D'SC) for one P or, in one solve, for each P of a
    stack; K has no rows when there is no input (k = 0).

    Every P of a stack is symmetric, so B'P_j = (P_j B)' and one product over
    the stack's rows forms them all.
    """
    if P.ndim == 2:
        return scipy.linalg.cho_solve(cho, B.T @ P + DSC)
    N, n = P.shape[:2]
    k = B.shape[1]
    PB = (P.reshape(N * n, n) @ B).reshape(N, n, k) + DSC.T
    K = scipy.linalg.cho_solve(cho, PB.reshape(N * n, k).T)
    return K.reshape(k, N, n).swapaxes(0, 1)


def _closed_loop(sys: OdeLti, K: np.ndarray) -> OdeLti:
    """The system under the feedback q = -K v."""
    return OdeLti(sys.A - sys.B @ K, sys.B, sys.C - sys.D @ K, sys.D)


def _feedback_forms(C_cl: np.ndarray, ME: np.ndarray, n: int):
    """(K_f, K1, K2) from the closed-loop output map C_cl, or a stack of
    them, and the map ME from x to the internal state: u = K_f x, and
    K1 x + K2 u = 0 holds exactly for the optimal pair.  K1 = C_cl ME - [I; 0]
    is one product over a stack's rows, and K_f is a view of its last m rows."""
    rows = C_cl.shape[:-1]
    K1 = (C_cl.reshape(math.prod(rows), ME.shape[0]) @ ME).reshape(*rows, ME.shape[1])
    m = C_cl.shape[-2] - n
    K1[..., :n, :] -= np.eye(n)
    K2 = np.vstack([np.zeros((n, m)), -np.eye(m)])
    return K1[..., n:, :], K1, K2


def _internal_start(assoc: AssociatedOdeLti, z) -> np.ndarray:
    """The internal state M z of a consistent initial value z = Ex(0)."""
    z = np.asarray(z, dtype=float).reshape(-1)
    c = assoc.E.shape[0]
    if z.shape[0] != c:
        raise ValueError(f"z must have length {c}")
    if not assoc.consistency_set.contains_vector(z):
        raise InconsistentInitialState(
            "z is not in the consistency set image(E C_s); no solution starts there"
        )
    return assoc.M @ z


def _sym(X: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (X + X.swapaxes(-1, -2))


def solve_dre(
    assoc: AssociatedOdeLti, w: LqWeights, t1: float, steps: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the differential Riccati equation of the associated system.

    Returns (P_samples, K_samples, Phi) on the uniform grid
    tau_j = j t1/steps, where tau counts time left to the horizon and Phi is
    the Hamiltonian exponential of one step (below):

        dP/dtau = A_l'P + PA_l - K'(D_l'SD_l)K + C_l'SC_l,
        P(0) = (EC_s)'Q0(EC_s),
        K = (D_l'SD_l)^{-1}(B_l'P + D_l'SC_l),

    which has no rows when the behavior has no free input (k = 0).

    One step of length h applies the exponential of the Hamiltonian,

        Phi = expm(h [[-A_r, G], [Q_r, A_r']]),
        P <- (Phi_21 + Phi_22 P)(Phi_11 + Phi_12 P)^{-1},

    with A_r = A_l - B_l W^{-1}D_l'SC_l, G = B_l W^{-1}B_l',
    Q_r = C_l'SC_l - C_l'SD_l W^{-1}D_l'SC_l and W = D_l'SD_l.  Since Phi is
    symplectic, the step is f(P) = H_1 + A_1'P(I + G_1 P)^{-1}A_1 with
    A_1 = Phi_11^{-1}, G_1 = Phi_11^{-1}Phi_12 and H_1 = Phi_21 Phi_11^{-1},
    G_1 and H_1 symmetric, and the structure-preserving doubling algorithm
    (Chu, Fan & Lin 2005, Linear Algebra Appl. 396) gives f^{2d} from f^d:

        A_2d = A_d (I + G_d H_d)^{-1} A_d,
        G_2d = G_d + A_d (I + G_d H_d)^{-1} G_d A_d',
        H_2d = H_d + A_d'H_d (I + G_d H_d)^{-1} A_d.

    The grid is filled by doubling, P_samples[d:2d] = f^d(P_samples[:d]) in
    one batched solve for d = 1, 2, 4, ..., so there is no per-step loop.
    Since P(I + GP)^{-1} = (I + PG)^{-1}P, the solve has the stack itself as
    right-hand side: f^d(P) = H_d + A_d'Z A_d with (I + P G_d) Z = P, and the
    fixed A_d and G_d act on the stack's rows in one matrix product each.
    The steps are exact up to rounding; every P is symmetrized.  ``steps``
    defaults to max(2000, ceil(1000 t1)); t1 must be positive and finite.

    Raises NonFiniteP, naming the first node, when P overflows.
    """
    if not 0.0 < t1 < np.inf:
        raise ValueError("t1 must be positive and finite")
    if steps is None:
        steps = max(2000, int(np.ceil(1000.0 * t1)))
    if steps < 100:
        raise ValueError("steps must be at least 100")

    n_hat = assoc.n_hat
    h = t1 / steps
    cho, DSC, A_r, G, Q_r = _hamiltonian(assoc.as_ode(), w)
    Phi = scipy.linalg.expm(h * np.block([[-A_r, G], [Q_r, A_r.T]]))
    n_nodes = steps + 1
    P_samples = np.empty((n_nodes, n_hat, n_hat))
    P_samples[0] = assoc.EC_s.T @ w.Q0 @ assoc.EC_s
    I = np.eye(n_hat)
    # Overflow is reported by NonFiniteP alone, not by a warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.linalg.inv(Phi[:n_hat, :n_hat])
        G = _sym(A @ Phi[:n_hat, n_hat:])
        H = _sym(Phi[n_hat:, :n_hat] @ A)
        end = n_nodes if n_hat else 0  # an empty state has no node to fill
        d = 1
        while d < end:
            P = P_samples[: min(d, n_nodes - d)]
            # G and A act on the stack's rows; Z is symmetric, so A'ZA is (ZA)'A.
            Z = np.linalg.solve(I + (P.reshape(-1, n_hat) @ G).reshape(P.shape), P)
            ZA = (Z.reshape(-1, n_hat) @ A).reshape(P.shape)
            P_new = _sym(H + (ZA.swapaxes(1, 2).reshape(-1, n_hat) @ A).reshape(P.shape))
            finite = np.isfinite(P_new).all(axis=(1, 2))
            if not finite.all():
                node = d + int(np.argmin(finite))
                raise NonFiniteP(f"Riccati state lost finiteness at tau = {node * h:.6g}")
            P_samples[d : d + P.shape[0]] = P_new
            d *= 2
            if d < end:
                # A, G, H of f^d become those of f^{2d}, by one solve with I + GH.
                X, Y = np.hsplit(np.linalg.solve(I + G @ H, np.hstack([A, G @ A.T])), 2)
                A, G, H = A @ X, _sym(G + A @ Y), _sym(H + A.T @ H @ X)

    return P_samples, _gain(cho, DSC, assoc.B_l, P_samples), Phi


def _back_scan(Phi: np.ndarray, P_samples: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """The closed loop's states v_0, ..., v_N on the nodes of real time s.

    In tau = t1 - s the DRE step's X block, from I to Phi11 + Phi12 P_j, is a
    fundamental matrix of the closed loop, so real time steps back exactly by
    its inverse.  Phi is symplectic, [[Phi22', -Phi12'], [-Phi21', Phi11']]
    inverts it, and so step i back is back_i = Phi22' - (P_{N-i} Phi12)'.
    v_{i+1} = back_i ... back_0 v_0 is a work-efficient scan (Blelloch 1990):
    the up-sweep makes Pi_i the product of the s factors ending at back_i, s
    the largest power of two dividing i + 1; then, s halving, the down-sweep
    sets v_m = Pi_{m-1} v_{m-s} on the odd multiples m of s.
    """
    N, n_hat = P_samples.shape[0] - 1, v0.shape[0]
    PPhi12 = P_samples[1:].reshape(N * n_hat, n_hat) @ Phi[:n_hat, n_hat:]
    Pi = Phi[n_hat:, n_hat:].T - PPhi12.reshape(N, n_hat, n_hat)[::-1].swapaxes(1, 2)
    s = 1
    while 2 * s <= N:
        block = Pi[2 * s - 1 :: 2 * s]
        block[...] = block @ Pi[s - 1 :: 2 * s][: block.shape[0]]
        s *= 2
    v_samples = np.empty((N + 1, n_hat))
    v_samples[0] = v0
    while s:
        v_back = v_samples[: N + 1 - s : 2 * s, :, None]
        v_samples[s :: 2 * s] = (Pi[s - 1 :: 2 * s] @ v_back)[..., 0]
        s //= 2
    return v_samples


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
    ``dae`` is not consulted (E is ``assoc.E``); the benchmark still passes it.
    """
    v0 = _internal_start(assoc, z)
    P_samples, K_samples, Phi = solve_dre(assoc, w, t1, steps)
    n_nodes, n_hat = P_samples.shape[:2]
    grid = np.linspace(0.0, t1, n_nodes)
    v_samples = _back_scan(Phi, P_samples, v0)

    # C_cl,i = C_l - D_l K(t1 - s_i), D_l times all the gains in one product.
    p = assoc.C_l.shape[0]
    DK = assoc.D_l @ K_samples.swapaxes(0, 1).reshape(assoc.k, n_nodes * n_hat)
    C_cl = assoc.C_l - DK.reshape(p, n_nodes, n_hat).swapaxes(0, 1)[::-1]
    n = assoc.n
    K_f_samples, K1_samples, K2 = _feedback_forms(C_cl, assoc.M @ assoc.E, n)
    Kv = np.einsum("ijk,ik->ij", K_samples[::-1], v_samples)
    outputs = v_samples @ assoc.C_l.T - Kv @ assoc.D_l.T
    traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])
    cost = float(v0 @ P_samples[-1] @ v0)
    return FiniteHorizonSolution(
        grid, P_samples, K_samples, traj, K_f_samples, K1_samples, K2, cost, v_samples
    )


def solve_are(sys: OdeLti, w: LqWeights) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the algebraic Riccati equation of a restricted system.

    ``sys`` is (A_g, B_g, C_g, D_g), a realization's ``restriction.sys_g``:

        0 = P A_g + A_g'P - K'(D_g'SD_g)K + C_g'SC_g,
        K = (D_g'SD_g)^{-1}(B_g'P + D_g'SC_g),

    by the Schur method (Laub 1979, "A Schur method for solving algebraic
    Riccati equations", IEEE TAC 24) on the reduced data of the DRE's
    Hamiltonian, 0 = P A_r + A_r'P - P G P + Q_r with G = B_g W^{-1} B_g'
    and W = D_g'SD_g: the ordered real Schur form U'HU of the 2l x 2l
    Hamiltonian H = [[A_r, -G], [-Q_r, -A_r']] puts its l stable
    eigenvalues first, and P = U_21 U_11^{-1} from the first l Schur
    vectors.  Kleinman-Newton polish steps follow (Kleinman 1968, IEEE TAC
    13), each one Lyapunov solve on the closed loop A_g - B_g K: at least
    one and at most three, stopping as soon as the scaled residual
    ``_are_residual`` is at most ``POLISH_RESIDUAL_TOL``.  The restricted
    associated system has no invariant zeros, so the Hamiltonian has no
    eigenvalues on the imaginary axis and exactly l stable ones.  With no
    input (k = 0) G = 0, K has no rows and the first polish step is the
    Lyapunov solve for the observability Gramian.

    Returns (P, K, abscissa) with P symmetric, the last polish step's
    residual at most ``ARE_RESIDUAL_TOL`` and A_g - B_g K stable, of
    spectral abscissa ``abscissa`` (-inf when l = 0); raises
    NoStabilizingStart otherwise.
    """
    S = w.S
    cho, DSC, A_r, G, Q_r = _hamiltonian(sys, w)
    l, k = sys.n_states, sys.n_inputs
    if l == 0:
        return np.zeros((0, 0)), np.zeros((k, 0)), -np.inf

    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    H = np.block([[A_r, -_sym(G)], [-_sym(Q_r), -A_r.T]])
    try:
        _, U, sdim = scipy.linalg.schur(H, output="real", sort="lhp")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NoStabilizingStart(f"Hamiltonian Schur form failed: {exc}") from exc
    if sdim != l:
        raise NoStabilizingStart(f"Hamiltonian has {sdim} stable eigenvalues, not {l}")
    try:
        P = np.linalg.solve(U[:l, :l].T, U[l:, :l].T).T
    except np.linalg.LinAlgError:
        P = None
    # A U11 that is singular to working precision may overflow instead.
    if P is None or not np.all(np.isfinite(P)):
        raise NoStabilizingStart("stable Schur basis has a singular U11")
    P = _sym(P)
    K = _gain(cho, DSC, B, P)
    for _ in range(3):
        C_cl = C - D @ K
        P = _sym(scipy.linalg.solve_continuous_lyapunov((A - B @ K).T, -(C_cl.T @ S @ C_cl)))
        if not np.all(np.isfinite(P)):
            raise NoStabilizingStart("Kleinman-Newton polish diverged")
        K = _gain(cho, DSC, B, P)
        rel = _are_residual(sys, S, P, K)
        if rel <= POLISH_RESIDUAL_TOL:
            break

    if rel > ARE_RESIDUAL_TOL:
        raise NoStabilizingStart(
            f"ARE residual {rel:.3e} exceeds tolerance {ARE_RESIDUAL_TOL:.1e}"
        )
    abscissa = spectral_abscissa(A - B @ K)
    if abscissa >= 0.0:
        raise NoStabilizingStart(f"closed loop is not stable (abscissa {abscissa:.3e})")
    return P, K, abscissa


def _are_residual(sys: OdeLti, S: np.ndarray, P: np.ndarray, K: np.ndarray) -> float:
    """||R||_F of R = PA + A'P - K'(D'SD)K + C'SC, relative to the norms of
    its closed-loop Lyapunov form (A - BK)'P + P(A - BK) + (C - DK)'S(C - DK):
    2 ||A - BK||_F ||P||_F + ||(C - DK)'S(C - DK)||_F.

    Scaling time scales A, B and S, and R and the denominator alike, so the
    check reads the same on a fast system as on a slow one.  Both terms
    vanish only when R does, and 0/0 reads 0.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    resid = P @ A + A.T @ P - K.T @ (D.T @ S @ D) @ K + C.T @ S @ C
    C_cl = C - D @ K
    scale = 2.0 * np.linalg.norm(A - B @ K) * np.linalg.norm(P) + np.linalg.norm(
        C_cl.T @ S @ C_cl
    )
    return float(np.linalg.norm(resid) / scale) if scale else 0.0


def is_behaviorally_stabilizable(dae: DaeLti, assoc: AssociatedOdeLti, z) -> bool:
    """Whether some behavior trajectory has Ex(0) = z and x(t) -> 0.

    Requires z consistent; the criterion is membership of M(z) in the
    stabilizability subspace of (A_l, B_l).  ``dae`` is not consulted; the
    benchmark still passes it.
    """
    v = _internal_start(assoc, z)
    return assoc.restriction.subspace.contains_vector(v)


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
    (M_g z)' P (M_g z).  The trajectory field samples [0, T_sim] (finite;
    default 50/|closed-loop abscissa|, capped at 1e4) exactly, through
    ``simulate``.  ``dae`` is not consulted (E is ``assoc.E``); the
    benchmark still passes it.

    Raises NotStabilizable exactly when no behavior trajectory from z decays.
    """
    if T_sim is not None and not np.isfinite(T_sim):
        raise ValueError("the sampling horizon T_sim must be finite")
    v_full = _internal_start(assoc, z)
    restr = assoc.restriction
    if not restr.subspace.contains_vector(v_full):
        raise NotStabilizable(
            "z is not behaviorally stabilizable: M(z) leaves the stabilizability subspace"
        )
    v0 = restr.subspace.basis.T @ v_full

    P, K, abscissa = solve_are(restr.sys_g, w)
    cl = _closed_loop(restr.sys_g, K)

    if T_sim is None:
        T_sim = min(50.0 / abs(abscissa), 1e4) if np.isfinite(abscissa) else 1.0
    if steps is None:
        a_scale = np.linalg.norm(cl.A, 2) if cl.A.size else 0.0
        steps = int(max(2000, min(np.ceil(10.0 * T_sim * (1.0 + a_scale)), 200_000)))
    grid = np.linspace(0.0, T_sim, steps + 1)
    _, outputs = simulate(cl, v0, None, grid)
    n = assoc.n
    traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])

    K_z = cl.C[n:] @ restr.M_g
    K_f, K1, K2 = _feedback_forms(cl.C, restr.M_g @ assoc.E, n)
    cost = float(v0 @ P @ v0)
    return InfiniteHorizonSolution(
        P, K, K_f, K_z, K1, K2, traj, cost, abscissa, restr, v0
    )


def _simpson(y: np.ndarray, t: np.ndarray) -> float:
    """Composite Simpson's rule for the samples y on the strictly increasing
    grid t, operation for operation SciPy's ``simpson(y, x=t)``.

    Each pair of intervals takes the nonuniform three-point weights.  An odd
    sample count is covered by pairs; an even one (above two) always takes
    Cartwright's correction for its last interval (Cartwright 2017, J. Math.
    Sci. Math. Educ. 12), and two samples take the trapezoid.  SciPy before
    1.11 averaged two trapezoid-ended rules on an even count instead, so a
    cost no longer depends on which SciPy is installed.
    """
    n, h = y.shape[0], np.diff(t)
    if n == 2:
        return float(0.5 * h[0] * (y[1] + y[0]))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, ratio = h0 + h1, h0 / h1
    total = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / ratio)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / (h0 * h1)))
        + y[2 : stop + 2 : 2] * (2.0 - ratio)
    ))
    if n % 2 == 0:
        # np.power, as SciPy's array power: its rounding may differ from b**3's.
        a, b = h[-2], h[-1]
        alpha = (2 * np.square(b) + 3 * a * b) / (6 * (b + a))
        beta = (np.square(b) + 3.0 * a * b) / (6 * a)
        eta = np.power(b, 3) / (6 * a * (a + b))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(total)


def trajectory_cost(
    w: LqWeights, E: np.ndarray, traj: Trajectory, terminal: bool = False
) -> float:
    """Quadrature of x'Qx + u'Ru by composite Simpson's rule on the
    trajectory's own grid (``_simpson``: Cartwright's correction closes an
    even sample count, the trapezoid two samples), plus
    (Ex(t1))'Q0(Ex(t1)) when ``terminal`` is set."""
    if traj.times.shape[0] < 2:
        raise ValueError("trajectory must have at least two samples")
    integrand = np.sum((traj.x @ w.Q) * traj.x, axis=1) + np.sum(
        (traj.u @ w.R) * traj.u, axis=1
    )
    total = _simpson(integrand, traj.times)
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
) -> Trajectory:
    """Check a prior solve's trajectory as the optimal pair from z; return it.

    The trajectory must start at z, ||Ex(0) - z|| <= ``EQUALITY_TOL``
    max(1, ||z||), and satisfy K1 x + K2 u = 0 (with the solve's own
    matrices) up to ``REPLAY_TOL`` in the max norm at every grid node; since
    the optimal pair is the unique solution of that pointwise constraint, the
    check pins it grid-pointwise.  Nothing is simulated or solved again.

    Raises ConstraintViolated when a check fails, and, as the solvers do,
    ValueError for a z of the wrong length and InconsistentInitialState for
    a z outside the consistency set.  ``dae`` is not consulted (E is
    ``assoc.E``); the benchmark still passes it.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    _internal_start(assoc, z)
    traj = solution.traj
    gap = np.linalg.norm(assoc.E @ traj.x[0] - z)
    if gap > EQUALITY_TOL * max(1.0, np.linalg.norm(z)):
        raise ConstraintViolated(f"trajectory starts {gap:.3e} away from z: E x(0) != z")
    if isinstance(solution, InfiniteHorizonSolution):
        K1x = traj.x @ solution.K1.T
    else:
        K1x = np.einsum("ioj,ij->io", solution.K1_samples, traj.x)
    defect = K1x + traj.u @ solution.K2.T
    worst = float(np.max(np.abs(defect))) if defect.size else 0.0
    if worst > REPLAY_TOL:
        raise ConstraintViolated(f"trajectory violates K1 x + K2 u = 0: max defect {worst:.3e}")
    return traj

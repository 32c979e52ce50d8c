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
  Hamiltonian built on the DRE's reduced data and balanced by a symplectic
  diagonal scaling, then one Kleinman-Newton step, optimal cost
  (M_g z)' P (M_g z), solvable exactly for behaviorally stabilizable z.

The Riccati layer calls LAPACK's drivers itself, with SciPy's finiteness
checks and error maps but without its wrappers' per-call dispatch, which
outweighs the arithmetic on small systems: ``dgebal`` balances, ``dgees``
(``odesys._schur``) gives every Schur form, ``dtrsyl`` the Lyapunov solve
on it, ``dpotrf`` factors W = D'SD and ``dpotrs`` on I turns that factor
into the one W^{-1} that every reduced matrix and every gain is multiplied
by, and ``dgesv`` solves the doubling's small I + GH.

Each equation has one public solver, its only implementation, which the
horizon solver calls: ``solve_dre`` returns the samples together with the
exponential the closed loop steps back by, ``solve_are`` the solution
together with its closed-loop abscissa.  Both equations share one builder
of that data and one gain routine.  Both horizon solvers return the
optimal trajectory with the feedback u* = K_f x*, formed by one map
(C - D K) ME for one gain or a gain stack, and the pointwise constraint
K1 x + K2 u = 0 whose solutions are exactly the optimal pair, with
K1 = (C - D K) ME - [I; 0]; the finite horizon stores no K1, which follows
at each node from its gain stack.  ``closed_loop_replay`` checks a
returned trajectory against it without solving anything again.
"""

from __future__ import annotations

import math
import warnings
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
from .odesys import OdeLti, _schur, simulate
from .subspaces import (
    ARE_RESIDUAL_TOL,
    EQUALITY_TOL,
    REPLAY_TOL,
    SEMIDEFINITE_TOL,
    SYMMETRY_TOL,
    _finite,
    _norm,
    _norm2,
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
    (time left to the horizon); the trajectory and the feedback
    ``K_f_samples[i]`` belong to real time s = grid[i].  Node i has the gain
    K_i = ``K_samples[::-1][i]``, so K_f_i = (C_u - D_u K_i) ME and the
    constraint K1_i x + K2 u = 0 has K1_i = (C_l - D_l K_i) ME - [I; 0], with
    ME = ``assoc.M @ assoc.E``; K2 is constant.  cost = M(z)' P(t1) M(z).
    """

    grid: np.ndarray
    P_samples: np.ndarray
    K_samples: np.ndarray
    traj: Trajectory
    K_f_samples: np.ndarray
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
    weight S = diag(Q, R): (W_inv, DSC, A_r, G, Q_r) with W_inv = W^{-1} for
    W = D'SD, DSC = D'SC, A_r = A - B W^{-1}D'SC, G = sym(B W^{-1}B') and
    Q_r = sym(C'SC - C'SD W^{-1}D'SC).  W^{-1} is LAPACK ``dpotrs`` on I with
    the ``dpotrf`` factor of W, formed once for the data and every gain.
    With no input (k = 0) W is 0 x 0, A_r = A, G = 0 and Q_r = sym(C'SC).
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    S = w.S
    if S.shape[0] != C.shape[0]:
        raise ValueError(
            f"weights are for signal dimensions n={w.n}, m={w.m}, "
            f"but the system outputs {C.shape[0]} rows"
        )
    cho, info = scipy.linalg.lapack.dpotrf(_finite(D.T @ S @ D))
    if info:
        raise ValueError(
            "D'SD is not positive definite; the LQ gain is undefined "
            "(requires full column rank D and positive definite Q, R)"
        )
    # dpotrs refuses an empty right-hand side; the 0 x 0 I is its own inverse.
    I = np.eye(B.shape[1])
    W_inv = scipy.linalg.lapack.dpotrs(cho, I)[0] if I.size else I
    DSC = D.T @ S @ C
    F = W_inv @ DSC
    return W_inv, DSC, A - B @ F, _sym(B @ W_inv @ B.T), _sym(C.T @ S @ C - DSC.T @ F)


def _gain(W_inv, DSC, B: np.ndarray, P: np.ndarray) -> np.ndarray:
    """K = W^{-1}(B'P + D'SC) for one P or for each P of a stack; K has no
    rows when there is no input (k = 0).

    Every P is symmetric, so B'P = (P B)' and one product over the rows of P
    forms P B + (D'SC)' for the whole stack; one more multiplies them by
    W^{-1}, and K is a transposed view of the result.
    """
    rows, (n, k) = P.shape[:-1], B.shape
    PB = _finite((P.reshape(math.prod(rows), n) @ B).reshape(*rows, k) + DSC.T)
    K_T = PB.reshape(math.prod(rows), k) @ W_inv.T
    return K_T.reshape(*rows, k).swapaxes(-1, -2)


def _closed_loop(sys: OdeLti, K: np.ndarray) -> OdeLti:
    """The system under the feedback q = -K v."""
    return OdeLti(sys.A - sys.B @ K, sys.B, sys.C - sys.D @ K, sys.D)


def _closed_loop_map(C: np.ndarray, D: np.ndarray, K: np.ndarray, ME: np.ndarray) -> np.ndarray:
    """(C - D K) ME for one gain K or for each K of a stack.

    It starts from the gains' transposed rows, as ``_gain`` forms them: one
    product over the stacked rows forms (C - D K)' = C' - K'D', and one more,
    over the rows of its transpose, multiplies by ME.
    """
    *rows, k, n_hat = K.shape
    N, p = math.prod(rows), C.shape[0]
    C_cl_T = C.T - (K.swapaxes(-1, -2).reshape(N * n_hat, k) @ D.T).reshape(*rows, n_hat, p)
    return (C_cl_T.swapaxes(-1, -2).reshape(N * p, n_hat) @ ME).reshape(*rows, p, ME.shape[1])


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


def _check_weights(assoc: AssociatedOdeLti, w: LqWeights) -> None:
    """Refuse weights that do not fit the realization: Q must be n x n,
    R m x m and Q0 c x c, so a Q and an R that split n + m otherwise are
    named, not only a diag(Q, R) of the wrong size."""
    n, m, c = assoc.n, assoc.m, assoc.E.shape[0]
    if (w.n, w.m) != (n, m):
        raise ValueError(
            f"weights are for signal dimensions n={w.n}, m={w.m}, but the realization "
            f"has n={n}, m={m}: Q must be {n} x {n} and R {m} x {m}"
        )
    if w.Q0.shape != (c, c):
        raise ValueError(f"Q0 must be {c} x {c}, got {w.Q0.shape[0]} x {w.Q0.shape[1]}")


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
    defaults to max(2000, ceil(1000 t1)); t1 must be positive and finite,
    and Q must be n x n, R m x m and Q0 c x c.

    Raises NonFiniteP, naming the first node, when P overflows.
    """
    if not 0.0 < t1 < np.inf:
        raise ValueError("t1 must be positive and finite")
    if steps is None:
        steps = max(2000, int(np.ceil(1000.0 * t1)))
    if steps < 100:
        raise ValueError("steps must be at least 100")
    _check_weights(assoc, w)

    n_hat = assoc.n_hat
    h = t1 / steps
    W_inv, DSC, A_r, G, Q_r = _hamiltonian(assoc.as_ode(), w)
    n_nodes = steps + 1
    P_samples = np.empty((n_nodes, n_hat, n_hat))
    P_samples[0] = assoc.EC_s.T @ w.Q0 @ assoc.EC_s
    I = np.eye(n_hat)
    # Overflow is reported by NonFiniteP alone, not by a warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        Phi = scipy.linalg.expm(h * np.block([[-A_r, G], [Q_r, A_r.T]]))
        A = np.linalg.inv(Phi[:n_hat, :n_hat])
        G = _sym(A @ Phi[:n_hat, n_hat:])
        H = _sym(Phi[n_hat:, :n_hat] @ A)
        end = n_nodes if n_hat else 0  # an empty state has no node to fill
        d = 1
        while d < end:
            P = P_samples[: min(d, n_nodes - d)]
            P_new = P_samples[d : d + P.shape[0]]
            # G and A act on the stack's rows; Z is symmetric, so A'ZA is (ZA)'A.
            IPG = (P.reshape(-1, n_hat) @ G).reshape(P.shape)
            IPG.reshape(P.shape[0], -1)[:, :: n_hat + 1] += 1.0
            Z = np.linalg.solve(IPG, P)
            ZA = (Z.reshape(-1, n_hat) @ A).reshape(P.shape)
            F = (ZA.swapaxes(1, 2).reshape(-1, n_hat) @ A).reshape(P.shape)
            F += H
            np.add(F, F.swapaxes(1, 2), out=P_new)
            P_new *= 0.5
            # One sum checks the block; finite nodes may sum past the largest
            # double, so only a sum that is not finite looks at each node.
            finite = np.isfinite(P_new.sum()) or np.isfinite(P_new).all(axis=(1, 2))
            if not np.all(finite):
                node = d + int(np.argmin(finite))
                raise NonFiniteP(f"Riccati state lost finiteness at tau = {node * h:.6g}")
            d *= 2
            if d < end:
                # A, G, H of f^d become those of f^{2d}, by one solve with I + GH.
                _, _, XY, info = scipy.linalg.lapack.dgesv(I + G @ H, np.hstack([A, G @ A.T]))
                if info > 0:
                    raise np.linalg.LinAlgError("Singular matrix")
                X, Y = XY[:, :n_hat], XY[:, n_hat:]
                A, G, H = A @ X, _sym(G + A @ Y), _sym(H + A.T @ H @ X)

    return P_samples, _gain(W_inv, DSC, assoc.B_l, P_samples), Phi


def _back_scan(Phi: np.ndarray, P_samples: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """The closed loop's states v_0, ..., v_N on the nodes of real time s.

    In tau = t1 - s the DRE step's X block, from I to Phi11 + Phi12 P_j, is a
    fundamental matrix of the closed loop, so real time steps back exactly by
    its inverse.  Phi is symplectic, [[Phi22', -Phi12'], [-Phi21', Phi11']]
    inverts it, and so step i back is back_i = (Phi22 - P_{N-i} Phi12)'; one
    product over the stack's rows forms the transposed factors T_i = back_i',
    contiguous in node order.  v_{i+1}' = v_0' T_0 ... T_i is a
    work-efficient scan (Blelloch 1990): the up-sweep makes Pi_i the product
    of the s factors ending at T_i, s the largest power of two dividing
    i + 1; then, s halving, the down-sweep sets v_m' = v_{m-s}' Pi_{m-1} on
    the odd multiples m of s.
    """
    N, n_hat = P_samples.shape[0] - 1, v0.shape[0]
    PPhi12 = P_samples[1:].reshape(N * n_hat, n_hat) @ Phi[:n_hat, n_hat:]
    Pi = Phi[n_hat:, n_hat:] - PPhi12.reshape(N, n_hat, n_hat)[::-1]
    s = 1
    while 2 * s <= N:
        block = Pi[2 * s - 1 :: 2 * s]
        block[...] = Pi[s - 1 :: 2 * s][: block.shape[0]] @ block
        s *= 2
    v_samples = np.empty((N + 1, n_hat))
    v_samples[0] = v0
    while s:
        v_back = v_samples[: N + 1 - s : 2 * s, None, :]
        v_samples[s :: 2 * s] = (v_back @ Pi[s - 1 :: 2 * s])[:, 0]
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

    Raises NonFiniteP when P overflows, naming its first node tau, or when
    the closed loop's back scan does, naming the first real-time node s
    whose state is not finite.
    """
    v0 = _internal_start(assoc, z)
    P_samples, K_samples, Phi = solve_dre(assoc, w, t1, steps)
    grid = np.linspace(0.0, t1, P_samples.shape[0])
    # Overflow is reported by NonFiniteP alone, not by a warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        v_samples = _back_scan(Phi, P_samples, v0)
        finite = np.isfinite(v_samples.sum()) or np.isfinite(v_samples).all(axis=1)
    if not np.all(finite):
        node = int(np.argmin(finite))
        raise NonFiniteP(f"closed-loop state lost finiteness at s = {grid[node]:.6g}")

    # Node i of real time s_i has the gain K(t1 - s_i).
    K_nodes = K_samples[::-1]
    n, m, C_l, D_l = assoc.n, assoc.m, assoc.C_l, assoc.D_l
    K_f_samples = _closed_loop_map(C_l[n:], D_l[n:], K_nodes, assoc.M @ assoc.E)
    K2 = np.vstack([np.zeros((n, m)), -np.eye(m)])
    Kv = np.einsum("ijk,ik->ij", K_nodes, v_samples)
    outputs = v_samples @ C_l.T
    outputs -= Kv @ D_l.T
    traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])
    cost = float(v0 @ P_samples[-1] @ v0)
    return FiniteHorizonSolution(
        grid, P_samples, K_samples, traj, K_f_samples, K2, cost, v_samples
    )


def _left_half_plane(re: float, im: float) -> bool:
    """The ``dgees`` order of the stable eigenvalues first."""
    return re < 0.0


def _lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X with a X + X a' = q by Bartels-Stewart (Bartels & Stewart 1972,
    CACM 15): the real Schur form a = U T U' (``_schur``), then LAPACK
    ``dtrsyl`` on T Y + Y T' = U'qU and X = U Y U'.

    Operation for operation ``scipy.linalg.solve_continuous_lyapunov`` on a
    finite nonempty a: it warns, as that does, when an eigenvalue pair of a
    sums to nearly zero and ``dtrsyl`` perturbs it.
    """
    T, U, _ = _schur(a)
    Y, scale, info = scipy.linalg.lapack.dtrsyl(T, T, U.T.dot(_finite(q).dot(U)), tranb="T")
    if info == 1:
        warnings.warn(
            'Input "a" has an eigenvalue pair whose sum is very close to or exactly '
            "zero. The solution is obtained via perturbing the coefficients.",
            RuntimeWarning,
            stacklevel=2,
        )
    Y *= scale
    return U.dot(Y).dot(U.T)


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
    vectors, after balancing H by the symplectic similarity T = diag(d, 1/d)
    (Benner 2000, "Symplectic balancing of Hamiltonian matrices", SIAM J.
    Sci. Comput. 22) with d_i = 2^round(log2 sqrt(s_i/s_{l+i})) from the
    scaling s of LAPACK ``dgebal`` (scaling only, no permutation): each d_i
    is a power of two, so P_ij = P'_ij / (d_i d_j) maps the balanced
    solution P' back exactly.  The Schur form is LAPACK ``dgees``
    (``odesys._schur``).  One Kleinman-Newton step follows (Kleinman 1968,
    IEEE TAC 13), a Bartels-Stewart Lyapunov solve (``_lyapunov``) on the
    closed loop A_g - B_g K.  The restricted associated system has no
    invariant zeros, so the Hamiltonian has no eigenvalues on the imaginary
    axis and exactly l stable ones.  With no
    input (k = 0) G = 0, K has no rows and the step is the Lyapunov solve
    for the observability Gramian.

    Returns (P, K, abscissa) with P symmetric, its ``_are_residual`` at most
    ``ARE_RESIDUAL_TOL`` and A_g - B_g K stable, of spectral abscissa
    ``abscissa`` (-inf when l = 0); raises NoStabilizingStart otherwise.
    """
    S = w.S
    W_inv, DSC, A_r, G, Q_r = _hamiltonian(sys, w)
    l, k = sys.n_states, sys.n_inputs
    if l == 0:
        return np.zeros((0, 0)), np.zeros((k, 0)), -np.inf

    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    H = np.block([[A_r, -G], [-Q_r, -A_r.T]])
    try:
        s = scipy.linalg.lapack.dgebal(_finite(H), scale=1)[3]
        d = np.exp2(np.round(0.5 * np.log2(s[:l] / s[l:])))
        t = np.concatenate([d, 1.0 / d])
        _, U, sdim = _schur(H * t / t[:, None], _left_half_plane)
    except (np.linalg.LinAlgError, ValueError) as exc:
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
    K = _gain(W_inv, DSC, B, _sym(P / d / d[:, None]))
    C_cl = C - D @ K
    P = _sym(_lyapunov((A - B @ K).T, -(C_cl.T @ S @ C_cl)))
    if not np.all(np.isfinite(P)):
        raise NoStabilizingStart("Kleinman-Newton step diverged")
    K = _gain(W_inv, DSC, B, P)
    rel = _are_residual(sys, S, P, K)
    if not rel <= ARE_RESIDUAL_TOL:
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
    vanish only when R does, and 0/0 reads 0.  Norms that overflow read
    inf or NaN, without a warning, and fail the caller's check.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    resid = P @ A + A.T @ P - K.T @ (D.T @ S @ D) @ K + C.T @ S @ C
    C_cl = C - D @ K
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 2.0 * _norm(A - B @ K) * _norm(P) + _norm(C_cl.T @ S @ C_cl)
        return _norm(resid) / scale if scale else 0.0


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
    (M_g z)' P (M_g z).  The trajectory field samples [0, T_sim] (positive
    and finite; default 50/|closed-loop abscissa|, capped at 1e4) exactly,
    through ``simulate``.  ``dae`` is not consulted (E is ``assoc.E``); the
    benchmark still passes it.  Q must be n x n, R m x m and Q0 c x c.

    Raises NotStabilizable exactly when no behavior trajectory from z decays.
    """
    if T_sim is not None and not np.isfinite(T_sim):
        raise ValueError("the sampling horizon T_sim must be finite")
    if T_sim is not None and T_sim <= 0.0:
        raise ValueError("the sampling horizon T_sim must be positive")
    _check_weights(assoc, w)
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
        a_scale = _norm2(cl.A)
        steps = int(max(2000, min(np.ceil(10.0 * T_sim * (1.0 + a_scale)), 200_000)))
    grid = np.linspace(0.0, T_sim, steps + 1)
    _, outputs = simulate(cl, v0, None, grid)
    n = assoc.n
    traj = Trajectory(grid, outputs[:, :n], outputs[:, n:])

    K_z = cl.C[n:] @ restr.M_g
    K1 = _closed_loop_map(restr.sys_g.C, restr.sys_g.D, K, restr.M_g @ assoc.E)
    K1[:n] -= np.eye(n)
    K2 = np.vstack([np.zeros((n, assoc.m)), -np.eye(assoc.m)])
    cost = float(v0 @ P @ v0)
    return InfiniteHorizonSolution(P, K, K1[n:], K_z, K1, K2, traj, cost, abscissa, restr, v0)


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
    (Ex(t1))'Q0(Ex(t1)) when ``terminal`` is set.  A Q, R, E or Q0 that does
    not fit the trajectory raises ValueError naming it."""
    if traj.times.shape[0] < 2:
        raise ValueError("trajectory must have at least two samples")
    n, m = traj.x.shape[1], traj.u.shape[1]
    if w.n != n:
        raise ValueError(f"Q must be {n} x {n} for the trajectory's x, got {w.n} x {w.n}")
    if w.m != m:
        raise ValueError(f"R must be {m} x {m} for the trajectory's u, got {w.m} x {w.m}")
    integrand = np.sum((traj.x @ w.Q) * traj.x, axis=1) + np.sum(
        (traj.u @ w.R) * traj.u, axis=1
    )
    total = _simpson(integrand, traj.times)
    if terminal:
        E = ensure_matrix(E, "E")
        if E.shape[1] != n:
            raise ValueError(f"E must have {n} columns for the trajectory's x, got {E.shape[1]}")
        c = E.shape[0]
        if w.Q0.shape != (c, c):
            raise ValueError(f"Q0 must be {c} x {c} for E, got {w.Q0.shape[0]} x {w.Q0.shape[1]}")
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
    check pins it grid-pointwise.  Nothing is simulated or solved again: the
    defect K1 x + K2 u of every node is formed in one buffer, K2 u added in
    place, and its max norm read as max(max, -min), so besides the given
    trajectory the check holds at most two arrays of its size.  On the finite
    horizon no K1_i is formed: K1_i x_i = (C_l - D_l K_i) v_i - [x_i; 0] from
    v_i = ME x_i and the solve's gain K_i = ``K_samples[::-1][i]``, so the
    check holds v (T x n_hat) and K_i v_i (T x k) besides.

    Raises ConstraintViolated when a check fails, a defect that is not
    finite included, and, as the solvers do,
    ValueError for a z of the wrong length and InconsistentInitialState for
    a z outside the consistency set.  ``dae`` is not consulted (E is
    ``assoc.E``); the benchmark still passes it.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    _internal_start(assoc, z)
    traj = solution.traj
    gap = _norm(assoc.E @ traj.x[0] - z)
    if gap > EQUALITY_TOL * max(1.0, _norm(z)):
        raise ConstraintViolated(f"trajectory starts {gap:.3e} away from z: E x(0) != z")
    if isinstance(solution, InfiniteHorizonSolution):
        defect = traj.x @ solution.K1.T
    else:
        v = traj.x @ (assoc.M @ assoc.E).T
        defect = v @ assoc.C_l.T
        defect -= np.einsum("ijk,ik->ij", solution.K_samples[::-1], v) @ assoc.D_l.T
        defect[:, : assoc.n] -= traj.x
    defect += traj.u @ solution.K2.T
    worst = max(float(defect.max()), -float(defect.min())) if defect.size else 0.0
    if not worst <= REPLAY_TOL:
        raise ConstraintViolated(f"trajectory violates K1 x + K2 u = 0: max defect {worst:.3e}")
    return traj

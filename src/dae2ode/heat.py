"""Legendre-Galerkin LQ benchmark for the 1-D heat equation on [-1, 1].

The plant is dV/dt = c^2 V_xx with homogeneous Dirichlet boundary
conditions, sine-shaped actuators on the first N_u eigenmodes, and a
quadratic cost.  Three routes to a feedback law are compared:

* an exact reference design on the orthonormal sine eigenbasis,
* a descriptor model E dx/dt = A x + B u in a Legendre-difference basis
  whose extra state block keeps the Galerkin residual as an explicitly
  weighted error channel, solved through the associated-system LQ
  machinery of this package, and
* a naive Galerkin ODE of the same dimension that ignores the residual.

The descriptor and naive gains are lifted back to the eigenbasis and
replayed on the reference model, which quantifies how much performance
each finite-dimensional design loses on the actual plant.

Basis: phi_i = P_{i+1} - P_{i-1} for i = 1..N (Legendre differences, zero
at both endpoints).  Gram and stiffness matrices have closed forms; the
actuator moments <sin(j pi x), phi_i> are computed by Gauss-Legendre
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander

from .associate import associate
from .dae import DaeLti, Trajectory
from .lq import InfiniteHorizonSolution, LqWeights, _simpson, infinite_horizon
from .odesys import OdeLti, simulate

__all__ = [
    "HeatConfig",
    "HeatModels",
    "EigenReference",
    "LiftedSimulation",
    "HeatBenchmark",
    "build_heat_models",
    "eigenbasis_reference",
    "dae_lq_pipeline",
    "lift_and_simulate_closed_loop",
    "naive_galerkin_baseline",
    "error_curves",
    "run_heat_benchmark",
]

SIM_STEP = 1e-3


@dataclass(frozen=True)
class HeatConfig:
    """Benchmark parameters.

    N is the Galerkin dimension, N_u the number of actuated sine modes, mu
    the weight on the modeling-error channel, c the diffusion coefficient,
    lam the amplitude and mode the index of the initial condition
    V(0) = lam * sin(mode pi x), and T the simulation horizon.

    quad_order is the number of Gauss-Legendre nodes used for the actuator
    moments <sin(j pi x), phi_i>.  The default (None) selects N + 2 nodes,
    the smallest rule that integrates the polynomial Gram matrix exactly.
    The benchmark's reference cost table (J_e = 3.94, J_dae = 3.89,
    J_T = 3.96, replay error 0.0015, naive replay 5.55) is defined at this
    resolution, where the moments of the highest sine modes are not fully
    resolved; the resulting aliasing is part of the benchmark definition.
    Setting quad_order to 4 * N or more gives converged moments, under
    which the descriptor design tracks the reference almost exactly and
    the costs J_dae, J_T and the replay error drop far below the table.
    quad_order may not exceed 8 * N, twice that converged rule.  mu, c, lam
    and T must be finite.
    """

    N: int = 40
    N_u: int = 35
    mu: float = 0.01
    c: float = 1.0 / 30.0
    lam: float = 10.0
    mode: int = 34
    T: float = 5.0
    quad_order: int | None = None

    def __post_init__(self):
        if self.N < 1 or self.N_u < 1:
            raise ValueError("N and N_u must be positive")
        if self.N_u > self.N:
            raise ValueError(f"N_u = {self.N_u} must not exceed N = {self.N}")
        if not 1 <= self.mode <= self.N:
            raise ValueError(f"mode = {self.mode} must lie in 1..{self.N}")
        for name in ("mu", "c", "lam", "T"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu <= 0 or self.c <= 0 or self.T <= 0:
            raise ValueError("mu, c and T must be positive")
        if self.quad_order is not None and not 2 <= self.quad_order <= 8 * self.N:
            raise ValueError(f"quad_order must lie in 2..{8 * self.N} (8 N), got {self.quad_order}")

    @property
    def nodes(self) -> int:
        return self.quad_order if self.quad_order is not None else self.N + 2


@dataclass(frozen=True)
class HeatModels:
    """Model matrices shared by the benchmark branches, with the config they
    were built from; each branch takes the models and reads config here.

    gram is the exact Gram matrix M_hat of the phi basis (also used for
    function-space norms), stiffness the diagonal weak-form matrix A_N (of
    c^2 d^2/dx^2), and sine_overlap the moment matrix X with
    X[i-1, j-1] = <sin(j pi x), phi_i> for j = 1..N, computed at the
    configured quadrature resolution.  sine_overlap_accurate is the same
    matrix at no fewer than 4N nodes; it feeds function-space error
    measurements so that they stay meaningful when the model quadrature is
    coarse.  The descriptor model is dae with E = [Lambda M_hat, 0],
    A = [Lambda A_N, Lambda]; eig_A and eig_B give the sine-eigenbasis
    reference dz/dt = eig_A z + eig_B u.
    """

    config: HeatConfig
    gram: np.ndarray
    stiffness: np.ndarray
    lambda_diag: np.ndarray
    sine_overlap: np.ndarray
    sine_overlap_accurate: np.ndarray
    dae: DaeLti
    weights: LqWeights
    eig_A: np.ndarray
    eig_B: np.ndarray

    @property
    def value_of_initial(self) -> np.ndarray:
        """Consistent value z = E x(0) = lam * Lambda X[:, mode-1]."""
        cfg = self.config
        return cfg.lam * (self.lambda_diag @ self.sine_overlap[:, cfg.mode - 1])


def _gram_matrix(N: int) -> np.ndarray:
    i = np.arange(1, N + 1, dtype=float)
    G = np.diag(4.0 * (2 * i + 1) / ((2 * i - 1) * (2 * i + 3)))
    if N > 2:
        off = -2.0 / (2 * i[: N - 2] + 3)
        G += np.diag(off, 2) + np.diag(off, -2)
    return G


def _stiffness_matrix(N: int, c: float) -> np.ndarray:
    i = np.arange(1, N + 1, dtype=float)
    return np.diag(-2.0 * (c * c) * (2 * i + 1))


def _basis_values(x: np.ndarray, N: int) -> np.ndarray:
    """Values of phi_i = P_{i+1} - P_{i-1}, i = 1..N, at the points x."""
    legs = legvander(x, N + 1)
    return legs[:, 2 : N + 2] - legs[:, 0:N]


def _sine_overlap(N: int, n_modes: int, nodes: int) -> np.ndarray:
    # Imported here: scipy.special would add to the start-up of every other command.
    from scipy.special import roots_legendre

    x, w = roots_legendre(nodes)
    phi = _basis_values(x, N)
    j = np.arange(1, n_modes + 1, dtype=float)
    sines = np.sin(np.pi * np.outer(x, j))
    return phi.T @ (w[:, None] * sines)


def build_heat_models(cfg: HeatConfig) -> HeatModels:
    """Assemble all model matrices for the given configuration."""
    N, N_u = cfg.N, cfg.N_u
    gram = _gram_matrix(N)
    stiffness = _stiffness_matrix(N, cfg.c)
    lam_diag = np.diag((2.0 * np.arange(1, N + 1) + 1.0) / 2.0)
    overlap = _sine_overlap(N, N, cfg.nodes)
    accurate_nodes = max(4 * N, cfg.nodes)
    overlap_accurate = (
        overlap if accurate_nodes == cfg.nodes else _sine_overlap(N, N, accurate_nodes)
    )

    E = np.hstack([lam_diag @ gram, np.zeros((N, N))])
    A = np.hstack([lam_diag @ stiffness, lam_diag])
    B = lam_diag @ overlap[:, :N_u]
    dae = DaeLti(E, A, B)

    Q = np.zeros((2 * N, 2 * N))
    Q[:N, :N] = gram
    Q[N:, N:] = cfg.mu * np.eye(N)
    weights = LqWeights(Q, np.eye(N_u), np.zeros((N, N)))

    modes = np.arange(1, N + 1, dtype=float)
    eig_A = np.diag(-(cfg.c ** 2) * (modes * np.pi) ** 2)
    eig_B = np.vstack([np.eye(N_u), np.zeros((N - N_u, N_u))])
    return HeatModels(
        cfg, gram, stiffness, lam_diag, overlap,
        overlap_accurate, dae, weights, eig_A, eig_B,
    )


def _time_grid(T: float) -> np.ndarray:
    steps = max(int(round(T / SIM_STEP)), 2)
    return np.linspace(0.0, T, steps + 1)


@dataclass(frozen=True)
class EigenReference:
    """Exact LQ design on the sine eigenbasis: cost J_e, gain u = gain z,
    diagonal value matrix P, and the closed-loop trajectory on [0, T]."""

    cost: float
    gain: np.ndarray
    P: np.ndarray
    traj: Trajectory


def eigenbasis_reference(models: HeatModels) -> EigenReference:
    """Solve the infinite-horizon LQ problem on the eigenbasis model.

    A_e is diagonal and B_e selects the first N_u coordinates, so the
    algebraic Riccati equation decouples: p_i = a_i + sqrt(a_i^2 + 1) on
    actuated modes and p_i = -1/(2 a_i) on the rest.  The closed loop is
    diagonal and is sampled exactly on the step-1e-3 grid.
    """
    cfg = models.config
    a = np.diag(models.eig_A)
    actuated = np.arange(cfg.N) < cfg.N_u
    p = np.where(actuated, a + np.sqrt(a * a + 1.0), -0.5 / a)
    P = np.diag(p)
    gain = -models.eig_B.T @ P
    rates = np.where(actuated, a - p, a)

    z0 = np.zeros(cfg.N)
    z0[cfg.mode - 1] = cfg.lam
    times = _time_grid(cfg.T)
    z = z0[None, :] * np.exp(np.outer(times, rates))
    u = z @ gain.T
    cost = float(z0 @ P @ z0)
    return EigenReference(cost, gain, P, Trajectory(times, z, u))


def dae_lq_pipeline(models: HeatModels) -> InfiniteHorizonSolution:
    """Run associate + infinite-horizon LQ on the descriptor heat model.

    The initial condition is the consistent value z = lam Lambda X e_mode
    (the scaled moment vector of lam sin(mode pi x)); the trajectory is
    sampled on the step-1e-3 grid over [0, T].  The cost is J_dae, the gain
    on the consistent value (u = K_z Ex) is ``K_z``, and the Galerkin
    coordinates a_*(t) of the reconstructed function V_* are
    ``traj.x[:, :N]``.
    """
    cfg = models.config
    dae, z0 = models.dae, models.value_of_initial
    steps = len(_time_grid(cfg.T)) - 1
    return infinite_horizon(dae, associate(dae), models.weights, z0, T_sim=cfg.T, steps=steps)


@dataclass(frozen=True)
class LiftedSimulation:
    """A finite-dimensional gain replayed on the eigenbasis model: the
    lifted gain on eigen coordinates, the closed-loop trajectory, and the
    truncated cost J_T = int_0^T |z|^2 + |u|^2 dt."""

    cost: float
    gain: np.ndarray
    traj: Trajectory


def lift_and_simulate_closed_loop(
    models: HeatModels, lifted_gain: np.ndarray
) -> LiftedSimulation:
    """Replay a gain on sine coordinates, u = lifted_gain z, on the eigenbasis.

    The closed loop dz/dt = (A_e + B_e lifted_gain) z runs from
    lam * e_mode, sampled exactly by ``simulate`` at step 1e-3, and the
    truncated cost uses composite Simpson.  A function V with sine
    coordinates z has moment vector X z against the phi basis, hence
    consistent value Lambda X z and naive coordinates M_hat^{-1} X z; a gain
    on either is lifted by the matching product (see ``run_heat_benchmark``).
    """
    cfg = models.config
    A_cl = models.eig_A + models.eig_B @ lifted_gain
    no_feedthrough = np.zeros((cfg.N_u, cfg.N_u))
    z0 = np.zeros(cfg.N)
    z0[cfg.mode - 1] = cfg.lam
    times = _time_grid(cfg.T)
    z, u = simulate(OdeLti(A_cl, models.eig_B, lifted_gain, no_feedthrough), z0, None, times)
    integrand = np.sum(z * z, axis=1) + np.sum(u * u, axis=1)
    cost = _simpson(integrand, times)
    return LiftedSimulation(cost, lifted_gain, Trajectory(times, z, u))


def naive_galerkin_baseline(models: HeatModels) -> InfiniteHorizonSolution:
    """Solve the naive Galerkin LQ problem.

    The naive model drops the error channel: da/dt = M_hat^{-1}(A_N a +
    X[:, :N_u] u) with cost int a' M_hat a + u'u dt, started from the raw
    moment vector a(0) = lam X[:, mode-1].  It is solved through the same
    descriptor pipeline with E = I, so the cost is J_g, the gain on the
    Galerkin coordinates is ``K_z`` and the coordinates a_g(t) are
    ``traj.x``.
    """
    cfg = models.config
    N, N_u = cfg.N, cfg.N_u
    A_naive = np.linalg.solve(models.gram, models.stiffness)
    B_naive = np.linalg.solve(models.gram, models.sine_overlap[:, :N_u])
    dae = DaeLti(np.eye(N), A_naive, B_naive)
    weights = LqWeights(models.gram, np.eye(N_u), np.zeros((N, N)))
    a0 = cfg.lam * models.sine_overlap[:, cfg.mode - 1]
    steps = len(_time_grid(cfg.T)) - 1
    return infinite_horizon(dae, associate(dae), weights, a0, T_sim=cfg.T, steps=steps)


def error_curves(
    models: HeatModels,
    eigen: EigenReference,
    dae_result: InfiniteHorizonSolution,
    lifted: LiftedSimulation,
    naive: InfiniteHorizonSolution,
    naive_lifted: LiftedSimulation,
) -> np.ndarray:
    """Squared H-norm error curves against the reference trajectory.

    Returns an array with columns (t, e_sol, e_sim, e_g, e_sim_g): the
    reconstructed descriptor solution V_*, its eigenbasis replay V_sim,
    the naive reconstruction V_g, and the naive replay V_sim_g, each
    compared with V_opt.  Norms of phi-basis functions use the exact Gram
    matrix and cross terms use the refined moment matrix, so the error
    measurement does not inherit the model quadrature resolution.  All
    trajectories must share the reference time grid.
    """
    times = eigen.traj.times
    for other in (dae_result.traj, lifted.traj, naive.traj, naive_lifted.traj):
        if other.times.shape != times.shape or not np.allclose(other.times, times):
            raise ValueError("trajectories are not on a common time grid")

    z_opt = eigen.traj.x
    gram = models.gram
    overlap = models.sine_overlap_accurate

    def phi_vs_sine(a: np.ndarray, z: np.ndarray) -> np.ndarray:
        quad = np.sum((a @ gram) * a, axis=1)
        cross = np.sum((a @ overlap) * z, axis=1)
        return quad - 2.0 * cross + np.sum(z * z, axis=1)

    e_sol = phi_vs_sine(dae_result.traj.x[:, : models.config.N], z_opt)
    e_sim = np.sum((lifted.traj.x - z_opt) ** 2, axis=1)
    e_g = phi_vs_sine(naive.traj.x, z_opt)
    e_sim_g = np.sum((naive_lifted.traj.x - z_opt) ** 2, axis=1)
    return np.column_stack([times, e_sol, e_sim, e_g, e_sim_g])


@dataclass(frozen=True)
class HeatBenchmark:
    """Everything the benchmark produces: the models, the four branches and
    the two replays, the error curves, and the headline numbers."""

    models: HeatModels
    eigen: EigenReference
    dae_result: InfiniteHorizonSolution
    lifted: LiftedSimulation
    naive: InfiniteHorizonSolution
    naive_lifted: LiftedSimulation
    curves: np.ndarray

    @property
    def costs(self) -> dict[str, float]:
        return {
            "J_e": self.eigen.cost,
            "J_dae": self.dae_result.cost,
            "J_T": self.lifted.cost,
            "J_g": self.naive.cost,
            "J_T_g": self.naive_lifted.cost,
        }

    @property
    def max_replay_error(self) -> float:
        """max_t |V_sim(t) - V_opt(t)|_H^2 for the descriptor design."""
        return float(np.max(self.curves[:, 2]))


def run_heat_benchmark(cfg: HeatConfig | None = None) -> HeatBenchmark:
    """Run all four branches on a common grid and collect the results.

    The descriptor gain acts on the consistent value Lambda X z of sine
    coordinates z and the naive gain on the coordinates M_hat^{-1} X z, so
    each is lifted to sine coordinates by that product and replayed.
    """
    cfg = HeatConfig() if cfg is None else cfg
    models = build_heat_models(cfg)
    eigen = eigenbasis_reference(models)
    dae_result = dae_lq_pipeline(models)
    lifted = lift_and_simulate_closed_loop(
        models, dae_result.K_z @ models.lambda_diag @ models.sine_overlap
    )
    naive = naive_galerkin_baseline(models)
    naive_lifted = lift_and_simulate_closed_loop(
        models, naive.K_z @ np.linalg.solve(models.gram, models.sine_overlap)
    )
    curves = error_curves(models, eigen, dae_result, lifted, naive, naive_lifted)
    return HeatBenchmark(models, eigen, dae_result, lifted, naive, naive_lifted, curves)

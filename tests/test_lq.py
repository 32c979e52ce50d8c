"""Finite and infinite horizon LQ solvers on the associated realization."""

import dataclasses
import importlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import simpson, solve_ivp

from dae2ode import (
    AssociatedOdeLti,
    ConstraintViolated,
    DaeLti,
    InconsistentInitialState,
    InfiniteHorizonSolution,
    LqWeights,
    NonFiniteP,
    NoStabilizingStart,
    NotStabilizable,
    OdeLti,
    Trajectory,
    associate,
    closed_loop_replay,
    finite_horizon,
    impulse_controllable,
    infinite_horizon,
    is_behaviorally_stabilizable,
    simulate,
    solve_are,
    solve_dre,
    spectral_abscissa,
    trajectory_cost,
    wong_limit,
)
from dae2ode.dae import pencil_stabilizability_test
from dae2ode.heat import HeatConfig, build_heat_models, dae_lq_pipeline
from dae2ode.lq import _are_residual, _closed_loop_map, _gain, _hamiltonian, _lyapunov
from dae2ode.subspaces import ARE_RESIDUAL_TOL

from conftest import (
    conditioned,
    example_one,
    random_autonomous_unstable,
    random_dae,
    random_spd,
)


def scalar_integrator():
    """x' = u with unit weights; the Riccati flow is P' = 1 - P^2."""
    dae = DaeLti(np.eye(1), np.zeros((1, 1)), np.eye(1))
    return dae, associate(dae)


@pytest.fixture(scope="module")
def dre_population():
    """16 random systems with D_l != 0 (seed 11), each with unit weights and
    a consistent start z."""
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 16:
        dae = random_dae(rng)
        assoc = associate(dae)
        if np.linalg.norm(assoc.D_l) == 0.0:
            continue
        w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.eye(dae.c))
        cases.append((dae, assoc, w, assoc.EC_s @ rng.standard_normal(assoc.n_hat)))
    return cases


def dre_step(assoc, w, h):
    """The Hamiltonian exponential of one DRE step of length h."""
    _, _, A_r, G, Q_r = _hamiltonian(assoc.as_ode(), w)
    return scipy.linalg.expm(h * np.block([[-A_r, G], [Q_r, A_r.T]]))


def stepped_dre(cases, t1):
    """Reference (P_samples, K_samples) for each case on solve_dre's default
    grid, stepping P <- (Phi21 + Phi22 P)(Phi11 + Phi12 P)^{-1} node by node.
    All cases step together, each padded to the largest state dimension with
    Phi11 = Phi22 = I and P = 0 on the padding, where the step keeps P = 0."""
    steps = max(2000, int(np.ceil(1000.0 * t1)))
    N = max(assoc.n_hat for _, assoc, _, _ in cases)
    Phi = np.zeros((len(cases), 2, N, 2, N))
    P = np.zeros((len(cases), N, N))
    for i, (_, assoc, w, _) in enumerate(cases):
        n = assoc.n_hat
        Phi[i, :, :n, :, :n] = dre_step(assoc, w, t1 / steps).reshape(2, n, 2, n)
        Phi[i, 0, n:, 0, n:] = Phi[i, 1, n:, 1, n:] = np.eye(N - n)
        P[i, :n, :n] = assoc.EC_s.T @ w.Q0 @ assoc.EC_s
    P_samples = np.empty((steps + 1,) + P.shape)
    P_samples[0] = P
    (Phi11, Phi12), (Phi21, Phi22) = [[Phi[:, a, :, b].copy() for b in (0, 1)] for a in (0, 1)]
    for j in range(steps):
        X, Y = Phi11 + Phi12 @ P, Phi21 + Phi22 @ P
        P = np.linalg.solve(X.swapaxes(1, 2), Y.swapaxes(1, 2)).swapaxes(1, 2)
        P = 0.5 * (P + P.swapaxes(1, 2))
        P_samples[j + 1] = P
    results = []
    for i, (_, assoc, w, _) in enumerate(cases):
        n, B, C, D, S = assoc.n_hat, assoc.B_l, assoc.C_l, assoc.D_l, w.S
        P_i = P_samples[:, i, :n, :n]
        results.append((P_i, np.linalg.solve(D.T @ S @ D, B.T @ P_i + D.T @ S @ C)))
    return results


class TestWeights:
    def test_s_is_block_diagonal(self):
        w = LqWeights(2.0 * np.eye(2), 3.0 * np.eye(1), np.zeros((2, 2)))
        assert np.array_equal(w.S, np.diag([2.0, 2.0, 3.0]))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            LqWeights(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(1), np.zeros((2, 2)))

    def test_semidefinite_r_rejected(self):
        with pytest.raises(ValueError):
            LqWeights(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_indefinite_terminal_weight_rejected(self):
        with pytest.raises(ValueError):
            LqWeights(np.eye(1), np.eye(1), np.array([[-1.0]]))


class TestSolveDre:
    def test_initial_condition(self, ex1, ex1_assoc):
        rng = np.random.default_rng(30)
        Q0 = random_spd(2, rng)
        w = LqWeights(np.eye(3), np.eye(1), Q0)
        P_samples, _, _ = solve_dre(ex1_assoc, w, 1.0)
        want = ex1_assoc.EC_s.T @ Q0 @ ex1_assoc.EC_s
        assert np.allclose(P_samples[0], want, atol=1e-14)

    @pytest.mark.parametrize("t1", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, ex1_assoc, t1):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        with pytest.raises(ValueError, match="t1 must be positive and finite"):
            solve_dre(ex1_assoc, w, t1)

    def test_terminal_weight_of_another_size_rejected(self, ex1_assoc):
        # Q0 weighs Ex(t1), c = 2 rows here; a 3 x 3 one is named, not multiplied.
        w = LqWeights(np.eye(3), np.eye(1), np.eye(3))
        with pytest.raises(ValueError, match=r"^Q0 must be 2 x 2, got 3 x 3$"):
            solve_dre(ex1_assoc, w, 1.0)

    def test_scalar_riccati_matches_tanh(self):
        _, assoc = scalar_integrator()
        w = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
        t1 = 2.0
        P_samples, K_samples, _ = solve_dre(assoc, w, t1)
        tau = np.linspace(0.0, t1, P_samples.shape[0])
        exact = np.tanh(tau)
        assert np.max(np.abs(P_samples[:, 0, 0] - exact)) <= 1e-8
        assert np.max(np.abs(K_samples[:, 0, 0] - exact)) <= 1e-8

    def test_nonzero_terminal_weight_shifts_tanh(self):
        _, assoc = scalar_integrator()
        w = LqWeights(np.eye(1), np.eye(1), np.array([[0.5]]))
        t1 = 1.0
        P_samples, _, _ = solve_dre(assoc, w, t1)
        tau = np.linspace(0.0, t1, P_samples.shape[0])
        exact = np.tanh(tau + np.arctanh(0.5))
        assert np.max(np.abs(P_samples[:, 0, 0] - exact)) <= 1e-8

    def test_autonomous_branch_matches_lyapunov_flow(self):
        # Tall E with an invertible algebraic constraint forces u = -0.4 x,
        # so the realization has no free input (k = 0) and the flow is linear
        # in P.
        dae = DaeLti(
            np.array([[1.0], [0.0]]),
            np.array([[-0.5], [0.4]]),
            np.array([[0.3], [1.0]]),
        )
        assoc = associate(dae)
        assert assoc.k == 0
        w = LqWeights(2.0 * np.eye(1), np.eye(1), np.diag([0.7, 0.3]))
        t1 = 1.5
        P_samples, K_samples, _ = solve_dre(assoc, w, t1)
        a = assoc.A_l[0, 0]
        csc = (assoc.C_l.T @ w.S @ assoc.C_l).item()
        p0 = (assoc.EC_s.T @ w.Q0 @ assoc.EC_s).item()
        tau = np.linspace(0.0, t1, P_samples.shape[0])
        exact = np.exp(2 * a * tau) * (p0 + csc / (2 * a)) - csc / (2 * a)
        assert np.max(np.abs(P_samples[:, 0, 0] - exact)) <= 1e-9
        assert K_samples.shape == (P_samples.shape[0], 0, 1)

    def test_monotone_growth_without_terminal_weight(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.zeros((2, 2)))
        P_samples, _, _ = solve_dre(ex1_assoc, w, 2.0)
        for j in range(0, P_samples.shape[0] - 1, 50):
            diff = P_samples[j + 50] - P_samples[j]
            assert np.linalg.eigvalsh(diff)[0] >= -1e-10

    def test_long_horizon_reaches_are_solution(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.zeros((2, 2)))
        restr = ex1_assoc.restriction
        assert restr.l == ex1_assoc.n_hat == 2
        P_are, _, _ = solve_are(restr.sys_g, w)
        W = restr.subspace.basis
        P_dre = solve_dre(ex1_assoc, w, 10.0)[0][-1]
        want = W @ P_are @ W.T
        assert np.linalg.norm(P_dre - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("t1", [1.0, 20.0])
    def test_doubling_matches_node_by_node_stepping(self, dre_population, t1):
        reference = stepped_dre(dre_population, t1)
        for (_, assoc, w, _), want in zip(dre_population, reference):
            P_samples, K_samples, Phi = solve_dre(assoc, w, t1)
            assert np.array_equal(Phi, dre_step(assoc, w, t1 / (P_samples.shape[0] - 1)))
            for got, ref in zip((P_samples, K_samples), want):
                gap = np.linalg.norm(got - ref, axis=(1, 2))
                assert np.all(gap <= 1e-10 * np.linalg.norm(ref, axis=(1, 2)))

    @pytest.mark.parametrize("a, tau", [(400.0, "0.8865"), (1000.0, "0.355")])
    def test_overflow_raises_non_finite_p_at_the_first_node(self, a, tau):
        # P(tau) grows like e^{2 a tau}; the overflow must surface as the
        # package error alone, even where warnings are errors.
        dae = DaeLti(np.eye(1), [[a]], np.zeros((1, 1)))
        w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteP, match=f"tau = {tau}$"):
                finite_horizon(dae, associate(dae), w, [1.0], 1.0)

    def test_finite_nodes_whose_sum_overflows_are_not_refused(self):
        # P(tau) = 1e306 + tau: every node is finite, but any 180 of them sum
        # past the largest double, so a finiteness check of a stack's sum
        # must not be taken for a node that lost finiteness.
        dae = DaeLti(np.eye(1), [[0.0]], np.zeros((1, 1)))
        w = LqWeights(np.eye(1), np.eye(1), [[1e306]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = finite_horizon(dae, associate(dae), w, [1.0], 1.0)
        assert np.all(np.isfinite(sol.P_samples))
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(sol.P_samples[1024:]))
        assert sol.cost == 1e306

    def test_overflowing_step_exponential_raises_non_finite_p(self, ex1, ex1_assoc):
        # One step of length 1000 overflows inside the Hamiltonian's
        # exponential itself, before any doubling step.
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteP, match="tau = 1000$"):
                finite_horizon(ex1, ex1_assoc, w, [1.0, 7.0], t1=1e5, steps=100)

    def test_invalid_horizon_rejected(self, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            solve_dre(ex1_assoc, w, 0.0)


class TestFiniteHorizon:
    def test_zero_start_costs_nothing(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = finite_horizon(ex1, ex1_assoc, w, np.zeros(2), 1.0)
        assert sol.cost == 0.0
        assert np.allclose(sol.traj.x, 0.0)
        assert np.allclose(sol.traj.u, 0.0)

    def test_scalar_cost_closed_form(self):
        dae, assoc = scalar_integrator()
        w = LqWeights(np.eye(1), np.eye(1), np.array([[0.5]]))
        z = np.array([1.3])
        t1 = 1.0
        sol = finite_horizon(dae, assoc, w, z, t1)
        exact = 1.3**2 * np.tanh(t1 + np.arctanh(0.5))
        assert abs(sol.cost - exact) <= 1e-8 * exact

    def test_cost_matches_quadrature(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 1.0])
        sol = finite_horizon(ex1, ex1_assoc, w, z, 1.0)
        quad = trajectory_cost(w, ex1.E, sol.traj, terminal=True)
        assert abs(sol.cost - quad) <= 1e-5 * (1.0 + abs(sol.cost))

    def test_input_is_state_feedback_at_every_node(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = finite_horizon(ex1, ex1_assoc, w, np.array([1.0, -2.0]), 1.5)
        defect = max(
            np.linalg.norm(sol.traj.u[i] - sol.K_f_samples[i] @ sol.traj.x[i])
            for i in range(sol.grid.shape[0])
        )
        assert defect <= 1e-8

    def test_constraint_form_annihilates_trajectory(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = finite_horizon(ex1, ex1_assoc, w, np.array([0.5, 2.0]), 1.0)
        # K1 at node i follows from the gain K(t1 - s_i) = K_samples[::-1][i].
        C_l, D_l, ME = ex1_assoc.C_l, ex1_assoc.D_l, ex1_assoc.M @ ex1.E
        K1 = [(C_l - D_l @ K) @ ME - np.eye(4, 3) for K in sol.K_samples[::-1]]
        defect = np.einsum("ioj,ij->io", np.array(K1), sol.traj.x)
        defect += sol.traj.u @ sol.K2.T
        assert np.max(np.abs(defect)) <= 1e-8

    def test_solution_does_not_depend_on_the_grid(self, ex1, ex1_assoc):
        # The closed loop steps with the DRE's exact transition, so a coarse
        # grid samples the same solution as a fine one.
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 7.0])
        coarse = finite_horizon(ex1, ex1_assoc, w, z, 1.0, steps=200)
        fine = finite_horizon(ex1, ex1_assoc, w, z, 1.0, steps=2000)
        for a, b in ((coarse.v_samples, fine.v_samples[::10]),
                     (coarse.traj.x, fine.traj.x[::10])):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    @pytest.mark.parametrize("t1", [1.0, 5.0])
    def test_back_stepping_scan_matches_sequential_product(self, dre_population, t1):
        # The default grid and grids just below, at and above a power of two,
        # where the scan's up-sweep ends on a whole or a partial block.
        for steps in (None, 100, 127, 128, 129, 1000):
            for dae, assoc, w, z in dre_population:
                sol = finite_horizon(dae, assoc, w, z, t1, steps)
                n = assoc.n_hat
                Phi = dre_step(assoc, w, t1 / (sol.grid.shape[0] - 1))
                forward = Phi[:n, :n] + Phi[:n, n:] @ sol.P_samples[:-1]
                # Phi is symplectic, so Phi22' - Phi12' P_{j+1} inverts each
                # forward step Phi11 + Phi12 P_j.
                inverse = Phi[n:, n:].T - Phi[:n, n:].T @ sol.P_samples[1:]
                assert np.max(np.abs(forward @ inverse - np.eye(n)), initial=0.0) <= 1e-13
                back = np.linalg.inv(Phi[:n, :n] + Phi[:n, n:] @ sol.P_samples[-2::-1])
                v = [assoc.M @ z]
                for step in back:
                    v.append(step @ v[-1])
                assert np.linalg.norm(sol.v_samples - v) <= 1e-11 * np.linalg.norm(v)

    def test_outputs_and_feedback_match_their_per_node_definitions(self, dre_population):
        for dae, assoc, w, z in dre_population:
            sol = finite_horizon(dae, assoc, w, z, 1.0)
            n, ME = assoc.n, assoc.M @ dae.E
            K_nodes = sol.K_samples[::-1]
            C_cl = [assoc.C_l - assoc.D_l @ K for K in K_nodes]
            outputs = [C @ v for C, v in zip(C_cl, sol.v_samples)]
            C_cl_ME = [C @ ME for C in C_cl]
            pairs = (
                (sol.traj.x, [y[:n] for y in outputs]),
                (sol.traj.u, [y[n:] for y in outputs]),
                (sol.K_f_samples, [F[n:] for F in C_cl_ME]),
                (_closed_loop_map(assoc.C_l, assoc.D_l, K_nodes, ME), C_cl_ME),
            )
            for got, want in pairs:
                assert np.linalg.norm(got - np.array(want)) <= 1e-13 * np.linalg.norm(want)
            assert sol.K_f_samples.flags.c_contiguous

    @pytest.mark.parametrize(
        "E, A, B",
        [
            ([[0.0]], [[1.0]], [[1.0]]),  # u = -x with x free: k = 1
            ([[0.0], [0.0]], [[1.0], [0.0]], [[0.0], [1.0]]),  # x = u = 0: k = 0
        ],
    )
    def test_empty_internal_state(self, E, A, B):
        dae = DaeLti(E, A, B)
        assoc = associate(dae)
        assert assoc.n_hat == 0
        w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.eye(dae.c))
        sol = finite_horizon(dae, assoc, w, np.zeros(dae.c), 1.0, steps=100)
        assert sol.P_samples.shape == (101, 0, 0)
        assert np.all(sol.traj.x == 0.0) and np.all(sol.traj.u == 0.0)
        assert sol.cost == 0.0
        # With no internal state every node's feedback is C_l ME - [I; 0].
        n, ME = dae.n, assoc.M @ assoc.E
        want = assoc.C_l @ ME - np.eye(n + dae.m, n)
        K1 = _closed_loop_map(assoc.C_l, assoc.D_l, sol.K_samples[::-1], ME) - np.eye(n + dae.m, n)
        assert K1.shape == (101,) + want.shape
        assert np.all(K1 == want)
        assert sol.K_f_samples.shape == (101,) + want[n:].shape
        assert np.all(sol.K_f_samples == want[n:])
        assert closed_loop_replay(dae, assoc, sol, np.zeros(dae.c)) is sol.traj

    def test_one_hamiltonian_exponential_per_solve(self, ex1, ex1_assoc, monkeypatch):
        calls = []
        expm = scipy.linalg.expm

        def counted(M):
            calls.append(M.shape)
            return expm(M)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        finite_horizon(ex1, ex1_assoc, w, np.array([1.0, 7.0]), 1.0)
        assert len(calls) == 1

    def test_inconsistent_start_rejected(self):
        dae = DaeLti(
            np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2), np.array([[0.0], [1.0]])
        )
        assoc = associate(dae)
        w = LqWeights(np.eye(2), np.eye(1), np.zeros((2, 2)))
        with pytest.raises(InconsistentInitialState):
            finite_horizon(dae, assoc, w, np.array([0.0, 1.0]), 1.0)
        sol = finite_horizon(dae, assoc, w, np.array([0.5, 0.0]), 1.0)
        assert sol.cost > 0.0

    def test_replay_reproduces_solution(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 1.0])
        sol = finite_horizon(ex1, ex1_assoc, w, z, 1.0)
        traj = closed_loop_replay(ex1, ex1_assoc, sol, z)
        assert np.max(np.abs(traj.x - sol.traj.x)) <= 1e-8
        assert np.max(np.abs(traj.u - sol.traj.u)) <= 1e-8

    def test_replay_detects_corrupted_constraint(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 1.0])
        sol = finite_horizon(ex1, ex1_assoc, w, z, 1.0)
        bad = dataclasses.replace(sol, K_samples=sol.K_samples + 1.0)
        with pytest.raises(ConstraintViolated):
            closed_loop_replay(ex1, ex1_assoc, bad, z)

    def test_back_scan_overflow_raises_non_finite_p(self):
        # Instance 83 of random_dae's seed-2 stream, its rows, states and
        # inputs scaled by 2^round(U(-60, 60)): P stays finite on the whole
        # grid, but the back scan's products overflow.  That must surface as
        # the package error alone, naming the first real-time node lost.
        rng = np.random.default_rng(2)
        for _ in range(84):
            dae = random_dae(rng)
            S, T, R = (2.0 ** np.round(rng.uniform(-60, 60, k)) for k in (dae.c, dae.n, dae.m))
            zr = rng.standard_normal(8)
        dae = DaeLti(S[:, None] * dae.E * T, S[:, None] * dae.A * T, S[:, None] * dae.B * R)
        assoc = associate(dae)
        w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.eye(dae.c))
        z = assoc.EC_s @ zr[: assoc.n_hat]
        assert np.all(np.isfinite(solve_dre(assoc, w, 1.0)[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteP, match="closed-loop state lost finiteness at s = 0.512$"):
                finite_horizon(dae, assoc, w, z, 1.0)


class TestFiniteHorizonOnHeat:
    """The finite horizon on the descriptor heat model."""

    def test_cost_rises_with_the_horizon_to_the_infinite_horizon_cost(self):
        # N = N_u = 20 with Q0 = 0: J_fin(t1) is nondecreasing in t1 and never
        # above J_dae, up to rounding (1e-12 relative).  The gap closes like
        # e^{-2 alpha t1}, alpha the closed loop's decay rate; at t1 = 2 it
        # is below 1e-10 J_dae, which t1 = 1 does not reach yet.
        models = build_heat_models(HeatConfig(N=20, N_u=20, mode=20))
        dae, w, z = models.dae, models.weights, models.value_of_initial
        assert not np.any(w.Q0)
        assoc = associate(dae)
        costs = [finite_horizon(dae, assoc, w, z, t1, steps=1000).cost for t1 in (0.1, 0.5, 1, 2)]
        J_dae = dae_lq_pipeline(models).cost
        assert all(a <= b for a, b in zip(costs, costs[1:])), costs
        assert max(costs) <= J_dae * (1.0 + 1e-12)
        assert abs(costs[-1] - J_dae) <= 1e-10 * J_dae
        assert abs(costs[-2] - J_dae) > 1e-10 * J_dae

    def test_peak_memory_stays_near_the_returned_stacks(self):
        # N = 40, t1 = 0.1, 2001 nodes.  Besides the returned P, K and K_f
        # stacks, the solve holds the closed-loop map's two nodes x n_hat x m
        # temporaries (0.38 of the returned bytes here) and smaller arrays.
        # A stored K1 stack (1.24 of them) or kron(D', ME) (1.87) would not
        # fit in 1.75 times the returned bytes.
        models = build_heat_models(HeatConfig(N=40))
        assoc = associate(models.dae)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol = finite_horizon(models.dae, assoc, models.weights, models.value_of_initial, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sol.grid.shape[0] == 2001
        returned = sol.P_samples.nbytes + sol.K_samples.nbytes + sol.K_f_samples.nbytes
        assert peak <= 1.75 * returned, (peak, returned)


def care_oracle(restr, w):
    """scipy's CARE on the cross-term form of the restricted problem."""
    A, B, C, D, S = restr.sys_g.A, restr.sys_g.B, restr.sys_g.C, restr.sys_g.D, w.S
    CSC, DSD = C.T @ S @ C, D.T @ S @ D
    return scipy.linalg.solve_continuous_are(
        A, B, 0.5 * (CSC + CSC.T), 0.5 * (DSD + DSD.T), s=C.T @ S @ D
    )


def criterion_5_stream():
    """Criterion 5's 90 instances (dae, assoc, z) from seed 424242: a 2:1 mix
    of ``random_dae`` and ``random_autonomous_unstable``, z = E C_s randn."""
    rng = np.random.default_rng(424242)
    for idx in range(90):
        dae = random_autonomous_unstable(rng) if idx % 3 == 2 else random_dae(rng)
        assoc = associate(dae)
        yield dae, assoc, assoc.EC_s @ rng.standard_normal(assoc.n_hat)


def heat_restrictions(N):
    """The descriptor and the naive Galerkin LQ problems of the heat
    benchmark, as (restriction, weights)."""
    cfg = HeatConfig(N=N)
    models = build_heat_models(cfg)
    A = np.linalg.solve(models.gram, models.stiffness)
    B = np.linalg.solve(models.gram, models.sine_overlap[:, : cfg.N_u])
    naive = DaeLti(np.eye(N), A, B)
    return [
        (associate(models.dae).restriction, models.weights),
        (
            associate(naive).restriction,
            LqWeights(models.gram, np.eye(cfg.N_u), np.zeros((N, N))),
        ),
    ]


class TestSolveAre:
    def test_scalar_integrator(self):
        _, assoc = scalar_integrator()
        restr = assoc.restriction
        w = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
        P, K, abscissa = solve_are(restr.sys_g, w)
        assert abs(P[0, 0] - 1.0) <= 1e-10
        assert abs(K[0, 0] - 1.0) <= 1e-10
        assert abscissa == spectral_abscissa(restr.sys_g.A - restr.sys_g.B @ K)
        assert abs(abscissa + 1.0) <= 1e-10

    def test_autonomous_branch_is_lyapunov_solution(self):
        dae = DaeLti(
            np.array([[1.0], [0.0]]),
            np.array([[-0.5], [0.4]]),
            np.array([[0.3], [1.0]]),
        )
        assoc = associate(dae)
        restr = assoc.restriction
        w = LqWeights(2.0 * np.eye(1), np.eye(1), np.zeros((2, 2)))
        P, K, _ = solve_are(restr.sys_g, w)
        a = restr.sys_g.A[0, 0]
        csc = (restr.sys_g.C.T @ w.S @ restr.sys_g.C).item()
        assert abs(P[0, 0] - csc / (-2.0 * a)) <= 1e-10
        assert K.shape == (0, 1)

    def test_unstabilizable_restriction_raises_package_error(self):
        # An unstable, unactuated mode: the Hamiltonian has no stable
        # invariant subspace of full dimension.
        sys = OdeLti(
            np.array([[1.0]]),
            np.array([[0.0]]),
            np.array([[1.0], [0.0]]),
            np.array([[0.0], [1.0]]),
        )
        w = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
        with pytest.raises(NoStabilizingStart):
            solve_are(sys, w)

    def test_imaginary_axis_hamiltonian_raises_package_error(self):
        # An unactuated, unweighted oscillator: the Hamiltonian's eigenvalues
        # +-i lie on the axis, so it has fewer than l stable ones.
        sys = OdeLti(
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.zeros((2, 1)),
            np.zeros((2, 2)),
            np.array([[0.0], [1.0]]),
        )
        w = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
        with pytest.raises(NoStabilizingStart, match="0 stable eigenvalues, not 2"):
            solve_are(sys, w)

    def test_failed_schur_reordering_is_no_stabilizing_start(self, failing_dgees):
        # The LinAlgError of a failed reordering becomes solve_are's own.
        _, assoc = scalar_integrator()
        w = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
        with pytest.raises(NoStabilizingStart, match="sort condition"):
            solve_are(assoc.restriction.sys_g, w)

    def test_overflowing_weights_are_no_stabilizing_start(self):
        # Q = 1e308 I fits in a double, but the balanced Hamiltonian does
        # not: its Schur form refuses the infs as SciPy's does.
        rng = np.random.default_rng(2702)
        sys = OdeLti(
            rng.standard_normal((3, 3)),
            rng.standard_normal((3, 1)),
            np.vstack([np.eye(3), np.zeros((1, 3))]),
            np.vstack([np.zeros((3, 1)), np.eye(1)]),
        )
        w = LqWeights(1e308 * np.eye(3), np.eye(1), np.eye(1))
        with np.errstate(over="ignore"), pytest.raises(NoStabilizingStart, match="infs or NaNs"):
            solve_are(sys, w)

    def test_overflowing_residual_is_no_stabilizing_start(self):
        # Q = 1e200 I passes the Schur form, but the residual's norms
        # overflow and read NaN, which the residual check must refuse.
        rng = np.random.default_rng(3)
        sys = OdeLti(
            rng.standard_normal((3, 3)),
            rng.standard_normal((3, 1)),
            np.vstack([np.eye(3), np.zeros((1, 3))]),
            np.vstack([np.zeros((3, 1)), np.eye(1)]),
        )
        w = LqWeights(1e200 * np.eye(3), np.eye(1), np.eye(1))
        with pytest.warns(RuntimeWarning, match="perturbing"), pytest.raises(
            NoStabilizingStart, match="ARE residual"
        ):
            solve_are(sys, w)

    @pytest.mark.parametrize("shift", [-3.0, 0.0])
    def test_lyapunov_matches_scipy_bitwise(self, shift):
        rng = np.random.default_rng(2703)
        for n in range(1, 13):
            a = rng.standard_normal((n, n)) + shift * np.eye(n)
            X = rng.standard_normal((n, n))
            q = -(X @ X.T)
            want = scipy.linalg.solve_continuous_lyapunov(a, q)
            assert np.array_equal(_lyapunov(a, q), want), n

    def test_lyapunov_refuses_non_finite_data(self):
        a, q = -np.eye(2), -np.eye(2)
        for bad_a, bad_q in ((np.inf, 0.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                _lyapunov(a + np.array([[0.0, bad_a], [0.0, 0.0]]), q + bad_q)

    def test_lyapunov_warns_on_a_singular_operator(self):
        # The eigenvalues +-i of a sum to zero: dtrsyl perturbs them, as
        # inside scipy's solver, and says so.
        with pytest.warns(RuntimeWarning, match="perturbing"):
            _lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), -np.eye(2))

    def test_random_stabilizable_population(self):
        rng = np.random.default_rng(1234)
        solved = 0
        while solved < 100:
            dae = random_dae(rng)
            assoc = associate(dae)
            restr = assoc.restriction
            if restr.l == 0:
                continue
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.eye(dae.c))
            P, K, _ = solve_are(restr.sys_g, w)
            A, B, C, D = restr.sys_g.A, restr.sys_g.B, restr.sys_g.C, restr.sys_g.D
            S = w.S
            if np.linalg.norm(D) == 0.0:
                resid = A.T @ P + P @ A + C.T @ S @ C
            else:
                G = B.T @ P + D.T @ S @ C
                resid = A.T @ P + P @ A - G.T @ np.linalg.solve(D.T @ S @ D, G)
                resid += C.T @ S @ C
            assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(P)) ** 2
            assert np.linalg.eigvalsh(P)[0] > 0.0
            assert spectral_abscissa(A - B @ K) < 0.0
            solved += 1

    def test_matches_care_oracle_on_regular_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
            B = rng.standard_normal((n, m))
            dae = DaeLti(np.eye(n), A, B)
            assoc = associate(dae)
            w = LqWeights(np.eye(n), np.eye(m), np.zeros((n, n)))
            sol = infinite_horizon(dae, assoc, w, np.zeros(n))
            P_care = scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(m))
            K_care = B.T @ P_care
            W = sol.restriction.subspace.basis.T
            P_amb = W.T @ sol.P @ W
            assert np.linalg.norm(P_amb - P_care) <= 1e-6 * (
                1.0 + np.linalg.norm(P_care)
            )
            assert np.linalg.norm(sol.K_f + K_care) <= 1e-6 * (
                1.0 + np.linalg.norm(K_care)
            )

    def test_matches_care_oracle_on_heat_restrictions(self):
        dims = []
        for restr, w in heat_restrictions(40):
            P, _, _ = solve_are(restr.sys_g, w)
            P_care = care_oracle(restr, w)
            assert np.linalg.norm(P - P_care) <= 1e-10 * np.linalg.norm(P_care)
            dims.append((restr.l, restr.sys_g.n_inputs))
        assert dims == [(40, 75), (40, 35)]

    def test_residual_check_refuses_perturbed_solutions(self, ex1_assoc):
        # A P off by 1e-8 relative, with K recomputed from it, fails the
        # scaled check; the solver's own P passes it by far.
        rng = np.random.default_rng(7)
        cases = [
            (ex1_assoc.restriction, LqWeights(np.eye(3), np.eye(1), np.eye(2)))
        ] + heat_restrictions(40)
        for restr, w in cases:
            P, K, _ = solve_are(restr.sys_g, w)
            assert _are_residual(restr.sys_g, w.S, P, K) <= 1e-15
            X = rng.standard_normal(P.shape)
            X += X.T
            P_bad = P + 1e-8 * np.linalg.norm(P) / np.linalg.norm(X) * X
            W_inv, DSC, *_ = _hamiltonian(restr.sys_g, w)
            K_bad = _gain(W_inv, DSC, restr.sys_g.B, P_bad)
            assert _are_residual(restr.sys_g, w.S, P_bad, K_bad) > ARE_RESIDUAL_TOL

    @pytest.mark.parametrize(
        "name, fake, message",
        [
            ("_lyapunov", lambda a, q: np.full_like(q, np.nan), "Kleinman-Newton step diverged"),
            ("spectral_abscissa", lambda A: 0.0, "closed loop is not stable"),
        ],
        ids=["diverged_newton_step", "unstable_closed_loop"],
    )
    def test_unreached_refusal_is_no_stabilizing_start(
        self, ex1_assoc, monkeypatch, name, fake, message
    ):
        # No known input makes the Lyapunov solve overflow or leaves the
        # refined gain unstable, so a substitute returns NaN or the abscissa 0;
        # the refusal must still be solve_are's own.
        monkeypatch.setattr(importlib.import_module("dae2ode.lq"), name, fake)
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        with pytest.raises(NoStabilizingStart, match=message):
            solve_are(ex1_assoc.restriction.sys_g, w)

    def test_one_newton_step_reaches_the_residual_floor(self, ex1_assoc, monkeypatch):
        # From the balanced Schur start, the one Kleinman-Newton step brings
        # ex1 and both heat restrictions, up to N = 320, to the residual floor.
        lq = importlib.import_module("dae2ode.lq")
        lyapunov = lq._lyapunov
        calls = []

        def counted(*args):
            calls.append(1)
            return lyapunov(*args)

        monkeypatch.setattr(lq, "_lyapunov", counted)
        cases = [
            (ex1_assoc.restriction, LqWeights(np.eye(3), np.eye(1), np.eye(2)))
        ] + heat_restrictions(40) + heat_restrictions(160) + heat_restrictions(320)
        for restr, w in cases:
            calls.clear()
            P, K, _ = solve_are(restr.sys_g, w)
            assert len(calls) == 1
            assert _are_residual(restr.sys_g, w.S, P, K) <= 1e-14

    def test_time_scaled_problem_keeps_its_solution(self, ex1):
        # Running time 2^20 times faster scales A, B, Q and R exactly and
        # leaves P as it is; the residual check must accept it as well.
        rng = np.random.default_rng(5)
        regular = DaeLti(np.eye(4), rng.standard_normal((4, 4)), rng.standard_normal((4, 2)))
        alpha = 2.0**20
        for dae in (ex1, regular):
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.eye(dae.c))
            fast = DaeLti(dae.E, alpha * dae.A, alpha * dae.B)
            w_fast = LqWeights(alpha * w.Q, alpha * w.R, w.Q0)
            ambient = []
            for d, ww in ((dae, w), (fast, w_fast)):
                restr = associate(d).restriction
                P, _, _ = solve_are(restr.sys_g, ww)
                ambient.append(restr.subspace.basis @ P @ restr.subspace.basis.T)
            assert np.linalg.norm(restr.sys_g.A, 2) >= 1e6
            slow, fast_P = ambient
            assert np.linalg.norm(fast_P - slow) <= 1e-12 * np.linalg.norm(slow)

    def test_matches_care_oracle_on_criterion_5_stream(self):
        compared = 0
        for dae, assoc, z in criterion_5_stream():
            restr = assoc.restriction
            if restr.l == 0 or not is_behaviorally_stabilizable(dae, assoc, z):
                continue
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.zeros((dae.c, dae.c)))
            P, _, _ = solve_are(restr.sys_g, w)
            P_care = care_oracle(restr, w)
            assert np.linalg.norm(P - P_care) <= 1e-10 * np.linalg.norm(P_care)
            compared += 1
        assert compared == 38


class TestStabilizability:
    def test_unstable_unactuated_value(self):
        dae = DaeLti(np.eye(1), np.eye(1), np.zeros((1, 1)))
        assoc = associate(dae)
        assert not is_behaviorally_stabilizable(dae, assoc, np.array([1.0]))
        assert is_behaviorally_stabilizable(dae, assoc, np.array([0.0]))

    def test_stable_unactuated_value(self):
        dae = DaeLti(np.eye(1), -np.eye(1), np.zeros((1, 1)))
        assoc = associate(dae)
        assert is_behaviorally_stabilizable(dae, assoc, np.array([2.0]))

    def test_worked_example_is_stabilizable(self, ex1, ex1_assoc):
        assert is_behaviorally_stabilizable(ex1, ex1_assoc, np.array([1.0, 7.0]))

    @pytest.mark.parametrize("tol", [None, 1e-10], ids=["default", "1e-10"])
    def test_unreached_unstable_mode_behind_orthogonal_changes(self, tol):
        # x1' = 0.7 x1, x2' = -0.4 x2, x3 free, and an input that acts on
        # nothing.  Behind S and T, B_l is rounding alone; ranked against its
        # own size, that rounding would reach x1 (l = 2), and the ARE would
        # have no stabilizing solution.
        rng = np.random.default_rng(26)
        E = np.eye(2, 3)
        A = np.hstack([np.diag([0.7, -0.4]), np.zeros((2, 1))])
        w = LqWeights(np.eye(3), np.eye(1), np.zeros((2, 2)))
        for idx in range(200):
            S = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            T = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            dae = DaeLti(S @ E @ T, S @ A @ T, np.zeros((2, 1)))
            assoc = associate(dae, tol)
            assert assoc.restriction.l == 1, f"system {idx}"
            z = S[:, 0]
            assert not is_behaviorally_stabilizable(dae, assoc, z), f"system {idx}"
            with pytest.raises(NotStabilizable):
                infinite_horizon(dae, assoc, w, z)


class TestInfiniteHorizon:
    def test_zero_start_costs_nothing(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = infinite_horizon(ex1, ex1_assoc, w, np.zeros(2))
        assert sol.cost == 0.0

    def test_unstabilizable_value_raises(self):
        dae = DaeLti(np.eye(1), np.eye(1), np.zeros((1, 1)))
        assoc = associate(dae)
        w = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
        with pytest.raises(NotStabilizable):
            infinite_horizon(dae, assoc, w, np.array([1.0]))

    def test_worked_example_cost(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = infinite_horizon(ex1, ex1_assoc, w, np.array([1.0, 1.0]))
        assert sol.closed_loop_abscissa < 0.0
        quad = trajectory_cost(w, ex1.E, sol.traj)
        assert abs(sol.cost - quad) <= 1e-4 * (1.0 + abs(sol.cost))

    def test_running_cost_is_nonnegative(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = infinite_horizon(ex1, ex1_assoc, w, np.array([1.0, -1.0]))
        integrand = np.einsum("ij,jk,ik->i", sol.traj.x, w.Q, sol.traj.x)
        integrand += np.einsum("ij,jk,ik->i", sol.traj.u, w.R, sol.traj.u)
        assert np.all(integrand >= -1e-15)

    def test_input_is_state_feedback(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = infinite_horizon(ex1, ex1_assoc, w, np.array([1.0, 2.0]))
        defect = sol.traj.u - sol.traj.x @ sol.K_f.T
        assert np.max(np.abs(defect)) <= 1e-8

    def test_gain_on_value_matches_gain_on_state(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = infinite_horizon(ex1, ex1_assoc, w, np.array([1.0, 2.0]))
        assert np.allclose(sol.K_f, sol.K_z @ ex1.E, atol=1e-12)

    def test_replay_reproduces_solution(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 1.0])
        sol = infinite_horizon(ex1, ex1_assoc, w, z)
        traj = closed_loop_replay(ex1, ex1_assoc, sol, z)
        assert np.max(np.abs(traj.x - sol.traj.x)) <= 1e-8
        assert np.max(np.abs(traj.u - sol.traj.u)) <= 1e-8

    def test_replay_detects_corrupted_constraint(self, ex1, ex1_assoc):
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 1.0])
        sol = infinite_horizon(ex1, ex1_assoc, w, z)
        bad = dataclasses.replace(sol, K1=sol.K1 + 1.0)
        with pytest.raises(ConstraintViolated):
            closed_loop_replay(ex1, ex1_assoc, bad, z)

    def test_one_spectral_abscissa_per_solve(self, ex1, ex1_assoc, monkeypatch):
        lq = importlib.import_module("dae2ode.lq")
        calls = []

        def counted(A, _original=lq.spectral_abscissa):
            calls.append(A.shape)
            return _original(A)

        monkeypatch.setattr(lq, "spectral_abscissa", counted)
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        sol = infinite_horizon(ex1, ex1_assoc, w, np.array([1.0, 7.0]))
        assert calls == [(2, 2)]
        assert sol.closed_loop_abscissa < 0.0

    def test_random_population_costs_match_quadrature(self):
        rng = np.random.default_rng(32)
        done = 0
        while done < 15:
            dae = random_dae(rng)
            assoc = associate(dae)
            restr = assoc.restriction
            if restr.l == 0:
                continue
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.zeros((dae.c, dae.c)))
            v = rng.standard_normal(restr.l)
            z = dae.E @ (assoc.C_s @ (restr.subspace.basis @ v))
            try:
                sol = infinite_horizon(dae, assoc, w, z)
            except NotStabilizable:
                continue
            quad = trajectory_cost(w, dae.E, sol.traj)
            assert abs(sol.cost - quad) <= 1e-3 * (1.0 + abs(sol.cost))
            done += 1



REPLAYED_SOLVES = pytest.mark.parametrize(
    "solve",
    [
        lambda dae, assoc, w, z: finite_horizon(dae, assoc, w, z, 1.0),
        lambda dae, assoc, w, z: infinite_horizon(dae, assoc, w, z),
    ],
    ids=["finite_horizon", "infinite_horizon"],
)


class TestClosedLoopReplay:
    """The replay checks the trajectory it is given, for either horizon."""

    @staticmethod
    def solved(ex1, ex1_assoc, solve):
        z = np.array([1.0, 1.0])
        return solve(ex1, ex1_assoc, LqWeights(np.eye(3), np.eye(1), np.eye(2)), z), z

    @REPLAYED_SOLVES
    def test_replay_solves_nothing(self, ex1, ex1_assoc, solve, monkeypatch):
        sol, z = self.solved(ex1, ex1_assoc, solve)
        lq = importlib.import_module("dae2ode.lq")
        calls = []
        patched = ((lq, "simulate"), (lq, "solve_dre"), (lq, "solve_are"), (scipy.linalg, "expm"))
        for module, name in patched:
            monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
        traj = closed_loop_replay(ex1, ex1_assoc, sol, z)
        assert calls == []
        assert traj is sol.traj

    @REPLAYED_SOLVES
    def test_corrupted_input_detected(self, ex1, ex1_assoc, solve):
        sol, z = self.solved(ex1, ex1_assoc, solve)
        bad = dataclasses.replace(sol, traj=dataclasses.replace(sol.traj, u=sol.traj.u + 1e-3))
        with pytest.raises(ConstraintViolated, match="K1 x \\+ K2 u"):
            closed_loop_replay(ex1, ex1_assoc, bad, z)

    @REPLAYED_SOLVES
    def test_trajectory_from_another_start_detected(self, ex1, ex1_assoc, solve):
        # 2z is consistent and the trajectory meets K1 x + K2 u = 0, but it
        # starts at z.
        sol, z = self.solved(ex1, ex1_assoc, solve)
        with pytest.raises(ConstraintViolated, match="away from z"):
            closed_loop_replay(ex1, ex1_assoc, sol, 2.0 * z)

    @REPLAYED_SOLVES
    def test_non_finite_defect_detected(self, ex1, ex1_assoc, solve):
        # A NaN in K1, or in the gains the finite horizon's K1 follows from,
        # makes every comparison with the tolerance false; the defect must
        # still be refused, with no warning first.
        sol, z = self.solved(ex1, ex1_assoc, solve)
        field = "K1" if isinstance(sol, InfiniteHorizonSolution) else "K_samples"
        K1 = getattr(sol, field).copy()
        K1[..., 0, 0] = np.nan
        bad = dataclasses.replace(sol, **{field: K1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolated, match="max defect nan$"):
                closed_loop_replay(ex1, ex1_assoc, bad, z)

    def test_sample_paths_hold_no_temporaries_of_their_size(self):
        # Criterion 5's stream: every solve replays clean, and on each one
        # of at least 3000 samples the replay holds at most two arrays of
        # the trajectory's size, and unforced simulate nothing T-sized
        # beyond its states and outputs but the grid checks' 4 T doubles.
        rng = np.random.default_rng(424242)
        long_runs = 0
        for idx in range(90):
            dae = random_autonomous_unstable(rng) if idx % 3 == 2 else random_dae(rng)
            assoc = associate(dae)
            z = assoc.EC_s @ rng.standard_normal(assoc.n_hat)
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.zeros((dae.c, dae.c)))
            try:
                sol = infinite_horizon(dae, assoc, w, z)
            except NotStabilizable:
                continue
            T = sol.traj.times.shape[0]
            if T < 3000:
                assert closed_loop_replay(dae, assoc, sol, z) is sol.traj
                continue
            long_runs += 1
            g = sol.restriction.sys_g
            cl = OdeLti(g.A - g.B @ sol.K, g.B, g.C - g.D @ sol.K, g.D)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert closed_loop_replay(dae, assoc, sol, z) is sol.traj
                replay_peak = tracemalloc.get_traced_memory()[1] - start
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                states, outputs = simulate(cl, sol.v0, None, sol.traj.times)
                simulate_peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert replay_peak <= 2 * T * (dae.n + dae.m) * 8 + 64 * 1024, idx
            assert simulate_peak <= states.nbytes + outputs.nbytes + 4 * T * 8 + 64 * 1024, idx
        assert long_runs > 0


class TestRealizationOwnsE:
    """The solvers read E from the realization: a DAE passed beside it is
    not consulted, so one with E doubled changes no output."""

    def test_e_doubled_dae_gives_the_matched_solution(self, ex1, ex1_assoc):
        doubled = DaeLti(2.0 * ex1.E, ex1.A, ex1.B)
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 7.0])
        want = infinite_horizon(ex1, ex1_assoc, w, z)
        got = infinite_horizon(doubled, ex1_assoc, w, z)
        assert np.array_equal(got.K_f, want.K_f)
        assert got.cost == want.cost
        assert closed_loop_replay(doubled, ex1_assoc, got, z) is got.traj
        want = finite_horizon(ex1, ex1_assoc, w, z, 1.0)
        got = finite_horizon(doubled, ex1_assoc, w, z, 1.0)
        assert np.array_equal(got.K_f_samples, want.K_f_samples)
        assert got.cost == want.cost


class TestOneEntryPerSolve:
    """Each horizon solver reaches its Riccati equation through the public
    solver, once, and never through the other one."""

    @pytest.mark.parametrize(
        "horizon, entry",
        [(finite_horizon, "solve_dre"), (infinite_horizon, "solve_are")],
        ids=["finite_horizon", "infinite_horizon"],
    )
    def test_horizon_calls_its_public_solver_once(
        self, ex1, ex1_assoc, horizon, entry, monkeypatch
    ):
        lq = importlib.import_module("dae2ode.lq")
        calls = []
        for name in ("solve_dre", "solve_are"):

            def counted(*args, _name=name, _original=getattr(lq, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(lq, name, counted)
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        args = (1.0,) if horizon is finite_horizon else ()
        horizon(ex1, ex1_assoc, w, np.array([1.0, 7.0]), *args)
        assert calls == [entry]


RICCATI_CALLS = pytest.mark.parametrize(
    "solve",
    [
        lambda dae, assoc, w: solve_dre(assoc, w, 1.0),
        lambda dae, assoc, w: finite_horizon(dae, assoc, w, np.ones(1), 1.0),
        lambda dae, assoc, w: solve_are(assoc.restriction.sys_g, w),
    ],
    ids=["solve_dre", "finite_horizon", "solve_are"],
)

INITIAL_VALUE_CALLS = pytest.mark.parametrize(
    "start",
    [
        lambda dae, assoc, w, z: finite_horizon(dae, assoc, w, z, 1.0),
        lambda dae, assoc, w, z: infinite_horizon(dae, assoc, w, z),
        lambda dae, assoc, w, z: is_behaviorally_stabilizable(dae, assoc, z),
        lambda dae, assoc, w, z: closed_loop_replay(
            dae, assoc, infinite_horizon(dae, assoc, w, np.array([0.5, 0.0])), z
        ),
    ],
    ids=[
        "finite_horizon",
        "infinite_horizon",
        "is_behaviorally_stabilizable",
        "closed_loop_replay",
    ],
)


class TestSharedChecks:
    """Checks that both Riccati solvers and every initial value go through."""

    @RICCATI_CALLS
    def test_weights_for_other_signal_dimensions_rejected(self, solve):
        dae, assoc = scalar_integrator()
        w = LqWeights(np.eye(2), np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="weights are for signal dimensions"):
            solve(dae, assoc, w)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda dae, assoc, w, z: infinite_horizon(dae, assoc, w, z),
            lambda dae, assoc, w, z: finite_horizon(dae, assoc, w, z, 1.0),
        ],
        ids=["infinite_horizon", "finite_horizon"],
    )
    def test_weights_that_split_n_plus_m_otherwise_rejected(self, ex1, ex1_assoc, solve):
        # n = 3 and m = 1 on the worked example.  A 2 x 2 Q and a 2 x 2 R
        # fill the same four output rows, so diag(Q, R) alone has the right
        # size, and the split must be checked against n and m.
        w = LqWeights(np.eye(2), 2.0 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match=r"Q must be 3 x 3 and R 1 x 1$"):
            solve(ex1, ex1_assoc, w, np.array([1.0, 7.0]))

    @RICCATI_CALLS
    def test_zero_feedthrough_with_actuated_state_rejected(self, solve):
        # D_l = 0 with B_l != 0 is no associated system (D_l is injective);
        # the Cholesky factorization of D_l'SD_l refuses it.
        dae = DaeLti(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assoc = AssociatedOdeLti(
            np.zeros((1, 1)),
            np.eye(1),
            np.array([[1.0], [0.0]]),
            np.zeros((2, 1)),
            E=dae.E,
        )
        w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="D'SD is not positive definite"):
            solve(dae, assoc, w)

    @INITIAL_VALUE_CALLS
    def test_initial_value_checked(self, start):
        # A = -I so that the replay has a solution from z = (0.5, 0) to replay.
        dae = DaeLti(
            np.array([[1.0, 0.0], [0.0, 0.0]]), -np.eye(2), np.array([[0.0], [1.0]])
        )
        assoc = associate(dae)
        w = LqWeights(np.eye(2), np.eye(1), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="z must have length"):
            start(dae, assoc, w, np.zeros(3))
        with pytest.raises(InconsistentInitialState):
            start(dae, assoc, w, np.array([0.0, 1.0]))
        for bad in (np.nan, np.inf):
            # Malformed input, not an inconsistent value.
            with pytest.raises(ValueError, match="non-finite"):
                start(dae, assoc, w, np.array([bad, 0.0]))


def lq_operation(dae, assoc, w, z):
    """Predict, solve and replay the infinite-horizon problem from z: the
    verdict, then P, K, K_f, the trajectory, the cost and the replay."""
    predicted = is_behaviorally_stabilizable(dae, assoc, z)
    try:
        sol = infinite_horizon(dae, assoc, w, z)
    except NotStabilizable:
        return (predicted,)
    replay = closed_loop_replay(dae, assoc, sol, z)
    return (predicted, sol.P, sol.K, sol.K_f, sol.traj.x, sol.traj.u, sol.cost, replay.x, replay.u)


class TestCachedDerivations:
    """A realization computes its consistency set and its stabilizable
    restriction once, and every LQ call reads them from it."""

    def test_each_is_computed_once_per_realization(self, ex1, monkeypatch):
        module = importlib.import_module("dae2ode.associate")
        odesys = importlib.import_module("dae2ode.odesys")
        calls = []
        for owner, name in (
            (module, "stabilizability_subspace"),
            (module, "image"),
            (odesys, "stabilizability_subspace"),
        ):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        assoc = associate(ex1)
        calls.clear()
        w = LqWeights(np.eye(3), np.eye(1), np.eye(2))
        z = np.array([1.0, 7.0])
        assert is_behaviorally_stabilizable(ex1, assoc, z)
        sol = infinite_horizon(ex1, assoc, w, z)
        closed_loop_replay(ex1, assoc, sol, z)
        finite_horizon(ex1, assoc, w, z, 1.0)
        assert pencil_stabilizability_test(ex1, assoc)
        assert sorted(calls) == ["image", "stabilizability_subspace"]

    def test_cached_realization_matches_a_fresh_one_on_criterion_5_stream(self):
        refused = 0
        for idx, (dae, assoc, z) in enumerate(criterion_5_stream()):
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.zeros((dae.c, dae.c)))
            cold = lq_operation(dae, assoc, w, z)
            warm = lq_operation(dae, assoc, w, z)
            fresh = lq_operation(dae, associate(dae), w, z)
            for got in (cold, warm):
                assert len(got) == len(fresh), f"instance {idx}: verdict changed"
                for a, b in zip(got, fresh):
                    assert np.array_equal(a, b), f"instance {idx}: output changed"
            refused += len(fresh) == 1
        assert 0 < refused < 90, "stream must exercise both outcomes"

    def test_replaced_realization_computes_its_own_consistency_set(self, ex1):
        # E C_s is the identity on ex1; a zero second column of C_s, or a
        # zero second row of E, leaves image(E C_s) = span(e_1).
        assoc = associate(ex1)
        z = np.array([0.0, 1.0])
        assert assoc.consistency_set.dim == 2
        C_l, E = assoc.C_l.copy(), assoc.E.copy()
        C_l[: assoc.n, 1] = 0.0
        E[1] = 0.0
        for replaced in (dataclasses.replace(assoc, C_l=C_l), dataclasses.replace(assoc, E=E)):
            assert replaced.consistency_set.dim == 1
            assert not replaced.consistency_set.contains_vector(z)
        assert assoc.consistency_set.dim == 2
        assert assoc.consistency_set.contains_vector(z)


class TestCoordinateInvariance:
    """x = T x~ with the equations premultiplied by S changes no structure and
    no cost: the transformed problem with Q~ = T'QT from z~ = S z is the same
    problem."""

    @staticmethod
    def structure_and_cost(dae, w, z):
        assoc = associate(dae)
        structure = (
            assoc.consistency_set.dim,
            wong_limit(dae).dim,
            impulse_controllable(dae),
            pencil_stabilizability_test(dae, assoc),
        )
        try:
            cost = infinite_horizon(dae, assoc, w, z).cost
        except NotStabilizable:
            cost = None
        return structure, cost

    def test_random_population_with_conditioned_changes(self):
        rng = np.random.default_rng(5)
        solved = refused = 0
        for idx in range(100):
            dae = random_dae(rng)
            S = conditioned(dae.c, 300.0, rng)
            T = conditioned(dae.n, 300.0, rng)
            Q, R = random_spd(dae.n, rng), random_spd(dae.m, rng)
            Q0 = np.zeros((dae.c, dae.c))
            Qt = T.T @ Q @ T
            moved = DaeLti(S @ dae.E @ T, S @ dae.A @ T, S @ dae.B)
            assoc = associate(dae)
            z = assoc.EC_s @ rng.standard_normal(assoc.n_hat)

            want, cost = self.structure_and_cost(dae, LqWeights(Q, R, Q0), z)
            got, moved_cost = self.structure_and_cost(
                moved, LqWeights(0.5 * (Qt + Qt.T), R, Q0), S @ z
            )
            assert got == want, f"instance {idx}: structure changed"
            assert (moved_cost is None) == (cost is None), f"instance {idx}: refusal changed"
            if cost is None:
                refused += 1
                continue
            solved += 1
            assert abs(moved_cost - cost) <= 1e-8 * abs(cost), f"instance {idx}: cost moved"
        assert solved > 0 and refused > 0, "population must exercise both outcomes"


class TestGain:
    @pytest.mark.parametrize("n_hat, k", [(6, 1), (5, 2), (3, 3), (0, 1), (4, 0)])
    def test_stack_matches_each_p(self, n_hat, k):
        rng = np.random.default_rng(7)
        B, DSC = rng.standard_normal((n_hat, k)), rng.standard_normal((k, n_hat))
        W_inv = np.linalg.inv(random_spd(k, rng))
        X = rng.standard_normal((40, n_hat, n_hat))
        P = 0.5 * (X + X.swapaxes(1, 2))
        K = _gain(W_inv, DSC, B, P)
        assert K.shape == (40, k, n_hat)
        for j in range(40):
            K_j = _gain(W_inv, DSC, B, P[j])
            scale = np.max(np.abs(K_j), initial=0.0)
            assert np.allclose(K[j], K_j, rtol=1e-14, atol=1e-14 * scale)

    def test_gains_match_a_backward_stable_solve(self):
        # Both horizons' gains, by W^{-1} times B'P + D'SC, agree with a
        # pivoted LU solve with W = D'SD on criterion 5's stream.
        compared = 0
        for dae, assoc, _ in criterion_5_stream():
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.eye(dae.c))
            P_samples, K_samples, _ = solve_dre(assoc, w, 1.0)
            N = P_samples.shape[0] - 1
            cases = [(assoc.as_ode(), P_samples[j], K_samples[j]) for j in (0, N // 2, N)]
            restr = assoc.restriction
            if restr.l:
                cases.append((restr.sys_g, *solve_are(restr.sys_g, w)[:2]))
            for sys, P, K in cases:
                B, C, D, S = sys.B, sys.C, sys.D, w.S
                want = np.linalg.solve(D.T @ S @ D, B.T @ P + D.T @ S @ C)
                scale = np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(K - want), initial=0.0) <= 1e-12 * scale
                compared += 1
        assert compared == 336


class TestTrajectoryCost:
    def test_zero_trajectory(self):
        w = LqWeights(np.eye(2), np.eye(1), np.eye(2))
        grid = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(grid, np.zeros((11, 2)), np.zeros((11, 1)))
        assert trajectory_cost(w, np.eye(2), traj) == 0.0

    def test_constant_unit_state(self):
        w = LqWeights(np.eye(1), np.eye(1), np.array([[2.0]]))
        grid = np.linspace(0.0, 1.0, 101)
        traj = Trajectory(grid, np.ones((101, 1)), np.zeros((101, 1)))
        assert abs(trajectory_cost(w, np.eye(1), traj) - 1.0) <= 1e-12
        with_terminal = trajectory_cost(w, np.eye(1), traj, terminal=True)
        assert abs(with_terminal - 3.0) <= 1e-12

    @pytest.mark.parametrize(
        "Q, R, Q0, E, message",
        [
            (np.eye(3), np.eye(1), np.eye(2), np.eye(2), "Q must be 2 x 2"),
            (np.eye(2), np.eye(2), np.eye(2), np.eye(2), "R must be 1 x 1"),
            (np.eye(2), np.eye(1), np.eye(2), np.eye(2, 3), "E must have 2 columns"),
            (np.eye(2), np.eye(1), np.eye(3), np.eye(2), "Q0 must be 2 x 2"),
        ],
        ids=["Q", "R", "E", "Q0"],
    )
    def test_weight_that_does_not_fit_is_named(self, Q, R, Q0, E, message):
        traj = Trajectory(np.linspace(0.0, 1.0, 11), np.ones((11, 2)), np.ones((11, 1)))
        with pytest.raises(ValueError, match=f"^{message}"):
            trajectory_cost(LqWeights(Q, R, Q0), E, traj, terminal=True)

    @pytest.mark.parametrize(
        "samples, uniform",
        [(2, True), (3, True), (2001, True), (2002, True), (57, False), (58, False)],
    )
    def test_matches_scipy_simpson_bit_for_bit(self, samples, uniform):
        # SciPy's simpson is the reference rule (x= path, SciPy >= 1.11).
        rng = np.random.default_rng(samples)
        if uniform:
            times = np.linspace(0.0, 1.7, samples)
        else:
            times = np.cumsum(rng.uniform(1e-3, 1.0, samples)) - 0.5
        w = LqWeights(random_spd(3, rng), random_spd(2, rng), random_spd(2, rng))
        E = rng.standard_normal((2, 3))
        x, u = rng.standard_normal((samples, 3)), rng.standard_normal((samples, 2))
        traj = Trajectory(times, x, u)
        integrand = np.sum((traj.x @ w.Q) * traj.x, axis=1) + np.sum(
            (traj.u @ w.R) * traj.u, axis=1
        )
        expected = float(simpson(integrand, x=times))
        assert trajectory_cost(w, E, traj) == expected
        z_end = E @ traj.x[-1]
        expected += float(z_end @ w.Q0 @ z_end)
        assert trajectory_cost(w, E, traj, terminal=True) == expected

    def test_single_sample_rejected(self):
        w = LqWeights(np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            trajectory_cost(
                w,
                np.eye(1),
                Trajectory(np.array([0.0]), np.zeros((1, 1)), np.zeros((1, 1))),
            )



def index_one_instance(rng, cond, planted, refused):
    """An index-one rectangular DAE, its weights, a start z and the data of
    its elimination oracle.

    In hidden coordinates x~ = (x1, x2, x3) of sizes r <= 4, q <= 2 and
    f <= 2, with m <= 2 inputs and f + m >= 1, the rows read
    x1' = A11 x1 + A12 x2 + A13 x3 + B1 u and 0 = A21 x1 + A22 x2 + A23 x3
    + B2 u with A22 invertible.  The DAE is E = S E~ T^-1, A = S A~ T^-1,
    B = S B~, with S and T of condition ``cond``.  The blocks are drawn so
    that eliminating x2 leaves x1' = A_hat x1 + B_hat (x3, u) with k unstable
    modes in the last k coordinates of x1 that (x3, u) cannot reach: k >= 1
    when ``planted``, else 0.  z = E x(0) has x1(0) with a nonzero part
    there exactly when ``refused``.  S is returned last, since a terminal
    weight Q0 on E x reads (S' Q0 S)[:r, :r] on x1.
    """
    r = int(rng.integers(2 if planted else 1, 5))
    q, f = (int(v) for v in rng.integers(0, 3, 2))
    m = int(rng.integers(0 if f else 1, 3))
    k = int(rng.integers(1, r)) if planted else 0
    s = r - k
    A_hat = rng.standard_normal((r, r))
    A_hat[s:, :s] = 0.0
    A_hat[s:, s:] = np.triu(rng.standard_normal((k, k)), 1) + np.diag(rng.uniform(0.5, 2.0, k))
    B_hat = np.vstack([rng.standard_normal((s, f + m)), np.zeros((k, f + m))])
    A12, A21 = rng.standard_normal((r, q)), rng.standard_normal((q, r))
    A22 = conditioned(q, 5.0, rng)
    A23, B2 = rng.standard_normal((q, f)), rng.standard_normal((q, m))
    # A11, A13 and B1 add back what eliminating x2 takes away.
    coupling = A12 @ np.linalg.solve(A22, np.hstack([A21, A23, B2])) if q else 0.0
    top = np.hstack([A_hat, B_hat]) + coupling
    A_t = np.block([[top[:, :r], A12, top[:, r : r + f]], [A21, A22, A23]])
    B_t = np.vstack([top[:, r + f :], B2])
    n, c = r + q + f, r + q
    E_t = np.eye(c, n)
    E_t[r:] = 0.0
    S, T = conditioned(c, cond, rng), conditioned(n, cond, rng)
    T_inv = np.linalg.inv(T)
    dae = DaeLti(S @ E_t @ T_inv, S @ A_t @ T_inv, S @ B_t)
    w = LqWeights(random_spd(n, rng), random_spd(m, rng), np.zeros((c, c)))
    x1 = rng.standard_normal(r)
    if not refused:
        x1[s:] = 0.0
    z = S @ np.concatenate([x1, np.zeros(q)])
    return dae, w, z, (A_t, B_t, T.T @ w.Q @ T, w.R, r, k, x1), S


def eliminated_system(A_t, B_t, Q_t, R, r):
    """(F, G, W) of the problem left by eliminating x2 (Cobb 1983; Bender &
    Laub 1987), in hidden coordinates, where the state weight is Q_t.

    (x1, x2, x3, u) = Pi (x1, x3, u) with x2 = -A22^-1 (A21 x1 + A23 x3 +
    B2 u), so x1' = F x1 + G (x3, u) with [F G] = [A11 A12 A13 B1] Pi, and
    the cost integrand is (x1, x3, u)' W (x1, x3, u) with
    W = Pi' diag(Q_t, R) Pi, cross-weighted.
    """
    c, n = A_t.shape
    rows = np.hstack([A_t, B_t])
    free = np.r_[0:r, c : rows.shape[1]]
    Pi = np.zeros((rows.shape[1], free.size))
    Pi[free, np.arange(free.size)] = 1.0
    Pi[r:c] = -np.linalg.solve(rows[r:, r:c], rows[r:, free])
    dyn = rows[:r] @ Pi
    return dyn[:, :r], dyn[:, r:], Pi.T @ scipy.linalg.block_diag(Q_t, R) @ Pi


def elimination_oracle(A_t, B_t, Q_t, R, r, k, x1):
    """The optimal infinite-horizon cost from x1(0) on the eliminated
    system.  SciPy's CARE with ``s=`` solves it on the first r - k
    coordinates of x1, the reachable ones.  None when x1(0) has a part in
    the last k, which no input brings to rest.
    """
    if np.any(x1[r - k :]):
        return None
    F, G, W = eliminated_system(A_t, B_t, Q_t, R, r)
    s = r - k
    keep = np.r_[0:s, r : W.shape[0]]
    W = W[np.ix_(keep, keep)]
    P = scipy.linalg.solve_continuous_are(F[:s, :s], G[:s], W[:s, :s], W[s:, s:], s=W[:s, s:])
    return float(x1[:s] @ P @ x1[:s])


def finite_elimination_oracle(A_t, B_t, Q_t, R, r, x1, Q0_t, t1):
    """The optimal cost x1(0)' P(t1) x1(0) over [0, t1] on the eliminated
    system, with terminal weight Q0_t on x1(t1).  P(tau), tau the time to
    go, solves dP/dtau = F'P + PF - (PG + N) W_vv^-1 (G'P + N') + W_xx from
    P(0) = Q0_t, with W = [[W_xx, N], [N', W_vv]]; ``solve_ivp`` integrates
    it with DOP853, sharing no code with ``solve_dre``.
    """
    F, G, W = eliminated_system(A_t, B_t, Q_t, R, r)
    W_xx, N, W_vv = W[:r, :r], W[:r, r:], W[r:, r:]

    def rhs(_, p):
        P = p.reshape(r, r)
        PG_N = P @ G + N
        return (F.T @ P + P @ F - PG_N @ np.linalg.solve(W_vv, PG_N.T) + W_xx).ravel()

    run = solve_ivp(rhs, (0.0, t1), Q0_t.ravel(), method="DOP853", rtol=1e-12, atol=1e-13)
    assert run.success, run.message
    return float(x1 @ run.y[:, -1].reshape(r, r) @ x1)


class TestEliminationOracle:
    def test_infinite_horizon_agrees_with_elimination(self):
        # Of every four instances two have no planted mode, one has planted
        # modes and a start off them, one a start with a part on them.  The
        # bounds on the relative cost gap are fixed before the run.  The
        # planted instances run at the cutoff 1e-10: at the default
        # 64 max(rows, cols) eps, associate misjudges 2 of them at
        # condition 30 and 1 at condition 300, whose unreachable unstable
        # modes then read as reachable and stay in the restriction.
        bounds = {1.0: 1e-8, 30.0: 1e-8, 300.0: 1e-7}
        solved = refused = 0
        for cond, bound in bounds.items():
            rng = np.random.default_rng(int(cond))
            for i in range(140):
                planted = i % 4 >= 2
                dae, w, z, data, _ = index_one_instance(rng, cond, planted, i % 4 == 3)
                expected = elimination_oracle(*data)
                assoc = associate(dae, tol=1e-10 if planted else None)
                assert is_behaviorally_stabilizable(dae, assoc, z) == (expected is not None)
                if expected is None:
                    with pytest.raises(NotStabilizable):
                        infinite_horizon(dae, assoc, w, z, steps=10)
                    refused += 1
                    continue
                cost = infinite_horizon(dae, assoc, w, z, steps=10).cost
                assert abs(cost - expected) <= bound * expected, (cond, i, cost, expected)
                solved += 1
        assert solved >= 300 and refused >= 50

    def test_finite_horizon_agrees_with_elimination(self):
        # No planted modes.  Every other instance has an SPD terminal
        # weight Q0 on E x(t1), the rest none.  The bounds on the relative
        # cost gap are fixed before the run.
        bounds = {1.0: 1e-9, 30.0: 1e-9, 300.0: 1e-8}
        for cond, bound in bounds.items():
            rng = np.random.default_rng(1000 + int(cond))
            for i in range(30):
                dae, w, z, data, S = index_one_instance(rng, cond, False, False)
                A_t, B_t, Q_t, R, r, _, x1 = data
                if i % 2 == 0:
                    w = dataclasses.replace(w, Q0=random_spd(dae.c, rng))
                Q0_t = (S.T @ w.Q0 @ S)[:r, :r]
                expected = finite_elimination_oracle(A_t, B_t, Q_t, R, r, x1, Q0_t, 1.0)
                cost = finite_horizon(dae, associate(dae), w, z, 1.0).cost
                assert abs(cost - expected) <= bound * expected, (cond, i, cost, expected)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LqWeights(np.zeros((2, 3)), np.eye(1), np.zeros((2, 2))),
         r"^Q must be square, got \(2, 3\)$"),
        (lambda: LqWeights(np.eye(3), np.zeros((1, 2)), np.zeros((2, 2))),
         r"^R must be square, got \(1, 2\)$"),
        (lambda: LqWeights(np.eye(3), np.eye(1), np.zeros((2, 1))),
         r"^Q0 must be square, got \(2, 1\)$"),
        (lambda: solve_dre(
            associate(example_one()), LqWeights(np.eye(3), np.eye(1), np.eye(2)), 1.0, steps=99
        ), "^steps must be at least 100$"),
    ],
    ids=["Q", "R", "Q0", "dre_steps"],
)
def test_malformed_request_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_spectral_abscissa_of_the_empty_matrix_is_minus_infinity():
    assert spectral_abscissa(np.zeros((0, 0))) == -np.inf

"""Galerkin heat benchmark: model matrices, branch solvers, error curves."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import spherical_jn

from dae2ode import trajectory_cost
from dae2ode.heat import (
    EigenReference,
    HeatConfig,
    LiftedSimulation,
    _basis_values,
    _gram_matrix,
    _sine_overlap,
    _stiffness_matrix,
    build_heat_models,
    dae_lq_pipeline,
    eigenbasis_reference,
    error_curves,
    lift_and_simulate_closed_loop,
    run_heat_benchmark,
)


def sine_moment_oracle(N: int, n_modes: int) -> np.ndarray:
    """<sin(j pi x), phi_i> on [-1, 1] from the spherical Bessel identity

    int_{-1}^{1} P_n(x) sin(a x) dx = 2 (-1)^((n-1)/2) j_n(a) for odd n,
    and zero for even n; phi_i = P_{i+1} - P_{i-1}.
    """
    def mom(n: int, a: float) -> float:
        if n % 2 == 0:
            return 0.0
        return 2.0 * (-1.0) ** ((n - 1) // 2) * spherical_jn(n, a)

    out = np.empty((N, n_modes))
    for i in range(1, N + 1):
        for j in range(1, n_modes + 1):
            out[i - 1, j - 1] = mom(i + 1, j * np.pi) - mom(i - 1, j * np.pi)
    return out


@pytest.fixture(scope="module")
def bench():
    return run_heat_benchmark()


class TestModelMatrices:
    def test_gram_closed_form_spot_values(self):
        assert _gram_matrix(4)[0, 0] == pytest.approx(2.4, abs=1e-14)

    def test_gram_matches_direct_quadrature(self):
        N = 8
        x, w = leggauss(600)
        phi = _basis_values(x, N)
        direct = phi.T @ (w[:, None] * phi)
        assert np.max(np.abs(direct - _gram_matrix(N))) <= 1e-12

    def test_gram_positive_definite(self):
        for N in (1, 2, 5, 20, 40, 80):
            assert np.linalg.eigvalsh(_gram_matrix(N))[0] > 0.0

    def test_stiffness_spot_values(self):
        assert _stiffness_matrix(4, 1.0 / 30.0)[0, 0] == pytest.approx(
            -1.0 / 150.0, abs=1e-16
        )

    def test_stiffness_matches_weak_form_quadrature(self):
        # <c^2 phi_j'', phi_i> after integrating by parts with zero boundary
        # values equals -c^2 int phi_i' phi_j'.
        N, c = 6, 1.0 / 30.0
        x, w = leggauss(200)
        legs = legvander(x, N + 2)
        dlegs = np.zeros_like(legs)
        for k in range(1, N + 3):
            # derivative recurrence: P_k' = P_{k-2}' + (2k - 1) P_{k-1}
            dlegs[:, k] = (dlegs[:, k - 2] if k >= 2 else 0.0) + (
                2 * k - 1
            ) * legs[:, k - 1]
        dphi = dlegs[:, 2 : N + 2] - dlegs[:, 0:N]
        direct = -(c * c) * dphi.T @ (w[:, None] * dphi)
        assert np.max(np.abs(direct - _stiffness_matrix(N, c))) <= 1e-10

    def test_basis_vanishes_at_boundary(self):
        vals = _basis_values(np.array([-1.0, 1.0]), 10)
        assert np.max(np.abs(vals)) <= 1e-12

    def test_sine_moments_match_bessel_oracle(self):
        N = 12
        got = _sine_overlap(N, N, 4 * N)
        want = sine_moment_oracle(N, N)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_accurate_moments_match_bessel_oracle(self):
        models = build_heat_models(HeatConfig())
        want = sine_moment_oracle(40, 40)
        assert np.max(np.abs(models.sine_overlap_accurate - want)) <= 1e-10

    def test_doubling_nodes_converged(self):
        N = 16
        a = _sine_overlap(N, N, 4 * N)
        b = _sine_overlap(N, N, 8 * N)
        assert np.max(np.abs(a - b)) <= 1e-10

    @pytest.mark.parametrize("N", [12, 40, 80])
    def test_moments_agree_with_the_leggauss_rule(self, N):
        # The rule comes from scipy.special.roots_legendre; at the default
        # N + 2 nodes and the converged 4N it gives numpy's leggauss moments.
        for nodes in (N + 2, 4 * N):
            x, w = leggauss(nodes)
            sines = np.sin(np.pi * np.outer(x, np.arange(1, N + 1)))
            want = _basis_values(x, N).T @ (w[:, None] * sines)
            got = _sine_overlap(N, N, nodes)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_default_rule_is_gram_exact_but_moment_coarse(self):
        cfg = HeatConfig()
        assert cfg.nodes == cfg.N + 2
        x, w = leggauss(cfg.nodes)
        phi = _basis_values(x, cfg.N)
        direct = phi.T @ (w[:, None] * phi)
        assert np.max(np.abs(direct - _gram_matrix(cfg.N))) <= 1e-10
        models = build_heat_models(cfg)
        coarse_gap = np.max(np.abs(models.sine_overlap - models.sine_overlap_accurate))
        assert coarse_gap > 0.01

    def test_value_of_initial(self):
        cfg = HeatConfig(N=6, N_u=4, lam=3.0, mode=2, T=1.0)
        models = build_heat_models(cfg)
        want = 3.0 * models.lambda_diag @ models.sine_overlap[:, 1]
        assert np.allclose(models.value_of_initial, want, atol=1e-14)

    def test_descriptor_shapes(self):
        models = build_heat_models(HeatConfig(N=6, N_u=4, mode=3))
        assert models.dae.E.shape == (6, 12)
        assert models.dae.A.shape == (6, 12)
        assert models.dae.B.shape == (6, 4)


class TestConfigValidation:
    def test_rejects_more_inputs_than_states(self):
        with pytest.raises(ValueError):
            HeatConfig(N=4, N_u=5)

    def test_rejects_out_of_range_mode(self):
        with pytest.raises(ValueError):
            HeatConfig(N=4, N_u=2, mode=5)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            HeatConfig(mu=0.0)
        with pytest.raises(ValueError):
            HeatConfig(T=-1.0)

    def test_rejects_degenerate_quadrature(self):
        with pytest.raises(ValueError):
            HeatConfig(quad_order=1)

    @pytest.mark.parametrize("field", ["mu", "c", "lam", "T"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            HeatConfig(**{field: value})

    def test_quadrature_is_capped_at_eight_n(self):
        # 4 N nodes converge the moments; 8 N is the most a config may ask.
        assert HeatConfig(N=6, N_u=4, mode=3, quad_order=48).nodes == 48
        with pytest.raises(ValueError, match="^quad_order must lie in 2..48"):
            HeatConfig(N=6, N_u=4, mode=3, quad_order=49)


class TestEigenReference:
    def test_riccati_matches_care_oracle(self):
        cfg = HeatConfig(N=6, N_u=4, mode=3, T=1.0)
        models = build_heat_models(cfg)
        eigen = eigenbasis_reference(models)
        P_care = scipy.linalg.solve_continuous_are(
            models.eig_A, models.eig_B, np.eye(cfg.N), np.eye(cfg.N_u)
        )
        assert np.max(np.abs(eigen.P - P_care)) <= 1e-8

    def test_single_mode_closed_form(self):
        cfg = HeatConfig(N=1, N_u=1, lam=2.0, mode=1, T=1.0)
        a = -((1.0 / 30.0) ** 2) * np.pi**2
        p = a + np.sqrt(a * a + 1.0)
        eigen = eigenbasis_reference(build_heat_models(cfg))
        assert eigen.cost == pytest.approx(4.0 * p, rel=1e-12)

    def test_zero_amplitude_costs_nothing(self):
        cfg = HeatConfig(N=6, N_u=4, lam=0.0, mode=3, T=1.0)
        bench = run_heat_benchmark(cfg)
        for value in bench.costs.values():
            assert abs(value) <= 1e-12

    def test_gain_acts_on_actuated_modes_only(self):
        cfg = HeatConfig(N=6, N_u=4, mode=3, T=1.0)
        eigen = eigenbasis_reference(build_heat_models(cfg))
        assert eigen.gain.shape == (4, 6)
        assert np.allclose(eigen.gain[:, 4:], 0.0)


class TestLiftedSimulation:
    def test_zero_gain_matches_lyapunov_integral(self):
        cfg = HeatConfig(N=6, N_u=4, lam=2.0, mode=3, T=1.5)
        models = build_heat_models(cfg)
        sim = lift_and_simulate_closed_loop(models, np.zeros((cfg.N_u, cfg.N)))
        a = np.diag(models.eig_A)
        z0 = np.zeros(cfg.N)
        z0[cfg.mode - 1] = cfg.lam
        exact = float(np.sum(z0**2 * (1.0 - np.exp(2 * a * cfg.T)) / (-2.0 * a)))
        assert sim.cost == pytest.approx(exact, rel=1e-7)


class TestDaePipeline:
    def test_cost_matches_long_horizon_quadrature(self):
        cfg = HeatConfig(T=12.0)
        models = build_heat_models(cfg)
        result = dae_lq_pipeline(models)
        quad = trajectory_cost(models.weights, models.dae.E, result.traj)
        assert abs(result.cost - quad) <= 1e-5 * result.cost

    def test_input_is_feedback_on_value(self):
        cfg = HeatConfig(N=8, N_u=6, mode=3, T=2.0)
        models = build_heat_models(cfg)
        result = dae_lq_pipeline(models)
        values = result.traj.x @ models.dae.E.T
        defect = result.traj.u - values @ result.K_z.T
        assert np.max(np.abs(defect)) <= 1e-8


class TestBenchmark:
    def test_reference_cost_pin(self, bench):
        assert bench.costs["J_e"] == pytest.approx(3.94, rel=0.01)

    def test_cost_ordering(self, bench):
        costs = bench.costs
        assert costs["J_dae"] < costs["J_e"] < costs["J_T"] < costs["J_g"]

    def test_replay_error_decays(self, bench):
        e_sim = bench.curves[:, 2]
        assert e_sim[-1] < np.max(e_sim) / 3.0
        assert e_sim[-1] < 1e-3

    def test_descriptor_solution_error_vanishes_at_horizon(self, bench):
        e_sol = bench.curves[:, 1]
        assert e_sol[-1] < 1e-6 * (1.0 + np.max(e_sol))

    def test_replay_of_reference_trajectory_has_zero_error(self, bench):
        fake = LiftedSimulation(0.0, bench.lifted.gain, bench.eigen.traj)
        curves = error_curves(
            bench.models, bench.eigen, bench.dae_result, fake, bench.naive, bench.naive_lifted
        )
        assert np.max(np.abs(curves[:, 2])) == 0.0

    def test_grid_mismatch_rejected(self, bench):
        t = bench.eigen.traj.times[:-1]
        short = EigenReference(
            bench.eigen.cost,
            bench.eigen.gain,
            bench.eigen.P,
            dataclasses.replace(
                bench.eigen.traj,
                times=t,
                x=bench.eigen.traj.x[:-1],
                u=bench.eigen.traj.u[:-1],
            ),
        )
        with pytest.raises(ValueError):
            error_curves(
                bench.models, short, bench.dae_result, bench.lifted, bench.naive,
                bench.naive_lifted,
            )


@pytest.fixture(scope="module")
def bench_160():
    return run_heat_benchmark(HeatConfig(N=160))


class TestLargeGalerkinDimension:
    def test_pipeline_runs_beyond_the_default_size(self, bench_160):
        costs = bench_160.costs
        assert all(np.isfinite(value) for value in costs.values())
        assert costs["J_T"] == pytest.approx(costs["J_e"], rel=0.01)

    def test_cost_table_at_n_160(self, bench_160):
        # Both ARE solves here run on 320 x 320 Hamiltonians.
        costs = bench_160.costs
        assert [f"{costs[key]:.4f}" for key in ("J_e", "J_T", "J_T_g")] == [
            "3.9380",
            "3.9407",
            "3.9380",
        ]


class TestFunctionSpaceNorm:
    def test_mixed_basis_norm_matches_quadrature(self):
        N = 8
        rng = np.random.default_rng(40)
        a = rng.standard_normal(N)
        z = rng.standard_normal(N)
        gram = _gram_matrix(N)
        overlap = _sine_overlap(N, N, 4 * N)
        formula = a @ gram @ a - 2.0 * a @ overlap @ z + z @ z
        x, w = leggauss(400)
        phi = _basis_values(x, N)
        sines = np.sin(np.pi * np.outer(x, np.arange(1, N + 1)))
        values = phi @ a - sines @ z
        direct = float(w @ values**2)
        assert formula == pytest.approx(direct, abs=1e-8)

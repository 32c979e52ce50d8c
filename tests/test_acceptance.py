"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line under ``pytest -v``.  Criterion 1 checks
the published cost table of the heat benchmark; four of its five values
reproduce, the naive-baseline cost J_g does not (see README, section
"Known benchmark deviation") and the test reports that honestly instead of
relaxing the tolerance.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from dae2ode import (
    DaeLti,
    LqWeights,
    NotStabilizable,
    associate,
    feedback_equivalence,
    finite_horizon,
    image,
    impulse_controllable,
    infinite_horizon,
    is_behaviorally_stabilizable,
    run_heat_benchmark,
    solve_are,
    solve_dre,
    spectral_abscissa,
    trajectory_cost,
    verify_associated,
    wong_limit,
)
from dae2ode.dae import pencil_stabilizability_test

from conftest import example_one, random_autonomous_unstable, random_dae
from test_associate import printed_example_system


@pytest.fixture(scope="module")
def timed_benchmark():
    start = time.perf_counter()
    bench = run_heat_benchmark()
    wall = time.perf_counter() - start
    return bench, wall


def test_criterion_1_heat_benchmark_cost_table(timed_benchmark):
    bench, wall = timed_benchmark
    assert wall < 60.0, f"benchmark took {wall:.1f} s, budget is 60 s"

    targets = {
        "J_e": (3.94, 0.01),
        "J_dae": (3.89, 0.02),
        "J_T": (3.96, 0.02),
        "J_g": (6.13, 0.02),
        "J_T_g": (5.55, 0.02),
    }
    rows = []
    failed = []
    for name, (target, tol) in targets.items():
        got = bench.costs[name]
        dev = abs(got - target) / target
        ok = dev <= tol
        rows.append(
            f"  {name:<6} computed {got:8.4f}  target {target:5.2f}"
            f"  tolerance {tol:4.0%}  deviation {dev:7.2%}  "
            + ("PASS" if ok else "FAIL")
        )
        if not ok:
            failed.append(name)
    table = "\n".join(rows)
    if failed:
        pytest.fail(
            "cost table not fully reproduced (wall time "
            f"{wall:.1f} s):\n{table}\n"
            f"  {len(targets) - len(failed)} of {len(targets)} values match; "
            f"{', '.join(failed)} does not reproduce under any model variant "
            "consistent with the other values. See README section 'Known "
            "benchmark deviation' for the configurations ruled out.",
            pytrace=False,
        )


def test_criterion_2_replay_error_magnitude(timed_benchmark):
    bench, _ = timed_benchmark
    reference = 0.0015
    got = bench.max_replay_error
    assert reference / 2.0 <= got <= reference * 2.0, (
        f"max replay error {got:.6f} not within a factor 2 of {reference}"
    )


def test_criterion_3_random_dae_invariants():
    rng = np.random.default_rng(20260814)
    for idx in range(100):
        dae = random_dae(rng)
        assoc = associate(dae)

        report = verify_associated(dae, assoc)
        assert report.ok, f"instance {idx}: {report.failures}"
        assert report.max_lift_residual <= 1e-5

        wong = wong_limit(dae)
        stacked = image(np.hstack([assoc.C_s, assoc.D_s]))
        assert wong.equals(stacked), f"instance {idx}: Wong limit mismatch"

        other = associate(dae, basis_seed=idx + 1)
        T, K, U = feedback_equivalence(assoc, other, dae)
        T_inv = np.linalg.inv(T) if assoc.n_hat else T.T
        scale = 1.0 + max(
            np.linalg.norm(M) for M in (assoc.A_l, assoc.C_l, other.A_l, other.C_l)
        )
        residuals = (
            np.linalg.norm(T @ (assoc.A_l + assoc.B_l @ K) @ T_inv - other.A_l),
            np.linalg.norm(T @ assoc.B_l @ U - other.B_l),
            np.linalg.norm((assoc.C_l + assoc.D_l @ K) @ T_inv - other.C_l),
            np.linalg.norm(assoc.D_l @ U - other.D_l),
        )
        assert max(residuals) <= 1e-8 * scale, f"instance {idx}: {residuals}"


def test_criterion_4_lq_consistency_suite():
    # scalar Riccati flow against the closed form tanh(tau)
    integrator = DaeLti(np.eye(1), np.zeros((1, 1)), np.eye(1))
    assoc_s = associate(integrator)
    w_s = LqWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))
    P_samples, _, _ = solve_dre(assoc_s, w_s, 2.0)
    tau = np.linspace(0.0, 2.0, P_samples.shape[0])
    assert np.max(np.abs(P_samples[:, 0, 0] - np.tanh(tau))) <= 1e-8

    # finite-horizon cost formula against trajectory quadrature
    ex1 = example_one()
    assoc1 = associate(ex1)
    w1 = LqWeights(np.eye(3), np.eye(1), np.eye(2))
    fin = finite_horizon(ex1, assoc1, w1, np.array([1.0, 1.0]), 1.0)
    quad = trajectory_cost(w1, ex1.E, fin.traj, terminal=True)
    assert abs(fin.cost - quad) <= 1e-5 * (1.0 + abs(fin.cost))

    # the optimal input is state feedback, finite and infinite horizon
    fin_defect = max(
        np.linalg.norm(fin.traj.u[i] - fin.K_f_samples[i] @ fin.traj.x[i])
        for i in range(fin.grid.shape[0])
    )
    assert fin_defect <= 1e-8
    inf = infinite_horizon(ex1, assoc1, w1, np.array([1.0, 2.0]))
    inf_defect = np.max(np.abs(inf.traj.u - inf.traj.x @ inf.K_f.T))
    assert inf_defect <= 1e-8

    # stationary Riccati solutions on a random stabilizable population
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
        A, B, C, D = restr.A_g, restr.B_g, restr.C_g, restr.D_g
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


def test_criterion_5_solvability_equivalence():
    rng = np.random.default_rng(424242)
    w_cache = {}
    n_solved = n_refused = 0
    for idx in range(90):
        if idx % 3 == 2:
            dae = random_autonomous_unstable(rng)
        else:
            dae = random_dae(rng)
        assoc = associate(dae)
        z = assoc.EC_s @ rng.standard_normal(assoc.n_hat)
        key = (dae.n, dae.m, dae.c)
        if key not in w_cache:
            w_cache[key] = LqWeights(
                np.eye(dae.n), np.eye(dae.m), np.zeros((dae.c, dae.c))
            )
        predicted = is_behaviorally_stabilizable(dae, assoc, z)
        try:
            sol = infinite_horizon(dae, assoc, w_cache[key], z)
            solved = True
            assert np.isfinite(sol.cost)
        except NotStabilizable:
            solved = False
        assert solved == predicted, f"instance {idx}: solver and test disagree"
        n_solved += solved
        n_refused += not solved
    assert n_solved > 0 and n_refused > 0, "population must exercise both outcomes"

    # the worked example solves with the stated weights
    ex1 = example_one()
    assoc1 = associate(ex1)
    w1 = LqWeights(np.eye(3), np.eye(1), np.eye(2))
    sol = infinite_horizon(ex1, assoc1, w1, np.array([1.0, 7.0]))
    assert sol.cost > 0.0
    assert sol.closed_loop_abscissa < 0.0


def test_criterion_6_worked_example_reproduction():
    ex1 = example_one()
    assoc = associate(ex1)
    T, K, U = feedback_equivalence(assoc, printed_example_system(), ex1)
    assert np.allclose(T, np.eye(2), atol=1e-8)
    assert np.allclose(K, 0.0, atol=1e-8)
    assert np.allclose(U, np.eye(2), atol=1e-8)
    assert impulse_controllable(ex1)
    assert pencil_stabilizability_test(ex1, assoc)

"""Descriptor-system structure: Wong limit, consistency, impulse controllability."""

import dataclasses

import numpy as np
import pytest

from dae2ode import (
    DaeLti,
    LqWeights,
    Trajectory,
    associate,
    behavior_residual,
    finite_horizon,
    image,
    impulse_controllable,
    lift_solution,
    verify_associated,
    wong_limit,
)
from dae2ode.dae import pencil_stabilizability_test
from dae2ode.subspaces import _rank_from_singular_values

from conftest import conditioned, random_dae


def pencil_rank_probe(dae: DaeLti, lam: complex) -> int:
    """rank [lambda E - A, B] at a single complex lambda, by the package's
    rank rule on a complex SVD."""
    M = np.hstack([lam * dae.E - dae.A, dae.B.astype(complex)])
    return _rank_from_singular_values(M, np.linalg.svd(M, compute_uv=False), None)


def _orthogonal(k, rng):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def integrator_chain(n, change, rng) -> DaeLti:
    """E = S N T, A = S T, B = S e_1 with N the n x n upper shift and S, T
    drawn by ``change``: u is free, T x = (-u, 0, ..., 0), so n_hat = 0,
    k = 1 and the Wong limit is T^{-1} span(e_1)."""
    S, T = change(n, rng), change(n, rng)
    return DaeLti(S @ np.eye(n, k=1) @ T, S @ T, S[:, :1])


class TestWongLimit:
    def test_regular_system_gives_full_space(self):
        dae = DaeLti(np.eye(3), np.diag([1.0, 2.0, 3.0]), np.ones((3, 1)))
        assert wong_limit(dae).dim == 3

    def test_worked_example_gives_full_space(self, ex1):
        assert wong_limit(ex1).dim == 3

    def test_constrained_autonomous_system(self):
        dae = DaeLti(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2), np.zeros((2, 1)))
        V = wong_limit(dae)
        assert V.dim == 1
        assert V.contains_vector(np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "change",
        [_orthogonal, lambda k, rng: conditioned(k, 100.0, rng)],
        ids=["orthogonal", "condition_100"],
    )
    def test_integrator_chains_are_verified(self, change):
        # Ten chains at each n, seed 2, at the default cutoff.  The iterates
        # must stay nested: an iterate recomputed on the whole space picks
        # up the rounding of E V_i off ker E and stops above dimension 1.
        rng = np.random.default_rng(2)
        for n in (3, 5, 8, 12, 20, 40):
            for idx in range(10):
                dae = integrator_chain(n, change, rng)
                assoc = associate(dae)
                assert wong_limit(dae).dim == 1, f"n = {n}, chain {idx}"
                assert (assoc.n_hat, assoc.k) == (0, 1), f"n = {n}, chain {idx}"
                assert verify_associated(dae, assoc).ok, f"n = {n}, chain {idx}"

    def test_wrong_realizations_of_chains_are_rejected(self):
        # At a cutoff of 1e-15 associate gets (n_hat, k) wrong on some
        # chains: n_hat = n - 1, with one singular value of C_s near 1e14
        # and the others near 1.  Judged at the default cutoff and checked
        # on an orthonormal basis of im C_s, the containment im(E C_s) in
        # E V is not hidden by the large column.
        wrong = 0
        for change in (_orthogonal, lambda k, rng: conditioned(k, 100.0, rng)):
            rng = np.random.default_rng(2)
            for n in (3, 5, 8, 12, 20, 40):
                for idx in range(10):
                    dae = integrator_chain(n, change, rng)
                    assoc = associate(dae, tol=1e-15)
                    if (assoc.n_hat, assoc.k) == (0, 1):
                        continue
                    wrong += 1
                    report = verify_associated(dae, dataclasses.replace(assoc, tol=None))
                    assert not report.ok, f"n = {n}, chain {idx}"
        assert wrong > 0, "the chains must include wrong realizations"

    @pytest.mark.parametrize("family", ["free_and_zero", "static_kernel"])
    def test_limit_inside_ker_A_is_kept(self, family):
        # The limit lies in ker A, so A W on the last iterate is rounding
        # noise of A.  Judged against its own size that noise has full
        # rank and the limit would shrink to {0}; judged against ||A|| the
        # limit keeps dimension 1.  "free_and_zero" is x1' = u, 0 = x2 and
        # "static_kernel" is 0 = A x with A of rank n - 1 and no input,
        # each under random orthogonal S and T.
        rng = np.random.default_rng(7)
        for idx in range(20):
            if family == "free_and_zero":
                S, T = _orthogonal(2, rng), _orthogonal(2, rng)
                E, A, B = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2, 1)
            else:
                S, T = _orthogonal(3, rng), _orthogonal(3, rng)
                E, A, B = np.zeros((3, 3)), np.diag([1.0, 2.0, 0.0]), np.zeros((3, 1))
            dae = DaeLti(S @ E @ T, S @ A @ T, S @ B)
            V = wong_limit(dae)
            assert V.dim == 1, f"{family} {idx}"
            assert V.contains_vector(T.T[:, -1] if family == "static_kernel" else T.T[:, 0])
            assert verify_associated(dae, associate(dae)).ok, f"{family} {idx}"


class TestConsistencySpace:
    def test_regular_system(self):
        dae = DaeLti(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
        assert associate(dae).consistency_set.dim == 2

    def test_zero_e(self):
        dae = DaeLti(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert associate(dae).consistency_set.dim == 0

    def test_worked_example_dimension_two(self, ex1, ex1_assoc):
        assert ex1_assoc.consistency_set.dim == 2


class TestIsConsistent:
    def test_zero_value_always_consistent(self, ex1, ex1_assoc):
        assert ex1_assoc.consistency_set.contains_vector(np.zeros(2))

    def test_zero_e_rejects_nonzero(self):
        dae = DaeLti(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert not associate(dae).consistency_set.contains_vector(np.array([1.0, 0.0]))

    def test_worked_example_value(self, ex1, ex1_assoc):
        assert ex1_assoc.consistency_set.contains_vector(np.array([1.0, 7.0]))


class TestImpulseControllable:
    def test_identity_e(self):
        assert impulse_controllable(DaeLti(np.eye(2), np.eye(2), np.zeros((2, 1))))

    def test_pinned_negative_case(self):
        dae = DaeLti(
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.zeros((2, 1)),
        )
        assert not impulse_controllable(dae)

    def test_worked_example(self, ex1):
        assert impulse_controllable(ex1)

    def test_equivalent_to_all_values_consistent(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            dae = random_dae(rng)
            assoc = associate(dae)
            lhs = impulse_controllable(dae)
            rhs = assoc.consistency_set.equals(image(dae.E))
            assert lhs == rhs


class TestPencilStabilizability:
    def test_stable_autonomous(self):
        dae = DaeLti(np.eye(2), -np.eye(2), np.zeros((2, 1)))
        assert pencil_stabilizability_test(dae, associate(dae))

    def test_unstable_autonomous_scalar(self):
        dae = DaeLti(np.eye(1), np.eye(1), np.zeros((1, 1)))
        assert not pencil_stabilizability_test(dae, associate(dae))

    def test_worked_example(self, ex1, ex1_assoc):
        assert pencil_stabilizability_test(ex1, ex1_assoc)

    def test_cross_checked_by_pencil_rank_probe(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            dae = random_dae(rng)
            assoc = associate(dae)
            stab = pencil_stabilizability_test(dae, assoc)
            # normal rank from random points in the open left half plane
            nrank = max(
                pencil_rank_probe(dae, complex(-rng.uniform(1, 5), rng.uniform(-5, 5)))
                for _ in range(4)
            )
            eigs = np.linalg.eigvals(assoc.A_l) if assoc.n_hat else np.array([])
            bad = [lam for lam in eigs if lam.real >= -1e-9]
            probe = all(pencil_rank_probe(dae, lam) == nrank for lam in bad)
            if stab:
                assert probe
                checked += 1
        assert checked > 0


class TestBehaviorResidual:
    def test_zero_trajectory(self):
        dae = DaeLti(np.eye(2), np.eye(2), np.eye(2))
        grid = np.linspace(0.0, 1.0, 11)
        traj = Trajectory(grid, np.zeros((11, 2)), np.zeros((11, 2)))
        assert behavior_residual(dae, traj) == 0.0

    def test_lifted_trajectory_is_small(self):
        dae = DaeLti(np.eye(3), np.diag([-1.0, -2.0, -3.0]), np.ones((3, 1)))
        assoc = associate(dae)
        grid = np.linspace(0.0, 1.0, 1001)
        traj = lift_solution(assoc, np.array([1.0, 0.5, -0.5]), None, grid)
        assert behavior_residual(dae, traj) <= 1e-5

    def test_perturbed_sample_detected(self):
        dae = DaeLti(np.eye(3), np.diag([-1.0, -2.0, -3.0]), np.ones((3, 1)))
        assoc = associate(dae)
        grid = np.linspace(0.0, 1.0, 501)
        traj = lift_solution(assoc, np.array([1.0, 0.0, 0.0]), None, grid)
        x = traj.x.copy()
        x[250] += 1.0
        assert behavior_residual(dae, Trajectory(grid, x, traj.u)) >= 0.1

    def test_grid_too_short_rejected(self):
        dae = DaeLti(np.eye(1), np.eye(1), np.eye(1))
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            behavior_residual(dae, traj)


class TestPopulationInvariants:
    def test_wong_limit_matches_associated_image(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            dae = random_dae(rng)
            assoc = associate(dae)
            W = wong_limit(dae)
            CsDs = image(np.hstack([assoc.C_s, assoc.D_s]))
            assert W.dim == CsDs.dim
            assert W.equals(CsDs)

    def test_consistent_values_admit_solutions(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 20:
            dae = random_dae(rng)
            assoc = associate(dae)
            V = assoc.consistency_set
            if V.dim == 0:
                continue
            z = V.basis @ rng.standard_normal(V.dim)
            w = LqWeights(np.eye(dae.n), np.eye(dae.m), np.zeros((dae.c, dae.c)))
            sol = finite_horizon(dae, assoc, w, z, 0.5, steps=2500)
            assert behavior_residual(dae, sol.traj) <= 1e-5
            assert np.linalg.norm(dae.E @ sol.traj.x[0] - z) <= 1e-8
            done += 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DaeLti(np.eye(2), np.eye(3), np.zeros((2, 1))),
         r"^E and A must share shape, got \(2, 2\) vs \(3, 3\)$"),
        (lambda: DaeLti(np.eye(2), np.eye(2), np.zeros((3, 1))), "^B must have 2 rows, got 3$"),
        (lambda: Trajectory([0.0, 1.0, 1.0], np.zeros((3, 1)), np.zeros((3, 1))),
         "^time grid must be strictly increasing$"),
        (lambda: Trajectory([1.0, 0.0], np.zeros((2, 1)), np.zeros((2, 1))),
         "^time grid must be strictly increasing$"),
        (lambda: Trajectory([0.0, 1.0], np.zeros((3, 1)), np.zeros((2, 1))),
         "^sample counts must match the grid length$"),
        (lambda: Trajectory([0.0, 1.0], np.zeros((2, 1)), np.zeros((1, 1))),
         "^sample counts must match the grid length$"),
    ],
    ids=["E_A_shape", "B_rows", "repeated_time", "decreasing_time", "x_count", "u_count"],
)
def test_malformed_model_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()

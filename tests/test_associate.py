"""Construction and verification of associated state-space realizations."""

import dataclasses
import importlib

import numpy as np
import pytest

from dae2ode import (
    AssociatedOdeLti,
    DaeLti,
    NotEquivalent,
    ResidualTooLarge,
    associate,
    feedback_equivalence,
    lift_solution,
    project_solution,
    simulate,
    verify_associated,
    weakly_unobservable,
)
from dae2ode.subspaces import EQUALITY_TOL, default_rank_tol, rank

from conftest import conditioned, example_one, power_of_two_scaling, random_dae


def tall_autonomous() -> DaeLti:
    """x' = -0.5 x + 0.3 u, 0 = 0.4 x + u: the input is fixed by the state,
    so the behavior has no free input."""
    return DaeLti([[1.0], [0.0]], [[-0.5], [0.4]], [[0.3], [1.0]])


def printed_example_system() -> AssociatedOdeLti:
    """The realization listed for the worked two-by-three example."""
    return AssociatedOdeLti(
        np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.vstack([np.eye(2), np.zeros((2, 2))]),
        np.vstack([np.zeros((2, 2)), np.eye(2)]),
        example_one().E,
    )


class TestWorkedExample:
    def test_quadruple_matches_printed_form(self, ex1_assoc):
        ref = printed_example_system()
        assert np.array_equal(ex1_assoc.A_l, ref.A_l)
        assert np.array_equal(ex1_assoc.B_l, ref.B_l)
        assert np.array_equal(ex1_assoc.C_l, ref.C_l)
        assert np.array_equal(ex1_assoc.D_l, ref.D_l)
        assert np.array_equal(ex1_assoc.M, ref.M)

    def test_equivalence_to_printed_form_is_identity(self, ex1, ex1_assoc):
        T, K, U = feedback_equivalence(ex1_assoc, printed_example_system(), ex1)
        assert np.allclose(T, np.eye(2), atol=1e-12)
        assert np.allclose(K, 0.0, atol=1e-12)
        assert np.allclose(U, np.eye(2), atol=1e-12)

    def test_dimensions(self, ex1_assoc):
        assert ex1_assoc.n_hat == 2
        assert ex1_assoc.k == 2
        assert ex1_assoc.C_s.shape == (3, 2)
        assert ex1_assoc.D_u.shape == (1, 2)

    def test_lift_reproduces_exponential_solution(self, ex1, ex1_assoc):
        times = np.linspace(0.0, 1.0, 1001)
        traj = lift_solution(ex1_assoc, np.array([1.0, 0.0]), None, times)
        assert np.allclose(traj.x[:, 0], np.exp(times), atol=1e-8)
        assert np.allclose(traj.x[:, 1:], 0.0, atol=1e-12)


class TestFields:
    def test_realization_stores_only_what_it_cannot_derive(self, ex1_assoc):
        fields = [f.name for f in dataclasses.fields(ex1_assoc)]
        assert fields == ["A_l", "B_l", "C_l", "D_l", "E", "tol"]
        for name in ("M", "EC_s", "n", "m"):
            with pytest.raises(TypeError):
                dataclasses.replace(ex1_assoc, **{name: getattr(ex1_assoc, name)})


class TestSpecialShapes:
    def test_identity_e_recovers_state_dynamics(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        dae = DaeLti(np.eye(3), A, B)
        assoc = associate(dae)
        assert assoc.n_hat == 3
        assert np.allclose(assoc.M, np.eye(3), atol=1e-12)
        assert np.allclose(assoc.C_s, np.eye(3), atol=1e-12)
        assert np.allclose(assoc.A_l, A, atol=1e-10)

    def test_zero_e_gives_pure_feedthrough(self):
        dae = DaeLti(np.zeros((1, 2)), np.array([[1.0, 1.0]]), np.array([[1.0]]))
        assoc = associate(dae)
        assert assoc.n_hat == 0
        assert assoc.k == 2
        # every output sample must satisfy the algebraic constraint Ax + Bu = 0
        resid = dae.A @ assoc.D_s + dae.B @ assoc.D_u
        assert np.linalg.norm(resid) <= 1e-12
        assert np.allclose(assoc.D_l.T @ assoc.D_l, np.eye(2), atol=1e-12)

    def test_no_free_input_gives_empty_input(self):
        dae = tall_autonomous()
        assoc = associate(dae)
        assert assoc.k == 0
        assert assoc.B_l.shape == (1, 0)
        assert assoc.D_l.shape == (2, 0)
        assert verify_associated(dae, assoc).ok

    def test_friend_follows_the_rank_cutoff(self):
        # The row 1e-10 u = 0 pins u at the default cutoff; at 1e-8 the input
        # block counts it as rank deficient, so F and L leave u free as well.
        dae = DaeLti(np.diag([1.0, 0.0, 0.0]), np.diag([-1.0, 1.0, 0.0]), [[0.0], [0.0], [1e-10]])
        assert associate(dae).k == 1
        assoc = associate(dae, tol=1e-8)
        assert assoc.k == 2
        assert verify_associated(dae, assoc).ok

    def test_state_dimension_bounded_by_rank(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            dae = random_dae(rng)
            assoc = associate(dae)
            assert assoc.n_hat <= rank(dae.E)

    def test_realizations_are_weakly_observable(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dae = random_dae(rng)
            assoc = associate(dae)
            assert weakly_unobservable(assoc.as_ode())[0].dim == 0


class TestOneStaircasePass:
    def test_associate_takes_v_f_and_l_from_one_pass(self, ex1, monkeypatch):
        # One call of weakly_unobservable, which builds one ||[B; D]|| and one
        # ||[A; C]|| rule; a second friend solve would add a third rule.
        odesys = importlib.import_module("dae2ode.odesys")
        module = importlib.import_module("dae2ode.associate")
        original_rule = odesys._projection_rule
        original_pass = module.weakly_unobservable
        rules, passes = [], []

        def counted_rule(*args):
            rules.append(args)
            return original_rule(*args)

        def counted_pass(*args, **kwargs):
            passes.append(args)
            return original_pass(*args, **kwargs)

        monkeypatch.setattr(odesys, "_projection_rule", counted_rule)
        monkeypatch.setattr(module, "weakly_unobservable", counted_pass)
        rng = np.random.default_rng(24)
        for dae in [ex1, tall_autonomous()] + [random_dae(rng) for _ in range(20)]:
            rules.clear()
            passes.clear()
            associate(dae)
            assert len(passes) == 1
            assert len(rules) == 2


class TestVerifyAssociated:
    def test_population_passes(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            dae = random_dae(rng)
            assoc = associate(dae)
            report = verify_associated(dae, assoc)
            assert report.ok, report.failures
            assert report.max_lift_residual <= 1e-5

    def test_forward_identities_hold_on_criterion_3_stream(self):
        rng = np.random.default_rng(20260814)
        for idx in range(100):
            dae = random_dae(rng)
            report = verify_associated(dae, associate(dae))
            assert report.identity_residual <= 1e-12, f"instance {idx}"

    @pytest.mark.parametrize(
        "name, index", [("A_l", (0, 1)), ("B_l", (1, 0)), ("C_l", (3, 0))]
    )
    def test_tainted_dynamics_break_forward_identities(self, ex1, ex1_assoc, name, index):
        # C_l row 3 is C_u: the input output map.
        M = getattr(ex1_assoc, name).copy()
        M[index] += 0.5
        tainted = dataclasses.replace(ex1_assoc, **{name: M})
        report = verify_associated(ex1, tainted)
        assert report.identity_residual > 1e-8
        assert not report.realization_ok
        assert not report.ok

    def test_partial_realization_fails_the_converse(self, ex1):
        # Realizes only the solutions with x2 = 0: x = (v, 0, 0), u = g - v
        # with v' = g.  Every output solves the DAE, but not every solution
        # is an output, which no simulated round trip can reveal.
        C_l = np.array([[1.0], [0.0], [0.0], [-1.0]])
        partial = AssociatedOdeLti(
            np.zeros((1, 1)),
            np.ones((1, 1)),
            C_l,
            np.array([[0.0], [0.0], [0.0], [1.0]]),
            ex1.E,
        )
        report = verify_associated(ex1, partial)
        assert report.identity_residual <= 1e-15
        assert report.max_lift_residual <= 1e-5
        assert not report.consistency_ok
        assert not report.realization_ok
        assert not report.ok

    def test_tainted_feedthrough_detected(self, ex1, ex1_assoc):
        D_bad = ex1_assoc.D_l.copy()
        D_bad[0, 0] += 0.5
        tainted = dataclasses.replace(ex1_assoc, D_l=D_bad)
        report = verify_associated(ex1, tainted)
        assert not report.ed_s_zero
        assert not report.ok

    def test_tainted_state_map_detected(self, ex1, ex1_assoc):
        # M = pinv(E C_s) with the realization's own E, so a realization
        # built for E doubled, or for E perturbed by 1e-6 relative, carries
        # the state map of another system.
        E = ex1_assoc.E
        bump = np.random.default_rng(1).standard_normal(E.shape)
        for E_bad in (2.0 * E, E + 1e-6 * np.linalg.norm(E) / np.linalg.norm(bump) * bump):
            report = verify_associated(ex1, dataclasses.replace(ex1_assoc, E=E_bad))
            assert not report.state_map_ok
            assert not report.ok

    @pytest.mark.parametrize(
        "change",
        [power_of_two_scaling, lambda k, rng: conditioned(k, 1e6, rng)],
        ids=["power_of_two_diagonal", "dense_condition_1e6"],
    )
    def test_state_map_bound_follows_the_condition_of_ec_s(self, change):
        # x = T x~ with the equations premultiplied by S, both drawn by
        # ``change``, seed 5: E C_s reaches condition 1e14, and pinv's
        # rounding leaves ||M E C_s - I|| far above the absolute bound
        # EQUALITY_TOL n_hat on a correct realization, though within
        # n_hat rho cond(E C_s), rho = max(rows, cols) eps the default rank
        # cutoff of E C_s.  The round trip may still fail some of them, so
        # only the state map is asserted.
        rng = np.random.default_rng(5)
        above_absolute = 0
        for idx in range(200):
            dae = random_dae(rng)
            S, T = change(dae.c, rng), change(dae.n, rng)
            moved = DaeLti(S @ dae.E @ T, S @ dae.A @ T, S @ dae.B)
            try:
                assoc = associate(moved)
            except ResidualTooLarge:
                continue
            report = verify_associated(moved, assoc)
            if assoc.n_hat != associate(dae).n_hat or not report.consistency_ok:
                continue
            assert report.state_map_ok, f"instance {idx}"
            if not assoc.n_hat:
                continue
            sigma = np.linalg.svd(assoc.EC_s, compute_uv=False)
            rounding = default_rank_tol(assoc.EC_s) * sigma[0] / sigma[-1]
            defect = np.linalg.norm(assoc.M @ assoc.EC_s - np.eye(assoc.n_hat))
            assert defect <= assoc.n_hat * max(EQUALITY_TOL, rounding), f"instance {idx}"
            above_absolute += defect > EQUALITY_TOL * assoc.n_hat
        assert above_absolute >= 5

    def test_realization_of_a_scaled_dae_is_rejected(self, ex1):
        # (2E, 2A, 2B) has the same behavior, so the quadruple passes every
        # check but the state map: M = pinv(2 E C_s) reads z = Ex as z / 2.
        scaled = associate(DaeLti(2.0 * ex1.E, 2.0 * ex1.A, 2.0 * ex1.B))
        report = verify_associated(ex1, scaled)
        assert not report.state_map_ok
        assert report.failures == ["state map M is built for a different E"]

    def test_rank_deficient_state_output_detected(self, ex1, ex1_assoc):
        C_bad = ex1_assoc.C_l.copy()
        C_bad[: ex1_assoc.n, 1] = 0.0
        tainted = dataclasses.replace(ex1_assoc, C_l=C_bad)
        report = verify_associated(ex1, tainted)
        assert not report.ec_s_full_rank
        assert not report.ok

    def test_oversized_state_space_detected(self, ex1):
        fake = AssociatedOdeLti(
            np.eye(3),
            np.zeros((3, 1)),
            np.vstack([np.eye(3), np.zeros((1, 3))]),
            np.zeros((4, 1)),
            ex1.E,
        )
        report = verify_associated(ex1, fake)
        assert not report.state_dim_bound_ok
        assert not report.ok


class TestProjectLift:
    def test_round_trip_recovers_internal_signals(self, ex1, ex1_assoc):
        rng = np.random.default_rng(25)
        times = np.linspace(0.0, 0.5, 501)
        v0 = rng.standard_normal(2)
        g = 0.3 * rng.standard_normal((times.size, 2))
        g = np.cumsum(g, axis=0) * 0.01  # smooth-ish signal
        traj = lift_solution(ex1_assoc, v0, g, times)
        states, _ = simulate(ex1_assoc.as_ode(), v0, g, times)
        v_rec, g_rec = project_solution(ex1_assoc, traj)
        assert np.linalg.norm(v_rec - states) <= 1e-8 * (1 + np.linalg.norm(states))
        assert np.linalg.norm(g_rec - g) <= 1e-8 * (1 + np.linalg.norm(g))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["v0", "g"])
    def test_lift_rejects_non_finite_start_or_input(self, ex1, ex1_assoc, bad, where):
        times = np.linspace(0.0, 0.5, 51)
        v0, g = np.array([1.0, 0.0]), np.zeros((times.size, 2))
        if where == "v0":
            v0[1] = bad
        else:
            g[10, 1] = bad
        with pytest.raises(ValueError, match="initial state and inputs must be finite"):
            lift_solution(ex1_assoc, v0, g, times)

    def test_round_trip_on_random_population(self):
        rng = np.random.default_rng(26)
        done = 0
        while done < 20:
            dae = random_dae(rng)
            assoc = associate(dae)
            times = np.linspace(0.0, 0.25, 251)
            v0 = rng.standard_normal(assoc.n_hat)
            g = rng.standard_normal((times.size, assoc.k)) * 0.1
            traj = lift_solution(assoc, v0, g, times)
            states, _ = simulate(assoc.as_ode(), v0, g, times)
            v_rec, g_rec = project_solution(assoc, traj)
            assert np.linalg.norm(v_rec - states) <= 1e-8 * (
                1 + np.linalg.norm(states)
            )
            assert np.linalg.norm(g_rec - g) <= 1e-8 * (1 + np.linalg.norm(g))
            done += 1


class TestFeedbackEquivalence:
    def test_system_equivalent_to_itself(self, ex1, ex1_assoc):
        T, K, U = feedback_equivalence(ex1_assoc, ex1_assoc, ex1)
        assert np.allclose(T, np.eye(2), atol=1e-10)
        assert np.allclose(K, 0.0, atol=1e-10)
        assert np.allclose(U, np.eye(2), atol=1e-10)

    def test_recovers_forward_transformation(self, ex1, ex1_assoc):
        s1 = ex1_assoc
        T = np.array([[2.0, 1.0], [0.0, 1.0]])
        K = np.array([[0.3, -0.2], [0.1, 0.4]])
        U = np.array([[1.0, 0.5], [0.2, 1.0]])
        T_inv = np.linalg.inv(T)
        A2 = T @ (s1.A_l + s1.B_l @ K) @ T_inv
        B2 = T @ s1.B_l @ U
        C2 = (s1.C_l + s1.D_l @ K) @ T_inv
        D2 = s1.D_l @ U
        s2 = AssociatedOdeLti(A2, B2, C2, D2, ex1.E)
        T_hat, K_hat, U_hat = feedback_equivalence(s1, s2, ex1)
        assert np.allclose(T_hat, T, atol=1e-8)
        assert np.allclose(K_hat, K, atol=1e-8)
        assert np.allclose(U_hat, U, atol=1e-8)

    def test_randomized_bases_are_equivalent(self, ex1):
        for seed in (1, 2, 3):
            s1 = associate(ex1, basis_seed=seed)
            s2 = associate(ex1, basis_seed=seed + 100)
            T, K, U = feedback_equivalence(s1, s2, ex1)
            scale = 1.0 + np.linalg.norm(s1.A_l)
            resid = T @ (s1.A_l + s1.B_l @ K) @ np.linalg.inv(T) - s2.A_l
            assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_no_free_input_gives_empty_input_change(self):
        dae = tall_autonomous()
        _, _, U = feedback_equivalence(associate(dae), associate(dae, basis_seed=3), dae)
        assert U.shape == (0, 0)

    def test_dimension_mismatch_rejected(self, ex1, ex1_assoc):
        other = associate(DaeLti(np.eye(3), np.eye(3), np.ones((3, 1))))
        with pytest.raises(NotEquivalent):
            feedback_equivalence(ex1_assoc, other, ex1)

    def test_singular_state_change_rejected(self, ex1, ex1_assoc):
        # A zero second column of C_s leaves E C_s2 = diag(1, 0), so
        # T = M2 E C_s1 = diag(1, 0).
        C_bad = ex1_assoc.C_l.copy()
        C_bad[: ex1_assoc.n, 1] = 0.0
        s2 = dataclasses.replace(ex1_assoc, C_l=C_bad)
        with pytest.raises(NotEquivalent, match="state change T is numerically singular"):
            feedback_equivalence(ex1_assoc, s2, ex1)

    @pytest.mark.parametrize("name", ["A_l", "B_l"])
    def test_failed_identity_rejected(self, ex1, ex1_assoc, name):
        # T, K and U come from C_l and D_l alone, which agree: T = I, K = 0
        # and U = I, so the perturbed A_l or B_l fails its identity.
        M = getattr(ex1_assoc, name).copy()
        M[0, 1] += 0.5
        s2 = dataclasses.replace(ex1_assoc, **{name: M})
        with pytest.raises(NotEquivalent, match=f"identity for {name[0]} fails"):
            feedback_equivalence(ex1_assoc, s2, ex1)

    def test_singular_input_change_rejected(self, ex1, ex1_assoc):
        D_bad = ex1_assoc.D_l @ np.array([[1.0, 1.0], [1.0, 1.0]])
        s2 = dataclasses.replace(ex1_assoc, D_l=D_bad)
        with pytest.raises(NotEquivalent):
            feedback_equivalence(ex1_assoc, s2, ex1)


class TestStabilizableRestriction:
    def test_worked_example_keeps_both_states(self, ex1_assoc):
        restriction = ex1_assoc.restriction
        assert restriction.l == 2

    def test_unstable_uncontrollable_mode_dropped(self):
        dae = DaeLti(np.eye(1), np.eye(1), np.zeros((1, 1)))
        restriction = associate(dae).restriction
        assert restriction.l == 0
        assert restriction.sys_g.A.shape == (0, 0)

    def test_stable_autonomous_modes_kept(self):
        dae = DaeLti(np.eye(2), -np.eye(2), np.zeros((2, 1)))
        restriction = associate(dae).restriction
        assert restriction.l == 2

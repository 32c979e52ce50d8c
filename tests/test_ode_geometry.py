"""State-space simulation and output-nulling subspace geometry."""

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from dae2ode import (
    NotInvariant,
    OdeLti,
    Subspace,
    restrict_to_invariant,
    simulate,
    stabilizability_subspace,
    weakly_unobservable,
)
from dae2ode.heat import HeatConfig, build_heat_models
from dae2ode.subspaces import EQUALITY_TOL


def _random_system(rng, r=None, s=None, p=None):
    r = r if r is not None else int(rng.integers(2, 6))
    s = s if s is not None else int(rng.integers(1, 4))
    p = p if p is not None else int(rng.integers(1, 4))
    A = rng.standard_normal((r, r))
    B = rng.standard_normal((r, s))
    C = rng.standard_normal((p, r))
    D = rng.standard_normal((p, s))
    # degenerate structure shows up often in descriptor-derived systems
    roll = rng.uniform()
    if roll < 0.2:
        C = np.zeros_like(C)
    elif roll < 0.4:
        D = np.zeros_like(D)
    elif roll < 0.5:
        B = np.zeros_like(B)
    return OdeLti(A, B, C, D)


def _brute_weakly_unobservable(sys: OdeLti, tol: float = 1e-9) -> np.ndarray:
    """Reference recursion computed directly from SVD kernels."""
    r, s = sys.n_states, sys.n_inputs
    Vb = np.eye(r)
    for _ in range(r + 1):
        d = Vb.shape[1]
        if d == 0:
            return np.zeros((r, 0))
        P_perp = np.eye(r) - Vb @ Vb.T
        stacked = np.block([[P_perp @ sys.A @ Vb, P_perp @ sys.B], [sys.C @ Vb, sys.D]])
        sv = np.linalg.svd(stacked, compute_uv=False)
        scale = max(float(sv[0]) if sv.size else 0.0, 1.0)
        nkeep = int((sv > tol * scale).sum())
        _, _, vt = np.linalg.svd(stacked)
        null = vt[nkeep:].T
        W = null[:d]
        if W.shape[1] == 0:
            return np.zeros((r, 0))
        uw, sw, _ = np.linalg.svd(W, full_matrices=False)
        wscale = max(float(sw[0]) if sw.size else 0.0, 1.0)
        kw = int((sw > tol * wscale).sum())
        new_Vb = Vb @ uw[:, :kw]
        if kw == d:
            return new_Vb
        Vb = new_Vb
    return Vb


class TestSimulate:
    def test_zero_dynamics_hold_state(self):
        sys = OdeLti(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        times = np.linspace(0.0, 1.0, 11)
        states, outputs = simulate(sys, np.array([3.0, -4.0]), None, times)
        assert np.allclose(states, np.tile([3.0, -4.0], (11, 1)))
        assert np.allclose(outputs, states)

    def test_scalar_decay_matches_exponential(self):
        sys = OdeLti(np.array([[-1.0]]), np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)))
        times = np.linspace(0.0, 1.0, 1001)
        states, _ = simulate(sys, np.array([1.0]), None, times)
        assert abs(states[-1, 0] - np.exp(-1.0)) <= 1e-10

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
        sys = OdeLti(A, np.zeros((4, 1)), np.eye(4), np.zeros((4, 1)))
        v0 = rng.standard_normal(4)
        times = np.linspace(0.0, 1.0, 1001)
        states, _ = simulate(sys, v0, None, times)
        for k in (100, 500, 1000):
            exact = scipy.linalg.expm(A * times[k]) @ v0
            assert np.linalg.norm(states[k] - exact) <= 1e-8

    def test_exact_on_coarse_grids(self):
        # Every sample, not just the last, matches expm on 20 and 40 steps.
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        sys = OdeLti(A, np.zeros((3, 1)), np.eye(3), np.zeros((3, 1)))
        v0 = rng.standard_normal(3)
        for steps in (20, 40):
            t = np.linspace(0.0, 1.0, steps + 1)
            states, _ = simulate(sys, v0, None, t)
            exact = np.array([scipy.linalg.expm(A * tk) @ v0 for tk in t])
            assert np.max(np.abs(states - exact)) <= 1e-12

    def test_forced_decay_with_linear_input_is_exact(self):
        # v' = -v + t from v(0) = 0 is t - 1 + e^{-t}; first-order hold is
        # exact for a linear input, however coarse the grid.
        sys = OdeLti(-np.eye(1), np.eye(1), np.eye(1), np.zeros((1, 1)))
        for steps in (20, 40):
            t = np.linspace(0.0, 2.0, steps + 1)
            states, _ = simulate(sys, np.array([0.0]), t.reshape(-1, 1), t)
            assert np.max(np.abs(states[:, 0] - (t - 1.0 + np.exp(-t)))) <= 1e-12

    def test_forced_outputs_match_lsim_first_order_hold(self):
        # scipy.signal.lsim with interp=True steps the same first-order hold
        # one sample at a time, a reference for the doubling scan.
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4)) - np.eye(4)
        B = rng.standard_normal((4, 2))
        C = rng.standard_normal((3, 4))
        D = rng.standard_normal((3, 2))
        t = np.linspace(0.0, 3.0, 301)
        q = np.column_stack([np.sin(4.0 * t), t**2 * np.exp(-t)])
        v0 = rng.standard_normal(4)
        states, outputs = simulate(OdeLti(A, B, C, D), v0, q, t)
        _, y_ref, x_ref = scipy.signal.lsim((A, B, C, D), q, t, X0=v0, interp=True)
        assert np.max(np.abs(states - x_ref)) <= 1e-12
        assert np.max(np.abs(outputs - y_ref)) <= 1e-12

    def test_nonuniform_grid_rejected(self):
        sys = OdeLti(np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            simulate(sys, np.array([0.0]), None, np.array([0.0, 0.1, 0.3]))

    def test_grid_without_samples_rejected(self):
        # One sample is the shortest grid: it holds v0 alone.
        sys = OdeLti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="at least one time sample"):
            simulate(sys, np.array([1.0]), None, times=[])
        states, outputs = simulate(sys, np.array([1.0]), None, times=[0.0])
        assert states.tolist() == [[1.0]] and outputs.tolist() == [[1.0]]

    @pytest.mark.parametrize("end", [np.inf, np.nan])
    def test_non_finite_grid_rejected(self, end):
        sys = OdeLti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="finite time grid"):
            simulate(sys, np.array([1.0]), None, [0.0, end])

    def test_forced_scalar_integral(self):
        # v' = q with q(t) = t integrates to t^2 / 2 (linear input is exact)
        sys = OdeLti(np.zeros((1, 1)), np.eye(1), np.eye(1), np.zeros((1, 1)))
        times = np.linspace(0.0, 2.0, 201)
        states, _ = simulate(sys, np.array([0.0]), times.reshape(-1, 1), times)
        assert np.allclose(states[:, 0], 0.5 * times**2, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["v0", "inputs"])
    def test_non_finite_start_or_input_rejected(self, bad, where):
        sys = OdeLti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        times = np.linspace(0.0, 1.0, 11)
        v0, q = np.array([1.0]), np.ones((11, 1))
        if where == "v0":
            v0[0] = bad
        else:
            q[5, 0] = bad
        with pytest.raises(ValueError, match="initial state and inputs must be finite"):
            simulate(sys, v0, q, times)

    @pytest.mark.parametrize("shape", [(2, 11), (11, 3), (11,)], ids=["s-by-T", "wrong-s", "flat"])
    def test_inputs_must_be_time_by_input(self, shape):
        # One row per time sample: the (s, T) layout is refused, not transposed.
        sys = OdeLti(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match=r"inputs must have shape \(11, 2\)"):
            simulate(sys, np.ones(2), np.ones(shape), times)


class TestWeaklyUnobservable:
    def test_observable_pair_gives_zero_space(self):
        sys = OdeLti(np.eye(3), np.ones((3, 1)), np.eye(3), np.zeros((3, 1)))
        assert weakly_unobservable(sys)[0].dim == 0

    def test_zero_output_map_gives_full_space(self):
        sys = OdeLti(np.eye(3), np.ones((3, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
        assert weakly_unobservable(sys)[0].dim == 3

    def test_invertible_feedthrough_gives_full_space(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        C = rng.standard_normal((2, 4))
        D = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        assert weakly_unobservable(OdeLti(A, B, C, D))[0].dim == 4

    def test_no_inputs_gives_unobservable_subspace(self):
        # s = 0: V is the unobservable subspace, here the last 3 coordinates.
        rng = np.random.default_rng(14)
        A = rng.standard_normal((5, 5))
        A[:2, 2:] = 0.0
        C = np.hstack([rng.standard_normal((2, 2)), np.zeros((2, 3))])
        sys = OdeLti(A, np.zeros((5, 0)), C, np.zeros((2, 0)))
        V, F, L = weakly_unobservable(sys)
        ref = _brute_weakly_unobservable(sys)
        assert V.dim == ref.shape[1] == 3
        assert V.equals(Subspace(ref))
        assert V.equals(Subspace(np.eye(5)[:, 2:]))
        assert F.shape == (0, 5) and L.shape == (0, 0)

    def test_zero_output_map_matches_reference(self):
        rng = np.random.default_rng(15)
        for D in (rng.standard_normal((2, 3)), np.zeros((2, 3))):
            A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 3))
            sys = OdeLti(A, B, np.zeros((2, 4)), D)
            V = weakly_unobservable(sys)[0]
            ref = _brute_weakly_unobservable(sys)
            assert V.dim == ref.shape[1] == 4
            assert V.equals(Subspace(ref))

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sys = _random_system(rng)
            V = weakly_unobservable(sys)[0]
            ref = _brute_weakly_unobservable(sys)
            assert V.dim == ref.shape[1]
            assert V.equals(Subspace(ref))


class TestOutputNullingFriend:
    # The friend properties of the F and L that weakly_unobservable returns
    # with V, the ones associate builds its realization from.

    def test_zero_output_map_gives_zero_friend(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        sys = OdeLti(A, B, np.zeros((1, 3)), np.zeros((1, 2)))
        _, F, L = weakly_unobservable(sys)
        assert np.allclose(F, 0.0)
        # kernel of the zero feedthrough is everything, so L spans the inputs
        assert L.shape == (2, 2)
        assert np.allclose(L @ L.T, np.eye(2), atol=1e-10)

    def test_full_space_with_zero_feedthrough_gives_exact_zero_friend(self):
        # V = R^r with B != 0 and D = 0: the input block [W_perp^T B; D] is
        # rounding residue next to ||[B; D]||, so its rank is 0 and the
        # friend is exactly zero, not amplified noise.
        rng = np.random.default_rng(16)
        A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
        sys = OdeLti(A, B, np.zeros((3, 4)), np.zeros((3, 2)))
        V, F, L = weakly_unobservable(sys)
        assert V.dim == _brute_weakly_unobservable(sys).shape[1] == 4
        assert np.all(F == 0.0)
        assert L.shape == (2, 2)

    def test_zero_subspace_friend_is_kernel_of_b(self):
        A = np.eye(3)
        B = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        sys = OdeLti(A, B, np.eye(3), np.zeros((3, 2)))
        V, F, L = weakly_unobservable(sys)
        assert V.dim == 0
        assert np.allclose(F, 0.0)
        assert L.shape == (2, 1)
        assert np.allclose(np.abs(L[:, 0]), np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.allclose(B @ L, 0.0, atol=1e-12)

    def test_friend_properties_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sys = _random_system(rng)
            V, F, L = weakly_unobservable(sys)
            scale = 1.0 + np.linalg.norm(sys.A) + np.linalg.norm(sys.B)
            if V.dim:
                P_perp = np.eye(sys.n_states) - V.basis @ V.basis.T
                closed = (sys.A + sys.B @ F) @ V.basis
                assert np.linalg.norm(P_perp @ closed) <= 1e-8 * scale
                out = (sys.C + sys.D @ F) @ V.basis
                assert np.linalg.norm(out) <= 1e-8 * scale
            assert np.linalg.norm(sys.D @ L) <= 1e-8 * scale
            if V.dim:
                assert np.linalg.norm(P_perp @ sys.B @ L) <= 1e-8 * scale
            else:
                assert np.linalg.norm(sys.B @ L) <= 1e-8 * scale

    def test_closed_loop_output_stays_zero(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 10:
            sys = _random_system(rng)
            V, F, _ = weakly_unobservable(sys)
            if V.dim == 0:
                continue
            closed = OdeLti(
                sys.A + sys.B @ F,
                np.zeros((sys.n_states, 1)),
                sys.C + sys.D @ F,
                np.zeros((sys.n_outputs, 1)),
            )
            v0 = V.basis @ rng.standard_normal(V.dim)
            times = np.linspace(0.0, 1.0, 1001)
            _, outputs = simulate(closed, v0, None, times)
            assert np.max(np.abs(outputs)) <= 1e-6 * (1.0 + np.linalg.norm(v0))
            checked += 1


def _output_nulling_friend(sys: OdeLti, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference minimum-norm friend F and kernel matrix L of the
    output-nulling subspace with orthonormal basis W, written without the
    package: the SVD of M = [P B; D] with P = I - W W^T, rank counted above
    64 max(rows, cols) eps ||[B; D]||_2, F = -pinv(M) [P A W; C W] W^T and
    L the right null space of M."""
    BD = np.vstack([sys.B, sys.D])
    P = np.eye(sys.n_states) - W @ W.T
    M = np.vstack([P @ sys.B, sys.D])
    R = np.vstack([P @ sys.A @ W, sys.C @ W])
    U, s, Vh = np.linalg.svd(M)
    scale = np.linalg.norm(BD, 2) if BD.size else 0.0
    rho = int(np.count_nonzero(s > 64 * max(BD.shape) * np.finfo(float).eps * scale))
    F_V = -Vh[:rho].T @ np.diag(1.0 / s[:rho]) @ U[:, :rho].T @ R
    return F_V @ W.T, Vh[rho:].T


class TestStaircaseFriend:
    def test_f_and_l_match_output_nulling_friend(self):
        # F is the minimum-norm friend, unique for a given basis; L is unique
        # up to an orthogonal change of the free input, so L L^T is compared.
        rng = np.random.default_rng(7)
        for _ in range(100):
            sys = _random_system(rng)
            V, F, L = weakly_unobservable(sys)
            F_ref, L_ref = _output_nulling_friend(sys, V.basis)
            assert np.max(np.abs(F - F_ref), initial=0.0) <= EQUALITY_TOL
            assert L.shape == L_ref.shape
            assert np.max(np.abs(L @ L.T - L_ref @ L_ref.T), initial=0.0) <= EQUALITY_TOL


class TestStabilizabilitySubspace:
    def test_stable_autonomous_is_full(self):
        V = stabilizability_subspace(-np.eye(2), np.zeros((2, 1)))
        assert V.dim == 2

    def test_unstable_autonomous_is_zero(self):
        V = stabilizability_subspace(np.array([[1.0]]), np.zeros((1, 1)))
        assert V.dim == 0

    def test_controllable_pair_is_full(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        V = stabilizability_subspace(A, np.eye(4))
        assert V.dim == 4

    def test_invariance_and_input_containment(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            r = int(rng.integers(1, 6))
            s = int(rng.integers(1, 3))
            A = rng.standard_normal((r, r))
            B = rng.standard_normal((r, s)) if rng.uniform() > 0.3 else np.zeros((r, s))
            V = stabilizability_subspace(A, B)
            P_perp = np.eye(r) - (
                V.basis @ V.basis.T if V.dim else np.zeros((r, r))
            )
            if V.dim:
                assert np.linalg.norm(P_perp @ A @ V.basis) <= 1e-8 * (
                    1.0 + np.linalg.norm(A)
                )
            assert np.linalg.norm(P_perp @ B) <= 1e-8 * (1.0 + np.linalg.norm(B))

    def test_badly_scaled_chain_is_reachable(self):
        # [B, AB, ..., A^39 B] would hold entries up to 1e390 and overflow.
        V = stabilizability_subspace(1e10 * np.eye(40, k=-1), np.eye(40, 1))
        assert V.dim == 40

    def test_reachable_pair_takes_no_schur_form(self, monkeypatch):
        def no_schur(*args, **kwargs):
            raise AssertionError("a reachable pair needs no modal split")

        monkeypatch.setattr(scipy.linalg, "schur", no_schur)
        rng = np.random.default_rng(19)
        for r, s in ((4, 4), (6, 1), (5, 2)):
            A = rng.standard_normal((r, r)) + 2.0 * np.eye(r)
            V = stabilizability_subspace(A, rng.standard_normal((r, s)))
            assert np.array_equal(V.basis, np.eye(r))

    def test_unreachable_pair_keeps_its_stable_modes(self, monkeypatch):
        # The naive heat pair at N = 40 reaches 20 of its 40 modes, all of
        # them stable, so the modal split runs and keeps the other 20.
        cfg = HeatConfig(N=40)
        models = build_heat_models(cfg)
        A = np.linalg.solve(models.gram, models.stiffness)
        B = np.linalg.solve(models.gram, models.sine_overlap[:, : cfg.N_u])
        schur = scipy.linalg.schur
        schur_calls = []

        def counted(*args, **kwargs):
            schur_calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counted)
        V = stabilizability_subspace(A, B)
        assert V.dim == 40
        assert len(schur_calls) == 1

    def test_mixed_spectrum_splits(self):
        A = np.diag([-1.0, 2.0])
        V = stabilizability_subspace(A, np.zeros((2, 1)))
        assert V.dim == 1
        assert V.contains_vector(np.array([1.0, 0.0]))


class TestRestrictToInvariant:
    def test_full_space_preserves_spectrum(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        sys = OdeLti(A, B, np.eye(4), np.zeros((4, 2)))
        sub = restrict_to_invariant(sys, Subspace(np.eye(4)))
        got = np.sort_complex(np.linalg.eigvals(sub.A))
        want = np.sort_complex(np.linalg.eigvals(A))
        assert np.allclose(got, want, atol=1e-8)

    def test_zero_space_gives_empty_system(self):
        sys = OdeLti(np.eye(2), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        sub = restrict_to_invariant(sys, Subspace(np.zeros((2, 0))))
        assert sub.A.shape == (0, 0)
        assert sub.B.shape == (0, 1)
        assert sub.C.shape == (2, 0)

    def test_block_triangular_structure(self):
        rng = np.random.default_rng(13)
        k, r = 2, 5
        A = rng.standard_normal((r, r))
        A[k:, :k] = 0.0
        B = np.vstack([rng.standard_normal((k, 1)), np.zeros((r - k, 1))])
        C = rng.standard_normal((2, r))
        sys = OdeLti(A, B, C, np.zeros((2, 1)))
        sub = restrict_to_invariant(sys, Subspace(np.eye(r)[:, :k]))
        assert np.allclose(sub.A, A[:k, :k], atol=1e-12)
        assert np.allclose(sub.B, B[:k], atol=1e-12)
        assert np.allclose(sub.C, C[:, :k], atol=1e-12)

    def test_non_invariant_subspace_rejected(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        sys = OdeLti(A, np.zeros((2, 1)), np.eye(2), np.zeros((2, 1)))
        with pytest.raises(NotInvariant):
            restrict_to_invariant(sys, Subspace(np.eye(2)[:, :1]))

"""Construction of an ODE-LTI whose outputs realize a DAE-LTI's behavior.

Given a rectangular DAE-LTI d(Ex)/dt = A x + B u, this module builds a
state-space system (A_l, B_l, C_l, D_l) whose output trajectories are
exactly the (x, u) solution pairs of the DAE, together with the state map
M = pinv(E C_s) sending the consistent value Ex to the internal state.

The construction:

1. An SVD E = U S V^T with numerical rank r yields invertible S, T with
   S E T = [[I_r, 0], [0, 0]].
2. Partitioning S A T and S B accordingly gives an auxiliary system
   p' = At p + G q, 0 = Ct p + Dt q with q collecting the free variables
   (last n - r state coordinates and the input).
3. The weakly unobservable subspace V of (At, G, Ct, Dt), a friend F and a
   kernel matrix L, all from one staircase run, parameterize all solutions
   of the auxiliary constraint, which assembles the output maps and,
   restricted to an orthonormal basis of V, the final quadruple.

Also here: verification of the defining invariants, projection/lifting of
solutions between the two representations, constructive recovery of the
feedback equivalence between any two such systems, and the restriction to
the stabilizability subspace used by the infinite-horizon solver, formed
directly on the basis that the controllability staircase returns, which is
invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dae import DaeLti, Trajectory, behavior_residual, wong_limit
from .errors import NotEquivalent
from .odesys import OdeLti, simulate, stabilizability_subspace, weakly_unobservable
from .subspaces import (
    CONDITION_BOUND,
    EQUALITY_TOL,
    ROUND_TRIP_TOL,
    Subspace,
    _norm,
    _norm2,
    _qr,
    _rank_from_singular_values,
    _svd,
    image,
    pinv,
    rank,
)

__all__ = [
    "AssociatedOdeLti",
    "AssociationReport",
    "StabilizableRestriction",
    "associate",
    "verify_associated",
    "project_solution",
    "lift_solution",
    "feedback_equivalence",
]


@dataclass(frozen=True)
class AssociatedOdeLti:
    """State-space realization (A_l, B_l, C_l, D_l) of a DAE-LTI behavior.

    The n + m outputs split into the state part (first n rows, maps C_s /
    D_s) and the input part (last m rows, C_u / D_u), n the column count of
    the DAE's ``E``, which the realization records.  The input g has k
    components; with no free input k = 0, and B_l and D_l have no columns.
    ``tol`` is the relative singular-value cutoff the realization was built
    with (None for the default rule), read by every later rank decision.

    Computed on first use and kept: ``EC_s`` = E @ C_s (full column rank by
    construction), the state map ``M`` = pinv(EC_s) sending z = Ex to the
    internal state, ``consistency_set`` = image(EC_s) and ``restriction``,
    to the stabilizability subspace of (A_l, B_l).  So no field is modified
    in place; ``dataclasses.replace`` gives a fresh realization.
    """

    A_l: np.ndarray
    B_l: np.ndarray
    C_l: np.ndarray
    D_l: np.ndarray
    E: np.ndarray
    tol: float | None = None

    @property
    def n(self) -> int:
        return self.E.shape[1]

    @property
    def m(self) -> int:
        return self.C_l.shape[0] - self.n

    @property
    def n_hat(self) -> int:
        return self.A_l.shape[0]

    @property
    def k(self) -> int:
        return self.B_l.shape[1]

    @property
    def C_s(self) -> np.ndarray:
        return self.C_l[: self.n]

    @property
    def D_s(self) -> np.ndarray:
        return self.D_l[: self.n]

    @property
    def C_u(self) -> np.ndarray:
        return self.C_l[self.n :]

    @property
    def D_u(self) -> np.ndarray:
        return self.D_l[self.n :]

    def as_ode(self) -> OdeLti:
        return OdeLti(self.A_l, self.B_l, self.C_l, self.D_l)

    @cached_property
    def EC_s(self) -> np.ndarray:
        return self.E @ self.C_s

    @cached_property
    def M(self) -> np.ndarray:
        return pinv(self.EC_s, self.tol)

    @cached_property
    def consistency_set(self) -> Subspace:
        """image(EC_s) at ``tol``: the values z = Ex(0) of solutions."""
        return image(self.EC_s, self.tol)

    @cached_property
    def restriction(self) -> StabilizableRestriction:
        """The restriction to the stabilizability subspace of (A_l, B_l),
        decided at ``tol``: (W^T A_l W, W^T B_l, C_l W, D_l) on its
        orthonormal basis W, which is invariant by construction."""
        V_g = stabilizability_subspace(self.A_l, self.B_l, self.tol)
        W = V_g.basis
        sys_g = OdeLti(W.T @ self.A_l @ W, W.T @ self.B_l, self.C_l @ W, self.D_l)
        return StabilizableRestriction(sys_g, W.T @ self.M, V_g)


@dataclass(frozen=True)
class StabilizableRestriction:
    """Restriction of an associated system to its stabilizability subspace.

    ``subspace`` is that subspace, with orthonormal basis W; W^T maps the
    original state to the restricted one, and M_g = W^T M.
    """

    sys_g: OdeLti
    M_g: np.ndarray
    subspace: Subspace

    @property
    def l(self) -> int:
        return self.sys_g.n_states


def associate(
    dae: DaeLti, tol: float | None = None, basis_seed: int | None = None
) -> AssociatedOdeLti:
    """Build an associated ODE-LTI for the DAE-LTI (E, A, B).

    ``tol`` is the relative singular-value cutoff of every rank decision,
    here and later on the returned realization, which records it.
    ``basis_seed`` optionally re-orthonormalizes the internal subspace basis
    with a random rotation; different seeds give different but feedback
    equivalent realizations (useful for equivalence testing).
    """
    E, A, B = dae.E, dae.A, dae.B
    c, n = dae.c, dae.n

    U, sigma, Vh = _svd(E)
    r = _rank_from_singular_values(E, sigma, tol)
    T = Vh.T
    inv_sigma = np.concatenate([1.0 / sigma[:r], np.ones(c - r)])
    S = np.diag(inv_sigma) @ U.T

    SAT = S @ A @ T
    SB = S @ B
    At = SAT[:r, :r]
    A12 = SAT[:r, r:]
    A21 = SAT[r:, :r]
    A22 = SAT[r:, r:]
    B1 = SB[:r]
    B2 = SB[r:]
    G = np.concatenate([A12, B1], axis=1)
    Ct = A21
    Dt = np.concatenate([A22, B2], axis=1)
    aux = OdeLti(At, G, Ct, Dt)

    V, F, L = weakly_unobservable(aux, tol)

    # Split the free-coordinate maps into the state tail (n - r rows) and
    # the input part (m rows), then assemble the output maps.
    F1, F2 = F[: n - r], F[n - r :]
    L1, L2 = L[: n - r], L[n - r :]
    C_bar = np.concatenate([T @ np.concatenate([np.eye(r), F1]), F2])
    D_bar = np.concatenate([T @ np.concatenate([np.zeros((r, L.shape[1])), L1]), L2])

    P = V.basis
    if basis_seed is not None and V.dim:
        rng = np.random.default_rng(basis_seed)
        P = P @ _qr(rng.standard_normal((V.dim, V.dim)))

    A_l = P.T @ (At + G @ F) @ P
    B_l = P.T @ (G @ L)
    return AssociatedOdeLti(A_l, B_l, C_bar @ P, D_bar, E, tol)


@dataclass
class AssociationReport:
    """Per-invariant verification outcome for an associated system."""

    input_maps_ok: bool
    ed_s_zero: bool
    ec_s_full_rank: bool
    state_map_ok: bool
    state_dim_bound_ok: bool
    identity_residual: float
    consistency_ok: bool
    max_lift_residual: float
    realization_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_associated(dae: DaeLti, sys: AssociatedOdeLti) -> AssociationReport:
    """Check the defining invariants and decide realization exactly.

    The rank, identity and consistency checks read one product E C_s,
    formed with the DAE's E, and factor it once: one reduced SVD gives its
    rank and the orthonormal basis of its image, and one SVD of E gives
    rank E and ||E||_2.  Given E D_s = 0, every output of ``sys``
    solves the DAE if and only if E C_s A_l = A C_s + B C_u and
    E C_s B_l = A D_s + B D_u; the larger residual, relative to (1 + the
    largest norm of E, A, B, A_l, B_l, C_l, D_l)^2, must not exceed
    ``EQUALITY_TOL``.  Every solution is an output if and only if im(E C_s)
    equals E times the Wong limit, the consistency set computed
    independently of ``sys``.  Ranks and the Wong limit are decided at
    ``sys.tol``.  M = pinv(E C_s) is built on ``sys.E``, so it is the state
    map exactly when ``sys.E`` equals the DAE's E.  One simulated round
    trip from a random (v0, g) drawn from seed 0 checks ``lift_solution`` as
    well: the lifted trajectory must satisfy the DAE within a
    central-difference residual of ``ROUND_TRIP_TOL``.  A realization with
    other signal dimensions n, m than the DAE's raises ValueError.
    """
    if (sys.n, sys.m) != (dae.n, dae.m):
        raise ValueError(f"realization has n={sys.n}, m={sys.m}, the DAE n={dae.n}, m={dae.m}")
    failures: list[str] = []
    E, A, B = dae.E, dae.A, dae.B
    tol = sys.tol
    EC_s = E @ sys.C_s
    norm_E = _norm(E)

    input_maps_ok = rank(sys.D_l, tol) == sys.k
    if not input_maps_ok:
        failures.append("input maps: D_l not full column rank")

    scale = 1.0 + norm_E * (1.0 + _norm(sys.D_l))
    ed_s_zero = _norm(E @ sys.D_s) <= EQUALITY_TOL * scale
    if not ed_s_zero:
        failures.append("E D_s is not zero")

    U_ec, sigma_ec, _ = _svd(EC_s, full_matrices=False)
    rank_ec = _rank_from_singular_values(EC_s, sigma_ec, tol)
    ec_s_full_rank = rank_ec == sys.n_hat
    if not ec_s_full_rank:
        failures.append("E C_s does not have full column rank n_hat")

    state_map_ok = np.array_equal(sys.E, E)
    if not state_map_ok:
        failures.append("state map M is built for a different E")

    sigma_E = _svd(E, compute_uv=False)
    state_dim_bound_ok = sys.n_hat <= _rank_from_singular_values(E, sigma_E, tol)
    if not state_dim_bound_ok:
        failures.append("state dimension exceeds rank E")

    largest_norm = max(norm_E, *map(_norm, (A, B, sys.A_l, sys.B_l, sys.C_l, sys.D_l)))
    identity_residual = max(
        _norm(EC_s @ sys.A_l - A @ sys.C_s - B @ sys.C_u),
        _norm(EC_s @ sys.B_l - A @ sys.D_s - B @ sys.D_u),
    ) / (1.0 + largest_norm) ** 2
    identity_ok = identity_residual <= EQUALITY_TOL
    if not identity_ok:
        failures.append(
            f"forward identities residual {identity_residual:.3e} > {EQUALITY_TOL:.0e}: "
            "some outputs do not solve the DAE"
        )

    # im(E C_s) = E V, tested as two containments by residuals against
    # ||E||, so that E V gets no rank decision of its own: along ker E its
    # singular values are rounding residue of size eps ||E||, which can pass
    # a threshold taken relative to its own largest singular value when E is
    # badly scaled.  On an orthonormal basis of im C_s, one large column of
    # C_s cannot hide the others.
    V = wong_limit(dae, tol).basis
    EV = E @ V
    Q_c = _qr(sys.C_s)
    Q = U_ec[:, :rank_ec]
    consistency_ok = (
        _norm(E @ Q_c - EV @ (V.T @ Q_c)) <= EQUALITY_TOL * norm_E
        and _norm(EV - Q @ (Q.T @ EV)) <= EQUALITY_TOL * norm_E
    )
    if not consistency_ok:
        failures.append(
            "im(E C_s) differs from E times the Wong limit: "
            "some solutions are not outputs"
        )

    rng = np.random.default_rng(0)
    # The residual check differentiates Ex numerically, so its truncation
    # error grows with the cube of the system norms and with e^(|A_l| t).
    # Scale the test-signal amplitude and the effective horizon accordingly
    # to keep the h^2 truncation term below ROUND_TRIP_TOL
    # (the property being checked is scale invariant).
    op_norms = [_norm2(M) for M in (sys.A_l, sys.B_l, sys.C_l, sys.D_l)]
    a_norm, norms = op_norms[0], max(op_norms)
    norm2_E = float(sigma_E[0]) if sigma_E.size else 0.0
    amp_scale = 1.0 / ((1.0 + norm2_E) * (1.0 + norms) ** 3)
    span = min(0.25, 3.0 / (1.0 + a_norm))
    steps = max(int(round(span / 1e-3)), 10)
    times = np.linspace(0.0, span, steps + 1)
    v0 = amp_scale * rng.standard_normal(sys.n_hat)
    # A smooth random input with bounded derivatives.
    offs, slope, amp = amp_scale * rng.standard_normal((3, sys.k))
    freq = rng.uniform(0.5, 3.0, sys.k)
    phase = rng.uniform(0.0, 2.0 * np.pi, sys.k)
    g = offs + slope * times[:, None] + amp * np.sin(freq * times[:, None] + phase)
    lift_residual = behavior_residual(dae, lift_solution(sys, v0, g, times))
    lift_ok = lift_residual <= ROUND_TRIP_TOL
    if not lift_ok:
        failures.append(
            f"behavioral round trip residual {lift_residual:.3e} > {ROUND_TRIP_TOL:.0e}"
        )

    return AssociationReport(
        input_maps_ok=input_maps_ok,
        ed_s_zero=ed_s_zero,
        ec_s_full_rank=ec_s_full_rank,
        state_map_ok=state_map_ok,
        state_dim_bound_ok=state_dim_bound_ok,
        identity_residual=identity_residual,
        consistency_ok=consistency_ok,
        max_lift_residual=lift_residual,
        realization_ok=identity_ok and consistency_ok and lift_ok,
        failures=failures,
    )


def project_solution(
    assoc: AssociatedOdeLti, traj: Trajectory
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the internal (v, g) samples of a behavior trajectory.

    v = M E x and g = pinv(D_l) ((x^T, u^T)^T - C_l M E x), samplewise.
    """
    v = traj.x @ (assoc.M @ assoc.E).T
    w = np.concatenate([traj.x, traj.u], axis=1)
    g = (w - v @ assoc.C_l.T) @ pinv(assoc.D_l, assoc.tol).T
    return v, g


def lift_solution(
    assoc: AssociatedOdeLti,
    v0,
    g_samples: np.ndarray | None,
    times: np.ndarray,
) -> Trajectory:
    """Simulate the associated system and split outputs into a Trajectory."""
    _, outputs = simulate(assoc.as_ode(), v0, g_samples, times)
    return Trajectory(times, outputs[:, : assoc.n], outputs[:, assoc.n :])


def feedback_equivalence(
    s1: AssociatedOdeLti,
    s2: AssociatedOdeLti,
    dae: DaeLti,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (T, K, U) with s2 = (T(A1 + B1 K)T^-1, T B1 U, (C1 + D1 K)T^-1, D1 U).

    The state change is forced to T = M2 E C_s1 because both state maps
    factor through Ex; K and U follow by pseudoinverse, with ranks decided at
    ``s1.tol``.  Raises :class:`NotEquivalent` when any defining identity
    fails by more than ``EQUALITY_TOL`` relative, T is singular (condition
    number above ``CONDITION_BOUND``) or U is singular.
    """
    if s1.n_hat != s2.n_hat or s1.n != s2.n or s1.m != s2.m:
        raise NotEquivalent("state or signal dimensions differ")
    n_hat = s1.n_hat
    T = s2.M @ dae.E @ s1.C_s
    if n_hat:
        # cond(T) = s[0] / s[-1], with a zero s[-1] (cond = inf) decided
        # before the division.
        s = _svd(T, compute_uv=False)
        if s[-1] == 0.0 or s[0] / s[-1] > CONDITION_BOUND:
            raise NotEquivalent("recovered state change T is numerically singular")
        T_inv = np.linalg.inv(T)
    else:
        T_inv = T.T

    D1_pinv = pinv(s1.D_l, s1.tol)
    K = D1_pinv @ (s2.C_l @ T - s1.C_l)
    U = D1_pinv @ s2.D_l
    if s1.k != s2.k or rank(U, s1.tol) != s1.k:
        raise NotEquivalent("recovered input change U is singular")

    scale = 1.0 + max(_norm(M) for M in (s1.A_l, s1.C_l, s2.A_l, s2.C_l))
    checks = [
        ("A", T @ (s1.A_l + s1.B_l @ K) @ T_inv - s2.A_l),
        ("B", T @ s1.B_l @ U - s2.B_l),
        ("C", (s1.C_l + s1.D_l @ K) @ T_inv - s2.C_l),
        ("D", s1.D_l @ U - s2.D_l),
    ]
    for name, resid in checks:
        if _norm(resid) > EQUALITY_TOL * scale:
            raise NotEquivalent(
                f"identity for {name} fails with residual {_norm(resid):.3e}"
            )
    return T, K, U


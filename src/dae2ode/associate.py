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
   kernel matrix L parameterize all solutions of the auxiliary constraint,
   which assembles the output maps and, restricted to an orthonormal basis
   of V, the final quadruple.

Also here: verification of the defining invariants, projection/lifting of
solutions between the two representations, constructive recovery of the
feedback equivalence between any two such systems, and the restriction to
the stabilizability subspace used by the infinite-horizon solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dae import DaeLti, Trajectory, behavior_residual, wong_limit
from .errors import NotEquivalent
from .odesys import (
    OdeLti,
    output_nulling_friend,
    restrict_to_invariant,
    simulate,
    stabilizability_subspace,
    weakly_unobservable,
)
from .subspaces import EQUALITY_TOL, _rank_from_singular_values, image, pinv, rank

__all__ = [
    "AssociatedOdeLti",
    "AssociationReport",
    "StabilizableRestriction",
    "associate",
    "verify_associated",
    "project_solution",
    "lift_solution",
    "feedback_equivalence",
    "stabilizable_restriction",
]


@dataclass(frozen=True)
class AssociatedOdeLti:
    """State-space realization (A_l, B_l, C_l, D_l) of a DAE-LTI behavior.

    The output dimension is n + m and splits into the state part (first n
    rows, maps C_s / D_s) and the input part (last m rows, maps C_u / D_u).
    ``M`` is the state map pinv(E C_s) and ``EC_s`` caches the product
    E @ C_s (full column rank by construction).
    """

    A_l: np.ndarray
    B_l: np.ndarray
    C_l: np.ndarray
    D_l: np.ndarray
    M: np.ndarray
    EC_s: np.ndarray
    n: int
    m: int

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


@dataclass(frozen=True)
class StabilizableRestriction:
    """Restriction of an associated system to its stabilizability subspace.

    ``projector`` is the l x n_hat matrix W^T (orthonormal rows) mapping the
    original state to the restricted one; M_g = projector @ M.
    """

    sys_g: OdeLti
    M_g: np.ndarray
    projector: np.ndarray
    n: int
    m: int

    @property
    def l(self) -> int:
        return self.sys_g.n_states

    @property
    def A_g(self) -> np.ndarray:
        return self.sys_g.A

    @property
    def B_g(self) -> np.ndarray:
        return self.sys_g.B

    @property
    def C_g(self) -> np.ndarray:
        return self.sys_g.C

    @property
    def D_g(self) -> np.ndarray:
        return self.sys_g.D


def associate(
    dae: DaeLti, tol: float | None = None, basis_seed: int | None = None
) -> AssociatedOdeLti:
    """Build an associated ODE-LTI for the DAE-LTI (E, A, B).

    ``basis_seed`` optionally re-orthonormalizes the internal subspace basis
    with a random rotation; different seeds give different but feedback
    equivalent realizations (useful for equivalence testing).
    """
    E, A, B = dae.E, dae.A, dae.B
    c, n, m = dae.c, dae.n, dae.m

    U, sigma, Vh = np.linalg.svd(E)
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
    G = np.hstack([A12, B1])
    Ct = A21
    Dt = np.hstack([A22, B2])
    aux = OdeLti(At, G, Ct, Dt)

    V = weakly_unobservable(aux, tol)
    F, L = output_nulling_friend(aux, V)

    # Split the free-coordinate maps into the state tail (n - r rows) and
    # the input part (m rows), then assemble the output maps.
    F1, F2 = F[: n - r], F[n - r :]
    L1, L2 = L[: n - r], L[n - r :]
    C_bar = np.vstack([T @ np.vstack([np.eye(r), F1]), F2])
    D_bar = np.vstack([T @ np.vstack([np.zeros((r, L.shape[1])), L1]), L2])

    P = V.basis
    if basis_seed is not None and V.dim:
        rng = np.random.default_rng(basis_seed)
        Q, _ = np.linalg.qr(rng.standard_normal((V.dim, V.dim)))
        P = P @ Q

    A_l = P.T @ (At + G @ F) @ P
    B_l = P.T @ (G @ L)
    C_l = C_bar @ P
    D_l = D_bar
    C_s = C_l[:n]
    EC_s = E @ C_s
    M = pinv(EC_s, tol)
    return AssociatedOdeLti(A_l, B_l, C_l, D_l, M, EC_s, n, m)


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


def _zero_input_branch(sys: AssociatedOdeLti) -> bool:
    """Whether ``sys`` has no free input: B_l and D_l are zero."""
    return np.linalg.norm(sys.D_l) == 0.0 and np.linalg.norm(sys.B_l) == 0.0


def verify_associated(
    dae: DaeLti, sys: AssociatedOdeLti, tol: float = 1e-8, seed: int = 0
) -> AssociationReport:
    """Check the defining invariants and decide realization exactly.

    Given E D_s = 0, every output of ``sys`` solves the DAE if and only if
    E C_s A_l = A C_s + B C_u and E C_s B_l = A D_s + B D_u; the larger
    residual, relative to (1 + the largest norm of E, A, B, A_l, B_l, C_l,
    D_l)^2, must not exceed ``tol``.  Every solution is an output if and
    only if im(E C_s) equals E times the Wong limit, the consistency set
    computed independently of ``sys``.  One simulated round trip from a
    random (v0, g) drawn with ``seed`` checks ``lift_solution`` as well:
    the lifted trajectory must satisfy the DAE within a central-difference
    residual of 1e-5.
    """
    failures: list[str] = []
    E, A, B = dae.E, dae.A, dae.B

    if _zero_input_branch(sys):
        input_maps_ok = sys.k == 1
    else:
        input_maps_ok = rank(sys.D_l) == sys.k
    if not input_maps_ok:
        failures.append("input maps: D_l not full column rank and not the zero branch")

    scale = 1.0 + np.linalg.norm(E) * (1.0 + np.linalg.norm(sys.D_l))
    ed_s_zero = bool(np.linalg.norm(E @ sys.D_s) <= tol * scale)
    if not ed_s_zero:
        failures.append("E D_s is not zero")

    ec_s_full_rank = rank(sys.EC_s) == sys.n_hat
    if not ec_s_full_rank:
        failures.append("E C_s does not have full column rank n_hat")

    if sys.n_hat:
        state_map_ok = bool(
            np.linalg.norm(sys.M @ sys.EC_s - np.eye(sys.n_hat)) <= tol * sys.n_hat
        )
    else:
        state_map_ok = sys.M.shape == (0, dae.c)
    if not state_map_ok:
        failures.append("state map M is not a left inverse of E C_s")

    state_dim_bound_ok = sys.n_hat <= rank(E)
    if not state_dim_bound_ok:
        failures.append("state dimension exceeds rank E")

    # Formed again rather than read from the cache, so that the exact checks
    # below judge the quadruple (A_l, B_l, C_l, D_l) itself.
    EC_s = E @ sys.C_s
    largest_norm = max(
        np.linalg.norm(M) for M in (E, A, B, sys.A_l, sys.B_l, sys.C_l, sys.D_l)
    )
    identity_residual = float(
        max(
            np.linalg.norm(EC_s @ sys.A_l - A @ sys.C_s - B @ sys.C_u),
            np.linalg.norm(EC_s @ sys.B_l - A @ sys.D_s - B @ sys.D_u),
        )
        / (1.0 + largest_norm) ** 2
    )
    identity_ok = identity_residual <= tol
    if not identity_ok:
        failures.append(
            f"forward identities residual {identity_residual:.3e} > {tol:.0e}: "
            "some outputs do not solve the DAE"
        )

    # im(E C_s) = E V, tested as two containments by residuals against
    # ||E||, so that E V gets no rank decision of its own: along ker E its
    # singular values are rounding residue of size eps ||E||, which can pass
    # a threshold taken relative to its own largest singular value when E is
    # badly scaled.
    V = wong_limit(dae).basis
    EV = E @ V
    Q = image(EC_s).basis
    norm_E = np.linalg.norm(E)
    consistency_ok = bool(
        np.linalg.norm(EC_s - EV @ (V.T @ sys.C_s))
        <= EQUALITY_TOL * norm_E * np.linalg.norm(sys.C_s)
        and np.linalg.norm(EV - Q @ (Q.T @ EV)) <= EQUALITY_TOL * norm_E
    )
    if not consistency_ok:
        failures.append(
            "im(E C_s) differs from E times the Wong limit: "
            "some solutions are not outputs"
        )

    rng = np.random.default_rng(seed)
    # The residual check differentiates Ex numerically, so its truncation
    # error grows with the cube of the system norms and with e^(|A_l| t).
    # Scale the test-signal amplitude and the effective horizon accordingly
    # to keep the h^2 truncation term below the 1e-5 acceptance level
    # (the property being checked is scale invariant).
    norms = max(
        np.linalg.norm(M, 2) if M.size else 0.0
        for M in (sys.A_l, sys.B_l, sys.C_l, sys.D_l)
    )
    amp_scale = 1.0 / ((1.0 + np.linalg.norm(E, 2)) * (1.0 + norms) ** 3)
    a_norm = np.linalg.norm(sys.A_l, 2) if sys.A_l.size else 0.0
    span = min(0.25, 3.0 / (1.0 + a_norm))
    steps = max(int(round(span / 1e-3)), 10)
    times = np.linspace(0.0, span, steps + 1)
    v0 = amp_scale * rng.standard_normal(sys.n_hat)
    # A smooth random input with bounded derivatives.
    offs, slope, amp = amp_scale * rng.standard_normal((3, sys.k))
    freq = rng.uniform(0.5, 3.0, sys.k)
    phase = rng.uniform(0.0, 2.0 * np.pi, sys.k)
    g = offs + slope * times[:, None] + amp * np.sin(freq * times[:, None] + phase)
    lift_residual = behavior_residual(dae, lift_solution(dae, sys, v0, g, times))
    lift_ok = lift_residual <= 1e-5
    if not lift_ok:
        failures.append(f"behavioral round trip residual {lift_residual:.3e} > 1e-5")

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
    dae: DaeLti, assoc: AssociatedOdeLti, traj: Trajectory
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the internal (v, g) samples of a behavior trajectory.

    v = M E x and g = pinv(D_l) ((x^T, u^T)^T - C_l M E x), samplewise.
    """
    ME = assoc.M @ dae.E
    v = traj.x @ ME.T
    w = np.hstack([traj.x, traj.u])
    g = (w - v @ assoc.C_l.T) @ pinv(assoc.D_l).T
    return v, g


def lift_solution(
    dae: DaeLti,
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
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (T, K, U) with s2 = (T(A1 + B1 K)T^-1, T B1 U, (C1 + D1 K)T^-1, D1 U).

    The state change is forced to T = M2 E C_s1 because both state maps
    factor through Ex; K and U follow by pseudoinverse.  Raises
    :class:`NotEquivalent` when any defining identity fails, T is singular
    (condition number above 1e12) or U is singular.
    """
    if s1.n_hat != s2.n_hat or s1.n != s2.n or s1.m != s2.m:
        raise NotEquivalent("state or signal dimensions differ")
    n_hat = s1.n_hat
    T = s2.M @ dae.E @ s1.C_s
    if n_hat:
        if np.linalg.cond(T) > 1e12:
            raise NotEquivalent("recovered state change T is numerically singular")
        T_inv = np.linalg.inv(T)
    else:
        T_inv = T.T

    D1_pinv = pinv(s1.D_l)
    K = D1_pinv @ (s2.C_l @ T - s1.C_l)
    U = D1_pinv @ s2.D_l
    if s1.k != s2.k or rank(U) != s1.k:
        zero_branch = _zero_input_branch(s1) and _zero_input_branch(s2)
        if zero_branch and s1.k == 1 and s2.k == 1:
            U = np.eye(1)
        else:
            raise NotEquivalent("recovered input change U is singular")

    scale = 1.0 + max(np.linalg.norm(M) for M in (s1.A_l, s1.C_l, s2.A_l, s2.C_l))
    checks = [
        ("A", T @ (s1.A_l + s1.B_l @ K) @ T_inv - s2.A_l),
        ("B", T @ s1.B_l @ U - s2.B_l),
        ("C", (s1.C_l + s1.D_l @ K) @ T_inv - s2.C_l),
        ("D", s1.D_l @ U - s2.D_l),
    ]
    for name, resid in checks:
        if resid.size and np.linalg.norm(resid) > tol * scale:
            raise NotEquivalent(
                f"identity for {name} fails with residual {np.linalg.norm(resid):.3e}"
            )
    return T, K, U


def stabilizable_restriction(
    assoc: AssociatedOdeLti, tol: float | None = None
) -> StabilizableRestriction:
    """Restrict an associated system to the stabilizability subspace of (A_l, B_l)."""
    V_g = stabilizability_subspace(assoc.A_l, assoc.B_l, tol)
    sys_g = restrict_to_invariant(assoc.as_ode(), V_g)
    projector = V_g.basis.T
    M_g = projector @ assoc.M
    return StabilizableRestriction(sys_g, M_g, projector, assoc.n, assoc.m)

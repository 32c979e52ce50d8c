"""Rank-revealing subspace algebra built on the singular value decomposition.

Every geometric computation in this package (Wong sequences, consistency
sets, stabilizability subspaces) reduces to a small set of primitives over
orthonormal bases: image, kernel and preimage.  All bases returned here
have orthonormal columns; the zero subspace is represented by a basis with
zero columns.  Only a caller's ``Subspace(basis)`` is checked.

Conventions
-----------
* One rank rule, ``_rank_from_singular_values``, makes every rank decision
  in the package: it counts singular values above ``tol * sigma_max`` where
  ``tol`` defaults to ``max(rows, cols) * machine epsilon``.  Only
  ``preimage`` and the staircase pass a larger reference scale, the norm
  of the unprojected map (``_projection_rule``), so that a map composed
  with an orthogonal projector does not acquire spurious rank from
  round-off residue.
* ``tol`` is only ever that relative singular-value cutoff.  ``associate``
  records it on the realization, and every later rank decision about that
  realization reads it from there; the CLI's ``--tol`` sets it.
* Every other threshold is a fixed constant of the block below, and no
  function takes it as an argument:

  - ``EQUALITY_TOL`` (1e-8): the residual bounds.  A vector w belongs to
    span(B) when ``||(I - B B^T) w|| <= EQUALITY_TOL * max(1, ||w||)``;
    subspace containment and equality, the friend's residual, invariance
    under A and B, the realization identities and feedback equivalence
    are all decided against it.
  - ``PROJECTION_ROUNDING`` (64): the default rank tolerance of a
    projected map is this many times the plain one (``preimage``, the
    staircase).
  - ``ORTHONORMAL_TOL`` (1e-10): max |B^T B - I| of a caller's basis.
  - ``STABLE_EIG_TOL`` (1e-9): eigenvalues with real part at or above
    -STABLE_EIG_TOL count as unstable, so marginal modes are never
    absorbed into the stable subspace.
  - ``GRID_TOL`` (1e-9): the spread of steps, relative to max(h, 1), that a
    uniform time grid may have.
  - ``SYMMETRY_TOL`` (1e-12): max |M - M^T| of a weight, relative to
    1 + max |M|; ``SEMIDEFINITE_TOL`` (1e-12): how far below zero Q0's
    smallest eigenvalue may lie.
  - ``ARE_RESIDUAL_TOL`` (1e-10): the ARE residual ||R||_F relative to
    2 ||A - BK||_F ||P||_F + ||(C - DK)^T S (C - DK)||_F, the norms of its
    closed-loop Lyapunov form.
  - ``POLISH_RESIDUAL_TOL`` (1e-14): a Kleinman-Newton step that brings
    that scaled ARE residual to this or below ends the polish.
  - ``REPLAY_TOL`` (1e-6): the max defect of K1 x + K2 u = 0 in a
    closed-loop replay.
  - ``ROUND_TRIP_TOL`` (1e-5): the behavior residual of the simulated
    round trip in ``verify_associated``.
  - ``CONDITION_BOUND`` (1e12): a recovered state change T of larger
    condition number counts as singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EQUALITY_TOL",
    "PROJECTION_ROUNDING",
    "ORTHONORMAL_TOL",
    "STABLE_EIG_TOL",
    "GRID_TOL",
    "SYMMETRY_TOL",
    "SEMIDEFINITE_TOL",
    "ARE_RESIDUAL_TOL",
    "POLISH_RESIDUAL_TOL",
    "REPLAY_TOL",
    "ROUND_TRIP_TOL",
    "CONDITION_BOUND",
    "Subspace",
    "ensure_matrix",
    "default_rank_tol",
    "rank",
    "pinv",
    "image",
    "kernel",
    "preimage",
    "full_space",
    "zero_space",
]

# The package's fixed thresholds; the module docstring says what each bounds.
EQUALITY_TOL = 1e-8
PROJECTION_ROUNDING = 64.0
ORTHONORMAL_TOL = 1e-10
STABLE_EIG_TOL = 1e-9
GRID_TOL = 1e-9
SYMMETRY_TOL = 1e-12
SEMIDEFINITE_TOL = 1e-12
ARE_RESIDUAL_TOL = 1e-10
POLISH_RESIDUAL_TOL = 1e-14
REPLAY_TOL = 1e-6
ROUND_TRIP_TOL = 1e-5
CONDITION_BOUND = 1e12


def ensure_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array; reject complex and non-finite entries."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        raise ValueError(f"{name} must be real, got dtype {M.dtype}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def default_rank_tol(M: np.ndarray) -> float:
    """Relative rank tolerance: max(rows, cols) * machine epsilon."""
    return max(M.shape) * np.finfo(float).eps if M.size else np.finfo(float).eps


def rank(M, tol: float | None = None) -> int:
    """Numerical rank of ``M``: singular values above ``tol * sigma_max``."""
    M = ensure_matrix(M)
    return _rank_from_singular_values(M, np.linalg.svd(M, compute_uv=False), tol)


def pinv(M, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse with the package's default rank cutoff."""
    M = ensure_matrix(M)
    if min(M.shape) == 0:
        return np.zeros((M.shape[1], M.shape[0]))
    if tol is None:
        tol = default_rank_tol(M)
    return np.linalg.pinv(M, rcond=tol)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^n held as an orthonormal basis.

    Parameters
    ----------
    basis : ndarray, shape (ambient_dim, dim)
        Orthonormal columns; zero columns encode the zero subspace.

    Containment and equality are tested at ``EQUALITY_TOL``.
    """

    basis: np.ndarray

    def __post_init__(self):
        B = ensure_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", B)
        if np.max(np.abs(B.T @ B - np.eye(B.shape[1])), initial=0.0) > ORTHONORMAL_TOL:
            raise ValueError("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains_vector(self, v) -> bool:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector does not live in the ambient space")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector contains non-finite entries")
        resid = v - self.basis @ (self.basis.T @ v)
        return bool(np.linalg.norm(resid) <= EQUALITY_TOL * max(1.0, np.linalg.norm(v)))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        if other.dim == 0:
            return True
        resid = other.basis - self.basis @ (self.basis.T @ other.basis)
        return bool(np.max(np.linalg.norm(resid, axis=0)) <= EQUALITY_TOL)

    def equals(self, other: "Subspace") -> bool:
        return self.contains(other) and other.contains(self)


def _orthonormal(basis: np.ndarray) -> Subspace:
    """A Subspace on a basis built orthonormal from SVD factors, left unchecked."""
    S = object.__new__(Subspace)
    object.__setattr__(S, "basis", basis)
    return S


def full_space(n: int) -> Subspace:
    return _orthonormal(np.eye(n))


def zero_space(n: int) -> Subspace:
    return _orthonormal(np.zeros((n, 0)))


def image(M, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = ensure_matrix(M)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = _rank_from_singular_values(M, s, tol)
    return _orthonormal(U[:, :r])


def kernel(M, tol: float | None = None, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the null space of ``M``."""
    M = ensure_matrix(M)
    m, n = M.shape
    if n == 0:
        return zero_space(0)
    if m == 0:
        return full_space(n)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    r = _rank_from_singular_values(M, s, tol, scale)
    return _orthonormal(Vh[r:].T)


def _rank_from_singular_values(
    M: np.ndarray, s: np.ndarray, tol: float | None, scale: float | None = None
) -> int:
    """The package's rank rule: count the singular values ``s`` of ``M``
    (descending) above ``tol * max(sigma_max, scale)``."""
    if s.size == 0:
        return 0
    if tol is None:
        tol = default_rank_tol(M)
    ref = s[0] if scale is None else max(s[0], scale)
    if ref == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * ref))


def preimage(M, W: Subspace, tol: float | None = None) -> Subspace:
    """{x : M x in W}, the kernel of the projection of M onto W's complement.

    The rank decision inside the kernel uses ``||M||`` as the reference scale,
    so a map landing entirely inside W (projected matrix numerically zero)
    yields the full source space instead of noise-rank artifacts.  Forming
    the projection costs a few rounding multiples of ``eps·||M||``, so the
    default tolerance multiplier is inflated accordingly.
    """
    M = ensure_matrix(M)
    if M.shape[0] != W.ambient_dim:
        raise ValueError("M does not map into the ambient space of W")
    if W.dim == W.ambient_dim:
        return full_space(M.shape[1])
    if W.dim == 0:
        return kernel(M, tol)
    proj_out = M - W.basis @ (W.basis.T @ M)
    return kernel(proj_out, *_projection_rule(M, tol))


def _projection_rule(M: np.ndarray, tol: float | None) -> tuple[float, float]:
    """(tol, scale) of the rank rule for a projection of ``M``: ||M||_2, and
    a default tol of PROJECTION_ROUNDING * max(rows, cols) * eps for the
    projection's rounding."""
    scale = float(np.linalg.svd(M, compute_uv=False)[0]) if min(M.shape) else 0.0
    if tol is None:
        tol = PROJECTION_ROUNDING * max(M.shape) * np.finfo(float).eps
    return tol, max(scale, 1e-300)

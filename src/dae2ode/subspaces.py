"""Rank-revealing subspace algebra built on the singular value decomposition.

Every geometric computation in this package (weakly unobservable subspaces,
Wong sequences, consistency sets, stabilizability subspaces) reduces to a
small set of primitives over orthonormal bases: image, kernel, sum,
intersection and preimage.  All bases returned here have orthonormal columns;
the zero subspace is represented by a basis with zero columns.

Conventions
-----------
* One rank rule, ``_rank_from_singular_values``, makes every rank decision
  in the package: it counts singular values above ``tol * sigma_max`` where
  ``tol`` defaults to ``max(rows, cols) * machine epsilon``.  Only
  ``preimage`` passes a larger reference scale (through ``kernel``), so
  that a map composed with an orthogonal projector does not acquire
  spurious rank from round-off residue.
* Subspace equality and containment are tested at ``EQUALITY_TOL = 1e-8``:
  a vector w belongs to span(B) when ``||(I - B B^T) w|| <= tol * max(1, ||w||)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EQUALITY_TOL",
    "Subspace",
    "ensure_matrix",
    "default_rank_tol",
    "rank",
    "pinv",
    "image",
    "kernel",
    "subspace_sum",
    "intersect",
    "preimage",
    "full_space",
    "zero_space",
]

EQUALITY_TOL = 1e-8


def ensure_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array and reject non-finite entries."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def default_rank_tol(M: np.ndarray) -> float:
    """Relative rank tolerance: max(rows, cols) * machine epsilon."""
    return max(M.shape) * np.finfo(float).eps if M.size else np.finfo(float).eps


def _singular_values(M: np.ndarray) -> np.ndarray:
    if min(M.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(M, compute_uv=False)


def rank(M, tol: float | None = None) -> int:
    """Numerical rank of ``M``: singular values above ``tol * sigma_max``."""
    M = ensure_matrix(M)
    return _rank_from_singular_values(M, _singular_values(M), tol)


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

    Containment and equality tests use ``EQUALITY_TOL`` unless given a
    tolerance.
    """

    basis: np.ndarray

    def __post_init__(self):
        B = ensure_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", B)
        if B.shape[1] > B.shape[0]:
            raise ValueError("basis has more columns than the ambient dimension")
        if B.shape[1]:
            gram = B.T @ B
            if np.max(np.abs(gram - np.eye(B.shape[1]))) > 1e-10:
                raise ValueError("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def contains_vector(self, v, tol: float | None = None) -> bool:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ValueError("vector does not live in the ambient space")
        tol = EQUALITY_TOL if tol is None else tol
        resid = v - self.basis @ (self.basis.T @ v)
        return bool(np.linalg.norm(resid) <= tol * max(1.0, np.linalg.norm(v)))

    def contains(self, other: "Subspace", tol: float | None = None) -> bool:
        _check_same_ambient(self, other)
        tol = EQUALITY_TOL if tol is None else tol
        if other.dim == 0:
            return True
        resid = other.basis - self.basis @ (self.basis.T @ other.basis)
        return bool(np.max(np.linalg.norm(resid, axis=0)) <= tol)

    def equals(self, other: "Subspace", tol: float | None = None) -> bool:
        return self.contains(other, tol) and other.contains(self, tol)


def _check_same_ambient(U: Subspace, W: Subspace) -> None:
    if U.ambient_dim != W.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {U.ambient_dim} vs {W.ambient_dim}"
        )


def full_space(n: int) -> Subspace:
    return Subspace(np.eye(n))


def zero_space(n: int) -> Subspace:
    return Subspace(np.zeros((n, 0)))


def image(M, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the column space of ``M``."""
    M = ensure_matrix(M)
    m, n = M.shape
    if min(m, n) == 0:
        return zero_space(m)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = _rank_from_singular_values(M, s, tol)
    return Subspace(U[:, :r])


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
    return Subspace(Vh[r:].T)


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


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    """U + W, the image of the concatenated bases."""
    _check_same_ambient(U, W)
    return image(np.hstack([U.basis, W.basis]))


def intersect(U: Subspace, W: Subspace) -> Subspace:
    """U intersected with W.

    Solves U a = W b through the kernel of [U, -W] and re-orthonormalizes
    the resulting vectors expressed in the ambient space.
    """
    _check_same_ambient(U, W)
    if U.dim == 0 or W.dim == 0:
        return zero_space(U.ambient_dim)
    if U.dim == U.ambient_dim:
        return W
    if W.dim == W.ambient_dim:
        return U
    N = kernel(np.hstack([U.basis, -W.basis]))
    if N.dim == 0:
        return zero_space(U.ambient_dim)
    return image(U.basis @ N.basis[: U.dim, :])


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
    scale = float(_singular_values(M)[0]) if min(M.shape) else 0.0
    if tol is None:
        tol = 64.0 * max(M.shape) * np.finfo(float).eps
    return kernel(proj_out, tol, scale=max(scale, 1e-300))

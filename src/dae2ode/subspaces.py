"""Rank-revealing subspace algebra built on the singular value decomposition.

The geometric computations of this package (Wong sequences, consistency
sets) reduce to a small set of primitives over orthonormal bases: image,
kernel and preimage; the two staircases (``weakly_unobservable`` and
``stabilizability_subspace``) call the rank rule directly.  All bases
returned here have orthonormal columns; the zero subspace is represented
by a basis with zero columns.  Only a caller's ``Subspace(basis)`` is checked.

Conventions
-----------
* One SVD driver, ``_svd``, computes every singular value decomposition
  in the package: the rank decisions, ``pinv``, every spectral norm
  (``_norm2``, its largest singular value) and ``feedback_equivalence``'s
  condition number.  It calls LAPACK ``dgesdd`` directly, with the
  workspace the driver asks for, so values and factors are those of
  ``numpy.linalg.svd`` bit for bit; ``rank``, ``image``, ``kernel`` and
  ``pinv`` call its core ``_gesdd``, since ``ensure_matrix`` has already
  checked their array finite.  It returns U and V^T C-ordered, as
  NumPy does: SciPy hands them back Fortran-ordered, and the products
  formed from them would then run other BLAS kernels and move the
  rounding of every later result.
* One QR routine, ``_qr``, gives the orthonormal factor of every QR
  factorization, by LAPACK ``dgeqrf`` and ``dorgqr`` with NumPy's
  workspace, so it is ``numpy.linalg.qr(M)[0]`` bit for bit; and one norm,
  ``_norm``, takes every whole-array 2-norm and Frobenius norm by
  ``numpy.linalg.norm``'s own formula, sqrt(x . x).  Neither runs NumPy's
  per-call dispatch.  (The bits of ``_svd`` and ``_qr`` are NumPy's when
  BLAS runs one thread; large products split over several threads may
  round otherwise, since NumPy and SciPy each link their own OpenBLAS.)
* One rank rule, ``_rank_from_singular_values``, makes every rank decision
  in the package, at one default cutoff: it counts the singular values
  above ``tol * max(sigma_max, scale)``, and ``tol`` defaults to
  ``default_rank_tol``, RANK_ROUNDING * max(rows, cols) * machine epsilon,
  which stays above the rounding of the products (S E T, a projection
  I - W W^T) that the ranked matrices come from.  ``scale`` is the norm of
  the map a ranked block was cut from: ``||M||`` in ``preimage`` (raised
  to ``||A||`` by ``wong_limit`` for its restrictions A W), and
  ``||[A B; C D]||`` and ``||[A, B]||`` for every rank of the two
  staircases, so a block that is only rounding of that map has rank zero.
* ``tol`` is only ever that relative singular-value cutoff.  ``associate``
  records it on the realization, and every later rank decision about that
  realization reads it from there; the CLI's ``--tol`` sets it.
* Every other threshold is a fixed constant of the block below, and no
  function takes it as an argument:

  - ``EQUALITY_TOL`` (1e-8): the residual bounds.  A vector w belongs to
    span(B) when ``||(I - B B^T) w|| <= EQUALITY_TOL * max(1, ||w||)``;
    subspace containment and equality, the friend's residual, the
    realization identities and feedback equivalence are all decided
    against it.
  - ``RANK_ROUNDING`` (64): the default rank cutoff, in units of
    max(rows, cols) * machine epsilon.
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
  - ``REPLAY_TOL`` (1e-6): the max defect of K1 x + K2 u = 0 in a
    closed-loop replay.
  - ``ROUND_TRIP_TOL`` (1e-5): the behavior residual of the simulated
    round trip in ``verify_associated``.
  - ``CONDITION_BOUND`` (1e12): a recovered state change T of larger
    condition number counts as singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

__all__ = [
    "EQUALITY_TOL",
    "RANK_ROUNDING",
    "ORTHONORMAL_TOL",
    "STABLE_EIG_TOL",
    "GRID_TOL",
    "SYMMETRY_TOL",
    "SEMIDEFINITE_TOL",
    "ARE_RESIDUAL_TOL",
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
RANK_ROUNDING = 64.0
ORTHONORMAL_TOL = 1e-10
STABLE_EIG_TOL = 1e-9
GRID_TOL = 1e-9
SYMMETRY_TOL = 1e-12
SEMIDEFINITE_TOL = 1e-12
ARE_RESIDUAL_TOL = 1e-10
REPLAY_TOL = 1e-6
ROUND_TRIP_TOL = 1e-5
CONDITION_BOUND = 1e12

_EPS = float(np.finfo(float).eps)


def ensure_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array; reject complex and non-finite entries."""
    M = np.asarray(M)
    if M.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {M.dtype}")
    if M.dtype != np.float64:
        M = M.astype(float)
    if M.ndim != 2:
        M = np.atleast_2d(M)
        if M.ndim != 2:
            raise ValueError(f"{name} must be two-dimensional, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself; ValueError when it holds an inf or a NaN, as SciPy's
    own finiteness check says it, before a LAPACK driver reads it."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _svd(M: np.ndarray, compute_uv: bool = True, full_matrices: bool = True):
    """``numpy.linalg.svd(M, full_matrices, compute_uv)`` of a 2-D float M
    by LAPACK ``dgesdd``: (U, s, V^T), or s alone, with the same bits.

    The workspace is the size the driver's query asks for, as NumPy's (one
    query per shape and mode, ``_gesdd_lwork``), and U and V^T come back
    C-ordered, as NumPy's do.  An empty M gives no singular values and
    identity (full) or empty (reduced) factors.  A non-finite M raises
    ValueError; LinAlgError when the driver does not converge.
    """
    return _gesdd(_finite(M), compute_uv, full_matrices)


def _gesdd(M: np.ndarray, compute_uv: bool = True, full_matrices: bool = True):
    """``_svd`` of an M already checked finite, as ``ensure_matrix`` checks it."""
    m, n = M.shape
    if not M.size:
        s = np.zeros(0)
        if not compute_uv:
            return s
        if full_matrices:
            return np.eye(m), s, np.eye(n)
        return np.zeros((m, 0)), s, np.zeros((0, n))
    U, s, Vh, info = scipy.linalg.lapack.dgesdd(
        M,
        compute_uv=compute_uv,
        full_matrices=full_matrices,
        lwork=_gesdd_lwork(m, n, compute_uv, full_matrices),
    )
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if not compute_uv:
        return s
    return np.ascontiguousarray(U), s, np.ascontiguousarray(Vh)


@lru_cache(maxsize=1024)
def _gesdd_lwork(m: int, n: int, compute_uv: bool, full_matrices: bool) -> int:
    """The workspace ``dgesdd`` asks for at this shape and mode; the query
    runs once per shape and mode."""
    query = scipy.linalg.lapack.dgesdd_lwork(
        m, n, compute_uv=compute_uv, full_matrices=full_matrices
    )
    return int(query[0])


def _qr(M: np.ndarray) -> np.ndarray:
    """``numpy.linalg.qr(M)[0]`` of a finite 2-D float M by LAPACK ``dgeqrf``
    and ``dorgqr``: the m x min(m, n) orthonormal factor, with the same bits.

    Each routine gets the workspace NumPy gives it, max(1, n, the size its
    query asks for), queried once per shape (``_qr_lwork``), and Q comes
    back C-ordered, as NumPy's does.  An empty M gives an empty Q.
    """
    m, n = M.shape
    k = min(m, n)
    if not M.size:
        return np.zeros((m, k))
    lwork_f, lwork_o = _qr_lwork(m, n)
    a, tau, _, _ = scipy.linalg.lapack.dgeqrf(M, lwork=lwork_f)
    Q, _, _ = scipy.linalg.lapack.dorgqr(a[:, :k], tau, lwork=lwork_o, overwrite_a=True)
    return np.ascontiguousarray(Q)


@lru_cache(maxsize=1024)
def _qr_lwork(m: int, n: int) -> tuple[int, int]:
    """The workspaces NumPy gives ``dgeqrf`` and ``dorgqr`` at this shape:
    max(1, n, each routine's query); the queries run once per shape."""
    k = min(m, n)
    a = np.zeros((m, n), order="F")
    geqrf = scipy.linalg.lapack.dgeqrf(a, lwork=-1)[2][0]
    orgqr = scipy.linalg.lapack.dorgqr(a[:, :k], np.zeros(k), lwork=-1)[1][0]
    return max(1, n, int(geqrf)), max(1, n, int(orgqr))


def _norm(x: np.ndarray) -> float:
    """``numpy.linalg.norm(x)``, the Frobenius norm of a matrix and the
    2-norm of a vector, by NumPy's own formula sqrt(x . x) on
    ``x.ravel(order="K")``, so with its bits."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _norm2(M: np.ndarray) -> float:
    """||M||_2, the largest singular value; 0 for an empty M."""
    return float(_svd(M, compute_uv=False)[0]) if M.size else 0.0


def default_rank_tol(M: np.ndarray) -> float:
    """The default relative rank cutoff of ``M``:
    RANK_ROUNDING * max(rows, cols) * machine epsilon."""
    return RANK_ROUNDING * max(M.shape) * _EPS


def rank(M, tol: float | None = None) -> int:
    """Numerical rank of ``M``: singular values above ``tol * sigma_max``."""
    M = ensure_matrix(M)
    return _rank_from_singular_values(M, _gesdd(M, compute_uv=False), tol)


def pinv(M, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse with the package's default rank cutoff: the
    reciprocals of the singular values above ``tol * sigma_max``, by
    ``numpy.linalg.pinv``'s own formula, so with its bits."""
    M = ensure_matrix(M)
    if min(M.shape) == 0:
        return np.zeros((M.shape[1], M.shape[0]))
    if tol is None:
        tol = default_rank_tol(M)
    U, s, Vh = _gesdd(M, full_matrices=False)
    large = s > tol * s[0]
    s = np.divide(1.0, s, where=large, out=s)
    s[~large] = 0.0
    return Vh.T @ (s[:, None] * U.T)


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
        return _norm(resid) <= EQUALITY_TOL * max(1.0, _norm(v))

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
    U, s, _ = _gesdd(M, full_matrices=False)
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
    _, s, Vh = _gesdd(M)
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


def preimage(
    M, W: Subspace, tol: float | None = None, scale: float | None = None
) -> Subspace:
    """{x : M x in W}, the kernel of the projection of M onto W's complement.

    The rank decision inside the kernel uses ``||M||`` as the reference scale,
    so a map landing entirely inside W (projected matrix numerically zero)
    yields the full source space instead of noise-rank artifacts.  A larger
    ``scale``, as in :func:`kernel`, raises that reference: for M = A W, a
    map restricted to a subspace, pass ``||A||`` so that a restriction
    which is only rounding noise of A is not given full rank.
    """
    M = ensure_matrix(M)
    if M.shape[0] != W.ambient_dim:
        raise ValueError("M does not map into the ambient space of W")
    if W.dim == W.ambient_dim:
        return full_space(M.shape[1])
    if W.dim == 0:
        return kernel(M, tol, scale)
    proj_out = M - W.basis @ (W.basis.T @ M)
    return kernel(proj_out, tol, max(_norm2(M), scale or 0.0))

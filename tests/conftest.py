"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from dae2ode import AssociatedOdeLti, DaeLti, associate


def random_dae(rng: np.random.Generator) -> DaeLti:
    """Random rectangular system with c, n, m <= 8 and E of random rank."""
    c = int(rng.integers(1, 9))
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    r = int(rng.integers(0, min(c, n) + 1))
    U = np.linalg.qr(rng.standard_normal((c, c)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if r:
        E = U[:, :r] @ np.diag(rng.uniform(0.5, 2.0, size=r)) @ V[:, :r].T
    else:
        E = np.zeros((c, n))
    return DaeLti(E, rng.standard_normal((c, n)), rng.standard_normal((c, m)))


def random_autonomous_unstable(rng: np.random.Generator) -> DaeLti:
    """Square invertible-E system with unstable dynamics and no input."""
    n = int(rng.integers(1, 7))
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    E = U @ np.diag(rng.uniform(0.5, 2.0, n))
    A = rng.standard_normal((n, n)) + (2.0 + rng.uniform(0.0, 2.0)) * np.eye(n)
    return DaeLti(E, A, np.zeros((n, 1)))


def conditioned(k, cond, rng):
    """Random k x k matrix with singular values logspace(0, log10 cond)."""
    Q1 = np.linalg.qr(rng.standard_normal((k, k)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return Q1 @ np.diag(np.logspace(0.0, np.log10(cond), k)) @ Q2


@dataclass(frozen=True)
class PlantedDae:
    """A DAE of known structure: the n_hat, k and l that associate must find,
    the dimension of its Wong limit, the planted eps of its right blocks and
    lambda of its finite blocks, and a realization ``hand`` built block by
    block, which shares no code with associate."""

    dae: DaeLti
    n_hat: int
    k: int
    l: int
    wong_dim: int
    eps: np.ndarray
    lams: np.ndarray
    hand: AssociatedOdeLti


def planted_dae(rng: np.random.Generator, cond: float | None = 1.0) -> PlantedDae:
    """Block-diagonal DAE of known Kronecker structure (Gantmacher 1959;
    Van Dooren 1979), hidden behind changes S, T and R of rows, states and
    inputs of condition ``cond`` (1 is orthogonal; None leaves it unhidden).

    Every block is at most 4 wide:
    * 0-4 finite blocks x' = lambda x, lambda ~ U(-2, 2);
    * 0-2 right blocks L_eps, eps in 0..3: x_1' = x_2, ..., x_eps' = g, with
      g an input column or a free state column;
    * 0-2 infinite blocks N_mu, mu in 1..4: E the mu x mu upper shift and
      A = I, so x = 0;
    * 0-1 left blocks L_eta^T, eta in 1..4: E = [I; 0] and A = [0; I],
      (eta + 1) x eta, so x = 0.

    So n_hat is the number of finite blocks plus the sum of eps, k the number
    of right blocks, and l the sum of eps plus the finite blocks with
    lambda < 0.  The Wong limit holds the states of the finite and right
    blocks, so its dimension is n_hat plus one for each right block whose g
    is a state column.  An empty draw is drawn again.

    ``hand`` realizes each block on its own: a finite block by v' = lambda v
    with x = v, a right block by the Brunovsky chain v' = shift v + e_eps g
    with x = v and g its input or its free state, the other blocks by x = 0.
    Mapped through T^-1 and R^-1 it realizes the hidden DAE, at tol = 1e-10.
    """
    blocks = []  # (E, A, B) of each block, B with the block's input columns
    while not blocks:
        parts = []  # (A_l, B_l, C_s, D_s, C_u, D_u) of each block's realization
        lams = rng.uniform(-2.0, 2.0, int(rng.integers(0, 5)))
        for lam in lams:
            blocks.append((np.eye(1), np.array([[lam]]), np.zeros((1, 0))))
            parts.append((np.array([[lam]]), np.zeros((1, 0)), np.eye(1), np.zeros((1, 0)),
                          np.zeros((0, 1)), np.zeros((0, 0))))
        eps = rng.integers(0, 4, int(rng.integers(0, 3)))
        free_columns = 0
        for e in eps:
            shift = np.eye(e, k=1)
            last = np.eye(e)[:, -1:] if e else np.zeros((0, 1))
            if rng.uniform() < 0.5:  # g is an input column
                blocks.append((np.eye(e), shift, last))
                parts.append((shift, last, np.eye(e), np.zeros((e, 1)),
                              np.zeros((1, e)), np.eye(1)))
            else:  # g is a free state column
                blocks.append((np.eye(e, e + 1), np.eye(e, e + 1, k=1), np.zeros((e, 0))))
                parts.append((shift, last, np.eye(e + 1, e), np.eye(e + 1)[:, -1:],
                              np.zeros((0, e)), np.zeros((0, 1))))
                free_columns += 1
        for mu in rng.integers(1, 5, int(rng.integers(0, 3))):
            blocks.append((np.eye(mu, k=1), np.eye(mu), np.zeros((mu, 0))))
        for eta in rng.integers(1, 5, int(rng.integers(0, 2))):
            blocks.append(
                (np.eye(eta + 1, eta), np.eye(eta + 1, eta, k=-1), np.zeros((eta + 1, 0)))
            )
    for E_block, _, _ in blocks[len(parts):]:  # infinite and left blocks: x = 0
        x_rows = np.zeros((E_block.shape[1], 0))
        parts.append((np.zeros((0, 0)),) * 2 + (x_rows, x_rows) + (np.zeros((0, 0)),) * 2)
    E, A, B = (scipy.linalg.block_diag(*block) for block in zip(*blocks))
    A_l, B_l, C_s, D_s, C_u, D_u = (scipy.linalg.block_diag(*part) for part in zip(*parts))
    if cond is not None:
        S, T, R = (conditioned(k, cond, rng) for k in (*E.shape, B.shape[1]))
        E, A, B = S @ E @ T, S @ A @ T, S @ B @ R
        C_s, D_s = np.linalg.solve(T, C_s), np.linalg.solve(T, D_s)
        C_u, D_u = np.linalg.solve(R, C_u), np.linalg.solve(R, D_u)
    hand = AssociatedOdeLti(A_l, B_l, np.vstack([C_s, C_u]), np.vstack([D_s, D_u]), E, 1e-10)
    n_hat = len(lams) + int(eps.sum())
    l = n_hat - int(np.sum(lams >= 0.0))
    return PlantedDae(
        DaeLti(E, A, B), n_hat, len(eps), l, n_hat + free_columns, eps, lams, hand
    )


def power_of_two_scaling(k, rng):
    """Random k x k diagonal of powers 2^0 ... 2^33 (condition up to about
    1e10), which scales without rounding."""
    return np.diag(2.0 ** rng.integers(0, 34, k))


def random_spd(k: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.standard_normal((k, k))
    return M @ M.T + k * np.eye(k)


@pytest.fixture
def dgees_info(monkeypatch):
    """Installer of a LAPACK ``dgees`` that answers every call but the
    workspace query with info = ``report(n)``, n the order of the matrix."""
    dgees = scipy.linalg.lapack.dgees

    def install(report):
        def failing(select, H, lwork, sort_t=0):
            result = dgees(select, H, lwork=lwork, sort_t=sort_t)
            return result if lwork == -1 else (*result[:-1], report(H.shape[0]))

        monkeypatch.setattr(scipy.linalg.lapack, "dgees", failing)

    return install


@pytest.fixture
def failing_dgees(dgees_info):
    """``dgees`` answering with info = n + 2, its report that rounding moved
    a leading eigenvalue across the sort condition after reordering."""
    dgees_info(lambda n: n + 2)


@pytest.fixture
def dgesdd_info(monkeypatch):
    """Installer of a LAPACK ``dgesdd`` that answers every call with
    info = ``report``; the workspace query is a separate driver."""
    dgesdd = scipy.linalg.lapack.dgesdd

    def install(report):
        def failing(a, **kwargs):
            return (*dgesdd(a, **kwargs)[:-1], report)

        monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", failing)

    return install


def example_one() -> DaeLti:
    """The 2x3 worked system: d/dt[x1, x2] = [x1 + u, x2 + x3]."""
    E = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    B = np.array([[1.0], [0.0]])
    return DaeLti(E, A, B)


@pytest.fixture(scope="session")
def ex1() -> DaeLti:
    return example_one()


@pytest.fixture(scope="session")
def ex1_assoc(ex1):
    return associate(ex1)

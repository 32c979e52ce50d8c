"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from dae2ode import DaeLti, associate


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


def power_of_two_scaling(k, rng):
    """Random k x k diagonal of powers 2^0 ... 2^33 (condition up to about
    1e10), which scales without rounding."""
    return np.diag(2.0 ** rng.integers(0, 34, k))


def random_spd(k: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.standard_normal((k, k))
    return M @ M.T + k * np.eye(k)


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

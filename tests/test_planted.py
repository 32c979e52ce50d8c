"""Populations whose structure is known by construction.

``planted_dae`` builds each system from Kronecker blocks, so n_hat, k, l and
the Wong dimension are known without running the code under test.  The seed
(7) and the size (300 systems) were fixed before the first run; every
decision is taken at the default cutoff unless a case names its ``tol``.
"""

import functools

import numpy as np
import pytest

from dae2ode import associate, feedback_equivalence, verify_associated, wong_limit

from conftest import planted_dae

SEED, SIZE = 7, 300


@functools.cache
def population(cond, tol=None):
    """(planted system, its realization at ``tol``) for each of SIZE systems."""
    rng = np.random.default_rng(SEED)
    systems = [planted_dae(rng, cond) for _ in range(SIZE)]
    return [(planted, associate(planted.dae, tol=tol)) for planted in systems]


def wrong_answers(pairs):
    """Indices whose realization misses the planted (n_hat, k, l)."""
    return [
        idx
        for idx, (p, assoc) in enumerate(pairs)
        if (assoc.n_hat, assoc.k, assoc.restriction.l) != (p.n_hat, p.k, p.l)
    ]


def rejected(pairs):
    """Indices whose realization ``verify_associated`` rejects."""
    return [idx for idx, (p, assoc) in enumerate(pairs) if not verify_associated(p.dae, assoc).ok]


def wrong_wong(pairs):
    """Indices whose system gets a Wong limit of another dimension."""
    return [idx for idx, (p, _) in enumerate(pairs) if wong_limit(p.dae).dim != p.wong_dim]


def controllability_indices(A, B):
    """(Brunovsky's indices of (A, B), largest first; an orthonormal basis of
    the reachable subspace), from an orthogonal staircase (Paige 1981): step
    j reaches r_j new directions, and the i-th index counts the steps with
    r_j >= i.  Ranks are decided at 1e-8 of ||[A, B]||; no Krylov matrix is
    formed."""
    cutoff = 1e-8 * max(1.0, np.linalg.norm(np.hstack([A, B]), 2))
    reached = np.zeros((A.shape[0], 0))
    new, steps = B, []
    while True:
        new = new - reached @ (reached.T @ new)
        U, sigma, _ = np.linalg.svd(new, full_matrices=False)
        r = int(np.sum(sigma > cutoff))
        if r == 0:
            break
        steps.append(r)
        reached = np.hstack([reached, U[:, :r]])
        new = A @ U[:, :r]
    indices = [sum(r >= i for r in steps) for i in range(1, B.shape[1] + 1)]
    return sorted(indices, reverse=True), reached


@pytest.fixture(scope="module")
def orthogonal():
    return population(1.0)


@pytest.fixture(scope="module")
def orthogonal_wrong_wong(orthogonal):
    return wrong_wong(orthogonal)


def test_unhidden_population_is_exact():
    pairs = population(None)
    assert wrong_answers(pairs) == []
    assert wrong_wong(pairs) == []


def test_l_is_right_on_every_realization_with_the_planted_n_hat_and_k(orthogonal):
    # The stabilizability staircase on its own: wherever associate found the
    # planted state and input dimensions, the restriction has the planted l.
    right = [(p, assoc) for p, assoc in orthogonal if (assoc.n_hat, assoc.k) == (p.n_hat, p.k)]
    assert len(right) > SIZE // 2
    assert wrong_answers(right) == []


@pytest.mark.parametrize(
    "cond, tol, verified",
    [(1.0, None, False), (30.0, None, True), (300.0, 1e-10, False)],
    ids=["orthogonal", "condition_30", "condition_300_tol_1e-10"],
)
def test_changes_keep_n_hat_k_and_l(orthogonal, cond, tol, verified):
    # Every rank of the output-nulling staircase is judged against
    # ||[A B; C D]||, so a step where no input acts keeps the input block's
    # rounding out of its rank.
    pairs = orthogonal if cond == 1.0 else population(cond, tol)
    assert wrong_answers(pairs) == []
    if verified:
        assert rejected(pairs) == []


def test_verifier_accepts_every_realization_with_the_planted_wong_dimension(
    orthogonal, orthogonal_wrong_wong
):
    # The verifier judges the realization against the DAE's own Wong limit,
    # so a wrong limit is the one ground left for a rejection.
    wrong = set(orthogonal_wrong_wong)
    right = [pair for idx, pair in enumerate(orthogonal) if idx not in wrong]
    assert len(right) > SIZE // 2
    assert rejected(right) == []


@pytest.mark.parametrize(
    "cond", [1.0, 30.0, 300.0], ids=["orthogonal", "condition_30", "condition_300"]
)
def test_changes_keep_the_wong_dimension(cond):
    # The sum E V_i + im B is ranked at the one default cutoff, which is
    # above the rounding a product leaves in it.
    assert wrong_wong(population(cond)) == []


def test_verifier_accepts_no_wrong_n_hat_or_k_at_condition_300():
    # Some realizations at condition 300 have a wrong (n_hat, k); judged
    # against the DAE's own Wong limit, each of them is rejected.
    pairs = population(300.0)
    wrong = [(p, assoc) for p, assoc in pairs if (assoc.n_hat, assoc.k) != (p.n_hat, p.k)]
    assert wrong
    assert rejected(wrong) == list(range(len(wrong)))


# The paper's second result: any two realizations of one DAE are feedback
# equivalent.  The planted ``hand`` realization is built block by block, so
# it shares no rank decision with associate.
HIDDEN = pytest.mark.parametrize("cond", [1.0, 30.0], ids=["orthogonal", "condition_30"])


@HIDDEN
def test_verifier_accepts_every_hand_built_realization(cond):
    pairs = population(cond)
    assert [idx for idx, (p, _) in enumerate(pairs) if not verify_associated(p.dae, p.hand).ok] == []


@HIDDEN
def test_hand_built_and_associate_realizations_are_feedback_equivalent(cond):
    for p, assoc in population(cond):
        feedback_equivalence(p.hand, assoc, p.dae)


@HIDDEN
def test_feedback_invariants_are_the_planted_ones(cond):
    # Controllability indices and the modes no input reaches are invariant
    # under state changes and feedback (Brunovsky 1970), so associate's
    # (A_l, B_l) carries the planted eps and lambda.
    for idx, (p, assoc) in enumerate(population(cond)):
        indices, reached = controllability_indices(assoc.A_l, assoc.B_l)
        assert indices == sorted(p.eps.tolist(), reverse=True), idx
        rest = np.linalg.qr(reached, mode="complete")[0][:, reached.shape[1] :]
        modes = np.linalg.eigvals(rest.T @ assoc.A_l @ rest)
        assert np.max(np.abs(modes.imag), initial=0.0) <= 1e-8, idx
        assert np.allclose(np.sort(modes.real), np.sort(p.lams), rtol=0.0, atol=1e-8), idx

"""Rank-revealing subspace algebra: pinned examples and algebraic laws."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dae2ode
from dae2ode import (
    DaeLti,
    OdeLti,
    Subspace,
    image,
    kernel,
    pinv,
    preimage,
    rank,
    stabilizability_subspace,
    weakly_unobservable,
    wong_limit,
)
from dae2ode import subspaces
from dae2ode.subspaces import _norm, _qr, _svd, default_rank_tol, ensure_matrix


def axis(ambient: int, *indices: int) -> Subspace:
    M = np.zeros((ambient, len(indices)))
    for col, idx in enumerate(indices):
        M[idx, col] = 1.0
    return image(M)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_duplicated_row(self):
        assert rank(np.array([[1.0, 0.0], [1.0, 0.0]])) == 1

    def test_rank_two_product(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        assert rank(M) == 2

    def test_rank_equals_rank_of_transpose_on_200_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            r = int(rng.integers(0, min(rows, cols) + 1))
            M = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)) if r else np.zeros((rows, cols))
            assert rank(M) == rank(M.T) == r


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(4)), np.eye(4))

    def test_zero_matrix_has_transposed_shape(self):
        P = pinv(np.zeros((2, 5)))
        assert P.shape == (5, 2)
        assert np.all(P == 0)

    def test_diagonal(self):
        P = pinv(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(P, np.array([[0.5, 0.0], [0.0, 0.0]]))

    def test_penrose_identities_on_200_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            M = rng.standard_normal((rows, cols))
            if rng.uniform() < 0.3:
                M[:, : cols // 2] = 0.0
            P = pinv(M)
            scale = max(np.linalg.norm(M), 1.0)
            assert np.linalg.norm(M @ P @ M - M) <= 1e-9 * scale
            assert np.linalg.norm(P @ M @ P - P) <= 1e-9 * max(np.linalg.norm(P), 1.0)
            assert np.linalg.norm((M @ P).T - M @ P) <= 1e-9
            assert np.linalg.norm((P @ M).T - P @ M) <= 1e-9


def svd_inputs():
    """Random matrices of every shape up to 12 x 12, the empty ones, rows,
    columns, tall and wide included, at full and at random lower rank."""
    rng = np.random.default_rng(3001)
    for m in range(13):
        for n in range(13):
            yield rng.standard_normal((m, n))
            k = int(rng.integers(0, min(m, n) + 1))
            yield rng.standard_normal((m, k)) @ rng.standard_normal((k, n))


class TestSvd:
    """``subspaces._svd`` calls LAPACK ``dgesdd`` itself: it must give the
    bits of ``numpy.linalg.svd``, in NumPy's C order, and fail where that
    fails."""

    MODES = {
        "full": {},
        "reduced": {"full_matrices": False},
        "values": {"compute_uv": False},
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_matches_numpy_bitwise(self, mode):
        kwargs = self.MODES[mode]
        for M in svd_inputs():
            got, want = _svd(M, **kwargs), np.linalg.svd(M, **kwargs)
            if mode == "values":
                got, want = (got,), (want,)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape, M.shape
                assert np.array_equal(g, w), M.shape

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_factors_are_c_ordered(self, mode):
        for M in svd_inputs():
            U, _, Vh = _svd(M, **self.MODES[mode])
            assert U.flags.c_contiguous and Vh.flags.c_contiguous, M.shape

    def test_pinv_matches_numpy_bitwise(self):
        rng = np.random.default_rng(3002)
        for M in svd_inputs():
            if not M.size:
                continue
            for tol in (default_rank_tol(M), 10.0 ** rng.uniform(-12, -1)):
                assert np.array_equal(pinv(M, tol), np.linalg.pinv(M, rcond=tol)), M.shape

    def test_non_finite_input_raises_value_error(self):
        for bad in (np.inf, -np.inf, np.nan):
            M = np.eye(3)
            M[1, 2] = bad
            for kwargs in self.MODES.values():
                with pytest.raises(ValueError, match="infs or NaNs"):
                    _svd(M, **kwargs)

    def test_primitives_check_finiteness_once(self, monkeypatch):
        # ensure_matrix refuses a non-finite array before the SVD runs, so
        # the SVD's own check would only read the same array again.
        checked = []
        monkeypatch.setattr(subspaces, "_finite", lambda a: checked.append(a.shape) or a)
        M = np.arange(6.0).reshape(2, 3)
        for primitive in (rank, pinv, image, kernel):
            primitive(M)
            with pytest.raises(ValueError, match="non-finite entries"):
                primitive(np.array([[1.0, np.nan]]))
        assert checked == []

    def test_unconverged_driver_raises_linalg_error(self, dgesdd_info):
        dgesdd_info(1)
        M = np.arange(6.0).reshape(2, 3)
        for kwargs in self.MODES.values():
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                _svd(M, **kwargs)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            rank(M)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            pinv(M)


def layouts(M):
    """M C-ordered, Fortran-ordered and as a strided view into a larger
    array, the layouts a caller's array may come in."""
    rng = np.random.default_rng(M.size)
    m, n = M.shape
    strided = rng.standard_normal((2 * m + 1, 3 * n + 1))
    strided[1::2, 2::3] = M
    return {"c": M, "fortran": np.asfortranarray(M), "strided": strided[1::2, 2::3]}


class TestQrAndNorm:
    """``subspaces._qr`` calls LAPACK ``dgeqrf`` and ``dorgqr`` itself and
    ``subspaces._norm`` takes NumPy's own formula: each must give the bits
    of the NumPy call it replaces, whatever the layout of its input."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(3003)
        yield from svd_inputs()
        for shape in ((60, 5), (5, 60), (40, 40)):
            yield rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)

    def test_qr_matches_numpy_bitwise(self):
        for M in self.inputs():
            for layout, X in layouts(M).items():
                before = X.copy()
                got, want = _qr(X), np.linalg.qr(X)[0]
                assert got.shape == want.shape == (M.shape[0], min(M.shape)), (M.shape, layout)
                assert np.array_equal(got, want), (M.shape, layout)
                assert got.flags.c_contiguous, (M.shape, layout)
                assert np.array_equal(X, before), (M.shape, layout)

    def test_norm_matches_numpy_bitwise(self):
        for M in self.inputs():
            for layout, X in layouts(M).items():
                for x in (X, X[0] if X.shape[0] else X.ravel(), X.T):
                    got, want = _norm(x), np.linalg.norm(x)
                    assert got == want and type(got) is float, (M.shape, layout)

    def test_norm_overflows_as_numpy_does(self):
        # No rescaling: a sum of squares beyond the largest double reads inf.
        x = np.full(4, 1e300)
        with np.errstate(over="ignore"):
            assert _norm(x) == np.linalg.norm(x) == np.inf


class TestEnsureMatrix:
    def test_float_matrix_passes_through(self):
        for M in (np.eye(3), np.asfortranarray(np.ones((2, 3))), np.ones((4, 6))[::2, ::3]):
            assert ensure_matrix(M) is M

    def test_other_real_inputs_convert_to_float(self):
        for raw in ([[1, 2], [3, 4]], np.eye(2, dtype=np.float32), np.eye(2, dtype=">f8"),
                    np.array([[True, False]]), 2.5, [1.0, 2.0]):
            M = ensure_matrix(raw)
            want = np.atleast_2d(np.asarray(raw, dtype=float))
            assert M.dtype == np.float64 and M.dtype.isnative
            assert M.shape == want.shape and np.array_equal(M, want)


class TestImage:
    def test_single_column(self):
        S = image(np.array([[1.0], [1.0]]))
        assert S.dim == 1
        assert np.allclose(np.abs(S.basis[:, 0]), 1.0 / np.sqrt(2.0))

    def test_zero_matrix(self):
        assert image(np.zeros((3, 2))).dim == 0

    def test_proportional_columns(self):
        S = image(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert S.dim == 1
        assert np.allclose(np.abs(S.basis[:, 0]), np.array([1.0, 2.0]) / np.sqrt(5.0))


class TestKernel:
    def test_row_vector(self):
        K = kernel(np.array([[1.0, 0.0]]))
        assert K.dim == 1
        assert np.allclose(np.abs(K.basis[:, 0]), [0.0, 1.0])

    def test_invertible(self):
        assert kernel(np.array([[1.0, 2.0], [3.0, 4.0]])).dim == 0

    def test_ones_row(self):
        K = kernel(np.ones((1, 3)))
        assert K.dim == 2
        assert np.allclose(K.basis.T @ np.ones(3), 0.0, atol=1e-12)

    def test_no_rows_gives_full_space(self):
        K = kernel(np.zeros((0, 3)))
        assert K.dim == 3
        assert np.array_equal(K.basis, np.eye(3))

    @pytest.mark.parametrize("rows", [3, 0])
    def test_no_columns_gives_the_empty_basis(self, rows):
        assert kernel(np.zeros((rows, 0))).basis.shape == (0, 0)


class TestPreimage:
    def test_identity_map(self):
        W = axis(3, 0, 2)
        assert preimage(np.eye(3), W).equals(W)

    def test_zero_map(self):
        assert preimage(np.zeros((2, 4)), image(np.zeros((2, 1)))).dim == 4

    def test_rank_deficient_projection(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert preimage(M, axis(2, 0)).dim == 2


class TestSubspaceInvariants:
    def test_produced_bases_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            amb = int(rng.integers(1, 9))
            S = image(rng.standard_normal((amb, int(rng.integers(1, 9)))))
            if S.dim:
                G = S.basis.T @ S.basis
                assert np.max(np.abs(G - np.eye(S.dim))) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_every_producer_returns_orthonormal_bases(self, seed):
        # The bases built inside the package skip Subspace's re-check, so
        # their orthonormality is asserted here for every producer.
        rng = np.random.default_rng(seed)

        def random_rank(rows, cols):
            k = int(rng.integers(0, min(rows, cols) + 1))
            return rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))

        n, s, p = (int(v) for v in rng.integers([1, 0, 0], [8, 4, 4]))
        A = rng.standard_normal((n, n))
        B = random_rank(n, s)
        U = image(random_rank(n, 5))
        W = kernel(random_rank(4, n))
        c = p + 1
        dae = DaeLti(random_rank(c, n), rng.standard_normal((c, n)), random_rank(c, s))
        produced = [
            U,
            W,
            preimage(random_rank(n, n), U),
            wong_limit(dae),
            weakly_unobservable(OdeLti(A, B, random_rank(p, n), random_rank(p, s)))[0],
            stabilizability_subspace(A, B),
        ]
        for S in produced:
            G = S.basis.T @ S.basis
            assert np.max(np.abs(G - np.eye(S.dim)), initial=0.0) <= 1e-10

    def test_caller_bases_are_still_validated(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[2.0], [0.0]]))
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            Subspace(np.array([[np.nan], [1.0]]))

    def test_basis_column_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            amb = int(rng.integers(1, 9))
            S = kernel(rng.standard_normal((int(rng.integers(1, 9)), amb)))
            assert S.dim <= amb

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            rank(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            image(np.array([[np.inf], [0.0]]))

    def test_complex_entries_rejected(self):
        # A cast to float would drop the imaginary parts: rank(diag(1j, 1j))
        # would read 0 and E = [[1 + 1j]] would be stored as [[1]].
        with pytest.raises(ValueError, match="matrix must be real"):
            rank(np.diag([1j, 1j]))
        with pytest.raises(ValueError, match="E must be real"):
            DaeLti([[1.0 + 1.0j]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="C must be real"):
            OdeLti([[-1.0]], [[1.0]], np.array([[1.0]], dtype=complex), [[0.0]])
        # A complex dtype is refused even when every imaginary part is zero.
        with pytest.raises(ValueError, match="A must be real"):
            OdeLti(np.eye(1, dtype=complex), [[1.0]], [[1.0]], [[0.0]])


class TestThresholdsInOnePlace:
    def test_no_small_float_literal_outside_subspaces(self):
        # Every fixed threshold is a named constant of the subspaces module;
        # docstrings are strings and do not count.
        found = []
        for path in sorted(Path(dae2ode.__file__).parent.glob("*.py")):
            if path.name == "subspaces.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-3
                ):
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        assert not found, found

    def test_one_default_rank_cutoff(self):
        # The default cutoff RANK_ROUNDING * max(rows, cols) * eps is formed
        # in default_rank_tol alone: machine epsilon is read once, into
        # _EPS, and neither it nor the factor is used anywhere else.
        names = ("_EPS", "RANK_ROUNDING", "finfo")
        found = []
        for path in sorted(Path(dae2ode.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            for node in tree.body if path.name == "subspaces.py" else ():
                if (isinstance(node, ast.FunctionDef) and node.name == "default_rank_tol") or (
                    isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in names
                ):
                    allowed.update(map(id, ast.walk(node)))
            for node in ast.walk(tree):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in names and id(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno}: {name}")
        assert not found, found

    def test_every_imported_name_is_used(self):
        # The package re-exports from __init__.py; any other module uses what
        # it imports, unless the line says "# noqa: F401" (a name looked up
        # on the module from outside).
        unused = []
        for path in sorted(Path(dae2ode.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            source = path.read_text()
            tree = ast.parse(source)
            lines = source.splitlines()
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno}: {name}")
        assert not unused, unused


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ensure_matrix(np.zeros((2, 2, 2)), "M"),
         r"^M must be two-dimensional, got shape \(2, 2, 2\)$"),
        (lambda: axis(2, 0, 1).contains_vector(np.ones(3)),
         "^vector does not live in the ambient space$"),
        (lambda: axis(2, 0).contains(axis(3, 0)), "^ambient dimensions differ: 2 vs 3$"),
        (lambda: preimage(np.eye(3), axis(2, 0)),
         "^M does not map into the ambient space of W$"),
    ],
    ids=["not_two_dimensional", "vector_ambient", "subspace_ambient", "preimage_ambient"],
)
def test_mismatched_input_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()

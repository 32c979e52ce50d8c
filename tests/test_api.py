"""The public surface: every exported name exists.

The benchmark's span tracer wraps whatever each module's ``__all__`` lists,
so a stale entry there, or a stale import in the package ``__init__``,
breaks a traced run as well as ``from dae2ode.<module> import *``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import dae2ode

PACKAGE = Path(dae2ode.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"dae2ode.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_only_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        module = importlib.import_module(f"dae2ode.{node.module}")
        names = [alias.name for alias in node.names]
        assert [name for name in names if name not in module.__all__] == [], node.module
        assert all(getattr(dae2ode, name) is getattr(module, name) for name in names)


def test_unconsulted_dae_arguments_are_pinned():
    # The public functions that take a ``dae`` and never read it.  They keep
    # it only for callers that still pass one; no other may join them.
    unread = set()
    for name in MODULES:
        public = set(importlib.import_module(f"dae2ode.{name}").__all__)
        for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name not in public:
                continue
            if "dae" not in [a.arg for a in node.args.args + node.args.kwonlyargs]:
                continue
            body = ast.Module(body=node.body, type_ignores=[])
            if not any(isinstance(n, ast.Name) and n.id == "dae" for n in ast.walk(body)):
                unread.add(node.name)
    assert unread == {
        "pencil_stabilizability_test",
        "is_behaviorally_stabilizable",
        "finite_horizon",
        "infinite_horizon",
        "closed_loop_replay",
    }


# SciPy wrappers of the LAPACK drivers that odesys._schur (dgees),
# lq._lyapunov (dtrsyl), solve_are (dgebal) and lq._hamiltonian's Cholesky
# inverse (dpotrf, dpotrs) call directly.
REPLACED_WRAPPERS = {
    "schur", "solve_continuous_lyapunov", "matrix_balance", "cho_factor", "cho_solve"
}


def _call_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_no_module_calls_a_replaced_scipy_wrapper():
    # One Schur path and one Cholesky path: a call or an import of the
    # wrappers would start a second one, with its own checks and bits.
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [_call_name(node)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in REPLACED_WRAPPERS]
    assert found == []


def test_one_cholesky_factorization_and_one_inverse():
    # lq._hamiltonian factors W = D'SD and forms W^{-1} once; every reduced
    # matrix and every gain reads that one W^{-1}.
    calls = [
        (_call_name(node), f"{path.name}:{node.lineno}")
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _call_name(node) in {"dpotrf", "dpotrs"}
    ]
    assert sorted(name for name, _ in calls) == ["dpotrf", "dpotrs"], calls


# NumPy's wrappers of the SVD, which subspaces._svd (LAPACK dgesdd) replaces,
# and of the QR, which subspaces._qr (dgeqrf, dorgqr) replaces.
REPLACED_SVD_WRAPPERS = {"svd", "pinv", "cond", "matrix_rank"}
REPLACED_QR_WRAPPERS = {"qr"}
SVD_NORM_ORDERS = {2, -2, "nuc"}


def _is_svd_norm(call: ast.Call) -> bool:
    """A call ``norm(M, 2)`` (or ord=-2, "nuc"), a norm taken by an SVD."""
    orders = [kw.value for kw in call.keywords if kw.arg == "ord"] + call.args[1:2]
    for order in orders:
        try:
            if ast.literal_eval(order) in SVD_NORM_ORDERS:
                return True
        except ValueError:
            pass
    return False


def _replaced_wrapper_calls(replaced, also=lambda call: False) -> list[str]:
    """Imports from NumPy or SciPy of a name in ``replaced``, and calls of
    such a name through a module or for which ``also`` holds.  The
    package's own functions are called by name, NumPy's through its
    module, so only attribute calls of a replaced name are counted."""
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                ("numpy", "scipy")
            ):
                names = [a.name for a in node.names if a.name in replaced]
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                by_module = isinstance(node.func, ast.Attribute) and name in replaced
                names = [name] if by_module or also(node) else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names]
    return found


def test_no_module_calls_a_replaced_svd_wrapper():
    # One SVD path: a NumPy SVD beside _svd would bring its own workspace,
    # checks and factor order.
    def svd_norm(call):
        return _call_name(call) == "norm" and _is_svd_norm(call)

    assert _replaced_wrapper_calls(REPLACED_SVD_WRAPPERS, svd_norm) == []


def test_no_module_calls_a_replaced_qr_wrapper():
    # One QR path, subspaces._qr, for the same reason.
    assert _replaced_wrapper_calls(REPLACED_QR_WRAPPERS) == []


def test_whole_array_norms_use_the_norm_helper():
    # subspaces._norm takes every whole-array norm; NumPy's norm is left
    # only for the column norms, which name their axis.
    def whole_array_norm(call):
        return _call_name(call) == "norm" and "axis" not in [kw.arg for kw in call.keywords]

    assert _replaced_wrapper_calls(set(), whole_array_norm) == []


def test_every_error_class_is_raised():
    # A class in errors.__all__ that no module raises is dead code; the base
    # class is only caught, through its subclasses.
    errors = importlib.import_module("dae2ode.errors")
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert set(errors.__all__) - raised == {"Dae2OdeError"}


def test_cli_loads_and_realizes_each_problem_in_one_place():
    # main loads the problem and calls associate once for every problem
    # subcommand, so --tol reaches the realization by one path.
    calls = [
        node.func.id
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert (calls.count("load_problem"), calls.count("associate")) == (1, 1)

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

"""Every demo compiles, and every name it imports from rmflab exists.

The demos are not run (the growth demos take minutes); their syntax trees
are walked instead, so a renamed or moved public name fails here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def rmflab_imports(tree: ast.AST):
    """(module, name) for each ``from rmflab... import name``, and
    (module, None) for each ``import rmflab...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "rmflab":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rmflab":
                    yield alias.name, None


def test_every_demo_is_checked():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_compiles_and_its_rmflab_names_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    compile(tree, str(demo), "exec")
    imports = list(rmflab_imports(tree))
    assert imports, f"{demo.name} imports nothing from rmflab"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name) or \
                importlib.util.find_spec(f"{module}.{name}") is not None, \
                f"{demo.name}: {module} has no {name}"

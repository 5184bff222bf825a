"""Every demo compiles, every name it imports from rmflab exists, and
every name rmflab exports has a user.

The demos are not run (the growth demos take minutes); their syntax trees
are walked instead, so a renamed or moved public name fails here.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import rmflab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "rmflab"


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


def referenced_names(path: Path) -> set[str]:
    """Names the code refers to, and its ``"module.function"`` strings (the
    benchmark's span names); comments and docstrings do not count."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.name for n in nodes if isinstance(n, ast.alias)}
            | {n.value for n in nodes if isinstance(n, ast.Constant)
               and isinstance(n.value, str)
               and re.fullmatch(r"\w+\.\w+", n.value)})


def test_every_export_is_used_outside_its_module():
    """An exported name is an exception class, or another rmflab module, a
    demo or a benchmark script refers to it; API nothing runs is not kept."""
    users = [*PACKAGE.glob("*.py"), *DEMOS, *ROOT.glob("benchmarks/*.py")]
    refs = {path.stem: referenced_names(path) for path in users
            if path.stem != "__init__"}
    unused = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        for alias in getattr(node, "names", []):
            obj = getattr(rmflab, alias.name)
            if not (isinstance(obj, type) and issubclass(obj, Exception)) \
                    and not any({alias.name, f"{node.module}.{alias.name}"}
                                & names for stem, names in refs.items()
                                if stem != node.module):
                unused.append(alias.name)
    assert unused == []

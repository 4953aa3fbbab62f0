"""Every name a doilab module or a test file imports is used in it.
`__init__.py`, which re-exports, is skipped, and `# noqa: F401` on the
line of an imported name keeps that name. Every module-level private name
is read somewhere in the package. The package runs on numpy alone: scipy
is never imported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import doilab

MODULES = sorted(p for p in Path(doilab.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    src = "import math\nimport os  # noqa: F401\nimport a.b\nfrom x import (\n    c,\n    d as e,\n)\nprint(c, a.b)\n"
    assert unused_imports(src) == [(1, "math"), (6, "e")]


def _reads(tree, skip=None) -> set:
    """Names that tree reads outside the node skip: name loads, attribute
    reads and imported names."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def orphaned_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private function, class or
    constant that no module of sources reads, its own definition aside."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    if not any(name in _reads(t, node) for t in trees.values()):
                        orphans.append((module, node.lineno, name))
    return orphans


def test_no_orphaned_private_names():
    package = Path(doilab.__file__).parent
    assert orphaned_private_names({p.name: p.read_text() for p in package.glob("*.py")}) == []


def test_orphaned_private_name_detection():
    a = "_A = 1\n_B: int = 2\ndef _f():\n    return _f()\nclass _C:\n    pass\ndef g():\n    return _B\n__all__ = []\n"
    b = "from a import _C\nimport a\nprint(a._D)\n_D = 3\n"
    assert orphaned_private_names({"a": a, "b": b}) == [("a", 1, "_A"), ("a", 3, "_f")]


# Runs in a fresh interpreter: imports the CLI, computes one interior-p K
# (the path that used scipy.optimize), and prints the scipy modules loaded.
NO_SCIPY_CODE = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import doilab.cli
from doilab.spectral import DiagonalizableOperator, diagonalizability_constant
rng = np.random.default_rng(0)
op = DiagonalizableOperator.from_u(rng.uniform(-1, 1, 4), np.eye(4) + 0.5 * rng.standard_normal((4, 4)))
est = diagonalizability_constant(op, 1.5)
assert est.certainty == "upper_bound" and est.value >= 1.0, est
print(sorted(m for m, mod in sys.modules.items() if m.partition(".")[0] == "scipy" and mod is not None))
"""


@pytest.mark.parametrize("scipy_state", ["blocked", "available"])
def test_package_runs_without_scipy(scipy_state):
    env = {**os.environ, "PYTHONPATH": str(Path(doilab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CODE, scipy_state], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

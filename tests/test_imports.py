"""Every name a doilab module imports is used in it. `__init__.py`, which
re-exports, is skipped, and `# noqa: F401` on the line of an imported name
keeps that name."""

import ast
from pathlib import Path

import pytest

import doilab

MODULES = sorted(p for p in Path(doilab.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detection():
    src = "import math\nimport os  # noqa: F401\nimport a.b\nfrom x import (\n    c,\n    d as e,\n)\nprint(c, a.b)\n"
    assert unused_imports(src) == [(1, "math"), (6, "e")]

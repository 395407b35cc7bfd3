"""Every name a consched module imports is used in that module.

No linter ships with the project, so this parses each module under
src/consched with ast. The package __init__ files are left out: their
imports are re-exports. from __future__ imports are compiler directives
and are left out too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "consched"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .cluster import Placement, first_fit\nfirst_fit(np.zeros(1))\n")
    assert unused_imports(source) == ["os", "Placement"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

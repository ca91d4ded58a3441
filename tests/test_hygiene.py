"""Source hygiene of src/dicycles: no unused imports, no assert statements.

An unused import is dead weight.  An ``assert`` is stripped by
``python -O``, so a check that must always run cannot live in one.  The
package ``__init__`` re-exports what it imports, so its imports count as
used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dicycles"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never loads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [(node.lineno, name) for name in names if name not in used]
    return sorted(unused)


def assert_lines(tree: ast.Module) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_scanners_find_what_they_look_for():
    tree = ast.parse("import os, os.path as osp\nfrom x import (a, b as c)\n"
                     "from __future__ import annotations\nassert a\nprint(os)\n")
    assert unused_imports(tree) == [(1, "osp"), (2, "c")]
    assert assert_lines(tree) == [4]


def test_modules_found():
    assert {"search.py", "counting.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_hygiene(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name != "__init__.py":
        assert unused_imports(tree) == []
    assert assert_lines(tree) == []

"""Source hygiene of src/dicycles: no unused imports, no assert
statements, no float ceilings or floors, no dead definitions.

An unused import is dead weight.  An ``assert`` is stripped by
``python -O``, so a check that must always run cannot live in one.
``math.ceil`` or ``math.floor`` of a true division rounds the quotient to
float64 first, which is wrong for integers above 2**53; an integer
ceiling is ``-(-a // b)`` and a floor ``a // b``.  The
package ``__init__`` re-exports what it imports, so its imports are not
unused.  A function, method or class that nothing in src/ or perfbench/
references is dead code: a re-export in ``__init__`` or a call from
tests/ alone does not keep it, since a test of code that nothing else
runs checks nothing that reaches a user.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dicycles"
MODULES = sorted(SRC.glob("*.py"))

# definitions that only code outside the repository calls, with the reason
CALLED_FROM_OUTSIDE = {
    "cli.py:_JsonArgumentParser.error": "argparse calls it on a usage error",
    "counting.py:vertex_cycle_counts": "re-exported public API: the per-vertex counts that "
                                       "`dicycles count --per-vertex` prints",
    "density.py:mc_threshold_density": "the quadrature's independent reference in the tests, "
                                       "until an exact threshold density replaces it",
}


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


def float_roundings(tree: ast.Module) -> list[int]:
    """Lines of math.ceil / math.floor calls whose argument holds a true division."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"
                  and node.func.attr in ("ceil", "floor")
                  and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
                          for arg in node.args for sub in ast.walk(arg)))


def definitions(tree: ast.Module) -> list[tuple[str, bool]]:
    """(qualified name, is member) of each function, method and class,
    dunders excepted: Python calls those itself."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((prefix + child.name, in_class))
                visit(child, prefix + child.name + ".", False)
            elif isinstance(child, ast.ClassDef):
                found.append((prefix + child.name, in_class))
                visit(child, prefix + child.name + ".", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def references(trees) -> tuple[set[str], set[str]]:
    """(names loaded or imported, attribute names) across the trees."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def dead_definitions(root: Path) -> list[str]:
    """Definitions in root/src/dicycles that nothing in root/perfbench or
    in the package references, ``__init__``'s re-exports not counted.  A
    member counts as referenced by attribute name; a function or class by
    name, import or attribute."""
    module_trees = {path.name: ast.parse(path.read_text())
                    for path in sorted((root / "src" / "dicycles").glob("*.py"))}
    callers = [tree for module, tree in module_trees.items() if module != "__init__.py"]
    callers += [ast.parse(path.read_text()) for path in sorted((root / "perfbench").glob("*.py"))]
    names, attrs = references(callers)
    dead = []
    for module, tree in module_trees.items():
        for qualname, is_member in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name not in attrs and (is_member or name not in names):
                dead.append(f"{module}:{qualname}")
    return sorted(dead)


def test_scanners_find_what_they_look_for(tmp_path):
    tree = ast.parse("import os, os.path as osp\nfrom x import (a, b as c)\n"
                     "from __future__ import annotations\nassert a\nprint(os)\n")
    assert unused_imports(tree) == [(1, "osp"), (2, "c")]
    assert assert_lines(tree) == [4]
    tree = ast.parse("math.ceil(n / 3)\nmath.floor((n - 1) / 3 + 1)\nmath.ceil(n // 3)\n"
                     "-(-n // 3)\nround(n / 3)\nmath.floor(x)\n")
    assert float_roundings(tree) == [1, 2]
    files = {
        "src/dicycles/m.py": "def used(): pass\ndef dead(): pass\ndef by_attr(): pass\n"
                             "def exported(): pass\nclass TestOnly: pass\n"
                             "class K:\n    def __init__(self): pass\n    def m(self): pass\n"
                             "    def used(self): pass\n    def dead_m(self):\n"
                             "        def inner(): pass\n        inner()\n",
        "src/dicycles/__init__.py": "from .m import exported\n",
        "perfbench/p.py": "from m import used\nx.by_attr()\nK().m()\n",
        "tests/test_m.py": "from m import TestOnly, exported\nTestOnly()\nexported()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert dead_definitions(tmp_path) == ["m.py:K.dead_m", "m.py:K.used", "m.py:TestOnly",
                                          "m.py:dead", "m.py:exported"]


def test_modules_found():
    assert {"search.py", "counting.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_hygiene(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name != "__init__.py":
        assert unused_imports(tree) == []
    assert assert_lines(tree) == []
    assert float_roundings(tree) == []


def test_no_dead_definitions():
    # a method named like a called function, or a function named like a
    # used attribute, still counts as referenced: the scan is by name
    dead = dead_definitions(ROOT)
    assert [d for d in dead if d not in CALLED_FROM_OUTSIDE] == []
    assert sorted(CALLED_FROM_OUTSIDE) == [d for d in dead if d in CALLED_FROM_OUTSIDE]

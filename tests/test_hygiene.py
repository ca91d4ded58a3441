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
runs checks nothing that reaches a user.  By the same rule, an optional
parameter that no call in src/ or perfbench/ passes is a dead knob: every
user runs its default.  The oracles of ``reproduce`` check the counting,
number-theory and search layers, so they load nothing from those modules,
not even through a helper of their own module.
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

# optional parameters that only the tests pass, with the reason
PASSED_FROM_OUTSIDE = {
    "density.py:threshold_density": (("pattern", "weights"),
                                     "the quadrature's cross-checks against the walk expansion "
                                     "and the dense reference in test_density.py"),
    "density.py:mc_threshold_density": (("k", "pattern"),
                                        "the quadrature's independent reference in the tests, "
                                        "until an exact threshold density replaces it"),
}


# the independent oracles of reproduce.py, and the modules they check
ORACLES = ("_oracle_reachable", "_naive_cycle_count", "_cyclic_sequences")
CHECKED_MODULES = ("numtheory", "counting", "search")


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


def sources(root: Path) -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The trees of root/src/dicycles by module name, and the trees whose
    references count: the package without ``__init__``, and root/perfbench."""
    module_trees = {path.name: ast.parse(path.read_text())
                    for path in sorted((root / "src" / "dicycles").glob("*.py"))}
    callers = [tree for module, tree in module_trees.items() if module != "__init__.py"]
    callers += [ast.parse(path.read_text()) for path in sorted((root / "perfbench").glob("*.py"))]
    return module_trees, callers


def dead_definitions(root: Path) -> list[str]:
    """Definitions in root/src/dicycles that nothing in root/perfbench or
    in the package references, ``__init__``'s re-exports not counted.  A
    member counts as referenced by attribute name; a function or class by
    name, import or attribute."""
    module_trees, callers = sources(root)
    names, attrs = references(callers)
    dead = []
    for module, tree in module_trees.items():
        for qualname, is_member in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name not in attrs and (is_member or name not in names):
                dead.append(f"{module}:{qualname}")
    return sorted(dead)


def passed_arguments(trees) -> dict[str, tuple[float, set[str]]]:
    """For each called name, (the most positional arguments of any call,
    the keywords passed); a ``*`` argument counts as any number, a ``**``
    one as every keyword.  ``t.call(label, f, *args, **kw)`` (the
    benchmark's tracer) is a call of f, with its ``work=`` dropped."""
    passed: dict[str, tuple[float, set[str]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args, keywords = node.func, node.args, node.keywords
            if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
                func, args = args[1], args[2:]
                keywords = [kw for kw in keywords if kw.arg != "work"]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            most, words = passed.get(name, (0, set()))
            count = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
            words |= {kw.arg or "**" for kw in keywords}
            passed[name] = (max(most, count), words)
    return passed


def dead_parameters(root: Path) -> list[str]:
    """Optional parameters of the functions, methods and constructors in
    root/src/dicycles that no call in the package (``__init__`` not
    counted) or in root/perfbench passes, by position or by keyword, as
    "module:qualname(parameter)".  Calls are matched by name, so a call of
    any function of that name counts; ``self`` is not a position, and a
    constructor is called by its class name."""
    module_trees, callers = sources(root)
    passed = passed_arguments(callers)
    dead = []

    def visit(module, node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(module, child, prefix + child.name + ".", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                name = cls if child.name == "__init__" else child.name
                spec = child.args
                positional = spec.posonlyargs + spec.args
                if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                               for d in child.decorator_list):
                    positional = positional[1:]
                most, words = passed.get(name, (0, set()))
                optional = [(i, a.arg) for i, a in enumerate(positional)
                            if i >= len(positional) - len(spec.defaults)]
                optional += [(None, a.arg) for a, d in zip(spec.kwonlyargs, spec.kw_defaults)
                             if d is not None]
                dead.extend(f"{module}:{qualname}({arg})" for i, arg in optional
                            if "**" not in words and arg not in words
                            and (i is None or most <= i))
                visit(module, child, qualname + ".", None)
            else:
                visit(module, child, prefix, cls)

    for module, tree in module_trees.items():
        visit(module, tree, "", None)
    return sorted(dead)


def imported_from(tree: ast.AST, modules) -> dict[str, str]:
    """Each name that an import in tree binds to one of the modules, or to
    something from one, mapped to that module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module.rsplit(".", 1)[-1] if node.module else None
            for alias in node.names:
                module = alias.name if source in (None, "dicycles") else source
                if module in modules:
                    bound[alias.asname or alias.name] = module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                for module in modules:
                    if module in parts:
                        bound[alias.asname or parts[0]] = module
    return bound


def oracle_leaks(tree: ast.Module, oracles, modules) -> list[str]:
    """"oracle: name (module)" for each name that an oracle, or a function
    of the same module it calls, loads from one of the modules."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    bound = imported_from(tree, modules)
    leaks = set()
    for oracle in oracles:
        seen, todo = set(), [oracle]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            body = functions[name]
            local = imported_from(body, modules)
            leaks.update(f"{oracle}: {n} ({m})" for n, m in local.items())
            for node in ast.walk(body):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in bound and node.id not in local:
                        leaks.add(f"{oracle}: {node.id} ({bound[node.id]})")
                    elif node.id in functions:
                        todo.append(node.id)
    return sorted(leaks)


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


def test_parameter_scan_finds_what_it_looks_for(tmp_path):
    files = {
        "src/dicycles/m.py": "def f(a, b=1, c=2, *, d=3, e=4): pass\ndef g(x=1): pass\n"
                             "def traced(p, q=0, work=0): pass\ndef star(a=1, b=2): pass\n"
                             "def spread(a=1, *, b=2): pass\n"
                             "class K:\n    def __init__(self, size=1): pass\n"
                             "    def m(self, y=0, z=0): pass\n"
                             "    @staticmethod\n    def s(y=0, z=0): pass\n"
                             "def outer(u=0):\n    def inner(v=0): pass\n    inner()\n",
        "src/dicycles/__init__.py": "from .m import f\nf(1, 2, 3, d=4, e=5)\n",
        "src/dicycles/user.py": "f(1, 2)\nK(2).m(z=1)\nK.s(1)\nstar(*xs)\nspread(**kw)\n",
        "perfbench/p.py": "t.call('m.traced', m.traced, 1, q=2, work=3)\nm.f(0, d=1)\nouter(1)\n",
        "tests/test_m.py": "g(5)\nf(e=1)\nK().m(1, 2)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert dead_parameters(tmp_path) == ["m.py:K.m(y)", "m.py:K.s(z)", "m.py:f(c)", "m.py:f(e)",
                                         "m.py:g(x)", "m.py:outer.inner(v)", "m.py:traced(work)"]


def test_oracle_scan_finds_what_it_looks_for():
    tree = ast.parse(
        "from . import counting, graphs\nfrom .numtheory import brauer_bound as bb\n"
        "import dicycles.search as srch\nfrom dicycles import search\n"
        "def helper(): return counting.x()\ndef clean(g): return sum(map(g.arcs.issuperset, []))\n"
        "def direct(): return bb(3)\ndef indirect(): return helper()\n"
        "def attr(): return srch.f() + search.g()\n"
        "def inner():\n    from .counting import y\n    return y\n"
        "def other(): return graphs.new_graph(1, [])\n")
    oracles = ("clean", "direct", "indirect", "attr", "inner", "other")
    assert oracle_leaks(tree, oracles, CHECKED_MODULES) == [
        "attr: search (search)", "attr: srch (search)", "direct: bb (numtheory)",
        "indirect: counting (counting)", "inner: y (counting)"]


def test_oracles_are_independent_of_what_they_check():
    tree = ast.parse((SRC / "reproduce.py").read_text())
    assert oracle_leaks(tree, ORACLES, CHECKED_MODULES) == []
    # and the scan sees the modules reproduce does import
    assert set(imported_from(tree, CHECKED_MODULES).values()) == set(CHECKED_MODULES)


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


def test_no_dead_parameters():
    # the scan is by name too: a parameter passed to any function of the
    # same name counts as passed
    exempt = {f"{definition}({arg})" for definition, (args, _) in PASSED_FROM_OUTSIDE.items()
              for arg in args}
    dead = dead_parameters(ROOT)
    assert [d for d in dead if d not in exempt] == []
    assert sorted(exempt) == [d for d in dead if d in exempt]

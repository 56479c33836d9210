"""No dead public names in the package.

Every public function, method or class defined in ``src/loramesh`` is
named somewhere else in the package (read as a name or an attribute, or
imported), or is exported in ``loramesh.__all__``. A helper that only
tests call either becomes the code path or goes.
"""

import ast
from pathlib import Path

import loramesh

PACKAGE_DIR = Path(loramesh.__file__).parent

# Public names that only callers outside the package use, each with its reason.
ALLOWED = {
    # bench/test_bench.py:43 checks the link model's symmetry through it
    "LinkModel.neighbors",
    # the bench's output check recomputes a run's metrics from its trace
    # file with it, and the planned ``verify`` command will
    "recompute_from_trace",
}


def definitions(tree):
    """(qualified name, name) of each public top-level function or class
    of one module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def named(tree):
    """Every identifier one module reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_names(paths, exported) -> list[str]:
    """The public names defined in ``paths`` that none of them names and
    ``exported`` leaves out, in order."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    used = {name for tree in trees for name in named(tree)}
    return sorted(
        qualified
        for tree in trees
        for qualified, name in definitions(tree)
        if name not in used and name not in exported
    )


def test_every_public_name_is_used_in_the_package_or_exported():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 10
    assert dead_names(modules, set(loramesh.__all__)) == sorted(ALLOWED)


def test_a_dead_name_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from .other import used_import\n"
        "class Kept:\n    def called(self): pass\n    def idle(self): pass\n    def _private(self): pass\n"
        "def exported(): pass\n"
        "def orphan(): return Kept().called()\n"
    )
    assert dead_names([path], {"exported"}) == ["Kept.idle", "orphan"]

"""No dead public names and no write-only state in the package.

Every public function, method or class defined in ``src/loramesh`` is
named somewhere else in the package (read as a name or an attribute, or
imported), or is exported in ``loramesh.__all__``. A helper that only
tests call either becomes the code path or goes.

Every attribute the package stores (a dataclass field, a ``__slots__``
entry or a ``self.x =`` assignment) is read as an attribute somewhere
in the package. State that only tests read goes too.
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

# Stored attributes that nothing in the package reads, each with its reason.
ALLOWED_STORED = {
    # scenario files label nodes for their readers; the simulator never needs it
    "NodeSpec.label",
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


def stored(tree):
    """(qualified name, name) of each attribute one module's classes
    store: an annotated class-body field, a ``__slots__`` entry, or a
    ``self.x`` assignment in one of their methods."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                names = [
                    c.value
                    for c in ast.walk(item.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                ]
            else:
                names = [
                    n.attr
                    for n in ast.walk(item)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                ]
            for name in names:
                yield f"{cls.name}.{name}", name


def dead_attributes(paths) -> list[str]:
    """The attributes stored in ``paths`` whose name none of them reads as
    an attribute, in order."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        {qualified for tree in trees for qualified, name in stored(tree) if name not in read}
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


def test_every_stored_attribute_is_read_in_the_package():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert dead_attributes(modules) == sorted(ALLOWED_STORED)


def test_a_dead_attribute_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Record:\n    kept: int\n    planted: int\n"
        "class Node:\n    __slots__ = ('read', 'slot_only')\n"
        "    def __init__(self):\n        self.read = 1\n        self.written = 2\n"
        "def use(record, node):\n    node.written += 1\n    return record.kept + node.read\n"
    )
    assert dead_attributes([path]) == ["Node.slot_only", "Node.written", "Record.planted"]

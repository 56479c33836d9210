"""The runtime stays standard-library only.

Every ``import`` in the package's modules names either the package
itself (absolute or relative) or a module of Python's standard library.
"""

import ast
import sys
from pathlib import Path

import loramesh

PACKAGE_DIR = Path(loramesh.__file__).parent


def imported_roots(path):
    """The top-level module name of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 10
    foreign = {
        f"{path.name}: {root}"
        for path in modules
        for root in imported_roots(path)
        if root != "loramesh" and root not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)


def test_a_third_party_import_is_caught(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import json\nfrom . import model\nimport numpy.linalg\nfrom yaml import safe_load\n")
    assert list(imported_roots(path)) == ["json", "numpy", "yaml"]


def test_package_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >=3.10; syntax newer than
    # that, such as an ``except*`` clause, fails here
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    assert len(modules) > 10

"""Every name a module of the package imports is used in it."""

import ast
import pathlib

import pytest

import contactflow

SOURCES = sorted(pathlib.Path(contactflow.__file__).parent.glob("*.py"))

# perfbench's tracer wraps the spla handle of each module it names in
# LINALG_OWNERS, corner among them, so corner binds spla without using it
EXEMPT = {"corner.py": {"spla"}}


def _unused_imports(tree):
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package's __all__ re-exports what it imports
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return bound - used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert unused - EXEMPT.get(path.name, set()) == set()

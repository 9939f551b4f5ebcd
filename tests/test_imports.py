"""Every name a module of the package imports is used in it, and every
function and class it defines at module level is used somewhere."""

import ast
import pathlib

import pytest

import contactflow

SOURCES = sorted(pathlib.Path(contactflow.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
# the trees whose code may use the package
USERS = ("src", "tests", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

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


def _references(tree):
    """The names that each top-level statement of tree reads, imports or
    takes as an attribute, a definition's own name left out of its body,
    so a function that only calls itself reads as unused."""
    names = set()
    for stmt in tree.body:
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
        if isinstance(stmt, DEFINITIONS):
            read.discard(stmt.name)
        names |= read
    return names


def _unreferenced(sources, users):
    """(module, name) of each module-level function and class of sources
    that no statement of users references outside its own definition."""
    used = set()
    for path in users:
        used |= _references(ast.parse(path.read_text()))
    return {(path.name, stmt.name) for path in sources
            for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, DEFINITIONS) and stmt.name not in used}


def test_every_module_level_definition_is_referenced():
    users = [path for tree in USERS for path in (ROOT / tree).rglob("*.py")]
    assert _unreferenced(SOURCES, users) == set()


def test_an_orphaned_helper_reads_as_unreferenced(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def used():\n    return 1\n\n\n"
                      "def orphan(n):\n    return orphan(n - 1) if n else 0\n"
                      "\n\nclass Kept:\n    value = used()\n")
    user = tmp_path / "user.py"
    user.write_text("from module import Kept\n")
    assert _unreferenced([module], [module, user]) == {("module.py", "orphan")}

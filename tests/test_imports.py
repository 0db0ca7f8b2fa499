"""Every name a covloop module, a test file or a benchmark script imports at
module level is used in it, every private name a covloop module defines at
module level is used in that module, and every exception class covloop
defines is caught by name in some covloop module."""

import ast
from pathlib import Path

import pytest

import covloop

TESTS = Path(__file__).parent
PACKAGE = sorted(Path(covloop.__file__).parent.glob("*.py"))
MODULES = [*PACKAGE, *sorted(TESTS.glob("*.py")),
           *sorted((TESTS.parent / "perfbench").glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for stmt in tree.body
        if isinstance(stmt, ast.Import)
        or isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
        for alias in stmt.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level `_x` functions, classes and assigned names never loaded
    in the module; dunders are exempt."""
    tree = ast.parse(source)
    defined = [stmt.name for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    defined += [node.id for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in loaded]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    assert unused_imports("import os\nimport os.path as p\nfrom a import b, c\nc()\n") == [
        "os", "p", "b"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_unused_module_level_private_name(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_an_unused_private_name_is_found():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\ndef _f(): return _A\n"
              "def _g(): pass\nclass _C: pass\n_f()\n")
    assert unused_private_names(source) == ["_g", "_C", "_B"]


def caught_names(source: str) -> set[str]:
    """The names an `except` clause of the module catches."""
    caught = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(t.attr if isinstance(t, ast.Attribute) else t.id for t in types)
    return caught


def test_each_error_class_is_caught_by_name_somewhere():
    errors = (Path(covloop.__file__).parent / "errors.py").read_text(encoding="utf-8")
    classes = [stmt.name for stmt in ast.parse(errors).body
               if isinstance(stmt, ast.ClassDef)]
    caught = set().union(*(caught_names(path.read_text(encoding="utf-8")) for path in PACKAGE))
    assert [name for name in classes if name not in caught] == []


def test_a_caught_name_is_found():
    source = ("try:\n    pass\nexcept A:\n    pass\nexcept (B, m.C) as e:\n    pass\n"
              "except:\n    pass\n")
    assert caught_names(source) == {"A", "B", "C"}

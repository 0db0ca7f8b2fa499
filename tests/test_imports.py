"""Every name a covloop module, a test file or a benchmark script imports at
module level is used in it."""

import ast
from pathlib import Path

import pytest

import covloop

TESTS = Path(__file__).parent
MODULES = [*sorted(Path(covloop.__file__).parent.glob("*.py")), *sorted(TESTS.glob("*.py")),
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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    assert unused_imports("import os\nimport os.path as p\nfrom a import b, c\nc()\n") == [
        "os", "p", "b"]

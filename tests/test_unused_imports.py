"""Every name a library module, script or test file imports must be used in
that file.

``__init__`` is skipped: its imports are the package's exports. An import
line marked ``# noqa: F401`` is a deliberate re-export and is skipped too.
"""

import ast
from pathlib import Path

import pytest

import mcrecon

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in Path(mcrecon.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
OTHERS = sorted(REPO.glob("scripts/*.py")) + sorted(REPO.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_name():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\nimport z  # noqa: F401\n"
    src += "print(c, x.y)\n"
    assert unused_imports(src) == ["os (line 1)", "e (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports_in_scripts_and_tests(path):
    assert unused_imports(path.read_text()) == []


def test_scripts_and_tests_are_found():
    names = {str(p.relative_to(REPO)) for p in OTHERS}
    assert {"scripts/golden_compare.py", "tests/conftest.py", "tests/test_solver.py"} <= names

"""Every name a library module, script or test file imports must be used in
that file, and every private name the library defines must be used in it.

``__init__`` is skipped: its imports are the package's exports. An import
line marked ``# noqa: F401`` is a deliberate re-export and is skipped too.
A private name is a ``_name`` (not ``__name__``) function, class or constant
at module level, or method in a module-level class, of ``src/mcrecon``; it
is used if some module of the package loads it as a name, reads it as an
attribute or imports it.
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name (line n)`` for each private name defined in ``sources``
    (module name to source) that none of them uses."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in [tree.body, *classes]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and body is tree.body:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                defined += [(name, f"{module}:{name} (line {node.lineno})") for name in names
                            if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [where for name, where in defined if name not in used]


def test_checker_flags_an_unused_name():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\nimport z  # noqa: F401\n"
    src += "print(c, x.y)\n"
    assert unused_imports(src) == ["os (line 1)", "e (line 2)"]


def test_checker_flags_an_unused_private_name():
    a = ("_USED = 1\n_UNUSED: int = 2\n"
         "def _helper():\n    return _USED\n"
         "def _dead():\n    def _local():\n        pass\n"
         "class _Shown:\n    def __init__(self):\n        self._kept()\n"
         "    def _kept(self):\n        pass\n    def _left(self):\n        pass\n")
    b = "from .a import _helper\nprint(_helper(), _Shown)\n"
    assert unused_private_names({"a": a, "b": b}) == [
        "a:_UNUSED (line 2)", "a:_dead (line 5)", "a:_left (line 13)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports_in_scripts_and_tests(path):
    assert unused_imports(path.read_text()) == []


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in Path(mcrecon.__file__).parent.glob("*.py")}
    assert unused_private_names(sources) == []


def test_scripts_and_tests_are_found():
    names = {str(p.relative_to(REPO)) for p in OTHERS}
    assert {"scripts/golden_compare.py", "tests/conftest.py", "tests/test_solver.py"} <= names

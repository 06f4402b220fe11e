"""Every name the docs cite from one of mcrecon's modules exists there.

The README, the module docstrings and comments, and the golden-hash script
cite names such as ``solver.GRAM_MIN_ITERS`` or
``fourier.for_data_consistency(y, mask, sens)``. A name that moves or is
renamed leaves such a citation stale; this test resolves each one with
``getattr`` on the module it names.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "core", "data", "fourier", "metrics", "sampling", "sensitivity", "solver")
_MOD = "|".join(MODULES)
# `module.name` or `module.name(...)` in backticks, or module.CapitalName
# anywhere, each optionally written as mcrecon.module
REFERENCE = re.compile(rf"`(?:mcrecon\.)?({_MOD})\.(\w+)[`(]|\b(?:mcrecon\.)?({_MOD})\.([A-Z]\w*)")
SOURCES = ["README.md", *sorted(p.relative_to(ROOT).as_posix()
                               for p in (ROOT / "src" / "mcrecon").glob("*.py")),
           "scripts/golden_hashes.sh"]


def references(text: str) -> list[tuple[int, str, str]]:
    """``(line, module, name)`` of every reference in ``text``."""
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        for match in REFERENCE.finditer(line):
            module, name = match.group(1, 2) if match.group(1) else match.group(3, 4)
            found.append((number, module, name))
    return found


def test_the_pattern_finds_both_forms():
    text = ("`fourier.for_data_consistency(y, mask, sens)` and ``solver.GRAM_MIN_ITERS``\n"
            "mcrecon.solver.RowGramSteps, `mcrecon.metrics.psnr`; not data.shape or `core`")
    assert references(text) == [
        (1, "fourier", "for_data_consistency"), (1, "solver", "GRAM_MIN_ITERS"),
        (2, "solver", "RowGramSteps"), (2, "metrics", "psnr"),
    ]


def test_sources_cite_modules():
    cited = [ref for path in SOURCES for ref in references((ROOT / path).read_text())]
    assert len(cited) >= 10


@pytest.mark.parametrize("path", SOURCES)
def test_every_cited_name_exists(path):
    stale = [
        f"{path}:{line}: {module}.{name}"
        for line, module, name in references((ROOT / path).read_text())
        if not hasattr(importlib.import_module(f"mcrecon.{module}"), name)
    ]
    assert stale == []

"""Every name the docs cite from one of mcrecon's modules exists there, and
every --flag the README names is an option of the CLI.

The README, the module docstrings and comments, and the golden-hash script
cite names such as ``solver.GRAM_MIN_ITERS`` or
``fourier.for_data_consistency(y, mask, sens)``. A name that moves or is
renamed leaves such a citation stale; this test resolves each one with
``getattr`` on the module it names. A removed or renamed flag leaves the
README naming an option that no command takes; the flag check finds it.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from mcrecon import cli

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


FLAG = re.compile(r"--[A-Za-z][\w-]*")
# flags of other programs that the README names: pip's, in its install line
OTHER_FLAGS = {"--no-build-isolation"}


def unknown_flags(text: str) -> list[str]:
    """The --flags in ``text`` that no ``mcrecon`` command accepts, either as
    one of its options or, as argparse does on the command line, as the
    prefix of one (the README names ``--estimate`` for ``--estimate-sens``)."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for command in sub.choices.values() for o in command._option_string_actions}
    return [flag for flag in FLAG.findall(text)
            if flag not in OTHER_FLAGS and not any(o.startswith(flag) for o in options)]


def test_the_flag_check_finds_a_flag_no_command_takes():
    text = "`--estimate-sens`, `--estimate`, `--T 0`, `--config=FILE`; `--tv-iters` and `--w-*`"
    assert unknown_flags(text) == ["--tv-iters", "--w-"]


def test_every_readme_flag_is_a_cli_option():
    assert unknown_flags((ROOT / "README.md").read_text()) == []

"""Every name the docs cite from one of mcrecon's modules exists there, every
file they cite exists in the repo, and every --flag the README names is an
option of the CLI.

The README, the module docstrings and comments, and the golden-hash script
cite names such as ``solver.GRAM_MIN_ITERS``, ``solver.GradientSteps.stop``
or ``fourier.for_data_consistency(y, mask, sens)``, and the module
docstrings cite names of their own module as ``:meth:`GradientSteps.stop```.
A name that moves or is renamed leaves such a citation stale; this test
resolves each one, attribute by attribute, on the module it names. A citation
written as a call, such as ``make_mask(scheme, height, width, accel, seed,
acs=0)``, must also list the parameters of the signature it cites, in order;
a parameter that is added, dropped or renamed leaves it stale. The same
sources cite measurements and scripts by file (``BENCH_30.json``,
``CHANGES.md``, ``tests/test_precision.py``); the file check finds one that
is gone. A removed or renamed flag leaves the README naming an option that
no command takes; the flag check finds it.
"""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import pytest

from mcrecon import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "core", "data", "fourier", "metrics", "sampling", "sensitivity", "solver")
_MOD = "|".join(MODULES)
# `module.name` or `module.name(...)` in backticks, or module.CapitalName
# anywhere, each optionally written as mcrecon.module, and each name a dotted
# chain of attributes such as GradientSteps.stop
REFERENCE = re.compile(rf"`(?:mcrecon\.)?({_MOD})\.(\w+(?:\.\w+)*)[`(]"
                       rf"|\b(?:mcrecon\.)?({_MOD})\.([A-Z]\w*(?:\.\w+)*)")
# a Sphinx role in a module's own docstrings, such as :meth:`GradientSteps.stop`
ROLE = re.compile(r":(?:func|class|meth|data|attr):`~?([\w.]+)`")
# files the docs cite: measurements, the change log, tests and scripts
CITED_FILE = re.compile(r"\bBENCH_\d+\.json\b|\bCHANGES\.md\b"
                        r"|(?<![\w/.-])(?:perfbench/)?(?:tests|scripts)/[\w./-]*\w")
SOURCES = ["README.md", *sorted(p.relative_to(ROOT).as_posix()
                               for p in (ROOT / "src" / "mcrecon").glob("*.py")),
           "scripts/golden_hashes.sh"]


def references(text: str) -> list[tuple[int, str, str]]:
    """``(line, module, name)`` of every reference in ``text``, ``name`` the
    whole dotted chain after the module."""
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        for match in REFERENCE.finditer(line):
            module, name = match.group(1, 2) if match.group(1) else match.group(3, 4)
            found.append((number, module, name))
    return found


def resolves(owner, name: str) -> bool:
    """Whether every attribute of the dotted ``name`` exists, in turn, from
    ``owner`` down."""
    for attr in name.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def role_resolves(module, name: str) -> bool:
    """Whether a role's ``name`` resolves in ``module``, in another mcrecon
    module it starts with, or in one of ``module``'s classes (a method cited
    from its own class's docstring)."""
    head, _, rest = name.partition(".")
    if head in MODULES and rest:
        return resolves(importlib.import_module(f"mcrecon.{head}"), rest)
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)]
    return any(resolves(owner, name) for owner in [module, *classes])


def stale_names(path: str, text: str) -> list[str]:
    """The citations in ``text``, read from ``path``, that do not resolve."""
    stale = [f"{path}:{line}: {module}.{name}" for line, module, name in references(text)
             if not resolves(importlib.import_module(f"mcrecon.{module}"), name)]
    if path.startswith("src/mcrecon/"):
        stem = Path(path).stem
        module = importlib.import_module("mcrecon" if stem == "__init__" else f"mcrecon.{stem}")
        stale += [f"{path}: {name}" for name in ROLE.findall(text)
                  if not role_resolves(module, name)]
    return stale


# a call in backticks, `name(args)` or `module.Class.method(args)`
CALL = re.compile(r"`((?:\w+\.)*\w+)\(([^`()]*)\)`")


def cited_object(name: str):
    """The mcrecon function, class or method the dotted ``name`` cites, looked
    up in the module it starts with, else in ``mcrecon`` or any of its
    modules; None for a name that none of them defines, such as
    ``np.any`` or ``dc.descend``."""
    chain = name.removeprefix("mcrecon.")
    head, _, rest = chain.partition(".")
    if head in MODULES and rest:
        owners, chain = [f"mcrecon.{head}"], rest
    else:
        owners = ["mcrecon", *(f"mcrecon.{m}" for m in MODULES)]
    for owner in map(importlib.import_module, owners):
        obj = owner
        for attr in chain.split("."):
            obj = getattr(obj, attr, None)
        if callable(obj) and getattr(obj, "__module__", "").startswith("mcrecon"):
            return obj
    return None


def stale_signatures(path: str, text: str) -> list[str]:
    """The calls cited in ``text`` whose parameter names, with ``*``, ``**``
    and ``=default`` stripped, are not those of the cited signature in order,
    a leading ``self`` skipped. A call with an argument that is not a name,
    such as ``AdmmConfig.for_mode("dynamic")``, cites no signature."""
    stale = []
    for number, line in enumerate(text.splitlines(), 1):
        for name, args in CALL.findall(line):
            cited = [a.split("=")[0].strip().lstrip("*") for a in args.split(",")] if args else []
            obj = cited_object(name)
            if obj is None or not all(a.isidentifier() for a in cited):
                continue
            params = list(inspect.signature(obj).parameters)
            if params[:1] == ["self"]:
                params = params[1:]
            if cited != params:
                stale.append(f"{path}:{number}: {name}({args}), not ({', '.join(params)})")
    return stale


def missing_files(text: str) -> list[str]:
    """The files ``text`` cites that do not exist under the repo root."""
    return [name for name in CITED_FILE.findall(text) if not (ROOT / name).exists()]


def test_the_pattern_finds_both_forms():
    text = ("`fourier.for_data_consistency(y, mask, sens)` and ``solver.GRAM_MIN_ITERS``\n"
            "mcrecon.solver.RowGramSteps, `mcrecon.metrics.psnr`; not data.shape or `core`\n"
            "`solver.GradientSteps.stop` and fourier.ColumnOperator.row_gram.")
    assert references(text) == [
        (1, "fourier", "for_data_consistency"), (1, "solver", "GRAM_MIN_ITERS"),
        (2, "solver", "RowGramSteps"), (2, "metrics", "psnr"),
        (3, "solver", "GradientSteps.stop"), (3, "fourier", "ColumnOperator.row_gram"),
    ]


def test_a_dotted_citation_resolves_down_to_its_last_attribute():
    text = ("`solver.GradientSteps.stop`, solver.GradientSteps.iterate, `solver.chebyshev_values`\n"
            "`solver.GradientSteps.nope` and solver.RowGramSteps.descend.nope")
    assert stale_names("README.md", text) == [
        "README.md:2: solver.GradientSteps.nope", "README.md:2: solver.RowGramSteps.descend.nope",
    ]


def test_a_role_resolves_in_its_module_or_one_of_its_classes():
    text = (":meth:`GradientSteps.stop`, :meth:`stop`, :data:`GRAM_MIN_ITERS`, "
            ":func:`fourier.for_data_consistency`; :meth:`GradientSteps.nope`, :func:`nope`")
    assert stale_names("src/mcrecon/solver.py", text) == [
        "src/mcrecon/solver.py: GradientSteps.nope", "src/mcrecon/solver.py: nope",
    ]


def test_sources_cite_modules():
    cited = [ref for path in SOURCES for ref in references((ROOT / path).read_text())]
    assert len(cited) >= 10


@pytest.mark.parametrize("path", SOURCES)
def test_every_cited_name_exists(path):
    assert stale_names(path, (ROOT / path).read_text()) == []


def test_the_signature_check_finds_a_call_with_other_parameters():
    text = ("`make_mask(scheme, height, width, accel, seed, acs=0)`, `GradientSteps(op, y, cfg)`,"
            " `GradientSteps.stop(g, x0)`, `AdmmConfig.for_mode(mode, **given)`\n"
            "`AdmmConfig.for_mode(\"dynamic\")`, `np.any(maps != 0, axis=0)`, `dc.descend(x, w, m)`"
            "; `zero_filled_init(y, mask, sens, pair=None)` and"
            " `solver.data_consistency_step(x_in, w, m, dc)`")
    assert stale_signatures("README.md", text) == [
        "README.md:2: zero_filled_init(y, mask, sens, pair=None), not (y, mask, sens)",
        "README.md:2: solver.data_consistency_step(x_in, w, m, dc), not (x, w, m, dc)",
    ]


@pytest.mark.parametrize("path", SOURCES)
def test_every_cited_call_lists_its_parameters(path):
    assert stale_signatures(path, (ROOT / path).read_text()) == []


def test_the_file_check_finds_a_file_that_is_not_there():
    text = ("(`BENCH_30.json`, CHANGES.md) `tests/test_precision.py`, scripts/golden_hashes.sh,"
            " perfbench/tests/; `BENCH_11.json`, tests/test_nope.py, perfbench/tests/test_nope.py")
    assert missing_files(text) == ["BENCH_11.json", "tests/test_nope.py",
                                   "perfbench/tests/test_nope.py"]


@pytest.mark.parametrize("path", SOURCES)
def test_every_cited_file_exists(path):
    assert missing_files((ROOT / path).read_text()) == []


@pytest.mark.parametrize("path", SOURCES)
def test_no_source_cites_the_roadmap(path):
    """ROADMAP.md is rewritten as its items land, so a reason that cites it
    goes stale; a measurement is cited by its BENCH file or CHANGES.md."""
    assert "ROADMAP" not in (ROOT / path).read_text()


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

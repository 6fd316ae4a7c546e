"""Every ``module.name`` that the README or a docstring of the package
names in backticks must exist, and so must every bare UPPER_CASE name as a
constant of the package: a rename that misses its prose fails here."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pettylab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# a backticked reference that starts with a module of the package, as
# `bodies.full_rank` or ``projections.POLAR_RULES``
REFERENCE = re.compile(r"`(?:pettylab\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")
# a backticked UPPER_CASE name with no module, as `CERTIFY_STRIDE`; names of
# one or two letters are symbols and qhull options (`M`, `QJ`), not constants
CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]{2,})`")


def _docstrings(path: Path) -> str:
    tree = ast.parse(path.read_text())
    nodes = [tree] + [node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return "\n".join(filter(None, (ast.get_docstring(node, clean=False) for node in nodes)))


SOURCES = {"README.md": (ROOT / "README.md").read_text(),
           **{f"src/pettylab/{p.name}": _docstrings(p) for p in sorted(PACKAGE.glob("*.py"))}}


def test_the_references_are_found():
    # the pattern reads both backtick styles, and the sources name enough
    assert REFERENCE.findall("`bodies.hull` and ``harness._nodes``") == [("bodies", "hull"),
                                                                         ("harness", "_nodes")]
    assert CONSTANT.findall("``SPECS``, `M` and `bodies.POLAR_WALK_ORDER`") == ["SPECS"]
    assert sum(len(REFERENCE.findall(text)) for text in SOURCES.values()) >= 40


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_module_reference_resolves(source):
    missing = sorted({f"{module}.{name}" for module, name in REFERENCE.findall(SOURCES[source])
                      if not hasattr(importlib.import_module(f"pettylab.{module}"), name)})
    assert missing == []


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_bare_constant_is_one_of_the_package(source):
    modules = [importlib.import_module(f"pettylab.{module}") for module in MODULES]
    missing = sorted({name for name in CONSTANT.findall(SOURCES[source])
                      if not any(hasattr(module, name) for module in modules)})
    assert missing == []


def _surface() -> tuple[dict, set]:
    """The README's library surface: each backticked name of its section,
    with the module of the list line that names it."""
    section = re.search(r"^## Library surface\n(.*?)^## ", SOURCES["README.md"],
                        re.MULTILINE | re.DOTALL).group(1)
    lines = re.findall(r"^- (\w+): (.*(?:\n  .*)*)", section, re.MULTILINE)
    listed = {name: module for module, names in lines for name in re.findall(r"`(\w+)`", names)}
    return listed, set(re.findall(r"`(\w+)`", section))


def test_the_readme_lists_every_export_under_its_module():
    package = importlib.import_module("pettylab")
    exports = {name: getattr(package, name).__module__.rpartition(".")[2]
               for name in package.__all__ if not inspect.ismodule(getattr(package, name))}
    listed, named = _surface()
    assert listed == exports
    assert named == set(exports)


def _key_table() -> dict:
    """The README's table of each experiment kind's (required, optional)
    keys, read as the backticked names of each cell."""
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|(.*)\|$", SOURCES["README.md"], re.MULTILINE)
    return {kind: tuple(tuple(re.findall(r"`(\w+)`", cell)) for cell in cells)
            for kind, *cells in rows}


def test_the_readme_key_table_is_each_specs_keys():
    harness = importlib.import_module("pettylab.harness")
    assert _key_table() == {kind: spec.keys for kind, spec in harness.SPECS.items()}


def _rule_table() -> dict:
    """The README's table of each measure's polar rule rows, read as
    (first generator count, nodes) pairs, None for the walk."""
    rows = re.findall(r"^\| (Gaussian|ball) \| ((?:\(\d+, \w+\)(?:, )?)+) \|",
                      SOURCES["README.md"], re.MULTILINE)
    return {measure.lower(): tuple((int(first), None if nodes == "walk" else int(nodes))
                                   for first, nodes in re.findall(r"\((\d+), (\w+)\)", cells))
            for measure, cells in rows}


def test_the_readme_rule_table_is_the_polar_rules():
    projections = importlib.import_module("pettylab.projections")
    assert _rule_table() == projections.POLAR_RULES


def test_the_cli_runs_every_experiment_kind():
    harness = importlib.import_module("pettylab.harness")
    cli = importlib.import_module("pettylab.cli")
    commands, = [action.choices for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    # the experiment subcommands are those that take --trials
    experiments = {name for name, parser in commands.items()
                   if any("--trials" in action.option_strings for action in parser._actions)}
    replayed, = [action.choices for action in commands["replay"]._actions if action.dest == "kind"]
    assert experiments == set(harness.RUNNERS) == set(harness.SPECS) == set(replayed)

"""Every ``module.name`` that the README or a docstring of the package
names in backticks must exist: a rename that misses its prose fails here."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pettylab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# a backticked reference that starts with a module of the package, as
# `bodies.full_rank` or ``harness.POLAR_RULES``
REFERENCE = re.compile(r"`(?:pettylab\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def _docstrings(path: Path) -> str:
    tree = ast.parse(path.read_text())
    nodes = [tree] + [node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return "\n".join(filter(None, (ast.get_docstring(node, clean=False) for node in nodes)))


SOURCES = {"README.md": (ROOT / "README.md").read_text(),
           **{f"src/pettylab/{p.name}": _docstrings(p) for p in sorted(PACKAGE.glob("*.py"))}}


def test_the_references_are_found():
    # the pattern reads both backtick styles, and the sources name enough
    assert REFERENCE.findall("`bodies.hull` and ``harness._route``") == [("bodies", "hull"),
                                                                         ("harness", "_route")]
    assert sum(len(REFERENCE.findall(text)) for text in SOURCES.values()) >= 40


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_module_reference_resolves(source):
    missing = sorted({f"{module}.{name}" for module, name in REFERENCE.findall(SOURCES[source])
                      if not hasattr(importlib.import_module(f"pettylab.{module}"), name)})
    assert missing == []

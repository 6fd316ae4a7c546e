"""The demos run against the public API: three run to the end here, and
every name the slower ``random_experiments`` imports exists."""

import ast
import importlib
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["kernel_tour", "projection_products", "steiner_rounds"])
def test_demo_runs_to_the_end(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_random_experiments_imports_exist():
    tree = ast.parse((DEMOS / "random_experiments.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"

"""The scripts under tools/ run on the package as it stands."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_costs_prints_a_fixed_cost_and_a_cost_per_trial(capsys):
    tool = _tool("report_costs")
    start = time.perf_counter()
    assert tool.main(["--workload", "mixed_hull", "--experiment", "thm11_hull", "--repeats", "1"]) == 0
    assert time.perf_counter() - start < 1.0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "experiment", "fixed", "ms", "ms/trial", "trials"]
    workload, key, fixed, per_trial, trials = line.split()
    assert (workload, key, trials) == ("mixed_hull", "thm11_hull", "4")
    assert float(fixed) > 0.0 and abs(float(per_trial)) < 1e3

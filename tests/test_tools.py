"""The scripts under tools/ run on the package as it stands."""

import importlib.util
import time
from pathlib import Path

import pytest

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


def test_ab_pairs_reads_its_arguments():
    tool = _tool("ab_pairs")
    twin = Path("/" + "p" * (len(str(ROOT)) - 1))  # as long as this tree's path
    args = tool.parse_args(["--parent", str(twin), "--workload", "space", "--seed", "3"])
    assert (args.parent, args.change, args.workload, args.seed) == (twin, ROOT, "space", 3)
    assert (args.seconds, args.pairs, args.hashes) == (10.0, 10, False)
    args = tool.parse_args(["--parent", "a", "--change", "b", "--workload", "plane", "--seed",
                            "27", "--seconds", "2.5", "--pairs", "3", "--hashes"])
    assert (args.change, args.seconds, args.pairs, args.hashes) == (Path("b"), 2.5, 3, True)
    for bad in (["--pairs", "0"], ["--seconds", "0"], ["--seed", "x"]):
        with pytest.raises(SystemExit):
            tool.parse_args(["--parent", "a", "--change", "b", "--workload", "space",
                             "--seed", "3"] + bad)
    # the trees take turns to run first
    assert [tool.run_order(i)[0] for i in range(4)] == ["parent", "change", "parent", "change"]


def test_ab_pairs_refuses_trees_whose_paths_differ_in_length(capsys):
    tool = _tool("ab_pairs")
    base, side = ["--workload", "space", "--seed", "3"], ROOT.parent
    for parent, change in ((side / "parent", side / "change2"), (side / "p", side / "pa"),
                           (Path("/p"), None)):
        trees = ["--parent", str(parent)] + ([] if change is None else ["--change", str(change)])
        with pytest.raises(SystemExit):
            tool.parse_args(trees + base)
        want = f"paths of {len(str(parent))} and {len(str(change or ROOT))} characters"
        assert want in capsys.readouterr().err
    # relative paths are measured resolved, and equal lengths pass
    args = tool.parse_args(["--parent", str(side / "parent"), "--change", str(side / "change")] + base)
    assert (args.parent, args.change) == (side / "parent", side / "change")
    tool.parse_args(["--parent", "aa", "--change", "bb"] + base)
    with pytest.raises(SystemExit):
        tool.parse_args(["--parent", "aa", "--change", str(Path.cwd() / "bbb")] + base)


def test_ab_pairs_statistics_on_synthetic_runs():
    tool = _tool("ab_pairs")
    assert tool.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    parent = [100.0, 104.0, 96.0, 102.0, 98.0]
    change = [110.0, 103.0, 108.0, 112.0, 109.0]
    s = tool.compare(parent, change, higher_is_better=True)
    assert s["parent"] == (98.0, 100.0, 102.0) and s["change"][1] == 109.0
    assert s["ratio"] == pytest.approx(1.09) and s["parent_iqr_rel"] == pytest.approx(0.04)
    assert (s["wins"], s["pairs"]) == (4, 5)  # pair 1 read 104 against 103
    assert tool.compare(parent, change, higher_is_better=False)["wins"] == 1
    results = {tree: [{"metrics": {"trials_per_s": {"value": v}, "wall_s": {"value": 1.0 / v}}}
                      for v in values] for tree, values in (("parent", parent), ("change", change))}
    header, rate, wall = tool.table({"trials_per_s": True, "wall_s": False}, results)
    assert header.split()[0] == "metric"
    assert rate.split()[0] == "trials_per_s" and rate.split()[-3:] == ["1.0900", "4.0%", "4/5"]
    assert wall.split()[-1] == "4/5"

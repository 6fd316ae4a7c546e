"""Run the benchmark on two source trees in alternating pairs and compare.

    python tools/ab_pairs.py --parent DIR [--change DIR] --workload W --seed S
                             [--seconds 10] [--pairs 10] [--hashes]

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each tree, with the interpreter running this script, the parent
first in even pairs and the change first in odd ones, so that a drift of
the host's speed meets both trees alike.  The two trees' resolved paths
must have equal lengths: a run's speed moves with that length (the paced
``plane`` time by about 5%).  ``--change`` defaults to the tree
holding this script.  A run's result is the last line of its standard
output, one JSON object.  For every end-to-end metric of the change tree's
``BENCHMARK.json`` the script prints both trees' medians and quartiles,
their ratio, the parent's interquartile range over its median, and in how
many pairs the change was better in the metric's direction; then each
run's ``correct`` and ``failed``.  With ``--hashes`` it also prints both
trees' ``tools/output_hashes.py``.  The runs' result lines go to
``bench/out/ab-<workload>-seed<seed>.json`` in the change tree, beside what
``bench/run.py`` leaves there; nothing else is written.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the tree to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="the tree under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--hashes", action="store_true", help="print both trees' output hashes")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    # the paced runs' speed moves with the length of the checkout's path
    lengths = [len(str(tree.resolve())) for tree in (args.parent, args.change)]
    if lengths[0] != lengths[1]:
        parser.error(f"--parent and --change resolve to paths of {lengths[0]} and {lengths[1]} "
                     "characters; compare trees whose paths have equal lengths")
    return args


def run_order(pair: int) -> tuple:
    """The trees in the order pair ``pair`` runs them."""
    return TREES if pair % 2 == 0 else TREES[::-1]


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, higher_is_better: bool) -> dict:
    """The statistics of one metric over paired runs: parent[i] and
    change[i] ran in pair i."""
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b > a) if higher_is_better else (b < a) for a, b in zip(parent, change))
    return {"parent": p, "change": c, "ratio": c[1] / p[1],
            "parent_iqr_rel": (p[2] - p[0]) / p[1], "wins": wins, "pairs": len(parent)}


def table(metrics: dict, results: dict) -> list:
    """The lines that compare each metric of ``metrics`` (name -> higher is
    better) over ``results`` (tree -> list of result objects)."""
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
             f"{'ratio':>7} {'parent IQR':>10} {'wins':>6}"]
    for name, higher in metrics.items():
        values = {tree: [r["metrics"][name]["value"] for r in results[tree]] for tree in TREES}
        s = compare(values["parent"], values["change"], higher)
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (s["parent"], s["change"])]
        lines.append(f"{name:<14} {cells[0]:>32} {cells[1]:>32} {s['ratio']:>7.4f} "
                     f"{s['parent_iqr_rel']:>9.1%} {s['wins']:>3}/{s['pairs']:<2}")
    return lines


def end_to_end(tree: Path) -> dict:
    """name -> whether higher is better, for the tree's end-to-end metrics."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def bench_run(tree: Path, args: argparse.Namespace) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {tree: [] for tree in TREES}
    for pair in range(args.pairs):
        for tree in run_order(pair):
            results[tree].append(bench_run(trees[tree], args))
    out = trees["change"] / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"ab-{args.workload}-seed{args.seed}.json").write_text(json.dumps(results, indent=1))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(table(end_to_end(trees["change"]), results)))
    for pair in range(args.pairs):
        print(f"pair {pair}: " + "; ".join(
            f"{tree} correct={results[tree][pair]['correct']} failed={results[tree][pair]['failed']}"
            for tree in run_order(pair)))
    if args.hashes:
        for tree in TREES:
            done = subprocess.run([sys.executable, "tools/output_hashes.py"], cwd=trees[tree],
                                  capture_output=True, text=True)
            print(f"{tree} hashes:\n{done.stdout.strip() or done.stderr.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

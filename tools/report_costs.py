"""Print each benchmark report's fixed cost and its cost per trial.

    python tools/report_costs.py [--workload plane,space,mixed_hull]
                                 [--experiment KEY] [--repeats 5] [--index 0]

For every experiment of the ``plane``, ``space`` and ``mixed_hull``
workloads (``workloads.experiments`` on input set ``--index``) the script
runs the report serially, in this process, at 1 trial a side and at the
workload's own trial count, each the best of ``--repeats`` runs after one
warm-up call.  It prints the first time as the report's fixed cost and the
slope between the two, over the trials the reports ran (both sides, or
every row of a sweep), as its cost per trial.  A kind's fixed cost is what
a report pays for its calls rather than its trials: parsing, drawing set-up
and each kernel's calls on a stack.  The script imports
``bench/workloads.py`` as it stands and writes nothing.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

import workloads  # noqa: E402

WORKLOADS = ("plane", "space", "mixed_hull")


def best_time(run, config: dict, repeats: int) -> tuple:
    """(seconds, trials): the fastest of ``repeats`` serial runs of the
    report, and the trials it ran."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        report = run(config, threads=1)
        best = min(best, time.perf_counter() - start)
    return best, workloads.report_trials(report)


def report_costs(workload: str, repeats: int, index: int = 0, only: str | None = None) -> list:
    """(key, fixed seconds, seconds per trial, trials) for each experiment
    of ``workload`` (only ``only`` when given)."""
    from pettylab import harness

    rows = []
    for key, _, runner, config in workloads.experiments(workload, index):
        if only is not None and key != only:
            continue
        run = getattr(harness, runner)
        one = dict(config, trials=1)
        run(one, threads=1)  # lazy imports, node sets and memos
        fixed, first = best_time(run, one, repeats)
        total, trials = best_time(run, config, repeats)
        rows.append((key, fixed, (total - fixed) / max(trials - first, 1), trials))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=",".join(WORKLOADS))
    parser.add_argument("--experiment", default=None, help="one experiment key")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--index", type=int, default=0, help="input set")
    args = parser.parse_args(argv)
    print(f"{'workload':11s} {'experiment':20s} {'fixed ms':>9s} {'ms/trial':>9s} {'trials':>7s}")
    for workload in args.workload.split(","):
        if workload not in WORKLOADS:
            parser.error(f"--workload takes {', '.join(WORKLOADS)}, got {workload!r}")
        for key, fixed, per_trial, trials in report_costs(workload, args.repeats, args.index,
                                                          args.experiment):
            print(f"{workload:11s} {key:20s} {1e3 * fixed:9.3f} {1e3 * per_trial:9.4f} {trials:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

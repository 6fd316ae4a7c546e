"""Record the reference outputs that the benchmark's output check compares.

For every Monte Carlo workload and input set, runs each report once and
stores its verdict, diagnostics and per-side means and standard errors in
``reference.json``.  Record on a commit whose answers are trusted, never on
the change being measured:

    python3 bench/record.py                      # every workload
    python3 bench/record.py --workload mixed_hull
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

RECORDED = ("plane", "space", "mixed_hull")


def record(workload: str) -> dict:
    from pettylab import harness

    out = {}
    for index in range(workloads.INPUT_SETS):
        refs = {}
        for key, _, runner, config in workloads.experiments(workload, index):
            report = getattr(harness, runner)(config, threads=1)
            refs[key] = workloads.fingerprint(report)
        out[str(index)] = refs
        print(f"{workload} input set {index} recorded", file=sys.stderr, flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=RECORDED, action="append")
    args = parser.parse_args()
    os.environ.pop("PETTY_LAB_THREADS", None)
    path = BENCH / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or RECORDED:
        data[workload] = record(workload)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one fresh-process set-up of a workload and print it in seconds.

Set-up is ``import pettylab`` plus one tiny warm-up call per experiment of
the workload.  ``run.py`` starts this script a fixed number of times,
between its timed units, and reports the median, paced by the reference
loop, as ``setup_s``:

    python3 bench/setup_probe.py plane
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports no pettylab at load)


def main() -> int:
    os.environ.pop("PETTY_LAB_THREADS", None)
    start = time.perf_counter()
    import pettylab  # noqa: F401

    workloads.warm_up(sys.argv[1])
    print(f"{time.perf_counter() - start!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

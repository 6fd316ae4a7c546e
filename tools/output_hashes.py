"""Print the two sha256 values that show whether a change kept the
benchmark's outputs.

    python tools/output_hashes.py

The first line hashes the UTF-8 text of every report that
``workloads.run_unit`` returns for the ``plane``, ``space`` and
``mixed_hull`` workloads over input sets 0-31, in that order.  The second
hashes ``repr`` of the ``kernel`` outputs (each call's name, verdict and
detail) of input sets 0, 3 and 24.  The script imports ``bench/workloads.py``
as it stands and writes nothing.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

import workloads  # noqa: E402


def report_hash() -> str:
    digest = hashlib.sha256()
    for workload in ("plane", "space", "mixed_hull"):
        for index in range(workloads.INPUT_SETS):
            for text in workloads.run_unit(workload, index).outputs:
                digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def kernel_hash() -> str:
    outputs = [workloads.run_unit("kernel", index).outputs for index in (0, 3, 24)]
    return hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()


if __name__ == "__main__":
    print(f"plane, space, mixed_hull reports: {report_hash()}")
    print(f"kernel outputs of sets 0, 3, 24:  {kernel_hash()}")

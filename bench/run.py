"""pettylab benchmark: one workload, timed from outside, outputs checked.

    python3 bench/run.py --workload plane --seed 3 --seconds 10 --trace 0

Runs from the root of a source checkout and imports pettylab from its
``src`` directory.  With ``--trace 0`` it prints the end-to-end metrics,
timed against the reference loop of ``refloop.py`` so that most of the
host's drifting speed cancels; with ``--trace 1`` it alternates untraced and traced units and prints the
per-layer metrics from spans recorded around pettylab's public functions.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREADS_ENV = "PETTY_LAB_THREADS"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh-process set-up probes per untraced run, spread over its timed units.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

KINDS = ("thm12_2d", "empmixed_2d", "emppetty2", "lln", "thm12_3d",
         "thm11_zono", "cor13", "empmixed_3d", "thm11_hull")


def metric_units(section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def _pin_blas() -> dict:
    """Run BLAS on one thread in this process and its children; return the
    caller's settings.  A second BLAS thread on a shared 2-vCPU host spins
    against the other tenants and made unit times both slower and noisier."""
    was = {k: os.environ.get(k) for k in BLAS_ENV}
    for k in BLAS_ENV:
        os.environ[k] = "1"
    return was


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_setup(workload: str) -> float:
    """Seconds of one fresh-process set-up of the workload."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def probe_setup_paced(workload: str) -> float:
    """One set-up probe as a multiple of the median reference-loop pass of
    the blocks just before and just after it."""
    import refloop

    before = refloop.block()
    took = probe_setup(workload)
    return took / statistics.median(before + refloop.block())


def environment(seed: int, index: int, threads_env_was: str | None,
                blas_was: dict) -> dict:
    import numpy
    import scipy

    from workloads import HELDOUT_SETS

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = got.stdout.strip() if got.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pettylab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_env_in_caller": blas_was,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": 1,
        f"{THREADS_ENV}_unset": True,
        f"{THREADS_ENV}_in_caller": threads_env_was,
        "seed": seed,
        "input_set": index,
        "heldout": index in HELDOUT_SETS,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Totals:
    """Sums of the tracer summaries over the traced units."""

    def __init__(self):
        self.units = 0
        self.sums: dict = {}
        self.gaps: list = []
        self.spans = 0

    def add(self, summary: dict):
        self.units += 1
        for key in ("calls", "self_s", "counts", "hulls_under", "module_self_s"):
            bucket = self.sums.setdefault(key, {})
            for name, value in summary[key].items():
                bucket[name] = bucket.get(name, 0) + value
        self.sums["cubature"] = self.sums.get("cubature", 0.0) + summary["cubature_self_s"]
        self.gaps.extend(summary["trial_gaps_ms"])
        self.spans += summary["spans"]

    def per_unit(self, key: str, name: str) -> float:
        return self.sums.get(key, {}).get(name, 0) / max(self.units, 1)


def per_layer_metrics(t: Totals, overhead_s, kind_rates, degenerate_frac,
                      verify_failed) -> dict:
    calls = lambda n: t.per_unit("calls", n)  # noqa: E731
    self_s = lambda n: t.per_unit("self_s", n)  # noqa: E731
    counts = lambda n: t.per_unit("counts", n)  # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "sampling.sample.calls": calls("sampling.sample"),
        "sampling.sample.points": counts("sampling.sample"),
        "sampling.sample.self_s": self_s("sampling.sample"),
        "sampling.stream.calls": calls("sampling.stream"),
        "sampling.stream.self_s": self_s("sampling.stream"),
        "bodies.hull.calls": calls("bodies.hull"),
        "bodies.hull.points_in": counts("bodies.hull"),
        "bodies.hull.self_s": self_s("bodies.hull"),
        "bodies.volume.self_s": self_s("bodies.volume"),
        "bodies.volume_of_points.calls": calls("bodies.volume_of_points"),
        "bodies.volume_of_points.self_s": self_s("bodies.volume_of_points"),
        "bodies.support_batch.calls": calls("bodies.support_batch"),
        "bodies.support_batch.directions": counts("bodies.support_batch"),
        "bodies.support_batch.self_s": self_s("bodies.support_batch"),
        "bodies.zonotope_to_vpolytope.self_s": self_s("bodies.zonotope_to_vpolytope"),
        "bodies.degenerate_frac": degenerate_frac,
        "mixed.facets.calls": calls("mixed.facets"),
        "mixed.facets.self_s": self_s("mixed.facets"),
        "mixed.mixed_volume.calls": calls("mixed.mixed_volume"),
        "mixed.mixed_volume.self_s": self_s("mixed.mixed_volume"),
        "mixed.mixed_volume.hulls_per_call": ratio(
            t.per_unit("hulls_under", "mixed.mixed_volume"), calls("mixed.mixed_volume")),
        "mixed.v1.calls": calls("mixed.v1"),
        "mixed.v1.self_s": self_s("mixed.v1"),
        "projections.projection_body.calls": calls("projections.projection_body"),
        "projections.projection_body.self_s": self_s("projections.projection_body"),
        "projections.support_eval.calls": calls("projections.support_eval"),
        "projections.support_eval.directions": counts("projections.support_eval"),
        "projections.support_eval.self_s": self_s("projections.support_eval"),
        "projections.support_eval.hulls_per_direction": ratio(
            t.per_unit("hulls_under", "projections.support_eval"),
            counts("projections.support_eval")),
        "projections.polar_measure.calls": calls("projections.polar_measure"),
        "projections.polar_measure.nodes": counts("projections.polar_measure"),
        "projections.polar_measure.self_s": (self_s("projections.polar_measure")
                                             + self_s("projections.polar_quadrature")),
        "projections.centroid_body_support.self_s": self_s("projections.centroid_body_support"),
        "projections.petty_product.calls": calls("projections.petty_product"),
        "projections.petty_product.self_s": self_s("projections.petty_product"),
        "symmetrize.steiner.calls": calls("symmetrize.steiner"),
        "symmetrize.steiner.self_s": self_s("symmetrize.steiner"),
        "symmetrize.steiner.vertices_out": counts("symmetrize.steiner"),
        "harness.trial_ms_p50": _percentile(t.gaps, 0.50),
        "harness.trial_ms_p99": _percentile(t.gaps, 0.99),
        "harness.trial_ms.samples": len(t.gaps),
        "stats.summarize.self_s": self_s("stats.summarize"),
        "verify.checks.self_s": t.per_unit("module_self_s", "verify"),
        "verify.checks.failed": verify_failed,
        "verify.centroid_cubature.self_s": t.sums.get("cubature", 0.0) / max(t.units, 1),
        "trace.overhead_s": overhead_s,
        "trace.spans": t.spans / max(t.units, 1),
    }
    for layer in ("sampling", "bodies", "mixed", "projections", "harness"):
        values[f"{layer}.self_s"] = t.per_unit("module_self_s", layer)
    for kind in KINDS:
        values[f"harness.{kind}.trials_per_s"] = kind_rates.get(kind, 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads
    from workloads import Check

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if not (SRC / "pettylab" / "__init__.py").is_file():
        return _fail(f"no pettylab sources under {SRC}; run from a source checkout")

    threads_env_was = os.environ.pop(THREADS_ENV, None)
    blas_was = _pin_blas()
    sys.path.insert(0, str(SRC))
    index = workloads.input_set(args.seed)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    references = None
    if args.workload != "kernel":
        with open(BENCH / "reference.json") as fh:
            references = json.load(fh).get(args.workload, {})

    import pettylab

    if Path(pettylab.__file__).resolve().parent != (SRC / "pettylab").resolve():
        return _fail(f"imported pettylab from {pettylab.__file__}, not from {SRC}")
    workloads.warm_up(args.workload)
    import refloop

    refloop.block()

    if args.trace:
        from spans import Tracer
    timed = workloads.TIMED_UNITS[args.workload]
    probes = 0 if args.trace else SETUP_PROBES
    setup: list = []
    tracer = None
    checks: list = []
    untraced, traced = [], []
    op_times: dict = {}
    op_ratios: dict = {}
    kinds: dict = {}
    first_outputs = None
    totals = Totals()
    degenerate = trials_seen = 0
    start = time.perf_counter()
    unit = 0
    try:
        while True:
            # Set-up probes run between the timed units, so that they meet
            # the same stretches of host speed as the timing does.
            while len(setup) < probes * min(len(untraced), timed) // timed:
                setup.append(probe_setup_paced(args.workload))
            traced_unit = bool(args.trace) and unit % 2 == 1
            if traced_unit:
                tracer = tracer or Tracer()
                tracer.reset()
                tracer.install()
            try:
                res = workloads.run_unit(
                    args.workload, index, references,
                    pacer=None if args.trace else refloop.Pacer())
            finally:
                if traced_unit:
                    tracer.uninstall()
            (traced if traced_unit else untraced).append(sum(res.times.values()))
            checks.extend(res.checks)
            if first_outputs is None:
                first_outputs = res.outputs
            else:
                checks.append(Check(
                    f"unit {unit} ({'traced' if traced_unit else 'untraced'}) "
                    "outputs identical to unit 0", res.outputs == first_outputs))
            if traced_unit:
                totals.add(tracer.summary())
            else:
                kinds.update(res.kinds)
            for key, value in res.times.items():
                op_times.setdefault((traced_unit, key), []).append(value)
                if not args.trace:
                    op_ratios.setdefault(key, []).append(value / res.ref[key])
            degenerate += res.degenerate
            trials_seen += res.trials
            unit += 1
            enough = len(untraced) >= timed and (not args.trace or len(traced) >= timed)
            if enough and time.perf_counter() - start >= args.seconds:
                break
        while len(setup) < probes:
            setup.append(probe_setup_paced(args.workload))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    failed = [c for c in checks if not c.ok]
    for c in failed:
        print(f"bench: check failed: {c.name}: {c.detail}", file=sys.stderr)
    # Each operation's fastest raw time over the first ``timed`` units of
    # its kind, for the per-layer rates.  The repeat count is fixed per
    # workload so that the estimate does not sharpen as the program gets
    # faster.
    best = {(in_trace, key): min(values[:timed])
            for (in_trace, key), values in op_times.items()}
    wall = sum(v for (in_trace, _), v in best.items() if not in_trace)
    # End to end: each operation's median time over the same units as a
    # multiple of the median reference-loop pass timed around and during
    # it, in seconds of a host on which one pass takes REFERENCE_PASS_S.
    # The host's speed moves by up to 2x within minutes; the ratio to the
    # loop cancels most of it.
    paced = {key: refloop.REFERENCE_PASS_S * statistics.median(values[:timed])
             for key, values in op_ratios.items()}
    paced_wall = sum(paced.values())
    if args.trace:
        kind_time: dict = {}
        kind_trials: dict = {}
        for key, (kind, trials) in kinds.items():
            kind_time[kind] = kind_time.get(kind, 0.0) + best[(False, key)]
            kind_trials[kind] = kind_trials.get(kind, 0) + trials
        kind_rates = {kind: kind_trials[kind] / kind_time[kind] for kind in kind_time}
        traced_wall = sum(v for (in_trace, _), v in best.items() if in_trace)
        metrics = per_layer_metrics(
            totals, traced_wall - wall, kind_rates,
            degenerate / trials_seen if trials_seen else 0.0,
            sum(1 for c in failed if c.name.startswith("verify:")) / unit)
    else:
        work = sum(trials for _, trials in kinds.values()) if kinds else len(best)
        metrics = {
            "trials_per_s": work / paced_wall,
            "wall_s": paced_wall,
            # paced like wall_s, over a fixed number of fresh processes
            "setup_s": refloop.REFERENCE_PASS_S * statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(units):
        return _fail("metrics computed differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit_}
                    for name, unit_ in units.items()},
    }
    env = environment(args.seed, index, threads_env_was, blas_was)
    env.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
               timed_units=timed, raw_wall_s=wall, paced_op_s=paced,
               unit_s_median=_median(untraced),
               unit_s_p90=_percentile(untraced, 0.9), units_untraced=untraced,
               units_traced=traced, setup_samples=setup)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.tsv.gz")
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"env": env, "result": result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

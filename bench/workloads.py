"""The benchmark's four workloads: inputs from a seed, one unit of fixed work,
and the output checks that feed the failure count.

A workload's unit is the fixed work that one timing covers.  ``run_unit``
calls the public pettylab API exactly as a user would (``threads=1``, no
process pool) and returns the outputs it produced (canonical report bytes,
or each kernel call's verdict and detail) plus one ``Check`` per operation
attempted.  Nothing here imports pettylab at module load, so
``setup_probe.py`` can time a fresh ``import pettylab``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# Reference outputs exist for this many input sets; --seed selects one.
INPUT_SETS = 32
# Input sets never used while this benchmark was tuned; recheck claims here.
HELDOUT_SETS = range(24, 32)

# A side's mean may differ from the recorded value by this share of it.
# The trials are seeded, so a correct change moves a mean only by its
# quadrature error, at most 8.5e-4 relative on the 3-D grid; a tolerance
# tied to the report's own stderr would let wrong answers of several
# percent through on the noisy few-trial reports.
MEAN_TOL_REL = 2e-3

# Untraced units whose times feed ``wall_s``, the same number on every
# commit so that a faster program is not also measured with more repeats
# (15-30 s of work on a 2-vCPU Xeon).
TIMED_UNITS = {"plane": 12, "space": 8, "mixed_hull": 2, "kernel": 3}

BALL_VALUE = {2: math.pi ** 2 / 4.0, 3: 64.0 / 27.0}
# Quadrature products carry the grid error on top of the exact bound.
QUAD_PRODUCT_SLACK = 1.01
STEINER_DRIFT_TOL = 1e-8
MIRROR_TOL = 1e-7

WORKLOADS = ("plane", "space", "mixed_hull", "kernel")

_TRI_SIDE = math.sqrt(2.0 * math.pi)
TRIANGLE_PI = {"type": "polygon",
               "vertices": [[0.0, 0.0], [_TRI_SIDE, 0.0], [0.0, _TRI_SIDE]]}
SQUARE = {"type": "cube", "dim": 2}
SQUARE_PI = {"type": "cube", "dim": 2, "half": math.sqrt(math.pi) / 2.0}
CUBE3 = {"type": "cube", "dim": 3}
SIMPLEX3 = {"type": "simplex", "dim": 3}


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def config_seed(index: int) -> int:
    return 1000 + index


# ---------------------------------------------------------------------------
# experiment configs: (key, kind label, runner name, config)


def _uniform(body: dict, m: int) -> dict:
    return {"density": {"type": "uniform", "body": body}, "m": m}


def experiments(workload: str, index: int) -> list:
    """The reports one unit of a Monte Carlo workload runs, in order."""
    s = config_seed(index)
    if workload == "plane":
        thm12 = {"dim": 2, "trials": 100, "blocks": [_uniform(TRIANGLE_PI, 4)],
                 "c_set": {"kind": "simplex", "m": 4}}
        return [
            ("thm12_2d_lebesgue", "thm12_2d", "run_theorem_1_2",
             dict(thm12, seed=s, measure={"type": "lebesgue"})),
            ("thm12_2d_gaussian", "thm12_2d", "run_theorem_1_2",
             dict(thm12, seed=s + 1, measure={"type": "gaussian", "sigma": 1.0})),
            ("empmixed_2d", "empmixed_2d", "run_emp_mixed",
             {"dim": 2, "seed": s + 2, "trials": 250,
              "blocks": [_uniform(SQUARE_PI, 4)],
              "c_sets": [{"kind": "simplex", "m": 4}]}),
            ("emppetty2", "emppetty2", "run_emp_petty_2",
             {"dim": 2, "seed": s + 3, "trials": 200, "body": SQUARE,
              "m1": 4, "m2": 4}),
            ("lln", "lln", "run_lln",
             {"dim": 2, "seed": s + 4, "trials": 200, "body": SQUARE,
              "m1_list": [64], "m2_list": [64]}),
        ]
    if workload == "space":
        gauss = {"type": "gaussian", "sigma": 1.0}
        return [
            ("thm12_3d", "thm12_3d", "run_theorem_1_2",
             {"dim": 3, "seed": s, "trials": 100, "blocks": [_uniform(CUBE3, 4)],
              "c_set": {"kind": "simplex", "m": 4}, "measure": gauss}),
            ("thm11_zono", "thm11_zono", "run_theorem_1_1",
             {"dim": 3, "seed": s + 1, "trials": 100,
              "blocks": [_uniform(CUBE3, 3), {"density": gauss, "m": 3}],
              "c_sets": [{"kind": "cube", "m": 3}, {"kind": "cube", "m": 3}],
              "measure": gauss}),
            ("cor13", "cor13", "run_corollary_1_3",
             {"dim": 3, "seed": s + 2, "trials": 30, "bodies": [CUBE3, SIMPLEX3],
              "m": 8, "measure": gauss}),
            ("empmixed_3d", "empmixed_3d", "run_emp_mixed",
             {"dim": 3, "seed": s + 3, "trials": 12,
              "blocks": [_uniform(CUBE3, 4), _uniform(SIMPLEX3, 4)],
              "c_sets": [{"kind": "simplex", "m": 4}, {"kind": "simplex", "m": 4}],
              "ball_slots": 1}),
        ]
    if workload == "mixed_hull":
        return [
            ("thm11_hull", "thm11_hull", "run_theorem_1_1",
             {"dim": 3, "seed": s, "trials": 2,
              "blocks": [_uniform(CUBE3, 4), _uniform(SIMPLEX3, 4)],
              "c_sets": [{"kind": "simplex", "m": 4}, {"kind": "simplex", "m": 4}],
              "measure": {"type": "gaussian", "sigma": 1.0}}),
        ]
    raise ValueError(f"{workload} has no Monte Carlo experiments")


def report_trials(report: dict) -> int:
    """Trials a report ran, over both sides (lln: over every row)."""
    if "rows" in report:
        return report["trials"] * len(report["rows"])
    return 2 * report["trials"]


def fingerprint(report: dict) -> dict:
    """The parts of a report the output check compares."""
    out = {"verdict": report["verdict"], "diagnostics": report["diagnostics"]}
    if "rows" in report:
        out["sides"] = {f"row{i}": {"mean": r["estimate"]["mean"],
                                    "stderr": r["estimate"]["stderr"]}
                        for i, r in enumerate(report["rows"])}
    else:
        out["sides"] = {side: {"mean": report[side]["mean"],
                               "stderr": report[side]["stderr"]}
                        for side in ("lhs", "rhs")}
    return out


def compare(got: dict, ref: dict) -> str | None:
    """None when a report fingerprint matches its reference, else why not."""
    if got["verdict"] != ref["verdict"]:
        return f"verdict {got['verdict']} != {ref['verdict']}"
    if got["diagnostics"] != ref["diagnostics"]:
        return f"diagnostics {got['diagnostics']} != {ref['diagnostics']}"
    for side, r in ref["sides"].items():
        g = got["sides"].get(side)
        if g is None:
            return f"missing side {side}"
        tol = MEAN_TOL_REL * abs(r["mean"])
        if not abs(g["mean"] - r["mean"]) <= tol:
            return f"{side} mean {g['mean']!r} vs {r['mean']!r} (tol {tol:.3g})"
    return None


# ---------------------------------------------------------------------------
# units


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class UnitResult:
    """What one unit produced: its outputs (report bytes, or for ``kernel``
    each call's name, verdict and detail), checks, and per operation its
    wall time, the reference loop's time around it and, for reports, its
    experiment kind and trial count."""

    outputs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    times: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)
    degenerate: int = 0

    @property
    def trials(self) -> int:
        return sum(trials for _, trials in self.kinds.values())


class Clock:
    """Times operations; with a ``refloop.Pacer``, also the reference loop
    around and during each, and leaves the pacer's own time out."""

    def __init__(self, pacer=None):
        self.pacer = pacer
        self.t0 = 0.0

    def start(self):
        self.t0 = time.perf_counter()
        if self.pacer is not None:
            self.pacer.start()

    def stop(self) -> tuple:
        """(seconds of the operation, median reference pass or None)"""
        if self.pacer is None:
            return time.perf_counter() - self.t0, None
        busy = self.pacer.halt()
        took = time.perf_counter() - self.t0 - busy
        return took, self.pacer.reference()


def _run_experiments(workload: str, index: int, references: dict | None,
                     out: UnitResult, clock: Clock):
    from pettylab import harness

    refs = (references or {}).get(str(index), {})
    for key, kind, runner, config in experiments(workload, index):
        clock.start()
        try:
            report = getattr(harness, runner)(config, threads=1)
        except Exception as exc:  # a raising report is a failed operation
            clock.stop()
            out.checks.append(Check(key, False, f"raised {exc!r}"))
            continue
        out.times[key], out.ref[key] = clock.stop()
        out.kinds[key] = (kind, report_trials(report))
        out.outputs.append(harness.report_to_json(report))
        out.degenerate += report["diagnostics"]["degenerate_hulls"]
        ref = refs.get(key)
        if ref is None:
            out.checks.append(Check(key, False, "no reference recorded"))
        else:
            why = compare(fingerprint(report), ref)
            out.checks.append(Check(key, why is None, why or ""))


def _kernel_unit(index: int, out: UnitResult, clock: Clock):
    """Deterministic kernel calls on seeded single larger bodies."""
    import numpy as np

    import pettylab
    from pettylab import verify

    gen = np.random.default_rng(config_seed(index))

    def op(name, fn):
        clock.start()
        try:
            ok, detail = fn()
        except Exception as exc:  # a raising call is a failed operation
            clock.stop()
            ok, detail = False, f"raised {exc!r}"
        else:
            out.times[name], out.ref[name] = clock.stop()
        out.checks.append(Check(name, bool(ok), detail))

    def products(dim, count, points, method, limit):
        def run():
            worst = 0.0
            for _ in range(count):
                K = pettylab.hull(gen.normal(size=(points, dim)))
                worst = max(worst, pettylab.petty_product(K, method=method))
            ratio = worst / BALL_VALUE[dim]
            return ratio <= limit, f"worst product / ball value {ratio:.6f}"
        return run

    op("petty_product exact 2-D", products(2, 400, 40, "exact", 1.0 + 1e-9))
    op("petty_product exact 3-D", products(3, 50, 40, "exact", 1.0 + 1e-9))
    op("petty_product quadrature 2-D", products(2, 100, 40, "quadrature",
                                                QUAD_PRODUCT_SLACK))
    op("petty_product quadrature 3-D", products(3, 30, 40, "quadrature",
                                                QUAD_PRODUCT_SLACK))

    def cauchy():
        worst = math.inf
        for dim, count in ((2, 30), (3, 30)):
            for _ in range(count):
                K = pettylab.hull(gen.normal(size=(40, dim)))
                worst = min(worst, pettylab.cauchy_surface_bound_defect(K)
                            / pettylab.surface_area(K))
        return worst >= -1e-9, f"worst relative defect {worst:.2e}"

    op("cauchy_surface_bound_defect", cauchy)

    def chain(dim, rounds, points):
        # 3-D chains stop at 3 rounds: round 4 asks for an array of
        # hundreds of MiB in the segment-crossing step (see README.md).
        def run():
            K = pettylab.hull(gen.normal(size=(points, dim)))
            vol0 = pettylab.volume(K)
            drift = 0.0
            mirror = 0.0
            U = pettylab.sphere_directions(dim, 32)
            for _ in range(rounds):
                u = gen.normal(size=dim)
                u /= np.linalg.norm(u)
                K = pettylab.steiner_symmetrize(K, u)
                drift = max(drift, abs(pettylab.volume(K) - vol0) / vol0)
                R = U - 2.0 * np.outer(U @ u, u)
                mirror = max(mirror, float(np.max(np.abs(
                    K.support_batch(U) - K.support_batch(R)))))
            ok = drift <= STEINER_DRIFT_TOL and mirror <= MIRROR_TOL
            return ok, (f"{len(K.vertices)} vertices, volume drift {drift:.1e}, "
                        f"mirror defect {mirror:.1e}")
        return run

    for k in range(4):
        op(f"steiner chain 2-D #{k}", chain(2, 8, 8))
    for k in range(6):
        op(f"steiner chain 3-D #{k}", chain(3, 3, 12))

    for name, fn in verify.CHECKS:
        op(f"verify: {name}", fn)
    out.outputs = [(c.name, c.ok, c.detail) for c in out.checks]


def run_unit(workload: str, index: int, references: dict | None = None,
             pacer=None) -> UnitResult:
    """One unit of the workload's fixed work on input set ``index``; with a
    ``refloop.Pacer``, the reference loop is timed around and during every
    operation."""
    out = UnitResult()
    clock = Clock(pacer)
    if workload == "kernel":
        _kernel_unit(index, out, clock)
    else:
        _run_experiments(workload, index, references, out, clock)
    return out


def warm_up(workload: str):
    """One tiny call per experiment of the workload, so that lazy imports,
    ``_grid`` node sets, density triangulations and polar projection
    polytopes are built before timing starts."""
    import numpy as np

    import pettylab
    from pettylab import harness, verify

    if workload == "kernel":
        gen = np.random.default_rng(0)
        for dim in (2, 3):
            K = pettylab.hull(gen.normal(size=(12, dim)))
            pettylab.petty_product(K, method="exact")
            pettylab.petty_product(K, method="quadrature")
            pettylab.cauchy_surface_bound_defect(K)
            pettylab.steiner_symmetrize(K, gen.normal(size=dim))
        verify.check_projection_of_cube()
        return
    for _, _, runner, config in experiments(workload, 0):
        tiny = dict(config, trials=1)
        if workload == "mixed_hull":
            # the polarization path at a handful of nodes, then the default
            # 3-D node set through the cheap zonotope route
            tiny["quadrature"] = {"nodes": 16}
            getattr(harness, runner)(tiny, threads=1)
            tiny = dict(tiny, c_sets=[{"kind": "cube", "m": 4}] * 2)
            del tiny["quadrature"]
        getattr(harness, runner)(tiny, threads=1)

"""Spans around pettylab's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules in
every ``pettylab`` namespace that bound it, plus a few methods, with a
wrapper that records a span (name, start, end, parent, count) in memory.
``uninstall`` puts the originals back, so untraced units run the program
untouched.  The wrappers return what the wrapped call returned, so traced
reports must be byte-identical to untraced ones; the benchmark checks that.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("bodies", "sampling", "mixed", "projections", "symmetrize",
           "harness", "stats", "verify")

# Helpers called once per cubature grid point or per array conversion: a
# span each would cost more than their work.  Their time stays in the
# caller's self time.
UNWRAPPED = {"pettylab.verify.point_in_polygon", "pettylab.bodies.as_points"}

# Span names where the metric name differs from "<module>.<function>".
SPAN_NAMES = {
    "pettylab.symmetrize.steiner_symmetrize": "symmetrize.steiner",
    "pettylab.projections.projection_body_of_zonotope": "projections.projection_body",
    "pettylab.projections.polar_measure_from_support": "projections.polar_measure",
    "pettylab.projections.polar_measure": "projections.polar_quadrature",
}

HULL_SPANS = ("bodies.hull", "bodies.volume_of_points")


def _rows(U) -> int:
    shape = np.shape(U)
    return shape[0] if len(shape) == 2 else 1


# span name -> count recorded with the span: f(args, kwargs, result)
COUNTS = {
    "bodies.hull": lambda a, k, out: len(a[0]),
    "bodies.support_batch": lambda a, k, out: _rows(a[1]),
    "sampling.sample": lambda a, k, out: int(a[2] if len(a) > 2 else k["count"]),
    "projections.support_eval": lambda a, k, out: _rows(a[1]),
    "projections.polar_measure": lambda a, k, out: len(a[0]),
    "symmetrize.steiner": lambda a, k, out: len(out.vertices),
}


class Tracer:
    """In-memory span recorder; one list entry per call of a wrapped name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, fn, name_of, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name_of(args), clock(), 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec[4] = count(args, kwargs, out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _fixed(self, name: str):
        nid = self._id(name)
        return lambda args: nid

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"pettylab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                qual = f"{mod.__name__}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in UNWRAPPED):
                    continue
                name = SPAN_NAMES.get(qual, f"{short}.{attr}")
                wrapped[id(obj)] = (obj, self._wrap(obj, self._fixed(name),
                                                    COUNTS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "pettylab" and not modname.startswith("pettylab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        # the check list holds the check functions themselves
        verify = mods["verify"]
        self._patch(verify, "CHECKS", [
            (label, wrapped[id(fn)][1] if id(fn) in wrapped else fn)
            for label, fn in verify.CHECKS
        ])

        bodies, proj, sampling = mods["bodies"], mods["projections"], mods["sampling"]
        for cls in (bodies.VPolytope, bodies.Zonotope):
            self._method(cls, "support_batch", self._fixed("bodies.support_batch"),
                         COUNTS["bodies.support_batch"])
        self._method(sampling.Density, "sample", self._fixed("sampling.sample"),
                     COUNTS["sampling.sample"])
        self._method(sampling.RngStream, "generator", self._fixed("sampling.stream"))
        # evaluators built by centroid_body_support are that layer's cost
        support_eval = self._id("projections.support_eval")
        centroid = self._id("projections.centroid_body_support")
        self._method(
            proj.SupportEvaluator, "__call__",
            lambda args: centroid if args[0].provenance == "centroid-exact" else support_eval,
            COUNTS["projections.support_eval"])

    def _method(self, cls, attr: str, name_of, count=None):
        self._patch(cls, attr, self._wrap(cls.__dict__[attr], name_of, count))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        del self._stack[1:]

    # -----------------------------------------------------------------------
    # reading the spans

    def summary(self) -> dict:
        """Per-name totals of the recorded spans plus the derived ratios."""
        names, spans = self.names, self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls: dict = {}
        self_s: dict = {}
        counts: dict = {}
        for i, s in enumerate(spans):
            name = names[s[0]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            counts[name] = counts.get(name, 0) + s[4]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        hull_ids = {self._ids[h] for h in HULL_SPANS if h in self._ids}
        under = {"mixed.mixed_volume": 0, "projections.support_eval": 0}
        cubature_self = 0.0
        cubature = self._ids.get("verify.check_centroid_support_cubature")
        for i, s in enumerate(spans):
            if s[0] in hull_ids:
                seen = {names[spans[p][0]] for p in ancestors(i)}
                for key in under:
                    under[key] += key in seen
            if cubature is not None and names[s[0]].startswith("verify."):
                if s[0] == cubature or any(spans[p][0] == cubature for p in ancestors(i)):
                    cubature_self += dur[i] - child[i]

        # gaps between successive per-trial streams of one run_trials call
        gaps = []
        stream = self._ids.get("sampling.stream")
        run_trials = self._ids.get("harness.run_trials")
        last: dict = {}
        for s in spans:
            if s[0] == stream and s[3] >= 0 and spans[s[3]][0] == run_trials:
                prev = last.get(s[3])
                if prev is not None:
                    gaps.append(1e3 * (s[1] - prev))
                last[s[3]] = s[1]

        modules = {m: 0.0 for m in MODULES}
        for name, value in self_s.items():
            modules[name.split(".", 1)[0]] += value
        return {"calls": calls, "self_s": self_s, "counts": counts,
                "hulls_under": under, "cubature_self_s": cubature_self,
                "module_self_s": modules, "trial_gaps_ms": gaps, "spans": n}

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent, count."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\tcount\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[s[0]]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\n")

"""Seeded Monte Carlo experiments over random convex bodies.

Each experiment estimates the two sides of a rearrangement inequality (or a
law-of-large-numbers limit) with per-trial substreams keyed by (side, trial
index), so reports are byte-identical across thread counts and any single
trial can be replayed.  Verdicts are ternary: consistent when the 95 percent
intervals separate in the claimed order, violated when they separate the
wrong way, inconclusive otherwise.

Trials run in chunks.  A worker takes a range of trial indices and hands it
to the trial builder a chunk at a time; each trial in a chunk still draws
its samples from its own stream, in the same order as when it runs alone.
Planar kinds then stack those samples and run the geometry once per chunk,
with no hull, by Cauchy's formula h_{Pi K}(u) = h_K(u^perp) + h_K(-u^perp):

* thm12: the projection support of conv X on the node u is the width of
  the cloud X along u^perp, and that of the zonotope sum of [-g, g] is
  2 sum |<g, u^perp>|;
* emppetty2 and lln: v1(conv A, sum_j [-z_j, z_j]) = sum_j width of A
  along z_j^perp;
* empmixed volume mode: the area of conv X is half the sum of
  cross(x_i, x_j) over the ordered pairs (i, j) with every other point
  strictly to their left.

The stacked kernels use no matrix product, so a trial's value is the same
bit for bit whatever chunk it falls in.  A cloud they cannot classify with
margin (degenerate, collinear or repeated points) goes through the hull
route, which also counts degenerate hulls.  The other kinds, and C-sets
without a planar kernel, run their geometry one trial at a time inside the
chunk.  Chunk length follows from ``CHUNK_ENTRIES``.  An error raised in a
trial is re-raised as a ``TrialError`` that names its (side, trial) key
(lln: (row, trial)).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from .bodies import (
    GeometryError,
    VPolytope,
    Zonotope,
    body_from_literal,
    cloud_widths,
    hull,
    lp_ball_body,
    planar_full_rank,
    planar_hull_areas,
    sphere_directions,
    volume,
    zonotope_supports,
    zonotope_to_vpolytope,
)
from .mixed import mixed_volume, v1
from .projections import (
    QuadratureSpec,
    RadialMeasure,
    centroid_body_support,
    empirical_centroid_body,
    mixed_projection_support,
    polar_measure_from_support,
    polar_measures,
    polar_projection_polytope,
    projection_body,
)
from .sampling import Density, RngStream
from .stats import EstimateWithCI, classify, summarize

DEFAULT_TRIALS = 20000
THREADS_ENV = "PETTY_LAB_THREADS"
# Entries of a chunk's largest stacked temporary (512 KiB of float64): a
# chunk holds as many trials as fit, and at least one.
CHUNK_ENTRIES = 1 << 16
# Points up to which empmixed takes hull areas from edge pairs.  The pair
# rule costs k^3 entries per trial; on a 2-vCPU Xeon it took 0.03 ms per
# trial at 4 points and 0.14 ms at 24, against 0.2-0.3 ms for a hull, and
# lost to the hull at 32.
PAIR_AREA_MAX_POINTS = 24

EXPERIMENT_DIRECTIONS = {
    "thm12": "le",
    "thm11": "le",
    "cor13": "le",
    "empmixed": "ge",
    "emppetty2": "ge",
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class TrialError(ValueError):
    """An error raised inside one trial, naming the stream key that replays
    it: (side, trial), or (row, trial) for an lln row."""

    def __init__(self, key: tuple, message: str):
        super().__init__(tuple(key), message)
        self.key = tuple(key)

    def __str__(self):
        return f"trial {self.key}: {self.args[1]}"


@lru_cache(maxsize=16)
def _grid(dim: int, nodes: int) -> np.ndarray:
    U = sphere_directions(dim, nodes)
    U.setflags(write=False)
    return U


@lru_cache(maxsize=16)
def _perp_grid(nodes: int) -> np.ndarray:
    """The planar grid of ``nodes`` directions, each turned by a quarter turn."""
    W = _perp(_grid(2, nodes))
    W.setflags(write=False)
    return W


def resolve_threads(threads: int | None) -> int:
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError(f"{THREADS_ENV} must be positive")
        return value
    if threads is None:
        return 1
    if threads < 1:
        raise ConfigError("threads must be positive")
    return int(threads)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _common(config: dict) -> tuple[int, int, int]:
    dim = int(config.get("dim", 2))
    _require(dim in (2, 3), "dim must be 2 or 3")
    trials = int(config.get("trials", DEFAULT_TRIALS))
    _require(trials >= 1, "trials must be positive")
    seed = int(config.get("seed", 0))
    return dim, trials, seed


def quadrature_block(config: dict) -> dict:
    """The config's ``quadrature`` object, with ``nodes`` checked to be absent
    or a positive integer."""
    q = config.get("quadrature") or {}
    _require(isinstance(q, dict), "quadrature must be an object")
    nodes = q.get("nodes")
    _require(
        nodes is None or (type(nodes) is int and nodes >= 1),
        f"quadrature.nodes must be a positive integer, got {nodes!r}",
    )
    return q


def _quad_nodes(config: dict, dim: int) -> int:
    q = quadrature_block(config)
    _require(
        not q.get("certify"),
        "quadrature.certify is not supported in experiments (the petty command honours it)",
    )
    return QuadratureSpec(nodes=q.get("nodes")).node_count(dim)


def _measure(config: dict) -> RadialMeasure:
    return RadialMeasure.from_literal(config.get("measure", {"type": "lebesgue"}))


# ---------------------------------------------------------------------------
# C-sets


def build_c_set(spec: dict, dim: int) -> dict:
    """Validated, picklable form of a C-set literal.

    kinds: simplex (conv of columns), cube (zonotope of columns), bp
    (image of the p-ball), msum (image of an explicit vertex set built by
    M-addition of p-balls in orthogonal blocks).
    """
    _require(isinstance(spec, dict) and "kind" in spec, "c_set needs a 'kind'")
    kind = spec["kind"]
    m = int(spec.get("m", 0))
    if kind == "simplex":
        _require(m >= 1, "simplex c_set needs m >= 1")
        return {"kind": "simplex", "m": m}
    if kind == "cube":
        _require(m >= 1, "cube c_set needs m >= 1")
        return {"kind": "cube", "m": m, "half": float(spec.get("half", 1.0))}
    if kind == "bp":
        p = float(spec.get("p", 2.0))
        _require(p >= 1.0, "bp c_set needs p >= 1")
        if not (p == 1.0 or math.isinf(p)):
            _require(m in (2, 3), "bp c_set with 1 < p < inf needs m in {2, 3}")
        return {"kind": "bp", "m": m, "p": p}
    if kind == "msum":
        comps = spec.get("components")
        _require(isinstance(comps, list) and len(comps) >= 2, "msum needs components")
        from .bodies import MSpec, m_add

        parts = []
        total = 0
        for comp in comps:
            c = build_c_set(comp, dim)
            _require(c["kind"] == "bp", "msum components must be bp balls")
            parts.append(c)
            total += c["m"]
        embedded = []
        offset = 0
        for c in parts:
            ball = lp_ball_body(c["m"], c["p"])
            emb = np.zeros((len(ball.vertices), total))
            emb[:, offset : offset + c["m"]] = ball.vertices
            embedded.append(VPolytope(emb))
            offset += c["m"]
        mspec_lit = spec.get("M", {"p": 2.0})
        if "p" in mspec_lit:
            mspec = MSpec.lp(float(mspec_lit["p"]))
        else:
            M = body_from_literal(mspec_lit)
            if isinstance(M, Zonotope):
                M = zonotope_to_vpolytope(M)
            mspec = MSpec.polytope(M)
        # vertex candidates suffice for linear images, no high-dim hull needed
        if mspec.variant == "lp":
            from .bodies import lp_ball_vertices

            if mspec.p == 1.0:
                q: float = math.inf
            elif math.isinf(mspec.p):
                q = 1.0
            else:
                q = mspec.p / (mspec.p - 1.0)
            Mverts = lp_ball_vertices(len(parts), q, 64)
        else:
            Mverts = mspec.M.vertices
        pieces = []
        for a in Mverts:
            pts = embedded[0].vertices * a[0]
            for coeff, Bv in zip(a[1:], embedded[1:]):
                pts = (pts[:, None, :] + coeff * Bv.vertices[None, :, :]).reshape(
                    -1, total
                )
            pieces.append(pts)
        verts = np.vstack(pieces)
        return {"kind": "explicit", "m": total, "vertices": verts.tolist()}
    raise ConfigError(f"unknown c_set kind {spec.get('kind')!r}")


def c_set_body(cset: dict, X: np.ndarray):
    """Random body X C from sampled columns (rows of X are the columns)."""
    kind = cset["kind"]
    if kind == "simplex":
        return hull(X)
    if kind == "cube":
        return Zonotope(cset.get("half", 1.0) * X)
    if kind == "bp":
        p = cset["p"]
        if p == 1.0:
            return hull(np.vstack([X, -X]))
        if math.isinf(p):
            return Zonotope(X)
        C = lp_ball_body(cset["m"], p)
        return hull(C.vertices @ X)
    verts = np.asarray(cset["vertices"], dtype=float)
    return hull(verts @ X)


def _planar_form(cset: dict) -> str | None:
    """How the planar kernels read X C: "cloud" when it is the hull of the
    rows of ``_planar_image``, "zonotope" when it is the sum of [-g, g] over
    them, None for C-sets without a planar kernel."""
    kind, p = cset["kind"], cset.get("p")
    if kind == "simplex" or (kind == "bp" and p == 1.0):
        return "cloud"
    if kind == "cube" or (kind == "bp" and math.isinf(p)):
        return "zonotope"
    return None


def _planar_image(cset: dict, X: np.ndarray) -> np.ndarray:
    """The rows behind X C for stacked samples X of shape (T, m, 2), as
    ``c_set_body`` builds them."""
    if cset["kind"] == "cube":
        return cset.get("half", 1.0) * X
    if cset["kind"] == "bp" and cset["p"] == 1.0:
        return np.concatenate([X, -X], axis=1)
    return X


def _planar_rows(cset: dict) -> int:
    """Rows per sample of ``_planar_image``."""
    return cset["m"] * (2 if cset["kind"] == "bp" and cset["p"] == 1.0 else 1)


def _perp(W: np.ndarray) -> np.ndarray:
    """Each planar row w turned by a quarter turn, (-w_1, w_0)."""
    return np.stack([-W[..., 1], W[..., 0]], axis=-1)


def _cset_full_dim_min_columns(cset: dict, dim: int) -> int:
    """Columns needed for the image to be full-dimensional almost surely."""
    if cset["kind"] == "simplex":
        return dim + 1
    return dim


# ---------------------------------------------------------------------------
# trial builders


def _no_diagnostics() -> dict:
    return {"degenerate_hulls": 0, "unbounded_polars": 0}


class _Trials:
    """The trials of one side (lln: of one row).  Trial i draws from its own
    stream RngStream(seed, (side, i)).

    ``chunk(first, count, diag)`` returns the values of trials first, ...,
    first + count - 1 and adds their diagnostics to ``diag``.  Here it runs
    ``trial`` once per index; planar kinds override it with stacked kernels
    and raise ``chunk_len`` from CHUNK_ENTRIES.
    """

    chunk_len = 1

    def __init__(self, config: dict, side: int):
        self.dim, _, self.seed = _common(config)
        self.side = side

    def key(self, index: int) -> tuple:
        return (self.side, index)

    def generator(self, index: int) -> np.random.Generator:
        return RngStream(self.seed, self.key(index)).generator()

    def _fit_chunk(self, entries_per_trial: int):
        self.chunk_len = max(1, CHUNK_ENTRIES // entries_per_trial)

    def chunk(self, first: int, count: int, diag: dict) -> np.ndarray:
        return np.array([self.trial(i, diag) for i in range(first, first + count)])

    def stacked(self, first: int, count: int, draws: list) -> list:
        """Samples of trials first, ..., first + count - 1, one array of shape
        (count, m, dim) per (density, m) in ``draws``; each trial's generator
        draws them in the order given, as ``trial`` does."""
        out = [np.empty((count, m, self.dim)) for _, m in draws]
        for k in range(count):
            gen = self.generator(first + k)
            for arr, (density, m) in zip(out, draws):
                arr[k] = density.sample(gen, m)
        return out


def _blocks_from_config(config: dict, dim: int, side: int) -> list:
    blocks = config.get("blocks")
    _require(isinstance(blocks, list) and len(blocks) >= 1, "blocks must be a list")
    out = []
    for blk in blocks:
        density = Density.from_literal(blk["density"], dim)
        if side == 1:
            density = density.rearranged()
        m = int(blk["m"])
        _require(m >= 1, "block m must be >= 1")
        out.append((density, m))
    return out


def _validate_thm12(config: dict):
    dim, _, _ = _common(config)
    blocks = config.get("blocks")
    _require(isinstance(blocks, list) and len(blocks) == 1, "thm12 takes one block")
    cset = build_c_set(config["c_set"], dim)
    m = int(blocks[0]["m"])
    _require(cset["m"] == m, "c_set dimension must match the block column count")
    measure = _measure(config)
    _quad_nodes(config, dim)
    if measure.variant == "lebesgue":
        _require(
            m >= _cset_full_dim_min_columns(cset, dim),
            "Lebesgue polar measure needs enough columns for a full-dimensional body",
        )
    Density.from_literal(blocks[0]["density"], dim)


class _Thm12Trials(_Trials):
    def __init__(self, config: dict, side: int):
        super().__init__(config, side)
        (self.density, self.m), = _blocks_from_config(config, self.dim, side)
        self.cset = build_c_set(config["c_set"], self.dim)
        self.measure = _measure(config)
        self.nodes = _quad_nodes(config, self.dim)
        self.form = _planar_form(self.cset) if self.dim == 2 else None
        if self.form == "cloud":
            self._fit_chunk(_planar_rows(self.cset) * self.nodes)
        elif self.form == "zonotope":
            self._fit_chunk(self.nodes)

    def _projection_supports(self, body, diag: dict) -> np.ndarray:
        """The hull route: h_{Pi body} on the grid, counting a degenerate hull."""
        if isinstance(body, VPolytope) and body.is_degenerate():
            diag["degenerate_hulls"] += 1
        Z = projection_body(body, allow_degenerate=True)
        return Z.support_batch(_grid(self.dim, self.nodes))

    def trial(self, index: int, diag: dict) -> float:
        X = self.density.sample(self.generator(index), self.m)
        hv = self._projection_supports(c_set_body(self.cset, X), diag)
        if np.min(hv) <= 0.0:
            diag["unbounded_polars"] += 1
        return polar_measure_from_support(hv, self.measure, self.dim)

    def chunk(self, first: int, count: int, diag: dict) -> np.ndarray:
        if self.form is None:
            return super().chunk(first, count, diag)
        X, = self.stacked(first, count, [(self.density, self.m)])
        P = _planar_image(self.cset, X)
        W = _perp_grid(self.nodes)
        if self.form == "zonotope":
            hv = 2.0 * zonotope_supports(P, W)
        else:
            hv = cloud_widths(P, W)
            for t in np.flatnonzero(~planar_full_rank(P)):
                hv[t] = self._projection_supports(hull(P[t]), diag)
        diag["unbounded_polars"] += int(np.count_nonzero(hv.min(axis=1) <= 0.0))
        return polar_measures(hv, self.measure, 2)


def _validate_mixed_blocks(config: dict):
    dim, _, _ = _common(config)
    _require(dim == 3, "mixed projection experiments need dim = 3")
    blocks = config.get("blocks")
    csets = config.get("c_sets")
    _require(
        isinstance(blocks, list) and len(blocks) == dim - 1,
        f"thm11 needs {dim - 1} blocks",
    )
    _require(
        isinstance(csets, list) and len(csets) == len(blocks),
        "one c_set per block required",
    )
    for blk, cs in zip(blocks, csets):
        built = build_c_set(cs, dim)
        _require(built["m"] == int(blk["m"]), "c_set size must match its block")
        Density.from_literal(blk["density"], dim)
    _measure(config)
    _quad_nodes(config, dim)


class _Thm11Trials(_Trials):
    def __init__(self, config: dict, side: int):
        super().__init__(config, side)
        self.blocks = _blocks_from_config(config, self.dim, side)
        self.csets = [build_c_set(cs, self.dim) for cs in config["c_sets"]]
        self.measure = _measure(config)
        self.nodes = _quad_nodes(config, self.dim)

    def trial(self, index: int, diag: dict) -> float:
        gen = self.generator(index)
        bodies = []
        for (density, m), cset in zip(self.blocks, self.csets):
            X = density.sample(gen, m)
            body = c_set_body(cset, X)
            if isinstance(body, VPolytope) and body.is_degenerate():
                diag["degenerate_hulls"] += 1
            bodies.append(body)
        h = mixed_projection_support(bodies)
        U = _grid(self.dim, self.nodes)
        hv = h(U)
        if np.min(hv) <= 0.0:
            diag["unbounded_polars"] += 1
        return polar_measure_from_support(hv, self.measure, self.dim)


def _validate_cor13(config: dict):
    dim, _, _ = _common(config)
    _require(dim == 3, "cor13 needs dim = 3")
    bodies = config.get("bodies")
    _require(
        isinstance(bodies, list) and len(bodies) == dim - 1,
        f"cor13 needs {dim - 1} bodies",
    )
    for lit in bodies:
        body = body_from_literal(lit)
        if isinstance(body, Zonotope):
            body = zonotope_to_vpolytope(body)
        _require(not body.is_degenerate(), "cor13 bodies must be full-dimensional")
    _require(int(config.get("m", 0)) >= 1, "cor13 needs m >= 1 sample points")
    _measure(config)
    _quad_nodes(config, dim)


class _Cor13Trials(_Trials):
    def __init__(self, config: dict, side: int):
        super().__init__(config, side)
        self.m = int(config["m"])
        self.densities = []
        for lit in config["bodies"]:
            body = body_from_literal(lit)
            if isinstance(body, Zonotope):
                body = zonotope_to_vpolytope(body)
            d = Density.uniform(body)
            self.densities.append(d.rearranged() if side == 1 else d)
        self.measure = _measure(config)
        self.nodes = _quad_nodes(config, self.dim)

    def trial(self, index: int, diag: dict) -> float:
        gen = self.generator(index)
        zonos = [
            empirical_centroid_body(d.sample(gen, self.m)) for d in self.densities
        ]
        h = mixed_projection_support(zonos)
        U = _grid(self.dim, self.nodes)
        hv = h(U)
        if np.min(hv) <= 0.0:
            diag["unbounded_polars"] += 1
        return polar_measure_from_support(hv, self.measure, self.dim)


def _validate_empmixed(config: dict):
    dim, _, _ = _common(config)
    blocks = config.get("blocks")
    csets = config.get("c_sets")
    _require(isinstance(blocks, list) and len(blocks) >= 1, "blocks must be a list")
    _require(
        isinstance(csets, list) and len(csets) == len(blocks),
        "one c_set per block required",
    )
    ball_slots = int(config.get("ball_slots", 0))
    _require(ball_slots >= 0, "ball_slots must be nonnegative")
    if len(blocks) > 1 or ball_slots > 0:
        _require(
            len(blocks) + ball_slots == dim,
            "mixed volume needs blocks plus ball slots equal to dim",
        )
    for blk, cs in zip(blocks, csets):
        built = build_c_set(cs, dim)
        _require(built["m"] == int(blk["m"]), "c_set size must match its block")
        Density.from_literal(blk["density"], dim)


class _EmpMixedTrials(_Trials):
    def __init__(self, config: dict, side: int):
        super().__init__(config, side)
        self.blocks = _blocks_from_config(config, self.dim, side)
        self.csets = [build_c_set(cs, self.dim) for cs in config["c_sets"]]
        self.ball_slots = int(config.get("ball_slots", 0))
        self.volume_mode = len(self.blocks) == 1 and self.ball_slots == 0
        if self.ball_slots:
            from .bodies import ball_body

            self.ball = ball_body(self.dim, float(config.get("ball_radius", 1.0)))
        else:
            self.ball = None
        self.pair_areas = (
            self.dim == 2 and self.volume_mode
            and _planar_form(self.csets[0]) == "cloud"
            and _planar_rows(self.csets[0]) <= PAIR_AREA_MAX_POINTS
        )
        if self.pair_areas:
            self._fit_chunk(_planar_rows(self.csets[0]) ** 3)

    def trial(self, index: int, diag: dict) -> float:
        gen = self.generator(index)
        bodies = []
        for (density, m), cset in zip(self.blocks, self.csets):
            X = density.sample(gen, m)
            body = c_set_body(cset, X)
            if isinstance(body, VPolytope) and body.is_degenerate():
                diag["degenerate_hulls"] += 1
            bodies.append(body)
        if self.volume_mode:
            return volume(bodies[0])
        bodies = bodies + [self.ball] * self.ball_slots
        return mixed_volume(bodies)

    def chunk(self, first: int, count: int, diag: dict) -> np.ndarray:
        if not self.pair_areas:
            return super().chunk(first, count, diag)
        X, = self.stacked(first, count, self.blocks)
        P = _planar_image(self.csets[0], X)
        areas, ok = planar_hull_areas(P)
        for t in np.flatnonzero(~ok):
            body = hull(P[t])
            diag["degenerate_hulls"] += body.is_degenerate()
            areas[t] = volume(body)
        return areas


def _polar_projection_polytope_of(body_literal: dict) -> tuple[VPolytope, VPolytope]:
    K = body_from_literal(body_literal)
    if isinstance(K, Zonotope):
        K = zonotope_to_vpolytope(K)
    if K.is_degenerate():
        raise ConfigError("body must be full-dimensional")
    return K, polar_projection_polytope(K)


def _validate_emppetty2(config: dict):
    dim, _, _ = _common(config)
    _require(int(config.get("m1", 0)) >= dim + 1, "emppetty2 needs m1 >= dim + 1")
    _require(int(config.get("m2", 0)) >= 1, "emppetty2 needs m2 >= 1")
    _require("body" in config, "emppetty2 needs a body literal")
    _polar_projection_polytope_of(config["body"])


def _planar_pairings(A: np.ndarray, Z: np.ndarray, diag: dict) -> np.ndarray:
    """v1(conv A[t], sum_j [-z_j, z_j]) over the rows z_j of Z[t], for stacked
    planar clouds A; clouds ``planar_full_rank`` cannot call are hulled."""
    out = cloud_widths(A, _perp(Z)).sum(axis=1)
    for t in np.flatnonzero(~planar_full_rank(A)):
        body = hull(A[t])
        diag["degenerate_hulls"] += body.is_degenerate()
        out[t] = v1(body, Zonotope(Z[t]))
    return out


class _EmpPetty2Trials(_Trials):
    def __init__(self, config: dict, side: int):
        super().__init__(config, side)
        self.m1 = int(config["m1"])
        self.m2 = int(config["m2"])
        K, L = _polar_projection_polytope_of(config["body"])
        dK, dL = Density.uniform(K), Density.uniform(L)
        if side == 1:
            dK, dL = dK.rearranged(), dL.rearranged()
        self.density_K = dK
        self.density_L = dL
        if self.dim == 2:
            self._fit_chunk(self.m1 * max(self.m1, self.m2))

    def trial(self, index: int, diag: dict) -> float:
        gen = self.generator(index)
        A = hull(self.density_K.sample(gen, self.m1))
        if A.is_degenerate():
            diag["degenerate_hulls"] += 1
            if self.dim == 3:
                raise GeometryError("degenerate spatial hull in v1 trial")
        Z = Zonotope(self.density_L.sample(gen, self.m2))
        return v1(A, Z)

    def chunk(self, first: int, count: int, diag: dict) -> np.ndarray:
        if self.dim != 2:
            return super().chunk(first, count, diag)
        A, Z = self.stacked(first, count, [(self.density_K, self.m1),
                                           (self.density_L, self.m2)])
        return _planar_pairings(A, Z, diag)


def _validate_lln(config: dict):
    dim, _, _ = _common(config)
    _require("body" in config, "lln needs a body literal")
    m1s = config.get("m1_list", [64])
    m2s = config.get("m2_list", [64])
    _require(
        isinstance(m1s, list) and isinstance(m2s, list) and len(m1s) == len(m2s),
        "m1_list and m2_list must be lists of equal length",
    )
    for m1, m2 in zip(m1s, m2s):
        _require(int(m1) >= dim + 1 and int(m2) >= 1, "lln sweep sizes too small")
    _polar_projection_polytope_of(config["body"])


class _LlnRowTrials(_Trials):
    def __init__(self, config: dict, row: int):
        super().__init__(config, row)
        self.m1 = int(config["m1_list"][row])
        self.m2 = int(config["m2_list"][row])
        K, L = _polar_projection_polytope_of(config["body"])
        self.density_K = Density.uniform(K)
        self.density_L = Density.uniform(L)
        if self.dim == 2:
            self._fit_chunk(self.m1 * max(self.m1, self.m2))

    def trial(self, index: int, diag: dict) -> float:
        gen = self.generator(index)
        A = hull(self.density_K.sample(gen, self.m1))
        if A.is_degenerate():
            diag["degenerate_hulls"] += 1
        Z = empirical_centroid_body(self.density_L.sample(gen, self.m2))
        return v1(A, Z)

    def chunk(self, first: int, count: int, diag: dict) -> np.ndarray:
        if self.dim != 2:
            return super().chunk(first, count, diag)
        A, Y = self.stacked(first, count, [(self.density_K, self.m1),
                                           (self.density_L, self.m2)])
        return _planar_pairings(A, Y / self.m2, diag)


_TRIAL_BUILDERS = {
    "thm12": _Thm12Trials,
    "thm11": _Thm11Trials,
    "cor13": _Cor13Trials,
    "empmixed": _EmpMixedTrials,
    "emppetty2": _EmpPetty2Trials,
    "lln_row": _LlnRowTrials,
}

_VALIDATORS = {
    "thm12": _validate_thm12,
    "thm11": _validate_mixed_blocks,
    "cor13": _validate_cor13,
    "empmixed": _validate_empmixed,
    "emppetty2": _validate_emppetty2,
    "lln": _validate_lln,
}


def _run_chunk(trials: _Trials, first: int, count: int, diag: dict) -> np.ndarray:
    try:
        return trials.chunk(first, count, diag)
    except Exception:
        # Replay the chunk one trial at a time so the error names the trial
        # that raised it; the whole chunk fails either way.
        for index in range(first, first + count):
            try:
                trials.chunk(index, 1, _no_diagnostics())
            except Exception as exc:
                raise TrialError(trials.key(index), f"{type(exc).__name__}: {exc}") from exc
        raise


def _worker(payload: tuple) -> tuple:
    kind, config, side, start, count = payload
    trials = _TRIAL_BUILDERS[kind](config, side)
    diag = _no_diagnostics()
    values = np.empty(count)
    for a in range(0, count, trials.chunk_len):
        n = min(trials.chunk_len, count - a)
        values[a:a + n] = _run_chunk(trials, start + a, n, diag)
    return values, diag


def run_trials(kind: str, config: dict, side: int, trials: int, threads: int):
    """Per-trial values in index order plus summed diagnostics."""
    if threads <= 1 or trials < 2 * threads:
        values, diag = _worker((kind, config, side, 0, trials))
        return values, diag
    bounds = np.linspace(0, trials, threads + 1, dtype=int)
    payloads = [
        (kind, config, side, int(a), int(b - a))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(_worker, payloads))
    values = np.concatenate([v for v, _ in results])
    diag = _no_diagnostics()
    for _, d in results:
        for key in diag:
            diag[key] += d[key]
    return values, diag


# ---------------------------------------------------------------------------
# experiment drivers


def _echo_config(config: dict) -> dict:
    drop = {"threads", "out", "format"}
    return {k: v for k, v in config.items() if k not in drop}


def _two_sided_report(kind: str, config: dict, threads: int) -> dict:
    _VALIDATORS[kind](config)
    _, trials, seed = _common(config)
    lhs_vals, lhs_diag = run_trials(kind, config, 0, trials, threads)
    rhs_vals, rhs_diag = run_trials(kind, config, 1, trials, threads)
    lhs, rhs = summarize(lhs_vals), summarize(rhs_vals)
    direction = EXPERIMENT_DIRECTIONS[kind]
    diag = {
        key: lhs_diag[key] + rhs_diag[key] for key in sorted(lhs_diag)
    }
    return {
        "experiment": kind,
        "config": _echo_config(config),
        "seed": seed,
        "trials": trials,
        "direction": direction,
        "lhs": lhs.to_dict(),
        "rhs": rhs.to_dict(),
        "verdict": classify(lhs, rhs, direction),
        "diagnostics": diag,
    }


def run_theorem_1_2(config: dict, threads: int | None = None) -> dict:
    """One-block shadow functional: E nu(polar projection of X C) under the
    original density versus its symmetric decreasing rearrangement."""
    return _two_sided_report("thm12", config, resolve_threads(threads))


def run_theorem_1_1(config: dict, threads: int | None = None) -> dict:
    """Mixed projection version with dim-1 independent blocks."""
    return _two_sided_report("thm11", config, resolve_threads(threads))


def run_corollary_1_3(config: dict, threads: int | None = None) -> dict:
    """Empirical centroid bodies feeding the mixed projection functional."""
    return _two_sided_report("cor13", config, resolve_threads(threads))


def run_emp_mixed(config: dict, threads: int | None = None) -> dict:
    """Expected (mixed) volume of random images versus rearranged samples."""
    return _two_sided_report("empmixed", config, resolve_threads(threads))


def run_emp_petty_2(config: dict, threads: int | None = None) -> dict:
    """Empirical Petty pairing: E v1(random hull, random segment sum)."""
    return _two_sided_report("emppetty2", config, resolve_threads(threads))


def lln_target(body_literal: dict) -> float:
    """Deterministic limit V1(K, centroid body of the polar projection body)."""
    K, L = _polar_projection_polytope_of(body_literal)
    return v1(K, centroid_body_support(L))


def run_lln(config: dict, threads: int | None = None) -> dict:
    """Sweep of (1/m2) E V1([K]_m1, [polar projection]_m2^inf) against the
    deterministic pairing limit, plus a constancy table over a body family."""
    threads = resolve_threads(threads)
    config = dict(config)
    config.setdefault("m1_list", [64])
    config.setdefault("m2_list", [64])
    _validate_lln(config)
    _, trials, seed = _common(config)
    target = lln_target(config["body"])
    rows = []
    diag = _no_diagnostics()
    m1s, m2s = config["m1_list"], config["m2_list"]
    last_within = False
    for row in range(len(m1s)):
        values, d = run_trials("lln_row", config, row, trials, threads)
        est = summarize(values)
        for key in diag:
            diag[key] += d[key]
        last_within = abs(est.mean - target) <= 3.0 * est.stderr
        rows.append(
            {
                "m1": int(m1s[row]),
                "m2": int(m2s[row]),
                "estimate": est.to_dict(),
                "target": target,
                "within_3_stderr": bool(last_within),
            }
        )
    family = config.get("family")
    constancy = None
    if family:
        targets = [lln_target(lit) for lit in family]
        spread = (max(targets) - min(targets)) / max(abs(max(targets)), 1e-300)
        constancy = {"targets": targets, "relative_spread": spread}
    return {
        "experiment": "lln",
        "config": _echo_config(config),
        "seed": seed,
        "trials": trials,
        "rows": rows,
        "target": target,
        "constancy": constancy,
        "verdict": "consistent" if last_within else "inconclusive",
        "diagnostics": diag,
    }


RUNNERS = {
    "thm12": run_theorem_1_2,
    "thm11": run_theorem_1_1,
    "cor13": run_corollary_1_3,
    "empmixed": run_emp_mixed,
    "emppetty2": run_emp_petty_2,
    "lln": run_lln,
}

FUNCTIONALS = {
    "nu_polar_xc": "thm12",
    "nu_polar_mixed": "thm11",
    "mixed_volume": "empmixed",
    "volume": "empmixed",
    "v1_pair": "emppetty2",
}


def estimate(functional_id: str, config: dict, side: int = 0,
             threads: int | None = None) -> EstimateWithCI:
    """One-sided Monte Carlo estimate of a registered functional."""
    if functional_id not in FUNCTIONALS:
        raise ConfigError(f"unknown functional {functional_id!r}")
    kind = FUNCTIONALS[functional_id]
    _VALIDATORS[kind](config)
    trials = int(config.get("trials", DEFAULT_TRIALS))
    values, _ = run_trials(kind, config, side, trials, resolve_threads(threads))
    return summarize(values)


# ---------------------------------------------------------------------------
# serialization


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def report_to_json(report: dict) -> str:
    """Canonical JSON: sorted keys, stable float repr, no volatile fields."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat CSV; sweep reports emit one row per sweep point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "rows" in report:
        writer.writerow(
            ["experiment", "m1", "m2", "mean", "stderr", "ci_low", "ci_high",
             "target", "within_3_stderr"]
        )
        for row in report["rows"]:
            est = row["estimate"]
            writer.writerow(
                [report["experiment"], row["m1"], row["m2"], est["mean"],
                 est["stderr"], est["ci_low"], est["ci_high"], row["target"],
                 row["within_3_stderr"]]
            )
    else:
        writer.writerow(
            ["experiment", "side", "mean", "stderr", "ci_low", "ci_high",
             "trials", "direction", "verdict"]
        )
        for side in ("lhs", "rhs"):
            est = report[side]
            writer.writerow(
                [report["experiment"], side, est["mean"], est["stderr"],
                 est["ci_low"], est["ci_high"], est["trials"],
                 report["direction"], report["verdict"]]
            )
    return buf.getvalue()

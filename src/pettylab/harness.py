"""Seeded Monte Carlo experiments over random convex bodies.

Each experiment estimates the two sides of a rearrangement inequality (or a
law-of-large-numbers limit) with per-trial substreams keyed by (side, trial
index), so reports are byte-identical across thread counts and any single
trial can be replayed.  Verdicts are ternary: consistent when the 95 percent
intervals separate in the claimed order, violated when they separate the
wrong way, inconclusive otherwise.

A runner parses its config once into the spec of its kind (``SPECS``), a
frozen, picklable object that holds every object the trials need that does
not depend on the side.  Building it is the validation: a missing key, a
key the kind does not read, an integer field that is not an integer, a
size out of range or a dim that disagrees with a body raises a
``ConfigError`` naming the key.  This module reads every config literal,
bodies, densities, measures and C-sets alike, with the same field readers.
Workers get the spec and parse nothing.  A process parses each body
literal once: ``_literal`` keeps, for the last LITERAL_MEMO_SIZE literals,
the body and what reports derive from it (its uniform density, its polar
projection polytope and the density on that, lln's target), so a second
report on the same literal builds none of them.

Samples are drawn per block and the geometry runs per chunk:

* a worker draws its range of trial indices in sample blocks of at most
  ``CHUNK_ENTRIES`` sample entries, and hands each block to the spec a
  chunk at a time;
* trial i of side s keeps its own Philox stream RngStream(seed, (s, i)),
  whose key is numpy's SeedSequence hash of (seed, s, i): the seed and side
  words are hashed once per block and only the index word per trial
  (``RngStream.child_keys``), and one Philox draws each trial's raw draws
  from its own key, counter 0 and an empty buffer (``draw_block``);
* the per-trial route, each trial's own generator followed by
  ``Density.sample`` (``sampling.draw_per_trial``), is the oracle the
  blocks equal bit for bit; ``verify.CHECKS`` and the tests compare them.
  ``trial``, the replay of a failing chunk and ``replay`` draw blocks of
  one trial.

A kind is a hull route, the value of one trial from its own samples, plus,
optionally, a stacked kernel that takes the chunk's samples to values and
a mask of the trials it could classify; the trials outside the mask take
the hull route, which is also the reference a trial run alone (``replay``)
takes.  thm12, thm11 and cor13 share one hull route, ``_PolarSpec.value``,
over the zonotope ``mixed_projection_support`` builds from the kind's
n - 1 bodies (thm12: n - 1 copies of X C).  In the plane that zonotope's
polar measure is exact, a closed form on each arc of its normal fan
(``bodies.planar_polar_measures``), and takes no grid; in space a rule
along the same fan's arcs replaces the grid where it pays (below).  Planar
kernels run the geometry once per chunk, with no hull, by Cauchy's formula
h_{Pi K}(u) = h_K(u^perp) + h_K(-u^perp):

* thm12: Pi conv X turned a quarter turn is the zonotope sum of [-e/2, e/2]
  over the counterclockwise hull edges e of the cloud X, found by the edge
  test of ``bodies.planar_hull_edges``, and Pi of the zonotope sum of
  [-g, g] turned so is the sum of [-2g, 2g]; a rotation keeps the polar
  measure (clouds past ``PAIR_AREA_MAX_POINTS`` points take the hull
  route);
* emppetty2 and lln: v1(conv A, sum_j [-z_j, z_j]) = sum_j width of A
  along z_j^perp;
* empmixed volume mode: the area of conv X is half the sum of
  cross(x_i, x_j) over the hull edges (i, j), the ordered pairs with every
  other point strictly to their left.

The stacked planar kernels use no matrix product, so a trial's value is the
same bit for bit whatever chunk it falls in.

In space, the projection bodies these kinds need are zonotopes whose
generators have closed forms, built for the whole chunk with elementwise
cross products:

* thm12, simplex C-set with m = 4: h_{Pi K}(u) = (1/4) sum over the four
  faces ijk of |<(x_j - x_i) x (x_k - x_i), u>|;
* thm12, cube or bp p = inf C-set: 4 sum_{i<j} |<g_i x g_j, u>| with g the
  generators of X C (half X for the cube);
* thm11 with two zonotope C-sets, and cor13 with A = X/m and B = Y/m:
  h_{Pi(Z_A, Z_B)}(u) = 2 sum_{i,j} |<a_i x b_j, u>|;
* thm11 with two simplex C-sets with m = 4: h_{Pi(A, B)}(u) =
  (1/4) sum |<e x f, u>| over the edge pairs whose arcs cross, the atoms
  of S(A, B) that ``mixed.edge_crossings`` finds on a tetrahedron's edges,
  TETRAHEDRON_PAIR_ATOMS rows per trial with zero rows after the atoms.

A spec's polar rule is one value, its grid's node count or None for the
exact rule in the plane and the walk in space, and every route reads the
projection bodies of a chunk through one call,
``projections.polar_measures``.  In space the POLAR_RULES row of the measure at the kernel's generator
bound picks it: under a Gaussian or ball measure small projection bodies
take the arc walk of ``bodies.spatial_polar_measures`` over their normal
fan, stacked for the chunk, with no grid (a zero row adds arcs of length
zero); the polar is origin-symmetric, so the walk runs half of each great
circle and doubles the sum.  Lebesgue measure and larger projection bodies
take one support call per trial over the row's spatial grid and one polar
quadrature row; an explicit ``quadrature.nodes`` sets the grid, and the
kinds with no kernel keep DEFAULT_NODES[3].  The hull route of a spec
takes its rule too.  Neither route depends on the chunk, so a trial's
value is again the same bit for bit in every chunk.  The same rows give
empmixed with two such C-sets and one ball slot: V(A, B, ball) = (1/6) sum
h_ball(w), h_ball(0) = 0, one support call per chunk.

The report of a polar kind names its rule under ``quadrature``, outside
``diagnostics``: ``exact``, ``walk`` with its order or ``grid`` with its
nodes.  Every grid adds a certificate: the trials of each side whose index
is a multiple of CERTIFY_STRIDE rerun on twice the nodes, and each side's
worst relative gap.  A walk report whose hull route read flat projection
bodies on the grid names that grid under ``unbounded``.

A kernel leaves out of its mask every cloud it cannot classify with margin
(degenerate, collinear, coplanar or repeated points, generators that do not
span the plane or space, or an edge pair whose sign tests fall within the
margin).  Kernels and the hull route read projection bodies through one
rule per spec (``_PolarSpec._values``), and only the hull route decides
flatness: it counts degenerate hulls, and a projection body whose
generators do not span the plane or space (``bodies.spans_space``) as an
unbounded polar.  Under Lebesgue measure such a trial raises; under a
Gaussian or ball measure it takes the exact measure of its strip in the
plane and the grid in space (DEFAULT_NODES[3] nodes past the walk).
The other kinds and C-sets have no kernel and take the hull route on every
trial: thm12 with other C-sets, thm11 with other hull C-sets, empmixed in
other mixed modes and the spatial emppetty2 and lln.  Chunk length follows from ``CHUNK_ENTRIES``.
An error raised in a trial is re-raised as a ``TrialError`` that names its
(side, trial) key (lln: (row, trial)); ``replay`` reruns that one trial.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bodies import (
    POLAR_WALK_ORDER,
    GeometryError,
    MSpec,
    VPolytope,
    Zonotope,
    as_polytope,
    ball_body,
    cloud_widths,
    cube_body,
    full_rank,
    hull,
    is_unconditional,
    lp_ball_body,
    m_combinations,
    planar_hull_areas,
    planar_hull_edges,
    solid_simplex,
    spans_space,
    spatial_polar_entries,
    volume,
)
from .mixed import (
    mixed_projection_generators,
    mixed_volume,
    v1,
    zonotope_projection_generators,
)
from .projections import (
    DEFAULT_NODES,
    TETRAHEDRON_PAIR_ATOMS,
    RadialMeasure,
    centroid_body_support,
    empirical_centroid_body,
    mixed_projection_support,
    polar_measures,
    polar_projection_polytope,
    tetrahedron_pair_normals,
    tetrahedron_projection_generators,
)
from .sampling import INDEX_LIMIT, Density, RngStream, draw_block
from .stats import EstimateWithCI, classify, summarize

DEFAULT_TRIALS = 20000
THREADS_ENV = "PETTY_LAB_THREADS"
# Entries of a chunk's largest stacked temporary (512 KiB of float64): a
# chunk holds as many trials as fit, and at least one.  A sample block holds
# as many trials as fit this many sample entries.
CHUNK_ENTRIES = 1 << 16
# Points up to which a planar cloud's hull is read from the edge test of
# ``bodies.planar_hull_areas`` (empmixed's areas, thm12's hull edges); larger
# clouds take the hull route.  The test costs k^3 entries per trial; on a
# 2-vCPU Xeon it took 0.03 ms per trial at 4 points and 0.14 ms at 24,
# against 0.2-0.3 ms for a hull, and lost to the hull at 32.
PAIR_AREA_MAX_POINTS = 24
# The Gaussian and ball rows of POLAR_RULES: a spatial kernel's projection
# bodies take the arc walk of ``bodies.spatial_polar_measures`` up to 16
# (Gaussian) and 10 (ball) generators, and the 8192-node grid past them.
# The walk runs half of each great circle.  On a 2-vCPU Xeon,
# per trial at chunk size over a few rounds, the Gaussian walk took 0.015
# ms at 4 generators, 0.08-0.10 ms at 9, 0.13-0.19 ms at 12 and 0.25-0.36
# ms at 16, against 0.17-0.47 ms for the grid; it tied or lost at 17
# (0.26-0.41 ms against 0.26-0.46 ms) and lost at 18 (0.30-0.37 ms against
# 0.25-0.30 ms) and 20 (0.39-0.58 ms against 0.27-0.44 ms).  The ball walk
# runs the rule on the two pieces of each edge outside the ball and its
# grid needs no erf: 0.03 ms at 4 generators, 0.14-0.20 ms at 9 and
# 0.18-0.25 ms at 10, against 0.11-0.18, 0.15-0.30 and 0.16-0.30 ms for the
# grid (at 10 the walk wins narrowly or ties, and the ball grid errs by up
# to 7.4e-5 there); it tied at 11 (0.21-0.30 ms against 0.17-0.31 ms) and
# lost at 12 (0.27-0.36 ms against 0.18-0.25 ms).
# Past the walk, each grid row takes the smallest of 2048, 4096 and 8192
# nodes whose relative error against the walk stayed within POLAR_GRID_TOL
# on every count it covers, over mixed bodies 2 a_i x b_j as cor13 builds
# them (``verify.grid_table_test_generators``: random, thin and needle)
# under a Gaussian of scale 1.  From 13 to 30 generators 4096 nodes read up
# to 6.5e-5 (at 15, over 150 bodies per count) and 5.0e-5 (a needle at 24),
# against 1.8e-5 for 8192; from 31 to 70 they read at most 3.2e-5 (75
# bodies per count to 50, then 36), and up to 100 at most 1.9e-5 over five
# sweeps of the test's bodies.  2048 nodes read 1.4e-4 at 15 and 5.2e-5 at
# 79 (30 bodies per count), so no row takes them.
# Under a ball crossing the polar's boundary even 8192 nodes read up to
# 7.4e-5, so the ball keeps them, and its row is not held to
# POLAR_GRID_TOL.  At every node count the error grows as the polar shrinks
# against the measure's scale, so every grid report also carries a
# certificate at twice its nodes.
# The spatial polar rule per measure: rows (first generator count, nodes),
# a row covering the counts up to the next row's first, nodes None for the
# walk.  3-D Lebesgue measure keeps the grid at every count.
POLAR_RULES = {"lebesgue": ((0, 8192),), "gaussian": ((0, None), (17, 8192), (31, 4096)),
               "ball": ((0, None), (11, 8192))}
POLAR_GRID_TOL = 5e-5
# Trials of each side, those whose index is a multiple of this, that the
# certificate of a grid reruns on twice its nodes.
CERTIFY_STRIDE = 64
# Body literals, with what they derive, that a process keeps between
# reports (``_literal``): the last this many (literal, dim) pairs used.  A
# 3-D body's polar projection polytope can hold 1e5 vertices, so the bound
# stays small; a benchmark unit reads two or three literals.
LITERAL_MEMO_SIZE = 16


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


def _perp(W: np.ndarray) -> np.ndarray:
    """Each planar row w turned by a quarter turn, (-w_1, w_0)."""
    return np.stack([-W[..., 1], W[..., 0]], axis=-1)


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
    return _integer(threads, "threads")


# ---------------------------------------------------------------------------
# reading config fields


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _fields(value, where: str, required=(), optional=()) -> dict:
    """``value`` when it is an object with every key of ``required`` and no
    key outside ``required`` and ``optional``, else a ConfigError naming the
    key; ``where`` is the object's own key, prefixed to the key names in
    messages ("" for the config)."""
    prefix = f"{where}." if where else ""
    _require(isinstance(value, dict), f"{where or 'config'} must be an object")
    for key in required:
        _require(key in value, f"{prefix}{key} is missing")
    for key in value:
        _require(key in required or key in optional, f"unknown key {prefix}{key}")
    return value


def _typed(value, where: str, keys: dict, tag: str) -> str:
    """The type of the literal ``value``, its ``tag`` field: one of ``keys``,
    each mapped to the (required, optional) keys the type reads besides
    ``tag``.  A type outside ``keys`` or a key that does not fit raises a
    ConfigError naming it."""
    prefix = f"{where}." if where else ""
    kind = value.get(tag) if isinstance(value, dict) else None
    _require(isinstance(kind, str) and kind in keys,
             f"{prefix}{tag} must be one of {sorted(keys)}, got {kind!r}")
    required, optional = keys[kind]
    _fields(value, where, (tag,) + required, optional)
    return kind


def _integer(value, key: str, low: int = 1) -> int:
    """``value`` when it is an integer (not a bool) of at least ``low``."""
    _require(type(value) is int and value >= low,
             f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _positive(value, key: str) -> float:
    """``value`` as a float when it is a positive number (not a bool)."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0,
             f"{key} must be a positive number, got {value!r}")
    return float(value)


def _boolean(value, key: str) -> bool:
    """``value`` when it is a JSON boolean."""
    _require(isinstance(value, bool), f"{key} must be true or false, got {value!r}")
    return value


def _points(value, key: str, width: int | None) -> np.ndarray:
    """``value`` as an array of rows when it is a non-empty list of lists of
    finite numbers (not bools), all of one length: ``width`` unless None."""
    _require(isinstance(value, list) and value and all(
        isinstance(row, list) and row and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in row) for row in value),
        f"{key} must be a non-empty list of lists of finite numbers, got {value!r}")
    lengths = {len(row) for row in value}
    _require(len(lengths) == 1 and width in (None, *lengths),
             f"{key} rows must all have {width or 'the same number of'} entries, got {value!r}")
    return np.array(value, dtype=float)


def _parse(key: str, build, *args):
    """``build(*args)``, re-raising the GeometryError that building a body
    or density from valid fields can raise as a ConfigError naming ``key``."""
    try:
        return build(*args)
    except GeometryError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def quadrature_block(config: dict) -> dict:
    """The config's ``quadrature`` object: ``nodes``, absent or a positive
    integer, and ``certify``, absent or a boolean."""
    q = _fields(config.get("quadrature", {}), "quadrature", (), ("nodes", "certify"))
    if q.get("nodes") is not None:
        _integer(q["nodes"], "quadrature.nodes")
    if "certify" in q:
        _boolean(q["certify"], "quadrature.certify")
    return q


# ---------------------------------------------------------------------------
# body, density and measure literals

# The keys of each literal type besides "type": (required, optional).
_BODY_KEYS = {
    "polygon": (("vertices",), ()),
    "polytope3": (("vertices",), ()),
    "cube": (("dim",), ("half",)),
    "simplex": (("dim",), ()),
    "ball": (("dim",), ("radius", "facets")),
    "zonotope": (("generators",), ()),
}
_DENSITY_KEYS = {"uniform": (("body",), ("rearranged",)), "gaussian": ((), ("sigma",))}
_MEASURE_KEYS = {"lebesgue": ((), ()), "gaussian": ((), ("sigma",)), "ball": (("radius",), ())}


def body_from_literal(spec: dict, where: str = "body"):
    """Build a body from its JSON literal form; ``where`` names the literal
    in errors.

    Accepted types: polygon, polytope3, cube, simplex, ball, zonotope.  A
    missing key, a key the type does not read or a field of the wrong type
    or range raises a ConfigError naming it; building a body from valid
    fields can still raise a GeometryError (a cube past dimension 16, a ball
    outside dimensions 2 and 3).
    """
    prefix = f"{where}." if where else ""
    kind = _typed(spec, where, _BODY_KEYS, "type")
    if kind in ("polygon", "polytope3"):
        return hull(_points(spec["vertices"], f"{prefix}vertices", 2 if kind == "polygon" else 3))
    if kind == "zonotope":
        return Zonotope(_points(spec["generators"], f"{prefix}generators", None))
    dim = _integer(spec["dim"], f"{prefix}dim")
    if kind == "cube":
        return cube_body(dim, _positive(spec.get("half", 1.0), f"{prefix}half"))
    if kind == "simplex":
        return solid_simplex(dim)
    facets = spec.get("facets")
    return ball_body(dim, _positive(spec.get("radius", 1.0), f"{prefix}radius"),
                     None if facets is None else _integer(facets, f"{prefix}facets", 3))


def _parse_body(literal, key: str, dim: int) -> VPolytope:
    """The body of ``literal`` as a vertex polytope in dimension ``dim``."""
    K = _parse(key, lambda: as_polytope(body_from_literal(literal, key)))
    _require(K.dim == dim, f"{key} lives in dimension {K.dim}, expected {dim}")
    return K


@lru_cache(maxsize=LITERAL_MEMO_SIZE)
def _literal_record(text: str, dim: int) -> dict:
    """The record ``_literal`` keeps for the canonical JSON ``text`` of a
    body literal in dimension ``dim``.  A literal that fails raises here,
    and lru_cache keeps nothing for it."""
    return {"body": _parse_body(json.loads(text), "body", dim)}


def _literal(literal, key: str, dim: int) -> dict:
    """The record of the body literal ``literal`` in dimension ``dim``: its
    body under "body", plus what ``_derived`` adds (densities, the polar
    projection polytope, the lln target).

    A plain JSON literal's record is kept for the process, keyed by its
    canonical JSON (sorted keys) and ``dim``, so later reports reuse its
    hull, triangulations and cubatures.  A literal that JSON would change
    (tuples, non-finite or non-JSON numbers) gets a fresh record each call,
    and one that fails is parsed again here, so that its error names
    ``key`` and is the same on every call."""
    try:
        text = json.dumps(literal, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        text = None
    if text is not None and json.loads(text) == literal:
        try:
            return _literal_record(text, dim)
        except ConfigError:
            pass
    return {"body": _parse_body(literal, key, dim)}


def _derived(record: dict, name: str, build):
    """``record[name]``, set to ``build()`` the first time it is asked for."""
    got = record.get(name)
    if got is None:
        got = record[name] = build()
    return got


def _uniform(record: dict, key: str, member: str = "body") -> Density:
    """The uniform density on the body ``record[member]``, kept in the
    record with its triangulation once drawn from."""
    return _derived(record, f"uniform {member}",
                    lambda: _parse(key, Density.uniform, record[member]))


def _density(literal, key: str, dim: int) -> Density:
    """The density of a literal {type: uniform, body, rearranged} or
    {type: gaussian, sigma} in dimension ``dim``."""
    if _typed(literal, key, _DENSITY_KEYS, "type") == "gaussian":
        return Density.gaussian(dim, _positive(literal.get("sigma", 1.0), f"{key}.sigma"))
    d = _uniform(_literal(literal["body"], f"{key}.body", dim), key)
    return d.rearranged() if _boolean(literal.get("rearranged", False), f"{key}.rearranged") else d


def _measure(literal) -> RadialMeasure:
    """The radial measure of a literal {type: lebesgue}, {type: gaussian,
    sigma} or {type: ball, radius}, the config's ``measure``."""
    kind = _typed(literal, "measure", _MEASURE_KEYS, "type")
    if kind == "lebesgue":
        return RadialMeasure.lebesgue()
    if kind == "gaussian":
        return RadialMeasure.gaussian(_positive(literal.get("sigma", 1.0), "measure.sigma"))
    return RadialMeasure.ball(_positive(literal["radius"], "measure.radius"))


def _polar_pair(literal, key: str, dim: int) -> dict:
    """The record of ``literal``, whose body K must be full-dimensional,
    with K's polar projection polytope under "polar"."""
    record = _literal(literal, key, dim)
    K = record["body"]
    _require(not K.is_degenerate(), f"{key} must be full-dimensional")
    _derived(record, "polar", lambda: polar_projection_polytope(K))
    return record


def _pairing_target(record: dict) -> float:
    """V1(K, centroid body of L) for the body K and polar projection
    polytope L of a ``_polar_pair`` record, kept in the record."""
    return _derived(record, "target",
                    lambda: v1(record["body"], centroid_body_support(record["polar"])))


def _both_sides(draws) -> tuple:
    """Side 0's (density, m) draws and side 1's, from the rearranged densities."""
    draws = tuple(draws)
    return draws, tuple((d.rearranged(), m) for d, m in draws)


# ---------------------------------------------------------------------------
# C-sets

_CSET_KEYS = {
    "simplex": (("m",), ()),
    "cube": (("m",), ("half",)),
    "bp": (("m",), ("p",)),
    "msum": (("components",), ("M",)),
}


@dataclass(frozen=True, eq=False)
class CSet:
    """The coefficient set C of a random body X C, whose m columns X are
    sampled (the rows of X here).

    kind: simplex (X C is the hull of the columns), cube (the zonotope sum
    of [-g, g] over ``half`` times the columns), bp (the image of the unit
    p-ball) or msum (the image of p-balls in orthogonal blocks combined by
    M-addition).  ``vertices`` holds C's vertices where X C is the hull of
    their images: bp with 1 < p < inf, and msum.
    """

    kind: str
    m: int
    half: float = 1.0
    p: float = 2.0
    vertices: np.ndarray | None = None

    @classmethod
    def from_literal(cls, spec, key: str = "c_set") -> "CSet":
        kind = _typed(spec, key, _CSET_KEYS, "kind")
        if kind == "msum":
            return cls._msum(spec, key)
        m = _integer(spec["m"], f"{key}.m")
        if kind == "simplex":
            return cls(kind, m)
        if kind == "cube":
            return cls(kind, m, half=_positive(spec.get("half", 1.0), f"{key}.half"))
        p = _positive(spec.get("p", 2.0), f"{key}.p")
        _require(p >= 1.0, f"{key}.p must be >= 1, got {p!r}")
        if p == 1.0 or math.isinf(p):
            return cls(kind, m, p=p)
        _require(m in (2, 3), f"{key}.m must be 2 or 3 for a bp c_set with 1 < p < inf")
        return cls(kind, m, p=p, vertices=lp_ball_body(m, p).vertices)

    @classmethod
    def _msum(cls, spec: dict, key: str) -> "CSet":
        comps = spec["components"]
        _require(isinstance(comps, list) and len(comps) >= 2,
                 f"{key}.components must list at least two bp c_sets")
        parts = [cls.from_literal(c, f"{key}.components[{i}]") for i, c in enumerate(comps)]
        _require(all(c.kind == "bp" for c in parts), f"{key}.components must be bp balls")
        total = sum(c.m for c in parts)
        balls, offset = [], 0
        for c in parts:
            ball = lp_ball_body(c.m, c.p).vertices
            emb = np.zeros((len(ball), total))
            emb[:, offset:offset + c.m] = ball
            balls.append(emb)
            offset += c.m
        M = spec.get("M", {"p": 2.0})
        if isinstance(M, dict) and "p" in M:
            _fields(M, f"{key}.M", ("p",))
            p = _positive(M["p"], f"{key}.M.p")
            _require(p >= 1.0, f"{key}.M.p must be >= 1, got {p!r}")
            # vertex candidates suffice for linear images, no high-dim hull needed
            coeffs = MSpec.lp(p, vertex_budget=64).conjugate_ball_vertices(len(parts))
        else:
            M = _literal(M, f"{key}.M", len(parts))["body"]
            _require(is_unconditional(M), f"{key}.M must be 1-unconditional")
            coeffs = M.vertices
        return cls("msum", total, vertices=m_combinations(coeffs, balls))

    def form(self, dim: int) -> str | None:
        """How the stacked kernels read X C in dimension ``dim``: "zonotope",
        the sum of [-g, g] over the rows of ``rows(X)``; "cloud", the planar
        hull of at most PAIR_AREA_MAX_POINTS such rows; "tetrahedron", the
        spatial hull of four points; None when no kernel reads it."""
        if self.kind == "cube" or (self.kind == "bp" and math.isinf(self.p)):
            return "zonotope"
        if dim == 2 and (self.kind == "simplex" or (self.kind == "bp" and self.p == 1.0)):
            return "cloud" if self.row_count <= PAIR_AREA_MAX_POINTS else None
        if dim == 3 and self.kind == "simplex" and self.m == 4:
            return "tetrahedron"
        return None

    def rows(self, X: np.ndarray) -> np.ndarray:
        """The rows behind X C for samples X of shape (..., m, n), as ``body``
        builds them."""
        if self.kind == "cube":
            return self.half * X
        if self.kind == "bp" and self.p == 1.0:
            return np.concatenate([X, -X], axis=-2)
        return X

    @property
    def row_count(self) -> int:
        """Rows per sample of ``rows``."""
        return self.m * (2 if self.kind == "bp" and self.p == 1.0 else 1)

    def min_columns(self, dim: int) -> int:
        """Columns needed for X C to be full-dimensional almost surely."""
        return dim + 1 if self.kind == "simplex" else dim

    def body(self, X: np.ndarray):
        """The random body X C for sampled columns X."""
        if self.vertices is not None:
            return hull(self.vertices @ X)
        if self.form(2) == "zonotope":
            return Zonotope(self.rows(X))
        return hull(self.rows(X))


# ---------------------------------------------------------------------------
# experiment specs


def _no_diagnostics() -> dict:
    return {"degenerate_hulls": 0, "unbounded_polars": 0}


def _counted(body, diag: dict):
    """``body``, counted in ``diag`` when it is a degenerate hull."""
    if isinstance(body, VPolytope) and body.is_degenerate():
        diag["degenerate_hulls"] += 1
    return body


class _Spec:
    """An experiment config parsed once; building it is the validation.

    ``kind`` names the experiment, ``direction`` its claimed order ("le"
    or "ge"; lln has none) and ``keys`` the top-level keys it reads besides
    dim, trials and seed, as (required, optional).  ``parse`` sets
    ``blocks``, one tuple of (density, m) draws per side (lln: per row),
    and whatever else the kind reads.  The spec is frozen once built.

    Trial i of side s draws from its own stream RngStream(seed, (s, i)).
    A kind supplies its hull route, ``value(samples, diag)``: one trial's
    value from its samples, one array per draw, adding its diagnostics to
    ``diag``.  A config with a stacked kernel sets ``entries``, the chunk
    entries one trial takes, and the kind's ``kernel(samples, diag)`` takes
    a chunk's stacked samples to (values, mask); the trials outside the
    mask take ``value``.
    """

    kind = ""
    keys: tuple = ((), ())
    entries = 0

    def __init__(self, config: dict):
        required, optional = self.keys
        _fields(config, "", required, ("dim", "trials", "seed") + optional)
        dim = config.get("dim", 2)
        _require(type(dim) is int and dim in (2, 3), f"dim must be 2 or 3, got {dim!r}")
        self.dim = dim
        self.trials = _integer(config.get("trials", DEFAULT_TRIALS), "trials")
        self.seed = _integer(config.get("seed", 0), "seed", 0)
        self.parse(config)
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(f"{type(self).__name__} is frozen")
        object.__setattr__(self, name, value)

    def chunk_len(self) -> int:
        return max(1, CHUNK_ENTRIES // self.entries) if self.entries else 1

    def rule(self) -> dict | None:
        """The polar rule of the spec's trials (polar kinds), else None."""
        return None

    def block_len(self, side: int) -> int:
        """Trials per sample block of ``side``: as many as fit CHUNK_ENTRIES
        sample entries, and at least one."""
        return max(1, CHUNK_ENTRIES // (self.dim * sum(m for _, m in self.blocks[side])))

    def stacked(self, side: int, first: int, count: int) -> list:
        """Samples of trials first, ..., first + count - 1, one array of shape
        (count, m, dim) per draw of the side, drawn as one block: trial i's
        rows are what its own stream RngStream(seed, (side, i)) gives."""
        return draw_block(RngStream(self.seed, (side,)), first, count, self.blocks[side])

    def chunk(self, side: int, first: int, count: int, diag: dict) -> np.ndarray:
        """The values of trials first, ..., first + count - 1, drawn as one
        block, adding their diagnostics to ``diag``."""
        return self.chunk_values(self.stacked(side, first, count), diag)

    def chunk_values(self, samples: list, diag: dict) -> np.ndarray:
        """The values of the trials whose stacked samples are ``samples``,
        adding their diagnostics to ``diag``."""
        count = len(samples[0])
        if self.entries:
            values, full = self.kernel(samples, diag)
        else:
            values, full = np.empty(count), np.zeros(count, dtype=bool)
        for t in np.flatnonzero(~full):
            values[t] = self.value([S[t] for S in samples], diag)
        return values

    def trial(self, side: int, index: int, diag: dict) -> float:
        """Trial ``index`` of ``side`` through the hull route alone, the
        reference every kernel must agree with."""
        return self.value([S[0] for S in self.stacked(side, index, 1)], diag)

    def _blocks(self, blocks) -> tuple:
        """Both sides' draws from the ``blocks`` list."""
        _require(isinstance(blocks, list) and blocks, "blocks must be a non-empty list")
        draws = []
        for i, blk in enumerate(blocks):
            key = f"blocks[{i}]"
            _fields(blk, key, ("density", "m"))
            draws.append((_density(blk["density"], f"{key}.density", self.dim),
                          _integer(blk["m"], f"{key}.m")))
        return _both_sides(draws)

    def _csets(self, literals) -> tuple:
        """The ``c_sets`` list: one C-set per block, of its block's size."""
        _require(isinstance(literals, list) and len(literals) == len(self.blocks[0]),
                 "c_sets must hold one c_set per block")
        out = tuple(CSet.from_literal(lit, f"c_sets[{i}]") for i, lit in enumerate(literals))
        for i, (c, (_, m)) in enumerate(zip(out, self.blocks[0])):
            _require(c.m == m, f"c_sets[{i}] has m = {c.m}, but blocks[{i}].m is {m}")
        return out


class _PolarSpec(_Spec):
    """Kinds that average the polar measure of a mixed projection body: its
    radial measure, the spec's polar rule and the one hull route of every
    such kind, over the n - 1 bodies a kind's ``bodies(samples, diag)``
    builds from one trial's samples.

    The rule is one value, ``nodes``: the node count of the spatial grid,
    or None for the exact rule in the plane and the arc walk of
    ``bodies.spatial_polar_measures`` in space; ``projections.polar_measures``
    reads all three.  In space ``_route`` fixes it at parse time: the
    config's ``quadrature.nodes`` when it gives one, else the POLAR_RULES
    row of the measure at the kernel's generator bound (a tetrahedron
    pair's TETRAHEDRON_PAIR_ATOMS among them), else, for a kind with no
    kernel, DEFAULT_NODES[3].  The kernel and hull route both apply it
    through ``_values`` (the hull route to a stack of one), so a trial and
    its replay never take different rules."""

    direction = "le"

    def parse(self, config: dict):
        self.measure = _measure(config.get("measure", {"type": "lebesgue"}))
        q = quadrature_block(config)
        _require(not q.get("certify"),
                 "quadrature.certify is not supported in experiments (the petty command honours it)")
        _require(self.dim == 3 or q.get("nodes") is None,
                 "quadrature.nodes sizes the spatial grid; planar polar measures are exact")
        self.nodes = q.get("nodes")

    def _route(self, generators: int | None):
        """Fix the spatial rule for a kernel whose projection bodies have at
        most ``generators`` generators, or None for a kind with no kernel,
        and size a kernel's chunk by its rule's largest temporary."""
        if self.nodes is None and generators is None:
            self.nodes = DEFAULT_NODES[3]
        elif self.nodes is None:
            rows = POLAR_RULES[self.measure.variant]
            self.nodes = [nodes for first, nodes in rows if generators >= first][-1]
        if generators is not None:
            self.entries = self.nodes or spatial_polar_entries(generators, self.measure)

    def rule(self) -> dict:
        """The polar rule of the spec's trials, for its reports: ``exact``
        in the plane, else ``walk`` with its order or ``grid`` with its
        nodes."""
        if self.dim == 2:
            return {"rule": "exact"}
        if self.nodes is None:
            return {"rule": "walk", "order": POLAR_WALK_ORDER}
        return {"rule": "grid", "nodes": self.nodes}

    def value(self, samples: list, diag: dict) -> float:
        """The polar measure of Pi(``bodies``) by the spec's rule, a stack of
        one.  A flat Pi (``bodies.spans_space``), whose polar is unbounded,
        counts in ``diag``; under Lebesgue measure it raises, else it takes
        the exact measure of its strip in the plane or the grid in space
        (DEFAULT_NODES[3] nodes past the walk), where every Pi the rule
        cannot read goes too."""
        G = mixed_projection_support(self.bodies(samples, diag)).generators[None]
        full = spans_space(G)
        values, held = self._values(G, full)
        if held[0]:
            return values[0]
        if not full[0]:
            diag["unbounded_polars"] += 1
            if self.measure.variant == "lebesgue":
                raise GeometryError("polar set is unbounded, Lebesgue measure infinite")
        nodes = (self.nodes or DEFAULT_NODES[3]) if self.dim == 3 else None
        return polar_measures(G, self.measure, nodes)[0][0]

    def _values(self, G: np.ndarray, full: np.ndarray) -> tuple:
        """(values, held): the polar measures of the zonotopes sum_k [-g_k,
        g_k] over the stacked generator sets G[t] of the trials in the mask
        ``full``, which must span their space, by the spec's rule.
        ``held`` leaves out the sets the rule cannot read.  No rule depends
        on the chunk, so neither do the bits.  The values outside ``held``
        are unset."""
        values, held = np.empty(len(full)), full.copy()
        values[full], held[full] = polar_measures(G[full], self.measure, self.nodes)
        return values, held


class _Thm12Spec(_PolarSpec):
    kind = "thm12"
    keys = (("blocks", "c_set"), ("measure", "quadrature"))

    def parse(self, config: dict):
        super().parse(config)
        self.blocks = self._blocks(config["blocks"])
        _require(len(self.blocks[0]) == 1, "thm12 takes one block")
        m = self.blocks[0][0][1]
        self.cset = CSet.from_literal(config["c_set"])
        _require(self.cset.m == m, f"c_set has m = {self.cset.m}, but blocks[0].m is {m}")
        _require(self.measure.variant != "lebesgue" or m >= self.cset.min_columns(self.dim),
                 "Lebesgue polar measure needs enough columns for a full-dimensional body")
        self.form = self.cset.form(self.dim)
        k = self.cset.row_count
        # the largest temporaries: a cloud's k^3 edge test orientations, the
        # k^2 arc terms of a planar zonotope's exact polar measure, and in
        # space the walk or grid of Pi K: four face normals of a tetrahedron,
        # the k(k - 1)/2 pair crosses of a zonotope's generators
        if self.form == "cloud":
            self.entries = k ** 3
        elif self.form is not None and self.dim == 2:
            self.entries = k * k
        elif self.dim == 3:
            self._route({"tetrahedron": 4, "zonotope": k * (k - 1) // 2}.get(self.form))

    def bodies(self, samples: list, diag: dict) -> list:
        """n - 1 copies of X C, counting a degenerate hull once."""
        X, = samples
        return [_counted(self.cset.body(X), diag)] * (self.dim - 1)

    def kernel(self, samples: list, diag: dict) -> tuple:
        P = self.cset.rows(samples[0])
        if self.form == "tetrahedron":
            full = full_rank(P - P.mean(axis=1, keepdims=True))
            return self._values(tetrahedron_projection_generators(P), full)
        if self.dim == 3:
            G = zonotope_projection_generators(P)
            return self._values(G, full_rank(P))
        # Pi K turned a quarter turn, which keeps its polar measure: 2 g over
        # the generators g of a zonotope, which spans the plane where they
        # do, and e / 2 over the hull edges e of a cloud
        if self.form == "zonotope":
            G, full = 2.0 * P, full_rank(P)
        else:
            E, full = planar_hull_edges(P)
            G = 0.5 * E
        return self._values(G, full)


class _MixedSpec(_PolarSpec):
    """Polar measure of a mixed projection body Pi(K_1, K_2) in space, K_i
    built from the i-th draw of a side.  Subclasses build the bodies, and
    set ``form`` when a stacked kernel reads both: "zonotope" when they are
    the zonotopes with generator rows ``rows``, "tetrahedron" when they are
    the hulls of those four rows."""

    form = None

    def parse(self, config: dict):
        _require(self.dim == 3, f"{self.kind} needs dim = 3")
        super().parse(config)

    def kernel(self, samples: list, diag: dict) -> tuple:
        A, B = (self.rows(i, X) for i, X in enumerate(samples))
        if self.form == "tetrahedron":
            W, full = tetrahedron_pair_normals(A, B)
            return self._values(0.25 * W, full)
        # Pi(Z_A, Z_B) is full-dimensional when A and B both span space
        full = full_rank(A) & full_rank(B)
        return self._values(mixed_projection_generators(A, B), full)


class _Thm11Spec(_MixedSpec):
    kind = "thm11"
    keys = (("blocks", "c_sets"), ("measure", "quadrature"))

    def parse(self, config: dict):
        super().parse(config)
        self.blocks = self._blocks(config["blocks"])
        _require(len(self.blocks[0]) == self.dim - 1, f"thm11 needs {self.dim - 1} blocks")
        self.csets = self._csets(config["c_sets"])
        forms = {c.form(3) for c in self.csets}
        if len(forms) == 1:
            self.form, = forms
        a, b = (c.m for c in self.csets)
        self._route({"tetrahedron": TETRAHEDRON_PAIR_ATOMS, "zonotope": a * b}.get(self.form))

    def bodies(self, samples: list, diag: dict) -> list:
        return [_counted(cset.body(X), diag) for X, cset in zip(samples, self.csets)]

    def rows(self, i: int, X: np.ndarray) -> np.ndarray:
        return self.csets[i].rows(X)


class _Cor13Spec(_MixedSpec):
    """thm11 on the empirical centroid bodies Z_m = sum_i [-x_i/m, x_i/m] of
    m uniform points of each body."""

    kind = "cor13"
    keys = (("bodies", "m"), ("measure", "quadrature"))
    form = "zonotope"

    def parse(self, config: dict):
        super().parse(config)
        bodies = config["bodies"]
        _require(isinstance(bodies, list) and len(bodies) == self.dim - 1,
                 f"cor13 needs {self.dim - 1} bodies")
        m = _integer(config["m"], "m")
        self.blocks = _both_sides(
            (_uniform(_literal(lit, f"bodies[{i}]", self.dim), f"bodies[{i}]"), m)
            for i, lit in enumerate(bodies))
        self._route(m * m)

    def bodies(self, samples: list, diag: dict) -> list:
        return [empirical_centroid_body(X) for X in samples]

    def rows(self, i: int, X: np.ndarray) -> np.ndarray:
        return X / X.shape[1]


class _EmpMixedSpec(_Spec):
    kind = "empmixed"
    direction = "ge"
    keys = (("blocks", "c_sets"), ("ball_slots", "ball_radius"))

    def parse(self, config: dict):
        self.blocks = self._blocks(config["blocks"])
        self.csets = self._csets(config["c_sets"])
        self.ball_slots = _integer(config.get("ball_slots", 0), "ball_slots", 0)
        self.volume_mode = len(self.csets) == 1 and self.ball_slots == 0
        if not self.volume_mode:
            _require(len(self.csets) + self.ball_slots == self.dim,
                     "mixed volume needs blocks plus ball slots equal to dim")
        radius = _positive(config.get("ball_radius", 1.0), "ball_radius")
        _require(self.ball_slots or "ball_radius" not in config, "ball_radius needs ball_slots >= 1")
        self.ball = ball_body(self.dim, radius) if self.ball_slots else None
        c = self.csets[0]
        self.pair_areas = self.dim == 2 and self.volume_mode and c.form(2) == "cloud"
        if self.pair_areas:
            self.entries = c.row_count ** 3
        elif (len(self.csets) == 2 and self.ball_slots == 1
              and all(c.form(3) == "tetrahedron" for c in self.csets)):
            # V(A, B, ball) of two tetrahedra from the 6 x 6 edge pairs' cross products
            self.entries = 36 * 3

    def value(self, samples: list, diag: dict) -> float:
        bodies = [_counted(cset.body(X), diag) for X, cset in zip(samples, self.csets)]
        if self.volume_mode:
            return volume(bodies[0])
        return mixed_volume(bodies + [self.ball] * self.ball_slots)

    def kernel(self, samples: list, diag: dict) -> tuple:
        if self.pair_areas:
            return planar_hull_areas(self.csets[0].rows(samples[0]))
        W, full = tetrahedron_pair_normals(*samples)
        return self.ball.support_batch(W.reshape(-1, 3)).reshape(len(W), -1).sum(axis=1) / 6.0, full


class _PairingSpec(_Spec):
    """v1(conv A, Z): A is m1 draws from the uniform density on a body K,
    Z the sum of the segments [-y, y] over m2 draws y from the uniform
    density on its polar projection polytope (``centroid``: over y / m2,
    the empirical centroid body).  ``strict`` kinds reject a degenerate
    spatial hull.  In the plane a kernel takes v1(conv A, Z) = sum_j width
    of A along z_j^perp, on the clouds whose centered points
    ``bodies.full_rank`` finds spanning the plane: its Gram test costs 4 m1
    entries per trial, the widths m1 m2."""

    centroid = False
    strict = False

    def parse(self, config: dict):
        """Sizes planar chunks by the largest (m1, m2) draws; subclasses call
        it once they have set ``blocks``."""
        if self.dim == 2:
            self.entries = max(m1 * max(m2, 4) for (_, m1), (_, m2) in self.blocks)

    def value(self, samples: list, diag: dict) -> float:
        X, Y = samples
        A = _counted(hull(X), diag)
        if self.strict and self.dim == 3 and A.is_degenerate():
            raise GeometryError("degenerate spatial hull in v1 trial")
        return v1(A, Zonotope(Y / len(Y) if self.centroid else Y))

    def kernel(self, samples: list, diag: dict) -> tuple:
        A, Y = samples
        Z = Y / Y.shape[1] if self.centroid else Y
        return cloud_widths(A, _perp(Z)).sum(axis=1), full_rank(A - A.mean(axis=1, keepdims=True))


class _EmpPetty2Spec(_PairingSpec):
    kind = "emppetty2"
    direction = "ge"
    keys = (("body", "m1", "m2"), ())
    strict = True

    def parse(self, config: dict):
        m1 = _integer(config["m1"], "m1", self.dim + 1)
        m2 = _integer(config["m2"], "m2")
        pair = _polar_pair(config["body"], "body", self.dim)
        self.blocks = _both_sides([(_uniform(pair, "body"), m1),
                                   (_uniform(pair, "body", "polar"), m2)])
        super().parse(config)


class _LlnSpec(_PairingSpec):
    """One row per (m1, m2) of the sweep, all drawing from the densities on
    K and its polar projection polytope; ``target`` is the deterministic
    limit V1(K, centroid body of the polar projection polytope), and
    ``family`` the limits of the ``family`` bodies."""

    kind = "lln"
    keys = (("body",), ("m1_list", "m2_list", "family"))
    centroid = True

    def parse(self, config: dict):
        m1s, m2s = config.get("m1_list", [64]), config.get("m2_list", [64])
        _require(isinstance(m1s, list) and isinstance(m2s, list) and len(m1s) == len(m2s) > 0,
                 "m1_list and m2_list must be non-empty lists of equal length")
        family = config.get("family", [])
        _require(isinstance(family, list), "family must be a list of body literals")
        pairs = [_polar_pair(config["body"], "body", self.dim)] + [
            _polar_pair(lit, f"family[{i}]", self.dim) for i, lit in enumerate(family)
        ]
        self.target, *self.family = [_pairing_target(pair) for pair in pairs]
        dK, dL = (_uniform(pairs[0], "body", member) for member in ("body", "polar"))
        self.blocks = tuple(
            ((dK, _integer(m1, f"m1_list[{i}]", self.dim + 1)), (dL, _integer(m2, f"m2_list[{i}]")))
            for i, (m1, m2) in enumerate(zip(m1s, m2s))
        )
        super().parse(config)


SPECS = {spec.kind: spec for spec in (_Thm12Spec, _Thm11Spec, _Cor13Spec, _EmpMixedSpec,
                                      _EmpPetty2Spec, _LlnSpec)}


def _run_chunk(spec: _Spec, side: int, first: int, samples: list, diag: dict) -> np.ndarray:
    """The values of the chunk of trials from ``first`` whose samples are
    ``samples``."""
    try:
        return spec.chunk_values(samples, diag)
    except Exception:
        # Replay the chunk one trial at a time, each drawn as a block of one,
        # so the error names the trial that raised it; the whole chunk fails
        # either way.
        for index in range(first, first + len(samples[0])):
            try:
                spec.chunk(side, index, 1, _no_diagnostics())
            except Exception as exc:
                raise TrialError((side, index), f"{type(exc).__name__}: {exc}") from exc
        raise


def _worker(payload: tuple) -> tuple:
    spec, side, start, count = payload
    diag = _no_diagnostics()
    values = np.empty(count)
    step, block = spec.chunk_len(), spec.block_len(side)
    for b in range(0, count, block):
        samples = spec.stacked(side, start + b, min(block, count - b))
        for a in range(b, b + len(samples[0]), step):
            chunk = [S[a - b:a - b + step] for S in samples]
            values[a:a + len(chunk[0])] = _run_chunk(spec, side, start + a, chunk, diag)
    return values, diag


def run_trials(spec: _Spec, side: int, threads: int):
    """Per-trial values of one side (lln: one row) in index order plus
    summed diagnostics."""
    trials = spec.trials
    if threads <= 1 or trials < 2 * threads:
        return _worker((spec, side, 0, trials))
    bounds = np.linspace(0, trials, threads + 1, dtype=int)
    payloads = [
        (spec, side, int(a), int(b - a))
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


def _certificate(kind: str, config: dict, sides: tuple, nodes: int) -> dict:
    """Each side's worst relative gap between its trial values ``sides[s]``
    on a grid of ``nodes`` nodes and the same trials through the chunk route
    on twice as many, the doubling of the petty command's ``certify``, over
    the trials whose index is a multiple of CERTIFY_STRIDE; it depends on
    trial indices alone, not on threads."""
    fine = SPECS[kind](dict(config, quadrature={"nodes": 2 * nodes}))
    checked = range(0, len(sides[0]), CERTIFY_STRIDE)
    gaps = {}
    for side, name in enumerate(("lhs", "rhs")):
        gap = 0.0
        for index in checked:
            want = _run_chunk(fine, side, index, fine.stacked(side, index, 1),
                              _no_diagnostics())[0]
            gap = max(gap, float(abs(sides[side][index] - want) / max(abs(want), 1e-300)))
        gaps[name] = gap
    return {"nodes": 2 * nodes, "trials_per_side": len(checked),
            "max_relative_gap": gaps}


def _two_sided_report(kind: str, config: dict, threads: int) -> dict:
    spec = SPECS[kind](config)
    lhs_vals, lhs_diag = run_trials(spec, 0, threads)
    rhs_vals, rhs_diag = run_trials(spec, 1, threads)
    lhs, rhs = summarize(lhs_vals), summarize(rhs_vals)
    direction = spec.direction
    diag = {
        key: lhs_diag[key] + rhs_diag[key] for key in sorted(lhs_diag)
    }
    report = {
        "experiment": kind,
        "config": dict(config),
        "seed": spec.seed,
        "trials": spec.trials,
        "direction": direction,
        "lhs": lhs.to_dict(),
        "rhs": rhs.to_dict(),
        "verdict": classify(lhs, rhs, direction),
        "diagnostics": diag,
    }
    rule = spec.rule()
    if rule is not None:
        if rule["rule"] == "grid":
            rule["certificate"] = _certificate(kind, config, (lhs_vals, rhs_vals), spec.nodes)
        elif rule["rule"] == "walk" and diag["unbounded_polars"]:
            # the hull route read the flat projection bodies on the grid
            rule["unbounded"] = {"rule": "grid", "nodes": DEFAULT_NODES[3]}
        report["quadrature"] = rule
    return report


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


def run_lln(config: dict, threads: int | None = None) -> dict:
    """Sweep of (1/m2) E V1([K]_m1, [polar projection]_m2^inf) against the
    deterministic pairing limit, plus a constancy table over a body family."""
    threads = resolve_threads(threads)
    spec = _LlnSpec(config)
    sweep = [(m1, m2) for (_, m1), (_, m2) in spec.blocks]
    rows = []
    diag = _no_diagnostics()
    last_within = False
    for row, (m1, m2) in enumerate(sweep):
        values, d = run_trials(spec, row, threads)
        est = summarize(values)
        for key in diag:
            diag[key] += d[key]
        last_within = abs(est.mean - spec.target) <= 3.0 * est.stderr
        rows.append(
            {
                "m1": m1,
                "m2": m2,
                "estimate": est.to_dict(),
                "target": spec.target,
                "within_3_stderr": bool(last_within),
            }
        )
    constancy = None
    if spec.family:
        targets = list(spec.family)
        spread = (max(targets) - min(targets)) / max(abs(max(targets)), 1e-300)
        constancy = {"targets": targets, "relative_spread": spread}
    return {
        "experiment": "lln",
        "config": dict(config, m1_list=[m1 for m1, _ in sweep], m2_list=[m2 for _, m2 in sweep]),
        "seed": spec.seed,
        "trials": spec.trials,
        "rows": rows,
        "target": spec.target,
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
    _require(functional_id in FUNCTIONALS, f"unknown functional {functional_id!r}")
    spec = SPECS[FUNCTIONALS[functional_id]](config)
    _require(side in (0, 1) and type(side) is int, f"side must be 0 or 1, got {side!r}")
    values, _ = run_trials(spec, side, resolve_threads(threads))
    return summarize(values)


def replay(kind: str, config: dict, key) -> dict:
    """Rerun the trial with stream key (side, trial) of a ``kind`` experiment
    (lln: (row, trial)) through the chunk route, as a chunk of one, and
    through the per-trial route.  Each route gives its value and diagnostics,
    or the error it raised; ``relative_difference`` compares the values."""
    _require(kind in SPECS, f"unknown experiment {kind!r}")
    spec = SPECS[kind](config)
    sides = len(spec.blocks)
    shape = f"key must be (side, trial) with side below {sides} and 0 <= trial < 2**32"
    _require(isinstance(key, (tuple, list)) and len(key) == 2, f"{shape}, got {key!r}")
    side, index = (_integer(k, "key", 0) for k in key)
    _require(side < sides and index < INDEX_LIMIT, shape)
    routes = {
        "chunk": lambda diag: spec.chunk(side, index, 1, diag)[0],
        "trial": lambda diag: spec.trial(side, index, diag),
    }
    out = {"experiment": kind, "seed": spec.seed, "key": [side, index]}
    rule = spec.rule()
    if rule is not None:
        out["quadrature"] = rule
    for name, run in routes.items():
        diag = _no_diagnostics()
        try:
            out[name] = {"value": float(run(diag)), "diagnostics": diag}
        except Exception as exc:  # the report names what the trial raised
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    a, b = out["chunk"].get("value"), out["trial"].get("value")
    out["relative_difference"] = (
        None if a is None or b is None else abs(a - b) / max(abs(b), 1e-300)
    )
    return out


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

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
literal once: ``_literal`` keeps the bodies of the last LITERAL_MEMO_SIZE
literals, and what reports derive from a body (its uniform density and
that density's rearranged ball, its polar projection polytope and the
density on that, lln's target) lives on the body (``VPolytope.derived``),
so a second report on the same literal builds none of them.

A report's trials are one sequence of (side, trial) keys, side after side
(lln: row after row).  Samples are drawn per block of a side and the
geometry runs per chunk of the sequence:

* a worker draws its range of the sequence in sample blocks of one side,
  of at most ``CHUNK_ENTRIES`` sample entries, and cuts the blocks into
  chunks of at most ``chunk_len()`` trials; a chunk may take the tail of
  one block and the head of the next, of its side or the next side, but
  never spans a change of draw shapes (lln rows can differ in m);
* trial i of side s keeps its own Philox stream RngStream(seed, (s, i)),
  whose key is numpy's SeedSequence hash of (seed, s, i): numpy's pool of
  (seed, s) is read once per block and only the index word hashed per
  trial (``RngStream.child_keys``), and one Philox draws each trial's raw
  draws from its own key, counter 0 and an empty buffer (``draw_block``);
* the per-trial route, each trial's own generator followed by
  ``Density.sample`` (``sampling.draw_per_trial``), is the oracle the
  blocks equal bit for bit; ``verify.CHECKS`` and the tests compare them.
  ``trial``, the replay of a failing chunk, a grid's certificate and
  ``replay`` draw blocks of one trial.

A kind is a hull route, the value of one trial from its own samples, plus,
optionally, a stacked kernel that takes the chunk's samples to values and
a mask of the trials it could classify; the trials outside the mask take
the hull route, which is also the reference a trial run alone (``replay``)
takes.  thm12 and thm11 share one hull route, ``_PolarSpec.value``, over
the zonotope ``mixed_projection_support`` builds from the kind's n - 1
bodies (thm12: n - 1 copies of X C).  cor13 is thm11 on its empirical
centroid bodies (1/m) sum_i [-x_i, x_i], which are X C for the cube C-set
of half 1/m: its spec only turns its bodies and m into thm11's blocks and
C-sets.  In the plane that zonotope's
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
  along z_j^perp, the pairings of a trial's m1 points with its m2
  directions being one (m1, 2) @ (2, m2) product;
* empmixed volume mode: the area of conv X is half the sum of
  cross(x_i, x_j) over the hull edges (i, j), the ordered pairs with every
  other point strictly to their left.

The stacked planar kernels use no matrix product over stacked rows, only
elementwise arithmetic and, for the widths, a batched product of one fixed
shape per trial, so a trial's value is the same bit for bit whatever chunk
it falls in.  OpenBLAS gives row blocks of a 2-D product ``X @ A`` other
last bits than the whole product, so a stacked product would not.

In space, the projection bodies these kinds need are zonotopes whose
generators have closed forms, built for the whole chunk with elementwise
cross products:

* thm12, simplex C-set with m = 4: h_{Pi K}(u) = (1/4) sum over the four
  faces ijk of |<(x_j - x_i) x (x_k - x_i), u>|;
* thm12, cube or bp p = inf C-set: 4 sum_{i<j} |<g_i x g_j, u>| with g the
  generators of X C (half X for the cube);
* thm11 with two zonotope C-sets (cor13's: A = X/m and B = Y/m):
  h_{Pi(Z_A, Z_B)}(u) = 2 sum_{i,j} |<a_i x b_j, u>|;
* thm11 with two simplex C-sets with m = 4: h_{Pi(A, B)}(u) =
  (1/4) sum |<e x f, u>| over the edge pairs whose arcs cross, the atoms
  of S(A, B) that ``mixed.edge_crossings`` finds on a tetrahedron's edges,
  TETRAHEDRON_PAIR_ATOMS rows per trial with zero rows after the atoms.

Every route reads the projection bodies of a chunk through
``projections.polar_measures``, by the rule ``_PolarSpec._nodes`` reads off
the measure and each Pi's generator count: exact in the plane and under
3-D Lebesgue measure (the closed form, or the arc walk of
``bodies.spatial_polar_measures`` over the normal fan), else the walk up
to a crossover and a grid past it.  Neither route depends on the chunk,
so a trial's value is again the same bit for bit in every chunk.  The
same rows give empmixed with two such C-sets and one ball slot: V(A, B,
ball) = (1/6) sum h_ball(w), h_ball(0) = 0, one fixed-shape product per trial.

The report of a polar kind lists under ``quadrature``, outside
``diagnostics``, each rule its trials took and their count: ``exact``,
``walk`` with its order or ``grid`` with its nodes and a certificate, for
which its trials whose index is a multiple of CERTIFY_STRIDE rerun on
twice its nodes, with each side's worst relative gap.

A kernel leaves out of its mask every cloud it cannot classify with margin
(degenerate, collinear, coplanar or repeated points, generators that do not
span the plane or space, or an edge pair whose sign tests fall within the
margin).  Kernels and the hull route read projection bodies through
``_PolarSpec._values``, and only the hull route decides flatness: it
counts degenerate hulls, and a projection body whose generators do not
span the plane or space (``bodies.spans_space``) as an unbounded polar.
Under Lebesgue measure such a trial raises; under a Gaussian or ball
measure it takes the exact measure of its strip in the plane and its
measure's grid row in space.
The other kinds and C-sets have no kernel and take the hull route on every
trial: thm12 with other C-sets, thm11 with other hull C-sets, empmixed in
other mixed modes and the spatial emppetty2 and lln.  Chunk length follows from ``CHUNK_ENTRIES``.
A report runs its key sequence through one ``run_trials`` call, which sums
the diagnostics of every side: serially, or under threads > 1 as that many
contiguous ranges of the sequence in one process pool.  A grid's
certificate reruns its keys of both sides serially, as one sequence of
blocks of one.  Every kernel and route gives a trial the same bits in any
chunk, so the cut changes no report.  An error raised in a trial is
re-raised as a ``TrialError`` that names its (side, trial) key (lln:
(row, trial)), even in a chunk that holds trials of two sides; ``replay``
reruns that one trial.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import math
import sys
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
    as_points,
    as_polytope,
    ball_body,
    cloud_widths,
    cube_body,
    full_dimensional,
    full_rank,
    hull,
    lp_ball_body,
    m_combinations,
    perp,
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
    TETRAHEDRON_PAIR_ATOMS,
    RadialMeasure,
    centroid_body_support,
    mixed_projection_support,
    polar_measures,
    polar_nodes,
    polar_projection_polytope,
    tetrahedron_pair_normals,
    tetrahedron_projection_generators,
)
from .sampling import INDEX_LIMIT, Density, RngStream, draw_block
from .stats import EstimateWithCI, classify, summarize

DEFAULT_TRIALS = 20000
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
# Trials of each side, those whose index is a multiple of this, that the
# certificate of a grid reruns on twice its nodes.
CERTIFY_STRIDE = 64
# Bodies of literals, with what they derive, that a process keeps between
# reports (``_literal``): the last this many (literal, dim) pairs used.  A
# 3-D body's polar projection polytope can hold 1e5 vertices, so the bound
# stays small; a benchmark unit reads two or three literals.
LITERAL_MEMO_SIZE = 16
_CANONICAL = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


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


def resolve_threads(threads: int | None) -> int:
    """A runner's ``threads``: 1 for None, else a positive integer."""
    return 1 if threads is None else _integer(threads, "threads")


# ---------------------------------------------------------------------------
# reading config fields


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _fields(value, where: str, required=(), optional=()) -> dict:
    """``value`` when it is an object with every key of ``required`` and no
    key outside ``required`` and ``optional``, else a ConfigError naming the
    key; ``where`` is the object's own key, prefixed to the key names in
    messages ("" for the config).  It and the readers below run on every
    config field, so each formats its message only on failure."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config'} must be an object")
    for key in required:
        if key not in value:
            raise ConfigError(f"{where}.{key} is missing" if where else f"{key} is missing")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {where}.{key}" if where else f"unknown key {key}")
    return value


def _typed(value, where: str, keys: dict, tag: str) -> str:
    """The type of the literal ``value``, its ``tag`` field: one of ``keys``,
    each mapped to the (required, optional) keys the type reads besides
    ``tag``.  A type outside ``keys`` or a key that does not fit raises a
    ConfigError naming it."""
    kind = value.get(tag) if isinstance(value, dict) else None
    if not (isinstance(kind, str) and kind in keys):
        prefix = f"{where}." if where else ""
        raise ConfigError(f"{prefix}{tag} must be one of {sorted(keys)}, got {kind!r}")
    required, optional = keys[kind]
    _fields(value, where, (tag,) + required, optional)
    return kind


def _integer(value, key: str, low: int = 1, high=sys.maxsize) -> int:
    """``value`` when it is an integer (not a bool) from ``low`` to ``high``,
    by default ``sys.maxsize``, past which numpy takes no size or count."""
    if not (type(value) is int and value >= low):
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    if value > high:
        raise ConfigError(f"{key} must be at most {high}")
    return value


def _positive(value, key: str) -> float:
    """``value`` as a float when it is a positive number (not a bool) a float holds."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < math.inf):
        raise ConfigError(f"{key} must be a positive finite number, got {value!r}")
    if value > sys.float_info.max:
        raise ConfigError(f"{key} must be at most {sys.float_info.max}")
    return float(value)


def _exponent(value, key: str) -> float:
    """``value`` as a float when it is a number (not a bool) of at least 1,
    Infinity or held by a float: the p of an L_p ball or of msum's M."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 1):
        raise ConfigError(f"{key} must be a number >= 1, got {value!r}")
    if not (value <= sys.float_info.max or value == math.inf):
        raise ConfigError(f"{key} must be Infinity or at most {sys.float_info.max}")
    return float(value)


def _points(value, key: str, width: int | None) -> np.ndarray:
    """``value`` as an array of rows when it is a non-empty list of lists of
    numbers (not bools), all of one length: ``width`` unless None.  Their
    finiteness is ``bodies.as_points``'s rule, whose error names ``key``."""
    _require(isinstance(value, list) and value and all(
        isinstance(row, list) and row and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row) for row in value),
        f"{key} must be a non-empty list of lists of numbers, got {value!r}")
    lengths = {len(row) for row in value}
    _require(len(lengths) == 1 and width in (None, *lengths),
             f"{key} rows must all have {width or 'the same number of'} entries, got {value!r}")
    return _parse(key, as_points, value)


def _parse(key: str, build, *args):
    """``build(*args)``, re-raising the GeometryError that building a body
    or density from valid fields can raise as a ConfigError naming ``key``."""
    try:
        return build(*args)
    except GeometryError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def quadrature_block(config: dict) -> int | None:
    """The node count of the config's ``quadrature`` object, whose one key
    ``nodes`` is absent (None) or a positive integer: the grid of a spatial
    polar kind, or of petty's method ``quadrature``."""
    q = _fields(config.get("quadrature", {}), "quadrature", (), ("nodes",))
    return _integer(q["nodes"], "quadrature.nodes") if "nodes" in q else None


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
    return ball_body(dim, _positive(spec.get("radius", 1.0), f"{prefix}radius"),
                     _integer(spec["facets"], f"{prefix}facets", 3) if "facets" in spec else None)


def _parse_body(literal, key: str, dim: int) -> VPolytope:
    """The body of ``literal`` as a vertex polytope in dimension ``dim``."""
    K = _parse(key, lambda: as_polytope(body_from_literal(literal, key)))
    _require(K.dim == dim, f"{key} lives in dimension {K.dim}, expected {dim}")
    return K


def _json_plain(value) -> bool:
    """Whether JSON reads ``value``, which it encodes, back unchanged: no tuples or non-str keys."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_plain(v) for k, v in value.items())
    return all(map(_json_plain, value)) if isinstance(value, list) else not isinstance(value, tuple)


@lru_cache(maxsize=LITERAL_MEMO_SIZE)
def _literal_record(text: str, dim: int) -> VPolytope:
    """The body ``_literal`` keeps for the canonical JSON ``text`` of a body
    literal in dimension ``dim``.  A literal that fails raises here, and
    lru_cache keeps nothing for it."""
    return _parse_body(json.loads(text), "body", dim)


def _literal(literal, key: str, dim: int) -> VPolytope:
    """The body of the literal ``literal`` in dimension ``dim``.

    A plain JSON literal's body, with what reports derive and keep on it
    (``VPolytope.derived``), is kept for the process, keyed by its
    canonical JSON (``_CANONICAL``: sorted keys) and ``dim``.  A literal
    that JSON would change (tuples, non-finite or non-JSON numbers) gets a
    fresh body each call, and one that fails is parsed again here, so that
    its error names ``key`` and is the same on every call."""
    try:
        text = _CANONICAL(literal)
    except (TypeError, ValueError):
        text = None
    if text is not None and _json_plain(literal):
        try:
            return _literal_record(text, dim)
        except ConfigError:
            pass
    return _parse_body(literal, key, dim)


def _uniform(K: VPolytope, key: str) -> Density:
    """The uniform density on K, kept on K."""
    return K.derived("uniform", _parse, key, Density.uniform, K)


def _density(literal, key: str, dim: int) -> Density:
    """The density of a literal {type: uniform, body, rearranged} or
    {type: gaussian, sigma} in dimension ``dim``."""
    if _typed(literal, key, _DENSITY_KEYS, "type") == "gaussian":
        return Density.gaussian(dim, _positive(literal.get("sigma", 1.0), f"{key}.sigma"))
    d = _uniform(_literal(literal["body"], f"{key}.body", dim), key)
    rearranged = literal.get("rearranged", False)
    _require(isinstance(rearranged, bool), f"{key}.rearranged must be true or false, got {rearranged!r}")
    return d.rearranged() if rearranged else d


def _measure(literal) -> RadialMeasure:
    """The radial measure of a literal {type: lebesgue}, {type: gaussian,
    sigma} or {type: ball, radius}, the config's ``measure``."""
    kind = _typed(literal, "measure", _MEASURE_KEYS, "type")
    if kind == "lebesgue":
        return RadialMeasure.lebesgue()
    if kind == "gaussian":
        return RadialMeasure.gaussian(_positive(literal.get("sigma", 1.0), "measure.sigma"))
    return RadialMeasure.ball(_positive(literal["radius"], "measure.radius"))


def _polar_pair(literal, key: str, dim: int) -> tuple:
    """The body K of ``literal``, which must be full-dimensional, and its
    polar projection polytope, kept on K."""
    K = _literal(literal, key, dim)
    _require(not K.is_degenerate(), f"{key} must be full-dimensional")
    return K, K.derived("polar", polar_projection_polytope, K)


def _pairing_target(K: VPolytope, L: VPolytope) -> float:
    """V1(K, centroid body of L) for the polar projection polytope L of K."""
    return v1(K, centroid_body_support(L))


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
        p = _exponent(spec.get("p", 2.0), f"{key}.p")
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
        for i, c in enumerate(parts):
            ball = _parse(f"{key}.components[{i}]", lp_ball_body, c.m, c.p).vertices
            emb = np.zeros((len(ball), total))
            emb[:, offset:offset + c.m] = ball
            balls.append(emb)
            offset += c.m
        M = spec.get("M", {"p": 2.0})
        if isinstance(M, dict) and "p" in M:
            _fields(M, f"{key}.M", ("p",))
            # vertex candidates suffice for linear images, no high-dim hull needed
            rule = MSpec.lp(_exponent(M["p"], f"{key}.M.p"), vertex_budget=64)
        else:
            rule = MSpec.polytope(_literal(M, f"{key}.M", len(parts)))
        coeffs = _parse(f"{key}.M", rule.coefficients, len(parts))
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


DIAGNOSTICS = ("degenerate_hulls", "unbounded_polars")


def _no_diagnostics() -> dict:
    """A tally of DIAGNOSTICS, and of polar trials by rule (``_PolarSpec``)."""
    return collections.defaultdict(int, dict.fromkeys(DIAGNOSTICS, 0))


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
    _frozen = False

    def __init__(self, config: dict):
        required, optional = self.keys
        _fields(config, "", required, ("dim", "trials", "seed") + optional)
        dim = config.get("dim", 2)
        _require(type(dim) is int and dim in (2, 3), f"dim must be 2 or 3, got {dim!r}")
        self.dim = dim
        self.trials = _integer(config.get("trials", DEFAULT_TRIALS), "trials", 1, INDEX_LIMIT)
        self.seed = _integer(config.get("seed", 0), "seed", 0, math.inf)
        self.parse(config)
        self._frozen = True

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is frozen")
        object.__setattr__(self, name, value)

    def chunk_len(self) -> int:
        return max(1, CHUNK_ENTRIES // self.entries) if self.entries else 1

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
        for t in (~full).nonzero()[0]:
            values[t] = self.value([S[t] for S in samples], diag)
        return values

    def trial(self, side: int, index: int, diag: dict) -> float:
        """Trial ``index`` of ``side`` through the hull route alone, the
        reference every kernel must agree with."""
        return self.value([S[0] for S in self.stacked(side, index, 1)], diag)

    def bodies(self, samples: list, diag: dict) -> list:
        """The bodies X C of one trial, one per C-set, counting each
        degenerate hull in ``diag``."""
        return [_counted(cset.body(X), diag) for X, cset in zip(samples, self.csets)]

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

    def _cset(self, literal, key: str, block: int) -> CSet:
        """The C-set of ``literal`` at ``key``, of the size of blocks[block]."""
        c, m = CSet.from_literal(literal, key), self.blocks[0][block][1]
        _require(c.m == m, f"{key} has m = {c.m}, but blocks[{block}].m is {m}")
        return c

    def _csets(self, literals) -> tuple:
        """The ``c_sets`` list: one C-set per block, of its block's size."""
        _require(isinstance(literals, list) and len(literals) == len(self.blocks[0]),
                 "c_sets must hold one c_set per block")
        return tuple(self._cset(lit, f"c_sets[{i}]", i) for i, lit in enumerate(literals))


class _PolarSpec(_Spec):
    """Kinds that average the polar measure of a mixed projection body: its
    radial measure, the polar rule of each trial and the one hull route of
    every such kind, over the n - 1 bodies ``bodies(samples, diag)`` builds
    from one trial's samples (thm12: n - 1 copies of X C; thm11 and cor13:
    one body X C per C-set, ``_Spec.bodies``).

    A trial's rule, a grid's node count or None for the exact rule or the
    walk, is ``quadrature.nodes`` (``nodes``), which an exact spec (planar
    or 3-D Lebesgue) rejects, else ``projections.polar_nodes`` of the
    measure at the generator count of its Pi (``_nodes``).  A kernel reads
    stacks of ``width`` rows (``_stack``; a tetrahedron pair's
    TETRAHEDRON_PAIR_ATOMS), and the hull route Pi's merged generators, at
    most ``width``, at that width, so a trial and its replay take one rule
    (no kernel: ``width`` 0).  Each trial adds one to ``diag`` per rule."""

    direction = "le"
    width = 0

    def parse(self, config: dict):
        self.measure = _measure(config.get("measure", {"type": "lebesgue"}))
        self.nodes = quadrature_block(config)
        self.exact = self.dim == 2 or self.measure.variant == "lebesgue"
        _require(not self.exact or self.nodes is None,
                 "quadrature.nodes sizes the spatial grid; planar and 3-D Lebesgue polars are exact")

    def _stack(self, width: int):
        """Set the kernel's stack width, and size its chunk by its rule."""
        self.width = width
        self.entries = self._nodes(width) or spatial_polar_entries(width, self.measure)

    def _nodes(self, k: int, walk: bool = True) -> int | None:
        """The rule of a Pi of k generators (``walk`` False: one the walk does not read)."""
        if self.nodes or self.dim == 2:
            return self.nodes
        return polar_nodes(self.measure, max(k, self.width), walk)

    def rule(self, nodes: int | None) -> dict:
        """The rule tallied under ``nodes``, as reports name it."""
        return ({"rule": "grid", "nodes": nodes} if nodes else {"rule": "exact"} if self.exact
                else {"rule": "walk", "order": POLAR_WALK_ORDER})

    def value(self, samples: list, diag: dict) -> float:
        """The polar measure of Pi(``bodies``) by its rule, a stack of one.
        A flat Pi (``bodies.spans_space``), whose polar is unbounded, counts
        in ``diag``.  Under Lebesgue measure every Pi the rule cannot read
        raises, flat or found flat by the walk; else it takes the exact
        measure of its strip in the plane or its measure's grid row in
        space."""
        G = mixed_projection_support(self.bodies(samples, diag)).generators[None]
        full = spans_space(G)
        values, held = self._values(G, full, diag)
        if held[0]:
            return values[0]
        if not full[0]:
            diag["unbounded_polars"] += 1
        if self.measure.variant == "lebesgue":
            raise GeometryError("polar set is unbounded, Lebesgue measure infinite")
        nodes = self._nodes(G.shape[1], walk=False)
        diag[nodes] += 1
        return polar_measures(G, self.measure, nodes)[0][0]

    def _values(self, G: np.ndarray, full: np.ndarray, diag: dict) -> tuple:
        """(values, held): the polar measures of the zonotopes sum_k [-g_k,
        g_k] over the stacked generator sets G[t] of the trials in the mask
        ``full``, which must span their space, by their rule, tallied in
        ``diag``.  ``held`` leaves out the sets the rule cannot read.  No
        rule depends on the chunk, so neither do the bits.  The values
        outside ``held`` are unset."""
        values, held = np.empty(len(full)), full.copy()
        nodes = self._nodes(G.shape[1])
        values[full], held[full] = polar_measures(G[full], self.measure, nodes)
        if count := int(np.count_nonzero(held)):
            diag[nodes] += count
        return values, held


class _Thm12Spec(_PolarSpec):
    kind = "thm12"
    keys = (("blocks", "c_set"), ("measure", "quadrature"))

    def parse(self, config: dict):
        super().parse(config)
        self.blocks = self._blocks(config["blocks"])
        _require(len(self.blocks[0]) == 1, "thm12 takes one block")
        c = self.cset = self._cset(config["c_set"], "c_set", 0)
        _require(self.measure.variant != "lebesgue" or c.m >= c.min_columns(self.dim),
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
        elif self.form is not None:
            self._stack({"tetrahedron": 4, "zonotope": k * (k - 1) // 2}[self.form])

    def bodies(self, samples: list, diag: dict) -> list:
        """n - 1 copies of X C, counting a degenerate hull once."""
        X, = samples
        return [_counted(self.cset.body(X), diag)] * (self.dim - 1)

    def kernel(self, samples: list, diag: dict) -> tuple:
        P = self.cset.rows(samples[0])
        if self.form == "tetrahedron":
            full = full_dimensional(P)
            return self._values(tetrahedron_projection_generators(P), full, diag)
        if self.dim == 3:
            G = zonotope_projection_generators(P)
            return self._values(G, full_rank(P), diag)
        # Pi K turned a quarter turn, which keeps its polar measure: 2 g over
        # the generators g of a zonotope, which spans the plane where they
        # do, and e / 2 over the hull edges e of a cloud
        if self.form == "zonotope":
            G, full = 2.0 * P, full_rank(P)
        else:
            E, full = planar_hull_edges(P)
            G = 0.5 * E
        return self._values(G, full, diag)


class _Thm11Spec(_PolarSpec):
    """Polar measure of the mixed projection body Pi(X C_1, Y C_2) in space,
    over the two blocks and C-sets that ``draws`` reads from the config.
    The hull route reads the bodies ``CSet.body``; a stacked kernel reads
    two zonotope C-sets, or two tetrahedra, from their rows ``CSet.rows``,
    and other pairs have no kernel."""

    kind = "thm11"
    keys = (("blocks", "c_sets"), ("measure", "quadrature"))

    def parse(self, config: dict):
        _require(self.dim == 3, f"{self.kind} needs dim = 3")
        super().parse(config)
        self.draws(config)
        forms = {c.form(3) for c in self.csets}
        self.form = forms.pop() if len(forms) == 1 else None
        a, b = (c.m for c in self.csets)
        if self.form is not None:
            self._stack({"tetrahedron": TETRAHEDRON_PAIR_ATOMS, "zonotope": a * b}[self.form])

    def draws(self, config: dict):
        """Set ``blocks`` and ``csets``, one C-set per block."""
        self.blocks = self._blocks(config["blocks"])
        _require(len(self.blocks[0]) == 2, "thm11 needs 2 blocks")
        self.csets = self._csets(config["c_sets"])

    def kernel(self, samples: list, diag: dict) -> tuple:
        A, B = (cset.rows(X) for X, cset in zip(samples, self.csets))
        if self.form == "tetrahedron":
            W, full = tetrahedron_pair_normals(A, B)
            return self._values(0.25 * W, full, diag)
        # Pi(Z_A, Z_B) is full-dimensional when A and B both span space
        full = full_rank(A) & full_rank(B)
        return self._values(mixed_projection_generators(A, B), full, diag)


class _Cor13Spec(_Thm11Spec):
    """thm11 on the empirical centroid bodies Z_m = sum_i [-x_i/m, x_i/m]
    of m uniform points of each body: Z_m = X C for the cube C-set of half
    1/m, so the config's bodies and m become two uniform blocks and two
    such C-sets."""

    kind = "cor13"
    keys = (("bodies", "m"), ("measure", "quadrature"))

    def draws(self, config: dict):
        bodies = config["bodies"]
        _require(isinstance(bodies, list) and len(bodies) == 2, "cor13 needs 2 bodies")
        m = _integer(config["m"], "m")
        self.blocks = _both_sides(
            (_uniform(_literal(lit, f"bodies[{i}]", self.dim), f"bodies[{i}]"), m)
            for i, lit in enumerate(bodies))
        self.csets = self._csets([{"kind": "cube", "m": m, "half": 1.0 / m}] * 2)


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
        bodies = self.bodies(samples, diag)
        if self.volume_mode:
            return volume(bodies[0])
        return mixed_volume(bodies + [self.ball] * self.ball_slots)

    def kernel(self, samples: list, diag: dict) -> tuple:
        if self.pair_areas:
            return planar_hull_areas(self.csets[0].rows(samples[0]))
        # h_ball by one fixed-shape product per trial ("stacked clouds" in bodies)
        W, full = tetrahedron_pair_normals(*samples)
        return np.matmul(W, self.ball.vertices.T).max(axis=2).sum(axis=1) / 6.0, full


class _PairingSpec(_Spec):
    """v1(conv A, Z): A is m1 draws from the uniform density on a body K,
    Z the sum of the segments [-y, y] over m2 draws y from the uniform
    density on its polar projection polytope (``centroid``: over y / m2,
    the empirical centroid body).  ``strict`` kinds reject a degenerate
    spatial hull.  In the plane a kernel takes v1(conv A, Z) = sum_j width
    of A along z_j^perp, on the clouds that ``bodies.full_dimensional``
    finds spanning the plane: its Gram test costs 4 m1 entries per trial,
    the widths one (m1, 2) @ (2, m2) product of m1 m2 entries."""

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
        return cloud_widths(A, perp(Z)).sum(axis=1), full_dimensional(A)


class _EmpPetty2Spec(_PairingSpec):
    kind = "emppetty2"
    direction = "ge"
    keys = (("body", "m1", "m2"), ())
    strict = True

    def parse(self, config: dict):
        m1 = _integer(config["m1"], "m1", self.dim + 1)
        m2 = _integer(config["m2"], "m2")
        K, L = _polar_pair(config["body"], "body", self.dim)
        self.blocks = _both_sides([(_uniform(K, "body"), m1), (_uniform(L, "body"), m2)])
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
        self.target, *self.family = [K.derived("target", _pairing_target, K, L) for K, L in pairs]
        dK, dL = (_uniform(body, "body") for body in pairs[0])
        self.blocks = tuple(
            ((dK, _integer(m1, f"m1_list[{i}]", self.dim + 1)), (dL, _integer(m2, f"m2_list[{i}]")))
            for i, (m1, m2) in enumerate(zip(m1s, m2s))
        )
        super().parse(config)


SPECS = {spec.kind: spec for spec in (_Thm12Spec, _Thm11Spec, _Cor13Spec, _EmpMixedSpec,
                                      _EmpPetty2Spec, _LlnSpec)}


def _sequence_blocks(spec: _Spec, sides: tuple, start: int, stop: int):
    """The sample blocks of positions start, ..., stop - 1 of the key
    sequence of ``sides``, (side, first, samples) in sequence order: each
    side's trials from ``first`` on in blocks of at most ``block_len(side)``,
    drawn from the side's stream."""
    n = spec.trials
    for k, side in enumerate(sides):
        a, b = max(start - k * n, 0), min(stop - k * n, n)
        step = spec.block_len(side)
        for first in range(a, b, step):
            yield side, first, spec.stacked(side, first, min(step, b - first))


def _chunks(blocks, step: int):
    """The chunks of the sample blocks ``blocks``, (side, first, samples) in
    sequence order: runs of at most ``step`` trials, cut where the draw
    shapes change, each a list of the (side, first, samples) parts of the
    blocks it holds.  A chunk may take the tail of one block and the head
    of the next, of the same side or the next."""
    held, size = [], 0
    for side, first, samples in blocks:
        if held and [S.shape[1:] for S in samples] != [S.shape[1:] for S in held[-1][2]]:
            yield held
            held, size = [], 0
        count, a = len(samples[0]), 0
        while a < count:
            take = min(step - size, count - a)
            held.append((side, first + a, [S[a:a + take] for S in samples]))
            size, a = size + take, a + take
            if size == step:
                yield held
                held, size = [], 0
    if held:
        yield held


def _run_chunk(spec: _Spec, parts: list, diag: dict) -> np.ndarray:
    """The values of the chunk whose (side, first, samples) parts are
    ``parts``, stacked as one."""
    samples = parts[0][2] if len(parts) == 1 else [
        np.concatenate(draw) for draw in zip(*(part for _, _, part in parts))]
    try:
        return spec.chunk_values(samples, diag)
    except Exception:
        # Replay the chunk one trial at a time, each drawn as a block of one,
        # so the error names the key of the trial that raised it; the whole
        # chunk fails either way.
        for side, first, part in parts:
            for index in range(first, first + len(part[0])):
                try:
                    spec.chunk(side, index, 1, _no_diagnostics())
                except Exception as exc:
                    raise TrialError((side, index), f"{type(exc).__name__}: {exc}") from exc
        raise


def _values(spec: _Spec, blocks) -> tuple:
    """The values of the trials of the sample blocks ``blocks`` (as
    ``_chunks`` reads them) in order, and their diagnostics."""
    diag = _no_diagnostics()
    values = [_run_chunk(spec, parts, diag) for parts in _chunks(blocks, spec.chunk_len())]
    return np.concatenate(values or [np.empty(0)]), diag


def _worker(payload: tuple) -> tuple:
    """The values and diagnostics of positions start, ..., stop - 1 of the
    key sequence of ``sides``."""
    spec, sides, start, stop = payload
    return _values(spec, _sequence_blocks(spec, sides, start, stop))


def run_trials(spec: _Spec, sides, threads: int | None) -> tuple:
    """The per-trial values of ``sides`` (lln: rows), one row per side in
    index order, and the diagnostics summed over them all.

    The trials run as one sequence of (side, trial) keys, side after side,
    cut into chunks across sides (``_chunks``).  Under ``threads``
    (``resolve_threads``) > 1 the sequence runs as ``threads`` contiguous
    ranges in one process pool; with fewer than 2 ``threads`` keys,
    serially."""
    sides, threads = tuple(sides), resolve_threads(threads)
    total = len(sides) * spec.trials
    parts = 1 if threads <= 1 or total < 2 * threads else threads
    cuts = [total * k // parts for k in range(parts + 1)]
    payloads = [(spec, sides, a, b) for a, b in zip(cuts, cuts[1:])]
    if parts == 1:
        results = [_worker(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_worker, payloads))
    diag = _no_diagnostics()
    for _, d in results:
        for key, count in d.items():
            diag[key] += count
    return np.concatenate([v for v, _ in results]).reshape(len(sides), spec.trials), diag


# ---------------------------------------------------------------------------
# experiment drivers


def _rule_of(spec: _PolarSpec, side: int, index: int) -> int | None:
    """The nodes of the rule trial ``index`` of ``side`` takes in the chunk
    route, from its rerun as a chunk of one."""
    diag = _no_diagnostics()
    spec.chunk(side, index, 1, diag)
    return next(key for key in diag if key not in DIAGNOSTICS)


def _certificate(spec: _PolarSpec, config: dict, sides: np.ndarray, nodes: int,
                 every: bool) -> dict:
    """Each side's count of trials, and their worst relative gap between its
    values ``sides[s]`` on the grid of ``nodes`` nodes and the chunk route
    on twice as many (as the petty command's certificate), over the trials
    whose index is a multiple of CERTIFY_STRIDE that took the grid (all
    when ``every``, else by ``_rule_of``); None with none."""
    fine = SPECS[spec.kind](dict(config, quadrature={"nodes": 2 * nodes}))
    took = [[index for index in range(0, len(values), CERTIFY_STRIDE)
             if every or _rule_of(spec, side, index) == nodes] for side, values in enumerate(sides)]
    # both sides' keys as one sequence, each drawn as a block of one
    want, _ = _values(fine, ((side, index, fine.stacked(side, index, 1))
                             for side, keys in enumerate(took) for index in keys))
    checked, gaps = {}, {}
    for name, keys, got, fine_values in zip(("lhs", "rhs"), took, sides,
                                            np.split(want, [len(took[0])])):
        checked[name] = len(keys)
        gaps[name] = max((float(abs(got[index] - w) / max(abs(w), 1e-300))
                          for index, w in zip(keys, fine_values)), default=None)
    return {"nodes": 2 * nodes, "trials_per_side": checked, "max_relative_gap": gaps}


def _two_sided_report(kind: str, config: dict, threads: int | None) -> dict:
    spec = SPECS[kind](config)
    sides, tally = run_trials(spec, (0, 1), threads)
    lhs, rhs = (summarize(values) for values in sides)
    direction = spec.direction
    report = {
        "experiment": kind,
        "config": dict(config),
        "seed": spec.seed,
        "trials": spec.trials,
        "direction": direction,
        "lhs": lhs.to_dict(),
        "rhs": rhs.to_dict(),
        "verdict": classify(lhs, rhs, direction),
        "diagnostics": {key: tally.pop(key) for key in DIAGNOSTICS},
    }
    # a polar kind's tally of trials per rule: each rule, a grid certified
    for nodes in sorted(tally, key=lambda nodes: nodes or 0):
        rule = dict(spec.rule(nodes), trials=tally[nodes])
        if nodes:
            rule["certificate"] = _certificate(spec, config, sides, nodes, len(tally) == 1)
        report.setdefault("quadrature", []).append(rule)
    return report


def run_theorem_1_2(config: dict, threads: int | None = None) -> dict:
    """One-block shadow functional: E nu(polar projection of X C) under the
    original density versus its symmetric decreasing rearrangement."""
    return _two_sided_report("thm12", config, threads)


def run_theorem_1_1(config: dict, threads: int | None = None) -> dict:
    """Mixed projection version with dim-1 independent blocks."""
    return _two_sided_report("thm11", config, threads)


def run_corollary_1_3(config: dict, threads: int | None = None) -> dict:
    """Empirical centroid bodies feeding the mixed projection functional."""
    return _two_sided_report("cor13", config, threads)


def run_emp_mixed(config: dict, threads: int | None = None) -> dict:
    """Expected (mixed) volume of random images versus rearranged samples."""
    return _two_sided_report("empmixed", config, threads)


def run_emp_petty_2(config: dict, threads: int | None = None) -> dict:
    """Empirical Petty pairing: E v1(random hull, random segment sum)."""
    return _two_sided_report("emppetty2", config, threads)


def run_lln(config: dict, threads: int | None = None) -> dict:
    """Sweep of (1/m2) E V1([K]_m1, [polar projection]_m2^inf) against the
    deterministic pairing limit, plus a constancy table over a body family."""
    spec = _LlnSpec(config)
    sweep = [(m1, m2) for (_, m1), (_, m2) in spec.blocks]
    rows = []
    sides, diag = run_trials(spec, range(len(sweep)), threads)
    for (m1, m2), values in zip(sweep, sides):
        est = summarize(values)
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
        "diagnostics": dict(diag),
    }


RUNNERS = {
    "thm12": run_theorem_1_2,
    "thm11": run_theorem_1_1,
    "cor13": run_corollary_1_3,
    "empmixed": run_emp_mixed,
    "emppetty2": run_emp_petty_2,
    "lln": run_lln,
}


def estimate(kind: str, config: dict, side: int = 0,
             threads: int | None = None) -> EstimateWithCI:
    """The Monte Carlo estimate of one side of a ``kind`` experiment of
    SPECS (lln: one row of its sweep), as the kind's report gives it."""
    _require(kind in SPECS, f"unknown experiment {kind!r}")
    spec = SPECS[kind](config)
    _require(type(side) is int and 0 <= side < len(spec.blocks),
             f"side must be an integer below {len(spec.blocks)}, got {side!r}")
    (values,), _ = run_trials(spec, (side,), threads)
    return summarize(values)


def replay(kind: str, config: dict, key) -> dict:
    """Rerun the trial with stream key (side, trial) of a ``kind`` experiment
    (lln: (row, trial)) through the chunk route, as a chunk of one, and
    through the per-trial route.  Each route gives its value, diagnostics
    and, for a polar kind, the ``quadrature`` rule it took, or the error it
    raised; ``relative_difference`` compares the values."""
    _require(kind in SPECS, f"unknown experiment {kind!r}")
    spec = SPECS[kind](config)
    sides = len(spec.blocks)
    shape = f"key must be (side, trial) with side below {sides} and 0 <= trial < 2**32"
    _require(isinstance(key, (tuple, list)) and len(key) == 2, f"{shape}, got {key!r}")
    side, index = (_integer(k, "key", 0, math.inf) for k in key)
    _require(side < sides and index < INDEX_LIMIT, shape)
    routes = {
        "chunk": lambda diag: spec.chunk(side, index, 1, diag)[0],
        "trial": lambda diag: spec.trial(side, index, diag),
    }
    out = {"experiment": kind, "seed": spec.seed, "key": [side, index]}
    for name, run in routes.items():
        diag = _no_diagnostics()
        try:
            value = float(run(diag))
        except Exception as exc:  # the report names what the trial raised
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        out[name] = {"value": value, "diagnostics": {key: diag.pop(key) for key in DIAGNOSTICS}}
        for nodes in diag:  # the one rule of a polar trial
            out[name]["quadrature"] = spec.rule(nodes)
    a, b = out["chunk"].get("value"), out["trial"].get("value")
    out["relative_difference"] = (
        None if a is None or b is None else abs(a - b) / max(abs(b), 1e-300)
    )
    return out


# ---------------------------------------------------------------------------
# serialization


def report_to_json(report: dict) -> str:
    """Canonical JSON: sorted keys, stable float repr, no volatile fields.

    The report goes to ``json.dumps`` as it is, so every leaf must be a str,
    bool, int, float (numpy float64 included) or None: a numpy integer or
    bool does not serialize, and an index taken from numpy (a trial key, a
    tail fact) goes in through ``int()``.  A non-finite float (a ``bp`` or
    ``msum`` p = inf in the config) has no JSON number: it is written as
    the string of the token json gives it, such as "Infinity"."""
    strict = json.loads(json.dumps(report), parse_constant=str)
    return json.dumps(strict, sort_keys=True, indent=2) + "\n"


def rows_to_csv(header: tuple, rows) -> str:
    """CSV of ``header`` and one line per row, a dict read at the header's
    keys (other keys ignored)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def report_to_csv(report: dict) -> str:
    """Flat CSV of an experiment: a sweep's row per sweep point, else a row
    per side."""
    if "rows" in report:
        return rows_to_csv(
            ("experiment", "m1", "m2", "mean", "stderr", "ci_low", "ci_high", "target",
             "within_3_stderr"),
            ({**row, **row["estimate"], "experiment": report["experiment"]}
             for row in report["rows"]))
    return rows_to_csv(
        ("experiment", "side", "mean", "stderr", "ci_low", "ci_high", "trials", "direction",
         "verdict"),
        ({**report, **report[side], "side": side} for side in ("lhs", "rhs")))

"""Projection bodies, polar radial measures, and centroid bodies.

Support functions are the working currency here.  Every projection body,
mixed or not, is a zonotope with generators (mass/2) * normal over the mixed
area measure (for zonotopes, its generator closed form), so its support
equals shadow volumes; the centroid body is the one ``SupportEvaluator``.
Polar measures integrate a radial density in polar coordinates over 1/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf

from .bodies import (
    GeometryError,
    VPolytope,
    Zonotope,
    cross3,
    hull,
    merge_parallel_generators,
    planar_polar_measures,
    polar_of_zonotope,
    full_dimensional,
    reduced_form,
    spans_space,
    spatial_polar_measures,
    sphere_directions,
    unit_ball_volume,
    volume,
)
from .mixed import centroid, clip_halfspace, edge_crossings, mixed_area_measure, surface_area

DEFAULT_NODES = {2: 4096, 3: 8192}
PETTY_METHODS = ("exact", "quadrature")
SPHERE_SURFACE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}
# Radius, in units of sigma, past which the spatial Gaussian radial integral
# equals its limit in float64 (see ``RadialMeasure.radial_integral``).
GAUSSIAN_R_CLAMP = 40.0


class SupportEvaluator:
    """Vectorized support function h(u) with a provenance tag."""

    __slots__ = ("dim", "provenance", "_fn")

    def __init__(self, dim: int, fn, provenance: str):
        self.dim = dim
        self._fn = fn
        self.provenance = provenance

    def __call__(self, U) -> np.ndarray:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.dim:
            raise GeometryError("direction dimension mismatch")
        return self._fn(U)


@dataclass(frozen=True)
class RadialMeasure:
    """Rotation-invariant measure with a nonincreasing radial density.

    variant: 'lebesgue', 'gaussian' (standard normal scaled by sigma), or
    'ball' (Lebesgue restricted to the centered ball of the given radius).
    """

    variant: str
    sigma: float = 1.0
    radius: float = 1.0

    @staticmethod
    def lebesgue() -> "RadialMeasure":
        return RadialMeasure("lebesgue")

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "RadialMeasure":
        if sigma <= 0:
            raise GeometryError("gaussian sigma must be positive")
        return RadialMeasure("gaussian", sigma=sigma)

    @staticmethod
    def ball(radius: float) -> "RadialMeasure":
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        return RadialMeasure("ball", radius=radius)

    def radial_integral(self, R: np.ndarray, n: int) -> np.ndarray:
        """integral_0^R rho(r) r^(n-1) dr, vectorized; R may contain inf."""
        if self.variant == "lebesgue":
            if np.any(np.isinf(R)):
                raise GeometryError("polar set is unbounded, Lebesgue measure infinite")
            return R ** n / n
        if self.variant == "ball":
            Rc = np.minimum(R, self.radius)
            return Rc ** n / n
        s = self.sigma
        norm = (2.0 * math.pi * s * s) ** (-n / 2.0)
        if n == 2:
            # exp(-inf) = 0 gives R = inf its limit s^2 with no special case
            return norm * (s * s * (1.0 - np.exp(R * R * (-0.5 / (s * s)))))
        # From R = GAUSSIAN_R_CLAMP s on, erf is exactly 1.0 and the tail
        # R exp(-R^2 / 2 s^2) exactly 0.0 in float64, so clamping R there
        # changes no bit and gives R = inf its limit with no mask.  The
        # steps are those of s^3 sqrt(pi/2) erf(R / (s sqrt 2)) - s^2 R
        # exp(-R^2 / (2 s^2)), in place.
        out = np.minimum(R, GAUSSIAN_R_CLAMP * s, out=np.empty(np.shape(R)))
        tail = np.square(out, out=np.empty_like(out))
        tail /= -2 * s * s
        np.exp(tail, out=tail)
        tail *= s * s * out
        out /= s * math.sqrt(2.0)
        erf(out, out=out)
        out *= (s ** 3) * math.sqrt(math.pi / 2.0)
        out -= tail
        out *= norm
        return out


def polar_measure_from_support(hv: np.ndarray, measure: RadialMeasure, dim: int) -> float:
    """Polar-radial quadrature of one body's support values hv on the
    canonical node set of that size (uniform weights)."""
    hv = np.asarray(hv, dtype=float)
    if hv.min() < 0:
        if np.any(hv <= -1e-10):
            raise GeometryError("support evaluator returned negative values")
        hv = np.maximum(hv, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        R = 1.0 / hv
    np.abs(R, out=R)  # a zero or subnormal support of either sign gives R = inf
    inner = measure.radial_integral(R, dim)
    return float(SPHERE_SURFACE[dim] / len(hv) * inner.sum())


@lru_cache(maxsize=16)
def node_set(n: int, nodes: int) -> np.ndarray:
    """``sphere_directions(n, nodes)`` read-only, built once per size: the
    nodes of ``polar_measure`` and of the grid of ``polar_measures``.  Held
    coordinate-major, as the transpose of a C-contiguous (n, nodes) array,
    so that ``bodies._abs_pairing`` reads each block of nodes as n
    contiguous rows."""
    U = np.ascontiguousarray(sphere_directions(n, nodes).T)
    U.setflags(write=False)
    return U.T


def polar_measure(body, measure: RadialMeasure, nodes: int | None = None) -> float:
    """measure({x : h(x) <= 1}) in polar-radial coordinates, h the support
    of ``body``: a VPolytope, a Zonotope or a SupportEvaluator, on the grid
    of ``nodes`` nodes (None: the dimension's DEFAULT_NODES).

    For a zonotope that spans its space ``zonotope_polar_measure`` is exact
    in the plane and walks its normal fan in space; this grid is its oracle
    in ``verify``, and reads flat bodies too.  A grid's certificate is a
    second call on twice its nodes.
    """
    h, n = getattr(body, "support_batch", body), body.dim
    return polar_measure_from_support(h(node_set(n, nodes or DEFAULT_NODES[n])), measure, n)


# The spatial polar rule per measure, a function of the zonotope's
# generator count alone: rows (first generator count, nodes), a row
# covering the counts up to the next row's first, nodes None for the arc
# walk of ``bodies.spatial_polar_measures``.  3-D Lebesgue measure has no
# row: its walk is exact (H = 1/6, no rule nodes).  The README holds the
# measurements behind the rows, taken before ``faf29ef`` made the walk
# 2-24% faster at chunk size.  Per trial on a 2-vCPU Xeon the Gaussian
# walk beat the 8192-node grid in at least 38 of 40 rounds up to 17
# generators and tied at 18; the ball walk runs the rule on the two pieces
# of each edge outside the ball, and the ball grid, with no erf, was about
# even at 9 and faster from 10.  Each Gaussian grid row takes the smallest
# of 2048, 4096 and 8192 nodes whose relative error against the walk
# stayed within POLAR_GRID_TOL on every count it covers, over the bodies of
# ``verify.grid_table_test_generators``.  The ball row keeps 8192 nodes,
# which read up to 7.4e-5 under a ball crossing the polar's boundary, and
# is not held to the bound.  The error grows as the polar shrinks against
# the measure's scale, so every grid report carries a certificate at twice
# its nodes.
POLAR_RULES = {"gaussian": ((0, None), (17, 8192), (31, 4096)),
               "ball": ((0, None), (11, 8192))}
POLAR_GRID_TOL = 5e-5


def polar_nodes(measure: RadialMeasure | None, k: int, walk: bool = True) -> int | None:
    """The nodes of the spatial grid that POLAR_RULES gives zonotopes of k
    generators under ``measure`` (None: Lebesgue), or None for the walk;
    with ``walk`` False, for one the walk does not read, the grid rows'."""
    rows = POLAR_RULES.get(getattr(measure, "variant", "lebesgue"), ((0, None),))
    if not walk:
        rows = [row for row in rows if row[1]]
        if not rows:
            raise GeometryError("3-D Lebesgue measure has no grid row")
        k = max(k, rows[0][0])
    return [nodes for first, nodes in rows if k >= first][-1]


def polar_measures(G: np.ndarray, measure: RadialMeasure | None = None,
                   nodes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """nu(Z°) for the zonotopes Z = sum [-g, g] over the stacked generator
    rows of G[t], shape (T, k, n), and the mask of those the rule reads.
    With ``nodes`` they take the Fibonacci grid of that many nodes, which
    holds every row whose generators are finite, flat ones too (under
    Lebesgue measure it raises where a node's support is 0); with none they
    are exact in the plane (``bodies.planar_polar_measures``) and in space
    take the walk of the normal fan (``bodies.spatial_polar_measures``,
    exact under Lebesgue measure); the caller picks the rule, as
    ``polar_nodes`` gives it.  ``measure`` is a RadialMeasure, or None for
    Lebesgue measure.

    Each grid row is ``polar_measure`` of its one zonotope, so a row's value
    does not depend on the rows stacked with it.  In cor13 reports on a
    2-vCPU Xeon a Gaussian row of 64 generators took 0.32 ms on 4096 nodes
    and 0.67 ms on 8192 (0.43 and 0.89 ms on row-major node sets).
    """
    if nodes is None:
        return (planar_polar_measures if G.shape[-1] == 2 else spatial_polar_measures)(G, measure)
    measure = measure or RadialMeasure.lebesgue()
    held = np.isfinite(G).all(axis=(1, 2))
    values = np.full(len(G), math.nan)
    values[held] = [polar_measure(Zonotope(g), measure, nodes) for g in G[held]]
    return values, held


def zonotope_polar_measure(Z: Zonotope, measure: RadialMeasure | None = None) -> float:
    """nu(Z°) of a planar or spatial zonotope, Lebesgue measure by default:
    its generators merged, then the exact rule or the walk whatever their
    count, with no hull or grid (``volume(polar_of_zonotope(Z))`` is the
    hull route).  A Z that does not span its space raises GeometryError;
    the exact measure of a planar strip is ``polar_measures``' row of the
    merged generators."""
    return _merged_polar_measure(merge_parallel_generators(Z).generators, measure)


def _merged_polar_measure(gens: np.ndarray, measure: RadialMeasure | None = None) -> float:
    """``zonotope_polar_measure`` from generators already merged, as every
    projection body's are."""
    if gens.shape[1] not in (2, 3):
        raise GeometryError(f"polar supports dimension 2 or 3, got {gens.shape[1]}")
    if not spans_space(gens):
        raise GeometryError("polar requires a full-dimensional zonotope")
    values, held = polar_measures(gens[None], measure)
    if not held[0]:
        raise GeometryError("polar requires a full-dimensional zonotope")
    return float(values[0])


# ---------------------------------------------------------------------------
# projection bodies


def projection_body(K) -> Zonotope:
    """Zonotope whose support in direction u is the shadow volume |P_{u^perp} K|,
    the mixed projection body of n - 1 copies of K.

    A degenerate vertex body is rejected.  ``mixed_projection_support`` on
    n - 1 copies of it is the reader of flat bodies: there the flat-body
    conventions of the surface-area measure apply (a segment in the plane or
    a polygon in space casts shadows through its normal, anything flatter
    has zero shadow volume).
    """
    if not isinstance(K, Zonotope) and K.is_degenerate():
        raise GeometryError("projection body needs a full-dimensional body")
    return mixed_projection_support([K] * (K.dim - 1))


# Stacked projection bodies of tetrahedra, in the form of ``mixed``'s of zonotopes.

_TETRAHEDRON_FACES = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def tetrahedron_projection_generators(P: np.ndarray) -> np.ndarray:
    """Pi conv P[t] for stacked four-point clouds P of shape (T, 4, 3):
    h(u) = (1/4) sum over the faces ijk of |<(p_j - p_i) x (p_k - p_i), u>|,
    Cauchy's formula with each face's area normal."""
    i, j, k = _TETRAHEDRON_FACES.T
    return 0.25 * cross3(P[:, j] - P[:, i], P[:, k] - P[:, i])


# The edges of a tetrahedron as (i, j, k, l): the edge p_i p_j and the two
# vertices off it.
_TETRAHEDRON_EDGES = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2],
                               [1, 2, 0, 3], [1, 3, 0, 2], [2, 3, 0, 1]])
# Every vector the pair kernel reads as p_head - p_tail: the six edges p_j -
# p_i, then the test vectors p_k - p_i of the six edges, then p_l - p_i.
_TETRAHEDRON_HEADS = _TETRAHEDRON_EDGES[:, [1, 2, 3]].T.ravel()
_TETRAHEDRON_TAILS = np.tile(_TETRAHEDRON_EDGES[:, 0], 3)
# Atoms of S(A, B) for two tetrahedra in general position, at most: each
# edge-arc crossing of their normal fans is one atom, and the overlay of
# the fans (4 + 4 vertices, 6 + 6 arcs, c crossings) has V = 8 + c, E = 12 +
# 2c and, by Euler's formula, F = 6 + c regions, one per vertex of A + B,
# which has at most 16 (Schneider, Convex Bodies, 5.1): so c <= 10.
TETRAHEDRON_PAIR_ATOMS = 10


def tetrahedron_pair_normals(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixed area measure S(A, B) of A = conv P[t] and B = conv Q[t] for
    stacked four-point clouds P and Q of shape (T, 4, 3), and the mask of
    the trials where it holds: ``edge_crossings`` on the fixed edge table
    _TETRAHEDRON_EDGES.  Row t of the stack holds the rows w of the crossing
    pairs in edge-table order, signed to their atoms' normals, then zero
    rows up to TETRAHEDRON_PAIR_ATOMS, so h_{Pi(A, B)}(u) = sum |<w, u>| / 4
    and V(A, B, C) = sum h_C(w) / 6.  The mask is False where
    ``full_dimensional`` cannot call a cloud, a pair ties (a face parallel
    to an edge, parallel edges, repeated points) or a row lists more pairs
    than fit, which only tied rows do; callers take the hull route there.
    Both clouds are read as one stack: one gather and difference give their
    edges and test vectors, one ``full_dimensional`` their rank."""
    T, pairs = len(P), len(_TETRAHEDRON_EDGES) ** 2
    C = np.concatenate([P, Q])
    X = C.transpose(2, 0, 1)
    D = X.take(_TETRAHEDRON_HEADS, axis=2) - X.take(_TETRAHEDRON_TAILS, axis=2)
    e, x = D[..., :6], D[..., 6:].reshape(3, 2 * T, 2, 6).transpose(0, 2, 1, 3)
    w, plus, minus, tied = edge_crossings((e[:, :T], x[:, :, :T]), (e[:, T:], x[:, :, T:]))
    hit = ((plus > 0.0) | (minus > 0.0)).reshape(T, pairs)
    full = full_dimensional(C)
    holds = (full[:T] & full[T:] & ~tied.reshape(T, pairs).any(axis=1)
             & (hit.sum(axis=1) <= TETRAHEDRON_PAIR_ATOMS))
    # the crossing rows first, in edge-table order, as flat rows of the stack
    front = (~hit).argsort(axis=1, kind="stable")[:, :TETRAHEDRON_PAIR_ATOMS]
    front += np.arange(0, T * pairs, pairs)[:, None]
    W = w.reshape(3, T * pairs).T.take(front, axis=0)
    np.negative(W, out=W, where=(minus > 0.0).take(front)[..., None])
    W[~hit.take(front)] = 0.0
    return W, holds


def mixed_projection_support(bodies: list) -> Zonotope:
    """The mixed projection body Pi(K_1, ..., K_{n-1}) as a zonotope.

    h(u) = n V(K_1, ..., K_{n-1}, [0, u]) = (1/2) sum |<u, v>| S(v) over the
    mixed area measure S, so the generators are (mass/2) * normal, merged
    over parallel directions.  For zonotopes the measure holds each line as
    +-, and the merge adds each such pair.
    """
    normals, masses = mixed_area_measure(bodies)
    return merge_parallel_generators(Zonotope(0.5 * masses[:, None] * normals))


# ---------------------------------------------------------------------------
# centroid bodies


def centroid_body_support(L: VPolytope) -> SupportEvaluator:
    """Support of the centroid body: h(u) = mean of |<x, u>| over L.

    Exact for polytopes: the positive part integral is a clipped-polytope
    moment, and the full signed integral is |L| <centroid, u>.
    """
    R = reduced_form(L)
    if R.affine_dim < R.dim:
        raise GeometryError("centroid body needs a full-dimensional body")
    vol = volume(R)
    cen = centroid(R)

    def h(U):
        out = np.empty(len(U))
        for k, u in enumerate(U):
            pts = clip_halfspace(R, u, 0.0)
            if len(pts) <= R.dim:
                plus = 0.0
            else:
                piece = hull(pts)
                pv = volume(piece)
                plus = pv * float(centroid(piece) @ u) if pv > 0 else 0.0
            out[k] = (2.0 * plus - vol * float(cen @ u)) / vol
        return out

    return SupportEvaluator(R.dim, h, "centroid-exact")


# ---------------------------------------------------------------------------
# the Petty functional


def polar_projection_polytope(K) -> VPolytope:
    """Polar projection body as an explicit polytope (exact route)."""
    Z = projection_body(K)
    return polar_of_zonotope(Z)


def petty_product(K, method: str = "exact", nodes: int | None = None) -> float:
    """Affine invariant |Pi^o K| |K|^(n-1).

    method 'exact' takes |Pi^o K| from the normal fan of the merged
    projection body, the exact or walk row of ``polar_measures`` as
    ``zonotope_polar_measure`` reads it, with no second merge (the polar
    hull volume is its oracle in ``verify``); 'quadrature' integrates the
    projection support in polar-radial coordinates (``polar_measure`` on
    ``nodes`` nodes, certified by a second call on twice as many).  Under
    'exact' ``nodes`` raises a GeometryError.
    """
    body_vol = volume(K)
    n = K.dim
    if body_vol <= 0:
        raise GeometryError("Petty product needs a full-dimensional body")
    if method not in PETTY_METHODS:
        raise GeometryError(f"unknown petty_product method {method!r}")
    if method != "quadrature" and nodes is not None:
        raise GeometryError(f"nodes are read only under method 'quadrature', got method {method!r}")
    Z = projection_body(K)
    if method == "quadrature":
        polar_vol = polar_measure(Z, RadialMeasure.lebesgue(), nodes)
    else:
        polar_vol = _merged_polar_measure(Z.generators)
    return polar_vol * body_vol ** (n - 1)


def cauchy_surface_bound_defect(K: VPolytope) -> float:
    """S(K) minus the projection-body lower bound; nonnegative up to fp noise."""
    n = K.dim
    pv = _merged_polar_measure(projection_body(K).generators)
    bound = unit_ball_volume(n) ** (1.0 / n) * pv ** (-1.0 / n)
    return surface_area(K) - bound

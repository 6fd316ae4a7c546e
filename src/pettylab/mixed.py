"""Facet data, the surface-area measure, and the mixed volumes built on it.

Every mixed quantity reads one primitive, the mixed area measure
S(K_1, ..., K_{n-1}) of ``mixed_area_measure`` as (unit normals, masses):
zonotopes' from their generators, the surface-area measure S_K for n - 1
copies of K, and in space S(A, B) = [S(A + B) - S(A) - S(B)] / 2
(Schneider, Convex Bodies: The Brunn-Minkowski Theory, chapter 5).  Mixed
volumes pair it with the last body's support, and the projection bodies of
``projections`` are zonotopes over it.  The inclusion-exclusion oracle
over subset sums lives in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .bodies import (
    MERGE_GAP,
    GeometryError,
    VPolytope,
    Zonotope,
    as_polytope,
    cross3,
    facet_planes,
    hull,
    minkowski_sum,
    point_sums,
    reduced_form,
    sort_rows,
    volume_of_points,
)

FACET_MERGE_DECIMALS = 9
# ``mixed_area_measure`` drops a merged mass within this share of the total
# absolute mass of its pieces, and raises on a mass below minus that share.
MIXED_MASS_TOL = 1e-12


@dataclass(frozen=True)
class FacetData:
    """Per-facet outward unit normals, surface measures, and support offsets."""

    normals: np.ndarray
    measures: np.ndarray
    offsets: np.ndarray

    def __len__(self):
        return len(self.measures)


def facets(P: VPolytope) -> FacetData:
    """Merged facet data of a full-dimensional body in dimension 2 or 3.

    Facets come in the order qhull first reports them.
    """
    R = reduced_form(P)
    got = R._cache.get("facets")
    if got is not None:
        return got
    normals, offsets, h = facet_planes(R)
    scale = max(1.0, float(np.max(np.abs(R.vertices))))
    keys = np.round(
        np.column_stack([normals, offsets / scale]), FACET_MERGE_DECIMALS
    )
    order, new = sort_rows(keys)  # equal keys merge, in order of first appearance
    first, group = order[new], np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    rank = np.argsort(np.argsort(first))
    e = R.vertices[h.simplices[:, 1:]] - R.vertices[h.simplices[:, :1]]
    if R.dim == 2:
        pieces = np.linalg.norm(e[:, 0], axis=1)
    else:
        pieces = 0.5 * np.linalg.norm(cross3(e[:, 0], e[:, 1]), axis=1)
    areas = np.bincount(rank[group], weights=pieces)
    first.sort()
    data = FacetData(normals[first], areas, offsets[first])
    R._cache["facets"] = data
    return data


def surface_area(P: VPolytope) -> float:
    return float(np.sum(facets(P).measures))


def centroid(P: VPolytope) -> np.ndarray:
    """Volume centroid of a full-dimensional body."""
    R = reduced_form(P)
    if R.affine_dim < R.dim:
        raise GeometryError("centroid needs a full-dimensional body")
    _, _, h = facet_planes(R)
    ref = R.vertices.mean(axis=0)
    total = 0.0
    acc = np.zeros(R.dim)
    n = R.dim
    for simplex in h.simplices:
        pts = R.vertices[simplex]
        vol = abs(np.linalg.det(pts - ref)) / math.factorial(n)
        acc += vol * (pts.sum(axis=0) + ref) / (n + 1)
        total += vol
    return acc / total


def clip_halfspace(P: VPolytope, normal, offset: float = 0.0) -> np.ndarray:
    """Vertices of P intersected with {x : <normal, x> >= offset}.

    Returns a possibly empty point array; callers hull it as needed.
    """
    R = reduced_form(P)
    u = np.asarray(normal, dtype=float)
    vals = R.vertices @ u - offset
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = 1e-13 * scale
    kept = R.vertices[vals >= -tol]
    if R.affine_dim == R.dim:
        _, _, h = facet_planes(R)
        edges = set()
        for simplex in h.simplices:
            k = len(simplex)
            for a in range(k):
                for b in range(a + 1, k):
                    edges.add((min(simplex[a], simplex[b]), max(simplex[a], simplex[b])))
    else:
        k = len(R.vertices)
        edges = {(a, b) for a in range(k) for b in range(a + 1, k)}
    crossings = []
    for a, b in edges:
        va, vb = vals[a], vals[b]
        if (va > tol and vb < -tol) or (va < -tol and vb > tol):
            t = va / (va - vb)
            crossings.append(R.vertices[a] + t * (R.vertices[b] - R.vertices[a]))
    if crossings:
        kept = np.vstack([kept, np.array(crossings)])
    return kept


# ---------------------------------------------------------------------------
# the surface-area measure and the mixed quantities built on it


def _surface_measure(K: VPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Surface-area measure S_K as (outward unit normals, masses).

    The plane reads it off the counterclockwise vertex cycle (a segment is a
    2-cycle), space off the merged facets.  Flat bodies take the thin-body
    limit: a segment in the plane or a polygon in space has mass |K| on
    both unit normals, and anything flatter has no mass.
    """
    R = reduced_form(K)
    n, k = R.dim, R.affine_dim
    if n == 2 and k >= 1:
        edges = np.concatenate((R.vertices[1:], R.vertices[:1])) - R.vertices
        masses = np.linalg.norm(edges, axis=1)
        return np.column_stack([edges[:, 1], -edges[:, 0]]) / masses[:, None], masses
    if n == 3 and k == 3:
        f = facets(R)
        return f.normals, f.measures
    if n == 3 and k == 2:
        v = R.vertices - R.vertices.mean(axis=0)
        area = 0.5 * np.sum(cross3(v, np.concatenate((v[1:], v[:1]))), axis=0)
        a = float(np.linalg.norm(area))
        return np.array([area, -area]) / a, np.array([a, a])
    return np.zeros((0, n)), np.zeros(0)


def _shared_dim(bodies: list, missing: int) -> int:
    """The dimension n of ``bodies`` when they all share it and number n - missing."""
    n = bodies[0].dim if bodies else 0
    if len(bodies) != n - missing or any(B.dim != n for B in bodies):
        raise GeometryError(f"needs n - {missing} bodies of one dimension n, got {len(bodies)}")
    return n


# Stacked projection bodies of zonotopes in space: for T stacked generator
# sets, w of shape (T, k, 3) with h(u) = sum_k |<w_k, u>| for the t-th body,
# elementwise in t, parallel rows left apart (their sum has the same support).
def zonotope_projection_generators(G: np.ndarray) -> np.ndarray:
    """Pi of the zonotope sum of [-g_i, g_i] over the rows of G[t]:
    h(u) = 4 sum_{i<j} |<g_i x g_j, u>|."""
    i, j = np.nonzero(np.arange(G.shape[1])[:, None] < np.arange(G.shape[1]))
    return 4.0 * cross3(G[:, i], G[:, j])


def mixed_projection_generators(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pi(Z_A, Z_B) of the zonotopes with generator rows A[t] and B[t]:
    h(u) = 2 sum_{i,j} |<a_i x b_j, u>|."""
    return 2.0 * cross3(A[:, :, None], B[:, None, :]).reshape(len(A), -1, 3)


def mixed_area_measure(bodies: list) -> tuple[np.ndarray, np.ndarray]:
    """The mixed area measure S(K_1, ..., K_{n-1}) as (outward unit normals,
    masses), in dimension 2 or 3.

    Zonotopes, by multilinearity over their segments [-g, g], put mass |w|
    on +-w/|w| for each generator w of their projection body: w = 2 g^perp
    in the plane, and in space those of ``zonotope_projection_generators``
    for copies of one and of ``mixed_projection_generators`` for two.
    Normals may repeat, every mass is positive, and atoms with w = 0 are
    dropped.

    Otherwise n - 1 copies of one body give its surface-area measure.  Two
    bodies in space (a zonotope in its vertex form) give
    S(A, B) = [S(A + B) - S(A) - S(B)] / 2 with equal normals merged, never
    antipodal ones: ``mixed_volume`` pairs the measure with a support that
    need not be even.  The merged masses are nonnegative up to rounding;
    those within MIXED_MASS_TOL of the pieces' total absolute mass are
    dropped, and a clearly negative one raises.
    """
    n = _shared_dim(bodies, 1)
    if n not in (2, 3):
        raise GeometryError(f"mixed area measure supports dimension 2 or 3, got {n}")
    if all(isinstance(B, Zonotope) for B in bodies):
        G, H = bodies[0].generators[None], bodies[-1].generators[None]
        if n == 2:
            w = 2.0 * np.column_stack([-G[0, :, 1], G[0, :, 0]])
        elif bodies[-1] is bodies[0]:
            w = zonotope_projection_generators(G)[0]
        else:
            w = mixed_projection_generators(G, H)[0]
        norms = np.linalg.norm(w, axis=1)
        w, norms = w[norms > 0.0], norms[norms > 0.0]
        normals = w / norms[:, None]
        return np.concatenate([normals, -normals]), np.concatenate([norms, norms])
    if all(B is bodies[0] for B in bodies):
        return _surface_measure(bodies[0])
    A, B = (as_polytope(K) for K in bodies)
    pieces = [_surface_measure(K) for K in (minkowski_sum(A, B), A, B)]
    normals = np.vstack([v for v, _ in pieces])
    signed = np.concatenate([c * m for c, (_, m) in zip((0.5, -0.5, -0.5), pieces)])
    # each normal joins the first one within MERGE_GAP of it
    close = cKDTree(normals).query_pairs(MERGE_GAP, output_type="ndarray")
    rep = np.arange(len(normals))
    np.minimum.at(rep, close[:, 1], close[:, 0])
    first, group = np.unique(rep, return_inverse=True)
    masses = np.bincount(group, weights=signed)
    tol = MIXED_MASS_TOL * float(np.abs(signed).sum())
    if np.any(masses < -tol):
        raise GeometryError(f"mixed area measure has a negative mass {masses.min():.3g}")
    keep = masses > tol
    return normals[first[keep]], masses[keep]


def mixed_volume(bodies: list) -> float:
    """V(K_1, ..., K_n) = (1/n) sum h_{K_n}(v) S(K_1, ..., K_{n-1}; v).

    K_n is any support carrier: a VPolytope, a Zonotope or a
    SupportEvaluator.
    """
    n = _shared_dim(bodies, 0)
    normals, masses = mixed_area_measure(bodies[:-1])
    h = getattr(bodies[-1], "support_batch", bodies[-1])
    return float(masses @ h(normals) / n)


def v1(K, L) -> float:
    """V(K, ..., K, L) = (1/n) sum of h_L over the surface measure of K."""
    return mixed_volume([K] * (K.dim - 1) + [L])


def shadow_convexity_probe(systems: list, t: float) -> float:
    """Mixed volume of n shadow systems evaluated at a common parameter."""
    bodies = []
    for s in systems:
        pts = np.asarray(s.base_points, dtype=float) + float(t) * np.outer(
            np.asarray(s.speeds, dtype=float), np.asarray(s.direction, dtype=float)
        )
        bodies.append(hull(pts))
    return mixed_volume(bodies)


def mixed_volume_fit_check(K1: VPolytope, K2: VPolytope) -> float:
    """Max relative defect of |a K1 + b K2| against its polynomial expansion,
    over a and b in {1/4, 1/2, 1, 2}."""
    n = K1.dim
    worst = 0.0
    coeffs = []
    for j in range(n + 1):
        args = [K1] * (n - j) + [K2] * j
        coeffs.append(math.comb(n, j) * mixed_volume(args))
    lams = (0.25, 0.5, 1.0, 2.0)
    for a in lams:
        for b in lams:
            s = point_sums([reduced_form(K1).vertices * a, reduced_form(K2).vertices * b])
            direct = volume_of_points(s)
            predicted = sum(
                c * (a ** (n - j)) * (b ** j) for j, c in enumerate(coeffs)
            )
            worst = max(worst, abs(direct - predicted) / max(abs(direct), 1e-300))
    return worst

"""Facet data, the surface-area measure, and the mixed volumes built on it.

Every mixed quantity reads one primitive, the surface-area measure S_K as
(unit normals, masses): v1(K, L) = (1/n) sum h_L(v) S_K(v), and in space
the mixed measure S(A, B) = [S(A + B) - S(A) - S(B)] / 2 gives the rest
(Schneider, Convex Bodies: The Brunn-Minkowski Theory, section 5.1).  The
inclusion-exclusion definition over subset sums lives in ``verify`` as the
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    GeometryError,
    VPolytope,
    _abs_pairing,
    as_polytope,
    facet_planes,
    hull,
    minkowski_sum,
    reduced_form,
    volume_of_points,
)

FACET_MERGE_DECIMALS = 9


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
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    corners = R.vertices[h.simplices]
    if R.dim == 2:
        pieces = np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
    else:
        pieces = 0.5 * np.linalg.norm(
            np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1
        )
    areas = np.bincount(rank[group.ravel()], weights=pieces)
    data = FacetData(normals[first[order]], areas, offsets[first[order]])
    R._cache["facets"] = data
    return data


def surface_area(P: VPolytope) -> float:
    return float(np.sum(facets(P).measures))


def projection_support(P: VPolytope, U) -> np.ndarray:
    """(n-1)-volume of the shadow of P orthogonal to each row of U.

    Cauchy's formula: half the surface measure weighted by |<normal, u>|.
    Rows of U need not be unit; values scale 1-homogeneously.
    """
    normals, masses = _surface_measure(P)
    return 0.5 * _abs_pairing(np.atleast_2d(U), normals, masses)


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


def _surface_measure(K) -> tuple[np.ndarray, np.ndarray]:
    """Surface-area measure S_K as (outward unit normals, masses).

    The plane reads it off the counterclockwise vertex cycle (a segment is a
    2-cycle), space off the merged facets.  Flat bodies take the thin-body
    limit: a segment in the plane or a polygon in space has mass |K| on
    both unit normals, and anything flatter has no mass.
    """
    R = reduced_form(as_polytope(K))
    n, k = R.dim, R.affine_dim
    if n == 2 and k >= 1:
        edges = np.roll(R.vertices, -1, axis=0) - R.vertices
        masses = np.linalg.norm(edges, axis=1)
        return np.column_stack([edges[:, 1], -edges[:, 0]]) / masses[:, None], masses
    if n == 3 and k == 3:
        f = facets(R)
        return f.normals, f.measures
    if n == 3 and k == 2:
        v = R.vertices - R.vertices.mean(axis=0)
        area = 0.5 * np.sum(np.cross(v, np.roll(v, -1, axis=0)), axis=0)
        a = float(np.linalg.norm(area))
        return np.array([area, -area]) / a, np.array([a, a])
    return np.zeros((0, n)), np.zeros(0)


def v1(K, L) -> float:
    """V(K, ..., K, L) = (1/n) sum of h_L over the surface measure of K.

    L is any support carrier: a VPolytope, a Zonotope or a SupportEvaluator.
    """
    if L.dim != K.dim:
        raise GeometryError("dimension mismatch in v1")
    normals, masses = _surface_measure(K)
    h = getattr(L, "support_batch", L)
    return float(masses @ h(normals) / K.dim)


def mixed_volume(bodies: list) -> float:
    """V(K_1, ..., K_n): v1 in the plane, and in space by polarization of
    v1(A + B, C) = v1(A, C) + 2 V(A, B, C) + v1(B, C)."""
    n = bodies[0].dim
    if len(bodies) != n:
        raise GeometryError(f"mixed volume in dimension {n} needs exactly {n} bodies")
    if any(B.dim != n for B in bodies):
        raise GeometryError("mixed volume bodies must share a dimension")
    if n == 2:
        return v1(bodies[0], bodies[1])
    A, B, C = as_polytope(bodies[0]), as_polytope(bodies[1]), bodies[2]
    return 0.5 * (v1(minkowski_sum(A, B), C) - v1(A, C) - v1(B, C))


def mixed_volume_with_segment(bodies: list, y) -> float:
    """V(K_1, ..., K_{n-1}, [0, y]) = h_{Pi(K_1, ..., K_{n-1})}(y) / n."""
    from .projections import mixed_projection_support

    y = np.asarray(y, dtype=float)
    return mixed_projection_support(bodies).value(y) / y.shape[0]


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
            pts_a = reduced_form(K1).vertices * a
            pts_b = reduced_form(K2).vertices * b
            s = (pts_a[:, None, :] + pts_b[None, :, :]).reshape(-1, n)
            direct = volume_of_points(s)
            predicted = sum(
                c * (a ** (n - j)) * (b ** j) for j, c in enumerate(coeffs)
            )
            worst = max(worst, abs(direct - predicted) / max(abs(direct), 1e-300))
    return worst

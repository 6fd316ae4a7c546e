"""Facet data, the surface-area measure, and the mixed volumes built on it.

Every mixed quantity reads one primitive, the mixed area measure
S(K_1, ..., K_{n-1}) of ``mixed_area_measure`` as (unit normals, masses):
zonotopes' from their generators, the surface-area measure S_K for n - 1
copies of K, and in space S(A, B; v) = V(F_A(v), F_B(v)) from the crossings
of two bodies' edge arcs on the sphere (Schneider, Convex Bodies, section
5.1).  Mixed volumes pair it with the last body's support, and the
projection bodies of ``projections`` are zonotopes over it.  No Minkowski
sum is taken here: the oracles that take them live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    MERGE_GAP,
    GeometryError,
    VPolytope,
    Zonotope,
    cross3,
    facet_planes,
    perp,
    reduced_form,
    sort_rows,
)

FACET_MERGE_DECIMALS = 9
# ``edge_crossings`` ties a sign test <x, e x f> within this share of |x||e||f|.
EDGE_PAIR_MARGIN = 1e-9


@dataclass(frozen=True)
class FacetData:
    """Per-facet outward unit normals, surface measures, and support offsets,
    and for each simplex of the hull triangulation (``facet_planes``) the
    merged facet it lies in."""

    normals: np.ndarray
    measures: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.measures)


def facets(P: VPolytope) -> FacetData:
    """Merged facet data of a full-dimensional body in dimension 2 or 3.

    Facets come in the order qhull first reports them.
    """
    R = reduced_form(P)
    return R.derived("facets", _facets, R)


def _facets(R: VPolytope) -> FacetData:
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
    label = rank[group]
    areas = np.bincount(label, weights=pieces)
    first.sort()
    return FacetData(normals[first], areas, offsets[first], label)


def triangulation_edges(R: VPolytope) -> tuple:
    """Every edge of the hull triangulation of a reduced solid R in space,
    once, as arrays (p, q, x, y, a, b): its end rows p and q, the rows x and
    y off it in its two triangles, and the merged facets a and b of those
    triangles (the ``facets`` order).  p, q and x run in the first
    triangle's vertex order, and an edge with a == b is a diagonal inside a
    merged facet."""
    return R.derived("triangulation_edges", _triangulation_edges, R)


def _triangulation_edges(R: VPolytope) -> tuple:
    S, label = facet_planes(R)[2].simplices, facets(R).labels
    rows = np.concatenate([S, S[:, [1, 2, 0]], S[:, [2, 0, 1]]])  # (p, q, off)
    order, _ = sort_rows(np.sort(rows[:, :2], axis=1))  # each edge twice, side by side
    one, two = order[0::2], order[1::2]
    return (*rows[one].T, rows[two, 2], label[one % len(S)], label[two % len(S)])


def surface_area(P: VPolytope) -> float:
    return float(np.sum(facets(P).measures))


def centroid(P: VPolytope) -> np.ndarray:
    """Volume centroid of a full-dimensional body."""
    R = reduced_form(P)
    if R.affine_dim < R.dim:
        raise GeometryError("centroid needs a full-dimensional body")
    _, _, h = facet_planes(R)
    ref, n = R.vertices.mean(axis=0), R.dim
    # the fan of facet simplices from the vertex mean; each total adds its
    # terms in simplex order
    pts = R.vertices[h.simplices]
    vols = np.abs(np.linalg.det(pts - ref)) / math.factorial(n)
    moments = vols[:, None] * (pts.sum(axis=1) + ref) / (n + 1)
    return np.cumsum(moments, axis=0)[-1] / np.cumsum(vols)[-1]


def clip_halfspace(P: VPolytope, normal, offset: float = 0.0) -> np.ndarray:
    """Vertices of P intersected with {x : <normal, x> >= offset}: P's
    vertices on that side and the crossings of the boundary plane with P's
    edges, taken from the low row to the high one.  A solid's edges are its
    ``triangulation_edges``, a polygon's its vertex cycle, and a flat body's
    every pair of vertices.

    Returns a possibly empty point array; callers hull it as needed.
    """
    R = reduced_form(P)
    V = R.vertices
    vals = V @ np.asarray(normal, dtype=float) - offset
    tol = 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    if R.affine_dim < R.dim:
        a, b = np.triu_indices(len(V), 1)
    elif R.dim == 2:
        a = np.arange(len(V))
        a, b = np.sort([a, np.roll(a, -1)], axis=0)
    else:
        a, b = np.sort(triangulation_edges(R)[:2], axis=0)
    va, vb = vals[a], vals[b]
    hit = ((va > tol) & (vb < -tol)) | ((va < -tol) & (vb > tol))
    a, b, va, vb = a[hit], b[hit], va[hit], vb[hit]
    t = (va / (va - vb))[:, None]
    return np.vstack([V[vals >= -tol], V[a] + t * (V[b] - V[a])])


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
        return -perp(edges) / masses[:, None], masses
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
    return 2.0 * cross3(A[:, :, None], B[:, None, :]).reshape(len(A), A.shape[1] * B.shape[1], 3)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def edge_table(K) -> tuple:
    """(e, x, normals, face) of a body in space: its edges e, for each the
    vectors x from the edge to the vertices whose sign tests bound its arc,
    its facet normals, and face(i), facet i's vertices.  A solid has its
    ``triangulation_edges`` between two merged facets, with the vertex off
    the edge in each; a polygon its cycle edges, with the centroid of its
    vertices; a segment or a zonotope (edges 2g) no test.  x is perpendicular
    to e, so a test <x, e x f> ties when |<n, f>| <= EDGE_PAIR_MARGIN |f|
    at the facet normal n, alike for every edge of that facet."""
    if isinstance(K, Zonotope):
        return 2.0 * K.generators, np.zeros((len(K.generators), 0, 3)), np.zeros((0, 3)), None
    R = reduced_form(K)
    return R.derived("edges", _edge_table, R)


def _edge_table(R: VPolytope) -> tuple:
    V = R.vertices
    if R.affine_dim == 3:
        p, q, x, y, a, b = triangulation_edges(R)
        true, S, f = a != b, facet_planes(R)[2].simplices, facets(R)
        p, q = p[true], q[true]
        got = (V[q] - V[p], V[np.column_stack([x, y])[true]] - V[p, None], f.normals,
               lambda i: V[np.unique(S[f.labels == i])])
    elif R.affine_dim == 2:
        e = np.roll(V, -1, axis=0) - V
        got = e, (V.mean(axis=0) - V)[:, None], _surface_measure(R)[0], lambda i: V
    else:
        got = V[1:] - V[:1], np.zeros((len(V) - 1, 0, 3)), np.zeros((0, 3)), None
    e, x = got[:2]
    return (e, x - (_dot3(x, e[:, None]) / _dot3(e, e)[:, None])[..., None] * e[:, None]) + got[2:]


def edge_crossings(a: tuple, b: tuple) -> tuple:
    """The crossings of two bodies' edge arcs on the sphere, stacked over
    any leading axes: a = (e, x) holds the edges (..., k, 3) and test
    vectors (..., k, r, 3) of A's ``edge_table``, b = (f, y) B's.  Edges e
    and f put |w| / 2, w = e x f, at s w / |w| for each sign s with every
    test vector strictly below along s w (Schneider, Convex Bodies, 5.1).
    A test within EDGE_PAIR_MARGIN |x| |e| |f| of zero ties.  A pair that
    ties on one body sits at a facet normal of it and counts half: over the
    facet's edges the halves add up to V(F, f).  A pair that ties on both
    counts nothing (the caller adds the two facets' mixed area).  Returns w,
    the shares of |w| / 2 at +-w / |w| and the pairs with a tie; an entry
    does not depend on those stacked with it."""
    (e, x), (f, y) = a, b
    w = cross3(e[..., :, None, :], f[..., None, :, :])
    scale = EDGE_PAIR_MARGIN * np.sqrt(_dot3(e, e))[..., None] * np.sqrt(_dot3(f, f))[..., None, :]
    (below, above), tied = np.ones((2,) + w.shape[:-1], bool), np.zeros((2,) + w.shape[:-1], bool)
    for side, (X, at) in enumerate(((x, np.s_[..., :, None, :]), (y, np.s_[..., None, :, :]))):
        for r in range(X.shape[-2]):
            v = X[..., r, :][at]
            test = _dot3(v, w)
            near = np.abs(test) <= scale * np.sqrt(_dot3(v, v))
            below &= (test < 0.0) | near
            above &= (test > 0.0) | near
            tied[side] |= near
    share = 1.0 - 0.5 * tied.sum(axis=0)
    return w, below * share, above * share, tied.any(axis=0)


def mixed_area_measure(bodies: list) -> tuple[np.ndarray, np.ndarray]:
    """The mixed area measure S(K_1, ..., K_{n-1}) as (outward unit normals,
    masses), in dimension 2 or 3; normals may repeat.  Zonotopes, by
    multilinearity over their segments [-g, g], put mass |w| on +-w/|w| for
    each generator w of their projection body: w = 2 g^perp in the plane,
    and in space those of ``zonotope_projection_generators`` for copies of
    one.  Otherwise n - 1 copies of one body give its surface-area measure,
    and two bodies in space S(A, B; v) = V(F_A(v), F_B(v)): the crossings of
    their edge arcs (a zonotope's are its whole-circle edges 2g, which give
    the atoms of ``mixed_projection_generators``), and at each facet normal
    v they share within MERGE_GAP the planar mixed area of the two facets.
    """
    n = _shared_dim(bodies, 1)
    if n not in (2, 3):
        raise GeometryError(f"mixed area measure supports dimension 2 or 3, got {n}")
    if isinstance(bodies[0], Zonotope) and bodies[-1] is bodies[0]:
        G = bodies[0].generators
        w = 2.0 * perp(G) if n == 2 else zonotope_projection_generators(G[None])[0]
        norms = np.linalg.norm(w, axis=1)
        w, norms = w[norms > 0.0], norms[norms > 0.0]
        normals = w / norms[:, None]
        return np.concatenate([normals, -normals]), np.concatenate([norms, norms])
    if all(B is bodies[0] for B in bodies):
        return _surface_measure(bodies[0])
    (e, x, na, fa), (f, y, nb, fb) = (edge_table(K) for K in bodies)
    w, plus, minus, _ = edge_crossings((e, x), (f, y))
    hit = (norms := np.sqrt(_dot3(w, w))) > 0.0
    units, half = w[hit] / norms[hit, None], 0.5 * norms[hit]
    normals, masses = [units, -units], [half * plus[hit], half * minus[hit]]
    for i, j in np.argwhere(np.linalg.norm(na[:, None] - nb[None], axis=2) < MERGE_GAP):
        plane = np.linalg.svd(na[i, None])[2][1:].T  # an orthonormal basis of v^perp
        P, Q = fa(i) @ plane, fb(j) @ plane  # faces in convex position: no hull needed
        Q = Q[np.argsort(np.arctan2(*(Q - Q.mean(axis=0)).T[::-1]))]  # counterclockwise
        normals.append(na[i, None])
        masses.append([mixed_volume([VPolytope(Q, reduced=True), VPolytope(P)])])
    normals, masses = np.concatenate(normals), np.concatenate(masses)
    return normals[masses > 0.0], masses[masses > 0.0]


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

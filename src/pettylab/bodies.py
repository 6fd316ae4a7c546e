"""Vertex-presented convex bodies and the exact operations on them.

Everything downstream (mixed volumes, projection bodies, the experiment
harness) reduces to a small kernel of operations on two representations:
``VPolytope`` (convex hull of finitely many points) and ``Zonotope``
(Minkowski sum of centered segments).  Exact hull-based algorithms are
restricted to ambient dimension 2 and 3; zonotope determinant volumes and
plain vertex arithmetic work in any dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

COPLANAR_TOL = 1e-12
INTERIOR_TOL = 1e-12
ZONOTOPE_DET_BUDGET = 10 ** 6
ZONOTOPE_VERTEX_GEN_LIMIT = 20

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Entries of one block of |<u, v>| values in ``_abs_pairing``: 256 KiB, so a
# large node set reuses one small buffer instead of faulting in megabytes of
# fresh pages whenever a body has more facets or generators than the last.
ABS_BLOCK_ENTRIES = 1 << 15
# Arcs per block of great circles in ``zonotope_polar_volume``: the 3-D
# ball's projection body, some 320 generators and 2e5 arcs, then peaks at a
# few MB instead of some 60.
POLAR_BLOCK_ARCS = 1 << 13
# Unit generators closer than this span one line in
# ``merge_parallel_generators``.
MERGE_GAP = 1e-9
# ``merge_parallel_generators`` drops generators no longer than this and
# orients each unit generator by its first coordinate larger than this.
MERGE_TOL = 1e-12
# ``polar_of_zonotope`` drops candidate facet normals no longer than this
# (the cross products of parallel generators).
POLAR_NORMAL_TOL = 1e-14
# Relative vertex-set distance up to which a body counts as symmetric.
SYMMETRY_TOL = 1e-9


class GeometryError(ValueError):
    """Raised when an operation's preconditions are not met."""


def as_points(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise GeometryError("points must form a 2-d array")
    return pts


class VPolytope:
    """Convex polytope given by a vertex list.

    ``reduced=True`` promises the vertex list is irredundant and, in the
    plane, ordered counterclockwise.  Constructors that cannot promise that
    leave the flag off; volume and facet queries reduce lazily.
    """

    __slots__ = ("vertices", "dim", "reduced", "_cache")

    def __init__(self, vertices, reduced: bool = False):
        pts = as_points(vertices)
        pts.setflags(write=False)
        self.vertices = pts
        self.dim = pts.shape[1]
        self.reduced = bool(reduced)
        self._cache: dict = {}

    def __repr__(self):
        return f"VPolytope(dim={self.dim}, vertices={len(self.vertices)}, reduced={self.reduced})"

    def __getstate__(self):
        return (np.asarray(self.vertices), self.dim, self.reduced)

    def __setstate__(self, state):
        pts, dim, reduced = state
        pts = np.asarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "_cache", {})

    @property
    def affine_dim(self) -> int:
        """Dimension of the affine hull; flags degenerate bodies."""
        got = self._cache.get("affine_dim")
        if got is None:
            got = affine_dimension(self.vertices)
            self._cache["affine_dim"] = got
        return got

    def is_degenerate(self) -> bool:
        return self.affine_dim < self.dim

    def support(self, u) -> float:
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))

    def support_batch(self, U) -> np.ndarray:
        """Support values for a stack of directions, shape (k, dim)."""
        return np.max(np.asarray(U, dtype=float) @ self.vertices.T, axis=1)


@dataclass(frozen=True)
class Zonotope:
    """Minkowski sum of segments [-g, g] over the generator rows."""

    generators: np.ndarray

    def __post_init__(self):
        gens = as_points(self.generators)
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def support(self, u) -> float:
        return float(np.sum(np.abs(self.generators @ np.asarray(u, dtype=float))))

    def support_batch(self, U) -> np.ndarray:
        return _abs_pairing(U, self.generators)


def _abs_pairing(U, V: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_j w_j |<u, v_j>| for each row u of U (every w_j = 1 by default),
    in blocks of rows of at most ``ABS_BLOCK_ENTRIES`` products.

    A block holds the products as (len(V), rows), one row per v_j, and is
    reduced by one vector-matrix product: with three coordinates the
    products come 1.5-2 times as fast in that layout as in (rows, len(V)),
    and a row sum over a short last axis costs 2-3 times as much at 8192
    rows.  Calls with equal shapes do the same arithmetic, so equal inputs
    give equal bits.
    """
    U = np.asarray(U, dtype=float)
    w = np.ones(len(V)) if weights is None else weights
    out = np.empty(len(U))
    step = max(1, ABS_BLOCK_ENTRIES // max(len(V), 1))
    for s in range(0, len(U), step):
        block = V @ U[s:s + step].T
        np.abs(block, out=block)
        np.matmul(w, block, out=out[s:s + step])
    return out


# ---------------------------------------------------------------------------
# stacked clouds
#
# The kernels below take T clouds (or generator lists) stacked as a
# (T, k, n) array and return one row per cloud.  They use elementwise
# products, max/min, and sums along the last axis or in an explicit loop,
# never a matrix product, so a cloud's row is bit-identical whichever other
# clouds share the stack.


def cloud_widths(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """max_i <p_i, w> - min_i <p_i, w>: the width of each cloud P[t] along
    each direction row w of W, shape (T, N).  W is (N, 2) for every cloud or
    (T, N, 2), one set per cloud.  Costs k N entries per cloud."""
    pairs = P[:, :, 0, None] * W[..., None, :, 0] + P[:, :, 1, None] * W[..., None, :, 1]
    return pairs.max(axis=1) - pairs.min(axis=1)


def zonotope_supports(G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_i |<g_i, w>|: the support of each zonotope sum [-g_i, g_i] over the
    generator rows of G[t] along each direction row w of W (as in
    ``cloud_widths``), summed in generator order, shape (T, N)."""
    out = np.zeros((len(G), W.shape[-2]))
    for i in range(G.shape[1]):
        out += np.abs(G[:, i, 0, None] * W[..., 0] + G[:, i, 1, None] * W[..., 1])
    return out


# A cloud counts as full-dimensional without a hull only when its singular
# value ratio clears the COPLANAR_TOL rank threshold of ``hull`` by this
# factor, which covers the duplicate points ``hull`` drops before its test.
FULL_RANK_MARGIN = 1e3


def _pair_crosses(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """cross(a_i, b_j) for every pair of rows, shape (T, k, k)."""
    return A[:, :, None, 0] * B[:, None, :, 1] - A[:, :, None, 1] * B[:, None, :, 0]


def planar_full_rank(P: np.ndarray) -> np.ndarray:
    """Mask of the clouds P[t] whose hull ``hull`` would find two-dimensional,
    decided with a FULL_RANK_MARGIN margin; False means "degenerate or too
    close to call", which callers settle with ``hull``.

    With C the centered cloud, det(C^T C) = sum over pairs of cross(c_i, c_j)^2
    (Cauchy-Binet), so the ratio of the singular values s1/s0 follows from
    products of centered points without cancellation.
    """
    T, k, _ = P.shape
    center = P[:, 0].copy()
    for i in range(1, k):
        center += P[:, i]
    C = P - (center / k)[:, None, :]
    gram_det = 0.5 * np.square(_pair_crosses(C, C)).reshape(T, -1).sum(axis=1)
    trace = np.square(C).reshape(T, -1).sum(axis=1)
    s0_sq = 0.5 * (trace + np.sqrt(np.maximum(trace * trace - 4.0 * gram_det, 0.0)))
    return np.sqrt(gram_det) > COPLANAR_TOL * FULL_RANK_MARGIN * s0_sq


# The Gram determinant det(V^T V) = (s0 s1 s2)^2 of a spatial row set
# carries a rounding error of about 1e-15 trace^3, so it cannot resolve the
# planar threshold COPLANAR_TOL * FULL_RANK_MARGIN; a spatial set counts as
# full rank only when s2/s0 clears this larger ratio.
SPATIAL_RANK_RATIO = 1e-6


def spatial_full_rank(V: np.ndarray) -> np.ndarray:
    """Mask of the stacked spatial row sets V[t], shape (T, k, 3), whose rows
    span space with margin, s2/s0 > SPATIAL_RANK_RATIO; False means "flat or
    too close to call".  Centered clouds give the mask of hulls that
    ``hull`` would find three-dimensional.

    With M = V^T V, s2/s0 >= sqrt(det M) / trace(M)^(3/2), since s1 <= s0
    and s0^2 <= trace M.  M sums the rows' outer products in row order, so
    a set's answer does not depend on the sets stacked with it.
    """
    M = (V[:, :, :, None] * V[:, :, None, :]).sum(axis=1)
    det = (M[:, 0, 0] * (M[:, 1, 1] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 1])
           - M[:, 0, 1] * (M[:, 1, 0] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 0])
           + M[:, 0, 2] * (M[:, 1, 0] * M[:, 2, 1] - M[:, 1, 1] * M[:, 2, 0]))
    trace = M[:, 0, 0] + M[:, 1, 1] + M[:, 2, 2]
    return det > SPATIAL_RANK_RATIO ** 2 * trace ** 3


def planar_hull_areas(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas of the hulls conv P[t] without a hull, and the mask of clouds
    where they hold.

    An ordered pair (i, j) is a counterclockwise hull edge when every other
    point lies strictly to its left, and the area is half the sum of
    cross(p_i, p_j) over the edges.  A cloud with an orientation within
    COPLANAR_TOL of zero relative to its squared diameter (repeated or
    collinear points), or that ``planar_full_rank`` cannot call, is masked
    out; callers hull it.  Costs k^3 entries per cloud.
    """
    T, k, _ = P.shape
    d = P[:, None, :, :] - P[:, :, None, :]  # d[t, i, j] = p_j - p_i
    orient = (d[:, :, :, None, 0] * d[:, :, None, :, 1]
              - d[:, :, :, None, 1] * d[:, :, None, :, 0])  # (t, i, j, l)
    eye = np.eye(k, dtype=bool)
    other = ~(eye[:, :, None] | eye[:, None, :] | eye[None, :, :])
    diam_sq = np.square(d).sum(axis=-1).reshape(T, -1).max(axis=1)
    tol = COPLANAR_TOL * diam_sq[:, None, None, None]
    near = (np.abs(orient) <= tol) & other
    edges = ((orient > 0.0) | ~other).all(axis=-1) & ~eye
    crosses = np.where(edges, _pair_crosses(P, P), 0.0)
    areas = 0.5 * crosses.reshape(T, -1).sum(axis=1)
    ok = planar_full_rank(P) & ~near.reshape(T, -1).any(axis=1)
    return areas, ok


def affine_dimension(points: np.ndarray) -> int:
    pts = as_points(points)
    if len(pts) <= 1:
        return 0
    centered = pts - pts.mean(axis=0)
    scale = np.max(np.abs(centered))
    if scale == 0.0:
        return 0
    sv = np.linalg.svd(centered / scale, compute_uv=False)
    return int(np.sum(sv > COPLANAR_TOL * max(1.0, sv[0])))


def _affine_basis(points: np.ndarray, rank: int):
    center = points.mean(axis=0)
    centered = points - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:rank]
    return center, basis


@dataclass(frozen=True)
class HullFacets:
    """What one qhull run says about a full-dimensional body: its volume,
    the facet equations (qhull's convention, normal . x + offset <= 0) and
    the facet simplices as rows of the body's vertex list."""

    volume: float
    equations: np.ndarray
    simplices: np.ndarray


def _hull_full_dim(points: np.ndarray) -> tuple[np.ndarray, HullFacets | None]:
    """The hull vertices of a full-dimensional cloud and, unless qhull had to
    joggle the input (whose facets then belong to moved points), its facets
    with simplices remapped to rows of those vertices."""
    try:
        h = ConvexHull(points)
    except QhullError:
        h = ConvexHull(points, qhull_options="QJ")
        return points[h.vertices], None
    rows = np.empty(len(points), dtype=np.intp)
    rows[h.vertices] = np.arange(len(h.vertices))
    return points[h.vertices], HullFacets(float(h.volume), h.equations, rows[h.simplices])


def _hull_facets(R: VPolytope) -> HullFacets:
    """The facets of a reduced full-dimensional body: those ``hull`` kept
    from its own qhull run, or one run on the vertices, kept for later."""
    got = R._cache.get("qhull")
    if got is None:
        h = ConvexHull(R.vertices)
        got = HullFacets(float(h.volume), h.equations, h.simplices)
        R._cache["qhull"] = got
    return got


def hull(points) -> VPolytope:
    """Irredundant convex hull of a point cloud in dimension 2 or 3.

    Degenerate clouds are legal: the result keeps the ambient dimension and
    reports a smaller ``affine_dim``.  Planar hulls come back in
    counterclockwise order.
    """
    pts = np.unique(as_points(points), axis=0)
    n = pts.shape[1]
    if n not in (2, 3):
        raise GeometryError(f"hull supports dimension 2 or 3, got {n}")
    rank = affine_dimension(pts)
    if rank == n:
        verts, record = _hull_full_dim(pts)
        out = VPolytope(verts, reduced=True)
        out._cache["affine_dim"] = rank
        if record is not None:
            out._cache["qhull"] = record
        return out
    if rank == 0:
        out = VPolytope(pts[:1], reduced=True)
        out._cache["affine_dim"] = 0
        return out
    center, basis = _affine_basis(pts, rank)
    coords = (pts - center) @ basis.T
    if rank == 1:
        lo, hi = np.argmin(coords[:, 0]), np.argmax(coords[:, 0])
        verts = pts[[lo, hi]]
    else:
        sub, _ = _hull_full_dim(coords)
        verts = sub @ basis + center
    out = VPolytope(verts, reduced=True)
    out._cache["affine_dim"] = rank
    return out


def reduced_form(P: VPolytope) -> VPolytope:
    """Hull the vertex list unless it is already irredundant and ordered."""
    if P.reduced:
        return P
    got = P._cache.get("reduced")
    if got is None:
        got = hull(P.vertices)
        P._cache["reduced"] = got
    return got


def _polygon_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def volume(P) -> float:
    """Euclidean volume (area in the plane); degenerate bodies give 0."""
    if isinstance(P, Zonotope):
        return zonotope_volume(P)
    R = reduced_form(P)
    got = R._cache.get("volume")
    if got is not None:
        return got
    if R.affine_dim < R.dim:
        val = 0.0
    elif R.dim == 2:
        val = abs(_polygon_area(R.vertices))
    else:
        val = _hull_facets(R).volume
    R._cache["volume"] = val
    if R is not P:
        P._cache["volume"] = val
    return val


def volume_of_points(points: np.ndarray) -> float:
    """Volume of the hull of a point cloud, with a fast simplex path."""
    pts = as_points(points)
    n = pts.shape[1]
    if len(pts) <= n:
        return 0.0
    if len(pts) == n + 1:
        return abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(n)
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        if affine_dimension(pts) < n:
            return 0.0
        return float(ConvexHull(pts, qhull_options="QJ").volume)


def support(body, u) -> float:
    return body.support(u)


def minkowski_sum(A: VPolytope, B: VPolytope) -> VPolytope:
    if A.dim != B.dim:
        raise GeometryError("dimension mismatch in minkowski_sum")
    pts = (A.vertices[:, None, :] + B.vertices[None, :, :]).reshape(-1, A.dim)
    return hull(pts)


def linear_image(X, C) -> VPolytope:
    """Image X C of a body under a linear map into dimension 2 or 3."""
    X = np.asarray(X, dtype=float)
    if isinstance(C, Zonotope):
        return zonotope_to_vpolytope(Zonotope(C.generators @ X.T))
    return hull(C.vertices @ X.T)


def scale(P: VPolytope, c: float) -> VPolytope:
    return VPolytope(P.vertices * c, reduced=P.reduced if c > 0 else False)


def translate(P: VPolytope, t) -> VPolytope:
    return VPolytope(P.vertices + np.asarray(t, dtype=float), reduced=P.reduced)


def segment(a, b) -> VPolytope:
    return VPolytope(np.vstack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)]))


def facet_planes(P: VPolytope):
    """Outward unit normals and offsets (h values) of a full-dimensional
    body, and its ``HullFacets``."""
    R = reduced_form(P)
    if R.affine_dim < R.dim:
        raise GeometryError("facet planes need a full-dimensional body")
    h = _hull_facets(R)
    return h.equations[:, :-1], -h.equations[:, -1], h


def polar(P: VPolytope) -> VPolytope:
    """Polar body {x : <x, y> <= 1 for all y in P}; origin must be interior."""
    R = reduced_form(P)
    if R.affine_dim < R.dim:
        raise GeometryError("polar needs a full-dimensional body")
    normals, offsets, _ = facet_planes(R)
    scale_ref = max(1.0, float(np.max(np.abs(R.vertices))))
    if np.min(offsets) <= INTERIOR_TOL * scale_ref:
        raise GeometryError("polar requires the origin strictly interior")
    pts = normals / offsets[:, None]
    return hull(pts)


def vertex_set_distance(P, Q) -> float:
    """Symmetric max-min distance between the two irredundant vertex sets.

    Accepts polytopes or raw vertex arrays (arrays are taken as already
    irredundant, e.g. an oracle's output).
    """
    a = P if isinstance(P, np.ndarray) else reduced_form(P).vertices
    b = Q if isinstance(Q, np.ndarray) else reduced_form(Q).vertices
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions (angle grid / Fibonacci)."""
    if n == 2:
        theta = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = i * GOLDEN_ANGLE
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise GeometryError(f"directions need dimension 2 or 3, got {n}")


# ---------------------------------------------------------------------------
# zonotopes


def merge_parallel_generators(Z: Zonotope) -> Zonotope:
    """Combine generators spanning the same line; support is unchanged."""
    gens = Z.generators
    norms = np.linalg.norm(gens, axis=1)
    keep = norms > MERGE_TOL
    gens, norms = gens[keep], norms[keep]
    if len(gens) == 0:
        return Zonotope(np.zeros((0, Z.dim)))
    units = gens / norms[:, None]
    # canonical orientation: first coordinate above MERGE_TOL in size positive
    lead = units[np.arange(len(units)), np.argmax(np.abs(units) > MERGE_TOL, axis=1)]
    units[lead < 0] *= -1.0
    order = np.lexsort(units.T[::-1])
    # A generator joins the group of the first one before it within
    # MERGE_GAP.  When every gap between sorted neighbours clears MERGE_GAP
    # by more than these norms and the walk's may differ in rounding, each
    # group is a single generator and the walk would return units * norms
    # in sorted order.
    gaps = np.linalg.norm(np.diff(units[order], axis=0), axis=1)
    if np.all(gaps >= MERGE_GAP * (1.0 + 1e-10)):
        return Zonotope(units[order] * norms[order, None])
    merged = []
    current = units[order[0]] * norms[order[0]]
    current_u = units[order[0]]
    for idx in order[1:]:
        if np.linalg.norm(units[idx] - current_u) < MERGE_GAP:
            current = current + units[idx] * norms[idx]
        else:
            merged.append(current)
            current = units[idx] * norms[idx]
            current_u = units[idx]
    merged.append(current)
    return Zonotope(np.array(merged))


def zonotope_volume(Z: Zonotope) -> float:
    """Exact volume via the generator determinant expansion, any dimension."""
    gens = Z.generators
    m, n = gens.shape
    if m < n:
        return 0.0
    count = math.comb(m, n)
    if count > ZONOTOPE_DET_BUDGET:
        raise GeometryError(
            f"determinant expansion needs {count} terms (budget {ZONOTOPE_DET_BUDGET}); "
            "convert to a vertex polytope and take its hull volume instead"
        )
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), n)),
        dtype=np.intp,
    ).reshape(count, n)
    sub = gens[idx]
    if n == 2:
        dets = sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    elif n == 3:
        dets = np.einsum("ki,ki->k", np.cross(sub[:, 0], sub[:, 1]), sub[:, 2])
    else:
        dets = np.linalg.det(sub)
    return float((2.0 ** n) * np.sum(np.abs(dets)))


def _zonotope_polygon_vertices(gens: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(gens, axis=1)
    gens = gens[norms > 1e-14]
    if len(gens) == 0:
        return np.zeros((1, 2))
    flip = (gens[:, 1] < 0) | ((gens[:, 1] == 0) & (gens[:, 0] < 0))
    gens = np.where(flip[:, None], -gens, gens)
    angles = np.arctan2(gens[:, 1], gens[:, 0])
    gens = gens[np.argsort(angles, kind="stable")]
    start = -np.sum(gens, axis=0)
    chain = np.vstack([start, start + 2.0 * np.cumsum(gens, axis=0)])
    verts = np.vstack([chain[:-1], -chain[:-1]])
    return verts


def zonotope_to_vpolytope(Z: Zonotope) -> VPolytope:
    """Exact vertex form: sorted edge walk in 2-D, sign-pattern hull in 3-D."""
    Zm = merge_parallel_generators(Z)
    gens = Zm.generators
    n = Zm.dim
    if n == 2:
        return hull(_zonotope_polygon_vertices(gens))
    if n != 3:
        raise GeometryError("vertex conversion supports dimension 2 or 3")
    m = len(gens)
    if m == 0:
        return VPolytope(np.zeros((1, 3)), reduced=True)
    if m > ZONOTOPE_VERTEX_GEN_LIMIT:
        raise GeometryError(
            f"{m} generators exceed the sign-pattern limit {ZONOTOPE_VERTEX_GEN_LIMIT}"
        )
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    return hull(signs @ gens)


def as_polytope(B) -> VPolytope:
    """B as a vertex polytope: a zonotope goes to its exact vertex form."""
    return zonotope_to_vpolytope(B) if isinstance(B, Zonotope) else B


def polar_of_zonotope(Z: Zonotope) -> VPolytope:
    """Exact polar of a full-dimensional zonotope via facet normal enumeration."""
    Zm = merge_parallel_generators(Z)
    gens = Zm.generators
    n = Zm.dim
    if n == 2:
        cand = np.column_stack([-gens[:, 1], gens[:, 0]])
    elif n == 3:
        i, j = np.triu_indices(len(gens), k=1)
        cand = np.cross(gens[i], gens[j])
    else:
        raise GeometryError("polar supports dimension 2 or 3")
    norms = np.linalg.norm(cand, axis=1)
    keep = norms > POLAR_NORMAL_TOL
    cand = cand[keep] / norms[keep, None]
    if len(cand) == 0 or np.linalg.matrix_rank(gens) < n:
        raise GeometryError("polar requires a full-dimensional zonotope")
    h = np.sum(np.abs(cand @ gens.T), axis=1)
    pts = cand / h[:, None]
    return hull(np.vstack([pts, -pts]))


def zonotope_polar_volume(Z: Zonotope) -> float:
    """|Z°| of a full-dimensional zonotope, exactly, from its normal fan and
    with no hull; ``volume(polar_of_zonotope(Z))`` is the hull route.

    The polar's vertices are n / h_Z(n) over the facet normals n of Z.  In
    the plane they are +-g_i rotated a quarter turn, taken in angle order
    for the shoelace formula.  In space the facets of Z° are the cones of
    the vertices v of Z, each cut by the plane <x, v> = 1, and the edges of
    Z° are the arcs of the great circles g_i^perp between consecutive
    normals +-(g_i x g_j) / |g_i x g_j|.  Fanning each facet from its foot
    point v / |v|^2 gives

        |Z°| = (1/6) sum_i sum_arcs <a x b, v+ / |v+|^2 - v- / |v-|^2>,

    with the arc (a, b) of polar vertices ordered counterclockwise around
    g_i, and v+- = c +- g_i the two vertices of Z on the edge the arc
    dualizes, c = sum_{k != i} sign<g_k, a + b> g_k.  An arc of length zero
    (three coplanar generators) adds nothing.

    The signs need no test: going counterclockwise around g_i, <g_j, .>
    turns negative at g_i x g_j and positive at its antipode, so c moves by
    -2 g_j at the one and by +2 g_j at the other, a running sum along each
    circle.  Beyond h_Z at the m(m - 1)/2 facet normals (one matrix
    product), the circles cost O(m^2 log m) work and, in blocks, O(m^2)
    memory for m generators, with no m x (2m - 2) x m array of signs.
    """
    gens = merge_parallel_generators(Z).generators
    m, n = gens.shape
    if n not in (2, 3):
        raise GeometryError("polar supports dimension 2 or 3")
    if m < n or np.linalg.matrix_rank(gens) < n:
        raise GeometryError("polar requires a full-dimensional zonotope")
    if n == 2:
        normals = np.column_stack([-gens[:, 1], gens[:, 0]])
        normals = np.vstack([normals, -normals])
        pts = normals / _abs_pairing(normals, gens)[:, None]
        pts = pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))]
        return abs(_polygon_area(pts))
    # Q[i, j] = (g_i x g_j) / h_Z(g_i x g_j), the polar vertex of the facet
    # spanned by g_i and g_j; circle i carries +Q[i, j] and then -Q[i, j]
    # over the other generators j = who[i].
    i, j = np.triu_indices(m, k=1)
    cross = np.cross(gens[i], gens[j])
    Q = np.zeros((m, m, 3))
    Q[i, j] = cross / _abs_pairing(cross, gens)[:, None]
    Q[j, i] = -Q[i, j]
    rest = np.arange(m - 1)
    step = max(1, POLAR_BLOCK_ARCS // (2 * m - 2))
    total = 0.0
    for s in range(0, m, step):
        rows = np.arange(s, min(s + step, m))
        who = rest + (rest >= rows[:, None])
        ring = Q[rows[:, None], who]
        ring = np.concatenate([ring, -ring], axis=1)  # (circles, 2m - 2, 3)
        who = np.concatenate([who, who], axis=1)
        # angles in the frame (e, g x e / |g|) of each circle, e its first point
        g = gens[rows, None, :]
        e = ring[:, :1]
        f = np.cross(g, e) / np.linalg.norm(g, axis=2, keepdims=True)
        order = np.argsort(np.arctan2((ring * f).sum(axis=2), (ring * e).sum(axis=2)), axis=1)
        a = np.take_along_axis(ring, order[:, :, None], axis=1)
        # c on the arc ending at a circle's first point, where g_j has the
        # sign set at the later of its two points, then the running sum
        place = np.argsort(order, axis=1)
        last = np.where(place[:, : m - 1] > place[:, m - 1:], -1.0, 1.0)
        c = (last[:, :, None] * gens[who[:, : m - 1]]).sum(axis=1)
        turn = np.where(order < m - 1, -2.0, 2.0)[:, :, None]
        c = c[:, None, :] + np.cumsum(turn * gens[np.take_along_axis(who, order, axis=1)], axis=1)
        feet = 0.0
        for sign in (1.0, -1.0):
            v = c + sign * g
            feet = feet + sign * v / (v * v).sum(axis=2, keepdims=True)
        total += float((np.cross(a, np.roll(a, -1, axis=1)) * feet).sum())
    return total / 6.0


# ---------------------------------------------------------------------------
# M-addition


@dataclass(frozen=True)
class MSpec:
    """Combination rule for m_add: plain Minkowski, an explicit 1-unconditional
    polytope M, or the L_p rule realized as M = B_q with 1/p + 1/q = 1."""

    variant: str
    M: VPolytope | None = None
    p: float | None = None
    vertex_budget: int = 256

    @staticmethod
    def minkowski() -> "MSpec":
        return MSpec("minkowski")

    @staticmethod
    def polytope(M: VPolytope) -> "MSpec":
        return MSpec("polytope", M=M)

    @staticmethod
    def lp(p: float, vertex_budget: int | None = None) -> "MSpec":
        if p < 1:
            raise GeometryError("lp addition needs p >= 1")
        if vertex_budget is None:
            vertex_budget = 256
        return MSpec("lp", p=float(p), vertex_budget=vertex_budget)

    def conjugate_ball_vertices(self, count: int) -> np.ndarray:
        """The L_p rule's M in R^count: vertices of B_q, 1/p + 1/q = 1,
        sampled with ``vertex_budget`` directions where not exact."""
        if self.p == 1.0:
            q = math.inf
        elif math.isinf(self.p):
            q = 1.0
        else:
            q = self.p / (self.p - 1.0)
        return lp_ball_vertices(count, q, self.vertex_budget)


def is_origin_symmetric(P: VPolytope) -> bool:
    R = reduced_form(P)
    return vertex_set_distance(R, VPolytope(-R.vertices)) < SYMMETRY_TOL * max(
        1.0, float(np.max(np.abs(R.vertices)))
    )


def is_unconditional(M: VPolytope) -> bool:
    """Vertex set invariant under all coordinate sign flips."""
    R = reduced_form(M)
    bound = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(R.vertices))))
    for signs in itertools.product((-1.0, 1.0), repeat=R.dim):
        if vertex_set_distance(R, VPolytope(R.vertices * np.array(signs))) > bound:
            return False
    return True


def lp_ball_vertices(m: int, q: float, budget: int) -> np.ndarray:
    """Vertex sample of the unit B_q ball in R^m (m = 2 or 3); exact at q in {1, inf}."""
    if math.isinf(q):
        return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    if q == 1:
        return np.vstack([np.eye(m), -np.eye(m)])
    dirs = sphere_directions(m, budget)
    norms = np.sum(np.abs(dirs) ** q, axis=1) ** (1.0 / q)
    return dirs / norms[:, None]


def m_add(spec: MSpec, bodies: list) -> VPolytope:
    """M-addition of origin-symmetric bodies sharing an ambient dimension."""
    if len(bodies) == 0:
        raise GeometryError("m_add needs at least one body")
    dims = {B.dim for B in bodies}
    if len(dims) != 1:
        raise GeometryError("m_add bodies must share a dimension")
    bodies = [reduced_form(B) for B in bodies]
    if spec.variant == "minkowski":
        out = bodies[0]
        for B in bodies[1:]:
            out = minkowski_sum(out, B)
        return out
    if spec.variant == "lp":
        Mverts = spec.conjugate_ball_vertices(len(bodies))
    else:
        M = spec.M
        if M is None or M.dim != len(bodies):
            raise GeometryError("polytope M must live in R^(number of bodies)")
        if not is_unconditional(M):
            raise GeometryError("polytope M must be 1-unconditional")
        Mverts = reduced_form(M).vertices
    for B in bodies:
        if not is_origin_symmetric(B):
            raise GeometryError("m_add with a nontrivial M needs origin-symmetric bodies")
    pieces = []
    for a in Mverts:
        pts = bodies[0].vertices * a[0]
        for coeff, B in zip(a[1:], bodies[1:]):
            pts = (pts[:, None, :] + coeff * B.vertices[None, :, :]).reshape(-1, pts.shape[1])
            if len(pts) > 4096:
                pts = hull(pts).vertices
        pieces.append(pts)
    return hull(np.vstack(pieces))


# ---------------------------------------------------------------------------
# standard bodies


def cube_body(n: int, half: float = 1.0) -> VPolytope:
    if n == 2:
        v = half * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        return VPolytope(v, reduced=True)
    if n > 16:
        raise GeometryError("explicit cube vertices limited to dimension 16")
    verts = half * np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return VPolytope(verts, reduced=(n == 3))


def solid_simplex(n: int) -> VPolytope:
    """conv{0, e_1, ..., e_n}, full-dimensional in R^n."""
    return VPolytope(np.vstack([np.zeros(n), np.eye(n)]), reduced=False)


def cross_body(n: int, radius: float = 1.0) -> VPolytope:
    return VPolytope(radius * np.vstack([np.eye(n), -np.eye(n)]), reduced=(n in (2, 3)))


def regular_polygon(radius: float, sides: int) -> VPolytope:
    theta = np.arange(sides) * (2.0 * math.pi / sides)
    v = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return VPolytope(v, reduced=True)


def ball_body(n: int, radius: float = 1.0, facets: int | None = None) -> VPolytope:
    """Inscribed polytope stand-in for the Euclidean ball.

    Defaults: 64-gon in the plane, 320-facet triangulated sphere in space
    (162 quasi-uniform vertices).
    """
    if n == 2:
        return regular_polygon(radius, facets or 64)
    if n == 3:
        f = facets or 320
        nverts = f // 2 + 2
        return hull(radius * sphere_directions(3, nverts))
    raise GeometryError("ball approximation needs dimension 2 or 3")


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def lp_ball_body(m: int, p: float) -> VPolytope:
    """B_p^m as a vertex polytope; exact for p in {1, inf}, sampled otherwise."""
    if p < 1:
        raise GeometryError("lp ball needs p >= 1")
    if p == 1:
        return cross_body(m)
    if math.isinf(p):
        return cube_body(m)
    if m not in (2, 3):
        raise GeometryError("lp ball sampling supports m = 2 or 3 only")
    return VPolytope(lp_ball_vertices(m, p, 256 if m == 2 else 1024), reduced=False)

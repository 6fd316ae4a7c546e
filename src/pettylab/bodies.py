"""Vertex-presented convex bodies and the exact operations on them.

Everything downstream (mixed volumes, projection bodies, the experiment
harness) reduces to a small kernel of operations on two representations:
``VPolytope`` (convex hull of finitely many points) and ``Zonotope``
(Minkowski sum of centered segments).  Exact hull-based algorithms are
restricted to ambient dimension 2 and 3; zonotope determinant volumes and
plain vertex arithmetic work in any dimension.  One Minkowski point-sum
loop, ``point_sums``, serves ``minkowski_sum``, M-addition, C-set vertices
and zonotope hulls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.special import erf, owens_t

COPLANAR_TOL = 1e-12
INTERIOR_TOL = 1e-12
ZONOTOPE_DET_BUDGET = 10 ** 6
POINT_SUM_ROWS = 4096

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Entries of one block of |<u, v>| values in ``_abs_pairing``: 256 KiB, so a
# large node set reuses one small buffer instead of faulting in megabytes of
# fresh pages whenever a body has more facets or generators than the last.
# Swept from 2^13 to 2^16 on coordinate-major node sets at 17, 30, 64 and
# 100 generators on 4096 and 8192 nodes (2-vCPU Xeon, two sweeps): 2^15 was
# fastest at 30 and 100, 2^14 at 64 (by 3-18%, and by nothing in a cor13
# report), 2^16 only at 17 generators on 4096 nodes, and 1.3-3 times slower
# elsewhere; 2^13 lost at every count.
ABS_BLOCK_ENTRIES = 1 << 15
# Arcs, or rule nodes, per block of great circles in the walk of
# ``spatial_polar_measures``, which every spatial polar measure runs: the
# 3-D ball's projection body, some 320 generators and 1e5 half-circle arcs,
# then peaks at about 7 MiB under tracemalloc instead of about 44.
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
    try:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    except OverflowError as exc:  # an integer past the largest float
        raise GeometryError("point coordinates are not finite") from exc
    if pts.ndim != 2:
        raise GeometryError("points must form a 2-d array")
    if not np.isfinite(pts).all():
        raise GeometryError("point coordinates are not finite")
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
        if pts is vertices:  # the caller's own array stays writeable
            pts = pts.copy()
        pts.setflags(write=False)
        self.vertices = pts
        self.dim = pts.shape[1]
        self.reduced = bool(reduced)
        self._cache: dict = {}

    def __repr__(self):
        return f"VPolytope(dim={self.dim}, vertices={len(self.vertices)}, reduced={self.reduced})"

    def __reduce__(self):  # a copy is built by the constructor, with an empty cache
        return VPolytope, (self.vertices, self.reduced)

    def derived(self, name: str, build, *args):
        """``build(*args)``, kept in this body's cache under ``name`` the first
        time it is asked for, with every array in it (the value, a tuple's
        items or a record's fields) made read-only: that rule's one owner."""
        cache = self._cache
        if name not in cache:
            value = cache[name] = build(*args)
            for part in (value if isinstance(value, tuple) else
                         getattr(value, "__dict__", {}).values() or (value,)):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
        return cache[name]

    @property
    def affine_dim(self) -> int:
        """Dimension of the affine hull; flags degenerate bodies."""
        return self.derived("affine_dim", _affine_rank, self.vertices)

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
        if gens is self.generators:  # the caller's own array stays writeable
            gens = gens.copy()
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    def __reduce__(self):
        return Zonotope, (self.generators,)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def support(self, u) -> float:
        return float(np.sum(np.abs(self.generators @ np.asarray(u, dtype=float))))

    def support_batch(self, U) -> np.ndarray:
        return _abs_pairing(U, self.generators)


def _abs_pairing(U, V: np.ndarray) -> np.ndarray:
    """sum_j |<u, v_j>| for each row u of U, in blocks of rows of at most
    ``ABS_BLOCK_ENTRIES`` products.

    A block holds the products as (len(V), rows), one row per v_j, and is
    reduced by one vector-matrix product: with three coordinates the
    products come 1.5-2 times as fast in that layout as in (rows, len(V)),
    and a row sum over a short last axis costs 2-3 times as much at 8192
    rows.  The grid's node sets (``projections.node_set``) are
    coordinate-major, the transpose of a C-contiguous (n, N) array, so a
    block's U[s:s + step].T is n contiguous coordinate rows: in cor13
    reports (64 generators, 4096 nodes) a call took 226 us against 304 us
    on a row-major node set.  The two layouts can differ in the last bit of
    a support value (at 71 of 196 sizes of 3 to 100 generators on 4096 and
    8192 nodes), not in the polar measures of that sweep.  Calls with equal
    shapes and layouts do the same arithmetic, so equal inputs give equal
    bits.
    """
    U = np.asarray(U, dtype=float)
    w = np.ones(len(V))
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
# (T, k, n) array and return one row per cloud, bit-identical whichever
# other clouds share the stack.  They use elementwise products, max/min, and
# sums along the last axis or in an explicit loop.  A batched matrix product
# is allowed where it makes one product of a fixed shape per cloud, as in
# ``cloud_widths``; a 2-D product over the stacked rows is not, since
# OpenBLAS gives row blocks of ``X @ A`` other last bits than the whole
# product, so a row would depend on the size of its stack.
#
# Each kernel splits a stack's coordinates once onto an axis ahead of the
# stack's (the walk's 3-vectors as (3, T, ...), the rank and edge tests'
# clouds point-major as (k, n, T)) and writes every difference,
# orientation, dot and cross product as explicit per-coordinate arithmetic
# in the order the one-row form rounds it.  No reduction or index gather
# runs over an axis of length 2 or 3, every elementwise step runs over long
# contiguous rows, and sums over points keep the point axis outermost.


def cloud_widths(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """max_i <p_i, w> - min_i <p_i, w>: the width of each cloud P[t] along
    each direction row w of W, shape (T, N).  W is (N, 2) for every cloud or
    (T, N, 2), one set per cloud.  The pairings are one (k, 2) @ (2, N)
    product per cloud, k N entries; ``verify.cloud_widths_elementwise`` is
    the elementwise oracle."""
    pairs = P @ np.swapaxes(W, -1, -2)
    return pairs.max(axis=1) - pairs.min(axis=1)


# A row set counts as full rank without an SVD only when s_min/s_max clears
# this ratio.  The Gram determinant det M = (s_0 ... s_{n-1})^2 carries a
# rounding error of about 1e-15 trace(M)^n, so it cannot resolve much
# smaller ratios; this one lies far above the COPLANAR_TOL threshold of the
# SVD in ``affine_dimension``, which covers the duplicate points ``hull``
# drops before its test.
RANK_RATIO = 1e-6


def full_rank(V: np.ndarray) -> np.ndarray:
    """Mask of the stacked row sets V[t], shape (T, k, n) with n = 2 or 3,
    whose rows span R^n with margin, s_min/s_max > RANK_RATIO; False means
    "flat or too close to call", which callers settle with ``hull``.  The
    generator rows of zonotopes give the mask of those that are
    full-dimensional; ``full_dimensional`` centers clouds first.

    Each set is scaled to entries of at most 1, as in ``_affine_rank``, and
    with M = V^T V, s_min/s_max >= sqrt(det M) / trace(M)^(n/2), since the
    other singular values are at most s_max and s_max^2 <= trace M.  The
    sets are copied point-major, (k, n, T), and M is the sum of the rows'
    outer products, (k, n, n, T), over that leading point axis: row after
    row in row order, for every T, since the n n T axes inside the sum are
    never reduced.  So a set's answer does not depend on the sets stacked
    with it, and M holds the bits of the (T, k, n, n) outer products summed
    over their point axis, in a third of the time on the stacks the kernels
    pass (16 sets of 64 planar points, 500 of 4, 200 of 4 spatial ones).
    Costs k n^2 entries per set.
    """
    return _spans(V.transpose(1, 2, 0).copy())


def full_dimensional(P: np.ndarray) -> np.ndarray:
    """``full_rank`` of the clouds P[t], shape (T, k, n), centered at their
    means: the mask of the hulls ``hull`` would find full-dimensional.  The
    means take the bits of ``P.mean(axis=1)``, a sum over the points in
    order and one divide."""
    X = P.transpose(1, 2, 0).copy()
    X -= np.add.reduce(X, axis=0) / P.shape[1]
    return _spans(X)


def _spans(X: np.ndarray) -> np.ndarray:
    """``full_rank`` of the point-major sets X, shape (k, n, T)."""
    det, trace = _gram_det_trace(X)
    return det > RANK_RATIO ** 2 * trace ** X.shape[1]


def _gram_det_trace(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(det M, trace M), shape (T,), of the Gram matrices M of the
    point-major sets X, shape (k, n, T), each scaled in place to entries of
    at most 1 (see ``full_rank``)."""
    scale = np.abs(X).max(axis=(0, 1), initial=0.0)
    X /= np.where(scale > 0.0, scale, 1.0)
    return _det_trace((X[:, :, None] * X[:, None, :]).sum(axis=0))


def _det_trace(M) -> tuple:
    """(det M, trace M) of a symmetric 2 x 2 or 3 x 3 matrix M, read from its
    upper triangle: nested lists of floats, or an (n, n, T) stack."""
    if len(M) == 2:
        (a, b), (_, d) = M
        return a * d - b * b, a + d
    (a, b, c), (_, d, e), (_, _, f) = M
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c), a + d + f


def _planar_edge_test(P: np.ndarray) -> tuple:
    """(dx, dy, edges, ok) for stacked planar clouds P of shape (T, k, 2),
    the first three with the stack on the last axis: dx[i, j, t] and
    dy[i, j, t], p_j - p_i on the x and y planes; edges[i, j, t] True when
    (i, j) is a counterclockwise hull edge, every other point strictly to
    its left; and ok, shape (T,), the mask of the clouds where that test
    holds with margin.  A cloud with an orientation within COPLANAR_TOL of
    zero relative to its squared diameter (repeated or collinear points),
    or that ``full_dimensional`` cannot call, is masked out.  The points are
    copied point-major, (k, 2, T), once, so that each difference and
    orientation runs over the whole stack as one contiguous row: at 200 and
    500 clouds of 4 points the test takes a third of the time it took on
    (T, k, k, k) orientations of last-axis points, with the same bits.
    Costs k^3 entries per cloud."""
    k = P.shape[1]
    X = P.transpose(1, 2, 0).copy()
    x, y = X[:, 0], X[:, 1]
    dx, dy = x[None] - x[:, None], y[None] - y[:, None]
    orient = dx[:, :, None] * dy[:, None] - dy[:, :, None] * dx[:, None]
    # the (i, j, l) with a repeated point and the (i, j) with one, on the
    # stack's axis
    eye = np.eye(k, dtype=bool)[..., None]
    same = eye[:, :, None] | eye[None] | eye[:, None]
    diam_sq = (dx * dx + dy * dy).max(axis=(0, 1), initial=0.0)
    near = (np.abs(orient) <= COPLANAR_TOL * diam_sq) & ~same
    edges = ((orient > 0.0) | same).all(axis=2) & ~eye
    X -= np.add.reduce(X, axis=0) / k
    return dx, dy, edges, _spans(X) & ~near.any(axis=(0, 1, 2))


def _pair_crosses(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cross(p_i, p_j) for every pair of points on the x and y planes, shape
    (k, T) each, as (k, k, T)."""
    return x[:, None] * y[None] - y[:, None] * x[None]


def planar_hull_areas(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas of the hulls conv P[t] without a hull, and the mask of clouds
    where they hold: half the sum of cross(p_i, p_j) over the hull edges
    (i, j) of ``_planar_edge_test``, each cloud's k^2 terms in (i, j) order
    as one contiguous row, summed pairwise; callers hull the clouds outside
    the mask.  Costs k^3 entries per cloud."""
    T, k, _ = P.shape
    *_, edges, ok = _planar_edge_test(P)
    x, y = P[..., 0].T, P[..., 1].T
    crosses = np.where(edges, _pair_crosses(x, y), 0.0).reshape(k * k, T)
    return 0.5 * np.ascontiguousarray(crosses.T).sum(axis=1), ok


def planar_hull_edges(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The counterclockwise hull edges of the clouds P[t] without a hull, as
    (E, ok): E[t, i] = p_j - p_i for the edge (i, j) leaving p_i, zero when
    p_i is not a hull vertex, and ok the mask of ``_planar_edge_test``.
    Each row of E sums at most one nonzero term, so it is exact."""
    dx, dy, edges, ok = _planar_edge_test(P)
    E = np.empty(P.shape)
    E[..., 0] = np.where(edges, dx, 0.0).sum(axis=1).T
    E[..., 1] = np.where(edges, dy, 0.0).sum(axis=1).T
    return E, ok


def _affine_rank(pts: np.ndarray) -> int:
    """``affine_dimension`` with no SVD where the Gram matrix M of the centered
    cloud, scaled to entries of at most 1, has det M > RANK_RATIO^2
    trace(M)^n, n = 2 or 3: then s_min / s_max > RANK_RATIO, the certificate
    of ``full_rank`` for one cloud, far above the COPLANAR_TOL threshold of
    the SVD."""
    k, n = pts.shape
    if n in (2, 3) and k > n:
        C = pts - pts.mean(axis=0)
        scale = np.abs(C).max()
        if scale > 0.0:
            C /= scale
            det, trace = _det_trace((C.T @ C).tolist())
            if det > RANK_RATIO ** 2 * trace ** n:
                return n
    return affine_dimension(pts)


def sort_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new): the stable lexicographic row order of a and the mask of
    sorted rows unlike the last, so a[order[new]] = np.unique(a, axis=0)."""
    order = np.lexsort(a.T[::-1])
    s, new = a[order], np.ones(len(a), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, new


def affine_dimension(points: np.ndarray) -> int:
    pts = as_points(points)
    if len(pts) <= 1:
        return 0
    centered = pts - pts.mean(axis=0)
    scale = np.max(np.abs(centered))
    if scale == 0.0:
        return 0
    sv = np.linalg.svd(centered / scale, compute_uv=False)
    # the centring rounds by about eps max|p|, which far from the origin
    # alone exceeds COPLANAR_TOL of the cloud's spread
    tol = max(COPLANAR_TOL, 16.0 * np.finfo(float).eps * np.abs(pts).max() / scale)
    return min(int(np.sum(sv > tol * max(1.0, sv[0]))), len(pts) - 1)


@dataclass(frozen=True)
class HullFacets:
    """What one qhull run says about a full-dimensional body: its volume,
    the facet equations (qhull's convention, normal . x + offset <= 0) and
    the facet simplices as rows of the body's vertex list; the body's memo
    (``VPolytope.derived``) keeps it and makes its arrays read-only."""

    volume: float
    equations: np.ndarray
    simplices: np.ndarray


def _hull_full_dim(points: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """The hull vertices of a full-dimensional cloud and, unless qhull had to
    joggle the input (whose facets then belong to moved points), its
    ``HullFacets`` fields, with simplices remapped to rows of those vertices."""
    try:
        h = ConvexHull(points)
    except QhullError:
        h = _joggled_hull(points)
        return points[h.vertices], None
    rows = np.empty(len(points), dtype=np.intp)
    rows[h.vertices] = np.arange(len(h.vertices))
    return points[h.vertices], (float(h.volume), h.equations, rows[h.simplices])


def _joggled_hull(points: np.ndarray) -> ConvexHull:
    """qhull's run on the joggled cloud (``QJ``), for a full-dimensional
    cloud its plain run refused; where that fails too (coordinates of about
    1e150 and up overflow its round-off estimate), GeometryError."""
    try:
        return ConvexHull(points, qhull_options="QJ")
    except QhullError as exc:
        raise GeometryError(f"qhull cannot hull the cloud, even joggled: "
                            f"{str(exc).splitlines()[0]}") from exc


def _hull_facets(R: VPolytope) -> HullFacets:
    """The facets of a reduced full-dimensional body: those ``hull`` kept
    from its own qhull run, or one run on the vertices, kept for later."""
    return R.derived("qhull", _qhull_facets, R.vertices)


def _qhull_facets(vertices: np.ndarray) -> HullFacets:
    h = ConvexHull(vertices)
    return HullFacets(float(h.volume), h.equations, h.simplices)


def hull(points) -> VPolytope:
    """Irredundant convex hull of a point cloud in dimension 2 or 3.

    Degenerate clouds are legal: the result keeps the ambient dimension and
    reports a smaller ``affine_dim``.  Planar hulls come back in
    counterclockwise order.  Non-finite coordinates raise GeometryError.
    Its memo keeps its affine dimension and any unjoggled qhull record.
    """
    pts = as_points(points)
    n = pts.shape[1]
    if n not in (2, 3):
        raise GeometryError(f"hull supports dimension 2 or 3, got {n}")
    order, new = sort_rows(pts)
    pts = pts[order[new]]
    rank, record = _affine_rank(pts), None
    if rank == n:
        verts, record = _hull_full_dim(pts)
    elif rank == 0:
        verts = pts[:1]
    else:
        center = pts.mean(axis=0)
        basis = np.linalg.svd(pts - center, full_matrices=False)[2][:rank]
        coords = (pts - center) @ basis.T
        if rank == 1:
            verts = pts[[np.argmin(coords[:, 0]), np.argmax(coords[:, 0])]]
        else:
            verts = _hull_full_dim(coords)[0] @ basis + center
    out = VPolytope(verts, reduced=True)
    out.derived("affine_dim", int, rank)
    if record is not None:
        out.derived("qhull", HullFacets, *record)
    return out


def reduced_form(P: VPolytope) -> VPolytope:
    """Hull the vertex list unless it is already irredundant and ordered."""
    return P if P.reduced else P.derived("reduced", hull, P.vertices)


def _polygon_area(verts: np.ndarray) -> float:
    (x, y), (xn, yn) = verts.T, np.concatenate((verts[1:], verts[:1])).T
    return 0.5 * float(np.sum(x * yn - xn * y))


def volume(P) -> float:
    """Euclidean volume (area in the plane); degenerate bodies give 0."""
    if isinstance(P, Zonotope):
        return zonotope_volume(P)
    R = reduced_form(P)
    return R.derived("volume", _volume, R)


def _volume(R: VPolytope) -> float:
    if R.affine_dim < R.dim:
        return 0.0
    if R.dim == 2:
        return abs(_polygon_area(R.vertices))
    return _hull_facets(R).volume


def volume_of_points(points: np.ndarray) -> float:
    """Volume of the hull of a point cloud, with a fast simplex path.  A
    cloud too large for either path (coordinates of about 1e150 and up)
    raises GeometryError."""
    pts = as_points(points)
    n = pts.shape[1]
    if len(pts) <= n:
        return 0.0
    if len(pts) == n + 1:
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(pts[1:] - pts[0])
        if not np.isfinite(det):
            raise GeometryError("simplex volume overflows: the coordinates are too large")
        return abs(det) / math.factorial(n)
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        if affine_dimension(pts) < n:
            return 0.0
        return float(_joggled_hull(pts).volume)


def support(body, u) -> float:
    return body.support(u)


def minkowski_sum(A: VPolytope, B: VPolytope) -> VPolytope:
    if A.dim != B.dim:
        raise GeometryError("dimension mismatch in minkowski_sum")
    return hull(point_sums([A.vertices, B.vertices]))


def point_sums(arrays) -> np.ndarray:
    """Every sum of one row from each vertex array, added left to right, so
    its hull is the Minkowski sum of theirs; in dimension 2 or 3 a running
    sum past POINT_SUM_ROWS rows is cut back to its hull's vertices."""
    pts = arrays[0]
    for V in arrays[1:]:
        pts = (pts[:, None, :] + V[None, :, :]).reshape(-1, pts.shape[1])
        if len(pts) > POINT_SUM_ROWS and pts.shape[1] in (2, 3):
            pts = hull(pts).vertices
    return pts


def m_combinations(coeffs, arrays) -> np.ndarray:
    """The ``point_sums`` of c_i times arrays[i] for each row c of coeffs,
    stacked: for 1-unconditional M = conv(coeffs) and origin-symmetric
    bodies, their hull is the M-sum of the arrays' hulls."""
    return np.vstack([point_sums([c * B for c, B in zip(a, arrays)]) for a in coeffs])


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
    norms = np.sqrt(np.add.reduce(gens * gens, axis=1))  # np.linalg.norm's bits
    keep = norms > MERGE_TOL
    gens, norms = gens[keep], norms[keep]
    if len(gens) == 0:
        return Zonotope(np.zeros((0, Z.dim)))
    units = gens / norms[:, None]
    # canonical orientation: first coordinate above MERGE_TOL in size positive
    lead = units[np.arange(len(units)), np.argmax(np.abs(units) > MERGE_TOL, axis=1)]
    units[lead < 0] *= -1.0
    order = np.lexsort(units.T[::-1])
    units, norms = units[order], norms[order]
    # A generator joins the group of the first one before it within
    # MERGE_GAP, and each group is summed in sorted order.  When every gap
    # between sorted neighbours is 0 (a mixed area measure holds each line
    # as +-) or clears MERGE_GAP by more than these norms and the walk's may
    # differ in rounding, the groups are the runs of equal units.
    terms = units * norms[:, None]
    gaps = np.sqrt(np.add.reduce(np.square(units[1:] - units[:-1]), axis=1))
    joins = gaps == 0.0
    if not np.all(joins | (gaps >= MERGE_GAP * (1.0 + 1e-10))):
        head = units[0]
        for k in range(1, len(units)):
            joins[k - 1] = np.linalg.norm(units[k] - head) < MERGE_GAP
            head = head if joins[k - 1] else units[k]
    if not joins.any():
        return Zonotope(terms)
    merged = terms[np.concatenate([[True], ~joins])]
    np.add.at(merged, np.cumsum(~joins)[joins], terms[1:][joins])
    return Zonotope(merged)


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
        dets = np.einsum("ki,ki->k", cross3(sub[:, 0], sub[:, 1]), sub[:, 2])
    else:
        dets = np.linalg.det(sub)
    return float((2.0 ** n) * np.sum(np.abs(dets)))


def _zonotope_polygon_vertices(gens: np.ndarray) -> np.ndarray:
    flip = (gens[:, 1] < 0) | ((gens[:, 1] == 0) & (gens[:, 0] < 0))
    gens = np.where(flip[:, None], -gens, gens)
    angles = np.arctan2(gens[:, 1], gens[:, 0])
    gens = gens[np.argsort(angles, kind="stable")]
    start = -np.sum(gens, axis=0)
    chain = np.vstack([start, start + 2.0 * np.cumsum(gens, axis=0)])
    verts = np.vstack([chain[:-1], -chain[:-1]])
    return verts


def zonotope_to_vpolytope(Z: Zonotope) -> VPolytope:
    """Exact vertex form, for any number of generators: the sorted edge walk
    in 2-D, and in 3-D the hull of ``point_sums`` over the merged segments
    {-g, g}, which prunes the running sum to hull vertices as it grows."""
    gens = merge_parallel_generators(Z).generators
    if Z.dim not in (2, 3):
        raise GeometryError("vertex conversion supports dimension 2 or 3")
    if len(gens) == 0:
        return hull(np.zeros((1, Z.dim)))
    if Z.dim == 2:
        return hull(_zonotope_polygon_vertices(gens))
    return hull(point_sums(np.stack([-gens, gens], axis=1)))


def as_polytope(B) -> VPolytope:
    """B as a vertex polytope: a zonotope goes to its exact vertex form."""
    return zonotope_to_vpolytope(B) if isinstance(B, Zonotope) else B


def polar_of_zonotope(Z: Zonotope) -> VPolytope:
    """Exact polar of a full-dimensional zonotope via facet normal enumeration."""
    Zm = merge_parallel_generators(Z)
    gens = Zm.generators
    n = Zm.dim
    if n == 2:
        cand = perp(gens)
    elif n == 3:
        i, j = np.triu_indices(len(gens), k=1)
        cand = cross3(gens[i], gens[j])
    else:
        raise GeometryError("polar supports dimension 2 or 3")
    norms = np.linalg.norm(cand, axis=1)
    keep = norms > POLAR_NORMAL_TOL
    cand = cand[keep] / norms[keep, None]
    if len(cand) == 0 or not spans_space(gens):
        raise GeometryError("polar requires a full-dimensional zonotope")
    h = np.sum(np.abs(cand @ gens.T), axis=1)
    pts = cand / h[:, None]
    return hull(np.vstack([pts, -pts]))


def spans_space(G: np.ndarray) -> np.ndarray:
    """Whether the rows of each generator set G[..., k, n] span R^n, by
    numpy's ``matrix_rank``: the zonotopes whose polar is bounded.  Every
    polar measure of one zonotope, the polar hull and the harness's hull
    route decide flatness with it."""
    return np.linalg.matrix_rank(G) == G.shape[-1]


# Gauss-Legendre order of the rule on each piece of an edge in
# ``spatial_polar_measures``, a constant: against order 64 it moved Gaussian
# polar measures (sigma 1) of 400 random tetrahedron projection bodies by at
# most 3e-6 and of 200 mixed 3 x 3 zonotopes by at most 4e-5, and ball
# measures by at most 1e-7.
POLAR_WALK_ORDER = 8
_WALK_RULE = np.polynomial.legendre.leggauss(POLAR_WALK_ORDER)
# An arc whose edge is shorter than this share of |a|, or whose line passes
# that close to the origin, adds nothing under a Gaussian or ball measure:
# that is a zero-length arc (coplanar generators), whose ends differ by
# rounding alone, and its weight |<a x b, F>| <= L D |F| is at most this
# share of its scale anyway.
WALK_EDGE_TOL = 1e-12
# Rule nodes with R^2 - d^2 below this share of sigma^2 + d^2 take the
# first-order Taylor form of the Gaussian H at the foot: there the divided
# difference would lose eps / FOOT_GAP of its digits, and the Taylor form
# errs by about FOOT_GAP^2.
FOOT_GAP = 1e-5


# The walk keeps 3-vectors with their coordinates on the leading axis, as
# every stacked kernel does (see "stacked clouds" above).


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the leading axis: the products, then x + y + z in that
    order."""
    p = a * b
    out = p[0] + p[1]
    out += p[2]
    return out


def _vcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the leading axis, each coordinate as ``np.cross`` rounds it."""
    ax, ay, az, bx, by, bz = a[0], a[1], a[2], b[0], b[1], b[2]
    x = ay * bz
    out = np.empty((3,) + x.shape)
    np.subtract(x, az * by, out=out[0])
    y, z = out[1], out[2]
    np.multiply(az, bx, out=y)
    y -= ax * bz
    np.multiply(ax, by, out=z)
    z -= ay * bx
    return out


def perp(W: np.ndarray) -> np.ndarray:
    """Each planar row w on the last axis turned a quarter turn
    counterclockwise, (-w_y, w_x)."""
    return np.stack([-W[..., 1], W[..., 0]], axis=-1)


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of 3-vectors on the last axis: its operations and bits, each
    coordinate written into its plane of the output as ``_vcross`` does."""
    ax, ay, az, bx, by, bz = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    x = ay * bz
    out = np.empty(x.shape + (3,))
    np.subtract(x, az * by, out=out[..., 0])
    y, z = out[..., 1], out[..., 2]
    np.multiply(az, bx, out=y)
    y -= ax * bz
    np.multiply(ax, by, out=z)
    z -= ay * bx
    return out


def _circle_index(k: int, rows: range) -> tuple:
    """Index arrays of the circles ``rows`` of k generators: the rows; for
    each circle the other generators j, the triu position of each pair (i,
    j), i < j, and its sign, -1 where the circle's generator is the larger
    index, so that Q[pair] * sign = (g_i x g_j) / h; and the circles'
    positions as a column."""
    rest = np.arange(k - 1)
    circles = np.arange(rows.start, rows.stop)
    who = rest + (rest >= circles[:, None])
    lo, hi = np.minimum(circles[:, None], who), np.maximum(circles[:, None], who)
    pair = lo * (2 * k - lo - 1) // 2 + hi - lo - 1
    sign = np.where(circles[:, None] < who, 1.0, -1.0)
    return circles, who, pair, sign, np.arange(len(circles))[:, None]


@lru_cache(maxsize=64)
def _walk_index(k: int, step: int) -> tuple:
    """The walk's index tables for k generators in blocks of ``step``
    circles, read-only and built once (at 10 generators building them cost
    about 30 us a walk): the pairs i < j in triu order, then each block's
    ``_circle_index``."""
    tables = (*np.triu_indices(k, k=1),
              *(_circle_index(k, range(s, min(s + step, k))) for s in range(0, k, step)))
    for a in itertools.chain(tables[:2], *tables[2:]):
        a.setflags(write=False)
    return tables


def _rule_nodes(measure) -> int:
    """Rule nodes on each edge: none under Lebesgue measure, one piece under
    a Gaussian and the two pieces outside the ball under a ball measure."""
    pieces = {"gaussian": 1, "ball": 2}.get(getattr(measure, "variant", "lebesgue"), 0)
    return pieces * POLAR_WALK_ORDER


def spatial_polar_entries(k: int, measure=None) -> int:
    """Entries of the largest temporary ``spatial_polar_measures`` builds per
    zonotope of k generators whose circles fit one block: the rule nodes of
    the two facets of each arc on its k half circles of k - 1 arcs, or the
    running sums of those half circles, 2(k - 1) terms of three coordinates
    each."""
    return k * (k - 1) * max(2 * _rule_nodes(measure), 6)


def spatial_polar_measures(G: np.ndarray, measure=None) -> tuple[np.ndarray, np.ndarray]:
    """nu(Z°) for the spatial zonotopes Z = sum [-g, g] over the generator
    rows of G[t], shape (T, k, 3), with no hull or grid, and the mask of the
    zonotopes the walk reads.  ``measure`` is a
    ``projections.RadialMeasure``, or None for Lebesgue measure.

    The facets of Z° are the cones of the vertices v of Z, cut by the
    planes <x, v> = 1 at distance d = 1/|v| from the origin, and its edges
    are the arcs of the great circles g_i^perp between consecutive polar
    vertices +-(g_i x g_j) / h_Z(g_i x g_j).  Fanning each facet from its
    foot F = v / |v|^2, the cone over the triangle (F, A, B) of an edge
    A -> B has measure

        <A x B, F> * int_0^1 H(|A + t (B - A)|) dt,
        H(R) = (G(R) - G(d)) / (R^2 - d^2),  G = F_rho - I / R,

    with I the measure's radial integral and F_rho(R) = int_0^R rho(s) s ds,
    since int_d^R I(s) / s^2 ds = G(R) - G(d) by parts.  The arc adds this
    for its two facets v+- = c +- g_i, with signs + and -:

    * Lebesgue: H = 1/6, the cone sum (1/6) <A x B, F+ - F->;
    * Gaussian of scale sigma: G(R) = c sigma^2 (1 - sigma sqrt(pi/2)
      erf(R / (sigma sqrt 2)) / R), c = (2 pi sigma^2)^(-3/2), one erf per
      rule node shared by both facets; nodes within FOOT_GAP of the foot
      take the first-order Taylor form of H there;
    * the ball of radius r: H = 1/6 where R <= r, which the rule skips, and
      r^3 / (3 R d (R + d)) or ((r^2 - d^2)/6 + r^2 (R - r) / (3R)) /
      (R^2 - d^2) beyond, where d >= r or d < r.

    The rule is Gauss-Legendre of order POLAR_WALK_ORDER in tau = tan(psi/2),
    psi the angle seen from the origin from the edge line's closest point at
    distance D: R = D (1 + tau^2) / (1 - tau^2) and dt = (2D / L) (1 + tau^2)
    / (1 - tau^2)^2 dtau for an edge of length L, so no node needs trig and
    a long edge's peak at its closest point is spread out.  The ball splits
    each edge where R = r.

    Z° is origin-symmetric, and the arc from -a to -b carries what the arc
    from a to b does, so each circle is walked half way and the sum
    doubled.  Of each pair of crossings +-(g_i x g_j) a circle keeps p =
    s_j (g_i x g_j), s_j = +-1, whose angle from the circle's first live
    crossing e lies in [0, pi), by the sign of <p, g_i x e>; it sorts those
    k - 1 points and closes the half with the arc from the last to -a[0].
    Going counterclockwise around g_i, <g_j, .> turns negative at g_i x g_j,
    so g_j has the sign s_j on the arc ending at p and flips there: c starts
    at sum s_j g_j and is a running sum along the half with no sign test.
    Since <g_i, p> = <g_j, p> = 0, h_Z(p) = <c, p> for the c of either arc
    at p, and the polar vertex is a = p / <c, p>.  A zero generator's points
    sort last onto the half's end -a[0], so its arcs have length zero, and
    an edge shorter than WALK_EDGE_TOL, or whose line passes that close to
    the origin (a zero-length arc of coplanar generators), adds nothing.
    The mask is False where a generator is not finite, two nonzero
    generators are exactly parallel (merge them first), h_Z <= 0 at a
    crossing (Z is flat) or no generators cross, and the values there are
    NaN; callers also keep out zonotopes that do not span space.  The
    circles run in blocks of about POLAR_BLOCK_ARCS arcs or rule nodes, a
    count fixed by k and the measure, so a zonotope of many generators
    takes O(k^2) memory.  Only elementwise
    steps, sorts, running sums and sums along axes whose length does not
    depend on the stack are used, so a row's value does not depend on the
    rows stacked with it.  Costs ``spatial_polar_entries(k, measure)``
    entries per zonotope whose circles fit one block.
    """
    return _stacked_walk(G, measure, _WALK_RULE)


def _stacked_walk(G: np.ndarray, measure, rule: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``spatial_polar_measures`` with the Gauss-Legendre ``rule`` (nodes,
    weights) on [-1, 1]; ``verify`` checks the constant order against a
    finer one."""
    values, ok = np.full(len(G), np.nan), np.zeros(len(G), dtype=bool)
    k = G.shape[1]
    if k < 3:
        return values, ok
    G = G.transpose(2, 0, 1).copy()  # (3, T, k)
    step = max(1, POLAR_BLOCK_ARCS // ((k - 1) * max(1, _rule_nodes(measure))))
    i, j, *blocks = _walk_index(k, step)
    X = _vcross(G.take(i, axis=2), G.take(j, axis=2))
    # the generators must be finite, some must cross, and no nonzero ones
    # may be parallel
    live, nonzero = X.any(axis=0), G.any(axis=0)
    read = (live.any(axis=1) & ~(~live & nonzero[:, i] & nonzero[:, j]).any(axis=1)
            & np.isfinite(G).all(axis=(0, 2)))
    if not read.all():
        # walk the unit cube in the place of the sets the walk cannot read
        G[:, ~read] = np.eye(3, k)[:, None, :]
        X = _vcross(G.take(i, axis=2), G.take(j, axis=2))
    # the circles in blocks, their parts summed; Z° is origin-symmetric, so
    # the arc from -a to -b carries what a to b does
    total = np.zeros(len(read))
    for index in blocks:
        a, b, ab, w, q, flat = _circle_arcs(G, X, index)
        shape = (w.shape[1], w.shape[2] * w.shape[3])
        if measure is None or measure.variant == "lebesgue":
            total += w.sum(axis=0).reshape(shape).sum(axis=1) / 3.0
        else:
            S = _edge_integrals(_edge_lines(a, b, ab), q, measure, rule)
            total += 2.0 * (w * S).sum(axis=0).reshape(shape).sum(axis=1)
        read &= ~flat
    values[read], ok[:] = total[read], read
    return values, ok


# The coordinate index of the walk's (3, T, circles, k - 1) gathers.
_XYZ = np.arange(3)[:, None, None, None]


def _circle_arcs(G: np.ndarray, X: np.ndarray, index: tuple) -> tuple:
    """The arcs of the half circles g_i^perp of the ``_circle_index``
    ``index`` of the stacked zonotopes with generators G[:, t], shape (3, T,
    k), and crossings X[:, t] = g_i x g_j over the pairs i < j in triu
    order: (a, b, a x b, w, q, flat), with a the polar vertices p / h_Z(p)
    of the crossings p = s_j (g_i x g_j) at angles in [0, pi) from the
    circle's first live crossing e, sorted counterclockwise around g_i,
    shape (3, T, circles, k - 1), b the next of each and -a[0] after the
    last, for the two facets v+- = c +- g_i of the arc from a to b, stacked
    on a leading axis, the weights w = +-<a x b, F+->, F = v / |v|^2, and q
    = |v+-|^2 = 1 / d^2, and flat the mask of the zonotopes with h_Z(p) <=
    0 at a live crossing, shape (T,).  See ``spatial_polar_measures``."""
    _, T, k = G.shape
    m = k - 1
    circles, who, pairs, signs, rr = index
    # every gather is a take or indexes every axis, so that its output is
    # C-contiguous: the coordinates stay on the leading axis in memory too
    tt = np.arange(T)[:, None, None]
    ring = X.take(pairs, axis=2) * signs
    g = G.take(circles, axis=2)[..., None]
    # angles around g from the circle's first nonzero point e: atan2 of
    # <p, g x e> / |g| and <p, e>, whatever the lengths of p, e and g; of
    # +-p the one at an angle in [0, pi) stays, s p with s = +-1
    live = ring.any(axis=0)
    everywhere = live.all()
    e = ring[..., :1] if everywhere else ring[:, tt[..., 0], rr.T, live.argmax(axis=-1)][..., None]
    gg = _vdot(g, g)
    y, x = _vdot(ring, _vcross(g, e) / np.sqrt(np.where(gg > 0.0, gg, 1.0))), _vdot(ring, e)
    s = np.where((y < 0.0) | ((y == 0.0) & (x < 0.0)), -1.0, 1.0)
    key = np.arctan2(s * y, s * x)
    if not everywhere:
        key[~live] = np.inf
    order = np.argsort(key, axis=-1, kind="stable")
    s_sorted = s[tt, rr, order]
    p = ring[_XYZ, tt, rr, order] * s_sorted
    # <g_j, .> turns negative at g x g_j going counterclockwise, so g_j has
    # the sign s_j on the arc ending at a[0] and flips at its point: c
    # starts at sum s_j g_j, and one cumulative sum runs over both
    passed = G.reshape(3, T * k).take(tt * k + who[rr, order], axis=1)
    terms = np.concatenate([s * G.take(who, axis=2), -2.0 * s_sorted * passed], axis=-1)
    c = np.cumsum(terms, axis=-1)[..., m:]
    # h_Z(p) = <c, p> on the arc from p, 0 at a zero generator's points
    h = _vdot(c, p)
    low = h <= 0.0
    flat = (low & live[tt, rr, order]).any(axis=(1, 2)) if low.any() else np.zeros(T, dtype=bool)
    h[low] = 1.0
    a = p / h
    if not everywhere:
        # a zero generator's points sort last onto the half's end, -a[0]
        a = np.where(live[tt, rr, order], a, -a[..., :1])
    if flat.any():
        # a flat zonotope's value is dropped: one point for all its a puts
        # each arc at length zero or through the origin, so no edge is kept
        a[:, flat] = 1.0
    b = np.concatenate([a[..., 1:], -a[..., :1]], axis=-1)
    ab = _vcross(a, b)
    v = np.empty((3, 2) + c.shape[1:])
    np.add(c, g, out=v[:, 0])
    np.subtract(g, c, out=v[:, 1])
    q = _vdot(v, v)
    if not everywhere or flat.any():
        # on a zero generator's circle, all of whose arcs have length zero,
        # c may be 0, and on a flat zonotope's circles c +- g_i may be
        q[q == 0.0] = 1.0
    return a, b, ab, _vdot(ab[:, None], v) / q, q, flat


def _edge_lines(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> tuple:
    """The edges a -> b as (keep, L, D, sa, sb, ta, tb): keep, False where
    WALK_EDGE_TOL drops the edge; its length L (1 where it is 0); the
    distance D = |a x b| / L of its line from the origin (1 where dropped);
    the positions sa, sb of its ends from the line's closest point, and
    their tau = tan(psi / 2) = s / (|p| + D), ta and tb (0 where
    dropped)."""
    ed = b - a
    length = np.sqrt(_vdot(ed, ed))
    L = np.where(length > 0.0, length, 1.0)
    D = np.sqrt(_vdot(ab, ab)) / L
    na = np.sqrt(_vdot(a, a))
    keep = np.minimum(length, D) > WALK_EDGE_TOL * na
    sa = _vdot(a, ed) / L
    sb = sa + length
    if keep.all():
        return keep, L, D, sa, sb, sa / (na + D), sb / (np.sqrt(_vdot(b, b)) + D)
    D = np.where(keep, D, 1.0)
    ta = np.where(keep, sa / (na + D), 0.0)
    tb = np.where(keep, sb / (np.sqrt(_vdot(b, b)) + D), 0.0)
    return keep, L, D, sa, sb, ta, tb


def _edge_integrals(edges: tuple, q: np.ndarray, measure, rule: tuple) -> np.ndarray:
    """int_0^1 H(|a + t (b - a)|) dt for the two facets of each edge, at
    squared distances 1 / q (facets on the leading axis), under a Gaussian
    or ball measure: the Gauss-Legendre ``rule`` in tau, its nodes on a
    further leading axis.  With R = D (1 + tau^2) / (1 - tau^2), dt = (2 /
    L) R / (1 - tau^2) dtau, whose 2 / L and constants are applied per edge.
    The nodes are added in order, one in-place add each, so the order does
    not depend on the stack: at a 3 x 3 thm11 chunk's (8, 2, 56, 9, 8)
    entries the adds took 55 us, ``np.cumsum`` along the node axis 350."""
    keep, L, D, sa, sb, ta, tb = edges
    if measure.variant == "gaussian":
        pieces = [(ta, tb)]
        # in units u = R / (sigma sqrt 2): H = kappa / (2 sigma^2) (E(u0) -
        # E(u)) / (u^2 - u0^2), E(u) = erf(u) / u, kappa = c sigma^2 sqrt(pi) / 2
        unit = measure.sigma * math.sqrt(2.0)
        D = D / unit
        scale = (2.0 * math.pi) ** -1.5 * math.sqrt(math.pi) / (measure.sigma * unit * L)
    else:
        r = measure.radius
        # below 1, so that an edge within eps r of the origin, wholly in the
        # ball, puts the nodes of its empty outer pieces at a finite R
        tr = np.minimum(np.sqrt(np.maximum(r - D, 0.0) / (r + D)), 1.0 - 2.0 ** -53)
        pieces = [(ta, np.minimum(tb, -tr)), (np.maximum(ta, tr), tb)]
        scale = 2.0 / L
    shape = (-1, 1) + (1,) * D.ndim
    x, w = (np.asarray(v).reshape(shape) for v in rule)
    tau, weight = [], []
    for lo, hi in pieces:
        hw = 0.5 * np.maximum(hi - lo, 0.0)
        tau.append((lo + hw) + x * hw)
        weight.append(w * hw)
    tau, weight = (np.concatenate(v) if len(v) > 1 else v[0] for v in (tau, weight))
    dual = (1.0 - tau) * (1.0 + tau)
    tau *= tau
    tau += 1.0  # now 1 + tau^2
    R = D * tau
    R /= dual
    weight *= R
    weight /= dual
    if measure.variant == "gaussian":
        EU = erf(R)
        EU /= R
        H = _gaussian_ratio(EU, R * R, 1.0 / (q * unit * unit), D, keep)
    else:
        H = _ball_h(R, 1.0 / q, r)
    H *= weight
    S = H[0]
    for row in H[1:]:
        S += row
    S *= scale
    if measure.variant == "ball":
        # the part of the edge inside the ball, where H = 1/6
        reach = np.sqrt(np.maximum(r * r - D * D, 0.0))
        inner = np.where(keep, np.clip(sb, -reach, reach) - np.clip(sa, -reach, reach), 0.0)
        S += inner / (6.0 * L)
    return S


def _gaussian_ratio(EU: np.ndarray, uu: np.ndarray, u02: np.ndarray, Du: np.ndarray,
                    keep: np.ndarray) -> np.ndarray:
    """(E(u0) - E(u)) / (u^2 - u0^2), E(u) = erf(u) / u, at the rule nodes
    (EU, uu = u^2, nodes on the leading axis) of the edges whose facets have
    u0^2 = ``u02`` and whose lines pass at ``Du``, in units of sigma sqrt 2.
    Nodes within FOOT_GAP of the foot of a kept edge's facet take the
    first-order Taylor form at the foot, h1 + (4 e^(-u0^2) / sqrt(pi) - 6
    h1) (u^2 - u0^2) / (8 u0^2) with h1 = (E(u0) - 2 e^(-u0^2) / sqrt(pi))
    / (2 u0^2); only edges whose line passes that close can have such
    nodes.  The nodes of a dropped edge, whose weights are zero, all sit at
    its placeholder distance Du, and take the Taylor form where that falls
    within FOOT_GAP of the foot on either side, where the divided
    difference could read 0 / 0."""
    u0 = np.sqrt(u02)
    E0 = erf(u0) / u0
    gap = uu - u02
    near = FOOT_GAP * (0.5 + u02)
    lift = Du * Du - u02
    close = (lift <= near) & (keep | (lift >= -near))
    if close.any():
        part = gap[:, close]
        at = part <= near[close]
        if at.any():
            u02c, E0c = u02[close], E0[close]
            ex = np.exp(-u02c) / math.sqrt(math.pi)
            h1 = (E0c - 2.0 * ex) / (2.0 * u02c)
            taylor = h1 + (4.0 * ex - 6.0 * h1) * part / (8.0 * u02c)
            gap[:, close] = np.where(at, 1.0, part)
            out = (E0 - EU) / gap
            out[:, close] = np.where(at, taylor, out[:, close])
            return out
    out = E0 - EU
    out /= gap
    return out


def _ball_h(R: np.ndarray, d2: np.ndarray, r: float) -> np.ndarray:
    """H(R) of the ball of radius r at the rule nodes R >= r, for facets at
    squared distance d2, in forms with no cancellation: r^3 / (3 R d (R +
    d)) where d >= r, ((r^2 - d^2)/6 + r^2 (R - r) / (3R)) / (R^2 - d^2)
    where d < r."""
    d = np.sqrt(d2)
    gap = R * R - d2
    far = r ** 3 / (3.0 * R * d * (R + d))
    near = ((r - d) * (r + d) / 6.0 + r * r * (R - r) / (3.0 * R)) / np.where(gap > 0.0, gap, 1.0)
    return np.where(d >= r, far, np.where(gap > 0.0, near, 1.0 / 6.0))


def planar_polar_measures(G: np.ndarray, measure=None) -> tuple[np.ndarray, np.ndarray]:
    """nu(Z°) for the planar zonotopes Z = sum [-g, g] over the generator
    rows of G[t], shape (T, k, 2), exactly and with no hull or grid, and the
    mask of the zonotopes it reads, as the walk's: False for the flat ones
    (rank below 2, whose polar is a strip or the plane) and, value NaN, for
    those with a generator that is not finite.  ``measure`` is a
    ``projections.RadialMeasure``, or None for Lebesgue measure.

    With I the measure's radial integral, nu(Z°) = int I(1 / h_Z(u)) dtheta
    over the circle.  h_Z is even and linear between the breakpoints w =
    g^perp: on each arc (a, b) it is <v, u> = |v| cos(phi) for the vertex v
    of Z the arc stands for, phi = theta - theta_v, and the arc's integral
    has a closed form:

    * Lebesgue: (tan phi_b - tan phi_a) / (2 |v|^2), the triangle of the
      polar vertices w_a / h_Z(w_a) and w_b / h_Z(w_b), computed as
      cross(w_a, w_b) / (2 h_Z(w_a) h_Z(w_b)) with no cancellation;
    * Gaussian of scale sigma: [(phi_b - phi_a) - 2 pi (T(s, tan phi_b)
      - T(s, tan phi_a))] / (2 pi) with s = 1 / (sigma |v|), T Owen's T
      function (Owen, "Tables for computing bivariate normal
      probabilities", 1956);
    * the ball of radius r: the Lebesgue form where |phi| < arccos(1 /
      (r |v|)), and r^2 / 2 per radian outside it.

    The half circle from the first breakpoint is summed and doubled.  With
    each g turned so that w lies in [0, pi], <g, u> turns negative as u
    passes w counterclockwise, so v is the sum of the generators after the
    arc's breakpoint minus those up to it, a running sum with no sign test.
    tan phi = cross(v, w) / h_Z(w) at a breakpoint w, with h_Z(w) the sum of
    |<g, w>|, which vanishes exactly when the generators are exactly
    parallel, as merged ones are: a flat Z then gets +inf under Lebesgue
    measure and the exact measure of its strip otherwise.  Zero and
    parallel generators add arcs of length zero, which add nothing, and no
    generator at all leaves the whole plane.  Only elementwise steps,
    running sums and last-axis sums are used, so a row's value does not
    depend on the rows stacked with it.  Costs k^2 entries per zonotope.
    """
    variant = "lebesgue" if measure is None else measure.variant
    bad = None
    if not np.isfinite(G).all():
        # the rows with a generator that is not finite are read as no
        # generators and left out
        bad = ~np.isfinite(G).all(axis=(1, 2))
        G = np.where(bad[:, None, None], 0.0, G)
    # turn each g so that g_x >= 0, with no sign bit: w = (-g_y, g_x) then
    # lies in [0, pi]
    G = G * np.copysign(1.0, G[..., :1])
    gx, gy = G[..., 0], G[..., 1]
    live = (gx != 0.0) | (gy != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # breakpoints in angle order; a zero generator's key is inf or nan,
        # which sort last
        order = np.argsort(np.arctan2(gx, -gy) / live, axis=-1, kind="stable")
        rows = np.arange(len(G))[:, None]
        G, live = G[rows, order], live[rows, order]
        gx, gy = G[..., 0], G[..., 1]
        # a zero generator takes the breakpoint -w of the first, so that its
        # arcs have length zero and each arc ends where the next begins
        wx, wy = np.where(live, -gy, gy[:, :1]), np.where(live, gx, -gx[:, :1])
        h = np.abs(gx[:, None, :] * wx[:, :, None] + gy[:, None, :] * wy[:, :, None]).sum(axis=-1)
        ex = np.concatenate([wx[:, 1:], -wx[:, :1]], axis=-1)
        ey = np.concatenate([wy[:, 1:], -wy[:, :1]], axis=-1)
        he = np.concatenate([h[:, 1:], h[:, :1]], axis=-1)
        if variant == "lebesgue":
            parts = (wx * ey - wy * ex) / (2.0 * h * he)
        else:
            c = np.cumsum(G, axis=1)
            v = c[:, -1:] - 2.0 * c
            vx, vy = v[..., 0], v[..., 1]
            sq = vx * vx + vy * vy
            ca, cb = vx * wy - vy * wx, vx * ey - vy * ex
            ta, tb = ca / h, cb / he
            pa, pb = np.arctan2(ca, h), np.arctan2(cb, he)
            if variant == "gaussian":
                s = 1.0 / (measure.sigma * np.sqrt(sq))
                parts = (pb - pa) / (2.0 * math.pi) - (owens_t(s, tb) - owens_t(s, ta))
            else:
                r = measure.radius
                alpha = np.arccos(np.minimum(1.0 / (r * np.sqrt(sq)), 1.0))
                top = np.sqrt(np.maximum(r * r * sq - 1.0, 0.0))  # tan alpha
                lo, hi = np.clip(pa, -alpha, alpha), np.clip(pb, -alpha, alpha)
                tlo = np.where(pa < -alpha, -top, np.where(pa > alpha, top, ta))
                thi = np.where(pb < -alpha, -top, np.where(pb > alpha, top, tb))
                parts = (thi - tlo) / (2.0 * sq) + 0.5 * r * r * ((pb - pa) - (hi - lo))
            parts = np.where((ex != wx) | (ey != wy), parts, 0.0)
    values = 2.0 * parts.sum(axis=-1)
    empty = ~live.any(axis=-1)
    flat = empty | (h == 0.0).any(axis=-1)
    if variant == "lebesgue":
        values[flat] = math.inf
    else:
        values[empty] = 1.0 if variant == "gaussian" else math.pi * measure.radius ** 2
    held = ~flat
    if bad is not None:
        values[bad], held[bad] = math.nan, False
    return values, held


# ---------------------------------------------------------------------------
# M-addition


@dataclass(frozen=True)
class MSpec:
    """Combination rule for m_add: plain Minkowski, an explicit 1-unconditional
    polytope M, or the L_p rule realized as M = B_q with 1/p + 1/q = 1.
    ``coefficients`` reads M for m_add and for the harness's msum C-sets."""

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

    def coefficients(self, count: int) -> np.ndarray:
        """M's vertices in R^count: for the L_p rule B_q's, 1/p + 1/q = 1,
        sampled with ``vertex_budget`` directions where not exact; else the
        explicit M's, once M lives in R^count and is 1-unconditional."""
        if self.variant == "lp":
            if self.p == 1.0:
                q = math.inf
            elif math.isinf(self.p):
                q = 1.0
            else:
                q = self.p / (self.p - 1.0)
            return lp_ball_vertices(count, q, self.vertex_budget)
        if self.M is None or self.M.dim != count:
            raise GeometryError("polytope M must live in R^(number of bodies)")
        if not is_unconditional(self.M):
            raise GeometryError("polytope M must be 1-unconditional")
        return reduced_form(self.M).vertices


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
        return hull(point_sums([B.vertices for B in bodies]))
    Mverts = spec.coefficients(len(bodies))
    for B in bodies:
        if not is_origin_symmetric(B):
            raise GeometryError("m_add with a nontrivial M needs origin-symmetric bodies")
    return hull(m_combinations(Mverts, [B.vertices for B in bodies]))


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


@lru_cache(maxsize=16)
def ball_body(n: int, radius: float = 1.0, facets: int | None = None) -> VPolytope:
    """Inscribed polytope stand-in for the Euclidean ball.

    Defaults: 64-gon in the plane, 320-facet triangulated sphere in space
    (162 quasi-uniform vertices).  Built once per process for each argument
    list and shared, with its read-only vertices and whatever its callers
    derive from it.
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

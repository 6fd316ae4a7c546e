"""Steiner symmetrization, rearrangement to a ball, and shadow systems.

Symmetrization along a direction replaces every chord parallel to it by a
centered chord of equal length.  For vertex polytopes the construction is
exact: chord endpoints are piecewise linear in the orthogonal coordinates,
and all breakpoints come from vertices (plus, in space, crossings between
projected upper and lower edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    GeometryError,
    VPolytope,
    facet_planes,
    hull,
    reduced_form,
    volume,
)
from .mixed import facets
from .sampling import Density, RngStream, rearrange_body_volume
from .stats import summarize

PARALLEL_TOL = 1e-10
SNAP_TOL = 1e-12
# Breakpoint x vertex entries per block in ``chord_profiles``: a polygon's
# vertex count roughly doubles with each symmetrization, and ten rounds
# from a triangle would otherwise take arrays of tens of MB.
CHORD_BLOCK_ENTRIES = 1 << 15
# Upper x lower edge pairs per block in ``_segment_crossings``: the third
# round of a 3-D chain from 12 points pairs some 500 upper edges with 500
# lower ones, and one block of all pairs took about 17 MiB of temporaries.
CROSSING_BLOCK_ENTRIES = 1 << 15


def _unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise GeometryError("direction must be nonzero")
    return u / nrm


def _frame(u: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning u^perp followed by u itself."""
    n = len(u)
    if n == 2:
        return np.array([[-u[1], u[0]], u])
    base = np.eye(3)[np.argmin(np.abs(u))]
    w1 = base - (base @ u) * u
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(u, w1)
    return np.vstack([w1, w2, u])


def chord_profiles(K: VPolytope, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar chord data along u: breakpoints s and heights (g(s), f(s)).

    s runs over the coordinate orthogonal to u; f and g are the upper and
    lower chord endpoint heights, evaluated at every breakpoint.
    """
    if K.dim != 2:
        raise GeometryError("chord profiles are planar")
    u = _unit(u)
    B = _frame(u)
    R = reduced_form(K)
    coords = R.vertices @ B.T
    s_vals, t_vals = coords[:, 0], coords[:, 1]
    scale = max(1.0, float(np.max(np.abs(coords))))
    snap = SNAP_TOL * scale
    breaks = np.unique(np.round(s_vals / snap) * snap)
    sa, sb = s_vals, np.roll(s_vals, -1)
    ta, tb = t_vals, np.roll(t_vals, -1)
    f = np.empty(len(breaks))
    g = np.empty(len(breaks))
    step = max(1, CHORD_BLOCK_ENTRIES // len(s_vals))
    for i in range(0, len(breaks), step):
        # heights at each breakpoint s (rows): the vertices within snap of
        # s, and the edges a -> a + 1 of the cycle whose open s-range holds s
        S = breaks[i:i + step, None]
        at = np.abs(s_vals - S) <= snap
        crossing = ((sa < S) & (S < sb)) | ((sb < S) & (S < sa))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ta + (S - sa) / (sb - sa) * (tb - ta)
        f[i:i + step] = np.maximum(np.where(at, t_vals, -np.inf).max(axis=1),
                                   np.where(crossing, t, -np.inf).max(axis=1))
        g[i:i + step] = np.minimum(np.where(at, t_vals, np.inf).min(axis=1),
                                   np.where(crossing, t, np.inf).min(axis=1))
    return breaks, g, f


def _steiner_2d(K: VPolytope, u: np.ndarray) -> VPolytope:
    B = _frame(u)
    breaks, g, f = chord_profiles(K, u)
    half = np.maximum(f - g, 0.0) / 2.0
    top = np.column_stack([breaks, half])
    bot = np.column_stack([breaks, -half])
    pts = np.vstack([top, bot]) @ B
    return hull(pts)


def _steiner_3d(K: VPolytope, u: np.ndarray) -> VPolytope:
    R = reduced_form(K)
    if R.affine_dim < 3:
        raise GeometryError("Steiner symmetrization needs a full-dimensional body")
    B = _frame(u)
    fac = facets(R)
    dots = fac.normals @ u
    upper = dots > PARALLEL_TOL
    lower = dots < -PARALLEL_TOL
    if not (np.any(upper) and np.any(lower)):
        raise GeometryError("degenerate facet structure along the direction")

    verts2 = R.vertices @ B[:2].T

    _, _, qh = facet_planes(R)
    edges = _hull_edges(qh.simplices)
    # classify edges by whether they bound upper or lower facets
    up_edges = _facet_edges(R.vertices, fac.normals[upper], fac.offsets[upper], edges)
    low_edges = _facet_edges(R.vertices, fac.normals[lower], fac.offsets[lower], edges)

    candidates = [verts2]
    if len(up_edges) and len(low_edges):
        seg_u = verts2[edges[up_edges]]
        seg_l = verts2[edges[low_edges]]
        crossings = _segment_crossings(seg_u, seg_l)
        if len(crossings):
            candidates.append(crossings)
    pts2 = np.vstack(candidates)

    n_up, o_up = fac.normals[upper], fac.offsets[upper]
    n_lo, o_lo = fac.normals[lower], fac.offsets[lower]
    # plane height t(x) solves <n, x1 w1 + x2 w2 + t u> = offset
    W = B[:2]

    def heights(normals, offsets, X):
        denom = normals @ u
        base = X @ (normals @ W.T).T
        return (offsets[None, :] - base) / denom[None, :]

    f_vals = np.min(heights(n_up, o_up, pts2), axis=1)
    g_vals = np.max(heights(n_lo, o_lo, pts2), axis=1)
    scale = max(1.0, float(np.max(np.abs(R.vertices))))
    keep = f_vals - g_vals >= -1e-9 * scale
    pts2, f_vals, g_vals = pts2[keep], f_vals[keep], g_vals[keep]
    half = np.maximum(f_vals - g_vals, 0.0) / 2.0
    upper_pts = np.column_stack([pts2, half])
    lower_pts = np.column_stack([pts2, -half])
    return hull(np.vstack([upper_pts, lower_pts]) @ B)


def _hull_edges(simplices: np.ndarray) -> np.ndarray:
    """The edges (a, b), a < b, of a hull's triangles, each once, in
    lexicographic order."""
    pairs = simplices[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
    return np.unique(np.sort(pairs, axis=1), axis=0)


def _facet_edges(vertices: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                 edges: np.ndarray) -> np.ndarray:
    """Indices of the ``edges`` (vertex row pairs) whose two ends lie on one
    common plane <x, normal> = offset."""
    vals = vertices @ normals.T - offsets[None, :]
    on = np.abs(vals) < 1e-9 * max(1.0, float(np.max(np.abs(vertices))))
    return np.flatnonzero((on[edges[:, 0]] & on[edges[:, 1]]).any(axis=1))


def _segment_crossings(segs_a: np.ndarray, segs_b: np.ndarray) -> np.ndarray:
    """Pairwise intersections of two planar segment families in row-major
    (a, b) order, vectorized over blocks of rows of ``segs_a``."""
    q1 = segs_b[None, :, 0, :]
    d2 = (segs_b[:, 1, :] - segs_b[:, 0, :])[None, :, :]
    step = max(1, CROSSING_BLOCK_ENTRIES // len(segs_b))
    out = []
    for i in range(0, len(segs_a), step):
        block = segs_a[i:i + step]
        p1 = block[:, None, 0, :]
        d1 = (block[:, 1, :] - block[:, 0, :])[:, None, :]
        denom = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        ok = np.abs(denom) > 1e-14
        denom_safe = np.where(ok, denom, 1.0)
        r = q1 - p1
        t = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / denom_safe
        s = (r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]) / denom_safe
        hit = ok & (t >= -1e-12) & (t <= 1 + 1e-12) & (s >= -1e-12) & (s <= 1 + 1e-12)
        out.append((p1 + t[..., None] * d1)[hit])
    return np.vstack(out)


def steiner_symmetrize(K: VPolytope, u) -> VPolytope:
    """Steiner symmetral of K along u; volume is preserved exactly."""
    u = _unit(u)
    if K.dim == 2:
        return _steiner_2d(K, u)
    if K.dim == 3:
        return _steiner_3d(K, u)
    raise GeometryError("Steiner symmetrization supports dimension 2 or 3")


def rearrange_body(K: VPolytope, facets_count: int | None = None) -> VPolytope:
    """Equal-volume centered ball polytope (symmetric decreasing rearrangement).

    The regular approximation is scaled radially so its volume matches K
    exactly; defaults are a 64-gon and a 320-facet sphere.
    """
    vol = volume(K)
    if vol <= 0:
        raise GeometryError("rearrangement needs a full-dimensional body")
    return rearrange_body_volume(vol, K.dim, facets_count)


# ---------------------------------------------------------------------------
# shadow systems


@dataclass(frozen=True)
class ShadowSystem:
    """Linear parameter family conv{x_i + t a_i u} of convex bodies."""

    base_points: np.ndarray
    speeds: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        sp = np.asarray(self.speeds, dtype=float)
        d = _unit(self.direction)
        if len(sp) != len(pts):
            raise GeometryError("one speed per base point required")
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "speeds", sp)
        object.__setattr__(self, "direction", d)


def shadow_at(system: ShadowSystem, t: float) -> VPolytope:
    pts = system.base_points + float(t) * np.outer(system.speeds, system.direction)
    return hull(pts)


def chord_shadow_system(K: VPolytope, u) -> ShadowSystem:
    """Planar shadow system interpolating K (t=0), its Steiner symmetral
    (t=1/2), and its reflection (t=1) along u.

    Base points are both chord endpoints over every breakpoint, with common
    speed -(f+g) so upper endpoints travel to reflected lower ones.
    """
    u = _unit(u)
    B = _frame(u)
    breaks, g, f = chord_profiles(K, u)
    top = np.column_stack([breaks, f]) @ B
    bot = np.column_stack([breaks, g]) @ B
    speeds = -(f + g)
    return ShadowSystem(
        np.vstack([top, bot]), np.concatenate([speeds, speeds]), u
    )


def steiner_step_expectation(trial_fn, densities: list, u, trials: int, seed: int):
    """Monte Carlo pair: E[trial_fn] under the densities versus under the
    densities with every carried body Steiner-symmetrized along u.

    trial_fn(densities, rng_stream) -> float.  Only indicator (uniform)
    densities can be symmetrized; independent substreams feed each side.
    Returns (original_estimate, symmetrized_estimate) as EstimateWithCI.
    """
    u = _unit(u)
    symmetrized = []
    for d in densities:
        if d.kind != "uniform":
            raise GeometryError("Steiner step comparison needs indicator densities")
        symmetrized.append(Density.uniform(steiner_symmetrize(d.body, u)))
    base = RngStream(seed)
    vals_orig = np.array(
        [trial_fn(densities, base.child(0, i)) for i in range(trials)]
    )
    vals_sym = np.array(
        [trial_fn(symmetrized, base.child(1, i)) for i in range(trials)]
    )
    return summarize(vals_orig), summarize(vals_sym)

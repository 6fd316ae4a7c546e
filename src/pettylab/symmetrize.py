"""Steiner symmetrization, rearrangement to a ball, and shadow systems.

Symmetrization along a direction replaces every chord parallel to it by a
centered chord of equal length.  For vertex polytopes the construction is
exact: chord endpoints are piecewise linear in the orthogonal coordinates,
and all breakpoints come from vertices.  In space they come also from the
crossings of projected upper and lower edges: the ``triangulation_edges``
between two merged facets, next to a facet that faces along u (upper) or
against it (lower).  A diagonal inside a merged facet creases neither
chord end, so it takes no part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import (
    GeometryError,
    VPolytope,
    ball_body,
    cross3,
    hull,
    perp,
    reduced_form,
    volume,
)
from .mixed import facets, mixed_volume, triangulation_edges
from .sampling import Density, RngStream
from .stats import summarize

PARALLEL_TOL = 1e-10
SNAP_TOL = 1e-12
# Breakpoint x vertex entries per block in ``chord_profiles``: a polygon's
# vertex count roughly doubles with each symmetrization, and ten rounds
# from a triangle would otherwise take arrays of tens of MB.
CHORD_BLOCK_ENTRIES = 1 << 15
# Pairs per block in ``_segment_crossings`` (upper x lower edges) and in
# ``_plane_heights`` (candidate points x facet planes): in the fourth round
# of a 3-D chain from 12 points, some 1200 upper edges meet 1300 lower ones,
# and with both steps in one block the round peaked at 124 MiB of
# temporaries (tracemalloc); in these blocks it peaks at about 3 MiB.
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
        return np.stack([perp(u), u])
    base = np.eye(3)[np.argmin(np.abs(u))]
    w1 = base - (base @ u) * u
    w1 /= np.linalg.norm(w1)
    w2 = cross3(u, w1)
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
    sa, sb = s_vals, np.concatenate((s_vals[1:], s_vals[:1]))
    ta, tb = t_vals, np.concatenate((t_vals[1:], t_vals[:1]))
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
    # the chord ends crease only over the true edges next to an upper
    # (lower) facet: not over a diagonal inside a merged facet
    p, q, _, _, a, b = triangulation_edges(R)
    true = a != b
    segs = verts2[np.sort(np.column_stack([p, q])[true], axis=1)]
    sides = np.column_stack([a, b])[true]
    crossings = _segment_crossings(segs[upper[sides].any(axis=1)], segs[lower[sides].any(axis=1)])
    pts2 = np.vstack([verts2, crossings])
    f_vals = _plane_heights(pts2, fac.normals[upper], fac.offsets[upper], B, np.min)
    g_vals = _plane_heights(pts2, fac.normals[lower], fac.offsets[lower], B, np.max)
    # every candidate lies in the projection of K, where f >= g but for rounding
    half = np.maximum(f_vals - g_vals, 0.0) / 2.0
    return hull(np.vstack([np.column_stack([pts2, half]), np.column_stack([pts2, -half])]) @ B)


def _plane_heights(X: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                   B: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` over the planes <n, x> = offset of the height t at which
    each plane meets the line x1 w1 + x2 w2 + t u, for each row (x1, x2) of
    ``X``, with (w1, w2, u) the rows of the frame ``B``.  Blocks of rows
    take elementwise products only, so a row's value does not depend on
    its block."""
    A = normals @ B[:2].T
    denom = normals @ B[2]
    out = np.empty(len(X))
    step = max(1, CROSSING_BLOCK_ENTRIES // len(normals))
    for i in range(0, len(X), step):
        block = X[i:i + step, None, :]
        base = block[..., 0] * A[:, 0] + block[..., 1] * A[:, 1]
        out[i:i + step] = reduce((offsets - base) / denom, axis=1)
    return out


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


def rearrange_body(K: VPolytope) -> VPolytope:
    """Equal-volume centered ball polytope (symmetric decreasing rearrangement).

    The unit ball's polytope ``ball_body(dim, 1.0, None)`` (a 64-gon or a
    320-facet sphere, shared with ball literals) is scaled radially so its
    volume matches K exactly.
    """
    vol = volume(K)
    if vol <= 0:
        raise GeometryError("rearrangement needs a full-dimensional body")
    approx = ball_body(K.dim, 1.0, None)
    scale = (vol / volume(approx)) ** (1.0 / K.dim)
    return VPolytope(approx.vertices * scale, reduced=True)


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


def shadow_convexity_probe(systems: list, t: float) -> float:
    """Mixed volume of n shadow systems evaluated at a common parameter."""
    return mixed_volume([shadow_at(s, t) for s in systems])


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

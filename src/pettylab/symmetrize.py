"""Steiner symmetrization, rearrangement to a ball, and shadow systems.

Symmetrization along a direction u replaces every chord parallel to u by a
centered chord of equal length.  For vertex polytopes one exact path serves
the plane and space.  Over a foot x in u^perp, the upper chord end f(x) is
the lowest height at which a facet plane facing along u (upper) meets the
line x + t u, and the lower end g(x) the highest for a plane facing against
u (lower).  Both crease only over the projected vertices and, in space,
over the crossings of projected upper and lower edges: the
``triangulation_edges`` between two merged facets, next to an upper or a
lower facet.  A diagonal inside a merged facet creases neither chord end,
so it takes no part.  Over a vertex's own foot, f >= t >= g is clamped in
for the vertex's height t: along a direction almost parallel to an edge,
that edge's plane meets the line at a quotient by almost zero and loses
bits.  The symmetral is the hull of (x, +-(f - g)/2) over the feet.
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

PARALLEL_TOL = 1e-10
SNAP_TOL = 1e-12
# Pairs per block in ``_segment_crossings`` (upper x lower edges) and in
# ``_plane_heights`` (feet x facet planes): in the fourth round of a 3-D
# chain from 12 points, some 1200 upper edges meet 1300 lower ones, and
# with both steps in one block the round peaked at 124 MiB of temporaries
# (tracemalloc); in these blocks it peaks at about 3 MiB.  In the plane, a
# polygon's vertex count roughly doubles with each round.
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


def _chord_ends(K: VPolytope, u: np.ndarray, snap: bool = False) -> tuple:
    """(B, feet, g, f): the frame B of the unit vector u, the feet of K's
    chords along u in the coordinates of B's first n - 1 rows, and the lower
    and upper chord ends over each foot.  The feet are the projected
    vertices, with ``snap`` merged within SNAP_TOL of K's scale into sorted
    planar breakpoints, and in space also the crossings of projected upper
    and lower edges."""
    R = reduced_form(K)
    if R.affine_dim < R.dim:
        raise GeometryError("Steiner symmetrization needs a full-dimensional body")
    B = _frame(u)
    fac = facets(R)
    dots = fac.normals @ u
    upper = dots > PARALLEL_TOL
    lower = dots < -PARALLEL_TOL
    if not (np.any(upper) and np.any(lower)):
        raise GeometryError("degenerate facet structure along the direction")
    coords = R.vertices @ B.T
    feet, own = coords[:, :-1], np.arange(len(coords))
    if snap:
        step = SNAP_TOL * max(1.0, float(np.max(np.abs(coords))))
        breaks, own = np.unique(np.round(feet[:, 0] / step) * step, return_inverse=True)
        feet = breaks[:, None]
    elif R.dim == 3:
        # the chord ends crease only over the true edges next to an upper
        # (lower) facet: not over a diagonal inside a merged facet
        p, q, _, _, a, b = triangulation_edges(R)
        true = a != b
        segs = feet[np.sort(np.column_stack([p, q])[true], axis=1)]
        sides = np.column_stack([a, b])[true]
        feet = np.vstack([feet, _segment_crossings(segs[upper[sides].any(axis=1)],
                                                   segs[lower[sides].any(axis=1)])])
    f = _plane_heights(feet, fac.normals[upper], fac.offsets[upper], B, np.min)
    g = _plane_heights(feet, fac.normals[lower], fac.offsets[lower], B, np.max)
    np.maximum.at(f, own, coords[:, -1])
    np.minimum.at(g, own, coords[:, -1])
    return B, feet, g, f


def chord_profiles(K: VPolytope, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar chord data along u: breakpoints s and heights (g(s), f(s)).

    s runs over the coordinate orthogonal to u, one breakpoint per vertex
    (those within SNAP_TOL of K's scale share one); f and g are the upper
    and lower chord endpoint heights there, read off the facet planes as in
    ``steiner_symmetrize``.
    """
    if K.dim != 2:
        raise GeometryError("chord profiles are planar")
    _, breaks, g, f = _chord_ends(K, _unit(u), snap=True)
    return breaks[:, 0], g, f


def _plane_heights(X: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                   B: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` over the planes <n, x> = offset of the height t at which
    each plane meets the line x_1 w_1 + ... + x_{n-1} w_{n-1} + t u, for each
    row (x_1, ..., x_{n-1}) of ``X``, with (w_1, ..., w_{n-1}, u) the rows of
    the frame ``B``.  The terms x_j <n, w_j> add in the order of j, and
    blocks of rows take elementwise products only, so a row's value does not
    depend on its block."""
    A = normals @ B[:-1].T
    denom = normals @ B[-1]
    out = np.empty(len(X))
    step = max(1, CROSSING_BLOCK_ENTRIES // len(normals))
    for i in range(0, len(X), step):
        block = X[i:i + step, None, :]
        terms = [block[..., j] * A[:, j] for j in range(A.shape[1])]
        base = sum(terms[1:], terms[0])
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
    if K.dim not in (2, 3):
        raise GeometryError("Steiner symmetrization supports dimension 2 or 3")
    B, feet, g, f = _chord_ends(K, u)
    # every foot lies in the projection of K, where f >= g but for rounding
    half = np.maximum(f - g, 0.0)[:, None] / 2.0
    return hull(np.vstack([np.hstack([feet, half]), np.hstack([feet, -half])]) @ B)


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

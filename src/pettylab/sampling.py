"""Seeded sampling: densities, their rearrangements, and random streams.

Randomness flows through counter-based Philox streams addressed by a master
seed plus a stream key, so any trial can be regenerated in isolation and
parallel schedules cannot change the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .bodies import GeometryError, VPolytope, ball_body, reduced_form, unit_ball_volume, volume


@dataclass(frozen=True)
class RngStream:
    """Substream of a master seed; equal (seed, key) gives equal draws."""

    seed: int
    key: tuple = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(self.key))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *key) -> "RngStream":
        return RngStream(self.seed, tuple(self.key) + tuple(key))


class Density:
    """Sampling density for matrix columns.

    kind 'uniform' draws from a polytope via volume-weighted simplex picks,
    'ball' draws from the centered Euclidean ball (the exact rearrangement
    of a uniform density), 'gaussian' from an isotropic normal.
    """

    def __init__(self, kind: str, dim: int, body: VPolytope | None = None,
                 radius: float = 1.0, sigma: float = 1.0):
        self.kind = kind
        self.dim = dim
        self.body = body
        self.radius = radius
        self.sigma = sigma
        self._tri = None
        self._tri_cdf = None

    def __getstate__(self):
        return (self.kind, self.dim, self.body, self.radius, self.sigma)

    def __setstate__(self, state):
        self.kind, self.dim, self.body, self.radius, self.sigma = state
        self._tri = None
        self._tri_cdf = None

    @staticmethod
    def uniform(body: VPolytope) -> "Density":
        R = reduced_form(body)
        if R.affine_dim < R.dim:
            raise GeometryError("uniform density needs a full-dimensional body")
        return Density("uniform", R.dim, body=R)

    @staticmethod
    def ball(dim: int, radius: float) -> "Density":
        return Density("ball", dim, radius=radius)

    @staticmethod
    def gaussian(dim: int, sigma: float = 1.0) -> "Density":
        return Density("gaussian", dim, sigma=sigma)

    def rearranged(self) -> "Density":
        """Symmetric decreasing rearrangement: uniform goes to the equal-volume
        centered ball, radial densities are already rearranged."""
        if self.kind == "uniform":
            r = (volume(self.body) / unit_ball_volume(self.dim)) ** (1.0 / self.dim)
            return Density.ball(self.dim, r)
        return self

    def comparison_body(self, facets: int | None = None) -> VPolytope:
        """Polytope carrier for exact downstream ops (ball kinds use the
        equal-volume rearrangement polytope)."""
        if self.kind == "uniform":
            return self.body
        if self.kind == "ball":
            vol = unit_ball_volume(self.dim) * self.radius ** self.dim
            return rearrange_body_volume(vol, self.dim, facets)
        raise GeometryError("gaussian density has no body carrier")

    def _triangulation(self):
        if self._tri is None:
            tri = Delaunay(self.body.vertices)
            pts = tri.points[tri.simplices]
            vols = np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) / math.factorial(self.dim)
            self._tri = tri
            self._tri_cdf = cumulative_weights(vols / vols.sum())
        return self._tri, self._tri_cdf

    def sample(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """Draw count points, shape (count, dim)."""
        n = self.dim
        if self.kind == "gaussian":
            return self.sigma * gen.standard_normal((count, n))
        if self.kind == "ball":
            dirs = gen.standard_normal((count, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = self.radius * gen.random(count) ** (1.0 / n)
            return dirs * radii[:, None]
        tri, cdf = self._triangulation()
        idx = cdf.searchsorted(gen.random(count), side="right")
        bary = gen.dirichlet(np.ones(n + 1), size=count)
        corners = tri.points[tri.simplices[idx]]
        return np.einsum("kj,kjd->kd", bary, corners)


def cumulative_weights(weights: np.ndarray) -> np.ndarray:
    """The normalized running sum of ``weights``.  Searching it with
    ``searchsorted(gen.random(count), side="right")`` draws the indices that
    ``gen.choice(len(weights), size=count, p=weights)`` draws, from the same
    stream state, without re-checking the weights on every call."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def rearrange_body_volume(vol: float, dim: int, facets: int | None = None) -> VPolytope:
    approx = ball_body(dim, 1.0, facets)
    scale = (vol / volume(approx)) ** (1.0 / dim)
    return VPolytope(approx.vertices * scale, reduced=True)

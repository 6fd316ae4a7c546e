"""Seeded sampling: densities, their rearrangements, and random streams.

Randomness flows through counter-based Philox streams addressed by a master
seed plus a stream key, so any trial can be regenerated in isolation and
parallel schedules cannot change the numbers.

A stream's Philox key is numpy's SeedSequence hash of (seed, key): plain
uint32 arithmetic over a pool of four words, whose hash constants step by
fixed multipliers whatever the words are.  A child's entropy is its
parent's followed by one index word, so the children of one stream share
the parent's pool, which numpy exposes as ``SeedSequence.pool``, and every
hash constant up to it.  ``RngStream.child_keys`` reads that pool once and
then hashes the index words of a whole block as one uint32 array.
``draw_block`` draws the samples of a block of children through one Philox,
setting each child's key in turn, and finishes them for the whole block at
once; ``draw_per_trial``, each child's own generator followed by
``Density.sample``, is the reference it equals bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.spatial import Delaunay

from .bodies import GeometryError, VPolytope, reduced_form, unit_ball_volume, volume


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

    def child_keys(self, first: int, count: int) -> np.ndarray:
        """The Philox keys of child(first), ..., child(first + count - 1),
        shape (count, 2) uint64: what their generators' SeedSequence gives
        from ``generate_state(2, np.uint64)``, for all of them at once."""
        if not 0 <= first <= first + count <= INDEX_LIMIT:
            raise ValueError(f"child indices must lie in [0, 2**32), got {first} "
                             f"to {first + count - 1}")
        # each pool word meets the index word with its own pair of hash
        # constants, then the pool word's mix term, then generate_state's
        # pair; the four output words pair up little-endian into two uint64
        xor, mul, pool, out_xor, out_mul = np.array(_child_hash(self.seed, tuple(self.key)),
                                                    dtype=np.uint32).T
        v = np.arange(first, first + count, dtype=np.uint32)[:, None] ^ xor
        v *= mul
        v ^= v >> 16
        v *= np.uint32(_MIX_MULT_R)
        v = pool - v
        v ^= v >> 16
        v ^= out_xor
        v *= out_mul
        v ^= v >> 16
        return v.astype("<u4", copy=False).view("<u8")


# numpy's SeedSequence hash constants (numpy.random.bit_generator).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# A child index is one uint32 word of the spawn key only below this.
INDEX_LIMIT = 1 << 32
# The constants ``generate_state`` hashes the pool's words with, in turn.
_OUT_CONSTS = tuple(_INIT_B * _MULT_B ** d & _MASK32 for d in range(_POOL_SIZE + 1))


def _word_count(n) -> int:
    """How many uint32 words SeedSequence reads from the integer n."""
    return max(1, -(-int(n).bit_length() // 32))


@lru_cache(maxsize=64)
def _child_hash(seed: int, key: tuple) -> tuple:
    """What the children of RngStream(seed, key) share, one row per pool
    word: the hash constant the index word meets there and the one after it,
    the pool word's mix term, and the two constants ``generate_state`` hashes
    that pool word's output with.

    The pool is SeedSequence(seed, spawn_key=key)'s; a child mixes its
    index word into it.  Filling and cross-mixing the pool steps the hash
    constant 16 times, for the first four entropy words (the seed padded
    with zeros to four), and each later word steps it four times, so after
    w words it stands at _INIT_A _MULT_A^(4 w), w = max(seed words, 4) +
    key words."""
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.tolist()
    words = max(_word_count(seed), _POOL_SIZE) + sum(map(_word_count, key))
    const = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32)
    a, b = [const * _MULT_A ** d & _MASK32 for d in range(_POOL_SIZE + 1)], _OUT_CONSTS
    return tuple((a[d], a[d + 1], _MIX_MULT_L * pool[d] & _MASK32, b[d], b[d + 1])
                 for d in range(_POOL_SIZE))


@dataclass(frozen=True, eq=False)
class Density:
    """Sampling density for matrix columns.

    kind 'uniform' draws from a polytope via volume-weighted simplex picks,
    'ball' draws from the centered Euclidean ball (the exact rearrangement
    of a uniform density), 'gaussian' from an isotropic normal.  A uniform
    density's triangulation lives on its body (``VPolytope.derived``).
    """

    kind: str
    dim: int
    body: VPolytope | None = None
    radius: float = 1.0
    sigma: float = 1.0

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
        centered ball, kept on the body; radial densities are already rearranged."""
        if self.kind == "uniform":
            return self.body.derived("rearranged", lambda: Density.ball(
                self.dim, (volume(self.body) / unit_ball_volume(self.dim)) ** (1.0 / self.dim)))
        return self

    def _triangulation(self) -> tuple:
        """(the body's Delaunay simplices, as rows of its vertex list, and their volume CDF)."""
        return self.body.derived("triangulation", _triangulate, self.body.vertices)

    def _corners(self, idx: np.ndarray) -> np.ndarray:
        """The corners of the simplices ``idx`` of the triangulation, shape
        (len(idx), dim + 1, dim): ``vertices[simplices[idx]]`` from the body's
        vertices, by two ``take`` calls, which gather rows about six times
        as fast as fancy indexing.  No corner table is kept: a triangulation
        can hold about 1e5 vertices."""
        simplices = self._triangulation()[0]
        return self.body.vertices.take(simplices.take(idx, axis=0), axis=0)

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
        idx = self._triangulation()[1].searchsorted(gen.random(count), side="right")
        bary = gen.dirichlet(np.ones(n + 1), size=count)
        return np.einsum("kj,kjd->kd", bary, self._corners(idx))

    def _raw_draws(self, count: int) -> tuple:
        """The draws ``sample`` takes from its generator for ``count``
        points, in stream order: (Generator method, shape) pairs.
        ``dirichlet(ones)`` draws standard exponentials and normalizes them."""
        n = self.dim
        if self.kind == "gaussian":
            return (("standard_normal", (count, n)),)
        if self.kind == "ball":
            return (("standard_normal", (count, n)), ("random", (count,)))
        return (("random", (count,)), ("standard_exponential", (count, n + 1)))

    def _finish(self, raw: list) -> np.ndarray:
        """The points ``sample`` makes from its raw draws, shape (N, dim), for
        any number of draws stacked along a leading axis, in the order
        ``_raw_draws`` lists them."""
        n = self.dim
        if self.kind == "gaussian":
            return self.sigma * raw[0].reshape(-1, n)
        if self.kind == "ball":
            dirs = raw[0].reshape(-1, n)
            dirs /= np.sqrt(np.add.reduce(dirs * dirs, axis=1, keepdims=True))
            radii = self.radius * raw[1].reshape(-1) ** (1.0 / n)
            return dirs * radii[:, None]
        idx = self._triangulation()[1].searchsorted(raw[0].reshape(-1), side="right")
        E = raw[1].reshape(-1, n + 1)
        # as Generator.dirichlet: a sequential sum, then one reciprocal
        acc = E[:, 0].copy()
        for j in range(1, n + 1):
            acc += E[:, j]
        bary = E * (1.0 / acc)[:, None]
        return np.einsum("kj,kjd->kd", bary, self._corners(idx))


def _triangulate(vertices: np.ndarray) -> tuple:
    simplices = Delaunay(vertices).simplices
    pts = vertices[simplices]
    vols = np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) / math.factorial(vertices.shape[1])
    return simplices, cumulative_weights(vols / vols.sum())


class _ZeroKey(ISeedSequence):
    """Seeds a Philox with key 0 without hashing; ``draw_block`` sets every
    child's key itself."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def draw_block(stream: RngStream, first: int, count: int, draws) -> list:
    """The samples of the children first, ..., first + count - 1 of
    ``stream``: one array of shape (count, m, dim) per (density, m) of
    ``draws``, bit for bit what ``draw_per_trial`` gives.  One Philox draws
    every child's raw draws in stream order, with the child's key, counter 0
    and an empty buffer; each density then finishes the block's draws at
    once."""
    bitgen = np.random.Philox(_ZeroKey())
    gen = np.random.Generator(bitgen)
    raw, fills = [], []
    for density, m in draws:
        raw.append([])
        for name, shape in density._raw_draws(m):
            raw[-1].append(np.empty((count,) + shape))
            fills.append((getattr(gen, name), raw[-1][-1]))
    key = [0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k, child in enumerate(stream.child_keys(first, count).tolist()):
        key[:] = child
        bitgen.state = state
        for fill, out in fills:
            fill(out=out[k])
    return [d._finish(outs).reshape(count, m, d.dim) for (d, m), outs in zip(draws, raw)]


def draw_per_trial(stream: RngStream, first: int, count: int, draws) -> list:
    """``draw_block`` one child at a time, each through its own generator and
    ``Density.sample``, draw after draw: the reference route."""
    out = [np.empty((count, m, d.dim)) for d, m in draws]
    for k in range(count):
        gen = stream.child(first + k).generator()
        for arr, (density, m) in zip(out, draws):
            arr[k] = density.sample(gen, m)
    return out


def cumulative_weights(weights: np.ndarray) -> np.ndarray:
    """The normalized running sum of ``weights``.  Searching it with
    ``searchsorted(gen.random(count), side="right")`` draws the indices that
    ``gen.choice(len(weights), size=count, p=weights)`` draws, from the same
    stream state, without re-checking the weights on every call."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf

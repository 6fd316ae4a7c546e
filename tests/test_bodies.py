import ast
import math
import pickle
import re
import tracemalloc
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from pettylab import (
    ConfigError,
    GeometryError,
    MSpec,
    VPolytope,
    Zonotope,
    ball_body,
    body_from_literal,
    cross_body,
    cube_body,
    hull,
    lp_ball_body,
    minkowski_sum,
    polar,
    polar_of_zonotope,
    reduced_form,
    regular_polygon,
    solid_simplex,
    support,
    translate,
    unit_ball_volume,
    vertex_set_distance,
    volume,
    zonotope_polar_measure,
    zonotope_to_vpolytope,
    zonotope_volume,
)
from pettylab import bodies, mixed, projections
from pettylab.bodies import (
    _abs_pairing,
    cross3,
    merge_parallel_generators,
    merged_generator_rows,
    planar_polar_measures,
    sphere_directions,
    spatial_polar_measures,
)
from pettylab.harness import CSet
from pettylab.mixed import (
    centroid,
    edge_table,
    facets,
    mixed_projection_generators,
    triangulation_edges,
    zonotope_projection_generators,
)
from pettylab.projections import (
    RadialMeasure,
    polar_measure_from_support,
    polar_measures,
    projection_body,
    tetrahedron_pair_normals,
    tetrahedron_projection_generators,
)
from pettylab.sampling import Density
from pettylab.verify import (
    brute_hull_vertices_3d,
    cloud_widths_elementwise,
    gift_wrap_2d,
    m_add,
    shoelace_area,
    simplex_volume_det,
    support_brute,
)


class TestHull:
    def test_matches_gift_wrapping_in_the_plane(self):
        gen = np.random.default_rng(41)
        for _ in range(60):
            pts = gen.normal(size=(int(gen.integers(4, 40)), 2))
            known = gift_wrap_2d(pts)
            observed = hull(pts).vertices
            assert vertex_set_distance(observed, known) <= 1e-9

    def test_matches_brute_facet_enumeration_in_space(self):
        gen = np.random.default_rng(42)
        for _ in range(25):
            pts = gen.normal(size=(int(gen.integers(5, 11)), 3))
            known = brute_hull_vertices_3d(pts)
            observed = reduced_form(hull(pts)).vertices
            assert vertex_set_distance(observed, known) <= 1e-9

    def test_one_pass_facet_enumeration_matches_a_triple_loop(self):
        def loop(pts, tol=1e-9):
            keep = np.zeros(len(pts), dtype=bool)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    for k in range(j + 1, len(pts)):
                        nrm = np.cross(pts[j] - pts[i], pts[k] - pts[i])
                        scale = np.linalg.norm(nrm)
                        if scale < tol:
                            continue
                        s = (pts - pts[i]) @ (nrm / scale)
                        if np.all(s <= tol) or np.all(s >= -tol):
                            keep |= np.abs(s) <= tol
            return pts[keep]

        gen = np.random.default_rng(44)
        for t in range(60):
            pts = gen.normal(size=(int(gen.integers(5, 12)), 3))
            if t % 3 == 1:
                pts[:4, 2] = pts[:, 2].max() + 1.0  # four coplanar points on a facet
            elif t % 3 == 2:
                pts[-1] = pts[1]  # a duplicate point
            assert np.array_equal(brute_hull_vertices_3d(pts), loop(pts))

    def test_planar_vertices_are_counterclockwise(self):
        gen = np.random.default_rng(43)
        for _ in range(20):
            v = hull(gen.normal(size=(12, 2))).vertices
            x, y = v[:, 0], v[:, 1]
            signed = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            assert signed > 0

    def test_duplicate_points_are_dropped(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert len(hull(pts).vertices) == 3

    def test_degenerate_input_is_legal(self):
        seg = hull(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]))
        assert seg.affine_dim == 1
        assert seg.is_degenerate()
        assert volume(seg) == 0.0
        flat = hull(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]]))
        assert flat.affine_dim == 2
        assert volume(flat) == 0.0

    # an integer past the largest float has no float to hold it
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10 ** 400, id="int-past-float")])
    def test_non_finite_coordinates_raise(self, value):
        for pts in ([[0.0, 0.0], [1.0, 0.0], [0.0, value], [1.0, 1.0]],
                    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, value]]):
            with pytest.raises(GeometryError, match="not finite"):
                hull(pts)
            with pytest.raises(GeometryError, match="not finite"):
                bodies.volume_of_points(pts)

    def test_every_point_taker_refuses_non_finite_points_by_one_check(self):
        pts = [[0, 0], [1, 0], [0, math.nan]]
        for take in (VPolytope, Zonotope, hull, bodies.volume_of_points):
            with pytest.raises(GeometryError, match="point coordinates are not finite"):
                take(pts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_huge_coordinates_raise_a_geometry_error(self, n):
        # about 1e150 and up, qhull's round-off estimate overflows and even
        # its joggled run fails on a full-rank cloud
        pts = 1e160 * np.vstack([np.eye(n), -np.ones((1, n)), np.full((1, n), 0.1)])
        with pytest.raises(GeometryError, match="joggled"):
            hull(pts[:n + 1])
        with pytest.raises(GeometryError, match="joggled"):
            hull(pts)
        with pytest.raises(GeometryError, match="joggled"):
            bodies.volume_of_points(pts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_huge_simplex_volume_raises_a_geometry_error(self, n):
        # the determinant of n + 1 points overflows where their hull fails
        pts = 1e160 * np.vstack([np.eye(n), -np.ones((1, n))])
        with pytest.raises(GeometryError, match="overflows"):
            bodies.volume_of_points(pts)
        with pytest.raises(GeometryError, match="joggled"):
            hull(pts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_an_empty_cloud_stays_legal(self, n):
        H = hull(np.zeros((0, n)))
        assert H.vertices.shape == (0, n) and H.affine_dim == 0

    def test_the_rank_holds_far_from_the_origin(self):
        # the centring rounds by about eps times the offset, which must not
        # read as a direction of the cloud
        gen = np.random.default_rng(45)
        for offset in (1.0, 1e2, 1e4, 1e5, 1e6):
            for _ in range(50):
                u, v = gen.normal(size=(2, 3))
                cases = [(gen.normal(size=(3, 3)), 2),
                         (gen.normal(size=(4, 1)) * u + gen.normal(size=(4, 1)) * v, 2),
                         (gen.normal(size=(3, 1)) * gen.normal(size=2), 1),
                         (gen.normal(size=(6, 3)), 3)]
                for P, rank in cases:
                    assert bodies.affine_dimension(P + offset) == rank, (offset, len(P))
                    assert hull(P + offset).affine_dim == rank, (offset, len(P))


def _fast_path_clouds(n: int):
    """(kind, cloud) pairs: random, integer-lattice with duplicates, exactly
    flat, repeated-point, and random clouds thinned along one direction to
    widths that straddle RANK_RATIO."""
    gen = np.random.default_rng(60 + n)
    for _ in range(40):
        k = int(gen.integers(1, 45))
        yield "random", gen.normal(size=(k, n))
        yield "lattice", gen.integers(-2, 3, size=(k, n)).astype(float)
        B = gen.normal(size=(int(gen.integers(1, n)), n))
        yield "flat", gen.normal(size=(k, len(B))) @ B + gen.normal(size=n)
        base = gen.normal(size=(max(1, k // 4), n))
        yield "repeated", base[gen.integers(0, len(base), size=k)]
        Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
        for width in (1e-9, 1e-7, 1e-6, 1e-5):
            P = gen.normal(size=(k + n, n))
            P[:, -1] *= width
            yield f"thin {width:g}", P @ Q


class TestHullFastPath:
    @pytest.mark.parametrize("n", [2, 3])
    def test_equals_the_hull_of_the_unique_rows(self, n):
        for _, P in _fast_path_clouds(n):
            U = np.unique(P, axis=0)
            order, new = bodies.sort_rows(P)
            assert np.array_equal(P[order[new]], U)
            H, ref = hull(P), hull(U)
            assert H.vertices.tobytes() == ref.vertices.tobytes()
            assert H.affine_dim == ref.affine_dim == bodies.affine_dimension(U)
            if H.affine_dim == n:  # the qhull run on the np.unique rows
                verts, _ = bodies._hull_full_dim(U)
                assert H.vertices.tobytes() == verts.tobytes()
            got, want = H._cache.get("qhull"), ref._cache.get("qhull")
            assert (got is None) == (want is None)
            if got is not None:
                assert got.volume == want.volume
                assert np.array_equal(got.equations, want.equations)
                assert np.array_equal(got.simplices, want.simplices)

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_certified_rank_is_the_svd_rank(self, n, monkeypatch):
        svd_rank = bodies.affine_dimension
        fallbacks = []
        monkeypatch.setattr(bodies, "affine_dimension", lambda P: fallbacks.append(1) or svd_rank(P))
        fired = {}
        for kind, P in _fast_path_clouds(n):
            fallbacks.clear()
            rank = bodies._affine_rank(P)
            assert rank == svd_rank(P)
            assert bodies.VPolytope(P).affine_dim == rank
            fired.setdefault(kind, []).append(not fallbacks)
        # the certificate settles most full clouds and no flat or thinner ones
        assert sum(fired["random"]) > 30 and sum(fired["thin 1e-05"]) > 30
        for kind in ("flat", "thin 1e-09", "thin 1e-07"):
            assert not any(fired[kind])


def _rank_stacks(n: int) -> list:
    """The clouds of ``_fast_path_clouds``, centered and stacked by shape, as
    (kinds, stack) pairs."""
    groups = {}
    for kind, P in _fast_path_clouds(n):
        kinds, clouds = groups.setdefault(P.shape, ([], []))
        kinds.append(kind)
        clouds.append(P - P.mean(axis=0))
    return [(kinds, np.stack(clouds)) for kinds, clouds in groups.values()]


class TestFullRank:
    @pytest.mark.parametrize("n", [2, 3])
    def test_the_mask_certifies_full_rank(self, n):
        fired = {}
        for kinds, V in _rank_stacks(n):
            mask = bodies.full_rank(V)
            for kind, C, full in zip(kinds, V, mask):
                if full:
                    assert bodies.affine_dimension(C) == n
                # a set's answer does not depend on the sets stacked with it
                assert bodies.full_rank(C[None])[0] == full
                if kind != "random" or len(C) > n:
                    fired.setdefault(kind, []).append(bool(full))
            # each set is scaled to entries of at most 1 before its test
            for factor in (2.0 ** 300, 2.0 ** -300):
                assert np.array_equal(bodies.full_rank(V * factor), mask)
        assert all(fired["random"]) and sum(fired["thin 1e-05"]) > 30
        for kind in ("flat", "thin 1e-09", "thin 1e-07"):
            assert not any(fired[kind])

    def test_a_zero_or_flat_generator_set_is_left_out(self):
        gen = np.random.default_rng(67)
        for n in (2, 3):
            G = gen.normal(size=(5, n + 1, n))
            G[1] = 0.0
            G[2, :, -1] = 0.0
            assert bodies.full_rank(G).tolist() == [True, False, False, True, True]


# The forms the coordinate-first kernels replaced, kept as their references:
# each kernel must give their bits.


def _gram_reference(V: np.ndarray) -> tuple:
    """(det M, trace M) of ``full_rank`` by the (T, k, n, n) outer-product
    reduce over the point axis."""
    T, _, n = V.shape
    scale = np.abs(V).reshape(T, -1).max(axis=1)
    V = V / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    M = (V[:, :, :, None] * V[:, :, None, :]).sum(axis=1)
    if n == 2:
        return M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0], M[:, 0, 0] + M[:, 1, 1]
    det = (M[:, 0, 0] * (M[:, 1, 1] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 1])
           - M[:, 0, 1] * (M[:, 1, 0] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 0])
           + M[:, 0, 2] * (M[:, 1, 0] * M[:, 2, 1] - M[:, 1, 1] * M[:, 2, 0]))
    return det, M[:, 0, 0] + M[:, 1, 1] + M[:, 2, 2]


def _full_rank_reference(V: np.ndarray) -> np.ndarray:
    det, trace = _gram_reference(V)
    return det > bodies.RANK_RATIO ** 2 * trace ** V.shape[-1]


def _edge_test_reference(P: np.ndarray) -> tuple:
    """``_planar_edge_test`` on the last-axis differences d = p_j - p_i."""
    T, k, _ = P.shape
    d = P[:, None, :, :] - P[:, :, None, :]
    orient = (d[:, :, :, None, 0] * d[:, :, None, :, 1]
              - d[:, :, :, None, 1] * d[:, :, None, :, 0])
    eye = np.eye(k, dtype=bool)
    other = ~(eye[:, :, None] | eye[:, None, :] | eye[None, :, :])
    diam_sq = np.square(d).sum(axis=-1).reshape(T, -1).max(axis=1)
    near = (np.abs(orient) <= bodies.COPLANAR_TOL * diam_sq[:, None, None, None]) & other
    edges = ((orient > 0.0) | ~other).all(axis=-1) & ~eye
    ok = _full_rank_reference(P - P.mean(axis=1, keepdims=True)) & ~near.reshape(T, -1).any(axis=1)
    crosses = P[:, :, None, 0] * P[:, None, :, 1] - P[:, :, None, 1] * P[:, None, :, 0]
    areas = 0.5 * np.where(edges, crosses, 0.0).reshape(T, -1).sum(axis=1)
    return d, edges, ok, areas, np.where(edges[..., None], d, 0.0).sum(axis=2)


def _margin_stack(n: int, gen) -> np.ndarray:
    """Row sets whose s_min / s_max sits at 0.5 to 20 times RANK_RATIO."""
    sets = []
    for factor in np.geomspace(0.5, 20.0, 40):
        U, _ = np.linalg.qr(gen.normal(size=(9, n)))
        Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
        s = np.ones(n)
        s[-1] = factor * bodies.RANK_RATIO
        sets.append((U * s) @ Q)
    return np.stack(sets)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestStackedKernelBits:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_rank_equals_the_outer_product_reduce(self, n):
        gen = np.random.default_rng(90 + n)
        stacks = [gen.normal(size=(T, k, n)) for T in (1, 3, 16) for k in (n, 4, 9, 64)]
        stacks.append(_margin_stack(n, gen))
        flat = gen.normal(size=(12, 6, n))
        flat[:, :, -1] = flat[:, :, :-1].sum(axis=-1)
        flat[0] = 0.0
        stacks.append(flat)
        for V in stacks:
            for W in (V, V * 2.0 ** 300, V * 2.0 ** -300):
                want = _gram_reference(W)
                got = bodies._gram_det_trace(W.transpose(1, 2, 0).copy())
                assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
                assert np.array_equal(bodies.full_rank(W), _full_rank_reference(W))
                centered = _full_rank_reference(W - W.mean(axis=1, keepdims=True))
                assert np.array_equal(bodies.full_dimensional(W), centered)
                # a set alone takes the bits it takes in the stack
                for t in (0, len(W) - 1):
                    alone = bodies._gram_det_trace(W[t, :, :, None].copy())
                    assert _bits(alone[0]) == _bits(got[0][t:t + 1])
        margin = bodies.full_rank(stacks[-2])
        assert margin.any() and not margin.all()
        assert not bodies.full_rank(flat).any()

    def test_the_edge_test_equals_the_last_axis_form(self):
        gen = np.random.default_rng(93)
        stacks = []
        for k in (3, 4, 5, 7):
            stacks.append(gen.normal(size=(23, k, 2)))
            line = gen.normal(size=(11, 1, 2)) * gen.normal(size=(11, k, 1)) + gen.normal(size=(11, 1, 2))
            stacks.append(line)  # collinear
            P = gen.normal(size=(11, k, 2))
            P[:, -1] = P[:, 0]  # a repeated point
            stacks.append(P)
            stacks.append(gen.integers(-1, 2, size=(17, k, 2)).astype(float))
        for P in stacks:
            d, edges, ok, areas, E = _edge_test_reference(P)
            dx, dy, got_edges, got_ok = bodies._planar_edge_test(P)
            # the stack on the last axis
            d = d.transpose(1, 2, 0, 3)
            assert _bits(dx) == _bits(d[..., 0]) and _bits(dy) == _bits(d[..., 1])
            assert np.array_equal(got_edges, edges.transpose(1, 2, 0))
            assert np.array_equal(got_ok, ok)
            got_areas, areas_ok = bodies.planar_hull_areas(P)
            got_E, edges_ok = bodies.planar_hull_edges(P)
            assert _bits(got_areas) == _bits(areas) and _bits(got_E) == _bits(E)
            assert np.array_equal(areas_ok, ok) and np.array_equal(edges_ok, ok)
        # the collinear and repeated-point clouds are masked out, and a
        # cloud alone takes the bits it takes in its stack
        assert not bodies._planar_edge_test(stacks[1])[3].any()
        assert not bodies._planar_edge_test(stacks[2])[3].any()
        P = stacks[0]
        for t in (0, 7, len(P) - 1):
            alone = bodies._planar_edge_test(P[t:t + 1].copy())
            for got, whole in zip(alone, bodies._planar_edge_test(P)):
                assert _bits(got) == _bits(whole[..., t:t + 1])
            assert _bits(bodies.planar_hull_areas(P[t:t + 1])[0]) == _bits(
                bodies.planar_hull_areas(P)[0][t:t + 1])

    def test_the_walks_dot_and_cross_products_equal_the_reduce_and_np_cross(self):
        gen = np.random.default_rng(94)
        # the walk's shapes: (3, T, pairs), (3, T, circles, 1), (3, T,
        # circles, k - 1) and facets on a second leading axis against one
        # set of arcs
        shapes = [((3, 5, 36), (3, 5, 36)), ((3, 4, 9, 1), (3, 4, 9, 1)),
                  ((3, 56, 9, 8), (3, 56, 9, 8)), ((3, 1, 3, 2), (3, 1, 3, 2)),
                  ((3, 1, 4, 10, 9), (3, 2, 4, 10, 9))]
        for sa, sb in shapes:
            a, b = gen.normal(size=sa), gen.normal(size=sb)
            assert _bits(bodies._vdot(a, b)) == _bits((a * b).sum(axis=0))
            if sa == sb:
                assert _bits(bodies._vcross(a, b)) == _bits(np.cross(a, b, axis=0))


def test_a_generator_that_is_not_finite_is_refused_or_left_out():
    with pytest.raises(GeometryError, match="point coordinates are not finite"):
        Zonotope([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]])
    gen = np.random.default_rng(95)
    for n, fan in ((2, planar_polar_measures), (3, spatial_polar_measures)):
        G = gen.normal(size=(4, n + 2, n))
        bad = G.copy()
        bad[1, -1, -1], bad[2, 0, 0] = np.nan, -np.inf
        for nu in (None, RadialMeasure.gaussian(), RadialMeasure.ball(0.5)):
            for read in (fan, lambda G, nu: polar_measures(G, nu or RadialMeasure.gaussian(), 64)):
                want, _ = read(G, nu)
                got, held = read(bad, nu)
                assert held.tolist() == [True, False, False, True]
                assert np.isnan(got[1:3]).all()
                assert _bits(got[[0, 3]]) == _bits(want[[0, 3]])


KERNELS = {
    "full_rank": lambda: bodies.full_rank(np.zeros((0, 4, 3))),
    "planar_hull_areas": lambda: bodies.planar_hull_areas(np.zeros((0, 4, 2))),
    "planar_hull_edges": lambda: bodies.planar_hull_edges(np.zeros((0, 4, 2))),
    "mixed_projection_generators":
        lambda: mixed_projection_generators(np.zeros((0, 3, 3)), np.zeros((0, 2, 3))),
    "tetrahedron_pair_normals":
        lambda: tetrahedron_pair_normals(np.zeros((0, 4, 3)), np.zeros((0, 4, 3))),
    "spatial_polar_measures": lambda: spatial_polar_measures(np.zeros((0, 5, 3))),
    "planar_polar_measures": lambda: planar_polar_measures(np.zeros((0, 5, 2))),
    "polar_measures": lambda: polar_measures(np.zeros((0, 5, 3)), RadialMeasure.gaussian(), 64),
    "cloud_widths": lambda: bodies.cloud_widths(np.zeros((0, 5, 2)), np.zeros((3, 2))),
    "zonotope_projection_generators": lambda: zonotope_projection_generators(np.zeros((0, 4, 3))),
    "tetrahedron_projection_generators":
        lambda: tetrahedron_projection_generators(np.zeros((0, 4, 3))),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_stacked_kernel_takes_an_empty_stack(kernel):
    out = KERNELS[kernel]()
    for part in out if isinstance(out, tuple) else (out,):
        assert len(part) == 0


class TestCloudWidths:
    # N = 1 takes numpy's matrix-vector path; an odd k starts every other
    # cloud of a stack off a 32-byte boundary
    @pytest.mark.parametrize("N", [1, 3, 64])
    @pytest.mark.parametrize("k", [3, 4, 64])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-cloud"])
    def test_a_row_does_not_depend_on_its_stack(self, k, N, shared):
        gen = np.random.default_rng(68)
        T = 23
        P = gen.normal(size=(T, k, 2))
        W = gen.normal(size=(N, 2) if shared else (T, N, 2))

        def rows(a, b):
            return bodies.cloud_widths(P[a:b], W if shared else W[a:b])

        whole = rows(0, T)
        assert whole.shape == (T, N)
        for cuts in ([0, 1, 2, 9, 10, 22, 23], list(range(T + 1))):
            parts = np.concatenate([rows(a, b) for a, b in zip(cuts[:-1], cuts[1:])])
            assert parts.tobytes() == whole.tobytes()
        ones = [bodies.cloud_widths(P[t].copy()[None], W if shared else W[t].copy()[None])
                for t in range(T)]
        assert np.concatenate(ones).tobytes() == whole.tobytes()
        # a width cancels, so the elementwise oracle is met in absolute terms
        want = cloud_widths_elementwise(P, W)
        bound = 8.0 * np.finfo(float).eps * np.abs(P).max() * np.abs(W).max()
        assert np.max(np.abs(whole - want)) <= bound


def test_cross3_gives_the_bits_of_np_cross():
    gen = np.random.default_rng(66)
    a, b = gen.normal(size=(5, 1, 3)), gen.normal(size=(1, 7, 3))
    assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()
    assert cross3(a[0, 0], b[0, 0]).tobytes() == np.cross(a[0, 0], b[0, 0]).tobytes()


class TestSupport:
    def test_matches_brute_maximum_over_input_points(self):
        gen = np.random.default_rng(44)
        for n in (2, 3):
            for _ in range(30):
                pts = gen.normal(size=(10, n))
                u = gen.normal(size=n)
                assert support(hull(pts), u) == pytest.approx(
                    support_brute(pts, u), abs=1e-12
                )

    def test_additive_under_minkowski_sum(self):
        gen = np.random.default_rng(45)
        for n in (2, 3):
            for _ in range(20):
                A = hull(gen.normal(size=(8, n)))
                B = hull(gen.normal(size=(8, n)))
                u = gen.normal(size=n)
                known = support(A, u) + support(B, u)
                assert support(minkowski_sum(A, B), u) == pytest.approx(known, abs=1e-9)

    def test_zonotope_support_is_sum_of_absolute_projections(self):
        Z = Zonotope(np.array([[1.0, 0.0], [1.0, 2.0]]))
        u = np.array([3.0, 4.0])
        assert support(Z, u) == pytest.approx(abs(3.0) + abs(3.0 + 8.0))

    def test_translation_shifts_support(self):
        K = cube_body(2)
        t = np.array([0.5, -1.0])
        u = np.array([1.0, 1.0])
        assert support(translate(K, t), u) == pytest.approx(support(K, u) + t @ u)


class TestVolume:
    def test_known_boxes(self):
        assert volume(cube_body(2)) == pytest.approx(4.0)
        assert volume(cube_body(3)) == pytest.approx(8.0)
        assert volume(cube_body(2, 0.5)) == pytest.approx(1.0)

    def test_simplices_match_determinant_formula(self):
        gen = np.random.default_rng(46)
        for n in (2, 3):
            for _ in range(25):
                pts = gen.normal(size=(n + 1, n))
                assert volume(hull(pts)) == pytest.approx(
                    simplex_volume_det(pts), abs=1e-12
                )

    def test_polygon_matches_shoelace(self):
        gen = np.random.default_rng(47)
        for _ in range(20):
            K = hull(gen.normal(size=(9, 2)))
            assert volume(K) == pytest.approx(shoelace_area(K.vertices), abs=1e-12)


class TestZonotope:
    def test_volume_matches_hull_of_sign_combinations(self):
        gen = np.random.default_rng(48)
        for n in (2, 3):
            for m in range(n, 9):
                Z = Zonotope(gen.normal(size=(m, n)))
                known = volume(zonotope_to_vpolytope(Z))
                assert zonotope_volume(Z) == pytest.approx(known, rel=1e-9)

    def test_vertex_form_has_no_generator_cap(self):
        Z = Zonotope(np.random.default_rng(47).normal(size=(24, 3)))
        assert volume(zonotope_to_vpolytope(Z)) == pytest.approx(zonotope_volume(Z), rel=1e-12)

    def test_single_generator_volume_is_zero(self):
        assert zonotope_volume(Zonotope(np.array([[3.0, 4.0]]))) == 0.0

    def test_cube_is_a_zonotope(self):
        Z = Zonotope(np.eye(3))
        assert zonotope_volume(Z) == pytest.approx(8.0)
        assert vertex_set_distance(zonotope_to_vpolytope(Z), cube_body(3)) == 0.0

    def test_parallel_generators_merge(self):
        Z = Zonotope(np.array([[1.0, 0.0], [-2.0, 0.0], [0.0, 1.0]]))
        W = Zonotope(np.array([[3.0, 0.0], [0.0, 1.0]]))
        assert zonotope_volume(Z) == pytest.approx(zonotope_volume(W))
        assert vertex_set_distance(
            zonotope_to_vpolytope(Z), zonotope_to_vpolytope(W)
        ) <= 1e-9

    def test_support_over_many_directions_matches_the_generator_sum(self):
        # more directions than one block of |<u, g>| values holds, and a
        # last block that is only partly filled
        gen = np.random.default_rng(50)
        Z = Zonotope(gen.normal(size=(64, 3)))
        U = gen.normal(size=(2000, 3))
        known = [np.abs(Z.generators @ u).sum() for u in U]
        assert np.allclose(Z.support_batch(U), known, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("count, directions", [(0, 50), (1, 50), (4, 50), (64, 50),
                                                    (3, 25000)],
                             ids=["none", "one", "four", "sixty-four", "several-blocks"])
    def test_abs_pairing_matches_an_explicit_weighted_sum(self, count, directions):
        gen = np.random.default_rng(51 + count)
        V = gen.normal(size=(count, 3))
        U = gen.normal(size=(directions, 3))
        known = np.zeros(directions)
        for j in range(count):
            known += np.abs(U @ V[j])
        got = _abs_pairing(U, V)
        assert got.shape == (directions,)
        np.testing.assert_allclose(got, known, rtol=1e-13, atol=0.0)

    def test_planar_conversion_walks_the_exact_polygon(self):
        gen = np.random.default_rng(49)
        for m in (2, 5, 30):
            Z = Zonotope(gen.normal(size=(m, 2)))
            P = zonotope_to_vpolytope(Z)
            U = gen.normal(size=(40, 2))
            for u in U:
                assert support(P, u) == pytest.approx(support(Z, u), rel=1e-10)


class TestPolar:
    def test_cube_and_cross_polytope_are_dual(self):
        assert vertex_set_distance(polar(cube_body(2)), cross_body(2)) == 0.0
        assert vertex_set_distance(polar(cube_body(3)), cross_body(3)) == 0.0

    def test_involution_on_random_centered_bodies(self):
        gen = np.random.default_rng(50)
        for n in (2, 3):
            for _ in range(25):
                K = reduced_form(hull(gen.normal(size=(n + 4, n))))
                K = hull(K.vertices - K.vertices.mean(axis=0))
                assert vertex_set_distance(polar(polar(K)), K) <= 1e-8

    def test_scaling_inverts(self):
        K = cube_body(2, 2.0)
        assert vertex_set_distance(polar(K), cross_body(2, 0.5)) <= 1e-12

    def test_requires_interior_origin(self):
        K = hull(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(GeometryError):
            polar(K)

    def test_zonotope_polar_agrees_with_generic_route(self):
        gen = np.random.default_rng(51)
        for n in (2, 3):
            for m in (n, n + 2, n + 4):
                Z = Zonotope(gen.normal(size=(m, n)))
                known = polar(zonotope_to_vpolytope(Z))
                assert vertex_set_distance(polar_of_zonotope(Z), known) <= 1e-9

    def test_the_polar_of_a_scaled_zonotope_is_scaled_back(self):
        # candidate normals are dropped relative to the longest one, so a
        # small zonotope keeps its facets: (s Z)° = Z° / s
        G = np.random.default_rng(56).normal(size=(4, 3))
        want = polar_of_zonotope(Zonotope(G))
        for s in (1e-9, 1e-6, 1e5):
            got = polar_of_zonotope(Zonotope(G * s))
            assert vertex_set_distance(got.vertices * s, want) <= 1e-12 * np.abs(want.vertices).max()

    def test_degenerate_zonotope_polar_is_rejected(self):
        with pytest.raises(GeometryError):
            polar_of_zonotope(Zonotope(np.array([[1.0, 2.0], [2.0, 4.0]])))


def merge_loop(Z: Zonotope, tol: float = 1e-12) -> np.ndarray:
    """Reference for ``merge_parallel_generators``: orient and merge one
    generator at a time."""
    gens = Z.generators
    norms = np.linalg.norm(gens, axis=1)
    keep = norms > tol * norms.max(initial=0.0)
    gens, norms = gens[keep], norms[keep]
    if len(gens) == 0:
        return np.zeros((0, Z.dim))
    units = gens / norms[:, None]
    for i, u in enumerate(units):
        j = np.argmax(np.abs(u) > tol)
        if u[j] < 0:
            units[i] = -u
    order = np.lexsort(units.T[::-1])
    merged = []
    current = units[order[0]] * norms[order[0]]
    current_u = units[order[0]]
    for idx in order[1:]:
        if np.linalg.norm(units[idx] - current_u) < 1e-9:
            current = current + units[idx] * norms[idx]
        else:
            merged.append(current)
            current = units[idx] * norms[idx]
            current_u = units[idx]
    merged.append(current)
    return np.array(merged)


class TestMergeParallelGenerators:
    def test_equals_the_loop_reference_bit_for_bit(self):
        gen = np.random.default_rng(52)
        for n in (2, 3):
            for k in range(60):
                G = gen.normal(size=(int(gen.integers(1, 20)), n))
                if k % 3 == 1:  # antiparallel and parallel copies
                    G = np.vstack([G, -2.0 * G[: len(G) // 2], 1.5 * G[:3]])
                elif k % 3 == 2:  # a zero leading coordinate, near copies
                    G[:, 0] = 0.0
                    G = np.vstack([G, -G[:2], G[:2] + 1e-11])
                got = merge_parallel_generators(Zonotope(G)).generators
                want = merge_loop(Zonotope(G))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_exact_antipodal_copies_merge_bit_for_bit(self):
        # each line held as +-g, as a zonotope's mixed area measure holds it,
        # with zeros of either sign: every sorted gap is 0 or wide
        gen = np.random.default_rng(53)
        for n in (2, 3):
            for _ in range(40):
                G = gen.normal(size=(int(gen.integers(1, 12)), n))
                G[gen.random(G.shape) < 0.2] = 0.0
                G = np.vstack([G, -G, G[: len(G) // 2]])
                G = G[gen.permutation(len(G))]
                got = merge_parallel_generators(Zonotope(G)).generators
                want = merge_loop(Zonotope(G))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_a_stack_merges_each_row_bit_for_bit(self):
        # every row against the loop reference, alone and in its stack: rows
        # that only sort, a dropped or zero generator (at 1e-150 one whose
        # norm underflows), a tie in the first coordinate, parallel or near
        # copies, and a gap within 1e-10 of MERGE_GAP on either side; and
        # stacks where every row or no row drops a generator
        gen = np.random.default_rng(54)
        for n in (2, 3):
            for k in (0, 1, 2, 5, 64):
                S = gen.normal(size=(14, k, n))
                S[1] = 0.0
                if k > 2:
                    S[2, 1] = -2.0 * S[2, 0]
                    S[3, 1] = S[3, 0] + 1e-11
                    S[4, 0] = 0.0
                    S[5, 2] = S[5, 0] + 5e-10
                    S[6, 1, 0] = S[6, 0, 0]
                    S[7, 0] *= 1e-13
                    S[8, :, 0] = 0.0
                    S[9] *= 1e-150
                    S[9, 0] = 1e-13 * S[9, 1]
                    for t, side in ((10, 1.0), (11, -1.0)):
                        u = S[t, 0] / np.linalg.norm(S[t, 0])
                        v = np.linalg.svd(u[None])[2][-1]
                        S[t, 1] = 2.5 * (u + bodies.MERGE_GAP * (1.0 + side * 5e-11) * v)
                drops = S.copy()
                drops[:, -1:] *= 1e-13
                for stack in (S, drops, gen.normal(size=(6, k, n))):
                    rows = merged_generator_rows(stack)
                    assert len(rows) == len(stack)
                    for t in range(len(stack)):
                        want = merge_loop(Zonotope(stack[t]))
                        assert rows[t].shape == want.shape and rows[t].tobytes() == want.tobytes()
                        alone, = merged_generator_rows(stack[t:t + 1])
                        assert alone.tobytes() == want.tobytes()

    def test_merging_does_not_depend_on_scale(self):
        # the drop below MERGE_TOL is relative to the longest generator, so
        # a scaled zonotope keeps its generators, scaled, down to 1e-150
        gen = np.random.default_rng(55)
        G = gen.normal(size=(6, 3))
        G[5] = 1e-13 * G[0]  # dropped at every scale
        want = merge_parallel_generators(Zonotope(G)).generators
        assert len(want) == 5
        for s in (1e-150, 1e-12, 1e-7, 1e6, 1e150):
            got = merge_parallel_generators(Zonotope(G * s)).generators
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want * s, rtol=1e-13, atol=0.0)

    def test_orientation_skips_coordinates_below_tol(self):
        Z = Zonotope(np.array([[1e-13, -1.0, 2.0], [0.0, 2.0, -4.0]]))
        got = merge_parallel_generators(Z).generators
        assert got.shape == (1, 3)
        assert got[0, 1] > 0.0
        assert got[0] == pytest.approx([0.0, 3.0, -6.0], abs=1e-12)


class TestZonotopePolarVolume:
    @pytest.mark.parametrize("gens, known", [
        (np.eye(2), 2.0),
        (np.eye(3), 4.0 / 3.0),
        (np.diag([2.0, 0.5, 3.0]), 4.0 / (3.0 * 2.0 * 0.5 * 3.0)),
        # unit generators at 0, 60 and 120 degrees: a regular hexagon of
        # inradius sqrt(3), whose polar is one of circumradius 1 / sqrt(3)
        ([[math.cos(a), math.sin(a)] for a in (0.0, math.pi / 3, 2 * math.pi / 3)],
         math.sqrt(3.0) / 2.0),
    ], ids=["square", "cube", "box", "hexagon"])
    def test_known_values(self, gens, known):
        assert zonotope_polar_measure(Zonotope(np.array(gens))) == pytest.approx(known, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_the_polar_hull_on_random_projection_bodies(self, n):
        worst = 0.0
        for seed in range(200):
            gen = np.random.default_rng(seed)
            Z = projection_body(hull(gen.normal(size=(int(gen.integers(n + 1, 16)), n))))
            want = volume(polar_of_zonotope(Z))
            worst = max(worst, abs(zonotope_polar_measure(Z) - want) / want)
        assert worst <= 1e-12

    def test_coplanar_and_near_parallel_generators_agree_with_the_polar_hull(self):
        gen = np.random.default_rng(53)
        coplanar = gen.normal(size=(6, 3))
        coplanar[2] = 0.6 * coplanar[0] - 1.3 * coplanar[1]
        coplanar[4] = 2.0 * coplanar[0] + 0.5 * coplanar[1]
        near = gen.normal(size=(6, 3))
        near[1] = 2.0 * near[0] + 1e-10 * gen.normal(size=3)
        apart = gen.normal(size=(6, 3))
        apart[1] = apart[0] + 1e-7 * gen.normal(size=3)
        for G in (coplanar, near, apart):
            Z = Zonotope(G)
            want = volume(polar_of_zonotope(Z))
            assert zonotope_polar_measure(Z) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gens", [
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 0.0]],
    ], ids=["parallel-2d", "one-2d", "coplanar-3d", "two-3d", "zero-3d"])
    def test_a_flat_zonotope_raises(self, gens):
        for nu in (LEBESGUE, GAUSSIAN, BALL):
            with pytest.raises(GeometryError, match="full-dimensional"):
                zonotope_polar_measure(Zonotope(np.array(gens)), nu)

    def test_rejects_dimension_four(self):
        with pytest.raises(GeometryError, match="dimension 2 or 3"):
            zonotope_polar_measure(Zonotope(np.eye(4)))

    def test_many_generators_agree_with_the_polar_hull(self):
        Z = Zonotope(np.random.default_rng(54).normal(size=(90, 3)))
        want = volume(polar_of_zonotope(Z))
        assert zonotope_polar_measure(Z) == pytest.approx(want, rel=1e-12)

    def test_the_ball_runs_in_memory_of_order_m_squared(self):
        # ball_body(3) has about 320 facet generators: an m x (2m - 2) x m
        # array of generator signs would take 0.5 GB, and the unblocked
        # circles some 60 MB
        Z = projection_body(ball_body(3))
        m = len(Z.generators)
        assert m > 300 and m * (2 * m - 2) > 10 * bodies.POLAR_BLOCK_ARCS  # many blocks
        tracemalloc.start()
        try:
            got = zonotope_polar_measure(Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert got * volume(ball_body(3)) ** 2 == pytest.approx(64.0 / 27.0, rel=2e-2)


LEBESGUE, GAUSSIAN, BALL = None, RadialMeasure.gaussian(0.8), RadialMeasure.ball(1.5)


def _strip_in_disc(half_width: float, r: float) -> float:
    """Area of the strip |<x, n>| <= a cut by the disc of radius r > a."""
    a = half_width
    return 2.0 * (r * r * math.asin(a / r) + a * math.sqrt(r * r - a * a))


class TestPlanarPolarMeasures:
    def test_the_square_has_a_polar_of_area_two(self):
        # the polar of [-1, 1]^2 is the diamond |x| + |y| <= 1, of inradius
        # 1 / sqrt 2, inside the disc of radius 1
        square = Zonotope(np.eye(2))
        assert zonotope_polar_measure(square) == pytest.approx(2.0, rel=1e-15)
        assert zonotope_polar_measure(square, RadialMeasure.ball(1.0)) == pytest.approx(2.0,
                                                                                      rel=1e-15)
        small = RadialMeasure.ball(0.5)
        assert zonotope_polar_measure(square, small) == pytest.approx(math.pi / 4.0, rel=1e-15)

    @pytest.mark.parametrize("gens", [[[0.6, -1.3]], [[0.6, -1.3], [-1.5, 3.25], [0.42, -0.91]]],
                             ids=["one", "parallel"])
    def test_a_flat_zonotope_has_a_strip_for_its_polar(self, gens):
        # the stacked rule reads the strip; the one-body function refuses it
        Z = Zonotope(np.array(gens))
        G = merge_parallel_generators(Z).generators[None]
        length = float(np.linalg.norm(G))
        strip = math.erf(1.0 / (length * GAUSSIAN.sigma * math.sqrt(2.0)))
        assert planar_polar_measures(G, GAUSSIAN)[0][0] == pytest.approx(strip, rel=1e-12, abs=0.0)
        want = _strip_in_disc(1.0 / length, BALL.radius)
        assert planar_polar_measures(G, BALL)[0][0] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert planar_polar_measures(G)[0][0] == math.inf
        # the mask holds the zonotopes that are not flat, as the walk's does
        assert planar_polar_measures(G, GAUSSIAN)[1].tolist() == [False]
        with pytest.raises(GeometryError, match="full-dimensional"):
            zonotope_polar_measure(Z, GAUSSIAN)

    def test_no_generator_leaves_the_whole_plane(self):
        for nu, whole in ((LEBESGUE, math.inf), (GAUSSIAN, 1.0), (BALL, math.pi * 1.5 ** 2)):
            for G in (np.zeros((2, 0, 2)), np.zeros((2, 3, 2))):
                values, held = planar_polar_measures(G, nu)
                assert values.tolist() == [whole, whole] and not held.any()

    @pytest.mark.parametrize("nu", [LEBESGUE, GAUSSIAN, BALL], ids=["lebesgue", "gaussian", "ball"])
    def test_zero_and_parallel_generators_add_nothing(self, nu):
        gen = np.random.default_rng(61)
        G = gen.normal(size=(5, 2))
        # [-2g, 2g] + [-(-g), -g] = [-3g, 3g]
        padded = np.vstack([G[:2], np.zeros((2, 2)), 2.0 * G[2:3], -G[2:3], G[3:]])
        want = zonotope_polar_measure(Zonotope(np.vstack([G[:2], 3.0 * G[2:3], G[3:]])), nu)
        got = planar_polar_measures(padded[None], nu)[0][0]
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("nu", [LEBESGUE, GAUSSIAN, BALL], ids=["lebesgue", "gaussian", "ball"])
    def test_a_row_does_not_depend_on_the_rows_beside_it(self, nu):
        G = np.random.default_rng(62).normal(size=(9, 6, 2))
        G[3, 2:] = 0.0
        G[5, 1] = -G[5, 0]
        values, held = planar_polar_measures(G, nu)
        assert held.all()
        for t in range(len(G)):
            alone, alone_held = planar_polar_measures(G[t:t + 1], nu)
            assert alone.tobytes() == values[t:t + 1].tobytes() and alone_held[0] == held[t]

    def test_agrees_with_the_polar_hull_and_a_fine_grid(self):
        gen = np.random.default_rng(63)
        for _ in range(20):
            Z = projection_body(hull(gen.normal(size=(int(gen.integers(3, 12)), 2))))
            area = volume(polar_of_zonotope(Z))
            assert zonotope_polar_measure(Z) == pytest.approx(area, rel=1e-12)
            # a disc that holds the whole polar measures its area
            outer = RadialMeasure.ball(2.0 / Z.support_batch(bodies.sphere_directions(2, 256)).min())
            assert zonotope_polar_measure(Z, outer) == pytest.approx(area, rel=1e-12)


def _foot_family(lam: float) -> np.ndarray:
    """Generators of a zonotope whose polar has facets with their foot on an
    edge line at lam = 1, and within 2e-7 (relative R^2 - d^2) of one at
    lam = 1.4302."""
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [lam, 0.7 * lam, 0.4]])


def _de_dy(y: np.ndarray) -> np.ndarray:
    """d/dy of erf(sqrt y) / sqrt y."""
    u = np.sqrt(y)
    return np.exp(-y) / (math.sqrt(math.pi) * y) - scipy_erf(u) / (2.0 * y * u)


def _sign_and_order_sets() -> list:
    """Generator sets for the walk's symmetry tests: random ones, integer
    lattice ones (the cube, the cube with two diagonals, and e1, e2, e1 - e2,
    e3, whose circle of e1 holds the exactly antipodal points +-e3 / h), sets
    padded with zero generators (one with e1, e2, e3 and -e1 - e2 - e3, so
    that c can be 0 on the zero generator's circle), and mixed 3 x 3 sets
    a_i x b_j, whose triples are coplanar."""
    gen = np.random.default_rng(75)
    random = [gen.normal(size=(k, 3)) for k in (3, 4, 6, 9, 12)]
    lattice = [np.eye(3), np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 1]]),
               np.array([[1, 0, 0], [0, 1, 0], [1, -1, 0], [0, 0, 1]])]
    padded = [np.vstack([np.zeros((1, 3)), G[:2], np.zeros((2, 3)), G[2:]])
              for G in gen.normal(size=(2, 4, 3))]
    padded.append(np.vstack([np.eye(3), -np.ones((1, 3)), np.zeros((1, 3))]))
    coplanar = list(mixed_projection_generators(0.4 * gen.normal(size=(2, 3, 3)),
                                                0.4 * gen.normal(size=(2, 3, 3))))
    return [np.asarray(G, dtype=float) for G in random + lattice + padded + coplanar]


class TestSpatialPolarMeasures:
    def test_the_cube_has_the_octahedron_for_its_polar(self):
        # the polar of [-1, 1]^3 is |x| + |y| + |z| <= 1: volume 4/3,
        # inradius 1 / sqrt 3 and circumradius 1
        cube = Zonotope(np.eye(3))
        assert zonotope_polar_measure(cube) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert zonotope_polar_measure(cube, RadialMeasure.ball(1.0)) == pytest.approx(4.0 / 3.0,
                                                                                     rel=1e-14)
        inside = 4.0 * math.pi * 0.5 ** 3 / 3.0
        assert zonotope_polar_measure(cube, RadialMeasure.ball(0.5)) == pytest.approx(inside,
                                                                                     rel=1e-9)

    @pytest.mark.parametrize("nu", [GAUSSIAN, RadialMeasure.gaussian(0.3), BALL,
                                    RadialMeasure.ball(0.4)],
                             ids=["gaussian", "narrow-gaussian", "ball", "small-ball"])
    def test_agrees_with_the_polar_hull_and_a_fine_grid(self, nu):
        gen = np.random.default_rng(71)
        U = sphere_directions(3, 1 << 17)
        for _ in range(3):
            Z = projection_body(hull(gen.normal(size=(int(gen.integers(4, 9)), 3))))
            want = polar_measure_from_support(Z.support_batch(U), nu, 3)
            assert zonotope_polar_measure(Z, nu) == pytest.approx(want, rel=1e-4)
            G = Z.generators[None]
            assert spatial_polar_measures(G)[0][0] == pytest.approx(volume(polar_of_zonotope(Z)),
                                                                    rel=1e-12)

    @pytest.mark.parametrize("nu, k", [(LEBESGUE, 5), (GAUSSIAN, 5), (BALL, 5), (LEBESGUE, 100),
                                       (GAUSSIAN, 40), (BALL, 40)],
                             ids=["lebesgue", "gaussian", "ball", "lebesgue-blocks",
                                  "gaussian-blocks", "ball-blocks"])
    def test_a_row_does_not_depend_on_the_rows_beside_it(self, nu, k):
        G = np.random.default_rng(72).normal(size=(9, k, 3))
        G[3, 3:] = 0.0
        G[5, 1] = 2.0 * G[5, 0]
        values, ok = spatial_polar_measures(G, nu)
        assert ok.tolist() == [t != 5 for t in range(9)]
        for t in range(len(G)):
            alone, alone_ok = spatial_polar_measures(G[t:t + 1], nu)
            assert alone.tobytes() == values[t:t + 1].tobytes() and alone_ok[0] == ok[t]

    @pytest.mark.parametrize("nu", [LEBESGUE, GAUSSIAN, BALL], ids=["lebesgue", "gaussian", "ball"])
    def test_one_body_is_a_row_of_the_stack(self, nu):
        # in the plane and in space, parallel generators and all
        for n, rule in ((2, planar_polar_measures), (3, spatial_polar_measures)):
            for k in (3, 9, 40):
                G = np.random.default_rng(77 + k).normal(size=(k, n))
                Z = Zonotope(np.vstack([G, -2.5 * G[:1]]))
                merged = merge_parallel_generators(Z).generators
                assert len(merged) == k
                want = rule(merged[None], nu)[0][:1]
                assert np.array([zonotope_polar_measure(Z, nu)]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu, k", [(LEBESGUE, 100), (GAUSSIAN, 40), (BALL, 40)],
                             ids=["lebesgue", "gaussian", "ball"])
    def test_a_walk_of_several_blocks_agrees_with_one_block(self, nu, k, monkeypatch):
        # the circles of k generators span several blocks of POLAR_BLOCK_ARCS
        assert k * (k - 1) * max(1, bodies._rule_nodes(nu)) > bodies.POLAR_BLOCK_ARCS
        G = np.random.default_rng(78).normal(size=(3, k, 3))
        got, ok = spatial_polar_measures(G, nu)
        assert ok.all()
        if nu is LEBESGUE:
            want = [volume(polar_of_zonotope(Zonotope(g))) for g in G]
            assert got == pytest.approx(want, rel=1e-12)
            return
        # a finer rule on the circles of one block
        monkeypatch.setattr(bodies, "POLAR_BLOCK_ARCS", 1 << 30)
        fine = np.polynomial.legendre.leggauss(4 * bodies.POLAR_WALK_ORDER)
        want, ok = bodies._stacked_walk(G, nu, fine)
        assert ok.all() and got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("nu", [LEBESGUE, GAUSSIAN, BALL], ids=["lebesgue", "gaussian", "ball"])
    def test_zero_generators_add_nothing(self, nu):
        G = np.random.default_rng(73).normal(size=(5, 3))
        padded = np.vstack([G[:2], np.zeros((2, 3)), G[2:], np.zeros((1, 3))])
        want = spatial_polar_measures(G[None], nu)[0][0]
        got, ok = spatial_polar_measures(padded[None], nu)
        assert ok[0] and got[0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("nu", [LEBESGUE, GAUSSIAN, BALL], ids=["lebesgue", "gaussian", "ball"])
    def test_coplanar_triples_of_mixed_zonotopes(self, nu):
        # a_i x b_j over j lie in the plane a_i^perp, so their circles meet in
        # arcs of length zero whose ends differ by rounding alone: the edge
        # has no direction and its line may pass through the origin
        gen = np.random.default_rng(74)
        G = mixed_projection_generators(gen.normal(size=(64, 3, 3)), gen.normal(size=(64, 3, 3)))
        values, ok = spatial_polar_measures(G, nu)
        assert ok.all() and np.isfinite(values).all()
        for t in range(0, 64, 7):
            assert values[t] == pytest.approx(zonotope_polar_measure(Zonotope(G[t]), nu), rel=1e-12)

    @pytest.mark.parametrize("nu", [LEBESGUE, GAUSSIAN, BALL], ids=["lebesgue", "gaussian", "ball"])
    def test_signs_and_order_of_the_generators_do_not_matter(self, nu):
        # Z = sum [-g, g] sees neither a generator's sign nor the order of
        # the generators, while the walk keeps one point of each pair +-p per
        # circle by its side of the circle's first point: a flipped generator
        # moves its points to the other half
        gen = np.random.default_rng(76)
        for G in _sign_and_order_sets():
            k = len(G)
            flips = np.where(gen.random((8, k, 1)) < 0.5, -1.0, 1.0)
            flips[0] = -1.0
            perms = np.array([gen.permutation(k) for _ in range(8)])
            variants = np.concatenate([G * flips, G[perms], np.take_along_axis(
                G * flips, perms[..., None], axis=1)])
            want, ok = spatial_polar_measures(G[None], nu)
            got, got_ok = spatial_polar_measures(variants, nu)
            assert ok[0] and got_ok.all()
            assert np.abs(got - want[0]).max() <= 1e-12 * want[0]
            if nu is LEBESGUE:
                assert want[0] == pytest.approx(volume(polar_of_zonotope(Zonotope(G))), rel=1e-12)

    def test_the_scale_of_the_generators_does_not_matter(self):
        # (s Z)° = Z° / s: a Gaussian of scale sigma reads it as one of scale
        # s sigma reads Z°, and Lebesgue measure, on all of space or on the
        # ball of radius r, as s^3 times it reads Z° (on the ball of s r)
        G = np.random.default_rng(79).normal(size=(4, 7, 3))
        for s in (1e-20, 1e-8, 1e8, 3e15, 1e20):
            for nu, wide in ((LEBESGUE, LEBESGUE),
                             (GAUSSIAN, RadialMeasure.gaussian(s * GAUSSIAN.sigma)),
                             (BALL, RadialMeasure.ball(s * BALL.radius))):
                got, ok = spatial_polar_measures(s * G, nu)
                want = spatial_polar_measures(G, wide)[0] / (1.0 if nu is GAUSSIAN else s ** 3)
                assert ok.all() and got == pytest.approx(want, rel=1e-12), s

    @pytest.mark.parametrize("lam", [1.0, 1.4302])
    def test_a_foot_on_or_near_an_edge_line(self, lam):
        G = _foot_family(lam)
        hv = Zonotope(G).support_batch(sphere_directions(3, 1 << 17))
        for nu in (GAUSSIAN, RadialMeasure.gaussian(0.2), BALL, RadialMeasure.ball(0.4)):
            got = spatial_polar_measures(G[None], nu)[0][0]
            assert got == pytest.approx(polar_measure_from_support(hv, nu, 3), rel=1e-4)
            # the value moves smoothly with the generators
            moved = spatial_polar_measures(_foot_family(lam + 1e-9)[None], nu)[0][0]
            assert moved == pytest.approx(got, rel=1e-7)

    @pytest.mark.parametrize("u02", [1e-4, 0.3, 20.0])
    def test_the_gaussian_ratio_is_smooth_at_the_foot(self, u02):
        # (E(u0) - E(u)) / (u^2 - u0^2), E(u) = erf(u) / u, against the mean
        # of -dE/d(u^2) over [u0^2, u^2] by a 16-point rule: across the
        # switch to the Taylor form at FOOT_GAP (0.5 + u0^2) and at the foot
        # itself, where the divided difference is 0 / 0
        y0 = np.array([u02])
        switch = bodies.FOOT_GAP * (0.5 + u02)
        x, w = np.polynomial.legendre.leggauss(16)
        for gap in (0.0, 1e-14, 1e-10, 1e-7, 0.99 * switch, 1.01 * switch, 1e-3, 0.1):
            # one rule node on an edge through the foot
            uu = (y0 + gap)[None]
            u = np.sqrt(uu)
            got = bodies._gaussian_ratio(scipy_erf(u) / u, uu, y0, np.sqrt(y0), True)[0, 0]
            want = -0.5 * float(w @ _de_dy(u02 + 0.5 * gap * (1.0 + x)))
            assert got == pytest.approx(want, rel=1e-9)

    def test_flat_and_parallel_sets_are_not_read(self):
        coplanar = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]])
        parallel = np.array([[[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        for G in (coplanar, parallel, np.zeros((1, 4, 3)), np.eye(3)[None, :2]):
            assert spatial_polar_measures(G, GAUSSIAN)[1].tolist() == [False]
        assert spatial_polar_measures(np.eye(3)[None], GAUSSIAN)[1].tolist() == [True]
        # a chunk whose trials are all masked out walks an empty stack
        for nu in (LEBESGUE, GAUSSIAN, BALL):
            values, ok = spatial_polar_measures(np.zeros((0, 5, 3)), nu)
            assert values.shape == ok.shape == (0,)
        with pytest.raises(GeometryError, match="full-dimensional"):
            zonotope_polar_measure(Zonotope(coplanar[0]), GAUSSIAN)

    def test_the_stacked_walk_uses_no_matrix_product(self):
        # a matrix product blocks its sums by the size of the stack, so a
        # row's bits would depend on the rows beside it; the planar hull
        # kernels, the rank test and the spatial projection-body and
        # tetrahedron-pair kernels are held to the same rule
        modules = {
            bodies: {"spatial_polar_measures", "_stacked_walk", "_circle_index", "_walk_index",
                     "_circle_arcs", "_edge_lines", "_edge_integrals", "_gaussian_ratio", "_ball_h",
                     "_vdot", "_vcross", "cross3", "full_rank", "full_dimensional", "_spans",
                     "_gram_det_trace", "_det_trace", "_planar_edge_test", "_pair_crosses",
                     "planar_hull_areas", "planar_hull_edges"},
            mixed: {"edge_crossings", "_dot3", "zonotope_projection_generators",
                    "mixed_projection_generators"},
            projections: {"tetrahedron_projection_generators", "tetrahedron_pair_normals"},
        }
        products = {"matmul", "dot", "einsum", "tensordot", "inner"}
        for module, names in modules.items():
            tree = ast.parse(Path(module.__file__).read_text())
            found = {node.name: node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names}
            assert set(found) == names
            for name, node in found.items():
                for sub in ast.walk(node):
                    assert not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult)), name
                    if isinstance(sub, ast.Call):
                        called = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                        assert called not in products, name

    def test_setflags_has_five_owners_and_copies_are_built_by_constructors(self):
        # what a body keeps is made read-only by its memo, and a pickled body
        # is rebuilt by its constructor, so no class sets its own state
        owners = {("bodies", "VPolytope.__init__"), ("bodies", "Zonotope.__post_init__"),
                  ("bodies", "VPolytope.derived"), ("bodies", "_walk_index"),
                  ("projections", "node_set")}
        seen = set()
        for path in Path(bodies.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            calls = {sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)
                     and getattr(sub.func, "attr", None) == "setflags"}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                    assert not names & {"__getstate__", "__setstate__"}, node.name
            tops = [(f"{top.name}.{f.name}", f) for top in tree.body
                    if isinstance(top, ast.ClassDef) for f in top.body
                    if isinstance(f, ast.FunctionDef)]
            for name, node in tops + [(top.name, top) for top in tree.body
                                      if isinstance(top, ast.FunctionDef)]:
                if (path.stem, name) in owners:
                    held = calls & set(ast.walk(node))
                    assert held, name
                    calls -= held
                    seen.add((path.stem, name))
            assert not calls, path.stem
        assert seen == owners


class TestHullCache:
    def test_every_array_the_memo_keeps_is_read_only(self):
        K = hull(np.random.default_rng(58).normal(size=(30, 3)))
        facets(K)
        triangulation_edges(K)
        edge_table(K)
        Density.uniform(K).sample(np.random.default_rng(0), 4)
        kept = []
        for value in K._cache.values():
            parts = (value if isinstance(value, tuple) else
                     vars(value).values() if is_dataclass(value) else (value,))
            kept += [part for part in parts if isinstance(part, np.ndarray)]
        assert {"qhull", "facets", "triangulation_edges", "edges", "triangulation"} <= set(K._cache)
        assert len(kept) >= 15
        for a in kept:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_a_pickled_zonotope_is_rebuilt_by_its_constructor(self):
        Z = pickle.loads(pickle.dumps(Zonotope(np.eye(3))))
        assert not Z.generators.flags.writeable

    def test_a_constructor_leaves_the_callers_array_writeable(self):
        # the body freezes its own copy: a float64 2-d array passes
        # ``as_points`` uncopied
        a, g = np.zeros((3, 2)), np.eye(2)
        K, Z = VPolytope(a), Zonotope(g)
        a[0, 0], g[0, 0] = 5.0, 7.0
        assert K.vertices[0, 0] == 0.0 and Z.generators[0, 0] == 1.0
        assert not K.vertices.flags.writeable and not Z.generators.flags.writeable

    def test_one_qhull_serves_volume_facets_and_centroid(self, monkeypatch):
        runs = []
        real = bodies.ConvexHull

        def counted(*args, **kwargs):
            runs.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(bodies, "ConvexHull", counted)
        K = hull(np.random.default_rng(54).normal(size=(30, 3)))
        volume(K)
        facets(K)
        centroid(K)
        assert runs == [30]

    def test_simplices_index_the_vertex_rows(self):
        K = hull(np.random.default_rng(55).normal(size=(30, 3)))
        _, _, h = bodies.facet_planes(K)
        corners = K.vertices[h.simplices]
        assert np.abs(np.einsum("ikj,ij->ik", corners, h.equations[:, :3])
                      + h.equations[:, 3:]).max() <= 1e-12
        assert set(np.unique(h.simplices)) == set(range(len(K.vertices)))

    def test_a_pickled_copy_recomputes_equal_values(self):
        for n in (2, 3):
            K = hull(np.random.default_rng(56 + n).normal(size=(30, n)))
            copy = pickle.loads(pickle.dumps(K))
            assert copy._cache == {} and not copy.vertices.flags.writeable
            assert volume(copy) == pytest.approx(volume(K), rel=1e-13)
            assert centroid(copy) == pytest.approx(centroid(K), rel=1e-12)
            a, b = facets(K), facets(copy)
            order_a, order_b = (np.lexsort(f.normals.T) for f in (a, b))
            assert a.normals[order_a] == pytest.approx(b.normals[order_b], abs=1e-13)
            assert a.measures[order_a] == pytest.approx(b.measures[order_b], rel=1e-12)

    def test_a_falsy_derived_value_is_kept(self, monkeypatch):
        # a segment's volume 0.0 and a point's affine dimension 0 are each
        # built once
        calls = []

        def counting(name):
            real = getattr(bodies, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        for name in ("_affine_rank", "_volume"):
            monkeypatch.setattr(bodies, name, counting(name))
        for verts in ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 2.0]]):
            calls.clear()
            P = bodies.VPolytope(verts, reduced=True)
            assert [volume(P) for _ in range(3)] == [0.0] * 3
            assert [P.affine_dim for _ in range(3)] == [len(verts) - 1] * 3
            assert sorted(calls) == ["_affine_rank", "_volume"]

    def test_a_joggled_hull_caches_no_facets(self, monkeypatch):
        real = bodies.ConvexHull

        def refuse_plain(points, qhull_options=None):
            if qhull_options is None:
                raise bodies.QhullError("forced")
            return real(points, qhull_options=qhull_options)

        monkeypatch.setattr(bodies, "ConvexHull", refuse_plain)
        K = hull(np.random.default_rng(57).normal(size=(12, 3)))
        assert "qhull" not in K._cache


class TestMAddition:
    def test_p1_is_minkowski_sum(self):
        gen = np.random.default_rng(52)
        A = hull(gen.normal(size=(6, 2)))
        B = hull(gen.normal(size=(6, 2)))
        A = hull(np.vstack([A.vertices, -A.vertices]))
        B = hull(np.vstack([B.vertices, -B.vertices]))
        got = m_add(MSpec.lp(1.0), [A, B])
        known = minkowski_sum(A, B)
        assert vertex_set_distance(got, known) <= 1e-9
        assert vertex_set_distance(m_add(MSpec.minkowski(), [A, B]), known) == 0.0

    def test_p_infinity_is_convex_hull_of_the_union(self):
        A = cube_body(2, 1.0)
        B = cross_body(2, 1.5)
        got = m_add(MSpec.lp(math.inf), [A, B])
        known = hull(np.vstack([A.vertices, B.vertices]))
        assert vertex_set_distance(got, known) <= 1e-9

    def test_intermediate_p_is_sandwiched(self):
        A = cube_body(2, 1.0)
        B = cross_body(2, 1.0)
        inner = m_add(MSpec.lp(math.inf), [A, B])
        outer = m_add(MSpec.lp(1.0), [A, B])
        mid = m_add(MSpec.lp(2.0), [A, B])
        gen = np.random.default_rng(53)
        for u in gen.normal(size=(50, 2)):
            assert support(inner, u) <= support(mid, u) + 1e-9
            assert support(mid, u) <= support(outer, u) + 1e-9

    def test_lp_support_follows_the_dual_norm_rule(self):
        # h_M-sum(u) = || (h_A(u), h_B(u)) ||_p for origin-symmetric bodies
        A = cube_body(2, 1.0)
        B = cross_body(2, 1.0)
        p = 2.0
        got = m_add(MSpec.lp(p), [A, B])
        gen = np.random.default_rng(54)
        for u in gen.normal(size=(40, 2)):
            known = (support(A, u) ** p + support(B, u) ** p) ** (1.0 / p)
            assert support(got, u) == pytest.approx(known, rel=5e-3)

    def test_polytope_m_requires_unconditional(self):
        A = cube_body(2)
        B = cube_body(2)
        tilted = hull(np.array([[1.0, 0.2], [-1.0, 0.2], [0.3, -1.0], [-0.3, 1.0]]))
        with pytest.raises(GeometryError):
            m_add(MSpec.polytope(tilted), [A, B])


class TestFactoriesAndLiterals:
    def test_ball_polytope_volume_approaches_the_ball(self):
        # inscribed 64-gon: area = 32 sin(2 pi / 64)
        known = 32.0 * math.sin(2.0 * math.pi / 64.0)
        assert volume(ball_body(2)) == pytest.approx(known, abs=1e-12)
        assert volume(ball_body(3)) == pytest.approx(unit_ball_volume(3), rel=0.05)

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_segment_and_linear_image(self):
        s = VPolytope(np.vstack([[-1.0, -2.0], [1.0, 2.0]]))
        assert support(s, np.array([0.0, 1.0])) == pytest.approx(2.0)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        K = hull(cube_body(2).vertices @ R.T)
        assert volume(K) == pytest.approx(4.0)

    def test_linear_image_support_identity(self):
        # h_{X C}(u) = h_C(X u) for the sampled rows X, on the bodies the
        # harness builds
        gen = np.random.default_rng(55)
        cases = [({"kind": "simplex", "m": 8}, lambda C, v: v.max()),
                 ({"kind": "cube", "m": 8, "half": 0.5}, lambda C, v: C.half * np.abs(v).sum()),
                 ({"kind": "bp", "m": 8, "p": 1.0}, lambda C, v: np.abs(v).max()),
                 ({"kind": "bp", "m": 3, "p": 2.0}, lambda C, v: (C.vertices @ v).max()),
                 ({"kind": "bp", "m": 8, "p": math.inf}, lambda C, v: np.abs(v).sum())]
        for spec, h_C in cases:
            C = CSet.from_literal(spec)
            for n in (2, 3):
                X = gen.normal(size=(C.m, n))
                img = C.body(X)
                for u in gen.normal(size=(16, n)):
                    assert support(img, u) == pytest.approx(h_C(C, X @ u), abs=1e-9), (spec, n)

    def test_m_add_polytope_monotone_in_m(self):
        A = cube_body(2, 1.0)
        B = cross_body(2, 1.0)
        M_small = cube_body(2, 0.5)
        M_big = cube_body(2, 1.0)
        small = m_add(MSpec.polytope(M_small), [A, B])
        big = m_add(MSpec.polytope(M_big), [A, B])
        gen = np.random.default_rng(56)
        for u in gen.normal(size=(50, 2)):
            assert support(small, u) <= support(big, u) + 1e-9

    def test_lp_ball_endpoints(self):
        assert vertex_set_distance(lp_ball_body(2, 1.0), cross_body(2)) == 0.0
        assert vertex_set_distance(lp_ball_body(3, math.inf), cube_body(3)) == 0.0

    def test_literals_round_trip(self):
        sq = body_from_literal(
            {"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
        )
        assert volume(sq) == pytest.approx(4.0)
        assert volume(body_from_literal({"type": "cube", "dim": 3})) == pytest.approx(8.0)
        assert volume(body_from_literal({"type": "simplex", "dim": 2})) == pytest.approx(0.5)
        Z = body_from_literal({"type": "zonotope", "generators": [[1, 0], [0, 1]]})
        assert isinstance(Z, Zonotope)

    def test_bad_literals_raise(self):
        with pytest.raises(ConfigError):
            body_from_literal({"type": "frisbee"})
        with pytest.raises(ConfigError):
            body_from_literal({"vertices": [[0, 0]]})
        with pytest.raises(ConfigError):
            body_from_literal({"type": "polygon", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]})


def test_solid_simplex_contains_origin_on_boundary():
    T = solid_simplex(2)
    assert volume(T) == pytest.approx(0.5)
    with pytest.raises(GeometryError):
        polar(T)


def test_regular_polygon_vertex_count():
    assert len(regular_polygon(1.0, 7).vertices) == 7


_FLAT_SQUARE = hull(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))

# call -> the message of the GeometryError it raises, one per refusal site
REFUSALS = {
    "as_points-3-d-array": (lambda: bodies.as_points(np.zeros((2, 2, 2))),
                            "points must form a 2-d array"),
    "minkowski_sum-dimensions": (lambda: minkowski_sum(cube_body(2), cube_body(3)),
                                 "dimension mismatch in minkowski_sum"),
    "facet_planes-flat": (lambda: bodies.facet_planes(_FLAT_SQUARE),
                          "facet planes need a full-dimensional body"),
    "polar-flat": (lambda: polar(_FLAT_SQUARE), "polar needs a full-dimensional body"),
    # C(200, 3) = 1313400 determinants, past ZONOTOPE_DET_BUDGET
    "zonotope_volume-budget": (lambda: zonotope_volume(Zonotope(np.ones((200, 3)))),
                               "determinant expansion needs 1313400 terms"),
    "zonotope_to_vpolytope-4-d": (lambda: zonotope_to_vpolytope(Zonotope(np.eye(4))),
                                  "vertex conversion supports dimension 2 or 3"),
    "polar_of_zonotope-4-d": (lambda: polar_of_zonotope(Zonotope(np.eye(4))),
                              "polar supports dimension 2 or 3"),
    "MSpec.lp-below-one": (lambda: MSpec.lp(0.5), "lp addition needs p >= 1"),
    "coefficients-dimension": (lambda: MSpec.polytope(cube_body(3)).coefficients(2),
                               "polytope M must live in R^(number of bodies)"),
    "m_add-no-body": (lambda: m_add(MSpec.minkowski(), []), "m_add needs at least one body"),
    "m_add-dimensions": (lambda: m_add(MSpec.minkowski(), [cube_body(2), cube_body(3)]),
                         "m_add bodies must share a dimension"),
    "m_add-asymmetric": (lambda: m_add(MSpec.lp(2.0), [cube_body(2), solid_simplex(2)]),
                         "m_add with a nontrivial M needs origin-symmetric bodies"),
    "ball_body-4-d": (lambda: ball_body(4), "ball approximation needs dimension 2 or 3"),
    "lp_ball_body-below-one": (lambda: lp_ball_body(2, 0.5), "lp ball needs p >= 1"),
    "lp_ball_body-sampled-m-4": (lambda: lp_ball_body(4, 2.0),
                                 "lp ball sampling supports m = 2 or 3 only"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_raises_its_own_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(GeometryError, match=re.escape(message)):
        call()


def test_a_zonotope_maps_through_its_generators():
    # X Z is the zonotope of the mapped generators, whose vertices are the
    # mapped vertices of Z
    X = np.array([[2.0, 1.0], [0.5, -1.5]])
    Z = Zonotope(np.array([[1.0, 0.0], [0.3, 0.8], [-0.4, 0.5]]))
    got = zonotope_to_vpolytope(Zonotope(Z.generators @ X.T))
    assert vertex_set_distance(got, hull(zonotope_to_vpolytope(Z).vertices @ X.T)) <= 1e-12


def test_a_zonotope_of_zero_generators_is_the_origin():
    for gens in (np.zeros((0, 3)), np.zeros((2, 3))):
        assert zonotope_to_vpolytope(Zonotope(gens)).vertices.tolist() == [[0.0, 0.0, 0.0]]

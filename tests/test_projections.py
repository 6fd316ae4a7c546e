import math
import re

import numpy as np
import pytest
from scipy.special import erf

from pettylab import (
    Density,
    GeometryError,
    RadialMeasure,
    SupportEvaluator,
    VPolytope,
    Zonotope,
    ball_body,
    cauchy_surface_bound_defect,
    centroid_body_support,
    cube_body,
    hull,
    mixed_projection_support,
    petty_product,
    polar_projection_polytope,
    projection_body,
    solid_simplex,
    sphere_directions,
    support,
    vertex_set_distance,
    volume,
    zonotope_to_vpolytope,
)
from pettylab import bodies, mixed, projections
from pettylab.harness import CSet
from pettylab.mixed import mixed_area_measure, mixed_volume, surface_area
from pettylab.projections import polar_measure_from_support, tetrahedron_pair_normals
from pettylab.verify import (
    centroid_support_cubature,
    coincidence_test_pairs,
    grid_table_test_generators,
    mixed_projection_polarization,
    mixed_volume_inclusion_exclusion,
    point_in_polygon,
    points_in_polygon,
    polar_measure,
    shadow_oracle,
    tetrahedron_test_pairs,
)


class TestProjectionBody:
    def test_cube_shadows_give_a_scaled_cube(self):
        for n in (2, 3):
            Z = projection_body(cube_body(n))
            target = cube_body(n, 2.0 ** (n - 1))
            assert vertex_set_distance(zonotope_to_vpolytope(Z), target) == 0.0

    def test_support_equals_shadow_volume(self):
        gen = np.random.default_rng(80)
        for n in (2, 3):
            for _ in range(8):
                K = hull(gen.normal(size=(n + 5, n)))
                Z = projection_body(K)
                for _ in range(5):
                    u = gen.normal(size=n)
                    u /= np.linalg.norm(u)
                    assert support(Z, u) == pytest.approx(
                        shadow_oracle(K, u), abs=1e-10
                    )

    def test_zonotope_route_agrees_with_facet_route(self):
        gen = np.random.default_rng(81)
        for n in (2, 3):
            for m in (n, n + 2, n + 3):
                Z = Zonotope(gen.normal(size=(m, n)))
                direct = projection_body(Z)
                via_facets = projection_body(zonotope_to_vpolytope(Z))
                U = sphere_directions(n, 64)
                got = direct.support_batch(U)
                known = via_facets.support_batch(U)
                assert np.abs(got - known).max() <= 1e-9 * max(1.0, known.max())

    def test_degenerate_input_is_left_to_the_mixed_support(self):
        seg = hull(np.array([[0.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(GeometryError):
            projection_body(seg)
        Z = mixed_projection_support([seg])
        # shadow of a segment: |<rotated direction, u>|
        d = np.array([1.0, 2.0])
        r = np.array([-d[1], d[0]])
        gen = np.random.default_rng(82)
        for u in gen.normal(size=(10, 2)):
            assert support(Z, u) == pytest.approx(abs(r @ u), abs=1e-12)

    def test_flat_spatial_body_projects_through_its_area_vector(self):
        flat = hull(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        )
        Z = mixed_projection_support([flat, flat])
        assert support(Z, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)
        assert support(Z, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_point_has_no_shadow(self):
        point = hull(np.array([[1.0, 1.0], [1.0, 1.0]]))
        Z = mixed_projection_support([point])
        assert support(Z, np.array([1.0, 0.0])) == 0.0


class TestMixedProjection:
    def test_pair_of_equal_bodies_collapses_to_projection_body(self):
        gen = np.random.default_rng(83)
        K = hull(gen.normal(size=(8, 3)))
        h = mixed_projection_support([K, K])
        Z = projection_body(K)
        U = sphere_directions(3, 128)
        assert np.abs(h.support_batch(U) - Z.support_batch(U)).max() <= 1e-8

    def test_zonotope_pair_cross_form_agrees_with_polytopes(self):
        gen = np.random.default_rng(84)
        A = Zonotope(gen.normal(size=(3, 3)))
        B = Zonotope(gen.normal(size=(4, 3)))
        fast = mixed_projection_support([A, B])
        U = sphere_directions(3, 96)
        slow = mixed_projection_polarization(
            zonotope_to_vpolytope(A), zonotope_to_vpolytope(B), U
        )
        assert np.abs(fast.support_batch(U) - slow).max() <= 1e-8 * max(1.0, slow.max())

    def test_zonotope_with_polytope_segment_width_form(self):
        gen = np.random.default_rng(85)
        P = hull(gen.normal(size=(7, 3)))
        B = Zonotope(gen.normal(size=(3, 3)))
        fast = mixed_projection_support([P, B])
        U = sphere_directions(3, 96)
        slow = mixed_projection_polarization(P, zonotope_to_vpolytope(B), U)
        assert np.abs(fast.support_batch(U) - slow).max() <= 1e-8 * max(1.0, slow.max())

    def test_a_scaled_pair_keeps_its_generators(self):
        # Pi(sA, sB) = s^2 Pi(A, B): the merge drops nothing at small scales
        gen = np.random.default_rng(86)
        A, B = gen.normal(size=(3, 3)), gen.normal(size=(3, 3))
        want = mixed_projection_support([Zonotope(A), Zonotope(B)]).generators
        assert len(want) == 9
        for s in (1e-5, 1e-6, 1e-7, 1e-20):
            got = mixed_projection_support([Zonotope(A * s), Zonotope(B * s)]).generators
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want * s * s, rtol=1e-12, atol=0.0)

    @staticmethod
    def _check_segment_sum_oracle(gen, m):
        # multilinearity over the segments [-g, g] of Z: no oracle needs
        # Z's vertex form
        Z = Zonotope(gen.normal(size=(m, 3)))
        P = hull(gen.normal(size=(7, 3)))
        L = hull(gen.normal(size=(6, 3)))
        segs = [VPolytope(np.vstack([-g, g])) for g in Z.generators]
        U = sphere_directions(3, 12)
        known = sum(mixed_projection_polarization(P, s, U) for s in segs)
        got = mixed_projection_support([P, Z]).support_batch(U)
        assert np.abs(got - known).max() <= 1e-9 * max(1.0, known.max())
        known = sum(mixed_volume_inclusion_exclusion([s, P, L]) for s in segs)
        assert mixed_volume([Z, P, L]) == pytest.approx(known, rel=1e-9)

    def test_zonotope_past_twenty_generators_beside_a_polytope(self):
        self._check_segment_sum_oracle(np.random.default_rng(86), 24)

    def test_zonotope_beside_a_polytope_builds_no_vertex_form(self, monkeypatch):
        # its generators 2g enter the edge crossings as edges with whole circles
        def refused(Z):
            raise AssertionError("vertex form built")

        monkeypatch.setattr(bodies, "zonotope_to_vpolytope", refused)
        self._check_segment_sum_oracle(np.random.default_rng(97), 21)

    def test_flat_triangle_with_a_tetrahedron(self):
        # a triangle in space carries its area on both unit normals
        gen = np.random.default_rng(87)
        tri = hull(gen.normal(size=(3, 3)))
        tet = hull(gen.normal(size=(4, 3)))
        assert tri.affine_dim == 2
        U = sphere_directions(3, 24)
        for bodies in ([tri, tet], [tet, tri]):
            got = mixed_projection_support(bodies).support_batch(U)
            oracle = mixed_projection_polarization(*bodies, U)
            assert np.abs(got - oracle).max() <= 1e-9 * oracle.max()

    def test_tetrahedron_edge_pairs_match_the_surface_measure_route(self):
        gen = np.random.default_rng(89)
        P, Q = gen.normal(size=(2, 40, 4, 3))
        normals, holds = tetrahedron_pair_normals(P, Q)
        assert holds.all()
        U = sphere_directions(3, 64)
        ball = ball_body(3)
        for t, W in enumerate(normals):
            A, B = hull(P[t]), hull(Q[t])
            got = Zonotope(0.25 * W).support_batch(U)
            np.testing.assert_allclose(got, mixed_projection_support([A, B]).support_batch(U), rtol=1e-12)
            assert ball.support_batch(W).sum() / 6.0 == pytest.approx(
                mixed_volume([A, B, ball]), rel=1e-12)
        # a pair's atoms do not depend on the pairs stacked with it
        alone, _ = tetrahedron_pair_normals(P[7:8], Q[7:8])
        assert np.array_equal(alone[0], normals[7])

    def test_tetrahedron_edge_pairs_send_degenerate_pairs_to_the_hull(self):
        gen = np.random.default_rng(90)
        P, Q = gen.normal(size=(2, 4, 4, 3))
        Q[0] = P[0] + 1.0          # a translate: every face parallel to one of P
        Q[1, 1] = Q[1, 0] + 0.5 * (P[1, 1] - P[1, 0])  # parallel edges
        P[2, 3] = P[2, 0]          # a repeated point
        assert tetrahedron_pair_normals(P, Q)[1].tolist() == [False, False, False, True]
        A, B = hull(P[3]), hull(Q[3])
        W = tetrahedron_pair_normals(P, Q)[0][3]
        C = ball_body(3, facets=12)
        assert C.support_batch(W).sum() / 6.0 == pytest.approx(
            mixed_volume_inclusion_exclusion([A, B, C]), rel=1e-9)

    def test_even_and_one_homogeneous(self):
        gen = np.random.default_rng(86)
        K = hull(gen.normal(size=(7, 3)))
        L = hull(gen.normal(size=(7, 3)))
        h = mixed_projection_support([K, L])
        u = gen.normal(size=(4, 3))
        assert h.support_batch(u) == pytest.approx(h.support_batch(-u), rel=1e-10)
        assert h.support_batch(2.0 * u) == pytest.approx(2.0 * h.support_batch(u), rel=1e-10)


def near_parallel_pairs(gen: np.random.Generator, count: int, tilt: float) -> tuple:
    """Stacked pairs of four-point clouds (P, Q) where Q has an edge (even
    t) or a face (odd t) parallel to one of P, then tilted by ``tilt``."""
    P, Q = gen.normal(size=(2, count, 4, 3))
    for t in range(count):
        p, q = P[t], Q[t]
        if t % 2:
            n = np.cross(p[1] - p[0], p[2] - p[0])
            n /= np.linalg.norm(n)
            q[:3] -= np.outer((q[:3] - q[0]) @ n, n)
            q[1] += tilt * np.linalg.norm(q[1] - q[0]) * n
        else:
            d = gen.normal(size=3)
            d *= tilt * np.linalg.norm(p[1] - p[0]) / np.linalg.norm(d)
            q[1] = q[0] + 0.7 * (p[1] - p[0]) + d
    return P, Q


def atom_sweeps():
    """(name, (P, Q)) sweeps of tetrahedron pairs: uniform in the cube,
    Gaussian, 1e-2 thin, ``tetrahedron_test_pairs`` and near-parallel
    edges or faces at tilts 1e-6 to 1e-10."""
    gen = np.random.default_rng(103)
    rotation = np.linalg.qr(gen.normal(size=(3, 3)))[0]
    yield "cube", gen.uniform(-1.0, 1.0, size=(2, 3000, 4, 3))
    yield "gaussian", gen.normal(size=(2, 3000, 4, 3))
    yield "thin", (gen.normal(size=(2, 3000, 4, 3)) * [1.0, 1.0, 1e-2]) @ rotation
    yield "test pairs", tetrahedron_test_pairs(gen, 3000)
    for tilt in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        yield f"tilt {tilt:g}", near_parallel_pairs(gen, 1000, tilt)


def _wide_pair_normals(monkeypatch, P, Q) -> tuple:
    """``tetrahedron_pair_normals`` with a row for each of the 36 edge pairs."""
    with monkeypatch.context() as m:
        m.setattr(projections, "TETRAHEDRON_PAIR_ATOMS", 36)
        return tetrahedron_pair_normals(P, Q)


class TestTetrahedronPairStack:
    def test_held_rows_fit_the_atom_bound_with_their_atoms_in_front(self, monkeypatch):
        atoms = projections.TETRAHEDRON_PAIR_ATOMS
        assert atoms == 10
        for name, (P, Q) in atom_sweeps():
            W, holds = tetrahedron_pair_normals(P, Q)
            wide, held = _wide_pair_normals(monkeypatch, P, Q)
            count = wide.any(axis=2).sum(axis=1)
            assert W.shape == (len(P), atoms, 3), name
            # at tilts of 1e-9 and below every pair ties
            assert holds.any() or name.startswith("tilt"), name
            assert count[held].max(initial=0) <= atoms, name
            assert np.array_equal(holds, held) and np.array_equal(W, wide[:, :atoms]), name
            front = np.arange(36) < count[:, None]
            assert np.array_equal(wide.any(axis=2)[held], front[held]), name
        # Euler's formula on the fans' overlay: A + B has 6 + c vertices
        P, Q = np.random.default_rng(104).normal(size=(2, 100, 4, 3))
        W, holds = tetrahedron_pair_normals(P, Q)
        for t in np.flatnonzero(holds):
            sums = hull((P[t][:, None] + Q[t][None]).reshape(-1, 3))
            assert np.count_nonzero(W[t].any(axis=1)) == len(sums.vertices) - 6

    def test_a_row_listing_more_pairs_than_fit_leaves_the_mask(self, monkeypatch):
        gen = np.random.default_rng(105)
        P, Q = gen.normal(size=(2, 200, 4, 3))
        P[100:, 3] = P[100:, 0]  # a repeated point ties, and some such rows list 11 or more pairs
        wide, held = _wide_pair_normals(monkeypatch, P, Q)
        count = wide.any(axis=2).sum(axis=1)
        assert (count[100:] > projections.TETRAHEDRON_PAIR_ATOMS).any() and not held[100:].any()
        W, holds = tetrahedron_pair_normals(P, Q)
        assert np.array_equal(holds, held) and np.array_equal(W, wide[:, :10])
        # a narrower stack drops exactly the held rows that list more pairs than it holds
        monkeypatch.setattr(projections, "TETRAHEDRON_PAIR_ATOMS", 6)
        narrow, kept = tetrahedron_pair_normals(P, Q)
        assert (count[held] > 6).any() and np.array_equal(kept, held & (count <= 6))
        assert np.array_equal(narrow[kept], wide[kept, :6])


    def test_every_row_is_its_one_row_call_in_any_stack(self, monkeypatch):
        # held rows beside a translate (every face parallel), parallel edges,
        # a repeated point and, with room for 6 atoms, over-full rows: each
        # row's bytes are its one-row call's, and cut stacks join to the whole
        gen = np.random.default_rng(106)
        P, Q = gen.normal(size=(2, 40, 4, 3))
        Q[3] = P[3] + 1.0
        Q[11, 1] = Q[11, 0] + 0.5 * (P[11, 1] - P[11, 0])
        P[19, 3] = P[19, 0]
        P[26, 2] = P[26, 1]
        wide, tied_free = _wide_pair_normals(monkeypatch, P, Q)
        monkeypatch.setattr(projections, "TETRAHEDRON_PAIR_ATOMS", 6)
        W, holds = tetrahedron_pair_normals(P, Q)
        count = wide.any(axis=2).sum(axis=1)
        assert not tied_free[[3, 11, 19, 26]].any() and holds.any()
        assert (tied_free & (count > 6)).any() and not holds[count > 6].any()
        for t in range(len(P)):
            one, held = tetrahedron_pair_normals(P[t:t + 1], Q[t:t + 1])
            assert one.tobytes() == W[t:t + 1].tobytes() and held.tobytes() == holds[t:t + 1].tobytes()
        for cuts in ([0, 1, 2, 17, 40], [0, 13, 14, 39, 40], [0, 20, 40]):
            parts = [tetrahedron_pair_normals(P[a:b], Q[a:b]) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate([w for w, _ in parts]).tobytes() == W.tobytes()
            assert np.concatenate([h for _, h in parts]).tobytes() == holds.tobytes()


def measure_test_pairs() -> list:
    """Pairs of spatial bodies (A, B): two of each of the six kinds of
    ``tetrahedron_test_pairs``, whose parallel-face, parallel-edge and
    coplanar kinds put a facet normal of one on an edge arc of the other,
    then triangle-triangle, segment-solid and segment-segment pairs, and
    each of ``coincidence_test_pairs`` in both orders, where faces of A and
    B meet in a segment or a polygon."""
    gen = np.random.default_rng(91)
    P, Q = tetrahedron_test_pairs(gen, 12)
    pairs = [(hull(p), hull(q)) for p, q in zip(P, Q)]
    for a, b in ((3, 3), (2, 6), (2, 2)):
        pairs.append((hull(gen.normal(size=(a, 3))), hull(gen.normal(size=(b, 3)))))
    for A, B in coincidence_test_pairs(gen):
        pairs += [(A, B), (B, A)]
    return pairs


class TestMixedAreaMeasure:
    def test_mixed_projection_bodies_are_zonotopes(self):
        gen = np.random.default_rng(92)
        K = hull(gen.normal(size=(7, 3)))
        Z = Zonotope(gen.normal(size=(4, 3)))
        square = cube_body(2)
        for bodies in ([K, K], [K, Z], [Z, Z], [Z, Zonotope(gen.normal(size=(3, 3)))],
                       [square], [Zonotope(np.eye(2))], *map(list, measure_test_pairs())):
            assert isinstance(mixed_projection_support(bodies), Zonotope)
        for body in (K, Z, square):
            assert isinstance(projection_body(body), Zonotope)

    def test_support_matches_three_hull_polarization(self):
        U = np.random.default_rng(93).normal(size=(6, 3))
        for A, B in measure_test_pairs():
            want = mixed_projection_polarization(A, B, U)
            got = mixed_projection_support([A, B]).support_batch(U)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_masses_are_nonnegative_and_give_the_mixed_volume(self):
        # a C off the origin has an uneven support, which an antipodal merge would break
        gen = np.random.default_rng(94)
        C = hull(gen.normal(size=(6, 3)) + 2.0)
        for A, B in measure_test_pairs():
            normals, masses = mixed_area_measure([A, B])
            assert np.all(masses >= 0.0)
            want = mixed_volume_inclusion_exclusion([A, B, C])
            assert mixed_volume([A, B, C]) == pytest.approx(want, rel=1e-12)
            assert masses @ C.support_batch(normals) / 3.0 == pytest.approx(want, rel=1e-12)

    def test_near_coincident_faces_move_the_measure_by_their_tilt(self):
        # a body beside a copy tilted by t, where facet normals of one lie
        # within t of the other's arcs: every edge of such a facet must take
        # the same tie decision, which holds the error to the order of t
        gen = np.random.default_rng(98)
        U = gen.normal(size=(4, 3))
        K = hull(gen.normal(size=(8, 3)))
        for t in (3e-9, 1e-8, 1e-7):
            c, s = math.cos(t), math.sin(t)
            tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ np.array(
                [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
            for A in (K, cube_body(3)):
                B = hull(A.vertices @ tilt.T + 0.3)
                want = mixed_projection_polarization(A, B, U)
                got = mixed_projection_support([A, B]).support_batch(U)
                assert np.abs(got - want).max() <= 10.0 * t * np.abs(want).max()

    def test_copies_of_one_body_give_its_surface_measure(self):
        gen = np.random.default_rng(95)
        K = hull(gen.normal(size=(8, 3)))
        normals, masses = mixed_area_measure([K, K])
        assert np.array_equal(masses, mixed.facets(K).measures)
        # an equal body that is another object goes through the edge
        # crossings, where every facet normal is shared
        twin = hull(K.vertices.copy())
        U = sphere_directions(3, 64)
        want = projection_body(K).support_batch(U)
        got = mixed_projection_support([K, twin]).support_batch(U)
        assert np.abs(got - want).max() <= 1e-9 * want.max()

    def test_thin_solids_agree_with_the_polarization(self):
        # A thin solid beside a random one: on such pairs the facets of
        # A + B did not line up with A's, and the polarization's merged
        # masses went negative; the crossings take no sum.  At 1e-12 hull
        # finds most of the A flat, which takes the polygon table.
        gen = np.random.default_rng(11)
        U = np.random.default_rng(12).normal(size=(2, 3))
        for eps in (1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
            for _ in range(40):
                A = hull(np.column_stack([gen.normal(size=(5, 2)), eps * gen.normal(size=5)]))
                B = hull(gen.normal(size=(6, 3)))
                want = mixed_projection_polarization(A, B, U)
                got = mixed_projection_support([A, B]).support_batch(U)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _dented_square(value: float) -> SupportEvaluator:
    """The unit square's support, its value at the first node set to ``value``."""
    def h(U):
        out = np.abs(U).sum(axis=1)
        out[0] = value
        return out

    return SupportEvaluator(2, h, "dented square")


class TestPolarMeasure:
    def test_lebesgue_measure_of_the_polar_region(self):
        # {x : h_cube(x) <= 1} is the cross polytope of area 2
        got = polar_measure(cube_body(2), RadialMeasure.lebesgue())
        assert got == pytest.approx(2.0, rel=1e-4)

    def test_gaussian_mass_of_the_polar_region(self):
        # P(|X1| + |X2| <= 1) for a standard normal pair, frozen by MC
        gen = np.random.default_rng(87)
        X = gen.normal(size=(1_000_000, 2))
        known = float(np.mean(np.abs(X).sum(axis=1) <= 1.0))
        got = polar_measure(cube_body(2), RadialMeasure.gaussian(1.0))
        assert got == pytest.approx(known, abs=2e-3)

    def test_ball_variant_truncates_the_radius(self):
        full = polar_measure(cube_body(2), RadialMeasure.lebesgue())
        trunc = polar_measure(cube_body(2), RadialMeasure.ball(0.5))
        assert trunc == pytest.approx(math.pi * 0.25, rel=1e-3)
        assert trunc < full

    def test_one_read_only_node_set_per_size_serves_both_callers(self, monkeypatch):
        # the grid rows of the stacked entry and petty's quadrature, which
        # reads them
        built = []
        monkeypatch.setattr(projections, "sphere_directions",
                            lambda n, count: built.append((n, count)) or sphere_directions(n, count))
        projections.node_set.cache_clear()
        try:
            for _ in range(3):
                petty_product(cube_body(2), "quadrature", 300)
                petty_product(cube_body(3), "quadrature", 500)
                projections.polar_measures(np.eye(3)[None], RadialMeasure.lebesgue(), 500)
            assert built == [(2, 300), (3, 500)]
        finally:
            projections.node_set.cache_clear()
        U = projections.node_set(3, 500)
        assert U.dtype == np.float32 and not U.flags.writeable
        assert np.array_equal(U, sphere_directions(3, 500).astype(np.float32))
        assert sphere_directions(3, 500).flags.writeable

    def test_coordinate_major_nodes_read_as_a_row_major_copy(self):
        # node sets are held as the transpose of a C-contiguous (n, N) array;
        # every block of a grid row must read the nodes that a plain product
        # over a row-major copy reads
        for n in (2, 3):
            U = projections.node_set(n, 4096)
            assert U.shape == (4096, n) and U.dtype == np.float32 and U.T.flags.c_contiguous
            assert not U.flags.writeable and not U.T.flags.writeable
        rows = np.ascontiguousarray(projections.node_set(3, 4096), dtype=float)
        for k in (3, 17, 30, 64, 100):
            G = np.random.default_rng(k).normal(size=(k, 3)) / k
            hv = np.abs(rows @ G.T).sum(axis=1)
            crossing = 2.0 / (hv.min() + hv.max())  # the ball's sphere crosses the polar's boundary
            for nu in (RadialMeasure.gaussian(1.0), RadialMeasure.ball(crossing)):
                got = projections.polar_measures(G[None], nu, 4096)[0][0]
                want = polar_measure_from_support(hv, nu, 3)
                assert got == pytest.approx(want, rel=1e-7, abs=0.0), (k, nu.variant)

    def test_unbounded_lebesgue_region_is_rejected(self):
        with pytest.raises(GeometryError):
            RadialMeasure.lebesgue().radial_integral(np.array([np.inf]), 2)
        # a support above -1e-10 reads as 0, a node whose ray is unbounded;
        # one below it is an error of the evaluator
        with pytest.raises(GeometryError, match="polar set is unbounded"):
            polar_measure(_dented_square(-1e-12), RadialMeasure.lebesgue())
        with pytest.raises(GeometryError, match="support evaluator returned negative values"):
            polar_measure(_dented_square(-1e-9), RadialMeasure.lebesgue())

    def test_unbounded_gaussian_region_stays_finite(self):
        seg = hull(np.array([[0.0, 0.0], [1.0, 0.0]]))
        Z = mixed_projection_support([seg])
        got = polar_measure(Z, RadialMeasure.gaussian(1.0))
        assert 0.0 < got < 1.0
        dented = polar_measure(_dented_square(-1e-12), RadialMeasure.gaussian(1.0))
        assert math.isfinite(dented)
        assert dented == polar_measure(_dented_square(0.0), RadialMeasure.gaussian(1.0))

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    def test_clamped_gaussian_row_equals_the_masked_formula(self, sigma):
        # the formula before R was clamped, with infinite R masked out
        def masked(R, s):
            finite = np.isfinite(R)
            Rf = np.where(finite, R, 0.0)
            tail = s * s * Rf * np.exp(-(Rf ** 2) / (2 * s * s))
            main = (s ** 3) * math.sqrt(math.pi / 2.0) * erf(Rf / (s * math.sqrt(2.0)))
            full = (s ** 3) * math.sqrt(math.pi / 2.0)
            return (2.0 * math.pi * s * s) ** -1.5 * np.where(finite, main - tail, full)

        gen = np.random.default_rng(91)
        hv = np.concatenate([gen.uniform(0.01, 3.0, 8000), [0.0, -0.0, 5e-324, 1e-300, 1e-30],
                             1.0 / (sigma * np.array([39.0, 39.999999, 40.0, 40.000001, 41.0, 1e3]))])
        with np.errstate(divide="ignore", over="ignore"):
            R = np.abs(1.0 / hv)
            want = masked(R, sigma)
        measure = RadialMeasure.gaussian(sigma)
        assert np.array_equal(measure.radial_integral(R, 3), want)
        assert polar_measure_from_support(hv, measure, 3) == 4.0 * math.pi / len(hv) * want.sum()

    def test_radial_integrals_match_numeric_quadrature(self):
        full = np.linspace(0.0, 3.0, 200_001)
        cut = np.linspace(0.0, 1.5, 200_001)
        for measure, grid, density in (
            (RadialMeasure.lebesgue(), full, np.ones_like(full)),
            (RadialMeasure.gaussian(1.0), full, None),
            (RadialMeasure.ball(1.5), cut, np.ones_like(cut)),
        ):
            for n in (2, 3):
                if measure.variant == "gaussian":
                    density = np.exp(-0.5 * grid**2) / (2.0 * math.pi) ** (n / 2)
                vals = density * grid ** (n - 1)
                known = float(np.trapezoid(vals, grid))
                assert measure.radial_integral(3.0, n) == pytest.approx(
                    known, rel=1e-6, abs=1e-9
                )


_MEASURES = [None, RadialMeasure.gaussian(0.8), RadialMeasure.ball(0.6)]


class TestPolarMeasures:
    """The one stacked entry: exact in the plane and, in space, the rule at
    the stack's width with no node count (the walk for these five
    generators), the grid with one."""

    @pytest.mark.parametrize("nu", _MEASURES, ids=["lebesgue", "gaussian", "ball"])
    @pytest.mark.parametrize("n, nodes", [(2, None), (3, None), (3, 512)],
                             ids=["exact", "walk", "grid"])
    def test_stacked_rows_equal_their_one_row_calls(self, n, nodes, nu):
        G = np.random.default_rng(93 + n).normal(size=(6, 5, n))
        G[2, 3:] = 0.0
        values, held = projections.polar_measures(G, nu, nodes)
        assert held.all()
        for t in range(len(G)):
            alone, alone_held = projections.polar_measures(G[t:t + 1], nu, nodes)
            assert alone.tobytes() == values[t:t + 1].tobytes() and alone_held[0]

    @pytest.mark.parametrize("nu, walk_to", [(RadialMeasure.gaussian(1.0), 16),
                                             (RadialMeasure.ball(0.6), 10), (None, 40)],
                             ids=["gaussian", "ball", "lebesgue"])
    def test_no_node_count_walks(self, nu, walk_to, monkeypatch):
        # the rule is the caller's: with no node count a spatial stack walks
        # on both sides of the measure's crossover, past which the rule
        # table gives a grid, and never reads the table
        assert projections.polar_nodes(nu, walk_to + 1) == (None if nu is None else 8192)
        monkeypatch.setattr(projections, "polar_nodes", None)
        G = np.random.default_rng(95).normal(size=(2, walk_to + 1, 3))
        for k in (walk_to, walk_to + 1):
            want = bodies.spatial_polar_measures(G[:, :k], nu)
            assert projections.polar_measures(G[:, :k], nu)[0].tobytes() == want[0].tobytes()

    def test_lebesgue_measure_has_no_grid_row(self):
        # its walk is exact at every width, so there is no grid to size
        for nu in (RadialMeasure.lebesgue(), None):
            assert projections.polar_nodes(nu, 5) is None
            with pytest.raises(GeometryError, match="Lebesgue measure has no grid row"):
                projections.polar_nodes(nu, 5, walk=False)

    @pytest.mark.parametrize("nodes", [4096, 8192])
    def test_single_precision_rows_hold_the_float64_oracle(self, nodes):
        # a grid row pairs its merged generators with the nodes in float32;
        # the float64 grid of the unmerged row is its oracle, for
        # cor13's bodies (random, thin, needle) at scales far past float32's
        # range, under a Gaussian and a ball at three sizes against the scale
        U = sphere_directions(3, nodes)
        gen = np.random.default_rng(88)
        worst = 0.0
        for k in (17, 31, 64, 100):
            for G in grid_table_test_generators(gen, k):
                for s in (1e-60, 1e-6, 1.0, 1e6, 1e60):
                    for c in (0.3, 1.0, 10.0):
                        for nu in (RadialMeasure.gaussian(c / s), RadialMeasure.ball(c / s)):
                            got = projections.polar_measures((G * s)[None], nu, nodes)[0][0]
                            want = polar_measure_from_support(bodies._abs_pairing(U, G * s), nu, 3)
                            worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-7, worst

    def test_rows_of_no_or_zero_generators_read_the_whole_measure(self):
        for G in (np.zeros((2, 0, 3)), np.zeros((1, 4, 3))):
            values, held = projections.polar_measures(G, RadialMeasure.gaussian(0.4), 512)
            assert held.all() and values.tolist() == pytest.approx([1.0] * len(G), rel=1e-15)
            values, _ = projections.polar_measures(G, RadialMeasure.ball(2.0), 512)
            assert values.tolist() == pytest.approx([32.0 * math.pi / 3.0] * len(G), rel=1e-15)
            with pytest.raises(GeometryError, match="unbounded"):
                projections.polar_measures(G, RadialMeasure.lebesgue(), 512)

    def test_a_grid_row_reads_one_canonical_generator_set(self):
        # the kernel's rows and the hull route's merged ones give one grid
        # value: the order and signs of the generators, and a split of one
        # into parallel parts, do not move its bits
        nu = RadialMeasure.gaussian(1.0)
        G = np.random.default_rng(89).normal(size=(20, 3))
        shuffled = G[::-1] * np.where(np.arange(20) % 3 == 0, -1.0, 1.0)[::-1, None]
        want = projections.polar_measures(G[None], nu, 4096)[0]
        assert projections.polar_measures(shuffled[None], nu, 4096)[0].tobytes() == want.tobytes()
        split = np.vstack([G[:19], 0.5 * G[19:], -0.5 * G[19:]])
        assert projections.polar_measures(split[None], nu, 4096)[0].tobytes() == want.tobytes()

    def test_only_the_grid_reads_a_flat_row(self):
        nu = RadialMeasure.gaussian(1.0)
        coplanar = np.array([[[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [2.0, 0.3, 0.0]]])
        assert projections.polar_measures(coplanar, nu)[1].tolist() == [False]
        assert projections.polar_measures(coplanar[:, :, :2], nu)[1].tolist() == [True]
        assert projections.polar_measures(coplanar[:, :1, :2], nu)[1].tolist() == [False]
        values, held = projections.polar_measures(coplanar, nu, 512)
        assert held.tolist() == [True] and np.isfinite(values).all()
        assert projections.polar_measures(np.zeros((0, 3, 3)), nu, 512)[0].shape == (0,)


class TestCentroidBody:
    def test_square_support_along_an_axis(self):
        h = centroid_body_support(cube_body(2))
        assert h(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.5)
        assert h(np.array([[0.0, 1.0]]))[0] == pytest.approx(0.5)

    def test_triangle_support_equals_first_moment(self):
        # x >= 0 on this triangle, so mean |x| is the centroid coordinate
        T = hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        h = centroid_body_support(T)
        assert h(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0 / 3.0)

    def test_grid_ray_casting_matches_the_per_point_test(self):
        gen = np.random.default_rng(87)
        grid = np.linspace(-1.5, 1.5, 13)  # hits the square's edges and corners
        x, y = np.meshgrid(grid, grid, indexing="ij")
        for cycle in (cube_body(2).vertices, hull(gen.normal(size=(9, 2))).vertices):
            got = points_in_polygon(cycle, x, y)
            want = [[point_in_polygon(cycle, np.array([a, b])) for b in grid] for a in grid]
            assert got.tolist() == want

    def test_matches_grid_cubature(self):
        gen = np.random.default_rng(88)
        K = hull(gen.normal(size=(7, 2)))
        h = centroid_body_support(K)
        for _ in range(3):
            u = gen.normal(size=2)
            u /= np.linalg.norm(u)
            known = centroid_support_cubature(K.vertices, u)
            assert h(u[None, :])[0] == pytest.approx(known, rel=2e-2)

    def test_empirical_body_converges(self):
        gen = np.random.default_rng(89)
        K = cube_body(2)
        pts = gen.uniform(-1.0, 1.0, size=(20000, 2))
        # cor13's body: the cube C-set of half 1/m
        Z = CSet("cube", len(pts), half=1.0 / len(pts)).body(pts)
        h = centroid_body_support(K)
        U = sphere_directions(2, 32)
        assert np.abs(Z.support_batch(U) - h(U)).max() <= 0.02

    def test_empirical_generators_are_scaled_samples(self):
        pts = np.array([[2.0, 0.0], [0.0, 4.0]])
        Z = CSet("cube", 2, half=0.5).body(pts)
        assert Z.generators == pytest.approx(pts / 2.0)


class TestPetty:
    def test_square_product_is_exactly_two(self):
        assert petty_product(cube_body(2)) == pytest.approx(2.0, abs=1e-12)
        assert petty_product(cube_body(2, 3.0)) == pytest.approx(2.0, abs=1e-10)

    def test_polar_projection_of_the_square(self):
        got = polar_projection_polytope(cube_body(2))
        known = 0.5 * np.vstack([np.eye(2), -np.eye(2)])
        assert vertex_set_distance(got, hull(known)) <= 1e-12
        assert volume(got) == pytest.approx(0.5)

    def test_triangle_attains_the_simplex_value(self):
        assert petty_product(solid_simplex(2)) == pytest.approx(1.5, abs=1e-12)

    def test_cube_value_in_space(self):
        assert petty_product(cube_body(3)) == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_product_does_not_depend_on_scale(self, n):
        # an affine invariant: hull(s P) reads what hull(P) does
        P = np.random.default_rng(87 + n).normal(size=(12, n))
        want = petty_product(hull(P))
        for s in (1e-8, 1e-6, 1e-5, 1e-3, 1e3, 1e6):
            assert petty_product(hull(P * s)) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_ball_approximations_approach_the_extremal_values(self):
        assert petty_product(ball_body(2)) == pytest.approx(
            math.pi**2 / 4.0, rel=1e-2
        )
        assert petty_product(ball_body(3)) == pytest.approx(64.0 / 27.0, rel=2e-2)

    def test_quadrature_path_tracks_the_exact_path(self):
        gen = np.random.default_rng(90)
        for _ in range(5):
            K = hull(gen.normal(size=(8, 2)))
            exact = petty_product(K, method="exact")
            quad = petty_product(K, method="quadrature")
            assert quad == pytest.approx(exact, rel=2e-3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadrature_reads_the_report_grid(self, n):
        # petty's quadrature is the grid row of the merged projection body
        # that reports read, and holds the float64 grid of the oracle
        K = hull(np.random.default_rng(96 + n).normal(size=(12, n)))
        Z = projection_body(K)
        for nodes in (512, 4096, 8192):
            got = petty_product(K, "quadrature", nodes)
            want = projections.polar_measures(Z.generators[None], None, nodes)[0][0]
            assert got == want * volume(K) ** (n - 1)
            oracle = polar_measure(Z, RadialMeasure.lebesgue(), nodes) * volume(K) ** (n - 1)
            assert got == pytest.approx(oracle, rel=1e-6, abs=0.0)

    def test_affine_invariance(self):
        gen = np.random.default_rng(91)
        K = hull(gen.normal(size=(8, 2)))
        A = np.array([[2.0, 1.0], [0.5, 1.5]])
        img = hull(K.vertices @ A.T)
        assert petty_product(img) == pytest.approx(petty_product(K), rel=1e-9)

    def test_zonotope_input(self):
        Z = Zonotope(np.eye(2))
        assert petty_product(Z) == pytest.approx(2.0, abs=1e-12)

    def test_a_zonotope_past_space_is_refused(self):
        # a 4-D zonotope has no projection body here, and never the one of
        # its first three coordinates
        for method in ("exact", "quadrature"):
            with pytest.raises(GeometryError, match="dimension 2 or 3"):
                petty_product(Zonotope(np.eye(4)), method)

    @pytest.mark.parametrize("method", ["exact", None], ids=["exact", "default"])
    def test_grid_arguments_need_the_quadrature_method(self, method):
        args = () if method is None else (method,)
        with pytest.raises(GeometryError, match="read only under method 'quadrature'"):
            petty_product(cube_body(2), *args, nodes=64)

    def test_an_exact_product_merges_the_projection_body_once(self, monkeypatch):
        calls = []
        merge = bodies.merge_parallel_generators

        def counted(Z):
            calls.append(Z)
            return merge(Z)

        for module in (bodies, projections):
            monkeypatch.setattr(module, "merge_parallel_generators", counted)
        K = hull(np.random.default_rng(94).normal(size=(12, 3)))
        petty_product(K, "exact")
        assert len(calls) == 1

    def test_an_exact_polar_measure_is_the_stacked_entry_of_one_row(self, monkeypatch):
        # one dispatch for every exact polar measure: a zonotope's, and so a
        # petty product's, is the no-node row of ``polar_measures``
        calls, entry = [], projections.polar_measures
        monkeypatch.setattr(projections, "polar_measures",
                            lambda G, *args: calls.append((G.shape, args)) or entry(G, *args))
        for n in (2, 3):
            petty_product(cube_body(n))
        gauss = RadialMeasure.gaussian(1.0)
        projections.zonotope_polar_measure(Zonotope(np.eye(3)), gauss)
        assert calls == [((1, 2, 2), (None, None)), ((1, 3, 3), (None, None)),
                         ((1, 3, 3), (gauss, None))]


def test_cauchy_bound_never_exceeds_surface_area():
    gen = np.random.default_rng(92)
    for n in (2, 3):
        for _ in range(15):
            K = hull(gen.normal(size=(n + 5, n)))
            assert cauchy_surface_bound_defect(K) >= -1e-9


_FLAT_TRIANGLE = hull(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

# call -> the message of the GeometryError it raises, one per refusal site
REFUSALS = {
    "support-width": (lambda: centroid_body_support(cube_body(2))(np.ones((1, 3))),
                      "direction dimension mismatch"),
    "gaussian-sigma-zero": (lambda: RadialMeasure.gaussian(0.0), "gaussian sigma must be positive"),
    "gaussian-sigma-nan": (lambda: RadialMeasure.gaussian(math.nan), "gaussian sigma must be positive"),
    "gaussian-sigma-inf": (lambda: RadialMeasure.gaussian(math.inf), "gaussian sigma must be positive"),
    "ball-radius-zero": (lambda: RadialMeasure.ball(0.0), "ball radius must be positive"),
    "ball-radius-nan": (lambda: RadialMeasure.ball(math.nan), "ball radius must be positive"),
    "ball-radius-inf": (lambda: RadialMeasure.ball(math.inf), "ball radius must be positive"),
    "density-gaussian-sigma-negative": (lambda: Density.gaussian(2, -1.0),
                                        "gaussian sigma must be positive"),
    "density-gaussian-sigma-zero": (lambda: Density.gaussian(2, 0.0), "gaussian sigma must be positive"),
    "density-gaussian-sigma-nan": (lambda: Density.gaussian(2, math.nan),
                                   "gaussian sigma must be positive"),
    "density-gaussian-sigma-inf": (lambda: Density.gaussian(2, math.inf),
                                   "gaussian sigma must be positive"),
    "density-ball-radius-zero": (lambda: Density.ball(3, 0.0), "ball radius must be positive"),
    "density-ball-radius-nan": (lambda: Density.ball(3, math.nan), "ball radius must be positive"),
    "density-ball-radius-inf": (lambda: Density.ball(3, math.inf), "ball radius must be positive"),
    "centroid-body-flat": (lambda: centroid_body_support(_FLAT_TRIANGLE),
                           "centroid body needs a full-dimensional body"),
    "petty-flat": (lambda: petty_product(_FLAT_TRIANGLE),
                   "Petty product needs a full-dimensional body"),
    "petty-method": (lambda: petty_product(cube_body(2), "auto"),
                     "unknown petty_product method 'auto'"),
    "petty-nodes-zero": (lambda: petty_product(cube_body(3), "quadrature", 0),
                         "nodes must be a positive integer, got 0"),
    "petty-nodes-float": (lambda: petty_product(cube_body(3), "quadrature", 2.5),
                          "nodes must be a positive integer, got 2.5"),
    "petty-nodes-bool": (lambda: petty_product(cube_body(3), "quadrature", True),
                         "nodes must be a positive integer, got True"),
    "petty-nodes-negative": (lambda: petty_product(cube_body(3), "quadrature", -3),
                             "nodes must be a positive integer, got -3"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_raises_its_own_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(GeometryError, match=re.escape(message)):
        call()


def test_a_half_space_that_misses_the_body_adds_nothing_to_its_centroid_support():
    # [2, 4] x [-1, 1] lies in x > 0, so the half-space <x, (-1, 0)> >= 0
    # misses it; the mean of |x| over it is 3 either way along the axis
    h = centroid_body_support(hull(np.array([[2.0, -1.0], [4.0, -1.0], [4.0, 1.0], [2.0, 1.0]])))
    assert h(np.array([[-1.0, 0.0], [1.0, 0.0]])) == pytest.approx([3.0, 3.0], rel=1e-12)

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from pettylab import (
    ConfigError,
    GeometryError,
    MSpec,
    Zonotope,
    ball_body,
    body_from_literal,
    cross_body,
    cube_body,
    hull,
    linear_image,
    lp_ball_body,
    m_add,
    minkowski_sum,
    polar,
    polar_of_zonotope,
    reduced_form,
    regular_polygon,
    segment,
    solid_simplex,
    support,
    translate,
    unit_ball_volume,
    vertex_set_distance,
    volume,
    zonotope_polar_volume,
    zonotope_to_vpolytope,
    zonotope_volume,
)
from pettylab import bodies
from pettylab.bodies import _abs_pairing, merge_parallel_generators
from pettylab.mixed import centroid, facets
from pettylab.projections import projection_body
from pettylab.verify import (
    brute_hull_vertices_3d,
    gift_wrap_2d,
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
        w = gen.random(count)
        U = gen.normal(size=(directions, 3))
        for weights in (None, w):
            wj = np.ones(count) if weights is None else weights
            known = np.zeros(directions)
            for j in range(count):
                known += wj[j] * np.abs(U @ V[j])
            got = _abs_pairing(U, V, weights)
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

    def test_degenerate_zonotope_polar_is_rejected(self):
        with pytest.raises(GeometryError):
            polar_of_zonotope(Zonotope(np.array([[1.0, 2.0], [2.0, 4.0]])))


def merge_loop(Z: Zonotope, tol: float = 1e-12) -> np.ndarray:
    """Reference for ``merge_parallel_generators``: orient and merge one
    generator at a time."""
    gens = Z.generators
    norms = np.linalg.norm(gens, axis=1)
    keep = norms > tol
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
        assert zonotope_polar_volume(Zonotope(np.array(gens))) == pytest.approx(known, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_the_polar_hull_on_random_projection_bodies(self, n):
        worst = 0.0
        for seed in range(200):
            gen = np.random.default_rng(seed)
            Z = projection_body(hull(gen.normal(size=(int(gen.integers(n + 1, 16)), n))))
            want = volume(polar_of_zonotope(Z))
            worst = max(worst, abs(zonotope_polar_volume(Z) - want) / want)
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
            assert zonotope_polar_volume(Z) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gens", [
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 0.0]],
    ], ids=["parallel-2d", "one-2d", "coplanar-3d", "two-3d", "zero-3d"])
    def test_a_flat_zonotope_raises(self, gens):
        with pytest.raises(GeometryError):
            zonotope_polar_volume(Zonotope(np.array(gens)))

    def test_many_generators_agree_with_the_polar_hull(self):
        Z = Zonotope(np.random.default_rng(54).normal(size=(90, 3)))
        want = volume(polar_of_zonotope(Z))
        assert zonotope_polar_volume(Z) == pytest.approx(want, rel=1e-12)

    def test_the_ball_runs_in_memory_of_order_m_squared(self):
        # ball_body(3) has about 320 facet generators: an m x (2m - 2) x m
        # array of generator signs would take 0.5 GB, and the unblocked
        # circles some 60 MB
        Z = projection_body(ball_body(3))
        m = len(Z.generators)
        assert m > 300 and m * (2 * m - 2) > 10 * bodies.POLAR_BLOCK_ARCS  # many blocks
        tracemalloc.start()
        try:
            got = zonotope_polar_volume(Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert got * volume(ball_body(3)) ** 2 == pytest.approx(64.0 / 27.0, rel=2e-2)


class TestHullCache:
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
            assert copy._cache == {}
            assert volume(copy) == pytest.approx(volume(K), rel=1e-13)
            assert centroid(copy) == pytest.approx(centroid(K), rel=1e-12)
            a, b = facets(K), facets(copy)
            order_a, order_b = (np.lexsort(f.normals.T) for f in (a, b))
            assert a.normals[order_a] == pytest.approx(b.normals[order_b], abs=1e-13)
            assert a.measures[order_a] == pytest.approx(b.measures[order_b], rel=1e-12)

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
        s = segment(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        assert support(s, np.array([0.0, 1.0])) == pytest.approx(2.0)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        K = linear_image(R, cube_body(2))
        assert volume(K) == pytest.approx(4.0)

    def test_linear_image_support_identity(self):
        gen = np.random.default_rng(55)
        X = gen.normal(size=(2, 3))
        C = hull(gen.normal(size=(8, 3)))
        img = linear_image(X, C)
        for u in gen.normal(size=(64, 2)):
            assert support(img, u) == pytest.approx(support(C, X.T @ u), abs=1e-9)

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

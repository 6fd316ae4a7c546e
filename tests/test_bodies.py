import math

import numpy as np
import pytest

from pettylab import (
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
    zonotope_to_vpolytope,
    zonotope_volume,
)
from pettylab.bodies import _abs_pairing
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
        with pytest.raises(GeometryError):
            body_from_literal({"type": "frisbee"})
        with pytest.raises(GeometryError):
            body_from_literal({"vertices": [[0, 0]]})
        with pytest.raises(GeometryError):
            body_from_literal({"type": "polygon", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]})


def test_solid_simplex_contains_origin_on_boundary():
    T = solid_simplex(2)
    assert volume(T) == pytest.approx(0.5)
    with pytest.raises(GeometryError):
        polar(T)


def test_regular_polygon_vertex_count():
    assert len(regular_polygon(1.0, 7).vertices) == 7

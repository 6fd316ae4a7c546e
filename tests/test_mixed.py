import itertools
import math

import numpy as np
import pytest

from pettylab import (
    Zonotope,
    ball_body,
    cube_body,
    hull,
    minkowski_sum,
    solid_simplex,
    support,
    translate,
    volume,
    zonotope_to_vpolytope,
)
from pettylab.bodies import facet_planes, reduced_form
from pettylab.mixed import (
    centroid,
    clip_halfspace,
    facets,
    mixed_volume,
    mixed_volume_fit_check,
    surface_area,
    v1,
)
from pettylab.projections import mixed_volume_with_segment, projection_body
from pettylab.verify import mixed_volume_inclusion_exclusion, shadow_oracle


def box(sides, corner=None):
    """Axis-aligned box [0, s1] x ... given by its side lengths."""
    sides = np.asarray(sides, dtype=float)
    n = len(sides)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    pts = corners * sides
    if corner is not None:
        pts = pts + np.asarray(corner, dtype=float)
    return hull(pts)


def box_mixed_volume(side_vectors):
    """Permanent formula: V(A1,...,An) = perm(a_ij) / n! for axis boxes."""
    A = np.asarray(side_vectors, dtype=float)
    n = len(A)
    total = 0.0
    for sigma in itertools.permutations(range(n)):
        total += math.prod(A[i][sigma[i]] for i in range(n))
    return total / math.factorial(n)


class TestFacets:
    def test_square_edges(self):
        f = facets(cube_body(2))
        assert sorted(f.measures.tolist()) == pytest.approx([2.0, 2.0, 2.0, 2.0])
        known = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        got = {tuple(int(round(c)) for c in nrm) for nrm in f.normals}
        assert got == known

    def test_cube_faces(self):
        f = facets(cube_body(3))
        assert len(f.measures) == 6
        assert f.measures == pytest.approx(np.full(6, 4.0))

    def test_surface_areas(self):
        assert surface_area(cube_body(2)) == pytest.approx(8.0)
        assert surface_area(cube_body(3)) == pytest.approx(24.0)
        tri = solid_simplex(2)
        assert surface_area(tri) == pytest.approx(2.0 + math.sqrt(2.0))

    def test_merged_measures_match_a_per_simplex_loop(self):
        gen = np.random.default_rng(59)
        for n in (2, 3):
            for K in (hull(gen.normal(size=(n + 6, n))), cube_body(n)):
                f = facets(K)
                R = reduced_form(K)
                _, _, h = facet_planes(R)
                loop = np.zeros(len(f))
                for simplex in h.simplices:
                    pts = R.vertices[simplex]
                    if n == 2:
                        piece = np.linalg.norm(pts[1] - pts[0])
                    else:
                        piece = 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
                    on_plane = np.abs(pts @ f.normals.T - f.offsets) <= 1e-9
                    (hit,) = np.flatnonzero(on_plane.all(axis=0))
                    loop[hit] += piece
                assert f.measures == pytest.approx(loop, rel=1e-12)

    def test_facet_identity_sums_to_zero(self):
        # sum of area-weighted outward normals vanishes for a closed body
        gen = np.random.default_rng(60)
        for n in (2, 3):
            for _ in range(10):
                K = hull(gen.normal(size=(n + 5, n)))
                f = facets(K)
                resid = np.abs((f.normals * f.measures[:, None]).sum(axis=0)).max()
                assert resid <= 1e-10


class TestCentroid:
    def test_triangle(self):
        T = hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert centroid(T) == pytest.approx([1.0 / 3.0, 1.0 / 3.0])

    def test_symmetric_bodies_are_centered(self):
        for K in (cube_body(2), cube_body(3), ball_body(2)):
            assert np.abs(centroid(K)).max() <= 1e-12

    def test_translation_equivariance(self):
        gen = np.random.default_rng(61)
        K = hull(gen.normal(size=(7, 3)))
        t = np.array([1.0, -2.0, 0.5])
        assert centroid(translate(K, t)) == pytest.approx(centroid(K) + t)


class TestClip:
    def test_half_of_a_square(self):
        pts = clip_halfspace(cube_body(2), np.array([1.0, 0.0]), 0.0)
        assert volume(hull(pts)) == pytest.approx(2.0)

    def test_clip_pieces_partition_volume(self):
        gen = np.random.default_rng(62)
        for n in (2, 3):
            for _ in range(15):
                K = hull(gen.normal(size=(n + 6, n)))
                u = gen.normal(size=n)
                u /= np.linalg.norm(u)
                c = float(gen.normal() * 0.3)
                keep = clip_halfspace(K, u, c)
                drop = clip_halfspace(K, -u, -c)
                va = volume(hull(keep)) if len(keep) > n else 0.0
                vb = volume(hull(drop)) if len(drop) > n else 0.0
                assert va + vb == pytest.approx(volume(K), rel=1e-9)


class TestMixedVolume:
    def test_diagonal_is_volume(self):
        gen = np.random.default_rng(63)
        for n in (2, 3):
            K = hull(gen.normal(size=(n + 5, n)))
            assert mixed_volume([K] * n) == pytest.approx(volume(K), rel=1e-12)

    def test_boxes_match_permanent_formula(self):
        a, b = (2.0, 1.0), (1.0, 3.0)
        assert mixed_volume([box(a), box(b)]) == pytest.approx(
            box_mixed_volume([a, b])
        )
        a3, b3, c3 = (1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (3.0, 1.0, 1.0)
        assert mixed_volume([box(a3), box(b3), box(c3)]) == pytest.approx(
            box_mixed_volume([a3, b3, c3]), rel=1e-10
        )

    def test_symmetric_in_arguments(self):
        gen = np.random.default_rng(64)
        bodies = [hull(gen.normal(size=(7, 3))) for _ in range(3)]
        vals = {
            round(mixed_volume([bodies[i] for i in perm]), 12)
            for perm in itertools.permutations(range(3))
        }
        assert len(vals) == 1

    def test_translation_invariant(self):
        gen = np.random.default_rng(65)
        A = hull(gen.normal(size=(6, 2)))
        B = hull(gen.normal(size=(6, 2)))
        shifted = translate(A, np.array([5.0, -7.0]))
        assert mixed_volume([A, B]) == pytest.approx(
            mixed_volume([shifted, B]), rel=1e-9
        )

    def test_multilinearity_under_scaling(self):
        gen = np.random.default_rng(66)
        A = hull(gen.normal(size=(6, 2)))
        B = hull(gen.normal(size=(6, 2)))
        base = mixed_volume([A, B])
        from pettylab import scale

        assert mixed_volume([scale(A, 2.0), B]) == pytest.approx(2.0 * base, rel=1e-9)

    def test_polarization_fit(self):
        gen = np.random.default_rng(67)
        for n in (2, 3):
            for _ in range(5):
                K1 = hull(gen.normal(size=(n + 4, n)))
                K2 = hull(gen.normal(size=(n + 4, n)))
                assert mixed_volume_fit_check(K1, K2) <= 1e-7


class TestSegmentsAndProjections:
    def test_projection_support_matches_flattened_hull(self):
        gen = np.random.default_rng(68)
        for n in (2, 3):
            for _ in range(10):
                K = hull(gen.normal(size=(n + 5, n)))
                u = gen.normal(size=n)
                u /= np.linalg.norm(u)
                assert projection_body(K).support_batch(u[None, :])[0] == pytest.approx(
                    shadow_oracle(K, u), abs=1e-10
                )

    def test_segment_mixed_volume_is_shadow_over_n(self):
        gen = np.random.default_rng(69)
        for n in (2, 3):
            for _ in range(10):
                K = hull(gen.normal(size=(n + 5, n)))
                u = gen.normal(size=n)
                unit = u / np.linalg.norm(u)
                known = shadow_oracle(K, unit) * np.linalg.norm(u) / n
                got = mixed_volume_with_segment([K] * (n - 1), u)
                assert got == pytest.approx(known, rel=1e-8)

    def test_square_with_axis_segment(self):
        # |[-1,1]^2 + [-e1, e1]| = 8 pins V(K, segment) = 2
        K = cube_body(2)
        assert mixed_volume_with_segment([K], np.array([2.0, 0.0])) == pytest.approx(2.0)
        S = hull(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert volume(minkowski_sum(K, S)) == pytest.approx(8.0)


class TestV1:
    def test_zonotope_route_equals_polarization_route(self):
        gen = np.random.default_rng(70)
        for n in (2, 3):
            for m2 in (1, 2, 4):
                K = hull(gen.normal(size=(n + 5, n)))
                Z = Zonotope(gen.normal(size=(m2, n)))
                direct = v1(K, Z)
                oracle = mixed_volume_inclusion_exclusion(
                    [K] * (n - 1) + [zonotope_to_vpolytope(Z)]
                )
                assert direct == pytest.approx(oracle, rel=1e-8)

    def test_planar_segment_follows_the_flat_convention(self):
        # a segment carries its length on both unit normals
        gen = np.random.default_rng(73)
        seg = hull(gen.normal(size=(2, 2)))
        assert seg.affine_dim == 1
        for _ in range(3):
            K = hull(gen.normal(size=(6, 2)))
            Z = Zonotope(gen.normal(size=(3, 2)))
            for got, bodies in (
                (v1(seg, K), [seg, K]),
                (v1(seg, Z), [seg, zonotope_to_vpolytope(Z)]),
                (v1(K, seg), [K, seg]),
                (mixed_volume([seg, K]), [seg, K]),
            ):
                oracle = mixed_volume_inclusion_exclusion(bodies)
                assert got == pytest.approx(oracle, rel=1e-9)
        assert v1(seg, seg) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_the_zonotope_argument(self):
        gen = np.random.default_rng(71)
        K = hull(gen.normal(size=(7, 2)))
        g1 = gen.normal(size=(1, 2))
        g2 = gen.normal(size=(1, 2))
        lhs = v1(K, Zonotope(np.vstack([g1, g2])))
        rhs = v1(K, Zonotope(g1)) + v1(K, Zonotope(g2))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_square_against_unit_segment(self):
        assert v1(cube_body(2), Zonotope(np.array([[1.0, 0.0]]))) == pytest.approx(2.0)

    def test_ball_pairing_recovers_half_the_perimeter(self):
        gen = np.random.default_rng(72)
        K = hull(gen.normal(size=(8, 2)))
        got = v1(K, ball_body(2))
        assert got == pytest.approx(surface_area(K) / 2.0, rel=5e-3)

    def test_against_body_second_argument(self):
        A = box((2.0, 1.0))
        B = box((1.0, 3.0))
        assert v1(A, B) == pytest.approx(box_mixed_volume([(2, 1), (1, 3)]))

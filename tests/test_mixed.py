import itertools
import math

import numpy as np
import pytest

from pettylab import (
    GeometryError,
    VPolytope,
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
from pettylab import bodies, mixed
from pettylab.bodies import facet_planes, reduced_form
from pettylab.mixed import (
    centroid,
    clip_halfspace,
    facets,
    mixed_volume,
    surface_area,
    v1,
)
from pettylab.projections import mixed_projection_support, projection_body
from pettylab.verify import mixed_volume_fit_check, mixed_volume_inclusion_exclusion, shadow_oracle


def clip_halfspace_loop(P, normal, offset=0.0):
    """Reference for ``clip_halfspace``: the edges as a set of sorted row
    pairs from the hull's simplices (every pair of a flat body's vertices),
    crossed one edge at a time."""
    R = reduced_form(P)
    vals = R.vertices @ np.asarray(normal, dtype=float) - offset
    tol = 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    kept = R.vertices[vals >= -tol]
    if R.affine_dim == R.dim:
        edges = set()
        for simplex in facet_planes(R)[2].simplices:
            k = len(simplex)
            for a in range(k):
                for b in range(a + 1, k):
                    edges.add((min(simplex[a], simplex[b]), max(simplex[a], simplex[b])))
    else:
        k = len(R.vertices)
        edges = {(a, b) for a in range(k) for b in range(a + 1, k)}
    crossings = []
    for a, b in edges:
        va, vb = vals[a], vals[b]
        if (va > tol and vb < -tol) or (va < -tol and vb > tol):
            t = va / (va - vb)
            crossings.append(R.vertices[a] + t * (R.vertices[b] - R.vertices[a]))
    if crossings:
        kept = np.vstack([kept, np.array(crossings)])
    return kept


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

    def test_merged_facets_equal_the_np_unique_grouping_bit_for_bit(self):
        gen = np.random.default_rng(61)
        bodies = [cube_body(2), cube_body(3), ball_body(3),
                  zonotope_to_vpolytope(Zonotope(gen.normal(size=(5, 3))))]
        bodies += [hull(gen.normal(size=(n + 20, n))) for n in (2, 3) for _ in range(5)]
        for K in bodies:
            R = reduced_form(K)
            normals, offsets, h = facet_planes(R)
            scale = max(1.0, float(np.max(np.abs(R.vertices))))
            keys = np.round(np.column_stack([normals, offsets / scale]), mixed.FACET_MERGE_DECIMALS)
            _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            corners = R.vertices[h.simplices]
            if R.dim == 2:
                pieces = np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
            else:
                pieces = 0.5 * np.linalg.norm(
                    np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1)
            f = facets(R)
            assert f.normals.tobytes() == normals[first[order]].tobytes()
            assert f.offsets.tobytes() == offsets[first[order]].tobytes()
            assert f.measures.tobytes() == np.bincount(rank[group.ravel()], weights=pieces).tobytes()

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

    def test_clipped_points_equal_the_loop_reference(self):
        gen = np.random.default_rng(66)
        plane = np.linalg.qr(gen.normal(size=(3, 3)))[0][:2]
        bodies = [cube_body(2), cube_body(3), ball_body(3)]
        for _ in range(10):
            bodies += [hull(gen.normal(size=(int(gen.integers(3, 25)), 2))),
                       hull(gen.normal(size=(int(gen.integers(4, 25)), 3))),
                       hull(gen.normal(size=(int(gen.integers(3, 9)), 2)) @ plane),
                       hull(gen.normal(size=(2, 2))), hull(gen.normal(size=(2, 3)))]
        for K in bodies:
            for _ in range(4):
                u, c = gen.normal(size=K.dim), float(gen.normal() * 0.3)
                got, want = clip_halfspace(K, u, c), clip_halfspace_loop(K, u, c)
                assert len(got) == len(want)
                assert got[np.lexsort(got.T)].tobytes() == want[np.lexsort(want.T)].tobytes()

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
                # V(K, ..., K, [0, u]) = h_{Pi K}(u) / n, and the mixed volume itself
                got = mixed_projection_support([K] * (n - 1)).support(u) / n
                assert got == pytest.approx(known, rel=1e-8)
                got = mixed_volume([K] * (n - 1) + [VPolytope(np.vstack([np.zeros(n), u]))])
                assert got == pytest.approx(known, rel=1e-8)

    def test_square_with_axis_segment(self):
        # |[-1,1]^2 + [-e1, e1]| = 8 pins V(K, segment) = 2
        K = cube_body(2)
        y = np.array([2.0, 0.0])
        assert mixed_projection_support([K]).support(y) / 2 == pytest.approx(2.0)
        assert mixed_volume([K, VPolytope(np.vstack([np.zeros(2), y]))]) == pytest.approx(2.0)
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

    def test_zonotope_slots_build_no_vertex_form(self, monkeypatch):
        def refused(Z):
            raise AssertionError("vertex form built")

        monkeypatch.setattr(bodies, "zonotope_to_vpolytope", refused)
        gen = np.random.default_rng(72)
        for n in (2, 3):
            Z = Zonotope(gen.normal(size=(6, n)))
            W = Zonotope(gen.normal(size=(5, n)))
            K = hull(gen.normal(size=(n + 5, n)))
            oracle = mixed_volume_inclusion_exclusion(
                [zonotope_to_vpolytope(Z)] * (n - 1) + [K])
            assert v1(Z, K) == pytest.approx(oracle, rel=1e-9)
            if n == 3:
                oracle = mixed_volume_inclusion_exclusion(
                    [zonotope_to_vpolytope(Z), zonotope_to_vpolytope(W), K])
                assert mixed_volume([Z, W, K]) == pytest.approx(oracle, rel=1e-9)

    def test_tiny_zonotopes_keep_their_mass(self):
        # V(Z, ..., Z, K) and V(Z, W, K) are homogeneous in the zonotopes, down
        # to generators of size 1e-6, whose atoms |g x h| are near 1e-12
        gen = np.random.default_rng(76)
        for n in (2, 3):
            Z = gen.normal(size=(6, n))
            W = gen.normal(size=(5, n))
            K = hull(gen.normal(size=(n + 5, n)))
            s = 1e-6
            assert v1(Zonotope(s * Z), K) == pytest.approx(
                s ** (n - 1) * v1(Zonotope(Z), K), rel=1e-12)
            if n == 3:
                assert mixed_volume([Zonotope(s * Z), Zonotope(s * W), K]) == pytest.approx(
                    s * s * mixed_volume([Zonotope(Z), Zonotope(W), K]), rel=1e-12)

    def test_two_zonotopes_in_space_read_the_kernels_closed_form(self):
        # the edge crossings of two zonotopes' whole-circle edges 2g give the
        # stacked kernel's Pi(Z_A, Z_B), h(u) = 2 sum |<a_i x b_j, u>|, bit for bit,
        # with zero, repeated and parallel generators among them
        gen = np.random.default_rng(78)
        for k, l in itertools.product((1, 2, 5, 9), (1, 3, 8)):
            A, B = gen.normal(size=(k, 3)), gen.normal(size=(l, 3))
            A[0] = 0.0 if k == 5 else A[0]
            B[-1] = -2.5 * A[-1] if l == 3 else B[-1]
            A[:2] = A[0] if k == 9 else A[:2]
            w = mixed.mixed_projection_generators(A[None], B[None])[0]
            norms = np.linalg.norm(w, axis=1)
            w, norms = w[norms > 0.0], norms[norms > 0.0]
            normals, masses = mixed.mixed_area_measure([Zonotope(A), Zonotope(B)])
            np.testing.assert_array_equal(normals, np.concatenate([w, -w]) / np.tile(norms, 2)[:, None])
            np.testing.assert_array_equal(masses, np.tile(norms, 2))

    def test_zonotopes_past_space_are_refused(self):
        # the measure exists in dimension 2 or 3 only, whatever the bodies
        gen = np.random.default_rng(77)
        Z, W = (Zonotope(gen.normal(size=(6, 4))) for _ in range(2))
        with pytest.raises(GeometryError, match="dimension 2 or 3"):
            v1(Z, W)
        with pytest.raises(GeometryError, match="dimension 2 or 3"):
            mixed_volume([Z, W, Z, W])

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


def test_a_flat_body_has_no_centroid():
    flat = hull(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(GeometryError, match="centroid needs a full-dimensional body"):
        mixed.centroid(flat)


def test_a_mixed_functional_needs_its_count_of_bodies_in_one_dimension():
    square, cube = cube_body(2), cube_body(3)
    for call, got in ((lambda: mixed.mixed_area_measure([]), 0),
                      (lambda: mixed.mixed_area_measure([square, square]), 2),
                      (lambda: mixed.mixed_area_measure([cube, square]), 2),
                      (lambda: mixed_volume([square]), 1)):
        with pytest.raises(GeometryError, match=f"bodies of one dimension n, got {got}$"):
            call()

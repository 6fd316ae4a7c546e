import numpy as np
import pytest

from pettylab import (
    VPolytope,
    Density,
    GeometryError,
    ShadowSystem,
    ball_body,
    chord_profiles,
    chord_shadow_system,
    cube_body,
    hull,
    rearrange_body,
    shadow_at,
    solid_simplex,
    sphere_directions,
    steiner_step_expectation,
    steiner_symmetrize,
    support,
    vertex_set_distance,
    volume,
)
from pettylab.bodies import facet_planes, reduced_form
from pettylab.mixed import facets, triangulation_edges
from pettylab import symmetrize
from pettylab.symmetrize import (
    CROSSING_BLOCK_ENTRIES,
    PARALLEL_TOL,
    SNAP_TOL,
    _frame,
    _plane_heights,
    _segment_crossings,
    _unit,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def reflected(K, u):
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    return hull(K.vertices - 2.0 * np.outer(K.vertices @ u, u))


def assert_mirror_symmetric(S, u, tol=1e-9):
    U = sphere_directions(S.dim, 40)
    R = U - 2.0 * np.outer(U @ u, u)
    for a, b in zip(U, R):
        assert support(S, a) == pytest.approx(support(S, b), abs=tol)


def chord_profiles_loop(K, u):
    """Reference for ``chord_profiles``: one breakpoint, then one edge, at a
    time."""
    u = _unit(u)
    coords = reduced_form(K).vertices @ _frame(u).T
    s_vals, t_vals = coords[:, 0], coords[:, 1]
    scale = max(1.0, float(np.max(np.abs(coords))))
    breaks = np.unique(np.round(s_vals / (SNAP_TOL * scale)) * (SNAP_TOL * scale))
    k = len(coords)
    f = np.full(len(breaks), -np.inf)
    g = np.full(len(breaks), np.inf)
    for idx, s in enumerate(breaks):
        at = np.abs(s_vals - s) <= SNAP_TOL * scale
        if np.any(at):
            f[idx] = max(f[idx], float(t_vals[at].max()))
            g[idx] = min(g[idx], float(t_vals[at].min()))
        for a in range(k):
            b = (a + 1) % k
            sa, sb = s_vals[a], s_vals[b]
            if (sa < s < sb) or (sb < s < sa):
                t = t_vals[a] + (s - sa) / (sb - sa) * (t_vals[b] - t_vals[a])
                f[idx] = max(f[idx], t)
                g[idx] = min(g[idx], t)
    return breaks, g, f


def triangulation_edges_loop(R):
    """Reference for ``triangulation_edges``: each triangle's edges one at a
    time, as (p, q, x, facet) in the triangle's vertex order with the vertex
    x off the edge, gathered under the edge's sorted ends."""
    S, label = facet_planes(R)[2].simplices, facets(R).labels
    halves = {}
    for t, tri in enumerate(S.tolist()):
        for i in range(3):
            p, q, x = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            halves.setdefault((min(p, q), max(p, q)), set()).add((p, q, x, int(label[t])))
    return halves


def steiner_edge_classes_loop(R, u):
    """Oracle for the edge lists of ``_steiner_3d``: the hull's edges from
    a set of sorted pairs, then the edges with both ends on an upper (lower)
    facet plane of R along u, one edge at a time."""
    fac = facets(R)
    _, _, qh = facet_planes(R)
    edges = set()
    for simplex in qh.simplices:
        for a in range(3):
            for b in range(a + 1, 3):
                edges.add((min(simplex[a], simplex[b]), max(simplex[a], simplex[b])))
    edges = np.array(sorted(edges))
    dots = fac.normals @ u
    classes = []
    for mask in (dots > PARALLEL_TOL, dots < -PARALLEL_TOL):
        vals = R.vertices @ fac.normals[mask].T - fac.offsets[mask][None, :]
        on = np.abs(vals) < 1e-9 * max(1.0, float(np.max(np.abs(R.vertices))))
        classes.append(np.array([e for e, (a, b) in enumerate(edges)
                                 if np.any(on[a] & on[b])], dtype=int))
    return edges, classes


def segment_crossings_one_block(segs_a, segs_b):
    """Reference for ``_segment_crossings``: every (a, b) pair in one array."""
    p1 = segs_a[:, None, 0, :]
    d1 = (segs_a[:, 1, :] - segs_a[:, 0, :])[:, None, :]
    q1 = segs_b[None, :, 0, :]
    d2 = (segs_b[:, 1, :] - segs_b[:, 0, :])[None, :, :]
    denom = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    ok = np.abs(denom) > 1e-14
    denom_safe = np.where(ok, denom, 1.0)
    r = q1 - p1
    t = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / denom_safe
    s = (r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]) / denom_safe
    hit = ok & (t >= -1e-12) & (t <= 1 + 1e-12) & (s >= -1e-12) & (s <= 1 + 1e-12)
    return (p1 + t[..., None] * d1)[hit]


def plane_heights_one_block(X, normals, offsets, B, reduce):
    """Reference for ``_plane_heights``: every (point, plane) pair in one array."""
    A = normals @ B[:2].T
    base = X[:, None, 0] * A[:, 0] + X[:, None, 1] * A[:, 1]
    return reduce((offsets - base) / (normals @ B[2]), axis=1)


class TestChordProfiles:
    def test_equal_the_loop_reference_bit_for_bit(self):
        gen = np.random.default_rng(61)
        bodies = [hull(gen.normal(size=(int(gen.integers(3, 30)), 2))) for _ in range(40)]
        # a 400-gon spans several blocks of breakpoints
        bodies += [cube_body(2), solid_simplex(2), ball_body(2), ball_body(2, facets=400),
                   VPolytope(np.array([[0.0, 0.0], [2.0, 1.0]]), reduced=True)]
        for K in bodies:
            for u in (E1, E2, gen.normal(size=2)):
                got, want = chord_profiles(K, u), chord_profiles_loop(K, u)
                for x, y in zip(got, want):
                    assert x.tobytes() == y.tobytes()

    def test_square_chords(self):
        breaks, g, f = chord_profiles(cube_body(2), E2)
        assert breaks == pytest.approx([-1.0, 1.0])
        assert f == pytest.approx([1.0, 1.0])
        assert g == pytest.approx([-1.0, -1.0])

    def test_triangle_chords(self):
        breaks, g, f = chord_profiles(solid_simplex(2), E2)
        assert breaks == pytest.approx([-1.0, 0.0])
        assert g == pytest.approx([0.0, 0.0])
        assert f == pytest.approx([0.0, 1.0])

    def test_profiles_are_planar_only(self):
        with pytest.raises(GeometryError):
            chord_profiles(cube_body(3), np.array([0.0, 0.0, 1.0]))


class TestSteiner:
    def test_symmetric_body_is_fixed(self):
        S = steiner_symmetrize(cube_body(2), E1)
        assert vertex_set_distance(S, cube_body(2)) <= 1e-12

    def test_planar_area_is_preserved_exactly(self):
        gen = np.random.default_rng(50)
        for _ in range(10):
            K = hull(gen.normal(size=(8, 2)))
            u = gen.normal(size=2)
            S = steiner_symmetrize(K, u)
            assert volume(S) == pytest.approx(volume(K), rel=1e-12)
            assert_mirror_symmetric(S, u / np.linalg.norm(u))

    def test_spatial_volume_is_preserved(self):
        gen = np.random.default_rng(51)
        for _ in range(6):
            K = hull(gen.normal(size=(9, 3)))
            u = gen.normal(size=3)
            u /= np.linalg.norm(u)
            S = steiner_symmetrize(K, u)
            assert volume(S) == pytest.approx(volume(K), rel=1e-8)
            assert_mirror_symmetric(S, u, tol=1e-7)

    def test_edge_classes_equal_the_loop_reference(self):
        # 3-round chains of 12-point hulls, whose symmetrals carry many
        # nearly coplanar triangles, and the cube, whose facets are split
        gen = np.random.default_rng(53)
        cases = diagonals = 0
        for K in [cube_body(3)] + [hull(gen.normal(size=(12, 3))) for _ in range(5)]:
            for _ in range(3):
                u = _unit(gen.normal(size=3))
                R = reduced_form(K)
                want = triangulation_edges_loop(R)
                p, q, x, y, a, b = (v.tolist() for v in triangulation_edges(R))
                ends = [(min(e), max(e)) for e in zip(p, q)]
                assert ends == sorted(want)
                for i, e in enumerate(ends):
                    assert (p[i], q[i], x[i], a[i]) in want[e]
                    assert {(x[i], a[i]), (y[i], b[i])} == {h[2:] for h in want[e]}
                # every upper (lower) edge has both ends on an upper (lower)
                # facet plane; the oracle's other edges are diagonals
                loop_edges, loop_classes = steiner_edge_classes_loop(R, u)
                assert [tuple(e) for e in loop_edges.tolist()] == ends
                dots = facets(R).normals @ u
                true = np.array(a) != np.array(b)
                sides = np.column_stack([a, b])
                for mask, oracle in zip((dots > PARALLEL_TOL, dots < -PARALLEL_TOL), loop_classes):
                    got = np.flatnonzero(true & mask[sides].any(axis=1))
                    assert len(got) and set(got) <= set(oracle)
                    assert not true[np.setdiff1d(oracle, got)].any()
                    cases += 1
                diagonals += np.count_nonzero(~true)
                K = steiner_symmetrize(K, u)
        assert cases == 36 and diagonals > 0

    @pytest.mark.parametrize("tilt", [1e-4, 1e-6, 1e-8, 1e-9, 1e-10])
    def test_volume_holds_along_a_direction_near_a_facet_plane(self, tilt):
        # u within ``tilt`` of a random facet plane: that facet is nearly
        # parallel to u, and its silhouette chords can come out slightly
        # negative (about -1e-8) before they are clamped to zero
        gen = np.random.default_rng(56)
        worst = 0.0
        for _ in range(40):
            K = hull(gen.normal(size=(int(gen.integers(6, 20)), 3)))
            normals = facets(K).normals
            n = normals[gen.integers(len(normals))]
            S = steiner_symmetrize(K, _unit(np.cross(n, gen.normal(size=3))) + tilt * n)
            worst = max(worst, abs(volume(S) / volume(K) - 1.0))
        assert worst <= 1e-5

    def test_segment_crossings_equal_one_block_bit_for_bit(self):
        gen = np.random.default_rng(54)
        # 400 x 300 pairs span several blocks; one upper segment spans one
        for na, nb in ((400, 300), (1, 300), (7, 2 * CROSSING_BLOCK_ENTRIES)):
            a, b = gen.random(size=(na, 2, 2)), gen.random(size=(nb, 2, 2))
            got, want = _segment_crossings(a, b), segment_crossings_one_block(a, b)
            assert len(got) > 0 and got.tobytes() == want.tobytes()

    def test_a_chain_round_does_not_depend_on_the_blocks(self, monkeypatch):
        # the third round of a 3-D chain from 12 Gaussian points: its
        # candidates x facets span several blocks of heights
        gen = np.random.default_rng(1003)
        K = hull(gen.normal(size=(12, 3)))
        for _ in range(2):
            K = steiner_symmetrize(K, _unit(gen.normal(size=3)))
        u = _unit(gen.normal(size=3))
        R, B = reduced_form(K), _frame(u)
        fac = facets(R)
        X = np.vstack([R.vertices @ B[:2].T, gen.normal(size=(1000, 2))])
        for mask, reduce in ((fac.normals @ u > PARALLEL_TOL, np.min),
                             (fac.normals @ u < -PARALLEL_TOL, np.max)):
            assert len(X) * np.count_nonzero(mask) > 2 * CROSSING_BLOCK_ENTRIES
            args = (X, fac.normals[mask], fac.offsets[mask], B, reduce)
            assert _plane_heights(*args).tobytes() == plane_heights_one_block(*args).tobytes()
        want = steiner_symmetrize(K, u).vertices
        for entries in (1, 1 << 40):
            monkeypatch.setattr(symmetrize, "CROSSING_BLOCK_ENTRIES", entries)
            assert steiner_symmetrize(K, u).vertices.tobytes() == want.tobytes()

    def test_square_along_diagonal(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        S = steiner_symmetrize(cube_body(2), u)
        assert volume(S) == pytest.approx(4.0, rel=1e-12)
        assert_mirror_symmetric(S, u)

    def test_width_shrinks_toward_the_direction(self):
        gen = np.random.default_rng(52)
        K = hull(gen.normal(size=(8, 2)) + np.array([3.0, -1.0]))
        u = np.array([1.0, 0.0])
        S = steiner_symmetrize(K, u)
        assert support(S, u) + support(S, -u) <= (
            support(K, u) + support(K, -u) + 1e-9
        )


class TestRearrange:
    def test_volume_is_exact_and_round(self):
        gen = np.random.default_rng(53)
        for n in (2, 3):
            K = hull(gen.normal(size=(n + 6, n)))
            B = rearrange_body(K)
            assert volume(B) == pytest.approx(volume(K), rel=1e-12)
            U = sphere_directions(n, 100)
            vals = B.support_batch(U)
            assert vals.max() / vals.min() - 1.0 < 0.05


class TestShadowSystems:
    def test_chord_system_interpolates_the_three_bodies(self):
        gen = np.random.default_rng(54)
        K = hull(gen.normal(size=(7, 2)))
        u = gen.normal(size=2)
        u /= np.linalg.norm(u)
        sys = chord_shadow_system(K, u)
        assert vertex_set_distance(shadow_at(sys, 0.0), K) <= 1e-9
        assert vertex_set_distance(shadow_at(sys, 1.0), reflected(K, u)) <= 1e-9
        assert (
            vertex_set_distance(shadow_at(sys, 0.5), steiner_symmetrize(K, u))
            <= 1e-9
        )

    def test_volume_is_convex_along_the_parameter(self):
        gen = np.random.default_rng(55)
        for _ in range(5):
            K = hull(gen.normal(size=(8, 2)))
            u = gen.normal(size=2)
            sys = chord_shadow_system(K, u)
            t = np.linspace(0.0, 1.0, 9)
            v = np.array([volume(shadow_at(sys, s)) for s in t])
            mid = (v[:-2] + v[2:]) / 2.0
            assert np.all(v[1:-1] <= mid + 1e-9)

    def test_speeds_must_match_points(self):
        with pytest.raises(GeometryError):
            ShadowSystem(np.eye(2), np.array([1.0]), E1)


class TestExpectationPairs:
    def test_second_moment_drops_after_symmetrization(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        R = np.array([[c, -s], [s, c]])
        slab = np.array(
            [[3.0, 0.2], [3.0, -0.2], [-3.0, 0.2], [-3.0, -0.2]]
        )
        K = hull(slab @ R.T)

        def trial(densities, rng):
            return float(densities[0].sample(rng.generator(), 1)[0, 0] ** 2)

        orig, sym = steiner_step_expectation(
            trial, [Density.uniform(K)], E1, trials=4000, seed=3
        )
        assert sym.mean + 3.0 * sym.stderr < orig.mean - 3.0 * orig.stderr

    def test_gaussian_densities_are_rejected(self):
        with pytest.raises(GeometryError):
            steiner_step_expectation(
                lambda d, r: 0.0, [Density.gaussian(2)], E1, trials=2, seed=0
            )


@pytest.mark.parametrize("call, message", [
    (lambda: steiner_symmetrize(cube_body(2), [0.0, 0.0]), "direction must be nonzero"),
    (lambda: steiner_symmetrize(hull(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])),
                                [0.0, 0.0, 1.0]),
     "Steiner symmetrization needs a full-dimensional body"),
    (lambda: steiner_symmetrize(VPolytope(cube_body(4).vertices), np.eye(4)[0]),
     "Steiner symmetrization supports dimension 2 or 3"),
    (lambda: rearrange_body(hull(np.array([[0.0, 0.0], [1.0, 0.0]]))),
     "rearrangement needs a full-dimensional body"),
], ids=["zero-direction", "flat-3-d", "dimension-4", "rearrange-flat"])
def test_each_refusal_raises_its_own_message(call, message):
    with pytest.raises(GeometryError, match=message):
        call()

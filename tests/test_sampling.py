import math

import numpy as np
import pytest

from pettylab import (
    ConfigError,
    Density,
    GeometryError,
    RngStream,
    Zonotope,
    cube_body,
    hull,
    solid_simplex,
    support,
    unit_ball_volume,
    volume,
    zonotope_to_vpolytope,
)
from pettylab import verify
from pettylab.harness import SPECS, CSet, _density
from pettylab.sampling import INDEX_LIMIT, cumulative_weights, draw_block, draw_per_trial


def seed_sequence_keys(seed, key, indices):
    """The Philox keys numpy's SeedSequence gives the streams key + (i,)."""
    return np.array([np.random.SeedSequence(seed, spawn_key=tuple(key) + (i,))
                     .generate_state(2, np.uint64) for i in indices])


class TestRngStream:
    def test_same_key_same_stream(self):
        a = RngStream(7, (3, 11)).generator().random(8)
        b = RngStream(7, (3, 11)).generator().random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = RngStream(7, (3, 11)).generator().random(8)
        b = RngStream(7, (3, 12)).generator().random(8)
        c = RngStream(8, (3, 11)).generator().random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_extends_the_key(self):
        s = RngStream(5)
        assert s.child(1, 2) == RngStream(5, (1, 2))
        assert s.child(1).child(2) == RngStream(5, (1, 2))

    def test_trial_streams_are_uncorrelated(self):
        root = RngStream(123)
        draws = np.stack(
            [root.child(0, t).generator().random(64) for t in range(40)]
        )
        corr = np.corrcoef(draws)
        off = corr[~np.eye(40, dtype=bool)]
        assert np.abs(off).max() < 0.55


class TestChildKeys:
    # 2**64 + 3 is three words of entropy
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("first, count", [(0, 1), (5, 7), (0, 40)])
    def test_keys_equal_seed_sequence(self, seed, first, count):
        for side in (0, 1):
            got = RngStream(seed, (side,)).child_keys(first, count)
            assert got.dtype == np.uint64 and got.shape == (count, 2)
            assert np.array_equal(got, seed_sequence_keys(seed, (side,), range(first, first + count)))

    # the hash constant after the pool counts every word the seed and key
    # spell: seeds of five and seven words, past the pool of four; a
    # two-part key; a key word past 2^32, which spells two words; and the
    # empty key, whose seed SeedSequence pads only in the children
    @pytest.mark.parametrize("seed, key", [(2**128 + 5, (0,)), (2**200 + 1, (1,)), (9, (0, 4)),
                                           (2**200 + 1, (0, 4)), (11, (2**32 + 7,)),
                                           (3, (1, 2**64)), (0, ()), (2**32, ()),
                                           (2**128 + 5, ())])
    def test_seeds_and_keys_of_any_length(self, seed, key):
        got = RngStream(seed, key).child_keys(3, 6)
        assert np.array_equal(got, seed_sequence_keys(seed, key, range(3, 9)))

    @pytest.mark.parametrize("count", [1, 2, 9])
    def test_the_last_index_word(self, count):
        first = INDEX_LIMIT - count
        got = RngStream(7, (1,)).child_keys(first, count)
        assert np.array_equal(got, seed_sequence_keys(7, (1,), range(first, INDEX_LIMIT)))

    @pytest.mark.parametrize("first, count", [(INDEX_LIMIT, 1), (INDEX_LIMIT - 1, 2), (-1, 1)])
    def test_an_index_past_one_word_is_an_error(self, first, count):
        with pytest.raises(ValueError, match=r"child indices must lie in \[0, 2\*\*32\)"):
            RngStream(7, (1,)).child_keys(first, count)

    def test_lln_row_keys(self):
        spec = SPECS["lln"]({"dim": 2, "seed": 2**40 + 9, "trials": 4, "body": {"type": "cube", "dim": 2},
                             "m1_list": [4, 6, 5], "m2_list": [4, 3, 8]})
        for row in range(3):
            got = RngStream(spec.seed, (row,)).child_keys(11, 9)
            assert np.array_equal(got, seed_sequence_keys(spec.seed, (row,), range(11, 20)))
            want = draw_per_trial(RngStream(spec.seed, (row,)), 11, 9, spec.blocks[row])
            for a, b in zip(spec.stacked(row, 11, 9), want):
                assert a.tobytes() == b.tobytes()

    def test_keys_seed_the_trial_generators(self):
        k0, k1 = RngStream(3, (0,)).child_keys(4, 1)[0]
        state = RngStream(3, (0, 4)).generator().bit_generator.state
        assert list(state["state"]["key"]) == [k0, k1]


class TestBlockDraws:
    @staticmethod
    def draws(dim):
        gen = np.random.default_rng(dim)
        return [(Density.uniform(hull(gen.normal(size=(9, dim)))), 4),
                (Density.ball(dim, 1.3), 3), (Density.gaussian(dim, 0.7), 2),
                (Density.uniform(cube_body(dim)), 1)]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("count", [1, 2, 7, 64])
    def test_blocks_equal_the_per_trial_route(self, dim, count):
        draws = self.draws(dim)
        for subset in (draws, draws[1:2], draws[2::-1]):
            stream = RngStream(2**33 + count, (1,))
            got = draw_block(stream, 3, count, subset)
            want = draw_per_trial(stream, 3, count, subset)
            for a, b, (density, m) in zip(got, want, subset):
                assert a.shape == (count, m, dim) and a.tobytes() == b.tobytes()

    def test_dirichlet_of_ones_normalizes_standard_exponentials(self):
        # the assumption the uniform block finish rests on, on this numpy:
        # dirichlet(ones(k)) draws a (size, k) standard exponential block from
        # the same stream, sums each row in order and multiplies by 1 / sum
        for seed in range(50):
            for k in (3, 4):
                a, b = (RngStream(seed, (0, k)).generator() for _ in range(2))
                want = a.dirichlet(np.ones(k), size=6)
                E = b.standard_exponential((6, k))
                acc = np.zeros(6)
                for j in range(k):
                    acc = acc + E[:, j]
                assert want.tobytes() == (E * (1.0 / acc)[:, None]).tobytes()
                assert a.random() == b.random()

    def test_the_oracle_check_passes(self):
        ok, detail = verify.check_block_streams(3)
        assert ok, detail


class TestDensity:
    def test_uniform_triangle_moments(self):
        T = solid_simplex(2)
        pts = Density.uniform(T).sample(np.random.default_rng(40), 200_000)
        x, y = pts[:, 0], pts[:, 1]
        assert x.mean() == pytest.approx(1.0 / 3.0, abs=3e-3)
        assert (x**2).mean() == pytest.approx(1.0 / 6.0, abs=3e-3)
        assert (x * y).mean() == pytest.approx(1.0 / 12.0, abs=3e-3)

    def test_uniform_samples_stay_inside(self):
        gen = np.random.default_rng(41)
        K = hull(gen.normal(size=(7, 2)))
        pts = Density.uniform(K).sample(gen, 5000)
        for u in gen.normal(size=(6, 2)):
            assert (pts @ u).max() <= support(K, u) + 1e-9

    def test_ball_radius_distribution(self):
        d = Density.ball(3, 2.0)
        pts = d.sample(np.random.default_rng(42), 100_000)
        r = np.sort(np.linalg.norm(pts, axis=1))
        assert r.max() <= 2.0
        # empirical CDF against (t/R)^n
        ecdf = np.arange(1, len(r) + 1) / len(r)
        assert np.abs(ecdf - (r / 2.0) ** 3).max() < 0.01

    def test_gaussian_moments(self):
        d = Density.gaussian(2, sigma=1.5)
        pts = d.sample(np.random.default_rng(43), 200_000)
        assert np.abs(pts.mean(axis=0)).max() < 0.02
        cov = np.cov(pts.T)
        assert np.abs(cov - 2.25 * np.eye(2)).max() < 0.03

    def test_uniform_needs_full_dimension(self):
        seg = hull(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(GeometryError):
            Density.uniform(seg)

    def test_rearrangement_preserves_volume(self):
        gen = np.random.default_rng(44)
        K = hull(gen.normal(size=(8, 3)))
        d = Density.uniform(K).rearranged()
        assert d.kind == "ball"
        assert unit_ball_volume(3) * d.radius**3 == pytest.approx(
            volume(K), rel=1e-12
        )
        g = Density.gaussian(2)
        assert g.rearranged() is g

    def test_from_literal(self):
        d = _density(
            {"type": "uniform", "body": {"type": "cube", "dim": 2}}, "density", 2
        )
        assert d.kind == "uniform"
        r = _density(
            {"type": "uniform", "body": {"type": "cube", "dim": 2},
             "rearranged": True}, "density", 2
        )
        assert r.kind == "ball"
        g = _density({"type": "gaussian", "sigma": 0.5}, "density", 3)
        assert g.sigma == 0.5 and g.dim == 3
        with pytest.raises(ConfigError):
            _density({"type": "cauchy"}, "density", 2)
        with pytest.raises(ConfigError):
            _density(
                {"type": "uniform", "body": {"type": "cube", "dim": 3}}, "density", 2
            )

    def test_cumulative_weights_draw_what_choice_draws(self):
        # the same indices from the same stream state, checked by the
        # dirichlet draw that follows, as Density.sample makes it
        cases = np.random.default_rng(70)
        for _ in range(300):
            n = int(cases.integers(1, 40))
            w = cases.random(n) ** float(cases.choice([1.0, 3.0, 8.0]))
            w /= w.sum()
            count = int(cases.integers(0, 40))
            stream = RngStream(int(cases.integers(0, 2 ** 31)), (0, int(cases.integers(0, 100))))
            a, b = stream.generator(), stream.generator()
            want = a.choice(n, size=count, p=w)
            got = cumulative_weights(w).searchsorted(b.random(count), side="right")
            assert np.array_equal(got, want)
            assert np.array_equal(a.dirichlet(np.ones(4), size=count),
                                  b.dirichlet(np.ones(4), size=count))

    @pytest.mark.parametrize("points", [4, 9, 30])
    def test_uniform_sample_matches_the_choice_draw(self, points):
        gen = np.random.default_rng(71 + points)
        d = Density.uniform(hull(gen.normal(size=(points, 3))))
        tri, _ = d._triangulation()
        corners = tri.points[tri.simplices]
        vols = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])) / 6.0
        w = vols / vols.sum()
        for seed in range(20):
            count = int(gen.integers(1, 12))
            a, b = RngStream(seed, (1, 2)).generator(), RngStream(seed, (1, 2)).generator()
            idx = a.choice(len(w), size=count, p=w)
            bary = a.dirichlet(np.ones(4), size=count)
            want = np.einsum("kj,kjd->kd", bary, corners[idx])
            assert np.array_equal(d.sample(b, count), want)
            assert a.random() == b.random()

    def test_uniform_draws_keep_only_the_triangulation(self):
        # a ball literal's polar triangulation holds about 1e5 vertices, so
        # the corners of its simplices are gathered per draw, not tabled
        d = Density.uniform(cube_body(3))
        before = set(vars(d))
        d.sample(np.random.default_rng(0), 8)
        assert set(vars(d)) == before

    def test_densities_on_one_body_share_its_triangulation(self, monkeypatch):
        import pickle

        from pettylab import sampling

        calls = []

        def counted(points):
            calls.append(len(points))
            return real(points)

        real = sampling.Delaunay
        monkeypatch.setattr(sampling, "Delaunay", counted)
        K = cube_body(3)
        for d in (Density.uniform(K), Density.uniform(K)):
            d.sample(np.random.default_rng(0), 4)
        assert calls == [8]
        # a pickled body keeps nothing it derived, so its copy triangulates again
        copy = pickle.loads(pickle.dumps(Density.uniform(K)))
        copy.sample(np.random.default_rng(0), 4)
        assert calls == [8, 8]

    def test_pickle_round_trip(self):
        import pickle

        d = Density.uniform(cube_body(2))
        d.sample(np.random.default_rng(0), 4)
        copy = pickle.loads(pickle.dumps(d))
        a = copy.sample(np.random.default_rng(1), 16)
        b = d.sample(np.random.default_rng(1), 16)
        assert np.array_equal(a, b)


class TestBlocksAndBuilders:
    BLOCK = {"density": {"type": "uniform", "body": {"type": "cube", "dim": 2}}, "m": 2}
    CONFIG = {"blocks": [BLOCK], "c_sets": [{"kind": "simplex", "m": 2}]}

    def test_block_spec_rejects_empty_block(self):
        with pytest.raises(ConfigError, match=r"blocks\[0\]\.m"):
            SPECS["empmixed"](dict(self.CONFIG, blocks=[dict(self.BLOCK, m=0)]))

    def test_block_rearrangement_is_columnwise(self):
        spec = SPECS["empmixed"](self.CONFIG)
        (density, m), = spec.blocks[1]
        assert density.kind == "ball" and m == 2
        assert density.radius == pytest.approx(math.sqrt(4.0 / math.pi), rel=1e-12)

    def test_random_lp_endpoints(self):
        X = Density.gaussian(2).sample(RngStream(15).generator(), 4)
        K1 = CSet.from_literal({"kind": "bp", "m": 4, "p": 1.0}).body(X)
        assert volume(K1) == pytest.approx(volume(hull(np.vstack([X, -X]))))
        Kinf = CSet.from_literal({"kind": "bp", "m": 4, "p": math.inf}).body(X)
        assert volume(zonotope_to_vpolytope(Kinf)) == pytest.approx(
            volume(zonotope_to_vpolytope(Zonotope(X)))
        )
        with pytest.raises(ConfigError):
            CSet.from_literal({"kind": "bp", "m": 4, "p": 0.5})

    def test_random_l2_body_is_an_ellipse_image(self):
        X = Density.gaussian(2).sample(RngStream(16).generator(), 2)
        K = CSet.from_literal({"kind": "bp", "m": 2, "p": 2.0}).body(X)
        gen = np.random.default_rng(17)
        for u in gen.normal(size=(8, 2)):
            assert support(K, u) == pytest.approx(
                np.linalg.norm(X @ u), rel=1e-2
            )

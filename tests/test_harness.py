import json
import math
import pickle

import numpy as np
import pytest

from pettylab import GeometryError, MSpec, cli, harness, hull, lp_ball_body, m_add, volume
from pettylab.harness import (
    THREADS_ENV,
    ConfigError,
    TrialError,
    build_c_set,
    c_set_body,
    estimate,
    lln_target,
    report_to_csv,
    report_to_json,
    resolve_threads,
    run_emp_petty_2,
    run_lln,
    run_theorem_1_2,
)
from pettylab.mixed import v1
from pettylab.projections import support_evaluator_of
from pettylab.sampling import Density, RngStream
from pettylab.verify import mixed_volume_inclusion_exclusion, planar_test_clouds
from pettylab.bodies import sphere_directions, support

SQUARE = {"type": "cube", "dim": 2}
TRIANGLE = {"type": "simplex", "dim": 2}

THM12_SMALL = {
    "dim": 2,
    "seed": 5,
    "trials": 40,
    "blocks": [{"density": {"type": "gaussian"}, "m": 3}],
    "c_set": {"kind": "simplex", "m": 3},
}


class TestValidation:
    def test_dimension_gate(self):
        bad = dict(THM12_SMALL, dim=4)
        with pytest.raises(ConfigError):
            run_theorem_1_2(bad)

    def test_trials_gate(self):
        with pytest.raises(ConfigError):
            run_theorem_1_2(dict(THM12_SMALL, trials=0))

    def test_block_count(self):
        bad = dict(THM12_SMALL)
        bad["blocks"] = bad["blocks"] * 2
        with pytest.raises(ConfigError):
            run_theorem_1_2(bad)

    def test_c_set_size_must_match_block(self):
        bad = dict(THM12_SMALL, c_set={"kind": "simplex", "m": 4})
        with pytest.raises(ConfigError):
            run_theorem_1_2(bad)

    def test_lebesgue_needs_full_dimensional_images(self):
        bad = dict(
            THM12_SMALL,
            blocks=[{"density": {"type": "gaussian"}, "m": 2}],
            c_set={"kind": "simplex", "m": 2},
        )
        with pytest.raises(ConfigError):
            run_theorem_1_2(bad)

    def test_bp_rejects_bad_exponents(self):
        with pytest.raises(ConfigError):
            build_c_set({"kind": "bp", "m": 2, "p": 0.5}, 2)
        with pytest.raises(ConfigError):
            build_c_set({"kind": "bp", "m": 5, "p": 2.0}, 2)

    def test_msum_components_must_be_balls(self):
        with pytest.raises(ConfigError):
            build_c_set(
                {"kind": "msum",
                 "components": [{"kind": "simplex", "m": 2},
                                {"kind": "bp", "m": 2, "p": 2.0}]},
                2,
            )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_c_set({"kind": "orlicz", "m": 2}, 2)

    @pytest.mark.parametrize(
        "quadrature, key",
        [
            ({"certify": True}, "quadrature.certify"),
            ({"nodes": 0}, "quadrature.nodes"),
            ({"nodes": -64}, "quadrature.nodes"),
            ({"nodes": 64.5}, "quadrature.nodes"),
            ({"nodes": "64"}, "quadrature.nodes"),
            ({"nodes": True}, "quadrature.nodes"),
        ],
    )
    def test_quadrature_block_is_honoured_or_rejected(self, quadrature, key):
        with pytest.raises(ConfigError, match=key):
            run_theorem_1_2(dict(THM12_SMALL, quadrature=quadrature))

    def test_quadrature_node_count_is_accepted(self):
        config = dict(THM12_SMALL, trials=3, quadrature={"nodes": 64, "certify": False})
        assert run_theorem_1_2(config)["trials"] == 3

    def test_threads_resolution(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert resolve_threads(None) == 1
        assert resolve_threads(4) == 4
        with pytest.raises(ConfigError):
            resolve_threads(0)
        monkeypatch.setenv(THREADS_ENV, "3")
        assert resolve_threads(1) == 3
        monkeypatch.setenv(THREADS_ENV, "zero")
        with pytest.raises(ConfigError):
            resolve_threads(None)
        monkeypatch.setenv(THREADS_ENV, "0")
        with pytest.raises(ConfigError):
            resolve_threads(None)

    def test_unknown_functional(self):
        with pytest.raises(ConfigError):
            estimate("petty_product", THM12_SMALL)


class TestCSets:
    def test_cube_matches_unit_ball_image(self):
        gen = np.random.default_rng(60)
        X = gen.normal(size=(3, 2))
        a = c_set_body(build_c_set({"kind": "cube", "m": 3}, 2), X)
        b = c_set_body(build_c_set({"kind": "bp", "m": 3, "p": math.inf}, 2), X)
        assert np.array_equal(a.generators, b.generators)

    def test_crosspolytope_image_is_a_signed_hull(self):
        gen = np.random.default_rng(61)
        X = gen.normal(size=(3, 2))
        body = c_set_body(build_c_set({"kind": "bp", "m": 3, "p": 1.0}, 2), X)
        assert volume(body) == pytest.approx(
            volume(hull(np.vstack([X, -X]))), rel=1e-12
        )

    def test_msum_with_l1_pattern_is_a_minkowski_sum(self):
        spec = {
            "kind": "msum",
            "components": [
                {"kind": "bp", "m": 2, "p": 2.0},
                {"kind": "bp", "m": 2, "p": 2.0},
            ],
            "M": {"p": 1.0},
        }
        cset = build_c_set(spec, 2)
        assert cset["kind"] == "explicit" and cset["m"] == 4
        gen = np.random.default_rng(62)
        X = gen.normal(size=(4, 2))
        body = c_set_body(cset, X)
        ball = lp_ball_body(2, 2.0)
        A = hull(ball.vertices @ X[:2])
        B = hull(ball.vertices @ X[2:])
        known = m_add(MSpec.lp(1.0), [A, B])
        assert volume(body) == pytest.approx(volume(known), rel=1e-9)
        for u in sphere_directions(2, 16):
            assert support(body, u) == pytest.approx(support(known, u), rel=1e-9)

    def test_msum_with_cross_pattern_is_a_convex_union(self):
        spec = {
            "kind": "msum",
            "components": [
                {"kind": "bp", "m": 2, "p": 2.0},
                {"kind": "bp", "m": 2, "p": 2.0},
            ],
            "M": {"type": "polygon",
                  "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
        }
        cset = build_c_set(spec, 2)
        gen = np.random.default_rng(63)
        X = gen.normal(size=(4, 2))
        body = c_set_body(cset, X)
        ball = lp_ball_body(2, 2.0)
        A = hull(ball.vertices @ X[:2])
        B = hull(ball.vertices @ X[2:])
        known = m_add(MSpec.lp(math.inf), [A, B])
        assert volume(body) == pytest.approx(volume(known), rel=1e-9)


class TestEstimates:
    def test_expected_hull_volume_in_a_triangle(self):
        # three uniform points in a triangle span 1/12 of it on average
        config = {
            "dim": 2,
            "seed": 17,
            "trials": 20000,
            "blocks": [
                {"density": {"type": "uniform", "body": TRIANGLE}, "m": 3}
            ],
            "c_sets": [{"kind": "simplex", "m": 3}],
        }
        gen = np.random.default_rng(64)
        bary = gen.dirichlet(np.ones(3), size=1_000_000)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = bary @ verts
        a = pts[0::3][: 333_000]
        b = pts[1::3][: 333_000]
        c = pts[2::3][: 333_000]
        d1, d2 = b - a, c - a
        areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        oracle_mean = float(areas.mean())
        oracle_err = float(areas.std(ddof=1) / math.sqrt(len(areas)))
        est = estimate("volume", config)
        joint = 3.0 * (est.stderr + oracle_err)
        assert abs(est.mean - oracle_mean) <= joint
        assert abs(est.mean - 0.5 / 12.0) <= joint

    def test_reports_are_identical_across_thread_counts(self):
        serial = report_to_json(run_theorem_1_2(THM12_SMALL, threads=1))
        parallel = report_to_json(run_theorem_1_2(THM12_SMALL, threads=2))
        assert serial == parallel

    def test_report_shape_and_verdict_vocabulary(self):
        report = run_theorem_1_2(THM12_SMALL)
        assert report["experiment"] == "thm12"
        assert report["direction"] == "le"
        assert set(report["lhs"]) >= {"mean", "stderr", "ci_low", "ci_high"}
        assert report["verdict"] in ("consistent", "violated", "inconclusive")
        assert "threads" not in report["config"]
        assert "wall_time" not in report


def _uniform_block(body: dict, m: int) -> dict:
    return {"density": {"type": "uniform", "body": body}, "m": m}


_TRIANGLE_PI = {"type": "polygon", "vertices": [[0.0, 0.0], [math.sqrt(2 * math.pi), 0.0],
                                                [0.0, math.sqrt(2 * math.pi)]]}
_THM12_PLANE = {"dim": 2, "seed": 31, "blocks": [_uniform_block(_TRIANGLE_PI, 4)],
                "c_set": {"kind": "simplex", "m": 4}}

# (trial builder, config) for every planar kind with a stacked kernel
CHUNKED = {
    "thm12-lebesgue": ("thm12", dict(_THM12_PLANE, measure={"type": "lebesgue"})),
    "thm12-gaussian": ("thm12", dict(_THM12_PLANE, measure={"type": "gaussian"})),
    "thm12-cube": ("thm12", dict(_THM12_PLANE, c_set={"kind": "cube", "m": 4, "half": 0.5})),
    "thm12-bp1": ("thm12", dict(_THM12_PLANE, c_set={"kind": "bp", "m": 4, "p": 1.0})),
    "thm12-bpinf": ("thm12", dict(_THM12_PLANE, c_set={"kind": "bp", "m": 4, "p": math.inf})),
    "empmixed": ("empmixed", {"dim": 2, "seed": 32, "blocks": [_uniform_block(SQUARE, 4)],
                              "c_sets": [{"kind": "simplex", "m": 4}]}),
    "empmixed-bp1": ("empmixed", {"dim": 2, "seed": 33, "blocks": [_uniform_block(SQUARE, 3)],
                                  "c_sets": [{"kind": "bp", "m": 3, "p": 1.0}]}),
    "emppetty2": ("emppetty2", {"dim": 2, "seed": 34, "body": SQUARE, "m1": 4, "m2": 4}),
    "lln": ("lln_row", {"dim": 2, "seed": 35, "body": SQUARE, "m1_list": [16, 6], "m2_list": [8, 5]}),
}

# kinds whose bodies are the hulls of the sampled clouds themselves
HULLS_OF_SAMPLES = {"thm12-lebesgue", "thm12-gaussian", "empmixed", "emppetty2", "lln"}


def _odd_clouds(self, gen, count):
    """A random, collinear or repeated-point cloud, picked by the trial's own
    stream so that every route sees the same cloud for the same trial."""
    return planar_test_clouds(gen, 3, count)[gen.integers(3)]


class TestChunks:
    @pytest.mark.parametrize("name", sorted(CHUNKED))
    def test_values_do_not_depend_on_the_split(self, name, monkeypatch):
        kind, config = CHUNKED[name]
        n = 23
        whole, diag = harness._worker((kind, config, 0, 0, n))
        for cuts in ([0, 1, 2, 9, 10, 22, 23], list(range(n + 1))):
            parts = [harness._worker((kind, config, 0, a, b - a))
                     for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.concatenate([v for v, _ in parts]), whole)
            assert {key: sum(d[key] for _, d in parts) for key in diag} == diag
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", 1)
        values, d = harness._worker((kind, config, 0, 0, n))
        assert np.array_equal(values, whole) and d == diag

    @pytest.mark.parametrize("odd", [False, True], ids=["sampled", "odd-clouds"])
    @pytest.mark.parametrize("name", sorted(CHUNKED))
    def test_chunks_match_the_hull_route(self, name, odd, monkeypatch):
        if odd:
            monkeypatch.setattr(Density, "sample", _odd_clouds)
        kind, config = CHUNKED[name]
        trials = harness._TRIAL_BUILDERS[kind](config, 1)
        n = 30
        hull_diag, chunk_diag = harness._no_diagnostics(), harness._no_diagnostics()
        want = np.array([trials.trial(i, hull_diag) for i in range(n)])
        got = trials.chunk(0, n, chunk_diag)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert chunk_diag == hull_diag
        if odd and name in HULLS_OF_SAMPLES:
            assert hull_diag["degenerate_hulls"] > 0


class TestTrialErrors:
    # A collinear cloud does not raise: no node of the grid is exactly
    # normal to its line, so the grid sees a bounded polar.  Collapsing the
    # cloud of one trial to a point makes its Lebesgue polar measure infinite.
    @pytest.mark.parametrize("c_set", [{"kind": "simplex", "m": 3}, {"kind": "bp", "m": 3, "p": 2.0}],
                             ids=["stacked", "per-trial"])
    def test_a_failing_trial_names_its_key(self, c_set, monkeypatch):
        real = Density.sample
        target = real(Density.gaussian(2), RngStream(5, (0, 7)).generator(), 3)

        def sample(self, gen, count):
            pts = real(self, gen, count)
            return np.zeros_like(pts) if np.array_equal(pts, target) else pts

        monkeypatch.setattr(Density, "sample", sample)
        with pytest.raises(TrialError, match=r"trial \(0, 7\): GeometryError") as info:
            run_theorem_1_2(dict(THM12_SMALL, c_set=c_set))
        assert info.value.key == (0, 7)

    def test_the_error_survives_a_worker_process(self):
        err = pickle.loads(pickle.dumps(TrialError((1, 3), "GeometryError: boom")))
        assert err.key == (1, 3) and str(err) == "trial (1, 3): GeometryError: boom"


class TestPairingLimit:
    def test_square_target_value(self):
        assert lln_target(SQUARE) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_target_does_not_depend_on_the_body(self):
        for lit in (TRIANGLE, {"type": "ball", "dim": 2, "radius": 1.3}):
            assert lln_target(lit) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_v1_from_an_evaluator_matches_the_polytope_form(self):
        gen = np.random.default_rng(65)
        K = hull(gen.normal(size=(7, 2)))
        L = hull(gen.normal(size=(6, 2)))
        got = v1(K, support_evaluator_of(L))
        assert got == pytest.approx(mixed_volume_inclusion_exclusion([K, L]), rel=1e-9)

    def test_sweep_report_structure(self):
        report = run_lln(
            {
                "dim": 2,
                "seed": 2,
                "trials": 30,
                "body": SQUARE,
                "m1_list": [8, 16],
                "m2_list": [8, 16],
                "family": [SQUARE, TRIANGLE],
            }
        )
        assert len(report["rows"]) == 2
        row = report["rows"][0]
        assert set(row) == {"m1", "m2", "estimate", "target", "within_3_stderr"}
        assert report["target"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report["constancy"]["relative_spread"] <= 1e-9
        assert report["verdict"] in ("consistent", "inconclusive")


class TestSerialization:
    def test_two_sided_csv(self):
        report = run_theorem_1_2(dict(THM12_SMALL, trials=10))
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("experiment,side,mean")
        assert len(lines) == 3
        assert lines[1].startswith("thm12,lhs")

    def test_sweep_csv(self):
        report = run_lln(
            {"dim": 2, "seed": 1, "trials": 10, "body": SQUARE,
             "m1_list": [4], "m2_list": [4]}
        )
        lines = report_to_csv(report).strip().split("\n")
        assert lines[0].startswith("experiment,m1,m2")
        assert len(lines) == 2

    def test_json_is_stable(self):
        a = report_to_json(run_emp_petty_2(
            {"dim": 2, "seed": 3, "trials": 12, "body": SQUARE,
             "m1": 6, "m2": 6}
        ))
        b = report_to_json(run_emp_petty_2(
            {"dim": 2, "seed": 3, "trials": 12, "body": SQUARE,
             "m1": 6, "m2": 6}
        ))
        assert a == b
        json.loads(a)


class TestCli:
    def _write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_petty_round_trip(self, tmp_path, capsys):
        cfg = self._write(tmp_path, SQUARE)
        assert cli.main(["petty", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["product"] == pytest.approx(2.0, abs=1e-12)
        assert report["verdict"] == "consistent"

    def test_petty_csv_format(self, tmp_path, capsys):
        cfg = self._write(tmp_path, SQUARE)
        assert cli.main(["petty", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("dim,volume,product")

    def test_output_file(self, tmp_path):
        cfg = self._write(tmp_path, SQUARE)
        dest = tmp_path / "report.json"
        assert cli.main(["petty", "--config", cfg, "--out", str(dest)]) == 0
        assert json.loads(dest.read_text())["dim"] == 2

    def test_experiment_with_overrides(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "dim": 2,
            "body": SQUARE,
            "m1": 4,
            "m2": 4,
            "trials": 500,
        })
        code = cli.main([
            "emppetty2", "--config", cfg, "--trials", "15", "--seed", "9"
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 15
        assert report["seed"] == 9

    @pytest.mark.parametrize("nodes", [0, -8, 2.5])
    def test_petty_rejects_a_bad_node_count(self, tmp_path, capsys, nodes):
        config = dict(SQUARE, method="quadrature", quadrature={"nodes": nodes})
        with pytest.raises(ConfigError, match="quadrature.nodes"):
            cli.run_petty(config)
        assert cli.main(["petty", "--config", self._write(tmp_path, config)]) == 1
        assert "quadrature.nodes" in capsys.readouterr().err

    def test_petty_honours_certify(self):
        config = dict(SQUARE, method="quadrature", quadrature={"nodes": 64, "certify": True})
        with pytest.raises(GeometryError, match="certification"):
            cli.run_petty(config)
        config["quadrature"]["nodes"] = 4096
        assert cli.run_petty(config)["product"] == pytest.approx(2.0, rel=1e-4)

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        assert cli.main(["no-such-command"]) == 1
        assert cli.main(["petty"]) == 1
        assert cli.main(["petty", "--config", str(tmp_path / "missing.json")]) == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert cli.main(["petty", "--config", str(broken)]) == 1
        bad = self._write(tmp_path, dict(THM12_SMALL, dim=4))
        assert cli.main(["thm12", "--config", bad]) == 1
        capsys.readouterr()

    def test_violated_verdict_exits_two(self, tmp_path, monkeypatch, capsys):
        cfg = self._write(tmp_path, {})
        monkeypatch.setitem(
            cli.RUNNERS, "thm12",
            lambda config, threads=None: {"verdict": "violated"},
        )
        assert cli.main(["thm12", "--config", cfg]) == 2
        capsys.readouterr()

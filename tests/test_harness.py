import ast
import collections
import csv
import hashlib
import io
import json
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pettylab import (
    GeometryError,
    MSpec,
    bodies,
    cli,
    harness,
    hull,
    lp_ball_body,
    m_add,
    projections,
    sampling,
    volume,
)
from pettylab.harness import (
    ConfigError,
    SPECS,
    CSet,
    TrialError,
    estimate,
    report_to_csv,
    report_to_json,
    resolve_threads,
    run_corollary_1_3,
    run_emp_mixed,
    run_emp_petty_2,
    run_lln,
    run_theorem_1_2,
)
from pettylab.mixed import v1
from pettylab.projections import RadialMeasure, SupportEvaluator
from pettylab.sampling import Density, RngStream
from pettylab.verify import (
    grid_table_error,
    grid_table_test_generators,
    mixed_volume_inclusion_exclusion,
    planar_test_clouds,
    spatial_test_clouds,
)
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


_GAUSSIAN_BLOCK = {"density": {"type": "gaussian"}, "m": 3}
_BALLS = [{"kind": "bp", "m": 2, "p": 2.0}, {"kind": "bp", "m": 2, "p": 2.0}]
_SEGMENTS = [{"kind": "bp", "m": 1, "p": 1.0}] * 4
_CUBE_3D = {"type": "cube", "dim": 3}
EMPMIXED_SMALL = {"dim": 2, "seed": 4, "trials": 4, "blocks": [_GAUSSIAN_BLOCK],
                  "c_sets": [{"kind": "simplex", "m": 3}]}
EMPMIXED_BALL = {"dim": 2, "seed": 4, "trials": 4, "blocks": [_GAUSSIAN_BLOCK],
                 "c_sets": [{"kind": "simplex", "m": 3}], "ball_slots": 1}
EMPPETTY2_SMALL = {"dim": 2, "seed": 4, "trials": 4, "body": SQUARE, "m1": 4, "m2": 4}
LLN_SMALL = {"dim": 2, "seed": 4, "trials": 4, "body": SQUARE, "m1_list": [4], "m2_list": [4]}
COR13_SMALL = {"dim": 3, "seed": 4, "trials": 2, "m": 4,
               "bodies": [_CUBE_3D, {"type": "simplex", "dim": 3}]}


def _block(**fields):
    return dict(THM12_SMALL, blocks=[fields])


def _body_block(**body):
    return _block(density={"type": "uniform", "body": body}, m=3)


def _msum(*components, **fields):
    return dict(THM12_SMALL, blocks=[dict(_GAUSSIAN_BLOCK, m=4)],
                c_set={"kind": "msum", "components": list(components), **fields})


def _leading(key: str) -> str:
    """The pattern of a message that leads with ``key``: every config error
    names its key first, as "<key> ..." or "unknown key <key>"."""
    return rf"^(unknown key )?{re.escape(key)}"


# an integer JSON reads exactly, past the largest float
_HUGE = 10 ** 400

# config -> the key its ConfigError names
REJECTIONS = {
    "trials-float": (run_theorem_1_2, dict(THM12_SMALL, trials=2.9), "trials"),
    "trials-bool": (run_theorem_1_2, dict(THM12_SMALL, trials=True), "trials"),
    "seed-float": (run_theorem_1_2, dict(THM12_SMALL, seed=5.5), "seed"),
    "block-m-float": (run_theorem_1_2, _block(density={"type": "gaussian"}, m=3.7), "blocks[0].m"),
    "c_set-m-float": (run_theorem_1_2, dict(THM12_SMALL, c_set={"kind": "simplex", "m": 3.0}),
                      "c_set.m"),
    "msum-m-float": (run_theorem_1_2, _msum(dict(_BALLS[0], m=2.0), _BALLS[1]),
                     "c_set.components[0].m"),
    "m1-float": (run_emp_petty_2, dict(EMPPETTY2_SMALL, m1=4.5), "m1"),
    "m2-float": (run_emp_petty_2, dict(EMPPETTY2_SMALL, m2=4.0), "m2"),
    "m1_list-float": (run_lln, dict(LLN_SMALL, m1_list=[4.0]), "m1_list[0]"),
    "m2_list-float": (run_lln, dict(LLN_SMALL, m1_list=[4, 4], m2_list=[4, 1.5]), "m2_list[1]"),
    "ball_slots-float": (run_emp_mixed, dict(EMPMIXED_BALL, ball_slots=1.0), "ball_slots"),
    "ball_radius-negative": (run_emp_mixed, dict(EMPMIXED_BALL, ball_radius=-1), "ball_radius"),
    "ball_radius-unread": (run_emp_mixed, dict(EMPMIXED_SMALL, ball_radius=2.0), "ball_radius"),
    "half-negative": (run_theorem_1_2, dict(THM12_SMALL, c_set={"kind": "cube", "m": 3, "half": -1}),
                      "c_set.half"),
    # a size or scale is finite: Infinity would carry into the points or the means
    "half-infinite": (run_theorem_1_2,
                      dict(THM12_SMALL, c_set={"kind": "cube", "m": 3, "half": math.inf}),
                      "c_set.half"),
    "ball_radius-infinite": (run_emp_mixed, dict(EMPMIXED_BALL, ball_radius=math.inf),
                             "ball_radius"),
    "measure-radius-infinite": (run_theorem_1_2,
                                dict(THM12_SMALL, measure={"type": "ball", "radius": math.inf}),
                                "measure.radius"),
    "measure-sigma-infinite": (run_theorem_1_2,
                               dict(THM12_SMALL, measure={"type": "gaussian", "sigma": math.inf}),
                               "measure.sigma"),
    "density-sigma-infinite": (run_theorem_1_2,
                               _block(density={"type": "gaussian", "sigma": math.inf}, m=3),
                               "blocks[0].density.sigma"),
    "cube-half-infinite": (run_theorem_1_2, _body_block(type="cube", dim=2, half=math.inf),
                           "blocks[0].density.body.half"),
    # a JSON integer past the largest float is refused at parse, not by float()
    "half-huge": (run_theorem_1_2, dict(THM12_SMALL, c_set={"kind": "cube", "m": 3, "half": _HUGE}),
                  "c_set.half"),
    "bp-p-huge": (run_theorem_1_2, dict(THM12_SMALL, c_set={"kind": "bp", "m": 3, "p": _HUGE}),
                  "c_set.p"),
    "msum-M-p-huge": (run_theorem_1_2, _msum(*_BALLS, M={"p": _HUGE}), "c_set.M.p"),
    "density-sigma-huge": (run_theorem_1_2, _block(density={"type": "gaussian", "sigma": _HUGE}, m=3),
                           "blocks[0].density.sigma"),
    "measure-radius-huge": (run_theorem_1_2,
                            dict(THM12_SMALL, measure={"type": "ball", "radius": _HUGE}),
                            "measure.radius"),
    "ball_radius-huge": (run_emp_mixed, dict(EMPMIXED_BALL, ball_radius=_HUGE), "ball_radius"),
    "polygon-vertices-huge": (run_theorem_1_2,
                              _body_block(type="polygon", vertices=[[_HUGE, 0], [0, 1], [1, 1]]),
                              "blocks[0].density.body.vertices"),
    # a component's own body: cube vertices stop at dimension 16
    "msum-component-dim-17": (run_theorem_1_2,
                              _msum({"kind": "bp", "m": 17, "p": math.inf}, _BALLS[0]),
                              "c_set.components[0]"),
    "c_set-missing": (run_theorem_1_2, {k: v for k, v in THM12_SMALL.items() if k != "c_set"},
                      "c_set"),
    "density-missing": (run_theorem_1_2, _block(m=3), "blocks[0].density"),
    "block-m-missing": (run_theorem_1_2, _block(density={"type": "gaussian"}), "blocks[0].m"),
    "body-dim-3": (run_emp_petty_2, dict(EMPPETTY2_SMALL, dim=3), "body"),
    "body-3d-default-dim": (run_emp_petty_2, {"body": _CUBE_3D, "m1": 4, "m2": 4}, "body"),
    "density-3d-default-dim": (run_theorem_1_2,
                               _block(density={"type": "uniform", "body": _CUBE_3D}, m=3),
                               "blocks[0].density"),
    "cor13-planar-bodies": (run_corollary_1_3, dict(COR13_SMALL, bodies=[SQUARE, TRIANGLE]),
                            "bodies[0]"),
    "family-dim": (run_lln, dict(LLN_SMALL, family=[SQUARE, _CUBE_3D]), "family[1]"),
    "density-type": (run_theorem_1_2, _block(density={"type": "cauchy"}, m=3), "blocks[0].density"),
    "measure-type": (run_theorem_1_2, dict(THM12_SMALL, measure={"type": "cauchy"}), "measure"),
    "unknown-key": (run_theorem_1_2, dict(THM12_SMALL, trails=5), "trails"),
    "unknown-block-key": (run_theorem_1_2, _block(density={"type": "gaussian"}, m=3, weight=1),
                          "blocks[0].weight"),
    "unknown-c_set-key": (run_theorem_1_2, dict(THM12_SMALL, c_set={"kind": "simplex", "m": 3,
                                                                     "half": 1.0}), "c_set.half"),
    "unknown-msum-key": (run_theorem_1_2, _msum(_BALLS[0], dict(_BALLS[1], q=2.0)),
                         "c_set.components[1].q"),
    # M's own rules read the component count: an L_p pattern with 1 < p < inf
    # and a body literal live in dimension 2 or 3
    "msum-four-components-l2": (run_theorem_1_2, _msum(*_SEGMENTS), "c_set.M"),
    "msum-four-components-cube": (run_theorem_1_2,
                                  _msum(*_SEGMENTS, M={"type": "cube", "dim": 4}), "c_set.M"),
    "unknown-quadrature-key": (run_theorem_1_2, dict(THM12_SMALL, quadrature={"order": 3}),
                               "quadrature.order"),
    "quadrature-nodes-2d": (run_theorem_1_2, dict(THM12_SMALL, quadrature={"nodes": 64}),
                            "quadrature.nodes"),
    "quadrature-nodes-3d-lebesgue": (run_theorem_1_2,
                                     dict(THM12_SMALL, dim=3, c_set={"kind": "simplex", "m": 4},
                                          blocks=[dict(_GAUSSIAN_BLOCK, m=4)],
                                          quadrature={"nodes": 64}), "quadrature.nodes"),
    "quadrature-nodes-null-3d-lebesgue": (run_theorem_1_2,
                                          dict(THM12_SMALL, dim=3, c_set={"kind": "simplex", "m": 4},
                                               blocks=[dict(_GAUSSIAN_BLOCK, m=4)],
                                               quadrature={"nodes": None}), "quadrature.nodes"),
    "empmixed-quadrature": (run_emp_mixed, dict(EMPMIXED_SMALL, quadrature={"certify": True}),
                            "quadrature"),
    "emppetty2-quadrature": (run_emp_petty_2, dict(EMPPETTY2_SMALL, quadrature={"certify": True}),
                             "quadrature"),
    "lln-quadrature": (run_lln, dict(LLN_SMALL, quadrature={"certify": True}), "quadrature"),
    "quadrature-false": (run_theorem_1_2, dict(THM12_SMALL, quadrature=False), "quadrature"),
    "quadrature-zero": (run_theorem_1_2, dict(THM12_SMALL, quadrature=0), "quadrature"),
    "quadrature-empty-list": (run_theorem_1_2, dict(THM12_SMALL, quadrature=[]), "quadrature"),
    "quadrature-empty-string": (run_theorem_1_2, dict(THM12_SMALL, quadrature=""), "quadrature"),
    "family-false": (run_lln, dict(LLN_SMALL, family=False), "family"),
    "family-zero": (run_lln, dict(LLN_SMALL, family=0), "family"),
    "measure-unknown-key": (run_theorem_1_2, dict(THM12_SMALL, measure={"type": "gaussian",
                                                                        "sigmaa": 2.0}),
                            "measure.sigmaa"),
    "lebesgue-sigma": (run_theorem_1_2, dict(THM12_SMALL, measure={"type": "lebesgue", "sigma": 2}),
                       "measure.sigma"),
    "density-unknown-key": (run_theorem_1_2, _block(density={"type": "gaussian", "sigmaa": 3.0}, m=3),
                            "blocks[0].density.sigmaa"),
    "density-body-unknown-key": (run_theorem_1_2,
                                 _block(density={"type": "uniform", "body": dict(TRIANGLE, half=1.0)},
                                        m=3), "blocks[0].density.body.half"),
    "body-unknown-key": (run_emp_petty_2, dict(EMPPETTY2_SMALL, body=dict(SQUARE, radius=1.0)),
                         "body.radius"),
    "family-unknown-key": (run_lln, dict(LLN_SMALL, family=[dict(SQUARE, facets=8)]),
                           "family[0].facets"),
    "cor13-body-unknown-key": (run_corollary_1_3,
                               dict(COR13_SMALL, bodies=[_CUBE_3D, {"type": "simplex", "dim": 3,
                                                                    "m": 4}]), "bodies[1].m"),
    "body-dim-float": (run_theorem_1_2, _body_block(type="cube", dim=2.9),
                       "blocks[0].density.body.dim"),
    "cube-half-bool": (run_theorem_1_2, _body_block(type="cube", dim=2, half=True),
                       "blocks[0].density.body.half"),
    "cube-half-negative": (run_theorem_1_2, _body_block(type="cube", dim=2, half=-1),
                           "blocks[0].density.body.half"),
    "ball-radius-negative": (run_theorem_1_2, _body_block(type="ball", dim=2, radius=-1),
                             "blocks[0].density.body.radius"),
    "ball-radius-string": (run_theorem_1_2, _body_block(type="ball", dim=2, radius="3"),
                           "blocks[0].density.body.radius"),
    "ball-facets-float": (run_theorem_1_2, _body_block(type="ball", dim=2, facets=12.7),
                          "blocks[0].density.body.facets"),
    # null is a value to reject, not an absent key
    "ball-facets-null": (run_theorem_1_2, _body_block(type="ball", dim=2, facets=None),
                         "blocks[0].density.body.facets"),
    "polygon-vertices-strings": (run_theorem_1_2,
                                 _body_block(type="polygon",
                                             vertices=[["0", "0"], ["1", "0"], ["0", "1"]]),
                                 "blocks[0].density.body.vertices"),
    "polygon-vertices-ragged": (run_theorem_1_2,
                                _body_block(type="polygon", vertices=[[0, 0], [1, 0, 0], [0, 1]]),
                                "blocks[0].density.body.vertices"),
    # JSON has no NaN, so this literal takes the fresh parse of _literal
    "polygon-vertices-nan": (run_theorem_1_2,
                             _body_block(type="polygon", vertices=[[0, 0], [1, math.nan], [0, 1]]),
                             "blocks[0].density.body.vertices"),
    "zonotope-generators-bool": (run_theorem_1_2,
                                 _body_block(type="zonotope", generators=[[True, 0], [0, 1]]),
                                 "blocks[0].density.body.generators"),
    "density-sigma-negative": (run_theorem_1_2, _block(density={"type": "gaussian", "sigma": -2},
                                                       m=3), "blocks[0].density.sigma"),
    "density-sigma-bool": (run_theorem_1_2, _block(density={"type": "gaussian", "sigma": True},
                                                   m=3), "blocks[0].density.sigma"),
    "measure-sigma-bool": (run_theorem_1_2, dict(THM12_SMALL, measure={"type": "gaussian",
                                                                       "sigma": True}),
                           "measure.sigma"),
    "measure-radius-string": (run_theorem_1_2, dict(THM12_SMALL, measure={"type": "ball",
                                                                          "radius": "2"}),
                              "measure.radius"),
    "rearranged-string": (run_theorem_1_2,
                          _block(density={"type": "uniform", "body": SQUARE, "rearranged": "no"},
                                 m=3), "blocks[0].density.rearranged"),
    "threads": (run_theorem_1_2, dict(THM12_SMALL, threads=2), "threads"),
    "out": (run_theorem_1_2, dict(THM12_SMALL, out="report.json"), "out"),
    "format": (run_theorem_1_2, dict(THM12_SMALL, format="csv"), "format"),
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

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_msum_of_four_components_runs_under_an_l1_or_linf_pattern(self, p):
        report = run_theorem_1_2(_msum(*_SEGMENTS, M={"p": p}))
        assert report["lhs"]["trials"] == report["rhs"]["trials"] == THM12_SMALL["trials"]

    def test_bp_rejects_bad_exponents(self):
        with pytest.raises(ConfigError):
            CSet.from_literal({"kind": "bp", "m": 2, "p": 0.5})
        with pytest.raises(ConfigError):
            CSet.from_literal({"kind": "bp", "m": 5, "p": 2.0})

    def test_msum_components_must_be_balls(self):
        with pytest.raises(ConfigError):
            CSet.from_literal(
                {"kind": "msum",
                 "components": [{"kind": "simplex", "m": 2},
                                {"kind": "bp", "m": 2, "p": 2.0}]},
            )

    def test_msum_M_must_be_unconditional_as_in_m_add(self):
        triangle = {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}
        M = MSpec.polytope(hull(np.array(triangle["vertices"], dtype=float)))
        with pytest.raises(GeometryError, match="polytope M must be 1-unconditional"):
            m_add(M, [lp_ball_body(2, 2.0), lp_ball_body(2, 3.0)])
        with pytest.raises(ConfigError,
                           match=re.escape("c_set.M: polytope M must be 1-unconditional")):
            run_theorem_1_2(_msum(_BALLS[0], dict(_BALLS[1], p=3.0), M=triangle))

    def test_an_exponent_is_a_number_of_at_least_one_infinity_included(self):
        # bp's p and msum's M.p share one rule, which JSON's Infinity passes
        bp = json.loads('{"kind": "bp", "m": 3, "p": Infinity}')
        report = run_theorem_1_2(dict(THM12_SMALL, trials=3, c_set=bp))
        assert report["lhs"]["trials"] == 3 and math.isfinite(report["lhs"]["mean"])
        for bad in (0.5, True, "2", math.nan, -math.inf):
            for key, config in (("c_set.p", dict(THM12_SMALL, c_set=dict(bp, p=bad))),
                                ("c_set.M.p", _msum(*_BALLS, M={"p": bad}))):
                with pytest.raises(ConfigError, match=_leading(key) + " must be a number >= 1"):
                    run_theorem_1_2(config)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            CSet.from_literal({"kind": "orlicz", "m": 2})

    @pytest.mark.parametrize(
        "quadrature, key",
        [
            ({"certify": True}, "quadrature.certify"),
            ({"certify": False}, "quadrature.certify"),
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
        # the spatial grid of a Gaussian or ball measure takes a node count;
        # planar and 3-D Lebesgue polar measures are exact
        config = dict(THM12_SMALL, dim=3, trials=3, c_set={"kind": "simplex", "m": 4},
                      blocks=[{"density": {"type": "gaussian"}, "m": 4}], measure=_GAUSS,
                      quadrature={"nodes": 64})
        assert run_theorem_1_2(config)["trials"] == 3

    @pytest.mark.parametrize("name", sorted(REJECTIONS))
    def test_a_bad_field_is_rejected_by_its_key(self, name):
        runner, config, key = REJECTIONS[name]
        with pytest.raises(ConfigError, match=_leading(key)):
            runner(config)

    def test_estimate_rejects_a_side_it_does_not_have(self):
        with pytest.raises(ConfigError, match="side"):
            estimate("empmixed", EMPMIXED_SMALL, side=2)
        with pytest.raises(ConfigError, match="side"):
            estimate("lln", dict(LLN_SMALL, m1_list=[4, 5], m2_list=[4, 3]), side=2)

    def test_threads_resolution(self):
        assert resolve_threads(None) == 1
        assert resolve_threads(4) == 4
        with pytest.raises(ConfigError):
            resolve_threads(0)
        for bad in (2.5, True, "2"):
            with pytest.raises(ConfigError, match="threads must be an integer"):
                resolve_threads(bad)

    def test_the_environment_sets_no_thread_count(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started")

        monkeypatch.setenv("PETTY_LAB_THREADS", "3")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert run_theorem_1_2(THM12_SMALL, threads=1)["trials"] == THM12_SMALL["trials"]

    def test_unknown_functional(self):
        # estimate takes the kinds of SPECS, and no other name for them
        for name in ("petty_product", "volume", "mixed_volume"):
            with pytest.raises(ConfigError, match="unknown experiment"):
                estimate(name, EMPMIXED_BALL)


class TestCSets:
    def test_cube_matches_unit_ball_image(self):
        gen = np.random.default_rng(60)
        X = gen.normal(size=(3, 2))
        a = CSet.from_literal({"kind": "cube", "m": 3}).body(X)
        b = CSet.from_literal({"kind": "bp", "m": 3, "p": math.inf}).body(X)
        assert np.array_equal(a.generators, b.generators)

    def test_crosspolytope_image_is_a_signed_hull(self):
        gen = np.random.default_rng(61)
        X = gen.normal(size=(3, 2))
        body = CSet.from_literal({"kind": "bp", "m": 3, "p": 1.0}).body(X)
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
        cset = CSet.from_literal(spec)
        assert cset.kind == "msum" and cset.m == 4
        gen = np.random.default_rng(62)
        X = gen.normal(size=(4, 2))
        body = cset.body(X)
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
        cset = CSet.from_literal(spec)
        gen = np.random.default_rng(63)
        X = gen.normal(size=(4, 2))
        body = cset.body(X)
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
        est = estimate("empmixed", config)
        joint = 3.0 * (est.stderr + oracle_err)
        assert abs(est.mean - oracle_mean) <= joint
        assert abs(est.mean - 0.5 / 12.0) <= joint

    @pytest.mark.parametrize("run, config, side", [
        (run_theorem_1_2, THM12_SMALL, 1),
        (run_emp_mixed, EMPMIXED_BALL, 0),
        (run_lln, dict(LLN_SMALL, m1_list=[4, 5], m2_list=[4, 3]), 1),
    ], ids=["thm12", "empmixed", "lln-row"])
    def test_an_estimate_is_one_side_of_the_report(self, run, config, side):
        report = run(config)
        want = (report["rows"][side]["estimate"] if "rows" in report
                else report[("lhs", "rhs")[side]])
        assert estimate(report["experiment"], config, side).to_dict() == want

    def test_reports_are_identical_across_thread_counts(self):
        serial = report_to_json(run_theorem_1_2(THM12_SMALL, threads=1))
        parallel = report_to_json(run_theorem_1_2(THM12_SMALL, threads=2))
        assert serial == parallel

    @pytest.mark.parametrize("run, config, pools", [
        (run_theorem_1_2, THM12_SMALL, 1),
        (run_lln, dict(LLN_SMALL, trials=8, m1_list=[4, 5, 6], m2_list=[4, 3, 2]), 1),
        (lambda config, threads: estimate("empmixed", config, side=1, threads=threads).to_dict(),
         dict(EMPMIXED_SMALL, trials=8), 1),
        # 2 keys, one a side: fewer than two keys per thread
        (run_theorem_1_2, dict(THM12_SMALL, trials=1), 0),
    ], ids=["two-sided", "lln-three-rows", "estimate", "fewer-than-two-per-thread"])
    def test_a_report_runs_every_side_in_one_pool(self, run, config, pools, monkeypatch):
        started = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        serial = report_to_json(run(config, threads=1))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        assert report_to_json(run(config, threads=2)) == serial
        assert started == [{"max_workers": 2}] * pools

    def test_report_shape_and_verdict_vocabulary(self):
        report = run_theorem_1_2(THM12_SMALL)
        assert report["experiment"] == "thm12"
        assert report["direction"] == "le"
        assert set(report["lhs"]) >= {"mean", "stderr", "ci_low", "ci_high"}
        assert report["verdict"] in ("consistent", "violated", "inconclusive")
        assert "threads" not in report["config"]
        assert "wall_time" not in report
        assert report["quadrature"] == [{"rule": "exact", "trials": 2 * THM12_SMALL["trials"]}]


def _uniform_block(body: dict, m: int) -> dict:
    return {"density": {"type": "uniform", "body": body}, "m": m}


_TRIANGLE_PI = {"type": "polygon", "vertices": [[0.0, 0.0], [math.sqrt(2 * math.pi), 0.0],
                                                [0.0, math.sqrt(2 * math.pi)]]}
_THM12_PLANE = {"dim": 2, "seed": 31, "blocks": [_uniform_block(_TRIANGLE_PI, 4)],
                "c_set": {"kind": "simplex", "m": 4}}

_CUBE3 = {"type": "cube", "dim": 3}
_GAUSS = {"type": "gaussian", "sigma": 1.0}
_THM12_SPACE = {"dim": 3, "seed": 36, "blocks": [_uniform_block(_CUBE3, 4)],
                "c_set": {"kind": "simplex", "m": 4}}

# (kind, config) for every kind with a stacked kernel
CHUNKED = {
    "thm12-lebesgue": ("thm12", dict(_THM12_PLANE, measure={"type": "lebesgue"})),
    "thm12-gaussian": ("thm12", dict(_THM12_PLANE, measure={"type": "gaussian"})),
    "thm12-ball": ("thm12", dict(_THM12_PLANE, measure={"type": "ball", "radius": 0.7})),
    "thm12-cube": ("thm12", dict(_THM12_PLANE, c_set={"kind": "cube", "m": 4, "half": 0.5})),
    "thm12-cube-ball": ("thm12", dict(_THM12_PLANE, c_set={"kind": "cube", "m": 4, "half": 0.5},
                                      measure={"type": "ball", "radius": 0.7})),
    "thm12-bp1": ("thm12", dict(_THM12_PLANE, c_set={"kind": "bp", "m": 4, "p": 1.0})),
    "thm12-bpinf": ("thm12", dict(_THM12_PLANE, c_set={"kind": "bp", "m": 4, "p": math.inf})),
    "empmixed": ("empmixed", {"dim": 2, "seed": 32, "blocks": [_uniform_block(SQUARE, 4)],
                              "c_sets": [{"kind": "simplex", "m": 4}]}),
    "empmixed-bp1": ("empmixed", {"dim": 2, "seed": 33, "blocks": [_uniform_block(SQUARE, 3)],
                                  "c_sets": [{"kind": "bp", "m": 3, "p": 1.0}]}),
    "emppetty2": ("emppetty2", {"dim": 2, "seed": 34, "body": SQUARE, "m1": 4, "m2": 4}),
    "lln": ("lln", {"dim": 2, "seed": 35, "body": SQUARE, "m1_list": [16, 6], "m2_list": [8, 5]}),
    # one direction per trial takes numpy's matrix-vector path in the widths
    "lln-m2-1": ("lln", {"dim": 2, "seed": 49, "body": SQUARE, "m1_list": [7, 16],
                         "m2_list": [1, 1]}),
    "thm12-3d-lebesgue": ("thm12", dict(_THM12_SPACE, measure={"type": "lebesgue"})),
    "thm12-3d-gaussian": ("thm12", dict(_THM12_SPACE, measure=_GAUSS)),
    "thm12-3d-ball": ("thm12", dict(_THM12_SPACE, measure={"type": "ball", "radius": 0.4})),
    "thm12-3d-cube": ("thm12", dict(_THM12_SPACE, blocks=[_uniform_block(_CUBE3, 3)],
                                    c_set={"kind": "cube", "m": 3, "half": 0.5})),
    "thm11-3d-zonotopes": ("thm11", {"dim": 3, "seed": 37, "measure": _GAUSS,
                                     "blocks": [_uniform_block(_CUBE3, 3), {"density": _GAUSS, "m": 3}],
                                     "c_sets": [{"kind": "cube", "m": 3},
                                                {"kind": "bp", "m": 3, "p": math.inf}]}),
    "cor13": ("cor13", {"dim": 3, "seed": 38, "m": 8, "measure": _GAUSS,
                        "bodies": [_CUBE3, {"type": "simplex", "dim": 3}]}),
    "thm11-3d-simplices": ("thm11", {"dim": 3, "seed": 39, "measure": _GAUSS,
                                     "blocks": [_uniform_block(_CUBE3, 4), {"density": _GAUSS, "m": 4}],
                                     "c_sets": [{"kind": "simplex", "m": 4}] * 2}),
    "thm12-3d-cube-ball": ("thm12", dict(_THM12_SPACE, c_set={"kind": "cube", "m": 4},
                                         measure={"type": "ball", "radius": 0.5})),
    "empmixed-3d-simplices": ("empmixed", {"dim": 3, "seed": 40, "ball_slots": 1,
                                           "blocks": [_uniform_block(_CUBE3, 4),
                                                      {"density": _GAUSS, "m": 4}],
                                           "c_sets": [{"kind": "simplex", "m": 4}] * 2}),
}

# (kind, config) for configs that no stacked kernel reads
PER_TRIAL = {
    "thm12-bp2": ("thm12", dict(_THM12_PLANE, blocks=[_uniform_block(_TRIANGLE_PI, 3)],
                                c_set={"kind": "bp", "m": 3, "p": 2.0})),
    "thm12-3d-simplex5": ("thm12", dict(_THM12_SPACE, measure=_GAUSS,
                                        blocks=[_uniform_block(_CUBE3, 5)],
                                        c_set={"kind": "simplex", "m": 5})),
    "thm11-3d-simplex5-cube": ("thm11", {"dim": 3, "seed": 43, "measure": _GAUSS,
                                         "blocks": [_uniform_block(_CUBE3, 5),
                                                    {"density": _GAUSS, "m": 3}],
                                         "c_sets": [{"kind": "simplex", "m": 5},
                                                    {"kind": "cube", "m": 3}]}),
    "empmixed-3d-volume": ("empmixed", {"dim": 3, "seed": 44, "blocks": [_uniform_block(_CUBE3, 6)],
                                        "c_sets": [{"kind": "simplex", "m": 6}]}),
    "emppetty2-3d": ("emppetty2", {"dim": 3, "seed": 45, "body": _CUBE3, "m1": 5, "m2": 4}),
    "lln-3d": ("lln", {"dim": 3, "seed": 46, "body": _CUBE3, "m1_list": [6, 5],
                       "m2_list": [4, 3]}),
}
ROUTED = {**CHUNKED, **PER_TRIAL}
# the chunked configs, and the tetrahedron-pair one under a ball and under Lebesgue measure
_SIMPLICES = CHUNKED["thm11-3d-simplices"][1]
SPATIAL = {**CHUNKED,
           "thm11-3d-simplices-ball": ("thm11", dict(_SIMPLICES, measure={"type": "ball", "radius": 0.5})),
           "thm11-3d-simplices-lebesgue": ("thm11", dict(_SIMPLICES, measure={"type": "lebesgue"}))}
# a hull-only kind under a ball: its Pi of 9 to 15 generators take the walk
# up to 10 and the ball's grid from 11
MIXED_RULES = {"thm11-3d-simplex5-cube-ball": (
    "thm11", dict(PER_TRIAL["thm11-3d-simplex5-cube"][1], measure={"type": "ball", "radius": 0.5}))}
_GAUSSIAN = RadialMeasure.gaussian(1.0)

# kinds whose bodies are the hulls of the sampled clouds themselves
HULLS_OF_SAMPLES = {"thm12-lebesgue", "thm12-gaussian", "thm12-ball", "empmixed", "emppetty2", "lln",
                    "lln-m2-1",
                    "thm12-3d-lebesgue", "thm12-3d-gaussian", "thm12-3d-ball", "thm11-3d-simplices",
                    "thm11-3d-simplices-ball",
                    "empmixed-3d-simplices", "thm12-3d-simplex5", "thm11-3d-simplex5-cube",
                    "empmixed-3d-volume", "lln-3d"}


def _patch_sample(monkeypatch, sample):
    """Draw every trial through the per-trial reference route, its own
    generator and ``Density.sample``, with ``sample`` as ``Density.sample``."""
    monkeypatch.setattr(harness, "draw_block", sampling.draw_per_trial)
    monkeypatch.setattr(Density, "sample", sample)


def _odd_clouds(kinds):
    """A sampler that returns a cloud of one of the test kinds (planar: random,
    collinear, repeated-point; spatial: random, coplanar, collinear,
    repeated-point), picked by the trial's own stream so that every route
    sees the same cloud for the same trial."""
    def sample(self, gen, count):
        make = planar_test_clouds if self.dim == 2 else spatial_test_clouds
        return make(gen, max(kinds) + 1, count)[kinds[gen.integers(len(kinds))]]
    return sample


def _odd_kinds(name, dim):
    # a flat projection body has a polar of infinite Lebesgue measure, which
    # both routes reject with a GeometryError: in the plane that of a
    # collinear triangle, in space that of every coplanar, collinear or
    # repeated-point cloud of 3 or 4 points (a tetrahedron's hull, a cube
    # C-set's generators); spatial emppetty2 rejects every degenerate hull
    if name in ("emppetty2-3d", "thm12-3d-lebesgue", "thm12-3d-cube"):
        return [0]
    return [0, 2] if name == "thm12-lebesgue" else list(range(3 if dim == 2 else 4))


# the flat kinds of ``_odd_clouds``: collinear in the plane, coplanar and
# collinear in space
FLAT_KINDS = {2: {1}, 3: {1, 2}}


class TestChunks:
    @pytest.mark.parametrize("name", sorted(ROUTED))
    def test_values_do_not_depend_on_the_split(self, name, monkeypatch):
        kind, config = ROUTED[name]
        n = 23
        spec = SPECS[kind](dict(config, trials=n))
        sides = tuple(range(len(spec.blocks)))
        total = n * len(sides)
        whole, diag = harness._worker((spec, sides, 0, total))
        # the key sequence is each side's trials in turn, side after side
        want = np.concatenate([spec.chunk(side, 0, n, harness._no_diagnostics())
                               for side in sides])
        assert np.array_equal(whole, want)
        # ranges that straddle the side boundary at n, and ranges of one key
        for cuts in ([0, 1, 2, 9, 10, 22, 24, 25, 40], [0, 20, 30], list(range(total))):
            cuts = sorted({c for c in cuts if c < total} | {total})
            parts = [harness._worker((spec, sides, a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.concatenate([v for v, _ in parts]), whole)
            assert {key: sum(d[key] for _, d in parts) for key in diag} == diag
        # sample blocks of 5 trials, so that each side spans five of them and
        # chunks take the tail of one block and the head of the next
        entries = spec.dim * sum(m for _, m in spec.blocks[0])
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", 5 * entries)
        assert spec.block_len(0) == 5
        values, d = harness._worker((spec, sides, 0, total))
        assert np.array_equal(values, whole) and d == diag
        monkeypatch.setattr(harness, "CHUNK_ENTRIES", 1)
        values, d = harness._worker((spec, sides, 0, total))
        assert np.array_equal(values, whole) and d == diag

    def test_a_chunk_is_cut_across_sides_not_across_draw_shapes(self):
        # lln rows of m1 = 4, 4 and 6 share one chunk length, of more than
        # the 8 keys; the first two rows have one draw shape and fill one
        # chunk, and the third row draws (6, 2) clouds and starts its own
        spec = SPECS["lln"](dict(LLN_SMALL, trials=3, m1_list=[4, 4, 6], m2_list=[4, 4, 4]))

        def chunks(sides, start, stop, step):
            blocks = harness._sequence_blocks(spec, sides, start, stop)
            return [[(side, first, len(part[0])) for side, first, part in parts]
                    for parts in harness._chunks(blocks, step)]

        assert chunks((0, 1, 2), 1, 9, spec.chunk_len()) == [[(0, 1, 2), (1, 0, 3)], [(2, 0, 3)]]
        # chunks of two keys cut inside a side and across the boundary
        assert chunks((0, 1), 0, 6, 2) == [[(0, 0, 2)], [(0, 2, 1), (1, 0, 1)], [(1, 1, 2)]]

    @pytest.mark.parametrize("odd", [False, True], ids=["sampled", "odd-clouds"])
    @pytest.mark.parametrize("name", sorted(ROUTED))
    def test_chunks_match_the_hull_route(self, name, odd, monkeypatch, cold_memo):
        kind, config = ROUTED[name]
        kinds = _odd_kinds(name, config["dim"])
        if odd:
            _patch_sample(monkeypatch, _odd_clouds(kinds))
        spec = SPECS[kind](config)
        n = 30
        hull_diag, chunk_diag = harness._no_diagnostics(), harness._no_diagnostics()
        want = np.array([spec.trial(1, i, hull_diag) for i in range(n)])
        got = spec.chunk(1, 0, n, chunk_diag)
        rtol = np.full(n, 1e-12)
        if spec.dim == 3 and getattr(spec, "exact", False):
            # The two routes hand the Lebesgue walk one zonotope as two
            # generator lists (the kernel's rows, the hull route's merged
            # ones), and its rounding grows with the thinness of Pi: over
            # 1600 trials of the three 3-D Lebesgue configs, sampled and odd
            # clouds, the worst gap was 2.8 eps kappa^2, kappa = s_max / s_min
            # of the trial's Pi generator rows.  c = 8 keeps a margin of
            # about 3 over that.
            for i in range(n):
                samples = [S[0] for S in spec.stacked(1, i, 1)]
                pi = projections.mixed_projection_support(
                    spec.bodies(samples, harness._no_diagnostics())).generators
                rtol[i] = max(1e-12, 8.0 * np.finfo(float).eps * np.linalg.cond(pi) ** 2)
        assert (np.abs(got - want) <= rtol * np.abs(want)).all()
        assert chunk_diag == hull_diag
        if odd and name in HULLS_OF_SAMPLES and FLAT_KINDS[config["dim"]] & set(kinds):
            assert hull_diag["degenerate_hulls"] > 0
        # the trials outside the kernel's mask take the hull route itself
        kernel_diag, outside_diag = harness._no_diagnostics(), harness._no_diagnostics()
        full = (spec.kernel(spec.stacked(1, 0, n), kernel_diag)[1] if spec.entries
                else np.zeros(n, dtype=bool))
        assert (name in CHUNKED) == full.any()
        outside = np.flatnonzero(~full)
        assert got[outside].tobytes() == want[outside].tobytes()
        for i in outside:
            spec.trial(1, i, outside_diag)
        assert {key: kernel_diag[key] + outside_diag[key] for key in chunk_diag} == chunk_diag

    def test_a_cube_c_set_past_twenty_columns_beside_a_simplex(self):
        # the hull route reads the 21-generator zonotope with no vertex cap
        config = {"dim": 3, "seed": 47, "trials": 3, "measure": _GAUSS,
                  "blocks": [_uniform_block(_CUBE3, 21), {"density": _GAUSS, "m": 4}],
                  "c_sets": [{"kind": "cube", "m": 21}, {"kind": "simplex", "m": 4}]}
        report = harness.RUNNERS["thm11"](config, threads=1)
        assert report["verdict"] in ("consistent", "violated", "inconclusive")
        assert math.isfinite(report["lhs"]["mean"]) and math.isfinite(report["rhs"]["mean"])

    @pytest.mark.parametrize("c_set", [{"kind": "simplex", "m": 25},
                                       {"kind": "bp", "m": 13, "p": 1.0}], ids=["simplex", "bp1"])
    def test_a_planar_cloud_past_the_edge_test_takes_the_hull_route(self, c_set):
        # the edge test costs k^3 entries per trial: past PAIR_AREA_MAX_POINTS
        # rows a 2-D thm12 trial takes the exact hull route instead
        def spec(m):
            return SPECS["thm12"](dict(THM12_SMALL, blocks=[dict(_GAUSSIAN_BLOCK, m=m)],
                                       c_set=dict(c_set, m=m)))
        large, small = spec(c_set["m"]), spec(c_set["m"] - 1)
        assert small.cset.row_count == harness.PAIR_AREA_MAX_POINTS < large.cset.row_count
        assert small.entries == small.cset.row_count ** 3 and large.entries == 0
        values = large.chunk(0, 0, 3, harness._no_diagnostics())
        assert values.shape == (3,) and np.isfinite(values).all()
        # empmixed's areas in volume mode read the same cut
        def areas(m):
            return SPECS["empmixed"](dict(EMPMIXED_SMALL, blocks=[dict(_GAUSSIAN_BLOCK, m=m)],
                                          c_sets=[dict(c_set, m=m)]))
        large, small = areas(c_set["m"]), areas(c_set["m"] - 1)
        assert small.pair_areas and small.entries == harness.PAIR_AREA_MAX_POINTS ** 3
        assert not large.pair_areas and large.entries == 0
        values = large.chunk(0, 0, 3, harness._no_diagnostics())
        want = [large.trial(0, i, harness._no_diagnostics()) for i in range(3)]
        assert values.tolist() == want

    @pytest.mark.parametrize("kind, config, calls", [
        # the 4 trials of a tetrahedron pair report: one chunk, was one a side
        ("thm11", dict(CHUNKED["thm11-3d-simplices"][1], trials=2), [4]),
        # a 100-a-side Gaussian 3-D thm12 report: one chunk, was one a side
        ("thm12", dict(CHUNKED["thm12-3d-gaussian"][1], trials=100), [200]),
        # two lln rows of different m draw different shapes: a chunk each
        ("lln", dict(LLN_SMALL, trials=5, m1_list=[4, 6], m2_list=[4, 4]), [5, 5]),
    ], ids=["thm11-tetrahedra", "thm12-3d-gaussian", "lln-two-rows"])
    def test_a_report_calls_its_kernel_once_per_chunk(self, kind, config, calls, monkeypatch):
        spec = SPECS[kind]
        real, sizes = spec.kernel, []

        def kernel(self, samples, diag):
            sizes.append(len(samples[0]))
            return real(self, samples, diag)

        monkeypatch.setattr(spec, "kernel", kernel)
        harness.RUNNERS[kind](config, threads=1)
        assert sizes == calls

    @pytest.mark.parametrize("kind, config", [
        ("thm11", dict(CHUNKED["thm11-3d-simplices"][1], trials=5)),
        ("lln", dict(LLN_SMALL, trials=5, m1_list=[4, 6], m2_list=[4, 4])),
    ], ids=["thm11-tetrahedra", "lln-two-rows"])
    def test_reports_are_identical_at_one_two_and_three_threads(self, kind, config):
        # 10 keys; at 3 threads the range of keys 3-5 straddles the side (row) boundary
        reports = {report_to_json(harness.RUNNERS[kind](config, threads=threads))
                   for threads in (1, 2, 3)}
        assert len(reports) == 1

    @pytest.mark.parametrize("name", ["thm12-3d-gaussian", "thm12-3d-ball", "thm11-3d-zonotopes",
                                      "cor13", "thm11-3d-simplices", "empmixed-3d-simplices",
                                      "thm12-3d-cube-ball", "thm12-3d-simplex5",
                                      "thm11-3d-simplex5-cube", "thm11-3d-simplex5-cube-ball"])
    def test_spatial_reports_do_not_depend_on_threads(self, name):
        kind, config = {**ROUTED, **MIXED_RULES}[name]
        config = dict(config, trials=20)
        serial = report_to_json(harness.RUNNERS[kind](config, threads=1))
        parallel = report_to_json(harness.RUNNERS[kind](config, threads=2))
        assert serial == parallel
        rules = json.loads(serial).get("quadrature")
        if kind == "empmixed":
            assert rules is None
        elif name == "cor13":
            # 64 generators take the 4096-node row, certified on trial 0 of each side
            rule, = rules
            certificate = rule.pop("certificate")
            assert rule == {"rule": "grid", "nodes": projections.polar_nodes(_GAUSSIAN, 64),
                            "trials": 40} == {"rule": "grid", "nodes": 4096, "trials": 40}
            assert certificate["nodes"] == 2 * rule["nodes"] == projections.DEFAULT_NODES[3]
            assert certificate["trials_per_side"] == {"lhs": 1, "rhs": 1}
            assert max(certificate["max_relative_gap"].values()) <= projections.POLAR_GRID_TOL
        elif name in MIXED_RULES:
            # both rules, each counted, and trial 0 of each side took the grid
            walk, grid = rules
            certificate = grid.pop("certificate")
            assert walk == {"rule": "walk", "order": bodies.POLAR_WALK_ORDER, "trials": 2}
            assert grid == {"rule": "grid", "nodes": 8192, "trials": 38}
            assert certificate["nodes"] == 16384
            assert certificate["trials_per_side"] == {"lhs": 1, "rhs": 1}
        else:
            assert rules == [{"rule": "walk", "order": bodies.POLAR_WALK_ORDER, "trials": 40}]


def _refuse(*args, **kwargs):
    raise AssertionError("the spatial grid was called")


def _spy_rules(monkeypatch) -> list:
    """The ``nodes`` of every call of the stacked polar entry the harness
    makes, in order."""
    calls, entry = [], harness.polar_measures

    def spy(G, measure=None, nodes=None):
        calls.append(nodes)
        return entry(G, measure, nodes)

    monkeypatch.setattr(harness, "polar_measures", spy)
    return calls


def _thm11_cubes(m1: int, m2: int) -> dict:
    return {"dim": 3, "seed": 48, "trials": 3, "measure": _GAUSS,
            "blocks": [_uniform_block(_CUBE3, m1), {"density": _GAUSS, "m": m2}],
            "c_sets": [{"kind": "cube", "m": m1}, {"kind": "cube", "m": m2}]}


class TestSpatialRoutes:
    @pytest.mark.parametrize("name", ["thm12-3d-gaussian", "thm12-3d-ball", "thm12-3d-cube-ball",
                                      "thm11-3d-zonotopes", "thm11-3d-simplices",
                                      "thm11-3d-simplices-ball"])
    def test_gaussian_and_ball_kernels_take_the_walk_and_no_grid(self, name, monkeypatch):
        kind, config = SPATIAL[name]
        calls = _spy_rules(monkeypatch)
        monkeypatch.setattr(projections, "polar_measure_from_support", _refuse)
        assert SPECS[kind](config).nodes is None
        report = harness.RUNNERS[kind](dict(config, trials=30), threads=1)
        assert math.isfinite(report["lhs"]["mean"]) and math.isfinite(report["rhs"]["mean"])
        assert calls and set(calls) == {None}
        assert report["quadrature"] == [{"rule": "walk", "order": bodies.POLAR_WALK_ORDER,
                                         "trials": 60}]

    @pytest.mark.parametrize("name", ["thm12-3d-simplex5", "thm11-3d-simplex5-cube"])
    def test_hull_only_gaussian_kinds_take_the_walk_in_every_route(self, name, monkeypatch):
        # no kernel reads them, and their Pi hold 4 to 6 and 9 to 15
        # generators, within the Gaussian walk
        kind, config = PER_TRIAL[name]
        spec = SPECS[kind](config)
        calls = _spy_rules(monkeypatch)
        monkeypatch.setattr(projections, "polar_measure_from_support", _refuse)
        n = 40
        chunk = spec.chunk(0, 0, n, harness._no_diagnostics())
        for i in range(n):
            samples = [S[0] for S in spec.stacked(0, i, 1)]
            pi = projections.mixed_projection_support(spec.bodies(samples, harness._no_diagnostics()))
            want = bodies.spatial_polar_measures(pi.generators[None], spec.measure)[0][0]
            assert chunk[i] == spec.trial(0, i, harness._no_diagnostics()) == want
        out = harness.replay(kind, config, (1, 2))
        report = harness.RUNNERS[kind](dict(config, trials=30), threads=1)
        assert calls and set(calls) == {None}
        walk = {"rule": "walk", "order": bodies.POLAR_WALK_ORDER}
        assert out["chunk"]["quadrature"] == out["trial"]["quadrature"] == walk
        assert report["quadrature"] == [dict(walk, trials=60)]

    @pytest.mark.parametrize("name", ["thm12-3d-lebesgue", "thm12-3d-cube",
                                      "thm11-3d-simplices-lebesgue", "thm12-3d-simplex5-lebesgue"])
    def test_3d_lebesgue_kinds_take_the_exact_walk_in_every_route(self, name, monkeypatch):
        # large bodies, tetrahedron pairs and a simplex C-set of five points,
        # which has no kernel
        simplex5 = dict(PER_TRIAL["thm12-3d-simplex5"][1], measure={"type": "lebesgue"})
        kind, config = {**SPATIAL, "thm12-3d-simplex5-lebesgue": ("thm12", simplex5)}[name]
        spec = SPECS[kind](config)
        assert spec.nodes is None and (spec.entries > 0) == (name in SPATIAL)
        calls = _spy_rules(monkeypatch)
        monkeypatch.setattr(projections, "polar_measure_from_support", _refuse)
        spec.chunk(0, 0, 2, harness._no_diagnostics())
        spec.trial(0, 1, harness._no_diagnostics())
        out = harness.replay(kind, config, (1, 2))
        report = harness.RUNNERS[kind](dict(config, trials=3), threads=1)
        assert calls and set(calls) == {None}
        assert out["chunk"]["quadrature"] == out["trial"]["quadrature"] == {"rule": "exact"}
        assert report["quadrature"] == [{"rule": "exact", "trials": 6}]

    def test_the_heaviest_cube_trial_reads_its_polar_hull(self):
        # over 400 trials, trial (1, 111) holds 92% of the rhs sum; the
        # 8192-node grid read it 132% high
        kind, config = CHUNKED["thm12-3d-cube"]
        config = dict(config, trials=400)
        spec = SPECS[kind](config)
        samples = [S[0] for S in spec.stacked(1, 111, 1)]
        pi = projections.mixed_projection_support(spec.bodies(samples, harness._no_diagnostics()))
        want = volume(bodies.polar_of_zonotope(pi))
        out = harness.replay(kind, config, (1, 111))
        for route in ("chunk", "trial"):
            assert out[route]["value"] == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("name", ["thm11-3d-simplices", "thm11-3d-simplices-ball",
                                      "empmixed-3d-simplices"])
    def test_tetrahedron_pair_rows_do_not_depend_on_their_stack(self, name):
        kind, config = SPATIAL[name]
        spec = SPECS[kind](config)
        n = 40
        assert spec.kernel(spec.stacked(0, 0, n), harness._no_diagnostics())[1].any()
        diag, one_diag = harness._no_diagnostics(), harness._no_diagnostics()
        whole = spec.chunk(0, 0, n, diag)
        ones = np.concatenate([spec.chunk(0, i, 1, one_diag) for i in range(n)])
        assert ones.tobytes() == whole.tobytes() and one_diag == diag

    def test_the_ball_slot_takes_one_product_per_trial(self, monkeypatch):
        # a 2-D product over the stacked rows of a chunk would let BLAS row
        # blocking set a trial's bits by its chunk ("stacked clouds" in bodies)
        kind, config = SPATIAL["empmixed-3d-simplices"]
        spec = SPECS[kind](config)
        samples = spec.stacked(0, 0, 12)
        W, _ = projections.tetrahedron_pair_normals(*samples)
        want = np.array([spec.ball.support_batch(w).sum() / 6.0 for w in W])
        rows, real = [], bodies.VPolytope.support_batch
        monkeypatch.setattr(bodies.VPolytope, "support_batch",
                            lambda self, U: rows.append(len(U)) or real(self, U))
        values, full = spec.kernel(samples, harness._no_diagnostics())
        assert full.any() and all(n <= W.shape[1] for n in rows)
        assert values[full].tobytes() == want[full].tobytes()

    def test_an_explicit_node_count_keeps_the_grid_of_that_size(self, monkeypatch):
        kind, config = CHUNKED["thm12-3d-gaussian"]
        spec = SPECS[kind](dict(config, quadrature={"nodes": 512}))
        assert spec.entries == spec.nodes == 512
        calls = _spy_rules(monkeypatch)
        spec.chunk(0, 0, 3, harness._no_diagnostics())
        assert set(calls) == {512}
        calls.clear()
        harness.RUNNERS[kind](dict(config, trials=3, quadrature={"nodes": 512}), threads=1)
        assert set(calls) == {512, 1024}
        calls.clear()
        harness.RUNNERS[kind](dict(config, trials=3), threads=1)
        assert calls and set(calls) == {None}

    def test_cor13_past_the_walk_takes_its_table_grid_in_every_route(self, monkeypatch):
        # cor13 at m = 8 reads 64 generators, past the Gaussian walk
        kind, config = CHUNKED["cor13"]
        nodes = projections.polar_nodes(_GAUSSIAN, 64)
        assert nodes < projections.DEFAULT_NODES[3]
        spec = SPECS[kind](config)
        assert spec.entries == nodes and spec.width == 64
        calls = _spy_rules(monkeypatch)
        spec.chunk(0, 0, 3, harness._no_diagnostics())
        assert set(calls) == {nodes}
        calls.clear()
        spec.trial(0, 1, harness._no_diagnostics())
        assert set(calls) == {nodes}
        calls.clear()
        out = harness.replay(kind, config, (1, 2))
        assert set(calls) == {nodes} and out["relative_difference"] == 0.0
        assert out["chunk"]["quadrature"] == out["trial"]["quadrature"] == {"rule": "grid",
                                                                            "nodes": nodes}

    def test_an_explicit_node_count_on_cor13_is_certified_at_twice_it(self, monkeypatch):
        kind, config = CHUNKED["cor13"]
        config = dict(config, trials=3, quadrature={"nodes": 2048})
        calls = _spy_rules(monkeypatch)
        assert SPECS[kind](config).nodes == 2048
        report = harness.RUNNERS[kind](config, threads=1)
        assert set(calls) == {2048, 4096}
        rule, = report["quadrature"]
        certificate = rule.pop("certificate")
        assert rule == {"rule": "grid", "nodes": 2048, "trials": 6}
        assert certificate["nodes"] == 4096
        assert certificate["trials_per_side"] == {"lhs": 1, "rhs": 1}

    @pytest.mark.parametrize("name, nodes", [("thm12-3d-512", 512), ("cor13", 4096),
                                             ("thm11-3d-simplex5-cube-ball", 8192)])
    def test_every_grid_report_is_certified_at_twice_its_nodes(self, name, nodes):
        # an explicit node count, a shrunk row and a hull-only kind whose
        # trials take the walk too: the certificate reruns the trials 0, 64
        # and 128 of each side that took the grid, as their replays show
        explicit = dict(CHUNKED["thm12-3d-gaussian"][1], quadrature={"nodes": 512})
        kind, config = {**ROUTED, **MIXED_RULES, "thm12-3d-512": ("thm12", explicit)}[name]
        config = dict(config, trials=130)
        serial = report_to_json(harness.RUNNERS[kind](config, threads=1))
        assert report_to_json(harness.RUNNERS[kind](config, threads=2)) == serial
        *walk, rule = json.loads(serial)["quadrature"]
        certificate = rule.pop("certificate")
        assert [w["rule"] for w in walk] == (["walk"] if name in MIXED_RULES else [])
        assert rule == {"rule": "grid", "nodes": nodes,
                        "trials": 260 - sum(w["trials"] for w in walk)}
        grid = {"rule": "grid", "nodes": nodes}
        took = {side: sum(harness.replay(kind, config, (s, i))["chunk"]["quadrature"] == grid
                          for i in (0, 64, 128)) for s, side in enumerate(("lhs", "rhs"))}
        assert took == ({"lhs": 2, "rhs": 3} if name in MIXED_RULES else {"lhs": 3, "rhs": 3})
        assert certificate["nodes"] == 2 * nodes and certificate["trials_per_side"] == took
        gaps = certificate["max_relative_gap"]
        assert set(gaps) == {"lhs", "rhs"} and all(0.0 <= gap < 1.0 for gap in gaps.values())

    def test_the_grid_table_holds_its_bound_on_every_count_it_covers(self):
        # grid_table_error measures under the Gaussian the grid rows were
        # measured with; the ball's 8192 nodes are not held to the bound
        assert set(projections.POLAR_RULES) == {"gaussian", "ball"}
        table = [row for row in projections.POLAR_RULES["gaussian"] if row[1]]
        gen = np.random.default_rng(11)
        worst = {}
        for (first, nodes), end in zip(table, [k for k, _ in table[1:]] + [101]):
            assert projections.polar_nodes(_GAUSSIAN, first) == nodes
            assert projections.polar_nodes(_GAUSSIAN, first - 1) != nodes
            for k in range(first, end):
                # random, thin and needle bodies in turn: 10 at 17 generators,
                # where the walk is cheap, 3 at 31 and one from 55 on
                worst[k] = max(grid_table_error(grid_table_test_generators(gen, k)[(k + i) % 3],
                                                nodes) for i in range(max(1, 3000 // k ** 2)))
        # one spot check far past the sweep, on a random body
        worst[400] = grid_table_error(grid_table_test_generators(gen, 400)[0],
                                      projections.polar_nodes(_GAUSSIAN, 400))
        assert max(worst.values()) <= projections.POLAR_GRID_TOL, max(worst.items(), key=lambda kv: kv[1])

    def test_the_walk_stops_at_the_crossover(self):
        # a 4 x 4 cube pair reads 16 generators, a 3 x 6 pair 18
        def nodes(kind, config):
            # the rule trial (0, 0) takes in the chunk route
            return harness._rule_of(SPECS[kind](config), 0, 0)

        assert nodes("thm11", _thm11_cubes(4, 4)) is None
        assert nodes("thm11", _thm11_cubes(3, 6)) == 8192
        assert nodes("cor13", dict(COR13_SMALL, measure=_GAUSS)) is None
        assert nodes("cor13", dict(COR13_SMALL, m=5, measure=_GAUSS)) == 8192
        # the ball's walk stops sooner: a 3 x 3 cube pair reads 9 generators,
        # a 3 x 4 pair 12, and the zonotope C-set of 5 or 6 points 10 or 15
        ball = {"type": "ball", "radius": 0.5}
        assert nodes("thm11", dict(_thm11_cubes(3, 3), measure=ball)) is None
        assert nodes("thm11", dict(_thm11_cubes(3, 4), measure=ball)) == 8192
        _, cube = CHUNKED["thm12-3d-cube-ball"]
        five = dict(cube, blocks=[_uniform_block(_CUBE3, 5)], c_set={"kind": "cube", "m": 5})
        assert nodes("thm12", five) is None
        six = dict(cube, blocks=[_uniform_block(_CUBE3, 6)], c_set={"kind": "cube", "m": 6})
        assert nodes("thm12", six) == 8192
        assert nodes("thm12", dict(six, measure=_GAUSS)) is None
        # past 30 Gaussian generators the grid shrinks: cor13 at m = 6 reads 36
        assert nodes("cor13", dict(COR13_SMALL, m=6, measure=_GAUSS)) == 4096

    def test_a_chunk_holds_a_whole_spatial_thm12_report(self):
        kind, config = CHUNKED["thm12-3d-gaussian"]
        spec = SPECS[kind](dict(config, trials=100))
        assert spec.nodes is None and spec.chunk_len() >= 2 * 100

    def test_a_chunk_holds_twice_the_full_circle_walk_trials(self):
        # the walk keeps half of each circle's arcs, so a 3 x 3 Gaussian pair
        # (9 generators) fits twice the 28 trials a full-circle walk did
        spec = SPECS["thm11"](_thm11_cubes(3, 3))
        assert spec.nodes is None and spec.chunk_len() >= 2 * 28

    @pytest.mark.parametrize("nu", [None, RadialMeasure.gaussian(1.0), RadialMeasure.ball(1.0)],
                             ids=["lebesgue", "gaussian", "ball"])
    @pytest.mark.parametrize("k", [4, 9, 10, 16])
    def test_a_walk_chunk_holds_the_memory_it_is_sized_for(self, nu, k):
        # spatial_polar_entries is the only bound that sizes a walk chunk
        rows = harness.CHUNK_ENTRIES // bodies.spatial_polar_entries(k, nu)
        G = np.random.default_rng(k).normal(size=(rows, k, 3))
        tracemalloc.start()
        try:
            bodies.spatial_polar_measures(G, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * harness.CHUNK_ENTRIES * 8


class TestSpecs:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_each_kind_writes_only_its_hull_route_and_kernel(self, kind):
        spec = SPECS[kind]
        for name in ("trial", "chunk", "chunk_values", "chunk_len", "block_len", "stacked"):
            assert getattr(spec, name) is getattr(harness._Spec, name)
        assert callable(getattr(spec, "value", None))
        # every polar kind shares one hull route over its mixed projection body
        assert (spec.value is harness._PolarSpec.value) == (kind in ("thm12", "thm11", "cor13"))

    @pytest.mark.parametrize("measure", [_GAUSS, {"type": "lebesgue"}], ids=["gaussian", "lebesgue"])
    @pytest.mark.parametrize("m", [3, 4, 5, 8])
    def test_cor13_is_thm11_on_cube_c_sets_of_half_one_over_m(self, m, measure):
        # Gaussian: the walk at m = 3 and 4, the certified 8192- and
        # 4096-node grids at m = 5 and 8; Lebesgue: the exact rule
        pair = [_CUBE3, {"type": "simplex", "dim": 3}]
        cor13 = {"dim": 3, "seed": 50, "trials": 8, "measure": measure, "m": m, "bodies": pair}
        thm11 = {"dim": 3, "seed": 50, "trials": 8, "measure": measure,
                 "blocks": [_uniform_block(body, m) for body in pair],
                 "c_sets": [{"kind": "cube", "m": m, "half": 1.0 / m}] * 2}
        got, want = run_corollary_1_3(cor13), harness.run_theorem_1_1(thm11)
        for key in ("lhs", "rhs", "diagnostics", "verdict", "quadrature"):
            assert got[key] == want[key], key

    @pytest.mark.parametrize("module", [bodies, projections, sampling],
                             ids=["bodies", "projections", "sampling"])
    def test_only_the_harness_reads_literals(self, module):
        names = {"from_literal", "literal_fields", "body_from_literal", "_BODY_KEYS",
                 "_MEASURE_KEYS"}
        assert not names & set(vars(module))
        for obj in vars(module).values():
            assert not (isinstance(obj, type) and hasattr(obj, "from_literal")), obj

    def test_only_bodies_names_the_body_cache(self):
        # everything else keeps what it derives through VPolytope.derived
        named = set()
        for path in sorted(Path(projections.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if "_cache" in (getattr(node, "attr", None), getattr(node, "id", None)):
                    named.add(path.name)
        assert named == {"bodies.py"}

    def test_only_the_centroid_body_builds_a_support_evaluator(self):
        # every other support is a body with a generator or vertex form
        builders = []
        for path in sorted(Path(projections.__file__).parent.glob("*.py")):
            scopes = [path.name]

            class Calls(ast.NodeVisitor):
                def visit_FunctionDef(self, node):
                    scopes.append(node.name)
                    self.generic_visit(node)
                    scopes.pop()

                def visit_Call(self, node):
                    func = node.func
                    if getattr(func, "id", getattr(func, "attr", None)) == "SupportEvaluator":
                        builders.append((path.name, scopes[-1]))
                    self.generic_visit(node)

            Calls().visit(ast.parse(path.read_text()))
        assert builders == [("projections.py", "centroid_body_support")]

    def test_projection_bodies_read_zonotopes_through_the_measure(self):
        # no projection body takes a vertex form, and no zonotope branch
        # bypasses the mixed area measure
        trees = {path.name: ast.parse(path.read_text())
                 for path in Path(projections.__file__).parent.glob("*.py")}
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(trees["projections.py"]) if isinstance(node, ast.Call)}
        assert not called & {"as_polytope", "zonotope_to_vpolytope"}
        defined = {node.name for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
        assert "projection_body_of_zonotope" not in defined

    @pytest.mark.parametrize("name", sorted(CHUNKED))
    def test_a_pickled_spec_gives_equal_chunks(self, name):
        kind, config = CHUNKED[name]
        spec = SPECS[kind](config)
        copy = pickle.loads(pickle.dumps(spec))
        for side in range(len(spec.blocks)):
            a, b = harness._no_diagnostics(), harness._no_diagnostics()
            assert np.array_equal(spec.chunk(side, 3, 5, a), copy.chunk(side, 3, 5, b))
            assert a == b
        with pytest.raises(AttributeError, match="frozen"):
            copy.trials = 1

    def test_a_process_builds_each_literal_once(self, monkeypatch, cold_memo):
        calls = collections.Counter()

        def count(owner, name, wrap=lambda f: f):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrap(counted))

        for name in ("body_from_literal", "polar_projection_polytope", "centroid_body_support"):
            count(harness, name)
        count(Density, "uniform", staticmethod)
        polygon = {"type": "polygon", "vertices": [[0, 0], [2, 0], [0, 1], [1, 1]]}
        reports = [
            (run_emp_petty_2, EMPPETTY2_SMALL),
            (run_lln, dict(LLN_SMALL, m1_list=[4, 6], m2_list=[4, 6], family=[SQUARE, TRIANGLE])),
            (run_theorem_1_2, _body_block(**polygon)),
            (run_emp_mixed, dict(EMPMIXED_SMALL, dim=3, blocks=[_GAUSSIAN_BLOCK] * 2,
                                 c_sets=[{"kind": "simplex", "m": 3}] * 2, ball_slots=1)),
            (run_corollary_1_3, COR13_SMALL),
        ]
        # bodies: the square, triangle, polygon, cube and simplex, each once;
        # densities on the square and its polar, the polygon, cube and simplex
        built = {"body_from_literal": 5, "polar_projection_polytope": 2,
                 "centroid_body_support": 2, "uniform": 5}
        cold = [report_to_json(run(config, threads=1)) for run, config in reports]
        assert calls == built and bodies.ball_body.cache_info().misses == 1
        warm = [report_to_json(run(config, threads=1)) for run, config in reports]
        assert calls == built and bodies.ball_body.cache_info().misses == 1
        assert warm == cold
        # workers get the specs pickled, without the memo's lazy members
        for (run, config), want in zip(reports[:3], cold):
            assert report_to_json(run(config, threads=2)) == want

    @pytest.mark.parametrize("run, config, message, kept", [
        (run_emp_petty_2, dict(EMPPETTY2_SMALL, dim=3), "body lives in dimension 2", 0),
        (run_emp_petty_2, dict(EMPPETTY2_SMALL, body={"type": "cube", "dim": 2, "size": 1}),
         "unknown key body.size", 0),
        (run_emp_petty_2, dict(EMPPETTY2_SMALL, body={"type": "polygon",
                                                     "vertices": ((0, 0), (1, 0), (0, 1))}),
         "body.vertices must be a non-empty list", 0),
        (run_theorem_1_2, _body_block(type="cube", dim=17),
         r"blocks\[0\].density.body: explicit cube vertices", 0),
        # bodies that parse and are kept, but whose use fails
        (run_emp_petty_2, dict(EMPPETTY2_SMALL, body={"type": "polygon",
                                                     "vertices": [[0, 0], [1, 1], [2, 2]]}),
         "body must be full-dimensional", 1),
        (run_corollary_1_3, dict(COR13_SMALL, bodies=[_CUBE_3D, {"type": "zonotope",
                                                                 "generators": [[1, 0, 0]]}]),
         r"bodies\[1\]: uniform density needs a full-dimensional body", 2),
    ], ids=["dim", "unknown-key", "tuples", "cube-17", "flat-polar", "flat-density"])
    def test_a_bad_literal_raises_the_same_error_on_every_call(self, run, config, message, kept,
                                                               cold_memo):
        errors = []
        for _ in range(3):
            with pytest.raises(ConfigError, match=message) as info:
                run(config)
            errors.append(str(info.value))
        assert errors[1:] == errors[:-1]
        # the memo keeps the bodies that parsed, never one that failed
        assert harness._literal_record.cache_info().currsize == kept


class TestTrialErrors:
    # Collapsing the cloud of one trial to a point makes its Lebesgue polar
    # measure infinite: the polar is the plane, or in space the grid sees a
    # zero support.  A collinear planar cloud has a strip for its polar,
    # which the exact planar measure also finds unbounded.
    @pytest.mark.parametrize("dim, c_set", [
        (2, {"kind": "simplex", "m": 3}),
        (2, {"kind": "bp", "m": 3, "p": 2.0}),
        (3, {"kind": "simplex", "m": 4}),
    ], ids=["stacked", "per-trial", "stacked-3d"])
    def test_a_failing_trial_names_its_key(self, dim, c_set, monkeypatch, cold_memo):
        real = Density.sample
        m = c_set["m"]
        target = real(Density.gaussian(dim), RngStream(5, (0, 7)).generator(), m)

        def sample(self, gen, count):
            pts = real(self, gen, count)
            return np.zeros_like(pts) if np.array_equal(pts, target) else pts

        _patch_sample(monkeypatch, sample)
        config = dict(THM12_SMALL, dim=dim, c_set=c_set,
                      blocks=[{"density": {"type": "gaussian"}, "m": m}])
        with pytest.raises(TrialError, match=r"trial \(0, 7\): GeometryError") as info:
            run_theorem_1_2(config)
        assert info.value.key == (0, 7)

    def test_a_failing_trial_in_a_chunk_across_sides_names_its_side(self, monkeypatch, cold_memo):
        # trial (1, 7) collapses to a point; the report's 80 keys are one
        # chunk, and the range from key 30 holds side 0's trials 30-39 and
        # side 1's trials 0-9 in one chunk
        real = Density.sample
        target = real(Density.gaussian(2), RngStream(5, (1, 7)).generator(), 3)

        def sample(self, gen, count):
            pts = real(self, gen, count)
            return np.zeros_like(pts) if np.array_equal(pts, target) else pts

        _patch_sample(monkeypatch, sample)
        spec = SPECS["thm12"](THM12_SMALL)
        assert spec.chunk_len() >= 2 * spec.trials
        with pytest.raises(TrialError, match=r"trial \(1, 7\): GeometryError") as info:
            run_theorem_1_2(THM12_SMALL)
        assert info.value.key == (1, 7)
        with pytest.raises(TrialError) as info:
            harness._worker((spec, (0, 1), 30, 50))
        assert info.value.key == (1, 7)

    def test_a_flat_hull_fails_emppetty2_and_counts_in_lln(self, monkeypatch, cold_memo):
        # the m1 points of 3-D trial (0, 3) flattened onto the plane z = 0:
        # emppetty2 rejects a degenerate spatial hull, lln counts it
        base = {"dim": 3, "seed": 5, "trials": 4, "body": _CUBE_3D}
        petty, lln = dict(base, m1=4, m2=4), dict(base, m1_list=[4], m2_list=[4])
        real = Density.sample
        density = SPECS["emppetty2"](petty).blocks[0][0][0]
        target = real(density, RngStream(5, (0, 3)).generator(), 4)

        def sample(self, gen, count):
            pts = real(self, gen, count)
            if np.array_equal(pts, target):
                pts[:, 2] = 0.0
            return pts

        _patch_sample(monkeypatch, sample)
        with pytest.raises(TrialError, match=r"trial \(0, 3\): GeometryError: degenerate spatial hull"
                           ) as info:
            run_emp_petty_2(petty)
        assert info.value.key == (0, 3)
        assert run_lln(lln)["diagnostics"]["degenerate_hulls"] == 1

    def test_a_chunk_that_fails_only_as_a_stack_reraises_its_error(self, monkeypatch):
        # every trial passes when replayed alone, so no trial can be named
        real = harness._Thm12Spec.kernel
        boom = RuntimeError("the stacked kernel failed")

        def kernel(self, samples, diag):
            if len(samples[0]) > 1:
                raise boom
            return real(self, samples, diag)

        monkeypatch.setattr(harness._Thm12Spec, "kernel", kernel)
        with pytest.raises(RuntimeError) as info:
            run_theorem_1_2(THM12_SMALL)
        assert info.value is boom

    def test_a_collinear_trial_has_a_strip_for_its_polar(self, monkeypatch, cold_memo):
        real = Density.sample
        target = real(Density.gaussian(2), RngStream(5, (0, 7)).generator(), 3)
        line = np.outer([0.3, -1.1, 0.8], [1.5, -0.4])

        def sample(self, gen, count):
            pts = real(self, gen, count)
            return line.copy() if np.array_equal(pts, target) else pts

        _patch_sample(monkeypatch, sample)
        with pytest.raises(TrialError, match=r"trial \(0, 7\): GeometryError: polar set is unbounded"
                           ) as info:
            run_theorem_1_2(THM12_SMALL)
        assert info.value.key == (0, 7)
        # under Gaussian measure the polar of the segment's projection body
        # is the strip |<x, |s| n>| <= 1, of measure erf(1 / (|s| sigma sqrt 2))
        config = dict(THM12_SMALL, measure={"type": "gaussian", "sigma": 0.8})
        spec = SPECS["thm12"](config)
        diag = harness._no_diagnostics()
        values = spec.chunk(0, 0, 10, diag)
        strip = math.erf(1.0 / (np.linalg.norm(line[2] - line[1]) * 0.8 * math.sqrt(2.0)))
        assert values[7] == pytest.approx(strip, rel=1e-12, abs=0.0)
        # and all ten trials take the exact rule, tallied under no nodes
        assert diag == {"degenerate_hulls": 1, "unbounded_polars": 1, None: 10}
        out = harness.replay("thm12", config, (0, 7))
        assert out["chunk"]["value"] == out["trial"]["value"] == values[7]
        assert out["trial"]["diagnostics"] == {"degenerate_hulls": 1, "unbounded_polars": 1}
        assert out["trial"]["quadrature"] == {"rule": "exact"}

    @staticmethod
    def _flat_tetrahedron(monkeypatch, kind: int, measure: dict) -> dict:
        """A 3-D thm12 config whose trial (0, 7) draws the coplanar (kind 1)
        or repeated-point (kind 3) cloud of ``spatial_test_clouds``: its
        projection body is a segment, and its polar a slab."""
        real = Density.sample
        target = real(Density.gaussian(3), RngStream(5, (0, 7)).generator(), 4)
        flat = spatial_test_clouds(np.random.default_rng(kind), 4)[kind]

        def sample(self, gen, count):
            pts = real(self, gen, count)
            return flat.copy() if np.array_equal(pts, target) else pts

        _patch_sample(monkeypatch, sample)
        return dict(THM12_SMALL, dim=3, measure=measure, c_set={"kind": "simplex", "m": 4},
                    blocks=[{"density": {"type": "gaussian"}, "m": 4}])

    @pytest.mark.parametrize("kind", [1, 3], ids=["coplanar", "repeated-point"])
    def test_a_flat_spatial_trial_under_lebesgue_measure_names_its_key(self, kind, monkeypatch,
                                                                       cold_memo):
        config = self._flat_tetrahedron(monkeypatch, kind, {"type": "lebesgue"})
        message = "GeometryError: polar set is unbounded, Lebesgue measure infinite"
        with pytest.raises(TrialError, match=re.escape(f"trial (0, 7): {message}")) as info:
            run_theorem_1_2(config)
        assert info.value.key == (0, 7)
        out = harness.replay("thm12", config, (0, 7))
        assert out["chunk"] == out["trial"] == {"error": message}

    @pytest.mark.parametrize("measure", [{"type": "gaussian", "sigma": 0.8},
                                         {"type": "ball", "radius": 0.5}], ids=["gaussian", "ball"])
    @pytest.mark.parametrize("kind", [1, 3], ids=["coplanar", "repeated-point"])
    def test_a_flat_spatial_trial_counts_as_an_unbounded_polar(self, kind, measure, monkeypatch,
                                                               cold_memo):
        config = self._flat_tetrahedron(monkeypatch, kind, measure)
        spec = SPECS["thm12"](config)
        chunk_diag, hull_diag = harness._no_diagnostics(), harness._no_diagnostics()
        values = spec.chunk(0, 0, 10, chunk_diag)
        want = np.array([spec.trial(0, i, hull_diag) for i in range(10)])
        # the flat trial takes the hull route in the chunk too
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)
        assert values[7] == want[7] and np.isfinite(values).all()
        # the flat trial takes its measure's grid row, the others the walk
        assert chunk_diag == hull_diag == {"degenerate_hulls": 1, "unbounded_polars": 1,
                                           None: 9, 8192: 1}
        serial = report_to_json(run_theorem_1_2(config, threads=1))
        assert json.loads(serial)["diagnostics"]["unbounded_polars"] == 1
        # no trial whose index is a multiple of 64 took the grid
        assert json.loads(serial)["quadrature"] == [
            {"rule": "walk", "order": bodies.POLAR_WALK_ORDER, "trials": 79},
            {"rule": "grid", "nodes": 8192, "trials": 1,
             "certificate": {"nodes": 16384, "trials_per_side": {"lhs": 0, "rhs": 0},
                             "max_relative_gap": {"lhs": None, "rhs": None}}}]
        assert report_to_json(run_theorem_1_2(config, threads=2)) == serial

    def test_the_error_survives_a_worker_process(self):
        err = pickle.loads(pickle.dumps(TrialError((1, 3), "GeometryError: boom")))
        assert err.key == (1, 3) and str(err) == "trial (1, 3): GeometryError: boom"


class TestPairingLimit:
    def test_square_target_value(self):
        assert SPECS["lln"]({"body": SQUARE}).target == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_target_does_not_depend_on_the_body(self):
        for lit in (TRIANGLE, {"type": "ball", "dim": 2, "radius": 1.3}):
            assert SPECS["lln"]({"body": lit}).target == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_v1_from_an_evaluator_matches_the_polytope_form(self):
        gen = np.random.default_rng(65)
        K = hull(gen.normal(size=(7, 2)))
        L = hull(gen.normal(size=(6, 2)))
        got = v1(K, SupportEvaluator(L.dim, L.support_batch, "vpolytope"))
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

    def test_an_infinite_p_is_written_as_strict_json(self):
        # JSON has no Infinity token: a bp or msum p = inf from a Python
        # config is echoed as the string "Infinity"
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        kind, config = CHUNKED["thm12-bpinf"]
        reports = {"bp": harness.RUNNERS[kind](dict(config, trials=3)),
                   "msum": run_theorem_1_2(dict(_msum(*_SEGMENTS, M={"p": math.inf}), trials=3))}
        with pytest.raises(ValueError, match="Infinity is not JSON"):
            json.loads(json.dumps(reports["bp"]), parse_constant=refuse)
        for name, report in reports.items():
            got = json.loads(report_to_json(report), parse_constant=refuse)["config"]["c_set"]
            assert (got["p"] if name == "bp" else got["M"]["p"]) == "Infinity"
            assert got == json.loads(json.dumps(report["config"]["c_set"]), parse_constant=str)

    def test_every_report_holds_only_json_scalars(self):
        # report_to_json hands reports to json.dumps as they are: a numpy
        # integer or bool anywhere in a report would not serialize
        reports = [harness.RUNNERS[kind](dict(config, trials=4)) for kind, config in ROUTED.values()]
        reports += [harness.replay(*CHUNKED[name], (1, 2)) for name in ("thm12-3d-gaussian", "lln")]
        reports += [cli.run_petty(SQUARE), cli.run_petty(dict(_CUBE3, method="quadrature")),
                    cli.run_symmetrize(dict(SQUARE, iterations=2)),
                    cli.run_symmetrize(dict(_CUBE3, iterations=2))]

        def leaves(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    assert type(key) is str, f"{path}: key {key!r}"
                    yield from leaves(item, f"{path}.{key}")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield from leaves(item, f"{path}[{i}]")
            else:
                yield path, value

        for report in reports:
            for path, leaf in leaves(report, report.get("experiment", report.get("functional"))):
                assert leaf is None or type(leaf) in (str, bool, int, float, np.float64), \
                    f"{path}: {type(leaf).__name__}"

    # name in ROUTED -> (trials a side, sha256 of its report_to_json at
    # threads=1): one config per kind and route.  The bits rest on numpy's
    # SeedSequence and Philox and on the float arithmetic of numpy, scipy
    # and qhull, so a new build of those may move them; a change to
    # pettylab that moves them changes what every report prints.
    GOLDEN = {
        "thm12-gaussian": (40, "d48b29e4a6c82e0ed456d8cb0b64efca44ec080763b1d8d1f8ae1f7e56525106"),
        "thm12-cube": (40, "db945dee5a6a059d46da0668addc27bd07b18d112ef50870305b8ce6ee8d7067"),
        "thm12-3d-gaussian": (20, "e568a646be5b54b701505fa933c1c040f67392c9f56d222fa82f8a2d5a96b443"),
        "thm11-3d-simplices": (10, "33566ac7ad5191f79ba6bdeab4acd7d2b9bde10c531f506f147113a2c2c99681"),
        "thm11-3d-zonotopes": (10, "ff945c858cbc072176ce6482090f1a6329ef56d018015508ec1410fadfe46dac"),
        "cor13": (3, "17feb4d5b70b4f88ef5e028519a48e0eaa149bcf1f2e7d96276e522c3adafabe"),
        "empmixed": (40, "2c67708f1be64efcf26768b9c87bbd9532ce557c48abd202b4bd70059a650a36"),
        "empmixed-3d-simplices": (10, "e951ff64554f60af9704cb6d41b4b43e0221e5cf71e02b7d9a1c17a8c53eb8b1"),
        "emppetty2": (40, "7cb0cb1e4ed3ac2f6da6ba0cd4373011b97c34640824486f4c9de703dbf51a54"),
        "lln": (10, "c22248b2e4323744d3447d7f0700eff3055a58bceb0222a699eb9a7c5ad63272"),
        "thm12-3d-simplex5": (10, "268469307db73a1e098279f452358db2677bc51cf25ab6e47f4e6117e59780b4"),
    }

    def test_reports_keep_their_bytes(self):
        # thm12 on a planar cloud and a zonotope, the tetrahedron kernel,
        # the tetrahedron pair and the zonotope thm11, cor13 on its grid
        # row, empmixed in the plane and in space, emppetty2, lln and a
        # hull-only thm12 on a five-point simplex C-set
        got = {}
        for name, (trials, _) in self.GOLDEN.items():
            kind, config = ROUTED[name]
            report = harness.RUNNERS[kind](dict(config, trials=trials), threads=1)
            got[name] = (trials, hashlib.sha256(report_to_json(report).encode()).hexdigest())
        assert got == self.GOLDEN

    # (body literal, method) -> sha256 of the report_to_json of its petty
    # report, which names the rule and a grid's certificate
    PETTY_GOLDEN = {
        ("polygon", "exact"): "fd9a01f3039dcc17702a56f54c0ad455827d5bb37e1d2553e51c712bbebf2e8b",
        ("polygon", "quadrature"): "268c87a9d723ab514d72ba629bd35ac3e88b24b3d97e758ad31f6b894c6fee7d",
        ("polytope3", "exact"): "24e086b1de1d99ffc4c10206b2ebd3b8bb04b3d01d091bdbb259f676f17e69e0",
        ("polytope3", "quadrature"):
            "54ae1ab3bd30a62a9c55cbbd2c44ae512ce634fc264a47b13e55651da84a726a",
    }

    def test_petty_reports_keep_their_bytes(self):
        bodies_of = {
            "polygon": {"type": "polygon", "vertices": [[0, 0], [3, 0.5], [2.5, 2], [0.2, 1.5]]},
            "polytope3": {"type": "polytope3", "vertices": [[0, 0, 0], [2, 0, 0.3], [0.4, 1.5, 0],
                                                            [0.1, 0.2, 1.8], [1.2, 1.1, 1.0]]},
        }
        got = {(name, method): hashlib.sha256(report_to_json(
                   cli.run_petty(dict(bodies_of[name], method=method))).encode()).hexdigest()
               for name, method in self.PETTY_GOLDEN}
        assert got == self.PETTY_GOLDEN


class TestCli:
    def _write(self, tmp_path, payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_petty_round_trip(self, tmp_path, capsys):
        cfg = self._write(tmp_path, SQUARE)
        assert cli.main(["petty", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["product"] == pytest.approx(2.0, abs=1e-12)
        assert report["verdict"] == "consistent"

    def test_petty_reads_a_zonotope_past_twenty_generators(self, tmp_path, capsys):
        gens = np.random.default_rng(93).normal(size=(21, 3))
        cfg = self._write(tmp_path, {"type": "zonotope", "generators": gens.tolist()})
        assert cli.main(["petty", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        # the volume the product divides by, from the generator determinants
        assert report["volume"] == bodies.zonotope_volume(bodies.Zonotope(gens))
        assert 0.0 < report["product"] <= report["ball_bound"]

    def test_petty_refuses_a_zonotope_past_space(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"type": "zonotope", "generators": np.eye(4).tolist()})
        assert cli.main(["petty", "--config", cfg]) == 1
        assert "dimension 2 or 3" in capsys.readouterr().err

    def test_verify_kernel_prints_each_check_with_its_wall_time(self, monkeypatch, capsys):
        from pettylab import verify

        monkeypatch.setattr(verify, "CHECKS", [("first", lambda: (True, "fine")),
                                               ("second", lambda: (False, "off by 1"))])
        assert cli.main(["verify-kernel"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert re.fullmatch(r"ok   first: fine \(\d+\.\d ms\)", lines[0])
        assert re.fullmatch(r"FAIL second: off by 1 \(\d+\.\d ms\)", lines[1])

    def test_petty_csv_format(self, tmp_path, capsys):
        cfg = self._write(tmp_path, SQUARE)
        assert cli.main(["petty", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("dim,volume,product")

    @pytest.mark.parametrize("kind, config", [
        ("thm12", dict(THM12_SMALL, trials=10)),
        ("lln", dict(LLN_SMALL, m1_list=[4, 6], m2_list=[4, 5])),
    ], ids=["thm12", "lln-two-rows"])
    def test_an_experiment_prints_its_report_in_either_format(self, tmp_path, capsys, kind,
                                                              config):
        report = harness.RUNNERS[kind](config)
        cfg = self._write(tmp_path, config)
        for form, text in (("json", report_to_json(report)), ("csv", report_to_csv(report))):
            assert cli.main([kind, "--config", cfg, "--format", form]) == 0
            assert capsys.readouterr().out == text
        assert len(text.splitlines()) == 1 + len(report.get("rows", ("lhs", "rhs")))

    def test_petty_and_symmetrize_csv_are_a_header_and_their_rows(self, tmp_path, capsys):
        config = dict(SQUARE, iterations=3, seed=5)
        assert cli.main(["symmetrize", "--config", self._write(tmp_path, config),
                         "--format", "csv"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["iteration", "volume", "volume_drift", "max_vertex_norm"]
        steps = cli.run_symmetrize(config)["steps"]
        assert rows == [[str(step[name]) for name in header] for step in steps]
        assert cli.main(["petty", "--config", self._write(tmp_path, SQUARE), "--format", "csv"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["dim", "volume", "product", "ball_bound", "verdict"]
        report = cli.run_petty(SQUARE)
        assert rows == [[str(report[name]) for name in header]]

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

    @pytest.mark.parametrize("config, key", [
        (dict(SQUARE, method="exactly"), "method"),
        (dict(SQUARE, metod="exact"), "metod"),
        ({"body": SQUARE, "metod": "exact"}, "metod"),
        ({"body": dict(SQUARE, radius=2.0)}, "body.radius"),
        ({"method": "exact"}, "body"),
        (dict(SQUARE, dim=2.5), "dim"),
        (dict(SQUARE, quadrature={"certify": "no"}), "quadrature.certify"),
        # a grid report carries its certificate, so there is no flag to ask for one
        (dict(SQUARE, method="quadrature", quadrature={"certify": True}), "quadrature.certify"),
        # quadrature is read under method quadrature only
        (dict(SQUARE, method="exact", quadrature={"nodes": 64}), "quadrature"),
        (dict(SQUARE, quadrature={}), "quadrature"),
        ({"body": SQUARE, "method": "auto"}, "method"),
        (dict(SQUARE, method="quadrature", quadrature={"nodes": None}), "quadrature.nodes"),
    ], ids=["method", "typo", "typo-beside-body", "body-key", "no-body", "dim-float",
            "certify-string", "certify-unknown", "quadrature-under-exact", "quadrature-under-default",
            "method-auto", "nodes-null"])
    def test_petty_rejects_a_bad_field_by_its_key(self, tmp_path, capsys, config, key):
        with pytest.raises(ConfigError, match=_leading(key)):
            cli.run_petty(config)
        assert cli.main(["petty", "--config", self._write(tmp_path, config)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        (dict(SQUARE, iterations=2.9), "iterations"),
        (dict(SQUARE, iterations=-1), "iterations"),
        (dict(SQUARE, seed=5.5), "seed"),
        (dict(SQUARE, iteration=3), "iteration"),
        ({"body": SQUARE, "seed": True}, "seed"),
        ({"body": dict(SQUARE, half=1.0, dims=2)}, "body.dims"),
    ], ids=["iterations-float", "iterations-negative", "seed-float", "typo", "seed-bool",
            "body-key"])
    def test_symmetrize_rejects_a_bad_field_by_its_key(self, tmp_path, capsys, config, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            cli.run_symmetrize(config)
        assert cli.main(["symmetrize", "--config", self._write(tmp_path, config)]) == 1
        assert key in capsys.readouterr().err

    def test_symmetrize_reads_its_fields(self):
        report = cli.run_symmetrize({"body": SQUARE, "iterations": 3, "seed": 5})
        assert report["iterations"] == 3 and report["seed"] == 5 and len(report["steps"]) == 3
        assert cli.run_symmetrize(dict(SQUARE, iterations=3, seed=5)) == report

    def test_petty_reports_its_grid_certificate(self):
        # the rule a product took; a grid's certificate is its relative gap
        # to the product on twice its nodes, large on a coarse grid
        K = bodies.cube_body(2)
        for nodes, low, high in ((64, 1e-4, 1e-2), (4096, 0.0, 1e-6)):
            report = cli.run_petty(dict(SQUARE, method="quadrature", quadrature={"nodes": nodes}))
            rule = report["quadrature"]
            fine = projections.petty_product(K, "quadrature", 2 * nodes)
            assert rule == {"rule": "grid", "nodes": nodes, "certificate": {
                "nodes": 2 * nodes, "relative_gap": abs(report["product"] - fine) / fine}}
            assert low < rule["certificate"]["relative_gap"] < high
        default = cli.run_petty({"body": _CUBE3, "method": "quadrature"})["quadrature"]
        assert default["nodes"] == projections.DEFAULT_NODES[3]
        assert cli.run_petty(SQUARE)["quadrature"] == {"rule": "exact"}

    def test_a_number_past_the_largest_float_exits_one_naming_its_key(self, tmp_path, capsys):
        # JSON reads the integer exactly; float() would raise OverflowError
        for command, config, key in (
                ("thm12", dict(THM12_SMALL, c_set={"kind": "cube", "m": 3, "half": _HUGE}),
                 "c_set.half"),
                ("thm12", dict(THM12_SMALL, c_set={"kind": "bp", "m": 3, "p": _HUGE}), "c_set.p"),
                ("petty", {"body": {"type": "polygon", "vertices": [[_HUGE, 0], [0, 1], [1, 1]]}},
                 "body.vertices"),
                ("petty", {"type": "cube", "dim": 2, "half": _HUGE}, "half")):
            assert cli.main([command, "--config", self._write(tmp_path, config)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {key}")

    def test_replay_reruns_one_trial_through_both_routes(self, tmp_path, capsys):
        kind, config = CHUNKED["thm12-3d-lebesgue"]
        cfg = self._write(tmp_path, config, "thm12.json")
        assert cli.main(["replay", kind, "--config", cfg, "--key", "1,7", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["key"] == [1, 7] and report["seed"] == 3
        want = SPECS[kind](dict(config, seed=3)).trial(1, 7, harness._no_diagnostics())
        assert report["trial"]["value"] == want
        assert report["chunk"]["diagnostics"] == report["trial"]["diagnostics"]
        assert report["relative_difference"] <= 1e-12
        _, lln = CHUNKED["lln"]
        lln_cfg = self._write(tmp_path, lln, "lln.json")
        assert cli.main(["replay", "lln", "--config", lln_cfg, "--key", "1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["chunk"]["value"] > 0.0
        for key in ("2,0", "0,-1", "0", "a,b", "0,4294967296"):
            assert cli.main(["replay", kind, "--config", cfg, "--key", key]) == 1
            assert "key must be" in capsys.readouterr().err

    def test_replay_rejects_a_key_that_is_not_an_integer_pair(self):
        kind, config = CHUNKED["thm12-3d-lebesgue"]
        for key in ((0.9, 2.7), (0, 1, 2), (True, 0)):
            with pytest.raises(ConfigError, match="key must be"):
                harness.replay(kind, config, key)

    def test_replay_reports_what_a_failing_trial_raises(self, tmp_path, capsys, monkeypatch,
                                                        cold_memo):
        _patch_sample(monkeypatch, lambda self, gen, count: np.zeros((count, self.dim)))
        cfg = self._write(tmp_path, CHUNKED["thm12-3d-lebesgue"][1])
        assert cli.main(["replay", "thm12", "--config", cfg, "--key", "0,7"]) == 2
        report = json.loads(capsys.readouterr().out)
        for route in ("chunk", "trial"):
            assert report[route]["error"].startswith("GeometryError: polar set is unbounded")
        assert report["relative_difference"] is None

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        assert cli.main(["no-such-command"]) == 1
        capsys.readouterr()
        assert cli.main([]) == 1
        assert capsys.readouterr().err.startswith("usage: pettylab")
        root = tmp_path / "list.json"
        root.write_text("[1, 2]")
        assert cli.main(["petty", "--config", str(root)]) == 1
        assert "config root must be a JSON object" in capsys.readouterr().err
        assert cli.main(["petty"]) == 1
        assert cli.main(["petty", "--config", str(tmp_path / "missing.json")]) == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert cli.main(["petty", "--config", str(broken)]) == 1
        # petty is deterministic and has no seed to take
        assert cli.main(["petty", "--config", self._write(tmp_path, SQUARE), "--seed", "3"]) == 1
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

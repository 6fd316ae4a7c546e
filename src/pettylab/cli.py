"""Command line front end.

Exit codes: 0 when every verdict is consistent or inconclusive, 2 when any
verdict is violated (or a kernel check fails, or a replayed trial raises),
1 for usage and config errors.

``pettylab replay KIND --config PATH --key S,I`` reruns the one trial that
a ``TrialError`` names, (side, trial) or for lln (row, trial), through the
chunk route and the per-trial route, and prints both results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bodies import GeometryError, as_polytope, volume
from .harness import (
    ConfigError,
    RUNNERS,
    _fields,
    _integer,
    _parse,
    _require,
    body_from_literal,
    quadrature_block,
    replay,
    report_to_csv,
    report_to_json,
    rows_to_csv,
)
from .projections import DEFAULT_NODES, PETTY_METHODS, petty_product
from .symmetrize import rearrange_body, steiner_symmetrize
from . import verify as verify_mod


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _trial_key(text: str) -> tuple:
    try:
        side, index = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"key must be S,I (two integers), got {text!r}") from exc
    return side, index


def _build_parser() -> _Parser:
    parser = _Parser(prog="pettylab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, trials=True, seed=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="master seed")
        if trials:
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    sub.add_parser("verify-kernel", help="run the kernel oracle suite")
    add("petty", "deterministic projection-volume product of one body",
        trials=False, seed=False)
    for name in RUNNERS:
        add(name, f"run the {name} experiment")
    add("symmetrize", "iterated Steiner symmetrization trace", trials=False)
    p = sub.add_parser("replay", help="rerun one trial by its stream key")
    p.add_argument("kind", choices=tuple(RUNNERS), help="experiment")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--key", required=True, type=_trial_key,
                   help="S,I: side (lln: row) and trial index, as a TrialError names them")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _body_of(config: dict, optional: tuple):
    """The body of a petty or symmetrize config, which is the body literal
    plus the command's ``optional`` keys, or an object holding the literal
    under ``body``.  A key the command does not read raises a ConfigError
    naming it."""
    if "type" in config:
        literal = {k: v for k, v in config.items() if k not in optional}
        return _parse("config", body_from_literal, literal, "")
    _require("body" in config, "body is missing: a config is a body literal or holds one under body")
    _fields(config, "", ("body",), optional)
    return _parse("body", body_from_literal, config["body"], "body")


def run_petty(config: dict) -> dict:
    """The petty report of a body, whose ``quadrature`` names its rule: a
    grid's certificate is the relative gap to the product on twice the nodes."""
    K = _body_of(config, ("method", "quadrature"))
    method = config.get("method", "exact")
    _require(method in PETTY_METHODS, f"method must be one of {PETTY_METHODS}, got {method!r}")
    nodes = quadrature_block(config)
    _require(method == "quadrature" or "quadrature" not in config,
             f"quadrature is read only under method 'quadrature', got method {method!r}")
    product = petty_product(K, method, nodes)
    dim = K.dim
    rule = {"rule": "exact"}
    if method == "quadrature":
        nodes = nodes or DEFAULT_NODES[dim]
        fine = petty_product(K, method, 2 * nodes)
        rule = {"rule": "grid", "nodes": nodes, "certificate": {
            "nodes": 2 * nodes, "relative_gap": abs(product - fine) / fine}}
    ball_bound = math.pi**2 / 4.0 if dim == 2 else 64.0 / 27.0
    verdict = "consistent" if product <= ball_bound * (1.0 + 1e-9) else "violated"
    return {
        "functional": "petty",
        "dim": dim,
        "volume": volume(K),
        "product": product,
        "ball_bound": ball_bound,
        "method": method,
        "quadrature": rule,
        "verdict": verdict,
    }


def run_symmetrize(config: dict) -> dict:
    K = as_polytope(_body_of(config, ("iterations", "seed")))
    iterations = _integer(config.get("iterations", 10), "iterations", 0)
    seed = _integer(config.get("seed", 0), "seed", 0, math.inf)
    gen = np.random.default_rng(seed)
    vol0 = volume(K)
    ball = rearrange_body(K)
    radius = float(np.linalg.norm(ball.vertices[0]))
    steps = []
    body = K
    worst_drift = 0.0
    for i in range(iterations):
        u = gen.normal(size=K.dim)
        u /= np.linalg.norm(u)
        body = steiner_symmetrize(body, u)
        vol = volume(body)
        drift = abs(vol - vol0) / vol0
        worst_drift = max(worst_drift, drift)
        steps.append(
            {
                "iteration": i + 1,
                "direction": u.tolist(),
                "volume": vol,
                "volume_drift": drift,
                "max_vertex_norm": float(np.linalg.norm(body.vertices, axis=1).max()),
            }
        )
    verdict = "consistent" if worst_drift <= 1e-6 else "violated"
    return {
        "functional": "symmetrize",
        "dim": K.dim,
        "iterations": iterations,
        "seed": seed,
        "initial_volume": vol0,
        "ball_radius": radius,
        "steps": steps,
        "worst_volume_drift": worst_drift,
        "verdict": verdict,
    }


# The commands beside the experiments of RUNNERS: name -> (runner, the CSV of
# its report).
COMMANDS = {
    "petty": (run_petty, lambda report: rows_to_csv(
        ("dim", "volume", "product", "ball_bound", "verdict"), [report])),
    "symmetrize": (run_symmetrize, lambda report: rows_to_csv(
        ("iteration", "volume", "volume_drift", "max_vertex_norm"), report["steps"])),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    if args.command is None:
        sys.stderr.write(parser.format_usage())
        return 1
    try:
        if args.command == "verify-kernel":
            ok = verify_mod.run_all()
            return 0 if ok else 2
        config = _load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        if getattr(args, "trials", None) is not None:
            config["trials"] = args.trials
        if args.command == "replay":
            report = replay(args.kind, config, args.key)
            _emit(report_to_json(report), args.out)
            return 2 if "error" in report["chunk"] or "error" in report["trial"] else 0
        if args.command in COMMANDS:
            run, to_csv = COMMANDS[args.command]
            report = run(config)
        else:
            report = RUNNERS[args.command](config, threads=args.threads)
            to_csv = report_to_csv
        _emit(report_to_json(report) if args.format == "json" else to_csv(report), args.out)
        return 2 if report.get("verdict") == "violated" else 0
    except (ConfigError, GeometryError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Eight subcommands over one JSON config format: ``theory`` tabulates the
supercritical curves and limit variances, ``walk`` and ``graph`` run the two
simulators, ``limit`` samples the limit process, and ``fclt`` / ``compare`` /
``endpoints`` / ``converge`` run the verification experiments.  Data goes
only to the output files; progress goes to stderr.  Exit codes: 0 success
(and all checks passed where applicable), 1 a verification check failed,
2 config or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import harness
from .limit_sampler import sample_x_path
from .theory import (
    DEFAULT_MARGIN,
    ConvergenceError,
    require_supercritical,
    supercritical_curves,
    x_cov,
)
from .weights import WeightModel

__all__ = ["ConfigError", "RunConfig", "dispatch", "main"]

_SUPERCRITICAL_COMMANDS = {"theory", "walk", "limit", "fclt", "compare", "endpoints", "converge"}
_HARNESS_KINDS = {
    "fclt": "fclt",
    "compare": "oracle-compare",
    "endpoints": "endpoint-check",
    "converge": "convergence-study",
}
_KNOWN_FIELDS = {
    "model", "n", "n_list", "lambda_grid", "replicates", "seed", "margin",
    "tolerance_multiplier", "draws", "graph_cap", "gn_threshold", "cross_pairs", "kind",
}


class ConfigError(ValueError):
    """Configuration or validation problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: WeightModel
    lambdas: np.ndarray
    n: int | None
    n_list: tuple[int, ...] | None
    replicates: int
    seed: int
    margin: float
    multiplier: float
    draws: int
    graph_cap: int
    gn_threshold: float
    cross_pairs: tuple[tuple[int, int], ...] | None
    threads: int
    out: Path


def _log(message: str) -> None:
    print(f"[giantflux] {message}", file=sys.stderr)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_grid(raw) -> np.ndarray:
    if isinstance(raw, dict):
        for key in ("min", "max", "points"):
            if key not in raw:
                raise ConfigError(f"lambda_grid object needs field '{key}'")
        points = _int_field("lambda_grid.points", raw["points"])
        if points < 1:
            raise ConfigError("lambda_grid points must be >= 1")
        grid = np.linspace(float(raw["min"]), float(raw["max"]), points)
    elif isinstance(raw, list) and raw:
        grid = np.asarray(raw, dtype=np.float64)
    else:
        raise ConfigError("lambda_grid must be {min, max, points} or a non-empty list")
    if not np.all(np.isfinite(grid)):
        raise ConfigError("lambda_grid entries must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError("lambda_grid must be strictly ascending")
    return grid


def _int_field(name: str, value) -> int:
    """An integer config value: a JSON integer, or a float with integral value; never a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"field '{name}' must be an integer, got {json.dumps(value)}")
    return int(value)


def _list_field(name: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"field '{name}' must be a list, got {json.dumps(value)}")
    return value


def _default_threads() -> int:
    env = os.environ.get("GIANTFLUX_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"GIANTFLUX_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if "model" not in raw:
        raise ConfigError("config needs field 'model'")
    try:
        model = WeightModel.from_config(raw["model"])
    except ValueError as exc:
        raise ConfigError(f"field 'model': {exc}") from exc
    if "lambda_grid" not in raw:
        raise ConfigError("config needs field 'lambda_grid'")
    grid = _parse_grid(raw["lambda_grid"])

    kind = raw.get("kind")
    expected_kind = _HARNESS_KINDS.get(args.command)
    if kind is not None and expected_kind is not None and kind != expected_kind:
        raise ConfigError(
            f"config kind {kind!r} does not match subcommand {args.command!r} "
            f"(expected {expected_kind!r})"
        )

    n = raw.get("n")
    n_list = raw.get("n_list")
    seed = _int_field("seed", raw.get("seed", 0)) if args.seed is None else args.seed
    margin = float(raw.get("margin", DEFAULT_MARGIN)) if args.margin is None else args.margin
    threads = args.threads if args.threads is not None else _default_threads()

    cross_pairs = None
    if raw.get("cross_pairs") is not None:
        pairs = _list_field("cross_pairs", raw["cross_pairs"])
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ConfigError("field 'cross_pairs' entries must be [i, j] pairs")
        cross_pairs = tuple(tuple(_int_field("cross_pairs", x) for x in pair) for pair in pairs)
        for a, b in cross_pairs:
            if not (0 <= a < grid.size and 0 <= b < grid.size):
                raise ConfigError(f"cross_pairs entry ({a}, {b}) out of grid range")

    config = RunConfig(
        command=args.command,
        model=model,
        lambdas=grid,
        n=_int_field("n", n) if n is not None else None,
        n_list=(
            tuple(_int_field("n_list", x) for x in _list_field("n_list", n_list))
            if n_list is not None else None
        ),
        replicates=_int_field("replicates", raw.get("replicates", 200)),
        seed=seed,
        margin=margin,
        multiplier=float(raw.get("tolerance_multiplier", 3.0)),
        draws=_int_field("draws", raw.get("draws", 1000)),
        graph_cap=_int_field("graph_cap", raw.get("graph_cap", 2000)),
        gn_threshold=float(raw.get("gn_threshold", 0.5)),
        cross_pairs=cross_pairs,
        threads=threads,
        out=Path(args.out),
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.command in _SUPERCRITICAL_COMMANDS:
        require_supercritical(config.model, config.lambdas, config.margin)
    elif np.any(config.lambdas < 0.0):
        raise ConfigError("lambda grid entries must be >= 0")
    needs_n = {"walk", "graph", "fclt", "compare", "endpoints"}
    if config.command in needs_n and config.n is None:
        raise ConfigError(f"subcommand '{config.command}' requires config field 'n'")
    if config.command == "converge" and not config.n_list:
        raise ConfigError("subcommand 'converge' requires config field 'n_list'")
    if config.replicates < 2:
        raise ConfigError("replicates must be >= 2")


def _write_lines(path: Path, lines: list[str]) -> None:
    harness.write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_theory(config: RunConfig) -> int:
    curves = supercritical_curves(config.model, config.lambdas, config.margin)
    cov = x_cov(curves)
    _log(f"tabulated {len(curves)} grid points (factorization jitter {cov.jitter:g})")
    lines = ["lambda,theta,rho,beta,var_L,var_V,cov_LV"]
    for i in range(len(curves)):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    curves.lambdas[i], curves.theta[i], curves.rho[i], curves.beta[i],
                    cov.var_count[i], cov.var_volume[i], cov.cov_count_volume[i],
                )
            )
        )
    _write_lines(config.out, lines)
    return 0


def _experiment_config(config: RunConfig, kind: str) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        model=config.model,
        lambdas=tuple(float(x) for x in config.lambdas),
        replicates=config.replicates,
        seed=config.seed,
        kind=kind,
        n=config.n,
        n_list=config.n_list,
        multiplier=config.multiplier,
        margin=config.margin,
        threads=config.threads,
        graph_cap=config.graph_cap,
        gn_threshold=config.gn_threshold,
        cross_pairs=config.cross_pairs,
    )


def _cmd_walk(config: RunConfig) -> int:
    exp = _experiment_config(config, "fclt")
    w = harness._weight_vector_for(exp, config.n)
    curves_n = supercritical_curves(
        WeightModel.empirical(w.weights), config.lambdas, config.margin
    )
    _log(f"running {config.replicates} walk replicates at n={config.n}")
    paths = harness.walk_replicates(
        w, curves_n, config.replicates, config.seed, config.threads
    )
    lines = ["replicate,lambda,g,d,volume,count,flucL,flucV"]
    for rep, path in enumerate(paths):
        for i, lam in enumerate(config.lambdas):
            res = path.results[i]
            lines.append(
                f"{rep},{_fmt(lam)},{_fmt(res.g)},{_fmt(res.d)},{_fmt(res.total_volume)},"
                f"{res.vertex_count},{_fmt(path.fluc_count[i])},{_fmt(path.fluc_volume[i])}"
            )
    _write_lines(config.out, lines)
    return 0


def _cmd_graph(config: RunConfig) -> int:
    exp = _experiment_config(config, "fclt")
    w = harness._weight_vector_for(exp, config.n)
    if config.n > config.graph_cap:
        raise ConfigError(f"n={config.n} exceeds the graph simulation cap {config.graph_cap}")
    _log(f"running {config.replicates} graph replicates at n={config.n}")
    paths = harness.graph_replicates(
        w, config.lambdas, config.replicates, config.seed, config.threads, cap=config.graph_cap
    )
    lines = ["replicate,lambda,L,V"]
    for rep, path in enumerate(paths):
        for snap in path:
            lines.append(f"{rep},{_fmt(snap.lam)},{snap.count},{_fmt(snap.volume)}")
    _write_lines(config.out, lines)
    return 0


def _cmd_limit(config: RunConfig) -> int:
    curves = supercritical_curves(config.model, config.lambdas, config.margin)
    _log(f"sampling {config.draws} limit draws on {len(curves)} grid points")
    samples = sample_x_path(curves, config.draws, config.seed)
    lines = ["draw,lambda,x0,x1"]
    for k, sample in enumerate(samples):
        for i, lam in enumerate(sample.lambdas):
            lines.append(f"{k},{_fmt(lam)},{_fmt(sample.x0[i])},{_fmt(sample.x1[i])}")
    _write_lines(config.out, lines)
    return 0


def _cmd_harness(config: RunConfig) -> int:
    kind = _HARNESS_KINDS[config.command]
    exp = _experiment_config(config, kind)
    _log(f"running {kind} experiment (R={config.replicates}, threads={config.threads})")
    report = harness.run_experiment(exp)
    harness.write_report_csv(report, config.out)
    harness.write_report_json(report, config.out.with_suffix(".json"))
    checked = [r for r in report.records if r.passed is not None]
    failures = [r for r in checked if not r.passed]
    _log(
        f"{len(checked) - len(failures)}/{len(checked)} checks passed"
        if checked
        else "report-only experiment, no pass/fail checks"
    )
    for r in failures:
        _log(f"FAIL lambda={r.lam:g} {r.stat}: empirical={r.empirical:g} "
             f"target={r.target:g} z={r.z:g}")
    if kind == "convergence-study":
        return 0
    return 0 if report.all_passed else 1


_COMMAND_HANDLERS = {
    "theory": _cmd_theory,
    "walk": _cmd_walk,
    "graph": _cmd_graph,
    "limit": _cmd_limit,
    "fclt": _cmd_harness,
    "compare": _cmd_harness,
    "endpoints": _cmd_harness,
    "converge": _cmd_harness,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giantflux",
        description="Giant-component fluctuations of dynamic rank-one random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "theory": "tabulate supercritical curves and limit variances to CSV",
        "walk": "simulate via the breadth-first walk encoding",
        "graph": "simulate the dynamic graph directly (small n oracle)",
        "limit": "sample the limit fluctuation process",
        "fclt": "Monte Carlo check of the fluctuation limit",
        "compare": "two-sample walk vs graph distributional check",
        "endpoints": "Monte Carlo check of the excursion endpoints",
        "converge": "tabulate variance error across a list of n",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument(
            "--margin", type=float, default=None,
            help=f"supercritical margin override (default {DEFAULT_MARGIN:g})",
        )
        cmd.add_argument(
            "--threads", type=int, default=None,
            help="worker threads (default: GIANTFLUX_THREADS or cpu count)",
        )
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code is not None else 0
    try:
        config = _load_run_config(args)
        return _COMMAND_HANDLERS[args.command](config)
    # ConfigError and numpy's LinAlgError are ValueErrors
    except (ValueError, ConvergenceError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

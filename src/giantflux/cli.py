"""Command-line entry point.

Seven subcommands over one JSON config format: ``theory`` tabulates the
supercritical curves and limit variances, ``walk`` and ``graph`` run the two
simulators, ``limit`` samples the limit process, and ``fclt`` / ``compare`` /
``converge`` run the verification experiments.

The CLI only reads the JSON and converts its types strictly: integer fields
take integers or integral floats, float fields take finite numbers, and a
boolean or a string is never read as a number.  It then builds one
``harness.ExperimentConfig`` from the fields the file sets, the kind the
subcommand implies and ``--threads`` when given, which never changes output
bytes; that class holds every default, the worker count's included, and
every range and consistency check.  Data goes only to the output files;
progress goes to stderr.  Exit codes: 0 success (and all checks passed where
applicable), 1 a verification check failed, 2 config or validation error, or
a run too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from math import isfinite
from pathlib import Path

import numpy as np

from . import harness
from .harness import COMMAND_KINDS, MAX_THREADS, ExperimentConfig, _log
from .limit_sampler import sample_x_path
from .theory import ConvergenceError, supercritical_curves, x_cov
from .weights import WeightModel

__all__ = ["ConfigError", "dispatch", "main"]


class ConfigError(ValueError):
    """Configuration or validation problem; maps to exit code 2."""


def _int_field(name: str, value) -> int:
    """An integer config value: a JSON integer, or a float with integral value; never a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"field '{name}' must be an integer, got {json.dumps(value)}")
    return int(value)


def _float_field(name: str, value) -> float:
    """A float config value: a finite JSON number; never a bool or a string."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = float("inf")
        if isfinite(number):
            return number
    raise ConfigError(f"field '{name}' must be a finite number, got {json.dumps(value)}")


def _n_list_field(name: str, value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"field '{name}' must be a list, got {json.dumps(value)}")
    return tuple(_int_field(name, x) for x in value)


def _parse_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, dict):
        for key in ("min", "max", "points"):
            if key not in raw:
                raise ConfigError(f"lambda_grid object needs field '{key}'")
        points = _int_field("lambda_grid.points", raw["points"])
        if points < 1:
            raise ConfigError("lambda_grid points must be >= 1")
        lo = _float_field("lambda_grid.min", raw["min"])
        hi = _float_field("lambda_grid.max", raw["max"])
        return tuple(np.linspace(lo, hi, points).tolist())
    if isinstance(raw, list) and raw:
        return tuple(_float_field("lambda_grid", x) for x in raw)
    raise ConfigError("lambda_grid must be {min, max, points} or a non-empty list")


def _optional(convert):
    """A converter that reads JSON null as "not set"."""
    return lambda name, value: None if value is None else convert(name, value)


# JSON field -> (ExperimentConfig field, converter); model and lambda_grid
# are read on their own
_FIELDS = {
    "seed": ("seed", _int_field),
    "margin": ("margin", _float_field),
    "n": ("n", _optional(_int_field)),
    "n_list": ("n_list", _optional(_n_list_field)),
    "replicates": ("replicates", _int_field),
    "tolerance_multiplier": ("multiplier", _float_field),
    "draws": ("draws", _int_field),
}
_KNOWN_FIELDS = {"model", "lambda_grid", *_FIELDS}


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
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
    kind = COMMAND_KINDS[args.command]
    fields = {"model": model, "lambdas": _parse_grid(raw["lambda_grid"]), "kind": kind}
    for key, (name, convert) in _FIELDS.items():
        if key in raw:
            fields[name] = convert(key, raw[key])
    if args.threads is not None:
        fields["threads"] = args.threads
    return ExperimentConfig(**fields)


def _table_lines(header: str, template: str, lambdas, table: np.ndarray):
    """``header``, then one item per index i of an (R, m, k) table: its m rows
    ``i,lambda,template % values``, joined by newlines and formatted by one
    ``%`` over the replicate's values (``%d`` fields take the floats too)."""
    yield header
    # a label is %.17g of a finite float, so it holds no "%" to escape
    rows = ["%.17g,%s" % (lam, template) for lam in lambdas]
    for i, values in enumerate(table):
        head = "%d," % i
        yield (head + ("\n" + head).join(rows)) % tuple(values.ravel().tolist())


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_theory(config: ExperimentConfig, out: Path) -> int:
    curves = supercritical_curves(config.model, config.grid(), config.margin)
    cov = x_cov(curves)
    _log(f"tabulated {len(curves)} grid points (factorization jitter {cov.jitter:g})")
    columns = (curves.lambdas, curves.theta, curves.rho, curves.beta,
               cov.var_count, cov.var_volume, cov.cov_count_volume)
    rows = (",".join(["%.17g"] * 7) % row for row in zip(*(c.tolist() for c in columns)))
    harness.write_lines_atomic(out, chain(["lambda,theta,rho,beta,var_L,var_V,cov_LV"], rows))
    return 0


def _cmd_walk(config: ExperimentConfig, out: Path) -> int:
    ((w, centre),) = harness._centres(config, [config.n])
    stats = harness.replicate_stats(config, w, "walk")  # count, volume, g, d
    def tables():  # g, d, volume, count and the fluctuation pair, one replicate at a time
        for rows in stats:
            fluc = harness._fluctuations(rows[None, :, :2].copy(), centre, w.n)
            yield np.concatenate((rows[:, [2, 3, 1, 0]], fluc.reshape(-1, 2)), axis=1)
    harness.write_lines_atomic(out, _table_lines(
        "replicate,lambda,g,d,volume,count,flucL,flucV",
        "%.17g,%.17g,%.17g,%d,%.17g,%.17g", config.lambdas, tables(),
    ))
    return 0


def _cmd_graph(config: ExperimentConfig, out: Path) -> int:
    stats = harness.replicate_stats(config, harness._weights(config, config.n), "graph")
    harness.write_lines_atomic(
        out, _table_lines("replicate,lambda,L,V", "%d,%.17g", config.lambdas, stats)
    )
    return 0


def _cmd_limit(config: ExperimentConfig, out: Path) -> int:
    curves = supercritical_curves(config.model, config.grid(), config.margin)
    _log(f"sampling {config.draws} limit draws on {len(curves)} grid points")
    x0, x1 = sample_x_path(curves, config.draws, config.seed)
    harness.write_lines_atomic(out, _table_lines(
        "draw,lambda,x0,x1", "%.17g,%.17g", curves.lambdas, np.stack((x0, x1), axis=2)
    ))
    return 0


def _cmd_harness(config: ExperimentConfig, out: Path) -> int:
    report = harness.run_experiment(config)
    harness.write_report_csv(report, out)
    harness.write_report_json(report, out.with_suffix(".json"))
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
    return 0 if report.all_passed else 1


# subcommand -> (handler, help), in the order the help lists them
_SUBCOMMANDS = {
    "theory": (_cmd_theory, "tabulate supercritical curves and limit variances to CSV"),
    "walk": (_cmd_walk, "simulate via the breadth-first walk encoding"),
    "graph": (
        _cmd_graph,
        "simulate the dynamic graph directly (sparse oracle, <= 1e8 expected candidates)",
    ),
    "limit": (_cmd_limit, "sample the limit fluctuation process"),
    "fclt": (_cmd_harness, "Monte Carlo check of the fluctuation limit"),
    "compare": (_cmd_harness, "two-sample walk vs graph distributional check"),
    "converge": (_cmd_harness, "tabulate variance error across a list of n"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giantflux",
        description="Giant-component fluctuations of dynamic rank-one random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument(
            "--threads", type=int, default=None,
            help=f"worker threads, 1..{MAX_THREADS} (default: cpu count, at most {MAX_THREADS})",
        )
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code is not None else 0
    try:
        config = _load_config(args)
        handler, out = _SUBCOMMANDS[args.command][0], Path(args.out)
        files = {f"config {args.config}": args.config, f"CSV {out}": out}  # role -> path
        if handler is _cmd_harness:  # the JSON report goes beside the CSV
            report = out.with_suffix(".json")
            files[f"JSON report {report} (--out with suffix .json)"] = report
        # os.path.realpath, not Path.resolve, which raises on a symlink loop
        if len(set(map(os.path.realpath, files.values()))) < len(files):
            *first, last = files
            raise ConfigError(f"{', '.join(first)} and {last} must be {len(files)} distinct files")
        return handler(config, out)
    # ConfigError and numpy's LinAlgError are ValueErrors; numpy raises
    # MemoryError for an array too large to allocate
    except (ValueError, ConvergenceError, OSError, MemoryError) as exc:
        _log(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

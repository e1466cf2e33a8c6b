"""Monte Carlo experiments that check the simulators against the theory.

One runner, ``replicate_stats``, serves every experiment and the CLI's
``walk`` and ``graph``: it runs R replicates of the walk or of the direct
graph on the config's lambda grid and returns the giant's statistics as one
(R, m, k) float64 array.  The experiments centre and reduce that array
themselves, comparing empirical moments with targets computed by the theory
module (never hardcoded numbers), using z-scores at a configurable multiple
of the standard error.  Reports are deterministic functions of the
configuration, including the base seed: replicate seeds are derived from
(base seed, stream tag, replicate index), and aggregation is a reduction in
replicate-index order, so threading cannot change any result.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import inf, isfinite, isnan, nan, sqrt
from pathlib import Path

import numpy as np

from .graph_oracle import candidate_probability, giant_path, simulate_dynamic_graph
from .theory import (
    DEFAULT_MARGIN, SupercriticalCurves, require_supercritical, supercritical_curves, x_cov,
)
from .walk import giant_results, sample_clocks
from .weights import WeightModel, WeightVector, mixed_moment, weight_vector

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ReportRecord",
    "COMMAND_KINDS",
    "MAX_N",
    "run_fclt",
    "run_oracle_compare",
    "run_endpoint_check",
    "run_convergence_study",
    "run_experiment",
    "replicate_stats",
    "write_report_csv",
    "write_report_json",
    "write_text_atomic",
]

# subcommand -> config kind; the four experiments keep their report names
COMMAND_KINDS = {
    "theory": "theory", "walk": "walk", "graph": "graph", "limit": "limit", "fclt": "fclt",
    "compare": "oracle-compare", "endpoints": "endpoint-check", "converge": "convergence-study",
}
_COMMANDS = {kind: command for command, kind in COMMAND_KINDS.items()}

# largest vertex count a config may ask for, and largest expected candidate
# count of one direct-graph replicate: the walk holds a few float64 arrays of
# length n per worker and the graph a few of length candidates, so 10**8
# already needs gigabytes, and more would fail inside numpy with a message
# naming no field
MAX_N = 10**8

# endpoint-check bound on the 95th percentile of sqrt(n) * g, a heuristic:
# the left edge has no limiting scale
GN_THRESHOLD = 0.5

# stream tags keeping the RNG streams of the different samplers disjoint
_TAG_CLOCKS = 1
_TAG_GRAPH = 2
_TAG_WEIGHTS = 3


def _child_seed(base_seed: int, *path: int) -> int:
    ss = np.random.SeedSequence((int(base_seed),) + tuple(int(x) for x in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything needed to reproduce one run of any subcommand (``kind``).

    Building a config validates every field; the CLI passes only the fields
    a config file sets, so the defaults here are the only ones.
    """

    model: WeightModel
    lambdas: tuple[float, ...]
    kind: str
    replicates: int = 200
    seed: int = 0
    n: int | None = None
    n_list: tuple[int, ...] | None = None
    multiplier: float = 3.0
    margin: float = DEFAULT_MARGIN
    threads: int = 1
    draws: int = 1000

    def __post_init__(self) -> None:
        command = _COMMANDS.get(self.kind)
        if command is None:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        grid = self.grid()
        if grid.size == 0:
            raise ValueError("lambda grid must be non-empty")
        if not np.all(np.isfinite(grid)):
            raise ValueError("lambda_grid entries must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("lambda_grid must be strictly ascending")
        if not self.margin >= 0.0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.kind == "graph":
            if np.any(grid < 0.0):
                raise ValueError("lambda grid entries must be >= 0")
        else:
            require_supercritical(self.model, grid, self.margin)
        needs_n = command in ("walk", "graph", "fclt", "compare", "endpoints")
        if needs_n and self.n is None:
            raise ValueError(f"subcommand '{command}' requires config field 'n'")
        if command == "converge" and not self.n_list:
            raise ValueError(f"subcommand '{command}' requires config field 'n_list'")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # every given size, also one the subcommand ignores
        for label, sizes in (("n", (self.n,) if self.n is not None else ()),
                             ("n_list entries", self.n_list or ())):
            for n in sizes:
                if n < 1:
                    raise ValueError(f"{label} must be >= 1, got {n}")
                if n > MAX_N:
                    raise ValueError(f"{label} must be <= MAX_N = {MAX_N}, got {n}")
        if command in ("graph", "compare"):
            # model.values[-1] bounds every weight weight_vector can produce
            q = candidate_probability(self.n, float(grid[-1]), float(self.model.values[-1]))
            candidates = q * (self.n * (self.n - 1) / 2)
            if candidates > MAX_N:
                raise ValueError(
                    f"n={self.n} and lambda_grid up to {grid[-1]:g} expect {candidates:.3g} "
                    f"graph candidates per replicate, more than MAX_N = {MAX_N}"
                )
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not (isfinite(self.multiplier) and self.multiplier > 0.0):
            raise ValueError(
                f"tolerance_multiplier must be finite and > 0, got {self.multiplier}"
            )

    def grid(self) -> np.ndarray:
        return np.asarray(self.lambdas, dtype=np.float64)

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.model.to_config(),
            "n": self.n,
            "n_list": list(self.n_list) if self.n_list is not None else None,
            "lambdas": list(self.lambdas),
            "replicates": self.replicates,
            "seed": self.seed,
            "multiplier": self.multiplier,
            "margin": self.margin,
            "gn_threshold": GN_THRESHOLD,
        }


@dataclass(frozen=True)
class ReportRecord:
    """One compared statistic; ``passed`` is None for report-only rows."""

    lam: float
    stat: str
    empirical: float
    target: float
    se: float
    z: float
    passed: bool | None


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    meta: dict
    records: tuple[ReportRecord, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records if r.passed is not None)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "meta": self.meta,
            "all_passed": self.all_passed,
            "records": [
                {
                    "lambda": r.lam,
                    "stat": r.stat,
                    "empirical": r.empirical,
                    "target": r.target,
                    "se": None if isnan(r.se) else r.se,
                    "z": None if isnan(r.z) else r.z,
                    "pass": r.passed,
                }
                for r in self.records
            ],
        }


# ---------------------------------------------------------------------------
# moment estimates with standard errors

def _mean_se(x: np.ndarray) -> tuple[float, float]:
    r = x.size
    return float(np.mean(x)), float(np.std(x, ddof=1) / sqrt(r))

def _var_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance with a conservative standard error.

    Normal-theory SE var * sqrt(2/(R-1)) understates the error for
    heavy-tailed samples, so take the larger of it and the plug-in SE
    sqrt((m4 - m2^2)/R) from the fourth central moment.
    """
    r = x.size
    d = x - np.mean(x)
    m2 = float(np.dot(d, d) / (r - 1))
    m4 = float(np.mean(d**4))
    se_normal = m2 * sqrt(2.0 / (r - 1))
    se_robust = sqrt(max(m4 - m2 * m2, 0.0) / r)
    return m2, max(se_normal, se_robust)

def _cov_se(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    r = x.size
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    c = float(np.dot(dx, dy) / (r - 1))
    vx = float(np.dot(dx, dx) / (r - 1))
    vy = float(np.dot(dy, dy) / (r - 1))
    se_normal = sqrt((vx * vy + c * c) / (r - 1))
    m22 = float(np.mean(dx * dx * dy * dy))
    se_robust = sqrt(max(m22 - c * c, 0.0) / r)
    return c, max(se_normal, se_robust)

def _zscore(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else inf
    return diff / se


def _record(lam, stat, empirical, target, se, multiplier) -> ReportRecord:
    """One row; ``multiplier=None`` makes it report-only (``passed`` None)."""
    z = _zscore(empirical - target, se)
    return ReportRecord(
        lam=float(lam), stat=stat, empirical=float(empirical), target=float(target),
        se=float(se), z=float(z), passed=None if multiplier is None else bool(abs(z) <= multiplier),
    )


# ---------------------------------------------------------------------------
# replicate machinery

def _map_indexed(fn, count: int, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def replicate_stats(
    config: ExperimentConfig, n: int, simulator: str, seed_path: tuple[int, ...] = ()
) -> tuple[WeightVector, np.ndarray]:
    """``config.replicates`` runs of one simulator at size n on the config's grid.

    Returns the weight vector and a float64 array of shape (R, m, k): entry
    [rep, i] holds the giant at lambda_i of replicate rep, as
    (count, volume, g, d) for ``"walk"`` and (count, volume) for ``"graph"``.
    Replicate rep draws from ``_child_seed(config.seed, tag, *seed_path, rep)``.
    """
    w = weight_vector(config.model, n, _child_seed(config.seed, _TAG_WEIGHTS, n))
    grid = config.grid()
    if simulator == "walk":
        held = threading.local()  # each worker's last realization, whose buffers it reuses
        def one(rep: int) -> list:
            seed = _child_seed(config.seed, _TAG_CLOCKS, *seed_path, rep)
            held.r = r = sample_clocks(w, seed, getattr(held, "r", None))
            return [(e.vertex_count, e.total_volume, e.g, e.d) for e in giant_results(r, grid)]
    elif simulator == "graph":
        def one(rep: int) -> list:
            seed = _child_seed(config.seed, _TAG_GRAPH, *seed_path, rep)
            r = simulate_dynamic_graph(w, seed, float(grid[-1]))
            return [(s.count, s.volume) for s in giant_path(r, grid)]
    else:
        raise ValueError(f"unknown simulator {simulator!r}; expected 'walk' or 'graph'")
    return w, np.array(_map_indexed(one, config.replicates, config.threads), dtype=np.float64)


def _fluctuations(
    config: ExperimentConfig, w: WeightVector, stats: np.ndarray
) -> tuple[SupercriticalCurves, np.ndarray, np.ndarray]:
    """The curves of w's own law and the (R, m) count and volume fluctuations.

    Each fluctuation is centred on the finite-n law of the vector in use:
    (L - rho_n n)/sqrt(n) and (V - theta_n n)/sqrt(n).
    """
    curves_n = supercritical_curves(WeightModel.empirical(w.weights), config.grid(), config.margin)
    sqrt_n = np.sqrt(w.n)
    fluc_count = (stats[..., 0] - curves_n.rho * w.n) / sqrt_n
    fluc_volume = (stats[..., 1] - curves_n.theta * w.n) / sqrt_n
    return curves_n, fluc_count, fluc_volume


# ---------------------------------------------------------------------------
# experiments

def _require_kind(config: ExperimentConfig, kind: str, runner: str) -> None:
    if config.kind != kind:
        raise ValueError(f"{runner} needs kind={kind!r}, got {config.kind!r}")


def run_fclt(config: ExperimentConfig) -> ExperimentReport:
    """Check the fluctuation pair of the giant against the limit covariance.

    R walk replicates at size n; per lambda the empirical mean (target 0),
    the two variances and the cross covariance are compared against the
    kernel-derived limit covariance; each consecutive lambda pair checks the
    cross-lambda covariance of the coupled path.
    """
    _require_kind(config, "fclt", "run_fclt")
    grid = config.grid()
    cov = x_cov(supercritical_curves(config.model, grid, config.margin))
    _, fluc_count, fluc_volume = _fluctuations(config, *replicate_stats(config, config.n, "walk"))

    mult = config.multiplier
    records = []
    for i, lam in enumerate(grid):
        mean_c, se = _mean_se(fluc_count[:, i])
        records.append(_record(lam, "mean_fluc_count", mean_c, 0.0, se, mult))
        mean_v, se = _mean_se(fluc_volume[:, i])
        records.append(_record(lam, "mean_fluc_volume", mean_v, 0.0, se, mult))
        var_c, se = _var_se(fluc_count[:, i])
        records.append(_record(lam, "var_fluc_count", var_c, cov.var_count[i], se, mult))
        var_v, se = _var_se(fluc_volume[:, i])
        records.append(_record(lam, "var_fluc_volume", var_v, cov.var_volume[i], se, mult))
        cov_cv, se = _cov_se(fluc_count[:, i], fluc_volume[:, i])
        records.append(
            _record(lam, "cov_fluc_count_volume", cov_cv, cov.cov_count_volume[i], se, mult)
        )
    for i in range(grid.size - 1):
        j = i + 1
        (count_ij, _), (_, volume_ij) = cov.block(i, j)
        c, se = _cov_se(fluc_count[:, i], fluc_count[:, j])
        records.append(
            _record(grid[i], f"crosscov_count@lambda={grid[j]:g}", c, count_ij, se, mult)
        )
        c, se = _cov_se(fluc_volume[:, i], fluc_volume[:, j])
        records.append(
            _record(grid[i], f"crosscov_volume@lambda={grid[j]:g}", c, volume_ij, se, mult)
        )
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


def run_oracle_compare(config: ExperimentConfig) -> ExperimentReport:
    """Two-sample comparison of (count, volume) between the two simulators.

    The same weight vector from ``weight_vector`` feeds both, with
    independent seeds; the encoded walk and the direct graph must agree in
    law, so every mean and variance z-score localizes a bug when it blows up.
    """
    _require_kind(config, "oracle-compare", "run_oracle_compare")
    grid = config.grid()
    _, walk_stats = replicate_stats(config, config.n, "walk")
    _, graph_stats = replicate_stats(config, config.n, "graph")

    mult = config.multiplier
    records = []
    for i, lam in enumerate(grid):
        for k, name in ((0, "count"), (1, "volume")):
            xw = walk_stats[:, i, k]
            xg = graph_stats[:, i, k]
            mw, sew = _mean_se(xw)
            mg, seg = _mean_se(xg)
            records.append(
                _record(lam, f"mean_{name}", mw, mg, sqrt(sew**2 + seg**2), mult)
            )
            vw, sew = _var_se(xw)
            vg, seg = _var_se(xg)
            records.append(
                _record(lam, f"var_{name}", vw, vg, sqrt(sew**2 + seg**2), mult)
            )
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


def run_endpoint_check(config: ExperimentConfig) -> ExperimentReport:
    """Check the excursion endpoints: d fluctuates like the limit volume's
    kernel coordinate over beta, and sqrt(n) * g collapses to 0.

    The right-edge variance gets a z-test; the left edge has no limiting
    scale, so its 95th percentile is compared against a documented heuristic
    threshold.
    """
    _require_kind(config, "endpoint-check", "run_endpoint_check")
    grid = config.grid()
    curves = supercritical_curves(config.model, grid, config.margin)
    # psi(1, 1; T, T) at T = lambda theta: the diagonal of the order-2 kernel
    times = grid * curves.theta
    kernel = mixed_moment(config.model, 2, times) - mixed_moment(config.model, 2, times + times)
    targets = kernel / curves.beta**2
    w, stats = replicate_stats(config, config.n, "walk")
    curves_n, _, _ = _fluctuations(config, w, stats)

    sqrt_n = sqrt(config.n)
    mult = config.multiplier
    records = []
    for i, lam in enumerate(grid):
        g, d = stats[:, i, 2], stats[:, i, 3]
        x = sqrt_n * (d - curves_n.theta[i])
        var, se = _var_se(x)
        records.append(_record(lam, "var_sqrtn_d", var, targets[i], se, mult))
        # the limit of sqrt(n)(d - theta_n) is centered, but the empirical
        # mean inherits the O(n^{-1/2}) left-edge offset, so it is reported
        # without a pass gate
        mean, se = _mean_se(x)
        records.append(_record(lam, "mean_sqrtn_d", mean, 0.0, se, multiplier=None))
        p95 = float(np.quantile(sqrt_n * g, 0.95))
        records.append(
            ReportRecord(
                lam=float(lam), stat="gn_p95", empirical=p95,
                target=GN_THRESHOLD, se=nan, z=nan, passed=bool(p95 < GN_THRESHOLD),
            )
        )
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


def run_convergence_study(config: ExperimentConfig) -> ExperimentReport:
    """Tabulate |empirical variance - limit target| across a list of n.

    Report-only (no pass/fail): the theory proves convergence, not a rate.
    Replicate seeds are disjoint across the n values.
    """
    _require_kind(config, "convergence-study", "run_convergence_study")
    grid = config.grid()
    cov = x_cov(supercritical_curves(config.model, grid, config.margin))
    records = []
    for n_idx, n in enumerate(config.n_list):
        stats = replicate_stats(config, n, "walk", seed_path=(n_idx,))
        _, fluc_count, fluc_volume = _fluctuations(config, *stats)
        for i, lam in enumerate(grid):
            for name, fluc, target in (("count", fluc_count, cov.var_count),
                                       ("volume", fluc_volume, cov.var_volume)):
                var, _ = _var_se(fluc[:, i])
                records.append(_record(lam, f"abs_var_err_{name}[n={n}]", abs(var - target[i]),
                                       0.0, nan, multiplier=None))
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


_RUNNERS = {
    "fclt": run_fclt,
    "oracle-compare": run_oracle_compare,
    "endpoint-check": run_endpoint_check,
    "convergence-study": run_convergence_study,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    if config.kind not in _RUNNERS:
        raise ValueError(f"kind {config.kind!r} is not an experiment: {', '.join(_RUNNERS)}")
    return _RUNNERS[config.kind](config)


# ---------------------------------------------------------------------------
# report emission

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_report_csv(report: ExperimentReport, path) -> None:
    lines = ["lambda,stat,empirical,target,se,z,pass"]
    for r in report.records:
        passed = "" if r.passed is None else ("true" if r.passed else "false")
        lines.append(
            f"{_fmt(r.lam)},{r.stat},{_fmt(r.empirical)},{_fmt(r.target)},"
            f"{_fmt(r.se)},{_fmt(r.z)},{passed}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_report_json(report: ExperimentReport, path) -> None:
    write_text_atomic(path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same directory.

    ``os.replace`` then swaps it in, so ``path`` holds either its old bytes
    or all the new ones; a failed write removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

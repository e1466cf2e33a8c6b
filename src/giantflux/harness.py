"""Monte Carlo experiments that check the simulators against the theory.

One runner, ``replicate_stats``, serves every experiment and the CLI's
``walk`` and ``graph``: it runs R replicates of the walk or of the direct
graph on the weight vector it is given (a run draws one per size, with
``_weights``) over the config's lambda grid, and returns the k columns of
the giant's statistics its caller reads as one (R, m, k) float64 array;
``_fluctuations`` centres its (count, volume) pairs in place.  The
experiments reduce these arrays against targets computed by the theory
module (never hardcoded numbers), with z-scores at a configurable multiple
of the standard error.  Reports are deterministic functions of the
configuration, including the base seed: replicate seeds are derived from
(base seed, stream tag, replicate index), and aggregation is a reduction in
replicate-index order, so threading cannot change any result.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from dataclasses import dataclass, field
from itertools import chain
from math import copysign, inf, isfinite, nan, sqrt
from pathlib import Path

import numpy as np

from .graph_oracle import candidate_probability, giant_path, simulate_dynamic_graph
from .theory import DEFAULT_MARGIN, require_supercritical, supercritical_curves, x_cov
from .walk import _buffer_bytes, giant_results, sample_clocks
from .weights import WeightModel, WeightVector, _index_dtype, _limb_dtype, weight_vector

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ReportRecord",
    "COMMAND_KINDS",
    "MAX_N",
    "MAX_GRID",
    "MAX_THREADS",
    "run_fclt",
    "run_oracle_compare",
    "run_convergence_study",
    "run_experiment",
    "replicate_stats",
    "write_report_csv",
    "write_report_json",
    "write_lines_atomic",
]

# subcommand -> config kind; the three experiments keep their report names
COMMAND_KINDS = {
    "theory": "theory", "walk": "walk", "graph": "graph", "limit": "limit", "fclt": "fclt",
    "compare": "oracle-compare", "converge": "convergence-study",
}
_COMMANDS = {kind: command for command, kind in COMMAND_KINDS.items()}

# largest vertex count a config may ask for, and largest expected candidate
# count of one direct-graph replicate: more would fail inside numpy with a
# message naming no field.  A walk worker holds 30 bytes per vertex for the
# half-half law (walk._buffer_bytes: packed keys, sorted classes, limb prefix,
# two scratch rows and a mask; plus one 128 KiB block), 3.0 GB at 10**8, so a
# walk run is also refused when its buffers, vectors and runner array exceed
# the machine's physical memory (ExperimentConfig._require_memory)
MAX_N = 10**8

# largest lambda grid: its 2m x 2m limit covariance holds (2m)^2 <= MAX_N entries
MAX_GRID = 5000

# largest worker count: each worker is an OS thread holding its own n-length
# buffers, and a thread the system cannot start would fail mid-run
MAX_THREADS = 256

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
    a config file sets and ``--threads``, so the defaults here are the only
    ones.  ``threads`` defaults to the cpu count, at most ``MAX_THREADS``;
    it never changes a result.
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
    threads: int = field(default_factory=lambda: min(os.cpu_count() or 1, MAX_THREADS))
    draws: int = 1000

    def __post_init__(self) -> None:
        command = _COMMANDS.get(self.kind)
        if command is None:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        grid = self.grid()
        if grid.size == 0:
            raise ValueError("lambda_grid must be non-empty")
        if grid.size > MAX_GRID:
            raise ValueError(f"lambda_grid has {grid.size} points, more than MAX_GRID = {MAX_GRID}")
        if not np.all(np.isfinite(grid)):
            raise ValueError("lambda_grid entries must be finite")
        if np.any(grid[1:] <= grid[:-1]):
            raise ValueError("lambda_grid must be strictly ascending")
        if not self.margin >= 0.0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.kind == "graph":
            if np.any(grid < 0.0):
                raise ValueError("lambda grid entries must be >= 0")
        else:
            require_supercritical(self.model, grid, self.margin)
        needs_n = command in ("walk", "graph", "fclt", "compare")
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
            for i, n in enumerate(sizes):
                if n < 1:
                    raise ValueError(f"{label} must be >= 1, got {n}")
                if n > MAX_N:
                    raise ValueError(f"{label} must be <= MAX_N = {MAX_N}, got {n}")
                if n in sizes[:i]:
                    raise ValueError(f"{label} must be distinct, got {n} more than once")
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
        if self.threads > MAX_THREADS:
            raise ValueError(f"threads must be <= {MAX_THREADS}, got {self.threads}")
        if not (isfinite(self.multiplier) and self.multiplier > 0.0):
            raise ValueError(
                f"tolerance_multiplier must be finite and > 0, got {self.multiplier}"
            )
        if command in ("walk", "fclt", "compare", "converge"):
            sizes = self.n_list if command == "converge" else (self.n,)
            self._require_memory(*self._walk_bytes(sizes, command))
        elif command == "limit":
            # at most 4 m (draws + m) floats at once: in limit_sampler._draws z
            # and z @ F.T, of at most 2m columns each, with the (2m)^2 factor F;
            # later 4 m draws floats (sample_x_path's draws, x0 and a product,
            # then cli._cmd_limit's x0, x1 and their (draws, m, 2) stack)
            m = grid.size
            self._require_memory(32 * m * (self.draws + m),
                                 f"limit with draws={self.draws} on {m} lambdas")

    @staticmethod
    def _require_memory(needed: int, run: str) -> None:
        """Refuse a run whose arrays, ``needed`` bytes, cannot fit in physical memory."""
        try:
            available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # no sysconf: nothing to bound by
            return
        if needed > available:
            raise ValueError(
                f"{run} needs {needed} bytes, more than the {available} bytes of physical memory"
            )

    def _walk_bytes(self, sizes, command: str) -> tuple[int, str]:
        """The bytes a walk run holds, and the run as the refusal names it.

        Each of min(threads, replicates) workers holds the buffers of one
        realization of the largest size (``walk._buffer_bytes``), every
        size's weight vector is held at once with its classes, law and limb
        table, and the runner holds its (R, m, k) float64 array (compare:
        two of k = 2).  Widths follow the model's atoms, a superset of every
        vector's: a subset of one-limb atoms has no larger limb values, and
        a wider table is taken at its largest possible limb value.
        """
        classes = self.model.values.size
        table = (self.model.vector or WeightVector(self.model.values)).limbs[1]
        limbs = table.shape[0]
        top = int(table.max()) if limbs == 1 else 2**31 - 1

        def vector(n: int) -> int:  # weights and classes; atoms, law and limb table
            k, limb_bytes = min(n, classes), np.dtype(_limb_dtype(n, top)).itemsize
            return n * (8 + _index_dtype(k).itemsize) + k * (16 + limbs * limb_bytes)

        n, workers = max(sizes), min(self.threads, self.replicates)
        walk = workers * _buffer_bytes(n, min(n, classes), limbs, _limb_dtype(n, top))
        columns = 4 if command in ("walk", "compare") else 2
        needed = walk + sum(map(vector, sizes)) + self.replicates * len(self.lambdas) * 8 * columns
        return needed, f"n={n} with {workers} walk workers"

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


def _finite(x: float) -> float | None:
    """JSON has no inf or NaN: a non-finite value is written as null."""
    return x if isfinite(x) else None


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
                    "lambda": _finite(r.lam),
                    "stat": r.stat,
                    "empirical": _finite(r.empirical),
                    "target": _finite(r.target),
                    "se": _finite(r.se),
                    "z": _finite(r.z),
                    "pass": r.passed,
                }
                for r in self.records
            ],
        }


# ---------------------------------------------------------------------------
# moment estimates with standard errors

def _centred(x: np.ndarray) -> tuple[float, np.ndarray]:
    """The sample mean and x minus it.  A constant sample is centred on its
    own value, exactly: np.mean of equal floats can miss it by an ulp."""
    mean = x[0] if x.min() == x.max() else np.mean(x)
    return float(mean), x - mean

def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, np.std(x, ddof=1) / sqrt(R)."""
    r = x.size
    mean, d = _centred(x)
    return mean, sqrt(float(np.square(d).sum()) / (r - 1)) / sqrt(r)

def _cov_se(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Sample covariance with a conservative standard error; ``_cov_se(x, x)``
    is the sample variance.

    Normal-theory SE sqrt((var_x var_y + c^2)/(R-1)) understates the error
    for heavy-tailed samples, so take the larger of it and the plug-in SE
    sqrt((m22 - c^2)/R) from the mixed fourth central moment.
    """
    r = x.size
    dx, dy = _centred(x)[1], _centred(y)[1]
    c = float(np.dot(dx, dy) / (r - 1))
    vx = float(np.dot(dx, dx) / (r - 1))
    vy = float(np.dot(dy, dy) / (r - 1))
    se_normal = sqrt((vx * vy + c * c) / (r - 1))
    m22 = float(np.mean(dx * dx * dy * dy))
    se_robust = sqrt(max(m22 - c * c, 0.0) / r)
    return c, max(se_normal, se_robust)

def _zscore(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else copysign(inf, diff)
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

def _map_indexed(fn, count: int, threads: int) -> None:
    """Run fn(0), ..., fn(count - 1); each task writes its own rows and returns nothing."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a run with workers pays its import

        with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
            for _ in pool.map(fn, range(count)):
                pass
    else:
        for i in range(count):
            fn(i)


def _log(message: str) -> None:
    print(f"[giantflux] {message}", file=sys.stderr)


def _weights(config: ExperimentConfig, n: int) -> WeightVector:
    """The weight vector of a run at size n, for every replicate of both simulators."""
    return weight_vector(config.model, n, _child_seed(config.seed, _TAG_WEIGHTS, n))


def replicate_stats(
    config: ExperimentConfig, w: WeightVector, simulator: str, seed_path: tuple[int, ...] = (),
    columns: int | None = None,
) -> np.ndarray:
    """``config.replicates`` runs of one simulator on w over the config's grid.

    Returns a float64 array of shape (R, m, k): row rep is the leading k =
    ``columns`` (default all) columns of replicate rep's ``giant_results``
    (``"walk"``: count, volume, g, d) or ``giant_path`` (``"graph"``: count,
    volume).  The array is allocated once and each replicate writes its own
    row, so memory grows with R by that array alone.  Replicate rep draws
    from ``_child_seed(config.seed, tag, *seed_path, rep)``.  The one stderr
    line of a call announces its replicates just before they start.
    """
    grid, width = config.grid(), {"walk": 4, "graph": 2}.get(simulator)
    if width is None:
        raise ValueError(f"unknown simulator {simulator!r}; expected 'walk' or 'graph'")
    k = width if columns is None else columns
    stats = np.empty((config.replicates, grid.size, k))
    if simulator == "walk":
        held = threading.local()  # each worker's last realization, whose buffers it reuses
        def one(rep: int) -> None:
            seed = _child_seed(config.seed, _TAG_CLOCKS, *seed_path, rep)
            held.r = r = sample_clocks(w, seed, getattr(held, "r", None))
            stats[rep] = giant_results(r, grid)[:, :k]
    else:
        def one(rep: int) -> None:
            seed = _child_seed(config.seed, _TAG_GRAPH, *seed_path, rep)
            stats[rep] = giant_path(simulate_dynamic_graph(w, seed, float(grid[-1])), grid)[:, :k]
    _log(f"running {config.replicates} {simulator} replicates at n={w.n}, threads={config.threads}")
    _map_indexed(one, config.replicates, config.threads)
    return stats


def _centres(config: ExperimentConfig, sizes) -> list[tuple[WeightVector, np.ndarray]]:
    """Per size n, its one weight vector w and the (m, 2) centre n (rho_n,
    theta_n) by ``w.law``.  Every law is checked before any replicate runs,
    naming n and its lambda_crit if the grid is not supercritical by it."""
    grid, drawn = config.grid(), []
    for n in sizes:
        w = _weights(config, n)
        try:
            curves = supercritical_curves(w.law, grid, config.margin)
        except ValueError as exc:
            raise ValueError(f"n={n}: by the weight vector's own law, {exc}") from None
        drawn.append((w, np.stack((curves.rho, curves.theta), axis=1) * n))
    return drawn


def _fluctuations(stats: np.ndarray, centre: np.ndarray, n: int) -> np.ndarray:
    """The (R, 2m) fluctuation matrix, in ``x_cov``'s coordinates (count_1,
    volume_1, count_2, ...): a view of the (R, m, 2) runner array ``stats``,
    centred on ``_centres``' centre and scaled by 1/sqrt(n) in place."""
    stats -= centre
    stats /= np.sqrt(n)
    return stats.reshape(len(stats), -1)


# ---------------------------------------------------------------------------
# experiments

def _require_kind(config: ExperimentConfig, kind: str, runner: str) -> None:
    if config.kind != kind:
        raise ValueError(f"{runner} needs kind={kind!r}, got {config.kind!r}")


def run_fclt(config: ExperimentConfig) -> ExperimentReport:
    """Check the fluctuation pair of the giant against the limit covariance.

    R walk replicates at size n give the fluctuation matrix y, whose columns
    a, b are coordinates of ``x_cov``'s matrix.  Per lambda the two means
    are compared with 0, and the two variances and the cross covariance with
    matrix[a, b]; each consecutive lambda pair checks the cross-lambda
    covariance of count and of volume on the coupled path.
    """
    _require_kind(config, "fclt", "run_fclt")
    grid = config.grid()
    matrix = x_cov(supercritical_curves(config.model, grid, config.margin)).matrix
    ((w, centre),) = _centres(config, [config.n])
    y = _fluctuations(replicate_stats(config, w, "walk", columns=2), centre, w.n)

    rows = []  # (lambda, stat, a, b): the mean of column a when b is None
    for i, lam in enumerate(grid):
        c, v = 2 * i, 2 * i + 1
        rows += [(lam, "mean_fluc_count", c, None), (lam, "mean_fluc_volume", v, None),
                 (lam, "var_fluc_count", c, c), (lam, "var_fluc_volume", v, v),
                 (lam, "cov_fluc_count_volume", c, v)]
    for i in range(grid.size - 1):
        at = f"@lambda={grid[i + 1]:g}"
        rows += [(grid[i], "crosscov_count" + at, 2 * i, 2 * i + 2),
                 (grid[i], "crosscov_volume" + at, 2 * i + 1, 2 * i + 3)]
    records = []
    for lam, stat, a, b in rows:
        if b is None:
            (value, se), target = _mean_se(y[:, a]), 0.0
        else:
            (value, se), target = _cov_se(y[:, a], y[:, b]), matrix[a, b]
        records.append(_record(lam, stat, value, target, se, config.multiplier))
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


def run_oracle_compare(config: ExperimentConfig) -> ExperimentReport:
    """Two-sample comparison of (count, volume) between the two simulators.

    One weight vector from ``weight_vector`` feeds both, with independent
    seeds; the encoded walk and the direct graph must agree in law, so every
    mean and variance z-score localizes a bug when it blows up.
    """
    _require_kind(config, "oracle-compare", "run_oracle_compare")
    grid, w = config.grid(), _weights(config, config.n)
    walk_stats = replicate_stats(config, w, "walk", columns=2)
    graph_stats = replicate_stats(config, w, "graph")

    records = []
    for i, lam in enumerate(grid):
        for k, name in ((0, "count"), (1, "volume")):
            xw, xg = walk_stats[:, i, k], graph_stats[:, i, k]
            for stat, estimate in (("mean", _mean_se), ("var", lambda x: _cov_se(x, x))):
                (vw, sew), (vg, seg) = estimate(xw), estimate(xg)
                records.append(_record(lam, f"{stat}_{name}", vw, vg, sqrt(sew**2 + seg**2),
                                       config.multiplier))
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


def run_convergence_study(config: ExperimentConfig) -> ExperimentReport:
    """Tabulate |empirical variance - limit target| across a list of n.

    Report-only (no pass/fail): the theory proves convergence, not a rate.
    Replicate seeds are disjoint across the n values.
    """
    _require_kind(config, "convergence-study", "run_convergence_study")
    grid = config.grid()
    matrix = x_cov(supercritical_curves(config.model, grid, config.margin)).matrix
    records = []
    for n_idx, (w, centre) in enumerate(_centres(config, config.n_list)):
        y = _fluctuations(replicate_stats(config, w, "walk", (n_idx,), columns=2), centre, w.n)
        for i, lam in enumerate(grid):
            for name, a in (("count", 2 * i), ("volume", 2 * i + 1)):
                var, _ = _cov_se(y[:, a], y[:, a])
                records.append(_record(lam, f"abs_var_err_{name}[n={w.n}]", abs(var - matrix[a, a]),
                                       0.0, nan, multiplier=None))
    return ExperimentReport(kind=config.kind, meta=config.meta(), records=tuple(records))


_RUNNERS = {
    "fclt": run_fclt,
    "oracle-compare": run_oracle_compare,
    "convergence-study": run_convergence_study,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    if config.kind not in _RUNNERS:
        raise ValueError(f"kind {config.kind!r} is not an experiment: {', '.join(_RUNNERS)}")
    return _RUNNERS[config.kind](config)


# ---------------------------------------------------------------------------
# report emission

def write_report_csv(report: ExperimentReport, path) -> None:
    passed = {None: "", True: "true", False: "false"}
    rows = ("%.17g,%s,%.17g,%.17g,%.17g,%.17g,%s" % (
        r.lam, r.stat, r.empirical, r.target, r.se, r.z, passed[r.passed]) for r in report.records)
    write_lines_atomic(path, chain(["lambda,stat,empirical,target,se,z,pass"], rows))


def write_report_json(report: ExperimentReport, path) -> None:
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    write_lines_atomic(path, [text])


def write_lines_atomic(path, lines) -> None:
    """Write each item of ``lines``, ended by a newline, as it arrives into a
    temporary file beside ``path`` (the file buffer batches small items, and
    memory holds one item at a time); ``os.replace`` then swaps it in, so
    ``path`` holds either its old bytes or all the new ones.  A failed write,
    or ``lines`` raising, removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

"""The benchmark's workloads: one giantflux CLI subcommand on a fixed config each.

Every workload uses the half-half weight law (weights 1 and 2 with
probability 1/2 each, lambda_crit = 0.4).  A workload has a full config,
timed for ``wall_s``, and a setup config that differs only in its size field
set to the smallest value the CLI accepts (``replicates: 2`` or
``draws: 1``), timed for ``setup_s``.  The workload seed is written into
both configs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

HALF_HALF = {"type": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]}
DEFAULT_SEED = 20250809

CSV_HEADERS = {
    "fclt": "lambda,stat,empirical,target,se,z,pass",
    "compare": "lambda,stat,empirical,target,se,z,pass",
    "limit": "draw,lambda,x0,x1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    config: dict       # without seed and without the size field
    size_field: str    # "replicates" or "draws"
    size: int          # size of the full call
    setup_size: int    # smallest size the CLI accepts
    why: str

    def make_config(self, seed: int, setup: bool) -> dict:
        cfg = dict(self.config)
        cfg[self.size_field] = self.setup_size if setup else self.size
        cfg["seed"] = seed
        return cfg

    @property
    def grid_points(self) -> int:
        grid = self.config["lambda_grid"]
        return grid["points"] if isinstance(grid, dict) else len(grid)

    def expected_rows(self, size: int) -> int:
        """Data rows the CLI writes for a call of the given size."""
        m = self.grid_points
        if self.command == "fclt":
            # five records per lambda plus two cross-lambda records per
            # consecutive pair (the default cross_pairs)
            return 5 * m + 2 * (m - 1)
        if self.command == "compare":
            return 4 * m
        if self.command == "limit":
            return size * m
        raise ValueError(f"no row count rule for {self.command!r}")


def _fclt(name, n, replicates, grid, threads, why):
    return Workload(
        name=name, command="fclt", threads=threads,
        config={"model": HALF_HALF, "lambda_grid": grid, "n": n},
        size_field="replicates", size=replicates, setup_size=2, why=why,
    )


WORKLOADS = {
    w.name: w
    for w in (
        _fclt(
            "fclt-n1e5", 100_000, 200, [1.5], 1,
            "FCLT at desk scale (acceptance criterion 5): clock draw, sort, prefix sums "
            "and one excursion scan per replicate; 1 worker, no replicate runner",
        ),
        _fclt(
            "fclt-grid20", 20_000, 300, {"min": 1.5, "max": 3.0, "points": 20}, 1,
            "20 lambdas per clock draw: per-lambda scan and fsum, n-point empirical "
            "centring curves in setup; 300 replicates so they outweigh setup",
        ),
        Workload(
            name="compare-n500", command="compare", threads=1,
            config={"model": HALF_HALF, "lambda_grid": [1.5, 2.0, 3.0], "n": 500},
            size_field="replicates", size=400, setup_size=2,
            why="walk vs direct graph: the only workload on graph_oracle, dominated by "
            "the dense O(n^2) arrival sampling and union-find",
        ),
        Workload(
            name="limit-grid100", command="limit", threads=1,
            config={"model": HALF_HALF, "lambda_grid": {"min": 1.0, "max": 4.0, "points": 100}},
            size_field="draws", size=1000, setup_size=1,
            why="no simulation: O(m^2) scalar kernel loops, two 200x200 Choleskys and a "
            "100000-row CSV; tiny support, many kernel entries",
        ),
    )
}

# Tiny sizes with the same code paths, for the benchmark's own tests.
SMOKE = {
    "fclt-n1e5": {"n": 5000, "size": 300},
    "fclt-grid20": {"n": 2000, "size": 200, "lambda_grid": {"min": 1.5, "max": 3.0, "points": 4}},
    "compare-n500": {"n": 60, "size": 300},
    "limit-grid100": {"size": 20, "lambda_grid": {"min": 1.0, "max": 4.0, "points": 10}},
}


def get(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not smoke:
        return w
    over = dict(SMOKE[name])
    size = over.pop("size")
    return replace(w, config={**w.config, **over}, size=size)

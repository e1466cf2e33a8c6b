"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Statistical criteria use fixed seeds, so every run is reproducible;
exact criteria carry their stated tolerances inline.
"""

import time
from contextlib import contextmanager
from math import fsum, sqrt

import numpy as np
import pytest
from test_graph_oracle import _components_at

from giantflux.graph_oracle import simulate_dynamic_graph
from giantflux.harness import (
    ExperimentConfig,
    _cov_se,
    _weights,
    replicate_stats,
    run_fclt,
    run_oracle_compare,
    write_report_json,
)
from giantflux.limit_sampler import sample_psi_pair
from giantflux.theory import (
    er_closed_forms, lambda_crit, phi, psi_cov_matrix, supercritical_curves, theta, x_cov,
)
from giantflux.walk import WalkRealization, all_excursions, giant_results, sample_clocks
from giantflux.weights import WeightModel, weight_vector

ER = WeightModel.constant(1.0)
HALF_HALF = WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])
SKEWED = WeightModel.discrete([(0.5, 0.8), (3.0, 0.2)])

SIGMA_SQ_2 = 0.45944172300703756  # frozen 40-digit golden for criterion 5


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s) - {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def test_criterion_1_er_analytic_anchor():
    with criterion(1, "ER analytic anchors at lambda in {1.5, 2, 3}", 1.0):
        for lam in (1.5, 2.0, 3.0):
            curves = supercritical_curves(ER, [lam])
            th, rh, be = theta(ER, lam), curves.rho[0], curves.beta[0]
            assert abs(th - rh) <= 1e-10
            assert abs(be - (1.0 - lam * (1.0 - rh))) <= 1e-10
            forms = er_closed_forms(lam)
            var_count = x_cov(curves).var_count[0]
            assert abs(var_count - forms.sigma_sq) <= 1e-10
            assert abs(forms.v / forms.u**2 - forms.sigma_sq) <= 1e-12


def test_criterion_2_root_residual():
    with criterion(2, "fixed-point residual over 50-point grids, 3 models", 1.0):
        for model in (ER, HALF_HALF, SKEWED):
            crit = lambda_crit(model)
            for lam in np.linspace(crit * 1.001, 4.0, 50):
                t = theta(model, lam)
                assert abs(phi(model, 1, lam * t) - t) <= 1e-10


# --- criterion 3: brute-force excursion oracle ------------------------------

_TOL = 1e-12  # the near-tie rule is part of the operation contract


def _brute_force_longest(weights, clocks, lam):
    """Dense scan of the piecewise-linear path: direct per-index summation
    with fsum, explicit running minima, exact descent segments."""
    n = len(weights)
    order = sorted(range(n), key=lambda j: clocks[j] / lam)
    times = [clocks[j] / lam for j in order]
    jumps = [weights[j] / n for j in order]
    before = [fsum(jumps[:k]) - times[k] for k in range(n)]
    after = [fsum(jumps[: k + 1]) - times[k] for k in range(n)]
    starts = []
    for k in range(n):
        if k == 0:
            starts.append(k)
            continue
        prev_min = min(before[:k])
        if before[k] <= prev_min + _TOL * (1.0 + abs(prev_min)):
            starts.append(k)
    ends = [s - 1 for s in starts[1:]] + [n - 1]
    excursions = []
    for a, b in zip(starts, ends):
        g = times[a]
        d = times[b] + (after[b] - before[a])
        members = [j for j in range(n) if g <= clocks[j] / lam <= d]
        volume = fsum(weights[j] for j in members)
        excursions.append((g, d, volume, len(members)))
    top = max(d - g for g, d, _, _ in excursions)
    for g, d, volume, count in excursions:
        if d - g >= top - _TOL * (1.0 + top):
            return g, d, volume, count
    raise AssertionError("unreachable")


def test_criterion_3_excursion_oracle_equivalence():
    with criterion(3, "longest excursion vs brute force on 500 small instances", 10.0):
        rng = np.random.default_rng(20250809)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            weights = rng.uniform(0.3, 3.0, size=n)
            clocks = rng.standard_exponential(n) / weights
            lam = float(rng.uniform(0.3, 3.0))
            r = WalkRealization.from_clocks(weights, clocks)
            (res,) = giant_results(r, [lam])  # (count, volume, g, d)
            g, d, volume, count = _brute_force_longest(
                weights.tolist(), clocks.tolist(), lam
            )
            assert res[0] == count
            assert res[1] == volume
            assert abs(res[2] - g) <= 1e-10
            assert abs(res[3] - d) <= 1e-10


def test_criterion_4_walk_vs_graph_distribution():
    with criterion(4, "walk vs graph two-sample equality at n=60", 30.0):
        config = ExperimentConfig(
            model=HALF_HALF, lambdas=(2.0, 3.0), replicates=2000, seed=20250809,
            kind="oracle-compare", n=60, threads=1,
        )
        report = run_oracle_compare(config)
        for record in report.records:
            assert abs(record.z) <= 3.0, f"{record.stat} at lambda={record.lam}: z={record.z}"


def test_criterion_5_fclt_desk_scale():
    with criterion(5, "FCLT variances and means at n=10^5", 300.0):
        for model, lam in ((ER, 2.0), (HALF_HALF, 1.5)):
            config = ExperimentConfig(
                model=model, lambdas=(lam,), replicates=200, seed=20250809,
                kind="fclt", n=10**5, threads=1,
            )
            report = run_fclt(config)
            by_stat = {r.stat: r for r in report.records}
            for stat in (
                "mean_fluc_count", "mean_fluc_volume",
                "var_fluc_count", "var_fluc_volume", "cov_fluc_count_volume",
            ):
                record = by_stat[stat]
                assert record.passed, f"{model.kind} {stat}: z={record.z}"
            if model is ER:
                assert by_stat["var_fluc_count"].target == pytest.approx(
                    SIGMA_SQ_2, abs=1e-10
                )


def test_criterion_6_endpoint_theorem():
    with criterion(6, "right-edge variance and left-edge collapse at n=10^5", 300.0):
        config = ExperimentConfig(
            model=ER, lambdas=(2.0,), replicates=200, seed=20250809,
            kind="walk", n=10**5, threads=1,
        )
        w = _weights(config, config.n)
        stats = replicate_stats(config, w, "walk")
        curves_n = supercritical_curves(w.law, config.grid(), config.margin)
        g, d = stats[:, 0, 2], stats[:, 0, 3]
        # n (d - g) is the giant's volume, so the right edge's limit variance
        # is the volume's; for unit weights it is the closed-form variance
        target = x_cov(supercritical_curves(ER, config.grid(), config.margin)).var_volume[0]
        assert target == pytest.approx(SIGMA_SQ_2, abs=1e-10)
        right = sqrt(config.n) * (d - curves_n.theta[0])
        var, se = _cov_se(right, right)
        z = (var - target) / se
        assert abs(z) <= config.multiplier, f"var z={z}"
        # the left edge collapses: a heuristic bound, n * g is O(1)
        assert np.quantile(sqrt(config.n) * g, 0.95) < 0.5


def test_criterion_7_limit_sampler():
    with criterion(7, "kernel-pair sampling and cross-representation identity", 60.0):
        times = [0.5, 1.0]
        count = 10**5
        draws = sample_psi_pair(HALF_HALF, times, count, seed=20250809).reshape(count, 4)
        target = psi_cov_matrix(HALF_HALF, times)
        for a in range(4):
            for b in range(4):
                da = draws[:, a] - draws[:, a].mean()
                db = draws[:, b] - draws[:, b].mean()
                emp = float(np.dot(da, db) / (count - 1))
                se = sqrt(
                    max(float(np.mean(da * da * db * db)) - emp * emp, 0.0) / count
                )
                assert abs(emp - target[a, b]) <= 3 * max(se, 1e-12)
        f1, f2 = er_closed_forms(1.5), er_closed_forms(2.0)
        brownian_cov = min(f1.v, f2.v) / (f1.u * f2.u)
        kernel_cov = x_cov(supercritical_curves(ER, [1.5, 2.0])).matrix[0, 2]
        assert abs(brownian_cov - kernel_cov) <= 1e-10


def test_criterion_8_conservation_and_determinism(tmp_path):
    with criterion(8, "mass conservation and bit-identical reruns", 10.0):
        # excursion lengths exhaust the walk's total jump mass
        rng = np.random.default_rng(20250809)
        w = rng.uniform(0.4, 3.0, size=2000)
        xi = rng.standard_exponential(2000) / w
        r = WalkRealization.from_clocks(w, xi)
        for lam in (0.3, 1.0, 2.5):
            total = fsum(d - g for _, _, g, d in all_excursions(r, lam))
            assert total == pytest.approx(r.total_mass, rel=1e-9)

        # the oracle's hook-and-shortcut labels conserve counts and volumes at every grid point
        v = weight_vector(HALF_HALF, 80, 0)
        graph = simulate_dynamic_graph(v, 20250809, lam_max=3.0)
        for lam in (0.0, 1.0, 3.0):
            comps = _components_at(graph, lam)
            assert sum(c for c, _ in comps) == 80
            assert fsum(vol for _, vol in comps) == pytest.approx(
                float(np.sum(v.weights)), rel=1e-9
            )

        # bit-identical reruns: grid giants and report files
        v = weight_vector(HALF_HALF, 400, 0)
        giants_a = giant_results(sample_clocks(v, 31), [2.0, 3.0])
        giants_b = giant_results(sample_clocks(v, 31), [2.0, 3.0])
        assert giants_a.tobytes() == giants_b.tobytes()

        config = ExperimentConfig(
            model=HALF_HALF, lambdas=(2.0,), replicates=40, seed=5,
            kind="oracle-compare", n=40, threads=2,
        )
        write_report_json(run_oracle_compare(config), tmp_path / "a.json")
        write_report_json(run_oracle_compare(config), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

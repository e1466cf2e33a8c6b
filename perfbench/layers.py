"""Metric definitions, and the per-layer metrics of a traced run.

Layers are giantflux's modules: cli, harness, weights, theory, walk,
graph_oracle, limit_sampler and _numeric (named ``numeric`` in metric
names).  Each per-layer metric says which end-to-end metric it should move,
on which workload; ``BENCHMARK.json`` lists the same names, units and
directions.

Time metrics are ``typical`` values over the traced calls of a run.  Counts
marked ``exact`` must repeat exactly across traced calls at a fixed seed.
"""

from __future__ import annotations

# Call times on a 2-core shared machine drift by 15-30% over minutes, so the
# time bounds are wide; peak memory repeats to within 0.5%.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "replicates_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _m(name, unit, better, moves, exact=False):
    return {"name": name, "unit": unit, "better": better, "moves": moves, "exact": exact}


PER_LAYER = [
    _m("walk.sample_clocks.calls", "count", "lower",
       "replicates_per_s on fclt-n1e5; small on fclt-grid20, ~0 on compare-n500, absent on limit-grid100",
       exact=True),
    _m("walk.sample_clocks.busy_s", "s", "lower", "replicates_per_s on fclt-n1e5"),
    _m("numeric.pairwise_cumsum.busy_s", "s", "lower",
       "replicates_per_s on fclt-n1e5 (child span of sample_clocks)"),
    _m("walk.sweep.busy_s", "s", "lower", "replicates_per_s on fclt-grid20 first, fclt-n1e5 second"),
    _m("walk.longest_excursion.calls", "count", "lower", "replicates_per_s on fclt-grid20, fclt-n1e5",
       exact=True),
    _m("walk.longest_excursion.busy_s", "s", "lower", "replicates_per_s on fclt-grid20, fclt-n1e5"),
    _m("walk.scan_ms_per_lambda", "ms", "lower", "replicates_per_s on fclt-grid20, fclt-n1e5"),
    _m("weights.mixed_moment.calls", "count", "lower",
       "setup_s on fclt-grid20, less on fclt-n1e5; compare-n500 unchanged", exact=True),
    _m("weights.moment_terms", "count", "lower",
       "setup_s on fclt-grid20, less on fclt-n1e5; compare-n500 unchanged", exact=True),
    _m("theory.supercritical_curves.calls", "count", "lower",
       "setup_s on fclt-grid20, less on fclt-n1e5", exact=True),
    _m("theory.supercritical_curves.busy_s", "s", "lower", "setup_s on fclt-grid20, less on fclt-n1e5"),
    _m("theory.x_cov.busy_s", "s", "lower", "setup_s and wall_s on limit-grid100 only"),
    _m("theory.psi_cov.calls", "count", "lower", "setup_s and wall_s on limit-grid100 only", exact=True),
    _m("limit_sampler.sample_x_path.busy_s", "s", "lower", "setup_s and wall_s on limit-grid100 only"),
    _m("limit_sampler.psi_cov_matrix.busy_s", "s", "lower", "setup_s and wall_s on limit-grid100 only"),
    _m("numeric.chol_with_jitter.calls", "count", "lower", "setup_s on limit-grid100", exact=True),
    _m("numeric.chol_with_jitter.busy_s", "s", "lower", "setup_s on limit-grid100"),
    _m("numeric.chol_with_jitter.retries", "count", "lower", "setup_s on limit-grid100", exact=True),
    _m("numeric.chol_with_jitter.jitter", "ratio", "lower", "setup_s on limit-grid100", exact=True),
    _m("graph_oracle.simulate_dynamic_graph.busy_s", "s", "lower",
       "replicates_per_s and peak_rss_mb on compare-n500 only"),
    _m("graph_oracle.giant_path.busy_s", "s", "lower", "replicates_per_s on compare-n500 only"),
    _m("graph_oracle.arrivals_sampled", "count", "lower",
       "replicates_per_s and peak_rss_mb on compare-n500 only", exact=True),
    _m("graph_oracle.arrivals_used", "count", "higher",
       "unchanged: arrivals at or below lambda_max/n, the work the result needs", exact=True),
    _m("graph_oracle.arrival_use_ratio", "ratio", "higher",
       "replicates_per_s and peak_rss_mb on compare-n500 only", exact=True),
    _m("harness.replicate_wait_s", "s", "lower",
       "stays ~0: every workload runs 1 worker; a multi-worker runner shows its waiting here"),
    _m("harness.worker_utilization", "ratio", "higher",
       "stays ~1: every workload runs 1 worker; a multi-worker runner shows its idle share here"),
    _m("harness.replicate_ms_p50", "ms", "lower", "replicates_per_s on fclt-grid20"),
    _m("harness.replicate_ms_p95", "ms", "lower", "replicates_per_s on fclt-grid20"),
    _m("harness.self_s", "s", "lower", "replicates_per_s on fclt-grid20"),
    _m("harness.checks_failed", "count", "lower",
       "no timing: failed statistical checks in the report, 0 at seed 20250809", exact=True),
    _m("cli.import_s", "s", "lower", "setup_s on every workload"),
    _m("cli.self_s", "s", "lower", "wall_s on limit-grid100 (parsing and CSV formatting)"),
    _m("cli.output_bytes", "B", "lower", "no timing: bytes of the CSV and JSON outputs", exact=True),
    _m("weights.self_s", "s", "lower", "setup_s on fclt-grid20"),
    _m("theory.self_s", "s", "lower", "setup_s on fclt-grid20 and limit-grid100"),
    _m("walk.self_s", "s", "lower", "replicates_per_s on fclt-n1e5, fclt-grid20"),
    _m("graph_oracle.self_s", "s", "lower", "replicates_per_s on compare-n500 only"),
    _m("limit_sampler.self_s", "s", "lower", "wall_s on limit-grid100 only"),
    _m("numeric.self_s", "s", "lower", "replicates_per_s on fclt-n1e5, setup_s on limit-grid100"),
    _m("process.minor_faults", "count", "lower",
       "wall_s on fclt-n1e5 (allocation churn of 1e5-element arrays); read through wait4 "
       "from the untraced calls"),
    _m("trace.overhead_s", "s", "lower", "none: traced wall time minus the untraced wall_s"),
]


def typical(values) -> float:
    """Mean of the values without the smallest and the largest (when there are 3 or more).

    Call times on a shared machine are bimodal, and the median of a handful
    of calls jumps between the two modes from run to run; this trimmed mean
    moves less and still drops a single stalled call.
    """
    values = sorted(values)
    if not values:
        return float("nan")
    if len(values) >= 3:
        values = values[1:-1]
    return sum(values) / len(values)


LAYERS = ("cli", "harness", "weights", "theory", "walk", "graph_oracle", "limit_sampler", "numeric")


def _from_summary(summary: dict, out_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced call, except those that need the whole run."""
    functions = summary["functions"]
    counters = summary["counters"]
    reps = summary["replicates"]

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    def busy(name):
        return functions.get(name, {}).get("busy_s", 0.0)

    sampled = counters.get("graph_oracle.arrivals_sampled", 0)
    used = counters.get("graph_oracle.arrivals_used", 0)
    scans = calls("walk.longest_excursion")
    values = {
        "walk.sample_clocks.calls": calls("walk.sample_clocks"),
        "walk.sample_clocks.busy_s": busy("walk.sample_clocks"),
        "numeric.pairwise_cumsum.busy_s": busy("numeric.pairwise_cumsum"),
        "walk.sweep.busy_s": busy("walk.sweep"),
        "walk.longest_excursion.calls": scans,
        "walk.longest_excursion.busy_s": busy("walk.longest_excursion"),
        "walk.scan_ms_per_lambda": 1000 * busy("walk.longest_excursion") / scans if scans else 0.0,
        "weights.mixed_moment.calls": calls("weights.mixed_moment"),
        "weights.moment_terms": counters.get("weights.moment_terms", 0),
        "theory.supercritical_curves.calls": calls("theory.supercritical_curves"),
        "theory.supercritical_curves.busy_s": busy("theory.supercritical_curves"),
        "theory.x_cov.busy_s": busy("theory.x_cov"),
        "theory.psi_cov.calls": calls("theory.psi_cov"),
        "limit_sampler.sample_x_path.busy_s": busy("limit_sampler.sample_x_path"),
        "limit_sampler.psi_cov_matrix.busy_s": busy("limit_sampler.psi_cov_matrix"),
        "numeric.chol_with_jitter.calls": calls("numeric.chol_with_jitter"),
        "numeric.chol_with_jitter.busy_s": busy("numeric.chol_with_jitter"),
        "numeric.chol_with_jitter.retries": counters.get("numeric.chol_with_jitter.retries", 0),
        "numeric.chol_with_jitter.jitter": counters.get("numeric.chol_with_jitter.jitter", 0.0),
        "graph_oracle.simulate_dynamic_graph.busy_s": busy("graph_oracle.simulate_dynamic_graph"),
        "graph_oracle.giant_path.busy_s": busy("graph_oracle.giant_path"),
        "graph_oracle.arrivals_sampled": sampled,
        "graph_oracle.arrivals_used": used,
        "graph_oracle.arrival_use_ratio": used / sampled if sampled else 0.0,
        "harness.replicate_wait_s": reps["wait_s"],
        "harness.worker_utilization": reps["utilization"],
        "harness.replicate_ms_p50": reps["ms_p50"],
        "harness.replicate_ms_p95": reps["ms_p95"],
        "cli.import_s": summary["import_s"],
        "cli.output_bytes": out_bytes,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    return values


def per_layer_metrics(run) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, and any inconsistency between its calls."""
    traced = [c for c in run.calls if c.kind == "traced" and c.summary is not None]
    untraced = [c for c in run.calls if c.kind == "full"]
    problems = []
    if not traced:
        return {m["name"]: float("nan") for m in PER_LAYER}, ["no traced call finished"]
    per_call = [_from_summary(c.summary, c.out_bytes) for c in traced]
    metrics = {}
    for spec in PER_LAYER:
        name = spec["name"]
        if name == "harness.checks_failed":
            metrics[name] = run.checks_failed
        elif name == "process.minor_faults":
            metrics[name] = typical(c.minor_faults for c in untraced)
        elif name == "trace.overhead_s":
            metrics[name] = (typical(c.wall_s for c in traced)
                             - typical(c.wall_s for c in untraced))
        elif spec["exact"]:
            values = {v[name] for v in per_call}
            if len(values) != 1:
                problems.append(f"{name} differs between traced calls: {sorted(values)}")
            metrics[name] = per_call[0][name]
        else:
            metrics[name] = typical(v[name] for v in per_call)
    return metrics, problems

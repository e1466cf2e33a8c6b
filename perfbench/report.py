"""Every workload, untraced and traced, in one table.

Usage, from the root of a source checkout:

    python3 perfbench/report.py [--seed 20250809] [--seconds 32] [--smoke]

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, then prints each end-to-end metric per workload by name and
unit, ``failed_ops`` (failed CLI calls over attempted) and every per-layer
metric with the end-to-end metric it should move.  Exits 1 if any run was
not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS)
    results = {
        (name, trace): run(name, args.seed, args.seconds, trace, args.smoke)
        for name in names for trace in (0, 1)
    }
    width = max(len(n) for n in names) + 2
    rows = [(m["name"], m["unit"], "") for m in layers.END_TO_END]
    rows.append(("failed_ops", "share", ""))
    rows += [(m["name"], m["unit"], m["moves"]) for m in layers.PER_LAYER]
    print(f"{'metric':44} {'unit':6}" + "".join(f"{n:>{width}}" for n in names) + "  should move")
    for metric, unit, moves in rows:
        cells = []
        for name in names:
            if metric == "failed_ops":
                both = [results[name, 0], results[name, 1]]
                cells.append(_fmt(sum(r["failed"] for r in both) / sum(r["attempted"] for r in both)))
            else:
                trace = 0 if any(m["name"] == metric for m in layers.END_TO_END) else 1
                cells.append(_fmt(results[name, trace]["metrics"][metric]["value"]))
        print(f"{metric:44} {unit:6}" + "".join(f"{c:>{width}}" for c in cells) + f"  {moves}")
    correct = all(r["correct"] for r in results.values())
    print(f"seed {args.seed}: {'all runs correct' if correct else 'SOME RUNS NOT CORRECT'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""giantflux benchmark: one workload, timed through the CLI as users run it.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fclt-n1e5 --seed 20250809 --seconds 32 --trace 0

Each CLI call is a fresh ``python -m giantflux.cli <cmd> --config ... --out
... --threads T`` process with ``src`` on ``PYTHONPATH``.  The benchmark
sets no BLAS or OpenMP thread variables: the environment is used as found
and recorded.

``--trace 0`` alternates full calls and setup calls (the same config at the
smallest size the CLI accepts) and reports the end-to-end metrics: the
typical ``wall_s``, ``setup_s`` and ``peak_rss_mb`` (each child's own peak,
read through ``wait4``) over the calls of the run, and ``replicates_per_s``.

``--trace 1`` alternates untraced full calls and traced full calls
(``traced_call.py``, which runs ``cli.dispatch`` in-process with spans
around every public function of the package) and reports the per-layer
metrics of ``layers.py``.

Every call is checked from outside (``checks.py``); a call that fails a check
is a failed operation.  Outputs of calls with the same config must be equal
byte for byte, traced or not.  The last line of stdout is the JSON result.
``--smoke`` runs the same code paths at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PAIRS = {0: 3, 1: 2}
# a run never starts a call after this many seconds, so it exits within 180 s
HARD_STOP_S = 150.0


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


@dataclass
class Call:
    """One finished CLI process."""

    kind: str          # "full", "setup" or "traced"
    wall_s: float
    maxrss_kb: int
    minor_faults: int
    returncode: int
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    out_bytes: int = 0
    summary: dict | None = None


@dataclass
class Run:
    workload: workloads.Workload
    workdir: Path
    env: dict
    start: float
    calls: list[Call] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)   # size kind -> first output digest
    checks_failed: int = 0

    def spawn(self, kind: str) -> Call:
        """Run one CLI call in a fresh process and check its outputs."""
        setup = kind == "setup"
        index = len(self.calls)
        out_dir = self.workdir / "out" / f"{index:03d}-{kind}"
        out_dir.mkdir(parents=True)
        csv_path = out_dir / "report.csv"
        cfg = config_path(self.workdir, setup)
        cli_args = [
            self.workload.command, "--config", str(cfg), "--out", str(csv_path),
            "--threads", str(self.workload.threads),
        ]
        if kind == "traced":
            argv = [sys.executable, str(HERE / "traced_call.py"), str(out_dir / "spans.json"), *cli_args]
        else:
            argv = [sys.executable, "-m", "giantflux.cli", *cli_args]
        cfg_before = checks.sha256(cfg)
        timeout = max(5.0, HARD_STOP_S + 20.0 - (perf_counter() - self.start))
        with open(out_dir / "stderr.txt", "wb") as err:
            begin = perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(kind, wall, usage.ru_maxrss, usage.ru_minflt, proc.returncode)
        stderr = (out_dir / "stderr.txt").read_text(errors="replace")
        call.problems += checks.process_problems(call.returncode, stderr)
        if checks.sha256(cfg) != cfg_before:
            call.problems.append(f"config {cfg.name} changed during the call")
        self._check_outputs(call, csv_path, setup)
        if kind == "traced":
            self._read_summary(call, out_dir / "spans.json")
        self.calls.append(call)
        if call.problems:
            _log(f"call {index} ({kind}) failed: {'; '.join(call.problems)}")
            print(stderr[-2000:], file=sys.stderr)
        shutil.rmtree(out_dir)
        return call

    def _check_outputs(self, call: Call, csv_path: Path, setup: bool) -> None:
        files = checks.output_files(self.workload, csv_path)
        missing = [p.name for p in files if not p.exists()]
        if missing:
            call.problems.append(f"missing output {', '.join(missing)}")
            return
        call.out_bytes = sum(p.stat().st_size for p in files)
        call.digest = "".join(checks.sha256(p) for p in files)
        size_kind = "setup" if setup else "full"
        reference = self.digests.get(size_kind)
        if reference is None:
            size = self.workload.setup_size if setup else self.workload.size
            problems, failed = checks.full_check(self.workload, csv_path, size, call.returncode)
            call.problems += problems
            if not problems:
                self.digests[size_kind] = call.digest
                if not setup:
                    self.checks_failed = failed
        elif call.digest != reference:
            call.problems.append(f"{size_kind} output differs from the first {size_kind} call")

    def _read_summary(self, call: Call, path: Path) -> None:
        try:
            call.summary = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            call.problems.append(f"no span summary: {exc}")
            return
        if Path(call.summary["module_file"]).resolve().parent != (SRC / "giantflux").resolve():
            call.problems.append(f"traced call imported {call.summary['module_file']}")
        # the traced wall time ends when dispatch returns
        call.wall_s -= call.summary["post_s"]

    def elapsed(self) -> float:
        return perf_counter() - self.start


def run_record(seed: int) -> dict:
    """The machine and software a run measured, as found (nothing is pinned)."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError) as exc:  # numpy builds differ in what they expose
        blas = {"error": repr(exc)}
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GIANTFLUX_THREADS")},
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def end_to_end_metrics(run: Run) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics of an untraced run, and any reason they are not valid."""
    wl = run.workload
    full = [c for c in run.calls if c.kind == "full"]
    setup = [c for c in run.calls if c.kind == "setup"]
    wall = layers.typical([c.wall_s for c in full])
    setup_s = layers.typical([c.wall_s for c in setup])
    problems = []
    if wl.command == "limit":
        # the full and setup calls of `limit` differ only by the draw loop and
        # the CSV, which is a small, noisy difference: report draws delivered
        # per second of a full call
        rate = wl.size / wall
    elif wall > setup_s:
        rate = (wl.size - wl.setup_size) / (wall - setup_s)
    else:
        rate = float("nan")
        problems.append(f"wall_s {wall} is not above setup_s {setup_s}")
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "replicates_per_s": rate,
        "peak_rss_mb": layers.typical([c.maxrss_kb / 1024 for c in full]),
    }
    return metrics, problems


def measure(run: Run, trace: int, seconds: float) -> None:
    """Alternate the two call kinds of the mode until the time is used."""
    kinds = ("full", "traced") if trace else ("full", "setup")
    pairs = 0
    while True:
        for kind in kinds:
            run.spawn(kind)
        pairs += 1
        pair_s = sum(layers.typical([c.wall_s for c in run.calls if c.kind == k]) for k in kinds)
        if run.elapsed() > HARD_STOP_S:
            break
        if pairs >= MIN_PAIRS[trace] and run.elapsed() + pair_s > seconds:
            break
        if any(c.returncode < 0 for c in run.calls):  # killed by the timeout
            break


def config_path(workdir: Path, setup: bool) -> Path:
    """Configs live apart from outputs: ``--out X.csv`` also writes ``X.json``."""
    return workdir / "configs" / ("setup.json" if setup else "full.json")


def setup_workdir(workload: workloads.Workload, seed: int) -> Path:
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "configs").mkdir(parents=True)
    for setup in (False, True):
        text = json.dumps(workload.make_config(seed, setup), indent=2) + "\n"
        config_path(workdir, setup).write_text(text)
    return workdir


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "giantflux" / "cli.py").is_file():
        _log(f"no giantflux source under {SRC}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.get(args.workload, smoke=args.smoke)
    record = run_record(args.seed)
    print("run-record " + json.dumps(record, sort_keys=True), flush=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = setup_workdir(workload, args.seed)
    run = Run(workload, workdir, env, perf_counter())
    try:
        measure(run, args.trace, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = sum(1 for c in run.calls if c.problems)
    metrics, problems = layers.per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    for problem in problems:
        _log(problem)
    for kind in ("full", "setup", "traced"):
        walls = sorted(c.wall_s for c in run.calls if c.kind == kind)
        if walls:
            _log(f"{kind} calls: n={len(walls)} wall_s " + " ".join(f"{w:.3f}" for w in walls))
    specs = {m["name"]: m for m in (layers.PER_LAYER if args.trace else layers.END_TO_END)}
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload.name} {name} = {shown} {specs[name]['unit']}")
    print(f"{workload.name} checks_failed = {run.checks_failed}  "
          f"failed_ops = {failed}/{len(run.calls)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(run.calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": specs[name]["unit"]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))

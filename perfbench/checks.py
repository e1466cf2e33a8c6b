"""Correctness checks on CLI outputs, made from outside the program.

A call is a failed operation when any of these finds a problem.  Exit 1 is
not a failure: it is the CLI's "a verification check failed" outcome, and it
must agree with the report's ``pass`` column.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from workloads import CSV_HEADERS, Workload


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_files(workload: Workload, csv_path: Path) -> list[Path]:
    """Files one call writes: the CSV, plus the JSON report for harness commands."""
    if workload.command == "limit":
        return [csv_path]
    return [csv_path, csv_path.with_suffix(".json")]


def process_problems(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode not in (0, 1):
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def _finite(field: str) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def parse_csv(workload: Workload, text: str, size: int) -> tuple[list[list[str]], list[str]]:
    """Rows of a CSV output and the problems found in its shape and values."""
    lines = text.split("\n")
    problems = []
    header = CSV_HEADERS[workload.command]
    if lines[0] != header:
        problems.append(f"header {lines[0][:80]!r} is not {header!r}")
        return [], problems
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    expected = workload.expected_rows(size)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    width = header.count(",") + 1
    for k, row in enumerate(rows):
        if len(row) != width:
            problems.append(f"row {k} has {len(row)} fields, expected {width}")
            break
        if workload.command == "limit":
            bad = not all(_finite(f) for f in row)
        else:
            lam, _stat, emp, target, se, z, passed = row
            # the harness reports z = +-inf only when the standard error is 0
            z_ok = _finite(z) or (_finite(se) and float(se) == 0.0 and z in ("inf", "-inf"))
            bad = not (all(_finite(f) for f in (lam, emp, target, se)) and z_ok
                       and passed in ("true", "false"))
        if bad:
            problems.append(f"row {k} has a non-finite or malformed value: {','.join(row)}")
            break
    return rows, problems


def checks_failed(rows: list[list[str]]) -> int:
    """Failed statistical checks in a harness report (``pass`` == false)."""
    return sum(1 for row in rows if row[-1] == "false")


def exit_code_problems(returncode: int, failed_checks: int) -> list[str]:
    expected = 1 if failed_checks else 0
    if returncode in (0, 1) and returncode != expected:
        return [f"exit code {returncode} but {failed_checks} failed checks in the report"]
    return []


def fclt_target_problems(workload: Workload, rows: list[list[str]]) -> list[str]:
    """Report targets must equal x_cov(supercritical_curves(model, grid)) bit for bit."""
    from giantflux.theory import supercritical_curves, x_cov
    from giantflux.weights import WeightModel

    lambdas = []
    for row in rows:
        lam = float(row[0])
        if row[1] == "mean_fluc_count":
            lambdas.append(lam)
    if len(lambdas) != workload.grid_points:
        return [f"report has {len(lambdas)} lambdas, expected {workload.grid_points}"]
    model = WeightModel.from_config(workload.config["model"])
    matrix = x_cov(supercritical_curves(model, lambdas)).matrix
    index = {lam: i for i, lam in enumerate(lambdas)}
    for row in rows:
        i = index.get(float(row[0]))
        stat = row[1]
        if i is None:
            return [f"row lambda {row[0]} is not on the report grid"]
        if stat.startswith("crosscov_"):
            j = i + 1
            if j >= len(lambdas) or not stat.endswith(f"@lambda={lambdas[j]:g}"):
                return [f"unexpected cross pair {stat!r} at lambda {row[0]}"]
            a, b = (2 * i, 2 * j) if stat.startswith("crosscov_count") else (2 * i + 1, 2 * j + 1)
        else:
            a, b = {
                "mean_fluc_count": (None, None),
                "mean_fluc_volume": (None, None),
                "var_fluc_count": (2 * i, 2 * i),
                "var_fluc_volume": (2 * i + 1, 2 * i + 1),
                "cov_fluc_count_volume": (2 * i, 2 * i + 1),
            }.get(stat, (-1, -1))
            if a == -1:
                return [f"unknown statistic {stat!r}"]
        expected = 0.0 if a is None else float(matrix[a, b])
        if float(row[3]).hex() != expected.hex():
            return [f"{stat} target at lambda {row[0]} is {row[3]}, x_cov gives {expected!r}"]
    return []


def full_check(workload: Workload, csv_path: Path, size: int, returncode: int) -> tuple[list[str], int]:
    """Shape, value, exit-code and target checks of one call's existing outputs.

    Returns the problems found and the number of failed statistical checks.
    """
    rows, problems = parse_csv(workload, csv_path.read_text(), size)
    if problems:
        return problems, 0
    failed = 0 if workload.command == "limit" else checks_failed(rows)
    problems += exit_code_problems(returncode, failed)
    if workload.command == "fclt":
        problems += fclt_target_problems(workload, rows)
    return problems, failed

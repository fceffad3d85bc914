"""Correctness gate for benchmark outputs.

Each check turns one CLI invocation's output into ``(rows_attempted,
rows_failed)``; the run reports their totals, and ``rows_failed /
rows_attempted`` is the benchmark's ``rows_failed_frac``.

* Least-squares rows meet the exact oracle ``E||xls - x||^2 = tr(Q^-1)``
  within ``LS_ORACLE_SIGMAS`` standard errors. The oracle holds for any
  noise stream, so a change of random-number scheme does not disturb it.
* Every ``mse_mean`` is finite and non-negative, and there is one row per
  estimator and grid point.
* All invocations of one workload and seed produce identical output
  (worker count and repetition must not change a byte).
* The Gaussian identity check prints ``PASS`` and each of its coordinates
  lies within ``STEIN_SIGMAS`` standard errors.
"""

from __future__ import annotations

import csv
import io
import math

LS_ORACLE_SIGMAS = 5.0
STEIN_SIGMAS = 4.0
STEIN_PASS = "identity within 4 combined stderr: PASS"


def parse_results_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def row_ok(row: dict, eps0: float) -> bool:
    """A results row is sane, and an ``ls`` row also matches the oracle."""
    try:
        mse = float(row["mse_mean"])
        stderr = float(row["mse_stderr"])
    except (KeyError, TypeError, ValueError):
        return False
    if not (math.isfinite(mse) and mse >= 0.0 and math.isfinite(stderr)):
        return False
    if row.get("estimator") == "ls":
        return abs(mse - eps0) <= LS_ORACLE_SIGMAS * stderr
    return True


def check_results(text: str, eps0: float, expected_rows: int) -> tuple[int, int]:
    """Check a results CSV; a wrong row count fails every expected row."""
    rows = parse_results_csv(text)
    if len(rows) != expected_rows:
        return expected_rows, expected_rows
    return expected_rows, sum(not row_ok(r, eps0) for r in rows)


def check_stein(stdout: str, coordinates: int) -> tuple[int, int]:
    """Check ``stein-check`` output: one table row per coordinate, each
    within ``STEIN_SIGMAS`` stderr, and the ``PASS`` verdict line."""
    rows = []
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0].isdigit():
            rows.append(fields)
    if len(rows) != coordinates or STEIN_PASS not in stdout:
        return coordinates, coordinates
    failed = 0
    for _, lhs, rhs, diff, stderr in rows:
        try:
            values = [float(v) for v in (lhs, rhs, diff, stderr)]
        except ValueError:
            failed += 1
            continue
        if not all(math.isfinite(v) for v in values) or values[2] > STEIN_SIGMAS * values[3]:
            failed += 1
    return coordinates, failed

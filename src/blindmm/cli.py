"""Command-line interface: run experiments, apply estimators to CSV data,
and report dominance diagnostics.

Exit codes: 0 success, 2 usage/config error, 3 data/validation error,
4 degenerate input (zero least-squares estimate where an estimator is
undefined). The ``BLINDMM_SEED`` environment variable supplies a fallback
default seed; explicit flags and config values win. A Monte Carlo pass
evaluates its chunks on the calling thread, which shares the drawing of
the noise with one helper thread: ``--workers`` is still accepted, and a
value below 1 is a usage error, but it has no other effect. The argument
parser is built once per process, on the first ``main`` call, so a caller
that runs ``main`` many times in one process (the test suite) builds it once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from blindmm.estimators import RULES, UnknownEstimatorError, estimate_from_ls, parse_estimator_spec
from blindmm.linalg import LinalgError, read_matrix_csv, read_vector_csv, write_matrix_csv
from blindmm.model import build_model, effective_dimension, ls_estimate
from blindmm.sim import (
    ConfigError,
    ExperimentConfig,
    load_config,
    run_experiment,
    stein_lemma_check,
    write_results_csv,
)
from blindmm import scenarios
from blindmm.estimators import ebme_dominance_holds, sbme_dominance_holds

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4


def _env_seed() -> int:
    raw = os.environ.get("BLINDMM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"BLINDMM_SEED: expected an integer, got {raw!r}") from exc


_WORKERS_HELP = ("no effect besides the check that it is >= 1: chunks are evaluated on one "
                 "thread while a helper thread draws noise ahead")


@functools.cache  # parse_args keeps no state on the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindmm",
        description="Shrinkage estimators for linear Gaussian regression "
        "and a deterministic Monte Carlo comparison harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run a sweep described by a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="results CSV path (written atomically)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--trials", type=int, default=None, help="override the config trial count")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    p = sub.add_parser("estimate", help="apply one estimator to CSV data")
    p.add_argument("--H", dest="h_path", required=True, help="design matrix CSV (n x m)")
    p.add_argument("--Cw", dest="cw_path", required=True, help="noise covariance CSV (n x n)")
    p.add_argument("--y", dest="y_path", required=True, help="measurement vector CSV (single column)")
    p.add_argument("--estimator", required=True, help=" | ".join(
        tag if rule.param is None else f"{tag}:{rule.param.key}=..."
        for tag, rule in RULES.items()))
    p.add_argument("--out", required=True, help="estimate output CSV (single column)")

    p = sub.add_parser("check", help="print dominance diagnostics for a model")
    p.add_argument("--H", dest="h_path", required=True)
    p.add_argument("--Cw", dest="cw_path", required=True)
    p.add_argument("--b", type=float, default=-1.0, help="spectral exponent for the adaptive rule")

    p = sub.add_parser("scenario", help="run a built-in scenario with default parameters")
    p.add_argument("name", help=", ".join(scenarios.SCENARIO_NAMES))
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    p = sub.add_parser("stein-check", help="Monte Carlo check of the Gaussian "
                       "integration-by-parts identity")
    p.add_argument("--v", required=True, help="comma-separated mean vector, e.g. 1,2")
    p.add_argument("--sigma", required=True, help="comma-separated positive eigenvalues, e.g. 1,4")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _run(config, args):
    """Run a sweep, write its CSV and print the MSE table normalized by the
    least-squares risk of each row's case. The seed is ``--seed``, then the
    config's, then ``BLINDMM_SEED``; trials are ``--trials``, then the
    config's, then the scenario's."""
    if args.seed is not None:
        config.seed = args.seed
    elif config.seed is None:
        config.seed = _env_seed()
    if args.trials is not None:
        config.trials = args.trials
    if args.workers < 1:
        raise ConfigError("workers: must be >= 1")
    rows = run_experiment(config)
    write_results_csv(args.out, rows)
    print(f"{'estimator':<16} {'snr_db':>7} {'sweep_key':<16} {'mse':>12} {'mse/eps0':>9}")
    for row in rows:
        print(
            f"{row.estimator:<16} {row.snr_db:>7.2f} {row.sweep_key:<16} "
            f"{row.mse_mean:>12.5g} {row.mse_mean / row.eps0:>9.4f}"
        )
    return rows


def _cmd_experiment(args) -> int:
    rows = _run(load_config(args.config), args)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    h = read_matrix_csv(args.h_path, "H")
    cw = read_matrix_csv(args.cw_path, "Cw")
    y = read_vector_csv(args.y_path, "y")
    spec = parse_estimator_spec(args.estimator)
    model = build_model(h, cw)
    xls = ls_estimate(model, y)
    result = estimate_from_ls(model, spec, xls)
    write_matrix_csv(args.out, result.xhat)
    gains = np.atleast_1d(result.shrinkage)
    if RULES[spec.kind].per_component:
        print(f"gain range: [{gains.min():.6g}, {gains.max():.6g}]")
    else:
        print(f"gain: {gains.flat[0]:.6g}")
    print(f"eps0: {model.eps0!r}")
    print(f"effective dimension: {effective_dimension(model)!r}")
    if result.degenerate:
        print("degenerate input: least-squares estimate is zero; wrote zero vector")
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_check(args) -> int:
    h = read_matrix_csv(args.h_path, "H")
    cw = read_matrix_csv(args.cw_path, "Cw")
    model = build_model(h, cw)
    scalar_ok = sbme_dominance_holds(model)
    spectral_ok = ebme_dominance_holds(model, args.b)
    print(f"eps0: {model.eps0!r}")
    print(f"eps_max: {model.eps_max!r}")
    print(f"effective dimension: {effective_dimension(model)!r}")
    sig = model.Qeig.eigenvalues
    print(f"condition number of Q: {float(sig[0] / sig[-1])!r}")
    print(
        "scalar-shrinkage dominance (effective dimension > 4): "
        + ("PASS" if scalar_ok else "FAIL")
    )
    print(
        f"spectral-shrinkage dominance (b={args.b:g}): "
        + ("PASS" if spectral_ok else "FAIL")
    )
    return EXIT_OK


def _cmd_scenario(args) -> int:
    rows = _run(ExperimentConfig(scenario=args.name, seed=None), args)
    gains = {row.estimator: row.gain_mean for row in rows}
    for label in scenarios.preset(args.name).summary:
        if RULES[parse_estimator_spec(label).kind].per_component:
            print(f"adaptive gain range ({label}): "
                  f"[{gains[label].min():.4f}, {gains[label].max():.4f}]")
        else:
            print(f"mean scalar gain ({label}): {gains[label][0]:.4f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _parse_float_list(text, name):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{name}: expected comma-separated floats, got {text!r}") from exc
    if not values:
        raise ConfigError(f"{name}: expected at least one value, got {text!r}")
    return values


def _cmd_stein_check(args) -> int:
    v = _parse_float_list(args.v, "--v")
    sigma = _parse_float_list(args.sigma, "--sigma")
    seed = args.seed if args.seed is not None else _env_seed()
    result = stein_lemma_check(v, sigma, args.c, args.trials, seed)
    print(f"{'i':>3} {'lhs':>12} {'rhs':>12} {'|diff|':>12} {'stderr':>12}")
    for i in range(len(v)):
        print(
            f"{i:>3} {result.lhs[i]:>12.6g} {result.rhs[i]:>12.6g} "
            f"{result.discrepancy[i]:>12.3g} {result.stderr[i]:>12.3g}"
        )
    ok = result.within()
    print("identity within 4 combined stderr: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "estimate": _cmd_estimate,
        "check": _cmd_check,
        "scenario": _cmd_scenario,
        "stein-check": _cmd_stein_check,
    }
    try:
        out = getattr(args, "out", None)  # None for the commands that write no file
        if out is not None:  # found before any input is read or noise drawn
            out_dir = os.path.dirname(out) or "."
            if not os.path.isdir(out_dir):
                raise ConfigError(f"--out: {out_dir!r} is not a directory")
            if not out or os.path.isdir(out):
                raise ConfigError(f"--out: expected a file path, got {out!r}")
        return handlers[args.command](args)
    except (ConfigError, UnknownEstimatorError, scenarios.UnknownScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LinalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

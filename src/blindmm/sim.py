"""Deterministic Monte Carlo engine for estimator MSE sweeps.

Trials of a grid point are cut into fixed chunks of ``CHUNK_TRIALS``; each
chunk draws its noise from the Philox stream keyed by the point's sub-seed
and the chunk's first trial, and per-point squared errors and gain profiles
are reduced in chunk order, so results are bit-identical no matter how many
workers run or in what order chunks finish. All estimators see the same
noise draw within a trial (common random numbers), which tightens pairwise
MSE comparisons without biasing any single estimate.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from blindmm.estimators import EstimatorSpec, estimate_from_ls, parse_estimator_spec
from blindmm.linalg import LinalgError, as_vector, read_vector_csv, write_text_atomic
from blindmm.model import Model, scale_to_snr
from blindmm.rng import derive_seed, generator, normal_block

# Fixed chunk size decouples the noise and the summation order from the
# worker count.
CHUNK_TRIALS = 4096

# Derivation tags keep the noise, direction and point sub-streams disjoint.
_TAG_POINT = 0x504F494E
_TAG_DIRECTION = 0x44495245


class ConfigError(LinalgError):
    """Experiment configuration is malformed."""


class DegenerateGError(LinalgError):
    """The integration-by-parts test function is undefined (c=0 and v=0)."""


def gaussian_vector(cw_sqrt, rng: np.random.Generator) -> np.ndarray:
    """One zero-mean Gaussian draw with covariance ``cw_sqrt @ cw_sqrt``."""
    cw_sqrt = np.asarray(cw_sqrt, dtype=np.float64)
    return cw_sqrt @ rng.standard_normal(cw_sqrt.shape[0])


@dataclass(frozen=True)
class MseRow:
    """One Monte Carlo result record. ``gain_mean`` (the mean per-component
    gain in ``Q``'s eigenbasis) and ``eps0`` (the case's least-squares risk)
    are neither CSV columns nor compared."""

    scenario: str
    estimator: str
    snr_db: float
    sweep_key: str
    mse_mean: float
    mse_stderr: float
    trials: int
    seed: int
    gain_mean: np.ndarray | None = field(default=None, compare=False, repr=False)
    eps0: float | None = field(default=None, compare=False)

    def sort_key(self):
        return (self.scenario, self.estimator, self.snr_db, self.sweep_key)


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep.

    ``scenario`` is either a built-in scenario name or an inline model
    ``{"H": ..., "Cw": ...}``; ``directions`` is a list of policies:
    ``"max-eigenvector"`` / ``"min-eigenvector"`` (extreme eigenvectors of
    ``Q^-1``, i.e. the most/least noisy parameter directions),
    ``("random-sphere", count)`` for uniformly random unit directions, or
    ``("vector", values, id)`` for explicit directions.
    """

    scenario: object
    estimators: list = field(default_factory=list)
    snr_grid_db: list = field(default_factory=list)
    directions: list = field(default_factory=list)
    trials: int = 10000
    seed: int = 0

    def validate(self):
        if not self.estimators:
            raise ConfigError("estimators: must be a nonempty list")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db: must be a nonempty list")
        snr = np.asarray(self.snr_grid_db, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            linear = 10.0 ** (snr / 10.0)
        if not np.all(np.isfinite(snr) & np.isfinite(linear)):
            raise ConfigError(
                "snr_grid_db: entries must be finite, with 10**(snr/10) within float64 range"
            )
        if not self.directions:
            raise ConfigError("directions: must be a nonempty list")
        if int(self.trials) < 1:
            raise ConfigError("trials: must be >= 1")
        _check_seed(self.seed)
        return self


def _check_seed(seed) -> None:
    if seed is None or int(seed) < 0:
        raise ConfigError(
            "seed: must be a non-negative integer (set it in the config, "
            "via --seed, or through BLINDMM_SEED)"
        )


def _map_chunks(fn, seed, trials: int, width: int, workers: int = 1) -> list:
    """``fn(z)`` for each ``CHUNK_TRIALS`` block of trials, in chunk order.

    ``z`` holds the block's ``(rows, width)`` standard normals, keyed by
    ``(seed, first trial)``; up to ``workers`` threads evaluate the blocks.
    """
    if workers < 1:
        raise ConfigError("workers: must be >= 1")

    def run(lo):
        return fn(normal_block(seed, np.arange(lo, min(lo + CHUNK_TRIALS, trials)), width))

    starts = range(0, trials, CHUNK_TRIALS)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, starts))
    return [run(lo) for lo in starts]


class PointErrors(dict):
    """``{label: (trials,) squared errors}`` in trial order, plus
    ``gain_sums[label]``: that estimator's ``(m,)`` gain profile summed over
    all trials."""

    def __init__(self, squared_errors: dict, gain_sums: dict):
        super().__init__(squared_errors)
        self.gain_sums = gain_sums


def _point_squared_errors(model: Model, x, specs, trials: int, seed, workers: int = 1):
    """Per-trial squared errors and gain-profile sums for every estimator at
    one grid point, as a ``PointErrors``."""
    x = np.asarray(x, dtype=np.float64)
    hx = model.H @ x
    labels = [spec.label for spec in specs]

    def eval_chunk(z):
        y = z @ model.cw_sqrt + hx
        xls = y @ model.ls_op.T
        ones = np.ones(z.shape[0])  # ones @ a: 10x faster than a.sum(axis=0) at m = 10
        out = {}
        for spec in specs:
            res = estimate_from_ls(model, spec, xls)
            delta = res.xhat - x
            out[spec.label] = (np.sum(delta * delta, axis=-1), ones @ res.shrinkage)
        return out

    chunk_results = _map_chunks(eval_chunk, seed, trials, model.n, workers)
    # Chunk-order concatenation and summation keep the reduction
    # worker-independent.
    return PointErrors(
        {label: np.concatenate([c[label][0] for c in chunk_results]) for label in labels},
        {label: sum(c[label][1] for c in chunk_results) for label in labels},
    )


def _mean_stderr(se: np.ndarray):
    mean = float(np.mean(se))
    stderr = float(np.std(se, ddof=1) / np.sqrt(se.shape[0])) if se.shape[0] > 1 else 0.0
    return mean, stderr


def monte_carlo_mse(model: Model, x, spec: EstimatorSpec, trials: int, seed, workers: int = 1):
    """Mean and standard error of ``||xhat - x||^2`` over i.i.d. trials."""
    if trials < 2:
        raise ValueError("monte_carlo_mse: trials must be >= 2")
    se = _point_squared_errors(model, x, [spec], trials, seed, workers)[spec.label]
    return _mean_stderr(se)


# --- direction policies ----------------------------------------------------


def _random_unit_vector(seed, index: int, m: int) -> np.ndarray:
    v = generator(seed, _TAG_DIRECTION, index).standard_normal(m)
    return v / np.linalg.norm(v)


def resolve_directions(model: Model, policies, seed):
    """Expand direction policies into ``(sweep_key, unit_vector)`` pairs."""
    out = []
    rand_idx = 0
    vec_idx = 0
    for pol in policies:
        if pol == "max-eigenvector":
            # Largest eigenvalue of Q^-1: last column of the descending-Q basis.
            out.append(("max-eig", model.Qeig.basis[:, -1].copy()))
        elif pol == "min-eigenvector":
            out.append(("min-eig", model.Qeig.basis[:, 0].copy()))
        elif isinstance(pol, tuple) and pol and pol[0] == "random-sphere":
            count = int(pol[1])
            if count < 1:
                raise ConfigError("directions: random-sphere count must be >= 1")
            for _ in range(count):
                out.append((f"rand-{rand_idx:03d}", _random_unit_vector(seed, rand_idx, model.m)))
                rand_idx += 1
        elif isinstance(pol, tuple) and pol and pol[0] == "vector":
            vec = as_vector(pol[1], "directions.vector")
            key = pol[2] if len(pol) > 2 and pol[2] else f"vec-{vec_idx:03d}"
            vec_idx += 1
            out.append((key, vec))
        else:
            raise ConfigError(f"directions: unknown policy {pol!r}")
    if not out:
        raise ConfigError("directions: resolved to an empty set")
    return out


# --- experiment runner ------------------------------------------------------


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """Run a validated config and return its sorted ``MseRow`` list.

    The scenario resolves to one or more ``(case_key, model)`` cases (the
    condition-number sweep has one case per condition; everything else has
    a single unkeyed case).
    """
    from blindmm import scenarios  # late import: scenarios builds on this module

    config = _fill_from_preset(config)
    config.validate()
    cases, scenario_name = scenarios.resolve_cases(config.scenario)
    seed = int(config.seed)
    trials = int(config.trials)
    rows = []
    for case_idx, (case_key, model) in enumerate(cases):
        directions = resolve_directions(model, config.directions, seed)
        for dir_idx, (dir_key, direction) in enumerate(directions):
            sweep_key = case_key if case_key is not None else dir_key
            if case_key is not None and len(directions) > 1:
                sweep_key = f"{case_key}:{dir_key}"
            for snr_idx, snr_db in enumerate(config.snr_grid_db):
                x = scale_to_snr(model, direction, float(snr_db))
                point_seed = derive_seed(seed, _TAG_POINT, case_idx, dir_idx, snr_idx)
                point = _point_squared_errors(
                    model, x, config.estimators, trials, point_seed, workers
                )
                for spec in config.estimators:
                    mean, stderr = _mean_stderr(point[spec.label])
                    rows.append(
                        MseRow(
                            scenario=scenario_name,
                            estimator=spec.label,
                            snr_db=float(snr_db),
                            sweep_key=sweep_key,
                            mse_mean=mean,
                            mse_stderr=stderr,
                            trials=trials,
                            seed=seed,
                            gain_mean=point.gain_sums[spec.label] / trials,
                            eps0=model.eps0,
                        )
                    )
    rows.sort(key=MseRow.sort_key)
    return rows


def _fill_from_preset(config: ExperimentConfig) -> ExperimentConfig:
    """A copy of ``config`` in which a named scenario lends its defaults to
    any field left empty."""
    from blindmm import scenarios

    if not isinstance(config.scenario, str):
        return config
    preset = scenarios.preset(config.scenario)
    return replace(
        config,
        estimators=list(config.estimators or preset.estimators),
        snr_grid_db=list(config.snr_grid_db or preset.snr_grid_db),
        directions=list(config.directions or preset.directions),
    )


# --- config file loading ----------------------------------------------------


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file.

    Fields: ``scenario`` (name or ``{"H":..., "Cw":...}``), ``estimators``
    (list of tag strings), ``snr_grid_db``, ``directions``, ``trials``,
    ``seed``. ``offcenter:file=`` paths and inline models resolve relative
    to the config file's directory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))

    known = {"scenario", "estimators", "snr_grid_db", "directions", "trials", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config {path}: unknown fields {sorted(unknown)}")
    if "scenario" not in raw:
        raise ConfigError(f"config {path}: missing required field 'scenario'")

    def loader(rel):
        return read_vector_csv(os.path.join(base_dir, rel))

    estimators = []
    for ent in _as_list(raw.get("estimators", []), "estimators"):
        if not isinstance(ent, str):
            raise ConfigError(f"estimators: expected tag strings, got {ent!r}")
        estimators.append(parse_estimator_spec(ent, vector_loader=loader))

    snr_grid = []
    for ent in _as_list(raw.get("snr_grid_db", []), "snr_grid_db"):
        if not isinstance(ent, (int, float)) or isinstance(ent, bool):
            raise ConfigError(f"snr_grid_db: expected numbers, got {ent!r}")
        snr_grid.append(float(ent))

    directions = [_parse_direction(ent) for ent in _as_list(raw.get("directions", []), "directions")]

    trials = raw.get("trials", 10000)
    seed = raw.get("seed")  # None defers to --seed or BLINDMM_SEED
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise ConfigError("trials: expected an integer")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError("seed: expected an integer")

    scenario = raw["scenario"]
    if isinstance(scenario, dict):
        scenario = _parse_inline_model(scenario)
    elif not isinstance(scenario, str):
        raise ConfigError("scenario: expected a name or an inline model object")

    return ExperimentConfig(
        scenario=scenario,
        estimators=estimators,
        snr_grid_db=snr_grid,
        directions=directions,
        trials=trials,
        seed=seed,
    )


def _as_list(value, name):
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{name}: expected a list")
    return value


def _parse_direction(ent):
    if isinstance(ent, str):
        if ent in ("max-eigenvector", "min-eigenvector"):
            return ent
        raise ConfigError(f"directions: unknown policy {ent!r}")
    if isinstance(ent, dict):
        if "random-sphere" in ent:
            extra = set(ent) - {"random-sphere"}
            if extra:
                raise ConfigError(f"directions: unknown keys {sorted(extra)}")
            return ("random-sphere", int(ent["random-sphere"]))
        if "vector" in ent:
            extra = set(ent) - {"vector", "id"}
            if extra:
                raise ConfigError(f"directions: unknown keys {sorted(extra)}")
            return ("vector", [float(v) for v in ent["vector"]], ent.get("id"))
    raise ConfigError(f"directions: unknown policy {ent!r}")


def _parse_inline_model(obj):
    """Inline model spec: H and Cw as nested lists, {"diag": [...]} or
    {"identity": n}; returns a ("inline", name, H, Cw) tuple."""
    extra = set(obj) - {"H", "Cw", "name"}
    if extra:
        raise ConfigError(f"scenario: unknown inline-model keys {sorted(extra)}")
    if "H" not in obj or "Cw" not in obj:
        raise ConfigError("scenario: inline model requires both 'H' and 'Cw'")

    def mat(spec, field_name):
        if isinstance(spec, dict) and "identity" in spec:
            return np.eye(int(spec["identity"]))
        if isinstance(spec, dict) and "diag" in spec:
            return np.diag([float(v) for v in spec["diag"]])
        if isinstance(spec, list):
            return np.asarray(spec, dtype=np.float64)
        raise ConfigError(f"scenario.{field_name}: expected nested lists, diag or identity")

    name = obj.get("name", "custom")
    return ("inline", str(name), mat(obj["H"], "H"), mat(obj["Cw"], "Cw"))


# --- results CSV -------------------------------------------------------------

RESULTS_HEADER = "scenario,estimator,snr_db,sweep_key,mse_mean,mse_stderr,trials,seed"


def format_results_csv(rows) -> str:
    lines = [RESULTS_HEADER]
    for r in sorted(rows, key=MseRow.sort_key):
        lines.append(
            f"{r.scenario},{r.estimator},{r.snr_db!r},{r.sweep_key},"
            f"{r.mse_mean!r},{r.mse_stderr!r},{r.trials},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def write_results_csv(path, rows) -> None:
    """Write the results CSV atomically (``linalg.write_text_atomic``)."""
    write_text_atomic(path, format_results_csv(rows))


# --- Gaussian integration-by-parts identity ----------------------------------


@dataclass(frozen=True)
class SteinCheckResult:
    """Per-coordinate two-sided Monte Carlo estimate of the identity
    ``E[dg_i/dv_i] = -E[g_i(v_hat) (v_i - v_hat_i)]`` for ``v_hat ~ N(v, I)``."""

    lhs: np.ndarray
    rhs: np.ndarray
    discrepancy: np.ndarray
    stderr: np.ndarray
    trials: int

    def within(self, n_stderr: float = 4.0) -> bool:
        return bool(np.all(self.discrepancy <= n_stderr * self.stderr))


def stein_lemma_check(v, sigma, c: float, trials: int, seed, g: str = "shrink") -> SteinCheckResult:
    """Monte Carlo check of the Gaussian integration-by-parts identity.

    ``g="shrink"`` uses the ratio ``g_i(v) = v_i / (c + v' diag(sigma)^-1 v)``
    whose analytic derivative is known in closed form; ``g="linear"`` uses
    ``g_i(v) = v_i`` (derivative one) as a calibration case. Both sides are
    estimated from common draws, so ``stderr`` is the standard error of the
    per-draw difference.
    """
    v = as_vector(v, "v")
    sigma = as_vector(sigma, "sigma")
    if sigma.shape != v.shape:
        raise ConfigError("sigma must have the same length as v")
    if np.any(sigma <= 0.0):
        raise ConfigError("sigma entries must be positive")
    if not (np.isfinite(c) and c >= 0.0):
        raise ConfigError(f"c must be finite and >= 0, got {c}")
    if c == 0.0 and not np.any(v != 0.0):
        raise DegenerateGError("g is undefined at c=0 with v=0")
    _check_seed(seed)
    if trials < 10**4:
        raise ValueError("stein_lemma_check: trials must be >= 10^4")
    if g not in ("shrink", "linear"):
        raise ValueError(f"unknown test function {g!r}")

    inv_sigma = 1.0 / sigma

    def column_sums(z):
        vh = v + z
        if g == "shrink":
            q = (vh * vh) @ inv_sigma
            denom = (c + q)[:, None]
            gi = vh / denom
            deriv = 1.0 / denom - 2.0 * inv_sigma * vh * vh / (denom * denom)
        else:
            gi = vh
            deriv = np.ones_like(vh)
        cross = gi * (v - vh)
        diff = deriv + cross
        return np.stack([deriv.sum(axis=0), cross.sum(axis=0), diff.sum(axis=0),
                         (diff * diff).sum(axis=0)])

    # Chunk-order sums, as for the squared errors.
    sum_deriv, sum_cross, sum_diff, sum_diff2 = sum(
        _map_chunks(column_sums, seed, trials, v.shape[0])
    )
    lhs = sum_deriv / trials
    rhs = -sum_cross / trials
    mean_diff = sum_diff / trials
    var_diff = (sum_diff2 - trials * mean_diff**2) / (trials - 1)
    stderr = np.sqrt(np.maximum(var_diff, 0.0) / trials)
    return SteinCheckResult(
        lhs=lhs,
        rhs=rhs,
        discrepancy=np.abs(lhs - rhs),
        stderr=stderr,
        trials=trials,
    )

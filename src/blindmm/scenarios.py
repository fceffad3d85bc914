"""Built-in benchmark scenarios for the sweep runner.

Each preset bundles a measurement model with default estimators, SNR grid
and parameter directions. The models are small identity-design problems
with structured noise covariances, plus a 100-sample signal reconstruction
from noisy transform-domain measurements:

* ``fig4-snr``      -- 15 parameters, stepped noise profile, effective
  dimension 5.8; sweeps SNR along the noisiest and cleanest directions.
* ``fig3-pp``       -- same model; compares the balanced/positive-part
  rules against the spherical rule along the noisiest direction.
* ``fig5a-range``   -- noise eigenvalues linearly spaced 1 to 0.01
  (effective dimension 7.575); random-direction MSE envelopes.
* ``fig5b-range``   -- 10 parameters, eigenvalues {1 x5, 0.1 x5}
  (effective dimension 5.5); random-direction envelopes.
* ``fig6-cond``     -- condition-number sweep at 0 dB: noise eigenvalues
  {1 x5, 1/cond x5} for cond in 1 .. 1000.
* ``fig7-tikhonov`` -- 15 parameters, five measurements 100x noisier than
  the rest; parameter along a noisy axis; includes the empirical ridge
  estimators.
* ``fig2-dct``      -- reconstruct a smooth 100-sample signal from its
  orthonormal DCT-II coefficients where the 10 highest-frequency
  measurements are 1000x noisier; 5 dB total SNR by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from blindmm.estimators import EstimatorSpec, estimate_from_ls
from blindmm.linalg import LinalgError
from blindmm.model import Model, build_model
from blindmm.rng import normal_block
from blindmm.sim import _chunk_bounds

DEFAULT_SNR_GRID_DB = tuple(float(s) for s in np.arange(-10.0, 20.0 + 1e-9, 2.5))
FIG6_CONDITIONS = (1.0, 3.16, 10.0, 31.6, 100.0, 316.0, 1000.0)
FIG4_NOISE_PROFILE = (1, 1, 1, 1, 0.5, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05)

SCENARIO_NAMES = (
    "fig2-dct",
    "fig3-pp",
    "fig4-snr",
    "fig5a-range",
    "fig5b-range",
    "fig6-cond",
    "fig7-tikhonov",
)


class UnknownScenarioError(LinalgError):
    """Scenario name is not in the built-in registry."""


@dataclass(frozen=True)
class Preset:
    """A scenario: one or more (case_key, model) pairs plus sweep defaults."""

    name: str
    cases: tuple
    estimators: tuple
    snr_grid_db: tuple
    directions: tuple
    trials: int = 10000


def fig4_model() -> Model:
    return build_model(np.eye(15), np.diag(FIG4_NOISE_PROFILE))


def fig5a_model() -> Model:
    return build_model(np.eye(15), np.diag(np.linspace(1.0, 0.01, 15)))


def fig5b_model() -> Model:
    return build_model(np.eye(10), np.diag([1.0] * 5 + [0.1] * 5))


def fig6_model(cond: float) -> Model:
    if cond < 1.0:
        raise ValueError("condition number must be >= 1")
    return build_model(np.eye(10), np.diag([1.0] * 5 + [1.0 / cond] * 5))


def fig7_model() -> Model:
    return build_model(np.eye(15), np.diag([100.0] * 5 + [1.0] * 10))


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix; row k measures frequency k of the signal."""
    k = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    h = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * t + 1) * k / (2 * n))
    h[0] *= np.sqrt(0.5)
    return h


def dct_demo_signal(n: int = 100) -> np.ndarray:
    """Smooth test signal: a few low-frequency DCT components."""
    coeffs = np.zeros(n)
    coeffs[2] = 1.0
    coeffs[5] = 0.6
    coeffs[9] = 0.35
    return dct_matrix(n).T @ coeffs


def fig2_model(snr_db: float = 5.0, ratio: float = 1000.0, n: int = 100, n_noisy: int = 10):
    """DCT reconstruction model and its true signal.

    The ``n_noisy`` highest-frequency measurements carry ``ratio`` times the
    variance of the rest; the low-frequency variance is set so the total SNR
    of the bundled signal equals ``snr_db``.
    """
    x = dct_demo_signal(n)
    var_lo = float(x @ x) / (10.0 ** (snr_db / 10.0) * ((n - n_noisy) + n_noisy * ratio))
    variances = np.full(n, var_lo)
    variances[n - n_noisy:] = var_lo * ratio
    model = build_model(dct_matrix(n), np.diag(variances))
    return model, x


def _spec(text: str) -> EstimatorSpec:
    kind, _, arg = text.partition(":")
    if kind == "ebme":
        return EstimatorSpec(kind="ebme", b=float(arg.split("=", 1)[1]))
    return EstimatorSpec(kind=kind)


@lru_cache(maxsize=None)
def preset(name: str) -> Preset:
    """Look up a built-in scenario; unknown names list the valid ones."""
    sweep_estimators = tuple(_spec(s) for s in ("ls", "sbme", "ebme:b=-1", "bock"))
    if name == "fig4-snr":
        return Preset(
            name=name,
            cases=((None, fig4_model()),),
            estimators=sweep_estimators,
            snr_grid_db=DEFAULT_SNR_GRID_DB,
            directions=("max-eigenvector", "min-eigenvector"),
        )
    if name == "fig3-pp":
        return Preset(
            name=name,
            cases=((None, fig4_model()),),
            estimators=tuple(_spec(s) for s in ("ls", "sbme", "bbm", "pbm")),
            snr_grid_db=DEFAULT_SNR_GRID_DB,
            directions=("max-eigenvector",),
        )
    if name == "fig5a-range":
        return Preset(
            name=name,
            cases=((None, fig5a_model()),),
            estimators=sweep_estimators,
            snr_grid_db=DEFAULT_SNR_GRID_DB,
            directions=(("random-sphere", 200), "max-eigenvector", "min-eigenvector"),
        )
    if name == "fig5b-range":
        return Preset(
            name=name,
            cases=((None, fig5b_model()),),
            estimators=sweep_estimators,
            snr_grid_db=DEFAULT_SNR_GRID_DB,
            directions=(("random-sphere", 200), "max-eigenvector", "min-eigenvector"),
        )
    if name == "fig6-cond":
        cases = tuple((f"cond={c:g}", fig6_model(c)) for c in FIG6_CONDITIONS)
        return Preset(
            name=name,
            cases=cases,
            estimators=sweep_estimators,
            snr_grid_db=(0.0,),
            # Direction of the largest eigenvalue of Q (least-noisy axis),
            # where the quadratic-norm shrinkage rule degenerates.
            directions=("min-eigenvector",),
        )
    if name == "fig7-tikhonov":
        e1 = [1.0] + [0.0] * 14
        return Preset(
            name=name,
            cases=((None, fig7_model()),),
            estimators=tuple(_spec(s) for s in ("ls", "sbme", "ebme:b=-1", "tik1", "tik2")),
            snr_grid_db=DEFAULT_SNR_GRID_DB,
            directions=(("vector", e1, "high-noise-axis"),),
        )
    if name == "fig2-dct":
        model, x = fig2_model()
        return Preset(
            name=name,
            cases=((None, model),),
            estimators=tuple(_spec(s) for s in ("ls", "sbme", "ebme:b=-1")),
            snr_grid_db=(5.0,),
            directions=(("vector", list(x), "dct-smooth"),),
            trials=1000,
        )
    raise UnknownScenarioError(
        f"unknown scenario {name!r}; valid names: {', '.join(SCENARIO_NAMES)}"
    )


def resolve_cases(scenario):
    """Map a config's scenario field to ``(cases, display_name)``."""
    if isinstance(scenario, str):
        p = preset(scenario)
        return list(p.cases), p.name
    if isinstance(scenario, tuple) and scenario and scenario[0] == "inline":
        _, name, h, cw = scenario
        return [(None, build_model(h, cw))], name
    raise UnknownScenarioError(f"cannot resolve scenario {scenario!r}")


@dataclass(frozen=True)
class DctDemoReport:
    """Average reconstruction errors and gain profiles for ``fig2-dct``."""

    draws: int
    snr_db: float
    mse: dict
    sbme_gain_mean: float
    ebme_gain_mean: np.ndarray
    ebme_gain_min: float
    ebme_gain_max: float
    component_noise_var: np.ndarray
    eps0: float


def run_dct_demo(seed=0, draws: int = 1000, snr_db: float = 5.0, ratio: float = 1000.0) -> DctDemoReport:
    """Reconstruct the demo signal over many noise draws and report both the
    per-estimator mean squared error and the shrinkage each rule applied."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    model, x = fig2_model(snr_db=snr_db, ratio=ratio)
    specs = [_spec(s) for s in ("ls", "sbme", "ebme:b=-1")]
    hx = model.H @ x

    se = {spec.label: [] for spec in specs}
    # Gains are summed per chunk so memory does not grow with draws.
    sbme_gain_sum = 0.0
    ebme_gain_sum = np.zeros(model.m)
    for lo, hi in _chunk_bounds(draws):
        z = normal_block(seed, np.arange(lo, hi), model.n)
        y = z @ model.cw_sqrt + hx
        xls = y @ model.ls_op.T
        for spec in specs:
            res = estimate_from_ls(model, spec, xls)
            delta = res.xhat - x
            se[spec.label].append(np.sum(delta * delta, axis=-1))
            if spec.kind == "sbme":
                sbme_gain_sum += float(res.shrinkage[:, 0].sum())
            if spec.kind == "ebme":
                ebme_gain_sum += res.shrinkage.sum(axis=0)

    mse = {}
    for label, parts in se.items():
        values = np.concatenate(parts)
        stderr = float(np.std(values, ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
        mse[label] = (float(np.mean(values)), stderr)
    gain_profile = ebme_gain_sum / draws
    return DctDemoReport(
        draws=draws,
        snr_db=snr_db,
        mse=mse,
        sbme_gain_mean=sbme_gain_sum / draws,
        ebme_gain_mean=gain_profile,
        ebme_gain_min=float(gain_profile.min()),
        ebme_gain_max=float(gain_profile.max()),
        component_noise_var=1.0 / model.Qeig.eigenvalues,
        eps0=model.eps0,
    )

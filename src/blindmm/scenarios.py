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

from blindmm.estimators import parse_estimator_spec
from blindmm.linalg import LinalgError
from blindmm.model import Model, build_model
from blindmm.sim import ExperimentConfig, run_experiment

# Unused here; bench/tracing.py wraps them under these names and drops a layer if one is gone.
from blindmm.estimators import estimate_from_ls  # noqa: F401
from blindmm.rng import normal_block  # noqa: F401

DEFAULT_SNR_GRID_DB = tuple(float(s) for s in np.arange(-10.0, 20.0 + 1e-9, 2.5))
FIG6_CONDITIONS = (1.0, 3.16, 10.0, 31.6, 100.0, 316.0, 1000.0)
FIG4_NOISE_PROFILE = (1, 1, 1, 1, 0.5, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05)
DCT_ESTIMATORS = ("ls", "sbme", "ebme:b=-1")

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
    """A scenario: one or more (case_key, model) pairs plus sweep defaults
    (by default the four-rule comparison over ``DEFAULT_SNR_GRID_DB``)."""

    name: str
    cases: tuple
    directions: tuple
    estimators: tuple = tuple(map(parse_estimator_spec, ("ls", "sbme", "ebme:b=-1", "bock")))
    snr_grid_db: tuple = DEFAULT_SNR_GRID_DB
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


@lru_cache(maxsize=None)
def preset(name: str) -> Preset:
    """Look up a built-in scenario; unknown names list the valid ones."""
    extremes = ("max-eigenvector", "min-eigenvector")
    if name == "fig4-snr":
        return Preset(name=name, cases=((None, fig4_model()),), directions=extremes)
    if name == "fig3-pp":
        return Preset(
            name=name,
            cases=((None, fig4_model()),),
            directions=("max-eigenvector",),
            estimators=tuple(map(parse_estimator_spec, ("ls", "sbme", "bbm", "pbm"))),
        )
    if name in ("fig5a-range", "fig5b-range"):
        model = fig5a_model() if name == "fig5a-range" else fig5b_model()
        return Preset(
            name=name, cases=((None, model),), directions=(("random-sphere", 200),) + extremes
        )
    if name == "fig6-cond":
        return Preset(
            name=name,
            cases=tuple((f"cond={c:g}", fig6_model(c)) for c in FIG6_CONDITIONS),
            # Direction of the largest eigenvalue of Q (least-noisy axis),
            # where the quadratic-norm shrinkage rule degenerates.
            directions=("min-eigenvector",),
            snr_grid_db=(0.0,),
        )
    if name == "fig7-tikhonov":
        return Preset(
            name=name,
            cases=((None, fig7_model()),),
            directions=(("vector", [1.0] + [0.0] * 14, "high-noise-axis"),),
            estimators=tuple(
                map(parse_estimator_spec, ("ls", "sbme", "ebme:b=-1", "tik1", "tik2"))
            ),
        )
    if name == "fig2-dct":
        model, x = fig2_model()
        return Preset(
            name=name,
            cases=((None, model),),
            directions=(("vector", list(x), "dct-smooth"),),
            estimators=tuple(map(parse_estimator_spec, DCT_ESTIMATORS)),
            snr_grid_db=(5.0,),
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
    per-estimator mean squared error and the shrinkage each rule applied.
    ``draws < 1`` raises ``ConfigError`` (a ``ValueError``)."""
    model, x = fig2_model(snr_db=snr_db, ratio=ratio)
    config = ExperimentConfig(
        scenario=("inline", "fig2-dct", model.H, model.Cw),
        estimators=list(map(parse_estimator_spec, DCT_ESTIMATORS)),
        snr_grid_db=[snr_db],
        directions=[("vector", list(x), "dct-smooth")],
        trials=draws,
        seed=seed,
    )
    rows = {row.estimator: row for row in run_experiment(config)}
    gain_profile = rows["ebme:b=-1"].gain_mean
    return DctDemoReport(
        draws=draws,
        snr_db=snr_db,
        mse={label: (row.mse_mean, row.mse_stderr) for label, row in rows.items()},
        sbme_gain_mean=float(rows["sbme"].gain_mean[0]),
        ebme_gain_mean=gain_profile,
        ebme_gain_min=float(gain_profile.min()),
        ebme_gain_max=float(gain_profile.max()),
        component_noise_var=1.0 / model.Qeig.eigenvalues,
        eps0=model.eps0,
    )

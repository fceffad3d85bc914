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
  measurements are 1000x noisier; 5 dB total SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from blindmm.estimators import parse_estimator_spec
from blindmm.linalg import LinalgError
from blindmm.model import Model, build_model

# Unused here; bench/tracing.py wraps them under these names and drops a layer if one is gone.
from blindmm.estimators import estimate_from_ls  # noqa: F401
from blindmm.rng import normal_block  # noqa: F401

DEFAULT_SNR_GRID_DB = tuple(float(s) for s in np.arange(-10.0, 20.0 + 1e-9, 2.5))
FIG6_CONDITIONS = (1.0, 3.16, 10.0, 31.6, 100.0, 316.0, 1000.0)
FIG4_NOISE_PROFILE = (1, 1, 1, 1, 0.5, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05)
_EXTREMES = ("max-eigenvector", "min-eigenvector")
DCT_ESTIMATORS = ("ls", "sbme", "ebme:b=-1")
# Trials of an inline model, and of a preset that sets none, when the config gives none.
DEFAULT_TRIALS = 10000


class UnknownScenarioError(LinalgError):
    """Scenario name is not in the built-in registry."""


@dataclass(frozen=True)
class Preset:
    """A scenario: one or more (case_key, model) pairs plus sweep defaults
    (by default the four-rule comparison over ``DEFAULT_SNR_GRID_DB``), with
    directions in ``ExperimentConfig``'s forms. ``summary`` names the rules
    of a one-point preset whose mean gains ``blindmm scenario`` prints."""

    cases: tuple
    directions: tuple
    estimators: tuple = tuple(map(parse_estimator_spec, ("ls", "sbme", "ebme:b=-1", "bock")))
    snr_grid_db: tuple = DEFAULT_SNR_GRID_DB
    trials: int = DEFAULT_TRIALS
    summary: tuple = ()


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


def dct_demo_signal() -> np.ndarray:
    """Smooth 100-sample test signal: a few low-frequency DCT components."""
    coeffs = np.zeros(100)
    coeffs[[2, 5, 9]] = (1.0, 0.6, 0.35)
    return dct_matrix(100).T @ coeffs


def fig2_model():
    """DCT reconstruction model and its true signal.

    The 10 highest-frequency of the 100 measurements carry 1000 times the
    variance of the rest; the low-frequency variance is set so the total
    SNR of the bundled signal is 5 dB.
    """
    x = dct_demo_signal()
    var_lo = float(x @ x) / (10.0 ** (5.0 / 10.0) * (90 + 10 * 1000.0))
    variances = np.full(100, var_lo)
    variances[90:] = var_lo * 1000.0
    return build_model(dct_matrix(100), np.diag(variances)), x


def _fig2_preset() -> Preset:
    model, x = fig2_model()
    return Preset(
        cases=((None, model),),
        directions=({"vector": x.tolist(), "id": "dct-smooth"},),
        estimators=tuple(map(parse_estimator_spec, DCT_ESTIMATORS)),
        snr_grid_db=(5.0,),
        trials=1000,
        summary=("sbme", "ebme:b=-1"),
    )


def _range_preset(model: Model) -> Preset:
    return Preset(cases=((None, model),), directions=({"random-sphere": 200},) + _EXTREMES)


# Each built-in scenario's preset, made on first use, in the order the CLI lists them.
_PRESETS = {
    "fig2-dct": _fig2_preset,
    "fig3-pp": lambda: Preset(
        cases=((None, fig4_model()),),
        directions=("max-eigenvector",),
        estimators=tuple(map(parse_estimator_spec, ("ls", "sbme", "bbm", "pbm"))),
    ),
    "fig4-snr": lambda: Preset(cases=((None, fig4_model()),), directions=_EXTREMES),
    "fig5a-range": lambda: _range_preset(fig5a_model()),
    "fig5b-range": lambda: _range_preset(fig5b_model()),
    "fig6-cond": lambda: Preset(
        cases=tuple((f"cond={c:g}", fig6_model(c)) for c in FIG6_CONDITIONS),
        # Direction of the largest eigenvalue of Q (least-noisy axis),
        # where the quadratic-norm shrinkage rule degenerates.
        directions=("min-eigenvector",),
        snr_grid_db=(0.0,),
    ),
    "fig7-tikhonov": lambda: Preset(
        cases=((None, fig7_model()),),
        directions=({"vector": [1.0] + [0.0] * 14, "id": "high-noise-axis"},),
        estimators=tuple(map(parse_estimator_spec, ("ls", "sbme", "ebme:b=-1", "tik1", "tik2"))),
    ),
}
SCENARIO_NAMES = tuple(_PRESETS)


@lru_cache(maxsize=None)
def preset(name: str) -> Preset:
    """Look up a built-in scenario; unknown names list the valid ones."""
    if name not in _PRESETS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; valid names: {', '.join(SCENARIO_NAMES)}"
        )
    return _PRESETS[name]()


def resolve_cases(name: str):
    """A built-in scenario's ``(cases, name)``; ``sim`` resolves inline models."""
    return list(preset(name).cases), name


def run_dct_demo(seed=0, draws: int = 1000):
    """The ``fig2-dct`` rows at ``draws`` trials; kept only because
    ``bench/tracing.py`` wraps this name, like the ``# noqa`` imports above."""
    from blindmm.sim import ExperimentConfig, run_experiment  # sim builds on this module

    return run_experiment(ExperimentConfig(scenario="fig2-dct", trials=draws, seed=seed))

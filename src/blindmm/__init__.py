"""Shrinkage estimators for linear Gaussian regression and a deterministic
Monte Carlo harness for comparing them against the least-squares baseline."""

from blindmm.linalg import EigDecomp, LinalgError, sym_eig
from blindmm.model import (
    Model,
    build_model,
    effective_dimension,
    ls_estimate,
    scale_to_snr,
)
from blindmm.estimators import (
    EstimateResult,
    EstimatorSpec,
    ebme_dominance_holds,
    estimate_from_ls,
    parse_estimator_spec,
    sbme_dominance_holds,
)
from blindmm.sim import (
    ExperimentConfig,
    MseRow,
    run_experiment,
    stein_lemma_check,
    write_results_csv,
)
from blindmm import scenarios

__version__ = "0.1.0"

__all__ = [
    "EigDecomp",
    "EstimateResult",
    "EstimatorSpec",
    "ExperimentConfig",
    "LinalgError",
    "Model",
    "MseRow",
    "build_model",
    "ebme_dominance_holds",
    "effective_dimension",
    "estimate_from_ls",
    "ls_estimate",
    "parse_estimator_spec",
    "run_experiment",
    "sbme_dominance_holds",
    "scale_to_snr",
    "scenarios",
    "stein_lemma_check",
    "sym_eig",
    "write_results_csv",
]

"""Shrinkage estimators for linear Gaussian regression and a deterministic
Monte Carlo harness for comparing them against the least-squares baseline."""

from blindmm.linalg import (
    EigDecomp,
    LinalgError,
    condition_number,
    psd_power,
    sym_eig,
)
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
    balanced_bme,
    bock,
    ebme,
    ebme_dominance_holds,
    estimate_from_ls,
    off_center_sbme,
    parse_estimator_spec,
    positive_part_bme,
    sbme,
    sbme_dominance_holds,
    shrink_c,
    tikhonov1,
    tikhonov2,
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
    "balanced_bme",
    "bock",
    "build_model",
    "condition_number",
    "ebme",
    "ebme_dominance_holds",
    "effective_dimension",
    "estimate_from_ls",
    "ls_estimate",
    "off_center_sbme",
    "parse_estimator_spec",
    "positive_part_bme",
    "psd_power",
    "run_experiment",
    "sbme",
    "sbme_dominance_holds",
    "scale_to_snr",
    "scenarios",
    "shrink_c",
    "stein_lemma_check",
    "sym_eig",
    "tikhonov1",
    "tikhonov2",
    "write_results_csv",
]

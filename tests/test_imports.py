"""Importing the CLI loads no module that numpy leaves unloaded and that
would add to every run's start-up. The noise helper's ``queue`` is
imported by the first Monte Carlo pass of more than one chunk, not by the
import. The package's public names are pinned, and removed ones stay gone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blindmm
from blindmm import estimators, linalg

ROOT = Path(__file__).resolve().parents[1]
UNWANTED = ("logging", "concurrent.futures", "queue", "multiprocessing", "asyncio")


def test_cli_import_loads_no_unwanted_module():
    code = f"import sys, blindmm.cli; print(*[m for m in {UNWANTED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


PUBLIC = [
    "EigDecomp", "EstimateResult", "EstimatorSpec", "ExperimentConfig", "LinalgError", "Model",
    "MseRow", "build_model", "ebme_dominance_holds", "effective_dimension", "estimate_from_ls",
    "ls_estimate", "parse_estimator_spec", "run_experiment", "sbme_dominance_holds",
    "scale_to_snr", "scenarios", "stein_lemma_check", "sym_eig", "write_results_csv",
]
# Each applied one tag through estimate_from_ls; the README maps them to specs.
RETIRED_RULE_FUNCTIONS = ["sbme", "shrink_c", "off_center_sbme", "balanced_bme",
                          "positive_part_bme", "bock", "ebme", "tikhonov1", "tikhonov2"]


def test_public_names_are_pinned_and_resolve():
    assert sorted(blindmm.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(blindmm, name) is not None


@pytest.mark.parametrize("module", [blindmm, estimators], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", RETIRED_RULE_FUNCTIONS)
def test_retired_rule_functions_are_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)


# build_model alone decides whether a model is valid; the README maps them.
@pytest.mark.parametrize("module", [blindmm, linalg], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ["psd_power", "condition_number"])
def test_second_validity_check_is_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)

"""Property test for the Monte Carlo engine's scalar rules: the per-trial
squared errors and gains it computes from each chunk's statistics equal the
explicit ``||xhat - x||^2`` of the public rules on random dense models."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from blindmm import sim  # noqa: E402
from blindmm.estimators import RULES, EstimatorSpec, estimate_from_ls  # noqa: E402
from blindmm.model import build_model, scale_to_snr  # noqa: E402

TRIALS = 257
SCALAR_TAGS = [tag for tag, rule in RULES.items() if not (rule.per_component or rule.param)]


@st.composite
def cases(draw):
    m = draw(st.integers(2, 6))
    return {
        "m": m,
        "n": draw(st.integers(m, 8)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "snr_db": draw(st.floats(-20.0, 60.0)),
        "c": draw(st.floats(0.0, 10.0)),
        "centered": draw(st.booleans()),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
def test_scalar_rules_match_explicit_error(case):
    m, n, seed = case["m"], case["n"], case["seed"]
    rng = np.random.default_rng(seed)
    # Dense H and Cw with bounded spectra: the explicit error rebuilds xls
    # through ls_op, whose rounding an ill-conditioned H would amplify.
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    h = (left[:, :m] * rng.uniform(0.5, 2.0, m)) @ right
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cw = (q * rng.uniform(0.1, 10.0, n)) @ q.T
    model = build_model(h, (cw + cw.T) / 2.0)
    x = scale_to_snr(model, rng.standard_normal(m), case["snr_db"])
    specs = [EstimatorSpec(tag) for tag in SCALAR_TAGS] + [EstimatorSpec("shrinkc", c=case["c"])]
    if case["centered"]:
        specs.append(EstimatorSpec("offcenter", x0=rng.standard_normal(m)))

    point = sim._point_squared_errors(model, x, specs, TRIALS, seed)
    z = sim.normal_block(seed, np.arange(TRIALS), n)
    xls = (z @ model.cw_sqrt + model.H @ x) @ model.ls_op.T
    for spec in specs:
        res = estimate_from_ls(model, spec, xls)
        np.testing.assert_allclose(
            point.squared_errors[spec.label], np.sum((res.xhat - x) ** 2, axis=1), rtol=1e-9,
            err_msg=spec.label,
        )
        np.testing.assert_allclose(
            point.gain_sums[spec.label], res.shrinkage.sum(axis=0), rtol=1e-9, err_msg=spec.label
        )

"""Property tests for the Monte Carlo engine's scalar rules: the per-trial
squared errors and gains it computes from each chunk's statistics equal the
explicit ``||xhat - x||^2`` of the public rules on random dense models; the
shrinking rules' mean gains from ``run_experiment`` lie in [0, 1], with every
row finite; for ``stein_lemma_check``: its component-major chunk sums and
moment fold equal a row-major float64 reference over the same draws; and
``_ratio_gain`` equals its masked reference bit for bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from blindmm import estimators, sim  # noqa: E402
from blindmm.estimators import (  # noqa: E402
    RULES, EstimatorSpec, estimate_from_ls, parse_estimator_spec,
)
from blindmm.model import build_model, scale_to_snr  # noqa: E402
from engine_points import point_squared_errors  # noqa: E402

TRIALS = 257
SCALAR_TAGS = [tag for tag, rule in RULES.items() if not (rule.per_component or rule.param)]
# Rules whose every gain lies in [0, 1] (bbm and bock may go negative).
SHRINKING_TAGS = ["sbme", "pbm", "ebme:b=-1", "tik1", "tik2"]


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
        "trials": draw(st.integers(2, 2 * sim.CHUNK_TRIALS + 1)),
    }


def dense_model(case, rng):
    """Dense H and Cw with bounded spectra: the explicit error rebuilds xls
    through ls_op, whose rounding an ill-conditioned H would amplify."""
    m, n = case["m"], case["n"]
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    h = (left[:, :m] * rng.uniform(0.5, 2.0, m)) @ right
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cw = (q * rng.uniform(0.1, 10.0, n)) @ q.T
    return h, (cw + cw.T) / 2.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
def test_scalar_rules_match_explicit_error(case):
    m, n, seed = case["m"], case["n"], case["seed"]
    rng = np.random.default_rng(seed)
    model = build_model(*dense_model(case, rng))
    x = scale_to_snr(model, rng.standard_normal(m), case["snr_db"])
    specs = [EstimatorSpec(tag) for tag in SCALAR_TAGS] + [EstimatorSpec("shrinkc", c=case["c"])]
    if case["centered"]:
        specs.append(EstimatorSpec("offcenter", x0=rng.standard_normal(m)))

    point = point_squared_errors(model, x, specs, TRIALS, seed)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
def test_shrinking_rules_mean_gains_in_unit_interval(case):
    rng = np.random.default_rng(case["seed"])
    h, cw = dense_model(case, rng)
    specs = [parse_estimator_spec(tag) for tag in SHRINKING_TAGS]
    specs.append(EstimatorSpec("offcenter", x0=rng.standard_normal(case["m"])))
    config = sim.ExperimentConfig(
        scenario={"name": "dense", "H": h.tolist(), "Cw": cw.tolist()}, estimators=specs,
        snr_grid_db=[case["snr_db"]], trials=case["trials"],
        directions=[{"vector": rng.standard_normal(case["m"]).tolist(), "id": "d"}],
        seed=case["seed"],
    )
    rows = sim.run_experiment(config)
    assert [row.estimator for row in rows] == sorted(spec.label for spec in specs)
    for row in rows:
        assert np.isfinite([row.mse_mean, row.mse_stderr, row.eps0]).all(), row
        assert np.isfinite(row.gain_mean).all() and row.gain_mean.shape == (case["m"],), row
        assert np.all((row.gain_mean >= 0.0) & (row.gain_mean <= 1.0)), (row, row.gain_mean)


@st.composite
def stein_cases(draw):
    width = draw(st.integers(1, 5))
    v = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), min_size=width,
                      max_size=width))
    c_low = 1e-3 if not any(v) else 0.0  # g is undefined at c = 0 with v = 0
    return {
        "v": np.array(v),
        "sigma": np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=width, max_size=width))),
        "c": draw(st.one_of(st.just(c_low), st.floats(c_low, 1e3))),
        "g": draw(st.sampled_from(["shrink", "linear"])),
        "trials": draw(st.integers(10**4, 3 * sim.CHUNK_TRIALS + 5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stein_cases())
def test_stein_sums_match_row_major_reference(case):
    # The component-major chunk sums and the moment fold against one
    # row-major pass over the same draws, with a two-pass variance.
    v, sigma, c, trials = case["v"], case["sigma"], case["c"], case["trials"]
    res = sim.stein_lemma_check(v, sigma, c, trials, case["seed"], g=case["g"])
    z = np.concatenate([
        sim.normal_block(case["seed"], np.arange(lo, min(lo + sim.CHUNK_TRIALS, trials)), v.shape[0])
        for lo in range(0, trials, sim.CHUNK_TRIALS)
    ])
    vh = v + z
    if case["g"] == "shrink":
        inv = (1.0 / (c + (vh * vh) @ (1.0 / sigma)))[:, None]
        part = 2.0 / sigma * (vh * vh) * inv
        deriv, scale = inv * (1.0 - part), inv * (1.0 + part)
        gz = vh * inv * z
    else:
        deriv, gz = np.ones_like(vh), vh * z
        scale = deriv
    diff = deriv - gz
    dev = diff - diff.mean(axis=0)
    stderr = np.sqrt((dev * dev).sum(axis=0) / (trials - 1) / trials)
    # Relative to the terms' magnitude: the means can cancel far below it
    # (at v = 515 in two coordinates the lhs is 1e-6 of its terms), and the
    # reference forms q in another order.
    for got, want, terms in ((res.lhs, deriv, scale), (res.rhs, gz, np.abs(gz))):
        want = want.mean(axis=0)
        bound = 1e-12 * (np.abs(want) + terms.mean(axis=0))
        assert np.all(np.abs(got - want) <= bound), (got, want, bound)
    np.testing.assert_allclose(res.stderr, stderr, rtol=1e-9)


@st.composite
def ratio_cases(draw):
    s = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)), min_size=1, max_size=12))
    return {
        "s": np.array(s),
        "c": draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
        "e": draw(st.floats(-1e6, 1e6)),
        "alias": draw(st.booleans()),
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ratio_cases())
def test_ratio_gain_matches_masked_reference(case):
    # c > 0 skips the zero-denominator mask; c = 0 masks only when s has a zero.
    s, c, e = case["s"], case["c"], case["e"]
    arg = s.copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # s = 5e-324 overflows
        want = np.where(c + s == 0.0, 0.0, ((c - e) + s) / (c + s))
        got = estimators._ratio_gain(arg, c, e, out=arg if case["alias"] else None)
    assert (got is arg) == case["alias"]
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

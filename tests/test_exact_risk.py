"""The exact risk oracle (``exact_risk.py``) against known answers, and the
Monte Carlo engine against the oracle.

Every built-in scenario runs with the rules the oracle covers, random
directions capped at 2, ``TRIALS`` trials and seed ``SEED``. Each row's
``mse_mean`` must lie within ``Z_BOUND`` of its ``mse_stderr`` from the
exact risk: 1312 rows, and the ``ebme:b=-1`` rows whose points keep its
cutoff off (71 of 164), so 4.5 is a Bonferroni bound (a two-sided normal
tail of 7e-6 per row). Rules and SNR points of one group share their noise,
so the rows are far from independent, and the bound is loose.
"""

import numpy as np
import pytest

from blindmm import scenarios, sim
from blindmm.estimators import (EstimatorSpec, ebme_dominance_holds, parse_estimator_spec,
                                sbme_dominance_holds)
from blindmm.model import build_model, scale_to_snr
from exact_risk import NoClosedForm, exact_risk
from test_golden_rows import _directions as capped_directions  # random ones capped at 2

TRIALS, SEED = 4096, 1
Z_BOUND = 4.5
COVERED = ["ls", "sbme", "shrinkc:c=1", "bbm", "bock", "tik1", "tik2"]
EBME = "ebme:b=-1"  # covered only at the points where its cutoff cannot engage
DOMINATING = ("sbme", "shrinkc", "bbm", "bock")


def grid_points(model):
    return np.array([scale_to_snr(model, np.ones(model.m), snr)
                     for snr in scenarios.DEFAULT_SNR_GRID_DB])


def test_bbm_on_white_noise_at_m4_has_the_risk_of_ls():
    # James-Stein's (1 - a/||xls||^2) xls with a = 2 (m - 2) sigma^2 = eps0 at m = 4.
    model = build_model(np.eye(4), 0.7 * np.eye(4))
    xs = [np.zeros(4), [0.1, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0], [100.0, 0.0, 0.0, -3.0]]
    exact = exact_risk(model, xs, parse_estimator_spec("bbm"))
    np.testing.assert_allclose(exact.risk, model.eps0, rtol=1e-10, atol=0)


def test_shrinkc_at_eps0_is_sbme():
    model = scenarios.fig5b_model()
    xs = grid_points(model)
    want = exact_risk(model, xs, parse_estimator_spec("sbme"))
    got = exact_risk(model, xs, EstimatorSpec("shrinkc", c=model.eps0))
    assert np.array_equal(got.risk, want.risk) and np.array_equal(got.error, want.error)


@pytest.mark.parametrize("tag", COVERED[1:] + ["shrinkc:c=0", "offcenter"])
@pytest.mark.parametrize("model", [scenarios.fig5a_model(), scenarios.fig7_model()],
                         ids=["fig5a", "fig7"])
def test_converged_in_the_node_count(model, tag):
    spec = (EstimatorSpec("offcenter", x0=np.linspace(-1.0, 1.0, model.m)) if tag == "offcenter"
            else parse_estimator_spec(tag))
    xs = grid_points(model)
    coarse, fine = exact_risk(model, xs, spec), exact_risk(model, xs, spec, nodes=400)
    np.testing.assert_allclose(coarse.risk, fine.risk, rtol=1e-10, atol=0)
    assert np.all(coarse.error <= 1e-10 * coarse.risk)


def test_ebme_at_b0_is_sbme():
    model = scenarios.fig5b_model()
    xs = grid_points(model)
    want = exact_risk(model, xs, parse_estimator_spec("sbme"))
    got = exact_risk(model, xs, parse_estimator_spec("ebme:b=0"))
    np.testing.assert_allclose(got.risk, want.risk, rtol=1e-12, atol=0)


@pytest.mark.parametrize("tag", ["pbm", "ebme:b=-1"])
def test_rules_without_a_closed_form_raise(tag):
    with pytest.raises(NoClosedForm, match="no closed form for " + tag):
        exact_risk(scenarios.fig5b_model(), np.ones(10), parse_estimator_spec(tag))


TINY_C_POINTS = [np.zeros(3), np.ones(3), [3.0, 0.0, 0.0], [10.0, -2.0, 1.0]]


def test_shrinkc_at_a_tiny_c_has_the_risk_of_bbm():
    # At m >= 3 the risk is continuous at c = 0, and the gap shrinks like sqrt(c):
    # about 1e-9 at c = 1e-20, where exp(-c t) ends the integrands only near t = 4e21.
    model = build_model(np.eye(3), np.eye(3))
    xs = TINY_C_POINTS
    tiny = exact_risk(model, xs, EstimatorSpec("shrinkc", c=1e-20))
    bbm = exact_risk(model, xs, parse_estimator_spec("bbm"))
    assert np.all(np.abs(tiny.risk - bbm.risk) <= 1e-8), tiny.risk - bbm.risk
    with pytest.raises(NoClosedForm, match=r"c below 40 e\*\*-300"):
        exact_risk(model, xs, EstimatorSpec("shrinkc", c=1e-200))


@pytest.mark.parametrize("tag", ["bbm", "bock"])
def test_error_bounds_the_gap_to_a_finer_grid(tag):
    # At c = 0 in m = 3 the integrands decay slowest; the error estimate must
    # still cover the returned value's distance from an 8x finer grid.
    model = build_model(np.eye(3), np.eye(3))
    spec = parse_estimator_spec(tag)
    exact = exact_risk(model, TINY_C_POINTS, spec)
    gap = exact.risk - exact_risk(model, TINY_C_POINTS, spec, nodes=1600).risk
    assert np.all(np.abs(gap) <= exact.error), (gap, exact.error)


def test_c_zero_below_three_dimensions_raises():
    model = build_model(np.eye(2), np.eye(2))
    with pytest.raises(NoClosedForm, match="infinite risk at m = 2"):
        exact_risk(model, np.ones(2), parse_estimator_spec("bbm"))
    assert np.all(np.isfinite(exact_risk(model, np.ones(2), parse_estimator_spec("sbme")).risk))


def test_tikhonov2_loses_to_ls_on_fig7():
    # The paper's point that the Tikhonov variants do not dominate least squares.
    model = scenarios.fig7_model()
    xs = [scale_to_snr(model, np.eye(15)[0], snr) for snr in (10.0, 20.0)]
    exact = exact_risk(model, xs, parse_estimator_spec("tik2"))
    assert np.all(exact.risk - exact.error > model.eps0), exact.risk / model.eps0


def scenario_z(name):
    """The scenario's rows under ``COVERED``, ``offcenter`` and ``EBME`` that
    the oracle covers, each with its exact risk and z score; one oracle call
    per (sweep key, rule) group, and per row for ``EBME``."""
    preset = scenarios.preset(name)
    directions = capped_directions(preset)
    cases, _ = scenarios.resolve_cases(name)
    first = cases[0][1]
    x0 = scale_to_snr(first, np.linspace(-1.0, 1.0, first.m), 0.0)
    specs = [parse_estimator_spec(tag) for tag in COVERED + [EBME]]
    specs.append(EstimatorSpec("offcenter", x0=x0))
    rows = sim.run_experiment(sim.ExperimentConfig(
        scenario=name, estimators=specs, directions=directions, trials=TRIALS, seed=SEED))
    groups = {}
    for case_key, model in cases:
        for dir_key, direction in sim.resolve_directions(model, directions, SEED):
            for spec in specs:
                groups[case_key or dir_key, spec.label] = (model, direction, spec, [])
    for row in rows:
        groups[row.sweep_key, row.estimator][3].append(row)
    out, skipped = [], 0
    for model, direction, spec, group in groups.values():
        xs = [scale_to_snr(model, direction, row.snr_db) for row in group]
        parts = [([row], [x]) for row, x in zip(group, xs)] if spec.label == EBME else [(group, xs)]
        for part, part_xs in parts:
            try:
                exact = exact_risk(model, part_xs, spec)
            except NoClosedForm:  # ebme's cutoff may engage at this point
                assert spec.label == EBME
                skipped += 1
                continue
            for row, risk, error in zip(part, exact.risk, exact.error):
                out.append((row, model, risk, error, (row.mse_mean - risk) / row.mse_stderr))
    assert len(out) + skipped == len(rows) == len(groups) * len(preset.snr_grid_db)
    return out


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_monte_carlo_rows_match_the_exact_risk(name):
    rows = scenario_z(name)
    assert any(row.estimator == EBME for row, *_ in rows)  # every scenario covers some
    for row, model, risk, error, z in rows:
        assert abs(z) <= Z_BOUND, (row, risk)
        kind = row.estimator.partition(":")[0]
        if (kind in DOMINATING and sbme_dominance_holds(model)
                or row.estimator == EBME and ebme_dominance_holds(model, -1.0)):
            assert risk + error < model.eps0, row  # the paper's dominance claims

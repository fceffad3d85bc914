"""Acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance and
trial count, and prints a single PASS line (visible with ``pytest -s`` or
``-rP``). The heavyweight Monte Carlo sweeps are shared module-scoped
fixtures; every sweep is fully seeded, so reruns are bit-identical.
"""

import json
import time

import numpy as np
import pytest

from blindmm.cli import main as cli_main
from blindmm.estimators import (
    EstimatorSpec,
    balanced_bme,
    ebme,
    off_center_sbme,
    positive_part_bme,
    sbme,
    shrink_c,
)
from blindmm.model import build_model, effective_dimension
from blindmm.scenarios import FIG4_NOISE_PROFILE, fig6_model, preset
from blindmm.sim import ExperimentConfig, run_experiment, stein_lemma_check

SEED = 0
TRIALS = 10000
BME_SET = ("sbme", "ebme:b=-1", "bbm")
SNR_GRID = [float(s) for s in np.arange(-10.0, 20.0 + 1e-9, 2.5)]


def _spec(tag):
    if tag.startswith("ebme"):
        return EstimatorSpec("ebme", b=float(tag.split("=", 1)[1]))
    return EstimatorSpec(tag)


def _sweep(scenario, estimators, directions, trials=TRIALS, snr=None):
    cfg = ExperimentConfig(
        scenario=scenario,
        estimators=[_spec(t) for t in estimators],
        snr_grid_db=list(SNR_GRID if snr is None else snr),
        directions=directions,
        trials=trials,
        seed=SEED,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def fig4_rows():
    start = time.time()
    rows = _sweep("fig4-snr", ("ls",) + BME_SET, ["max-eigenvector", "min-eigenvector"])
    return rows, time.time() - start


@pytest.fixture(scope="module")
def fig5a_rows():
    return _sweep("fig5a-range", BME_SET, [("random-sphere", 20)])


@pytest.fixture(scope="module")
def fig5b_rows():
    return _sweep("fig5b-range", BME_SET, [("random-sphere", 20)])


@pytest.fixture(scope="module")
def fig7_rows():
    return _sweep(
        "fig7-tikhonov",
        ("ls", "sbme", "ebme:b=-1", "tik1", "tik2"),
        [("vector", [1.0] + [0.0] * 14, "high-noise-axis")],
    )


@pytest.fixture(scope="module")
def fig6_rows():
    return _sweep(
        "fig6-cond", ("ls", "sbme", "ebme:b=-1", "bock"), ["min-eigenvector"], snr=[0.0]
    )


def test_c01_effective_dimension_exact():
    start = time.time()
    m4 = build_model(np.eye(15), np.diag(FIG4_NOISE_PROFILE))
    m5b = build_model(np.eye(10), np.diag([1.0] * 5 + [0.1] * 5))
    m5a = build_model(np.eye(15), np.diag(np.linspace(1.0, 0.01, 15)))
    elapsed = time.time() - start
    analytic = float(np.sum(np.linspace(1.0, 0.01, 15)))

    assert abs(effective_dimension(m4) - 5.8) <= 1e-12
    assert abs(effective_dimension(m5b) - 5.5) <= 1e-12
    assert abs(effective_dimension(m5a) - analytic) <= 1e-12
    assert abs(analytic - 7.575) <= 1e-12
    assert elapsed < 1.0
    print(
        f"[criterion 1] PASS effective dimensions 5.8 / 5.5 / {analytic} "
        f"exact to 1e-12 ({elapsed:.3f} s)"
    )


def test_c02_algebraic_identity_suite():
    def rel_err(a, b):
        scale = max(np.linalg.norm(a), np.linalg.norm(b))
        return 0.0 if scale == 0.0 else np.linalg.norm(a - b) / scale

    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(1000):
        m_dim = int(rng.integers(2, 13))
        n_dim = m_dim + int(rng.integers(0, 4))
        h = rng.standard_normal((n_dim, m_dim))
        if i % 5 == 0:
            q, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
            cw = (q * np.exp(rng.uniform(np.log(0.2), np.log(5.0), n_dim))) @ q.T
            cw = (cw + cw.T) / 2.0
        else:
            cw = np.diag(np.exp(rng.uniform(np.log(0.2), np.log(5.0), n_dim)))
        model = build_model(h, cw)
        xls = rng.standard_normal(m_dim) * float(rng.uniform(0.05, 20.0))

        ref = sbme(model, xls).xhat
        pairs = (
            (ebme(model, xls, b=0.0).xhat, ref),
            (shrink_c(model, xls, model.eps0).xhat, ref),
            (shrink_c(model, xls, 0.0).xhat, balanced_bme(model, xls).xhat),
            (off_center_sbme(model, xls, np.zeros(m_dim)).xhat, ref),
            (
                positive_part_bme(model, xls).xhat,
                max(balanced_bme(model, xls).shrinkage[0], 0.0) * xls,
            ),
        )
        for got, want in pairs:
            err = rel_err(got, want)
            worst = max(worst, err)
            assert err <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"[criterion 2] PASS identity chain over 1000 models, worst relative "
        f"error {worst:.2e} ({elapsed:.1f} s)"
    )


def test_c03_ls_calibration(fig4_rows):
    rows, elapsed = fig4_rows
    ls_rows = [r for r in rows if r.estimator == "ls"]
    assert len(ls_rows) == 2 * len(SNR_GRID)
    worst = 0.0
    for r in ls_rows:
        pull = abs(r.mse_mean - 5.8) / r.mse_stderr
        worst = max(worst, pull)
        assert pull <= 5.0
    assert elapsed < 60.0
    print(
        f"[criterion 3] PASS LS risk matches eps0=5.8 at {len(ls_rows)} points, "
        f"worst deviation {worst:.2f} stderr ({elapsed:.1f} s sweep)"
    )


def test_c04_dominance_at_desk_scale(fig4_rows, fig5a_rows, fig5b_rows):
    groups = (
        ("fig4", fig4_rows[0], 5.8),
        ("fig5a", fig5a_rows, 7.575),
        ("fig5b", fig5b_rows, 5.5),
    )
    checked = 0
    worst_margin = np.inf
    for name, rows, eps0 in groups:
        bme_rows = [r for r in rows if r.estimator in BME_SET]
        assert bme_rows, name
        for r in bme_rows:
            assert r.mse_mean <= eps0 + 3.0 * r.mse_stderr, (name, r)
            if r.snr_db <= 10.0:
                margin = (eps0 - r.mse_mean) / r.mse_stderr
                worst_margin = min(worst_margin, margin)
                assert r.mse_mean < eps0 - 3.0 * r.mse_stderr, (name, r, margin)
                checked += 1
    print(
        f"[criterion 4] PASS strict dominance of sbme/ebme/bbm at {checked} "
        f"points (snr <= 10 dB), tightest margin {worst_margin:.2f} stderr"
    )


def test_c05_gain_magnitude(fig4_rows):
    rows, _ = fig4_rows
    max_dir = [r for r in rows if r.sweep_key == "max-eig"]
    sbme_curve = {r.snr_db: r.mse_mean for r in max_dir if r.estimator == "sbme"}
    snr_star = min(sbme_curve, key=sbme_curve.get)
    best = min(
        r.mse_mean for r in max_dir if r.estimator in BME_SET and r.snr_db == snr_star
    )
    ratio = 5.8 / best
    assert ratio >= 2.0
    print(
        f"[criterion 5] PASS eps0/mse(best BME) = {ratio:.2f} >= 2.0 at the "
        f"sbme-curve minimum (snr {snr_star:g} dB)"
    )


def test_c06_stein_identity():
    start = time.time()
    res = stein_lemma_check([1.0, 2.0], [1.0, 4.0], c=1.0, trials=10**6, seed=SEED)
    elapsed = time.time() - start
    pulls = res.discrepancy / res.stderr
    assert res.within(4.0)
    assert elapsed < 30.0
    print(
        f"[criterion 6] PASS integration-by-parts identity, per-coordinate "
        f"discrepancy {pulls[0]:.2f} / {pulls[1]:.2f} stderr ({elapsed:.1f} s)"
    )


def test_c07_tikhonov_non_dominance(fig7_rows):
    eps0 = 510.0
    worst_excess = np.inf
    for r in fig7_rows:
        if r.estimator in ("tik1", "tik2") and r.snr_db >= 10.0:
            excess = (r.mse_mean - eps0) / r.mse_stderr
            worst_excess = min(worst_excess, excess)
            assert excess >= 3.0, r
        if r.estimator in ("sbme", "ebme:b=-1"):
            assert r.mse_mean <= eps0 + 3.0 * r.mse_stderr, r
    print(
        f"[criterion 7] PASS tik1/tik2 exceed eps0 at snr >= 10 dB (weakest "
        f"excess {worst_excess:.1f} stderr) while sbme/ebme never do"
    )


def test_c08_bock_pathology(fig6_rows):
    at_1000 = {r.estimator: r for r in fig6_rows if r.sweep_key == "cond=1000"}
    eps0 = fig6_model(1000.0).eps0
    bock_ratio = at_1000["bock"].mse_mean / eps0
    ebme_ratio = at_1000["ebme:b=-1"].mse_mean / eps0
    assert abs(bock_ratio - 1.0) <= 0.02
    assert ebme_ratio <= 0.8
    print(
        f"[criterion 8] PASS at condition 1000: bock mse/eps0 = {bock_ratio:.4f} "
        f"(within 2% of 1), ebme mse/eps0 = {ebme_ratio:.3f} <= 0.8"
    )


def test_c09_dct_demo():
    rows = run_experiment(ExperimentConfig(scenario="fig2-dct", trials=1000, seed=SEED))
    by_label = {row.estimator: row for row in rows}
    ls, sb, eb = (by_label[k].mse_mean for k in ("ls", "sbme", "ebme:b=-1"))
    gains = by_label["ebme:b=-1"].gain_mean
    assert eb <= 0.5 * ls
    assert sb <= 0.9 * ls
    component_noise_var = 1.0 / preset("fig2-dct").cases[0][1].Qeig.eigenvalues
    assert np.all(np.diff(component_noise_var) >= 0)
    assert np.all(np.diff(gains) <= 1e-12)
    print(
        f"[criterion 9] PASS dct demo: ebme {100 * (1 - eb / ls):.0f}% below ls, "
        f"sbme {100 * (1 - sb / ls):.0f}% below; gains monotone in noise "
        f"variance (range [{gains.min():.2f}, {gains.max():.2f}])"
    )


def test_c10_determinism(tmp_path):
    cfg = {
        "scenario": "fig3-pp",
        "estimators": ["ls", "sbme", "pbm"],
        "snr_grid_db": [-5.0, 5.0, 15.0],
        "directions": ["max-eigenvector", {"random-sphere": 3}],
        "trials": 5000,
        "seed": 77,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "2")):
        out = tmp_path / name
        code = cli_main(
            ["experiment", "--config", str(cfg_path), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print(
        f"[criterion 10] PASS byte-identical results CSV across reruns and "
        f"worker counts 1/4/2 ({len(outputs[0])} bytes)"
    )

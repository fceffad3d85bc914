"""Monte Carlo engine: reproducibility, calibration, the experiment runner,
config parsing, CSV output, and the integration-by-parts identity check."""

import os
import warnings

import numpy as np
import pytest

from blindmm.estimators import EstimatorSpec, balanced_bme, ebme, estimate_from_ls, positive_part_bme
from blindmm.model import build_model, scale_to_snr
from blindmm.rng import generator, normal_block
from blindmm.scenarios import fig4_model, fig5b_model, fig6_model
from blindmm.sim import (
    ConfigError,
    DegenerateGError,
    ExperimentConfig,
    MseRow,
    format_results_csv,
    gaussian_vector,
    load_config,
    monte_carlo_mse,
    resolve_directions,
    run_experiment,
    stein_lemma_check,
    write_results_csv,
    _point_squared_errors,
)


def iid_model(m):
    return build_model(np.eye(m), np.eye(m))


class TestGaussianVector:
    def test_deterministic(self):
        m = fig4_model()
        a = gaussian_vector(m.cw_sqrt, generator(5, 9))
        b = gaussian_vector(m.cw_sqrt, generator(5, 9))
        assert np.array_equal(a, b)

    def test_white_noise_covariance(self):
        rng = generator(1, 0)
        z = np.stack([gaussian_vector(np.eye(2), rng) for _ in range(5000)])
        z_big = normal_block(1, np.arange(200000), 2)  # same stream, larger sample
        cov = np.cov(z_big.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.02
        assert np.array_equal(z, z_big[:5000])

    def test_diagonal_scaling(self):
        m = build_model(np.eye(2), np.diag([4.0, 1.0]))
        w = normal_block(2, np.arange(200000), 2) @ m.cw_sqrt
        np.testing.assert_allclose(w.var(axis=0), [4.0, 1.0], rtol=0.02)


class TestMonteCarloMse:
    def test_ls_matches_eps0(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 5.0)
        mean, stderr = monte_carlo_mse(m, x, EstimatorSpec("ls"), 20000, seed=3)
        assert abs(mean - m.eps0) <= 5.0 * stderr

    def test_two_trials_reproducible(self):
        m = iid_model(4)
        x = np.ones(4)
        a = monte_carlo_mse(m, x, EstimatorSpec("ls"), 2, seed=9)
        b = monte_carlo_mse(m, x, EstimatorSpec("ls"), 2, seed=9)
        assert a == b

    def test_zero_noise_limit(self):
        m = build_model(np.eye(4), 1e-20 * np.eye(4))
        mean, _ = monte_carlo_mse(m, np.ones(4), EstimatorSpec("ls"), 100, seed=1)
        assert mean < 1e-15

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_mse(iid_model(3), np.ones(3), EstimatorSpec("ls"), 1, seed=0)

    def test_worker_count_bit_invariant(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 0.0)
        spec = EstimatorSpec("sbme")
        base = monte_carlo_mse(m, x, spec, 9000, seed=4, workers=1)
        for workers in (2, 3):
            assert monte_carlo_mse(m, x, spec, 9000, seed=4, workers=workers) == base

    def test_common_random_numbers_across_estimators(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 0.0)
        solo = _point_squared_errors(m, x, [EstimatorSpec("ls")], 500, seed=8)
        joint = _point_squared_errors(
            m, x, [EstimatorSpec("ls"), EstimatorSpec("sbme")], 500, seed=8
        )
        assert np.array_equal(solo["ls"], joint["ls"])


class TestDirections:
    def test_eigenvector_policies(self):
        m = fig4_model()
        dirs = dict(resolve_directions(m, ["max-eigenvector", "min-eigenvector"], 0))
        # Max noise direction lies in the unit-variance block, min in the
        # 0.05-variance block of the diagonal profile.
        max_d, min_d = dirs["max-eig"], dirs["min-eig"]
        assert abs(float(max_d @ m.Cw @ max_d)) == pytest.approx(1.0, rel=1e-9)
        assert abs(float(min_d @ m.Cw @ min_d)) == pytest.approx(0.05, rel=1e-9)

    def test_random_sphere_deterministic_and_unit(self):
        m = fig4_model()
        a = resolve_directions(m, [("random-sphere", 5)], 42)
        b = resolve_directions(m, [("random-sphere", 5)], 42)
        c = resolve_directions(m, [("random-sphere", 5)], 43)
        for (ka, va), (kb, vb) in zip(a, b):
            assert ka == kb and np.array_equal(va, vb)
            assert np.linalg.norm(va) == pytest.approx(1.0, rel=1e-12)
        assert not np.array_equal(a[0][1], c[0][1])

    def test_prefix_reuse(self):
        # The first k random directions are a prefix of the first k+j.
        m = fig4_model()
        small = resolve_directions(m, [("random-sphere", 3)], 7)
        big = resolve_directions(m, [("random-sphere", 6)], 7)
        for (ks, vs), (kb, vb) in zip(small, big):
            assert ks == kb and np.array_equal(vs, vb)

    def test_explicit_vector(self):
        m = iid_model(3)
        (key, v), = resolve_directions(m, [("vector", [0.0, 2.0, 0.0], "axis-y")], 0)
        assert key == "axis-y"
        np.testing.assert_array_equal(v, [0.0, 2.0, 0.0])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            resolve_directions(iid_model(2), ["sideways"], 0)


class TestRunExperiment:
    def _tiny_config(self, seed=0, trials=64):
        return ExperimentConfig(
            scenario="fig4-snr",
            estimators=[EstimatorSpec("ls"), EstimatorSpec("sbme")],
            snr_grid_db=[-5.0, 5.0],
            directions=["max-eigenvector"],
            trials=trials,
            seed=seed,
        )

    def test_row_grid(self):
        rows = run_experiment(self._tiny_config())
        assert len(rows) == 4  # 2 estimators x 2 snrs x 1 direction
        assert [r.sort_key() for r in rows] == sorted(r.sort_key() for r in rows)
        assert {r.estimator for r in rows} == {"ls", "sbme"}
        assert all(r.trials == 64 and r.seed == 0 for r in rows)

    def test_rerun_identical(self):
        a = run_experiment(self._tiny_config())
        b = run_experiment(self._tiny_config())
        assert a == b

    def test_worker_invariance(self):
        cfg = self._tiny_config(trials=9000)
        rows1 = run_experiment(cfg, workers=1)
        rows3 = run_experiment(self._tiny_config(trials=9000), workers=3)
        assert rows1 == rows3

    def test_gain_profiles_worker_invariant(self):
        cfg = self._tiny_config(trials=9000)
        cfg.estimators = cfg.estimators + [EstimatorSpec("ebme", b=-1.0)]
        rows1 = run_experiment(cfg, workers=1)
        rows3 = run_experiment(cfg, workers=3)
        for a, b in zip(rows1, rows3):
            assert a.gain_mean.shape == (15,)
            assert np.array_equal(a.gain_mean, b.gain_mean)
            assert a.eps0 == b.eps0 == fig4_model().eps0

    def test_gain_profiles_are_trial_means(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 0.0)
        specs = [EstimatorSpec("ls"), EstimatorSpec("sbme"), EstimatorSpec("ebme", b=-1.0)]
        point = _point_squared_errors(m, x, specs, 5000, seed=6)
        assert np.array_equal(point.gain_sums["ls"], np.full(15, 5000.0))
        xls = np.concatenate([
            (normal_block(6, np.arange(lo, hi), m.n) @ m.cw_sqrt + m.H @ x) @ m.ls_op.T
            for lo, hi in ((0, 4096), (4096, 5000))
        ])
        for spec in specs[1:]:
            direct = estimate_from_ls(m, spec, xls).shrinkage.sum(axis=0)
            np.testing.assert_allclose(point.gain_sums[spec.label], direct, rtol=1e-12)

    def test_seed_changes_results(self):
        a = run_experiment(self._tiny_config(seed=0))
        b = run_experiment(self._tiny_config(seed=1))
        assert a != b

    def test_preset_fill(self):
        cfg = ExperimentConfig(scenario="fig4-snr", trials=8, seed=0)
        rows = run_experiment(cfg)
        # Preset defaults: 4 estimators x 13 snrs x 2 directions.
        assert len(rows) == 4 * 13 * 2
        assert {r.estimator for r in rows} == {"ls", "sbme", "ebme:b=-1", "bock"}
        assert {r.sweep_key for r in rows} == {"max-eig", "min-eig"}
        assert min(r.snr_db for r in rows) == -10.0
        assert max(r.snr_db for r in rows) == 20.0

    def test_condition_sweep_cases(self):
        cfg = ExperimentConfig(
            scenario="fig6-cond",
            estimators=[EstimatorSpec("bock")],
            snr_grid_db=[0.0],
            directions=["min-eigenvector"],
            trials=16,
            seed=0,
        )
        rows = run_experiment(cfg)
        assert [r.sweep_key for r in rows] == sorted(
            f"cond={c:g}" for c in (1, 3.16, 10, 31.6, 100, 316, 1000)
        )

    def test_inline_model(self):
        cfg = ExperimentConfig(
            scenario=("inline", "tiny", np.eye(5), np.eye(5)),
            estimators=[EstimatorSpec("ls")],
            snr_grid_db=[0.0],
            directions=[("vector", [1, 0, 0, 0, 0], None)],
            trials=32,
            seed=0,
        )
        rows = run_experiment(cfg)
        assert rows[0].scenario == "tiny"
        assert rows[0].sweep_key == "vec-000"

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf"), 4000.0])
    def test_bad_snr_rejected(self, snr):
        cfg = self._tiny_config()
        cfg.snr_grid_db = [0.0, snr]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="snr_grid_db"):
                cfg.validate()

    @pytest.mark.parametrize("workers", [0, -4])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(self._tiny_config(), workers=workers)
        m = fig4_model()
        with pytest.raises(ConfigError, match="workers"):
            monte_carlo_mse(m, np.ones(15), EstimatorSpec("ls"), 100, seed=0, workers=workers)

    def test_caller_config_unchanged(self):
        cfg = ExperimentConfig(scenario="fig4-snr", trials=8, seed=0)
        assert len(run_experiment(cfg)) == 4 * 13 * 2
        assert cfg == ExperimentConfig(scenario="fig4-snr", trials=8, seed=0)
        assert cfg.estimators == [] and cfg.snr_grid_db == [] and cfg.directions == []

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(scenario="fig4-snr", trials=0, seed=0))
        # Preset scenarios refill empty fields; inline models must be complete.
        cfg = ExperimentConfig(
            scenario=("inline", "t", np.eye(2), np.eye(2)),
            estimators=[EstimatorSpec("ls")],
            snr_grid_db=[],
            directions=["max-eigenvector"],
            trials=4,
            seed=0,
        )
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestResultsCsv:
    def _rows(self):
        return [
            MseRow("s", "sbme", 5.0, "max-eig", 1.25, 0.01, 10, 0),
            MseRow("s", "ls", -5.0, "max-eig", 5.8, 0.05, 10, 0),
            MseRow("s", "ls", 5.0, "max-eig", 5.8, 0.04, 10, 0),
        ]

    def test_header_and_order(self):
        text = format_results_csv(self._rows())
        lines = text.strip().split("\n")
        assert lines[0] == "scenario,estimator,snr_db,sweep_key,mse_mean,mse_stderr,trials,seed"
        assert lines[1].startswith("s,ls,-5.0,")
        assert lines[2].startswith("s,ls,5.0,")
        assert lines[3].startswith("s,sbme,5.0,")

    def test_run_fields_not_in_csv_or_equality(self):
        bare = MseRow("s", "sbme", 5.0, "max-eig", 1.25, 0.01, 10, 0)
        full = MseRow("s", "sbme", 5.0, "max-eig", 1.25, 0.01, 10, 0,
                      gain_mean=np.full(3, 0.5), eps0=2.0)
        assert bare == full and hash(bare) == hash(full)
        assert format_results_csv([bare]) == format_results_csv([full])

    def test_floats_round_trip(self):
        text = format_results_csv(self._rows())
        cells = text.strip().split("\n")[1].split(",")
        assert float(cells[4]) == 5.8 and float(cells[5]) == 0.05

    def test_atomic_write(self, tmp_path):
        out = tmp_path / "r.csv"
        write_results_csv(out, self._rows())
        assert out.read_text().startswith("scenario,")
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_write_is_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(a, self._rows())
        write_results_csv(b, list(reversed(self._rows())))
        assert a.read_bytes() == b.read_bytes()


class TestConfigLoading:
    def test_minimal_preset_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"scenario": "fig4-snr", "trials": 5, "seed": 7}')
        cfg = load_config(p)
        assert cfg.scenario == "fig4-snr" and cfg.trials == 5 and cfg.seed == 7
        assert cfg.estimators == []  # filled from the preset at run time

    def test_full_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            """{
            "scenario": "fig5b-range",
            "estimators": ["ls", "ebme:b=-1", "shrinkc:c=2.5"],
            "snr_grid_db": [-5, 0, 5],
            "directions": ["max-eigenvector", {"random-sphere": 4},
                           {"vector": [1,0,0,0,0,0,0,0,0,0], "id": "e1"}],
            "trials": 100,
            "seed": 3
            }"""
        )
        cfg = load_config(p)
        assert [s.label for s in cfg.estimators] == ["ls", "ebme:b=-1", "shrinkc:c=2.5"]
        assert cfg.snr_grid_db == [-5.0, 0.0, 5.0]
        assert cfg.directions[1] == ("random-sphere", 4)

    def test_offcenter_file_relative_to_config(self, tmp_path):
        (tmp_path / "x0.csv").write_text("1.0\n0.0\n")
        p = tmp_path / "cfg.json"
        p.write_text(
            '{"scenario": {"H": {"identity": 2}, "Cw": {"identity": 2}},'
            ' "estimators": ["offcenter:file=x0.csv"],'
            ' "snr_grid_db": [0], "directions": [{"vector": [1,0]}],'
            ' "trials": 4, "seed": 0}'
        )
        cfg = load_config(p)
        np.testing.assert_array_equal(cfg.estimators[0].x0, [1.0, 0.0])
        rows = run_experiment(cfg)
        assert rows[0].estimator == "offcenter:file=x0.csv"

    def test_inline_model_forms(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            '{"scenario": {"name": "demo", "H": [[1,0],[0,1],[1,1]],'
            ' "Cw": {"diag": [1,1,2]}},'
            ' "estimators": ["ls"], "snr_grid_db": [0],'
            ' "directions": [{"vector": [1,1]}], "trials": 4, "seed": 0}'
        )
        rows = run_experiment(load_config(p))
        assert rows[0].scenario == "demo"

    def test_errors(self, tmp_path):
        cases = [
            ("not json", "{'x':}"),
            ("unknown field", '{"scenario": "fig4-snr", "trialz": 1}'),
            ("missing scenario", '{"trials": 2}'),
            ("bad estimator entry", '{"scenario": "fig4-snr", "estimators": [7]}'),
            ("bad snr entry", '{"scenario": "fig4-snr", "snr_grid_db": ["a"]}'),
            ("bad direction", '{"scenario": "fig4-snr", "directions": ["up"]}'),
            ("bool trials", '{"scenario": "fig4-snr", "trials": true}'),
        ]
        for name, body in cases:
            p = tmp_path / "bad.json"
            p.write_text(body)
            with pytest.raises(ConfigError):
                load_config(p)

    def test_unknown_estimator_tag(self, tmp_path):
        from blindmm.estimators import UnknownEstimatorError

        p = tmp_path / "cfg.json"
        p.write_text('{"scenario": "fig4-snr", "estimators": ["james"]}')
        with pytest.raises(UnknownEstimatorError):
            load_config(p)


class TestSteinIdentity:
    def test_linear_case(self):
        res = stein_lemma_check([1.0, -2.0], [1.0, 1.0], 0.5, 10**4, seed=1, g="linear")
        assert res.within(4.0)
        np.testing.assert_allclose(res.lhs, [1.0, 1.0])

    def test_symmetric_zero_mean(self):
        res = stein_lemma_check([0.0, 0.0], [1.0, 1.0], 1.0, 10**4, seed=2)
        assert res.within(4.0)

    def test_shrink_case_small(self):
        res = stein_lemma_check([1.0, 2.0], [1.0, 4.0], 1.0, 2 * 10**4, seed=3)
        assert res.within(4.0)
        assert np.all(res.stderr > 0)

    def test_deterministic(self):
        a = stein_lemma_check([1.0], [2.0], 1.0, 10**4, seed=5)
        b = stein_lemma_check([1.0], [2.0], 1.0, 10**4, seed=5)
        assert np.array_equal(a.discrepancy, b.discrepancy)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateGError):
            stein_lemma_check([0.0, 0.0], [1.0, 1.0], 0.0, 10**4, seed=0)

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            stein_lemma_check([1.0], [1.0], 1.0, 100, seed=0)

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            stein_lemma_check([1.0, 2.0], [1.0], 1.0, 10**4, seed=0)
        with pytest.raises(ConfigError):
            stein_lemma_check([1.0], [-1.0], 1.0, 10**4, seed=0)
        for c in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="c must be finite"):
                stein_lemma_check([1.0], [1.0], c, 10**4, seed=0)

    def test_sums_match_one_block(self):
        # Chunked column sums against one pass over the same normals.
        v, sigma, c = np.array([1.0, 2.0]), np.array([1.0, 4.0]), 1.0
        res = stein_lemma_check(v, sigma, c, 10**4, seed=8)
        vh = v + np.concatenate([
            normal_block(8, np.arange(lo, hi), 2) for lo, hi in ((0, 4096), (4096, 8192), (8192, 10**4))
        ])
        denom = (c + (vh * vh) @ (1.0 / sigma))[:, None]
        deriv = 1.0 / denom - 2.0 * vh * vh / (sigma * denom * denom)
        np.testing.assert_allclose(res.lhs, deriv.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(res.rhs, -(vh / denom * (v - vh)).mean(axis=0), rtol=1e-12)


class TestPairedDominanceChecks:
    """Paired comparisons on common draws: clamped vs unclamped spectral
    rule, and positive-part vs balanced in the white-noise case."""

    def _paired_diff(self, model, x, trials, seed, pair):
        z = normal_block(seed, np.arange(trials), model.n)
        y = z @ model.cw_sqrt + model.H @ x
        xls = y @ model.ls_op.T
        se = []
        for fn in pair:
            xhat = fn(xls)
            delta = xhat - x
            se.append(np.sum(delta * delta, axis=-1))
        d = se[0] - se[1]
        return float(np.mean(d)), float(np.std(d, ddof=1) / np.sqrt(trials))

    def test_clamp_never_hurts(self):
        for model, seed in ((fig4_model(), 11), (fig5b_model(), 12), (fig6_model(100.0), 13)):
            for snr_db in (-5.0, 0.0, 5.0):
                x = scale_to_snr(model, np.ones(model.m), snr_db)
                mean_d, se_d = self._paired_diff(
                    model,
                    x,
                    20000,
                    seed,
                    (
                        lambda xls: ebme(model, xls, b=-1.0).xhat,
                        lambda xls: ebme(model, xls, b=-1.0, positive_part=False).xhat,
                    ),
                )
                assert mean_d <= 3.0 * se_d  # clamped MSE <= unclamped

    def test_positive_part_beats_balanced_iid(self):
        model = iid_model(10)
        for snr_db in (-10.0, -5.0, 0.0, 5.0, 10.0):
            x = scale_to_snr(model, np.arange(1.0, 11.0), snr_db)
            mean_d, se_d = self._paired_diff(
                model,
                x,
                20000,
                21,
                (
                    lambda xls: positive_part_bme(model, xls).xhat,
                    lambda xls: balanced_bme(model, xls).xhat,
                ),
            )
            assert mean_d <= 3.0 * se_d


class TestDctDemo:
    def test_report_gains_bounded_and_monotone(self):
        from blindmm.scenarios import run_dct_demo

        report = run_dct_demo(seed=3, draws=64)
        assert 0.0 < report.sbme_gain_mean < 1.0
        assert 0.0 < report.ebme_gain_min <= report.ebme_gain_max < 1.0
        # Components are ordered by increasing noise variance; the adaptive
        # gain must not increase along that ordering.
        assert np.all(np.diff(report.component_noise_var) >= 0)
        assert np.all(np.diff(report.ebme_gain_mean) <= 1e-12)

    def test_report_deterministic(self):
        from blindmm.scenarios import run_dct_demo

        a = run_dct_demo(seed=4, draws=16)
        b = run_dct_demo(seed=4, draws=16)
        assert a.mse == b.mse
        assert np.array_equal(a.ebme_gain_mean, b.ebme_gain_mean)


class TestBockPathology:
    def test_gain_collapses_when_ill_conditioned(self):
        spec = EstimatorSpec("bock")

        def mean_abs_one_minus_gain(cond, seed):
            model = fig6_model(cond)
            (_, d), = resolve_directions(model, ["min-eigenvector"], 0)
            x = scale_to_snr(model, d, 0.0)
            z = normal_block(seed, np.arange(4000), model.n)
            y = z @ model.cw_sqrt + model.H @ x
            xls = y @ model.ls_op.T
            gains = estimate_from_ls(model, spec, xls).shrinkage[:, 0]
            return float(np.mean(np.abs(1.0 - gains)))

        at_1 = mean_abs_one_minus_gain(1.0, 31)
        at_1000 = mean_abs_one_minus_gain(1000.0, 32)
        assert at_1000 < 0.1 * at_1

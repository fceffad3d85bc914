"""Monte Carlo engine: reproducibility, calibration, the experiment runner,
config parsing, CSV output, and the integration-by-parts identity check."""

import json
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from blindmm import scenarios, sim
from blindmm.estimators import (
    RULES,
    EstimatorSpec,
    estimate_from_ls,
    parse_estimator_spec,
)
from blindmm.linalg import write_matrix_csv
from blindmm.model import build_model, scale_to_snr
from blindmm.rng import derive_seed, normal_block
from blindmm.scenarios import (
    fig4_model,
    fig5a_model,
    fig5b_model,
    fig6_model,
    SCENARIO_NAMES,
    fig7_model,
    preset,
)
from blindmm.sim import (
    ConfigError,
    DegenerateGError,
    ExperimentConfig,
    MseRow,
    format_results_csv,
    load_config,
    resolve_directions,
    run_experiment,
    stein_lemma_check,
    write_results_csv,
)
from engine_points import point_squared_errors


def iid_model(m):
    return build_model(np.eye(m), np.eye(m))


def chunked_xls(model, x, seed, trials):
    """The least-squares estimates the engine's noise blocks give at ``x``."""
    return np.concatenate([
        (sim.normal_block(seed, np.arange(lo, min(lo + sim.CHUNK_TRIALS, trials)), model.n)
         @ model.cw_sqrt + model.H @ x) @ model.ls_op.T
        for lo in range(0, trials, sim.CHUNK_TRIALS)
    ])


def ls_mse(model, x, trials, seed):
    """Mean and standard error of least squares' squared error at ``x``."""
    point = point_squared_errors(model, x, [EstimatorSpec("ls")], trials, seed)
    return sim._mean_stderr(*sim._moments(point.squared_errors["ls"]))


class TestMonteCarloMse:
    def test_ls_matches_eps0(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 5.0)
        mean, stderr = ls_mse(m, x, 20000, seed=3)
        assert abs(mean - m.eps0) <= 5.0 * stderr

    def test_two_trials_reproducible(self):
        m = iid_model(4)
        x = np.ones(4)
        a = ls_mse(m, x, 2, seed=9)
        b = ls_mse(m, x, 2, seed=9)
        assert a == b

    def test_zero_noise_limit(self):
        m = build_model(np.eye(4), 1e-20 * np.eye(4))
        mean, _ = ls_mse(m, np.ones(4), 100, seed=1)
        assert mean < 1e-15

    def test_common_random_numbers_across_estimators(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 0.0)
        solo = point_squared_errors(m, x, [EstimatorSpec("ls")], 500, seed=8)
        joint = point_squared_errors(
            m, x, [EstimatorSpec("ls"), EstimatorSpec("sbme")], 500, seed=8
        )
        assert np.array_equal(solo.squared_errors["ls"], joint.squared_errors["ls"])
        assert np.array_equal(solo.gain_sums["ls"], joint.gain_sums["ls"])


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
        a = resolve_directions(m, [{"random-sphere": 5}], 42)
        b = resolve_directions(m, [{"random-sphere": 5}], 42)
        c = resolve_directions(m, [{"random-sphere": 5}], 43)
        for (ka, va), (kb, vb) in zip(a, b):
            assert ka == kb and np.array_equal(va, vb)
            assert np.linalg.norm(va) == pytest.approx(1.0, rel=1e-12)
        assert not np.array_equal(a[0][1], c[0][1])

    def test_prefix_reuse(self):
        # The first k random directions are a prefix of the first k+j.
        m = fig4_model()
        small = resolve_directions(m, [{"random-sphere": 3}], 7)
        big = resolve_directions(m, [{"random-sphere": 6}], 7)
        for (ks, vs), (kb, vb) in zip(small, big):
            assert ks == kb and np.array_equal(vs, vb)

    def test_explicit_vector(self):
        m = iid_model(3)
        (key, v), = resolve_directions(m, [{"vector": [0.0, 2.0, 0.0], "id": "axis-y"}], 0)
        assert key == "axis-y"
        np.testing.assert_array_equal(v, [0.0, 2.0, 0.0])

    def test_unknown_policy_rejected(self):
        # Only the JSON forms are policies: the old tuple forms are not.
        for policy in ("sideways", ("random-sphere", 2), ("vector", [1.0, 0.0], "e"),
                       {"random-sphere": 2, "id": "r"}):
            with pytest.raises(ConfigError, match="directions: unknown policy"):
                resolve_directions(iid_model(2), [policy], 0)

    @pytest.mark.parametrize("key", [7, [1], "", "a,b", 'a"b', "a\nb", "a\rb"])
    def test_id_must_be_one_csv_field(self, key):
        # A non-string id used to crash the row sort; a comma split the row.
        with pytest.raises(ConfigError, match="directions.id"):
            resolve_directions(iid_model(2), [{"vector": [1.0, 0.0], "id": key}], 0)

    @pytest.mark.parametrize("vector, message", [
        ([np.nan] + [1.0] + [0.0] * 8, "entries must be finite"),
        ([np.inf] + [0.0] * 9, "entries must be finite"),
        ([-np.inf] + [0.0] * 9, "entries must be finite"),
        ([], r"expected a 1-D array, got shape \(0,\)"),
    ], ids=["nan", "inf", "minus-inf", "empty"])
    def test_non_finite_or_empty_vector_is_a_config_error(self, vector, message):
        cfg = ExperimentConfig(scenario="fig5b-range", directions=[{"vector": vector}], trials=8)
        with pytest.raises(ConfigError, match=f"^directions.vector: {message}$"):
            run_experiment(cfg)

    @pytest.mark.parametrize("policies", [
        ["max-eigenvector", {"vector": [0.0, 1.0], "id": "max-eig"}],
        [{"random-sphere": 2}, {"vector": [0.0, 1.0], "id": "rand-001"}],
        [{"vector": [1.0, 0.0], "id": "e"}, {"vector": [0.0, 1.0], "id": "e"}],
        [{"vector": [1.0, 0.0], "id": None}, {"vector": [0.0, 1.0], "id": "vec-000"}],
    ])
    def test_repeated_sweep_key_rejected(self, policies):
        with pytest.raises(ConfigError, match="distinct sweep keys"):
            resolve_directions(iid_model(2), policies, 0)


@pytest.mark.parametrize("axis", [0, 1])
def test_offcenter_dominates_ls_at_far_center(axis):
    # Far from its center (x0 = 10 e1, x at -10 dB), shrinking about x0 still
    # stays within LS's risk; shrinking xls - x0 by a gain taken from
    # ||xls||^2 reached 4.8 eps0 (axis e1) and 5.5 eps0 (axis e2) here.
    m = fig5b_model()
    x0 = 10.0 * np.eye(10)[0]
    x = scale_to_snr(m, np.eye(10)[axis], -10.0)
    specs = [EstimatorSpec("ls"), EstimatorSpec("offcenter", x0=x0)]
    se = point_squared_errors(m, x, specs, 8192, seed=1).squared_errors
    diff = se["offcenter"] - se["ls"]
    assert diff.mean() <= 4.0 * diff.std(ddof=1) / np.sqrt(diff.size)
    assert se["offcenter"].mean() <= m.eps0 + 4.0 * diff.std(ddof=1) / np.sqrt(diff.size)


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

    @staticmethod
    def _reverse_chunk_order(monkeypatch):
        """Evaluate a run's chunks last to first, as another schedule would;
        the list still comes back in chunk order."""
        real = sim._map_chunks

        def reversed_map(fn, seed, trials, width):
            blocks = real(lambda z: z.copy(), seed, trials, width)  # z is a reused slot
            return [fn(z) for z in blocks[::-1]][::-1]

        monkeypatch.setattr(sim, "_map_chunks", reversed_map)

    def test_worker_invariance(self, monkeypatch):
        # Chunks share only the kernel's work arrays, so rows do not depend on
        # the order their chunks are evaluated in (three chunks, a short last,
        # which the reversed order evaluates first).
        rows = run_experiment(self._tiny_config(trials=9000))
        self._reverse_chunk_order(monkeypatch)
        assert run_experiment(self._tiny_config(trials=9000)) == rows

    def test_gain_profiles_worker_invariant(self, monkeypatch):
        cfg = self._tiny_config(trials=9000)
        cfg.estimators = cfg.estimators + [EstimatorSpec("ebme", b=-1.0)]
        rows = run_experiment(cfg)
        self._reverse_chunk_order(monkeypatch)
        for a, b in zip(rows, run_experiment(cfg)):
            assert a.gain_mean.shape == (15,)
            assert np.array_equal(a.gain_mean, b.gain_mean)
            assert a.eps0 == b.eps0 == fig4_model().eps0

    def test_gain_profiles_are_trial_means(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 0.0)
        specs = [EstimatorSpec("ls"), EstimatorSpec("sbme"), EstimatorSpec("ebme", b=-1.0)]
        point = point_squared_errors(m, x, specs, 5000, seed=6)
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

    @pytest.mark.parametrize("directions, suffixes", [
        (["min-eigenvector"], [""]),
        (["max-eigenvector", "min-eigenvector"], [":max-eig", ":min-eig"]),
    ], ids=["one-direction", "two-directions"])
    def test_condition_sweep_cases(self, directions, suffixes):
        # With more than one direction, a case's key names the direction too.
        cfg = ExperimentConfig(
            scenario="fig6-cond",
            estimators=[EstimatorSpec("bock")],
            snr_grid_db=[0.0],
            directions=directions,
            trials=16,
            seed=0,
        )
        rows = run_experiment(cfg)
        assert [r.sweep_key for r in rows] == sorted(
            f"cond={c:g}{suffix}" for c in (1, 3.16, 10, 31.6, 100, 316, 1000)
            for suffix in suffixes
        )

    def test_inline_model(self):
        cfg = ExperimentConfig(
            scenario={"name": "tiny", "H": {"identity": 5}, "Cw": {"identity": 5}},
            estimators=[EstimatorSpec("ls")],
            snr_grid_db=[0.0],
            directions=[{"vector": [1, 0, 0, 0, 0]}],
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

    @pytest.mark.parametrize("grid", [[0.0, 0, 5.0], [5.0, -0.0, 0.0], [1e-3, 2.5, 0.001]])
    def test_repeated_snr_rejected(self, grid):
        # Numerically equal entries would write identical rows twice.
        cfg = self._tiny_config()
        cfg.snr_grid_db = grid
        with pytest.raises(ConfigError, match="snr_grid_db: expected distinct values"):
            cfg.validate()
        with pytest.raises(ConfigError, match="snr_grid_db: expected distinct values"):
            run_experiment(cfg)

    def test_overflowing_snr_rejected_before_any_noise(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(sim, "normal_block", lambda *args: drawn.append(args))
        cfg = self._tiny_config()
        cfg.snr_grid_db = [0.0, 3080.0]  # 10**308 * tr(Cw) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="snr_grid_db"):
                run_experiment(cfg)
        assert drawn == []

    @pytest.mark.parametrize("directions, tags", [
        (["max-eigenvector"], ("ls", "bock", "tik1", "ebme:b=-1")),
        (["min-eigenvector"], ("ls", "bock", "tik1", "ebme:b=-1")),
        (["max-eigenvector", "min-eigenvector"], ("ls", "bock")),
    ], ids=["max-eigenvector", "min-eigenvector", "second-group-only"])
    def test_overflowing_weighted_statistic_rejected_before_any_noise(self, monkeypatch,
                                                                      directions, tags):
        # x is finite at 3070 dB, but a weighted statistic is not: bock's
        # sig . u**2 along the clean axis, tik1's sig_max ||u||**2 along both.
        # With ls and bock only the second group overflows, and every group
        # is bounded before the first one draws its noise.
        drawn = []
        monkeypatch.setattr(sim, "normal_block", lambda *args: drawn.append(args))
        monkeypatch.setattr(sim, "normal_fill", lambda *args: drawn.append(args))
        cfg = ExperimentConfig(
            scenario={"name": "clean-axis", "H": {"identity": 3}, "Cw": {"diag": [1e-3, 1.0, 1.0]}},
            estimators=[parse_estimator_spec(t) for t in tags],
            snr_grid_db=[0.0, 3070.0], directions=directions, trials=100, seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="snr_grid_db"):
                run_experiment(cfg)
        assert drawn == []

    def test_caller_config_unchanged(self):
        cfg = ExperimentConfig(scenario="fig4-snr", trials=8, seed=0)
        assert len(run_experiment(cfg)) == 4 * 13 * 2
        assert cfg == ExperimentConfig(scenario="fig4-snr", trials=8, seed=0)
        assert cfg.estimators == [] and cfg.snr_grid_db == [] and cfg.directions == []

    def test_trials_fall_back_to_preset_then_default(self):
        rows = run_experiment(ExperimentConfig(scenario="fig2-dct"))
        assert {r.trials for r in rows} == {preset("fig2-dct").trials} == {1000}
        cfg = ExperimentConfig(scenario={"H": {"identity": 2}, "Cw": {"identity": 2}},
                               estimators=[EstimatorSpec("ls")], snr_grid_db=[0.0],
                               directions=["max-eigenvector"])
        assert [r.trials for r in run_experiment(cfg)] == [scenarios.DEFAULT_TRIALS]

    def test_unfilled_config_fails_validation(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(scenario="fig4-snr", estimators=[EstimatorSpec("ls")],
                             snr_grid_db=[0.0], directions=["max-eigenvector"]).validate()

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(scenario="fig4-snr", trials=0, seed=0))
        # Preset scenarios refill empty fields; inline models must be complete.
        cfg = ExperimentConfig(
            scenario={"name": "t", "H": {"identity": 2}, "Cw": {"identity": 2}},
            estimators=[EstimatorSpec("ls")],
            snr_grid_db=[],
            directions=["max-eigenvector"],
            trials=4,
            seed=0,
        )
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestEigenbasisEngine:
    """The engine's per-trial squared errors and gain sums against the public
    rules applied to ``xls`` rebuilt from the same noise blocks."""

    TAGS = (
        "ls", "sbme", "bbm", "pbm", "bock", "tik1", "tik2",
        "ebme:b=-1", "ebme:b=0", "ebme:b=2", "shrinkc:c=0", "shrinkc:c=1",
    )
    TRIALS = 5000  # two chunks

    @staticmethod
    def _dense_model(rng, m, n):
        h = rng.standard_normal((n, m))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cw = (q * np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))) @ q.T
        return build_model(h, (cw + cw.T) / 2.0)

    def _models(self):
        rng = np.random.default_rng(61)
        dense = [self._dense_model(rng, m, n) for m, n in ((4, 6), (7, 9), (12, 15))]
        return [fig4_model(), fig5b_model(), fig7_model()] + dense

    def _specs(self, model, tmp_path):
        path = tmp_path / f"x0-{model.m}.csv"
        write_matrix_csv(path, np.linspace(-1.0, 2.0, model.m))
        tags = self.TAGS + (f"offcenter:file={path}",)
        return [parse_estimator_spec(tag) for tag in tags]

    def _check(self, model, x, specs, seed):
        point = point_squared_errors(model, x, specs, self.TRIALS, seed)
        xls = chunked_xls(model, x, seed, self.TRIALS)
        results = {}
        for spec in specs:
            res = results[spec.kind] = estimate_from_ls(model, spec, xls)
            se = np.sum((res.xhat - x) ** 2, axis=1)
            np.testing.assert_allclose(
                point.squared_errors[spec.label], se, rtol=1e-9, err_msg=spec.label
            )
            np.testing.assert_allclose(
                point.gain_sums[spec.label], res.shrinkage.sum(axis=0), rtol=1e-9,
                err_msg=spec.label,
            )
        return results

    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 40.0])
    def test_matches_public_rules(self, tmp_path, snr_db):
        rng = np.random.default_rng(62)
        clamped = 0
        for idx, model in enumerate(self._models()):
            x = scale_to_snr(model, rng.standard_normal(model.m), snr_db)
            results = self._check(model, x, self._specs(model, tmp_path), seed=100 + idx)
            clamped += int(np.sum(results["pbm"].shrinkage[:, 0] == 0.0))
        if snr_db == -10.0:
            assert clamped > 0  # the pbm clamp is exercised

    def test_degenerate_inputs(self, tmp_path, monkeypatch):
        # Zero noise rows at x = 0 give xls = 0, where bbm and bock are
        # undefined and return zero by convention.
        real_block, real_fill = sim.normal_block, sim.normal_fill

        def zero_rows(z, trial_ids):
            z[np.asarray(trial_ids) % 7 == 0] = 0.0
            return z

        def with_zero_rows(seed, trial_ids, count, out=None):
            return zero_rows(real_block(seed, trial_ids, count, out), trial_ids)

        def fill_with_zero_rows(seed, first, out):
            fill = real_fill(seed, first, out)
            return lambda: zero_rows(fill(), np.arange(first, first + len(out)))

        # normal_block draws a pass's first chunk, normal_fill keys the others.
        monkeypatch.setattr(sim, "normal_block", with_zero_rows)
        monkeypatch.setattr(sim, "normal_fill", fill_with_zero_rows)
        for idx, model in enumerate(self._models()):
            results = self._check(model, np.zeros(model.m), self._specs(model, tmp_path), idx)
            assert results["bbm"].degenerate and results["bock"].degenerate
            assert np.all(results["pbm"].shrinkage[::7] == 0.0)


class TestSharedNoise:
    """Engine version 3: the SNR points of one direction share each chunk's
    noise block, and chunks are folded into per-(point, rule) moments."""

    SPECS = [EstimatorSpec("ls"), EstimatorSpec("sbme"), EstimatorSpec("ebme", b=-1.0),
             EstimatorSpec("bock")]
    SNRS = [-10.0 + 2.5 * i for i in range(13)]

    def _config(self, trials, snrs=None, seed=3):
        return ExperimentConfig(
            scenario="fig5b-range", estimators=self.SPECS, snr_grid_db=snrs or self.SNRS,
            directions=["max-eigenvector", {"random-sphere": 1}], trials=trials, seed=seed,
        )

    @pytest.mark.parametrize("trials", [2, 4096, 4097, 9000])
    def test_moment_merge_matches_concatenated(self, trials):
        m = fig5b_model()
        x = scale_to_snr(m, np.ones(m.m), 0.0)
        point = point_squared_errors(m, x, self.SPECS, trials, seed=5)
        for se in point.squared_errors.values():
            chunks = [se[lo:lo + sim.CHUNK_TRIALS] for lo in range(0, trials, sim.CHUNK_TRIALS)]
            folded = sim._moments(chunks[0])
            for chunk in chunks[1:]:
                folded = sim._merge(folded, sim._moments(chunk))
            mean, stderr = sim._mean_stderr(*folded)
            assert folded[0] == trials
            np.testing.assert_allclose(mean, np.mean(se), rtol=1e-12)
            np.testing.assert_allclose(
                stderr, np.std(se, ddof=1) / np.sqrt(trials), rtol=1e-12
            )

    @pytest.mark.parametrize("trials", [2, 4097])
    def test_rows_match_oracle_under_group_key(self, trials):
        # Every SNR point of a direction draws the stream its SNR index 0
        # had alone, so each row matches the per-trial oracle under that key.
        cfg = self._config(trials, snrs=[-10.0, 2.5, 20.0])
        rows = run_experiment(cfg)
        m = fig5b_model()
        directions = resolve_directions(m, cfg.directions, cfg.seed)
        for dir_idx, (key, direction) in enumerate(directions):
            point_seed = derive_seed(cfg.seed, sim._TAG_POINT, 0, dir_idx, 0)
            for snr_db in cfg.snr_grid_db:
                x = scale_to_snr(m, direction, snr_db)
                point = point_squared_errors(m, x, self.SPECS, trials, point_seed)
                for spec in self.SPECS:
                    (row,) = [r for r in rows if (r.sweep_key, r.snr_db, r.estimator)
                              == (key, snr_db, spec.label)]
                    se = point.squared_errors[spec.label]
                    np.testing.assert_allclose(
                        (row.mse_mean, row.mse_stderr),
                        (np.mean(se), np.std(se, ddof=1) / np.sqrt(trials)), rtol=1e-12,
                    )
                    np.testing.assert_allclose(
                        row.gain_mean, point.gain_sums[spec.label] / trials, rtol=1e-12
                    )

    def test_retained_memory_bounded(self):
        # Keeping every point's per-trial errors to the end would hold
        # 13 points x 4 rules x 65536 trials x 8 bytes = 27 MB.
        cfg = self._config(65536)
        cfg.directions = [{"random-sphere": 1}]
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9e6


class TestScalarStatistics:
    """Engine version 4: scalar rules are evaluated from per-chunk
    statistics, so an SNR point costs O(rows), not O(m * rows)."""

    @pytest.mark.parametrize("groups", [1, 4])
    def test_scalar_rules_form_no_per_point_array(self, groups):
        # One chunk of each 13-SNR group at m = n = 100: the traced peak
        # holds the noise block, which then holds v0's squares, and v0 (two
        # m x rows arrays) plus small change. Forming v or g * v - u for a
        # point would add at least one more; the engine before version 4
        # peaked at about five, and before version 7 at three. Each group's
        # work arrays go with its pass, so more groups do not add to it.
        m, rows = 100, sim.CHUNK_TRIALS
        specs = [parse_estimator_spec(tag)
                 for tag in ("ls", "sbme", "bbm", "pbm", "bock", "tik2", "shrinkc:c=1")]
        cfg = ExperimentConfig(
            scenario={"name": "wide", "H": {"identity": m},
                      "Cw": {"diag": np.linspace(1.0, 0.01, m).tolist()}},
            estimators=specs, snr_grid_db=TestSharedNoise.SNRS,
            directions=[{"random-sphere": groups}], trials=rows, seed=3,
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * m * rows * 8


class TestAffineEbme:
    """Engine version 5: ``ebme`` in closed form at a point where its cutoff
    leaves every trial of a chunk whole, and its reference gain on every
    trial of the chunk otherwise."""

    TRIALS = 5000  # two chunks

    @staticmethod
    def _cut_fractions(model, spec, xls):
        """Per engine chunk, the share of trials on which ebme's cutoff engages."""
        plan = RULES["ebme"].plan(model, spec)
        v = model.Qeig.basis.T @ xls.T
        cut = ~(plan.weights @ (v * v) > plan.affine.t0)
        return [float(np.mean(cut[lo:lo + sim.CHUNK_TRIALS]))
                for lo in range(0, cut.size, sim.CHUNK_TRIALS)]

    def _check(self, model, specs, snrs, seed, plans=None):
        """Check the engine's errors and gain sums at each point against the
        public rules; return, per spec, how many chunk-wide reference gain
        calls the kernel made, and each point's ``xls``."""
        plans = plans or [RULES[spec.kind].plan(model, spec) for spec in specs]
        calls = [0] * len(specs)

        def counted(i, plan):
            def gain(s, out=None, **denom):
                calls[i] += np.shape(s)[-1] > len(snrs)  # not the noise-free bound
                return plan.gain(s, out, **denom)
            return plan._replace(gain=gain)

        xs = [scale_to_snr(model, np.ones(model.m), snr) for snr in snrs]
        plans = [counted(i, p) for i, p in enumerate(plans)]
        kernel = sim._chunk_kernel(model, xs, plans, lambda se: se)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunks = sim._map_chunks(kernel, seed, self.TRIALS, model.n)
        xls_all = [chunked_xls(model, x, seed, self.TRIALS) for x in xs]
        for k, (x, xls) in enumerate(zip(xs, xls_all)):
            for i, spec in enumerate(specs):
                se = np.concatenate([chunk[k * len(specs) + i][0] for chunk in chunks])
                gain_sum = sum(chunk[k * len(specs) + i][1] for chunk in chunks)
                res = estimate_from_ls(model, spec, xls)
                np.testing.assert_allclose(se, np.sum((res.xhat - x) ** 2, axis=1), rtol=1e-9)
                np.testing.assert_allclose(gain_sum, res.shrinkage.sum(axis=0), rtol=1e-9)
        return calls, xls_all

    @pytest.mark.parametrize("model, b, snr_db, low, high", [
        (fig5b_model(), -1.0, 0.0, 0.0, 0.0),    # no trial cut: closed form only
        (fig5a_model(), 1.0, -10.0, 1.0, 1.0),   # every trial cut: reference only
        (fig5a_model(), 1.0, 0.0, 0.3, 0.6),     # some cut: reference on the whole ones too
    ], ids=["fig5b-none-cut", "fig5a-all-cut", "fig5a-some-cut"])
    def test_both_branches_match_public_ebme(self, model, b, snr_db, low, high):
        spec = EstimatorSpec("ebme", b=b)
        [calls], [xls] = self._check(model, [spec], [snr_db], seed=9)
        fractions = self._cut_fractions(model, spec, xls)
        assert len(fractions) == 2 and all(low <= f <= high for f in fractions)
        # The reference gain runs on exactly the chunks that cut a trial.
        assert calls == sum(f > 0 for f in fractions)

    @pytest.mark.parametrize("last_snr", [0.0, 20.0], ids=["last-some-cut", "last-none-cut"])
    @pytest.mark.parametrize("tags", [("tik1", "ebme:b=1"), ("ebme:b=1", "tik1")])
    def test_last_point_after_v_is_formed_in_place(self, tags, last_snr):
        # A per-component rule forms v = v0 + u at each point, the last one
        # too; what ebme reads there, before or after it, on either branch,
        # must match the public rule.
        model = fig5a_model()
        specs = [parse_estimator_spec(tag) for tag in tags]
        i = tags.index("ebme:b=1")
        calls, xls_all = self._check(model, specs, [-10.0, 5.0, last_snr], seed=4)
        fractions = [self._cut_fractions(model, specs[i], xls) for xls in xls_all]
        if last_snr == 0.0:
            assert all(0.3 <= f <= 0.6 for f in fractions[-1])
        else:
            assert fractions[-1] == [0.0, 0.0]
        assert calls[i] == sum(f > 0 for point in fractions for f in point)

    def test_overflowing_closed_form_falls_back(self):
        # An affine form whose arithmetic overflows sends every trial to the
        # reference gain: the errors match the public rule, with no NaN and
        # no warning.
        model = fig5b_model()
        spec = EstimatorSpec("ebme", b=-1.0)
        plan = RULES["ebme"].plan(model, spec)
        plan = plan._replace(affine=plan.affine._replace(r1=1e308))
        [calls], _ = self._check(model, [spec], [0.0], seed=5, plans=[plan])
        assert calls == 2


class TestPointInvariantWork:
    """Engine version 6: work that does not depend on the SNR point runs once
    per chunk (``ls``'s squared errors) or once per group (the noise-free
    terms)."""

    SNRS = [-10.0 + 2.5 * i for i in range(13)]

    def _config(self, tags, directions=("max-eigenvector",)):
        return ExperimentConfig(
            scenario="fig5b-range", estimators=[parse_estimator_spec(t) for t in tags],
            snr_grid_db=self.SNRS, directions=list(directions), trials=5000, seed=3,
        )

    @pytest.mark.parametrize("tags, per_chunk", [
        (["ls"], 1), (["ls", "sbme", "ebme:b=-1"], 1 + 2 * 13), (["sbme", "ls"], 1 + 13),
    ])
    def test_ls_reduced_once_per_chunk(self, monkeypatch, tags, per_chunk):
        calls, real = [], sim._moments
        monkeypatch.setattr(sim, "_moments", lambda se: calls.append(1) or real(se))
        rows = run_experiment(self._config(tags))
        assert len(calls) == 2 * per_chunk  # two chunks, however many points
        # ls's squared error is ||v0||**2 at every point: one mean along the grid.
        ls = [row for row in rows if row.estimator == "ls"]
        assert len(ls) == 13 and len({(r.mse_mean, r.mse_stderr) for r in ls}) == 1
        assert all(np.array_equal(r.gain_mean, np.ones(10)) for r in ls)

    def test_noise_free_terms_once_per_group(self, monkeypatch):
        # A group's kernel forms its noise-free terms once, when it is built.
        calls, real = [], sim._chunk_kernel
        monkeypatch.setattr(sim, "_chunk_kernel",
                            lambda *args: calls.append(len(args[1])) or real(*args))
        run_experiment(self._config(["ls", "sbme", "tik1"],
                                    directions=["max-eigenvector", {"random-sphere": 2}]))
        assert calls == [13, 13, 13]  # three groups of 13 points


class TestKernelBuffers:
    """Engine version 9: a chunk's temporaries go into the kernel's work
    arrays, and each (point, rule) gets one new ``se`` array, so a ``reduce``
    may keep it."""

    def test_each_squared_error_array_is_new_and_kept(self):
        model = fig5b_model()
        specs = [parse_estimator_spec(tag)
                 for tag in ("sbme", "bock", "pbm", "shrinkc:c=0", "ebme:b=-1")]
        specs.append(EstimatorSpec("offcenter", x0=np.linspace(-1.0, 1.0, model.m),
                                   x0_name="x0.csv"))
        plans = [RULES[spec.kind].plan(model, spec) for spec in specs]
        reference = []  # ebme's chunk-wide reference gain calls: none, so its closed form runs

        def traced(s, out=None, gain=plans[4].gain):
            reference.append(np.size(s) > 3)
            return gain(s, out)

        plans[4] = plans[4]._replace(gain=traced)
        xs = [scale_to_snr(model, np.ones(model.m), snr) for snr in (0.0, 5.0, 10.0)]
        kernel = sim._chunk_kernel(model, xs, plans, lambda se: se)
        blocks = [normal_block(7, np.arange(lo, lo + sim.CHUNK_TRIALS), model.n)
                  for lo in (0, sim.CHUNK_TRIALS)]
        first = [se for se, _ in kernel(blocks[0])]
        kept = [se.copy() for se in first]
        squared_errors = first + [se for se, _ in kernel(blocks[1])]
        assert len(squared_errors) == 2 * len(xs) * len(specs) and not any(reference)
        for i, se in enumerate(squared_errors):
            assert not any(np.shares_memory(se, other) for other in squared_errors[:i]), i
        for i, (se, copy) in enumerate(zip(first, kept)):
            assert se.tobytes() == copy.tobytes(), i


class TestNoisePipeline:
    """Engine version 8: a pass cycles its noise blocks through up to three
    reused slots. One helper thread draws posted blocks ahead of the chunk
    being evaluated, and the calling thread draws any posted block that the
    helper has not started when the next block is not ready."""

    @staticmethod
    def _spend(z):
        """A chunk result that copies the block, then overwrites it, as the engine does."""
        out = z.copy()
        z[:] = np.nan
        return out

    @staticmethod
    def _serial(seed, trials, width):
        """Each chunk's block drawn on its own, in chunk order."""
        return [normal_block(seed, np.arange(lo, min(lo + sim.CHUNK_TRIALS, trials)), width)
                for lo in range(0, trials, sim.CHUNK_TRIALS)]

    @pytest.mark.parametrize("width", [2, 10, 100])
    @pytest.mark.parametrize("trials", [1, 4096, 4097, 9000, 20000])
    def test_matches_serial_blocks(self, trials, width):
        got = sim._map_chunks(self._spend, 17, trials, width)
        want = self._serial(17, trials, width)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_blocks_keyed_by_first_trial(self, monkeypatch):
        # Block 0 goes through normal_block's id check; every later block is
        # keyed by its first trial alone, into a slot view of its rows.
        calls, real_fill, real_block = [], sim.normal_fill, sim.normal_block
        monkeypatch.setattr(sim, "normal_fill", lambda seed, first, out: (
            calls.append(("fill", seed, first, out.shape)) or real_fill(seed, first, out)))
        monkeypatch.setattr(sim, "normal_block", lambda seed, ids, count, out=None: (
            calls.append(("block", seed, ids[0], len(ids))) or real_block(seed, ids, count, out)))
        trials, chunk = 4 * sim.CHUNK_TRIALS + 5, sim.CHUNK_TRIALS
        sim._map_chunks(self._spend, 17, trials, 3)

        def fill(i, rows=chunk):
            return ("fill", 17, i * chunk, (rows, 3))

        assert calls == [fill(1), fill(2), ("block", 17, 0, chunk), fill(3), fill(4, 5)]
        assert all(type(first) is int for kind, _, first, _ in calls if kind == "fill")

    def test_concurrent_passes_under_fast_switching(self):
        # Four passes at once, each with its own helper (eight threads on a
        # small machine), switching threads every few microseconds: every
        # pass still sees its own serial blocks, bit for bit.
        trials, results = 9 * sim.CHUNK_TRIALS + 5, {}

        def run(seed):
            results[seed] = sim._map_chunks(self._spend, seed, trials, 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seed in range(4):
            want = self._serial(seed, trials, 3)
            assert all(np.array_equal(a, b) for a, b in zip(results[seed], want, strict=True))

    @staticmethod
    def _schedule_fills(monkeypatch, block2_on, fail=False):
        """Fix which thread draws block 2 of each 3-chunk pass. Return a list
        that gets the ``(seed, block, thread id)`` of every fill run, and the
        current pass's events that mark the start of blocks 1 and 2.

        Block 0 (``sim.normal_block``, drawn on the calling thread after
        blocks 1 and 2 are posted) waits until the helper has started the
        fill of block 2 (``block2_on="helper"``) or of block 1
        (``"caller"``). In the second case block 1's fill holds the helper
        until block 2's fill starts, which leaves block 2 to the calling
        thread. With ``fail``, block 2's fill raises. Every wait has a
        timeout, so that a regression fails instead of hanging.
        """
        real_block, real_fill, runs, started = sim.normal_block, sim.normal_fill, [], {}

        def normal_fill(seed, first, out):
            fill = real_fill(seed, first, out)
            block = first // sim.CHUNK_TRIALS
            if block == 1:  # a new pass: blocks are keyed in chunk order
                started.update({1: threading.Event(), 2: threading.Event()})
            events = dict(started)

            def scheduled():
                runs.append((seed, block, threading.get_ident()))
                events[block].set()
                if block == 1 and block2_on == "caller":
                    assert events[2].wait(timeout=30), "block 2's fill never started"
                if block == 2 and fail:
                    raise MemoryError("fill failed")
                fill()

            return scheduled

        def normal_block(seed, trial_ids, count, out=None):
            assert started[1 if block2_on == "caller" else 2].wait(timeout=30)
            return real_block(seed, trial_ids, count, out)

        monkeypatch.setattr(sim, "normal_fill", normal_fill)
        monkeypatch.setattr(sim, "normal_block", normal_block)
        return runs, started

    def test_caller_draws_when_helper_is_held(self, monkeypatch):
        runs, _ = self._schedule_fills(monkeypatch, "caller")
        got = sim._map_chunks(self._spend, 17, 9000, 10)
        drawn_by = {block: thread for _, block, thread in runs}
        assert drawn_by[2] == threading.get_ident() != drawn_by[1]
        want = self._serial(17, 9000, 10)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_three_slots_per_pass(self):
        # A 3-chunk pass at m = n = 100: three noise slots, then v0's
        # m x rows array in the chunk kernel, plus small change. A fourth
        # slot, or a block allocated per chunk, adds one more block.
        m, rows = 100, sim.CHUNK_TRIALS
        specs = [parse_estimator_spec(tag) for tag in ("ls", "sbme", "bock", "tik2")]
        cfg = ExperimentConfig(
            scenario={"name": "wide", "H": {"identity": m},
                      "Cw": {"diag": np.linspace(1.0, 0.01, m).tolist()}},
            estimators=specs, snr_grid_db=TestSharedNoise.SNRS,
            directions=[{"random-sphere": 1}], trials=3 * rows, seed=3,
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * m * rows * 8

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_helper_joined_when_fn_raises(self, error):
        # fn fails on the second chunk while the helper draws the third; a
        # BaseException such as KeyboardInterrupt takes the same exit.
        before = threading.enumerate()
        seen = []

        def fn(z):
            seen.append(z.shape[0])
            if len(seen) == 2:
                raise error("chunk failed")
            return z.sum()

        with pytest.raises(error, match="chunk failed"):
            sim._map_chunks(fn, 3, 9000, 4)
        assert seen == [4096, 4096]
        assert threading.enumerate() == before

    @pytest.mark.parametrize("block2_on", ["helper", "caller"])
    def test_helper_joined_when_fill_raises(self, monkeypatch, block2_on):
        # Block 2's fill raises on either thread; the error comes at its turn.
        before = threading.enumerate()
        runs, _ = self._schedule_fills(monkeypatch, block2_on, fail=True)
        seen = []
        with pytest.raises(MemoryError, match="fill failed"):
            sim._map_chunks(lambda z: seen.append(z.shape[0]), 3, 9000, 4)
        assert seen == [4096, 4096]  # the third chunk is never evaluated
        assert threading.enumerate() == before
        drawn_by = {block: thread for _, block, thread in runs}
        assert (drawn_by[2] == threading.get_ident()) == (block2_on == "caller")
        ran = len(runs)
        cfg = ExperimentConfig(scenario="fig4-snr", estimators=[EstimatorSpec("sbme")],
                               snr_grid_db=[0.0, 5.0], directions=["max-eigenvector"],
                               trials=9000, seed=1)
        with pytest.raises(MemoryError, match="fill failed"):
            run_experiment(cfg)
        assert threading.enumerate() == before
        with pytest.raises(MemoryError, match="fill failed"):
            stein_lemma_check([1.0, 2.0], [1.0, 4.0], 1.0, 10**4, 5)
        assert threading.enumerate() == before
        assert ran == 2 and sum(seed == 3 for seed, _, _ in runs) == ran  # no fill ran late

    def test_unstarted_fill_dropped_on_error(self, monkeypatch):
        # fn fails on chunk 0 while the helper is held in block 1's fill and
        # block 2's fill waits in the queue. The helper is let go only when
        # the pass joins it, so block 2's fill runs only if it was not dropped.
        runs, started = self._schedule_fills(monkeypatch, "caller")
        real_join = threading.Thread.join
        monkeypatch.setattr(threading.Thread, "join",
                            lambda thread, *args: started[2].set() or real_join(thread, *args))

        def fn(z):
            raise KeyError("chunk failed")

        with pytest.raises(KeyError, match="chunk failed"):
            sim._map_chunks(fn, 3, 9000, 4)
        assert [block for _, block, _ in runs] == [1]

    def test_one_helper_per_pass(self, monkeypatch):
        started, real_start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or real_start(thread))
        before = threading.enumerate()
        assert len(sim._map_chunks(np.sum, 3, 4096, 4)) == 1
        assert started == []  # one chunk: nothing to draw ahead
        assert len(sim._map_chunks(np.sum, 3, 5 * 4096 + 1, 4)) == 6
        assert len(started) == 1
        assert threading.enumerate() == before


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
        # Directions pass through in the JSON's own forms.
        assert cfg.directions == ["max-eigenvector", {"random-sphere": 4},
                                  {"vector": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], "id": "e1"}]

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
            ("not an object", '[{"scenario": "fig4-snr"}]'),
            ("unknown field", '{"scenario": "fig4-snr", "trialz": 1}'),
            ("missing scenario", '{"trials": 2}'),
            ("bad estimator entry", '{"scenario": "fig4-snr", "estimators": [7]}'),
        ]
        for name, body in cases:
            p = tmp_path / "bad.json"
            p.write_text(body)
            with pytest.raises(ConfigError):
                load_config(p)
        # load_config passes every field but estimators through; the run
        # checks them, as it does a Python caller's, before any noise is drawn.
        for field_name, body in [
            ("snr_grid_db", '{"scenario": "fig4-snr", "snr_grid_db": ["a"]}'),
            ("trials", '{"scenario": "fig4-snr", "trials": true}'),
        ]:
            p = tmp_path / "bad.json"
            p.write_text(body)
            cfg = load_config(p)
            with pytest.raises(ConfigError, match=f"{field_name}: expected"):
                run_experiment(cfg)

    @pytest.mark.parametrize("direction", [
        "up", {"random-sphere": 2.5}, {"random-sphere": 0}, {"random-sphere": 2, "id": "r"},
        {"vector": [1, "0"]}, {"vector": [1, 0], "key": "e"}, ["vector", [1, 0]],
    ])
    def test_bad_direction_rejected_at_run_time(self, tmp_path, monkeypatch, direction):
        # load_config passes directions through; run_experiment checks them
        # before any noise is drawn.
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"scenario": "fig4-snr", "directions": [direction], "seed": 0}))
        cfg = load_config(p)
        assert cfg.directions == [direction]
        drawn = []
        monkeypatch.setattr(sim, "normal_block", lambda *args: drawn.append(args))
        with pytest.raises(ConfigError, match="directions"):
            run_experiment(cfg)
        assert drawn == []

    @pytest.mark.parametrize("name", [7, "", "a,b", 'say "hi"', "a\nb"])
    def test_inline_model_name_must_be_one_csv_field(self, tmp_path, name):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": {"name": name, "H": {"identity": 2},
                                              "Cw": {"identity": 2}},
                                 "estimators": ["ls"], "snr_grid_db": [0.0],
                                 "directions": ["max-eigenvector"], "trials": 4, "seed": 0}))
        cfg = load_config(p)  # the scenario passes through; the run checks it
        with pytest.raises(ConfigError, match="scenario.name"):
            run_experiment(cfg)

    def test_close_parameters_get_distinct_labels(self, tmp_path):
        # A parameter that ":g" would round to six digits is labelled in
        # full, so both estimators of each pair run and keep their own rows.
        tags = ["ebme:b=-1", "ebme:b=-1.0000001", "shrinkc:c=1e-7", "shrinkc:c=1.00000001e-7",
                "ebme:b=0.25"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "fig4-snr", "estimators": tags, "snr_grid_db": [0.0],
                                 "directions": ["max-eigenvector"], "trials": 8, "seed": 0}))
        rows = run_experiment(load_config(p))
        assert [row.estimator for row in rows] == [
            "ebme:b=-1", "ebme:b=-1.0000001", "ebme:b=0.25", "shrinkc:c=1.00000001e-07",
            "shrinkc:c=1e-07",
        ]

    @pytest.mark.parametrize("tags, match", [
        (["offcenter:file=a,b.csv", "sbme"], "estimators: expected a nonempty string"),
        (["sbme", "ls", "sbme"], "estimators: expected distinct labels, got 'sbme'"),
        (["offcenter:file=x0.csv", "offcenter:file=x0.csv"], "expected distinct labels"),
    ], ids=["comma", "repeat", "repeated-center"])
    def test_estimator_labels_must_be_distinct_csv_fields(self, tmp_path, monkeypatch, tags,
                                                          match):
        for name in ("a,b.csv", "x0.csv"):
            (tmp_path / name).write_text("1.0\n0.0\n")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "fig4-snr", "estimators": tags, "seed": 0}))
        drawn = []
        monkeypatch.setattr(sim, "normal_block", lambda *args: drawn.append(args))
        cfg = load_config(p)  # the labels are checked at run time, before any noise is drawn
        with pytest.raises(ConfigError, match=match):
            run_experiment(cfg)
        # The Python API checks the labels the same way.
        loader = lambda rel: np.array([1.0, 0.0])  # noqa: E731
        cfg = ExperimentConfig(scenario={"name": "tiny", "H": {"identity": 2},
                                         "Cw": {"identity": 2}},
                               estimators=[parse_estimator_spec(t, loader) for t in tags],
                               snr_grid_db=[0.0], directions=["max-eigenvector"], trials=4,
                               seed=0)
        with pytest.raises(ConfigError, match=match):
            run_experiment(cfg)
        assert drawn == []

    def test_unknown_estimator_tag(self, tmp_path):
        from blindmm.estimators import UnknownEstimatorError

        p = tmp_path / "cfg.json"
        p.write_text('{"scenario": "fig4-snr", "estimators": ["james"]}')
        with pytest.raises(UnknownEstimatorError):
            load_config(p)


# One sweep on an inline m = 15 model, as JSON; the Python form holds specs for the tags.
PARITY_BASE = {"scenario": {"H": {"identity": 15}, "Cw": {"diag": [1.0] * 5 + [0.1] * 10}},
               "estimators": ["ls", "sbme"], "snr_grid_db": [0.0],
               "directions": ["max-eigenvector"], "trials": 8, "seed": 0}


def parity_python_fields(**overrides):
    specs = [parse_estimator_spec(tag) for tag in PARITY_BASE["estimators"]]
    return {**PARITY_BASE, "estimators": specs, **overrides}


@pytest.mark.parametrize("field_name, value, match", [
    ("trials", 2.7, "trials: expected an integer >= 1, got 2.7"),
    ("trials", True, "trials: expected an integer >= 1, got True"),
    ("trials", "64", "trials: expected an integer >= 1, got '64'"),
    ("trials", 0, "trials: expected an integer >= 1, got 0"),
    ("seed", 1.9, "seed: must be a non-negative integer"),
    ("seed", "5", "seed: must be a non-negative integer"),
    ("seed", -1, "seed: must be a non-negative integer"),
    ("snr_grid_db", ["1"], "snr_grid_db: expected a list of numbers"),
    ("snr_grid_db", [True], "snr_grid_db: expected a list of numbers"),
    ("snr_grid_db", [], "snr_grid_db: must be a nonempty list"),
    ("estimators", [], "estimators: must be a nonempty list"),
    ("directions", [{"vector": [0] * 15}], "directions: direction must be nonzero"),
    ("directions", [{"vector": [1, 0]}], "directions: direction: dim 2 does not match m=15"),
] + [("scenario", {"H": h, "Cw": {"identity": 15}}, "scenario.H: expected")
     for h in ([["1"] * 15] * 15, [[True] * 15] * 15, [[1.0] * 15, [1.0]], [1.0] * 15, [])],
    ids=["trials-fraction", "trials-bool", "trials-text", "trials-zero", "seed-fraction",
         "seed-text", "seed-negative", "snr-text", "snr-bool", "snr-empty", "estimators-empty",
         "direction-zero", "direction-short", "matrix-text", "matrix-bool", "matrix-ragged",
         "matrix-flat", "matrix-empty"])
def test_json_and_python_configs_refused_alike(tmp_path, monkeypatch, field_name, value, match):
    # ExperimentConfig.validate is the one check of both forms (an inline
    # matrix's rows follow its number rule too): the same ConfigError from
    # run_experiment, before any noise is keyed or drawn.
    drawn = []
    for name in ("normal_block", "normal_fill"):
        monkeypatch.setattr(sim, name, lambda *args, **kwargs: drawn.append(args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PARITY_BASE, field_name: value}))
    errors = []
    for make in (lambda: load_config(path),
                 lambda: ExperimentConfig(**parity_python_fields(**{field_name: value}))):
        with pytest.raises(ConfigError, match=match) as caught:
            run_experiment(make())
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert drawn == []


def test_python_estimators_must_be_specs():
    # A JSON config's tags are parsed by load_config; a Python config holds the specs.
    with pytest.raises(ConfigError, match="estimators: expected EstimatorSpec entries"):
        run_experiment(ExperimentConfig(**parity_python_fields(estimators=["ls"])))


def test_numpy_scalars_count_as_numbers():
    plain = run_experiment(ExperimentConfig(**parity_python_fields(snr_grid_db=[0.0, 5.0])))
    numpy_fields = parity_python_fields(snr_grid_db=list(np.arange(0.0, 10.0, 5.0)),
                                        trials=np.int64(8), seed=np.uint32(0))
    assert run_experiment(ExperimentConfig(**numpy_fields)) == plain


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_preset_round_trips_through_json(tmp_path, name):
    # A preset's fields, written as a JSON config, run to the preset's own rows.
    p = preset(name)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": name, "estimators": [spec.label for spec in p.estimators],
        "snr_grid_db": list(p.snr_grid_db), "directions": list(p.directions),
        "trials": 64, "seed": 3,
    }))
    rows = run_experiment(load_config(path))
    assert rows == run_experiment(ExperimentConfig(scenario=name, trials=64, seed=3))


class TestSteinIdentity:
    def test_symmetric_zero_mean(self):
        res = stein_lemma_check([0.0, 0.0], [1.0, 1.0], 1.0, 10**4, seed=2)
        assert res.within()

    def test_shrink_case_small(self):
        res = stein_lemma_check([1.0, 2.0], [1.0, 4.0], 1.0, 2 * 10**4, seed=3)
        assert res.within()
        assert np.all(res.stderr > 0)

    def test_deterministic(self):
        a = stein_lemma_check([1.0], [2.0], 1.0, 10**4, seed=5)
        b = stein_lemma_check([1.0], [2.0], 1.0, 10**4, seed=5)
        assert np.array_equal(a.discrepancy, b.discrepancy)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateGError):
            stein_lemma_check([0.0, 0.0], [1.0, 1.0], 0.0, 10**4, seed=0)

    def test_minimum_trials_enforced(self):
        with pytest.raises(ConfigError, match=r"^trials: must be >= 10\^4$"):
            stein_lemma_check([1.0], [1.0], 1.0, 100, seed=0)

    @pytest.mark.parametrize("trials", [10000.5, 1e4, True, "10000", None])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ConfigError, match=r"^trials: must be >= 10\^4$"):
            stein_lemma_check([1.0, 2.0], [1.0, 4.0], 1.0, trials, seed=0)

    def test_numpy_integer_trials_accepted(self):
        res = stein_lemma_check([1.0], [2.0], 1.0, np.int64(10**4), seed=5)
        assert res.trials == 10**4

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
    """Paired comparisons on common draws: positive-part vs balanced in the
    white-noise case."""

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
                    lambda xls: estimate_from_ls(model, EstimatorSpec("pbm"), xls).xhat,
                    lambda xls: estimate_from_ls(model, EstimatorSpec("bbm"), xls).xhat,
                ),
            )
            assert mean_d <= 3.0 * se_d


class TestDctDemo:
    @staticmethod
    def _rows(seed, trials):
        rows = run_experiment(ExperimentConfig(scenario="fig2-dct", trials=trials, seed=seed))
        return {row.estimator: row for row in rows}

    def test_report_gains_bounded_and_monotone(self):
        rows = self._rows(3, 64)
        sbme_gain, ebme_gains = rows["sbme"].gain_mean, rows["ebme:b=-1"].gain_mean
        assert np.all((0.0 < sbme_gain) & (sbme_gain < 1.0))
        assert 0.0 < ebme_gains.min() <= ebme_gains.max() < 1.0
        # Components are ordered by increasing noise variance; the adaptive
        # gain must not increase along that ordering.
        component_noise_var = 1.0 / preset("fig2-dct").cases[0][1].Qeig.eigenvalues
        assert np.all(np.diff(component_noise_var) >= 0)
        assert np.all(np.diff(ebme_gains) <= 1e-12)

    def test_report_deterministic(self):
        a, b = self._rows(4, 16), self._rows(4, 16)
        assert a == b
        assert all(np.array_equal(a[k].gain_mean, b[k].gain_mean) for k in a)


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

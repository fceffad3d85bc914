"""End-to-end command-line behavior: subcommands, exit codes, atomic CSV
output, and determinism across reruns and worker counts."""

import json
import os
import stat
import threading
import warnings

import numpy as np
import pytest

from blindmm.cli import main
from blindmm.linalg import read_vector_csv, write_matrix_csv
from blindmm.scenarios import FIG4_NOISE_PROFILE, fig6_model


def _count_keyed_blocks(monkeypatch, *modules):
    """Record each chunk's keyed noise block: ``normal_block`` draws the
    first of a pass, and ``normal_fill`` keys the others, which either thread may draw."""
    import blindmm.sim

    calls = []
    targets = [(blindmm.sim, "normal_block"), (blindmm.sim, "normal_fill")]
    targets += [(module, "normal_block") for module in modules]
    for module, name in targets:
        def counted(*args, _real=getattr(module, name), **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _record_started_threads(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture
def iid_files(tmp_path):
    write_matrix_csv(tmp_path / "H.csv", np.eye(5))
    write_matrix_csv(tmp_path / "Cw.csv", np.eye(5))
    write_matrix_csv(tmp_path / "y.csv", np.array([1.0, -2.0, 0.5, 3.0, 0.0]))
    return tmp_path


class TestEstimate:
    def _run(self, d, estimator, y="y.csv", out="xhat.csv"):
        return main(
            [
                "estimate",
                "--H", str(d / "H.csv"),
                "--Cw", str(d / "Cw.csv"),
                "--y", str(d / y),
                "--estimator", estimator,
                "--out", str(d / out),
            ]
        )

    def test_ls_identity_model(self, iid_files, capsys):
        assert self._run(iid_files, "ls") == 0
        out = read_vector_csv(iid_files / "xhat.csv")
        np.testing.assert_array_equal(out, [1.0, -2.0, 0.5, 3.0, 0.0])
        assert "effective dimension" in capsys.readouterr().out

    def test_ebme_b0_equals_sbme(self, iid_files):
        assert self._run(iid_files, "ebme:b=0", out="a.csv") == 0
        assert self._run(iid_files, "sbme", out="b.csv") == 0
        a = read_vector_csv(iid_files / "a.csv")
        b = read_vector_csv(iid_files / "b.csv")
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_pbm_zeroes_small_inputs(self, iid_files):
        # ||xls||^2 = 1 < eps0 = 5 -> positive part clamps to zero; exit 0.
        write_matrix_csv(iid_files / "small.csv", np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert self._run(iid_files, "pbm", y="small.csv") == 0
        np.testing.assert_array_equal(read_vector_csv(iid_files / "xhat.csv"), np.zeros(5))

    def test_degenerate_exit_code(self, iid_files, capsys):
        write_matrix_csv(iid_files / "zero.csv", np.zeros(5))
        assert self._run(iid_files, "bbm", y="zero.csv") == 4
        assert "degenerate" in capsys.readouterr().out

    def test_unknown_estimator_exit_2(self, iid_files):
        assert self._run(iid_files, "stein") == 2

    def test_ebme_overflow_exit_2(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "H.csv", np.eye(10))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag([1.0] * 5 + [1e-3] * 5))
        write_matrix_csv(tmp_path / "y.csv", np.ones(10))
        assert self._run(tmp_path, "ebme:b=300") == 2
        assert "b=300" in capsys.readouterr().err
        assert not (tmp_path / "xhat.csv").exists()

    def test_infinite_shrinkc_constant_exit_2(self, iid_files, capsys):
        assert self._run(iid_files, "shrinkc:c=inf") == 2
        assert "shrinkc requires a finite c >= 0" in capsys.readouterr().err
        assert not (iid_files / "xhat.csv").exists()

    @pytest.mark.parametrize("estimator", ["sbme", "tik1"])
    def test_overflowing_statistic_exit_3(self, iid_files, capsys, estimator):
        write_matrix_csv(iid_files / "big.csv", np.full(5, 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(iid_files, estimator, y="big.csv") == 3
        assert capsys.readouterr().err.startswith("error: xls: ")
        assert not (iid_files / "xhat.csv").exists()

    def test_ls_with_an_overflowing_statistic_exit_0(self, iid_files, capsys):
        # ls uses no statistic: ||xls||^2 overflows, but xhat = xls is finite.
        write_matrix_csv(iid_files / "big.csv", np.full(5, 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(iid_files, "ls", y="big.csv") == 0
        assert capsys.readouterr().err == ""
        np.testing.assert_array_equal(read_vector_csv(iid_files / "xhat.csv"), np.full(5, 1e160))

    def test_dimension_error_exit_3(self, iid_files):
        write_matrix_csv(iid_files / "short.csv", np.array([1.0, 2.0]))
        assert self._run(iid_files, "ls", y="short.csv") == 3

    def test_ragged_csv_exit_3(self, iid_files):
        (iid_files / "bad.csv").write_text("1,2\n3\n")
        assert (
            main(
                [
                    "estimate",
                    "--H", str(iid_files / "bad.csv"),
                    "--Cw", str(iid_files / "Cw.csv"),
                    "--y", str(iid_files / "y.csv"),
                    "--estimator", "ls",
                    "--out", str(iid_files / "o.csv"),
                ]
            )
            == 3
        )

    def test_wrong_length_center_exit_3(self, iid_files, capsys):
        # As with a wrong-length --y, the data does not fit the model.
        write_matrix_csv(iid_files / "x0.csv", np.ones(3))
        assert self._run(iid_files, f"offcenter:file={iid_files / 'x0.csv'}") == 3
        assert capsys.readouterr().err == "error: x0: dim 3 does not match m=5\n"

    def test_not_utf8_csv_exit_3(self, iid_files, capsys):
        (iid_files / "y.csv").write_bytes(b"\xff1\n2\n")
        assert self._run(iid_files, "ls") == 3
        assert capsys.readouterr().err.startswith(f"error: y ({iid_files / 'y.csv'}): not UTF-8 text:")

    def test_not_positive_definite_exit_3(self, tmp_path):
        write_matrix_csv(tmp_path / "H.csv", np.eye(2))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag([1.0, -1.0]))
        write_matrix_csv(tmp_path / "y.csv", np.ones(2))
        assert self._run(tmp_path, "ls") == 3

    def test_gain_range_reported_for_ebme(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "H.csv", np.eye(4))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag([1.0, 1.0, 0.1, 0.1]))
        write_matrix_csv(tmp_path / "y.csv", np.array([2.0, -1.0, 1.0, 0.5]))
        assert self._run(tmp_path, "ebme:b=-1") == 0
        assert "gain range" in capsys.readouterr().out

    def test_gain_range_reported_for_tik1(self, tmp_path, capsys):
        # Q = diag(1, 1/4), ||xls||^2 = 5, ridge weight 2/5: gains
        # sig / (sig + 0.4) are 1/1.4 and 0.25/0.65 in Q's eigenbasis.
        write_matrix_csv(tmp_path / "H.csv", np.eye(2))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag([1.0, 4.0]))
        write_matrix_csv(tmp_path / "y.csv", np.array([1.0, 2.0]))
        assert self._run(tmp_path, "tik1") == 0
        out = capsys.readouterr().out
        assert f"gain range: [{0.25 / 0.65:.6g}, {1.0 / 1.4:.6g}]" in out
        assert "gain:" not in out


class TestCheck:
    def test_published_profile(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "H.csv", np.eye(15))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag(FIG4_NOISE_PROFILE))
        assert main(["check", "--H", str(tmp_path / "H.csv"), "--Cw", str(tmp_path / "Cw.csv")]) == 0
        out = capsys.readouterr().out
        assert "effective dimension: 5.8" in out
        assert "scalar-shrinkage dominance (effective dimension > 4): PASS" in out
        assert "spectral-shrinkage dominance (b=-1): PASS" in out

    def test_small_iid_fails_condition(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "H.csv", np.eye(3))
        write_matrix_csv(tmp_path / "Cw.csv", np.eye(3))
        assert main(["check", "--H", str(tmp_path / "H.csv"), "--Cw", str(tmp_path / "Cw.csv")]) == 0
        out = capsys.readouterr().out
        assert "effective dimension: 3.0" in out
        assert "FAIL" in out

    @pytest.mark.parametrize("b", ["nan", "300"])
    def test_bad_exponent_exit_2(self, tmp_path, capsys, b):
        write_matrix_csv(tmp_path / "H.csv", np.eye(10))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag([1.0] * 5 + [1e-3] * 5))
        argv = ["check", "--H", str(tmp_path / "H.csv"), "--Cw", str(tmp_path / "Cw.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--b", b]) == 2
        captured = capsys.readouterr()
        assert f"b={b}" in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("h, cw, message", [
        ([[1e200]], [[1.0]], "H, Cw: Q = H' Cw^-1 H leaves float64 range"),
        (np.zeros((2, 2)), np.eye(2), "H: Q = H' Cw^-1 H is numerically singular (Q = 0)"),
        (np.eye(2), np.diag([1e-310, 1e-310]), "Cw: Cw^-1 leaves float64 range"),
        (1e-160 * np.eye(2), np.eye(2), "H, Cw: eps0 = tr(Q^-1) leaves float64 range"),
    ], ids=["q-overflow", "zero-h", "cw-inverse-overflow", "eps0-overflow"])
    def test_model_out_of_range_exit_3(self, tmp_path, capsys, h, cw, message):
        write_matrix_csv(tmp_path / "H.csv", np.asarray(h))
        write_matrix_csv(tmp_path / "Cw.csv", np.asarray(cw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--H", str(tmp_path / "H.csv"),
                         "--Cw", str(tmp_path / "Cw.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_not_utf8_csv_exit_3(self, tmp_path, capsys):
        (tmp_path / "H.csv").write_bytes(b"\xff1,0\n0,1\n")
        write_matrix_csv(tmp_path / "Cw.csv", np.eye(2))
        assert main(["check", "--H", str(tmp_path / "H.csv"), "--Cw", str(tmp_path / "Cw.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: H ({tmp_path / 'H.csv'}): not UTF-8 text:")
        assert captured.out == ""

    def test_byte_order_mark_csv_reads_as_plain(self, tmp_path, capsys):
        # Spreadsheet programs write UTF-8 CSVs with a leading byte-order mark.
        (tmp_path / "H.csv").write_bytes(b"1,0\n0,1\n")
        (tmp_path / "H_bom.csv").write_bytes(b"\xef\xbb\xbf1,0\n0,1\n")
        write_matrix_csv(tmp_path / "Cw.csv", np.eye(2))
        outs = []
        for h in ("H.csv", "H_bom.csv"):
            assert main(["check", "--H", str(tmp_path / h), "--Cw", str(tmp_path / "Cw.csv")]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("h, cw, line", [
        (np.eye(2), np.diag([1.0, 1e-3]), "condition number of Q: 1000.0"),
        (np.eye(4), np.eye(4), "condition number of Q: 1.0"),
        (np.eye(8), np.diag([1.0, 0.1] * 4), "condition number of Q: 10.0"),
    ], ids=["ratio-1000", "identity", "alternating-diagonal"])
    def test_condition_number_line(self, tmp_path, capsys, h, cw, line):
        write_matrix_csv(tmp_path / "H.csv", h)
        write_matrix_csv(tmp_path / "Cw.csv", cw)
        assert main(["check", "--H", str(tmp_path / "H.csv"), "--Cw", str(tmp_path / "Cw.csv")]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_five_five_profile_passes(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "H.csv", np.eye(10))
        write_matrix_csv(tmp_path / "Cw.csv", np.diag([1.0] * 5 + [0.1] * 5))
        main(["check", "--H", str(tmp_path / "H.csv"), "--Cw", str(tmp_path / "Cw.csv")])
        out = capsys.readouterr().out
        assert "effective dimension: 5.5" in out and "PASS" in out


class TestScenario:
    def test_unknown_name_exit_2(self, tmp_path, capsys):
        assert main(["scenario", "figX", "--out", str(tmp_path / "o.csv")]) == 2
        assert "fig4-snr" in capsys.readouterr().err

    def test_condition_sweep(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        assert main(["scenario", "fig6-cond", "--out", str(out), "--trials", "8", "--seed", "1"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,estimator,snr_db,sweep_key")
        assert len(lines) == 1 + 4 * 7  # 4 estimators x 7 condition numbers
        assert any(",cond=1000," in ln for ln in lines)
        assert "mse/eps0" in capsys.readouterr().out

    def test_trials_override_recorded(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["scenario", "fig3-pp", "--out", str(out), "--trials", "6", "--seed", "0"])
        rows = out.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[6] == "6" for row in rows)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scenario", "fig3-pp", "--trials", "32", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dct_scenario_reports_gains(self, tmp_path, capsys):
        out = tmp_path / "dct.csv"
        assert main(["scenario", "fig2-dct", "--out", str(out), "--trials", "40", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        assert "mean scalar gain (sbme):" in text
        assert "adaptive gain range (ebme:b=-1):" in text
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 3  # ls, sbme, ebme rows at the single snr point
        # Three chunks: the gain lines come from the same pass as the CSV,
        # so neither depends on the worker count.
        outputs = []
        for workers in ("1", "2"):
            assert main(["scenario", "fig2-dct", "--out", str(out), "--trials", "9000",
                         "--seed", "2", "--workers", workers]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_dct_scenario_single_monte_carlo_pass(self, tmp_path, monkeypatch):
        import blindmm.scenarios
        import blindmm.sim

        calls = _count_keyed_blocks(monkeypatch, blindmm.scenarios)
        out = tmp_path / "dct.csv"
        assert main(["scenario", "fig2-dct", "--out", str(out), "--trials", "9000",
                     "--seed", "1", "--workers", "1"]) == 0
        assert len(calls) == 3  # one keyed block per 4096-trial chunk, no second pass

    def test_condition_sweep_normalized_per_case(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        assert main(["scenario", "fig6-cond", "--out", str(out), "--trials", "8", "--seed", "1"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            fields = line.split()
            if len(fields) == 5 and fields[2].startswith("cond="):
                printed[(fields[0], fields[2])] = fields[4]
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert len(printed) == len(rows) == 4 * 7
        for row in rows:
            eps0 = fig6_model(float(row[3].split("=")[1])).eps0
            assert printed[(row[1], row[3])] == f"{float(row[4]) / eps0:.4f}"

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("BLINDMM_SEED", "123")
        main(["scenario", "fig3-pp", "--trials", "16", "--out", str(a)])
        main(["scenario", "fig3-pp", "--trials", "16", "--seed", "123", "--out", str(b)])
        main(["scenario", "fig3-pp", "--trials", "16", "--seed", "7", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()  # env supplied the default
        assert a.read_bytes() != c.read_bytes()  # explicit flag wins


class TestExperiment:
    def _write_config(self, tmp_path, **overrides):
        cfg = {
            "scenario": "fig4-snr",
            "estimators": ["ls", "sbme"],
            "snr_grid_db": [0.0, 10.0],
            "directions": ["max-eigenvector"],
            "trials": 50,
            "seed": 4,
        }
        cfg.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_end_to_end(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scenario,estimator,snr_db,sweep_key,mse_mean,mse_stderr,trials,seed"
        assert len(lines) == 1 + 4
        assert "wrote 4 rows" in capsys.readouterr().out

    def test_rerun_and_workers_byte_identical(self, tmp_path):
        cfg = self._write_config(tmp_path, trials=6000)
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "3"), ("c.csv", "1")):
            out = tmp_path / name
            assert (
                main(
                    ["experiment", "--config", str(cfg), "--out", str(out), "--workers", workers]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "r.csv"
        main(["experiment", "--config", str(cfg), "--out", str(out), "--trials", "100", "--seed", "9"])
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert all(r[6] == "100" and r[7] == "9" for r in rows)

    def test_env_seed_used_when_config_has_none(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        p.write_text(
            '{"scenario": "fig4-snr", "estimators": ["ls"],'
            ' "snr_grid_db": [0.0], "directions": ["max-eigenvector"], "trials": 40}'
        )
        monkeypatch.setenv("BLINDMM_SEED", "55")
        out_env = tmp_path / "env.csv"
        assert main(["experiment", "--config", str(p), "--out", str(out_env)]) == 0
        out_flag = tmp_path / "flag.csv"
        assert main(
            ["experiment", "--config", str(p), "--out", str(out_flag), "--seed", "55"]
        ) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()
        assert ",55" in out_env.read_text().strip().split("\n")[1]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{broken")
        assert main(["experiment", "--config", str(p), "--out", str(tmp_path / "o.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_byte_order_mark_config_runs(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "plain.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        out_bom = tmp_path / "bom.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out_bom)]) == 0
        assert out_bom.read_bytes() == out.read_bytes()
        assert capsys.readouterr().err == ""

    def test_not_utf8_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'\xff{"scenario": "fig4-snr"}')
        assert main(["experiment", "--config", str(p), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {p}: 'utf-8' codec can't decode")

    def test_wrong_length_center_exit_2(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "x0.csv", np.ones(3))
        cfg = self._write_config(tmp_path, estimators=["ls", "offcenter:file=x0.csv"])
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: estimators: offcenter:file=x0.csv: x0: dim 3 does not match m=15\n")
        assert not out.exists()

    @pytest.mark.parametrize("rule, cw", [
        ("bbm", {"identity": 1}),
        ("bbm", {"diag": [1.0, 0.1]}),
        ("shrinkc:c=0", {"identity": 2}),
        ("bock", {"diag": [1.0, 0.1]}),
    ], ids=["bbm-white-m1", "bbm-colored-m2", "shrinkc0-white-m2", "bock-colored-m2"])
    def test_infinite_risk_exit_2_before_any_noise(self, tmp_path, capsys, monkeypatch, rule, cw):
        # E[1/||xls||^2] diverges at m <= 2: the Monte Carlo mean of a rule with
        # c = 0, e != 0 and no clamp would only depend on the seed.
        calls = _count_keyed_blocks(monkeypatch)
        m = len(cw.get("diag", [0.0] * cw.get("identity", 0)))
        cfg = self._write_config(tmp_path, scenario={"H": {"identity": m}, "Cw": cw},
                                 estimators=["ls", rule], directions=[{"vector": [1.0] * m}])
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: estimators: {rule}: infinite risk at m={m}: "
                                           "E[1/||xls||^2] diverges for m <= 2\n")
        assert calls == [] and not out.exists()

    def test_finite_risk_rules_run_at_m2(self, tmp_path):
        # A clamp, c > 0, or bock's e = eps0/eps_max - 2 = 0 on white noise keeps the risk finite.
        cfg = self._write_config(tmp_path, scenario={"H": {"identity": 2}, "Cw": {"identity": 2}},
                                 estimators=["pbm", "sbme", "shrinkc:c=1", "bock"],
                                 directions=[{"vector": [1.0, 0.0]}])
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().split()) == 1 + 4 * 2

    def test_non_finite_squared_errors_exit_3(self, tmp_path, capsys):
        # Each noise entry is about 1e80, so ||v0||^2 is finite but the
        # deviations' squares in the fold leave float64 range.
        cfg = self._write_config(
            tmp_path, scenario={"H": {"identity": 3}, "Cw": {"diag": [1e160] * 3}},
            estimators=["ls"], snr_grid_db=[0.0], trials=100, seed=1,
        )
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        assert "ls: squared errors leave float64 range" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_noise_statistic_exit_3(self, tmp_path, capsys):
        # Every xls is finite, but ebme's sig**b . v0**2 on the noise is not
        # (sig**b is about 1.6e308 on the clean axis).
        cfg = self._write_config(
            tmp_path, scenario={"H": {"identity": 3}, "Cw": {"diag": [0.1, 1, 1]}},
            estimators=["ls", "ebme:b=308.2"], snr_grid_db=[-30.0], trials=5000, seed=1,
        )
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "sig**b . v0**2" in err and not err.startswith("error: xls")
        assert not out.exists()

    def test_named_scenario_trials_fall_back_to_preset(self, tmp_path):
        # Trials: --trials, then the config's, then the preset's (1000 for fig2-dct).
        for extra, flags, trials in (({}, [], "1000"), ({"trials": 40}, [], "40"),
                                     ({"trials": 40}, ["--trials", "30"], "30")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"scenario": "fig2-dct", "seed": 2, **extra}))
            out = tmp_path / "o.csv"
            assert main(["experiment", "--config", str(cfg), "--out", str(out)] + flags) == 0
            assert {row.split(",")[6] for row in out.read_text().split()[1:]} == {trials}

    def test_inline_model_built_once(self, tmp_path, monkeypatch):
        import blindmm.sim

        built = []
        real = blindmm.sim.build_model

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(blindmm.sim, "build_model", counted)
        cfg = self._write_config(
            tmp_path,
            scenario={"H": {"identity": 3}, "Cw": {"diag": [1.0, 2.0, 3.0]}},
            directions=[{"vector": [1, 0, 0]}],
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), 4000.0])
    def test_bad_snr_grid_exit_2(self, tmp_path, capsys, snr):
        cfg = self._write_config(tmp_path, snr_grid_db=[0.0, snr])  # NaN, Infinity, 4000.0
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert "snr_grid_db" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_overflowing_model_scale_exit_2(self, tmp_path, capsys):
        # 10**308 passes the grid check, but 10**308 * tr(Cw) overflows.
        cfg = self._write_config(tmp_path, snr_grid_db=[0.0, 3080.0])
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert "snr_grid_db" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weighted_statistic_exit_2(self, tmp_path, capsys):
        # x is finite at 3070 dB, but sig_max * ||U'x||^2 (bock along the
        # clean axis, tik1 along both) overflows float64.
        cfg = self._write_config(
            tmp_path, scenario={"H": {"identity": 3}, "Cw": {"diag": [1e-3, 1, 1]}},
            estimators=["ls", "bock", "tik1", "ebme:b=-1"], snr_grid_db=[3070.0],
            directions=["max-eigenvector", "min-eigenvector"],
        )
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert "snr_grid_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"directions": [{"vector": 5}]}, "directions.vector"),
        ({"directions": [{"random-sphere": None}]}, "directions.random-sphere"),
        ({"directions": [{"random-sphere": 2.7}]}, "directions.random-sphere"),
        ({"scenario": {"H": {"identity": 3}, "Cw": {"diag": 3}}}, "scenario.Cw.diag"),
        ({"directions": [{"vector": [1.0] + [0.0] * 14, "id": 7}]}, "directions.id"),
        ({"directions": [{"vector": [1.0] + [0.0] * 14, "id": [1]}]}, "directions.id"),
        ({"directions": [{"vector": [1.0] + [0.0] * 14, "id": ""}]}, "directions.id"),
        ({"directions": [{"vector": [1.0] + [0.0] * 14, "id": "a,b"}]}, "directions.id"),
        ({"directions": [{"vector": [1.0] + [0.0] * 14, "id": "a\nb"}]}, "directions.id"),
        ({"scenario": {"name": "x,y", "H": {"identity": 2}, "Cw": {"identity": 2}},
          "directions": [{"vector": [1.0, 0.0]}]}, "scenario.name"),
        ({"scenario": {"name": 3, "H": {"identity": 2}, "Cw": {"identity": 2}},
          "directions": [{"vector": [1.0, 0.0]}]}, "scenario.name"),
        ({"directions": ["max-eigenvector", {"vector": [1.0] + [0.0] * 14, "id": "max-eig"}]},
         "directions"),
        ({"estimators": ["offcenter:file=a,b.csv", "sbme"]}, "estimators"),
        ({"estimators": ["ls", "sbme", "sbme"]}, "estimators"),
        ({"estimators": ["offcenter:file=a,b.csv", "sbme", "sbme"]}, "estimators"),
        ({"estimators": ["shrinkc:c=1", "shrinkc:c=1.0"]}, "estimators"),
        ({"snr_grid_db": [0.0, 0, 5.0]}, "snr_grid_db"),
        ({"snr_grid_db": [-0.0, 0.0]}, "snr_grid_db"),
        ({"directions": [{"random-sphere": 0}]}, "directions.random-sphere"),
        ({"seed": None}, "BLINDMM_SEED"),
        ({"scenario": 5}, "scenario"),
        ({"scenario": {"H": {"identity": 2}, "Cw": {"identity": 2}, "h": 1}}, "scenario"),
        ({"scenario": {"Cw": {"identity": 2}}}, "scenario"),
        ({"scenario": {"H": {"identity": 2}}}, "scenario"),
        ({"scenario": {"H": {"identity": 3, "diag": [1.0, 2.0, 3.0]}, "Cw": {"identity": 3}}},
         "scenario.H"),
        ({"scenario": {"H": {"identity": 3}, "Cw": {"identity": 3, "bogus": 1}}}, "scenario.Cw"),
    ], ids=["vector-number", "sphere-null", "sphere-fraction", "diag-number", "id-number",
            "id-list", "id-empty", "id-comma", "id-newline", "name-comma", "name-number",
            "repeated-key", "label-comma", "repeated-label", "label-comma-and-repeat",
            "repeated-shrinkc-label", "repeated-snr", "signed-zero-snr", "sphere-zero",
            "env-seed-text", "scenario-number", "inline-unknown-key", "inline-without-H",
            "inline-without-Cw", "matrix-identity-and-diag", "matrix-unknown-key"])
    def test_malformed_entry_exit_2(self, tmp_path, capsys, monkeypatch, overrides, field):
        # A wrongly typed entry is a usage error, not a TypeError traceback
        # (exit 1) or a silently truncated count; an id, name or estimator
        # label that is not one CSV field, or a repeated sweep key, label or
        # SNR, would break the results CSV or repeat its rows. An inline
        # matrix object takes exactly one key; with two, one would be ignored.
        # BLINDMM_SEED is read only when the config has no seed.
        monkeypatch.setenv("BLINDMM_SEED", "abc")
        (tmp_path / "a,b.csv").write_text("1.0\n" * 15)  # a center for fig4-snr's m = 15
        cfg = self._write_config(tmp_path, **overrides)
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {field}: expected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("vector, message", [
        ([0.0] * 15, "directions: direction must be nonzero"),
        ([1.0, 0.0], "directions: direction: dim 2 does not match m=15"),
        ([float("nan"), 1.0] + [0.0] * 13, "directions.vector: entries must be finite"),
        ([float("inf")] + [0.0] * 14, "directions.vector: entries must be finite"),
        ([float("-inf")] + [0.0] * 14, "directions.vector: entries must be finite"),
        ([], "directions.vector: expected a 1-D array, got shape (0,)"),
    ], ids=["zero", "short", "nan", "inf", "minus-inf", "empty"])
    def test_unusable_direction_exit_2(self, tmp_path, capsys, vector, message):
        # A direction that cannot be scaled is a bad config entry, like any other;
        # json.load reads NaN, Infinity and -Infinity, so a config can hold them.
        cfg = self._write_config(tmp_path, directions=[{"vector": vector}])
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_direction_beyond_float64_square_runs_as_unit(self, tmp_path, scale):
        # d . d leaves float64 range (it overflowed to x = 0 at every SNR, or
        # read as a zero direction); the rows are the unit direction's.
        outs = []
        for d in ([scale, scale], [1.0, 1.0]):
            cfg = self._write_config(tmp_path, snr_grid_db=[0.0, 10.0],
                                     directions=[{"vector": d + [0.0] * 13}])
            out = tmp_path / f"{d[0]}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        sbme = [line.split(",")[4] for line in outs[0].split()[1:] if ",sbme," in line]
        assert len(set(sbme)) == 2

    def test_range_sweep_one_noise_block_per_chunk(self, tmp_path, monkeypatch):
        calls = _count_keyed_blocks(monkeypatch)
        # One direction x 13 SNRs x two chunks: the 13 points share each chunk's block.
        cfg = self._write_config(
            tmp_path, scenario="fig5b-range", estimators=["ls", "sbme", "ebme:b=-1", "bock"],
            snr_grid_db=[-10.0 + 2.5 * i for i in range(13)],
            directions=[{"random-sphere": 1}], trials=8192,
        )
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 4 * 13
        assert len(calls) == 2

    def test_shared_noise_workers_byte_identical(self, tmp_path):
        # Several directions and SNRs, and a short last chunk (9000 trials).
        cfg = self._write_config(
            tmp_path, scenario="fig5b-range", estimators=["ls", "sbme", "ebme:b=-1", "tik1"],
            snr_grid_db=[-10.0, 0.0, 7.5, 20.0],
            directions=["max-eigenvector", {"random-sphere": 2}], trials=9000,
        )
        outs = []
        for workers in ("1", "2", "4"):
            out = tmp_path / f"w{workers}.csv"
            assert main(
                ["experiment", "--config", str(cfg), "--out", str(out), "--workers", workers]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0].decode().strip().split("\n")) == 1 + 4 * 4 * 3

    def test_one_helper_thread_per_pass(self, tmp_path, monkeypatch):
        # Two directions x 13 grid points of two chunks each: each direction's
        # pass starts one helper thread, which draws its second chunk's noise
        # and is joined before the pass returns. --workers is accepted, and unused.
        started = _record_started_threads(monkeypatch)
        before = threading.enumerate()
        cfg = self._write_config(
            tmp_path, snr_grid_db=[-10.0 + 2.5 * i for i in range(13)],
            directions=["max-eigenvector", "min-eigenvector"], trials=4100,
        )
        out = tmp_path / "o.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--workers", "4"]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2 * 13
        assert len(started) == 2
        assert threading.enumerate() == before

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_bad_workers_exit_2(self, tmp_path, capsys, workers):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "o.csv"
        assert main(
            ["experiment", "--config", str(cfg), "--out", str(out), "--workers", workers]
        ) == 2
        assert "workers: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_model_exit_3(self, tmp_path):
        cfg = self._write_config(
            tmp_path,
            scenario={"H": {"identity": 2}, "Cw": {"diag": [1.0, -1.0]}},
            directions=[{"vector": [1, 0]}],
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3

    def test_missing_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, out_is", [
    ("experiment", "missing"), ("scenario", "missing"), ("estimate", "missing"),
    ("scenario", "directory"), ("scenario", "empty"),
], ids=["experiment", "scenario", "estimate", "scenario-out-is-directory",
        "scenario-out-is-empty"])
def test_missing_out_directory_exit_2_before_any_work(iid_files, capsys, monkeypatch, command,
                                                      out_is):
    # An --out in a missing directory, naming a directory, or empty is
    # refused before any input is read, model built or noise keyed, and
    # nothing is written, not even beside the working directory.
    import blindmm.cli

    calls = _count_keyed_blocks(monkeypatch, blindmm.scenarios)
    built = []
    monkeypatch.setattr(blindmm.cli, "build_model", lambda *args: built.append(args))
    cfg = iid_files / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "fig5b-range", "trials": 8192, "seed": 1}))
    out = iid_files / "no" / "such" / "x.csv"
    if out_is == "directory":
        out.mkdir(parents=True)
    (iid_files / "cwd").mkdir()
    monkeypatch.chdir(iid_files / "cwd")
    files = sorted(iid_files.rglob("*"))
    argv = {
        "experiment": ["experiment", "--config", str(cfg)],
        "scenario": ["scenario", "fig5b-range"],
        "estimate": ["estimate", "--H", str(iid_files / "H.csv"), "--Cw",
                     str(iid_files / "Cw.csv"), "--y", str(iid_files / "y.csv"),
                     "--estimator", "sbme"],
    }[command]
    arg = "" if out_is == "empty" else str(out)
    assert main(argv + ["--out", arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and (str(out.parent) if arg else "''") in err
    assert calls == [] and built == []
    assert sorted(iid_files.rglob("*")) == files


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_output_files_take_the_umask(iid_files, umask):
    # Outputs take the mode open(path, "w") gives, not a private temp file's 0600.
    old = os.umask(umask)
    try:
        (iid_files / "plain.csv").open("w").close()
        assert main(["scenario", "fig3-pp", "--trials", "100",
                     "--out", str(iid_files / "rows.csv")]) == 0
        assert main(["estimate", "--H", str(iid_files / "H.csv"), "--Cw", str(iid_files / "Cw.csv"),
                     "--y", str(iid_files / "y.csv"), "--estimator", "sbme",
                     "--out", str(iid_files / "xhat.csv")]) == 0
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(iid_files / name).st_mode)
             for name in ("plain.csv", "rows.csv", "xhat.csv")}
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


class TestSteinCheckCommand:
    def test_reports_pass(self, capsys):
        assert main(["stein-check", "--v", "1,2", "--sigma", "1,4", "--c", "1",
                     "--trials", "10000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_one_helper_thread_per_pass(self, monkeypatch, capsys):
        # Three chunks: one helper draws the second and third, and is joined.
        started = _record_started_threads(monkeypatch)
        before = threading.enumerate()
        assert main(["stein-check", "--v", "1,2", "--sigma", "1,4", "--trials", "10000",
                     "--seed", "0"]) == 0
        assert len(started) == 1
        assert threading.enumerate() == before

    def test_bad_vector_exit_2(self, capsys):
        assert main(["stein-check", "--v", "1,x", "--sigma", "1", "--trials", "10000"]) == 2

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_bad_constant_exit_2(self, capsys, c):
        assert main(["stein-check", "--v", "1,2", "--sigma", "1,4", "--trials", "10000",
                     "--c", c]) == 2
        captured = capsys.readouterr()
        assert "c must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("v, sigma, extra, name", [
        ("1e308,1", "1,4", [], "v"),
        ("1e150,1", "1,4", [], "v"),
        ("1,2", "1,4", ["--c", "1e308"], "v, sigma, c:"),
        ("1,2", "1e-320,1", [], "sigma"),
        (",", "1,4", [], "--v"),
        ("1,2", "1,4", ["--trials", "9999"], "trials: must be >= 10^4"),
    ], ids=["v-overflow", "v-underflow", "c-underflow", "sigma-subnormal", "v-empty",
            "too-few-trials"])
    def test_unusable_vector_exit_2(self, capsys, v, sigma, extra, name):
        # Overflow gives a typed error naming the inputs, not a NaN row
        # behind RuntimeWarnings, and so does a coordinate whose per-draw
        # differences underflow to a zero stderr under a nonzero
        # discrepancy, whether a large v or a large c makes them; an empty
        # list, and too few trials, are usage errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stein-check", "--v", v, "--sigma", sigma, "--trials", "10000"]
                        + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name}")
        assert captured.out == ""

    def test_large_mean_passes(self, capsys):
        # v + z rounds to v at 1e20; the residual v - v_hat is taken as -z,
        # so the check does not read a zero rhs and a zero stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stein-check", "--v", "1e20,1", "--sigma", "1,4", "--trials", "100000",
                         "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("PASS")

    def test_undefined_g_exit_3(self, capsys):
        # g = v / (c + v' diag(sigma)^-1 v) is undefined at c = 0 with v = 0.
        assert main(["stein-check", "--v", "0,0", "--sigma", "1,4", "--c", "0",
                     "--trials", "10000"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: g is undefined at c=0 with v=0")
        assert captured.out == ""

    def test_negative_seed_exit_2(self, capsys):
        assert main(["stein-check", "--v", "1,2", "--sigma", "1,4", "--trials", "10000",
                     "--seed", "-1"]) == 2
        assert "seed: must be a non-negative integer" in capsys.readouterr().err

"""Tests of the benchmark's own code (not of blindmm).

Run with ``python3 -m pytest bench/tests -q``; they need no blindmm import.
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
EPS0 = 5.5


def _csv(rows):
    header = "scenario,estimator,snr_db,sweep_key,mse_mean,mse_stderr,trials,seed"
    lines = [header] + [f"fig5b-range,{e},0.0,rand-000,{m!r},{s!r},8192,1" for e, m, s in rows]
    return "\n".join(lines) + "\n"


class TestChecks:
    def test_unbiased_ls_row_passes(self):
        assert checks.check_results(_csv([("ls", EPS0 + 0.01, 0.05), ("sbme", 3.0, 0.04)]), EPS0, 2) == (2, 0)

    def test_biased_ls_row_is_flagged(self):
        # 0.3 above the oracle is 6 standard errors: outside the 5-sigma gate.
        text = _csv([("ls", EPS0 + 0.3, 0.05), ("sbme", 3.0, 0.04)])
        assert checks.check_results(text, EPS0, 2) == (2, 1)

    def test_oracle_applies_only_to_ls(self):
        assert checks.check_results(_csv([("sbme", EPS0 + 1.0, 0.01)]), EPS0, 1) == (1, 0)

    @pytest.mark.parametrize("mse", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_mse_is_flagged(self, mse):
        assert checks.check_results(_csv([("bock", mse, 0.01)]), EPS0, 1) == (1, 1)

    def test_wrong_row_count_fails_every_row(self):
        assert checks.check_results(_csv([("ls", EPS0, 0.05)]), EPS0, 4) == (4, 4)

    def test_stein_output(self):
        table = (
            "  i          lhs          rhs       |diff|       stderr\n"
            "  0     0.120000     0.120100       0.0001        0.001\n"
            "  1     0.050000     0.050000            0        0.001\n"
        )
        assert checks.check_stein(table + checks.STEIN_PASS + "\n", 2) == (2, 0)
        assert checks.check_stein(table.replace("0.0001", "0.0050"), 2) == (2, 2)
        assert checks.check_stein(table.replace("0.0001", "0.0050") + checks.STEIN_PASS, 2) == (2, 1)


class TestTally:
    def test_differing_output_fails_the_call(self):
        calls = [run.Call(1.0, "a", 4, 0), run.Call(1.0, "a", 4, 1), run.Call(1.0, "b", 4, 0)]
        assert run.tally(calls) == (12, 5)


class TestSelfTime:
    def spans(self):
        # root [0, 10] -> a [1, 4] -> c [2, 3]; root -> b [5, 9]
        return [
            Span("root", "cli", 0.0, 10.0, None),
            Span("a", "sim", 1.0, 4.0, 0),
            Span("c", "rng", 2.0, 3.0, 1),
            Span("b", "io", 5.0, 9.0, 0),
        ]

    def test_self_times(self):
        assert tracing.self_times(self.spans()) == [3.0, 2.0, 1.0, 4.0]

    def test_self_times_add_up_to_root(self):
        spans = self.spans()
        assert sum(tracing.self_times(spans)) == spans[0].end - spans[0].start

    def test_by_layer(self):
        by_layer = tracing.layer_self_times(self.spans())
        assert by_layer == {"cli": 3.0, "scenarios": 0.0, "sim": 2.0, "rng": 1.0, "estimators": 0.0, "io": 4.0}

    def test_overlapping_children_are_counted_once(self):
        spans = [Span("p", "sim", 0.0, 10.0, None), Span("x", "rng", 1.0, 6.0, 0), Span("y", "rng", 4.0, 12.0, 0)]
        assert tracing.self_times(spans)[0] == 1.0


@pytest.fixture
def fake_package(monkeypatch):
    """Two modules: ``fakepkg.lib`` defines ``work``, ``fakepkg.app`` imports it."""
    lib = types.ModuleType("fakepkg.lib")
    app = types.ModuleType("fakepkg.app")

    def work(n):
        return [0.0] * n

    lib.work = work
    app.work = work
    app.run = lambda n: app.work(n)
    monkeypatch.setitem(sys.modules, "fakepkg.lib", lib)
    monkeypatch.setitem(sys.modules, "fakepkg.app", app)
    return lib, app


class TestWrapping:
    def test_every_binding_is_wrapped_and_restored(self, fake_package):
        lib, app = fake_package
        original = lib.work
        targets = (tracing.Target("fakepkg.lib", "work", "rng", "rng.normals", len),)
        tracer = tracing.Tracer()
        with tracing.installed(tracer, targets, ("fakepkg.lib", "fakepkg.app")):
            app.run(3)
            lib.work(2)
        assert lib.work is original and app.work is original
        assert [s.name for s in tracer.spans] == ["work", "work"]
        assert tracer.counts == {"rng.calls": 2, "rng.normals": 5}

    def test_missing_target_reports_its_layer(self, fake_package):
        targets = (
            tracing.Target("fakepkg.lib", "work", "rng"),
            tracing.Target("fakepkg.lib", "gone", "estimators"),
            tracing.Target("fakepkg.nomodule", "work", "io"),
        )
        assert tracing.missing_layers(targets) == {
            "estimators": ["fakepkg.lib.gone"],
            "io": ["fakepkg.nomodule.work"],
        }
        tracer = tracing.Tracer()
        with tracing.installed(tracer, targets, ("fakepkg.lib",)):
            fake_package[0].work(1)
        assert tracer.counts == {"rng.calls": 1}


class TestNames:
    def all_names(self):
        bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        return declared, run.trace_metric_names() + layers.metric_names()

    def test_metric_names_are_well_formed(self):
        declared, produced = self.all_names()
        for name in declared + produced:
            assert NAME_RE.fullmatch(name), name
            assert len(name) <= 64 and name[0].isalnum(), name

    def test_per_layer_metrics_match_what_the_run_reports(self):
        bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        _, produced = self.all_names()
        assert sorted(m["name"] for m in bench["per_layer"]) == sorted(produced)

"""The benchmark's span tracer (``bench/tracing.py``, imported read-only)
around one small experiment and one stein-check: every target it wraps
still resolves, and the noise helper thread never enters its span stack,
which is single-threaded, so spans nest and self times add up to the root;
and every blindmm name that a ``bench/*.py`` file imports still resolves."""

import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import math
import sys
import threading
from pathlib import Path

import pytest

from blindmm.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def experiment_argv(tmp_path):
    # One group of three chunks, so the helper thread draws while tracing.
    config = tmp_path / "cfg.json"
    config.write_text('{"scenario": "fig5b-range", "estimators": ["ls", "sbme", "ebme:b=-1"],'
                      ' "snr_grid_db": [-10.0, 0.0, 10.0], "directions": [{"random-sphere": 1}],'
                      ' "trials": 9000, "seed": 7}')
    return ["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]


STEIN_ARGV = ["stein-check", "--v", "1,2", "--sigma", "1,4", "--trials", "10000", "--seed", "7"]


@pytest.mark.parametrize("command", ["experiment", "stein-check"])
def test_traced_call_is_consistent(tracing, experiment_argv, command):
    assert tracing.missing_layers() == {}
    argv = experiment_argv if command == "experiment" else STEIN_ARGV
    threads = set()

    class Tracer(tracing.Tracer):
        def span(self, name, layer):
            threads.add(threading.get_ident())
            return super().span(name, layer)

    tracer = Tracer()
    with tracing.installed(tracer):
        with tracer.span(tracing.ROOT_NAME, "cli"), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert threads == {threading.get_ident()}
    # Later blocks are numpy fills keyed by normal_fill, drawn by either
    # thread: the one traced draw is the first chunk's.
    assert tracer.counts["rng.calls"] == 1
    spans = tracer.spans
    root = spans[0]
    assert root.parent is None and all(s.parent is not None for s in spans[1:])
    for s in spans[1:]:  # each span lies inside its parent
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    self_times = tracing.self_times(spans)
    assert all(t >= 0.0 for t in self_times)
    assert math.isclose(sum(self_times), root.end - root.start, rel_tol=1e-9)
    assert tracer.counts["rng.normals"] > 0 and tracer.counts["sim.points"] >= 1



def _bench_imports():
    """``(file, dotted name)`` for each ``import blindmm...`` and ``from
    blindmm... import name`` in ``bench/*.py``, and for each ``name.attr``
    read off a name that such an import binds."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out += [(path.name, a.name) for a in node.names if a.name.startswith("blindmm")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blindmm"):
                for a in node.names:
                    bound[a.asname or a.name] = f"{node.module}.{a.name}"
                    out.append((path.name, bound[a.asname or a.name]))
        out += [(path.name, f"{bound[node.value.id]}.{node.attr}") for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound]
    return out


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or attributes reached from the longest module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            functools.reduce(getattr, parts[i:], obj)
        except AttributeError:
            return False
        return True
    return False


def test_bench_imports_resolve():
    # A name the benchmark imports from blindmm, or reads off what it
    # imports, that no longer resolves fails its run or, in layers.py and
    # setup_probe.py, shows only as a "missing:" line or dropped metrics.
    imports = _bench_imports()
    assert {file for file, _ in imports} >= {"layers.py", "run.py", "setup_probe.py"}
    assert [(file, name) for file, name in imports if not _resolves(name)] == []

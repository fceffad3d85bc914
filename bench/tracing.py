"""Span tracing of blindmm's layers, applied from outside the package.

The tracer replaces public module attributes with timing wrappers for the
duration of one ``with installed(...)`` block and restores them afterwards,
so the program itself is never edited. A target that no longer exists is
recorded as missing and its whole layer is left out of the report rather
than reported from partial counts.

Traced runs are single-threaded (``--workers 1``): spans nest strictly, so
a layer's self time is its spans' durations minus the time their direct
children cover, and the self times of all spans add up to the root span.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
from dataclasses import asdict, dataclass

# Modules whose bindings are rewritten. A name imported by value into
# another module (``from blindmm.sim import run_experiment`` in the CLI) is
# a separate binding of the same function, so every binding is replaced.
TRACED_MODULES = ("blindmm.cli", "blindmm.sim", "blindmm.scenarios")

LAYERS = ("cli", "scenarios", "sim", "rng", "estimators", "io")

ROOT_NAME = "cli.main"


def _normals(result):
    return int(getattr(result, "size", 0))


def _points(result):
    # Distinct (snr, sweep_key) pairs: one per Monte Carlo grid point.
    return len({(row.snr_db, row.sweep_key) for row in result})


def _one(result):
    return 1


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    layer: str
    counter: str | None = None
    count: object = None


TARGETS = (
    Target("blindmm.sim", "normal_block", "rng", "rng.normals", _normals),
    Target("blindmm.scenarios", "normal_block", "rng", "rng.normals", _normals),
    Target("blindmm.sim", "estimate_from_ls", "estimators"),
    Target("blindmm.scenarios", "estimate_from_ls", "estimators"),
    Target("blindmm.scenarios", "preset", "scenarios"),
    Target("blindmm.scenarios", "resolve_cases", "scenarios"),
    # The fig2-dct report pass: its model rebuild and inline loop are
    # scenarios-module work that no other wrapped name covers.
    Target("blindmm.scenarios", "run_dct_demo", "scenarios"),
    Target("blindmm.sim", "run_experiment", "sim", "sim.points", _points),
    Target("blindmm.sim", "stein_lemma_check", "sim", "sim.points", _one),
    Target("blindmm.sim", "write_results_csv", "io"),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span and count recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def wrap(self, fn, name: str, layer: str, counter=None, count=None):
        calls = f"{layer}.calls"

        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            self.add(calls, 1)
            if counter is not None:
                self.add(counter, count(result))
            return result

        return traced


class TracingWriter(io.StringIO):
    """Captured stdout whose writes are ``io`` spans (the printed report)."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def write(self, text):
        with self._tracer.span("stdout.write", "io"):
            return super().write(text)


def _resolve(t: Target):
    """The function a target names, or None when it no longer exists."""
    try:
        fn = getattr(importlib.import_module(t.module), t.attr, None)
    except ImportError:
        return None
    return fn if callable(fn) else None


def missing_layers(targets=TARGETS) -> dict[str, list[str]]:
    """Layers with at least one unresolvable target, and those targets."""
    out: dict[str, list[str]] = {}
    for t in targets:
        if _resolve(t) is None:
            out.setdefault(t.layer, []).append(f"{t.module}.{t.attr}")
    return out


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS, modules=TRACED_MODULES):
    """Wrap every resolvable target in ``tracer`` and restore on exit.

    One wrapper is made per function object, so a function bound in two
    modules is counted once per call.
    """
    mods = [importlib.import_module(m) for m in modules]
    wrappers = {}
    for t in targets:
        fn = _resolve(t)
        if fn is not None and id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn, t.attr, t.layer, t.counter, t.count)
    saved = []
    try:
        for mod in mods:
            for key, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    saved.append((mod, key, value))
                    setattr(mod, key, wrapper)
        yield tracer
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + t
    return totals


def spans_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]

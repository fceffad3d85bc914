"""Per-layer microbenchmarks on fixed inputs.

Each function returns ``{metric_name: (value, unit)}``. Inputs come from a
fixed generator seed, not from the workload seed, so the figures of two
commits describe the same work. ``run_all`` isolates each benchmark: one
that fails (for instance because a later refactor renamed the function it
calls) is reported as missing and the rest still run.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback

import numpy as np

INPUT_SEED = 20070920
BATCH = 4096  # one Monte Carlo chunk of trials
ESTIMATOR_SPECS = (
    "ls", "sbme", "shrinkc:c=1", "offcenter:file=x0", "ebme:b=-1",
    "bbm", "pbm", "bock", "tik1", "tik2",
)
RNG_WIDTHS = (2, 10, 100)


def median_seconds(fn, min_reps: int, min_seconds: float) -> float:
    """Median wall time of ``fn()`` over at least ``min_reps`` calls and
    ``min_seconds`` of total time, after one untimed warm-up call."""
    fn()
    times = []
    total = 0.0
    while len(times) < min_reps or total < min_seconds:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times)


def _spd(rng, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return a @ a.T / m + np.eye(m)


def _model_inputs(m: int):
    """An orthonormal design with diagonal noise, ten components 1000x
    noisier than the rest: the structure of the fig2-dct model."""
    rng = np.random.default_rng(INPUT_SEED + m)
    h, _ = np.linalg.qr(rng.standard_normal((m, m)))
    variances = np.full(m, 0.01)
    variances[-min(10, m // 2):] = 10.0
    return h, np.diag(variances)


def bench_sym_eig() -> dict:
    from blindmm.linalg import sym_eig

    out = {}
    for m, reps in ((15, 15), (100, 3)):
        a = _spd(np.random.default_rng(INPUT_SEED + m), m)
        t = median_seconds(lambda: sym_eig(a), reps, 0.2)
        out[f"linalg.sym_eig_ms.m{m}"] = (t * 1e3, "ms")
    return out


def bench_model(models: dict) -> dict:
    """Times ``build_model`` and the LS projection; leaves the built models
    in ``models`` for the estimator benchmark."""
    from blindmm.model import build_model, ls_estimate

    out = {}
    for m, reps in ((10, 15), (100, 3)):
        h, cw = _model_inputs(m)
        t = median_seconds(lambda: build_model(h, cw), reps, 0.2)
        out[f"model.build_model_ms.m{m}"] = (t * 1e3, "ms")
        model = models[m] = build_model(h, cw)
        y = np.random.default_rng(INPUT_SEED).standard_normal((BATCH, m))
        t = median_seconds(lambda: ls_estimate(model, y), 10, 0.2)
        out[f"model.ls_estimate_ns_per_trial.m{m}"] = (t / BATCH * 1e9, "ns")
    return out


def bench_rng() -> dict:
    from blindmm.rng import normal_block

    streams = np.arange(BATCH, dtype=np.uint64)
    out = {}
    for width in RNG_WIDTHS:
        t = median_seconds(lambda: normal_block(INPUT_SEED, streams, width), 5, 0.3)
        out[f"rng.normals_per_s.w{width}"] = (BATCH * width / t, "1/s")
    return out


def bench_estimators(models: dict) -> dict:
    from blindmm.estimators import estimate_from_ls, parse_estimator_spec

    out = {}
    for m in (10, 100):
        model = models[m]
        rng = np.random.default_rng(INPUT_SEED + 1)
        x = rng.standard_normal(m)
        xls = x + rng.standard_normal((BATCH, m))
        for text in ESTIMATOR_SPECS:
            spec = parse_estimator_spec(text, vector_loader=lambda _: 0.5 * x)
            t = median_seconds(lambda: estimate_from_ls(model, spec, xls), 5, 0.15)
            out[f"estimators.{text.split(':')[0]}.ns_per_trial.m{m}"] = (t / BATCH * 1e9, "ns")
    return out


def metric_names() -> list[str]:
    """Every name ``run_all`` reports when nothing is missing."""
    names = [f"linalg.sym_eig_ms.m{m}" for m in (15, 100)]
    for m in (10, 100):
        names += [f"model.build_model_ms.m{m}", f"model.ls_estimate_ns_per_trial.m{m}"]
    names += [f"rng.normals_per_s.w{w}" for w in RNG_WIDTHS]
    for m in (10, 100):
        names += [f"estimators.{s.split(':')[0]}.ns_per_trial.m{m}" for s in ESTIMATOR_SPECS]
    return names


def run_all() -> tuple[dict, list[str]]:
    """All microbenchmarks: ``(metrics, names of failed benchmarks)``."""
    models: dict = {}
    metrics: dict = {}
    failed = []
    for name, fn in (
        ("linalg", bench_sym_eig),
        ("model", lambda: bench_model(models)),
        ("rng", bench_rng),
        ("estimators", lambda: bench_estimators(models)),
    ):
        try:
            metrics.update(fn())
        except Exception:  # a missing or reshaped API must not stop the run
            traceback.print_exc(file=sys.stderr)
            failed.append(name)
    return metrics, failed

"""blindmm benchmark: Monte Carlo workloads driven through the CLI.

Usage::

    python3 bench/run.py --workload range-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy. Each
workload calls ``blindmm.cli.main`` in-process with arguments made from
``--seed`` and repeats the call for ``--seconds`` seconds, one call at a
time (a closed loop with one client).

``--trace 0`` reports the end-to-end metrics:

* ``trials_per_s_1w``: grid points x trials divided by the wall time of
  one CLI call at ``--workers 1`` (median over the calls of the run). One
  untimed call at ``--workers 2`` comes first, as warm-up and so that the
  gate can compare its output with the timed calls'.
* ``setup_s``: median over five fresh interpreters of importing the CLI and
  building the workload's scenario models (``setup_probe.py``).
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` reports the per-layer metrics: the layer microbenchmarks of
``layers.py``, a traced run at ``--workers 1`` (``tracing.py``), whose
spans are written to ``bench/_out/``, and the throughput at ``--workers 2``
(``sim.trials_per_s_w2``, and ``sim.worker_speedup`` over ``--workers 1``).
The two-worker time is not an end-to-end metric: on a small virtual
machine whose host is busy, each hand-over of the interpreter lock between
the two threads waits for the host to wake the other virtual CPU, and the
throughput at ``--workers 2`` then swings by a factor of two from minute
to minute while the one-worker throughput moves by a fraction of that.
``stein-check`` has no worker option, so there both settings time the
same command.

Every call's output passes the gate in ``checks.py`` and must be identical
across calls. The last stdout line is one JSON object with ``correct``,
``attempted`` and ``failed`` (results rows checked and rows that failed)
and ``metrics``. The exit code is 1 when a row failed, 2 when the package
cannot be found.
"""

import os

# Pin BLAS to one thread before numpy is first imported, here and in the
# set-up probes (which inherit the environment): with --workers 2 the load
# then uses at most the two cores of the reference machine.
BLAS_PIN_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "_out"

SETUP_PROBES = 5
MIN_CALLS = 3  # timed calls per setting, even when a call outlasts --seconds

SNR_GRID_DB = [-10.0 + 2.5 * i for i in range(13)]
RANGE_ESTIMATORS = ["ls", "sbme", "ebme:b=-1", "bock"]
# One direction per call keeps a call short (about 0.4 s), so the median is
# taken over dozens of calls; the grid points themselves stay small.
RANGE_DIRECTIONS = 1
RANGE_TRIALS = 8192  # two chunks per point, so both workers have work
DCT_TRIALS = 65536  # the Monte Carlo, not the model rebuild, dominates a call
STEIN_TRIALS = 10**6
STEIN_COORDINATES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str | None  # built-in scenario, for set-up and the LS oracle
    points: int
    trials: int
    rows: int  # result rows per call (CSV rows, or identity-check coordinates)

    def argv(self, seed: int, workers: int, out: Path) -> list[str]:
        common = ["--out", str(out), "--seed", str(seed), "--workers", str(workers)]
        if self.name == "range-sweep":
            return ["experiment", "--config", str(range_config())] + common
        if self.name == "dct-wide":
            return ["scenario", "fig2-dct", "--trials", str(DCT_TRIALS)] + common
        return [
            "stein-check", "--v", "1,2", "--sigma", "1,4",
            "--trials", str(STEIN_TRIALS), "--seed", str(seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "range-sweep", "fig5b-range", RANGE_DIRECTIONS * len(SNR_GRID_DB),
            RANGE_TRIALS, len(RANGE_ESTIMATORS) * RANGE_DIRECTIONS * len(SNR_GRID_DB),
        ),
        Workload("dct-wide", "fig2-dct", 1, DCT_TRIALS, 3),
        Workload("stein-narrow", None, 1, STEIN_TRIALS, STEIN_COORDINATES),
    )
}

TRACE_SELF = ("cli", "scenarios", "sim", "rng", "estimators", "io")
TRACE_COUNTS = ("rng.calls", "rng.normals", "estimators.calls", "sim.points")
TRACE_LAYER_OF_METRIC = {
    **{f"trace.{layer}.self_s": layer for layer in TRACE_SELF},
    **{f"trace.{c}": c.split(".")[0] for c in TRACE_COUNTS},
}


def trace_metric_names() -> list[str]:
    return list(TRACE_LAYER_OF_METRIC) + [
        "trace.root_s", "trace.overhead_frac", "sim.trials_per_s_w2", "sim.worker_speedup",
    ]


def range_config() -> Path:
    """The range-sweep config: random directions of the fig5b model, drawn
    by the CLI from the workload seed."""
    path = OUT / "range-sweep.json"
    config = {
        "scenario": "fig5b-range",
        "estimators": RANGE_ESTIMATORS,
        "snr_grid_db": SNR_GRID_DB,
        "directions": [{"random-sphere": RANGE_DIRECTIONS}],
        "trials": RANGE_TRIALS,
    }
    path.write_text(json.dumps(config))
    return path


# --- machine facts -----------------------------------------------------------


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout is not stable
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_pin": {v: os.environ[v] for v in BLAS_PIN_VARS},
    }


def os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


# --- one CLI call ------------------------------------------------------------


@dataclass
class Call:
    wall: float
    digest: str
    attempted: int
    failed: int


def call_cli(wl: Workload, seed: int, workers: int, eps0, tracer=None) -> Call:
    from blindmm.cli import main

    out = OUT / f"{wl.name}-{seed}.csv"
    out.unlink(missing_ok=True)
    argv = wl.argv(seed, workers, out)
    stdout = tracing.TracingWriter(tracer) if tracer else io.StringIO()
    root = tracer.span(tracing.ROOT_NAME, "cli") if tracer else contextlib.nullcontext()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with root, contextlib.redirect_stdout(stdout):
            rc = main(argv)
    except Exception:  # a crash fails this call's rows; the run reports it
        traceback.print_exc(file=sys.stderr)
        rc = -1
    wall = time.perf_counter() - t0

    text = stdout.getvalue()
    csv_text = out.read_text() if out.exists() else ""
    digest = hashlib.sha256((csv_text + "\0" + text).encode()).hexdigest()
    if rc != 0:
        attempted, failed = wl.rows, wl.rows
    elif wl.scenario is None:
        attempted, failed = checks.check_stein(text, wl.rows)
    else:
        attempted, failed = checks.check_results(csv_text, eps0, wl.rows)
    return Call(wall, digest, attempted, failed)


def ls_risk(scenario: str) -> float:
    """``tr(Q^-1)`` from the scenario's ``H`` and ``Cw`` with numpy's own
    solver, independent of the package's eigendecomposition."""
    import numpy as np
    from blindmm import scenarios

    cases, _ = scenarios.resolve_cases(scenario)
    model = cases[0][1]
    q = model.H.T @ np.linalg.solve(model.Cw, model.H)
    return float(np.trace(np.linalg.inv(q)))


def tally(calls: list[Call]) -> tuple[int, int]:
    """Rows attempted and failed; a call whose output differs from the
    first call's fails all its rows."""
    reference = calls[0].digest
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.attempted if c.digest != reference else c.failed for c in calls)
    return attempted, failed


def interleave(*runs, seconds: float) -> list[list[Call]]:
    """Call each of ``runs`` in turn until ``seconds`` have passed and each
    ran ``MIN_CALLS`` times; one list of calls per run."""
    done = [[] for _ in runs]
    deadline = time.perf_counter() + seconds
    while len(done[-1]) < MIN_CALLS or time.perf_counter() < deadline:
        for run, calls in zip(runs, done):
            calls.append(run())
    return done


# --- the two kinds of run ------------------------------------------------------


def setup_seconds(wl: Workload) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    if wl.scenario is not None:
        cmd.append(wl.scenario)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(wl: Workload, seed: int, seconds: float, eps0) -> tuple[dict, list[Call]]:
    setup = setup_seconds(wl)
    check = call_cli(wl, seed, 2, eps0)
    [one] = interleave(lambda: call_cli(wl, seed, 1, eps0), seconds=seconds)
    work = wl.points * wl.trials
    metrics = {
        "trials_per_s_1w": (statistics.median(work / c.wall for c in one), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, [check] + one


def traced(wl: Workload, seed: int, seconds: float, eps0) -> tuple[dict, list[Call], list[str]]:
    import layers

    passes = []

    def traced_call():
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            call = call_cli(wl, seed, 1, eps0, tracer)
        passes.append(tracer)
        return call

    plain, traced_calls, two = interleave(
        lambda: call_cli(wl, seed, 1, eps0), traced_call, lambda: call_cli(wl, seed, 2, eps0),
        seconds=seconds,
    )

    # Report the pass with the median root span, so its self times add up
    # to the reported root exactly.
    def root_s(t):
        return t.spans[0].end - t.spans[0].start

    tracer = sorted(passes, key=root_s)[len(passes) // 2]
    by_layer = tracing.layer_self_times(tracer.spans)
    gone = tracing.missing_layers()
    metrics = {}
    for name, layer in TRACE_LAYER_OF_METRIC.items():
        if layer in gone:
            continue
        if name.endswith(".self_s"):
            metrics[name] = (by_layer[layer], "s")
        else:
            metrics[name] = (tracer.counts.get(name[len("trace."):], 0), "count")
    metrics["trace.root_s"] = (root_s(tracer), "s")
    untraced = statistics.median(c.wall for c in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(c.wall for c in traced_calls) / untraced - 1.0, "ratio"
    )
    two_workers = statistics.median(c.wall for c in two)
    metrics["sim.trials_per_s_w2"] = (wl.points * wl.trials / two_workers, "1/s")
    metrics["sim.worker_speedup"] = (untraced / two_workers, "ratio")

    layer_metrics, failed_benches = layers.run_all()
    metrics.update(layer_metrics)

    missing = [f"{layer} ({', '.join(names)})" for layer, names in gone.items()]
    missing += [f"{name} microbenchmarks" for name in failed_benches]
    dump = OUT / f"trace-{wl.name}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": wl.name,
        "seed": seed,
        "machine": machine_facts(),
        "self_s_by_layer": by_layer,
        "counts": tracer.counts,
        "missing": missing,
        "spans": tracing.spans_json(tracer.spans),
    }))
    print(f"spans written to {dump.relative_to(BENCH_DIR.parent)}")
    print(f"self times add up to {sum(by_layer.values())!r} s; root span {root_s(tracer)!r} s")
    return metrics, plain + traced_calls + two, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blindmm" / "__init__.py").is_file():
        print(f"error: no blindmm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload]
    eps0 = ls_risk(wl.scenario) if wl.scenario else None
    missing: list[str] = []
    if args.trace:
        metrics, calls, missing = traced(wl, args.seed, args.seconds, eps0)
    else:
        metrics, calls = end_to_end(wl, args.seed, args.seconds, eps0)
    attempted, failed = tally(calls)

    facts = machine_facts()
    facts["os_threads_after_run"] = os_threads()
    print("machine: " + json.dumps(facts))
    print(f"workload {wl.name} seed {args.seed}: {len(calls)} CLI calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!r} {unit}")
    print(f"  {'rows_failed_frac':<44} {failed / attempted!r} ({failed}/{attempted} rows)")
    for item in missing:
        print(f"  missing: {item}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

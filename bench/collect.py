"""Run the benchmark over several seeds and summarise the spread.

Usage::

    python3 bench/collect.py --seeds 10 [--first-seed 1] [--workloads a,b]
                             [--trace] [--out bench/results/BENCH_1.json]

For each workload, runs ``run.py --trace 0`` once per seed, one run at a
time, and prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) next to its
bound from ``BENCHMARK.json``. ``--trace`` adds one ``--trace 1`` run per
workload. ``--out`` writes every run and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Figures from the ROADMAP's baseline of the seed commit, for the
# cross-check of a traced baseline.
ROADMAP = {
    "sym_eig_ms.m100": 1436.0,
    "normals_per_s": [4e6, 5e6],
    "rng_share_of_fig5b_point": 0.55,
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(seed=seed, returncode=done.returncode)
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def cross_check(traces: dict) -> dict:
    out = {"roadmap": ROADMAP}
    values = [t["metrics"] for t in traces.values()]
    if values:
        def med(name):
            return statistics.median(v[name]["value"] for v in values if name in v)

        out["sym_eig_ms.m100"] = med("linalg.sym_eig_ms.m100")
        out["normals_per_s"] = {f"w{w}": med(f"rng.normals_per_s.w{w}") for w in (2, 10, 100)}
    sweep = traces.get("range-sweep", {}).get("metrics", {})
    if sweep:
        layers = ("sim", "rng", "estimators")
        total = sum(sweep[f"trace.{layer}.self_s"]["value"] for layer in layers)
        out["rng_share_of_fig5b_point"] = sweep["trace.rng.self_s"]["value"] / total
        out["estimators_share_of_fig5b_point"] = sweep["trace.estimators.self_s"]["value"] / total
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=None, help="write all runs and the summary here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {"run_seconds": bench["run_seconds"], "workloads": {}, "traces": {}}

    for name in names:
        runs = [run_once(name, s, bench["run_seconds"], 0) for s in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {"rows_failed_frac": failed / attempted}
        print(f"{name}: {len(runs)} runs, rows_failed_frac {failed}/{attempted}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            s.update(unit=metric["unit"], bound=metric["bound"])
            summary[metric["name"]] = s
            print(
                f"  {metric['name']:<18} median {s['median']:.6g} {metric['unit']:<6}"
                f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                f" (bound {metric['bound']}, {s['spread'] / metric['bound']:.2f} of it)"
            )
        report["workloads"][name] = {"summary": summary, "runs": runs}
        if args.trace:
            trace = run_once(name, args.first_seed, bench["run_seconds"], 1)
            report["traces"][name] = trace
            for metric, v in trace["metrics"].items():
                print(f"  {metric:<44} {v['value']!r} {v['unit']}")

    if args.trace:
        report["cross_check"] = cross_check(report["traces"])
        print("cross-check against the ROADMAP figures:", json.dumps(report["cross_check"]))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

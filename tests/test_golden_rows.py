"""Recorded outputs: every built-in scenario's rows and one identity check
equal the numbers in ``golden_rows.json`` (rtol 1e-12).

Each scenario runs its preset's rules and grid with random directions
capped at 2, at 9000 trials and seed 7: each pass has three chunks, the
last one short, and the helper thread draws. ``stein_lemma_check([1, 2],
[1, 4], 1.0, 10**4, 7)`` covers the narrow-stream path. An engine change
that keeps its streams, chunking and fold order keeps these numbers.

After an intended change to the streams or the fold, re-record from the
repository root and commit the new file with the change that explains it::

    PYTHONPATH=src python tests/test_golden_rows.py --record
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from blindmm import scenarios, sim

GOLDEN = pathlib.Path(__file__).with_name("golden_rows.json")
TRIALS, SEED = 9000, 7


def _directions(preset):
    return [{"random-sphere": min(d["random-sphere"], 2)} if isinstance(d, dict) and
            "random-sphere" in d else d for d in preset.directions]


def compute():
    """The recorded numbers: per scenario, ``[estimator, snr_db, sweep_key,
    mse_mean, mse_stderr, mean gain]`` rows in ``run_experiment``'s order."""
    out = {}
    for name in scenarios.SCENARIO_NAMES:
        config = sim.ExperimentConfig(scenario=name, trials=TRIALS, seed=SEED,
                                      directions=_directions(scenarios.preset(name)))
        out[name] = [[r.estimator, r.snr_db, r.sweep_key, r.mse_mean, r.mse_stderr,
                      float(np.mean(r.gain_mean))] for r in sim.run_experiment(config)]
    res = sim.stein_lemma_check([1, 2], [1, 4], 1.0, 10**4, SEED)
    out["stein-check"] = [res.lhs.tolist(), res.rhs.tolist(), res.stderr.tolist()]
    return out


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("name", [*scenarios.SCENARIO_NAMES, "stein-check"])
def test_matches_recording(name, computed):
    golden = json.loads(GOLDEN.read_text())[name]
    got = computed[name]
    if name != "stein-check":
        assert [row[:3] for row in got] == [row[:3] for row in golden]
        got, golden = [row[3:] for row in got], [row[3:] for row in golden]
    np.testing.assert_allclose(np.array(got), np.array(golden), rtol=1e-12, atol=0)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text("{\n" + ",\n".join(  # one row a line
        f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
        for name, rows in compute().items()) + "\n}\n")

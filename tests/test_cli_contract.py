"""The CLI contract on generated inputs: every ``main(argv)`` call of
``experiment`` (inline diagonal models), ``check`` and ``estimate`` (CSV
models) with entries from subnormal to near float64's largest value, zero
and wrong-length directions and SNRs up to 3000 dB returns 0, 2, 3 or 4,
raises nothing and issues no warning; on exit 0, every number it writes to
a CSV or prints is finite."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, given, strategies as st  # noqa: E402

from blindmm.cli import main  # noqa: E402
from blindmm.linalg import write_matrix_csv  # noqa: E402

EXTREMES = [1e-310, 1e-200, 1e-160, 1e150, 1e160, 1e200, 1e300, 1.7e308]
SIGNED, WITH_ZEROS = (1.0, -1.0), (1.0, -1.0, 0.0)
TAGS = ["ls", "sbme", "bbm", "pbm", "bock", "tik1", "tik2", "ebme:b=-1", "shrinkc:c=2.5"]


@st.composite
def spectra(draw, size, signs=(1.0,)):
    """``size`` entries: mostly factors in [0.5, 1] times one scale (1 or an
    extreme), else extremes and ordinary floats mixed; each times one of ``signs``."""
    if draw(st.integers(0, 3)):
        scale = draw(st.sampled_from([1.0] * 4 + EXTREMES))
        values = [scale * f for f in draw(st.lists(st.floats(0.5, 1.0), min_size=size,
                                                   max_size=size))]
    else:
        values = draw(st.lists(st.one_of(st.sampled_from(EXTREMES), st.floats(1e-3, 1e3)),
                               min_size=size, max_size=size))
    return [v * draw(st.sampled_from(signs)) for v in values]


def numbers(text):
    """Every token of ``text`` that parses as a float ("nan" in "dominance" does not)."""
    out = []
    for token in re.split(r"[\s,\[\]():=]+", text):
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


def run(argv, out_path=None):
    """``main(argv)``'s exit code and the numbers of its stdout and output CSV."""
    stdout = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert caught == [], [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4), code
    found = numbers(stdout.getvalue())
    if code == 0 and out_path is not None:
        with open(out_path, encoding="utf-8") as fh:
            found += numbers(fh.read())
    if code == 0:
        assert found and all(math.isfinite(v) for v in found), stdout.getvalue()
    return code


@st.composite
def directions(draw, m):
    policy = draw(st.sampled_from(["max", "min", "sphere", "vector", "zero", "short"]))
    if policy in ("max", "min"):
        return f"{policy}-eigenvector"
    if policy == "sphere":
        return {"random-sphere": draw(st.integers(1, 2))}
    size = m + 1 if policy == "short" and m == 1 else m - 1 if policy == "short" else m
    return {"vector": [0.0] * m if policy == "zero" else draw(spectra(size, WITH_ZEROS))}


@st.composite
def experiments(draw):
    m = draw(st.integers(1, 3))
    return {
        "scenario": {"H": {"diag": draw(spectra(m, SIGNED))},
                     "Cw": {"diag": draw(spectra(m))}},
        "estimators": draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=4, unique=True)),
        "snr_grid_db": draw(st.lists(st.one_of(st.floats(-100.0, 3000.0), st.sampled_from(
            [-3000.0, 0.0, 3000.0])), min_size=1, max_size=3, unique=True)),
        "directions": draw(st.lists(directions(m), min_size=1, max_size=2)),
        "trials": draw(st.integers(2, 40)),
        "seed": draw(st.integers(0, 5)),
    }


@st.composite
def csv_models(draw):
    n = draw(st.integers(1, 3))
    h = np.diag(draw(spectra(n, SIGNED)))
    if n > 1 and draw(st.booleans()):
        h[0, 1] = draw(spectra(1, WITH_ZEROS))[0]  # a coupling that rotates Q's eigenbasis
    cw, y = np.diag(draw(spectra(n))), np.array(draw(spectra(n, WITH_ZEROS)))
    return h, cw, y, draw(st.sampled_from(TAGS))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(experiments())
def test_experiment_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = run(["experiment", "--config", path, "--out", out], out)
        assert (code == 0) == os.path.exists(out)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(csv_models())
def test_check_and_estimate_contract(case):
    h, cw, y, tag = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("H.csv", "Cw.csv", "y.csv", "xhat.csv")]
        for path, value in zip(paths, (h, cw, y)):
            write_matrix_csv(path, value)
        run(["check", "--H", paths[0], "--Cw", paths[1]])
        code = run(["estimate", "--H", paths[0], "--Cw", paths[1], "--y", paths[2],
                    "--estimator", tag, "--out", paths[3]], paths[3])
        assert (code in (0, 4)) == os.path.exists(paths[3])

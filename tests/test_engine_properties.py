"""Property tests for the Monte Carlo engine's scalar rules: the per-trial
squared errors and gains it computes from each chunk's statistics equal the
explicit ``||xhat - x||^2`` of the public rules on random dense models; the
shrinking rules' mean gains from ``run_experiment`` lie in [0, 1], with every
row finite; for ``stein_lemma_check``: its component-major chunk sums and
moment fold equal a row-major float64 reference over the same draws; and
``_ratio_gain`` equals its masked reference bit for bit.

Symmetry: an orthogonal ``T = U R U'`` with ``R`` rotating and flipping
signs inside each eigenspace of ``Q`` commutes with ``Q``, so every rule
maps ``T xls`` to ``T xhat(xls)`` and keeps each squared error, in the
public rules and, per trial, in the engine. ``shrinkc:c=<eps0>`` is
``sbme`` bit for bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from blindmm import estimators, sim  # noqa: E402
from blindmm.estimators import (  # noqa: E402
    RULES, EstimatorSpec, estimate_from_ls, parse_estimator_spec,
)
from blindmm.model import build_model, scale_to_snr  # noqa: E402
from blindmm.scenarios import fig5a_model, fig5b_model  # noqa: E402
from engine_points import point_squared_errors  # noqa: E402

TRIALS = 257
SCALAR_TAGS = [tag for tag, rule in RULES.items() if not (rule.per_component or rule.param)]
# Rules whose every gain lies in [0, 1] (bbm and bock may go negative).
SHRINKING_TAGS = ["sbme", "pbm", "ebme:b=-1", "tik1", "tik2"]


@st.composite
def cases(draw):
    m = draw(st.integers(2, 6))
    return {
        "m": m,
        "n": draw(st.integers(m, 8)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "snr_db": draw(st.floats(-20.0, 60.0)),
        "c": draw(st.floats(0.0, 10.0)),
        "centered": draw(st.booleans()),
        "trials": draw(st.integers(2, 2 * sim.CHUNK_TRIALS + 1)),
    }


def dense_model(case, rng):
    """Dense H and Cw with bounded spectra: the explicit error rebuilds xls
    through ls_op, whose rounding an ill-conditioned H would amplify."""
    m, n = case["m"], case["n"]
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    h = (left[:, :m] * rng.uniform(0.5, 2.0, m)) @ right
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cw = (q * rng.uniform(0.1, 10.0, n)) @ q.T
    return h, (cw + cw.T) / 2.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
def test_scalar_rules_match_explicit_error(case):
    m, n, seed = case["m"], case["n"], case["seed"]
    rng = np.random.default_rng(seed)
    model = build_model(*dense_model(case, rng))
    x = scale_to_snr(model, rng.standard_normal(m), case["snr_db"])
    specs = [EstimatorSpec(tag) for tag in SCALAR_TAGS] + [EstimatorSpec("shrinkc", c=case["c"])]
    if case["centered"]:
        specs.append(EstimatorSpec("offcenter", x0=rng.standard_normal(m)))

    point = point_squared_errors(model, x, specs, TRIALS, seed)
    z = sim.normal_block(seed, np.arange(TRIALS), n)
    xls = (z @ model.cw_sqrt + model.H @ x) @ model.ls_op.T
    for spec in specs:
        res = estimate_from_ls(model, spec, xls)
        np.testing.assert_allclose(
            point.squared_errors[spec.label], np.sum((res.xhat - x) ** 2, axis=1), rtol=1e-9,
            err_msg=spec.label,
        )
        np.testing.assert_allclose(
            point.gain_sums[spec.label], res.shrinkage.sum(axis=0), rtol=1e-9, err_msg=spec.label
        )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
def test_shrinking_rules_mean_gains_in_unit_interval(case):
    rng = np.random.default_rng(case["seed"])
    h, cw = dense_model(case, rng)
    specs = [parse_estimator_spec(tag) for tag in SHRINKING_TAGS]
    specs.append(EstimatorSpec("offcenter", x0=rng.standard_normal(case["m"])))
    config = sim.ExperimentConfig(
        scenario={"name": "dense", "H": h.tolist(), "Cw": cw.tolist()}, estimators=specs,
        snr_grid_db=[case["snr_db"]], trials=case["trials"],
        directions=[{"vector": rng.standard_normal(case["m"]).tolist(), "id": "d"}],
        seed=case["seed"],
    )
    rows = sim.run_experiment(config)
    assert [row.estimator for row in rows] == sorted(spec.label for spec in specs)
    for row in rows:
        assert np.isfinite([row.mse_mean, row.mse_stderr, row.eps0]).all(), row
        assert np.isfinite(row.gain_mean).all() and row.gain_mean.shape == (case["m"],), row
        assert np.all((row.gain_mean >= 0.0) & (row.gain_mean <= 1.0)), (row, row.gain_mean)


@st.composite
def stein_cases(draw):
    width = draw(st.integers(1, 5))
    v = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), min_size=width,
                      max_size=width))
    c_low = 1e-3 if not any(v) else 0.0  # g is undefined at c = 0 with v = 0
    return {
        "v": np.array(v),
        "sigma": np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=width, max_size=width))),
        "c": draw(st.one_of(st.just(c_low), st.floats(c_low, 1e3))),
        "trials": draw(st.integers(10**4, 3 * sim.CHUNK_TRIALS + 5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stein_cases())
def test_stein_sums_match_row_major_reference(case):
    # The component-major chunk sums and the moment fold against one
    # row-major pass over the same draws, with a two-pass variance.
    v, sigma, c, trials = case["v"], case["sigma"], case["c"], case["trials"]
    res = sim.stein_lemma_check(v, sigma, c, trials, case["seed"])
    z = np.concatenate([
        sim.normal_block(case["seed"], np.arange(lo, min(lo + sim.CHUNK_TRIALS, trials)), v.shape[0])
        for lo in range(0, trials, sim.CHUNK_TRIALS)
    ])
    vh = v + z
    inv = (1.0 / (c + (vh * vh) @ (1.0 / sigma)))[:, None]
    part = 2.0 / sigma * (vh * vh) * inv
    deriv, scale = inv * (1.0 - part), inv * (1.0 + part)
    gz = vh * inv * z
    diff = deriv - gz
    dev = diff - diff.mean(axis=0)
    stderr = np.sqrt((dev * dev).sum(axis=0) / (trials - 1) / trials)
    # Relative to the terms' magnitude: the means can cancel far below it
    # (at v = 515 in two coordinates the lhs is 1e-6 of its terms), and the
    # reference forms q in another order.
    for got, want, terms in ((res.lhs, deriv, scale), (res.rhs, gz, np.abs(gz))):
        want = want.mean(axis=0)
        bound = 1e-12 * (np.abs(want) + terms.mean(axis=0))
        assert np.all(np.abs(got - want) <= bound), (got, want, bound)
    np.testing.assert_allclose(res.stderr, stderr, rtol=1e-9)


@st.composite
def ratio_cases(draw):
    s = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)), min_size=1, max_size=12))
    return {
        "s": np.array(s),
        "c": draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
        "e": draw(st.floats(-1e6, 1e6)),
        "alias": draw(st.booleans()),
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ratio_cases())
def test_ratio_gain_matches_masked_reference(case):
    # c > 0 skips the zero-denominator mask; c = 0 masks only when s has a zero.
    s, c, e = case["s"], case["c"], case["e"]
    arg = s.copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # s = 5e-324 overflows
        want = np.where(c + s == 0.0, 0.0, ((c - e) + s) / (c + s))
        got = estimators._ratio_gain(arg, c, e, out=arg if case["alias"] else None)
    assert (got is arg) == case["alias"]
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def eigenspace_rotation(sig, rng):
    """A random orthogonal ``R``, block diagonal over the runs of equal
    values in ``sig``: a rotation with sign flips inside each eigenspace."""
    r = np.zeros((sig.size, sig.size))
    for idx in np.split(np.arange(sig.size), np.flatnonzero(np.diff(sig) != 0.0) + 1):
        q, _ = np.linalg.qr(rng.standard_normal((idx.size, idx.size)))
        r[np.ix_(idx, idx)] = q * rng.choice([-1.0, 1.0], idx.size)
    return r


def spec_pairs(b, c, x0, t):
    """Per ``RULES`` tag, its spec and the spec at the mapped point (``offcenter``'s ``t x0``)."""
    params = {"ebme": {"b": b}, "shrinkc": {"c": c}}
    pairs = [(EstimatorSpec(tag, **params.get(tag, {})),) * 2 for tag in RULES if tag != "offcenter"]
    pairs.append((EstimatorSpec("offcenter", x0=x0), EstimatorSpec("offcenter", x0=t @ x0)))
    assert [spec.kind for spec, _ in pairs] == list(RULES)
    return pairs


@st.composite
def tied_cases(draw):
    return {
        # Eigenvalue multiplicities of Q; the first eigenspace has at least two dimensions.
        "groups": [draw(st.integers(2, 3))] + draw(st.lists(st.integers(1, 3), max_size=2)),
        "extra": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "snr_db": draw(st.floats(-10.0, 30.0)),
        "b": draw(st.floats(-2.0, 2.0)),
        "c": draw(st.floats(0.0, 10.0)),
    }


def tied_model(case, rng):
    """A dense model with ``Q = U diag(sig) U'``, ``sig`` tied in runs of
    ``case["groups"]``, and ``T = U R U'`` for a random ``eigenspace_rotation`` ``R``."""
    sig = np.repeat(rng.uniform(0.1, 10.0, len(case["groups"])), case["groups"])
    m = sig.size
    n = m + case["extra"]
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.1, 10.0, n)
    # H = Cw^1/2 W diag(sig)^1/2 U' with orthonormal W gives H' Cw^-1 H = U diag(sig) U'.
    h = (q * np.sqrt(d)) @ q.T @ left[:, :m] @ (np.sqrt(sig)[:, None] * u.T)
    cw = (q * d) @ q.T
    return build_model(h, (cw + cw.T) / 2.0), u @ eigenspace_rotation(sig, rng) @ u.T


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_cases())
def test_public_rules_keep_errors_inside_eigenspaces(case):
    rng = np.random.default_rng(case["seed"])
    model, t = tied_model(case, rng)
    x = scale_to_snr(model, rng.standard_normal(model.m), case["snr_db"])
    z = rng.standard_normal((64, model.n))
    xls = (z @ model.cw_sqrt + model.H @ x) @ model.ls_op.T
    for spec, mapped in spec_pairs(case["b"], case["c"], rng.standard_normal(model.m), t):
        err = np.sum((estimate_from_ls(model, spec, xls).xhat - x) ** 2, axis=1)
        err_t = np.sum((estimate_from_ls(model, mapped, xls @ t.T).xhat - t @ x) ** 2, axis=1)
        np.testing.assert_allclose(err_t, err, rtol=1e-9, err_msg=spec.label)


@pytest.mark.parametrize("model, b, ebme_path", [
    (fig5b_model(), -1.0, "affine"),    # no trial cut: ebme's closed form
    (fig5a_model(), 1.0, "reference"),  # some trials cut: its reference gain
], ids=["fig5b-affine", "fig5a-reference"])
def test_engine_keeps_errors_inside_eigenspaces(model, b, ebme_path):
    # Square models: A' = (cw_sqrt ls_op' U)' is invertible, so the block
    # z_R solving A' z_R' = R A' z' gives the engine v0_R = R v0.
    rng = np.random.default_rng(5)
    u = model.Qeig.basis
    r = eigenspace_rotation(model.Qeig.eigenvalues, rng)
    t = u @ r @ u.T
    a_t = (model.cw_sqrt @ model.ls_op.T @ u).T
    z = sim.normal_block(3, np.arange(sim.CHUNK_TRIALS), model.n)
    z_r = np.linalg.solve(a_t, r @ a_t @ z.T).T
    x = scale_to_snr(model, np.ones(model.m), 0.0)
    pairs = spec_pairs(b, 1.0, rng.standard_normal(model.m), t)
    reference = []  # per ebme gain call: whether it ran on a chunk

    def traced(plan):
        if plan.affine is None:
            return plan
        return plan._replace(gain=lambda s, out=None: reference.append(np.size(s) > 1)
                             or plan.gain(s, out))

    errors = []
    for point, block, specs in ((x, z, [p for p, _ in pairs]), (t @ x, z_r, [p for _, p in pairs])):
        plans = [traced(RULES[spec.kind].plan(model, spec)) for spec in specs]
        kernel = sim._chunk_kernel(model, [point], plans, lambda se: se)
        errors.append([se for se, _ in kernel(np.ascontiguousarray(block))])
    assert reference.count(True) == (2 if ebme_path == "reference" else 0)
    for (spec, _), se, se_t in zip(pairs, *errors):
        np.testing.assert_allclose(se_t, se, rtol=1e-9, err_msg=spec.label)


def test_shrinkc_at_eps0_is_sbme_bit_for_bit():
    model = fig5b_model()
    xls = np.random.default_rng(0).standard_normal((500, model.m)) * 2.0
    shrinkc = estimate_from_ls(model, EstimatorSpec("shrinkc", c=model.eps0), xls).xhat
    assert shrinkc.tobytes() == estimate_from_ls(model, EstimatorSpec("sbme"), xls).xhat.tobytes()
    config = sim.ExperimentConfig(
        scenario="fig5b-range", estimators=[EstimatorSpec("shrinkc", c=model.eps0),
                                            EstimatorSpec("sbme")],
        directions=["max-eigenvector", {"random-sphere": 1}], trials=9000, seed=1)
    rows = {}
    for row in sim.run_experiment(config):
        rows.setdefault((row.snr_db, row.sweep_key), []).append(row)
    assert len(rows) == 26
    for sbme_row, shrinkc in rows.values():  # rows sort by label
        assert (sbme_row.estimator, shrinkc.estimator[:8]) == ("sbme", "shrinkc:")
        assert (shrinkc.mse_mean, shrinkc.mse_stderr) == (sbme_row.mse_mean, sbme_row.mse_stderr)
        assert shrinkc.gain_mean.tobytes() == sbme_row.gain_mean.tobytes()

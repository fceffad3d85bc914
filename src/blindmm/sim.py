"""Deterministic Monte Carlo engine for estimator MSE sweeps.

Trials are cut into fixed chunks of ``CHUNK_TRIALS``; each chunk draws its
noise from the Philox stream keyed by a sub-seed and the chunk's first
trial, and chunks are evaluated and reduced in chunk order on the calling
thread, while one helper thread draws the next chunk's noise, so a rerun
with the same seed is bit-identical. All estimators
see the same noise draw within a trial (common random numbers), which
tightens pairwise MSE comparisons without biasing any single estimate.

The engine (version 7, see the README) works in the eigenbasis ``U`` of
``Q``. The SNR points of one (case, direction) pair share each chunk's
noise ``z`` and its eigen-coordinates ``v0 = A' z'``, ``A = cw_sqrt ls_op'
U``, laid out ``(m, rows)``; a point's ``xls`` has coordinates
``v = v0 + U'x``. A rule sees ``v`` only through ``s = w . v**2``
(``estimators.Plan``), so scalar rules cost O(rows) per point, and so does
``ebme`` where its cutoff leaves a chunk's trials whole (``Plan.affine``);
only ``tik1``, and ``ebme`` where it cuts a trial, form ``v``. ``ls``'s
error ``||v0||^2`` does not depend on the point and is reduced once per
chunk; each group's noise-free terms are formed once. Chunks fold into
per-(point, rule) moments.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from blindmm.estimators import RULES, parse_estimator_spec, unit_gain
from blindmm.linalg import LinalgError, NonFiniteError, as_vector, read_vector_csv, write_text_atomic
from blindmm.model import Model, SnrRangeError, scale_to_snr
from blindmm.rng import FillThread, derive_seed, generator, normal_block, normal_fill

# Unused here; bench/tracing.py wraps it under this name and drops a layer if it is gone.
from blindmm.estimators import estimate_from_ls  # noqa: F401

# Fixed chunk size: the noise and the summation order depend only on the
# seed and the trial count.
CHUNK_TRIALS = 4096

# Derivation tags keep the noise, direction and point sub-streams disjoint.
_TAG_POINT = 0x504F494E
_TAG_DIRECTION = 0x44495245


class ConfigError(LinalgError):
    """Experiment configuration is malformed."""


class DegenerateGError(LinalgError):
    """The integration-by-parts test function is undefined (c=0 and v=0)."""


@dataclass(frozen=True)
class MseRow:
    """One Monte Carlo result record. ``gain_mean`` (the mean per-component
    gain in ``Q``'s eigenbasis) and ``eps0`` (the case's least-squares risk)
    are neither CSV columns nor compared."""

    scenario: str
    estimator: str
    snr_db: float
    sweep_key: str
    mse_mean: float
    mse_stderr: float
    trials: int
    seed: int
    gain_mean: np.ndarray | None = field(default=None, compare=False, repr=False)
    eps0: float | None = field(default=None, compare=False)

    def sort_key(self):
        return (self.scenario, self.estimator, self.snr_db, self.sweep_key)


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep.

    ``scenario`` is either a built-in scenario name or an inline model
    ``{"H": ..., "Cw": ...}``; ``directions`` is a list of policies:
    ``"max-eigenvector"`` / ``"min-eigenvector"`` (extreme eigenvectors of
    ``Q^-1``, i.e. the most/least noisy parameter directions),
    ``("random-sphere", count)`` for uniformly random unit directions, or
    ``("vector", values, id)`` for explicit directions.
    """

    scenario: object
    estimators: list = field(default_factory=list)
    snr_grid_db: list = field(default_factory=list)
    directions: list = field(default_factory=list)
    trials: int = 10000
    seed: int = 0

    def validate(self):
        if not self.estimators:
            raise ConfigError("estimators: must be a nonempty list")
        _check_labels(self.estimators)
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db: must be a nonempty list")
        snr = np.asarray(self.snr_grid_db, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            linear = 10.0 ** (snr / 10.0)
        if not np.all(np.isfinite(snr) & np.isfinite(linear)):
            raise ConfigError(
                "snr_grid_db: entries must be finite, with 10**(snr/10) within float64 range"
            )
        _check_distinct(snr.tolist(), "snr_grid_db", "values")
        if not self.directions:
            raise ConfigError("directions: must be a nonempty list")
        if int(self.trials) < 1:
            raise ConfigError("trials: must be >= 1")
        _check_seed(self.seed)
        return self


def _check_seed(seed) -> None:
    if seed is None or int(seed) < 0:
        raise ConfigError(
            "seed: must be a non-negative integer (set it in the config, "
            "via --seed, or through BLINDMM_SEED)"
        )


def _csv_field(value, name: str) -> str:
    """``value``, if it is a nonempty string that stands as one results-CSV field."""
    if isinstance(value, str) and value and not set(value) & set(',"\r\n'):
        return value
    raise ConfigError(f"{name}: expected a nonempty string with no comma, quote or line "
                      f"break, got {value!r}")


def _check_distinct(values: list, name: str, what: str) -> None:
    """``ConfigError`` when two entries of ``values`` are equal (``0 == -0.0``):
    the results CSV could not tell their rows apart."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{name}: expected distinct {what}, got "
                          f"{max(values, key=values.count)!r} more than once")


def _check_labels(specs) -> None:
    """Each estimator's label must stand as one results-CSV field, and name one estimator."""
    _check_distinct([_csv_field(spec.label, "estimators") for spec in specs], "estimators",
                    "labels")


def _map_chunks(fn, seed, trials: int, width: int) -> list:
    """``fn(z)`` for each ``CHUNK_TRIALS`` block of trials, in chunk order;
    ``z`` holds the block's ``(rows, width)`` standard normals, keyed by
    ``(seed, first trial)``. ``z`` is a reused buffer: ``fn`` may overwrite
    it, and must keep no reference to it.

    Blocks alternate between two slots. One helper thread draws block
    ``i + 1`` into one slot while the calling thread draws block 0, or
    runs ``fn`` on block ``i``, in the other. The calling thread does the
    id check, the keying and the slot view of every block; the helper runs
    only numpy's fill, which releases the GIL. The helper lives for one
    pass and is joined before this returns, on error too.
    """
    bounds = [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]
    if len(bounds) < 2:
        return [fn(normal_block(seed, np.arange(lo, hi), width)) for lo, hi in bounds]
    slots, out = np.empty((2, CHUNK_TRIALS, width)), []

    def post(i):
        lo, hi = bounds[i]
        block, fill = normal_fill(seed, np.arange(lo, hi), width, slots[i % 2, : hi - lo])
        helper.post(fill)
        return block

    with FillThread() as helper:
        nxt = post(1)
        z = normal_block(seed, np.arange(*bounds[0]), width, out=slots[0])
        for i in range(1, len(bounds)):
            out.append(fn(z))
            helper.wait()
            z = nxt  # block i
            if i + 1 < len(bounds):
                nxt = post(i + 1)
        out.append(fn(z))
    return out


def _distinct(arrays):
    """The distinct rows among ``arrays`` in first-seen order, and each input's index among them."""
    keys = list(dict.fromkeys(a.tobytes() for a in arrays))
    return np.array([np.frombuffer(k) for k in keys]), [keys.index(a.tobytes()) for a in arrays]


def _affine_errors(affine, l2, base0, stat, base, w_u2):
    """``ebme``'s squared errors ``||v0||^2 - a cross2 + a**2 l2`` and gain
    sum on rows its cutoff leaves whole (``l2 > affine.t0``). ``stat``,
    ``base`` and ``w_u2`` are the affine weights' statistic, its ``w . v0**2``
    and its ``w . u**2``, so ``cross2 = 2 (w v0) . v = stat + base - w_u2``.
    ``None`` when the closed form leaves float64 range, which leaves every
    row to the reference gain (and to its own error if that overflows too)."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = affine.r1 / (l2 + affine.r2)
        se = base0 - a * (stat + base - w_u2 - a * l2)
        gain_sum = l2.shape[0] - affine.weights * a.sum()
    return (se, gain_sum) if np.isfinite(se).all() and np.isfinite(gain_sum).all() else None


def _noise_free_terms(model: Model, xs, plans):
    """The noise-free terms ``(us, w_mat, s_slot, a_slot, c_slot, cross_ops,
    w_u2, u2)`` of the points ``xs`` under ``plans``, which ``_chunk_kernel``
    adds to each chunk's statistics.

    ``w_mat`` holds the distinct weight rows (``w = 1`` first: every scalar
    error needs ``||v0||^2``), and each plan's statistic and affine form
    read rows ``s_slot`` and ``a_slot`` of it (1 when it has none); ``c_slot``
    indexes the distinct centers. Per point ``u = U'x`` (``us``) and
    ``u' = u - U'x0``: ``cross_ops`` holds ``2 w u`` and then ``2 u'``,
    ``w_u2`` holds ``w . u**2`` and ``u2`` holds ``||u'||^2``.

    Raises ``SnrRangeError`` when any of these terms, or a rule's gain on
    ``w . u**2``, leaves float64 range.
    """
    basis, m = model.Qeig.basis, model.m
    us = np.array([basis.T @ np.asarray(x, dtype=np.float64) for x in xs])
    w_mat, w_slot = _distinct([np.ones(m)] + [
        np.ones(m) if w is None else w
        for p in plans for w in (p.weights, None if p.affine is None else p.affine.weights)])
    s_slot, a_slot = w_slot[1::2], w_slot[2::2]
    c_mat, c_slot = _distinct([np.zeros(m) if p.center is None else basis.T @ p.center
                               for p in plans])
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = us[:, None, :] - c_mat
        cross_ops = 2.0 * np.concatenate([us[:, None, :] * w_mat, shifted], axis=1)
        w_u2 = (us * us) @ w_mat.T
        u2 = np.einsum("pcm,pcm->pc", shifted, shifted)
        finite = [np.isfinite(cross_ops).all(axis=(1, 2)), np.isfinite(w_u2).all(axis=1),
                  np.isfinite(u2).all(axis=1)]
        finite += [np.isfinite(plan.gain(w_u2[:, j])).reshape(-1, len(xs)).all(axis=0)
                   for plan, j in zip(plans, s_slot)]
    bad = np.flatnonzero(~np.logical_and.reduce(finite))
    if bad.size:
        raise SnrRangeError(
            f"||x|| = {np.linalg.norm(xs[bad[0]]):.4g}: a rule's statistic w . (U'x)**2 "
            "leaves float64 range on this model"
        )
    return us, w_mat, s_slot, a_slot, c_slot, cross_ops, w_u2, u2


def _chunk_kernel(model: Model, terms, plans, reduce):
    """The engine: ``eval_chunk(z)`` maps one noise block to, per point
    ``x`` (in the order of the ``xs`` whose ``_noise_free_terms`` under
    ``plans`` are ``terms``) and per plan, the pair ``(reduce(se), gain
    sum)``, where ``se`` holds the chunk's per-trial squared errors and the
    gain sum is ``(m,)`` or, for a scalar rule, a scalar.

    The kernel owns its work arrays: each is a flat array of ``k *
    CHUNK_TRIALS`` floats, made on first use and viewed as ``(k, rows)``.

    All points share the block's ``v0 = A' z'``; a point's statistics are
    ``w . (v0 + u)**2 = w . v0**2 + 2 (w u) . v0 + w . u**2`` with
    ``u = U'x``, and a scalar rule's squared error is
    ``||g v0 + (g - 1) u'||^2`` with ``u' = u - U'x0`` for a center ``x0``.
    A plan with an ``affine`` form (``ebme``) takes it at a point where its
    cutoff leaves every row of the chunk whole, and its reference ``gain``
    on every row otherwise. ``ls`` (``unit_gain``) has the error
    ``||v0||^2`` at every point, reduced once per chunk.
    """
    m = model.m
    a_t = np.ascontiguousarray((model.cw_sqrt @ model.ls_op.T @ model.Qeig.basis).T)
    us, w_mat, s_slot, a_slot, c_slot, cross_ops, w_u2, u2 = terms
    n_w, last = w_mat.shape[0], len(us) - 1
    has_ls = any(plan.gain is unit_gain for plan in plans)
    work = {}

    def work_array(name, k, rows):
        if name not in work:
            work[name] = np.empty(k * CHUNK_TRIALS)
        return work[name][: k * rows].reshape(k, rows)

    def eval_chunk(z):
        rows = z.shape[0]
        v0 = np.matmul(a_t, z.T, out=work_array("v0", m, rows))
        d = z.reshape(-1)[: m * rows].reshape(m, rows)  # the spent block (n >= m) holds squares
        cross = work_array("cross", cross_ops.shape[1], rows)
        stats = cross[:n_w]
        # Overflow gives inf, which the check below rejects for every weight row.
        with np.errstate(over="ignore", invalid="ignore"):
            base = w_mat @ np.multiply(v0, v0, out=d)
        if not np.all(np.isfinite(base)):
            raise NonFiniteError("xls: entries must be finite")
        ls = (reduce(base[0]), float(rows)) if has_ls else None
        out = []
        for k, u in enumerate(us[:, :, None]):
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(cross_ops[k], v0, out=cross)
                stats += base
                stats += w_u2[k, :, None]
            v, point = None, []
            for plan, j, ja, c in zip(plans, s_slot, a_slot, c_slot):
                if plan.gain is unit_gain:
                    point.append(ls)
                    continue
                fit = None
                if plan.affine is not None and stats[j].min() > plan.affine.t0:
                    fit = _affine_errors(plan.affine, stats[j], base[0],
                                         stats[ja], base[ja], w_u2[k, ja])
                if fit is not None:
                    se, gain_sum = fit
                else:
                    g = plan.gain(stats[j], d)  # a per-component g may be d itself
                    gain_sum = g.sum(axis=-1)
                    if g.ndim == 1:
                        h = g - 1.0
                        se = (g * base[0] + h * cross[n_w + c]) * g + u2[k, c] * (h * h)
                    else:
                        if v is None:  # the last point adds its u to v0 in place
                            v = np.add(v0, u, out=v0 if k == last else work_array("v", m, rows))
                        g *= v
                        g -= u
                        se = np.einsum("ij,ij->j", g, g)
                point.append((reduce(se), gain_sum))
            out.append(point)
        return out

    return eval_chunk


def _moments(se: np.ndarray):
    """Count, sum and sum of squared deviations of the errors ``se``."""
    total = float(se.sum())
    dev = se - total / se.shape[0]
    return se.shape[0], total, float(dev @ dev)


def _merge(a, b):
    """Chan et al.'s pairwise update: the ``_moments`` of two samples joined."""
    (na, sa, qa), (nb, sb, qb) = a, b
    delta = sb / nb - sa / na
    return na + nb, sa + sb, qa + qb + delta * delta * na * nb / (na + nb)


def _fold(chunks):
    """Join per-chunk lists of ``(moments, sums)`` pairs, in chunk order."""
    return functools.reduce(
        lambda a, b: [(_merge(ma, mb), sa + sb) for (ma, sa), (mb, sb) in zip(a, b)], chunks
    )


def _mean_stderr(count: int, total: float, m2: float):
    stderr = math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0
    return total / count, stderr


# --- direction policies ----------------------------------------------------


def _random_unit_vector(seed, index: int, m: int) -> np.ndarray:
    v = generator(seed, _TAG_DIRECTION, index).standard_normal(m)
    return v / np.linalg.norm(v)


def resolve_directions(model: Model, policies, seed):
    """Expand direction policies into ``(sweep_key, unit_vector)`` pairs."""
    out = []
    rand_idx = 0
    vec_idx = 0
    for pol in policies:
        if pol == "max-eigenvector":
            # Largest eigenvalue of Q^-1: last column of the descending-Q basis.
            out.append(("max-eig", model.Qeig.basis[:, -1].copy()))
        elif pol == "min-eigenvector":
            out.append(("min-eig", model.Qeig.basis[:, 0].copy()))
        elif isinstance(pol, tuple) and pol and pol[0] == "random-sphere":
            count = int(pol[1])
            if count < 1:
                raise ConfigError(f"directions.random-sphere: expected a count >= 1, got {count}")
            for _ in range(count):
                out.append((f"rand-{rand_idx:03d}", _random_unit_vector(seed, rand_idx, model.m)))
                rand_idx += 1
        elif isinstance(pol, tuple) and pol and pol[0] == "vector":
            vec = as_vector(pol[1], "directions.vector")
            key = pol[2] if len(pol) > 2 else None
            key = f"vec-{vec_idx:03d}" if key is None else _csv_field(key, "directions.id")
            vec_idx += 1
            out.append((key, vec))
        else:
            raise ConfigError(f"directions: unknown policy {pol!r}")
    _check_distinct([key for key, _ in out], "directions", "sweep keys")
    return out


# --- experiment runner ------------------------------------------------------


def run_experiment(config: ExperimentConfig):
    """Run a validated config and return its sorted ``MseRow`` list.

    The scenario resolves to one or more ``(case_key, model)`` cases (the
    condition-number sweep has one case per condition; everything else has
    a single unkeyed case). Every grid point is resolved, and its rules'
    statistics bounded, before any noise is drawn; each model's rule plans
    and each group's noise-free terms are built once. The SNR points of one (case, direction) pair form a
    group that shares its noise: one chunk pass on the calling thread serves
    the group, and each chunk is folded into per-(point, rule) moments in
    chunk order.
    """
    from blindmm import scenarios  # late import: scenarios builds on this module

    if isinstance(config.scenario, str):  # a named scenario fills the fields left empty
        preset = scenarios.preset(config.scenario)
        config = replace(
            config,
            estimators=list(config.estimators or preset.estimators),
            snr_grid_db=list(config.snr_grid_db or preset.snr_grid_db),
            directions=list(config.directions or preset.directions),
        )
    config.validate()
    cases, scenario_name = scenarios.resolve_cases(config.scenario)
    _csv_field(scenario_name, "scenario.name")
    seed = int(config.seed)
    trials = int(config.trials)
    snrs = [float(snr_db) for snr_db in config.snr_grid_db]
    groups = []
    for case_idx, (case_key, model) in enumerate(cases):
        plans = [RULES[spec.kind].plan(model, spec) for spec in config.estimators]
        directions = resolve_directions(model, config.directions, seed)
        for dir_idx, (dir_key, direction) in enumerate(directions):
            sweep_key = case_key if case_key is not None else dir_key
            if case_key is not None and len(directions) > 1:
                sweep_key = f"{case_key}:{dir_key}"
            try:
                xs = [scale_to_snr(model, direction, snr_db) for snr_db in snrs]
                terms = _noise_free_terms(model, xs, plans)  # bounds the group before any noise
            except SnrRangeError as exc:
                raise ConfigError(f"snr_grid_db: {exc}") from exc
            # The group's stream is the one its first SNR point had alone.
            group_seed = derive_seed(seed, _TAG_POINT, case_idx, dir_idx, 0)
            groups.append((model, plans, sweep_key, terms, group_seed))

    rows = []
    for model, plans, sweep_key, terms, group_seed in groups:
        kernel = _chunk_kernel(model, terms, plans, _moments)  # its work arrays live for one pass
        chunks = _map_chunks(kernel, group_seed, trials, model.n)
        for snr_db, point in zip(snrs, map(_fold, zip(*chunks))):
            for spec, (moments, gains) in zip(config.estimators, point):
                mean, stderr = _mean_stderr(*moments)
                rows.append(MseRow(
                    scenario=scenario_name, estimator=spec.label, snr_db=snr_db,
                    sweep_key=sweep_key, mse_mean=mean, mse_stderr=stderr, trials=trials,
                    seed=seed, gain_mean=np.broadcast_to(gains, (model.m,)) / trials,
                    eps0=model.eps0,
                ))
    rows.sort(key=MseRow.sort_key)
    return rows


# --- config file loading ----------------------------------------------------


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file.

    Fields: ``scenario`` (name or ``{"H":..., "Cw":...}``), ``estimators``
    (list of tag strings), ``snr_grid_db``, ``directions``, ``trials``,
    ``seed``. ``offcenter:file=`` paths and inline models resolve relative
    to the config file's directory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))

    known = {"scenario", "estimators", "snr_grid_db", "directions", "trials", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config {path}: unknown fields {sorted(unknown)}")
    if "scenario" not in raw:
        raise ConfigError(f"config {path}: missing required field 'scenario'")

    def loader(rel):
        return read_vector_csv(os.path.join(base_dir, rel))

    estimators = []
    for ent in _as_list(raw.get("estimators", []), "estimators"):
        if not isinstance(ent, str):
            raise ConfigError(f"estimators: expected tag strings, got {ent!r}")
        estimators.append(parse_estimator_spec(ent, vector_loader=loader))
    _check_labels(estimators)

    snr_grid = _numbers(_as_list(raw.get("snr_grid_db", []), "snr_grid_db"), "snr_grid_db")

    directions = [_parse_direction(ent) for ent in _as_list(raw.get("directions", []), "directions")]

    trials = _count(raw.get("trials", 10000), "trials")
    seed = raw.get("seed")  # None defers to --seed or BLINDMM_SEED
    seed = None if seed is None else _count(seed, "seed")

    scenario = raw["scenario"]
    if isinstance(scenario, dict):
        scenario = _parse_inline_model(scenario)
    elif not isinstance(scenario, str):
        raise ConfigError("scenario: expected a name or an inline model object")

    return ExperimentConfig(
        scenario=scenario,
        estimators=estimators,
        snr_grid_db=snr_grid,
        directions=directions,
        trials=trials,
        seed=seed,
    )


def _as_list(value, name):
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{name}: expected a list")
    return value


def _numbers(value, name: str) -> list:
    if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
        raise ConfigError(f"{name}: expected a list of numbers, got {value!r}")
    return [float(v) for v in value]


def _count(value, name: str) -> int:
    if type(value) is not int:  # bool is not a count
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _parse_direction(ent):
    if isinstance(ent, str):
        if ent in ("max-eigenvector", "min-eigenvector"):
            return ent
        raise ConfigError(f"directions: unknown policy {ent!r}")
    if isinstance(ent, dict):
        if "random-sphere" in ent:
            extra = set(ent) - {"random-sphere"}
            if extra:
                raise ConfigError(f"directions: unknown keys {sorted(extra)}")
            return ("random-sphere", _count(ent["random-sphere"], "directions.random-sphere"))
        if "vector" in ent:
            extra = set(ent) - {"vector", "id"}
            if extra:
                raise ConfigError(f"directions: unknown keys {sorted(extra)}")
            return ("vector", _numbers(ent["vector"], "directions.vector"), ent.get("id"))
    raise ConfigError(f"directions: unknown policy {ent!r}")


def _parse_inline_model(obj):
    """Inline model spec: H and Cw as nested lists, {"diag": [...]} or
    {"identity": n}; returns a ("inline", name, H, Cw) tuple."""
    extra = set(obj) - {"H", "Cw", "name"}
    if extra:
        raise ConfigError(f"scenario: unknown inline-model keys {sorted(extra)}")
    if "H" not in obj or "Cw" not in obj:
        raise ConfigError("scenario: inline model requires both 'H' and 'Cw'")

    def mat(spec, field_name):
        if isinstance(spec, dict) and "identity" in spec:
            return np.eye(_count(spec["identity"], f"scenario.{field_name}.identity"))
        if isinstance(spec, dict) and "diag" in spec:
            return np.diag(_numbers(spec["diag"], f"scenario.{field_name}.diag"))
        if isinstance(spec, list):
            return np.asarray(spec, dtype=np.float64)
        raise ConfigError(f"scenario.{field_name}: expected nested lists, diag or identity")

    name = _csv_field(obj.get("name", "custom"), "scenario.name")
    return ("inline", name, mat(obj["H"], "H"), mat(obj["Cw"], "Cw"))


# --- results CSV -------------------------------------------------------------

RESULTS_HEADER = "scenario,estimator,snr_db,sweep_key,mse_mean,mse_stderr,trials,seed"


def format_results_csv(rows) -> str:
    lines = [RESULTS_HEADER]
    for r in sorted(rows, key=MseRow.sort_key):
        lines.append(
            f"{r.scenario},{r.estimator},{r.snr_db!r},{r.sweep_key},"
            f"{r.mse_mean!r},{r.mse_stderr!r},{r.trials},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def write_results_csv(path, rows) -> None:
    """Write the results CSV atomically (``linalg.write_text_atomic``)."""
    write_text_atomic(path, format_results_csv(rows))


# --- Gaussian integration-by-parts identity ----------------------------------


@dataclass(frozen=True)
class SteinCheckResult:
    """Per-coordinate two-sided Monte Carlo estimate of the identity
    ``E[dg_i/dv_i] = -E[g_i(v_hat) (v_i - v_hat_i)]`` for ``v_hat ~ N(v, I)``."""

    lhs: np.ndarray
    rhs: np.ndarray
    discrepancy: np.ndarray
    stderr: np.ndarray
    trials: int

    def within(self, n_stderr: float = 4.0) -> bool:
        return bool(np.all(self.discrepancy <= n_stderr * self.stderr))


def stein_lemma_check(v, sigma, c: float, trials: int, seed, g: str = "shrink") -> SteinCheckResult:
    """Monte Carlo check of the Gaussian integration-by-parts identity.

    ``g="shrink"`` uses the ratio ``g_i(v) = v_i / (c + v' diag(sigma)^-1 v)``
    whose analytic derivative is known in closed form; ``g="linear"`` uses
    ``g_i(v) = v_i`` (derivative one) as a calibration case. Both sides are
    estimated from common draws, so ``stderr`` is the standard error of the
    per-draw difference.

    Each chunk of draws ``z`` is worked on as a C-ordered ``(width, rows)``
    array, the residual ``v - v_hat`` is exactly ``-z``, and the per-draw
    differences fold into the engine's moments in chunk order. Terms that
    overflow, or a zero ``stderr`` under a nonzero discrepancy (underflow),
    raise ``ConfigError`` naming ``v``, ``sigma`` and ``c`` together.
    """
    v = as_vector(v, "v")
    sigma = as_vector(sigma, "sigma")
    if sigma.shape != v.shape:
        raise ConfigError("sigma must have the same length as v")
    with np.errstate(over="ignore", divide="ignore"):
        inv_sigma = 1.0 / sigma
    if np.any(sigma <= 0.0) or not np.all(np.isfinite(inv_sigma)):
        raise ConfigError("sigma entries must be positive, with 1/sigma finite in float64")
    if not (np.isfinite(c) and c >= 0.0):
        raise ConfigError(f"c must be finite and >= 0, got {c}")
    if c == 0.0 and not np.any(v != 0.0):
        raise DegenerateGError("g is undefined at c=0 with v=0")
    _check_seed(seed)
    if trials < 10**4:
        raise ConfigError("trials: must be >= 10^4")
    if g not in ("shrink", "linear"):
        raise ConfigError(f"g: unknown test function {g!r}")

    def chunk_stats(z):
        """Per coordinate: the moments of ``dg_i/dv_i - g_i z_i`` and the sums of both terms."""
        zt = np.ascontiguousarray(z.T)
        vh = zt + v[:, None]
        if g == "shrink":
            sq = vh * vh
            inv = 1.0 / (c + inv_sigma @ sq)
            deriv = inv * (1.0 - 2.0 * inv_sigma[:, None] * sq * inv)
            gz = vh * inv * zt
        else:
            deriv = np.ones_like(vh)
            gz = vh * zt
        sums = np.stack([deriv.sum(axis=1), gz.sum(axis=1)], axis=1)
        return list(zip(map(_moments, deriv - gz), sums))

    # Overflow is checked once, on the results.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        moments, sums = zip(*_fold(_map_chunks(chunk_stats, seed, trials, v.shape[0])))
        lhs, rhs = np.array(sums).T / trials
        discrepancy = np.abs(lhs - rhs)
    stderr = np.array([_mean_stderr(*mo)[1] for mo in moments])
    finite = np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(stderr)
    if not np.all(finite & ((stderr > 0.0) | (discrepancy == 0.0))):
        raise ConfigError("v, sigma, c: the identity's terms leave float64 range at these values")
    return SteinCheckResult(
        lhs=lhs, rhs=rhs, discrepancy=discrepancy, stderr=stderr, trials=trials
    )

"""Deterministic Monte Carlo engine for estimator MSE sweeps.

Trials are cut into fixed chunks of ``CHUNK_TRIALS``; each chunk draws its
noise from the Philox stream keyed by a sub-seed and the chunk's first
trial. Chunks are evaluated and reduced in chunk order on the calling
thread, while it and one helper thread draw the next chunks' noise
(``_map_chunks``), so a rerun with the same seed is bit-identical. All
estimators see the same noise draw within a trial (common random numbers),
which tightens pairwise MSE comparisons without biasing any single estimate.

The engine (version 8, see the README) works in the eigenbasis ``U`` of
``Q``. The SNR points of one (case, direction) pair share each chunk's
noise ``z`` and its eigen-coordinates ``v0 = A' z'``, ``A = cw_sqrt ls_op'
U``, laid out ``(m, rows)``; a point's ``xls`` has coordinates
``v = v0 + U'x``. A rule sees ``v`` only through ``s = w . v**2``
(``estimators.Plan``), so scalar rules cost O(rows) per point, and so does
``ebme`` where its cutoff leaves a chunk's trials whole (``Plan.affine``);
only ``tik1``, and ``ebme`` where it cuts a trial, form ``v``. ``ls``'s
error ``||v0||^2`` does not depend on the point and is reduced once per
chunk. One kernel per group (``_chunk_kernel``) forms and bounds the
group's noise-free terms once, and maps each chunk to a flat list of
per-(point, rule) results, which fold into moments in chunk order.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from blindmm import scenarios
from blindmm.estimators import RULES, EstimatorSpec, Ratio, parse_estimator_spec, unit_gain
from blindmm.linalg import (DimensionMismatchError, LinalgError, NonFiniteError, as_vector,
                            read_vector_csv, write_text_atomic)
from blindmm.model import Model, SnrRangeError, build_model, scale_to_snr
from blindmm.rng import derive_seed, generator, normal_block, normal_fill

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
    """Declarative description of one sweep, in the JSON config's own forms.

    ``scenario`` is either a built-in scenario name or an inline model
    ``{"H": ..., "Cw": ..., "name": ...}`` (``_inline_cases``); ``directions``
    is a list of policies: ``"max-eigenvector"`` / ``"min-eigenvector"``
    (extreme eigenvectors of ``Q^-1``, i.e. the most/least noisy parameter
    directions), ``{"random-sphere": count}`` for uniformly random unit
    directions, or ``{"vector": [...], "id": key}`` for explicit directions.
    ``run_experiment`` fills the fields left empty (``None`` or ``[]``) from a
    named scenario's preset, and ``trials`` of an inline model with
    ``scenarios.DEFAULT_TRIALS``.
    """

    scenario: object
    estimators: list = field(default_factory=list)
    snr_grid_db: list = field(default_factory=list)
    directions: list = field(default_factory=list)
    trials: int | None = None
    seed: int = 0

    def validate(self):
        """The one check of every field, of a JSON config and a Python one
        alike: ``estimators`` holds ``EstimatorSpec``s with distinct labels
        that are CSV fields, ``snr_grid_db`` distinct numbers with
        ``10**(snr/10)`` finite, ``directions`` anything (``resolve_directions``
        checks it); each is a nonempty list. ``trials`` is an integer >= 1,
        ``seed`` one >= 0. A bad field raises ``ConfigError``."""
        specs = _nonempty(self.estimators, "estimators")
        if not all(isinstance(spec, EstimatorSpec) for spec in specs):
            raise ConfigError(f"estimators: expected EstimatorSpec entries, got {specs!r}")
        # Each label must stand as one results-CSV field, and name one estimator.
        _check_distinct([_csv_field(spec.label, "estimators") for spec in specs], "estimators",
                        "labels")
        snr = np.array(_numbers(_nonempty(self.snr_grid_db, "snr_grid_db"), "snr_grid_db"))
        with np.errstate(over="ignore", invalid="ignore"):
            linear = 10.0 ** (snr / 10.0)
        if not np.all(np.isfinite(snr) & np.isfinite(linear)):
            raise ConfigError("snr_grid_db: entries must be finite, with 10**(snr/10) within "
                              "float64 range")
        _check_distinct(snr.tolist(), "snr_grid_db", "values")
        _nonempty(self.directions, "directions")
        _count(self.trials, "trials", least=1)
        _check_seed(self.seed)
        return self


def _check_seed(seed) -> None:
    if not (_is_number(seed, (int, np.integer)) and seed >= 0):
        raise ConfigError("seed: must be a non-negative integer (set it in the config, via "
                          "--seed, or through BLINDMM_SEED)")


def _nonempty(value, name: str) -> list:
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{name}: must be a nonempty list")
    return value


def _is_number(value, kinds=(int, float, np.integer, np.floating)) -> bool:
    """Every field's number rule: a Python or numpy int or float, never a ``bool``."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _numbers(value, name: str) -> list:
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ConfigError(f"{name}: expected a list of numbers, got {value!r}")
    return [float(v) for v in value]


def _count(value, name: str, least: int = 0) -> int:
    if not (_is_number(value, (int, np.integer)) and value >= least):
        raise ConfigError(f"{name}: expected an integer >= {least}, got {value!r}")
    return int(value)


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


class _Fill:
    """A queued fill: ``done`` is held until a thread has run it, ``error`` keeps what it raised."""

    def __init__(self, fill):
        self.fill, self.done, self.error = fill, threading.Lock(), None
        self.done.acquire()

    def __call__(self):
        try:
            self.fill()
        except BaseException as exc:  # re-raised by _wait_fill on the calling thread
            self.error = exc
        self.done.release()


def _wait_fill(fills, job: _Fill) -> None:
    """Return once ``job`` has run, re-raising its error; until then run the oldest
    queued fills. Never block on ``fills``: the helper may take the last one first."""
    import queue
    try:
        while job.done.locked():
            fills.get_nowait()()
    except queue.Empty:
        pass
    job.done.acquire()
    if job.error is not None:
        raise job.error


def _map_chunks(fn, seed, trials: int, width: int) -> list:
    """``fn(z)`` for each ``CHUNK_TRIALS`` block of trials, in chunk order;
    ``z`` holds the block's ``(rows, width)`` standard normals, keyed by
    ``(seed, first trial)``. ``z`` is a reused buffer: ``fn`` may overwrite
    it, and must keep no reference to it.

    A pass of more than one chunk cycles its blocks through
    ``min(3, chunks)`` slots. The calling thread keys every block by its
    first trial (``normal_fill``, no id array) and queues its fill, in chunk
    order and up to two blocks ahead, for one helper thread. It draws block
    0 (``normal_block``, as a one-chunk pass does), and while it waits for
    a block (``_wait_fill``) the oldest queued ones, itself. A fill is
    numpy's, which releases the GIL. On every exit, errors included, the
    fills no thread has started are dropped and the helper is joined.

    The queue is the C ``queue.SimpleQueue``, imported by the first pass of
    more than one chunk, not on import. ``ThreadPoolExecutor(1)`` lost 6 of
    6 alternating 10 s stein-narrow pairs (10.78M -> 8.86M trials/s, 2
    vCPU), and its ``logging`` import raised median setup from 0.134 to
    0.162 s.
    """
    bounds = [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]
    if len(bounds) < 2:
        return [fn(normal_block(seed, np.arange(lo, hi), width)) for lo, hi in bounds]
    import queue
    slots, out = np.empty((min(3, len(bounds)), CHUNK_TRIALS, width)), []
    fills = queue.SimpleQueue()

    def post(i):  # key block i by its first trial, into its slot
        lo, hi = bounds[i]
        block = slots[i % len(slots), : hi - lo]
        fills.put(job := _Fill(normal_fill(seed, lo, block)))
        return block, job

    def run_fills():  # the helper, until it gets None
        for fill in iter(fills.get, None):
            fill()

    helper = threading.Thread(target=run_fills, name="blindmm-fill", daemon=True)
    helper.start()
    try:
        ahead = [post(i) for i in range(1, len(slots))]
        z = normal_block(seed, np.arange(*bounds[0]), width, out=slots[0])
        for i in range(1, len(bounds)):
            out.append(fn(z))  # block i - 1, whose slot now takes block i + len(slots) - 1
            if i + len(slots) - 1 < len(bounds):
                ahead.append(post(i + len(slots) - 1))
            z, job = ahead.pop(0)  # block i
            _wait_fill(fills, job)
        out.append(fn(z))
    finally:  # drop the fills no thread has started, then stop the helper
        with contextlib.suppress(queue.Empty):
            while True:
                fills.get_nowait()
        fills.put(None)
        helper.join()
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


def _chunk_kernel(model: Model, xs, plans, reduce):
    """The engine for one group, the points ``xs`` under ``plans``:
    ``eval_chunk(z)`` maps one noise block to a flat, point-major list of
    pairs ``(reduce(se), gain sum)``, one per (point, plan) in the order of
    ``itertools.product(xs, plans)``, where ``se`` holds the chunk's
    per-trial squared errors and the gain sum is ``(m,)`` or, for a scalar
    rule, a scalar.

    Building the kernel forms the group's noise-free terms once. ``w_mat``
    holds the distinct weight rows (``w = 1`` first: every scalar error
    needs ``||v0||^2``), and each plan's statistic and affine form read rows
    ``s_slot`` and ``a_slot`` of it (1 when it has none); ``c_slot`` indexes
    the distinct centers. Per point ``u = U'x`` (``us``) and ``u' = u -
    U'x0``: ``cross_ops`` holds ``2 w u`` and then ``2 u'``, ``w_u2`` holds
    ``w . u**2`` and ``u2`` holds ``||u'||^2``. It raises ``ConfigError``
    naming ``snr_grid_db`` when any of these terms, or a rule's gain on
    ``w . u**2`` (``||u'||^2`` for a centred plan), leaves float64 range, so
    a group is bounded before any noise is drawn.

    ``A'`` and the work arrays are made on the first chunk and live as long
    as the kernel; each work array is a flat array of ``k * CHUNK_TRIALS``
    floats, viewed as ``(k, rows)``.

    All points share the block's ``v0 = A' z'``; a point's statistics are
    ``w . (v0 + u)**2 = w . v0**2 + 2 (w u) . v0 + w . u**2``, and a scalar
    rule's squared error is ``||g v0 + (g - 1) u'||^2``, about which a
    centred plan takes its statistic ``||v0 + u'||^2``. A plan with an
    ``affine`` form (``ebme``) takes it at a point where its cutoff leaves
    every row of the chunk whole, and its reference ``gain`` on every row
    otherwise. ``ls`` (``unit_gain``) has the error ``||v0||^2`` at every
    point, reduced once per chunk.
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
        finite += [np.isfinite(plan.gain(w_u2[:, j] if plan.center is None else u2[:, c]))
                   .reshape(-1, len(xs)).all(axis=0) for plan, j, c in zip(plans, s_slot, c_slot)]
    bad = np.flatnonzero(~np.logical_and.reduce(finite))
    if bad.size:
        raise ConfigError(f"snr_grid_db: ||x|| = {np.linalg.norm(xs[bad[0]]):.4g}: a rule's "
                          "statistic w . (U'x)**2 leaves float64 range on this model")
    n_w = w_mat.shape[0]
    has_ls = any(plan.gain is unit_gain for plan in plans)
    a_t = functools.cache(lambda: np.ascontiguousarray((model.cw_sqrt @ model.ls_op.T @ basis).T))
    work = {}

    def work_array(name, k, rows):
        if name not in work:
            work[name] = np.empty(k * CHUNK_TRIALS)
        return work[name][: k * rows].reshape(k, rows)

    def eval_chunk(z):
        rows = z.shape[0]
        v0 = np.matmul(a_t(), z.T, out=work_array("v0", m, rows))
        d = z.reshape(-1)[: m * rows].reshape(m, rows)  # the spent block (n >= m) holds squares
        cross = work_array("cross", cross_ops.shape[1], rows)
        stats = cross[:n_w]
        # Overflow gives inf, which the check below rejects for every weight row.
        with np.errstate(over="ignore", invalid="ignore"):
            base = w_mat @ np.multiply(v0, v0, out=d)
        if not np.all(np.isfinite(base)):
            raise NonFiniteError("a rule's noise statistic (||v0||^2, sig . v0**2 or ebme's "
                                 "sig**b . v0**2, v0 = U'(xls - x)) leaves float64 range")
        ls = (reduce(base[0]), float(rows)) if has_ls else None
        out = []
        for k, u in enumerate(us[:, :, None]):
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(cross_ops[k], v0, out=cross)
                stats += base
                stats += w_u2[k, :, None]
            v = None
            for plan, j, ja, c in zip(plans, s_slot, a_slot, c_slot):
                if plan.gain is unit_gain:
                    out.append(ls)
                    continue
                fit = None
                if plan.affine is not None and stats[j].min() > plan.affine.t0:
                    fit = _affine_errors(plan.affine, stats[j], base[0],
                                         stats[ja], base[ja], w_u2[k, ja])
                if fit is not None:
                    se, gain_sum = fit
                else:
                    s = stats[j] if plan.center is None else base[0] + cross[n_w + c] + u2[k, c]
                    g = plan.gain(s, d)  # a per-component g may be d itself
                    gain_sum = g.sum(axis=-1)
                    if g.ndim == 1:
                        h = g - 1.0
                        se = (g * base[0] + h * cross[n_w + c]) * g + u2[k, c] * (h * h)
                    else:
                        if v is None:
                            v = np.add(v0, u, out=work_array("v", m, rows))
                        g *= v
                        g -= u
                        se = np.einsum("ij,ij->j", g, g)
                out.append((reduce(se), gain_sum))
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
    """Check the direction policies and expand them into ``(sweep_key,
    unit_vector)`` pairs (the forms are ``ExperimentConfig``'s)."""
    out = []
    rand_idx = vec_idx = 0
    for pol in policies:
        keys = set(pol) if isinstance(pol, dict) else None
        if pol == "max-eigenvector":
            # Largest eigenvalue of Q^-1: last column of the descending-Q basis.
            out.append(("max-eig", model.Qeig.basis[:, -1].copy()))
        elif pol == "min-eigenvector":
            out.append(("min-eig", model.Qeig.basis[:, 0].copy()))
        elif keys == {"random-sphere"}:
            for _ in range(_count(pol["random-sphere"], "directions.random-sphere", least=1)):
                out.append((f"rand-{rand_idx:03d}", _random_unit_vector(seed, rand_idx, model.m)))
                rand_idx += 1
        elif keys in ({"vector"}, {"vector", "id"}):
            try:
                vec = as_vector(_numbers(pol["vector"], "directions.vector"), "directions.vector")
            except LinalgError as exc:  # empty, or an entry not finite
                raise ConfigError(str(exc)) from exc
            key = pol.get("id")
            key = f"vec-{vec_idx:03d}" if key is None else _csv_field(key, "directions.id")
            vec_idx += 1
            out.append((key, vec))
        else:
            raise ConfigError(f"directions: unknown policy {pol!r}")
    _check_distinct([key for key, _ in out], "directions", "sweep keys")
    return out


# --- experiment runner ------------------------------------------------------


def _plan(model: Model, spec: EstimatorSpec):
    """``spec``'s plan on ``model``. ``ConfigError`` names the rule when its
    center has the wrong length, and when its risk is infinite: a ``Ratio``
    with ``c = 0``, ``e != 0`` and no clamp at ``m <= 2``, where
    ``E[1/||xls||^2]`` diverges and a Monte Carlo mean depends on the seed."""
    try:
        plan = RULES[spec.kind].plan(model, spec)
    except DimensionMismatchError as exc:
        raise ConfigError(f"estimators: {spec.label}: {exc}") from exc
    gain = plan.gain
    if (isinstance(gain, Ratio) and gain.c == 0.0 and gain.e != 0.0 and not gain.clamp
            and model.m <= 2):
        raise ConfigError(f"estimators: {spec.label}: infinite risk at m={model.m}: "
                          "E[1/||xls||^2] diverges for m <= 2")
    return plan


def run_experiment(config: ExperimentConfig):
    """Run a config and return its sorted ``MseRow`` list.

    It fills the empty fields (``ExperimentConfig``), validates them, then
    builds an inline model. The scenario's ``(case_key, model)`` cases (one
    per condition in the condition-number sweep, one unkeyed case elsewhere)
    and directions give the grid points. The SNR points of one (case,
    direction) pair form a group that shares its noise. Each model's plans
    are built once, and every group's kernel (``_chunk_kernel``, which
    bounds its rules' statistics) before any noise is drawn. One chunk pass
    serves a group, folded into per-(point, rule) moments in chunk order;
    the kernel goes with its pass.
    """
    named = isinstance(config.scenario, str)
    if named:
        preset = scenarios.preset(config.scenario)
        config = replace(config, estimators=_or_preset(config.estimators, preset.estimators),
                         snr_grid_db=_or_preset(config.snr_grid_db, preset.snr_grid_db),
                         directions=_or_preset(config.directions, preset.directions),
                         trials=preset.trials if config.trials is None else config.trials)
    elif config.trials is None:
        config = replace(config, trials=scenarios.DEFAULT_TRIALS)
    config.validate()
    seed, trials = int(config.seed), int(config.trials)
    snrs = [float(snr_db) for snr_db in config.snr_grid_db]
    cases, scenario_name = (scenarios.resolve_cases if named else _inline_cases)(config.scenario)
    groups = []
    for case_idx, (case_key, model) in enumerate(cases):
        plans = [_plan(model, spec) for spec in config.estimators]
        directions = resolve_directions(model, config.directions, seed)
        for dir_idx, (dir_key, direction) in enumerate(directions):
            sweep_key = case_key if case_key is not None else dir_key
            if case_key is not None and len(directions) > 1:
                sweep_key = f"{case_key}:{dir_key}"
            try:
                xs = [scale_to_snr(model, direction, snr_db) for snr_db in snrs]
            except LinalgError as exc:  # an SNR out of range, or a zero or wrong-length direction
                name = "snr_grid_db" if isinstance(exc, SnrRangeError) else "directions"
                raise ConfigError(f"{name}: {exc}") from exc
            # The group's stream is the one its first SNR point had alone.
            group_seed = derive_seed(seed, _TAG_POINT, case_idx, dir_idx, 0)
            kernel = _chunk_kernel(model, xs, plans, _moments)  # bounds the group before any noise
            groups.append((kernel, model, sweep_key, group_seed))

    rows = []
    while groups:  # each kernel, with its A' and work arrays, goes with its pass
        kernel, model, sweep_key, group_seed = groups.pop(0)
        # Errors beyond float64 range are checked once, on each row's moments.
        with np.errstate(over="ignore", invalid="ignore"):
            results = _fold(_map_chunks(kernel, group_seed, trials, model.n))
        for (snr_db, spec), (moments, gains) in zip(itertools.product(snrs, config.estimators),
                                                    results):
            mean, stderr = _mean_stderr(*moments)
            if not (math.isfinite(mean) and math.isfinite(stderr)):
                raise NonFiniteError(
                    f"{spec.label}: squared errors leave float64 range on this model")
            rows.append(MseRow(
                scenario=scenario_name, estimator=spec.label, snr_db=snr_db, sweep_key=sweep_key,
                mse_mean=mean, mse_stderr=stderr, trials=trials, seed=seed,
                gain_mean=np.broadcast_to(gains, (model.m,)) / trials, eps0=model.eps0,
            ))
    rows.sort(key=MseRow.sort_key)
    return rows


# --- config file loading ----------------------------------------------------


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file into an ``ExperimentConfig``.

    ``estimators`` (tag strings, with ``offcenter:file=`` paths relative to
    the config file) is parsed here; ``scenario`` (required), ``snr_grid_db``,
    ``directions``, ``trials`` and ``seed`` (``None`` when absent) pass
    through as written, for ``run_experiment`` to validate.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))

    unknown = set(raw) - {"scenario", "estimators", "snr_grid_db", "directions", "trials", "seed"}
    if unknown:
        raise ConfigError(f"config {path}: unknown fields {sorted(unknown)}")
    if "scenario" not in raw:
        raise ConfigError(f"config {path}: missing required field 'scenario'")

    def loader(rel):
        return read_vector_csv(os.path.join(base_dir, rel))

    tags = raw.pop("estimators", None)
    if not (tags is None or isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        raise ConfigError(f"estimators: expected a list of tag strings, got {tags!r}")
    estimators = [parse_estimator_spec(tag, vector_loader=loader) for tag in tags or []]
    return ExperimentConfig(estimators=estimators, seed=raw.pop("seed", None), **raw)


def _or_preset(value, default) -> list:
    """``value``, or the preset's ``default`` where the field is empty (``None`` or ``[]``)."""
    return list(default) if value is None or isinstance(value, list) and not value else value


def _inline_cases(obj):
    """An inline model's cases and name, as ``scenarios.resolve_cases`` gives a
    named one's: ``obj`` is ``{"H": ..., "Cw": ..., "name": ...}``, each matrix as
    rows of numbers of one length, ``{"diag": [...]}`` or ``{"identity": n}``."""
    keys = list(obj) if isinstance(obj, dict) else obj
    if not (isinstance(obj, dict) and {"H", "Cw"} <= set(keys) <= {"H", "Cw", "name"}):
        raise ConfigError("scenario: expected a name or an inline model object with keys 'H', "
                          f"'Cw' and optionally 'name', got {keys!r}")

    def mat(spec, name):
        if isinstance(spec, dict) and list(spec) == ["identity"]:
            return np.eye(_count(spec["identity"], f"{name}.identity", least=1))
        if isinstance(spec, dict) and list(spec) == ["diag"]:
            return np.diag(_numbers(spec["diag"], f"{name}.diag"))
        if isinstance(spec, list) and len({len(r) if type(r) is list else -1 for r in spec}) == 1:
            return np.array([_numbers(row, name) for row in spec])
        raise ConfigError(f"{name}: expected nested lists, or an object whose one key is diag "
                          "or identity")

    name = _csv_field(obj.get("name", "custom"), "scenario.name")
    return [(None, build_model(mat(obj["H"], "scenario.H"), mat(obj["Cw"], "scenario.Cw")))], name


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

    def within(self) -> bool:
        """Whether every coordinate's discrepancy is at most 4 of its stderr."""
        return bool(np.all(self.discrepancy <= 4.0 * self.stderr))


def stein_lemma_check(v, sigma, c: float, trials: int, seed) -> SteinCheckResult:
    """Monte Carlo check of the Gaussian integration-by-parts identity for
    the ratio ``g_i(v) = v_i / (c + v' diag(sigma)^-1 v)``, whose derivative
    is known in closed form. Both sides are estimated from common draws, so
    ``stderr`` is the standard error of the per-draw difference.

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
    if not (_is_number(trials, (int, np.integer)) and trials >= 10**4):
        raise ConfigError("trials: must be >= 10^4")

    def chunk_stats(z):
        """Per coordinate: the moments of ``dg_i/dv_i - g_i z_i`` and the sums of both terms."""
        zt = np.ascontiguousarray(z.T)
        vh = zt + v[:, None]
        sq = vh * vh
        inv = 1.0 / (c + inv_sigma @ sq)
        deriv = inv * (1.0 - 2.0 * inv_sigma[:, None] * sq * inv)
        gz = vh * inv * zt
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

"""Shrinkage estimators that post-process the least-squares solution.

Every rule rescales the eigen-coordinates ``v = U' xls`` of the
least-squares estimate, ``U`` the eigenbasis of ``Q = H' Cw^-1 H``, by one
gain per trial (scalar rules) or per component (spectral rules), and the
gains depend on ``v`` only through one statistic ``s = sum_i w_i v_i**2``
per trial, with ``w = 1``, ``sig`` (``Q``'s eigenvalues) or ``sig**b``. Each
tag in ``RULES`` builds a ``Plan`` for a model: its weights ``w`` and its
``gain(s)``. ``estimate_from_ls(model, spec, xls)`` and the Monte Carlo
engine in ``sim`` call the same ``gain``, so each formula exists once.
``estimate_from_ls`` accepts one vector of length ``m`` or a ``(..., m)``
batch and is pure; a spec comes from ``EstimatorSpec(tag, ...)`` or from
the text syntax, ``parse_estimator_spec``.

Every rule but ``ls`` (``unit_gain``) and ``ebme`` has a ``Ratio`` for its
gain, ``1 - e / (c + s)`` (``_ratio_gain``), with ``c`` and ``e`` as fields:

* ``sbme``      -- ``s = ||xls||^2``, ``c = e = eps0``;
* ``shrinkc:c`` -- ``s = ||xls||^2``, a finite ``c >= 0``, ``e = eps0``
  (``c = eps0`` is ``sbme``, ``c = 0`` is ``bbm``);
* ``bbm``       -- ``s = ||xls||^2``, ``c = 0``, ``e = eps0``; may be
  negative, and ``pbm`` clamps it at zero;
* ``bock``      -- ``s = ||xls||^2_Q``, ``c = 0``, ``e = eps0/eps_max - 2``;
* ``tik2``      -- ``s = ||xls||^2_Q``, ``c = e = m``;
* ``tik1``      -- per component, ``s_i = sig_i ||xls||^2``, ``c = e = m``:
  the ridge ``(Q + m/||xls||^2 I)^-1 Q xls``.

``offcenter:file`` is ``sbme`` about a fixed point ``x0``: its
``s = ||xls - x0||^2`` and it shrinks ``xls - x0``. ``ebme:b`` applies
``(1 - alpha * sig**(b/2))_+`` per component, with
``alpha = r1 / (||xls||^2_{Q^b} + r2)`` summed past a cutoff (``_ebme_plan``),
shrinking noisy components harder; ``b = 0`` is ``sbme``.

``sbme_dominance_holds`` / ``ebme_dominance_holds`` evaluate the sufficient
conditions under which the corresponding estimators beat least squares for
every parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from blindmm.linalg import (
    DimensionMismatchError,
    LinalgError,
    NonFiniteError,
    as_vector,
    read_vector_csv,
)
from blindmm.model import Model


class UnknownEstimatorError(LinalgError):
    """Estimator tag not recognized by the text syntax."""


@dataclass
class EstimateResult:
    """Estimate plus the gain profile that produced it.

    ``shrinkage`` holds the per-spectral-component gain applied in the
    eigenbasis of ``Q`` (all ones for least squares, a constant vector for
    scalar-gain estimators). ``degenerate`` marks the measure-zero
    ``xls = 0`` inputs on which ``bbm``, ``bock``, ``tik1``, ``tik2`` and
    ``shrinkc:c=0`` are undefined and a zero vector is returned by convention.
    """

    xhat: np.ndarray
    shrinkage: np.ndarray
    degenerate: bool = False


def _check_ls(model: Model, xls) -> np.ndarray:
    xls = np.asarray(xls, dtype=np.float64)
    if xls.shape[-1] != model.m:
        raise DimensionMismatchError(
            f"xls: trailing dimension {xls.shape[-1]} does not match m={model.m}"
        )
    if not np.all(np.isfinite(xls)):
        raise NonFiniteError("xls: entries must be finite")
    return xls


def _finite(v) -> bool:
    return v is not None and bool(np.isfinite(v))


def _ratio_gain(s, c, e, out=None):
    """The scalar gain ``1 - e / (c + s)`` of every scalar rule, and 0 where
    ``c + s == 0``, written into ``out`` (which may be ``s``) if given.

    The ratio form ``((c - e) + s) / (c + s)`` keeps relative accuracy when
    the gain is tiny, and reduces exactly to ``s / (s + e)`` at ``c = e``
    and to ``(s - e) / s`` at ``c = 0``.
    """
    denom = c + s
    g = np.add(s, c - e, out=out)  # the same floats as (c - e) + s
    if not c > 0.0:  # s >= 0, so c > 0 leaves no zero denominator
        zero = denom == 0.0
        if zero.any():
            g[zero], denom[zero] = 0.0, 1.0
    return np.divide(g, denom, out=g)


def unit_gain(s, out=None):
    """``ls``'s gain: 1 on every row. The Monte Carlo engine recognises it
    by identity and takes ``ls``'s squared error as ``||v0||^2``."""
    return np.ones_like(s)


# --- gain kernels -----------------------------------------------------------


class Affine(NamedTuple):
    """``ebme``'s gains on a row whose statistic ``l2`` exceeds ``t0``, the
    largest cutoff threshold: no component is cut there, and the gains are
    ``1 - a * weights`` with one ``a = r1 / (l2 + r2)`` per row."""

    weights: np.ndarray
    t0: float
    r1: float
    r2: float


class Ratio(NamedTuple):
    """The gain ``_ratio_gain(s, c, e)`` of every rule but ``ls`` and ``ebme``;
    an ``(m, 1)`` ``spread`` makes it per component, ``s_i = spread_i * s``,
    and ``clamp`` takes the positive part."""

    c: float
    e: float
    spread: np.ndarray | None = None
    clamp: bool = False

    def __call__(self, s, out=None):
        spread_s = s if self.spread is None else np.multiply(self.spread, s, out=out)
        g = _ratio_gain(spread_s, self.c, self.e, out=None if self.spread is None else spread_s)
        if self.clamp:
            np.maximum(g, 0.0, out=g)
        return g


class Plan(NamedTuple):
    """A rule for one model: ``gain(s, out=None)`` maps the statistic
    ``s = sum_i weights_i v_i**2`` of each row (``weights`` ``None``:
    ``s = ||xls||^2``) to gains ``g``, ``(rows,)`` or, per component,
    ``(m, rows)``, that may be written into the work array ``out``. Every
    ``gain`` but ``ls``'s and ``ebme``'s is a ``Ratio``, whose fields the
    exact-risk oracle in the tests reads as the rule's constants.
    ``undefined_at_zero`` marks a rule undefined where ``s == 0`` (gain 0 there).
    ``center`` is the point shrunk toward and the one ``s`` is taken about
    (``None``: the origin). ``affine`` (``ebme`` only) is the closed form of
    ``gain`` on the rows its cutoff leaves whole, which the Monte Carlo
    engine evaluates from per-row statistics; ``gain`` stays the reference."""

    gain: Callable
    weights: np.ndarray | None = None
    center: np.ndarray | None = None
    affine: Affine | None = None
    undefined_at_zero: bool = False


def _center_plan(model: Model, x0) -> Plan:
    x0 = as_vector(x0, "x0")
    if x0.shape[0] != model.m:
        raise DimensionMismatchError(f"x0: dim {x0.shape[0]} does not match m={model.m}")
    return Plan(Ratio(model.eps0, model.eps0), center=x0)


_OVERFLOW = "ebme: exponent b={b:g} overflows float64 on this model; use a smaller |b|"


def _ebme_plan(model: Model, b: float) -> Plan:
    """``ebme``'s threshold table. With components ranked so ``sig**b`` is
    non-increasing, ``t_k = r1_k * sig_k**(b/2) - r2_k`` is non-increasing
    (``sum_{j>=k} sig_j**(b/2-1) (sig_k**(b/2) - sig_j**(b/2))``; its running
    minimum absorbs rounding), so the cutoff, the first ``k`` with
    ``t_k < ||xls||^2_{Q^b}``, is one ``searchsorted`` per trial."""
    sig, m = model.Qeig.eigenvalues, model.m
    # Powers of sig can overflow for large |b|; that is detected below
    # instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        sb = sig**b
        order = np.argsort(-sb, kind="stable")
        sig_o = sig[order]
        r1 = np.cumsum((sig_o ** (b / 2.0 - 1.0))[::-1])[::-1]
        r2 = np.cumsum((sig_o ** (b - 1.0))[::-1])[::-1]
        t_ascending = np.minimum.accumulate(r1 * sig_o ** (b / 2.0) - r2)[::-1].copy()
        sb2 = (sig ** (b / 2.0))[:, None]
    if not (np.isfinite(sb[order[0]] + r1[0] + r2[0]) and np.all(np.isfinite(t_ascending))):
        raise UnknownEstimatorError(_OVERFLOW.format(b=b))
    rank = np.argsort(order, kind="stable")[:, None]

    def gain(l2, out=None):
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.minimum(m - np.searchsorted(t_ascending, l2), m - 1)
            r1k, r2k = r1[k], r2[k]
            k[l2 <= 0.0] = m  # zero input: every component is cut
            # Ratio form of 1 - alpha * sig**(b/2), alpha = r1k / (l2 + r2k):
            # the correction enters the numerator before the division, so
            # near-total shrinkage keeps full relative accuracy (at b = 0 the
            # correction vanishes identically). In place, the numerator is
            # (-r1k * sb2 + r2k) + l2, the same floats as l2 + (r2k - r1k * sb2).
            g = np.multiply(-r1k, sb2, out=out)
            g += r2k
            g += l2
            g /= l2 + r2k
            np.maximum(g, 0.0, out=g)
            # Components ranked before the cutoff have non-positive gains
            # by construction; zero them by rank to keep the count exact.
            np.copyto(g, 0.0, where=rank < k)
        if not np.all(np.isfinite(g)):
            raise UnknownEstimatorError(_OVERFLOW.format(b=b))
        return g

    # t0 >= 0, so a zero row (every component cut) is never affine.
    t0 = float(max(t_ascending[-1], 0.0))
    return Plan(gain, sb, affine=Affine(sb2[:, 0], t0, r1[0], r2[0]))


def _apply(model: Model, plan: Plan, xls) -> EstimateResult:
    """Run ``plan`` on one ``xls`` or a ``(..., m)`` batch; only a weighted
    or per-component rule rotates the rows into ``Q``'s eigenbasis."""
    xls = _check_ls(model, xls)
    rows = xls.reshape(-1, model.m)
    if plan.center is not None:
        rows = rows - plan.center
    basis = model.Qeig.basis
    v = None if plan.weights is None else basis.T @ rows.T  # (m, rows), as in the engine
    # Overflow raises after the gain, so ebme raises its own error first.
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.einsum("ij,ij->i", rows, rows) if v is None else plan.weights @ (v * v)
        g = plan.gain(s)
    # _check_ls refused a non-finite xls, so only a statistic or a gain can overflow
    # here; ls (unit_gain) uses neither.
    for name, value in (("statistic s (||xls||^2, ||xls - x0||^2 or sig . (U'xls)**2)", s),
                        ("gain (tik1's on sig_i s)", g)):
        if plan.gain is not unit_gain and not np.all(np.isfinite(value)):
            raise NonFiniteError(f"xls: the rule's {name} leaves float64 range")
    if g.ndim == 1:
        xhat = g[:, None] * rows
        if plan.center is not None:
            xhat += plan.center
        shrinkage = np.repeat(g[:, None], model.m, axis=1)
    else:
        if v is None:
            v = basis.T @ rows.T
        # Adding +0.0 turns the -0.0 a rotation can leave at xls = 0 into +0.0.
        xhat = (g * v).T @ basis.T + 0.0
        shrinkage = g.T
    degenerate = bool(plan.undefined_at_zero and np.any(s == 0.0))
    return EstimateResult(xhat.reshape(xls.shape), shrinkage.reshape(xls.shape), degenerate)


def sbme_dominance_holds(model: Model) -> bool:
    """Sufficient condition for the scalar-gain family (``sbme``,
    ``shrinkc``, ``bbm``) to beat least squares everywhere:
    effective dimension strictly above 4."""
    return model.eps0 / model.eps_max > 4.0


def ebme_dominance_holds(model: Model, b: float) -> bool:
    """Sufficient condition for ``ebme`` with exponent ``b``:
    ``tr(Q**(b/2-1)) > 4 * lambda_max(Q**(b/2-1))``. At ``b = 0`` this is
    exactly the scalar condition. A ``b`` that is not finite, or whose
    powers of the eigenvalues leave float64 range, raises
    ``UnknownEstimatorError``."""
    if not _finite(b):
        raise UnknownEstimatorError(f"ebme requires a finite exponent b, got b={b:g}")
    with np.errstate(over="ignore"):
        powers = model.Qeig.eigenvalues ** (b / 2.0 - 1.0)
        total = float(np.sum(powers))
    peak = float(np.max(powers))
    if not (np.isfinite(total) and peak > 0.0):
        raise UnknownEstimatorError(
            f"ebme: exponent b={b:g} leaves float64 range on this model; use a smaller |b|"
        )
    return total > 4.0 * peak


# --- estimator tags -------------------------------------------------------
#
# Text syntax used by the CLI and experiment configs; ``RULES`` holds one
# entry per tag with its parameter, its label and the plan it builds:
#   ls | sbme | bbm | pbm | bock | tik1 | tik2
#   ebme:b=<float>   shrinkc:c=<float>   offcenter:file=<vector csv>


def _number(key: str):
    def parse(val: str, vector_loader) -> dict:
        try:
            return {key: float(val)}
        except ValueError as exc:
            raise UnknownEstimatorError(f"bad value {key}={val!r}") from exc

    return parse


def _center_file(val: str, vector_loader) -> dict:
    if not val:
        raise UnknownEstimatorError("expected offcenter:file=<csv>")
    return {"x0": np.asarray(vector_loader(val), dtype=np.float64), "x0_name": val}


@dataclass(frozen=True)
class Param:
    """A tag's parameter: its text key, ``parse(value, vector_loader)`` into
    ``EstimatorSpec`` fields, the ``valid(spec)`` test and the requirement
    it states, and the label ``suffix(spec)`` (``None`` for none)."""

    key: str
    parse: Callable
    valid: Callable
    need: str
    suffix: Callable


def _label_number(x) -> str:
    """``x`` in ``:g`` form where that reads back as ``x``, in full otherwise,
    so that two parameters never share a label."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


_B = Param("b", _number("b"), lambda spec: _finite(spec.b), "a finite exponent b",
           lambda spec: f"b={_label_number(spec.b)}")
_C = Param("c", _number("c"), lambda spec: _finite(spec.c) and spec.c >= 0.0,
           "a finite c >= 0", lambda spec: f"c={_label_number(spec.c)}")
_FILE = Param("file", _center_file, lambda spec: spec.x0 is not None, "a center vector x0",
              lambda spec: f"file={spec.x0_name}" if spec.x0_name else None)


@dataclass(frozen=True)
class Rule:
    """A tag's ``plan(model, spec)`` (its ``Plan`` with the model's
    constants), its parameter (``None`` for a bare tag), and whether its
    gains differ across ``Q``'s eigenbasis."""

    plan: Callable
    param: Param | None = None
    per_component: bool = False


RULES = {
    "ls": Rule(lambda model, spec: Plan(unit_gain)),
    "sbme": Rule(lambda model, spec: Plan(Ratio(model.eps0, model.eps0))),
    "bbm": Rule(lambda model, spec: Plan(Ratio(0.0, model.eps0), undefined_at_zero=True)),
    "pbm": Rule(lambda model, spec: Plan(Ratio(0.0, model.eps0, clamp=True))),
    "bock": Rule(lambda model, spec: Plan(Ratio(0.0, model.eps0 / model.eps_max - 2.0),
                                          model.Qeig.eigenvalues, undefined_at_zero=True)),
    "tik1": Rule(lambda model, spec: Plan(Ratio(model.m, model.m, model.Qeig.eigenvalues[:, None]),
                                          undefined_at_zero=True), per_component=True),
    "tik2": Rule(lambda model, spec: Plan(Ratio(model.m, model.m), model.Qeig.eigenvalues,
                                          undefined_at_zero=True)),
    "ebme": Rule(lambda model, spec: _ebme_plan(model, spec.b), _B, per_component=True),
    "shrinkc": Rule(lambda model, spec: Plan(Ratio(spec.c, model.eps0),
                                             undefined_at_zero=spec.c == 0.0), _C),
    "offcenter": Rule(lambda model, spec: _center_plan(model, spec.x0), _FILE),
}


def _rule(kind: str) -> Rule:
    try:
        return RULES[kind]
    except KeyError:
        raise UnknownEstimatorError(f"unknown estimator tag {kind!r}") from None


@dataclass(frozen=True)
class EstimatorSpec:
    """Tagged choice of estimator plus its parameters."""

    kind: str
    b: float | None = None
    c: float | None = None
    x0: np.ndarray | None = None
    x0_name: str | None = None

    def __post_init__(self):
        param = _rule(self.kind).param
        if param is not None and not param.valid(self):
            raise UnknownEstimatorError(f"{self.kind} requires {param.need}")

    @property
    def label(self) -> str:
        param = RULES[self.kind].param
        suffix = param.suffix(self) if param is not None else None
        return f"{self.kind}:{suffix}" if suffix else self.kind


def parse_estimator_spec(text: str, vector_loader=read_vector_csv) -> EstimatorSpec:
    """Parse the estimator text syntax; unknown tags are errors.

    ``vector_loader`` resolves the ``offcenter:file=...`` argument (callers
    may bind it to a config-relative loader).
    """
    kind, _, arg = text.strip().partition(":")
    kind = kind.strip()
    param = _rule(kind).param
    if param is None:
        if arg:
            raise UnknownEstimatorError(f"estimator {kind!r} takes no parameters: {text!r}")
        return EstimatorSpec(kind=kind)
    key, _, val = arg.partition("=")
    if key.strip() != param.key:
        raise UnknownEstimatorError(f"expected {kind}:{param.key}=<value>, got {text!r}")
    return EstimatorSpec(kind=kind, **param.parse(val, vector_loader))


def estimate_from_ls(model: Model, spec: EstimatorSpec, xls) -> EstimateResult:
    """Apply the rule ``spec`` to ``xls = ls_estimate(model, y)``, one vector
    of length ``m`` or a ``(..., m)`` batch: the one public way to apply a rule."""
    return _apply(model, RULES[spec.kind].plan(model, spec), xls)

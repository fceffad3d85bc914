"""Shrinkage estimators that post-process the least-squares solution.

All estimators are written as functions of the least-squares estimate
``xls`` (the Tikhonov variants also exist in measurement form), so a Monte
Carlo trial solves for ``xls`` once and fans out. Every function accepts
either a single vector of length ``m`` or a ``(..., m)`` batch and is pure.

The family. Every scalar rule applies one gain ``1 - e / (c + s)``
(``_ratio_gain``) to ``xls``:

* ``sbme``         -- ``s = ||xls||^2``, ``c = e = eps0``;
* ``shrink_c``     -- ``s = ||xls||^2``, a finite ``c >= 0``, ``e = eps0``;
* ``balanced_bme`` -- ``s = ||xls||^2``, ``c = 0``, ``e = eps0``; may be
  negative, and ``positive_part_bme`` clamps it at zero;
* ``bock``         -- ``s = ||xls||^2_Q``, ``c = 0``, ``e = eps0/eps_max - 2``;
* ``tikhonov2``    -- ``s = ||xls||^2_Q``, ``c = e = m``.

``off_center_sbme`` shrinks toward a fixed point ``x0`` with the ``sbme``
gain. The spectral rules apply per-component gains in the eigenbasis of
``Q``: ``ebme`` uses ``(1 - alpha * sig**(b/2))_+``, shrinking noisy
components harder, and ``tikhonov1`` is least squares with the empirical
ridge weight ``m / ||xls||^2``.

``sbme_dominance_holds`` / ``ebme_dominance_holds`` evaluate the sufficient
conditions under which the corresponding estimators beat least squares for
every parameter value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from blindmm.linalg import (
    DimensionMismatchError,
    LinalgError,
    NonFiniteError,
    as_vector,
    read_vector_csv,
)
from blindmm.model import Model, ls_estimate


class UnknownEstimatorError(LinalgError):
    """Estimator tag not recognized by the text syntax."""


@dataclass
class EstimateResult:
    """Estimate plus the gain profile that produced it.

    ``shrinkage`` holds the per-spectral-component gain applied in the
    eigenbasis of ``Q`` (all ones for least squares, a constant vector for
    scalar-gain estimators). ``degenerate`` marks the measure-zero
    ``xls = 0`` inputs on which the balanced/Bock/Tikhonov rules are
    undefined and a zero vector is returned by convention.
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


def _check_exponent(b) -> None:
    if not _finite(b):
        raise UnknownEstimatorError(f"ebme requires a finite exponent b, got b={b:g}")


def _ratio_gain(s, c, e):
    """The scalar gain ``1 - e / (c + s)`` of every scalar rule, and 0 where
    ``c + s == 0``.

    The ratio form ``((c - e) + s) / (c + s)`` keeps relative accuracy when
    the gain is tiny, and reduces exactly to ``s / (s + e)`` at ``c = e``
    and to ``(s - e) / s`` at ``c = 0``.
    """
    denom = c + s
    return np.divide((c - e) + s, denom, out=np.zeros_like(denom), where=denom != 0.0)


def _scalar_result(xls, gain, degenerate) -> EstimateResult:
    xhat = gain[..., None] * xls
    shrinkage = np.broadcast_to(gain[..., None], xls.shape).copy()
    return EstimateResult(xhat=xhat, shrinkage=shrinkage, degenerate=bool(np.any(degenerate)))


def sbme(model: Model, xls) -> EstimateResult:
    """Spherical rule: shrink toward the origin by
    ``||xls||^2 / (||xls||^2 + eps0)``; gain in [0, 1), zero only at zero."""
    return shrink_c(model, xls, model.eps0)


def shrink_c(model: Model, xls, c: float) -> EstimateResult:
    """Scalar gain ``1 - eps0 / (c + ||xls||^2)`` for a finite ``c >= 0``.

    ``c = eps0`` is ``sbme``; ``c = 0`` is ``balanced_bme``. The ``c = 0``,
    ``xls = 0`` corner is undefined and returns zero with the degenerate
    flag set.
    """
    if not (_finite(c) and c >= 0.0):
        raise UnknownEstimatorError(f"shrink_c requires a finite c >= 0, got c={c}")
    xls = _check_ls(model, xls)
    n2 = np.sum(xls * xls, axis=-1)
    return _scalar_result(xls, _ratio_gain(n2, c, model.eps0), c + n2 == 0.0)


def off_center_sbme(model: Model, xls, x0) -> EstimateResult:
    """Spherical rule centered on ``x0`` instead of the origin: returns
    ``g * xls + (1 - g) * x0`` with the ``sbme`` gain ``g``."""
    result = sbme(model, xls)
    x0 = as_vector(x0, "x0")
    if x0.shape[0] != model.m:
        raise DimensionMismatchError(f"x0: dim {x0.shape[0]} does not match m={model.m}")
    result.xhat += (1.0 - result.shrinkage[..., :1]) * x0
    return result


def balanced_bme(model: Model, xls) -> EstimateResult:
    """Gain ``1 - eps0 / ||xls||^2``; may be negative (sign flip) by design.

    Undefined at ``xls = 0`` (a probability-zero event): returns the zero
    vector with ``degenerate=True``.
    """
    return shrink_c(model, xls, 0.0)


def positive_part_bme(model: Model, xls) -> EstimateResult:
    """Balanced rule with negative gain clamped: ``(1 - eps0/||xls||^2)_+``.

    Returns exactly zero whenever ``||xls||^2 <= eps0`` (including at
    ``xls = 0``, where no flag is needed)."""
    xls = _check_ls(model, xls)
    n2 = np.sum(xls * xls, axis=-1)
    return _scalar_result(xls, np.maximum(_ratio_gain(n2, 0.0, model.eps0), 0.0), False)


def bock(model: Model, xls) -> EstimateResult:
    """Extended scalar-shrinkage rule for colored noise:
    gain ``1 - (eps0/eps_max - 2) / ||xls||^2_Q``; may be negative."""
    xls = _check_ls(model, xls)
    qn = _q_norm2(model, xls)
    gain = _ratio_gain(qn, 0.0, model.eps0 / model.eps_max - 2.0)
    return _scalar_result(xls, gain, qn == 0.0)


def _q_norm2(model: Model, xls) -> np.ndarray:
    v = xls @ model.Qeig.basis
    return (v * v) @ model.Qeig.eigenvalues


def _spectral_result(model: Model, v, gains, degenerate) -> EstimateResult:
    """Apply per-component gains to ``v = xls @ basis`` (``Q``'s eigenbasis)
    and rotate back."""
    xhat = (gains * v) @ model.Qeig.basis.T
    return EstimateResult(xhat=xhat, shrinkage=gains, degenerate=bool(np.any(degenerate)))


def ebme(model: Model, xls, b: float = -1.0, positive_part: bool = True) -> EstimateResult:
    """Adaptive spectral shrinkage from an ellipsoidal set fit to the data.

    With eigenvalues of ``Q`` ordered so ``sig**b`` is non-increasing, the
    gain of component ``i`` is ``(1 - alpha * sig_i**(b/2))_+`` where
    ``alpha = r1 / (||xls||^2_{Q^b} + r2)``, ``r1`` and ``r2`` sum
    ``sig**(b/2-1)`` and ``sig**(b-1)`` over components after the cutoff
    ``k``, and ``k`` is the smallest index with ``alpha * sig_{k+1}**(b/2)
    < 1``. Exactly the ``k`` leading components (in ``sig**b`` order) are
    clamped to zero. ``b = 0`` collapses to the scalar ``sbme`` gain;
    ``xls = 0`` returns zero. A ``b`` whose powers of ``sig`` (or whose
    ``||xls||^2_{Q^b}``) overflow float64 raises ``UnknownEstimatorError``.

    ``positive_part=False`` skips the clamp, exposing the raw
    ``(I - alpha Q^{b/2}) xls`` rule the clamp provably improves on.
    """
    _check_exponent(b)
    xls = _check_ls(model, xls)
    sig = model.Qeig.eigenvalues
    m = model.m
    # Powers of sig and the Q^b norm can overflow for large |b|; that is
    # detected below instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        order = np.argsort(-(sig**b), kind="stable")
        inv_order = np.argsort(order, kind="stable")
        sig_o = sig[order]
        sb = sig_o**b
        sb2 = sig_o ** (b / 2.0)
        r1_suffix = np.cumsum((sig_o ** (b / 2.0 - 1.0))[::-1])[::-1]
        r2_suffix = np.cumsum((sig_o ** (b - 1.0))[::-1])[::-1]

        v = xls @ model.Qeig.basis
        vo = v[..., order]
        l2 = (vo * vo) @ sb
        zero = l2 <= 0.0
        l2_safe = np.where(zero, 1.0, l2)

        alphas = r1_suffix / (l2_safe[..., None] + r2_suffix)
        ok = alphas * sb2 < 1.0
        ok[..., m - 1] = True  # always satisfiable at the last index
        k = np.argmax(ok, axis=-1)
        r1k = np.take_along_axis(np.broadcast_to(r1_suffix, ok.shape), k[..., None], axis=-1)
        r2k = np.take_along_axis(np.broadcast_to(r2_suffix, ok.shape), k[..., None], axis=-1)

        # Ratio form of 1 - alpha * sig**(b/2): the correction enters the
        # numerator before the division, so near-total shrinkage keeps full
        # relative accuracy (at b = 0 the correction vanishes identically).
        denom = l2_safe[..., None] + r2k
        gains_o = (l2_safe[..., None] + (r2k - r1k * sb2)) / denom
        if positive_part:
            gains_o = np.maximum(gains_o, 0.0)
            # Components before the cutoff have non-positive gains by
            # construction; zero them by index to keep the count exact.
            gains_o = np.where(np.arange(m) < k[..., None], 0.0, gains_o)
        gains_o = np.where(zero[..., None], 0.0, gains_o)
    if not (np.isfinite(sb[0] + r1_suffix[0] + r2_suffix[0]) and np.all(np.isfinite(gains_o))):
        raise UnknownEstimatorError(
            f"ebme: exponent b={b:g} overflows float64 on this model; use a smaller |b|"
        )
    result = _spectral_result(model, v, gains_o[..., inv_order], False)
    # At xls = 0 the rotations can leave -0.0 entries; return +0.0.
    result.xhat = np.where(zero[..., None], 0.0, result.xhat)
    return result


def _tikhonov1_from_ls(model: Model, xls) -> EstimateResult:
    """Spectral form of ``(Q + (m/||xls||^2) I)^-1 H' Cw^-1 y``: since
    ``H' Cw^-1 y = Q xls``, the gain of component ``i`` is
    ``sig_i / (sig_i + m/||xls||^2)``."""
    xls = _check_ls(model, xls)
    n2 = np.sum(xls * xls, axis=-1)
    degenerate = n2 == 0.0
    lam = model.m / np.where(degenerate, 1.0, n2)
    sig = model.Qeig.eigenvalues
    gains = np.where(degenerate[..., None], 0.0, sig / (sig + lam[..., None]))
    return _spectral_result(model, xls @ model.Qeig.basis, gains, degenerate)


def _tikhonov2_from_ls(model: Model, xls) -> EstimateResult:
    xls = _check_ls(model, xls)
    qn = _q_norm2(model, xls)
    return _scalar_result(xls, _ratio_gain(qn, model.m, model.m), qn == 0.0)


def tikhonov1(model: Model, y) -> EstimateResult:
    """Regularized least squares with ridge weight ``m / ||xls||^2``
    estimated from the data. Not guaranteed to beat least squares."""
    return _tikhonov1_from_ls(model, ls_estimate(model, y))


def tikhonov2(model: Model, y) -> EstimateResult:
    """Shrinkage variant of the empirical ridge: scalar gain
    ``||xls||^2_Q / (m + ||xls||^2_Q)``."""
    return _tikhonov2_from_ls(model, ls_estimate(model, y))


def sbme_dominance_holds(model: Model) -> bool:
    """Sufficient condition for the scalar-gain family (``sbme``,
    ``shrink_c``, ``balanced_bme``) to beat least squares everywhere:
    effective dimension strictly above 4."""
    return model.eps0 / model.eps_max > 4.0


def ebme_dominance_holds(model: Model, b: float) -> bool:
    """Sufficient condition for ``ebme`` with exponent ``b``:
    ``tr(Q**(b/2-1)) > 4 * lambda_max(Q**(b/2-1))``. At ``b = 0`` this is
    exactly the scalar condition. A ``b`` that is not finite, or whose
    powers of the eigenvalues leave float64 range, raises
    ``UnknownEstimatorError``."""
    _check_exponent(b)
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
# entry per tag with its parameter, its label and the rule it applies:
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


def _least_squares(model: Model, xls) -> EstimateResult:
    xls = _check_ls(model, xls)
    return EstimateResult(xhat=xls.copy(), shrinkage=np.ones_like(xls), degenerate=False)


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


_B = Param("b", _number("b"), lambda spec: _finite(spec.b), "a finite exponent b",
           lambda spec: f"b={spec.b:g}")
_C = Param("c", _number("c"), lambda spec: _finite(spec.c) and spec.c >= 0.0,
           "a finite c >= 0", lambda spec: f"c={spec.c:g}")
_FILE = Param("file", _center_file, lambda spec: spec.x0 is not None, "a center vector x0",
              lambda spec: f"file={spec.x0_name}" if spec.x0_name else None)


@dataclass(frozen=True)
class Rule:
    """A tag's ``apply(model, spec, xls)``, its parameter (``None`` for a bare
    tag), and whether its gains differ across ``Q``'s eigenbasis."""

    apply: Callable
    param: Param | None = None
    per_component: bool = False


def _bare(rule, per_component: bool = False) -> Rule:
    return Rule(lambda model, spec, xls: rule(model, xls), per_component=per_component)


RULES = {
    "ls": _bare(_least_squares),
    "sbme": _bare(sbme),
    "bbm": _bare(balanced_bme),
    "pbm": _bare(positive_part_bme),
    "bock": _bare(bock),
    "tik1": _bare(_tikhonov1_from_ls, per_component=True),
    "tik2": _bare(_tikhonov2_from_ls),
    "ebme": Rule(lambda model, spec, xls: ebme(model, xls, b=spec.b), _B, per_component=True),
    "shrinkc": Rule(lambda model, spec, xls: shrink_c(model, xls, spec.c), _C),
    "offcenter": Rule(lambda model, spec, xls: off_center_sbme(model, xls, spec.x0), _FILE),
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
    """Fan-out evaluation: apply ``spec`` to a precomputed ``xls``."""
    return RULES[spec.kind].apply(model, spec, xls)

"""Validated linear Gaussian measurement model ``y = H x + w``.

``build_model`` checks the problem once (noise covariance positive definite,
design matrix full column rank) and precomputes every spectral quantity the
estimators need: the information matrix ``Q = H' Cw^-1 H``, its
eigendecomposition, the least-squares risk ``eps0 = tr(Q^-1)`` and the
largest eigenvalue ``eps_max`` of ``Q^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from blindmm.linalg import (
    DimensionMismatchError,
    EigDecomp,
    LinalgError,
    NonFiniteError,
    as_matrix,
    as_vector,
    sym_eig,
)

# Relative eigenvalue thresholds separating "positive definite" from
# "numerically singular"; failures are hard errors, not pseudo-inverses.
PD_REL_TOL = 1e-12


class NotPositiveDefiniteError(LinalgError):
    """Noise covariance is not positive definite within tolerance."""


class RankDeficientError(LinalgError):
    """Design matrix is (numerically) rank deficient."""


class ZeroDirectionError(LinalgError):
    """A direction vector must be nonzero."""


class SnrRangeError(LinalgError):
    """An SNR whose parameter vector leaves float64 range on this model."""


@dataclass(frozen=True)
class Model:
    """Immutable problem instance."""

    H: np.ndarray
    Cw: np.ndarray
    Q: np.ndarray
    Qeig: EigDecomp
    eps0: float
    eps_max: float
    n: int
    m: int
    cw_sqrt: np.ndarray = field(repr=False)
    ls_op: np.ndarray = field(repr=False)
    trace_cw: float = 0.0


def build_model(h, cw) -> Model:
    """Validate ``(H, Cw)`` and precompute all spectral quantities.

    Parameters
    ----------
    h : (n, m) array_like
        Design matrix, ``n >= m``, full column rank.
    cw : (n, n) array_like
        Noise covariance, symmetric positive definite.

    Raises
    ------
    NotPositiveDefiniteError
        If ``cw`` has an eigenvalue below ``1e-12`` of its largest.
    RankDeficientError
        If the smallest eigenvalue of ``Q`` falls below ``1e-12`` of its
        largest (``H`` numerically rank deficient).
    NonFiniteError
        If an eigenvalue of ``Cw`` or ``Q``, or ``Cw^-1``, ``Cw^1/2``, ``Q``,
        ``eps0`` or ``ls_op``, leaves float64 range.
    """
    h = as_matrix(h, "H")
    cw = as_matrix(cw, "Cw")
    n, m = h.shape
    if n < m:
        raise DimensionMismatchError(f"H: need n >= m, got {n}x{m}")
    if cw.shape != (n, n):
        raise DimensionMismatchError(f"Cw: expected {n}x{n} to match H, got {cw.shape}")

    cw_eig = sym_eig(cw, "Cw")
    w = cw_eig.eigenvalues
    if w[-1] <= PD_REL_TOL * w[0]:
        raise NotPositiveDefiniteError(
            f"Cw: smallest eigenvalue {w[-1]:.3g} below {PD_REL_TOL:g} of largest {w[0]:.3g}"
        )
    # What leaves float64 range turns to inf or nan here, and _check_range names it.
    with np.errstate(over="ignore", invalid="ignore"):
        cw_inv, cw_sqrt = _power(cw_eig, -1.0), _power(cw_eig, 0.5)
        q = h.T @ cw_inv @ h
        q = (q + q.T) / 2.0
    _check_range(("Cw: Cw^-1", cw_inv), ("Cw: Cw^1/2", cw_sqrt), ("H, Cw: Q = H' Cw^-1 H", q))
    qeig = sym_eig(q, "H, Cw: Q = H' Cw^-1 H")
    sig = qeig.eigenvalues
    if sig[-1] <= PD_REL_TOL * sig[0]:
        ratio = f"eigenvalue ratio {sig[-1] / sig[0]:.3g}" if sig[0] > 0.0 else "Q = 0"
        raise RankDeficientError(f"H: Q = H' Cw^-1 H is numerically singular ({ratio})")

    with np.errstate(over="ignore", invalid="ignore"):
        eps0, trace_cw = float(np.sum(1.0 / sig)), float(np.trace(cw))
        ls_op = _power(qeig, -1.0) @ h.T @ cw_inv
    _check_range(("H, Cw: eps0 = tr(Q^-1)", eps0), ("H, Cw: ls_op = Q^-1 H' Cw^-1", ls_op))
    eps_max = float(1.0 / sig[-1])
    return Model(
        H=h,
        Cw=cw,
        Q=q,
        Qeig=qeig,
        eps0=eps0,
        eps_max=eps_max,
        n=n,
        m=m,
        cw_sqrt=cw_sqrt,
        ls_op=ls_op,
        trace_cw=trace_cw,
    )


def _power(eig: EigDecomp, p: float) -> np.ndarray:
    """``A**p`` from ``A``'s eigendecomposition, whose eigenvalues ``build_model`` has cleared."""
    return (eig.basis * eig.eigenvalues**p) @ eig.basis.T


def _check_range(*named_values) -> None:
    for name, value in named_values:
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"{name} leaves float64 range")


def ls_estimate(model: Model, y) -> np.ndarray:
    """Least-squares estimate ``Q^-1 H' Cw^-1 y``.

    ``y`` may be a single measurement vector or a ``(..., n)`` batch; the
    result has matching shape with trailing dimension ``m``.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != model.n:
        raise DimensionMismatchError(
            f"y: trailing dimension {y.shape[-1]} does not match n={model.n}"
        )
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("y: entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        xls = y @ model.ls_op.T
    _check_range(("y: the least-squares estimate", xls))
    return xls


def effective_dimension(model: Model) -> float:
    """``eps0 / eps_max``: roughly the number of independently measured
    parameters; equals ``m`` when all eigenvalues of ``Q`` coincide."""
    return model.eps0 / model.eps_max


def scale_to_snr(model: Model, direction, snr_db: float) -> np.ndarray:
    """Scale ``direction`` to ``snr_db`` on this model, dividing it by its largest entry
    first where ``d . d`` leaves float64 range; ``SnrRangeError`` if the result does."""
    d = as_vector(direction, "direction")
    if d.shape[0] != model.m:
        raise DimensionMismatchError(f"direction: dim {d.shape[0]} does not match m={model.m}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(d))
    if not np.finfo(np.float64).tiny <= norm * norm < np.inf:  # zero, or d . d out of range
        peak = float(np.max(np.abs(d)))
        if peak == 0.0:
            raise ZeroDirectionError("direction must be nonzero")
        d, norm = d / peak, float(np.linalg.norm(d / peak))
    with np.errstate(over="ignore", invalid="ignore"):
        x = d * (np.sqrt(np.float64(10.0) ** (snr_db / 10.0) * model.trace_cw) / norm)
    if not np.all(np.isfinite(x)):
        raise SnrRangeError(f"snr_db={snr_db:g}: 10**(snr/10) * tr(Cw) overflows float64")
    return x

"""Dense real symmetric linear algebra used by every estimator.

The eigensolver is LAPACK's, through ``np.linalg.eigh``; the eigenvalue sort
and the eigenvector sign convention are fixed here, so results are
bit-reproducible for a given build. All arithmetic is IEEE float64.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

# Absolute per-entry tolerance below which a matrix counts as symmetric.
SYMMETRY_ATOL = 1e-9
# Relative eigenvalue floor below which a matrix is treated as singular.
SINGULAR_REL_TOL = 1e-12


class LinalgError(ValueError):
    """Base class for validation and numerical errors in this package."""


class NonFiniteError(LinalgError):
    """Input contains NaN or Inf entries."""


class NonSymmetricError(LinalgError):
    """Matrix is not symmetric within tolerance."""


class DimensionMismatchError(LinalgError):
    """Operand shapes are incompatible."""


class SingularPowerError(LinalgError):
    """A non-positive eigenvalue makes the requested power undefined."""


class CsvFormatError(LinalgError):
    """Numeric CSV file is ragged, empty, or not parseable."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatchError(f"{name}: expected a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name}: entries must be finite")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatchError(f"{name}: expected a 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name}: entries must be finite")
    return v


@dataclass(frozen=True)
class EigDecomp:
    """Orthonormal eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    basis : (m, m) ndarray
        Columns are eigenvectors.
    eigenvalues : (m,) ndarray
        Sorted in non-increasing order; ``basis @ diag(eigenvalues) @ basis.T``
        reconstructs the input.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.T


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square matrix, got {a.shape}")
    if np.max(np.abs(a - a.T)) > SYMMETRY_ATOL:
        raise NonSymmetricError(
            f"{name}: asymmetry exceeds {SYMMETRY_ATOL:g} (max |a - a.T| = "
            f"{np.max(np.abs(a - a.T)):.3g})"
        )
    return (a + a.T) / 2.0


def sym_eig(a) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix.

    Deterministic for identical input: eigenvalues sorted non-increasing
    with ties kept in ``np.linalg.eigh`` order, and each eigenvector's
    largest-magnitude component made positive.

    Raises
    ------
    NonSymmetricError
        If ``|a - a.T|`` exceeds the symmetry tolerance anywhere.
    NonFiniteError
        If any entry is NaN or Inf.
    """
    a = as_matrix(a, "sym_eig input")
    a = _check_symmetric(a, "sym_eig input")
    eigenvalues, basis = np.linalg.eigh(a)
    # Non-increasing sort; stable keeps eigh's order on ties.
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    basis = basis[:, order]
    # Sign convention: largest-magnitude component of each column positive.
    lead = np.argmax(np.abs(basis), axis=0)
    flip = basis[lead, np.arange(a.shape[0])] < 0.0
    basis[:, flip] *= -1.0
    return EigDecomp(basis=basis, eigenvalues=eigenvalues)


def psd_power(eig: EigDecomp, p: float) -> np.ndarray:
    """Matrix power ``A**p`` from the eigendecomposition of a PSD matrix.

    ``p = 0`` returns the identity, ``p = 1`` reconstructs the input.
    Eigenvalues within rounding noise of zero are clamped to zero first.

    Raises
    ------
    SingularPowerError
        If ``p < 0`` and some eigenvalue is not strictly positive, or if an
        eigenvalue is significantly negative (input was not PSD).
    """
    w = eig.eigenvalues
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if np.any(w < -SINGULAR_REL_TOL * scale):
        raise SingularPowerError(
            f"psd_power: eigenvalue {float(np.min(w)):.3g} is negative beyond tolerance"
        )
    w = np.maximum(w, 0.0)
    if p < 0.0 and np.any(w <= 0.0):
        raise SingularPowerError("psd_power: non-positive eigenvalue with negative power")
    if p == 0.0:
        wp = np.ones_like(w)
    else:
        wp = w**p
    return (eig.basis * wp) @ eig.basis.T


def quad_form(x, t) -> float:
    """Quadratic form ``x.T @ t @ x`` for a symmetric matrix ``t``.

    Equals the squared Euclidean norm of ``x`` when ``t`` is the identity.
    """
    x = as_vector(x, "quad_form x")
    t = as_matrix(t, "quad_form t")
    t = _check_symmetric(t, "quad_form t")
    if t.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"quad_form: vector has dim {x.shape[0]}, matrix is {t.shape[0]}x{t.shape[1]}"
        )
    return float(x @ t @ x)


def condition_number(eig: EigDecomp) -> float:
    """Ratio of largest to smallest eigenvalue; at least 1 for PD matrices."""
    w = eig.eigenvalues
    smallest = float(w[-1])
    if smallest <= 0.0:
        raise SingularPowerError("condition_number: smallest eigenvalue is not positive")
    return float(w[0]) / smallest


def read_matrix_csv(path, name: str = "matrix") -> np.ndarray:
    """Read a plain numeric CSV (no header, one row per line)."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(cell) for cell in line.split(",")]
            except ValueError as exc:
                raise CsvFormatError(f"{name} ({path}): line {lineno}: {exc}") from exc
            if rows and len(row) != len(rows[0]):
                raise CsvFormatError(
                    f"{name} ({path}): line {lineno} has {len(row)} cells, "
                    f"expected {len(rows[0])} (ragged rows rejected)"
                )
            rows.append(row)
    if not rows:
        raise CsvFormatError(f"{name} ({path}): no numeric rows")
    return as_matrix(np.array(rows, dtype=np.float64), name)


def read_vector_csv(path, name: str = "vector") -> np.ndarray:
    """Read a single-column numeric CSV as a vector."""
    m = read_matrix_csv(path, name)
    if m.shape[1] != 1:
        raise CsvFormatError(f"{name} ({path}): expected a single column, got {m.shape[1]}")
    return m[:, 0]


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the target
    directory and a rename, so readers never see a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".blindmm-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, a) -> None:
    """Write a matrix (or a vector, as one column) atomically."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    write_text_atomic(path, "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a))

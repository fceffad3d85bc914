"""Input coercion, the one symmetric eigensolver, and numeric CSV files.

The eigensolver is LAPACK's, through ``np.linalg.eigh``; the eigenvalue sort
and the eigenvector sign convention are fixed here, so results are
bit-reproducible for a given build. All arithmetic is IEEE float64. Whether
a model is valid (``Cw`` positive definite, ``Q`` invertible) is decided
once, by ``model.build_model``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Absolute per-entry tolerance below which a matrix counts as symmetric.
SYMMETRY_ATOL = 1e-9


class LinalgError(ValueError):
    """Base class for validation and numerical errors in this package."""


class NonFiniteError(LinalgError):
    """Input, or a quantity derived from it, has NaN or Inf entries."""


class NonSymmetricError(LinalgError):
    """Matrix is not symmetric within tolerance."""


class DimensionMismatchError(LinalgError):
    """Operand shapes are incompatible."""


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


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name}: expected square matrix, got {a.shape}")
    with np.errstate(over="ignore"):  # near float64's limit; where a == a.T, a is kept
        gap, mean = float(np.max(np.abs(a - a.T))), (a + a.T) / 2.0
    if gap > SYMMETRY_ATOL:
        raise NonSymmetricError(
            f"{name}: asymmetry exceeds {SYMMETRY_ATOL:g} (max |a - a.T| = {gap:.3g})"
        )
    return np.where(a == a.T, a, mean)


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


def read_matrix_csv(path, name: str = "matrix") -> np.ndarray:
    """Read a plain numeric CSV (no header, one row per line) of UTF-8 text,
    with or without a leading byte-order mark."""
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{name} ({path}): not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
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
    while True:  # mode 0o666 lets the umask decide, as open(path, "w") would; mkstemp's is 0o600
        tmp = os.path.join(directory, f".blindmm-{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
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

"""The eigensolver, input coercion and numeric CSV files.

Hand-derived 2x2 cases act as oracles for the eigensolver; larger random
matrices are checked through reconstruction and algebraic identities rather
than against another eigensolver. The matrix powers ``build_model`` takes
from it are checked in ``test_model.py``.
"""

import os

import numpy as np
import pytest

from blindmm.linalg import (
    CsvFormatError,
    DimensionMismatchError,
    NonFiniteError,
    NonSymmetricError,
    read_matrix_csv,
    read_vector_csv,
    sym_eig,
    write_matrix_csv,
    write_text_atomic,
)


def random_symmetric(rng, m):
    a = rng.standard_normal((m, m))
    return (a + a.T) / 2.0


def rebuilt(eig):
    return (eig.basis * eig.eigenvalues) @ eig.basis.T


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(3))
        np.testing.assert_allclose(rebuilt(eig), np.eye(3), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        eig = sym_eig(np.diag([4.0, 9.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [9.0, 4.0, 1.0])
        # Basis is a permutation of the axes for a diagonal input.
        np.testing.assert_allclose(np.abs(eig.basis).sum(axis=0), np.ones(3))
        np.testing.assert_allclose(rebuilt(eig), np.diag([4.0, 9.0, 1.0]), atol=1e-12)

    def test_entries_near_float64_max(self):
        # a + a.T would overflow on the diagonal; an exactly symmetric input is kept as is.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = sym_eig(np.diag([1.7e308, 1.0]))
            np.testing.assert_array_equal(eig.eigenvalues, [1.7e308, 1.0])
            with pytest.raises(NonSymmetricError):
                sym_eig([[1.0, 1.7e308], [-1.7e308, 1.0]])

    def test_two_by_two_hand_case(self):
        # Characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 - 1 -> x = 3, 1.
        eig = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(eig.basis[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(eig.basis[:, 1], [r, -r], atol=1e-12)

    def test_one_by_one(self):
        eig = sym_eig([[7.0]])
        np.testing.assert_allclose(eig.eigenvalues, [7.0])
        np.testing.assert_allclose(eig.basis, [[1.0]])

    def test_zero_matrix(self):
        eig = sym_eig(np.zeros((4, 4)))
        np.testing.assert_allclose(eig.eigenvalues, np.zeros(4))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(rng, 9)
        e1 = sym_eig(a)
        e2 = sym_eig(a.copy())
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.basis, e2.basis)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 6)
        eig = sym_eig(a)
        lead = np.argmax(np.abs(eig.basis), axis=0)
        assert np.all(eig.basis[lead, np.arange(6)] > 0)

    def test_reconstruction_fuzz(self):
        # 1000 random symmetric matrices, relative Frobenius error <= 1e-8.
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            m = int(rng.integers(2, 13))
            a = random_symmetric(rng, m) * float(rng.uniform(0.5, 20.0))
            eig = sym_eig(a)
            err = np.linalg.norm(rebuilt(eig) - a) / max(np.linalg.norm(a), 1e-300)
            assert err <= 1e-8
            ortho = np.linalg.norm(eig.basis.T @ eig.basis - np.eye(m))
            assert ortho <= 1e-10 * m
            assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_accepts_tiny_asymmetry(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-10, 2.0]])
        eig = sym_eig(a)
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], rtol=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            sym_eig(np.ones((2, 3)))


class TestCsv:
    def test_matrix_roundtrip(self, tmp_path):
        a = np.array([[1.5, -2.25], [0.1, 1e-9]])
        p = tmp_path / "a.csv"
        write_matrix_csv(p, a)
        np.testing.assert_array_equal(read_matrix_csv(p), a)

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.0, -0.5, 3.25])
        p = tmp_path / "v.csv"
        write_matrix_csv(p, v)
        np.testing.assert_array_equal(read_vector_csv(p), v)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError):
            read_matrix_csv(p)

    def test_nonnumeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,x\n")
        with pytest.raises(CsvFormatError):
            read_matrix_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(CsvFormatError):
            read_matrix_csv(p)

    def test_vector_rejects_two_columns(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(CsvFormatError):
            read_vector_csv(p)

    @pytest.mark.parametrize("fails", ["write", "rename"])
    def test_failed_write_leaves_target_and_no_temp(self, tmp_path, monkeypatch, fails):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        text = "new\n"
        if fails == "write":
            text = "\ud800"  # a lone surrogate: the UTF-8 encoder refuses it
        else:
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((UnicodeEncodeError, OSError)):
            write_text_atomic(target, text)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
        assert target.read_text() == "old\n"

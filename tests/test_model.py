"""Model construction, least squares, SNR scaling, and the Monte Carlo
calibration of the least-squares risk."""

import warnings

import numpy as np
import pytest

from blindmm.linalg import DimensionMismatchError, NonFiniteError, sym_eig
from blindmm.model import (
    NotPositiveDefiniteError,
    RankDeficientError,
    SnrRangeError,
    ZeroDirectionError,
    build_model,
    effective_dimension,
    ls_estimate,
    scale_to_snr,
)
from blindmm.rng import normal_block
from blindmm.scenarios import fig4_model, fig5a_model


class TestBuildModel:
    def test_iid_case(self):
        m = build_model(np.eye(5), np.eye(5))
        assert m.eps0 == pytest.approx(5.0, abs=1e-12)
        assert m.eps_max == pytest.approx(1.0, abs=1e-12)

    def test_published_profile(self):
        m = fig4_model()
        assert abs(m.eps0 - 5.8) <= 1e-12
        assert abs(m.eps_max - 1.0) <= 1e-12

    def test_column_of_ones(self):
        # Two measurements of one scalar: Q = [2], eps0 = 1/2.
        m = build_model(np.ones((2, 1)), np.eye(2))
        np.testing.assert_allclose(m.Q, [[2.0]])
        assert m.eps0 == pytest.approx(0.5, abs=1e-12)

    def test_general_dense_model(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((8, 5))
        q_r, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        cw = (q_r * rng.uniform(0.5, 2.0, 8)) @ q_r.T
        m = build_model(h, cw)
        # eps0 equals the trace of the inverse information matrix.
        q = h.T @ np.linalg.inv(cw) @ h
        assert m.eps0 == pytest.approx(np.trace(np.linalg.inv(q)), rel=1e-9)
        assert m.eps_max == pytest.approx(1.0 / np.linalg.eigvalsh(q)[0], rel=1e-9)

    def test_rejects_underdetermined(self):
        with pytest.raises(DimensionMismatchError):
            build_model(np.ones((2, 3)), np.eye(2))

    def test_rejects_mismatched_cw(self):
        with pytest.raises(DimensionMismatchError):
            build_model(np.eye(3), np.eye(4))

    def test_rejects_indefinite_cw(self):
        with pytest.raises(NotPositiveDefiniteError):
            build_model(np.eye(2), np.diag([1.0, -1.0]))

    def test_rejects_singular_cw(self):
        with pytest.raises(NotPositiveDefiniteError):
            build_model(np.eye(2), np.diag([1.0, 0.0]))

    def test_rejects_rank_deficient_h(self):
        h = np.ones((4, 2))  # duplicate columns
        with pytest.raises(RankDeficientError):
            build_model(h, np.eye(4))

    def test_zero_design_names_q(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficientError, match=r"numerically singular \(Q = 0\)"):
                build_model(np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("h, cw, match", [
        ([[1e200]], [[1.0]], r"H, Cw: Q = H' Cw\^-1 H leaves float64 range"),
        (np.eye(2), np.diag([1e-310, 1e-310]), r"Cw: Cw\^-1 leaves float64 range"),
        (1e-160 * np.eye(2), np.eye(2), r"H, Cw: eps0 = tr\(Q\^-1\) leaves float64 range"),
        (np.eye(2), np.diag([1.7e308, 1.7e308]), r"H, Cw: eps0 = tr\(Q\^-1\)"),
    ], ids=["q-overflow", "cw-inverse-overflow", "eps0-overflow", "cw-near-max"])
    def test_derived_quantity_out_of_range(self, h, cw, match):
        # A typed error that names H or Cw, and no RuntimeWarning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=match):
                build_model(h, cw)


def random_spd(rng, m, lo=0.1, hi=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))
    return (q * w) @ q.T


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestMatrixPowers:
    """``Cw^-1``, ``Cw^1/2`` and ``Q^-1``, through what ``build_model`` keeps of them."""

    def test_diagonal_sqrt(self):
        cw_sqrt = build_model(np.eye(2), np.diag([4.0, 9.0])).cw_sqrt
        np.testing.assert_allclose(cw_sqrt, np.diag([2.0, 3.0]), atol=1e-12)

    def test_inverse_hand_case(self):
        # inv([[2,1],[1,2]]) = [[2,-1],[-1,2]] / 3 by the 2x2 formula: Q = Cw^-1
        # for H = I, and ls_op = Q^-1 H' = H^-1 for Cw = I.
        a, expected = [[2.0, 1.0], [1.0, 2.0]], np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(build_model(np.eye(2), a).Q, expected, atol=1e-12)
        np.testing.assert_allclose(build_model(a, np.eye(2)).ls_op, expected, atol=1e-12)

    def test_power_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            n = m + int(rng.integers(0, 4))
            h, cw = rng.standard_normal((n, m)), random_spd(rng, n)
            model = build_model(h, cw)
            assert rel_err(model.cw_sqrt @ model.cw_sqrt, cw) <= 1e-8
            assert rel_err(model.ls_op @ h, np.eye(m)) <= 1e-8
            assert rel_err(build_model(np.eye(n), cw).Q @ cw, np.eye(n)) <= 1e-8

    def test_trace_of_inverse(self):
        # With H = I, Q = Cw^-1 and eps0 = tr(Q^-1) = tr(Cw).
        rng = np.random.default_rng(6)
        for _ in range(50):
            cw = random_spd(rng, int(rng.integers(2, 12)))
            model = build_model(np.eye(cw.shape[0]), cw)
            expected = np.sum(1.0 / sym_eig(cw).eigenvalues)
            assert abs(np.trace(model.Q) - expected) <= 1e-10 * abs(expected)
            assert abs(model.eps0 - np.trace(cw)) <= 1e-10 * np.trace(cw)


class TestLsEstimate:
    def test_identity_model_returns_y(self):
        m = build_model(np.eye(4), np.eye(4))
        y = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(ls_estimate(m, y), y, atol=1e-12)

    def test_mean_of_two_observations(self):
        m = build_model(np.ones((2, 1)), np.eye(2))
        np.testing.assert_allclose(ls_estimate(m, [2.0, 4.0]), [3.0], atol=1e-12)

    def test_noiseless_consistency(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((7, 4))
        cw = np.diag(rng.uniform(0.5, 2.0, 7))
        m = build_model(h, cw)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(ls_estimate(m, h @ x), x, atol=1e-9)

    def test_estimate_out_of_range_rejected(self):
        m = build_model(np.eye(2), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="y: the least-squares estimate"):
                ls_estimate(build_model(1e-150 * np.eye(2), np.eye(2)), [1e300, 0.0])
        np.testing.assert_array_equal(ls_estimate(m, [1.7e308, 0.0]), [1.7e308, 0.0])

    def test_batch_matches_single(self):
        m = fig4_model()
        rng = np.random.default_rng(3)
        ys = rng.standard_normal((6, 15))
        batch = ls_estimate(m, ys)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], ls_estimate(m, ys[i]))

    def test_dimension_check(self):
        m = build_model(np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatchError):
            ls_estimate(m, np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        m = build_model(np.eye(3), np.eye(3))
        with pytest.raises(NonFiniteError):
            ls_estimate(m, np.array([1.0, bad, 0.0]))


class TestEffectiveDimension:
    def test_iid_equals_m(self):
        m = build_model(np.eye(15), np.eye(15))
        assert effective_dimension(m) == pytest.approx(15.0, abs=1e-12)

    def test_published_values(self):
        assert abs(effective_dimension(fig4_model()) - 5.8) <= 1e-12
        analytic = float(np.sum(np.linspace(1.0, 0.01, 15)))
        assert abs(effective_dimension(fig5a_model()) - analytic) <= 1e-12

    def test_at_least_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mdim = int(rng.integers(1, 8))
            h = rng.standard_normal((mdim + 2, mdim))
            cw = np.diag(rng.uniform(0.2, 5.0, mdim + 2))
            assert effective_dimension(build_model(h, cw)) >= 1.0

    def test_equals_m_only_for_flat_spectrum(self):
        flat = build_model(np.eye(4), 2.5 * np.eye(4))
        assert effective_dimension(flat) == pytest.approx(4.0, abs=1e-12)
        uneven = build_model(np.eye(4), np.diag([1.0, 1.0, 1.0, 2.0]))
        assert effective_dimension(uneven) < 4.0


class TestSnr:
    def test_zero_db_means_ratio_one(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 0.0)
        assert float(x @ x) == pytest.approx(m.trace_cw, rel=1e-12)

    def test_ten_db(self):
        m = fig4_model()
        x = scale_to_snr(m, np.ones(15), 10.0)
        assert float(x @ x) == pytest.approx(58.0, rel=1e-12)

    def test_round_trip(self):
        m = fig4_model()
        rng = np.random.default_rng(5)
        for snr_db in (-12.5, 0.0, 3.3, 17.0):
            d = rng.standard_normal(15)
            x = scale_to_snr(m, d, snr_db)
            assert x @ x / m.trace_cw == pytest.approx(10.0 ** (snr_db / 10.0), rel=1e-12)

    def test_zero_vector_snr(self):
        m = fig4_model()
        x = np.zeros(15)
        assert x @ x / m.trace_cw == 0.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirectionError):
            scale_to_snr(fig4_model(), np.zeros(15), 0.0)

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_direction_whose_square_leaves_range(self, scale):
        # d . d overflows at 1e300 and underflows to 0 at 1e-200; the
        # direction is still finite and nonzero, and scales like the unit one.
        m = fig4_model()
        d = np.array([1.0, 1.0] + [0.0] * 13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for snr_db in (-10.0, 0.0, 20.0):
                np.testing.assert_allclose(scale_to_snr(m, scale * d, snr_db),
                                           scale_to_snr(m, d / np.sqrt(2.0), snr_db), rtol=1e-15)

    @pytest.mark.parametrize("snr_db", [3080.0, 4000.0])
    def test_overflowing_snr_rejected(self, snr_db):
        # 10**308 is finite but 10**308 * tr(Cw) is not; 10**400 overflows
        # outright. Either is a typed error, with no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SnrRangeError, match="snr_db="):
                scale_to_snr(fig4_model(), np.ones(15), snr_db)


class TestMonteCarloCalibration:
    """Sampling-based checks of the least-squares baseline."""

    def _ls_errors(self, model, x, draws, seed):
        z = normal_block(seed, np.arange(draws), model.n)
        y = z @ model.cw_sqrt + model.H @ x
        return y @ model.ls_op.T - x

    def test_unbiased(self):
        m = fig4_model()
        x = scale_to_snr(m, np.arange(1.0, 16.0), 5.0)
        err = self._ls_errors(m, x, 20000, seed=11)
        mean = err.mean(axis=0)
        stderr = err.std(axis=0, ddof=1) / np.sqrt(err.shape[0])
        assert np.all(np.abs(mean) <= 5.0 * stderr)

    def test_mse_matches_eps0(self):
        m = fig4_model()
        for seed, snr_db in ((21, -5.0), (22, 10.0)):
            x = scale_to_snr(m, np.ones(15), snr_db)
            se = np.sum(self._ls_errors(m, x, 20000, seed) ** 2, axis=1)
            stderr = se.std(ddof=1) / np.sqrt(se.size)
            assert abs(se.mean() - m.eps0) <= 5.0 * stderr

    def test_noise_covariance_realized(self):
        # Sample variances of correlated noise match the covariance diagonal.
        cw = np.diag([4.0, 1.0])
        m = build_model(np.eye(2), cw)
        z = normal_block(31, np.arange(200000), 2)
        w = z @ m.cw_sqrt
        np.testing.assert_allclose(w.var(axis=0), [4.0, 1.0], rtol=0.02)

    def test_white_noise_covariance(self):
        m = build_model(np.eye(3), np.eye(3))
        z = normal_block(33, np.arange(200000), 3)
        w = z @ m.cw_sqrt
        cov = np.cov(w.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.02

"""Estimator formulas, their exact algebraic relationships, and the
dominance-condition predicates.

The adaptive spectral rule is cross-checked against a literal per-cutoff
re-evaluation (independent of the vectorized suffix-sum path), and the
scalar rules against hand arithmetic.
"""

import warnings

import numpy as np
import pytest

from blindmm.estimators import (
    RULES,
    EstimatorSpec,
    UnknownEstimatorError,
    ebme_dominance_holds,
    estimate_from_ls,
    parse_estimator_spec,
    sbme_dominance_holds,
)
from blindmm.linalg import DimensionMismatchError, NonFiniteError
from blindmm.model import build_model, ls_estimate
from blindmm.scenarios import fig4_model, fig5b_model, fig6_model


def iid_model(m):
    return build_model(np.eye(m), np.eye(m))


def random_model(rng, dense_cw=False):
    m = int(rng.integers(2, 13))
    n = m + int(rng.integers(0, 4))
    h = rng.standard_normal((n, m))
    if dense_cw:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cw = (q * np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))) @ q.T
        cw = (cw + cw.T) / 2.0
    else:
        cw = np.diag(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)))
    return build_model(h, cw)


def apply(model, xls, kind, **params):
    """The rule tagged ``kind`` applied to ``xls``: the one public path."""
    return estimate_from_ls(model, EstimatorSpec(kind, **params), xls)


def rel_vec_err(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    if scale == 0.0:
        return 0.0
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / scale


class TestSbme:
    def test_zero_input(self):
        r = apply(iid_model(4), np.zeros(4), "sbme")
        np.testing.assert_array_equal(r.xhat, np.zeros(4))
        assert not r.degenerate

    def test_half_gain_at_eps0(self):
        m = iid_model(5)
        xls = np.array([np.sqrt(5.0), 0, 0, 0, 0])
        r = apply(m, xls, "sbme")
        assert r.shrinkage[0] == pytest.approx(0.5, rel=1e-12)

    def test_hand_case(self):
        r = apply(iid_model(5), np.array([3.0, 0, 0, 0, 4.0]), "sbme")
        np.testing.assert_allclose(r.xhat, [2.5, 0, 0, 0, 10.0 / 3.0], rtol=1e-15)

    def test_gain_in_unit_interval(self):
        rng = np.random.default_rng(0)
        m = fig4_model()
        for _ in range(100):
            g = apply(m, rng.standard_normal(15) * rng.uniform(0.01, 50), "sbme").shrinkage
            assert np.all(g >= 0.0) and np.all(g < 1.0)
            assert np.all(g == g[0])


class TestShrinkC:
    def test_c_eps0_equals_sbme(self):
        m = fig4_model()
        rng = np.random.default_rng(1)
        xls = rng.standard_normal(15)
        np.testing.assert_array_equal(
            apply(m, xls, "shrinkc", c=m.eps0).xhat, apply(m, xls, "sbme").xhat
        )

    def test_c_zero_equals_balanced(self):
        m = fig4_model()
        xls = np.random.default_rng(2).standard_normal(15)
        np.testing.assert_array_equal(
            apply(m, xls, "shrinkc", c=0.0).xhat, apply(m, xls, "bbm").xhat
        )

    def test_hand_zero_gain(self):
        m = iid_model(5)
        xls = np.array([2.0, 0, 0, 0, 0])  # norm^2 = 4, c=1 -> gain 1 - 5/5 = 0
        r = apply(m, xls, "shrinkc", c=1.0)
        np.testing.assert_array_equal(r.xhat, np.zeros(5))

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            apply(iid_model(3), np.ones(3), "shrinkc", c=-0.5)

    @pytest.mark.parametrize("c", [float("inf"), float("nan")])
    def test_non_finite_c_rejected(self, c):
        # A typed error, not NaN gains behind a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnknownEstimatorError, match="finite c >= 0"):
                apply(iid_model(3), np.ones(3), "shrinkc", c=c)

    def test_degenerate_corner(self):
        r = apply(iid_model(3), np.zeros(3), "shrinkc", c=0.0)
        np.testing.assert_array_equal(r.xhat, np.zeros(3))
        assert r.degenerate


class TestOffCenter:
    def test_zero_center_is_sbme(self):
        m = fig4_model()
        xls = np.random.default_rng(3).standard_normal(15)
        np.testing.assert_array_equal(
            apply(m, xls, "offcenter", x0=np.zeros(15)).xhat, apply(m, xls, "sbme").xhat
        )

    def test_ls_at_center_returns_center(self):
        m = iid_model(4)
        x0 = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(apply(m, x0, "offcenter", x0=x0).xhat, x0)

    def test_translation_equivariant(self):
        # sbme about x0 is sbme on xls - x0, moved back by x0, to the bit.
        m = fig5b_model()
        rng = np.random.default_rng(4)
        xls, x0 = rng.standard_normal((64, 10)), 10.0 * rng.standard_normal(10)
        np.testing.assert_array_equal(apply(m, xls, "offcenter", x0=x0).xhat,
                                      x0 + apply(m, xls - x0, "sbme").xhat)

    def test_hand_case(self):
        # ||xls - x0||^2 = eps0 gives g = 1/2; with x0 = 2*xls the estimate
        # x0 + g (xls - x0) is 1.5*xls.
        m = iid_model(4)
        xls = np.array([1.0, 1.0, 1.0, 1.0])
        r = apply(m, xls, "offcenter", x0=2.0 * xls)
        np.testing.assert_allclose(r.xhat, 1.5 * xls, rtol=1e-14)


class TestBalancedAndPositivePart:
    def test_zero_gain_at_eps0(self):
        m = iid_model(5)
        xls = np.full(5, 1.0)  # norm^2 = 5 = eps0
        np.testing.assert_allclose(apply(m, xls, "bbm").xhat, np.zeros(5), atol=1e-12)

    def test_sign_flip_below_eps0(self):
        m = iid_model(4)
        xls = np.array([np.sqrt(2.0), 0, 0, 0])  # norm^2 = eps0/2 -> gain -1
        np.testing.assert_allclose(apply(m, xls, "bbm").xhat, -xls, rtol=1e-12)

    def test_gain_approaches_one(self):
        m = iid_model(4)
        g = apply(m, np.array([1e8, 0, 0, 0]), "bbm").shrinkage[0]
        assert g == pytest.approx(1.0, abs=1e-12)

    def test_zero_ls_flagged(self):
        r = apply(iid_model(3), np.zeros(3), "bbm")
        np.testing.assert_array_equal(r.xhat, np.zeros(3))
        assert r.degenerate

    def test_positive_part_clamps(self):
        m = iid_model(4)
        xls = np.array([np.sqrt(2.0), 0, 0, 0])
        r = apply(m, xls, "pbm")
        np.testing.assert_array_equal(r.xhat, np.zeros(4))
        assert not r.degenerate

    def test_positive_part_half_gain(self):
        m = iid_model(4)
        xls = np.array([np.sqrt(8.0), 0, 0, 0])  # norm^2 = 2*eps0 -> gain 1/2
        assert apply(m, xls, "pbm").shrinkage[0] == pytest.approx(0.5, rel=1e-12)

    def test_positive_part_equals_clamped_balanced(self):
        m = fig5b_model()
        rng = np.random.default_rng(4)
        for _ in range(200):
            xls = rng.standard_normal(10) * rng.uniform(0.1, 10.0)
            pbm = apply(m, xls, "pbm").xhat
            bbm = apply(m, xls, "bbm")
            clamped = max(bbm.shrinkage[0], 0.0) * xls
            np.testing.assert_array_equal(pbm, clamped)


class TestBock:
    def test_hand_case(self):
        m = iid_model(5)
        xls = np.array([5.0, 0, 0, 0, 0])  # ||xls||^2_Q = 25, gain 1 - 3/25
        assert apply(m, xls, "bock").shrinkage[0] == pytest.approx(0.88, rel=1e-12)

    def test_no_shrinkage_at_effective_dimension_two(self):
        m = build_model(np.eye(2), np.eye(2))  # eps0/eps_max = 2 -> zero numerator
        xls = np.array([1.0, -2.0])
        np.testing.assert_allclose(apply(m, xls, "bock").xhat, xls, rtol=1e-14)

    def test_gain_to_one_for_large_q_norm(self):
        m = fig4_model()
        xls = np.zeros(15)
        xls[-1] = 1e6  # last coordinate has tiny noise, huge Q weight
        assert apply(m, xls, "bock").shrinkage[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_flagged(self):
        assert apply(fig4_model(), np.zeros(15), "bock").degenerate


class TestTikhonov:
    def test_scalar_hand_case(self):
        m = build_model(np.eye(1), np.eye(1))
        r = apply(m, ls_estimate(m, np.array([2.0])), "tik2")
        np.testing.assert_allclose(r.xhat, [1.6], rtol=1e-14)

    def test_iid_variants_coincide(self):
        m = iid_model(6)
        y = np.random.default_rng(5).standard_normal(6)
        r1 = apply(m, ls_estimate(m, y), "tik1")
        r2 = apply(m, ls_estimate(m, y), "tik2")
        np.testing.assert_allclose(r1.xhat, r2.xhat, rtol=1e-12)
        gain = float(y @ y) / (float(y @ y) + 6.0)
        np.testing.assert_allclose(r1.xhat, gain * y, rtol=1e-12)

    def test_tik1_matches_direct_solve(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = random_model(rng, dense_cw=True)
            y = rng.standard_normal(m.n)
            xls = ls_estimate(m, y)
            lam = m.m / float(xls @ xls)
            direct = np.linalg.solve(
                m.Q + lam * np.eye(m.m),
                m.H.T @ np.linalg.solve(m.Cw, y),
            )
            np.testing.assert_allclose(apply(m, ls_estimate(m, y), "tik1").xhat, direct,
                                       rtol=1e-8, atol=1e-12)

    def test_high_snr_limit_is_ls(self):
        m = fig4_model()
        y = np.random.default_rng(7).standard_normal(15) * 1e7
        xls = ls_estimate(m, y)
        assert rel_vec_err(apply(m, ls_estimate(m, y), "tik1").xhat, xls) < 1e-6
        assert rel_vec_err(apply(m, ls_estimate(m, y), "tik2").xhat, xls) < 1e-6

    def test_zero_flagged(self):
        m = iid_model(3)
        assert apply(m, ls_estimate(m, np.zeros(3)), "tik1").degenerate
        assert apply(m, ls_estimate(m, np.zeros(3)), "tik2").degenerate


class TestEbme:
    def test_hand_case(self):
        # Q = diag(1, 4), b = -1, xls = (1, 1): alpha = 18/37, gains 19/37, 28/37.
        m = build_model(np.eye(2), np.diag([1.0, 0.25]))
        r = apply(m, np.array([1.0, 1.0]), "ebme", b=-1.0)
        np.testing.assert_allclose(r.xhat, [19.0 / 37.0, 28.0 / 37.0], rtol=1e-12)

    def test_zero_input(self):
        r = apply(fig4_model(), np.zeros(15), "ebme", b=-1.0)
        np.testing.assert_array_equal(r.xhat, np.zeros(15))

    def test_b_zero_equals_sbme(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = random_model(rng)
            xls = rng.standard_normal(m.m) * rng.uniform(0.05, 20.0)
            sbme = apply(m, xls, "sbme").xhat
            assert rel_vec_err(apply(m, xls, "ebme", b=0.0).xhat, sbme) <= 1e-12

    def test_gains_in_unit_interval(self):
        rng = np.random.default_rng(9)
        m = fig4_model()
        for _ in range(100):
            xls = rng.standard_normal(15) * rng.uniform(0.01, 30.0)
            g = apply(m, xls, "ebme", b=-1.0).shrinkage
            assert np.all(g >= 0.0) and np.all(g < 1.0)

    def _cutoff_oracle(self, model, xls, b):
        """Literal re-evaluation: scan cutoffs, recompute the sums each time."""
        sig = model.Qeig.eigenvalues
        order = np.argsort(-(sig**b), kind="stable")
        s = sig[order]
        v = model.Qeig.basis.T @ xls
        vo = v[order]
        l2 = float(np.sum(s**b * vo * vo))
        m = s.shape[0]
        for k in range(m):
            r1 = float(np.sum(s[k:] ** (b / 2.0 - 1.0)))
            r2 = float(np.sum(s[k:] ** (b - 1.0)))
            alpha = r1 / (l2 + r2)
            if alpha * s[k] ** (b / 2.0) < 1.0:
                gains_o = np.maximum(1.0 - alpha * s ** (b / 2.0), 0.0)
                xhat = model.Qeig.basis[:, order] @ (gains_o * vo)
                return k, gains_o, xhat
        raise AssertionError("no admissible cutoff found")

    def test_structure_against_cutoff_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = random_model(rng)
            b = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0]))
            xls = rng.standard_normal(m.m) * rng.uniform(0.05, 10.0)
            k, gains_o, xhat_o = self._cutoff_oracle(m, xls, b)
            r = apply(m, xls, "ebme", b=b)
            assert rel_vec_err(r.xhat, xhat_o) <= 1e-10
            # Exactly k leading gains (in sig**b order) are clamped to zero.
            order = np.argsort(-(m.Qeig.eigenvalues**b), kind="stable")
            g_sorted = r.shrinkage[order]
            assert np.sum(g_sorted == 0.0) == k
            assert np.all(g_sorted[:k] == 0.0)
            assert np.all(g_sorted[k:] > 0.0)

    def test_output_is_spectral_reweighting(self):
        m = fig4_model()
        xls = np.random.default_rng(11).standard_normal(15)
        r = apply(m, xls, "ebme", b=-1.0)
        v = m.Qeig.basis.T @ xls
        rebuilt = m.Qeig.basis @ (r.shrinkage * v)
        np.testing.assert_allclose(r.xhat, rebuilt, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("b", [float("nan"), float("inf")])
    def test_non_finite_exponent_rejected(self, b):
        with pytest.raises(UnknownEstimatorError, match=r"^ebme requires a finite exponent b$"):
            apply(fig4_model(), np.ones(15), "ebme", b=b)

    @pytest.mark.parametrize("b", [120.0, 300.0])
    def test_overflowing_exponent_rejected(self, b):
        # 1000**b overflows float64: a typed error naming b, not NaN or
        # all-zero gains behind a RuntimeWarning.
        m = fig6_model(1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnknownEstimatorError, match=f"b={b:g}"):
                apply(m, np.ones(10), "ebme", b=b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_xls_rejected(self, bad):
        xls = np.ones(15)
        xls[3] = bad
        with pytest.raises(NonFiniteError):
            apply(fig4_model(), xls, "ebme", b=-1.0)
        with pytest.raises(NonFiniteError):
            estimate_from_ls(fig4_model(), EstimatorSpec("sbme"), xls)


    @pytest.mark.parametrize("spec, length, match", [
        (EstimatorSpec("sbme"), 14, "xls: trailing dimension 14"),
        (EstimatorSpec("offcenter", x0=np.ones(14)), 15, "x0: dim 14"),
    ], ids=["xls", "center"])
    def test_wrong_length_rejected(self, spec, length, match):
        with pytest.raises(DimensionMismatchError, match=match):
            estimate_from_ls(fig4_model(), spec, np.ones((2, length)))


class TestOverflowingStatistic:
    """Finite inputs whose statistic ``s`` overflows float64 raise the
    engine's typed error instead of returning NaN behind a warning."""

    @pytest.mark.parametrize("spec", [
        EstimatorSpec(tag) for tag, rule in RULES.items() if rule.param is None and tag != "ls"
    ] + [EstimatorSpec("shrinkc", c=0.0), EstimatorSpec("shrinkc", c=1.0),
         EstimatorSpec("offcenter", x0=np.ones(3))], ids=lambda spec: spec.label)
    def test_typed_error(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="xls: "):
                estimate_from_ls(iid_model(3), spec, np.full(3, 1e160))

    def test_ls_uses_no_statistic(self):
        xls = np.random.default_rng(18).standard_normal(15)
        assert np.array_equal(estimate_from_ls(fig4_model(), EstimatorSpec("ls"), xls).xhat, xls)
        # ||xls||^2 overflows, but ls returns the finite xls itself.
        xls = np.full(3, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate_from_ls(iid_model(3), EstimatorSpec("ls"), xls)
        np.testing.assert_array_equal(result.xhat, xls)
        np.testing.assert_array_equal(result.shrinkage, np.ones(3))
        assert not result.degenerate

    def test_overflowing_gain(self):
        # ||xls||^2 is finite, but tik1's sig_i ||xls||^2 overflows.
        model = build_model(np.eye(3), 0.25 * np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"^xls: the rule's gain \(tik1's on "
                               r"sig_i s\) leaves float64 range$"):
                estimate_from_ls(model, EstimatorSpec("tik1"), np.full(3, 0.7e154))

    def test_ebme_keeps_its_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnknownEstimatorError, match="b=-1"):
                apply(iid_model(3), np.full(3, 1e160), "ebme", b=-1.0)


class TestScalarGainOracle:
    """Each scalar rule's gain against its textbook closed form, with
    ``||xls||^2_Q`` taken from ``H`` and ``Cw`` directly."""

    FORMS = {
        "sbme": lambda n2, qn, m: n2 / (n2 + m.eps0),
        "bbm": lambda n2, qn, m: 1.0 - m.eps0 / n2,
        "pbm": lambda n2, qn, m: np.maximum(1.0 - m.eps0 / n2, 0.0),
        "bock": lambda n2, qn, m: 1.0 - (m.eps0 / m.eps_max - 2.0) / qn,
        "tik2": lambda n2, qn, m: qn / (m.m + qn),
        "shrinkc:c=0.5": lambda n2, qn, m: 1.0 - m.eps0 / (0.5 + n2),
        "shrinkc:c=7": lambda n2, qn, m: 1.0 - m.eps0 / (7.0 + n2),
    }

    @pytest.mark.parametrize("tag", sorted(FORMS))
    def test_gain_matches_closed_form(self, tag):
        rng = np.random.default_rng(22)
        spec = parse_estimator_spec(tag)
        models = [fig4_model(), fig5b_model()] + [random_model(rng, dense) for dense in (0, 1) * 3]
        for m in models:
            q = m.H.T @ np.linalg.solve(m.Cw, m.H)
            for scale in (0.3, 1.0, 4.0):
                xls = rng.standard_normal((200, m.m)) * scale * np.sqrt(m.eps0 / m.m)
                n2 = np.einsum("ij,ij->i", xls, xls)
                qn = np.einsum("ij,jk,ik->i", xls, q, xls)
                res = estimate_from_ls(m, spec, xls)
                assert res.shrinkage.shape == xls.shape
                # 1 - e/s rounds to an absolute error of a few ulps of 1, which
                # is not small relative to a gain near zero: hence the atol.
                np.testing.assert_allclose(
                    res.shrinkage, np.repeat(self.FORMS[tag](n2, qn, m)[:, None], m.m, axis=1),
                    rtol=1e-12, atol=1e-15,
                )
                np.testing.assert_array_equal(res.xhat, res.shrinkage * xls)


# Degenerate flag at xls = 0 on fig4_model: set exactly where a rule's
# denominator vanishes there.
_FLAG_AT_ZERO = [
    ("ls", {}, False),
    ("sbme", {}, False),
    ("bbm", {}, True),
    ("pbm", {}, False),
    ("bock", {}, True),
    ("tik1", {}, True),
    ("tik2", {}, True),
    ("ebme", {"b": -1.0}, False),
    ("shrinkc", {"c": 0.0}, True),
    ("shrinkc", {"c": 1.0}, False),
    ("offcenter", {"x0": np.ones(15)}, False),
]


def test_zero_flag_table_covers_every_rule():
    assert {kind for kind, _, _ in _FLAG_AT_ZERO} == set(RULES)


@pytest.mark.parametrize(
    "kind,params,flag", _FLAG_AT_ZERO, ids=[EstimatorSpec(k, **p).label for k, p, _ in _FLAG_AT_ZERO]
)
def test_degenerate_flag_at_zero(kind, params, flag):
    m = fig4_model()
    spec = EstimatorSpec(kind, **params)
    assert estimate_from_ls(m, spec, np.zeros(15)).degenerate is flag
    # A batch is flagged when any of its rows is.
    batch = np.vstack([np.ones(15), np.zeros(15)])
    res = estimate_from_ls(m, spec, batch)
    assert res.degenerate is flag
    assert res.shrinkage.shape == batch.shape
    assert estimate_from_ls(m, spec, np.ones((2, 15))).degenerate is False


class TestRotationEquivariance:
    def test_sign_flips_exact(self):
        m = iid_model(7)
        rng = np.random.default_rng(13)
        xls = rng.standard_normal(7)
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        for tag in ("sbme", "bbm", "pbm", "bock"):
            assert np.array_equal(apply(m, signs * xls, tag).xhat, signs * apply(m, xls, tag).xhat)

    def test_random_rotation_near_exact(self):
        m = iid_model(6)
        rng = np.random.default_rng(14)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            xls = rng.standard_normal(6)
            for tag in ("sbme", "bbm", "pbm", "bock"):
                rotated = apply(m, q @ xls, tag).xhat
                assert rel_vec_err(rotated, q @ apply(m, xls, tag).xhat) <= 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = random_model(rng)
            xls = rng.standard_normal(m.m)
            for tag in ("sbme", "bbm", "pbm", "bock"):
                xhat = apply(m, xls, tag).xhat
                # Collinear: cross-projection residual is numerically zero.
                coeff = float(xhat @ xls) / float(xls @ xls)
                assert rel_vec_err(xhat, coeff * xls) <= 1e-12


class TestIdentityChainFuzz:
    def test_chain(self):
        rng = np.random.default_rng(16)
        for i in range(200):
            m = random_model(rng, dense_cw=(i % 4 == 0))
            xls = rng.standard_normal(m.m) * rng.uniform(0.05, 20.0)
            sbme, bbm = apply(m, xls, "sbme").xhat, apply(m, xls, "bbm")
            assert rel_vec_err(apply(m, xls, "shrinkc", c=m.eps0).xhat, sbme) <= 1e-12
            assert rel_vec_err(apply(m, xls, "shrinkc", c=0.0).xhat, bbm.xhat) <= 1e-12
            assert rel_vec_err(apply(m, xls, "ebme", b=0.0).xhat, sbme) <= 1e-12
            assert rel_vec_err(apply(m, xls, "offcenter", x0=np.zeros(m.m)).xhat, sbme) <= 1e-12
            bbm_gain = bbm.shrinkage[0]
            clamped = max(bbm_gain, 0.0) * xls
            assert rel_vec_err(apply(m, xls, "pbm").xhat, clamped) <= 1e-12


class TestDominancePredicates:
    def test_published_profile_passes(self):
        assert sbme_dominance_holds(fig4_model())

    def test_boundary_is_strict(self):
        assert not sbme_dominance_holds(iid_model(4))
        assert sbme_dominance_holds(iid_model(5))

    def test_iid_any_exponent(self):
        m = iid_model(5)
        for b in (-2.0, -1.0, 0.0, 1.0):
            assert ebme_dominance_holds(m, b)

    def test_b_zero_matches_scalar_condition(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_model(rng)
            assert ebme_dominance_holds(m, 0.0) == sbme_dominance_holds(m)

    def test_spectral_condition_can_fail(self):
        # One dominant noise direction: effective dimension barely above 1.
        m = build_model(np.eye(5), np.diag([100.0, 0.01, 0.01, 0.01, 0.01]))
        assert not sbme_dominance_holds(m)
        assert not ebme_dominance_holds(m, -1.0)

    @pytest.mark.parametrize("b", [float("nan"), float("inf"), 300.0])
    def test_bad_exponent_rejected(self, b):
        # Q = diag(1 x5, 1000 x5): 1000**(300/2 - 1) overflows float64.
        m = build_model(np.eye(10), np.diag([1.0] * 5 + [1e-3] * 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnknownEstimatorError, match=f"b={b:g}"):
                ebme_dominance_holds(m, b)


class TestSpecParsing:
    def test_bare_tags(self):
        bare = [tag for tag, rule in RULES.items() if rule.param is None]
        assert {"ls", "sbme", "bbm", "pbm", "bock", "tik1", "tik2"} <= set(bare)
        for tag in bare:
            spec = parse_estimator_spec(tag)
            assert spec.kind == tag and spec.label == tag

    def test_ebme_tag(self):
        spec = parse_estimator_spec("ebme:b=-1")
        assert spec.kind == "ebme" and spec.b == -1.0
        assert spec.label == "ebme:b=-1"

    def test_shrinkc_tag(self):
        spec = parse_estimator_spec("shrinkc:c=2.5")
        assert spec.c == 2.5 and spec.label == "shrinkc:c=2.5"

    def test_offcenter_tag(self, tmp_path):
        p = tmp_path / "x0.csv"
        p.write_text("1.0\n2.0\n")
        spec = parse_estimator_spec(f"offcenter:file={p}")
        np.testing.assert_array_equal(spec.x0, [1.0, 2.0])

    def test_unknown_tag_rejected(self):
        with pytest.raises(UnknownEstimatorError):
            parse_estimator_spec("james")

    def test_malformed_parameter_rejected(self):
        for bad in ("ebme", "ebme:b=x", "shrinkc:c=-1", "shrinkc:d=1", "sbme:b=1", "offcenter",
                    "shrinkc:c=inf", "ebme:b=inf", "offcenter:file="):
            with pytest.raises(UnknownEstimatorError):
                parse_estimator_spec(bad)

    def test_constructor_validates_parameters(self):
        for kind, kwargs in (
            ("ebme", {}),
            ("ebme", {"b": float("nan")}),
            ("shrinkc", {"c": float("inf")}),
            ("shrinkc", {"c": -0.5}),
            ("offcenter", {}),
            ("james", {}),
        ):
            with pytest.raises(UnknownEstimatorError):
                EstimatorSpec(kind, **kwargs)
        assert EstimatorSpec("shrinkc", c=0.0).label == "shrinkc:c=0"
        assert EstimatorSpec("offcenter", x0=np.zeros(2)).label == "offcenter"

    def test_per_component_flag_matches_gain_profiles(self):
        # Scalar rules apply one gain to every component; per-component rules
        # vary it across Q's eigenbasis (distinct eigenvalues here).
        m = fig4_model()
        xls = np.random.default_rng(20).standard_normal((64, 15)) * 2.0
        for tag, rule in RULES.items():
            spec = EstimatorSpec(tag, b=-1.0, c=1.0, x0=np.zeros(15))
            gains = estimate_from_ls(m, spec, xls).shrinkage
            assert gains.shape == xls.shape
            scalar = bool(np.all(gains == gains[:, :1]))
            assert scalar != rule.per_component, tag

    def test_batch_rows_match_single_calls(self):
        # BLAS picks different kernels for matrix and vector operands, so
        # agreement is to rounding, not bitwise.
        m = fig4_model()
        rng = np.random.default_rng(19)
        block = rng.standard_normal((32, 15))
        for tag in ("sbme", "bbm", "pbm", "bock", "tik1", "tik2"):
            spec = parse_estimator_spec(tag)
            batch = estimate_from_ls(m, spec, block).xhat
            for i in (0, 13, 31):
                np.testing.assert_allclose(
                    batch[i],
                    estimate_from_ls(m, spec, block[i]).xhat,
                    rtol=1e-12,
                    atol=1e-14,
                )
        batch = apply(m, block, "ebme", b=-1.0).xhat
        for i in (0, 13, 31):
            np.testing.assert_allclose(
                batch[i], apply(m, block[i], "ebme", b=-1.0).xhat, rtol=1e-12, atol=1e-14
            )

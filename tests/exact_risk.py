"""Exact risk of the ratio rules, for tests that check the Monte Carlo
engine against a known answer.

The oracle reads each rule from the ``Plan`` that ``estimators.RULES``
builds for the model: a plan whose gain is ``unit_gain`` is least squares,
with risk ``eps0``; a plan whose gain is a ``Ratio`` without ``clamp`` has
the gain ``1 - e / (c + spread_i s)`` on component ``i``, with
``s = w . v**2`` (``w`` the plan's weights, ones for ``None``) taken about
the plan's ``center``. That gain is ``g_i = 1 - e_i / (c_i + s)`` with
``c_i = c / spread_i`` and ``e_i = e / spread_i``; a rule with no ``spread``
has constant ``c_i = c`` and ``e_i = e``. ``ebme``'s plan is a ratio rule
on the rows whose statistic ``l2 = w . v**2`` exceeds its ``affine.t0``,
where its cutoff cuts no component: there its gain is
``1 - r1 sb2_i / (r2 + l2)``, so ``c_i = r2`` and ``e_i = r1 sb2_i`` (all
from ``plan.affine``, ``sb2`` its ``weights``). The oracle takes that form
only where the Chernoff bound ``min_t exp(t t0) E[exp(-t l2)]`` on
``P(l2 <= t0)`` is below 1e-16 at every point, and adds to the error a cap
on the cut rows' part, where ``||v||**2 <= t0 / min(w)`` bounds both forms'
squared errors. Any other plan (``pbm``'s clamp, ``ebme`` where its cutoff
may engage) raises ``NoClosedForm``.

In the eigenbasis ``U`` of ``Q``, ``v = U' xls ~ N(u, diag(d))`` with
``u = U'(x - center)`` and ``d = 1/sig``, so the risk of a ratio rule is

    eps0 - 2 sum_i e_i E[(v_i**2 - u_i v_i) / (c_i + s)]
         + sum_i e_i**2 E[v_i**2 / (c_i + s)**2].

``1/a = int_0^inf exp(-t a) dt`` and ``1/a**2 = int_0^inf t exp(-t a) dt``
turn each expectation into a 1-D integral over ``t``. Tilting by
``exp(-t w_i v_i**2)`` keeps ``v_i`` Gaussian, with mean ``u_i / k_i`` and
variance ``d_i / k_i``, ``k_i = 1 + 2 t w_i d_i``, and the weight
``k_i**-0.5 exp(-t w_i u_i**2 / k_i)`` (Cressie et al. 1981, Amer. Statist.
35(3)), so the integrands are closed forms.

The integrals are taken by the trapezoid rule in ``tau = log t`` on
[-30, 30], for all points of a group at once, with the exponential tails
below -30 in closed form. At ``c = 0`` the integrands decay only like
``t**(-m/2)`` and ``t**(1 - m/2)`` for large ``t``, and the risk is finite
only for ``m >= 3``; their power-law tails beyond ``e**30`` are added in
closed form. At ``c > 0`` the factors ``exp(-c_i t)`` end them: where
``min(c_i) e**30 < 40`` the grid goes on, at the same step, to
``min(c_i) t = 40``.
"""

from collections import namedtuple

import numpy as np

from blindmm.estimators import RULES, Ratio, unit_gain

Exact = namedtuple("Exact", "risk error")

TAU = 30.0


class NoClosedForm(ValueError):
    """A rule the oracle does not cover, or one whose risk is infinite."""


def _log_mgf(u, d, w, t):
    """``log E[exp(-t s)]``, ``(P, T)``, for the ``P`` rows of ``u`` and each ``t``."""
    twd = 2.0 * t[:, None] * (w * d)  # k - 1, (T, m)
    return -0.5 * np.log1p(twd).sum(axis=1) - (u * u) @ (t[:, None] * w / (1.0 + twd)).T


def _integrands(u, d, w, c, e, tau):
    """``(P, T)`` integrands in ``tau`` of ``sum_i e_i E[(v_i**2 - u_i v_i)/(c_i + s)]``
    and ``sum_i e_i**2 E[v_i**2/(c_i + s)**2]`` for the ``P`` rows of ``u``."""
    t = np.exp(tau)
    twd = 2.0 * t[:, None] * (w * d)  # k - 1, (T, m)
    k = 1.0 + twd
    u2 = u * u
    log_z = _log_mgf(u, d, w, t)
    decay = e * np.exp(-t[:, None] * c)  # e_i exp(-c_i t), (T, m)
    # The tilted E[v_i**2 - u_i v_i] and E[v_i**2], weighted by decay and by
    # e * decay, summed over i.
    a = (decay * d / k).sum(axis=1) - u2 @ (decay * twd / (k * k)).T
    b = (e * decay * d / k).sum(axis=1) + u2 @ (e * decay / (k * k)).T
    scale = np.exp(tau + log_z)
    return scale * a, scale * t * b


def _cut_rows_cap(affine, u, d, w, t, label):
    """A cap, per row of ``u``, on ``ebme``'s risk from rows with ``l2 <= t0``,
    where its ratio form does not hold; ``NoClosedForm`` where the Chernoff
    bound on their probability reaches 1e-16."""
    if affine.t0 > 0.0:  # at t0 = 0 only l2 = 0 is cut, with probability 0
        log_p = (t * affine.t0 + _log_mgf(u, d, w, t)).min(axis=1)
    else:
        log_p = np.full(u.shape[0], -np.inf)
    if log_p.max() >= np.log(1e-16):
        raise NoClosedForm(f"exact_risk: no closed form for {label}: P(l2 <= t0) is bounded "
                           f"only by {np.exp(log_p.max()):.2g}, not below 1e-16")
    # There ||v|| <= sqrt(t0 / min(w)); ebme's gains lie in [0, 1], the ratio
    # form's within 1 + r1 max(sb2) / r2 of 0.
    reach = (1.0 + affine.r1 * affine.weights.max() / affine.r2) * np.sqrt(affine.t0 / w.min())
    return np.exp(log_p) * (reach + np.linalg.norm(u, axis=1)) ** 2


def _trapezoid(f, h):
    return h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))


def exact_risk(model, xs, spec, nodes: int = 200) -> Exact:
    """Exact risk of ``spec`` at each point of ``xs`` (``(P, m)``), by the
    trapezoid rule on ``2 nodes - 1`` nodes, and an error estimate: the change
    from ``nodes`` nodes, the step doubled, plus ``ebme``'s cut-row cap.
    ``NoClosedForm`` for a rule whose gain is neither ``unit_gain``, nor a
    ``Ratio`` without ``clamp``, nor ``ebme``'s where its cutoff cannot engage,
    for ``c = 0`` with ``m < 3``, and for a ``min(c_i) > 0`` below ``40 e**-300``."""
    plan = RULES[spec.kind].plan(model, spec)
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if plan.gain is unit_gain:  # least squares
        return Exact(np.full(xs.shape[0], model.eps0), np.zeros(xs.shape[0]))
    w = np.ones(model.m) if plan.weights is None else plan.weights
    if plan.affine is not None:  # ebme, on the rows with l2 > t0
        c = plan.affine.r2
        c_i, e_i = np.full(model.m, c), plan.affine.r1 * plan.affine.weights
    elif isinstance(plan.gain, Ratio) and not plan.gain.clamp:
        c, e = plan.gain.c, plan.gain.e
        spread = 1.0 if plan.gain.spread is None else plan.gain.spread[:, 0]
        c_i, e_i = np.broadcast_to(c / spread, model.m), np.broadcast_to(e / spread, model.m)
    else:
        raise NoClosedForm(f"exact_risk: no closed form for {spec.label}")
    if c == 0.0 and model.m < 3:
        raise NoClosedForm(f"exact_risk: {spec.label} has infinite risk at m = {model.m} < 3")
    if plan.center is not None:
        xs = xs - plan.center
    u = xs @ model.Qeig.basis
    tau = np.linspace(-TAU, TAU, 2 * nodes - 1)
    top = np.log(40.0) - np.log(c_i.min()) if c > 0.0 else TAU  # min(c_i) e**top = 40
    if top > TAU:  # extend the grid, at the same step, to where exp(-min(c_i) t) < e**-40
        if top > 10.0 * TAU:
            raise NoClosedForm(f"exact_risk: {spec.label} has c below 40 e**-300")
        h = tau[1] - tau[0]
        extra = 2 * int(np.ceil((top - TAU) / (2.0 * h)))  # even: the coarse grid ends on it too
        tau = np.concatenate([tau, TAU + h * np.arange(1, extra + 1)])
    d = 1.0 / model.Qeig.eigenvalues
    cut = 0.0 if plan.affine is None else _cut_rows_cap(plan.affine, u, d, w, np.exp(tau),
                                                         spec.label)
    f1, f2 = _integrands(u, d, w, c_i, e_i, tau)
    risks = []
    for step in (2, 1):  # ``nodes`` nodes, then the step halved
        h = tau[step] - tau[0]
        # Below tau = -30 the integrands are exp(tau) and exp(2 tau) times their
        # values at t = 0, to float64 precision.
        i1 = _trapezoid(f1[:, ::step], h) + f1[:, 0]
        i2 = _trapezoid(f2[:, ::step], h) + f2[:, 0] / 2.0
        if c == 0.0:  # power-law tails beyond tau = 30
            i1 = i1 + f1[:, -1] / (model.m / 2.0)
            i2 = i2 + f2[:, -1] / (model.m / 2.0 - 1.0)
        risks.append(model.eps0 - 2.0 * i1 + i2)
    return Exact(risks[1], np.abs(risks[1] - risks[0]) + cut)

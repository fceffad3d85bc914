"""Exact risk of the scalar ratio rules, for tests that check the Monte Carlo
engine against a known answer.

The oracle reads each rule from the ``Plan`` that ``estimators.RULES``
builds for the model: a plan whose gain is ``unit_gain`` is least squares,
with risk ``eps0``; a plan whose gain is a ``Ratio`` without ``spread`` or
``clamp`` has the gain ``g = 1 - e / (c + s)``, with ``s = w . v**2``
(``w`` the plan's weights, ones for ``None``) taken about the plan's
``center``. Any other plan raises ``NoClosedForm``.

In the eigenbasis ``U`` of ``Q``, ``v = U' xls ~ N(u, diag(d))`` with
``u = U'(x - center)`` and ``d = 1/sig``, so the risk of a ratio rule is

    eps0 - 2 e E[(||v||^2 - u . v) / (c + s)] + e**2 E[||v||^2 / (c + s)**2].

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
closed form. At ``c > 0`` the factor ``exp(-c t)`` ends them: where
``c e**30 < 40`` the grid goes on, at the same step, to ``c t = 40``.
"""

from collections import namedtuple

import numpy as np

from blindmm.estimators import RULES, Ratio, unit_gain

Exact = namedtuple("Exact", "risk error")

TAU = 30.0


class NoClosedForm(ValueError):
    """A rule the oracle does not cover, or one whose risk is infinite."""


def _integrands(u, d, w, c, tau):
    """``(P, T)`` integrands in ``tau`` of ``E[(||v||^2 - u . v)/(c + s)]``
    and ``E[||v||^2/(c + s)**2]`` for the ``P`` rows of ``u``."""
    t = np.exp(tau)
    twd = 2.0 * t[:, None] * (w * d)  # k - 1, (T, m)
    k = 1.0 + twd
    u2 = u * u
    log_z = -0.5 * np.log1p(twd).sum(axis=1) - u2 @ (t[:, None] * w / k).T
    spread = (d / k).sum(axis=1)  # sum_i d_i / k_i
    a = spread - u2 @ (twd / (k * k)).T  # tilted E[||v||^2 - u . v]
    b = spread + u2 @ (1.0 / (k * k)).T  # tilted E[||v||^2]
    scale = np.exp(tau + log_z - c * t)
    return scale * a, scale * t * b


def _trapezoid(f, h):
    return h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))


def exact_risk(model, xs, spec, nodes: int = 200) -> Exact:
    """Exact risk of ``spec`` at each point of ``xs`` (``(P, m)``), with the
    trapezoid rule on ``nodes`` nodes, and an error estimate: the change when
    the step is halved. ``NoClosedForm`` for a rule whose gain is neither
    ``unit_gain`` nor a ``Ratio`` without ``spread`` or ``clamp``, for
    ``c = 0`` with ``m < 3``, and for a ``c > 0`` below ``40 e**-300``."""
    plan = RULES[spec.kind].plan(model, spec)
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if plan.gain is unit_gain:  # least squares
        return Exact(np.full(xs.shape[0], model.eps0), np.zeros(xs.shape[0]))
    if not isinstance(plan.gain, Ratio) or plan.gain.spread is not None or plan.gain.clamp:
        raise NoClosedForm(f"exact_risk: no closed form for {spec.label}")
    c, e = plan.gain.c, plan.gain.e
    w = np.ones(model.m) if plan.weights is None else plan.weights
    if c == 0.0 and model.m < 3:
        raise NoClosedForm(f"exact_risk: {spec.label} has infinite risk at m = {model.m} < 3")
    if plan.center is not None:
        xs = xs - plan.center
    u = xs @ model.Qeig.basis
    tau = np.linspace(-TAU, TAU, 2 * nodes - 1)
    top = np.log(40.0) - np.log(c) if c > 0.0 else TAU  # c e**top = 40
    if top > TAU:  # extend the grid, at the same step, to where exp(-c t) < e**-40
        if top > 10.0 * TAU:
            raise NoClosedForm(f"exact_risk: {spec.label} has c below 40 e**-300")
        h = tau[1] - tau[0]
        extra = 2 * int(np.ceil((top - TAU) / (2.0 * h)))  # even: the coarse grid ends on it too
        tau = np.concatenate([tau, TAU + h * np.arange(1, extra + 1)])
    f1, f2 = _integrands(u, 1.0 / model.Qeig.eigenvalues, w, c, tau)
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
        risks.append(model.eps0 - 2.0 * e * i1 + e * e * i2)
    return Exact(risks[0], np.abs(risks[1] - risks[0]))

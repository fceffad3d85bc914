"""Exact risk of the scalar rules, for tests that check the Monte Carlo
engine against a known answer.

In the eigenbasis ``U`` of ``Q``, ``v = U' xls ~ N(u, diag(d))`` with
``u = U'x`` and ``d = 1/sig``. Each rule here has the gain
``g = 1 - e / (c + s)`` with ``s = w . v**2`` (``w = 1`` or ``sig``), so its
risk is

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
closed form. At ``c > 0`` the range assumes ``c e**30 >> 1``. ``offcenter``
is ``sbme`` about ``x0``: its ``u`` is ``U'(x - x0)``.
"""

from collections import namedtuple

import numpy as np

Exact = namedtuple("Exact", "risk error")

TAU = 30.0


class NoClosedForm(ValueError):
    """A rule the oracle does not cover, or one whose risk is infinite."""


def _constants(model, spec):
    """``(c, e, w)`` of a covered rule's gain ``1 - e / (c + w . v**2)``."""
    eps0, m, ones, sig = model.eps0, float(model.m), np.ones(model.m), model.Qeig.eigenvalues
    table = {
        "ls": (0.0, 0.0, ones),
        "sbme": (eps0, eps0, ones),
        "offcenter": (eps0, eps0, ones),
        "shrinkc": (spec.c, eps0, ones),
        "bbm": (0.0, eps0, ones),
        "bock": (0.0, eps0 / model.eps_max - 2.0, sig),
        "tik2": (m, m, sig),
    }
    if spec.kind not in table:
        raise NoClosedForm(f"exact_risk: no closed form for {spec.label}")
    return table[spec.kind]


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
    the step is halved. ``NoClosedForm`` for a rule other than ``ls``,
    ``sbme``, ``shrinkc``, ``bbm``, ``bock``, ``tik2`` and ``offcenter``, and
    for ``c = 0`` with ``m < 3``."""
    c, e, w = _constants(model, spec)
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if e == 0.0:  # the gain is 1: least squares
        return Exact(np.full(xs.shape[0], model.eps0), np.zeros(xs.shape[0]))
    if c == 0.0 and model.m < 3:
        raise NoClosedForm(f"exact_risk: {spec.label} has infinite risk at m = {model.m} < 3")
    if spec.kind == "offcenter":
        xs = xs - spec.x0
    u = xs @ model.Qeig.basis
    tau = np.linspace(-TAU, TAU, 2 * nodes - 1)
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

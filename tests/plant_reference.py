"""Reference recursions of the prediction identity behind ``PlantModel.true_theta``.

The open-loop difference form and the self-consistent d-step prediction form
over a whole horizon, and the prediction form one step at a time with its
disturbance filter.  Only tests use them: they check that the two forms
produce the same outputs, which is what makes the stacked true parameters of
the d-step predictor the right target for the adaptive loop.
"""

from __future__ import annotations

import numpy as np

from adaptbus.kernels import DIVERGENCE_LIMIT, SIM_DIVERGED, SIM_OK
from adaptbus.plant import DisturbanceTrain, PlantDivergenceError, SignalHistory
from adaptbus.shiftpoly import ShiftPoly


def simulate_difference(a, b, d, u, dist, y_init, u_init):
    """Open-loop plant recursion y(k) = -sum a_l y(k-l) + sum b_l u(k-l-d) + D(k-d).

    Args:
        a: (m1,) feedback coefficients.
        b: (m2+1,) input coefficients, b[0] first.
        d: input delay in samples (>= 1).
        u: (T,) applied inputs u(0..T-1).
        dist: (T+1,) disturbance D(0..T); negative times are zero.
        y_init: (m1,) initial outputs y(0), y(-1), ... most recent first.
        u_init: initial inputs u(-1), u(-2), ... most recent first.

    Returns:
        (status, y) with y of length T+1 holding y(0..T).
    """
    m1 = a.shape[0]
    m2 = b.shape[0] - 1
    T = u.shape[0]
    py = m1 + 1
    pu = m2 + d + 1
    yb = np.zeros(py + T + 1)
    ub = np.zeros(pu + T)
    for i in range(y_init.shape[0]):
        yb[py - i] = y_init[i]  # y(-i)
    for i in range(u_init.shape[0]):
        if pu - 1 - i >= 0:
            ub[pu - 1 - i] = u_init[i]  # u(-1-i)
    for t in range(T):
        ub[pu + t] = u[t]
    status = SIM_OK
    for j in range(1, T + 1):
        acc = 0.0
        for l in range(1, m1 + 1):
            acc -= a[l - 1] * yb[py + j - l]
        for l in range(0, m2 + 1):
            acc += b[l] * ub[pu + j - d - l]
        td = j - d
        if 0 <= td < dist.shape[0]:
            acc += dist[td]
        if not np.isfinite(acc) or abs(acc) > DIVERGENCE_LIMIT:
            status = SIM_DIVERGED
            yb[py + j] = acc
            break
        yb[py + j] = acc
    y = np.empty(T + 1)
    for j in range(T + 1):
        y[j] = yb[py + j]
    return status, y


def simulate_predictor(alpha, beta, f, d, u, dist, y_init, u_init):
    """Self-consistent d-step prediction-form recursion.

    y(k+d) = alpha(q^-1) y(k) + beta(q^-1) u(k) + f(q^-1) D(k), iterated so the
    generated outputs feed back into the alpha terms.  f is the quotient from
    the prediction-identity long division; for d = 1 it is (1,) and the
    recursion coincides with the difference form.

    Returns (status, y) with y of length T+1.
    """
    na = alpha.shape[0]
    nb = beta.shape[0]
    nf = f.shape[0]
    T = u.shape[0]
    py = na + d + 1
    pu = nb + d + 1
    yb = np.zeros(py + T + 1)
    ub = np.zeros(pu + T)
    for i in range(y_init.shape[0]):
        yb[py - i] = y_init[i]
    for i in range(u_init.shape[0]):
        if pu - 1 - i >= 0:
            ub[pu - 1 - i] = u_init[i]
    for t in range(T):
        ub[pu + t] = u[t]
    status = SIM_OK
    for j in range(1, T + 1):
        k = j - d
        acc = 0.0
        for i in range(na):
            acc += alpha[i] * yb[py + k - i]
        for l in range(nb):
            acc += beta[l] * ub[pu + k - l]
        for m in range(nf):
            td = k - m
            if 0 <= td < dist.shape[0]:
                acc += f[m] * dist[td]
        if not np.isfinite(acc) or abs(acc) > DIVERGENCE_LIMIT:
            status = SIM_DIVERGED
            yb[py + j] = acc
            break
        yb[py + j] = acc
    y = np.empty(T + 1)
    for j in range(T + 1):
        y[j] = yb[py + j]
    return status, y


def step_predictor(alpha: ShiftPoly, beta: ShiftPoly, history: SignalHistory,
                   u_k: float, d_k: float = 0.0) -> float:
    """Predicted output d steps ahead from time-k data (no state change).

    ``d_k`` is the disturbance as seen by the prediction form at time k, i.e.
    already filtered through the prediction-identity quotient (see
    ``predictor_disturbance``).
    """
    acc = 0.0
    for i, c in enumerate(alpha.coeffs):
        acc += c * history.y_lag(i)
    bc = beta.coeffs
    acc += bc[0] * u_k
    for j in range(1, len(bc)):
        acc += bc[j] * history.u_lag(j)
    acc += d_k
    if not np.isfinite(acc):
        raise PlantDivergenceError(history.k, acc)
    return acc


def predictor_disturbance(F: ShiftPoly, train: DisturbanceTrain | None, k: int) -> float:
    """Disturbance entering the prediction form at time k: F(q^-1) D(k)."""
    if train is None:
        return 0.0
    acc = 0.0
    for j, c in enumerate(F.coeffs):
        acc += c * train.value(k - j)
    return acc

"""Per-sample recursions of the fixed-delay adaptive loop, interpreted.

Everything here is an explicit scalar loop with a fixed summation order, so
no BLAS reduction order reaches the deterministic trace path.
``simulate_fixed_delay``, the loop behind the fixed protocol and the ideal
reference models, runs on Python floats and lists.  The helpers index float64
arrays one scalar at a time, in the same arithmetic order.
"""

from __future__ import annotations

import numpy as np

# status codes returned by the closed-loop kernel
SIM_OK = 0
SIM_DIVERGED = 1
SIM_ZERO_DIVISOR = 2

DIVERGENCE_LIMIT = 1e12
ZERO_FLOOR = 1e-300  # below this a divisor is treated as exactly zero


def dot(x, y):
    """Fixed-order dot product (no BLAS) for deterministic traces."""
    s = 0.0
    for i in range(x.shape[0]):
        s += x[i] * y[i]
    return s


def gradient_update(theta, Phi, y_k, gamma):
    """One normalized-gradient step with the zero-divisor guard.

    eps = y_k - theta . Phi; the step is a * Phi * eps / (1 + |Phi|^2) where
    a = 1 unless that choice would land the last (divisor) element exactly on
    zero, in which case a = gamma.

    Returns (theta_new, eps, a).
    """
    n = theta.shape[0]
    eps = y_k - dot(theta, Phi)
    denom = 1.0 + dot(Phi, Phi)
    cand = theta[n - 1] + Phi[n - 1] * eps / denom
    a = 1.0
    if abs(cand) < ZERO_FLOOR:
        a = gamma
    theta_new = np.empty(n)
    for i in range(n):
        theta_new[i] = theta[i] + a * Phi[i] * eps / denom
    return theta_new, eps, a


def control_output(theta, phi, yref_ahead):
    """Certainty-equivalence control u = (yref_ahead - theta[:-1] . phi) / theta[-1].

    The caller guarantees the divisor is nonzero.
    """
    n = theta.shape[0]
    s = 0.0
    for i in range(n - 1):
        s += theta[i] * phi[i]
    return (yref_ahead - s) / theta[n - 1]


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


def simulate_fixed_delay(a, b, d, gamma, theta0, yref_ext, dist, y_init, u_init, adapt_updates):
    """Closed adaptive loop at a fixed delay d over T samples, on Python floats.

    Per sample k: normalized-gradient update from the regressor stored d steps
    ago (skipped when adapt_updates is False), then the certainty-equivalence
    control using yref_ext[k+d], then one plant step.  The arithmetic order is
    that of ``gradient_update``, ``control_output`` and ``simulate_difference``.

    Args:
        theta0: (M,) initial estimate, M = m1 + m2 + d; last element divides.
        yref_ext: (T+d,) reference with lookahead.
        dist: (T+1,) disturbance amplitudes by sample.
        adapt_updates: False freezes theta (reference-model runs).

    Returns:
        (status, k_stop, y, u, eps, theta_hist, Phi_hist) where y has length
        T+1, u/eps length T, theta_hist is (T, M) with the estimate after the
        sample-k update, and Phi_hist is (T+d, M) holding the regressor for
        time k at row k+d (rows below d are the pre-start regressors).  Rows
        past k_stop stay zero; a diverging output is not stored in y.
    """
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    m1, m2 = len(a), len(b) - 1
    M = m1 + m2 + d
    ref = np.asarray(yref_ext, dtype=float).tolist()
    D = np.asarray(dist, dtype=float).tolist()
    T, nd = len(ref) - d, len(D)
    # Y[oy + t] = y(t) and U[ou + t] = u(t), zero before the initial conditions
    oy, ou = m1 + d, m2 + 2 * d + 1
    Y, U = [0.0] * (oy + 1), [0.0] * ou
    for i, v in enumerate(np.asarray(y_init, dtype=float).tolist()[: oy + 1]):
        Y[oy - i] = v
    for i, v in enumerate(np.asarray(u_init, dtype=float).tolist()[:ou]):
        U[ou - 1 - i] = v
    # Phi(t) = (y(t)..y(t-m1+1), u(t-1)..u(t-m2-d+1), u(t)) at R[t + d]
    R = [Y[oy + t: oy + t - m1: -1] + U[ou + t - 1: ou + t - m2 - d: -1] + [U[ou + t]]
         for t in range(-d, 0)]
    theta, gamma = np.asarray(theta0, dtype=float).tolist(), float(gamma)
    TH, EPS = [], []
    status, k_stop = SIM_OK, T
    for k in range(T):
        y_k = Y[oy + k]
        lag = R[k]
        s = 0.0
        for t_i, p_i in zip(theta, lag):
            s += t_i * p_i
        eps = y_k - s
        if adapt_updates:
            nn = 0.0
            for p_i in lag:
                nn += p_i * p_i
            denom = 1.0 + nn
            gain = gamma if abs(theta[-1] + lag[-1] * eps / denom) < ZERO_FLOOR else 1.0
            theta = [t_i + gain * p_i * eps / denom for t_i, p_i in zip(theta, lag)]
        EPS.append(eps)
        TH += theta
        if abs(theta[-1]) < ZERO_FLOOR:
            status, k_stop = SIM_ZERO_DIVISOR, k
            break
        ywin = Y[oy + k: oy + k - m1: -1]
        phi = ywin + U[ou + k - 1: ou + k - m2 - d: -1]
        s = 0.0
        for t_i, p_i in zip(theta, phi):
            s += t_i * p_i
        u_k = (ref[k + d] - s) / theta[-1]
        phi.append(u_k)
        R.append(phi)
        U.append(u_k)
        # plant step: y(k+1) from y(k)..y(k-m1+1) and u(k+1-d)..u(k+1-d-m2)
        acc = 0.0
        for a_l, y_l in zip(a, ywin):
            acc -= a_l * y_l
        for b_l, u_l in zip(b, U[ou + k + 1 - d: ou + k - d - m2: -1]):
            acc += b_l * u_l
        td = k + 1 - d
        if 0 <= td < nd:
            acc += D[td]
        if not abs(acc) <= DIVERGENCE_LIMIT:  # nan included
            status, k_stop = SIM_DIVERGED, k
            break
        Y.append(acc)
    n = len(EPS)
    y, u, eps_out = np.zeros(T + 1), np.zeros(T), np.zeros(T)
    y[: len(Y) - oy] = Y[oy:]
    u[: len(U) - ou] = U[ou:]
    eps_out[:n] = EPS
    theta_hist, Phi_hist = np.zeros((T, M)), np.zeros((T + d, M))
    theta_hist[:n] = np.reshape(TH, (n, M))
    Phi_hist[: len(R)] = R
    return status, k_stop, y, u, eps_out, theta_hist, Phi_hist

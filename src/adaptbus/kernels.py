"""The closed adaptive loop, and its formulas one sample at a time.

``adaptive_loop`` is the one whole-horizon engine.  It runs on Python floats
and lists, under one of two policies: pinned (one estimate at one delay: the
fixed protocol, and with updates off the ideal reference models) or
switching (one application's TT/ET loop).  ``simulate_fixed_delay`` returns
its pinned runs as float64 arrays.  ``dot``, ``gradient_update`` and
``control_output`` compute the same formulas on float64 arrays for the
per-sample reference loop.  Every sum runs in a fixed order, with no BLAS
reduction, so (config, seed) gives the same bytes on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# status codes of the closed loop
SIM_OK = 0
SIM_DIVERGED = 1
SIM_ZERO_DIVISOR = 2
SIM_GUARD_BROKEN = 3  # an update zeroed a nonzero divisor, which the guard rules out

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


@dataclass
class LoopRun:
    """What ``adaptive_loop`` recorded; sample k at index k.

    The sample that stops a run keeps what it computed before the stop: its
    ``et``, ``e`` and ``eps`` always, its estimates after the update, and on
    a divergence also its regressors, ``u``, its switch (estimates reset)
    and the diverging output in ``value``.  ``y`` holds y(0), y(1), ... up
    to the output the last sample read.
    """

    status: int
    k_stop: int  # the stopping sample, T when the run completed
    T: int
    y: list
    u: list
    e: list  # y(k) - ref[k]
    eps: list
    et: list  # True where the sample ran the second (ET) estimate
    switches: list  # (k, direction, p)
    theta_rows: tuple  # per estimate, the flat rows after each sample
    phi_rows: tuple  # per estimate, Phi(t) at row t + d, pre-start rows first
    value: float | None = None


def _floats(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def adaptive_loop(a, b, ref, impulses, y_init, u_init, thetas, gammas, eth=-1.0,
                  updates=True) -> LoopRun:
    """Run the adaptive loop over T = len(ref) - d samples, d the longest delay.

    The policy follows the estimates.  Pinned, ``thetas = (theta,)``: theta
    has width m1 + m2 + d and runs at delay d throughout; ``updates=False``
    freezes it.  Switching, ``thetas = (theta1, theta2)``: theta1 runs at
    d = 1 (TT), theta2 at d2 = len(theta2) - m1 - m2 (ET), and the loop
    starts in TT.  Per sample k:

    - read y(k); switching, the next sample runs in ET when
      |e(k)| = |y(k) - ref[k]| <= eth;
    - eps = y(k) - theta . Phi(k - d) for the active estimate, then the
      normalized-gradient update with the zero-divisor guard (step gain
      gamma where 1 would zero the divisor; Goodwin & Sin, 1984, ch. 6).
      There is no update on an ET hold sample, nor at a sample that
      switches unless its divisor is zero (see
      ``supervisor.AppSupervisor.supervise_step``);
    - the certainty-equivalence control u(k) = (ref[k + d] - theta[:-1] .
      phi(k)) / theta[-1], which stops the run on a zero divisor;
    - switching, on a mode change, the reset rules of
      ``supervisor.apply_reset``;
    - the plant step y(k+1) = -sum a_l y(k+1-l) + sum b_l u(k+1-d-l)
      + D(k+1-d), which stops the run when |y(k+1)| > DIVERGENCE_LIMIT or
      is nan.

    Args:
        a: (m1,) plant feedback coefficients.
        b: (m2+1,) plant input coefficients, b[0] first.
        ref: reference with lookahead, yref(0..T+d-1).
        impulses: (t, D(t)) pairs; D is zero elsewhere.
        y_init: y(0), y(-1), ...; u_init: u(-1), u(-2), ...; zero beyond.
        thetas: one or two initial estimates; the last element divides.
        gammas: the guard gain of each estimate.
        eth: switching threshold.
        updates: False freezes the estimates.
    """
    a, b, ref = _floats(a), _floats(b), _floats(ref)
    m1, m2 = len(a), len(b) - 1
    switching = len(thetas) == 2
    theta1, theta2 = _floats(thetas[0]), _floats(thetas[-1])
    gamma1, gamma2 = float(gammas[0]), float(gammas[-1])
    M1, M2 = len(theta1), len(theta2)
    d1, d2 = M1 - m1 - m2, M2 - m1 - m2
    if not switching:
        eth = -1.0  # |e| <= eth never holds, nan included
    T = max(len(ref) - d2, 0)
    D = [0.0] * (T + 1 + d2)  # D[t + d2] = D(t)
    for t, v in impulses:
        if -d2 <= t <= T:
            D[t + d2] = float(v)
    # Y[oy + t] = y(t) and U[ou + t] = u(t), zero before the initial conditions
    oy, ou = m1 + d2, m2 + 2 * d2
    Y, U = [0.0] * (oy + 1), [0.0] * ou
    for i, v in enumerate(_floats(y_init)[: oy + 1]):
        Y[oy - i] = v
    for i, v in enumerate(_floats(u_init)[:ou]):
        U[ou - 1 - i] = v
    # Phi(t) at delay d = (y(t)..y(t-m1+1), u(t-1)..u(t-m2-d+1), u(t)), at R[t + d]
    R1, R2 = ([Y[oy + t: oy + t - m1: -1] + U[ou + t - 1: ou + t - m2 - d: -1] + [U[ou + t]]
               for t in range(-d, 0)] for d in (d1, d2))
    if not switching:
        R2 = R1  # one regressor list, appended once per sample
    n1 = m1 + m2 + d1 - 1  # width of theta1's phi
    memory, hold, p, et = theta2, 0, 0, False
    zero1, zero2, hold_len = [0.0] * M1, [0.0] * M2, m2 + d2 - 1
    E, EPS, ET, TH1, TH2, switches = [], [], [], [], [], []
    status, value = SIM_OK, None
    for k in range(T):
        y_k = Y[oy + k]
        e_k = y_k - ref[k]
        et_next = abs(e_k) <= eth
        ET.append(et)
        E.append(e_k)
        if et:
            theta, lag, gamma, d = theta2, R2[k], gamma2, d2
        else:
            theta, lag, gamma, d = theta1, R1[k], gamma1, d1
        s = 0.0
        for t_i, p_i in zip(theta, lag):
            s += t_i * p_i
        eps = y_k - s
        EPS.append(eps)
        before = theta  # the active estimate before its update
        if et and hold > 0:
            hold -= 1
        elif updates and (et_next == et or abs(theta[-1]) < ZERO_FLOOR):
            nn = 0.0
            for p_i in lag:
                nn += p_i * p_i
            denom = 1.0 + nn
            gain = gamma if abs(theta[-1] + lag[-1] * eps / denom) < ZERO_FLOOR else 1.0
            theta = [t_i + gain * p_i * eps / denom for t_i, p_i in zip(theta, lag)]
            if et:
                theta2 = theta
            else:
                theta1 = theta
        TH1 += theta1
        if switching:
            TH2 += theta2
        if abs(theta[-1]) < ZERO_FLOOR:
            status = SIM_ZERO_DIVISOR if abs(before[-1]) < ZERO_FLOOR else SIM_GUARD_BROKEN
            break
        phi = Y[oy + k: oy + k - m1: -1] + U[ou + k - 1: ou + k - m2 - d2: -1]
        phi1 = phi[:n1] if switching else phi
        s = 0.0
        for t_i, p_i in zip(theta, phi if et else phi1):
            s += t_i * p_i
        u_k = (ref[k + d] - s) / theta[-1]
        phi.append(u_k)
        R2.append(phi)
        if switching:
            phi1.append(u_k)
            R1.append(phi1)
        if et_next != et:
            p += 1
            if et:
                switches.append((k, "ET->TT", p))
                memory, theta1, hold = theta2, zero1, 0
                TH1[-M1:] = theta1
            else:
                switches.append((k, "TT->ET", p))
                theta2, hold = (zero2, 0) if p == 1 else (memory, hold_len)
                TH2[-M2:] = theta2
            et = et_next
        U.append(u_k)
        acc = 0.0
        for a_l, y_l in zip(a, phi):
            acc -= a_l * y_l
        for b_l, u_l in zip(b, U[ou + k + 1 - d: ou + k - d - m2: -1]):
            acc += b_l * u_l
        acc += D[d2 + k + 1 - d]
        if not abs(acc) <= DIVERGENCE_LIMIT:  # nan included
            status, value = SIM_DIVERGED, acc
            break
        Y.append(acc)
    return LoopRun(
        status=status, k_stop=k if status else T, T=T, y=Y[oy:], u=U[ou:], e=E, eps=EPS, et=ET,
        switches=switches, theta_rows=(TH1, TH2) if switching else (TH1,),
        phi_rows=(R1, R2) if switching else (R1,), value=value,
    )


def simulate_fixed_delay(a, b, d, gamma, theta0, yref_ext, dist, y_init, u_init, adapt_updates):
    """The pinned ``adaptive_loop`` at delay d over T = len(yref_ext) - d samples.

    Args:
        theta0: (M,) initial estimate, M = m1 + m2 + d; last element divides.
        yref_ext: (T+d,) reference with lookahead.
        dist: disturbance amplitudes by sample, D(0), D(1), ...
        adapt_updates: False freezes theta (reference-model runs).

    Returns:
        (status, k_stop, y, u, eps, theta_hist, Phi_hist) where y has length
        T+1, u/eps length T, theta_hist is (T, M) with the estimate after the
        sample-k update, and Phi_hist is (T+d, M) holding the regressor for
        time k at row k+d (rows below d are the pre-start regressors).  Rows
        past k_stop stay zero; a diverging output is not stored in y.  A
        stopped sample keeps its eps and estimate, and on a divergence its u
        and regressor.
    """
    M = np.shape(theta0)[0]
    if M != np.shape(a)[0] + np.shape(b)[0] - 1 + d:
        raise ValueError(f"theta0 has {M} elements; delay {d} needs m1 + m2 + d")
    dist = np.asarray(dist, dtype=float)
    nz = np.flatnonzero(dist)
    run = adaptive_loop(a, b, yref_ext, zip(nz.tolist(), dist[nz].tolist()), y_init, u_init,
                        (theta0,), (gamma,), updates=adapt_updates)
    T, n = run.T, len(run.eps)
    y, u, eps = np.zeros(T + 1), np.zeros(T), np.zeros(T)
    y[: len(run.y)] = run.y
    u[: len(run.u)] = run.u
    eps[:n] = run.eps
    theta_hist, Phi_hist = np.zeros((T, M)), np.zeros((T + d, M))
    theta_hist[:n] = np.reshape(run.theta_rows[0], (n, M))
    Phi_hist[: len(run.phi_rows[0])] = run.phi_rows[0]
    status = SIM_ZERO_DIVISOR if run.status == SIM_GUARD_BROKEN else run.status
    return status, run.k_stop, y, u, eps, theta_hist, Phi_hist

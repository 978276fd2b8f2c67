"""The closed adaptive loop, and its formulas one sample at a time.

``adaptive_loop`` is the one whole-horizon engine, on Python floats and
lists, with two policies: pinned (one estimate at one delay: the fixed
protocol, and with updates off a loop frozen at its initial estimate) and
switching (one application's TT/ET loop).  Its samples run in straight-line
code that ``_loop_source`` writes from one template per shape (m1, m2, the
delays, the policy, updates on or off) and ``_loop_kernel`` compiles at the
shape's first run and caches.  ``simulate_fixed_delay`` returns pinned runs as
float64 arrays.  ``dot``, ``gradient_update`` and ``control_output`` compute
the same formulas on float64 arrays for the per-sample reference loop.
Every sum runs in a fixed order, with no BLAS reduction, so (config, seed)
gives the same bytes on every run.
"""

from __future__ import annotations

import functools
import linecache
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
    ``et`` and ``eps`` always, its estimates after the update, and on
    a divergence also its regressors, ``u``, its switch (estimates reset)
    and the diverging output in ``value``.  ``y`` holds y(0), y(1), ... up
    to the output the last sample read.
    """

    status: int
    k_stop: int  # the stopping sample, T when the run completed
    T: int
    y: list
    u: list
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
    theta1, theta2 = _floats(thetas[0]), _floats(thetas[-1])
    d1, d2 = len(theta1) - m1 - m2, len(theta2) - m1 - m2
    T = max(len(ref) - d2, 0)
    D = [0.0] * (T + 1 + d2)  # D[t + d2] = D(t)
    for t, v in impulses:
        if -d2 <= t <= T:
            D[t + d2] = float(v)
    # ys[i] = y(-i) and us[j] = u(-1-j), zero before the initial conditions
    ys = (_floats(y_init) + [0.0] * (m1 + d2))[: m1 + d2]
    us = (_floats(u_init) + [0.0] * (m2 + 2 * d2))[: m2 + 2 * d2]
    # Phi(t) at delay d = (y(t)..y(t-m1+1), u(t-1)..u(t-m2-d+1), u(t)), at R[t + d]
    R1, R2 = ([ys[-t: -t + m1] + us[-t: -t + m2 + d - 1] + [us[-t - 1]] for t in range(-d, 0)]
              for d in (d1, d2))
    return _loop_kernel(m1, m2, d1, d2, len(thetas) == 2, bool(updates))(
        a, b, ref, D, ys, us, R1, R2, theta1, theta2, float(gammas[0]), float(gammas[-1]), eth, T)


# The template of every loop kernel.  Per sample the regressor entries are
# locals, rolled forward after the plant step: y0 = y(k), y1 = y(k-1), ...,
# u1 = u(k-1), ..., and uk = u(k); so are the estimates t1_j and t2_j and
# theta2's memory mem_j.  Every sum is written out term by term from 0.0.
# _SAMPLE is one sample of estimate i at delay d; the switching kernel runs
# it for theta2 under ``if et`` and for theta1 under ``else``, and each ends
# in the reset rule of its direction.
_LOOP = """\
def loop(a, b, ref, D, ys, us, R1, R2, theta1, theta2, gamma1, gamma2, eth, T):
{unpack}
    Y, U, EPS, ET, TH1, TH2, switches = [y0], [], [], [], [], [], []
    status, k_stop, value, hold, p, et = SIM_OK, T, None, 0, 0, False
    for k in range(T):
{sample}
{record}
        U.append(uk)
        if not abs(acc) <= DIVERGENCE_LIMIT:  # nan included
            status, k_stop, value = SIM_DIVERGED, k, acc
            break
        Y.append(acc)
{roll}
    return LoopRun(status, k_stop, T, Y, U, EPS, {et}, switches, {rows}, value)
"""
_SWITCHING = """\
ET.append(et)
et_next = abs(y0 - ref[k]) <= eth
if et:
{et}
else:
{tt}"""
_SAMPLE = """\
{lag} = R{i}[k]
eps = y0 - ({lag_dot})
EPS.append(eps)
{update}
if abs({last}) < ZERO_FLOOR:
{record}
    status, k_stop = {stop}, k
    break
uk = (ref[k + {d}] - ({phi_dot})) / {last}
acc = 0.0{plant} + D[k + {dk}]
{rows}
{reset}"""
_UPDATE = """\
before = {last}
{when}:
    denom = 1.0 + ({lag_norm})
    gain = gamma{i} if abs({last} + {lag_last} * eps / denom) < ZERO_FLOOR else 1.0
{step}"""
# the reset rules: entering TT zeroes theta1 and keeps theta2 as its memory;
# the first entry into ET zeroes theta2, a later one restores the memory and
# holds theta2's updates for the next m2 + d2 - 1 ET samples
_TO_TT = """\
if not et_next:
    p += 1
    switches.append((k, "ET->TT", p))
    {mem} = {t2}
    {t1}, hold, et = {zeros1}, 0, False"""
_TO_ET = """\
if et_next:
    p += 1
    switches.append((k, "TT->ET", p))
    if p == 1:
        {t2}, hold, et = {zeros2}, 0, True
    else:
        {t2}, hold, et = {mem}, {hold}, True"""


def _indent(text: str, spaces: int) -> str:
    return "".join(" " * spaces + line for line in text.splitlines(True))


def _tuple(names: list) -> str:
    return ", ".join(names) + ("," if len(names) == 1 else "")


def _sum(terms) -> str:
    return " + ".join(["0.0"] + [f"{x} * {y}" for x, y in terms])


def _loop_source(m1: int, m2: int, d1: int, d2: int, switching: bool, updates: bool) -> str:
    """The source of one shape's kernel; only these ints enter it."""
    ys = [f"y{i}" for i in range(max(m1, 1))]
    us = [f"u{j}" for j in range(1, m2 + d2)]  # u(k-1), ..., u(k-m2-d2+1)
    est = {i: [f"t{i}_{j}" for j in range(m1 + m2 + d)] for i, d in ((1, d1), (2, d2))}
    mem = [f"mem_{j}" for j in range(len(est[2]))]
    estimates = [(1, d1), (2, d2)][: 1 + switching]
    record = "\n".join(f"TH{i} += ({_tuple(est[i])})" for i, _d in estimates)
    names = dict(t1=", ".join(est[1]), t2=", ".join(est[2]), mem=", ".join(mem), hold=m2 + d2 - 1,
                 zeros1=", ".join(["0.0"] * len(est[1])), zeros2=", ".join(["0.0"] * len(est[2])))

    def sample(i, d, when, reset):
        t, lag = est[i], [f"l{j}" for j in range(len(est[i]))]
        phi = ys[:m1] + us[: m2 + d - 1]  # Phi(k) without u(k)
        plant = [f" - a{l} * {y}" for l, y in enumerate(ys[:m1])]
        plant += [f" + b{l} * {u}" for l, u in enumerate((["uk"] + us)[d - 1: d + m2])]
        fields = dict(i=i, d=d, dk=d2 + 1 - d, last=t[-1], lag=_tuple(lag), lag_last=lag[-1], when=when,
                      lag_dot=_sum(zip(t, lag)), lag_norm=_sum(zip(lag, lag)), phi_dot=_sum(zip(t, phi)),
                      plant="".join(plant), record=_indent(record, 4), reset=reset.format(**names),
                      stop="SIM_ZERO_DIVISOR if abs(before) < ZERO_FLOOR else SIM_GUARD_BROKEN"
                      if updates else "SIM_ZERO_DIVISOR",
                      step="\n".join(f"    {x} = {x} + gain * {l} * eps / denom" for x, l in zip(t, lag)),
                      rows="\n".join(f"R{j}.append([{', '.join(ys[:m1] + us[: m2 + dj - 1] + ['uk'])}])"
                                     for j, dj in estimates[::-1]))
        fields["update"] = _UPDATE.format(**fields) if updates else ""
        return _SAMPLE.format(**fields)

    if switching:
        body = _SWITCHING.format(
            et=_indent(sample(2, d2, f"if hold > 0:\n    hold -= 1\nelif et_next or abs({est[2][-1]}) < ZERO_FLOOR",
                              _TO_TT), 4),
            tt=_indent(sample(1, d1, f"if not et_next or abs({est[1][-1]}) < ZERO_FLOOR", _TO_ET), 4))
    else:
        body = sample(1, d1, "if True", "")
    unpack = [f"{_tuple(targets)} = {source}" for targets, source in (
        ([f"a{l}" for l in range(m1)], "a"), ([f"b{l}" for l in range(m2 + 1)], "b"),
        (ys, f"ys[:{len(ys)}]"), (us, f"us[:{len(us)}]"), (est[1], "theta1"),
        (est[2] if switching else [], "theta2"), (mem if switching else [], "theta2")) if targets]
    roll = [f"{', '.join(x[::-1])} = {', '.join(x[-2::-1] + [new])}" for x, new in ((ys, "acc"), (us, "uk")) if x]
    source = _LOOP.format(unpack=_indent("\n".join(unpack), 4), sample=_indent(body, 8),
                          record=_indent(record, 8), roll=_indent("\n".join(roll), 8),
                          et="ET" if switching else "[False] * len(EPS)",
                          rows="(TH1, TH2), (R1, R2)" if switching else "(TH1,), (R1,)")
    return "".join(line for line in source.splitlines(True) if line.strip())


@functools.cache
def _loop_kernel(m1: int, m2: int, d1: int, d2: int, switching: bool, updates: bool):
    """The kernel of one shape, compiled at its first run and kept.  Its
    source is registered with ``linecache``, so tracebacks show its lines."""
    source = _loop_source(m1, m2, d1, d2, switching, updates)
    name = (f"<adaptive_loop m1={m1} m2={m2} d1={d1} d2={d2}"
            f" {'switching' if switching else 'pinned'}{'' if updates else ' frozen'}>")
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = dict(globals())  # the constants and LoopRun
    exec(compile(source, name, "exec"), namespace)
    return namespace["loop"]


def simulate_fixed_delay(a, b, d, gamma, theta0, yref_ext, dist, y_init, u_init, adapt_updates):
    """The pinned ``adaptive_loop`` at delay d over T = len(yref_ext) - d samples.

    Args:
        theta0: (M,) initial estimate, M = m1 + m2 + d; last element divides.
        yref_ext: (T+d,) reference with lookahead.
        dist: disturbance amplitudes by sample, D(0), D(1), ...
        adapt_updates: False freezes theta at theta0.

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

"""The fixed-delay loop on Python floats against the numpy-scalar loop it
replaced.

``reference_fixed_delay`` below is that loop as it was, indexing float64
arrays one scalar at a time; the float-list ``kernels.simulate_fixed_delay``
must return the same seven outputs byte for byte, on clean runs and on every
abort path.  ``run_scenario`` runs the fixed protocol on the engine itself,
so its trace columns, row counts, status and estimate norms are checked
against the same loop.
"""

import numpy as np
import pytest

from adaptbus import kernels
from adaptbus.harness import parse_config, run_scenario
from adaptbus.kernels import DIVERGENCE_LIMIT, SIM_DIVERGED, SIM_OK, SIM_ZERO_DIVISOR, ZERO_FLOOR
from adaptbus.plant import PlantModel


def _dot(x, y):
    s = 0.0
    for i in range(x.shape[0]):
        s += x[i] * y[i]
    return s


def reference_fixed_delay(a, b, d, gamma, theta0, yref_ext, dist, y_init, u_init, adapt_updates):
    m1 = a.shape[0]
    m2 = b.shape[0] - 1
    M = m1 + m2 + d
    T = yref_ext.shape[0] - d
    py = m1 + 1
    pu = m2 + 2 * d + 1
    yb = np.zeros(py + T + 1)
    ub = np.zeros(pu + T)
    for i in range(y_init.shape[0]):
        yb[py - i] = y_init[i]
    for i in range(u_init.shape[0]):
        if pu - 1 - i >= 0:
            ub[pu - 1 - i] = u_init[i]

    y = np.zeros(T + 1)
    u = np.zeros(T)
    eps = np.zeros(T)
    theta_hist = np.zeros((T, M))
    Phi_hist = np.zeros((T + d, M))
    theta = theta0.copy()

    # pre-start regressors Phi(-d .. -1) from the initial conditions
    for t in range(-d, 0):
        row = t + d
        col = 0
        for i in range(m1):
            Phi_hist[row, col] = yb[py + t - i]
            col += 1
        for jj in range(1, m2 + d):
            Phi_hist[row, col] = ub[pu + t - jj]
            col += 1
        Phi_hist[row, col] = ub[pu + t]

    status = SIM_OK
    k_stop = T
    y[0] = yb[py]
    for k in range(T):
        y_k = yb[py + k]
        # update from the d-lagged regressor
        eps_k = y_k - _dot(theta, Phi_hist[k])
        if adapt_updates:
            denom = 1.0 + _dot(Phi_hist[k], Phi_hist[k])
            cand = theta[M - 1] + Phi_hist[k, M - 1] * eps_k / denom
            aa = 1.0
            if abs(cand) < ZERO_FLOOR:
                aa = gamma
            for i in range(M):
                theta[i] = theta[i] + aa * Phi_hist[k, i] * eps_k / denom
        eps[k] = eps_k
        for i in range(M):
            theta_hist[k, i] = theta[i]
        # control
        if abs(theta[M - 1]) < ZERO_FLOOR:
            status = SIM_ZERO_DIVISOR
            k_stop = k
            break
        s = 0.0
        col = 0
        for i in range(m1):
            s += theta[col] * yb[py + k - i]
            col += 1
        for jj in range(1, m2 + d):
            s += theta[col] * ub[pu + k - jj]
            col += 1
        u_k = (yref_ext[k + d] - s) / theta[M - 1]
        u[k] = u_k
        ub[pu + k] = u_k
        # store Phi(k)
        col = 0
        for i in range(m1):
            Phi_hist[k + d, col] = yb[py + k - i]
            col += 1
        for jj in range(1, m2 + d):
            Phi_hist[k + d, col] = ub[pu + k - jj]
            col += 1
        Phi_hist[k + d, col] = u_k
        # plant step with input delay d
        acc = 0.0
        for l in range(1, m1 + 1):
            acc -= a[l - 1] * yb[py + k + 1 - l]
        for l in range(0, m2 + 1):
            acc += b[l] * ub[pu + k + 1 - d - l]
        td = k + 1 - d
        if 0 <= td < dist.shape[0]:
            acc += dist[td]
        if not np.isfinite(acc) or abs(acc) > DIVERGENCE_LIMIT:
            status = SIM_DIVERGED
            k_stop = k
            yb[py + k + 1] = acc
            break
        yb[py + k + 1] = acc
        y[k + 1] = acc
    return status, k_stop, y, u, eps, theta_hist, Phi_hist


PLANTS = {
    "gain": PlantModel(a=np.array([]), b=np.array([0.25])),
    "first_order": PlantModel(a=np.array([-0.5]), b=np.array([1.0, 0.3])),
    # the plant of configs/fixed_tt.json and configs/fixed_et.json
    "second_order": PlantModel(a=np.array([-1.1, 0.3]), b=np.array([1.2, 0.36])),
}
T = 120


def _inputs(model, d, *, beta0=0.5, init=False, frozen=False, impulses=None, ref=None):
    k = np.arange(T + d)
    yref = np.sin(0.35 * k) + 0.5 if ref is None else ref
    dist = np.zeros(T + 1)
    for t, amplitude in (impulses or {}).items():
        dist[t] = amplitude
    if frozen:
        theta0 = model.true_theta(d)
    else:
        theta0 = np.zeros(model.m1 + model.m2 + d)
        theta0[-1] = beta0
    y_init = np.linspace(0.3, -0.2, max(model.m1, 1)) if init else np.zeros(0)
    u_init = np.linspace(0.2, -0.1, model.m2 + d) if init else np.zeros(0)
    return model.a, model.b, d, 0.5, theta0, yref, dist, y_init, u_init, not frozen


def _ref_with(d, at, *values):
    ref = np.full(T + d, 1.0)
    ref[at: at + len(values)] = values
    return ref


CASES = {}
for name, model in PLANTS.items():
    for d in (1, 2, 3):
        CASES[f"{name}-d{d}"] = (model, d, {})
        CASES[f"{name}-d{d}-initial_conditions"] = (model, d, {"init": True})
        CASES[f"{name}-d{d}-frozen"] = (model, d, {"frozen": True, "init": True})
        CASES[f"{name}-d{d}-disturbance_at_0_and_T"] = (model, d, {"impulses": {0: 0.7, T: 0.7}})
        CASES[f"{name}-d{d}-zero_divisor_at_0"] = (model, d, {"beta0": 0.0})
        CASES[f"{name}-d{d}-divergence"] = (model, d, {"impulses": {60: 1e13}})
# two infinite reference values in a row: u(50) = inf, then inf - inf gives a nan
# u(51) before u(50) reaches the plant at sample 51
CASES["second_order-d2-nan_from_infinite_reference"] = (
    PLANTS["second_order"], 2, {"ref": _ref_with(2, 52, np.inf, np.inf)})
CASES["gain-d1-infinite_reference"] = (PLANTS["gain"], 1, {"ref": _ref_with(1, 30, np.inf)})
CASES["first_order-d1-nan_reference"] = (PLANTS["first_order"], 1, {"ref": _ref_with(1, 30, np.nan)})
CASES["gain-d3-zero_divisor_with_u_init"] = (PLANTS["gain"], 3, {"beta0": 0.0, "init": True})


def _run(kernel, model, d, opts):
    return kernel(*_inputs(model, d, **opts))


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_the_numpy_scalar_loop(case):
    model, d, opts = CASES[case]
    st, k_stop, *arrays = _run(kernels.simulate_fixed_delay, model, d, opts)
    with np.errstate(invalid="ignore"):
        ref_st, ref_k_stop, *ref_arrays = _run(reference_fixed_delay, model, d, opts)
    assert (st, k_stop) == (ref_st, ref_k_stop)
    for got, want in zip(arrays, ref_arrays):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_cases_reach_every_path():
    """The case table covers clean runs, both abort kinds, a nan and a zero divisor at k = 0."""
    outcomes = {}
    for case, (model, d, opts) in CASES.items():
        st, k_stop, _y, u, *_ = _run(kernels.simulate_fixed_delay, model, d, opts)
        outcomes[case] = (st, k_stop, bool(np.isnan(u).any()))
    assert outcomes["second_order-d2-nan_from_infinite_reference"] == (SIM_DIVERGED, 51, True)
    assert outcomes["first_order-d1-nan_reference"][0] == SIM_DIVERGED
    assert outcomes["gain-d1-infinite_reference"][:2] == (SIM_DIVERGED, 29)
    for name in PLANTS:
        for d in (1, 2, 3):
            assert outcomes[f"{name}-d{d}"][0] == SIM_OK
            assert outcomes[f"{name}-d{d}-frozen"][0] == SIM_OK
            assert outcomes[f"{name}-d{d}-zero_divisor_at_0"][:2] == (SIM_ZERO_DIVISOR, 0)
            assert outcomes[f"{name}-d{d}-divergence"][0] == SIM_DIVERGED


def _fixed_scenario(d, app0, app1):
    """Two apps under the fixed protocol at delay d, with per-app changes."""
    return {
        "name": "fixed engine", "horizon": T, "seed": 1, "protocol": {"kind": "fixed", "d": d},
        "plants": [dict({"a": [-0.5], "b": [1.0, 0.3]}, **app0),
                   dict({"a": [-1.1, 0.3], "b": [1.2, 0.36]}, **app1)],
        "reference": {"type": "sinusoid", "components": [{"amplitude": 1.0, "omega": 0.35, "phase": 0.0}]},
        "gammas": [0.3, 0.7],
        "beta0_init": 0.5,
    }


DIVERGING = {"disturbance": {"times": [60], "amplitudes": 1e13, "t_dw": 5}}
ZERO_DIVISOR = {"beta0_init": 1e-310}  # below ZERO_FLOOR: the run stops at sample 0
# name: per-delay (app 0 changes, app 1 changes)
SCENARIOS = {
    "clean": lambda d: ({}, {"disturbance": {"times": [0, 40], "amplitudes": [0.7, -0.4], "t_dw": 5}}),
    "divergence": lambda d: ({}, DIVERGING),
    "zero_divisor": lambda d: ({}, ZERO_DIVISOR),
    # both apps stop; the status names each, in app order
    "divergence_then_zero_divisor": lambda d: (DIVERGING, ZERO_DIVISOR),
    "initial_conditions": lambda d: ({"y_init": [0.4]}, {"y_init": [0.3, -0.1],
                                                        "u_init": [0.2, -0.1, 0.05, 0.1][:1 + d]}),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_scenario_matches_the_numpy_scalar_loop(name, d):
    cfg = parse_config(_fixed_scenario(d, *SCENARIOS[name](d)))
    trace = run_scenario(cfg)
    (gamma,) = cfg.gammas
    stops = []
    for i, (spec, app, summary) in enumerate(zip(cfg.plants, trace.apps, trace.summary["apps"])):
        model = spec.model
        yref = cfg.reference.sequence(T + d, spec.phase_offset)
        dist = spec.train.dense(T + 1)
        theta0 = np.zeros(model.m1 + model.m2 + d)
        theta0[-1] = spec.beta0_init
        st, k_stop, y, u, eps, theta_hist, _Phi = reference_fixed_delay(
            model.a, model.b, d, gamma, theta0, yref, dist, np.asarray(spec.y_init, dtype=float),
            np.asarray(spec.u_init, dtype=float), True)
        n = T if st == SIM_OK else k_stop
        if st != SIM_OK:
            stops.append(f"{'diverged' if st == SIM_DIVERGED else 'zero divisor'}: app {i} at sample {k_stop}")
        assert len(app.columns["k"]) == n
        for col, want in (("y", y[:n]), ("u", u[:n]), ("eps", eps[:n]), ("e", y[:n] - yref[:n])):
            assert app.columns[col].dtype == want.dtype and app.columns[col].tobytes() == want.tobytes(), col
        norms = np.linalg.norm(theta_hist[:n], axis=1)
        assert summary["max_theta_norm"] == (float(np.max(norms)) if n else 0.0)
    assert trace.status == ("; ".join(stops) or "ok")
    if name != "clean" and name != "initial_conditions":
        assert stops

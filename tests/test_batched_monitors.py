"""The monitor columns of a switching run, computed after the run over whole
columns, against their per-sample definitions: ``ReferenceModel.step``,
``GramWindow.report``, ``lyapunov``, ``signal_error`` and
``orthogonality_residual``, applied sample by sample to the estimates and
regressors that each app's switching loop (``kernels.adaptive_loop``)
recorded.

The tolerances were fixed before the batched code was written: the float
columns agree within 1e-12 x (1 + max |column|), rank at >= 99.9% of the
samples and alpha_hat within a relative 1e-6 wherever rank agrees.
"""

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from adaptbus import harness
from adaptbus.adapt import ParameterEstimate
from adaptbus.excitation import GramWindow, orthogonality_residual
from adaptbus.harness import MONITOR_FIELDS, SIM_FIELDS, parse_config, run_scenario
from adaptbus.kernels import LoopRun
from adaptbus.netbus import Mode
from adaptbus.plant import DisturbanceTrain, PlantModel
from adaptbus.supervisor import (
    DisturbanceInverseFilter,
    DualEstimates,
    ReferenceModel,
    equivalent_reference,
    lyapunov,
    signal_error,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FLOAT_TOL = 1e-12
RANK_SHARE = 0.999
ALPHA_RTOL = 1e-6


def _bundled(name):
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


SCENARIOS = {
    "switching_1app": lambda: _bundled("switching_1app"),
    "switching_1app_quiet": lambda: _bundled("switching_1app_quiet"),
    "switching_3app": lambda: _bundled("switching_3app"),
    # plants of every order, initial conditions and per-app impulse trains
    "multi_app_impulses": lambda: {
        "name": "multi-app with impulses",
        "horizon": 1500,
        "seed": 4,
        "protocol": {"kind": "switching", "d2": 3, "eth": 0.05},
        "plants": [
            {"a": [], "b": [0.2],
             "disturbance": {"times": [300, 900], "amplitudes": 1.0, "t_dw": 400}},
            {"a": [-0.5], "b": [0.3], "y_init": [0.4], "u_init": [0.1, -0.2],
             "disturbance": {"times": [500, 1100], "amplitudes": -0.7, "t_dw": 400}},
            {"a": [-1.1, 0.3], "b": [1.2, 0.36],
             "disturbance": {"times": [700], "amplitudes": 0.5, "t_dw": 400}},
        ],
        "reference": {"type": "constant", "level": 1.5},
        "beta0_init": 0.5,
    },
    # the first error is inside eth, so the app enters ET at k = 1 with a
    # zeroed estimate and aborts at sample 2
    "aborted": lambda: {
        "name": "aborted",
        "horizon": 200,
        "seed": 1,
        "protocol": {"kind": "switching", "d2": 3, "eth": 0.05},
        "plants": [{"a": [], "b": [0.25]}],
        "reference": {"type": "constant", "level": 2.0},
        "beta0_init": 0.25,
    },
}


class Recorded(NamedTuple):
    """One app's loop run and the inputs it ran on."""

    run: LoopRun
    model: PlantModel
    yref: np.ndarray
    train: DisturbanceTrain
    y_init: tuple
    u_init: tuple


def per_sample_monitors(rec: Recorded, n: int, rank_tol: float) -> dict:
    """The monitor columns of the first n samples as the per-sample
    definitions give them."""
    run, model = rec.run, rec.model
    theta1_hist, theta2_hist = run.theta_rows
    Phi1_hist, Phi2_hist = run.phi_rows
    M2 = theta2_hist.shape[1]
    d2 = M2 - model.m1 - model.m2
    ts1, ts2 = model.true_theta(1), model.true_theta(d2)
    filt = DisturbanceInverseFilter(model)
    yp = [equivalent_reference(rec.yref[j], rec.train.value(j), filt) for j in range(n + d2)]
    # the ideal models start from the loop's initial conditions
    rm1, rm2 = (ReferenceModel(model, d, rec.y_init, rec.u_init) for d in (1, d2))
    gram = GramWindow(M2, window_len=8 * M2)
    out = {name: [] for name in MONITOR_FIELDS}
    v_prev = None
    for k in range(n):
        mode = Mode.ET if run.et[k] else Mode.TT
        star1, star2 = rm1.step(yp[k + 1]), rm2.step(yp[k + d2])
        Phi1, Phi2 = Phi1_hist[k + 1], Phi2_hist[k + d2]
        Phi, star = (Phi1, star1) if mode == Mode.TT else (Phi2, star2)
        theta1, theta2 = theta1_hist[k], theta2_hist[k]
        duals = DualEstimates(theta1=ParameterEstimate(theta1), theta2=ParameterEstimate(theta2),
                              theta2_memory=theta2.copy())
        V, dV = lyapunov(duals, ts1, ts2, mode, v_prev)
        v_prev = V
        gram.push(Phi2)
        rep = gram.report(rank_tol) if len(gram) >= M2 else None
        out["yref_prime"].append(yp[k])
        out["V"].append(V)
        out["dV"].append(dV)
        out["phi_err"].append(signal_error(Phi[:-1], star[:-1]))
        out["rank"].append(rep.rank if rep else 0)
        out["alpha_hat"].append(rep.alpha_hat if rep else 0.0)
        out["ortho_res"].append(orthogonality_residual(ts2 - theta2, [Phi2]))
    return {name: np.asarray(v, dtype=int if name == "rank" else float) for name, v in out.items()}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    raw = SCENARIOS[request.param]()
    cfg = parse_config(raw)
    recs = []
    loop = harness._app_loop

    def kept(spec, yref, *args):
        recs.append(Recorded(harness._loop_arrays(loop(spec, yref, *args)), spec.model, yref, spec.train,
                             spec.y_init, spec.u_init))
        return recs[-1].run

    with pytest.MonkeyPatch.context() as mp:
        # keep the loop runs, whose recorded arrays the reference reads
        mp.setattr(harness, "_app_loop", kept)
        trace = run_scenario(cfg)
    blind = dict(raw, plants=[dict(p, oracle=False) for p in raw["plants"]])
    batched = [app.columns for app in trace.apps]
    return {
        "name": request.param, "recs": recs, "trace": trace, "batched": batched,
        "reference": [per_sample_monitors(rec, len(cols["k"]), cfg.tolerances["rank_tol"])
                      for rec, cols in zip(recs, batched)],
        "blind": run_scenario(parse_config(blind)),
    }


def test_scenarios_cover_the_cases(scenario):
    lengths = [rec.run.k_stop for rec in scenario["recs"]]
    assert lengths == [len(cols["k"]) for cols in scenario["batched"]]
    if scenario["name"] == "aborted":
        assert scenario["trace"].status.startswith("aborted at sample 2")
        assert lengths == [2]
    else:
        assert scenario["trace"].status == "ok"
        modes = np.concatenate([cols["mode"] for cols in scenario["batched"]])
        assert {"TT", "ET"} <= set(modes)


def test_oracle_leaves_the_simulation_unchanged(scenario):
    trace, blind = scenario["trace"], scenario["blind"]
    assert blind.status == trace.status
    for app, other in zip(trace.apps, blind.apps):
        assert len(app.columns["k"]) == len(other.columns["k"])
        for name in SIM_FIELDS:
            a, b = app.columns[name], other.columns[name]
            if a.dtype == object:
                assert list(a) == list(b), name
            else:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert list(other.columns["yref_prime"]) == list(other.columns["yref"])
        assert not other.columns["rank"].any() and not other.columns["V"].any()


def test_yref_prime_is_exact(scenario):
    for cols, ref in zip(scenario["batched"], scenario["reference"]):
        assert cols["yref_prime"].tobytes() == ref["yref_prime"].tobytes()


@pytest.mark.parametrize("name", ["V", "dV", "phi_err", "ortho_res"])
def test_float_columns_within_tolerance(scenario, name):
    for cols, ref in zip(scenario["batched"], scenario["reference"]):
        assert cols[name].shape == ref[name].shape
        if ref[name].size:
            scale = 1.0 + np.max(np.abs(ref[name]))
            assert np.max(np.abs(cols[name] - ref[name])) <= FLOAT_TOL * scale


def test_rank_and_alpha_hat(scenario):
    for cols, ref in zip(scenario["batched"], scenario["reference"]):
        same = cols["rank"] == ref["rank"]
        assert np.count_nonzero(same) >= RANK_SHARE * same.size
        np.testing.assert_allclose(cols["alpha_hat"][same], ref["alpha_hat"][same],
                                   rtol=ALPHA_RTOL, atol=0.0)


@pytest.mark.parametrize("protocol", [{"kind": "fixed", "d": 1}, {"kind": "fixed", "d": 2},
                                      {"kind": "switching", "d2": 2, "eth": 0.05}],
                         ids=["fixed_d1", "fixed_d2", "switching"])
def test_ideal_models_start_from_the_initial_conditions(protocol):
    """Every protocol starts its ideal models from the plant's y_init/u_init,
    so the regressors agree at k = 0, where only y(0) differs from zero."""
    raw = {
        "name": "initial output", "horizon": 50, "seed": 1, "protocol": protocol,
        "plants": [{"a": [-0.5], "b": [0.3], "y_init": [0.5]}],
        "reference": {"type": "constant", "level": 1.0},
    }
    trace = run_scenario(parse_config(raw))
    assert trace.status == "ok"
    assert trace.apps[0].columns["phi_err"][0] == 0.0


def _direct_alpha_error(Phi, rank, alpha, ks, rank_tol):
    """Worst relative alpha_hat error over samples ks against an eigvalsh of
    each window Gram summed on its own, with the same rank rule."""
    cap = 9 * Phi.shape[1]
    worst = 0.0
    for k in ks:
        window = Phi[max(0, k + 1 - cap): k + 1]
        w = np.linalg.eigvalsh(window.T @ window)[::-1]
        r = int(np.count_nonzero(w > rank_tol * max(w[0], 0.0)))
        assert rank[k] == r
        worst = max(worst, abs(alpha[k] - w[r - 1]) / w[r - 1])
    return worst


def test_windowed_rank_rounding_does_not_grow_with_the_run():
    """Near-collinear regressors, whose smallest window eigenvalue is a few
    millionths of the largest: the rounding of the last windows of a
    100k-sample run stays within 10x that of early windows."""
    rng = np.random.default_rng(3)
    T, rank_tol = 100_000, 1e-6
    Phi = np.array([2.5, 2.5, 10.0]) + 0.02 * rng.normal(size=(T, 3))
    rank, alpha = harness._windowed_rank(Phi, rank_tol)
    early = _direct_alpha_error(Phi, rank, alpha, range(1000, 1100), rank_tol)
    late = _direct_alpha_error(Phi, rank, alpha, range(T - 100, T), rank_tol)
    assert late <= 10 * early

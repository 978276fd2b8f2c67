"""The whole-horizon switching engine against the sample-by-sample loop it
replaces.

``per_sample_run`` is that loop: per sample, every app senses in priority
order, transmits on the bus, the bus cycle advances, and every app steps
through its ``AppSupervisor``.  ``run_scenario`` instead runs each app's loop
alone (``kernels.adaptive_loop``, called by ``harness._app_loop``) and
replays the bus afterwards.  The two must give the same bytes: simulation
columns, status, switch lists, bus deliveries and cycles, and the recorded
estimates and regressors, also when a run aborts part way through a sample.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from adaptbus import harness
from adaptbus.adapt import ZeroDivisorError
from adaptbus.harness import SIM_FIELDS, evaluate_monitors, parse_config, run_scenario
from adaptbus.kernels import SIM_OK
from adaptbus.netbus import BusCapacityError, BusState, advance_cycle, transmit
from adaptbus.plant import PlantDivergenceError
from adaptbus.supervisor import AppSupervisor

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
INT_COLUMNS = ("app", "k", "delay", "switch")


def per_sample_run(cfg):
    """(status, supervisors, bus state, cycle reports) of the sample-by-sample loop."""
    buscfg = cfg.bus_config()
    T = cfg.horizon
    sups = [AppSupervisor(
        app_id=i, model=spec.model, d2=buscfg.d2, eth=cfg.eth,
        yref=cfg.reference.sequence(T + buscfg.d2, spec.phase_offset), train=spec.train,
        gamma1=cfg.gammas[0], gamma2=cfg.gammas[1], beta0_init=spec.beta0_init,
        y_init=spec.y_init, u_init=spec.u_init,
    ) for i, spec in enumerate(cfg.plants)]
    state, reports = BusState(), []
    order = buscfg.priority_order()
    status = "ok"
    k = -1
    try:
        for k in range(T):
            for app in order:
                state.modes[app] = sups[app].sense(k)
            for app in order:
                transmit(state, buscfg, app, k)
            reports.append(advance_cycle(state, buscfg))
            for app in order:
                sups[app].supervise_step(k)
    except (PlantDivergenceError, BusCapacityError, ZeroDivisorError) as exc:
        status = f"aborted at sample {k}: {exc}"
    return status, sups, state, reports


def engine_run(cfg):
    """The trace of run_scenario and the loop run of every app."""
    runs = []
    loop = harness._app_loop

    def kept(*args, **kwargs):
        runs.append(harness._loop_arrays(loop(*args, **kwargs)))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_app_loop", kept)
        trace = run_scenario(cfg)
    return trace, runs


def _bundled(name, **changes):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw.update(changes)
    return raw


def _protocol(raw, **changes):
    return dict(raw, protocol=dict(raw["protocol"], **changes))


def _three_gains(middle, d2=3, **protocol):
    return {
        "name": "three gain plants",
        "horizon": 400,
        "seed": 3,
        "protocol": dict({"kind": "switching", "d2": d2, "eth": 0.05}, **protocol),
        "plants": [{"a": [], "b": [0.2]}, dict({"a": [], "b": [0.25]}, **middle), {"a": [], "b": [0.3]}],
        "reference": {"type": "constant", "level": 2.0},
        "beta0_init": 0.5,
    }


# name: (raw scenario, status prefix, rows per app)
CASES = {
    "switching_3app": (_bundled("switching_3app", horizon=1600), "ok", [1600] * 3),
    # the middle app's estimate equals its gain: it enters ET at k = 1 with a
    # zeroed divisor and aborts at sample 2, after the app ahead of it stepped
    "zero_divisor_middle": (_three_gains({"beta0_init": 0.25}), "aborted at sample 2: divisor", [3, 2, 2]),
    # the same abort while the error asks for a switch: the switch is not logged
    "zero_divisor_pending_switch": (
        _three_gains({"beta0_init": 0.25, "disturbance": {"times": [1], "amplitudes": 1.0, "t_dw": 1}}),
        "aborted at sample 2: divisor", [3, 2, 2]),
    "zero_divisor_reversed_priorities": (
        _three_gains({"beta0_init": 0.25}, dyn_priorities=[3, 2, 1]),
        "aborted at sample 2: divisor", [2, 2, 3]),
    "divergence": (
        _three_gains({"disturbance": {"times": [100], "amplitudes": 1e13, "t_dw": 50}}),
        "aborted at sample 102: plant output diverged", [103, 102, 102]),
    # the impulse at 300 asks for a switch at the sample that diverges
    "divergence_at_switch": (
        _three_gains({"disturbance": {"times": [300, 301], "amplitudes": [0.5, 1e13], "t_dw": 1}}, d2=2),
        "aborted at sample 302: plant output diverged", [303, 302, 302]),
    "bus_capacity": (_protocol(_bundled("switching_3app"), minislots_per_cycle=1),
                     "aborted at sample 2: app 1 message", [2, 2, 2]),
    "second_order_initial_conditions": ({
        "name": "one second-order app with initial conditions",
        "horizon": 1500,
        "seed": 3,
        "protocol": {"kind": "switching", "d2": 3, "eth": 0.05},
        "plants": [{"a": [-1.1, 0.3], "b": [1.2, 0.36], "y_init": [0.3, -0.1],
                    "u_init": [0.2, 0.1, -0.1, 0.05]}],
        "reference": {"type": "constant", "level": 2.0},
        "beta0_init": 0.5,
    }, "ok", [1500]),
    # two-minislot messages on a five-minislot segment: carried messages
    "carried_messages": ({
        "name": "carried messages",
        "horizon": 600,
        "seed": 3,
        "protocol": {"kind": "switching", "d2": 4, "eth": 0.05, "minislots_per_cycle": 5,
                     "message_minislots": 2},
        "plants": [{"a": [], "b": [0.1 + 0.05 * i],
                    "disturbance": {"times": [150 + 40 * i], "amplitudes": 1.0, "t_dw": 50}}
                   for i in range(4)],
        "reference": {"type": "constant", "level": 2.0},
        "beta0_init": 0.5,
    }, "ok", [600] * 4),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    raw, status, rows = CASES[request.param]
    cfg = parse_config(raw)
    trace, runs = engine_run(cfg)
    return {"name": request.param, "status": status, "rows": rows, "trace": trace, "runs": runs,
            "reference": per_sample_run(cfg)}


def test_case_reaches_its_abort(case):
    trace = case["trace"]
    assert trace.status.startswith(case["status"])
    assert [len(app.columns["k"]) for app in trace.apps] == case["rows"]
    if case["name"] == "bus_capacity":
        # every send at sample 2 stays logged with the arrival the walk gives
        # it; app 1's is past k + d2 - 1 = 3
        assert [(d[0], d[4]) for d in trace.bus["deliveries"] if d[1] == 2] == [(0, 3), (1, 4), (2, 5)]
        assert len(trace.bus["cycles"]) == 2
    if case["name"] == "divergence_at_switch":
        assert trace.apps[1].switches[-1][0] == 302
    if case["name"] == "zero_divisor_pending_switch":
        assert [ev[0] for ev in trace.apps[1].switches] == [1]
    if case["name"] == "carried_messages":
        assert any(cycle["carried"] for cycle in trace.bus["cycles"])


def test_carried_messages_arrive_by_their_deadline():
    cfg = parse_config(CASES["carried_messages"][0])
    trace = run_scenario(cfg)
    assert trace.status == "ok"
    assert any(cycle["carried"] for cycle in trace.bus["cycles"])
    et = [(k, arrival) for _app, k, mode, _delivery, arrival in trace.bus["deliveries"] if mode == "ET"]
    assert max(arrival - k for k, arrival in et) == cfg.bus_config().d2 - 1
    report = evaluate_monitors(trace, cfg)
    assert [r.passed for r in report.results if r.name == "bus_delay_dichotomy"] == [True]


def test_status_and_bus_match_the_per_sample_loop(case):
    status, _sups, state, reports = case["reference"]
    trace = case["trace"]
    assert trace.status == status
    assert trace.bus["deliveries"] == [list(dv) for dv in state.deliveries]
    assert trace.bus["cycles"] == [
        {"cycle": r.cycle, "consumed_minislots": r.consumed_minislots, "idle_slots": r.idle_slots,
         "transmissions": [[a, l] for a, l in r.transmissions], "carried": len(r.carried),
         "conserved": r.conserved}
        for r in reports
    ]


def test_columns_and_switches_match_the_per_sample_loop(case):
    _status, sups, _state, _reports = case["reference"]
    for app, sup, summary in zip(case["trace"].apps, sups, case["trace"].summary["apps"]):
        assert app.switches == [(ev.k, ev.direction, ev.p) for ev in sup.switch_log.events]
        for name in SIM_FIELDS:
            col, ref = app.columns[name], sup.rows[name]
            if name == "mode":
                assert col.dtype == object and list(col) == ref
            else:
                ref = np.asarray(ref, dtype=int if name in INT_COLUMNS else float)
                assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), name
        norms = sup.theta_norm_hist
        assert summary["max_theta_norm"] == (float(np.max(norms)) if len(norms) else 0.0)


def test_recorded_histories_match_the_supervisor(case):
    _status, sups, _state, _reports = case["reference"]
    for run, sup in zip(case["runs"], sups):
        n = len(sup.rows["k"])
        theta1, theta2 = run.theta_rows
        assert theta1[:n].tobytes() == sup.theta1_hist[:n].tobytes()
        assert theta2[:n].tobytes() == sup.theta2_hist[:n].tobytes()
        # the loop keeps the regressor rows it made; the supervisor's arrays
        # span the horizon and are zero past the run
        for mine, theirs, rows in ((run.phi_rows[0], sup.Phi1_hist, n + 1),
                                   (run.phi_rows[1], sup.Phi2_hist, n + sup.d2)):
            assert mine.shape[1] == theirs.shape[1] and rows <= len(mine) <= len(theirs)
            if run.status == SIM_OK:
                assert mine.shape == theirs.shape
            assert mine[:rows].tobytes() == theirs[:rows].tobytes()


"""Engine invariants that follow from the model, checked on seeded random
cases: minimum-phase plants of every shape from ``tests/test_loop_kernels.py``'s
case generator, random references, impulses and initial conditions.

- Switching whose threshold no error meets (eth = -1) never leaves TT, so it
  is the pinned d = 1 loop, byte for byte.
- With the estimate frozen at the true theta*(d) and no disturbance, the
  d-step-ahead control law makes y(k) = yref(k) for every k >= d.
- With the estimate frozen, the loop is linear: its output for a weighted sum
  of (reference, impulses, initial conditions) is the weighted sum of the
  outputs.
- Relabelling the apps, with their priorities permuted to match, permutes
  the bus log's app labels and changes nothing else.

Reference: Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018.
"""

import re

import numpy as np
import pytest

from adaptbus.harness import parse_config, run_scenario
from tests.test_loop_kernels import PINNED, SWITCHING, T, _bytes, _case, _run

DELAYS_1_TO_3 = [(m1, m2, d) for m1, m2, d in PINNED if d <= 3]
TRACK_TOL = 1e-12  # max |y(k) - yref(k)|, k >= d, over references of size about 2.5
LINEAR_TOL = 1e-9  # max |y - (a y1 + b y2)| relative to 1 + max |y|


@pytest.mark.parametrize("m1,m2,d2", SWITCHING)
def test_switching_below_every_error_is_the_pinned_tt_loop(m1, m2, d2):
    case = dict(_case(m1, m2, d2, "clean", switching=True), eth=-1.0)
    switching = _run(case, (1, d2))
    # the same horizon at d = 1: T = len(ref) - 1
    pinned = _run(dict(case, ref=case["ref"][: T + 1]), (1,))
    assert switching.switches == [] and not any(switching.et)
    assert (switching.status, switching.k_stop) == (pinned.status, pinned.k_stop)
    assert _bytes(switching.y) == _bytes(pinned.y)
    assert _bytes(switching.u) == _bytes(pinned.u)
    assert _bytes(switching.theta_rows[0]) == _bytes(pinned.theta_rows[0])


@pytest.mark.parametrize("m1,m2,d", DELAYS_1_TO_3)
def test_known_parameters_track_exactly(m1, m2, d):
    case = dict(_case(m1, m2, d, "frozen", switching=False), impulses={})
    run = _run(case, (d,))  # frozen at theta*(d)
    assert run.status == 0 and len(run.y) == T + 1
    err = np.abs(np.array(run.y[d:]) - case["ref"][d: T + 1])
    assert err.max() <= TRACK_TOL


def _padded(values, n):
    out = np.zeros(n)
    out[: len(values)] = values
    return out


@pytest.mark.parametrize("m1,m2,d", PINNED)
def test_frozen_loop_is_linear_in_its_inputs(m1, m2, d):
    first = _case(m1, m2, d, "frozen", switching=False)
    rng = np.random.default_rng([m1, m2, d, 99])
    # the second input keeps the plant; every other input is drawn anew
    second = dict(first, ref=rng.uniform(-2, 2, T + d), y_init=rng.uniform(-1, 1, max(m1, 1)),
                  u_init=rng.uniform(-1, 1, m2 + d), impulses=dict(zip((7, 60, 149), rng.uniform(-1, 1, 3))))
    a, b = 0.7, -1.3
    ny = max(len(first["y_init"]), len(second["y_init"]))
    nu = max(len(first["u_init"]), len(second["u_init"]))
    times = sorted(set(first["impulses"]) | set(second["impulses"]))
    both = dict(first, ref=a * first["ref"] + b * second["ref"],
                y_init=a * _padded(first["y_init"], ny) + b * _padded(second["y_init"], ny),
                u_init=a * _padded(first["u_init"], nu) + b * _padded(second["u_init"], nu),
                impulses={t: a * first["impulses"].get(t, 0.0) + b * second["impulses"].get(t, 0.0) for t in times})
    runs = [_run(case, (d,)) for case in (first, second, both)]
    assert all(run.status == 0 for run in runs)
    for name in ("y", "u"):
        y1, y2, y = (np.array(getattr(run, name)) for run in runs)
        assert np.max(np.abs(y - (a * y1 + b * y2))) <= LINEAR_TOL * (1.0 + np.max(np.abs(y)))


def _fleet(rng, n):
    """A switching scenario of n gain plants that know their gain, each with
    its own impulses and bus priority.  At d2 = 2 a message may not carry
    over, so a dynamic segment that is short of minislots aborts the run."""
    gains = rng.uniform(0.1, 0.3, n)
    plants = [{"a": [], "b": [float(b0)], "beta0_init": float(b0),
               "disturbance": {"times": sorted(rng.choice(np.arange(20, 380), 3, replace=False).tolist()),
                               "amplitudes": float(rng.uniform(0.5, 1.5)), "t_dw": 1}}
              for b0 in gains]
    length = int(rng.integers(1, 3))
    protocol = {"kind": "switching", "d2": 2, "eth": 0.05, "message_minislots": length,
                "minislots_per_cycle": int(rng.integers(n, length * n + 1)),
                "dyn_priorities": {str(i): int(p) for i, p in enumerate(rng.permutation(n) + 1)}}
    return {"horizon": 400, "seed": 0, "protocol": protocol, "plants": plants,
            "reference": {"type": "constant", "level": 2.0}}


def test_relabelled_apps_permute_the_bus_log():
    statuses = []
    for seed in range(10):
        rng = np.random.default_rng([seed, 4])
        raw = _fleet(rng, int(rng.integers(2, 6)))
        n = len(raw["plants"])
        label = rng.permutation(n)  # app i becomes app label[i]
        prios = raw["protocol"]["dyn_priorities"]
        relabelled = dict(raw, plants=[raw["plants"][i] for i in np.argsort(label)],
                          protocol=dict(raw["protocol"], dyn_priorities={str(label[i]): prios[str(i)]
                                                                          for i in range(n)}))
        trace, moved = run_scenario(parse_config(raw)), run_scenario(parse_config(relabelled))
        # a bus abort names the app whose message is late
        assert moved.status == re.sub(r"app (\d+)", lambda m: f"app {label[int(m[1])]}", trace.status)
        for name, col in trace.bus.items():
            assert np.array_equal(moved.bus[name], label[col] if name in ("app", "tx_app") else col), name
        for i, app in enumerate(trace.apps):
            assert moved.apps[label[i]].switches == app.switches
        statuses.append(trace.status)
    # the seeds reach both a completed run and a bus abort
    assert "ok" in statuses and any("would arrive" in status for status in statuses)

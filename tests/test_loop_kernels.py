"""The generated loop kernels against the per-sample oracles.

``kernels.adaptive_loop`` runs every loop in straight-line code generated
once per shape (m1, m2, the delays, the policy and whether the estimates
update).  Seeded random cases over m1 in 0..3, m2 in 0..2, pinned delays
1..4 and switching delays d2 in 2..4 compare every ``LoopRun`` field byte for
byte with a per-sample oracle: a pinned run with ``reference_fixed_delay``,
the numpy-scalar fixed-delay loop, and a switching run with an
``AppSupervisor`` stepped one sample at a time.  Each shape is driven to
every stop: zero divisor, guard broken, divergence and nan.
"""

import itertools
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import adaptbus
from adaptbus import adapt, kernels
from adaptbus.adapt import ZeroDivisorError
from adaptbus.kernels import SIM_DIVERGED, SIM_GUARD_BROKEN, SIM_OK, SIM_ZERO_DIVISOR, adaptive_loop
from adaptbus.plant import DisturbanceTrain, PlantDivergenceError
from adaptbus.supervisor import AppSupervisor
from tests.conftest import make_random_plant
from tests.test_fixed_engine import reference_fixed_delay

VARIANTS = ("clean", "frozen", "zero_divisor", "guard_broken", "divergence", "nan")
PINNED = list(itertools.product(range(4), range(3), range(1, 5)))
SWITCHING = list(itertools.product(range(4), range(3), range(2, 5)))
T = 150
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _case(m1, m2, d, variant, switching):
    """The inputs of one seeded case: d is the pinned delay or d2."""
    rng = np.random.default_rng([m1, m2, d, VARIANTS.index(variant), int(switching)])
    model = make_random_plant(rng, m1, m2)
    ref = rng.uniform(0.5, 2.0) + 0.5 * np.sin(rng.uniform(0.1, 1.0) * np.arange(T + d))
    y_init = rng.uniform(-1, 1, rng.integers(0, max(m1, 1) + 1 if switching else m1 + 2))
    u_init = rng.uniform(-1, 1, rng.integers(0, m2 + d + 1 if switching else m2 + 2 * d + 1))
    case = {"model": model, "ref": ref, "y_init": y_init, "u_init": u_init, "impulses": {},
            "beta0": rng.choice([-1, 1]) * rng.uniform(0.3, 2.0), "gammas": rng.uniform(0.1, 0.9, 2),
            "eth": 0.2, "updates": variant != "frozen"}
    if variant in ("clean", "frozen"):
        # impulses at both ends of the horizon, and two inside it
        case["impulses"] = dict(zip((0, 50, 100, T), rng.uniform(-1, 1, 4)))
    elif variant == "zero_divisor":
        # pinned: the divisor starts at zero and a zero regressor keeps it
        # there; switching: the first ET entry zeroes theta2 the same way
        case.update(u_init=np.zeros(0), beta0=0.0 if not switching else case["beta0"], eth=np.inf)
    elif variant == "guard_broken":
        # with gain 1 the guard's own step lands the divisor on zero at k = 0:
        # eps = -0.5 - 0.5 * 1, and 0.5 + 1 * eps / (1 + 1) = 0
        dl = 1 if switching else d
        case.update(y_init=np.array([-0.5]), u_init=np.eye(dl)[dl - 1], beta0=0.5, gammas=np.ones(2))
    # d impulses, or d reference values, in a row: a switch to a shorter
    # delay skips what the samples in between would have read
    elif variant == "divergence":
        case["impulses"] = dict.fromkeys(range(T // 2, T // 2 + d), 1e13)
    else:
        case["ref"][T // 2: T // 2 + d] = np.nan
    return case


def _run(case, delays):
    model = case["model"]
    thetas = [[0.0] * (model.m1 + model.m2 + d - 1) + [case["beta0"]] for d in delays]
    if len(delays) == 1 and case["updates"] is False:
        thetas = [model.true_theta(delays[0])]
    return adaptive_loop(model.a, model.b, case["ref"], case["impulses"].items(), case["y_init"],
                         case["u_init"], thetas, case["gammas"][: len(delays)], case["eth"], case["updates"])


def _plant_step(a, b, d, row, D):
    """y(k+1) from the regressor Phi(k) in row, in the plant step's order."""
    m1 = len(a)
    acc = 0.0
    for l in range(m1):
        acc -= a[l] * row[l]
    for l in range(len(b)):
        j = d - 1 + l  # u(k - j), u(k) last in the row
        acc += b[l] * (row[-1] if j == 0 else row[m1 + j - 1])
    return acc + D


def _pinned(m1, m2, d, variant):
    case = _case(m1, m2, d, variant, switching=False)
    model = case["model"]
    run = _run(case, (d,))
    dist = np.zeros(T + 1)
    for t, v in case["impulses"].items():
        dist[t] = v
    theta0 = (model.true_theta(d) if not case["updates"]
              else np.concatenate([np.zeros(model.m1 + model.m2 + d - 1), [case["beta0"]]]))
    with np.errstate(invalid="ignore"):
        want = reference_fixed_delay(model.a, model.b, d, case["gammas"][0], theta0, case["ref"], dist,
                                     case["y_init"], case["u_init"], case["updates"])
    return case, run, want


def _supervised(case, d2):
    """(stop status, k_stop, value, supervisor) of the per-sample loop."""
    model = case["model"]
    times = sorted(case["impulses"])
    sup = AppSupervisor(
        app_id=0, model=model, d2=d2, eth=case["eth"], yref=case["ref"],
        train=DisturbanceTrain(times=np.array(times, dtype=int),
                               amplitudes=np.array([case["impulses"][t] for t in times]), t_dw=1),
        gamma1=0.5, gamma2=0.5, beta0_init=case["beta0"], y_init=case["y_init"], u_init=case["u_init"])
    # an estimate rejects gain 1, which only the guard-broken case uses: it
    # stops at its first update, before an estimate with that gain is made
    for est, gamma in zip((sup.duals.theta1, sup.duals.theta2), case["gammas"]):
        object.__setattr__(est, "gamma", float(gamma))
    status, k, value = SIM_OK, T, None
    with pytest.MonkeyPatch.context() as mp:
        if not case["updates"]:
            mp.setattr(adapt, "update", lambda est, Phi, y_k: (est, y_k - float(kernels.dot(est.theta, Phi))))
        try:
            for k in range(T):
                sup.sense(k)
                sup.supervise_step(k)
        except PlantDivergenceError as exc:
            status, value = SIM_DIVERGED, exc.value
        except ZeroDivisorError as exc:
            status = SIM_GUARD_BROKEN if "despite the guard" in str(exc) else SIM_ZERO_DIVISOR
    return status, k if status else T, value, sup


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m1,m2,d", PINNED)
def test_pinned_kernel_matches_the_numpy_scalar_loop(m1, m2, d, variant):
    case, run, (status, k_stop, y, u, eps, theta_hist, Phi_hist) = _pinned(m1, m2, d, variant)
    assert (SIM_ZERO_DIVISOR if run.status == SIM_GUARD_BROKEN else run.status, run.k_stop) == (status, k_stop)
    n = len(run.eps)  # the samples the run read, the stopping one included
    assert n == (T if status == SIM_OK else k_stop + 1) and run.T == T
    assert len(run.y) == n + (status == SIM_OK) and _bytes(run.y) == y[: len(run.y)].tobytes()
    assert len(run.u) == n - (status == SIM_ZERO_DIVISOR) and _bytes(run.u) == u[: len(run.u)].tobytes()
    assert _bytes(run.eps) == eps[:n].tobytes()
    assert run.et == [False] * n and run.switches == []
    (theta_rows,), (phi_rows,) = run.theta_rows, run.phi_rows
    assert _bytes(theta_rows) == theta_hist[:n].tobytes()
    assert len(phi_rows) == d + len(run.u) and _bytes(phi_rows) == Phi_hist[: len(phi_rows)].tobytes()
    if status == SIM_DIVERGED:
        want = _plant_step(case["model"].a, case["model"].b, d, Phi_hist[k_stop + d],
                           case["impulses"].get(k_stop + 1 - d, 0.0))
        assert _bytes([run.value]) == _bytes([want])
    else:
        assert run.value is None


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m1,m2,d2", SWITCHING)
def test_switching_kernel_matches_the_supervisor(m1, m2, d2, variant):
    case = _case(m1, m2, d2, variant, switching=True)
    run = _run(case, (1, d2))
    status, k_stop, value, sup = _supervised(case, d2)
    assert (run.status, run.k_stop, run.T) == (status, k_stop, T)
    n = len(sup.rows["k"])  # completed samples
    assert len(run.eps) == n + (status != SIM_OK)
    assert _bytes(run.y) == _bytes(sup.rows["y"] + [sup.history.y_lag(0)])
    assert _bytes(run.eps[:n]) == _bytes(sup.rows["eps"])
    assert run.et[:n] == [mode == "ET" for mode in sup.rows["mode"]]
    assert run.switches == [(ev.k, ev.direction, ev.p) for ev in sup.switch_log.events]
    # a diverging sample keeps its input, regressors and estimates
    kept = n + (status == SIM_DIVERGED)
    assert _bytes(run.u) == _bytes(sup.rows["u"] + ([sup.Phi1_hist[n + 1][-1]] if status == SIM_DIVERGED else []))
    for rows, hist in zip(run.theta_rows, (sup.theta1_hist, sup.theta2_hist)):
        assert _bytes(rows[: kept * hist.shape[1]]) == hist[:kept].tobytes()
    for rows, hist, d in zip(run.phi_rows, (sup.Phi1_hist, sup.Phi2_hist), (1, d2)):
        assert len(rows) == d + kept and _bytes(rows) == hist[: d + kept].tobytes()
    if status == SIM_DIVERGED:
        assert _bytes([run.value]) == _bytes([value])
    else:
        assert run.value is None


def test_cases_reach_every_stop_and_the_hold():
    """Every shape reaches the stop its variant drives, and the clean
    switching cases re-enter ET (p >= 3) and so run the hold."""
    for m1, m2, d in PINNED:
        runs = {variant: _run(_case(m1, m2, d, variant, False), (d,)) for variant in VARIANTS}
        assert (runs["zero_divisor"].status, runs["zero_divisor"].k_stop) == (SIM_ZERO_DIVISOR, 0)
        assert (runs["guard_broken"].status, runs["guard_broken"].k_stop) == (SIM_GUARD_BROKEN, 0)
        assert runs["divergence"].status == SIM_DIVERGED
        assert runs["nan"].status == SIM_DIVERGED and np.isnan(runs["nan"].value)
    re_entries = 0
    for m1, m2, d2 in SWITCHING:
        runs = {variant: _run(_case(m1, m2, d2, variant, True), (1, d2)) for variant in VARIANTS}
        assert (runs["zero_divisor"].status, runs["zero_divisor"].k_stop) == (SIM_ZERO_DIVISOR, 1)
        assert runs["zero_divisor"].et == [False, True]
        assert (runs["guard_broken"].status, runs["guard_broken"].k_stop) == (SIM_GUARD_BROKEN, 0)
        assert runs["divergence"].status == SIM_DIVERGED
        assert runs["nan"].status == SIM_DIVERGED and np.isnan(runs["nan"].value)
        re_entries += any(p >= 3 for _k, _direction, p in runs["clean"].switches)
    assert re_entries >= len(SWITCHING) // 2


def test_a_shape_compiles_once():
    kernels._loop_kernel.cache_clear()
    case = _case(3, 2, 4, "clean", switching=True)
    runs = [_run(case, (1, 4)) for _ in range(2)]
    assert kernels._loop_kernel.cache_info().misses == 1
    assert runs[0] == runs[1]


def test_import_and_parse_compile_nothing():
    """No kernel is compiled before the first run of its shape."""
    configs = sorted(str(p) for p in CONFIG_DIR.glob("*.json"))
    src = str(Path(adaptbus.__file__).resolve().parent.parent)
    code = (
        "import json, linecache, sys\n"
        "from adaptbus import harness, kernels\n"
        "for path in sys.argv[1:]:\n"
        "    harness.parse_config(path)\n"
        "generated = [name for name in linecache.cache if name.startswith('<adaptive_loop')]\n"
        "print(json.dumps([kernels._loop_kernel.cache_info().currsize, generated]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *configs], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(out.stdout) == [0, []]


def test_a_generated_frame_shows_its_source_line():
    loop = kernels._loop_kernel(1, 0, 1, 1, False, True)
    with pytest.raises(IndexError) as info:
        # a reference shorter than the horizon fails at the first sample
        loop([0.5], [1.0], [], [0.0] * 4, [0.0, 0.0], [0.0], [[0.0, 0.0]], [[0.0, 0.0]],
             [0.0, 1.0], [0.0, 1.0], 0.5, 0.5, -1.0, 3)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<adaptive_loop m1=1 m2=0 d1=1 d2=1 pinned>"' in text
    assert "uk = (ref[k + 1] - (" in text

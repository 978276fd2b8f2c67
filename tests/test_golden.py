"""Golden digests of the five bundled configs.

Each config pins the sha256 of its simulation columns (``y u e eps mode
switch delay dist`` of every app, in app order), its status and its
(monitor, passed, measured, threshold, detail) verdicts, the numbers as
their ``repr``.  The switching configs use constant
references, so their arithmetic is fixed-order scalar code and they are
compared on every machine.  The fixed configs read numpy's vectorised ``sin``, which is not
bit-stable across CPUs, so they are compared only where the numpy/CPU
fingerprint matches the one they were recorded with.

The switching configs also pin the sha256 of their bus log, as the
version-1 ``cycles`` and ``deliveries`` lists that the trace builds from its
bus columns, and of their per-app switch lists.

Every config also pins the sha256 of its exported CSV and JSON files.  Those
hold the monitor columns, whose ``rank`` and ``alpha_hat`` come from LAPACK,
and the JSON summary (the estimate norms), so they too are compared only
where the fingerprint matches.

One scenario with random impulse trains pins its sha256 and the impulses of
each app's ``dist`` column: two apps share the scenario's random disturbance
and one has its own, so the pin holds the order in which the apps draw from
the seeded generator.  Its drawn impulses must pass ``impulse_triggers_tt``.
It is compared where numpy's version matches the one it was recorded with,
since the generator's streams may change between versions.

A change that moves a digest re-records it here and says why in CHANGES.md.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from adaptbus.harness import INT_FIELDS, evaluate_monitors, export_trace, parse_config, run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SIM_COLUMNS = ("y", "u", "e", "eps", "mode", "switch", "delay", "dist")

FINGERPRINT = {"numpy": "2.4.6", "machine": "x86_64", "cpu": "Intel(R) Xeon(R) Processor"}

# (monitor, repr of its measured value, repr of its threshold, detail)
CONSERVATION = ("minislot_conservation", "0.0", "0.0",
                "cycles where consumed != idle + transmitted or > minislots_per_cycle")
SWITCHING_VERDICTS = [
    ("completed", "0.0", "0.0", "ok"),
    ("bounded_signals", "8.125", "1000.0", ""),
    ("impulse_triggers_tt", "1.0", "0.05", "min post-impulse |e| peak within d2=2 samples"),
    ("re_entry_containment", "0.03125", "0.05", "|e| over the first m2+d2=2 re-entry samples"),
    ("et_phase_length", "698.0", "2.0", "every terminated ET phase must exceed 2 samples"),
    ("lyapunov_in_mode", "5.421010862427522e-20", "1e-09", "max dV at non-switch samples"),
    ("bus_delay_dichotomy", "0.0", "0.0", "TT delay == 1, ET delay <= d2"),
    CONSERVATION,
]
QUIET_VERDICTS = [
    ("completed", "0.0", "0.0", "ok"),
    ("bounded_signals", "8.125", "1000.0", ""),
    ("re_entry_containment", "0.0", "0.05", "|e| over the first m2+d2=2 re-entry samples"),
    ("et_phase_length", "-1.0", "2.0", "every terminated ET phase must exceed 2 samples"),
    ("lyapunov_in_mode", "4.2351647362715017e-20", "1e-09", "max dV at non-switch samples"),
    ("quiescent_switches", "0.0", "0.0", "switches after the error settles inside eth"),
    ("bus_delay_dichotomy", "0.0", "0.0", "TT delay == 1, ET delay <= d2"),
    CONSERVATION,
]


def fixed_verdicts(max_signal: str, tail: str, ortho: str, dv: str) -> list:
    return [("completed", "0.0", "0.0", "ok"), ("bounded_signals", max_signal, "1000.0", ""),
            ("tracking_tail", tail, "0.001", "|e| for k >= 2000"),
            ("regressor_rank", "2.0", "2.0", "windowed Gram rank at the final sample"),
            ("orthogonality_residual", ortho, "0.001", "max over final 500 settled samples"),
            ("parameter_error_monotone", dv, "1e-12", "")]


# config: (sim sha256, status, monitors with their values; every one passed)
GOLDEN = {
    "fixed_tt": ("946ce4b84298c5773d77b3f6fb9e8c85943611ace824e865267c76a28758e7a0", "ok",
                 fixed_verdicts("2.0905894695390246", "3.660960423701454e-14", "2.568384639037119e-14",
                                "1.1102230246251565e-16")),
    "fixed_et": ("2edf14f68e33fc529beb393a694a761668b3a12274482000ab1daec567d1fbe2", "ok",
                 fixed_verdicts("4.091017861349213", "7.91033905045424e-14", "4.886962642002112e-14",
                                "6.661338147750939e-16")),
    "switching_1app": ("954a5f10f27f01e15d4b83869a20dcc459e9aaf8241347b1bdd8cf5305f35f01",
                       "ok", SWITCHING_VERDICTS),
    "switching_1app_quiet": ("9d6c4378ee58ccaf612fbacdd1594a0a99f8832e727bf30a49f80d0bf0ab8a37",
                             "ok", QUIET_VERDICTS),
    "switching_3app": ("d8dd5632432b68a01a304e24d0197287a41c8d65ae4bd7c5079a5bfbe4313cac",
                       "ok", SWITCHING_VERDICTS),
}

# config: (bus sha256, switch-list sha256, deliveries, switches per app)
BUS_GOLDEN = {
    "switching_1app": ("da45b5df18e496fce11949335d099a07613c97705a755d499520b5706de2c620",
                       "d8020814f5acfd4bc2eb745c8960dacab3d3e616cdf957a63e95c891f8de82ed", 5000, [11]),
    "switching_1app_quiet": ("47329c876e0256e9d944d1498e1ce383704342655b4e8787c88bfaf50b907ed9",
                             "781dd00b86d92d54d7711e4b426ccaa8ac9a3275e177842b741cef6a3ec57e82", 5000, [1]),
    "switching_3app": ("802013103b74d5a158602788400acdff2532bac6e7ff48aa33446c032669d0df",
                       "80ad2233fd0af8fbd179a87f97f3dfe4fccdc102045c4cbe4797c33d8194ca9b", 15000, [11, 11, 11]),
}

# config: (CSV sha256, JSON sha256); the JSON digests were recorded at schema_version 5
EXPORT_GOLDEN = {
    "fixed_tt": ("66c21d4edb5993b6b09b1e213c67a55ad171894ddb504be97eca7f8a7e761b42",
                 "6e751ce6ec63714f97b6415f21a2a66cacc497965ae2fe25bf0a2a4616e59cfe"),
    "fixed_et": ("0d1507d4f297a36175bde7ab84352238d34d986914213ab1a01e9c0837d9a80c",
                 "5364140f902421577b1e26220ffdba1cbed651d7ff3887e496e961030d8aac52"),
    "switching_1app": ("3ec6eb76717b86f180da488255601c65efd3eb2e3c7ab9bd9de3600b77a4ac38",
                       "a3aebb017217d6c5bf3c36131601a050446d6b614a495e25e1ab371c6439d671"),
    "switching_1app_quiet": ("b01e0af7fbe2dd89ea65bf163b6821863dc5caf3a7562d897825edeab43d89f6",
                             "e0577e8455e612c65c02e70bb87d50736fa5f7ee825100953d73868c927541e6"),
    "switching_3app": ("256a8cdee6e5216a0a4fa089cd113e8ae4a6487d04f767ae16e1b5950c0f77f3",
                       "7c978890583098270a548270e588ae60be4c2b53bd39620849663ccad272d5ba"),
}

# apps 0 and 2 take the shared random train, app 1 its own; recorded before
# the trains were drawn in parse_config
RANDOM_TRAINS = {
    "name": "random trains", "horizon": 3000, "seed": 21,
    "protocol": {"kind": "switching", "d2": 2, "eth": 0.05, "minislots_per_cycle": 8},
    "plants": [{"a": [], "b": [0.25]},
               {"a": [], "b": [0.25], "disturbance": {"random": True, "t_dw": 400, "amplitudes": 0.8}},
               {"a": [], "b": [0.25]}],
    "reference": {"type": "constant", "level": 2.0},
    "disturbance": {"random": True, "t_dw": 500, "amplitudes": 1.0},
    "beta0_init": 0.25,
}
# (sim sha256, impulse samples and amplitude of each app's dist column)
RANDOM_GOLDEN = ("767bd921c9fdbf36114058401f8f280bf089665502832b1fb0eda1b8f696452e",
                 [([150, 1040, 1733, 2535], 1.0), ([283, 820, 1255, 1772, 2424], 0.8),
                  ([490, 1111, 1822, 2795], 1.0)])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(), "cpu": cpu_model()}


def sim_digest(trace) -> str:
    h = hashlib.sha256()
    for app in trace.apps:
        for name in SIM_COLUMNS:
            col = app.columns[name]
            h.update(name.encode())
            if name == "mode":
                h.update("\n".join(str(v) for v in col).encode())
            else:
                dtype = "<i8" if name in INT_FIELDS else "<f8"
                h.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_config_matches_golden(name):
    if name.startswith("fixed") and fingerprint() != FINGERPRINT:
        pytest.skip(f"recorded with {FINGERPRINT}; vectorised sin differs on {fingerprint()}")
    digest, status, monitors = GOLDEN[name]
    cfg = parse_config(CONFIG_DIR / f"{name}.json")
    trace = run_scenario(cfg)
    report = evaluate_monitors(trace, cfg)
    assert trace.status == status
    assert ([(r.name, r.passed, repr(r.measured), repr(r.threshold), r.detail) for r in report.results]
            == [(m, True, *values) for m, *values in monitors])
    assert sim_digest(trace) == digest


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUS_GOLDEN))
def test_bus_log_and_switches_match_golden(name):
    bus_digest, switch_digest, deliveries, switches = BUS_GOLDEN[name]
    trace = run_scenario(parse_config(CONFIG_DIR / f"{name}.json"))
    assert len(trace.bus["deliveries"]) == deliveries
    assert [len(app.switches) for app in trace.apps] == switches
    assert json_digest([trace.bus["cycles"], trace.bus["deliveries"]]) == bus_digest
    assert json_digest([app.switches for app in trace.apps]) == switch_digest


@pytest.mark.parametrize("name", sorted(EXPORT_GOLDEN))
def test_exported_files_match_golden(name, tmp_path):
    if fingerprint() != FINGERPRINT:
        pytest.skip(f"recorded with {FINGERPRINT}; LAPACK and vectorised sin differ on {fingerprint()}")
    trace = run_scenario(parse_config(CONFIG_DIR / f"{name}.json"))
    digests = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"trace.{fmt}"
        export_trace(trace, path, fmt)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == EXPORT_GOLDEN[name]


def test_random_trains_match_golden():
    if np.__version__ != FINGERPRINT["numpy"]:
        pytest.skip(f"recorded with numpy {FINGERPRINT['numpy']}; its random streams may differ in {np.__version__}")
    digest, impulses = RANDOM_GOLDEN
    cfg = parse_config(RANDOM_TRAINS)
    trace = run_scenario(cfg)
    assert trace.status == "ok"
    for app, (times, amplitude) in zip(trace.apps, impulses):
        dist = app.columns["dist"]
        assert np.flatnonzero(dist).tolist() == times
        assert dist[times].tolist() == [amplitude] * len(times)
    assert sim_digest(trace) == digest
    # the drawn trains are judged: the weakest impulse is app 1's 0.8
    results = {r.name: r for r in evaluate_monitors(trace, cfg).results}
    impulse = results["impulse_triggers_tt"]
    assert impulse.passed and impulse.measured == pytest.approx(0.8, abs=1e-12)

"""The bus log as int columns.

A trace keeps its bus log as ``netbus.BUS_COLUMNS`` int64 arrays and writes
them as JSON int lists (trace ``schema_version`` 2 and on).  These tests pin:

- the version-1 view (``bus["cycles"]`` and ``bus["deliveries"]``) built
  from the columns against the lists the per-cycle replay gives;
- a version-4 trace read back into the same columns and verdicts, and a
  version-1 trace, whose bus holds those lists, rejected;
- the ``minislot_conservation`` rule over the columns, on hand-corrupted logs;
- ``load_trace``'s rejection of a malformed bus and of any version-1
  trace, with exit code 2 from ``analyze``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from adaptbus import cli
from adaptbus.harness import (TRACE_FIELDS, BusLog, evaluate_monitors, export_trace, load_trace, parse_config,
                              run_scenario)
from adaptbus.netbus import BUS_COLUMNS, BusState
from tests import bus_reference
from tests.test_switching_engine import CASES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _scenario(name):
    if name in CASES:
        return CASES[name][0]
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


SCENARIOS = ["switching_1app", "switching_1app_quiet", "switching_3app", "carried_messages"]


@pytest.fixture(scope="module", params=SCENARIOS)
def run(request):
    cfg = parse_config(_scenario(request.param))
    trace = run_scenario(cfg)
    assert trace.status == "ok"
    return cfg, trace


def v1_lists(cfg, trace):
    """The version-1 bus log of a completed run: the per-cycle replay's
    cycle reports as dicts and its deliveries as lists."""
    state, reports = BusState(), []
    bus_reference.replay(state, cfg.bus_config(), [app.columns["mode"] for app in trace.apps], cfg.horizon, reports)
    cycles = [{"cycle": r.cycle, "consumed_minislots": r.consumed_minislots, "idle_slots": r.idle_slots,
               "transmissions": [[a, length] for a, length in r.transmissions], "carried": len(r.carried),
               "conserved": r.conserved}
              for r in reports]
    return cycles, [list(dv) for dv in state.deliveries]


def verdicts(report):
    return [(r.name, r.passed, repr(r.measured), repr(r.threshold)) for r in report.results]


def test_v1_view_is_the_per_cycle_replay_lists(run):
    cfg, trace = run
    cycles, deliveries = v1_lists(cfg, trace)
    assert trace.bus["cycles"] == cycles
    assert trace.bus["deliveries"] == deliveries
    assert json.dumps(trace.bus["deliveries"]) == json.dumps(deliveries)  # ints and str, not numpy scalars
    assert set(trace.bus) == set(BUS_COLUMNS)  # the view is built on read, never stored
    if cfg.name == "carried messages":
        assert any(c["carried"] for c in cycles)


V1_REJECTED = "schema_version 1 is not 2, 3 or 4; re-run `adaptbus run` on the trace's config"


def test_v1_trace_loads_into_the_same_columns_and_verdicts(run, tmp_path):
    # only the version-4 file loads: the version-1 copy is rejected
    cfg, trace = run
    v4, v1 = tmp_path / "v4.json", tmp_path / "v1.json"
    export_trace(trace, v4, "json")
    doc = json.loads(v4.read_text())
    assert doc["schema_version"] == 4 and list(doc["bus"]) == list(BUS_COLUMNS)
    doc.update(schema_version=1, bus={"cycles": trace.bus["cycles"], "deliveries": trace.bus["deliveries"]})
    v1.write_text(json.dumps(doc))
    new = load_trace(v4)
    assert new.bus == trace.bus
    assert all(new.bus[name].dtype == np.int64 for name in BUS_COLUMNS)
    for app_new, app in zip(new.apps, trace.apps, strict=True):
        assert list(app_new.columns) == TRACE_FIELDS
        for name in TRACE_FIELDS:
            x, y = app_new.columns[name], app.columns[name]
            assert x.dtype == y.dtype
            assert (list(x) == list(y)) if x.dtype == object else x.tobytes() == y.tobytes()
    assert verdicts(evaluate_monitors(new)) == verdicts(evaluate_monitors(trace, cfg))
    with pytest.raises(ValueError, match=f"{v1}: not a trace: {V1_REJECTED}"):
        load_trace(v1)


def _conservation(trace, cfg):
    return next(r for r in evaluate_monitors(trace, cfg).results if r.name == "minislot_conservation")


def _corrupted(trace, **changes):
    bus = BusLog({name: col.copy() for name, col in trace.bus.items()})
    for name, (i, delta) in changes.items():
        bus[name][i] += delta
    return type(trace)(config=trace.config, status=trace.status, apps=trace.apps, bus=bus,
                       summary=trace.summary)


@pytest.mark.parametrize("changes,broken", [
    ({}, 0),
    ({"consumed": (5, 1)}, 1),  # one minislot more consumed than the cycle used
    ({"idle": (7, -1), "consumed": (9, -1)}, 2),
    ({"tx_len": (0, 1)}, 1),  # a transmission longer than the walk logged
    # the cycle adds up but spends more than the segment holds
    ({"consumed": (3, 10), "idle": (3, 10)}, 1),
], ids=["clean", "consumed", "idle_and_consumed", "tx_len", "over_budget"])
def test_minislot_conservation_fails_a_corrupted_log(changes, broken):
    cfg = parse_config(dict(_scenario("switching_3app"), horizon=300))
    trace = _corrupted(run_scenario(cfg), **changes)
    result = _conservation(trace, cfg)
    assert (result.passed, result.measured) == (broken == 0, float(broken))


def _trace_doc(tmp_path):
    trace = run_scenario(parse_config(dict(_scenario("switching_3app"), horizon=40)))
    p = tmp_path / "trace.json"
    export_trace(trace, p, "json")
    return json.loads(p.read_text())


@pytest.mark.parametrize("change,message", [
    (lambda bus: bus.pop("arrival"), "the bus has no 'arrival' column"),
    (lambda bus: bus["idle"].pop(), "bus columns consumed, idle, carried differ in length"),
    (lambda bus: bus["tx_app"].append(0), "bus columns tx_cycle, tx_app, tx_len differ in length"),
    (lambda bus: bus["k"].__setitem__(3, 1.5), "bus column 'k' must be a list of integers"),
    (lambda bus: bus["et"].__setitem__(0, "ET"), "bus column 'et' must be a list of integers"),
    (lambda bus: bus.__setitem__("et", [v == 1 for v in bus["et"]]), "bus column 'et' must be a list of integers"),
    # numpy alone would read this column as int64
    (lambda bus: bus["et"].__setitem__(0, True), "bus column 'et' must be a list of integers"),
    (lambda bus: bus["arrival"].__setitem__(2, None), "bus column 'arrival' must be a list of integers"),
    (lambda bus: bus["app"].__setitem__(0, [0]), "bus column 'app' must be a list of integers"),
    # numpy reads it as uint64, which int64 would wrap
    (lambda bus: bus["arrival"].__setitem__(2, 2**63), "bus column 'arrival' must be a list of integers"),
    (lambda bus: bus.__setitem__("consumed", 4), "bus column 'consumed' must be a list of integers"),
    (lambda bus: bus["tx_cycle"].__setitem__(-1, 40), "a transmission names a cycle the bus does not log"),
], ids=["missing", "short_cycle_column", "long_tx_column", "float", "str", "bool", "one_bool", "null", "nested",
        "past_int64", "not_a_list", "tx_cycle_out_of_range"])
def test_load_trace_rejects_a_malformed_v2_bus(tmp_path, capsys, change, message):
    doc = _trace_doc(tmp_path)
    change(doc["bus"])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"not a trace: {message}"):
        load_trace(p)
    assert cli.main(["analyze", "--trace", str(p)]) == 2
    assert f"error: {p}: not a trace: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("bus,message", [
    ([], "'bus' must be an object, got list"),
    ({"cycles": [{"cycle": 0}]}, "malformed version-1 bus"),
    ({"deliveries": [[0, 0, "TT", 1]]}, "the bus has no 'arrival' column"),
], ids=["not_an_object", "cycle_without_counts", "short_delivery"])
def test_load_trace_rejects_a_malformed_v1_bus(tmp_path, bus, message):
    # a version-1 trace is rejected for its version, before its bus is read
    doc = dict(_trace_doc(tmp_path), schema_version=1, bus=bus)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"not a trace: {V1_REJECTED}") as info:
        load_trace(p)
    assert message not in str(info.value)


@pytest.mark.parametrize("version", [1, None], ids=["version_1", "no_version"])
def test_analyze_rejects_a_version_1_trace(tmp_path, capsys, version):
    doc = _trace_doc(tmp_path)
    del doc["schema_version"]
    if version is not None:
        doc["schema_version"] = version
    p = tmp_path / "old.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--trace", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}: not a trace: {V1_REJECTED} to write a version-4 trace\n"

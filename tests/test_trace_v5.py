"""Trace schema version 5: the bus log is replayed at load.

A version-5 JSON trace of a switching run writes of its bus only what the app
columns cannot give: ``samples``, the number of samples the bus ran, and
``cut_et``, the ET flag at the last of them of each app with no row there (the
aborting app and those behind it in priority order, or every app when the bus
aborted).  ``load_trace`` replays the rest with ``netbus.replay`` from each
app's ``delay`` column.  A fixed-protocol trace has no bus.  These tests pin:

- the loaded bus equals the run's, column for column, and ``analyze`` gives
  the verdicts ``run`` gave, on bus-capacity aborts and on an app abort at
  each priority position (the completed runs are in ``test_trace_v4.py``);
- that the written cut flags are what the replay reads, and that a fixed
  trace loads without parsing its config;
- that the app entries must be apps 0..N-1 in order, one per plant of the
  config, on versions 4 and 5, N read from the unparsed config, which must
  be an object whose ``plants`` is a list;
- a seeded contract: a mutated version-5 document either loads and is
  judged, or is rejected by a ``ValueError`` that says ``not a trace:`` or by
  a ``ConfigError``; ``analyze`` exits 0, 1 or 2 and never raises.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from adaptbus import cli, harness
from adaptbus.harness import ConfigError, evaluate_monitors, export_trace, load_trace, parse_config, run_scenario
from adaptbus.netbus import BUS_COLUMNS
from tests.test_trace_v4 import WORKLOADS, _assert_round_trip

ROOT = Path(__file__).resolve().parent.parent


def _config(name: str, **changes) -> dict:
    return dict(json.loads((ROOT / "configs" / f"{name}.json").read_text()), **changes)


def _fleet_at_23_minislots(seed: int) -> dict:
    # 24 apps on 23 minislots: the bus aborts once every app sits in ET
    raw = WORKLOADS["switching_fleet"](seed)[0]
    raw["protocol"]["minislots_per_cycle"] = 23
    return raw


def _app_abort(priorities: list) -> dict:
    # app 1's divisor estimate reaches zero at sample 2; the priorities place it first, in the middle or last
    return {"name": "app abort", "horizon": 60, "seed": 1,
            "protocol": {"kind": "switching", "d2": 3, "eth": 0.05, "dyn_priorities": priorities},
            "plants": [{"b": [0.25], "beta0_init": 0.5}, {"b": [0.2], "beta0_init": 0.2},
                       {"b": [0.25], "beta0_init": 0.5}],
            "reference": {"type": "constant", "level": 2.0}}


CUT = {
    **{f"bus_abort_seed{seed}": (lambda seed=seed: _fleet_at_23_minislots(seed)) for seed in (1, 2, 3)},
    "app_abort_first": lambda: _app_abort([2, 1, 3]),
    "app_abort_middle": lambda: _app_abort([1, 2, 3]),
    "app_abort_last": lambda: _app_abort([1, 3, 2]),
}
# the row count of each app, and the cut flags the file writes
CUT_ROWS = {"app_abort_first": ([2, 2, 2], [0, 1, 0]), "app_abort_middle": ([3, 2, 2], [1, 0]),
            "app_abort_last": ([3, 2, 3], [1])}


@pytest.mark.parametrize("name", sorted(CUT))
def test_cut_run_round_trips(name, tmp_path):
    trace, doc = _assert_round_trip(CUT[name](), tmp_path)
    assert trace.status.startswith("aborted at sample")
    rows = [len(app.columns["k"]) for app in trace.apps]
    if name in CUT_ROWS:
        assert (rows, doc["bus"]["cut_et"]) == CUT_ROWS[name]
        assert doc["bus"]["samples"] == 3 and trace.status.endswith("guard invariant violated")
    else:  # every app stops at the failing sample, through which the bus ran
        assert "priority/d2/minislot budget infeasible" in trace.status
        assert rows == [rows[0]] * 24 and doc["bus"]["samples"] == rows[0] + 1
        assert len(doc["bus"]["cut_et"]) == 24 and 1 in doc["bus"]["cut_et"]


def test_the_written_cut_flags_are_replayed(tmp_path):
    trace = run_scenario(parse_config(_app_abort([2, 1, 3])))
    p = tmp_path / "trace.json"
    export_trace(trace, p, "json")
    doc = json.loads(p.read_text())
    doc["bus"]["cut_et"][1] = 0  # app 1 in TT at sample 2
    p.write_text(json.dumps(doc))
    et = trace.bus["et"].copy()
    et[(trace.bus["app"] == 1) & (trace.bus["k"] == 2)] = 0
    assert not np.array_equal(et, trace.bus["et"])
    assert np.array_equal(load_trace(p).bus["et"], et)


def test_a_fixed_trace_loads_without_parsing_its_config(tmp_path, monkeypatch):
    cfg = parse_config(_config("fixed_tt", horizon=300))
    trace = run_scenario(cfg)
    p = tmp_path / "trace.json"
    export_trace(trace, p, "json")
    assert "bus" not in json.loads(p.read_text())

    def refuse(source):
        raise AssertionError("parse_config called")

    monkeypatch.setattr(harness, "parse_config", refuse)
    back = load_trace(p)
    assert back.bus == trace.bus and list(back.bus) == list(BUS_COLUMNS)
    assert all(back.bus[name].dtype == np.int64 and not back.bus[name].size for name in BUS_COLUMNS)
    monkeypatch.undo()
    assert [r.passed for r in evaluate_monitors(back).results] == [r.passed for r in evaluate_monitors(trace).results]


@pytest.mark.parametrize("change,message", [
    (lambda apps: apps.pop(0), "it has 2 app entries and its config 3 plants"),
    (lambda apps: apps.reverse(), "app entry 0 is app 2; the entries must be apps 0 to 2 in order"),
    (lambda apps: apps[0].update(app=7), "app entry 0 is app 7; the entries must be apps 0 to 2 in order"),
], ids=["entry_0_removed", "permuted", "app_0_renamed_7"])
@pytest.mark.parametrize("version", [4, 5])
def test_app_entries_must_be_the_configs_plants_in_order(tmp_path, capsys, change, message, version):
    # the monitors judge app i against plant i, so any other entry list would be judged against the wrong plant
    trace = run_scenario(parse_config(_config("switching_3app", horizon=400)))
    p = tmp_path / "trace.json"
    export_trace(trace, p, "json")
    doc = json.loads(p.read_text())
    if version == 4:
        doc.update(schema_version=4, bus={name: trace.bus[name].tolist() for name in BUS_COLUMNS})
    change(doc["apps"])
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"not a trace: {message}"):
        load_trace(p)
    assert cli.main(["analyze", "--trace", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: not a trace: {message}\n"


@pytest.mark.parametrize("config", [[], {"plants": "x"}], ids=["config_a_list", "plants_a_string"])
def test_a_config_without_a_plant_list_is_rejected(tmp_path, capsys, config):
    # N is read from the raw config, unparsed; a list config once reached parse_config and a TypeError traceback
    p = tmp_path / "trace.json"
    export_trace(run_scenario(parse_config(_config("switching_1app", horizon=50))), p, "json")
    p.write_text(json.dumps(dict(json.loads(p.read_text()), config=config)))
    assert cli.main(["analyze", "--trace", str(p)]) == 2
    message = "'config' must be an object whose 'plants', where given, is a list"
    assert capsys.readouterr().err == f"error: {p}: not a trace: {message}\n"


def test_a_fixed_trace_with_a_bus_is_rejected(tmp_path):
    p = tmp_path / "trace.json"
    export_trace(run_scenario(parse_config(_config("fixed_tt", horizon=50))), p, "json")
    p.write_text(json.dumps(dict(json.loads(p.read_text()), bus={"samples": 50, "cut_et": []})))
    with pytest.raises(ValueError, match="not a trace: a fixed-protocol trace has no 'bus' key"):
        load_trace(p)


def test_a_replay_that_stops_before_the_written_samples_is_rejected(tmp_path):
    trace = run_scenario(parse_config(_fleet_at_23_minislots(3)))
    p = tmp_path / "trace.json"
    export_trace(trace, p, "json")
    doc = json.loads(p.read_text())
    n = doc["bus"]["samples"]
    for app in doc["apps"]:  # every app in ET from 10 samples before the abort: the replay aborts earlier
        app["columns"]["delay"][n - 11:] = [3] * (len(app["columns"]["delay"]) - (n - 11))
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"not a trace: the bus replay stops at sample [0-9]+: .*; the trace says "
                                         f"the bus ran {n} samples"):
        load_trace(p)


# ---------------------------------------------------------------------------
# the seeded contract


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Version-5 documents: a completed switching run, a bus-capacity abort
    and a fixed run."""
    out = {}
    for name, raw in (("switching_3app", _config("switching_3app", horizon=1600)),
                      ("bus_abort", _fleet_at_23_minislots(3)), ("fixed_tt", _config("fixed_tt", horizon=600))):
        p = tmp_path_factory.mktemp(name) / "trace.json"
        export_trace(run_scenario(parse_config(raw)), p, "json")
        out[name] = json.loads(p.read_text())
    assert not out["switching_3app"]["bus"]["cut_et"] and len(out["bus_abort"]["bus"]["cut_et"]) == 24
    assert "bus" not in out["fixed_tt"]
    return out


def _rows(doc) -> int:
    return len(doc["apps"][0]["columns"]["y"])


def _set_samples(value):
    def change(doc):
        if value == "missing":
            del doc["bus"]["samples"]
        else:
            doc["bus"]["samples"] = value(doc) if callable(value) else value
    return change


def _set_flags(value):
    def change(doc):
        flags = doc["bus"]["cut_et"]
        if value == "wrong_length":
            doc["bus"]["cut_et"] = flags[:-1] if flags else [0]
        else:
            doc["bus"]["cut_et"] = (flags or [0])[:-1] + [value]
    return change


BUS_CHANGES = {
    "samples_-1": _set_samples(-1),
    "samples_past_the_rows_plus_1": _set_samples(lambda doc: _rows(doc) + 2),
    "samples_one_more": _set_samples(lambda doc: doc["bus"]["samples"] + 1),
    "samples_1.5": _set_samples(1.5),
    "samples_true": _set_samples(True),
    "samples_null": _set_samples(None),
    "samples_missing": _set_samples("missing"),
    "cut_et_wrong_length": _set_flags("wrong_length"),
    "cut_et_2": _set_flags(2),
    "cut_et_string": _set_flags("ET"),
}
CELLS = [None, "x", True, 1.5, -1, 0, 7, 2**63, 1e308, float("nan"), [1.0], {}]


def _mutate(doc: dict, rng) -> None:
    """One random change to the app entries or their columns."""
    apps = doc["apps"]
    i = int(rng.integers(len(apps)))
    cols = apps[i]["columns"]
    name = sorted(cols)[int(rng.integers(len(cols)))]
    col = cols[name]
    op = int(rng.integers(9))
    if op == 0:
        apps.pop(i)
    elif op == 1:
        j = int(rng.integers(len(apps)))
        apps[i], apps[j] = apps[j], apps[i]
    elif op == 2:
        apps[i]["app"] = CELLS[int(rng.integers(len(CELLS)))]
    elif op == 3:  # one column a row short
        col.pop()
    elif op == 4:  # every column a row short
        for c in cols.values():
            c.pop()
    elif op == 5:
        col[int(rng.integers(len(col)))] = CELLS[int(rng.integers(len(CELLS)))]
    elif op == 6:
        del cols[name]
    elif op == 7:  # a stretch of samples moved to one delay: the replay sees other modes
        delay = cols.get("delay", col)
        start = int(rng.integers(len(delay)))
        stop = start + int(rng.integers(1, 200))
        delay[start:stop] = [int(rng.choice([1, 2, 3]))] * len(delay[start:stop])
    else:
        apps[i]["switches"].append([int(rng.integers(-1, len(col) + 2)), str(rng.choice(["TT->ET", "ET->TT"])),
                                    int(rng.integers(0, 4))])


CASES = ([(doc, f"bus:{change}") for doc in ("switching_3app", "bus_abort") for change in BUS_CHANGES]
         + [("fixed_tt", "bus:added")]
         + [(doc, f"seed:{seed}") for doc in ("switching_3app", "bus_abort", "fixed_tt") for seed in range(10)])


@pytest.mark.parametrize("doc_name,case", CASES, ids=[f"{d}-{c}" for d, c in CASES])
def test_a_mutated_trace_loads_or_is_rejected(docs, tmp_path, doc_name, case):
    doc = json.loads(json.dumps(docs[doc_name]))
    kind, what = case.split(":")
    if what == "added":
        doc["bus"] = {"samples": _rows(doc), "cut_et": []}
    elif kind == "bus":
        BUS_CHANGES[what](doc)
    else:
        rng = np.random.default_rng([30, int(what)])
        for _ in range(int(rng.integers(1, 4))):
            if doc["apps"] and all(app["columns"] and all(app["columns"].values()) for app in doc["apps"]):
                _mutate(doc, rng)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    try:
        evaluate_monitors(load_trace(p))
    except ConfigError:
        pass
    except ValueError as exc:
        assert "not a trace: " in str(exc), exc
    assert cli.main(["analyze", "--trace", str(p)]) in (0, 1, 2)
    if kind == "bus":  # every change to the bus entry is caught
        with pytest.raises(ValueError, match="not a trace: "):
            load_trace(p)

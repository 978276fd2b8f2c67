"""Trace schema versions 4 and 5: the JSON trace writes each fact once.

Since version 4 a JSON trace writes each app's independent columns (``y``,
``yref``, ``u``, ``delay``, ``eps``, ``dist``) and its monitor columns
(``V``, ``rank``, ``alpha_hat``, ``ortho_res``) unless all five are zero to
the bit; ``load_trace`` derives the rest.  Version 5 also leaves out the bus
log, which ``load_trace`` replays (``tests/test_trace_v5.py``).  These tests
pin:

- the round trip: every column of a loaded trace equals the run's own, in
  dtype and bytes, and ``analyze`` gives the verdicts ``run`` gave, on the
  bundled configs and on every benchmark workload scenario at seeds 1-3;
- the checks on what the derived columns are built from: each fault is a
  ``ValueError`` that starts ``not a trace:``, and ``analyze`` exits 2.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from adaptbus import cli
from adaptbus.harness import TRACE_FIELDS, evaluate_monitors, export_trace, load_trace, parse_config, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
SCENARIOS = {f"{name}-seed{seed}-{i}": raw for name, make in WORKLOADS.items() for seed in (1, 2, 3)
             for i, raw in enumerate(make(seed))}


def _verdicts(report):
    return [(r.name, r.passed, repr(r.measured), repr(r.threshold), r.detail) for r in report.results]


def _assert_round_trip(raw, tmp_path):
    cfg = parse_config(raw)
    trace = run_scenario(cfg)
    p = tmp_path / "trace.json"
    export_trace(trace, p, "json")
    back = load_trace(p)
    assert (back.status, back.summary, back.bus) == (trace.status, trace.summary, trace.bus)
    for app, app_back in zip(trace.apps, back.apps, strict=True):
        assert app_back.switches == app.switches
        assert list(app_back.columns) == TRACE_FIELDS
        for name in TRACE_FIELDS:
            x, y = app.columns[name], app_back.columns[name]
            assert x.dtype == y.dtype, name
            assert (list(x) == list(y)) if x.dtype == object else x.tobytes() == y.tobytes(), name
    assert _verdicts(evaluate_monitors(back)) == _verdicts(evaluate_monitors(trace, cfg))
    return trace, json.loads(p.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_bundled_config_round_trips(name, tmp_path):
    trace, doc = _assert_round_trip(json.loads((ROOT / "configs" / f"{name}.json").read_text()), tmp_path)
    assert doc["schema_version"] == 5
    oracle = parse_config(trace.config).plants[0].oracle
    written = ["y", "yref", "u", "delay", "eps", "dist"] + (["V", "rank", "alpha_hat", "ortho_res"] if oracle else [])
    assert [list(app["columns"]) for app in doc["apps"]] == [written] * len(trace.apps)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workload_scenario_round_trips(name, tmp_path):
    _assert_round_trip(SCENARIOS[name], tmp_path)


def test_workloads_cover_both_monitor_groups():
    oracles = {spec.oracle for raw in SCENARIOS.values() for spec in parse_config(raw).plants}
    assert oracles == {True, False}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Version-5 documents: a switching run with switches and no monitor
    columns, and a fixed run with them."""
    out = {}
    for name, horizon in (("switching_1app", 1800), ("fixed_tt", 60)):
        raw = dict(json.loads((ROOT / "configs" / f"{name}.json").read_text()), horizon=horizon)
        p = tmp_path_factory.mktemp(name) / "trace.json"
        export_trace(run_scenario(parse_config(raw)), p, "json")
        out[name] = json.loads(p.read_text())
    assert out["switching_1app"]["apps"][0]["switches"] and "V" in out["fixed_tt"]["apps"][0]["columns"]
    return out


def _pop(cols, name):
    del cols[name]


INTEGERS = "app entry 0: column 'delay' must be a list of integers"
SWITCH_FAULT = 'app entry 0: a switch must be [k, "TT->ET" or "ET->TT", p] with integers k in [0, 1800] and p, got '


@pytest.mark.parametrize("doc_name,change,message", [
    ("switching_1app", lambda a: a.update(switches=[5]), SWITCH_FAULT + "5"),
    ("switching_1app", lambda a: a.update(switches=[["x", "TT->ET", 0]]), SWITCH_FAULT + '["x", "TT->ET", 0]'),
    ("switching_1app", lambda a: a.update(switches=[[3, "TT-ET", 1]]), SWITCH_FAULT + '[3, "TT-ET", 1]'),
    ("switching_1app", lambda a: a.update(switches=[[3, ["TT->ET"], 1]]), SWITCH_FAULT + '[3, ["TT->ET"], 1]'),
    ("switching_1app", lambda a: a.update(switches=[[3, "TT->ET", 1.5]]), SWITCH_FAULT + '[3, "TT->ET", 1.5]'),
    ("switching_1app", lambda a: a.update(switches=[[True, "TT->ET", 1]]), SWITCH_FAULT + '[true, "TT->ET", 1]'),
    ("switching_1app", lambda a: a.update(switches=[[3, "TT->ET"]]), SWITCH_FAULT + '[3, "TT->ET"]'),
    ("switching_1app", lambda a: a.update(switches=[[-1, "TT->ET", 1]]), SWITCH_FAULT + '[-1, "TT->ET", 1]'),
    ("switching_1app", lambda a: a.update(switches=[[1801, "ET->TT", 0]]), SWITCH_FAULT + '[1801, "ET->TT", 0]'),
    ("switching_1app", lambda a: a.update(switches={"k": 3}),
     """app entry 0: 'switches' must be a list, got {"k": 3}"""),
    ("switching_1app", lambda a: a.update(app="0"),
     """app entry 0: 'app' must be an integer in [0, 2**63), got "0\""""),
    ("switching_1app", lambda a: a.update(app=False), "app entry 0: 'app' must be an integer in [0, 2**63), got false"),
    ("switching_1app", lambda a: a.update(app=2**63),
     f"app entry 0: 'app' must be an integer in [0, 2**63), got {2**63}"),
    ("switching_1app", lambda a: a.update(app=-1), "app entry 0: 'app' must be an integer in [0, 2**63), got -1"),
    ("switching_1app", lambda a: a["columns"]["yref"].pop(), "app entry 0: columns 'y' and 'yref' differ in length"),
    ("switching_1app", lambda a: a["columns"]["y"].append(0.0),
     "app entry 0: columns 'y' and 'yref' differ in length"),
    ("switching_1app", lambda a: a["columns"].update(dist=0.0),
     "app entry 0: column 'dist' must be a list, got float"),
    ("switching_1app", lambda a: a["columns"]["delay"].__setitem__(4, None), INTEGERS),
    ("switching_1app", lambda a: a["columns"]["delay"].__setitem__(4, 1.5), INTEGERS),
    ("switching_1app", lambda a: a["columns"]["delay"].__setitem__(4, True), INTEGERS),
    ("switching_1app", lambda a: a["columns"]["delay"].__setitem__(4, 2**63), INTEGERS),
    ("switching_1app", lambda a: a["columns"]["u"].__setitem__(4, "x"),
     "app entry 0: column 'u' must be a list of numbers"),
    ("switching_1app", lambda a: a["columns"]["y"].__setitem__(4, [1.0]),
     "app entry 0: column 'y' must be a list of numbers"),
    ("switching_1app", lambda a: _pop(a["columns"], "eps"), "app entry 0 has no 'columns.eps' key"),
    ("fixed_tt", lambda a: _pop(a["columns"], "rank"),
     "app entry 0 must hold all or none of the columns V, rank, alpha_hat, ortho_res"),
    ("fixed_tt", lambda a: a["columns"]["ortho_res"].pop(),
     "app entry 0: columns 'y' and 'ortho_res' differ in length"),
], ids=["switch_not_a_list", "k_not_an_int", "unknown_direction", "direction_a_list", "p_not_an_int", "k_a_bool",
        "two_fields", "k_negative", "k_past_the_rows", "switches_an_object", "app_a_string", "app_a_bool",
        "app_past_int64", "app_negative", "yref_short", "y_long", "column_not_a_list", "delay_null", "delay_a_fraction",
        "delay_a_bool", "delay_past_int64", "u_a_string", "y_nested", "no_eps", "monitor_group_partial",
        "monitor_column_short"])
def test_analyze_rejects_what_v4_derives_from(docs, tmp_path, capsys, doc_name, change, message):
    doc = json.loads(json.dumps(docs[doc_name]))
    change(doc["apps"][0])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not a trace: "):
        load_trace(p)
    assert cli.main(["analyze", "--trace", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: not a trace: {message}") and err.count("\n") == 1, err


def test_a_switch_at_the_row_count_loads(docs, tmp_path):
    # an aborting app keeps the switch logged at its aborted sample, one past its last row
    doc = json.loads(json.dumps(docs["switching_1app"]))
    doc["apps"][0]["switches"].append([1800, "ET->TT", 0])
    p = tmp_path / "t.json"
    p.write_text(json.dumps(doc))
    app = load_trace(p).apps[0]
    assert app.switches[-1] == (1800, "ET->TT", 0) and len(app.columns["switch"]) == 1800

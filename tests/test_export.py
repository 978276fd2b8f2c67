"""Byte layout of the exported traces.

The writer spells each distinct value of a column once and writes both
formats from that text; these tests pin its output to the standard encoders:
``repr`` of every CSV cell, and ``json.dumps(doc)``, one line with the default
separators, of the whole JSON document.  Traces written in the earlier
``json.dumps(doc, indent=1)`` layout still load (``tests/test_harness.py``).
These tests also pin when a column's text is reused: only for the next export
of the same trace object, while the column's bytes are unchanged, and until
both formats are written.
"""

import copy
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from adaptbus import harness
from adaptbus.harness import INT_FIELDS, TRACE_FIELDS, AppTrace, BusLog, Trace, export_trace, parse_config, run_scenario
from adaptbus.netbus import BUS_COLUMNS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _cell(name, v) -> str:
    if name == "mode":
        return str(v)
    if name in INT_FIELDS:
        return str(int(v))
    return repr(float(v))


def _json_cell(name, v):
    if name == "mode":
        return str(v)
    if name in INT_FIELDS:
        return int(v)
    return float(v)


def oracle_csv(trace: Trace) -> str:
    lines = [",".join(TRACE_FIELDS)]
    for app in trace.apps:
        for r in range(len(app.columns["k"])):
            lines.append(",".join(_cell(name, app.columns[name][r]) for name in TRACE_FIELDS))
    return "\n".join(lines) + "\n"


def oracle_json(trace: Trace) -> str:
    doc = {
        "schema_version": harness.SCHEMA_VERSION,
        "status": trace.status,
        "config": trace.config,
        "summary": trace.summary,
        "apps": [
            {
                "app": app.app_id,
                "switches": [list(s) for s in app.switches],
                "columns": {
                    name: [_json_cell(name, v) for v in app.columns[name]] for name in TRACE_FIELDS
                },
            }
            for app in trace.apps
        ],
        "bus": {name: [int(v) for v in trace.bus[name]] for name in BUS_COLUMNS},
    }
    return json.dumps(doc)


def _bundled(name: str, horizon: int) -> dict:
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["horizon"] = horizon
    return raw


def _minimal(**overrides) -> dict:
    raw = {
        "name": "minimal",
        "horizon": 60,
        "seed": 3,
        "protocol": {"kind": "fixed", "d": 1},
        "plants": [{"a": [-0.5], "b": [1.0]}],
        "reference": {"type": "sinusoid", "components": [{"amplitude": 1.0, "omega": 0.4}]},
        "gammas": [0.5, 0.5],
    }
    raw.update(overrides)
    return raw


def _aborted() -> dict:
    # the first error is inside eth, so app 0 enters ET at k = 1 and its
    # divisor estimate reaches zero at sample 2
    return {
        "name": "aborted switching",
        "horizon": 50,
        "seed": 1,
        "protocol": {"kind": "switching", "d2": 3, "eth": 0.05},
        "plants": [{"a": [], "b": [0.2]}, {"a": [], "b": [0.25]}],
        "reference": {"type": "constant", "level": 2.0},
        "gammas": [0.5, 0.5],
        "beta0_init": 0.2,
    }


def _odd_values() -> Trace:
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e-300, 123456789.0]
    n = len(specials)
    cols = {}
    for name in TRACE_FIELDS:
        if name == "mode":
            cols[name] = np.array(["TT", "ET"] * (n // 2), dtype=object)
        elif name in INT_FIELDS:
            cols[name] = np.arange(n) - 3
        else:
            cols[name] = np.roll(np.array(specials), TRACE_FIELDS.index(name))
    config = {
        "name": "Régulateur «ü» ☃, \"quoted\", with\na newline",
        "nested": {"empty_list": [], "empty_dict": {}, "mixed": [1, "a, b", [2, [3]], {}, None, True]},
        "rows": [[1, "x\ny"], [2.5, "π", False, None, 1e300]],
        "tuple": (1, 2),
        "dict_rows": [{"a": 1, "b": "x\ny", 3: None}, {"a": math.nan, "b": [1, [2]], 3: {}}],
        "ragged_dicts": [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}],
        "reordered_dicts": [{"a": 1, "b": [2]}, {"b": [3], "a": 4}],
        # lists of rows with a container cell, first in a row or later
        "rows_with_lists": [[[1, 2], [3, [4]]], [[1, 2], [[3], 4]], [[[1], 2], [3, 4]], [[1], [2, []]]],
        "rows_with_dicts": [[[1, 2], [3, {"a": 1}]], [[1, 2], [{"a": 1}, 4]], [[{"a": [1]}, 2], [3]]],
        "rows_of_brackets": [["],\n[", "[["], ["{", "]"], ["a", ",\n["]],
    }
    summary = {
        "kind": "switching",
        "apps": [{"app": 0, "max_abs_y": math.inf, "max_abs_e": math.nan, "switch_count": 2}],
        1: "int key", 2.5: "float key", None: "null key", False: "bool key",
    }
    # two cycles, the second unconserved, and one delivery arriving past 2**40
    bus = BusLog({name: np.array(col, dtype=np.int64) for name, col in {
        "consumed": [3, 5], "idle": [0, 1], "carried": [0, 1],
        "tx_cycle": [0, 0], "tx_app": [0, 1], "tx_len": [1, 2],
        "app": [0, 1], "k": [0, 0], "et": [0, 1], "delivery": [1, 3], "arrival": [1, 2**40 + 1],
    }.items()})
    app = AppTrace(app_id=0, columns=cols, switches=[(1, "TT->ET", 1), (4, "ET->TT", 0)])
    empty = AppTrace(app_id=1, columns={name: np.zeros(0) for name in TRACE_FIELDS}, switches=[])
    # CSV rows follow the k column, JSON writes every column whole
    ragged = AppTrace(app_id=2, columns=dict(cols, k=cols["k"][:6]), switches=[])
    return Trace(config=config, status="aborted: «odd» values", apps=[app, empty, ragged], bus=bus,
                 summary=summary)


TRACES = {
    "fixed_tt": lambda: run_scenario(parse_config(_bundled("fixed_tt", 300))),
    "switching_3app": lambda: run_scenario(parse_config(_bundled("switching_3app", 1600))),
    "horizon_0": lambda: run_scenario(parse_config(_minimal(horizon=0))),
    "multi_app": lambda: run_scenario(parse_config(_minimal(
        protocol={"kind": "fixed", "d": 2},
        plants=[{"a": [-0.5], "b": [1.0]}, {"a": [], "b": [0.5], "oracle": False},
                {"a": [-1.1, 0.3], "b": [1.2, 0.36], "phase_offset": 1.0}],
    ))),
    "aborted_switching": lambda: run_scenario(parse_config(_aborted())),
    "odd_values": _odd_values,
}


@pytest.fixture(scope="module", params=sorted(TRACES))
def trace(request):
    return TRACES[request.param]()


# the default block and one that splits every column and log into several
@pytest.fixture(params=["default_block", "block_3"])
def block(request, monkeypatch):
    if request.param == "block_3":
        monkeypatch.setattr(harness, "_BLOCK", 3)


def _oracle_bytes(tmp_path, text: str) -> bytes:
    p = tmp_path / "oracle"
    p.write_text(text)
    return p.read_bytes()


def test_csv_bytes_match_per_cell_repr(trace, block, tmp_path):
    p = tmp_path / "t.csv"
    export_trace(trace, p, "csv")
    assert p.read_bytes() == _oracle_bytes(tmp_path, oracle_csv(trace))


def test_json_bytes_match_plain_dump(trace, block, tmp_path):
    p = tmp_path / "t.json"
    export_trace(trace, p, "json")
    assert p.read_bytes() == _oracle_bytes(tmp_path, oracle_json(trace))


def test_traces_cover_the_cases():
    assert run_scenario(parse_config(_aborted())).status.startswith("aborted at sample 2")
    odd = _odd_values()
    assert {"nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "1e-07"} <= {
        repr(float(v)) for v in odd.apps[0].columns["y"]
    }


def test_unknown_format_writes_nothing(tmp_path):
    p = tmp_path / "t.xml"
    with pytest.raises(ValueError, match="unknown export format"):
        export_trace(_odd_values(), p, "xml")
    assert not p.exists()


@pytest.fixture
def formatted(monkeypatch):
    """The columns the writer formats, one entry per call."""
    calls = []
    real = harness._column_text

    def counting(col):
        calls.append(col)
        return real(col)

    monkeypatch.setattr(harness, "_column_text", counting)
    return calls


def _export_bytes(trace, tmp_path, fmt) -> bytes:
    p = tmp_path / f"t.{fmt}"
    export_trace(trace, p, fmt)
    return p.read_bytes()


def _columns(trace) -> int:
    return len(trace.apps) * len(TRACE_FIELDS)


def test_csv_then_json_formats_each_column_once(formatted, tmp_path):
    trace = TRACES["multi_app"]()
    assert _export_bytes(trace, tmp_path, "csv") == _oracle_bytes(tmp_path, oracle_csv(trace))
    assert len(formatted) == _columns(trace)
    assert _export_bytes(trace, tmp_path, "json") == _oracle_bytes(tmp_path, oracle_json(trace))
    assert len(formatted) == _columns(trace)


def test_equal_trace_is_formatted_again(formatted, tmp_path):
    first = TRACES["multi_app"]()
    second = copy.deepcopy(first)
    _export_bytes(first, tmp_path, "csv")
    assert _export_bytes(second, tmp_path, "json") == _oracle_bytes(tmp_path, oracle_json(second))
    assert len(formatted) == 2 * _columns(first)


def test_column_changed_in_place_reaches_json(formatted, tmp_path):
    trace = _odd_values()
    _export_bytes(trace, tmp_path, "csv")
    y = trace.apps[0].columns["y"]
    y[2] = 0.25
    y[3] = -y[3]  # the sign bit alone: -0.0 and 0.0 have other texts
    assert _export_bytes(trace, tmp_path, "json") == _oracle_bytes(tmp_path, oracle_json(trace))
    assert len(formatted) == _columns(trace) + 2  # the ragged app shares this y array


@pytest.mark.parametrize("first_block", [3, harness._BLOCK], ids=["block_3_first", "default_first"])
@pytest.mark.parametrize("first_fmt", ["csv", "json"])
def test_block_change_between_exports(monkeypatch, tmp_path, first_block, first_fmt):
    trace = TRACES["switching_3app"]()
    oracles = {"csv": oracle_csv(trace), "json": oracle_json(trace)}
    second_fmt = "json" if first_fmt == "csv" else "csv"
    monkeypatch.setattr(harness, "_BLOCK", first_block)
    assert _export_bytes(trace, tmp_path, first_fmt) == _oracle_bytes(tmp_path, oracles[first_fmt])
    monkeypatch.setattr(harness, "_BLOCK", 7 if first_block == 3 else 3)
    assert _export_bytes(trace, tmp_path, second_fmt) == _oracle_bytes(tmp_path, oracles[second_fmt])


def test_nothing_held_once_both_formats_are_written(formatted, tmp_path):
    trace = TRACES["multi_app"]()
    _export_bytes(trace, tmp_path, "csv")
    _export_bytes(trace, tmp_path, "json")
    assert len(formatted) == _columns(trace)
    _export_bytes(trace, tmp_path, "csv")  # no text was kept: all formatted again
    assert len(formatted) == 2 * _columns(trace)
    ref = weakref.ref(trace)
    del trace
    formatted.clear()  # the recorded columns belong to the trace
    gc.collect()
    assert ref() is None

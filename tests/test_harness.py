import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptbus
from adaptbus.harness import (
    ConfigError,
    check_impulse_times,
    evaluate_monitors,
    export_trace,
    load_trace,
    parse_config,
    read_trace_csv,
    run_scenario,
)
from adaptbus.supervisor import TRACE_FIELDS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_config(**overrides):
    cfg = {
        "name": "minimal",
        "horizon": 50,
        "seed": 3,
        "protocol": {"kind": "fixed", "d": 1},
        "plants": [{"a": [-0.5], "b": [1.0]}],
        "reference": {"type": "sinusoid", "components": [{"amplitude": 1.0, "omega": 0.4}]},
        "gammas": [0.5, 0.5],
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(minimal_config())
        assert cfg.horizon == 50
        assert len(cfg.plants) == 1

    def test_nonminimum_phase_rejected_with_root(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(plants=[{"a": [], "b": [1.0, 2.0]}]))
        assert "-2" in str(exc.value)
        assert "unit disk" in str(exc.value)

    def test_gamma_one_rejected(self):
        with pytest.raises(ConfigError, match="gamma1"):
            parse_config(minimal_config(gammas=[1.0, 0.5]))

    def test_gamma_range_rejected(self):
        with pytest.raises(ConfigError, match="gamma2"):
            parse_config(minimal_config(gammas=[0.5, 2.0]))

    def test_json_error_has_line_context(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "horizon": 10,\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(p)

    def test_switching_requires_d2(self):
        with pytest.raises(ConfigError, match="d2"):
            parse_config(minimal_config(protocol={"kind": "switching", "d2": 1, "eth": 0.1}))

    def test_disturbance_gap_checked(self):
        bad = {"times": [0, 5], "amplitudes": 1.0, "t_dw": 10}
        with pytest.raises(ConfigError, match="dwell"):
            parse_config(minimal_config(disturbance=bad))

    def test_richness_declaration_checked(self):
        cfg = parse_config(minimal_config(reference={
            "type": "sinusoid",
            "components": [{"amplitude": 1.0, "omega": 0.4}],
            "sr_order": 3,
        }))
        with pytest.raises(ConfigError, match="richness"):
            run_scenario(cfg)

    @pytest.mark.parametrize("protocol, n_values", [
        ({"kind": "fixed", "d": 2}, 51),
        ({"kind": "switching", "d2": 3, "eth": 0.05}, 52),
    ])
    def test_short_table_rejected(self, protocol, n_values):
        ref = {"type": "file", "values": [1.0] * n_values}
        with pytest.raises(ConfigError, match="needs"):
            parse_config(minimal_config(protocol=protocol, reference=ref))
        ref["values"].append(1.0)  # horizon 50 plus the lookahead
        parse_config(minimal_config(protocol=protocol, reference=ref))

    def test_short_table_for_richness_check_rejected(self):
        ref = {"type": "file", "values": [1.0, -1.0] * 30, "sr_order": 1}
        with pytest.raises(ConfigError, match="richness order 1 needs 98"):
            parse_config(minimal_config(protocol={"kind": "fixed", "d": 2}, reference=ref))

    def test_beta0_zero_rejected(self):
        with pytest.raises(ConfigError, match="beta0"):
            parse_config(minimal_config(beta0_init=0.0))

    @pytest.mark.parametrize("times", [[50], [-1], [10, 60]])
    def test_impulse_time_outside_horizon_rejected(self, times):
        dist = {"times": times, "amplitudes": 1.0, "t_dw": 5}
        for raw in (minimal_config(disturbance=dist),
                    minimal_config(plants=[{"a": [-0.5], "b": [1.0], "disturbance": dist}])):
            cfg = parse_config(raw)  # accepted, so that a caller can shorten the horizon
            with pytest.raises(ConfigError, match=r"outside the horizon \[0, 50\)"):
                check_impulse_times(cfg)
        check_impulse_times(parse_config(minimal_config(disturbance=dict(dist, times=[0, 49]))))

    # the gain plant's history holds 1 past output and m2 + d past inputs
    @pytest.mark.parametrize("protocol, u_depth", [
        ({"kind": "fixed", "d": 2}, 2),
        ({"kind": "switching", "d2": 3, "eth": 0.05}, 3),
    ])
    @pytest.mark.parametrize("field", ["y_init", "u_init"])
    def test_initial_conditions_deeper_than_history_rejected(self, protocol, u_depth, field):
        depth = 1 if field == "y_init" else u_depth
        plants = [{"a": [-0.5], "b": [1.0]}, {"a": [], "b": [0.25], field: [0.1] * depth}]
        cfg = minimal_config(protocol=protocol, plants=plants,
                             reference={"type": "constant", "level": 1.0})
        run_scenario(parse_config(cfg))
        plants[1][field].append(0.2)
        message = rf"plant\[1\]: {field} has {depth + 1} values; the history holds {depth}"
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)

    def test_phase_offset_of_file_reference_rejected(self):
        ref = {"type": "file", "values": [1.0, 2.0] * 30}
        plants = [{"a": [-0.5], "b": [1.0]}, {"a": [], "b": [0.5], "phase_offset": 0.5}]
        with pytest.raises(ConfigError, match=r"plant\[1\]: phase_offset"):
            parse_config(minimal_config(reference=ref, plants=plants))
        plants[1]["phase_offset"] = 0.0
        parse_config(minimal_config(reference=ref, plants=plants))


class TestRunFixed:
    def test_zero_horizon(self):
        trace = run_scenario(parse_config(minimal_config(horizon=0)))
        assert trace.status == "ok"
        assert len(trace.apps[0].columns["k"]) == 0
        assert trace.summary["apps"][0]["samples"] == 0

    def test_columns_present_and_sized(self):
        trace = run_scenario(parse_config(minimal_config()))
        for name in TRACE_FIELDS:
            assert len(trace.apps[0].columns[name]) == 50

    def test_multi_app_isolation(self):
        # independent plants on a contention-free protocol: each app's trace
        # equals its single-app run exactly
        cfg3 = minimal_config(plants=[
            {"a": [-0.5], "b": [1.0]},
            {"a": [-0.3], "b": [1.5, 0.3]},
            {"a": [], "b": [0.8]},
        ])
        tr3 = run_scenario(parse_config(cfg3))
        for i, plant in enumerate(cfg3["plants"]):
            tr1 = run_scenario(parse_config(minimal_config(plants=[plant])))
            for name in TRACE_FIELDS:
                if name == "app":
                    continue
                a = tr3.apps[i].columns[name]
                b = tr1.apps[0].columns[name]
                if a.dtype == object:
                    assert list(a) == list(b)
                else:
                    assert np.array_equal(a, b)

    def test_divergence_reported_with_partial_trace(self):
        # a reference beyond the magnitude guard forces the first output to
        # trip the divergence check
        cfg = minimal_config(
            plants=[{"a": [], "b": [1.0]}],
            reference={"type": "constant", "level": 1e13},
            horizon=100,
        )
        trace = run_scenario(parse_config(cfg))
        assert "diverged" in trace.status
        assert len(trace.apps[0].columns["k"]) < 100


class TestExportRoundTrip:
    def test_csv_header_pinned(self, tmp_path):
        trace = run_scenario(parse_config(minimal_config(horizon=3)))
        p = tmp_path / "t.csv"
        export_trace(trace, p, "csv")
        header = p.read_text().splitlines()[0]
        assert header == ",".join(TRACE_FIELDS)
        assert header == ("app,k,mode,y,yref,yref_prime,e,u,delay,eps,V,dV,"
                          "phi_err,rank,alpha_hat,ortho_res,switch,dist")

    def test_empty_trace_header_only(self, tmp_path):
        trace = run_scenario(parse_config(minimal_config(horizon=0)))
        p = tmp_path / "t.csv"
        export_trace(trace, p, "csv")
        assert p.read_text().strip() == ",".join(TRACE_FIELDS)

    def test_csv_round_trip_exact(self, tmp_path):
        trace = run_scenario(parse_config(minimal_config(horizon=40)))
        p = tmp_path / "t.csv"
        export_trace(trace, p, "csv")
        cols = read_trace_csv(p)
        for name in TRACE_FIELDS:
            a = trace.apps[0].columns[name]
            b = cols[name]
            if a.dtype == object:
                assert list(a) == list(b)
            else:
                assert np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def test_json_round_trip(self, tmp_path):
        trace = run_scenario(parse_config(minimal_config(horizon=25)))
        p = tmp_path / "t.json"
        export_trace(trace, p, "json")
        back = load_trace(p)
        assert back.status == trace.status
        for name in TRACE_FIELDS:
            a = trace.apps[0].columns[name]
            b = back.apps[0].columns[name]
            if a.dtype == object:
                assert list(a) == list(b)
            else:
                assert np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def test_json_two_apps_structure(self, tmp_path):
        cfg = minimal_config(plants=[{"a": [-0.5], "b": [1.0]}, {"a": [], "b": [0.5]}])
        trace = run_scenario(parse_config(cfg))
        p = tmp_path / "t.json"
        export_trace(trace, p, "json")
        doc = json.loads(p.read_text())
        assert len(doc["apps"]) == 2
        assert "bus" in doc and "summary" in doc

    def test_determinism_byte_identical(self, tmp_path):
        cfg = minimal_config(horizon=200, disturbance={"random": True, "t_dw": 30})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace(run_scenario(parse_config(cfg)), p1, "csv")
        export_trace(run_scenario(parse_config(cfg)), p2, "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_random_disturbance(self, tmp_path):
        base = minimal_config(horizon=400, disturbance={"random": True, "t_dw": 50})
        t1 = run_scenario(parse_config(base))
        base2 = dict(base); base2["seed"] = 4
        t2 = run_scenario(parse_config(base2))
        assert not np.array_equal(t1.apps[0].columns["dist"], t2.apps[0].columns["dist"])


class TestMonitors:
    def test_fixed_monitors_pass(self):
        cfg = parse_config(str(CONFIG_DIR / "fixed_tt.json"))
        trace = run_scenario(cfg)
        report = evaluate_monitors(trace, cfg)
        assert report.all_passed, [r.name for r in report.results if not r.passed]

    def test_monitor_failure_reported(self):
        cfg = parse_config(minimal_config(
            horizon=300,
            tolerances={"settle_sample": 10, "tracking_tol": 1e-12},
        ))
        report = evaluate_monitors(run_scenario(cfg), cfg)
        failing = [r for r in report.results if not r.passed]
        assert any(r.name == "tracking_tail" for r in failing)


class TestCLI:
    def run_cli(self, *args):
        # the child imports the adaptbus these tests import, installed or not
        src = str(Path(adaptbus.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "adaptbus", *args],
            capture_output=True, text=True,
            cwd=str(CONFIG_DIR.parent), env=dict(os.environ, PYTHONPATH=path),
        )

    def test_check_ok(self):
        out = self.run_cli("check", "--config", str(CONFIG_DIR / "fixed_tt.json"))
        assert out.returncode == 0
        assert "config ok" in out.stdout

    def test_check_rejects(self, tmp_path):
        bad = minimal_config(plants=[{"a": [], "b": [1.0, 2.0]}])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        out = self.run_cli("check", "--config", str(p))
        assert out.returncode == 2
        assert "configuration error" in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_short_table_is_config_error(self, tmp_path, command):
        cfg = minimal_config(protocol={"kind": "fixed", "d": 2},
                             reference={"type": "file", "values": list(range(1, 11))})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "configuration error" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_impulse_after_horizon_is_config_error(self, tmp_path, command):
        cfg = json.loads((CONFIG_DIR / "switching_1app.json").read_text())
        cfg["horizon"] = 300  # the impulses stay at 1500 and later
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "configuration error: disturbance: impulse time 1500 lies outside" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("key,mapping", [
        ("dyn_priorities", {"0": 1, "5": 2, "2": 3}),
        ("dyn_priorities", {"1": 1, "2": 2}),
        ("static_slots", {"0": 0, "1": 1, "3": 2}),
    ], ids=["priority_for_unknown_app", "priority_missing_app", "static_slot_for_unknown_app"])
    def test_bus_mapping_must_name_every_app(self, tmp_path, command, key, mapping):
        cfg = json.loads((CONFIG_DIR / "switching_3app.json").read_text())
        cfg["protocol"][key] = mapping
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "configuration error" in out.stderr
        assert "must name exactly the apps 0..2" in out.stderr
        assert "Traceback" not in out.stderr

    def test_run_and_analyze(self, tmp_path):
        cfg = minimal_config(horizon=400, tolerances={"settle_sample": 300, "tracking_tol": 0.05})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = self.run_cli("run", "--config", str(p), "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stdout + out.stderr
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "trace.json").exists()
        an = self.run_cli("analyze", "--trace", str(tmp_path / "out" / "trace.json"))
        assert an.returncode == 0
        assert "[PASS]" in an.stdout

    def test_monitor_failure_exit_code(self, tmp_path):
        cfg = minimal_config(horizon=200, tolerances={"settle_sample": 5, "tracking_tol": 1e-15})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = self.run_cli("run", "--config", str(p), "--out", str(tmp_path / "out"))
        assert out.returncode == 1
        assert "[FAIL]" in out.stdout

    def test_missing_trace_errors(self):
        out = self.run_cli("analyze", "--trace", "/nonexistent/trace.json")
        assert out.returncode == 2

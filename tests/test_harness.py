import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptbus
from adaptbus.harness import (
    _MONITORS,
    DEFAULT_TOLERANCES,
    MAX_DELAY,
    MAX_HORIZON,
    TRACE_FIELDS,
    ConfigError,
    check_impulse_times,
    evaluate_monitors,
    export_trace,
    load_trace,
    parse_config,
    read_trace_csv,
    run_scenario,
)
from adaptbus.netbus import BUS_COLUMNS, BusConfig
from adaptbus.plant import make_impulse_train

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


SWITCHING = {"kind": "switching", "d2": 2, "eth": 0.1}


def _dumps(doc) -> str:
    """json.dumps, which also writes an integer past Python's int-string limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


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

    @pytest.mark.parametrize("eth", [0.0, -0.1])
    def test_switching_requires_positive_eth(self, eth):
        with pytest.raises(ConfigError, match=re.escape(f"protocol.eth must be > 0, got {eth}")):
            parse_config(minimal_config(protocol={"kind": "switching", "d2": 2, "eth": eth}))

    def test_long_one_line_json_text_parses(self, tmp_path):
        # a scenario is a path or a dict: JSON text is read from its file,
        # and a string is always a path, never the document itself
        text = json.dumps({"name": "x" * 300, "horizon": 10, "plants": [{"a": [], "b": [1.0]}]})
        assert "\n" not in text
        p = tmp_path / "one_line.json"
        p.write_text(text)
        assert parse_config(p).name == parse_config(str(p)).name == "x" * 300
        with pytest.raises(OSError):
            parse_config(text)

    def test_long_one_line_json_list_is_config_error(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text(" " + json.dumps(list(range(100))))
        with pytest.raises(ConfigError, match=f"{p}: the scenario must be a JSON object, got list"):
            parse_config(p)

    def test_disturbance_gap_checked(self):
        bad = {"times": [0, 5], "amplitudes": 1.0, "t_dw": 10}
        with pytest.raises(ConfigError, match="dwell"):
            parse_config(minimal_config(disturbance=bad))

    def test_richness_declaration_checked(self):
        with pytest.raises(ConfigError, match="richness"):
            parse_config(minimal_config(reference={
                "type": "sinusoid",
                "components": [{"amplitude": 1.0, "omega": 0.4}],
                "sr_order": 3,
            }))

    @pytest.mark.parametrize("shared", [
        {"random": True, "t_dw": 20, "amplitudes": 0.5},
        {"times": [5, 30], "amplitudes": 0.5, "t_dw": 20},
    ], ids=["shared_random", "shared_explicit"])
    def test_disturbance_and_prior_resolve_per_app(self, shared):
        # each app takes its own disturbance and beta0_init, else the shared
        # ones; random trains draw from one generator seeded by `seed`, app
        # by app, and explicit trains draw nothing
        own_random = {"random": True, "t_dw": 15, "amplitudes": -0.2}
        own_times = {"times": [3, 40], "amplitudes": [1.5, 2.0], "t_dw": 10}
        plants = [{"a": [], "b": [0.25]},
                  {"a": [], "b": [0.25], "disturbance": own_random, "beta0_init": 0.4},
                  {"a": [], "b": [0.25], "disturbance": own_times},
                  {"a": [], "b": [0.25], "beta0_init": -0.3}]
        cfg = parse_config(minimal_config(plants=plants, disturbance=shared, beta0_init=0.7))
        # each train keeps the dwell gap of the spec it was drawn from
        assert [spec.train.t_dw for spec in cfg.plants] == [20, 15, 10, 20]
        assert [spec.beta0_init for spec in cfg.plants] == [0.7, 0.4, 0.7, -0.3]
        rng = np.random.default_rng(3)

        def shared_train():
            if "times" in shared:
                return make_impulse_train(20, 50, 0.5, times=[5, 30])
            return make_impulse_train(20, 50, 0.5, rng=rng)

        want = [shared_train(), make_impulse_train(15, 50, -0.2, rng=rng),
                make_impulse_train(10, 50, [1.5, 2.0], times=[3, 40]), shared_train()]
        for spec, train in zip(cfg.plants, want):
            assert spec.train.times.tolist() == train.times.tolist()
            assert spec.train.amplitudes.tolist() == train.amplitudes.tolist()
        assert cfg.plants[0].train.times.size > 1 and cfg.plants[1].train.times.size > 1
        if "random" in shared:
            # the last app draws after the others, so its train is not the first app's
            assert cfg.plants[3].train.times.tolist() != cfg.plants[0].train.times.tolist()
        trace = run_scenario(cfg)
        for app, spec in zip(trace.apps, cfg.plants):
            assert app.columns["dist"].tobytes() == spec.train.dense(50).tobytes()
        bare = parse_config(minimal_config(plants=plants[:1]))
        assert bare.plants[0].train.times.size == 0
        assert bare.plants[0].beta0_init == 1.0

    @pytest.mark.parametrize("protocol, delays, gammas, eth", [
        ({"kind": "fixed", "d": 1}, (1,), (0.3,), -1.0),
        ({"kind": "fixed", "d": 2}, (2,), (0.7,), -1.0),
        ({"kind": "switching", "d2": 3, "eth": 0.05}, (1, 3), (0.3, 0.7), 0.05),
    ])
    def test_loop_delays_and_gains_resolved(self, protocol, delays, gammas, eth):
        # gamma1 guards the estimate at delay 1, gamma2 any longer delay
        cfg = parse_config(minimal_config(protocol=protocol, gammas=[0.3, 0.7]))
        assert (cfg.delays, cfg.gammas, cfg.eth) == (delays, gammas, eth)

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
            if min(times) < 0:
                # no horizon reaches a time below 0, so parsing rejects it
                with pytest.raises(ConfigError, match=r"outside the horizon \[0, 50\)"):
                    parse_config(raw)
                continue
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


@pytest.mark.parametrize("n, message_minislots", [(1, 1), (3, 1), (3, 2), (5, 3)])
def test_the_scenario_bus_is_the_default_bus(n, message_minislots):
    # one rule for an unset budget, two minislots per app and at least four,
    # whatever a message takes; unset priorities put app i at i + 1
    protocol = {"kind": "switching", "d2": 3, "eth": 0.05, "message_minislots": message_minislots}
    cfg = parse_config(minimal_config(protocol=protocol, plants=[{"a": [], "b": [0.25]}] * n))
    bus = BusConfig.default(n, d2=3, message_minislots=message_minislots)
    assert cfg.bus_config() == bus
    assert bus.minislots_per_cycle == max(4, 2 * n)
    assert bus.dyn_priorities == {i: i + 1 for i in range(n)}


def test_a_null_budget_is_config_error():
    # an unset budget is a missing key, never null
    protocol = {"kind": "switching", "d2": 2, "eth": 0.05, "minislots_per_cycle": None}
    with pytest.raises(ConfigError, match=re.escape("protocol.minislots_per_cycle must be an integer, got null")):
        parse_config(minimal_config(protocol=protocol))


class TestTolerances:
    @pytest.mark.parametrize("tolerances, message", [
        ({"dv_tol": None}, "tolerances.dv_tol must be a number, got null"),
        ({"settle_samples": 10}, "unknown key 'settle_samples'"),
        ({"bound": "1e3"}, 'tolerances.bound must be a number, got "1e3"'),
        ({"tracking_tol": True}, "tolerances.tracking_tol must be a number, got true"),
        ({"settle_sample": False}, "tolerances.settle_sample must be an integer, got false"),
        ({"ortho_window": 20.5}, "tolerances.ortho_window must be an integer, got 20.5"),
        ({"check_sr": 1}, "tolerances.check_sr must be true or false, got 1"),
        ({"rank_tol": [1e-6]}, "tolerances.rank_tol must be a number"),
        ({"bound": 10 ** 400}, "tolerances.bound must be below 1.8e308 in magnitude, got a 401-digit integer"),
        ([1e-6], "tolerances must be a JSON object, got list"),
    ], ids=["null", "unknown_key", "string", "bool_for_float", "bool_for_int", "fraction_for_int",
            "number_for_bool", "list_value", "huge_int", "list"])
    def test_bad_tolerance_is_config_error(self, tolerances, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(minimal_config(tolerances=tolerances))

    @pytest.mark.parametrize("overrides, message", [
        ({"horizon": 1e30}, f"horizon must lie in [0, {MAX_HORIZON}], got 1e+30"),
        # rejected before the random train's draws, which would not end
        ({"horizon": 1e12, "disturbance": {"random": True, "t_dw": 5}},
         f"horizon must lie in [0, {MAX_HORIZON}], got {10 ** 12}"),
        ({"horizon": MAX_HORIZON + 1}, f"horizon must lie in [0, {MAX_HORIZON}], got {MAX_HORIZON + 1}"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": -1, "disturbance": {"random": True, "t_dw": 5}}, "seed must be >= 0, got -1"),
        ({"tolerances": {"settle_sample": -5}}, "tolerances.settle_sample must be >= 0, got -5"),
        ({"tolerances": {"ortho_window": 0}}, "tolerances.ortho_window must be >= 1, got 0"),
        ({"tolerances": {"bound": 0}}, "tolerances.bound must be > 0, got 0.0"),
        ({"tolerances": {"tracking_tol": -1e-3}}, "tolerances.tracking_tol must be > 0, got -0.001"),
        ({"tolerances": {"rank_tol": 0.0}}, "tolerances.rank_tol must be > 0, got 0.0"),
        ({"tolerances": {"ortho_tol": -1}}, "tolerances.ortho_tol must be > 0, got -1.0"),
        ({"tolerances": {"dv_tol": -1e-9}}, "tolerances.dv_tol must be >= 0, got -1e-09"),
        ({"tolerances": {"dv_fixed_tol": -1e-12}}, "tolerances.dv_fixed_tol must be >= 0, got -1e-12"),
        ({"protocol": {"kind": "fixed", "d": 0}}, f"protocol.d must lie in [1, {MAX_DELAY}], got 0"),
        ({"protocol": {"kind": "fixed", "d": MAX_DELAY + 1}},
         f"protocol.d must lie in [1, {MAX_DELAY}], got {MAX_DELAY + 1}"),
        ({"protocol": {"kind": "fixed", "d": 1e300}}, f"protocol.d must lie in [1, {MAX_DELAY}], got 1e+300"),
        ({"protocol": dict(SWITCHING, d2=1)}, f"protocol.d2 must lie in [2, {MAX_DELAY}], got 1"),
        ({"protocol": dict(SWITCHING, d2=MAX_DELAY + 1)},
         f"protocol.d2 must lie in [2, {MAX_DELAY}], got {MAX_DELAY + 1}"),
        ({"protocol": dict(SWITCHING, d2=1e6)}, f"protocol.d2 must lie in [2, {MAX_DELAY}], got 1000000"),
    ], ids=["horizon_1e30", "horizon_1e12_random", "horizon_past_bound", "seed", "seed_random", "settle_sample",
            "ortho_window", "bound", "tracking_tol", "rank_tol", "ortho_tol", "dv_tol", "dv_fixed_tol",
            "d_0", "d_past_bound", "d_1e300", "d2_1", "d2_past_bound", "d2_1e6"])
    def test_out_of_range_is_config_error(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config(**overrides))
        assert str(info.value) == message

    def test_integer_past_the_int_string_limit_is_config_error(self, tmp_path):
        # json cannot write such an integer of a dict nor read one from a file
        p = tmp_path / "cfg.json"
        p.write_text(_dumps(minimal_config(horizon=10**5000)))
        for source, where in ((minimal_config(horizon=10**5000), "the scenario"), (p, str(p))):
            with pytest.raises(ConfigError) as info:
                parse_config(source)
            assert str(info.value).startswith(f"{where}: Exceeds the limit (4300 digits) for integer string conversion")

    def test_range_edges_parse(self):
        tol = {"settle_sample": 0, "ortho_window": 1, "dv_tol": 0.0, "dv_fixed_tol": 0.0}
        cfg = parse_config(minimal_config(horizon=MAX_HORIZON, seed=0, tolerances=tol))
        assert (cfg.horizon, cfg.seed) == (MAX_HORIZON, 0) and cfg.tolerances == dict(DEFAULT_TOLERANCES, **tol)

    @pytest.mark.parametrize("protocol", [{"kind": "fixed", "d": MAX_DELAY},
                                          {"kind": "switching", "d2": MAX_DELAY, "eth": 0.1}],
                             ids=["d", "d2"])
    def test_delay_at_its_bound_runs(self, protocol):
        cfg = parse_config(minimal_config(protocol=protocol, horizon=2 * MAX_DELAY))
        assert cfg.delays[-1] == MAX_DELAY
        assert len(run_scenario(cfg).apps[0].columns["k"]) > 0

    def test_each_tolerance_takes_its_default_type(self):
        cfg = parse_config(minimal_config(tolerances={"bound": 500, "settle_sample": 30.0, "check_sr": False}))
        assert cfg.tolerances == dict(DEFAULT_TOLERANCES, bound=500.0, settle_sample=30, check_sr=False)
        assert [type(v) for v in cfg.tolerances.values()] == [type(v) for v in DEFAULT_TOLERANCES.values()]


class TestKeysAndIntegers:
    @pytest.mark.parametrize("overrides, message", [
        ({"horizn": 50}, "the scenario: unknown key 'horizn'; the keys are name, horizon, seed, protocol,"),
        ({"plants": [{"a": [], "b": [1.0], "beta0_int": 0.5}]},
         "plant[0]: unknown key 'beta0_int'; the keys are a, b, h,"),
        ({"plants": [{"a": [], "b": [1.0], "d_nominal": 1}]}, "plant[0]: unknown key 'd_nominal'"),
        ({"protocol": dict(SWITCHING, minislot_per_cycle=4)},
         "protocol: unknown key 'minislot_per_cycle'; the keys are kind, d2, eth, minislots_per_cycle,"),
        ({"protocol": {"kind": "fixed", "d": 1, "eth": 0.1}}, "protocol: unknown key 'eth'; the keys are kind, d"),
        ({"reference": {"type": "constant", "level": 1.0, "period": 5}},
         "reference: unknown key 'period'; the keys are type, level, sr_order"),
        ({"reference": {"type": "sinusoid", "components": [{"amplitude": 1.0, "omega": 0.4, "phse": 0.1}]}},
         "reference: components[0]: unknown key 'phse'; the keys are amplitude, omega, phase"),
        ({"reference": {"type": "sinusoid", "components": [[1.0, 0.4, 0.0, 9.0]]}},
         "reference: components[0] has 4 values; the list is [amplitude, omega, phase]"),
        ({"disturbance": {"times": [5], "t_dw": 5, "amplitude": 2.0}},
         "disturbance: unknown key 'amplitude'; the keys are t_dw, times, random, amplitudes"),
        ({"plants": [{"a": [], "b": [1.0], "disturbance": {"random": True, "t_dw": 5, "seed": 1}}]},
         "plant[0].disturbance: unknown key 'seed'"),
    ], ids=["document", "plant", "d_nominal", "switching", "fixed", "reference", "component", "component_list",
            "disturbance", "plant_disturbance"])
    def test_unknown_key_is_config_error(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(minimal_config(**overrides))

    @pytest.mark.parametrize("overrides, message", [
        ({"horizon": 10.7}, "horizon must be an integer, got 10.7"),
        ({"seed": 0.5}, "seed must be an integer, got 0.5"),
        ({"protocol": {"kind": "fixed", "d": 1.9}}, "protocol.d must be an integer, got 1.9"),
        ({"protocol": dict(SWITCHING, d2=2.9)}, "protocol.d2 must be an integer, got 2.9"),
        ({"protocol": dict(SWITCHING, minislots_per_cycle=4.5)},
         "protocol.minislots_per_cycle must be an integer, got 4.5"),
        ({"protocol": dict(SWITCHING, message_minislots=1.5)}, "protocol.message_minislots must be an integer"),
        ({"protocol": dict(SWITCHING, dyn_priorities=[1.5])}, "protocol.dyn_priorities must be an integer"),
        ({"disturbance": {"times": [10.6], "t_dw": 5}}, "disturbance: an impulse time must be an integer, got 10.6"),
        ({"disturbance": {"times": [10], "t_dw": 5.5}}, "disturbance.t_dw must be an integer, got 5.5"),
        ({"gammas": []}, "gammas must hold one or two gains, got 0"),
        ({"gammas": [0.5, 0.5, 0.5]}, "gammas must hold one or two gains, got 3"),
    ], ids=["horizon", "seed", "d", "d2", "minislots", "message_minislots", "priority", "impulse_time", "t_dw",
            "no_gammas", "three_gammas"])
    def test_fraction_or_bad_gain_count_is_config_error(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(minimal_config(**overrides))

    def test_integral_floats_are_integers(self):
        as_floats = parse_config(minimal_config(
            horizon=50.0, seed=3.0, protocol=dict(SWITCHING, d2=2.0, minislots_per_cycle=6.0, message_minislots=2.0),
            disturbance={"times": [10.0], "t_dw": 5.0}))
        as_ints = parse_config(minimal_config(
            horizon=50, seed=3, protocol=dict(SWITCHING, d2=2, minislots_per_cycle=6, message_minislots=2),
            disturbance={"times": [10], "t_dw": 5}))
        for cfg in (as_floats, as_ints):
            assert (cfg.horizon, cfg.seed, cfg.delays) == (50, 3, (1, 2))
            assert type(cfg.horizon) is int and type(cfg.delays[1]) is int
            assert cfg.plants[0].train.times.tolist() == [10] and cfg.plants[0].train.t_dw == 5
        assert as_floats.bus == as_ints.bus == BusConfig.default(1, d2=2, minislots_per_cycle=6, message_minislots=2)

    def test_sample_period_is_metadata(self):
        # h is accepted and read by nothing: the run is the same without it
        plain = run_scenario(parse_config(minimal_config()))
        timed = run_scenario(parse_config(minimal_config(plants=[{"a": [-0.5], "b": [1.0], "h": 0.5}])))
        assert all(np.array_equal(plain.apps[0].columns[name], timed.apps[0].columns[name]) for name in TRACE_FIELDS)

    def test_protocol_and_bus_resolved_once(self):
        fixed = parse_config(minimal_config())
        assert (fixed.kind, fixed.bus, fixed.bus_config()) == ("fixed", None, None)
        cfg = parse_config(minimal_config(protocol=dict(SWITCHING, dyn_priorities={"0": 4})))
        assert cfg.kind == "switching" and not hasattr(cfg, "protocol")
        assert cfg.bus_config() is cfg.bus == BusConfig.default(1, d2=2, dyn_priorities={0: 4})



PLANT = {"a": [], "b": [1.0]}


class TestTypedValues:
    """Every scenario field is read through its schema: a value of the wrong
    kind is a ConfigError naming the field, never a cast, a truthiness test or
    a crash later in the run."""

    @pytest.mark.parametrize("overrides, message", [
        ({"plants": [dict(PLANT, u_init=[[1.0]])]}, "plant[0].u_init must be a number, got [1.0]"),
        ({"plants": [dict(PLANT, y_init=["a"])]}, 'plant[0].y_init must be a number, got "a"'),
        ({"plants": [dict(PLANT, oracle="no")]}, 'plant[0].oracle must be true or false, got "no"'),
        ({"protocol": dict(SWITCHING, eth="0.05")}, 'protocol.eth must be a number, got "0.05"'),
        ({"protocol": dict(SWITCHING, eth=float("nan"))}, "protocol.eth must be a number, got NaN"),
        ({"horizon": True}, "horizon must be an integer, got true"),
        ({"plants": [dict(PLANT, a=None)]}, "plant[0].a must be a list, got null"),
        ({"disturbance": {"random": "no", "t_dw": 3}}, 'disturbance.random must be true or false, got "no"'),
        ({"reference": {"type": "square", "sr_order": 1.7}}, "reference.sr_order must be an integer, got 1.7"),
        ({"beta0_init": True}, "beta0_init must be a number, got true"),
        ({"gammas": [0.5, float("nan")]}, "gammas must be a number, got NaN"),
        ({"plants": [dict(PLANT, phase_offset=float("inf"))]}, "plant[0].phase_offset must be a number, got Infinity"),
        ({"plants": [dict(PLANT, b=[float("-inf")])]}, "plant[0].b must be a number, got -Infinity"),
        ({"reference": {"type": "constant", "level": "2"}}, 'reference.level must be a number, got "2"'),
        ({"horizon": "50"}, 'horizon must be an integer, got "50"'),
        ({"plants": [dict(PLANT, oracle=1)]}, "plant[0].oracle must be true or false, got 1"),
        ({"disturbance": {"random": 1, "t_dw": 3}}, "disturbance.random must be true or false, got 1"),
        ({"reference": {"type": "square", "period": 10.5}}, "reference.period must be an integer, got 10.5"),
        ({"name": 5}, "name must be a string, got 5"),
        ({"name": None}, "name must be a string, got null"),
        ({"seed": None}, "seed must be an integer, got null"),
        ({"protocol": dict(SWITCHING, message_minislots=None)},
         "protocol.message_minislots must be an integer, got null"),
        ({"disturbance": {"times": None, "t_dw": 3}}, "disturbance.times must be a list, got null"),
        ({"plants": [dict(PLANT, disturbance={"times": [3], "t_dw": 3, "amplitudes": None})]},
         "plant[0].disturbance.amplitudes must be a number, got null"),
        ({"reference": {"type": "sinusoid", "components": [{"amplitude": 1.0, "omega": None}]}},
         "reference: components[0].omega must be a number, got null"),
        ({"reference": {"type": "file", "values": [1.0, None]}}, "reference.values must be a number, got null"),
        ({"plants": [dict(PLANT, h=None)]}, "plant[0].h must be a number, got null"),
        ({"tolerances": None}, "tolerances must be a JSON object, got null"),
        ({"plants": [{"a": []}]}, "plant[0]: missing key 'b'"),
        ({"reference": {"type": "sinusoid", "components": [[0.4]]}},
         "reference: components[0] has 1 values; the list is [amplitude, omega, phase]"),
        ({"protocol": {"kind": "tt", "d": 1}}, 'protocol.kind must be one of fixed, switching, got "tt"'),
        ({"reference": {"level": 1.0}}, "reference.type must be one of constant, sinusoid, square, file, got null"),
    ], ids=["u_init_nested", "y_init_string", "oracle_string", "eth_string", "eth_nan", "horizon_true", "a_null",
            "random_string", "sr_order_fraction", "true_number", "nan_gain", "infinite_offset",
            "minus_infinity", "string_level", "string_integer", "number_oracle", "number_random",
            "period_fraction", "number_name", "null_name", "null_seed", "null_message_minislots", "null_times",
            "null_amplitudes", "null_omega", "null_table_value", "null_h", "null_tolerances", "missing_b",
            "short_component", "unknown_protocol", "no_reference_type"])
    def test_ill_typed_value_is_config_error(self, overrides, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(**overrides))
        assert str(exc.value) == message

    def test_null_takes_the_default_where_it_may(self):
        # the shared and per-plant disturbance, a plant's beta0_init,
        # dyn_priorities and sr_order: null is the same as a missing key
        ref = {"type": "sinusoid", "components": [[1.0, 0.4]]}
        bare = parse_config(minimal_config(protocol=SWITCHING, reference=ref, plants=[PLANT, PLANT]))
        nulls = parse_config(minimal_config(
            protocol=dict(SWITCHING, dyn_priorities=None), reference=dict(ref, sr_order=None), disturbance=None,
            plants=[dict(PLANT, disturbance=None, beta0_init=None)] * 2))
        assert nulls.bus == bare.bus and nulls.reference == bare.reference
        assert nulls.reference.declared_sr_order == bare.reference.declared_sr_order == 2
        for cfg in (bare, nulls):
            assert [(p.beta0_init, p.train.times.size, p.oracle) for p in cfg.plants] == [(1.0, 0, True)] * 2

    def test_unreadable_reference_file_is_config_error(self, tmp_path):
        # the path is read at parse, so its failure is the reference's fault, named as such
        for path, text in ((tmp_path / "missing.txt", None), (tmp_path / "words.txt", "one\ntwo\n")):
            if text is not None:
                path.write_text(text)
            raw = {"plants": [{"b": [0.25]}], "reference": {"type": "file", "path": str(path)}}
            with pytest.raises(ConfigError, match=re.escape(f"reference.path: cannot read {str(path)!r}: ")):
                parse_config(raw)
        table = tmp_path / "table.txt"
        table.write_text("\n".join(["1.5"] * 52))
        cfg = parse_config(minimal_config(reference={"type": "file", "path": str(table)}))
        assert cfg.reference.sequence(51).tolist() == [1.5] * 51

    @pytest.mark.parametrize("priorities, key", [
        ({"0": 1, "00": 2}, "00"),
        ({"0": 1, " 1": 2}, " 1"),
        ({"0": 1, "a": 2}, "a"),
        ({"0": 1, "+1": 2}, "+1"),
    ], ids=["leading_zero", "space", "letter", "sign"])
    def test_priority_keys_name_each_app_once(self, priorities, key):
        protocol = dict(SWITCHING, dyn_priorities=priorities)
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_config(protocol=protocol, plants=[PLANT, PLANT]))
        assert str(exc.value) == (f"protocol.dyn_priorities: key {key!r} is not an app index in plain decimal, "
                                  "such as '0' or '12'")
        cfg = parse_config(minimal_config(protocol=dict(SWITCHING, dyn_priorities={"1": 2, "0": 1}),
                                          plants=[PLANT, PLANT]))
        assert cfg.bus.dyn_priorities == {0: 1, 1: 2}


class TestRunFixed:
    def test_zero_horizon(self):
        for protocol in ({"kind": "fixed", "d": 1}, {"kind": "switching", "d2": 2, "eth": 0.05}):
            trace = run_scenario(parse_config(minimal_config(horizon=0, protocol=protocol)))
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
        assert header == "app,k,mode,y,yref,e,u,delay,eps,V,dV,rank,alpha_hat,ortho_res,switch,dist"

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
        assert "bus" not in doc and "summary" in doc  # a fixed-protocol trace has no bus

    @pytest.mark.parametrize("name,horizon", [("fixed_tt", 300), ("switching_3app", 1600)])
    def test_trace_in_the_indent_1_layout_loads(self, tmp_path, name, horizon):
        # traces were once written as json.dumps(doc, indent=1)
        raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        raw["horizon"] = horizon
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        export_trace(run_scenario(parse_config(raw)), new, "json")
        old.write_text(json.dumps(json.loads(new.read_text()), indent=1))
        a, b = load_trace(new), load_trace(old)
        assert (b.status, b.summary, b.bus, b.config) == (a.status, a.summary, a.bus, a.config)
        assert [app.switches for app in b.apps] == [app.switches for app in a.apps]
        assert any(app.switches for app in a.apps) == (name == "switching_3app")
        for app_a, app_b in zip(a.apps, b.apps, strict=True):
            for col in TRACE_FIELDS:
                x, y = app_a.columns[col], app_b.columns[col]
                assert x.dtype == y.dtype
                assert (list(x) == list(y)) if x.dtype == object else x.tobytes() == y.tobytes()

        def verdicts(trace):
            return [(r.name, r.passed, repr(r.measured), repr(r.threshold))
                    for r in evaluate_monitors(trace).results]

        assert verdicts(b) == verdicts(a)

    @pytest.mark.parametrize("name,horizon", [("fixed_tt", 300), ("switching_3app", 1600)])
    def test_version_2_trace_loads_as_version_3(self, tmp_path, name, horizon):
        # versions 2 to 4 wrote the bus columns; versions 2 and 3 held every
        # column, version 2 two more, yref_prime and phi_err, which loading
        # ignores; versions 4 and 5 derive what they leave out, and version 5
        # replays the bus
        raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        raw["horizon"] = horizon
        trace = run_scenario(parse_config(raw))
        v5, v4, v3, v2 = (tmp_path / f"v{v}.json" for v in (5, 4, 3, 2))
        export_trace(trace, v5, "json")
        doc = json.loads(v5.read_text())
        assert doc["schema_version"] == 5 and all("e" not in app["columns"] for app in doc["apps"])
        assert ("bus" in doc) == (name == "switching_3app")
        doc["bus"] = {col: trace.bus[col].tolist() for col in BUS_COLUMNS}
        v4.write_text(json.dumps(dict(doc, schema_version=4)))
        for app, entry in zip(trace.apps, doc["apps"], strict=True):
            entry["columns"] = {col: app.columns[col].tolist() for col in TRACE_FIELDS}
        v3.write_text(json.dumps(dict(doc, schema_version=3)))
        for entry in doc["apps"]:
            cols = entry["columns"]
            cols.update(yref_prime=[v + 0.5 for v in cols["yref"]], phi_err=[1.0] * len(cols["k"]))
        v2.write_text(json.dumps(dict(doc, schema_version=2)))
        loaded = [load_trace(v5), load_trace(v4), load_trace(v3), load_trace(v2)]
        for other in loaded:
            assert (other.status, other.summary, other.bus, other.config) == (
                loaded[0].status, loaded[0].summary, loaded[0].bus, loaded[0].config)
            for app, app_other in zip(trace.apps, other.apps, strict=True):
                assert list(app_other.columns) == TRACE_FIELDS
                for col in TRACE_FIELDS:
                    x, y = app.columns[col], app_other.columns[col]
                    assert x.dtype == y.dtype
                    assert (list(x) == list(y)) if x.dtype == object else x.tobytes() == y.tobytes()

        def verdicts(trace):
            return [(r.name, r.passed, repr(r.measured), repr(r.threshold), r.detail)
                    for r in evaluate_monitors(trace).results]

        assert [verdicts(other) for other in loaded] == [verdicts(trace)] * 4

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

    @pytest.mark.parametrize("config, names", [
        ("fixed_tt.json", ["completed", "bounded_signals", "tracking_tail", "regressor_rank",
                           "orthogonality_residual", "parameter_error_monotone"]),
        ("switching_1app.json", ["completed", "bounded_signals", "impulse_triggers_tt", "re_entry_containment",
                                 "et_phase_length", "lyapunov_in_mode", "bus_delay_dichotomy",
                                 "minislot_conservation"]),
    ])
    def test_results_follow_the_monitor_order(self, config, names):
        # the report is each monitor's results in turn, in _MONITORS order
        cfg = parse_config(str(CONFIG_DIR / config))
        trace = run_scenario(cfg)
        each = [[r.name for r in monitor(trace, cfg, cfg.tolerances)] for monitor in _MONITORS[cfg.kind]]
        assert [r.name for r in evaluate_monitors(trace, cfg).results] == [n for group in each for n in group] == names

    @pytest.mark.parametrize("where", ["plant", "shared"])
    def test_parameter_error_monotone_skipped_under_any_disturbance(self, where):
        # the ideal model has no disturbance, so V may rise at an impulse
        dist = {"times": [100], "t_dw": 50}
        plant = {"a": [-0.5], "b": [1.0]}
        raw = (minimal_config(horizon=300, plants=[dict(plant, disturbance=dist)]) if where == "plant"
               else minimal_config(horizon=300, plants=[plant], disturbance=dist))
        cfg = parse_config(raw)
        names = [r.name for r in evaluate_monitors(run_scenario(cfg), cfg).results]
        assert "tracking_tail" in names and "parameter_error_monotone" not in names
        cfg = parse_config(minimal_config(horizon=300, plants=[plant]))
        names = [r.name for r in evaluate_monitors(run_scenario(cfg), cfg).results]
        assert "parameter_error_monotone" in names

    @pytest.mark.parametrize("dist", [{"random": True, "t_dw": 15}, {"times": [12, 36, 58], "t_dw": 15},
                                      {"times": [12, 36, 59], "t_dw": 15}],
                             ids=["random_seed_0", "two_before_the_end", "last_sample"])
    def test_an_impulse_near_the_end_is_not_judged(self, dist):
        # an impulse with fewer than d2 + 1 samples after it has no whole
        # response window; seed 0 draws [12, 36, 58] with numpy 2.4
        cfg = parse_config(minimal_config(horizon=60, seed=0, protocol={"kind": "switching", "d2": 2, "eth": 0.05},
                                          plants=[{"a": [], "b": [0.25]}], beta0_init=0.25, disturbance=dist,
                                          reference={"type": "constant", "level": 2.0}))
        report = evaluate_monitors(run_scenario(cfg), cfg)
        assert report.all_passed, [r.name for r in report.results if not r.passed]
        if "times" in dist or cfg.plants[0].train.times.tolist() == [12, 36, 58]:
            result = {r.name: r for r in report.results}["impulse_triggers_tt"]
            assert result.measured == pytest.approx(1.0, abs=1e-12)
            assert result.detail.endswith("; 1 impulse(s) within d2 + 1 samples of the end not judged")

    @pytest.mark.parametrize("protocol, gate", [({"kind": "fixed", "d": 1}, "parameter_error_monotone"),
                                                ({"kind": "switching", "d2": 2, "eth": 0.05}, "quiescent_switches")])
    def test_impulses_are_read_from_the_trace(self, protocol, gate):
        # a completed run is judged on the impulses its trace recorded,
        # whatever train the config it is judged against would draw
        base = minimal_config(horizon=200, protocol=protocol, plants=[{"a": [], "b": [0.25]}],
                              reference={"type": "constant", "level": 2.0}, beta0_init=0.25)
        quiet = parse_config(base)
        assert gate in [r.name for r in evaluate_monitors(run_scenario(quiet), quiet).results]
        struck = run_scenario(parse_config(dict(base, disturbance={"times": [100], "t_dw": 50})))
        names = [r.name for r in evaluate_monitors(struck, quiet).results]
        assert gate not in names
        assert ("impulse_triggers_tt" in names) is (protocol["kind"] == "switching")

    def test_a_stopped_run_fails_the_impulses_it_never_answered(self):
        # this run stops at sample 2, before its impulse at 50: the trace's
        # dist column is empty, but the impulse is judged, and fails
        cfg = parse_config(minimal_config(horizon=100, protocol={"kind": "switching", "d2": 3, "eth": 0.05},
                                          plants=[{"a": [], "b": [0.25]}], beta0_init=0.25,
                                          reference={"type": "constant", "level": 2.0},
                                          disturbance={"times": [50], "t_dw": 10}))
        trace = run_scenario(cfg)
        assert trace.status.startswith("aborted at sample 2") and not trace.apps[0].columns["dist"].any()
        results = {r.name: r for r in evaluate_monitors(trace, cfg).results}
        assert not results["impulse_triggers_tt"].passed and results["impulse_triggers_tt"].measured == 0.0
        assert "quiescent_switches" not in results

    @pytest.mark.parametrize("app, passed", [(0, True), (1, False)])
    def test_re_entry_containment_window_is_each_apps_own(self, app, passed):
        # app 0 (m2 = 0) is held for m2 + d2 = 2 samples after an ET
        # re-entry, app 1 (m2 = 1) for 3; the trace is rewritten so that only
        # one app re-enters, at k' = 6, and leaves eth at k' + 2
        plants = [{"a": [], "b": [0.25]}, {"a": [-0.5], "b": [0.5, 0.2]}]
        cfg = parse_config(minimal_config(horizon=20, plants=plants,
                                          protocol={"kind": "switching", "d2": 2, "eth": 0.05},
                                          reference={"type": "constant", "level": 1.0}))
        trace = run_scenario(cfg)
        for a in trace.apps:
            a.columns["e"] = np.zeros(20)
            a.switches = []
        trace.apps[app].switches = [(5, "TT->ET", 3)]
        trace.apps[app].columns["e"][8] = 0.1
        result = {r.name: r for r in evaluate_monitors(trace, cfg).results}["re_entry_containment"]
        assert result.passed is passed
        assert result.measured == (0.0 if passed else 0.1)
        assert result.detail == "|e| over the first m2+d2=2/3 re-entry samples"

    @pytest.mark.parametrize("case", ["nan_samples", "all_nan", "edge_switches"])
    def test_lyapunov_in_mode_matches_the_per_sample_loop(self, case):
        cfg = parse_config(minimal_config(horizon=40, protocol={"kind": "switching", "d2": 2, "eth": 0.05},
                                          plants=[{"a": [], "b": [0.25]}, {"a": [], "b": [0.3]}]))
        trace = run_scenario(cfg)
        rng = np.random.default_rng(5)
        for a in trace.apps:
            a.columns["dV"] = rng.normal(size=40)
            a.switches = [(3, "TT->ET", 1), (10, "ET->TT", 0)]
        if case == "nan_samples":
            # the largest sample of app 0 becomes NaN, so the next largest counts
            trace.apps[0].columns["dV"][np.argmax(trace.apps[0].columns["dV"])] = np.nan
            trace.apps[1].columns["dV"][::3] = np.nan
        elif case == "all_nan":
            for a in trace.apps:
                a.columns["dV"][1:] = np.nan
                a.columns["dV"][[3, 4, 10, 11]] = 9.0  # switch samples are excluded
        else:
            trace.apps[0].switches = [(0, "TT->ET", 1), (39, "ET->TT", 0), (45, "TT->ET", 1)]
            trace.apps[1].columns["dV"][[0, 39]] = 7.0
        # the per-sample definition: max over non-switch samples k >= 1, where
        # max() keeps its running value against a NaN sample
        worst = -np.inf
        for a in trace.apps:
            excluded = {kp + j for kp, _d, _p in a.switches for j in (0, 1)}
            for k in range(1, len(a.columns["dV"])):
                if k not in excluded:
                    worst = max(worst, float(a.columns["dV"][k]))
        results = {r.name: r for r in evaluate_monitors(trace, cfg).results}
        if case == "all_nan":
            assert "lyapunov_in_mode" not in results
        else:
            assert results["lyapunov_in_mode"].measured == worst
            assert results["lyapunov_in_mode"].passed is (worst <= 1e-9)

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
    @pytest.mark.parametrize("protocol", [{"kind": "fixed", "d": 2},
                                          {"kind": "switching", "d2": 3, "eth": 0.05}],
                             ids=["fixed", "switching"])
    def test_negative_impulse_time_is_config_error(self, tmp_path, command, protocol):
        dist = {"times": [-1], "amplitudes": 5.0, "t_dw": 1}
        cfg = minimal_config(protocol=protocol, plants=[{"a": [], "b": [0.25], "disturbance": dist}])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "configuration error: disturbance: impulse time -1 lies outside" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("key,mapping", [
        ("dyn_priorities", {"0": 1, "5": 2, "2": 3}),
        ("dyn_priorities", {"1": 1, "2": 2}),
    ], ids=["priority_for_unknown_app", "priority_missing_app"])
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

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_unmet_richness_declaration_is_config_error(self, tmp_path, command):
        ref = {"type": "sinusoid", "components": [{"amplitude": 1.0, "omega": 0.4}], "sr_order": 3}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(reference=ref)))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "configuration error: reference declares richness order 3 but measures 2" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("field,overrides", [
        ("disturbance", {"disturbance": [1, 2]}),
        ("plant[0]", {"plants": [3]}),
        ("reference", {"reference": "const"}),
    ], ids=["disturbance_list", "plant_number", "reference_string"])
    def test_non_object_field_is_config_error(self, tmp_path, command, field, overrides):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(**overrides)))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert f"configuration error: {field} must be a JSON object" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("tolerances, message", [
        ({"dv_tol": None}, "tolerances.dv_tol must be a number, got null"),
        ({"settle_samples": 10}, "tolerances: unknown key 'settle_samples'"),
    ], ids=["null", "unknown_key"])
    def test_bad_tolerance_is_config_error(self, tmp_path, command, tolerances, message):
        cfg = json.loads((CONFIG_DIR / "switching_1app.json").read_text())
        cfg.update(horizon=300, disturbance=None, tolerances=tolerances)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert f"configuration error: {message}" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("overrides, message", [
        ({"horizn": 50}, "the scenario: unknown key 'horizn'"),
        ({"gammas": []}, "gammas must hold one or two gains, got 0"),
        ({"horizon": 10.5}, "horizon must be an integer, got 10.5"),
        # the delays past MAX_DELAY once passed check and then failed a run:
        # a numpy dimension error, a hang, and a memory-error traceback
        # an integer read from a huge float shows as that float, not in its 301 digits
        ({"protocol": {"kind": "fixed", "d": 1e300}}, f"protocol.d must lie in [1, {MAX_DELAY}], got 1e+300"),
        ({"horizon": 1e30}, f"horizon must lie in [0, {MAX_HORIZON}], got 1e+30"),
        ({"seed": -1e25}, "seed must be >= 0, got -1e+25"),
        ({"protocol": dict(SWITCHING, d2=1e6)}, f"protocol.d2 must lie in [2, {MAX_DELAY}], got 1000000"),
        ({"protocol": dict(SWITCHING, d2=500)}, f"protocol.d2 must lie in [2, {MAX_DELAY}], got 500"),
        # numpy once failed to draw the train, in a message that named neither the field nor the plant
        ({"disturbance": {"random": True, "t_dw": 1e300}},
         f"disturbance.t_dw must lie in [1, {MAX_HORIZON}], got 1e+300"),
        ({"plants": [{"b": [1.0], "disturbance": {"random": True, "t_dw": 1e300}}]},
         f"plant[0].disturbance.t_dw must lie in [1, {MAX_HORIZON}], got 1e+300"),
        # json.loads itself refuses an integer past Python's int-string limit; <path> is the config's
        ({"horizon": 10**5000},
         "<path>: Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits"),
    ], ids=["unknown_key", "no_gammas", "fractional_horizon", "d_1e300", "horizon_1e30", "seed_-1e25", "d2_1e6",
            "d2_500", "t_dw_1e300", "plant_t_dw_1e300", "horizon_5001_digits"])
    def test_parse_fault_is_config_error(self, tmp_path, command, overrides, message):
        p = tmp_path / "cfg.json"
        p.write_text(_dumps(minimal_config(**overrides)))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert f"configuration error: {message.replace('<path>', str(p))}" in out.stderr
        assert "Traceback" not in out.stderr and out.stderr.count("\n") == 1 and len(out.stderr) < 200

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("overrides, message", [
        ({"plants": [{"b": [1.0], "u_init": [[1.0]]}]}, "plant[0].u_init must be a number, got [1.0]"),
        ({"plants": [{"b": [1.0], "oracle": "no"}]}, 'plant[0].oracle must be true or false, got "no"'),
        ({"protocol": dict(SWITCHING, eth=float("nan"))}, "protocol.eth must be a number, got NaN"),
        ({"plants": [{"b": [1.0], "a": None}]}, "plant[0].a must be a list, got null"),
        ({"disturbance": {"random": "no", "t_dw": 3}}, 'disturbance.random must be true or false, got "no"'),
    ], ids=["nested_u_init", "string_oracle", "nan_eth", "null_a", "string_random"])
    def test_ill_typed_value_is_config_error(self, tmp_path, command, overrides, message):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(**overrides)))
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        out = self.run_cli(command, "--config", str(p), *args)
        assert out.returncode == 2, out.stdout + out.stderr
        assert out.stderr == f"configuration error: {message}\n"

    def test_negative_seed_override_is_config_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config()))
        out = self.run_cli("run", "--config", str(p), "--out", str(tmp_path / "out"), "--seed", "-1")
        assert out.returncode == 2, out.stdout + out.stderr
        assert out.stderr == "configuration error: seed must be >= 0, got -1\n"

    def test_seed_override_reaches_the_trace(self, tmp_path):
        cfg = minimal_config(horizon=300, disturbance={"random": True, "t_dw": 40},
                             tolerances={"settle_sample": 300})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = self.run_cli("run", "--config", str(p), "--out", str(tmp_path / "out"), "--seed", "8")
        assert out.returncode in (0, 1), out.stdout + out.stderr
        trace = load_trace(tmp_path / "out" / "trace.json")
        assert trace.config["seed"] == 8
        want = run_scenario(parse_config(dict(cfg, seed=8))).apps[0].columns["dist"]
        assert trace.apps[0].columns["dist"].tobytes() == want.tobytes()
        assert not np.array_equal(want, run_scenario(parse_config(cfg)).apps[0].columns["dist"])

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

    @pytest.mark.parametrize("text,message", [
        (None, "it has no 'apps' key"),
        ("[1, 2]", "the document must be a JSON object, got list"),
    ], ids=["config_file", "json_list"])
    def test_analyze_rejects_a_document_that_is_not_a_trace(self, tmp_path, text, message):
        p = CONFIG_DIR / "fixed_tt.json"
        if text is not None:
            p = tmp_path / "t.json"
            p.write_text(text)
        out = self.run_cli("analyze", "--trace", str(p))
        assert out.returncode == 2, out.stdout + out.stderr
        assert f"error: {p}: not a trace: {message}" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("entry,message", [
        (1, "app entry 0 and its 'columns' must be objects"),
        ({"app": 0}, "app entry 0 has no 'switches' key"),
        ({"switches": [], "columns": {}}, "app entry 0 has no 'app' key"),
        ({"app": 0, "switches": []}, "app entry 0 has no 'columns' key"),
        ({"app": 0, "switches": [], "columns": []}, "app entry 0 and its 'columns' must be objects"),
        ({"app": 0, "switches": [], "columns": {name: [] for name in TRACE_FIELDS if name != "eps"}},
         "app entry 0 has no 'columns.eps' key"),
    ], ids=["not_an_object", "no_switches", "no_app", "no_columns", "columns_not_an_object", "no_eps_column"])
    def test_analyze_rejects_a_malformed_app_entry(self, tmp_path, entry, message):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"apps": [entry], "bus": {}, "config": {}, "status": "ok", "summary": {}}))
        out = self.run_cli("analyze", "--trace", str(p))
        assert out.returncode == 2, out.stdout + out.stderr
        assert f"error: {p}: not a trace: {message}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_missing_trace_errors(self):
        out = self.run_cli("analyze", "--trace", "/nonexistent/trace.json")
        assert out.returncode == 2

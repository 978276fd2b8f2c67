"""The range of every bounded scenario field, found by walking the parse
schema: each bound parses and runs, and a value past it is a one-line
ConfigError that names the field."""

import copy
import functools
import math

import pytest

from adaptbus.harness import (
    _DOCUMENT,
    MAX_DELAY,
    MAX_HORIZON,
    MAX_MINISLOTS,
    MAX_ORDER,
    MAX_SR_ORDER,
    ConfigError,
    _in_range,
    evaluate_monitors,
    export_trace,
    load_trace,
    parse_config,
    run_scenario,
)

HORIZON = 50
# the richness check is off: an order declared at a bound is not the order
# these references measure, and the range is what is tested here
BASE = {"horizon": HORIZON, "plants": [{"a": [-0.5], "b": [1.0]}], "tolerances": {"check_sr": False}}
# a valid object for each key whose schema the walk enters; a tagged object has one per tag
OBJECTS = {
    "protocol": {"fixed": {"kind": "fixed", "d": 1}, "switching": {"kind": "switching", "d2": 2, "eth": 0.1}},
    "reference": {"constant": {"type": "constant"}, "sinusoid": {"type": "sinusoid", "components": [[1.0, 0.4]]},
                  "square": {"type": "square"}, "file": {"type": "file", "values": [1.0] * (HORIZON + MAX_DELAY)}},
    "plants": {"a": [-0.5], "b": [1.0]},
    "disturbance": {"times": [10], "t_dw": 5},
    "tolerances": {"check_sr": False},
}


def _put(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` that holds ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _bounded_fields(schema: dict, doc: dict, path=(), prefix="", ident=""):
    """(test id, field name, kind, scenario, path) of each _in_range field
    of ``schema``, whose object sits at ``path`` in the scenario ``doc``."""
    for key, (kind, _default) in schema.items():
        here = (*path, key)
        if isinstance(kind, functools.partial) and kind.func is _in_range:
            yield ident + key, prefix + key, kind, doc, here
        elif isinstance(kind, dict):
            yield from _bounded_fields(kind, _put(doc, here, OBJECTS[key]), here, f"{prefix}{key}.", f"{ident}{key}.")
        elif isinstance(kind, tuple):
            for tag, sub in kind[1].items():
                yield from _bounded_fields(sub, _put(doc, here, OBJECTS[key][tag]), here, f"{prefix}{key}.",
                                           f"{ident}{key}[{tag}].")
        elif isinstance(kind, list) and isinstance(kind[0], dict):
            label = kind[1].format(j=0)
            yield from _bounded_fields(kind[0], _put(doc, here, [OBJECTS[key]]), (*here, 0), f"{label}.",
                                       f"{ident}{label}.")


FIELDS = list(_bounded_fields(_DOCUMENT, BASE))


def _edges(kind) -> tuple[list, list]:
    """The values a range kind accepts at each of its bounds, and those past
    each bound: the next value of its number kind, and 1e300."""
    number, least, most, above = kind.args

    def step(x, toward):
        return (x + (1 if toward > 0 else -1)) if number is int else math.nextafter(x, toward)

    accepted = [step(least, math.inf) if above else least]
    rejected = [least if above else step(least, -math.inf), -1e300]
    if most is not None:
        accepted.append(most)
        rejected += [step(most, math.inf), 1e300]
    return accepted, rejected


# field -> (number kind, least, most or None, whether least itself is rejected)
RANGES = {
    "horizon": (int, 0, MAX_HORIZON, False), "seed": (int, 0, None, False),
    "protocol.d": (int, 1, MAX_DELAY, False), "protocol.d2": (int, 2, MAX_DELAY, False),
    "protocol.eth": (float, 0, None, True), "protocol.minislots_per_cycle": (int, 0, MAX_MINISLOTS, False),
    "protocol.message_minislots": (int, 1, MAX_MINISLOTS, False), "reference.sr_order": (int, 0, MAX_SR_ORDER, False),
    "disturbance.t_dw": (int, 1, MAX_HORIZON, False), "plant[0].disturbance.t_dw": (int, 1, MAX_HORIZON, False),
    "tolerances.bound": (float, 0, None, True), "tolerances.tracking_tol": (float, 0, None, True),
    "tolerances.settle_sample": (int, 0, None, False), "tolerances.rank_tol": (float, 0, None, True),
    "tolerances.ortho_tol": (float, 0, None, True), "tolerances.ortho_window": (int, 1, None, False),
    "tolerances.dv_tol": (float, 0, None, False), "tolerances.dv_fixed_tol": (float, 0, None, False),
}


def test_the_walk_finds_every_bounded_field():
    assert {name: kind.args for _ident, name, kind, *_ in FIELDS} == RANGES
    assert sum(name == "reference.sr_order" for _ident, name, *_ in FIELDS) == 4  # one per reference type


@pytest.mark.parametrize("name, kind, doc, path", [field[1:] for field in FIELDS], ids=[field[0] for field in FIELDS])
def test_each_bound_parses_and_runs_and_each_value_past_it_is_config_error(tmp_path, name, kind, doc, path):
    accepted, rejected = _edges(kind)
    for value in rejected:
        with pytest.raises(ConfigError) as info:
            parse_config(_put(doc, path, value))
        text = str(info.value)
        assert text.startswith(f"{name} must ") and "\n" not in text and len(text) <= 200, (value, text)
    for value in accepted:
        cfg = parse_config(_put(doc, path, value))
        if name == "horizon" and value == MAX_HORIZON:
            continue  # parsed only
        trace = run_scenario(cfg)
        assert trace.status == "ok" or " at sample " in trace.status, (value, trace.status)
        export_trace(trace, tmp_path / "trace.json", "json")
        ran = evaluate_monitors(trace, cfg).lines()
        assert evaluate_monitors(load_trace(tmp_path / "trace.json")).lines() == ran, value


def test_the_widest_regressor_stays_declarable():
    # the regressor of the widest plant at the longest delay is m1 + m2 + d
    # wide, and a reference rich enough to excite it stays declarable
    wide = {"a": [0.0] * MAX_ORDER, "b": [1.0] + [0.0] * MAX_ORDER}
    cfg = parse_config(dict(BASE, plants=[wide], protocol={"kind": "fixed", "d": MAX_DELAY}))
    assert cfg.plants[0].model.true_theta(MAX_DELAY).size == MAX_SR_ORDER


@pytest.mark.parametrize("overrides, name", [
    ({"beta0_init": 0}, "beta0_init"),
    ({"plants": [{"b": [1.0], "beta0_init": 0.0}]}, "plant[0].beta0_init"),
], ids=["shared", "plant"])
def test_a_zero_divisor_prior_is_config_error(overrides, name):
    with pytest.raises(ConfigError) as info:
        parse_config(dict(BASE, **overrides))
    assert str(info.value) == f"{name} must be nonzero: the divisor estimate cannot start at zero"


@pytest.mark.parametrize("plant, order", [
    ({"a": [0.0] * (MAX_ORDER + 1), "b": [1.0]}, MAX_ORDER + 1),
    ({"a": [0.0] * 1000, "b": [1.0]}, 1000),
    ({"b": [1.0] + [0.0] * (MAX_ORDER + 1)}, MAX_ORDER + 1),
], ids=["m1", "m1_1000", "m2"])
def test_plant_order_past_its_bound_is_config_error(plant, order):
    with pytest.raises(ConfigError) as info:
        parse_config(dict(BASE, plants=[plant]))
    assert str(info.value) == f"plant[0]: the order max(m1, m2) must lie in [0, {MAX_ORDER}], got {order}"


def test_sinusoid_order_past_its_bound_is_config_error():
    n = MAX_SR_ORDER // 2 + 1
    components = [[1.0, 3.0 * (j + 1) / (n + 1)] for j in range(n)]
    with pytest.raises(ConfigError) as info:
        parse_config(dict(BASE, reference={"type": "sinusoid", "components": components}))
    assert str(info.value) == f"reference.components' richness order must lie in [0, {MAX_SR_ORDER}], got {2 * n}"
    # a declared order replaces the components' own
    cfg = parse_config(dict(BASE, reference={"type": "sinusoid", "components": components, "sr_order": 2}))
    assert cfg.reference.declared_sr_order == 2


@pytest.mark.parametrize("overrides, name", [
    ({"horizon": 10 ** 400}, "horizon"),
    ({"seed": 10 ** 400}, "seed"),
    ({"beta0_init": -10 ** 400}, "beta0_init"),
    ({"plants": [{"a": [10 ** 400], "b": [1.0]}]}, "plant[0].a"),
], ids=["horizon", "seed", "beta0_init", "a"])
def test_an_integer_past_every_float_is_config_error(overrides, name):
    with pytest.raises(ConfigError) as info:
        parse_config(dict(BASE, **overrides))
    assert str(info.value) == f"{name} must be below 1.8e308 in magnitude, got a 401-digit integer"

"""Scenario configuration, deterministic execution, trace persistence, and
stability-monitor evaluation.

A scenario is a JSON document: plants, a reference generator, an optional
impulse-train disturbance, and either a fixed-delay protocol (baseline
adaptive loop) or the switching TT/ET protocol with its bus parameters.
(config, seed) fully determines every output byte.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import kernels, netbus, reference
from .excitation import _window_grams, sr_order
from .netbus import BUS_COLUMNS, CYCLE_COLUMNS, DELIVERY_COLUMNS, TX_COLUMNS, BusCapacityError, BusConfig, Mode
from .plant import DisturbanceTrain, PlantModel, make_impulse_train

SCHEMA_VERSION = 5
TRACE_FIELDS = [
    "app", "k", "mode", "y", "yref", "e", "u", "delay", "eps",
    "V", "dV", "rank", "alpha_hat", "ortho_res", "switch", "dist",
]
# computed after a run from the true plant; the loop records the rest
MONITOR_FIELDS = ("V", "dV", "rank", "alpha_hat", "ortho_res")
SIM_FIELDS = [name for name in TRACE_FIELDS if name not in MONITOR_FIELDS]
INT_FIELDS = ("app", "k", "delay", "rank", "switch")  # trace columns holding ints
# the columns a JSON trace writes of each app, the monitor group only where
# some monitor column is nonzero; _trace_columns derives the rest from them
JSON_FIELDS = ("y", "yref", "u", "delay", "eps", "dist")
JSON_MONITOR_FIELDS = ("V", "rank", "alpha_hat", "ortho_res")
_SWITCH_CODES = {"TT->ET": 1, "ET->TT": 2}  # the switch column's marker of each direction

MAX_HORIZON = 10**7  # samples, 2,000 times the longest bundled horizon: bounds what a parse draws
MAX_DELAY = 64  # samples, 21 times the longest bundled delay: bounds the loop histories and the bus deadline
MAX_ORDER = 8  # of a plant's m1 and m2, 4 times the highest bundled order: bounds the regressor width
MAX_SR_ORDER = 2 * MAX_ORDER + MAX_DELAY  # the widest regressor, m1 + m2 + d, so a reference exciting it is declarable
MAX_MINISLOTS = 7986  # FlexRay 2.1 Rev. A's largest gNumberOfMinislots: a dynamic segment's length


class ConfigError(ValueError):
    """Scenario configuration rejected; the message names the violated rule."""


@dataclass
class PlantSpec:
    """One application as it runs.  ``train`` is the impulse train drawn from
    the app's own disturbance, else the scenario's shared one, and
    ``beta0_init`` the app's own divisor prior, else the shared one."""
    model: PlantModel
    y_init: tuple = ()
    u_init: tuple = ()
    oracle: bool = True
    phase_offset: float = 0.0
    train: DisturbanceTrain = field(default_factory=DisturbanceTrain.empty)
    beta0_init: float = 1.0


@dataclass
class ScenarioConfig:
    name: str
    horizon: int
    seed: int
    kind: str  # the protocol: "fixed" or "switching"
    plants: list
    reference: reference.ReferenceGenerator
    delays: tuple  # of the loop: (d,) on the fixed protocol, (1, d2) switching
    gammas: tuple  # the update-guard gain of each delay
    eth: float  # the switching threshold; -1 on the fixed protocol
    tolerances: dict  # every DEFAULT_TOLERANCES key, of its default's type
    raw: dict
    bus: BusConfig | None = None  # the switching protocol's bus

    def bus_config(self) -> BusConfig | None:
        return self.bus


def load_document(source) -> dict:
    """The scenario document of a path or a dict (copied)."""
    try:
        if isinstance(source, dict):
            return json.loads(json.dumps(source))
        doc = json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's int-string limit, or a file that is not UTF-8
        where = "the scenario" if isinstance(source, dict) else source
        raise ConfigError(f"{where}: {str(exc).split(';')[0]}") from exc
    return _object(doc, f"{source}: the scenario")


def _object(value, name: str, keys=None) -> dict:
    """The value of a field that must hold a JSON object, each of whose keys
    is one of ``keys`` when they are given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {'null' if value is None else type(value).__name__}")
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"{name}: unknown key {key!r}; the keys are {', '.join(keys)}")
    return value


# A scenario object's schema maps each key to (kind, default).  A kind is
# float (a finite number; true and false are never numbers), int (a finite
# integral number: 2000 or 2000.0), bool, str, a schema (an object of it),
# (tag, {value: schema}) (an object whose tag picks its schema), [kind] (a
# list of it, read as a tuple; [kind, label] names item j by the label) or a
# function (value, name) -> value, such as _within's range of a number.  A
# missing key takes its default, which is read as a given value is, but for
# _REQUIRED (it must be given) and _ABSENT (it stays unset); null stands for
# the default only where the default is None.
_REQUIRED, _ABSENT = object(), object()
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _read(value, where: str, schema: dict, prefix: str | None = None) -> dict:
    """The typed fields of ``value``, an object of ``schema`` named ``where``;
    each field is named ``prefix`` (by default ``where.``) plus its key."""
    obj = _object(value, where, schema)
    prefix = f"{where}." if prefix is None else prefix
    fields = {}
    for key, (kind, default) in schema.items():
        given = obj.get(key, default)
        if given is _REQUIRED:
            raise ConfigError(f"{where}: missing key {key!r}")
        if given is not _ABSENT:
            fields[key] = None if given is None and default is None else _typed(kind, given, prefix + key, where)
    return fields


def _typed(kind, value, name: str, where: str = ""):
    """``value`` read as ``kind``, or a ConfigError naming the field ``name``
    of the object ``where``."""
    if kind is float or kind is int:  # a JSON number is an int or a float, never a bool
        if type(value) is int and abs(value) > sys.float_info.max:  # no float holds it
            raise ConfigError(f"{name} must be below 1.8e308 in magnitude, got a {len(str(abs(value)))}-digit integer")
        if type(value) in (int, float) and math.isfinite(value) and (kind is float or float(value).is_integer()):
            return kind(value)
    elif kind is bool or kind is str:
        if type(value) is kind:
            return value
    elif isinstance(kind, dict):
        return _read(value, name, kind)
    elif isinstance(kind, tuple):
        tag, schemas = kind
        chosen = _object(value, name).get(tag)
        if chosen not in tuple(schemas):
            raise ConfigError(f"{name}.{tag} must be one of {', '.join(schemas)}, got {json.dumps(chosen)}")
        return _read(value, name, schemas[chosen])
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {json.dumps(value)}")
        return tuple(_typed(kind[0], item, kind[1].format(j=j, where=where) if kind[1:] else name)
                     for j, item in enumerate(value))
    else:
        return kind(value, name)
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")


def _in_range(kind, least, most, above: bool, value, name: str):
    """``value`` read as ``kind``, int or float, that is at least ``least``
    (above it where ``above``) and, unless ``most`` is None, at most ``most``."""
    value = _typed(kind, value, name)
    if value < least or above and value == least or most is not None and value > most:
        rule = f"be {'>' if above else '>='} {least}" if most is None else f"lie in {'[('[above]}{least}, {most}]"
        raise ConfigError(f"{name} must {rule}, got {_shown(value)}")
    return value


def _within(kind, least, most=None, above=False):
    """The kind of a number in a range: its bounds are the partial's args."""
    return functools.partial(_in_range, kind, least, most, above)


def _nonzero(value, name: str) -> float:
    """A divisor prior: a number other than zero."""
    if _typed(float, value, name) == 0.0:
        raise ConfigError(f"{name} must be nonzero: the divisor estimate cannot start at zero")
    return float(value)


def _shown(value) -> str:
    """A number as a range error shows it: from 10**17 on as a float (1e+300,
    not the 301 digits of the integer read from it), so the line stays short."""
    return repr(float(value)) if abs(value) >= 10**17 else str(value)


def _amplitudes(value, name: str):
    """A disturbance's impulse amplitudes: one number for all, or a list."""
    return _typed([float] if isinstance(value, list) else float, value, name)


def _component(value, name: str) -> tuple:
    """A sinusoid component, written as an object or as the list [amplitude,
    omega, phase] with an optional phase: (amplitude, omega, phase)."""
    if isinstance(value, list):
        if not 2 <= len(value) <= 3:
            raise ConfigError(f"{name} has {len(value)} values; the list is [amplitude, omega, phase]")
        value = dict(zip(_COMPONENT, value))
    return tuple(_read(value, name, _COMPONENT).values())


def _priorities(value, name: str) -> dict:
    """App -> priority: a list in app order, or an object whose keys are app
    indexes in plain decimal, so that no two keys name the same app."""
    if isinstance(value, list):
        return dict(enumerate(_typed([int], value, name)))
    prios = {}
    for key, prio in _object(value, name).items():
        if not (key.isdecimal() and str(int(key)) == key):
            raise ConfigError(f"{name}: key {key!r} is not an app index in plain decimal, such as '0' or '12'")
        prios[int(key)] = _typed(int, prio, name)
    return prios


_POSITIVE, _NONNEGATIVE = _within(float, 0, above=True), _within(float, 0)
_DISTURBANCE = {"t_dw": (_within(int, 1, MAX_HORIZON), 0), "times": ([int, "{where}: an impulse time"], _ABSENT),
                "random": (bool, False), "amplitudes": (_amplitudes, 1.0)}
# h, the sample period, is metadata that no run reads
_PLANT = {"a": ([float], []), "b": ([float], _REQUIRED), "h": (float, _ABSENT), "y_init": ([float], []),
          "u_init": ([float], []), "oracle": (bool, True), "phase_offset": (float, 0.0),
          "disturbance": (_DISTURBANCE, None), "beta0_init": (_nonzero, None)}
_PROTOCOLS = {
    "fixed": {"kind": (str, _REQUIRED), "d": (_within(int, 1, MAX_DELAY), 0)},
    "switching": {"kind": (str, _REQUIRED), "d2": (_within(int, 2, MAX_DELAY), 0), "eth": (_POSITIVE, 0.0),
                  "minislots_per_cycle": (_within(int, 0, MAX_MINISLOTS), _ABSENT),  # unset: BusConfig.default
                  "message_minislots": (_within(int, 1, MAX_MINISLOTS), 1), "dyn_priorities": (_priorities, None)},
}
_COMPONENT = {"amplitude": (float, _REQUIRED), "omega": (float, _REQUIRED), "phase": (float, 0.0)}
_SR_ORDER = (_within(int, 0, MAX_SR_ORDER), None)
_REFERENCES = {
    "constant": {"type": (str, _REQUIRED), "level": (float, 1.0), "sr_order": _SR_ORDER},
    "sinusoid": {"type": (str, _REQUIRED), "components": ([_component, "{where}: components[{j}]"], _REQUIRED),
                 "sr_order": _SR_ORDER},
    "square": {"type": (str, _REQUIRED), "amplitude": (float, 1.0), "period": (int, 100), "duty": (float, 0.5),
               "sr_order": _SR_ORDER},
    "file": {"type": (str, _REQUIRED), "values": ([float], _ABSENT), "path": (str, _ABSENT), "sr_order": _SR_ORDER},
}
_GENERATORS = {"constant": reference.Constant, "sinusoid": reference.SinusoidSum, "square": reference.Square,
               "file": reference.Tabulated}
_TOLERANCES = {"bound": (_POSITIVE, 1e3), "tracking_tol": (_POSITIVE, 1e-3), "settle_sample": (_within(int, 0), 2000),
               "rank_tol": (_POSITIVE, 1e-6), "ortho_tol": (_POSITIVE, 1e-3), "ortho_window": (_within(int, 1), 500),
               "dv_tol": (_NONNEGATIVE, 1e-9), "dv_fixed_tol": (_NONNEGATIVE, 1e-12), "check_sr": (bool, True)}
DEFAULT_TOLERANCES = {key: default for key, (_kind, default) in _TOLERANCES.items()}
_DOCUMENT = {
    "name": (str, "scenario"), "horizon": (_within(int, 0, MAX_HORIZON), 0), "seed": (_within(int, 0), 0),
    "protocol": (("kind", _PROTOCOLS), {"kind": "fixed", "d": 1}), "plants": ([_PLANT, "plant[{j}]"], []),
    "reference": (("type", _REFERENCES), {"type": "constant", "level": 1.0}), "tolerances": (_TOLERANCES, {}),
    "disturbance": (_DISTURBANCE, None), "gammas": ([float], [0.5, 0.5]), "beta0_init": (_nonzero, 1.0),
}


def _check_gamma(g: float, name: str) -> float:
    if not (0.0 < g < 2.0) or g == 1.0:
        raise ConfigError(f"{name} = {g} rejected: the update-guard gain must lie in (0, 2) and differ from 1")
    return g


def parse_config(source) -> ScenarioConfig:
    """Load, validate and resolve a scenario, a path or a dict, so that a
    scenario that parses will run.  Every object is read through its schema
    (``_DOCUMENT``), which holds each field's kind and range; the rules that
    join fields are enforced here but one: impulse times at or past the
    horizon are accepted, so that a caller can shorten a run, and rejected by
    ``check_impulse_times``.

    Each app takes its own ``disturbance`` and ``beta0_init``, else the shared
    ones; random impulse trains are drawn from one generator seeded by
    ``seed``, app by app."""
    raw = load_document(source)
    try:
        doc = _read(raw, "the scenario", _DOCUMENT, prefix="")
        horizon, seed, protocol, tol = doc["horizon"], doc["seed"], doc["protocol"], doc["tolerances"]
        delays = (protocol["d"],) if protocol["kind"] == "fixed" else (1, protocol["d2"])
        delay = delays[-1]  # the longest delay a loop uses
        if not doc["plants"]:
            raise ConfigError("at least one plant is required")
        shared_dist = doc["disturbance"]
        if shared_dist is not None:
            # checked even where every plant has its own; these draws are unused
            _impulse_train(shared_dist, horizon, lambda: np.random.default_rng(seed))
        # one generator for every random train, made when the first is
        # drawn: numpy imports numpy.random on first use, which costs several
        # times a whole parse
        rng = functools.cache(lambda: np.random.default_rng(seed))
        plants = []
        for i, p in enumerate(doc["plants"]):
            _in_range(int, 0, MAX_ORDER, False, max(len(p["a"]), len(p["b"]) - 1), f"plant[{i}]: the order max(m1, m2)")
            try:
                model = PlantModel(a=p["a"], b=p["b"])
            except ValueError as exc:
                raise ConfigError(f"plant[{i}]: {exc}") from exc
            for name, depth in (("y_init", max(model.m1, 1)), ("u_init", max(model.m2 + delay, 1))):
                if len(p[name]) > depth:
                    raise ConfigError(f"plant[{i}]: {name} has {len(p[name])} values; the history holds {depth}")
            # the app's own disturbance and divisor prior, else the shared ones
            dist = shared_dist if p["disturbance"] is None else p["disturbance"]
            plants.append(PlantSpec(
                model=model, y_init=p["y_init"], u_init=p["u_init"], oracle=p["oracle"], phase_offset=p["phase_offset"],
                train=DisturbanceTrain.empty() if dist is None else _impulse_train(dist, horizon, rng),
                beta0_init=doc["beta0_init"] if p["beta0_init"] is None else p["beta0_init"]))
        gen = _generator(doc["reference"])
        gammas = doc["gammas"]
        if len(gammas) not in (1, 2):
            raise ConfigError(f"gammas must hold one or two gains, got {len(gammas)}")
        gamma1, gamma2 = _check_gamma(gammas[0], "gamma1"), _check_gamma(gammas[-1], "gamma2")  # one gain serves both
        if isinstance(gen, reference.Tabulated):
            shifted = [i for i, spec in enumerate(plants) if spec.phase_offset != 0.0]
            if shifted:
                raise ConfigError(f"plant[{shifted[0]}]: phase_offset needs a periodic reference, not a file")
            _check_table_length(gen, horizon, delay, tol)
        bus = None if protocol["kind"] == "fixed" else BusConfig.default(
            len(plants), d2=delay, minislots_per_cycle=protocol.get("minislots_per_cycle"),
            message_minislots=protocol["message_minislots"], dyn_priorities=protocol["dyn_priorities"])
        _check_reference_richness(gen, tol)
        return ScenarioConfig(name=doc["name"], horizon=horizon, seed=seed, kind=protocol["kind"], plants=plants,
                              reference=gen, delays=delays, gammas=tuple(gamma1 if d == 1 else gamma2 for d in delays),
                              eth=protocol.get("eth", -1.0), tolerances=tol, raw=raw, bus=bus)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


def _generator(ref: dict) -> reference.ReferenceGenerator:
    """The generator of a typed reference object; a declared ``sr_order``
    replaces the order that its type declares."""
    kind = ref["type"]
    if kind == "file" and "values" not in ref:
        if "path" not in ref:
            raise ConfigError("reference: a file reference needs values or a path")
        try:
            ref = dict(ref, values=np.loadtxt(ref["path"]))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"reference.path: cannot read {ref['path']!r}: {exc}") from exc
    try:  # the other keys of a reference are its generator's fields
        gen = _GENERATORS[kind](**{key: value for key, value in ref.items() if key not in ("type", "path", "sr_order")})
    except ValueError as exc:
        raise ConfigError(f"reference: {exc}") from exc
    if ref["sr_order"] is not None:
        gen.declared_sr_order = ref["sr_order"]
    elif kind == "sinusoid":  # its own order, 2 per component, in the range of a declared one
        _SR_ORDER[0](gen.declared_sr_order, "reference.components' richness order")
    return gen


def _check_table_length(gen: reference.Tabulated, horizon: int, lookahead: int, tol: dict) -> None:
    """A tabulated reference must hold every sample the run reads: the
    horizon plus the delay's lookahead, and the richness-check window."""
    have = gen.values.size
    need = horizon + lookahead
    if have < need:
        raise ConfigError(f"reference: the table has {have} values; horizon {horizon} plus the "
                          f"lookahead {lookahead} needs {need}")
    declared = gen.declared_sr_order
    if declared and tol["check_sr"]:
        window = _richness_window(declared)[2]
        if have < window:
            raise ConfigError(f"reference: the table has {have} values; checking the declared "
                              f"richness order {declared} needs {window}")


def _richness_window(declared: int) -> tuple[int, int, int]:
    """(largest order tested, window length, samples read) of the richness
    check of a reference that declares the order ``declared``."""
    m_max = declared + 1
    N = 8 * m_max + 16
    return m_max, N, N + m_max + 64


def _check_reference_richness(gen: reference.ReferenceGenerator, tol: dict) -> None:
    declared = gen.declared_sr_order
    if declared is None or not tol["check_sr"] or declared == 0:
        return
    m_max, N, T = _richness_window(declared)
    seq = gen.sequence(T)
    peak = float(np.max(np.abs(seq))) if seq.size else 0.0
    measured = sr_order(seq, m_max=m_max, N=N, tol=1e-8 * N * peak * peak) if peak else 0
    if measured != declared:
        raise ConfigError(f"reference declares richness order {declared} but measures {measured}")


def _impulse_train(spec: dict, horizon: int, rng) -> DisturbanceTrain:
    """The impulse train of a typed disturbance: its explicit times, or times
    drawn from the generator ``rng()`` returns.  Times below 0 are rejected;
    times at or past the horizon are left to check_impulse_times."""
    times = spec.get("times")
    if times is None and not spec["random"]:
        raise ConfigError("disturbance needs explicit 'times' or 'random': true")
    try:
        train = make_impulse_train(spec["t_dw"], horizon, amplitudes=spec["amplitudes"], times=times,
                                   rng=rng() if times is None else None)
    except ValueError as exc:
        raise ConfigError(f"disturbance: {exc}") from exc
    early = [t for t in train.times.tolist() if t < 0]
    if early:
        raise ConfigError(_outside_horizon(early[0], horizon))
    return train


def check_impulse_times(cfg: ScenarioConfig) -> None:
    """Reject impulse times at or past the horizon, which a run never
    reaches.  parse_config rejects the times below 0; the command line calls
    this, and parse_config does not, so that a caller can shorten a run."""
    for spec in cfg.plants:
        for t in spec.train.times.tolist():
            if t >= cfg.horizon:
                raise ConfigError(_outside_horizon(t, cfg.horizon))


def _outside_horizon(t, horizon: int) -> str:
    return f"disturbance: impulse time {t} lies outside the horizon [0, {horizon})"


@dataclass
class AppTrace:
    app_id: int
    columns: dict
    switches: list  # (k, direction, p)


class BusLog(dict):
    """The bus log as ``netbus.BUS_COLUMNS`` int64 arrays.  ``bus["cycles"]``
    and ``bus["deliveries"]`` answer with the version-1 lists, built from
    the columns on each read by ``_v1_bus`` and never stored."""

    def __missing__(self, key):
        if key in ("cycles", "deliveries"):
            return _v1_bus(self, key)
        raise KeyError(key)

    def __eq__(self, other):
        return (isinstance(other, dict) and self.keys() == other.keys()
                and all(np.array_equal(self[name], other[name]) for name in self))

    def __ne__(self, other):
        return not self == other


@dataclass
class Trace:
    config: dict
    status: str
    apps: list
    bus: BusLog
    summary: dict


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Execute the scenario deterministically and return the full trace.

    Each app's closed loop runs alone over the horizon with one estimate per
    delay: the fixed protocol pins the delay d, the switching protocol runs
    TT at d = 1 and ET at d = d2.  The bus never feeds back into control, so
    it is replayed afterwards from the apps' modes.  Divergence, a zero
    divisor or bus infeasibility aborts with a partial trace and a diagnostic
    in ``status``.
    """
    # each app's reference runs the longest delay's lookahead past the horizon
    yrefs = [cfg.reference.sequence(cfg.horizon + cfg.delays[-1], spec.phase_offset) for spec in cfg.plants]
    runs = [_app_loop(spec, yref_ext, cfg) for spec, yref_ext in zip(cfg.plants, yrefs)]
    if cfg.kind == "fixed":
        summary = {"kind": "fixed", "d": cfg.delays[0]}
        # every app runs to its own stop; the status names each app that stopped, in app order
        rows, aborting, bus = [run.k_stop for run in runs], None, _no_bus()
        status = "; ".join(
            f"{'diverged' if run.status == kernels.SIM_DIVERGED else 'zero divisor'}: app {i} at sample {run.k_stop}"
            for i, run in enumerate(runs) if run.status) or "ok"
    else:
        summary = {"kind": "switching", "d2": cfg.delays[-1], "eth": cfg.eth}
        rows, aborting, status, bus = _replay_bus(cfg.bus, runs, cfg.horizon)
    rank_tol = cfg.tolerances["rank_tol"]
    apps, summary["apps"] = [], []
    for i, (n, spec, yref_ext) in enumerate(zip(rows, cfg.plants, yrefs)):
        # the loop's lists are freed before this app's monitor columns are computed
        run, runs[i] = _loop_arrays(runs[i]), None
        # the aborting app keeps a switch logged at its aborted sample (a
        # diverging app logs it before the plant step)
        switches = run.switches if i == aborting else [ev for ev in run.switches if ev[0] < n]
        app, app_summary = _app_trace(i, run, n, cfg.delays, spec, yref_ext, switches, rank_tol)
        apps.append(app)
        summary["apps"].append(app_summary)
    return Trace(config=cfg.raw, status=status, apps=apps, bus=bus, summary=summary)


def _app_loop(spec: PlantSpec, yref_ext: np.ndarray, cfg: ScenarioConfig) -> kernels.LoopRun:
    """One app's closed loop over the horizon, with one estimate per delay,
    each zero but for its divisor element, the app's beta0_init."""
    model, train = spec.model, spec.train
    thetas = [[0.0] * (model.m1 + model.m2 + d - 1) + [spec.beta0_init] for d in cfg.delays]
    return kernels.adaptive_loop(model.a, model.b, yref_ext,
                                 zip(train.times.tolist(), train.amplitudes.tolist()),
                                 spec.y_init, spec.u_init, thetas, cfg.gammas, cfg.eth)


def _loop_arrays(run: kernels.LoopRun) -> kernels.LoopRun:
    """The run with its lists as arrays: ``et`` bool, and the estimate and
    regressor rows of each estimate 2-D."""
    widths = [len(rows[0]) for rows in run.phi_rows]  # every estimate has pre-start rows
    return replace(
        run, y=np.array(run.y), u=np.array(run.u), eps=np.array(run.eps),
        et=np.array(run.et, dtype=bool),
        theta_rows=tuple(np.reshape(np.array(rows, dtype=float), (-1, M))
                         for rows, M in zip(run.theta_rows, widths)),
        phi_rows=tuple(np.array(rows) for rows in run.phi_rows),
    )


def _replay_bus(buscfg: BusConfig, runs: list, T: int) -> tuple[list, int | None, str, BusLog]:
    """Replay the bus over the switching apps' modes, and cut the run where
    the sample-by-sample interleaving (per sample: every app's transmission
    in priority order, the bus cycle, then every app's step) would have
    stopped.  Returns the rows per app, the aborting app (None when the bus
    or nothing aborts), the status and the bus log."""
    order = buscfg.priority_order()
    # the first app abort as (sample, priority position); the bus runs through that sample
    k_stop, j_stop = min(((runs[app].k_stop, j) for j, app in enumerate(order) if runs[app].status),
                         default=(T, 0))
    bus, error = _bus_replay(buscfg, [run.et[:min(k_stop + 1, T)] for run in runs])
    status, aborting = "ok", None
    if error is not None:
        # a bus abort at sample k precedes every app step at k
        k_stop, j_stop = len(bus["consumed"]), 0
        status = f"aborted at sample {k_stop}: {error}"
    elif k_stop < T:
        aborting = order[j_stop]
        status = f"aborted at sample {k_stop}: {_abort_text(runs[aborting])}"
    rows = [0] * len(runs)
    for j, app in enumerate(order):
        rows[app] = k_stop + (j < j_stop)
    return rows, aborting, status, bus


def _bus_replay(buscfg: BusConfig, et) -> tuple[BusLog, BusCapacityError | None]:
    """The bus log that ``netbus.replay`` gives over the apps' ET flags
    ``et[app][k]``, one row of equal length per app, and the
    ``BusCapacityError`` that cut it short, else None.  A cut log keeps every
    cycle before the failing sample, which is ``len(bus["consumed"])``, and
    every delivery through it.  The run and ``load_trace`` both replay here."""
    bus = BusLog()
    try:
        netbus.replay(buscfg, et, len(et[0]), bus)
    except BusCapacityError as exc:
        return bus, exc
    return bus, None


def _no_bus() -> BusLog:
    """The bus log of a fixed-protocol trace: every column empty."""
    return BusLog({name: np.zeros(0, dtype=np.int64) for name in BUS_COLUMNS})


def _minislots_sent(bus: dict) -> np.ndarray:
    """The minislots each logged cycle's transmissions took."""
    sent = np.bincount(bus["tx_cycle"], weights=bus["tx_len"], minlength=len(bus["consumed"]))
    return sent.astype(np.int64)


def _v1_bus(bus: dict, key: str) -> list:
    """The version-1 form of a part of the bus log: ``cycles``, one dict per
    cycle, or ``deliveries``, one [app, k, mode, delivery, arrival] list per
    delivery."""
    if key == "deliveries":
        return list(map(list, zip(bus["app"].tolist(), bus["k"].tolist(), _MODE_LABELS[bus["et"]].tolist(),
                                  bus["delivery"].tolist(), bus["arrival"].tolist())))
    consumed, idle = bus["consumed"].tolist(), bus["idle"].tolist()
    transmissions = [[] for _ in consumed]
    for c, app, length in zip(bus["tx_cycle"].tolist(), bus["tx_app"].tolist(), bus["tx_len"].tolist()):
        transmissions[c].append([app, length])
    conserved = (bus["consumed"] == bus["idle"] + _minislots_sent(bus)).tolist()
    return [{"cycle": c, "consumed_minislots": consumed[c], "idle_slots": idle[c],
             "transmissions": transmissions[c], "carried": carried, "conserved": conserved[c]}
            for c, carried in enumerate(bus["carried"].tolist())]


def _abort_text(run: kernels.LoopRun) -> str:
    """Why a switching app's loop stopped, in the words of the error the
    per-sample loop raises (``PlantDivergenceError`` shows a numpy scalar)."""
    if run.status == kernels.SIM_DIVERGED:
        return f"plant output diverged at sample {run.k_stop + 1}: y = {np.float64(run.value)!r}"
    if run.status == kernels.SIM_ZERO_DIVISOR:
        return "divisor estimate is zero at control time; guard invariant violated"
    return "update drove the divisor estimate to zero despite the guard"


_TT, _ET = Mode.TT.value, Mode.ET.value
_MODE_LABELS = np.array([_TT, _ET], dtype=object)


def _mode_labels(delay: np.ndarray) -> np.ndarray:
    """Each sample's mode from its delay, TT at 1 and ET otherwise; the rows
    share two str objects."""
    return _MODE_LABELS[(delay != 1).astype(np.intp)]


def _app_trace(app_id: int, run: kernels.LoopRun, n: int, delays: tuple, spec: PlantSpec,
               yref_ext: np.ndarray, switches: list, rank_tol: float) -> tuple[AppTrace, dict]:
    """The first n rows of one app's trace, and its summary, from its loop
    run: the simulation columns, and the monitor columns computed from the
    recorded estimates and regressors and the true parameters at each delay
    (without the oracle: zero)."""
    d = delays[-1]
    et = run.et[:n]
    # copies: a view would keep the loop's arrays alive, which were made
    # among its lists and which peak RSS then pays for (about 4 MB on the
    # benchmark's fixed workload)
    written = {
        "y": run.y[:n].copy(),
        "yref": yref_ext[:n].copy(),
        "u": run.u[:n].copy(),
        "delay": np.where(et, d, delays[0]),
        "eps": run.eps[:n].copy(),
        "dist": spec.train.dense(n),
    }
    thetas = [rows[:n] for rows in run.theta_rows]
    if spec.oracle and n:
        errs = [spec.model.true_theta(dj) - theta for dj, theta in zip(delays, thetas)]
        Phi = run.phi_rows[-1][d: d + n]
        written.update(_monitor_columns(_by_mode(~et, errs[0], errs[-1]), Phi, errs[-1], rank_tol))
        if len(delays) == 2:
            # a switching app's Gram window reports once it holds M2 samples
            M2 = Phi.shape[1]
            written["rank"][:M2 - 1] = 0
            written["alpha_hat"][:M2 - 1] = 0.0
    cols = _trace_columns(app_id, written, switches)
    theta_norms = np.maximum.reduce([np.linalg.norm(theta, axis=1) for theta in thetas])
    app = AppTrace(app_id=app_id, columns=cols, switches=switches)
    return app, _app_summary(app_id, cols, theta_norms, switches)


def _trace_columns(app_id: int, written: dict, switches: list) -> dict:
    """An app's trace columns, in ``TRACE_FIELDS`` order, from the columns a
    JSON trace writes (``JSON_FIELDS``, and ``JSON_MONITOR_FIELDS`` unless
    they are left out as zero) and its ``(k, direction, p)`` switches.  The
    run and ``load_trace`` both build their columns here, so that each
    derived column has one rule."""
    n = len(written["y"])
    y, yref, delay = written["y"], written["yref"], written["delay"]
    if "V" not in written:
        written = dict(written, **{name: np.zeros(n, dtype=int if name == "rank" else float)
                                   for name in JSON_MONITOR_FIELDS})
    switch = np.zeros(n, dtype=int)
    for k, direction, _p in switches:
        if k < n:  # an aborting app keeps a switch logged at its aborted sample
            switch[k] = _SWITCH_CODES[direction]
    derived = {
        "app": np.full(n, app_id, dtype=int),
        "k": np.arange(n),
        "mode": _mode_labels(delay),
        "e": y - yref,  # the loop's own e(k) = y(k) - ref[k]
        "dV": np.concatenate([[0.0], np.diff(written["V"])])[:n],
        "switch": switch,
    }
    return {name: written[name] if name in written else derived[name] for name in TRACE_FIELDS}


def _by_mode(tt: np.ndarray, tt_rows: np.ndarray, et_rows: np.ndarray) -> np.ndarray:
    """Row k of tt_rows (zero-padded to the ET width) where tt[k] holds, else
    of et_rows; et_rows itself when both are one array (a pinned loop)."""
    if tt_rows is et_rows:
        return et_rows
    out = np.where(tt[:, None], 0.0, et_rows)
    out[tt, : tt_rows.shape[1]] = tt_rows[tt]
    return out


def _monitor_columns(v_err, Phi, theta_err, rank_tol: float) -> dict:
    """The written monitor columns from whole-run arrays, one row per sample:
    V = |v_err|^2, the windowed Gram rank of Phi and
    |Phi . theta_err| / (1 + |Phi|); _trace_columns derives dV from V."""
    rank, alpha_hat = _windowed_rank(Phi, rank_tol)
    return {
        "V": np.einsum("ki,ki->k", v_err, v_err),
        "rank": rank,
        "alpha_hat": alpha_hat,
        "ortho_res": np.abs(np.einsum("ki,ki->k", Phi, theta_err)) / (1.0 + np.linalg.norm(Phi, axis=1)),
    }


def _windowed_rank(Phi: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample rank and smallest retained eigenvalue of the sliding-window
    regressor Gram (window 8M plus an M-sample slack, as in GramWindow)."""
    M = Phi.shape[1]
    w = np.linalg.eigvalsh(_window_grams(Phi, 8 * M + M))  # ascending, (T, M)
    wmax = np.maximum(w[:, -1], 0.0)
    thresh = rank_tol * wmax
    above = w > thresh[:, None]
    rank = np.where(wmax > 0, above.sum(axis=1), 0).astype(int)
    wdesc = w[:, ::-1]
    idx = np.clip(rank - 1, 0, M - 1)
    alpha = np.where(rank > 0, np.take_along_axis(wdesc, idx[:, None], axis=1)[:, 0], 0.0)
    return rank, alpha


def _app_summary(app_id, cols, theta_norms, switches) -> dict:
    T = len(cols["k"])
    return {
        "app": app_id,
        "samples": T,
        "max_abs_y": float(np.max(np.abs(cols["y"]))) if T else 0.0,
        "max_abs_u": float(np.max(np.abs(cols["u"]))) if T else 0.0,
        "max_theta_norm": float(np.max(theta_norms)) if len(theta_norms) else 0.0,
        "max_abs_e": float(np.max(np.abs(cols["e"]))) if T else 0.0,
        "switch_count": len(switches) if switches else 0,
    }


# ---------------------------------------------------------------------------
# persistence


_BLOCK = 4096  # rows formatted and written at a time


@dataclass
class _ColumnText:
    """A trace column as text: the CSV cell of each row, _BLOCK rows a piece
    joined by newlines, and the values whose JSON text differs from it."""
    pieces: list
    json_spelling: dict


@dataclass
class _HeldTexts:
    """The column texts of the last trace exported, for its next export."""
    trace: weakref.ref
    block: int  # the _BLOCK the texts were cut at: every column of an export is cut alike
    columns: dict  # (app index, name) -> (digest of the typed column, _ColumnText)
    written: set  # formats exported from these texts


_held: _HeldTexts | None = None


def export_trace(trace: Trace, path, fmt: str = "csv") -> None:
    """Write the trace; CSV holds every column of the per-sample rows (header
    pinned to the trace schema), JSON the config, summary, each app's
    independent columns (``_json_fields``) and, for the switching protocol,
    what the bus log cannot be replayed without (``_bus_entry``), as
    ``json.dumps(doc)`` writes it.  Floats are serialized at round-trip
    precision.  Both formats are written from one text of each column, kept
    until the same trace has been exported to both, and streamed to the file
    a block of rows at a time."""
    global _held
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    texts = _trace_texts(trace, [TRACE_FIELDS if fmt == "csv" else _json_fields(app) for app in trace.apps])
    path = Path(path)
    try:
        with path.open("w") as f:
            if fmt == "csv":
                _write_csv(texts, f)
            else:
                _write_json(trace, texts, f)
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
    _held.written.add(fmt)
    if len(_held.written) == 2:
        _held = None


def _json_fields(app: AppTrace) -> tuple:
    """The columns a JSON trace writes of an app: ``JSON_FIELDS``, then
    ``JSON_MONITOR_FIELDS`` unless every monitor column is zero to the bit,
    as on every app without the oracle (a -0.0 keeps them)."""
    zero = not any(np.any(_typed_column(name, app.columns[name]).view(np.int64)) for name in MONITOR_FIELDS)
    return JSON_FIELDS if zero else JSON_FIELDS + JSON_MONITOR_FIELDS


def _trace_texts(trace: Trace, fields: list) -> list:
    """Each app's texts of the columns ``fields`` names for it, by name.  A
    column is formatted again unless it was formatted for this same trace
    object and its bytes are unchanged."""
    global _held
    import hashlib  # here, not at the top: loading it is a few percent of a parse's set-up time
    if _held is None or _held.trace() is not trace or _held.block != _BLOCK:
        _held = _HeldTexts(weakref.ref(trace), _BLOCK, {}, set())
    texts = []
    for i, (app, names) in enumerate(zip(trace.apps, fields)):
        app_texts = {}
        for name in names:
            col = _typed_column(name, app.columns[name])
            # what tells the cells apart: a number's 64-bit pattern (-0.0 and each NaN payload are values
            # of their own), a mode cell's ET flag where every cell is TT or ET, else (None) the str itself
            keys = _mode_flags(col) if col.dtype == object else col.view(np.int64)
            data = json.dumps(col.tolist()).encode() if keys is None else keys.tobytes()
            digest = hashlib.blake2b(data, digest_size=16).digest()
            held = _held.columns.get((i, name))
            if held is None or held[0] != digest:
                held = _held.columns[(i, name)] = (digest, _column_text(col, keys))
            app_texts[name] = held[1]
        texts.append(app_texts)
    return texts


def _column_text(col: np.ndarray, keys: np.ndarray | None) -> _ColumnText:
    """Spell each distinct value of a typed column once, with ``str`` (for a
    float the ``repr`` text), its cells told apart by their ``keys`` (see
    ``_trace_texts``); a mode column of TT and ET cells is spelled from the
    two labels."""
    if keys is not None and keys.dtype == bool:
        values, inverse = _MODE_LABELS, keys.astype(np.intp)
    else:
        _, first, inverse = np.unique(col if keys is None else keys, return_index=True, return_inverse=True)
        values = col[first]
    cells = np.array(list(map(str, values.tolist())), dtype=object)[inverse]
    pieces = ["\n".join(cells[i:i + _BLOCK].tolist()) for i in range(0, len(cells), _BLOCK)]
    odd = values.tolist() if col.dtype == object else values[~np.isfinite(values)].tolist()
    return _ColumnText(pieces, {str(v): json.dumps(v) for v in odd})


def _typed_column(name: str, col) -> np.ndarray:
    """A trace column with the element type the schema gives it: str for
    ``mode``, int for the counters and indices, float for the rest.  Every
    writer and reader types its columns here; the CSV reader passes the
    cells' text."""
    if name == "mode":
        flags = _mode_flags(col)
        return np.array([str(v) for v in col], dtype=object) if flags is None else _MODE_LABELS[flags.astype(np.intp)]
    return np.asarray(col, dtype=np.int64 if name in INT_FIELDS else float)


def _mode_flags(col) -> np.ndarray | None:
    """The ET flag of each cell of a mode column whose cells are all the
    text TT or ET, else None, read from the column's joined text rather
    than cell by cell."""
    try:
        text = "\n".join(col.tolist() if isinstance(col, np.ndarray) else col).encode()
    except TypeError:  # a cell that is not a str
        return None
    n = len(col)
    # TT or ET per cell: three bytes a cell, its second a T and its third the separator, its first a T or an E
    if (len(text) != max(3 * n - 1, 0) or text[1::3] != b"T" * n or text[2::3] != b"\n" * max(n - 1, 0)
            or text[::3].translate(None, b"TE")):
        return None
    return np.frombuffer(text[::3], dtype=np.uint8) == ord("E")


def _write_csv(texts: list, f) -> None:
    f.write(",".join(TRACE_FIELDS) + "\n")
    for app in texts:
        # rows are counted by the k column; zip stops at the shortest piece
        for pieces in zip(*(app[name].pieces for name in TRACE_FIELDS)):
            f.write("\n".join(map(",".join, zip(*(p.split("\n") for p in pieces)))) + "\n")


def _write_json(trace: Trace, texts: list, f) -> None:
    """Write the text ``json.dumps(doc)`` gives for the trace's document: each
    app's columns are those of its texts, spliced in from them; the rest is
    ``json.dumps``'s."""
    head = json.dumps({"schema_version": SCHEMA_VERSION, "status": trace.status,
                       "config": trace.config, "summary": trace.summary})
    f.write(head[:-1] + ', "apps": [')
    for i, (app, columns) in enumerate(zip(trace.apps, texts)):
        f.write((", " if i else "") + '{"app": ' + json.dumps(app.app_id) + ', "switches": '
                + json.dumps(app.switches) + ', "columns": {')
        for j, (name, text) in enumerate(columns.items()):
            spell = text.json_spelling
            cells = [", ".join([spell.get(c, c) for c in p.split("\n")]) if spell else p.replace("\n", ", ")
                     for p in text.pieces]
            f.write((", " if j else "") + json.dumps(name) + ": [" + ", ".join(cells) + "]")
        f.write("}}")
    f.write("]" + (', "bus": ' + json.dumps(_bus_entry(trace)) if _switching(trace.config) else "") + "}")


def _switching(config) -> bool:
    """Whether a raw scenario config names the switching protocol, read
    without parsing it; a config that names neither protocol kind fails to
    parse."""
    protocol = config.get("protocol") if isinstance(config, dict) else None
    return isinstance(protocol, dict) and protocol.get("kind") == "switching"


def _bus_entry(trace: Trace) -> dict:
    """What a switching trace writes of its bus: the ``samples`` the bus ran,
    and ``cut_et``, the ET flag at the last of them of each app, in app
    order, that has no row there (the aborting app and those behind it in
    priority order, or every app when the bus aborted).  ``load_trace``
    replays the rest from each app's ``delay`` column."""
    et, bus_app, n_apps = trace.bus["et"], trace.bus["app"], len(trace.apps)
    n = len(et) // max(n_apps, 1)  # the bus logs one delivery per app per sample
    last = dict(zip(bus_app[len(et) - n_apps:].tolist(), et[len(et) - n_apps:].tolist())) if n else {}
    return {"samples": n, "cut_et": [last[i] for i, app in enumerate(trace.apps) if len(app.columns["k"]) < n]}


def load_trace(path) -> Trace:
    """Read a JSON trace back into memory (the analyze entry point).  A
    version-4 or -5 trace holds each app's independent columns, and
    ``_trace_columns`` derives the rest as the run did; versions 2 and 3 hold
    every column (version 2 two more, which are ignored) and load as written.
    A version-5 trace's bus log is replayed (``_replayed_bus``), an earlier
    one's read as written.  The app entries must be apps 0..N-1 in order,
    one per plant of the config.  A trace that names no version is version
    1, which no longer loads."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise _not_a_trace(path, f"the document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version", 1)
    for key in ("apps", "bus", "config", "status", "summary"):
        if key not in doc and not (key == "bus" and version == SCHEMA_VERSION):  # a v5 fixed trace has none
            raise _not_a_trace(path, f"it has no {key!r} key")
    if not isinstance(doc["apps"], list):
        raise _not_a_trace(path, f"'apps' must be a list, got {type(doc['apps']).__name__}")
    config = doc["config"]
    if not isinstance(config, dict) or not isinstance(config.get("plants", []), list):
        raise _not_a_trace(path, "'config' must be an object whose 'plants', where given, is a list")
    required = TRACE_FIELDS if version in (2, 3) else JSON_FIELDS
    for i, a in enumerate(doc["apps"]):
        if not isinstance(a, dict) or not isinstance(a.get("columns", {}), dict):
            raise _not_a_trace(path, f"app entry {i} and its 'columns' must be objects")
        missing = [key for key in ("app", "switches", "columns") if key not in a]
        missing = missing or [f"columns.{name}" for name in required if name not in a["columns"]]
        if missing:
            raise _not_a_trace(path, f"app entry {i} has no {missing[0]!r} key")
    if version not in (2, 3, 4, SCHEMA_VERSION):
        raise _not_a_trace(path, f"schema_version {json.dumps(version)} is not 2, 3, 4 or {SCHEMA_VERSION}; re-run "
                                 f"`adaptbus run` on the trace's config to write a version-{SCHEMA_VERSION} trace")
    apps = [_load_app(a, f"app entry {i}", version, path) for i, a in enumerate(doc["apps"])]
    n_plants = len(config.get("plants", []))  # the monitors judge app i against plant i
    if len(apps) != n_plants:
        raise _not_a_trace(path, f"it has {len(apps)} app entries and its config {n_plants} plants")
    for i, app in enumerate(apps):
        if app.app_id != i:
            raise _not_a_trace(path, f"app entry {i} is app {app.app_id}; the entries must be apps 0 to "
                                     f"{n_plants - 1} in order")
    if version == SCHEMA_VERSION:
        bus = _replayed_bus(doc, apps, path)
    elif not isinstance(doc["bus"], dict):
        raise _not_a_trace(path, f"'bus' must be an object, got {type(doc['bus']).__name__}")
    else:
        bus = _bus_columns(doc["bus"], path)
    return Trace(config=config, status=doc["status"], apps=apps, bus=bus, summary=doc["summary"])


def _not_a_trace(path, fault: str) -> ValueError:
    return ValueError(f"{path}: not a trace: {fault}")


def _load_app(a: dict, where: str, version: int, path) -> AppTrace:
    """The app of the trace entry ``a``: a version-4 or -5 entry's written columns
    and the columns ``_trace_columns`` derives from them, an earlier entry's
    columns as written.  The app index, the columns read (lists of one
    length) and the switches are checked; each fault is a ``ValueError``
    whose text starts ``not a trace:`` after the path."""
    cols, switches = a["columns"], a["switches"]
    names = TRACE_FIELDS
    if version >= 4:
        monitors = [name for name in JSON_MONITOR_FIELDS if name in cols]
        if monitors and len(monitors) < len(JSON_MONITOR_FIELDS):
            raise _not_a_trace(path, f"{where} must hold all or none of the columns {', '.join(JSON_MONITOR_FIELDS)}")
        names = JSON_FIELDS + tuple(monitors)
    if type(a["app"]) is not int or not 0 <= a["app"] < 2**63:  # an int64 index
        raise _not_a_trace(path, f"{where}: 'app' must be an integer in [0, 2**63), got {json.dumps(a['app'])}")
    for name in names:
        if not isinstance(cols[name], list):
            raise _not_a_trace(path, f"{where}: column {name!r} must be a list, got {type(cols[name]).__name__}")
        if len(cols[name]) != len(cols[names[0]]):
            raise _not_a_trace(path, f"{where}: columns {names[0]!r} and {name!r} differ in length")
    n = len(cols[names[0]])
    if not isinstance(switches, list):
        raise _not_a_trace(path, f"{where}: 'switches' must be a list, got {json.dumps(switches)}")
    for s in switches:
        if not (isinstance(s, list) and len(s) == 3 and type(s[0]) is int and 0 <= s[0] <= n
                and isinstance(s[1], str) and s[1] in _SWITCH_CODES and type(s[2]) is int):
            raise _not_a_trace(path, f'{where}: a switch must be [k, "TT->ET" or "ET->TT", p] with integers '
                                     f"k in [0, {n}] and p, got {json.dumps(s)}")
    written = {}
    for name in names:
        integer = name in INT_FIELDS
        col = _typed_column(name, cols[name]) if name == "mode" else _number_column(cols[name], integer)
        if col is None:
            cells = "integers" if integer else "numbers"
            raise _not_a_trace(path, f"{where}: column {name!r} must be a list of {cells}")
        written[name] = col
    switches = [tuple(s) for s in switches]
    if version >= 4:
        written = _trace_columns(a["app"], written, switches)
    return AppTrace(app_id=a["app"], columns=written, switches=switches)


def _replayed_bus(doc: dict, apps: list, path) -> BusLog:
    """The bus log of a version-5 trace.  A fixed-protocol trace has none,
    and loads without parsing its config.  A switching trace's bus ran
    ``samples`` samples, so each app has that many rows or one fewer; the
    bus is replayed as the run replayed it, over each app's ``delay != 1``
    and, at the last sample, the written ``cut_et`` flag of each app with no
    row there.  A replay that a ``BusCapacityError`` cuts short must end at
    that last sample."""
    if not _switching(doc["config"]):
        if "bus" in doc:
            raise _not_a_trace(path, "a fixed-protocol trace has no 'bus' key")
        return _no_bus()
    entry = doc.get("bus")
    if not isinstance(entry, dict) or set(entry) != {"samples", "cut_et"}:
        raise _not_a_trace(path, f"'bus' must be an object of 'samples' and 'cut_et', got {_brief(entry)}")
    n, flags = entry["samples"], entry["cut_et"]
    rows = [len(app.columns["k"]) for app in apps]
    if type(n) is not int or not all(n - 1 <= r <= n for r in rows):
        raise _not_a_trace(path, f"the bus's 'samples' must be an integer that is each app's row count or one "
                                 f"more, got {_brief(n)}; the apps have {min(rows, default=0)} to "
                                 f"{max(rows, default=0)} rows")
    cut = [i for i, r in enumerate(rows) if r < n]
    if not (isinstance(flags, list) and len(flags) == len(cut) and all(type(f) is int and f in (0, 1) for f in flags)):
        raise _not_a_trace(path, f"the bus's 'cut_et' must hold a 0 or 1 for each of the {len(cut)} apps with no row "
                                 f"at sample {n - 1}, got {_brief(flags)}")
    buscfg = parse_config(doc["config"]).bus
    et = np.zeros((len(apps), n), dtype=bool)
    for i, (app, r) in enumerate(zip(apps, rows)):
        et[i, :r] = app.columns["delay"] != 1
    if cut:
        et[cut, n - 1] = flags
    bus, error = _bus_replay(buscfg, et)
    if error is not None and len(bus["consumed"]) != n - 1:
        raise _not_a_trace(path, f"the bus replay stops at sample {len(bus['consumed'])}: {error}; the trace says "
                                 f"the bus ran {n} samples")
    return bus


def _brief(value) -> str:
    """A JSON value as an error shows it, cut to 60 characters."""
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _bus_columns(bus: dict, path) -> BusLog:
    """The bus log of a trace document as int64 columns; a column that is
    missing, holds a cell that is not an integer (true and false included),
    or differs in length from the others of its group raises ``ValueError``."""
    cols = BusLog()
    for name in BUS_COLUMNS:
        if name not in bus:
            raise _not_a_trace(path, f"the bus has no {name!r} column")
        cols[name] = _number_column(bus[name], integer=True)
        if cols[name] is None:
            raise _not_a_trace(path, f"bus column {name!r} must be a list of integers")
    for group in (CYCLE_COLUMNS, TX_COLUMNS, DELIVERY_COLUMNS):
        lengths = {len(cols[name]) for name in group}
        if len(lengths) > 1:
            raise _not_a_trace(path, f"bus columns {', '.join(group)} differ in length")
    tx_cycle = cols["tx_cycle"]
    if tx_cycle.size and not (0 <= tx_cycle.min() and tx_cycle.max() < len(cols["consumed"])):
        raise _not_a_trace(path, "a transmission names a cycle the bus does not log")
    return cols


def _number_column(values, integer: bool) -> np.ndarray | None:
    """A trace document's list of numbers as a float64 array, or of integers
    as an int64 array; None if it is not one.  numpy alone reads a nested
    list as a 2-D array, [1.5] as ints where ints are asked for, and
    [true, 0, 1] as ints: the shape, the inferred type and the cells' types
    tell them apart."""
    try:
        col = np.array(values, dtype=None if integer else float)
    except (TypeError, ValueError):  # ragged, or a cell that is not a number
        return None
    if col.ndim != 1 or integer and col.size and (col.dtype.kind != "i" or bool in set(map(type, values))):
        return None
    return col.astype(np.int64, copy=False) if integer else col


def read_trace_csv(path) -> dict:
    """Parse an exported CSV back into column arrays (round-trip checks)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    cols: dict[str, list] = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(cell)
    return {name: _typed_column(name, vals) for name, vals in cols.items()}


# ---------------------------------------------------------------------------
# monitors


@dataclass
class MonitorResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass
class MonitorReport:
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        return [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: measured {r.measured:.6g} "
                f"vs threshold {r.threshold:.6g} {r.detail}" for r in self.results]


def evaluate_monitors(trace: Trace, cfg: ScenarioConfig | None = None) -> MonitorReport:
    """Run the monitors of the scenario's protocol, in ``_MONITORS`` order.
    Each takes (trace, cfg, tolerances) and returns its results, none where
    its precondition fails; its docstring is the claim it checks."""
    if cfg is None:
        cfg = parse_config(trace.config)
    return MonitorReport([r for monitor in _MONITORS[cfg.kind] for r in monitor(trace, cfg, cfg.tolerances)])


def _completed(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """The run reached its horizon without an abort."""
    ok = trace.status == "ok"
    return [MonitorResult("completed", ok, 0.0 if ok else 1.0, 0.0, detail=trace.status)]


def _bounded_signals(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """Every app's |y|, |u| and |theta| stay below ``bound``."""
    worst = max([0.0, *(v for s in trace.summary["apps"]
                        for v in (s["max_abs_y"], s["max_abs_u"], s["max_theta_norm"]))])
    return [MonitorResult("bounded_signals", worst < tol["bound"], worst, tol["bound"])]


def _tracking_tail(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """|e| stays below ``tracking_tol`` from ``settle_sample`` on."""
    settle, track = tol["settle_sample"], tol["tracking_tol"]
    worst = max([0.0, *(float(np.max(np.abs(app.columns["e"][settle:]))) for app in trace.apps
                        if len(app.columns["e"]) > settle)])
    return [MonitorResult("tracking_tail", worst < track, worst, track, detail=f"|e| for k >= {settle}")]


def _regressor_rank(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """With the oracle on every app and a declared richness order, the
    windowed Gram rank at the final sample equals that order."""
    declared = cfg.reference.declared_sr_order
    if not (declared and all(spec.oracle for spec in cfg.plants)):
        return []
    ranks = [int(app.columns["rank"][-1]) for app in trace.apps if len(app.columns["rank"])]
    return [MonitorResult("regressor_rank", all(r == declared for r in ranks), float(ranks[0] if ranks else -1),
                          float(declared), detail="windowed Gram rank at the final sample")]


def _orthogonality_residual(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """With the oracle on every app and a declared richness order,
    |Phi . theta_err| / (1 + |Phi|) stays below ``ortho_tol`` over the final
    ``ortho_window`` samples from ``settle_sample`` on, where there are any."""
    if not (cfg.reference.declared_sr_order and all(spec.oracle for spec in cfg.plants)):
        return []
    window, worst, any_window = tol["ortho_window"], 0.0, False
    for app in trace.apps:
        o = app.columns["ortho_res"]
        start = max(len(o) - window, tol["settle_sample"])  # never reach into the transient
        if start < len(o):
            any_window = True
            worst = max(worst, float(np.max(o[start:])))
    return [MonitorResult("orthogonality_residual", worst < tol["ortho_tol"], worst, tol["ortho_tol"],
                          detail=f"max over final {window} settled samples")] if any_window else []


def _parameter_error_monotone(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """With the oracle on every app and no impulse, the parameter error V
    never grows by more than ``dv_fixed_tol``."""
    if not all(spec.oracle for spec in cfg.plants) or any(_impulses(trace, cfg)):
        return []
    worst = max([0.0, *(float(np.max(app.columns["dV"][1:])) for app in trace.apps if len(app.columns["dV"]) > 1)])
    return [MonitorResult("parameter_error_monotone", worst <= tol["dv_fixed_tol"], worst, tol["dv_fixed_tol"])]


def _impulses(trace: Trace, cfg: ScenarioConfig):
    """Each app's impulse times, one app at a time as they are asked for, so
    that any() stops at the first app struck: its dist column's, then, if
    the run stopped early, those its config places after the stop."""
    stopped = trace.status != "ok"
    return (np.flatnonzero(app.columns["dist"]).tolist()
            + (spec.train.times[spec.train.times >= len(app.columns["dist"])].tolist() if stopped else [])
            for app, spec in zip(trace.apps, cfg.plants))


def _impulse_triggers_tt(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """Each impulse pushes |e| past eth within d2 samples and puts its app in
    TT right after; a completed run's impulse too close to the end is not
    judged, while a stopped run fails those it cut."""
    d2, eth = cfg.delays[-1], cfg.eth
    worst_margin, all_triggered, unjudged = np.inf, True, 0
    for app, times in zip(trace.apps, _impulses(trace, cfg)):
        e, mode = app.columns["e"], app.columns["mode"]
        for t in times:
            if trace.status == "ok" and t + d2 + 2 > len(e):
                unjudged += 1
                continue
            peak = max((abs(float(e[j])) for j in range(t + 1, min(t + d2 + 1, len(e)))), default=0.0)
            worst_margin = min(worst_margin, peak)
            in_tt = any(mode[j] == "TT" for j in range(t + 1, min(t + d2 + 2, len(mode))))
            all_triggered = all_triggered and peak > eth and in_tt
    if not np.isfinite(worst_margin):  # no impulse was judged
        return []
    skipped = f"; {unjudged} impulse(s) within d2 + 1 samples of the end not judged" if unjudged else ""
    return [MonitorResult("impulse_triggers_tt", bool(all_triggered), float(worst_margin), eth,
                          detail=f"min post-impulse |e| peak within d2={d2} samples{skipped}")]


def containment_check(e: np.ndarray, switches: list, m2: int, d2: int) -> tuple[list, list]:
    """Post-scenario scan of an app's ``(k, direction, p)`` switches: the |e|
    of the first m2+d2 samples (cut at the end of e) from k' = k + 1 of each
    TT->ET switch with p >= 3, and the length k'' - k' of each ET phase that
    a switch at k'' ends."""
    windows, lengths = [], []
    for i, (k, direction, p) in enumerate(switches):
        if direction == "TT->ET":
            if i + 1 < len(switches):
                lengths.append(switches[i + 1][0] - (k + 1))
            if p >= 3:
                windows.append([abs(float(e[j])) for j in range(k + 1, min(k + 1 + m2 + d2, len(e)))])
    return windows, lengths


def _containment(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """|e| stays within eth over the first m2+d2 samples of each ET re-entry
    with p >= 3, and every ET phase that ends exceeds 2 samples."""
    d2, eth = cfg.delays[-1], cfg.eth
    contain_ok, worst_contain, phase_ok, min_phase_len = True, 0.0, True, np.inf
    for app, spec in zip(trace.apps, cfg.plants):  # each app over its own window
        windows, lengths = containment_check(app.columns["e"], app.switches, spec.model.m2, d2)
        for window in windows:
            worst_contain = max(worst_contain, max(window, default=0.0))
            contain_ok = contain_ok and all(v <= eth + 1e-12 for v in window)
        for length in lengths:
            min_phase_len = min(min_phase_len, length)
            phase_ok = phase_ok and length > 2
    sizes = "/".join(str(w) for w in sorted({spec.model.m2 + d2 for spec in cfg.plants}))
    return [MonitorResult("re_entry_containment", contain_ok, worst_contain, eth,
                          detail=f"|e| over the first m2+d2={sizes} re-entry samples"),
            MonitorResult("et_phase_length", phase_ok, float(min_phase_len if np.isfinite(min_phase_len) else -1.0),
                          2.0, detail="every terminated ET phase must exceed 2 samples")]


def _lyapunov_in_mode(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """V grows by no more than ``dv_tol`` inside a mode (each switch sample and
    the one after excluded), judged where some such dV is not NaN."""
    worst = -np.inf
    for app in trace.apps:
        dv = app.columns["dV"]
        kept = np.arange(len(dv)) >= 1
        excluded = np.array([s[0] + j for s in app.switches for j in (0, 1)], dtype=np.int64)
        kept[excluded[(excluded >= 0) & (excluded < len(dv))]] = False
        # fmax skips a NaN sample; all NaN (or none) leaves -inf
        worst = max(worst, float(np.fmax.reduce(dv[kept], initial=-np.inf)))
    return [MonitorResult("lyapunov_in_mode", worst <= tol["dv_tol"], worst, tol["dv_tol"],
                          detail="max dV at non-switch samples")] if np.isfinite(worst) else []


def _quiescent_switches(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """With no impulse, no app switches after its |e| settles inside eth for
    good, and an app whose |e| ends outside eth has every switch late."""
    if any(_impulses(trace, cfg)):
        return []
    late = 0
    for app in trace.apps:
        e = app.columns["e"]
        bad = np.flatnonzero(~(np.abs(e) <= cfg.eth))  # NaN is outside
        settle = int(bad[-1]) + 1 if bad.size else 0  # |e| stays inside from here
        late += sum(1 for k, _d, _p in app.switches if k > settle) if settle < len(e) else len(app.switches)
    return [MonitorResult("quiescent_switches", late == 0, float(late), 0.0,
                          detail="switches after the error settles inside eth")]


def _bus(trace: Trace, cfg: ScenarioConfig, tol: dict) -> list:
    """TT messages arrive one sample after they are sent and ET ones within
    d2, and each bus cycle's minislots add up and stay within budget."""
    d2, bus = cfg.delays[-1], trace.bus
    k, delay = bus["k"], bus["delivery"] - bus["k"]
    bad = np.where(bus["et"] != 0, (delay < 1) | (delay > d2) | (bus["arrival"] > k + d2 - 1), delay != 1)
    consumed = bus["consumed"]
    broken = (consumed != bus["idle"] + _minislots_sent(bus)) | (consumed > cfg.bus.minislots_per_cycle)
    bad_delay, unconserved = int(np.count_nonzero(bad)), int(np.count_nonzero(broken))
    return [MonitorResult("bus_delay_dichotomy", bad_delay == 0, float(bad_delay), 0.0,
                          detail="TT delay == 1, ET delay <= d2"),
            MonitorResult("minislot_conservation", unconserved == 0, float(unconserved), 0.0,
                          detail="cycles where consumed != idle + transmitted or > minislots_per_cycle")]


_MONITORS = {
    "fixed": (_completed, _bounded_signals, _tracking_tail, _regressor_rank, _orthogonality_residual,
              _parameter_error_monotone),
    "switching": (_completed, _bounded_signals, _impulse_triggers_tt, _containment, _lyapunov_in_mode,
                  _quiescent_switches, _bus),
}

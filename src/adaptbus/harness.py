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
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import kernels, netbus, reference
from .excitation import sr_order
from .netbus import BUS_COLUMNS, CYCLE_COLUMNS, DELIVERY_COLUMNS, TX_COLUMNS, BusCapacityError, BusConfig, Mode
from .plant import DisturbanceTrain, PlantModel, make_impulse_train
from .supervisor import MONITOR_FIELDS, TRACE_FIELDS, containment_check

SCHEMA_VERSION = 2
INT_FIELDS = ("app", "k", "delay", "rank", "switch")  # trace columns holding ints

DEFAULT_TOLERANCES = {
    "bound": 1e3,
    "tracking_tol": 1e-3,
    "settle_sample": 2000,
    "rank_tol": 1e-6,
    "ortho_tol": 1e-3,
    "ortho_window": 500,
    "dv_tol": 1e-9,
    "dv_fixed_tol": 1e-12,
    "check_sr": True,
}
_KINDS = {float: "a number", int: "an integer", bool: "true or false"}  # a tolerance's type, in its errors


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
    protocol: dict
    plants: list
    reference: reference.ReferenceGenerator
    delays: tuple  # of the loop: (d,) on the fixed protocol, (1, d2) switching
    gammas: tuple  # the update-guard gain of each delay
    eth: float  # the switching threshold; -1 on the fixed protocol
    tolerances: dict  # every DEFAULT_TOLERANCES key, of its default's type
    raw: dict

    @property
    def kind(self) -> str:
        return self.protocol["kind"]

    def bus_config(self) -> BusConfig:
        p = self.protocol
        prios = p.get("dyn_priorities") or {}
        prios = prios.items() if isinstance(prios, dict) else enumerate(prios)
        slots = int(p["minislots_per_cycle"]) if "minislots_per_cycle" in p else None  # int(None) rejects a null
        return BusConfig.default(
            len(self.plants), d2=int(p["d2"]), minislots_per_cycle=slots,
            message_minislots=int(p.get("message_minislots", 1)), dyn_priorities={int(k): int(v) for k, v in prios})


def load_document(source) -> dict:
    """The scenario document of a path, a JSON text or a dict (copied).  A
    string is JSON text when it holds a newline or starts with ``{`` or ``[``;
    any other string is a path."""
    if isinstance(source, dict):
        return json.loads(json.dumps(source))
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source
                                    and source.lstrip()[:1] not in ("{", "[")):
        text, where = Path(source).read_text(), str(source)
    else:
        text, where = str(source), "<inline>"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _object(doc, f"{where}: the scenario")


def _object(value, name: str) -> dict:
    """The value of a field that must hold a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _check_gamma(value: float, name: str) -> float:
    g = float(value)
    if not (0.0 < g < 2.0) or g == 1.0:
        raise ConfigError(
            f"{name} = {g} rejected: the update-guard gain must lie in (0, 2) and differ from 1"
        )
    return g


def parse_config(source) -> ScenarioConfig:
    """Load, validate and resolve a scenario, so that a scenario that parses
    will run.  Every plant/gain/protocol/reference rule is enforced here but
    one: impulse times at or past the horizon are accepted, so that a caller
    can shorten a run, and rejected by ``check_impulse_times``.

    Each app takes its own ``disturbance`` and ``beta0_init``, else the shared
    ones; random impulse trains are drawn from one generator seeded by
    ``seed``, app by app."""
    raw = load_document(source)
    try:
        horizon = int(raw.get("horizon", 0))
        if horizon < 0:
            raise ConfigError("horizon must be >= 0")
        seed = int(raw.get("seed", 0))
        protocol = dict(raw.get("protocol", {"kind": "fixed", "d": 1}))
        kind = protocol.get("kind")
        if kind not in ("fixed", "switching"):
            raise ConfigError(f"protocol.kind must be 'fixed' or 'switching', got {kind!r}")
        if kind == "fixed":
            if int(protocol.get("d", 0)) < 1:
                raise ConfigError("fixed protocol needs a delay d >= 1")
            delays, eth = (int(protocol["d"]),), -1.0
        else:
            if int(protocol.get("d2", 0)) < 2:
                raise ConfigError("switching protocol needs d2 >= 2")
            if float(protocol.get("eth", 0.0)) <= 0:
                raise ConfigError("switching protocol needs eth > 0")
            delays, eth = (1, int(protocol["d2"])), float(protocol["eth"])
        delay = delays[-1]  # the longest delay a loop uses
        plants_raw = raw.get("plants", [])
        if not plants_raw:
            raise ConfigError("at least one plant is required")
        shared_beta0 = float(raw.get("beta0_init", 1.0))
        if shared_beta0 == 0.0:
            raise ConfigError("beta0_init must be nonzero: the divisor estimate cannot start at zero")
        shared_dist = raw.get("disturbance")
        if shared_dist is not None:
            # checked even where every plant has its own; these draws are unused
            _impulse_train(_object(shared_dist, "disturbance"), horizon,
                           lambda: np.random.default_rng(seed))
        # one generator for every random train, made when the first is
        # drawn: numpy imports numpy.random on first use, which costs several
        # times a whole parse
        rng = functools.cache(lambda: np.random.default_rng(seed))
        plants = []
        for i, p in enumerate(plants_raw):
            p = _object(p, f"plant[{i}]")
            try:
                model = PlantModel(
                    a=np.asarray(p.get("a", []), dtype=float),
                    b=np.asarray(p["b"], dtype=float),
                    d_nominal=int(p.get("d_nominal", 1)),
                    h=float(p.get("h", 0.01)),
                )
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"plant[{i}]: {exc}") from exc
            b0i = p.get("beta0_init")
            if b0i is not None and float(b0i) == 0.0:
                raise ConfigError(f"plant[{i}]: beta0_init must be nonzero")
            for name, depth in (("y_init", max(model.m1, 1)), ("u_init", max(model.m2 + delay, 1))):
                if len(p.get(name, ())) > depth:
                    raise ConfigError(f"plant[{i}]: {name} has {len(p[name])} values; the history holds {depth}")
            # the app's own disturbance and divisor prior, else the shared ones
            own = p.get("disturbance")
            dist = shared_dist if own is None else _object(own, f"plant[{i}].disturbance")
            plants.append(PlantSpec(
                model=model,
                y_init=tuple(p.get("y_init", ())),
                u_init=tuple(p.get("u_init", ())),
                oracle=bool(p.get("oracle", True)),
                phase_offset=float(p.get("phase_offset", 0.0)),
                train=DisturbanceTrain.empty() if dist is None else _impulse_train(dist, horizon, rng),
                beta0_init=shared_beta0 if b0i is None else float(b0i),
            ))
        ref_spec = _object(raw.get("reference", {"type": "constant", "level": 1.0}), "reference")
        try:
            gen = reference.from_spec(ref_spec)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"reference: {exc}") from exc
        gammas = raw.get("gammas", [0.5, 0.5])
        gamma1 = _check_gamma(gammas[0], "gamma1")
        gamma2 = _check_gamma(gammas[1] if len(gammas) > 1 else gammas[0], "gamma2")
        tol = _tolerances(raw.get("tolerances", {}))
        if isinstance(gen, reference.Tabulated):
            shifted = [i for i, spec in enumerate(plants) if spec.phase_offset != 0.0]
            if shifted:
                raise ConfigError(f"plant[{shifted[0]}]: phase_offset needs a periodic reference, not a file")
            _check_table_length(gen, horizon, delay, tol)
        cfg = ScenarioConfig(
            name=str(raw.get("name", "scenario")),
            horizon=horizon,
            seed=seed,
            protocol=protocol,
            plants=plants,
            reference=gen,
            delays=delays,
            gammas=tuple(gamma1 if d == 1 else gamma2 for d in delays),
            eth=eth,
            tolerances=tol,
            raw=raw,
        )
        if kind == "switching":
            cfg.bus_config()  # validates slot/priority/d2 consistency
        _check_reference_richness(gen, tol)
        return cfg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


def _tolerances(given) -> dict:
    """The scenario's tolerances over the defaults, each of its default's
    type: a float key takes any number, an int key an integral number, and
    ``check_sr`` true or false.  Any other key or value is rejected."""
    tol = dict(DEFAULT_TOLERANCES)
    for name, value in _object(given, "tolerances").items():
        if name not in tol:
            raise ConfigError(f"tolerances: unknown key {name!r}; the keys are {', '.join(tol)}")
        kind = type(tol[name])
        if (isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float))
                or (kind is int and not float(value).is_integer())):
            raise ConfigError(f"tolerances.{name} must be {_KINDS[kind]}, got {json.dumps(value)}")
        tol[name] = kind(value)
    return tol


def _check_table_length(gen: reference.Tabulated, horizon: int, lookahead: int, tol: dict) -> None:
    """A tabulated reference must hold every sample the run reads: the
    horizon plus the delay's lookahead, and the richness-check window."""
    have = gen.values.size
    need = horizon + lookahead
    if have < need:
        raise ConfigError(
            f"reference: the table has {have} values; horizon {horizon} plus the "
            f"lookahead {lookahead} needs {need}"
        )
    declared = gen.declared_sr_order
    if declared and tol["check_sr"]:
        window = _richness_window(declared)[2]
        if have < window:
            raise ConfigError(
                f"reference: the table has {have} values; checking the declared "
                f"richness order {declared} needs {window}"
            )


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
    if peak == 0.0:
        measured = 0
    else:
        measured = sr_order(seq, m_max=m_max, N=N, tol=1e-8 * N * peak * peak)
    if measured != declared:
        raise ConfigError(
            f"reference declares richness order {declared} but measures {measured}"
        )


def _impulse_train(spec: dict, horizon: int, rng) -> DisturbanceTrain:
    """The impulse train of a disturbance spec: its explicit times, or times
    drawn from the generator ``rng()`` returns.  Times below 0 are rejected;
    times at or past the horizon are left to check_impulse_times."""
    t_dw = int(spec.get("t_dw", 0))
    if t_dw < 1:
        raise ConfigError("disturbance t_dw must be >= 1")
    times = spec.get("times")
    if times is None and not spec.get("random", False):
        raise ConfigError("disturbance needs explicit 'times' or 'random': true")
    amplitudes = spec.get("amplitudes", 1.0)
    try:
        if times is None:
            train = make_impulse_train(t_dw, horizon, amplitudes=amplitudes, rng=rng())
        else:
            train = make_impulse_train(t_dw, horizon, amplitudes=amplitudes, times=list(times))
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
    schema_version: int = SCHEMA_VERSION


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
        rows, aborting = [run.k_stop for run in runs], None
        bus = BusLog({name: np.zeros(0, dtype=np.int64) for name in BUS_COLUMNS})
        status = "; ".join(
            f"{'diverged' if run.status == kernels.SIM_DIVERGED else 'zero divisor'}: app {i} at sample {run.k_stop}"
            for i, run in enumerate(runs) if run.status) or "ok"
    else:
        summary = {"kind": "switching", "d2": cfg.delays[-1], "eth": cfg.eth}
        rows, aborting, status, bus = _replay_bus(cfg.bus_config(), runs, cfg.horizon)
    rank_tol = cfg.tolerances["rank_tol"]
    apps, summary["apps"] = [], []
    for i, (n, spec, yref_ext) in enumerate(zip(rows, cfg.plants, yrefs)):
        # the loop's lists are freed before this app's ideal models run
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
    n = min(k_stop + 1, T)
    bus = BusLog()
    status, aborting = "ok", None
    try:
        netbus.replay(buscfg, [run.et[:n] for run in runs], n, bus)
        if k_stop < T:
            aborting = order[j_stop]
            status = f"aborted at sample {k_stop}: {_abort_text(runs[aborting])}"
    except BusCapacityError as exc:
        # a bus abort at sample k precedes every app step at k
        k_stop, j_stop = len(bus["consumed"]), 0
        status = f"aborted at sample {k_stop}: {exc}"
    rows = [0] * len(runs)
    for j, app in enumerate(order):
        rows[app] = k_stop + (j < j_stop)
    return rows, aborting, status, bus


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


_MODE_LABELS = np.array([Mode.TT.value, Mode.ET.value], dtype=object)


def _mode_labels(delay: np.ndarray) -> np.ndarray:
    """Each sample's mode from its delay, TT at 1 and ET otherwise; the rows
    share two str objects."""
    return _MODE_LABELS[(delay != 1).astype(np.intp)]


def _app_trace(app_id: int, run: kernels.LoopRun, n: int, delays: tuple, spec: PlantSpec,
               yref_ext: np.ndarray, switches: list, rank_tol: float) -> tuple[AppTrace, dict]:
    """The first n rows of one app's trace, and its summary, from its loop
    run: the simulation columns, and the monitor columns computed from the
    recorded estimates and regressors against the ideal model at each delay
    (without the oracle: zero, and yref_prime = yref)."""
    model, d = spec.model, delays[-1]
    et = run.et[:n]
    delay = np.where(et, d, delays[0])
    switch = np.zeros(n, dtype=int)
    for k, direction, _p in switches:
        if k < n:
            switch[k] = 1 if direction == "TT->ET" else 2
    # copies: a view would keep the loop's arrays alive, which were made
    # among its lists and which peak RSS then pays for (about 4 MB on the
    # benchmark's fixed workload)
    y, yref = run.y[:n].copy(), yref_ext[:n].copy()
    cols = {
        "app": np.full(n, app_id, dtype=int),
        "k": np.arange(n),
        "mode": _mode_labels(delay),
        "y": y,
        "yref": yref,
        "e": y - yref,  # the loop's own e(k) = y(k) - ref[k]
        "u": run.u[:n].copy(),
        "delay": delay,
        "eps": run.eps[:n].copy(),
        "switch": switch,
        "dist": spec.train.dense(n),
    }
    cols.update({name: np.zeros(n, dtype=int if name == "rank" else float) for name in MONITOR_FIELDS},
                yref_prime=cols["yref"])
    thetas = [rows[:n] for rows in run.theta_rows]
    if spec.oracle and n:
        yref_prime = yref_ext[:n + d] + _dprime_sequence(model, spec.train, n + d)
        errs = [model.true_theta(dj) - theta for dj, theta in zip(delays, thetas)]
        Phis = [rows[dj: dj + n] for dj, rows in zip(delays, run.phi_rows)]
        # a one-element regressor compares nothing with its ideal model, which does not run
        diffs = [Phi[:, :-1] - _ideal_regressors(model, dj, yref_prime, n, spec.y_init, spec.u_init)[:, :-1]
                 if Phi.shape[1] > 1 else np.zeros((n, 0)) for dj, Phi in zip(delays, Phis)]
        tt = ~et
        cols.update(_monitor_columns(_by_mode(tt, errs[0], errs[-1]), _by_mode(tt, diffs[0], diffs[-1]),
                                     Phis[-1], errs[-1], rank_tol), yref_prime=yref_prime[:n])
        if len(delays) == 2:
            # a switching app's Gram window reports once it holds M2 samples
            M2 = Phis[-1].shape[1]
            cols["rank"][:M2 - 1] = 0
            cols["alpha_hat"][:M2 - 1] = 0.0
    cols = {name: cols[name] for name in TRACE_FIELDS}
    theta_norms = np.maximum.reduce([np.linalg.norm(theta, axis=1) for theta in thetas])
    app = AppTrace(app_id=app_id, columns=cols, switches=switches)
    return app, _app_summary(app_id, cols, theta_norms, switches)


def _dprime_sequence(model: PlantModel, train: DisturbanceTrain, n: int) -> np.ndarray:
    """D'(0..n-1): the disturbance run through the inverse plant A/B from rest,
    in ``DisturbanceInverseFilter.step``'s arithmetic order."""
    a, b = model.a.tolist(), model.b.tolist()
    if not len(train.times):
        return np.full(n, 0.0 / b[0])  # the filter's output from rest, with its sign of zero
    m1, m2 = len(a), len(b) - 1
    din = [0.0] * m1 + train.dense(n).tolist()  # din[m1 + t] = D(t)
    dout = [0.0] * m2  # dout[m2 + t] = D'(t)
    for k in range(n):
        acc = din[m1 + k]
        for l in range(1, m1 + 1):
            acc += a[l - 1] * din[m1 + k - l]
        for l in range(1, m2 + 1):
            acc -= b[l] * dout[m2 + k - l]
        dout.append(acc / b[0])
    return np.array(dout[m2:], dtype=float)


def _ideal_regressors(model: PlantModel, d: int, yref_prime: np.ndarray, n: int,
                      y_init=(), u_init=()) -> np.ndarray:
    """Phi*(k), k < n, of the ideal closed loop at delay d: the true plant and
    parameters, no disturbance, driven by the equivalent reference."""
    run = kernels.adaptive_loop(model.a, model.b, yref_prime[:n + d], (), y_init, u_init,
                                (model.true_theta(d),), (0.5,), updates=False)
    rows = run.phi_rows[0]
    Phi = np.array(rows[d: d + n], dtype=float).reshape(-1, len(rows[0]))
    if len(Phi) < n:  # a stopped run has no regressor past its stop
        Phi = np.concatenate([Phi, np.zeros((n - len(Phi), Phi.shape[1]))])
    return Phi


def _by_mode(tt: np.ndarray, tt_rows: np.ndarray, et_rows: np.ndarray) -> np.ndarray:
    """Row k of tt_rows (zero-padded to the ET width) where tt[k] holds, else
    of et_rows; et_rows itself when both are one array (a pinned loop)."""
    if tt_rows is et_rows:
        return et_rows
    out = np.where(tt[:, None], 0.0, et_rows)
    out[tt, : tt_rows.shape[1]] = tt_rows[tt]
    return out


def _monitor_columns(v_err, phi_diff, Phi, theta_err, rank_tol: float) -> dict:
    """The monitor columns from whole-run arrays, one row per sample: V = |v_err|^2
    and its increment, |phi_diff| (loop regressor minus the ideal model's), the
    windowed Gram rank of Phi and |Phi . theta_err| / (1 + |Phi|)."""
    V = np.einsum("ki,ki->k", v_err, v_err)
    rank, alpha_hat = _windowed_rank(Phi, rank_tol)
    return {
        "V": V,
        "dV": np.concatenate([[0.0], np.diff(V)]),
        "phi_err": np.linalg.norm(phi_diff, axis=1),
        "rank": rank,
        "alpha_hat": alpha_hat,
        "ortho_res": np.abs(np.einsum("ki,ki->k", Phi, theta_err)) / (1.0 + np.linalg.norm(Phi, axis=1)),
    }


def _windowed_rank(Phi: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample rank and smallest retained eigenvalue of the sliding-window
    regressor Gram (window 8M plus an M-sample slack, as in GramWindow).

    The running sums restart at every block of one window length, so a
    window Gram adds up at most two blocks and its rounding does not grow
    with the run."""
    T, M = Phi.shape
    cap = 8 * M + M
    nb = -(-T // cap)
    outer = np.zeros((nb * cap, M, M))
    np.einsum("ki,kj->kij", Phi, Phi, out=outer[:T])
    grams = np.cumsum(outer.reshape(nb, cap, M, M), axis=1).reshape(nb * cap, M, M)[:T]
    # window k is rows k+1-cap..k: its block's sum up to k plus the rest of the block before
    k = np.arange(cap, T)
    head = k - k % cap
    grams[cap:] += grams[head - 1] - grams[k - cap]
    w = np.linalg.eigvalsh(grams)  # ascending, (T, M)
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


def _settle_sample(e: np.ndarray, level: float) -> int | None:
    """First sample from which |e| stays within level forever (None if never)."""
    ok = np.abs(e) <= level
    if not ok.size:
        return None
    # last violation, if any
    bad = np.nonzero(~ok)[0]
    if bad.size == 0:
        return 0
    s = int(bad[-1]) + 1
    return s if s < ok.size else None


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
    columns: dict  # (app index, name) -> (digest of the typed column, _ColumnText)
    written: set  # formats exported from these texts


_held: _HeldTexts | None = None


def export_trace(trace: Trace, path, fmt: str = "csv") -> None:
    """Write the trace; CSV holds the per-sample rows (header pinned to the
    trace schema), JSON the full structure including config and summary, as
    ``json.dumps(doc)`` writes it.  Floats are serialized at round-trip
    precision.  Both formats are written from one text of each column, kept
    until the same trace has been exported to both, and streamed to the file
    a block of rows at a time."""
    global _held
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    texts = _trace_texts(trace)
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


def _trace_texts(trace: Trace) -> list:
    """Each app's column texts, by name.  A column is formatted again unless
    it was formatted for this same trace object and its bytes are unchanged."""
    global _held
    import hashlib  # here, not at the top: loading it is a few percent of a parse's set-up time
    if _held is None or _held.trace() is not trace:
        _held = _HeldTexts(weakref.ref(trace), {}, set())
    texts = []
    for i, app in enumerate(trace.apps):
        app_texts = {}
        for name in TRACE_FIELDS:
            col = _typed_column(name, app.columns[name])
            data = json.dumps(col.tolist()).encode() if col.dtype == object else col.tobytes()
            digest = hashlib.blake2b(data, digest_size=16).digest()
            held = _held.columns.get((i, name))
            if held is None or held[0] != digest:
                held = _held.columns[(i, name)] = (digest, _column_text(col))
            app_texts[name] = held[1]
        texts.append(app_texts)
    return texts


def _column_text(col: np.ndarray) -> _ColumnText:
    """Spell each distinct value of a typed column once, with ``str`` (for a
    float the ``repr`` text).  Numbers are told apart by their 64-bit pattern,
    so -0.0 and every NaN payload keep their own text."""
    keys = col if col.dtype == object else col.view(np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
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
        return np.array([str(v) for v in col], dtype=object)
    return np.asarray(col, dtype=np.int64 if name in INT_FIELDS else float)


def _write_csv(texts: list, f) -> None:
    f.write(",".join(TRACE_FIELDS) + "\n")
    for app in texts:
        # rows are counted by the k column; zip stops at the shortest piece
        for pieces in zip(*(app[name].pieces for name in TRACE_FIELDS)):
            f.write("\n".join(map(",".join, zip(*(p.split("\n") for p in pieces)))) + "\n")


def _write_json(trace: Trace, texts: list, f) -> None:
    """Write the text ``json.dumps(doc)`` gives for the trace's document: the
    columns are spliced in from their texts, the rest is ``json.dumps``'s."""
    head = json.dumps({"schema_version": trace.schema_version, "status": trace.status,
                       "config": trace.config, "summary": trace.summary})
    f.write(head[:-1] + ', "apps": [')
    for i, (app, columns) in enumerate(zip(trace.apps, texts)):
        f.write((", " if i else "") + '{"app": ' + json.dumps(app.app_id) + ', "switches": '
                + json.dumps(app.switches) + ', "columns": {')
        for j, name in enumerate(TRACE_FIELDS):
            spell = columns[name].json_spelling
            cells = [", ".join([spell.get(c, c) for c in p.split("\n")]) if spell else p.replace("\n", ", ")
                     for p in columns[name].pieces]
            f.write((", " if j else "") + json.dumps(name) + ": [" + ", ".join(cells) + "]")
        f.write("}}")
    f.write('], "bus": ' + json.dumps({name: trace.bus[name].tolist() for name in BUS_COLUMNS}) + "}")


def load_trace(path) -> Trace:
    """Read a JSON trace back into memory (the analyze entry point).  A
    version-1 trace's bus (``cycles`` and ``deliveries`` lists) is read
    into the bus columns."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a trace: the document must be a JSON object, got {type(doc).__name__}")
    for key in ("apps", "bus", "config", "status", "summary"):
        if key not in doc:
            raise ValueError(f"{path}: not a trace: it has no {key!r} key")
    if not isinstance(doc["apps"], list):
        raise ValueError(f"{path}: not a trace: 'apps' must be a list, got {type(doc['apps']).__name__}")
    for i, a in enumerate(doc["apps"]):
        if not isinstance(a, dict) or not isinstance(a.get("columns", {}), dict):
            raise ValueError(f"{path}: not a trace: app entry {i} and its 'columns' must be objects")
        missing = [key for key in ("app", "switches", "columns") if key not in a]
        missing = missing or [f"columns.{name}" for name in TRACE_FIELDS if name not in a["columns"]]
        if missing:
            raise ValueError(f"{path}: not a trace: app entry {i} has no {missing[0]!r} key")
    apps = [
        AppTrace(
            app_id=a["app"],
            columns={name: _typed_column(name, a["columns"][name]) for name in TRACE_FIELDS},
            switches=[tuple(s) for s in a["switches"]],
        )
        for a in doc["apps"]
    ]
    bus = doc["bus"]
    if not isinstance(bus, dict):
        raise ValueError(f"{path}: not a trace: 'bus' must be an object, got {type(bus).__name__}")
    if doc.get("schema_version", 1) == 1:
        bus = _v1_columns(bus, path)
    return Trace(config=doc["config"], status=doc["status"], apps=apps, bus=_bus_columns(bus, path),
                 summary=doc["summary"])


def _bus_columns(bus: dict, path) -> BusLog:
    """The bus log of a trace document as int64 columns; a column that is
    missing, holds a cell that is not an integer (true and false included),
    or differs in length from the others of its group raises ``ValueError``."""
    cols = BusLog()
    for name in BUS_COLUMNS:
        if name not in bus:
            raise ValueError(f"{path}: not a trace: the bus has no {name!r} column")
        try:
            col = np.array(bus[name])
        except ValueError:  # ragged
            col = None
        # numpy reads [true, 0, 1] as ints; the cells' types tell the bools apart
        if col is None or col.ndim != 1 or (col.size and (col.dtype.kind not in "iu"
                                                           or bool in set(map(type, bus[name])))):
            raise ValueError(f"{path}: not a trace: bus column {name!r} must be a list of integers")
        cols[name] = col.astype(np.int64, copy=False)
    for group in (CYCLE_COLUMNS, TX_COLUMNS, DELIVERY_COLUMNS):
        lengths = {len(cols[name]) for name in group}
        if len(lengths) > 1:
            raise ValueError(f"{path}: not a trace: bus columns {', '.join(group)} differ in length")
    tx_cycle = cols["tx_cycle"]
    if tx_cycle.size and not (0 <= tx_cycle.min() and tx_cycle.max() < len(cols["consumed"])):
        raise ValueError(f"{path}: not a trace: a transmission names a cycle the bus does not log")
    return cols


def _v1_columns(bus: dict, path) -> dict:
    """The bus columns of a version-1 bus: ``cycles`` dicts with their
    transmissions as [app, length], and [app, k, mode, delivery, arrival]
    deliveries; the stored ``conserved`` flags are recomputed, not read."""
    try:
        cycles, deliveries = bus.get("cycles", []), bus.get("deliveries", [])
        tx = [(c["cycle"], app, length) for c in cycles for app, length in c["transmissions"]]
        rows = {"consumed": [c["consumed_minislots"] for c in cycles], "idle": [c["idle_slots"] for c in cycles],
                "carried": [c["carried"] for c in cycles]}
        rows.update(zip(TX_COLUMNS, zip(*tx) if tx else ((), (), ())))
        rows.update(zip(DELIVERY_COLUMNS, zip(*deliveries) if deliveries else ((),) * 5))
        rows["et"] = [int(mode != Mode.TT.value) for mode in rows["et"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a trace: malformed version-1 bus: {exc!r}") from exc
    return {name: list(col) for name, col in rows.items()}


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
    """Run every monitor applicable to the scenario kind; each result carries
    the measured quantity and its threshold."""
    if cfg is None:
        cfg = parse_config(trace.config)
    tol = cfg.tolerances
    results: list[MonitorResult] = []
    ok_status = trace.status == "ok"
    results.append(MonitorResult(
        name="completed", passed=ok_status, measured=0.0 if ok_status else 1.0,
        threshold=0.0, detail=trace.status,
    ))
    bound = tol["bound"]
    worst = 0.0
    for s in trace.summary["apps"]:
        worst = max(worst, s["max_abs_y"], s["max_abs_u"], s["max_theta_norm"])
    results.append(MonitorResult("bounded_signals", worst < bound, worst, bound))
    if trace.summary.get("kind") == "fixed":
        _fixed_monitors(trace, cfg, results)
    else:
        _switching_monitors(trace, cfg, results)
    return MonitorReport(results=results)


def _fixed_monitors(trace: Trace, cfg: ScenarioConfig, results: list) -> None:
    tol = cfg.tolerances
    settle, track = tol["settle_sample"], tol["tracking_tol"]
    worst_tail = 0.0
    for app in trace.apps:
        e = app.columns["e"]
        if len(e) > settle:
            worst_tail = max(worst_tail, float(np.max(np.abs(e[settle:]))))
    results.append(MonitorResult("tracking_tail", worst_tail < track, worst_tail, track,
                                 detail=f"|e| for k >= {settle}"))
    declared = cfg.reference.declared_sr_order
    oracle = all(spec.oracle for spec in cfg.plants)
    if oracle and declared:
        ranks = [int(app.columns["rank"][-1]) for app in trace.apps if len(app.columns["rank"])]
        measured = ranks[0] if ranks else -1
        results.append(MonitorResult("regressor_rank", all(r == declared for r in ranks),
                                     float(measured), float(declared),
                                     detail="windowed Gram rank at the final sample"))
        window = tol["ortho_window"]
        worst_o = 0.0
        any_window = False
        for app in trace.apps:
            o = app.columns["ortho_res"]
            start = max(len(o) - window, settle)  # never reach into the transient
            if start < len(o):
                any_window = True
                worst_o = max(worst_o, float(np.max(o[start:])))
        if any_window:
            results.append(MonitorResult("orthogonality_residual", worst_o < tol["ortho_tol"],
                                         worst_o, tol["ortho_tol"],
                                         detail=f"max over final {window} settled samples"))
    if oracle and not any(_impulses(trace, cfg)):
        worst_dv = 0.0
        for app in trace.apps:
            dv = app.columns["dV"]
            if len(dv) > 1:
                worst_dv = max(worst_dv, float(np.max(dv[1:])))
        results.append(MonitorResult("parameter_error_monotone", worst_dv <= tol["dv_fixed_tol"],
                                     worst_dv, tol["dv_fixed_tol"]))


def _impulses(trace: Trace, cfg: ScenarioConfig) -> list:
    """Each app's impulse times: its trace's dist column, then, if the run
    stopped early, those its config places after the stop."""
    stopped = trace.status != "ok"
    return [np.flatnonzero(app.columns["dist"]).tolist()
            + (spec.train.times[spec.train.times >= len(app.columns["dist"])].tolist() if stopped else [])
            for app, spec in zip(trace.apps, cfg.plants)]


def _switching_monitors(trace: Trace, cfg: ScenarioConfig, results: list) -> None:
    tol = cfg.tolerances
    d2, eth = cfg.delays[-1], cfg.eth
    impulses = _impulses(trace, cfg)
    # impulse response: each impulse must push |e| past eth within d2 samples
    # and put the app in TT right after; a completed run's impulse too close
    # to the end is not judged, while a stopped run fails the impulses it cut
    worst_margin = np.inf
    all_triggered = True
    unjudged = 0
    for app, times in zip(trace.apps, impulses):
        e, mode = app.columns["e"], app.columns["mode"]
        for t in times:
            if trace.status == "ok" and t + d2 + 2 > len(e):
                unjudged += 1
                continue
            peak = max((abs(float(e[j])) for j in range(t + 1, min(t + d2 + 1, len(e)))), default=0.0)
            worst_margin = min(worst_margin, peak)
            in_tt = any(mode[j] == "TT" for j in range(t + 1, min(t + d2 + 2, len(mode))))
            all_triggered = all_triggered and peak > eth and in_tt
    if np.isfinite(worst_margin):  # some impulse was judged
        skipped = f"; {unjudged} impulse(s) within d2 + 1 samples of the end not judged" if unjudged else ""
        results.append(MonitorResult("impulse_triggers_tt", bool(all_triggered), float(worst_margin), eth,
                                     detail=f"min post-impulse |e| peak within d2={d2} samples{skipped}"))
    # containment, each app over its own window, and phase lengths
    contain_ok = True
    phase_ok = True
    worst_contain = 0.0
    min_phase_len = np.inf
    for app, spec in zip(trace.apps, cfg.plants):
        events = [netbus.SwitchEvent(k=s[0], direction=s[1], p=s[2]) for s in app.switches]
        rep = containment_check(app.columns["e"], events, eth, spec.model.m2, d2)
        for entry in rep.entries:
            worst_contain = max(worst_contain, max((abs(v) for v in entry.errors), default=0.0))
            contain_ok = contain_ok and entry.ok
        for ph in rep.phases:
            if ph.terminated:
                min_phase_len = min(min_phase_len, ph.length)
            phase_ok = phase_ok and ph.ok
    windows = "/".join(str(w) for w in sorted({spec.model.m2 + d2 for spec in cfg.plants}))
    results.append(MonitorResult("re_entry_containment", contain_ok, worst_contain, eth,
                                 detail=f"|e| over the first m2+d2={windows} re-entry samples"))
    results.append(MonitorResult("et_phase_length", phase_ok,
                                 float(min_phase_len if np.isfinite(min_phase_len) else -1.0), 2.0,
                                 detail="every terminated ET phase must exceed 2 samples"))
    # Lyapunov non-increase inside modes, switch samples excluded
    worst_dv = -np.inf
    for app in trace.apps:
        dv = app.columns["dV"]
        kept = np.arange(len(dv)) >= 1
        excluded = np.array([s[0] + j for s in app.switches for j in (0, 1)], dtype=np.int64)
        kept[excluded[(excluded >= 0) & (excluded < len(dv))]] = False
        # fmax skips a NaN sample; all NaN (or none) leaves -inf
        worst_dv = max(worst_dv, float(np.fmax.reduce(dv[kept], initial=-np.inf)))
    if np.isfinite(worst_dv):
        results.append(MonitorResult("lyapunov_in_mode", worst_dv <= tol["dv_tol"],
                                     worst_dv, tol["dv_tol"],
                                     detail="max dV at non-switch samples"))
    # quiescence where no impulse strikes
    if not any(impulses):
        late_switches = 0
        for app in trace.apps:
            settle = _settle_sample(app.columns["e"], eth)
            if settle is None:
                late_switches += len(app.switches)
                continue
            late_switches += sum(1 for (kp, _d, _p) in app.switches if kp > settle)
        results.append(MonitorResult("quiescent_switches", late_switches == 0,
                                     float(late_switches), 0.0,
                                     detail="switches after the error settles inside eth"))
    # bus delays and minislot conservation
    bus = trace.bus
    k, delay = bus["k"], bus["delivery"] - bus["k"]
    bad = np.where(bus["et"] != 0, (delay < 1) | (delay > d2) | (bus["arrival"] > k + d2 - 1), delay != 1)
    bad_delay = int(np.count_nonzero(bad))
    results.append(MonitorResult("bus_delay_dichotomy", bad_delay == 0, float(bad_delay), 0.0,
                                 detail="TT delay == 1, ET delay <= d2"))
    consumed = bus["consumed"]
    broken = (consumed != bus["idle"] + _minislots_sent(bus)) | (consumed > cfg.bus_config().minislots_per_cycle)
    unconserved = int(np.count_nonzero(broken))
    results.append(MonitorResult("minislot_conservation", unconserved == 0, float(unconserved), 0.0,
                                 detail="cycles where consumed != idle + transmitted or > minislots_per_cycle"))

"""Scenario configuration, deterministic execution, trace persistence, and
stability-monitor evaluation.

A scenario is a JSON document: plants, a reference generator, an optional
impulse-train disturbance, and either a fixed-delay protocol (baseline
adaptive loop) or the switching TT/ET protocol with its bus parameters.
(config, seed) fully determines every output byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels, netbus, reference
from .excitation import sr_order
from .netbus import BusCapacityError, BusConfig, BusState, Mode
from .plant import DisturbanceTrain, PlantModel, make_impulse_train
from .supervisor import (
    MONITOR_FIELDS,
    TRACE_FIELDS,
    SwitchingRun,
    containment_check,
    simulate_switching,
)

SCHEMA_VERSION = 1
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


class ConfigError(ValueError):
    """Scenario configuration rejected; the message names the violated rule."""


@dataclass
class PlantSpec:
    model: PlantModel
    y_init: tuple = ()
    u_init: tuple = ()
    oracle: bool = True
    phase_offset: float = 0.0
    disturbance: dict | None = None
    beta0_init: float | None = None  # per-app override of the shared default


@dataclass
class ScenarioConfig:
    name: str
    horizon: int
    seed: int
    protocol: dict
    plants: list
    reference_spec: dict
    disturbance: dict | None
    gamma1: float
    gamma2: float
    beta0_init: float
    tolerances: dict
    raw: dict

    @property
    def kind(self) -> str:
        return self.protocol["kind"]

    def reference(self) -> reference.ReferenceGenerator:
        return reference.from_spec(self.reference_spec)

    def bus_config(self) -> BusConfig:
        p = self.protocol
        n = len(self.plants)
        slots = p.get("static_slots") or {i: i for i in range(n)}
        prios = p.get("dyn_priorities") or {i: i + 1 for i in range(n)}
        slots = {int(k): int(v) for k, v in (slots.items() if isinstance(slots, dict) else enumerate(slots))}
        prios = {int(k): int(v) for k, v in (prios.items() if isinstance(prios, dict) else enumerate(prios))}
        return BusConfig(
            n_apps=n,
            static_slots=slots,
            dyn_priorities=prios,
            minislots_per_cycle=int(p.get("minislots_per_cycle", max(4, 2 * n))),
            d2=int(p["d2"]),
            eth=float(p["eth"]),
            message_minislots=int(p.get("message_minislots", 1)),
        )


def _load_raw(source) -> dict:
    if isinstance(source, dict):
        return json.loads(json.dumps(source))
    text = None
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and Path(source).exists()):
        text = Path(source).read_text()
        where = str(source)
    else:
        text = str(source)
        where = "<inline>"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _check_gamma(value: float, name: str) -> float:
    g = float(value)
    if not (0.0 < g < 2.0) or g == 1.0:
        raise ConfigError(
            f"{name} = {g} rejected: the update-guard gain must lie in (0, 2) and differ from 1"
        )
    return g


def parse_config(source) -> ScenarioConfig:
    """Load and validate a scenario; all plant/gain/protocol rules are
    enforced here so a scenario that parses will run."""
    raw = _load_raw(source)
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
        else:
            if int(protocol.get("d2", 0)) < 2:
                raise ConfigError("switching protocol needs d2 >= 2")
            if float(protocol.get("eth", 0.0)) <= 0:
                raise ConfigError("switching protocol needs eth > 0")
        delay = int(protocol["d" if kind == "fixed" else "d2"])  # the longest delay a loop uses
        plants_raw = raw.get("plants", [])
        if not plants_raw:
            raise ConfigError("at least one plant is required")
        plants = []
        for i, p in enumerate(plants_raw):
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
            plants.append(PlantSpec(
                model=model,
                y_init=tuple(p.get("y_init", ())),
                u_init=tuple(p.get("u_init", ())),
                oracle=bool(p.get("oracle", True)),
                phase_offset=float(p.get("phase_offset", 0.0)),
                disturbance=p.get("disturbance"),
                beta0_init=None if b0i is None else float(b0i),
            ))
        ref_spec = raw.get("reference", {"type": "constant", "level": 1.0})
        try:
            gen = reference.from_spec(ref_spec)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"reference: {exc}") from exc
        gammas = raw.get("gammas", [0.5, 0.5])
        gamma1 = _check_gamma(gammas[0], "gamma1")
        gamma2 = _check_gamma(gammas[1] if len(gammas) > 1 else gammas[0], "gamma2")
        beta0_init = float(raw.get("beta0_init", 1.0))
        if beta0_init == 0.0:
            raise ConfigError("beta0_init must be nonzero: the divisor estimate cannot start at zero")
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(raw.get("tolerances", {}))
        if isinstance(gen, reference.Tabulated):
            shifted = [i for i, spec in enumerate(plants) if spec.phase_offset != 0.0]
            if shifted:
                raise ConfigError(f"plant[{shifted[0]}]: phase_offset needs a periodic reference, not a file")
            _check_table_length(gen, horizon, delay, tol)
        dist = raw.get("disturbance")
        if dist is not None:
            _validate_disturbance(dist, horizon)
        for spec in plants:
            if spec.disturbance is not None:
                _validate_disturbance(spec.disturbance, horizon)
        cfg = ScenarioConfig(
            name=str(raw.get("name", "scenario")),
            horizon=horizon,
            seed=seed,
            protocol=protocol,
            plants=plants,
            reference_spec=ref_spec,
            disturbance=dist,
            gamma1=gamma1,
            gamma2=gamma2,
            beta0_init=beta0_init,
            tolerances=tol,
            raw=raw,
        )
        if kind == "switching":
            cfg.bus_config()  # validates slot/priority/d2/eth consistency
        return cfg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


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
    if declared and tol.get("check_sr", True):
        window = _richness_window(declared)[2]
        if have < window:
            raise ConfigError(
                f"reference: the table has {have} values; checking the declared "
                f"richness order {declared} needs {window}"
            )


def _validate_disturbance(spec: dict, horizon: int) -> None:
    t_dw = int(spec.get("t_dw", 0))
    if t_dw < 1:
        raise ConfigError("disturbance t_dw must be >= 1")
    if spec.get("times") is not None:
        times = list(spec["times"])
        amps = spec.get("amplitudes", 1.0)
        try:
            make_impulse_train(t_dw, horizon, amplitudes=amps, times=times)
        except ValueError as exc:
            raise ConfigError(f"disturbance: {exc}") from exc
    elif not spec.get("random", False):
        raise ConfigError("disturbance needs explicit 'times' or 'random': true")


def check_impulse_times(cfg: ScenarioConfig) -> None:
    """Reject impulse times outside [0, horizon), which a run never reaches; the
    command line calls this, parse_config does not, so a caller can shorten a run."""
    for spec in [cfg.disturbance] + [plant.disturbance for plant in cfg.plants]:
        for t in (spec or {}).get("times") or ():
            if not 0 <= int(t) < cfg.horizon:
                raise ConfigError(f"disturbance: impulse time {t} lies outside the horizon [0, {cfg.horizon})")


def _build_train(spec: dict | None, horizon: int, rng) -> DisturbanceTrain:
    if spec is None:
        return DisturbanceTrain.empty()
    if spec.get("times") is not None:
        return make_impulse_train(
            int(spec["t_dw"]), horizon, amplitudes=spec.get("amplitudes", 1.0), times=list(spec["times"])
        )
    return make_impulse_train(
        int(spec["t_dw"]), horizon, amplitudes=spec.get("amplitudes", 1.0), rng=rng
    )


@dataclass
class AppTrace:
    app_id: int
    columns: dict
    switches: list  # (k, direction, p)


@dataclass
class Trace:
    config: dict
    status: str
    apps: list
    bus: dict
    summary: dict
    schema_version: int = SCHEMA_VERSION


def _richness_window(declared: int) -> tuple[int, int, int]:
    """(largest order tested, window length, samples read) of the richness
    check of a reference that declares the order ``declared``."""
    m_max = declared + 1
    N = 8 * m_max + 16
    return m_max, N, N + m_max + 64


def _check_reference_richness(cfg: ScenarioConfig) -> None:
    gen = cfg.reference()
    declared = gen.declared_sr_order
    if declared is None or not cfg.tolerances.get("check_sr", True) or declared == 0:
        return
    m_max, N, T = _richness_window(declared)
    seq = gen.sequence(T)
    peak = float(np.max(np.abs(seq))) if seq.size else 0.0
    if peak == 0.0:
        measured = 0
    else:
        tol = 1e-8 * N * peak * peak
        measured = sr_order(seq, m_max=m_max, N=N, tol=tol)
    if measured != declared:
        raise ConfigError(
            f"reference declares richness order {declared} but measures {measured}"
        )


def run_scenario(cfg: ScenarioConfig) -> Trace:
    """Execute the scenario deterministically and return the full trace.

    Per-sample order: read sensors, select the next mode, transmit on the
    bus, update-then-control, apply pending resets/holds, step the plant,
    evaluate monitors.  Divergence or bus infeasibility aborts with a partial
    trace and a diagnostic in ``status``.
    """
    _check_reference_richness(cfg)
    if cfg.kind == "fixed":
        return _run_fixed(cfg)
    return _run_switching(cfg)


def _fixed_mode_label(d: int) -> str:
    return "TT" if d == 1 else "ET"


def _run_fixed(cfg: ScenarioConfig) -> Trace:
    rng = np.random.default_rng(cfg.seed)
    d = int(cfg.protocol["d"])
    T = cfg.horizon
    gen = cfg.reference()
    apps = []
    summary_apps = []
    status = "ok"
    for i, spec in enumerate(cfg.plants):
        model = spec.model
        train = _build_train(spec.disturbance if spec.disturbance is not None else cfg.disturbance, T, rng)
        yref_ext = gen.sequence(T + d, spec.phase_offset)
        dist = train.dense(T + 1)
        gamma = cfg.gamma1 if d == 1 else cfg.gamma2
        theta0 = np.zeros(model.m1 + model.m2 + d)
        theta0[-1] = spec.beta0_init if spec.beta0_init is not None else cfg.beta0_init
        st, k_stop, y, u, eps, theta_hist, Phi_hist = kernels.simulate_fixed_delay(
            model.a, model.b, d, gamma, theta0, yref_ext, dist,
            np.asarray(spec.y_init, dtype=float), np.asarray(spec.u_init, dtype=float), True,
        )
        T_eff = T if st == kernels.SIM_OK else max(k_stop, 0)
        if st == kernels.SIM_DIVERGED:
            status = f"diverged: app {i} at sample {k_stop}"
        elif st == kernels.SIM_ZERO_DIVISOR:
            status = f"zero divisor: app {i} at sample {k_stop}"
        yref_prime = yref_ext + _dprime_sequence(model, train, T + d)
        cols = _fixed_columns(i, d, T_eff, y, u, eps, theta_hist, Phi_hist, yref_ext, yref_prime,
                              dist, spec, cfg.tolerances)
        apps.append(AppTrace(app_id=i, columns=cols, switches=[]))
        theta_norms = np.linalg.norm(theta_hist[:T_eff], axis=1) if T_eff else np.zeros(0)
        summary_apps.append(_app_summary(i, cols, theta_norms, None))
    return Trace(
        config=cfg.raw,
        status=status,
        apps=apps,
        bus={"cycles": [], "deliveries": []},
        summary={"kind": "fixed", "d": d, "apps": summary_apps},
    )


def _dprime_sequence(model: PlantModel, train: DisturbanceTrain, n: int) -> np.ndarray:
    """D'(0..n-1): the disturbance run through the inverse plant A/B from rest,
    in ``DisturbanceInverseFilter.step``'s arithmetic order."""
    a, b = model.a.tolist(), model.b.tolist()
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
    return kernels.simulate_fixed_delay(
        model.a, model.b, d, 0.5, model.true_theta(d), yref_prime[:n + d], np.zeros(n + 1),
        np.asarray(y_init, dtype=float), np.asarray(u_init, dtype=float), False,
    )[-1][d: d + n]


def _fixed_columns(app_id, d, T_eff, y, u, eps, theta_hist, Phi_hist, yref_ext, yref_prime,
                   dist, spec, tol) -> dict:
    T = T_eff
    ks = np.arange(T)
    yk = y[:T]
    yrefk = yref_ext[:T]
    e = yk - yrefk
    Phi = Phi_hist[d: d + T]
    cols = {
        "app": np.full(T, app_id, dtype=int),
        "k": ks,
        "mode": np.array([_fixed_mode_label(d)] * T, dtype=object),
        "y": yk.copy(),
        "yref": yrefk.copy(),
        "yref_prime": yref_prime[:T].copy(),
        "e": e,
        "u": u[:T].copy(),
        "delay": np.full(T, d, dtype=int),
        "eps": eps[:T].copy(),
        "switch": np.zeros(T, dtype=int),
        "dist": dist[:T].copy(),
    }
    if spec.oracle and T:
        theta_err = spec.model.true_theta(d)[None, :] - theta_hist[:T]
        Phi_star = _ideal_regressors(spec.model, d, yref_prime, T, spec.y_init, spec.u_init)
        cols.update(_monitor_columns(theta_err, Phi[:, :-1] - Phi_star[:, :-1], Phi, theta_err,
                                     tol.get("rank_tol", 1e-6)))
    else:
        cols.update(_zero_monitor_columns(T))
    return {name: cols[name] for name in TRACE_FIELDS}


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


def _zero_monitor_columns(T: int) -> dict:
    """The monitor columns of an app run without the oracle."""
    return {name: np.zeros(T, dtype=int if name == "rank" else float)
            for name in MONITOR_FIELDS if name != "yref_prime"}


def _windowed_rank(Phi: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample rank and smallest retained eigenvalue of the sliding-window
    regressor Gram (window 8M plus an M-sample slack, as in GramWindow)."""
    T, M = Phi.shape
    cap = 8 * M + M
    outer = np.einsum("ki,kj->kij", Phi, Phi)
    csum = np.concatenate([np.zeros((1, M, M)), np.cumsum(outer, axis=0)])
    starts = np.maximum(0, np.arange(1, T + 1) - cap)
    grams = csum[1: T + 1] - csum[starts]
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
    e = np.asarray(cols["e"], dtype=float)
    out = {
        "app": app_id,
        "samples": T,
        "max_abs_y": float(np.max(np.abs(cols["y"]))) if T else 0.0,
        "max_abs_u": float(np.max(np.abs(cols["u"]))) if T else 0.0,
        "max_theta_norm": float(np.max(theta_norms)) if len(theta_norms) else 0.0,
        "max_abs_e": float(np.max(np.abs(e))) if T else 0.0,
        "switch_count": len(switches) if switches else 0,
    }
    return out


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


def _run_switching(cfg: ScenarioConfig) -> Trace:
    """Run each app's switching loop alone over the horizon, then replay the
    bus over the apps' modes; an abort truncates every app to the rows that
    the sample-by-sample interleaving (per sample: every app's transmission
    in priority order, the bus cycle, then every app's step) would have
    completed."""
    rng = np.random.default_rng(cfg.seed)
    buscfg = cfg.bus_config()
    T = cfg.horizon
    gen = cfg.reference()
    inputs, runs = [], []
    for spec in cfg.plants:
        train = _build_train(spec.disturbance if spec.disturbance is not None else cfg.disturbance, T, rng)
        yref_ext = gen.sequence(T + buscfg.d2, spec.phase_offset)
        inputs.append((yref_ext, train))
        runs.append(simulate_switching(
            spec.model, buscfg.d2, buscfg.eth, yref_ext, train, cfg.gamma1, cfg.gamma2,
            spec.beta0_init if spec.beta0_init is not None else cfg.beta0_init, spec.y_init, spec.u_init,
        ))
    order = buscfg.priority_order()
    # the first app abort as (sample, priority position); the bus runs through that sample
    k_stop, j_stop = min(((runs[app].samples, j) for j, app in enumerate(order)
                          if runs[app].abort is not None), default=(T, 0))
    state = BusState()
    status = "ok"
    aborting = None
    try:
        netbus.replay(state, buscfg, [run.modes for run in runs], min(k_stop + 1, T))
        if k_stop < T:
            aborting = order[j_stop]
            status = f"aborted at sample {k_stop}: {runs[aborting].abort}"
    except BusCapacityError as exc:
        # a bus abort at sample k precedes every app step at k
        k_stop, j_stop = state.cycle_index, 0
        status = f"aborted at sample {k_stop}: {exc}"
    rows = [0] * len(runs)
    for j, app in enumerate(order):
        rows[app] = k_stop + (j < j_stop)
    rank_tol = cfg.tolerances.get("rank_tol", 1e-6)
    apps = []
    summary_apps = []
    for i, (run, spec, (yref_ext, train)) in enumerate(zip(runs, cfg.plants, inputs)):
        n = rows[i]
        # the aborting app keeps a switch logged at its aborted sample (a
        # diverging app logs it before the plant step)
        switches = run.switches if i == aborting else [ev for ev in run.switches if ev[0] < n]
        cols = _switching_columns(i, run, n, spec, yref_ext, train, switches, rank_tol)
        apps.append(AppTrace(app_id=i, columns=cols, switches=switches))
        theta_norms = np.maximum(np.linalg.norm(run.theta1_hist[:n], axis=1),
                                 np.linalg.norm(run.theta2_hist[:n], axis=1))
        summary_apps.append(_app_summary(i, cols, theta_norms, switches))
    bus = {
        "cycles": [
            {
                "cycle": r.cycle,
                "consumed_minislots": r.consumed_minislots,
                "idle_slots": r.idle_slots,
                "transmissions": [[a, l] for a, l in r.transmissions],
                "carried": len(r.carried),
                "conserved": r.conserved,
            }
            for r in state.cycle_log
        ],
        "deliveries": list(map(list, state.deliveries)),
    }
    return Trace(
        config=cfg.raw,
        status=status,
        apps=apps,
        bus=bus,
        summary={"kind": "switching", "d2": buscfg.d2, "eth": buscfg.eth, "apps": summary_apps},
    )


def _switching_columns(app_id, run: SwitchingRun, n: int, spec: PlantSpec, yref: np.ndarray,
                       train: DisturbanceTrain, switches: list, rank_tol: float) -> dict:
    """The first n simulation rows of one switching app, and the monitor
    columns computed from its recorded estimates and regressors (without the
    oracle: zero, and yref_prime = yref)."""
    model, d2 = spec.model, run.d2
    mode = np.array(run.modes[:n], dtype=object)
    tt = mode == Mode.TT.value
    switch = np.zeros(n, dtype=int)
    for k, direction, _p in switches:
        if k < n:
            switch[k] = 1 if direction == "TT->ET" else 2
    cols = {
        "app": np.full(n, app_id, dtype=int),
        "k": np.arange(n),
        "mode": mode,
        "y": np.array(run.y[:n], dtype=float),
        "yref": yref[:n].copy(),
        "e": np.array(run.e[:n], dtype=float),
        "u": np.array(run.u[:n], dtype=float),
        "delay": np.where(tt, 1, d2),
        "eps": np.array(run.eps[:n], dtype=float),
        "switch": switch,
        "dist": train.dense(n),
    }
    cols.update(_zero_monitor_columns(n), yref_prime=cols["yref"].copy())
    if spec.oracle and n:
        yref_prime = yref[:n + d2] + _dprime_sequence(model, train, n + d2)
        # the ideal reference models start from zero initial conditions
        star1, star2 = (_ideal_regressors(model, d, yref_prime, n) for d in (1, d2))
        Phi1, Phi2 = run.Phi1_hist[1: 1 + n], run.Phi2_hist[d2: d2 + n]
        theta2_err = model.true_theta(d2) - run.theta2_hist[:n]
        cols.update(_monitor_columns(
            _by_mode(tt, model.true_theta(1) - run.theta1_hist[:n], theta2_err),
            _by_mode(tt, Phi1[:, :-1] - star1[:, :-1], Phi2[:, :-1] - star2[:, :-1]),
            Phi2, theta2_err, rank_tol,
        ), yref_prime=yref_prime[:n])
        # a Gram window reports once it holds M2 samples
        cols["rank"][:run.M2 - 1] = 0
        cols["alpha_hat"][:run.M2 - 1] = 0.0
    return {name: cols[name] for name in TRACE_FIELDS}


def _by_mode(tt: np.ndarray, tt_rows: np.ndarray, et_rows: np.ndarray) -> np.ndarray:
    """Row k of tt_rows (zero-padded to the ET width) where tt[k] holds, else of et_rows."""
    out = np.where(tt[:, None], 0.0, et_rows)
    out[tt, : tt_rows.shape[1]] = tt_rows[tt]
    return out


def _column_array(name: str, values: list) -> np.ndarray:
    if name == "mode":
        return np.array(values, dtype=object)
    if name in INT_FIELDS:
        return np.asarray(values, dtype=int)
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# persistence


_BLOCK = 4096  # rows (or list items) formatted and written at a time


def export_trace(trace: Trace, path, fmt: str = "csv") -> None:
    """Write the trace; CSV holds the per-sample rows (header pinned to the
    trace schema), JSON the full structure including config and summary, in
    the layout of ``json.dumps(doc, indent=1)``.  Floats are serialized at
    round-trip precision.  Both formats are streamed to the file a block of
    rows at a time."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    path = Path(path)
    try:
        with path.open("w") as f:
            if fmt == "csv":
                _write_csv(trace, f)
            else:
                f.writelines(_json_chunks(_json_doc(trace), "\n"))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _typed_column(name: str, col) -> np.ndarray:
    """A trace column with the element type the schema gives it: str for
    ``mode``, int for the counters and indices, float for the rest."""
    if name == "mode":
        return np.array([str(v) for v in col], dtype=object)
    return np.asarray(col, dtype=np.int64 if name in INT_FIELDS else float)


def _write_csv(trace: Trace, f) -> None:
    f.write(",".join(TRACE_FIELDS) + "\n")
    for app in trace.apps:
        n = len(app.columns["k"])
        cols = [_typed_column(name, app.columns[name]) for name in TRACE_FIELDS]
        for i in range(0, n, _BLOCK):
            # rows are counted by the k column; zip stops at the shortest slice
            block = [c[i:i + _BLOCK].tolist() for c in cols]
            # repr of a Python int/float is the text str(int(v))/repr(float(v))
            cells = [b if c.dtype == object else map(repr, b) for b, c in zip(block, cols)]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_doc(trace: Trace) -> dict:
    return {
        "schema_version": trace.schema_version,
        "status": trace.status,
        "config": trace.config,
        "summary": trace.summary,
        "apps": [
            {
                "app": app.app_id,
                "switches": [list(s) for s in app.switches],
                "columns": {name: _typed_column(name, app.columns[name]) for name in TRACE_FIELDS},
            }
            for app in trace.apps
        ],
        "bus": trace.bus,
    }


def _json_chunks(obj, pad: str):
    """The text ``json.dumps(obj, indent=1)`` gives, for a value that starts a
    line indented by ``pad`` (a newline and the spaces), in pieces: dicts key
    by key, lists and arrays _BLOCK items at a time."""
    inner = pad + " "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + _json_key(key) + ": "
            yield from _json_chunks(value, inner)
            sep = "," + inner
        yield pad + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            yield "[]"
            return
        sep = "[" + inner
        for i in range(0, len(obj), _BLOCK):
            block = obj[i:i + _BLOCK]
            if isinstance(block, np.ndarray):  # a typed trace column: scalars only
                yield sep + _json_scalars(block.tolist(), inner)
            else:
                yield sep + _json_items(block, inner)
            sep = "," + inner
        yield pad + "]"
    else:
        yield json.dumps(obj)


def _json_items(items, pad: str) -> str:
    """The items of a non-empty list, one per line indented by ``pad``.

    Scalars, a list of flat rows (the bus deliveries) and each key's scalar
    values in a list of dicts with the same keys (the bus cycles) take one
    call of the C encoder, with a line break in its separator.  This is exact
    because ``ensure_ascii`` escapes every newline inside a string, so only a
    separator holds one, and the characters next to it show where a list
    starts or ends."""
    sep = "," + pad
    if all(isinstance(row, (list, tuple)) and row for row in items):
        # all rows in one call; every ",\n" in its text is a separator, and
        # one between "]" and "[" separates rows
        text = json.dumps(items, separators=(",\n", ": "))
        if (text.count(",\n[") == len(items) - 1 and text[2] not in "[{"
                and ",\n{" not in text and ",\n[[" not in text and ",\n[{" not in text):
            cell_pad = pad + " "
            body = text[2:-2].replace(",\n", "," + cell_pad)
            body = body.replace("]," + cell_pad + "[", pad + "]," + pad + "[" + cell_pad)
            return "[" + cell_pad + body + pad + "]"
    elif isinstance(items[0], dict) and items[0] and not any(isinstance(v, dict) for v in items[0].values()):
        # nested dicts (the apps' column dicts) stay whole, so memory holds one copy
        keys = list(items[0])
        if all(isinstance(d, dict) and list(d) == keys for d in items):
            inner = pad + " "
            heads = ["{" + inner + _json_key(keys[0]) + ": "]
            heads += ["," + inner + _json_key(key) + ": " for key in keys[1:]]
            columns = [_json_values([d[key] for d in items], inner) for key in keys]
            return sep.join("".join(h + v for h, v in zip(heads, values)) + pad + "}"
                            for values in zip(*columns))
    return sep.join(_json_values(items, pad))


def _json_values(values: list, pad: str) -> list:
    """The text of each value for a line indented by ``pad``: one call of
    the C encoder when all of them are scalars."""
    if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in values):
        return ["".join(_json_chunks(v, pad)) for v in values]
    return _json_scalars(values, "\n").split(",\n")


def _json_scalars(items, pad: str) -> str:
    """The items of a non-empty list of scalars, one per line indented by
    ``pad``, in one call of the C encoder."""
    return json.dumps(items, separators=("," + pad, ": "))[1:-1]


def _json_key(key) -> str:
    # as the json module writes keys: a non-str key as the text of its value
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


def load_trace(path) -> Trace:
    """Read a JSON trace back into memory (the analyze entry point)."""
    path = Path(path)
    doc = json.loads(path.read_text())
    apps = [
        AppTrace(
            app_id=a["app"],
            columns={name: _column_array(name, a["columns"][name]) for name in TRACE_FIELDS},
            switches=[tuple(s) for s in a["switches"]],
        )
        for a in doc["apps"]
    ]
    return Trace(
        config=doc["config"],
        status=doc["status"],
        apps=apps,
        bus=doc["bus"],
        summary=doc["summary"],
        schema_version=doc.get("schema_version", SCHEMA_VERSION),
    )


def read_trace_csv(path) -> dict:
    """Parse an exported CSV back into column arrays (round-trip checks)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    cols: dict[str, list] = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(cell)
    out = {}
    for name, vals in cols.items():
        if name == "mode":
            out[name] = np.array(vals, dtype=object)
        elif name in INT_FIELDS:
            out[name] = np.array([int(v) for v in vals], dtype=int)
        else:
            out[name] = np.array([float(v) for v in vals])
    return out


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
        out = []
        for r in self.results:
            flag = "PASS" if r.passed else "FAIL"
            out.append(f"[{flag}] {r.name}: measured {r.measured:.6g} vs threshold {r.threshold:.6g} {r.detail}")
        return out


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
    bound = float(tol["bound"])
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
    settle = int(tol["settle_sample"])
    track = float(tol["tracking_tol"])
    worst_tail = 0.0
    for app in trace.apps:
        e = app.columns["e"]
        if len(e) > settle:
            worst_tail = max(worst_tail, float(np.max(np.abs(e[settle:]))))
    results.append(MonitorResult("tracking_tail", worst_tail < track, worst_tail, track,
                                 detail=f"|e| for k >= {settle}"))
    declared = cfg.reference().declared_sr_order
    oracle = all(spec.oracle for spec in cfg.plants)
    if oracle and declared:
        ranks = [int(app.columns["rank"][-1]) for app in trace.apps if len(app.columns["rank"])]
        measured = ranks[0] if ranks else -1
        results.append(MonitorResult("regressor_rank", all(r == declared for r in ranks),
                                     float(measured), float(declared),
                                     detail="windowed Gram rank at the final sample"))
        window = int(tol["ortho_window"])
        worst_o = 0.0
        any_window = False
        for app in trace.apps:
            o = app.columns["ortho_res"]
            start = max(len(o) - window, settle)  # never reach into the transient
            if start < len(o):
                any_window = True
                worst_o = max(worst_o, float(np.max(o[start:])))
        if any_window:
            results.append(MonitorResult("orthogonality_residual", worst_o < float(tol["ortho_tol"]),
                                         worst_o, float(tol["ortho_tol"]),
                                         detail=f"max over final {window} settled samples"))
    if cfg.disturbance is None and oracle:
        worst_dv = 0.0
        for app in trace.apps:
            dv = app.columns["dV"]
            if len(dv) > 1:
                worst_dv = max(worst_dv, float(np.max(dv[1:])))
        results.append(MonitorResult("parameter_error_monotone", worst_dv <= float(tol["dv_fixed_tol"]),
                                     worst_dv, float(tol["dv_fixed_tol"])))


def _switching_monitors(trace: Trace, cfg: ScenarioConfig, results: list) -> None:
    tol = cfg.tolerances
    buscfg = cfg.bus_config()
    d2, eth = buscfg.d2, buscfg.eth
    # impulse response: each impulse must push |e| past eth within d2 samples
    # and put the app in TT right after
    worst_margin = np.inf
    all_triggered = True
    any_impulse = False
    for app, spec in zip(trace.apps, cfg.plants):
        dspec = spec.disturbance if spec.disturbance is not None else cfg.disturbance
        if dspec is None or dspec.get("times") is None:
            continue
        e = app.columns["e"]
        mode = app.columns["mode"]
        for t in dspec["times"]:
            any_impulse = True
            w = [abs(float(e[j])) for j in range(t + 1, min(t + d2 + 1, len(e)))]
            peak = max(w) if w else 0.0
            worst_margin = min(worst_margin, peak)
            crossed = peak > eth
            in_tt = any(
                mode[j] == "TT" for j in range(t + 1, min(t + d2 + 2, len(mode)))
            )
            all_triggered = all_triggered and crossed and in_tt
    if any_impulse:
        results.append(MonitorResult("impulse_triggers_tt", bool(all_triggered),
                                     float(worst_margin), eth,
                                     detail=f"min post-impulse |e| peak within d2={d2} samples"))
    # containment and phase lengths
    m2 = max(spec.model.m2 for spec in cfg.plants)
    contain_ok = True
    phase_ok = True
    worst_contain = 0.0
    min_phase_len = np.inf
    for app in trace.apps:
        events = [netbus.SwitchEvent(k=s[0], direction=s[1], p=s[2]) for s in app.switches]
        rep = containment_check(app.columns["e"], events, eth, m2, d2)
        for entry in rep.entries:
            worst_contain = max(worst_contain, max((abs(v) for v in entry.errors), default=0.0))
            contain_ok = contain_ok and entry.ok
        for ph in rep.phases:
            if ph.terminated:
                min_phase_len = min(min_phase_len, ph.length)
            phase_ok = phase_ok and ph.ok
    results.append(MonitorResult("re_entry_containment", contain_ok, worst_contain, eth,
                                 detail=f"|e| over the first m2+d2={m2 + d2} re-entry samples"))
    results.append(MonitorResult("et_phase_length", phase_ok,
                                 float(min_phase_len if np.isfinite(min_phase_len) else -1.0), 2.0,
                                 detail="every terminated ET phase must exceed 2 samples"))
    # Lyapunov non-increase inside modes, switch samples excluded
    worst_dv = -np.inf
    for app in trace.apps:
        dv = app.columns["dV"]
        if not len(dv):
            continue
        excluded = set()
        for (kp, _dir, _p) in app.switches:
            excluded.add(kp)
            excluded.add(kp + 1)
        for k in range(1, len(dv)):
            if k in excluded:
                continue
            worst_dv = max(worst_dv, float(dv[k]))
    if np.isfinite(worst_dv):
        results.append(MonitorResult("lyapunov_in_mode", worst_dv <= float(tol["dv_tol"]),
                                     worst_dv, float(tol["dv_tol"]),
                                     detail="max dV at non-switch samples"))
    # quiescence under no disturbance
    no_dist = cfg.disturbance is None and all(spec.disturbance is None for spec in cfg.plants)
    if no_dist:
        late_switches = 0
        for app in trace.apps:
            e = app.columns["e"]
            settle = _settle_sample(np.asarray(e, dtype=float), eth)
            if settle is None:
                late_switches += len(app.switches)
                continue
            late_switches += sum(1 for (kp, _d, _p) in app.switches if kp > settle)
        results.append(MonitorResult("quiescent_switches", late_switches == 0,
                                     float(late_switches), 0.0,
                                     detail="switches after the error settles inside eth"))
    # bus delays and minislot conservation
    bad_delay = 0
    for (app, k, mode, delivery, arrival) in trace.bus.get("deliveries", []):
        delay = delivery - k
        if mode == "TT":
            bad_delay += 0 if delay == 1 else 1
        else:
            bad_delay += 0 if (1 <= delay <= d2 and arrival <= k + d2 - 1) else 1
    results.append(MonitorResult("bus_delay_dichotomy", bad_delay == 0, float(bad_delay), 0.0,
                                 detail="TT delay == 1, ET delay <= d2"))
    unconserved = sum(0 if c["conserved"] else 1 for c in trace.bus.get("cycles", []))
    results.append(MonitorResult("minislot_conservation", unconserved == 0, float(unconserved), 0.0))

"""Correctness gate and simulated counts.

What must repeat exactly: the export bytes of every pass, traced or not; the
simulation columns, statuses, monitor verdicts and simulated counts of the
seeds recorded in ``golden.json``.  What is compared within a tolerance: the
LAPACK-derived ``rank``/``alpha_hat`` columns, whose rounding depends on the
BLAS build.  What must round-trip: ``read_trace_csv`` gives back the
in-memory columns, and ``analyze`` gives back the verdicts of ``run``.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

SIM_COLUMNS = ("y", "u", "e", "eps", "mode", "switch", "delay", "dist")
INT_COLUMNS = ("app", "k", "delay", "rank", "switch")
ALPHA_STRIDE = 100  # alpha_hat is recorded at every 100th sample
ALPHA_RTOL = 1e-6
RANK_MISMATCH_SHARE = 1e-3  # share of samples whose rank may differ

COUNT_NAMES = (
    "sim.switches", "sim.tt_samples", "sim.et_samples", "sim.aborted_scenarios",
    "sim.monitor_failures", "netbus.et_messages", "netbus.tt_messages",
    "netbus.minislots_consumed", "netbus.minislots_idle", "netbus.dyn_utilisation",
    "netbus.carryovers", "netbus.worst_arrival_slack",
)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """What the recorded digests depend on beyond the code: numpy's
    vectorised sin (the fixed workload's reference) and LAPACK."""
    return {"numpy": np.__version__, "machine": platform.machine(), "cpu": cpu_model()}


def _column_bytes(name: str, col) -> bytes:
    if name == "mode":
        return "\n".join(str(v) for v in col).encode()
    if name in INT_COLUMNS:
        return np.ascontiguousarray(col, dtype="<i8").tobytes()
    return np.ascontiguousarray(col, dtype="<f8").tobytes()


def sim_digest(trace) -> str:
    """sha256 of the simulation columns of every app, in app order."""
    h = hashlib.sha256()
    for app in trace.apps:
        for name in SIM_COLUMNS:
            h.update(name.encode())
            h.update(_column_bytes(name, app.columns[name]))
    return h.hexdigest()


def verdicts(report) -> tuple:
    """Monitor verdicts with their measured values, exactly as computed."""
    return tuple((r.name, bool(r.passed), repr(r.measured), repr(r.threshold)) for r in report.results)


def _runs(values) -> list:
    runs: list = []
    for v in np.asarray(values, dtype=int).tolist():
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def scenario_record(trace, report) -> dict:
    return {
        "status": trace.status,
        "sim_sha256": sim_digest(trace),
        "verdicts": [[name, passed] for name, passed, _m, _t in verdicts(report)],
        "rank_runs": [_runs(app.columns["rank"]) for app in trace.apps],
        "alpha_hat": [np.asarray(app.columns["alpha_hat"], dtype=float)[::ALPHA_STRIDE].tolist()
                      for app in trace.apps],
    }


def compare_scenario(recorded: dict, current: dict) -> list[str]:
    """Differences between a recorded and a fresh scenario record."""
    errors = []
    for key in ("status", "sim_sha256", "verdicts"):
        if recorded[key] != current[key]:
            errors.append(f"{key} differs from the recorded value")
    if len(recorded["rank_runs"]) != len(current["rank_runs"]):
        return errors + ["app count differs from the recorded value"]
    for app, (r_runs, c_runs) in enumerate(zip(recorded["rank_runs"], current["rank_runs"])):
        r_rank = np.repeat(*np.asarray(r_runs, dtype=int).reshape(-1, 2).T)
        c_rank = np.repeat(*np.asarray(c_runs, dtype=int).reshape(-1, 2).T)
        if r_rank.shape != c_rank.shape:
            errors.append(f"app {app}: rank column length differs")
            continue
        same = r_rank == c_rank
        if np.count_nonzero(~same) > RANK_MISMATCH_SHARE * same.size:
            errors.append(f"app {app}: rank differs at {np.count_nonzero(~same)} samples")
        r_alpha = np.asarray(recorded["alpha_hat"][app])
        c_alpha = np.asarray(current["alpha_hat"][app])
        keep = same[::ALPHA_STRIDE]
        if r_alpha.shape != c_alpha.shape or not np.allclose(
                r_alpha[keep], c_alpha[keep], rtol=ALPHA_RTOL, atol=0.0):
            errors.append(f"app {app}: alpha_hat outside rtol {ALPHA_RTOL}")
    return errors


def csv_roundtrip_errors(read_trace_csv, path, trace) -> list[str]:
    """read_trace_csv of the exported file against the in-memory columns."""
    parsed = read_trace_csv(path)
    errors = []
    for name, col in parsed.items():
        mem = [app.columns[name] for app in trace.apps]
        mem = np.concatenate(mem) if mem else np.zeros(0)
        if name == "mode":
            ok = [str(v) for v in col] == [str(v) for v in mem]
        elif name in INT_COLUMNS:
            ok = np.array_equal(np.asarray(col, dtype=int), np.asarray(mem, dtype=int))
        else:
            ok = np.array_equal(np.asarray(col, dtype=float), np.asarray(mem, dtype=float), equal_nan=True)
        if not ok:
            errors.append(f"CSV column {name} does not read back as written")
    return errors


def simulated_counts(results) -> dict:
    """sim.* and netbus.* counts of one pass; results are (cfg, trace, report)."""
    c = dict.fromkeys(COUNT_NAMES, 0)
    slack = None
    transmitted = budget = 0
    for cfg, trace, report in results:
        c["sim.aborted_scenarios"] += trace.status != "ok"
        c["sim.monitor_failures"] += sum(not r.passed for r in report.results)
        for app in trace.apps:
            c["sim.switches"] += len(app.switches)
            tt = int(np.count_nonzero(np.asarray(app.columns["mode"]) == "TT"))
            c["sim.tt_samples"] += tt
            c["sim.et_samples"] += len(app.columns["mode"]) - tt
        if cfg.kind != "switching":
            continue
        bus = cfg.bus_config()
        cycles = trace.bus["cycles"]
        budget += bus.minislots_per_cycle * len(cycles)
        for cyc in cycles:
            c["netbus.minislots_consumed"] += cyc["consumed_minislots"]
            c["netbus.minislots_idle"] += cyc["idle_slots"]
            c["netbus.carryovers"] += cyc["carried"]
            transmitted += sum(length for _app, length in cyc["transmissions"])
        for _app, k, mode, _delivery, arrival in trace.bus["deliveries"]:
            if mode == "ET":
                c["netbus.et_messages"] += 1
                s = k + bus.d2 - 1 - arrival
                slack = s if slack is None else min(slack, s)
            else:
                c["netbus.tt_messages"] += 1
    c["netbus.dyn_utilisation"] = transmitted / budget if budget else 0.0
    # no event-triggered message, no deadline: reported as 0 (see NOTES.md)
    c["netbus.worst_arrival_slack"] = slack if slack is not None else 0
    return c


def load_golden(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def golden_errors(golden: dict, workload: str, seed: int, records: list, counts: dict):
    """(compared, errors per scenario index, count errors) for a recorded seed."""
    entry = golden.get(workload, {}).get(str(seed))
    if entry is None or entry["fingerprint"] != fingerprint():
        return False, {}, []
    per_scenario = {}
    if len(entry["scenarios"]) != len(records):
        per_scenario[0] = ["scenario count differs from the recorded value"]
    else:
        for i, (rec, cur) in enumerate(zip(entry["scenarios"], records)):
            errs = compare_scenario(rec, cur)
            if errs:
                per_scenario[i] = errs
    count_errors = [f"{k}: recorded {entry['counts'][k]!r}, now {counts[k]!r}"
                    for k in COUNT_NAMES if entry["counts"].get(k) != counts[k]]
    return True, per_scenario, count_errors


def record_golden(path: Path, workload: str, seed: int, records: list, counts: dict) -> None:
    golden = load_golden(path)
    golden.setdefault(workload, {})[str(seed)] = {
        "fingerprint": fingerprint(), "counts": counts, "scenarios": records,
    }
    # one line per recorded seed keeps diffs readable
    blocks = []
    for name in sorted(golden):
        seeds = sorted(golden[name], key=int)
        lines = ",\n".join(f"  {json.dumps(s)}: {json.dumps(golden[name][s], sort_keys=True)}"
                           for s in seeds)
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")

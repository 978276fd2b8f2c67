#!/usr/bin/env python3
"""Layered benchmark of the adaptbus `run` and `analyze` pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --workload NAME --seed N --record

Run from the root of a checkout; the package is imported from its ``src/``.
One process with one thread generates the workload's scenarios from the
seed, then repeats passes over them for S seconds.  A pass runs every
scenario the way ``adaptbus run`` does (run_scenario, evaluate_monitors, CSV
and JSON export) and then the way ``adaptbus analyze`` does (load_trace,
evaluate_monitors, three times per trace).  Throughputs are medians over
passes.  ``setup_s`` is the median over fresh interpreters of importing
adaptbus and parsing every scenario.  These timings are stated at a
reference host speed measured around each of them (``host_speed``); the
values as timed are printed beside them.

--trace 0 reports the end-to-end metrics with nothing patched.  --trace 1
alternates plain and traced passes: the traced passes give the per-layer
metrics and the pairs give the tracing overhead.  Every pass goes through the
correctness gate (gate.py); a scenario that raises or fails it counts as
failed.  The last line of standard output is the JSON result.  --workload all
runs every workload both ways in child processes and prints one table.
--record stores the gate's reference values for a seed in golden.json.
"""

from __future__ import annotations

import os

# one process with one thread: the BLAS/OpenMP pools are sized when numpy
# loads, which the imports below do
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = tuple(WORKLOADS)

SETUP_RUNS = 5
ANALYZE_REPEATS = 3  # the read path is short: analyze each saved trace this often
MIN_PASSES = {0: 3, 1: 4}
WARMUP_HORIZON = 200
PROBE_RUNS = 12
REFERENCE_RATE = 60.0  # probe mixes per second that define the reference host speed

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_app_samples_per_s": "app-samples/s",
    "analyze_app_samples_per_s": "app-samples/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# per-layer metric -> (tracer target, aggregate[, span or counter name when
# it is not the target's]); every value is per pass: "total" and "self"
# seconds, "calls", or a counter the wrapper adds
SPAN_METRICS = {
    "harness.parse_config_s": ("harness.parse_config", "total"),
    "harness.run_scenario_self_s": ("harness.run_scenario", "self"),
    "harness.export_csv_s": ("harness.export", "total", "harness.export_csv"),
    "harness.export_csv_bytes": ("harness.export", "counter", "harness.export_csv_bytes"),
    "harness.export_json_s": ("harness.export", "total", "harness.export_json"),
    "harness.export_json_bytes": ("harness.export", "counter", "harness.export_json_bytes"),
    "harness.load_trace_s": ("harness.load_trace", "total"),
    "harness.load_trace_bytes": ("harness.load_trace", "counter", "harness.load_trace_bytes"),
    "harness.evaluate_monitors_s": ("harness.evaluate_monitors", "total"),
    "kernels.simulate_fixed_delay_s": ("kernels.simulate_fixed_delay", "total"),
    "kernels.simulate_fixed_delay_samples": ("kernels.simulate_fixed_delay", "counter",
                                             "kernels.simulate_fixed_delay_samples"),
    "supervisor.supervise_step_self_s": ("supervisor.supervise_step", "self"),
    "supervisor.sense_s": ("supervisor.sense", "total"),
    "supervisor.monitor_row_self_s": ("supervisor.monitor_row", "self"),
    "supervisor.reference_model_step_s": ("supervisor.reference_model_step", "total"),
    "supervisor.reference_model_step_calls": ("supervisor.reference_model_step", "calls"),
    "supervisor.inverse_filter_s": ("supervisor.inverse_filter", "total"),
    "supervisor.containment_check_s": ("supervisor.containment_check", "total"),
    "excitation.gram_report_s": ("excitation.gram_report", "total"),
    "excitation.gram_report_calls": ("excitation.gram_report", "calls"),
    "excitation.gram_push_s": ("excitation.gram_push", "total"),
    "excitation.windowed_rank_batched_s": ("excitation.windowed_rank_batched", "total"),
    "excitation.sr_order_s": ("excitation.sr_order", "total"),
    "adapt.update_s": ("adapt.update", "total"),
    "adapt.update_calls": ("adapt.update", "calls"),
    "adapt.control_law_s": ("adapt.control_law", "total"),
    "adapt.control_law_calls": ("adapt.control_law", "calls"),
    "plant.step_difference_s": ("plant.step_difference", "total"),
    "plant.step_difference_calls": ("plant.step_difference", "calls"),
    "netbus.transmit_s": ("netbus.transmit", "total"),
    "netbus.transmit_calls": ("netbus.transmit", "calls"),
    "netbus.advance_cycle_s": ("netbus.advance_cycle", "total"),
    "netbus.advance_cycle_calls": ("netbus.advance_cycle", "calls"),
}
COUNT_UNITS = {"netbus.dyn_utilisation": "ratio", "netbus.worst_arrival_slack": "samples"}

SETUP_CHILD = r"""
import json, sys, time
raws = json.loads(sys.stdin.read())
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import adaptbus
for raw in raws:
    adaptbus.parse_config(raw)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from run import host_speed
print(json.dumps({"seconds": t1 - t0, "speed": host_speed(), "module": adaptbus.__file__}))
"""


def host_speed() -> float:
    """The host's speed now, as a share of the reference speed.

    A shared host's cores speed up and slow down with its other tenants, in
    phases of minutes.  This times a fixed mix of small numpy operations,
    float formatting and JSON encoding that does not touch adaptbus, in this
    thread, so that timings can be stated at the reference speed.
    """
    t0 = time.perf_counter()
    for _ in range(PROBE_RUNS):
        x = np.zeros(4)
        acc = 0.0
        parts = []
        for _ in range(5000):
            x = x + 1.0
            acc += float(np.dot(x, x))
            parts.append(repr(acc))
        json.dumps(parts)
    return PROBE_RUNS / (time.perf_counter() - t0) / REFERENCE_RATE


def _check_checkout() -> None:
    if not (SRC / "adaptbus" / "__init__.py").is_file():
        raise SystemExit(f"error: no adaptbus package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Outcome:
    """One scenario of one pass."""

    cfg: object = None
    trace: object = None
    report: object = None
    export_digest: str = ""
    errors: list = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    speed: float = 1.0  # host_speed() around the pass
    run_s: float = 0.0
    analyze_s: float = 0.0  # all ANALYZE_REPEATS analyses
    samples: int = 0
    outcomes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    counts: dict | None = None  # simulated counts, when no scenario failed
    records: list | None = None  # golden records, kept for the first pass


def _summarise(p: Pass, first: bool) -> None:
    if all(not o.errors for o in p.outcomes):
        results = [(o.cfg, o.trace, o.report) for o in p.outcomes]
        p.counts = gate.simulated_counts(results)
        if first:
            p.records = [gate.scenario_record(t, r) for _c, t, r in results]


def _release(p: Pass) -> None:
    """Drop a pass's traces so that passes do not pile up in memory."""
    for o in p.outcomes:
        o.cfg = o.trace = o.report = None


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def run_pass(harness, raws: list, work: Path, tracer=None) -> Pass:
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    result = Pass(traced=tracer is not None)
    clock = time.perf_counter
    with span("bench.setup"):
        cfgs = [harness.parse_config(raw) for raw in raws]
    for i, cfg in enumerate(cfgs):
        out = Outcome(cfg=cfg)
        result.outcomes.append(out)
        csv_path, json_path = work / f"{i}.csv", work / f"{i}.json"
        try:
            t0 = clock()
            with span("bench.run"):
                trace = harness.run_scenario(cfg)
                report = harness.evaluate_monitors(trace, cfg)
                harness.export_trace(trace, csv_path, "csv")
                harness.export_trace(trace, json_path, "json")
            t1 = clock()
            analyzed = []
            with span("bench.analyze"):
                for _ in range(ANALYZE_REPEATS):
                    analyzed.append(harness.evaluate_monitors(harness.load_trace(json_path)))
            t2 = clock()
        except Exception:  # any escape from the program is a failed scenario
            out.errors.append(traceback.format_exc())
            continue
        out.trace, out.report = trace, report
        out.export_digest = _sha256(csv_path, json_path)
        if any(gate.verdicts(again) != gate.verdicts(report) for again in analyzed):
            out.errors.append("analyze verdicts differ from run verdicts")
        result.run_s += t1 - t0
        result.analyze_s += t2 - t1
        result.samples += sum(len(app.columns["k"]) for app in trace.apps)
    return result


def layer_metrics(tracer, samples: int) -> dict:
    """Per-layer values of one traced pass; None where the target is absent."""
    out = {}
    for metric, (target, agg, *name) in SPAN_METRICS.items():
        span = name[0] if name else target
        if target in tracer.absent:
            out[metric] = None
        elif agg == "total":
            out[metric] = tracer.total(span)
        elif agg == "self":
            out[metric] = tracer.self_time(span)
        elif agg == "calls":
            out[metric] = tracer.calls(span)
        else:
            out[metric] = tracer.counters.get(span, 0)
    updates = out["adapt.update_calls"]
    out["adapt.update_applied_ratio"] = None if updates is None else updates / max(samples, 1)
    out["bench.traced_s"] = tracer.total("bench.run") + tracer.total("bench.analyze")
    # self times of every span under the run/analyze roots: adds up to traced_s
    out["bench.span_self_sum_s"] = sum(
        agg[0] - agg[1] for (parent, name), agg in tracer.edges.items()
        if "bench.setup" not in (parent, name))
    return out


# ---------------------------------------------------------------------------
# setup and the measured loop


def measure_setup(raws: list) -> list[tuple[float, float]]:
    """import adaptbus + parse_config of every scenario, each in a fresh
    interpreter started by this process and waited for; (seconds, host
    speed measured in that interpreter right after)."""
    payload = json.dumps(raws)
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE)], input=payload,
                              capture_output=True, text=True, timeout=120, env=dict(os.environ))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(res["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up imported adaptbus from {res['module']}, not {SRC}")
        times.append((res["seconds"], res["speed"]))
    return times


def _warm_up(harness, raws: list, work: Path) -> None:
    short = [dict(raw, horizon=min(raw["horizon"], WARMUP_HORIZON)) for raw in raws]
    run_pass(harness, short, work)


def measure(harness, raws: list, seconds: float, trace: int, work: Path, tracer):
    passes: list[Pass] = []
    start = time.perf_counter()
    durations = []
    speed = host_speed()
    for n in itertools.count():
        traced = bool(trace) and n % 4 in (1, 2)  # plain/traced pairs in alternating order
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(harness, raws, work, tracer)
            finally:
                tracer.uninstall()
            p.layers = layer_metrics(tracer, p.samples)
        else:
            p = run_pass(harness, raws, work)
        after = host_speed()
        p.speed, speed = (speed + after) / 2, after
        _summarise(p, first=not passes)
        passes.append(p)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= MIN_PASSES[trace] and len(passes) % (2 if trace else 1) == 0
        if enough and elapsed + statistics.median(durations) * (2 if trace else 1) > seconds:
            break
        _release(p)  # the last pass keeps its traces for the CSV read-back
    return passes


def gate_passes(harness, passes: list[Pass], workload: str, seed: int, work: Path):
    """Apply the gate; returns (attempted, failed, notes, counts of the first pass)."""
    ref = passes[0]
    attempted = failed = 0
    notes = []
    counts = next((p.counts for p in passes if p.counts is not None), None)
    for n, p in enumerate(passes):
        for out, first in zip(p.outcomes, ref.outcomes):
            attempted += 1
            if not out.errors and first.export_digest and out.export_digest != first.export_digest:
                kind = "traced" if p.traced else "plain"
                out.errors.append(f"{kind} pass {n} exported other bytes than plain pass 0")
        if p.counts is not None and p.counts != counts:
            p.outcomes[0].errors.append("simulated counts differ between passes")
    # the last pass's files are on disk: read them back against its columns
    for i, out in enumerate(passes[-1].outcomes):
        if out.trace is not None:
            out.errors += gate.csv_roundtrip_errors(harness.read_trace_csv, work / f"{i}.csv", out.trace)
    if ref.records is not None:
        compared, per_scenario, count_errors = gate.golden_errors(
            gate.load_golden(GOLDEN), workload, seed, ref.records, ref.counts)
        for i, errs in per_scenario.items():
            ref.outcomes[i].errors += [f"golden: {e}" for e in errs]
        if count_errors:
            ref.outcomes[0].errors += [f"golden: {e}" for e in count_errors]
        notes.append("golden: compared with the recorded seed" if compared
                     else "golden: no record for this seed and environment")
    for n, p in enumerate(passes):
        for i, out in enumerate(p.outcomes):
            if out.errors:
                failed += 1
                notes += [f"pass {n} scenario {i}: {e.strip()}" for e in out.errors]
    return attempted, failed, notes, counts or {}


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    from adaptbus import _jit

    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "jit_enabled": _jit.JIT_ENABLED,
        "have_numba": _jit.HAVE_NUMBA,
        "nproc": os.cpu_count(),
        "cpu": gate.cpu_model(),
        "load": "one process, one thread",
        "threads": threads,
    }


def _median(values):
    return statistics.median(values) if values else None


def _fmt(v) -> str:
    if v is None:
        return "absent"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_layers(layers: dict, samples: int, traced_s: float) -> None:
    print(f"{'per-layer metric (median per traced pass)':<44} {'value':>12}  {'unit':<8} "
          f"{'us/app-sample':>13} {'share':>7}")
    for name, v in layers.items():
        unit = _layer_unit(name)
        extra = ""
        if unit == "s" and v is not None:
            extra = f"{1e6 * v / max(samples, 1):13.2f} {100 * v / traced_s:6.1f}%"
        print(f"{name:<44} {_fmt(v):>12}  {unit:<8} {extra}")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def record(harness, raws: list, args) -> int:
    """Store one pass's gate reference values for this workload and seed."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        p = run_pass(harness, raws, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for o in p.outcomes for e in o.errors]
    if errors:
        print("error: not recorded, the pass failed:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    results = [(o.cfg, o.trace, o.report) for o in p.outcomes]
    gate.record_golden(GOLDEN, args.workload, args.seed,
                       [gate.scenario_record(t, r) for _c, t, r in results], gate.simulated_counts(results))
    print(f"recorded {args.workload} seed {args.seed} in {GOLDEN}")
    return 0


def run_workload(args) -> int:
    from adaptbus import harness

    raws = WORKLOADS[args.workload](args.seed)
    if args.record:
        return record(harness, raws, args)
    print(json.dumps({"environment": environment()}))
    setup_times = measure_setup(raws)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        _warm_up(harness, raws, work)
        tracer = Tracer() if args.trace else None
        passes = measure(harness, raws, args.seconds, args.trace, work, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, notes, counts = gate_passes(harness, passes, args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    samples = plain[0].samples
    # timings as measured, and (e2e) stated at the reference host speed
    timed = {
        "setup_s": setup_times,
        "run_app_samples_per_s": [(p.samples / p.run_s, 1 / p.speed) for p in plain if p.run_s],
        "analyze_app_samples_per_s": [(ANALYZE_REPEATS * p.samples / p.analyze_s, 1 / p.speed)
                                      for p in plain if p.analyze_s],
    }
    e2e = {name: _median([v * scale for v, scale in values]) for name, values in timed.items()}
    e2e.update(peak_rss_mb=peak_rss_mb, ok_ratio=(attempted - failed) / attempted)
    for note in notes:
        print(f"gate: {note}")
    print(f"workload {args.workload} seed {args.seed}: {len(raws)} scenarios, "
          f"{samples} app-samples per pass, {len(plain)} plain and {len(traced)} traced passes; "
          f"set-up runs {', '.join(f'{t:.4f}' for t, _v in setup_times)} s")
    print("host speed (share of the reference): set-up "
          + ", ".join(f"{v:.4f}" for _t, v in setup_times) + "; passes "
          + ", ".join(f"{p.speed:.4f}" for p in passes))
    for name, unit in END_TO_END.items():
        as_timed = f"  (as timed: {_fmt(_median([v for v, _s in timed[name]]))})" if name in timed else ""
        print(f"{name:<44} {_fmt(e2e[name]):>12}  {unit}{as_timed}")
    for name in gate.COUNT_NAMES:
        print(f"{name:<44} {_fmt(counts.get(name)):>12}  {_layer_unit(name)}")
    print(f"{'failed_ratio':<44} {failed / attempted:>12.6g}  ({failed} of {attempted} scenario runs)")
    if args.trace:
        pairs = [(passes[j], passes[j + 1]) for j in range(0, len(passes) - 1, 2)]
        ratios = [(t.run_s + t.analyze_s) / (u.run_s + u.analyze_s)
                  for a, b in pairs for u, t in [(a, b) if b.traced else (b, a)]]
        layers = {name: _median([p.layers[name] for p in traced])
                  if traced[0].layers[name] is not None else None
                  for name in traced[0].layers}
        traced_s = layers.pop("bench.traced_s")
        span_sum = layers.pop("bench.span_self_sum_s")
        layers.update({name: counts.get(name) for name in gate.COUNT_NAMES})
        layers["trace.overhead_ratio"] = statistics.median(ratios)
        print_layers(layers, samples, traced_s)
        untraced_s = _median([p.run_s + p.analyze_s for p in plain])
        print(f"spans: layer self times sum to {span_sum:.4f} s of a {traced_s:.4f} s traced pass; "
              f"the plain pass takes {untraced_s:.4f} s, so tracing costs x{traced_s / untraced_s:.3f}")
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, plain and traced, each in its own child process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'metric':<44} " + " ".join(f"{n:>18}" for n in WORKLOAD_NAMES))
    for trace in (0, 1):
        for metric in results[(WORKLOAD_NAMES[0], trace)]["metrics"]:
            row = [_fmt(results[(n, trace)]["metrics"][metric]["value"]) for n in WORKLOAD_NAMES]
            print(f"{metric:<44} " + " ".join(f"{v:>18}" for v in row))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}/{'traced' if t else 'plain'}": r["metrics"]
                                  for (n, t), r in results.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's gate reference values in golden.json and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _check_checkout()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  run     --config FILE --out DIR [--seed N]   writes DIR/trace.csv and DIR/trace.json
  check   --config FILE
  analyze --trace FILE

Exit codes: 0 all monitors pass, 1 monitor failure, 2 configuration or
runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (ConfigError, check_impulse_times, evaluate_monitors, export_trace, load_document,
                      load_trace, parse_config, run_scenario)

EXIT_OK = 0
EXIT_MONITOR_FAIL = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="adaptbus", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and export its trace")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    chk_p = sub.add_parser("check", help="validate a scenario configuration")
    chk_p.add_argument("--config", required=True)

    an_p = sub.add_parser("analyze", help="re-run the monitors on a saved JSON trace")
    an_p.add_argument("--trace", required=True)
    return ap


def _cmd_run(args) -> int:
    raw = load_document(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = parse_config(raw)
    check_impulse_times(cfg)
    trace = run_scenario(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    export_trace(trace, trace_path, "csv")
    export_trace(trace, out / "trace.json", "json")  # what `analyze` reads
    report = evaluate_monitors(trace, cfg)
    for line in report.lines():
        print(line)
    print(f"trace written to {trace_path}")
    if trace.status != "ok":
        print(f"scenario did not complete: {trace.status}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if report.all_passed else EXIT_MONITOR_FAIL


def _cmd_check(args) -> int:
    cfg = parse_config(args.config)
    check_impulse_times(cfg)
    n = len(cfg.plants)
    print(f"config ok: {cfg.name!r}, {n} application(s), kind={cfg.kind}, horizon={cfg.horizon}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    trace = load_trace(args.trace)
    report = evaluate_monitors(trace)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_MONITOR_FAIL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_analyze(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Span tracer that wraps adaptbus entry points from outside the package.

Each target is patched where callers look it up, not where it is defined:
``harness`` imports ``containment_check`` and ``sr_order`` by name and
``supervisor`` imports ``step_difference`` by name, so those are wrapped in
the importing module.  A span has a name, a start, an end and a parent; on
close its duration is added to per-(parent, name) totals and to its parent's
child time, so self time is a span minus its child spans.  Only these
aggregates stay in memory.  A target that no longer exists is recorded as
absent and reported as such, never as zero.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

# (span name, module looked up at the call site, attribute path)
TARGETS = [
    ("harness.parse_config", "adaptbus.harness", "parse_config"),
    ("harness.run_scenario", "adaptbus.harness", "run_scenario"),
    ("harness.export", "adaptbus.harness", "export_trace"),
    ("harness.load_trace", "adaptbus.harness", "load_trace"),
    ("harness.evaluate_monitors", "adaptbus.harness", "evaluate_monitors"),
    ("kernels.simulate_fixed_delay", "adaptbus.kernels", "simulate_fixed_delay"),
    ("excitation.windowed_rank_batched", "adaptbus.harness", "_windowed_rank"),
    ("excitation.sr_order", "adaptbus.harness", "sr_order"),
    ("excitation.gram_push", "adaptbus.excitation", "GramWindow.push"),
    ("excitation.gram_report", "adaptbus.excitation", "GramWindow.report"),
    ("supervisor.sense", "adaptbus.supervisor", "AppSupervisor.sense"),
    ("supervisor.supervise_step", "adaptbus.supervisor", "AppSupervisor.supervise_step"),
    ("supervisor.monitor_row", "adaptbus.supervisor", "AppSupervisor._monitor_row"),
    ("supervisor.reference_model_step", "adaptbus.supervisor", "ReferenceModel.step"),
    ("supervisor.inverse_filter", "adaptbus.supervisor", "DisturbanceInverseFilter.step"),
    ("supervisor.containment_check", "adaptbus.harness", "containment_check"),
    ("adapt.update", "adaptbus.adapt", "update"),
    ("adapt.control_law", "adaptbus.adapt", "control_law"),
    ("plant.step_difference", "adaptbus.supervisor", "step_difference"),
    ("netbus.transmit", "adaptbus.netbus", "transmit"),
    ("netbus.advance_cycle", "adaptbus.netbus", "advance_cycle"),
]


def _export_name(args, kwargs) -> str:
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt", "csv")
    return f"harness.export_{fmt}"


def _path_bytes(index: int):
    def after(name, args, kwargs):
        return {f"{name}_bytes": os.path.getsize(args[index])}
    return after


def _fixed_delay_samples(name, args, kwargs):
    # simulate_fixed_delay(a, b, d, gamma, theta0, yref_ext, ...): T = len(yref_ext) - d
    return {f"{name}_samples": args[5].shape[0] - args[2]}


# counters a wrapper adds once its call returns, keyed by target name
AFTER = {
    "harness.export": _path_bytes(1),
    "harness.load_trace": _path_bytes(0),
    "kernels.simulate_fixed_delay": _fixed_delay_samples,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None when any part
    of it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers on the targets and aggregates their spans."""

    def __init__(self):
        self.absent: set[str] = set()
        self.edges: dict = {}  # (parent name, name) -> [total s, child s, calls]
        self.counters: dict = {}
        self._stack: list = []  # open spans: [name, start, child seconds]
        self._patched: list = []  # (owner, attr, original, owned by owner)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child = frame
        dur = end - start
        parent = stack[-1] if stack else None
        key = (parent[0] if parent else None, name)
        agg = self.edges.get(key)
        if agg is None:
            agg = self.edges[key] = [0.0, 0.0, 0]
        agg[0] += dur
        agg[1] += child
        agg[2] += 1
        if parent is not None:
            parent[2] += dur

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, values: dict) -> None:
        for key, v in values.items():
            self.counters[key] = self.counters.get(key, 0) + v

    # -- patching ---------------------------------------------------------

    def _wrapper(self, name, original):
        open_, close = self._open, self._close
        after = AFTER.get(name)
        name_of = _export_name if name == "harness.export" else None

        def traced(*args, **kwargs):
            frame = open_(name_of(args, kwargs) if name_of else name)
            try:
                result = original(*args, **kwargs)
            finally:
                close(frame)
            if after is not None:
                self.count(after(frame[0], args, kwargs))
            return result

        return traced

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr = found
            # a class may inherit the method; restore by deleting the override
            owned = attr in vars(owner)
            original = vars(owner)[attr] if owned else None
            self._patched.append((owner, attr, original, owned))
            setattr(owner, attr, self._wrapper(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def reset(self) -> None:
        self.edges.clear()
        self.counters.clear()

    # -- aggregates -------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(agg[0] for (_p, n), agg in self.edges.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(agg[0] - agg[1] for (_p, n), agg in self.edges.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(agg[2] for (_p, n), agg in self.edges.items() if n == name)

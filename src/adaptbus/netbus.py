"""Hybrid bus model: one communication cycle per sample, with a static
(time-triggered) segment of reserved slots and a dynamic (event-triggered)
segment of minislots arbitrated by priority.

Time-triggered messages ride reserved slots and actuate at k+1.  An
event-triggered message enqueued at k joins cycle k's dynamic segment, and
``advance_cycle``'s minislot walk is the only model of when it arrives: a
message sent in cycle c arrives at the actuator node at c + 1.  A message
the walk cannot fit carries over; the carry queue is served first in first
out, ahead of every fresh message, so the cycle that sends a carried message
is fixed when it is carried.  The arrival must stay within k + d2 - 1
(tau <= (d2-1)h).  The actuator releases at the fixed worst case k + d2,
which is the delay the event-triggered control law is designed for, so the
closed-loop delay is deterministic per mode: exactly 1 in TT, exactly d2 in
ET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import NamedTuple

import numpy as np


class Mode(str, Enum):
    TT = "TT"
    ET = "ET"


_TT, _ET = Mode.TT.value, Mode.ET.value  # an enum member's value is a property lookup: hoisted


class BusCapacityError(RuntimeError):
    """Arbitration pushed a message past the d2 delay budget; the
    priority/d2/minislot configuration is infeasible."""


def select_mode(e_k: float, eth: float) -> Mode:
    """ET while |e| <= eth (boundary inclusive), TT otherwise."""
    if eth <= 0:
        raise ValueError("error threshold must be positive")
    return Mode.ET if abs(e_k) <= eth else Mode.TT


@dataclass(frozen=True)
class BusConfig:
    n_apps: int
    dyn_priorities: dict  # lower number = higher priority
    minislots_per_cycle: int
    d2: int
    message_minislots: int = 1

    def __post_init__(self):
        if self.n_apps < 1:
            raise ValueError(f"a bus needs at least one app, got n_apps = {self.n_apps}")
        if self.d2 < 2:
            raise ValueError(f"d2 must be >= 2, got {self.d2}")
        if self.minislots_per_cycle < 0:
            raise ValueError("minislots_per_cycle must be >= 0")
        if self.message_minislots < 1:
            raise ValueError("message_minislots must be >= 1")
        if set(self.dyn_priorities) != set(range(self.n_apps)):
            raise ValueError(f"priority assignments must name exactly the apps 0..{self.n_apps - 1}, "
                             f"got {list(self.dyn_priorities)}")
        if len(set(self.dyn_priorities.values())) != len(self.dyn_priorities):
            raise ValueError("priority assignments must be injective")

    @classmethod
    def default(cls, n_apps: int, d2: int = 2, minislots_per_cycle: int | None = None,
                message_minislots: int = 1, dyn_priorities: dict | None = None):
        """A bus whose unset budget is two minislots per app, at least four,
        and whose unset priorities put app i at i + 1."""
        return cls(
            n_apps=n_apps,
            dyn_priorities=dyn_priorities or {i: i + 1 for i in range(n_apps)},
            minislots_per_cycle=max(4, 2 * n_apps) if minislots_per_cycle is None else minislots_per_cycle,
            d2=d2,
            message_minislots=message_minislots,
        )

    def priority_order(self) -> list:
        return sorted(self.dyn_priorities, key=self.dyn_priorities.get)


@dataclass
class CycleReport:
    cycle: int
    consumed_minislots: int
    idle_slots: int
    transmissions: list  # (app, msg_len)
    carried: list  # (app, msg_len, enqueued_k)

    @property
    def conserved(self) -> bool:
        return self.consumed_minislots == self.idle_slots + sum(l for _, l in self.transmissions)


@dataclass
class BusState:
    """Per-cycle accounting: current modes, this cycle's dynamic-segment
    requests as their delivery records, carryovers from exhausted cycles, and
    the delivery log."""

    cycle_index: int = 0
    modes: dict = field(default_factory=dict)
    pending: dict = field(default_factory=dict)  # app -> index of its ET delivery record (this cycle)
    carryover: list = field(default_factory=list)  # (app, msg_len, enqueued_k)
    deliveries: list = field(default_factory=list)  # (app, k, mode, delivery, arrival)


@dataclass(frozen=True)
class SwitchEvent:
    k: int
    direction: str  # "TT->ET" or "ET->TT"
    p: int = 0

    @property
    def k_prime(self) -> int:
        return self.k + 1


class SwitchLog:
    """Alternating, strictly increasing protocol-switch record."""

    def __init__(self):
        self.events: list[SwitchEvent] = []

    def __len__(self):
        return len(self.events)

    def record(self, k: int, direction: str, p: int = 0) -> SwitchEvent:
        if direction not in ("TT->ET", "ET->TT"):
            raise ValueError(f"unknown switch direction {direction!r}")
        if self.events:
            last = self.events[-1]
            if k <= last.k:
                raise ValueError(f"switch instants must increase: {k} after {last.k}")
            if direction == last.direction:
                raise ValueError(f"switch directions must alternate, got {direction} twice")
        ev = SwitchEvent(k=int(k), direction=direction, p=p)
        self.events.append(ev)
        return ev


def transmit(state: BusState, config: BusConfig, app, k: int) -> int:
    """Enqueue app's control message at sample k; returns the actuation sample.

    TT: the reserved static slot delivers at k+1.  ET: the message joins this
    cycle's dynamic segment and is logged with arrival k + 1, the arrival if
    this cycle's walk sends it; ``advance_cycle`` rewrites it if the walk
    carries the message over.  The returned delivery is the deterministic
    actuator release k + d2 that the ET control law assumes.
    """
    if app not in config.dyn_priorities:
        raise KeyError(f"application {app!r} is not registered on the bus")
    if state.modes.get(app, _TT) == _TT:
        state.deliveries.append((app, k, _TT, k + 1, k + 1))
        return k + 1
    state.pending[app] = len(state.deliveries)
    state.deliveries.append((app, k, _ET, k + config.d2, k + 1))
    return k + config.d2


# the bus log's int columns, by group: one row per completed cycle, per
# transmission, and per delivery (one per app per sample, priority order
# within a sample; ``et`` is 1 for an ET message, 0 for TT)
CYCLE_COLUMNS = ("consumed", "idle", "carried")
TX_COLUMNS = ("tx_cycle", "tx_app", "tx_len")
DELIVERY_COLUMNS = ("app", "k", "et", "delivery", "arrival")
BUS_COLUMNS = CYCLE_COLUMNS + TX_COLUMNS + DELIVERY_COLUMNS


class _Outcome(NamedTuple):
    """What one cycle of the walk did, relative to its sample c."""
    consumed: int
    idle: int
    carried: int  # messages it carried over
    transmissions: list  # (app, msg_len)
    arrivals: list  # arrival - c of each app's delivery, by priority position
    carry: tuple  # the apps of the carry queue it leaves, in order


def replay(config: BusConfig, et, n: int, log: dict) -> None:
    """Run samples 0..n-1 of the bus on a fresh state, as ``transmit`` for
    each app in priority order and then ``advance_cycle`` would per sample,
    and fill ``log`` with the bus log as ``BUS_COLUMNS`` int64 arrays.
    ``et[app][k]`` is true where app sends in ET at sample k.

    With one message length, a cycle's outcome depends only on its carry
    queue (the apps, in order) and the set of apps that request, so the walk
    runs once per distinct pair, at the first cycle that has it, and its
    outcome is applied to every later cycle that shares it.  A
    ``BusCapacityError`` is raised with the text that first cycle gives; it
    leaves in ``log`` every cycle before the failing sample, which is then
    ``len(log["consumed"])``, and every delivery up to and including it.
    """
    order = config.priority_order()
    et = np.asarray(et, dtype=bool)[order, :n].T  # (n, N): each sample's ET flags by priority position
    n = len(et)
    packed = np.ascontiguousarray(np.packbits(et, axis=1))
    patterns = packed.view(f"V{packed.shape[1]}").ravel().tolist()  # each sample's flags as bytes
    memo: dict = {}  # (carry queue, request pattern) -> index into outcomes
    outcomes: list = []
    index = np.zeros(n, dtype=np.intp)  # each sample's outcome
    carry, cycles, error = (), n, None
    for c, pattern in enumerate(patterns):
        o = memo.get((carry, pattern))
        if o is None:
            outcome, error = _cycle_outcome(config, order, carry, et[c], c)
            o = memo[(carry, pattern)] = len(outcomes)
            outcomes.append(outcome)
        index[c] = o
        if error is not None:
            cycles = c
            break
        carry = outcomes[o].carry
    _fill_log(log, config, order, et, index[:n if error is None else cycles + 1], cycles, outcomes)
    if error is not None:
        raise error


def _cycle_outcome(config: BusConfig, order: list, carry: tuple, requests, c: int):
    """(outcome, None) of the walk at cycle c from a fresh state holding the
    carry queue ``carry`` and each app's ET flag ``requests`` by priority
    position, or (the sample's arrivals, the ``BusCapacityError``)."""
    msg_len = config.message_minislots
    state = BusState(cycle_index=c, modes=dict.fromkeys(compress(order, requests.tolist()), _ET),
                     carryover=[(app, msg_len, c - 1) for app in carry])
    for app in order:
        transmit(state, config, app, c)
    try:
        report = advance_cycle(state, config)
    except BusCapacityError as exc:
        return _Outcome(0, 0, 0, [], [d[4] - c for d in state.deliveries], ()), exc
    return _Outcome(report.consumed_minislots, report.idle_slots, len(report.carried), report.transmissions,
                    [d[4] - c for d in state.deliveries], tuple(app for app, _len, _k in report.carried)), None


def _fill_log(log: dict, config: BusConfig, order: list, et: np.ndarray, index: np.ndarray, cycles: int,
              outcomes: list) -> None:
    """The columns of the first ``cycles`` cycles and of the deliveries of
    every sample ``index`` covers, from each sample's outcome index."""
    done = index[:cycles]
    stats = np.array([o[:3] for o in outcomes], dtype=np.int64).reshape(-1, 3)[done]
    log.update(zip(CYCLE_COLUMNS, stats.T.copy()))
    # each outcome's transmissions are a slice of one flat table; a cycle's
    # r-th transmission is row start[its outcome] + r
    counts = np.array([len(o.transmissions) for o in outcomes], dtype=np.int64)
    table = np.array([tx for o in outcomes for tx in o.transmissions], dtype=np.int64).reshape(-1, 2)
    per_cycle = counts[done]
    first = np.cumsum(per_cycle) - per_cycle  # of each cycle's transmissions in the log
    rows = np.repeat((np.cumsum(counts) - counts)[done] - first, per_cycle) + np.arange(per_cycle.sum())
    log["tx_cycle"] = np.repeat(np.arange(cycles, dtype=np.int64), per_cycle)
    log["tx_app"], log["tx_len"] = table[rows].T.copy()
    samples, apps = len(index), len(order)
    k = np.arange(samples, dtype=np.int64)[:, None]
    flags = et[:samples]
    arrivals = np.array([o.arrivals for o in outcomes], dtype=np.int64).reshape(-1, apps)
    log["app"] = np.tile(np.asarray(order, dtype=np.int64), samples)
    log["k"] = np.repeat(k[:, 0], apps)
    log["et"] = flags.astype(np.int64).ravel()
    log["delivery"] = (k + np.where(flags, config.d2, 1)).ravel()
    log["arrival"] = (k + arrivals[index]).ravel()


def advance_cycle(state: BusState, config: BusConfig) -> CycleReport:
    """Run one cycle's dynamic segment and roll what it cannot send into the next.

    The walk serves one queue: the carried messages in arrival order, then
    one slot per app in priority order, idle where the app requested nothing.
    A message that fits is sent and consumes its length; an idle slot, and a
    message that no longer fits, consume one idle minislot while budget
    remains, and the message carries over.

    The walk decides every ET arrival: a message sent in cycle c arrives at
    c + 1, as ``transmit`` logged it.  The carry queue is served first in
    first out, capacity // msg_len messages per cycle, so a message enqueued
    at k and carried to queue position p is sent in cycle
    k + 1 + p // (capacity // msg_len); its arrival is written into its
    delivery record now.  If a message can never be sent or arrives after
    k + d2 - 1, this raises ``BusCapacityError``: the sample's deliveries stay
    logged with their arrivals, and the state stays at the failing sample.
    """
    c, capacity, msg_len = state.cycle_index, config.minislots_per_cycle, config.message_minislots
    if state.pending and msg_len > capacity:
        raise BusCapacityError(f"message length {msg_len} exceeds the whole dynamic segment ({capacity} minislots)")
    deliveries, n_carried = state.deliveries, len(state.carryover)
    budget, consumed, idle, late = capacity, 0, 0, None
    tx: list = []
    carried: list = []
    queue = state.carryover + [(app, msg_len if app in state.pending else 0, c) for app in config.priority_order()]
    for p, (app, length, enqueued) in enumerate(queue):
        if length and budget >= length:
            budget -= length
            consumed += length
            tx.append((app, length))
            continue
        if budget >= 1:
            budget -= 1
            consumed += 1
            idle += 1
        if not length:
            continue  # an idle slot
        if p >= n_carried:  # carried fresh: write the arrival its queue position gives
            i = state.pending[app]
            k = deliveries[i][1]
            arrival = k + 2 + len(carried) // (capacity // length)
            deliveries[i] = deliveries[i][:4] + (arrival,)
            if late is None and arrival > k + config.d2 - 1:
                late = (app, k, arrival)
        carried.append((app, length, enqueued))
    if late is not None:
        app, k, arrival = late
        raise BusCapacityError(
            f"app {app!r} message at sample {k} would arrive at {arrival} "
            f"(> k + d2 - 1 = {k + config.d2 - 1}); priority/d2/minislot budget infeasible"
        )
    state.carryover, state.pending = carried, {}
    state.cycle_index += 1
    return CycleReport(cycle=c, consumed_minislots=consumed, idle_slots=idle, transmissions=tx, carried=carried)

"""Hybrid bus model: one communication cycle per sample, with a static
(time-triggered) segment of reserved slots and a dynamic (event-triggered)
segment of minislots arbitrated by priority.

Time-triggered messages ride reserved slots and actuate at k+1.  An
event-triggered message enqueued at k arrives at the actuator node at
k + 1 + c, where c counts the cycles it had to carry over because higher
priority traffic exhausted the dynamic segment's minislots; the arrival must
stay within k + d2 - 1 (tau <= (d2-1)h).  The actuator releases at the fixed
worst case k + d2, which is the delay the event-triggered control law is
designed for, so the closed-loop delay is deterministic per mode: exactly 1
in TT, exactly d2 in ET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Mode(str, Enum):
    TT = "TT"
    ET = "ET"


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
    static_slots: dict
    dyn_priorities: dict  # lower number = higher priority
    minislots_per_cycle: int
    d2: int
    eth: float
    message_minislots: int = 1

    def __post_init__(self):
        if self.d2 < 2:
            raise ValueError(f"d2 must be >= 2, got {self.d2}")
        if self.eth <= 0:
            raise ValueError("eth must be positive")
        if self.minislots_per_cycle < 0:
            raise ValueError("minislots_per_cycle must be >= 0")
        if self.message_minislots < 1:
            raise ValueError("message_minislots must be >= 1")
        for name, mapping in (("static slot", self.static_slots), ("priority", self.dyn_priorities)):
            vals = list(mapping.values())
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name} assignments must be injective")

    @classmethod
    def default(cls, n_apps: int, d2: int = 2, eth: float = 0.05,
                minislots_per_cycle: int | None = None, message_minislots: int = 1):
        if minislots_per_cycle is None:
            minislots_per_cycle = max(4, 2 * n_apps * message_minislots)
        return cls(
            n_apps=n_apps,
            static_slots={i: i for i in range(n_apps)},
            dyn_priorities={i: i + 1 for i in range(n_apps)},
            minislots_per_cycle=minislots_per_cycle,
            d2=d2,
            eth=eth,
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
    tt_sends: list  # apps served in the static segment

    @property
    def conserved(self) -> bool:
        return self.consumed_minislots == self.idle_slots + sum(l for _, l in self.transmissions)


@dataclass
class BusState:
    """Per-cycle accounting: current modes, fresh dynamic-segment requests,
    carryovers from exhausted cycles, and the delivery/cycle logs."""

    cycle_index: int = 0
    modes: dict = field(default_factory=dict)
    cycle_requests: dict = field(default_factory=dict)  # app -> msg_len (this cycle)
    carryover: list = field(default_factory=list)  # (app, msg_len, enqueued_k)
    deliveries: list = field(default_factory=list)  # (app, k, mode, delivery, arrival)
    cycle_log: list = field(default_factory=list)


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


def _minislots_ahead(state: BusState, config: BusConfig, app) -> int:
    """Minislots the dynamic-segment walk spends before reaching this app's
    slot this cycle: carryovers first, then each higher-priority slot at its
    message length if it enqueued (priority-order calling guarantees those are
    already registered) or one idle minislot otherwise."""
    my_prio = config.dyn_priorities[app]
    ahead = sum(l for (_a, l, _k) in state.carryover)
    for other, prio in config.dyn_priorities.items():
        if other == app or prio >= my_prio:
            continue
        ahead += state.cycle_requests.get(other, 1)
    return ahead


def _require_registered(config: BusConfig, app) -> None:
    if app not in config.dyn_priorities or app not in config.static_slots:
        raise KeyError(f"application {app!r} is not registered on the bus")


def _et_arrival(config: BusConfig, app, k: int, ahead: int) -> int:
    """Arrival sample of app's ET message enqueued at k behind ``ahead``
    minislots of this cycle: if the budget is exhausted before its slot, it
    carries over whole cycles (future cycles assumed to serve the carry queue
    first), and the arrival k + 1 + carries must stay within k + d2 - 1 or the
    configuration is infeasible."""
    msg_len = config.message_minislots
    capacity = config.minislots_per_cycle
    if ahead + msg_len <= capacity:
        carries = 0
    elif capacity >= msg_len:
        spill = ahead + msg_len - capacity
        carries = -(-spill // capacity)
    else:
        raise BusCapacityError(
            f"message length {msg_len} exceeds the whole dynamic segment ({capacity} minislots)"
        )
    arrival = k + 1 + carries
    if arrival > k + config.d2 - 1:
        raise BusCapacityError(
            f"app {app!r} message at sample {k} would arrive at {arrival} "
            f"(> k + d2 - 1 = {k + config.d2 - 1}); priority/d2/minislot budget infeasible"
        )
    return arrival


def transmit(state: BusState, config: BusConfig, app, k: int) -> int:
    """Enqueue app's control message at sample k; returns the actuation sample.

    TT: the reserved static slot delivers at k+1.  ET: the message joins this
    cycle's dynamic segment and arrives as ``_et_arrival`` predicts.  The
    returned delivery is the deterministic actuator release k + d2 that the ET
    control law assumes.
    """
    _require_registered(config, app)
    mode = state.modes.get(app, Mode.TT)
    if mode == Mode.TT:
        state.deliveries.append((app, k, Mode.TT.value, k + 1, k + 1))
        return k + 1
    arrival = _et_arrival(config, app, k, _minislots_ahead(state, config, app))
    state.cycle_requests[app] = config.message_minislots
    state.deliveries.append((app, k, Mode.ET.value, k + config.d2, arrival))
    return k + config.d2


def replay(state: BusState, config: BusConfig, modes, n: int) -> None:
    """Run samples 0..n-1 of the bus on a fresh state from the applications'
    modes, as ``transmit`` for each app in priority order and then
    ``advance_cycle`` would: ``modes[app][k]`` is the mode app sends in at
    sample k.

    Each fresh dynamic slot's minislots ahead are a running prefix over the
    priority order (carryovers, then each higher-priority slot at its message
    length or one idle minislot), so a cycle costs O(apps).  A
    ``BusCapacityError`` leaves the deliveries made before it and
    ``state.cycle_index`` at the failing sample.
    """
    order = config.priority_order()
    if n > 0:
        for app in order:
            _require_registered(config, app)
    msg_len, d2 = config.message_minislots, config.d2
    tt, et = Mode.TT.value, Mode.ET.value
    deliveries = state.deliveries
    for k, row in zip(range(n), zip(*(modes[app] for app in order))):
        state.modes.update(zip(order, row))
        ahead = sum(l for (_a, l, _k) in state.carryover)
        for app, mode in zip(order, row):
            if mode == et:
                arrival = _et_arrival(config, app, k, ahead)
                state.cycle_requests[app] = msg_len
                deliveries.append((app, k, et, k + d2, arrival))
                ahead += msg_len
            else:
                deliveries.append((app, k, tt, k + 1, k + 1))
                ahead += 1
        advance_cycle(state, config)


def advance_cycle(state: BusState, config: BusConfig, requests: dict | None = None) -> CycleReport:
    """Run one cycle's segments and roll pending traffic into the next.

    Walks the dynamic slot numbers in priority order after serving
    carryovers: an idle slot consumes one minislot, a transmitted message
    consumes its length, and a message that no longer fits consumes one idle
    minislot (if any budget remains) and carries over.
    """
    if requests is not None:
        state.cycle_requests = dict(requests)
    budget = config.minislots_per_cycle
    consumed = 0
    idle = 0
    tx: list = []
    carried: list = []
    # carryovers first, in arrival order
    for (app, msg_len, enq_k) in state.carryover:
        if budget >= msg_len:
            budget -= msg_len
            consumed += msg_len
            tx.append((app, msg_len))
        else:
            if budget >= 1:
                budget -= 1
                consumed += 1
                idle += 1
            carried.append((app, msg_len, enq_k))
    # fresh dynamic slots in priority order
    for app in config.priority_order():
        if app in state.cycle_requests:
            msg_len = state.cycle_requests[app]
            if budget >= msg_len:
                budget -= msg_len
                consumed += msg_len
                tx.append((app, msg_len))
            else:
                if budget >= 1:
                    budget -= 1
                    consumed += 1
                    idle += 1
                carried.append((app, msg_len, state.cycle_index))
        else:
            if budget >= 1:
                budget -= 1
                consumed += 1
                idle += 1
    tt_sends = [a for a, m in state.modes.items() if m == Mode.TT]
    report = CycleReport(
        cycle=state.cycle_index,
        consumed_minislots=consumed,
        idle_slots=idle,
        transmissions=tx,
        carried=carried,
        tt_sends=tt_sends,
    )
    state.carryover = carried
    state.cycle_requests = {}
    state.cycle_index += 1
    state.cycle_log.append(report)
    return report

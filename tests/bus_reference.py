"""The per-cycle bus replay: the oracle of the memoised ``netbus.replay``.

``replay`` runs the bus one sample at a time, as ``transmit`` for each app in
priority order and then ``advance_cycle`` would, and logs every delivery on
the state and every cycle report in a list.  ``log_columns`` turns the two
into the int columns the memoised replay fills.
"""

import numpy as np

from adaptbus.netbus import BUS_COLUMNS, BusConfig, BusState, Mode, advance_cycle


def replay(state: BusState, config: BusConfig, modes, n: int, reports: list) -> None:
    """Run samples 0..n-1 of the bus on a fresh state from the applications'
    modes, appending each cycle's report to ``reports``: ``modes[app][k]`` is
    the mode app sends in at sample k.  A ``BusCapacityError`` leaves every
    delivery up to the failing sample logged and ``state.cycle_index`` at
    that sample.
    """
    order = config.priority_order()
    d2 = config.d2
    tt, et = Mode.TT.value, Mode.ET.value
    deliveries = state.deliveries
    for k, row in zip(range(n), zip(*(modes[app] for app in order))):
        for app, mode in zip(order, row):
            if mode == et:
                state.pending[app] = len(deliveries)
                deliveries.append((app, k, et, k + d2, k + 1))
            else:
                deliveries.append((app, k, tt, k + 1, k + 1))
        reports.append(advance_cycle(state, config))


def log_columns(state: BusState, reports: list) -> dict:
    """The bus log of a replayed state and its cycle reports as
    ``netbus.BUS_COLUMNS`` int64 arrays."""
    tx = [(r.cycle, app, length) for r in reports for app, length in r.transmissions]
    rows = {
        "consumed": [r.consumed_minislots for r in reports],
        "idle": [r.idle_slots for r in reports],
        "carried": [len(r.carried) for r in reports],
        "tx_cycle": [t[0] for t in tx],
        "tx_app": [t[1] for t in tx],
        "tx_len": [t[2] for t in tx],
        "app": [d[0] for d in state.deliveries],
        "k": [d[1] for d in state.deliveries],
        "et": [int(d[2] == Mode.ET.value) for d in state.deliveries],
        "delivery": [d[3] for d in state.deliveries],
        "arrival": [d[4] for d in state.deliveries],
    }
    return {name: np.array(rows[name], dtype=np.int64) for name in BUS_COLUMNS}

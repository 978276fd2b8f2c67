from dataclasses import replace

import numpy as np
import pytest

from adaptbus.netbus import (
    BUS_COLUMNS,
    BusCapacityError,
    BusConfig,
    BusState,
    Mode,
    SwitchLog,
    advance_cycle,
    replay,
    select_mode,
    transmit,
)
from tests import bus_reference


class TestSelectMode:
    def test_boundary_is_et(self):
        assert select_mode(0.5, 0.5) == Mode.ET

    def test_above_is_tt(self):
        assert select_mode(0.6, 0.5) == Mode.TT

    def test_zero_error(self):
        assert select_mode(0.0, 0.5) == Mode.ET

    def test_sign_irrelevant(self):
        assert select_mode(-0.6, 0.5) == Mode.TT
        assert select_mode(-0.5, 0.5) == Mode.ET

    def test_idempotent(self):
        for _ in range(3):
            assert select_mode(0.2, 0.5) == Mode.ET

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            select_mode(0.1, 0.0)


class TestBusConfig:
    def test_d2_minimum(self):
        with pytest.raises(ValueError, match="d2"):
            BusConfig(1, {0: 1}, 4, d2=1)

    def test_injective_slots(self):
        with pytest.raises(ValueError, match="injective"):
            BusConfig(2, {0: 1, 1: 1}, 4, d2=2)

    def test_default_factory(self):
        cfg = BusConfig.default(3)
        assert cfg.priority_order() == [0, 1, 2]

    @pytest.mark.parametrize("n_apps,prios", [
        (3, {0: 1, 5: 2, 2: 3}),
        (3, {1: 1, 2: 2}),
    ], ids=["priority_for_unknown_app", "priority_missing_app"])
    def test_mappings_name_exactly_the_apps(self, n_apps, prios):
        with pytest.raises(ValueError, match=f"must name exactly the apps 0..{n_apps - 1}"):
            BusConfig(n_apps, prios, 4, d2=2)


class TestTransmit:
    def test_tt_next_sample(self):
        cfg = BusConfig.default(1)
        state = BusState(modes={0: Mode.TT})
        assert transmit(state, cfg, 0, 100) == 101

    def test_et_single_app_worst_case_release(self):
        cfg = BusConfig.default(1, d2=2)
        state = BusState(modes={0: Mode.ET})
        assert transmit(state, cfg, 0, 100) == 102

    def test_et_three_apps_capacity_two(self):
        # two messages fit the dynamic segment; the walk carries the third a
        # cycle, blowing the d2 budget
        cfg = BusConfig(3, {i: i + 1 for i in range(3)},
                        minislots_per_cycle=2, d2=2)
        state = BusState(cycle_index=50, modes={i: Mode.ET for i in range(3)})
        assert [transmit(state, cfg, app, 50) for app in range(3)] == [52, 52, 52]
        with pytest.raises(BusCapacityError,
                           match=r"app 2 message at sample 50 would arrive at 52 \(> k \+ d2 - 1 = 51\)"):
            advance_cycle(state, cfg)
        assert [d[4] for d in state.deliveries] == [51, 51, 52]
        assert state.cycle_index == 50 and not state.carryover

    def test_unregistered_app(self):
        cfg = BusConfig.default(1)
        with pytest.raises(KeyError):
            transmit(BusState(modes={5: Mode.TT}), cfg, 5, 0)

    def test_oversized_message(self):
        cfg = BusConfig(1, {0: 1}, minislots_per_cycle=2, d2=2,
                        message_minislots=3)
        state = BusState(modes={0: Mode.ET})
        assert transmit(state, cfg, 0, 0) == 2
        with pytest.raises(BusCapacityError,
                           match=r"message length 3 exceeds the whole dynamic segment \(2 minislots\)"):
            advance_cycle(state, cfg)


def cycle(state, cfg, k, et=()):
    """The report of cycle k after the apps in ``et`` send in ET and every
    other app in TT."""
    for app in cfg.priority_order():
        state.modes[app] = Mode.ET.value if app in et else Mode.TT.value
        transmit(state, cfg, app, k)
    return advance_cycle(state, cfg)


class TestAdvanceCycle:
    def test_all_idle(self):
        cfg = BusConfig.default(3)
        report = cycle(BusState(), cfg, 0)
        assert report.consumed_minislots == 3
        assert report.idle_slots == 3
        assert not report.transmissions
        assert report.conserved

    def test_long_message_plus_idles(self):
        cfg = BusConfig(3, {i: i + 1 for i in range(3)},
                        minislots_per_cycle=8, d2=2, message_minislots=4)
        report = cycle(BusState(), cfg, 0, et={0})
        assert report.consumed_minislots == 6  # 4 + 1 + 1
        assert report.idle_slots == 2
        assert report.transmissions == [(0, 4)]
        assert report.conserved

    def test_empty_dynamic_segment(self):
        cfg = BusConfig(0, {}, minislots_per_cycle=4, d2=2)
        report = cycle(BusState(), cfg, 0)
        assert report.consumed_minislots == 0
        assert report.conserved

    def test_carryover_served_next_cycle(self):
        cfg = BusConfig(2, {0: 1, 1: 2}, minislots_per_cycle=2,
                        d2=3, message_minislots=2)
        state = BusState()
        r1 = cycle(state, cfg, 0, et={0, 1})
        assert r1.transmissions == [(0, 2)]
        assert r1.carried == [(1, 2, 0)]
        assert r1.conserved
        assert [d[4] for d in state.deliveries] == [1, 2]  # the carried message arrives a cycle late
        r2 = cycle(state, cfg, 1)
        assert r2.transmissions == [(1, 2)]
        assert not r2.carried
        assert r2.conserved

    def test_carried_arrival_past_the_deadline_aborts(self):
        # one two-minislot message per three-minislot cycle: the walk would
        # send the four messages of sample 0 in cycles 0-3, so app 3 arrives
        # at 4 > k + d2 - 1 = 3
        cfg = BusConfig.default(4, d2=4, minislots_per_cycle=3, message_minislots=2)
        log = {}
        with pytest.raises(BusCapacityError, match=r"app 3 message at sample 0 would arrive at 4 "):
            replay(cfg, [[True]] * 4, 1, log)
        assert list(zip(log["app"].tolist(), log["arrival"].tolist())) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert not len(log["consumed"]) and not len(log["tx_cycle"])

    def test_conservation_random(self):
        # one message length per bus, and no deadline in reach, so the carry
        # queue may grow and drain
        rng = np.random.default_rng(5)
        carried = {}
        for msg_len in (1, 2, 3):
            cfg = BusConfig(4, {i: i + 1 for i in range(4)},
                            minislots_per_cycle=6, d2=10**6, message_minislots=msg_len)
            state = BusState()
            carried[msg_len] = 0
            for k in range(200):
                report = cycle(state, cfg, k, et={i for i in range(4) if rng.random() < 0.5})
                assert report.conserved
                assert report.consumed_minislots <= cfg.minislots_per_cycle
                carried[msg_len] += len(report.carried)
        assert carried[1] == 0 and carried[2] and carried[3]


class TestSwitchLog:
    def test_single_event(self):
        log = SwitchLog()
        log.record(100, "TT->ET")
        assert len(log) == 1
        assert log.events[0].k_prime == 101

    def test_alternation_ok(self):
        log = SwitchLog()
        log.record(100, "TT->ET")
        log.record(150, "ET->TT")
        assert [e.direction for e in log.events] == ["TT->ET", "ET->TT"]

    def test_alternation_violated(self):
        log = SwitchLog()
        log.record(100, "TT->ET")
        with pytest.raises(ValueError, match="alternate"):
            log.record(150, "TT->ET")

    def test_monotonic_instants(self):
        log = SwitchLog()
        log.record(100, "TT->ET")
        with pytest.raises(ValueError, match="increase"):
            log.record(100, "ET->TT")

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            SwitchLog().record(5, "sideways")


def per_sample_bus(cfg, modes, n):
    """transmit for every app in priority order, then advance_cycle, per
    sample: (state, cycle reports, error text)."""
    state, reports = BusState(), []
    try:
        for k in range(n):
            for app in cfg.priority_order():
                state.modes[app] = modes[app][k]
            for app in cfg.priority_order():
                transmit(state, cfg, app, k)
            reports.append(advance_cycle(state, cfg))
    except BusCapacityError as exc:
        return state, reports, str(exc)
    return state, reports, None


def random_bus(rng, n=40):
    """A bus with random priorities, budget, d2 and message length, and a
    random mode matrix over n samples, mostly ET."""
    n_apps = int(rng.integers(1, 6))
    prios = rng.permutation(n_apps) + 1
    cfg = BusConfig(n_apps, {i: int(prios[i]) for i in range(n_apps)},
                    minislots_per_cycle=int(rng.integers(1, 2 * n_apps + 3)),
                    d2=int(rng.integers(2, 6)), message_minislots=int(rng.integers(1, 3)))
    modes = [[Mode.ET.value if rng.random() < 0.7 else Mode.TT.value for _ in range(n)]
             for _ in range(n_apps)]
    return cfg, modes


class TestReplay:
    def test_matches_transmit_and_advance_cycle(self):
        # some runs carry messages over, some abort
        rng = np.random.default_rng(7)
        carried = aborted = 0
        for _ in range(60):
            cfg, modes = random_bus(rng)
            ref, ref_reports, ref_error = per_sample_bus(cfg, modes, 40)
            state, reports = BusState(), []
            error = None
            try:
                bus_reference.replay(state, cfg, modes, 40, reports)
            except BusCapacityError as exc:
                error = str(exc)
            assert error == ref_error
            assert state.deliveries == ref.deliveries
            assert reports == ref_reports
            assert state.carryover == ref.carryover
            assert state.cycle_index == ref.cycle_index
            carried += any(r.carried for r in reports) and error is None
            aborted += error is not None
        assert carried and aborted

    def test_every_et_arrival_is_one_after_the_cycle_that_sends_it(self):
        # The walk does not read d2, so a run with the deadline out of reach
        # shows which cycle sends each message: run it on past the last
        # sample until the carry queue drains.  An app's messages leave in
        # enqueue order.  The run with the real d2 logs the same arrivals up
        # to where it aborts.
        rng = np.random.default_rng(7)
        carried = late = 0
        for _ in range(300):
            cfg, modes = random_bus(rng)
            if cfg.message_minislots > cfg.minislots_per_cycle:
                with pytest.raises(BusCapacityError, match="exceeds the whole dynamic segment"):
                    bus_reference.replay(BusState(), cfg, modes, 40, [])
                continue
            free, reports = BusState(), []
            bus_reference.replay(free, replace(cfg, d2=10**6), modes, 40, reports)
            while free.carryover:
                reports.append(advance_cycle(free, cfg))
            sends, arrivals = {}, {}
            for report in reports:
                for app, _len in report.transmissions:
                    sends.setdefault(app, []).append(report.cycle + 1)
            for app, _k, mode, _delivery, arrival in free.deliveries:
                if mode == Mode.ET.value:
                    arrivals.setdefault(app, []).append(arrival)
            assert arrivals == sends
            state = BusState()
            stop = 40
            try:
                bus_reference.replay(state, cfg, modes, 40, [])
            except BusCapacityError:
                stop = state.cycle_index
                late += 1
                assert any(d[4] > d[1] + cfg.d2 - 1 for d in state.deliveries if d[1] == stop)
            n = len(state.deliveries)
            assert [d[4] for d in state.deliveries] == [d[4] for d in free.deliveries[:n]]
            assert all(d[4] <= d[1] + cfg.d2 - 1 for d in state.deliveries if d[1] < stop)
            carried += any(d[4] > d[1] + 1 for d in state.deliveries if d[1] < stop)
        assert carried and late

    def test_stops_after_n_samples(self):
        cfg = BusConfig.default(2, d2=3)
        log = {}
        replay(cfg, [[True] * 10, [False] * 10], 4, log)
        assert len(log["consumed"]) == 4
        assert [(log["app"][i], log["k"][i], log["et"][i]) for i in range(2)] == [(0, 0, 1), (1, 0, 0)]
        assert len(log["k"]) == 8


def memo_replay(cfg, modes, n):
    """(columns, error text) of the memoised replay."""
    log = {}
    try:
        replay(cfg, [[m == Mode.ET.value for m in row] for row in modes], n, log)
    except BusCapacityError as exc:
        return log, str(exc)
    return log, None


def oracle_replay(cfg, modes, n):
    """(columns, error text, failing sample) of the per-cycle replay."""
    state, reports = BusState(), []
    try:
        bus_reference.replay(state, cfg, modes, n, reports)
    except BusCapacityError as exc:
        return bus_reference.log_columns(state, reports), str(exc), state.cycle_index
    return bus_reference.log_columns(state, reports), None, None


class TestMemoisedReplay:
    """The memoised walk against the per-cycle one it replaces."""

    def assert_same(self, cfg, modes, n):
        want, want_error, stop = oracle_replay(cfg, modes, n)
        got, error = memo_replay(cfg, modes, n)
        assert error == want_error
        if stop is not None:
            assert len(got["consumed"]) == stop
        for name in BUS_COLUMNS:
            assert got[name].dtype == np.int64 and got[name].tolist() == want[name].tolist(), name
        return want, want_error

    def test_random_buses_match_the_per_cycle_walk(self):
        rng = np.random.default_rng(11)
        seen = dict.fromkeys(["short_budget_carry", "long_message_carry", "permuted_carry", "late", "oversize"], 0)
        for _ in range(300):
            cfg, modes = random_bus(rng)
            n = int(rng.integers(0, 41))
            want, error = self.assert_same(cfg, modes, n)
            carried = error is None and bool(want["carried"].any())
            permuted = cfg.priority_order() != list(range(cfg.n_apps))
            seen["short_budget_carry"] += carried and cfg.minislots_per_cycle < cfg.n_apps
            seen["long_message_carry"] += carried and cfg.message_minislots > 1
            seen["permuted_carry"] += carried and permuted
            seen["late"] += error is not None and "would arrive at" in error
            seen["oversize"] += error is not None and "exceeds the whole dynamic segment" in error
        assert all(seen.values()), seen

    def test_saturated_bus_with_reversed_priorities(self):
        # five one-minislot messages a sample on a three-minislot segment:
        # every cycle carries, and the lowest-priority app (0) is carried furthest
        n_apps = 5
        cfg = BusConfig(n_apps, {i: n_apps - i for i in range(n_apps)}, minislots_per_cycle=3, d2=4)
        rng = np.random.default_rng(3)
        modes = [["ET" if rng.random() < 0.6 else "TT" for _ in range(200)] for _ in range(n_apps)]
        want, error = self.assert_same(cfg, modes, 200)
        assert want["carried"].any()

    def test_each_distinct_cycle_is_walked_once(self, monkeypatch):
        from adaptbus import netbus

        calls = []
        real = netbus.advance_cycle

        def counting(state, config):
            calls.append((tuple(app for app, _l, _k in state.carryover), frozenset(state.pending)))
            return real(state, config)

        monkeypatch.setattr(netbus, "advance_cycle", counting)
        cfg = BusConfig.default(3, d2=3, minislots_per_cycle=2)
        modes = [["ET", "TT"] * 50, ["ET"] * 100, ["TT", "ET", "ET", "TT"] * 25]
        self.assert_same(cfg, modes, 100)  # the oracle calls the walk it imported, not the patched one
        assert 1 < len(calls) == len(set(calls)) < 10

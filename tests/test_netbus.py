import numpy as np
import pytest

from adaptbus.netbus import (
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
            BusConfig(1, {0: 0}, {0: 1}, 4, d2=1, eth=0.1)

    def test_injective_slots(self):
        with pytest.raises(ValueError, match="injective"):
            BusConfig(2, {0: 0, 1: 0}, {0: 1, 1: 2}, 4, d2=2, eth=0.1)

    def test_default_factory(self):
        cfg = BusConfig.default(3)
        assert cfg.priority_order() == [0, 1, 2]

    @pytest.mark.parametrize("n_apps,slots,prios", [
        (3, {0: 0, 1: 1, 2: 2}, {0: 1, 5: 2, 2: 3}),
        (3, {0: 0, 1: 1, 2: 2}, {1: 1, 2: 2}),
        (2, {0: 0}, {0: 1, 1: 2}),
        (2, {0: 0, 1: 1, 2: 2}, {0: 1, 1: 2}),
    ], ids=["priority_for_unknown_app", "priority_missing_app", "static_slot_missing_app",
            "static_slot_for_unknown_app"])
    def test_mappings_name_exactly_the_apps(self, n_apps, slots, prios):
        with pytest.raises(ValueError, match=f"must name exactly the apps 0..{n_apps - 1}"):
            BusConfig(n_apps, slots, prios, 4, d2=2, eth=0.1)


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
        # two messages fit the dynamic segment; the third must carry a cycle,
        # blowing the d2 budget
        cfg = BusConfig(3, {i: i for i in range(3)}, {i: i + 1 for i in range(3)},
                        minislots_per_cycle=2, d2=2, eth=0.1)
        state = BusState(modes={i: Mode.ET for i in range(3)})
        assert transmit(state, cfg, 0, 50) == 52
        assert transmit(state, cfg, 1, 50) == 52
        with pytest.raises(BusCapacityError):
            transmit(state, cfg, 2, 50)

    def test_unregistered_app(self):
        cfg = BusConfig.default(1)
        with pytest.raises(KeyError):
            transmit(BusState(modes={5: Mode.TT}), cfg, 5, 0)

    def test_oversized_message(self):
        cfg = BusConfig(1, {0: 0}, {0: 1}, minislots_per_cycle=2, d2=2, eth=0.1,
                        message_minislots=3)
        state = BusState(modes={0: Mode.ET})
        with pytest.raises(BusCapacityError, match="dynamic segment"):
            transmit(state, cfg, 0, 0)


class TestAdvanceCycle:
    def test_all_idle(self):
        cfg = BusConfig.default(3)
        report = advance_cycle(BusState(), cfg, requests={})
        assert report.consumed_minislots == 3
        assert report.idle_slots == 3
        assert not report.transmissions
        assert report.conserved

    def test_long_message_plus_idles(self):
        cfg = BusConfig(3, {i: i for i in range(3)}, {i: i + 1 for i in range(3)},
                        minislots_per_cycle=8, d2=2, eth=0.1)
        report = advance_cycle(BusState(), cfg, requests={0: 4})
        assert report.consumed_minislots == 6  # 4 + 1 + 1
        assert report.idle_slots == 2
        assert report.transmissions == [(0, 4)]
        assert report.conserved

    def test_empty_dynamic_segment(self):
        cfg = BusConfig(0, {}, {}, minislots_per_cycle=4, d2=2, eth=0.1)
        report = advance_cycle(BusState(), cfg, requests={})
        assert report.consumed_minislots == 0
        assert report.conserved

    def test_carryover_served_next_cycle(self):
        cfg = BusConfig(2, {0: 0, 1: 1}, {0: 1, 1: 2}, minislots_per_cycle=2,
                        d2=3, eth=0.1)
        state = BusState(modes={0: Mode.ET, 1: Mode.ET})
        r1 = advance_cycle(state, cfg, requests={0: 2, 1: 2})
        assert r1.transmissions == [(0, 2)]
        assert len(r1.carried) == 1
        assert r1.conserved
        r2 = advance_cycle(state, cfg, requests={})
        assert r2.transmissions == [(1, 2)]
        assert r2.conserved

    def test_conservation_random(self):
        import numpy as np

        rng = np.random.default_rng(5)
        cfg = BusConfig(4, {i: i for i in range(4)}, {i: i + 1 for i in range(4)},
                        minislots_per_cycle=6, d2=4, eth=0.1)
        state = BusState(modes={i: Mode.ET for i in range(4)})
        for _ in range(200):
            requests = {i: int(rng.integers(1, 4)) for i in range(4) if rng.random() < 0.5}
            report = advance_cycle(state, cfg, requests=requests)
            assert report.conserved
            assert report.consumed_minislots <= cfg.minislots_per_cycle


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
    """transmit for every app in priority order, then advance_cycle, per sample."""
    state = BusState()
    try:
        for k in range(n):
            for app in cfg.priority_order():
                state.modes[app] = modes[app][k]
            for app in cfg.priority_order():
                transmit(state, cfg, app, k)
            advance_cycle(state, cfg)
    except BusCapacityError as exc:
        return state, str(exc)
    return state, None


class TestReplay:
    def test_matches_transmit_and_advance_cycle(self):
        # random priorities, budgets, message lengths and mode matrices: some
        # runs carry messages over, some abort part way through a sample
        rng = np.random.default_rng(7)
        carried = aborted = 0
        for _ in range(60):
            n_apps = int(rng.integers(1, 6))
            prios = rng.permutation(n_apps) + 1
            cfg = BusConfig(n_apps, {i: i for i in range(n_apps)}, {i: int(prios[i]) for i in range(n_apps)},
                            minislots_per_cycle=int(rng.integers(1, 2 * n_apps + 3)),
                            d2=int(rng.integers(2, 6)), eth=0.1, message_minislots=int(rng.integers(1, 3)))
            modes = [[Mode.ET.value if rng.random() < 0.7 else Mode.TT.value for _ in range(40)]
                     for _ in range(n_apps)]
            ref, ref_error = per_sample_bus(cfg, modes, 40)
            state = BusState()
            error = None
            try:
                replay(state, cfg, modes, 40)
            except BusCapacityError as exc:
                error = str(exc)
            assert error == ref_error
            assert state.deliveries == ref.deliveries
            assert state.cycle_log == ref.cycle_log
            assert state.carryover == ref.carryover
            assert state.cycle_index == ref.cycle_index
            carried += any(r.carried for r in state.cycle_log) and error is None
            aborted += error is not None and any(d[1] == state.cycle_index for d in state.deliveries)
        assert carried and aborted

    def test_stops_after_n_samples(self):
        cfg = BusConfig.default(2, d2=3)
        state = BusState()
        replay(state, cfg, [["ET"] * 10, ["TT"] * 10], 4)
        assert state.cycle_index == 4
        assert [d[:3] for d in state.deliveries[:2]] == [(0, 0, "ET"), (1, 0, "TT")]
        assert len(state.deliveries) == 8

import numpy as np
import pytest

from adaptbus.adapt import ParameterEstimate
from adaptbus.netbus import BusState, Mode, advance_cycle, transmit
from adaptbus.netbus import BusConfig
from adaptbus.harness import containment_check
from adaptbus.plant import DisturbanceTrain, PlantModel, make_impulse_train
from adaptbus.supervisor import (
    AppSupervisor,
    DisturbanceInverseFilter,
    DualEstimates,
    ReferenceModel,
    apply_reset,
    equivalent_reference,
    lyapunov,
    signal_error,
)
from tests.conftest import make_random_plant


def make_duals(m1=2, m2=1, d2=2, beta0_init=1.0):
    return DualEstimates.create(m1, m2, d2, beta0_init=beta0_init)


class TestDualEstimates:
    def test_distinct_dimensions(self):
        duals = make_duals()
        assert duals.theta1.theta.shape == (4,)
        assert duals.theta2.theta.shape == (5,)

    def test_rejects_aliased_dims(self):
        t = ParameterEstimate.create(1, 0, 1)
        with pytest.raises(ValueError):
            DualEstimates(theta1=t, theta2=t, theta2_memory=t.theta.copy())


class TestApplyReset:
    def test_even_entry_zeroes_theta1(self):
        duals = make_duals()
        duals.theta1 = ParameterEstimate(theta=np.array([1.0, 2.0, 3.0, 4.0]))
        apply_reset(duals, 0, "ET->TT", m2=1, d2=2)
        assert not duals.theta1.theta.any()

    def test_even_entry_snapshots_memory(self):
        duals = make_duals()
        duals.theta2 = ParameterEstimate(theta=np.arange(1.0, 6.0))
        apply_reset(duals, 2, "ET->TT", m2=1, d2=2)
        assert np.array_equal(duals.theta2_memory, np.arange(1.0, 6.0))

    def test_first_et_entry_zeroes_theta2(self):
        duals = make_duals()
        apply_reset(duals, 1, "TT->ET", m2=1, d2=2)
        assert not duals.theta2.theta.any()
        assert duals.hold_counter == 0

    def test_later_et_entry_restores_memory_and_holds(self):
        duals = make_duals()
        v = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        duals.theta2_memory = v.copy()
        duals.theta2 = ParameterEstimate(theta=np.ones(5))
        apply_reset(duals, 3, "TT->ET", m2=1, d2=2)
        assert np.array_equal(duals.theta2.theta, v)
        assert duals.hold_counter == 2  # m2 + d2 - 1

    def test_parity_mismatch(self):
        duals = make_duals()
        with pytest.raises(ValueError, match="even"):
            apply_reset(duals, 1, "ET->TT", m2=1, d2=2)
        with pytest.raises(ValueError, match="odd"):
            apply_reset(duals, 2, "TT->ET", m2=1, d2=2)


class TestLyapunov:
    def test_exact_estimate_zero(self):
        duals = make_duals()
        ts1 = duals.theta1.theta.copy()
        ts2 = duals.theta2.theta.copy()
        V, dV = lyapunov(duals, ts1, ts2, Mode.TT)
        assert V == 0.0 and dV == 0.0

    def test_norm_arithmetic(self):
        duals = make_duals(m1=0, m2=0, d2=2, beta0_init=1.0)
        duals.theta2 = ParameterEstimate.zero(2)
        V, _ = lyapunov(duals, np.array([1.0]), np.array([1.0, 1.0]), Mode.ET)
        assert V == 2.0

    def test_padding_matches_plain_norm(self):
        duals = make_duals()
        ts1 = np.array([0.5, -0.5, 0.2, 1.3])
        ts2 = np.zeros(5)
        V, _ = lyapunov(duals, ts1, ts2, Mode.TT)
        assert np.isclose(V, np.sum((ts1 - duals.theta1.theta) ** 2))

    def test_dv_tracks_previous(self):
        duals = make_duals()
        V1, _ = lyapunov(duals, np.ones(4), np.ones(5), Mode.TT)
        V2, dV = lyapunov(duals, np.zeros(4), np.ones(5), Mode.TT, v_prev=V1)
        assert dV == V2 - V1


class TestEquivalentReference:
    def test_no_disturbance_identity(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        filt = DisturbanceInverseFilter(model)
        for k in range(5):
            assert equivalent_reference(1.5, 0.0, filt) == 1.5

    def test_unit_plant_passthrough(self):
        model = PlantModel(a=[], b=[1.0])
        filt = DisturbanceInverseFilter(model)
        assert equivalent_reference(0.0, 1.0, filt) == 1.0
        assert equivalent_reference(0.0, 0.0, filt) == 0.0

    def test_inverse_filter_values(self):
        # A = (1, -0.5), B = (1): a unit impulse maps to (1, -0.5, 0, ...)
        model = PlantModel(a=[-0.5], b=[1.0])
        filt = DisturbanceInverseFilter(model)
        out = [filt.step(d) for d in [1.0, 0.0, 0.0, 0.0]]
        assert np.allclose(out, [1.0, -0.5, 0.0, 0.0])

    def test_im_filter_uses_b_recursion(self):
        # B = (1, 0.5): stable inverse, impulse response alternates
        model = PlantModel(a=[], b=[1.0, 0.5])
        filt = DisturbanceInverseFilter(model)
        out = [filt.step(d) for d in [1.0, 0.0, 0.0]]
        assert np.allclose(out, [1.0, -0.5, 0.25])


class TestReferenceModel:
    def test_quiescent(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        rm = ReferenceModel(model, 1)
        for _ in range(5):
            Phi = rm.step(0.0)
            assert not Phi.any()

    def test_first_element_tracks_reference(self):
        model = PlantModel(a=[-0.5, 0.06], b=[1.0, 0.2])
        rm = ReferenceModel(model, 2)
        yref = np.sin(0.2 * np.arange(100))
        for k in range(60):
            Phi = rm.step(yref[k + 2] if k + 2 < 100 else 0.0)
            if k > 5:
                assert abs(Phi[0] - yref[k]) < 1e-9

    def test_adaptive_regressor_converges_to_model(self, rng):
        # a converged adaptive loop's regressor approaches the ideal loop's
        from adaptbus import kernels

        model = make_random_plant(rng, 2, 1)
        T, d = 3000, 1
        kk = np.arange(T + d)
        yref = np.sin(0.35 * kk)
        theta0 = np.zeros(4)
        theta0[-1] = 1.0
        st, _, _, _, _, _, Phi_hist = kernels.simulate_fixed_delay(
            model.a, model.b, d, 0.5, theta0, yref, np.zeros(T + 1),
            np.zeros(0), np.zeros(0), True,
        )
        assert st == kernels.SIM_OK
        rm = ReferenceModel(model, d)
        gaps = []
        for k in range(T):
            Phi_star = rm.step(yref[k + d])
            gaps.append(np.linalg.norm(Phi_hist[k + d][:-1] - Phi_star[:-1]))
        assert max(gaps[-200:]) < 0.01
        assert max(gaps[-200:]) < max(gaps[:200])


class TestSignalError:
    def test_zero(self):
        assert signal_error(np.ones(3), np.ones(3)) == 0.0

    def test_value(self):
        assert signal_error(np.array([1.0, 0.0]), np.zeros(2)) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            signal_error(np.zeros(2), np.zeros(3))


class TestErrorEquationOracle:
    def test_tt_error_equation_with_true_divisor(self, rng):
        # substituting the true leading-input coefficient makes the one-step
        # tracking error exactly the feedback-parameter mismatch term
        from adaptbus.adapt import build_regressor, control_law
        from adaptbus.plant import SignalHistory, step_difference

        for _ in range(10):
            model = make_random_plant(rng, 2, 1)
            theta_star = model.true_theta(1)
            # mildly detuned feedback estimate keeps the loop bounded so the
            # absolute tolerance stays meaningful
            votheta = theta_star[:-1] + 0.2 * rng.normal(size=3)
            est = ParameterEstimate(theta=np.concatenate([votheta, [theta_star[-1]]]))
            h = SignalHistory(2, 1, d_max=1)
            yref = rng.normal(size=80)
            for k in range(60):
                pair = build_regressor(h, 1, 0.0)
                u = control_law(est, pair.phi, yref[k + 1])
                y_next = step_difference(model, h, u)
                e_next = y_next - yref[k + 1]
                predicted = float((theta_star[:-1] - votheta) @ pair.phi)
                assert abs(e_next - predicted) < 1e-9 * max(1.0, abs(y_next))

    def test_et_error_equation_with_true_divisor(self, rng):
        from adaptbus.adapt import build_regressor, control_law
        from adaptbus.plant import SignalHistory, step_difference

        for _ in range(10):
            model = make_random_plant(rng, 2, 1)
            d = 2
            theta_star = model.true_theta(d)
            votheta = theta_star[:-1] + 0.2 * rng.normal(size=4)
            est = ParameterEstimate(theta=np.concatenate([votheta, [theta_star[-1]]]))
            h = SignalHistory(2, 1, d_max=d)
            yref = rng.normal(size=100)
            phis = {}
            for k in range(70):
                pair = build_regressor(h, d, 0.0)
                u = control_law(est, pair.phi, yref[k + d])
                phis[k] = pair.phi
                y_next = step_difference(model, h, u, d=d)
                if k - (d - 1) >= 0:
                    e = y_next - yref[k + 1]
                    predicted = float((theta_star[:-1] - votheta) @ phis[k - (d - 1)])
                    assert abs(e - predicted) < 1e-9 * max(1.0, abs(y_next))


def run_switching(model_kwargs, horizon=5000, times=(1500, 2200, 2900, 3600, 4300),
                  level=2.0, beta0_init=0.25, eth=0.05):
    model = PlantModel(**model_kwargs)
    yref = np.full(horizon + 2, level)
    train = make_impulse_train(500, horizon, 1.0, times=list(times)) if times else None
    sup = AppSupervisor(0, model, 2, eth, yref, train, beta0_init=beta0_init)
    cfg = BusConfig.default(1, d2=2, minislots_per_cycle=8)
    state = BusState()
    for k in range(horizon):
        state.modes[0] = sup.sense(k)
        transmit(state, cfg, 0, k)
        advance_cycle(state, cfg)
        sup.supervise_step(k)
    return sup


@pytest.fixture(scope="module")
def switching_sup():
    return run_switching({"a": [], "b": [0.25]})


class TestSupervisorLoop:
    @pytest.fixture
    def sup(self, switching_sup):
        return switching_sup

    def test_switch_alternation_and_parity(self, sup):
        dirs = [ev.direction for ev in sup.switch_log.events]
        for a, b in zip(dirs, dirs[1:]):
            assert a != b
        for ev in sup.switch_log.events:
            expect = "TT->ET" if ev.p % 2 == 1 else "ET->TT"
            assert ev.direction == expect

    def test_mode_isolation_counters(self, sup):
        # the TT controller never touches theta2 and vice versa
        for (mode, which, _op), count in sup.access_counts.items():
            if mode == "TT":
                assert which == "theta1"
            else:
                assert which == "theta2"
            assert count > 0

    def test_hold_window_keeps_theta2_bit_identical(self):
        # during the post-re-entry hold, theta2 stays bit-identical to the
        # stored end-of-phase value; the first live update then moves it
        model = PlantModel(a=[], b=[0.25])
        horizon = 2400
        yref = np.full(horizon + 2, 2.0)
        train = make_impulse_train(500, horizon, 1.0, times=[1500])
        sup = AppSupervisor(0, model, 2, 0.05, yref, train, beta0_init=0.25)
        cfg = BusConfig.default(1, d2=2, minislots_per_cycle=8)
        state = BusState()
        snapshots = {}
        for k in range(horizon):
            state.modes[0] = sup.sense(k)
            transmit(state, cfg, 0, k)
            advance_cycle(state, cfg)
            sup.supervise_step(k)
            evs = sup.switch_log.events
            if evs and evs[-1].direction == "TT->ET" and evs[-1].p >= 3:
                kp = evs[-1].k
                if kp not in snapshots:
                    snapshots[kp] = sup.duals.theta2_memory.copy()
            for kp, mem in snapshots.items():
                hold_span = 1  # m2 + d2 - 1 with m2 = 0
                if kp <= k <= kp + hold_span:
                    assert np.array_equal(sup.duals.theta2.theta, mem)
        assert snapshots, "scenario must contain a re-entry"

    def test_dwell_violation_reported_not_crashed(self):
        # impulses packed at a dwell gap of 2: the run completes and the
        # containment scan reports its findings instead of raising
        model = PlantModel(a=[], b=[0.25])
        yref = np.full(2002, 2.0)
        train = DisturbanceTrain(times=np.arange(1000, 1040, 2),
                                 amplitudes=np.ones(20), t_dw=2)
        sup = AppSupervisor(0, model, 2, 0.05, yref, train, beta0_init=0.25)
        cfg = BusConfig.default(1, d2=2, minislots_per_cycle=8)
        state = BusState()
        for k in range(2000):
            state.modes[0] = sup.sense(k)
            transmit(state, cfg, 0, k)
            advance_cycle(state, cfg)
            sup.supervise_step(k)
        switches = [(ev.k, ev.direction, ev.p) for ev in sup.switch_log.events]
        windows, lengths = containment_check(np.asarray(sup.rows["e"]), switches, 0, 2)
        assert windows or lengths  # findings delivered, no exception

    def test_quiescence_without_disturbance(self):
        sup = run_switching({"a": [], "b": [0.25]}, horizon=2000, times=None)
        e = np.asarray(sup.rows["e"])
        settle = 0
        bad = np.nonzero(np.abs(e) > 0.05)[0]
        if bad.size:
            settle = int(bad[-1]) + 1
        late = [ev for ev in sup.switch_log.events if ev.k > settle]
        assert not late

    def test_signals_bounded(self, sup):
        assert np.max(np.abs(sup.rows["y"])) < 1e3
        assert np.max(np.abs(sup.rows["u"])) < 1e3
        assert max(sup.theta_norm_hist) < 1e3

    def test_recorded_histories_match_the_live_loop(self):
        # the monitors read these arrays after the run: each regressor row
        # must be the one build_regressor gives before the step, and each
        # estimate row the live estimate after the step, reset included
        from adaptbus import kernels
        from adaptbus.adapt import build_regressor

        model = PlantModel(a=[-0.5, 0.1], b=[1.0, 0.3])
        horizon, d2 = 900, 3
        yref = np.full(horizon + d2, 1.5)
        train = make_impulse_train(300, horizon, 1.0, times=[300, 600])
        y_init, u_init = np.array([0.2, -0.1]), np.array([0.3, 0.0, -0.2, 0.1])
        sup = AppSupervisor(0, model, d2, 0.05, yref, train, beta0_init=0.8,
                            y_init=y_init, u_init=u_init)
        # the pre-start rows as the fixed-delay kernel builds them
        for d, hist in ((1, sup.Phi1_hist), (d2, sup.Phi2_hist)):
            kernel_rows = kernels.simulate_fixed_delay(
                model.a, model.b, d, 0.5, model.true_theta(d), yref[:10 + d], np.zeros(11),
                y_init, u_init, False)[-1]
            assert np.array_equal(hist[:d], kernel_rows[:d])
        cfg = BusConfig.default(1, d2=d2, minislots_per_cycle=8)
        state = BusState()
        for k in range(horizon):
            state.modes[0] = sup.sense(k)
            transmit(state, cfg, 0, k)
            advance_cycle(state, cfg)
            pairs = [build_regressor(sup.history, d, 0.0) for d in (1, d2)]
            sup.supervise_step(k)
            for pair, Phi in zip(pairs, (sup.Phi1_hist[k + 1], sup.Phi2_hist[k + d2])):
                assert np.array_equal(Phi[:-1], pair.phi)
                assert Phi[-1] == sup.rows["u"][k]
            assert np.array_equal(sup.theta1_hist[k], sup.duals.theta1.theta)
            assert np.array_equal(sup.theta2_hist[k], sup.duals.theta2.theta)
        assert {"TT", "ET"} <= set(sup.rows["mode"]) and len(sup.switch_log.events) >= 3

    def test_reset_exactness_live(self):
        # capture theta1 right after an even switch via a fresh run
        model = PlantModel(a=[], b=[0.25])
        horizon = 1700
        yref = np.full(horizon + 2, 2.0)
        train = make_impulse_train(500, horizon, 1.0, times=[1500])
        sup = AppSupervisor(0, model, 2, 0.05, yref, train, beta0_init=0.25)
        cfg = BusConfig.default(1, d2=2, minislots_per_cycle=8)
        state = BusState()
        seen_zero = False
        for k in range(horizon):
            state.modes[0] = sup.sense(k)
            transmit(state, cfg, 0, k)
            advance_cycle(state, cfg)
            sup.supervise_step(k)
            if sup.switch_log.events and sup.switch_log.events[-1].k == k \
                    and sup.switch_log.events[-1].direction == "ET->TT":
                assert not sup.duals.theta1.theta.any()
                seen_zero = True
        assert seen_zero


class TestContainmentCheck:
    # containment_check returns the |e| windows of the re-entries with p >= 3
    # and the lengths of the ET phases that a switch ends; the monitor judges
    # them against eth and 2 samples
    def test_clean_trace_passes(self):
        e = np.arange(100) * 1e-3
        windows, lengths = containment_check(e, [(10, "TT->ET", 3), (60, "ET->TT", 4)], m2=1, d2=2)
        assert windows == [[abs(e[11]), abs(e[12]), abs(e[13])]]  # k' = 11, m2 + d2 = 3 samples
        assert all(v <= 0.1 for v in windows[0]) and lengths == [49]

    def test_violation_reported_not_raised(self):
        e = np.zeros(100)
        e[12] = 5.0
        windows, lengths = containment_check(e, [(10, "TT->ET", 3), (40, "ET->TT", 4)], m2=1, d2=2)
        assert windows == [[0.0, 5.0, 0.0]] and max(windows[0]) > 0.1

    def test_short_phase_flagged(self):
        windows, lengths = containment_check(np.zeros(100), [(10, "TT->ET", 1), (13, "ET->TT", 2)], m2=1, d2=2)
        assert lengths == [2]  # not more than 2 samples: the monitor fails it

    def test_unterminated_phase_is_ok(self):
        windows, lengths = containment_check(np.zeros(100), [(97, "TT->ET", 1)], m2=1, d2=2)
        assert windows == [] and lengths == []

    def test_first_entry_not_held_to_containment(self):
        e = np.zeros(100)
        e[12] = 5.0  # would violate if p=1 were checked
        windows, lengths = containment_check(e, [(10, "TT->ET", 1), (40, "ET->TT", 2)], m2=1, d2=2)
        assert windows == [] and lengths == [29]

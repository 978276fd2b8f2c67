import numpy as np
import pytest

from adaptbus.plant import (
    DisturbanceTrain,
    PlantDivergenceError,
    PlantModel,
    SignalHistory,
    make_impulse_train,
    step_difference,
)
from tests.conftest import make_random_plant, predictor_identity_error
from tests.plant_reference import predictor_disturbance, simulate_difference, simulate_predictor, step_predictor


class TestPlantModel:
    def test_rejects_nonminimum_phase(self):
        with pytest.raises(ValueError) as exc:
            PlantModel(a=[-0.5], b=[1.0, 2.0])
        assert "-2" in str(exc.value)

    def test_rejects_zero_b0(self):
        with pytest.raises(ValueError, match="non-empty"):
            PlantModel(a=[], b=[0.0, 1.0])

    def test_true_theta_layout(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        # d=2: prediction form has alpha=(0.25), beta=(1, 0.5)
        theta = model.true_theta(2)
        assert np.allclose(theta, [0.25, 0.5, 1.0])


class TestSignalHistory:
    def test_initial_conditions(self):
        h = SignalHistory(2, 1, d_max=2, y_init=[1.0, 2.0], u_init=[3.0, 4.0])
        assert h.y_lag(0) == 1.0 and h.y_lag(1) == 2.0
        assert h.u_lag(1) == 3.0 and h.u_lag(2) == 4.0

    def test_advance_shifts(self):
        h = SignalHistory(2, 1, d_max=2)
        h.advance(10.0, 20.0)
        assert h.k == 1
        assert h.y_lag(0) == 20.0
        assert h.u_lag(1) == 10.0

    def test_window_order(self):
        h = SignalHistory(3, 2, d_max=2)
        for t in range(6):
            h.advance(100.0 + t, 200.0 + t)
        assert list(h.y_window(3)) == [205.0, 204.0, 203.0]
        assert list(h.u_window(3)) == [105.0, 104.0, 103.0]


class TestStepDifference:
    def test_hand_recursion(self):
        # a=(-0.5), b=(1), d=1, u(0)=1 then zero: y = 1, 0.5, 0.25
        model = PlantModel(a=[-0.5], b=[1.0])
        h = SignalHistory(1, 0, d_max=1)
        ys = []
        for k, u in enumerate([1.0, 0.0, 0.0]):
            ys.append(step_difference(model, h, u))
        assert np.allclose(ys, [1.0, 0.5, 0.25])

    def test_zero_dynamics(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        h = SignalHistory(1, 0, d_max=1)
        for _ in range(10):
            assert step_difference(model, h, 0.0) == 0.0

    def test_impulse_enters_delayed(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        train = DisturbanceTrain(times=np.array([0]), amplitudes=np.array([1.0]), t_dw=1)
        h = SignalHistory(1, 0, d_max=1)
        y1 = step_difference(model, h, 0.0, train, d=1)
        assert y1 == 1.0  # D(0) lands on y(1) through the d-delayed channel
        assert step_difference(model, h, 0.0, train, d=1) == 0.5

    def test_divergence_detected(self):
        model = PlantModel(a=[-2.0], b=[1.0])  # unstable pole
        h = SignalHistory(1, 0, d_max=1)
        with pytest.raises(PlantDivergenceError):
            step_difference(model, h, 0.0)
            for _ in range(100):
                step_difference(model, h, 1e300)

    def test_matches_kernel(self, rng):
        model = make_random_plant(rng, 2, 1)
        u = rng.normal(size=50)
        dist = np.zeros(51)
        _, y_kernel = simulate_difference(model.a, model.b, 1, u, dist, np.zeros(0), np.zeros(0))
        h = SignalHistory(2, 1, d_max=1)
        y_loop = [0.0]
        for uk in u:
            y_loop.append(step_difference(model, h, uk))
        assert np.array_equal(np.asarray(y_loop), y_kernel)


class TestStepPredictor:
    def test_all_zero(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        alpha, beta, _ = model.predictor(2)
        h = SignalHistory(1, 0, d_max=2)
        assert step_predictor(alpha, beta, h, 0.0, 0.0) == 0.0

    def test_d1_equals_difference(self, rng):
        for _ in range(10):
            model = make_random_plant(rng, 2, 1)
            alpha, beta, _ = model.predictor(1)
            h1 = SignalHistory(2, 1, d_max=1)
            h2 = SignalHistory(2, 1, d_max=1)
            for _ in range(30):
                u = float(rng.normal())
                yp = step_predictor(alpha, beta, h2, u, 0.0)
                yd = step_difference(model, h1, u)
                h2.advance(u, yp)
                assert abs(yd - yp) < 1e-12

    def test_d2_matches_two_iterated_steps(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        alpha, beta, _ = model.predictor(2)
        assert np.allclose(alpha.asarray(), [0.25])
        assert np.allclose(beta.asarray(), [1.0, 0.5])
        rng = np.random.default_rng(3)
        u = rng.normal(size=40)
        dist = np.zeros(41)
        _, y_diff = simulate_difference(model.a, model.b, 2, u, dist, np.zeros(0), np.zeros(0))
        _, y_pred = simulate_predictor(
            alpha.asarray(), beta.asarray(), np.array([1.0, 0.5]), 2, u, dist, np.zeros(0), np.zeros(0)
        )
        assert np.max(np.abs(y_diff - y_pred)) < 1e-12

    def test_equivalence_random_plants_with_disturbance(self, rng):
        # the headline property: the d-step prediction form evaluated along
        # the difference-form trajectory reproduces it sample by sample
        for _ in range(50):
            m1, m2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            model = make_random_plant(rng, m1, m2)
            T = 200
            u = rng.normal(size=T)
            train = make_impulse_train(40, T, amplitudes=float(rng.normal()), rng=rng)
            dist = train.dense(T + 1)
            for d in (1, 2):
                err = predictor_identity_error(model, d, u, dist)
                assert err < 1e-9

    def test_self_consistent_recursion_matches(self, rng):
        # with the prediction-identity quotient's zeros inside the disk, the
        # free-running predictor recursion is numerically stable too
        for _ in range(20):
            model = make_random_plant(rng, 1, 1, pole_radius=0.8)
            T = 200
            u = rng.normal(size=T)
            train = make_impulse_train(40, T, rng=rng)
            dist = train.dense(T + 1)
            for d in (1, 2):
                alpha, beta, F = model.predictor(d)
                _, y_diff = simulate_difference(model.a, model.b, d, u, dist, np.zeros(0), np.zeros(0))
                _, y_pred = simulate_predictor(
                    alpha.asarray(), beta.asarray(), F.asarray(), d, u, dist, np.zeros(0), np.zeros(0)
                )
                assert np.max(np.abs(y_diff - y_pred)) < 1e-9

    def test_predictor_disturbance_filter(self):
        model = PlantModel(a=[-0.5], b=[1.0])
        _, _, F = model.predictor(2)
        train = DisturbanceTrain(times=np.array([5]), amplitudes=np.array([2.0]), t_dw=1)
        assert predictor_disturbance(F, train, 5) == 2.0
        assert predictor_disturbance(F, train, 6) == 2.0 * 0.5  # F = (1, 0.5)
        assert predictor_disturbance(F, train, 7) == 0.0
        assert predictor_disturbance(F, None, 5) == 0.0


class TestRegressorIndexAudit:
    def test_exact_lags_referenced(self):
        # distinct sentinel values expose any off-by-one in the windows
        from adaptbus.adapt import build_regressor

        m1, m2, d = 2, 1, 2
        h = SignalHistory(m1, m2, d_max=d)
        for t in range(8):
            h.advance(2000.0 + t, 1000.0 + t + 1)  # u(t) = 2000+t, y(t+1) = 1001+t
        k = h.k  # y(k) = 1000+k, u(k-1) = 2000+k-1
        pair = build_regressor(h, d, u_k=3000.0)
        expect_phi = [1000.0 + k, 1000.0 + k - 1, 2000.0 + k - 1, 2000.0 + k - 2]
        assert list(pair.phi) == expect_phi
        assert list(pair.Phi) == expect_phi + [3000.0]


class TestImpulseTrain:
    def test_explicit_valid(self):
        tr = make_impulse_train(10, 100, amplitudes=2.0, times=[0, 10, 20])
        assert tr.value(10) == 2.0
        assert tr.value(11) == 0.0

    def test_explicit_gap_violation(self):
        with pytest.raises(ValueError, match="dwell"):
            make_impulse_train(10, 100, times=[0, 5])

    def test_seeded_generation(self):
        rng = np.random.default_rng(99)
        tr = make_impulse_train(500, 2000, rng=rng)
        assert 1 <= len(tr.times) <= 4
        assert np.all(np.diff(tr.times) >= 500)
        rng2 = np.random.default_rng(99)
        tr2 = make_impulse_train(500, 2000, rng=rng2)
        assert np.array_equal(tr.times, tr2.times)

    def test_requires_rng_for_random(self):
        with pytest.raises(ValueError, match="rng"):
            make_impulse_train(10, 100)

    def test_dense(self):
        tr = make_impulse_train(10, 100, amplitudes=[1.0, -2.0], times=[3, 50])
        dense = tr.dense(60)
        assert dense[3] == 1.0 and dense[50] == -2.0 and dense.sum() == -1.0

    def test_rejects_nonfinite_amplitude(self):
        with pytest.raises(ValueError, match="finite"):
            make_impulse_train(10, 100, amplitudes=[np.inf], times=[0])

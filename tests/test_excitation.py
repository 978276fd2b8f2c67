import tracemalloc

import numpy as np
import pytest

from adaptbus.excitation import (
    GramWindow,
    _window_grams,
    is_pe,
    numerical_rank,
    orthogonality_residual,
    sr_order,
    subspace_basis,
)


class TestIsPE:
    def test_scalar_constant(self):
        x = np.ones(20)
        assert is_pe(x, N=2, alpha=2.0)
        assert not is_pe(x, N=2, alpha=2.0 + 1e-9)

    def test_alternating_basis(self):
        seq = [[1.0, 0.0], [0.0, 1.0]] * 10
        assert is_pe(np.array(seq), N=2, alpha=1.0)

    def test_rank_deficient_direction(self):
        seq = np.tile([1.0, 1.0], (30, 1))
        assert not is_pe(seq, N=5, alpha=1e-6)

    def test_requires_full_window(self):
        with pytest.raises(ValueError, match="N"):
            is_pe(np.ones(3), N=5, alpha=0.1)

    def test_uniformity_over_starts(self):
        # exciting early, degenerate later: not persistently exciting
        x = np.concatenate([np.sin(0.9 * np.arange(40)), np.zeros(40)])
        assert not is_pe(x, N=10, alpha=1e-8)


def padded_window_grams(rows, N):
    """The window Grams as they were computed with the outer-product stack
    padded to whole blocks of N rows."""
    T, n = rows.shape
    nb = -(-T // N)
    outer = np.zeros((nb * N, n, n))
    np.einsum("ki,kj->kij", rows, rows, out=outer[:T])
    grams = np.cumsum(outer.reshape(nb, N, n, n), axis=1).reshape(nb * N, n, n)[:T]
    k = np.arange(N, T)
    grams[N:] += grams[k - k % N - 1] - grams[k - N]
    return grams


class TestWindowGrams:
    @pytest.mark.parametrize("T", [0, 3, 7, 23, 35], ids=["empty", "short", "one_block", "blocks_and_rest",
                                                         "whole_blocks"])
    def test_same_bytes_as_the_padded_stack(self, T):
        rows = np.random.default_rng(T).standard_normal((T, 4))
        got, want = _window_grams(rows, 7), padded_window_grams(rows, 7)
        assert got.shape == want.shape == (T, 4, 4)
        assert got.tobytes() == want.tobytes()

    def test_short_run_holds_no_whole_block(self):
        # two rows of width 60 under a 500-row window: the padded stack held
        # 500 outer products, some 29 MB
        rows = np.random.default_rng(0).standard_normal((2, 60))
        tracemalloc.start()
        try:
            _window_grams(rows, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestSROrder:
    def test_zero_sequence(self):
        assert sr_order(np.zeros(100), m_max=3, N=10, tol=1e-10) == 0

    def test_constant(self):
        assert sr_order(np.full(100, 3.0), m_max=4, N=10, tol=1e-8) == 1

    def test_single_sinusoid(self):
        x = np.sin(0.7 * np.arange(200))
        assert sr_order(x, m_max=4, N=30, tol=1e-8) == 2

    def test_two_sinusoids(self):
        t = np.arange(400)
        x = np.sin(0.5 * t) + 0.7 * np.sin(1.3 * t + 0.2)
        assert sr_order(x, m_max=6, N=60, tol=1e-8) == 4

    def test_monotone_in_component_count(self):
        # k incommensurate tones are rich of order exactly 2k
        t = np.arange(600)
        freqs = [0.4, 0.9, 1.7]
        x = np.zeros(len(t))
        for i, w in enumerate(freqs):
            x += np.sin(w * t + 0.3 * i)
            order = sr_order(x, m_max=2 * (i + 1) + 2, N=80, tol=1e-8)
            assert order == 2 * (i + 1)

    def test_summable_perturbation_invariant(self):
        # a geometrically decaying additive term cannot change the order
        t = np.arange(300)
        x = np.sin(0.7 * t)
        assert sr_order(x + 0.5 ** t, m_max=4, N=40, tol=1e-8) == 2


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), tol=1e-8) == 3

    def test_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-12]), tol=1e-8) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            numerical_rank(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGramWindow:
    def test_incremental_matches_recompute(self, rng):
        win = GramWindow(3, window_len=8)
        for _ in range(50):
            win.push(rng.normal(size=3))
            assert np.max(np.abs(win.accum - win.recompute())) < 1e-10

    def test_eviction_cap(self):
        win = GramWindow(2, window_len=4, slack=2)
        for i in range(20):
            win.push([float(i), 0.0])
        assert len(win) == 6

    def test_accum_psd(self, rng):
        win = GramWindow(4, window_len=10)
        for _ in range(30):
            win.push(rng.normal(size=4))
        assert np.min(np.linalg.eigvalsh(win.accum)) >= -1e-10


class TestSubspaceBasis:
    def test_single_direction(self):
        win = GramWindow(2, window_len=6)
        for i in range(10):
            win.push([float(i % 3 + 1), 0.0])
        rep = subspace_basis(win, tol=1e-8)
        assert rep.rank == 1
        assert np.allclose(np.abs(rep.basis[:, 0]), [1.0, 0.0])
        assert rep.alpha_hat > 0

    def test_full_plane(self, rng):
        win = GramWindow(2, window_len=10)
        for _ in range(40):
            win.push(rng.normal(size=2))
        rep = subspace_basis(win)
        assert rep.rank == 2
        assert np.allclose(rep.basis.T @ rep.basis, np.eye(2), atol=1e-10)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            subspace_basis(GramWindow(2, window_len=4))

    def test_descending_spectrum(self, rng):
        win = GramWindow(3, window_len=12)
        for _ in range(30):
            win.push(rng.normal(size=3))
        rep = subspace_basis(win)
        assert np.all(np.diff(rep.singular_values) <= 0)


class TestOrthogonalityResidual:
    def test_zero_error(self):
        assert orthogonality_residual(np.zeros(3), [np.ones(3)]) == 0.0

    def test_orthogonal_error(self):
        window = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        assert orthogonality_residual(np.array([0.0, 5.0]), window) == 0.0

    def test_normalized_value(self):
        out = orthogonality_residual(np.array([1.0, 0.0]), [np.array([1.0, 0.0])])
        assert out == 0.5

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            orthogonality_residual(np.zeros(2), [np.zeros(3)])


class TestConvergedLoopSubspace:
    def test_single_tone_regressor_spans_two_directions(self):
        # regressors of a converged adaptive loop under one tone live on a
        # two-dimensional orbit
        from adaptbus import kernels
        from adaptbus.plant import PlantModel

        model = PlantModel(a=[-1.1, 0.3], b=[1.2, 0.36])
        T, d = 3000, 1
        yref = np.sin(0.35 * np.arange(T + d))
        theta0 = np.zeros(4)
        theta0[-1] = 1.0
        st, _, _, _, _, _, Phi_hist = kernels.simulate_fixed_delay(
            model.a, model.b, d, 0.5, theta0, yref, np.zeros(T + 1),
            np.zeros(0), np.zeros(0), True,
        )
        assert st == kernels.SIM_OK
        win = GramWindow(4, window_len=32)
        for row in Phi_hist[d + T - 40: d + T]:
            win.push(row)
        rep = win.report(tol=1e-6)
        assert rep.rank == 2


class TestReachableStateRank:
    def test_three_state_systems_driven_by_one_tone(self, rng):
        # completely reachable 3-state systems under an order-2 input settle
        # onto a 2-dimensional state subspace; the windowed state Gram agrees
        # with a raw SVD oracle
        n, N, burn = 3, 60, 400
        found = 0
        while found < 10:
            A = rng.normal(size=(n, n))
            A *= 0.85 / np.max(np.abs(np.linalg.eigvals(A)))
            B = rng.normal(size=(n, 1))
            reach = np.hstack([B, A @ B, A @ A @ B])
            if np.linalg.matrix_rank(reach) < n:
                continue
            found += 1
            T = burn + n + N + 1
            X = np.zeros((T + 1, n))
            for t in range(T):
                X[t + 1] = A @ X[t] + (B[:, 0] * np.sin(0.9 * t))
            window = X[burn + 1: burn + 1 + n + N]
            G = window.T @ window
            module_rank = numerical_rank(G, tol=1e-6)
            # independent oracle: singular values of the raw sample matrix
            sv = np.linalg.svd(window, compute_uv=False)
            oracle_rank = int(np.sum(sv ** 2 > 1e-6 * sv[0] ** 2))
            assert module_rank == oracle_rank == 2

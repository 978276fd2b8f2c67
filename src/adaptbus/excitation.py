"""Excitation analytics: windowed Gram accumulation, numerical rank,
richness-order estimation, excited-subspace extraction, and the orthogonality
residual between a parameter error and the regressor window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-6


def _as_rows(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("samples must be a sequence of scalars or vectors")
    return x


def _window_grams(rows: np.ndarray, N: int) -> np.ndarray:
    """The Gram of the window that ends at each row k, rows k+1-N..k (from
    row 0 while k < N - 1): shape (T, n, n).

    The running sums restart at every block of N rows, so a window Gram adds
    up at most two blocks and its rounding does not grow with the run."""
    T, n = rows.shape
    outer = np.einsum("ki,kj->kij", rows, rows)
    grams = np.empty_like(outer)
    full = T - T % N  # the rows of the whole blocks; the rest is one short block
    np.cumsum(outer[:full].reshape(-1, N, n, n), axis=1, out=grams[:full].reshape(-1, N, n, n))
    np.cumsum(outer[full:], axis=0, out=grams[full:])
    # window k: its block's sum up to k plus the rest of the block before
    k = np.arange(N, T)
    grams[N:] += grams[k - k % N - 1] - grams[k - N]
    return grams


def is_pe(samples, N: int, alpha: float) -> bool:
    """True iff every length-N window Gram has lambda_min >= alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rows = _as_rows(samples)
    if rows.shape[0] < N:
        raise ValueError(f"need at least N={N} samples, got {rows.shape[0]}")
    w = np.linalg.eigvalsh(_window_grams(rows, N)[N - 1:])
    return bool(np.min(w[:, 0]) >= alpha)


def sr_order(samples, m_max: int, N: int, tol: float) -> int:
    """Largest m <= m_max whose m-fold stacked windows stay uniformly exciting.

    The stacked vector at t is (x(t+1), ..., x(t+m)); m is accepted when
    lambda_min of every length-N window Gram exceeds tol.  The scan stops at
    the first failing m (ties at the tolerance resolve downward), and the zero
    sequence reports 0.
    """
    rows = _as_rows(samples)
    T, n = rows.shape
    order = 0
    for m in range(1, m_max + 1):
        if T - m + 1 < N:
            break  # not enough data to certify this order
        stacked = np.lib.stride_tricks.sliding_window_view(rows, (m, n)).reshape(T - m + 1, m * n)
        w = np.linalg.eigvalsh(_window_grams(stacked, N)[N - 1:])
        if np.min(w[:, 0]) > tol:
            order = m
        else:
            break
    return order


def numerical_rank(matrix: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of eigenvalues above tol * lambda_max for a symmetric PSD matrix."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.size and np.max(np.abs(M - M.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError("matrix is not symmetric")
    w = np.linalg.eigvalsh(M)
    lmax = float(w[-1]) if w.size else 0.0
    if lmax <= 0.0:
        return 0
    return int(np.sum(w > tol * lmax))


@dataclass(frozen=True)
class ExcitationReport:
    """Rank certificate of a sample window: spectrum, excited basis, and the
    smallest retained eigenvalue alpha_hat."""

    rank: int
    singular_values: np.ndarray  # descending
    alpha_hat: float
    basis: np.ndarray  # orthonormal columns spanning the excited subspace


class GramWindow:
    """Incrementally maintained sum of outer products over a sliding window.

    Capacity is window_len plus an n-sample slack prefix; evicted samples are
    subtracted so ``accum`` always equals the sum over the retained window.
    """

    def __init__(self, n: int, window_len: int, slack: int | None = None):
        if n < 1 or window_len < 1:
            raise ValueError("dimension and window length must be positive")
        self.n = int(n)
        self.window_len = int(window_len)
        self.slack = self.n if slack is None else int(slack)
        self.capacity = self.window_len + self.slack
        self.samples: deque[np.ndarray] = deque()
        self.accum = np.zeros((self.n, self.n))

    def __len__(self) -> int:
        return len(self.samples)

    def push(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"sample must have shape ({self.n},), got {x.shape}")
        if len(self.samples) == self.capacity:
            old = self.samples.popleft()
            self.accum -= np.outer(old, old)
        self.samples.append(x.copy())
        self.accum += np.outer(x, x)

    def recompute(self) -> np.ndarray:
        """Gram rebuilt from the retained samples (drift check)."""
        G = np.zeros((self.n, self.n))
        for x in self.samples:
            G += np.outer(x, x)
        return G

    def report(self, tol: float = DEFAULT_RANK_TOL) -> ExcitationReport:
        return subspace_basis(self, tol)


def subspace_basis(window, tol: float = DEFAULT_RANK_TOL) -> ExcitationReport:
    """Orthonormal basis of the dominant eigenspace of a window Gram."""
    if isinstance(window, GramWindow):
        if len(window) == 0:
            raise ValueError("empty window")
        G = window.accum
    else:
        G = np.asarray(window, dtype=float)
        if G.size == 0:
            raise ValueError("empty window")
    G = 0.5 * (G + G.T)  # symmetrize accumulated rounding
    w, V = np.linalg.eigh(G)
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
    rank = numerical_rank(G, tol)
    alpha_hat = float(w[rank - 1]) if rank > 0 else 0.0
    return ExcitationReport(
        rank=rank,
        singular_values=np.clip(w, 0.0, None),
        alpha_hat=alpha_hat,
        basis=V[:, :rank].copy(),
    )


def orthogonality_residual(theta_err: np.ndarray, window) -> float:
    """max over the window of |Phi . theta_err| / (1 + |Phi|).

    Zero exactly when the parameter error is orthogonal to every regressor in
    the window.
    """
    e = np.asarray(theta_err, dtype=float)
    rows = [np.asarray(x, dtype=float) for x in window]
    if not rows:
        return 0.0
    worst = 0.0
    for x in rows:
        if x.shape != e.shape:
            raise ValueError("regressor and parameter-error dimensions disagree")
        r = abs(float(np.dot(x, e))) / (1.0 + float(np.linalg.norm(x)))
        worst = max(worst, r)
    return worst

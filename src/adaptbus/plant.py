"""Discrete-time plant models, bounded signal histories, and impulse-train
disturbances.

The plant is y(k) = -sum_l a_l y(k-l) + b0 u(k-d) + sum_l b_l u(k-l-d) + D(k-d),
stepped one sample at a time by ``step_difference``; ``PlantModel.predictor``
gives its d-step prediction form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import DIVERGENCE_LIMIT
from .shiftpoly import ShiftPoly, predictor_coeffs, solve_diophantine, unstable_zeros, zeros_strictly_inside


class PlantDivergenceError(RuntimeError):
    """A simulated output left the finite range; boundedness is violated."""

    def __init__(self, k: int, value: float):
        super().__init__(f"plant output diverged at sample {k}: y = {value!r}")
        self.k = k
        self.value = value


@dataclass(frozen=True)
class PlantModel:
    """Plant coefficients a (feedback) and b (input, b[0] != 0).

    The numerator zeros must lie strictly inside the unit disk so the plant
    inverse is stable; construction rejects anything else, naming the
    offending root.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("plant coefficient vectors must be one-dimensional")
        if b.shape[0] < 1 or b[0] == 0.0:
            raise ValueError("b must be non-empty with b[0] != 0")
        bp = ShiftPoly(b)
        if not zeros_strictly_inside(bp):
            bad = unstable_zeros(bp)
            raise ValueError(
                "plant zeros must lie strictly inside the unit disk "
                f"(minimum-phase requirement); offending root(s): "
                + ", ".join(f"{z:.6g} (|z|={abs(z):.6g})" for z in bad)
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m1(self) -> int:
        return int(self.a.shape[0])

    @property
    def m2(self) -> int:
        return int(self.b.shape[0]) - 1

    def a_poly(self) -> ShiftPoly:
        return ShiftPoly(np.concatenate([[1.0], self.a]))

    def b_poly(self) -> ShiftPoly:
        return ShiftPoly(self.b)

    def predictor(self, d: int) -> tuple[ShiftPoly, ShiftPoly, ShiftPoly]:
        """(alpha, beta, F) of the d-step prediction form."""
        F, _ = solve_diophantine(self.a_poly(), d)
        alpha, beta = predictor_coeffs(self.a_poly(), self.b_poly(), d)
        return alpha, beta, F

    def true_theta(self, d: int) -> np.ndarray:
        """Stacked true parameter vector for delay d: (alpha..., beta_1.., beta_0)."""
        alpha, beta, _ = self.predictor(d)
        al = np.zeros(self.m1)
        al[: len(alpha.coeffs)] = alpha.asarray()[: self.m1]
        be = beta.asarray()
        theta = np.concatenate([al, be[1:], [be[0]]])
        return theta


class SignalHistory:
    """Ring-buffered y/u past with the sample index, sized for the largest delay.

    After construction, ``y_lag(i)`` is y(k-i) and ``u_lag(j)`` is u(k-j) for
    j >= 1; ``advance(u_k, y_next)`` appends the applied input and the next
    output, moving k forward by one.
    """

    def __init__(self, m1: int, m2: int, d_max: int, y_init=(), u_init=()):
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        self.m1 = int(m1)
        self.m2 = int(m2)
        self.d_max = int(d_max)
        self._ny = max(self.m1, 1)
        self._nu = max(self.m2 + self.d_max, 1)
        self._y = np.zeros(self._ny)
        self._u = np.zeros(self._nu)
        self._yh = 0  # index of y(k)
        self._uh = 0  # index of u(k-1)
        y_init = np.asarray(y_init, dtype=float)
        u_init = np.asarray(u_init, dtype=float)
        if y_init.size > self._ny or u_init.size > self._nu:
            raise ValueError("initial condition vectors exceed the history depth")
        for i, v in enumerate(y_init):  # y(-i)
            self._y[(self._yh - i) % self._ny] = v
        for i, v in enumerate(u_init):  # u(-1-i)
            self._u[(self._uh - i) % self._nu] = v
        self.k = 0

    def y_lag(self, i: int) -> float:
        if not 0 <= i < self._ny:
            raise IndexError(f"y lag {i} outside history depth {self._ny}")
        return float(self._y[(self._yh - i) % self._ny])

    def u_lag(self, j: int) -> float:
        if not 1 <= j <= self._nu:
            raise IndexError(f"u lag {j} outside history depth {self._nu}")
        return float(self._u[(self._uh - (j - 1)) % self._nu])

    def y_window(self, n: int) -> np.ndarray:
        """[y(k), y(k-1), ..., y(k-n+1)]"""
        return np.array([self.y_lag(i) for i in range(n)])

    def u_window(self, n: int) -> np.ndarray:
        """[u(k-1), u(k-2), ..., u(k-n)]"""
        return np.array([self.u_lag(j) for j in range(1, n + 1)])

    def advance(self, u_k: float, y_next: float) -> None:
        self._uh = (self._uh + 1) % self._nu
        self._u[self._uh] = u_k
        self._yh = (self._yh + 1) % self._ny
        self._y[self._yh] = y_next
        self.k += 1


@dataclass(frozen=True)
class DisturbanceTrain:
    """Sparse impulse train with a minimum inter-arrival gap t_dw."""

    times: np.ndarray
    amplitudes: np.ndarray
    t_dw: int
    _lookup: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=int)
        amp = np.asarray(self.amplitudes, dtype=float)
        if t.shape != amp.shape:
            raise ValueError("times and amplitudes must have matching lengths")
        if t.size and np.any(np.diff(t) < self.t_dw):
            gaps = np.diff(t)
            bad = int(np.argmax(gaps < self.t_dw))
            raise ValueError(
                f"impulse gap {gaps[bad]} at times {t[bad]}->{t[bad + 1]} "
                f"violates the minimum dwell gap {self.t_dw}"
            )
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("impulse times must be strictly increasing")
        if not np.all(np.isfinite(amp)):
            raise ValueError("impulse amplitudes must be finite")
        t.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "_lookup", {int(k): float(v) for k, v in zip(t, amp)})

    def value(self, k: int) -> float:
        return self._lookup.get(int(k), 0.0)

    def dense(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        for k, v in zip(self.times, self.amplitudes):
            if 0 <= k < length:
                out[k] = v
        return out

    @classmethod
    def empty(cls) -> "DisturbanceTrain":
        return cls(times=np.array([], dtype=int), amplitudes=np.array([]), t_dw=1)


def make_impulse_train(t_dw, horizon, amplitudes=1.0, times=None, rng=None) -> DisturbanceTrain:
    """Build an impulse train, explicit or seeded-random.

    Explicit ``times`` are validated against the gap invariant.  Otherwise
    impulses are placed with the first time uniform in [0, t_dw) and gaps
    uniform in [t_dw, 2*t_dw), which is reproducible under a seeded ``rng``.
    """
    t_dw = int(t_dw)
    if t_dw < 1:
        raise ValueError("t_dw must be >= 1")
    if times is None:
        if rng is None:
            raise ValueError("random generation needs an rng")
        times = []
        t = int(rng.integers(0, t_dw))
        while t < horizon:
            times.append(t)
            t += int(rng.integers(t_dw, 2 * t_dw))
    times = np.asarray(times, dtype=int)
    amps = np.asarray(amplitudes, dtype=float)
    if amps.ndim == 0:
        amps = np.full(times.shape, float(amps))
    return DisturbanceTrain(times=times, amplitudes=amps, t_dw=t_dw)


def step_difference(model: PlantModel, history: SignalHistory, u_k: float,
                    train: DisturbanceTrain | None = None, d: int = 1) -> float:
    """Advance the plant one sample with applied input u_k; returns y(k+1).

    The disturbance enters delayed through the input channel: the step that
    produces y(k+1) reads D(k+1-d).
    """
    m1, m2 = model.m1, model.m2
    if history.m1 < m1 or history._nu < m2 + d - 1:
        raise ValueError("signal history too shallow for this plant and delay")
    k_next = history.k + 1
    acc = 0.0
    for l in range(1, m1 + 1):
        acc -= model.a[l - 1] * history.y_lag(l - 1)
    for l in range(0, m2 + 1):
        lag = d + l - 1  # u(k+1-d-l) is u_k when the lag is zero
        acc += model.b[l] * (u_k if lag == 0 else history.u_lag(lag))
    if train is not None:
        acc += train.value(k_next - d)
    if not np.isfinite(acc) or abs(acc) > DIVERGENCE_LIMIT:
        raise PlantDivergenceError(k_next, acc)
    history.advance(u_k, acc)
    return acc

"""Switching adaptive controller: dual estimates (one per bus mode), the
switching-instant reset/hold rules, the per-sample reference loop
(``AppSupervisor``) of the switching kernels ``kernels.adaptive_loop`` runs,
and the per-sample monitor definitions (common Lyapunov value, equivalent
reference, ideal reference models).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import adapt, kernels
from .adapt import ParameterEstimate
from .harness import SIM_FIELDS
from .netbus import Mode, SwitchLog, select_mode
from .plant import (
    DisturbanceTrain,
    PlantModel,
    SignalHistory,
    step_difference,
)


@dataclass
class DualEstimates:
    """theta1 drives the TT (d=1) controller, theta2 the ET (d=d2) controller.

    theta2_memory holds theta2 as it stood at the end of the previous ET
    phase; hold_counter counts the remaining post-re-entry samples during
    which theta2 updates are suppressed.
    """

    theta1: ParameterEstimate
    theta2: ParameterEstimate
    theta2_memory: np.ndarray
    hold_counter: int = 0

    def __post_init__(self):
        if self.theta1.theta.shape[0] == self.theta2.theta.shape[0]:
            raise ValueError("theta1 and theta2 must have distinct dimensions (d2 > 1)")
        if self.theta2_memory.shape != self.theta2.theta.shape:
            raise ValueError("theta2_memory must match theta2's dimension")

    @classmethod
    def create(cls, m1: int, m2: int, d2: int, gamma1: float = 0.5, gamma2: float = 0.5,
               beta0_init: float = 1.0):
        t1 = ParameterEstimate.create(m1, m2, 1, gamma1, beta0_init)
        t2 = ParameterEstimate.create(m1, m2, d2, gamma2, beta0_init)
        return cls(theta1=t1, theta2=t2, theta2_memory=t2.theta.copy(), hold_counter=0)


def apply_reset(duals: DualEstimates, p: int, direction: str, m2: int, d2: int) -> DualEstimates:
    """Apply the switching-instant estimate selection for switch number p.

    Entries into TT (even p, including the initial p=0) zero theta1 and
    snapshot theta2 into memory.  The first entry into ET (p=1) zeros theta2;
    later entries (p=3,5,...) pin theta2 to the stored end-of-previous-phase
    value and suppress its updates for the next m2+d2-1 samples.
    """
    if direction == "ET->TT":
        if p % 2 != 0:
            raise ValueError(f"ET->TT switches carry even indices, got p={p}")
        duals.theta2_memory = duals.theta2.theta.copy()
        duals.theta1 = ParameterEstimate.zero(duals.theta1.theta.shape[0], duals.theta1.gamma)
        duals.hold_counter = 0
    elif direction == "TT->ET":
        if p % 2 != 1:
            raise ValueError(f"TT->ET switches carry odd indices, got p={p}")
        if p == 1:
            duals.theta2 = ParameterEstimate.zero(duals.theta2.theta.shape[0], duals.theta2.gamma)
            duals.hold_counter = 0
        else:
            duals.theta2 = ParameterEstimate(theta=duals.theta2_memory.copy(), gamma=duals.theta2.gamma)
            duals.hold_counter = m2 + d2 - 1
    else:
        raise ValueError(f"unknown switch direction {direction!r}")
    return duals


def _pad(v: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[: v.shape[0]] = v
    return out


def lyapunov(duals: DualEstimates, theta_star_1: np.ndarray, theta_star_2: np.ndarray,
             mode: Mode, v_prev: float | None = None) -> tuple[float, float]:
    """Common Lyapunov value V = |theta*_a - theta_a|^2 for the active mode.

    In TT mode both vectors are zero-padded to the ET dimension (monitor-only
    construction); dV is V - v_prev, 0.0 when no previous value is given.
    """
    M2 = theta_star_2.shape[0]
    if mode == Mode.TT:
        diff = _pad(theta_star_1, M2) - _pad(duals.theta1.theta, M2)
    else:
        diff = np.asarray(theta_star_2, dtype=float) - duals.theta2.theta
    V = float(np.dot(diff, diff))
    dV = 0.0 if v_prev is None else V - float(v_prev)
    return V, dV


class DisturbanceInverseFilter:
    """Runs D through the inverse plant A/B as a difference equation.

    Stable exactly when the plant is minimum phase; the plant constructor
    already enforces that, and it is re-checked here.
    """

    def __init__(self, model: PlantModel):
        from .shiftpoly import zeros_strictly_inside

        if not zeros_strictly_inside(model.b_poly()):
            raise ValueError("inverse filter requires a minimum-phase plant")
        self._a = model.a
        self._b = model.b
        self._din = deque([0.0] * model.m1, maxlen=max(model.m1, 1))
        self._dout = deque([0.0] * model.m2, maxlen=max(model.m2, 1))

    def step(self, d_k: float) -> float:
        acc = float(d_k)
        for l in range(1, self._a.shape[0] + 1):
            acc += self._a[l - 1] * self._din[l - 1]
        for l in range(1, self._b.shape[0]):
            acc -= self._b[l] * self._dout[l - 1]
        out = acc / self._b[0]
        if self._a.shape[0]:
            self._din.appendleft(float(d_k))
        if self._b.shape[0] > 1:
            self._dout.appendleft(out)
        return out


def equivalent_reference(yref_k: float, d_k: float, filt: DisturbanceInverseFilter) -> float:
    """y'ref(k) = yref(k) + D'(k) with D' the inverse-plant-filtered disturbance."""
    return float(yref_k) + filt.step(d_k)


class ReferenceModel:
    """Ideal closed loop at a fixed delay: the true plant, disturbance-free,
    from the loop's initial conditions, driven by the equivalent reference
    through the exact-parameter control law.  Its regressor is the reference
    trajectory the adaptive loop should converge to; the first element
    tracks the equivalent reference.
    """

    def __init__(self, model: PlantModel, d: int, y_init=(), u_init=()):
        self.model = model
        self.d = int(d)
        self.theta_star = model.true_theta(self.d)
        # inputs older than u(-m2-d) never reach this loop; the history holds m2 + d
        self.history = SignalHistory(model.m1, model.m2, d_max=self.d, y_init=y_init,
                                     u_init=tuple(u_init)[: max(model.m2 + self.d, 1)])
        self.M = self.theta_star.shape[0]

    def regressor(self) -> np.ndarray:
        """phi*(k) from the model's own history (without the current input)."""
        m1, m2 = self.model.m1, self.model.m2
        return np.concatenate([
            self.history.y_window(m1),
            self.history.u_window(m2 + self.d - 1),
        ])

    def step(self, yref_prime_ahead: float) -> np.ndarray:
        """Advance one sample driven by y'ref(k+d); returns Phi*(k)."""
        phi = self.regressor()
        u_star = float(kernels.control_output(self.theta_star, phi, float(yref_prime_ahead)))
        Phi = np.concatenate([phi, [u_star]])
        step_difference(self.model, self.history, u_star, None, d=self.d)
        return Phi


def signal_error(phi: np.ndarray, phi_star: np.ndarray) -> float:
    """Euclidean distance between the loop regressor and the model regressor."""
    phi = np.asarray(phi, dtype=float)
    phi_star = np.asarray(phi_star, dtype=float)
    if phi.shape != phi_star.shape:
        raise ValueError(f"regressor dimensions disagree: {phi.shape} vs {phi_star.shape}")
    return float(np.linalg.norm(phi - phi_star))


class AppSupervisor:
    """One application's switching loop, one sample at a time: mode selection
    feeds the bus, the per-mode controller runs update-then-control,
    switching instants trigger the reset/hold rules, and the plant is stepped
    with the active mode's delay: the per-sample reference of the switching
    kernels that ``kernels.adaptive_loop`` generates.  Over T = len(yref) - d2
    samples it records each estimate after sample k, reset included, at row k
    of ``theta1_hist``/``theta2_hist`` and the regressor of time t (pre-start
    ones too) at row t + 1 / t + d2 of ``Phi1_hist``/``Phi2_hist``.
    """

    def __init__(self, app_id, model: PlantModel, d2: int, eth: float, yref: np.ndarray,
                 train: DisturbanceTrain | None = None, gamma1: float = 0.5,
                 gamma2: float = 0.5, beta0_init: float = 1.0, y_init=(), u_init=()):
        if d2 < 2:
            raise ValueError("d2 must be >= 2")
        self.app_id = app_id
        self.model = model
        self.d2 = int(d2)
        self.eth = float(eth)
        self.yref = np.asarray(yref, dtype=float)
        self.train = train if train is not None else DisturbanceTrain.empty()
        m1, m2 = model.m1, model.m2
        self.history = SignalHistory(m1, m2, d_max=self.d2, y_init=y_init, u_init=u_init)
        self.duals = DualEstimates.create(m1, m2, self.d2, gamma1, gamma2, beta0_init)
        self.M1 = self.duals.theta1.theta.shape[0]
        self.M2 = self.duals.theta2.theta.shape[0]
        self.mode = Mode.TT  # initial TT entry (p = 0)
        self.p = 0
        self.switch_log = SwitchLog()
        self.access_counts: dict = {}
        T = max(self.yref.shape[0] - self.d2, 0)
        self.Phi1_hist = np.zeros((T + 1, self.M1))
        self.Phi2_hist = np.zeros((T + self.d2, self.M2))
        self.theta1_hist = np.zeros((T, self.M1))
        self.theta2_hist = np.zeros((T, self.M2))
        self._seed_prestart_regressors(y_init, u_init)
        self._mode_next = self.mode
        self._e_k = 0.0
        self.rows: dict[str, list] = {name: [] for name in SIM_FIELDS}

    @property
    def theta_norm_hist(self) -> np.ndarray:
        """max(|theta1|, |theta2|) after each completed sample."""
        n = len(self.rows["k"])
        return np.maximum(np.linalg.norm(self.theta1_hist[:n], axis=1),
                          np.linalg.norm(self.theta2_hist[:n], axis=1))

    # -- pre-start regressors -------------------------------------------------

    def _seed_prestart_regressors(self, y_init, u_init) -> None:
        m1, m2, d2 = self.model.m1, self.model.m2, self.d2
        ys = np.zeros(m1 + d2)  # ys[i] = y(-i)
        us = np.zeros(m2 + 2 * d2)  # us[i] = u(-1-i)
        ys[:len(y_init)] = y_init
        us[:len(u_init)] = u_init
        for d, hist in ((1, self.Phi1_hist), (d2, self.Phi2_hist)):
            for t in range(-d, 0):
                hist[t + d] = np.concatenate([ys[-t: -t + m1], us[-t: -t + m2 + d - 1], [us[-t - 1]]])

    def _phi_at(self, mode: Mode, t: int) -> np.ndarray:
        if mode == Mode.TT:
            return self.Phi1_hist[t + 1]
        return self.Phi2_hist[t + self.d2]

    # -- per-sample phases ----------------------------------------------------

    def sense(self, k: int) -> Mode:
        """Read y(k), pick the next sample's mode from e(k); returns the mode
        governing this sample's transmission."""
        y_k = self.history.y_lag(0)
        self._e_k = adapt.tracking_error(y_k, self.yref[k])
        self._mode_next = select_mode(self._e_k, self.eth)
        return self.mode

    def supervise_step(self, k: int) -> dict:
        """Update-then-control in the active mode, apply any pending switch
        reset, record the estimates, and step the plant with this sample's
        delay.  Returns the sample's row of simulation columns."""
        mode = self.mode
        d = 1 if mode == Mode.TT else self.d2
        m1, m2 = self.model.m1, self.model.m2
        y_k = self.history.y_lag(0)

        est = self.duals.theta1 if mode == Mode.TT else self.duals.theta2
        Phi_lag = self._phi_at(mode, k - d)
        # the update is suppressed on hold samples and at the switch sample
        # itself: the sample that triggers a switch carries the disturbance
        # (or transition transient) in its regression, and folding it into the
        # estimate would poison the stored end-of-phase value that re-entries
        # rely on; a just-reset estimate (zero divisor) must still bootstrap
        switching = self._mode_next != mode and abs(est.theta[-1]) >= kernels.ZERO_FLOOR
        held = mode == Mode.ET and self.duals.hold_counter > 0
        if held or switching:
            eps = y_k - float(kernels.dot(est.theta, Phi_lag))
            if held:
                self.duals.hold_counter -= 1
        else:
            est, eps = adapt.update(est, Phi_lag, y_k)
            if mode == Mode.TT:
                self.duals.theta1 = est
            else:
                self.duals.theta2 = est
            self._bump(mode, "update")

        # Phi1(k) and Phi2(k) share y(k)..y(k-m1+1) and start with the same inputs
        Phi1 = self.Phi1_hist[k + 1]
        Phi2 = self.Phi2_hist[k + self.d2]
        Phi1[:m1] = Phi2[:m1] = self.history.y_window(m1)
        Phi2[m1:-1] = self.history.u_window(m2 + self.d2 - 1)
        Phi1[m1:-1] = Phi2[m1:m1 + m2]
        phi_active = Phi1[:-1] if mode == Mode.TT else Phi2[:-1]
        u_k = adapt.control_law(est, phi_active, self.yref[k + d])
        self._bump(mode, "control")
        Phi1[-1] = Phi2[-1] = u_k

        switch_code = 0
        if self._mode_next != mode:
            self.p += 1
            direction = "TT->ET" if mode == Mode.TT else "ET->TT"
            self.switch_log.record(k, direction, self.p)
            apply_reset(self.duals, self.p, direction, m2, self.d2)
            switch_code = 1 if direction == "TT->ET" else 2
            self.mode = self._mode_next
        # a reset only touches the inactive estimate, so the active row is est
        self.theta1_hist[k] = self.duals.theta1.theta
        self.theta2_hist[k] = self.duals.theta2.theta

        step_difference(self.model, self.history, u_k, self.train, d=d)

        row = self._monitor_row(k, mode, d, y_k, u_k, eps, switch_code)
        for name in SIM_FIELDS:
            self.rows[name].append(row[name])
        return row

    def _bump(self, mode: Mode, op: str) -> None:
        which = "theta1" if mode == Mode.TT else "theta2"
        key = (mode.value, which, op)
        self.access_counts[key] = self.access_counts.get(key, 0) + 1

    def _monitor_row(self, k, mode, d, y_k, u_k, eps, switch_code) -> dict:
        """The simulation columns of sample k."""
        return {
            "app": self.app_id,
            "k": k,
            "mode": mode.value,
            "y": float(y_k),
            "yref": float(self.yref[k]),
            "e": self._e_k,
            "u": float(u_k),
            "delay": int(d),
            "eps": float(eps),
            "switch": int(switch_code),
            "dist": float(self.train.value(k)),
        }


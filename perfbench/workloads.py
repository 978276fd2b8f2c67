"""Scenario batches for the three benchmark workloads, generated from a seed.

Each generator returns a list of raw scenario dictionaries in the format
``adaptbus.harness.parse_config`` accepts; the program under test receives
only these.  The same seed always gives the same batch.  Why each workload
exists, and what sizing found, is written down in ``NOTES.md``.
"""

from __future__ import annotations

import math

import numpy as np

# the bundled second-order plant of configs/fixed_*.json
SECOND_ORDER = {"a": [-1.1, 0.3], "b": [1.2, 0.36], "h": 0.01}

FIXED_APPS = 2
FIXED_HORIZON = 5000

ORACLE_SCENARIOS = 2
ORACLE_APPS = 3
ORACLE_HORIZON = 2000

FLEET_APPS = 24
FLEET_HORIZON = 1500

D2 = 3
ETH = 0.05
T_DW = 500
GAIN_RANGE = (0.1, 0.3)
# the initial divisor estimate is drawn independently of the gains, from a
# range above them: see NOTES.md for the abort that an estimate near the
# true gain triggers
BETA0_RANGE = (0.4, 0.6)


def _impulse_times(rng, horizon: int) -> list[int]:
    """Dwell-gapped impulse times: first in [300, 800), gaps in [T_DW, 2 T_DW),
    all early enough that the d2-sample response fits in the horizon."""
    times = []
    t = int(rng.integers(300, 800))
    while t < horizon - 2 * D2:
        times.append(t)
        t += int(rng.integers(T_DW, 2 * T_DW))
    return times


def _gain_plant(rng, horizon: int, oracle: bool, b0: float | None = None) -> dict:
    return {
        "a": [],
        "b": [float(rng.uniform(*GAIN_RANGE)) if b0 is None else b0],
        "h": 0.01,
        "oracle": oracle,
        "disturbance": {
            "times": _impulse_times(rng, horizon),
            "amplitudes": float(rng.uniform(0.5, 1.5)),
            "t_dw": T_DW,
        },
    }


def _switching(name: str, seed: int, horizon: int, plants: list, beta0: float,
               level: float, minislots: int | None = None) -> dict:
    protocol = {"kind": "switching", "d2": D2, "eth": ETH}
    if minislots is not None:
        protocol["minislots_per_cycle"] = minislots
    return {
        "name": name,
        "horizon": horizon,
        "seed": seed,
        "protocol": protocol,
        "plants": plants,
        "reference": {"type": "constant", "level": level},
        "disturbance": None,
        "gammas": [0.5, 0.5],
        "beta0_init": beta0,
    }


def fixed_batch(seed: int) -> list[dict]:
    """Fixed protocol at d = 1, 2, 3 on the bundled second-order plant, one
    random sinusoid per batch and a random phase offset per app."""
    rng = np.random.default_rng([seed, 1])
    omega = float(rng.uniform(0.2, 0.6))
    amplitude = float(rng.uniform(0.5, 1.5))
    out = []
    for d in (1, 2, 3):
        plants = [dict(SECOND_ORDER, phase_offset=float(rng.uniform(0.0, 2 * math.pi)))
                  for _ in range(FIXED_APPS)]
        out.append({
            "name": f"fixed_batch d={d}",
            "horizon": FIXED_HORIZON,
            "seed": seed,
            "protocol": {"kind": "fixed", "d": d},
            "plants": plants,
            "reference": {"type": "sinusoid",
                          "components": [{"amplitude": amplitude, "omega": omega, "phase": 0.0}]},
            "disturbance": None,
            "gammas": [0.5, 0.5],
            "beta0_init": 1.0,
        })
    return out


def switching_oracle(seed: int) -> list[dict]:
    """Switching protocol with the monitors on: a few gain plants per
    scenario, plus a one-app probe whose estimate starts at its true gain."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for s in range(ORACLE_SCENARIOS):
        plants = [_gain_plant(rng, ORACLE_HORIZON, True) for _ in range(ORACLE_APPS)]
        out.append(_switching(f"switching_oracle {s}", seed, ORACLE_HORIZON, plants,
                              beta0=float(rng.uniform(*BETA0_RANGE)),
                              level=float(rng.uniform(1.0, 3.0))))
    b0 = float(rng.uniform(*GAIN_RANGE))
    probe = _gain_plant(rng, ORACLE_HORIZON, True, b0=b0)
    out.append(_switching("switching_oracle probe: beta0_init equals the gain", seed,
                          ORACLE_HORIZON, [probe], beta0=b0, level=float(rng.uniform(1.0, 3.0))))
    return out


def switching_fleet(seed: int) -> list[dict]:
    """One scenario of many gain plants with the monitors off and one
    minislot per app, so the dynamic segment is full once all sit in ET."""
    rng = np.random.default_rng([seed, 3])
    plants = [_gain_plant(rng, FLEET_HORIZON, False) for _ in range(FLEET_APPS)]
    return [_switching("switching_fleet", seed, FLEET_HORIZON, plants,
                       beta0=float(rng.uniform(*BETA0_RANGE)),
                       level=float(rng.uniform(1.0, 3.0)), minislots=FLEET_APPS)]


WORKLOADS = {
    "fixed_batch": fixed_batch,
    "switching_oracle": switching_oracle,
    "switching_fleet": switching_fleet,
}

"""Built-in reference generators.

Analytic generators provide arbitrary lookahead, which the delayed control
laws need.  Sums of k distinct sinusoids are rich of order 2k; a nonzero
constant is rich of order 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ReferenceGenerator:
    """A reference as one whole-run ``sequence(n, phase_offset)``: yref(0..n-1)."""

    declared_sr_order: int | None = None

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class Constant(ReferenceGenerator):
    level: float

    def __post_init__(self):
        self.declared_sr_order = 1 if self.level != 0.0 else 0

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        return np.full(n, self.level, dtype=float)


@dataclass
class SinusoidSum(ReferenceGenerator):
    """sum_i amplitude_i * sin(omega_i * k + phase_i), omega in rad/sample."""

    components: tuple  # of (amplitude, omega, phase)

    def __post_init__(self):
        if not self.components:
            raise ValueError("sinusoid reference needs at least one component")
        omegas = [omega for _, omega, _ in self.components]
        for omega in omegas:
            if not 0.0 < omega < np.pi:
                raise ValueError(f"sinusoid frequency must lie in (0, pi) rad/sample, got {omega}")
        if len(set(omegas)) != len(omegas):
            raise ValueError("sinusoid components must have distinct frequencies")
        self.declared_sr_order = 2 * len(self.components)

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        k = np.arange(n)
        out = np.zeros(n)
        for a, w, p in self.components:
            out += a * np.sin(w * k + p + phase_offset)
        return out


@dataclass
class Square(ReferenceGenerator):
    amplitude: float
    period: int
    duty: float

    def __post_init__(self):
        if self.period < 2:
            raise ValueError("square-wave period must be >= 2 samples")
        self.declared_sr_order = None  # period-dependent; declare explicitly if needed

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        # phase_offset in radians of the fundamental, as SinusoidSum takes it:
        # the wave is advanced by phase_offset / (2 pi) periods
        pos = np.remainder(np.arange(n) + phase_offset / (2 * np.pi) * self.period, self.period)
        return np.where(pos < self.duty * self.period, float(self.amplitude), float(-self.amplitude))


@dataclass
class Tabulated(ReferenceGenerator):
    """Reference read from an explicit sample table; must cover the horizon
    plus the largest delay's lookahead."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("tabulated reference must be a non-empty vector")
        self.declared_sr_order = None

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        if n > self.values.shape[0]:
            raise IndexError(
                f"tabulated reference exhausted at sample {self.values.shape[0]}; supply horizon + d2 values"
            )
        return self.values[:n].copy()

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
    level: float = 1.0

    def __post_init__(self):
        self.declared_sr_order = 1 if self.level != 0.0 else 0

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        return np.full(n, float(self.level))


@dataclass
class SinusoidSum(ReferenceGenerator):
    """sum_i amplitude_i * sin(omega_i * k + phase_i), omega in rad/sample."""

    components: tuple  # of (amplitude, omega, phase)

    def __post_init__(self):
        comps = []
        for i, c in enumerate(self.components):
            if isinstance(c, dict):
                comps.append((float(c["amplitude"]), float(c["omega"]), float(c.get("phase", 0.0))))
            else:
                amp, omega, *rest = c
                if len(rest) > 1:
                    raise ValueError(f"components[{i}] has {len(c)} values; the list is [amplitude, omega, phase]")
                comps.append((float(amp), float(omega), float(rest[0]) if rest else 0.0))
        if not comps:
            raise ValueError("sinusoid reference needs at least one component")
        for _, omega, _ in comps:
            if not 0.0 < omega < np.pi:
                raise ValueError(f"sinusoid frequency must lie in (0, pi) rad/sample, got {omega}")
        omegas = [c[1] for c in comps]
        if len(set(omegas)) != len(omegas):
            raise ValueError("sinusoid components must have distinct frequencies")
        self.components = tuple(comps)
        self.declared_sr_order = 2 * len(comps)

    def sequence(self, n: int, phase_offset: float = 0.0) -> np.ndarray:
        k = np.arange(n)
        out = np.zeros(n)
        for a, w, p in self.components:
            out += a * np.sin(w * k + p + phase_offset)
        return out


@dataclass
class Square(ReferenceGenerator):
    amplitude: float = 1.0
    period: int = 100
    duty: float = 0.5

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


def from_spec(spec: dict) -> ReferenceGenerator:
    """Build a generator from its configuration dictionary."""
    kind = spec.get("type")
    if kind == "constant":
        gen = Constant(level=float(spec.get("level", 1.0)))
    elif kind == "sinusoid":
        gen = SinusoidSum(components=tuple(spec["components"]))
    elif kind == "square":
        gen = Square(
            amplitude=float(spec.get("amplitude", 1.0)),
            period=int(spec.get("period", 100)),
            duty=float(spec.get("duty", 0.5)),
        )
    elif kind == "file":
        if "values" in spec:
            vals = spec["values"]
        else:
            vals = np.loadtxt(spec["path"])
        gen = Tabulated(values=np.asarray(vals, dtype=float))
    else:
        raise ValueError(f"unknown reference type {kind!r}")
    if "sr_order" in spec and spec["sr_order"] is not None:
        gen.declared_sr_order = int(spec["sr_order"])
    return gen

"""Programmable-communicating-thermostat logic on the quantized measurement grid.

The thermostat measures temperature with integer resolution R over a range of
twice the deadband, centered on the setpoint: grid index m in [0, R] maps to

    theta(m) = theta_s - deadband * (1 - 2m/R)

so m = 0 is theta_s - deadband, m = R/2 is the setpoint, m = R is
theta_s + deadband. The hysteresis switching boundaries sit a quarter of the
grid (deadband/2 in temperature) on either side of the broadcast set-point
index m_s, and the set-point offset itself is limited to R/8 index units
(deadband/4). R must be a multiple of 8 so both offsets are exact integers.

quantize rounds temperatures to their nearest indices, the inverse of theta(m);
it and hysteresis_update take numpy arrays with one entry per unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ThermostatConfig", "quantize", "hysteresis_update"]


@dataclass(frozen=True)
class ThermostatConfig:
    """Group-wide setpoint (degC), deadband (degC) and grid resolution.

    The derived grid constants (grid_step, switch_offset, ms_min, ms_max) are
    computed once per config and then read as plain attributes, because the
    interval loop reads them thousands of times per run.
    """

    setpoint: float = 20.0
    deadband: float = 1.0
    resolution: int = 1000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.setpoint) and math.isfinite(self.deadband)):
            raise ValueError("setpoint and deadband must be finite")
        if self.deadband <= 0.0:
            raise ValueError(f"deadband must be > 0, got {self.deadband!r}")
        if self.resolution < 8 or self.resolution % 8 != 0:
            raise ValueError(
                f"resolution must be >= 8 and divisible by 8, got {self.resolution}"
            )
        if not 0.0 < self.grid_step < math.inf:  # 2 * deadband overflows past 8.99e307
            raise ValueError(f"deadband {self.deadband!r} gives grid step {self.grid_step!r} "
                             f"at resolution {self.resolution}, not in (0, inf)")

    @cached_property
    def grid_step(self) -> float:
        """Temperature increment per index unit (degC): 2*deadband / R."""
        return 2.0 * self.deadband / self.resolution

    @cached_property
    def switch_offset(self) -> int:
        """Index distance from the set-point index to a switching boundary (R/4)."""
        return self.resolution // 4

    @cached_property
    def ms_min(self) -> int:
        """Lowest admissible set-point index (3R/8), i.e. offset -deadband/4."""
        return 3 * self.resolution // 8

    @cached_property
    def ms_max(self) -> int:
        """Highest admissible set-point index (5R/8), i.e. offset +deadband/4."""
        return 5 * self.resolution // 8


def quantize(theta_a, cfg: ThermostatConfig, out=None, work=None):
    """Map an array of temperatures to their nearest grid indices, clamped to [0, R].

    Rounding is half away from zero (symmetric about the setpoint);
    out-of-range temperatures saturate at the grid ends. out (int64) receives
    the indices and work (float64) holds the arithmetic; each may be a buffer
    shaped like theta_a, and by default a new array is used.
    """
    x = np.subtract(theta_a, cfg.setpoint, dtype=float, out=work)
    x += cfg.deadband
    x /= cfg.grid_step
    # clipped to [0, R], x + 0.5 truncates to its floor: half away from zero for x >= 0,
    # and every x < 0 gives 0. ndarray.clip is what np.clip calls, minus its dispatch
    x += 0.5
    x.clip(0.0, cfg.resolution, out=x)
    m = np.empty(x.shape, np.int64) if out is None else out
    np.copyto(m, x, casting="unsafe")  # x.astype(np.int64), truncating, into m
    return m


def hysteresis_update(n, m, m_s: int, cfg: ThermostatConfig):
    """Heating-mode deadband switch evaluated on the measurement grid.

    Switch on at or below m_s - R/4, off at or above m_s + R/4, hold in
    between. Boundary equality switches. m_s must lie in the admissible
    interval [3R/8, 5R/8].
    """
    if not cfg.ms_min <= m_s <= cfg.ms_max:
        raise ValueError(
            f"set-point index {m_s} outside admissible [{cfg.ms_min}, {cfg.ms_max}]"
        )
    lower = m_s - cfg.switch_offset
    upper = m_s + cfg.switch_offset
    return ((m <= lower) | ((m < upper) & (n != 0))).view(np.int8)

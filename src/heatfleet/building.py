"""First-order equivalent-thermal-parameter model of one building + heat pump.

A single lumped capacitance C sees the outdoor temperature through a
resistance R_th; an active heat pump injects cop * P_h of heat. The indoor
air temperature therefore relaxes exponentially toward an equilibrium

    theta_eq = theta_outdoor + n * cop * P_h * R_th

with time constant tau = C * R_th. One sampling interval is integrated with
the exact exponential solution, so the step is unconditionally stable for
any dt. Switching of the machine state n is owned by the thermostat module;
nothing here ever changes n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BuildingParams",
    "BuildingState",
    "step_thermal",
    "electrical_power",
    "thermal_constants",
    "thermal_step",
    "duty_cycle",
]


@dataclass(frozen=True)
class BuildingParams:
    """Per-unit thermal and electrical parameters.

    capacitance: kWh/degC, resistance: degC/kW, rated_power: kW electrical,
    cop: dimensionless, setpoint/deadband: degC.
    """

    capacitance: float
    resistance: float
    rated_power: float
    cop: float
    setpoint: float = 20.0
    deadband: float = 1.0

    def __post_init__(self) -> None:
        for name in ("capacitance", "resistance", "rated_power", "cop", "deadband"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not math.isfinite(self.setpoint):
            raise ValueError(f"setpoint must be finite, got {self.setpoint!r}")
        gain = self.cop * self.rated_power * self.resistance
        if gain <= self.deadband:
            raise ValueError(
                "steady heating gain cop*rated_power*resistance "
                f"({gain:.3f} degC) must exceed the deadband ({self.deadband} degC); "
                "the unit could never cycle"
            )

    @property
    def time_constant(self) -> float:
        """Thermal time constant C*R_th in hours."""
        return self.capacitance * self.resistance

    @property
    def heating_gain(self) -> float:
        """Indoor-outdoor temperature lift at steady state with the pump on (degC)."""
        return self.cop * self.rated_power * self.resistance


@dataclass
class BuildingState:
    """Continuous indoor air temperature (degC) and binary machine state."""

    indoor_temp: float
    machine_state: int = 0

    def __post_init__(self) -> None:
        if self.machine_state not in (0, 1):
            raise ValueError(f"machine_state must be 0 or 1, got {self.machine_state!r}")


def thermal_constants(capacitance, resistance, rated_power, cop, dt):
    """Run constants of the exact step: decay exp(-dt/(C*R_th)) and lift cop*P_h*R_th,
    the equilibrium rise with the pump on. Scalars or aligned arrays."""
    return np.exp(-dt / (capacitance * resistance)), cop * rated_power * resistance


def thermal_step(theta_a, machine_state, decay, lift, outdoor_temp, noise=0.0):
    """Exact-exponential one-interval update; works on scalars or aligned arrays.

    decay and lift come from thermal_constants. Returns the new indoor
    temperature(s); machine_state (0 or 1) is read, never written. noise in
    degC is added after the deterministic step.
    """
    theta_eq = outdoor_temp + machine_state * lift
    return theta_eq + (theta_a - theta_eq) * decay + noise


def step_thermal(state: BuildingState, params: BuildingParams, outdoor_temp: float,
                 dt: float, process_noise: float = 0.0) -> float:
    """Advance one unit's indoor temperature by dt hours; returns the new theta_a."""
    for name, value in (("outdoor_temp", outdoor_temp), ("dt", dt),
                        ("process_noise", process_noise),
                        ("indoor_temp", state.indoor_temp)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    decay, lift = thermal_constants(params.capacitance, params.resistance,
                                    params.rated_power, params.cop, dt)
    return float(thermal_step(state.indoor_temp, state.machine_state, decay, lift,
                              outdoor_temp, process_noise))


def electrical_power(state: BuildingState, params: BuildingParams) -> float:
    """Instantaneous electrical draw: rated power when active, zero otherwise."""
    return state.machine_state * params.rated_power


def duty_cycle(params: BuildingParams, outdoor_temp: float) -> float:
    """Steady-state fraction of time the pump is on at the given outdoor temperature.

    Computed from the exact exponential trajectories between the switching
    boundaries setpoint +- deadband/2 (zero offset). A unit whose off-state
    equilibrium sits above the switch-on boundary never heats (duty 0); a
    unit that cannot push past the switch-off boundary never rests (duty 1).
    """
    lo = params.setpoint - params.deadband / 2.0
    hi = params.setpoint + params.deadband / 2.0
    eq_off = outdoor_temp
    eq_on = outdoor_temp + params.heating_gain
    if eq_off >= lo:
        return 0.0
    if eq_on <= hi:
        return 1.0
    tau = params.time_constant
    t_on = tau * math.log((eq_on - lo) / (eq_on - hi))
    t_off = tau * math.log((hi - eq_off) / (lo - eq_off))
    return t_on / (t_on + t_off)

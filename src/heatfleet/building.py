"""First-order equivalent-thermal-parameter model of a fleet of buildings + heat pumps.

Each unit is a single lumped capacitance C that sees the outdoor temperature
through a resistance R_th; an active heat pump injects cop * P_h of heat. The
indoor air temperature therefore relaxes exponentially toward an equilibrium

    theta_eq = theta_outdoor + n * cop * P_h * R_th

with time constant tau = C * R_th. One sampling interval is integrated with
the exact exponential solution, so the step is unconditionally stable for
any dt. Every function works on aligned per-unit arrays. Switching of the
machine state n is owned by the thermostat module; nothing here ever
changes n.
"""

from __future__ import annotations

import numpy as np

from .thermostat import ThermostatConfig

__all__ = ["thermal_constants", "thermal_step", "duty_cycle"]


def thermal_constants(capacitance, resistance, rated_power, cop, dt):
    """Run constants of the exact step: decay exp(-dt/(C*R_th)) and lift cop*P_h*R_th,
    the equilibrium rise with the pump on. Scalars or aligned arrays."""
    return np.exp(-dt / (capacitance * resistance)), cop * rated_power * resistance


def thermal_step(theta_a, machine_state, decay, lift, outdoor_temp, noise=0.0, out=None,
                 work=None):
    """Exact-exponential one-interval update; works on scalars or aligned arrays.

    decay and lift come from thermal_constants. Returns the new indoor
    temperature(s); machine_state (0 or 1) is read, never written. noise in
    degC is added after the deterministic step. out receives the result and
    may be theta_a itself; work (float64) holds the equilibria and may not
    overlap theta_a or out. By default each is a new array.
    """
    theta_eq = np.multiply(machine_state, lift, out=work)
    theta_eq += outdoor_temp
    t = np.subtract(theta_a, theta_eq, out=out)
    t *= decay
    t += theta_eq
    t += noise
    return t


def duty_cycle(capacitance, resistance, rated_power, cop, cfg: ThermostatConfig,
               outdoor_temp: float) -> np.ndarray:
    """Steady-state fraction of time each pump is on at the given outdoor temperature.

    Computed from the exact exponential trajectories between the switching
    boundaries setpoint +- deadband/2 (zero offset). A unit whose off-state
    equilibrium sits at or above the switch-on boundary never heats (duty 0);
    a unit that cannot push past the switch-off boundary never rests (duty 1).
    """
    lo = cfg.setpoint - cfg.deadband / 2.0
    hi = cfg.setpoint + cfg.deadband / 2.0
    duty = np.empty(capacitance.size)
    if outdoor_temp >= lo:
        # off-state equilibrium already inside or above the band: no heating
        duty[:] = 0.0
        return duty
    tau = capacitance * resistance
    eq_on = outdoor_temp + cop * rated_power * resistance
    always_on = eq_on <= hi
    duty[always_on] = 1.0
    cyc = ~always_on
    t_on = tau[cyc] * np.log((eq_on[cyc] - lo) / (eq_on[cyc] - hi))
    t_off = tau[cyc] * np.log((hi - outdoor_temp) / (lo - outdoor_temp))
    duty[cyc] = t_on / (t_on + t_off)
    return duty

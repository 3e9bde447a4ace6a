"""Aggregate control of thermostatically controlled heat pumps under comfort constraints.

A fleet of building/heat-pump models reports quantized power-state vectors
to a central aggregator each interval; the aggregator builds power density
distribution functions, enumerates the feasible capacity-factor region under
a quarter-deadband set-point limit, and broadcasts the common offset that
tracks a target load, including a wind-power regulation scenario.
"""

__version__ = "0.1.0"

from .aggregator import (
    build_pddf_from_arrays,
    cff,
    feasible_region,
    select_setpoint,
)
from .engine import PopulationSpec, SimulationClock, run_simulation
from .scenarios import ScenarioInputs, TrackingScenario
from .thermostat import hysteresis_update, quantize

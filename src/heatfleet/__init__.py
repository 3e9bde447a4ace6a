"""Aggregate control of thermostatically controlled heat pumps under comfort constraints.

A fleet of building/heat-pump models reports quantized power-state vectors
to a central aggregator each interval; the aggregator builds power density
distribution functions, enumerates the feasible capacity-factor region under
a quarter-deadband set-point limit, and broadcasts the common offset that
tracks a target load, including a wind-power regulation scenario.
"""

__version__ = "0.1.0"

from .aggregator import (
    ControlDecision,
    FeasibleRegion,
    PowerDensityPair,
    build_pddf_from_arrays,
    capacity_factor,
    cff,
    feasible_region,
    max_cff_increment,
    select_setpoint,
    verify_boundary_condition,
)
from .building import duty_cycle
from .config import RunConfig, load_config
from .engine import (
    ParameterDist,
    Population,
    PopulationSpec,
    ScenarioSeries,
    Simulation,
    SimulationClock,
    generate_population,
    run_simulation,
)
from .errors import ConfigError, EngineError, HeatfleetError, SeriesError
from .scenarios import (
    NominalLoadModel,
    SaturationScenario,
    ScenarioInputs,
    SyntheticWeather,
    TrackingScenario,
    TurbineModel,
    WindScenario,
    power_gradient_density,
    turbine_power,
    wind_target,
)
from .thermostat import ThermostatConfig, hysteresis_update, measurement_temperature, quantize

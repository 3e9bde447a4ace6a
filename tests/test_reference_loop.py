"""The engine against the naive reference loop: every column of a whole run, bit for bit."""

import numpy as np
from hypothesis import given, settings, strategies as st

from heatfleet.engine import ParameterDist, PopulationSpec, SimulationClock, run_simulation
from heatfleet.scenarios import SaturationScenario, TrackingScenario, WindScenario
from heatfleet.thermostat import ThermostatConfig
from reference_loop import run_reference

FLEETS = {
    "constant": dict(capacitance=ParameterDist.constant(2.5),
                     resistance=ParameterDist.constant(2.0),
                     rated_power=ParameterDist.constant(4.0)),
    "uniform": dict(capacitance=ParameterDist.uniform(1.5, 3.5),
                    resistance=ParameterDist.uniform(1.6, 2.4),
                    rated_power=ParameterDist.uniform(3.0, 5.0)),
    "lognormal": {},  # the PopulationSpec defaults
}


@st.composite
def runs(draw):
    """A short run of up to 300 units on a grid R in {8, ..., 64, 1000}, under
    tracking (both steady-level paths), saturation or synthetic-weather wind."""
    burn_in = draw(st.integers(2, 10))
    scenario = draw(st.sampled_from([
        TrackingScenario(burn_in=burn_in),
        TrackingScenario(burn_in=burn_in, phi_steady=0.4),
        SaturationScenario(burn_in=burn_in),
        WindScenario(burn_in=burn_in, start_hour=draw(st.floats(0.0, 23.5))),
    ]))
    spec = PopulationSpec(
        count=draw(st.sampled_from([300, 120, 1]) | st.integers(1, 300)),
        thermostat=ThermostatConfig(resolution=draw(st.sampled_from([8, 16, 24, 32, 40, 48,
                                                                    56, 64, 1000]))),
        process_noise_sd=draw(st.sampled_from([0.0, 0.01, 0.2])),
        seed=draw(st.integers(0, 2**32 - 1)),
        **FLEETS[draw(st.sampled_from(sorted(FLEETS)))],
    )
    # hypothesis favours small integers: most horizons run well past the burn-in
    horizon = draw(st.sampled_from([40, 30, burn_in + 1, 1, 0]))
    return spec, scenario, SimulationClock(draw(st.sampled_from([1.0, 5.0])), horizon)


@settings(max_examples=200, deadline=None)
@given(runs())
def test_engine_matches_reference_loop(run):
    spec, scenario, clock = run
    series = run_simulation(spec, scenario, clock)
    reference = run_reference(spec, scenario, clock)
    assert set(reference) == {name for name, value in vars(series).items()
                              if isinstance(value, np.ndarray)} - {"k"}
    for name, column in reference.items():
        engine = getattr(series, name)
        assert column.astype(engine.dtype).tobytes() == engine.tobytes(), name

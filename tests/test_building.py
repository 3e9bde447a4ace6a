"""Thermal model tests: exact step vs a brute-force ODE oracle, plus invariants."""

import numpy as np
import pytest

from heatfleet.building import duty_cycle, thermal_constants, thermal_step
from heatfleet.engine import (
    ParameterDist,
    PopulationSpec,
    Simulation,
    SimulationClock,
    generate_population,
)
from heatfleet.errors import ConfigError
from heatfleet.scenarios import TrackingScenario
from heatfleet.thermostat import ThermostatConfig

# capacitance (kWh/degC), resistance (degC/kW), rated power (kW), cop of one unit
PARAMS = (10.0, 2.0, 4.0, 3.5)
HEATING_GAIN = 3.5 * 4.0 * 2.0  # cop * rated power * resistance, degC
CFG = ThermostatConfig(setpoint=20.0, deadband=1.0)


def step(theta, n, params, outdoor, dt):
    """One exact step of one unit (or of aligned arrays of units)."""
    decay, lift = thermal_constants(*params, dt)
    return thermal_step(theta, n, decay, lift, outdoor)


def unit_duty(params, outdoor):
    """duty_cycle of a single unit."""
    return float(duty_cycle(*(np.array([v]) for v in params), CFG, outdoor)[0])


def euler_oracle(theta, n, params, outdoor, dt, substeps=10_000):
    """Explicit-integration reference: many small forward-Euler steps."""
    capacitance, resistance, rated_power, cop = params
    eq = outdoor + n * cop * rated_power * resistance
    tau = capacitance * resistance
    h = dt / substeps
    x = theta
    for _ in range(substeps):
        x += (eq - x) / tau * h
    return x


def rk4_oracle(theta, n, params, outdoor, dt, substeps=200):
    """Fourth-order explicit integration; truncation error far below 1e-12."""
    capacitance, resistance, rated_power, cop = params
    eq = outdoor + n * cop * rated_power * resistance
    tau = capacitance * resistance
    h = dt / substeps

    def f(x):
        return (eq - x) / tau

    x = theta
    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return x


def test_off_state_fixed_point():
    theta = 4.0
    for _ in range(50):
        theta = step(theta, 0, PARAMS, 4.0, 1.0 / 60.0)
    assert theta == 4.0


def test_continuity_for_vanishing_dt():
    new = step(20.0, 1, PARAMS, 4.0, 1e-9)
    assert abs(new - 20.0) < 1e-6


def test_on_state_converges_to_equilibrium():
    eq = 4.0 + HEATING_GAIN
    theta = 20.0
    gaps = []
    for _ in range(2000):
        theta = step(theta, 1, PARAMS, 4.0, 0.5)
        gaps.append(eq - theta)
    gaps = np.array(gaps)
    assert gaps[-1] == pytest.approx(0.0, abs=1e-6)
    meaningful = gaps[:-1] > 1e-12
    assert (np.diff(gaps)[meaningful] < 0).all()  # monotone approach


def test_one_step_matches_ode_oracle():
    stepped = step(20.0, 1, PARAMS, 4.0, 1.0 / 60.0)
    # frozen from the 1e4-substep explicit-integration oracle
    assert stepped == pytest.approx(20.0099958344905, abs=1e-12)
    assert abs(stepped - euler_oracle(20.0, 1, PARAMS, 4.0, 1.0 / 60.0)) < 1e-9


def test_oracle_equivalence_random_parameters():
    rng = np.random.default_rng(42)
    size = 25
    params = (rng.uniform(1.0, 15.0, size), rng.uniform(0.5, 4.0, size),
              rng.uniform(3.0, 6.0, size), rng.uniform(2.0, 5.0, size))
    n = rng.integers(0, 2, size)
    theta = rng.uniform(15.0, 25.0, size)
    outdoor = rng.uniform(-10.0, 15.0, size)
    # the whole fleet in one aligned-array step
    stepped = step(theta, n, params, outdoor, 1.0 / 60.0)
    for i in range(size):
        unit = tuple(float(p[i]) for p in params)
        oracle = rk4_oracle(float(theta[i]), int(n[i]), unit, float(outdoor[i]), 1.0 / 60.0)
        assert abs(stepped[i] - oracle) < 1e-12


def test_contraction_toward_equilibrium():
    rng = np.random.default_rng(7)
    eq = 4.0 + HEATING_GAIN
    for _ in range(50):
        theta = float(rng.uniform(0.0, 40.0))
        dt = float(rng.uniform(1e-4, 5.0))
        new = step(theta, 1, PARAMS, 4.0, dt)
        if theta != eq:
            assert abs(new - eq) < abs(theta - eq)


def _one_interval(pop):
    sim = Simulation(pop, TrackingScenario(burn_in=10**9), SimulationClock(1.0, 1),
                     noise_seed=1, scenario_seed=2)
    sim.run_interval()
    return sim.series()


def test_electrical_power():
    # the recorded heat-pump load is the rated power of exactly the units that are on
    pop = generate_population(PopulationSpec(count=60, seed=3))
    series = _one_interval(pop)
    assert 0 < pop.machine_state.sum() < len(pop)
    on_kw = pop.rated_power[pop.machine_state == 1].sum()
    assert series.heatpump_kw[0] == pytest.approx(on_kw, rel=1e-12)


def test_population_power_sums_to_capacity_when_all_on():
    pop = generate_population(PopulationSpec(count=100, seed=3))
    pop.indoor_temp[:] = 10.0  # below the grid: every unit switches on
    series = _one_interval(pop)
    assert (pop.machine_state == 1).all()
    assert series.heatpump_kw[0] == pytest.approx(pop.rated_power.sum(), rel=1e-12)


def test_parameter_invariants_rejected():
    def fleet(capacitance=2.5, resistance=2.0, rated_power=4.0, cop=3.5):
        # the design outdoor temperature needs a lift of only 0.1 degC, so the
        # heating gain is held to the deadband alone
        return generate_population(PopulationSpec(
            count=5, capacitance=ParameterDist.constant(capacitance),
            resistance=ParameterDist.constant(resistance),
            rated_power=ParameterDist.constant(rated_power),
            cop=ParameterDist.constant(cop), thermostat=CFG, initial_outdoor_temp=20.9))

    with pytest.raises(ConfigError, match="resampling"):
        fleet(capacitance=-1.0)
    with pytest.raises(ConfigError, match="resampling"):
        fleet(cop=0.0)
    with pytest.raises(ConfigError, match="resampling"):
        # gain 0.7 degC below the 1 degC deadband: the unit could never cycle
        fleet(resistance=0.1, rated_power=2.0)
    assert len(fleet(resistance=0.2, rated_power=2.0)) == 5  # gain 1.4 degC


def test_duty_cycle_limits():
    # off-state equilibrium inside the band: never heats
    assert unit_duty(PARAMS, 25.0) == 0.0
    # cold enough that the pump cannot push past the upper boundary: never rests
    assert unit_duty(PARAMS, -10.0) == 1.0
    mid = unit_duty(PARAMS, 4.0)
    assert 0.0 < mid < 1.0


def test_duty_cycle_matches_simulated_fraction():
    params = (2.5, 2.0, 4.0, 3.5)
    predicted = unit_duty(params, 4.0)
    # simulate the deadband cycle with a fine step and no measurement grid
    theta, n = 20.0, 1
    dt = 1.0 / 600.0
    decay, lift = thermal_constants(*params, dt)
    decay, lift = float(decay), float(lift)
    on_time = total = 0.0
    for _ in range(200_000):
        theta = thermal_step(theta, n, decay, lift, 4.0)
        if theta <= 19.5:
            n = 1
        elif theta >= 20.5:
            n = 0
        total += dt
        on_time += n * dt
    assert on_time / total == pytest.approx(predicted, abs=0.02)

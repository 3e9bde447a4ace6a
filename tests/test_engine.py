"""Engine tests: population generation, interval protocol, determinism."""

import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatfleet.aggregator import PowerDensityPair, build_pddf_from_arrays, capacity_factor
from heatfleet.engine import (
    ParameterDist,
    PopulationSpec,
    ScenarioSeries,
    SimulationClock,
    Simulation,
    generate_population,
    run_simulation,
)
from heatfleet.errors import ConfigError, EngineError
from heatfleet.scenarios import TrackingScenario
from heatfleet.thermostat import ThermostatConfig, quantize


def degenerate_spec(count=1, seed=0, **overrides):
    defaults = dict(
        count=count,
        capacitance=ParameterDist.constant(2.5),
        resistance=ParameterDist.constant(2.0),
        rated_power=ParameterDist.constant(4.0),
        cop=ParameterDist.constant(3.5),
        thermostat=ThermostatConfig(20.0, 1.0, 1000),
        initial_outdoor_temp=4.0,
        process_noise_sd=0.0,
        seed=seed,
    )
    defaults.update(overrides)
    return PopulationSpec(**defaults)


class FixedTargetScenario(TrackingScenario):
    """Test policy: never request a target, so the engine steers to the
    zero-offset prediction (no-op control)."""

    def phi_target(self, sim, phi_now, region):
        return None


class FeasibleFractionScenario(TrackingScenario):
    """Test policy: a random but always-feasible target each interval."""

    def phi_target(self, sim, phi_now, region):
        frac = float(sim.rng_scenario.uniform(0.0, 1.0))
        return region.phi_min + frac * (region.phi_max - region.phi_min)


class ExplodingScenario(TrackingScenario):
    def phi_target(self, sim, phi_now, region):
        if sim.k == 3:
            raise RuntimeError("scenario blew up")
        return None


class TestParameterDist:
    def test_constant(self):
        rng = np.random.default_rng(1)
        assert (ParameterDist.constant(2.5).sample(rng, 10) == 2.5).all()

    def test_uniform_bounds(self):
        rng = np.random.default_rng(2)
        x = ParameterDist.uniform(3.0, 5.0).sample(rng, 10_000)
        assert x.min() >= 3.0 and x.max() <= 5.0
        assert x.mean() == pytest.approx(4.0, abs=0.05)

    def test_lognormal_moments(self):
        rng = np.random.default_rng(3)
        x = ParameterDist.lognormal(2.5, 0.5).sample(rng, 200_000)
        assert x.mean() == pytest.approx(2.5, rel=0.01)
        assert np.std(x) == pytest.approx(0.5, rel=0.02)
        assert (x > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterDist(kind="beta")
        with pytest.raises(ValueError):
            ParameterDist.uniform(5.0, 3.0)
        with pytest.raises(ValueError):
            ParameterDist.lognormal(-1.0, 0.5)

    @pytest.mark.parametrize("kind, args", [
        ("constant", (math.nan,)),
        ("constant", (math.inf,)),
        ("uniform", (3.0, math.inf)),
        ("uniform", (-math.inf, 5.0)),
        ("lognormal", (math.nan, 0.5)),
        ("lognormal", (math.inf, 0.5)),
        ("lognormal", (2.5, math.nan)),
    ])
    def test_nonfinite_parameters_rejected(self, kind, args):
        # accepted, they exhausted the resampling rounds with a misleading error
        with pytest.raises(ValueError, match="parameters must be finite"):
            getattr(ParameterDist, kind)(*args)


@pytest.mark.parametrize("sd", [math.nan, math.inf])
def test_nonfinite_process_noise_sd_rejected(sd):
    # NaN used to run without noise (nan > 0.0 is false), inf to fail at interval 0
    with pytest.raises(ValueError, match="process_noise_sd must be finite"):
        PopulationSpec(process_noise_sd=sd)


class TestGeneratePopulation:
    def test_same_seed_identical(self):
        spec = PopulationSpec(count=200, seed=99)
        a = generate_population(spec)
        b = generate_population(spec)
        for name in ("capacitance", "resistance", "rated_power", "cop",
                     "indoor_temp", "machine_state"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_degenerate_distributions_give_nominals(self):
        pop = generate_population(degenerate_spec())
        assert len(pop) == 1
        assert pop.capacitance[0] == 2.5
        assert pop.resistance[0] == 2.0
        assert pop.rated_power[0] == 4.0
        assert pop.cop[0] == 3.5

    def test_initial_states_inside_band(self):
        pop = generate_population(PopulationSpec(count=500, seed=5))
        assert (pop.indoor_temp >= 19.5).all() and (pop.indoor_temp <= 20.5).all()
        assert set(np.unique(pop.machine_state)) <= {0, 1}

    def test_adequate_sizing_invariant(self):
        pop = generate_population(PopulationSpec(count=2000, seed=6))
        gain = pop.cop * pop.rated_power * pop.resistance
        # every unit can climb past the top of the measurement range at 4 degC
        assert (4.0 + gain > 21.0).all()

    def test_impossible_distribution_rejected(self):
        spec = degenerate_spec(rated_power=ParameterDist.constant(0.5))
        with pytest.raises(ConfigError, match="resampling"):
            generate_population(spec)

    def test_population_mean_duty_cycle_in_range(self):
        spec = PopulationSpec(count=300, seed=8)
        series = run_simulation(spec, TrackingScenario(burn_in=10**9),
                                SimulationClock(1.0, 360))
        duty = series.phi.mean()  # uncontrolled long free run
        assert 0.2 <= duty <= 0.8


def test_free_running_cycle_period_near_paper_anchor():
    # population-average time between switch-on events, uncontrolled, 4 degC
    spec = PopulationSpec(count=200, seed=13)
    pop = generate_population(spec)
    clock = SimulationClock(1.0, 480)
    scenario = TrackingScenario(burn_in=10**9)
    sim = Simulation(pop, scenario, clock, noise_seed=1, scenario_seed=2)
    on_events = [[] for _ in range(len(pop))]
    prev = pop.machine_state.copy()
    for k in range(clock.horizon):
        sim.run_interval()
        turned_on = (pop.machine_state == 1) & (prev == 0)
        for i in np.nonzero(turned_on)[0]:
            on_events[int(i)].append(k)
        prev = pop.machine_state.copy()
    periods = []
    for events in on_events:
        if len(events) >= 2:
            periods.extend(np.diff(events))
    mean_period = float(np.mean(periods))
    assert 25.0 <= mean_period <= 65.0


class TestRunInterval:
    def test_noop_control_keeps_natural_cycle(self):
        spec = degenerate_spec()
        pop = generate_population(spec)
        clock = SimulationClock(1.0, 300)
        sim = Simulation(pop, FixedTargetScenario(), clock,
                         noise_seed=3, scenario_seed=4)
        states = []
        for k in range(clock.horizon):
            sim.run_interval()
            assert sim.columns["u"][k] == 0.0
            states.append(int(pop.machine_state[0]))
        # the single unit must actually cycle under zero offset
        assert 0 < sum(states) < len(states)
        flips = np.abs(np.diff(states)).sum()
        assert flips >= 4

    def test_frozen_dynamics_prediction_exact(self):
        spec = degenerate_spec(count=400, seed=21,
                               capacitance=ParameterDist.lognormal(2.5, 0.5),
                               rated_power=ParameterDist.uniform(3.0, 5.0))
        pop = generate_population(spec)
        clock = SimulationClock(1e-9, 50)  # dt effectively zero
        sim = Simulation(pop, FeasibleFractionScenario(burn_in=0), clock,
                         noise_seed=5, scenario_seed=6)
        for k in range(clock.horizon):
            sim.run_interval()
            assert abs(sim.columns["phi"][k] - sim.columns["phi_predicted"][k]) <= 1e-12

    def test_scenario_error_carries_interval_index(self):
        spec = degenerate_spec(count=20, seed=33)
        with pytest.raises(EngineError, match="interval 3"):
            run_simulation(spec, ExplodingScenario(), SimulationClock(1.0, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_temperature_fails_at_the_thermal_step(self, bad):
        pop = generate_population(PopulationSpec(count=50, seed=34))
        sim = Simulation(pop, TrackingScenario(burn_in=0), SimulationClock(1.0, 10),
                         noise_seed=3, scenario_seed=4)
        for _ in range(3):
            sim.run_interval()
        pop.indoor_temp[[7, 31]] = bad
        # raised before quantize, whose int cast would warn on a NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EngineError, match=r"^interval 3: indoor temperature of unit 7 "):
                sim.run()


def test_interval_allocates_less_than_three_fleet_arrays():
    # with the per-run workspace the thermal step and quantize allocate no
    # fleet-sized arrays; without it an interval peaks at about 4.5 x 8N bytes
    n = 100_000
    pop = generate_population(PopulationSpec(count=n, seed=61))
    sim = Simulation(pop, TrackingScenario(burn_in=2), SimulationClock(1.0, 4),
                     noise_seed=3, scenario_seed=4)
    for _ in range(3):
        sim.run_interval()
    tracemalloc.start()
    try:
        sim.run_interval()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n


def test_run_updates_temperatures_in_place_and_pairs_own_their_arrays():
    pop = generate_population(PopulationSpec(count=300, seed=62))
    temperatures = pop.indoor_temp
    pairs = []
    sim = Simulation(pop, FeasibleFractionScenario(burn_in=0), SimulationClock(1.0, 12),
                     noise_seed=3, scenario_seed=4,
                     diagnostic_sink=lambda k, pddf, decision: pairs.append(
                         (pddf, pddf.phi0.copy(), pddf.phi1.copy())))
    sim.run()
    assert pop.indoor_temp is temperatures
    buffers = [value for value in [*vars(sim).values(), *vars(pop).values()]
               if isinstance(value, np.ndarray)]
    for pddf, phi0, phi1 in pairs:
        assert pddf.phi0.tobytes() == phi0.tobytes()
        assert pddf.phi1.tobytes() == phi1.tobytes()
        assert not any(np.shares_memory(pddf.phi0.base, buffer) for buffer in buffers)


class TestRunSimulation:
    def test_zero_horizon_empty_series(self):
        series = run_simulation(degenerate_spec(), TrackingScenario(),
                                SimulationClock(1.0, 0))
        assert len(series) == 0
        assert series.summary()["intervals"] == 0

    def test_determinism_bit_identical(self):
        spec = PopulationSpec(count=150, seed=51)
        clock = SimulationClock(1.0, 200)
        a = run_simulation(spec, TrackingScenario(burn_in=50), clock)
        b = run_simulation(spec, TrackingScenario(burn_in=50), clock)
        for name in ("phi", "phi_target", "u", "total_kw", "mean_theta",
                     "phi_min", "phi_max"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("phi_steady", [None, 0.45])
    def test_tracking_scenario_instance_reruns_identically(self, phi_steady):
        spec = PopulationSpec(count=100, seed=56)
        clock = SimulationClock(1.0, 120)
        scenario = TrackingScenario(burn_in=20, phi_steady=phi_steady)
        first = run_simulation(spec, scenario, clock)
        second = run_simulation(spec, scenario, clock)
        fresh = run_simulation(spec, TrackingScenario(burn_in=20, phi_steady=phi_steady),
                               clock)
        assert np.array_equal(first.phi_target, second.phi_target)
        assert np.array_equal(second.phi_target, fresh.phi_target)
        assert np.array_equal(second.phi, fresh.phi)

    @pytest.mark.parametrize("phi_steady", [None, 0.45])
    def test_one_tracking_scenario_runs_interleaved_as_solo(self, phi_steady):
        # two runs of one scenario object, the second built 30 intervals into the
        # first and then stepped turn about, each record what it records alone
        scenario = TrackingScenario(burn_in=10, phi_steady=phi_steady)
        clock = SimulationClock(1.0, 60)

        def simulation(seed):
            return Simulation(generate_population(PopulationSpec(count=200, seed=seed)),
                              scenario, clock, noise_seed=seed + 1, scenario_seed=seed + 2)

        solo = [simulation(5).run(), simulation(6).run()]
        first = simulation(5)
        for _ in range(30):
            first.run_interval()
        second = simulation(6)
        while second.k < clock.horizon:
            if first.k < clock.horizon:
                first.run_interval()
            second.run_interval()
        for alone, interleaved in zip(solo, (first.series(), second.series())):
            for f in dataclasses.fields(ScenarioSeries):
                assert np.array_equal(getattr(alone, f.name), getattr(interleaved, f.name)), \
                    f.name

    def test_total_load_identity_every_interval(self):
        spec = PopulationSpec(count=100, seed=52)
        series = run_simulation(spec, TrackingScenario(burn_in=20),
                                SimulationClock(1.0, 100))
        recomputed = series.nominal_kw + series.heatpump_kw - series.wind_kw
        assert np.array_equal(series.total_kw, recomputed)

    def test_exactness_every_interval(self):
        spec = PopulationSpec(count=250, seed=53)
        series = run_simulation(spec, TrackingScenario(burn_in=30),
                                SimulationClock(1.0, 150))
        assert np.max(np.abs(series.phi - series.phi_predicted)) <= 1e-12

    def test_comfort_and_cycling_invariants(self):
        spec = PopulationSpec(count=250, seed=54)
        series = run_simulation(spec, TrackingScenario(burn_in=30),
                                SimulationClock(1.0, 300))
        assert (series.min_theta >= 20.0 - 1.0 - 0.1).all()
        assert (series.max_theta <= 20.0 + 1.0 + 0.1).all()
        assert abs(series.mean_theta.mean() - 20.0) < 0.5
        s = series.summary()
        assert s["rapid_cycle_fraction"] < 0.001

    def test_control_bound_every_interval(self):
        spec = PopulationSpec(count=100, seed=55)
        series = run_simulation(spec, TrackingScenario(burn_in=10),
                                SimulationClock(1.0, 80))
        assert (np.abs(series.u) <= 0.25).all()
        assert (series.ms_star >= 375).all() and (series.ms_star <= 625).all()


def test_array_dataclasses_compare_by_identity():
    # a field-wise == would ask an array for its truth value and raise
    phi = np.linspace(0.0, 1.0, 9)
    spec = degenerate_spec(count=4, process_noise_sd=0.01)
    clock = SimulationClock(1.0, 3)
    pairs = [
        (PowerDensityPair(phi, phi, 0.25),
         PowerDensityPair(phi.copy(), phi.copy(), 0.25)),
        (generate_population(spec), generate_population(spec)),
        (run_simulation(spec, TrackingScenario(), clock),
         run_simulation(spec, TrackingScenario(), clock)),
    ]
    for a, b in pairs:
        assert (a == b) is False and (a != b) is True
        assert a == a and b == b
        assert len({a, b, a}) == 2


def test_report_arrays_equal_quantized_state():
    pop = generate_population(PopulationSpec(count=40, seed=78))
    m = quantize(pop.indoor_temp, pop.thermostat)
    pddf = build_pddf_from_arrays(pop.machine_state, m, pop.rated_power,
                                  pop.thermostat)
    direct = (pop.machine_state * pop.rated_power).sum() / pop.installed_capacity
    assert capacity_factor(pddf) == pytest.approx(direct, abs=1e-12)


def test_clock_validation():
    with pytest.raises(ValueError):
        SimulationClock(0.0, 10)
    with pytest.raises(ValueError):
        SimulationClock(float("inf"), 10)
    with pytest.raises(ValueError):
        SimulationClock(1.0, -1)


def quantize_scalar(theta, cfg):
    """One unit's grid index: nearest, halves away from zero, clamped to [0, R]."""
    x = (theta - cfg.setpoint + cfg.deadband) / cfg.grid_step
    m = math.floor(x + 0.5) if x >= 0.0 else math.ceil(x - 0.5)
    return min(max(m, 0), cfg.resolution)


def switch_scalar(n, m, ms_star, cfg):
    """One unit's deadband rule: on at or below ms - R/4, off at or above ms + R/4."""
    if m <= ms_star - cfg.switch_offset:
        return 1
    if m >= ms_star + cfg.switch_offset:
        return 0
    return n


@st.composite
def whole_runs(draw):
    """A tracking run of up to 64 identical units, so that many units share bins."""
    cfg = ThermostatConfig(20.0, draw(st.floats(0.2, 3.0)), 8 * draw(st.integers(1, 32)))
    lo = cfg.setpoint - cfg.deadband / 2.0
    # at or above lo duty_cycle returns 0 for every unit; below it the units cycle
    outdoor = draw(st.one_of(st.floats(lo, cfg.setpoint + cfg.deadband),
                             st.floats(-5.0, lo, exclude_max=True)))
    spec = degenerate_spec(
        count=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 2**32 - 1)),
        capacitance=ParameterDist.constant(draw(st.floats(0.5, 5.0))),
        # a heating gain cop*P*R >= 3*3*3.5 = 31.5 clears the lift the spec needs
        resistance=ParameterDist.constant(draw(st.floats(3.0, 5.0))),
        rated_power=ParameterDist.constant(draw(st.floats(3.0, 5.0))),
        thermostat=cfg,
        initial_outdoor_temp=outdoor,
        process_noise_sd=draw(st.sampled_from([0.0, 0.01])),
    )
    clock = SimulationClock(draw(st.floats(0.1, 30.0)), draw(st.integers(1, 30)))
    return spec, clock


@settings(max_examples=150, deadline=None)
@given(whole_runs())
def test_whole_run_invariants(run):
    spec, clock = run
    pop = generate_population(spec)
    cfg = pop.thermostat
    sim = Simulation(pop, TrackingScenario(spec.initial_outdoor_temp, burn_in=0), clock,
                     noise_seed=1, scenario_seed=2)
    for k in range(clock.horizon):
        before = pop.machine_state.tolist()
        sim.run_interval()
        ms_star = int(sim.columns["ms_star"][k])
        expected = [switch_scalar(n, quantize_scalar(theta, cfg), ms_star, cfg)
                    for n, theta in zip(before, pop.indoor_temp.tolist())]
        assert pop.machine_state.tolist() == expected
    series = sim.series()
    identity = series.nominal_kw + series.heatpump_kw - series.wind_kw
    assert series.total_kw.tobytes() == identity.tobytes()
    assert ((series.phi >= 0.0) & (series.phi <= 1.0)).all()


# the names the README's Library section documents: the package's only re-exports
README_LIBRARY_NAMES = {
    "PopulationSpec", "TrackingScenario", "run_simulation", "SimulationClock",
    "build_pddf_from_arrays", "cff", "feasible_region", "select_setpoint",
    "quantize", "hysteresis_update", "ScenarioInputs",
}


def test_package_exports_exactly_the_readme_library_names():
    import heatfleet

    public = {name for name, value in vars(heatfleet).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == README_LIBRARY_NAMES

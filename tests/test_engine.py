"""Engine tests: population generation, interval protocol, determinism."""

import dataclasses
import inspect
import math
import os
import re
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatfleet import aggregator, engine, runner
from heatfleet.aggregator import PowerDensityPair, build_pddf_from_arrays, capacity_factor
from heatfleet.building import duty_cycle
from heatfleet.config import RunConfig
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
from heatfleet.scenarios import (
    NominalLoadModel,
    SaturationScenario,
    TrackingScenario,
    TurbineModel,
    WindScenario,
)
from heatfleet.seriesio import write_exogenous
from heatfleet.thermostat import ThermostatConfig, quantize


def degenerate_spec(count=1, seed=0, **overrides):
    defaults = dict(
        count=count,
        capacitance=ParameterDist("constant", value=2.5),
        resistance=ParameterDist("constant", value=2.0),
        rated_power=ParameterDist("constant", value=4.0),
        cop=ParameterDist("constant", value=3.5),
        thermostat=ThermostatConfig(20.0, 1.0, 1000),
        initial_outdoor_temp=4.0,
        process_noise_sd=0.0,
        seed=seed,
    )
    defaults.update(overrides)
    return PopulationSpec(**defaults)


POPULATION_ARRAYS = ("capacitance", "resistance", "rated_power", "cop",
                     "indoor_temp", "machine_state")


def generate_population_reference(spec):
    """generate_population with the whole-fleet resampling loop: each round
    re-checks all N units and assigns through a boolean mask. Returns the six
    population arrays and the number of resampling rounds."""
    rng = np.random.default_rng(engine._streams(spec.seed)[0])
    n, cfg = spec.count, spec.thermostat
    required_lift = cfg.setpoint + cfg.deadband - spec.initial_outdoor_temp
    dists = (spec.capacitance, spec.resistance, spec.rated_power, spec.cop)
    params = [dist.sample(rng, n) for dist in dists]

    def invalid(c, r, p, q):
        finite = np.isfinite(c) & np.isfinite(r) & np.isfinite(p) & np.isfinite(q)
        positive = (c > 0) & (r > 0) & (p > 0) & (q > 0)
        gain = q * p * r
        return ~(finite & positive & (gain > cfg.deadband) & (gain > required_lift))

    bad = invalid(*params)
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > engine._RESAMPLE_ROUNDS:
            raise ConfigError(
                f"population: {int(bad.sum())} parameter draws still violate the unit "
                f"invariants after {engine._RESAMPLE_ROUNDS} resampling rounds; distributions "
                "are incompatible with the thermostat deadband"
            )
        k = int(bad.sum())
        for values, dist in zip(params, dists):
            values[bad] = dist.sample(rng, k)
        bad = invalid(*params)
    theta0 = rng.uniform(cfg.setpoint - cfg.deadband / 2.0, cfg.setpoint + cfg.deadband / 2.0, n)
    duty = duty_cycle(*params, cfg, spec.initial_outdoor_temp)
    n0 = (rng.random(n) < duty).astype(np.int8)
    return (*params, theta0, n0), rounds


class FeasibleFractionScenario(TrackingScenario):
    """Test policy: a random but always-feasible target each interval."""

    def phi_target(self, sim, phi_now, region):
        frac = float(sim.rng_scenario.uniform(0.0, 1.0))
        return region.phi_min + frac * (region.phi_max - region.phi_min)


class ExplodingScenario(TrackingScenario):
    """Test policy: a feasible target each interval until interval 3 raises."""

    def phi_target(self, sim, phi_now, region):
        if sim.k == 3:
            raise RuntimeError("scenario blew up")
        return region.phi_min


class RecordingScenario(TrackingScenario):
    """Test policy: the feasible maximum, recording each interval it is asked for."""

    def phi_target(self, sim, phi_now, region):
        sim.scenario_state.setdefault("asked", []).append(sim.k)
        return region.phi_max


class TestParameterDist:
    def test_constant(self):
        rng = np.random.default_rng(1)
        assert (ParameterDist("constant", value=2.5).sample(rng, 10) == 2.5).all()

    def test_uniform_bounds(self):
        rng = np.random.default_rng(2)
        x = ParameterDist("uniform", low=3.0, high=5.0).sample(rng, 10_000)
        assert x.min() >= 3.0 and x.max() <= 5.0
        assert x.mean() == pytest.approx(4.0, abs=0.05)

    def test_lognormal_moments(self):
        rng = np.random.default_rng(3)
        x = ParameterDist("lognormal", mean=2.5, sd=0.5).sample(rng, 200_000)
        assert x.mean() == pytest.approx(2.5, rel=0.01)
        assert np.std(x) == pytest.approx(0.5, rel=0.02)
        assert (x > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterDist(kind="beta")
        with pytest.raises(ValueError):
            ParameterDist("uniform", low=5.0, high=3.0)
        with pytest.raises(ValueError):
            ParameterDist("lognormal", mean=-1.0, sd=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="uniform", low=1.0, high=2.0, sd=5.0),
         "uniform takes exactly low, high, got low, high, sd"),
        (dict(kind="lognormal", mean=2.0), "lognormal takes exactly mean, sd, got mean"),
        (dict(kind="constant"), "constant takes exactly value, got none"),
        (dict(value=2.0), "kind must be one of constant|uniform|lognormal, got None"),
    ])
    def test_exactly_its_kinds_parameters(self, kwargs, message):
        # a missing parameter used to read 0.0 and a foreign one to be ignored
        with pytest.raises(ValueError, match=re.escape(message)):
            ParameterDist(**kwargs)

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
            ParameterDist(kind, **dict(zip(ParameterDist.PARAMS[kind], args)))


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

    def test_lognormal_without_spread_is_its_mean(self):
        # sd = 0 draws nothing, so the fleet is the constant fleet bit for bit
        fleets = [generate_population(PopulationSpec(count=300, seed=8, capacitance=dist))
                  for dist in (ParameterDist("lognormal", mean=2.5, sd=0.0),
                               ParameterDist("constant", value=2.5))]
        for name in ("capacitance", "resistance", "rated_power", "cop",
                     "indoor_temp", "machine_state"):
            assert np.array_equal(getattr(fleets[0], name), getattr(fleets[1], name)), name

    def test_impossible_distribution_rejected(self):
        spec = degenerate_spec(rated_power=ParameterDist("constant", value=0.5))
        with pytest.raises(ConfigError, match="resampling"):
            generate_population(spec)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec", [
        PopulationSpec(count=2000),  # 2 rounds
        # 9 to 13 rounds
        PopulationSpec(count=2000, cop=ParameterDist("uniform", low=0.5, high=4.0)),
        PopulationSpec(count=300, rated_power=ParameterDist("lognormal", mean=3.0, sd=1.5),
                       cop=ParameterDist("uniform", low=0.5, high=4.0)),  # 15 to 20 rounds
    ])
    def test_matches_whole_fleet_resampling_bit_for_bit(self, spec, seed):
        # only the failed units are re-checked: the draws must land where the
        # whole-fleet loop puts them, in all six arrays
        spec = dataclasses.replace(spec, seed=seed)
        expected, rounds = generate_population_reference(spec)
        pop = generate_population(spec)
        for name, want in zip(POPULATION_ARRAYS, expected):
            got = getattr(pop, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert rounds >= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_exhausted_resampling_reports_the_whole_fleet_count(self, seed):
        # about 1,920 of 2,000 draws still fail after 100 rounds, a count that
        # depends on every round's draws
        spec = PopulationSpec(count=2000, seed=seed,
                              cop=ParameterDist("uniform", low=0.1, high=1.2))
        with pytest.raises(ConfigError) as want:
            generate_population_reference(spec)
        with pytest.raises(ConfigError) as got:
            generate_population(spec)
        assert str(got.value) == str(want.value)
        assert re.match(r"population: 19\d\d parameter draws", str(got.value))

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
    sim = Simulation(pop, scenario, clock, seed=1)
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
        # a burn-in as long as the run: no interval is controlled
        sim = Simulation(pop, TrackingScenario(burn_in=clock.horizon), clock, seed=3)
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
                               capacitance=ParameterDist("lognormal", mean=2.5, sd=0.5),
                               rated_power=ParameterDist("uniform", low=3.0, high=5.0))
        pop = generate_population(spec)
        clock = SimulationClock(1e-9, 50)  # dt effectively zero
        sim = Simulation(pop, FeasibleFractionScenario(burn_in=0), clock, seed=5)
        for k in range(clock.horizon):
            sim.run_interval()
            assert abs(sim.columns["phi"][k] - sim.columns["phi_predicted"][k]) <= 1e-12

    def test_scenario_error_carries_interval_index(self):
        spec = degenerate_spec(count=20, seed=33)
        with pytest.raises(EngineError, match="interval 3"):
            run_simulation(spec, ExplodingScenario(burn_in=0), SimulationClock(1.0, 10))

    @pytest.mark.parametrize("burn_in", [0, 1, 7, 12, 17])
    def test_scenario_is_asked_from_its_burn_in_on(self, burn_in):
        # a horizon of 12: a burn-in inside it, equal to it and past it
        pop = generate_population(PopulationSpec(count=50, seed=35))
        sim = Simulation(pop, RecordingScenario(burn_in=burn_in), SimulationClock(1.0, 12), seed=3)
        series = sim.run()
        assert sim.scenario_state.get("asked", []) == list(range(burn_in, 12))
        assert series.controlled.tolist() == [k >= burn_in for k in range(12)]
        # before the burn-in the engine holds the zero offset, index R/2
        assert (series.ms_star[:burn_in] == pop.thermostat.resolution // 2).all()

    def test_misprediction_fails_naming_the_interval(self, monkeypatch):
        select = aggregator.select_setpoint
        calls = []

        def mispredict_from_interval_3(pddf, target):
            calls.append(None)
            decision = select(pddf, target)
            if len(calls) <= 3:
                return decision
            return decision._replace(phi_predicted=decision.phi_predicted + 1e-6)

        monkeypatch.setattr(aggregator, "select_setpoint", mispredict_from_interval_3)
        with pytest.raises(EngineError, match=r"^interval 3: realized capacity factor .* "
                                              r"deviates from prediction"):
            run_simulation(degenerate_spec(count=20, seed=33), TrackingScenario(burn_in=0),
                           SimulationClock(1.0, 10))

    def test_nan_prediction_fails_naming_the_interval(self, monkeypatch):
        # abs(realized - nan) > 1e-9 is False: a NaN prediction passed that form
        select = aggregator.select_setpoint
        calls = []

        def nan_from_interval_3(pddf, target):
            calls.append(None)
            decision = select(pddf, target)
            return decision if len(calls) <= 3 else decision._replace(phi_predicted=math.nan)

        monkeypatch.setattr(aggregator, "select_setpoint", nan_from_interval_3)
        with pytest.raises(EngineError, match=r"^interval 3: realized capacity factor .* "
                                              r"deviates from prediction nan$"):
            run_simulation(degenerate_spec(count=20, seed=33), TrackingScenario(burn_in=0),
                           SimulationClock(1.0, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_temperature_fails_at_the_thermal_step(self, bad):
        pop = generate_population(PopulationSpec(count=50, seed=34))
        sim = Simulation(pop, TrackingScenario(burn_in=0), SimulationClock(1.0, 10), seed=3)
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
    sim = Simulation(pop, TrackingScenario(burn_in=2), SimulationClock(1.0, 4), seed=3)
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
    sim = Simulation(pop, FeasibleFractionScenario(burn_in=0), SimulationClock(1.0, 12), seed=3,
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
                              scenario, clock, seed=seed + 1)

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

    @pytest.mark.parametrize("scenario, horizon", [(TrackingScenario(burn_in=20), 80),
                                                   (WindScenario(burn_in=5), 40)])
    def test_simulation_from_the_master_seed_is_run_simulation(self, scenario, horizon):
        # Simulation spawns its noise and scenario streams from the seed it is given
        spec = PopulationSpec(count=120, seed=57)
        clock = SimulationClock(1.0, horizon)
        direct = Simulation(generate_population(spec), scenario, clock, spec.seed).run()
        via = run_simulation(spec, scenario, clock)
        for f in dataclasses.fields(ScenarioSeries):
            assert np.array_equal(getattr(direct, f.name), getattr(via, f.name)), f.name

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
        (PowerDensityPair(phi, phi, ThermostatConfig(resolution=8)),
         PowerDensityPair(phi.copy(), phi.copy(), ThermostatConfig(resolution=8))),
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
    direct = (pop.machine_state * pop.rated_power).sum() / pop.rated_power.sum()
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
        capacitance=ParameterDist("constant", value=draw(st.floats(0.5, 5.0))),
        # a heating gain cop*P*R >= 3*3*3.5 = 31.5 clears the lift the spec needs
        resistance=ParameterDist("constant", value=draw(st.floats(3.0, 5.0))),
        rated_power=ParameterDist("constant", value=draw(st.floats(3.0, 5.0))),
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
    sim = Simulation(pop, TrackingScenario(spec.initial_outdoor_temp, burn_in=0), clock, seed=1)
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


# the ScenarioSeries columns in kW; every other column is a capacity factor, a
# temperature, an index or a count
KW_COLUMNS = ("nominal_kw", "wind_kw", "heatpump_kw", "total_kw")


@st.composite
def kw_scaled_runs(draw):
    """Up to 300 units and 40 intervals under tracking, saturation or synthetic wind:
    (run, the same run with every kW quantity times s, s) for s = 2**j, |j| <= 10.
    A run is (spec, scenario, clock); the COPs are divided by s, so the heat does not change."""
    s = 2.0 ** draw(st.integers(-10, 10))
    low, cop = draw(st.floats(3.0, 6.0)), draw(st.floats(3.0, 5.0))
    high = low + draw(st.floats(0.0, 3.0))
    spec = PopulationSpec(count=draw(st.integers(1, 300)),
                          rated_power=ParameterDist("uniform", low=low, high=high),
                          cop=ParameterDist("constant", value=cop),
                          thermostat=ThermostatConfig(20.0, 1.0, 8 * draw(st.integers(1, 125))),
                          process_noise_sd=draw(st.sampled_from([0.0, 0.01, 0.3])),
                          seed=draw(st.integers(0, 2**32 - 1)))
    scaled_spec = dataclasses.replace(
        spec, rated_power=ParameterDist("uniform", low=low * s, high=high * s),
        cop=ParameterDist("constant", value=cop / s))
    burn_in = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["tracking", "saturation", "wind"]))
    if kind == "tracking":
        scenario = scaled_scenario = TrackingScenario(burn_in=burn_in)
    elif kind == "saturation":
        scenario = scaled_scenario = SaturationScenario(burn_in=burn_in)
    else:
        # a farm and a nominal load from below the fleet's capacity up to the defaults' MW
        rating, level = draw(st.floats(1.0, 2500.0)), draw(st.floats(1.0, 2500.0))
        anchors = [(hour, kw * level / 2500.0) for hour, kw in NominalLoadModel().anchors]

        def wind(scale):
            return WindScenario(
                turbine=TurbineModel(rated_power=rating * scale),
                nominal=NominalLoadModel(tuple((h, kw * scale) for h, kw in anchors),
                                         level * scale),
                burn_in=burn_in)
        scenario, scaled_scenario = wind(1.0), wind(s)
    clock = SimulationClock(1.0, draw(st.integers(0, 40)))
    return (spec, scenario, clock), (scaled_spec, scaled_scenario, clock), s


@settings(max_examples=200, deadline=None)
@given(kw_scaled_runs())
def test_power_of_two_kw_scaling_scales_exactly_the_kw_columns(runs):
    # a power of two commutes with every rounding step: only the kW outputs scale
    run, scaled_run, s = runs
    series, scaled = run_simulation(*run), run_simulation(*scaled_run)
    assert scaled.installed_capacity == series.installed_capacity * s
    for f in dataclasses.fields(ScenarioSeries):
        a, b = getattr(series, f.name), getattr(scaled, f.name)
        if isinstance(a, np.ndarray):
            a = a * s if f.name in KW_COLUMNS else a
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        elif f.name != "installed_capacity":
            assert a == b, f.name


@pytest.fixture(scope="module")
def weather_file(tmp_path_factory):
    """A 4-hour exogenous file at irregular timestamps, held onto any grid of up to 240 min."""
    rng = np.random.default_rng(5)
    t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 240.0, 300)), [240.0]))
    path = tmp_path_factory.mktemp("weather") / "exogenous_series.csv"
    write_exogenous(path, t, rng.uniform(0.0, 30.0, t.size), rng.normal(5.0, 3.0, t.size))
    return path


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(1, 300), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["tracking", "synthetic", "file"]),
       dt_minutes=st.floats(0.1, 4.0), horizon=st.integers(0, 60))
def test_scenario_inputs_do_not_depend_on_the_fleet_size(weather_file, counts, seed, kind,
                                                         dt_minutes, horizon):
    # the scenario stream is the master seed's own child: any fleet gets the same
    # weather, and the same stream state for its targets
    scenario = {"tracking": TrackingScenario(),
                "synthetic": WindScenario(),
                "file": WindScenario(series_file=str(weather_file))}[kind]
    clock = SimulationClock(dt_minutes, horizon)
    sims = [Simulation(generate_population(PopulationSpec(count=n, seed=seed)), scenario,
                       clock, seed) for n in counts]
    for name in ("outdoor_c", "nominal_kw", "wind_kw"):
        a, b = (getattr(sim.inputs, name) for sim in sims)
        assert a.size == horizon + 1 and a.tobytes() == b.tobytes(), name
    assert sims[0].rng_scenario.bit_generator.state == sims[1].rng_scenario.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       saturation=st.booleans(), burn_in=st.integers(0, 40),
       horizons=st.lists(st.integers(0, 120), min_size=2, max_size=2, unique=True))
def test_a_run_is_the_prefix_of_a_longer_run(count, seed, saturation, burn_in, horizons):
    # under constant weather, interval k draws the same noise and target at any horizon
    h, longer = sorted(horizons)
    spec = PopulationSpec(count=count, seed=seed, thermostat=ThermostatConfig(20.0, 1.0, 200))
    scenario = (SaturationScenario if saturation else TrackingScenario)(burn_in=burn_in)
    short, full = (run_simulation(spec, scenario, SimulationClock(1.0, n)) for n in (h, longer))
    for f in dataclasses.fields(ScenarioSeries):
        a, b = getattr(short, f.name), getattr(full, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b[:h].tobytes(), f.name
        else:
            assert a == b, f.name


@st.composite
def degenerate_fleets(draw):
    """(population, scenario, clock): N units, N = 1 among them, with one set of
    parameters, one initial temperature and state, and no process noise."""
    n = draw(st.one_of(st.just(1), st.integers(2, 300)))
    cfg = ThermostatConfig(20.0, draw(st.floats(0.2, 3.0)), 8 * draw(st.integers(1, 125)))

    def same(value, dtype=float):
        return np.full(n, value, dtype=dtype)

    # a heating gain cop*P*R >= 3*3*3 = 27 clears the lift the scenarios' weather needs
    pop = engine.Population(
        capacitance=same(draw(st.floats(0.5, 5.0))), resistance=same(draw(st.floats(3.0, 5.0))),
        rated_power=same(draw(st.floats(3.0, 20.0))), cop=same(draw(st.floats(3.0, 5.0))),
        indoor_temp=same(draw(st.floats(cfg.setpoint - cfg.deadband, cfg.setpoint + cfg.deadband))),
        machine_state=same(draw(st.integers(0, 1)), np.int8), thermostat=cfg, process_noise_sd=0.0)
    burn_in = draw(st.integers(2, 10))  # the wind policy needs two intervals of history
    scenario = draw(st.sampled_from([
        TrackingScenario(draw(st.floats(-5.0, 15.0)), burn_in=burn_in),
        SaturationScenario(burn_in=burn_in), WindScenario(burn_in=burn_in)]))
    return pop, scenario, SimulationClock(draw(st.floats(0.1, 30.0)), draw(st.integers(1, 40)))


@settings(max_examples=100, deadline=None)
@given(degenerate_fleets(), st.integers(0, 2**32 - 1))
def test_a_degenerate_fleet_moves_as_one_unit(fleet, seed):
    # identical units see identical inputs, so none can leave the others; the
    # prediction is still exact to roundoff, though not always to the bit
    pop, scenario, clock = fleet
    sim = Simulation(pop, scenario, clock, seed)
    for _ in range(clock.horizon):
        sim.run_interval()
        assert (pop.machine_state == pop.machine_state[0]).all()
        assert (pop.indoor_temp == pop.indoor_temp[0]).all()
    series = sim.series()
    assert np.abs(series.phi - series.phi_predicted).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), file=st.booleans(),
       burn_in=st.integers(2, 20), extra=st.integers(-5, 10))
def test_the_wind_arms_agree_through_the_burn_in(weather_file, count, seed, file, burn_in,
                                                 extra):
    # the arms share seed, fleet, weather and nominal load, and neither requests a
    # target before the burn-in, so every column agrees over intervals 0 to burn_in - 1
    horizon = max(burn_in + extra, 0)
    config = RunConfig(scenario="wind", seed=seed, clock=SimulationClock(1.0, horizon),
                       population=PopulationSpec(count=count),
                       wind=WindScenario(series_file=str(weather_file) if file else None,
                                         burn_in=burn_in))
    arms = []

    def recorded(*args, **kwargs):
        arms.append(run_simulation(*args, **kwargs))
        return arms[-1]

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(runner, "run_simulation", recorded)
        runner.write_wind_outputs(config, Path(out))
    controlled, uncontrolled = arms
    assert uncontrolled.controlled.sum() == 0 and len(controlled) == horizon
    b = min(burn_in, horizon)
    for f in dataclasses.fields(ScenarioSeries):
        a, c = getattr(controlled, f.name), getattr(uncontrolled, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == c.dtype and a[:b].tobytes() == c[:b].tobytes(), f.name
        else:
            assert a == c, f.name


@st.composite
def load_series(draw):
    """Total loads of 3 to 40 intervals, each 0 or of either sign with a magnitude from
    1e-140 to about 1e151, so that the load changes span the same range."""
    magnitude = st.builds(lambda mantissa, e: mantissa * 10.0**e,
                          st.floats(1.0, 10.0), st.integers(-140, 150))
    value = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    return np.array(draw(st.lists(value, min_size=3, max_size=40)))


@pytest.fixture(scope="module")
def short_series():
    return run_simulation(degenerate_spec(count=2), TrackingScenario(burn_in=2),
                          SimulationClock(1.0, 40))


@settings(max_examples=100, deadline=None)
@given(load_series())
def test_gradient_sd_is_np_std_of_the_load_changes(short_series, total_kw):
    # the sd scales the changes by a power of two, which changes no bit: where np.std's
    # own squares neither overflow nor underflow, the two agree bit for bit
    h = total_kw.size
    columns = {f.name: getattr(short_series, f.name)[:h] for f in dataclasses.fields(ScenarioSeries)
               if isinstance(getattr(short_series, f.name), np.ndarray)}
    series = dataclasses.replace(short_series, **{**columns, "total_kw": total_kw})
    d = np.diff(total_kw)
    deviations = d - d.mean()
    squares = deviations * deviations
    normal = (squares >= np.finfo(float).tiny) | (deviations == 0.0)
    if np.isfinite(squares).all() and normal.all():
        expected = np.float64(np.std(d, ddof=1))
        assert np.float64(series.summary()["load_gradient_sd_kw"]).tobytes() == expected.tobytes()


two_cpus = pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: {pid})(0)) < 2,
                              reason="the noise is drawn ahead only where two CPUs are usable")


def count_thread_starts(mp):
    """A list that gets one entry per threading.Thread started while mp is active."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        start(thread)

    mp.setattr(threading.Thread, "start", counted)
    return starts


class NoiseStream:
    """Stands in for rng_noise: each draw waits delay seconds, and draw number
    fail (counted from 1, on either path) raises instead of drawing. busy is
    True while a draw is in flight; threads holds each call's (method, thread)."""

    def __init__(self, rng, fail=0, delay=0.0):
        self.rng, self.fail, self.delay, self.calls, self.busy = rng, fail, delay, 0, False
        self.threads = []

    def _draw(self, method, *args, **kwargs):
        self.calls += 1
        self.threads.append((method, threading.current_thread()))
        self.busy = True
        try:
            time.sleep(self.delay)
            if self.calls == self.fail:
                raise RuntimeError(f"draw {self.calls} failed")
            return getattr(self.rng, method)(*args, **kwargs)
        finally:
            self.busy = False

    def normal(self, *args):
        return self._draw("normal", *args)

    def standard_normal(self, out):
        return self._draw("standard_normal", out=out)


@st.composite
def draw_ahead_runs(draw):
    """Up to 2,000 units and 30 intervals under tracking, saturation or synthetic wind."""
    burn_in = draw(st.integers(2, 10))
    scenario = draw(st.sampled_from([TrackingScenario(burn_in=burn_in),
                                     SaturationScenario(burn_in=burn_in),
                                     WindScenario(burn_in=burn_in)]))
    spec = PopulationSpec(count=draw(st.sampled_from([2000, 1]) | st.integers(1, 2000)),
                          process_noise_sd=draw(st.sampled_from([0.0, 0.01, 0.3])),
                          seed=draw(st.integers(0, 2**32 - 1)))
    return spec, scenario, SimulationClock(1.0, draw(st.integers(0, 30)))


@two_cpus
@settings(max_examples=100, deadline=None)
@given(draw_ahead_runs())
def test_drawing_ahead_keeps_every_bit(run):
    spec, scenario, clock = run
    with pytest.MonkeyPatch.context() as mp:
        starts = count_thread_starts(mp)
        inline = run_simulation(spec, scenario, clock)
        assert starts == []
        mp.setattr(engine, "_DRAW_AHEAD_UNITS", 0)
        ahead = run_simulation(spec, scenario, clock)
    # one worker per run, started by the first draw ahead; without noise nothing is drawn
    assert len(starts) == (1 if spec.process_noise_sd and clock.horizon >= 2 else 0)
    for f in dataclasses.fields(ScenarioSeries):
        a, b = getattr(inline, f.name), getattr(ahead, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("below, cpus, starts", [(0, {0, 1}, 1), (1, {0, 1}, 0), (0, {0}, 0),
                                                 (0, None, 0)])
def test_draws_ahead_from_the_threshold_where_two_cpus_are_usable(monkeypatch, below, cpus,
                                                                   starts):
    # None: a platform whose os module cannot list the usable CPUs draws inline
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    started = count_thread_starts(monkeypatch)
    spec = PopulationSpec(count=engine._DRAW_AHEAD_UNITS - below, seed=73)
    run_simulation(spec, TrackingScenario(burn_in=1), SimulationClock(1.0, 3))
    assert len(started) == starts


def slow_simulation(monkeypatch, scenario, horizon, **stream):
    """A 40-unit run that draws ahead, with a NoiseStream whose draws take 20 ms."""
    monkeypatch.setattr(engine, "_DRAW_AHEAD_UNITS", 0)
    spec = PopulationSpec(count=40, seed=71)
    sim = Simulation(generate_population(spec), scenario, SimulationClock(1.0, horizon), spec.seed)
    sim.rng_noise = NoiseStream(sim.rng_noise, delay=0.02, **stream)
    return sim


@two_cpus
def test_failed_interval_leaves_no_thread_running(monkeypatch):
    # the worker drawing interval 4's noise is still asleep when interval 3 raises
    sim = slow_simulation(monkeypatch, ExplodingScenario(burn_in=0), 10)
    before = threading.enumerate()
    with pytest.raises(EngineError, match="^interval 3: scenario blew up$"):
        sim.run()
    assert threading.enumerate() == before
    assert sim.rng_noise.calls == 5


def same_series(a, b):
    return all(getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
               for f in dataclasses.fields(ScenarioSeries)
               if isinstance(getattr(a, f.name), np.ndarray))


def fleet_simulation(horizon=12):
    spec = PopulationSpec(count=200, seed=74)
    return Simulation(generate_population(spec), TrackingScenario(burn_in=3),
                      SimulationClock(1.0, horizon), spec.seed)


def streamed_fleet_simulation():
    sim = fleet_simulation()
    sim.rng_noise = NoiseStream(sim.rng_noise)
    return sim


def assert_draw_threads(stream, inline, ahead):
    """rng_noise.normal ran inline times, all on the main thread, and standard_normal
    ahead times, all on one other thread: perfbench traces normal on the main thread."""
    main = threading.main_thread()
    assert [thread for method, thread in stream.threads if method == "normal"] == [main] * inline
    worker = {thread for method, thread in stream.threads if method == "standard_normal"}
    assert len(worker) == (ahead > 0) and main not in worker
    assert stream.calls == inline + ahead


@two_cpus
def test_run_interval_alone_draws_inline_with_the_bits_of_run(monkeypatch):
    monkeypatch.setattr(engine, "_DRAW_AHEAD_UNITS", 0)
    starts = count_thread_starts(monkeypatch)
    sim = streamed_fleet_simulation()
    for _ in range(12):
        sim.run_interval()
    assert starts == []
    reference = streamed_fleet_simulation()
    assert same_series(sim.series(), reference.run()) and len(starts) == 1
    assert_draw_threads(sim.rng_noise, inline=12, ahead=0)
    assert_draw_threads(reference.rng_noise, inline=1, ahead=11)


@two_cpus
@pytest.mark.parametrize("alone", [1, 2, 5, 11, 12])
def test_run_after_run_interval_calls_keeps_the_bits_of_run(monkeypatch, alone):
    monkeypatch.setattr(engine, "_DRAW_AHEAD_UNITS", 0)
    sim = streamed_fleet_simulation()
    for _ in range(alone):
        sim.run_interval()
    assert same_series(sim.run(), fleet_simulation().run())
    # run() draws its first interval inline, when it has one, and the rest on its worker
    assert_draw_threads(sim.rng_noise, inline=alone + (alone < 12), ahead=max(11 - alone, 0))


class ExplodingWhileDrawing(ExplodingScenario):
    """ExplodingScenario whose interval 3 raises once interval 4's draw is under way."""

    def phi_target(self, sim, phi_now, region):
        deadline = time.monotonic() + 5.0
        while sim.k == 3 and not sim.rng_noise.busy and time.monotonic() < deadline:
            time.sleep(0.001)
        return super().phi_target(sim, phi_now, region)


@two_cpus
@pytest.mark.parametrize("scenario, horizon", [(TrackingScenario(burn_in=2), 6),
                                               (ExplodingWhileDrawing(burn_in=0), 10)])
def test_no_draw_is_in_flight_when_run_interval_returns_or_raises(monkeypatch, scenario,
                                                                  horizon):
    # the wrapper stands where a benchmark probes the host between intervals
    run_interval, in_flight = Simulation.run_interval, []

    def checked(sim):
        try:
            return run_interval(sim)
        finally:
            in_flight.append(sim.rng_noise.busy)

    monkeypatch.setattr(Simulation, "run_interval", checked)
    sim = slow_simulation(monkeypatch, scenario, horizon)
    before = threading.enumerate()
    try:
        sim.run()
    except EngineError:
        assert sim.k == 3
    assert in_flight == [False] * (sim.k + (sim.k < horizon))
    assert sim.rng_noise.calls == min(sim.k + 2, horizon)
    assert threading.enumerate() == before


@two_cpus
@pytest.mark.parametrize("ahead", [False, True])
@pytest.mark.parametrize("fail", [1, 2, 5])
def test_failed_draw_names_the_interval_it_was_for(monkeypatch, ahead, fail):
    # draw j is interval j - 1's, inline or on the worker, which raises it after interval j - 2
    if ahead:
        monkeypatch.setattr(engine, "_DRAW_AHEAD_UNITS", 0)
    spec = PopulationSpec(count=40, seed=72)
    sim = Simulation(generate_population(spec), TrackingScenario(burn_in=2),
                     SimulationClock(1.0, 8), spec.seed)
    sim.rng_noise = NoiseStream(sim.rng_noise, fail=fail)
    with pytest.raises(EngineError, match=rf"^interval {fail - 1}: draw {fail} failed$"):
        sim.run()
    assert sim.k == fail - 1


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


def test_readme_python_blocks_run(capsys):
    # a signature change that the README's examples miss fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.endswith("\n450 -0.1 0.41\n")

"""Scenario model tests: turbine curve, nominal load, regulation target, gradients."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from heatfleet.aggregator import FeasibleRegion
from heatfleet.config import config_from_dict
from heatfleet.engine import PopulationSpec, SimulationClock, run_simulation
from heatfleet.errors import ConfigError
from heatfleet.scenarios import (
    NominalLoadModel,
    ScenarioInputs,
    SyntheticWeather,
    TrackingScenario,
    TurbineModel,
    WindScenario,
    generate_weather,
    power_gradient_density,
    turbine_power,
    wind_target,
)
from heatfleet.seriesio import write_exogenous

TURBINE = TurbineModel(cut_in=3.0, rated_speed=12.0, cut_out=25.0,
                       rated_power=2500.0, turbine_count=2)


class TestTurbine:
    def test_below_cut_in(self):
        assert turbine_power(0.0, TURBINE) == 0.0
        assert turbine_power(2.99, TURBINE) == 0.0

    def test_rated_output(self):
        assert turbine_power(12.0, TURBINE) == 5000.0
        assert turbine_power(20.0, TURBINE) == 5000.0

    def test_cut_out(self):
        assert turbine_power(25.0, TURBINE) == 0.0
        assert turbine_power(30.0, TURBINE) == 0.0

    def test_cubic_midpoint(self):
        # 2 * 2500 * (7.5^3 - 27) / (12^3 - 27), evaluated by hand
        assert turbine_power(7.5, TURBINE) == pytest.approx(1160.7142857142858,
                                                            abs=1e-9)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            turbine_power(-0.1, TURBINE)

    def test_nondecreasing_below_rated(self):
        v = np.linspace(0.0, 12.0, 500)
        p = turbine_power(v, TURBINE)
        assert (np.diff(p) >= 0).all()

    def test_zero_outside_operating_range(self):
        v = np.concatenate([np.linspace(0, 2.999, 50), np.linspace(25.0, 40.0, 50)])
        assert (turbine_power(v, TURBINE) == 0.0).all()

    def test_model_invariants(self):
        with pytest.raises(ValueError):
            TurbineModel(cut_in=12.0, rated_speed=3.0)
        with pytest.raises(ValueError):
            TurbineModel(rated_power=0.0)
        # zero turbines is a valid degenerate farm
        assert turbine_power(12.0, TurbineModel(turbine_count=0)) == 0.0


class FixedDraws:
    """Stands in for the scenario generator: every standard normal draw is value."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def nominal_kw(tmp_path, rng, horizon=10, dt_minutes=60.0, start_hour=0.0,
               model=NominalLoadModel()):
    """WindScenario.prepare's nominal load, one sample per interval from start_hour.

    The weather is read from a calm series file on the interval grid, so rng
    feeds only the load fluctuations.
    """
    n = horizon + 1
    path = tmp_path / "calm.csv"
    write_exogenous(path, np.arange(n) * dt_minutes, np.zeros(n), np.full(n, 4.0))
    scenario = WindScenario(nominal=model, series_file=str(path), start_hour=start_hour)
    return scenario.prepare(horizon, dt_minutes, rng).nominal_kw


class TestNominalLoad:
    def test_zero_draw_gives_profile(self, tmp_path):
        model = NominalLoadModel()
        hours = np.arange(11.0)
        assert np.array_equal(nominal_kw(tmp_path, FixedDraws(0.0)), model.profile(hours))

    def test_off_peak_one_sigma(self, tmp_path):
        model = NominalLoadModel()
        # hours 0-5 sit at the off-peak level
        loads = nominal_kw(tmp_path, FixedDraws(1.0), horizon=5)
        assert loads == pytest.approx(np.full(6, model.off_peak_level * 1.10), rel=1e-12)

    def test_fluctuation_sd_is_ten_percent_of_off_peak(self):
        model = NominalLoadModel(off_peak_level=1234.0)
        assert model.fluctuation_sd == pytest.approx(123.4, rel=1e-12)

    def test_monte_carlo_sd(self, tmp_path):
        model = NominalLoadModel()
        # 100 000 samples 0.06 s apart: all within the flat off-peak hours 0-5
        samples = nominal_kw(tmp_path, np.random.default_rng(71), horizon=99_999,
                             dt_minutes=0.001)
        assert np.std(samples, ddof=1) == pytest.approx(model.fluctuation_sd, rel=0.05)

    def test_floored_at_zero(self, tmp_path):
        assert (nominal_kw(tmp_path, FixedDraws(-100.0)) == 0.0).all()

    def test_time_of_day_validated(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^wind: start_hour must be in \[0, 24\)"):
            config_from_dict({"scenario": "wind", "wind": {"start_hour": 24}})
        # the scenario checks it, so a library caller gets the same check
        for hour in (24.0, -0.5):
            with pytest.raises(ValueError, match=r"^start_hour must be in \[0, 24\)"):
                WindScenario(start_hour=hour)
        # the time of day wraps past midnight onto the periodic profile
        model = NominalLoadModel()
        loads = nominal_kw(tmp_path, FixedDraws(0.0), horizon=2, start_hour=23.0)
        assert np.array_equal(loads, model.profile(np.array([23.0, 0.0, 1.0])))

    def test_profile_periodic(self):
        model = NominalLoadModel()
        assert model.profile(0.0) == model.profile(24.0)
        assert model.profile(23.9) == model.profile(47.9)

    def test_profile_interpolates_anchors(self):
        model = NominalLoadModel(anchors=((0.0, 100.0), (12.0, 300.0)),
                                 off_peak_level=100.0)
        assert model.profile(6.0) == pytest.approx(200.0)
        # wraps linearly from (12, 300) back to (24, 100)
        assert model.profile(18.0) == pytest.approx(200.0)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            NominalLoadModel(anchors=((5.0, 100.0), (2.0, 100.0)))
        with pytest.raises(ValueError):
            NominalLoadModel(anchors=((0.0, -5.0),))
        with pytest.raises(ValueError):
            NominalLoadModel(anchors=())


class ConstantLoads:
    """Uncontrolled scenario with a constant nominal load and wind generation."""

    def __init__(self, nominal, wind):
        self.nominal = nominal
        self.wind = wind

    def prepare(self, horizon, dt_minutes, rng):
        n = horizon + 1
        return ScenarioInputs(np.full(n, 4.0), np.full(n, self.nominal), np.full(n, self.wind))

    def phi_target(self, sim, phi_now, region):
        return None


def total_load_run(nominal, wind):
    return run_simulation(PopulationSpec(count=20, seed=5), ConstantLoads(nominal, wind),
                          SimulationClock(1.0, 5))


class TestTotalLoad:
    def test_arithmetic(self):
        series = total_load_run(1000.0, 500.0)
        assert (series.nominal_kw == 1000.0).all() and (series.wind_kw == 500.0).all()
        assert (series.heatpump_kw > 0.0).all()
        assert np.array_equal(series.total_kw, 1000.0 + series.heatpump_kw - 500.0)

    def test_no_wind(self):
        series = total_load_run(1200.0, 0.0)
        assert np.array_equal(series.total_kw, 1200.0 + series.heatpump_kw)

    def test_export_sign(self):
        series = total_load_run(0.0, 5000.0)
        assert (series.total_kw < 0.0).all()
        assert np.array_equal(series.total_kw, series.heatpump_kw - 5000.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="nominal_kw must be finite"):
            total_load_run(float("nan"), 0.0)
        with pytest.raises(ValueError, match="wind_kw must be finite"):
            ScenarioInputs(np.zeros(3), np.zeros(3), np.array([0.0, np.inf, 0.0]))
        with pytest.raises(ValueError, match="one length"):
            ScenarioInputs(np.zeros(3), np.zeros(3), np.zeros(2))


class TestWindTarget:
    def test_hold_steady_fixed_point(self):
        p_cap = 4000.0
        phi0 = 0.55
        load = p_cap * phi0
        target = wind_target(300.0, 300.0, load, load, p_cap)
        assert target == pytest.approx(phi0, rel=1e-12)

    def test_linear_in_wind_surplus(self):
        base = wind_target(500.0, 800.0, 2000.0, 2100.0, 4000.0)
        bumped = wind_target(900.0, 800.0, 2000.0, 2100.0, 4000.0)
        assert bumped - base == pytest.approx(400.0 / 4000.0, rel=1e-12)

    def test_closed_loop_smoothing_identity(self):
        # substituting the target into the total-load definition must
        # reproduce the two-interval average exactly
        rng = np.random.default_rng(73)
        for _ in range(200):
            p_cap = float(rng.uniform(1000.0, 9000.0))
            p_w = float(rng.uniform(0.0, 5000.0))
            p_n = float(rng.uniform(0.0, 6000.0))
            l_now = float(rng.uniform(-2000.0, 8000.0))
            l_prev = float(rng.uniform(-2000.0, 8000.0))
            phi = wind_target(p_w, p_n, l_now, l_prev, p_cap)
            achieved = p_n + p_cap * phi - p_w
            assert achieved == pytest.approx(0.5 * (l_now + l_prev), abs=1e-9)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            wind_target(0.0, 0.0, 0.0, 0.0, 0.0)


def test_wind_policy_reads_the_forecast_at_k_and_the_two_loads_before():
    n = 6
    scenario = WindScenario(burn_in=2)
    inputs = ScenarioInputs(np.full(n, 4.0), 1000.0 + 100.0 * np.arange(n),
                            10.0 * np.arange(n))
    sim = SimpleNamespace(k=4, inputs=inputs, installed_capacity=4000.0,
                          columns={"total_kw": np.array([1e3, 2e3, 3e3, 5e3, 0.0, 0.0])})
    expected = wind_target(40.0, 1400.0, 5000.0, 3000.0, 4000.0)
    assert scenario.phi_target(sim, 0.5, None) == expected
    sim.k = 1
    assert scenario.phi_target(sim, 0.5, None) is None
    sim.k = 4
    scenario = replace(scenario, controlled=False)
    assert scenario.phi_target(sim, 0.5, None) is None


def tracking_target(scenario, draw, region, phi_now=0.5, state=None):
    """One TrackingScenario.phi_target past the burn-in, with the normal draw
    fixed, in a fresh run unless state is a run's scenario_state."""
    sim = SimpleNamespace(k=scenario.burn_in, rng_scenario=FixedDraws(draw),
                          scenario_state={} if state is None else state)
    return scenario.phi_target(sim, phi_now, FeasibleRegion(0, 0, *region))


class TestTrackingTarget:
    """The target signal TrackingScenario steers toward after its burn-in."""

    def test_zero_disturbance_returns_clamped_steady(self):
        scenario = TrackingScenario(burn_in=0)
        state = {}  # one run: the steady level is the first phi_now, kept after
        for phi_now in (0.5, 0.4, 0.6, 0.35, 0.65):
            assert tracking_target(scenario, 0.0, (0.3, 0.7), phi_now, state) == 0.5
        scenario = TrackingScenario(burn_in=0, phi_steady=0.9)
        assert tracking_target(scenario, 0.0, (0.3, 0.7)) == 0.7

    def test_collapsed_region(self):
        assert tracking_target(TrackingScenario(burn_in=0), 3.0, (0.42, 0.42)) == 0.42

    def test_outputs_always_inside_region(self):
        rng = np.random.default_rng(79)
        scenario = TrackingScenario(burn_in=0, phi_steady=0.5)
        state = {}  # one run: the AR(1) state carries from call to call
        for _ in range(10_000):
            lo = float(rng.uniform(0.0, 0.5))
            hi = lo + float(rng.uniform(0.0, 0.5))
            out = tracking_target(scenario, float(rng.standard_normal()), (lo, hi),
                                  state=state)
            assert lo <= out <= hi

    def test_invalid_region_rejected(self):
        with pytest.raises(ValueError, match="empty region"):
            tracking_target(TrackingScenario(burn_in=0), 0.0, (0.7, 0.3))
        with pytest.raises(ValueError, match="ar_coefficient"):
            TrackingScenario(ar_coefficient=1.0)


class TestGradientDensity:
    def test_constant_series(self):
        centers, heights = power_gradient_density(np.full(100, 42.0))
        assert heights.max() == 1.0
        assert heights[len(heights) // 2] == 1.0
        assert heights.sum() == 1.0  # single occupied bin

    def test_alternating_series_symmetric(self):
        series = np.tile([100.0, 130.0], 50)
        centers, heights = power_gradient_density(series, bins=11)
        occupied = np.nonzero(heights)[0]
        assert len(occupied) == 2
        assert occupied[0] + occupied[1] == len(heights) - 1  # mirrored bins
        assert heights[occupied[0]] == pytest.approx(heights[occupied[1]], rel=0.05)

    def test_raw_density_integrates_to_one(self):
        rng = np.random.default_rng(83)
        series = np.cumsum(rng.standard_normal(500))
        centers, heights = power_gradient_density(series, normalize=False, bins=51)
        width = centers[1] - centers[0]
        assert heights.sum() * width == pytest.approx(1.0, rel=1e-9)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            power_gradient_density([1.0])

    def test_even_bins_rejected(self):
        with pytest.raises(ValueError):
            power_gradient_density([1.0, 2.0, 3.0], bins=10)


class TestSyntheticWeather:
    def test_shapes_and_nonnegative_wind(self):
        rng = np.random.default_rng(89)
        t, wind, temp = generate_weather(SyntheticWeather(), 500, 1.0, rng)
        assert len(t) == len(wind) == len(temp) == 500
        assert (wind >= 0.0).all()
        assert t[1] - t[0] == 1.0

    def test_deterministic_given_stream(self):
        a = generate_weather(SyntheticWeather(), 100, 1.0, np.random.default_rng(7))
        b = generate_weather(SyntheticWeather(), 100, 1.0, np.random.default_rng(7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_stationary_statistics(self):
        rng = np.random.default_rng(97)
        weather = SyntheticWeather(wind_mean=8.0, wind_sd=2.0,
                                   wind_reversion_per_hour=2.0)
        _, wind, temp = generate_weather(weather, 200_000, 1.0, rng)
        assert wind.mean() == pytest.approx(8.0, abs=0.15)
        assert np.std(temp) == pytest.approx(1.5, rel=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SyntheticWeather(wind_sd=-1.0)
        with pytest.raises(ValueError):
            SyntheticWeather(temp_reversion_per_hour=0.0)
        with pytest.raises(ValueError):
            generate_weather(SyntheticWeather(), 0, 1.0, np.random.default_rng(1))

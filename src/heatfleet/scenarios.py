"""Target-signal generation and exogenous load models.

Three scenario policies drive the engine: a stochastic tracking target
(steady level plus a persistent AR(1) disturbance, clamped to the feasible
region), a saturation stress (target pinned above the feasible maximum), and
wind regulation (the aggregate heat pump load absorbs turbine fluctuations
by steering the total load toward the mean of its last two intervals).

The wind scenario composes a piecewise-linear diurnal nominal-load profile
with Gaussian fluctuations, a cut-in/rated/cut-out turbine power curve, and
wind-speed/outdoor-temperature inputs that are either ingested from a file
or synthesized by a mean-reverting process. Each scenario's prepare returns
the run's exogenous inputs as one ScenarioInputs value; its phi_target(sim,
phi_now, region) reads what else it needs from the running engine Simulation
sim and returns the next target, or None to hold the set-point offset at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import SimulationClock
from .seriesio import ingest_series

__all__ = [
    "TurbineModel",
    "NominalLoadModel",
    "SyntheticWeather",
    "ScenarioInputs",
    "TrackingScenario",
    "SaturationScenario",
    "WindScenario",
    "turbine_power",
    "wind_target",
    "power_gradient_density",
    "generate_weather",
]


@dataclass(frozen=True)
class TurbineModel:
    """Cut-in / rated / cut-out power curve with a cubic rise, count identical units."""

    cut_in: float = 3.0
    rated_speed: float = 12.0
    cut_out: float = 25.0
    rated_power: float = 2500.0
    turbine_count: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.cut_in < self.rated_speed < self.cut_out:
            raise ValueError(
                "need 0 < cut_in < rated_speed < cut_out, got "
                f"{self.cut_in}, {self.rated_speed}, {self.cut_out}"
            )
        if self.rated_power <= 0.0:
            raise ValueError(f"rated_power must be > 0, got {self.rated_power!r}")
        if self.turbine_count < 0:
            raise ValueError(f"turbine_count must be >= 0, got {self.turbine_count}")


def turbine_power(wind_speed, model: TurbineModel):
    """Farm output (kW) for wind speed(s) in m/s.

    Zero below cut-in and at/above cut-out, rated at/above rated speed,
    cubic interpolation rated*(v^3 - v_ci^3)/(v_r^3 - v_ci^3) in between.
    """
    v = np.asarray(wind_speed, dtype=float)
    if (v < 0.0).any():
        raise ValueError("wind speed must be >= 0")
    v3 = v**3
    ci3 = model.cut_in**3
    r3 = model.rated_speed**3
    per_turbine = np.where(
        (v < model.cut_in) | (v >= model.cut_out),
        0.0,
        np.where(v >= model.rated_speed, model.rated_power,
                 model.rated_power * (v3 - ci3) / (r3 - ci3)),
    )
    out = model.turbine_count * per_turbine
    return float(out) if np.ndim(wind_speed) == 0 else out


@dataclass(frozen=True)
class NominalLoadModel:
    """Diurnal non-heat-pump demand: piecewise-linear anchors plus Gaussian noise.

    anchors is a sequence of (hour_of_day, kW) points, hours in [0, 24),
    interpolated periodically. Fluctuations have standard deviation equal to
    10% of the off-peak level.
    """

    anchors: tuple[tuple[float, float], ...] = (
        (0.0, 2500.0), (5.0, 2500.0), (8.0, 5000.0), (12.0, 3500.0),
        (17.0, 5500.0), (21.0, 4000.0),
    )
    off_peak_level: float = 2500.0

    def __post_init__(self) -> None:
        if len(self.anchors) == 0:
            raise ValueError("need at least one profile anchor")
        hours = [h for h, _ in self.anchors]
        if any(not 0.0 <= h < 24.0 for h in hours):
            raise ValueError("anchor hours must lie in [0, 24)")
        if hours != sorted(hours) or len(set(hours)) != len(hours):
            raise ValueError("anchor hours must be strictly increasing")
        if any(v <= 0.0 for _, v in self.anchors):
            raise ValueError("profile values must be > 0")
        if self.off_peak_level <= 0.0:
            raise ValueError(f"off_peak_level must be > 0, got {self.off_peak_level!r}")

    @property
    def fluctuation_sd(self) -> float:
        """Noise standard deviation, fixed at 10% of the off-peak level (kW)."""
        return 0.10 * self.off_peak_level

    def profile(self, time_of_day):
        """Noise-free profile value(s) at the given hour(s), periodic over 24 h."""
        hours = np.array([h for h, _ in self.anchors], dtype=float)
        values = np.array([v for _, v in self.anchors], dtype=float)
        # wrap the first anchor to hour+24 so interpolation is periodic
        xp = np.concatenate([hours, [hours[0] + 24.0]])
        fp = np.concatenate([values, [values[0]]])
        tod = np.mod(time_of_day, 24.0)
        # shift times before the first anchor into the wrapped segment
        tod = np.where(tod < hours[0], tod + 24.0, tod)
        out = np.interp(tod, xp, fp)
        return float(out) if np.ndim(time_of_day) == 0 else out


def wind_target(wind_next_kw: float, nominal_next_kw: float, load_now_kw: float,
                load_prev_kw: float, installed_capacity_kw: float) -> float:
    """Capacity-factor target that steers the next total load toward the
    average of the last two intervals. Returned unclamped; the aggregator
    clamps to the feasible region."""
    if not installed_capacity_kw > 0.0:
        raise ValueError("installed_capacity_kw must be > 0")
    return (wind_next_kw - nominal_next_kw
            + 0.5 * (load_now_kw + load_prev_kw)) / installed_capacity_kw


def power_gradient_density(series, normalize: bool = True, bins: int = 101):
    """Histogram of one-interval load changes, symmetric about zero.

    Returns (bin_centers, heights). With normalize set, heights are divided
    by the peak bin; otherwise they are probability densities. bins must be
    odd so zero falls at the center of the middle bin.
    """
    values = np.asarray(series, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two samples to difference")
    if bins < 1 or bins % 2 == 0:
        raise ValueError(f"bins must be a positive odd integer, got {bins}")
    diffs = np.diff(values)
    half_range = float(np.max(np.abs(diffs)))
    if half_range == 0.0:
        half_range = 1.0
    edges = np.linspace(-half_range, half_range, bins + 1)
    counts, _ = np.histogram(diffs, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if normalize:
        heights = counts / counts.max()
    else:
        width = edges[1] - edges[0]
        heights = counts / (counts.sum() * width)
    return centers, heights


@dataclass(frozen=True)
class SyntheticWeather:
    """Mean-reverting wind-speed and outdoor-temperature generator parameters."""

    wind_mean: float = 8.0
    wind_sd: float = 2.0
    wind_reversion_per_hour: float = 2.0
    temp_mean: float = 8.0
    temp_sd: float = 1.5
    temp_reversion_per_hour: float = 0.2

    def __post_init__(self) -> None:
        if self.wind_sd < 0.0 or self.temp_sd < 0.0:
            raise ValueError("standard deviations must be >= 0")
        if self.wind_reversion_per_hour <= 0.0 or self.temp_reversion_per_hour <= 0.0:
            raise ValueError("reversion rates must be > 0")


def _ou_series(rng: np.random.Generator, n: int, mean: float, sd: float,
               reversion_per_hour: float, dt_hours: float) -> np.ndarray:
    """Exact-discretization Ornstein-Uhlenbeck path of n samples."""
    decay = math.exp(-reversion_per_hour * dt_hours)
    innovation_sd = sd * math.sqrt(1.0 - decay * decay)
    draws = rng.standard_normal(n)
    out = np.empty(n)
    x = mean + sd * draws[0]
    out[0] = x
    for i in range(1, n):
        x = mean + (x - mean) * decay + innovation_sd * draws[i]
        out[i] = x
    return out


def generate_weather(weather: SyntheticWeather, samples: int, dt_minutes: float,
                     rng: np.random.Generator):
    """Synthesize (timestamps_min, wind_mps, outdoor_c) on the interval grid."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    dt_hours = dt_minutes / 60.0
    t = np.arange(samples) * dt_minutes
    wind = _ou_series(rng, samples, weather.wind_mean, weather.wind_sd,
                      weather.wind_reversion_per_hour, dt_hours)
    temp = _ou_series(rng, samples, weather.temp_mean, weather.temp_sd,
                      weather.temp_reversion_per_hour, dt_hours)
    return t, np.maximum(wind, 0.0), temp


@dataclass(frozen=True, eq=False)
class ScenarioInputs:
    """Exogenous inputs of one run, one entry per interval plus one step of
    foreknowledge: outdoor temperature (degC), nominal load and wind
    generation (kW)."""

    outdoor_c: np.ndarray
    nominal_kw: np.ndarray
    wind_kw: np.ndarray

    def __post_init__(self) -> None:
        if len({values.shape for values in vars(self).values()}) != 1:
            raise ValueError("outdoor_c, nominal_kw and wind_kw must be of one length")
        for name, values in vars(self).items():
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")


def _constant_inputs(horizon: int, outdoor_temp: float) -> ScenarioInputs:
    """Constant outdoor temperature, no nominal load and no wind."""
    n = horizon + 1
    return ScenarioInputs(np.full(n, outdoor_temp), np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class TrackingScenario:
    """Fig.-1 style signal tracking: constant outdoor temperature, no wind or
    nominal load, stochastic feasible target after the burn-in.

    The target is a steady level (phi_steady, or the capacity factor at the
    end of the burn-in) plus a unit-variance AR(1) state z scaled to
    disturbance_scale times the feasible half-width, clamped into the
    feasible region. The run keeps the level and z in sim.scenario_state.
    """

    outdoor_temp: float = 4.0
    burn_in: int = 100
    phi_steady: float | None = None
    ar_coefficient: float = 0.9
    disturbance_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise ValueError(f"ar_coefficient must be in [0, 1), got {self.ar_coefficient!r}")

    def prepare(self, horizon: int, dt_minutes: float,
                rng: np.random.Generator) -> ScenarioInputs:
        return _constant_inputs(horizon, self.outdoor_temp)

    def phi_target(self, sim, phi_now: float, region) -> float | None:
        if sim.k < self.burn_in:
            return None
        state = sim.scenario_state
        steady = state.setdefault("steady", phi_now if self.phi_steady is None else self.phi_steady)
        lo, hi = region.phi_min, region.phi_max
        if lo > hi:
            raise ValueError(f"empty region [{lo}, {hi}]")
        c = self.ar_coefficient
        z = state["z"] = (c * state.get("z", 0.0)
                          + math.sqrt(1.0 - c * c) * float(sim.rng_scenario.standard_normal()))
        half_width = 0.5 * (hi - lo)
        raw = steady + self.disturbance_scale * half_width * z
        return min(max(raw, lo), hi)


@dataclass(frozen=True)
class SaturationScenario:
    """Stress policy: demand more than the feasible maximum every interval."""

    outdoor_temp: float = 4.0
    burn_in: int = 100
    overshoot: float = 0.1

    def prepare(self, horizon: int, dt_minutes: float,
                rng: np.random.Generator) -> ScenarioInputs:
        return _constant_inputs(horizon, self.outdoor_temp)

    def phi_target(self, sim, phi_now: float, region) -> float | None:
        if sim.k < self.burn_in:
            return None
        return region.phi_max + self.overshoot


@dataclass(frozen=True)
class WindScenario:
    """Wind-regulation scenario: turbines plus diurnal nominal load.

    The weather is read from series_file when it is set, and drawn from the
    synthetic generator otherwise. The controller reads the exogenous
    arrays one step ahead (perfect one-step foreknowledge). With
    controlled=False the policy never requests a target, leaving every
    set-point offset at zero.
    """

    turbine: TurbineModel = TurbineModel()
    nominal: NominalLoadModel = NominalLoadModel()
    synthetic: SyntheticWeather = SyntheticWeather()
    series_file: str | None = None
    burn_in: int = 100
    start_hour: float = 0.0
    controlled: bool = True

    def __post_init__(self) -> None:
        if self.burn_in < 2:
            raise ValueError(
                f"wind regulation needs burn_in >= 2 to seed the load history, got {self.burn_in}"
            )
        if not 0.0 <= self.start_hour < 24.0:
            raise ValueError(f"start_hour must be in [0, 24), got {self.start_hour!r}")
        if self.series_file is not None and not Path(self.series_file).is_file():
            raise ValueError(f"series_file: file not found: {self.series_file}")

    def prepare(self, horizon: int, dt_minutes: float,
                rng: np.random.Generator) -> ScenarioInputs:
        n = horizon + 1
        if self.series_file is None:
            _, wind_mps, outdoor = generate_weather(self.synthetic, n, dt_minutes, rng)
        else:
            wind_mps, outdoor = ingest_series(self.series_file,
                                              SimulationClock(dt_minutes, horizon))
        wind_kw = turbine_power(wind_mps, self.turbine)
        tod = np.mod(self.start_hour + np.arange(n) * dt_minutes / 60.0, 24.0)
        draws = rng.standard_normal(n)
        nominal_kw = np.maximum(
            0.0, self.nominal.profile(tod) + self.nominal.fluctuation_sd * draws
        )
        return ScenarioInputs(outdoor, nominal_kw, wind_kw)

    def phi_target(self, sim, phi_now: float, region) -> float | None:
        k = sim.k
        if not self.controlled or k < self.burn_in:
            return None
        # burn_in >= 2, so the total loads of intervals k - 1 and k - 2 are recorded
        load_kw = sim.columns["total_kw"]
        return wind_target(float(sim.inputs.wind_kw[k]), float(sim.inputs.nominal_kw[k]),
                           float(load_kw[k - 1]), float(load_kw[k - 2]),
                           sim.installed_capacity)

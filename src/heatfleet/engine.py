"""Population generation and the synchronous report/actuate interval loop.

Every interval runs the same seven steps in a fixed order: evolve each
building's temperature, collect the quantized power-state reports, build the
power density pair, ask the scenario for a target, select the common
set-point index, switch every thermostat on its reported index, then record
the realized aggregate. Because the switch happens on exactly the reported
indices, the realized capacity factor must match the controller's
prediction; the loop enforces that as a hard invariant.

Randomness comes from three streams spawned off the master seed: parameter
generation, per-interval process noise (drawn in building-id order), and the
scenario. The scenario stream is independent of the population size, so the
same seed gives the same weather and targets for any fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import aggregator
from .building import duty_cycle, thermal_constants, thermal_step
from .errors import ConfigError, EngineError
from .thermostat import ThermostatConfig, hysteresis_update, quantize

__all__ = [
    "ParameterDist",
    "PopulationSpec",
    "Population",
    "SimulationClock",
    "ScenarioSeries",
    "Simulation",
    "generate_population",
    "run_simulation",
]

_RESAMPLE_ROUNDS = 100


@dataclass(frozen=True)
class ParameterDist:
    """Sampling spec for one population parameter: constant, uniform or lognormal.

    Lognormal takes the mean and standard deviation of the variable itself
    (not of its log), so sd = 0.2 * mean reproduces the usual 20%
    heterogeneity convention.
    """

    kind: str
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    mean: float = 0.0
    sd: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform", "lognormal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not all(map(math.isfinite, (self.value, self.low, self.high, self.mean, self.sd))):
            raise ValueError(f"{self.kind} distribution parameters must be finite")
        if self.kind == "uniform" and not self.low <= self.high:
            raise ValueError(f"uniform needs low <= high, got [{self.low}, {self.high}]")
        if self.kind == "lognormal" and (self.mean <= 0.0 or self.sd < 0.0):
            raise ValueError("lognormal needs mean > 0 and sd >= 0")

    @classmethod
    def constant(cls, value: float) -> "ParameterDist":
        return cls(kind="constant", value=value)

    @classmethod
    def uniform(cls, low: float, high: float) -> "ParameterDist":
        return cls(kind="uniform", low=low, high=high)

    @classmethod
    def lognormal(cls, mean: float, sd: float) -> "ParameterDist":
        return cls(kind="lognormal", mean=mean, sd=sd)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.value)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.sd == 0.0:
            return np.full(size, self.mean)
        m2 = self.mean * self.mean
        v = self.sd * self.sd
        mu = math.log(m2 / math.sqrt(v + m2))
        sigma = math.sqrt(math.log(1.0 + v / m2))
        return rng.lognormal(mu, sigma, size)


@dataclass(frozen=True)
class PopulationSpec:
    """Fleet description: size, parameter distributions, thermostat group
    config, initial-state policy inputs and the master seed."""

    count: int = 1000
    capacitance: ParameterDist = ParameterDist.lognormal(2.5, 0.5)
    resistance: ParameterDist = ParameterDist.lognormal(2.0, 0.4)
    rated_power: ParameterDist = ParameterDist.uniform(3.0, 5.0)
    cop: ParameterDist = ParameterDist.constant(3.5)
    thermostat: ThermostatConfig = ThermostatConfig()
    initial_outdoor_temp: float = 4.0
    process_noise_sd: float = 0.01
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not (math.isfinite(self.process_noise_sd) and self.process_noise_sd >= 0.0):
            raise ValueError("process_noise_sd must be finite and >= 0, "
                             f"got {self.process_noise_sd!r}")


@dataclass(eq=False)  # arrays have no truth value: identity equality
class Population:
    """Vectorized fleet state: one entry per unit in each parameter and state array."""

    capacitance: np.ndarray
    resistance: np.ndarray
    rated_power: np.ndarray
    cop: np.ndarray
    indoor_temp: np.ndarray
    machine_state: np.ndarray
    thermostat: ThermostatConfig
    process_noise_sd: float

    def __len__(self) -> int:
        return self.capacitance.size

    @property
    def installed_capacity(self) -> float:
        return float(self.rated_power.sum())


def _streams(seed: int) -> tuple[np.random.SeedSequence, ...]:
    """Spawn the (parameters, process noise, scenario) child streams."""
    return tuple(np.random.SeedSequence(seed).spawn(3))


def generate_population(spec: PopulationSpec) -> Population:
    """Draw a fleet from the spec; deterministic for a fixed seed.

    Parameter draws violating the unit invariants are re-drawn, up to a
    bounded number of rounds: positivity, heating gain above the deadband,
    and an adequate-sizing condition: the on-state equilibrium at the
    spec's design outdoor temperature must clear the top of the measurement
    range, so every enrolled unit can traverse its whole operating cycle.
    Initial temperatures are uniform inside the switching band; initial
    machine states are Bernoulli with each unit's steady duty cycle at the
    configured outdoor temperature.
    """
    rng = np.random.default_rng(_streams(spec.seed)[0])
    n = spec.count
    cfg = spec.thermostat
    required_lift = cfg.setpoint + cfg.deadband - spec.initial_outdoor_temp

    cap = spec.capacitance.sample(rng, n)
    res = spec.resistance.sample(rng, n)
    power = spec.rated_power.sample(rng, n)
    cop = spec.cop.sample(rng, n)

    def invalid(c, r, p, q):
        finite = np.isfinite(c) & np.isfinite(r) & np.isfinite(p) & np.isfinite(q)
        positive = (c > 0) & (r > 0) & (p > 0) & (q > 0)
        gain = q * p * r
        gain_ok = (gain > cfg.deadband) & (gain > required_lift)
        return ~(finite & positive & gain_ok)

    bad = invalid(cap, res, power, cop)
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > _RESAMPLE_ROUNDS:
            raise ConfigError(
                f"population: {int(bad.sum())} parameter draws still violate the unit "
                f"invariants after {_RESAMPLE_ROUNDS} resampling rounds; distributions "
                "are incompatible with the thermostat deadband"
            )
        k = int(bad.sum())
        cap[bad] = spec.capacitance.sample(rng, k)
        res[bad] = spec.resistance.sample(rng, k)
        power[bad] = spec.rated_power.sample(rng, k)
        cop[bad] = spec.cop.sample(rng, k)
        bad = invalid(cap, res, power, cop)

    theta0 = rng.uniform(cfg.setpoint - cfg.deadband / 2.0,
                         cfg.setpoint + cfg.deadband / 2.0, n)
    duty = duty_cycle(cap, res, power, cop, cfg, spec.initial_outdoor_temp)
    n0 = (rng.random(n) < duty).astype(np.int8)

    return Population(
        capacitance=cap,
        resistance=res,
        rated_power=power,
        cop=cop,
        indoor_temp=theta0,
        machine_state=n0,
        thermostat=cfg,
        process_noise_sd=spec.process_noise_sd,
    )


@dataclass(frozen=True)
class SimulationClock:
    """Sampling interval length (minutes) and number of intervals to run."""

    dt_minutes: float = 1.0
    horizon: int = 400

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt_minutes) and self.dt_minutes > 0.0):
            raise ValueError(f"dt_minutes must be finite and > 0, got {self.dt_minutes!r}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")

    @property
    def dt_hours(self) -> float:
        return self.dt_minutes / 60.0


@dataclass(eq=False)  # arrays have no truth value: identity equality
class ScenarioSeries:
    """Per-interval records of one run plus fleet-level constants.

    The controlled mask marks intervals where the scenario actually
    requested a target; quantization_floor is the per-interval bound
    max rated power / installed capacity + largest one-index CFF step.
    """

    k: np.ndarray
    nominal_kw: np.ndarray
    wind_kw: np.ndarray
    heatpump_kw: np.ndarray
    total_kw: np.ndarray
    phi: np.ndarray
    phi_target: np.ndarray
    u: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray
    mean_theta: np.ndarray
    phi_predicted: np.ndarray
    quantization_floor: np.ndarray
    controlled: np.ndarray
    min_theta: np.ndarray
    max_theta: np.ndarray
    switch_count: np.ndarray
    rapid_cycle_count: np.ndarray
    ms_star: np.ndarray
    installed_capacity: float
    population_size: int
    setpoint: float
    deadband: float

    def __len__(self) -> int:
        return self.k.size

    def summary(self) -> dict:
        """Deterministic run statistics for reporting and the manifest."""
        out: dict = {
            "intervals": int(len(self)),
            "population_size": self.population_size,
            "installed_capacity_kw": self.installed_capacity,
        }
        if len(self) == 0:
            return out
        comfort_lo = self.setpoint - self.deadband - 0.1
        comfort_hi = self.setpoint + self.deadband + 0.1
        mask = self.controlled
        err = np.abs(self.phi - self.phi_target)[mask]
        out.update(
            {
                "mean_abs_tracking_error": float(err.mean()) if err.size else 0.0,
                "max_prediction_residual": float(
                    np.max(np.abs(self.phi - self.phi_predicted))
                ),
                "mean_indoor_temp_c": float(self.mean_theta.mean()),
                "min_indoor_temp_c": float(self.min_theta.min()),
                "max_indoor_temp_c": float(self.max_theta.max()),
                "comfort_violation": bool(
                    (self.min_theta < comfort_lo).any()
                    or (self.max_theta > comfort_hi).any()
                ),
                "rapid_cycle_fraction": float(
                    self.rapid_cycle_count.sum() / (self.population_size * len(self))
                ),
                "controlled_intervals": int(mask.sum()),
            }
        )
        if len(self) >= 2:
            out["load_gradient_sd_kw"] = float(np.std(np.diff(self.total_kw), ddof=1))
        return out


# the per-interval columns of a ScenarioSeries, by dtype
_FLOAT_COLUMNS = (
    "heatpump_kw", "total_kw", "phi", "phi_target", "u",
    "phi_min", "phi_max", "mean_theta", "phi_predicted", "quantization_floor",
    "min_theta", "max_theta",
)
_INT_COLUMNS = ("switch_count", "rapid_cycle_count", "ms_star")


class Simulation:
    """Mutable run state: population arrays, scenario, clock and histories.

    inputs holds the scenario's exogenous ScenarioInputs for the run. columns
    maps each per-interval ScenarioSeries field the engine computes to an
    array preallocated for the horizon; interval k fills entry k. The float
    columns are the rows of one block, so an interval writes them at once.

    The kernels write into per-run buffers, and population.indoor_temp is
    updated in place.

    Each interval the engine calls scenario.phi_target(sim, phi_now, region)
    with itself as sim. A scenario may read k (the interval being decided),
    inputs, the columns before k and installed_capacity; it may change only
    rng_scenario and scenario_state, a dict that each run starts empty.
    """

    def __init__(self, population: Population, scenario, clock: SimulationClock,
                 noise_seed, scenario_seed, diagnostic_sink=None):
        self.population = population
        self.scenario = scenario
        self.clock = clock
        self.cfg = population.thermostat
        self.rng_noise = np.random.default_rng(noise_seed)
        self.rng_scenario = np.random.default_rng(scenario_seed)
        self.diagnostic_sink = diagnostic_sink
        self.scenario_state = {}
        self.k = 0
        self._prev_switched = np.zeros(len(population), dtype=bool)
        n = clock.horizon
        self._floats = np.empty((len(_FLOAT_COLUMNS), n))
        self.columns = dict(zip(_FLOAT_COLUMNS, self._floats))
        self.columns.update({name: np.empty(n, dtype=np.int64) for name in _INT_COLUMNS})
        self.columns["controlled"] = np.empty(n, dtype=bool)
        # per-run constants: the fleet's parameters never change during a run
        self._decay, self._lift = thermal_constants(
            population.capacitance, population.resistance, population.rated_power,
            population.cop, clock.dt_hours)
        self.installed_capacity = population.installed_capacity
        self._max_rated_power = float(population.rated_power.max())
        # workspace: the equilibria, then quantize's arithmetic; the indices
        self._work = np.empty(len(population))
        self._index = np.empty(len(population), dtype=np.int64)
        self.inputs = scenario.prepare(clock.horizon, clock.dt_minutes, self.rng_scenario)

    def run_interval(self) -> None:
        """Execute one full report/decide/actuate cycle and record it in the columns."""
        pop = self.population
        cfg = self.cfg
        k = self.k
        cols = self.columns
        inputs = self.inputs
        nominal_kw = float(inputs.nominal_kw[k])
        wind_kw = float(inputs.wind_kw[k])

        # (1) thermal evolution under this interval's outdoor temperature
        outdoor = float(inputs.outdoor_c[k])
        sd = pop.process_noise_sd
        # passed inline, the noise draw is freed as soon as the step returns
        thermal_step(pop.indoor_temp, pop.machine_state, self._decay, self._lift, outdoor,
                     self.rng_noise.normal(0.0, sd, len(pop)) if sd > 0.0 else 0.0,
                     out=pop.indoor_temp, work=self._work)
        min_theta = float(np.minimum.reduce(pop.indoor_temp))
        max_theta = float(np.maximum.reduce(pop.indoor_temp))
        if not (math.isfinite(min_theta) and math.isfinite(max_theta)):
            unit = int(np.flatnonzero(~np.isfinite(pop.indoor_temp))[0])
            raise EngineError(f"interval {k}: indoor temperature of unit {unit} "
                              f"is {pop.indoor_temp[unit]!r}")

        # (2) quantized power-state reports
        m = quantize(pop.indoor_temp, cfg, out=self._index, work=self._work)

        # (3) power density pair
        pddf = aggregator.build_pddf_from_arrays(pop.machine_state, m,
                                                 pop.rated_power, cfg)
        region = aggregator.feasible_region(pddf, cfg)
        phi_now = aggregator.capacity_factor(pddf)
        phi_hold = aggregator.cff(pddf, cfg.resolution // 2, cfg)

        # (4) scenario target (None holds the zero-offset prediction phi_hold)
        target = self.scenario.phi_target(self, phi_now, region)
        controlled = target is not None
        if target is None:
            target = phi_hold

        # (5) optimal common set-point index
        decision = aggregator.select_setpoint(pddf, target, cfg)

        # (6) synchronized switch on the reported indices
        n_new = hysteresis_update(pop.machine_state, m, decision.ms_star, cfg)
        switched = n_new != pop.machine_state
        pop.machine_state = n_new

        # (7) realized aggregate and bookkeeping
        phi_realized = float(np.add.reduce(pop.rated_power.compress(n_new.view(bool)))
                             / self.installed_capacity)
        if abs(phi_realized - decision.phi_predicted) > 1e-9:
            raise EngineError(
                f"interval {k}: realized capacity factor {phi_realized!r} "
                f"deviates from prediction {decision.phi_predicted!r}"
            )
        heatpump_kw = self.installed_capacity * phi_realized
        # one row per name of _FLOAT_COLUMNS, in its order; sum/size is ndarray.mean
        self._floats[:, k] = (
            heatpump_kw, nominal_kw + heatpump_kw - wind_kw, phi_realized,
            decision.phi_target, decision.u, decision.phi_min, decision.phi_max,
            np.add.reduce(pop.indoor_temp) / pop.indoor_temp.size, decision.phi_predicted,
            self._max_rated_power / self.installed_capacity
            + aggregator.max_cff_increment(pddf, cfg),
            min_theta, max_theta,
        )
        cols["controlled"][k] = controlled
        cols["switch_count"][k] = np.count_nonzero(switched)
        cols["rapid_cycle_count"][k] = np.count_nonzero(switched & self._prev_switched)
        cols["ms_star"][k] = decision.ms_star
        if self.diagnostic_sink is not None:
            self.diagnostic_sink(k, pddf, decision)
        self._prev_switched = switched
        self.k += 1

    def run(self) -> ScenarioSeries:
        while self.k < self.clock.horizon:
            k = self.k
            try:
                self.run_interval()
            except EngineError:
                raise
            except Exception as exc:
                raise EngineError(f"interval {k}: {exc}") from exc
        return self.series()

    def series(self) -> ScenarioSeries:
        pop = self.population
        return ScenarioSeries(
            k=np.arange(self.k),
            nominal_kw=self.inputs.nominal_kw[:self.k],
            wind_kw=self.inputs.wind_kw[:self.k],
            **{name: column[:self.k] for name, column in self.columns.items()},
            installed_capacity=self.installed_capacity,
            population_size=len(pop),
            setpoint=pop.thermostat.setpoint,
            deadband=pop.thermostat.deadband,
        )


def run_simulation(spec: PopulationSpec, scenario, clock: SimulationClock,
                   diagnostic_sink=None) -> ScenarioSeries:
    """Generate the fleet from the spec and run the full horizon.

    Fully deterministic for a fixed spec seed: the population, process noise
    and scenario each consume an independent child stream of the master seed.
    """
    population = generate_population(spec)
    _, noise_ss, scenario_ss = _streams(spec.seed)
    sim = Simulation(population, scenario, clock, noise_ss, scenario_ss,
                     diagnostic_sink=diagnostic_sink)
    return sim.run()

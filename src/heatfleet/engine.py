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
scenario, the last two spawned by the Simulation. The scenario stream does not
depend on the fleet size, so one seed gives any fleet the same weather and targets.

In run(), a fleet of _DRAW_AHEAD_UNITS or more with noise, where two CPUs are usable, draws
interval k+1's noise on a worker thread while interval k runs, bit for bit (see _draw); the
interval waits for it. Other draws, a run's first among them, are inline rng_noise.normal's.
"""

from __future__ import annotations

import math
import os
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
_DRAW_AHEAD_UNITS = 10_000  # below it, handing the draw to a worker costs more than it saves


@dataclass(frozen=True)
class ParameterDist:
    """Sampling spec for one population parameter: constant, uniform or lognormal.

    Lognormal takes the mean and standard deviation of the variable itself
    (not of its log), so sd = 0.2 * mean reproduces the usual 20%
    heterogeneity convention.
    """

    # the parameters each kind takes: a distribution sets exactly these, the rest stay None
    PARAMS = {"constant": ("value",), "uniform": ("low", "high"), "lognormal": ("mean", "sd")}

    kind: str | None = None
    value: float | None = None
    low: float | None = None
    high: float | None = None
    mean: float | None = None
    sd: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in self.PARAMS:
            raise ValueError(f"kind must be one of {'|'.join(self.PARAMS)}, got {self.kind!r}")
        given = tuple(name for name, v in vars(self).items() if name != "kind" and v is not None)
        if given != self.PARAMS[self.kind]:
            raise ValueError(f"{self.kind} takes exactly {', '.join(self.PARAMS[self.kind])}, "
                             f"got {', '.join(given) or 'none'}")
        if not all(math.isfinite(getattr(self, name)) for name in given):
            raise ValueError(f"{self.kind} distribution parameters must be finite")
        # high - low is >= 0 exactly when low <= high, and inf when the range overflows
        if self.kind == "uniform" and not 0.0 <= self.high - self.low < math.inf:
            raise ValueError(f"uniform needs 0 <= high - low < inf, got [{self.low}, {self.high}]")
        if self.kind == "lognormal" and (self.mean <= 0.0 or self.sd < 0.0):
            raise ValueError("lognormal needs mean > 0 and sd >= 0")
        if self.kind == "lognormal" and self.sd > 0.0 and not math.isfinite(sum(self._mu_sigma())):
            raise ValueError(f"lognormal mu or sigma not finite for mean {self.mean}, sd {self.sd}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.value)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.sd == 0.0:
            return np.full(size, self.mean)
        return rng.lognormal(*self._mu_sigma(), size)

    def _mu_sigma(self) -> tuple[float, float]:
        """mu and sigma of log X for this mean and sd > 0; nan where a step fails."""
        m2 = self.mean * self.mean
        v = self.sd * self.sd
        try:
            mu = math.log(m2 / math.sqrt(v + m2))
            sigma = math.sqrt(math.log(1.0 + v / m2))
        except (ValueError, ZeroDivisionError):  # log(0), or 0/0 once m2 underflows
            return math.nan, math.nan
        return mu, sigma


@dataclass(frozen=True)
class PopulationSpec:
    """Fleet description: size, parameter distributions, thermostat group
    config, initial-state policy inputs and the master seed."""

    count: int = 1000
    capacitance: ParameterDist = ParameterDist("lognormal", mean=2.5, sd=0.5)
    resistance: ParameterDist = ParameterDist("lognormal", mean=2.0, sd=0.4)
    rated_power: ParameterDist = ParameterDist("uniform", low=3.0, high=5.0)
    cop: ParameterDist = ParameterDist("constant", value=3.5)
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

    # only the failed units are re-drawn and re-checked; ascending indices
    # take the draws in the order a boolean mask would
    bad = np.flatnonzero(invalid(cap, res, power, cop))
    rounds = 0
    while bad.size:
        rounds += 1
        if rounds > _RESAMPLE_ROUNDS:
            raise ConfigError(
                f"population: {bad.size} parameter draws still violate the unit "
                f"invariants after {_RESAMPLE_ROUNDS} resampling rounds; distributions "
                "are incompatible with the thermostat deadband"
            )
        cap[bad] = spec.capacitance.sample(rng, bad.size)
        res[bad] = spec.resistance.sample(rng, bad.size)
        power[bad] = spec.rated_power.sample(rng, bad.size)
        cop[bad] = spec.cop.sample(rng, bad.size)
        bad = bad[invalid(cap[bad], res[bad], power[bad], cop[bad])]

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


@dataclass(eq=False)  # arrays have no truth value: identity equality
class ScenarioSeries:
    """Per-interval records of one run plus the fleet's constants and ThermostatConfig.

    The controlled mask marks the intervals from the scenario's burn-in on,
    which steer to its target; quantization_floor is the per-interval bound
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
    thermostat: ThermostatConfig

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
        comfort_lo = self.thermostat.setpoint - self.thermostat.deadband - 0.1
        comfort_hi = self.thermostat.setpoint + self.thermostat.deadband + 0.1
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
        if len(self) >= 3:  # the sample sd of the load changes needs two of them
            d = np.diff(self.total_kw)
            e = np.frexp(np.max(np.abs(d)))[1]  # d * 2**-e is exact, below 1: no square overflows
            out["load_gradient_sd_kw"] = float(np.ldexp(np.std(np.ldexp(d, -e), ddof=1), e))
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

    seed is the master seed, so Simulation(generate_population(spec), scenario,
    clock, spec.seed).run() returns what run_simulation(spec, scenario, clock) does.
    The kernels write into per-run buffers; population.indoor_temp is updated in place.
    An instance whose run() or run_interval() raised is spent: its state is mid-interval.

    The engine calls scenario.phi_target(sim, phi_now, region) with itself as
    sim from interval scenario.burn_in on. A scenario may read k (the interval
    being decided), inputs, the columns before k and installed_capacity; it
    may change only rng_scenario and scenario_state, a dict each run starts empty.
    """

    _pool = _rows = _ahead = None  # while run() draws ahead: worker, noise rows, pending draw

    def __init__(self, population: Population, scenario, clock: SimulationClock,
                 seed: int, diagnostic_sink=None):
        self.population = population
        self.scenario = scenario
        self.clock = clock
        _, noise_seed, scenario_seed = _streams(seed)
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
            population.cop, clock.dt_minutes / 60.0)
        self.installed_capacity = float(population.rated_power.sum())
        self._max_rated_power = float(population.rated_power.max())
        # workspace: the equilibria, then quantize's arithmetic; the indices
        self._work = np.empty(len(population))
        self._index = np.empty(len(population), dtype=np.int64)
        self.inputs = scenario.prepare(clock, self.rng_scenario)

    def run_interval(self) -> None:
        """Run interval k's report/decide/actuate cycle and record it; run() names k in errors."""
        k, sd = self.k, self.population.process_noise_sd
        if self._ahead is not None:  # drawn on run()'s worker while interval k - 1 ran
            noise = self._ahead.result()  # a failed draw raises here: run() names interval k
        else:  # passed inline, the noise draw is freed as soon as the step returns
            noise = self.rng_noise.normal(0.0, sd, len(self.population)) if sd > 0.0 else 0.0
        self._ahead = (self._pool.submit(self._draw, self._rows[1 - k % 2], sd)
                       if self._pool is not None and k + 1 < self.clock.horizon else None)
        try:
            self._interval(noise)
        finally:  # waits for the draw: the worker is idle at every interval boundary
            if self._ahead is not None:
                self._ahead.exception()

    def _interval(self, noise) -> None:
        """The seven steps of interval k under the given process noise."""
        pop = self.population
        cfg = pop.thermostat
        k = self.k
        cols = self.columns
        inputs = self.inputs
        nominal_kw = float(inputs.nominal_kw[k])
        wind_kw = float(inputs.wind_kw[k])

        # (1) thermal evolution under this interval's outdoor temperature
        outdoor = float(inputs.outdoor_c[k])
        thermal_step(pop.indoor_temp, pop.machine_state, self._decay, self._lift, outdoor,
                     noise, out=pop.indoor_temp, work=self._work)
        min_theta = float(np.minimum.reduce(pop.indoor_temp))
        max_theta = float(np.maximum.reduce(pop.indoor_temp))
        if not (math.isfinite(min_theta) and math.isfinite(max_theta)):
            unit = int(np.flatnonzero(~np.isfinite(pop.indoor_temp))[0])
            raise EngineError(f"indoor temperature of unit {unit} is {pop.indoor_temp[unit]!r}")

        # (2) quantized power-state reports
        m = quantize(pop.indoor_temp, cfg, out=self._index, work=self._work)

        # (3) power density pair
        pddf = aggregator.build_pddf_from_arrays(pop.machine_state, m,
                                                 pop.rated_power, cfg)
        region = aggregator.feasible_region(pddf)
        phi_now = aggregator.capacity_factor(pddf)
        phi_hold = aggregator.cff(pddf, cfg.resolution // 2)

        # (4) scenario target from its burn-in on; before it, hold the zero offset
        controlled = k >= self.scenario.burn_in
        target = self.scenario.phi_target(self, phi_now, region) if controlled else phi_hold

        # (5) optimal common set-point index
        decision = aggregator.select_setpoint(pddf, target)

        # (6) synchronized switch on the reported indices
        n_new = hysteresis_update(pop.machine_state, m, decision.ms_star, cfg)
        switched = n_new != pop.machine_state
        pop.machine_state = n_new

        # (7) realized aggregate and bookkeeping
        phi_realized = float(np.add.reduce(pop.rated_power.compress(n_new.view(bool)))
                             / self.installed_capacity)
        if not abs(phi_realized - decision.phi_predicted) <= 1e-9:  # a NaN fails too
            raise EngineError(f"realized capacity factor {phi_realized!r} "
                              f"deviates from prediction {decision.phi_predicted!r}")
        heatpump_kw = self.installed_capacity * phi_realized
        # one row per name of _FLOAT_COLUMNS, in its order; sum/size is ndarray.mean
        self._floats[:, k] = (
            heatpump_kw, nominal_kw + heatpump_kw - wind_kw, phi_realized,
            decision.phi_target, decision.u, decision.phi_min, decision.phi_max,
            np.add.reduce(pop.indoor_temp) / pop.indoor_temp.size, decision.phi_predicted,
            self._max_rated_power / self.installed_capacity
            + aggregator.max_cff_increment(pddf),
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
        """Run the intervals left in the horizon and return the series. An
        Exception in an interval is raised as an EngineError naming that interval."""
        n, sd = len(self.population), self.population.process_noise_sd
        cpus = getattr(os, "sched_getaffinity", lambda pid: {pid})(0)  # one if not listed
        if sd > 0.0 and n >= _DRAW_AHEAD_UNITS and len(cpus) >= 2:  # one worker for the run
            from concurrent.futures import ThreadPoolExecutor  # loaded only where it is used
            self._pool, self._rows = ThreadPoolExecutor(1), np.empty((2, n))
        try:
            while self.k < self.clock.horizon:
                self.run_interval()
        except Exception as exc:  # k counts only completed intervals: k is the failing one
            raise EngineError(f"interval {self.k}: {exc}") from exc
        finally:
            if self._pool is not None:  # joins the worker, also on a raise
                self._pool = self._pool.shutdown()  # which returns None
        return self.series()

    def _draw(self, row: np.ndarray, sd: float) -> np.ndarray:
        """Fill row as rng_noise.normal(0.0, sd, row.size) does; only a zero's sign may differ."""
        return np.multiply(self.rng_noise.standard_normal(out=row), sd, out=row)

    def series(self) -> ScenarioSeries:
        pop = self.population
        return ScenarioSeries(
            k=np.arange(self.k),
            nominal_kw=self.inputs.nominal_kw[:self.k],
            wind_kw=self.inputs.wind_kw[:self.k],
            **{name: column[:self.k] for name, column in self.columns.items()},
            installed_capacity=self.installed_capacity,
            population_size=len(pop),
            thermostat=pop.thermostat,
        )


def run_simulation(spec: PopulationSpec, scenario, clock: SimulationClock,
                   diagnostic_sink=None) -> ScenarioSeries:
    """Generate the fleet from the spec and run the full horizon.

    Fully deterministic for a fixed spec seed: the population, process noise
    and scenario each consume an independent child stream of the master seed.
    """
    return Simulation(generate_population(spec), scenario, clock, spec.seed,
                      diagnostic_sink=diagnostic_sink).run()

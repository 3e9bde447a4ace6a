"""A naive reference of the engine's interval loop, written from the paper's steps.

Each interval: (1) evolve every building's temperature, (2) quantize the
reports, (3) build the power density pair, (4) ask the scenario for a target,
(5) pick the set-point index by an exhaustive scan, (6) switch every unit on
its reported index, (7) record the realized aggregate. The thermal step, the
quantizer and the deadband rule are written out as formulas; the pair and
its CFF come from the public aggregator. It draws the noise with rng.normal
and keeps one Python list per column, so it shares no buffer, no search and
no record layout with heatfleet.engine.Simulation. run_reference returns the
per-interval columns of a ScenarioSeries, by name.
"""

from types import SimpleNamespace

import numpy as np

from heatfleet.aggregator import (build_pddf_from_arrays, capacity_factor, cff,
                                  feasible_region, max_cff_increment)
from heatfleet.engine import generate_population


def run_reference(spec, scenario, clock) -> dict:
    pop = generate_population(spec)
    cfg, r = spec.thermostat, spec.thermostat.resolution
    # parameters, process noise and scenario: three streams off the master seed
    _, noise_seed, scenario_seed = np.random.SeedSequence(spec.seed).spawn(3)
    rng_noise = np.random.default_rng(noise_seed)
    rng_scenario = np.random.default_rng(scenario_seed)
    # the exact exponential step: decay exp(-dt/(C R_th)), heating lift cop P_h R_th
    decay = np.exp(-(clock.dt_minutes / 60.0) / (pop.capacitance * pop.resistance))
    lift = pop.cop * pop.rated_power * pop.resistance
    capacity = float(pop.rated_power.sum())
    theta, n, sd = pop.indoor_temp, pop.machine_state, spec.process_noise_sd
    inputs = scenario.prepare(clock, rng_scenario)
    cols = {name: [] for name in (
        "nominal_kw", "wind_kw", "heatpump_kw", "total_kw", "phi", "phi_target", "u", "phi_min",
        "phi_max", "mean_theta", "phi_predicted", "quantization_floor", "controlled",
        "min_theta", "max_theta", "switch_count", "rapid_cycle_count", "ms_star")}
    # the scenario reads the columns of the intervals before k
    sim = SimpleNamespace(inputs=inputs, installed_capacity=capacity, rng_scenario=rng_scenario,
                          scenario_state={}, columns=cols)
    prev_switched = np.zeros(len(pop), dtype=bool)
    for k in range(clock.horizon):
        noise = rng_noise.normal(0.0, sd, len(pop)) if sd > 0.0 else 0.0
        equilibrium = n * lift + float(inputs.outdoor_c[k])  # (1)
        theta = (theta - equilibrium) * decay + equilibrium + noise
        # (2) nearest grid index, halves up, clamped to [0, R]
        m = np.floor((theta - cfg.setpoint + cfg.deadband) / cfg.grid_step + 0.5)
        m = m.clip(0, r).astype(np.int64)
        pddf = build_pddf_from_arrays(n, m, pop.rated_power, cfg)  # (3)
        region = feasible_region(pddf)
        sim.k = k  # (4) from the burn-in on; before it, the zero-offset prediction
        controlled = k >= scenario.burn_in
        target = (scenario.phi_target(sim, capacity_factor(pddf), region) if controlled
                  else cff(pddf, r // 2))
        ms_star = min(range(cfg.ms_min, cfg.ms_max + 1),  # (5)
                      key=lambda s: (abs(target - cff(pddf, s)), abs(s - r // 2)))
        lower, upper = ms_star - r // 4, ms_star + r // 4  # (6) on at <= lower, off at >= upper
        n_new = ((m <= lower) | ((m < upper) & (n != 0))).astype(np.int8)
        switched = n_new != n
        phi = float(pop.rated_power[n_new == 1].sum() / capacity)  # (7)
        heatpump = capacity * phi
        total = float(inputs.nominal_kw[k]) + heatpump - float(inputs.wind_kw[k])
        row = dict(
            nominal_kw=inputs.nominal_kw[k], wind_kw=inputs.wind_kw[k], heatpump_kw=heatpump,
            total_kw=total, phi=phi, phi_target=target, u=cfg.deadband * (2.0 * ms_star / r - 1.0),
            phi_min=region.phi_min, phi_max=region.phi_max, mean_theta=theta.mean(),
            phi_predicted=cff(pddf, ms_star),
            quantization_floor=pop.rated_power.max() / capacity + max_cff_increment(pddf),
            controlled=controlled, min_theta=theta.min(), max_theta=theta.max(),
            switch_count=switched.sum(), rapid_cycle_count=(switched & prev_switched).sum(),
            ms_star=ms_star)
        for name, value in row.items():
            cols[name].append(value)
        n, prev_switched = n_new, switched
    return {name: np.array(values) for name, values in cols.items()}

"""Wire a RunConfig into engine objects, execute scenarios, write output bundles."""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, seriesio
from .config import RunConfig, resolve_output_dir
from .engine import _streams, run_simulation
from .scenarios import generate_weather, power_gradient_density

__all__ = ["write_tracking_outputs", "write_wind_outputs", "generate_wind_file"]


def write_tracking_outputs(config: RunConfig, out_dir: Path | None = None) -> Path:
    """Run the signal-tracking scenario and write its bundle."""
    out = resolve_output_dir(config, out_dir)
    spec = replace(config.population, thermostat=config.thermostat, seed=config.seed,
                   initial_outdoor_temp=config.tracking.outdoor_temp)
    sink = (partial(seriesio.write_pddf_dump, out / "diagnostics" / "tracking")
            if config.diagnostics else None)
    series = run_simulation(spec, config.tracking, config.clock, diagnostic_sink=sink)
    # the summary first: one that is not strict JSON fails before the other files are written
    seriesio.write_summary(out / "summary.json", series.summary())
    seriesio.write_series(out / "tracking_series.csv", series)
    seriesio.write_manifest(out / "manifest.json", config, __version__)
    return out


def write_wind_outputs(config: RunConfig, out_dir: Path | None = None) -> Path:
    """Run the paired wind-regulation experiment and write its bundle: the
    controlled and uncontrolled arms share the seed, population, weather and
    nominal-load realization."""
    out = resolve_output_dir(config, out_dir)
    wind = config.wind
    # the initial duty cycles see the file's first outdoor temperature, which the run
    # reads at t = 0. A synthetic pair's see temp_mean instead, not the outdoor_c[0]
    # that its run reads: 8.0 against 9.52 degC at seed 12345 (ROADMAP items 9 and 13)
    outdoor = (wind.synthetic.temp_mean if wind.series_file is None
               else float(seriesio.ingest_series(wind.series_file, config.clock)[1][0]))
    spec = replace(config.population, thermostat=config.thermostat, seed=config.seed,
                   initial_outdoor_temp=outdoor)
    sink = (partial(seriesio.write_pddf_dump, out / "diagnostics" / "wind_controlled")
            if config.diagnostics else None)
    # a burn-in that outlasts the run: the uncontrolled arm never requests a target
    uncontrolled = replace(wind, burn_in=max(wind.burn_in, config.clock.horizon))
    arms = {"controlled": run_simulation(spec, wind, config.clock, diagnostic_sink=sink),
            "uncontrolled": run_simulation(spec, uncontrolled, config.clock)}
    # the summary first, as in write_tracking_outputs
    seriesio.write_summary(out / "summary.json",
                           {label: series.summary() for label, series in arms.items()})
    for label, series in arms.items():
        seriesio.write_series(out / f"wind_{label}_series.csv", series)
        if len(series) >= 2:
            centers, heights = power_gradient_density(series.total_kw)
            seriesio.write_histogram(out / f"gradient_{label}.csv", centers, heights)
    seriesio.write_manifest(out / "manifest.json", config, __version__)
    return out


def generate_wind_file(config: RunConfig, out_dir: Path | None = None) -> Path:
    """Emit a synthetic exogenous series covering the configured horizon."""
    clock = config.clock
    rng = np.random.default_rng(_streams(config.seed)[2])
    t, wind, temp = generate_weather(config.wind.synthetic, clock.horizon + 1,
                                     clock.dt_minutes, rng)
    path = resolve_output_dir(config, out_dir) / "exogenous_series.csv"
    seriesio.write_exogenous(path, t, wind, temp)
    return path

"""Wire a RunConfig into engine objects, execute scenarios, write output bundles."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, seriesio
from .config import RunConfig, resolve_output_dir
from .engine import _streams, run_simulation
from .scenarios import generate_weather, power_gradient_density

__all__ = ["write_tracking_outputs", "write_wind_outputs", "generate_wind_file"]


def _diagnostic_sink(config: RunConfig, out_dir: Path, label: str):
    """The engine's dump sink, None without diagnostics. Each interval's dump is
    on disk before the interval ends; a failed write raises OSError inside it."""
    if not config.diagnostics:
        return None
    dump_dir = out_dir / "diagnostics" / label

    def sink(k, pddf, decision):
        seriesio.write_pddf_dump(dump_dir / f"pddf_k{k:06d}.npy", k, pddf, decision)

    return sink


def write_tracking_outputs(config: RunConfig, out_dir: Path | None = None) -> Path:
    """Run the signal-tracking scenario and write its bundle."""
    out = resolve_output_dir(config, out_dir)
    spec = replace(config.population, thermostat=config.thermostat, seed=config.seed,
                   initial_outdoor_temp=config.tracking.outdoor_temp)
    series = run_simulation(spec, config.tracking, config.clock,
                            diagnostic_sink=_diagnostic_sink(config, out, "tracking"))
    seriesio.write_series(out / "tracking_series.csv", series)
    seriesio.write_manifest(out / "manifest.json", config, __version__)
    seriesio.write_summary(out / "summary.json", series.summary())
    return out


def write_wind_outputs(config: RunConfig, out_dir: Path | None = None) -> Path:
    """Run the paired wind-regulation experiment and write its bundle: the
    controlled and uncontrolled arms share the seed, population, weather and
    nominal-load realization."""
    out = resolve_output_dir(config, out_dir)
    wind = config.wind
    # the initial duty cycles see the outdoor temperature the run reads at t = 0
    outdoor = (wind.synthetic.temp_mean if wind.series_file is None
               else float(seriesio.ingest_series(wind.series_file, config.clock)[1][0]))
    spec = replace(config.population, thermostat=config.thermostat, seed=config.seed,
                   initial_outdoor_temp=outdoor)
    sink = _diagnostic_sink(config, out, "wind_controlled")
    arms = {"controlled": run_simulation(spec, replace(wind, controlled=True), config.clock,
                                         diagnostic_sink=sink),
            "uncontrolled": run_simulation(spec, replace(wind, controlled=False), config.clock)}
    for label, series in arms.items():
        seriesio.write_series(out / f"wind_{label}_series.csv", series)
        if len(series) >= 2:
            centers, heights = power_gradient_density(series.total_kw)
            seriesio.write_histogram(out / f"gradient_{label}.csv", centers, heights)
    seriesio.write_manifest(out / "manifest.json", config, __version__)
    seriesio.write_summary(out / "summary.json",
                           {label: series.summary() for label, series in arms.items()})
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

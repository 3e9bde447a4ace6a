"""Wire a RunConfig into engine objects, execute scenarios, write output bundles."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import __version__, seriesio
from .config import RunConfig, resolve_output_dir
from .engine import PopulationSpec, ScenarioSeries, _streams, run_simulation
from .scenarios import generate_weather, power_gradient_density

__all__ = [
    "build_population_spec",
    "run_tracking",
    "run_wind",
    "write_tracking_outputs",
    "write_wind_outputs",
    "generate_wind_file",
]


def build_population_spec(config: RunConfig) -> PopulationSpec:
    if config.scenario == "wind":
        initial_outdoor = config.wind.synthetic.temp_mean
    else:
        initial_outdoor = config.tracking.outdoor_temp_c
    return config.population.spec(thermostat=config.thermostat,
                                  initial_outdoor_temp=initial_outdoor, seed=config.seed)


def _wind_weather(config: RunConfig):
    if config.wind.series_file is None:
        return config.wind.synthetic
    return seriesio.ingest_series(config.wind.series_file, config.clock)


def _diagnostic_sink(config: RunConfig, out_dir: Path, label: str):
    if not config.diagnostics:
        return None
    dump_dir = out_dir / "diagnostics" / label

    def sink(k, pddf, decision):
        seriesio.write_pddf_dump(dump_dir / f"pddf_k{k:06d}.csv", k, pddf, decision)

    return sink


def run_tracking(config: RunConfig, diagnostic_sink=None) -> ScenarioSeries:
    """Run the signal-tracking scenario described by the config."""
    return run_simulation(build_population_spec(config), config.tracking.scenario(),
                          config.clock, diagnostic_sink=diagnostic_sink)


def run_wind(config: RunConfig, diagnostic_sink=None
             ) -> tuple[ScenarioSeries, ScenarioSeries]:
    """Run the paired wind-regulation experiment: controlled and uncontrolled
    arms share the seed, population, weather and nominal-load realization."""
    spec = build_population_spec(config)
    weather = _wind_weather(config)
    arms = []
    for controlled in (True, False):
        scenario = config.wind.scenario(weather, controlled)
        sink = diagnostic_sink if controlled else None
        arms.append(run_simulation(spec, scenario, config.clock, diagnostic_sink=sink))
    return arms[0], arms[1]


def write_tracking_outputs(config: RunConfig, out_dir: Path | None = None) -> Path:
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(config)
    series = run_tracking(config, diagnostic_sink=_diagnostic_sink(config, out, "tracking"))
    seriesio.write_series(out / "tracking_series.csv", series)
    seriesio.write_manifest(out / "manifest.json", config, __version__)
    seriesio.write_summary(out / "summary.json", series.summary())
    return out


def write_wind_outputs(config: RunConfig, out_dir: Path | None = None) -> Path:
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(config)
    controlled, uncontrolled = run_wind(
        config, diagnostic_sink=_diagnostic_sink(config, out, "wind_controlled"))
    seriesio.write_series(out / "wind_controlled_series.csv", controlled)
    seriesio.write_series(out / "wind_uncontrolled_series.csv", uncontrolled)
    for label, series in (("controlled", controlled), ("uncontrolled", uncontrolled)):
        if len(series) >= 2:
            centers, heights = power_gradient_density(series.total_kw)
            seriesio.write_histogram(out / f"gradient_{label}.csv", centers, heights)
    seriesio.write_manifest(out / "manifest.json", config, __version__)
    seriesio.write_summary(out / "summary.json", {
        "controlled": controlled.summary(),
        "uncontrolled": uncontrolled.summary(),
    })
    return out


def generate_wind_file(config: RunConfig, out_dir: Path | None = None) -> Path:
    """Emit a synthetic exogenous series covering the configured horizon."""
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(config)
    clock = config.clock
    rng = np.random.default_rng(_streams(config.seed)[2])
    t, wind, temp = generate_weather(config.wind.synthetic, clock.horizon + 1,
                                     clock.dt_minutes, rng)
    path = out / "exogenous_series.csv"
    seriesio.write_exogenous(path, t, wind, temp)
    return path

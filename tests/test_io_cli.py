"""Config, series file and CLI tests, including manifest reproducibility."""

import dataclasses
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from heatfleet.cli import main
from heatfleet.config import RunConfig, _decode, config_from_dict, load_raw
from heatfleet.engine import SimulationClock
from heatfleet.errors import ConfigError, SeriesError
from heatfleet.scenarios import (
    SyntheticWeather,
    TrackingScenario,
    generate_weather,
    turbine_power,
)
from heatfleet.runner import generate_wind_file, write_tracking_outputs
from heatfleet.seriesio import (
    ingest_series,
    read_series,
    write_exogenous,
    write_manifest,
    write_summary,
)

SMALL_WIND = {
    "scenario": "wind",
    "seed": 77,
    "clock": {"horizon": 120},
    "population": {"count": 80},
    "thermostat": {"resolution": 200},
    "wind": {"burn_in": 10},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestLoadConfig:
    def test_minimal_tracking_gets_defaults(self, tmp_path):
        cfg = config_from_dict(load_raw(write_config(tmp_path, {"scenario": "tracking"})))
        assert cfg.scenario == "tracking"
        assert cfg.thermostat.resolution == 1000
        assert cfg.population.count == 1000
        assert cfg.clock.horizon == 400
        assert cfg.tracking.burn_in == 100
        assert cfg.population.capacitance.kind == "lognormal"

    def test_wind_scenario_defaults(self, tmp_path):
        cfg = config_from_dict(load_raw(write_config(tmp_path, {"scenario": "wind"})))
        assert cfg.population.count == 2000
        assert cfg.clock.horizon == 1440
        assert cfg.wind.turbine.rated_power == 2500.0
        assert cfg.wind.turbine.turbine_count == 2

    def test_paper_tracking_setup_accepted(self, tmp_path):
        cfg = config_from_dict(load_raw(write_config(tmp_path, {
            "scenario": "tracking",
            "population": {"count": 1000},
            "thermostat": {"setpoint_c": 20.0, "deadband_c": 1.0, "resolution": 1000},
        })))
        assert cfg.thermostat.setpoint == 20.0
        assert cfg.thermostat.deadband == 1.0

    def test_resolution_divisibility_named_in_error(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "tracking",
                                       "thermostat": {"resolution": 1001}})
        with pytest.raises(ConfigError, match="divisible by 8"):
            config_from_dict(load_raw(path))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(load_raw(write_config(tmp_path, {"scenario": "tracking", "typo": 1})))

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError, match="^config root: scenario must be 'tracking' or "
                                              "'wind', got 'cooling'$"):
            config_from_dict({"scenario": "cooling"})

    def test_run_config_checks_its_scenario(self):
        # built in code, not only through config_from_dict
        with pytest.raises(ValueError, match="^scenario must be 'tracking' or 'wind', "
                                             "got 'cooling'$"):
            RunConfig(scenario="cooling")

    def test_wind_burn_in_floor(self):
        with pytest.raises(ConfigError, match="burn_in"):
            config_from_dict({"scenario": "wind", "wind": {"burn_in": 1}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_raw(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_raw(path)

    def test_missing_series_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            config_from_dict({"scenario": "wind",
                              "wind": {"series_file": str(tmp_path / "nope.csv")}})

    def test_field_type_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="clock.dt_minutes"):
            config_from_dict({"clock": {"dt_minutes": "fast"}})
        with pytest.raises(ConfigError, match="population.count"):
            config_from_dict({"population": {"count": 10.5}})

    def test_manifest_round_trip(self, tmp_path):
        original = config_from_dict(SMALL_WIND)
        path = tmp_path / "manifest.json"
        write_manifest(path, original, "0.1.0")
        assert config_from_dict(load_raw(path)) == original

    def test_dict_round_trip(self):
        cfg = config_from_dict(SMALL_WIND)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_readme_example_is_the_resolved_wind_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```json\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
        assert json.loads(block) == config_from_dict({"scenario": "wind"}).to_dict()

    def test_null_stands_for_the_default(self):
        nulls = {"scenario": "wind", "seed": None, "clock": {"horizon": None},
                 "population": {"count": None, "cop": None}, "tracking": None,
                 "wind": {"series_file": None, "nominal": {"anchors": None}}}
        assert config_from_dict(nulls) == config_from_dict({"scenario": "wind"})


# every value here fails when the config loads, with an error that names its
# JSON section
INVALID_AT_LOAD = [
    # rejected by a domain class, but accepted by the config before it
    # decoded into the domain classes, so the run failed midway with exit 1
    ("wind.turbine", {"wind": {"turbine": {"rated_power_kw": 0}}}),
    ("wind.turbine", {"wind": {"turbine": {"rated_power_kw": -5}}}),
    ("wind.synthetic", {"wind": {"synthetic": {"wind_sd_mps": -1}}}),
    ("wind.synthetic", {"wind": {"synthetic": {"temp_sd_c": -0.5}}}),
    ("wind.synthetic", {"wind": {"synthetic": {"wind_reversion_per_h": 0}}}),
    ("wind.synthetic", {"wind": {"synthetic": {"temp_reversion_per_h": 0}}}),
    ("wind.synthetic", {"wind": {"synthetic": {"temp_reversion_per_h": -0.2}}}),
    ("config root", {"seed": -1}),
    ("clock.dt_minutes", {"clock": {"dt_minutes": 10**400}}),  # was an uncaught OverflowError
    # keys that do not belong to the chosen dist
    ("population.rated_power_kw",
     {"population": {"rated_power_kw": {"dist": "uniform", "low": 3, "high": 5, "sd": 1}}}),
    ("population.cop", {"population": {"cop": {"dist": "constant", "value": 3.5, "mean": 3.5}}}),
    ("population.capacitance_kwh_per_c", {"population": {"capacitance_kwh_per_c": {
        "dist": "lognormal", "mean": 2.5, "sd": 0.5, "value": 2}}}),
    # checked by the run's objects, which the section classes build
    ("population", {"population": {"count": 0}}),
    ("population", {"population": {"process_noise_sd_c": -0.1}}),
    ("tracking", {"tracking": {"burn_in": -1}}),
    ("tracking", {"tracking": {"ar_coefficient": 1}}),
    ("wind", {"wind": {"burn_in": 1}}),
    ("wind", {"wind": {"start_hour": 24}}),
    ("clock", {"clock": {"dt_minutes": 0}}),
    # set by the run, so never read from a file (see RUN_SET_KEYS)
    ("population", {"population": {"seed": 7}}),
    ("population", {"population": {"thermostat": {"resolution": 8}}}),
    ("population", {"population": {"initial_outdoor_temp": 4.0}}),
    ("wind", {"wind": {"controlled": False}}),
    # finite values whose derived quantities overflow: high - low, the lognormal's
    # mu and sigma, the farm's rated output. Each failed midway with exit 1, or
    # was blamed on the deadband after 100 resampling rounds
    ("population.capacitance_kwh_per_c", {"population": {"capacitance_kwh_per_c": {
        "dist": "uniform", "low": -1e308, "high": 1e308}}}),
    ("population.capacitance_kwh_per_c", {"population": {"capacitance_kwh_per_c": {
        "dist": "lognormal", "mean": 2.5, "sd": 1e200}}}),
    ("population.capacitance_kwh_per_c", {"population": {"capacitance_kwh_per_c": {
        "dist": "lognormal", "mean": 1e-200, "sd": 1e-200}}}),
    ("population.capacitance_kwh_per_c", {"population": {"capacitance_kwh_per_c": {
        "dist": "lognormal", "mean": 1e200, "sd": 1e200}}}),
    ("population.capacitance_kwh_per_c", {"population": {"capacitance_kwh_per_c": {
        "dist": "lognormal", "mean": 1e-100, "sd": 1e100}}}),  # mu finite, sigma inf
    ("wind.turbine", {"wind": {"turbine": {"rated_power_kw": 1e308, "count": 2}}}),
    # a distribution checks its own kind and parameters, as a ParameterDist built in code does
    ("population.cop", {"population": {"cop": {"dist": "beta", "value": 3.5}}}),
    ("population.cop", {"population": {"cop": {"value": 3.5}}}),
    ("population.rated_power_kw", {"population": {"rated_power_kw": {
        "dist": "uniform", "low": 3}}}),
    ("population.rated_power_kw", {"population": {"rated_power_kw": {
        "dist": "uniform", "low": 3, "high": None}}}),
    # the turbine curve's cubic rise overflows: an uncaught OverflowError, then
    # "wind_kw must be finite", each with exit 1 midway
    ("wind.turbine", {"wind": {"turbine": {"rated_mps": 1e200, "cut_out_mps": 1e201}}}),
    ("wind.turbine", {"wind": {"turbine": {"rated_power_kw": 1e308, "count": 1}}}),
    # the value's type, shape or range
    ("output_dir", {"output_dir": 5}),
    ("diagnostics", {"diagnostics": "yes"}),
    ("clock", {"clock": 5}),
    ("wind.nominal.anchors", {"wind": {"nominal": {"anchors": {"0": 2500}}}}),
    ("wind.nominal.anchors[1]", {"wind": {"nominal": {"anchors": [[0, 2500], [12, 3500, 1]]}}}),
    ("wind.nominal", {"wind": {"nominal": {"anchors": [[0, 2500], [24, 3500]]}}}),
    ("wind.nominal", {"wind": {"nominal": {"off_peak_kw": 0}}}),
    ("wind.turbine", {"wind": {"turbine": {"count": -1}}}),
    # 2 * deadband overflows, so the grid step is inf: a run failed only
    # after 100 resampling rounds, blamed on population
    ("thermostat", {"thermostat": {"deadband_c": 1e308}}),
]

# the domain fields that the run sets: they have no JSON key
RUN_SET_KEYS = {"population": ["seed", "thermostat", "initial_outdoor_temp"]}


@pytest.mark.parametrize("path, data", INVALID_AT_LOAD)
def test_invalid_value_rejected_at_load(tmp_path, capsys, path, data):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
        config_from_dict(data)
    config = write_config(tmp_path, data)
    assert main(["wind", "--config", str(config), "--out", str(tmp_path / "w")]) == 2
    assert main(["gen-wind", "--config", str(config), "--out", str(tmp_path / "g")]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "w").exists() and not (tmp_path / "g").exists()


def test_config_root_must_be_an_object(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^config root: expected an object"):
        config_from_dict([])
    config = write_config(tmp_path, [{"scenario": "wind"}])
    assert main(["wind", "--config", str(config), "--out", str(tmp_path / "w")]) == 2
    assert f"config error: {config}: config root: expected an object, got [" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_run_set_fields_are_unknown_keys():
    for section, keys in RUN_SET_KEYS.items():
        for key in keys:
            with pytest.raises(ConfigError, match=rf"^{section}: unknown keys \['{key}'\]"):
                config_from_dict({section: {key: None}})
        assert not set(keys) & config_from_dict({}).to_dict()[section].keys()


@pytest.mark.parametrize("seed", range(4))
def test_nominal_profile_near_the_float_range_exits_2_at_every_seed(tmp_path, capsys, seed):
    # whether the fluctuation draws pushed this profile past the float range
    # used to depend on the seed; the load check now refuses it at every seed
    config = write_config(tmp_path, {"wind": {"nominal": {
        "anchors": [[0, 1.797e308]], "off_peak_kw": 1e307}}})
    out = tmp_path / "w"
    assert main(["wind", "--config", str(config), "--seed", str(seed), "--out", str(out)]) == 2
    assert "config error: wind.nominal: the largest anchor plus 40" in capsys.readouterr().err
    assert not out.exists()


def test_a_field_without_a_json_form_fails_when_its_section_is_decoded():
    # every config field needs a decoder; a new field of another type must
    # fail loudly rather than pass its JSON value through unchecked
    @dataclasses.dataclass(frozen=True)
    class Section:
        values: list[int] = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match=r"^no JSON form for list\[int\]$"):
        _decode(Section, {}, "section")


@pytest.mark.parametrize("command", ["track", "wind"])
def test_infeasible_fleet_exits_2(tmp_path, capsys, command):
    # no draw of a constant cop of 0.1 can lift a unit across the deadband: the
    # config is at fault, though only the fleet draw can find that out
    config = write_config(tmp_path, {"population": {
        "count": 10, "cop": {"dist": "constant", "value": 0.1}}})
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: population: 10 parameter draws")
    assert "resampling" in err
    assert not out.exists()


class TestIngestSeries:
    def make_file(self, tmp_path, rows, header="timestamp,wind_speed_mps,outdoor_temp_c"):
        path = tmp_path / "series.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def test_constant_series_runs_turbine_at_rated(self, tmp_path):
        clock = SimulationClock(1.0, 50)
        rows = [f"{t},12.0,8.0" for t in range(0, 52)]
        wind, temp = ingest_series(self.make_file(tmp_path, rows), clock)
        assert len(wind) == 51
        cfg = config_from_dict({"scenario": "wind"})
        power = turbine_power(wind, cfg.wind.turbine)
        assert (power == 5000.0).all()
        assert (temp == 8.0).all()

    def test_short_series_rejected_citing_coverage_rule(self, tmp_path):
        clock = SimulationClock(1.0, 50)
        rows = [f"{t},12.0,8.0" for t in range(0, 50)]  # ends at 49 < 50
        with pytest.raises(SeriesError, match="through 50.0 min, horizon x dt: 51 grid points, "
                                              "the last read by no interval"):
            ingest_series(self.make_file(tmp_path, rows), clock)

    def test_non_monotonic_rejected(self, tmp_path):
        rows = ["0,10,8", "2,10,8", "1,10,8", "3,10,8"]
        with pytest.raises(SeriesError, match="strictly increasing"):
            ingest_series(self.make_file(tmp_path, rows), SimulationClock(1.0, 2))

    def test_non_numeric_rejected(self, tmp_path):
        rows = ["0,10,8", "1,fast,8", "2,10,8"]
        with pytest.raises(SeriesError, match="non-numeric"):
            ingest_series(self.make_file(tmp_path, rows), SimulationClock(1.0, 1))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_rejected_on_its_line(self, tmp_path, value):
        rows = ["0,10,8", f"1,10,{value}", "2,10,8"]
        with pytest.raises(SeriesError, match=r"series\.csv:3: non-finite value"):
            ingest_series(self.make_file(tmp_path, rows), SimulationClock(1.0, 1))

    def test_wrong_header_rejected(self, tmp_path):
        path = self.make_file(tmp_path, ["0,10,8"], header="time,wind,temp")
        with pytest.raises(SeriesError, match="expected header"):
            ingest_series(path, SimulationClock(1.0, 0))

    def test_negative_wind_rejected(self, tmp_path):
        rows = ["0,-1,8", "1,10,8"]
        with pytest.raises(SeriesError, match=">= 0"):
            ingest_series(self.make_file(tmp_path, rows), SimulationClock(1.0, 1))

    @pytest.mark.parametrize("text, message", [
        ("", ": empty file"),
        ("timestamp,wind_speed_mps,outdoor_temp_c\n", ": no data rows"),
        ("timestamp,wind_speed_mps,outdoor_temp_c\n0,10,8\n1,10\n", ":3: expected 3 fields, got 2"),
        ("timestamp,wind_speed_mps,outdoor_temp_c\n0.5,10,8\n1,10,8\n",
         ": first timestamp 0.5 is after the grid start 0"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(SeriesError, match=re.escape(f"{path}{message}")):
            ingest_series(path, SimulationClock(1.0, 1))

    def test_blank_lines_are_skipped(self, tmp_path):
        rows = ["0,4.0,8.0", "1,6.0,9.0"]
        plain = ingest_series(self.make_file(tmp_path, rows), SimulationClock(1.0, 1))
        blank = ingest_series(self.make_file(tmp_path, [rows[0], "", rows[1], ""]),
                              SimulationClock(1.0, 1))
        assert np.array_equal(plain, blank)

    def test_zero_order_hold_resampling(self, tmp_path):
        # samples every 2 minutes, grid every minute: values hold between rows
        rows = ["0,4.0,8.0", "2,6.0,9.0", "4,8.0,10.0"]
        wind, temp = ingest_series(self.make_file(tmp_path, rows), SimulationClock(1.0, 3))
        assert wind.tolist() == [4.0, 4.0, 6.0, 6.0]
        assert temp.tolist() == [8.0, 8.0, 9.0, 9.0]

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        t = np.arange(30) * 1.0
        wind = rng.uniform(0, 20, 30)
        temp = rng.uniform(-5, 15, 30)
        path = tmp_path / "out.csv"
        write_exogenous(path, t, wind, temp)
        got_wind, got_temp = ingest_series(path, SimulationClock(1.0, 29))
        assert np.array_equal(got_wind, wind)
        assert np.array_equal(got_temp, temp)

    def test_generator_output_reingests_identically(self, tmp_path):
        cfg = config_from_dict({"scenario": "wind", "seed": 9,
                                "clock": {"horizon": 40}})
        path = generate_wind_file(cfg, tmp_path)
        got_wind, got_temp = ingest_series(path, SimulationClock(1.0, 40))
        # regenerate with the same stream the runner used
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(3)[2])
        _, wind, temp = generate_weather(SyntheticWeather(), 41, 1.0, rng)
        assert np.array_equal(got_wind, wind)
        assert np.array_equal(got_temp, temp)


class TestCli:
    def test_track_writes_bundle(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "scenario": "tracking",
            "seed": 5,
            "clock": {"horizon": 60},
            "population": {"count": 50},
            "thermostat": {"resolution": 200},
            "tracking": {"burn_in": 10},
        })
        out = tmp_path / "out"
        assert main(["track", "--config", str(config), "--out", str(out)]) == 0
        columns = read_series(out / "tracking_series.csv")
        assert len(columns["k"]) == 60
        for name, values in columns.items():
            assert np.isfinite(values).all(), name
        identity = columns["P_N_kw"] + columns["P_H_kw"] - columns["P_W_kw"]
        assert np.array_equal(columns["P_L_kw"], identity)
        assert (out / "manifest.json").is_file()
        assert (out / "summary.json").is_file()

    def test_wind_writes_paired_bundle(self, tmp_path):
        config = write_config(tmp_path, SMALL_WIND)
        out = tmp_path / "wind_out"
        assert main(["wind", "--config", str(config), "--out", str(out)]) == 0
        for name in ("wind_controlled_series.csv", "wind_uncontrolled_series.csv",
                     "gradient_controlled.csv", "gradient_uncontrolled.csv",
                     "manifest.json", "summary.json"):
            assert (out / name).is_file(), name
        controlled = read_series(out / "wind_controlled_series.csv")
        uncontrolled = read_series(out / "wind_uncontrolled_series.csv")
        # paired arms share the exogenous realization
        assert np.array_equal(controlled["P_N_kw"], uncontrolled["P_N_kw"])
        assert np.array_equal(controlled["P_W_kw"], uncontrolled["P_W_kw"])
        assert (uncontrolled["u_degC"] == 0.0).all()

    def test_wind_zero_capacity_turbines(self, tmp_path):
        data = dict(SMALL_WIND)
        data["wind"] = dict(SMALL_WIND["wind"], turbine={"count": 0})
        config = write_config(tmp_path, data)
        out = tmp_path / "nowind"
        assert main(["wind", "--config", str(config), "--out", str(out)]) == 0
        controlled = read_series(out / "wind_controlled_series.csv")
        assert (controlled["P_W_kw"] == 0.0).all()

    def test_seed_and_horizon_overrides(self, tmp_path):
        config = write_config(tmp_path, {
            "scenario": "tracking",
            "clock": {"horizon": 300},
            "population": {"count": 30},
            "thermostat": {"resolution": 64},
            "tracking": {"burn_in": 5},
        })
        out = tmp_path / "o"
        assert main(["track", "--config", str(config), "--out", str(out),
                     "--seed", "3", "--horizon", "25"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["clock"]["horizon"] == 25
        assert len(read_series(out / "tracking_series.csv")["k"]) == 25

    def test_gradient_of_constant_series(self, tmp_path):
        series_path = tmp_path / "flat.csv"
        rows = ["k,P_N_kw,P_W_kw,P_H_kw,P_L_kw"] + \
            [f"{k},0.0,0.0,5.0,5.0" for k in range(40)]
        series_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "g"
        assert main(["gradient", str(series_path), "--out", str(out)]) == 0
        hist = read_series(out / "gradient.csv")
        assert hist["density"].max() == 1.0
        assert hist["density"].sum() == 1.0

    def test_gradient_of_non_finite_series_exits_3(self, tmp_path, capsys):
        series_path = tmp_path / "holed.csv"
        rows = ["k,P_L_kw"] + [f"{k},5.0" for k in range(5)] + ["5,nan", "6,5.0"]
        series_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "g"
        assert main(["gradient", str(series_path), "--out", str(out)]) == 3
        assert f"series error: {series_path}:7: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        (["k,P_H_kw", "0,5.0", "1,6.0"], "no P_L_kw column"),
        (["k,P_L_kw", "0,5.0"], "need at least two rows to difference"),
    ])
    def test_gradient_of_unusable_series_exits_3(self, tmp_path, capsys, rows, message):
        series_path = tmp_path / "series.csv"
        series_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "g"
        assert main(["gradient", str(series_path), "--out", str(out)]) == 3
        assert f"series error: {series_path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bins", [100, 0, -3])
    def test_gradient_invalid_bins_exits_2(self, tmp_path, capsys, bins):
        series_path = tmp_path / "flat.csv"
        rows = ["k,P_L_kw"] + [f"{k},5.0" for k in range(5)]
        series_path.write_text("\n".join(rows) + "\n")
        message = f"config error: command line: --bins must be a positive odd integer, got {bins}"
        out = tmp_path / "g"
        assert main(["gradient", str(series_path), "--out", str(out), "--bins", str(bins)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "gradient.csv").exists()
        # the option is checked before the series file is read
        assert main(["gradient", str(tmp_path / "missing.csv"), "--bins", str(bins)]) == 2
        assert message in capsys.readouterr().err

    def test_gen_wind_then_run_from_file(self, tmp_path):
        config = write_config(tmp_path, {"scenario": "wind", "seed": 21,
                                         "clock": {"horizon": 30},
                                         "population": {"count": 20},
                                         "thermostat": {"resolution": 64},
                                         "wind": {"burn_in": 5}})
        gen_out = tmp_path / "gen"
        assert main(["gen-wind", "--config", str(config), "--out", str(gen_out)]) == 0
        series_path = gen_out / "exogenous_series.csv"
        assert series_path.is_file()
        data = json.loads(config.read_text())
        data["wind"]["series_file"] = str(series_path)
        config2 = write_config(tmp_path, data, name="config2.json")
        out = tmp_path / "fromfile"
        assert main(["wind", "--config", str(config2), "--out", str(out)]) == 0

    def test_file_driven_wind_ignores_the_synthetic_temp_mean(self, tmp_path):
        # the fleet starts at the file's first outdoor temperature; the synthetic
        # generator, which such a run never calls, has no say in it
        data = {"scenario": "wind", "seed": 8, "clock": {"horizon": 20},
                "population": {"count": 30}, "thermostat": {"resolution": 64},
                "wind": {"burn_in": 5}}
        assert main(["gen-wind", "--config", str(write_config(tmp_path, data)),
                     "--out", str(tmp_path / "gen")]) == 0
        written = []
        for temp_mean in (0.0, 12.0):
            data["wind"] = {"burn_in": 5, "synthetic": {"temp_mean_c": temp_mean},
                            "series_file": str(tmp_path / "gen" / "exogenous_series.csv")}
            out = tmp_path / f"mean{temp_mean}"
            assert main(["wind", "--config", str(write_config(tmp_path, data)),
                         "--out", str(out)]) == 0
            written.append([(out / f"wind_{arm}_series.csv").read_bytes()
                            for arm in ("controlled", "uncontrolled")])
        assert written[0] == written[1]

    def test_relative_series_file_is_read_beside_the_config(self, tmp_path, monkeypatch):
        # the config lives in a/, the run starts in b/, and the rerun of b's
        # manifest in c/
        a, b, c = (tmp_path / name for name in "abc")
        data = {"scenario": "wind", "seed": 4, "clock": {"horizon": 12},
                "population": {"count": 20}, "thermostat": {"resolution": 64},
                "wind": {"burn_in": 5}}
        assert main(["gen-wind", "--config", str(write_config(tmp_path, data)),
                     "--out", str(a / "weather")]) == 0
        data["wind"]["series_file"] = "weather/exogenous_series.csv"
        config = write_config(a, data)
        for cwd in (b, c):
            cwd.mkdir()
        monkeypatch.chdir(b)
        assert main(["wind", "--config", str(config), "--out", "out"]) == 0
        manifest = json.loads((b / "out" / "manifest.json").read_text())
        assert manifest["config"]["wind"]["series_file"] == \
            str(a / "weather" / "exogenous_series.csv")
        monkeypatch.chdir(c)
        assert main(["wind", "--config", str(b / "out" / "manifest.json"), "--out", "out"]) == 0
        for arm in ("controlled", "uncontrolled"):
            name = f"wind_{arm}_series.csv"
            assert (c / "out" / name).read_bytes() == (b / "out" / name).read_bytes()

    def test_load_raw_keeps_an_absolute_or_unset_series_file(self, tmp_path):
        # a section that is not an object is left for the decoder to reject
        absolute = str(tmp_path / "elsewhere" / "series.csv")
        for wind in ({"series_file": absolute}, {"series_file": None}, {"burn_in": 5}, [1]):
            assert load_raw(write_config(tmp_path, {"wind": wind})) == {"wind": wind}

    def test_default_gen_wind_covers_the_default_wind_run(self, tmp_path):
        # gen-wind resolves the wind scenario's horizon, as `wind` does
        assert main(["gen-wind", "--out", str(tmp_path)]) == 0
        path = tmp_path / "exogenous_series.csv"
        assert len(path.read_text().splitlines()) == 1 + 1441
        wind, temp = ingest_series(path, config_from_dict({"scenario": "wind"}).clock)
        assert wind.size == temp.size == 1441

    def test_subcommand_stdout_lines(self, tmp_path, capsys):
        config = write_config(tmp_path, {"seed": 3, "clock": {"horizon": 20},
                                         "population": {"count": 10},
                                         "thermostat": {"resolution": 16},
                                         "tracking": {"burn_in": 5},
                                         "wind": {"burn_in": 5}})
        common = ["--config", str(config), "--out"]
        assert main(["track", *common, str(tmp_path / "t")]) == 0
        assert main(["wind", *common, str(tmp_path / "w")]) == 0
        assert main(["gen-wind", *common, str(tmp_path / "g")]) == 0
        series = tmp_path / "w" / "wind_controlled_series.csv"
        assert main(["gradient", str(series), "--out", str(tmp_path / "h")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"tracking run complete: {tmp_path / 't'}",
            f"wind run complete (controlled + uncontrolled): {tmp_path / 'w'}",
            f"synthetic series written: {tmp_path / 'g' / 'exogenous_series.csv'}",
            f"gradient histogram written: {tmp_path / 'h' / 'gradient.csv'}",
        ]

    @pytest.mark.parametrize("command, options", [
        ("track", ["--config", "--help", "--horizon", "--out", "--seed"]),
        ("wind", ["--config", "--help", "--horizon", "--out", "--seed"]),
        ("gen-wind", ["--config", "--help", "--horizon", "--out", "--seed"]),
        ("gradient", ["--bins", "--help", "--out", "--raw-density"]),
    ])
    def test_subcommand_help_options(self, capsys, command, options):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: heatfleet {command} ")
        assert sorted(set(re.findall(r"--[a-z][a-z-]*", text))) == options
        assert ("series_file" in text) == (command == "gradient")

    @pytest.mark.parametrize("option, message", [
        ("--seed", "command line: seed must be >= 0"),
        ("--horizon", "command line: horizon must be >= 0"),
    ])
    def test_invalid_override_exits_2(self, tmp_path, capsys, option, message):
        assert main(["track", "--out", str(tmp_path / "out"), option, "-1"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_codes(self, tmp_path, capsys):
        bad_config = write_config(tmp_path, {"thermostat": {"resolution": 12}})
        assert main(["track", "--config", str(bad_config)]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["gradient", str(tmp_path / "missing.csv")]) == 3
        assert "series error" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["explode"])
        assert err.value.code == 2

    def test_manifest_rerun_identical_bytes(self, tmp_path):
        config = write_config(tmp_path, SMALL_WIND)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["wind", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["wind", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        names = ["wind_controlled_series.csv", "wind_uncontrolled_series.csv",
                 "gradient_controlled.csv", "gradient_uncontrolled.csv",
                 "summary.json", "manifest.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_one_config_runs_twice_to_the_same_bytes(tmp_path):
    # the tracking scenario that runs is the config's own, a frozen value: its
    # run state lives on each run's Simulation, so nothing carries from one run
    # into the next or into config equality
    raw = {"seed": 5, "clock": {"horizon": 60}, "population": {"count": 50},
           "tracking": {"burn_in": 10}}
    config = config_from_dict(raw)
    first = write_tracking_outputs(config, tmp_path / "first")
    second = write_tracking_outputs(config, tmp_path / "second")
    for name in ("tracking_series.csv", "summary.json", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert config == config_from_dict(raw)


def test_default_runconfig_matches_resolved_empty():
    assert config_from_dict({}) == RunConfig()


def test_runconfig_is_hashable():
    assert hash(RunConfig()) == hash(config_from_dict({}))


def test_every_config_section_is_a_frozen_value():
    # walk the field types from RunConfig down: a section a run could write to
    # would carry state from one run into the next
    seen, pending = set(), [RunConfig]
    while pending:
        tp = pending.pop()
        if dataclasses.is_dataclass(tp) and tp not in seen:
            seen.add(tp)
            assert tp.__dataclass_params__.frozen, tp.__name__
            assert all(f.init for f in dataclasses.fields(tp)), tp.__name__
            pending.extend(typing.get_type_hints(tp).values())
        pending.extend(typing.get_args(tp))
    assert {cls.__name__ for cls in seen} >= {
        "RunConfig", "SimulationClock", "PopulationSpec", "ParameterDist",
        "ThermostatConfig", "TrackingScenario", "WindScenario", "TurbineModel",
        "NominalLoadModel", "SyntheticWeather"}


@pytest.mark.parametrize("command", ["track", "gradient"])
def test_unwritable_output_exits_1_naming_the_path(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n")
    series = tmp_path / "series.csv"
    series.write_text("k,P_L_kw\n0,1.0\n1,2.0\n")
    args = ["track", "--horizon", "5"] if command == "track" else ["gradient", str(series)]
    assert main([*args, "--out", str(afile / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(afile) in err
    assert "Traceback" not in err


def strict_json(path):
    """The JSON in path; a NaN or an infinity in it fails the parse."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon", [0, 1, 2, 3])
@pytest.mark.parametrize("command", ["track", "wind"])
def test_short_runs_write_strict_json(tmp_path, command, horizon):
    # the load changes' sample sd needs two changes: at 2 intervals it divided by zero into NaN
    assert main([command, "--horizon", str(horizon), "--out", str(tmp_path)]) == 0
    strict_json(tmp_path / "manifest.json")
    summary = strict_json(tmp_path / "summary.json")
    for arm in summary.values() if command == "wind" else [summary]:
        assert arm["intervals"] == horizon
        assert ("load_gradient_sd_kw" in arm) == (horizon >= 3)


def test_non_finite_summary_value_exits_1_naming_the_file(tmp_path, capsys):
    # the fleet's temperatures stay finite, but their sum overflows, so the mean
    # temperature is infinite: json.dumps would write it as the non-JSON token Infinity
    config = write_config(tmp_path, {
        "population": {"count": 50, "process_noise_sd_c": 1e307},
        "clock": {"horizon": 20}, "tracking": {"burn_in": 5}})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        assert main(["track", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'summary.json'}: Out of range float values"), err
    assert not (out / "summary.json").exists()
    # the summary is written first, so no other file of the bundle is written either
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_load_changes_give_a_finite_gradient_sd(tmp_path):
    # every input is finite, but the squares of the unscaled load changes overflow: the
    # gradient sd must still be finite, and no overflow warning may escape main
    config = write_config(tmp_path, {
        "population": {"count": 50, "rated_power_kw": {"dist": "constant", "value": 1e306},
                       "cop": {"dist": "constant", "value": 1e-300}},
        "clock": {"horizon": 20}, "tracking": {"burn_in": 5}})
    out = tmp_path / "out"
    assert main(["track", "--config", str(config), "--out", str(out)]) == 0
    strict_json(out / "manifest.json")
    assert 1e305 < strict_json(out / "summary.json")["load_gradient_sd_kw"] < 1e308


def test_non_finite_wind_summary_leaves_no_bundle(tmp_path, capsys):
    # the fleet's temperatures stay finite, but their sum overflows, so the mean
    # temperature is infinite and the summary's statistics of it are not numbers
    config = write_config(tmp_path, {
        "scenario": "wind", "population": {"count": 50, "process_noise_sd_c": 1e307},
        "clock": {"horizon": 20}, "wind": {"burn_in": 5}})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        assert main(["wind", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'summary.json'}: Out of range float values"), err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_wind_sd_runs_to_finite_output(tmp_path):
    # the synthetic wind speeds reach about 1e300, far past the cut-out: the run must
    # neither warn nor write a non-finite number
    config = write_config(tmp_path, {
        "scenario": "wind", "population": {"count": 50}, "clock": {"horizon": 20},
        "wind": {"burn_in": 5, "synthetic": {"wind_sd_mps": 1e300}}})
    out = tmp_path / "out"
    assert main(["wind", "--config", str(config), "--out", str(out)]) == 0
    strict_json(out / "summary.json")
    for path in sorted(out.glob("*.csv")):
        read_series(path)  # fails on a non-finite field, naming its line


@pytest.mark.parametrize("name", ["summary", "manifest"])
def test_json_writers_refuse_non_finite_numbers(tmp_path, name):
    path = tmp_path / f"{name}.json"
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float values")):
        if name == "summary":
            write_summary(path, {"load_gradient_sd_kw": float("nan")})
        else:  # a config built in code is not checked for finite numbers as a file is
            write_manifest(path, RunConfig(tracking=TrackingScenario(outdoor_temp=float("inf"))),
                           "0")
    assert not path.exists()


@pytest.mark.parametrize("command", ["track", "wind"])
def test_output_under_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch, command):
    from heatfleet.engine import Simulation

    def no_interval(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(Simulation, "run_interval", no_interval)
    afile = tmp_path / "afile"
    afile.write_text("a regular file\n")
    out = afile / "x" / "y"
    assert main([command, "--horizon", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: output directory {out}: {afile} is not a directory\n"


def test_output_dir_environment_fallback(tmp_path, monkeypatch):
    from heatfleet.config import resolve_output_dir

    monkeypatch.setenv("HEATFLEET_OUT", str(tmp_path / "from_env"))
    assert resolve_output_dir(RunConfig()) == tmp_path / "from_env"
    # an explicit config value wins over the environment
    cfg = config_from_dict({"output_dir": str(tmp_path / "explicit")})
    assert resolve_output_dir(cfg) == tmp_path / "explicit"
    # --out wins over both
    assert resolve_output_dir(cfg, tmp_path / "flag") == tmp_path / "flag"
    monkeypatch.delenv("HEATFLEET_OUT")
    assert str(resolve_output_dir(RunConfig())) == "heatfleet_out"


def test_gradient_writes_to_out_or_the_current_directory(tmp_path, monkeypatch):
    # gradient takes no config, so neither output_dir nor $HEATFLEET_OUT applies
    series = tmp_path / "series.csv"
    series.write_text("k,P_L_kw\n0,1.0\n1,2.0\n2,4.0\n")
    monkeypatch.setenv("HEATFLEET_OUT", str(tmp_path / "from_env"))
    monkeypatch.chdir(tmp_path)
    assert main(["gradient", str(series)]) == 0
    assert (tmp_path / "gradient.csv").is_file()
    assert main(["gradient", str(series), "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "gradient.csv").is_file()
    assert not (tmp_path / "from_env").exists()


def test_diagnostic_dumps_written(tmp_path):
    config = write_config(tmp_path, {
        "scenario": "tracking",
        "seed": 2,
        "clock": {"horizon": 4},
        "population": {"count": 12},
        "thermostat": {"resolution": 16},
        "tracking": {"burn_in": 1},
        "diagnostics": True,
    })
    out = tmp_path / "diag"
    assert main(["track", "--config", str(config), "--out", str(out)]) == 0
    dumps = sorted((out / "diagnostics" / "tracking").glob("pddf_k*.npy"))
    assert [p.name for p in dumps] == [f"pddf_k{k:06d}.npy" for k in range(4)]
    record = np.load(dumps[0])
    assert record["k"] == 0 and record["ms_min"] == 6 and record["ms_max"] == 10
    assert record["phi0"].shape == record["phi1"].shape == (17,)  # one per grid point
    cfg = config_from_dict(load_raw(config))
    step = 2 * cfg.thermostat.deadband / cfg.thermostat.resolution
    assert ((record["phi0"] + record["phi1"]) * step).sum() == pytest.approx(1.0, abs=1e-9)

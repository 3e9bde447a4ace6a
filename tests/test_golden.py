"""Golden-byte gate: the default runs must reproduce their committed bytes.

The kernels may be rewritten for speed, but never so that a floating-point
operation is reordered or replaced: every output byte must stay the same.
The tracking bundle is compared with the committed ``heatfleet_out/``; a
small wind pair is compared by sha256 with digests of the same run taken
before the kernel rewrite, and the per-interval PDDF dumps of a small
tracking run with a digest taken over their CSV text form, rebuilt from the
run's .npy records.
The manifest of a config that sets every key, and the series that
``gen-wind`` writes for it, are pinned by digests taken before the config
layer was rewritten; the wind pair that runs from that series file, by
digests retaken when a file-driven fleet began to start at the file's first
outdoor temperature instead of the unused synthetic mean. The fleet that ``generate_population`` draws on both
reachable duty-cycle branches, and every column of a saturation run, are
pinned by digests taken before the scalar per-unit API was removed.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from heatfleet import runner
from heatfleet.config import config_from_dict
from heatfleet.engine import PopulationSpec, SimulationClock, generate_population, run_simulation
from heatfleet.scenarios import SaturationScenario
from dump_oracle import pddf_dump_oracle, read_dump

GOLDEN_TRACK = Path(__file__).resolve().parents[1] / "heatfleet_out"

# N = 200, horizon 300, synthetic weather, no diagnostics, seed 12345
WIND_DIGESTS = {
    "wind_controlled_series.csv":
        "18bbfd8ea16f0031a33b129e5b2f2263f048eb209fa1f9bb441e99d259635e3b",
    "wind_uncontrolled_series.csv":
        "66256811493a6d5891997ee17791d751934c27eeb36488ffbc438a25f11daf30",
    "gradient_controlled.csv":
        "d4f81a3717f491020884c6a5c867f61ef0735aa4201322b0a8a36d134361446d",
    "gradient_uncontrolled.csv":
        "bef1a1a1d25f7b3b05d4e4c43c267884b32f334054361917ee671ad5b2c0a455",
}

# N = 200, horizon 40, burn-in 10, R = 1000, diagnostics on, seed 12345: sha256
# over each dump's CSV text form (name pddf_k<k>.csv, length and bytes), in k order
DUMP_COUNT = 40
DUMP_DIGEST = "998c6d9318fa0e3deb33f5f2f115dc9b00473a0b68194d20507b7d9b291adf05"


# every key of every section set but wind.series_file, which the manifest test
# adds; all three distribution kinds; ints where the schema wants floats
# (dt_minutes, anchors, start_hour, ...)
FULL_WIND = {
    "scenario": "wind",
    "seed": 4242,
    "output_dir": "elsewhere",
    "clock": {"dt_minutes": 2, "horizon": 60},
    "population": {
        "count": 50,
        "capacitance_kwh_per_c": {"dist": "constant", "value": 3},
        "resistance_c_per_kw": {"dist": "lognormal", "mean": 2.2, "sd": 0.3},
        "rated_power_kw": {"dist": "uniform", "low": 3, "high": 4.5},
        "cop": {"dist": "lognormal", "mean": 3.2, "sd": 0.1},
        "process_noise_sd_c": 0.02,
    },
    "thermostat": {"setpoint_c": 21, "deadband_c": 1.5, "resolution": 200},
    "tracking": {"burn_in": 7, "outdoor_temp_c": 2.5, "phi_steady": 0.4,
                 "ar_coefficient": 0.8, "disturbance_scale": 0.3},
    "wind": {
        "burn_in": 5,
        "start_hour": 6,
        "synthetic": {"wind_mean_mps": 9, "wind_sd_mps": 2.5,
                      "wind_reversion_per_h": 1.5, "temp_mean_c": 6,
                      "temp_sd_c": 1.25, "temp_reversion_per_h": 0.3},
        "turbine": {"cut_in_mps": 3.5, "rated_mps": 13, "cut_out_mps": 24,
                    "rated_power_kw": 2000, "count": 3},
        "nominal": {"anchors": [[0, 2000], [7, 4000], [18, 4500]], "off_peak_kw": 2000},
    },
    "diagnostics": False,
}
EXOGENOUS_DIGEST = "a5982fa3ed276b94260f73c4cf403a500933f525b3cf4eabe5197677d255d15e"
FULL_WIND_DIGESTS = {
    "manifest.json": "1c4b9ed12faa44864f75e1ed1b9b9aaa173686c3a866914eb06bbe63e3bb124b",
    "wind_controlled_series.csv": "71af13455c299fa8560550169b56e03e3e33d45b1915ccfb4a4c66adfe9a9623",
    "wind_uncontrolled_series.csv": "49f86d582b39441b3995a7d5e2f4ef48b24a5115bdff2ca7e3714bf964159ec4",
}
# FULL_WIND run as a tracking scenario
FULL_TRACKING_SERIES_DIGEST = "496ad269666b54685cbc3571795ea699656c456f02f0c17938bbfe0b51de5824"

# N = 200, seed 12345, default distributions and thermostat: at 4.0 degC the
# units cycle; at 19.5 degC the outdoor temperature sits at the switch-on
# boundary setpoint - deadband/2, so every duty cycle is 0
POPULATION_DIGESTS = {
    4.0: {
        "capacitance": "f856af164a2a2a5b97e01dbfb33f9b9837633e458b3eb71b9d4d275c81577e2a",
        "resistance": "9578af2a3d4cbb702b0c42b0becc0963487188e6dacc368d72f786c7f51fbeef",
        "rated_power": "126bbfdee4cc184404ec3574ad4a737189b542f2926295bcc36e672c03db2ea5",
        "cop": "6606cb3a9074dc775f29d5b3962e7999cb5378e74103949ea874813731356fe2",
        "indoor_temp": "3590043f476095caa366a186394a098eb8bc10844bf21c8028b67cf06797e0fa",
        "machine_state": "07fee02221fee3fb4e24d551a1a7f1575a3269f9b18fe475e186dd841dcaac8a",
    },
    19.5: {
        "capacitance": "59c6df29b13ff73d11e478214ac6c938e6b7294b9813cf96f220abf257d5f9c1",
        "resistance": "a6c392bfeac7fcb7eb3a245372887b7bcd1a9e2b4971b6d88490f4d681860822",
        "rated_power": "b51ea5b3d3ecbbf2a5855b70716d3e3708bcd71f1186d9af82f17db8bbd94d2c",
        "cop": "6606cb3a9074dc775f29d5b3962e7999cb5378e74103949ea874813731356fe2",
        "indoor_temp": "55825e5a6cb6ab0d0d3d2488ba61be2ffb66570b7e6a3b7b7db80fd7a6b170bd",
        "machine_state": "dc4dd9a0a8bf1064ee346cc53ca9bb08daf1b1646eae8295078e420f4d215572",
    },
}

# SaturationScenario(burn_in=20), N = 200, horizon 60, seed 12345
SATURATION_DIGESTS = {
    "k": "533fa0c0496848095c8b76ea28f244ff70a58462d0785e1992d42bf47067bb2e",
    "nominal_kw": "fe8584738c014dd9efa2b1b0c4300153df2e355fcbcee3d292055e23c69db78f",
    "wind_kw": "fe8584738c014dd9efa2b1b0c4300153df2e355fcbcee3d292055e23c69db78f",
    "heatpump_kw": "9ad1ad397f694830a64136abe5bef3844cf323a4f2d0cdca940543f1c0fe9aa2",
    "total_kw": "9ad1ad397f694830a64136abe5bef3844cf323a4f2d0cdca940543f1c0fe9aa2",
    "phi": "88fdb16f65d997d41bbc956b5f1711b4d508310a9203fce98cd93c2dfcc341d1",
    "phi_target": "1482c7a94754e4fdbc69b272850a31fa9c70c14b2e27e1a0ea02391d6aacfcfa",
    "u": "04cac4f0e1acb883bee880d24d3bfb7fdff37a37889925528121d07dadb0a31e",
    "phi_min": "a95f4aab082c573c904d4a5f0b0a347000d4bb9a6405dfc5b095533dbca614ce",
    "phi_max": "8c4566f7381235928b82f9fc7f38e826c8a169b720281b27056e3060292ba9c5",
    "mean_theta": "fad979c336d16fb2108eb7e0d9ef5c905bf2a9ea506d59a5aee223083d93729b",
    "phi_predicted": "cb67466b7a4c504d34cd6e6cf1894d81982c1d67da3945194496f70764aacce3",
    "quantization_floor": "c90b796533a8a2b71af0ec96f8c08ba52225602905c920f6d51d166983f84c10",
    "controlled": "328bc3f23b4c267e09a962ef5045094763dd214687f595c86fa509d6416cb5b8",
    "min_theta": "8cab5045c46f5774c560116e565bba1749541149443bf1b327cd44b6c03bbc37",
    "max_theta": "25c015678806df8082d9026855c5e56c05d3ca768f26b9aeab50afa48d841725",
    "switch_count": "d79e6c5d9582a6aa6b7b0e57468ebbd5d04f472b06b9e38c824f18f6ffd092f4",
    "rapid_cycle_count": "9b0f6c43ca88fd5dd105c638d7a7006921778bbfde92fdcf1ed7db7277b9aa24",
    "ms_star": "28a841dc95d3fac43056b41d6b173a8b2ab54692595c7d2ae5728393e4aced9c",
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def array_digest(a):
    """sha256 over an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tracking_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    runner.write_tracking_outputs(config_from_dict({"scenario": "tracking"}), out)
    return out


@pytest.mark.parametrize("name", ["tracking_series.csv", "summary.json", "manifest.json"])
def test_tracking_bundle_matches_golden_bytes(tracking_bundle, name):
    assert (tracking_bundle / name).read_bytes() == (GOLDEN_TRACK / name).read_bytes()


def test_wind_pair_matches_golden_digests(tmp_path):
    config = config_from_dict({"scenario": "wind", "population": {"count": 200},
                               "clock": {"horizon": 300}, "diagnostics": False})
    runner.write_wind_outputs(config, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in WIND_DIGESTS}
    assert digests == WIND_DIGESTS


def test_pddf_dumps_match_golden_digest(tmp_path):
    config = config_from_dict({"scenario": "tracking", "seed": 12345,
                               "population": {"count": 200}, "clock": {"horizon": 40},
                               "tracking": {"burn_in": 10}, "diagnostics": True})
    runner.write_tracking_outputs(config, tmp_path / "run")
    records = sorted((tmp_path / "run" / "diagnostics" / "tracking").iterdir())
    assert [p.name for p in records] == [f"pddf_k{k:06d}.npy" for k in range(DUMP_COUNT)]
    h = hashlib.sha256()
    for record in records:
        k, decision, densities = read_dump(record)
        text = tmp_path / "text" / f"pddf_k{k:06d}.csv"
        pddf_dump_oracle(text, k, densities, decision)
        data = text.read_bytes()
        h.update(f"{text.name}\0{len(data)}\0".encode())
        h.update(data)
    assert h.hexdigest() == DUMP_DIGEST


def test_gen_wind_series_matches_golden_digest(tmp_path):
    path = runner.generate_wind_file(config_from_dict(FULL_WIND), tmp_path)
    assert path == tmp_path / "exogenous_series.csv"
    assert sha256(path) == EXOGENOUS_DIGEST


def test_full_wind_manifest_matches_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.generate_wind_file(config_from_dict(FULL_WIND), Path("weather"))
    data = {**FULL_WIND, "wind": {**FULL_WIND["wind"],
                                  "series_file": "weather/exogenous_series.csv"}}
    out = runner.write_wind_outputs(config_from_dict(data), Path("out"))
    assert {name: sha256(out / name) for name in FULL_WIND_DIGESTS} == FULL_WIND_DIGESTS


def test_full_tracking_series_matches_golden_digest(tmp_path):
    config = config_from_dict({**FULL_WIND, "scenario": "tracking"})
    out = runner.write_tracking_outputs(config, tmp_path)
    assert sha256(out / "tracking_series.csv") == FULL_TRACKING_SERIES_DIGEST


@pytest.mark.parametrize("outdoor", sorted(POPULATION_DIGESTS))
def test_population_matches_golden_digests(outdoor):
    pop = generate_population(PopulationSpec(count=200, initial_outdoor_temp=outdoor))
    digests = {name: array_digest(getattr(pop, name)) for name in POPULATION_DIGESTS[outdoor]}
    assert digests == POPULATION_DIGESTS[outdoor]


def test_saturation_series_matches_golden_digests():
    series = run_simulation(PopulationSpec(count=200), SaturationScenario(burn_in=20),
                            SimulationClock(horizon=60))
    columns = {f.name: getattr(series, f.name) for f in dataclasses.fields(series)}
    digests = {name: array_digest(value) for name, value in columns.items()
               if isinstance(value, np.ndarray)}
    assert digests == SATURATION_DIGESTS

"""Golden-byte gate: the default runs must reproduce their committed bytes.

The kernels may be rewritten for speed, but never so that a floating-point
operation is reordered or replaced: every output byte must stay the same.
The tracking bundle is compared with the committed ``heatfleet_out/``; a
small wind pair is compared by sha256 with digests of the same run taken
before the kernel rewrite, and the per-interval PDDF dumps of a small
tracking run with a digest taken before the dump writer was rewritten.
The manifest of a config that sets every key, and the series that
``gen-wind`` writes for it, are pinned by digests taken before the config
layer was rewritten.
"""

import hashlib
from pathlib import Path

import pytest

from heatfleet import runner
from heatfleet.config import config_from_dict

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
# over each dump's name, length and bytes, in k order
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
    "wind_controlled_series.csv": "9d85fe4470db25c56529edc767c4245cd9b730c0b48c758062b3f400af9d9608",
    "wind_uncontrolled_series.csv": "7bc9b55d2445bec3494fcdc03b3df64b51a670cd2bad0d6651631541d353dc96",
}
# FULL_WIND run as a tracking scenario
FULL_TRACKING_SERIES_DIGEST = "496ad269666b54685cbc3571795ea699656c456f02f0c17938bbfe0b51de5824"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    runner.write_tracking_outputs(config, tmp_path)
    dumps = sorted((tmp_path / "diagnostics" / "tracking").iterdir())
    assert [p.name for p in dumps] == [f"pddf_k{k:06d}.csv" for k in range(DUMP_COUNT)]
    h = hashlib.sha256()
    for path in dumps:
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
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

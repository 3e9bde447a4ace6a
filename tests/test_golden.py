"""Golden-byte gate: the default runs must reproduce their committed bytes.

The kernels may be rewritten for speed, but never so that a floating-point
operation is reordered or replaced: every output byte must stay the same.
The tracking bundle is compared with the committed ``heatfleet_out/``; a
small wind pair is compared by sha256 with digests of the same run taken
before the kernel rewrite, and the per-interval PDDF dumps of a small
tracking run with a digest taken before the dump writer was rewritten.
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

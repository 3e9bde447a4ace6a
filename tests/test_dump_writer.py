"""The diagnostic dumps a run writes: interval-named errors, no thread left
behind, and every dump on disk when the runner returns or raises."""

import json
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from heatfleet import seriesio
from heatfleet.cli import main
from heatfleet.config import config_from_dict
from heatfleet.errors import EngineError
from heatfleet.runner import write_tracking_outputs, write_wind_outputs
from heatfleet.scenarios import TrackingScenario

TRACK_DIAG = {
    "scenario": "tracking",
    "seed": 2,
    "clock": {"horizon": 12},
    "population": {"count": 12},
    "thermostat": {"resolution": 16},
    "tracking": {"burn_in": 1},
    "diagnostics": True,
}

SMALL_WIND = {
    "scenario": "wind",
    "seed": 77,
    "clock": {"horizon": 40},
    "population": {"count": 60},
    "thermostat": {"resolution": 64},
    "wind": {"burn_in": 10},
    "diagnostics": True,
}


class FailsAtInterval3(TrackingScenario):
    def phi_target(self, sim, phi_now, region):
        if sim.k == 3:
            raise RuntimeError("scenario blew up")
        return super().phi_target(sim, phi_now, region)


@pytest.fixture
def slow_writes(monkeypatch):
    """Delay every Path.write_bytes, so that a runner that returned before its
    dump writes finished would leave dumps missing. Returns the delayed paths."""
    write_bytes = Path.write_bytes
    delayed = []

    def slow(path, data):
        delayed.append(path)
        time.sleep(0.03)
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", slow)
    return delayed


@pytest.fixture
def recorded_dumps(monkeypatch):
    """(path, k, densities, decision) of every dump the runner asks for."""
    dumps = []
    write = seriesio.write_pddf_dump

    def recording(path, k, pddf, decision):
        densities = SimpleNamespace(phi0=pddf.phi0.copy(), phi1=pddf.phi1.copy())
        dumps.append((Path(path), k, densities, decision))
        write(path, k, pddf, decision)

    monkeypatch.setattr(seriesio, "write_pddf_dump", recording)
    return dumps


def blocked_dump_dir(tmp_path):
    """An output directory whose diagnostics/tracking is a regular file."""
    out = tmp_path / "out"
    (out / "diagnostics").mkdir(parents=True)
    (out / "diagnostics" / "tracking").write_text("not a directory\n")
    return out


@pytest.mark.parametrize("horizon", [4, 12])
def test_unwritable_dump_raises_engine_error_naming_interval_0(tmp_path, horizon):
    # the first dump fails, so the run stops at interval 0 however long it is
    config = config_from_dict(dict(TRACK_DIAG, clock={"horizon": horizon}))
    before = threading.enumerate()
    with pytest.raises(EngineError, match=r"^interval 0: .*pddf_k000000\.npy") as err:
        write_tracking_outputs(config, blocked_dump_dir(tmp_path))
    assert isinstance(err.value.__cause__, OSError)
    assert threading.enumerate() == before


def test_unwritable_dump_exits_as_an_engine_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TRACK_DIAG))
    out = blocked_dump_dir(tmp_path)
    assert main(["track", "--config", str(config), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("simulation error: interval 0: ")


def test_every_dump_is_on_disk_when_the_runner_returns(tmp_path, slow_writes,
                                                       recorded_dumps):
    before = threading.enumerate()
    out = write_tracking_outputs(config_from_dict(TRACK_DIAG), tmp_path / "out")
    assert threading.enumerate() == before
    assert sorted(p.name for p in (out / "diagnostics" / "tracking").iterdir()) == [
        f"pddf_k{k:06d}.npy" for k in range(12)]
    assert [k for _, k, _, _ in recorded_dumps] == list(range(12))
    # at least one delayed write per dump (the first is retried once its directory
    # exists), so the check above was not vacuous
    assert sorted({p.name for p in slow_writes if p.suffix == ".npy"}) == [
        f"pddf_k{k:06d}.npy" for k in range(12)]


def test_dumps_before_a_failed_interval_are_on_disk_when_it_raises(
        tmp_path, monkeypatch, slow_writes, recorded_dumps):
    config = replace(config_from_dict(TRACK_DIAG), tracking=FailsAtInterval3(burn_in=1))
    before = threading.enumerate()
    with pytest.raises(EngineError, match="^interval 3: scenario blew up"):
        write_tracking_outputs(config, tmp_path / "out")
    assert threading.enumerate() == before
    monkeypatch.undo()  # the expected dumps are written at full speed
    assert [k for _, k, _, _ in recorded_dumps] == [0, 1, 2]
    for path, k, densities, decision in recorded_dumps:
        expected = tmp_path / "expected" / path.name
        seriesio.write_pddf_dump(expected, k, densities, decision)
        assert path.read_bytes() == expected.read_bytes(), path.name


def test_no_thread_outlives_a_wind_bundle(tmp_path):
    before = threading.enumerate()
    out = write_wind_outputs(config_from_dict(SMALL_WIND), tmp_path / "out")
    assert threading.enumerate() == before
    assert len(list((out / "diagnostics" / "wind_controlled").iterdir())) == 40

"""File formats: exogenous series ingestion and all run outputs.

Exogenous input is delimited text with the header
``timestamp,wind_speed_mps,outdoor_temp_c`` where timestamp is minutes from
simulation start. Rows are held (zero-order) onto the thermostat interval
grid; the file must cover the horizon plus one interval of foreknowledge.
Every file read here fails on a non-numeric or non-finite field, naming its
line.

Numeric text output is written with repr(), and the PDDF dumps as binary
.npy records, so values round-trip exactly and identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import struct
from pathlib import Path

import numpy as np

from .aggregator import ControlDecision
from .engine import ScenarioSeries, SimulationClock
from .errors import SeriesError

__all__ = [
    "ingest_series",
    "write_exogenous",
    "write_series",
    "read_series",
    "write_histogram",
    "write_pddf_dump",
    "write_manifest",
    "write_summary",
]

EXOGENOUS_HEADER = ["timestamp", "wind_speed_mps", "outdoor_temp_c"]

SERIES_HEADER = [
    "k", "P_N_kw", "P_W_kw", "P_H_kw", "P_L_kw", "phi", "phi_target",
    "u_degC", "phi_min", "phi_max", "mean_theta_degC",
]


def _read_csv(path, header=None) -> tuple[list[str], np.ndarray]:
    """Read a delimited numeric file as (header, rows), rows a float array
    of shape (lines, fields). Blank lines are skipped; a wrong header (when
    one is given), field count, or a non-numeric or non-finite field fails
    with the path and line number."""
    p = Path(path)
    if not p.is_file():
        raise SeriesError(f"series file not found: {p}")
    with p.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader)
        except StopIteration:
            raise SeriesError(f"{p}: empty file") from None
        if header is not None and [h.strip() for h in found] != header:
            raise SeriesError(
                f"{p}: expected header {','.join(header)}, got {','.join(found)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(found):
                raise SeriesError(
                    f"{p}:{lineno}: expected {len(found)} fields, got {len(row)}"
                )
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise SeriesError(f"{p}:{lineno}: non-numeric field in {row}") from None
            if not np.isfinite(values).all():
                raise SeriesError(f"{p}:{lineno}: non-finite value in {row}")
            rows.append(values)
    return found, np.array(rows, dtype=float).reshape(len(rows), len(found))


def ingest_series(path, clock: SimulationClock) -> tuple[np.ndarray, np.ndarray]:
    """Read an exogenous series file and resample it onto the clock's grid
    as (wind_mps, outdoor_c).

    Requires strictly increasing timestamps starting at or before zero and
    coverage through horizon * dt (horizon + 1 grid points, one step of
    foreknowledge for the regulation target).
    """
    p = Path(path)
    _, rows = _read_csv(p, EXOGENOUS_HEADER)
    if not rows.size:
        raise SeriesError(f"{p}: no data rows")
    ts, wind, temp = rows.T
    if (np.diff(ts) <= 0).any():
        raise SeriesError(f"{p}: timestamps must be strictly increasing")
    if (wind < 0).any():
        raise SeriesError(f"{p}: wind speeds must be >= 0")

    samples = clock.horizon + 1
    grid = np.arange(samples) * clock.dt_minutes
    if ts[0] > 0.0:
        raise SeriesError(f"{p}: first timestamp {ts[0]} is after the grid start 0")
    if ts[-1] < grid[-1]:
        raise SeriesError(
            f"{p}: series ends at {ts[-1]} min but the run needs coverage through "
            f"{grid[-1]} min ({clock.horizon} intervals plus one step of foreknowledge)"
        )
    idx = np.searchsorted(ts, grid, side="right") - 1
    return wind[idx], temp[idx]


def _write_bytes(path: Path, data: bytes) -> None:
    """Write data to path with one call, creating the directory if it is missing."""
    try:
        path.write_bytes(data)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def _write_csv(path, header, columns) -> None:
    """Write the columns as csv.writer would: fields joined by commas, every
    row ending in ``\r\n``, each value as its repr(). The file is built as
    one string and written with one call."""
    rows = map(",".join, zip(*(map(repr, column) for column in columns)))
    _write_bytes(Path(path), "".join(f"{row}\r\n" for row in (",".join(header), *rows)).encode())


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


def write_exogenous(path, timestamps_min, wind_mps, outdoor_c) -> None:
    _write_csv(path, EXOGENOUS_HEADER,
               [_floats(timestamps_min), _floats(wind_mps), _floats(outdoor_c)])


def write_series(path, series: ScenarioSeries) -> None:
    """Write the fixed per-interval column set of one run."""
    _write_csv(path, SERIES_HEADER, [
        series.k.tolist(),
        *(_floats(column) for column in (
            series.nominal_kw, series.wind_kw, series.heatpump_kw, series.total_kw,
            series.phi, series.phi_target, series.u, series.phi_min, series.phi_max,
            series.mean_theta)),
    ])


def read_series(path) -> dict[str, np.ndarray]:
    """Read a series file back as column arrays keyed by header name."""
    header, rows = _read_csv(path)
    return dict(zip(header, rows.T))


def write_histogram(path, bin_centers, heights) -> None:
    _write_csv(path, ["bin_center_kw_per_interval", "density"],
               [_floats(bin_centers), _floats(heights)])


# k and the ControlDecision fields, each with its type code for struct and numpy
_DUMP_SCALARS = [(name, "q" if name == "k" or name.startswith("ms_") else "d")
                 for name in ("k", *ControlDecision._fields)]
_pack_dump_scalars = struct.Struct("=" + "".join(code for _, code in _DUMP_SCALARS)).pack


@functools.lru_cache(maxsize=8)
def _dump_header(size: int) -> bytes:
    """The .npy header that np.save writes before a dump record on a grid of `size`
    points: the scalars as int64 ("q") or float64 ("d"), then phi0 and phi1."""
    record = np.zeros((), [*_DUMP_SCALARS, ("phi0", "d", (size,)), ("phi1", "d", (size,))])
    buffer = io.BytesIO()
    np.save(buffer, record)
    return buffer.getvalue()[:-record.nbytes]


def write_pddf_dump(path, k: int, pddf, decision) -> None:
    """Per-interval diagnostic dump of the densities and the decision: one 0-d
    structured record, exactly the .npy bytes np.save writes for it, on disk
    before this returns. Read it back with ``np.load(path)["phi0"]`` and so on."""
    phi0, phi1 = pddf.phi0, pddf.phi1
    if phi0.size != phi1.size:
        raise ValueError(f"phi0 and phi1 differ in size: {phi0.size} and {phi1.size}")
    _write_bytes(Path(path), b"".join((_dump_header(phi0.size), _pack_dump_scalars(k, *decision),
                                       phi0.tobytes(), phi1.tobytes())))


def write_manifest(path, config, version: str) -> None:
    """A RunConfig's JSON form plus the code version; loadable back as a config."""
    manifest = {"config": config.to_dict(), "meta": {"code_version": version}}
    _write_bytes(Path(path), (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def write_summary(path, summary: dict) -> None:
    _write_bytes(Path(path), (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())

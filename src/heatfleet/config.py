"""Run configuration: JSON file format, defaults, validation, manifest round-trip.

A config file is a JSON object and every key is optional: a file
containing just {"scenario": "tracking"} runs the default signal-tracking
setup, and a null value stands for the key's default where it has one.
The manifest emitted with each run wraps the fully resolved config under a
"config" key plus a "meta" block; load_raw accepts either form, so a
manifest can be re-run directly.

RunConfig is the root section. Every other section decodes straight into
the domain class that uses it, which states its defaults and checks its
ranges: clock into SimulationClock, population into PopulationSpec,
thermostat into ThermostatConfig, tracking into TrackingScenario, wind into
WindScenario, each distribution into ParameterDist, and wind.turbine,
wind.nominal and wind.synthetic into TurbineModel, NominalLoadModel and
SyntheticWeather. Every section is a frozen value: a scenario keeps its run
state in Simulation.scenario_state, and the fields the run sets have no key.
One codec converts between JSON and all of them: it checks each value's type
and each section's keys, builds every object through its constructor, and
reports the constructor's ValueError as a ConfigError naming the section.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path

from .engine import ParameterDist, PopulationSpec, SimulationClock
from .errors import ConfigError
from .scenarios import (
    NominalLoadModel,
    SyntheticWeather,
    TrackingScenario,
    TurbineModel,
    WindScenario,
)
from .thermostat import ThermostatConfig

__all__ = [
    "RunConfig",
    "config_from_dict",
    "resolve_output_dir",
]

OUTPUT_DIR_ENV = "HEATFLEET_OUT"

SCENARIO_DEFAULT_HORIZON = {"tracking": 400, "wind": 1440}
SCENARIO_DEFAULT_COUNT = {"tracking": 1000, "wind": 2000}

# the documented JSON key of every domain field whose name differs from it;
# None marks a field that the run sets, which no file or manifest holds
JSON_NAMES = {
    ParameterDist: {"kind": "dist"},
    PopulationSpec: {"capacitance": "capacitance_kwh_per_c",
                     "resistance": "resistance_c_per_kw", "rated_power": "rated_power_kw",
                     "process_noise_sd": "process_noise_sd_c", "thermostat": None,
                     "initial_outdoor_temp": None, "seed": None},
    ThermostatConfig: {"setpoint": "setpoint_c", "deadband": "deadband_c"},
    TurbineModel: {"cut_in": "cut_in_mps", "rated_speed": "rated_mps",
                   "cut_out": "cut_out_mps", "rated_power": "rated_power_kw",
                   "turbine_count": "count"},
    NominalLoadModel: {"off_peak_level": "off_peak_kw"},
    SyntheticWeather: {"wind_mean": "wind_mean_mps", "wind_sd": "wind_sd_mps",
                       "wind_reversion_per_hour": "wind_reversion_per_h",
                       "temp_mean": "temp_mean_c", "temp_sd": "temp_sd_c",
                       "temp_reversion_per_hour": "temp_reversion_per_h"},
    TrackingScenario: {"outdoor_temp": "outdoor_temp_c"},
    WindScenario: {"controlled": None},
}

# the parameters of each distribution kind: a distribution object holds
# "dist" and exactly these keys
DIST_KEYS = {"constant": ("value",), "uniform": ("low", "high"), "lognormal": ("mean", "sd")}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; serializes losslessly to the manifest."""

    scenario: str = "tracking"
    seed: int = 12345
    output_dir: str = ""
    clock: SimulationClock = SimulationClock()
    population: PopulationSpec = PopulationSpec()
    thermostat: ThermostatConfig = ThermostatConfig()
    tracking: TrackingScenario = TrackingScenario()
    wind: WindScenario = WindScenario()
    diagnostics: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        """The JSON form written to the manifest."""
        return _encode(self)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _instance(kind: type, expected: str):
    def decode(value, path: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value

    return decode


def _pairs(value, path: str) -> tuple[tuple[float, float], ...]:
    """wind.nominal.anchors: a JSON list of [hour, kw] pairs."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of [hour, kw] pairs")
    pairs = []
    for i, pair in enumerate(value):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(f"{path}[{i}]: expected an [hour, kw] pair")
        pairs.append((_number(pair[0], f"{path}[{i}][0]"),
                      _number(pair[1], f"{path}[{i}][1]")))
    return tuple(pairs)


def _dist(value, path: str) -> ParameterDist:
    """A distribution object: "dist" plus exactly the keys of its kind."""
    kind = value.get("dist") if isinstance(value, dict) else None
    keys = DIST_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"{path}.dist: must be one of {'|'.join(DIST_KEYS)}, got {kind!r}")
    foreign = value.keys() - {"dist", *keys}
    if foreign:
        raise ConfigError(f"{path}: unknown keys {sorted(foreign)} for dist {kind!r}")
    for key in keys:
        _number(value.get(key), f"{path}.{key}")
    return _decode(ParameterDist, value, path)


def _decoder(tp):
    """The function that checks and converts a JSON value for a field of type tp."""
    if type(None) in typing.get_args(tp):  # X | None: null never reaches a decoder
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if tp is float:
        return _number
    if tp is int:
        return _integer
    if tp is str:
        return _instance(str, "a string")
    if tp is bool:
        return _instance(bool, "true or false")
    if tp is ParameterDist:
        return _dist
    if tp == tuple[tuple[float, float], ...]:
        return _pairs
    if dataclasses.is_dataclass(tp):
        return functools.partial(_decode, tp)
    raise TypeError(f"no JSON form for {tp!r}")


@functools.cache
def _fields(cls) -> dict[str, tuple[str, typing.Callable]]:
    """JSON key -> (field name, decoder) for one config class, resolved once.
    The fields the run sets have no key."""
    names = JSON_NAMES.get(cls, {})
    hints = typing.get_type_hints(cls)
    return {key: (f.name, _decoder(hints[f.name]))
            for f in dataclasses.fields(cls)
            for key in [names.get(f.name, f.name)] if key is not None}


def _decode(cls, raw, path: str):
    """Check raw against the fields of cls and build cls through its constructor."""
    where = path or "config root"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    fields = _fields(cls)
    unknown = raw.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    prefix = f"{path}." if path else ""
    kwargs = {}
    for key, value in raw.items():
        if value is not None:
            name, decode = fields[key]
            kwargs[name] = decode(value, prefix + key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _encode(value):
    """The JSON form of a config value: the inverse of _decode."""
    if isinstance(value, ParameterDist):
        return {"dist": value.kind, **{key: getattr(value, key) for key in DIST_KEYS[value.kind]}}
    if dataclasses.is_dataclass(value):
        return {key: _encode(getattr(value, name))
                for key, (name, _) in _fields(type(value)).items()}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def config_from_dict(data: dict) -> RunConfig:
    """Validate a raw JSON object and resolve all defaults into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a JSON object")
    scenario = data.get("scenario")
    if scenario is None:
        scenario = "tracking"
    if scenario not in ("tracking", "wind"):
        raise ConfigError(f"scenario: must be 'tracking' or 'wind', got {scenario!r}")
    # the scenario sets the defaults of clock.horizon and population.count
    data = dict(data)
    for section, key, default in (("clock", "horizon", SCENARIO_DEFAULT_HORIZON[scenario]),
                                  ("population", "count", SCENARIO_DEFAULT_COUNT[scenario])):
        raw = data.get(section)
        raw = {} if raw is None else raw
        if isinstance(raw, dict) and raw.get(key) is None:
            data[section] = {**raw, key: default}
    return _decode(RunConfig, data, "")


def load_raw(path) -> dict:
    """Read a config file (or an emitted manifest) as an unresolved dict."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "meta" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: config root must be a JSON object")
    return data


def resolve_output_dir(config: RunConfig, out_dir=None) -> Path:
    """out_dir (--out), else the config's output_dir, else $HEATFLEET_OUT,
    else ./heatfleet_out; NotADirectoryError, before any run, if a file is in the way."""
    if out_dir is None:
        out_dir = config.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "heatfleet_out"
    out = Path(out_dir)
    if not os.path.isdir(out):  # one stat when it exists; walk up only when it does not
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"output directory {out}: {existing} is not a directory")
    return out

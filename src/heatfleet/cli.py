"""Command-line entry points.

Subcommands:
    track      run the signal-tracking scenario
    wind       run the paired wind-regulation experiment (controlled + uncontrolled)
    gen-wind   emit a synthetic wind-speed / outdoor-temperature series
    gradient   post-process an existing series file into a power-gradient histogram

Exit codes: 0 success, 1 unexpected or output error, 2 configuration error,
3 series-input error, 4 simulation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import runner, seriesio
from .config import RunConfig, config_from_dict, load_raw
from .errors import ConfigError, EngineError, SeriesError
from .scenarios import power_gradient_density

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_SERIES = 3
EXIT_ENGINE = 4


# subcommand -> (scenario, runner function, message, help); the subcommand
# decides the scenario before defaults resolve, so a bare `wind` or
# `gen-wind` gets the wind-scale population and horizon
RUNS = {
    "track": ("tracking", runner.write_tracking_outputs, "tracking run complete",
              "run the signal-tracking scenario"),
    "wind": ("wind", runner.write_wind_outputs,
             "wind run complete (controlled + uncontrolled)",
             "run the paired wind-regulation experiment"),
    "gen-wind": ("wind", runner.generate_wind_file, "synthetic series written",
                 "emit a synthetic exogenous series"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatfleet",
        description="Comfort-constrained aggregate control of heat pump fleets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (*_, help_text) in RUNS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides config and environment)")
        p.add_argument("--horizon", type=int, default=None,
                       help="override the number of simulated intervals")

    p_grad = sub.add_parser("gradient",
                            help="histogram the total-load gradient of a series file")
    p_grad.add_argument("series_file", type=Path, help="series CSV produced by track/wind")
    p_grad.add_argument("--out", type=Path, default=None,
                        help="output directory (default: the current directory)")
    p_grad.add_argument("--bins", type=int, default=101, help="odd number of bins")
    p_grad.add_argument("--raw-density", action="store_true",
                        help="emit probability density instead of peak-normalized")
    return parser


def _load(args, scenario: str) -> RunConfig:
    raw = load_raw(args.config) if args.config is not None else {}
    config = config_from_dict({**raw, "scenario": scenario})
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    try:
        if args.horizon is not None:
            updates["clock"] = dataclasses.replace(config.clock, horizon=args.horizon)
        return dataclasses.replace(config, **updates) if updates else config
    except ValueError as exc:
        raise ConfigError(f"command line: {exc}") from exc


def _cmd_gradient(args) -> int:
    if args.bins < 1 or args.bins % 2 == 0:  # before the series file is read
        raise ConfigError(f"command line: --bins must be a positive odd integer, "
                          f"got {args.bins}")
    columns = seriesio.read_series(args.series_file)
    if "P_L_kw" not in columns:
        raise SeriesError(f"{args.series_file}: no P_L_kw column")
    if columns["P_L_kw"].size < 2:
        raise SeriesError(f"{args.series_file}: need at least two rows to difference")
    centers, heights = power_gradient_density(
        columns["P_L_kw"], normalize=not args.raw_density, bins=args.bins)
    out = args.out if args.out is not None else Path(".")
    path = Path(out) / "gradient.csv"
    seriesio.write_histogram(path, centers, heights)
    print(f"gradient histogram written: {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gradient":
            return _cmd_gradient(args)
        scenario, run, message, _ = RUNS[args.command]
        print(f"{message}: {run(_load(args, scenario), args.out)}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SeriesError as exc:
        print(f"series error: {exc}", file=sys.stderr)
        return EXIT_SERIES
    except EngineError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

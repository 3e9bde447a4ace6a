"""Run one heatfleet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload track-1k --seed 12345 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones. The last line of standard output is the
JSON result; the full record, with the environment and sample counts, is
written to ``.perfbench_run/results/``. Exits 1 without a result when the
program cannot be imported or no bundle runs to the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_run"
REFERENCE_FILE = HERE / "reference_digests.json"
DEFAULT_SEED = 12345


def import_program():
    """Import heatfleet from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "heatfleet"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no heatfleet sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import heatfleet
    from heatfleet import aggregator, config, engine, runner, scenarios, seriesio

    if Path(heatfleet.__file__).resolve().parent != package.resolve():
        raise ImportError(f"heatfleet imported from {heatfleet.__file__}, not {package}")
    return argparse.Namespace(package=heatfleet, aggregator=aggregator, config=config,
                              engine=engine, runner=runner, scenarios=scenarios,
                              seriesio=seriesio)


def _command(args: list[str]) -> str | None:
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(hf) -> dict:
    """Where the figures were measured; kept out of every program output."""
    caches = {}
    for line in (_command(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    commit = _command(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) \
        if (ROOT / ".git").exists() else None
    import numpy

    return {
        "git_commit": commit,
        "heatfleet": hf.package.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        hf = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(HERE))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    references = json.loads(REFERENCE_FILE.read_text())
    reference = (references["digests"][args.workload]
                 if args.seed == references["seed"] else None)
    try:
        result = bench.run(hf, bench.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), WORK_DIR, ROOT, reference)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(hf), **result}
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: {result['attempted']} bundles, {result['failed']} failed, "
          f"digest {result['digest']}"
          + (" (reference)" if reference == result["digest"] else "")
          + f", record {path.relative_to(ROOT)}")
    for failure in result["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    if result["tree_changed"]:
        print(f"working tree changed: {result['tree_changed'][:10]}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

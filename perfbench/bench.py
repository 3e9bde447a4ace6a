"""Workloads, one bundle with its output checks, and the metrics of a run.

A bundle is what one ``heatfleet track`` or ``heatfleet wind`` call does:
resolve a config, run the scenario and write the output directory. The
benchmark builds the config dict from its seed, passes it to
``config.config_from_dict`` and hands the result to
``runner.write_tracking_outputs`` or ``runner.write_wind_outputs`` with an
explicit temporary output directory, so neither ``./heatfleet_out`` nor
``$HEATFLEET_OUT`` is ever written.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import calibrate
import spans
import stats

RESIDUAL_LIMIT = 1e-9
MIN_ROUNDS = 3
# setup-only runs after each bundle of an untraced run, so setup_s has
# several samples even where a run holds only a few bundles
SETUP_REPEATS = 3
# simulated data covered by the digest; manifest and summary are left out
# because their keys are meant to grow
DIGEST_PATTERNS = ("*_series.csv", "gradient_*.csv")
# never part of the tree check: git, caches and the benchmark's own work dir
IGNORED_DIRS = frozenset({".git", ".perfbench_run", "__pycache__", ".pytest_cache"})

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "unit_intervals_per_s": "1/s",
    "interval_us_p50": "us",
    "interval_us_p90": "us",
    "peak_rss_mb": "MiB",
}

# self time of these aggregator functions is the set-point decision
DECIDE_SPANS = ("aggregator.feasible_region", "aggregator.capacity_factor",
                "aggregator.cff", "aggregator.select_setpoint",
                "aggregator.max_cff_increment")

LAYER_UNITS = {
    "building.thermal_step.ns_per_unit": "ns/unit",
    "thermostat.quantize.ns_per_unit": "ns/unit",
    "thermostat.hysteresis_update.ns_per_unit": "ns/unit",
    "aggregator.build_pddf.ns_per_unit": "ns/unit",
    "aggregator.build_pddf.us_per_interval": "us/interval",
    "aggregator.decide.us_per_interval": "us/interval",
    "aggregator.calls_per_interval": "calls/interval",
    "engine.noise.ns_per_unit": "ns/unit",
    "engine.interval_self.us_per_interval": "us/interval",
    "engine.generate_population.s": "s",
    "engine.series.ms": "ms",
    "scenarios.prepare.ms": "ms",
    "scenarios.phi_target.us_per_interval": "us/interval",
    "seriesio.write.s": "s",
    "seriesio.write_pddf_dump.ms_per_call": "ms/call",
    "seriesio.bytes_written": "bytes",
    "seriesio.files_written": "count",
    "runner.self.ms": "ms",
    "trace.catchall_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

# spans whose self time is whatever the layer spans inside them do not cover
CATCHALL_SPANS = ("config.config_from_dict", "runner.write_outputs", "engine.run_simulation")


class CheckFailed(Exception):
    """A bundle ran but its outputs are wrong."""


class _SetupDone(BaseException):
    """Ends a setup-only run at its first interval. A BaseException, so that
    Simulation.run passes it through instead of wrapping it in EngineError."""


@dataclass(frozen=True)
class Workload:
    """One bundle configuration; count is units per arm."""

    name: str
    scenario: str
    count: int
    horizon: int
    burn_in: int
    diagnostics: bool = False

    @property
    def arms(self) -> int:
        """The wind experiment runs a controlled and an uncontrolled arm."""
        return 2 if self.scenario == "wind" else 1

    @property
    def unit_intervals(self) -> int:
        return self.count * self.horizon * self.arms

    @property
    def writer(self) -> str:
        """The runner function that runs and writes one bundle."""
        return "write_wind_outputs" if self.scenario == "wind" else "write_tracking_outputs"

    def config(self, seed: int) -> dict:
        """The JSON config the program receives for this seed."""
        section = "wind" if self.scenario == "wind" else "tracking"
        return {
            "scenario": self.scenario,
            "seed": seed,
            "population": {"count": self.count},
            "clock": {"horizon": self.horizon},
            section: {"burn_in": self.burn_in},
            "diagnostics": self.diagnostics,
        }

    def tiny(self) -> "Workload":
        """A few-hundred-unit version, used to warm up the code paths."""
        return replace(self, count=min(self.count, 200), horizon=min(self.horizon, 40),
                       burn_in=min(self.burn_in, 10))


WORKLOADS = {w.name: w for w in (
    Workload("track-1k", "tracking", count=1000, horizon=400, burn_in=100),
    Workload("fleet-100k", "tracking", count=100_000, horizon=100, burn_in=10),
    Workload("wind-diag", "wind", count=2000, horizon=1440, burn_in=100, diagnostics=True),
)}


@dataclass
class Bundle:
    """What one bundle leaves for the metrics. Its size does not grow with
    the number of bundles in a run; interval_ns becomes an array once the
    bundle ends, and interval_ref_ns holds the same times at reference speed."""

    traced: bool
    wall_ns: int = 0  # probe time taken out
    setup_ns: int = 0
    interval_ns: list[int] | np.ndarray = field(default_factory=list)
    interval_ref_ns: np.ndarray | None = None
    first_interval_ns: int | None = None  # clock at the first interval's start
    scale: float = 1.0  # factor to reference host speed, from the bundle's mean probe
    probes: int = 0
    probe_ns: int = 0  # probe time inside the bundle
    peak_rss_kb: int = 0  # the process's peak RSS when the bundle ended
    setup_only_s: list[float] = field(default_factory=list)  # at reference speed
    ran: bool = False  # ran to the end, so its timings count
    digest: str = ""
    files: int = 0
    bytes: int = 0
    tracer: spans.Tracer | None = None
    error: str | None = None


def output_digest(out_dir: Path) -> str:
    """sha256 over the names, lengths and bytes of the simulated-data files."""
    paths = sorted({p for pattern in DIGEST_PATTERNS for p in out_dir.glob(pattern)})
    if not paths:
        raise CheckFailed(f"no series files in {out_dir}")
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_outputs(out_dir: Path, workload: Workload, bundle: Bundle) -> None:
    """Record the bundle's file count, bytes and digest; check the prediction residual."""
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    bundle.files, bundle.bytes = len(files), sum(p.stat().st_size for p in files)
    bundle.digest = output_digest(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    arms = (summary["controlled"], summary["uncontrolled"]) if workload.arms == 2 else (summary,)
    residual = max(arm["max_prediction_residual"] for arm in arms)
    if not residual <= RESIDUAL_LIMIT:
        raise CheckFailed(f"max_prediction_residual {residual!r} > {RESIDUAL_LIMIT}")


def tree_snapshot(root: Path) -> dict[str, str]:
    """sha256 of every file under root outside IGNORED_DIRS, by relative path."""
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in IGNORED_DIRS]
        for name in filenames:
            path = Path(dirpath, name)
            snapshot[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return snapshot


def _timed_intervals(run_interval, bundle: Bundle, probe: calibrate.Probe):
    """The wrapper every bundle gets around Simulation.run_interval: a timestamp
    pair per interval, then a host-speed probe when one is due."""

    def timed(sim):
        start = time.perf_counter_ns()
        try:
            return run_interval(sim)
        finally:
            end = time.perf_counter_ns()
            bundle.interval_ns.append(end - start)
            if bundle.first_interval_ns is None:
                bundle.first_interval_ns = start
            probe.between_intervals(end)

    return timed


def run_bundle(hf, workload: Workload, seed: int, out_dir: Path, traced: bool) -> Bundle:
    """Run and check one bundle; any exception or failed check is recorded in .error."""
    bundle = Bundle(traced=traced)
    load = hf.config.config_from_dict
    write = getattr(hf.runner, workload.writer)
    simulation = hf.engine.Simulation
    run_interval = simulation.run_interval
    patches = []
    if traced:
        bundle.tracer = tracer = spans.Tracer()
        patches = spans.instrument(hf, tracer)
        run_interval = tracer.wrap(spans.INTERVAL_SPAN, run_interval)
        load = tracer.wrap(spans.CONFIG_SPAN, load)
        write = tracer.wrap(spans.RUNNER_SPAN, write)
    probe = calibrate.Probe(bundle.tracer)
    patches.append((simulation, "run_interval", _timed_intervals(run_interval, bundle, probe)))
    raw = workload.config(seed)
    gc.collect()
    try:
        probe.sample()
        with spans.patched(patches):
            t0 = time.perf_counter_ns()
            write(load(raw), out_dir)
            elapsed = time.perf_counter_ns() - t0
        probe.sample()
        bundle.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        bundle.wall_ns = elapsed - probe.inner_ns
        bundle.probe_ns = probe.inner_ns
        bundle.scale = probe.scale
        bundle.probes = len(probe.samples)
        bundle.interval_ns = np.asarray(bundle.interval_ns, dtype=np.int64)
        bundle.interval_ref_ns = bundle.interval_ns * probe.interval_scales()
        if bundle.interval_ns.size != workload.arms * workload.horizon:
            raise CheckFailed(f"{bundle.interval_ns.size} intervals run, expected "
                              f"{workload.arms * workload.horizon}")
        bundle.setup_ns = bundle.first_interval_ns - t0
        bundle.ran = True
        check_outputs(out_dir, workload, bundle)
    except Exception:  # a failed bundle is counted, and the run goes on
        bundle.error = traceback.format_exc(limit=3)
    return bundle


def run_setup(hf, workload: Workload, seed: int, out_dir: Path) -> float:
    """Seconds from bundle start to the first interval, at reference host
    speed, in a bundle stopped there; nothing is written before that point."""

    def stop(sim):
        raise _SetupDone(time.perf_counter_ns())

    write = getattr(hf.runner, workload.writer)
    probe = calibrate.Probe()
    gc.collect()
    probe.sample()
    with spans.patched([(hf.engine.Simulation, "run_interval", stop)]):
        t0 = time.perf_counter_ns()
        try:
            write(hf.config.config_from_dict(workload.config(seed)), out_dir)
        except _SetupDone as done:
            setup_ns = done.args[0] - t0
        else:
            raise CheckFailed("the setup-only run reached no interval")
    probe.sample()
    return setup_ns * probe.scale / 1e9


def reference_times(bundle: Bundle) -> tuple[float, float, float]:
    """(wall, setup, interval loop) seconds of a bundle at reference host speed.

    Each interval is scaled by the probes around it, so a slow moment inside
    a long bundle is corrected where it happened; all other time by the
    bundle's mean probe.
    """
    loop = float(bundle.interval_ref_ns.sum())
    wall = loop + (bundle.wall_ns - int(bundle.interval_ns.sum())) * bundle.scale
    return wall / 1e9, bundle.setup_ns * bundle.scale / 1e9, loop / 1e9


def end_to_end_metrics(workload: Workload, bundles: list[Bundle]) -> tuple[dict, dict]:
    """Untraced-bundle metrics, at reference host speed, and their sample reports.

    An interval of a bundle is one step of the interval grid: for the wind
    pair its time is the sum of the two arms' k-th run_interval calls.
    """
    walls, setups, loops = zip(*(reference_times(b) for b in bundles))
    setups = list(setups) + [t for b in bundles for t in b.setup_only_s]
    rates = [workload.unit_intervals / loop for loop in loops]
    intervals = np.concatenate([
        b.interval_ref_ns.reshape(workload.arms, workload.horizon).sum(axis=0)
        for b in bundles]) / 1e3
    values = {
        "wall_s": stats.median(walls),
        "setup_s": stats.median(setups),
        "unit_intervals_per_s": stats.median(rates),
        "interval_us_p50": stats.percentile(intervals, 50.0),
        "interval_us_p90": stats.percentile(intervals, 90.0),
        # at the end of the first bundle, so the benchmark's own records,
        # which grow with the number of bundles, do not count
        "peak_rss_mb": bundles[0].peak_rss_kb / 1024.0,
    }
    samples = {
        "wall_s": stats.timing_report(walls),
        "setup_s": stats.timing_report(setups),
        "unit_intervals_per_s": stats.timing_report(rates),
        "interval_us": stats.timing_report(intervals),
        "raw_wall_s": stats.timing_report([b.wall_ns / 1e9 for b in bundles]),
        "raw_setup_s": stats.timing_report([b.setup_ns / 1e9 for b in bundles]),
        "peak_rss_kb": {"first": bundles[0].peak_rss_kb, "last": bundles[-1].peak_rss_kb},
    }
    return values, samples


def bundle_layer_metrics(workload: Workload, bundle: Bundle, names: list[str]) -> dict:
    """Per-layer figures of one traced bundle, from span self times at reference speed."""
    t = bundle.tracer
    intervals = workload.arms * workload.horizon

    def self_ns(name):
        return t.self_ns(name) * bundle.scale

    def ns_per_unit(name):
        calls = t.calls(name)
        return self_ns(name) / (calls * workload.count) if calls else 0.0

    def self_sum(prefix):
        return sum(self_ns(name) for name in names if name.startswith(prefix))

    dumps = t.calls("seriesio.write_pddf_dump")
    values = {
        "building.thermal_step.ns_per_unit": ns_per_unit("building.thermal_step"),
        "thermostat.quantize.ns_per_unit": ns_per_unit("thermostat.quantize"),
        "thermostat.hysteresis_update.ns_per_unit": ns_per_unit("thermostat.hysteresis_update"),
        "aggregator.build_pddf.ns_per_unit": ns_per_unit("aggregator.build_pddf"),
        "aggregator.build_pddf.us_per_interval":
            self_ns("aggregator.build_pddf") / 1e3 / intervals,
        "aggregator.decide.us_per_interval":
            sum(self_ns(name) for name in DECIDE_SPANS) / 1e3 / intervals,
        "aggregator.calls_per_interval":
            sum(t.calls(name) for name in names if name.startswith("aggregator.")) / intervals,
        "engine.noise.ns_per_unit": ns_per_unit(spans.NOISE_SPAN),
        "engine.interval_self.us_per_interval": self_ns(spans.INTERVAL_SPAN) / 1e3 / intervals,
        "engine.generate_population.s": self_ns("engine.generate_population") / 1e9,
        "engine.series.ms": self_ns("engine.series") / 1e6,
        "scenarios.prepare.ms": self_ns("scenarios.prepare") / 1e6,
        "scenarios.phi_target.us_per_interval":
            self_ns("scenarios.phi_target") / 1e3 / intervals,
        "seriesio.write.s": self_sum("seriesio.") / 1e9,
        "seriesio.write_pddf_dump.ms_per_call":
            self_ns("seriesio.write_pddf_dump") / 1e6 / dumps if dumps else 0.0,
        "seriesio.bytes_written": bundle.bytes,
        "seriesio.files_written": bundle.files,
        "runner.self.ms": self_ns(spans.RUNNER_SPAN) / 1e6,
        "trace.catchall_frac":
            sum(t.self_ns(name) for name in CATCHALL_SPANS) / (bundle.wall_ns + bundle.probe_ns),
    }
    values.update({f"{name}.calls": t.calls(name) for name in names})
    return values


def layer_metric_units(names: list[str]) -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = dict(LAYER_UNITS)
    units.update({f"{name}.calls": "count" for name in names})
    return units


def layer_metrics(workload: Workload, traced: list[Bundle], untraced: list[Bundle],
                  names: list[str]) -> tuple[dict, dict]:
    """Medians over traced bundles; counts that repeat exactly stay whole numbers."""
    per_bundle = [bundle_layer_metrics(workload, b, names) for b in traced]
    values = {}
    for key in per_bundle[0]:
        column = [m[key] for m in per_bundle]
        exact = isinstance(column[0], int) and len(set(column)) == 1
        values[key] = column[0] if exact else stats.median(column)
    traced_walls = [reference_times(b)[0] for b in traced]
    untraced_walls = [reference_times(b)[0] for b in untraced]
    values["trace.overhead_frac"] = stats.median(traced_walls) / stats.median(untraced_walls) - 1.0
    layer_self_ms = {}
    for name in names:
        layer = name.split(".", 1)[0]
        layer_self_ms[layer] = layer_self_ms.get(layer, 0.0) + stats.median(
            [b.tracer.self_ns(name) * b.scale / 1e6 for b in traced])
    samples = {
        "traced_bundles": len(traced),
        "untraced_bundles": len(untraced),
        # an identity of the span arithmetic: the two root spans cover the
        # timed region but for the few microseconds before the first call
        "max_unattributed_frac": max(
            1.0 - b.tracer.total_self_ns() / (b.wall_ns + b.probe_ns) for b in traced),
        "layer_self_ms_median": layer_self_ms,
        "traced_wall_s": stats.timing_report(traced_walls),
        "untraced_wall_s": stats.timing_report(untraced_walls),
    }
    return values, samples


def run(hf, workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path, watch_root: Path, reference: str | None = None) -> dict:
    """Run bundles for about `seconds`, check them and compute the metrics.

    With trace set, untraced and traced bundles alternate and the metrics are
    the per-layer ones; otherwise every bundle is untraced and the metrics
    are the end-to-end ones. Returns the result record.
    """
    before = tree_snapshot(watch_root)
    tmp_root = work_dir / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)

    def one(w: Workload, traced: bool) -> Bundle:
        out = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=tmp_root))
        try:
            bundle = run_bundle(hf, w, seed, out, traced)
            if not trace and bundle.error is None:
                try:
                    bundle.setup_only_s = [run_setup(hf, w, seed, out)
                                           for _ in range(SETUP_REPEATS)]
                except Exception:  # counted like any other failed bundle
                    bundle.error = traceback.format_exc(limit=3)
            return bundle
        finally:
            shutil.rmtree(out)

    warm = one(workload.tiny(), False)
    if warm.error is not None:
        raise RuntimeError(f"warm-up bundle failed:\n{warm.error}")

    order = (False, True) if trace else (False,)
    bundles: list[Bundle] = []
    round_s: list[float] = []
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or (
            time.perf_counter() - start + stats.median(round_s) <= seconds):
        r0 = time.perf_counter()
        # alternate which kind goes first, so drift does not favour one
        for traced in (order if len(round_s) % 2 == 0 else order[::-1]):
            bundles.append(one(workload, traced))
        round_s.append(time.perf_counter() - r0)
    measured_s = time.perf_counter() - start

    first = next((b.digest for b in bundles if b.error is None), None)
    # a bundle with wrong outputs is failed, but its timings still count
    for b in bundles:
        if b.error is None and reference is not None and b.digest != reference:
            b.error = f"digest {b.digest} differs from the reference {reference}"
        elif b.error is None and b.digest != first:
            b.error = f"digest {b.digest} differs from the first bundle's {first}"
    failures = [b.error for b in bundles if b.error is not None]
    untraced = [b for b in bundles if b.ran and not b.traced]
    traced = [b for b in bundles if b.ran and b.traced]
    if not untraced or (trace and not traced):
        raise RuntimeError("no bundle ran to the end:\n" + "\n".join(failures[:3]))

    if trace:
        names = spans.span_names(hf)
        values, samples = layer_metrics(workload, traced, untraced, names)
        units = layer_metric_units(names)
    else:
        values, samples = end_to_end_metrics(workload, untraced)
        units = END_TO_END_UNITS

    after = tree_snapshot(watch_root)
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    shutil.rmtree(tmp_root)
    return {
        "correct": not failures and not changed,
        "attempted": len(bundles),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "digest": first,
        "reference_digest": reference,
        "measured_s": measured_s,
        "samples": {**samples,
                    "scale": stats.timing_report([b.scale for b in bundles if b.probes]),
                    "probes_per_bundle": stats.median([b.probes for b in bundles])},
        "tree_changed": changed,
        "failures": failures[:5],
    }

"""Spans around the public heatfleet functions that the runner and engine call.

The benchmark never edits the program. For a traced bundle it swaps each
public function listed in `instrument` for a wrapper that records a span,
runs the bundle, and puts the originals back. A span's self time is its
duration minus the durations of the spans opened inside it, so nested calls
(``feasible_region`` inside ``select_setpoint``, ``cff`` inside
``feasible_region``) are never counted twice, and the self times of all
spans add up to the duration of the outermost ones.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Aggregates spans per name as they close: calls, total and self time (ns)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._open: list[list] = []  # [name, start_ns, child_ns]

    def begin(self, name: str) -> None:
        self._open.append([name, self.clock(), 0])

    def end(self) -> None:
        name, start, child = self._open.pop()
        duration = self.clock() - start
        if self._open:
            self._open[-1][2] += duration
        entry = self.totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def self_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[2]

    def total_self_ns(self) -> int:
        return sum(entry[2] for entry in self.totals.values())


@contextmanager
def patched(patches):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class _NoiseProxy:
    """Stands in for a Simulation's noise generator; only ``normal`` is traced."""

    def __init__(self, rng, normal):
        self._rng = rng
        self.normal = normal

    def __getattr__(self, name):
        return getattr(self._rng, name)


def span_targets(hf) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced public function but
    ``Simulation.run_interval``, which the benchmark wraps itself (INTERVAL_SPAN).

    Owners are the namespaces the caller looks the name up in: the engine
    imports ``thermal_step``, ``quantize`` and ``hysteresis_update`` by name,
    the runner imports ``run_simulation`` and ``power_gradient_density`` by
    name, and every other call goes through its module or class.
    """
    eng, agg, scn, sio = hf.engine, hf.aggregator, hf.scenarios, hf.seriesio
    return [
        (hf.runner, "run_simulation", "engine.run_simulation"),
        (eng, "generate_population", "engine.generate_population"),
        (eng.Simulation, "series", "engine.series"),
        (eng, "thermal_step", "building.thermal_step"),
        (eng, "quantize", "thermostat.quantize"),
        (eng, "hysteresis_update", "thermostat.hysteresis_update"),
        (agg, "build_pddf_from_arrays", "aggregator.build_pddf"),
        (agg, "feasible_region", "aggregator.feasible_region"),
        (agg, "capacity_factor", "aggregator.capacity_factor"),
        (agg, "cff", "aggregator.cff"),
        (agg, "select_setpoint", "aggregator.select_setpoint"),
        (agg, "max_cff_increment", "aggregator.max_cff_increment"),
        (scn.TrackingScenario, "prepare", "scenarios.prepare"),
        (scn.WindScenario, "prepare", "scenarios.prepare"),
        (scn.TrackingScenario, "phi_target", "scenarios.phi_target"),
        (scn.WindScenario, "phi_target", "scenarios.phi_target"),
        (hf.runner, "power_gradient_density", "scenarios.power_gradient_density"),
        (sio, "write_series", "seriesio.write_series"),
        (sio, "write_histogram", "seriesio.write_histogram"),
        (sio, "write_manifest", "seriesio.write_manifest"),
        (sio, "write_summary", "seriesio.write_summary"),
        (sio, "write_pddf_dump", "seriesio.write_pddf_dump"),
    ]


# spans opened outside span_targets: the benchmark's two calls into the
# program, the interval loop and the noise draw
CONFIG_SPAN = "config.config_from_dict"
RUNNER_SPAN = "runner.write_outputs"
INTERVAL_SPAN = "engine.interval"
NOISE_SPAN = "engine.noise"


def span_names(hf) -> list[str]:
    names = [CONFIG_SPAN, RUNNER_SPAN, INTERVAL_SPAN, NOISE_SPAN]
    for _, _, name in span_targets(hf):
        if name not in names:
            names.append(name)
    return names


def instrument(hf, tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patches that route every traced call of one bundle through tracer."""
    patches = [(owner, attr, tracer.wrap(name, getattr(owner, attr)))
               for owner, attr, name in span_targets(hf)]
    init = hf.engine.Simulation.__init__

    def traced_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        sim.rng_noise = _NoiseProxy(sim.rng_noise,
                                    tracer.wrap(NOISE_SPAN, sim.rng_noise.normal))

    patches.append((hf.engine.Simulation, "__init__", traced_init))
    return patches

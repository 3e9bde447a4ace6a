"""Host-speed probes: a fixed reference kernel timed in and around every bundle.

On a virtual machine that shares its host with other tenants, speed drifts
by up to 2x over seconds to minutes (measured on a 2-vCPU x86-64 VM, where
CPU time stayed equal to wall time, so this is not steal). The benchmark
times a short reference kernel before and after every bundle and, between
two intervals, every PERIOD_NS of bundle time. The probes' own time is taken
out of the bundle's timings, which are then scaled to the host speed at which
the kernel takes REFERENCE_NS: each interval by the two probes around it
(`Probe.interval_scales`), the rest of the bundle by its mean probe
(`Probe.scale`). The speed drifts within seconds, so probes outside a
bundle do not predict its time; the ones inside do. The kernel uses Python and numpy only, never the program, so a change to
the program cannot move it; a change to this file is a change to the
benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# kernel time on an uncontended 2-vCPU x86-64 VM (numpy 2.4, Python 3.11)
REFERENCE_NS = 700_000
PERIOD_NS = 50_000_000
PROBE_SPAN = "calibrate.probe"


@dataclass(frozen=True)
class _Point:
    x: float


class _Kernel:
    """About 0.7 ms of work shaped like the program's: an array kernel over
    20k elements, small-array calls that build short-lived objects, and
    float formatting."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.standard_normal(20_000)
        self.index = rng.integers(0, 1001, self.big.size)
        self.small = self.big[:1000].copy()

    def __call__(self) -> float:
        y = np.exp(-np.abs(self.big)) * 0.5 + self.big
        acc = float(np.bincount(self.index, weights=y, minlength=1001).sum())
        for i in range(20):
            s = np.where(self.small > 0.0, self.small * 0.5, self.small) + 1.0
            acc += float(np.cumsum(s)[-1]) + _Point(float(i)).x
        return acc + len(",".join(repr(float(v)) for v in self.big[:200]))


_KERNEL = _Kernel()


class Probe:
    """Probe samples of one bundle; inner_ns is the probe time spent inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[int] = []
        # per interval, the index of the first probe after it
        self.marks: list[int] = []
        self.inner_ns = 0
        self._last = time.perf_counter_ns()

    def sample(self) -> None:
        """Time one kernel run now."""
        start = time.perf_counter_ns()
        _KERNEL()
        self._last = time.perf_counter_ns()
        self.samples.append(self._last - start)

    def between_intervals(self, now: int) -> None:
        """Called after every interval: probe if PERIOD_NS has passed. The
        probe gets a span of its own when traced."""
        self.marks.append(len(self.samples))
        if now - self._last < PERIOD_NS:
            return
        if self.tracer is not None:
            self.tracer.begin(PROBE_SPAN)
        start = time.perf_counter_ns()
        self.sample()
        if self.tracer is not None:
            self.tracer.end()
        self.inner_ns += time.perf_counter_ns() - start

    @property
    def scale(self) -> float:
        """Factor that takes the bundle's timings to reference host speed."""
        return REFERENCE_NS / (sum(self.samples) / len(self.samples))

    def interval_scales(self) -> np.ndarray:
        """Per interval, the factor from the last probe before it and the
        first after it; call once the probe after the bundle has run."""
        samples = np.asarray(self.samples, dtype=float)
        after = np.asarray(self.marks)
        return 2.0 * REFERENCE_NS / (samples[after - 1] + samples[after])

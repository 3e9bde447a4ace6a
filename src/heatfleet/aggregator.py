"""Central controller: power-density distributions and set-point selection.

Reports are folded into one power-weighted histogram per machine state over
the thermostat grid (the power density distribution functions phi0, phi1).
Because every thermostat switches on the same quantized measurement it
reported, the next-interval capacity factor is an exact function of the
candidate set-point index m_s:

    Phi(k+1, m_s) = sum_{m <= m_s - R/4} phi0(m) dtheta
                  + sum_{m <  m_s + R/4} phi1(m) dtheta

The off-state sum includes its boundary (units at the switch-on threshold
turn on); the on-state sum excludes its boundary (units at the switch-off
threshold turn off). Both follow the <=/>= switching of the deadband rule;
with this convention the prediction matches the realized capacity factor to
floating-point roundoff.

The capacity-factor function is nondecreasing in m_s, so the deviation
minimization over the admissible integer interval is a sorted search over
the admissible CFF values; equal-deviation ties resolve to the index closest
to R/2 (least set-point disturbance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .thermostat import ThermostatConfig

__all__ = [
    "PowerDensityPair",
    "FeasibleRegion",
    "ControlDecision",
    "build_pddf_from_arrays",
    "capacity_factor",
    "cff",
    "feasible_region",
    "max_cff_increment",
    "select_setpoint",
]


@dataclass(frozen=True, eq=False)  # arrays have no truth value: identity equality
class PowerDensityPair:
    """Discrete PDDFs over the measurement grid of the thermostat config cfg.

    phi0/phi1 are densities per degC for the inactive/active states, indexed
    by m in [0, R]; phi * cfg.grid_step is the fraction of installed capacity
    in that bin. The pair holds fractions only: the fleet's capacity in kW is
    kept by the Population and the run's Simulation and ScenarioSeries.
    """

    phi0: np.ndarray
    phi1: np.ndarray
    cfg: ThermostatConfig
    # the CFF over [3R/8, 5R/8], the current capacity factor and the largest CFF step
    _window: np.ndarray = field(init=False, repr=False)
    _phi_now: float = field(init=False, repr=False)
    _max_step: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        phi0 = np.asarray(self.phi0, dtype=float)
        phi1 = np.asarray(self.phi1, dtype=float)
        if not phi0.shape == phi1.shape == (self.cfg.resolution + 1,):
            raise ValueError(f"phi0 and phi1 must each have R + 1 = {self.cfg.resolution + 1} "
                             f"entries, got shapes {phi0.shape} and {phi1.shape}")
        densities = np.concatenate((phi0, phi1))
        if not (np.isfinite(densities).all() and (densities >= 0.0).all()):
            raise ValueError("densities must be finite and nonnegative")
        self._set_densities(densities)

    @classmethod
    def _from_valid(cls, densities: np.ndarray, cfg: ThermostatConfig) -> "PowerDensityPair":
        """Construct without re-validating. The caller guarantees every
        invariant __post_init__ checks: densities is the finite, nonnegative 1-d
        float array [phi0 | phi1] with cfg.resolution + 1 entries in each half."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "cfg", cfg)
        pair._set_densities(densities)
        return pair

    def _set_densities(self, densities: np.ndarray) -> None:
        # phi0 and phi1 are views of [phi0 | phi1]; scaling it once gives the
        # same products, and each cumsum the same sequential sums. Entry i of
        # the window is the CFF at m_s = lo + i, cum0[m_s - off] +
        # cum1[m_s + off - 1], so the off half's sum stops at hi - off.
        cfg = self.cfg
        lo, hi, off, bins = cfg.ms_min, cfg.ms_max, cfg.switch_offset, cfg.resolution + 1
        f = densities * cfg.grid_step
        cum0 = f[:hi - off + 1].cumsum()
        cum1 = f[bins:].cumsum()
        # stepping m_s -> m_s+1 newly includes bin m_s+1-off of phi0 and bin m_s+off of phi1
        steps = f[lo + 1 - off: hi + 1 - off] + f[bins + lo + off: bins + hi + off]
        object.__setattr__(self, "phi0", densities[:bins])
        object.__setattr__(self, "phi1", densities[bins:])
        object.__setattr__(self, "_window", cum0[lo - off:] + cum1[lo + off - 1: hi + off])
        object.__setattr__(self, "_phi_now", float(cum1[-1]))
        object.__setattr__(self, "_max_step", float(steps.max()))


class FeasibleRegion(NamedTuple):
    """Admissible set-point indices and the capacity factors they reach."""

    ms_min: int
    ms_max: int
    phi_min: float
    phi_max: float


class ControlDecision(NamedTuple):
    """Outcome of one set-point selection."""

    ms_min: int
    ms_max: int
    phi_min: float
    phi_max: float
    ms_star: int
    u: float
    phi_target: float
    phi_predicted: float


def build_pddf_from_arrays(machine_state, temperature_index, rated_power,
                           cfg: ThermostatConfig) -> PowerDensityPair:
    """Vectorized PDDF construction from aligned report arrays.

    The checks below (1-d reports of one length, at least one, rated powers > 0
    with a finite sum, every index in [0, R]) imply every invariant
    PowerDensityPair validates, so the pair is built without validating it again.
    """
    n = np.asarray(machine_state)
    m = np.asarray(temperature_index)
    p = np.asarray(rated_power, dtype=float)
    if not (n.ndim == 1 and n.shape == m.shape == p.shape):  # no report broadcasts
        raise ValueError("report arrays must be 1-d and of one length, got shapes "
                         f"{n.shape}, {m.shape} and {p.shape}")
    if n.size == 0:
        raise ValueError("cannot build a PDDF from zero reports")
    if not np.minimum.reduce(p) > 0.0:  # NaN propagates, so NaN is rejected too
        raise ValueError("all rated powers must be > 0")
    if np.minimum.reduce(m) < 0 or np.maximum.reduce(m) > cfg.resolution:
        raise ValueError("temperature index outside [0, R]")
    p_cap = float(np.add.reduce(p))
    if not math.isfinite(p_cap):
        raise ValueError(f"installed capacity must be finite, got {p_cap}")
    bins = cfg.resolution + 1
    # one histogram over [off bins | on bins]; each bin still sums in unit order
    keys = np.multiply(n != 0, bins, dtype=np.min_scalar_type(-2 * bins))  # holds 2R + 1
    keys += m  # m of any int dtype: its values are in [0, R], checked above
    w = np.bincount(keys, weights=p, minlength=2 * bins)
    w /= p_cap * cfg.grid_step
    return PowerDensityPair._from_valid(w, cfg)


def capacity_factor(pddf: PowerDensityPair) -> float:
    """Current aggregate draw as a fraction of installed capacity."""
    return pddf._phi_now


def cff(pddf: PowerDensityPair, m_s: int) -> float:
    """Capacity-factor function: predicted next-interval Phi for set-point index m_s."""
    cfg = pddf.cfg
    if not cfg.ms_min <= m_s <= cfg.ms_max:
        raise ValueError(
            f"set-point index {m_s} outside admissible [{cfg.ms_min}, {cfg.ms_max}]"
        )
    return float(pddf._window[m_s - cfg.ms_min])


def feasible_region(pddf: PowerDensityPair) -> FeasibleRegion:
    """Achievable next-interval capacity factors under the quarter-deadband limit."""
    lo, hi = pddf.cfg.ms_min, pddf.cfg.ms_max
    return FeasibleRegion(lo, hi, cff(pddf, lo), cff(pddf, hi))


def select_setpoint(pddf: PowerDensityPair, phi_target: float) -> ControlDecision:
    """Pick the admissible set-point index whose predicted Phi is closest to the target.

    The minimizers of the squared deviation, compared as gaps |phi_target -
    cff| so that no square can underflow, form one contiguous run of indices
    (plateaus of equal cff, plus both bracketing plateaus when the target is
    exactly midway); within it the index nearest R/2 is returned. Targets
    outside the feasible region clamp to the corresponding bound.
    """
    if not math.isfinite(phi_target):
        raise ValueError(f"phi_target must be finite, got {phi_target!r}")
    region = feasible_region(pddf)
    lo, w = region.ms_min, pddf._window
    # w[k-1] < phi_target <= w[k], so both gaps are >= 0; outside the window
    # both brackets collapse onto w[0] or w[-1] and the gaps do not matter
    k = int(w.searchsorted(phi_target, "left"))
    below, above = float(w[max(k - 1, 0)]), float(w[min(k, w.size - 1)])
    gap_below = phi_target - below
    gap_above = above - phi_target
    best_lo = below if gap_below <= gap_above else above
    best_hi = above if gap_above <= gap_below else below
    run_lo = lo + int(w.searchsorted(best_lo, "left"))
    run_hi = lo + int(w.searchsorted(best_hi, "right")) - 1

    center = pddf.cfg.resolution // 2
    ms_star = min(max(center, run_lo), run_hi)
    u = pddf.cfg.deadband * (2.0 * ms_star / pddf.cfg.resolution - 1.0)
    return ControlDecision(*region, ms_star, u, float(phi_target), float(w[ms_star - lo]))


def max_cff_increment(pddf: PowerDensityPair) -> float:
    """Largest one-index CFF step over the admissible interval.

    This is the granularity of the capacity factors reachable from the
    current PDDF: any feasible target can be met to within one such step.
    """
    return pddf._max_step

"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria (tolerances pinned here, not calibrated later):
  1. prediction/realization exactness <= 1e-12 on randomized populations
  2. index-space switching == exact-rational temperature-space rule
  3. sorted-search optimizer == exhaustive scan, exact offset bound and identity
  4. tracking fidelity within the per-interval quantization floor
  5. saturation: feasible ceiling decays on average, system stays stable
  6. wind regulation: gradient filtering + two-interval smoothing identity
  7. density invariants and CFF monotonicity
  8. byte-identical wind reruns from the emitted manifest
  9. comfort envelope on every acceptance run
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from heatfleet.aggregator import (
    build_pddf_from_arrays,
    capacity_factor,
    cff,
    select_setpoint,
)
from heatfleet.cli import main
from heatfleet.engine import PopulationSpec, SimulationClock, run_simulation
from heatfleet.scenarios import SaturationScenario, TrackingScenario, WindScenario
from heatfleet.config import config_from_dict
from heatfleet.thermostat import ThermostatConfig, hysteresis_update

SETPOINT, DEADBAND = 20.0, 1.0


def random_population(rng, n, cfg):
    m = rng.integers(0, cfg.resolution + 1, n)
    state = rng.integers(0, 2, n)
    power = rng.uniform(3.0, 5.0, n)
    return state, m, power


# ---------------------------------------------------------------------------
# Shared scenario runs (criteria 4, 5, 6 and the comfort gate 9)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tracking_series():
    spec = PopulationSpec(count=1000, thermostat=ThermostatConfig(20.0, 1.0, 1000),
                          initial_outdoor_temp=4.0, seed=20110319)
    scenario = TrackingScenario(outdoor_temp=4.0, burn_in=100)
    return run_simulation(spec, scenario, SimulationClock(1.0, 400))


@pytest.fixture(scope="module")
def saturation_series():
    spec = PopulationSpec(count=1000, thermostat=ThermostatConfig(20.0, 1.0, 1000),
                          initial_outdoor_temp=4.0, seed=20110629)
    scenario = SaturationScenario(outdoor_temp=4.0, burn_in=100, overshoot=0.1)
    return run_simulation(spec, scenario, SimulationClock(1.0, 200))


@pytest.fixture(scope="module")
def wind_pair():
    config = config_from_dict({
        "scenario": "wind",
        "seed": 20118,
        "clock": {"horizon": 1440},
        "population": {"count": 500},
        "wind": {"burn_in": 100},
    })
    spec = PopulationSpec(
        count=500,
        thermostat=ThermostatConfig(20.0, 1.0, 1000),
        initial_outdoor_temp=config.wind.synthetic.temp_mean,
        seed=config.seed,
    )
    clock = SimulationClock(1.0, 1440)
    arms = []
    for controlled in (True, False):
        scenario = WindScenario(
            turbine=config.wind.turbine, nominal=config.wind.nominal,
            synthetic=config.wind.synthetic, burn_in=100 if controlled else 1440,
        )
        arms.append(run_simulation(spec, scenario, clock))
    return arms[0], arms[1]


# ---------------------------------------------------------------------------
# Criterion 1: CFF exactness on randomized populations
# ---------------------------------------------------------------------------


def test_criterion_1_cff_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([10, 100, 1000]))
        r = int(rng.choice([8, 64, 1000]))
        cfg = ThermostatConfig(SETPOINT, DEADBAND, r)
        state, m, power = random_population(rng, n, cfg)
        pddf = build_pddf_from_arrays(state, m, power, cfg)
        m_s = int(rng.integers(cfg.ms_min, cfg.ms_max + 1))
        predicted = cff(pddf, m_s)
        n_new = hysteresis_update(state, m, m_s, cfg)
        realized = power[n_new.astype(bool)].sum() / power.sum()
        worst = max(worst, abs(predicted - realized))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 1 PASS: CFF exactness, worst |pred - real| = {worst:.3e}")


# ---------------------------------------------------------------------------
# Criterion 2: deadband rule equivalence against an exact-rational oracle
# ---------------------------------------------------------------------------


def _rational_rule(n, m, m_s, cfg):
    theta_s, delta, r = Fraction(cfg.setpoint), Fraction(cfg.deadband), cfg.resolution
    theta = theta_s - delta * (1 - Fraction(2 * m, r))
    u = delta * (Fraction(2 * m_s, r) - 1)
    if theta <= theta_s - delta / 2 + u:
        return 1
    if theta >= theta_s + delta / 2 + u:
        return 0
    return n


def test_criterion_2_switching_rule_equivalence():
    cfg8 = ThermostatConfig(SETPOINT, DEADBAND, 8)
    checks = 0
    # every (m, n) pair on the R = 8 grid, as one fleet per set-point index
    m, n = np.repeat(np.arange(9), 2), np.tile([0, 1], 9)
    for m_s in range(cfg8.ms_min, cfg8.ms_max + 1):
        got = hysteresis_update(n, m, m_s, cfg8).tolist()
        assert got == [_rational_rule(a, b, m_s, cfg8) for a, b in zip(n.tolist(), m.tolist())]
        checks += m.size

    cfg = ThermostatConfig(SETPOINT, DEADBAND, 1000)
    rng = np.random.default_rng(102)
    m = rng.integers(0, 1001, 100_000)
    n = rng.integers(0, 2, 100_000)
    m_s = rng.integers(cfg.ms_min, cfg.ms_max + 1, 100_000)
    # one set-point index is broadcast to a whole fleet: one call per index drawn
    for index in np.unique(m_s).tolist():
        units = np.flatnonzero(m_s == index)
        got = hysteresis_update(n[units], m[units], index, cfg).tolist()
        assert got == [_rational_rule(a, b, index, cfg)
                       for a, b in zip(n[units].tolist(), m[units].tolist())]
    print(f"\nACCEPTANCE 2 PASS: switching equivalence, {checks} exhaustive "
          f"+ 100000 random checks")


# ---------------------------------------------------------------------------
# Criterion 3: optimizer correctness
# ---------------------------------------------------------------------------


def test_criterion_3_optimizer_correctness():
    rng = np.random.default_rng(103)
    for trial in range(1000):
        r = int(rng.choice([8, 64, 1000]))
        cfg = ThermostatConfig(SETPOINT, DEADBAND, r)
        state, m, power = random_population(rng, int(rng.integers(1, 200)), cfg)
        pddf = build_pddf_from_arrays(state, m, power, cfg)
        target = float(rng.uniform(-0.3, 1.3))
        decision = select_setpoint(pddf, target)

        center = r // 2
        best = None
        for m_s in range(cfg.ms_min, cfg.ms_max + 1):
            dev = (target - cff(pddf, m_s)) ** 2
            key = (dev, abs(m_s - center))
            if best is None or key < best[0]:
                best = (key, m_s)
        assert decision.ms_star == best[1]
        assert abs(decision.u) <= cfg.deadband / 4
        # the grid temperature theta(m*) of the chosen index is setpoint + u
        assert cfg.setpoint + cfg.deadband * (2.0 * decision.ms_star / r - 1.0) == \
            cfg.setpoint + decision.u
    print("\nACCEPTANCE 3 PASS: sorted search == exhaustive scan on 1000 instances, "
          "|u| <= deadband/4 and the offset identity exact")


# ---------------------------------------------------------------------------
# Criterion 4: tracking fidelity at the quantization floor
# ---------------------------------------------------------------------------


def test_criterion_4_tracking_fidelity(tracking_series):
    s = tracking_series
    assert len(s) == 400
    controlled = s.controlled
    assert controlled.sum() == 300  # control from k = 100
    feasible = controlled & (s.phi_target >= s.phi_min) & (s.phi_target <= s.phi_max)
    assert feasible.sum() == controlled.sum()  # tracking targets are clamped feasible
    err = np.abs(s.phi - s.phi_target)[feasible]
    floor = s.quantization_floor[feasible]
    assert (err <= floor).all()
    mean_err = float(err.mean())
    print(f"\nACCEPTANCE 4 PASS: tracking error within the quantization floor "
          f"on {int(feasible.sum())} intervals, mean |phi - target| = {mean_err:.5f}")


# ---------------------------------------------------------------------------
# Criterion 5: saturation behavior under an infeasible sustained target
# ---------------------------------------------------------------------------


def test_criterion_5_saturation(saturation_series):
    s = saturation_series
    window = slice(100, 200)
    assert s.controlled[window].all()
    # requested target always exceeds the feasible maximum
    assert (s.phi_target[window] > s.phi_max[window]).all()
    # clamping: the realized factor equals the feasible ceiling, exactly as predicted
    assert np.array_equal(s.phi_predicted[window], s.phi_max[window])
    assert np.max(np.abs(s.phi - s.phi_predicted)) <= 1e-12
    # the ceiling decays on average while the buildings charge up
    k = np.arange(100, 200)
    slope = np.polyfit(k, s.phi_max[window], 1)[0]
    assert slope < 0.0
    # stability: offsets pinned at the quarter-deadband bound, comfort held
    assert (np.abs(s.u[window]) <= DEADBAND / 4).all()
    assert (s.max_theta <= SETPOINT + DEADBAND + 0.1).all()
    assert (s.min_theta >= SETPOINT - DEADBAND - 0.1).all()
    print(f"\nACCEPTANCE 5 PASS: saturation ceiling slope {slope:.2e} per interval "
          f"< 0, clamped and comfortable throughout")


# ---------------------------------------------------------------------------
# Criterion 6: wind regulation: gradient filtering and smoothing identity
# ---------------------------------------------------------------------------


def test_criterion_6_wind_regulation(wind_pair):
    controlled, uncontrolled = wind_pair
    assert np.array_equal(controlled.nominal_kw, uncontrolled.nominal_kw)
    assert np.array_equal(controlled.wind_kw, uncontrolled.wind_kw)

    sd_controlled = float(np.std(np.diff(controlled.total_kw), ddof=1))
    sd_uncontrolled = float(np.std(np.diff(uncontrolled.total_kw), ddof=1))
    assert sd_controlled < sd_uncontrolled

    s = controlled
    feasible = s.controlled & (s.phi_target >= s.phi_min) & (s.phi_target <= s.phi_max)
    idx = np.nonzero(feasible)[0]
    idx = idx[idx >= 2]
    assert idx.size > 50
    smoothing_residual = np.abs(
        s.total_kw[idx] - 0.5 * (s.total_kw[idx - 1] + s.total_kw[idx - 2]))
    bound = s.quantization_floor[idx] * s.installed_capacity
    assert (smoothing_residual <= bound).all()
    print(f"\nACCEPTANCE 6 PASS: gradient sd {sd_controlled:.1f} kW (controlled) < "
          f"{sd_uncontrolled:.1f} kW (uncontrolled); smoothing identity on "
          f"{idx.size} feasible intervals ({int(feasible.sum())} of "
          f"{int(s.controlled.sum())} controlled)")


# ---------------------------------------------------------------------------
# Criterion 7: density invariants and CFF monotonicity
# ---------------------------------------------------------------------------


def test_criterion_7_density_invariants():
    rng = np.random.default_rng(107)
    for _ in range(100):
        r = int(rng.choice([8, 64, 1000]))
        cfg = ThermostatConfig(SETPOINT, DEADBAND, r)
        state, m, power = random_population(rng, int(rng.integers(1, 500)), cfg)
        pddf = build_pddf_from_arrays(state, m, power, cfg)
        assert (pddf.phi0 >= 0).all() and (pddf.phi1 >= 0).all()
        total_mass = np.cumsum(pddf.phi0 * pddf.cfg.grid_step)[-1] + capacity_factor(pddf)
        assert abs(total_mass - 1.0) <= 1e-9
        sweep = np.array([cff(pddf, m_s)
                          for m_s in range(cfg.ms_min, cfg.ms_max + 1)])
        assert (np.diff(sweep) >= 0.0).all()
    print("\nACCEPTANCE 7 PASS: nonnegativity, unit normalization and CFF "
          "monotonicity on 100 random populations")


# ---------------------------------------------------------------------------
# Criterion 8: determinism: byte-identical rerun from the emitted manifest
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    config_path = tmp_path / "wind.json"
    config_path.write_text(json.dumps({
        "scenario": "wind",
        "seed": 424242,
        "clock": {"horizon": 400},
        "population": {"count": 300},
        "wind": {"burn_in": 50},
    }))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["wind", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["wind", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    names = ["wind_controlled_series.csv", "wind_uncontrolled_series.csv",
             "gradient_controlled.csv", "gradient_uncontrolled.csv",
             "summary.json", "manifest.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print(f"\nACCEPTANCE 8 PASS: {len(names)} output files byte-identical across "
          f"a manifest rerun")


# ---------------------------------------------------------------------------
# Criterion 9: comfort guarantee over every acceptance run
# ---------------------------------------------------------------------------


def test_criterion_9_comfort(tracking_series, saturation_series, wind_pair):
    runs = {
        "tracking": tracking_series,
        "saturation": saturation_series,
        "wind_controlled": wind_pair[0],
        "wind_uncontrolled": wind_pair[1],
    }
    for name, s in runs.items():
        lo = s.thermostat.setpoint - s.thermostat.deadband - 0.1
        hi = s.thermostat.setpoint + s.thermostat.deadband + 0.1
        assert (s.min_theta >= lo).all(), name
        assert (s.max_theta <= hi).all(), name
        assert abs(s.mean_theta.mean() - s.thermostat.setpoint) < s.thermostat.deadband / 2, name
    print("\nACCEPTANCE 9 PASS: all unit-intervals inside the comfort envelope "
          "and run means within deadband/2 of the setpoint on "
          f"{len(runs)} runs")

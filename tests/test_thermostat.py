"""Thermostat grid tests, including an exact-rational oracle for the deadband rule."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from heatfleet.thermostat import ThermostatConfig, hysteresis_update, quantize

CFG_PAPER = ThermostatConfig(setpoint=20.0, deadband=1.0, resolution=1000)
CFG_SMALL = ThermostatConfig(setpoint=20.0, deadband=1.0, resolution=8)


def deadband_rule_oracle(n: int, m: int, m_s: int, cfg: ThermostatConfig) -> int:
    """Switching rule evaluated in temperature space with exact rationals.

    Uses the grid temperature of index m, the offset implied by index m_s,
    and the literal <=/>= boundary comparisons. Fraction arithmetic makes
    the boundary equalities exact regardless of binary rounding.
    """
    theta_s = Fraction(cfg.setpoint)
    delta = Fraction(cfg.deadband)
    r = cfg.resolution
    theta = theta_s - delta * (1 - Fraction(2 * m, r))
    u = delta * (Fraction(2 * m_s, r) - 1)
    lower = theta_s - delta / 2 + u
    upper = theta_s + delta / 2 + u
    if theta <= lower:
        return 1
    if theta >= upper:
        return 0
    return n


def quantize_one(theta: float, cfg: ThermostatConfig) -> int:
    """quantize of a one-unit fleet."""
    (m,) = quantize(np.array([theta]), cfg)
    return int(m)


def switch_one(n: int, m: int, m_s: int, cfg: ThermostatConfig) -> int:
    """hysteresis_update of a one-unit fleet."""
    (n_new,) = hysteresis_update(np.array([n], dtype=np.int8), np.array([m]), m_s, cfg)
    return int(n_new)


class TestQuantize:
    def test_setpoint_maps_to_midpoint(self):
        assert quantize_one(20.0, CFG_PAPER) == 500
        assert quantize_one(20.0, CFG_SMALL) == 4

    def test_grid_endpoints(self):
        assert quantize_one(19.0, CFG_PAPER) == 0
        assert quantize_one(21.0, CFG_PAPER) == 1000

    def test_paper_resolution_example(self):
        # round((0.355 + 1) / 0.002) with half-away-from-zero rounding
        assert quantize_one(20.355, CFG_PAPER) == 678

    def test_out_of_range_clamps(self):
        assert quantize_one(12.0, CFG_PAPER) == 0
        assert quantize_one(30.0, CFG_PAPER) == 1000

    def test_round_trip_within_half_step(self):
        thetas = np.linspace(19.0, 21.0, 20_011)
        m = quantize(thetas, CFG_PAPER)
        # theta(m) = setpoint + deadband * (2m/R - 1), the grid map quantize inverts
        back = CFG_PAPER.setpoint + CFG_PAPER.deadband * (2.0 * m / CFG_PAPER.resolution - 1.0)
        assert np.max(np.abs(back - thetas)) <= CFG_PAPER.grid_step / 2 + 1e-12

    def test_array_input(self):
        m = quantize(np.array([19.0, 20.0, 21.0]), CFG_PAPER)
        assert m.tolist() == [0, 500, 1000]


class TestHysteresis:
    def test_zero_offset_boundaries(self):
        assert switch_one(0, 250, 500, CFG_PAPER) == 1
        assert switch_one(1, 750, 500, CFG_PAPER) == 0
        assert switch_one(1, 500, 500, CFG_PAPER) == 1  # hold
        assert switch_one(0, 500, 500, CFG_PAPER) == 0  # hold

    def test_boundary_equality_switches(self):
        # exactly at the thresholds: <= and >= both act
        assert switch_one(0, 250, 500, CFG_PAPER) == 1
        assert switch_one(1, 250, 500, CFG_PAPER) == 1
        assert switch_one(1, 750, 500, CFG_PAPER) == 0
        assert switch_one(0, 750, 500, CFG_PAPER) == 0

    def test_offset_moves_boundaries(self):
        # m_s = 625 is the +deadband/4 bound: thresholds at 375 and 875
        assert switch_one(0, 375, 625, CFG_PAPER) == 1
        assert switch_one(0, 376, 625, CFG_PAPER) == 0
        assert switch_one(1, 875, 625, CFG_PAPER) == 0
        assert switch_one(1, 874, 625, CFG_PAPER) == 1

    def test_admissible_interval_enforced(self):
        with pytest.raises(ValueError):
            switch_one(0, 500, 374, CFG_PAPER)
        with pytest.raises(ValueError):
            switch_one(0, 500, 626, CFG_PAPER)

    def test_hold_inside_band(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m_s = int(rng.integers(CFG_PAPER.ms_min, CFG_PAPER.ms_max + 1))
            m = int(rng.integers(m_s - 249, m_s + 250))
            for n in (0, 1):
                assert switch_one(n, m, m_s, CFG_PAPER) == n

    def test_exhaustive_small_grid_matches_oracle(self):
        cfg = CFG_SMALL
        for m_s in range(cfg.ms_min, cfg.ms_max + 1):
            for m in range(cfg.resolution + 1):
                for n in (0, 1):
                    assert switch_one(n, m, m_s, cfg) == \
                        deadband_rule_oracle(n, m, m_s, cfg)

    def test_sampled_paper_grid_matches_oracle(self):
        rng = np.random.default_rng(11)
        cfg = CFG_PAPER
        for _ in range(5000):
            m = int(rng.integers(0, cfg.resolution + 1))
            m_s = int(rng.integers(cfg.ms_min, cfg.ms_max + 1))
            n = int(rng.integers(0, 2))
            assert switch_one(n, m, m_s, cfg) == \
                deadband_rule_oracle(n, m, m_s, cfg)

    def test_array_form_agrees_with_scalar(self):
        rng = np.random.default_rng(13)
        m = rng.integers(0, 1001, 500)
        n = rng.integers(0, 2, 500)
        out = hysteresis_update(n, m, 531, CFG_PAPER)
        for i in range(500):
            assert out[i] == switch_one(int(n[i]), int(m[i]), 531, CFG_PAPER)


def test_config_invariants():
    with pytest.raises(ValueError):
        ThermostatConfig(resolution=1001)
    with pytest.raises(ValueError):
        ThermostatConfig(resolution=4)
    with pytest.raises(ValueError):
        ThermostatConfig(deadband=0.0)
    for bad in (dict(setpoint=math.nan), dict(setpoint=-math.inf), dict(deadband=math.inf)):
        with pytest.raises(ValueError, match="setpoint and deadband must be finite"):
            ThermostatConfig(**bad)
    with pytest.raises(ValueError):  # grid step 2 * deadband / R underflows to 0
        ThermostatConfig(deadband=5e-324)
    # 2 * deadband overflows to inf from deadband 2**1023 on; just below it
    # the grid step is finite
    for huge in (1e308, 2.0**1023):
        with pytest.raises(ValueError, match="gives grid step inf at resolution 1000"):
            ThermostatConfig(deadband=huge)
    assert math.isfinite(ThermostatConfig(deadband=math.nextafter(2.0**1023, 0.0)).grid_step)
    cfg = ThermostatConfig(setpoint=21.0, deadband=2.0, resolution=64)
    assert cfg.grid_step * cfg.resolution == pytest.approx(2 * cfg.deadband, abs=0)
    assert (cfg.ms_min, cfg.ms_max, cfg.switch_offset) == (24, 40, 16)
    # the grid constants are computed once per config, never carried to a new one
    wider = dataclasses.replace(cfg, resolution=128)
    assert (wider.grid_step, wider.ms_min, wider.ms_max, wider.switch_offset) == \
        (4.0 / 128, 48, 80, 32)
    assert wider != cfg and hash(cfg) == hash(ThermostatConfig(21.0, 2.0, 64))


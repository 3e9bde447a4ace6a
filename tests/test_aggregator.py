"""Aggregator tests: PDDF construction, CFF exactness, feasible region, optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from heatfleet.aggregator import (
    PowerDensityPair,
    build_pddf_from_arrays,
    capacity_factor,
    cff,
    feasible_region,
    max_cff_increment,
    select_setpoint,
)
from heatfleet.thermostat import ThermostatConfig, hysteresis_update

CFG8 = ThermostatConfig(setpoint=20.0, deadband=1.0, resolution=8)
CFG1000 = ThermostatConfig(setpoint=20.0, deadband=1.0, resolution=1000)


def random_reports(rng, n, cfg):
    m = rng.integers(0, cfg.resolution + 1, n)
    state = rng.integers(0, 2, n)
    power = rng.uniform(3.0, 5.0, n)
    return state, m, power


def pddf_of(reports, cfg):
    """PDDF of (machine_state, temperature_index, rated_power) report triples."""
    state, m, power = (np.array(column) for column in zip(*reports))
    return build_pddf_from_arrays(state, m, power, cfg)


def total_mass(pddf):
    """sum (phi0 + phi1) * grid_step; 1.0 for any PDDF built from reports."""
    return np.cumsum(pddf.phi0 * pddf.cfg.grid_step)[-1] + capacity_factor(pddf)


def realized_phi_after_switch(state, m, power, m_s, cfg):
    """Independent oracle: apply the deadband rule to every unit and sum."""
    n_new = hysteresis_update(state, m, m_s, cfg)
    return power[n_new.astype(bool)].sum() / power.sum()


class TestBuildPddf:
    def test_single_unit(self):
        pddf = pddf_of([(1, 300, 4.0)], CFG1000)
        assert pddf.phi1[300] * pddf.cfg.grid_step == pytest.approx(1.0, abs=1e-12)
        assert pddf.phi0.sum() == 0.0

    def test_pair_carries_its_config(self):
        cfg = ThermostatConfig(setpoint=21.0, deadband=0.5, resolution=16)
        assert build_pddf_from_arrays(np.array([1]), np.array([3]), np.array([4.0]),
                                      cfg).cfg is cfg

    def test_two_unit_weighted_histogram(self):
        pddf = pddf_of([(1, 300, 4.0), (0, 700, 6.0)], CFG1000)
        assert pddf.phi1[300] * pddf.cfg.grid_step == pytest.approx(0.4, abs=1e-12)
        assert pddf.phi0[700] * pddf.cfg.grid_step == pytest.approx(0.6, abs=1e-12)

    def test_capacity_factor_matches_direct_sum(self):
        rng = np.random.default_rng(17)
        state, m, power = random_reports(rng, 1000, CFG1000)
        pddf = build_pddf_from_arrays(state, m, power, CFG1000)
        direct = (state * power).sum() / power.sum()
        assert abs(capacity_factor(pddf) - direct) <= 1e-12

    def test_array_and_report_paths_agree(self):
        # per-unit reports as plain Python lists fold exactly like the engine's arrays
        rng = np.random.default_rng(23)
        state, m, power = random_reports(rng, 200, CFG8)
        a = build_pddf_from_arrays([int(s) for s in state], [int(i) for i in m],
                                   [float(p) for p in power], CFG8)
        b = build_pddf_from_arrays(state.astype(np.int8), m, power, CFG8)
        assert np.array_equal(a.phi0, b.phi0)
        assert np.array_equal(a.phi1, b.phi1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_pddf_from_arrays([], [], [], CFG8)
        with pytest.raises(ValueError):
            build_pddf_from_arrays(np.array([], dtype=int), np.array([], dtype=int),
                                   np.array([]), CFG8)

    @pytest.mark.parametrize("bad", ["state", "index", "power"])
    def test_report_array_not_1d_rejected(self, bad):
        reports = {"state": np.array([1, 0]), "index": np.array([2, 3]),
                   "power": np.array([4.0, 5.0])}
        reports[bad] = np.stack([reports[bad]] * 2)
        with pytest.raises(ValueError, match="report arrays must be 1-d"):
            build_pddf_from_arrays(reports["state"], reports["index"], reports["power"], CFG8)

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("bad", ["state", "index", "power"])
    def test_misaligned_reports_rejected(self, bad, length):
        # a one-entry state or index array would broadcast over the whole
        # fleet: [1] with four units gave a capacity factor of 1.0
        reports = {"state": np.array([1, 0, 0, 1]), "index": np.array([2, 3, 4, 5]),
                   "power": np.array([4.0, 5.0, 3.0, 3.5])}
        reports[bad] = reports[bad][:length]
        with pytest.raises(ValueError, match="report arrays must be 1-d and of one length"):
            build_pddf_from_arrays(reports["state"], reports["index"], reports["power"], CFG8)

    def test_index_out_of_range_rejected(self):
        # an on-state unit at -1 would land in the last off bin if not rejected
        for index in (9, -1):
            with pytest.raises(ValueError, match="outside"):
                build_pddf_from_arrays(np.array([1]), np.array([index]), np.array([4.0]), CFG8)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_nonpositive_or_nan_power_rejected(self, bad):
        # the pair is built without re-validation, so this check must hold alone
        with pytest.raises(ValueError, match="rated powers"):
            build_pddf_from_arrays(np.array([1, 0]), np.array([2, 3]),
                                   np.array([4.0, bad]), CFG8)

    @pytest.mark.parametrize("power", [[4.0, np.inf], [1e308, 1e308]])
    def test_non_finite_capacity_rejected(self, power):
        # an infinite capacity would divide one density to nan, unchecked; the
        # second sum overflows, which numpy also warns about
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="installed capacity must be finite"):
            build_pddf_from_arrays(np.array([1, 0]), np.array([2, 3]), np.array(power), CFG8)

    def test_normalization_and_nonnegativity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            state, m, power = random_reports(rng, n, CFG1000)
            pddf = build_pddf_from_arrays(state, m, power, CFG1000)
            assert (pddf.phi0 >= 0).all() and (pddf.phi1 >= 0).all()
            assert abs(total_mass(pddf) - 1.0) <= 1e-9


class TestCapacityFactor:
    def test_all_inactive(self):
        pddf = pddf_of([(0, 100, 4.0)], CFG1000)
        assert capacity_factor(pddf) == 0.0

    def test_all_active(self):
        state = np.ones(50, dtype=int)
        m = np.full(50, 500)
        power = np.linspace(3, 5, 50)
        pddf = build_pddf_from_arrays(state, m, power, CFG1000)
        assert capacity_factor(pddf) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_aggregate_demand(self):
        pddf = pddf_of([(1, 300, 4.0), (0, 700, 6.0)], CFG1000)
        phi = capacity_factor(pddf)
        assert phi == pytest.approx(0.4, abs=1e-12)


class TestCff:
    def test_worked_example(self):
        # masses phi*dtheta laid out on the 9-point grid, dtheta = 0.25
        mass0 = np.array([0.1, 0.1, 0, 0, 0.2, 0, 0, 0, 0])
        mass1 = np.array([0, 0, 0.3, 0, 0, 0.3, 0, 0, 0])
        pddf = PowerDensityPair(phi0=mass0 / 0.25, phi1=mass1 / 0.25, cfg=CFG8)
        assert cff(pddf, 4) == pytest.approx(0.8, abs=1e-12)

    def test_worked_example_against_unit_simulation(self):
        # five explicit units carrying the same weights, switched per the deadband rule
        state = np.array([0, 0, 0, 1, 1])
        m = np.array([0, 1, 4, 2, 5])
        power = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        pddf = build_pddf_from_arrays(state, m, power, CFG8)
        for m_s in range(CFG8.ms_min, CFG8.ms_max + 1):
            realized = realized_phi_after_switch(state, m, power, m_s, CFG8)
            assert abs(cff(pddf, m_s) - realized) <= 1e-12

    def test_saturated_low_mass(self):
        # all active mass at the bottom of the grid: everything stays on
        pddf = pddf_of([(1, 0, 4.0)], CFG1000)
        for m_s in (375, 500, 625):
            assert cff(pddf, m_s) == pytest.approx(1.0, abs=1e-12)

    def test_saturated_high_mass(self):
        # all inactive mass at the top: nothing switches on
        pddf = pddf_of([(0, 1000, 4.0)], CFG1000)
        for m_s in (375, 500, 625):
            assert cff(pddf, m_s) == 0.0

    def test_out_of_range_rejected(self):
        pddf = pddf_of([(1, 500, 4.0)], CFG1000)
        with pytest.raises(ValueError):
            cff(pddf, 374)
        with pytest.raises(ValueError):
            cff(pddf, 626)

    def test_nondecreasing_in_setpoint_index(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            state, m, power = random_reports(rng, int(rng.integers(1, 300)), CFG8)
            pddf = build_pddf_from_arrays(state, m, power, CFG8)
            values = [cff(pddf, s) for s in range(CFG8.ms_min, CFG8.ms_max + 1)]
            assert (np.diff(values) >= 0).all()

    def test_prediction_equals_realization(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            state, m, power = random_reports(rng, int(rng.integers(1, 400)), CFG8)
            pddf = build_pddf_from_arrays(state, m, power, CFG8)
            m_s = int(rng.integers(CFG8.ms_min, CFG8.ms_max + 1))
            realized = realized_phi_after_switch(state, m, power, m_s, CFG8)
            assert abs(cff(pddf, m_s) - realized) <= 1e-12


class TestFeasibleRegion:
    def test_paper_resolution_bounds(self):
        pddf = pddf_of([(1, 500, 4.0)], CFG1000)
        region = feasible_region(pddf)
        assert (region.ms_min, region.ms_max) == (375, 625)

    def test_uniform_active_mass(self):
        r = CFG1000.resolution
        mass1 = np.full(r + 1, 1.0 / (r + 1))
        pddf = PowerDensityPair(phi0=np.zeros(r + 1), phi1=mass1 / CFG1000.grid_step,
                                cfg=CFG1000)
        region = feasible_region(pddf)
        assert region.phi_max - region.phi_min == pytest.approx(250 / (r + 1), abs=1e-12)

    def test_bounds_bracket_every_cff(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            state, m, power = random_reports(rng, 100, CFG8)
            pddf = build_pddf_from_arrays(state, m, power, CFG8)
            region = feasible_region(pddf)
            assert region.phi_min <= region.phi_max
            for m_s in range(CFG8.ms_min, CFG8.ms_max + 1):
                assert region.phi_min <= cff(pddf, m_s) <= region.phi_max


def exhaustive_setpoint_oracle(pddf, phi_target, cfg):
    """Scan every admissible index; break deviation ties toward R/2."""
    center = cfg.resolution // 2
    best = None
    for m_s in range(cfg.ms_min, cfg.ms_max + 1):
        dev = abs(phi_target - cff(pddf, m_s))
        key = (dev, abs(m_s - center))
        if best is None or key < best[0]:
            best = (key, m_s)
    return best[1]


class TestSelectSetpoint:
    def test_target_at_center_gives_zero_offset(self):
        rng = np.random.default_rng(43)
        state, m, power = random_reports(rng, 400, CFG1000)
        pddf = build_pddf_from_arrays(state, m, power, CFG1000)
        target = cff(pddf, 500)
        decision = select_setpoint(pddf, target)
        assert decision.ms_star == 500
        assert decision.u == 0.0
        assert decision.phi_predicted == target

    def test_clamping_at_bounds(self):
        # mass in every bin so the CFF is strictly increasing at the bounds
        r = CFG1000.resolution
        state = np.tile([0, 1], r + 1)
        m = np.repeat(np.arange(r + 1), 2)
        power = np.full(2 * (r + 1), 4.0)
        pddf = build_pddf_from_arrays(state, m, power, CFG1000)
        high = select_setpoint(pddf, 2.0)
        assert high.ms_star == high.ms_max == 625
        assert high.u == CFG1000.deadband / 4
        assert high.phi_target > high.phi_max
        low = select_setpoint(pddf, -1.0)
        assert low.ms_star == low.ms_min == 375
        assert low.u == -CFG1000.deadband / 4

    def test_small_grid_worked_example(self):
        mass0 = np.array([0.1, 0.1, 0, 0, 0.2, 0, 0, 0, 0])
        mass1 = np.array([0, 0, 0.3, 0, 0, 0.3, 0, 0, 0])
        pddf = PowerDensityPair(phi0=mass0 / 0.25, phi1=mass1 / 0.25, cfg=CFG8)
        decision = select_setpoint(pddf, 0.75)
        # cff is (0.5, 0.8, 0.8) over {3, 4, 5}: tie between 4 and 5 goes to R/2
        assert decision.ms_star == exhaustive_setpoint_oracle(pddf, 0.75, CFG8) == 4

    def test_bisection_matches_exhaustive_scan(self):
        rng = np.random.default_rng(47)
        for trial in range(1000):
            cfg = CFG8 if trial % 2 == 0 else ThermostatConfig(20.0, 1.0, 64)
            n = int(rng.integers(1, 60))
            state, m, power = random_reports(rng, n, cfg)
            pddf = build_pddf_from_arrays(state, m, power, cfg)
            target = float(rng.uniform(-0.2, 1.2))
            decision = select_setpoint(pddf, target)
            assert decision.ms_star == exhaustive_setpoint_oracle(pddf, target, cfg)
            assert abs(decision.u) <= cfg.deadband / 4
            # the grid temperature theta(m*) of the chosen index is setpoint + u
            assert cfg.setpoint + cfg.deadband * (2.0 * decision.ms_star / cfg.resolution
                                                  - 1.0) == cfg.setpoint + decision.u

    def test_gaps_whose_squares_underflow(self):
        # window (0, 2e-170, 2e-170) over {3, 4, 5}: both gaps to the target
        # square to 0.0, yet index 3 is 5e-171 away and index 4 is 1.5e-170
        phi0, phi1 = np.zeros(9), np.zeros(9)
        phi0[8] = phi1[8] = 1.0
        phi1[5] = 8e-170
        pddf = PowerDensityPair(phi0=phi0, phi1=phi1, cfg=CFG8)
        assert [cff(pddf, m_s) for m_s in (3, 4, 5)] == [0.0, 2e-170, 2e-170]
        decision = select_setpoint(pddf, 5e-171)
        assert decision.ms_star == exhaustive_setpoint_oracle(pddf, 5e-171, CFG8) == 3
        assert decision.phi_predicted == 0.0

    def test_nonfinite_target_rejected(self):
        pddf = pddf_of([(1, 4, 4.0)], CFG8)
        with pytest.raises(ValueError):
            select_setpoint(pddf, float("nan"))


class TestBoundaryCondition:
    def test_random_population_residual(self):
        rng = np.random.default_rng(53)
        state, m, power = random_reports(rng, 1000, CFG1000)
        pddf_before = build_pddf_from_arrays(state, m, power, CFG1000)
        m_s = int(rng.integers(CFG1000.ms_min, CFG1000.ms_max + 1))
        n_new = hysteresis_update(state, m, m_s, CFG1000)
        pddf_after = build_pddf_from_arrays(n_new, m, power, CFG1000)
        assert abs(capacity_factor(pddf_after) - cff(pddf_before, m_s)) <= 1e-12

    def test_idempotent_zero_offset_with_frozen_temperatures(self):
        rng = np.random.default_rng(59)
        state, m, power = random_reports(rng, 300, CFG1000)
        for _ in range(3):
            pddf_before = build_pddf_from_arrays(state, m, power, CFG1000)
            state = hysteresis_update(state, m, 500, CFG1000)
            pddf_after = build_pddf_from_arrays(state, m, power, CFG1000)
            assert abs(capacity_factor(pddf_after) - cff(pddf_before, 500)) \
                <= 1e-12

    def test_interior_unit_unaffected(self):
        # strictly inside the hold band for every admissible offset
        state = np.array([1])
        m = np.array([500])
        power = np.array([4.0])
        pddf = build_pddf_from_arrays(state, m, power, CFG1000)
        for m_s in range(CFG1000.ms_min + 126, CFG1000.ms_max - 125):
            n_new = hysteresis_update(state, m, m_s, CFG1000)
            after = build_pddf_from_arrays(n_new, m, power, CFG1000)
            assert abs(capacity_factor(after) - cff(pddf, m_s)) <= 1e-12
            assert capacity_factor(after) == capacity_factor(pddf)


def test_max_cff_increment_matches_sweep():
    rng = np.random.default_rng(61)
    for _ in range(30):
        state, m, power = random_reports(rng, 200, CFG8)
        pddf = build_pddf_from_arrays(state, m, power, CFG8)
        values = [cff(pddf, s) for s in range(CFG8.ms_min, CFG8.ms_max + 1)]
        assert max_cff_increment(pddf) == pytest.approx(
            np.max(np.diff(values)), abs=1e-15)


def test_density_invariants_enforced():
    phi0 = np.full(CFG8.resolution + 1, 0.1)
    phi0[0] = -0.1
    with pytest.raises(ValueError):
        PowerDensityPair(phi0=phi0, phi1=np.zeros(CFG8.resolution + 1), cfg=CFG8)
    with pytest.raises(ValueError):
        PowerDensityPair(phi0=np.zeros(CFG8.resolution + 2),
                         phi1=np.zeros(CFG8.resolution + 1), cfg=CFG8)


# one side or both off the config's R + 1 grid points; both at R = 1000 is
# a pair measured on another thermostat grid
@pytest.mark.parametrize("sizes", [(8, 9), (9, 8), (10, 9), (9, 10), (1001, 1001)],
                         ids=["phi0-short", "phi1-short", "phi0-long", "phi1-long", "r1000"])
def test_pair_needs_r_plus_one_densities_for_its_config(sizes):
    phi0, phi1 = (np.full(size, 0.5) for size in sizes)
    with pytest.raises(ValueError, match=r"phi0 and phi1 must each have R \+ 1 = 9 entries"):
        PowerDensityPair(phi0=phi0, phi1=phi1, cfg=CFG8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_densities_rejected(bad):
    # a nan compares false against 0, so a sign check alone lets it through
    phi1 = np.full(CFG8.resolution + 1, 0.5)
    phi1[3] = bad
    with pytest.raises(ValueError, match="densities must be finite"):
        PowerDensityPair(phi0=np.zeros(CFG8.resolution + 1), phi1=phi1, cfg=CFG8)


# ---------------------------------------------------------------------------
# Properties over random grids and degenerate fleets. The oracles derive the
# admissible interval [3R/8, 5R/8] and the switch offset R/4 from R itself,
# so they also check the grid constants ThermostatConfig caches.
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def degenerate_fleets(draw):
    """A grid R in 8Z and a fleet: mixed, a single unit, all on, all off or
    all mass in one bin, with rated powers spanning twelve decades."""
    cfg = ThermostatConfig(resolution=8 * draw(st.integers(1, 128)))
    kind = draw(st.sampled_from(["mixed", "single", "all_on", "all_off", "one_bin"]))
    size = 1 if kind == "single" else draw(st.integers(1, 120))
    if kind in ("all_on", "all_off"):
        n = np.full(size, int(kind == "all_on"), dtype=np.int8)
    else:
        n = draw(hnp.arrays(np.int8, size, elements=st.integers(0, 1)))
    if kind == "one_bin":
        m = np.full(size, draw(st.integers(0, cfg.resolution)), dtype=np.int64)
    else:
        m = draw(hnp.arrays(np.int64, size, elements=st.integers(0, cfg.resolution)))
    p = draw(hnp.arrays(np.float64, size, elements=st.floats(1e-6, 1e6)))
    return cfg, n, m, p


def admissible(r):
    return range(3 * r // 8, 5 * r // 8 + 1)


def deadband_rule_phi(n, m, p, m_s, r):
    """Realized capacity factor after every unit applies the deadband rule."""
    on = (m <= m_s - r // 4) | ((m < m_s + r // 4) & (n != 0))
    return p[on].sum() / p.sum()


@PROPERTY_SETTINGS
@given(degenerate_fleets())
def test_cff_nondecreasing_and_mass_one(fleet):
    cfg, n, m, p = fleet
    pddf = build_pddf_from_arrays(n, m, p, cfg)
    assert abs(total_mass(pddf) - 1.0) <= 1e-12
    values = [cff(pddf, m_s) for m_s in admissible(cfg.resolution)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    region = feasible_region(pddf)
    assert (region.phi_min, region.phi_max) == (values[0], values[-1])


@PROPERTY_SETTINGS
@given(degenerate_fleets(), st.data())
def test_select_setpoint_is_exhaustive_argmin(fleet, data):
    cfg, n, m, p = fleet
    r = cfg.resolution
    pddf = build_pddf_from_arrays(n, m, p, cfg)
    values = [cff(pddf, m_s) for m_s in admissible(r)]
    # targets on a reachable value and midway between two put ties on both
    # sides. Midway between two adjacent distinct values is an exact tie
    # whenever both halves round alike: between the two lowest, and on either
    # side of cff(R/2), where the tie decides whether R/2 itself is chosen
    i = data.draw(st.integers(0, len(values) - 1))
    j = data.draw(st.integers(0, len(values) - 1))
    distinct = sorted(set(values))
    c = distinct.index(values[r // 2 - 3 * r // 8])
    ties = [(distinct[max(a, 0)] + distinct[min(a + 1, len(distinct) - 1)]) / 2.0
            for a in (0, c - 1, c)]
    for target in [values[i], (values[i] + values[j]) / 2.0, *ties,
                   data.draw(st.floats(-0.5, 1.5)), -1.0, 2.0]:
        decision = select_setpoint(pddf, target)
        best = min(admissible(r), key=lambda s: (abs(target - values[s - 3 * r // 8]),
                                                 abs(s - r // 2)))
        assert decision.ms_star == best
        assert decision.phi_predicted == values[best - 3 * r // 8]
        assert (decision.ms_min, decision.ms_max) == (3 * r // 8, 5 * r // 8)
        assert (decision.phi_min, decision.phi_max) == (values[0], values[-1])
        assert decision.u == cfg.deadband * (2.0 * best / r - 1.0)


@PROPERTY_SETTINGS
@given(degenerate_fleets())
def test_realized_equals_predicted_for_every_setpoint(fleet):
    cfg, n, m, p = fleet
    r = cfg.resolution
    pddf = build_pddf_from_arrays(n, m, p, cfg)
    for m_s in admissible(r):
        realized = deadband_rule_phi(n, m, p, m_s, r)
        assert abs(cff(pddf, m_s) - realized) <= 1e-12
        after = build_pddf_from_arrays(hysteresis_update(n, m, m_s, cfg), m, p, cfg)
        assert capacity_factor(after) == pytest.approx(realized, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# Bounded exhaustive check of the decision rule: every small fleet on a small grid.
# ---------------------------------------------------------------------------

def unit_kinds(kinds, r):
    """State, index and power of unit kinds numbered 0 to 4R + 3: every
    (state, index, power) in {0, 1} x [0, R] x {1, 3}."""
    return kinds // (2 * (r + 1)), kinds // 2 % (r + 1), np.where(kinds % 2, 3.0, 1.0)


@pytest.mark.parametrize("r, max_units", [(8, 3), (16, 2)])
def test_decision_rule_holds_for_every_small_fleet(r, max_units):
    # every ordered fleet of 1 to max_units units of those kinds: 47,988 at R = 8 and
    # 4,692 at R = 16. Every sum of the powers is an exact integer, so the prediction
    # must equal the realization bit for bit
    cfg = ThermostatConfig(20.0, 1.0, r)
    lo, hi, off, center = 3 * r // 8, 5 * r // 8, r // 4, r // 2
    for size in range(1, max_units + 1):
        kinds = np.indices((4 * (r + 1),) * size).reshape(size, -1).T
        n, m, p = unit_kinds(kinds, r)
        realized = np.empty((kinds.shape[0], hi - lo + 1))
        for i, m_s in enumerate(range(lo, hi + 1)):
            on = hysteresis_update(n.ravel(), m.ravel(), m_s, cfg).reshape(n.shape)
            # switch on at or below m_s - R/4, off at or above m_s + R/4, else hold
            rule = (m <= m_s - off) | ((m < m_s + off) & (n != 0))
            assert (on.astype(bool) == rule).all(), m_s
            realized[:, i] = (p * on).sum(axis=1) / p.sum(axis=1)

        # a PDDF does not depend on the order of the units: the aggregator sees one
        # fleet per multiset, and each ordered fleet is checked against its multiset's
        multisets, which = np.unique(np.sort(kinds, axis=1), axis=0, return_inverse=True)
        windows = np.empty((multisets.shape[0], hi - lo + 1))
        # targets: every CFF value, each midpoint of two adjacent values, one beyond each bound
        targets = np.empty((multisets.shape[0], 2 * (hi - lo) + 3))
        chosen = np.empty(targets.shape, dtype=int)
        for j, fleet in enumerate(multisets):
            pddf = build_pddf_from_arrays(*unit_kinds(fleet, r), cfg)
            windows[j] = [cff(pddf, m_s) for m_s in range(lo, hi + 1)]
            w = windows[j]
            targets[j] = [*w, *(w[:-1] + w[1:]) / 2.0, w[0] - 0.5, w[-1] + 0.5]
            for t, target in enumerate(targets[j]):
                decision = select_setpoint(pddf, target)
                assert decision[:4] == (lo, hi, w[0], w[-1])
                assert decision.phi_target == target
                assert decision.phi_predicted == w[decision.ms_star - lo]
                assert decision.u == cfg.deadband * (2.0 * decision.ms_star / r - 1.0)
                chosen[j, t] = decision.ms_star
        assert (windows[which] == realized).all()
        assert (np.diff(windows, axis=1) >= 0.0).all()

        # brute force: the indices of least |target - cff|, and of those the one nearest R/2
        gaps = np.abs(targets[:, :, None] - windows[:, None, :])
        least = gaps == gaps.min(axis=2, keepdims=True)
        distance = np.where(least, np.abs(np.arange(lo, hi + 1) - center), r)
        assert (np.sum(distance == distance.min(axis=2, keepdims=True), axis=2) == 1).all()
        assert (chosen == lo + distance.argmin(axis=2)).all()

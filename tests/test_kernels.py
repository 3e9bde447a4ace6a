"""Bitwise equivalence of the interval-loop kernels with their reference formulas.

Each oracle below is the straightforward form of a kernel: per-interval
constants recomputed, boolean-mask copies, nested selects, a csv.writer row
per interval. The kernels in ``src/`` must produce the same bits for every
input, so the golden bundles cannot move when a kernel is rewritten for speed.
The duty cycle is compared with its scalar closed form to a relative 1e-12,
because the oracle takes ``math.log`` where the kernel takes ``np.log``, and
with its boolean-mask form bit for bit.
"""

import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from heatfleet.aggregator import (
    ControlDecision,
    PowerDensityPair,
    build_pddf_from_arrays,
    capacity_factor,
    cff,
    max_cff_increment,
)
from heatfleet.building import duty_cycle, thermal_constants, thermal_step
from heatfleet.seriesio import (
    write_exogenous,
    write_histogram,
    write_pddf_dump,
    write_series,
)
from heatfleet.thermostat import ThermostatConfig, hysteresis_update, quantize
from dump_oracle import DensityPair, read_dump

SETTINGS = settings(max_examples=200, deadline=None)


def quantize_oracle(theta, cfg):
    x = (np.asarray(theta, dtype=float) - cfg.setpoint + cfg.deadband) / cfg.grid_step
    m = np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5))
    return np.clip(m, 0, cfg.resolution).astype(np.int64)


def hysteresis_oracle(n, m, m_s, cfg):
    lower = m_s - cfg.switch_offset
    upper = m_s + cfg.switch_offset
    return np.where(m <= lower, 1, np.where(m >= upper, 0, n)).astype(np.int8)


def pddf_oracle(n, m, p, cfg):
    bins = cfg.resolution + 1
    on = n.astype(bool)
    w1 = np.bincount(m[on], weights=p[on], minlength=bins)
    w0 = np.bincount(m[~on], weights=p[~on], minlength=bins)
    norm = float(p.sum()) * cfg.grid_step
    return w0 / norm, w1 / norm


def thermal_oracle(theta, n, capacitance, resistance, rated_power, cop,
                   outdoor, dt, noise):
    tau = capacitance * resistance
    theta_eq = outdoor + n * cop * rated_power * resistance
    return theta_eq + (theta - theta_eq) * np.exp(-dt / tau) + noise


def duty_cycle_oracle(capacitance, resistance, rated_power, cop, setpoint, deadband,
                      outdoor_temp):
    """One unit's steady duty cycle from the exact exponential trajectories."""
    lo = setpoint - deadband / 2.0
    hi = setpoint + deadband / 2.0
    eq_off = outdoor_temp
    eq_on = outdoor_temp + cop * rated_power * resistance
    if eq_off >= lo:
        return 0.0
    if eq_on <= hi:
        return 1.0
    tau = capacitance * resistance
    t_on = tau * math.log((eq_on - lo) / (eq_on - hi))
    t_off = tau * math.log((hi - eq_off) / (lo - eq_off))
    return t_on / (t_on + t_off)


def duty_cycle_masked(capacitance, resistance, rated_power, cop, cfg, outdoor_temp):
    """duty_cycle that evaluates the cycling formula only on the units that
    cycle, through boolean-mask gathers."""
    lo = cfg.setpoint - cfg.deadband / 2.0
    hi = cfg.setpoint + cfg.deadband / 2.0
    duty = np.empty(capacitance.size)
    if outdoor_temp >= lo:
        duty[:] = 0.0
        return duty
    tau = capacitance * resistance
    eq_on = outdoor_temp + cop * rated_power * resistance
    always_on = eq_on <= hi
    duty[always_on] = 1.0
    cyc = ~always_on
    t_on = tau[cyc] * np.log((eq_on[cyc] - lo) / (eq_on[cyc] - hi))
    t_off = tau[cyc] * np.log((hi - outdoor_temp) / (lo - outdoor_temp))
    duty[cyc] = t_on / (t_on + t_off)
    return duty


def max_cff_increment_oracle(pddf, cfg):
    lo, hi, off = cfg.ms_min, cfg.ms_max, cfg.switch_offset
    mass0 = pddf.phi0 * cfg.grid_step
    mass1 = pddf.phi1 * cfg.grid_step
    steps = mass0[lo + 1 - off: hi + 1 - off] + mass1[lo + off: hi + off]
    return float(steps.max())


def _fmt(x):
    return repr(float(x))


def csv_oracle(path, header, rows):
    """The csv.writer form of the series, histogram and exogenous files."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


resolutions = st.integers(1, 256).map(lambda k: 8 * k)


@st.composite
def thermostats(draw):
    resolution = draw(resolutions)
    # deadband R/2 gives grid step 1.0, so x = theta - setpoint + deadband
    # hits exact .5 ties and signed zeros without rounding
    deadband = draw(st.sampled_from([1.0, 0.5, 3.7, resolution / 2.0]))
    setpoint = draw(st.sampled_from([20.0, 0.0, -4.25]))
    return ThermostatConfig(setpoint, deadband, resolution)


@st.composite
def temperatures(draw, cfg):
    ties = st.integers(-cfg.resolution - 3, cfg.resolution + 3).map(
        lambda k: cfg.setpoint - cfg.deadband + (k + 0.5) * cfg.grid_step)
    edges = st.sampled_from([0.0, -0.0, cfg.setpoint - cfg.deadband,
                             -(cfg.setpoint - cfg.deadband), cfg.setpoint,
                             cfg.setpoint + cfg.deadband, np.inf, -np.inf, np.nan])
    near = st.floats(cfg.setpoint - 3 * cfg.deadband, cfg.setpoint + 3 * cfg.deadband)
    anything = st.floats(allow_nan=True, allow_infinity=True)
    values = draw(st.lists(st.one_of(ties, edges, near, anything), min_size=1, max_size=64))
    return np.array(values, dtype=float)


@SETTINGS
@given(st.data())
def test_quantize_matches_where_floor_ceil_oracle(data):
    cfg = data.draw(thermostats())
    theta = data.draw(temperatures(cfg))
    # huge inputs overflow to inf and NaN casts to int the same way on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        expected = quantize_oracle(theta, cfg)
        assert same_bits(quantize(theta, cfg), expected)


@SETTINGS
@given(st.data())
def test_quantize_into_buffers_matches_allocating_call(data):
    cfg = data.draw(thermostats())
    theta = data.draw(temperatures(cfg))
    out = data.draw(hnp.arrays(np.int64, theta.size))  # garbage the kernel overwrites
    work = data.draw(hnp.arrays(np.float64, theta.size))
    original = theta.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = quantize(theta, cfg)
        got = quantize(theta, cfg, out=out, work=work)
        assert got is out and same_bits(got, expected)
        assert same_bits(theta, original)
        # the arithmetic may run in the temperatures themselves
        aliased = quantize(theta, cfg, out=np.full(theta.size, -1), work=theta)
        assert same_bits(aliased, expected)


def quantize_floor_clip(theta, cfg):
    """quantize's arithmetic with a floor pass before the clip and the cast."""
    x = np.asarray(theta, dtype=float) - cfg.setpoint + cfg.deadband
    x = x / cfg.grid_step + 0.5
    return np.clip(np.floor(x), 0.0, cfg.resolution).astype(np.int64)


@SETTINGS
@given(st.data())
def test_quantize_matches_floor_clip_cast(data):
    cfg = data.draw(thermostats())
    # x + 0.5 in (-1, 0), where truncation and floor part before the clip
    below = st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True).map(
        lambda y: cfg.setpoint - cfg.deadband + (y - 0.5) * cfg.grid_step)
    # x + 0.5 an exact half-integer; temperatures() makes x one
    halves = st.integers(-cfg.resolution - 3, cfg.resolution + 3).map(
        lambda k: cfg.setpoint - cfg.deadband + k * cfg.grid_step)
    extra = data.draw(st.lists(st.one_of(below, halves), max_size=16))
    theta = np.concatenate([data.draw(temperatures(cfg)), extra, [np.inf, -np.inf, np.nan]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(quantize(theta, cfg), quantize_floor_clip(theta, cfg))


@SETTINGS
@given(st.data())
def test_hysteresis_vector_matches_scalar_and_oracle(data):
    cfg = ThermostatConfig(resolution=data.draw(resolutions))
    size = data.draw(st.integers(1, 64))
    m = np.array(data.draw(st.lists(st.integers(0, cfg.resolution),
                                    min_size=size, max_size=size)), dtype=np.int64)
    n = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)),
                 dtype=np.int8)
    m_s = data.draw(st.integers(cfg.ms_min, cfg.ms_max))
    out = hysteresis_update(n, m, m_s, cfg)
    assert same_bits(out, hysteresis_oracle(n, m, m_s, cfg))
    # each unit switched alone, as a one-unit fleet, gives its entry of the fleet's call
    assert [int(hysteresis_update(n[i:i + 1], m[i:i + 1], m_s, cfg)[0])
            for i in range(size)] == out.tolist()


@st.composite
def fleets(draw):
    cfg = ThermostatConfig(resolution=draw(resolutions))
    size = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["mixed", "all_on", "all_off"]))
    if kind == "mixed":
        n = draw(hnp.arrays(np.int8, size, elements=st.integers(0, 1)))
    else:
        n = np.full(size, int(kind == "all_on"), dtype=np.int8)
    if draw(st.booleans()):
        m = np.full(size, draw(st.integers(0, cfg.resolution)), dtype=np.int64)
    else:
        m = draw(hnp.arrays(np.int64, size, elements=st.integers(0, cfg.resolution)))
    powers = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    p = draw(hnp.arrays(np.float64, size, elements=powers))
    return cfg, n, m, p


@SETTINGS
@given(fleets())
def test_single_bincount_pddf_matches_masked_oracle(fleet):
    cfg, n, m, p = fleet
    pddf = build_pddf_from_arrays(n, m, p, cfg)
    phi0, phi1 = pddf_oracle(n, m, p, cfg)
    assert same_bits(pddf.phi0, phi0)
    assert same_bits(pddf.phi1, phi1)
    assert same_bits(max_cff_increment(pddf), max_cff_increment_oracle(pddf, cfg))
    # the cumulative sums are only pinned through what reads them
    cum0, cum1 = np.cumsum(phi0 * cfg.grid_step), np.cumsum(phi1 * cfg.grid_step)
    lo, hi, off = cfg.ms_min, cfg.ms_max, cfg.switch_offset
    window = [cff(pddf, m_s) for m_s in range(lo, hi + 1)]
    assert same_bits(window, cum0[lo - off: hi - off + 1] + cum1[lo + off - 1: hi + off])
    assert same_bits(capacity_factor(pddf), cum1[-1])


def test_single_unit_pddf_matches_oracle():
    cfg = ThermostatConfig(resolution=8)
    for state in (0, 1):
        for index in (0, 3, cfg.resolution):  # both grid ends are valid reports
            n = np.array([state], dtype=np.int8)
            m, p = np.array([index]), np.array([4.2])
            pddf = build_pddf_from_arrays(n, m, p, cfg)
            phi0, phi1 = pddf_oracle(n, m, p, cfg)
            assert same_bits(pddf.phi0, phi0) and same_bits(pddf.phi1, phi1)


@SETTINGS
@given(st.data())
def test_validated_pair_cums_match_full_cumsum_oracle(data):
    # the off-half sums stop at 3R/8; the smallest grids put that index next
    # to the cut. The deadband sets the grid step 2 deadband / R
    r = data.draw(st.sampled_from([8, 16]))
    step = data.draw(st.sampled_from([2.0 / r, 0.1, 1.0, 3.0]))
    cfg = ThermostatConfig(deadband=step * r / 2.0, resolution=r)
    densities = hnp.arrays(np.float64, cfg.resolution + 1,
                           elements=st.floats(0.0, 1e6, allow_subnormal=False))
    phi0, phi1 = data.draw(densities), data.draw(densities)
    pddf = PowerDensityPair(phi0, phi1, cfg)
    cum0, cum1 = np.cumsum(phi0 * cfg.grid_step), np.cumsum(phi1 * cfg.grid_step)
    lo, hi, off = cfg.ms_min, cfg.ms_max, cfg.switch_offset
    window = [cff(pddf, m_s) for m_s in range(lo, hi + 1)]
    assert same_bits(window, cum0[lo - off: hi - off + 1] + cum1[lo + off - 1: hi + off])
    assert same_bits(capacity_factor(pddf), cum1[-1])


@pytest.mark.parametrize("multiple", range(1, 17))
def test_validated_pair_builds_on_every_small_grid(multiple):
    # a pair lives on a thermostat grid, so R = 8 * multiple, up to 128; the
    # deadband keeps the grid step near 0.1
    resolution = 8 * multiple
    cfg = ThermostatConfig(deadband=0.05 * resolution, resolution=resolution)
    phi0 = np.arange(1.0, resolution + 2)
    phi1 = np.arange(resolution + 1.0, 0.0, -1.0)
    pddf = PowerDensityPair(phi0, phi1, cfg)
    cum0, cum1 = np.cumsum(phi0 * cfg.grid_step), np.cumsum(phi1 * cfg.grid_step)
    assert same_bits(capacity_factor(pddf), cum1[-1])
    lo, hi, off = cfg.ms_min, cfg.ms_max, cfg.switch_offset
    window = [cff(pddf, m_s) for m_s in range(lo, hi + 1)]
    assert same_bits(window, cum0[lo - off: hi - off + 1] + cum1[lo + off - 1: hi + off])


@SETTINGS
@given(st.data())
def test_thermal_step_with_run_constants_matches_formula(data):
    size = data.draw(st.integers(1, 64))

    def positive(lo, hi):
        return data.draw(hnp.arrays(np.float64, size, elements=st.floats(lo, hi)))

    capacitance, resistance = positive(0.05, 50.0), positive(0.05, 50.0)
    rated_power, cop = positive(0.1, 20.0), positive(1.0, 6.0)
    theta = data.draw(hnp.arrays(np.float64, size, elements=st.floats(-60.0, 60.0)))
    n = data.draw(hnp.arrays(np.int8, size, elements=st.integers(0, 1)))
    outdoor = data.draw(st.floats(-40.0, 40.0))
    dt = data.draw(st.floats(1e-9, 24.0))
    noise = data.draw(st.one_of(
        st.just(0.0),
        hnp.arrays(np.float64, size, elements=st.floats(-1.0, 1.0))))
    decay, lift = thermal_constants(capacitance, resistance, rated_power, cop, dt)
    got = thermal_step(theta, n, decay, lift, outdoor, noise)
    expected = thermal_oracle(theta, n, capacitance, resistance, rated_power, cop,
                              outdoor, dt, noise)
    assert same_bits(got, expected)
    i = data.draw(st.integers(0, size - 1))
    unit_noise = noise if np.ndim(noise) == 0 else float(noise[i])
    scalar = thermal_step(float(theta[i]), int(n[i]), *thermal_constants(
        float(capacitance[i]), float(resistance[i]), float(rated_power[i]),
        float(cop[i]), dt), outdoor, unit_noise)
    assert scalar == got[i]


@SETTINGS
@given(st.data())
def test_thermal_step_into_out_matches_allocating_call(data):
    size = data.draw(st.integers(1, 64))

    def floats(lo, hi):
        return data.draw(hnp.arrays(np.float64, size, elements=st.floats(lo, hi)))

    theta, decay, lift = floats(-60.0, 60.0), floats(0.0, 1.0), floats(0.0, 100.0)
    n = data.draw(hnp.arrays(np.int8, size, elements=st.integers(0, 1)))
    outdoor = data.draw(st.floats(-40.0, 40.0))
    noise = data.draw(st.one_of(st.just(0.0), st.just(-0.0), hnp.arrays(
        np.float64, size, elements=st.floats(-1.0, 1.0))))
    expected = thermal_step(theta, n, decay, lift, outdoor, noise)
    # garbage the kernel overwrites
    out, work = (data.draw(hnp.arrays(np.float64, size)) for _ in range(2))
    original = theta.copy()
    assert thermal_step(theta, n, decay, lift, outdoor, noise, out=out, work=work) is out
    assert same_bits(out, expected) and same_bits(theta, original)
    # the engine's form: the temperatures updated in place
    got = thermal_step(theta, n, decay, lift, outdoor, noise, out=theta, work=work)
    assert got is theta and same_bits(theta, expected)


def thermal_step_mixed(theta, n, decay, lift, outdoor, noise):
    """thermal_step's arithmetic with n times lift in one mixed-dtype multiply."""
    theta_eq = np.multiply(n, lift)
    theta_eq += outdoor
    t = np.subtract(theta, theta_eq)
    t *= decay
    t += theta_eq
    t += noise
    return t


@SETTINGS
@given(st.data())
def test_thermal_step_cast_matches_mixed_multiply(data):
    shape = data.draw(st.sampled_from([(), (1,), (7,), (64,)]))  # (): numpy scalars

    def floats(lo, hi):
        return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))[()]

    theta, decay, lift = floats(-60.0, 60.0), floats(0.0, 1.0), floats(0.0, 100.0)
    dtype = data.draw(st.sampled_from([np.int8, np.bool_, np.float64]))
    n = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1))).astype(dtype)[()]
    outdoor = data.draw(st.floats(-40.0, 40.0))
    noise = data.draw(st.sampled_from([0.0, -0.0]) | hnp.arrays(
        np.float64, shape, elements=st.floats(-1.0, 1.0)))
    expected = thermal_step_mixed(theta, n, decay, lift, outdoor, noise)
    # garbage the kernel overwrites, or None for a new array
    out, work = (data.draw(st.none() | hnp.arrays(np.float64, shape)) for _ in range(2))
    assert same_bits(thermal_step(theta, n, decay, lift, outdoor, noise, out=out, work=work),
                     expected)


# +0.0 dominates real densities; the sampled values are the edge cases of float64
# (signed zero, nan, infinities, subnormals) and of repr()
densities = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 1e16, 1e-5, 1e-4, 0.1, 1.0]),
    st.floats(allow_subnormal=True, allow_nan=True, allow_infinity=True),
    st.floats(0.0, 10.0),
)
reals = st.floats(allow_nan=True, allow_infinity=True)


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("dumps")


# the dump record's scalar fields, k and the ControlDecision's, with their dtypes
DUMP_FIELDS = {"k": np.int64, "ms_min": np.int64, "ms_max": np.int64,
               "phi_min": np.float64, "phi_max": np.float64, "ms_star": np.int64,
               "u": np.float64, "phi_target": np.float64, "phi_predicted": np.float64}


@SETTINGS
@given(data=st.data())
def test_pddf_dump_round_trips_every_bit(dump_dir, data):
    size = data.draw(resolutions) + 1
    phi0, phi1 = (data.draw(hnp.arrays(np.float64, size, elements=densities,
                                       fill=st.just(0.0))) for _ in range(2))
    decision = ControlDecision(
        ms_min=data.draw(st.integers(0, 10**6)), ms_max=data.draw(st.integers(0, 10**6)),
        phi_min=data.draw(reals), phi_max=data.draw(reals),
        ms_star=data.draw(st.integers(0, 10**6)), u=data.draw(reals),
        phi_target=data.draw(reals), phi_predicted=data.draw(reals))
    k = data.draw(st.integers(0, 10**7))
    write_pddf_dump(dump_dir, k, DensityPair(phi0, phi1), decision)
    record = np.load(dump_dir / f"pddf_k{k:06d}.npy")
    assert record.shape == ()
    assert record.dtype.names == ("k", *ControlDecision._fields, "phi0", "phi1")
    for (name, dtype), value in zip(DUMP_FIELDS.items(), (k, *decision)):
        assert same_bits(record[name], np.asarray(value, dtype)), name
    assert same_bits(record["phi0"], phi0) and same_bits(record["phi1"], phi1)


def test_pddf_dump_creates_its_directory(tmp_path):
    pair = DensityPair(np.array([0.0, -0.0, 4.0]), np.array([np.nan, 0.0, 1e-310]))
    decision = ControlDecision(1, 2, 0.25, 0.75, 1, -0.0, 0.5, 0.5)
    write_pddf_dump(tmp_path / "a" / "b", 3, pair, decision)
    k, got, densities = read_dump(tmp_path / "a" / "b" / "pddf_k000003.npy")
    assert (k, got) == (3, decision) and math.copysign(1.0, got.u) == -1.0
    assert same_bits(densities.phi0, pair.phi0) and same_bits(densities.phi1, pair.phi1)


def npy_oracle(k, decision, phi0, phi1):
    """The bytes np.save writes for the dump record built field by field, the
    writer's former construction. The dtype is spelled out here from DUMP_FIELDS,
    not taken from the writer, so a wrong field type cannot agree with itself."""
    dtype = np.dtype([*DUMP_FIELDS.items(),
                      ("phi0", np.float64, (phi0.size,)), ("phi1", np.float64, (phi0.size,))])
    buffer = io.BytesIO()
    np.save(buffer, np.array((k, *decision, phi0, phi1), dtype))
    return buffer.getvalue()


# each ControlDecision field as a Python number or as the numpy scalar the engine may hold
indices = st.integers(0, 10**6).flatmap(lambda i: st.sampled_from([i, np.int64(i)]))
numpy_or_python_reals = reals.flatmap(lambda x: st.sampled_from([x, np.float64(x)]))


@SETTINGS
@given(data=st.data())
def test_pddf_dump_bytes_match_np_save_oracle(dump_dir, data):
    size = data.draw(st.one_of(st.integers(1, 8).map(lambda k: 8 * k), st.just(1000))) + 1
    phi0, phi1 = (data.draw(hnp.arrays(np.float64, size, elements=densities,
                                       fill=st.just(0.0))) for _ in range(2))
    decision = ControlDecision(
        ms_min=data.draw(indices), ms_max=data.draw(indices),
        phi_min=data.draw(numpy_or_python_reals), phi_max=data.draw(numpy_or_python_reals),
        ms_star=data.draw(indices), u=data.draw(numpy_or_python_reals),
        phi_target=data.draw(numpy_or_python_reals),
        phi_predicted=data.draw(numpy_or_python_reals))
    k = data.draw(indices)
    write_pddf_dump(dump_dir, k, DensityPair(phi0, phi1), decision)
    assert (dump_dir / f"pddf_k{k:06d}.npy").read_bytes() == npy_oracle(k, decision, phi0, phi1)


def test_pddf_dump_with_mismatched_halves_raises_before_writing(tmp_path):
    pair = DensityPair(np.zeros(9), np.zeros(17))
    with pytest.raises(ValueError, match="differ in size: 9 and 17"):
        write_pddf_dump(tmp_path / "a", 0, pair,
                        ControlDecision(1, 2, 0.25, 0.75, 1, 0.0, 0.5, 0.5))
    assert not (tmp_path / "a").exists()


# the series file's header and attributes after k, spelled out here, not taken from the
# writer's table, so that a wrong table cannot agree with itself
SERIES_HEADER = ["k", "P_N_kw", "P_W_kw", "P_H_kw", "P_L_kw", "phi", "phi_target",
                 "u_degC", "phi_min", "phi_max", "mean_theta_degC"]
SERIES_COLUMNS = ("nominal_kw", "wind_kw", "heatpump_kw", "total_kw", "phi", "phi_target",
                  "u", "phi_min", "phi_max", "mean_theta")


class SeriesColumns:
    """Only what write_series reads of a ScenarioSeries."""

    def __init__(self, columns):
        self.k = np.arange(columns.shape[1])
        for name, column in zip(SERIES_COLUMNS, columns):
            setattr(self, name, column)

    def __len__(self):
        return self.k.size


@SETTINGS
@given(data=st.data())
def test_csv_writers_match_csv_writer_oracle(dump_dir, data):
    rows = data.draw(st.integers(0, 40))
    columns = data.draw(hnp.arrays(np.float64, (len(SERIES_COLUMNS), rows), elements=densities))
    a, b, c = columns[:3]

    write_exogenous(dump_dir / "got.csv", a, b, c)
    csv_oracle(dump_dir / "expected.csv", ["timestamp", "wind_speed_mps", "outdoor_temp_c"],
               ([_fmt(x), _fmt(y), _fmt(z)] for x, y, z in zip(a, b, c)))
    assert (dump_dir / "got.csv").read_bytes() == (dump_dir / "expected.csv").read_bytes()

    write_histogram(dump_dir / "got.csv", a, b)
    csv_oracle(dump_dir / "expected.csv", ["bin_center_kw_per_interval", "density"],
               ([_fmt(x), _fmt(y)] for x, y in zip(a, b)))
    assert (dump_dir / "got.csv").read_bytes() == (dump_dir / "expected.csv").read_bytes()

    series = SeriesColumns(columns)
    write_series(dump_dir / "got.csv", series)
    csv_oracle(dump_dir / "expected.csv", SERIES_HEADER,
               ([int(series.k[i])] + [_fmt(getattr(series, name)[i]) for name in SERIES_COLUMNS]
                for i in range(len(series))))
    assert (dump_dir / "got.csv").read_bytes() == (dump_dir / "expected.csv").read_bytes()


def test_csv_writers_take_integer_inputs(tmp_path):
    write_exogenous(tmp_path / "got.csv", [0, 1], np.array([3, 4]), [-0.0, 5])
    assert (tmp_path / "got.csv").read_bytes() == (
        b"timestamp,wind_speed_mps,outdoor_temp_c\r\n0.0,3.0,-0.0\r\n1.0,4.0,5.0\r\n")


@st.composite
def duty_fleets(draw):
    """A fleet and an outdoor temperature that put the units on one duty-cycle
    branch (off, always on, cycling) or spread them over the last two."""
    cfg = draw(thermostats())
    lo = cfg.setpoint - cfg.deadband / 2.0
    hi = cfg.setpoint + cfg.deadband / 2.0
    branch = draw(st.sampled_from(["off", "always_on", "cycling", "mixed"]))
    size = draw(st.integers(1, 32))

    def positive(low, high):
        return draw(hnp.arrays(np.float64, size, elements=st.floats(low, high)))

    capacitance, rated_power, cop = positive(0.05, 50.0), positive(0.1, 20.0), positive(1.0, 6.0)
    if branch == "off":
        # at or above the switch-on boundary, the boundary itself included
        outdoor = lo + draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
        resistance = positive(0.05, 50.0)
    else:
        outdoor = lo - draw(st.floats(1e-3, 40.0))
        # the heating gain as a multiple of the lift to the switch-off boundary
        ratio = {"always_on": (1e-3, 0.999), "cycling": (1.001, 1e3), "mixed": (1e-3, 1e3)}
        resistance = positive(*ratio[branch]) * (hi - outdoor) / (cop * rated_power)
    return branch, cfg, capacitance, resistance, rated_power, cop, outdoor


@SETTINGS
@given(duty_fleets())
def test_duty_cycle_matches_scalar_closed_form(fleet):
    branch, cfg, capacitance, resistance, rated_power, cop, outdoor = fleet
    duty = duty_cycle(capacitance, resistance, rated_power, cop, cfg, outdoor)
    assert duty.dtype == np.float64 and duty.shape == capacitance.shape
    expected = [duty_cycle_oracle(*unit, cfg.setpoint, cfg.deadband, outdoor)
                for unit in zip(capacitance, resistance, rated_power, cop)]
    for got, want in zip(duty, expected):
        if want in (0.0, 1.0):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    if branch == "off":
        assert (duty == 0.0).all()
    elif branch == "always_on":
        assert (duty == 1.0).all()
    elif branch == "cycling":
        assert ((duty > 0.0) & (duty < 1.0)).all()


# each unit's branch: cycling, on-state equilibrium exactly at hi, exactly at
# lo, or strictly between the outdoor temperature and hi
CYCLING, AT_HI, AT_LO, BELOW_HI = range(4)


@st.composite
def mixed_duty_fleets(draw):
    """1 to 300 units on every duty-cycle branch at once, or all off. The
    thermostat and outdoor temperature are short dyadic fractions, so the
    lifts hi - outdoor and lo - outdoor are exact and a unit of unit cop and
    rated power with that resistance has its on-state equilibrium exactly at
    hi or lo."""
    resolution = draw(resolutions)
    setpoint = draw(st.sampled_from([20.0, 0.0, -4.25]))
    deadband = draw(st.sampled_from([1.0, 0.5, resolution / 2.0]))
    cfg = ThermostatConfig(setpoint, deadband, resolution)
    lo = setpoint - deadband / 2.0
    hi = setpoint + deadband / 2.0
    outdoor = lo + draw(st.integers(-320, 8)) / 8.0  # from lo on, no unit heats
    size = draw(st.integers(1, 300))

    def floats(low, high):
        return draw(hnp.arrays(np.float64, size, elements=st.floats(low, high)))

    kinds = draw(hnp.arrays(np.int8, size, elements=st.integers(CYCLING, BELOW_HI)))
    capacitance = floats(0.05, 50.0)
    exact = (kinds == AT_HI) | (kinds == AT_LO)
    rated_power = np.where(exact, 1.0, floats(0.1, 20.0))
    cop = np.where(exact, 1.0, floats(1.0, 6.0))
    ratio = np.where(kinds == CYCLING, floats(1.001, 1e3), floats(1e-3, 0.999))
    resistance = np.select([kinds == AT_HI, kinds == AT_LO], [hi - outdoor, lo - outdoor],
                           ratio * (hi - outdoor) / (cop * rated_power))
    return cfg, outdoor, kinds, capacitance, resistance, rated_power, cop


@SETTINGS
@given(mixed_duty_fleets())
def test_duty_cycle_matches_masked_form_bit_for_bit(fleet):
    # the kernel runs the cycling formula on every unit and overwrites the
    # always-on ones; their inf and nan may raise no floating-point warning
    cfg, outdoor, kinds, *params = fleet
    lo = cfg.setpoint - cfg.deadband / 2.0
    hi = cfg.setpoint + cfg.deadband / 2.0
    if outdoor < lo:  # the exact branches really sit on the boundaries
        eq_on = outdoor + params[3] * params[2] * params[1]
        assert (eq_on[kinds == AT_HI] == hi).all() and (eq_on[kinds == AT_LO] == lo).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = duty_cycle(*params, cfg, outdoor)
        want = duty_cycle_masked(*params, cfg, outdoor)
    assert same_bits(got, want)

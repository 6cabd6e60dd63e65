import copy
import itertools
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molstore import poresim, traceio
from molstore.calibration import (
    THREE_PRIME,
    CalibrationTable,
    ChannelConfig,
    LevelStats,
    RangeError,
)
from molstore.codec import Nucleotide
from molstore.poresim import (
    MAX_MOLECULE_BASES,
    ORIENTATIONS,
    EventTable,
    MoleculeSpec,
    Orientation,
    SimulationError,
    capture_rate,
    complete_fraction,
    gating_active,
    mean_duration,
    monolevel_blockage,
    open_current,
    pore_events,
    sample_event,
    simulate,
    _truncated_normal,
)

CALIB = CalibrationTable()


# --- calibrated lookups ----------------------------------------------------


@pytest.mark.parametrize(
    "voltage,expected",
    [(210.0, 250.0), (0.0, 0.0), (-210.0, -200.0), (150.0, 160.0), (120.0, 130.0), (90.0, 90.0)],
)
def test_open_current_knots(voltage, expected):
    assert open_current(voltage, 1.0, CALIB) == pytest.approx(expected)


def test_open_current_interpolates():
    assert open_current(-105.0, 1.0, CALIB) == pytest.approx(-100.0)
    assert open_current(135.0, 1.0, CALIB) == pytest.approx(145.0)


def test_open_current_scales_with_salt():
    # 2 M at 120 mV lands near the 1 M current at 210 mV
    assert open_current(120.0, 2.0, CALIB) == pytest.approx(260.0)


def test_open_current_range_error():
    with pytest.raises(RangeError):
        open_current(300.0, 1.0, CALIB)
    with pytest.raises(RangeError):
        open_current(-300.0, 1.0, CALIB)


def test_gating_boundary():
    assert not gating_active(1.0, CALIB)
    assert gating_active(1.5, CALIB)  # threshold inclusive
    assert gating_active(2.0, CALIB)


def test_capture_rate_knots_and_monotonicity():
    assert capture_rate(150.0, CALIB) == pytest.approx(10.6)
    assert capture_rate(120.0, CALIB) == pytest.approx(3.5)
    assert capture_rate(90.0, CALIB) < capture_rate(120.0, CALIB) < capture_rate(150.0, CALIB)
    # near three-fold increase from 120 mV to 150 mV
    assert capture_rate(150.0, CALIB) / capture_rate(120.0, CALIB) == pytest.approx(3.0, rel=0.05)


def test_capture_rate_range_error():
    with pytest.raises(RangeError):
        capture_rate(50.0, CALIB)


def test_mean_duration_law():
    assert mean_duration(210.0, 150, CALIB) == pytest.approx(150.0)
    assert mean_duration(105.0, 150, CALIB) == pytest.approx(300.0)
    assert mean_duration(210.0, 120, CALIB) == pytest.approx(120.0)
    with pytest.raises(SimulationError):
        mean_duration(0.0, 150, CALIB)


def test_monolevel_blockage_clamps_and_decreases():
    assert monolevel_blockage(90.0, CALIB) == pytest.approx(0.85)
    assert monolevel_blockage(60.0, CALIB) == pytest.approx(0.85)  # clamped
    values = [monolevel_blockage(v, CALIB) for v in (90.0, 120.0, 150.0, 210.0)]
    assert all(b > a for a, b in zip(values[1:], values))


# --- molecule specs --------------------------------------------------------


def test_molecule_from_string():
    mol = MoleculeSpec.from_string("A50C100")
    assert mol.segments == (("A", 50), ("C", 100))
    assert mol.total_bases == 150


def test_molecule_repeat_group():
    mol = MoleculeSpec.from_string("(AC)60")
    assert mol.total_bases == 120
    assert len(mol.segments) == 120


def test_molecule_merges_adjacent_same_base():
    assert MoleculeSpec.from_string("A2A3").segments == (("A", 5),)


def test_molecule_bad_spec():
    with pytest.raises(SimulationError):
        MoleculeSpec.from_string("A5X3")
    with pytest.raises(SimulationError):
        MoleculeSpec.from_string("")


@pytest.mark.parametrize("spec", ["A0C100", "A50C0", "(AC)0A5", "A00C5"])
def test_molecule_refuses_zero_count(spec):
    # Dropping the segment would read another molecule than the one typed.
    with pytest.raises(SimulationError, match="count 0"):
        MoleculeSpec.from_string(spec)


def test_molecule_refuses_more_bases_than_the_limit():
    assert MoleculeSpec.from_string(f"A{MAX_MOLECULE_BASES}").total_bases == MAX_MOLECULE_BASES
    for spec in (f"A{MAX_MOLECULE_BASES}C1", f"(AC){MAX_MOLECULE_BASES // 2}G1"):
        with pytest.raises(SimulationError, match=f"more than {MAX_MOLECULE_BASES} bases"):
            MoleculeSpec.from_string(spec)


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda: gating_active(0.0, CALIB), SimulationError, "kcl_molar must be > 0"),
        (lambda: MoleculeSpec(()), SimulationError, "molecule needs at least one segment"),
        (lambda: MoleculeSpec(((Nucleotide.A, 0),)), SimulationError,
         "segment A has non-positive count 0"),
        (lambda: MoleculeSpec(((Nucleotide.A, 1), (Nucleotide.A, 2))), SimulationError,
         "adjacent segments must have distinct bases"),
        (lambda: Orientation.UNKNOWN.entry_end, ValueError,
         "unknown orientation has no entry end"),
    ],
    ids=["no-salt", "no-segment", "zero-count", "equal-neighbours", "unknown-entry-end"],
)
def test_refusal_names_its_cause(refused, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        refused()


@st.composite
def _molecules(draw):
    bases = [b for b, _ in itertools.groupby(
        draw(st.lists(st.sampled_from(list(Nucleotide)), min_size=1, max_size=8))
    )]
    counts = draw(st.lists(st.integers(1, 200), min_size=len(bases), max_size=len(bases)))
    return MoleculeSpec(tuple(zip(bases, counts)))


@given(_molecules())
def test_molecule_string_round_trip(molecule):
    assert MoleculeSpec.from_string(str(molecule)) == molecule


# --- event sampling --------------------------------------------------------

MOLECULE = MoleculeSpec.from_string("A50C100")


def _draw(n, voltage, seed=7):
    """``n`` events drawn one by one by sample_event, as one table."""
    config = ChannelConfig(voltage_mv=voltage)
    rng = np.random.default_rng(seed)
    return EventTable.concatenate([sample_event(MOLECULE, config, CALIB, rng) for _ in range(n)])


def test_orientation_prints_its_value_and_a_trace_its_duration():
    assert str(Orientation.THREE_PRIME_FIRST) == "3prime_first"
    result = simulate(MOLECULE, ChannelConfig(voltage_mv=210.0), 0.25, CALIB, seed=1)
    assert result.trace.duration_s == 0.25


def test_no_bilevel_events_without_both_levels_of_each_segment():
    """A two-segment molecule translocates in two levels only if the
    table holds each base's level for both entry ends."""
    levels = {key: stats for key, stats in CALIB.level_stats.items() if key != ("C", "5prime")}
    config = ChannelConfig(voltage_mv=210.0)
    full = simulate(MOLECULE, config, 3.0, CALIB, seed=2).events
    partial = simulate(MOLECULE, config, 3.0, CALIB.replace(level_stats=levels), seed=2).events
    assert (_substates(full) == 2).any()
    assert len(partial) > 0 and not (_substates(partial) == 2).any()


def _substates(events):
    """Each event's substate count."""
    return np.diff(events.offsets)


def _level(events, k):
    """Each event's k-th substate level (0 first)."""
    return events.levels[events.offsets[:-1] + k]


_THREE, _FIVE = (ORIENTATIONS.index(o) for o in (Orientation.THREE_PRIME_FIRST,
                                                   Orientation.FIVE_PRIME_FIRST))


def test_sample_event_deterministic():
    config = ChannelConfig(voltage_mv=210.0)
    a = sample_event(MOLECULE, config, CALIB, np.random.default_rng(5), t_start_s=2.5)
    b = sample_event(MOLECULE, config, CALIB, np.random.default_rng(5), t_start_s=2.5)
    assert len(a) == 1 and a.pore.tolist() == [0] and a.t_start_s.tolist() == [2.5]
    _assert_same_table(a, b)


def test_sample_event_requires_positive_voltage():
    with pytest.raises(SimulationError):
        sample_event(MOLECULE, ChannelConfig(voltage_mv=-210.0), CALIB, np.random.default_rng(0))


def test_bilevel_fraction_among_all_events():
    events = _draw(10_000, 210.0)
    frac = np.count_nonzero(_substates(events) == 2) / len(events)
    assert frac == pytest.approx(0.29, abs=0.02)


def test_no_bilevel_below_threshold_voltage():
    for voltage in (120.0, 150.0, 180.0):
        events = _draw(3000, voltage)
        assert (_substates(events) == 1).all()


def test_incomplete_events_single_shallow_substate():
    events = _draw(2000, 210.0)
    events = events.take(~events.complete)
    assert len(events)
    assert (_substates(events) == 1).all()
    assert (CALIB.incomplete_level_low <= events.levels).all()
    assert (events.levels <= CALIB.incomplete_level_high).all()
    assert (events.durations_us >= CALIB.incomplete_min_duration_us).all()


def test_complete_duration_mean():
    events = _draw(10_000, 210.0)
    mean = np.mean(events.duration_us[events.complete])
    assert mean == pytest.approx(150.0, rel=0.10)


def test_bilevel_orientation_and_levels():
    events = _draw(10_000, 210.0)
    events = events.take(_substates(events) == 2)
    three = events.take(events.orientation == _THREE)
    assert len(three) / len(events) == pytest.approx(0.75, abs=0.03)
    assert np.mean(_level(three, 0)) == pytest.approx(0.37, abs=0.02)
    assert np.mean(_level(three, 1)) == pytest.approx(0.17, abs=0.02)
    five = events.take(events.orientation == _FIVE)
    assert np.mean(_level(five, 0)) == pytest.approx(0.12, abs=0.02)
    assert np.mean(_level(five, 1)) == pytest.approx(0.20, abs=0.02)


def test_level_spread_matches_calibration():
    events = _draw(10_000, 210.0)
    three_first = _level(events.take((_substates(events) == 2) & (events.orientation == _THREE)), 0)
    assert np.std(three_first) == pytest.approx(0.09, rel=0.25)


def test_monolevel_complete_tracks_blockage_table():
    for voltage, blockage in ((90.0, 0.85), (120.0, 0.80), (150.0, 0.75)):
        events = _draw(3000, voltage)
        mean_level = np.mean(_level(events, 0)[events.complete])
        assert mean_level == pytest.approx(1.0 - blockage, abs=0.01)


# --- trace synthesis -------------------------------------------------------


def test_trace_length_law():
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=1_000_000)
    trace = simulate(MOLECULE, config, 0.001, CALIB, seed=3).trace
    assert len(trace) == 1000


def test_trace_deterministic():
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000)
    a = simulate(MOLECULE, config, 2.0, CALIB, seed=17).trace
    b = simulate(MOLECULE, config, 2.0, CALIB, seed=17).trace
    assert np.array_equal(a.samples, b.samples)
    c = simulate(MOLECULE, config, 2.0, CALIB, seed=18).trace
    assert not np.array_equal(a.samples, c.samples)


def test_zero_voltage_trace_has_zero_mean():
    config = ChannelConfig(voltage_mv=0.0, sample_rate_hz=100_000, noise_sigma_pa=5.0)
    trace = simulate(MOLECULE, config, 2.0, CALIB, seed=1).trace
    assert np.mean(trace.samples) == pytest.approx(0.0, abs=0.1)


def test_multi_pore_open_current_additivity():
    for pores in (1, 2, 3):
        config = ChannelConfig(
            voltage_mv=210.0, sample_rate_hz=50_000, noise_sigma_pa=0.0, n_pores=pores
        )
        trace = simulate(MOLECULE, config, 2.0, CALIB, seed=23).trace
        assert np.mean(trace.samples) == pytest.approx(250.0 * pores, rel=0.005)


def test_multi_pore_event_rate_additivity():
    # expected events ~= 3 pores x 21/s x 160 s ~ 10^4; within 5%
    config = ChannelConfig(voltage_mv=210.0, n_pores=3)
    total = 0
    for pore in range(3):
        total += len(pore_events(MOLECULE, config, CALIB, seed=31, pore=pore, duration_s=160.0))
    expected = 3 * capture_rate(210.0, CALIB) * 160.0
    assert total == pytest.approx(expected, rel=0.05)


_TABLE_FIELDS = (
    "pore", "t_start_s", "complete", "orientation", "offsets", "levels", "durations_us"
)


def _rows(table):
    """Each event of ``table`` as (pore, t_start_s, complete, orientation,
    levels, durations_us)."""
    bounds = table.offsets.tolist()
    levels, durations = table.levels.tolist(), table.durations_us.tolist()
    return [
        (pore, t, complete, code, levels[a:b], durations[a:b])
        for pore, t, complete, code, a, b in zip(
            table.pore.tolist(), table.t_start_s.tolist(), table.complete.tolist(),
            table.orientation.tolist(), bounds, bounds[1:],
        )
    ]


def _assert_same_table(got, want):
    for name in _TABLE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def test_pore_streams_independent_of_evaluation_order():
    config = ChannelConfig(voltage_mv=210.0, n_pores=3, sample_rate_hz=100_000)
    result = simulate(MOLECULE, config, 2.0, CALIB, seed=9)
    by_pore = {p: result.events.take(result.events.pore == p) for p in range(3)}
    for pore in (2, 0, 1):  # shuffled evaluation order
        alone = pore_events(MOLECULE, config, CALIB, seed=9, pore=pore, duration_s=2.0)
        _assert_same_table(alone, by_pore[pore])


@st.composite
def _clog_schedules(draw, n_pores, duration_s):
    """Disjoint clog intervals per pore, some reaching past the trace."""
    clogs = {}
    for pore in draw(st.sets(st.integers(0, n_pores - 1))):
        ends = sorted(draw(st.sets(st.floats(-0.1, duration_s + 0.1), max_size=6)))
        clogs[pore] = list(zip(ends[0::2], ends[1::2]))
    return clogs


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_pores=st.integers(1, 4),
    voltage=st.sampled_from([120.0, 150.0, 210.0]),
    duration_s=st.sampled_from([0.05, 0.2, 0.5]),
    data=st.data(),
)
def test_each_pores_events_are_its_own(seed, n_pores, voltage, duration_s, data):
    """The events simulate gives pore p are pore_events of p alone, with
    p's normalized clogs, whatever the other pores draw."""
    clogs = data.draw(_clog_schedules(n_pores, duration_s))
    config = ChannelConfig(voltage_mv=voltage, n_pores=n_pores, sample_rate_hz=100_000)
    result = simulate(MOLECULE, config, duration_s, _BUSY, seed, clogs)
    for pore in range(n_pores):
        alone = pore_events(
            MOLECULE, config, _BUSY, seed, pore, duration_s, result.clogs.get(pore, ())
        )
        _assert_same_table(result.events.take(result.events.pore == pore), alone)


def test_persistent_clog_levels():
    calib = CALIB.replace(
        iv_points=((-210.0, -200.0), (0.0, 0.0), (90.0, 90.0), (150.0, 130.0), (210.0, 250.0))
    )
    config = ChannelConfig(
        voltage_mv=150.0, n_pores=3, sample_rate_hz=50_000, noise_sigma_pa=0.0
    )
    one = simulate(
        MoleculeSpec.from_string("(AC)60"), config, 1.0, calib, seed=2,
        clogs={0: [(0.0, 1.0)]},
    )
    assert np.mean(one.trace.samples) == pytest.approx(290.0, abs=2.0)
    two = simulate(
        MoleculeSpec.from_string("(AC)60"), config, 1.0, calib, seed=2,
        clogs={0: [(0.0, 1.0)], 1: [(0.0, 1.0)]},
    )
    assert np.mean(two.trace.samples) == pytest.approx(190.0, abs=2.0)


def test_clog_validation():
    config = ChannelConfig(voltage_mv=210.0, n_pores=1, sample_rate_hz=10_000)
    with pytest.raises(SimulationError):
        simulate(MOLECULE, config, 1.0, CALIB, seed=1, clogs={5: [(0.0, 0.5)]})
    with pytest.raises(SimulationError):
        simulate(
            MOLECULE, config, 1.0, CALIB, seed=1,
            clogs={0: [(0.0, 0.5), (0.4, 0.8)]},
        )
    for start, end in [(0.5, 0.2), (0.3, 0.3), (math.nan, 0.5), (0.0, math.inf)]:
        with pytest.raises(SimulationError, match="must be finite with start < end"):
            simulate(MOLECULE, config, 1.0, CALIB, seed=1, clogs={0: [(start, end)]})
    for duration in (math.nan, math.inf):
        with pytest.raises(SimulationError, match="duration_s must be finite"):
            simulate(MOLECULE, config, duration, CALIB, seed=1)


def _refuse_draws(*args, **kwargs):
    raise AssertionError("a refused run drew from its streams")


@pytest.mark.parametrize(
    "limit, value, config, duration_s",
    [
        # 10^4 samples at 100 kHz fill 0.1 s.
        ("MAX_SAMPLES", 10_000, ChannelConfig(sample_rate_hz=100_000), 0.1),
        # 2 pores at 21 events/s expect 10 events in 0.25 s.
        ("MAX_EVENTS", 10, ChannelConfig(n_pores=2), 10 / 42),
        # 2 gating pores with 20 ms dwells: 100 dwells in 1 s.
        ("MAX_GATING_DWELLS", 100, ChannelConfig(kcl_molar=2.0, n_pores=2), 1.0),
    ],
)
def test_simulate_refuses_a_run_past_each_limit(monkeypatch, limit, value, config, duration_s):
    monkeypatch.setattr(poresim, limit, value)
    simulate(MOLECULE, config, duration_s, CALIB, seed=1)  # at the limit
    monkeypatch.setattr(poresim, "pore_events", _refuse_draws)
    monkeypatch.setattr(poresim, "_gating_closed_intervals", _refuse_draws)
    with pytest.raises(SimulationError, match=f"more than {value:g}"):
        simulate(MOLECULE, config, duration_s * 1.01, CALIB, seed=1)


def test_gating_closures_merge_into_clogs(tmp_path):
    """At high salt a pore's gating closures are joined to its clog
    intervals: the union is sorted and disjoint, still covers the clog, and
    the log's clog rows read back as the same intervals."""
    config = ChannelConfig(voltage_mv=120.0, kcl_molar=2.0, sample_rate_hz=10_000)
    result = simulate(MOLECULE, config, 1.0, CALIB, seed=40, clogs={0: [(0.0, 0.5)]})
    intervals = list(result.clogs[0])
    assert intervals[0][0] == 0.0 and intervals[0][1] >= 0.5
    assert all(start < end for start, end in intervals)
    assert all(end < start for (_, end), (start, _) in zip(intervals, intervals[1:]))
    path = str(tmp_path / "truth.log")
    Path(path).write_text("".join(poresim.format_event_log([], result.events, result.clogs)))
    logged = poresim.parse_event_log(path)[2][0]
    assert logged == [pytest.approx(interval, abs=1e-9) for interval in intervals]


def test_gating_suppresses_events_and_toggles_current():
    config = ChannelConfig(
        voltage_mv=120.0, kcl_molar=2.0, sample_rate_hz=10_000, noise_sigma_pa=0.0
    )
    result = simulate(MOLECULE, config, 2.0, CALIB, seed=40)
    assert result.gating
    assert len(result.events) == 0
    open_pa = open_current(120.0, 2.0, CALIB)
    values = set(np.round(result.trace.samples, 6))
    assert values <= {round(open_pa, 6), round(CALIB.clogged_current_pa, 6)}
    # both states visited
    assert len(values) == 2


def test_events_do_not_overlap_within_pore():
    events = pore_events(MOLECULE, ChannelConfig(voltage_mv=210.0), CALIB, 77, 0, 60.0)
    ends = events.t_start_s + events.duration_us * 1e-6
    assert np.all(events.t_start_s[1:] >= ends[:-1])


def test_lowpass_filter_smooths_edges():
    config = ChannelConfig(
        voltage_mv=210.0, sample_rate_hz=1_000_000, noise_sigma_pa=0.0,
        bandwidth_khz=100.0,
    )
    filtered = simulate(MOLECULE, config, 0.05, CALIB, seed=12).trace
    raw = simulate(
        MOLECULE,
        ChannelConfig(voltage_mv=210.0, sample_rate_hz=1_000_000, noise_sigma_pa=0.0),
        0.05, CALIB, seed=12,
    ).trace
    # same events, but the filtered trace cannot jump a full blockade depth
    # in one sample
    assert np.max(np.abs(np.diff(filtered.samples))) < np.max(np.abs(np.diff(raw.samples)))


def test_simulate_parameter_errors():
    with pytest.raises(SimulationError):
        simulate(MOLECULE, ChannelConfig(voltage_mv=210.0), 0.0, CALIB, seed=1)
    with pytest.raises(SimulationError):
        simulate(MOLECULE, ChannelConfig(voltage_mv=210.0), 1.0, CALIB, seed=-4)


def test_complete_fraction_clamped():
    assert complete_fraction(210.0, CALIB) == pytest.approx(0.40)
    assert complete_fraction(50.0, CALIB) == pytest.approx(0.40)


# --- bounded level draws -----------------------------------------------------


def test_truncated_normal_gives_up():
    # A level at exactly 0 is never inside (0, 1).
    with pytest.raises(SimulationError, match="no blockade level in"):
        _truncated_normal(np.random.default_rng(0), 0.0, 0.0)


@pytest.mark.parametrize("mean,sd", [(0.35, 0.05), (0.02, 0.05), (0.97, 0.1), (0.5, 0.0)])
def test_truncated_normal_draws_as_unbounded_loop(mean, sd):
    bounded = np.random.default_rng(4)
    unbounded = np.random.default_rng(4)
    for _ in range(200):
        while True:
            x = unbounded.normal(mean, sd)
            if 0.0 < float(f"{x:.6f}") < 1.0:
                break
        assert _truncated_normal(bounded, mean, sd) == x
    assert bounded.random() == unbounded.random()


def test_zero_sigma_monolevel_calibration_simulates():
    calib = CALIB.replace(
        monolevel_blockage_points=((90.0, 0.999), (210.0, 0.99)), monolevel_sigma=0.0
    )
    config = ChannelConfig(voltage_mv=90.0, sample_rate_hz=10_000)
    result = simulate(MoleculeSpec.from_string("(AC)60"), config, 10.0, calib, seed=3)
    levels = set(_level(result.events, 0)[result.events.complete].tolist())
    assert len(levels) == 1
    assert levels.pop() == pytest.approx(0.001)


# --- chunked synthesis ---------------------------------------------------------

# Dense enough at 210 mV that blockades of different pores overlap.
_BUSY = CALIB.replace(
    event_rate_points=(
        (90.0, 200.0, 0.4), (120.0, 350.0, 0.4), (150.0, 1060.0, 0.4), (210.0, 2100.0, 0.4)
    )
)


def _overlap_across_pores(events) -> bool:
    ends = events.t_start_s + events.duration_us * 1e-6
    spans = sorted(zip(events.t_start_s.tolist(), ends.tolist(), events.pore.tolist()))
    return any(b[0] < a[1] and b[2] != a[2] for a, b in zip(spans, spans[1:]))


_CHUNK = poresim._CHUNK


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    noise=st.sampled_from([0.0, 5.0]),
    bandwidth=st.sampled_from([None, 10.0]),
    chunk=st.sampled_from([1, 7, 4096, _CHUNK - 1, _CHUNK, _CHUNK + 1, 10**6]),
)
def test_simulate_independent_of_chunk_size(seed, noise, bandwidth, chunk):
    config = ChannelConfig(
        voltage_mv=210.0, sample_rate_hz=100_000, noise_sigma_pa=noise,
        bandwidth_khz=bandwidth, n_pores=3,
    )
    # Past one chunk of the default size, unless a chunk is a few samples.
    duration_s = 0.03 if chunk < 100 else 0.7
    clogs = {0: [(0.004, 0.012)], 2: [(0.01, 0.03)]}
    reference = simulate(MOLECULE, config, duration_s, _BUSY, seed, clogs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        chunked = simulate(MOLECULE, config, duration_s, _BUSY, seed, clogs)
        pieces = [c.size for c in chunked.trace.chunks()]
        samples = chunked.trace.samples
    n = len(reference.trace)
    assert pieces == [min(chunk, n - i) for i in range(0, n, chunk)]
    assert samples.tobytes() == reference.trace.samples.tobytes()
    _assert_same_table(chunked.events, reference.events)
    assert chunked.clogs == reference.clogs


def test_chunk_invariance_covers_overlapping_pores():
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000, n_pores=3)
    result = simulate(MOLECULE, config, 0.03, _BUSY, seed=1)
    assert _overlap_across_pores(result.events)


def test_synthesized_trace_is_reiterable():
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000, n_pores=2)
    synthesized = simulate(MOLECULE, config, 0.2, _BUSY, seed=8).trace
    first = np.concatenate(list(synthesized.chunks()))
    second = np.concatenate(list(synthesized.chunks()))
    assert len(synthesized) == first.size == 20_000
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("bandwidth", [None, 10.0])
def test_noise_and_filter_match_whole_array_calls(monkeypatch, bandwidth):
    from scipy.signal import lfilter

    config = ChannelConfig(
        voltage_mv=0.0, sample_rate_hz=10_000, noise_sigma_pa=3.0, bandwidth_khz=bandwidth
    )
    trace = simulate(MOLECULE, config, 20.0, CALIB, seed=21).trace
    assert len(trace) == 200_000 > 3 * _CHUNK
    expected = np.full(200_000, 0.0) + poresim._noise_rng(21).normal(0.0, 3.0, 200_000)
    if bandwidth is not None:
        alpha = 1.0 - math.exp(-2.0 * math.pi * bandwidth * 1e3 / 10_000)
        expected = lfilter([alpha], [1.0, alpha - 1.0], expected)
    # Chunks, and so noise blocks, of part of the default chunk, one
    # sample short of it, the default chunk and one sample past it.
    for chunk in (999, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        monkeypatch.setattr(poresim, "_CHUNK", chunk)
        assert trace.samples.tobytes() == expected.tobytes(), chunk


def _whole_array_samples(trace):
    """The samples of a SynthesizedTrace made as one array: the open
    current, each segment's drop in the given order, one ``normal`` call
    and one ``lfilter`` call."""
    from scipy.signal import lfilter

    x = np.full(trace.n_samples, trace.open_total_pa)
    for i0, i1, drop_pa in zip(*(a.tolist() for a in (trace.starts, trace.stops, trace.drops))):
        x[i0:i1] -= drop_pa
    if trace.noise_sigma_pa > 0:
        x += poresim._noise_rng(trace.seed).normal(0.0, trace.noise_sigma_pa, trace.n_samples)
    if trace.cutoff_hz is not None:
        alpha = 1.0 - math.exp(-2.0 * math.pi * trace.cutoff_hz / trace.sample_rate_hz)
        x = lfilter([alpha], [1.0, alpha - 1.0], x)
    return x


def _crowded_segments(n, size):
    """``size`` segments of up to 40 samples within ``n``, in no order, as
    three pores' events interleave: many overlap, with drops whose sums
    round differently in another order."""
    rng = np.random.default_rng(11)
    starts = rng.integers(0, n, size)
    return starts, np.minimum(starts + rng.integers(1, 40, size), n), rng.uniform(0.1, 90.0, size)


# (starts, stops, drops) in a trace of 9 blocks of 16 samples and 5 more.
_LOOKUP_CASES = {
    "ends-on-a-block-edge": ([5, 40], [16, 48], [30.5, 70.25]),
    "starts-on-a-block-edge": ([16, 30], [21, 32], [30.5, 70.25]),
    "clog-over-many-blocks": ([3, 20, 60], [16 * 7 + 5, 24, 61], [120.0, 30.5, 0.3]),
    "no-samples": (
        [16, 10, 149, 150, 40, 70], [16, 10, 149, 149, 3, 80], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ),
    "pores-overlap-in-a-block": _crowded_segments(149, 300),
}


@pytest.mark.parametrize("case", sorted(_LOOKUP_CASES))
@pytest.mark.parametrize("cutoff_hz", [None, 10e3])
def test_segments_found_by_block_match_whole_array_reference(monkeypatch, case, cutoff_hz):
    starts, stops, drops = (np.asarray(a) for a in _LOOKUP_CASES[case])
    trace = poresim.SynthesizedTrace(
        1e5, 149, 400.0, starts.astype(np.int64), stops.astype(np.int64),
        drops.astype(np.float64), 2.0, 5, cutoff_hz,
    )
    expected = _whole_array_samples(trace)
    monkeypatch.setattr(poresim, "_CHUNK", 16)
    assert [c.size for c in trace.chunks()] == [16] * 9 + [5]
    assert trace.samples.tobytes() == expected.tobytes()


def test_crowded_segments_round_by_their_order():
    """The crowded case fails unless the segments of a block are subtracted
    in their given order."""
    starts, stops, drops = _crowded_segments(149, 300)
    got, backwards = np.full(149, 400.0), np.full(149, 400.0)
    for i0, i1, drop_pa in zip(starts, stops, drops):
        got[i0:i1] -= drop_pa
    for i0, i1, drop_pa in zip(starts[::-1], stops[::-1], drops[::-1]):
        backwards[i0:i1] -= drop_pa
    assert got.tobytes() != backwards.tobytes()


@pytest.mark.parametrize("block", [7, 4096])
def test_overlapping_pores_match_whole_array_reference(monkeypatch, block):
    config = ChannelConfig(
        voltage_mv=210.0, sample_rate_hz=100_000, noise_sigma_pa=5.0, bandwidth_khz=10.0,
        n_pores=3,
    )
    result = simulate(MOLECULE, config, 0.3, _BUSY, seed=2, clogs={1: [(0.05, 0.2)]})
    assert _overlap_across_pores(result.events)
    monkeypatch.setattr(poresim, "_CHUNK", block)
    assert result.trace.samples.tobytes() == _whole_array_samples(result.trace).tobytes()


def test_one_pass_holds_a_few_blocks_and_the_segments():
    """A pass over a noisy, filtered 3-pore trace of 10^7 samples with
    clogs holds a few chunks, its noise blocks among them, and the segment
    arrays, not every segment as Python numbers."""
    import scipy.signal  # noqa: F401 - imported before the pass is measured

    config = ChannelConfig(
        voltage_mv=210.0, sample_rate_hz=1_000_000, noise_sigma_pa=5.0, bandwidth_khz=100.0,
        n_pores=3,
    )
    trace = simulate(MOLECULE, config, 10.0, _BUSY, 7, {0: [(2.0, 6.0)], 2: [(5.0, 10.0)]}).trace
    segment_bytes = trace.starts.nbytes + trace.stops.nbytes + trace.drops.nbytes
    assert trace.starts.size > 40_000
    tracemalloc.start()
    try:
        assert sum(c.size for c in trace.chunks()) == len(trace) == 10**7
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * poresim._CHUNK * 8 + segment_bytes, peak


# --- the noise worker --------------------------------------------------------


def _noise_trace(duration_s: float = 100.0, noise_sigma_pa: float = 3.0):
    """A trace of 10^4 samples per second of noise alone: 100 s is over 15
    noise blocks, so the worker is still drawing after the first chunk."""
    config = ChannelConfig(
        voltage_mv=0.0, sample_rate_hz=10_000, noise_sigma_pa=noise_sigma_pa
    )
    return simulate(MOLECULE, config, duration_s, CALIB, seed=21).trace


def test_closing_a_pass_early_joins_the_noise_worker(monkeypatch):
    monkeypatch.setattr(poresim, "_CHUNK", 4096)
    trace = _noise_trace()
    before = set(threading.enumerate())
    chunks = trace.chunks()
    next(chunks)
    assert len(set(threading.enumerate()) - before) == 1
    # Let the worker draw ahead until it blocks on the full queue, which
    # closing must undo.  Closed on a thread of its own, so that a close
    # that never returns fails the test instead of hanging it.
    time.sleep(0.1)
    closer = threading.Thread(target=chunks.close, daemon=True)
    closer.start()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert set(threading.enumerate()) == before


def test_a_noiseless_pass_starts_no_thread():
    trace = _noise_trace(noise_sigma_pa=0.0)
    before = set(threading.enumerate())
    chunks = trace.chunks()
    assert not next(chunks).std()
    assert set(threading.enumerate()) == before
    chunks.close()


def test_an_error_in_a_chunk_joins_the_noise_worker():
    trace = _noise_trace(noise_sigma_pa=1e308)
    before = set(threading.enumerate())
    # The error is held, with its traceback and so the frames of the pass,
    # as a caller that reports it holds it.
    with pytest.raises(SimulationError) as raised:
        trace.samples
    assert set(threading.enumerate()) == before
    assert str(raised.value) == "noise_sigma_pa 1e+308 overflows the current"


class _FailsOnThirdBlock:
    """The noise stream of ``seed``, whose third block fails to draw
    (``noise_rng`` is bound here, before a test patches this class in)."""

    def __init__(self, seed, noise_rng=poresim._noise_rng):
        self.rng, self.blocks = noise_rng(seed), 0

    def standard_normal(self, out):
        self.blocks += 1
        if self.blocks == 3:
            raise RuntimeError("block 3 not drawn")
        return self.rng.standard_normal(out=out)


def test_a_draw_error_reaches_the_pass_once_and_joins_the_worker(monkeypatch):
    monkeypatch.setattr(poresim, "_CHUNK", 4096)
    trace = _noise_trace()
    expected = trace.samples[: 2 * 4096]
    monkeypatch.setattr(poresim, "_noise_rng", _FailsOnThirdBlock)
    before = set(threading.enumerate())
    chunks = trace.chunks()
    got = []
    with pytest.raises(RuntimeError, match="^block 3 not drawn$"):
        for chunk in chunks:
            got.append(chunk.copy())
    assert next(chunks, None) is None
    assert set(threading.enumerate()) == before
    assert np.concatenate(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("write", [traceio.write_trace_binary, traceio.write_trace_text])
def test_a_draw_error_while_writing_removes_the_partial_trace(monkeypatch, tmp_path, write):
    trace = _noise_trace()
    monkeypatch.setattr(poresim, "_noise_rng", _FailsOnThirdBlock)
    with pytest.raises(RuntimeError, match="^block 3 not drawn$"):
        write(trace, str(tmp_path / "t.trace"))
    assert not any(tmp_path.iterdir())


def test_noise_passes_on_many_threads_at_once_match_the_serial_draw(monkeypatch):
    """Four passes at once, switching threads every microsecond: a block
    drawn over before its chunk took it would change the samples."""
    monkeypatch.setattr(poresim, "_CHUNK", 4096)
    trace = _noise_trace(duration_s=30.0)
    noise = poresim._noise_rng(21).normal(0.0, 3.0, 300_000)
    expected = (np.full(300_000, 0.0) + noise).tobytes()
    results = {}

    def read(i):
        results[i] = trace.samples.tobytes()

    threads = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    assert all(result == expected for result in results.values())


# --- the event table against the per-event loop --------------------------------
#
# The ``_ref_*`` functions are sample_event, pore_events and simulate's
# segment loop as they were when each event was an object of its own,
# copied unchanged apart from their names and that class, which is
# ``_RefEvent`` here.  The event table and the segment arrays must
# reproduce them bit for bit.


class _RefEvent(NamedTuple):
    """One event as the per-event loop held it: (level, duration_us)
    substates, each checked as a drawn substate is."""

    t_start_s: float
    substates: tuple[tuple[float, float], ...]
    complete: bool
    orientation: Orientation = Orientation.UNKNOWN

    @classmethod
    def checked(cls, t_start_s, substates, complete, orientation=Orientation.UNKNOWN):
        for level, duration_us in substates:
            poresim._check_substate(level, duration_us)
        return cls(t_start_s, tuple(substates), complete, orientation)

    @property
    def duration_us(self) -> float:
        return sum(duration_us for _, duration_us in self.substates)

    @property
    def mean_level(self) -> float:
        return sum(level * duration_us for level, duration_us in self.substates) / self.duration_us


def _ref_duration_jitter(rng: np.random.Generator, cv: float) -> float:
    if cv <= 0.0:
        return 1.0
    sigma2 = math.log(1.0 + cv * cv)
    # mean of the multiplier is exactly 1
    return rng.lognormal(mean=-0.5 * sigma2, sigma=math.sqrt(sigma2))


def _ref_sample_event(molecule, config, calib, rng, t_start_s=0.0):
    voltage = config.voltage_mv
    if voltage <= 0:
        raise SimulationError("sample_event requires a positive trans bias")
    frac_complete = complete_fraction(voltage, calib)
    if rng.random() >= frac_complete:
        level = rng.uniform(calib.incomplete_level_low, calib.incomplete_level_high)
        duration = calib.incomplete_min_duration_us + rng.exponential(
            calib.incomplete_mean_duration_us - calib.incomplete_min_duration_us
        )
        return _RefEvent.checked(t_start_s, ((level, duration),), complete=False)

    dwell_scale = calib.base_dwell_us * calib.ref_voltage_mv / voltage
    cv = calib.duration_jitter_cv
    bilevel_ok = voltage >= calib.bilevel_min_voltage_mv and poresim._bilevel_possible(
        molecule, calib
    )
    p_bilevel = calib.bilevel_fraction / frac_complete if frac_complete > 0 else 0.0
    if bilevel_ok and rng.random() < min(1.0, p_bilevel):
        if rng.random() < calib.three_prime_first_fraction:
            orientation = Orientation.THREE_PRIME_FIRST
            ordered = tuple(reversed(molecule.segments))
        else:
            orientation = Orientation.FIVE_PRIME_FIRST
            ordered = molecule.segments
        subs = []
        for base, count in ordered:
            stats = calib.level_for(base.value, orientation.entry_end)
            level = _truncated_normal(rng, stats.mean, stats.sd)
            subs.append((level, count * dwell_scale * _ref_duration_jitter(rng, cv)))
        return _RefEvent.checked(t_start_s, subs, complete=True, orientation=orientation)

    level = _truncated_normal(
        rng, 1.0 - monolevel_blockage(voltage, calib), calib.monolevel_sigma
    )
    duration = molecule.total_bases * dwell_scale * _ref_duration_jitter(rng, cv)
    return _RefEvent.checked(t_start_s, ((level, duration),), complete=True)


def _ref_pore_events(molecule, config, calib, seed, pore, duration_s, clog_intervals=()):
    voltage = config.voltage_mv
    if voltage <= 0:
        return []
    rate = capture_rate(voltage, calib)
    rng = poresim._pore_rng(seed, pore)
    events = []
    busy_until = 0.0
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration_s:
            break
        if t < busy_until:
            continue  # arrived during a blockade: discarded
        event = _ref_sample_event(molecule, config, calib, rng, t_start_s=t)
        t_end = t + event.duration_us * 1e-6
        if t_end > duration_s:
            continue
        if poresim._overlaps(t, t_end, clog_intervals):
            continue  # pore is (or becomes) persistently clogged
        busy_until = t_end
        events.append(event)
    return events


def _ref_sample_slice(t_start, t_end, rate, n):
    i0 = max(0, math.ceil(t_start * rate - 1e-9))
    i1 = min(n, math.ceil(t_end * rate - 1e-9))
    return i0, i1


def _ref_simulate(molecule, config, duration_s, calib, seed, clog_map):
    """simulate's events, sorted, and its segment arrays, for a run that is
    not gating, given its normalized clogs."""
    rate = float(config.sample_rate_hz)
    n = int(duration_s * rate)
    open_pa = open_current(config.voltage_mv, config.kcl_molar, calib)
    all_events = []
    for pore in range(config.n_pores):
        for event in _ref_pore_events(
            molecule, config, calib, seed, pore, duration_s, clog_map.get(pore, ())
        ):
            all_events.append((pore, event))

    segments = []
    for _, event in all_events:
        t = event.t_start_s
        for level, dur_us in event.substates:
            t_end = t + dur_us * 1e-6
            segments.append((*_ref_sample_slice(t, t_end, rate, n), open_pa * (1.0 - level)))
            t = t_end
    for intervals in clog_map.values():
        for start, end in intervals:
            segments.append(
                (*_ref_sample_slice(start, end, rate, n), open_pa - calib.clogged_current_pa)
            )
    starts, stops, drops = (np.array([seg[i] for seg in segments]) for i in range(3))
    all_events.sort(key=lambda pe: (pe[1].t_start_s, pe[0]))
    return all_events, (starts, stops, drops)


def _assert_table_holds(table, events):
    """The table's fields equal the (pore, _RefEvent) list's."""
    assert len(table) == len(events)
    subs = [sub for _, e in events for sub in e.substates]
    expected = {
        "pore": np.array([p for p, _ in events], dtype=np.int64),
        "t_start_s": np.array([e.t_start_s for _, e in events], dtype=np.float64),
        "complete": np.array([e.complete for _, e in events], dtype=np.bool_),
        "orientation": np.array(
            [ORIENTATIONS.index(e.orientation) for _, e in events], dtype=np.int8
        ),
        "offsets": np.cumsum([0] + [len(e.substates) for _, e in events], dtype=np.int64),
        "levels": np.array([level for level, _ in subs], dtype=np.float64),
        "durations_us": np.array([duration for _, duration in subs], dtype=np.float64),
    }
    for name, want in expected.items():
        got = getattr(table, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    assert table.duration_us.tolist() == [e.duration_us for _, e in events]
    assert table.mean_level.tolist() == [e.mean_level for _, e in events]
    spans = []  # each substate's (start, end), chained as the segment loop chains them
    for _, e in events:
        t = e.t_start_s
        for _, dur_us in e.substates:
            spans.append((t, t + dur_us * 1e-6))
            t = spans[-1][1]
    assert list(zip(*(a.tolist() for a in table.substate_spans_s()))) == spans


_ORACLE_MOLECULES = [MoleculeSpec.from_string(s) for s in ("C150", "A50C100", "A20C30G10")]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    voltage=st.sampled_from([150.0, 210.0, 0.0, -90.0]),
    molecule=st.sampled_from(_ORACLE_MOLECULES),
    cv=st.sampled_from([0.0, 0.1]),
    n_pores=st.integers(1, 3),
    data=st.data(),
)
def test_event_table_equals_per_event_loop(seed, voltage, molecule, cv, n_pores, data):
    duration_s = 0.05
    calib = _BUSY.replace(duration_jitter_cv=cv)
    clogs = data.draw(_clog_schedules(n_pores, duration_s))
    config = ChannelConfig(
        voltage_mv=voltage, n_pores=n_pores, sample_rate_hz=100_000, noise_sigma_pa=0.0
    )
    result = simulate(molecule, config, duration_s, calib, seed, clogs)
    events, segments = _ref_simulate(molecule, config, duration_s, calib, seed, result.clogs)
    _assert_table_holds(result.events, events)
    for pore in range(n_pores):
        clogged = result.clogs.get(pore, ())
        alone = pore_events(molecule, config, calib, seed, pore, duration_s, clogged)
        want = _ref_pore_events(molecule, config, calib, seed, pore, duration_s, clogged)
        _assert_table_holds(alone, [(pore, e) for e in want])
    trace = result.trace
    # An empty segment list made float64 sample indices in the loop; the
    # indices are int64 whether or not a segment exists.
    for got, want, dtype in zip(
        (trace.starts, trace.stops, trace.drops), segments, (np.int64, np.int64, np.float64)
    ):
        assert got.dtype == dtype
        if want.size:
            assert want.dtype == dtype
        assert got.tolist() == want.tolist()


def test_event_table_oracle_sees_every_kind_of_event():
    """The oracle test's inputs draw incomplete, mono-level and both
    orientations of bi-level events, and runs with no event at all."""
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000)
    events = simulate(MOLECULE, config, 0.05, _BUSY, seed=1).events
    assert not events.complete.all()
    assert set(events.orientation.tolist()) == {0, 1, 2}
    assert (np.diff(events.offsets) == 1).any()
    assert len(simulate(MOLECULE, ChannelConfig(voltage_mv=0.0), 0.05, _BUSY, seed=1).events) == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        # A negative minimum lets the incomplete dwell fall to or below 0.
        ({"incomplete_min_duration_us": -1e6, "incomplete_mean_duration_us": 1.0},
         "substate duration must be > 0"),
        # A level band this narrow draws a level of exactly 0 about half the
        # time.  The table refuses such a band itself, so it is set past the
        # table's check below.
        ({"incomplete_level_low": 0.0, "incomplete_level_high": 5e-324},
         r"substate level 0\.0 outside \(0, 1\)"),
    ],
)
def test_every_drawn_event_is_checked(overrides, message):
    """An event the calibration makes invalid is refused, as the per-event
    loop refused it, also when the run would drop it: here the one pore is
    clogged throughout.  The overrides are set past ``CalibrationTable``'s
    own checks, so the draw's check is the one under test."""
    calib = copy.copy(_BUSY)
    for name, value in overrides.items():
        object.__setattr__(calib, name, value)
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000)
    clogged = ((0.0, 0.05),)
    for draw in (pore_events, _ref_pore_events):
        with pytest.raises(SimulationError, match=message):
            draw(MOLECULE, config, calib, 3, 0, 0.05, clogged)
    with pytest.raises(SimulationError, match=message):
        simulate(MOLECULE, config, 0.05, calib, 3, {0: clogged})


def test_event_table_take_and_concatenate():
    config = ChannelConfig(voltage_mv=210.0, n_pores=2, sample_rate_hz=100_000)
    tables = [pore_events(MOLECULE, config, _BUSY, 4, pore, 0.02) for pore in range(2)]
    joined = EventTable.concatenate(tables)
    assert _rows(joined) == _rows(tables[0]) + _rows(tables[1])
    order = np.arange(len(joined))[::-1]
    assert _rows(joined.take(order)) == _rows(joined)[::-1]
    _assert_same_table(joined.take(joined.pore == 1), tables[1])
    empty = EventTable.concatenate([])
    assert len(empty) == 0 and _rows(empty) == [] and empty.offsets.tolist() == [0]
    _assert_same_table(joined.take(np.zeros(len(joined), bool)), empty)


# --- the ground-truth log ---------------------------------------------------------


@st.composite
def _logged_tables(draw):
    """An event table whose levels print inside (0, 1) and whose durations
    print above 0, as format_event_log prints them."""
    n = draw(st.integers(0, 6))

    def column(values, size=n):
        return draw(st.lists(values, min_size=size, max_size=size))

    counts = column(st.integers(1, 3))
    return EventTable.from_columns(
        column(st.integers(0, 4)), column(st.floats(0.0, 1e4)), column(st.booleans()),
        column(st.integers(0, 2)), counts, column(st.floats(1e-6, 1.0 - 1e-6), sum(counts)),
        column(st.floats(1e-3, 1e7), sum(counts)),
    )


_LOGGED_CLOGS = st.dictionaries(
    st.integers(0, 4),
    st.lists(
        st.tuples(st.floats(0.0, 1e4), st.floats(1e-9, 1e3)).map(lambda p: (p[0], p[0] + p[1])),
        min_size=1, max_size=3,
    ),
)


def _printed(values, places):
    return np.array([float(f"{v:.{places}f}") for v in values.tolist()])


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(events=_logged_tables(), clogs=_LOGGED_CLOGS)
def test_event_log_round_trip(tmp_path, events, clogs):
    """Writing a log then parsing it gives back the header, the table and
    the clogs at the printed precision."""
    path = str(tmp_path / "truth.log")
    header = ["# molstore simulate", "# seed = 7", "# cal.iv_points = 0:0 210:250"]
    Path(path).write_text("".join(poresim.format_event_log(header, events, clogs)))
    got_header, got, got_clogs = poresim.parse_event_log(path)
    assert got_header == {"seed": "7", "cal.iv_points": "0:0 210:250"}
    _assert_same_table(got, EventTable(
        events.pore, _printed(events.t_start_s, 9), events.complete, events.orientation,
        events.offsets, _printed(events.levels, 6), _printed(events.durations_us, 3),
    ))
    want_clogs = {}
    for pore, intervals in clogs.items():
        for start, end in intervals:
            start, width_us = float(f"{start:.9f}"), float(f"{(end - start) * 1e6:.3f}")
            want_clogs.setdefault(pore, []).append((start, start + width_us * 1e-6))
    assert got_clogs == want_clogs


@pytest.mark.parametrize(
    "mean, band",
    [(3e-7, (6e-7, 1.5e-6)), (1 - 3e-7, (0.999998, 0.9999994))],
    ids=["near-0", "near-1"],
)
def test_levels_drawn_at_the_edges_print_inside_and_parse_back(tmp_path, mean, band):
    """Levels drawn around 3e-7 from 0 or 1, from every level draw (the
    bi-level and mono-level normals and the incomplete band), print inside
    (0, 1) with "%.6f", reach the printed edge, and parse back."""
    calib = _BUSY.replace(
        level_stats={key: LevelStats(mean, 1e-6) for key in CALIB.level_stats},
        monolevel_blockage_points=((90.0, 1 - mean + 3e-8), (210.0, 1 - mean)),
        monolevel_sigma=1e-6,
        incomplete_level_low=band[0],
        incomplete_level_high=band[1],
    )
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000)
    events = simulate(MOLECULE, config, 0.05, calib, seed=2).events
    assert not events.complete.all() and set(events.orientation.tolist()) == {0, 1, 2}
    path = str(tmp_path / "truth.log")
    Path(path).write_text("".join(poresim.format_event_log([], events, {})))
    levels = poresim.parse_event_log(path)[1].levels
    assert levels.tolist() == _printed(events.levels, 6).tolist()
    assert (1e-6 if mean < 0.5 else 0.999999) in levels.tolist()


@pytest.mark.parametrize(
    "levels, durations, message",
    [
        ("0.000000", "150.000", r"substate level 0\.0 outside \(0, 1\)"),
        ("0.370000;1.000000", "100.000;50.000", r"substate level 1\.0 outside \(0, 1\)"),
        ("0.370000", "0.000", "substate duration must be > 0"),
        ("0.370000;0.170000", "100.000", "unpaired levels and durations"),
    ],
)
def test_event_log_refuses_a_substate_no_draw_makes(tmp_path, levels, durations, message):
    path = tmp_path / "truth.log"
    path.write_text(
        "# seed = 1\nkind,pore,t_start_s,duration_us,complete,orientation,levels,durations_us\n"
        f"event,0,0.001000000,150.000,1,unknown,{levels},{durations}\n"
    )
    with pytest.raises(SimulationError, match=message):
        poresim.parse_event_log(str(path))

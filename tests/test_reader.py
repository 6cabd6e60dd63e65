import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molstore import poresim, reader, traceio
from molstore.calibration import CalibrationTable, ChannelConfig
from molstore.codec import RunLengthScheme
from molstore.poresim import (
    CurrentTrace,
    EventTable,
    MoleculeSpec,
    Orientation,
    capture_rate,
    open_current,
    simulate,
)
from molstore.reader import (
    BiLevel,
    DetectedEvent,
    Incomplete,
    MonoLevel,
    OrientationUnknownError,
    ReaderError,
    census_current_means,
    census_rates,
    census_series,
    census_stats,
    classify_event,
    complete_duration_floor_us,
    decode_event,
    detect_events,
    infer_orientation,
    to_translocation_event,
    trace_stats,
)

CALIB = CalibrationTable()
RATE = 1_000_000.0
NO_EVENTS = EventTable.concatenate([])


def _flat(value, n, rate=RATE):
    return CurrentTrace(rate, np.full(n, float(value)))


# --- detection ---------------------------------------------------------------


def test_detect_flat_trace_no_events():
    assert detect_events(_flat(250.0, 5000), 250.0) == []


def test_detect_empty_trace():
    assert detect_events(CurrentTrace(RATE, np.empty(0)), 250.0) == []


def test_detect_rectangular_dip():
    samples = np.full(1000, 250.0)
    samples[400:550] = 0.2 * 250.0  # 150 us at 1 MHz
    events = detect_events(CurrentTrace(RATE, samples), 250.0)
    assert len(events) == 1
    event = events[0]
    assert event.t_start_s == pytest.approx(400e-6, abs=1e-6)
    assert event.duration_us == pytest.approx(150.0, abs=1.0)
    assert event.mean_level == pytest.approx(0.2)


def test_detect_min_duration_rejects_spikes():
    samples = np.full(1000, 250.0)
    samples[100:105] = 10.0  # 5 us spike
    assert detect_events(CurrentTrace(RATE, samples), 250.0, min_duration_us=10.0) == []


def test_detect_parameter_errors():
    with pytest.raises(ReaderError):
        detect_events(_flat(250.0, 10), 0.0)
    with pytest.raises(ReaderError):
        detect_events(_flat(250.0, 10), 250.0, threshold_fraction=1.5)


@st.composite
def _detect_cases(draw):
    # Runs of open (1.0) and blocked (0.2) current, so runs touch sample 0
    # and the last sample as often as not.
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 12)), max_size=30))
    samples = np.array([0.2 if low else 1.0 for low, n in runs for _ in range(n)]) * 250.0
    rate = draw(st.sampled_from([1e6, 250_000.0, 100_000.0]))
    min_duration_us = draw(st.sampled_from([0.0, 1.0, 10.0, 24.0, 40.0]))
    return CurrentTrace(rate, samples), min_duration_us


@settings(deadline=None)
@given(case=_detect_cases())
def test_detect_events_are_ordered_disjoint_in_bounds_and_long_enough(case):
    trace, min_duration_us = case
    samples = trace.samples
    events = detect_events(trace, 250.0, 0.5, min_duration_us)
    bounds = [
        (round(e.t_start_s * trace.sample_rate_hz), len(e.levels)) for e in events
    ]
    end = 0
    for start, n in bounds:
        assert start >= end  # ordered and disjoint
        end = start + n
        assert 0 <= start and end <= samples.size
        assert n >= min_duration_us * 1e-6 * trace.sample_rate_hz
        assert np.all(samples[start:end] < 125.0)
        # maximal: an open sample or a trace end on both sides
        assert start == 0 or samples[start - 1] >= 125.0
        assert end == samples.size or samples[end] >= 125.0
    # every long-enough blocked run is reported
    edges = np.diff(np.concatenate(([0], samples < 125.0, [0])).astype(np.int8))
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    expected = [
        (i, j - i) for i, j in runs if j - i >= min_duration_us * 1e-6 * trace.sample_rate_hz
    ]
    assert bounds == expected


def test_detect_recovers_seeded_events_within_10us():
    # shallow-level envelope from the calibrated statistics, default noise
    molecule = MoleculeSpec.from_string("A50C100")
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=1_000_000)
    result = simulate(molecule, config, 10.0, CALIB, seed=606)
    open_pa = open_current(210.0, 1.0, CALIB)
    detected = detect_events(result.trace, open_pa, threshold_fraction=0.5)
    starts = np.array([d.t_start_s for d in detected])
    events = result.events
    shallow = np.maximum.reduceat(events.levels, events.offsets[:-1]) <= 0.4
    truth = events.t_start_s[events.complete & shallow].tolist()
    assert truth
    matched = sum(1 for t in truth if np.min(np.abs(starts - t)) <= 10e-6)
    assert matched / len(truth) >= 0.99


# --- classification ----------------------------------------------------------


def _detected(levels, rate=RATE, t0=0.0):
    return DetectedEvent(t0, np.asarray(levels, dtype=float), rate)


def test_classify_bilevel_example():
    rng = np.random.default_rng(3)
    levels = np.concatenate(
        [rng.normal(0.37, 0.005, 100), rng.normal(0.17, 0.005, 50)]
    )
    cls = classify_event(_detected(levels), noise_sigma_norm=0.005)
    assert isinstance(cls, BiLevel)
    assert cls.first_level == pytest.approx(0.37, abs=0.01)
    assert cls.second_level == pytest.approx(0.17, abs=0.01)
    assert cls.first_duration_us == pytest.approx(100.0, abs=2.0)
    assert cls.second_duration_us == pytest.approx(50.0, abs=2.0)


def test_classify_constant_is_monolevel():
    cls = classify_event(_detected(np.full(150, 0.5)), noise_sigma_norm=0.02)
    assert cls == MonoLevel(0.5)


def test_classify_short_event_incomplete():
    cls = classify_event(
        _detected(np.full(20, 0.5)), noise_sigma_norm=0.02, complete_floor_us=60.0
    )
    assert isinstance(cls, Incomplete)


def test_classify_requires_min_substate_duration():
    # clear two-level structure, but the second segment is only 10 us long
    levels = np.concatenate([np.full(140, 0.37), np.full(10, 0.17)])
    cls = classify_event(_detected(levels), noise_sigma_norm=0.001, min_substate_us=20.0)
    assert isinstance(cls, MonoLevel)


def test_classify_needs_separation_above_noise():
    levels = np.concatenate([np.full(100, 0.35), np.full(50, 0.33)])
    cls = classify_event(_detected(levels), noise_sigma_norm=0.02)
    assert isinstance(cls, MonoLevel)


def test_complete_duration_floor():
    assert complete_duration_floor_us(210.0, 150, CALIB) == pytest.approx(60.0)


# --- orientation -------------------------------------------------------------


def test_orientation_three_prime_first():
    orientation = infer_orientation(BiLevel(0.37, 0.17, 100.0, 50.0))
    assert orientation is Orientation.THREE_PRIME_FIRST


def test_orientation_five_prime_first():
    orientation = infer_orientation(BiLevel(0.12, 0.20, 50.0, 100.0))
    assert orientation is Orientation.FIVE_PRIME_FIRST


def test_orientation_tie_unknown():
    orientation = infer_orientation(BiLevel(0.25, 0.25, 70.0, 70.0))
    assert orientation is Orientation.UNKNOWN


def test_orientation_antisymmetric():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = rng.uniform(0.05, 0.6, size=2)
        fwd = infer_orientation(BiLevel(a, b, 50.0, 50.0))
        rev = infer_orientation(BiLevel(b, a, 50.0, 50.0))
        if fwd is Orientation.UNKNOWN:
            assert rev is Orientation.UNKNOWN
        else:
            assert {fwd, rev} == {
                Orientation.THREE_PRIME_FIRST,
                Orientation.FIVE_PRIME_FIRST,
            }


def test_orientation_ordering_decides_against_depths():
    # ordering says 3'-first, though the depths sit nearer the 5'-first pair
    orientation = infer_orientation(BiLevel(0.21, 0.115, 100.0, 50.0))
    assert orientation is Orientation.THREE_PRIME_FIRST


# --- base recovery -----------------------------------------------------------


def _recover_bases(substates, orientation, voltage_mv):
    """Base recovery of one event's (level, duration_us) substates, as
    (base, count) segments 5' to 3'."""
    bases, counts = reader._segment_layouts(
        np.array([[level for level, _ in substates]]),
        np.array([[duration for _, duration in substates]]),
        orientation, CALIB, voltage_mv,
    )
    return [(base, int(count)) for base, count in zip(bases[0].tolist(), counts[0].tolist())]


def test_recover_bases_three_prime_first():
    segments = _recover_bases(
        [(0.37, 100.0), (0.17, 50.0)], Orientation.THREE_PRIME_FIRST, 210.0
    )
    assert segments == [("A", 50), ("C", 100)]


def test_recover_bases_five_prime_first_same_molecule():
    # the A50C100 molecule of the 3'-first case entering the other way:
    # A-segment first in time
    segments = _recover_bases(
        [(0.12, 50.0), (0.20, 100.0)], Orientation.FIVE_PRIME_FIRST, 210.0
    )
    assert segments == [("A", 50), ("C", 100)]


def test_recover_bases_voltage_normalizes_counts():
    # at 420 mV dwell halves, so the same counts need half the duration
    segments = _recover_bases(
        [(0.37, 50.0), (0.17, 25.0)], Orientation.THREE_PRIME_FIRST, 420.0
    )
    assert segments == [("A", 50), ("C", 100)]


def test_recover_bases_joint_assignment_keeps_adjacent_distinct():
    # a deep C draw sits nearer the A mean, but adjacent segments cannot
    # both be A; the joint assignment recovers (A, C) anyway
    segments = _recover_bases(
        [(0.23, 100.0), (0.16, 50.0)], Orientation.THREE_PRIME_FIRST, 210.0
    )
    assert [b for b, _ in segments] == ["A", "C"]


# --- event decode ------------------------------------------------------------


def test_decode_event_recovers_payload():
    scheme = RunLengthScheme.from_string("A50C100")
    cls = BiLevel(0.37, 0.17, 100.0, 50.0)
    assert decode_event(cls, scheme, CALIB, 210.0) == [0, 1]


def test_decode_event_tolerates_count_error():
    scheme = RunLengthScheme.from_string("A50C100")
    cls = BiLevel(0.37, 0.17, 108.0, 46.0)  # counts off by < tolerance
    assert decode_event(cls, scheme, CALIB, 210.0, tolerance=0.45) == [0, 1]


def test_decode_event_refuses_tie():
    scheme = RunLengthScheme.from_string("A50C100")
    with pytest.raises(OrientationUnknownError):
        decode_event(BiLevel(0.25, 0.25, 100.0, 50.0), scheme, CALIB, 210.0)


def test_decode_event_requires_bilevel():
    scheme = RunLengthScheme.from_string("A50C100")
    with pytest.raises(ReaderError):
        decode_event(MonoLevel(0.4), scheme, CALIB, 210.0)


def test_decode_event_never_expands_the_bases():
    # A 3'-first C10^7 A5x10^6 layout: 10^4 symbols of each bit.  Spelling
    # the layout out as bases would take 15 MB.
    scheme = RunLengthScheme.from_string("A500C1000")
    tracemalloc.start()
    try:
        bits = decode_event(BiLevel(0.37, 0.17, 1e7, 5e6), scheme, CALIB, 210.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits == [0] * 10**4 + [1] * 10**4
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize(
    "base_dwell_us, ref_voltage_mv, reason",
    [
        (1e-300, 210.0, "more bits than"),
        (5e-324, 210.0, "count is not finite"),
        (1e-300, 1e-300, "count is not finite"),  # the dwell underflows to 0
    ],
)
def test_decode_event_refuses_a_count_no_molecule_holds(base_dwell_us, ref_voltage_mv, reason):
    # A tiny per-base dwell makes a 100 us substate hold ~10^302 bases, or
    # more than a float64 holds.
    scheme = RunLengthScheme.from_string("A50C100")
    calib = CALIB.replace(base_dwell_us=base_dwell_us, ref_voltage_mv=ref_voltage_mv)
    with pytest.raises(ReaderError, match=reason):
        decode_event(BiLevel(0.37, 0.17, 100.0, 50.0), scheme, calib, 210.0)


def test_decode_event_refuses_more_bits_than_a_molecule_holds_bases():
    # A 3'-first C(4 x 10^5) A(6 x 10^5) layout carries 10^6 bits under A1C1.
    scheme = RunLengthScheme.from_string("A1C1")
    bits = decode_event(BiLevel(0.37, 0.17, 4e5, 6e5), scheme, CALIB, 210.0)
    assert bits == [0] * 600_000 + [1] * 400_000
    with pytest.raises(ReaderError, match=f"more bits than the {poresim.MAX_MOLECULE_BASES} "):
        decode_event(BiLevel(0.37, 0.17, 4e5, 6e5 + 1), scheme, CALIB, 210.0)


@pytest.mark.parametrize("voltage_mv", [-211.0, 210.5, 1e12, 1e308, np.inf, np.nan])
def test_decode_refuses_voltage_outside_calibration(voltage_mv):
    scheme = RunLengthScheme.from_string("A50C100")
    trace = CurrentTrace(RATE, np.full(10, 250.0))
    with pytest.raises(ReaderError, match="voltage_mv: .* outside tabulated range"):
        decode_event(BiLevel(0.37, 0.17, 100.0, 50.0), scheme, CALIB, voltage_mv)
    with pytest.raises(ReaderError, match="voltage_mv: .* outside tabulated range"):
        reader.read_station(trace, 250.0, 5.0, CALIB, scheme, voltage_mv)


# --- census ------------------------------------------------------------------


def _nearest_level_census(sample_pa, n_pores, open_pa, clogged_pa):
    """The census of one sample by argmin over the quantized total currents."""
    ks = np.arange(n_pores + 1)
    levels = ks * open_pa + (n_pores - ks) * clogged_pa
    return int(np.argmin(np.abs(levels - sample_pa)))


@pytest.mark.parametrize("sample,expected", [(400.0, 3), (290.0, 2), (190.0, 1)])
def test_pore_state_census_examples(sample, expected):
    assert census_series(np.array([sample]), 3, 130.0, 30.0)[0] == expected


def test_pore_state_census_exact_on_quantized_currents():
    for n_pores in range(1, 9):
        for k in range(n_pores + 1):
            current = k * 130.0 + (n_pores - k) * 30.0
            assert census_series(np.array([current]), n_pores, 130.0, 30.0)[0] == k


def test_census_series_matches_scalar():
    rng = np.random.default_rng(2)
    samples = rng.uniform(0.0, 420.0, 500)
    series = census_series(samples, 3, 130.0, 30.0)
    for sample, k in zip(samples, series):
        assert _nearest_level_census(sample, 3, 130.0, 30.0) == k


def _census_reference(x, n_pores, open_pa, clogged_pa):
    """The census by the rounding formula, in float64 arithmetic over the
    whole array: the states the census thresholds must give."""
    with np.errstate(over="ignore"):
        return np.clip(np.rint((x - n_pores * clogged_pa) / (open_pa - clogged_pa)), 0, n_pores)


def _ref_tally(census, x, n_pores):
    """Samples and their sum per census state 0..n_pores, summed by one
    reduction per poresim._CHUNK slice and state; states above n_pores are
    skipped.  A slice spanning 8 or more states sums each state's samples as
    np.add.reduceat sums a segment, which past ~100 samples rounds otherwise
    than np.add.reduce."""
    counts, sums = np.zeros(n_pores + 1, dtype=np.int64), np.zeros(n_pores + 1)
    for start in range(0, x.size, poresim._CHUNK):
        part = census[start : start + poresim._CHUNK].astype(np.int64)
        values = x[start : start + poresim._CHUNK]
        wide = part.max() - part.min() >= 8
        for k in np.unique(part).tolist():
            if k <= n_pores:
                in_state = values[part == k]
                counts[k] += in_state.size
                with np.errstate(over="ignore", invalid="ignore"):
                    sums[k] += (
                        np.add.reduceat(in_state, [0])[0] if wide else np.add.reduce(in_state)
                    )
    return counts, sums


@st.composite
def _census_cases(draw):
    n_pores = draw(st.one_of(st.integers(1, 8), st.just(300)))
    clogged = draw(st.sampled_from([30.0, 0.0, 12.5]))
    step = draw(st.sampled_from([100.0, 130.0, 0.5]))
    # Currents exactly half-way between two census levels, where rint
    # rounds to even.
    halfway = st.integers(-2, n_pores + 2).map(
        lambda k: n_pores * clogged + (k + 0.5) * step
    )
    values = draw(
        st.lists(st.one_of(st.floats(-1e300, 1e300), halfway), min_size=1, max_size=40)
    )
    chunk = poresim._CHUNK
    length = draw(
        st.one_of(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1]), st.integers(2, 64))
    )
    x = np.resize(np.array(values, dtype=np.float64), length)
    return x, n_pores, clogged + step, clogged


@settings(deadline=None)
@given(case=_census_cases())
def test_census_series_matches_reference(case):
    x, n_pores, open_pa, clogged_pa = case
    census = census_series(x, n_pores, open_pa, clogged_pa)
    assert census.dtype == np.min_scalar_type(n_pores)
    assert census.shape == x.shape
    assert np.array_equal(census, _census_reference(x, n_pores, open_pa, clogged_pa))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "n_pores, samples",
    [
        (3, [100.0, 250.0, 0.0, 400.0]),  # a slice of a few states: compares
        (3, [250.0, 250.0, 0.0, 250.0]),  # a slice of one state
        (300, [0.0, 1e5, 0.0, 5e3]),  # a slice of many states: searchsorted
    ],
    ids=["few-states", "one-state", "many-states"],
)
def test_census_refuses_a_sample_that_is_not_finite(n_pores, samples, bad):
    """A NaN or infinite sample has no census state: census_series,
    census_stats and read_station refuse it with one ReaderError naming its
    index, in whichever branch its slice takes, and in a later chunk."""
    x = np.array(samples)
    x[2] = bad
    message = f"sample 2 is {bad}, not a finite current"
    with pytest.raises(ReaderError, match=message):
        census_series(x, n_pores, 130.0, 30.0)
    late = np.concatenate([np.full(poresim._CHUNK * 4 + 7, samples[0]), x])
    calib = CalibrationTable(clogged_current_pa=30.0)
    for trace, first in ((CurrentTrace(1e6, x), 2), (CurrentTrace(1e6, late), late.size - 2)):
        message = f"sample {first} is {bad}, not a finite current"
        with pytest.raises(ReaderError, match=message):
            census_stats(trace, n_pores, 130.0, 30.0)
        with pytest.raises(ReaderError, match=message):
            reader.read_station(
                trace, 130.0, 5.0, calib, RunLengthScheme.from_string("A50C100"), 210.0,
                n_pores=n_pores,
            )


def test_census_series_needs_a_pore():
    for n_pores in (0, -1):
        with pytest.raises(ReaderError):
            census_series(np.full(4, 250.0), n_pores, 130.0, 30.0)


@settings(deadline=None)
@given(case=_census_cases())
def test_census_counts_match_unique(case):
    x, n_pores, open_pa, clogged_pa = case
    thresholds = reader._census_thresholds(n_pores, open_pa, clogged_pa)
    census, counts, sums = reader._census_chunk(x, thresholds)
    assert np.array_equal(census, census_series(x, n_pores, open_pa, clogged_pa))
    states, expected = np.unique(census, return_counts=True)
    assert np.flatnonzero(counts).tolist() == states.tolist()
    assert counts[states].tolist() == expected.tolist()
    want_counts, want_sums = _ref_tally(census, x, n_pores)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(sums, want_sums, equal_nan=True)


def test_census_rates_counts_dips_per_baseline():
    rate = 100_000.0
    n = int(2.0 * rate)
    samples = np.full(n, 390.0)
    # persistent clog in the second half
    samples[n // 2:] = 290.0
    # 100 us dips: three on the 3-open baseline, two on the 2-open baseline
    for t0 in (0.2, 0.5, 0.8):
        i = int(t0 * rate)
        samples[i : i + 10] = 292.0
    for t0 in (1.3, 1.7):
        i = int(t0 * rate)
        samples[i : i + 10] = 192.0
    rates = census_rates(census_series(samples, 3, 130.0, 30.0), rate, 3)
    assert rates[3].events == 3
    assert rates[2].events == 2
    assert rates[3].seconds == pytest.approx(1.0, abs=0.05)
    assert rates[2].seconds == pytest.approx(1.0, abs=0.05)


def test_census_current_means():
    samples = np.concatenate([np.full(100, 390.0), np.full(50, 290.0)])
    means = census_current_means(samples, census_series(samples, 3, 130.0, 30.0), 3)
    assert means[3] == pytest.approx(390.0)
    assert means[2] == pytest.approx(290.0)
    # A state above n_pores is left out of the sums as of the counts.
    assert census_current_means([100.0, 100.0, 500.0], np.array([3, 3, 4]), 3) == {3: 100.0}
    samples = np.random.default_rng(3).uniform(0.0, 420.0, 200_000)
    census = census_series(samples, 3, 130.0, 30.0)
    want = {k: pytest.approx(np.mean(samples[census == k]), rel=1e-12) for k in range(4)}
    assert census_current_means(samples, census, 3) == want


def _census_rates_loop(
    census, sample_rate_hz, n_pores, baseline_window_s, max_event_s, merge_gap_s
):
    """census_rates as it was written with a census-long baseline, an int8
    edge diff and a per-dip merge loop; the reference for the array form."""
    stride = max(1, int(sample_rate_hz * 1e-3))
    coarse = census[::stride]
    window = max(1, int(round(baseline_window_s / (stride / sample_rate_hz))))
    if window % 2 == 0:
        window += 1
    if len(coarse) >= window:
        padded = np.pad(coarse, window // 2, mode="edge")
        view = np.lib.stride_tricks.sliding_window_view(padded, window)
        coarse_base = np.median(view, axis=1).astype(census.dtype)
    else:
        coarse_base = np.full_like(coarse, int(np.median(coarse)))
    baseline = np.repeat(coarse_base, stride)[: len(census)]
    dips = census < baseline
    edges = np.diff(dips.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1
    if dips.size and dips[0]:
        starts = np.concatenate(([0], starts))
    if dips.size and dips[-1]:
        ends = np.concatenate((ends, [dips.size]))
    max_samples = max_event_s * sample_rate_hz
    merge_gap = merge_gap_s * sample_rate_hz
    merged = []
    for i0, i1 in zip(starts, ends):
        if merged and i0 - merged[-1][1] < merge_gap:
            merged[-1] = (merged[-1][0], int(i1))
        else:
            merged.append((int(i0), int(i1)))
    counts = {}
    for i0, i1 in merged:
        if i1 - i0 > max_samples:
            continue
        counts[int(baseline[i0])] = counts.get(int(baseline[i0]), 0) + 1
    out = {}
    for k in range(n_pores + 1):
        seconds = float(np.count_nonzero(baseline == k)) / sample_rate_hz
        events = counts.get(k, 0)
        out[k] = reader.CensusRate(events, seconds, events / seconds if seconds > 0 else 0.0)
    return out


# Power-of-two rates make gaps and runs of a whole number of samples land
# exactly on merge_gap and max_event; 5 kHz gives a 5-sample stride.
_RATES = (1024.0, 4096.0, 8192.0, 5000.0)


@st.composite
def _rates_cases(draw):
    n_pores = draw(st.one_of(st.integers(1, 4), st.just(300)))
    rate = draw(st.sampled_from(_RATES))
    stride = max(1, int(rate * 1e-3))
    base = draw(st.integers(1, n_pores))
    # Pieces of a run at ``base + d`` then ``gap`` samples at ``base``: short
    # runs below base are dips, gaps and run lengths of a few samples meet
    # merge_gap and max_event exactly, and long runs shift the baseline.
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(-base, n_pores - base),
                st.one_of(st.integers(1, 8), st.integers(1, 40 * stride)),
                st.integers(0, 8),
            ),
            min_size=1,
            max_size=30,
        )
    )
    census = np.array(
        [v for d, n, gap in pieces for v in [base + d] * n + [base] * gap],
        dtype=np.min_scalar_type(n_pores),
    )
    window_s = draw(st.sampled_from([0.021, 3 * stride / rate, 5 * stride / rate, 0.0]))
    max_event_s = draw(st.integers(0, 12)) / rate
    merge_gap_s = draw(st.integers(0, 6)) / rate
    return census, rate, n_pores, window_s, max_event_s, merge_gap_s


@settings(deadline=None, max_examples=300)
@given(case=_rates_cases())
@example(
    # dips at both ends, a gap of exactly merge_gap, dips of exactly
    # max_event, a partial last stride, a census shorter than the window
    case=(
        np.array([1, 1] + [3] * 20 + [2] * 3 + [3] * 2 + [2] * 3 + [3] * 30 + [2] * 3, np.uint8),
        4096.0, 3, 0.021, 3 / 4096, 2 / 4096,
    )
)
@example(
    case=(
        np.array([2] * 3 + [3] * 40 + [1] * 9 + [3] * 41 + [2] * 2, np.uint8),
        4096.0, 3, 12 / 4096, 9 / 4096, 1 / 4096,
    )
)
@example(
    # a dip across the cut between add and rates, which compares the last
    # two blocks (half the 5-block window), and no merge gap: the merge
    # joins its two pieces, as it joins no two dips a sample apart
    case=(
        np.array([3] * 38 + [2] * 4 + [3] * 6, np.uint8), 4096.0, 3, 20 / 4096, 4 / 4096, 0.0,
    )
)
def test_census_rates_match_merge_loop(case):
    census, rate, n_pores, window_s, max_event_s, merge_gap_s = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reader, "_BASELINE_WINDOW_S", window_s)
        patch.setattr(reader, "_MAX_EVENT_S", max_event_s)
        patch.setattr(reader, "_MERGE_GAP_S", merge_gap_s)
        got = census_rates(census, rate, n_pores)
    want = _census_rates_loop(census, rate, n_pores, window_s, max_event_s, merge_gap_s)
    assert got == want


_CHUNK = poresim._CHUNK


@st.composite
def _stats_cases(draw):
    # The size of the trace's chunks (CurrentTrace.chunks() yields
    # poresim._CHUNK samples), at and around the default.
    chunk = draw(
        st.sampled_from([1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    )
    n_pores = draw(st.one_of(st.integers(1, 8), st.just(300)))
    clogged = draw(st.sampled_from([30.0, 12.5]))
    step = draw(st.sampled_from([100.0, 130.0]))
    top = n_pores * clogged + (n_pores + 1) * step
    halfway = st.integers(-1, n_pores).map(lambda k: n_pores * clogged + (k + 0.5) * step)
    values = draw(
        st.lists(st.one_of(st.floats(0.0, top), halfway), min_size=1, max_size=40)
    )
    lengths = [0, 1, chunk - 1, chunk, chunk + 1]
    if chunk > 100:
        lengths += [2 * chunk + 1, _CHUNK + 1]
    length = draw(st.one_of(st.sampled_from(lengths), st.integers(2, 64)))
    x = np.resize(np.array(values, dtype=np.float64), length)
    return chunk, x, n_pores, clogged + step, clogged


@settings(deadline=None, max_examples=100)
@given(case=_stats_cases())
@example(
    # Long runs of cancelling sums, which a sequential sum gets wrong by
    # more than 1e-12.
    case=(
        _CHUNK - 1, np.resize([153.1781458684767, -52.5], _CHUNK - 2),
        1, 142.5, 12.5,
    )
)
@example(
    # Every state of a uint16 census in each slice: the tally sorts them.
    case=(
        _CHUNK, np.resize(np.linspace(290.0, 610.0, 1001), 2 * _CHUNK + 1),
        300, 2.0, 1.0,
    )
)
def test_census_stats_matches_whole_array_reference(case):
    chunk, x, n_pores, open_pa, clogged_pa = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        stats = census_stats(CurrentTrace(1000.0, x), n_pores, open_pa, clogged_pa)
        summary = trace_stats(
            CurrentTrace(1000.0, x), NO_EVENTS, open_pa, n_pores=n_pores,
            clogged_current_pa=clogged_pa,
        )
        # The census slices of the patched chunk size.
        want = _ref_census_stats(x, chunk, n_pores, open_pa, clogged_pa)
    census = _census_reference(x, n_pores, open_pa, clogged_pa)
    series = census_series(x, n_pores, open_pa, clogged_pa)
    assert series.dtype == np.min_scalar_type(n_pores)
    assert np.array_equal(series, census)
    states, counts = np.unique(census.astype(np.int64), return_counts=True)
    assert stats.state_counts.shape == (n_pores + 1,)
    assert np.flatnonzero(stats.state_counts).tolist() == states.tolist()
    assert stats.state_counts[states].tolist() == counts.tolist()
    assert summary.pore_census_histogram == dict(zip(states.tolist(), counts.tolist()))
    assert stats.n_samples == x.size
    assert np.array_equal(stats.state_counts, want.state_counts)
    assert (stats.current_means, stats.mean_pa) == (want.current_means, want.mean_pa)
    assert stats.rates == want.rates


def _ref_census_stats(x, chunk, n_pores, open_pa, clogged_pa, rate=1000.0):
    """census_stats of x read in chunks of ``chunk`` samples, from
    _census_reference's states and _ref_tally's one reduction per chunk,
    poresim._CHUNK slice and state, added up in the order census_stats
    adds them."""
    census = _census_reference(x, n_pores, open_pa, clogged_pa)
    counts, sums = np.zeros(n_pores + 1, dtype=np.int64), np.zeros(n_pores + 1)
    for start in range(0, x.size, chunk):
        part = slice(start, start + chunk)
        chunk_counts, chunk_sums = _ref_tally(census[part], x[part], n_pores)
        counts += chunk_counts
        sums += chunk_sums
    means = {k: float(sums[k] / counts[k]) for k in np.flatnonzero(counts).tolist()}
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(sums.sum() / x.size) if x.size else 0.0
    return reader.CensusStats(
        x.size / rate, mean, x.size, counts, means,
        census_rates(census.astype(np.min_scalar_type(n_pores)), rate, n_pores),
    )


@pytest.mark.parametrize(
    "n_pores, open_pa, clogged_pa",
    [
        (3, 130.0, 30.0),
        (300, 2.0, 1.0),
        (5, 1e6 + 1e-9, 1e6),  # step 1e-9 on offset 5e6
        (5, 1e6 + 3e-10, 1e6),  # step below half the offset's ulp
        (3, -4e300 / 3 + 1e300, -4e300 / 3),  # offset -4e300
        (3, 1.7e308, 0.0),  # t_2 and t_3 past float64
    ],
)
def test_census_at_exact_thresholds(n_pores, open_pa, clogged_pa):
    """Each threshold is the least float64 of its state by the rounding
    formula, and currents at each threshold, one ulp either side of it,
    half-way between census levels and at the float64 extremes get the
    formula's census, counts and exact sums."""
    t = reader._census_thresholds(n_pores, open_pa, clogged_pa)
    k = np.arange(1, n_pores + 1)
    finite = np.isfinite(t)
    top = np.finfo(np.float64).max
    assert np.all(_census_reference(t[finite], n_pores, open_pa, clogged_pa) >= k[finite])
    below = np.nextafter(t[finite], -np.inf)
    assert np.all(_census_reference(below, n_pores, open_pa, clogged_pa) < k[finite])
    assert np.all(_census_reference(top, n_pores, open_pa, clogged_pa) < k[~finite])
    levels = np.arange(-2, n_pores + 2) + 0.5
    with np.errstate(over="ignore"):
        halfway = n_pores * clogged_pa + levels * (open_pa - clogged_pa)
    x = np.concatenate(
        [t[finite], below, np.nextafter(t[finite], np.inf), halfway[np.isfinite(halfway)]]
    )
    everywhere = np.concatenate([x, [top, -top, 0.0, -0.0]])
    assert np.array_equal(
        census_series(everywhere, n_pores, open_pa, clogged_pa),
        _census_reference(everywhere, n_pores, open_pa, clogged_pa),
    )
    for infinite in (np.inf, -np.inf):
        with pytest.raises(ReaderError, match=f"sample {x.size} is {infinite}, not a finite current"):
            census_series(np.append(x, infinite), n_pores, open_pa, clogged_pa)
    for samples in (x, np.resize(x, 3 * _CHUNK + 5)):
        trace = CurrentTrace(1000.0, samples)
        want = _ref_census_stats(samples, samples.size, n_pores, open_pa, clogged_pa)
        if not np.isfinite(want.mean_pa):
            with pytest.raises(ReaderError, match="sum past the float64 range"):
                census_stats(trace, n_pores, open_pa, clogged_pa)
            continue
        stats = census_stats(trace, n_pores, open_pa, clogged_pa)
        assert np.array_equal(stats.state_counts, want.state_counts)
        assert (stats.current_means, stats.mean_pa) == (want.current_means, want.mean_pa)
        assert stats.rates == want.rates


def test_census_threshold_edge_scales():
    # Thresholds coincide when the step is below half the offset's ulp, and
    # are inf when no float64 reaches their state.
    assert (np.diff(reader._census_thresholds(5, 1e6 + 3e-10, 1e6)) == 0).any()
    assert np.isinf(reader._census_thresholds(3, 1.7e308, 0.0)).tolist() == [False, True, True]


def test_census_thresholds_computed_once_per_pass(monkeypatch):
    calls = []
    thresholds = reader._census_thresholds
    monkeypatch.setattr(
        reader, "_census_thresholds", lambda *args: calls.append(args) or thresholds(*args)
    )
    monkeypatch.setattr(poresim, "_CHUNK", 1000)
    trace = CurrentTrace(RATE, np.resize([250.0, 100.0, 400.0], 10_000))
    census_stats(trace, 3, 130.0, 30.0)
    assert len(calls) == 1
    scheme = RunLengthScheme.from_string("A50C100")
    reader.read_station(trace, 250.0, 5.0, CALIB, scheme, 210.0, n_pores=3)
    assert len(calls) == 2
    trace_stats(trace, NO_EVENTS, 250.0, n_pores=3)
    assert len(calls) == 3


@st.composite
def _chunked_rates_cases(draw):
    """A trace whose census is drawn as _rates_cases draws it, with the
    size of its chunks at and around one stride, ten strides (half the
    baseline window) and the default chunk."""
    census, rate, n_pores, _, _, _ = draw(_rates_cases())
    stride = max(1, int(rate * 1e-3))
    if draw(st.booleans()):
        # Long enough for the rolling baseline, with the drawn census
        # placed anywhere in it.
        pad = draw(st.integers(0, 40 * stride))
        level = census[0]
        census = np.concatenate([np.full(pad, level), census, np.full(30 * stride, level)])
    chunk = draw(
        st.sampled_from([1, 7, _CHUNK - 1, _CHUNK + 1])
        | st.integers(-1, 1).map(lambda d: stride + d)
        | st.integers(-1, 1).map(lambda d: 10 * stride + d)
    )
    return max(1, chunk), census.astype(np.min_scalar_type(n_pores)), rate, n_pores


@settings(deadline=None, max_examples=200)
@given(case=_chunked_rates_cases())
def test_census_stats_rates_match_merge_loop_across_chunk_edges(case):
    chunk, census, rate, n_pores = case
    # Currents that sit exactly on census levels: 30 pA clogged, 130 pA open.
    x = n_pores * 30.0 + census.astype(np.float64) * 100.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        stats = census_stats(CurrentTrace(rate, x), n_pores, 130.0, 30.0)
    assert np.array_equal(census_series(x, n_pores, 130.0, 30.0), census)
    assert stats.rates == _census_rates_loop(census, rate, n_pores, 0.021, 0.01, 50e-6)


@pytest.mark.parametrize("chunk", [40, 4], ids=["whole", "one-stride"])
def test_census_stats_rates_when_the_census_ends_in_a_dip_on_a_block_edge(chunk):
    """With a window of one 4-sample block, each chunk is compared to its
    end, so a census a whole number of blocks long that ends inside a dip
    leaves nothing to compare when the rates are taken: the dip was cut
    at the end of the last comparison, and it counts."""
    census = np.array([3] * 32 + [3, 2, 2, 3] + [3, 2, 2, 2], np.uint8)
    x = 3 * 30.0 + census.astype(np.float64) * 100.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        patch.setattr(reader, "_BASELINE_WINDOW_S", 0.0)
        stats = census_stats(CurrentTrace(4096.0, x), 3, 130.0, 30.0)
    assert stats.rates == _census_rates_loop(census, 4096.0, 3, 0.0, 0.01, 50e-6)
    assert stats.rates[3].events == 2


def test_census_stats_refuses_pore_counts_past_uint16():
    trace = _flat(250.0, 10)
    with pytest.raises(ReaderError, match="n_pores"):
        census_stats(trace, reader.MAX_PORES + 1, 130.0, 30.0)
    assert census_series(trace.samples, reader.MAX_PORES, 130.0, 30.0).dtype == np.uint16
    stats = census_stats(trace, reader.MAX_PORES, 130.0, 30.0)
    assert stats.state_counts.shape == (reader.MAX_PORES + 1,)


# --- stats -------------------------------------------------------------------


def test_trace_stats_zero_events():
    stats = trace_stats(_flat(250.0, 1000), NO_EVENTS, 250.0)
    assert stats.open_fraction == 1.0
    assert stats.total_rate == 0.0
    assert stats.complete_rate == 0.0
    assert stats.duration_blockage_pairs == ()


def test_trace_stats_empty_trace():
    stats = trace_stats(CurrentTrace(RATE, np.empty(0)), NO_EVENTS, 250.0)
    assert stats.open_fraction == 1.0


@pytest.mark.parametrize("fraction", [np.nan, 1.5, 0.0, 1.0])
def test_trace_stats_refuses_threshold_fraction_outside_unit_interval(fraction):
    with pytest.raises(ReaderError, match="threshold_fraction"):
        trace_stats(
            CurrentTrace(RATE, np.full(10, 250.0)), NO_EVENTS, 250.0, threshold_fraction=fraction
        )


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("n_pores", [0, -3, reader.MAX_PORES + 1])
def test_summary_refuses_impossible_pore_counts_before_reading(n, n_pores):
    """An impossible census is refused whether or not the trace holds a
    sample, before any per-state counter is made."""
    trace = _flat(250.0, n)
    scheme = RunLengthScheme.from_string("A50C100")
    with pytest.raises(ReaderError, match="n_pores"):
        trace_stats(trace, NO_EVENTS, 250.0, n_pores=n_pores)
    with pytest.raises(ReaderError, match="n_pores"):
        reader.read_station(trace, 250.0, 5.0, CALIB, scheme, 210.0, n_pores=n_pores)


@pytest.mark.parametrize("n", [0, 1])
def test_summary_refuses_open_current_below_clogged(n):
    trace = _flat(250.0, n)
    scheme = RunLengthScheme.from_string("A50C100")
    with pytest.raises(ReaderError, match="exceed clogged"):
        trace_stats(trace, NO_EVENTS, 20.0, clogged_current_pa=30.0)
    with pytest.raises(ReaderError, match="exceed clogged"):
        reader.read_station(trace, CALIB.clogged_current_pa / 2, 5.0, CALIB, scheme, 210.0)


def _stepped_trace(n=6000):
    """A single-pore trace of rectangular two-level dips with noise, in
    steps of 1/64 pA: every sample is exact in float32 and in 6 decimals."""
    rng = np.random.default_rng(41)
    x = np.full(n, 250.0)
    start = 37
    while start < n - 400:
        first, second = rng.integers(20, 200, size=2)
        x[start : start + first] = 0.37 * 250.0
        x[start + first : start + first + second] = 0.17 * 250.0
        start += first + second + int(rng.integers(5, 300))
    x += rng.normal(0.0, 5.0, n)
    return CurrentTrace(RATE, np.round(x * 64.0) / 64.0)


def _summaries(trace):
    detected = detect_events(trace, 250.0, threshold_fraction=0.75)
    events = EventTable.concatenate(
        [to_translocation_event(d, classify_event(d, 0.02)) for d in detected]
    )
    found = [(d.t_start_s, d.levels.tobytes(), d.sample_rate_hz) for d in detected]
    return found, trace_stats(trace, events, 250.0, 0.75, n_pores=2)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_detect_and_stats_equal_on_every_trace_kind(tmp_path, monkeypatch, chunk):
    """A text and a binary trace, read in chunks that events straddle, give
    the events and summary of the samples held in memory."""
    held = _stepped_trace()
    text, binary = str(tmp_path / "t.txt"), str(tmp_path / "t.bin")
    traceio.write_trace_text(held, text)
    traceio.write_trace_binary(held, binary)
    monkeypatch.setattr(poresim, "_CHUNK", chunk)
    monkeypatch.setattr(traceio, "_BLOCK", 64)
    text_trace, binary_trace = traceio.read_trace(text), traceio.read_trace(binary)
    # A 64-byte block holds under 8 lines of 10 bytes or more.
    assert max(c.size for c in text_trace.chunks()) < max(chunk + 1, 8)
    assert max(c.size for c in binary_trace.chunks()) == chunk
    want = _summaries(CurrentTrace(RATE, binary_trace.samples))
    assert len(want[0]) > 10
    assert np.array_equal(text_trace.samples, held.samples)
    assert _summaries(text_trace) == want
    assert _summaries(binary_trace) == want
    assert _summaries(held) == want


class _CutTrace(poresim.ChunkedTrace):
    """The samples of a trace in the chunks between consecutive ``cuts``;
    a cut given twice makes an empty chunk."""

    def __init__(self, trace, cuts):
        self.sample_rate_hz, self.x, self.cuts = trace.sample_rate_hz, trace.samples, cuts

    def __len__(self):
        return self.x.size

    def chunks(self):
        bounds = [0, *self.cuts, self.x.size]
        return (self.x[a:b] for a, b in zip(bounds, bounds[1:]))


def _read_fields(result):
    fields = [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [f.tobytes() if isinstance(f, np.ndarray) else repr(f) for f in fields]


def test_read_station_refuses_an_entry_direction_without_levels():
    """Each bi-level event that entered 3' end first is refused, as one
    error, by a table that holds no 3' levels; the others decode."""
    config = ChannelConfig(voltage_mv=210.0)
    trace = simulate(MoleculeSpec.from_string("A50C100"), config, 3.0, CALIB, seed=4).trace
    levels = {key: stats for key, stats in CALIB.level_stats.items() if key[1] != "3prime"}
    result = reader.read_station(
        trace, open_current(210.0, 1.0, CALIB), 5.0, CALIB.replace(level_stats=levels),
        RunLengthScheme.from_string("A50C100"), 210.0, threshold_fraction=0.75,
    )
    entered = [reader.ORIENTATIONS[code] for code in result.orientation.tolist()]
    refused = [
        i for i, outcome in enumerate(result.decoded) if isinstance(outcome, ReaderError)
        and str(outcome) == "calibration has no level statistics for this orientation"
    ]
    assert refused == [i for i, o in enumerate(entered) if o is Orientation.THREE_PRIME_FIRST]
    assert refused and Orientation.FIVE_PRIME_FIRST in entered


def test_empty_chunks_change_nothing():
    """An empty chunk first, between two chunks, while an event is held
    open across it, and last gives what the same chunks without it give."""
    held = _stepped_trace()
    below = held.samples < 0.75 * 250.0
    n = below.size
    inside = int(np.argmax(below)) + 5  # an event is open across this cut
    assert below[inside - 1 : inside + 1].all()
    open_edges = np.flatnonzero(~below[:-1] & ~below[1:]) + 1  # no event is open across these
    between = int(open_edges[open_edges > n // 2][0])
    scheme = RunLengthScheme.from_string("A50C100")
    results = []
    for cuts in ([inside, between], [0, inside, inside, between, between, n]):
        trace = _CutTrace(held, cuts)
        assert [c.size for c in trace.chunks()].count(0) == len(cuts) - 2
        stats = census_stats(trace, 1, 250.0, 30.0)
        results.append((
            _summaries(trace),
            _read_fields(reader.read_station(trace, 250.0, 5.0, CALIB, scheme, 210.0, 0.75)),
            (stats.n_samples, stats.mean_pa, stats.state_counts.tolist(), stats.current_means,
             stats.rates),
        ))
    assert results[0] == results[1]
    assert len(results[0][0][0]) > 10


def _traced(run):
    """``run()`` and the peak traced allocation it made."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_stats_never_holds_the_float64_trace(tmp_path):
    """trace_stats holds less than the float64 trace, and census_stats and
    read_station hold a few chunks, whatever the trace's length."""
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=1_000_000)
    open_pa = open_current(210.0, 1.0, CALIB)
    scheme = RunLengthScheme.from_string("A50C100")
    for duration in (0.5, 2.0):
        result = simulate(MoleculeSpec.from_string("A50C100"), config, duration, CALIB, seed=3)
        path = str(tmp_path / f"{duration}.bin")
        traceio.write_trace_binary(result.trace, path)
        trace = traceio.read_trace(path)
        for run in (
            lambda: census_stats(trace, 1, open_pa, CALIB.clogged_current_pa),
            lambda: reader.read_station(trace, open_pa, 5.0, CALIB, scheme, 210.0, 0.75),
        ):
            peak = _traced(run)[1]
            # About three float64 chunks at either length.
            assert peak < 4 * 8 * poresim._CHUNK, (duration, peak)
    stats, peak = _traced(lambda: trace_stats(trace, NO_EVENTS, open_pa, 0.75))
    assert sum(stats.pore_census_histogram.values()) == len(trace) == 2_000_000
    # 8 bytes per sample is the float64 trace alone.
    assert peak < 8 * len(trace), peak


def test_to_translocation_event_is_a_one_row_table():
    """Each class packaged as a table row on pore 0, its levels clipped
    into (0, 1)."""
    detected = DetectedEvent(0.25, np.array([0.5, 0.5, 0.25, 0.25]), RATE)
    bilevel = to_translocation_event(
        detected, BiLevel(1.5, -0.1, 2.0, 2.5), Orientation.FIVE_PRIME_FIRST
    )
    mono = to_translocation_event(detected, MonoLevel(0.3))
    partial = to_translocation_event(detected, Incomplete())
    assert [t.pore.tolist() for t in (bilevel, mono, partial)] == [[0]] * 3
    assert [t.t_start_s.tolist() for t in (bilevel, mono, partial)] == [[0.25]] * 3
    assert [t.complete.tolist() for t in (bilevel, mono, partial)] == [[True], [True], [False]]
    assert [t.orientation.tolist() for t in (bilevel, mono, partial)] == [[2], [0], [0]]
    assert bilevel.levels.tolist() == [1.0 - 1e-6, 1e-6]
    assert bilevel.durations_us.tolist() == [2.0, 2.5]
    assert (mono.levels.tolist(), mono.durations_us.tolist()) == ([0.3], [4.0])
    assert (partial.levels.tolist(), partial.durations_us.tolist()) == ([0.375], [4.0])


def test_trace_stats_rate_identity_and_pairs():
    events = EventTable.from_columns(
        [0, 0, 0], [0.0, 0.001, 0.002], [True, False, False], [0, 0, 0], [1, 1, 1],
        [0.3, 0.5, 0.4], [100.0, 30.0, 60.0],
    )
    stats = trace_stats(_flat(250.0, 10_000), events, 250.0)
    assert stats.total_rate == stats.complete_rate + stats.partial_rate
    assert len(stats.duration_blockage_pairs) == len(events)
    assert stats.duration_blockage_pairs[0][1] == pytest.approx(70.0)


def _fig10_calibration():
    return CALIB.replace(
        iv_points=(
            (-210.0, -200.0), (0.0, 0.0), (90.0, 90.0), (150.0, 130.0), (210.0, 250.0)
        )
    )


def test_three_pore_total_rate_near_fig10():
    # all pores open: dips below the 3->2 census midpoint are events
    calib = _fig10_calibration()
    config = ChannelConfig(voltage_mv=150.0, n_pores=3, sample_rate_hz=250_000)
    result = simulate(MoleculeSpec.from_string("(AC)60"), config, 30.0, calib, seed=303)
    open_total = 3 * 130.0
    threshold = (open_total + 290.0) / 2.0 / open_total
    detected = detect_events(
        result.trace, open_total, threshold_fraction=threshold, min_duration_us=8.0
    )
    total_rate = len(detected) / 30.0
    assert total_rate == pytest.approx(3 * capture_rate(150.0, calib), rel=0.10)
    assert total_rate == pytest.approx(31.8, rel=0.10)


def test_complete_partial_split_matches_calibrated_fractions():
    # single pore so levels normalize against one open channel
    calib = _fig10_calibration()
    config = ChannelConfig(voltage_mv=150.0, sample_rate_hz=250_000)
    molecule = MoleculeSpec.from_string("(AC)60")
    result = simulate(molecule, config, 60.0, calib, seed=77)
    open_pa = open_current(150.0, 1.0, calib)
    detected = detect_events(result.trace, open_pa, threshold_fraction=0.75, min_duration_us=8.0)
    floor = complete_duration_floor_us(150.0, molecule.total_bases, calib)
    events = EventTable.concatenate([
        to_translocation_event(d, classify_event(d, 5.0 / open_pa, 20.0, floor))
        for d in detected
    ])
    stats = trace_stats(result.trace, events, open_pa, 0.75)
    # complete:partial rate ratio tracks 12.6:19.2
    assert stats.complete_rate / stats.partial_rate == pytest.approx(
        12.6 / 19.2, rel=0.15
    )
    assert stats.total_rate == pytest.approx(capture_rate(150.0, calib), rel=0.10)

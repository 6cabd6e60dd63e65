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
    MoleculeSpec,
    Orientation,
    Substate,
    TranslocationEvent,
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
    truth = [
        e for _, e in result.events
        if e.complete and max(s.level for s in e.substates) <= 0.4
    ]
    assert truth
    matched = sum(
        1 for e in truth if np.min(np.abs(starts - e.t_start_s)) <= 10e-6
    )
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


def _event(substates, orientation=Orientation.UNKNOWN, complete=True):
    return TranslocationEvent(
        0.0, tuple(Substate(*s) for s in substates), complete, orientation
    )


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
    """The census as five full-size temporaries computed it."""
    return np.clip(np.rint((x - n_pores * clogged_pa) / (open_pa - clogged_pa)), 0, n_pores)


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
    chunk = reader._CENSUS_CHUNK
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


def test_census_series_needs_a_pore():
    for n_pores in (0, -1):
        with pytest.raises(ReaderError):
            census_series(np.full(4, 250.0), n_pores, 130.0, 30.0)


@settings(deadline=None)
@given(case=_census_cases())
def test_census_counts_match_unique(case):
    x, n_pores, open_pa, clogged_pa = case
    census = census_series(x, n_pores, open_pa, clogged_pa)
    counts, sums = reader._census_tally(census, x, n_pores)
    assert counts.shape == sums.shape == (n_pores + 1,)
    states, expected = np.unique(census, return_counts=True)
    assert np.flatnonzero(counts).tolist() == states.tolist()
    assert counts[states].tolist() == expected.tolist()
    for k in range(n_pores + 1):
        # Summed in another order than x[census == k].sum(): each may round
        # differently, relative to the sum of the magnitudes.
        in_state = x[census == k]
        assert abs(sums[k] - in_state.sum()) <= 1e-12 * np.abs(in_state).sum()


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
def test_census_rates_match_merge_loop(case):
    census, rate, n_pores, window_s, max_event_s, merge_gap_s = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reader, "_BASELINE_WINDOW_S", window_s)
        patch.setattr(reader, "_MAX_EVENT_S", max_event_s)
        patch.setattr(reader, "_MERGE_GAP_S", merge_gap_s)
        got = census_rates(census, rate, n_pores)
    want = _census_rates_loop(census, rate, n_pores, window_s, max_event_s, merge_gap_s)
    assert got == want


_CENSUS_CHUNK = reader._CENSUS_CHUNK


@st.composite
def _stats_cases(draw):
    # The size of the trace's chunks (CurrentTrace.chunks() yields
    # poresim._CHUNK samples), at and around census_series' own chunk.
    chunk = draw(
        st.sampled_from([1, 7, _CENSUS_CHUNK - 1, _CENSUS_CHUNK, _CENSUS_CHUNK + 1])
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
        lengths += [2 * chunk + 1, _CENSUS_CHUNK + 1]
    length = draw(st.one_of(st.sampled_from(lengths), st.integers(2, 64)))
    x = np.resize(np.array(values, dtype=np.float64), length)
    return chunk, x, n_pores, clogged + step, clogged


@settings(deadline=None, max_examples=100)
@given(case=_stats_cases())
@example(
    # Long runs of cancelling sums, which a sequential sum gets wrong by
    # more than 1e-12.
    case=(
        _CENSUS_CHUNK - 1, np.resize([153.1781458684767, -52.5], _CENSUS_CHUNK - 2),
        1, 142.5, 12.5,
    )
)
def test_census_stats_matches_whole_array_reference(case):
    chunk, x, n_pores, open_pa, clogged_pa = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        stats = census_stats(CurrentTrace(1000.0, x), n_pores, open_pa, clogged_pa)
    census = _census_reference(x, n_pores, open_pa, clogged_pa)
    series = census_series(x, n_pores, open_pa, clogged_pa)
    assert series.dtype == np.min_scalar_type(n_pores)
    assert np.array_equal(series, census)
    states, counts = np.unique(census.astype(np.int64), return_counts=True)
    assert stats.state_counts.shape == (n_pores + 1,)
    assert np.flatnonzero(stats.state_counts).tolist() == states.tolist()
    assert stats.state_counts[states].tolist() == counts.tolist()
    assert stats.n_samples == x.size
    assert stats.mean_pa == (pytest.approx(np.mean(x), rel=1e-12) if x.size else 0.0)
    assert sorted(stats.current_means) == states.tolist()
    for k, mean in stats.current_means.items():
        assert mean == pytest.approx(np.mean(x[census == k]), rel=1e-12)
    assert stats.rates == census_rates(series, 1000.0, n_pores)


@st.composite
def _chunked_rates_cases(draw):
    """A trace whose census is drawn as _rates_cases draws it, with the
    size of its chunks at and around one stride, ten strides (half the
    baseline window) and census_series' own chunk."""
    census, rate, n_pores, _, _, _ = draw(_rates_cases())
    stride = max(1, int(rate * 1e-3))
    if draw(st.booleans()):
        # Long enough for the rolling baseline, with the drawn census
        # placed anywhere in it.
        pad = draw(st.integers(0, 40 * stride))
        level = census[0]
        census = np.concatenate([np.full(pad, level), census, np.full(30 * stride, level)])
    chunk = draw(
        st.sampled_from([1, 7, _CENSUS_CHUNK - 1, _CENSUS_CHUNK + 1])
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


def test_census_stats_refuses_pore_counts_past_uint16():
    trace = _flat(250.0, 10)
    with pytest.raises(ReaderError, match="n_pores"):
        census_stats(trace, reader.MAX_PORES + 1, 130.0, 30.0)
    assert census_series(trace.samples, reader.MAX_PORES, 130.0, 30.0).dtype == np.uint16
    stats = census_stats(trace, reader.MAX_PORES, 130.0, 30.0)
    assert stats.state_counts.shape == (reader.MAX_PORES + 1,)


# --- stats -------------------------------------------------------------------


def test_trace_stats_zero_events():
    stats = trace_stats(_flat(250.0, 1000), [], 250.0)
    assert stats.open_fraction == 1.0
    assert stats.total_rate == 0.0
    assert stats.complete_rate == 0.0
    assert stats.duration_blockage_pairs == ()


def test_trace_stats_empty_trace():
    stats = trace_stats(CurrentTrace(RATE, np.empty(0)), [], 250.0)
    assert stats.open_fraction == 1.0


@pytest.mark.parametrize("fraction", [np.nan, 1.5, 0.0, 1.0])
def test_trace_stats_refuses_threshold_fraction_outside_unit_interval(fraction):
    with pytest.raises(ReaderError, match="threshold_fraction"):
        trace_stats(CurrentTrace(RATE, np.full(10, 250.0)), [], 250.0, threshold_fraction=fraction)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("n_pores", [0, -3, reader.MAX_PORES + 1])
def test_summary_refuses_impossible_pore_counts_before_reading(n, n_pores):
    """An impossible census is refused whether or not the trace holds a
    sample, before any per-state counter is made."""
    trace = _flat(250.0, n)
    scheme = RunLengthScheme.from_string("A50C100")
    with pytest.raises(ReaderError, match="n_pores"):
        trace_stats(trace, [], 250.0, n_pores=n_pores)
    with pytest.raises(ReaderError, match="n_pores"):
        reader.read_station(trace, 250.0, 5.0, CALIB, scheme, 210.0, n_pores=n_pores)


@pytest.mark.parametrize("n", [0, 1])
def test_summary_refuses_open_current_below_clogged(n):
    trace = _flat(250.0, n)
    scheme = RunLengthScheme.from_string("A50C100")
    with pytest.raises(ReaderError, match="exceed clogged"):
        trace_stats(trace, [], 20.0, clogged_current_pa=30.0)
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
    events = [to_translocation_event(d, classify_event(d, 0.02)) for d in detected]
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


def test_trace_stats_never_holds_the_float64_trace(tmp_path):
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=1_000_000)
    result = simulate(MoleculeSpec.from_string("A50C100"), config, 2.0, CALIB, seed=3)
    path = str(tmp_path / "t.bin")
    traceio.write_trace_binary(result.trace, path)
    trace = traceio.read_trace(path)
    open_pa = open_current(210.0, 1.0, CALIB)
    tracemalloc.start()
    try:
        stats = trace_stats(trace, [], open_pa, 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(stats.pore_census_histogram.values()) == len(trace) == 2_000_000
    # 8 bytes per sample is the float64 trace alone.
    assert peak < 8 * len(trace), peak


def test_trace_stats_rate_identity_and_pairs():
    events = [
        _event([(0.3, 100.0)], complete=True),
        _event([(0.5, 30.0)], complete=False),
        _event([(0.4, 60.0)], complete=False),
    ]
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
    events = [
        to_translocation_event(d, classify_event(d, 5.0 / open_pa, 20.0, floor))
        for d in detected
    ]
    stats = trace_stats(result.trace, events, open_pa, 0.75)
    # complete:partial rate ratio tracks 12.6:19.2
    assert stats.complete_rate / stats.partial_rate == pytest.approx(
        12.6 / 19.2, rel=0.15
    )
    assert stats.total_rate == pytest.approx(capture_rate(150.0, calib), rel=0.10)

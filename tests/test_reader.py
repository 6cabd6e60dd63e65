import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstore import reader
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
    classify_event,
    complete_duration_floor_us,
    decode_event,
    detect_events,
    infer_orientation,
    pore_state_census,
    recover_bases,
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
    call = infer_orientation(BiLevel(0.37, 0.17, 100.0, 50.0), CALIB)
    assert call.orientation is Orientation.THREE_PRIME_FIRST
    assert call.depth_consistent is True


def test_orientation_five_prime_first():
    call = infer_orientation(BiLevel(0.12, 0.20, 50.0, 100.0), CALIB)
    assert call.orientation is Orientation.FIVE_PRIME_FIRST
    assert call.depth_consistent is True


def test_orientation_tie_unknown():
    call = infer_orientation(BiLevel(0.25, 0.25, 70.0, 70.0), CALIB)
    assert call.orientation is Orientation.UNKNOWN


def test_orientation_antisymmetric():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = rng.uniform(0.05, 0.6, size=2)
        fwd = infer_orientation(BiLevel(a, b, 50.0, 50.0), CALIB).orientation
        rev = infer_orientation(BiLevel(b, a, 50.0, 50.0), CALIB).orientation
        if fwd is Orientation.UNKNOWN:
            assert rev is Orientation.UNKNOWN
        else:
            assert {fwd, rev} == {
                Orientation.THREE_PRIME_FIRST,
                Orientation.FIVE_PRIME_FIRST,
            }


def test_orientation_depth_inconsistency_annotated():
    # ordering says 3'-first, but depths sit nearer the 5'-first pair
    call = infer_orientation(BiLevel(0.21, 0.115, 100.0, 50.0), CALIB)
    assert call.orientation is Orientation.THREE_PRIME_FIRST
    assert call.depth_consistent is False


# --- base recovery -----------------------------------------------------------


def _event(substates, orientation=Orientation.UNKNOWN, complete=True):
    return TranslocationEvent(
        0.0, tuple(Substate(*s) for s in substates), complete, orientation
    )


def test_recover_bases_three_prime_first():
    event = _event([(0.37, 100.0), (0.17, 50.0)])
    segments = recover_bases(event, Orientation.THREE_PRIME_FIRST, CALIB, 210.0)
    assert segments == [("A", 50), ("C", 100)]


def test_recover_bases_five_prime_first_same_molecule():
    event = _event([(0.17, 50.0), (0.37, 100.0)])
    # same molecule entering the other way: A-segment first in time
    event5 = _event([(0.12, 50.0), (0.20, 100.0)])
    segments = recover_bases(event5, Orientation.FIVE_PRIME_FIRST, CALIB, 210.0)
    assert segments == [("A", 50), ("C", 100)]


def test_recover_bases_voltage_normalizes_counts():
    # at 420 mV dwell halves, so the same counts need half the duration
    event = _event([(0.37, 50.0), (0.17, 25.0)])
    segments = recover_bases(event, Orientation.THREE_PRIME_FIRST, CALIB, 420.0)
    assert segments == [("A", 50), ("C", 100)]


def test_recover_bases_refuses_unknown_orientation():
    with pytest.raises(OrientationUnknownError):
        recover_bases(_event([(0.3, 50.0)]), Orientation.UNKNOWN, CALIB, 210.0)


def test_recover_bases_joint_assignment_keeps_adjacent_distinct():
    # a deep C draw sits nearer the A mean, but adjacent segments cannot
    # both be A; the joint assignment recovers (A, C) anyway
    event = _event([(0.23, 100.0), (0.16, 50.0)])
    segments = recover_bases(event, Orientation.THREE_PRIME_FIRST, CALIB, 210.0)
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


# --- census ------------------------------------------------------------------


@pytest.mark.parametrize("sample,expected", [(400.0, 3), (290.0, 2), (190.0, 1)])
def test_pore_state_census_examples(sample, expected):
    assert pore_state_census(sample, 3, 130.0, 30.0) == expected


def test_pore_state_census_exact_on_quantized_currents():
    for n_pores in range(1, 9):
        for k in range(n_pores + 1):
            current = k * 130.0 + (n_pores - k) * 30.0
            assert pore_state_census(current, n_pores, 130.0, 30.0) == k


def test_census_series_matches_scalar():
    rng = np.random.default_rng(2)
    samples = rng.uniform(0.0, 420.0, 500)
    series = census_series(samples, 3, 130.0, 30.0)
    for sample, k in zip(samples, series):
        assert pore_state_census(sample, 3, 130.0, 30.0) == k


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

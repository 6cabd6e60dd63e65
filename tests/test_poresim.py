import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstore import poresim
from molstore.calibration import CalibrationTable, ChannelConfig, RangeError
from molstore.codec import Nucleotide
from molstore.poresim import (
    MAX_MOLECULE_BASES,
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
    config = ChannelConfig(voltage_mv=voltage)
    rng = np.random.default_rng(seed)
    return [sample_event(MOLECULE, config, CALIB, rng) for _ in range(n)]


def test_sample_event_deterministic():
    config = ChannelConfig(voltage_mv=210.0)
    a = sample_event(MOLECULE, config, CALIB, np.random.default_rng(5))
    b = sample_event(MOLECULE, config, CALIB, np.random.default_rng(5))
    assert a == b


def test_sample_event_requires_positive_voltage():
    with pytest.raises(SimulationError):
        sample_event(MOLECULE, ChannelConfig(voltage_mv=-210.0), CALIB, np.random.default_rng(0))


def test_bilevel_fraction_among_all_events():
    events = _draw(10_000, 210.0)
    frac = sum(1 for e in events if len(e.substates) == 2) / len(events)
    assert frac == pytest.approx(0.29, abs=0.02)


def test_no_bilevel_below_threshold_voltage():
    for voltage in (120.0, 150.0, 180.0):
        events = _draw(3000, voltage)
        assert all(len(e.substates) == 1 for e in events)


def test_incomplete_events_single_shallow_substate():
    events = [e for e in _draw(2000, 210.0) if not e.complete]
    assert events
    for e in events:
        assert len(e.substates) == 1
        assert CALIB.incomplete_level_low <= e.substates[0].level <= CALIB.incomplete_level_high
        assert e.substates[0].duration_us >= CALIB.incomplete_min_duration_us


def test_complete_duration_mean():
    complete = [e for e in _draw(10_000, 210.0) if e.complete]
    mean = np.mean([e.duration_us for e in complete])
    assert mean == pytest.approx(150.0, rel=0.10)


def test_bilevel_orientation_and_levels():
    events = [e for e in _draw(10_000, 210.0) if len(e.substates) == 2]
    three = [e for e in events if e.orientation is Orientation.THREE_PRIME_FIRST]
    assert len(three) / len(events) == pytest.approx(0.75, abs=0.03)
    assert np.mean([e.substates[0].level for e in three]) == pytest.approx(0.37, abs=0.02)
    assert np.mean([e.substates[1].level for e in three]) == pytest.approx(0.17, abs=0.02)
    five = [e for e in events if e.orientation is Orientation.FIVE_PRIME_FIRST]
    assert np.mean([e.substates[0].level for e in five]) == pytest.approx(0.12, abs=0.02)
    assert np.mean([e.substates[1].level for e in five]) == pytest.approx(0.20, abs=0.02)


def test_level_spread_matches_calibration():
    events = [e for e in _draw(10_000, 210.0) if len(e.substates) == 2]
    three_first = [
        e.substates[0].level
        for e in events
        if e.orientation is Orientation.THREE_PRIME_FIRST
    ]
    assert np.std(three_first) == pytest.approx(0.09, rel=0.25)


def test_monolevel_complete_tracks_blockage_table():
    for voltage, blockage in ((90.0, 0.85), (120.0, 0.80), (150.0, 0.75)):
        events = [e for e in _draw(3000, voltage) if e.complete]
        mean_level = np.mean([e.substates[0].level for e in events])
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


def test_pore_streams_independent_of_evaluation_order():
    config = ChannelConfig(voltage_mv=210.0, n_pores=3, sample_rate_hz=100_000)
    result = simulate(MOLECULE, config, 2.0, CALIB, seed=9)
    by_pore = {p: [e for q, e in result.events if q == p] for p in range(3)}
    for pore in (2, 0, 1):  # shuffled evaluation order
        alone = pore_events(MOLECULE, config, CALIB, seed=9, pore=pore, duration_s=2.0)
        assert alone == by_pore[pore]


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


def test_gating_suppresses_events_and_toggles_current():
    config = ChannelConfig(
        voltage_mv=120.0, kcl_molar=2.0, sample_rate_hz=10_000, noise_sigma_pa=0.0
    )
    result = simulate(MOLECULE, config, 2.0, CALIB, seed=40)
    assert result.gating
    assert result.events == ()
    open_pa = open_current(120.0, 2.0, CALIB)
    values = set(np.round(result.trace.samples, 6))
    assert values <= {round(open_pa, 6), round(CALIB.clogged_current_pa, 6)}
    # both states visited
    assert len(values) == 2


def test_events_do_not_overlap_within_pore():
    events = pore_events(MOLECULE, ChannelConfig(voltage_mv=210.0), CALIB, 77, 0, 60.0)
    for first, second in zip(events, events[1:]):
        assert second.t_start_s >= first.t_start_s + first.duration_us * 1e-6


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
            if 0.0 < x < 1.0:
                break
        assert _truncated_normal(bounded, mean, sd) == x
    assert bounded.random() == unbounded.random()


def test_zero_sigma_monolevel_calibration_simulates():
    calib = CALIB.replace(
        monolevel_blockage_points=((90.0, 0.999), (210.0, 0.99)), monolevel_sigma=0.0
    )
    config = ChannelConfig(voltage_mv=90.0, sample_rate_hz=10_000)
    result = simulate(MoleculeSpec.from_string("(AC)60"), config, 10.0, calib, seed=3)
    levels = {e.substates[0].level for _, e in result.events if e.complete}
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
    spans = sorted(
        (e.t_start_s, e.t_start_s + e.duration_us * 1e-6, pore) for pore, e in events
    )
    return any(b[0] < a[1] and b[2] != a[2] for a, b in zip(spans, spans[1:]))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    noise=st.sampled_from([0.0, 5.0]),
    bandwidth=st.sampled_from([None, 10.0]),
    chunk=st.sampled_from([1, 7, 4096, 10**6]),
)
def test_simulate_independent_of_chunk_size(seed, noise, bandwidth, chunk):
    config = ChannelConfig(
        voltage_mv=210.0, sample_rate_hz=100_000, noise_sigma_pa=noise,
        bandwidth_khz=bandwidth, n_pores=3,
    )
    clogs = {0: [(0.004, 0.012)], 2: [(0.01, 0.03)]}
    reference = simulate(MOLECULE, config, 0.03, _BUSY, seed, clogs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        chunked = simulate(MOLECULE, config, 0.03, _BUSY, seed, clogs)
        pieces = [c.size for c in chunked.trace.chunks()]
        samples = chunked.trace.samples
    assert pieces == [min(chunk, 3000 - i) for i in range(0, 3000, chunk)]
    assert samples.tobytes() == reference.trace.samples.tobytes()
    assert chunked.events == reference.events
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

    monkeypatch.setattr(poresim, "_CHUNK", 999)
    config = ChannelConfig(
        voltage_mv=0.0, sample_rate_hz=10_000, noise_sigma_pa=3.0, bandwidth_khz=bandwidth
    )
    samples = simulate(MOLECULE, config, 1.0, CALIB, seed=21).trace.samples
    expected = np.full(10_000, 0.0) + poresim._noise_rng(21).normal(0.0, 3.0, 10_000)
    if bandwidth is not None:
        alpha = 1.0 - math.exp(-2.0 * math.pi * bandwidth * 1e3 / 10_000)
        expected = lfilter([alpha], [1.0, alpha - 1.0], expected)
    assert samples.tobytes() == expected.tobytes()

"""read_station against the per-event read loop it replaced.

The ``_ref_*`` functions below are the per-event reader functions and the
``read`` command's loop as they were before read_station existed, copied
unchanged apart from their names and the event class they made, which is
``_RefEvent`` here.  read_station must reproduce them bit
for bit: event bounds, means, classes, levels, orientations, decoded bits
or refusals, and the summary counts.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass
from typing import NamedTuple, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstore import poresim, reader
from molstore.calibration import CalibrationTable
from molstore.codec import BaseSequence, CodecError, RunLengthScheme, decode_runlength
from molstore.poresim import CurrentTrace, Orientation
from molstore.reader import (
    BiLevel,
    DetectedEvent,
    EventClass,
    Incomplete,
    MonoLevel,
    OrientationUnknownError,
    ReaderError,
    StatsReport,
    census_series,
)
from molstore.codec import Nucleotide

CALIB = CalibrationTable()


# --- reference: the per-event path, unchanged -------------------------------


class _RefEvent(NamedTuple):
    """One event as the per-event path held it: (level, duration_us)
    substates."""

    t_start_s: float
    substates: tuple[tuple[float, float], ...]
    complete: bool
    orientation: Orientation = Orientation.UNKNOWN

    @property
    def duration_us(self) -> float:
        return sum(duration_us for _, duration_us in self.substates)

    @property
    def mean_level(self) -> float:
        return sum(level * duration_us for level, duration_us in self.substates) / self.duration_us


@dataclass(frozen=True)
class OrientationCall:
    """Orientation decision plus a depth-consistency annotation.

    ``depth_consistent`` reports whether the absolute levels sit nearer the
    calibrated pair for the decided orientation than the alternative; the
    ordering rule alone decides the orientation.
    """

    orientation: Orientation
    depth_consistent: bool | None = None


def segments_to_sequence(segments: Sequence[tuple[Nucleotide, int]]) -> BaseSequence:
    return BaseSequence("".join(base.value * count for base, count in segments))


def _ref_detect_events(
    trace: CurrentTrace,
    open_current_pa: float,
    threshold_fraction: float = 0.5,
    min_duration_us: float = 10.0,
) -> list[DetectedEvent]:
    """Maximal runs of samples below threshold_fraction x open current.

    Event boundaries sit at the threshold crossings; runs shorter than
    ``min_duration_us`` are rejected as noise spikes.  Events are disjoint
    and time ordered.  An empty trace yields an empty list.
    """
    if open_current_pa <= 0:
        raise ReaderError("open_current_pa must be > 0")
    if not 0.0 < threshold_fraction < 1.0:
        raise ReaderError("threshold_fraction must be in (0, 1)")
    samples = np.asarray(trace.samples)
    if samples.size == 0:
        return []
    below = samples < threshold_fraction * open_current_pa
    edges = np.diff(below.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1
    if below[0]:
        starts = np.concatenate(([0], starts))
    if below[-1]:
        ends = np.concatenate((ends, [samples.size]))
    rate = trace.sample_rate_hz
    min_samples = min_duration_us * 1e-6 * rate
    out: list[DetectedEvent] = []
    for i0, i1 in zip(starts, ends):
        if i1 - i0 < min_samples:
            continue
        out.append(
            DetectedEvent(
                t_start_s=i0 / rate,
                levels=samples[i0:i1] / open_current_pa,
                sample_rate_hz=rate,
            )
        )
    return out


def _ref_best_split(levels: np.ndarray) -> tuple[int, float, float]:
    """Change point minimizing total within-segment variance, O(n).

    Returns (k, left mean, right mean) where k is the length of the first
    segment, searched exhaustively over 1 <= k <= n-1 via prefix sums.
    """
    n = len(levels)
    s1 = np.cumsum(levels)
    total = s1[-1]
    ks = np.arange(1, n)
    left_mean = s1[:-1] / ks
    right_mean = (total - s1[:-1]) / (n - ks)
    # Minimizing SSE over a two-mean model is equivalent to maximizing the
    # between-segment sum of squares.
    between = ks * left_mean**2 + (n - ks) * right_mean**2
    best = int(np.argmax(between))
    return int(ks[best]), float(left_mean[best]), float(right_mean[best])


def _ref_classify_event(
    event: DetectedEvent,
    noise_sigma_norm: float,
    min_substate_us: float = 20.0,
    complete_floor_us: float = 0.0,
) -> EventClass:
    """Fit one- and two-level models and pick the supported one.

    An event shorter than ``complete_floor_us`` is Incomplete.  Otherwise
    the best single change point (exhaustive search) must separate the two
    segment means by more than 3 x the normalized noise sigma, with both
    segments at least ``min_substate_us`` long, to call BiLevel; anything
    else is MonoLevel at the overall mean.
    """
    if event.duration_us < complete_floor_us:
        return Incomplete()
    levels = event.levels
    n = len(levels)
    rate = event.sample_rate_hz
    if n < 2:
        return MonoLevel(event.mean_level)
    k, mean1, mean2 = _ref_best_split(levels)
    long_enough = (
        k / rate * 1e6 >= min_substate_us
        and (n - k) / rate * 1e6 >= min_substate_us
    )
    if long_enough and abs(mean1 - mean2) > 3.0 * noise_sigma_norm:
        return BiLevel(
            first_level=mean1,
            second_level=mean2,
            first_duration_us=k / rate * 1e6,
            second_duration_us=(n - k) / rate * 1e6,
        )
    return MonoLevel(event.mean_level)


def _ref_clip_level(level: float) -> float:
    return min(max(level, 1e-6), 1.0 - 1e-6)


def _ref_to_translocation_event(
    event: DetectedEvent, cls: EventClass, orientation: Orientation = Orientation.UNKNOWN
) -> _RefEvent:
    """Package a detected event and its classification as a domain event."""
    if isinstance(cls, BiLevel):
        substates = (
            (_ref_clip_level(cls.first_level), cls.first_duration_us),
            (_ref_clip_level(cls.second_level), cls.second_duration_us),
        )
        complete = True
    elif isinstance(cls, MonoLevel):
        substates = ((_ref_clip_level(cls.level), event.duration_us),)
        complete = True
    else:
        substates = ((_ref_clip_level(event.mean_level), event.duration_us),)
        complete = False
    return _RefEvent(
        t_start_s=event.t_start_s,
        substates=substates,
        complete=complete,
        orientation=orientation,
    )


def _ref_infer_orientation(
    cls: BiLevel,
    calib: CalibrationTable,
    tie_tolerance: float = 0.02,
) -> OrientationCall:
    """Decide entry direction for the A-then-C two-segment molecule family.

    The shallower-blocking (C) segment leading in time marks 3'-first
    entry, so first_level > second_level decides ThreePrimeFirst and the
    reverse decides FivePrimeFirst; levels equal within ``tie_tolerance``
    are Unknown.  The absolute depths are also compared against the two
    calibrated level pairs by nearest-pair distance as a consistency
    annotation; the ordering rule alone decides.
    """
    first, second = cls.first_level, cls.second_level
    if abs(first - second) <= tie_tolerance:
        return OrientationCall(Orientation.UNKNOWN, None)
    orientation = (
        Orientation.THREE_PRIME_FIRST
        if first > second
        else Orientation.FIVE_PRIME_FIRST
    )

    consistent: bool | None = None
    three = (calib.level_for("C", "3prime"), calib.level_for("A", "3prime"))
    five = (calib.level_for("A", "5prime"), calib.level_for("C", "5prime"))
    if all(three) and all(five):
        d_three = math.hypot(first - three[0].mean, second - three[1].mean)
        d_five = math.hypot(first - five[0].mean, second - five[1].mean)
        nearest = (
            Orientation.THREE_PRIME_FIRST if d_three <= d_five else Orientation.FIVE_PRIME_FIRST
        )
        consistent = nearest is orientation
    return OrientationCall(orientation, consistent)


def _ref_assign_bases(levels: Sequence[float], means: dict[str, float]) -> list[str]:
    """Minimum total |level - mean| assignment with adjacent bases distinct.

    A recovered molecule is a segment layout, and adjacent segments always
    carry distinct bases, so the assignment is solved jointly under that
    constraint (dynamic program over substates).  Independent per-substate
    nearest-mean would merge adjacent segments whenever one level strays
    toward the other base's mean; the joint assignment fails only when the
    levels misrank the segments.
    """
    bases = list(means)
    n = len(levels)
    cost = {b: abs(levels[0] - means[b]) for b in bases}
    back: list[dict[str, str]] = []
    for level in levels[1:]:
        nxt: dict[str, float] = {}
        arg: dict[str, str] = {}
        for b in bases:
            candidates = [p for p in bases if p != b] or bases
            prev = min(candidates, key=lambda p: cost[p])
            nxt[b] = cost[prev] + abs(level - means[b])
            arg[b] = prev
        cost = nxt
        back.append(arg)
    last = min(bases, key=lambda b: cost[b])
    out = [last]
    for arg in reversed(back):
        out.append(arg[out[-1]])
    out.reverse()
    return out


def _ref_recover_bases(
    event: _RefEvent,
    orientation: Orientation,
    calib: CalibrationTable,
    voltage_mv: float,
) -> list[tuple[Nucleotide, int]]:
    """Map substates back to (base, count) segments, reported 5' to 3'.

    Substates take the bases whose calibrated level means (for the given
    entry direction) lie nearest, assigned jointly so adjacent segments
    stay distinct; counts divide the dwell time by the voltage-scaled
    per-base dwell.  The time order is reversed for 3'-first entry so the
    output always reads 5' to 3'.
    """
    if orientation is Orientation.UNKNOWN:
        raise OrientationUnknownError("cannot recover bases without an entry direction")
    if not event.complete:
        raise ReaderError("base recovery needs a complete event")
    if voltage_mv <= 0:
        raise ReaderError("voltage must be > 0")
    means = {
        base: stats.mean
        for (base, end), stats in calib.level_stats.items()
        if end == orientation.entry_end
    }
    if not means:
        raise ReaderError("calibration has no level statistics for this orientation")
    dwell_us = calib.base_dwell_us * calib.ref_voltage_mv / voltage_mv
    assigned = _ref_assign_bases([level for level, _ in event.substates], means)
    segments: list[tuple[Nucleotide, int]] = []
    for base, (_, duration_us) in zip(assigned, event.substates):
        count = max(1, int(duration_us / dwell_us + 0.5))
        segments.append((Nucleotide(base), count))
    if orientation is Orientation.THREE_PRIME_FIRST:
        segments.reverse()
    return segments


def _ref_decode_event(
    cls: EventClass,
    scheme: RunLengthScheme,
    calib: CalibrationTable,
    voltage_mv: float,
    tolerance: float = 0.45,
    tie_tolerance: float = 0.02,
) -> list[int]:
    """Full per-event pipeline: orient, recover bases, run-length decode.

    Only bi-level classified events carry enough structure to decode; an
    unresolved orientation is refused.  The generous default tolerance
    absorbs dwell-time jitter in the recovered run lengths.
    """
    if not isinstance(cls, BiLevel):
        raise ReaderError("only bi-level events can be decoded against a scheme")
    call = _ref_infer_orientation(cls, calib, tie_tolerance=tie_tolerance)
    if call.orientation is Orientation.UNKNOWN:
        raise OrientationUnknownError("level ordering is a tie; orientation unknown")
    event = _RefEvent(
        t_start_s=0.0,
        substates=(
            (_ref_clip_level(cls.first_level), cls.first_duration_us),
            (_ref_clip_level(cls.second_level), cls.second_duration_us),
        ),
        complete=True,
        orientation=call.orientation,
    )
    segments = _ref_recover_bases(event, call.orientation, calib, voltage_mv)
    return decode_runlength(segments_to_sequence(segments), scheme, tolerance)



def _ref_trace_stats(
    trace: CurrentTrace,
    events: Sequence[_RefEvent],
    open_current_pa: float,
    threshold_fraction: float = 0.5,
    n_pores: int = 1,
    clogged_current_pa: float = 30.0,
) -> StatsReport:
    """Aggregate detected events and census occupancy for one trace."""
    samples = np.asarray(trace.samples)
    if samples.size:
        open_fraction = float(
            np.count_nonzero(samples >= threshold_fraction * open_current_pa)
            / samples.size
        )
        census = census_series(samples, n_pores, open_current_pa, clogged_current_pa)
        histogram = {
            int(k): int(c) for k, c in zip(*np.unique(census, return_counts=True))
        }
    else:
        open_fraction = 1.0
        histogram = {}
    duration = trace.duration_s
    n_complete = sum(1 for e in events if e.complete)
    n_partial = len(events) - n_complete
    complete_rate = n_complete / duration if duration > 0 else 0.0
    partial_rate = n_partial / duration if duration > 0 else 0.0
    pairs = tuple(
        (e.duration_us, 100.0 * (1.0 - e.mean_level)) for e in events
    )
    return StatsReport(
        open_fraction=open_fraction,
        complete_rate=complete_rate,
        partial_rate=partial_rate,
        total_rate=complete_rate + partial_rate,
        duration_blockage_pairs=pairs,
        pore_census_histogram=histogram,
    )


def _reference_read(trace, open_pa, noise_sigma_pa, calib, scheme, voltage_mv,
                    threshold_fraction, min_duration_us, min_substate_us, floor_us,
                    tolerance, n_pores):
    """The read command's loop, recording each event instead of formatting it."""
    noise_norm = noise_sigma_pa / open_pa
    detected = _ref_detect_events(trace, open_pa, threshold_fraction, min_duration_us)
    classes = [
        _ref_classify_event(d, noise_norm, min_substate_us, floor_us)
        for d in detected
    ]
    events = []
    rows = []
    for det, cls in zip(detected, classes):
        orientation = Orientation.UNKNOWN
        outcome = None
        if isinstance(cls, BiLevel):
            orientation = _ref_infer_orientation(cls, calib).orientation
            try:
                outcome = _ref_decode_event(cls, scheme, calib, voltage_mv, tolerance)
            except (CodecError, ReaderError) as exc:
                outcome = exc
        events.append(_ref_to_translocation_event(det, cls, orientation))
        rows.append(
            (det.t_start_s, det.duration_us, det.mean_level, cls, orientation, outcome)
        )
    stats = _ref_trace_stats(
        trace, events, open_pa, threshold_fraction, n_pores, calib.clogged_current_pa
    )
    return rows, stats


# --- cases --------------------------------------------------------------------

# Levels in units of the open current: the calibrated substate levels make
# decodable events, 0.25 runs tie the between-segment sum of squares.
_LEVELS = [0.0, 0.02, 0.04, 0.25, 0.37, 0.17, 0.12, 0.20, 0.5, 0.74, 1.0]
# A level whose samples stay finite but whose 300-sample prefix sum
# overflows to -inf, so the split search meets inf - inf = NaN.
_HUGE = -7e305


@st.composite
def _traces(draw):
    runs = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(_LEVELS),
                    st.floats(-0.5, 1.2, allow_nan=False),
                    # open currents of up to ~300 pores, so a census of
                    # many pores spans many states
                    st.floats(1.0, 320.0),
                ),
                st.one_of(
                    st.integers(1, 3), st.integers(1, 60), st.sampled_from([50, 100, 150])
                ),
            ),
            max_size=24,
        )
    )
    if draw(st.integers(0, 9)) == 0:
        runs.insert(draw(st.integers(0, len(runs))), (_HUGE, 300))
    open_pa = draw(st.sampled_from([256.0, 250.0]))
    values = [level for level, n in runs for _ in range(n)]
    noise = draw(st.sampled_from([0.0, 1e-3, 0.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = np.asarray(values, dtype=np.float64)
    samples = (samples + noise * rng.standard_normal(samples.size)) * open_pa
    rate = draw(st.sampled_from([1e6, 250_000.0, 100_000.0]))
    return CurrentTrace(rate, samples), open_pa


_PARAMS = st.fixed_dictionaries(
    {
        "noise_sigma_pa": st.sampled_from([0.0, 0.001, 1.0, 5.0]),
        "voltage_mv": st.sampled_from([210.0, 105.0, 0.0]),
        "threshold_fraction": st.sampled_from([0.5, 0.75]),
        "min_duration_us": st.sampled_from([0.0, 10.0, 25.0]),
        "min_substate_us": st.sampled_from([0.0, 20.0]),
        "floor_us": st.sampled_from([0.0, 60.0]),
        "tolerance": st.sampled_from([0.45, 0.1]),
        "scheme": st.sampled_from(["A50C100", "A2C3"]),
        "n_pores": st.sampled_from([1, 2, 300]),
    }
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _check_read(trace, open_pa, params, budget):
    args = (
        trace, open_pa, params["noise_sigma_pa"], CALIB,
        RunLengthScheme.from_string(params["scheme"]), params["voltage_mv"],
        params["threshold_fraction"], params["min_duration_us"],
        params["min_substate_us"], params["floor_us"], params["tolerance"],
        params["n_pores"],
    )
    with np.errstate(all="ignore"):
        rows, stats = _reference_read(*args)
        with mock.patch.object(reader, "_BATCH_CELLS", budget):
            result = reader.read_station(*args)

    assert len(result) == len(rows)
    assert _hex(result.t_start_s) == _hex(r[0] for r in rows)
    assert _hex(result.duration_us) == _hex(r[1] for r in rows)
    assert _hex(result.mean_level) == _hex(r[2] for r in rows)
    for i, (_, _, mean, cls, orientation, outcome) in enumerate(rows):
        kind = reader.EVENT_KINDS[result.kind[i]]
        assert kind == type(cls).__name__.lower()
        if isinstance(cls, BiLevel):
            assert _hex([result.first_level[i], result.second_level[i],
                         result.first_duration_us[i], result.second_duration_us[i]]) == _hex(
                [cls.first_level, cls.second_level, cls.first_duration_us,
                 cls.second_duration_us]
            )
        elif isinstance(cls, MonoLevel):
            assert _hex([cls.level]) == _hex([mean])
        assert reader.ORIENTATIONS[result.orientation[i]] is orientation
        got = result.decoded[i]
        if isinstance(outcome, Exception):
            assert type(got) is type(outcome) and str(got) == str(outcome)
        elif outcome is None:
            assert got is None
        else:
            assert list(got) == outcome

    assert _hex([result.open_fraction, result.complete_rate, result.partial_rate,
                 result.total_rate]) == _hex(
        [stats.open_fraction, stats.complete_rate, stats.partial_rate, stats.total_rate]
    )
    assert result.census_histogram == stats.pore_census_histogram
    assert list(result.census_histogram) == sorted(stats.pore_census_histogram)
    assert result.census_histogram == _rounded_census_histogram(
        trace.samples, params["n_pores"], open_pa, CALIB.clogged_current_pa
    )


def _rounded_census_histogram(x, n_pores, open_pa, clogged_pa):
    """The samples in each census state by the rounding formula, in float64
    arithmetic over the whole trace."""
    census = np.clip(np.rint((x - n_pores * clogged_pa) / (open_pa - clogged_pa)), 0, n_pores)
    states, counts = np.unique(census.astype(np.int64), return_counts=True)
    return dict(zip(states.tolist(), counts.tolist()))


@settings(deadline=None, max_examples=300)
@given(
    case=_traces(),
    params=_PARAMS,
    budget=st.sampled_from([1, 2, 7, 64, reader._BATCH_CELLS]),
)
def test_read_station_matches_reference_loop(case, params, budget):
    trace, open_pa = case
    _check_read(trace, open_pa, params, budget)


# Sizes of the chunks CurrentTrace.chunks() yields (poresim._CHUNK): events
# straddle the edges of the small ones, and of 4096 in the longer traces.
_CHUNKS = (1, 7, 4096, 10**6)


def _check_chunked_read(trace, open_pa, params, budget, chunk, held=None):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poresim, "_CHUNK", chunk)
        patch.setattr(reader, "_HELD_CELLS", held or reader._HELD_CELLS)
        _check_read(trace, open_pa, params, budget)


@settings(deadline=None, max_examples=200)
@given(
    case=_traces(),
    params=_PARAMS,
    chunk=st.sampled_from(_CHUNKS),
    held=st.sampled_from([1, 100, None]),
)
def test_read_station_matches_reference_across_chunk_edges(case, params, chunk, held):
    """Events cut at chunk edges, and held event samples classified early
    (``_HELD_CELLS``), give the same result field for field."""
    trace, open_pa = case
    _check_chunked_read(trace, open_pa, params, reader._BATCH_CELLS, chunk, held)


_DEFAULT_PARAMS = {
    "noise_sigma_pa": 5.0, "voltage_mv": 210.0, "threshold_fraction": 0.75,
    "min_duration_us": 10.0, "min_substate_us": 20.0, "floor_us": 60.0,
    "tolerance": 0.45, "scheme": "A50C100", "n_pores": 1,
}


def _station_trace(rng, events):
    """1 MHz trace at 250 pA open current with the given (level, samples)
    segment lists as events, open gaps between them, noise 1 pA."""
    values = [np.full(rng.integers(5, 40), 1.0)]
    for segments in events:
        values.extend(np.full(n, level) for level, n in segments)
        values.append(np.full(rng.integers(1, 40), 1.0))
    samples = np.concatenate(values) * 250.0 + rng.normal(0.0, 1.0, sum(map(len, values)))
    return CurrentTrace(1e6, samples)


_EXACT = dict(
    _DEFAULT_PARAMS, noise_sigma_pa=0.0, min_duration_us=0.0, min_substate_us=0.0,
    floor_us=0.0,
)


@pytest.mark.parametrize(
    "levels,voltage_mv",
    [
        # events of length 1 and 2, touching both trace ends
        ([0.3, 1, 0.2, 0.2, 1, 0.3], 210.0),
        # level pairs exactly 0.02 apart: an orientation tie
        ([1, 0.02, 0.0, 0.0, 1, 0.0, 0.02, 1], 210.0),
        # an exact tie of the between-segment sum of squares at k = 1 and 2
        ([1, 0.125, 0.375, 0.125, 1, 0.25, 0.25, 0.25, 0.25, 1], 210.0),
        # prefix sums overflowing to -inf
        ([1] + [_HUGE] * 300 + [0.3] * 5 + [1] + [0.3] * 5 + [_HUGE] * 300, 210.0),
        # 2 us per base: base counts of exactly 2.5 and 3.5 round half up
        ([1] + [0.37] * 5 + [0.17] * 7 + [1], 105.0),
    ],
    ids=["short-edges", "gap-0.02", "between-tie", "overflow", "half-counts"],
)
def test_read_station_matches_reference_on_exact_levels(levels, voltage_mv):
    trace = CurrentTrace(1e6, np.array(levels, dtype=np.float64) * 256.0)
    for budget in (1, 2, 5, reader._BATCH_CELLS):
        _check_read(trace, 256.0, dict(_EXACT, voltage_mv=voltage_mv), budget)


def test_read_station_matches_reference_on_molecules():
    # Decodable A50C100 events in both orientations, plus events that trip
    # every refusal: ties, misranked levels, wrong lengths, partial events.
    rng = np.random.default_rng(12)
    templates = [
        [(0.37, 100), (0.17, 50)], [(0.12, 50), (0.20, 100)],
        [(0.37, 50), (0.17, 50)], [(0.25, 80), (0.25, 80)], [(0.30, 40)],
        [(0.17, 100), (0.37, 50)], [(0.20, 70), (0.22, 70)], [(0.37, 400), (0.17, 200)],
    ]
    events = [templates[i] for i in rng.integers(0, len(templates), 300)]
    trace = _station_trace(rng, events)
    for budget in (1, 150, 151, 1000, reader._BATCH_CELLS):
        _check_read(trace, 250.0, _DEFAULT_PARAMS, budget)
    for chunk in _CHUNKS:
        _check_chunked_read(trace, 250.0, _DEFAULT_PARAMS, reader._BATCH_CELLS, chunk, 5000)


def test_read_station_one_event_spans_the_trace():
    trace = CurrentTrace(1e6, np.full(20_000, 0.3 * 250.0))
    for budget in (1, 999, reader._BATCH_CELLS):
        _check_read(trace, 250.0, _DEFAULT_PARAMS, budget)
    for chunk in _CHUNKS:
        _check_chunked_read(trace, 250.0, _DEFAULT_PARAMS, reader._BATCH_CELLS, chunk)
    result = reader.read_station(trace, 250.0, 5.0, CALIB,
                                 RunLengthScheme.from_string("A50C100"), 210.0)
    assert result.start.tolist() == [0] and result.length.tolist() == [20_000]


def test_read_station_holds_an_event_as_long_as_the_trace_once():
    """A run open across chunks is grown in place: a trace clogged
    throughout peaks at its 8 bytes per sample plus a chunk's and the
    classification's work arrays.  Pieces joined into a second copy of the
    run would pass twice its size."""
    n = 10**6
    trace = CurrentTrace(1e6, np.full(n, CALIB.clogged_current_pa))
    scheme = RunLengthScheme.from_string("A50C100")
    tracemalloc.start()
    try:
        result = reader.read_station(trace, 250.0, 5.0, CALIB, scheme, 210.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.start.tolist() == [0] and result.length.tolist() == [n]
    assert peak < 1.5 * 8 * n, peak


def test_read_station_parameter_errors():
    trace = CurrentTrace(1e6, np.full(10, 250.0))
    scheme = RunLengthScheme.from_string("A50C100")
    for open_pa, fraction in ((0.0, 0.5), (250.0, 1.0)):
        try:
            reader.read_station(trace, open_pa, 5.0, CALIB, scheme, 210.0, fraction)
        except ReaderError:
            continue
        raise AssertionError("expected ReaderError")


# Levels and means with exact cost ties among them.
_ASSIGN_VALUES = st.one_of(st.sampled_from([0.0, 0.1, 0.12, 0.17, 0.2, 0.25, 0.37]),
                           st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=300)
@given(
    levels=st.lists(st.tuples(_ASSIGN_VALUES, _ASSIGN_VALUES), min_size=1, max_size=6),
    means=st.lists(_ASSIGN_VALUES, min_size=1, max_size=4),
)
def test_assign_bases_matches_reference(levels, means):
    """The two-substate assignment picks what the dynamic program over
    substates picks, ties included, for one to four bases."""
    names = "ACGT"[: len(means)]
    assigned = reader._assign_bases(np.array(levels), np.array(means))
    assert [[names[i] for i in row] for row in assigned.tolist()] == [
        _ref_assign_bases(list(row), dict(zip(names, means))) for row in levels
    ]

"""Trace analysis: event detection, substate classification, orientation
inference, base recovery, and multi-pore census statistics.

The single-pore path finds threshold crossings, fits a one- or two-level
model per event, infers which chemical end entered first from the level
ordering, and converts substate dwell times back into base counts;
read_station runs it for a whole trace on arrays.  The multi-pore path
quantizes total current into a pore census and counts blockade dips per
census baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .calibration import CalibrationTable
from .codec import (
    BaseSequence,
    CodecError,
    Nucleotide,
    RunLengthScheme,
    decode_runlength,
)
from .poresim import (
    CurrentTrace,
    Orientation,
    Substate,
    TranslocationEvent,
    mean_duration,
)


class ReaderError(ValueError):
    """Invalid analysis parameters or impossible request."""


class OrientationUnknownError(ReaderError):
    """Base recovery refused because the entry direction is unresolved."""


@dataclass(frozen=True)
class DetectedEvent:
    """A below-threshold excursion cut from a trace.

    ``levels`` holds the event's samples normalized by the open-channel
    current, so classification works in I_blocked/I_open units.
    """

    t_start_s: float
    levels: np.ndarray
    sample_rate_hz: float

    @property
    def duration_us(self) -> float:
        return len(self.levels) / self.sample_rate_hz * 1e6

    @property
    def mean_level(self) -> float:
        return float(np.mean(self.levels))


@dataclass(frozen=True)
class BiLevel:
    """Two clearly separated substates, in time order."""

    first_level: float
    second_level: float
    first_duration_us: float
    second_duration_us: float


@dataclass(frozen=True)
class MonoLevel:
    level: float


@dataclass(frozen=True)
class Incomplete:
    pass


EventClass = Union[BiLevel, MonoLevel, Incomplete]


@dataclass(frozen=True)
class OrientationCall:
    """Orientation decision plus a depth-consistency annotation.

    ``depth_consistent`` reports whether the absolute levels sit nearer the
    calibrated pair for the decided orientation than the alternative; the
    ordering rule alone decides the orientation.
    """

    orientation: Orientation
    depth_consistent: bool | None = None


def complete_duration_floor_us(
    voltage_mv: float,
    n_bases: int,
    calib: CalibrationTable,
    factor: float = 0.4,
) -> float:
    """Duration below which an event counts as an incomplete translocation."""
    return factor * mean_duration(voltage_mv, n_bases, calib)


def _event_bounds(
    samples: np.ndarray,
    sample_rate_hz: float,
    open_current_pa: float,
    threshold_fraction: float,
    min_duration_us: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Start and end sample of each event detect_events reports."""
    if not 0 < open_current_pa < math.inf:
        raise ReaderError(f"open_current_pa must be finite and > 0, got {open_current_pa}")
    if not 0.0 < threshold_fraction < 1.0:
        raise ReaderError("threshold_fraction must be in (0, 1)")
    below = np.zeros(samples.size + 2, dtype=bool)
    np.less(samples, threshold_fraction * open_current_pa, out=below[1:-1])
    starts, ends = _run_bounds(below)
    keep = ~(ends - starts < min_duration_us * 1e-6 * sample_rate_hz)
    return starts[keep], ends[keep]


def _run_bounds(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end index, into ``padded[1:-1]``, of each maximal run of
    True in it.  ``padded`` is a bool mask with False at both ends, so the
    run edges pair up as (start, end) even for runs touching the ends."""
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def detect_events(
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
    samples = np.asarray(trace.samples)
    rate = trace.sample_rate_hz
    starts, ends = _event_bounds(
        samples, rate, open_current_pa, threshold_fraction, min_duration_us
    )
    return [
        DetectedEvent(i0 / rate, samples[i0:i1] / open_current_pa, rate)
        for i0, i1 in zip(starts.tolist(), ends.tolist())
    ]


# Class codes of the array kernels, in EVENT_KINDS order.
INCOMPLETE, MONOLEVEL, BILEVEL = 0, 1, 2
EVENT_KINDS = ("incomplete", "monolevel", "bilevel")
# Orientation codes of the array kernels index this tuple.
ORIENTATIONS = (
    Orientation.UNKNOWN,
    Orientation.THREE_PRIME_FIRST,
    Orientation.FIVE_PRIME_FIRST,
)
TIE_TOLERANCE = 0.02
# Cells (events x samples) per batch of the classification kernels; bounds
# their float temporaries whatever the event count.  An event longer than
# this is one batch, and the split search walks it in column blocks.
_BATCH_CELLS = 1 << 16


def _best_splits(prefix: np.ndarray) -> np.ndarray:
    """Per row of prefix sums (m x n, n >= 2), the change point k in
    [1, n-1] minimizing total within-segment variance.

    Minimizing SSE over a two-mean model is equivalent to maximizing the
    between-segment sum of squares ``k*left^2 + (n-k)*right^2``; ties go to
    the first k, and a NaN wins as np.argmax has it.
    """
    m, n = prefix.shape
    rows = np.arange(m)
    total = prefix[:, -1:]
    width = max(1, _BATCH_CELLS // m)
    block_best, block_k = [], []
    for c0 in range(0, n - 1, width):
        ks = np.arange(c0 + 1, min(c0 + width, n - 1) + 1, dtype=np.float64)
        head = prefix[:, c0 : c0 + ks.size]
        left = head / ks
        right = total - head
        right /= n - ks
        np.square(left, out=left)
        left *= ks
        np.square(right, out=right)
        right *= n - ks
        left += right
        i = np.argmax(left, axis=1)
        block_best.append(left[rows, i])
        block_k.append(i + (c0 + 1))
    # The first block holding the row's first NaN or first maximum holds it
    # first, so argmax over the block maxima picks the whole row's argmax.
    best = np.argmax(np.stack(block_best, axis=1), axis=1)
    return np.stack(block_k, axis=1)[rows, best]


def _classify_rows(
    levels: np.ndarray,
    sample_rate_hz: float,
    noise_sigma_norm: float,
    min_substate_us: float,
    complete_floor_us: float,
) -> tuple[np.ndarray, ...]:
    """classify_event for equal-length events, one per row of normalized
    samples; overwrites ``levels`` with their prefix sums.

    Returns the mean level, the class code, and the first and second
    substate levels and durations, which are NaN unless the row is BiLevel.
    """
    m, n = levels.shape
    mean = np.add.reduce(levels, axis=1) / n
    kind = np.full(m, MONOLEVEL, dtype=np.int8)
    first, second, first_us, second_us = np.full((4, m), np.nan)
    if n / sample_rate_hz * 1e6 < complete_floor_us:
        kind[:] = INCOMPLETE
    elif n >= 2:
        prefix = np.cumsum(levels, axis=1, out=levels)
        k = _best_splits(prefix)
        at = prefix[np.arange(m), k - 1]
        left = at / k
        right = (prefix[:, -1] - at) / (n - k)
        k_us = k / sample_rate_hz * 1e6
        rest_us = (n - k) / sample_rate_hz * 1e6
        bi = (
            (k_us >= min_substate_us)
            & (rest_us >= min_substate_us)
            & (np.abs(left - right) > 3.0 * noise_sigma_norm)
        )
        kind[bi] = BILEVEL
        first[bi], second[bi], first_us[bi], second_us[bi] = (
            left[bi], right[bi], k_us[bi], rest_us[bi]
        )
    return mean, kind, first, second, first_us, second_us


def classify_event(
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
    levels = np.array(event.levels, dtype=np.float64, ndmin=2)
    mean, kind, first, second, first_us, second_us = (
        a[0].item()
        for a in _classify_rows(
            levels, event.sample_rate_hz, noise_sigma_norm, min_substate_us,
            complete_floor_us,
        )
    )
    if kind == INCOMPLETE:
        return Incomplete()
    if kind == BILEVEL:
        return BiLevel(first, second, first_us, second_us)
    return MonoLevel(mean)


def _clip_levels(levels):
    """Levels held inside (0, 1), as a TranslocationEvent needs them."""
    return np.clip(levels, 1e-6, 1.0 - 1e-6)


def to_translocation_event(
    event: DetectedEvent, cls: EventClass, orientation: Orientation = Orientation.UNKNOWN
) -> TranslocationEvent:
    """Package a detected event and its classification as a domain event."""
    if isinstance(cls, BiLevel):
        substates = (
            Substate(float(_clip_levels(cls.first_level)), cls.first_duration_us),
            Substate(float(_clip_levels(cls.second_level)), cls.second_duration_us),
        )
    else:
        level = cls.level if isinstance(cls, MonoLevel) else event.mean_level
        substates = (Substate(float(_clip_levels(level)), event.duration_us),)
    return TranslocationEvent(
        t_start_s=event.t_start_s,
        substates=substates,
        complete=not isinstance(cls, Incomplete),
        orientation=orientation,
    )


def _orientation_codes(first, second, tie_tolerance: float) -> np.ndarray:
    """ORIENTATIONS index of each bi-level (first, second) level pair."""
    return np.where(
        np.abs(first - second) <= tie_tolerance, 0, np.where(first > second, 1, 2)
    ).astype(np.int8)


def infer_orientation(
    cls: BiLevel,
    calib: CalibrationTable,
    tie_tolerance: float = TIE_TOLERANCE,
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
    orientation = ORIENTATIONS[_orientation_codes(first, second, tie_tolerance)]
    if orientation is Orientation.UNKNOWN:
        return OrientationCall(Orientation.UNKNOWN, None)

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


def _first_min(cost: np.ndarray, candidates: Sequence[int]) -> np.ndarray:
    """Per row, the candidate column ``min(candidates, key=row.__getitem__)``
    picks: the first least cost, and the first candidate if its cost is NaN."""
    rows = np.arange(len(cost))
    best = np.full(len(cost), candidates[0])
    for p in candidates[1:]:
        best = np.where(cost[:, p] < cost[rows, best], p, best)
    return best


def _assign_bases(levels: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Minimum total |level - mean| assignment with adjacent bases distinct.

    ``levels`` holds one event's substate levels per row; the result holds
    the index into ``means`` of each substate's base.  A recovered molecule
    is a segment layout, and adjacent segments always carry distinct bases,
    so the assignment is solved jointly under that constraint (dynamic
    program over substates).  Independent per-substate nearest-mean would
    merge adjacent segments whenever one level strays toward the other
    base's mean; the joint assignment fails only when the levels misrank
    the segments.
    """
    rows = np.arange(len(levels))
    n_bases = len(means)
    cost = np.abs(levels[:, :1] - means)
    back = []
    for column in range(1, levels.shape[1]):
        prev = np.stack(
            [
                _first_min(cost, [p for p in range(n_bases) if p != b] or range(n_bases))
                for b in range(n_bases)
            ],
            axis=1,
        )
        cost = cost[rows[:, None], prev] + np.abs(levels[:, column : column + 1] - means)
        back.append(prev)
    path = [_first_min(cost, range(n_bases))]
    for prev in reversed(back):
        path.append(prev[rows, path[-1]])
    return np.stack(path[::-1], axis=1)


def _segment_layouts(
    levels: np.ndarray,
    durations_us: np.ndarray,
    orientation: Orientation,
    calib: CalibrationTable,
    voltage_mv: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The segments, 5' to 3', of events with equal substate counts, one
    per row: each substate's base, the one whose calibrated level mean for
    the entry direction lies nearest (assigned jointly so adjacent segments
    stay distinct), and count (a float), its dwell over the voltage-scaled
    per-base dwell."""
    if voltage_mv <= 0:
        raise ReaderError("voltage must be > 0")
    if not voltage_mv < math.inf:
        raise ReaderError("voltage must be finite")
    means = {
        base: stats.mean
        for (base, end), stats in calib.level_stats.items()
        if end == orientation.entry_end
    }
    if not means:
        raise ReaderError("calibration has no level statistics for this orientation")
    dwell_us = calib.base_dwell_us * calib.ref_voltage_mv / voltage_mv
    assigned = _assign_bases(levels, np.array(list(means.values())))
    bases = np.array(list(means))[assigned]
    counts = np.maximum(np.trunc(durations_us / dwell_us + 0.5), 1.0)
    if orientation is Orientation.THREE_PRIME_FIRST:
        bases, counts = bases[:, ::-1], counts[:, ::-1]
    return bases, counts


def _segments(bases: Sequence[str], counts: Sequence[float]) -> list[tuple[Nucleotide, int]]:
    return [(Nucleotide(base), int(count)) for base, count in zip(bases, counts)]


def segments_to_sequence(segments: Sequence[tuple[Nucleotide, int]]) -> BaseSequence:
    return BaseSequence("".join(base.value * count for base, count in segments))


Decoded = Union[tuple, CodecError, ReaderError, None]


def _decode_bilevels(
    first: np.ndarray,
    second: np.ndarray,
    first_us: np.ndarray,
    second_us: np.ndarray,
    orientation: np.ndarray,
    scheme: RunLengthScheme,
    calib: CalibrationTable,
    voltage_mv: float,
    tolerance: float,
) -> list[Decoded]:
    """decode_event for bi-level events given as arrays, with their
    ORIENTATIONS codes: the bits of each, or the error that refused it.

    Base recovery runs on the arrays, and decoding once per distinct
    (base, count) layout; events with one layout share its result.
    """
    out: list[Decoded] = [None] * len(first)
    tie = OrientationUnknownError("level ordering is a tie; orientation unknown")
    for i in np.flatnonzero(orientation == 0).tolist():
        out[i] = tie
    memo: dict[tuple, Decoded] = {}
    for code in (1, 2):
        picked = np.flatnonzero(orientation == code)
        if not picked.size:
            continue
        try:
            bases, counts = _segment_layouts(
                _clip_levels(np.stack([first[picked], second[picked]], axis=1)),
                np.stack([first_us[picked], second_us[picked]], axis=1),
                ORIENTATIONS[code], calib, voltage_mv,
            )
        except ReaderError as exc:
            for i in picked.tolist():
                out[i] = exc
            continue
        for i, layout in zip(picked.tolist(), zip(*bases.T.tolist(), *counts.T.tolist())):
            if layout not in memo:
                half = len(layout) // 2
                segments = _segments(layout[:half], layout[half:])
                try:
                    memo[layout] = tuple(
                        decode_runlength(segments_to_sequence(segments), scheme, tolerance)
                    )
                except CodecError as exc:
                    memo[layout] = exc
            out[i] = memo[layout]
    return out


def decode_event(
    cls: EventClass,
    scheme: RunLengthScheme,
    calib: CalibrationTable,
    voltage_mv: float,
    tolerance: float = 0.45,
    tie_tolerance: float = TIE_TOLERANCE,
) -> list[int]:
    """Full per-event pipeline: orient, recover bases, run-length decode.

    Only bi-level classified events carry enough structure to decode; an
    unresolved orientation is refused.  The generous default tolerance
    absorbs dwell-time jitter in the recovered run lengths.
    """
    if not isinstance(cls, BiLevel):
        raise ReaderError("only bi-level events can be decoded against a scheme")
    first, second, first_us, second_us = (
        np.array([x], dtype=np.float64)
        for x in (cls.first_level, cls.second_level, cls.first_duration_us,
                  cls.second_duration_us)
    )
    (outcome,) = _decode_bilevels(
        first, second, first_us, second_us,
        _orientation_codes(first, second, tie_tolerance),
        scheme, calib, voltage_mv, tolerance,
    )
    if isinstance(outcome, Exception):
        raise outcome
    return list(outcome)


# --- the read station ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReadResult:
    """Everything one read of a single-pore trace finds, per event as arrays
    in time order, plus the trace summary.

    ``kind`` indexes EVENT_KINDS and ``orientation`` indexes ORIENTATIONS
    (Unknown unless bi-level); the ``first_*``/``second_*`` substate fields
    are NaN unless the event is bi-level.  ``decoded`` holds, per event,
    the decoded bits, the CodecError or ReaderError that refused a bi-level
    event, or None for an event that is not bi-level.
    """

    sample_rate_hz: float
    start: np.ndarray
    length: np.ndarray
    mean_level: np.ndarray
    kind: np.ndarray
    first_level: np.ndarray
    second_level: np.ndarray
    first_duration_us: np.ndarray
    second_duration_us: np.ndarray
    orientation: np.ndarray
    decoded: tuple[Decoded, ...]
    open_fraction: float
    complete_rate: float
    partial_rate: float
    census_histogram: dict[int, int]

    def __len__(self) -> int:
        return len(self.start)

    @property
    def t_start_s(self) -> np.ndarray:
        return self.start / self.sample_rate_hz

    @property
    def duration_us(self) -> np.ndarray:
        return self.length / self.sample_rate_hz * 1e6

    @property
    def total_rate(self) -> float:
        return self.complete_rate + self.partial_rate


def read_station(
    trace: CurrentTrace,
    open_current_pa: float,
    noise_sigma_pa: float,
    calib: CalibrationTable,
    scheme: RunLengthScheme,
    voltage_mv: float,
    threshold_fraction: float = 0.5,
    min_duration_us: float = 10.0,
    min_substate_us: float = 20.0,
    complete_floor_us: float = 0.0,
    tolerance: float = 0.45,
    n_pores: int = 1,
) -> ReadResult:
    """Detect, classify, orient and decode every event of a trace, and
    summarize it.

    Gives per event what detect_events, classify_event, infer_orientation
    and decode_event give, bit for bit, and the summary trace_stats gives
    for those events, computed on arrays: events of one length are
    classified together in batches of at most ``_BATCH_CELLS`` samples,
    and no float array as long as the trace is made.
    """
    for name, value in (
        ("noise_sigma_pa", noise_sigma_pa),
        ("min_duration_us", min_duration_us),
        ("min_substate_us", min_substate_us),
        ("complete_floor_us", complete_floor_us),
    ):
        if not 0 <= value < math.inf:
            raise ReaderError(f"{name} must be finite and >= 0, got {value}")
    if not 0 <= tolerance < 1:
        raise ReaderError(f"tolerance must be in [0, 1), got {tolerance}")
    if not math.isfinite(voltage_mv):
        raise ReaderError(f"voltage_mv must be finite, got {voltage_mv}")
    samples = np.asarray(trace.samples, dtype=np.float64)
    rate = trace.sample_rate_hz
    starts, ends = _event_bounds(
        samples, rate, open_current_pa, threshold_fraction, min_duration_us
    )
    noise_sigma_norm = noise_sigma_pa / open_current_pa
    lengths = ends - starts
    fields = (mean, kind, first, second, first_us, second_us) = (
        np.empty(len(starts)), np.empty(len(starts), np.int8),
        *np.empty((4, len(starts))),
    )
    order = np.argsort(lengths, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if not group.size:
            continue
        n = int(lengths[group[0]])
        windows = np.lib.stride_tricks.sliding_window_view(samples, n)
        step = max(1, _BATCH_CELLS // n)
        for b in range(0, group.size, step):
            batch = group[b : b + step]
            levels = windows[starts[batch]]
            levels /= open_current_pa
            results = _classify_rows(
                levels, rate, noise_sigma_norm, min_substate_us, complete_floor_us
            )
            for out, result in zip(fields, results):
                out[batch] = result

    orientation = np.zeros(len(starts), dtype=np.int8)
    decoded: list[Decoded] = [None] * len(starts)
    bi = np.flatnonzero(kind == BILEVEL)
    orientation[bi] = _orientation_codes(first[bi], second[bi], TIE_TOLERANCE)
    bi_decoded = _decode_bilevels(
        first[bi], second[bi], first_us[bi], second_us[bi], orientation[bi],
        scheme, calib, voltage_mv, tolerance,
    )
    for i, outcome in zip(bi.tolist(), bi_decoded):
        decoded[i] = outcome

    n_complete = int(np.count_nonzero(kind != INCOMPLETE))
    open_fraction, complete_rate, partial_rate, histogram = _summary(
        samples, trace.duration_s, n_complete, len(starts) - n_complete,
        open_current_pa, threshold_fraction, n_pores, calib.clogged_current_pa,
    )
    return ReadResult(
        rate, starts, lengths, mean, kind, first, second, first_us, second_us,
        orientation, tuple(decoded), open_fraction, complete_rate, partial_rate,
        histogram,
    )


# --- multi-pore census -----------------------------------------------------

# Samples per pass of census_series; keeps its float temporaries in cache.
_CENSUS_CHUNK = 1 << 16
# The most pores a census holds: its largest state fits a uint16.
MAX_PORES = np.iinfo(np.uint16).max


def _census_scale(
    n_pores: int, open_current_pa: float, clogged_current_pa: float
) -> tuple[float, float]:
    """The current of census state 0 and the current one more open pore adds."""
    if not 1 <= n_pores <= MAX_PORES:
        raise ReaderError(f"n_pores must be in [1, {MAX_PORES}], got {n_pores}")
    if not (math.isfinite(open_current_pa) and math.isfinite(clogged_current_pa)):
        raise ReaderError(
            f"open and clogged currents must be finite, got {open_current_pa} "
            f"and {clogged_current_pa}"
        )
    step = open_current_pa - clogged_current_pa
    if step <= 0:
        raise ReaderError("open current must exceed clogged current")
    return n_pores * clogged_current_pa, step


def census_series(
    samples: np.ndarray,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> np.ndarray:
    """Per-sample census: the number of open pores k whose quantized total
    current ``k*open + (n_pores-k)*clogged`` sits nearest, in the smallest
    unsigned dtype that holds ``n_pores``; one pass over the samples in
    chunks of ``_CENSUS_CHUNK``."""
    offset, step = _census_scale(n_pores, open_current_pa, clogged_current_pa)
    samples = np.asarray(samples)
    census = np.empty(samples.shape, dtype=np.min_scalar_type(n_pores))
    for start in range(0, samples.size, _CENSUS_CHUNK):
        raw = (samples[start : start + _CENSUS_CHUNK] - offset) / step
        np.rint(raw, out=raw)
        np.clip(raw, 0, n_pores, out=raw)
        census[start : start + _CENSUS_CHUNK] = raw
    return census


def _census_tally(
    census: np.ndarray, samples: np.ndarray, n_pores: int
) -> tuple[np.ndarray, np.ndarray]:
    """Samples in each census state 0..n_pores and their sum, in one pass
    over chunks of ``_CENSUS_CHUNK``; states above ``n_pores`` are skipped.

    A census is piecewise constant, so most chunks span a few states; those
    take one mask per state, which costs less than sorting for up to about
    eight states, and a wider chunk is sorted by state.  Each state's
    samples in a chunk are summed pairwise, as ``np.sum`` sums an array.
    """
    counts = np.zeros(n_pores + 1, dtype=np.int64)
    sums = np.zeros(n_pores + 1)
    for start in range(0, census.size, _CENSUS_CHUNK):
        chunk = census[start : start + _CENSUS_CHUNK]
        values = samples[start : start + _CENSUS_CHUNK]
        lo, hi = int(chunk.min()), int(chunk.max())
        if lo == hi <= n_pores:
            counts[lo] += chunk.size
            sums[lo] += np.add.reduce(values)
        elif hi - lo < 8:
            for k in range(lo, min(hi, n_pores) + 1):
                in_state = chunk == k
                counts[k] += np.count_nonzero(in_state)
                sums[k] += np.add.reduce(values[in_state])
        else:
            order = np.argsort(chunk, kind="stable")
            states = chunk[order]
            firsts = np.flatnonzero(np.r_[True, states[1:] != states[:-1]])
            present = states[firsts]
            keep = present <= n_pores
            counts[present[keep]] += np.diff(firsts, append=chunk.size)[keep]
            sums[present[keep]] += np.add.reduceat(values[order], firsts)[keep]
    return counts, sums


def _state_means(counts: np.ndarray, sums: np.ndarray) -> dict[int, float]:
    return {k: float(sums[k] / counts[k]) for k in np.flatnonzero(counts).tolist()}


@dataclass(frozen=True)
class CensusRate:
    events: int
    seconds: float
    rate_per_s: float


def census_rates(
    census: np.ndarray,
    sample_rate_hz: float,
    n_pores: int,
    baseline_window_s: float = 0.021,
    max_event_s: float = 0.01,
    merge_gap_s: float = 50e-6,
) -> dict[int, CensusRate]:
    """Blockade rates split by how many pores the baseline shows open.

    ``census`` is the trace's census_series.  The baseline census is a
    rolling median over ``baseline_window_s`` of a 1 ms decimated census
    (blockades occupy well under a percent of any window, persistent clogs
    shift the median), held for the 1 ms block each decimated sample
    starts.  Each maximal run of below-baseline census lasting at most
    ``max_event_s`` counts as one event attributed to the baseline at its
    start; longer excursions are baseline shifts, not events.  Dips
    separated by less than ``merge_gap_s`` merge into one event, since a
    blockade sitting near a census midpoint can flicker across it within a
    single passage.  An empty trace has no baseline and gives an empty dict.
    """
    if census.size == 0:
        return {}
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

    # Dips: census below its block's baseline, compared block by block; the
    # last block may be partial.
    dips = np.zeros(census.size + 2, dtype=bool)
    whole = census.size - census.size % stride
    np.less(
        census[:whole].reshape(-1, stride),
        coarse_base[: whole // stride, None],
        out=dips[1 : whole + 1].reshape(-1, stride),
    )
    np.less(census[whole:], coarse_base[-1], out=dips[whole + 1 : -1])
    starts, ends = _run_bounds(dips)
    # A dip joins the one before it when the gap between them is shorter
    # than merge_gap; each merged run keeps its first start and last end.
    split = starts[1:] - ends[:-1] >= merge_gap_s * sample_rate_hz
    first = np.ones(starts.size, dtype=bool)
    first[1:] = split
    last = np.ones(starts.size, dtype=bool)
    last[:-1] = split
    run_starts, run_ends = starts[first], ends[last]
    is_event = ~(run_ends - run_starts > max_event_s * sample_rate_hz)
    events = np.bincount(
        coarse_base[run_starts[is_event] // stride], minlength=n_pores + 1
    )
    # Samples under each baseline state: whole blocks, less the part of the
    # last block past the end of the census.
    held = np.bincount(coarse_base, minlength=n_pores + 1) * stride
    held[coarse_base[-1]] -= coarse_base.size * stride - census.size
    out: dict[int, CensusRate] = {}
    for k, (n_events, n_samples) in enumerate(
        zip(events[: n_pores + 1].tolist(), held[: n_pores + 1].tolist())
    ):
        seconds = float(n_samples) / sample_rate_hz
        out[k] = CensusRate(n_events, seconds, n_events / seconds if seconds > 0 else 0.0)
    return out


def census_current_means(
    samples: np.ndarray, census: np.ndarray, n_pores: int
) -> dict[int, float]:
    """Mean measured current of the samples assigned to each census state
    present; ``census`` is the samples' census_series."""
    return _state_means(*_census_tally(census, np.asarray(samples), n_pores))


@dataclass(frozen=True, eq=False)
class CensusStats:
    """The census statistics of one trace: its census_series, the samples
    in each census state 0..n_pores, the mean current of the trace and of
    each state present (as census_current_means gives it) and census_rates.
    """

    duration_s: float
    mean_pa: float
    census: np.ndarray
    state_counts: np.ndarray
    current_means: dict[int, float]
    rates: dict[int, CensusRate]

    @property
    def n_samples(self) -> int:
        return self.census.size


def census_stats(
    trace,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> CensusStats:
    """Census statistics of a trace in one pass over ``trace.chunks()``.

    Each chunk's census_series goes into one census array and its samples
    into a count and a sum per census state; the means come from those,
    and census_rates runs on the census.  No float array as long as the
    trace is made.  ``mean_pa`` of an empty trace is 0.
    """
    _census_scale(n_pores, open_current_pa, clogged_current_pa)
    census = np.empty(len(trace), dtype=np.min_scalar_type(n_pores))
    counts = np.zeros(n_pores + 1, dtype=np.int64)
    sums = np.zeros(n_pores + 1)
    start = 0
    for chunk in trace.chunks():
        part = census[start : start + chunk.size]
        part[:] = census_series(chunk, n_pores, open_current_pa, clogged_current_pa)
        chunk_counts, chunk_sums = _census_tally(part, chunk, n_pores)
        counts += chunk_counts
        sums += chunk_sums
        start += chunk.size
    return CensusStats(
        duration_s=trace.duration_s,
        mean_pa=float(sums.sum() / census.size) if census.size else 0.0,
        census=census,
        state_counts=counts,
        current_means=_state_means(counts, sums),
        rates=census_rates(census, trace.sample_rate_hz, n_pores),
    )


# --- summary statistics ----------------------------------------------------


@dataclass(frozen=True)
class StatsReport:
    """Per-trace summary mirroring the translocation-statistics figures."""

    open_fraction: float
    complete_rate: float
    partial_rate: float
    total_rate: float
    duration_blockage_pairs: tuple[tuple[float, float], ...]
    pore_census_histogram: dict[int, int]


def _summary(
    samples: np.ndarray,
    duration_s: float,
    n_complete: int,
    n_partial: int,
    open_current_pa: float,
    threshold_fraction: float,
    n_pores: int,
    clogged_current_pa: float,
) -> tuple[float, float, float, dict[int, int]]:
    """Open fraction, complete and partial event rates, census histogram."""
    if samples.size:
        open_fraction = float(
            np.count_nonzero(samples >= threshold_fraction * open_current_pa)
            / samples.size
        )
        census = census_series(samples, n_pores, open_current_pa, clogged_current_pa)
        counts, _ = _census_tally(census, samples, n_pores)
        histogram = {k: int(counts[k]) for k in np.flatnonzero(counts).tolist()}
    else:
        open_fraction = 1.0
        histogram = {}
    complete_rate = n_complete / duration_s if duration_s > 0 else 0.0
    partial_rate = n_partial / duration_s if duration_s > 0 else 0.0
    return open_fraction, complete_rate, partial_rate, histogram


def trace_stats(
    trace: CurrentTrace,
    events: Sequence[TranslocationEvent],
    open_current_pa: float,
    threshold_fraction: float = 0.5,
    n_pores: int = 1,
    clogged_current_pa: float = 30.0,
) -> StatsReport:
    """Aggregate detected events and census occupancy for one trace."""
    n_complete = sum(1 for e in events if e.complete)
    open_fraction, complete_rate, partial_rate, histogram = _summary(
        np.asarray(trace.samples), trace.duration_s, n_complete,
        len(events) - n_complete, open_current_pa, threshold_fraction, n_pores,
        clogged_current_pa,
    )
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

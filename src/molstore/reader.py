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
from typing import Iterable, Iterator, Union

import numpy as np

from . import poresim
from .calibration import MAX_PORES, CalibrationTable
from .codec import CodecError, RunLengthScheme, bit_runs
from .poresim import (
    MAX_MOLECULE_BASES,
    ORIENTATIONS,
    ChunkedTrace,
    CurrentTrace,
    EventTable,
    Orientation,
    mean_duration,
)


class ReaderError(ValueError):
    """Invalid analysis parameters or impossible request."""

    category = "param"


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


def complete_duration_floor_us(voltage_mv: float, n_bases: int, calib: CalibrationTable) -> float:
    """Duration below which an event counts as an incomplete translocation:
    0.4 of the mean translocation duration."""
    return 0.4 * mean_duration(voltage_mv, n_bases, calib)


def _detection_threshold(open_current_pa: float, threshold_fraction: float) -> float:
    """The current below which a sample lies inside an event."""
    if not 0 < open_current_pa < math.inf:
        raise ReaderError(f"open_current_pa must be finite and > 0, got {open_current_pa}")
    if not 0.0 < threshold_fraction < 1.0:
        raise ReaderError("threshold_fraction must be in (0, 1)")
    return threshold_fraction * open_current_pa


def _check_voltage(voltage_mv: float, calib: CalibrationTable) -> None:
    """Refuse a bias outside the calibration's IV table: nothing is
    calibrated there, and a huge bias shrinks the per-base dwell until base
    counts overflow."""
    low, high = calib.iv_points[0][0], calib.iv_points[-1][0]
    if not low <= voltage_mv <= high:
        raise ReaderError(
            f"voltage_mv: {voltage_mv:g} outside tabulated range [{low:g}, {high:g}]"
        )


def _event_runs(
    chunks: Iterable[np.ndarray], threshold: float, min_samples: float
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, tuple[int, np.ndarray] | None]]:
    """The events detect_events reports, cut from consecutive chunks of a
    trace: maximal runs of samples below ``threshold``, kept unless shorter
    than ``min_samples``.

    Yields ``(offset, chunk, starts, ends, carried)`` per chunk: the
    chunk's first sample index, the chunk, the bounds into it of the events
    that lie wholly inside it, and ``(start, samples)`` of an event that
    began in an earlier chunk and ends in this one (it precedes the
    others), or None.  Between chunks only a run still open at a chunk's
    end is held, with its start: one array grown in place chunk by chunk
    until the run ends, when that array becomes its ``samples``, the
    caller's to keep.  One open at the trace's end comes last, with an
    empty chunk.
    """
    held = np.empty(0)  # the run open at the last chunk's end, if any
    held_start = offset = 0
    empty = np.empty(0, dtype=np.intp)
    for chunk in chunks:
        below = np.empty(chunk.size + 2, bool)
        below[0], below[-1] = held.size > 0, False
        np.less(chunk, threshold, out=below[1:-1])
        edges = _run_edges(below)
        carried = None
        if held.size:
            if edges[0] == chunk.size:  # the held run goes on past this chunk
                _extend(held, chunk)
                yield offset, chunk, empty, empty, None
                offset += chunk.size
                continue
            _extend(held, chunk[: edges[0]])
            if not held.size < min_samples:
                carried = held_start, held
            held = np.empty(0)
            edges = edges[1:]
        starts, ends = edges[0::2], edges[1::2]
        if below[-2]:  # a run still open at the chunk's end
            held_start = offset + int(starts[-1])
            held = chunk[starts[-1] :].copy()
            starts, ends = starts[:-1], ends[:-1]
        keep = ~(ends - starts < min_samples)
        yield offset, chunk, starts[keep], ends[keep], carried
        offset += chunk.size
    if held.size and not held.size < min_samples:
        yield offset, np.empty(0), empty, empty, (held_start, held)


def _extend(held: np.ndarray, piece: np.ndarray) -> None:
    """Append ``piece`` to ``held`` in place; ``held`` owns its data and no
    view of it exists.  ``resize`` reallocates, which moves a large array's
    pages without copying them, so what is grown is held once, never beside
    a joined or grown copy of itself.  A run stays one contiguous row, whose
    pairwise sums ``_classify_rows`` takes as for an event inside a chunk."""
    size = held.size
    held.resize(size + piece.size, refcheck=False)
    held[size:] = piece


def _run_edges(padded: np.ndarray) -> np.ndarray:
    """Indices, into ``padded[1:-1]``, at which ``padded[1:]`` changes: the
    start and end of each maximal run of True in it, paired when
    ``padded`` is False at both ends."""
    return np.flatnonzero(padded[1:] != padded[:-1])


def detect_events(
    trace: CurrentTrace | ChunkedTrace,
    open_current_pa: float,
    threshold_fraction: float = 0.5,
    min_duration_us: float = 10.0,
) -> list[DetectedEvent]:
    """Maximal runs of samples below threshold_fraction x open current.

    Event boundaries sit at the threshold crossings; runs shorter than
    ``min_duration_us`` are rejected as noise spikes.  Events are disjoint
    and time ordered.  An empty trace yields an empty list.  One pass over
    ``trace.chunks()``, as read_station makes.
    """
    rate = trace.sample_rate_hz
    threshold = _detection_threshold(open_current_pa, threshold_fraction)
    events = []
    for offset, chunk, starts, ends, carried in _event_runs(
        trace.chunks(), threshold, min_duration_us * 1e-6 * rate
    ):
        if carried is not None:
            start, samples = carried
            events.append(DetectedEvent(start / rate, samples / open_current_pa, rate))
        events.extend(
            DetectedEvent((offset + i0) / rate, chunk[i0:i1] / open_current_pa, rate)
            for i0, i1 in zip(starts.tolist(), ends.tolist())
        )
    return events


# Class codes of the array kernels, in EVENT_KINDS order.
INCOMPLETE, MONOLEVEL, BILEVEL = 0, 1, 2
EVENT_KINDS = ("incomplete", "monolevel", "bilevel")
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


@np.errstate(over="ignore", invalid="ignore")
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
    Levels whose sums or squares pass the float64 range give infinite or
    NaN fits, without a warning; the split search then picks as its
    argmax does.
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
    """Levels held inside (0, 1), as an EventTable needs them."""
    return np.clip(levels, 1e-6, 1.0 - 1e-6)


def to_translocation_event(
    event: DetectedEvent, cls: EventClass, orientation: Orientation = Orientation.UNKNOWN
) -> EventTable:
    """Package a detected event and its classification as a one-row table."""
    if isinstance(cls, BiLevel):
        levels = [cls.first_level, cls.second_level]
        durations = [cls.first_duration_us, cls.second_duration_us]
    else:
        levels = [cls.level if isinstance(cls, MonoLevel) else event.mean_level]
        durations = [event.duration_us]
    return EventTable.from_columns(
        [0], [event.t_start_s], [not isinstance(cls, Incomplete)],
        [ORIENTATIONS.index(orientation)], [len(levels)], _clip_levels(levels), durations,
    )


def _orientation_codes(first, second) -> np.ndarray:
    """ORIENTATIONS index of each bi-level (first, second) level pair."""
    return np.where(
        np.abs(first - second) <= TIE_TOLERANCE, 0, np.where(first > second, 1, 2)
    ).astype(np.int8)


def infer_orientation(cls: BiLevel) -> Orientation:
    """Decide entry direction for the A-then-C two-segment molecule family.

    The shallower-blocking (C) segment leading in time marks 3'-first
    entry, so first_level > second_level decides ThreePrimeFirst and the
    reverse decides FivePrimeFirst; levels equal within ``TIE_TOLERANCE``
    are Unknown.
    """
    return ORIENTATIONS[_orientation_codes(cls.first_level, cls.second_level)]


def _assign_bases(levels: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Minimum total |level - mean| assignment of two substates' bases,
    with the two distinct.

    ``levels`` holds one event's first and second substate levels per row;
    the result holds the index into ``means`` of each substate's base.  A
    recovered molecule is a segment layout, and adjacent segments always
    carry distinct bases, so the pair is assigned jointly: each second base
    takes the least-cost first base among the others (the only base, when
    there is one), and the pair of least total cost wins, the first on a
    tie.  Independent per-substate nearest-mean would merge the segments
    whenever one level strays toward the other base's mean; the joint
    assignment fails only when the levels misrank the segments.
    """
    first, second = np.abs(levels[:, :, None] - means).transpose(1, 0, 2)
    # prev[row, b]: the first base paired with second base b.
    prev = np.argmin(np.where(np.eye(len(means), dtype=bool), np.inf, first[:, None, :]), axis=2)
    last = np.argmin(np.take_along_axis(first, prev, axis=1) + second, axis=1)
    return np.stack([prev[np.arange(len(levels)), last], last], axis=1)


def _segment_layouts(
    levels: np.ndarray,
    durations_us: np.ndarray,
    orientation: Orientation,
    calib: CalibrationTable,
    voltage_mv: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The two segments, 5' to 3', of bi-level events, one per row: each
    substate's base, the one whose calibrated level mean for the entry
    direction lies nearest (assigned jointly so the two stay distinct), and
    count (a float), its dwell over the voltage-scaled per-base dwell."""
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
    assigned = _assign_bases(levels, np.array(list(means.values())))
    bases = np.array(list(means))[assigned]
    # A per-base dwell that is tiny, or 0 by underflow, gives an infinite
    # count, which _decode_bilevels refuses per event.
    with np.errstate(over="ignore", divide="ignore"):
        counts = np.maximum(np.trunc(durations_us / dwell_us + 0.5), 1.0)
    if orientation is Orientation.THREE_PRIME_FIRST:
        bases, counts = bases[:, ::-1], counts[:, ::-1]
    return bases, counts


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
    (base, count) layout, from one bit_runs call on its two runs; events
    with one layout share its result.  A layout is refused when a count is
    not finite, or when it carries more bits than a molecule may hold
    bases (each bit takes at least one), before any bit is spelled out.
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
            # Kept without its traceback, whose frames would keep the
            # caller's locals (read_station's held samples) alive with it.
            exc = exc.with_traceback(None)
            for i in picked.tolist():
                out[i] = exc
            continue
        for i, layout in zip(picked.tolist(), zip(*bases.T.tolist(), *counts.T.tolist())):
            if layout not in memo:
                b0, b1, n0, n1 = layout
                try:
                    if not math.isfinite(n0 + n1):
                        raise ReaderError("recovered base count is not finite")
                    pairs = bit_runs([(b0, int(n0)), (b1, int(n1))], scheme, tolerance)
                    if sum(k for _, k in pairs) > MAX_MOLECULE_BASES:
                        raise ReaderError(
                            f"event carries more bits than the {MAX_MOLECULE_BASES} "
                            "bases a molecule may hold"
                        )
                    memo[layout] = tuple(bit for bit, k in pairs for _ in range(k))
                except (CodecError, ReaderError) as exc:
                    memo[layout] = exc.with_traceback(None)
            out[i] = memo[layout]
    return out


def decode_event(
    cls: EventClass,
    scheme: RunLengthScheme,
    calib: CalibrationTable,
    voltage_mv: float,
    tolerance: float = 0.45,
) -> list[int]:
    """Full per-event pipeline: orient, recover bases, run-length decode.

    Only bi-level classified events carry enough structure to decode; an
    unresolved orientation is refused.  The generous default tolerance
    absorbs dwell-time jitter in the recovered run lengths.
    """
    if not isinstance(cls, BiLevel):
        raise ReaderError("only bi-level events can be decoded against a scheme")
    _check_voltage(voltage_mv, calib)
    first, second, first_us, second_us = (
        np.array([x], dtype=np.float64)
        for x in (cls.first_level, cls.second_level, cls.first_duration_us,
                  cls.second_duration_us)
    )
    (outcome,) = _decode_bilevels(
        first, second, first_us, second_us,
        _orientation_codes(first, second),
        scheme, calib, voltage_mv, tolerance,
    )
    if isinstance(outcome, Exception):
        raise outcome
    return list(outcome)


# --- the read station ------------------------------------------------------

# Cells (events x samples) of event samples read_station holds before it
# classifies them; past this, every event held is classified.
_HELD_CELLS = 1 << 18


def _classify_held(
    held: np.ndarray, index: list[np.ndarray], lengths: list[np.ndarray], classify: tuple
) -> list[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """_classify_rows, given its arguments after the first in ``classify``,
    for the events of the indices and lengths in ``index`` and ``lengths``,
    whose normalized samples lie one after another in ``held``: one gather
    orders them by length, and each length's rows go in time order, in
    batches of at most ``_BATCH_CELLS`` samples.  Returns (event indices,
    results) per batch."""
    index, lengths = (np.concatenate([np.empty(0, np.intp), *parts]) for parts in (index, lengths))
    order = np.argsort(lengths, kind="stable")
    index, by_length = index[order], lengths[order]
    firsts = np.cumsum(by_length) - by_length  # of each row, in the gathered samples
    gather = np.repeat((np.cumsum(lengths) - lengths)[order] - firsts, by_length)
    gather += np.arange(gather.size)
    rows = held[gather]
    out = []
    groups = np.flatnonzero(np.diff(by_length, prepend=-1)).tolist()
    for a, b in zip(groups, groups[1:] + [by_length.size]):
        n = int(by_length[a])
        group = rows[firsts[a] : firsts[a] + (b - a) * n].reshape(b - a, n)
        step = max(1, _BATCH_CELLS // n)
        for c in range(0, b - a, step):
            results = _classify_rows(group[c : c + step], *classify)
            out.append((index[a + c : min(a + c + step, b)], results))
    return out


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
    trace: CurrentTrace | ChunkedTrace,
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
    for those events, computed on arrays in one pass over
    ``trace.chunks()``: each chunk's open samples are counted, and its
    samples per census state by _census_chunk, whose census is dropped; the
    samples of the events inside each chunk are gathered onto one array
    until about ``_HELD_CELLS`` are held, then grouped by length and
    classified in batches of at most ``_BATCH_CELLS`` samples; an event
    that began in an earlier chunk is classified as one row when it ends.
    So the pass holds a chunk of ``poresim._CHUNK`` samples, the events not
    yet classified and the run still open, whatever its length: an event
    longer than a chunk is held whole.  A NaN or infinite sample is a
    ReaderError that names its index.
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
    _check_voltage(voltage_mv, calib)
    rate = trace.sample_rate_hz
    threshold = _detection_threshold(open_current_pa, threshold_fraction)
    thresholds = _census_thresholds(n_pores, open_current_pa, calib.clogged_current_pa)
    noise_sigma_norm = noise_sigma_pa / open_current_pa
    n_samples = n_open = n_events = 0
    census_counts = np.zeros(n_pores + 1, dtype=np.int64)
    event_starts: list[np.ndarray] = []
    event_lengths: list[np.ndarray] = []
    classify = (rate, noise_sigma_norm, min_substate_us, complete_floor_us)
    classified: list[tuple[np.ndarray, tuple[np.ndarray, ...]]] = []
    # The normalized samples of the events not yet classified, one after
    # another, and the indices and lengths of those events.
    held, held_index, held_lengths = np.empty(0), [], []
    for offset, chunk, starts, ends, carried in _event_runs(
        trace.chunks(), threshold, min_duration_us * 1e-6 * rate
    ):
        census_counts += _census_chunk(chunk, thresholds, n_samples)[1]
        n_samples += chunk.size
        n_open += int(np.count_nonzero(chunk >= threshold))
        if carried is not None:
            start, samples = carried
            samples /= open_current_pa
            classified.append((np.array([n_events]), _classify_rows(samples[None, :], *classify)))
            event_starts.append(np.array([start]))
            event_lengths.append(np.array([samples.size]))
            n_events += 1
        lengths = ends - starts
        event_starts.append(starts + offset)
        event_lengths.append(lengths)
        gather = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        gather += np.arange(gather.size)
        _extend(held, chunk[gather] / open_current_pa)
        held_index.append(np.arange(n_events, n_events + starts.size))
        held_lengths.append(lengths)
        n_events += starts.size
        if held.size >= _HELD_CELLS:
            classified += _classify_held(held, held_index, held_lengths, classify)
            held, held_index, held_lengths = np.empty(0), [], []
    classified += _classify_held(held, held_index, held_lengths, classify)
    starts, lengths = (
        np.concatenate([np.empty(0, np.intp), *parts]) for parts in (event_starts, event_lengths)
    )
    fields = (mean, kind, first, second, first_us, second_us) = (
        np.empty(n_events), np.empty(n_events, np.int8), *np.empty((4, n_events)),
    )
    for index, results in classified:
        for out, result in zip(fields, results):
            out[index] = result

    orientation = np.zeros(len(starts), dtype=np.int8)
    decoded: list[Decoded] = [None] * len(starts)
    bi = np.flatnonzero(kind == BILEVEL)
    orientation[bi] = _orientation_codes(first[bi], second[bi])
    bi_decoded = _decode_bilevels(
        first[bi], second[bi], first_us[bi], second_us[bi], orientation[bi],
        scheme, calib, voltage_mv, tolerance,
    )
    for i, outcome in zip(bi.tolist(), bi_decoded):
        decoded[i] = outcome

    open_fraction, complete_rate, partial_rate, histogram = _summary(
        n_samples, n_open, census_counts, n_samples / rate, kind != INCOMPLETE
    )
    return ReadResult(
        rate, starts, lengths, mean, kind, first, second, first_us, second_us,
        orientation, tuple(decoded), open_fraction, complete_rate, partial_rate,
        histogram,
    )


# --- multi-pore census -----------------------------------------------------

# A census slice spanning fewer states takes one compare or mask per state.
_FEW_STATES = 8


def _census_thresholds(
    n_pores: int, open_current_pa: float, clogged_current_pa: float
) -> np.ndarray:
    """The census thresholds ``t_1..t_n_pores``.  The census of a current
    ``x``, ``clip(rint((x - offset) / step), 0, n_pores)`` for the current
    ``offset`` of state 0 and the ``step`` of one more open pore, is
    monotone in ``x``: it is the number of ``t_k <= x``, where ``t_k`` is
    the least finite float64 whose census is at least ``k``, or inf.  Each
    ``t_k`` is bisected over the int64 image of the float64 order."""
    if not 1 <= n_pores <= MAX_PORES:
        raise ReaderError(f"n_pores must be in [1, {MAX_PORES}], got {n_pores}")
    if not (math.isfinite(open_current_pa) and math.isfinite(clogged_current_pa)):
        raise ReaderError(
            f"open and clogged currents must be finite, got {open_current_pa} "
            f"and {clogged_current_pa}"
        )
    offset, step = n_pores * clogged_current_pa, open_current_pa - clogged_current_pa
    if step <= 0:
        raise ReaderError("open current must exceed clogged current")
    k = np.arange(1, n_pores + 1)
    # Bisect between the int64 keys of -inf (census 0 < k) and of inf (kept if
    # no float64 reaches k): a float64's bits, the low 63 flipped if negative.
    thresholds = np.full(n_pores, np.inf)
    lo, hi = -1 - thresholds.view(np.int64), thresholds.view(np.int64).copy()
    while (lo + 1 < hi).any():  # at most 64 rounds
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor((lo + hi) / 2), no overflow
        x = (mid ^ ((mid >> 63) & np.iinfo(np.int64).max)).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # NaN reaches no state
            reached = np.clip(np.rint((x - offset) / step), 0, n_pores) >= k
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid)
        thresholds = np.where(reached, x, thresholds)
    return thresholds


@np.errstate(over="ignore", invalid="ignore")
def _census_chunk(
    samples, thresholds, first: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The census of float64 ``samples`` against ``thresholds``, and the
    count and sum of the samples in each state 0..thresholds.size.

    Each slice of ``poresim._CHUNK`` samples (a trace's chunk is one) spans
    the states between those of its least and greatest sample (past any
    NaN), and takes one branch: a slice of one state is counted and summed
    whole; one of fewer than ``_FEW_STATES`` states takes one compare per
    threshold and one mask per state, summed by ``np.add.reduce``; a wider
    one is read by ``searchsorted``, sorted by state and summed by
    ``np.add.reduceat``.  Every branch adds each sample to some state's sum,
    so a NaN or infinite sample makes a sum not finite: only then are the
    samples searched, and the first of them not finite is a ReaderError
    naming its index, ``first`` being that of ``samples[0]``.  A sum past
    the float64 range of finite samples is inf or NaN, without a warning.
    """
    census = np.empty(samples.shape, dtype=np.min_scalar_type(thresholds.size))
    counts, sums = np.zeros(thresholds.size + 1, dtype=np.int64), np.zeros(thresholds.size + 1)
    for start in range(0, samples.size, poresim._CHUNK):
        values = samples[start : start + poresim._CHUNK]
        part = census[start : start + poresim._CHUNK]
        least, most = np.fmin.reduce(values), np.fmax.reduce(values)
        lo, hi = thresholds.searchsorted((least, most), "right").tolist()
        if lo == hi:
            part.fill(lo)
            counts[lo] += values.size
            sums[lo] += np.add.reduce(values)
        elif hi - lo < _FEW_STATES:
            part.fill(lo)
            for threshold in thresholds[lo:hi].tolist():
                part += values >= threshold
            for k in range(lo, hi + 1):
                in_state = part == k
                counts[k] += np.count_nonzero(in_state)
                sums[k] += np.add.reduce(values[in_state])
        else:
            part[...] = thresholds.searchsorted(values, "right")
            order = np.argsort(part, kind="stable")
            states = part[order]
            firsts = np.flatnonzero(np.r_[True, states[1:] != states[:-1]])
            counts[states[firsts]] += np.diff(firsts, append=part.size)
            sums[states[firsts]] += np.add.reduceat(values[order], firsts)
    if not np.isfinite(sums).all():
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            i = int(bad[0])
            raise ReaderError(f"sample {first + i} is {samples[i]}, not a finite current")
    return census, counts, sums


def census_series(
    samples: np.ndarray,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> np.ndarray:
    """Per-sample census: the number of open pores k whose quantized total
    current ``k*open + (n_pores-k)*clogged`` sits nearest, in the smallest
    unsigned dtype that holds ``n_pores``: the states the rounding formula
    gives, read by _census_chunk against exact thresholds (_census_thresholds).
    A NaN or infinite sample is a ReaderError that names its index."""
    thresholds = _census_thresholds(n_pores, open_current_pa, clogged_current_pa)
    return _census_chunk(np.asarray(samples, dtype=np.float64), thresholds)[0]


def _state_means(counts: np.ndarray, sums: np.ndarray) -> dict[int, float]:
    return {k: float(sums[k] / counts[k]) for k in np.flatnonzero(counts).tolist()}


@dataclass(frozen=True)
class CensusRate:
    events: int
    seconds: float
    rate_per_s: float


# census_rates' baseline rolling-median window, the longest dip that
# counts as an event and the gap under which two dips merge.  Read at call
# time, so a test may patch them.
_BASELINE_WINDOW_S, _MAX_EVENT_S, _MERGE_GAP_S = 0.021, 0.01, 50e-6


class _DipCounter:
    """census_rates over a census given in consecutive chunks.

    The baseline of 1 ms block j is the median of the block-start values of
    blocks j-h .. j+h (h = half the window; past the ends, the first or the
    last block's), so block j is compared once block j+h is whole.  Between
    chunks the counter holds the census not yet compared (at most one chunk
    plus h + 1 blocks, joined to the next chunk when it comes), the h
    block-start values before it and the last merged run, which the next dip
    may still join.  A dip still open where a comparison ends is cut there,
    and the merge joins its two pieces again: the gap between them is 0,
    and the merge gap is at least one sample.  A census of fewer blocks
    than the window has one baseline, the median of them all, so nothing is
    compared until the window's worth has begun.
    """

    def __init__(self, sample_rate_hz: float, n_pores: int, dtype) -> None:
        self.sample_rate_hz = sample_rate_hz
        self.n_pores = n_pores
        self.stride = max(1, int(sample_rate_hz * 1e-3))
        window = max(1, int(round(_BASELINE_WINDOW_S / (self.stride / sample_rate_hz))))
        self.window = window + 1 - window % 2
        self.max_samples = _MAX_EVENT_S * sample_rate_hz
        self.merge_gap = max(_MERGE_GAP_S * sample_rate_hz, 1)
        self.pending = np.empty(0, dtype)  # the census from sample `done` on
        self.done = 0
        self.history: np.ndarray | None = None  # block starts before `done`
        self.run: tuple[np.ndarray, ...] | None = None  # (start, end, baseline) arrays
        self.last_base = 0
        self.events = np.zeros(n_pores + 1, dtype=np.int64)
        self.held = np.zeros(n_pores + 1, dtype=np.int64)

    def add(self, census: np.ndarray) -> None:
        """Take the next chunk of the census."""
        self.pending = np.concatenate([self.pending, census])
        size = self.pending.size
        half = self.window // 2
        if self.history is None:  # nothing compared yet
            if -(-size // self.stride) < self.window:
                return
            self.history = np.full(half, self.pending[0])
        whole = size // self.stride
        if whole > half:
            starts = self.pending[: whole * self.stride : self.stride]
            self._compare((whole - half) * self.stride, self._baselines(starts))

    def rates(self) -> dict[int, CensusRate]:
        """The rates of the census taken so far."""
        size = self.pending.size
        if not self.done + size:
            return {}
        starts = self.pending[:: self.stride]
        if self.history is None:
            base = np.full_like(starts, int(np.median(starts)))
            self._compare(size, base)
        elif starts.size:
            padded = np.concatenate([starts, np.full(self.window // 2, starts[-1])])
            self._compare(size, self._baselines(padded))
        if self.run is not None:
            self._count(*self.run)
        if self.last_base <= self.n_pores:
            self.held[self.last_base] -= -self.done % self.stride
        out: dict[int, CensusRate] = {}
        for k, (n_events, n_samples) in enumerate(zip(self.events.tolist(), self.held.tolist())):
            seconds = float(n_samples) / self.sample_rate_hz
            out[k] = CensusRate(n_events, seconds, n_events / seconds if seconds > 0 else 0.0)
        return out

    def _baselines(self, starts: np.ndarray) -> np.ndarray:
        """The baseline of each block whose window ``history + starts`` holds."""
        padded = np.concatenate([self.history, starts])
        # Windows as strided rows, made directly: sliding_window_view's
        # checks cost more than the rest of a chunk's baselines.
        rows = padded.size - self.window + 1
        view = np.ndarray((rows, self.window), padded.dtype, padded, 0, padded.strides * 2)
        self.history = padded[rows : rows + self.window // 2].copy()
        # The window is odd, so its median is its middle value, exactly.
        return np.partition(view, self.window // 2, axis=1)[:, self.window // 2]

    def _compare(self, size: int, base: np.ndarray) -> None:
        """Find the dips in the first ``size`` pending samples, whose blocks
        have baselines ``base`` (the last block may be partial), and merge
        them; a dip open at the end is cut there."""
        census, stride = self.pending[:size], self.stride
        self.held += np.bincount(base, minlength=self.n_pores + 1)[: self.n_pores + 1] * stride
        self.last_base = int(base[-1])
        dips = np.empty(size + 2, bool)
        dips[0] = dips[-1] = False
        whole = size - size % stride
        np.less(
            census[:whole].reshape(-1, stride),
            base[: whole // stride, None],
            out=dips[1 : whole + 1].reshape(-1, stride),
        )
        np.less(census[whole:], base[-1], out=dips[whole + 1 : -1])
        edges = _run_edges(dips)
        bases = base[edges[0::2] // stride]
        edges += self.done
        self.done += size
        self.pending = self.pending[size:]
        self._merge(edges[0::2], edges[1::2], bases)

    def _merge(self, starts: np.ndarray, ends: np.ndarray, bases: np.ndarray) -> None:
        """Merge closed dips, in time order, with the last run: a dip joins
        the one before it when the gap between them is shorter than the
        merge gap, and each merged run keeps its first start and baseline
        and its last end.  All runs but the last are counted."""
        if self.run is not None:
            starts, ends, bases = map(np.concatenate, zip(self.run, (starts, ends, bases)))
        if not starts.size:
            return
        split = np.empty(starts.size + 1, bool)
        split[0] = split[-1] = True
        np.greater_equal(starts[1:] - ends[:-1], self.merge_gap, out=split[1:-1])
        starts, ends, bases = starts[split[:-1]], ends[split[1:]], bases[split[:-1]]
        self.run = starts[-1:], ends[-1:], bases[-1:]
        self._count(starts[:-1], ends[:-1], bases[:-1])

    def _count(self, starts: np.ndarray, ends: np.ndarray, bases: np.ndarray) -> None:
        """Count the merged runs no longer than the longest event."""
        is_event = ~(ends - starts > self.max_samples)
        events = np.bincount(bases[is_event], minlength=self.n_pores + 1)
        self.events += events[: self.n_pores + 1]


def census_rates(
    census: np.ndarray, sample_rate_hz: float, n_pores: int
) -> dict[int, CensusRate]:
    """Blockade rates split by how many pores the baseline shows open.

    ``census`` is the trace's census_series.  The baseline census is a
    rolling median over ``_BASELINE_WINDOW_S`` (21 ms) of a 1 ms decimated
    census (blockades occupy well under a percent of any window,
    persistent clogs shift the median), held for the 1 ms block each
    decimated sample starts.  Each maximal run of below-baseline census
    lasting at most ``_MAX_EVENT_S`` (10 ms) counts as one event
    attributed to the baseline at its start; longer excursions are
    baseline shifts, not events.  Dips separated by less than
    ``_MERGE_GAP_S`` (50 us) merge into one event, since a blockade sitting
    near a census midpoint can flicker across it within a single passage.
    An empty trace has no baseline and gives an empty dict.  census_stats
    counts the same way, a chunk at a time.
    """
    census = np.asarray(census)
    counter = _DipCounter(sample_rate_hz, n_pores, census.dtype)
    counter.add(census)
    return counter.rates()


def census_current_means(
    samples: np.ndarray, census: np.ndarray, n_pores: int
) -> dict[int, float]:
    """Mean measured current of the samples assigned to each census state
    0..n_pores present, as one sum over count per state; ``census`` is the
    samples' census_series, and states above ``n_pores`` are skipped."""
    census = np.asarray(census)
    counts = np.bincount(census, minlength=n_pores + 1)[: n_pores + 1]
    sums = np.bincount(census, np.asarray(samples, dtype=np.float64), n_pores + 1)
    return _state_means(counts, sums[: n_pores + 1])


@dataclass(frozen=True, eq=False)
class CensusStats:
    """The census statistics of one trace: its sample count, the samples in
    each census state 0..n_pores, the mean current of the trace and of each
    state present (from the sums of _census_chunk) and census_rates.
    """

    duration_s: float
    mean_pa: float
    n_samples: int
    state_counts: np.ndarray
    current_means: dict[int, float]
    rates: dict[int, CensusRate]


def census_stats(
    trace,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> CensusStats:
    """Census statistics of a trace in one pass over ``trace.chunks()``.

    Each chunk's census_series, read against exact current thresholds
    computed once, goes into a count and a sum of its samples per state,
    whence the means, and on to the dip count of census_rates.  Neither the
    float trace nor its census is held whole: the pass holds a chunk and
    the census the baseline still needs.  ``mean_pa`` of an empty trace is 0.
    A NaN or infinite sample is a ReaderError that names its index, and
    finite samples whose sum passes the float64 range are one too.
    """
    thresholds = _census_thresholds(n_pores, open_current_pa, clogged_current_pa)
    rate = trace.sample_rate_hz
    counts, sums = np.zeros(n_pores + 1, dtype=np.int64), np.zeros(n_pores + 1)
    dips = _DipCounter(rate, n_pores, np.min_scalar_type(n_pores))
    n = 0
    for chunk in trace.chunks():
        census, chunk_counts, chunk_sums = _census_chunk(chunk, thresholds, n)
        counts += chunk_counts
        sums += chunk_sums
        dips.add(census)
        n += chunk.size
    with np.errstate(over="ignore", invalid="ignore"):
        total = sums.sum()
    if not math.isfinite(total):  # a state's sum, or theirs, is past float64
        raise ReaderError("the trace's currents sum past the float64 range")
    return CensusStats(
        duration_s=n / rate,
        mean_pa=float(total / n) if n else 0.0,
        n_samples=n,
        state_counts=counts,
        current_means=_state_means(counts, sums),
        rates=dips.rates(),
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
    n_samples: int,
    n_open: int,
    census_counts: np.ndarray,
    duration_s: float,
    complete: np.ndarray,
) -> tuple[float, float, float, dict[int, int]]:
    """Open fraction, complete and partial event rates, census histogram,
    from a trace's samples, those at or above the detection threshold, those
    in each census state (as _census_chunk counts them) and its duration,
    and whether each event is complete."""
    open_fraction = float(n_open / n_samples) if n_samples else 1.0
    histogram = {k: int(census_counts[k]) for k in np.flatnonzero(census_counts).tolist()}
    n_complete = int(np.count_nonzero(complete))
    complete_rate = n_complete / duration_s if duration_s > 0 else 0.0
    partial_rate = (complete.size - n_complete) / duration_s if duration_s > 0 else 0.0
    return open_fraction, complete_rate, partial_rate, histogram


def trace_stats(
    trace: CurrentTrace | ChunkedTrace,
    events: EventTable,
    open_current_pa: float,
    threshold_fraction: float = 0.5,
    n_pores: int = 1,
    clogged_current_pa: float = 30.0,
) -> StatsReport:
    """Aggregate detected events and census occupancy for one trace, whose
    open samples and census histogram (by _census_chunk) are counted in one
    pass over ``trace.chunks()``."""
    threshold = _detection_threshold(open_current_pa, threshold_fraction)
    thresholds = _census_thresholds(n_pores, open_current_pa, clogged_current_pa)
    n_samples = n_open = 0
    census_counts = np.zeros(n_pores + 1, dtype=np.int64)
    for chunk in trace.chunks():
        census_counts += _census_chunk(chunk, thresholds, n_samples)[1]
        n_samples += chunk.size
        n_open += int(np.count_nonzero(chunk >= threshold))
    open_fraction, complete_rate, partial_rate, histogram = _summary(
        n_samples, n_open, census_counts, n_samples / trace.sample_rate_hz, events.complete
    )
    pairs = zip(events.duration_us.tolist(), (100.0 * (1.0 - events.mean_level)).tolist())
    return StatsReport(
        open_fraction, complete_rate, partial_rate, complete_rate + partial_rate, tuple(pairs),
        histogram,
    )

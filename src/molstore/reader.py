"""Trace analysis: event detection, substate classification, orientation
inference, base recovery, and multi-pore census statistics.

The single-pore path finds threshold crossings, fits a one- or two-level
model per event, infers which chemical end entered first from the level
ordering, and converts substate dwell times back into base counts.  The
multi-pore path quantizes total current into a pore census and counts
blockade dips per census baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .calibration import CalibrationTable
from .codec import BaseSequence, Nucleotide, RunLengthScheme, decode_runlength
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


def _best_split(levels: np.ndarray) -> tuple[int, float, float]:
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
    if event.duration_us < complete_floor_us:
        return Incomplete()
    levels = event.levels
    n = len(levels)
    rate = event.sample_rate_hz
    if n < 2:
        return MonoLevel(event.mean_level)
    k, mean1, mean2 = _best_split(levels)
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


def _clip_level(level: float) -> float:
    return min(max(level, 1e-6), 1.0 - 1e-6)


def to_translocation_event(
    event: DetectedEvent, cls: EventClass, orientation: Orientation = Orientation.UNKNOWN
) -> TranslocationEvent:
    """Package a detected event and its classification as a domain event."""
    if isinstance(cls, BiLevel):
        substates = (
            Substate(_clip_level(cls.first_level), cls.first_duration_us),
            Substate(_clip_level(cls.second_level), cls.second_duration_us),
        )
        complete = True
    elif isinstance(cls, MonoLevel):
        substates = (Substate(_clip_level(cls.level), event.duration_us),)
        complete = True
    else:
        substates = (Substate(_clip_level(event.mean_level), event.duration_us),)
        complete = False
    return TranslocationEvent(
        t_start_s=event.t_start_s,
        substates=substates,
        complete=complete,
        orientation=orientation,
    )


def infer_orientation(
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


def _assign_bases(levels: Sequence[float], means: dict[str, float]) -> list[str]:
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


def recover_bases(
    event: TranslocationEvent,
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
    assigned = _assign_bases([s.level for s in event.substates], means)
    segments: list[tuple[Nucleotide, int]] = []
    for base, (_, duration_us) in zip(assigned, event.substates):
        count = max(1, int(duration_us / dwell_us + 0.5))
        segments.append((Nucleotide(base), count))
    if orientation is Orientation.THREE_PRIME_FIRST:
        segments.reverse()
    return segments


def segments_to_sequence(segments: Sequence[tuple[Nucleotide, int]]) -> BaseSequence:
    return BaseSequence("".join(base.value * count for base, count in segments))


def decode_event(
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
    call = infer_orientation(cls, calib, tie_tolerance=tie_tolerance)
    if call.orientation is Orientation.UNKNOWN:
        raise OrientationUnknownError("level ordering is a tie; orientation unknown")
    event = TranslocationEvent(
        t_start_s=0.0,
        substates=(
            Substate(_clip_level(cls.first_level), cls.first_duration_us),
            Substate(_clip_level(cls.second_level), cls.second_duration_us),
        ),
        complete=True,
        orientation=call.orientation,
    )
    segments = recover_bases(event, call.orientation, calib, voltage_mv)
    return decode_runlength(segments_to_sequence(segments), scheme, tolerance)


# --- multi-pore census -----------------------------------------------------


def pore_state_census(
    sample_pa: float,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> int:
    """Number of open pores whose quantized total current sits nearest."""
    if n_pores < 1:
        raise ReaderError("n_pores must be >= 1")
    ks = np.arange(n_pores + 1)
    levels = ks * open_current_pa + (n_pores - ks) * clogged_current_pa
    return int(np.argmin(np.abs(levels - sample_pa)))


def census_series(
    samples: np.ndarray,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> np.ndarray:
    """Vectorized per-sample census; equivalent to pore_state_census."""
    step = open_current_pa - clogged_current_pa
    if step <= 0:
        raise ReaderError("open current must exceed clogged current")
    raw = (np.asarray(samples) - n_pores * clogged_current_pa) / step
    return np.clip(np.rint(raw), 0, n_pores).astype(np.int64)


@dataclass(frozen=True)
class CensusRate:
    events: int
    seconds: float
    rate_per_s: float


def census_rates(
    trace: CurrentTrace,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
    baseline_window_s: float = 0.021,
    max_event_s: float = 0.01,
    merge_gap_s: float = 50e-6,
) -> dict[int, CensusRate]:
    """Blockade rates split by how many pores the baseline shows open.

    The baseline census is a rolling median over ``baseline_window_s`` of a
    1 ms decimated census (blockades occupy well under a percent of any
    window, persistent clogs shift the median).  Each maximal run of
    below-baseline census lasting at most ``max_event_s`` counts as one
    event attributed to the baseline at its start; longer excursions are
    baseline shifts, not events.  Dips separated by less than
    ``merge_gap_s`` merge into one event, since a blockade sitting near a
    census midpoint can flicker across it within a single passage.  An
    empty trace has no baseline and gives an empty dict.
    """
    census = census_series(trace.samples, n_pores, open_current_pa, clogged_current_pa)
    if census.size == 0:
        return {}
    rate = trace.sample_rate_hz
    stride = max(1, int(rate * 1e-3))
    coarse = census[::stride]
    window = max(1, int(round(baseline_window_s / (stride / rate))))
    if window % 2 == 0:
        window += 1
    if len(coarse) >= window:
        padded = np.pad(coarse, window // 2, mode="edge")
        view = np.lib.stride_tricks.sliding_window_view(padded, window)
        coarse_base = np.median(view, axis=1).astype(np.int64)
    else:
        coarse_base = np.full_like(coarse, int(np.median(coarse)))
    baseline = np.repeat(coarse_base, stride)[: len(census)]
    if len(baseline) < len(census):
        baseline = np.pad(baseline, (0, len(census) - len(baseline)), mode="edge")

    dips = census < baseline
    edges = np.diff(dips.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1) + 1
    if dips.size and dips[0]:
        starts = np.concatenate(([0], starts))
    if dips.size and dips[-1]:
        ends = np.concatenate((ends, [dips.size]))
    max_samples = max_event_s * rate
    merge_gap = merge_gap_s * rate

    merged: list[tuple[int, int]] = []
    for i0, i1 in zip(starts, ends):
        if merged and i0 - merged[-1][1] < merge_gap:
            merged[-1] = (merged[-1][0], int(i1))
        else:
            merged.append((int(i0), int(i1)))

    counts: dict[int, int] = {}
    for i0, i1 in merged:
        if i1 - i0 > max_samples:
            continue
        counts[int(baseline[i0])] = counts.get(int(baseline[i0]), 0) + 1
    out: dict[int, CensusRate] = {}
    for k in range(n_pores + 1):
        seconds = float(np.count_nonzero(baseline == k)) / rate
        events = counts.get(k, 0)
        out[k] = CensusRate(events, seconds, events / seconds if seconds > 0 else 0.0)
    return out


def census_current_means(
    trace: CurrentTrace,
    n_pores: int,
    open_current_pa: float,
    clogged_current_pa: float,
) -> dict[int, float]:
    """Mean measured current of the samples assigned to each census state."""
    census = census_series(trace.samples, n_pores, open_current_pa, clogged_current_pa)
    out: dict[int, float] = {}
    for k in range(n_pores + 1):
        mask = census == k
        if np.any(mask):
            out[k] = float(np.mean(np.asarray(trace.samples)[mask]))
    return out


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


def trace_stats(
    trace: CurrentTrace,
    events: Sequence[TranslocationEvent],
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

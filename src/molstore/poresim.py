"""Translocation event sampling and ionic-current trace synthesis.

Events are drawn from the calibrated statistics (bi-level fraction, entry
direction, normalized blockade levels, voltage-scaled dwell times) and laid
onto per-pore Poisson arrival processes.  Multi-pore traces are the sum of
independent pores plus Gaussian noise; all randomness derives from one
explicit seed so runs are reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
import queue
import re
import threading
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .calibration import (
    FIVE_PRIME,
    THREE_PRIME,
    CalibrationTable,
    ChannelConfig,
    RangeError,
)
from .codec import BaseSequence, Nucleotide


class SimulationError(ValueError):
    """Invalid simulation parameters."""

    category = "param"


class Orientation(str, enum.Enum):
    """Which chemical end of the molecule entered the pore first."""

    THREE_PRIME_FIRST = "3prime_first"
    FIVE_PRIME_FIRST = "5prime_first"
    UNKNOWN = "unknown"

    @property
    def entry_end(self) -> str:
        if self is Orientation.THREE_PRIME_FIRST:
            return THREE_PRIME
        if self is Orientation.FIVE_PRIME_FIRST:
            return FIVE_PRIME
        raise ValueError("unknown orientation has no entry end")

    def __str__(self) -> str:
        return self.value


_MOLECULE_TOKEN = re.compile(r"\(([ACGT]+)\)(\d+)|([ACGT])(\d*)")
# The most bases a molecule spec may expand to: a 10^6-base molecule takes
# ~1 s to pass the pore at the default calibration's reference bias.
MAX_MOLECULE_BASES = 10**6
# The largest run simulate starts, checked before it draws anything: its
# samples (duration_s * sample_rate_hz; 10^10 is ~3 h at 1 MHz), the events
# it expects (capture_rate * duration_s * n_pores; each is drawn in Python
# and held as a row of an EventTable's arrays until the run's log is
# written) and, while gating, the gating dwells it expects at most
# (duration_s * n_pores over the shorter mean dwell).  Past these a run
# would not end in practice.
MAX_SAMPLES = 10**10
MAX_EVENTS = 10**6
MAX_GATING_DWELLS = 10**6


@dataclass(frozen=True)
class MoleculeSpec:
    """Homopolymer segment layout of one molecule, 5' to 3'."""

    segments: tuple[tuple[Nucleotide, int], ...]

    def __post_init__(self):
        if not self.segments:
            raise SimulationError("molecule needs at least one segment")
        for base, count in self.segments:
            if count < 1:
                raise SimulationError(f"segment {base} has non-positive count {count}")
        for (a, _), (b, _) in zip(self.segments, self.segments[1:]):
            if a == b:
                raise SimulationError("adjacent segments must have distinct bases")

    @property
    def total_bases(self) -> int:
        return sum(count for _, count in self.segments)

    @classmethod
    def from_string(cls, text: str) -> "MoleculeSpec":
        """Parse specs like "A50C100" or "(AC)60" (5' end first)."""
        text = text.strip().upper()
        pos = 0
        bases: list[str] = []
        n_bases = 0
        while pos < len(text):
            m = _MOLECULE_TOKEN.match(text, pos)
            if not m:
                raise SimulationError(f"bad molecule spec {text!r} at position {pos}")
            unit, count = m.group(1) or m.group(3), int(m.group(2) or m.group(4) or "1")
            if count < 1:
                raise SimulationError(f"bad molecule spec {text!r}: count 0 at position {pos}")
            n_bases += len(unit) * count
            if n_bases > MAX_MOLECULE_BASES:
                raise SimulationError(
                    f"molecule spec {text!r} has more than {MAX_MOLECULE_BASES} bases"
                )
            bases.append(unit * count)
            pos = m.end()
        return cls.from_sequence(BaseSequence("".join(bases)))

    @classmethod
    def from_sequence(cls, seq: BaseSequence) -> "MoleculeSpec":
        if len(seq) == 0:
            raise SimulationError("empty sequence has no segments")
        return cls(tuple((Nucleotide(base), count) for base, count in seq.runs()))

    def __str__(self) -> str:
        return "".join(f"{base}{count}" for base, count in self.segments)


# Orientation codes of an EventTable, and of the reader's array kernels,
# index this tuple.
ORIENTATIONS = (
    Orientation.UNKNOWN,
    Orientation.THREE_PRIME_FIRST,
    Orientation.FIVE_PRIME_FIRST,
)


def _check_substate(level: float, duration_us: float) -> None:
    if not 0.0 < level < 1.0:
        raise SimulationError(f"substate level {level} outside (0, 1)")
    if duration_us <= 0.0:
        raise SimulationError("substate duration must be > 0")


# Samples per chunk of every pass: of a trace (a text trace yields about as
# many), of a synthesized trace's noise and of the census; bounds each
# pass's working memory.  Read at call time, so a test may patch it.
_CHUNK = 1 << 16


class ChunkedTrace:
    """A trace made or read a chunk at a time: a subclass gives
    ``sample_rate_hz``, ``len()`` and ``chunks()``, each pass of which yields
    the samples as consecutive float64 chunks, each valid until the next."""

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz

    @property
    def samples(self) -> np.ndarray:
        """The whole trace as one float64 array, made from a pass over
        ``chunks()`` on each access."""
        samples = np.empty(len(self))
        start = 0
        for chunk in self.chunks():
            samples[start : start + chunk.size] = chunk
            start += chunk.size
        return samples


@dataclass(eq=False)
class CurrentTrace:
    """Uniformly sampled ionic current in pA, held in memory."""

    sample_rate_hz: float
    samples: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def chunks(self) -> Iterator[np.ndarray]:
        """The samples as float64, in consecutive chunks."""
        samples = np.asarray(self.samples, dtype=np.float64)
        for start in range(0, samples.size, _CHUNK):
            yield samples[start : start + _CHUNK]


@dataclass(eq=False)
class EventTable:
    """Drawn events as arrays, one row per event: its ``pore``,
    ``t_start_s``, whether it is ``complete`` and its ``orientation`` (an
    ORIENTATIONS code).  Event ``i`` holds the substates ``offsets[i]`` to
    ``offsets[i + 1] - 1`` of ``levels`` and ``durations_us``."""

    pore: np.ndarray
    t_start_s: np.ndarray
    complete: np.ndarray
    orientation: np.ndarray
    offsets: np.ndarray
    levels: np.ndarray
    durations_us: np.ndarray

    @classmethod
    def from_columns(
        cls, pore, t_start_s, complete, orientation, counts, levels, durations_us
    ) -> "EventTable":
        """A table from per-event columns, ``counts`` substates each, and the
        substate columns."""
        return cls(
            np.asarray(pore, np.int64),
            np.asarray(t_start_s, np.float64),
            np.asarray(complete, np.bool_),
            np.asarray(orientation, np.int8),
            np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            np.asarray(levels, np.float64),
            np.asarray(durations_us, np.float64),
        )

    @classmethod
    def concatenate(cls, tables: Sequence["EventTable"]) -> "EventTable":
        """The rows of ``tables``, one table after another."""
        if not tables:
            return cls.from_columns(*[()] * 7)
        columns = zip(*(
            (t.pore, t.t_start_s, t.complete, t.orientation, np.diff(t.offsets),
             t.levels, t.durations_us)
            for t in tables
        ))
        return cls.from_columns(*(np.concatenate(c) for c in columns))

    def __len__(self) -> int:
        return self.t_start_s.size

    def take(self, rows) -> "EventTable":
        """The rows picked by an index array or a boolean mask, in its order."""
        rows = np.arange(len(self))[rows]
        counts = np.diff(self.offsets)[rows]
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        picked = np.repeat(self.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
        return EventTable(
            self.pore[rows], self.t_start_s[rows], self.complete[rows],
            self.orientation[rows], offsets, self.levels[picked], self.durations_us[picked],
        )

    def _ranks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For k = 0, 1, ...: the mask of the events holding a k-th
        substate, and the index of that substate in each."""
        first, counts = self.offsets[:-1], np.diff(self.offsets)
        for k in range(counts.max(initial=0)):
            rows = counts > k
            yield rows, first[rows] + k

    def _sum(self, values: np.ndarray) -> np.ndarray:
        """Each event's sum of ``values``, one per substate, added in order."""
        total = np.zeros(len(self))
        for rows, at in self._ranks():
            total[rows] += values[at]
        return total

    @property
    def duration_us(self) -> np.ndarray:
        """Each event's duration: its substates' summed in order."""
        return self._sum(self.durations_us)

    @property
    def mean_level(self) -> np.ndarray:
        """Each event's level: its substates' weighted by their durations."""
        return self._sum(self.levels * self.durations_us) / self.duration_us

    def substate_spans_s(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end time in s of each substate: an event's first starts
        at its ``t_start_s`` and the next where the last ended, each ending
        ``duration_us * 1e-6`` after its start."""
        starts = np.empty_like(self.durations_us)
        ends = np.empty_like(self.durations_us)
        for k, (_, at) in enumerate(self._ranks()):
            starts[at] = ends[at - 1] if k else self.t_start_s
            ends[at] = starts[at] + self.durations_us[at] * 1e-6
        return starts, ends


ClogSchedule = Mapping[int, Sequence[tuple[float, float]]]


# --- ground-truth log -------------------------------------------------------


# Rows per piece of a ground-truth log (and of the reader's events.csv), so
# that a log is formatted in memory that does not grow with its events.  Read
# at call time, so a test may patch it.
_LOG_ROWS = 4096


def format_event_log(
    header: Sequence[str], events: EventTable, clogs: ClogSchedule
) -> Iterator[str]:
    """A ground-truth log's text, in pieces of at most ``_LOG_ROWS`` rows:
    the ``header`` lines and the column row, an ``event`` row per event,
    then a ``clog`` row per clog interval."""
    columns = "kind,pore,t_start_s,duration_us,complete,orientation,levels,durations_us"
    yield "".join(f"{line}\n" for line in (*header, columns))
    orientations = [o.value for o in ORIENTATIONS]
    duration_us = events.duration_us
    for a in range(0, len(events), _LOG_ROWS):
        b = min(a + _LOG_ROWS, len(events))
        offsets = events.offsets[a : b + 1]
        substates = slice(offsets[0], offsets[-1])
        levels = [f"{level:.6f}" for level in events.levels[substates].tolist()]
        durations = [f"{duration:.3f}" for duration in events.durations_us[substates].tolist()]
        bounds = (offsets - offsets[0]).tolist()
        yield "".join(
            f"event,{pore},{t:.9f},{duration:.3f},{int(complete)},{orientations[code]},"
            f"{';'.join(levels[i:j])},{';'.join(durations[i:j])}\n"
            for pore, t, duration, complete, code, i, j in zip(
                events.pore[a:b].tolist(), events.t_start_s[a:b].tolist(),
                duration_us[a:b].tolist(), events.complete[a:b].tolist(),
                events.orientation[a:b].tolist(), bounds, bounds[1:],
            )
        )
    clog_rows = (
        f"clog,{pore},{start:.9f},{(end - start) * 1e6:.3f},,,,\n"
        for pore in sorted(clogs)
        for start, end in clogs[pore]
    )
    while piece := "".join(itertools.islice(clog_rows, _LOG_ROWS)):
        yield piece


def parse_event_log(path: str) -> tuple[dict[str, str], EventTable, dict]:
    """Read a ground-truth log back as (header, events, clogs): its ``# key
    = value`` lines as a dict, its ``event`` rows as a table and its ``clog``
    rows as ``{pore: [(start_s, end_s), ...]}``.  Each substate is checked
    as a drawn one is, so a level printed as 0 or 1 is a ``SimulationError``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    comments = (line[1:].partition("=") for line in lines if line.startswith("#"))
    header = {key.strip(): value.strip() for key, equals, value in comments if equals}
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    pores, starts, completes, codes, counts, levels, durations = ([] for _ in range(7))
    clogs: dict[int, list[tuple[float, float]]] = {}
    for row in rows[1:]:  # after the column row
        kind, pore = row[0], int(row[1])
        if kind == "clog":
            start = float(row[2])
            clogs.setdefault(pore, []).append((start, start + float(row[3]) * 1e-6))
            continue
        event_levels = [float(x) for x in row[6].split(";")]
        event_durations = [float(x) for x in row[7].split(";")]
        if len(event_levels) != len(event_durations):
            raise SimulationError(f"event at {row[2]} s has unpaired levels and durations")
        for level, duration_us in zip(event_levels, event_durations):
            _check_substate(level, duration_us)
        pores.append(pore)
        starts.append(float(row[2]))
        completes.append(bool(int(row[4])))
        codes.append(ORIENTATIONS.index(Orientation(row[5])))
        counts.append(len(event_levels))
        levels += event_levels
        durations += event_durations
    events = EventTable.from_columns(pores, starts, completes, codes, counts, levels, durations)
    return header, events, clogs


# --- calibrated lookups ----------------------------------------------------


def _interp_strict(x: float, points, what: str) -> float:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if not xs[0] <= x <= xs[-1]:
        raise RangeError(
            f"{what}: {x:g} outside tabulated range [{xs[0]:g}, {xs[-1]:g}]"
        )
    return float(np.interp(x, xs, ys))


def _interp_clamped(x: float, points) -> float:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return float(np.interp(x, xs, ys))  # np.interp clamps at both ends


def open_current(voltage_mv: float, kcl_molar: float, calib: CalibrationTable) -> float:
    """Open-channel current in pA at the given bias and salt concentration.

    Piecewise-linear in voltage over the tabulated IV curve (exact at the
    knots, no extrapolation); conductance scales linearly with KCl molarity
    relative to the 1 M reference.
    """
    if not math.isfinite(voltage_mv):
        raise SimulationError(f"voltage_mv must be finite, got {voltage_mv}")
    if not 0 < kcl_molar < math.inf:
        raise SimulationError(f"kcl_molar must be finite and > 0, got {kcl_molar}")
    current = _interp_strict(voltage_mv, calib.iv_points, "open_current voltage") * kcl_molar
    if not math.isfinite(current):
        raise SimulationError(f"open current at kcl_molar {kcl_molar:g} is not finite")
    return current


def gating_active(kcl_molar: float, calib: CalibrationTable) -> bool:
    """True when salt is at/above the gating threshold (bias-independent)."""
    if kcl_molar <= 0:
        raise SimulationError("kcl_molar must be > 0")
    return kcl_molar >= calib.gating_threshold_molar


def capture_rate(voltage_mv: float, calib: CalibrationTable) -> float:
    """Per-pore event arrival rate (events/s) at the given bias."""
    points = [(v, r) for v, r, _ in calib.event_rate_points]
    return _interp_strict(voltage_mv, points, "capture_rate voltage")


def complete_fraction(voltage_mv: float, calib: CalibrationTable) -> float:
    """Fraction of events that fully translocate, clamped at table edges."""
    points = [(v, f) for v, _, f in calib.event_rate_points]
    return _interp_clamped(voltage_mv, points)


def monolevel_blockage(voltage_mv: float, calib: CalibrationTable) -> float:
    """Mean fractional blockage of single-level events, clamped at edges."""
    return _interp_clamped(voltage_mv, calib.monolevel_blockage_points)


def mean_duration(voltage_mv: float, n_bases: int, calib: CalibrationTable) -> float:
    """Expected translocation duration in microseconds.

    Transit speed is proportional to voltage, so duration scales with
    ref_voltage / voltage.
    """
    if voltage_mv <= 0:
        raise SimulationError("mean_duration requires voltage > 0")
    return n_bases * calib.base_dwell_us * calib.ref_voltage_mv / voltage_mv


# --- event sampling --------------------------------------------------------


# Draws before a level draw gives up; a level inside a validated
# calibration's range is accepted on the first draw nearly always.
_MAX_LEVEL_DRAWS = 1000


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    # Rejection sampling onto the levels the event log, which prints them
    # as "%.6f", reads back inside (0, 1).
    for _ in range(_MAX_LEVEL_DRAWS):
        x = rng.normal(mean, sd)
        if 1e-6 <= x <= 0.999999 or 0.0 < float(f"{x:.6f}") < 1.0:
            return x
    raise SimulationError(
        f"no blockade level in (0, 1) as the log prints it after {_MAX_LEVEL_DRAWS} draws "
        f"from normal({mean:g}, {sd:g})"
    )


def _bilevel_possible(molecule: MoleculeSpec, calib: CalibrationTable) -> bool:
    if len(molecule.segments) != 2:
        return False
    for base, _ in molecule.segments:
        for end in (THREE_PRIME, FIVE_PRIME):
            if calib.level_for(base.value, end) is None:
                return False
    return True


class _EventSampler:
    """``sample_event`` for one molecule, config and calibration: the
    constants are computed once, and each ``draw`` makes the draws one
    event takes, in the same order and with the same short-circuits."""

    def __init__(self, molecule: MoleculeSpec, config: ChannelConfig, calib: CalibrationTable):
        voltage = config.voltage_mv
        if voltage <= 0:
            raise SimulationError("sample_event requires a positive trans bias")
        self.frac_complete = frac_complete = complete_fraction(voltage, calib)
        self.incomplete_band = (calib.incomplete_level_low, calib.incomplete_level_high)
        self.incomplete_min_us = calib.incomplete_min_duration_us
        self.incomplete_extra_us = (
            calib.incomplete_mean_duration_us - calib.incomplete_min_duration_us
        )
        cv = calib.duration_jitter_cv
        sigma2 = math.log(1.0 + cv * cv)
        # The lognormal dwell multiplier, whose mean is exactly 1; none at cv 0.
        self.jitter = (-0.5 * sigma2, math.sqrt(sigma2)) if cv > 0.0 else None
        dwell_scale = calib.base_dwell_us * calib.ref_voltage_mv / voltage
        # (level mean, level sd, unjittered dwell us) of each substate.
        self.monolevel = (
            (1.0 - monolevel_blockage(voltage, calib), calib.monolevel_sigma,
             molecule.total_bases * dwell_scale),
        )
        self.p_bilevel = None  # no bi-level draw at all
        if voltage >= calib.bilevel_min_voltage_mv and _bilevel_possible(molecule, calib):
            p_bilevel = calib.bilevel_fraction / frac_complete if frac_complete > 0 else 0.0
            self.p_bilevel = min(1.0, p_bilevel)
            self.three_prime_first = calib.three_prime_first_fraction
            # Per ORIENTATIONS code, the segments in the order they enter:
            # 3' first (code 1) is the molecule reversed.
            self.bilevel = {
                code: tuple(
                    (*calib.level_for(base.value, ORIENTATIONS[code].entry_end),
                     count * dwell_scale)
                    for base, count in ordered
                )
                for code, ordered in (
                    (1, tuple(reversed(molecule.segments))), (2, molecule.segments)
                )
            }

    def draw(self, rng: np.random.Generator) -> tuple[bool, int, list, list]:
        """One event, as ``sample_event`` describes it: (complete,
        ORIENTATIONS code, levels, durations_us)."""
        if rng.random() >= self.frac_complete:
            levels = [rng.uniform(*self.incomplete_band)]
            durations = [self.incomplete_min_us + rng.exponential(self.incomplete_extra_us)]
            complete, code = False, 0
        else:
            complete, code, segments = True, 0, self.monolevel
            if self.p_bilevel is not None and rng.random() < self.p_bilevel:
                code = 1 if rng.random() < self.three_prime_first else 2
                segments = self.bilevel[code]
            levels, durations = [], []
            for mean, sd, dwell_us in segments:
                levels.append(_truncated_normal(rng, mean, sd))
                if self.jitter is not None:
                    dwell_us *= rng.lognormal(*self.jitter)
                durations.append(dwell_us)
        for level, duration_us in zip(levels, durations):
            _check_substate(level, duration_us)
        return complete, code, levels, durations


def sample_event(
    molecule: MoleculeSpec,
    config: ChannelConfig,
    calib: CalibrationTable,
    rng: np.random.Generator,
    t_start_s: float = 0.0,
) -> EventTable:
    """Draw one translocation event at the configured operating point, as a
    one-row table on pore 0.

    With probability (1 - complete fraction) the molecule only enters the
    vestibule and returns: a single shallow substate with a short dwell.
    Completed translocations are bi-level (two substates ordered by entry
    direction, levels from the per-segment calibrated statistics) when the
    bias is at/above the bi-level threshold, for a two-segment molecule;
    otherwise a single level drawn around the voltage-dependent mean
    blockage.  The calibrated bilevel_fraction is the share of bi-level
    events among ALL events, so the conditional probability given a
    complete event is bilevel_fraction / complete_fraction.  ``pore_events``
    draws each of its events the same way, from one ``_EventSampler``.
    """
    complete, code, levels, durations = _EventSampler(molecule, config, calib).draw(rng)
    return EventTable.from_columns(
        [0], [t_start_s], [complete], [code], [len(levels)], levels, durations
    )


# --- per-pore processes ----------------------------------------------------


def _pore_rng(seed: int, pore: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0, pore]))


def _noise_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def _normalize_clogs(
    clogs: ClogSchedule | None, n_pores: int, duration_s: float
) -> dict[int, tuple[tuple[float, float], ...]]:
    out: dict[int, tuple[tuple[float, float], ...]] = {}
    if not clogs:
        return out
    for pore, intervals in clogs.items():
        if not 0 <= pore < n_pores:
            raise SimulationError(f"clog pore index {pore} outside 0..{n_pores - 1}")
        cleaned = []
        for start, end in intervals:
            start, end = float(start), float(end)
            if not -math.inf < start < end < math.inf:
                raise SimulationError(
                    f"clog interval on pore {pore} must be finite with start < end, "
                    f"got {start}:{end}"
                )
            start, end = max(0.0, start), min(end, duration_s)
            if start < end:  # else outside the trace
                cleaned.append((start, end))
        cleaned.sort()
        for (_, e0), (s1, _) in zip(cleaned, cleaned[1:]):
            if s1 < e0:
                raise SimulationError(f"overlapping clog intervals on pore {pore}")
        if cleaned:
            out[pore] = tuple(cleaned)
    return out


def _overlaps(start: float, end: float, intervals) -> bool:
    return any(start < e and s < end for s, e in intervals)


def _union_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def pore_events(
    molecule: MoleculeSpec,
    config: ChannelConfig,
    calib: CalibrationTable,
    seed: int,
    pore: int,
    duration_s: float,
    clog_intervals: Sequence[tuple[float, float]] = (),
) -> EventTable:
    """Events for one pore substream; independent of other pores.

    Arrivals form a Poisson process at the calibrated capture rate;
    arrivals while the pore is occupied (by an earlier blockade or a clog
    interval) are discarded, and events that would be clipped by the trace
    end are dropped so the ground truth matches the rendered trace.
    """
    # Typed arrays, not lists: a few bytes per event rather than an object.
    starts, levels, durations = array("d"), array("d"), array("d")
    completes, codes, counts = array("b"), array("b"), array("q")
    if config.voltage_mv > 0:
        mean_gap_s = 1.0 / capture_rate(config.voltage_mv, calib)
        draw = _EventSampler(molecule, config, calib).draw
        rng = _pore_rng(seed, pore)
        busy_until = 0.0
        t = 0.0
        while True:
            t += rng.exponential(mean_gap_s)
            if t >= duration_s:
                break
            if t < busy_until:
                continue  # arrived during a blockade: discarded
            complete, code, event_levels, event_durations = draw(rng)
            t_end = t + sum(event_durations) * 1e-6
            if t_end > duration_s:
                continue
            if clog_intervals and _overlaps(t, t_end, clog_intervals):
                continue  # pore is (or becomes) persistently clogged
            busy_until = t_end
            starts.append(t)
            completes.append(complete)
            codes.append(code)
            counts.append(len(event_levels))
            levels.extend(event_levels)
            durations.extend(event_durations)
    return EventTable.from_columns(
        np.full(len(starts), pore), starts, completes, codes, counts, levels, durations
    )


def _gating_closed_intervals(
    calib: CalibrationTable, rng: np.random.Generator, duration_s: float
) -> list[tuple[float, float]]:
    open_mean = calib.gating_open_dwell_ms * 1e-3
    closed_mean = calib.gating_closed_dwell_ms * 1e-3
    is_open = rng.random() < open_mean / (open_mean + closed_mean)
    t = 0.0
    closed: list[tuple[float, float]] = []
    while t < duration_s:
        dwell = rng.exponential(open_mean if is_open else closed_mean)
        if not is_open:
            closed.append((t, min(t + dwell, duration_s)))
        t += dwell
        is_open = not is_open
    return closed


# --- trace synthesis -------------------------------------------------------


def _sample_slices(
    t_start: np.ndarray, t_end: np.ndarray, rate: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first sample of each span and the first past it, within the trace."""
    i0 = np.maximum(np.ceil(t_start * rate - 1e-9), 0).astype(np.int64)
    i1 = np.minimum(np.ceil(t_end * rate - 1e-9), n).astype(np.int64)
    return i0, i1


def _noise_blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    """The first ``n`` draws of ``_noise_rng(seed).standard_normal()``, in
    blocks of ``_CHUNK``, one per chunk of a synthesized trace, each valid
    until the next is asked for.

    A worker thread, started when the first block is asked for, draws them
    into three buffers that rotate (one being added to a chunk, one ready
    in a queue of depth 1, one being drawn), so up to two chunks ahead:
    ``standard_normal(out=...)`` releases the GIL, so the draw runs beside
    the caller's work on the chunk before.  The worker is joined however
    the pass ends, and an error it raises is raised here, once.
    """
    buffers = np.empty((3, min(_CHUNK, n)))
    ready: queue.Queue = queue.Queue(maxsize=1)
    stop = threading.Event()

    def draw() -> None:
        try:
            rng = _noise_rng(seed)
            for i, start in enumerate(range(0, n, _CHUNK)):
                if stop.is_set():
                    return
                ready.put(rng.standard_normal(out=buffers[i % 3, : n - start]))
        except Exception as exc:  # handed to the consumer, which raises it
            ready.put(exc)

    # A daemon, so that a pass its caller never closes cannot keep the
    # process from exiting.
    worker = threading.Thread(target=draw, name="molstore-noise", daemon=True)
    worker.start()
    try:
        for _ in range(0, n, _CHUNK):
            block = ready.get()
            if isinstance(block, Exception):
                raise block
            yield block
    finally:
        stop.set()
        # Frees the worker if it is blocked putting a block: after `stop`
        # it puts at most one more, into the emptied queue.
        with contextlib.suppress(queue.Empty):
            ready.get_nowait()
        worker.join()


@dataclass(eq=False)
class SynthesizedTrace(ChunkedTrace):
    """A simulated trace, produced in chunks of ``_CHUNK`` samples.

    Each chunk starts at the all-pores-open current and has every segment
    overlapping it subtracted, in the order given: segment j lowers samples
    ``starts[j]`` to ``stops[j] - 1`` by ``drops[j]`` pA, so samples where
    segments overlap round the same whatever the chunking.  Then it gets
    one block of the one noise stream and runs through the low-pass
    filter, whose state is carried across chunks.  The noise is drawn on a
    second thread, up to two chunks ahead of the chunk that uses it, from
    the same single stream in the same order (``_noise_blocks``), so
    chunked noise and chunked filtering equal whole-array ``normal`` and
    ``lfilter`` calls bit for bit.  Every ``chunks()`` pass restarts the
    noise from the seed; a noiseless pass starts no thread.
    """

    sample_rate_hz: float
    n_samples: int
    open_total_pa: float
    starts: np.ndarray
    stops: np.ndarray
    drops: np.ndarray
    noise_sigma_pa: float
    seed: int
    cutoff_hz: float | None

    def __len__(self) -> int:
        return self.n_samples

    def chunks(self) -> Iterator[np.ndarray]:
        if self.cutoff_hz is not None:
            from scipy.signal import lfilter

            alpha = 1.0 - math.exp(-2.0 * math.pi * self.cutoff_hz / self.sample_rate_hz)
            zi = np.zeros(1)
        step = _CHUNK
        segments, bounds = self._segments_by_chunk(step)
        # Closed on every exit, which joins the noise worker if one started.
        with contextlib.closing(_noise_blocks(self.seed, self.n_samples)) as noise:
            for k, c0 in enumerate(range(0, self.n_samples, step)):
                c1 = min(c0 + step, self.n_samples)
                chunk = np.full(c1 - c0, self.open_total_pa, dtype=np.float64)
                rows = segments[bounds[k] : bounds[k + 1]]
                for i0, i1, drop_pa in zip(
                    *(a[rows].tolist() for a in (self.starts, self.stops, self.drops))
                ):
                    chunk[max(i0, c0) - c0 : min(i1, c1) - c0] -= drop_pa
                if self.noise_sigma_pa > 0:
                    block = next(noise)  # normal(0, sigma) draws sigma * standard normal
                    try:
                        with np.errstate(over="raise", invalid="raise"):
                            chunk += np.multiply(block, self.noise_sigma_pa, out=block)
                    except FloatingPointError:
                        raise SimulationError(
                            f"noise_sigma_pa {self.noise_sigma_pa:g} overflows the current"
                        ) from None
                if self.cutoff_hz is not None:
                    chunk, zi = lfilter([alpha], [1.0, alpha - 1.0], chunk, zi=zi)
                yield chunk

    def _segments_by_chunk(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """The segments that chunk k of ``step`` samples overlaps, in their
        given order, are ``segments[bounds[k] : bounds[k + 1]]``."""
        first = self.starts // step
        counts = np.where(self.stops > self.starts, (self.stops - 1) // step - first + 1, 0)
        # Segment j is listed once for each chunk it touches, from its first.
        chunk_of = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        order = np.argsort(chunk_of, kind="stable")
        segments = np.repeat(np.arange(counts.size), counts)[order]
        n_chunks = len(range(0, self.n_samples, step))
        return segments, np.searchsorted(chunk_of[order], np.arange(n_chunks + 1))


@dataclass(eq=False)
class SimulationResult:
    """Synthesized trace plus the ground truth that produced it."""

    trace: SynthesizedTrace
    events: EventTable  # sorted by start time, then pore
    clogs: dict[int, tuple[tuple[float, float], ...]] = field(default_factory=dict)
    gating: bool = False


def simulate(
    molecule: MoleculeSpec,
    config: ChannelConfig,
    duration_s: float,
    calib: CalibrationTable,
    seed: int,
    clogs: ClogSchedule | None = None,
) -> SimulationResult:
    """Synthesize a multi-pore current trace with its ground-truth log.

    Each pore runs an independent arrival process seeded from (seed, pore),
    so results do not depend on the order pores are evaluated in.  Pores
    held clogged (via ``clogs`` intervals, or spontaneously while gating at
    high salt) sit at the clogged residual current and capture nothing.
    The events are drawn here; the samples are made chunk by chunk on each
    pass over ``result.trace.chunks()``.
    """
    if not 0 < duration_s < math.inf:
        raise SimulationError(f"duration_s must be finite and > 0, got {duration_s}")
    if seed < 0:
        raise SimulationError("seed must be a non-negative integer")
    rate = float(config.sample_rate_hz)
    if duration_s * rate > MAX_SAMPLES:
        raise SimulationError(
            f"duration_s {duration_s:g} at {rate:g} Hz is more than {MAX_SAMPLES:g} samples"
        )
    n = int(duration_s * rate)
    open_pa = open_current(config.voltage_mv, config.kcl_molar, calib)
    clog_map = _normalize_clogs(clogs, config.n_pores, duration_s)
    gating = gating_active(config.kcl_molar, calib)

    tables: list[EventTable] = []
    pore_s = duration_s * config.n_pores
    if gating:
        shortest_ms = min(calib.gating_open_dwell_ms, calib.gating_closed_dwell_ms)
        if pore_s * 1e3 / shortest_ms > MAX_GATING_DWELLS:
            raise SimulationError(
                f"gating dwells of {shortest_ms:g} ms over {pore_s:g} pore-seconds "
                f"would number more than {MAX_GATING_DWELLS:g}"
            )
        for pore in range(config.n_pores):
            closed = _gating_closed_intervals(calib, _pore_rng(seed, pore), duration_s)
            merged = _union_intervals(list(clog_map.get(pore, ())) + closed)
            if merged:
                clog_map[pore] = tuple(merged)
    elif config.voltage_mv > 0:
        expected = capture_rate(config.voltage_mv, calib) * pore_s
        if expected > MAX_EVENTS:
            raise SimulationError(
                f"{expected:.3g} expected events over {pore_s:g} pore-seconds "
                f"are more than {MAX_EVENTS:g}"
            )
        tables = [
            pore_events(molecule, config, calib, seed, pore, duration_s, clog_map.get(pore, ()))
            for pore in range(config.n_pores)
        ]
    events = tables[0] if len(tables) == 1 else EventTable.concatenate(tables)
    del tables

    # Segments in pore-major event order, then the clogs: where segments
    # overlap, the order they are subtracted in sets how samples round.
    spans = np.array([span for pore_spans in clog_map.values() for span in pore_spans])
    spans = spans.reshape(-1, 2)
    event_i0, event_i1 = _sample_slices(*events.substate_spans_s(), rate, n)
    clog_i0, clog_i1 = _sample_slices(spans[:, 0], spans[:, 1], rate, n)
    starts = np.concatenate((event_i0, clog_i0))
    stops = np.concatenate((event_i1, clog_i1))
    drops = np.concatenate((
        open_pa * (1.0 - events.levels),
        np.full(len(spans), open_pa - calib.clogged_current_pa),
    ))
    cutoff_hz = None if config.bandwidth_khz is None else config.bandwidth_khz * 1e3
    trace = SynthesizedTrace(
        rate, n, open_pa * config.n_pores, starts, stops, drops, config.noise_sigma_pa, seed,
        cutoff_hz,
    )

    return SimulationResult(
        trace=trace,
        events=events.take(np.lexsort((events.pore, events.t_start_s))),
        clogs=clog_map,
        gating=gating,
    )

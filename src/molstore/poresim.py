"""Translocation event sampling and ionic-current trace synthesis.

Events are drawn from the calibrated statistics (bi-level fraction, entry
direction, normalized blockade levels, voltage-scaled dwell times) and laid
onto per-pore Poisson arrival processes.  Multi-pore traces are the sum of
independent pores plus Gaussian noise; all randomness derives from one
explicit seed so runs are reproducible bit for bit.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

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
        return cls(tuple(seq.runs()))

    def __str__(self) -> str:
        return "".join(f"{base}{count}" for base, count in self.segments)


class Substate(NamedTuple):
    """One blockade level: normalized residual current and its duration."""

    level: float       # I_blocked / I_open, in (0, 1)
    duration_us: float


@dataclass(frozen=True)
class TranslocationEvent:
    """One pore blockade, possibly with two current substates."""

    t_start_s: float
    substates: tuple[Substate, ...]
    complete: bool
    orientation: Orientation = Orientation.UNKNOWN

    def __post_init__(self):
        if not self.substates:
            raise SimulationError("event needs at least one substate")
        for sub in self.substates:
            if not 0.0 < sub.level < 1.0:
                raise SimulationError(f"substate level {sub.level} outside (0, 1)")
            if sub.duration_us <= 0.0:
                raise SimulationError("substate duration must be > 0")

    @property
    def duration_us(self) -> float:
        return sum(sub.duration_us for sub in self.substates)

    @property
    def mean_level(self) -> float:
        total = self.duration_us
        return sum(s.level * s.duration_us for s in self.substates) / total


# Samples per chunk of a synthesized trace, and per chunk a held trace
# hands to the trace writers; bounds their working memory.
_CHUNK = 1 << 18


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


class PoreEvent(NamedTuple):
    pore: int
    event: TranslocationEvent


ClogSchedule = Mapping[int, Sequence[tuple[float, float]]]


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
    # Rejection sampling onto the open interval (0, 1).
    for _ in range(_MAX_LEVEL_DRAWS):
        x = rng.normal(mean, sd)
        if 0.0 < x < 1.0:
            return x
    raise SimulationError(
        f"no blockade level in (0, 1) after {_MAX_LEVEL_DRAWS} draws "
        f"from normal({mean:g}, {sd:g})"
    )


def _duration_jitter(rng: np.random.Generator, cv: float) -> float:
    if cv <= 0.0:
        return 1.0
    sigma2 = math.log(1.0 + cv * cv)
    # mean of the multiplier is exactly 1
    return rng.lognormal(mean=-0.5 * sigma2, sigma=math.sqrt(sigma2))


def _bilevel_possible(molecule: MoleculeSpec, calib: CalibrationTable) -> bool:
    if len(molecule.segments) != 2:
        return False
    for base, _ in molecule.segments:
        for end in (THREE_PRIME, FIVE_PRIME):
            if calib.level_for(base.value, end) is None:
                return False
    return True


def sample_event(
    molecule: MoleculeSpec,
    config: ChannelConfig,
    calib: CalibrationTable,
    rng: np.random.Generator,
    t_start_s: float = 0.0,
) -> TranslocationEvent:
    """Draw one translocation event at the configured operating point.

    With probability (1 - complete fraction) the molecule only enters the
    vestibule and returns: a single shallow substate with a short dwell.
    Completed translocations are bi-level (two substates ordered by entry
    direction, levels from the per-segment calibrated statistics) when the
    bias is at/above the bi-level threshold, for a two-segment molecule;
    otherwise a single level drawn around the voltage-dependent mean
    blockage.  The calibrated bilevel_fraction is the share of bi-level
    events among ALL events, so the conditional probability given a
    complete event is bilevel_fraction / complete_fraction.
    """
    voltage = config.voltage_mv
    if voltage <= 0:
        raise SimulationError("sample_event requires a positive trans bias")
    frac_complete = complete_fraction(voltage, calib)
    if rng.random() >= frac_complete:
        level = rng.uniform(calib.incomplete_level_low, calib.incomplete_level_high)
        duration = calib.incomplete_min_duration_us + rng.exponential(
            calib.incomplete_mean_duration_us - calib.incomplete_min_duration_us
        )
        return TranslocationEvent(
            t_start_s, (Substate(level, duration),), complete=False
        )

    dwell_scale = calib.base_dwell_us * calib.ref_voltage_mv / voltage
    cv = calib.duration_jitter_cv
    bilevel_ok = voltage >= calib.bilevel_min_voltage_mv and _bilevel_possible(
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
            subs.append(Substate(level, count * dwell_scale * _duration_jitter(rng, cv)))
        return TranslocationEvent(
            t_start_s, tuple(subs), complete=True, orientation=orientation
        )

    level = _truncated_normal(
        rng, 1.0 - monolevel_blockage(voltage, calib), calib.monolevel_sigma
    )
    duration = molecule.total_bases * dwell_scale * _duration_jitter(rng, cv)
    return TranslocationEvent(t_start_s, (Substate(level, duration),), complete=True)


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
) -> list[TranslocationEvent]:
    """Events for one pore substream; independent of other pores.

    Arrivals form a Poisson process at the calibrated capture rate;
    arrivals while the pore is occupied (by an earlier blockade or a clog
    interval) are discarded, and events that would be clipped by the trace
    end are dropped so the ground truth matches the rendered trace.
    """
    voltage = config.voltage_mv
    if voltage <= 0:
        return []
    rate = capture_rate(voltage, calib)
    rng = _pore_rng(seed, pore)
    events: list[TranslocationEvent] = []
    busy_until = 0.0
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration_s:
            break
        if t < busy_until:
            continue  # arrived during a blockade: discarded
        event = sample_event(molecule, config, calib, rng, t_start_s=t)
        t_end = t + event.duration_us * 1e-6
        if t_end > duration_s:
            continue
        if _overlaps(t, t_end, clog_intervals):
            continue  # pore is (or becomes) persistently clogged
        busy_until = t_end
        events.append(event)
    return events


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


def _sample_slice(t_start: float, t_end: float, rate: float, n: int) -> tuple[int, int]:
    i0 = max(0, math.ceil(t_start * rate - 1e-9))
    i1 = min(n, math.ceil(t_end * rate - 1e-9))
    return i0, i1


@dataclass(eq=False)
class SynthesizedTrace(ChunkedTrace):
    """A simulated trace, produced in chunks of ``_CHUNK`` samples.

    Each chunk starts at the all-pores-open current and has every segment
    ``(first sample, end sample, pA)`` overlapping it subtracted, in the
    order given, so samples where segments overlap round the same whatever
    the chunking.  Then it gets its share of the one noise stream and runs
    through the low-pass filter, whose state is carried across chunks.
    Chunked noise draws and chunked filtering equal whole-array ones bit
    for bit.  Every ``chunks()`` pass restarts the noise from the seed.
    """

    sample_rate_hz: float
    n_samples: int
    open_total_pa: float
    segments: list[tuple[int, int, float]]
    noise_sigma_pa: float
    seed: int
    cutoff_hz: float | None

    def __post_init__(self):
        self.segments = [seg for seg in self.segments if seg[0] < seg[1]]
        self._starts = np.array([seg[0] for seg in self.segments], dtype=np.int64)
        self._stops = np.array([seg[1] for seg in self.segments], dtype=np.int64)

    def __len__(self) -> int:
        return self.n_samples

    def chunks(self) -> Iterator[np.ndarray]:
        noise = _noise_rng(self.seed) if self.noise_sigma_pa > 0 else None
        draws = np.empty(min(_CHUNK, self.n_samples), dtype=np.float64)
        if self.cutoff_hz is not None:
            from scipy.signal import lfilter

            alpha = 1.0 - math.exp(-2.0 * math.pi * self.cutoff_hz / self.sample_rate_hz)
            zi = np.zeros(1)
        for c0 in range(0, self.n_samples, _CHUNK):
            c1 = min(c0 + _CHUNK, self.n_samples)
            chunk = np.full(c1 - c0, self.open_total_pa, dtype=np.float64)
            overlapping = (self._starts < c1) & (self._stops > c0)
            for j in np.flatnonzero(overlapping).tolist():
                i0, i1, drop_pa = self.segments[j]
                chunk[max(i0, c0) - c0 : min(i1, c1) - c0] -= drop_pa
            if noise is not None:
                # The draws normal(0, sigma) makes, sigma * standard normal,
                # without allocating a new array per chunk.
                part = noise.standard_normal(out=draws[: c1 - c0])
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        part *= self.noise_sigma_pa
                        chunk += part
                except FloatingPointError:
                    raise SimulationError(
                        f"noise_sigma_pa {self.noise_sigma_pa:g} overflows the current"
                    ) from None
            if self.cutoff_hz is not None:
                chunk, zi = lfilter([alpha], [1.0, alpha - 1.0], chunk, zi=zi)
            yield chunk


@dataclass(eq=False)
class SimulationResult:
    """Synthesized trace plus the ground truth that produced it."""

    trace: SynthesizedTrace
    events: tuple[PoreEvent, ...]
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
    n = int(duration_s * rate)
    open_pa = open_current(config.voltage_mv, config.kcl_molar, calib)
    clog_map = _normalize_clogs(clogs, config.n_pores, duration_s)
    gating = gating_active(config.kcl_molar, calib)

    all_events: list[PoreEvent] = []
    if gating:
        for pore in range(config.n_pores):
            closed = _gating_closed_intervals(calib, _pore_rng(seed, pore), duration_s)
            merged = _union_intervals(list(clog_map.get(pore, ())) + closed)
            if merged:
                clog_map[pore] = tuple(merged)
    elif config.voltage_mv > 0:
        for pore in range(config.n_pores):
            for event in pore_events(
                molecule, config, calib, seed, pore, duration_s, clog_map.get(pore, ())
            ):
                all_events.append(PoreEvent(pore, event))

    segments: list[tuple[int, int, float]] = []
    for _, event in all_events:
        t = event.t_start_s
        for level, dur_us in event.substates:
            t_end = t + dur_us * 1e-6
            segments.append((*_sample_slice(t, t_end, rate, n), open_pa * (1.0 - level)))
            t = t_end
    for intervals in clog_map.values():
        for start, end in intervals:
            segments.append(
                (*_sample_slice(start, end, rate, n), open_pa - calib.clogged_current_pa)
            )
    cutoff_hz = None if config.bandwidth_khz is None else config.bandwidth_khz * 1e3
    trace = SynthesizedTrace(
        rate, n, open_pa * config.n_pores, segments, config.noise_sigma_pa, seed, cutoff_hz
    )

    all_events.sort(key=lambda pe: (pe.event.t_start_s, pe.pore))
    return SimulationResult(
        trace=trace,
        events=tuple(all_events),
        clogs=clog_map,
        gating=gating,
    )

"""Operating point and measured-statistics calibration for the pore model.

CalibrationTable holds every tabulated quantity the simulator and reader
depend on: the current-voltage curve of an open channel, per-pore event
rates, blockade level statistics per segment and entry direction, gating
parameters, and dwell-time constants.  All defaults can be overridden from
a flat key-value text file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, NamedTuple


class CalibrationError(ValueError):
    """Invalid calibration data or file contents."""


class RangeError(CalibrationError):
    """A lookup fell outside the tabulated range (no extrapolation)."""


class ParamError(CalibrationError):
    """A measurement setting that is not finite or outside its range."""


class LevelStats(NamedTuple):
    """Normalized blockade level (I_blocked/I_open) mean and spread."""

    mean: float
    sd: float


# Entry-direction keys used in level_stats; poresim.Orientation maps onto
# these strings.
THREE_PRIME = "3prime"
FIVE_PRIME = "5prime"


def _default_level_stats() -> dict[tuple[str, str], LevelStats]:
    return {
        ("C", THREE_PRIME): LevelStats(0.37, 0.09),
        ("A", THREE_PRIME): LevelStats(0.17, 0.04),
        ("C", FIVE_PRIME): LevelStats(0.20, 0.03),
        ("A", FIVE_PRIME): LevelStats(0.12, 0.04),
    }


# The highest sample rate of a channel or a trace file, whose lowest is
# 1 Hz: far past any amplifier, and a 1 ms census block of it still fits
# an int64 index (as, at 1 Hz or more, the microseconds of a trace fit a
# float64).
MAX_SAMPLE_RATE_HZ = 10**12
# The most pores a channel or a census holds: its largest census state
# fits a uint16.
MAX_PORES = 2**16 - 1


@dataclass(frozen=True)
class ChannelConfig:
    """Buffer, bias, and acquisition settings for one measurement."""

    voltage_mv: float = 210.0          # trans-positive bias
    kcl_molar: float = 1.0
    bandwidth_khz: float | None = None  # None: low-pass filter disabled
    sample_rate_hz: int = 1_000_000
    noise_sigma_pa: float = 5.0
    n_pores: int = 1

    def __post_init__(self):
        if not math.isfinite(self.voltage_mv):
            raise ParamError(f"voltage_mv must be finite, got {self.voltage_mv}")
        if not 0 < self.kcl_molar < math.inf:
            raise ParamError(f"kcl_molar must be finite and > 0, got {self.kcl_molar}")
        if not 1 <= self.sample_rate_hz <= MAX_SAMPLE_RATE_HZ:
            raise ParamError(f"sample_rate_hz must be in [1, {MAX_SAMPLE_RATE_HZ:g}]")
        if not 0 <= self.noise_sigma_pa < math.inf:
            raise ParamError(
                f"noise_sigma_pa must be finite and >= 0, got {self.noise_sigma_pa}"
            )
        if not 1 <= self.n_pores <= MAX_PORES:
            raise ParamError(f"n_pores must be in [1, {MAX_PORES}], got {self.n_pores}")
        if self.bandwidth_khz is not None and not 0 < self.bandwidth_khz < math.inf:
            raise ParamError(
                f"bandwidth_khz must be finite and > 0 when set, got {self.bandwidth_khz}"
            )


@dataclass(frozen=True)
class CalibrationTable:
    """Measured operating curves and event statistics at 1 M KCl reference.

    iv_points and event_rate_points are interpolated piecewise-linearly and
    never extrapolated.  monolevel_blockage_points is clamped at the table
    edges so event synthesis stays defined across the full bias range.
    """

    # (voltage mV, open current pA); must include (0, 0) and be increasing.
    iv_points: tuple[tuple[float, float], ...] = (
        (-210.0, -200.0),
        (0.0, 0.0),
        (90.0, 90.0),
        (120.0, 130.0),
        (150.0, 160.0),
        (210.0, 250.0),
    )
    clogged_current_pa: float = 30.0
    # (voltage mV, events/s/pore, complete fraction); increasing rate.
    event_rate_points: tuple[tuple[float, float, float], ...] = (
        (90.0, 2.0, 0.40),
        (120.0, 3.5, 0.40),
        (150.0, 10.6, 0.40),
        (210.0, 21.0, 0.40),
    )
    base_dwell_us: float = 1.0          # per base at ref_voltage_mv
    ref_voltage_mv: float = 210.0
    bilevel_min_voltage_mv: float = 210.0
    bilevel_fraction: float = 0.29      # share of ALL events that are bi-level
    three_prime_first_fraction: float = 0.75
    level_stats: Mapping[tuple[str, str], LevelStats] = field(
        default_factory=_default_level_stats
    )
    gating_threshold_molar: float = 1.5  # boundary inclusive
    gating_open_dwell_ms: float = 20.0
    gating_closed_dwell_ms: float = 20.0
    # (voltage mV, mean fractional blockage); strictly decreasing.
    monolevel_blockage_points: tuple[tuple[float, float], ...] = (
        (90.0, 0.85),
        (120.0, 0.80),
        (150.0, 0.75),
        (210.0, 0.65),
    )
    monolevel_sigma: float = 0.05
    incomplete_level_low: float = 0.30
    incomplete_level_high: float = 0.60
    incomplete_min_duration_us: float = 10.0
    incomplete_mean_duration_us: float = 25.0
    duration_jitter_cv: float = 0.10

    def __post_init__(self):
        volts = [v for v, _ in self.iv_points]
        amps = [i for _, i in self.iv_points]
        if (0.0, 0.0) not in self.iv_points:
            raise CalibrationError("iv_points must contain (0, 0)")
        if sorted(volts) != volts or any(b <= a for a, b in zip(amps, amps[1:])):
            raise CalibrationError("iv_points must be strictly increasing")
        rates = [r for _, r, _ in self.event_rate_points]
        rate_volts = [v for v, _, _ in self.event_rate_points]
        if sorted(rate_volts) != rate_volts or any(
            b <= a for a, b in zip(rates, rates[1:])
        ):
            raise CalibrationError("event_rate_points must be strictly increasing")
        if not all(rate > 0 for rate in rates):
            raise CalibrationError("event_rate_points rates must be > 0")
        for (base, end), stats in self.level_stats.items():
            if not (0.0 < stats.mean < 1.0 and 0.0 < stats.sd < math.inf):
                raise CalibrationError(
                    f"level stats for ({base}, {end}) need mean in (0,1), finite sd > 0"
                )
        blockages = [b for _, b in self.monolevel_blockage_points]
        if any(later >= earlier for earlier, later in zip(blockages, blockages[1:])):
            raise CalibrationError(
                "monolevel_blockage_points must be strictly decreasing in voltage"
            )
        if not all(0.0 < b < 1.0 for b in blockages):
            raise CalibrationError("monolevel blockages must be in (0, 1)")
        if not self.monolevel_sigma >= 0.0:
            raise CalibrationError("monolevel_sigma must be >= 0")
        for name, default in field_defaults(CalibrationTable).items():
            value = getattr(self, name)
            rows = value if isinstance(default, tuple) else [[value]]
            if not all(math.isfinite(x) for row in rows for x in row):
                raise CalibrationError(f"{name} must be finite")
        if not self.clogged_current_pa < max(amps):
            raise CalibrationError(
                "clogged_current_pa must be below the largest open current in iv_points"
            )
        if not 0.0 <= self.bilevel_fraction <= 1.0:
            raise CalibrationError("bilevel_fraction must be in [0, 1]")
        if not 0.0 <= self.three_prime_first_fraction <= 1.0:
            raise CalibrationError("three_prime_first_fraction must be in [0, 1]")
        for name in ("base_dwell_us", "ref_voltage_mv", "gating_open_dwell_ms",
                     "gating_closed_dwell_ms"):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be > 0")
        if not 0.0 <= self.incomplete_level_low < self.incomplete_level_high <= 1.0:
            raise CalibrationError("incomplete level band must satisfy 0 <= low < high <= 1")
        if self.incomplete_mean_duration_us <= self.incomplete_min_duration_us:
            raise CalibrationError("incomplete mean duration must exceed the minimum")
        if self.duration_jitter_cv < 0:
            raise CalibrationError("duration_jitter_cv must be >= 0")

    def level_for(self, base: str, entry_end: str) -> LevelStats | None:
        return self.level_stats.get((str(base), entry_end))

    def replace(self, **overrides) -> "CalibrationTable":
        return replace(self, **overrides)


def _read_value(text: str, default: object) -> object:
    """Read ``text`` in the shape of ``default``: a number, an ``a:b`` entry
    or a whitespace-separated table of entries shaped like its first one."""
    if isinstance(default, tuple) and isinstance(default[0], tuple):
        if not text:
            raise ValueError("empty table")
        return tuple(_read_value(entry, default[0]) for entry in text.split())
    if isinstance(default, tuple):
        parts = text.split(":")
        if len(parts) != len(default) or len(text.split()) != 1:
            raise ValueError(f"want {len(default)} numbers joined by ':', got {text!r}")
        return tuple(_read_value(part, x) for part, x in zip(parts, default))
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {text!r}")
    if isinstance(default, int) and not number.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(number) if isinstance(default, int) else number


def _fmt(value) -> str:
    """Write a value for ``_read_value``: a number as ``%g`` when that reads
    back as the same float, else as its exact ``repr``."""
    if isinstance(value, tuple):
        return (" " if isinstance(value[0], tuple) else ":").join(map(_fmt, value))
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def parse_key_values(
    text: str, defaults: Mapping[str, object], error: type[Exception]
) -> dict[str, object]:
    """Read flat ``key = value`` lines into values shaped like ``defaults``.

    ``#`` starts a comment and blank lines are skipped.  Keys are
    lowercased, must be in ``defaults`` and take the last value given.
    Every number must be finite, and where the default is an int the value
    must be integral.  Errors are raised as ``error`` and name the line.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip().lower()
        if not eq:
            raise error(f"line {lineno}: expected key = value, got {raw!r}")
        if key not in defaults:
            raise error(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _read_value(value.strip(), defaults[key])
        except ValueError as exc:
            raise error(f"line {lineno}: {key}: {exc}") from None
    return values


def field_defaults(cls) -> dict[str, object]:
    """The number and table defaults of a dataclass, keyed by field name."""
    return {
        f.name: f.default for f in fields(cls) if isinstance(f.default, (int, float, tuple))
    }


_LEVEL_KEYS = [f"level_{b}_{end}" for b in "acgt" for end in (THREE_PRIME, FIVE_PRIME)]


def parse_calibration(text: str) -> CalibrationTable:
    """Build a table from flat ``key = value`` lines, overriding the defaults.

    Keys are the table's field names plus ``level_<a|c|g|t>_<3prime|5prime>``
    with a ``mean:sd`` value; see ``parse_key_values`` for the grammar.
    """
    table = CalibrationTable()
    keys = dict.fromkeys(_LEVEL_KEYS, LevelStats(0.5, 0.1))
    keys.update(field_defaults(CalibrationTable))
    values = parse_key_values(text, keys, CalibrationError)
    levels = dict(table.level_stats)
    for key in [key for key in values if key in _LEVEL_KEYS]:
        _, nucleotide, end = key.split("_")
        levels[nucleotide.upper(), end] = LevelStats(*values.pop(key))
    return table.replace(level_stats=levels, **values)


def read_text(path: str) -> str:
    """The UTF-8 text of a file; other bytes are a CalibrationError naming
    the first offset that does not decode."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CalibrationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def load_calibration(path: str) -> CalibrationTable:
    return parse_calibration(read_text(path))


def format_calibration(table: CalibrationTable) -> str:
    """Serialize a table to the flat key-value format (round-trips): the
    tables in field order, then the scalars sorted, then the levels.

    A file can override or add a level but not remove a default one, so a
    table that lacks one is refused with a CalibrationError naming it.
    """
    missing = sorted(set(_default_level_stats()) - set(table.level_stats))
    if missing:
        base, end = missing[0]
        raise CalibrationError(
            f"level_{base.lower()}_{end} is missing: a calibration file cannot remove "
            "a default level"
        )
    defaults = field_defaults(CalibrationTable)
    tables = [name for name, value in defaults.items() if isinstance(value, tuple)]
    lines = [
        f"{name} = {_fmt(getattr(table, name))}"
        for name in tables + sorted(set(defaults) - set(tables))
    ]
    lines.extend(
        f"level_{base.lower()}_{end} = {_fmt(stats)}"
        for (base, end), stats in sorted(table.level_stats.items())
    )
    return "\n".join(lines) + "\n"

"""Operating point and measured-statistics calibration for the pore model.

CalibrationTable holds every tabulated quantity the simulator and reader
depend on: the current-voltage curve of an open channel, per-pore event
rates, blockade level statistics per segment and entry direction, gating
parameters, and dwell-time constants.  All defaults can be overridden from
a flat key-value text file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
        if self.sample_rate_hz <= 0:
            raise ParamError("sample_rate_hz must be > 0")
        if not 0 <= self.noise_sigma_pa < math.inf:
            raise ParamError(
                f"noise_sigma_pa must be finite and >= 0, got {self.noise_sigma_pa}"
            )
        if self.n_pores < 1:
            raise ParamError("n_pores must be >= 1")
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
        for (base, end), stats in self.level_stats.items():
            if not 0.0 < stats.mean < 1.0 or stats.sd <= 0.0:
                raise CalibrationError(
                    f"level stats for ({base}, {end}) must have mean in (0,1), sd > 0"
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
        if not 0.0 <= self.bilevel_fraction <= 1.0:
            raise CalibrationError("bilevel_fraction must be in [0, 1]")
        if not 0.0 <= self.three_prime_first_fraction <= 1.0:
            raise CalibrationError("three_prime_first_fraction must be in [0, 1]")
        if self.base_dwell_us <= 0 or self.ref_voltage_mv <= 0:
            raise CalibrationError("dwell and reference voltage must be > 0")
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


def _number(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise CalibrationError(f"{key}: not a number: {text!r}") from exc


def _parse_pairs(text: str, arity: int, key: str) -> tuple[tuple[float, ...], ...]:
    out = []
    for chunk in text.split():
        parts = chunk.split(":")
        if len(parts) != arity:
            raise CalibrationError(
                f"{key}: expected {arity} colon-separated numbers per entry, got {chunk!r}"
            )
        out.append(tuple(_number(p, key) for p in parts))
    if not out:
        raise CalibrationError(f"{key}: empty table")
    return tuple(out)


_SCALARS = {
    "clogged_current_pa",
    "base_dwell_us",
    "ref_voltage_mv",
    "bilevel_min_voltage_mv",
    "bilevel_fraction",
    "three_prime_first_fraction",
    "gating_threshold_molar",
    "gating_open_dwell_ms",
    "gating_closed_dwell_ms",
    "monolevel_sigma",
    "incomplete_level_low",
    "incomplete_level_high",
    "incomplete_min_duration_us",
    "incomplete_mean_duration_us",
    "duration_jitter_cv",
}

_ENDS = {"3prime": THREE_PRIME, "5prime": FIVE_PRIME}


def parse_calibration(text: str, base: CalibrationTable | None = None) -> CalibrationTable:
    """Build a table from flat ``key = value`` lines, overriding ``base``.

    Unknown keys are rejected.  Repeated keys take the last value.  Level
    statistics use keys of the form ``level_<base>_<3prime|5prime>`` with a
    ``mean:sd`` value.
    """
    table = base if base is not None else CalibrationTable()
    overrides: dict[str, object] = {}
    levels = dict(table.level_stats)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CalibrationError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in _SCALARS:
            overrides[key] = _number(value, key)
        elif key == "iv_points":
            overrides[key] = _parse_pairs(value, 2, key)
        elif key == "monolevel_blockage_points":
            overrides[key] = _parse_pairs(value, 2, key)
        elif key == "event_rate_points":
            overrides[key] = _parse_pairs(value, 3, key)
        elif key.startswith("level_"):
            parts = key.split("_")
            if len(parts) != 3 or parts[2] not in _ENDS:
                raise CalibrationError(
                    f"line {lineno}: level keys look like level_c_3prime, got {key!r}"
                )
            mean_sd = value.split(":")
            if len(mean_sd) != 2:
                raise CalibrationError(f"line {lineno}: level value must be mean:sd")
            levels[(parts[1].upper(), _ENDS[parts[2]])] = LevelStats(
                _number(mean_sd[0], key), _number(mean_sd[1], key)
            )
        else:
            raise CalibrationError(f"line {lineno}: unknown calibration key {key!r}")
    overrides["level_stats"] = levels
    return table.replace(**overrides)


def load_calibration(path: str, base: CalibrationTable | None = None) -> CalibrationTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_calibration(fh.read(), base=base)


def format_calibration(table: CalibrationTable) -> str:
    """Serialize a table to the flat key-value format (round-trips)."""

    def fmt_pairs(pairs):
        return " ".join(":".join(_fmt(x) for x in entry) for entry in pairs)

    def _fmt(x: float) -> str:
        return f"{x:g}"

    lines = [
        f"iv_points = {fmt_pairs(table.iv_points)}",
        f"event_rate_points = {fmt_pairs(table.event_rate_points)}",
        f"monolevel_blockage_points = {fmt_pairs(table.monolevel_blockage_points)}",
    ]
    for name in sorted(_SCALARS):
        lines.append(f"{name} = {_fmt(getattr(table, name))}")
    rev_ends = {v: k for k, v in _ENDS.items()}
    for (base, end), stats in sorted(table.level_stats.items()):
        lines.append(
            f"level_{base.lower()}_{rev_ends[end]} = {_fmt(stats.mean)}:{_fmt(stats.sd)}"
        )
    return "\n".join(lines) + "\n"


def save_calibration(table: CalibrationTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_calibration(table))

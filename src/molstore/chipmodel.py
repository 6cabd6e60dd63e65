"""Chip-scale architecture arithmetic: area budgets, storage capacity,
data rates, access latency, and the DVD-stack comparison.

Everything here is exact arithmetic on the scenario inputs; there is no
stochastic element.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .calibration import field_defaults, parse_key_values, read_text


class PlanError(ValueError):
    """Invalid layout or scenario parameters."""

    category = "param"


@dataclass(frozen=True)
class ChipLayout:
    """Area/count inventory of one chip layer."""

    parking_spots: int = 1_000_000
    parking_area_cm2: float = 0.25
    stations: int = 1000
    station_area_cm2: float = 0.1
    plumbing_area_cm2: float = 0.65
    layer_thickness_um: float = 10.0
    block_bytes: int = 1_000_000

    def __post_init__(self):
        if self.parking_spots < 0 or self.stations < 0:
            raise PlanError("counts must be >= 0")
        if min(self.parking_area_cm2, self.station_area_cm2, self.plumbing_area_cm2) < 0:
            raise PlanError("areas must be >= 0")
        if self.layer_thickness_um <= 0:
            raise PlanError("layer_thickness_um must be > 0")
        if self.block_bytes < 1:
            raise PlanError("block_bytes must be >= 1")


@dataclass(frozen=True)
class AreaBudget:
    parking_area_cm2: float
    station_area_cm2: float
    plumbing_area_cm2: float
    total_cm2: float
    die_cm2: float
    over_budget: bool


def area_budget(layout: ChipLayout, die_cm2: float = 1.0) -> AreaBudget:
    """Sum the per-category areas and flag overflow of the die."""
    total = layout.parking_area_cm2 + layout.station_area_cm2 + layout.plumbing_area_cm2
    return AreaBudget(
        parking_area_cm2=layout.parking_area_cm2,
        station_area_cm2=layout.station_area_cm2,
        plumbing_area_cm2=layout.plumbing_area_cm2,
        total_cm2=total,
        die_cm2=die_cm2,
        over_budget=total > die_cm2,
    )


def areal_capacity(layout: ChipLayout) -> float:
    """Bytes per cm2 of chip surface: spots x block size / total area."""
    total = area_budget(layout).total_cm2
    if total <= 0:
        raise PlanError("total area must be > 0 for areal capacity")
    return layout.parking_spots * float(layout.block_bytes) / total


def volumetric_capacity(layout: ChipLayout) -> float:
    """Bytes per cm3 when identical layers stack at the layer thickness."""
    layers_per_cm = 1e4 / layout.layer_thickness_um
    return areal_capacity(layout) * layers_per_cm


def station_rate(bits_per_molecule: float, translocation_us: float) -> float:
    """Exact bits/s through one read station; no rounding is applied."""
    if translocation_us <= 0:
        raise PlanError("translocation_us must be > 0")
    return bits_per_molecule * 1e6 / translocation_us


def aggregate_rate(station_bits_per_s: float, n_stations: int) -> float:
    return station_bits_per_s * n_stations


def dvd_stack_height(
    total_bytes: float, dvd_bytes: float = 9.4e9, platter_thickness_mm: float = 1.2
) -> float:
    """Meters of stacked platters needed to hold the same bytes."""
    if dvd_bytes <= 0:
        raise PlanError("dvd_bytes must be > 0")
    platters = total_bytes / dvd_bytes
    if not math.isfinite(platters * platter_thickness_mm):
        raise PlanError(f"dvd_stack_m is not finite for {total_bytes:g} bytes")
    return math.ceil(platters) * platter_thickness_mm * 1e-3


def transit_time(
    distance_cm: float, voltage_v: float, mobility_cm2_per_vs: float = 100.0
) -> float:
    """Electrophoretic crossing time in seconds, t = d^2 / (mobility V).

    Drift velocity is mobility x field with field = V/d.  The default
    mobility is a calibration constant chosen so a 1.0 cm crossing under
    10 V takes 1.0 ms; it is not a physical claim.
    """
    if distance_cm <= 0 or voltage_v <= 0 or mobility_cm2_per_vs <= 0:
        raise PlanError("distance, voltage, and mobility must all be > 0")
    return distance_cm * distance_cm / (mobility_cm2_per_vs * voltage_v)


@dataclass(frozen=True)
class ThroughputReport:
    per_station_bits_per_s: float
    aggregate_bits_per_s: float
    areal_bytes_per_cm2: float
    volumetric_bytes_per_cm3: float
    transit_time_s: float


@dataclass(frozen=True)
class PlanScenario:
    """Inputs for one capacity/throughput report."""

    layout: ChipLayout = ChipLayout()
    bits_per_molecule: float = 2.0
    translocation_us: float = 150.0
    dvd_bytes: float = 9.4e9
    dvd_thickness_mm: float = 1.2
    transit_distance_cm: float = 1.0
    transit_voltage_v: float = 10.0
    mobility_cm2_per_vs: float = 100.0
    die_cm2: float = 1.0


@dataclass(frozen=True)
class PlanReport:
    budget: AreaBudget
    throughput: ThroughputReport
    dvd_stack_m: float


def plan(scenario: PlanScenario) -> PlanReport:
    """Evaluate the full architecture arithmetic for one scenario.

    A report value that is not finite is a PlanError: finite inputs can
    still overflow (a 1e-300 um layer holds inf bytes per cm3).
    """
    layout = scenario.layout
    per_station = station_rate(scenario.bits_per_molecule, scenario.translocation_us)
    volumetric = volumetric_capacity(layout)
    report = ThroughputReport(
        per_station_bits_per_s=per_station,
        aggregate_bits_per_s=aggregate_rate(per_station, layout.stations),
        areal_bytes_per_cm2=areal_capacity(layout),
        volumetric_bytes_per_cm3=volumetric,
        transit_time_s=transit_time(
            scenario.transit_distance_cm,
            scenario.transit_voltage_v,
            scenario.mobility_cm2_per_vs,
        ),
    )
    budget = area_budget(layout, scenario.die_cm2)
    for name, value in [*asdict(budget).items(), *asdict(report).items()]:
        if not math.isfinite(value):
            raise PlanError(f"{name} is not finite: {value}")
    stack_m = dvd_stack_height(volumetric, scenario.dvd_bytes, scenario.dvd_thickness_mm)
    return PlanReport(budget=budget, throughput=report, dvd_stack_m=stack_m)


def parse_scenario(text: str, base: PlanScenario | None = None) -> PlanScenario:
    """Apply flat ``key = value`` overrides to a scenario.

    Keys are the ``ChipLayout`` and ``PlanScenario`` field names; see
    ``calibration.parse_key_values`` for the grammar.
    """
    scenario = base if base is not None else PlanScenario()
    layout_keys = field_defaults(ChipLayout)
    keys = {**layout_keys, **field_defaults(PlanScenario)}
    values = parse_key_values(text, keys, PlanError)
    layout = {key: values.pop(key) for key in layout_keys if key in values}
    return replace(scenario, layout=replace(scenario.layout, **layout), **values)


def load_scenario(path: str, base: PlanScenario | None = None) -> PlanScenario:
    return parse_scenario(read_text(path), base=base)


def report_items(report: PlanReport) -> list[tuple[str, str]]:
    """Flatten a report into ordered key/value strings for text and CSV."""

    def fmt(x: float) -> str:
        return f"{x:.6g}"

    return [
        ("parking_area_cm2", fmt(report.budget.parking_area_cm2)),
        ("station_area_cm2", fmt(report.budget.station_area_cm2)),
        ("plumbing_area_cm2", fmt(report.budget.plumbing_area_cm2)),
        ("total_area_cm2", fmt(report.budget.total_cm2)),
        ("die_cm2", fmt(report.budget.die_cm2)),
        ("over_budget", str(report.budget.over_budget).lower()),
        ("areal_bytes_per_cm2", fmt(report.throughput.areal_bytes_per_cm2)),
        ("volumetric_bytes_per_cm3", fmt(report.throughput.volumetric_bytes_per_cm3)),
        ("per_station_bits_per_s", fmt(report.throughput.per_station_bits_per_s)),
        ("aggregate_bits_per_s", fmt(report.throughput.aggregate_bits_per_s)),
        ("transit_time_s", fmt(report.throughput.transit_time_s)),
        ("dvd_stack_m", fmt(report.dvd_stack_m)),
    ]

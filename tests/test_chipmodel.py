from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstore.chipmodel import (
    ChipLayout,
    PlanError,
    PlanScenario,
    aggregate_rate,
    area_budget,
    areal_capacity,
    dvd_stack_height,
    load_scenario,
    parse_scenario,
    plan,
    report_items,
    station_rate,
    transit_time,
    volumetric_capacity,
)


def test_area_budget_defaults():
    budget = area_budget(ChipLayout())
    assert budget.total_cm2 == pytest.approx(1.0)
    assert not budget.over_budget


def test_area_budget_zero_layout():
    layout = ChipLayout(
        parking_spots=0, parking_area_cm2=0.0, stations=0, station_area_cm2=0.0,
        plumbing_area_cm2=0.0,
    )
    assert area_budget(layout).total_cm2 == 0.0


def test_area_budget_over_budget_flag():
    layout = ChipLayout(parking_spots=2_000_000, parking_area_cm2=0.5)
    budget = area_budget(layout, die_cm2=1.0)
    assert budget.total_cm2 == pytest.approx(1.25)
    assert budget.over_budget


def test_areal_capacity_defaults():
    assert areal_capacity(ChipLayout()) == pytest.approx(1e12)


def test_areal_capacity_linear_in_block_size():
    assert areal_capacity(ChipLayout(block_bytes=1)) == pytest.approx(1e6)


def test_areal_capacity_linear_in_spots():
    assert areal_capacity(ChipLayout(parking_spots=500_000)) == pytest.approx(5e11)


def test_areal_capacity_zero_area_error():
    layout = ChipLayout(
        parking_area_cm2=0.0, station_area_cm2=0.0, plumbing_area_cm2=0.0
    )
    with pytest.raises(PlanError):
        areal_capacity(layout)


def test_volumetric_capacity_defaults():
    assert volumetric_capacity(ChipLayout()) == pytest.approx(1e15)


@pytest.mark.parametrize("thickness,expected", [(100.0, 1e14), (5.0, 2e15)])
def test_volumetric_capacity_scales_with_thickness(thickness, expected):
    assert volumetric_capacity(
        ChipLayout(layer_thickness_um=thickness)
    ) == pytest.approx(expected)


def test_station_rate_exact_quotient():
    assert station_rate(2.0, 150.0) == pytest.approx(2.0 / 150e-6)
    assert round(station_rate(2.0, 150.0)) == 13333
    assert station_rate(150.0, 150.0) == pytest.approx(1e6)


def test_station_rate_requires_positive_duration():
    with pytest.raises(PlanError):
        station_rate(2.0, 0.0)


def test_aggregate_rate_linear():
    assert aggregate_rate(1e6, 3000) == pytest.approx(3e9)
    assert aggregate_rate(1e6, 0) == 0.0


def test_dvd_stack_height_petabyte():
    height = dvd_stack_height(1e15)
    assert height == pytest.approx(127.7, abs=0.5)


def test_dvd_stack_height_edges():
    assert dvd_stack_height(0.0) == 0.0
    assert dvd_stack_height(9.4e9) == pytest.approx(0.0012)
    with pytest.raises(PlanError):
        dvd_stack_height(1.0, dvd_bytes=0.0)


def test_transit_time_examples():
    assert transit_time(1.0, 10.0) == pytest.approx(1.0e-3)
    assert transit_time(1.0, 20.0) == pytest.approx(0.5e-3)
    assert transit_time(2.0, 10.0) == pytest.approx(4.0e-3)


def test_transit_time_parameter_errors():
    with pytest.raises(PlanError):
        transit_time(0.0, 10.0)
    with pytest.raises(PlanError):
        transit_time(1.0, -5.0)


def test_plan_default_report():
    report = plan(PlanScenario())
    assert report.throughput.areal_bytes_per_cm2 == pytest.approx(1e12)
    assert report.throughput.volumetric_bytes_per_cm3 == pytest.approx(1e15)
    assert report.throughput.per_station_bits_per_s == pytest.approx(13333.33, rel=1e-4)
    assert report.throughput.aggregate_bits_per_s == pytest.approx(13333.33e3, rel=1e-4)
    assert report.throughput.transit_time_s == pytest.approx(1e-3)
    assert report.dvd_stack_m == pytest.approx(127.66, abs=0.1)


def test_plan_aggregate_invariant():
    scen = PlanScenario(layout=ChipLayout(stations=3000), bits_per_molecule=150.0)
    report = plan(scen)
    assert report.throughput.aggregate_bits_per_s == pytest.approx(
        report.throughput.per_station_bits_per_s * 3000
    )
    assert report.throughput.aggregate_bits_per_s == pytest.approx(3e9)


def test_layout_validation():
    with pytest.raises(PlanError):
        ChipLayout(block_bytes=0)
    with pytest.raises(PlanError):
        ChipLayout(layer_thickness_um=0.0)
    with pytest.raises(PlanError):
        ChipLayout(parking_area_cm2=-1.0)
    with pytest.raises(PlanError, match="^counts must be >= 0$"):
        ChipLayout(stations=-1)


def test_parse_scenario_overrides():
    scen = parse_scenario("stations = 3000\nbits_per_molecule = 150\n")
    assert scen.layout.stations == 3000
    assert scen.bits_per_molecule == 150.0
    # untouched defaults
    assert scen.layout.parking_spots == 1_000_000


def test_parse_scenario_unknown_key():
    with pytest.raises(PlanError):
        parse_scenario("warp_factor = 9\n")


def test_load_scenario(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text("# test scenario\nlayer_thickness_um = 100\n")
    scen = load_scenario(str(path))
    assert scen.layout.layer_thickness_um == 100.0


def test_report_items_order_and_values():
    items = dict(report_items(plan(PlanScenario())))
    assert items["total_area_cm2"] == "1"
    assert items["over_budget"] == "false"
    assert float(items["areal_bytes_per_cm2"]) == pytest.approx(1e12)


@pytest.mark.parametrize(
    "line, detail",
    [
        ("stations = 2.5", "stations: not an integer: '2.5'"),
        ("translocation_us = nan", "translocation_us: not a finite number: 'nan'"),
        ("parking_spots = 1e400", "parking_spots: not a finite number: '1e400'"),
        ("layer_thickness_um = inf", "layer_thickness_um: not a finite number"),
        ("layout = 1", "unknown key 'layout'"),
        ("stations 3", "expected key = value"),
    ],
)
def test_parse_scenario_refuses_and_names_the_line(line, detail):
    with pytest.raises(PlanError, match=f"^line 1: {detail}"):
        parse_scenario(line + "\n")


def test_parse_scenario_counts_take_integral_floats():
    scen = parse_scenario("parking_spots = 1e6\nstations = 3000.0\n")
    assert scen.layout.parking_spots == 1_000_000
    assert type(scen.layout.stations) is int and scen.layout.stations == 3000


@pytest.mark.parametrize(
    "scenario, name",
    [
        (PlanScenario(layout=ChipLayout(layer_thickness_um=1e-300)), "volumetric_bytes_per_cm3"),
        (PlanScenario(layout=ChipLayout(parking_spots=int(1e308))), "areal_bytes_per_cm2"),
        (PlanScenario(transit_distance_cm=1e308), "transit_time_s"),
        (PlanScenario(translocation_us=1e-320), "per_station_bits_per_s"),
        (PlanScenario(dvd_bytes=1e-300), "dvd_stack_m"),
        (PlanScenario(dvd_thickness_mm=1e308), "dvd_stack_m"),
    ],
)
def test_plan_refuses_a_report_value_that_is_not_finite(scenario, name):
    with pytest.raises(PlanError, match=f"^{name} is not finite"):
        plan(scenario)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_AREA = st.floats(0.0, allow_infinity=False)


# Counts are read as float64, so they are exact up to 2**53.
@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries({
        "parking_spots": st.integers(0, 2**53),
        "parking_area_cm2": _AREA,
        "stations": st.integers(0, 2**53),
        "station_area_cm2": _AREA,
        "plumbing_area_cm2": _AREA,
        "layer_thickness_um": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "block_bytes": st.integers(1, 2**53),
    }),
    st.fixed_dictionaries({f.name: _FINITE for f in fields(PlanScenario)[1:]}),
)
def test_repr_lines_parse_back_to_the_scenario(layout_values, values):
    scenario = PlanScenario(layout=ChipLayout(**layout_values), **values)
    text = "".join(f"{k} = {v!r}\n" for k, v in {**layout_values, **values}.items())
    assert parse_scenario(text) == scenario

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from molstore.calibration import (
    CalibrationError,
    CalibrationTable,
    ChannelConfig,
    MAX_PORES,
    LevelStats,
    ParamError,
    format_calibration,
    load_calibration,
    parse_calibration,
)


def test_defaults_pass_validation():
    table = CalibrationTable()
    assert table.clogged_current_pa == 30.0
    assert table.level_for("C", "3prime") == LevelStats(0.37, 0.09)


def test_iv_must_contain_zero():
    with pytest.raises(CalibrationError):
        CalibrationTable(iv_points=((90.0, 90.0), (210.0, 250.0)))


def test_iv_must_increase():
    with pytest.raises(CalibrationError):
        CalibrationTable(iv_points=((0.0, 0.0), (90.0, 90.0), (120.0, 80.0)))


def test_event_rates_must_increase():
    with pytest.raises(CalibrationError):
        CalibrationTable(
            event_rate_points=((90.0, 5.0, 0.4), (120.0, 3.0, 0.4))
        )


@pytest.mark.parametrize("rate", [0.0, -5.0])
def test_event_rates_must_be_positive(rate):
    # A zero rate divides by zero, and a negative one is no exponential scale.
    with pytest.raises(CalibrationError, match="event_rate_points rates must be > 0"):
        CalibrationTable(event_rate_points=((90.0, rate, 0.4), (210.0, 21.0, 0.4)))


def test_monolevel_blockage_must_decrease():
    with pytest.raises(CalibrationError):
        CalibrationTable(
            monolevel_blockage_points=((90.0, 0.8), (120.0, 0.85))
        )


@pytest.mark.parametrize(
    "points",
    [((90.0, 1.0), (210.0, 0.99)), ((90.0, 0.5), (210.0, 0.0)), ((90.0, float("nan")),)],
    ids=["full-blockage", "no-blockage", "nan"],
)
def test_monolevel_blockage_in_open_unit_interval(points):
    with pytest.raises(CalibrationError, match=r"monolevel blockages must be in \(0, 1\)"):
        CalibrationTable(monolevel_blockage_points=points)


@pytest.mark.parametrize("sigma", [-0.01, float("nan")])
def test_monolevel_sigma_non_negative(sigma):
    with pytest.raises(CalibrationError, match="monolevel_sigma must be >= 0"):
        CalibrationTable(monolevel_sigma=sigma)
    assert CalibrationTable(monolevel_sigma=0.0).monolevel_sigma == 0.0


def test_level_stats_bounds():
    bad = dict(CalibrationTable().level_stats)
    bad[("C", "3prime")] = LevelStats(1.2, 0.09)
    with pytest.raises(CalibrationError):
        CalibrationTable(level_stats=bad)


def test_format_parse_round_trip():
    table = CalibrationTable().replace(clogged_current_pa=25.0, bilevel_fraction=0.31)
    text = format_calibration(table)
    again = parse_calibration(text)
    assert again == table


def test_parse_overrides_single_key():
    table = parse_calibration("clogged_current_pa = 42\n")
    assert table.clogged_current_pa == 42.0
    # untouched defaults remain
    assert table.bilevel_fraction == 0.29


def test_parse_level_key():
    table = parse_calibration("level_g_3prime = 0.5:0.05\n")
    assert table.level_for("G", "3prime") == LevelStats(0.5, 0.05)


def test_parse_rejects_unknown_key():
    with pytest.raises(CalibrationError):
        parse_calibration("bogus_key = 1\n")


def test_parse_rejects_bad_line():
    with pytest.raises(CalibrationError):
        parse_calibration("clogged_current_pa 42\n")


def test_parse_comments_and_blanks():
    table = parse_calibration("# comment\n\nclogged_current_pa = 33 # inline\n")
    assert table.clogged_current_pa == 33.0


def test_load_calibration(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text("bilevel_fraction = 0.5\n")
    assert load_calibration(str(path)).bilevel_fraction == 0.5


def test_load_calibration_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_bytes(b"bilevel_fraction = 0.5\n\xff = 1\n")
    with pytest.raises(CalibrationError, match=r"cal.txt: not UTF-8 text \(.* at byte 23\)$"):
        load_calibration(str(path))


def test_channel_config_validation():
    with pytest.raises(CalibrationError):
        ChannelConfig(kcl_molar=0.0)
    with pytest.raises(CalibrationError):
        ChannelConfig(n_pores=0)
    ChannelConfig(n_pores=MAX_PORES)
    for pores in (MAX_PORES + 1, 10**400):
        with pytest.raises(ParamError, match=r"n_pores must be in \[1, 65535\]"):
            ChannelConfig(n_pores=pores)
    with pytest.raises(CalibrationError):
        ChannelConfig(sample_rate_hz=0)
    with pytest.raises(CalibrationError, match=r"sample_rate_hz must be in \[1, 1e\+12\]"):
        ChannelConfig(sample_rate_hz=10**12 + 1)
    with pytest.raises(CalibrationError):
        ChannelConfig(bandwidth_khz=-1.0)
    for bad in (
        {"voltage_mv": math.nan},
        {"kcl_molar": math.inf},
        {"noise_sigma_pa": math.nan},
        {"bandwidth_khz": math.nan},
    ):
        with pytest.raises(ParamError, match="must be finite"):
            ChannelConfig(**bad)


def test_incomplete_band_validation():
    with pytest.raises(CalibrationError):
        CalibrationTable(incomplete_level_low=0.7, incomplete_level_high=0.6)
    with pytest.raises(CalibrationError):
        CalibrationTable(
            incomplete_min_duration_us=30.0, incomplete_mean_duration_us=20.0
        )


DEFAULT_FORMAT = """\
iv_points = -210:-200 0:0 90:90 120:130 150:160 210:250
event_rate_points = 90:2:0.4 120:3.5:0.4 150:10.6:0.4 210:21:0.4
monolevel_blockage_points = 90:0.85 120:0.8 150:0.75 210:0.65
base_dwell_us = 1
bilevel_fraction = 0.29
bilevel_min_voltage_mv = 210
clogged_current_pa = 30
duration_jitter_cv = 0.1
gating_closed_dwell_ms = 20
gating_open_dwell_ms = 20
gating_threshold_molar = 1.5
incomplete_level_high = 0.6
incomplete_level_low = 0.3
incomplete_mean_duration_us = 25
incomplete_min_duration_us = 10
monolevel_sigma = 0.05
ref_voltage_mv = 210
three_prime_first_fraction = 0.75
level_a_3prime = 0.17:0.04
level_a_5prime = 0.12:0.04
level_c_3prime = 0.37:0.09
level_c_5prime = 0.2:0.03
"""


def test_format_defaults_is_pinned():
    # Logged as the `# cal.` header of every simulate run.
    assert format_calibration(CalibrationTable()) == DEFAULT_FORMAT


def test_format_is_exact_where_g_would_round():
    table = CalibrationTable(bilevel_fraction=0.123456789)
    text = format_calibration(table)
    assert "bilevel_fraction = 0.123456789\n" in text
    assert "clogged_current_pa = 30\n" in text
    assert parse_calibration(text) == table


def test_format_refuses_a_table_without_a_default_level():
    levels = dict(CalibrationTable().level_stats)
    del levels["C", "5prime"]
    with pytest.raises(CalibrationError, match="^level_c_5prime is missing"):
        format_calibration(CalibrationTable(level_stats=levels))
    with pytest.raises(CalibrationError, match="^level_a_3prime is missing"):
        format_calibration(CalibrationTable(level_stats={}))


def test_parse_last_repeated_key_wins_and_keys_are_lowercased():
    table = parse_calibration("Clogged_Current_PA = 1\nclogged_current_pa = 2\n")
    assert table.clogged_current_pa == 2.0


@pytest.mark.parametrize(
    "line, detail",
    [
        ("base_dwell_us = nan", "base_dwell_us: not a finite number: 'nan'"),
        ("ref_voltage_mv = -inf", "ref_voltage_mv: not a finite number"),
        ("gating_threshold_molar = 1e400", "gating_threshold_molar: not a finite number"),
        ("level_a_3prime = 0.17:nan", "level_a_3prime: not a finite number"),
        ("level_x_3prime = 0.3:0.05", "unknown key 'level_x_3prime'"),
        ("level_a_3prime = 0.3 : 0.05", "level_a_3prime: want 2 numbers joined by ':'"),
        ("level_a_3prime = 0.3", "level_a_3prime: want 2 numbers joined by ':'"),
        ("iv_points = 0:0 90", "iv_points: want 2 numbers joined by ':', got '90'"),
        ("event_rate_points =", "event_rate_points: empty table"),
        ("level_stats = 1", "unknown key 'level_stats'"),
        ("clogged_current_pa = x", "clogged_current_pa: could not convert"),
    ],
)
def test_parse_refuses_and_names_the_line(line, detail):
    with pytest.raises(CalibrationError, match="^" + re.escape("line 2: " + detail)):
        parse_calibration("# header\n" + line + "\n")


@pytest.mark.parametrize(
    "override",
    [
        {"base_dwell_us": math.nan},
        {"duration_jitter_cv": math.inf},
        {"gating_threshold_molar": math.nan},
        {"clogged_current_pa": -math.inf},
        {"iv_points": ((0.0, 0.0), (90.0, math.inf))},
        {"event_rate_points": ((90.0, 2.0, math.nan),)},
    ],
    ids=lambda override: next(iter(override)),
)
def test_table_refuses_non_finite_numbers(override):
    name = next(iter(override))
    with pytest.raises(CalibrationError, match=f"^{name} must be finite$"):
        CalibrationTable(**override)


def test_table_refuses_non_finite_level_spread():
    levels = {("A", "3prime"): LevelStats(0.17, math.nan)}
    with pytest.raises(CalibrationError, match=r"level stats for \(A, 3prime\)"):
        CalibrationTable(level_stats=levels)


@pytest.mark.parametrize("name", ["gating_open_dwell_ms", "gating_closed_dwell_ms"])
@pytest.mark.parametrize("dwell", [0.0, -1.0])
def test_table_refuses_gating_dwell_not_positive(name, dwell):
    with pytest.raises(CalibrationError, match=f"^{name} must be > 0$"):
        CalibrationTable(**{name: dwell})


@pytest.mark.parametrize("clogged", [250.0, 400.0, 1e308])
def test_table_refuses_clogged_current_at_or_above_open(clogged):
    # The default table's largest open current is 250 pA.
    with pytest.raises(
        CalibrationError, match="^clogged_current_pa must be below the largest open current"
    ):
        CalibrationTable(clogged_current_pa=clogged)


def _increasing(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def calibration_tables(draw):
    """Valid tables with full-precision numbers in every field."""
    n_iv = draw(st.integers(1, 5))
    volts = sorted(draw(_increasing(n_iv, -500.0, 500.0)) + [0.0])
    amps = draw(_increasing(n_iv + 1, -500.0, 500.0))
    zero = volts.index(0.0)
    iv = tuple((v, a - amps[zero]) for v, a in zip(volts, amps))
    n_rate = draw(st.integers(1, 5))
    rates = tuple(zip(
        draw(_increasing(n_rate, 0.0, 500.0)),
        draw(_increasing(n_rate, 0.0, 1e4)),
        draw(st.lists(st.floats(0.0, 1.0), min_size=n_rate, max_size=n_rate)),
    ))
    n_mono = draw(st.integers(1, 5))
    mono = tuple(zip(
        draw(_increasing(n_mono, 0.0, 500.0)),
        reversed(draw(_increasing(n_mono, 0.01, 0.99))),
    ))
    low, high = draw(_increasing(2, 0.0, 1.0))
    short, long = draw(_increasing(2, 0.0, 1e3))
    positive = st.floats(1e-3, 1e4)
    # A file can override a level or add one, not remove a default one;
    # tables without one are drawn too, as format_calibration must refuse
    # them.
    levels = dict(CalibrationTable().level_stats)
    for key in draw(st.one_of(
        st.just(frozenset()), st.frozensets(st.sampled_from(sorted(levels)), min_size=1)
    )):
        del levels[key]
    levels |= draw(st.dictionaries(
        st.tuples(st.sampled_from("ACGT"), st.sampled_from(["3prime", "5prime"])),
        st.builds(LevelStats, st.floats(0.001, 0.999), positive),
    ))
    try:
        return CalibrationTable(
            iv_points=iv,
            event_rate_points=rates,
            monolevel_blockage_points=mono,
            clogged_current_pa=draw(st.floats(-1e3, iv[-1][1], exclude_max=True)),
            base_dwell_us=draw(positive),
            ref_voltage_mv=draw(positive),
            bilevel_min_voltage_mv=draw(st.floats(-1e3, 1e3)),
            bilevel_fraction=draw(st.floats(0.0, 1.0)),
            three_prime_first_fraction=draw(st.floats(0.0, 1.0)),
            level_stats=levels,
            gating_threshold_molar=draw(st.floats(-10.0, 10.0)),
            gating_open_dwell_ms=draw(positive),
            gating_closed_dwell_ms=draw(positive),
            monolevel_sigma=draw(st.floats(0.0, 1.0)),
            incomplete_level_low=low,
            incomplete_level_high=high,
            incomplete_min_duration_us=short,
            incomplete_mean_duration_us=long,
            duration_jitter_cv=draw(st.floats(0.0, 10.0)),
        )
    except CalibrationError:
        # Shifting the currents to put (0, 0) in can merge two of them.
        assume(False)


@settings(max_examples=200, deadline=None)
@given(calibration_tables())
def test_format_parse_round_trip_is_exact(table):
    missing = sorted(set(CalibrationTable().level_stats) - set(table.level_stats))
    if missing:
        base, end = missing[0]
        with pytest.raises(
            CalibrationError,
            match=f"^level_{base.lower()}_{end} is missing: a calibration file cannot remove",
        ):
            format_calibration(table)
    else:
        assert parse_calibration(format_calibration(table)) == table

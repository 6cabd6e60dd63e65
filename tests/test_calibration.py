import math

import pytest

from molstore.calibration import (
    CalibrationError,
    CalibrationTable,
    ChannelConfig,
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


def test_channel_config_validation():
    with pytest.raises(CalibrationError):
        ChannelConfig(kcl_molar=0.0)
    with pytest.raises(CalibrationError):
        ChannelConfig(n_pores=0)
    with pytest.raises(CalibrationError):
        ChannelConfig(sample_rate_hz=0)
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

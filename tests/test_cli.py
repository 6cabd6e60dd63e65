import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from molstore import cli, traceio
from molstore.calibration import CalibrationTable, format_calibration
from molstore.poresim import CurrentTrace


def run(*argv):
    return cli.main(list(argv))


def test_encode_direct(tmp_path):
    payload = tmp_path / "payload.txt"
    out = tmp_path / "seq.txt"
    payload.write_text("0001\n")
    assert run("encode", "--in", str(payload), "--out", str(out)) == 0
    assert out.read_text() == "AC\n"


def test_encode_empty_payload(tmp_path):
    payload = tmp_path / "payload.txt"
    out = tmp_path / "seq.txt"
    payload.write_text("\n")
    assert run("encode", "--in", str(payload), "--out", str(out)) == 0
    assert out.read_text() == "\n"


def test_encode_runlength_default_scheme(tmp_path):
    payload = tmp_path / "payload.txt"
    out = tmp_path / "seq.txt"
    payload.write_text("01\n")
    assert run("encode", "--in", str(payload), "--out", str(out), "--mode", "runlength") == 0
    assert out.read_text() == "A" * 20 + "C" * 30 + "\n"


def test_decode_round_trip(tmp_path):
    payload = tmp_path / "payload.txt"
    seq = tmp_path / "seq.txt"
    back = tmp_path / "back.txt"
    payload.write_text("100111\n")
    run("encode", "--in", str(payload), "--out", str(seq))
    assert run("decode", "--in", str(seq), "--out", str(back)) == 0
    assert back.read_text() == "100111\n"


def test_decode_runlength_tolerance(tmp_path):
    seq = tmp_path / "seq.txt"
    out = tmp_path / "bits.txt"
    seq.write_text("A" * 19 + "C" * 30 + "\n")
    assert run(
        "decode", "--in", str(seq), "--out", str(out),
        "--mode", "runlength", "--tolerance", "0.1",
    ) == 0
    assert out.read_text() == "01\n"


def _simulate(tmp_path, *extra, name="run1", seed="1", duration="0.5"):
    trace = tmp_path / f"{name}.trace"
    log = tmp_path / f"{name}.log"
    code = run(
        "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
        "--duration-s", duration, "--seed", seed,
        "--sample-rate-hz", "100000",
        "--trace-out", str(trace), "--log-out", str(log), *extra,
    )
    return code, trace, log


def test_simulate_outputs_and_determinism(tmp_path):
    code, trace, log = _simulate(tmp_path, name="a")
    assert code == 0
    first_trace = trace.read_bytes()
    first_log = log.read_text()
    code, trace, log = _simulate(tmp_path, name="a")
    assert code == 0
    assert trace.read_bytes() == first_trace
    assert log.read_text() == first_log
    # a different seed changes the trace
    code, trace3, _ = _simulate(tmp_path, name="c", seed="2")
    assert first_trace != trace3.read_bytes()


def test_simulate_binary_format_determinism(tmp_path):
    code, t1, _ = _simulate(tmp_path, "--format", "binary", name="a")
    code, t2, _ = _simulate(tmp_path, "--format", "binary", name="b")
    assert t1.read_bytes() == t2.read_bytes()
    trace = traceio.read_trace(str(t1))
    assert trace.sample_rate_hz == 100_000


def test_simulate_log_header_and_parse(tmp_path):
    _, trace, log = _simulate(tmp_path)
    header, events, clogs = cli.parse_event_log(str(log))
    assert header["seed"] == "1"
    assert header["molecule"] == "A50C100"
    assert "cal.bilevel_fraction" in header
    assert events
    assert clogs == {}
    # log events describe the trace written next to it
    data = traceio.read_trace(str(trace))
    assert len(data) == 50_000


def test_simulate_records_generated_seed(tmp_path):
    trace = tmp_path / "t.trace"
    log = tmp_path / "t.log"
    assert run(
        "simulate", "--molecule", "A50C100", "--duration-s", "0.01",
        "--sample-rate-hz", "100000",
        "--trace-out", str(trace), "--log-out", str(log),
    ) == 0
    header, _, _ = cli.parse_event_log(str(log))
    assert int(header["seed"]) >= 0


def test_simulate_gating_no_events(tmp_path):
    trace = tmp_path / "g.trace"
    log = tmp_path / "g.log"
    assert run(
        "simulate", "--molecule", "A50C100", "--voltage-mv", "120",
        "--kcl-molar", "2.0", "--duration-s", "0.5", "--seed", "3",
        "--sample-rate-hz", "100000",
        "--trace-out", str(trace), "--log-out", str(log),
    ) == 0
    header, events, clogs = cli.parse_event_log(str(log))
    assert header["gating"] == "true"
    assert events == []
    assert clogs  # spontaneous closures logged as clog intervals


def test_simulate_clog_schedule_logged(tmp_path):
    _, trace, log = _simulate(tmp_path, "--pores", "3", "--clog", "0:0.1:0.3", name="clog")
    _, events, clogs = cli.parse_event_log(str(log))
    assert clogs[0] == [(pytest.approx(0.1), pytest.approx(0.3))]
    # no ground-truth event overlaps the clog on pore 0
    for pore, event in events:
        if pore == 0:
            end = event.t_start_s + event.duration_us * 1e-6
            assert end <= 0.1 or event.t_start_s >= 0.3


def test_census_of_trace_matches_logged_clog_intervals(tmp_path):
    from molstore.poresim import open_current
    from molstore.calibration import CalibrationTable
    from molstore.reader import census_series

    _, trace, log = _simulate(
        tmp_path, "--pores", "3", "--clog", "0:0.1:0.3", "--clog", "1:0.2:0.3",
        name="census",
    )
    _, _, clogs = cli.parse_event_log(str(log))
    data = traceio.read_trace(str(trace))
    calib = CalibrationTable()
    census = census_series(
        data.samples, 3, open_current(210.0, 1.0, calib), calib.clogged_current_pa
    )
    rate = data.sample_rate_hz

    def majority(t0, t1):
        values = census[int(t0 * rate) : int(t1 * rate)]
        return int(np.round(np.mean(values)))

    assert majority(0.0, 0.1) == 3       # all open
    assert majority(0.1, 0.2) == 2       # pore 0 clogged
    assert majority(0.2, 0.3) == 1       # pores 0 and 1 clogged
    assert majority(0.3, 0.5) == 3
    assert clogs == {0: [(pytest.approx(0.1), pytest.approx(0.3))],
                     1: [(pytest.approx(0.2), pytest.approx(0.3))]}


def test_read_recovers_payload(tmp_path):
    trace = tmp_path / "t.trace"
    log = tmp_path / "t.log"
    run(
        "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
        "--duration-s", "5", "--seed", "11", "--sample-rate-hz", "500000",
        "--trace-out", str(trace), "--log-out", str(log),
    )
    events_csv = tmp_path / "events.csv"
    summary = tmp_path / "summary.txt"
    payload = tmp_path / "payload.txt"
    assert run(
        "read", "--trace", str(trace), "--voltage-mv", "210",
        "--molecule", "A50C100", "--scheme", "A50C100",
        "--threshold-fraction", "0.75",
        "--events-out", str(events_csv), "--summary-out", str(summary),
        "--payload-out", str(payload),
    ) == 0
    lines = [l for l in payload.read_text().splitlines() if l]
    assert lines
    # per-event decodes; rare level misranks may yield stray lines
    assert sum(1 for line in lines if line == "01") >= 0.9 * len(lines)
    body = summary.read_text()
    assert "total_rate_per_s" in body
    rows = [l for l in events_csv.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "start_s,duration_us,blockage_pct,class,orientation"
    assert len(rows) > 1


def test_read_empty_trace(tmp_path):
    trace = tmp_path / "empty.trace"
    traceio.write_trace_text(CurrentTrace(100000.0, np.empty(0)), str(trace))
    events_csv = tmp_path / "events.csv"
    summary = tmp_path / "summary.txt"
    payload = tmp_path / "payload.txt"
    assert run(
        "read", "--trace", str(trace), "--voltage-mv", "210",
        "--events-out", str(events_csv), "--summary-out", str(summary),
        "--payload-out", str(payload),
    ) == 0
    rows = [l for l in events_csv.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1  # header only
    assert "open_fraction = 1.000000" in summary.read_text()


def test_stats_command(tmp_path):
    trace = tmp_path / "t.trace"
    log = tmp_path / "t.log"
    run(
        "simulate", "--molecule", "(AC)60", "--voltage-mv", "150",
        "--duration-s", "2", "--seed", "4", "--pores", "3",
        "--sample-rate-hz", "100000",
        "--trace-out", str(trace), "--log-out", str(log),
    )
    out = tmp_path / "stats.txt"
    assert run(
        "stats", "--trace", str(trace), "--voltage-mv", "150", "--pores", "3",
        "--out", str(out),
    ) == 0
    body = out.read_text()
    assert "census_3_rate_per_s" in body
    assert "census_3_mean_pa" in body


def test_stats_empty_trace(tmp_path):
    trace = tmp_path / "empty.trace"
    traceio.write_trace_text(CurrentTrace(100000.0, np.empty(0)), str(trace))
    out = tmp_path / "stats.txt"
    assert run("stats", "--trace", str(trace), "--pores", "3", "--out", str(out)) == 0
    body = out.read_text()
    assert "samples = 0" in body
    assert "census_" not in body


@pytest.mark.parametrize(
    "content",
    [
        b"sample_rate_hz=1000\n1.0\nnan\n",
        b"sample_rate_hz=1000\n1.0 2.0\n",
        b"sample_rate_hz=1000\n1.0\n2\xe9\n",
        struct.pack("<4sIdQ", traceio.MAGIC, 1, 1000.0, 2**40),
        struct.pack("<4sIdQ3f", traceio.MAGIC, 1, 1000.0, 3, 1.0, float("nan"), 2.0),
        struct.pack("<4sIdQ2f", traceio.MAGIC, 1, 1000.0, 2, float("-inf"), 2.0),
    ],
    ids=["nan", "two-values", "non-ascii", "binary-count", "binary-nan", "binary-inf"],
)
def test_malformed_trace_is_one_line_format_error(tmp_path, capsys, content):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(content)
    code = run("stats", "--trace", str(trace), "--out", str(tmp_path / "stats.txt"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: format:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,pores",
    [
        ("read", "0"), ("read", "-1"), ("read", "65536"),
        ("stats", "0"), ("stats", "-1"), ("stats", "65536"),
    ],
)
def test_pores_below_one_is_one_line_usage_error(tmp_path, capsys, command, pores):
    trace = tmp_path / "t.trace"
    traceio.write_trace_text(CurrentTrace(1000.0, np.full(10, 250.0)), str(trace))
    outs = {
        "read": ["--events-out", tmp_path / "e.csv", "--summary-out", tmp_path / "s.txt",
                 "--payload-out", tmp_path / "p.txt"],
        "stats": ["--out", tmp_path / "stats.txt"],
    }[command]
    code = run(command, "--trace", str(trace), "--pores", pores, *map(str, outs))
    assert code == 1
    err = capsys.readouterr().err
    bound = ">= 1" if int(pores) < 1 else "<= 65535"
    assert err == f"error: usage: --pores must be {bound}, got {pores}\n"
    assert not any(tmp_path.glob("*.txt")) and not any(tmp_path.glob("*.csv"))


_SIMULATE = ("simulate", "--molecule", "A50C100", "--duration-s", "0.01")
_READ = ("read", "--events-out", "e.csv", "--summary-out", "s.txt", "--payload-out", "p.txt")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--molecule", "A50C100", "--duration-s", "nan"),
        ("simulate", "--molecule", "A50C100", "--duration-s", "inf"),
        (*_SIMULATE, "--noise-sigma-pa", "nan"),
        (*_SIMULATE, "--voltage-mv", "nan"),
        (*_SIMULATE, "--kcl-molar", "inf"),
        (*_SIMULATE, "--clog", "0:1:0"),
        (*_SIMULATE, "--clog", "0:nan:1"),
        (*_READ, "--open-current-pa", "nan"),
        (*_READ, "--noise-sigma-pa", "nan"),
        (*_READ, "--tolerance", "nan"),
        (*_READ, "--min-duration-us", "nan"),
        (*_READ, "--complete-floor-us", "inf"),
        (*_READ, "--voltage-mv", "nan"),
        ("stats", "--out", "stats.txt", "--open-current-pa", "nan"),
        ("stats", "--out", "stats.txt", "--kcl-molar", "nan"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_non_finite_or_reversed_setting_is_one_line_param_error(
    tmp_path, monkeypatch, capsys, argv
):
    monkeypatch.chdir(tmp_path)
    traceio.write_trace_text(CurrentTrace(1e6, np.full(1000, 250.0)), "t.trace")
    files = ["--trace", "t.trace"] if argv[0] != "simulate" else [
        "--trace-out", "x.trace", "--log-out", "x.csv"
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv[0], *files, *argv[1:])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: param: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not caught
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.trace"]


def test_stats_at_most_pores_prints_every_census_state(tmp_path):
    trace = tmp_path / "t.trace"
    traceio.write_trace_binary(CurrentTrace(1000.0, np.full(1000, 250.0)), str(trace))
    out = tmp_path / "stats.txt"
    assert run("stats", "--trace", str(trace), "--pores", "65535", "--out", str(out)) == 0
    body = out.read_text()
    assert body.count("_seconds = ") == 65536
    assert "census_0_seconds = " in body and "census_65535_rate_per_s = " in body


@pytest.mark.parametrize("command", ["read", "stats"])
def test_non_finite_binary_sample_is_reported_with_its_index(tmp_path, capsys, command):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(struct.pack("<4sIdQ3f", traceio.MAGIC, 1, 1000.0, 3, 1.0, np.nan, 2.0))
    outs = {
        "read": ["--events-out", tmp_path / "e.csv", "--summary-out", tmp_path / "s.txt",
                 "--payload-out", tmp_path / "p.txt"],
        "stats": ["--out", tmp_path / "stats.txt"],
    }[command]
    assert run(command, "--trace", str(trace), *map(str, outs)) == 1
    assert capsys.readouterr().err == "error: format: non-finite sample nan at index 1\n"
    assert not any(tmp_path.glob("*.txt")) and not any(tmp_path.glob("*.csv"))


def test_simulate_rejects_unsimulatable_calibration(tmp_path, capsys):
    # A full monolevel blockage with no spread would leave no level in (0, 1).
    calib = tmp_path / "cal.txt"
    calib.write_text(
        "monolevel_blockage_points = 90:1.0 210:0.99\nmonolevel_sigma = 0\n"
    )
    code, trace, _ = _simulate(
        tmp_path, "--voltage-mv", "90", "--calibration", str(calib), duration="10"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: config: monolevel blockages must be in (0, 1)\n"
    assert not trace.exists()


def _simulate_peak_bytes(tmp_path, fmt, duration):
    """Peak traced allocation of one in-process 3-pore ``simulate``."""
    tracemalloc.start()
    try:
        code = run(
            "simulate", "--molecule", "(AC)60", "--voltage-mv", "150",
            "--pores", "3", "--clog", "0:0.5:4", "--clog", "1:0.8:4",
            "--duration-s", duration, "--seed", "5", "--format", fmt,
            "--trace-out", str(tmp_path / f"{fmt}{duration}.trace"),
            "--log-out", str(tmp_path / f"{fmt}{duration}.log"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_simulate_memory_flat_in_duration(tmp_path, fmt):
    one_s = _simulate_peak_bytes(tmp_path, fmt, "1")
    four_s = _simulate_peak_bytes(tmp_path, fmt, "4")
    assert four_s <= 1.25 * one_s, (one_s, four_s)


def test_stats_never_holds_the_float64_trace(tmp_path):
    _simulate_peak_bytes(tmp_path, "binary", "4")
    trace = str(tmp_path / "binary4.trace")
    n_samples = len(traceio.read_trace(trace))
    tracemalloc.start()
    try:
        code = run(
            "stats", "--trace", trace, "--voltage-mv", "150", "--pores", "3",
            "--out", str(tmp_path / "stats.txt"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # 8 bytes per sample is the float64 trace alone.
    assert peak < 8 * n_samples, (peak, n_samples)


def test_plan_defaults(tmp_path):
    out = tmp_path / "plan.txt"
    csv_out = tmp_path / "plan.csv"
    assert run("plan", "--out", str(out), "--csv-out", str(csv_out)) == 0
    body = out.read_text()
    assert "areal_bytes_per_cm2 = 1e+12" in body
    assert "volumetric_bytes_per_cm3 = 1e+15" in body
    assert "per_station_bits_per_s = 13333.3" in body
    assert "transit_time_s = 0.001" in body
    assert "dvd_stack_m = 127.66" in body
    rows = csv_out.read_text().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("parking_area_cm2,")


def test_plan_zero_stations(tmp_path):
    out = tmp_path / "plan.txt"
    assert run("plan", "--set", "stations=0", "--out", str(out)) == 0
    assert "aggregate_bits_per_s = 0" in out.read_text()


def test_plan_gigabit_scenario(tmp_path):
    scenario = tmp_path / "scen.txt"
    scenario.write_text("stations = 3000\nbits_per_molecule = 150\n")
    out = tmp_path / "plan.txt"
    assert run("plan", "--scenario", str(scenario), "--out", str(out)) == 0
    assert "aggregate_bits_per_s = 3e+09" in out.read_text()


def test_missing_input_is_io_error(tmp_path, capsys):
    code = run("encode", "--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")


def test_out_of_range_voltage_is_range_error(tmp_path, capsys):
    code = run(
        "simulate", "--molecule", "A50C100", "--voltage-mv", "400",
        "--duration-s", "0.1", "--seed", "1",
        "--trace-out", str(tmp_path / "t"), "--log-out", str(tmp_path / "l"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: range:")


def test_bad_sequence_is_decode_error(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("AXC\n")
    code = run("decode", "--in", str(seq), "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: decode:")


def test_calibration_env_var(tmp_path, monkeypatch):
    cal = tmp_path / "cal.txt"
    table = CalibrationTable().replace(
        iv_points=((-210.0, -200.0), (0.0, 0.0), (210.0, 500.0))
    )
    cal.write_text(format_calibration(table))
    monkeypatch.setenv(cli.CALIBRATION_ENV, str(cal))
    trace = tmp_path / "t.trace"
    log = tmp_path / "t.log"
    assert run(
        "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
        "--duration-s", "0.01", "--seed", "1", "--noise-sigma-pa", "0",
        "--sample-rate-hz", "100000",
        "--trace-out", str(trace), "--log-out", str(log),
    ) == 0
    data = traceio.read_trace(str(trace))
    assert np.median(data.samples) == pytest.approx(500.0)


def test_calibration_flag_overrides(tmp_path):
    cal = tmp_path / "cal.txt"
    cal.write_text("gating_threshold_molar = 0.5\n")
    trace = tmp_path / "t.trace"
    log = tmp_path / "t.log"
    assert run(
        "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
        "--duration-s", "0.1", "--seed", "1", "--calibration", str(cal),
        "--sample-rate-hz", "100000",
        "--trace-out", str(trace), "--log-out", str(log),
    ) == 0
    header, events, _ = cli.parse_event_log(str(log))
    assert header["gating"] == "true"
    assert events == []

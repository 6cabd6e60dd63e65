import contextlib
import errno
import io
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstore import calibration, chipmodel, cli, codec, poresim, reader, traceio
from molstore.calibration import CalibrationTable, field_defaults, format_calibration
from molstore.chipmodel import ChipLayout, PlanScenario
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


def test_encode_writes_its_sequence_without_a_joined_copy(tmp_path):
    """The sequence string is written as it is, not joined to its newline:
    at 10^5 bits (a 7.5 MB output) the peak traced allocation of ``encode``
    is at most 2.5 times the output.  A joined copy takes it past 3."""
    payload, out = tmp_path / "payload.txt", tmp_path / "seq.txt"
    bits = np.random.default_rng(0).integers(0, 2, 100_000)
    payload.write_text("".join(map(str, bits.tolist())) + "\n")
    peak = _traced_peak(
        "encode", "--in", str(payload), "--out", str(out), "--mode", "runlength",
        "--scheme", "A50C100",
    )
    size = out.stat().st_size
    assert size > 7_000_000
    assert peak <= 2.5 * size, (peak, size)


def test_encode_refuses_an_output_past_the_base_limit(tmp_path):
    """A scheme that asks for 10^10 bases is one ``param`` line and exit 1,
    before a base is spelled out.  The command runs in a child process under
    ``ulimit -v``, so an encoder that did spell them out would fail there
    with a MemoryError instead of taking the machine's memory."""
    payload, out = tmp_path / "payload.txt", tmp_path / "seq.txt"
    payload.write_text("0\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        ["/bin/sh", "-c", 'ulimit -v 2000000 && exec "$@"', "sh", sys.executable, "-m",
         "molstore.cli", "encode", "--in", str(payload), "--out", str(out),
         "--mode", "runlength", "--scheme", "A10000000000C1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (done.returncode, done.stderr) == (1, (
        "error: param: scheme A10000000000C1 makes 10000000000 bases, "
        f"more than {codec.MAX_SEQUENCE_BASES}\n"
    ))
    assert not out.exists()


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
    header, events, clogs = poresim.parse_event_log(str(log))
    assert header["seed"] == "1"
    assert header["molecule"] == "A50C100"
    assert "cal.bilevel_fraction" in header
    assert len(events)
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
    header, _, _ = poresim.parse_event_log(str(log))
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
    header, events, clogs = poresim.parse_event_log(str(log))
    assert header["gating"] == "true"
    assert len(events) == 0
    assert clogs  # spontaneous closures logged as clog intervals


def test_simulate_clog_schedule_logged(tmp_path):
    _, trace, log = _simulate(tmp_path, "--pores", "3", "--clog", "0:0.1:0.3", name="clog")
    _, events, clogs = poresim.parse_event_log(str(log))
    assert clogs[0] == [(pytest.approx(0.1), pytest.approx(0.3))]
    # no ground-truth event overlaps the clog on pore 0
    on_0 = events.take(events.pore == 0)
    assert len(on_0)
    ends = on_0.t_start_s + on_0.duration_us * 1e-6
    assert np.all((ends <= 0.1) | (on_0.t_start_s >= 0.3))


def test_census_of_trace_matches_logged_clog_intervals(tmp_path):
    from molstore.poresim import open_current
    from molstore.calibration import CalibrationTable
    from molstore.reader import census_series

    _, trace, log = _simulate(
        tmp_path, "--pores", "3", "--clog", "0:0.1:0.3", "--clog", "1:0.2:0.3",
        name="census",
    )
    _, _, clogs = poresim.parse_event_log(str(log))
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
        (*_SIMULATE, "--kcl-molar", "1e308"),
        (*_SIMULATE, "--noise-sigma-pa", "1e308"),
        (*_SIMULATE, "--noise-sigma-pa", "1e308", "--format", "binary"),
        (*_SIMULATE, "--molecule", "A0C100"),
        (*_READ, "--molecule", "A50C0"),
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


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_noise_that_overflows_the_current_is_one_param_error(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    before = set(threading.enumerate())
    code = run(
        *_SIMULATE, "--noise-sigma-pa", "1e308", "--format", fmt,
        "--trace-out", "x.trace", "--log-out", "x.csv",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: param: noise_sigma_pa 1e+308 overflows the current\n"
    )
    assert not any(tmp_path.iterdir())
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_simulate_that_cannot_write_its_log_leaves_no_trace(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    code = run(
        *_SIMULATE, "--format", fmt, "--trace-out", "x.trace", "--log-out", "missing/x.csv"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("failing", ["--events-out", "--summary-out", "--payload-out"])
def test_read_that_cannot_write_an_output_leaves_none(tmp_path, monkeypatch, capsys, failing):
    monkeypatch.chdir(tmp_path)
    traceio.write_trace_text(CurrentTrace(1e6, np.full(10, 250.0)), "t.trace")
    outputs = dict(zip(_READ[1::2], _READ[2::2]), **{failing: "missing/out.txt"})
    assert run("read", "--trace", "t.trace", *(a for kv in outputs.items() for a in kv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.trace"]


def test_simulate_interrupted_building_its_log_leaves_no_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def interrupt(calib):
        raise KeyboardInterrupt

    monkeypatch.setattr(calibration, "format_calibration", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(*_SIMULATE, "--trace-out", "x.trace", "--log-out", "x.csv")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "failing", [("--log-out", "missing/x.csv"), ("--noise-sigma-pa", "1e308")],
    ids=["log", "trace"],
)
def test_simulate_that_fails_leaves_a_symlinked_trace_alone(tmp_path, monkeypatch, failing):
    monkeypatch.chdir(tmp_path)
    os.symlink("target.trace", "x.trace")
    assert run(*_SIMULATE, "--trace-out", "x.trace", "--log-out", "x.csv", *failing) == 1
    assert os.path.islink("x.trace") and os.path.isfile("target.trace")


def test_read_that_fails_leaves_a_fifo_output_alone(tmp_path, monkeypatch):
    """A device or FIFO an output went to, like /dev/null, is not removed."""
    monkeypatch.chdir(tmp_path)
    traceio.write_trace_text(CurrentTrace(1e6, np.full(10, 250.0)), "t.trace")
    os.mkfifo("e.csv")
    drain = os.open("e.csv", os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = ["read", "--trace", "t.trace", *_READ[1:-1], "missing/p.txt"]
        assert run(*argv) == 1
        assert os.read(drain, 1 << 16).startswith(b"# molstore read\n")
    finally:
        os.close(drain)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "t.trace"]


def test_plan_that_cannot_write_its_csv_leaves_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("plan", "--out", "report.txt", "--csv-out", "missing/report.csv") == 1
    assert capsys.readouterr().err.startswith("error: io: ")
    assert not any(tmp_path.iterdir())


class _FullDisk:
    """A file open for writing whose first write stops half-way with
    ENOSPC, as on a full disk."""

    def __init__(self, fh) -> None:
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def write(self, data) -> None:
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "argv, full",
    [
        (("encode", "--in", "bits.txt", "--out", "seq.txt"), "seq.txt"),
        (("decode", "--in", "seq.in", "--out", "bits.out"), "bits.out"),
        ((*_SIMULATE, "--trace-out", "x.trace", "--log-out", "x.csv"), "x.csv"),
        (("read", "--trace", "t.trace", *_READ[1:]), "p.txt"),
        (("stats", "--trace", "t.trace", "--out", "stats.txt"), "stats.txt"),
        (("plan", "--out", "report.txt", "--csv-out", "report.csv"), "report.csv"),
    ],
    ids=["encode", "decode", "simulate-log", "read-last", "stats", "plan-csv"],
)
def test_output_cut_short_by_a_full_disk_is_removed(tmp_path, monkeypatch, capsys, argv, full):
    """An output whose write fails once its file is open is removed with
    the command's other outputs: none is left, partly written or empty."""
    monkeypatch.chdir(tmp_path)
    Path("bits.txt").write_text("0110\n")
    Path("seq.in").write_text("ACGT\n")
    traceio.write_trace_text(_fuzz_trace(), "t.trace")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    real_open = open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if file == full and "w" in mode else fh

    monkeypatch.setattr("builtins.open", full_disk_open)
    code = run(*argv)
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == f"error: io: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


_BATCH_CLOGS = ("0:0.05:0.06", "0:0.1:0.11", "0:0.15:0.16")


def _seed_with_events(n_events):
    """The least seed whose 0.2 s ``simulate`` run (``_simulate_argv``) draws
    ``n_events`` events."""
    clogs = cli._parse_clogs(_BATCH_CLOGS)
    for seed in range(1000):
        result = poresim.simulate(
            poresim.MoleculeSpec.from_string("A50C100"),
            calibration.ChannelConfig(voltage_mv=210.0), 0.2, CalibrationTable(), seed, clogs,
        )
        if len(result.events) == n_events:
            return seed
    raise AssertionError(f"no seed below 1000 draws {n_events} events")


def _simulate_argv(seed, stem):
    clogs = [arg for spec in _BATCH_CLOGS for arg in ("--clog", spec)]
    return (
        "simulate", "--molecule", "A50C100", "--duration-s", "0.2", "--seed", str(seed),
        *clogs, "--format", "binary", "--trace-out", f"{stem}.trace", "--log-out", f"{stem}.csv",
    )


def _bilevel_trace(n_events):
    """A 1 MHz trace at 250 pA holding ``n_events`` A-then-C bi-level events."""
    samples = np.full(1000 * (n_events + 1), 250.0)
    for start in range(500, samples.size - 500, 1000):
        samples[start : start + 100] = 0.37 * 250.0
        samples[start + 100 : start + 150] = 0.17 * 250.0
    return CurrentTrace(1e6, samples)


def _rows(path):
    """The lines of a CSV output after its ``#`` header and column row."""
    lines = Path(path).read_text().splitlines()
    return [line for line in lines if not line.startswith("#")][1:]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_outputs_are_the_same_whatever_the_batch_size(tmp_path, monkeypatch, rows):
    """The ground-truth log and ``read``'s events.csv and payload file are
    formatted in pieces of ``poresim._LOG_ROWS`` rows; with 1, 2 or 3 rows a
    piece, a run of no event, of one full piece and of one piece plus one
    event writes the same bytes as with the real piece size, clog rows
    last."""
    monkeypatch.chdir(tmp_path)
    for n_events in (0, rows, rows + 1):
        argv = _simulate_argv(_seed_with_events(n_events), "sim")
        traceio.write_trace_binary(_bilevel_trace(n_events), "bi.trace")
        read_argv = ("read", "--trace", "bi.trace", *_READ[1:])
        assert run(*argv) == 0 and run(*read_argv) == 0
        want = {name: Path(name).read_bytes() for name in ("sim.csv", "e.csv", "p.txt")}
        with monkeypatch.context() as patched:
            patched.setattr(poresim, "_LOG_ROWS", rows)
            assert run(*argv) == 0 and run(*read_argv) == 0
        assert {name: Path(name).read_bytes() for name in want} == want
        kinds = [row.split(",")[0] for row in _rows("sim.csv")]
        assert kinds == ["event"] * n_events + ["clog"] * len(_BATCH_CLOGS)
        assert len(_rows("e.csv")) == n_events
        assert Path("p.txt").read_text() == "000111\n" * n_events


@pytest.mark.parametrize("command", ["simulate", "read"])
def test_failure_while_an_output_is_streamed_leaves_no_output(
    tmp_path, monkeypatch, capsys, command
):
    """An error raised between two pieces of the log or of events.csv, once
    the file is open and partly written, leaves none of the command's
    outputs behind."""
    monkeypatch.chdir(tmp_path)
    traceio.write_trace_binary(_bilevel_trace(3), "bi.trace")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    if command == "simulate":
        argv, out = _simulate_argv(_seed_with_events(3), "x"), "x.csv"
        module, name = poresim, "format_event_log"
    else:
        argv, out = ("read", "--trace", "bi.trace", *_READ[1:]), "e.csv"
        module, name = cli, "_format_events"
    formatter = getattr(module, name)

    def fails_on_its_second_batch(*args):
        pieces = formatter(*args)
        yield next(pieces)  # the header
        yield next(pieces)  # the first batch
        assert Path(out).is_file()
        raise poresim.SimulationError("formatting failed on its second batch")

    monkeypatch.setattr(poresim, "_LOG_ROWS", 1)
    monkeypatch.setattr(module, name, fails_on_its_second_batch)
    assert run(*argv) == 1
    assert capsys.readouterr().err == "error: param: formatting failed on its second batch\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


def test_output_that_cannot_be_opened_is_kept(tmp_path, monkeypatch, capsys):
    """A file that exists but cannot be opened for writing is not the
    command's to remove."""
    monkeypatch.chdir(tmp_path)
    Path("bits.txt").write_text("01\n")
    Path("seq.txt").mkdir()
    assert run("encode", "--in", "bits.txt", "--out", "seq.txt") == 1
    assert capsys.readouterr().err.startswith("error: io: ")
    assert Path("seq.txt").is_dir()


@pytest.mark.parametrize(
    "argv",
    [
        (*_SIMULATE, "--log-out", "x.csv", "--trace-out"),
        ("read", *_READ[1:], "--trace"),
        ("stats", "--out", "st.txt", "--trace"),
        ("plan", "--out", "r.txt", "--scenario"),
    ],
    ids=["simulate", "read", "stats", "plan"],
)
def test_header_path_that_is_not_utf8_is_one_usage_error(tmp_path, monkeypatch, capsys, argv):
    """A path copied into an output header, given as bytes that are not
    UTF-8 (argv decodes the byte 0xff as the surrogate U+DCFF), is refused
    before any output is opened."""
    monkeypatch.chdir(tmp_path)
    path = "u\udcff.in"
    if argv[0] == "plan":
        Path(path).write_text("stations = 10\n")
    else:
        traceio.write_trace_text(_fuzz_trace(), path)
    assert run(*argv, path) == 1
    assert capsys.readouterr().err == f"error: usage: argument {argv[-1]}: not UTF-8: {path!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == [path]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("stats", "--trace", "t.trace", "--out", "s.txt", "--pores", "nan"),
         "argument --pores: invalid int value: 'nan'"),
        (("read", "--trace", "t.trace", "--voltage-mv", "-inf"),
         "argument --voltage-mv: expected one argument"),
        (("stats", "--trace", "t.trace", "--out", "s.txt", "--bogus"),
         "unrecognized arguments: --bogus"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        ((), "the following arguments are required: command"),
        ((*_SIMULATE, "--clog", "0:a:1", "--trace-out", "x.trace", "--log-out", "x.csv"),
         "--clog wants numeric pore:start_s:end_s, got '0:a:1'"),
        ((*_SIMULATE, "--clog", "0:1", "--trace-out", "x.trace", "--log-out", "x.csv"),
         "--clog wants pore:start_s:end_s, got '0:1'"),
    ],
    ids=[
        "bad-int", "missing-value", "unknown-flag", "unknown-command", "no-command",
        "clog-not-numeric", "clog-two-fields",
    ],
)
def test_argument_error_is_one_line_usage_error(tmp_path, monkeypatch, capsys, argv, detail):
    monkeypatch.chdir(tmp_path)
    traceio.write_trace_text(CurrentTrace(1e6, np.full(10, 250.0)), "t.trace")
    assert run(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: usage: {detail}")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.trace"]


@pytest.mark.parametrize("argv", [("--version",), ("--help",), ("stats", "--help")])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().err == ""


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


def test_simulate_refuses_a_band_whose_levels_the_log_cannot_hold(tmp_path, capsys):
    """A level below 5e-7 prints as 0.000000 in the log, which the log's
    parser refuses, so the band is refused before anything is written."""
    calib = tmp_path / "cal.txt"
    calib.write_text("incomplete_level_low = 1e-9\nincomplete_level_high = 1e-7\n")
    code, trace, log = _simulate(tmp_path, "--calibration", str(calib), duration="1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: incomplete_level_low = 1e-09 prints as 0.000000 ")
    assert err.count("\n") == 1
    assert not trace.exists() and not log.exists()


def test_simulate_refuses_a_monolevel_level_the_log_cannot_hold(tmp_path, capsys):
    """With no spread, a blockage of 0.99999995 leaves the level 5e-8, which
    prints as 0.000000 in the log, so the table is refused before any draw."""
    calib = tmp_path / "cal.txt"
    calib.write_text(
        "monolevel_blockage_points = 90:0.99999995 210:0.9999999\nmonolevel_sigma = 0\n"
    )
    code, trace, log = _simulate(tmp_path, "--voltage-mv", "90", "--calibration", str(calib))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: monolevel_blockage_points = 90:0.99999995 gives ")
    assert err.count("\n") == 1
    assert not trace.exists() and not log.exists()


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


_KEY_VALUE_CASES = [
    # (command, key = value lines, --kcl-molar, category, named in the error)
    ("simulate", "base_dwell_us = nan", "1.0", "config", "base_dwell_us"),
    ("simulate", "ref_voltage_mv = nan", "1.0", "config", "ref_voltage_mv"),
    ("simulate", "duration_jitter_cv = nan", "1.0", "config", "duration_jitter_cv"),
    ("simulate", "gating_threshold_molar = nan", "1.0", "config", "gating_threshold_molar"),
    ("simulate", "gating_open_dwell_ms = 0\ngating_closed_dwell_ms = 0", "1.6", "config",
     "gating_open_dwell_ms"),
    ("simulate", "gating_open_dwell_ms = -1", "1.6", "config", "gating_open_dwell_ms"),
    ("simulate", "level_a_3prime = 0.17:nan", "1.0", "config", "level_a_3prime"),
    ("simulate", "level_x_3prime = 0.3:0.05", "1.0", "config", "level_x_3prime"),
    ("simulate", "level_a_3prime = 0.3 : 0.05", "1.0", "config", "level_a_3prime"),
    ("plan", "stations=2.5", None, "param", "stations"),
    ("plan", "translocation_us=nan", None, "param", "translocation_us"),
    ("plan", "parking_spots=1e400", None, "param", "parking_spots"),
    ("plan", "layer_thickness_um=nan", None, "param", "layer_thickness_um"),
    # Finite inputs whose report overflows name the report value.
    ("plan", "layer_thickness_um=1e-300", None, "param", "volumetric_bytes_per_cm3"),
    ("plan", "parking_spots=1e308", None, "param", "areal_bytes_per_cm2"),
    ("plan", "transit_distance_cm=1e308", None, "param", "transit_time_s"),
]


def _key_value_run(directory, command, lines, kcl_molar):
    """Run ``plan --set`` or ``simulate`` with ``lines`` in ``directory/cal.txt``."""
    out = {name: str(directory / name) for name in ("plan.txt", "t.trace", "log.csv")}
    if command == "plan":
        return run("plan", "--set", lines, "--out", out["plan.txt"])
    return run(
        "simulate", "--molecule", "A50C100", "--duration-s", "0.01", "--seed", "1",
        "--kcl-molar", kcl_molar, "--calibration", str(directory / "cal.txt"),
        "--trace-out", out["t.trace"], "--log-out", out["log.csv"],
    )


@pytest.mark.parametrize(
    "command, lines, kcl_molar, category, named",
    _KEY_VALUE_CASES,
    ids=[f"{case[0]} {case[1]}" for case in _KEY_VALUE_CASES],
)
def test_bad_key_value_is_one_line_error_naming_the_key(
    tmp_path, capsys, command, lines, kcl_molar, category, named
):
    (tmp_path / "cal.txt").write_text(lines + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _key_value_run(tmp_path, command, lines, kcl_molar)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}: ")
    assert err.count("\n") == 1 and named in err
    assert not caught
    assert [p.name for p in tmp_path.iterdir()] == ["cal.txt"]


_FUZZ_KEYS = [
    *field_defaults(CalibrationTable),
    *(f"level_{b}_{e}" for b in "acgt" for e in ("3prime", "5prime")),
    *field_defaults(ChipLayout),
    *field_defaults(PlanScenario),
    "level_x_3prime", "level_stats", "layout", "bogus", "",
]
# 1e-300 as a gating dwell asks for more dwells than simulate draws.
_FUZZ_VALUES = [
    "0", "-1", "2.5", "nan", "inf", "-inf", "1e400", "1e308", "1e-300", "", "x", "1:2", "1 2",
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES))
def test_fuzz_key_value_lines_exit_cleanly(key, value):
    line = f"{key} = {value}"
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cal.txt").write_text(line + "\n")
        for command, kcl_molar in (("plan", None), ("simulate", "1.0"), ("simulate", "1.6")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = _key_value_run(Path(tmp), command, line, kcl_molar)
            assert code in (0, 1)
            assert len(re.findall(r"^error: \w+: ", err.getvalue(), re.M)) == code
            assert err.getvalue().count("\n") == code
            assert not caught


# Options whose value is drawn, per command.  Output paths stay fixed.
# simulate's --duration-s is drawn from _ARG_DURATIONS at a 10 kHz sample
# rate, so a run holds no events or tens of them and at most 25 k samples;
# its large values the run-size limits refuse
# (test_simulate_refuses_a_run_too_large_to_simulate).
_ARG_OPTIONS = {
    "simulate": [
        "--molecule", "--voltage-mv", "--kcl-molar", "--seed", "--pores",
        "--sample-rate-hz", "--noise-sigma-pa", "--bandwidth-khz", "--clog", "--format",
    ],
    "read": [
        "--voltage-mv", "--kcl-molar", "--open-current-pa", "--noise-sigma-pa",
        "--threshold-fraction", "--min-duration-us", "--min-substate-us", "--molecule",
        "--complete-floor-us", "--scheme", "--tolerance", "--pores",
    ],
    "stats": ["--voltage-mv", "--kcl-molar", "--open-current-pa", "--pores"],
}
_ARG_VALUES = ["0", "-1", "2.5", "nan", "inf", "-inf", "1e308", "1e-300"]
_ARG_DURATIONS = ["0.01", "0.5", "2.5"]


def _fuzz_trace():
    """A small trace holding one A-then-C bi-level event."""
    samples = np.full(2000, 250.0)
    samples[500:600] = 0.37 * 250.0
    samples[600:650] = 0.17 * 250.0
    return CurrentTrace(1e6, samples)


@st.composite
def _argument_vectors(draw):
    command = draw(st.sampled_from(sorted(_ARG_OPTIONS)))
    options = st.sampled_from([*_ARG_OPTIONS[command], "--bogus"])
    pairs = draw(st.lists(st.tuples(options, st.sampled_from(_ARG_VALUES)),
                          min_size=1, max_size=3))
    fmt = draw(st.sampled_from(["text", "binary"]))
    duration = draw(st.sampled_from(_ARG_DURATIONS))
    return command, fmt, duration, [f"{option}={value}" for option, value in pairs]


@settings(max_examples=150, deadline=None)
@given(_argument_vectors())
def test_fuzz_argument_vectors_exit_cleanly(case):
    command, fmt, duration, drawn = case
    with tempfile.TemporaryDirectory() as tmp:
        trace = str(Path(tmp) / "t.trace")
        if command == "simulate":
            fixed = [
                "--molecule", "A50C100", "--duration-s", duration, "--sample-rate-hz", "10000",
                "--seed", "1", "--format", fmt, "--trace-out", trace,
                "--log-out", str(Path(tmp) / "log.csv"),
            ]
        else:
            traceio.write_trace(_fuzz_trace(), trace, fmt)
            outs = ["--out"] if command == "stats" else [
                "--events-out", "--summary-out", "--payload-out"
            ]
            fixed = ["--trace", trace]
            for i, option in enumerate(outs):
                fixed += [option, str(Path(tmp) / f"out{i}.txt")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, *fixed, *drawn)
        assert code in (0, 1)
        assert len(re.findall(r"^error: \w+: ", err.getvalue(), re.M)) == code
        assert err.getvalue().count("\n") == code
        assert not caught


# Lines a fuzzed text trace body may hold in place of a sample, bytes a
# fuzzed binary header field may hold, and lines a fuzzed calibration may
# hold (tables, tiny and huge values, bytes that are not UTF-8).
_TEXT_LINES = [
    b"250.000000", b"-0.000000", b"  7 ", b"", b"nan", b"inf", b"1e400", b"-1e308",
    b"1.0 2.0", b"#", b"1_0", b"0x10", b"\xff", b"\r", b"12345678901234567890.5",
]
_TEXT_HEADERS = [
    b"sample_rate_hz=1000000", b"sample_rate_hz=0", b"sample_rate_hz=-5",
    b"sample_rate_hz=1e6", b"sample_rate_hz=" + b"9" * 30, b"sample_rate_hz=1",
    b"rate=1000", b"", b"sample_rate_hz=1000000\r", b"\xffsample_rate_hz=1000",
]
_BINARY_RATES = [1e6, 1.0, 0.0, -1.0, math.nan, math.inf, 5e-324, 1e300]
_SAMPLE_VALUES = [250.0, 0.0, -1e30, 1e30, 3e38, math.nan, math.inf]
_CAL_LINES = [
    b"base_dwell_us = 1e-300", b"base_dwell_us = 5e-324", b"base_dwell_us = 1e300",
    b"ref_voltage_mv = 1e-300", b"gating_open_dwell_ms = 1e-300",
    b"gating_closed_dwell_ms = 1e300", b"gating_threshold_molar = 0.5",
    b"event_rate_points = 90:2:0.4 210:1e12:0.4", b"event_rate_points = 90:-5:0.4 210:0:0.4",
    b"event_rate_points = 90:0:0.4 210:21:0.4", b"event_rate_points = 90:2:1e300 210:21:-1",
    b"iv_points = -210:-200 0:0 210:1e300", b"iv_points = 0:0 1e-300:1e-300",
    b"clogged_current_pa = -1e300", b"clogged_current_pa = 249.9",
    b"duration_jitter_cv = 1e300", b"monolevel_sigma = 1e300",
    b"level_a_3prime = 0.99:1e300", b"level_c_3prime = 1e-300:1e-300",
    b"incomplete_mean_duration_us = 1e300", b"incomplete_level_high = 1",
    b"incomplete_level_low = 0", b"bilevel_fraction = 1", b"three_prime_first_fraction = 0",
    b"bilevel_min_voltage_mv = -1e300", b"monolevel_blockage_points = 90:1e-300",
    b"bogus = 1", b"\xff\xfe = 1", b"base_dwell_us",
]


@st.composite
def _trace_bytes(draw):
    """A trace file near _fuzz_trace(): a text trace with drawn lines in
    place of samples, or a binary one with drawn header fields, samples and
    length."""
    samples = _fuzz_trace().samples
    if draw(st.booleans()):
        lines = [b"%.6f" % x for x in samples]
        for index, line in draw(st.lists(
            st.tuples(st.integers(0, len(lines) - 1), st.sampled_from(_TEXT_LINES)), max_size=4
        )):
            lines[index] = line
        header = draw(st.sampled_from(_TEXT_HEADERS))
        cut = draw(st.sampled_from([None, 0, 1, 7]))
        body = b"\n".join([header, *lines]) + b"\n"
        return body if cut is None else body[: len(header) + 1 + cut]
    values = samples.astype("<f4")
    for index, value in draw(st.lists(
        st.tuples(st.integers(0, values.size - 1), st.sampled_from(_SAMPLE_VALUES)), max_size=3
    )):
        values[index] = np.float32(value) if abs(value) < 4e38 else value
    header = struct.pack(
        "<4sIdQ",
        draw(st.sampled_from([traceio.MAGIC, b"MTRX"])),
        draw(st.sampled_from([1, 1, 2])),
        draw(st.sampled_from(_BINARY_RATES)),
        draw(st.sampled_from([values.size, 0, values.size + 1, 2**64 - 1])),
    )
    return (header + values.tobytes())[: draw(st.sampled_from([None, 3, 24, 30]))]


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(["read", "stats", "simulate"]),
    trace=_trace_bytes(),
    calibration=st.none() | st.lists(st.sampled_from(_CAL_LINES), max_size=3),
    kcl_molar=st.sampled_from(["1.0", "2.0"]),
)
def test_fuzz_file_bytes_exit_cleanly(command, trace, calibration, kcl_molar):
    """Trace and calibration files, mangled, run through read, stats and
    simulate --calibration: each exits 0 or 1 with at most one error line
    and raises no traceback or warning."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "t.trace").write_bytes(trace)
        argv = ["--kcl-molar", kcl_molar]
        if calibration is not None:
            (out / "cal.txt").write_bytes(b"\n".join(calibration) + b"\n")
            argv += ["--calibration", str(out / "cal.txt")]
        if command == "simulate":
            argv += [
                "--molecule", "A50C100", "--duration-s", "0.01", "--seed", "1",
                "--trace-out", str(out / "s.trace"), "--log-out", str(out / "log.csv"),
            ]
        elif command == "stats":
            argv += ["--trace", str(out / "t.trace"), "--pores", "2", "--out", str(out / "o")]
        else:
            argv += [
                "--trace", str(out / "t.trace"), "--noise-sigma-pa", "0.5",
                "--scheme", "A50C100", "--events-out", str(out / "e"),
                "--summary-out", str(out / "s"), "--payload-out", str(out / "p"),
            ]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, *argv)
        assert code in (0, 1)
        assert len(re.findall(r"^error: \w+: ", err.getvalue(), re.M)) == code
        assert err.getvalue().count("\n") == code
        assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["read", "stats"])
def test_currents_near_the_float64_limit_exit_cleanly(tmp_path, capsys, command):
    """Two text samples of -1e308 inside the event, read with a census step
    of 0.1 pA: read classifies the event without a warning, and stats
    refuses the currents' sum, which passes float64, with one error line."""
    lines = [b"%.6f" % x for x in _fuzz_trace().samples]
    lines[520] = lines[521] = b"-1e308"
    trace = tmp_path / "t.trace"
    trace.write_bytes(b"sample_rate_hz=1000000\n" + b"\n".join(lines) + b"\n")
    (tmp_path / "cal.txt").write_text("clogged_current_pa = 249.9\n")
    outs = {
        "read": ["--events-out", tmp_path / "e.csv", "--summary-out", tmp_path / "s.txt",
                 "--payload-out", tmp_path / "p.txt"],
        "stats": ["--out", tmp_path / "stats.txt"],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(
            command, "--trace", str(trace), "--pores", "2", "--voltage-mv", "210",
            "--calibration", str(tmp_path / "cal.txt"), *map(str, outs),
        )
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    if command == "read":
        assert code == 0 and err == ""
        assert "events = 1\n" in (tmp_path / "s.txt").read_text()
    else:
        assert code == 1
        assert err == "error: param: the trace's currents sum past the float64 range\n"


def _traced_peak(*argv):
    """Peak traced allocation of one in-process CLI run, which must succeed."""
    tracemalloc.start()
    try:
        code = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def _census_run(tmp_path, fmt, duration):
    """The arguments of a 3-pore ``simulate`` with two clogs."""
    return (
        "simulate", "--molecule", "(AC)60", "--voltage-mv", "150",
        "--pores", "3", "--clog", "0:0.5:4", "--clog", "1:0.8:4",
        "--duration-s", duration, "--seed", "5", "--format", fmt,
        "--trace-out", str(tmp_path / f"{fmt}{duration}.trace"),
        "--log-out", str(tmp_path / f"{fmt}{duration}.log"),
    )


def _simulate_peak_bytes(tmp_path, fmt, duration):
    """Peak traced allocation of one in-process 3-pore ``simulate``."""
    return _traced_peak(*_census_run(tmp_path, fmt, duration))


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


def _analysis_peak_bytes(tmp_path, command, fmt, duration):
    """Peak traced allocation of ``read`` with W1 settings, or of ``stats``
    on the 3-pore run, over a trace of ``duration`` seconds, and the
    trace's sample count."""
    if command == "read":
        trace = str(tmp_path / f"w1{fmt}{duration}.trace")
        assert run(
            "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
            "--duration-s", duration, "--seed", "1", "--format", fmt,
            "--trace-out", trace, "--log-out", str(tmp_path / "w1.log"),
        ) == 0
        argv = (
            "read", "--trace", trace, "--molecule", "A50C100", "--scheme", "A50C100",
            "--threshold-fraction", "0.75", "--events-out", str(tmp_path / "events.csv"),
            "--summary-out", str(tmp_path / "summary.txt"),
            "--payload-out", str(tmp_path / "payload.txt"),
        )
    else:
        assert run(*_census_run(tmp_path, fmt, duration)) == 0
        trace = str(tmp_path / f"{fmt}{duration}.trace")
        argv = (
            "stats", "--trace", trace, "--voltage-mv", "150", "--pores", "3",
            "--out", str(tmp_path / "stats.txt"),
        )
    return _traced_peak(*argv), len(traceio.read_trace(trace))


@pytest.mark.parametrize(
    "command,fmt", [("read", "binary"), ("read", "text"), ("stats", "text")]
)
def test_analysis_memory_flat_in_duration(tmp_path, command, fmt):
    """``read`` and text ``stats`` hold a chunk, never the float64 trace,
    so their peak does not grow with the trace."""
    one_s, one_n = _analysis_peak_bytes(tmp_path, command, fmt, "1")
    four_s, four_n = _analysis_peak_bytes(tmp_path, command, fmt, "4")
    # 8 bytes per sample is the float64 trace alone.
    assert one_s < 8 * one_n and four_s < 8 * four_n, (one_s, four_s)
    assert four_s <= 1.25 * one_s, (one_s, four_s)


# The dense workload's calibration: 50x the default event rates.
DENSE_CALIBRATION = (
    "event_rate_points = 90:100:0.4 120:175:0.4 150:530:0.4 210:1050:0.4\n"
)
# Peak bytes one more event may add to ``simulate`` or ``read``: its rows
# of typed arrays.  Lists of Python numbers and whole-file strings of the
# log and of events.csv took ~470.
MAX_PEAK_BYTES_PER_EVENT = 300


def test_memory_per_event_is_bounded(tmp_path):
    """From 10 s to 40 s of the dense run (~10k to ~39k events), the peak
    of ``simulate`` and of ``read`` grows by at most
    ``MAX_PEAK_BYTES_PER_EVENT`` per extra event: both write their per-event
    text in pieces of ``poresim._LOG_ROWS`` rows, which the 10 s run
    already fills."""
    cal = tmp_path / "dense.cal"
    cal.write_text(DENSE_CALIBRATION)
    peaks = {}
    for duration in ("10", "40"):
        trace, log, events = (tmp_path / f"{duration}.{ext}" for ext in ("trace", "log", "csv"))
        simulate_peak = _traced_peak(
            "simulate", "--molecule", "A50C100", "--voltage-mv", "210",
            "--duration-s", duration, "--sample-rate-hz", "250000",
            "--calibration", str(cal), "--seed", "3", "--format", "binary",
            "--trace-out", str(trace), "--log-out", str(log),
        )
        read_peak = _traced_peak(
            "read", "--trace", str(trace), "--molecule", "A50C100", "--scheme", "A50C100",
            "--threshold-fraction", "0.75", "--events-out", str(events),
            "--summary-out", str(tmp_path / "summary.txt"),
            "--payload-out", str(tmp_path / "payload.txt"),
        )
        truth = sum(row.startswith("event,") for row in _rows(log))
        peaks[duration] = (simulate_peak, truth), (read_peak, len(_rows(events)))
    for (one_peak, one_n), (four_peak, four_n) in zip(peaks["10"], peaks["40"]):
        per_event = (four_peak - one_peak) / (four_n - one_n)
        assert per_event <= MAX_PEAK_BYTES_PER_EVENT, (peaks, per_event)
        assert one_n > poresim._LOG_ROWS


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


@pytest.mark.parametrize(
    "voltage_mv, open_current_pa", [("1e12", "250"), ("1e308", "1e308")]
)
def test_read_refuses_voltage_outside_calibration(tmp_path, capsys, voltage_mv, open_current_pa):
    # --open-current-pa skips open_current, the voltage's other range check.
    trace = tmp_path / "t.trace"
    traceio.write_trace(_fuzz_trace(), str(trace), "binary")
    code = run(
        "read", "--trace", str(trace), "--voltage-mv", voltage_mv,
        "--open-current-pa", open_current_pa, "--events-out", str(tmp_path / "e.csv"),
        "--summary-out", str(tmp_path / "s.txt"), "--payload-out", str(tmp_path / "p.txt"),
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: param: voltage_mv: {float(voltage_mv):g} outside tabulated range [-210, 210]\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["t.trace"]


@pytest.mark.parametrize("molecule", ["A10000000000000", "(AC)10000000000000"])
def test_simulate_refuses_molecule_over_the_base_limit(tmp_path, capsys, molecule):
    code, trace, log = _simulate(tmp_path, "--molecule", molecule, duration="0.01")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: param: molecule spec ") and err.count("\n") == 1
    assert "more than 1000000 bases" in err
    assert not trace.exists() and not log.exists()


@pytest.mark.parametrize(
    "extra, calibration, detail",
    [
        # 10^14 samples at 100 kHz
        (["--duration-s", "1e9"], None, "more than 1e+10 samples"),
        # ~10^10 events in 1 s
        ([], "event_rate_points = 90:2:0.4 210:1e10:0.4", "more than 1e+06"),
        # ~10^303 gating dwells in 1 s
        (["--kcl-molar", "2"], "gating_open_dwell_ms = 1e-300", "more than 1e+06"),
    ],
)
def test_simulate_refuses_a_run_too_large_to_simulate(
    tmp_path, capsys, extra, calibration, detail
):
    if calibration is not None:
        (tmp_path / "cal.txt").write_text(calibration + "\n")
        extra = [*extra, "--calibration", str(tmp_path / "cal.txt")]
    code, trace, log = _simulate(tmp_path, *extra, duration="1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: param: ") and err.count("\n") == 1 and detail in err
    assert not trace.exists() and not log.exists()


@pytest.mark.parametrize("pores", ["65536", "9" * 401])
def test_simulate_refuses_more_pores_than_a_census_holds(tmp_path, capsys, pores):
    code, trace, log = _simulate(tmp_path, "--pores", pores, duration="0.01")
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: param: n_pores must be in [1, 65535], got {pores}\n"
    )
    assert not trace.exists() and not log.exists()


@pytest.mark.parametrize(
    "command, option, content",
    [
        ("encode", "--in", b"\xff01\n"),
        ("decode", "--in", b"\xff01\n"),
        ("plan", "--scenario", b"stations = 10\n\xff\n"),
    ],
)
def test_input_file_that_is_not_utf8_is_one_line_config_error(
    tmp_path, capsys, command, option, content
):
    infile = tmp_path / "in.txt"
    infile.write_bytes(content)
    code = run(command, option, str(infile), "--out", str(tmp_path / "out.txt"))
    assert code == 1
    offset = content.index(b"\xff")
    assert capsys.readouterr().err == (
        f"error: config: {infile}: not UTF-8 text (invalid start byte at byte {offset})\n"
    )
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("base_dwell_us", ["1e-300", "5e-324"])
def test_read_counts_an_impossible_recovered_run_as_a_decode_failure(
    tmp_path, capsys, base_dwell_us
):
    # Each tiny per-base dwell turns the event's 100 us substate into a base
    # count past what any molecule holds (past float64, for 5e-324).
    trace = str(tmp_path / "t.trace")
    traceio.write_trace(_fuzz_trace(), trace, "binary")
    (tmp_path / "cal.txt").write_text(f"base_dwell_us = {base_dwell_us}\n")
    outs = {name: tmp_path / name for name in ("e.csv", "s.txt", "p.txt")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(
            "read", "--trace", trace, "--noise-sigma-pa", "0.5", "--scheme", "A50C100",
            "--calibration", str(tmp_path / "cal.txt"), "--events-out", str(outs["e.csv"]),
            "--summary-out", str(outs["s.txt"]), "--payload-out", str(outs["p.txt"]),
        )
    assert code == 0 and capsys.readouterr().err == ""
    summary = outs["s.txt"].read_text()
    assert "events = 1\n" in summary
    assert "decoded_events = 0\ndecode_failures = 1\n" in summary
    assert outs["p.txt"].read_text() == ""


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
    header, events, _ = poresim.parse_event_log(str(log))
    assert header["gating"] == "true"
    assert len(events) == 0


@pytest.mark.parametrize(
    "error, category",
    [
        (traceio.TraceFormatError("boom"), "format"),
        (calibration.ParamError("boom"), "param"),
        (calibration.RangeError("boom"), "range"),
        (calibration.CalibrationError("boom"), "config"),
        (codec.SizeError("boom"), "param"),
        (codec.CodecError("boom"), "decode"),
        (codec.LengthError("boom"), "decode"),
        (codec.AlphabetError("boom", run_index=0), "decode"),
        (poresim.SimulationError("boom"), "param"),
        (reader.ReaderError("boom"), "param"),
        (reader.OrientationUnknownError("boom"), "param"),
        (chipmodel.PlanError("boom"), "param"),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else value,
)
def test_each_library_error_class_has_one_category(tmp_path, monkeypatch, capsys, error, category):
    def fail(scenario):
        raise error

    monkeypatch.setattr(chipmodel, "plan", fail)
    assert run("plan", "--out", str(tmp_path / "r.txt")) == 1
    assert capsys.readouterr().err == f"error: {category}: boom\n"


def test_an_error_from_outside_molstore_propagates(tmp_path, monkeypatch):
    def fail(scenario):
        raise ValueError("boom")

    monkeypatch.setattr(chipmodel, "plan", fail)
    with pytest.raises(ValueError, match="^boom$"):
        run("plan", "--out", str(tmp_path / "r.txt"))


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["decode", "--mode", "runlength", "--scheme", "A50C100", "--tolerance", "nan"],
         "tolerance must be in [0, 1), got nan"),
        (["encode", "--mode", "runlength", "--scheme", "A0C1"], "run lengths must be >= 1"),
        (["encode", "--mode", "runlength", "--scheme", "A1A2"],
         "scheme bases for 0 and 1 must differ"),
        (["decode", "--mode", "runlength", "--scheme", "X20"],
         "bad scheme spec 'X20'; expected e.g. A20C30"),
    ],
    ids=["tolerance", "run", "bases", "spec"],
)
def test_bad_codec_argument_is_param_error(tmp_path, capsys, argv, detail):
    infile = tmp_path / "in.txt"
    infile.write_text("01\n" if argv[0] == "encode" else "AC\n")
    code = run(*argv, "--in", str(infile), "--out", str(tmp_path / "out.txt"))
    assert code == 1
    assert capsys.readouterr().err == f"error: param: {detail}\n"
    assert not (tmp_path / "out.txt").exists()


def test_read_with_a_bad_scheme_is_param_error(tmp_path, capsys):
    trace = str(tmp_path / "t.trace")
    traceio.write_trace(_fuzz_trace(), trace, "binary")
    outs = [str(tmp_path / name) for name in ("e.csv", "s.txt", "p.txt")]
    code = run(
        "read", "--trace", trace, "--scheme", "A0C1", "--events-out", outs[0],
        "--summary-out", outs[1], "--payload-out", outs[2],
    )
    assert code == 1
    assert capsys.readouterr().err == "error: param: run lengths must be >= 1\n"


# Runs the CLI on its arguments and prints the modules loaded after it.
_RUN_CLI = """
import sys
from molstore import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
"""


def _loaded_modules(cwd, code, *argv) -> set[str]:
    """The modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter that imports molstore from this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.run(
        [sys.executable, "-c", code + "\nprint(*sys.modules)", *argv], cwd=cwd,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert child.stderr == ""
    return set(child.stdout.split())


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["encode", "--in", "p.txt", "--out", "s.txt", "--mode", "runlength"],
        ["decode", "--in", "s.txt", "--out", "d.txt"],
        ["plan", "--out", "r.txt"],
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_commands_without_arrays_start_without_numpy(tmp_path, argv):
    (tmp_path / "p.txt").write_text("01\n")
    (tmp_path / "s.txt").write_text("AC\n")
    modules = _loaded_modules(tmp_path, _RUN_CLI, *argv)
    assert "molstore.cli" in modules and "numpy" not in modules
    assert argv == ["--version"] or (tmp_path / argv[argv.index("--out") + 1]).is_file()


def test_simulate_does_not_load_the_reader(tmp_path):
    modules = _loaded_modules(
        tmp_path, _RUN_CLI, "simulate", "--molecule", "A50C100", "--duration-s", "0.01",
        "--sample-rate-hz", "100000", "--seed", "1", "--trace-out", "t.trace",
        "--log-out", "t.log",
    )
    assert (tmp_path / "t.log").is_file()
    assert "molstore.traceio" in modules and "molstore.reader" not in modules


def test_importing_the_package_loads_no_submodule(tmp_path):
    modules = _loaded_modules(tmp_path, "import sys, molstore")
    assert {m for m in modules if m.startswith("molstore")} == {"molstore"}

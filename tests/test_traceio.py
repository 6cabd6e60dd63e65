import gc
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from molstore import poresim, traceio
from molstore.calibration import CalibrationTable, ChannelConfig
from molstore.poresim import CurrentTrace, MoleculeSpec, simulate
from molstore.traceio import (
    _TEXT_CHUNK,
    MAGIC,
    TraceFormatError,
    _format_exact,
    read_trace,
    read_trace_binary,
    read_trace_text,
    write_trace,
    write_trace_binary,
    write_trace_text,
)


def _trace(n=100, rate=1_000_000.0, seed=0):
    rng = np.random.default_rng(seed)
    return CurrentTrace(rate, rng.normal(250.0, 5.0, n))


def test_text_round_trip(tmp_path):
    trace = _trace()
    path = str(tmp_path / "t.txt")
    write_trace_text(trace, path)
    back = read_trace_text(path)
    assert back.sample_rate_hz == trace.sample_rate_hz
    assert np.allclose(back.samples, trace.samples, atol=5e-7)


def test_text_header_format(tmp_path):
    path = str(tmp_path / "t.txt")
    write_trace_text(_trace(n=2), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sample_rate_hz=1000000"
    assert len(lines) == 3


def test_text_rejects_fractional_rate(tmp_path):
    with pytest.raises(TraceFormatError):
        write_trace_text(CurrentTrace(1000.5, np.zeros(3)), str(tmp_path / "t.txt"))


def test_text_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("rate=1000\n1.0\n")
    with pytest.raises(TraceFormatError):
        read_trace_text(str(path)).samples


def test_text_bad_sample(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sample_rate_hz=1000\nnot-a-number\n")
    with pytest.raises(TraceFormatError):
        read_trace_text(str(path)).samples


def test_text_empty_trace(tmp_path):
    path = str(tmp_path / "empty.txt")
    write_trace_text(CurrentTrace(1000.0, np.empty(0)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_trace_text(path)
    assert len(back) == 0


@pytest.mark.parametrize(
    "body",
    [
        b"1.0\nnan\n",
        b"1.0\ninf\n",
        b"-inf\n2.0\n",
        b"1.0 2.0\n",
        b"1.0\n2.0\t3.0\n4.0\n",
        b"1.0 2.0\n3.0 4.0\n",
        b"# comment\n1.0\n",
    ],
    ids=["nan", "inf", "-inf", "two-values", "two-values-mid", "two-columns", "comment"],
)
def test_text_rejects_malformed_body(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"sample_rate_hz=1000\n" + body)
    with pytest.raises(TraceFormatError):
        read_trace_text(str(path)).samples


@pytest.mark.parametrize(
    "content",
    [
        b"sample_rate_hz=1000\xe9\n1.0\n",
        b"sample_rate_hz=1000\n1.0\n2\xe9\n",
        b"sample_rate_hz=1000\n" + b"1.000000\n" * 5000 + b"2\xe9\n",
    ],
    ids=["header", "body", "past-first-read"],
)
def test_text_rejects_non_ascii(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(TraceFormatError, match="not ASCII"):
        read_trace_text(str(path)).samples


def test_text_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("sample_rate_hz=1000\n\n1.5\n \t\n-2.25\n\n")
    assert read_trace_text(str(path)).samples.tolist() == [1.5, -2.25]


def _reference_body(x):
    """Python's per-value formatting, which the writer must match byte for byte."""
    return "".join(f"{v:.6f}\n" for v in x).encode("ascii")


@pytest.mark.parametrize(
    "x",
    [
        np.random.default_rng(1).normal(250.0, 5.0, 1000),
        np.array([249.5, 251.25, 250.0, 999.999999]),
        np.array([250.1, -3.5, 25.0, 0.0, -0.0, -1e-9, 4e-7, 1234567.0625]),
        np.array([-0.0]),
        np.array([98765432.125, -7.0]),
    ],
    ids=["trace", "same-width", "mixed", "negative-zero", "large"],
)
def test_format_exact_matches_reference(x):
    assert _format_exact(x) == _reference_body(x)


@pytest.mark.parametrize(
    "value",
    [np.nan, np.inf, -np.inf, 2.0**52 / 1e6, -1e300, 0.0078125, (250123 + 0.5) / 1e6],
    ids=["nan", "inf", "-inf", "limit", "huge", "exact-tie", "near-tie"],
)
def test_format_exact_declines(value):
    """Chunks that integer arithmetic cannot format exactly go to the
    reference formatter."""
    x = np.array([250.0, value, 1.0])
    assert _format_exact(x) is None


# Trace-like values, which the integer path formats, including +-0 and
# tiny values of either sign.
_PLAIN = st.one_of(
    st.floats(-1000.0, 1000.0), st.floats(-1e-6, 1e-6), st.sampled_from([0.0, -0.0])
)
# Values it must decline: anything (+-inf, NaN, beyond 2**52 / 1e6),
# near-ties (k + 0.5) / 1e6 and exact dyadic ties (odd multiples of 2**-7
# scale to exact half-integers).
_AWKWARD = st.one_of(
    st.floats(width=64),
    st.integers(-(10**10), 10**10).map(lambda k: (k + 0.5) / 1e6),
    st.integers(-(2**20), 2**20).map(lambda n: (2 * n + 1) / 128),
)


def _value_lists(awkward):
    return st.one_of(
        st.lists(_PLAIN, min_size=1, max_size=40),
        st.lists(st.one_of(_PLAIN, awkward), min_size=1, max_size=40),
    )


_LENGTHS = st.one_of(
    st.sampled_from([0, 1, _TEXT_CHUNK - 1, _TEXT_CHUNK, _TEXT_CHUNK + 1]),
    st.integers(2, 64),
)


def _samples(values, length):
    return np.resize(np.array(values, dtype=np.float64), length)


_FIXTURE_OK = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FIXTURE_OK
@given(values=_value_lists(_AWKWARD), length=_LENGTHS)
def test_text_writer_matches_reference(tmp_path, values, length):
    x = _samples(values, length)
    path = tmp_path / "t.txt"
    if not np.isfinite(x).all():
        with pytest.raises(TraceFormatError, match="non-finite sample"):
            write_trace_text(CurrentTrace(1000.0, x), str(path))
        assert not path.exists()
        return
    write_trace_text(CurrentTrace(1000.0, x), str(path))
    header, _, body = path.read_bytes().partition(b"\n")
    assert header == b"sample_rate_hz=1000"
    assert body == _reference_body(x)


@_FIXTURE_OK
@given(values=_value_lists(_AWKWARD.filter(math.isfinite)), length=_LENGTHS)
def test_text_round_trip_is_exact(tmp_path, values, length):
    x = _samples(values, length)
    path = str(tmp_path / "t.txt")
    write_trace_text(CurrentTrace(1000.0, x), path)
    assert read_trace_text(path).samples.tolist() == [float(f"{v:.6f}") for v in x]


def _loadtxt_reference(path):
    """The text reader before the block parse, kept as the oracle: the body
    through np.loadtxt in text mode (universal newlines)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            fh.readline()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
    except ValueError:  # UnicodeDecodeError included
        return None
    if table.shape[1] != 1 or not np.isfinite(table).all():
        return None
    return table.reshape(-1)


_HAND_SHAPED = st.sampled_from(
    [
        "1.5", "+1", " 7 ", "\t-0.5", "1.", ".5", "1e3", "-.5e-2", "", " ", "\t \x0b\x0c",
        "123456789.5", "-123456789.123456", "1234567890.123456", "-0.000000",
        "9" * 300, "9" * 300 + ".5", "nan", "inf", "infinity", "-Infinity", "1e999",
        "1e-999", "1 2", "#x", "1_0", "0x10", "1e", ".", "-", "+-1", "1.0.0", "\x1c3.25",
        "1\x002", "-.123456", ".1234567", "0012.345678", "12345678.1234567",
    ]
)
_WRITTEN = _AWKWARD.map(lambda v: f"{v:.6f}")
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@_FIXTURE_OK
@example(
    lines=[
        (" ", "\n"), ("1.5", "\r\n"), ("\t \x0b\x0c", "\r"), ("-0.000000", "\n"),
        ("-.5e-2", "\n"),
    ],
    last_break=False, block=7, edge=0, read_chunk=2,
)
@given(
    lines=st.lists(st.tuples(st.one_of(_WRITTEN, _HAND_SHAPED), _BREAKS), max_size=12),
    last_break=st.booleans(),
    block=st.sampled_from([1, 7, 16, 64, None]),
    edge=st.integers(0, 40),
    read_chunk=st.sampled_from([1, 2, 5, None]),
)
def test_text_reader_accepts_what_loadtxt_accepts(
    tmp_path, monkeypatch, lines, last_break, block, edge, read_chunk
):
    """Bodies of written and hand-shaped lines parse exactly when
    np.loadtxt parses them, to the same float64 bits, with lines across
    block edges (a short block, or the real one ``edge`` bytes into the
    drawn lines) and a last line with or without a line break; the
    chunks of a pass (``read_chunk`` samples or the real size) join into
    those values."""
    header = "sample_rate_hz=1000\n"
    body = "".join(text + brk for text, brk in lines)
    if lines and not last_break:
        body = body[: -len(lines[-1][1])]
    if block is None:
        filler = traceio._BLOCK - len(header) - edge
        rows = filler // 11 - 2
        body = "250.000000\n" * rows + "0" * (filler - 11 * rows - 1) + "\n" + body
    else:
        monkeypatch.setattr(traceio, "_BLOCK", block)
    if read_chunk is not None:
        monkeypatch.setattr(poresim, "_CHUNK", read_chunk)
    path = tmp_path / "t.txt"
    path.write_bytes((header + body).encode("ascii"))
    expected = _loadtxt_reference(path)
    if expected is None:
        with pytest.raises(TraceFormatError):
            read_trace_text(str(path)).samples
        return
    trace = read_trace_text(str(path))
    chunks = [chunk.copy() for chunk in trace.chunks()]
    assert all(chunk.size for chunk in chunks)
    got = np.concatenate([np.empty(0), *chunks])
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert trace.samples.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_written_lines_take_the_word_parse(tmp_path, monkeypatch):
    """Every line the writer makes for |x| < 1e8 (and x < 1e9) is parsed
    from its two words, never by the per-line fallback."""
    x = np.array([
        0.0, -0.0, 1e-7, -4e-7, 7.5, -7.5, 250.123456, -12345678.5,
        99999999.999999, -99999999.999999, 123456789.25,
    ])
    path = str(tmp_path / "t.txt")
    write_trace_text(CurrentTrace(1000.0, x), path)

    def fallback(line, number):
        raise AssertionError(f"line {number} {line!r} left the word parse")

    monkeypatch.setattr(traceio, "_sample_value", fallback)
    got = read_trace_text(path).samples
    assert got.view(np.uint64).tolist() == np.array(
        [float(f"{v:.6f}") for v in x]
    ).view(np.uint64).tolist()


def test_short_lines_grow_the_sample_array(tmp_path):
    """Lines shorter than the writer's, more samples than a block of the
    writer's lines holds, parse over several blocks."""
    n = 3 * traceio._BLOCK // 2
    path = tmp_path / "t.txt"
    path.write_bytes(b"sample_rate_hz=1000\n" + b"7\n-1\n" * (n // 2))
    assert read_trace_text(str(path)).samples.tolist() == [7.0, -1.0] * (n // 2)


def test_bad_sample_error_names_its_line_in_the_third_block(tmp_path):
    n_good = 2 * traceio._BLOCK // 11 + 100
    header = b"sample_rate_hz=1000\n"
    assert 2 * traceio._BLOCK < len(header) + 11 * n_good < 3 * traceio._BLOCK
    path = tmp_path / "t.txt"
    path.write_bytes(header + b"250.000000\n" * n_good + b"1.0 2.0\n4.0\n")
    with pytest.raises(TraceFormatError, match=rf"^bad sample value on line {n_good + 2}: "):
        read_trace_text(str(path)).samples


def test_binary_round_trip(tmp_path):
    trace = _trace(n=1000)
    path = str(tmp_path / "t.mtrc")
    write_trace_binary(trace, path)
    back = read_trace_binary(path)
    assert back.sample_rate_hz == trace.sample_rate_hz
    # float32 storage
    assert np.allclose(back.samples, trace.samples, rtol=1e-6, atol=1e-3)


def test_binary_layout(tmp_path):
    path = str(tmp_path / "t.mtrc")
    write_trace_binary(CurrentTrace(250_000.0, np.array([1.5, -2.0])), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, rate, count = struct.unpack("<4sIdQ", raw[:24])
    assert magic == MAGIC == b"MTRC"
    assert version == 1
    assert rate == 250_000.0
    assert count == 2
    assert struct.unpack("<2f", raw[24:]) == (1.5, -2.0)


def _binary_file(path, values):
    path.write_bytes(
        struct.pack(f"<4sIdQ{len(values)}f", MAGIC, 1, 1000.0, len(values), *values)
    )


def test_binary_reads_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(poresim, "_CHUNK", 3)
    values = [float(v) for v in range(-5, 6)]
    path = tmp_path / "t.mtrc"
    _binary_file(path, values)
    back = read_trace_binary(str(path))
    assert back.samples.dtype == np.float64
    assert back.samples.tolist() == values


def test_binary_chunk_passes_close_their_files(tmp_path, monkeypatch):
    monkeypatch.setattr(poresim, "_CHUNK", 3)
    values = [float(v) for v in range(11)]
    path = tmp_path / "t.mtrc"
    _binary_file(path, values)
    trace = read_trace_binary(str(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            assert np.concatenate(list(trace.chunks())).tolist() == values
            for chunk in trace.chunks():
                assert chunk.tolist() == values[:3]
                break  # an abandoned pass
            partial = trace.chunks()
            next(partial)
            del partial
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 4, 10])
def test_binary_reader_refuses_non_finite(tmp_path, monkeypatch, bad, index):
    monkeypatch.setattr(poresim, "_CHUNK", 3)
    values = [250.0] * 11
    values[index] = bad
    path = tmp_path / "bad.mtrc"
    _binary_file(path, values)
    trace = read_trace_binary(str(path))
    with pytest.raises(TraceFormatError, match=f"non-finite sample .* at index {index}$"):
        list(trace.chunks())


@pytest.mark.parametrize("writer", [write_trace_text, write_trace_binary])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite(tmp_path, monkeypatch, writer, bad):
    monkeypatch.setattr(poresim, "_CHUNK", 4)
    x = np.full(10, 250.0)
    x[6] = bad
    path = tmp_path / "bad.trace"
    with pytest.raises(TraceFormatError, match="non-finite sample .* at index 6"):
        writer(CurrentTrace(1000.0, x), str(path))
    assert not path.exists()


def test_binary_writer_refuses_float32_overflow(tmp_path):
    path = tmp_path / "big.mtrc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match="non-finite sample inf at index 1"):
            write_trace_binary(CurrentTrace(1000.0, np.array([1.0, 1e300])), str(path))
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_streamed_trace_writes_held_trace_bytes(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(poresim, "_CHUNK", 1000)
    config = ChannelConfig(voltage_mv=210.0, sample_rate_hz=100_000, n_pores=2)
    result = simulate(MoleculeSpec.from_string("A50C100"), config, 0.1, CalibrationTable(), 6)
    streamed, held = tmp_path / "streamed", tmp_path / "held"
    write_trace(result.trace, str(streamed), fmt)
    write_trace(CurrentTrace(100_000.0, result.trace.samples.copy()), str(held), fmt)
    assert streamed.read_bytes() == held.read_bytes()
    assert len(read_trace(str(streamed))) == 10_000


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.mtrc"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(TraceFormatError):
        read_trace_binary(str(path))


@pytest.mark.parametrize(
    "fmt, rate", [
        ("binary", 0.5), ("binary", math.nan), ("binary", math.inf), ("binary", 1e12 + 1),
        ("binary", 1e300), ("text", "0"), ("text", "1000000000001"), ("text", "9" * 400),
    ],
)
def test_reader_refuses_sample_rate_outside_range(tmp_path, fmt, rate):
    # From ~9e21 Hz a 1 ms census block overflows an int64 index, and below
    # 1 Hz the microseconds of an event can overflow a float64.
    path = tmp_path / "t.trace"
    if fmt == "binary":
        path.write_bytes(struct.pack("<4sIdQf", MAGIC, 1, rate, 1, 250.0))
    else:
        path.write_bytes(f"sample_rate_hz={rate}\n250.0\n".encode("ascii"))
    with pytest.raises(TraceFormatError, match=r"^sample rate must be in \[1, 1e\+12\] Hz$"):
        read_trace(str(path))


def test_binary_truncated(tmp_path):
    trace = _trace(n=10)
    path = tmp_path / "t.mtrc"
    write_trace_binary(trace, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TraceFormatError):
        read_trace_binary(str(path))


def test_binary_count_beyond_file_size(tmp_path):
    path = tmp_path / "huge.mtrc"
    path.write_bytes(struct.pack("<4sIdQ", MAGIC, 1, 1000.0, 2**40))
    with pytest.raises(TraceFormatError, match="header promises 1099511627776"):
        read_trace_binary(str(path))


def test_binary_bad_version(tmp_path):
    path = tmp_path / "bad.mtrc"
    path.write_bytes(struct.pack("<4sIdQ", MAGIC, 9, 1000.0, 0))
    with pytest.raises(TraceFormatError):
        read_trace_binary(str(path))


def test_read_trace_sniffs_format(tmp_path):
    trace = _trace(n=16)
    text_path = str(tmp_path / "t.txt")
    bin_path = str(tmp_path / "t.mtrc")
    write_trace(trace, text_path, "text")
    write_trace(trace, bin_path, "binary")
    assert np.allclose(read_trace(text_path).samples, trace.samples, atol=5e-7)
    assert np.allclose(read_trace(bin_path).samples, trace.samples, atol=1e-3)


def test_write_trace_unknown_format(tmp_path):
    with pytest.raises(TraceFormatError):
        write_trace(_trace(2), str(tmp_path / "x"), "csv")
